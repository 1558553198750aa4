"""The RK4 integrator's output, pinned byte for byte.

``tests/data/integrate_contract.json`` holds, for each case below,
the status, exit step and sample count of `integrate`, the sha256 of the
bytes of ``u``, ``q``, ``p`` and ``H``, and the last sample as
``float.hex``.  A change that moves any bit of a trajectory fails here and
names the first case and array that differ.  When a change alters the
integrator on purpose, regenerate the file, which prints the names of the
records that changed, and show its diff:

    PYTHONPATH=src python tests/test_integrate_contract.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from ebcv.frames import ModelParams
from ebcv.geodesics import CotangentState, integrate

PATH = pathlib.Path(__file__).resolve().parent / "data" / "integrate_contract.json"
ARRAYS = ("u", "q", "p", "H")


def _seeded(seed, scale_q):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale_q, scale_q, 7), rng.uniform(-1.0, 1.0, 7)


def _offset_w(w, p):
    q = np.zeros(7)
    q[3] = w
    return q, np.asarray(p, dtype=float)


# name -> ((q, p), (m, l), mode, h, n)
CASES = {
    "heisenberg-origin": (_seeded(0, 0.0), (0.0, 1.0), "heisenberg", 1e-3, 400),
    "heisenberg-offset": (_seeded(1, 0.5), (0.0, 1.0), "heisenberg", 1e-2, 200),
    "subriemannian-1-1": (_seeded(2, 0.5), (1.0, 1.0), "subriemannian", 1e-2, 200),
    "riemannian-1-1": (_seeded(3, 0.5), (1.0, 1.0), "riemannian", 1e-3, 300),
    "riemannian-m0.5-2": (_seeded(4, 0.5), (-0.5, 2.0), "riemannian", 5e-3, 200),
    "domain-exit-step-1": (
        _offset_w(0.5, [0, 0, 0, 2.0, 0, 0, 0]), (-1.0, 1.0), "subriemannian", 1.0, 10,
    ),
    "domain-exit-late": (
        _offset_w(0.5, [0, 0, 0, 4.0, 0, 0, 0]), (-1.0, 1.0), "subriemannian", 0.2, 40,
    ),
    "step-rejected": (
        _offset_w(1.0, np.full(7, 3.0)), (1.0, 1.0), "riemannian", 0.5, 100,
    ),
    # step 3 reaches finite q where K = 1 + m|u|^2 overflows, so its energy
    # is not finite and step 3 is rejected
    "k-overflow": (
        _offset_w(0.5, np.full(7, 1.0)), (1.0, 1.0), "riemannian", 0.3, 100,
    ),
    # m = 0 with l != 1: the twist is scaled but K stays 1
    "subriemannian-0-2": (_seeded(5, 0.5), (0.0, 2.0), "subriemannian", 1e-2, 200),
    # l < 0: the scaled twist carries negative zeros
    "riemannian-0.5-m1.5": (_seeded(6, 0.5), (0.5, -1.5), "riemannian", 5e-3, 200),
    # u = 0 and p_r = p_s = p_t = 0 with negative zeros in q and p: p_x
    # stays -0.0 only while every increment to it is -0.0 too
    "riemannian-1-1-u0": (
        (
            np.array([0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0]),
            np.array([-0.0, 0.0, -0.0, 0.5, -0.0, -0.25, 0.0]),
        ),
        (1.0, 1.0), "riemannian", 1e-2, 200,
    ),
}


def _record(name):
    (q, p), (m, l), mode, h, n = CASES[name]
    tr = integrate(CotangentState(q, p), ModelParams(m, l), mode, h, n)
    rec = {
        "status": tr.status,
        "exit_step": tr.exit_step,
        "n_samples": tr.n_samples,
    }
    for key in ARRAYS:
        arr = getattr(tr, key)
        rec[f"sha256_{key}"] = hashlib.sha256(arr.tobytes()).hexdigest()
        rec[f"last_{key}"] = [float(v).hex() for v in np.atleast_1d(arr[-1])]
    return rec


@pytest.mark.parametrize("name", list(CASES))
def test_integrate_matches_the_pinned_contract(name):
    want = json.loads(PATH.read_text())[name]
    got = _record(name)
    for key in ("status", "exit_step", "n_samples"):
        assert got[key] == want[key], f"{name}: {key}"
    for key in ARRAYS:
        assert got[f"sha256_{key}"] == want[f"sha256_{key}"], (
            f"{name}: array {key} differs; last sample {got[f'last_{key}']} "
            f"against {want[f'last_{key}']}"
        )
        assert got[f"last_{key}"] == want[f"last_{key}"], f"{name}: {key}"


if __name__ == "__main__":
    old = json.loads(PATH.read_text()) if PATH.exists() else {}
    doc = {name: _record(name) for name in CASES}
    changed = sorted(n for n in old.keys() | doc.keys() if old.get(n) != doc.get(n))
    print("changed records:", ", ".join(changed) or "none")
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
