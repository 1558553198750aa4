"""The three benchmark workloads, built from a seed.

A workload is a round: a fixed list of operations that every run repeats
whole.  An operation's ``run`` makes the program calls that are timed and
returns their output; ``check`` returns the problems the reference checks
find in that output.  ``run`` raises `OpFailed` when the program itself
reports a failure (a non-zero exit code, an incomplete trajectory).
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


class OpFailed(Exception):
    """The program reported that an operation failed."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


VERIFY_PARAMS = ((0.0, 1.0), (1.0, 1.0), (1.0, 0.0))
VERIFY_SAMPLES = 100

CURVATURE_PARAMS = ((1.0, 1.0), (0.0, 1.0))
CURVATURE_POINTS = 200

FAN_HEISENBERG = 8
FAN_RIEMANNIAN = 4
FAN_STEPS = 300
FAN_H = 1e-3


def verify_sweep(ebcv, seed: int) -> list:
    """One in-process `ebcv verify --format json` report per (m, l)."""
    rng = np.random.default_rng(seed)
    verify_seeds = rng.integers(0, 2**31 - 1, size=len(VERIFY_PARAMS))
    ops = []
    for (m, l), vseed in zip(VERIFY_PARAMS, verify_seeds):
        argv = ["verify", "--m", repr(m), "--l", repr(l),
                "--samples", str(VERIFY_SAMPLES), "--seed", str(int(vseed)),
                "--format", "json"]
        first: list[str] = []

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ebcv.cli.main(argv)
            if code != 0:
                raise OpFailed(f"ebcv {' '.join(argv)} exited with {code}")
            return buf.getvalue()

        def check(text, m=m, l=l, first=first):
            problems = checks.check_verify_report(text, m, l)
            body = checks.without_elapsed(text)
            if not first:
                first.append(body)
            elif body != first[0]:
                problems.append("report differs from the first one apart from elapsed")
            return problems

        ops.append(Op(f"verify m={m:g} l={l:g}", run, check))
    return ops


CURVATURE_ENTRY_POINTS = (
    "riemann_frame", "ricci_frame", "scalar_curvature", "ambrose_singer_check",
)


def curvature_field(ebcv, seed: int) -> list:
    """Fresh seeded points through the four curvature entry points.

    Each entry point on one batch is its own operation, so that a run holds
    more, shorter timings; the last one's check covers all four outputs.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for m, l in CURVATURE_PARAMS:
        params = ebcv.ModelParams(m, l)
        q = rng.uniform(-0.5, 0.5, size=(CURVATURE_POINTS, 7))
        outputs: dict = {}
        for name in CURVATURE_ENTRY_POINTS:

            def run(name=name, q=q, params=params, outputs=outputs):
                outputs[name] = getattr(ebcv, name)(q, params)
                return outputs

            def check(outputs, name=name, q=q, m=m, l=l):
                if name != CURVATURE_ENTRY_POINTS[-1]:
                    return []
                got = [outputs.pop(n, None) for n in CURVATURE_ENTRY_POINTS]
                if any(g is None for g in got):
                    return []  # an entry point failed, and was counted so
                return checks.check_curvature(q, m, l, *got)

            ops.append(Op(f"{name} m={m:g} l={l:g}", run, check))
    return ops


def _heisenberg_momentum(rng) -> np.ndarray:
    """Random covector whose rotation rate |p_v| lies in [1, 1.5]."""
    pv = rng.normal(size=3)
    pv *= rng.uniform(1.0, 1.5) / np.linalg.norm(pv)
    return np.concatenate([pv, rng.uniform(-1.0, 1.0, size=4)])


def geodesic_fan(ebcv, seed: int) -> list:
    """RK4 runs from the origin: Heisenberg ones with their closed form and
    arc test, and Riemannian ones at (m, l) = (1, 1)."""
    rng = np.random.default_rng(seed)
    origin = np.zeros(7)
    heis = ebcv.ModelParams(0.0, 1.0)
    riem = ebcv.ModelParams(1.0, 1.0)
    ops = []
    for k in range(FAN_HEISENBERG + FAN_RIEMANNIAN):
        if k < FAN_HEISENBERG:
            p0 = _heisenberg_momentum(rng)
            state = ebcv.CotangentState(origin, p0)

            def run(state=state):
                rk = ebcv.integrate(state, heis, "heisenberg", FAN_H, FAN_STEPS)
                if rk.status != "complete":
                    raise OpFailed(f"heisenberg trajectory ended {rk.status}")
                cf = ebcv.closed_form_trajectory(state, FAN_H, FAN_STEPS)
                return rk, cf, ebcv.circle_check(rk)

            def check(out, p0=p0):
                return checks.check_heisenberg(p0, FAN_STEPS, *out)

            label = f"heisenberg #{k}"
        else:
            p0 = rng.uniform(-1.0, 1.0, size=7)
            state = ebcv.CotangentState(origin, p0)

            def run(state=state):
                traj = ebcv.integrate(state, riem, "riemannian", FAN_H, FAN_STEPS)
                if traj.status != "complete":
                    raise OpFailed(f"riemannian trajectory ended {traj.status}")
                return traj

            def check(traj, p0=p0):
                return checks.check_riemannian(p0, FAN_STEPS, traj)

            label = f"riemannian #{k}"
        ops.append(Op(label, run, check))
    return ops


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "curvature-field": curvature_field,
    "geodesic-fan": geodesic_fan,
}
