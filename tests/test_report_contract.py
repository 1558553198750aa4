"""The verify JSON report is the package's behavioural contract.

Each file in ``tests/data`` holds ``ebcv verify --format json --seed 0`` at
one (m, l) and sample count, with ``summary.elapsed`` removed.  Four hold
20 samples, fewer than one curvature chunk; one of them is at (-3, 1),
where the sampler rejects points, so the sample there is not the draw at
(0, l) that the m = 0 records read at other seeds or parameters.  One more
holds 20 samples at (0, 1e-3), where the Killing rejection and the other
thresholds meet a small l, and must exit 0.  Two hold
100, so their samples cross chunk boundaries: at (1, 1) and at (0, 1).
A change that moves
any record fails here and names the first check that differs.  When a
change alters the report on purpose, regenerate the files and show their
diff with the change:

    PYTHONPATH=src python tests/test_report_contract.py
"""

import json
import pathlib

import pytest

from ebcv.verify import run_verify

DATA = pathlib.Path(__file__).resolve().parent / "data"
CASES = [(0.0, 1.0, 20), (1.0, 1.0, 20), (1.0, 0.0, 20), (1.0, 1.0, 100),
         (0.0, 1.0, 100), (-3.0, 1.0, 20), (0.0, 1e-3, 20)]
IDS = [f"{m}-{l}" + ("" if n == 20 else f"-samples{n}") for m, l, n in CASES]
SEED = 0


def _path(m, l, samples):
    return DATA / f"verify_m{m:g}_l{l:g}_samples{samples}_seed{SEED}.json"


def _report(m, l, samples):
    """The report as the CLI writes it (JSON round trip), without elapsed."""
    doc = run_verify(m, l, samples=samples, seed=SEED).to_json_dict()
    doc["summary"].pop("elapsed")
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("m, l, samples", CASES, ids=IDS)
def test_report_matches_the_pinned_contract(m, l, samples):
    want = json.loads(_path(m, l, samples).read_text())
    got = _report(m, l, samples)
    assert [c["id"] for c in got["checks"]] == [c["id"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert g == w, f"first differing check: {w['id']}"
    assert got["summary"] == want["summary"]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for m, l, samples in CASES:
        _path(m, l, samples).write_text(
            json.dumps(_report(m, l, samples), indent=2, sort_keys=True) + "\n")
