"""The verify JSON report is the package's behavioural contract.

Each file in ``tests/data`` holds ``ebcv verify --format json --samples 20
--seed 0`` at one (m, l), with ``summary.elapsed`` removed.  A change that
moves any record fails here and names the first check that differs.  When a
change alters the report on purpose, regenerate the files and show their
diff with the change:

    PYTHONPATH=src python tests/test_report_contract.py
"""

import json
import pathlib

import pytest

from ebcv.verify import run_verify

DATA = pathlib.Path(__file__).resolve().parent / "data"
CASES = [(0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
SAMPLES, SEED = 20, 0


def _path(m, l):
    return DATA / f"verify_m{m:g}_l{l:g}_samples{SAMPLES}_seed{SEED}.json"


def _report(m, l):
    """The report as the CLI writes it (JSON round trip), without elapsed."""
    doc = run_verify(m, l, samples=SAMPLES, seed=SEED).to_json_dict()
    doc["summary"].pop("elapsed")
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("m, l", CASES)
def test_report_matches_the_pinned_contract(m, l):
    want = json.loads(_path(m, l).read_text())
    got = _report(m, l)
    assert [c["id"] for c in got["checks"]] == [c["id"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert g == w, f"first differing check: {w['id']}"
    assert got["summary"] == want["summary"]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for m, l in CASES:
        _path(m, l).write_text(json.dumps(_report(m, l), indent=2, sort_keys=True) + "\n")
