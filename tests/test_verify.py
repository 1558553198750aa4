"""The verification registry: statuses, pinned records, and determinism."""

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import ebcv
import ebcv.curvature
import ebcv.frames
import ebcv.homogeneous
import ebcv.verify
from ebcv.errors import DomainViolation
from ebcv.verify import CheckResult, VerifyReport, run_verify

# discrepancy records tied to the fixed-parameter systems (always present)
FIXED_SYSTEM_DISCREPANCIES = {
    "geodesic-sdot-line",
    "heisenberg-bracket-yz",
    "killing-eq13-sign",
}


@pytest.fixture(scope="module")
def report_01():
    return run_verify(0.0, 1.0, samples=30, seed=7)


@pytest.fixture(scope="module")
def report_11():
    return run_verify(1.0, 1.0, samples=30, seed=1)


def _by_id(report):
    return {c.id: c for c in report.checks}


def test_report_is_sorted_and_ids_unique(report_01):
    ids = [c.id for c in report_01.checks]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_no_internal_failures(report_01, report_11):
    assert report_01.exit_code == 0
    assert report_11.exit_code == 0
    assert report_01.counts["fail"] == 0
    assert report_11.counts["fail"] == 0


def test_discrepancy_records_carry_both_strings(report_01, report_11):
    for rep in (report_01, report_11):
        for c in rep.checks:
            if c.status == "paper-discrepancy":
                assert c.printed, c.id
                assert c.oracle, c.id


def test_expected_discrepancies_at_01(report_01):
    got = {c.id for c in report_01.checks if c.status == "paper-discrepancy"}
    assert got == FIXED_SYSTEM_DISCREPANCIES | {
        "appendix-bracket-47",  # the missing factor m is visible at m = 0
        "scalar-vs-corollary",
        "torsion-definitions-agreement",
        "torsion-parallelism-characteristic",
    }
    d = _by_id(report_01)
    assert d["appendix-bracket-45"].status == "pass"
    assert d["as-equations"].status == "pass"


def test_expected_discrepancies_at_11(report_11):
    d = _by_id(report_11)
    assert d["appendix-bracket-45"].status == "paper-discrepancy"
    assert "x**2 + y**2" in d["appendix-bracket-45"].printed
    assert "y**2 + z**2" in d["appendix-bracket-45"].oracle
    # the missing-m misprint is invisible exactly at m = 1
    assert d["appendix-bracket-47"].status == "pass"
    assert d["as-equations"].status == "paper-discrepancy"
    assert d["scalar-vs-corollary"].status == "paper-discrepancy"
    assert d["scalar-vs-corollary"].printed == "48*m"


def test_scalar_corollary_numbers_at_01(report_01):
    d = _by_id(report_01)
    c = d["scalar-vs-corollary"]
    # oracle -3 versus printed 48*0 = 0
    assert c.max_residual == pytest.approx(3.0, abs=1e-9)


def test_flat_parameters_only_fixed_system_discrepancies():
    rep = run_verify(0.0, 0.0, samples=20, seed=3)
    assert rep.exit_code == 0
    got = {c.id for c in rep.checks if c.status == "paper-discrepancy"}
    assert got == FIXED_SYSTEM_DISCREPANCIES
    d = _by_id(rep)
    assert d["scalar-vs-corollary"].status == "pass"
    assert d["torsion-parallelism-characteristic"].status == "pass"


def test_byte_determinism_given_seed():
    a = run_verify(0.5, 1.5, samples=20, seed=9)
    b = run_verify(0.5, 1.5, samples=20, seed=9)
    da, db = a.to_json_dict(), b.to_json_dict()
    da["summary"].pop("elapsed")
    db["summary"].pop("elapsed")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


@pytest.mark.parametrize("m, l, passes", [(1.0, 1.0, 2), (0.0, 1.0, 1)],
                         ids=["general", "m0"])
def test_verify_reads_each_sample_in_one_pass(monkeypatch, m, l, passes):
    # every per-point record comes from one chunked pass over the sample,
    # plus one over the m = 0 sample when it is another; no public
    # curvature entry point runs
    public, chunked = [], []
    original = ebcv.verify._chunked

    def counting(fr, body):
        chunked.append(fr.q.size // 7)
        return original(fr, body)

    def recording(name):
        fn = getattr(ebcv.curvature, name)

        def call(*args, **kwargs):
            public.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(ebcv.verify, "_chunked", counting)
    for name in ("curvature_bundle", "riemann_frame"):
        monkeypatch.setattr(ebcv.verify, name, recording(name), raising=False)
        monkeypatch.setattr(ebcv.curvature, name, recording(name))
    rep = run_verify(m, l, samples=40, seed=0)
    assert rep.counts["fail"] == 0
    assert not public
    assert chunked == [40] * passes


@pytest.mark.parametrize("m, l, again", [(1.0, 1.0, 20), (0.0, 1.0, 0)],
                         ids=["general", "m0"])
def test_r_is_built_once_per_sample_point(monkeypatch, m, l, again):
    # R and nabla R of every sample point come from its one chunked pass,
    # whose first chunk also serves the records of the first 20 points; only
    # the first 20 points of a distinct m = 0 sample get curvature besides
    samples = 40  # more than one curvature chunk
    points = []
    bundle = ebcv.curvature._bundle

    def counting_bundle(fr):
        points.append(fr.q.size // 7)
        return bundle(fr)

    for mod in (ebcv.curvature, ebcv.homogeneous, ebcv.verify):
        monkeypatch.setattr(mod, "_bundle", counting_bundle)
    rep = run_verify(m, l, samples=samples, seed=0)
    assert rep.counts["fail"] == 0
    assert sum(points) == samples + again


# how far a fresh process's peak RSS rises over one report (in KB on Linux)
_PEAK_RISE = """
import resource, sys
from ebcv.verify import run_verify
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
base = peak()
run_verify(1.0, 1.0, samples=int(sys.argv[1]), seed=0)
print(peak() - base)
"""


def test_memory_does_not_grow_with_the_sample():
    # every check of the whole sample keeps one number per point, so the
    # peak is one chunk's curvature whatever the sample count; each count
    # runs in its own fresh process, the two side by side
    src = str(pathlib.Path(ebcv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = [
        subprocess.Popen([sys.executable, "-c", _PEAK_RISE, str(samples)],
                         env=env, stdout=subprocess.PIPE, text=True)
        for samples in (32, 160)
    ]
    small, large = (int(p.communicate(timeout=300)[0]) for p in procs)
    assert large <= 1.25 * small, (small, large)


def test_each_point_set_gets_one_frame_jet(monkeypatch):
    # the chunks and heads of a sample are rows of its jet, so no point is
    # in two jets of the same parameters
    jets = Counter()
    init = ebcv.frames.FrameJet.__init__

    def counting_init(self, q, params):
        q = np.asarray(q, dtype=float)
        if q.ndim > 1:
            jets.update((row.tobytes(), params) for row in q.reshape(-1, 7))
        init(self, q, params)

    monkeypatch.setattr(ebcv.frames.FrameJet, "__init__", counting_init)
    rep = run_verify(1.0, 1.0, samples=20, seed=0)
    assert rep.counts["fail"] == 0
    assert jets and max(jets.values()) == 1


def test_table_record_takes_the_first_entry_with_the_worst_gap():
    # one row per point: its worst gap and the first entry that has it; the
    # worst gap of all wins, then the lowest entry, then the lowest point
    gaps = np.array([[1.0, 2], [3.0, 4], [3.0, 1], [3.0, 1], [2.0, 0]])
    pts = np.arange(35.0).reshape(5, 7)
    table = {"entries": {f"1,{b}": {"3": f"{b}"} for b in range(2, 7)}}
    ctx = SimpleNamespace(tol=lambda base: base)
    rec = ebcv.verify._table_record(
        ctx, ("t", table, None, 0.5, "ref"), gaps, pts)
    assert rec.status == "paper-discrepancy"
    assert rec.max_residual == 3.0
    assert rec.witness == pts[2].tolist()
    assert rec.printed == json.dumps({"3": "3"})  # entry 1 is pair (1, 3)
    rec = ebcv.verify._table_record(
        ctx, ("t", table, None, 5.0, "ref"), gaps, pts)
    assert (rec.status, rec.witness) == ("pass", pts[2].tolist())


def test_seed_changes_the_witnesses():
    a = run_verify(1.0, 1.0, samples=20, seed=1)
    b = run_verify(1.0, 1.0, samples=20, seed=2)
    wa = _by_id(a)["ricci-proposition"].witness
    wb = _by_id(b)["ricci-proposition"].witness
    assert wa != wb


def test_pathological_parameters_raise():
    with pytest.raises(DomainViolation):
        run_verify(-80.0, 1.0, samples=20, seed=3)


def test_samples_validation():
    with pytest.raises(ValueError):
        run_verify(0.0, 1.0, samples=0, seed=0)


@pytest.mark.parametrize("tol_scale", [float("nan"), -1.0, 0.0, float("inf")])
def test_tol_scale_validation(tol_scale):
    # nan, -1 and 0 would fail correct checks; inf would hide every erratum
    with pytest.raises(ValueError):
        run_verify(0.0, 1.0, samples=3, seed=0, tol_scale=tol_scale)


def test_non_finite_parameters_raise_value_error():
    # nan as l used to end in an SVD that did not converge
    for m, l in ((0.0, float("nan")), (float("nan"), 1.0), (float("inf"), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            run_verify(m, l, samples=3, seed=0)


def test_tiny_sample_counts_still_run_clean():
    for samples in (1, 5):
        rep = run_verify(0.0, 1.0, samples=samples, seed=2)
        assert rep.counts["fail"] == 0, samples


def test_tol_scale_loosens_every_threshold():
    rep = run_verify(1.0, 1.0, samples=20, seed=4, tol_scale=1e12)
    assert rep.counts["fail"] == 0
    assert rep.counts["paper-discrepancy"] == 0
    # a claim that holds quotes neither the printed nor the oracle string
    for c in rep.checks:
        assert c.printed is None and c.oracle is None, c.id


def test_report_shape(report_01):
    doc = report_01.to_json_dict()
    assert set(doc) == {"summary", "checks"}
    assert doc["summary"]["params"] == {"m": 0.0, "l": 1.0}
    assert doc["summary"]["box"] == [-0.5, 0.5]
    assert doc["summary"]["k_min"] == 0.1
    assert doc["summary"]["elapsed"] > 0
    statuses = {c["status"] for c in doc["checks"]}
    assert statuses <= {"pass", "fail", "paper-discrepancy"}
    for c in doc["checks"]:
        assert set(c) == {
            "id", "status", "max_residual", "witness", "reference",
            "details", "printed", "oracle",
        }


def test_text_rendering(report_01):
    text = report_01.to_text()
    assert "scalar-vs-corollary" in text
    assert "printed: 48*m" in text
    assert "paper-discrepancy" in text


def test_witnesses_are_json_native(report_01):
    for c in report_01.checks:
        if c.witness is not None:
            assert all(isinstance(v, float) for v in c.witness)
        if c.max_residual is not None:
            assert isinstance(c.max_residual, float)
