"""The verification registry: statuses, pinned records, and determinism."""

import json

import numpy as np
import pytest

import ebcv.curvature
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


def _count_bundle_builds(monkeypatch, m, l):
    """Point count of each curvature_bundle call in one 20-sample run."""
    calls = []
    original = ebcv.curvature.curvature_bundle

    def counting(q, params):
        calls.append(len(np.atleast_2d(q)))
        return original(q, params)

    for mod in (ebcv.curvature, ebcv.homogeneous, ebcv.verify):
        monkeypatch.setattr(mod, "curvature_bundle", counting)
    rep = run_verify(m, l, samples=20, seed=0)
    assert rep.counts["fail"] == 0
    return calls


def test_general_run_builds_curvature_at_most_twice(monkeypatch):
    # one bundle for the sample, one for the first 20 m = 0 points
    assert len(_count_bundle_builds(monkeypatch, 1.0, 1.0)) <= 2


def test_m0_run_builds_curvature_once(monkeypatch):
    # at m = 0 the m = 0 sample is the sample itself
    assert _count_bundle_builds(monkeypatch, 0.0, 1.0) == [20]


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


def test_tiny_sample_counts_still_run_clean():
    for samples in (1, 5):
        rep = run_verify(0.0, 1.0, samples=samples, seed=2)
        assert rep.counts["fail"] == 0, samples


def test_tol_scale_loosens_every_threshold():
    rep = run_verify(1.0, 1.0, samples=20, seed=4, tol_scale=1e12)
    assert rep.counts["fail"] == 0
    assert rep.counts["paper-discrepancy"] == 0


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
