"""The verification registry: statuses, pinned records, and determinism."""

import copy
import functools
import json
import os
import pathlib
import subprocess
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import ebcv
import ebcv.curvature
import ebcv.frames
import ebcv.geodesics
import ebcv.homogeneous
import ebcv.killing
import ebcv.published_tables
import ebcv.verify
from ebcv.errors import DomainViolation, InconclusiveClassification
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


def _count_points(monkeypatch, owner, name):
    """The point count of each call of the method or kept tensor name of
    owner."""
    calls = []
    attr = vars(owner)[name]
    fn = getattr(attr, "func", attr)  # what a kept tensor is built by

    def counting(fr, *args):
        calls.append(fr.q.size // 7)
        return fn(fr, *args)

    if fn is attr:
        monkeypatch.setattr(owner, name, counting)
    else:
        monkeypatch.setattr(attr, "func", counting)
    return calls


@pytest.mark.parametrize("m, l", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)],
                         ids=["general", "m0", "l0"])
def test_verify_reads_each_sample_in_one_pass(monkeypatch, m, l):
    # every per-point record, the m = 0 records and tables and the torsion
    # classification included, reads what the sample kernel built, and
    # every sample point passes through that kernel exactly once, whatever
    # module reads it; no public curvature entry point runs
    samples = 40
    public = []
    seen = []
    kernel_of = ebcv.verify._sample_kernel

    def counting_kernel_of(fr0, start):
        kernel = kernel_of(fr0, start)

        def counting(fr):
            first = start + fr.rows.start
            seen.extend(range(first, first + len(fr.q)))
            return kernel(fr)

        return counting

    monkeypatch.setattr(ebcv.verify, "_sample_kernel", counting_kernel_of)
    riemann_frame = ebcv.curvature.riemann_frame

    def recording(*args, **kwargs):
        public.append("riemann_frame")
        return riemann_frame(*args, **kwargs)

    monkeypatch.setattr(ebcv.verify, "riemann_frame", recording, raising=False)
    monkeypatch.setattr(ebcv.curvature, "riemann_frame", recording)
    rep = run_verify(m, l, samples=samples, seed=0)
    assert rep.counts["fail"] == 0
    assert not public
    assert sorted(seen) == list(range(samples))


def _record_public_calls(monkeypatch):
    """Wrap every public function of every loaded ebcv module at every
    place where callers look it up (its module, the modules that imported
    it and the package), as the benchmark tracer does; the list that comes
    back gets the name and the thread of each call."""
    calls = []
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "ebcv" or name.startswith("ebcv.")}

    def wrap(fn, name):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.append((name, threading.current_thread().name))
            return fn(*args, **kwargs)

        return recorded

    wrappers = {}
    for modname, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (modname != "ebcv" and not attr.startswith("_")
                    and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == modname):
                wrappers[id(obj)] = (obj, wrap(obj, f"{modname}.{attr}"))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                monkeypatch.setattr(mod, attr, hit[1])
    return calls


def test_no_public_function_runs_on_a_chunk_worker(monkeypatch):
    # the chunk pool runs private per-point kernels only: every public
    # call, of a report or of an entry point that uses the pool, is made
    # in the calling thread, so a tracer that hooks them sees no call on a
    # worker
    calls = _record_public_calls(monkeypatch)
    for m, l in [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]:
        rep = ebcv.verify.run_verify(m, l, samples=40, seed=0)
        assert rep.counts["fail"] == 0
    params = ebcv.frames.ModelParams(1.0, 1.0)
    pts = ebcv.frames.sample_domain_points(params, 40, 0)
    for fn in (ebcv.curvature.riemann_frame, ebcv.curvature.ricci_frame,
               ebcv.curvature.scalar_curvature,
               ebcv.homogeneous.ambrose_singer_check,
               ebcv.homogeneous.parallelism_residuals):
        fn(pts, params)
    ebcv.homogeneous.classify_structure(params, pts)
    names = {name for name, _ in calls}
    assert {"ebcv.verify.run_verify", "ebcv.curvature.riemann_frame_bundle",
            "ebcv.homogeneous.classify_structure"} <= names
    on_workers = sorted({name for name, thread in calls
                         if thread.startswith("ebcv-chunk")})
    assert not on_workers


@pytest.mark.parametrize("m, l, again_R, again_x, all_C",
                         [(1.0, 1.0, 20, 12, 161), (0.0, 1.0, 0, 0, 121)],
                         ids=["general", "m0"])
def test_r_is_built_once_per_sample_point(monkeypatch, m, l, again_R,
                                          again_x, all_C):
    # R and X R of every sample point come from its one chunked pass, whose
    # chunks also serve the records of the first 20 points; at m != 0 only
    # the first 20 points get R at (0, l) besides, and only
    # the 12 of them that the canonical connection reads get X R.  nabla R
    # is built on the 8 points of the second Bianchi identity alone.  C is
    # built once per point of the sample, and at m != 0 once more at
    # (0, l); the rest is the 40-point Killing sample, the 40 Poisson
    # states and the one point of the Heisenberg bracket
    samples = 40  # more than one curvature chunk
    jet = ebcv.frames.FrameJet
    riemann = _count_points(monkeypatch, jet, "R")
    x_riemann = _count_points(monkeypatch, jet, "xR")
    nabla = _count_points(monkeypatch, jet, "nabla_R")
    brackets = _count_points(monkeypatch, jet, "C")
    rep = run_verify(m, l, samples=samples, seed=0)
    assert rep.counts["fail"] == 0
    assert sum(riemann) == samples + again_R
    assert sum(x_riemann) == samples + again_x
    assert nabla == [8]
    assert sum(brackets) == all_C


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
    # peak is the curvature of the chunks in flight whatever the sample
    # count; each count runs in its own fresh process, the two side by side
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


@pytest.mark.parametrize("m, l", [(-3.0, 0.0), (1.0, 0.0), (0.0, 0.0), (-3.0, 1.0)])
def test_killing_sample_is_the_head_of_the_sample(m, l):
    # at l = 0 too, where the Killing family is taken at l = 1
    ctx = ebcv.verify._Ctx(m, l, 100, 0)
    assert np.array_equal(ctx.pts_kill, ctx.pts[:40])


def test_every_declared_record_reaches_the_report(monkeypatch):
    # with every declared residual shifted by +1, each declared pass/fail
    # record fails and each declared claim reads paper-discrepancy; the
    # records that move are exactly the declared ones, each once, the
    # records of the first points, those at m = 0 and the printed tables
    # included
    declare = ebcv.verify._sample_records
    records = declare(ebcv.published_tables.load_tables(), 1.0)
    want = {r.id: "fail" if r.claim is None else "paper-discrepancy"
            for r in records}
    assert len(want) == len(records) == 29

    def shifted(doc, l):
        return tuple(r._replace(residual=lambda t, f=r.residual: f(t) + 1.0)
                     for r in declare(doc, l))

    def sample_records():
        return ebcv.verify._chk_sample(ebcv.verify._Ctx(1.0, 1.0, 3, 0))

    base = sample_records()
    monkeypatch.setattr(ebcv.verify, "_sample_records", shifted)
    got = sample_records()
    assert [c.id for c in got] == [c.id for c in base]
    moved = Counter(c.id for c, b in zip(got, base) if c != b)
    assert moved == Counter(list(want))
    assert {c.id: c.status for c in got if c.id in want} == want


def _koszul_one_sign_flipped(C):
    return 0.5 * (C - np.einsum("...bca->...abc", C)
                  - np.einsum("...cab->...abc", C))


def _plant_r_entry(monkeypatch):
    build = ebcv.frames.FrameJet.R.func

    def planted(fr):
        R = build(fr)
        R[..., 3, 4, 3, 4] += 1e-6 * np.abs(R).max()
        return R

    monkeypatch.setattr(ebcv.frames.FrameJet.R, "func", planted)


def _plant_twist_entry(monkeypatch):
    J = ebcv.frames.J_TWIST.copy()
    J[0, 0, 1] = -J[0, 0, 1]
    monkeypatch.setattr(ebcv.frames, "J_TWIST", J)


_BUNDLE_IDS = ("connection-vs-bundle-route", "riemann-frame-vs-bundle-route")


@pytest.mark.parametrize("plant, failing", [
    (None, ()),
    # Cartan's R is built from the Koszul gamma, so it moves too
    (lambda mp: mp.setattr(ebcv.frames, "_koszul", _koszul_one_sign_flipped),
     _BUNDLE_IDS),
    (_plant_r_entry, ("riemann-frame-vs-bundle-route",)),
    (_plant_twist_entry, _BUNDLE_IDS),
], ids=["correct", "koszul-sign", "r-entry", "twist-entry"])
@pytest.mark.parametrize("m, l", [(0.0, 30.0), (1.0, 100.0)])
def test_bundle_records_catch_planted_defects(m, l, plant, failing,
                                              monkeypatch):
    # the bundle route reads only m, l and u, so a defect planted in the
    # Koszul formula, in R or in the frame's twist shows against it where
    # the curvature is large; on correct code both records pass there
    if plant is not None:
        plant(monkeypatch)
    got = {c.id: c.status
           for c in ebcv.verify._chk_sample(ebcv.verify._Ctx(m, l, 20, 0))}
    assert {cid: got[cid] for cid in _BUNDLE_IDS} == {
        cid: "fail" if cid in failing else "pass" for cid in _BUNDLE_IDS}


def _skew_completion_one_sign_flipped(T):
    return 0.5 * (-T + np.einsum("...bca->...abc", T)
                  + np.einsum("...cab->...abc", T))


@pytest.mark.parametrize("planted", [False, True], ids=["correct", "planted"])
@pytest.mark.parametrize("m, l", [(0.0, 1.0), (1.0, 1.0)])
def test_canonical_record_catches_a_planted_structure_tensor(m, l, planted,
                                                             monkeypatch):
    # the sign of the T[cab] term of the skew completion flipped: S is no
    # longer the metric connection with torsion T, so nabla - S moves R
    # and T at m = 0.  At l = 0 the torsion is 0 and so is the defect
    if planted:
        monkeypatch.setattr(ebcv.homogeneous, "_skew_completion",
                            _skew_completion_one_sign_flipped)
    got = {c.id: c for c in
           ebcv.verify._chk_sample(ebcv.verify._Ctx(m, l, 20, 0))}
    canonical = got["torsion-parallelism-canonical"]
    assert (canonical.status, canonical.max_residual) == (
        ("fail", 1.0) if planted else ("pass", 0.0))
    if m == 0.0:
        assert got["as-equations"].status == (
            "paper-discrepancy" if planted else "pass")


def test_inconclusive_torsion_is_a_failed_record(monkeypatch):
    # a torsion that breaks first-two-slot antisymmetry leaves the class
    # undecided: the report says so in a fail record at the point that
    # shows it, where the library call raises
    reduced = ebcv.homogeneous._reduced_torsion

    def planted(C):
        T = reduced(C).copy()
        T[..., 3, 4, 0] += 1e-6
        return T

    monkeypatch.setattr(ebcv.homogeneous, "_reduced_torsion", planted)
    params = ebcv.frames.ModelParams(1.0, 1.0)
    pts = ebcv.frames.sample_domain_points(params, 5, 0)
    with pytest.raises(InconclusiveClassification):
        ebcv.homogeneous.classify_structure(params, pts)
    rep = run_verify(1.0, 1.0, samples=5, seed=0)
    rec = _by_id(rep)["structure-class"]
    assert rep.exit_code == 1
    assert rec.status == "fail"
    assert "antisymmetry" in rec.details
    assert rec.witness == pts[0].tolist()


def test_a_wrong_table_entry_is_named_at_the_first_worst_point():
    # one expression of a copied table document is planted wrong: its
    # record is a discrepancy that names the planted entry, at the first
    # point where the gap over all entries is worst, over two chunks
    doc = copy.deepcopy(ebcv.published_tables.load_tables())
    table = doc["frame_tables"]["general_connection"]
    key = list(table["entries"])[6]
    table["entries"][key]["4"] += " + w**2"
    ctx = ebcv.verify._Ctx(1.0, 1.0, 40, 0)
    ctx.doc = doc
    rec = {c.id: c for c in ebcv.verify._chk_sample(ctx)}[
        "general-connection-table"]
    assert rec.status == "paper-discrepancy"
    assert f"worst entry ({key})" in rec.details
    assert rec.printed == json.dumps(table["entries"][key])
    # the gap of every entry at every point, from the table and the frame
    gamma = ebcv.frames.levi_civita_tensor(ctx.pts, ctx.params)
    gaps = np.stack([
        np.abs(gamma[:, a - 1, b - 1] - v).max(axis=-1) for (a, b), v in
        ebcv.published_tables.component_table_values(
            table, ctx.pts, ctx.params).items()], axis=1)
    worst = gaps.max(axis=1)
    k = int(np.argmax(worst))
    assert rec.max_residual == pytest.approx(worst[k], rel=1e-12)
    assert rec.witness == ctx.pts[k].tolist()
    assert list(table["entries"])[int(np.argmax(gaps[k]))] == key


@pytest.mark.parametrize("m", [0.0, 1.0, -0.5])
@pytest.mark.parametrize("l", [1e-5, 1e-4, 1e-3, -1e-3])
def test_small_l_rejects_the_horizontal_fields(m, l):
    # their Killing residual is exactly |l|, so the rejection threshold
    # is relative to it: correct code has no failed record at small |l|
    rep = run_verify(m, l, samples=3, seed=0)
    assert rep.exit_code == 0
    rec = _by_id(rep)["killing-horizontal-rejected"]
    assert rec.max_residual == pytest.approx(abs(l), rel=1e-12)


@pytest.mark.parametrize("l", [1e-11, 1e-13])
def test_small_l_killing_verdicts_agree(l):
    # both residuals of a horizontal field read exactly |l| and those of a
    # basis field 0, so one threshold relative to |l| classifies them alike
    rep = run_verify(0.0, l, samples=3, seed=0)
    assert rep.exit_code == 0
    assert _by_id(rep)["killing-pde-equivalence"].status == "pass"


@pytest.mark.parametrize("l", [5e-324, -5e-324, 2.2e-308])
def test_subnormal_l_is_refused(l):
    with pytest.raises(DomainViolation, match="subnormal"):
        run_verify(0.0, l, samples=3, seed=0)


@pytest.mark.parametrize("l", [2.3e-308, 1e-300])
def test_smallest_normal_l_runs(l):
    assert run_verify(0.0, l, samples=3, seed=0).exit_code == 0


def test_a_horizontal_field_the_pde_calls_killing_fails_equivalence(monkeypatch):
    # the 28-equation residual of X_4 is planted at 0: the two residuals
    # then disagree on that field, and the record says so
    planted = []

    def unit_field(a):
        fld = ebcv.killing.frame_unit_field(a)
        if a == 4:
            planted.append(fld)
        return fld

    def pde(fld, q, params):
        r = ebcv.killing.pde_residuals(fld, q, params)
        return np.zeros_like(r) if any(fld is f for f in planted) else r

    monkeypatch.setattr(ebcv.verify, "frame_unit_field", unit_field)
    monkeypatch.setattr(ebcv.verify, "pde_residuals", pde)
    for l in (1.0, 1e-11):
        rep = run_verify(0.0, l, samples=3, seed=0)
        assert planted
        assert _by_id(rep)["killing-pde-equivalence"].status == "fail"
        assert rep.exit_code == 1


def test_the_geodesic_flow_integrates_one_heisenberg_trajectory(monkeypatch):
    # the energy, closed-form and circle records read one 400-step run and
    # its one closed form; the Riemannian record and the three runs of the
    # convergence ratio are the only other trajectories
    runs, forms = Counter(), Counter()
    integrate = ebcv.verify.integrate
    closed_form = ebcv.verify.closed_form_trajectory

    def counting_integrate(s0, params, mode, h, n):
        runs[mode, h, n] += 1
        return integrate(s0, params, mode=mode, h=h, n=n)

    def counting_closed_form(s0, h, n):
        forms[h, n] += 1
        return closed_form(s0, h=h, n=n)

    monkeypatch.setattr(ebcv.verify, "integrate", counting_integrate)
    monkeypatch.setattr(ebcv.verify, "closed_form_trajectory",
                        counting_closed_form)
    out = ebcv.verify._chk_geodesic_flow(ebcv.verify._Ctx(1.0, 1.0, 3, 0))
    assert {c.status for c in out} == {"pass"}
    assert runs == Counter({
        ("heisenberg", 1e-3, 400): 1, ("riemannian", 1e-3, 500): 1,
        ("heisenberg", 0.02, 16): 1, ("heisenberg", 0.01, 32): 1,
        ("heisenberg", 0.005, 64): 1})
    assert forms == Counter({(1e-3, 400): 1})


@pytest.mark.parametrize("eps, status", [(0.0, "pass"), (1e-9, "fail")])
def test_energy_record_catches_a_planted_vertical_block(monkeypatch, eps,
                                                        status):
    # eps I added to the p_r, p_s, p_t block of the flow's M bends the
    # horizontal momenta out of the energy shell of the 400-step run
    block = ebcv.geodesics._vertical_block
    monkeypatch.setattr(ebcv.geodesics, "_vertical_block",
                        lambda pv, Jl: block(pv, Jl) + eps * np.eye(4))
    out = ebcv.verify._chk_geodesic_flow(ebcv.verify._Ctx(0.0, 1.0, 3, 0))
    got = {c.id: c.status for c in out}
    assert got["geodesic-energy-conservation"] == status


@pytest.mark.parametrize("m, l", [(5.0, 1.0), (10.0, 1.0), (1.0, 50.0),
                                  (0.0, 100.0), (1.0, 100.0)])
def test_the_riemannian_step_follows_the_homothety(m, l):
    # q -> b q maps (m, l) to (m b^2, l b) and flow time by b^2; a fixed
    # step of 1e-3 drifted 3.9e-8 to 3.9e-6 here, against a bound of 1e-10
    assert run_verify(m, l, samples=5, seed=0).exit_code == 0


@pytest.mark.parametrize("l", [1e-6, 1e-9, 1e-13])
def test_small_l_torsion_is_t3(l):
    # the cyclic sums scale with l, and so does the witness threshold; the
    # torsion is trivial only where it is exactly 0, at l = 0
    rep = run_verify(0.0, l, samples=3, seed=0)
    rec = _by_id(rep)["structure-class"]
    assert rec.status == "pass"
    assert rec.details.startswith("label=T3 ")


def test_seed_changes_the_witnesses():
    a = run_verify(1.0, 1.0, samples=20, seed=1)
    b = run_verify(1.0, 1.0, samples=20, seed=2)
    wa = _by_id(a)["ricci-proposition"].witness
    wb = _by_id(b)["ricci-proposition"].witness
    assert wa != wb


def test_pathological_parameters_raise():
    with pytest.raises(DomainViolation):
        run_verify(-80.0, 1.0, samples=20, seed=3)


def test_samples_validation(monkeypatch):
    def no_run(*args):
        raise AssertionError("a report was started")

    # refused before the report draws its samples
    monkeypatch.setattr(ebcv.verify, "_Ctx", no_run)
    with pytest.raises(ValueError):
        run_verify(0.0, 1.0, samples=0, seed=0)
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        run_verify(0.0, 1.0, samples=ebcv.verify.MAX_SAMPLES + 1, seed=0)


def test_non_finite_parameters_raise_value_error():
    # nan as l used to end in an SVD that did not converge
    for m, l in ((0.0, float("nan")), (float("nan"), 1.0), (float("inf"), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            run_verify(m, l, samples=3, seed=0)


def test_tiny_sample_counts_still_run_clean():
    for samples in (1, 5):
        rep = run_verify(0.0, 1.0, samples=samples, seed=2)
        assert rep.counts["fail"] == 0, samples


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
        # a record that passes, a claim that holds included, quotes neither
        # the printed nor the oracle string
        if c["status"] == "pass":
            assert c["printed"] is None and c["oracle"] is None, c["id"]


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
