"""End-to-end acceptance checks at the published tolerances.

Each test pins one acceptance requirement for the package: exact frame
algebra, agreement with every published table, adjudication of the known
print discrepancies, Killing-field verification, geodesic integration
quality, and the deterministic verification report.  A printed claim that
the geometry cannot meet is asserted as a ``paper-discrepancy`` in the
verification report, and the test also checks the obstruction itself by a
route independent of the check that flags it.
"""

import json
import re
import time
from itertools import product

import numpy as np
import pytest

import oracles
from ebcv import published_tables as pt
from ebcv.cli import main
from ebcv.frames import (
    ModelParams,
    bcv_classify,
    bcv_frame,
    frame_matrix,
    levi_civita_tensor,
    metric_matrix,
    sample_domain_points,
    structure_constants,
)
from ebcv.curvature import ricci_frame, riemann_frame, scalar_curvature
from ebcv.geodesics import (
    CotangentState,
    circle_check,
    closed_form_trajectory,
    frame_momenta,
    integrate,
    poisson_check,
)
from ebcv.homogeneous import (
    ambrose_singer_check,
    c12_trace,
    classify_structure,
    cyclic_sum,
    torsion_D_tensor,
)
from ebcv.killing import (
    PolyVectorField,
    basis_rank,
    frame_unit_field,
    killing_basis_m0,
    killing_residual,
    pde_residuals,
)
from ebcv.verify import run_verify

HEISENBERG = ModelParams(0.0, 1.0)


@pytest.fixture(scope="module")
def report_01():
    return run_verify(m=0.0, l=1.0, samples=20, seed=11)


@pytest.fixture(scope="module")
def report_11():
    return run_verify(m=1.0, l=1.0, samples=20, seed=11)


@pytest.fixture(scope="module")
def report_m052():
    return run_verify(m=-0.5, l=2.0, samples=20, seed=11)


def _check(report, check_id):
    for c in report.checks:
        if c.id == check_id:
            return c
    raise AssertionError(f"check {check_id!r} missing from report")


# -- 1: frame orthonormality ---------------------------------------------------


def test_acceptance_01_frame_orthonormality():
    start = time.perf_counter()
    eye = np.eye(7)
    for m, l in [(0.0, 1.0), (1.0, 1.0), (-0.5, 2.0), (0.0, 0.0)]:
        params = ModelParams(m, l)
        pts = sample_domain_points(params, 100, seed=2024)
        F = frame_matrix(pts, params)
        G = metric_matrix(pts, params)
        resid = np.einsum("kma,kmn,knb->kab", F, G, F) - eye
        assert np.abs(resid).max() < 1e-12, (m, l)
    assert time.perf_counter() - start < 1.0


# -- 2: m = 0 bracket, connection, and curvature tables ------------------------


@pytest.mark.parametrize("l", [1.0, 2.0])
def test_acceptance_02_m0_tables(l):
    params = ModelParams(0.0, l)
    pts = sample_domain_points(params, 30, seed=9)
    doc = pt.load_tables()["frame_tables"]

    c = structure_constants(pts, params)
    brackets = pt.component_table_values(doc["m0_brackets"], pts, params)
    assert len(brackets) == 6
    for (a, b), vec in brackets.items():
        resid = np.abs(c[:, a - 1, b - 1, :] - vec).max()
        assert resid < 1e-12, (a, b, resid)

    gfr = levi_civita_tensor(pts, params)
    conn = pt.component_table_values(doc["m0_connection"], pts, params)
    assert len(conn) == 28
    for (a, b), vec in conn.items():
        resid = np.abs(gfr[:, a - 1, b - 1, :] - vec).max()
        assert resid < 1e-12, (a, b, resid)

    R = riemann_frame(pts, params)
    assert np.abs(R[:, 0, 3, 0, 3] - l**2 / 4).max() < 1e-9
    assert np.abs(R[:, 5, 6, 5, 6] + 3 * l**2 / 4).max() < 1e-9


# -- 3: Ricci diagonal at m = 0 and the full matrix at (1, 1) -------------------


def test_acceptance_03_ricci():
    for l in (1.0, 2.0):
        params = ModelParams(0.0, l)
        pts = sample_domain_points(params, 30, seed=6)
        ric = ricci_frame(pts, params)
        expected = np.diag([l**2] * 3 + [-1.5 * l**2] * 4)
        assert np.abs(ric - expected).max() < 1e-9, l

    params = ModelParams(1.0, 1.0)
    pts = sample_domain_points(params, 20, seed=13)
    ric = ricci_frame(pts, params)
    printed = pt.ricci_matrix_values(pts, params)
    assert np.abs(ric - printed).max() < 1e-8


# -- 4: scalar-curvature adjudication ------------------------------------------


def test_acceptance_04_scalar_curvature(report_01, report_11, report_m052):
    pts = sample_domain_points(HEISENBERG, 30, seed=4)
    S = scalar_curvature(pts, HEISENBERG)
    assert np.abs(S + 3.0).max() < 1e-9

    for report in (report_01, report_11, report_m052):
        rec = _check(report, "scalar-vs-corollary")
        assert rec.status == "paper-discrepancy", (report.m, report.l)
        assert rec.printed == "48*m"
        assert report.exit_code == 0


# -- 5: bracket coefficient adjudication ----------------------------------------


def test_acceptance_05_bracket_45(report_11):
    params = ModelParams(1.0, 1.0)
    q = np.zeros(7)
    q[4] = 1.0  # x = 1
    c = structure_constants(q, params)
    assert c[3, 4, 0] == pytest.approx(-1.0, abs=1e-12)

    rec = _check(report_11, "appendix-bracket-45")
    assert rec.status == "paper-discrepancy"
    assert "x**2 + y**2" in rec.printed
    assert "y**2 + z**2" in rec.oracle


# -- 6: homogeneous structure tensor --------------------------------------------


def test_acceptance_06_structure_tensor_algebra():
    for m, l in [(0.0, 1.0), (1.0, 1.0), (-0.5, 2.0)]:
        params = ModelParams(m, l)
        pts = sample_domain_points(params, 25, seed=3)
        T = torsion_D_tensor(pts, params)
        assert np.abs(c12_trace(pts, params)).max() < 1e-12
        np.testing.assert_array_equal(T + np.swapaxes(T, -3, -2), 0.0)
        assert classify_structure(params, pts).label == "T3"

    q = np.zeros(7)
    q[5] = 1.0  # y = 1
    value = cyclic_sum(1, 4, 5, q, ModelParams(1.0, 2.0))
    assert float(value) == pytest.approx(4.0, abs=1e-9)


def _derived_scalar_curvature(q, m, l):
    """48*m - (3*l**2/2)*(K**2 + 1), the derived (not the printed) value."""
    K = 1.0 + m * (q[..., 3:] ** 2).sum(axis=-1)
    return 48.0 * m - 1.5 * l**2 * (K**2 + 1.0)


def _frame_scalar_gradient(q, m, l):
    """X_e(scal) in closed form, shape (..., 7).

    scal depends on (w, x, y, z) only through K, and X_{4..7} carry K along
    their own horizontal coordinate, so X_e(scal) = 0 for e = 1..3 and
    X_e(scal) = -6*m*l**2*K**2*u for e = 4..7 with u = w, x, y, z.
    """
    K = 1.0 + m * (q[..., 3:] ** 2).sum(axis=-1)
    grad = np.zeros(q.shape)
    grad[..., 3:] = -6.0 * m * l**2 * (K**2)[..., None] * q[..., 3:]
    return grad


def _oracle_scalar_curvature(q, m, l):
    return np.einsum("abab->", oracles.riemann_oracle(q, m, l))


@pytest.mark.parametrize("m,l", [(0.0, 1.0), (1.0, 1.0)])
def test_acceptance_06_ambrose_singer_residuals(m, l, report_11):
    params = ModelParams(m, l)
    pts = sample_domain_points(params, 20, seed=42)
    res = ambrose_singer_check(pts, params)
    per_eq = np.abs(res).max(axis=0)
    if m * l == 0:
        if per_eq[1] >= 1e-7 or per_eq[2] >= 1e-7:
            pytest.fail(
                "the skew completion of the reduced torsion does not satisfy "
                f"Ambrose-Singer equations (ii)/(iii) at (m, l) = "
                f"({m:g}, {l:g}): measured max residuals (ii) = "
                f"{per_eq[1]:.3e}, (iii) = {per_eq[2]:.3e} against the "
                "required 1e-7 (20 seeded points, seed 42)"
            )
        return

    # For m*l != 0 the printed claim cannot hold.  Contracting equation (ii)
    # at slots [e, a, b, a, b] over (a, b) turns its left side into X_e(scal);
    # its right side contracts to 0 for any S skew in its last two slots (a
    # skew derivation leaves a full trace unchanged).  Hence every candidate
    # tensor has max |res(ii)| >= max_e |X_e(scal)| / 49 at every point.
    where = f"(m, l) = ({m:g}, {l:g})"
    derived = _derived_scalar_curvature(pts, m, l)
    scal = scalar_curvature(pts, params)
    k = int(np.argmax(np.abs(scal - derived)))
    assert abs(scal[k] - derived[k]) < 1e-9, (
        f"package scalar curvature {scal[k]:.9f} departs from the derived "
        f"48*m - (3*l**2/2)*(K**2 + 1) = {derived[k]:.9f} at "
        f"q = {pts[k].tolist()}, {where} (the printed corollary is the "
        "constant 48*m)"
    )
    grad = _frame_scalar_gradient(pts, m, l)
    for q, g in zip(pts[:2], grad[:2]):
        value = _oracle_scalar_curvature(q, m, l)
        expected = _derived_scalar_curvature(q, m, l)
        assert abs(value - expected) < 1e-5, (
            f"finite-difference oracle scalar curvature {value:.9f} differs "
            f"from the derived {expected:.9f} at q = {q.tolist()}, {where}"
        )
        fd = oracles.frame_oracle(q, m, l).T @ oracles.fd_gradient(
            lambda qq: _oracle_scalar_curvature(qq, m, l), q, h=1e-2
        )
        assert np.abs(fd - g).max() < 1e-2, (
            f"finite-difference X_e(scal) {fd.tolist()} differs from the "
            f"closed form {g.tolist()} at q = {q.tolist()}, {where}"
        )

    bound = np.abs(grad).max(axis=-1) / 49.0
    for q, b, r in zip(pts, bound, res):
        assert b > 1e-7, (
            f"scalar curvature is stationary at q = {q.tolist()}, {where}: "
            f"max_e |X_e(scal)| / 49 = {b:.3e} no longer obstructs the "
            "printed Ambrose-Singer claim"
        )
        assert r[1] >= b, (
            f"ambrose_singer_check masks the obstruction at q = {q.tolist()}, "
            f"{where}: residual (ii) = {r[1]:.3e} is below the lower bound "
            f"max_e |X_e(scal)| / 49 = {b:.3e} that holds for every tensor "
            "skew in its last two slots, the skew completion of the reduced "
            "torsion included"
        )
        assert r[0] == 0.0, (
            f"residual (i) = {r[0]:.3e} at q = {q.tolist()}, {where}: the "
            "skew completion of the reduced torsion must be exactly skew"
        )

    rec = _check(report_11, "as-equations")
    claim = pt.load_tables()["structure_claims"]["as_equations"]["claim"]
    assert rec.status == "paper-discrepancy", (
        f"verify reports as-equations as {rec.status!r} at (m, l) = (1, 1) "
        f"although residual (ii) reaches {per_eq[1]:.3e} and max_e "
        f"|X_e(scal)| / 49 reaches {bound.max():.3e} on the sampled points"
    )
    assert rec.printed == claim, (rec.printed, claim)
    assert report_11.exit_code == 0, report_11.exit_code


# -- 7: Killing fields -----------------------------------------------------------

_EXPONENTS = [e for e in product(range(3), repeat=7) if sum(e) <= 2]


def _random_polynomial_field(rng):
    doc = {}
    for i in range(1, 8):
        comp = {}
        for _ in range(2):
            expo = _EXPONENTS[rng.integers(len(_EXPONENTS))]
            comp[",".join(map(str, expo))] = float(rng.uniform(-1.0, 1.0))
        doc[f"e{i}"] = comp
    return PolyVectorField.from_json_dict(doc)


def _basis_combination(basis, weights):
    comps = []
    for i in range(7):
        acc = basis[0].components[i] * float(weights[0])
        for k in range(1, len(basis)):
            acc = acc + basis[k].components[i] * float(weights[k])
        comps.append(acc)
    return PolyVectorField(comps)


def test_acceptance_07_killing_fields():
    start = time.perf_counter()
    rng = np.random.default_rng(404)

    for l in (1.0, 2.0):
        params = ModelParams(0.0, l)
        pts = sample_domain_points(params, 40, seed=0)
        basis = killing_basis_m0(l)
        assert len(basis) == 13
        for field in basis:
            assert np.abs(killing_residual(field, pts, params)).max() < 1e-9
        assert basis_rank(basis, pts) == 13
        for a in (4, 5, 6, 7):
            bad = np.abs(killing_residual(frame_unit_field(a), pts, params))
            assert bad.max() > 1e-3, a

    params = ModelParams(0.0, 1.0)
    pts = sample_domain_points(params, 40, seed=0)
    basis = killing_basis_m0(1.0)
    fields = [_basis_combination(basis, rng.uniform(-1, 1, 13)) for _ in range(20)]
    fields += [_random_polynomial_field(rng) for _ in range(30)]
    for field in fields:
        assert field.max_degree() <= 2
        is_killing = np.abs(killing_residual(field, pts, params)).max() < 1e-9
        pde_zero = np.abs(pde_residuals(field, pts, params)).max() < 1e-9
        assert is_killing == pde_zero

    assert time.perf_counter() - start < 2.0


# -- 8: geodesics ------------------------------------------------------------------


def _seeded_heisenberg_states(rng, n):
    states = []
    for _ in range(n):
        q = np.zeros(7)
        q[3:] = rng.uniform(-0.3, 0.3, 4)
        p = rng.uniform(-1.0, 1.0, 7)
        if np.linalg.norm(p[:3]) < 0.3:
            p[:3] += 0.5
        states.append(CotangentState(q, p))
    return states


def test_acceptance_08_rk4_convergence():
    rng = np.random.default_rng(2026)
    T = 2.0
    for state in _seeded_heisenberg_states(rng, 10):
        reference = closed_form_trajectory(state, h=T, n=1).q[-1]
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = integrate(state, HEISENBERG, mode="heisenberg",
                             h=h, n=int(round(T / h)))
            errs.append(np.abs(traj.q[-1] - reference).max())
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 <= coarse / fine <= 20.0, errs


def test_acceptance_08_conservation():
    rng = np.random.default_rng(77)
    states = _seeded_heisenberg_states(rng, 2)
    runs = [(states[0], "heisenberg"), (states[1], "heisenberg"),
            (states[0], "subriemannian")]
    for state, mode in runs:
        traj = integrate(state, HEISENBERG, mode=mode, h=1e-3, n=10_000)
        assert traj.status == "complete"
        assert np.abs(traj.H - traj.H[0]).max() < 1e-10
        assert np.abs(traj.p[:, :3] - traj.p[0, :3]).max() < 1e-13


def test_acceptance_08_circle_and_line():
    rng = np.random.default_rng(11)
    for _ in range(8):
        q = np.zeros(7)
        q[3:] = rng.uniform(-0.2, 0.2, 4)
        p = rng.uniform(-1.0, 1.0, 7)
        p[:3] += np.sign(p[:3]) * 0.4
        state = CotangentState(q, p)
        P0 = frame_momenta(q, p, HEISENBERG)[3:]
        expected = np.linalg.norm(P0) / np.linalg.norm(p[:3])
        verdict = circle_check(closed_form_trajectory(state, h=5e-3, n=400))
        assert verdict.kind == "circle"
        assert abs(verdict.radius - expected) / expected < 1e-4

    state = CotangentState(np.zeros(7), np.array([0, 0, 0, 1.0, 0.3, 0, 0]))
    verdict = circle_check(closed_form_trajectory(state, h=5e-3, n=100))
    assert verdict.kind == "line"


def test_acceptance_08_poisson_brackets():
    rng = np.random.default_rng(8)
    for _ in range(100):
        q = np.zeros(7)
        q[3:] = rng.uniform(-0.5, 0.5, 4)
        p = rng.uniform(-2.0, 2.0, 7)
        res = poisson_check(CotangentState(q, p))
        assert res.shape == (6,)
        assert res.max() < 1e-12


def test_acceptance_08_sdot_discrepancy_reported(report_01):
    rec = _check(report_01, "geodesic-sdot-line")
    assert rec.status == "paper-discrepancy"
    assert rec.printed and rec.oracle


# -- 9: three-dimensional base-family classification -------------------------------


def test_acceptance_09_bcv():
    expected = {
        (0.0, 0.0): ("Euclidean3", "i"),
        (1.0, 0.0): ("S2xR", "iii"),
        (-1.0, 0.0): ("H2xR", "iv"),
        (0.0, 2.0): ("Nil3", "vii"),
        (1.0, 1.0): ("SU2", "v"),
        (-1.0, 1.0): ("SL2R", "vi"),
        (0.25, 1.0): ("Sphere3", "ii"),
    }
    for (m, l), (label, case) in expected.items():
        got = bcv_classify(m, l)
        assert (got.label, got.case) == (label, case), (m, l)

    E = bcv_frame(0.0, 1.0, ModelParams(1.0, 2.0))
    np.testing.assert_allclose(E[:, 0], [2.0, 0.0, -1.0], atol=1e-14)


# -- 10: full verification run: fast and deterministic ------------------------------


def test_acceptance_10_cmd_verify_runtime_and_determinism(tmp_path):
    payloads = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        start = time.perf_counter()
        code = main([
            "verify", "--m", "0", "--l", "1", "--seed", "0",
            "--format", "json", "--out", str(out),
        ])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 10.0
        text = re.sub(r'"elapsed": [0-9eE+.-]+', '"elapsed": 0', out.read_text())
        payloads.append(text)
    assert payloads[0] == payloads[1]
    doc = json.loads(payloads[0])
    assert doc["summary"]["counts"]["fail"] == 0
