"""Tests for the geodesic Hamiltonian flow, RK4, closed form, and arc test."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ebcv.errors import DomainViolation, ModeMismatch, TooFewSamples
from ebcv.frames import ModelParams, coframe_matrix, frame_derivs, frame_matrix
from ebcv.geodesics import (
    POISSON_PAIRS,
    CircleVerdict,
    CotangentState,
    GeodesicMode,
    Trajectory,
    circle_check,
    closed_form_geodesic,
    closed_form_trajectory,
    frame_momenta,
    generic_rhs_momentum_chart,
    hamilton_rhs,
    hamiltonian,
    heisenberg_closed_form_inputs,
    integrate,
    poisson_bracket_values,
    poisson_check,
    printed_heisenberg_rhs,
    sdot_mismatch,
)
from ebcv.quaternions import Quaternion, as_quaternion_array, exp_imaginary, qconj, qmul, qnorm
from ebcv.tolerances import TOL_EXACT, TOL_FD

HEIS = ModelParams(0.0, 1.0)

MODE_PARAMS = [
    (GeodesicMode.HEISENBERG, HEIS),
    (GeodesicMode.SUBRIEMANNIAN, ModelParams(1.0, 1.0)),
    (GeodesicMode.SUBRIEMANNIAN, ModelParams(-0.5, 2.0)),
    (GeodesicMode.RIEMANNIAN, ModelParams(1.0, 1.0)),
    (GeodesicMode.RIEMANNIAN, ModelParams(0.0, 2.0)),
]


def _random_state(rng, scale_q=0.5, scale_p=1.0):
    return CotangentState(
        rng.uniform(-scale_q, scale_q, 7), rng.uniform(-scale_p, scale_p, 7)
    )


# --- quaternion arithmetic ---------------------------------------------------


def test_quaternion_norm_multiplicative():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = Quaternion(*rng.normal(size=4))
        b = Quaternion(*rng.normal(size=4))
        scale = max(1.0, a.norm() * b.norm())
        assert abs((a * b).norm() - a.norm() * b.norm()) <= 1e-14 * scale


def test_quaternion_product_algebra():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b, c = (rng.normal(size=4) for _ in range(3))
        assert_allclose(qmul(qmul(a, b), c), qmul(a, qmul(b, c)), atol=1e-13)
        assert_allclose(qconj(qmul(a, b)), qmul(qconj(b), qconj(a)), atol=0)
    # i*j = k and friends
    i, j, k = [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
    assert_allclose(qmul(i, j), k, atol=0)
    assert_allclose(qmul(j, k), i, atol=0)
    assert_allclose(qmul(k, i), j, atol=0)
    assert_allclose(qmul(i, i), [-1, 0, 0, 0], atol=0)


def test_quaternion_inverse_and_coercion():
    a = Quaternion(1.0, -2.0, 0.5, 3.0)
    assert_allclose((a * a.inverse()).to_array(), [1, 0, 0, 0], atol=1e-15)
    with pytest.raises(ZeroDivisionError):
        Quaternion(0, 0, 0, 0).inverse()
    assert_allclose(as_quaternion_array(2.5), [2.5, 0, 0, 0], atol=0)
    assert_allclose(as_quaternion_array(a), a.to_array(), atol=0)
    assert_allclose(as_quaternion_array([1, 2, 3, 4]), [1, 2, 3, 4], atol=0)
    with pytest.raises(ValueError):
        as_quaternion_array([1, 2, 3])


def test_exp_imaginary_unit_modulus_and_values():
    rng = np.random.default_rng(2)
    vs = rng.normal(size=(50, 3))
    assert np.max(np.abs(qnorm(exp_imaginary(vs)) - 1.0)) < 5e-15
    assert_allclose(exp_imaginary([np.pi / 2, 0, 0]), [0, 1, 0, 0], atol=1e-15)
    assert_allclose(exp_imaginary([0.0, 0.0, 0.0]), [1, 0, 0, 0], atol=0)


def test_exp_imaginary_series_fallback_is_smooth():
    # compare values just below and above the series cutoff
    for scale in (0.5e-8, 0.99e-8, 1.01e-8, 2e-8):
        v = np.array([scale, scale, -scale]) / np.sqrt(3.0)
        e = exp_imaginary(v)
        assert abs(e[0] - 1.0) < 1e-15
        assert_allclose(e[1:], v, rtol=1e-12, atol=1e-30)


# --- cotangent states and the Hamiltonian ------------------------------------


def test_cotangent_state_validation():
    with pytest.raises(ValueError):
        CotangentState(np.zeros(6), np.zeros(7))
    with pytest.raises(ValueError):
        CotangentState(np.zeros(7), [0, 0, 0, np.inf, 0, 0, 0])
    s = CotangentState.from_components(*range(14))
    assert_allclose(s.as_vector(), np.arange(14.0), atol=0)
    with pytest.raises(ValueError):
        CotangentState.from_components(1.0, 2.0)


def test_hamiltonian_examples():
    s = CotangentState(np.zeros(7), [0, 0, 0, 3, 4, 0, 0])
    assert hamiltonian(s, HEIS, "heisenberg") == pytest.approx(12.5, abs=0)
    q = np.zeros(7)
    q[4] = 2.0  # x = 2
    s2 = CotangentState(q, [1, 0, 0, 1, 0, 0, 0])
    assert hamiltonian(s2, HEIS, "heisenberg") == pytest.approx(2.0, abs=1e-15)
    assert hamiltonian(s2, HEIS, "riemannian") == pytest.approx(2.5, abs=1e-15)


def test_riemannian_adds_vertical_energy():
    rng = np.random.default_rng(3)
    for mode, params in MODE_PARAMS:
        s = _random_state(rng)
        h_sub = hamiltonian(s, params, "subriemannian")
        h_riem = hamiltonian(s, params, "riemannian")
        # vertical frame fields are the coordinate fields, so P_i = p_i
        assert h_riem - h_sub == pytest.approx(0.5 * float(s.p[:3] @ s.p[:3]), rel=1e-14)


def test_heisenberg_mode_requires_m0_l1():
    s = CotangentState(np.zeros(7), np.zeros(7))
    for fn in (
        lambda: hamiltonian(s, ModelParams(1.0, 1.0), "heisenberg"),
        lambda: hamilton_rhs(s, ModelParams(0.0, 2.0), "heisenberg"),
        lambda: integrate(s, ModelParams(1.0, 1.0), "heisenberg", 0.1, 1),
    ):
        with pytest.raises(ModeMismatch):
            fn()


def test_domain_violation_outside_chart():
    q = np.zeros(7)
    q[3] = 1.5  # K = 1 - 2.25 < 0 at m = -1
    s = CotangentState(q, np.zeros(7))
    with pytest.raises(DomainViolation):
        hamiltonian(s, ModelParams(-1.0, 1.0), "subriemannian")
    with pytest.raises(DomainViolation):
        hamilton_rhs(s, ModelParams(-1.0, 1.0), "riemannian")


def test_unknown_mode_rejected():
    s = CotangentState(np.zeros(7), np.zeros(7))
    with pytest.raises(ValueError):
        hamiltonian(s, HEIS, "lorentzian")


# --- the generic right-hand side ---------------------------------------------


def test_hamilton_rhs_examples():
    s = CotangentState(np.zeros(7), [0, 0, 0, 1, 0, 0, 0])
    qdot, pdot = hamilton_rhs(s, HEIS, "heisenberg")
    expected = np.zeros(7)
    expected[3] = 1.0
    assert_allclose(qdot, expected, atol=0)
    assert_allclose(pdot, np.zeros(7), atol=0)

    q = np.zeros(7)
    q[4] = 1.0  # x = 1
    s2 = CotangentState(q, [1, 0, 0, 1, 0, 0, 0])
    qdot2, _ = hamilton_rhs(s2, HEIS, "heisenberg")
    assert qdot2[0] == pytest.approx(0.75, abs=1e-15)


def test_vertical_momenta_conserved_identically():
    rng = np.random.default_rng(4)
    for mode, params in MODE_PARAMS:
        for _ in range(10):
            s = _random_state(rng)
            _, pdot = hamilton_rhs(s, params, mode)
            assert np.max(np.abs(pdot[:3])) == 0.0


def test_hamilton_rhs_matches_frame_matrix_assembly():
    # independent assembly of dH from the full frame matrix and its partials
    rng = np.random.default_rng(5)
    for mode, params in MODE_PARAMS:
        active = slice(0, 7) if mode is GeodesicMode.RIEMANNIAN else slice(3, 7)
        for _ in range(5):
            s = _random_state(rng)
            F = frame_matrix(s.q, params)
            dF = frame_derivs(s.q, params)
            P = F.T @ s.p
            qdot_ref = F[:, active] @ P[active]
            pdot_ref = -np.einsum(
                "a,ema,m->e", P[active], dF[:, :, active], s.p
            )
            qdot, pdot = hamilton_rhs(s, params, mode)
            assert_allclose(qdot, qdot_ref, atol=1e-13)
            assert_allclose(pdot, pdot_ref, atol=1e-13)


def test_hamilton_rhs_matches_finite_differences_of_h():
    rng = np.random.default_rng(6)
    step = 1e-5
    for mode, params in MODE_PARAMS:
        s = _random_state(rng, scale_q=0.3)
        qdot, pdot = hamilton_rhs(s, params, mode)
        for mu in range(7):
            dp = np.zeros(7)
            dp[mu] = step
            fd_q = (
                hamiltonian(CotangentState(s.q, s.p + dp), params, mode)
                - hamiltonian(CotangentState(s.q, s.p - dp), params, mode)
            ) / (2 * step)
            dq = np.zeros(7)
            dq[mu] = step
            fd_p = -(
                hamiltonian(CotangentState(s.q + dq, s.p), params, mode)
                - hamiltonian(CotangentState(s.q - dq, s.p), params, mode)
            ) / (2 * step)
            assert qdot[mu] == pytest.approx(fd_q, abs=TOL_FD)
            assert pdot[mu] == pytest.approx(fd_p, abs=TOL_FD)


# --- the published first-order system -----------------------------------------


def test_printed_system_matches_generic_on_thirteen_lines():
    rng = np.random.default_rng(7)
    worst = np.zeros(14)
    for _ in range(100):
        s = _random_state(rng)
        diff = np.abs(printed_heisenberg_rhs(s) - generic_rhs_momentum_chart(s))
        worst = np.maximum(worst, diff)
    matching = np.delete(worst, 1)  # all lines except s-dot
    assert np.max(matching) < 1e-13
    assert worst[1] > 1e-3  # the published s-dot line genuinely differs


def test_sdot_mismatch_formula_and_nonzero_witness():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = _random_state(rng)
        gap = printed_heisenberg_rhs(s)[1] - generic_rhs_momentum_chart(s)[1]
        assert sdot_mismatch(s) == pytest.approx(gap, abs=1e-14)
    # explicit witness: x = 1, p_y = 1 gives P_Y = 1 and a mismatch of 1/2
    q = np.zeros(7)
    q[4] = 1.0
    s = CotangentState(q, [0, 0, 0, 0, 0, 1, 0])
    assert sdot_mismatch(s) == pytest.approx(0.5, abs=0)


def test_printed_momenta_match_frame_momenta():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = _random_state(rng)
        P = frame_momenta(s.q, s.p, HEIS)
        mixed = printed_heisenberg_rhs(s)
        # lines 4..7 of the published system are w-dot = P_W etc.
        assert_allclose(mixed[3:7], P[3:], atol=1e-14)


# --- RK4 integration -----------------------------------------------------------


def test_integrate_zero_momenta_is_constant():
    s0 = CotangentState(np.full(7, 0.1), np.zeros(7))
    tr = integrate(s0, HEIS, "heisenberg", 0.01, 50)
    assert tr.status == "complete"
    assert np.max(np.abs(tr.q - tr.q[0])) == 0.0
    assert np.max(np.abs(tr.H)) == 0.0


def test_integrate_straight_segment():
    s0 = CotangentState(np.zeros(7), [0, 0, 0, 1, 0, 0, 0])
    tr = integrate(s0, HEIS, "heisenberg", 0.01, 100)
    assert tr.status == "complete"
    assert_allclose(tr.q[:, 3], tr.u, atol=1e-12)
    others = np.delete(tr.q, 3, axis=1)
    assert np.max(np.abs(others)) == 0.0
    assert circle_check(tr).kind == "line"


def test_integrate_validates_inputs():
    s0 = CotangentState(np.zeros(7), np.zeros(7))
    with pytest.raises(ValueError):
        integrate(s0, HEIS, "heisenberg", -0.1, 10)
    with pytest.raises(ValueError):
        integrate(s0, HEIS, "heisenberg", 0.1, 0)
    q_bad = np.zeros(7)
    q_bad[3] = 2.0
    with pytest.raises(DomainViolation):
        integrate(CotangentState(q_bad, np.zeros(7)), ModelParams(-1.0, 1.0), "subriemannian", 0.1, 1)


def test_energy_and_vertical_momentum_conservation_long_run():
    rng = np.random.default_rng(10)
    s0 = _random_state(rng)
    tr = integrate(s0, HEIS, "heisenberg", 1e-3, 10_000)
    assert tr.status == "complete"
    assert np.max(np.abs(tr.H - tr.H[0])) < 1e-10
    assert np.max(np.abs(tr.p[:, :3] - tr.p[0, :3])) < 1e-13


def test_energy_conservation_other_modes():
    rng = np.random.default_rng(11)
    for mode, params in [
        (GeodesicMode.SUBRIEMANNIAN, ModelParams(1.0, 1.0)),
        (GeodesicMode.RIEMANNIAN, ModelParams(1.0, 1.0)),
        (GeodesicMode.RIEMANNIAN, ModelParams(-0.5, 2.0)),
    ]:
        s0 = _random_state(rng)
        tr = integrate(s0, params, mode, 1e-3, 2000)
        assert tr.status == "complete"
        assert np.max(np.abs(tr.H - tr.H[0])) < 1e-10
        assert np.max(np.abs(tr.p[:, :3] - tr.p[0, :3])) < 1e-13


def test_subriemannian_velocity_is_horizontal():
    rng = np.random.default_rng(12)
    for params in [HEIS, ModelParams(1.0, 1.0), ModelParams(-0.5, 2.0)]:
        s0 = _random_state(rng)
        tr = integrate(s0, params, "subriemannian", 1e-2, 40)
        for k in range(0, tr.n_samples, 10):
            st = tr.state(k)
            qdot, _ = hamilton_rhs(st, params, "subriemannian")
            vertical = coframe_matrix(st.q, params)[:3] @ qdot
            assert np.max(np.abs(vertical)) < 1e-10


def test_trajectory_grid_and_rows():
    s0 = CotangentState(np.zeros(7), [0.3, 0, 0, 1, 0, 0, 0])
    tr = integrate(s0, HEIS, "heisenberg", 0.05, 20)
    assert tr.n_samples == 21
    assert_allclose(np.diff(tr.u), np.full(20, 0.05), atol=1e-15)
    rows = tr.to_rows()
    assert rows.shape == (21, 16)
    assert_allclose(rows[:, 0], tr.u, atol=0)
    assert_allclose(rows[0, 1:8], s0.q, atol=0)
    assert_allclose(rows[0, 8:15], s0.p, atol=0)
    assert rows[0, 15] == pytest.approx(hamiltonian(s0, HEIS, "heisenberg"), abs=0)


def test_integrate_domain_exit_partial_trajectory():
    params = ModelParams(-1.0, 1.0)
    q0 = np.zeros(7)
    q0[3] = 0.5
    s0 = CotangentState(q0, [0, 0, 0, 2.0, 0, 0, 0])
    tr = integrate(s0, params, "subriemannian", 1.0, 10)
    assert tr.status == "domain-exit"
    assert tr.exit_step == 1
    assert tr.n_samples == 1
    assert_allclose(tr.q[0], q0, atol=0)


def test_integrate_step_rejected_on_blowup():
    params = ModelParams(1.0, 1.0)
    q0 = np.zeros(7)
    q0[3] = 1.0
    s0 = CotangentState(q0, np.full(7, 3.0))
    tr = integrate(s0, params, "riemannian", 0.5, 100)
    assert tr.status == "step-rejected"
    assert tr.exit_step is not None
    assert tr.n_samples >= 1
    assert np.all(np.isfinite(tr.q)) and np.all(np.isfinite(tr.p))


# --- closed form ---------------------------------------------------------------


def test_closed_form_degenerate_line():
    point = closed_form_geodesic([0, 0, 0, 0], [1, 0, 0, 0], 0, 0, 0, 0.3, 0.4, 0.5, 2.0)
    assert_allclose(point, [0.3, 0.4, 0.5, 2.0, 0, 0, 0], atol=1e-15)


def test_closed_form_unit_circle():
    for u in (0.3, 1.0, 2.0, 5.5):
        point = closed_form_geodesic([0, 0, 0, 0], [1, 0, 0, 0], 1.0, 0, 0, 0, 0, 0, u)
        assert point[3] == pytest.approx(np.sin(u), abs=1e-12)
        assert point[4] == pytest.approx(np.cos(u) - 1.0, abs=1e-12)
        assert np.max(np.abs(point[5:])) < 1e-15
        # vertical area integral has the closed value (u - sin u)/2 here
        assert point[0] == pytest.approx(0.5 * (u - np.sin(u)), abs=1e-12)
        assert np.max(np.abs(point[1:3])) < 1e-12


def test_closed_form_speed_is_constant():
    rng = np.random.default_rng(13)
    s0 = _random_state(rng)
    tr = closed_form_trajectory(s0, 1e-2, 400)
    P = np.einsum("kma,km->ka", frame_matrix(tr.q, HEIS), tr.p)
    speeds = np.linalg.norm(P[:, 3:], axis=1)
    assert np.max(np.abs(speeds - speeds[0])) < 1e-12


def test_closed_form_trajectory_matches_pointwise_evaluation():
    rng = np.random.default_rng(14)
    s0 = _random_state(rng)
    inputs = heisenberg_closed_form_inputs(s0)
    tr = closed_form_trajectory(s0, 0.05, 40)
    for k in (1, 7, 19, 40):
        ref = closed_form_geodesic(*inputs, u=float(tr.u[k]))
        assert_allclose(tr.q[k], ref, atol=1e-12)
    assert_allclose(tr.q[0], s0.q, atol=0)
    assert_allclose(tr.p[0], s0.p, atol=1e-15)


def test_closed_form_matches_rk4():
    rng = np.random.default_rng(15)
    for _ in range(2):
        s0 = _random_state(rng)
        n = 1000
        tr = integrate(s0, HEIS, "heisenberg", 1e-3, n)
        ref = closed_form_trajectory(s0, 1e-3, n)
        assert np.max(np.abs(tr.q - ref.q)) < 1e-11
        assert np.max(np.abs(tr.p - ref.p)) < 1e-11


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(16)
    for _ in range(2):
        s0 = _random_state(rng)
        inputs = heisenberg_closed_form_inputs(s0)
        errs = []
        for h, n in ((1e-2, 100), (5e-3, 200), (2.5e-3, 400)):
            tr = integrate(s0, HEIS, "heisenberg", h, n)
            ref = closed_form_geodesic(*inputs, u=1.0)
            errs.append(np.linalg.norm(tr.q[-1] - ref))
        assert 12.0 < errs[0] / errs[1] < 20.0
        assert 12.0 < errs[1] / errs[2] < 20.0


# --- Poisson brackets ----------------------------------------------------------


def test_poisson_residuals_vanish():
    rng = np.random.default_rng(17)
    for _ in range(100):
        s = _random_state(rng)
        assert np.max(poisson_check(s)) < TOL_EXACT


def test_poisson_bracket_values():
    rng = np.random.default_rng(18)
    for _ in range(20):
        s = _random_state(rng)
        pr, ps, pt = s.p[:3]
        vals = poisson_bracket_values(s)
        expected = np.array([pr, ps, pt, pt, -ps, pr])
        assert_allclose(vals, expected, atol=1e-13)
    assert POISSON_PAIRS == ((4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7))


# --- circle / line recognition ---------------------------------------------------


def test_circle_check_unit_circle():
    s0 = CotangentState(np.zeros(7), [1, 0, 0, 1, 0, 0, 0])
    tr = closed_form_trajectory(s0, 1e-3, 6283)
    verdict = circle_check(tr)
    assert verdict.kind == "circle"
    assert verdict.radius == pytest.approx(1.0, rel=1e-4)
    assert_allclose(verdict.center, [0, -1, 0, 0], atol=1e-6)
    assert_allclose(verdict.lam, [1, 0, 0], atol=1e-4)


def test_circle_check_random_radius():
    rng = np.random.default_rng(19)
    for _ in range(3):
        s0 = _random_state(rng)
        _, P0, pr, ps, pt, *_ = heisenberg_closed_form_inputs(s0)
        lam = float(np.linalg.norm([pr, ps, pt]))
        expected = float(np.linalg.norm(P0)) / lam
        tr = closed_form_trajectory(s0, 2e-3, 4000)
        verdict = circle_check(tr)
        assert verdict.kind == "circle"
        assert verdict.radius == pytest.approx(expected, rel=1e-4)
        assert_allclose(verdict.lam, [pr, ps, pt], atol=1e-4)


def test_circle_check_line_and_neither():
    s0 = CotangentState(np.zeros(7), [0, 0, 0, 0.7, 0, 0.2, 0])
    tr = integrate(s0, HEIS, "heisenberg", 0.01, 50)
    assert circle_check(tr).kind == "line"

    n, h = 50, 0.05
    uu = np.arange(n + 1) * h
    q = np.zeros((n + 1, 7))
    q[:, 3] = uu**2
    fake = Trajectory(
        u=uu, q=q, p=np.zeros((n + 1, 7)), H=np.zeros(n + 1),
        mode=GeodesicMode.SUBRIEMANNIAN, params=HEIS, h=h,
    )
    assert circle_check(fake).kind == "neither"


def test_circle_check_too_few_samples():
    tr = Trajectory(
        u=np.arange(5) * 0.1, q=np.zeros((5, 7)), p=np.zeros((5, 7)),
        H=np.zeros(5), mode=GeodesicMode.HEISENBERG, params=HEIS, h=0.1,
    )
    with pytest.raises(TooFewSamples):
        circle_check(tr)
