"""Tests for the geodesic Hamiltonian flow, RK4, closed form, and arc test."""

import functools
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles

from ebcv.errors import DomainViolation, ModeMismatch, TooFewSamples
from ebcv.frames import (FrameJet, ModelParams, coframe_matrix, frame_jet,
                         frame_matrix)
from ebcv.geodesics import (
    POISSON_PAIRS,
    _bracket_values,
    CircleVerdict,
    CotangentState,
    GeodesicMode,
    Trajectory,
    MAX_STEPS,
    circle_check,
    closed_form_trajectory,
    frame_momenta,
    generic_rhs_momentum_chart,
    hamilton_rhs,
    hamiltonian,
    integrate,
    poisson_check,
    printed_heisenberg_rhs,
    sdot_mismatch,
)
from ebcv.quaternions import _sine_quotient, exp_imaginary, qconj, qmul
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
    a = rng.normal(size=(300, 4))
    b = rng.normal(size=(300, 4))
    norm = np.linalg.norm
    expect = norm(a, axis=-1) * norm(b, axis=-1)
    scale = np.maximum(1.0, expect)
    assert np.all(np.abs(norm(qmul(a, b), axis=-1) - expect) <= 1e-14 * scale)


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


def test_exp_imaginary_unit_modulus_and_values():
    rng = np.random.default_rng(2)
    vs = rng.normal(size=(50, 3))
    assert np.max(np.abs(np.linalg.norm(exp_imaginary(vs), axis=-1) - 1.0)) < 5e-15
    assert_allclose(exp_imaginary([np.pi / 2, 0, 0]), [0, 1, 0, 0], atol=1e-15)
    assert_allclose(exp_imaginary([0.0, 0.0, 0.0]), [1, 0, 0, 0], atol=0)


def test_exp_imaginary_series_fallback_is_smooth():
    # at tiny moduli, exp(v) is 1 + v to double precision
    for scale in (0.5e-8, 0.99e-8, 1.01e-8, 2e-8):
        v = np.array([scale, scale, -scale]) / np.sqrt(3.0)
        e = exp_imaginary(v)
        assert abs(e[0] - 1.0) < 1e-15
        assert_allclose(e[1:], v, rtol=1e-12, atol=1e-30)


def test_sine_quotients_match_40_digit_values():
    # both sides of the series cutoff at 1, and the ends of its range
    ns = np.concatenate([np.logspace(-12, 2, 57), [1.0 - 2.0**-53, 1.0]])
    with mpmath.workdps(40):
        sinc = [mpmath.sin(n) / n for n in map(mpmath.mpf, ns)]
        defect = [(n - mpmath.sin(n)) / n**3 for n in map(mpmath.mpf, ns)]
    for first, want in ((1, sinc), (3, defect)):
        want = np.array(want, dtype=float)
        rel = np.abs(_sine_quotient(ns, first) - want) / want
        assert np.max(rel) <= 4e-16, first


# --- cotangent states and the Hamiltonian ------------------------------------


def test_cotangent_state_validation():
    with pytest.raises(ValueError):
        CotangentState(np.zeros(6), np.zeros(7))
    with pytest.raises(ValueError):
        CotangentState(np.zeros(7), [0, 0, 0, np.inf, 0, 0, 0])


def test_cotangent_state_leaves_caller_arrays_writable():
    q, p = np.zeros(7), np.ones(7)
    s = CotangentState(q, p)
    p[0] = 2.0
    q[3] = 0.5
    assert s.p[0] == 1.0 and s.q[3] == 0.0
    assert not s.p.flags.writeable and not s.q.flags.writeable


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
            dF = FrameJet(s.q, params).dF
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


def test_hamilton_rhs_matches_the_transcribed_kernel_bit_for_bit():
    # the kernel of `integrate` against its transcription with `@` products
    # and a concatenated result, signed zeros and the +0.0 of p-dot_{r,s,t}
    # included
    rng = np.random.default_rng(8)
    for m, l in ((0.0, 1.0), (1.0, 1.0), (-0.5, -2.0)):
        params = ModelParams(m, l)
        modes = [GeodesicMode.SUBRIEMANNIAN, GeodesicMode.RIEMANNIAN]
        if (m, l) == (0.0, 1.0):
            modes.append(GeodesicMode.HEISENBERG)
        for k in range(100):
            q, p = rng.uniform(-0.5, 0.5, 7), rng.uniform(-1.0, 1.0, 7)
            if k % 4 == 0:
                q[3:] = rng.choice([0.0, -0.0], 4)
            for v in (q, p):
                v[rng.random(7) < 0.2] = -0.0
            for mode in modes:
                qdot, pdot = hamilton_rhs(CotangentState(q, p), params, mode)
                _, _, ref = oracles.flow_reference(
                    np.concatenate((q, p)), m, l, mode is GeodesicMode.RIEMANNIAN)
                assert qdot.tobytes() == ref[:7].tobytes()
                assert pdot.tobytes() == ref[7:].tobytes()
                assert pdot[:3].tobytes() == np.zeros(3).tobytes()


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


def test_integrate_refuses_a_non_finite_initial_energy():
    # q and p are finite, but H = |p|^2 / 2 overflows
    s0 = CotangentState(np.zeros(7), np.full(7, 1e200))
    with pytest.raises(DomainViolation, match="initial energy"):
        integrate(s0, ModelParams(1.0, 1.0), "riemannian", 1e-3, 10)


def test_step_count_above_the_cap_is_refused_before_allocating():
    s0 = CotangentState(np.zeros(7), [1, 0, 0, 1, 0, 0, 0])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_STEPS"):
            integrate(s0, HEIS, "heisenberg", 1e-3, MAX_STEPS + 1)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            closed_form_trajectory(s0, 1e-3, MAX_STEPS + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (MAX_STEPS + 1, 7) float array alone is 56 MB
    assert peak < 1_000_000


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
            st = CotangentState(tr.q[k], tr.p[k])
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


def test_an_early_exit_keeps_no_buffer_beyond_its_samples():
    # the run leaves the domain after 1547 of 100 001 samples; no array of
    # the trajectory may keep alive the buffers sized for all of them
    q0 = np.zeros(7)
    q0[3] = 0.99
    s0 = CotangentState(q0, [0, 0, 0, 1.0, 0, 0, 0])
    tr = integrate(s0, ModelParams(-1.0, 1.0), "subriemannian", 0.5, 100_000)
    assert (tr.status, tr.n_samples) == ("domain-exit", 1547)
    for name in ("u", "q", "p", "H"):
        arr = getattr(tr, name)
        held = arr if arr.base is None else arr.base
        assert held.nbytes == arr.nbytes, name


def test_integrate_step_rejected_on_blowup():
    params = ModelParams(1.0, 1.0)
    for w, p0, h, exit_step in (
        # step 1 lands near 1e96, where q and p are finite but H overflows
        (1.0, 3.0, 0.5, 1),
        # step 3 lands where q and p are finite but K = 1 + m|u|^2 overflows
        (0.5, 1.0, 0.3, 3),
    ):
        q0 = np.zeros(7)
        q0[3] = w
        s0 = CotangentState(q0, np.full(7, p0))
        tr = integrate(s0, params, "riemannian", h, 100)
        assert tr.status == "step-rejected"
        assert tr.exit_step == exit_step
        assert tr.n_samples == exit_step
        for arr in (tr.q, tr.p, tr.H):
            assert np.all(np.isfinite(arr))


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_COMPONENT = st.one_of(_SIGNED_ZERO, st.floats(-1.0, 1.0))


@st.composite
def _rk4_cases(draw):
    """(mode, m, l, q, p, h, n) with each mode where it is valid, m and l
    zero (of either sign), negative or positive, u = 0 with signed zeros,
    and steps and momenta large enough to leave the chart or overflow."""
    mode = draw(st.sampled_from(list(GeodesicMode)))
    if mode is GeodesicMode.HEISENBERG:
        m, l = 0.0, 1.0
    else:
        m = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0)))
        l = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0]), st.floats(-3.0, 3.0)))
    q = draw(st.lists(_COMPONENT, min_size=7, max_size=7))
    if draw(st.booleans()):
        q[3:] = draw(st.lists(_SIGNED_ZERO, min_size=4, max_size=4))
    scale = draw(st.sampled_from([1.0, 3.0, 10.0]))
    p = [scale * c for c in draw(st.lists(_COMPONENT, min_size=7, max_size=7))]
    h = draw(st.sampled_from([1e-3, 1e-2, 0.1, 0.3, 0.5, 1.0]))
    return mode, m, l, q, p, h, draw(st.integers(1, 40))


def _q_at_w(w):
    return [0.0, 0.0, 0.0, w, 0.0, 0.0, 0.0]


@settings(max_examples=250, deadline=None)
@given(_rk4_cases())
@example(("subriemannian", -1.0, 1.0, _q_at_w(0.5), [0, 0, 0, 4.0, 0, 0, 0], 0.2, 40))
@example(("riemannian", 1.0, 1.0, _q_at_w(1.0), [3.0] * 7, 0.5, 10))  # H overflows
@example(("riemannian", 1.0, 1.0, _q_at_w(0.5), [1.0] * 7, 0.3, 10))  # K overflows
@example(("subriemannian", -2.0, 1.0, _q_at_w(1.0), [1.0] * 7, 0.1, 5))  # refused
@example(("heisenberg", 0.0, 1.0, [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0],
          [-0.0, 0.5, -0.0, 0.0, -0.0, 1.0, -0.0], 0.1, 20))
@example(("riemannian", 1.0, 0.0, [0.1, -0.0, 0.2, 0.3, -0.0, 0.0, 0.4],
          [1.0, -0.0, -0.5, 0.2, 0.0, -0.3, 0.1], 0.1, 20))
@example(("subriemannian", 0.0, -2.0, [0.0, 0.1, -0.0, 0.2, 0.3, -0.0, 0.1],
          [-0.0, 1.0, 0.5, -0.2, 0.4, 0.0, -0.1], 0.1, 20))
# the chart is left at stage 2, 3 or 4 of step 1, or at the sample that
# step 4 accepts
@example(("subriemannian", -1.0, 1.0, _q_at_w(0.5), [0, 0, 0, 2.0, 0, 0, 0], 1.0, 1))
@example(("riemannian", -0.5, -2.0, [0.0, 0.0, 0.0, 0.19, -0.31, 0.32, -0.35],
          [2.0, -2.6, 2.0, -2.0, -0.7, -1.1, 1.1], 1.0, 1))
@example(("subriemannian", -1.0, 1.0, _q_at_w(0.5), [0, 0, 0, 1.0, 0, 0, 0], 1.0, 1))
@example(("riemannian", -2.0, -2.0, [0.0, 0.0, 0.0, 0.39, -0.14, -0.2, 0.53],
          [-1.0, 1.7, -1.9, -0.1, -0.7, -1.3, -1.6], 1.0, 5))
# m = -0.0 and l = -0.0: 2m and the twist matrix carry the sign of zero
@example(("riemannian", -0.0, 1.0, [0.1, -0.0, 0.2, 0.3, -0.0, 0.0, 0.4],
          [1.0, -0.0, -0.5, 0.2, 0.0, -0.3, 0.1], 0.1, 20))
@example(("subriemannian", 1.0, -0.0, [0.0, 0.1, -0.0, 0.2, 0.3, -0.0, 0.1],
          [-0.0, 1.0, 0.5, -0.2, 0.4, 0.0, -0.1], 0.1, 20))
def test_integrate_matches_the_transcribed_step_bit_for_bit(case):
    mode, m, l, q, p, h, n = case
    mode = GeodesicMode(mode)
    ref = oracles.rk4_reference(q, p, m, l, mode is GeodesicMode.RIEMANNIAN, h, n)
    if ref is None:
        with pytest.raises(DomainViolation):
            integrate(CotangentState(q, p), ModelParams(m, l), mode, h, n)
        return
    tr = integrate(CotangentState(q, p), ModelParams(m, l), mode, h, n)
    status, exit_step, *arrays = ref
    assert (tr.status, tr.exit_step) == (status, exit_step)
    for name, got, want in zip("uqpH", (tr.u, tr.q, tr.p, tr.H), arrays):
        assert got.tobytes() == want.tobytes(), name



def test_concurrent_trajectories_match_the_runs_one_after_the_other():
    # each trajectory binds its own kernel scratch: threads that integrate
    # different states at once, switching every microsecond, get the bytes
    # of the same runs made one after the other
    rng = np.random.default_rng(11)
    cases = [(_random_state(rng), params, mode) for mode, params in MODE_PARAMS]

    def run(state, params, mode):
        tr = integrate(state, params, mode, 0.01, 200)
        return b"".join(a.tobytes() for a in (tr.u, tr.q, tr.p, tr.H))

    alone = [run(*case) for case in cases]
    together = [None] * len(cases)
    start = threading.Barrier(len(cases), timeout=60)

    def worker(i):
        start.wait()
        together[i] = run(*cases[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert together == alone

# --- closed form ---------------------------------------------------------------


def _closed_form_point(s0, u):
    return closed_form_trajectory(s0, h=u, n=1).q[-1]


def test_closed_form_degenerate_line():
    s0 = CotangentState([0.3, 0.4, 0.5, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0])
    point = _closed_form_point(s0, 2.0)
    assert_allclose(point, [0.3, 0.4, 0.5, 2.0, 0, 0, 0], atol=1e-15)


def test_closed_form_unit_circle():
    s0 = CotangentState(np.zeros(7), [1, 0, 0, 1, 0, 0, 0])
    for u in (0.3, 1.0, 2.0, 5.5):
        point = _closed_form_point(s0, u)
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
    tr = closed_form_trajectory(s0, 0.05, 40)
    for k in (1, 7, 19, 40):
        ref = _closed_form_point(s0, float(tr.u[k]))
        assert_allclose(tr.q[k], ref, atol=1e-12)
    assert_allclose(tr.q[0], s0.q, atol=0)
    assert_allclose(tr.p[0], s0.p, atol=1e-15)


def _mp_qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]


def _mp_closed_form_end(q0, p0, u):
    """(q, p) at parameter u to 40 digits, from the defining formulas.

    P = p_omega - (1/2) Lambda omega are the horizontal momenta of the
    published system, P(v) = exp(-Lambda v) P(0), omega(v) = omega(0) +
    Lambda^{-1} (1 - exp(-Lambda v)) P(0) (omega(0) + v P(0) at Lambda = 0),
    and r, s, t by quadrature of (1/2) Im(omega conj(P)).
    """
    with mpmath.workdps(40):
        q0 = [mpmath.mpf(float(c)) for c in q0]
        p0 = [mpmath.mpf(float(c)) for c in p0]
        u = mpmath.mpf(float(u))
        lam = [mpmath.mpf(0)] + p0[:3]
        norm = mpmath.sqrt(sum(c * c for c in lam))
        half = lambda a, b: [c / 2 for c in _mp_qmul(a, b)]  # noqa: E731
        P0 = [a - b for a, b in zip(p0[3:], half(lam, q0[3:]))]

        def exp_minus(v):  # exp(-Lambda v)
            sin_over = mpmath.sin(norm * v) / norm if norm else v
            return [mpmath.cos(norm * v)] + [-c * sin_over for c in lam[1:]]

        def P(v):
            return _mp_qmul(exp_minus(v), P0)

        def omega(v):
            if not norm:
                return [a + v * b for a, b in zip(q0[3:], P0)]
            one_minus = [1 - c if i == 0 else -c for i, c in enumerate(exp_minus(v))]
            lam_inv = [-c / norm**2 for c in lam]
            step = _mp_qmul(_mp_qmul(lam_inv, one_minus), P0)
            return [a + b for a, b in zip(q0[3:], step)]

        @functools.lru_cache(maxsize=None)
        def integrand(v):
            Pv = P(v)
            return half(omega(v), [Pv[0]] + [-c for c in Pv[1:]])

        # on pieces of at most 4 radians, 24 Gauss-Legendre nodes integrate
        # these entire functions far below the 40 digits
        nodes = mpmath.linspace(0, u, int(norm * u / 4) + 2)
        vertical = []
        for i in range(3):
            value, error = mpmath.quad(lambda v: integrand(v)[i + 1], nodes,
                                       method="gauss-legendre", maxdegree=4,
                                       error=True)
            assert error < 1e-25
            vertical.append(q0[i] + value)
        om = omega(u)
        p_h = [a + b for a, b in zip(P(u), half(lam, om))]
        return np.array(vertical + om, dtype=float), np.array(p0[:3] + p_h, dtype=float)


@pytest.mark.parametrize("lam", [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 10.0])
def test_closed_form_matches_40_digit_reference(lam):
    rng = np.random.default_rng(31)
    for u in (1e-3, 1.0, 20.0):
        q0 = rng.uniform(-0.4, 0.4, 7)
        direction = rng.normal(size=3)
        p0 = np.concatenate([lam * direction / np.linalg.norm(direction),
                             rng.uniform(-1.0, 1.0, 4)])
        tr = closed_form_trajectory(CotangentState(q0, p0), u / 4, 4)
        q_ref, p_ref = _mp_closed_form_end(q0, p0, u)
        assert np.max(np.abs(tr.q[-1] - q_ref)) <= 1e-13, u
        assert np.max(np.abs(tr.p[-1] - p_ref)) <= 1e-13, u


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
        errs = []
        for h, n in ((1e-2, 100), (5e-3, 200), (2.5e-3, 400)):
            tr = integrate(s0, HEIS, "heisenberg", h, n)
            ref = _closed_form_point(s0, 1.0)
            errs.append(np.linalg.norm(tr.q[-1] - ref))
        assert 12.0 < errs[0] / errs[1] < 20.0
        assert 12.0 < errs[1] / errs[2] < 20.0


# --- Poisson brackets ----------------------------------------------------------


def test_poisson_residuals_vanish():
    rng = np.random.default_rng(17)
    for _ in range(100):
        s = _random_state(rng)
        assert np.max(poisson_check(s)) < TOL_EXACT


def test_poisson_check_builds_one_frame_jet(monkeypatch):
    builds = []
    init = FrameJet.__init__

    def counting_init(self, q, params):
        builds.append(params)
        init(self, q, params)

    monkeypatch.setattr(FrameJet, "__init__", counting_init)
    s = _random_state(np.random.default_rng(20))
    poisson_check(s)
    assert builds == [HEIS]


def test_poisson_bracket_values():
    rng = np.random.default_rng(18)
    for _ in range(20):
        s = _random_state(rng)
        pr, ps, pt = s.p[:3]
        vals = _bracket_values(frame_jet(s.q, HEIS), s.p)
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
        P0 = frame_momenta(s0.q, s0.p, HEIS)[3:]
        pr, ps, pt = s0.p[:3]
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
