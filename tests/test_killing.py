"""Tests for Killing-field residuals, the 28-PDE system, and the m=0 basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ebcv.errors import InsufficientSamples, MalformedFieldInput
from ebcv.frames import ModelParams, sample_domain_points
from ebcv.killing import (
    KillingParamsM0,
    PARAM_NAMES_M0,
    Poly,
    PolyVectorField,
    basis_rank,
    coordinate_bracket,
    coordinate_components,
    field_from_params,
    frame_unit_field,
    killing_basis_m0,
    killing_residual,
    pde_residuals,
)

PARAM_GRID = [
    ModelParams(0.0, 1.0),
    ModelParams(1.0, 1.0),
    ModelParams(-0.5, 2.0),
    ModelParams(0.7, -1.3),
]

ORIGIN = np.zeros(7)


def _pts(params, n=10, seed=13):
    return sample_domain_points(params, n, seed=seed)


# ---------------------------------------------------------------------------
# polynomial engine
# ---------------------------------------------------------------------------


def test_poly_arithmetic_and_partials():
    w, x = Poly.var(3), Poly.var(4)
    p = 2.0 * w * w + 3.0 * x - 1.0
    q = np.array([0.0, 0.0, 0.0, 2.0, -1.0, 0.0, 0.0])
    assert p(q) == 2 * 4 + 3 * (-1) - 1
    assert p.partial(3)(q) == 8.0
    assert p.partial(4)(q) == 3.0
    assert p.partial(0)(q) == 0.0
    assert (p - p).terms == {}
    assert p.degree() == 2
    assert Poly.zero().degree() == -1


def test_poly_evaluation_broadcasts():
    x = Poly.var(4)
    pts = np.zeros((5, 7))
    pts[:, 4] = np.arange(5.0)
    assert_allclose((x * x)(pts), np.arange(5.0) ** 2)


# multiples of 1/8 in [-3, 3]: every product and sum below is exact in IEEE
# double, so the identities hold with ==
EIGHTHS = st.integers(-24, 24).map(lambda k: k / 8)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), EIGHTHS, EIGHTHS)
def test_poly_ring_properties(i, j, a, b):
    p = a * Poly.var(i) + 1.0
    q = b * Poly.var(j) * Poly.var(i) - 2.0
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p
    # Leibniz rule for exact partials
    for k in range(7):
        assert (p * q).partial(k) == p.partial(k) * q + p * q.partial(k)


# ---------------------------------------------------------------------------
# field validation and serialization
# ---------------------------------------------------------------------------


def test_field_validation_errors():
    with pytest.raises(MalformedFieldInput):
        PolyVectorField([Poly.zero()] * 6)  # wrong arity
    with pytest.raises(MalformedFieldInput):
        PolyVectorField([{(0, 0, 0): 1.0}] + [Poly.zero()] * 6)  # short tuple
    with pytest.raises(MalformedFieldInput):
        PolyVectorField([{(0,) * 7: float("nan")}] + [Poly.zero()] * 6)
    with pytest.raises(MalformedFieldInput):
        PolyVectorField([{(-1, 0, 0, 0, 0, 0, 0): 1.0}] + [Poly.zero()] * 6)
    with pytest.raises(MalformedFieldInput):
        PolyVectorField(["not a poly"] + [Poly.zero()] * 6)
    with pytest.raises(MalformedFieldInput):
        PolyVectorField([{"0,0,0,bad,0,0,0": 1.0}] + [Poly.zero()] * 6)


def test_field_json_round_trip():
    fld = field_from_params(KillingParamsM0(M=1.0, Q=-2.0), 2.0)
    doc = fld.to_json_dict()
    assert set(doc) == {f"e{i}" for i in range(1, 8)}
    back = PolyVectorField.from_json_dict(doc)
    assert back.components == fld.components
    with pytest.raises(MalformedFieldInput):
        PolyVectorField.from_json_dict({"e1": {}})
    with pytest.raises(MalformedFieldInput):
        PolyVectorField.from_json_dict([1, 2, 3])


# ---------------------------------------------------------------------------
# killing_residual
# ---------------------------------------------------------------------------


def test_vertical_frame_fields_are_killing():
    for p in PARAM_GRID:
        pts = _pts(p)
        for i in (1, 2, 3):
            res = killing_residual(frame_unit_field(i), pts, p)
            assert np.abs(res).max() < 1e-13


def test_horizontal_frame_fields_are_not_killing():
    for p in [ModelParams(0.0, 1.0), ModelParams(1.0, 1.0), ModelParams(0.0, 2.0)]:
        pts = _pts(p)
        for i in (4, 5, 6, 7):
            res = killing_residual(frame_unit_field(i), pts, p)
            assert np.abs(res).max() > 0.1


def test_x4_residual_matrix_at_origin():
    A = killing_residual(frame_unit_field(4), ORIGIN, ModelParams(0.0, 1.0))
    # entry (1,5) = l = 1 and its transpose
    assert_allclose(A[0, 4], 1.0, atol=1e-14)
    assert_allclose(A[4, 0], 1.0, atol=1e-14)
    assert_allclose(A, A.T, atol=1e-14)


def test_m_parameter_field_is_killing_m0():
    p = ModelParams(0.0, 1.0)
    fld = field_from_params(KillingParamsM0(M=1.0), 1.0)
    res = killing_residual(fld, _pts(p, n=20, seed=21), p)
    assert np.abs(res).max() < 1e-9


# ---------------------------------------------------------------------------
# pde_residuals
# ---------------------------------------------------------------------------


def test_pde_residuals_vanish_on_vertical_fields():
    for p in PARAM_GRID:
        res = pde_residuals(frame_unit_field(2), _pts(p), p)
        assert res.shape[-1] == 28
        assert np.abs(res).max() < 1e-13


def test_pde_single_term_example():
    # f5 = w, others zero, m=0, l=1: the equation pairing the first two
    # horizontal directions fires with residual exactly 1 (from d f5/dw);
    # f5 also enters three mixed equations algebraically as -+w.
    fld = PolyVectorField(
        [Poly.zero()] * 4 + [Poly.var(3)] + [Poly.zero()] * 2
    )
    p = ModelParams(0.0, 1.0)
    pts = _pts(p, n=6, seed=2)
    res = pde_residuals(fld, pts, p)
    w = pts[..., 3]
    assert_allclose(res[..., 19], 1.0, atol=1e-14)
    assert_allclose(res[..., 6], -w, atol=1e-14)
    assert_allclose(res[..., 13], -w, atol=1e-14)
    assert_allclose(res[..., 16], w, atol=1e-14)
    other = np.delete(res, [6, 13, 16, 19], axis=-1)
    assert np.abs(other).max() < 1e-14


def test_all_ones_solution_satisfies_pde_system():
    p = ModelParams(0.0, 2.0)
    kp = KillingParamsM0(**{name: 1.0 for name in PARAM_NAMES_M0})
    fld = field_from_params(kp, 2.0)
    res = pde_residuals(fld, _pts(p, n=15, seed=8), p)
    assert np.abs(res).max() < 1e-9


def test_equation_13_sign_adjudication():
    # The corrected 13th equation has +(l z/2) d f2/dr.  For the P-basis
    # field (f2 = -r + ...) the corrected residual vanishes identically
    # while the sign-flipped variant equals l*z.
    l = 2.0
    p = ModelParams(0.0, l)
    pts = _pts(p, n=8, seed=3)
    fld = field_from_params(KillingParamsM0(P=1.0), l)
    res = pde_residuals(fld, pts, p)
    assert np.abs(res[..., 12]).max() < 1e-13
    d2r = fld.coeff_partials(pts)[..., 0, 1]
    flipped = res[..., 12] - l * pts[..., 6] * d2r
    assert_allclose(np.abs(flipped), l * np.abs(pts[..., 6]), atol=1e-13)
    assert np.abs(flipped).max() > 0.1


def _m0_printed_system(field, q, l):
    """Independent transcription of the published m=0 equation list."""
    f = field.coeff_values(q)
    d = field.coeff_partials(q)
    w, x, y, z = q[..., 3], q[..., 4], q[..., 5], q[..., 6]
    hl = l / 2.0

    def df(alpha, mu):
        return d[..., mu, alpha - 1]

    def fc(alpha):
        return f[..., alpha - 1]

    R_, S_, T_, W_, X_, Y_, Z_ = range(7)
    eqs = [
        df(1, R_),
        df(2, S_),
        df(3, T_),
        df(2, R_) + df(1, S_),
        df(3, R_) + df(1, T_),
        df(3, S_) + df(2, T_),
        df(4, R_) + df(1, W_) + hl * y * df(1, S_) + hl * z * df(1, T_) - l * fc(5),
        df(5, R_) + df(1, X_) - hl * z * df(1, S_) + hl * y * df(1, T_) + l * fc(4),
        df(6, R_) + df(1, Y_) - hl * w * df(1, S_) - hl * x * df(1, T_) - l * fc(7),
        df(7, R_) + df(1, Z_) + hl * x * df(1, S_) - hl * w * df(1, T_) + l * fc(6),
        df(4, S_) + df(2, W_) + hl * x * df(2, R_) + hl * z * df(2, T_) - l * fc(6),
        df(5, S_) + df(2, X_) - hl * w * df(2, R_) + hl * y * df(2, T_) + l * fc(7),
        df(6, S_) + df(2, Y_) + hl * z * df(2, R_) - hl * x * df(2, T_) + l * fc(4),
        df(7, S_) + df(2, Z_) - hl * y * df(2, R_) - hl * w * df(2, T_) - l * fc(5),
        df(4, T_) + df(3, W_) + hl * x * df(3, R_) + hl * y * df(3, S_) - l * fc(7),
        df(5, T_) + df(3, X_) - hl * w * df(3, R_) - hl * z * df(3, S_) - l * fc(6),
        df(6, T_) + df(3, Y_) + hl * z * df(3, R_) - hl * w * df(3, S_) + l * fc(5),
        df(7, T_) + df(3, Z_) - hl * y * df(3, R_) + hl * x * df(3, S_) + l * fc(4),
        df(4, W_) + hl * x * df(4, R_) + hl * y * df(4, S_) + hl * z * df(4, T_),
        df(5, W_) + hl * x * df(5, R_) + hl * y * df(5, S_) + hl * z * df(5, T_)
        + df(4, X_) - hl * w * df(4, R_) - hl * z * df(4, S_) + hl * y * df(4, T_),
        df(6, W_) + hl * x * df(6, R_) + hl * y * df(6, S_) + hl * z * df(6, T_)
        + df(4, Y_) + hl * z * df(4, R_) - hl * w * df(4, S_) - hl * x * df(4, T_),
        df(7, W_) + hl * x * df(7, R_) + hl * y * df(7, S_) + hl * z * df(7, T_)
        + df(4, Z_) - hl * y * df(4, R_) + hl * x * df(4, S_) - hl * w * df(4, T_),
        df(5, X_) - hl * w * df(5, R_) - hl * z * df(5, S_) + hl * y * df(5, T_),
        df(6, X_) - hl * w * df(6, R_) - hl * z * df(6, S_) + hl * y * df(6, T_)
        + df(5, Y_) + hl * z * df(5, R_) - hl * w * df(5, S_) - hl * x * df(5, T_),
        df(7, X_) - hl * w * df(7, R_) - hl * z * df(7, S_) + hl * y * df(7, T_)
        + df(5, Z_) - hl * y * df(5, R_) + hl * x * df(5, S_) - hl * w * df(5, T_),
        df(6, Y_) + hl * z * df(6, R_) - hl * w * df(6, S_) - hl * x * df(6, T_),
        df(7, Y_) + hl * z * df(7, R_) - hl * w * df(7, S_) - hl * x * df(7, T_)
        + df(6, Z_) - hl * y * df(6, R_) + hl * x * df(6, S_) - hl * w * df(6, T_),
        df(7, Z_) - hl * y * df(7, R_) + hl * x * df(7, S_) - hl * w * df(7, T_),
    ]
    return np.stack(eqs, axis=-1)


def _random_field(rng, nterms=4):
    comps = []
    for _ in range(7):
        terms = {}
        for _ in range(nterms):
            expo = [0] * 7
            for _ in range(int(rng.integers(0, 3))):
                expo[int(rng.integers(0, 7))] += 1
            terms[tuple(expo)] = float(rng.normal())
        comps.append(Poly(terms))
    return PolyVectorField(comps)


def test_m0_specialization_matches_printed_m0_list():
    l = 1.5
    p = ModelParams(0.0, l)
    pts = _pts(p, n=6, seed=5)
    rng = np.random.default_rng(42)
    for _ in range(8):
        fld = _random_field(rng)
        got = pde_residuals(fld, pts, p)
        expected = _m0_printed_system(fld, pts, l)
        assert_allclose(got, expected, atol=1e-12)


def test_pde_killing_verdict_equivalence_on_50_fields():
    rng = np.random.default_rng(7)
    for p in [ModelParams(0.0, 1.0), ModelParams(1.0, 1.0)]:
        pts = _pts(p, n=8, seed=1)
        fields = [_random_field(rng) for _ in range(44)]
        # include genuinely Killing candidates in the pool
        fields += [frame_unit_field(i) for i in (1, 2, 3)]
        fields += [
            field_from_params(KillingParamsM0(M=1.0), p.l),
            field_from_params(KillingParamsM0(Q=1.0), p.l),
            field_from_params(KillingParamsM0(C2=1.0), p.l),
        ]
        assert len(fields) == 50
        n_killing = 0
        for fld in fields:
            pmax = np.abs(pde_residuals(fld, pts, p)).max()
            kmax = np.abs(killing_residual(fld, pts, p)).max()
            assert (pmax < 1e-12) == (kmax < 1e-10)
            n_killing += int(kmax < 1e-10)
        # the pool must exercise both sides of the equivalence
        assert n_killing >= 3
        assert n_killing <= 6 + (6 if p.m == 0.0 else 0)


# ---------------------------------------------------------------------------
# the m=0 basis
# ---------------------------------------------------------------------------


def test_basis_fields_all_killing_for_l_1_and_2():
    for l in (1.0, 2.0):
        p = ModelParams(0.0, l)
        pts = _pts(p, n=10, seed=13)
        for fld in killing_basis_m0(l):
            assert np.abs(killing_residual(fld, pts, p)).max() < 1e-9
            assert np.abs(pde_residuals(fld, pts, p)).max() < 1e-9


def test_basis_structure_examples():
    basis = dict(zip(PARAM_NAMES_M0, killing_basis_m0(1.0)))
    # C1 switches on f1 = 1 alone: the field X_1
    assert basis["C1"].components == frame_unit_field(1).components
    # Q: f4 = 1 and f1 contains -l*Q*x
    q_field = basis["Q"]
    assert q_field.components[3] == Poly.const(1.0)
    assert q_field.components[0].terms[(0, 0, 0, 0, 1, 0, 0)] == -1.0
    # M: f4 = x, f5 = -w plus quadratic vertical parts
    m_field = basis["M"]
    assert m_field.components[3] == Poly.var(4)
    assert m_field.components[4] == -1.0 * Poly.var(3)
    assert m_field.components[0].degree() == 2


def test_basis_rank_is_13():
    p = ModelParams(0.0, 1.0)
    assert basis_rank(killing_basis_m0(1.0), _pts(p, n=10, seed=4)) == 13


def test_basis_rank_detects_duplicate():
    basis = killing_basis_m0(1.0)
    degenerate = basis[:12] + [basis[10]]  # two copies of the C1 field
    p = ModelParams(0.0, 1.0)
    assert basis_rank(degenerate, _pts(p, n=10, seed=4)) == 12


def test_basis_rank_advisory_on_single_point():
    basis = killing_basis_m0(1.0)
    with pytest.warns(InsufficientSamples):
        rank = basis_rank(basis, ORIGIN)
    assert rank <= 7


def test_basis_rank_bound():
    p = ModelParams(0.0, 1.0)
    assert basis_rank(killing_basis_m0(1.0), _pts(p, n=10, seed=4)) <= 28


def test_lie_algebra_closure_m0():
    l = 1.0
    p = ModelParams(0.0, l)
    pts = _pts(p, n=6, seed=17)
    basis = killing_basis_m0(l)
    worst = 0.0
    for i in range(13):
        for j in range(i + 1, 13):
            br = coordinate_bracket(basis[i], basis[j], l)
            worst = max(worst, np.abs(killing_residual(br, pts, p)).max())
    assert worst < 1e-8


def test_coordinate_components_match_frame_expansion():
    # V^mu = sum_a f_a F[mu, a]; check against a numeric contraction.
    from ebcv.frames import frame_matrix

    p = ModelParams(0.0, 2.0)
    pts = _pts(p, n=5, seed=9)
    fld = field_from_params(KillingParamsM0(M=1.0, V=2.0), 2.0)
    comps = coordinate_components(fld, p)
    direct = np.stack([c(pts) for c in comps], axis=-1)
    expected = np.einsum(
        "...ma,...a->...m", frame_matrix(pts, p), fld.coeff_values(pts)
    )
    assert_allclose(direct, expected, atol=1e-13)
