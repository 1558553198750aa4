"""Tests for the characteristic connection, torsion, and homogeneity checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from ebcv.curvature import scalar_curvature
from ebcv.frames import (
    _CHUNK,
    FrameJet,
    ModelParams,
    levi_civita_tensor,
    sample_domain_points,
)
from ebcv.killing import frame_unit_field
from ebcv.homogeneous import (
    P_SIGNS,
    _cyclic_sums,
    _skew_completion,
    ambrose_singer_check,
    char_connection_tensor,
    classify_structure,
    faithful_torsion_tensor,
    nabla_p_torsion_tensor,
    parallelism_residuals,
    torsion_D_tensor,
)

PARAM_GRID = [
    ModelParams(0.0, 1.0),
    ModelParams(1.0, 1.0),
    ModelParams(-0.5, 2.0),
    ModelParams(0.0, 0.0),
    ModelParams(0.7, -1.3),
]

ORIGIN = np.zeros(7)

def _pts(params, n=15, seed=11):
    return sample_domain_points(params, n, seed=seed)


# ---------------------------------------------------------------------------
# characteristic connection
# ---------------------------------------------------------------------------


def test_char_connection_vertical_pair_vanishes():
    # D_{X_1}X_2 = V(nabla_{X_1}X_2) = 0 for every parameter choice.
    for p in PARAM_GRID:
        got = char_connection_tensor(_pts(p), p)[..., 0, 1, :]
        assert_allclose(got, np.zeros_like(got), atol=1e-14)


def test_char_connection_projection_examples():
    p = ModelParams(0.0, 2.0)
    # nabla_{X_1}X_4 = (l/2) X_5 is horizontal, so H keeps it: coefficient 1.
    got = char_connection_tensor(ORIGIN, p)[..., 0, 3, :]
    expect = np.zeros(7)
    expect[4] = 1.0
    assert_allclose(got, expect, atol=1e-14)
    # nabla_{X_4}X_5 = -(l/2) X_1 is vertical, so H kills it.
    got = char_connection_tensor(ORIGIN, p)[..., 3, 4, :]
    assert_allclose(got, np.zeros(7), atol=1e-14)


def test_char_connection_formula_route_agrees():
    # D = nabla + (P/2)(nabla P) in coefficients:
    # <(P/2)(nabla_a P)X_b, X_c> = (eps_c/2)(eps_b - eps_c) Gfr[a,b,c].
    for p in PARAM_GRID:
        pts = _pts(p)
        gfr = levi_civita_tensor(pts, p)
        correction = 0.5 * P_SIGNS[None, None, :] * (
            P_SIGNS[None, :, None] - P_SIGNS[None, None, :]
        )
        formula_route = gfr + gfr * correction
        assert_allclose(
            formula_route, char_connection_tensor(pts, p), atol=1e-12
        )


def test_char_connection_metric_compatible():
    for p in PARAM_GRID:
        D = char_connection_tensor(_pts(p), p)
        residual = D + np.einsum("...abc->...acb", D)
        assert np.abs(residual).max() < 1e-10


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


def test_reduced_torsion_mixed_and_vertical_pairs_vanish():
    for p in PARAM_GRID:
        T = torsion_D_tensor(_pts(p), p)
        # vertical-vertical and mixed pairs carry no reduced torsion
        assert np.abs(T[..., :3, :, :]).max() == 0.0
        assert np.abs(T[..., :, :3, :]).max() == 0.0
        # horizontal output components vanish
        assert np.abs(T[..., 3:, 3:, 3:]).max() == 0.0


def test_torsion_examples():
    # T(X_4, X_5) = l X_1 at the origin.
    p = ModelParams(0.0, 1.0)
    got = torsion_D_tensor(ORIGIN, p)[..., 3, 4, :]
    expect = np.zeros(7)
    expect[0] = 1.0
    assert_allclose(got, expect, atol=1e-14)
    # m=1, l=2, y=1: T(X_4, X_5) = l(1 + m y^2) X_1 = 4 X_1.
    p = ModelParams(1.0, 2.0)
    q = np.zeros(7)
    q[5] = 1.0
    got = torsion_D_tensor(q, p)[..., 3, 4, :]
    expect = np.zeros(7)
    expect[0] = 4.0
    assert_allclose(got, expect, atol=1e-13)
    # T(X_1, X_4) = 0 in the reduced form for any parameters.
    for p in PARAM_GRID:
        got = torsion_D_tensor(_pts(p), p)[..., 0, 3, :]
        assert np.abs(got).max() == 0.0


def _printed_torsion_table(q, m, l):
    """The six nonzero reduced-torsion values as printed closed forms."""
    w, x, y, z = q[..., 3], q[..., 4], q[..., 5], q[..., 6]
    zero = np.zeros_like(w)

    def vec(c1, c2, c3):
        return l * np.stack(
            [c1, c2, c3, zero, zero, zero, zero], axis=-1
        )

    return {
        (4, 5): vec(1 + m * (y**2 + z**2), -m * (w * z + x * y), m * (w * y - x * z)),
        (4, 6): vec(m * (w * z - x * y), 1 + m * (x**2 + z**2), -m * (w * x + y * z)),
        (4, 7): vec(-m * (w * y + x * z), m * (w * x - y * z), 1 + m * (x**2 + y**2)),
        (5, 6): vec(m * (w * y + x * z), -m * (w * x - y * z), 1 + m * (w**2 + z**2)),
        (5, 7): vec(m * (w * z - x * y), -(1 + m * (w**2 + y**2)), -m * (w * x + y * z)),
        (6, 7): vec(1 + m * (w**2 + x**2), m * (w * z + x * y), -m * (w * y - x * z)),
    }


def test_torsion_matches_printed_table():
    for p in [ModelParams(1.0, 2.0), ModelParams(-0.5, 1.0), ModelParams(0.0, 1.0)]:
        pts = _pts(p, n=10, seed=3)
        table = _printed_torsion_table(pts, p.m, p.l)
        T = torsion_D_tensor(pts, p)
        for (a, b), expect in table.items():
            assert_allclose(T[..., a - 1, b - 1, :], expect, atol=1e-12)
            # antisymmetry pins the transposed pair as well
            assert_allclose(T[..., b - 1, a - 1, :], -expect, atol=1e-12)


def test_torsion_two_formulas_agree():
    for p in PARAM_GRID:
        pts = _pts(p)
        a = faithful_torsion_tensor(pts, p)
        b = nabla_p_torsion_tensor(pts, p)
        assert np.abs(a - b).max() < 1e-10


def test_faithful_torsion_nonzero_on_mixed_pairs():
    # The difference-of-connections torsion keeps nabla_{X_i}X_b on mixed
    # pairs; the reduced tensor sets those slots to zero by convention.
    p = ModelParams(0.0, 2.0)
    faithful = faithful_torsion_tensor(ORIGIN, p)
    reduced = torsion_D_tensor(ORIGIN, p)
    # T_faithful(X_1, X_4) = D_1 X_4 - D_4 X_1 - [X_1, X_4] = (l/2) X_5
    assert_allclose(faithful[0, 3, 4], p.l / 2, atol=1e-14)
    assert reduced[0, 3, 4] == 0.0
    # both agree on horizontal pairs
    assert_allclose(faithful[3:, 3:, :], reduced[3:, 3:, :], atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    m=st.floats(-0.9, 0.9, allow_nan=False),
    l=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_torsion_first_two_slot_antisymmetry_exact(m, l):
    p = ModelParams(m, l)
    T = torsion_D_tensor(_pts(p, n=5, seed=1), p)
    assert_array_equal(T, -np.einsum("...abc->...bac", T))


# ---------------------------------------------------------------------------
# trace, cyclic sum, classification
# ---------------------------------------------------------------------------


def test_c12_trace_zero():
    for p in PARAM_GRID:
        trace = np.einsum("...rrc->...c", torsion_D_tensor(_pts(p), p))
        assert np.abs(trace).max() < 1e-12
    T = torsion_D_tensor(ORIGIN, ModelParams(0.0, 1.0))
    assert np.abs(np.einsum("...rrc->...c", T)).max() == 0.0


def test_cyclic_sum_examples():
    # (1,4,5) at m=1, l=2, y=1: l(1 + m y^2) = 4.
    q = np.zeros(7)
    q[5] = 1.0
    got = _cyclic_sums(torsion_D_tensor(q, ModelParams(1.0, 2.0)), 0, 3, 4)
    assert_allclose(got, 4.0, atol=1e-9)
    # (1,4,5) at the origin for m=0, l=1: 1.
    got = _cyclic_sums(torsion_D_tensor(ORIGIN, ModelParams(0.0, 1.0)),
                       0, 3, 4)
    assert_allclose(got, 1.0, atol=1e-12)
    # all-vertical triples vanish for any parameters.
    for p in PARAM_GRID:
        T = torsion_D_tensor(_pts(p), p)
        assert np.abs(_cyclic_sums(T, 0, 1, 2)).max() == 0.0


def test_classify_t3_with_witness():
    for p in [ModelParams(1.0, 2.0), ModelParams(0.0, 1.0), ModelParams(-0.5, 2.0)]:
        verdict = classify_structure(p, _pts(p, n=12, seed=2))
        assert verdict.label == "T3"
        assert verdict.witness_triple == (1, 4, 5)
        assert abs(verdict.witness_value) > 1e-6


def _classify_whole(params, pts):
    """The classification verdict from the whole sample's torsion at once,
    scanning the triples in lexicographic order for a cyclic sum beyond
    1e-6 times its point's max |T|."""
    T = torsion_D_tensor(pts, params)
    size = np.abs(T).max(axis=(1, 2, 3))
    for a in range(7):
        for b in range(7):
            for c in range(7):
                vals = T[:, a, b, c] + T[:, c, a, b] + T[:, b, c, a]
                over = np.abs(vals) > 1e-6 * size
                if over.any():
                    idx = int(np.argmax(np.where(over, np.abs(vals), -1.0)))
                    return (a + 1, b + 1, c + 1), pts[idx], float(vals[idx])
    return None, None, None


@pytest.mark.parametrize("p", [ModelParams(1.0, 1.0), ModelParams(0.0, 1.0),
                               ModelParams(-0.5, 2.0)], ids=str)
def test_chunked_classification_matches_the_whole_sample(p):
    # 100 points span four chunks; the witness is the whole array's
    pts = _pts(p, n=100, seed=4)
    verdict = classify_structure(p, pts)
    triple, point, value = _classify_whole(p, pts)
    assert verdict.label == "T3"
    assert verdict.witness_triple == triple
    assert_array_equal(verdict.witness_point, point)
    assert verdict.witness_value == value


def test_classification_reads_the_points_in_one_pass(monkeypatch):
    p = ModelParams(1.0, 1.0)
    pts = _pts(p, n=100, seed=4)
    passes = []
    chunked = FrameJet._chunked

    def counting(fr, body):
        passes.append(fr.q.shape)
        return chunked(fr, body)

    monkeypatch.setattr(FrameJet, "_chunked", counting)
    assert classify_structure(p, pts).label == "T3"
    assert passes == [pts.shape]


def _classify_peak(p, pts):
    tracemalloc.start()
    try:
        classify_structure(p, pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_classification_memory_does_not_grow_with_the_sample():
    # the torsion of the two chunks in flight at a time, twice a one-chunk
    # call (as in test_memory_is_bounded_by_the_chunk), and five numbers
    # per point: the summary's 40 bytes for each point beyond that call
    p = ModelParams(1.0, 1.0)
    pts = _pts(p, n=2048, seed=6)
    small, large = _classify_peak(p, pts[:_CHUNK]), _classify_peak(p, pts)
    assert large <= 1.25 * 2 * small + 40 * (len(pts) - _CHUNK), (small,
                                                                  large)


def test_frame_indices_are_validated():
    # index 0 used to read X_7 through a negative index, and 8 an IndexError
    for bad in (0, 8, -1, 1.0):
        with pytest.raises(ValueError, match="1..7"):
            frame_unit_field(bad)


def test_classify_trivial_when_l_zero():
    for p in [ModelParams(0.0, 0.0), ModelParams(1.0, 0.0)]:
        verdict = classify_structure(p, _pts(p, n=8, seed=2))
        assert verdict.label == "trivial"
        assert verdict.witness_triple is None


# ---------------------------------------------------------------------------
# homogeneity conditions
# ---------------------------------------------------------------------------


def test_candidate_tensor_algebraic_properties():
    for p in PARAM_GRID:
        pts = _pts(p)
        T = torsion_D_tensor(pts, p)
        S = _skew_completion(T)
        # skew in the last two slots by construction
        assert np.abs(S + np.einsum("...abc->...acb", S)).max() == 0.0
        # first-two-slot antisymmetrization recovers minus the torsion
        assert_allclose(
            S - np.einsum("...abc->...bac", S), -T, atol=1e-14
        )


def test_candidate_tensor_equals_levi_civita_at_m0():
    for l in (1.0, 2.0, -1.5):
        p = ModelParams(0.0, l)
        pts = _pts(p)
        assert_allclose(
            _skew_completion(torsion_D_tensor(pts, p)),
            levi_civita_tensor(pts, p),
            atol=1e-14,
        )


def test_ambrose_singer_residuals_vanish_at_m0():
    for l in (1.0, 2.0):
        p = ModelParams(0.0, l)
        res = ambrose_singer_check(ORIGIN, p)
        assert res.shape == (3,)
        assert np.all(res < 1e-8)
        res = ambrose_singer_check(sample_domain_points(p, 20, seed=9), p)
        assert np.all(res < 1e-8)


def test_ambrose_singer_first_condition_always_zero():
    for p in PARAM_GRID:
        res = ambrose_singer_check(_pts(p, n=6, seed=4), p)
        assert np.abs(res[..., 0]).max() == 0.0


def test_ambrose_singer_detects_inhomogeneity_for_m_nonzero():
    # For m != 0 and l != 0 the scalar curvature is non-constant, so no
    # tensor can make condition (ii) hold; the checker must report large
    # residuals instead of masking them.
    p = ModelParams(1.0, 1.0)
    pts = sample_domain_points(p, 20, seed=9)
    scal = scalar_curvature(pts, p)
    assert scal.max() - scal.min() > 0.1  # the obstruction
    res = ambrose_singer_check(pts, p)
    assert res[..., 1].max() > 0.1
    assert res[..., 2].max() > 0.1


@pytest.mark.parametrize("m, l", [(0.0, 1.0), (1.0, 1.0), (1.0, 0.0),
                                  (-0.5, 1.0), (0.5, -1.5), (3.0, 2.0)])
def test_ambrose_singer_check_matches_the_commutator_form(m, l):
    # two routes to (ii) and (iii): the parallelism of R and S under
    # nabla - S, and nabla R and nabla S against their commutator forms;
    # (i) and (iii) agree bit for bit, (ii) to 4 ulp of its size.  40
    # points, so that the sample spans two chunks
    p = ModelParams(m, l)
    fr = FrameJet(sample_domain_points(p, 40, seed=17), p)
    got = ambrose_singer_check(fr, p)
    (want,) = fr._chunked(
        lambda sub: (oracles.ambrose_singer_commutator_oracle(sub),))
    assert_array_equal(got[:, [0, 2]], want[:, [0, 2]])
    ulp = np.spacing(np.maximum(got[:, 1], want[:, 1]))
    assert np.all(np.abs(got[:, 1] - want[:, 1]) <= 4 * ulp)


@pytest.mark.parametrize("m, l", [(-0.5, 1.0), (0.5, -1.5), (3.0, 2.0),
                                  (-1.0, 0.3), (0.0, 0.0), (2.0, 0.0),
                                  (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
def test_canonical_connection_is_levi_civita_on_the_horizontal_block(m, l):
    # nabla - S keeps gamma on the all-horizontal block and is exactly 0
    # elsewhere; at m = 0 it vanishes, and so does X R, so that residuals
    # (ii) and (iii) read exactly 0 there
    p = ModelParams(m, l)
    fr = FrameJet(sample_domain_points(p, 64, seed=5), p)
    conn = fr.gamma - _skew_completion(torsion_D_tensor(fr, p))
    block = np.zeros((7, 7, 7), dtype=bool)
    block[3:, 3:, 3:] = True
    assert_array_equal(conn[..., block], fr.gamma[..., block])
    assert not conn[..., ~block].any()
    if m == 0.0:
        assert not conn.any()
        assert not fr.xR.any()
        assert not ambrose_singer_check(fr, p)[:, 1:].any()


def test_torsion_parallelism_residuals():
    # the canonical connection parallelizes the torsion and the curvature
    # at m = 0 ...
    for l in (1.0, 2.0):
        p = ModelParams(0.0, l)
        res = ambrose_singer_check(sample_domain_points(p, 10, seed=6), p)
        assert res.shape == (10, 3)
        assert res.max() < 1e-12
        # ... while the characteristic connection does not: the residuals
        # at the origin are exactly the printed witnesses l^2 (component
        # (D_{X_1}T)(X_4, X_6, X_3) = -l^2) and l^3/2 (max |D R|)
        res = parallelism_residuals(ORIGIN, p)
        assert_allclose(res, [l**2, l**3 / 2], atol=1e-12)
