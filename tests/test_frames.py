from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import oracles
from ebcv.errors import DomainViolation
from ebcv.frames import (
    _DRAW,
    BCVClassification,
    FrameJet,
    ModelParams,
    bcv_classify,
    bcv_frame,
    bracket_frame,
    coframe_matrix,
    frame_jet,
    frame_matrix,
    k_factor,
    levi_civita_frame,
    levi_civita_tensor,
    metric_matrix,
    sample_domain_points,
    structure_constants,
)

ORIGIN = np.zeros(7)
PARAM_GRID = [
    ModelParams(0.0, 1.0),
    ModelParams(1.0, 1.0),
    ModelParams(-0.5, 2.0),
    ModelParams(0.0, 0.0),
    ModelParams(0.7, -1.3),
]


def _pt(**kw):
    q = np.zeros(7)
    names = "rstwxyz"
    for key, val in kw.items():
        q[names.index(key)] = val
    return q


# --- conformal factor -------------------------------------------------------


def test_k_factor_examples():
    assert k_factor(ORIGIN, ModelParams(3.0, -2.0)) == 1.0
    assert k_factor(_pt(w=1), ModelParams(1.0, 0.5)) == 2.0
    with pytest.raises(DomainViolation):
        k_factor(_pt(x=1), ModelParams(-1.0, 1.0))


def test_k_factor_rejects_nonfinite():
    with pytest.raises(DomainViolation):
        k_factor(ORIGIN, ModelParams(float("nan"), 1.0))


# --- frame / coframe / metric ------------------------------------------------


def test_frame_identity_at_origin():
    for p in PARAM_GRID:
        np.testing.assert_array_equal(frame_matrix(ORIGIN, p), np.eye(7))


def test_frame_example_column():
    q = _pt(x=1)
    F = frame_matrix(q, ModelParams(0.0, 2.0))
    np.testing.assert_allclose(F[:, 3], [1, 0, 0, 1, 0, 0, 0], atol=0)
    np.testing.assert_allclose(F[:, 0], [1, 0, 0, 0, 0, 0, 0], atol=0)


def test_frame_matches_oracle():
    rng = np.random.default_rng(11)
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 20, seed=5)
        F = frame_matrix(pts, p)
        for k in range(pts.shape[0]):
            np.testing.assert_allclose(
                F[k], oracles.frame_oracle(pts[k], p.m, p.l), atol=1e-15
            )
    del rng


def test_coframe_matches_oracle_and_inverts_frame():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 20, seed=6)
        F = frame_matrix(pts, p)
        Om = coframe_matrix(pts, p)
        prod = np.einsum("kam,kmb->kab", Om, F)
        np.testing.assert_allclose(prod, np.broadcast_to(np.eye(7), prod.shape),
                                   atol=1e-14)
        for k in range(pts.shape[0]):
            np.testing.assert_allclose(
                Om[k], oracles.coframe_oracle(pts[k], p.m, p.l), atol=1e-15
            )


def test_metric_examples_and_oracle():
    np.testing.assert_array_equal(metric_matrix(ORIGIN, ModelParams(2.0, 3.0)),
                                  np.eye(7))
    G = metric_matrix(_pt(w=1), ModelParams(0.0, 1.0))
    assert G[4, 4] == pytest.approx(1.25, abs=1e-15)
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 20, seed=7)
        G = metric_matrix(pts, p)
        for k in range(pts.shape[0]):
            np.testing.assert_allclose(
                G[k], oracles.metric_oracle(pts[k], p.m, p.l), atol=1e-14
            )
            assert np.all(np.linalg.eigvalsh(G[k]) > 0)


def test_orthonormality():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 100, seed=3)
        F = frame_matrix(pts, p)
        G = metric_matrix(pts, p)
        gram = np.einsum("kma,kmn,knb->kab", F, G, F)
        resid = np.abs(gram - np.eye(7)).max()
        assert resid < 1e-12


# --- frame derivatives -------------------------------------------------------


def test_frame_derivs_match_fd():
    # dC and d2C hold the partials along u_h = coordinate 3 + h only; along
    # r, s and t the central differences of C and dC vanish
    for p in (ModelParams(0.8, -1.1), ModelParams(-0.5, 0.0)):
        pts = sample_domain_points(p, 5, seed=9)
        jet = FrameJet(pts, p)
        dF, dC, d2C = jet.dF, jet.dC, jet.d2C
        assert dC.shape == (5, 4, 7, 7, 7) and d2C.shape == (5, 4, 4, 7, 7, 7)
        for k in range(pts.shape[0]):
            fd = oracles.fd_gradient(
                lambda qq: oracles.frame_oracle(qq, p.m, p.l), pts[k])
            np.testing.assert_allclose(dF[k], fd, atol=1e-9)
            fd = oracles.fd_gradient(lambda qq: structure_constants(qq, p),
                                     pts[k])
            np.testing.assert_allclose(dC[k], fd[3:], atol=1e-9)
            assert np.abs(fd[:3]).max() <= 1e-12
            # fd[e, h] = d_e dC_h, so d2C[h, k] = fd[3 + k, h]
            fd = oracles.fd_gradient(lambda qq: FrameJet(qq, p).dC, pts[k])
            np.testing.assert_allclose(d2C[k], np.swapaxes(fd[3:], 0, 1),
                                       atol=1e-9)
            assert np.abs(fd[:3]).max() <= 1e-12


def test_frame_jet_is_shared_only_for_its_own_params():
    p = ModelParams(0.8, -1.1)
    jet = frame_jet(sample_domain_points(p, 3, seed=2), p)
    assert frame_jet(jet, ModelParams(0.8, -1.1)) is jet
    assert structure_constants(jet, p) is jet.C
    assert jet.dC is jet.dC and not jet.dC.flags.writeable
    with pytest.raises(ValueError):
        frame_jet(jet, ModelParams(0.8, 1.1))
    with pytest.raises(ValueError):
        levi_civita_tensor(jet, ModelParams(0.0, -1.1))


# --- brackets ----------------------------------------------------------------


def test_bracket_antisymmetry_exact():
    p = ModelParams(0.6, 1.7)
    pts = sample_domain_points(p, 10, seed=13)
    c = structure_constants(pts, p)
    np.testing.assert_array_equal(c, -np.swapaxes(c, -3, -2))


def test_bracket_examples():
    p = ModelParams(0.0, 3.0)
    q = _pt(w=0.2, x=-0.4, y=0.1, z=0.3)
    got = bracket_frame(4, 5, q, p)
    np.testing.assert_allclose(got, [-3, 0, 0, 0, 0, 0, 0], atol=1e-13)

    for p2 in PARAM_GRID:
        got = bracket_frame(1, 4, q, p2)
        np.testing.assert_allclose(got, np.zeros(7), atol=1e-14)

    got = bracket_frame(4, 5, _pt(x=1), ModelParams(1.0, 1.0))
    np.testing.assert_allclose(got, [-1, 0, 0, -2, 0, 0, 0], atol=1e-13)


def test_m0_bracket_table():
    # [X4,X5] = -l X1, [X4,X6] = -l X2, [X4,X7] = -l X3,
    # [X5,X6] = -l X3, [X5,X7] = +l X2, [X6,X7] = -l X1
    l = 2.5
    p = ModelParams(0.0, l)
    table = {
        (4, 5): (1, -l),
        (4, 6): (2, -l),
        (4, 7): (3, -l),
        (5, 6): (3, -l),
        (5, 7): (2, l),
        (6, 7): (1, -l),
    }
    pts = sample_domain_points(p, 5, seed=21)
    for (a, b), (comp, val) in table.items():
        got = bracket_frame(a, b, pts, p)
        want = np.zeros(7)
        want[comp - 1] = val
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                                   atol=1e-13)


def test_bracket_matches_fd_oracle():
    p = ModelParams(0.9, 1.4)
    pts = sample_domain_points(p, 4, seed=17)
    for k in range(pts.shape[0]):
        for a in range(1, 8):
            for b in range(a + 1, 8):
                got = bracket_frame(a, b, pts[k], p)
                want = oracles.bracket_oracle(a, b, pts[k], p.m, p.l)
                np.testing.assert_allclose(got, want, atol=1e-8)


# --- Levi-Civita connection in the frame ---------------------------------------


def test_levi_civita_examples():
    q = _pt(w=0.1, y=-0.2)
    for p in PARAM_GRID:
        np.testing.assert_allclose(levi_civita_frame(1, 2, q, p), np.zeros(7),
                                   atol=1e-14)
    got = levi_civita_frame(1, 4, q, ModelParams(0.0, 2.0))
    np.testing.assert_allclose(got, [0, 0, 0, 0, 1, 0, 0], atol=1e-13)
    got = levi_civita_frame(4, 4, _pt(x=1), ModelParams(1.0, 1.0))
    np.testing.assert_allclose(got, [0, 0, 0, 0, 2, 0, 0], atol=1e-13)


def test_connection_metric_compatible_and_torsion_free():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 10, seed=29)
        gfr = levi_civita_tensor(pts, p)
        beta = structure_constants(pts, p)
        sym = gfr + np.einsum("...abc->...acb", gfr)
        assert np.abs(sym).max() < 1e-10
        tor = gfr - np.einsum("...abc->...bac", gfr) - beta
        assert np.abs(tor).max() < 1e-10


def test_m0_connection_table():
    # nabla_{X_i}X_j = 0; the remaining m=0 values are all +/- l/2 entries.
    l = 3.0
    p = ModelParams(0.0, l)
    h = l / 2
    table = {
        (1, 4): {5: h}, (1, 5): {4: -h}, (1, 6): {7: h}, (1, 7): {6: -h},
        (2, 4): {6: h}, (2, 5): {7: -h}, (2, 6): {4: -h}, (2, 7): {5: h},
        (3, 4): {7: h}, (3, 5): {6: h}, (3, 6): {5: -h}, (3, 7): {4: -h},
        (4, 4): {}, (4, 5): {1: -h}, (4, 6): {2: -h}, (4, 7): {3: -h},
        (5, 4): {1: h}, (5, 5): {}, (5, 6): {3: -h}, (5, 7): {2: h},
        (6, 4): {2: h}, (6, 5): {3: h}, (6, 6): {}, (6, 7): {1: -h},
        (7, 4): {3: h}, (7, 5): {2: -h}, (7, 6): {1: h}, (7, 7): {},
    }
    pts = sample_domain_points(p, 5, seed=31)
    for (a, b), entries in table.items():
        got = levi_civita_frame(a, b, pts, p)
        want = np.zeros(7)
        for comp, val in entries.items():
            want[comp - 1] = val
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                                   atol=1e-13)
    for i in range(1, 4):
        for j in range(1, 4):
            got = levi_civita_frame(i, j, pts, p)
            np.testing.assert_allclose(got, np.zeros_like(got), atol=1e-13)
    # mixed pairs symmetric: nabla_{X_i}X_a = nabla_{X_a}X_i
    for i in range(1, 4):
        for a in range(4, 8):
            np.testing.assert_allclose(
                levi_civita_frame(i, a, pts, p),
                levi_civita_frame(a, i, pts, p),
                atol=1e-13,
            )


# --- sampling ----------------------------------------------------------------


def test_sample_domain_points_deterministic_and_in_domain():
    p = ModelParams(-1.5, 1.0)
    a = sample_domain_points(p, 50, seed=42)
    b = sample_domain_points(p, 50, seed=42)
    np.testing.assert_array_equal(a, b)
    K = 1 + p.m * np.sum(a[:, 3:] ** 2, axis=1)
    assert np.all(K > 0.1)
    assert np.abs(a).max() <= 0.5


def test_sample_domain_points_exhaustion():
    with pytest.raises(DomainViolation):
        sample_domain_points(ModelParams(float("nan"), 1.0), 10, seed=1)
    with pytest.raises(DomainViolation):
        sample_domain_points(ModelParams(-1e9, 1.0), 10, seed=1)


def _whole_batch_sample(params, n, seed, box=0.5, k_min=0.1):
    """The sampler's points from whole batches of max(4n, 64) candidates."""
    rng = np.random.default_rng(seed)
    kept = []
    while sum(map(len, kept)) < n:
        pts = rng.uniform(-box, box, size=(max(4 * n, 64), 7))
        K = 1.0 + params.m * np.sum(pts[:, 3:] * pts[:, 3:], axis=-1)
        kept.append(pts[np.isfinite(K) & (K > k_min)])
    return np.concatenate(kept)[:n]


@pytest.mark.parametrize("m, n, seed", [
    (1.0, 1, 0), (0.0, 100, 3), (1.0, 257, 1), (-1.5, 1000, 7),
    (-3.0, 40, 2), (-3.0, 6400, 5),  # m = -3 rejects about half
])
def test_sample_domain_points_do_not_depend_on_the_draw_size(m, n, seed):
    p = ModelParams(m, 1.0)
    np.testing.assert_array_equal(sample_domain_points(p, n, seed),
                                  _whole_batch_sample(p, n, seed))


def test_sample_domain_points_hold_one_draw_beyond_the_result():
    p = ModelParams(1.0, 1.0)
    sample_domain_points(p, 16, seed=0)  # the first call's own allocations

    def beyond_result(n):
        tracemalloc.start()
        try:
            out = sample_domain_points(p, n, seed=0)
            return tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()

    one_draw = beyond_result(_DRAW // 4)  # a single draw of _DRAW rows
    assert beyond_result(6400) <= 2 * one_draw


# --- 3-dimensional base family -------------------------------------------------


def test_bcv_classify_seven_cases():
    cases = {
        (0.0, 0.0): ("Euclidean3", "i"),
        (1.0, 0.0): ("S2xR", "iii"),
        (-1.0, 0.0): ("H2xR", "iv"),
        (0.0, 2.0): ("Nil3", "vii"),
        (1.0, 1.0): ("SU2", "v"),
        (-1.0, 1.0): ("SL2R", "vi"),
        (0.25, 1.0): ("Sphere3", "ii"),
    }
    for (m, l), (label, case) in cases.items():
        got = bcv_classify(m, l)
        assert got == BCVClassification(label, case)


@pytest.mark.parametrize("m, l, label, case", [
    # decimal inputs on 4m = l^2, where l * l rounds
    (0.01, 0.2, "Sphere3", "ii"), (0.0025, 0.1, "Sphere3", "ii"),
    (0.49, 1.4, "Sphere3", "ii"), (0.09, 0.6, "Sphere3", "ii"),
    (1.0, 2.0, "Sphere3", "ii"), (4.0, 4.0, "Sphere3", "ii"),
    (0.25, -1.0, "Sphere3", "ii"),
    # l * l overflows
    (1e300, 2e150, "Sphere3", "ii"),
    (0.5, 2.0, "SU2", "v"), (1.0, 4.0, "SU2", "v"), (1.0, 1e200, "SU2", "v"),
    # l * l underflows to 0 = 4m
    (0.0, 1e-200, "Nil3", "vii"),
])
def test_bcv_classify_case2_variants(m, l, label, case):
    # case (ii) is 4m = l^2 alone; the printed m = l/4 meets it at (0.25, 1)
    assert bcv_classify(m, l) == BCVClassification(label, case)


def test_bcv_classify_takes_only_finite_parameters():
    # no argument selects the printed form of case (ii)
    with pytest.raises(TypeError):
        bcv_classify(0.5, 2.0, case2="printed")
    with pytest.raises(DomainViolation):
        bcv_classify(float("nan"), 1.0)


def _partials(f, x, y, step):
    """The partials of f(x, y) along x, y and z by central differences; f
    does not depend on z."""
    fx = (f(x + step, y) - f(x - step, y)) / (2 * step)
    fy = (f(x, y + step) - f(x, y - step)) / (2 * step)
    return np.stack([fx, fy, np.zeros_like(fx)])


def _bcv_sectional(x, y, params, h=1e-5, H=1e-4):
    """Sectional curvatures of the planes (E1, E2), (E1, E3) and (E2, E3) of
    `bcv_frame` at (x, y), by Koszul's formula on central differences: step
    h for the frame, H for the connection."""

    def frame(x, y):
        return bcv_frame(x, y, params)

    def connection(x, y):
        # c[a, b, c] = <[E_a, E_b], E_c> and G[a, b, c] = <nabla_a E_b, E_c>
        E = frame(x, y)
        DE = np.einsum("ka,kib->abi", E, _partials(frame, x, y, h))
        br = DE - np.einsum("bai->abi", DE)  # [E_a, E_b] in coordinates
        c = np.einsum("ci,abi->abc", np.linalg.inv(E), br)
        G = 0.5 * (c - np.einsum("bca->abc", c) + np.einsum("cab->abc", c))
        return E, c, G

    E, c, G = connection(x, y)
    XG = np.einsum("ke,kabc->eabc", E,
                   _partials(lambda x, y: connection(x, y)[2], x, y, H))
    # <R(E_a, E_b) E_b, E_a>, R(X, Y) = [nabla_X, nabla_Y] - nabla_[X, Y]
    return [XG[a, b, b, a] - XG[b, a, b, a]
            + G[b, b] @ G[a, :, a] - G[a, b] @ G[b, :, a]
            - c[a, b] @ G[:, b, a]
            for a, b in ((0, 1), (0, 2), (1, 2))]


@pytest.mark.parametrize("m, l", [(1.0, 2.0), (0.5, 2.0), (0.25, 1.0),
                                  (-1.0, 1.0)])
def test_bcv_sectional_curvatures_decide_the_sphere_case(m, l):
    # 4m - 3l^2/4, l^2/4 and l^2/4 at every point: the base has constant
    # curvature exactly where 4m = l^2, the sphere case (ii)
    got = np.array([_bcv_sectional(x, y, ModelParams(m, l))
                    for x, y in ((0.0, 0.0), (0.3, -0.2), (-0.1, 0.4))])
    want = [4 * m - 0.75 * l * l, 0.25 * l * l, 0.25 * l * l]
    np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                               rtol=0, atol=1e-6)
    constant = np.ptp(got) <= 1e-6
    assert (bcv_classify(m, l).label == "Sphere3") == constant


def test_bcv_frame_examples():
    np.testing.assert_array_equal(bcv_frame(0.0, 0.0, ModelParams(3.0, 5.0)),
                                  np.eye(3))
    E = bcv_frame(0.0, 1.0, ModelParams(1.0, 2.0))
    np.testing.assert_allclose(E[:, 0], [2, 0, -1], atol=0)
    E = bcv_frame(1.0, 0.0, ModelParams(1.0, 2.0))
    np.testing.assert_allclose(E[:, 1], [0, 2, 1], atol=0)
    with pytest.raises(DomainViolation):
        bcv_frame(1.0, 1.0, ModelParams(-1.0, 0.0))
