from __future__ import annotations

import numpy as np
import pytest

import oracles
from ebcv.frames import ModelParams, levi_civita_tensor, sample_domain_points
from ebcv.curvature import (
    christoffel,
    curvature_bundle,
    gamma_frame_coordinate,
    metric_taylor,
    nabla_riemann_frame,
    ricci_frame,
    riemann_frame,
    scalar_curvature,
)

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


# --- metric Taylor data -------------------------------------------------------


def test_metric_taylor_matches_fd():
    p = ModelParams(0.8, -1.1)
    pts = sample_domain_points(p, 4, seed=2)
    mt = metric_taylor(pts, p)
    for k in range(pts.shape[0]):
        np.testing.assert_allclose(mt.g[k], oracles.metric_oracle(pts[k], p.m, p.l),
                                   atol=1e-14)
        fd1 = oracles.fd_metric_derivs(pts[k], p.m, p.l)
        np.testing.assert_allclose(mt.dg[k], fd1, atol=1e-9)
        fd2 = oracles.fd_gradient(
            lambda qq: oracles.fd_metric_derivs(qq, p.m, p.l, h=1e-4),
            pts[k], h=1e-4)
        np.testing.assert_allclose(mt.d2g[k], fd2, atol=1e-5)


def test_metric_taylor_symmetry():
    p = ModelParams(0.5, 1.5)
    pts = sample_domain_points(p, 6, seed=8)
    mt = metric_taylor(pts, p)
    np.testing.assert_array_equal(mt.d2g, np.einsum("...efmn->...femn", mt.d2g))
    np.testing.assert_array_equal(mt.d3g, np.einsum("...efgmn->...gefmn", mt.d3g))
    np.testing.assert_array_equal(mt.g, np.einsum("...mn->...nm", mt.g))


# --- Christoffel symbols ------------------------------------------------------


def test_christoffel_matches_fd_oracle():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 5, seed=12)
        gam = christoffel(pts, p)
        for k in range(pts.shape[0]):
            want = oracles.christoffel_oracle(pts[k], p.m, p.l)
            np.testing.assert_allclose(gam[k], want, atol=1e-6)


def test_gamma_frame_two_routes_agree():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 8, seed=14)
        koszul = levi_civita_tensor(pts, p)
        coord = gamma_frame_coordinate(pts, p)
        assert np.abs(koszul - coord).max() < 1e-12


# --- curvature ----------------------------------------------------------------


def test_riemann_examples():
    R = riemann_frame(_pt(), ModelParams(0.0, 2.0))
    assert R[0, 3, 0, 3] == pytest.approx(1.0, abs=1e-9)
    assert R[5, 6, 5, 6] == pytest.approx(-3.0, abs=1e-9)
    R = riemann_frame(_pt(y=1), ModelParams(1.0, 1.0))
    assert R[0, 3, 0, 3] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("m,l", [(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (-0.5, 1.0)])
def test_riemann_frame_equals_bundle_riemann_exactly(m, l):
    # riemann_frame stops before the third partials; its R must be the
    # bundle's R bit for bit, since verify reads R from the bundle
    p = ModelParams(m, l)
    pts = sample_domain_points(p, 6, seed=21)
    assert np.array_equal(riemann_frame(pts, p), curvature_bundle(pts, p).riemann)


def test_riemann_symmetries_and_first_bianchi():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 10, seed=19)
        R = riemann_frame(pts, p)
        assert np.abs(R + np.einsum("...abcd->...bacd", R)).max() < 1e-8
        assert np.abs(R + np.einsum("...abcd->...abdc", R)).max() < 1e-8
        assert np.abs(R - np.einsum("...abcd->...cdab", R)).max() < 1e-8
        # first Bianchi: cyclic sum over the slots dual to (sigma, mu, nu)
        bianchi = (
            R
            + np.einsum("...bdca->...abcd", R)
            + np.einsum("...dacb->...abcd", R)
        )
        assert np.abs(bianchi).max() < 1e-8


def test_riemann_flat_case():
    p = ModelParams(0.0, 0.0)
    pts = sample_domain_points(p, 10, seed=23)
    assert np.abs(riemann_frame(pts, p)).max() < 1e-12


def test_riemann_matches_fd_oracle():
    p = ModelParams(0.9, 1.4)
    pts = sample_domain_points(p, 3, seed=27)
    R = riemann_frame(pts, p)
    for k in range(pts.shape[0]):
        want = oracles.riemann_oracle(pts[k], p.m, p.l)
        np.testing.assert_allclose(R[k], want, atol=2e-4)


def _k_of(q, m):
    return 1.0 + m * np.sum(q[3:] ** 2)


def test_published_sectional_table():
    """The twelve displayed curvature identities hold for the computed tensor."""
    for p in [ModelParams(0.0, 1.0), ModelParams(1.0, 1.0), ModelParams(-0.5, 2.0)]:
        pts = sample_domain_points(p, 10, seed=31)
        R = riemann_frame(pts, p)
        m, l = p.m, p.l
        for k in range(pts.shape[0]):
            r_, s_, t_, w, x, y, z = pts[k]
            K = _k_of(pts[k], m)
            quarter = l * l / 4.0
            vals = {
                (1, 4): quarter * (1 + m * (K + 1) * (y * y + z * z)),
                (1, 5): quarter * (1 + m * (K + 1) * (y * y + z * z)),
                (1, 6): quarter * (1 + m * (K + 1) * (w * w + x * x)),
                (1, 7): quarter * (1 + m * (K + 1) * (w * w + x * x)),
                (2, 4): quarter * (1 + m * (K + 1) * (x * x + z * z)),
                (2, 6): quarter * (1 + m * (K + 1) * (x * x + z * z)),
                (2, 5): quarter * (1 + m * (K + 1) * (w * w + y * y)),
                (2, 7): quarter * (1 + m * (K + 1) * (w * w + y * y)),
                (3, 4): quarter * (1 + m * (K + 1) * (x * x + y * y)),
                (3, 7): quarter * (1 + m * (K + 1) * (x * x + y * y)),
                (3, 5): quarter * (1 + m * (K + 1) * (w * w + z * z)),
                (3, 6): quarter * (1 + m * (K + 1) * (w * w + z * z)),
            }
            for (a, b), want in vals.items():
                got = R[k, a - 1, b - 1, a - 1, b - 1]
                assert got == pytest.approx(want, abs=1e-9), (a, b)
            horiz = {
                (4, 5): 4 * m - 3 * vals[(1, 4)],
                (4, 6): 4 * m - 3 * vals[(2, 4)],
                (4, 7): 4 * m - 3 * vals[(3, 4)],
                (5, 6): 4 * m - 3 * vals[(3, 5)],
                (5, 7): 4 * m - 3 * vals[(2, 5)],
                (6, 7): 4 * m - 3 * vals[(1, 6)],
            }
            for (a, b), want in horiz.items():
                got = R[k, a - 1, b - 1, a - 1, b - 1]
                assert got == pytest.approx(want, abs=1e-9), (a, b)


# --- Ricci and scalar ----------------------------------------------------------


def test_ricci_m0_diagonal():
    l = 2.0
    p = ModelParams(0.0, l)
    pts = sample_domain_points(p, 10, seed=33)
    ric = ricci_frame(pts, p)
    want = np.diag([l * l] * 3 + [-1.5 * l * l] * 4)
    np.testing.assert_allclose(ric, np.broadcast_to(want, ric.shape), atol=1e-9)


def test_ricci_examples():
    ric = ricci_frame(_pt(x=1), ModelParams(1.0, 1.0))
    assert ric[0, 3] == pytest.approx(-4.0, abs=1e-9)
    assert ric[3, 0] == pytest.approx(-4.0, abs=1e-9)
    assert ric[3, 3] == pytest.approx(7.5, abs=1e-9)


def _ricci_published(q, m, l):
    """The displayed 7x7 Ricci matrix, typed entry by entry."""
    r_, s_, t_, w, x, y, z = q
    K = _k_of(q, m)
    A = -l * l * (K + 1)
    B = 12 * m - 1.5 * l * l
    vert = 0.5 * l * l * (K * K + 1)
    mixed = np.array(
        [
            [-m * l * x * (K + 2), -m * l * y * (K + 2), -m * l * z * (K + 2)],
            [m * l * w * (K + 2), m * l * z * (K + 2), -m * l * y * (K + 2)],
            [-m * l * z * (K + 2), m * l * w * (K + 2), m * l * x * (K + 2)],
            [m * l * y * (K + 2), -m * l * x * (K + 2), m * l * w * (K + 2)],
        ]
    )
    horiz = np.empty((4, 4))
    u = (w, x, y, z)
    for i in range(4):
        for j in range(4):
            if i == j:
                horiz[i, j] = A * (K - 1 - m * u[i] ** 2) + B
            else:
                horiz[i, j] = m * l * l * (K + 1) * u[i] * u[j]
    out = np.zeros((7, 7))
    out[:3, :3] = vert * np.eye(3)
    out[3:, :3] = mixed
    out[:3, 3:] = mixed.T
    out[3:, 3:] = horiz
    return out


def test_ricci_matches_published_matrix():
    p = ModelParams(1.0, 1.0)
    pts = sample_domain_points(p, 20, seed=35)
    ric = ricci_frame(pts, p)
    for k in range(pts.shape[0]):
        want = _ricci_published(pts[k], p.m, p.l)
        np.testing.assert_allclose(ric[k], want, atol=1e-8)


def test_scalar_examples():
    assert scalar_curvature(_pt(x=0.4), ModelParams(0.0, 0.0)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert scalar_curvature(_pt(w=0.2), ModelParams(0.0, 1.0)) == pytest.approx(
        -3.0, abs=1e-9
    )
    assert scalar_curvature(_pt(), ModelParams(1.0, 1.0)) == pytest.approx(
        45.0, abs=1e-9
    )


def test_scalar_equals_ricci_trace_and_published_trace():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 10, seed=37)
        scal = scalar_curvature(pts, p)
        tr = np.einsum("...aa->...", ricci_frame(pts, p))
        np.testing.assert_allclose(scal, tr, atol=1e-12)
        # trace of the displayed matrix: 48m - (3/2) l^2 (K^2 + 1)
        K = 1 + p.m * np.sum(pts[:, 3:] ** 2, axis=1)
        want = 48 * p.m - 1.5 * p.l**2 * (K**2 + 1)
        np.testing.assert_allclose(scal, want, atol=1e-8)


# --- covariant derivative of curvature -----------------------------------------


def test_nabla_riemann_second_bianchi():
    for p in [ModelParams(0.0, 1.0), ModelParams(1.0, 1.0), ModelParams(-0.5, 2.0)]:
        pts = sample_domain_points(p, 5, seed=41)
        nab = nabla_riemann_frame(pts, p)
        cyc = (
            nab
            + np.einsum("...abecd->...eabcd", nab)
            + np.einsum("...beacd->...eabcd", nab)
        )
        assert np.abs(cyc).max() < 1e-9


def test_nabla_riemann_matches_fd():
    p = ModelParams(0.6, 1.2)
    pts = sample_domain_points(p, 2, seed=43)
    nab = nabla_riemann_frame(pts, p)
    gfr = levi_civita_tensor(pts, p)
    from ebcv.frames import frame_matrix

    F = frame_matrix(pts, p)
    for k in range(pts.shape[0]):
        dR = oracles.fd_gradient(lambda qq: riemann_frame(qq, p), pts[k], h=1e-5)
        frame_dir = np.einsum("me,mabcd->eabcd", F[k], dR)
        corr = (
            np.einsum("eaf,fbcd->eabcd", gfr[k], riemann_frame(pts[k], p))
            + np.einsum("ebf,afcd->eabcd", gfr[k], riemann_frame(pts[k], p))
            + np.einsum("ecf,abfd->eabcd", gfr[k], riemann_frame(pts[k], p))
            + np.einsum("edf,abcf->eabcd", gfr[k], riemann_frame(pts[k], p))
        )
        np.testing.assert_allclose(nab[k], frame_dir - corr, atol=1e-5)
