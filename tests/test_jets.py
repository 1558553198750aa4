from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcv.jets import NMONO, NVARS, ORDER, Jet


def _vars_at(point):
    return [Jet.variable(i, point[i]) for i in range(NVARS)]


def test_monomial_count():
    # C(7 + 2, 2) monomials of degree <= 2 in 7 variables
    assert NMONO == 36
    assert ORDER == 2


def test_polynomial_value_and_derivatives():
    # f = w^2 x + 3 y z^2 - 5 r + 2, at a concrete point
    point = np.array([0.3, -1.2, 0.7, 0.5, -0.4, 1.1, 0.9])
    r, s, t, w, x, y, z = _vars_at(point)
    f = w * w * x + 3.0 * y * (z * z) - 5.0 * r + 2.0

    pr, ps, pt, pw, px, py, pz = point
    assert f.value == pytest.approx(pw**2 * px + 3 * py * pz**2 - 5 * pr + 2, abs=1e-14)

    grad = f.gradient()
    expected_grad = np.array(
        [-5.0, 0.0, 0.0, 2 * pw * px, pw**2, 3 * pz**2, 6 * py * pz]
    )
    np.testing.assert_allclose(grad, expected_grad, atol=1e-14)

    hess = f.hessian()
    expected_hess = np.zeros((7, 7))
    expected_hess[3, 3] = 2 * px
    expected_hess[3, 4] = expected_hess[4, 3] = 2 * pw
    expected_hess[5, 6] = expected_hess[6, 5] = 6 * pz
    expected_hess[6, 6] = 6 * py
    np.testing.assert_allclose(hess, expected_hess, atol=1e-14)


def test_reciprocal_matches_rational_function():
    # f = 1 / (1 + w^2 + x^2); check against finite differences of the
    # closed-form function.
    point = np.array([0.0, 0.0, 0.0, 0.4, -0.3, 0.0, 0.0])
    _, _, _, w, x, _, _ = _vars_at(point)
    f = (1.0 + w * w + x * x).reciprocal()

    def closed(pt):
        return 1.0 / (1.0 + pt[3] ** 2 + pt[4] ** 2)

    assert f.value == pytest.approx(closed(point), abs=1e-15)

    h = 1e-5
    for i in range(NVARS):
        e = np.zeros(NVARS)
        e[i] = h
        fd = (closed(point + e) - closed(point - e)) / (2 * h)
        assert f.gradient()[i] == pytest.approx(fd, abs=1e-9)
    h = 1e-4  # second-order stencil: roundoff ~eps/h^2 forces a larger step
    for i in range(NVARS):
        for j in range(NVARS):
            ei = np.zeros(NVARS)
            ej = np.zeros(NVARS)
            ei[i] = h
            ej[j] = h
            fd = (
                closed(point + ei + ej)
                - closed(point + ei - ej)
                - closed(point - ei + ej)
                + closed(point - ei - ej)
            ) / (4 * h * h)
            assert f.hessian()[i, j] == pytest.approx(fd, abs=1e-6)


def test_batched_evaluation_matches_scalar():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, size=(5, NVARS))
    batched_vars = [Jet.variable(i, pts[:, i]) for i in range(NVARS)]
    r, s, t, w, x, y, z = batched_vars
    f = (w * x + y) * (1.0 + z * z).reciprocal() - t

    for k in range(5):
        rs, ss, ts, ws, xs, ys, zs = _vars_at(pts[k])
        fk = (ws * xs + ys) * (1.0 + zs * zs).reciprocal() - ts
        np.testing.assert_allclose(f.c[k], fk.c, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=6, max_size=6
    )
)
def test_product_commutes_and_associates(coeffs):
    a1, a2, a3, b1, b2, b3 = coeffs
    point = np.full(NVARS, 0.25)
    v = _vars_at(point)
    f = a1 * v[3] + a2 * v[5] * v[6] + a3
    g = b1 * v[0] + b2 * v[4] * v[4] + b3
    h = v[1] + 0.5

    np.testing.assert_allclose((f * g).c, (g * f).c, atol=1e-12)
    np.testing.assert_allclose(((f * g) * h).c, (f * (g * h)).c, atol=1e-12)
