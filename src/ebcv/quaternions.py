"""Arithmetic on quaternion arrays for the closed-form horizontal geodesics.

The closed-form geodesic solver works in the quaternion model of the
horizontal plane: a point (w, x, y, z) is packed as w + i x + j y + k z.
This module provides vectorized helpers operating on ``(..., 4)`` float
arrays (component order w, x, y, z) used by the closed form.

The transcendentals needed are the exponential of an *imaginary*
quaternion v, computed as ``exp(v) = cos|v| + (v/|v|) sin|v|``, and the
closed form's ``(theta - sin theta)/theta^3``; both quotients switch to a
power series when the modulus is small, so the results are smooth through 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "qmul",
    "qconj",
    "exp_imaginary",
]

#: below this modulus sin(n)/n and (n - sin n)/n^3 switch to their Taylor
#: series, which their first ten terms give to double precision there; above
#: it the direct quotients lose at most a few ulps to cancellation
_SERIES_CUTOFF = 1.0


def _sine_quotient(n: np.ndarray, first: int) -> np.ndarray:
    """sin(n)/n for ``first`` = 1, (n - sin n)/n^3 for ``first`` = 3.

    Below the series cutoff, the sum over k of (-1)^k n^(2k) / (2k + first)!
    by Horner's rule; so both are smooth through n = 0.
    """
    n = np.asarray(n, dtype=float)
    small = n < _SERIES_CUTOFF
    big = np.where(small, 1.0, n)
    direct = np.sin(big) / big if first == 1 else (big - np.sin(big)) / big**3
    series = np.polyval(
        [(-1) ** k / math.factorial(2 * k + first) for k in range(9, -1, -1)], n * n
    )
    return np.where(small, series, direct)


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays, broadcasting over leading axes.

    Components are ordered (w, x, y, z) = (real, i, j, k), with
    i*j = k, j*k = i, k*i = j.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a: np.ndarray) -> np.ndarray:
    """The quaternion conjugate: flips the sign of the i, j, k components."""
    a = np.asarray(a, dtype=float)
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def exp_imaginary(vec: np.ndarray) -> np.ndarray:
    """exp of the imaginary quaternion with vector part ``vec`` (..., 3).

    Returns the unit quaternion cos|v| + (v/|v|) sin|v| as a (..., 4) array;
    for |v| below the series cutoff the factor sin|v|/|v| is evaluated by its
    Taylor series to avoid the 0/0.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != 3:
        raise ValueError("imaginary quaternion needs a 3-component vector part")
    n = np.sqrt(np.sum(vec * vec, axis=-1))
    out = np.empty(vec.shape[:-1] + (4,))
    out[..., 0] = np.cos(n)
    out[..., 1:] = _sine_quotient(n, 1)[..., None] * vec
    return out
