"""Arithmetic on quaternion arrays for the closed-form horizontal geodesics.

The closed-form geodesic solver works in the quaternion model of the
horizontal plane: a point (w, x, y, z) is packed as w + i x + j y + k z.
This module provides vectorized helpers operating on ``(..., 4)`` float
arrays (component order w, x, y, z) used by the quadrature loops.

The only transcendental needed is the exponential of an *imaginary*
quaternion v, computed as ``exp(v) = cos|v| + (v/|v|) sin|v|`` with a power
series for ``sin|v|/|v|`` when ``|v|`` is tiny, so the result is smooth
through v = 0.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "qmul",
    "qconj",
    "exp_imaginary",
]

#: below this modulus the sin(n)/n factor switches to its Taylor series
_EXP_SERIES_CUTOFF = 1e-8


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
    Taylor expansion 1 - |v|^2/6 + |v|^4/120 to avoid the 0/0.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != 3:
        raise ValueError("imaginary quaternion needs a 3-component vector part")
    n = np.sqrt(np.sum(vec * vec, axis=-1))
    small = n < _EXP_SERIES_CUTOFF
    # evaluate sin(n)/n safely on both branches, then select
    n_safe = np.where(small, 1.0, n)
    sinc = np.where(small, 1.0 - n * n / 6.0 + n**4 / 120.0, np.sin(n_safe) / n_safe)
    out = np.empty(vec.shape[:-1] + (4,))
    out[..., 0] = np.cos(n)
    out[..., 1:] = sinc[..., None] * vec
    return out
