"""Forward-mode exact differentiation with truncated multivariate Taylor jets.

A ``Jet`` stores the Taylor coefficients of a smooth function of ``NVARS = 7``
real variables about a base point, truncated at total degree ``ORDER = 2``.
Sums, products and reciprocals of jets propagate the coefficients exactly
(the truncation is exact for derivatives up to second order), so every
partial derivative read off a jet is exact to machine precision — no finite
differencing anywhere.  The metric's second partials are all that the
coordinate curvature route needs.

Coefficients are kept in a flat ``(..., NMONO)`` array ordered by graded
lexicographic monomial order; leading batch axes broadcast through all
operations, which lets callers evaluate a whole grid of points in one pass.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial

import numpy as np

NVARS = 7
ORDER = 2


def _generate_monomials() -> list[tuple[int, ...]]:
    monos: list[tuple[int, ...]] = []
    for degree in range(ORDER + 1):
        for combo in combinations_with_replacement(range(NVARS), degree):
            alpha = [0] * NVARS
            for i in combo:
                alpha[i] += 1
            monos.append(tuple(alpha))
    return monos


MONOMIALS: list[tuple[int, ...]] = _generate_monomials()
NMONO = len(MONOMIALS)
MONO_INDEX: dict[tuple[int, ...], int] = {m: i for i, m in enumerate(MONOMIALS)}


def _build_mul_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pairs: list[tuple[int, int, int]] = []  # (out, a, b)
    for ia, ma in enumerate(MONOMIALS):
        for ib, mb in enumerate(MONOMIALS):
            if sum(ma) + sum(mb) > ORDER:
                continue
            out = MONO_INDEX[tuple(a + b for a, b in zip(ma, mb))]
            pairs.append((out, ia, ib))
    pairs.sort()
    outs = np.array([p[0] for p in pairs], dtype=np.intp)
    # np.add.reduceat segment starts: one segment per distinct output index;
    # every output monomial occurs (the pair (alpha, 0) always exists).
    starts = np.flatnonzero(np.r_[1, np.diff(outs)]).astype(np.intp)
    a_idx = np.array([p[1] for p in pairs], dtype=np.intp)
    b_idx = np.array([p[2] for p in pairs], dtype=np.intp)
    return a_idx, b_idx, starts


_MUL_A, _MUL_B, _MUL_STARTS = _build_mul_table()


def _unit(i: int) -> tuple[int, ...]:
    e = [0] * NVARS
    e[i] = 1
    return tuple(e)


_IDX1 = np.array([MONO_INDEX[_unit(i)] for i in range(NVARS)], dtype=np.intp)

_IDX2 = np.empty((NVARS, NVARS), dtype=np.intp)
_FACT2 = np.empty((NVARS, NVARS))
for _i in range(NVARS):
    for _j in range(NVARS):
        _alpha = [0] * NVARS
        _alpha[_i] += 1
        _alpha[_j] += 1
        _IDX2[_i, _j] = MONO_INDEX[tuple(_alpha)]
        _FACT2[_i, _j] = float(np.prod([factorial(a) for a in _alpha]))


class Jet:
    """Truncated Taylor expansion of a function of 7 variables (degree <= 2)."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, dtype=float)

    # -- constructors -----------------------------------------------------
    @classmethod
    def variable(cls, i: int, value) -> "Jet":
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (NMONO,))
        c[..., 0] = value
        c[..., _IDX1[i]] = 1.0
        return cls(c)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        c = self.c.copy()
        c[..., 0] += other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(-self.c)

    def __sub__(self, other) -> "Jet":
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            prod = self.c[..., _MUL_A] * other.c[..., _MUL_B]
            return Jet(np.add.reduceat(prod, _MUL_STARTS, axis=-1))
        return Jet(self.c * other)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        a0 = self.c[..., 0]
        if np.any(a0 == 0.0):
            raise ZeroDivisionError("jet with zero value part has no reciprocal")
        u = Jet(self.c / a0[..., None])
        u.c[..., 0] = 0.0  # nilpotent part of self / a0
        # 1/(1 + u) = u^2 - u + 1 exactly through degree ORDER = 2
        series = u * u - u + 1.0
        return Jet(series.c / a0[..., None])

    # -- derivative extraction ----------------------------------------------
    @property
    def value(self) -> np.ndarray:
        return self.c[..., 0]

    def gradient(self) -> np.ndarray:
        """First partials, shape (..., 7)."""
        return self.c[..., _IDX1]

    def hessian(self) -> np.ndarray:
        """Second partials d2f/dxi dxj, shape (..., 7, 7)."""
        return self.c[..., _IDX2] * _FACT2
