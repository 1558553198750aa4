"""Killing vector fields: residual evaluation and the m=0 closed-form family.

A candidate field is given by seven polynomial coefficient functions
f_1..f_7 of (r,s,t,w,x,y,z), representing X = sum_a f_a X_a in the
orthonormal frame.  Polynomials differentiate exactly, so the Killing
residual

    A[a, b] = X_a(f_b) + X_b(f_a) + sum_g f_g (Gfr[a,g,b] + Gfr[b,g,a])

(the frame components of the Lie derivative of the metric) carries no
finite-difference error.  `pde_residuals` evaluates the equivalent system
of 28 first-order PDEs in its published general-m form; the two
formulations vanish on exactly the same fields.

For m = 0 the space of Killing fields is 13-dimensional with closed-form
polynomial coefficients; `killing_basis_m0` materializes the basis obtained
by switching on one parameter at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import Iterable, Mapping

import numpy as np

from .errors import InsufficientSamples, MalformedFieldInput
from .frames import ModelParams, _as_points, _check_frame_index, frame_jet

__all__ = [
    "Poly",
    "PolyVectorField",
    "KillingParamsM0",
    "PARAM_NAMES_M0",
    "killing_residual",
    "pde_residuals",
    "field_from_params",
    "killing_basis_m0",
    "basis_rank",
    "coordinate_components",
    "coordinate_bracket",
    "frame_unit_field",
    "KILLING_THRESHOLD",
]

COORD_NAMES = ("r", "s", "t", "w", "x", "y", "z")

#: A field is Killing when its max |residual| is at most this times |l|: a
#: basis field's residual reads 0 (at most ~2e-16 |l|), a horizontal frame
#: field's exactly |l|.
KILLING_THRESHOLD = 1e-8

#: exponent index of each coordinate
R, S, T, W, X, Y, Z = range(7)

_ZERO_EXPO = (0,) * 7


class Poly:
    """Sparse polynomial in the seven coordinates.

    Stored as a mapping from exponent tuples (e_r, e_s, e_t, e_w, e_x,
    e_y, e_z) to real coefficients.  Supports +, -, *, scalar mixing,
    partial derivatives, and vectorized evaluation on point arrays.  The
    partials are exact (exponents are integers); the coefficient arithmetic
    is IEEE double.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, float] | None = None):
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                c = float(coeff)
                if c != 0.0:
                    clean[tuple(int(e) for e in expo)] = (
                        clean.get(tuple(expo), 0.0) + c
                    )
        self.terms = {e: c for e, c in clean.items() if c != 0.0}

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(value: float) -> "Poly":
        return Poly({_ZERO_EXPO: float(value)})

    @staticmethod
    def var(index: int) -> "Poly":
        expo = [0] * 7
        expo[index] = 1
        return Poly({tuple(expo): 1.0})

    # -- ring operations ----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, float)):
            return Poly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0.0) + coeff
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0.0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus and evaluation ---------------------------------------
    def partial(self, index: int) -> "Poly":
        out = {}
        for expo, coeff in self.terms.items():
            if expo[index] == 0:
                continue
            lowered = list(expo)
            lowered[index] -= 1
            out[tuple(lowered)] = coeff * expo[index]
        return Poly(out)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __call__(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        result = np.zeros(q.shape[:-1])
        for expo, coeff in self.terms.items():
            term = np.full(q.shape[:-1], coeff)
            for i, e in enumerate(expo):
                if e:
                    term = term * q[..., i] ** e
            result = result + term
        return result

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[expo]
            mono = "".join(
                f"{COORD_NAMES[i]}^{e}" if e > 1 else COORD_NAMES[i]
                for i, e in enumerate(expo)
                if e
            )
            parts.append(f"{coeff:+g}{('*' + mono) if mono else ''}")
        return f"Poly({' '.join(parts)})"


def _validate_mapping(data, where: str) -> Poly:
    """Convert an exponent->coefficient mapping into a Poly, strictly."""
    if isinstance(data, Poly):
        terms = data.terms
    elif isinstance(data, Mapping):
        terms = {}
        for key, coeff in data.items():
            if isinstance(key, str):
                try:
                    expo = tuple(int(p) for p in key.split(","))
                except ValueError as exc:
                    raise MalformedFieldInput(
                        f"{where}: exponent key {key!r} is not a "
                        "comma-separated integer tuple"
                    ) from exc
            else:
                expo = tuple(key)
            if len(expo) != 7 or any(
                (not isinstance(e, (int, np.integer))) or e < 0 for e in expo
            ):
                raise MalformedFieldInput(
                    f"{where}: exponent tuple {expo!r} must hold 7 "
                    "non-negative integers"
                )
            try:
                value = float(coeff)
            except (TypeError, ValueError) as exc:
                raise MalformedFieldInput(
                    f"{where}: coefficient {coeff!r} is not a real number"
                ) from exc
            if not math.isfinite(value):
                raise MalformedFieldInput(
                    f"{where}: coefficient for {expo!r} is not finite"
                )
            terms[expo] = value
    else:
        raise MalformedFieldInput(
            f"{where}: expected a Poly or exponent->coefficient mapping, "
            f"got {type(data).__name__}"
        )
    return Poly(terms)


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field sum_a f_a X_a with polynomial frame coefficients."""

    components: tuple

    def __init__(self, components: Iterable):
        comps = list(components)
        if len(comps) != 7:
            raise MalformedFieldInput(
                f"a field needs exactly 7 coefficient functions, got {len(comps)}"
            )
        comps = [
            _validate_mapping(c, f"component e{i + 1}")
            for i, c in enumerate(comps)
        ]
        object.__setattr__(self, "components", tuple(comps))

    # -- evaluation ----------------------------------------------------
    def coeff_values(self, q) -> np.ndarray:
        """f_a(q) stacked on the last axis, shape (..., 7)."""
        q = _as_points(q)
        return np.stack([f(q) for f in self.components], axis=-1)

    def coeff_partials(self, q) -> np.ndarray:
        """d f_a / d coordinate mu, shape (..., mu, a)."""
        q = _as_points(q)
        cols = []
        for f in self.components:
            cols.append(
                np.stack([f.partial(mu)(q) for mu in range(7)], axis=-1)
            )
        return np.stack(cols, axis=-1)

    def max_degree(self) -> int:
        return max(f.degree() for f in self.components)

    # -- serialization ---------------------------------------------------
    def to_json_dict(self) -> dict:
        out = {}
        for i, f in enumerate(self.components):
            out[f"e{i + 1}"] = {
                ",".join(str(e) for e in expo): coeff
                for expo, coeff in sorted(f.terms.items())
            }
        return out

    @classmethod
    def from_json_dict(cls, data) -> "PolyVectorField":
        if not isinstance(data, Mapping):
            raise MalformedFieldInput(
                f"field document must be a mapping, got {type(data).__name__}"
            )
        expected = {f"e{i}" for i in range(1, 8)}
        if set(data) != expected:
            raise MalformedFieldInput(
                "field document must have exactly the keys e1..e7, got "
                f"{sorted(data)}"
            )
        return cls([data[f"e{i}"] for i in range(1, 8)])


def frame_unit_field(index: int) -> PolyVectorField:
    """The basic frame field X_index (1-based) as a PolyVectorField."""
    _check_frame_index(index)
    comps = [Poly.zero()] * 7
    comps[index - 1] = Poly.const(1.0)
    return PolyVectorField(comps)


def killing_residual(
    field: PolyVectorField, q, params: ModelParams
) -> np.ndarray:
    """Frame components of the Lie derivative of the metric along the field.

    Returns the symmetric matrix A[a, b] = <nabla_{X_a} X, X_b> +
    <nabla_{X_b} X, X_a>; identically zero iff the field is Killing.
    """
    fr = frame_jet(q, params)
    fvals = field.coeff_values(fr.q)
    dvals = field.coeff_partials(fr.q)  # (..., mu, a)
    directional = np.einsum("...ma,...mb->...ab", fr.F, dvals)
    algebraic = np.einsum("...agb,...g->...ab", fr.gamma, fvals)
    half = directional + algebraic
    return half + np.einsum("...ab->...ba", half)


def pde_residuals(field: PolyVectorField, q, params: ModelParams) -> np.ndarray:
    """The 28 published first-order Killing equations, shape (..., 28).

    Stored once in the general-m form; the m = 0 specialization follows by
    substitution.  The equations assume the diagonal relations (numbers
    1-3) when simplifying later rows, so individual residuals of the two
    formulations differ on non-Killing fields while their zero sets agree.
    One printed sign is corrected: the (l z/2) d f_2/dr term of equation 13
    is positive, as required by the frame expansion of X_6, by the m = 0
    specialization, and by the closed-form m = 0 solution.
    """
    fr = frame_jet(q, params)
    q, K = fr.q, fr.K
    m, l = params.m, params.l
    w, x, y, z = q[..., 3], q[..., 4], q[..., 5], q[..., 6]
    f = field.coeff_values(q)
    d = field.coeff_partials(q)  # (..., mu, a)

    def df(alpha, mu):
        return d[..., mu, alpha - 1]

    def fc(alpha):
        return f[..., alpha - 1]

    hl = l / 2.0
    eqs = [
        # 1-6: vertical-vertical pairs
        df(1, R),
        df(2, S),
        df(3, T),
        df(2, R) + df(1, S),
        df(3, R) + df(1, T),
        df(3, S) + df(2, T),
        # 7-10: pairs (1, a)
        df(4, R) + K * df(1, W) + hl * y * df(1, S) + hl * z * df(1, T)
        - l * (1 + m * (y**2 + z**2)) * fc(5)
        - m * l * (w * z - x * y) * fc(6)
        + m * l * (w * y + x * z) * fc(7),
        df(5, R) + K * df(1, X) - hl * z * df(1, S) + hl * y * df(1, T)
        + l * (1 + m * (y**2 + z**2)) * fc(4)
        - m * l * (w * y + x * z) * fc(6)
        - m * l * (w * z - x * y) * fc(7),
        df(6, R) + K * df(1, Y) - hl * w * df(1, S) - hl * x * df(1, T)
        + m * l * (w * z - x * y) * fc(4)
        + m * l * (w * y + x * z) * fc(5)
        - l * (1 + m * (w**2 + x**2)) * fc(7),
        df(7, R) + K * df(1, Z) + hl * x * df(1, S) - hl * w * df(1, T)
        - m * l * (w * y + x * z) * fc(4)
        + m * l * (w * z - x * y) * fc(5)
        + l * (1 + m * (w**2 + x**2)) * fc(6),
        # 11-14: pairs (2, a)
        df(4, S) + K * df(2, W) + hl * x * df(2, R) + hl * z * df(2, T)
        + m * l * (w * z + x * y) * fc(5)
        - l * (1 + m * (x**2 + z**2)) * fc(6)
        - m * l * (w * x - y * z) * fc(7),
        df(5, S) + K * df(2, X) - hl * w * df(2, R) + hl * y * df(2, T)
        - m * l * (w * z + x * y) * fc(4)
        + m * l * (w * x - y * z) * fc(6)
        + l * (1 + m * (w**2 + y**2)) * fc(7),
        df(6, S) + K * df(2, Y) + hl * z * df(2, R) - hl * x * df(2, T)
        + l * (1 + m * (x**2 + z**2)) * fc(4)
        - m * l * (w * x - y * z) * fc(5)
        - m * l * (w * z + x * y) * fc(7),
        df(7, S) + K * df(2, Z) - hl * y * df(2, R) - hl * w * df(2, T)
        + m * l * (w * x - y * z) * fc(4)
        - l * (1 + m * (w**2 + y**2)) * fc(5)
        + m * l * (w * z + x * y) * fc(6),
        # 15-18: pairs (3, a)
        df(4, T) + K * df(3, W) + hl * x * df(3, R) + hl * y * df(3, S)
        + m * l * (w * y - x * z) * fc(5)
        + m * l * (w * x + y * z) * fc(6)
        - l * (1 + m * (x**2 + y**2)) * fc(7),
        df(5, T) + K * df(3, X) - hl * w * df(3, R) - hl * z * df(3, S)
        + m * l * (w * y - x * z) * fc(4)
        - l * (1 + m * (w**2 + z**2)) * fc(6)
        + m * l * (w * x + y * z) * fc(7),
        df(6, T) + K * df(3, Y) + hl * z * df(3, R) - hl * w * df(3, S)
        - m * l * (w * x + y * z) * fc(4)
        + l * (1 + m * (w**2 + z**2)) * fc(5)
        + m * l * (w * y - x * z) * fc(7),
        df(7, T) + K * df(3, Z) - hl * y * df(3, R) + hl * x * df(3, S)
        + l * (1 + m * (x**2 + y**2)) * fc(4)
        - m * l * (w * x + y * z) * fc(5)
        - m * l * (w * y - x * z) * fc(6),
        # 19-28: horizontal pairs
        K * df(4, W) + hl * x * df(4, R) + hl * y * df(4, S) + hl * z * df(4, T)
        - 2 * m * x * fc(5) - 2 * m * y * fc(6) - 2 * m * z * fc(7),
        K * df(5, W) + hl * x * df(5, R) + hl * y * df(5, S) + hl * z * df(5, T)
        + K * df(4, X) - hl * w * df(4, R) - hl * z * df(4, S) + hl * y * df(4, T)
        + 2 * m * x * fc(4) + 2 * m * w * fc(5),
        K * df(6, W) + hl * x * df(6, R) + hl * y * df(6, S) + hl * z * df(6, T)
        + K * df(4, Y) + hl * z * df(4, R) - hl * w * df(4, S) - hl * x * df(4, T)
        + 2 * m * y * fc(4) + 2 * m * w * fc(6),
        K * df(7, W) + hl * x * df(7, R) + hl * y * df(7, S) + hl * z * df(7, T)
        + K * df(4, Z) - hl * y * df(4, R) + hl * x * df(4, S) - hl * w * df(4, T)
        + 2 * m * z * fc(4) + 2 * m * w * fc(7),
        K * df(5, X) - hl * w * df(5, R) - hl * z * df(5, S) + hl * y * df(5, T)
        - 2 * m * w * fc(4) - 2 * m * y * fc(6) - 2 * m * z * fc(7),
        K * df(6, X) - hl * w * df(6, R) - hl * z * df(6, S) + hl * y * df(6, T)
        + K * df(5, Y) + hl * z * df(5, R) - hl * w * df(5, S) - hl * x * df(5, T)
        + 2 * m * y * fc(5) + 2 * m * x * fc(6),
        K * df(7, X) - hl * w * df(7, R) - hl * z * df(7, S) + hl * y * df(7, T)
        + K * df(5, Z) - hl * y * df(5, R) + hl * x * df(5, S) - hl * w * df(5, T)
        + 2 * m * z * fc(5) + 2 * m * x * fc(7),
        K * df(6, Y) + hl * z * df(6, R) - hl * w * df(6, S) - hl * x * df(6, T)
        - 2 * m * w * fc(4) - 2 * m * x * fc(5) - 2 * m * z * fc(7),
        K * df(7, Y) + hl * z * df(7, R) - hl * w * df(7, S) - hl * x * df(7, T)
        + K * df(6, Z) - hl * y * df(6, R) + hl * x * df(6, S) - hl * w * df(6, T)
        + 2 * m * z * fc(6) + 2 * m * y * fc(7),
        K * df(7, Z) - hl * y * df(7, R) + hl * x * df(7, S) - hl * w * df(7, T)
        - 2 * m * w * fc(4) - 2 * m * x * fc(5) - 2 * m * y * fc(6),
    ]
    return np.stack(eqs, axis=-1)


@dataclass(frozen=True)
class KillingParamsM0:
    """Parameters of the closed-form m=0 Killing family."""

    M: float = 0.0
    N: float = 0.0
    P: float = 0.0
    Q: float = 0.0
    R: float = 0.0
    S: float = 0.0
    T: float = 0.0
    U: float = 0.0
    V: float = 0.0
    W: float = 0.0
    C1: float = 0.0
    C2: float = 0.0
    C3: float = 0.0


PARAM_NAMES_M0 = tuple(f.name for f in dataclass_fields(KillingParamsM0))


def field_from_params(kp: KillingParamsM0, l: float) -> PolyVectorField:
    """The m=0 Killing field with the given parameters (closed form)."""
    r, s, t = Poly.var(R), Poly.var(S), Poly.var(T)
    w, x, y, z = Poly.var(W), Poly.var(X), Poly.var(Y), Poly.var(Z)
    hl = l / 2.0
    M, N, P, Q = kp.M, kp.N, kp.P, kp.Q
    Rp, Sp, Tp, U = kp.R, kp.S, kp.T, kp.U
    V, Wp = kp.V, kp.W

    f1 = (
        (P + Rp) * s
        + (Sp - N) * t
        + hl
        * (
            -M * (w * w + x * x)
            - U * (y * y + z * z)
            + (Rp - P) * (w * y + x * z)
            + (N + Sp) * (w * z - x * y)
            + 2 * Tp * w
            - 2 * Q * x
            + 2 * Wp * y
            - 2 * V * z
        )
        + kp.C1
    )
    f2 = (
        -(P + Rp) * r
        + (M + U) * t
        - hl
        * (
            N * (w * w + y * y)
            - Sp * (x * x + z * z)
            + (Rp - P) * (w * x - y * z)
            + (M - U) * (w * z + x * y)
            - 2 * V * w
            + 2 * Wp * x
            + 2 * Q * y
            - 2 * Tp * z
        )
        + kp.C2
    )
    f3 = (
        -(Sp - N) * r
        - (M + U) * s
        - hl
        * (
            P * (w * w + z * z)
            + Rp * (x * x + y * y)
            + (N + Sp) * (w * x + y * z)
            + (U - M) * (w * y - x * z)
            - 2 * Wp * w
            - 2 * V * x
            + 2 * Tp * y
            + 2 * Q * z
        )
        + kp.C3
    )
    f4 = M * x + N * y + P * z + Poly.const(Q)
    f5 = -M * w + Rp * y + Sp * z + Poly.const(Tp)
    f6 = -N * w - Rp * x + U * z + Poly.const(V)
    f7 = -P * w - Sp * x - U * y + Poly.const(Wp)
    return PolyVectorField([f1, f2, f3, f4, f5, f6, f7])


def killing_basis_m0(l: float) -> list:
    """13 basis fields: each parameter switched on alone (order M..W,C1..C3)."""
    basis = []
    for name in PARAM_NAMES_M0:
        basis.append(field_from_params(KillingParamsM0(**{name: 1.0}), l))
    return basis


def basis_rank(basis, points) -> int:
    """Numerical rank of the point-evaluation matrix of the given fields.

    Each row holds the 7 frame coefficients of one field at every sample
    point.  Issues an InsufficientSamples warning (and still returns the
    rank) when fewer than 13 scalar columns are available.
    """
    pts = _as_points(np.atleast_2d(np.asarray(points, dtype=float)))
    rows = [field.coeff_values(pts).reshape(-1) for field in basis]
    matrix = np.stack(rows, axis=0)
    if matrix.shape[1] < 13:
        import warnings

        warnings.warn(
            f"only {matrix.shape[1]} evaluation columns for "
            f"{len(rows)} fields; rank is a lower bound",
            InsufficientSamples,
            stacklevel=2,
        )
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-8 * sv[0]))


def _frame_columns_poly(m: float, l: float) -> list:
    """Frame fields X_a as polynomial coordinate components (columns)."""
    u = [Poly.var(W), Poly.var(X), Poly.var(Y), Poly.var(Z)]
    K = Poly.const(1.0) + m * (
        u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + u[3] * u[3]
    )
    from .frames import J_TWIST

    cols = []
    for i in range(3):
        col = [Poly.zero()] * 7
        col[i] = Poly.const(1.0)
        cols.append(col)
    for a in range(4):
        col = [Poly.zero()] * 7
        for i in range(3):
            acc = Poly.zero()
            for b in range(4):
                j = J_TWIST[i, a, b]
                if j:
                    acc = acc + j * u[b]
            col[i] = (l / 2.0) * acc
        col[3 + a] = K
        cols.append(col)
    return cols


def coordinate_components(field: PolyVectorField, params: ModelParams) -> list:
    """Coordinate components V^mu of the field as 7 polynomials."""
    cols = _frame_columns_poly(params.m, params.l)
    out = []
    for mu in range(7):
        acc = Poly.zero()
        for a in range(7):
            acc = acc + field.components[a] * cols[a][mu]
        out.append(acc)
    return out


def coordinate_bracket(
    a: PolyVectorField, b: PolyVectorField, l: float
) -> PolyVectorField:
    """Lie bracket [a, b] re-expressed in the frame (m = 0 only).

    At m = 0 the coframe is polynomial, so the bracket of two polynomial
    fields has polynomial frame coefficients of higher degree.
    """
    params = ModelParams(0.0, l)
    va = coordinate_components(a, params)
    vb = coordinate_components(b, params)
    bracket = []
    for mu in range(7):
        acc = Poly.zero()
        for nu in range(7):
            acc = acc + va[nu] * vb[mu].partial(nu) - vb[nu] * va[mu].partial(nu)
        bracket.append(acc)
    # frame coefficients via the (polynomial) m=0 coframe rows
    from .frames import J_TWIST

    u = [Poly.var(W), Poly.var(X), Poly.var(Y), Poly.var(Z)]
    comps = []
    for i in range(3):
        acc = bracket[i]
        for a4 in range(4):
            coeff = Poly.zero()
            for b4 in range(4):
                j = J_TWIST[i, a4, b4]
                if j:
                    coeff = coeff + j * u[b4]
            acc = acc - (l / 2.0) * coeff * bracket[3 + a4]
        comps.append(acc)
    for a4 in range(4):
        comps.append(bracket[3 + a4])
    return PolyVectorField(comps)
