"""Orthonormal frame, coframe, metric, brackets, and frame connection.

The model is a two-parameter family of Riemannian metrics on the domain of
R^7 (coordinates ordered ``(r, s, t, w, x, y, z)``) where the conformal
factor ``K = 1 + m(w^2 + x^2 + y^2 + z^2)`` is positive.  The metric is
``sum_a omega^a (x) omega^a`` for the coframe ``omega^1..omega^7`` dual to
the orthonormal frame ``X_1..X_7``:

    X_1 = d_r,  X_2 = d_s,  X_3 = d_t,
    X_4 = K d_w + (l/2)(x d_r + y d_s + z d_t),
    X_5 = K d_x + (l/2)(-w d_r - z d_s + y d_t),
    X_6 = K d_y + (l/2)(z d_r - w d_s - x d_t),
    X_7 = K d_z + (l/2)(-y d_r + x d_s - w d_t).

The three twist blocks are encoded by the matrices ``J_TWIST[i]`` acting on
``u = (w, x, y, z)``; they realize left multiplication patterns of the
imaginary quaternion units on the horizontal coordinates.

All functions accept a single point of shape ``(7,)`` or a batch ``(..., 7)``
and broadcast accordingly.  They also accept a `FrameJet` of the points,
which builds F, its coframe, the structure constants and the Koszul
connection once and shares them between calls.  Derivatives of the frame
coefficients are exact closed forms (every entry is polynomial in the
coordinates), so downstream bracket and connection values carry no
finite-difference error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, InconclusiveClassification

VERTICAL_IDX = (0, 1, 2)
HORIZONTAL_IDX = (3, 4, 5, 6)

# J_TWIST[i][a][b]: coefficient of u_b in the d_{r,s,t}[i]-component of X_{4+a}.
J_TWIST = np.array(
    [
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    ],
    dtype=float,
)


@dataclass(frozen=True)
class ModelParams:
    """The pair (m, l): conformal parameter m and twist parameter l."""

    m: float
    l: float


def _as_points(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 7:
        raise ValueError("points must have 7 coordinates (r,s,t,w,x,y,z)")
    return q


def k_factor(q, params: ModelParams) -> np.ndarray:
    """Conformal factor K = 1 + m(w^2+x^2+y^2+z^2); positive on the chart."""
    q = _as_points(q)
    u2 = np.sum(q[..., 3:] * q[..., 3:], axis=-1)
    K = 1.0 + params.m * u2
    if not np.all(np.isfinite(K)):
        raise DomainViolation("non-finite conformal factor (bad point or parameters)")
    if np.any(K <= 0.0):
        raise DomainViolation("conformal factor K <= 0: point outside the chart")
    return K


def _kept(build):
    """A jet tensor built on first read, then kept read-only."""

    @functools.wraps(build)
    def once(self):
        out = build(self)
        out.flags.writeable = False
        return out

    return functools.cached_property(once)


def _twist_block(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """B[..., i, a] = (l/2) * (J_i u)_a — vertical components of X_{4+a}."""
    u = q[..., 3:]
    return 0.5 * params.l * np.einsum("iab,...b->...ia", J_TWIST, u)


class FrameJet:
    """The frame layer at a point set, each tensor built once.

    The domain is checked once, on construction (K > 0).  ``F``, ``Om``,
    ``dF``, ``C``, ``dC`` and ``gamma`` are built on first use and then kept,
    read-only; ``d2C`` and ``d2F`` are built on every read, so the largest
    derivative tensors are not held.  ``q``, ``params`` and ``K`` hold
    the points, the parameters and the conformal factor.  Pass a jet wherever a
    function takes points ``q`` to share these tensors between calls (see
    `frame_jet`).
    """

    def __init__(self, q, params: ModelParams):
        self.q = _as_points(q)
        self.params = params
        self.K = k_factor(self.q, params)

    def _rows(self, rows: slice) -> "FrameJet":
        """The jet of some rows of the flattened points, for evaluating in
        chunks: q, K and every tensor this jet has built so far are shared
        as slices of the same rows, not rebuilt (nor is the domain checked
        again)."""
        batch_ndim = self.q.ndim - 1
        sub = object.__new__(FrameJet)
        sub.params = self.params
        for name, t in vars(self).items():
            if isinstance(t, np.ndarray):
                vars(sub)[name] = t.reshape((-1,) + t.shape[batch_ndim:])[rows]
        return sub

    @_kept
    def F(self) -> np.ndarray:
        """Frame matrix: column a holds the coordinate components of X_{a+1}."""
        F = np.zeros(self.q.shape[:-1] + (7, 7))
        F[..., :3, :3] = np.eye(3)
        F[..., :3, 3:] = _twist_block(self.q, self.params)
        F[..., 3:, 3:] = self.K[..., None, None] * np.eye(4)
        return F

    @_kept
    def Om(self) -> np.ndarray:
        """Coframe matrix: row a holds the components of omega^{a+1}; F^-1."""
        inv_k = 1.0 / self.K
        Om = np.zeros(self.q.shape[:-1] + (7, 7))
        Om[..., :3, :3] = np.eye(3)
        Om[..., :3, 3:] = (
            -_twist_block(self.q, self.params) * inv_k[..., None, None]
        )
        Om[..., 3:, 3:] = inv_k[..., None, None] * np.eye(4)
        return Om

    @_kept
    def dF(self) -> np.ndarray:
        """Exact partials dF[..., e, mu, a] = d F[mu, a] / d coordinate_e."""
        dF = np.zeros(self.q.shape[:-1] + (7, 7, 7))
        eye4 = np.eye(4)
        for b in range(4):
            dF[..., 3 + b, :3, 3:] = 0.5 * self.params.l * J_TWIST[:, :, b]
            dF[..., 3 + b, 3:, 3:] = (
                2.0 * self.params.m * self.q[..., 3 + b][..., None, None] * eye4
            )
        return dF

    @property
    def d2F(self) -> np.ndarray:
        """Exact second partials d2F[e, f, mu, a].

        Only K contributes, with the constant 2m, so the array has no batch
        axes; it broadcasts against batched operands.
        """
        d2F = np.zeros((7, 7, 7, 7))
        for b in range(4):
            for a in range(4):
                d2F[3 + b, 3 + b, 3 + a, 3 + a] = 2.0 * self.params.m
        return d2F

    @_kept
    def C(self) -> np.ndarray:
        """C[..., a, b, c] with [X_{a+1}, X_{b+1}] = sum_c C[a,b,c] X_{c+1}.

        Computed from exact frame derivatives:
        [X_a, X_b]^mu = X_a^nu d_nu X_b^mu - X_b^nu d_nu X_a^mu,
        then converted to frame components with the coframe.
        """
        V = np.einsum("...na,...nmb->...mab", self.F, self.dF)
        brk = V - np.swapaxes(V, -1, -2)
        return np.einsum("...cm,...mab->...abc", self.Om, brk)

    @_kept
    def dC(self) -> np.ndarray:
        """Exact partials dC[..., e, a, b, c] of the structure constants."""
        F, dF, Om = self.F, self.dF, self.Om
        dOm = -np.einsum("...an,...enm,...mu->...eau", Om, dF, Om)
        V = np.einsum("...na,...nmb->...mab", F, dF)
        brk = V - np.swapaxes(V, -1, -2)
        dV = np.einsum("...ena,...nmb->...emab", dF, dF) + np.einsum(
            "...na,...enmb->...emab", F, self.d2F
        )
        dbrk = dV - np.swapaxes(dV, -1, -2)
        return np.einsum("...ecm,...mab->...eabc", dOm, brk) + np.einsum(
            "...cm,...emab->...eabc", Om, dbrk
        )

    @property
    def d2C(self) -> np.ndarray:
        """Exact second partials d2C[..., e, f, a, b, c] of the structure
        constants: F C = [X_a, X_b] differentiated twice (d3F = 0)."""
        dF, d2F, C, dC = self.dF, self.d2F, self.C, self.dC
        d2V = (
            np.einsum("efna,...nmb->...efmab", d2F, dF, optimize=True)
            + np.einsum("...ena,fnmb->...efmab", dF, d2F, optimize=True)
            + np.einsum("...fna,enmb->...efmab", dF, d2F, optimize=True)
        )
        dFdC = np.einsum("...emc,...fabc->...efmab", dF, dC, optimize=True)
        rhs = (
            d2V - np.swapaxes(d2V, -1, -2)
            - np.einsum("efmc,...abc->...efmab", d2F, C, optimize=True)
            - dFdC - np.swapaxes(dFdC, -5, -4)
        )
        return np.einsum("...cm,...efmab->...efabc", self.Om, rhs,
                         optimize=True)

    @_kept
    def gamma(self) -> np.ndarray:
        """gamma[..., a, b, c] = <nabla_{X_{a+1}} X_{b+1}, X_{c+1}> via Koszul.

        For an orthonormal frame the Koszul formula reduces to
        2<nabla_a b, c> = <[X_a,X_b],X_c> - <[X_b,X_c],X_a> + <[X_c,X_a],X_b>.
        """
        return _koszul(self.C)


def _koszul(C: np.ndarray) -> np.ndarray:
    """The Koszul formula of `FrameJet.gamma` on the last three axes of C.

    It is linear, so on derivatives of C it gives those of gamma.
    """
    return 0.5 * (
        C
        - np.einsum("...bca->...abc", C)
        + np.einsum("...cab->...abc", C)
    )


def frame_jet(q, params: ModelParams) -> FrameJet:
    """The frame jet of q: q itself when it is a jet for params, else a new one.

    Raises ValueError for a jet built for other parameters.
    """
    if isinstance(q, FrameJet):
        if q.params != params:
            raise ValueError(
                f"frame jet built for {q.params}, not for {params}"
            )
        return q
    return FrameJet(q, params)


def frame_matrix(q, params: ModelParams) -> np.ndarray:
    """Frame matrix F: `FrameJet.F` of the points q."""
    return frame_jet(q, params).F


def coframe_matrix(q, params: ModelParams) -> np.ndarray:
    """Coframe matrix: `FrameJet.Om` of the points q."""
    return frame_jet(q, params).Om


def metric_matrix(q, params: ModelParams) -> np.ndarray:
    """Metric G = Om^T Om, i.e. sum_a omega^a (x) omega^a; F^T G F = identity."""
    Om = coframe_matrix(q, params)
    return np.einsum("...am,...an->...mn", Om, Om)


def structure_constants(q, params: ModelParams) -> np.ndarray:
    """Structure constants: `FrameJet.C` of the points q."""
    return frame_jet(q, params).C


def bracket_frame(a: int, b: int, q, params: ModelParams) -> np.ndarray:
    """Frame components of [X_a, X_b] for 1-based frame indices a, b."""
    _check_frame_index(a, b)
    return structure_constants(q, params)[..., a - 1, b - 1, :]


def levi_civita_tensor(q, params: ModelParams) -> np.ndarray:
    """Levi-Civita connection in the frame: `FrameJet.gamma` of the points q."""
    return frame_jet(q, params).gamma


def levi_civita_frame(a: int, b: int, q, params: ModelParams) -> np.ndarray:
    """Frame components of nabla_{X_a} X_b for 1-based frame indices."""
    _check_frame_index(a, b)
    return levi_civita_tensor(q, params)[..., a - 1, b - 1, :]


def _check_frame_index(*indices) -> None:
    for a in indices:
        if not isinstance(a, (int, np.integer)) or not 1 <= int(a) <= 7:
            raise ValueError("frame indices are integers in 1..7")


def sample_domain_points(
    params: ModelParams,
    n: int,
    seed: int,
    box: float = 0.5,
    k_min: float = 0.1,
    max_batches: int = 200,
) -> np.ndarray:
    """Draw n points uniformly from [-box, box]^7, rejecting K <= k_min.

    Deterministic for a given seed.  Raises DomainViolation when the
    parameters make acceptable points (effectively) impossible to find.
    """
    if n < 1:
        raise ValueError("need n >= 1 sample points")
    rng = np.random.default_rng(seed)
    chunk = max(4 * n, 64)
    kept: list[np.ndarray] = []
    total = 0
    for _ in range(max_batches):
        pts = rng.uniform(-box, box, size=(chunk, 7))
        u2 = np.sum(pts[:, 3:] * pts[:, 3:], axis=-1)
        K = 1.0 + params.m * u2
        good = pts[np.isfinite(K) & (K > k_min)]
        if good.shape[0]:
            kept.append(good)
            total += good.shape[0]
        if total >= n:
            return np.concatenate(kept, axis=0)[:n]
    raise DomainViolation(
        f"could not draw {n} points with K > {k_min} in [-{box},{box}]^7 "
        f"for (m,l)=({params.m},{params.l})"
    )


# --- 3-dimensional base family -------------------------------------------

#: classification labels in first-match order, with case numerals
_BCV_LABELS = ("Euclidean3", "Sphere3", "S2xR", "H2xR", "SU2", "SL2R", "Nil3")
_BCV_CASES = ("i", "ii", "iii", "iv", "v", "vi", "vii")


@dataclass(frozen=True)
class BCVClassification:
    label: str
    case: str


def bcv_classify(m: float, l: float, case2: str = "printed") -> BCVClassification:
    """Classify the 3-dimensional base space for parameters (m, l).

    ``case2`` selects the predicate for the sphere case: "printed" uses
    m = l/4, "squared" uses m = l^2/4.
    """
    if case2 not in ("printed", "squared"):
        raise ValueError("case2 must be 'printed' or 'squared'")
    if not (np.isfinite(m) and np.isfinite(l)):
        raise DomainViolation("classification needs finite parameters")
    sphere = (m == l / 4.0) if case2 == "printed" else (m == l * l / 4.0)
    predicates = (
        m == 0.0 and l == 0.0,
        sphere,
        m > 0.0 and l == 0.0,
        m < 0.0 and l == 0.0,
        m > 0.0 and l != 0.0,
        m < 0.0 and l != 0.0,
        m == 0.0 and l != 0.0,
    )
    for label, case, hit in zip(_BCV_LABELS, _BCV_CASES, predicates):
        if hit:
            return BCVClassification(label, case)
    raise InconclusiveClassification(  # pragma: no cover - predicates exhaust R^2
        f"no classification case matched (m,l)=({m},{l})"
    )


def bcv_frame(x: float, y: float, params: ModelParams) -> np.ndarray:
    """3x3 frame of the base family: columns E_1, E_2, E_3 in basis (x, y, z).

    E_1 = (1+m(x^2+y^2)) d_x - (l/2) y d_z,
    E_2 = (1+m(x^2+y^2)) d_y + (l/2) x d_z,
    E_3 = d_z.
    """
    k2 = 1.0 + params.m * (x * x + y * y)
    if not np.isfinite(k2) or k2 <= 0.0:
        raise DomainViolation("conformal factor 1+m(x^2+y^2) <= 0")
    half_l = 0.5 * params.l
    return np.array(
        [
            [k2, 0.0, 0.0],
            [0.0, k2, 0.0],
            [-half_l * y, half_l * x, 1.0],
        ]
    )
