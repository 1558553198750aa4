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
which builds F, its coframe, the structure constants, the Koszul
connection, the curvature R and its derivatives once and shares
them between calls.  Derivatives of the frame coefficients are exact closed
forms (every entry is polynomial in the coordinates), so downstream
bracket, connection and curvature values carry no finite-difference error.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, InconclusiveClassification

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


class _kept:
    """A jet tensor built on first read, then kept read-only.

    The built tensor goes into the instance ``__dict__``, which this
    non-data descriptor yields to on later reads.  It takes no lock, unlike
    `functools.cached_property` before Python 3.12, whose one lock per
    attribute would make the chunk workers of `FrameJet._chunked` take
    turns at building the same tensor of different jets.  Two threads that
    read one jet's tensor before it is kept both build it, to the same
    value.  ``func`` builds the tensor, looked up on every build.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, jet, owner=None):
        if jet is None:
            return self
        out = self.func(jet)
        out.flags.writeable = False
        vars(jet)[self.name] = out
        return out


def _twist_block(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """B[..., i, a] = (l/2) * (J_i u)_a — vertical components of X_{4+a}."""
    u = q[..., 3:]
    return 0.5 * params.l * np.einsum("iab,...b->...ia", J_TWIST, u)


#: Points per piece of `FrameJet._chunked`: the chunk of the public entry
#: points, and the piece of a kernel on the chunk pool.  A call holds the
#: temporaries of at most `_WORKERS` pieces at a time, so its peak beyond
#: the output arrays does not grow with the point count; and up to 64
#: points a point's value does not depend on the other points of its
#: piece, so `verify` judges its records on 32-point chunks of the tensors
#: that its kernel built on 8-point pieces.  Two 16-point pieces in flight
#: run the curvature entry points no faster and raise their peak RSS by
#: ~9 %.
_CHUNK = 8

#: Worker threads of the chunk pool, and the pieces one call has in flight.
#: A piece's time is mostly spent in numpy loops that release the GIL.
_WORKERS = 2

#: The chunk pool.  It starts its threads on first use, so importing
#: starts none.  It runs private per-point kernels only: no public
#: function of `ebcv` runs on a pool worker, and none starts or ends while
#: pool work it did not start is in flight, so a caller that hooks the
#: public functions (a tracer, a profiler) sees every call in its own
#: thread, between the pool's fork-join rounds.  `FrameJet._chunked`
#: refuses to run on a worker, where waiting on the pool could deadlock.
_POOL_PREFIX = "ebcv-chunk"
_POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix=_POOL_PREFIX)


def _pooled(body, jets):
    """body(jet) of each of the jets, yielded in order, evaluated on the
    chunk pool with at most `_WORKERS` in flight.  Each runs in a copy of
    the caller's context, taken when it is submitted, so the caller's numpy
    error state holds in the workers.  A body's exception is raised at its
    place in the order, once the chunks still in flight have ended."""
    pending = deque()
    try:
        for jet in jets:
            pending.append(
                _POOL.submit(contextvars.copy_context().run, body, jet))
            if len(pending) == _WORKERS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for f in pending:
            f.cancel()
        wait(pending)


#: The horizontal directions: u_h is the coordinate 3 + h.
_H4 = np.arange(4)


class FrameJet:
    """The frame layer at a point set, each tensor built once.

    The domain is checked once, on construction (K > 0).  ``F``, ``Om``,
    ``dF``, ``C``, ``dC``, ``gamma``, ``R``, ``xR`` and ``nabla_R`` are
    built on first use and then kept, read-only; ``d2C`` is built on every
    read, so the largest derivative tensor is not held.  ``q``, ``params``
    and ``K`` hold the points, the parameters and the conformal factor.

    The frame depends on u = (w, x, y, z) only, so the partials of C are
    kept along u alone: ``dC`` has shape (..., 4, 7, 7, 7) and ``d2C``
    (..., 4, 4, 7, 7, 7), index h standing for u_h, the coordinate 3 + h.
    ``dF`` keeps all 7 directions, as C, dC, `geodesics._bracket_values`
    and `geodesics.generic_rhs_momentum_chart` read them.  The
    second partials of F are the constant d_h d_k F = 2m delta_hk on its
    4 x 4 block and enter ``d2C`` in closed form.  As F[3:, :3] = 0 and
    F[3:, 3:] = K I, the frame derivatives are X_e C = K d_{e-3} C and

        X_e X_x C = K^2 d2C[e-3, x-3] + 2m K u_{e-3} dC[x-3]

    for horizontal e and x, and zero when e or x is vertical.  So is X_e R,
    kept as ``xR`` (..., 4, 7, 7, 7, 7) on the horizontal e alone: every
    covariant derivative of R, under the Levi-Civita connection
    (``nabla_R``) or another metric connection (`_covariant`), is that one
    block minus its connection terms.

    Pass a jet wherever a function takes points ``q`` to share these
    tensors between calls (see `frame_jet`); read the curvature of many
    points through `_chunked`, which bounds the memory.
    """

    def __init__(self, q, params: ModelParams):
        self.q = _as_points(q)
        self.params = params
        self.K = k_factor(self.q, params)

    def _rows(self, rows: slice) -> "FrameJet":
        """The jet of some rows of the flattened points, for evaluating in
        chunks: q, K and every tensor this jet has built so far are shared
        as slices of the same rows, not rebuilt (nor is the domain checked
        again).  Its ``rows`` is that slice."""
        batch_ndim = self.q.ndim - 1
        sub = object.__new__(FrameJet)
        sub.params, sub.rows = self.params, rows
        for name, t in vars(self).items():
            if isinstance(t, np.ndarray):
                vars(sub)[name] = t.reshape((-1,) + t.shape[batch_ndim:])[rows]
        return sub

    def _keep(self, **tensors) -> None:
        """Keep tensors built elsewhere for these points, as a kernel of
        `_chunked` builds them on pieces of this jet, read-only as if built
        here."""
        for name, t in tensors.items():
            t.flags.writeable = False
            vars(self)[name] = t

    def _chunked(self, body) -> dict:
        """body over the points of this jet, in pieces of at most _CHUNK.

        body(sub) gets the jet of a piece of the flattened points (`_rows`)
        and returns a dict of named arrays with one row per point.  body is
        a private per-point kernel: it calls no public function of `ebcv`
        (see `_POOL`).  One piece runs in the calling thread; more run on
        the chunk pool (`_pooled`), fork-join: every piece has ended when
        this returns.  Each name's results are written, in piece order,
        into an array in the memory layout of the first piece's, which
        comes back under that name with this jet's batch shape.  A single
        point of shape (7,) is passed through whole; an empty batch runs
        one empty piece.  Raises RuntimeError on a pool worker, whose call
        would wait on the pieces queued behind it.
        """
        if threading.current_thread().name.startswith(_POOL_PREFIX):
            raise RuntimeError(
                "a chunked call on a chunk-pool worker: pool kernels must "
                "not call the pooled entry points")
        batch = self.q.shape[:-1]
        if not batch:
            return body(self)
        n = self.q.size // 7
        starts = range(0, max(n, 1), _CHUNK)
        jets = (self._rows(slice(s, s + _CHUNK)) for s in starts)
        results = _pooled(body, jets) if len(starts) > 1 else map(body, jets)
        outs = None
        for start, got in zip(starts, results):
            rows = slice(start, start + _CHUNK)
            if outs is None:
                # the chunk's memory layout, which sets the summation order
                # of einsums that later read the output
                outs = {name: np.empty_like(g, shape=(n,) + g.shape[1:])
                        for name, g in got.items()}
            for name, out in outs.items():
                out[rows] = got[name]
            # freed before the wait for the next piece, so that a worker
            # does not build its next piece beside the last one's result
            del got
        return {name: out.reshape(batch + out.shape[1:])
                for name, out in outs.items()}

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
        """Exact partials dC[..., h, a, b, c] of the structure constants
        along u_h, the coordinate 3 + h (along r, s and t they are zero)."""
        F, dF, Om = self.F, self.dF, self.Om
        dFh = dF[..., 3:, :, :]
        dOm = -np.einsum("...an,...hnm,...mu->...hau", Om, dFh, Om)
        V = np.einsum("...na,...nmb->...mab", F, dF)
        brk = V - np.swapaxes(V, -1, -2)
        dV = np.einsum("...hna,...nmb->...hmab", dFh, dF)
        # + sum_n F[n, a] d_h d_n F[m, b] = 2m K at a = 3 + h, m = b = 3 + j
        h, j = _H4[:, None], _H4
        dV[..., h, 3 + j, 3 + h, 3 + j] += (
            2.0 * self.params.m * self.K[..., None, None])
        dbrk = dV - np.swapaxes(dV, -1, -2)
        return np.einsum("...hcm,...mab->...habc", dOm, brk) + np.einsum(
            "...cm,...hmab->...habc", Om, dbrk
        )

    @property
    def d2C(self) -> np.ndarray:
        """Exact second partials d2C[..., h, k, a, b, c] of the structure
        constants along u_h and u_k: F C = [X_a, X_b] = V - V^T differentiated
        twice (d3F = 0), where d_h d_k F = 2m delta_hk on the 4 x 4 block of
        F is applied in closed form."""
        m2 = 2.0 * self.params.m
        dFh, C, dC = self.dF[..., 3:, :, :], self.C, self.dC
        # d2V[h, k, m, a, b] = 2m delta_hk [a in H] d_{a-3} F[m, b]
        #                      + 2m [m = b in H] (d_h F[3+k, a] + d_k F[3+h, a])
        d2V = np.zeros(self.K.shape + (4, 4, 7, 7, 7))
        d2V[..., _H4, _H4, :, 3:, :] = (
            m2 * np.swapaxes(dFh, -3, -2))[..., None, :, :, :]
        w = m2 * dFh[..., 3:, :]
        for j in range(4):
            d2V[..., 3 + j, :, 3 + j] += w
            d2V[..., 3 + j, :, 3 + j] += np.swapaxes(w, -3, -2)
        rhs = d2V - np.swapaxes(d2V, -1, -2)
        # - d_h d_k F C = 2m delta_hk [m in H] C[a, b, m]
        rhs[..., _H4, _H4, 3:, :, :] -= (
            m2 * np.moveaxis(C[..., 3:], -1, -3))[..., None, :, :, :]
        dFdC = np.einsum("...hmc,...kabc->...hkmab", dFh, dC, optimize=True)
        rhs -= dFdC
        rhs -= np.swapaxes(dFdC, -5, -4)
        return np.einsum("...cm,...hkmab->...hkabc", self.Om, rhs,
                         optimize=True)

    @_kept
    def gamma(self) -> np.ndarray:
        """gamma[..., a, b, c] = <nabla_{X_{a+1}} X_{b+1}, X_{c+1}> via Koszul.

        For an orthonormal frame the Koszul formula reduces to
        2<nabla_a b, c> = <[X_a,X_b],X_c> - <[X_b,X_c],X_a> + <[X_c,X_a],X_b>.
        """
        return _koszul(self.C)

    def _x_derivatives(self):
        """xC[..., h, a, b, c] = X_{4+h} C_abc = K dC_h and xgam =
        Koszul(xC), the frame derivatives of C and gamma along the
        horizontal frame; along X_1..X_3 both are zero.  Built on each
        call, not kept: holding them beside R and X R raises the peak of a
        chunk."""
        xC = self.K[..., None, None, None, None] * self.dC
        return xC, _koszul(xC)

    @_kept
    def R(self) -> np.ndarray:
        """Frame curvature R[..., a, b, c, d] = <R(X_a, X_b) X_d, X_c> by
        Cartan's structure equations (see `curvature`)."""
        C, gam, (_, xgam) = self.C, self.gamma, self._x_derivatives()
        S = np.einsum("...bdf,...afc->...abcd", gam, gam)
        S[..., 3:, :, :, :] += np.einsum("...abdc->...abcd", xgam)
        return (S - np.einsum("...bacd->...abcd", S)
                - np.einsum("...abf,...fdc->...abcd", C, gam))

    @_kept
    def xR(self) -> np.ndarray:
        """xR[..., h, a, b, c, d] = X_{4+h} R_abcd, the frame derivatives of
        R along the horizontal frame (along X_1..X_3 they are zero): R's
        formula differentiated once more, X_e X_x gamma from d2C and the
        products by the Leibniz rule.  Zeros, without that formula, when dC
        is exactly 0 at every point: C, and so R, is then constant.  That is
        m = 0 and only there, as dC holds +-2m at every point."""
        if not self.dC.any():
            return np.zeros(self.K.shape + (4,) + (7,) * 4)
        C, gam, K = self.C, self.gamma, self.K
        xC, xgam = self._x_derivatives()
        # X_e X_x C = K (K d2C_ex) + (K 2m u_e) dC_x for horizontal e and
        # x (X = K d_u there), zero for vertical e or x
        k = K[..., None, None, None, None, None]
        ku = K[..., None] * (2.0 * self.params.m * self.q[..., 3:])
        xxgam = _koszul(k * (k * self.d2C)
                        + ku[..., :, None, None, None, None]
                        * self.dC[..., None, :, :, :, :])
        xS = np.einsum("...ebdf,...afc->...eabcd", xgam, gam, optimize=True)
        xS[..., 3:, :, :, :] += np.einsum("...eabdc->...eabcd", xxgam)
        del xxgam
        xS += np.einsum("...bdf,...eafc->...eabcd", gam, xgam, optimize=True)
        out = xS - np.einsum("...ebacd->...eabcd", xS)
        del xS
        out -= np.einsum("...eabf,...fdc->...eabcd", xC, gam, optimize=True)
        out -= np.einsum("...abf,...efdc->...eabcd", C, xgam, optimize=True)
        return out

    @_kept
    def nabla_R(self) -> np.ndarray:
        """(nabla_{X_e} R)[..., e, a, b, c, d]: `_covariant` of R under the
        Levi-Civita connection gamma."""
        return _covariant(self.gamma, lambda: self.R, self.xR)


def _covariant(conn, A, xA) -> np.ndarray:
    """(D_{X_e} A)[..., e, a, b, c(, d)] of a frame 3- or 4-tensor A under
    the metric connection D with <D_{X_e} X_a, X_g> = conn[..., e, a, g].

    A() builds A; xA[..., h, a, ...] = X_{4+h} A holds the frame
    derivatives of A along the horizontal frame; A depends on u alone, so
    along X_1..X_3 they are zero.  From X_e A the terms
    conn[e, s, g] A[.., g in slot s, ..] are subtracted in place, one slot
    at a time.

    Terms that are exactly zero are skipped: e, s and g run only over the
    span (first to last index) where conn is nonzero at some point of the
    batch, and where conn is 0 everywhere X_e A comes back alone, without
    a call of A().  A term outside the spans is conn = 0 times a finite
    entry of A, an exact zero, so the values are the dense contraction's.
    Levi-Civita's gamma keeps full spans at l != 0; nabla - S of
    `homogeneous.ambrose_singer_check` spans the horizontal block, and
    nothing at m = 0.  The spans are read from conn, not assumed, so a
    wrong entry anywhere widens them.
    """
    slots = "abcd"[:xA.ndim - conn.ndim + 2]
    out = np.zeros(conn.shape[:-2] + xA.shape[conn.ndim - 2:])
    out[(..., slice(3, None)) + (slice(None),) * len(slots)] = xA
    nonzero = (conn != 0).reshape(-1, 7, 7, 7).any(axis=0)
    if not nonzero.any():
        return out
    A = A()
    e, s, g = (_span(nonzero.any(axis=other))
               for other in ((1, 2), (0, 2), (0, 1)))
    conn = conn[..., e, s, g]
    for i, slot in enumerate(slots):
        rest = (slice(None),) * (len(slots) - i - 1)
        out[(..., e) + (slice(None),) * i + (s,) + rest] -= np.einsum(
            f"...e{slot}g,...{slots.replace(slot, 'g')}->...e{slots}",
            conn, A[(...,) + (slice(None),) * i + (g,) + rest],
            optimize=True)
    return out


def _span(mask) -> slice:
    """The slice from the first to the last True entry of mask."""
    hit = np.flatnonzero(mask)
    return slice(hit[0], hit[-1] + 1)


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


#: The box [-SAMPLE_BOX, SAMPLE_BOX]^7 that `sample_domain_points` draws
#: from, and the bound K > SAMPLE_K_MIN that its points keep.
SAMPLE_BOX = 0.5
SAMPLE_K_MIN = 0.1

#: Rows per candidate draw of `sample_domain_points`, so a large sample
#: holds its result and one draw, not all its candidates at once.
_DRAW = 1024


def sample_domain_points(params: ModelParams, n: int, seed: int) -> np.ndarray:
    """Draw n points uniformly from the box [-SAMPLE_BOX, SAMPLE_BOX]^7,
    rejecting those with K <= SAMPLE_K_MIN.

    Deterministic for a given seed.  Raises DomainViolation when the
    parameters make acceptable points (effectively) impossible to find:
    after 200 batches of max(4n, 64) candidates.  The candidates are drawn
    at most `_DRAW` rows at a time; the generator's stream does not depend
    on how it is split, so the points do not either.
    """
    if n < 1:
        raise ValueError("need n >= 1 sample points")
    rng = np.random.default_rng(seed)
    batch = max(4 * n, 64)
    left = 200 * batch
    out = np.empty((n, 7))
    total = 0
    while left > 0:
        pts = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX,
                          size=(min(batch, _DRAW, left), 7))
        left -= len(pts)
        u2 = np.sum(pts[:, 3:] * pts[:, 3:], axis=-1)
        K = 1.0 + params.m * u2
        good = pts[np.isfinite(K) & (K > SAMPLE_K_MIN)][: n - total]
        out[total:total + len(good)] = good
        total += len(good)
        if total == n:
            return out
    raise DomainViolation(
        f"could not draw {n} points with K > {SAMPLE_K_MIN} in "
        f"[-{SAMPLE_BOX},{SAMPLE_BOX}]^7 for (m,l)=({params.m},{params.l})"
    )


# --- 3-dimensional base family -------------------------------------------

#: classification labels in first-match order, with case numerals
_BCV_LABELS = ("Euclidean3", "Sphere3", "S2xR", "H2xR", "SU2", "SL2R", "Nil3")
_BCV_CASES = ("i", "ii", "iii", "iv", "v", "vi", "vii")


@dataclass(frozen=True)
class BCVClassification:
    label: str
    case: str


def bcv_classify(m: float, l: float) -> BCVClassification:
    """Classify the 3-dimensional base space for parameters (m, l).

    The sphere case (ii) is 4m = l^2: the planes of `bcv_frame` have
    sectional curvatures 4m - 3l^2/4, l^2/4 and l^2/4, which are equal
    exactly there.  The paper prints it as m = l/4.  It is tested as
    2 sqrt(m) = |l| within 4 ulp, for m > 0: neither side under- or
    overflows, and decimal inputs such as (0.01, 0.2), where l * l rounds,
    still meet it.
    """
    if not (np.isfinite(m) and np.isfinite(l)):
        raise DomainViolation("classification needs finite parameters")
    predicates = (
        m == 0.0 and l == 0.0,
        m > 0.0
        and abs(2.0 * np.sqrt(m) - abs(l)) <= 4 * np.finfo(float).eps * abs(l),
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
