"""Normal geodesics of the model as a Hamiltonian flow on the cotangent bundle.

The kinetic energy is built from the frame momentum functions
``P_a(q, p) = p(X_a(q))``: the sub-Riemannian Hamiltonian sums the squares of
the four horizontal momenta, the Riemannian one adds the three vertical
momenta.  The generic right-hand side is the exact derivative of that
Hamiltonian (quadratic in p, polynomial in q through the frame matrix), and
a classical fixed-step RK4 integrator drives it, recording the energy at
every sample and stopping gracefully when the flow leaves the chart
``K > 0`` or produces non-finite values.

For the quaternionic Heisenberg case ``(m, l) = (0, 1)`` the flow is solved
in closed form: packing the horizontal coordinates as the quaternion
``omega = w + i x + j y + k z``, the horizontal momentum quaternion obeys
``P' = -Lambda P`` with the constant imaginary quaternion
``Lambda = i p_r + j p_s + k p_t``, so ``P(u) = exp(-Lambda u) P(0)``.  With
``theta = |Lambda| u`` and

    A(u) = int_0^u exp(Lambda v) dv = u sinc(theta/2) exp(Lambda u/2),

    omega(u) = omega(0) + conj(A(u)) P(0),

an arc of a circle of radius ``|P(0)|/|Lambda|`` (a straight line when
``Lambda = 0``).  The vertical coordinates obey
``(r', s', t') = (1/2) Im(omega * conj(omega'))``; that integrand is the one
that reproduces the Hamiltonian equations for r, s, t exactly (the published
form of the integrals conjugates the other factor, which does not).  As
``omega conj(P) = omega(0) conj(P(0)) exp(Lambda v)
+ |P(0)|^2 Lambda^{-1} (exp(Lambda v) - 1)``, they integrate to

    (r, s, t)(u) = (r, s, t)(0) + (1/2) Im(omega(0) conj(P(0)) A(u))
                   + (1/2) |P(0)|^2 u^3 ((theta - sin theta)/theta^3) lambda

with ``lambda = (p_r, p_s, p_t)``.  sinc and ``(theta - sin theta)/theta^3``
are Taylor series at small theta, so one formula holds for every Lambda,
zero included.

The hand-derived first-order system published for this case is kept here as
an independently transcribed fixture (`printed_heisenberg_rhs`).  Its s-dot
line swaps two coefficients relative to the Hamiltonian derivation; the
generic path is authoritative and `sdot_mismatch` reports the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import DomainViolation, ModeMismatch, TooFewSamples
from .frames import J_TWIST, ModelParams, frame_jet, frame_matrix
from .quaternions import _sine_quotient, exp_imaginary, qconj, qmul

__all__ = [
    "GeodesicMode",
    "CotangentState",
    "Trajectory",
    "CircleVerdict",
    "frame_momenta",
    "hamiltonian",
    "hamilton_rhs",
    "printed_heisenberg_rhs",
    "generic_rhs_momentum_chart",
    "sdot_mismatch",
    "integrate",
    "closed_form_trajectory",
    "POISSON_PAIRS",
    "poisson_check",
    "circle_check",
]

#: relative residual threshold for the circle / line verdicts
CIRCLE_RESIDUAL_TOL = 1e-4

#: the most steps `integrate` and `closed_form_trajectory` accept; both
#: allocate their samples up front (the closed form ~0.35 GB at this count)
MAX_STEPS = 1_000_000

_HEIS = ModelParams(0.0, 1.0)

#: the six horizontal frame pairs, 1-based (X_4..X_7)
POISSON_PAIRS: Tuple[Tuple[int, int], ...] = (
    (4, 5),
    (4, 6),
    (4, 7),
    (5, 6),
    (5, 7),
    (6, 7),
)
#: The 0-based frame indices of the first and second fields of each pair.
_PAIR_A, _PAIR_B = (np.array(fields) - 1 for fields in zip(*POISSON_PAIRS))


class GeodesicMode(Enum):
    """Which momenta enter the kinetic energy.

    ``heisenberg`` is the sub-Riemannian flow pinned to (m, l) = (0, 1),
    where the closed form applies; ``subriemannian`` uses the horizontal
    momenta for any admissible (m, l); ``riemannian`` adds the vertical ones.
    """

    HEISENBERG = "heisenberg"
    SUBRIEMANNIAN = "subriemannian"
    RIEMANNIAN = "riemannian"


def _coerce_mode(mode) -> GeodesicMode:
    if isinstance(mode, GeodesicMode):
        return mode
    try:
        return GeodesicMode(str(mode))
    except ValueError:
        raise ValueError(
            f"unknown geodesic mode {mode!r}; expected one of "
            f"{[m.value for m in GeodesicMode]}"
        ) from None


def _check_mode_params(mode: GeodesicMode, params: ModelParams) -> None:
    if mode is GeodesicMode.HEISENBERG and not (params.m == 0.0 and params.l == 1.0):
        raise ModeMismatch(
            "heisenberg mode requires (m, l) = (0, 1); got "
            f"({params.m}, {params.l})"
        )


@dataclass(frozen=True)
class CotangentState:
    """A point of the cotangent bundle: coordinates q and covector p.

    Both arrays use the coordinate order (r, s, t, w, x, y, z); p holds the
    components of ``p_r dr + ... + p_z dz`` in the same order.
    """

    q: np.ndarray
    p: np.ndarray

    def __init__(self, q, p):
        q = np.array(q, dtype=float)
        p = np.array(p, dtype=float)
        if q.shape != (7,) or p.shape != (7,):
            raise ValueError("CotangentState needs 7 coordinates and 7 momenta")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("CotangentState components must be finite")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


def frame_momenta(q, p, params: ModelParams) -> np.ndarray:
    """Frame momentum functions P_a = p(X_a), i.e. (F^T p)_a, a = 1..7."""
    F = frame_matrix(q, params)
    p = np.asarray(p, dtype=float)
    return np.einsum("...ma,...m->...a", F, p)


# --- generic Hamiltonian right-hand side -----------------------------------


def _vertical_block(pv: np.ndarray, Jl: np.ndarray) -> np.ndarray:
    """The p_r, p_s, p_t part of the matrix M of `_stage_kernel`:
    sum_i p_i (d B[i, b] / d u_c)."""
    return pv.dot(Jl.reshape(3, 16)).reshape(4, 4)


def _stage_kernel(m: float, Jl: np.ndarray, riemannian: bool):
    """The flow of one trajectory: ``flow(y, d, Mv)`` returns K and the
    energy H at a state and writes the state's exact derivative.

    ``y`` is `_state_views` of a 14-vector (q, p), ``d`` is `_rate_views` of
    the caller's 14-vector for the derivative, whose rows 7:10 (p-dot_r,
    p-dot_s, p-dot_t) are never written: the caller keeps them at +0.0.
    ``Jl`` is ``(l/2) J_TWIST`` as a (12, 4) matrix, and ``Mv`` is
    `_vertical_block` of the p_r, p_s, p_t of y, which the flow never moves.
    Uses the block structure of the frame: columns 4..7 have vertical part
    B[i, b] = (l/2) (J_i u)_b and horizontal part K*I; only the u-derivatives
    of F are nonzero, so p_r, p_s, p_t are conserved identically.  Every sum
    of three or four terms is a BLAS product, which fixes its rounding;
    ``ndarray.dot`` makes the same BLAS call as ``@`` without the dispatch
    of the matmul ufunc.

    Bound once per trajectory, here: m, Jl, the mode, and scratch for B,
    the horizontal momenta Ph, K ph and M; `integrate` binds the views of
    its state, its stage point and its four derivative rows once as well,
    so a step builds no view and no array; it copies each accepted sample
    into its row of the trajectory.  The bits cannot move: every product
    and sum has the operands, in the order, of
    ``Ph = pv.B + K ph``, ``qdot_v = B.Ph (+ pv)``, ``M = Mv + 2m (ph u^T)``
    and ``pdot_h = -(Ph.M)``, and writing a result into a buffer
    (``dot(..., out=)`` is the same BLAS call) rounds nothing differently.
    At m = 0 the kernel still forms ``1 + m u.u`` and ``Mv + 2m (...)``,
    which carry the signed zeros and overflows of those expressions.  The
    scratch belongs to the returned function, so concurrent trajectories
    share none.
    """
    B = np.empty(12)
    B34 = B.reshape(3, 4)  # rows i, columns b
    Ph = np.empty(4)  # horizontal frame momenta P_{4..7}
    Kph = np.empty(4)
    M = np.empty((4, 4))  # M[b, c] = sum_nu (d F[nu, 3+b] / d u_c) p_nu
    two_m = 2.0 * m
    # the ufuncs and the products of fixed operands, looked up once
    multiply, add, negative = np.multiply, np.add, np.negative
    Jl_dot, B34_dot, Ph_dot = Jl.dot, B34.dot, Ph.dot

    def flow(y, d, Mv):
        u, pv, ph, ph_col = y
        qv, qh, pdh = d
        K = 1.0 + m * float(u.dot(u))
        Jl_dot(u, out=B)
        pv.dot(B34, out=Ph)
        multiply(K, ph, out=Kph)
        add(Ph, Kph, out=Ph)
        H = 0.5 * float(Ph_dot(Ph))
        B34_dot(Ph, out=qv)
        multiply(ph_col, u, out=M)
        multiply(two_m, M, out=M)
        add(Mv, M, out=M)
        if riemannian:
            H += 0.5 * float(pv.dot(pv))
            add(qv, pv, out=qv)  # vertical frame fields are the coordinate fields
        multiply(K, Ph, out=qh)
        Ph_dot(M, out=pdh)
        negative(pdh, out=pdh)
        return K, H

    return flow


def _state_views(y: np.ndarray) -> tuple:
    """(u, p_v, p_h, p_h as a column) of a state y = (q, p)."""
    return y[3:7], y[7:10], y[10:], y[10:, None]


def _rate_views(d: np.ndarray) -> tuple:
    """The slices of a derivative that `_stage_kernel`'s flow writes."""
    return d[:3], d[3:7], d[10:]


def hamiltonian(state: CotangentState, params: ModelParams, mode) -> float:
    """Kinetic energy H = (1/2) sum of squared active frame momenta."""
    mode = _coerce_mode(mode)
    _check_mode_params(mode, params)
    P = frame_momenta(state.q, state.p, params)
    H = 0.5 * float(P[3:] @ P[3:])
    if mode is GeodesicMode.RIEMANNIAN:
        H += 0.5 * float(P[:3] @ P[:3])
    return H


def hamilton_rhs(
    state: CotangentState, params: ModelParams, mode
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (q-dot, p-dot) of the normal geodesic equations.

    q-dot^mu = dH/dp_mu and p-dot_mu = -dH/dx^mu, differentiated in closed
    form.  The returned p-dot has vanishing r, s, t components identically
    (the frame never depends on the vertical coordinates).
    """
    mode = _coerce_mode(mode)
    _check_mode_params(mode, params)
    y = np.concatenate((state.q, state.p))
    Jl = (0.5 * params.l * J_TWIST).reshape(12, 4)
    riem = mode is GeodesicMode.RIEMANNIAN
    ydot = np.zeros(14)
    flow = _stage_kernel(params.m, Jl, riem)
    K, _ = flow(_state_views(y), _rate_views(ydot), _vertical_block(state.p[:3], Jl))
    if not np.isfinite(K) or K <= 0.0:
        raise DomainViolation("conformal factor K <= 0: point outside the chart")
    return ydot[:7], ydot[7:]


# --- the published first-order system (fixture) ----------------------------


def _printed_momenta(q: np.ndarray, p: np.ndarray) -> Tuple[float, float, float, float]:
    """The four horizontal momentum functions exactly as published."""
    r, s, t, w, x, y, z = q
    pr, ps, pt, pw, px, py, pz = p
    PW = pw + 0.5 * (x * pr + y * ps + z * pt)
    PX = px - 0.5 * (w * pr + z * ps - y * pt)
    PY = py + 0.5 * (z * pr - w * ps - x * pt)
    PZ = pz - 0.5 * (y * pr - x * ps + w * pt)
    return PW, PX, PY, PZ


def printed_heisenberg_rhs(state: CotangentState) -> np.ndarray:
    """The published 14-line system for (m, l) = (0, 1), transcribed verbatim.

    Returns the derivative of the mixed state
    (r, s, t, w, x, y, z, p_r, p_s, p_t, P_W, P_X, P_Y, P_Z).
    The s-dot line is kept exactly as published even though it disagrees
    with dH/dp_s (see `sdot_mismatch`); everything else matches the generic
    Hamiltonian path.
    """
    q, p = state.q, state.p
    _, _, _, w, x, y, z = q
    pr, ps, pt = p[:3]
    PW, PX, PY, PZ = _printed_momenta(q, p)
    rdot = 0.5 * (x * PW - w * PX + z * PY - y * PZ)
    sdot = 0.5 * (y * PW - z * PX + x * PY - w * PZ)  # as published
    tdot = 0.5 * (z * PW + y * PX - x * PY - w * PZ)
    PWdot = pr * PX + ps * PY + pt * PZ
    PXdot = -pr * PW - ps * PZ + pt * PY
    PYdot = pr * PZ - ps * PW - pt * PX
    PZdot = -pr * PY + ps * PX - pt * PW
    return np.array(
        [rdot, sdot, tdot, PW, PX, PY, PZ, 0.0, 0.0, 0.0, PWdot, PXdot, PYdot, PZdot]
    )


def generic_rhs_momentum_chart(state: CotangentState) -> np.ndarray:
    """The authoritative right-hand side in the same mixed chart.

    Converts the exact (q-dot, p-dot) at (m, l) = (0, 1) to the derivative of
    (r, s, t, w, x, y, z, p_r, p_s, p_t, P_W, P_X, P_Y, P_Z) by the chain
    rule, for line-by-line comparison with `printed_heisenberg_rhs`.
    """
    qdot, pdot = hamilton_rhs(state, _HEIS, GeodesicMode.HEISENBERG)
    fr = frame_jet(state.q, _HEIS)
    # d/du of P_a = F[mu, a] p_mu along the flow
    Pdot = np.einsum("emn,e,m->n", fr.dF, qdot, state.p) + np.einsum(
        "mn,m->n", fr.F, pdot
    )
    return np.concatenate([qdot, pdot[:3], Pdot[3:]])


def sdot_mismatch(state: CotangentState) -> float:
    """Published s-dot minus the Hamiltonian dH/dp_s, at (m, l) = (0, 1).

    Equals (1/2)(x P_Y - w P_Z) - (1/2)(-w P_Y + x P_Z): the published line
    carries the P_Y and P_Z coefficients of the t-dot/r-dot pattern in the
    wrong slots.  Zero only where (w + x)(P_Y - P_Z) vanishes.
    """
    _, _, _, w, x, _, _ = state.q
    _, _, PY, PZ = _printed_momenta(state.q, state.p)
    return 0.5 * (x * PY - w * PZ) - 0.5 * (-w * PY + x * PZ)


# --- fixed-step RK4 ---------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """An integrated (or sampled) curve in the cotangent bundle.

    ``u`` is a uniform, increasing parameter grid; ``q`` and ``p`` hold one
    row per sample in the coordinate order (r, s, t, w, x, y, z); ``H`` is
    the recorded energy.  ``status`` is one of ``complete``, ``domain-exit``
    (the flow reached K <= 0; samples up to the last admissible step are
    kept and ``exit_step`` names the 1-based step that failed) or
    ``step-rejected`` (non-finite values or energy at ``exit_step``).
    """

    u: np.ndarray
    q: np.ndarray
    p: np.ndarray
    H: np.ndarray
    mode: GeodesicMode
    params: ModelParams
    h: float
    status: str = "complete"
    exit_step: Optional[int] = None

    @property
    def n_samples(self) -> int:
        return int(self.u.shape[0])

    def to_rows(self) -> np.ndarray:
        """Samples as rows (u, r, s, t, w, x, y, z, pr, ps, pt, pw, px, py, pz, H)."""
        return np.column_stack([self.u, self.q, self.p, self.H])


def _check_grid(h: float, n: int) -> None:
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError("step size h must be positive and finite")
    if n < 1:
        raise ValueError("need at least one step")
    if n > MAX_STEPS:
        raise ValueError(f"{n} steps exceed MAX_STEPS = {MAX_STEPS}")


def integrate(s0: CotangentState, params: ModelParams, mode, h: float, n: int) -> Trajectory:
    """Classical RK4 with n fixed steps of size h from s0.

    The chart condition K > 0 is checked at every stage point; if it fails
    the partial trajectory is returned with status ``domain-exit``.  If a
    step produces non-finite values, or a sample whose energy is not finite,
    the status is ``step-rejected``; an initial state outside the chart or
    with a non-finite energy raises DomainViolation.  The energy H is
    recorded at every retained sample.  The samples are allocated up front,
    so n may not exceed MAX_STEPS.
    """
    mode = _coerce_mode(mode)
    _check_mode_params(mode, params)
    _check_grid(h, n)
    Jl = (0.5 * params.l * J_TWIST).reshape(12, 4)
    flow = _stage_kernel(params.m, Jl, mode is GeodesicMode.RIEMANNIAN)
    ys = np.empty((n + 1, 14))  # one row (q, p) per sample
    Hs = np.empty(n + 1)
    # the four stage derivatives; the flow leaves their rows 7:10 at +0.0
    dys = np.zeros((4, 14))
    d0, d1, d2, d3 = dys
    d12 = dys[1:3]
    y = np.empty(14)  # the last accepted sample
    ya = np.empty(14)  # a stage point, then the weighted sum of the stages
    y_views, ya_views = _state_views(y), _state_views(ya)
    d_views = [_rate_views(d) for d in dys]
    # (step, derivative it starts from, derivative it writes) of stages 2..4
    stages = (
        (0.5 * h, d0, d_views[1]),
        (0.5 * h, d1, d_views[2]),
        (h, d2, d_views[3]),
    )
    h6 = h / 6.0
    # looked up once: a step makes about 70 small numpy calls
    multiply, add, isfinite = np.multiply, np.add, math.isfinite
    # 0 * x is NaN exactly when x is not finite, so v.dot(zero) is finite
    # exactly when every entry of v is
    zero = np.zeros(14)
    status = "complete"
    exit_step: Optional[int] = None
    kept = n + 1

    y[:7], y[7:] = s0.q, s0.p
    ys[0] = y
    # every stage adds +0.0 to p_r, p_s, p_t, which turns a -0.0 into +0.0
    # and changes nothing else: the vertical block of M has one value at the
    # initial sample and another at every later point
    Mv = _vertical_block(y[7:10] + 0.0, Jl)
    with np.errstate(over="ignore", invalid="ignore"):
        # the flow at each accepted sample gives its energy, its chart check
        # and stage 1 of the next step
        K, H = flow(y_views, d_views[0], _vertical_block(y[7:10], Jl))
        if not math.isfinite(K) or K <= 0.0:
            raise DomainViolation("initial point outside the chart (K <= 0)")
        if not math.isfinite(H):
            raise DomainViolation(f"initial energy is not finite (H = {float(H)})")
        Hs[0] = H
        for k in range(1, n + 1):
            # K is finite and positive and H is finite here: checked above
            # for the first sample; a later one is kept only with K > 0 and
            # a finite H, which implies a finite K
            fault = None
            for step, d, out in stages:
                multiply(step, d, out=ya)
                add(y, ya, out=ya)
                if not isfinite(ya.dot(zero)):
                    fault = "step-rejected"
                    break
                Ka, _ = flow(ya_views, out, Mv)
                if not (isfinite(Ka) and Ka > 0.0):
                    fault = "domain-exit" if isfinite(Ka) else "step-rejected"
                    break
            if not fault:
                # y + (h/6) (((d0 + 2 d1) + 2 d2) + d3), written into y and
                # kept as ys[k]; d1 and d2 are doubled in place, as the next
                # step rewrites them
                multiply(2.0, d12, out=d12)
                add(d0, d1, out=ya)
                add(ya, d2, out=ya)
                add(ya, d3, out=ya)
                multiply(h6, ya, out=ya)
                add(y, ya, out=y)
                ys[k] = y
                if not isfinite(y.dot(zero)):
                    fault = "step-rejected"
                else:
                    K, H = flow(y_views, d_views[0], Mv)
                    if K <= 0.0:
                        fault = "domain-exit"
                    elif not isfinite(H):
                        fault = "step-rejected"
            if fault:
                status, exit_step, kept = fault, k, k
                break
            Hs[k] = H

    return Trajectory(
        u=np.arange(kept) * h,
        q=ys[:kept, :7].copy(),
        p=ys[:kept, 7:].copy(),
        H=Hs[:kept].copy(),
        mode=mode,
        params=params,
        h=h,
        status=status,
        exit_step=exit_step,
    )


# --- closed form for the quaternionic Heisenberg flow -----------------------


def closed_form_trajectory(s0: CotangentState, h: float, n: int) -> Trajectory:
    """Sample the closed-form Heisenberg geodesic on the grid u_k = k h.

    Produces a Trajectory directly comparable with `integrate` in heisenberg
    mode: same chart, same sample spacing, full momentum components
    recovered from P(u), which the coframe at (0, 1) makes
    ``p_omega - (1/2) Lambda omega``.  P(0) is the horizontal part of
    `frame_momenta` and Lambda = i p_r + j p_s + k p_t.  Every sample is
    evaluated from the formulas of the module docstring alone, with no
    quadrature, so ``closed_form_trajectory(s0, u, 1).q[-1]`` is the point at
    parameter u.  n may not exceed MAX_STEPS.
    """
    _check_grid(h, n)
    P0 = frame_momenta(s0.q, s0.p, _HEIS)[3:]
    omega0, lam_vec = s0.q[3:], s0.p[:3]
    u = np.arange(n + 1) * h
    theta = u * math.sqrt(float(lam_vec.dot(lam_vec)))
    ul = u[:, None] * lam_vec
    P = qmul(exp_imaginary(-ul), P0)
    A = (u * _sine_quotient(0.5 * theta, 1))[:, None] * exp_imaginary(0.5 * ul)
    omega = omega0 + qmul(qconj(A), P0)
    vertical = (
        s0.q[:3]
        + 0.5 * qmul(qmul(omega0, qconj(P0)), A)[:, 1:]
        + (0.5 * float(P0.dot(P0)) * u**3 * _sine_quotient(theta, 3))[:, None]
        * lam_vec
    )
    # covector components: p_vert is constant, and P = p_horiz - (1/2) Lambda omega
    p_h = P + 0.5 * qmul(np.concatenate(([0.0], lam_vec)), omega)
    qarr = np.column_stack([vertical, omega])
    parr = np.column_stack([np.broadcast_to(lam_vec, (n + 1, 3)), p_h])
    H_s = 0.5 * np.sum(P * P, axis=-1)
    return Trajectory(
        u=u,
        q=qarr,
        p=parr,
        H=H_s,
        mode=GeodesicMode.HEISENBERG,
        params=_HEIS,
        h=h,
        status="complete",
    )


# --- Poisson brackets of the momentum functions ------------------------------


def _bracket_values(fr, p: np.ndarray) -> np.ndarray:
    """{P_A, P_B} for the six horizontal pairs, shape (..., 6), from the
    frame jet fr and the covectors p, by exact differentiation of the
    momentum functions: with P_A = F[mu,A] p_mu,
    {P_A, P_B} = sum_i (d_i P_A F[i,B] - d_i P_B F[i,A])."""
    F = fr.F
    dP = np.einsum("...ima,...m->...ia", fr.dF, p)  # d P_a / d x^i
    return (np.einsum("...ik,...ik->...k", dP[..., _PAIR_A], F[..., _PAIR_B])
            - np.einsum("...ik,...ik->...k", dP[..., _PAIR_B],
                        F[..., _PAIR_A]))


def poisson_check(state: CotangentState) -> np.ndarray:
    """|{P_A, P_B} + P_{[X_A, X_B]}| for the six horizontal pairs.

    The expected value -P_{[A,B]} expands the bracket in the frame from the
    exact structure constants at (m, l) = (0, 1); the momentum map is a Lie
    algebra anti-homomorphism, so every residual should vanish.
    """
    return _poisson_residuals(frame_jet(state.q, _HEIS), state.p)


def _poisson_residuals(fr, p: np.ndarray) -> np.ndarray:
    """`poisson_check` of the states (q, p), fr the frame jet of the points
    q at (m, l) = (0, 1) and p their covectors, shape (..., 6)."""
    P = frame_momenta(fr, p, _HEIS)
    expected = -np.einsum("...kc,...c->...k", fr.C[..., _PAIR_A, _PAIR_B, :],
                          P)
    return np.abs(_bracket_values(fr, p) - expected)


# --- circle / line recognition ----------------------------------------------


@dataclass(frozen=True)
class CircleVerdict:
    """Outcome of the arc test on the horizontal projection of a trajectory.

    ``kind`` is ``circle`` (with center, radius, and the fitted rotation
    vector lam = (pr, ps, pt)), ``line``, or ``neither``; ``residual`` is the
    relative misfit of the constant-rotation model d2w/du2 = -Lambda dw/du.
    """

    kind: str
    center: Optional[np.ndarray]
    radius: Optional[float]
    lam: Optional[np.ndarray]
    residual: float


def circle_check(traj: Trajectory) -> CircleVerdict:
    """Classify the horizontal projection (w, x, y, z) as circle, line, or neither.

    Velocities and accelerations come from central divided differences on
    the uniform grid; a constant imaginary quaternion Lambda is fitted by
    least squares to d2w/du2 = -Lambda dw/du.  Negligible total velocity
    change means a line; a good fit with constant speed means a circle of
    radius (mean speed)/|Lambda| about the conserved center
    omega + Lambda^{-1} omega'; anything else is neither.
    """
    N = traj.n_samples
    if N < 8:
        raise TooFewSamples(f"need at least 8 samples for the arc test, got {N}")
    uu = traj.u
    h = float(uu[1] - uu[0])
    if h <= 0 or np.max(np.abs(np.diff(uu) - h)) > 1e-9 * max(abs(h), 1.0):
        raise ValueError("arc test requires a uniform increasing parameter grid")
    om = traj.q[:, 3:]
    v = (om[2:] - om[:-2]) / (2.0 * h)
    a = (om[2:] - 2.0 * om[1:-1] + om[:-2]) / (h * h)
    speeds = np.linalg.norm(v, axis=1)
    vmax = float(np.max(speeds))
    amax = float(np.max(np.linalg.norm(a, axis=1)))
    span = float(uu[-1] - uu[0])

    # line: the velocity change over the whole span is negligible
    if amax * span <= max(1e-6 * vmax, 1e-14):
        residual = amax * span / max(vmax, 1e-300)
        return CircleVerdict("line", None, None, None, residual)

    # rows @ lam = Lambda v_k, 4 rows per sample; C-contiguous, since the
    # misfit is a cancellation whose rounding depends on the layout
    rows = np.stack([qmul(e, v) for e in np.eye(4)[1:]], axis=-1).reshape(-1, 3)
    rhs = -a.reshape(-1)
    lam, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    misfit = float(np.linalg.norm(rows @ lam - rhs))
    scale = float(np.linalg.norm(rhs))
    residual = misfit / max(scale, 1e-300)
    speed_variation = float((np.max(speeds) - np.min(speeds)) / max(vmax, 1e-300))
    lam_norm = float(np.linalg.norm(lam))

    if residual < CIRCLE_RESIDUAL_TOL and speed_variation < CIRCLE_RESIDUAL_TOL and lam_norm > 0.0:
        lam_inv = np.concatenate([[0.0], -lam]) / lam_norm**2
        centers = om[1:-1] + qmul(np.broadcast_to(lam_inv, v.shape), v)
        center = centers.mean(axis=0)
        radius = float(np.mean(np.linalg.norm(om - center[None, :], axis=1)))
        return CircleVerdict("circle", center, radius, lam.copy(), residual)
    return CircleVerdict("neither", None, None, None, residual)
