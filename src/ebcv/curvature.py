"""Curvature of the model metric by exact coordinate differentiation.

The metric components are rational functions of the coordinates through the
conformal factor K, so degree-3 Taylor jets deliver the exact first, second
and third partials of G in one pass (`metric_taylor`).  On top of that the
module evaluates coordinate Christoffel symbols, the fully lowered curvature
tensor converted to the orthonormal frame, Ricci, scalar curvature, and the
frame covariant derivative of the curvature.  R needs the partials of G up to
second order only; the third partials enter through nabla R alone, which
`curvature_bundle` adds on top of the R computation.

Sign/index conventions (fixed across the package):

* ``Gamma[lam, mu, nu] = Gamma^lam_{mu nu}``,
* ``R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
  + Gamma^rho_{mu lam} Gamma^lam_{nu sigma} - Gamma^rho_{nu lam}
  Gamma^lam_{mu sigma}``  (i.e. R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y]),
* frame components ``R[a,b,c,d] = <R(X_a, X_b) X_d, X_c>``,
* ``Ric[a,b] = sum_c R[c,a,c,b]``; ``scal = trace Ric``.

The frame conversion route (coordinates -> frame) is independent of the
Koszul route in `frames.levi_civita_tensor`; the verification suite compares
the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import (
    J_TWIST,
    ModelParams,
    _as_points,
    coframe_matrix,
    frame_derivs,
    frame_matrix,
    frame_second_derivs,
    k_factor,
    levi_civita_tensor,
)
from .jets import Jet


@dataclass(frozen=True)
class MetricTaylor:
    """Exact Taylor data of the metric: G and its first three partials.

    Axis convention: leading batch axes, then derivative indices (e, f, g),
    then the matrix indices (mu, nu).
    """

    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    d3g: np.ndarray


def metric_taylor(q, params: ModelParams) -> MetricTaylor:
    """Evaluate G, dG, d2G, d3G exactly via jet arithmetic."""
    q = _as_points(q)
    k_factor(q, params)  # domain check
    batch = q.shape[:-1]
    uj = [Jet.variable(3 + b, q[..., 3 + b]) for b in range(4)]
    kjet = (
        1.0
        + params.m * (uj[0] * uj[0] + uj[1] * uj[1] + uj[2] * uj[2] + uj[3] * uj[3])
    )
    inv = kjet.reciprocal()
    inv2 = inv * inv
    half_l = 0.5 * params.l
    # B[i][a]: d_{r,s,t}[i]-component of X_{4+a}; each is a single +/- (l/2) u_b.
    B = [
        [
            sum(
                (half_l * J_TWIST[i, a, b]) * uj[b]
                for b in range(4)
                if J_TWIST[i, a, b] != 0.0
            )
            for a in range(4)
        ]
        for i in range(3)
    ]

    g = np.zeros(batch + (7, 7))
    dg = np.zeros(batch + (7, 7, 7))
    d2g = np.zeros(batch + (7, 7, 7, 7))
    d3g = np.zeros(batch + (7, 7, 7, 7, 7))

    def put(mu: int, nu: int, jet: Jet) -> None:
        g[..., mu, nu] = jet.value
        dg[..., :, mu, nu] = jet.gradient()
        d2g[..., :, :, mu, nu] = jet.hessian()
        d3g[..., :, :, :, mu, nu] = jet.third()

    for i in range(3):
        g[..., i, i] = 1.0
    for i in range(3):
        for b in range(4):
            entry = -1.0 * B[i][b] * inv
            put(i, 3 + b, entry)
            put(3 + b, i, entry)
    for a in range(4):
        for b in range(a, 4):
            s = B[0][a] * B[0][b] + B[1][a] * B[1][b] + B[2][a] * B[2][b]
            if a == b:
                s = s + 1.0
            entry = s * inv2
            put(3 + a, 3 + b, entry)
            if b != a:
                put(3 + b, 3 + a, entry)
    return MetricTaylor(g, dg, d2g, d3g)


def _christoffel_layers(mt: MetricTaylor, F: np.ndarray, dF: np.ndarray):
    """Gamma and dGamma in coordinates from exact metric Taylor data.

    The inverse metric and its partials come from the frame closed form
    G^-1 = F F^T (no linear solves anywhere).  Also returns the pieces that
    `_christoffel_second` reuses: (G^-1, dG^-1, t0, t1).
    """
    dg, d2g = mt.dg, mt.d2g
    ginv = np.einsum("...ma,...na->...mn", F, F)
    dginv = np.einsum("...ema,...na->...emn", dF, F) + np.einsum(
        "...ma,...ena->...emn", F, dF
    )

    t0 = (
        np.einsum("...mrn->...rmn", dg)
        + np.einsum("...nrm->...rmn", dg)
        - dg
    )
    t1 = (
        np.einsum("...emrn->...ermn", d2g)
        + np.einsum("...enrm->...ermn", d2g)
        - d2g
    )
    gam = 0.5 * np.einsum("...lr,...rmn->...lmn", ginv, t0)
    dgam = 0.5 * (
        np.einsum("...elr,...rmn->...elmn", dginv, t0)
        + np.einsum("...lr,...ermn->...elmn", ginv, t1)
    )
    return gam, dgam, (ginv, dginv, t0, t1)


def _christoffel_second(mt: MetricTaylor, F: np.ndarray, dF: np.ndarray,
                        d2F: np.ndarray, parts) -> np.ndarray:
    """d2Gamma in coordinates; `parts` is the tail of `_christoffel_layers`."""
    ginv, dginv, t0, t1 = parts
    d3g = mt.d3g
    d2ginv = (
        np.einsum("...efma,...na->...efmn", d2F, F)
        + np.einsum("...ema,...fna->...efmn", dF, dF)
        + np.einsum("...fma,...ena->...efmn", dF, dF)
        + np.einsum("...ma,...efna->...efmn", F, d2F)
    )
    t2 = (
        np.einsum("...efmrn->...efrmn", d3g)
        + np.einsum("...efnrm->...efrmn", d3g)
        - d3g
    )
    return 0.5 * (
        np.einsum("...eflr,...rmn->...eflmn", d2ginv, t0)
        + np.einsum("...elr,...frmn->...eflmn", dginv, t1)
        + np.einsum("...flr,...ermn->...eflmn", dginv, t1)
        + np.einsum("...lr,...efrmn->...eflmn", ginv, t2)
    )


def christoffel(q, params: ModelParams) -> np.ndarray:
    """Coordinate Christoffel symbols Gamma[..., lam, mu, nu]."""
    mt = metric_taylor(q, params)
    F = frame_matrix(q, params)
    dF = frame_derivs(q, params)
    gam, _, _ = _christoffel_layers(mt, F, dF)
    return gam


@dataclass(frozen=True)
class CurvatureBundle:
    """Shared intermediate tensors for curvature-level computations."""

    frame: np.ndarray           # F[..., mu, a]
    coframe: np.ndarray         # Om[..., a, mu]
    gamma_frame: np.ndarray     # Koszul <nabla_a X_b, X_c>  [..., a, b, c]
    riemann: np.ndarray         # R[..., a, b, c, d]
    nabla_riemann: np.ndarray   # (nabla_{X_e} R)[..., e, a, b, c, d]


def _frame_riemann(mt: MetricTaylor, F: np.ndarray, gam: np.ndarray,
                   dgam: np.ndarray):
    """(R^rho_{sigma mu nu}, R_{rho sigma mu nu}, frame R[..., a, b, c, d])."""
    rup = (
        np.einsum("...mrns->...rsmn", dgam)
        - np.einsum("...nrms->...rsmn", dgam)
        + np.einsum("...rml,...lns->...rsmn", gam, gam)
        - np.einsum("...rnl,...lms->...rsmn", gam, gam)
    )
    rlow = np.einsum("...pr,...rsmn->...psmn", mt.g, rup)
    riem = np.einsum(
        "...psmn,...pc,...sd,...ma,...nb->...abcd", rlow, F, F, F, F,
        optimize=True,
    )
    return rup, rlow, riem


def curvature_bundle(q, params: ModelParams) -> CurvatureBundle:
    """Compute frame curvature and its frame covariant derivative at q."""
    q = _as_points(q)
    mt = metric_taylor(q, params)
    F = frame_matrix(q, params)
    dF = frame_derivs(q, params)
    gam, dgam, parts = _christoffel_layers(mt, F, dF)
    rup, rlow, riem = _frame_riemann(mt, F, gam, dgam)
    d2F = frame_second_derivs(q, params)
    d2gam = _christoffel_second(mt, F, dF, d2F, parts)

    drup = (
        np.einsum("...emrns->...ersmn", d2gam)
        - np.einsum("...enrms->...ersmn", d2gam)
        + np.einsum("...erml,...lns->...ersmn", dgam, gam)
        + np.einsum("...rml,...elns->...ersmn", gam, dgam)
        - np.einsum("...ernl,...lms->...ersmn", dgam, gam)
        - np.einsum("...rnl,...elms->...ersmn", gam, dgam)
    )
    drlow = np.einsum("...epr,...rsmn->...epsmn", mt.dg, rup) + np.einsum(
        "...pr,...ersmn->...epsmn", mt.g, drup
    )
    driem = (
        np.einsum("...epsmn,...pc,...sd,...ma,...nb->...eabcd",
                  drlow, F, F, F, F, optimize=True)
        + np.einsum("...psmn,...epc,...sd,...ma,...nb->...eabcd",
                    rlow, dF, F, F, F, optimize=True)
        + np.einsum("...psmn,...pc,...esd,...ma,...nb->...eabcd",
                    rlow, F, dF, F, F, optimize=True)
        + np.einsum("...psmn,...pc,...sd,...ema,...nb->...eabcd",
                    rlow, F, F, dF, F, optimize=True)
        + np.einsum("...psmn,...pc,...sd,...ma,...enb->...eabcd",
                    rlow, F, F, F, dF, optimize=True)
    )
    gfr = levi_civita_tensor(q, params)
    frame_deriv = np.einsum("...me,...mabcd->...eabcd", F, driem)
    nabla = (
        frame_deriv
        - np.einsum("...eaf,...fbcd->...eabcd", gfr, riem)
        - np.einsum("...ebf,...afcd->...eabcd", gfr, riem)
        - np.einsum("...ecf,...abfd->...eabcd", gfr, riem)
        - np.einsum("...edf,...abcf->...eabcd", gfr, riem)
    )
    return CurvatureBundle(F, coframe_matrix(q, params), gfr, riem, nabla)


def riemann_frame(q, params: ModelParams) -> np.ndarray:
    """Fully lowered frame curvature R[..., a, b, c, d] (0-based indices).

    The same values as `curvature_bundle(q, params).riemann`, without the
    third partials and nabla R.
    """
    q = _as_points(q)
    mt = metric_taylor(q, params)
    F = frame_matrix(q, params)
    gam, dgam, _ = _christoffel_layers(mt, F, frame_derivs(q, params))
    return _frame_riemann(mt, F, gam, dgam)[2]


def ricci_from_riemann(riem: np.ndarray) -> np.ndarray:
    """Ric[a,b] = sum_c R[c,a,c,b] of a frame curvature tensor."""
    return np.einsum("...cacb->...ab", riem)


def scalar_from_ricci(ric: np.ndarray) -> np.ndarray:
    """Scalar curvature: the trace of a frame Ricci matrix."""
    return np.einsum("...aa->...", ric)


def ricci_frame(q, params: ModelParams) -> np.ndarray:
    """Ricci tensor in the frame: Ric[a,b] = sum_c R[c,a,c,b]."""
    return ricci_from_riemann(riemann_frame(q, params))


def scalar_curvature(q, params: ModelParams) -> np.ndarray:
    """Scalar curvature: trace of ricci_frame (same computation path)."""
    return scalar_from_ricci(ricci_frame(q, params))


def nabla_riemann_frame(q, params: ModelParams) -> np.ndarray:
    """Frame covariant derivative (nabla_{X_e} R)[..., e, a, b, c, d]."""
    return curvature_bundle(q, params).nabla_riemann


def gamma_frame_coordinate(q, params: ModelParams) -> np.ndarray:
    """Frame connection coefficients computed via the coordinate route.

    <nabla_{X_a} X_b, X_c> = F^mu_a (d_mu F^nu_b + Gamma^nu_{mu lam}
    F^lam_b) g_{nu sigma} F^sigma_c, with g_{nu sigma} F^sigma_c = Om_{c nu}.
    Cross-check for the Koszul route in `frames.levi_civita_tensor`.
    """
    F = frame_matrix(q, params)
    dF = frame_derivs(q, params)
    Om = coframe_matrix(q, params)
    gam = christoffel(q, params)
    covd = dF + np.einsum("...nml,...lb->...mnb", gam, F)
    return np.einsum("...ma,...mnb,...cn->...abc", F, covd, Om, optimize=True)
