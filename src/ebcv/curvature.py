"""Curvature of the model metric in the orthonormal frame, by two routes.

The primary route is Cartan's, kept on the frame jet (`FrameJet.R`): R
comes from the jet's structure constants C, the Koszul connection gamma and
its frame derivatives X_x gamma = Koszul(X_x C); `FrameJet.xR`
differentiates that formula once more, through the second partials d2C,
and `FrameJet.nabla_R` subtracts the gamma.R terms from it.
The frame depends only on the horizontal coordinates u = (w, x, y, z), so
the jet keeps the partials of C along u alone, and X_x C and X_e X_x C
vanish unless x and e are horizontal (X_4..X_7, where X = K d_u); the
vertical slices of nabla R are its gamma.R terms alone.
With ``gamma[x, y, z] = <nabla_{X_x} X_y, X_z>``,

    R[a,b,c,d] = X_a gamma_bdc - X_b gamma_adc + gamma_bdf gamma_afc
                 - gamma_adf gamma_bfc - C_abf gamma_fdc.

The second route is in coordinates.  The metric components are rational
functions of the coordinates through the conformal factor K, so degree-2
Taylor jets deliver the exact first and second partials of G in one pass
(`metric_taylor`); from them come the coordinate Christoffel symbols, the
coordinate curvature and its frame components (`riemann_frame_coordinate`),
and the frame connection (`gamma_frame_coordinate`).  Ricci and scalar
curvature are contractions of R.

Sign/index conventions (fixed across the package):

* ``Gamma[lam, mu, nu] = Gamma^lam_{mu nu}``,
* ``R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
  + Gamma^rho_{mu lam} Gamma^lam_{nu sigma} - Gamma^rho_{nu lam}
  Gamma^lam_{mu sigma}``  (i.e. R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y]),
* frame components ``R[a,b,c,d] = <R(X_a, X_b) X_d, X_c>``,
* ``Ric[a,b] = sum_c R[c,a,c,b]``; ``scal = trace Ric``.

The coordinate route is independent of the frame route for both the
connection and the curvature; the verification suite compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import J_TWIST, ModelParams, _as_points, frame_jet, k_factor
from .jets import Jet


@dataclass(frozen=True)
class MetricTaylor:
    """Exact Taylor data of the metric: G and its first two partials.

    Axis convention: leading batch axes, then derivative indices (e, f, g),
    then the matrix indices (mu, nu).
    """

    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


def metric_taylor(q, params: ModelParams) -> MetricTaylor:
    """Evaluate G, dG, d2G exactly via jet arithmetic."""
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

    def put(mu: int, nu: int, jet: Jet) -> None:
        g[..., mu, nu] = jet.value
        dg[..., :, mu, nu] = jet.gradient()
        d2g[..., :, :, mu, nu] = jet.hessian()

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
    return MetricTaylor(g, dg, d2g)


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """2 Gamma_{r m n} = d_m g_rn + d_n g_rm - d_r g_mn from the metric
    partials dg[..., r, m, n]; on their partials it gives its own."""
    return (
        np.einsum("...mrn->...rmn", dg)
        + np.einsum("...nrm->...rmn", dg)
        - dg
    )


def _christoffel_layers(mt: MetricTaylor, F: np.ndarray, dF: np.ndarray):
    """Gamma and dGamma in coordinates from exact metric Taylor data.

    The inverse metric and its partials come from the frame closed form
    G^-1 = F F^T (no linear solves anywhere).
    """
    ginv = np.einsum("...ma,...na->...mn", F, F)
    dginv = np.einsum("...ema,...na->...emn", dF, F) + np.einsum(
        "...ma,...ena->...emn", F, dF
    )
    t0, t1 = _first_kind(mt.dg), _first_kind(mt.d2g)
    gam = 0.5 * np.einsum("...lr,...rmn->...lmn", ginv, t0)
    dgam = 0.5 * (
        np.einsum("...elr,...rmn->...elmn", dginv, t0)
        + np.einsum("...lr,...ermn->...elmn", ginv, t1)
    )
    return gam, dgam


def christoffel(q, params: ModelParams) -> np.ndarray:
    """Coordinate Christoffel symbols Gamma[..., lam, mu, nu]."""
    fr = frame_jet(q, params)
    ginv = np.einsum("...ma,...na->...mn", fr.F, fr.F)
    t0 = _first_kind(metric_taylor(fr.q, params).dg)
    return 0.5 * np.einsum("...lr,...rmn->...lmn", ginv, t0)


def riemann_frame_coordinate(q, params: ModelParams) -> np.ndarray:
    """Frame curvature R[..., a, b, c, d] computed via the coordinate route.

    R^rho_{sigma mu nu} from the coordinate Christoffels, lowered with G and
    converted to the frame.  Cross-check for the Cartan route of
    `riemann_frame`.
    """
    fr = frame_jet(q, params)
    F = fr.F
    mt = metric_taylor(fr.q, params)
    gam, dgam = _christoffel_layers(mt, F, fr.dF)
    rup = (
        np.einsum("...mrns->...rsmn", dgam)
        - np.einsum("...nrms->...rsmn", dgam)
        + np.einsum("...rml,...lns->...rsmn", gam, gam)
        - np.einsum("...rnl,...lms->...rsmn", gam, gam)
    )
    rlow = np.einsum("...pr,...rsmn->...psmn", mt.g, rup)
    return np.einsum(
        "...psmn,...pc,...sd,...ma,...nb->...abcd", rlow, F, F, F, F,
        optimize=True,
    )


def riemann_frame(q, params: ModelParams) -> np.ndarray:
    """Fully lowered frame curvature R[..., a, b, c, d] (0-based indices).

    `FrameJet.R` of the points q, evaluated in fixed chunks, so only the
    output grows with their number.
    """
    (riem,) = frame_jet(q, params)._chunked(lambda fr: (fr.R,))
    return riem


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


def gamma_frame_coordinate(q, params: ModelParams) -> np.ndarray:
    """Frame connection coefficients computed via the coordinate route.

    <nabla_{X_a} X_b, X_c> = F^mu_a (d_mu F^nu_b + Gamma^nu_{mu lam}
    F^lam_b) g_{nu sigma} F^sigma_c, with g_{nu sigma} F^sigma_c = Om_{c nu}.
    Cross-check for the Koszul route in `frames.levi_civita_tensor`.
    """
    fr = frame_jet(q, params)
    F = fr.F
    covd = fr.dF + np.einsum("...nml,...lb->...mnb", christoffel(fr, params), F)
    return np.einsum("...ma,...mnb,...cn->...abc", F, covd, fr.Om, optimize=True)
