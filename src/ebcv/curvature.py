"""Curvature of the model metric in the orthonormal frame, by two routes.

The primary route is Cartan's: R comes from the frame jet's structure
constants C, the Koszul connection gamma and its frame derivatives
X_x gamma = Koszul(X_x C); nabla R differentiates that formula once more,
through the second partials d2C (`curvature_bundle`).  With
``gamma[x, y, z] = <nabla_{X_x} X_y, X_z>``,

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

from .frames import (J_TWIST, FrameJet, ModelParams, _as_points, _koszul,
                     frame_jet, k_factor)
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


def _christoffel_layers(mt: MetricTaylor, F: np.ndarray, dF: np.ndarray):
    """Gamma and dGamma in coordinates from exact metric Taylor data.

    The inverse metric and its partials come from the frame closed form
    G^-1 = F F^T (no linear solves anywhere).
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
    return gam, dgam


def christoffel(q, params: ModelParams) -> np.ndarray:
    """Coordinate Christoffel symbols Gamma[..., lam, mu, nu]."""
    fr = frame_jet(q, params)
    gam, _ = _christoffel_layers(metric_taylor(fr.q, params), fr.F, fr.dF)
    return gam


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


@dataclass(frozen=True)
class CurvatureBundle:
    """Shared intermediate tensors for curvature-level computations."""

    gamma_frame: np.ndarray     # Koszul <nabla_a X_b, X_c>  [..., a, b, c]
    riemann: np.ndarray         # R[..., a, b, c, d]
    nabla_riemann: np.ndarray   # (nabla_{X_e} R)[..., e, a, b, c, d]


def _cartan_riemann(C: np.ndarray, gam: np.ndarray,
                    xgam: np.ndarray) -> np.ndarray:
    """R[..., a, b, c, d] from C, gamma and xgam[x, a, b, c] = X_x gamma_abc."""
    S = np.einsum("...abdc->...abcd", xgam) + np.einsum(
        "...bdf,...afc->...abcd", gam, gam)
    return (S - np.einsum("...bacd->...abcd", S)
            - np.einsum("...abf,...fdc->...abcd", C, gam))


#: Points per evaluation chunk.  A call holds the temporaries of one chunk
#: at a time, so its peak beyond the output arrays does not grow with the
#: point count; and up to 64 points a point's value does not depend on the
#: other points of its chunk.  Chunks of 16, 32 and 64 run alike; smaller
#: ones run slower.
_CHUNK = 32


def _chunked(fr: FrameJet, body) -> tuple:
    """body over the points of jet fr, in chunks of at most _CHUNK points.

    body(sub) gets the jet of a chunk of fr's flattened points and returns
    a tuple of arrays with one row per point.  These are written into
    arrays allocated up front, in the memory layout of the chunk's, which
    come back with fr's batch shape.  A single point of shape (7,) is
    passed through whole; an empty batch runs one empty chunk.
    """
    batch = fr.q.shape[:-1]
    if not batch:
        return body(fr)
    n = fr.q.size // 7
    outs = None
    for start in range(0, max(n, 1), _CHUNK):
        rows = slice(start, start + _CHUNK)
        got = body(fr._rows(rows))
        if outs is None:
            # the chunk's memory layout, which sets the summation order of
            # einsums that later read the output
            outs = [np.empty_like(g, shape=(n,) + g.shape[1:]) for g in got]
        for out, g in zip(outs, got):
            out[rows] = g
    return tuple(out.reshape(batch + out.shape[1:]) for out in outs)


def _riemann(fr: FrameJet):
    """xC[e, a, b, c] = X_e C_abc, xgam = Koszul(xC) and R by Cartan."""
    xC = np.einsum("...me,...mabc->...eabc", fr.F, fr.dC)
    xgam = _koszul(xC)
    return xC, xgam, _cartan_riemann(fr.C, fr.gamma, xgam)


def _bundle(fr: FrameJet):
    """gamma, R and nabla R of the points of fr, in one piece."""
    F, C, gam, dC = fr.F, fr.C, fr.gamma, fr.dC
    xC, xgam, riem = _riemann(fr)

    # X_e X_x C = F^mu_e F^nu_x d2C_{mu nu} + (X_e F^nu_x) dC_nu
    xxgam = _koszul(
        np.einsum("...me,...nx,...mnabc->...exabc", F, F, fr.d2C, optimize=True)
        + np.einsum("...me,...mnx,...nabc->...exabc", F, fr.dF, dC,
                    optimize=True)
    )
    xS = (
        np.einsum("...eabdc->...eabcd", xxgam)
        + np.einsum("...ebdf,...afc->...eabcd", xgam, gam, optimize=True)
        + np.einsum("...bdf,...eafc->...eabcd", gam, xgam, optimize=True)
    )
    nabla = (
        xS - np.einsum("...ebacd->...eabcd", xS)
        - np.einsum("...eabf,...fdc->...eabcd", xC, gam, optimize=True)
        - np.einsum("...abf,...efdc->...eabcd", C, xgam, optimize=True)
        - np.einsum("...eaf,...fbcd->...eabcd", gam, riem, optimize=True)
        - np.einsum("...ebf,...afcd->...eabcd", gam, riem, optimize=True)
        - np.einsum("...ecf,...abfd->...eabcd", gam, riem, optimize=True)
        - np.einsum("...edf,...abcf->...eabcd", gam, riem, optimize=True)
    )
    return gam, riem, nabla


def curvature_bundle(q, params: ModelParams) -> CurvatureBundle:
    """Compute frame curvature and its frame covariant derivative at q.

    X_e R is R's formula differentiated once more: X_e X_a gamma comes from
    d2C, the products by the Leibniz rule.  The points are evaluated in
    fixed chunks, so only the output grows with their number.
    """
    return CurvatureBundle(*_chunked(frame_jet(q, params), _bundle))


def riemann_frame(q, params: ModelParams) -> np.ndarray:
    """Fully lowered frame curvature R[..., a, b, c, d] (0-based indices).

    The same values as `curvature_bundle(q, params).riemann`, without
    nabla R.
    """
    (riem,) = _chunked(frame_jet(q, params), lambda fr: _riemann(fr)[2:])
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
