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

The second route is the bundle route.  The projection pi(r, s, t, u) = u
is a Riemannian submersion with flat, totally geodesic fibres onto the
space form |du|^2 / K^2 of curvature 4m, and O'Neill's equations (B.
O'Neill, "The fundamental equations of a submersion", Michigan Math. J. 13,
1966) give its connection and curvature in closed form from one tensor,
A = 1/2 V[X, Y] on horizontal X, Y (`gamma_frame_bundle`,
`riemann_frame_bundle`).  It reads only m, l and u, and takes the twist
matrices from the quaternion product, not from the frame.  Ricci and
scalar curvature are contractions of R.

Sign/index conventions (fixed across the package):

* R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y],
* frame components ``R[a,b,c,d] = <R(X_a, X_b) X_d, X_c>``,
* ``Ric[a,b] = sum_c R[c,a,c,b]``; ``scal = trace Ric``.
"""

from __future__ import annotations

import numpy as np

from .frames import ModelParams, _as_points, frame_jet, k_factor
from .quaternions import qmul

_E4 = np.eye(4)

#: _J[i, a, b] = -(e_i E_b)_a for the imaginary units e_1, e_2, e_3 = i, j,
#: k and the unit quaternions E_b: the twist of the vertical field X_{1+i}
#: on the horizontal coordinates u, as the quaternion product gives it.
_J = -np.swapaxes(qmul(_E4[1:, None], _E4[None, :]), -1, -2)


def _bundle_tensors(q, params: ModelParams):
    """K, the base connection h[..., c, a, e] and O'Neill's A[..., a, b, i]
    with its partials dA[..., c, a, b, i] along u_c, at the points q.

    Horizontal a, b, c, e stand for X_{4+a}, vertical i for X_{1+i}.  With
    T[a, b, i] = u_a (J_i u)_b,

        A[a, b, i] = -(l/2) (K J_i[a, b] + m (T[a, b, i] - T[b, a, i])),
        h[c, a, e] = 2m (u_e delta_ca - u_a delta_ce),

    A = 1/2 C on the horizontal pairs, and h the connection of the base
    |du|^2 / K^2 in its frame K d_u.  A is polynomial in u; dA is exact.
    """
    q = _as_points(q)
    K = k_factor(q, params)
    m, l = params.m, params.l
    u = q[..., 3:]
    Ju = np.einsum("iab,...b->...ai", _J, u)  # Ju[..., a, i] = (J_i u)_a
    Jt = np.moveaxis(_J, 0, -1)  # Jt[a, b, i] = J_i[a, b]
    T = u[..., :, None, None] * Ju[..., None, :, :]
    A = -0.5 * l * (K[..., None, None, None] * Jt
                    + m * (T - np.swapaxes(T, -3, -2)))
    # dT[c, a, b, i] = delta_ac (J_i u)_b + u_a J_i[b, c]
    dT = (_E4[:, :, None, None] * Ju[..., None, None, :, :]
          + u[..., None, :, None, None] * np.einsum("bci->cbi", Jt)[:, None])
    dA = -0.5 * l * (2.0 * m * u[..., :, None, None, None] * Jt
                     + m * (dT - np.swapaxes(dT, -3, -2)))
    h = 2.0 * m * (_E4[:, :, None] * u[..., None, None, :]
                   - u[..., None, :, None] * _E4[:, None, :])
    return K, h, A, dA


def gamma_frame_bundle(q, params: ModelParams) -> np.ndarray:
    """Frame connection gamma[..., x, y, z] = <nabla_{X_x} X_y, X_z> by the
    bundle route: the base connection h on horizontal slots, A on
    gamma[a, b, i], -A on gamma[a, i, b] and gamma[i, a, b], and 0 on every
    entry with two or three vertical slots.  Cross-check for the Koszul
    route of `FrameJet.gamma`.
    """
    _, h, A, _ = _bundle_tensors(q, params)
    gam = np.zeros(A.shape[:-3] + (7, 7, 7))
    gam[..., 3:, 3:, 3:] = h
    gam[..., 3:, 3:, :3] = A
    gam[..., 3:, :3, 3:] = -np.swapaxes(A, -1, -2)
    gam[..., :3, 3:, 3:] = -np.moveaxis(A, -1, -3)
    return gam


def riemann_frame_bundle(q, params: ModelParams) -> np.ndarray:
    """Frame curvature R[..., a, b, c, d] by O'Neill's equations.

    With <P, Q> summed over the vertical index, for horizontal a, b, c, d,
    e and vertical i, j:

        R[a,b,c,d] = 4m (delta_ac delta_bd - delta_ad delta_bc)
                     - 2<A_ab, A_cd> - <A_ac, A_bd> + <A_ad, A_bc>,
        R[a,i,c,j] = sum_b A[a,b,j] A[c,b,i],
        R[a,b,i,j] = sum_e (A[a,e,j] A[b,e,i] - A[a,e,i] A[b,e,j]),
        R[a,b,c,i] = K d_{u_c} A[a,b,i] - sum_e h[c,a,e] A[e,b,i]
                     - sum_e h[c,b,e] A[a,e,i];

    the other blocks follow from R's antisymmetries and pair symmetry, and
    the entries with three or four vertical slots are 0.  Cross-check for
    the Cartan route of `FrameJet.R`.
    """
    K, h, A, dA = _bundle_tensors(q, params)
    P = np.einsum("...abi,...cdi->...abcd", A, A)
    hhhh = (4.0 * params.m * (np.einsum("ac,bd->abcd", _E4, _E4)
                              - np.einsum("ad,bc->abcd", _E4, _E4))
            - 2.0 * P - np.einsum("...acbd->...abcd", P)
            + np.einsum("...adbc->...abcd", P))
    hvhv = np.einsum("...abj,...cbi->...aicj", A, A)
    Q = np.einsum("...aej,...bei->...abij", A, A)
    hhvv = Q - np.swapaxes(Q, -1, -2)
    hhhv = (K[..., None, None, None, None] * np.einsum("...cabi->...abci", dA)
            - np.einsum("...cae,...ebi->...abci", h, A)
            - np.einsum("...cbe,...aei->...abci", h, A))
    H, V = slice(3, None), slice(None, 3)
    R = np.zeros(A.shape[:-3] + (7, 7, 7, 7))
    R[..., H, H, H, H] = hhhh
    R[..., H, V, H, V] = hvhv
    R[..., V, H, H, V] = -np.swapaxes(hvhv, -4, -3)
    R[..., H, V, V, H] = -np.swapaxes(hvhv, -2, -1)
    R[..., V, H, V, H] = np.einsum("...aicj->...iajc", hvhv)
    R[..., H, H, V, V] = hhvv
    R[..., V, V, H, H] = np.einsum("...abij->...ijab", hhvv)
    R[..., H, H, H, V] = hhhv
    R[..., H, H, V, H] = -np.swapaxes(hhhv, -2, -1)
    R[..., H, V, H, H] = np.einsum("...abci->...ciab", hhhv)
    R[..., V, H, H, H] = -np.einsum("...abci->...icab", hhhv)
    return R


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
