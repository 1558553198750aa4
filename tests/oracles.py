"""Independent oracles for the test suite.

Everything here is built directly from the displayed formulas for the frame
and the coframe, transcribed term by term — deliberately NOT sharing code
with the package (no twist-matrix encoding, no block inverses), so agreement
between package and oracle is meaningful.  Derivative oracles use central
finite differences only.
"""

from __future__ import annotations

import math

import numpy as np

# coordinate order (r, s, t, w, x, y, z) = indices 0..6


def k_oracle(q, m):
    r, s, t, w, x, y, z = q
    return 1.0 + m * (w * w + x * x + y * y + z * z)


def frame_oracle(q, m, l):
    """Columns X_1..X_7 typed from the displayed frame list, one by one."""
    r, s, t, w, x, y, z = q
    K = k_oracle(q, m)
    cols = [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [l * x / 2, l * y / 2, l * z / 2, K, 0, 0, 0],
        [-l * w / 2, -l * z / 2, l * y / 2, 0, K, 0, 0],
        [l * z / 2, -l * w / 2, -l * x / 2, 0, 0, K, 0],
        [-l * y / 2, l * x / 2, -l * w / 2, 0, 0, 0, K],
    ]
    return np.array(cols, dtype=float).T


def coframe_oracle(q, m, l):
    """Rows omega^1..omega^7 typed from the displayed one-forms."""
    r, s, t, w, x, y, z = q
    K = k_oracle(q, m)
    c = l / (2.0 * K)
    rows = [
        [1, 0, 0, -c * x, c * w, -c * z, c * y],
        [0, 1, 0, -c * y, c * z, c * w, -c * x],
        [0, 0, 1, -c * z, -c * y, c * x, c * w],
        [0, 0, 0, 1 / K, 0, 0, 0],
        [0, 0, 0, 0, 1 / K, 0, 0],
        [0, 0, 0, 0, 0, 1 / K, 0],
        [0, 0, 0, 0, 0, 0, 1 / K],
    ]
    return np.array(rows, dtype=float)


def metric_oracle(q, m, l):
    """G = sum_a omega^a (x) omega^a from the coframe oracle."""
    W = coframe_oracle(q, m, l)
    return W.T @ W


# --- finite differences ----------------------------------------------------


def fd_gradient(f, q, h=1e-5):
    """Central-difference gradient of scalar/array-valued f over the 7 coords."""
    q = np.asarray(q, dtype=float)
    out = []
    for e in range(7):
        dq = np.zeros(7)
        dq[e] = h
        out.append((np.asarray(f(q + dq)) - np.asarray(f(q - dq))) / (2 * h))
    return np.stack(out, axis=0)


def fd_metric_derivs(q, m, l, h=1e-5):
    """dG[e, mu, nu] by central differences of the metric oracle."""
    return fd_gradient(lambda qq: metric_oracle(qq, m, l), q, h)


def christoffel_oracle(q, m, l, h=1e-5):
    """Gamma^lam_{mu nu} from the metric oracle with FD first derivatives."""
    G = metric_oracle(q, m, l)
    Ginv = np.linalg.inv(G)
    dG = fd_metric_derivs(q, m, l, h)
    # Gamma[lam, mu, nu] = 1/2 Ginv[lam, rho] (dG[mu, rho nu] + dG[nu, rho mu]
    #                                          - dG[rho, mu nu])
    term = (
        np.einsum("mrn->rmn", dG)
        + np.einsum("nrm->rmn", dG)
        - np.einsum("rmn->rmn", dG)
    )
    return 0.5 * np.einsum("lr,rmn->lmn", Ginv, term)


def bracket_oracle(a, b, q, m, l, h=1e-5):
    """[X_a, X_b] in frame components, via FD of the frame-oracle columns.

    a, b are 1-based frame indices.
    """
    q = np.asarray(q, dtype=float)
    Xa = frame_oracle(q, m, l)[:, a - 1]
    Xb = frame_oracle(q, m, l)[:, b - 1]
    dF = fd_gradient(lambda qq: frame_oracle(qq, m, l), q, h)  # [e, mu, col]
    vec = Xa @ dF[:, :, b - 1] - Xb @ dF[:, :, a - 1]
    return coframe_oracle(q, m, l) @ vec


def riemann_oracle(q, m, l, h=1e-4):
    """Fully lowered frame curvature by second-order FD of the metric oracle.

    Convention: R[a,b,c,d] = <R(X_a, X_b) X_d, X_c> with
    R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_{[X,Y]}.
    Accuracy is limited by the FD stencils (~1e-5); use for cross-checks only.
    """
    q = np.asarray(q, dtype=float)

    def gamma(qq):
        return christoffel_oracle(qq, m, l, h=h)

    dGamma = fd_gradient(gamma, q, h=h)  # [e, lam, mu, nu]
    Gam = gamma(q)
    # R^rho_{sigma mu nu} = d_mu Gam[rho, nu, sigma] - d_nu Gam[rho, mu, sigma]
    #                      + Gam[rho, mu, lam] Gam[lam, nu, sigma]
    #                      - Gam[rho, nu, lam] Gam[lam, mu, sigma]
    Rup = (
        np.einsum("mrns->rsmn", dGamma)
        - np.einsum("nrms->rsmn", dGamma)
        + np.einsum("rml,lns->rsmn", Gam, Gam)
        - np.einsum("rnl,lms->rsmn", Gam, Gam)
    )
    G = metric_oracle(q, m, l)
    Rlow = np.einsum("pr,rsmn->psmn", G, Rup)
    F = frame_oracle(q, m, l)
    return np.einsum("psmn,pc,sd,ma,nb->abcd", Rlow, F, F, F, F)


# --- Ambrose-Singer equations in commutator form ---------------------------


def ambrose_singer_commutator_oracle(fr):
    """Max residuals (..., 3) of the Ambrose-Singer equations at the points
    of a frame jet, in the commutator form of their statement:

        (i)   S_abc + S_acb = 0,
        (ii)  nabla_e R_abcd = S_efc R_abfd - R_abcf S_edf
                               - S_eaf R_fbcd - S_ebf R_afcd,
        (iii) (nabla_e S)_fdc = S_egc S_fdg - S_fgc S_edg - S_efg S_gdc,

    with nabla the Levi-Civita connection and S the skew completion of the
    reduced torsion -V[X_a, X_b] (a, b horizontal, V the vertical part).
    It reads C, dC, gamma, R and nabla R from the jet and builds S, its
    partials and nabla S here.
    """
    def skew(T):  # (1/2)(-T_abc + T_bca - T_cab)
        return 0.5 * (-T + np.einsum("...bca->...abc", T)
                      - np.einsum("...cab->...abc", T))

    def reduced(C):  # -C on (a, b horizontal, c vertical), else 0
        T = np.zeros_like(C)
        T[..., 3:, 3:, :3] = -C[..., 3:, 3:, :3]
        return T

    def ein(spec, *ops):  # pairwise through batched matmul, as numpy routes it
        return np.einsum(spec, *ops, optimize=True)

    gam, R, nabR = fr.gamma, fr.R, fr.nabla_R
    S = skew(reduced(fr.C))
    nabS = -(ein("...eag,...gbc->...eabc", gam, S)
             + ein("...ebg,...agc->...eabc", gam, S)
             + ein("...ecg,...abg->...eabc", gam, S))
    # X_e S = K d_{e-3} S on horizontal e, zero on vertical e
    nabS[..., 3:, :, :, :] += fr.K[..., None, None, None, None] * skew(
        reduced(fr.dC))

    res_i = np.abs(S + np.einsum("...abc->...acb", S)).max(axis=(-3, -2, -1))
    rhs_ii = (ein("...efc,...abfd->...eabcd", S, R)
              - ein("...abcf,...edf->...eabcd", R, S)
              - ein("...eaf,...fbcd->...eabcd", S, R)
              - ein("...ebf,...afcd->...eabcd", S, R))
    res_ii = np.abs(nabR - rhs_ii).max(axis=(-5, -4, -3, -2, -1))
    rhs_iii = (ein("...egc,...fdg->...efcd", S, S)
               - ein("...fgc,...edg->...efcd", S, S)
               - ein("...efg,...gdc->...efcd", S, S))
    res_iii = np.abs(np.einsum("...efdc->...efcd", nabS) - rhs_iii).max(
        axis=(-4, -3, -2, -1))
    return np.stack([res_i, res_ii, res_iii], axis=-1)


# --- the RK4 step, transcribed for bit-for-bit comparison ------------------

# J_i, i = r, s, t, as the 4x4 blocks (J_i)_{bd} of the vertical frame
# components (l/2) (J_i u)_b; an independent copy of `frames.J_TWIST`
_TWIST = np.array([
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
], dtype=float)


def flow_reference(y, m, l, riemannian):
    """K, H and the derivative of y = (q, p), as the integrator computed
    them with `@` products and a concatenated result.

    Unlike the oracles above this one is not independent: it transcribes
    the flow kernel operation by operation, so that every product and sum
    has the same operands in the same order and its result is a reference
    for the integrator's bits, not for its mathematics.
    """
    Jl = 0.5 * l * _TWIST
    u, pv, ph = y[3:7], y[7:10], y[10:]
    K = 1.0 + m * float(u @ u)
    B = Jl @ u
    Ph = pv @ B + K * ph
    H = 0.5 * float(Ph @ Ph)
    qv = B @ Ph
    M = (pv @ Jl.reshape(3, 16)).reshape(4, 4) + (2.0 * m) * (ph[:, None] * u)
    if riemannian:
        H += 0.5 * float(pv @ pv)
        qv += pv
    return K, H, np.concatenate((qv, K * Ph, np.zeros(3), -(Ph @ M)))


def rk4_reference(q, p, m, l, riemannian, h, n):
    """(status, exit_step, u, q, p, H) of n classical RK4 steps of size h,
    transcribed from the integrator with a list of stage derivatives and
    fresh arrays at every operation; None for an initial state that the
    integrator refuses (outside the chart, or with a non-finite energy)."""
    y = np.concatenate((np.asarray(q, dtype=float), np.asarray(p, dtype=float)))
    ys, Hs = [], []
    status, exit_step = "complete", None
    with np.errstate(over="ignore", invalid="ignore"):
        K, H, dy = flow_reference(y, m, l, riemannian)
        if not math.isfinite(K) or K <= 0.0 or not math.isfinite(H):
            return None
        ys.append(y)
        Hs.append(H)
        for k in range(1, n + 1):
            fault = None
            dys = [dy]
            for coeff in (0.5, 0.5, 1.0):
                ya = y + (coeff * h) * dys[-1]
                if not np.isfinite(ya).all():
                    fault = "step-rejected"
                    break
                Ka, _, dya = flow_reference(ya, m, l, riemannian)
                if not (math.isfinite(Ka) and Ka > 0.0):
                    fault = "domain-exit" if math.isfinite(Ka) else "step-rejected"
                    break
                dys.append(dya)
            if not fault:
                y = y + (h / 6.0) * (dys[0] + 2.0 * dys[1] + 2.0 * dys[2] + dys[3])
                if not np.isfinite(y).all():
                    fault = "step-rejected"
                else:
                    K, H, dy = flow_reference(y, m, l, riemannian)
                    if K <= 0.0:
                        fault = "domain-exit"
                    elif not math.isfinite(H):
                        fault = "step-rejected"
            if fault:
                status, exit_step = fault, k
                break
            ys.append(y)
            Hs.append(H)
    ys = np.array(ys)
    return (status, exit_step, np.arange(len(ys)) * h, ys[:, :7].copy(),
            ys[:, 7:].copy(), np.array(Hs))
