"""Reference checks on the program's outputs, computed apart from the program.

Each check returns a list of problems (empty when the output is correct).
The references are closed forms or properties the method must have, never
stored copies of an earlier output:

* scalar curvature ``48 m - (3 l^2 / 2)(K^2 + 1)`` with ``K = 1 + m |u|^2``;
* the algebraic symmetries of R, the first Bianchi identity, and Ricci as
  the contraction ``Ric[a, b] = sum_c R[c, a, c, b]``;
* the frame gradient of the scalar curvature,
  ``X_e(scal) = -6 m l^2 K^2 u_e`` on the horizontal fields, which bounds
  Ambrose-Singer residual (ii) from below by ``max_e |X_e(scal)| / 49``;
* the Heisenberg circle radius ``|p_h| / |p_v|`` of a geodesic from the
  origin, and the energy there, ``|p_h|^2 / 2`` (plus ``|p_v|^2 / 2`` in
  Riemannian mode).
"""

from __future__ import annotations

import json
import re

import numpy as np

#: absolute tolerance for identities of the exact (jet) curvature route
TOL_IDENTITY = 1e-9
#: Ambrose-Singer residuals (ii) and (iii) at m = 0
TOL_AS_M0 = 1e-7
#: RK4 against the quaternion closed form, max abs over the final state
TOL_CLOSED_FORM = 1e-9
#: relative circle-radius tolerance (the program's arc-test threshold)
TOL_RADIUS = 1e-4
#: energy drift along a trajectory, relative to max(1, H(0))
TOL_ENERGY = 1e-10

_ELAPSED = re.compile(r'"elapsed": [^,\n]+')


def scalar_reference(q: np.ndarray, m: float, l: float) -> np.ndarray:
    """48 m - (3 l^2 / 2)(K^2 + 1) at each point."""
    K = 1.0 + m * np.sum(q[..., 3:] ** 2, axis=-1)
    return 48.0 * m - 1.5 * l * l * (K * K + 1.0)


def scalar_gradient_bound(q: np.ndarray, m: float, l: float) -> np.ndarray:
    """max_e |X_e(scal)| / 49 at each point, X_e(scal) = -6 m l^2 K^2 u_e."""
    u = q[..., 3:]
    K = 1.0 + m * np.sum(u * u, axis=-1)
    grad = 6.0 * abs(m) * l * l * (K * K)[..., None] * np.abs(u)
    return grad.max(axis=-1) / 49.0


def _worst(name: str, residual, tol: float) -> list[str]:
    worst = float(np.max(np.abs(residual)))
    return [] if worst <= tol else [f"{name}: {worst:.3e} > {tol:.1e}"]


# -- curvature-field -----------------------------------------------------------


def check_curvature(q, m, l, riem, ric, scal, as_res) -> list[str]:
    """Check R, Ric, scal and the Ambrose-Singer residuals at points q."""
    problems = []
    problems += _worst("scalar curvature vs 48m-(3l^2/2)(K^2+1)",
                       scal - scalar_reference(q, m, l), TOL_IDENTITY)
    problems += _worst("R antisymmetry in (a, b)",
                       riem + np.einsum("...abcd->...bacd", riem), TOL_IDENTITY)
    problems += _worst("R antisymmetry in (c, d)",
                       riem + np.einsum("...abcd->...abdc", riem), TOL_IDENTITY)
    problems += _worst("R pair symmetry",
                       riem - np.einsum("...abcd->...cdab", riem), TOL_IDENTITY)
    bianchi = (riem + np.einsum("...abcd->...bcad", riem)
               + np.einsum("...abcd->...cabd", riem))
    problems += _worst("first Bianchi identity", bianchi, TOL_IDENTITY)
    problems += _worst("Ricci vs the contraction of R",
                       ric - np.einsum("...cacb->...ab", riem), TOL_IDENTITY)
    problems += _worst("Ricci symmetry", ric - np.swapaxes(ric, -1, -2), TOL_IDENTITY)
    problems += _worst("trace of Ricci vs scalar curvature",
                       np.einsum("...aa->...", ric) - scal, TOL_IDENTITY)

    res_i, res_ii, res_iii = as_res[..., 0], as_res[..., 1], as_res[..., 2]
    if np.any(res_i != 0.0):
        problems.append(f"Ambrose-Singer residual (i) is not 0: {np.abs(res_i).max():.3e}")
    bound = scalar_gradient_bound(q, m, l)
    short = bound * (1.0 - 1e-9) - res_ii
    if np.any(short > 0.0):
        k = int(np.argmax(short))
        problems.append(
            f"Ambrose-Singer residual (ii) {res_ii.flat[k]:.6e} is below the "
            f"scalar-gradient bound {bound.flat[k]:.6e}"
        )
    if m == 0.0:
        problems += _worst("Ambrose-Singer residual (ii) at m = 0", res_ii, TOL_AS_M0)
        problems += _worst("Ambrose-Singer residual (iii) at m = 0", res_iii, TOL_AS_M0)
    return problems


# -- verify-sweep --------------------------------------------------------------


def without_elapsed(text: str) -> str:
    """The report text with the elapsed time blanked out."""
    return _ELAPSED.sub('"elapsed": null', text)


def check_verify_report(text: str, m: float, l: float) -> list[str]:
    """Check one `ebcv verify --format json` report at (m, l)."""
    rows = {row["id"]: row for row in json.loads(text)["checks"]}
    problems = [f"row {cid} is 'fail'" for cid, row in rows.items()
                if row["status"] == "fail"]

    scal = rows["scalar-vs-corollary"]
    want = "paper-discrepancy" if l != 0.0 else "pass"
    if scal["status"] != want:
        problems.append(f"scalar-vs-corollary is {scal['status']}, expected {want}")
    if l != 0.0:
        q = np.asarray(scal["witness"], dtype=float)
        K = 1.0 + m * float(q[3:] @ q[3:])
        gap = 1.5 * l * l * (K * K + 1.0)
        if abs(scal["max_residual"] - gap) > 1e-9 * gap:
            problems.append(
                f"scalar-vs-corollary residual {scal['max_residual']!r} is not "
                f"(3l^2/2)(K^2+1) = {gap!r} at the witness point"
            )
    elif scal["max_residual"] > TOL_IDENTITY:
        problems.append(f"scalar-vs-corollary residual {scal['max_residual']!r} at l = 0")

    want = "paper-discrepancy" if m * l != 0.0 else "pass"
    if rows["as-equations"]["status"] != want:
        problems.append(
            f"as-equations is {rows['as-equations']['status']}, expected {want}"
        )
    return problems


# -- geodesic-fan ---------------------------------------------------------------


def _check_flow(p0, traj, h0, n) -> list[str]:
    problems = []
    if traj.n_samples != n + 1:
        problems.append(f"{traj.n_samples - 1} accepted steps, expected {n}")
    scale = max(1.0, h0)
    problems += _worst("recorded H(0) vs the energy at the origin",
                       traj.H[0] - h0, 1e-12 * scale)
    problems += _worst("Hamiltonian drift", traj.H - h0, TOL_ENERGY * scale)
    problems += _worst("vertical momenta drift", traj.p[:, :3] - p0[:3],
                       1e-13 * max(1.0, float(np.abs(p0[:3]).max())))
    return problems


def check_heisenberg(p0, n, rk, cf, verdict) -> list[str]:
    """RK4 run from the origin at (0, 1), its closed form and its arc test."""
    ph, pv = p0[3:], p0[:3]
    problems = _check_flow(p0, rk, 0.5 * float(ph @ ph), n)
    problems += _worst("RK4 endpoint vs closed form",
                       np.concatenate([rk.q[-1] - cf.q[-1], rk.p[-1] - cf.p[-1]]),
                       TOL_CLOSED_FORM)
    radius = float(np.linalg.norm(ph) / np.linalg.norm(pv))
    if verdict.kind != "circle":
        problems.append(f"arc test says {verdict.kind}, expected circle")
    elif abs(verdict.radius - radius) > TOL_RADIUS * radius:
        problems.append(f"circle radius {verdict.radius!r}, expected |p_h|/|p_v| = {radius!r}")
    return problems


def check_riemannian(p0, n, traj) -> list[str]:
    """Riemannian-mode run from the origin."""
    return _check_flow(p0, traj, 0.5 * float(p0 @ p0), n)
