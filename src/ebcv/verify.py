"""Verification registry: library invariants plus printed-table comparisons.

``run_verify`` draws a deterministic point sample, executes every check, and
assembles a report sorted by check id.  Three statuses exist:

* ``pass`` — the quantity matched its reference within tolerance;
* ``fail`` — two *independent computations of the same object* disagree
  (an internal inconsistency; the only status that fails the run);
* ``paper-discrepancy`` — the exact value disagrees with a printed
  expression.  These records always quote both the printed expression and
  the oracle value, and never fail the run.

Printed expressions come from the shipped table document, so the errata
list lives in data, not code.  A few checks evaluate at a parameter
specialization of their table (the m = 0 tables, the Killing family, the
fixed-parameter geodesic system); their records say so.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import published_tables as pt
from .curvature import (
    curvature_bundle,
    gamma_frame_coordinate,
    ricci_from_riemann,
    riemann_frame,
    riemann_frame_coordinate,
    scalar_from_ricci,
)
from .frames import (
    FrameJet,
    ModelParams,
    bcv_classify,
    bracket_frame,
    coframe_matrix,
    frame_matrix,
    levi_civita_frame,
    levi_civita_tensor,
    metric_matrix,
    sample_domain_points,
    structure_constants,
)
from .geodesics import (
    CotangentState,
    circle_check,
    closed_form_trajectory,
    frame_momenta,
    generic_rhs_momentum_chart,
    integrate,
    poisson_check,
    printed_heisenberg_rhs,
)
from .homogeneous import (
    ambrose_singer_check,
    c12_trace,
    candidate_structure_tensor,
    char_connection_tensor,
    classify_structure,
    cyclic_sum,
    faithful_torsion_tensor,
    torsion_D,
    torsion_D_tensor,
    torsion_parallelism_residual,
)
from .killing import (
    basis_rank,
    frame_unit_field,
    killing_basis_m0,
    killing_residual,
    pde_residuals,
)
from .tolerances import TOL_EXACT, TOL_FD, TOL_RICCI, TOL_TABLE

__all__ = ["CheckResult", "VerifyReport", "run_verify"]

DEFAULT_BOX = 0.5
DEFAULT_K_MIN = 0.1

HEIS = ModelParams(0.0, 1.0)


@dataclass(frozen=True)
class CheckResult:
    """One row of the verification report."""

    id: str
    status: str  # pass | fail | paper-discrepancy
    max_residual: float | None
    witness: list | None
    reference: str
    details: str = ""
    printed: str | None = None
    oracle: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "max_residual": self.max_residual,
            "witness": self.witness,
            "reference": self.reference,
            "details": self.details,
            "printed": self.printed,
            "oracle": self.oracle,
        }


@dataclass(frozen=True)
class VerifyReport:
    m: float
    l: float
    seed: int
    samples: int
    tol_scale: float
    elapsed: float
    checks: tuple = field(default_factory=tuple)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "paper-discrepancy": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.counts["fail"] else 0

    def to_json_dict(self) -> dict:
        return {
            "summary": {
                "params": {"m": self.m, "l": self.l},
                "seed": self.seed,
                "samples": self.samples,
                "tol_scale": self.tol_scale,
                "box": [-DEFAULT_BOX, DEFAULT_BOX],
                "k_min": DEFAULT_K_MIN,
                "elapsed": self.elapsed,
                "counts": self.counts,
            },
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [
            f"verification report for (m, l) = ({self.m:g}, {self.l:g})",
            f"samples={self.samples} seed={self.seed} "
            f"box=[-{DEFAULT_BOX},{DEFAULT_BOX}]^7 K>{DEFAULT_K_MIN} "
            f"tol-scale={self.tol_scale:g}",
            "",
        ]
        width = max(len(c.id) for c in self.checks)
        for c in self.checks:
            res = "" if c.max_residual is None else f"  max-res={c.max_residual:.3e}"
            lines.append(f"[{c.status:>17}] {c.id:<{width}}{res}")
            if c.status == "paper-discrepancy":
                lines.append(f"{'':>20} printed: {c.printed}")
                lines.append(f"{'':>20} oracle:  {c.oracle}")
        cnt = self.counts
        lines.append("")
        lines.append(
            f"{cnt['pass']} pass, {cnt['fail']} fail, "
            f"{cnt['paper-discrepancy']} paper-discrepancy "
            f"({self.elapsed:.2f} s)"
        )
        return "\n".join(lines)


class _Ctx:
    """Everything the individual checks need, sampled once.

    Of the sample's curvature it keeps R, Ricci and the scalar; nabla R is
    built only on the few points whose checks read it (`curvature`).
    """

    def __init__(self, m, l, samples, seed, tol_scale):
        self.params = ModelParams(m, l)
        self.samples = samples
        self.seed = seed
        self.scale = tol_scale
        self.pts = sample_domain_points(self.params, samples, seed=seed)
        self.params0 = ModelParams(0.0, l)
        self.pts0 = sample_domain_points(self.params0, samples, seed=seed)
        # the Killing family and the geodesic system are specific to m = 0;
        # at l = 0 the former degenerates, so substitute l = 1 with a note
        self.l_kill = l if l != 0.0 else 1.0
        self.params_kill = ModelParams(0.0, self.l_kill)
        # at least 2 points so the 13-field rank is certifiable (7 columns each)
        self.pts_kill = sample_domain_points(
            self.params_kill, min(max(samples, 3), 40), seed=seed
        )
        self.doc = pt.load_tables()
        self._cache = {}
        self.jet = self.frame_jet(self.pts, self.params)
        self.jet0 = self.frame_jet(self.pts0, self.params0)
        self.jet_kill = self.frame_jet(self.pts_kill, self.params_kill)
        self.R = riemann_frame(self.jet, self.params)
        self.ric = ricci_from_riemann(self.R)
        self.scal = scalar_from_ricci(self.ric)

    def tol(self, base: float) -> float:
        return base * self.scale

    def cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def frame_jet(self, pts, params):
        """The one frame jet of a point set; equal sets share it (at m = 0
        the two samples, and often the Killing sample, coincide)."""
        return self.cached(
            ("jet", pts.shape, pts.tobytes(), params),
            lambda: FrameJet(pts, params),
        )

    def curvature(self, pts, params):
        """The one curvature bundle (gamma, R, nabla R) of a point set; equal
        sets share it, as at m = 0 the two 12-point sets do."""
        return self.cached(
            ("curvature", pts.shape, pts.tobytes(), params),
            lambda: curvature_bundle(pts, params),
        )


def _summary(res, pts):
    """Max |residual| over the points (the leading axis of res), the point
    where it happens and that point's index."""
    res = np.abs(np.asarray(res, dtype=float))
    per_point = res.reshape(res.shape[0], -1).max(axis=1)
    k = int(np.argmax(per_point))
    return float(per_point[k]), [float(v) for v in np.asarray(pts)[k]], k


def _passfail(cid, res, tol, reference, pts, details=""):
    worst, witness, _ = _summary(res, pts)
    status = "pass" if worst <= tol else "fail"
    return CheckResult(cid, status, worst, witness, reference, details)


def _claim(cid, worst, witness, tol, reference, holds, info, printed, oracle):
    """A printed claim: ``pass`` with details ``holds`` within tolerance,
    else a ``paper-discrepancy`` quoting the printed and oracle strings."""
    if worst <= tol:
        return CheckResult(cid, "pass", worst, witness, reference, holds)
    return CheckResult(
        cid, "paper-discrepancy", worst, witness, reference, info["note"],
        printed=printed, oracle=oracle,
    )


# --------------------------------------------------------------------------
# frame / bracket / connection internals (oracle vs oracle)
# --------------------------------------------------------------------------


def _chk_frame(ctx):
    F = frame_matrix(ctx.jet, ctx.params)
    g = metric_matrix(ctx.jet, ctx.params)
    G = np.einsum("...ma,...mn,...nb->...ab", F, g, F)
    eye = np.eye(7)
    out = [
        _passfail(
            "frame-orthonormality", G - eye, ctx.tol(TOL_EXACT),
            "frame columns are orthonormal for the coordinate metric",
            ctx.pts,
        )
    ]
    om = coframe_matrix(ctx.jet, ctx.params)
    out.append(
        _passfail(
            "frame-coframe-inverse", np.einsum("...am,...mb->...ab", om, F) - eye,
            ctx.tol(TOL_EXACT), "coframe rows invert the frame columns", ctx.pts,
        )
    )
    return out


def _chk_brackets(ctx):
    C = structure_constants(ctx.jet, ctx.params)
    out = [
        _passfail(
            "bracket-antisymmetry", C + np.einsum("...abc->...bac", C),
            ctx.tol(TOL_EXACT), "[X_a, X_b] = -[X_b, X_a]", ctx.pts,
        )
    ]
    # independent finite-difference differentiation of the frame columns
    h = 1e-6
    dF = np.zeros(ctx.pts.shape[:1] + (7, 7, 7))
    for mu in range(7):
        dq = np.zeros(7)
        dq[mu] = h
        dF[:, mu] = (
            frame_matrix(ctx.pts + dq, ctx.params)
            - frame_matrix(ctx.pts - dq, ctx.params)
        ) / (2 * h)
    F = frame_matrix(ctx.jet, ctx.params)
    om = coframe_matrix(ctx.jet, ctx.params)
    vec = np.einsum("...ma,...mnb->...nab", F, dF) - np.einsum(
        "...mb,...mna->...nab", F, dF
    )
    c_fd = np.einsum("...cn,...nab->...abc", om, vec)
    out.append(
        _passfail(
            "bracket-vs-finite-difference", C - c_fd, ctx.tol(TOL_FD),
            "structure constants from exact differentiation match a "
            "central-difference recomputation", ctx.pts,
        )
    )
    T1 = np.einsum("...ma,...mbcd->...abcd", F, ctx.jet.dC)
    T2 = np.einsum("...bce,...aed->...abcd", C, C)
    J = T1 + T2
    jac = J + np.einsum("...bcad->...abcd", J) + np.einsum("...cabd->...abcd", J)
    out.append(
        _passfail(
            "bracket-jacobi", jac, ctx.tol(TOL_EXACT),
            "cyclic Jacobi identity for the frame brackets", ctx.pts,
        )
    )
    return out


def _chk_connection(ctx):
    lam = levi_civita_tensor(ctx.jet, ctx.params)
    C = structure_constants(ctx.jet, ctx.params)
    out = [
        _passfail(
            "connection-metric-compatibility",
            lam + np.einsum("...eab->...eba", lam), ctx.tol(TOL_EXACT),
            "<nabla_e X_a, X_b> is antisymmetric in (a, b)", ctx.pts,
        ),
        _passfail(
            "connection-torsion-free",
            lam - np.einsum("...abc->...bac", lam) - C, ctx.tol(TOL_EXACT),
            "nabla_a X_b - nabla_b X_a = [X_a, X_b]", ctx.pts,
        ),
        _passfail(
            "connection-vs-coordinate-route",
            lam - gamma_frame_coordinate(ctx.jet, ctx.params),
            ctx.tol(TOL_EXACT),
            "Koszul frame computation matches the coordinate-Christoffel "
            "route", ctx.pts,
        ),
    ]
    return out


def _chk_curvature_internal(ctx):
    R = ctx.R
    sym = [
        R + np.einsum("...abcd->...bacd", R),
        R + np.einsum("...abcd->...abdc", R),
        R - np.einsum("...abcd->...cdab", R),
        R + np.einsum("...bdca->...abcd", R) + np.einsum("...dacb->...abcd", R),
    ]
    out = [
        _passfail(
            "curvature-symmetries", np.stack(sym, axis=1), ctx.tol(TOL_RICCI),
            "antisymmetries, pair symmetry, and the first Bianchi identity",
            ctx.pts,
        )
    ]
    # the bundle of the 12 points that `_chk_structure_claims` reads
    n2 = min(ctx.samples, 8)
    nab = ctx.curvature(ctx.pts[:12], ctx.params).nabla_riemann[:n2]
    cyc = (
        nab
        + np.einsum("...abecd->...eabcd", nab)
        + np.einsum("...beacd->...eabcd", nab)
    )
    out.append(
        _passfail(
            "curvature-second-bianchi", cyc, ctx.tol(TOL_TABLE),
            "cyclic sum of the covariant curvature derivative vanishes",
            ctx.pts[:n2],
        )
    )
    ric = ctx.ric
    out.append(
        _passfail(
            "ricci-symmetry", ric - np.einsum("...ab->...ba", ric),
            ctx.tol(TOL_EXACT), "the Ricci matrix is symmetric", ctx.pts,
        )
    )
    n = min(ctx.samples, 20)
    coord = riemann_frame_coordinate(ctx.frame_jet(ctx.pts[:n], ctx.params),
                                     ctx.params)
    out.append(
        _passfail(
            "riemann-frame-vs-coordinate-route", R[:n] - coord,
            ctx.tol(TOL_TABLE),
            "Cartan frame curvature matches the coordinate-Christoffel "
            "route", ctx.pts[:n],
        )
    )
    return out


# --------------------------------------------------------------------------
# printed-table comparisons
# --------------------------------------------------------------------------


def _table_check(cid, table, oracle_fn, pts, params, tol, reference, details=""):
    """Compare a {pair: {target: expr}} table against an oracle, skipping
    annotated components (those get their own dedicated checks)."""
    values = pt.component_table_values(table, pts, params)
    ann = table.get("known_discrepancies", {})
    worst = -1.0
    worst_entry = None
    worst_pt = None
    for (a, b), printed in values.items():
        diff = oracle_fn(a, b) - printed
        key = f"{a},{b}"
        if key in ann:
            diff[..., int(ann[key]["component"]) - 1] = 0.0
        gap, witness, _ = _summary(diff, pts)
        if gap > worst:
            worst, worst_entry, worst_pt = gap, key, witness
    if worst <= tol:
        return CheckResult(cid, "pass", worst, worst_pt, reference, details)
    entry_exprs = json.dumps(table["entries"][worst_entry])
    return CheckResult(
        cid, "paper-discrepancy", worst, worst_pt, reference,
        details + f" worst entry ({worst_entry}) beyond tolerance",
        printed=entry_exprs,
        oracle=f"exact value differs by {worst:.6e} at the witness point",
    )


def _chk_bracket_tables(ctx):
    doc = ctx.doc["frame_tables"]
    out = [
        _table_check(
            "m0-bracket-table", doc["m0_brackets"],
            lambda a, b: bracket_frame(a, b, ctx.jet0, ctx.params0),
            ctx.pts0, ctx.params0, ctx.tol(TOL_EXACT),
            "printed bracket table at m = 0",
            details=f"evaluated at (m, l) = (0, {ctx.params.l:g})",
        ),
        _table_check(
            "general-bracket-table", doc["general_brackets"],
            lambda a, b: bracket_frame(a, b, ctx.jet, ctx.params),
            ctx.pts, ctx.params, ctx.tol(TOL_TABLE),
            "printed general bracket table outside annotated components",
        ),
    ]
    # the two annotated components, each pinned as its own check
    ann = doc["general_brackets"]["known_discrepancies"]
    for cid, key in (("appendix-bracket-45", "4,5"), ("appendix-bracket-47", "4,7")):
        info = ann[key]
        a, b = (int(v) for v in key.split(","))
        comp = int(info["component"]) - 1
        env = pt.point_env(ctx.pts, ctx.params)
        printed_vals = pt.safe_eval(info["printed"], env) * np.ones(len(ctx.pts))
        oracle_vals = bracket_frame(a, b, ctx.jet, ctx.params)[..., comp]
        worst, witness, k = _summary(oracle_vals - printed_vals, ctx.pts)
        out.append(
            _claim(
                cid, worst, witness, ctx.tol(TOL_TABLE),
                f"printed bracket coefficient for pair ({key})",
                "printed and exact coefficients coincide at these "
                "parameters; " + info["note"],
                info, info["printed"],
                f"{info['derived']} = {oracle_vals[k]:.12g} at the witness "
                "point",
            )
        )
    return out


def _chk_connection_tables(ctx):
    doc = ctx.doc["frame_tables"]
    return [
        _table_check(
            "m0-connection-table", doc["m0_connection"],
            lambda i, j: levi_civita_frame(i, j, ctx.jet0, ctx.params0),
            ctx.pts0, ctx.params0, ctx.tol(TOL_EXACT),
            "printed connection table at m = 0",
            details=f"evaluated at (m, l) = (0, {ctx.params.l:g})",
        ),
        _table_check(
            "general-connection-table", doc["general_connection"],
            lambda i, j: levi_civita_frame(i, j, ctx.jet, ctx.params),
            ctx.pts, ctx.params, ctx.tol(TOL_TABLE),
            "printed general connection table",
        ),
    ]


def _chk_curvature_tables(ctx):
    out = []
    R = ctx.R
    sec = pt.sectional_table_values(ctx.pts, ctx.params)
    res = np.stack(
        [R[..., a - 1, b - 1, a - 1, b - 1] - v for (a, b), v in sec.items()],
        axis=-1,
    )
    out.append(
        _passfail(
            "general-curvature-table", res, ctx.tol(TOL_TABLE),
            "printed curvature components R(X_a, X_b, X_a, X_b)", ctx.pts,
        )
    )

    R0 = riemann_frame(ctx.frame_jet(ctx.pts0[:20], ctx.params0),
                       ctx.params0)
    env0 = pt.point_env(ctx.pts0[:20], ctx.params0)
    ex = ctx.doc["curvature_tables"]["m0_examples"]["entries"]
    ric0 = ricci_from_riemann(R0)
    diag = ctx.doc["curvature_tables"]["ricci_m0_diagonal"]["entries"]
    res0 = [
        R0[..., 0, 3, 0, 3] - pt.safe_eval(ex["1,4"], env0),
        R0[..., 5, 6, 5, 6] - pt.safe_eval(ex["6,7"], env0),
    ]
    for i, expr in enumerate(diag):
        res0.append(ric0[..., i, i] - pt.safe_eval(expr, env0))
    offdiag = ric0 - np.einsum("...aa,ab->...ab", ric0, np.eye(7) > 0.5)
    res0.append(offdiag.reshape(offdiag.shape[0], -1).max(axis=1))
    out.append(
        _passfail(
            "m0-curvature-table", np.stack(res0, axis=-1), ctx.tol(TOL_TABLE),
            "printed curvature spot values and Ricci diagonal at m = 0",
            ctx.pts0[:20],
            details=f"evaluated at (m, l) = (0, {ctx.params.l:g})",
        )
    )

    out.append(
        _passfail(
            "ricci-proposition",
            ctx.ric - pt.ricci_matrix_values(ctx.pts, ctx.params),
            ctx.tol(TOL_RICCI), "printed Ricci matrix for general m", ctx.pts,
        )
    )

    sc = ctx.scal
    out.append(
        _passfail(
            "scalar-vs-proposition-trace",
            sc - pt.scalar_values(ctx.pts, ctx.params, "derived"),
            ctx.tol(TOL_TABLE),
            "scalar curvature equals the trace of the printed Ricci matrix",
            ctx.pts,
        )
    )

    info = ctx.doc["curvature_tables"]["scalar"]
    worst, witness, k = _summary(
        sc - pt.scalar_values(ctx.pts, ctx.params, "printed"), ctx.pts)
    out.append(
        _claim(
            "scalar-vs-corollary", worst, witness, ctx.tol(TOL_TABLE),
            "printed constant-scalar-curvature value",
            "printed and exact values coincide at these parameters (l = 0)",
            info, info["printed"],
            f"{info['derived']} = {sc[k]:.12g} at the witness point",
        )
    )
    return out


# --------------------------------------------------------------------------
# homogeneous-structure checks
# --------------------------------------------------------------------------


def _chk_torsion_tables(ctx):
    out = [
        _table_check(
            "torsion-table", ctx.doc["torsion_table"],
            lambda a, b: torsion_D(a, b, ctx.jet, ctx.params),
            ctx.pts, ctx.params, ctx.tol(TOL_TABLE),
            "printed reduced-torsion values on horizontal pairs",
        )
    ]
    claims = ctx.doc["structure_claims"]

    c12 = c12_trace(ctx.jet, ctx.params)
    out.append(
        _passfail(
            "torsion-c12-trace", c12, ctx.tol(TOL_EXACT),
            "printed claim: the c12 trace of the torsion vanishes", ctx.pts,
        )
    )

    wit = claims["class_membership"]["t2_exclusion_witness"]
    env = pt.point_env(ctx.pts, ctx.params)
    res = cyclic_sum(1, 4, 5, ctx.jet, ctx.params) - pt.safe_eval(wit["value"], env)
    out.append(
        _passfail(
            "torsion-cyclic-witness", res, ctx.tol(TOL_TABLE),
            "printed cyclic-sum witness value "
            f"{wit['value']} on the triple ({wit['triple']})", ctx.pts,
        )
    )

    cls = classify_structure(ctx.params, ctx.jet)
    again = classify_structure(ctx.params, ctx.jet)
    expected = "trivial" if ctx.params.l == 0.0 else "T3"
    ok = cls.label == again.label == expected
    out.append(
        CheckResult(
            "structure-class", "pass" if ok else "fail",
            None, None,
            "torsion classification is deterministic and matches the "
            "printed class",
            details=f"label={cls.label} witness_triple={cls.witness_triple}",
        )
    )

    # reduced tensor vanishes on vertical-vertical and mixed pairs ...
    T = torsion_D_tensor(ctx.jet, ctx.params)
    mixed = T.copy()
    mixed[..., 3:, 3:, :] = 0.0  # keep only slots involving a vertical leg
    out.append(
        _passfail(
            "torsion-mixed-slots", mixed, ctx.tol(TOL_EXACT),
            "printed claim: the reduced torsion vanishes unless both "
            "arguments are horizontal", ctx.pts,
        )
    )
    # ... while the operator definition of the same torsion does not
    info = claims["mixed_torsion"]
    faithful = faithful_torsion_tensor(ctx.jet, ctx.params)
    worst, witness, _ = _summary(faithful - T, ctx.pts)
    out.append(
        _claim(
            "torsion-definitions-agreement", worst, witness,
            ctx.tol(TOL_TABLE),
            "the two printed definitions of the connection torsion agree",
            "both definitions coincide at these parameters (l = 0)",
            info, info["claim"], info["operator_value"],
        )
    )
    return out


def _chk_structure_claims(ctx):
    claims = ctx.doc["structure_claims"]
    out = []

    info = claims["as_equations"]
    res = ambrose_singer_check(ctx.jet, ctx.params)
    worst, witness, _ = _summary(res, ctx.pts)
    out.append(
        _claim(
            "as-equations", worst, witness, ctx.tol(1e-7),
            "printed claim: the candidate tensor satisfies the "
            "Ambrose-Singer equations",
            f"holds ({info['holds_when']})",
            info, info["claim"],
            f"max equation residual {worst:.6e} at the witness point",
        )
    )

    info = claims["characteristic_parallelism"]
    sub = ctx.frame_jet(ctx.pts[:12], ctx.params)
    resT = torsion_parallelism_residual(sub, ctx.params,
                                        connection="characteristic")
    resR = _curvature_parallelism_residual(
        ctx.curvature(ctx.pts[:12], ctx.params),
        char_connection_tensor(sub, ctx.params),
    )
    worst = max(float(np.abs(resT).max()), float(np.abs(resR).max()))
    out.append(
        _claim(
            "torsion-parallelism-characteristic", worst, None, ctx.tol(1e-7),
            "printed claim: the characteristic connection parallelizes "
            "curvature and torsion",
            "holds trivially (l = 0)",
            info, info["claim"],
            f"{info['witness_torsion']}; {info['witness_curvature']}; "
            f"measured max residual {worst:.6e}",
        )
    )

    # the connection that does the job at m = 0 (internal oracle check)
    sub0 = ctx.frame_jet(ctx.pts0[:12], ctx.params0)
    lam0 = levi_civita_tensor(sub0, ctx.params0)
    S0 = candidate_structure_tensor(sub0, ctx.params0)
    resT0 = torsion_parallelism_residual(sub0, ctx.params0,
                                         connection="canonical")
    resR0 = _curvature_parallelism_residual(
        ctx.curvature(ctx.pts0[:12], ctx.params0), lam0 - S0)
    out.append(
        _passfail(
            "torsion-parallelism-canonical",
            np.concatenate(
                [np.abs(resT0).reshape(len(sub0.q), -1),
                 np.abs(resR0).reshape(len(sub0.q), -1)], axis=1
            ),
            ctx.tol(TOL_TABLE),
            "the canonical connection parallelizes curvature and torsion "
            "at m = 0", sub0.q,
            details=f"evaluated at (m, l) = (0, {ctx.params.l:g})",
        )
    )
    return out


def _curvature_parallelism_residual(bundle, conn):
    """Frame components of the curvature derivative for a metric connection
    given by <nabla_e X_a, X_b> = conn[e, a, b], at the points of the
    curvature bundle."""
    R = bundle.riemann
    nabR = bundle.nabla_riemann
    A = conn - bundle.gamma_frame
    corr = (
        np.einsum("...eag,...gbcd->...eabcd", A, R)
        + np.einsum("...ebg,...agcd->...eabcd", A, R)
        + np.einsum("...ecg,...abgd->...eabcd", A, R)
        + np.einsum("...edg,...abcg->...eabcd", A, R)
    )
    return nabR - corr


# --------------------------------------------------------------------------
# Killing-field checks (the closed-form family lives at m = 0)
# --------------------------------------------------------------------------


def _chk_killing(ctx):
    out = []
    params, pts, jet = ctx.params_kill, ctx.pts_kill, ctx.jet_kill
    note = (
        "" if ctx.params.l != 0.0
        else "the family degenerates at l = 0; evaluated at l = 1 instead"
    )
    basis = killing_basis_m0(params.l)

    res = np.stack(
        [np.abs(killing_residual(f, jet, params)).reshape(len(pts), -1).max(axis=1)
         for f in basis],
        axis=-1,
    )
    out.append(
        _passfail(
            "killing-basis-residuals", res, ctx.tol(TOL_TABLE),
            "all 13 closed-form fields satisfy the Killing equation", pts,
            details=note,
        )
    )

    rank = basis_rank(basis, pts)
    out.append(
        CheckResult(
            "killing-basis-rank", "pass" if rank == 13 else "fail",
            float(13 - rank), None,
            "the closed-form family is 13-dimensional",
            details=f"rank={rank}" + (f"; {note}" if note else ""),
        )
    )

    min_bad = np.inf
    for a in (4, 5, 6, 7):
        r = float(np.abs(killing_residual(frame_unit_field(a), jet, params)).max())
        min_bad = min(min_bad, r)
    out.append(
        CheckResult(
            "killing-horizontal-rejected",
            # a rejection threshold, not a tolerance: deliberately unscaled
            "pass" if min_bad > 1e-3 else "fail",
            float(min_bad), None,
            "the horizontal frame fields are not Killing fields",
            details=f"smallest horizontal residual {min_bad:.3e}"
            + (f"; {note}" if note else ""),
        )
    )

    agree = True
    for fld in list(basis) + [frame_unit_field(a) for a in (4, 5, 6, 7)]:
        pde = float(np.abs(pde_residuals(fld, jet, params)).max())
        kil = float(np.abs(killing_residual(fld, jet, params)).max())
        # verdict-level equivalence with fixed thresholds (not tolerances)
        if (pde < TOL_EXACT) != (kil < 1e-10):
            agree = False
    out.append(
        CheckResult(
            "killing-pde-equivalence", "pass" if agree else "fail",
            None, None,
            "the 28-equation system and the Killing residual agree on "
            "which fields are Killing",
            details=note,
        )
    )

    info = ctx.doc["killing_tables"]["eq13_sign"]
    best = max(
        range(len(basis)),
        key=lambda i: float(np.abs(basis[i].coeff_partials(pts)[..., 0, 1]).max()),
    )
    d = basis[best].coeff_partials(pts)
    eq13 = pde_residuals(basis[best], jet, params)[..., 12]
    printed13 = eq13 - params.l * pts[..., 6] * d[..., 0, 1]
    worst, witness, _ = _summary(printed13, pts)
    corrected = float(np.abs(eq13).max())
    out.append(
        _claim(
            "killing-eq13-sign", worst, witness, ctx.tol(TOL_TABLE),
            "printed sign of the d(f2)/dr term in equation 13",
            "printed and corrected variants coincide on the sampled fields"
            + (f"; {note}" if note else ""),
            info, info["printed_term"],
            f"{info['derived_term']}; corrected residual {corrected:.3e}, "
            f"printed-variant residual {worst:.3e} on a closed-form basis "
            "field",
        )
    )
    return out


# --------------------------------------------------------------------------
# geodesic checks (the printed system lives at (m, l) = (0, 1))
# --------------------------------------------------------------------------


def _heis_states(seed, n, momentum_scale=1.0):
    rng = np.random.default_rng(seed)
    qs = rng.uniform(-0.4, 0.4, size=(n, 7))
    ps = rng.uniform(-1.0, 1.0, size=(n, 7)) * momentum_scale
    return qs, ps


def _chk_geodesic_tables(ctx):
    out = []
    qs, ps = _heis_states(ctx.seed + 101, min(ctx.samples, 50))
    res = pt.momenta_values(qs, ps) - frame_momenta(qs, ps, HEIS)[..., 3:]
    out.append(
        _passfail(
            "geodesic-momenta", res, ctx.tol(TOL_EXACT),
            "printed momentum functions equal the frame momenta", qs,
            details="evaluated at (m, l) = (0, 1)",
        )
    )

    n_states = min(10, len(qs))
    printed = np.empty((n_states, 14))
    generic = np.empty((n_states, 14))
    for k in range(n_states):
        st = CotangentState(qs[k], ps[k])
        printed[k] = printed_heisenberg_rhs(st)
        generic[k] = generic_rhs_momentum_chart(st)
    gap = printed - generic
    lines_ok = np.delete(gap, 1, axis=1)
    out.append(
        _passfail(
            "geodesic-rhs-lines", lines_ok, ctx.tol(TOL_EXACT),
            "13 of the 14 printed flow equations match the derived flow",
            qs[:n_states],
            details="evaluated at (m, l) = (0, 1); the remaining line has "
            "its own check",
        )
    )

    info = ctx.doc["geodesic_tables"]["sdot_line"]
    worst, witness, _ = _summary(gap[:, 1], qs[:n_states])
    out.append(
        _claim(
            "geodesic-sdot-line", worst, witness, ctx.tol(TOL_EXACT),
            "printed flow equation for the second vertical coordinate", "",
            info, info["printed"], info["derived"],
        )
    )

    info = ctx.doc["geodesic_tables"]["prose_bracket_yz"]
    oracle_vec = bracket_frame(6, 7, np.zeros(7), HEIS)
    printed_vec = np.zeros(7)
    printed_vec[int(info["printed_component"]["target"]) - 1] = float(
        info["printed_component"]["coefficient"]
    )
    worst = float(np.abs(oracle_vec - printed_vec).max())
    out.append(
        _claim(
            "heisenberg-bracket-yz", worst, None, ctx.tol(TOL_EXACT),
            "printed prose value of the bracket of the last two horizontal "
            "fields",
            info["note"], info, json.dumps(info["printed_component"]),
            json.dumps(info["derived_component"])
            + f"; computed coefficients {oracle_vec.tolist()}",
        )
    )

    n_poisson = min(ctx.samples, 100)
    qs2, ps2 = _heis_states(ctx.seed + 102, n_poisson)
    worst = 0.0
    worst_q = None
    for k in range(n_poisson):
        r = float(np.abs(poisson_check(CotangentState(qs2[k], ps2[k]))).max())
        if r > worst:
            worst, worst_q = r, [float(v) for v in qs2[k]]
    out.append(
        CheckResult(
            "geodesic-poisson-brackets",
            "pass" if worst <= ctx.tol(TOL_EXACT) else "fail",
            worst, worst_q,
            "the six printed momentum Poisson relations",
            details=f"checked at {n_poisson} random phase states",
        )
    )
    return out


def _chk_geodesic_flow(ctx):
    out = []
    rng = np.random.default_rng(ctx.seed + 103)
    q0 = np.zeros(7)
    p0 = rng.uniform(-1.0, 1.0, 7)
    s0 = CotangentState(q0, p0)

    traj = integrate(s0, HEIS, mode="heisenberg", h=1e-3, n=2000)
    drift = float(np.abs(traj.H - traj.H[0]).max())
    pv_drift = float(np.abs(traj.p[:, :3] - traj.p[0, :3]).max())
    status = "pass" if (
        drift <= ctx.tol(1e-11)
        and pv_drift <= ctx.tol(1e-13)
        and traj.status == "complete"
    ) else "fail"
    out.append(
        CheckResult(
            "geodesic-energy-conservation", status,
            max(drift, pv_drift), [float(v) for v in p0],
            "the integrator preserves the Hamiltonian and the vertical "
            "momenta",
            details=f"H drift {drift:.3e}, vertical momentum drift "
            f"{pv_drift:.3e} over {traj.n_samples - 1} accepted steps "
            f"(status {traj.status})",
        )
    )

    p1 = rng.uniform(-1.0, 1.0, 7)
    traj_r = integrate(CotangentState(q0, p1), ctx.params, mode="riemannian",
                       h=1e-3, n=500)
    drift_r = float(np.abs(traj_r.H - traj_r.H[0]).max())
    out.append(
        CheckResult(
            "geodesic-energy-conservation-riemannian",
            "pass" if drift_r <= ctx.tol(1e-10) else "fail",
            drift_r, [float(v) for v in p1],
            "energy conservation for the requested parameters",
            details=f"(m, l) = ({ctx.params.m:g}, {ctx.params.l:g}); "
            f"{traj_r.n_samples - 1} accepted steps (status {traj_r.status})",
        )
    )

    # closed form vs integrator, circle radius, and fourth-order convergence
    p2 = rng.uniform(-1.0, 1.0, 7)
    p2[0] = 1.0 + 0.2 * rng.uniform()  # keep the rotation rate away from zero
    s2 = CotangentState(q0, p2)
    rk = integrate(s2, HEIS, mode="heisenberg", h=1e-3, n=400)
    cf = closed_form_trajectory(s2, h=1e-3, n=400)
    end_gap = float(np.abs(rk.q[-1] - cf.q[-1]).max())
    out.append(
        CheckResult(
            "geodesic-closed-form-agreement",
            "pass" if end_gap <= ctx.tol(1e-9) else "fail",
            end_gap, [float(v) for v in p2],
            "the closed-form trajectory matches the integrator",
        )
    )

    P0 = frame_momenta(q0, p2, HEIS)[3:]
    radius_pred = float(np.linalg.norm(P0) / np.linalg.norm(p2[:3]))
    circ = closed_form_trajectory(s2, h=5e-3, n=400)
    verdict = circle_check(circ)
    ok = (
        verdict.kind == "circle"
        and abs(verdict.radius - radius_pred) <= ctx.tol(1e-4) * radius_pred
    )
    out.append(
        CheckResult(
            "geodesic-circle-radius", "pass" if ok else "fail",
            abs(verdict.radius - radius_pred) / radius_pred
            if verdict.radius else None,
            [float(v) for v in p2],
            "the horizontal projection is a circle of radius |P(0)|/|Lambda|",
            details=f"verdict {verdict.kind}, radius {verdict.radius!r}, "
            f"predicted {radius_pred!r}",
        )
    )

    ends = {}
    for h, n in ((0.02, 16), (0.01, 32), (0.005, 64)):
        ends[h] = integrate(s2, HEIS, mode="heisenberg", h=h, n=n).q[-1]
    num = float(np.linalg.norm(ends[0.02] - ends[0.01]))
    den = float(np.linalg.norm(ends[0.01] - ends[0.005]))
    ratio = num / den if den else float("inf")
    out.append(
        CheckResult(
            "geodesic-rk4-order", "pass" if 12.0 <= ratio <= 20.0 else "fail",
            None, [float(v) for v in p2],
            "halving the step divides the endpoint error by about 16",
            details=f"successive-difference ratio {ratio:.2f}",
        )
    )
    return out


# --------------------------------------------------------------------------
# classification and sampling
# --------------------------------------------------------------------------


def _chk_classification(ctx):
    cases = [
        (0.0, 0.0), (0.25, 1.0), (1.0, 0.0), (-1.0, 0.0),
        (1.0, 1.0), (-1.0, 1.0), (0.0, 2.0),
    ]
    labels = [bcv_classify(m, l) for (m, l) in cases]
    distinct = len({c.case for c in labels}) == 7
    here = bcv_classify(ctx.params.m, ctx.params.l)
    stable = here == bcv_classify(ctx.params.m, ctx.params.l)
    return [
        CheckResult(
            "bcv-classification", "pass" if (distinct and stable) else "fail",
            None, None,
            "the seven base-family cases are distinguished and the "
            "classification is deterministic",
            details=f"(m, l) = ({ctx.params.m:g}, {ctx.params.l:g}) -> "
            f"{here.label} (case {here.case})",
        )
    ]


def _chk_sampling(ctx):
    inside = np.abs(ctx.pts).max() <= DEFAULT_BOX
    kvals = ctx.jet.K
    again = sample_domain_points(ctx.params, ctx.samples, seed=ctx.seed)
    deterministic = np.array_equal(again, ctx.pts)
    ok = bool(inside and kvals.min() > DEFAULT_K_MIN and deterministic)
    return [
        CheckResult(
            "domain-sampling", "pass" if ok else "fail",
            None, None,
            "samples stay in the box, respect K > 0.1, and are "
            "seed-deterministic",
            details=f"min K = {float(kvals.min()):.6f} over {len(ctx.pts)} points",
        )
    ]


_REGISTRY = (
    _chk_frame,
    _chk_brackets,
    _chk_connection,
    _chk_curvature_internal,
    _chk_bracket_tables,
    _chk_connection_tables,
    _chk_curvature_tables,
    _chk_torsion_tables,
    _chk_structure_claims,
    _chk_killing,
    _chk_geodesic_tables,
    _chk_geodesic_flow,
    _chk_classification,
    _chk_sampling,
)


def run_verify(
    m: float,
    l: float,
    samples: int = 100,
    seed: int = 0,
    tol_scale: float = 1.0,
) -> VerifyReport:
    """Run the whole registry and return the assembled report.

    Raises DomainViolation when no acceptable sample points exist for the
    requested parameters, and ValueError for a non-finite m or l, for
    samples < 1 or for a tol_scale that is not positive and finite.
    """
    if not (np.isfinite(m) and np.isfinite(l)):
        raise ValueError(f"m and l must be finite, got m={m!r}, l={l!r}")
    if samples < 1:
        raise ValueError("need samples >= 1")
    if not (np.isfinite(tol_scale) and tol_scale > 0.0):
        raise ValueError(f"tol_scale must be positive and finite, got {tol_scale!r}")
    start = time.perf_counter()
    ctx = _Ctx(m, l, samples, seed, tol_scale)
    checks = []
    for fn in _REGISTRY:
        checks.extend(fn(ctx))
    checks.sort(key=lambda c: c.id)
    ids = [c.id for c in checks]
    if len(set(ids)) != len(ids):  # pragma: no cover - registry bug guard
        raise RuntimeError("duplicate check ids in the verify registry")
    elapsed = time.perf_counter() - start
    return VerifyReport(
        m=float(m), l=float(l), seed=int(seed), samples=int(samples),
        tol_scale=float(tol_scale), elapsed=elapsed, checks=tuple(checks),
    )
