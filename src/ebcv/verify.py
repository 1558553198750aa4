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
    _bundle,
    _chunked,
    gamma_frame_coordinate,
    ricci_from_riemann,
    riemann_frame_coordinate,
    scalar_from_ricci,
)
from .frames import (
    FrameJet,
    ModelParams,
    bcv_classify,
    bracket_frame,
    frame_matrix,
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
    _residuals,
    c12_trace,
    candidate_structure_tensor,
    char_connection_tensor,
    classify_structure,
    cyclic_sum,
    faithful_torsion_tensor,
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
    """The samples of a report and their frame jets, each drawn once.

    Of a whole sample only its jet is kept, and that jet builds no tensor:
    `_chk_sample` reads it in one `curvature._chunked` pass, whose chunk
    jets build their own.  At m = 0 the m = 0 sample is the sample itself.
    The Killing sample is a head of the m = 0 sample (`FrameJet._rows`)
    where it can be.
    """

    def __init__(self, m, l, samples, seed, tol_scale):
        self.params = ModelParams(m, l)
        self.samples = samples
        self.seed = seed
        self.scale = tol_scale
        self.jet = self._sample(self.params, samples)
        self.pts = self.jet.q
        self.params0 = ModelParams(0.0, l)
        self.jet0 = (self.jet if self.params0 == self.params
                     else self._sample(self.params0, samples))
        # the Killing family and the geodesic system are specific to m = 0;
        # at l = 0 the former degenerates, so substitute l = 1 with a note
        self.params_kill = ModelParams(0.0, l if l != 0.0 else 1.0)
        # at least 2 points so the 13-field rank is certifiable (7 columns
        # each); at m = 0 every draw is kept, so a smaller m = 0 sample is
        # the head of a larger one
        n_kill = min(max(samples, 3), 40)
        self.jet_kill = (
            self.jet0._rows(slice(0, n_kill))
            if self.params_kill == self.params0 and n_kill <= samples
            else self._sample(self.params_kill, n_kill)
        )
        self.pts_kill = self.jet_kill.q
        self.doc = pt.load_tables()

    def _sample(self, params, n):
        """The jet of n points drawn from the box the report names."""
        return FrameJet(
            sample_domain_points(params, n, seed=self.seed, box=DEFAULT_BOX,
                                 k_min=DEFAULT_K_MIN),
            params,
        )

    def tol(self, base: float) -> float:
        return base * self.scale


def _pmax(res):
    """Max |residual| per point of an array with the points on axis 0."""
    res = np.abs(res)
    return res.reshape(res.shape[0], -1).max(axis=1)


def _summary(res, pts):
    """Max |residual| over the points (the leading axis of res), the first
    point where it happens and that point's index."""
    per_point = _pmax(np.asarray(res, dtype=float))
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
# the sample: every record of its points from one chunked pass
# --------------------------------------------------------------------------


def _chk_sample(ctx):
    """Every record read from the points of the sample, from one `_chunked`
    pass over its jet.  Each chunk's jet builds F, Om, dF, C, dC and gamma
    once for all of them, and one `_bundle` gives the chunk's R and nabla R.
    The body returns max |residual| per point (`_pmax`), so one chunk's
    tensors exist at a time; `_summary` reduces that vector to the worst
    value and the first point that attains it, as it would the whole array.
    The records of the first 8, 12 or 20 points read the first chunk, which
    holds them (_CHUNK >= 20), while its curvature is alive.  At m != 0 a
    second pass reads the tables of the m = 0 sample, and one `_bundle` of
    its first 20 points gives its head records."""
    doc, params = ctx.doc, ctx.params
    claims = doc["structure_claims"]
    wit = claims["class_membership"]["t2_exclusion_witness"]
    frame_tables = doc["frame_tables"]
    ann = frame_tables["general_brackets"]["known_discrepancies"]
    # the two annotated bracket components, each pinned as its own check,
    # and their slots (a, b, c) in C
    appendix = {"appendix-bracket-45": "4,5", "appendix-bracket-47": "4,7"}
    slots = [(*(int(v) - 1 for v in key.split(",")),
              int(ann[key]["component"]) - 1) for key in appendix.values()]
    tables = [  # (id, table, tensor, tolerance, reference)
        ("general-bracket-table", frame_tables["general_brackets"],
         structure_constants, TOL_TABLE,
         "printed general bracket table outside annotated components"),
        ("general-connection-table", frame_tables["general_connection"],
         levi_civita_tensor, TOL_TABLE, "printed general connection table"),
        ("torsion-table", doc["torsion_table"], torsion_D_tensor, TOL_TABLE,
         "printed reduced-torsion values on horizontal pairs"),
    ]
    m0_tables = [
        ("m0-bracket-table", frame_tables["m0_brackets"], structure_constants,
         TOL_EXACT, "printed bracket table at m = 0"),
        ("m0-connection-table", frame_tables["m0_connection"],
         levi_civita_tensor, TOL_EXACT, "printed connection table at m = 0"),
    ]
    shared = ctx.jet0 is ctx.jet
    eye = np.eye(7)
    h = 1e-6
    heads = []

    def table_gaps(fr, tables):
        return tuple(_table_gaps(table, tensor(fr, fr.params), fr)
                     for _, table, tensor, _, _ in tables)

    def body(fr):
        gam, R, nabR = _bundle(fr)
        if not heads:  # the first chunk
            heads.extend(_sample_heads(ctx, fr, gam, R, nabR))
            if shared:
                heads.extend(_m0_heads(ctx, fr, gam, R, nabR))
        # the Ambrose-Singer residuals first, while no other temporary is
        # held: their own peak is the body's largest after `_bundle`
        as_eq = _residuals(fr, R, nabR)
        F, Om, C = fr.F, fr.Om, fr.C
        G = np.einsum("...ma,...mn,...nb->...ab", F, metric_matrix(fr, params), F)
        # independent finite-difference differentiation of the frame columns
        dF = np.zeros(fr.q.shape[:1] + (7, 7, 7))
        for mu in range(7):
            dq = np.zeros(7)
            dq[mu] = h
            dF[:, mu] = (
                frame_matrix(fr.q + dq, params) - frame_matrix(fr.q - dq, params)
            ) / (2 * h)
        vec = np.einsum("...ma,...mnb->...nab", F, dF) - np.einsum(
            "...mb,...mna->...nab", F, dF
        )
        J = (np.einsum("...ma,...mbcd->...abcd", F, fr.dC)
             + np.einsum("...bce,...aed->...abcd", C, C))
        T = torsion_D_tensor(fr, params)
        mixed = T.copy()
        mixed[..., 3:, 3:, :] = 0.0  # keep only slots involving a vertical leg
        env = pt.point_env(fr.q, params)
        ric = ricci_from_riemann(R)
        scal = scalar_from_ricci(ric)
        sym = [
            R + np.einsum("...abcd->...bacd", R),
            R + np.einsum("...abcd->...abdc", R),
            R - np.einsum("...abcd->...cdab", R),
            R + np.einsum("...bdca->...abcd", R) + np.einsum("...dacb->...abcd", R),
        ]
        sec = pt.sectional_table_values(fr.q, params)
        per_point = np.stack([_pmax(res) for res in (
            G - eye,
            np.einsum("...am,...mb->...ab", Om, F) - eye,
            C + np.einsum("...abc->...bac", C),
            C - np.einsum("...cn,...nab->...abc", Om, vec),
            J + np.einsum("...bcad->...abcd", J) + np.einsum("...cabd->...abcd", J),
            gam + np.einsum("...eab->...eba", gam),
            gam - np.einsum("...abc->...bac", gam) - C,
            gam - gamma_frame_coordinate(fr, params),
            c12_trace(fr, params),
            cyclic_sum(1, 4, 5, fr, params) - pt.safe_eval(wit["value"], env),
            mixed,
            np.stack(sym, axis=1),
            ric - np.einsum("...ab->...ba", ric),
            np.stack([R[..., a - 1, b - 1, a - 1, b - 1] - v
                      for (a, b), v in sec.items()], axis=-1),
            ric - pt.ricci_matrix_values(fr.q, params),
            scal - pt.scalar_values(fr.q, params, "derived"),
            # the printed claims; first the operator definition of the
            # same torsion
            faithful_torsion_tensor(fr, params) - T,
            scal - pt.scalar_values(fr.q, params, "printed"),
            as_eq,
        )], axis=-1)
        coeffs = np.stack([C[..., a, b, c] for a, b, c in slots], axis=-1)
        return (per_point, scal, coeffs) + table_gaps(
            fr, tables + m0_tables if shared else tables)

    per_point, scal, coeffs, *gaps = _chunked(ctx.jet, body)
    *residuals, faithful, corollary, as_eq = per_point.T
    records = (  # (id, tolerance, reference) in the order of body's results
        ("frame-orthonormality", TOL_EXACT,
         "frame columns are orthonormal for the coordinate metric"),
        ("frame-coframe-inverse", TOL_EXACT,
         "coframe rows invert the frame columns"),
        ("bracket-antisymmetry", TOL_EXACT, "[X_a, X_b] = -[X_b, X_a]"),
        ("bracket-vs-finite-difference", TOL_FD,
         "structure constants from exact differentiation match a "
         "central-difference recomputation"),
        ("bracket-jacobi", TOL_EXACT,
         "cyclic Jacobi identity for the frame brackets"),
        ("connection-metric-compatibility", TOL_EXACT,
         "<nabla_e X_a, X_b> is antisymmetric in (a, b)"),
        ("connection-torsion-free", TOL_EXACT,
         "nabla_a X_b - nabla_b X_a = [X_a, X_b]"),
        ("connection-vs-coordinate-route", TOL_EXACT,
         "Koszul frame computation matches the coordinate-Christoffel "
         "route"),
        ("torsion-c12-trace", TOL_EXACT,
         "printed claim: the c12 trace of the torsion vanishes"),
        ("torsion-cyclic-witness", TOL_TABLE,
         f"printed cyclic-sum witness value {wit['value']} on the triple "
         f"({wit['triple']})"),
        ("torsion-mixed-slots", TOL_EXACT,
         "printed claim: the reduced torsion vanishes unless both "
         "arguments are horizontal"),
        ("curvature-symmetries", TOL_RICCI,
         "antisymmetries, pair symmetry, and the first Bianchi identity"),
        ("ricci-symmetry", TOL_EXACT, "the Ricci matrix is symmetric"),
        ("general-curvature-table", TOL_TABLE,
         "printed curvature components R(X_a, X_b, X_a, X_b)"),
        ("ricci-proposition", TOL_RICCI, "printed Ricci matrix for general m"),
        ("scalar-vs-proposition-trace", TOL_TABLE,
         "scalar curvature equals the trace of the printed Ricci matrix"),
    )
    out = [_passfail(cid, res, ctx.tol(tol), reference, ctx.pts)
           for (cid, tol, reference), res in zip(records, residuals)]
    out += heads

    info = claims["mixed_torsion"]
    worst, witness, _ = _summary(faithful, ctx.pts)
    out.append(
        _claim(
            "torsion-definitions-agreement", worst, witness,
            ctx.tol(TOL_TABLE),
            "the two printed definitions of the connection torsion agree",
            "both definitions coincide at these parameters (l = 0)",
            info, info["claim"], info["operator_value"],
        )
    )

    info = doc["curvature_tables"]["scalar"]
    worst, witness, k = _summary(corollary, ctx.pts)
    out.append(
        _claim(
            "scalar-vs-corollary", worst, witness, ctx.tol(TOL_TABLE),
            "printed constant-scalar-curvature value",
            "printed and exact values coincide at these parameters (l = 0)",
            info, info["printed"],
            f"{info['derived']} = {scal[k]:.12g} at the witness point",
        )
    )

    info = claims["as_equations"]
    worst, witness, _ = _summary(as_eq, ctx.pts)
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

    env = pt.point_env(ctx.pts, params)
    for (cid, key), oracle_vals in zip(appendix.items(), coeffs.T):
        info = ann[key]
        printed_vals = pt.safe_eval(info["printed"], env) * np.ones(len(ctx.pts))
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

    if shared:
        gaps0 = gaps[len(tables):]
    else:
        gaps0 = _chunked(ctx.jet0, lambda fr: table_gaps(fr, m0_tables))
        head0 = ctx.jet0._rows(slice(0, 20))
        out += _m0_heads(ctx, head0, *_bundle(head0))
    out += [_table_record(ctx, spec, g, ctx.pts)
            for spec, g in zip(tables, gaps)]
    details = f"evaluated at (m, l) = (0, {params.l:g})"
    out += [_table_record(ctx, spec, g, ctx.jet0.q, details)
            for spec, g in zip(m0_tables, gaps0)]
    return out


def _sample_heads(ctx, fr, gam, R, nabR):
    """The records of the first points of the sample, from the jet fr of its
    first chunk and that chunk's curvature: the coordinate route on 20
    points, the second Bianchi identity on 8 and the characteristic
    connection on 12."""
    head = fr._rows(slice(0, 20))
    out = [
        _passfail(
            "riemann-frame-vs-coordinate-route",
            R[:20] - riemann_frame_coordinate(head, ctx.params),
            ctx.tol(TOL_TABLE),
            "Cartan frame curvature matches the coordinate-Christoffel "
            "route", head.q,
        )
    ]

    nab = nabR[:8]
    cyc = (
        nab
        + np.einsum("...abecd->...eabcd", nab)
        + np.einsum("...beacd->...eabcd", nab)
    )
    out.append(
        _passfail(
            "curvature-second-bianchi", cyc, ctx.tol(TOL_TABLE),
            "cyclic sum of the covariant curvature derivative vanishes",
            fr.q[:8],
        )
    )

    sub = fr._rows(slice(0, 12))
    info = ctx.doc["structure_claims"]["characteristic_parallelism"]
    resT = torsion_parallelism_residual(sub, ctx.params,
                                        connection="characteristic")
    resR = _curvature_parallelism_residual(
        gam[:12], R[:12], nabR[:12], char_connection_tensor(sub, ctx.params))
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
    return out


def _m0_heads(ctx, fr, gam, R, nabR):
    """The records of the first points of the m = 0 sample, from the jet fr
    of its first 20 points or more and their curvature: the printed spot
    values on 20 points and the canonical connection on 12."""
    params0 = fr.params
    details = f"evaluated at (m, l) = (0, {ctx.params.l:g})"
    head = fr.q[:20]
    R0 = R[:20]
    env0 = pt.point_env(head, params0)
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
    res0.append(_pmax(offdiag))
    out = [
        _passfail(
            "m0-curvature-table", np.stack(res0, axis=-1), ctx.tol(TOL_TABLE),
            "printed curvature spot values and Ricci diagonal at m = 0",
            head, details=details,
        )
    ]

    # the connection that does the job at m = 0 (internal oracle check)
    sub = fr._rows(slice(0, 12))
    S0 = candidate_structure_tensor(sub, params0)
    resT0 = torsion_parallelism_residual(sub, params0, connection="canonical")
    resR0 = _curvature_parallelism_residual(
        gam[:12], R[:12], nabR[:12], sub.gamma - S0)
    out.append(
        _passfail(
            "torsion-parallelism-canonical",
            np.concatenate(
                [np.abs(resT0).reshape(len(sub.q), -1),
                 np.abs(resR0).reshape(len(sub.q), -1)], axis=1
            ),
            ctx.tol(TOL_TABLE),
            "the canonical connection parallelizes curvature and torsion "
            "at m = 0", sub.q, details=details,
        )
    )
    return out


def _curvature_parallelism_residual(gam, R, nabR, conn):
    """Frame components of the curvature derivative for a metric connection
    given by <nabla_e X_a, X_b> = conn[e, a, b], from the Levi-Civita gamma,
    R and nabla R of the same points."""
    A = conn - gam
    corr = (
        np.einsum("...eag,...gbcd->...eabcd", A, R)
        + np.einsum("...ebg,...agcd->...eabcd", A, R)
        + np.einsum("...ecg,...abgd->...eabcd", A, R)
        + np.einsum("...edg,...abcg->...eabcd", A, R)
    )
    return nabR - corr


def _table_gaps(table, oracle, fr):
    """Each point's worst max |oracle - printed| over the entries of a
    {pair: {target: expr}} table, and the first entry that has it: the two
    columns of an (n, 2) array.  oracle is the frame tensor [..., a, b, :]
    at the points of jet fr.  Annotated components are skipped: those get
    their own checks."""
    ann = table.get("known_discrepancies", {})
    gaps = []
    for (a, b), printed in pt.component_table_values(
            table, fr.q, fr.params).items():
        diff = oracle[..., a - 1, b - 1, :] - printed
        key = f"{a},{b}"
        if key in ann:
            diff[..., int(ann[key]["component"]) - 1] = 0.0
        gaps.append(_pmax(diff))
    gaps = np.stack(gaps, axis=-1)
    return np.stack([gaps.max(axis=-1), gaps.argmax(axis=-1)], axis=-1)


def _table_record(ctx, spec, gaps, pts, details=""):
    """The record of a printed table from its `_table_gaps` at the points
    pts: the first entry with the worst gap, at the first point where that
    entry has it."""
    cid, table, _, tol, reference = spec
    worst_at, entry_at = gaps.T
    # worst gap first, then the lowest entry, then (lexsort is stable) the
    # lowest point
    k = int(np.lexsort((entry_at, -worst_at))[0])
    worst, witness = float(worst_at[k]), [float(v) for v in pts[k]]
    if worst <= ctx.tol(tol):
        return CheckResult(cid, "pass", worst, witness, reference, details)
    key = list(table["entries"])[int(entry_at[k])]
    return CheckResult(
        cid, "paper-discrepancy", worst, witness, reference,
        details + f" worst entry ({key}) beyond tolerance",
        printed=json.dumps(table["entries"][key]),
        oracle=f"exact value differs by {worst:.6e} at the witness point",
    )


# --------------------------------------------------------------------------
# homogeneous-structure classification
# --------------------------------------------------------------------------


def _chk_structure_class(ctx):
    cls = classify_structure(ctx.params, ctx.jet)
    again = classify_structure(ctx.params, ctx.jet)
    expected = "trivial" if ctx.params.l == 0.0 else "T3"
    ok = cls.label == again.label == expected
    return [
        CheckResult(
            "structure-class", "pass" if ok else "fail",
            None, None,
            "torsion classification is deterministic and matches the "
            "printed class",
            details=f"label={cls.label} witness_triple={cls.witness_triple}",
        )
    ]



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

    # each field's Killing residual once: max |residual| per point, then
    # over the points (max is exact, so the order does not matter)
    fields = list(basis) + [frame_unit_field(a) for a in (4, 5, 6, 7)]
    per_point = np.stack(
        [_pmax(killing_residual(f, jet, params)) for f in fields], axis=-1)
    kil = per_point.max(axis=0)
    out.append(
        _passfail(
            "killing-basis-residuals", per_point[:, :len(basis)],
            ctx.tol(TOL_TABLE),
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

    min_bad = float(kil[len(basis):].min())
    out.append(
        CheckResult(
            "killing-horizontal-rejected",
            # a rejection threshold, not a tolerance: deliberately unscaled
            "pass" if min_bad > 1e-3 else "fail",
            min_bad, None,
            "the horizontal frame fields are not Killing fields",
            details=f"smallest horizontal residual {min_bad:.3e}"
            + (f"; {note}" if note else ""),
        )
    )

    agree = True
    for fld, k in zip(fields, kil):
        pde = float(np.abs(pde_residuals(fld, jet, params)).max())
        # verdict-level equivalence with fixed thresholds (not tolerances)
        if (pde < TOL_EXACT) != (k < 1e-10):
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
    again = sample_domain_points(ctx.params, ctx.samples, seed=ctx.seed,
                                 box=DEFAULT_BOX, k_min=DEFAULT_K_MIN)
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
    _chk_sample,
    _chk_structure_class,
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
