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
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from . import published_tables as pt
from .curvature import (
    gamma_frame_bundle,
    ricci_from_riemann,
    riemann_frame_bundle,
    scalar_from_ricci,
)
from .errors import DomainViolation, InconclusiveClassification
from .frames import (
    SAMPLE_BOX,
    SAMPLE_K_MIN,
    FrameJet,
    ModelParams,
    bcv_classify,
    bracket_frame,
    frame_matrix,
    metric_matrix,
    sample_domain_points,
)
from .geodesics import (
    CotangentState,
    _poisson_residuals,
    circle_check,
    closed_form_trajectory,
    frame_momenta,
    generic_rhs_momentum_chart,
    integrate,
    printed_heisenberg_rhs,
)
from .homogeneous import (
    _as_residuals,
    _char_residuals,
    _cyclic_sums,
    _structure_class,
    _torsion_summary,
    faithful_torsion_tensor,
    torsion_D_tensor,
)
from .killing import (
    KILLING_THRESHOLD,
    PARAM_NAMES_M0,
    basis_rank,
    frame_unit_field,
    killing_basis_m0,
    killing_residual,
    pde_residuals,
)
from .tolerances import FD_STEP, TOL_EXACT, TOL_FD, TOL_RICCI, TOL_TABLE

__all__ = ["CheckResult", "VerifyReport", "run_verify"]

HEIS = ModelParams(0.0, 1.0)

#: the most samples `run_verify` accepts.  A report's peak RSS grows by
#: ~0.6 KB and its run by ~1 ms per sample beyond a ~48 MB floor: at the
#: cap `ebcv verify --m 1 --l 1` peaked at 107 MB after 98 s (2-vCPU
#: x86-64 host); 10^8 samples would need ~60 GB.
MAX_SAMPLES = 100_000


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


@dataclass(frozen=True)
class VerifyReport:
    m: float
    l: float
    seed: int
    samples: int
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
                "box": [-SAMPLE_BOX, SAMPLE_BOX],
                "k_min": SAMPLE_K_MIN,
                "elapsed": self.elapsed,
                "counts": self.counts,
            },
            "checks": [asdict(c) for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [
            f"verification report for (m, l) = ({self.m:g}, {self.l:g})",
            f"samples={self.samples} seed={self.seed} "
            f"box=[-{SAMPLE_BOX},{SAMPLE_BOX}]^7 K>{SAMPLE_K_MIN}",
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

    Of a whole sample only its jets are kept, and they build no tensor:
    `_chk_sample` reads them in record chunks, whose jets keep the tensors
    that their kernels build.  Every sample point is in the (0, l) chart,
    where K = 1, so the m = 0 records read the sample's points too, through its
    jet at (0, l), which is the sample's own jet at m = 0.  The Killing
    sample is the sample's first points: rows of that jet (`FrameJet._rows`),
    or at l = 0, where the Killing family is taken at l = 1, their jet at
    (0, 1); only a sample of fewer than 3 points draws its own.
    """

    def __init__(self, m, l, samples, seed):
        self.params = ModelParams(m, l)
        self.samples = samples
        self.seed = seed
        self.jet = self._sample(self.params, samples)
        self.pts = self.jet.q
        params0 = ModelParams(0.0, l)
        self.jet0 = (self.jet if params0 == self.params
                     else FrameJet(self.pts, params0))
        # the Killing family and the geodesic system are specific to m = 0;
        # at l = 0 the horizontal frame fields are Killing fields too, so
        # that none could be rejected: substitute l = 1 with a note
        self.params_kill = ModelParams(0.0, l if l != 0.0 else 1.0)
        # at least 2 points so the 13-field rank is certifiable (7 columns
        # each)
        n_kill = min(max(samples, 3), 40)
        if n_kill > samples:
            self.jet_kill = self._sample(self.params_kill, n_kill)
        elif self.params_kill == params0:
            self.jet_kill = self.jet0._rows(slice(0, n_kill))
        else:
            self.jet_kill = FrameJet(self.pts[:n_kill], self.params_kill)
        self.pts_kill = self.jet_kill.q
        self.doc = pt.load_tables()

    def _sample(self, params, n):
        return FrameJet(sample_domain_points(params, n, self.seed), params)


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


def _verdict(cid, ok, value, witness, reference, details=""):
    """Two routes to one object: ``pass`` if they agree (ok), else
    ``fail``.  The witness, if any, is copied to a list of floats."""
    if witness is not None:
        witness = [float(v) for v in witness]
    return CheckResult(cid, "pass" if ok else "fail", value, witness,
                       reference, details)


def _passfail(cid, res, tol, reference, pts, details=""):
    worst, witness, _ = _summary(res, pts)
    return _verdict(cid, worst <= tol, worst, witness, reference, details)


def _claim(cid, worst, witness, tol, reference, holds, note, printed, oracle):
    """A printed claim: ``pass`` with details ``holds`` within tolerance,
    else a ``paper-discrepancy`` with details ``note`` quoting the printed
    and oracle strings."""
    if worst <= tol:
        return CheckResult(cid, "pass", worst, witness, reference, holds)
    return CheckResult(
        cid, "paper-discrepancy", worst, witness, reference, note,
        printed=printed, oracle=oracle,
    )


# --------------------------------------------------------------------------
# the sample: kernels on the chunk pool, records in the calling thread
# --------------------------------------------------------------------------


#: Points per record chunk of `_chk_sample`: its records are judged in the
#: calling thread on 32 points at a time, and its kernel runs on the chunk
#: pool on `frames._CHUNK`-point pieces of them.  Fewer, larger chunks
#: spend less of the pass on the records' small numpy calls, which hold the
#: GIL; the kernels keep the temporaries of two pieces at a time.
_RECORD_CHUNK = 32

#: The sample's first rows that the head records read: the second Bianchi
#: identity on 8 (nabla R), the parallelism of curvature and torsion on 12
#: (X R at (0, l) too), and the m = 0 spot values on 20 (R at (0, l)).
_ROWS_BIANCHI, _ROWS_PARALLEL, _ROWS_M0 = 8, 12, 20

#: The tensors of a record chunk's jet at (m, l) that its kernel builds.
_KEPT = ("F", "Om", "C", "dC", "gamma", "R")

#: A record of the whole sample, one declaration of `_sample_records`.
_Record = namedtuple(
    "_Record", "id tol reference residual claim quote rows details",
    defaults=(None, lambda t, res: 0.0, None, ""))

#: The details of a record evaluated at m = 0, from l.
_AT_M0 = "evaluated at (m, l) = (0, {:g})"


def _sample_records(doc, l):
    """The records of the sample from the table document doc at l, one
    declaration each: the pass/fail records, then the printed claims, the
    printed frame tables last.  A record judges max |residual(t)| against
    its fixed tolerance tol, t the tensors of a record chunk with the
    points on axis 0 (`_chk_sample`); with rows, t holds only the chunk's
    points among the sample's first rows (`_head`).  quote(t, res) is one
    value per point (0 by default), res the residual at t.  A pass/fail
    record's details are details.  A printed claim is (holds, texts):
    details if it holds, and if not, texts(worst, at) of the worst residual
    and the quoted value at the witness gives the note, the printed text
    and the oracle text."""
    claims, curvature = doc["structure_claims"], doc["curvature_tables"]
    wit = claims["class_membership"]["t2_exclusion_witness"]
    mixed, as_eq = claims["mixed_torsion"], claims["as_equations"]
    char = claims["characteristic_parallelism"]
    scalar, spots = curvature["scalar"], curvature["m0_examples"]["entries"]
    frame = doc["frame_tables"]
    ann = frame["general_brackets"]["known_discrepancies"]
    at_m0 = _AT_M0.format(l)
    eye = np.eye(7)

    def fd_gap(t):
        # C against an independent central difference of the frame columns
        dF = np.stack([(frame_matrix(t.q + dq, t.params)
                        - frame_matrix(t.q - dq, t.params)) / (2 * FD_STEP)
                       for dq in FD_STEP * eye], axis=1)
        vec = (np.einsum("...ma,...mnb->...nab", t.F, dF)
               - np.einsum("...mb,...mna->...nab", t.F, dF))
        return t.C - np.einsum("...cn,...nab->...abc", t.Om, vec)

    def jacobi(t):
        J = (np.einsum("...ha,...hbcd->...abcd", t.F[..., 3:, :], t.fr.dC)
             + np.einsum("...bce,...aed->...abcd", t.C, t.C))
        return (J + np.einsum("...bcad->...abcd", J)
                + np.einsum("...cabd->...abcd", J))

    def symmetries(t):
        # each residual reduced to its max per point (max is exact) before
        # the next is built, so that one R-sized residual is held at a time
        R, perm = t.R, lambda spec: np.einsum(spec, t.R)
        return np.stack([
            _pmax(R + perm("...abcd->...bacd")),
            _pmax(R + perm("...abcd->...abdc")),
            _pmax(R - perm("...abcd->...cdab")),
            _pmax(R + perm("...bdca->...abcd") + perm("...dacb->...abcd"))],
            axis=1)

    def m0_spots(t):
        # the printed spot values of R and the Ricci diagonal, then the
        # Ricci matrix off its diagonal
        R0, env0 = t.R0, pt.point_env(t.q, t.fr0.params)
        ric0 = ricci_from_riemann(R0)
        spot = [R0[..., 0, 3, 0, 3] - pt.safe_eval(spots["1,4"], env0),
                R0[..., 5, 6, 5, 6] - pt.safe_eval(spots["6,7"], env0)]
        spot += [ric0[..., i, i] - pt.safe_eval(expr, env0) for i, expr
                 in enumerate(curvature["ricci_m0_diagonal"]["entries"])]
        off = np.where(eye > 0.5, 0.0, ric0)
        return np.concatenate([np.stack(spot, axis=-1),
                               off.reshape(len(R0), -1)], axis=-1)

    def appendix(cid, key):
        # an annotated bracket component and its slot (a, b, c) in C
        info = ann[key]
        a, b, c = (int(v) - 1 for v in (*key.split(","), info["component"]))
        return _Record(
            cid, TOL_TABLE, f"printed bracket coefficient for pair ({key})",
            lambda t: t.C[..., a, b, c] - pt.safe_eval(info["printed"], t.env),
            ("printed and exact coefficients coincide at these parameters; "
             + info["note"], lambda worst, at: (
                 info["note"], info["printed"],
                 f"{info['derived']} = {at:.12g} at the witness point")),
            lambda t, res: t.C[..., a, b, c])

    def table(cid, tab, tol, reference, oracle, m0=False):
        # a printed {pair: {target: expr}} table against the frame tensor
        # oracle(t)[..., a, b, :], at (0, l) with m0: a point's residual is
        # its worst gap over the entries, and the first entry with that gap
        # its quoted value.  Annotated components are skipped: those are
        # records of their own
        keys, skip = list(tab["entries"]), tab.get("known_discrepancies", {})
        details = at_m0 if m0 else ""

        def gaps(t):
            tensor = oracle(t)
            gap = np.stack([
                tensor[..., a - 1, b - 1, :] - printed for (a, b), printed
                in pt.component_table_values(
                    tab, t.q, t.fr0.params if m0 else t.params).items()],
                axis=1)
            for key, info in skip.items():
                gap[:, keys.index(key), int(info["component"]) - 1] = 0.0
            return gap

        def texts(worst, at):
            key = keys[int(at)]
            return (f"{details} worst entry ({key}) beyond tolerance",
                    json.dumps(tab["entries"][key]),
                    f"exact value differs by {worst:.6e} at the witness point")

        return _Record(
            cid, tol, reference, gaps, (details, texts),
            # the flat argmax is in the first entry that has the worst gap
            lambda t, res: np.abs(res).reshape(len(res), -1).argmax(1) // 7)

    return (
        _Record("frame-orthonormality", TOL_EXACT,
                "frame columns are orthonormal for the coordinate metric",
                lambda t: np.einsum("...ma,...mn,...nb->...ab", t.F,
                                    metric_matrix(t.fr, t.params), t.F) - eye),
        _Record("frame-coframe-inverse", TOL_EXACT,
                "coframe rows invert the frame columns",
                lambda t: np.einsum("...am,...mb->...ab", t.Om, t.F) - eye),
        _Record("bracket-antisymmetry", TOL_EXACT, "[X_a, X_b] = -[X_b, X_a]",
                lambda t: t.C + np.einsum("...abc->...bac", t.C)),
        _Record("bracket-vs-finite-difference", TOL_FD,
                "structure constants from exact differentiation match a "
                "central-difference recomputation", fd_gap),
        _Record("bracket-jacobi", TOL_EXACT,
                "cyclic Jacobi identity for the frame brackets", jacobi),
        _Record("connection-metric-compatibility", TOL_EXACT,
                "<nabla_e X_a, X_b> is antisymmetric in (a, b)",
                lambda t: t.gam + np.einsum("...eab->...eba", t.gam)),
        _Record("connection-torsion-free", TOL_EXACT,
                "nabla_a X_b - nabla_b X_a = [X_a, X_b]",
                lambda t: t.gam - np.einsum("...abc->...bac", t.gam) - t.C),
        _Record("connection-vs-bundle-route", TOL_EXACT,
                "Koszul frame computation matches the closed form of the "
                "Riemannian submersion onto u",
                lambda t: t.gam - gamma_frame_bundle(t.q, t.params)),
        _Record("torsion-cyclic-witness", TOL_TABLE,
                f"printed cyclic-sum witness value {wit['value']} on the "
                f"triple ({wit['triple']})",
                lambda t: (_cyclic_sums(t.T, 0, 3, 4)
                           - pt.safe_eval(wit["value"], t.env))),
        _Record("curvature-symmetries", TOL_RICCI,
                "antisymmetries, pair symmetry, and the first Bianchi "
                "identity", symmetries),
        _Record("ricci-symmetry", TOL_EXACT, "the Ricci matrix is symmetric",
                lambda t: t.ric - np.einsum("...ab->...ba", t.ric)),
        _Record("general-curvature-table", TOL_TABLE,
                "printed curvature components R(X_a, X_b, X_a, X_b)",
                lambda t: np.stack([
                    t.R[..., a - 1, b - 1, a - 1, b - 1] - v for (a, b), v
                    in pt.sectional_table_values(t.q, t.params).items()],
                    axis=-1)),
        _Record("ricci-proposition", TOL_RICCI,
                "printed Ricci matrix for general m",
                lambda t: t.ric - pt.ricci_matrix_values(t.q, t.params)),
        _Record("scalar-vs-proposition-trace", TOL_TABLE,
                "scalar curvature equals the trace of the printed Ricci "
                "matrix",
                lambda t: t.scal - pt.scalar_values(t.q, t.params, "derived")),
        _Record("riemann-frame-vs-bundle-route", TOL_TABLE,
                "Cartan frame curvature matches O'Neill's equations of the "
                "Riemannian submersion onto u",
                lambda t: t.R - riemann_frame_bundle(t.q, t.params)),
        _Record("curvature-second-bianchi", TOL_TABLE,
                "cyclic sum of the covariant curvature derivative vanishes",
                lambda t: t.bianchi, rows=_ROWS_BIANCHI),
        _Record("m0-curvature-table", TOL_TABLE,
                "printed curvature spot values and Ricci diagonal at m = 0",
                m0_spots, rows=_ROWS_M0, details=at_m0),
        _Record("torsion-parallelism-canonical", TOL_TABLE,
                "the canonical connection parallelizes curvature and torsion "
                "at m = 0", lambda t: t.canonical, rows=_ROWS_PARALLEL,
                details=at_m0),
        # the printed claims, the operator definition of the torsion first
        _Record("torsion-definitions-agreement", TOL_TABLE,
                "the two printed definitions of the connection torsion agree",
                lambda t: faithful_torsion_tensor(t.fr, t.params) - t.T,
                ("both definitions coincide at these parameters (l = 0)",
                 lambda worst, at: (mixed["note"], mixed["claim"],
                                    mixed["operator_value"]))),
        _Record("scalar-vs-corollary", TOL_TABLE,
                "printed constant-scalar-curvature value",
                lambda t: t.scal - pt.scalar_values(t.q, t.params, "printed"),
                ("printed and exact values coincide at these parameters "
                 "(l = 0)", lambda worst, at: (
                     scalar["note"], scalar["printed"],
                     f"{scalar['derived']} = {at:.12g} at the witness point")),
                lambda t, res: t.scal),
        _Record("as-equations", 1e-7,
                "printed claim: the candidate tensor satisfies the "
                "Ambrose-Singer equations", lambda t: t.as_eq,
                (f"holds ({as_eq['holds_when']})", lambda worst, at: (
                    as_eq["note"], as_eq["claim"],
                    f"max equation residual {worst:.6e} at the witness "
                    "point"))),
        _Record("torsion-parallelism-characteristic", 1e-7,
                "printed claim: the characteristic connection parallelizes "
                "curvature and torsion",
                lambda t: t.char,
                ("holds trivially (l = 0)", lambda worst, at: (
                    char["note"], char["claim"],
                    f"{char['witness_torsion']}; {char['witness_curvature']}; "
                    f"measured max residual {worst:.6e}")),
                rows=_ROWS_PARALLEL),
        appendix("appendix-bracket-45", "4,5"),
        appendix("appendix-bracket-47", "4,7"),
        table("general-bracket-table", frame["general_brackets"], TOL_TABLE,
              "printed general bracket table outside annotated components",
              lambda t: t.C),
        table("general-connection-table", frame["general_connection"],
              TOL_TABLE, "printed general connection table",
              lambda t: t.gam),
        table("torsion-table", doc["torsion_table"], TOL_TABLE,
              "printed reduced-torsion values on horizontal pairs",
              lambda t: t.T),
        table("m0-bracket-table", frame["m0_brackets"], TOL_EXACT,
              "printed bracket table at m = 0", lambda t: t.fr0.C, m0=True),
        table("m0-connection-table", frame["m0_connection"], TOL_EXACT,
              "printed connection table at m = 0", lambda t: t.fr0.gamma,
              m0=True),
    )


def _bianchi_max(nab):
    """Max |cyclic sum of the second Bianchi identity| per point of nabla R
    (axis 0), the sum and its absolute value taken in one array."""
    res = nab + np.einsum("...abecd->...eabcd", nab)
    res += np.einsum("...beacd->...eabcd", nab)
    return np.abs(res, out=res).reshape(len(res), -1).max(axis=1)


def _sample_kernel(fr0, start):
    """The kernel of the record chunk whose first point is the sample's
    point start, fr0 the chunk's jet at (0, l) (the chunk's own jet at
    m = 0): a function of one piece fr of the chunk's jet, which
    `FrameJet._chunked` runs on the chunk pool.  It calls no public
    function.  It returns a dict of named arrays: the piece's `_KEPT`
    tensors; as_eq, its Ambrose-Singer residuals; at m != 0, C0 and
    gamma0, C and gamma at (0, l), and in a head chunk (one that starts
    among the first `_ROWS_M0` points, the largest head) R0, R at (0, l)
    on the first `_ROWS_M0` points, and canonical, the canonical residuals
    on the first `_ROWS_PARALLEL`; in a head chunk, char, the
    characteristic residuals on the first `_ROWS_PARALLEL`, and bianchi,
    the max |second Bianchi sum| per point on the first `_ROWS_BIANCHI`.
    A head result has the piece's rows, zero past its head.  X R and
    nabla R stay in the worker."""
    def kernel(fr):
        p0 = fr0._rows(fr.rows) if fr0.params != fr.params else fr
        first, n = start + fr.rows.start, len(fr.q)

        def rows(last):
            # the piece's points among the sample's first last
            return slice(0, min(max(last - first, 0), n))

        def pad(jet, build, shape=()):
            # build(jet) of some first rows of the piece, padded with zeros
            # to the piece's rows in the memory layout of the result
            if not len(jet.q):
                return np.zeros((n,) + shape)
            got = build(jet)
            out = np.zeros_like(got, shape=(n,) + got.shape[1:])
            out[:len(got)] = got
            return out

        # the work at (0, l) first, so that its X R is gone before that at
        # (m, l) is built
        at0 = {"C0": p0.C, "gamma0": p0.gamma} if p0 is not fr else {}
        if at0 and start < _ROWS_M0:
            # R at (0, l) built once, on the jet that the canonical
            # residuals read rows of
            head0 = p0._rows(rows(_ROWS_M0))
            at0["R0"] = pad(head0, lambda h: h.R, (7,) * 4)
            at0["canonical"] = pad(head0._rows(rows(_ROWS_PARALLEL)),
                                   _as_residuals, (3,))
        out = {name: getattr(fr, name) for name in _KEPT}
        out["as_eq"] = _as_residuals(fr)
        out.update(at0)
        if start < _ROWS_M0:
            out["char"] = pad(fr._rows(rows(_ROWS_PARALLEL)),
                              _char_residuals, (2,))
            out["bianchi"] = pad(fr._rows(rows(_ROWS_BIANCHI)),
                                 lambda h: _bianchi_max(h.nabla_R))
        return out

    return kernel


def _head(t, n):
    """The first n points (all, if fewer) of the record chunk t: its jets
    as `FrameJet._rows`, which share what they have built, and its arrays
    with the points on axis 0 by their rows; the rest (the parameters and
    the point environment env) as they are."""
    rows = slice(0, n)
    return SimpleNamespace(**{
        key: (v._rows(rows) if isinstance(v, FrameJet)
              else v[rows] if isinstance(v, np.ndarray) else v)
        for key, v in vars(t).items()})


def _sample_chunk(ctx, records, start):
    """The max |residual| per point and the quoted value of each of the
    records, and the `_torsion_summary`, of the record chunk of the sample
    whose first point is start (`_chk_sample`).  Its kernel's pieces have
    all ended before the first record reads the tensors they built, the
    kernel's outputs by their names, and nothing of the chunk outlives the
    call."""
    params = ctx.params
    rows = slice(start, start + _RECORD_CHUNK)
    fr = ctx.jet._rows(rows)
    fr0 = fr if ctx.jet0 is ctx.jet else ctx.jet0._rows(rows)
    # a non-finite tensor shows in the residuals that read it
    with np.errstate(all="ignore"):
        got = fr._chunked(_sample_kernel(fr0, start))
        fr._keep(**{name: got.pop(name) for name in _KEPT})
        if fr0 is not fr:
            fr0._keep(C=got.pop("C0"), gamma=got.pop("gamma0"))
        elif start < _ROWS_M0:
            # at m = 0 the head at (0, l) is the chunk's own
            got.update(R0=fr.R, canonical=got["as_eq"])
        R, T = fr.R, torsion_D_tensor(fr, params)
        ric = ricci_from_riemann(R)
        t = SimpleNamespace(
            fr=fr, fr0=fr0, q=fr.q, params=params, F=fr.F, Om=fr.Om,
            C=fr.C, gam=fr.gamma, R=R, T=T, env=pt.point_env(fr.q, params),
            ric=ric, scal=scalar_from_ricci(ric), **got)
        res = np.zeros((len(t.q), len(records)))
        quoted = np.zeros_like(res)
        for i, r in enumerate(records):
            if r.rows is None:
                at = t
            elif start < r.rows:
                at = _head(t, r.rows - start)
            else:
                continue
            r_res = r.residual(at)
            res[:len(at.q), i] = _pmax(r_res)
            quoted[:len(at.q), i] = r.quote(at, r_res)
        return res, quoted, _torsion_summary(T)


def _chk_sample(ctx):
    """Every record read from the points of the sample.  The calling
    thread walks the sample in `_RECORD_CHUNK`-point record chunks of its
    jet.  Each chunk's kernel (`_sample_kernel`) runs on the chunk pool
    over the chunk's 8-point pieces (`FrameJet._chunked`): it builds F,
    Om, dF, C, dC, gamma, R and X R once, the Ambrose-Singer residuals of
    every point and, on the sample's first points, the results of the
    records with rows.  nabla R is built on the 8 points of the second
    Bianchi identity alone.  The m = 0 records and tables read the same
    rows of the sample's jet at (0, l), ctx.jet0, which at m != 0 builds
    the frame and connection of every point, R of the first 20 and X R of
    the first 12; at m = 0 the canonical record reads the Ambrose-Singer
    residuals of its rows, the same call on the same jets.  Once the
    pieces have ended, the chunk's records are judged in the calling
    thread, on the tensors the kernel returned, kept on the chunk's jets.
    Each record, printed tables included, is one declaration
    (`_sample_records`): they are mapped to max |residual| per point and
    their quoted values, a record with rows on those of each chunk's
    points whose index in the sample is below rows, and one loop after the
    pass judges them.  So no public function runs on a pool worker, nor
    while pool work is in flight.  A non-finite residual stops the run:
    such (m, l) can be neither checked nor compared with a printed
    table."""
    params = ctx.params
    records = _sample_records(ctx.doc, params.l)
    n = len(ctx.pts)
    res, quoted = np.zeros((n, len(records))), np.zeros((n, len(records)))
    tors = np.zeros((n, 5))
    for start in range(0, n, _RECORD_CHUNK):
        rows = slice(start, start + _RECORD_CHUNK)
        res[rows], quoted[rows], tors[rows] = _sample_chunk(ctx, records,
                                                            start)
    if not np.isfinite(res).all():
        raise DomainViolation(
            f"the curvature at (m, l) = ({params.m:g}, {params.l:g}) "
            "exceeds the floating-point range")
    out = []
    for r, r_res, r_quoted in zip(records, res.T, quoted.T):
        worst, witness, k = _summary(r_res[:r.rows], ctx.pts)
        if r.claim is None:
            out.append(_verdict(r.id, worst <= r.tol, worst, witness,
                                r.reference, r.details))
            continue
        holds, texts = r.claim
        out.append(_claim(r.id, worst, witness, r.tol, r.reference,
                          holds, *texts(worst, r_quoted[k])))

    try:
        cls = _structure_class(tors, ctx.pts)
    except InconclusiveClassification as exc:
        ok, witness, details = False, exc.point, str(exc)
    else:
        ok = cls.label == ("trivial" if params.l == 0.0 else "T3")
        witness = None
        details = f"label={cls.label} witness_triple={cls.witness_triple}"
    out.append(_verdict(
        "structure-class", ok, None, witness, "torsion classification is "
        "deterministic and matches the printed class", details))
    return out


# --------------------------------------------------------------------------
# Killing-field checks (the closed-form family lives at m = 0)
# --------------------------------------------------------------------------


def _chk_killing(ctx):
    out = []
    params, pts, jet = ctx.params_kill, ctx.pts_kill, ctx.jet_kill
    note = (
        "" if ctx.params.l != 0.0
        else "at l = 0 the horizontal frame fields are Killing fields too; "
        "evaluated at l = 1 instead"
    )
    and_note = f"; {note}" if note else ""
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
            TOL_TABLE,
            "all 13 closed-form fields satisfy the Killing equation", pts,
            details=note,
        )
    )

    rank = basis_rank(basis, pts)
    out.append(_verdict(
        "killing-basis-rank", rank == 13, float(13 - rank), None,
        "the closed-form family is 13-dimensional", f"rank={rank}{and_note}"))

    # a rejection threshold relative to |l|, which is exactly the
    # horizontal fields' residual (a basis field's reads 0)
    reject = KILLING_THRESHOLD * abs(params.l)
    min_bad = float(kil[len(basis):].min())
    out.append(_verdict(
        "killing-horizontal-rejected", min_bad > reject,
        min_bad, None,
        "the horizontal frame fields are not Killing fields",
        f"smallest horizontal residual {min_bad:.3e}{and_note}"))

    # verdict-level equivalence: by either residual, a field is Killing when
    # that residual is at most the rejection threshold
    pde = [pde_residuals(fld, jet, params) for fld in fields]
    agree = all((float(np.abs(r).max()) <= reject) == (k <= reject)
                for r, k in zip(pde, kil))
    out.append(_verdict(
        "killing-pde-equivalence", agree, None, None,
        "the 28-equation system and the Killing residual agree on which "
        "fields are Killing", note))

    info = ctx.doc["killing_tables"]["eq13_sign"]
    # the first basis field with the largest |d(f2)/dr|: that is -(P + R)
    # for every l, so P's field (R's ties it)
    best = PARAM_NAMES_M0.index("P")
    d = basis[best].coeff_partials(pts)
    eq13 = pde[best][..., 12]
    printed13 = eq13 - params.l * pts[..., 6] * d[..., 0, 1]
    worst, witness, _ = _summary(printed13, pts)
    corrected = float(np.abs(eq13).max())
    out.append(
        _claim(
            "killing-eq13-sign", worst, witness, TOL_TABLE,
            "printed sign of the d(f2)/dr term in equation 13",
            "printed and corrected variants coincide on the sampled fields"
            + and_note,
            info["note"], info["printed_term"],
            f"{info['derived_term']}; corrected residual {corrected:.3e}, "
            f"printed-variant residual {worst:.3e} on a closed-form basis "
            "field",
        )
    )
    return out


# --------------------------------------------------------------------------
# geodesic checks (the printed system lives at (m, l) = (0, 1))
# --------------------------------------------------------------------------


def _heis_states(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.4, 0.4, size=(n, 7)), rng.uniform(-1.0, 1.0, size=(n, 7))


def _chk_geodesic_tables(ctx):
    out = []
    qs, ps = _heis_states(ctx.seed + 101, min(ctx.samples, 50))
    res = pt.momenta_values(qs, ps) - frame_momenta(qs, ps, HEIS)[..., 3:]
    out.append(
        _passfail(
            "geodesic-momenta", res, TOL_EXACT,
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
            "geodesic-rhs-lines", lines_ok, TOL_EXACT,
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
            "geodesic-sdot-line", worst, witness, TOL_EXACT,
            "printed flow equation for the second vertical coordinate", "",
            info["note"], info["printed"], info["derived"],
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
            "heisenberg-bracket-yz", worst, None, TOL_EXACT,
            "printed prose value of the bracket of the last two horizontal "
            "fields",
            info["note"], info["note"], json.dumps(info["printed_component"]),
            json.dumps(info["derived_component"])
            + f"; computed coefficients {oracle_vec.tolist()}",
        )
    )

    n_poisson = min(ctx.samples, 100)
    qs2, ps2 = _heis_states(ctx.seed + 102, n_poisson)
    res = _poisson_residuals(FrameJet(qs2, HEIS), ps2)
    out.append(
        _passfail(
            "geodesic-poisson-brackets", res, TOL_EXACT,
            "the six printed momentum Poisson relations", qs2,
            details=f"checked at {n_poisson} random phase states",
        )
    )
    return out


def _chk_geodesic_flow(ctx):
    out = []
    rng = np.random.default_rng(ctx.seed + 103)
    q0 = np.zeros(7)
    p1 = rng.uniform(-1.0, 1.0, 7)
    # the homothety q -> b q maps (m, l) to (m b^2, l b) and flow time by
    # b^2, so the step shrinks with |l| and sqrt|m| to keep its size in the
    # family's own units
    h = 1e-3 / max(1.0, abs(ctx.params.l), np.sqrt(abs(ctx.params.m)))
    traj_r = integrate(CotangentState(q0, p1), ctx.params, mode="riemannian",
                       h=h, n=500)
    drift_r = float(np.abs(traj_r.H - traj_r.H[0]).max())
    out.append(_verdict(
        "geodesic-energy-conservation-riemannian", drift_r <= 1e-10,
        drift_r, p1, "energy conservation for the requested parameters",
        f"(m, l) = ({ctx.params.m:g}, {ctx.params.l:g}); "
        f"{traj_r.n_samples - 1} accepted steps (status {traj_r.status})"))

    # one Heisenberg trajectory and its closed form serve the energy,
    # agreement and circle records; fourth-order convergence runs its own
    p2 = rng.uniform(-1.0, 1.0, 7)
    p2[0] = 1.0 + 0.2 * rng.uniform()  # keep the rotation rate away from zero
    s2 = CotangentState(q0, p2)
    rk = integrate(s2, HEIS, mode="heisenberg", h=1e-3, n=400)
    drift = float(np.abs(rk.H - rk.H[0]).max())
    pv_drift = float(np.abs(rk.p[:, :3] - rk.p[0, :3]).max())
    out.append(_verdict(
        "geodesic-energy-conservation",
        drift <= 1e-11 and pv_drift <= 1e-13
        and rk.status == "complete", max(drift, pv_drift), p2,
        "the integrator preserves the Hamiltonian and the vertical momenta",
        f"H drift {drift:.3e}, vertical momentum drift {pv_drift:.3e} over "
        f"{rk.n_samples - 1} accepted steps (status {rk.status})"))

    cf = closed_form_trajectory(s2, h=1e-3, n=400)
    gap = float(max(np.abs(rk.q - cf.q).max(), np.abs(rk.p - cf.p).max()))
    out.append(_verdict(
        "geodesic-closed-form-agreement", gap <= 1e-9, gap,
        p2, "the closed-form trajectory matches the integrator",
        f"max |q, p| gap over {rk.n_samples} samples"))

    P0 = frame_momenta(q0, p2, HEIS)[3:]
    radius_pred = float(np.linalg.norm(P0) / np.linalg.norm(p2[:3]))
    verdict = circle_check(cf)
    out.append(_verdict(
        "geodesic-circle-radius",
        verdict.kind == "circle"
        and abs(verdict.radius - radius_pred) <= 1e-4 * radius_pred,
        abs(verdict.radius - radius_pred) / radius_pred
        if verdict.radius else None, p2,
        "the horizontal projection is a circle of radius |P(0)|/|Lambda|",
        f"verdict {verdict.kind}, radius {verdict.radius!r}, "
        f"predicted {radius_pred!r}"))

    ends = {}
    for h, n in ((0.02, 16), (0.01, 32), (0.005, 64)):
        ends[h] = integrate(s2, HEIS, mode="heisenberg", h=h, n=n).q[-1]
    num = float(np.linalg.norm(ends[0.02] - ends[0.01]))
    den = float(np.linalg.norm(ends[0.01] - ends[0.005]))
    ratio = num / den if den else float("inf")
    out.append(_verdict(
        "geodesic-rk4-order", 12.0 <= ratio <= 20.0, None, p2,
        "halving the step divides the endpoint error by about 16",
        f"successive-difference ratio {ratio:.2f}"))
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
    return [_verdict(
        "bcv-classification", distinct, None, None,
        "the seven base-family cases are distinguished",
        f"(m, l) = ({ctx.params.m:g}, {ctx.params.l:g}) -> {here.label} "
        f"(case {here.case})")]


def _chk_sampling(ctx):
    min_k = float(ctx.jet.K.min())
    again = sample_domain_points(ctx.params, ctx.samples, ctx.seed)
    return [_verdict(
        "domain-sampling",
        np.abs(ctx.pts).max() <= SAMPLE_BOX and min_k > SAMPLE_K_MIN
        and np.array_equal(again, ctx.pts), None, None,
        f"samples stay in the box, respect K > {SAMPLE_K_MIN}, and are "
        "seed-deterministic", f"min K = {min_k:.6f} over {len(ctx.pts)} points")]


_REGISTRY = (
    _chk_sample,
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
) -> VerifyReport:
    """Run the whole registry and return the assembled report.  Each record
    is judged against its own fixed tolerance.

    Raises DomainViolation for a subnormal l, when no acceptable sample
    points exist for the requested parameters or their curvature overflows
    float64, and ValueError for a non-finite m or l or for samples outside
    1 to MAX_SAMPLES, before any work.
    """
    if not (np.isfinite(m) and np.isfinite(l)):
        raise ValueError(f"m and l must be finite, got m={m!r}, l={l!r}")
    if 0.0 < abs(l) < np.finfo(float).tiny:
        # the Killing residuals and thresholds, which scale with |l|,
        # underflow there
        raise DomainViolation(
            f"l = {l:g} is subnormal: the records relative to |l| need "
            f"|l| >= {np.finfo(float).tiny:g} or l = 0")
    if samples < 1:
        raise ValueError("need samples >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"{samples} samples exceed MAX_SAMPLES = {MAX_SAMPLES}")
    start = time.perf_counter()
    ctx = _Ctx(m, l, samples, seed)
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
        elapsed=elapsed, checks=tuple(checks),
    )
