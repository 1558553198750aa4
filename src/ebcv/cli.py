"""Command-line front end.

Subcommands:

* ``verify``    — run the whole check registry, emit a text or JSON report;
* ``geodesic``  — integrate a trajectory and export it as CSV or JSON;
* ``killing``   — export the closed-form Killing basis or check a field file;
* ``classify``  — name the 3-dimensional base family for (m, l);
* ``curvature`` — evaluate curvature data at a point.

Exit codes: 0 success, 1 internal check failure, 2 domain violation or
invalid usage, 3 the integrator left the chart (the message names the step),
4 malformed Killing-field input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

import numpy as np

from .curvature import ricci_from_riemann, riemann_frame, scalar_from_ricci
from .errors import DomainViolation, MalformedFieldInput, ModeMismatch
from .frames import (SAMPLE_BOX, ModelParams, bcv_classify, k_factor,
                     sample_domain_points)
from .geodesics import (
    MAX_STEPS,
    CotangentState,
    circle_check,
    closed_form_trajectory,
    integrate,
)
from .killing import (KILLING_THRESHOLD, PolyVectorField, killing_basis_m0,
                      killing_residual)
from .verify import MAX_SAMPLES, run_verify

CSV_HEADER = "u,r,s,t,w,x,y,z,pr,ps,pt,pw,px,py,pz,H"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_DOMAIN = 2
EXIT_DOMAIN_EXIT = 3
EXIT_MALFORMED_FIELD = 4


def _write_output(text: str, out) -> None:
    """text and a final newline to the --out file, or to stdout."""
    stream = out or sys.stdout
    stream.write(text)
    if not text.endswith("\n"):
        stream.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def cmd_verify(args) -> int:
    report = run_verify(
        m=args.m, l=args.l, samples=args.samples, seed=args.seed)
    if args.format == "json":
        _write_output(_json_dumps(report.to_json_dict()), args.out)
    else:
        _write_output(report.to_text(), args.out)
    return report.exit_code


# --------------------------------------------------------------------------
# geodesic
# --------------------------------------------------------------------------


def trajectory_csv(traj) -> str:
    """The trajectory as CSV text: a header line, then one row per sample."""
    lines = [CSV_HEADER]
    for row in traj.to_rows():
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _trajectory_json(traj) -> str:
    return _json_dumps(
        {
            "mode": traj.mode.value,
            "params": {"m": traj.params.m, "l": traj.params.l},
            "h": traj.h,
            "status": traj.status,
            "exit_step": traj.exit_step,
            "columns": CSV_HEADER.split(","),
            "rows": [[float(v) for v in row] for row in traj.to_rows()],
        }
    )


def cmd_geodesic(args) -> int:
    params = ModelParams(args.m, args.l)
    init = np.asarray(args.init, dtype=float)
    state = CotangentState(init[:7], init[7:])
    traj = integrate(state, params, mode=args.mode, h=args.h, n=args.n)
    heisenberg = args.mode == "heisenberg" and traj.n_samples >= 8
    if heisenberg:
        # the closed form before anything is written: where |u Lambda|
        # leaves the float range it overflows, and the run is refused
        with np.errstate(all="ignore"):
            closed = closed_form_trajectory(state, h=args.h,
                                            n=traj.n_samples - 1)
            deviation = float(np.abs(closed.q[-1] - traj.q[-1]).max())
        if not np.isfinite(deviation):
            print(f"closed-form overflow: the closed-form geodesic over "
                  f"{traj.n_samples - 1} steps of h = {args.h:g} exceeds the "
                  "floating-point range", file=sys.stderr)
            return EXIT_DOMAIN

    text = trajectory_csv(traj) if args.format == "csv" else _trajectory_json(traj)
    _write_output(text, args.out)

    summary = [f"status={traj.status}"]
    if traj.n_samples > 1:
        drift = float(np.abs(traj.H - traj.H[0]).max())
        summary.append(f"H-drift={drift:.3e}")
    if heisenberg:
        verdict = circle_check(traj)
        if verdict.kind == "circle":
            summary.append(f"verdict=circle, radius {verdict.radius:.6f}")
        else:
            summary.append(f"verdict={verdict.kind}")
        summary.append(f"closed-form-deviation={deviation:.3e}")
    stream = sys.stderr if args.out is None else sys.stdout
    print("; ".join(summary), file=stream)

    if traj.status == "domain-exit":
        print(
            f"trajectory left the chart at step {traj.exit_step}",
            file=sys.stderr,
        )
        return EXIT_DOMAIN_EXIT
    if traj.status == "step-rejected":
        print(
            f"integration step {traj.exit_step} produced a non-finite state "
            "or energy",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILURE
    return EXIT_OK


# --------------------------------------------------------------------------
# killing
# --------------------------------------------------------------------------


def cmd_killing(args) -> int:
    if args.action == "list":
        basis = killing_basis_m0(args.l)
        doc = {
            "l": args.l,
            "dimension": len(basis),
            "fields": [f.to_json_dict() for f in basis],
        }
        _write_output(_json_dumps(doc), args.out)
        return EXIT_OK

    # action == "check"
    if not args.input:
        print("killing check needs --input FILE", file=sys.stderr)
        return EXIT_MALFORMED_FIELD
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read field file: {exc}", file=sys.stderr)
        return EXIT_MALFORMED_FIELD
    field = PolyVectorField.from_json_dict(data)
    params = ModelParams(0.0, args.l)
    pts = sample_domain_points(params, 40, seed=0)
    with np.errstate(all="ignore"):
        residual = float(np.abs(killing_residual(field, pts, params)).max())
    if not np.isfinite(residual):
        print("malformed field input: the Killing residual of the field "
              f"overflows on the {len(pts)}-point sample (coefficients too "
              "large)", file=sys.stderr)
        return EXIT_MALFORMED_FIELD
    # relative to |l|: a horizontal frame field's residual is exactly |l|
    threshold = KILLING_THRESHOLD * abs(args.l)
    verdict = "killing" if residual <= threshold else "not-killing"
    doc = {
        "l": args.l,
        "max_residual": residual,
        "threshold": threshold,
        "verdict": verdict,
        "sample": {"points": int(len(pts)), "seed": 0,
                   "box": [-SAMPLE_BOX, SAMPLE_BOX]},
    }
    _write_output(_json_dumps(doc), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# classify / curvature
# --------------------------------------------------------------------------


def cmd_classify(args) -> int:
    result = bcv_classify(args.m, args.l)
    if args.format == "json":
        _write_output(
            _json_dumps(
                {
                    "m": args.m,
                    "l": args.l,
                    "label": result.label,
                    "case": result.case,
                }
            ),
            args.out,
        )
    else:
        _write_output(f"{result.label} (case {result.case})", args.out)
    return EXIT_OK


def cmd_curvature(args) -> int:
    params = ModelParams(args.m, args.l)
    q = np.asarray(args.point, dtype=float)
    K = float(k_factor(q, params))
    with np.errstate(all="ignore"):
        riem = riemann_frame(q, params)
        ric = ricci_from_riemann(riem)
        scalar = float(scalar_from_ricci(ric))
    if not (np.isfinite(riem).all() and np.isfinite(ric).all()
            and np.isfinite(scalar)):
        print(f"curvature overflow: the curvature at (m, l) = ({args.m:g}, "
              f"{args.l:g}) and point {[float(v) for v in q]} exceeds the "
              "floating-point range", file=sys.stderr)
        return EXIT_DOMAIN
    doc = {
        "m": args.m,
        "l": args.l,
        "point": [float(v) for v in q],
        "K": K,
        "scalar": scalar,
        "ricci": [[float(v) for v in row] for row in ric],
        # R(X_a, X_b, X_a, X_b) of the 21 frame planes
        "sectional": {
            f"{a + 1},{b + 1}": float(riem[a, b, a, b])
            for a in range(7) for b in range(a + 1, 7)
        },
    }
    if args.full:
        doc["riemann"] = riem.tolist()
    if args.format == "text":
        lines = [
            f"(m, l) = ({args.m:g}, {args.l:g}) at point {doc['point']}",
            f"K = {K:.12g}",
            f"scalar curvature = {doc['scalar']:.12g}",
            "ricci diagonal = "
            + ", ".join(f"{doc['ricci'][i][i]:.12g}" for i in range(7)),
        ]
        _write_output("\n".join(lines), args.out)
    else:
        _write_output(_json_dumps(doc), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _checked(convert, ok, requirement):
    """An argparse ``type=`` that rejects values failing ``ok``."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: {requirement}")
        return value

    # argparse names the type in its "invalid int value" message
    parse.__name__ = convert.__name__
    return parse


_nonnegative_int = _checked(int, lambda v: v >= 0, "must be at least 0")
_step_count = _checked(
    int, lambda v: 1 <= v <= MAX_STEPS, f"must be between 1 and {MAX_STEPS}"
)
_sample_count = _checked(
    int, lambda v: 1 <= v <= MAX_SAMPLES,
    f"must be between 1 and {MAX_SAMPLES}"
)
_positive_float = _checked(
    float, lambda v: np.isfinite(v) and v > 0.0, "must be positive and finite"
)
_finite_float = _checked(float, np.isfinite, "must be finite")


def _output_file(path):
    """An argparse ``type=`` for --out: the file opened for writing before
    the command runs, as a shell redirection opens it, so an unwritable path
    is invalid usage rather than a failure after the work is done."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot write {path!r}: {exc.strerror}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-3, or any dash followed by a digit or
    a dot, as a value, not only plain forms such as -0.001: no ebcv option
    starts with a digit or a dot.  Subcommand parsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ebcv",
        description="Frames, curvature, homogeneous structure, Killing "
        "fields, and sub-Riemannian geodesics of the extended "
        "Bianchi-Cartan-Vranceanu family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the verification registry")
    v.add_argument("--m", type=_finite_float, required=True)
    v.add_argument("--l", type=_finite_float, required=True)
    v.add_argument("--samples", type=_sample_count, default=100)
    v.add_argument("--seed", type=_nonnegative_int, default=0)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--out", type=_output_file, default=None)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("geodesic", help="integrate and export a trajectory")
    g.add_argument(
        "--mode", choices=("heisenberg", "subriemannian", "riemannian"),
        default="heisenberg",
    )
    g.add_argument("--m", type=_finite_float, default=0.0)
    g.add_argument("--l", type=_finite_float, default=1.0)
    g.add_argument(
        "--init", type=_finite_float, nargs=14, required=True,
        metavar=("R", "S", "T", "W", "X", "Y", "Z",
                 "PR", "PS", "PT", "PW", "PX", "PY", "PZ"),
        help="initial point and momentum (14 reals)",
    )
    g.add_argument("--h", type=_positive_float, default=1e-3)
    g.add_argument("--n", type=_step_count, default=1000)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    g.add_argument("--out", type=_output_file, default=None)
    g.set_defaults(func=cmd_geodesic)

    k = sub.add_parser("killing", help="export or check Killing fields (m = 0)")
    k.add_argument("--l", type=_finite_float, required=True)
    k.add_argument("action", choices=("list", "check"))
    k.add_argument("--input", default=None, help="field file for 'check'")
    k.add_argument("--out", type=_output_file, default=None)
    k.set_defaults(func=cmd_killing)

    c = sub.add_parser("classify", help="name the base family for (m, l)")
    c.add_argument("--m", type=_finite_float, required=True)
    c.add_argument("--l", type=_finite_float, required=True)
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--out", type=_output_file, default=None)
    c.set_defaults(func=cmd_classify)

    cv = sub.add_parser("curvature", help="evaluate curvature data at a point")
    cv.add_argument("--m", type=_finite_float, required=True)
    cv.add_argument("--l", type=_finite_float, required=True)
    cv.add_argument(
        "--point", type=_finite_float, nargs=7, default=[0.0] * 7,
        metavar=("R", "S", "T", "W", "X", "Y", "Z"),
    )
    cv.add_argument("--full", action="store_true",
                    help="include the full curvature tensor")
    cv.add_argument("--format", choices=("text", "json"), default="json")
    cv.add_argument("--out", type=_output_file, default=None)
    cv.set_defaults(func=cmd_curvature)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with args.out or contextlib.nullcontext():
        try:
            code = args.func(args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # the reader closed stdout (as `| head` can): output that cannot
            # be written, as with an unwritable --out.  stdout goes to
            # os.devnull, so that the interpreter's final flush cannot raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_DOMAIN
        except ModeMismatch as exc:
            print(f"invalid mode/parameter combination: {exc}",
                  file=sys.stderr)
            return EXIT_DOMAIN
        except DomainViolation as exc:
            print(f"domain violation: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        except MalformedFieldInput as exc:
            print(f"malformed field input: {exc}", file=sys.stderr)
            return EXIT_MALFORMED_FIELD


if __name__ == "__main__":
    sys.exit(main())
