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
import json
import sys

import numpy as np

from .errors import DomainViolation, MalformedFieldInput, ModeMismatch
from .frames import ModelParams, bcv_classify, k_factor, sample_domain_points
from .geodesics import (
    CotangentState,
    circle_check,
    closed_form_trajectory,
    integrate,
)
from .killing import PolyVectorField, killing_basis_m0, killing_residual
from .verify import run_verify

CSV_HEADER = "u,r,s,t,w,x,y,z,pr,ps,pt,pw,px,py,pz,H"
KILLING_THRESHOLD = 1e-8

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_DOMAIN = 2
EXIT_DOMAIN_EXIT = 3
EXIT_MALFORMED_FIELD = 4


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def cmd_verify(args) -> int:
    report = run_verify(
        m=args.m, l=args.l, samples=args.samples, seed=args.seed,
        tol_scale=args.tol_scale,
    )
    if args.format == "json":
        _write_output(_json_dumps(report.to_json_dict()), args.out)
    else:
        _write_output(report.to_text(), args.out)
    return report.exit_code


# --------------------------------------------------------------------------
# geodesic
# --------------------------------------------------------------------------


def _trajectory_csv(traj) -> str:
    lines = [CSV_HEADER]
    for row in traj.to_rows():
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _trajectory_json(traj) -> str:
    return _json_dumps(
        {
            "mode": traj.mode.value if hasattr(traj.mode, "value") else traj.mode,
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

    text = _trajectory_csv(traj) if args.format == "csv" else _trajectory_json(traj)
    if args.out:
        _write_output(text, args.out)
    else:
        sys.stdout.write(text)

    summary = [f"status={traj.status}"]
    if traj.n_samples > 1:
        drift = float(np.abs(traj.H - traj.H[0]).max())
        summary.append(f"H-drift={drift:.3e}")
    if args.mode == "heisenberg" and traj.n_samples >= 8:
        verdict = circle_check(traj)
        if verdict.kind == "circle":
            summary.append(f"verdict=circle, radius {verdict.radius:.6f}")
        else:
            summary.append(f"verdict={verdict.kind}")
        closed = closed_form_trajectory(state, h=args.h, n=traj.n_samples - 1)
        deviation = float(np.abs(closed.q[-1] - traj.q[-1]).max())
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
            f"integration step {traj.exit_step} produced a non-finite state",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILURE
    return EXIT_OK


# --------------------------------------------------------------------------
# killing
# --------------------------------------------------------------------------


def _standard_killing_sample(l: float) -> tuple[ModelParams, np.ndarray]:
    params = ModelParams(0.0, l)
    return params, sample_domain_points(params, 40, seed=0)


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
    try:
        field = PolyVectorField.from_json_dict(data)
    except MalformedFieldInput as exc:
        print(f"malformed field input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED_FIELD

    params, pts = _standard_killing_sample(args.l)
    residual = float(np.abs(killing_residual(field, pts, params)).max())
    verdict = "killing" if residual < KILLING_THRESHOLD else "not-killing"
    doc = {
        "l": args.l,
        "max_residual": residual,
        "threshold": KILLING_THRESHOLD,
        "verdict": verdict,
        "sample": {"points": int(len(pts)), "seed": 0, "box": [-0.5, 0.5]},
    }
    _write_output(_json_dumps(doc), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# classify / curvature
# --------------------------------------------------------------------------


def cmd_classify(args) -> int:
    result = bcv_classify(args.m, args.l, case2=args.case2)
    if args.format == "json":
        _write_output(
            _json_dumps(
                {
                    "m": args.m,
                    "l": args.l,
                    "case2": args.case2,
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
    from .curvature import ricci_from_riemann, riemann_frame, scalar_from_ricci
    from .published_tables import sectional_table_values

    params = ModelParams(args.m, args.l)
    q = np.asarray(args.point, dtype=float)
    K = float(k_factor(q, params))
    if K <= 0.0:
        raise DomainViolation(f"point outside the chart: K = {K:g}")
    riem = riemann_frame(q, params)
    ric = ricci_from_riemann(riem)
    doc = {
        "m": args.m,
        "l": args.l,
        "point": [float(v) for v in q],
        "K": K,
        "scalar": float(scalar_from_ricci(ric)),
        "ricci": [[float(v) for v in row] for row in ric],
        "sectional": {
            f"{a},{b}": float(v)
            for (a, b), v in sorted(sectional_table_values(q, params).items())
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebcv",
        description="Frames, curvature, homogeneous structure, Killing "
        "fields, and sub-Riemannian geodesics of the extended "
        "Bianchi-Cartan-Vranceanu family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the verification registry")
    v.add_argument("--m", type=float, required=True)
    v.add_argument("--l", type=float, required=True)
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--out", default=None)
    v.add_argument("--tol-scale", type=float, default=1.0)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("geodesic", help="integrate and export a trajectory")
    g.add_argument(
        "--mode", choices=("heisenberg", "subriemannian", "riemannian"),
        default="heisenberg",
    )
    g.add_argument("--m", type=float, default=0.0)
    g.add_argument("--l", type=float, default=1.0)
    g.add_argument(
        "--init", type=float, nargs=14, required=True,
        metavar=("R", "S", "T", "W", "X", "Y", "Z",
                 "PR", "PS", "PT", "PW", "PX", "PY", "PZ"),
        help="initial point and momentum (14 reals)",
    )
    g.add_argument("--h", type=float, default=1e-3)
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_geodesic)

    k = sub.add_parser("killing", help="export or check Killing fields (m = 0)")
    k.add_argument("--l", type=float, required=True)
    k.add_argument("action", choices=("list", "check"))
    k.add_argument("--input", default=None, help="field file for 'check'")
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_killing)

    c = sub.add_parser("classify", help="name the base family for (m, l)")
    c.add_argument("--m", type=float, required=True)
    c.add_argument("--l", type=float, required=True)
    c.add_argument("--case2", choices=("printed", "squared"), default="printed")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_classify)

    cv = sub.add_parser("curvature", help="evaluate curvature data at a point")
    cv.add_argument("--m", type=float, required=True)
    cv.add_argument("--l", type=float, required=True)
    cv.add_argument(
        "--point", type=float, nargs=7, default=[0.0] * 7,
        metavar=("R", "S", "T", "W", "X", "Y", "Z"),
    )
    cv.add_argument("--full", action="store_true",
                    help="include the full curvature tensor")
    cv.add_argument("--format", choices=("text", "json"), default="json")
    cv.add_argument("--out", default=None)
    cv.set_defaults(func=cmd_curvature)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModeMismatch as exc:
        print(f"invalid mode/parameter combination: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainViolation as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MalformedFieldInput as exc:
        print(f"malformed field input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED_FIELD


if __name__ == "__main__":
    sys.exit(main())
