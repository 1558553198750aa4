"""Show that every reference check accepts a correct output and rejects a
corrupted one.

    python3 perfbench/selftest.py

Each case runs one real operation of a workload, then feeds its check the
output unchanged and with one corruption.  Exits 1 if a correct output is
rejected or a corrupted one accepted.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

import run
import workloads


def _checked(op, out, expect):
    return op.label, op.check(out), expect


def _curvature_cases(ebcv):
    ops = workloads.curvature_field(ebcv, seed=7)
    names = workloads.CURVATURE_ENTRY_POINTS
    general, m0 = ops[:len(names)], ops[len(names):]

    def outputs(batch):
        for op in batch:
            got = op.run()
        return [got[n] for n in names]

    def bump(a, index, delta):
        a = a.copy()
        a[index] += delta
        return a

    def case(*values):
        return dict(zip(names, values))

    R, ric, scal, AS = outputs(general)
    last = general[-1]
    yield _checked(last, case(R, ric, scal, AS), None)
    yield _checked(last, case(R, ric, scal + 1e-6, AS), "scalar curvature")
    yield _checked(last, case(bump(R, (0, 0, 1, 2, 3), 1e-6), ric, scal, AS),
                   "R antisymmetry")
    yield _checked(last, case(bump(R, (0, 0, 3, 0, 3), 1e-6), ric, scal, AS),
                   "contraction of R")
    yield _checked(last, case(R, bump(ric, (0, 0, 3), 1e-6), scal, AS), "Ricci symmetry")
    yield _checked(last, case(R, ric + 1e-6 * np.eye(7), scal, AS), "trace of Ricci")
    yield _checked(last, case(R, ric, scal, bump(AS, (0, 0), 1e-300)), "residual (i)")
    yield _checked(last, case(R, ric, scal, AS * [1.0, 0.04, 1.0]), "residual (ii)")

    R0, ric0, scal0, AS0 = outputs(m0)
    yield _checked(m0[-1], case(R0, ric0, scal0, AS0), None)
    yield _checked(m0[-1], case(R0, ric0, scal0, bump(AS0, (0, 2), 1e-6)),
                   "residual (iii) at m = 0")

    # the batch as a run goes through it: each operation checked in turn
    problems = []
    for op in general:
        got = op.run()
        if op.label.startswith("scalar_curvature"):
            got["scalar_curvature"] = got["scalar_curvature"] + 1e-6
        problems += op.check(got)
    yield "curvature batch in round order", problems, "scalar curvature"


def _verify_cases(ebcv):
    op = workloads.verify_sweep(ebcv, seed=7)[1]  # (m, l) = (1, 1)
    text = op.run()
    elapsed = str(json.loads(text)["summary"]["elapsed"])

    def edit(fn):
        doc = json.loads(text)
        fn({row["id"]: row for row in doc["checks"]})
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def set_status(cid, status):
        return edit(lambda rows: rows[cid].update(status=status))

    def scale_residual(rows):
        rows["scalar-vs-corollary"]["max_residual"] *= 1 + 1e-6

    yield _checked(op, text, None)
    yield _checked(op, text.replace(elapsed, "123.0"), None)
    yield _checked(op, set_status("frame-orthonormality", "fail"), "'fail'")
    yield _checked(op, set_status("scalar-vs-corollary", "pass"), "scalar-vs-corollary is pass")
    yield _checked(op, set_status("as-equations", "pass"), "as-equations is pass")
    yield _checked(op, edit(scale_residual), "(3l^2/2)")
    yield _checked(op, text.replace('"samples": 100', '"samples": 101'), "differs")


def _geodesic_cases(ebcv):
    ops = workloads.geodesic_fan(ebcv, seed=7)
    heis, riem = ops[0], ops[-1]
    rk, cf, verdict = heis.run()

    def moved(traj, field, index, delta):
        a = getattr(traj, field).copy()
        a[index] += delta
        return dataclasses.replace(traj, **{field: a})

    wrong_radius = dataclasses.replace(verdict, radius=verdict.radius * (1 + 2e-4))
    yield _checked(heis, (rk, cf, verdict), None)
    yield _checked(heis, (moved(rk, "q", (-1, 4), 1e-8), cf, verdict), "closed form")
    yield _checked(heis, (rk, cf, wrong_radius), "radius")
    yield _checked(heis, (rk, cf, dataclasses.replace(verdict, kind="line")), "arc test")
    yield _checked(heis, (moved(rk, "H", -1, 1e-8), cf, verdict), "Hamiltonian drift")
    yield _checked(heis, (moved(rk, "p", (-1, 0), 1e-9), cf, verdict), "vertical momenta")

    traj = riem.run()
    short = dataclasses.replace(traj, u=traj.u[:-1], q=traj.q[:-1], p=traj.p[:-1],
                                H=traj.H[:-1])
    yield _checked(riem, traj, None)
    yield _checked(riem, moved(traj, "H", 0, 1e-9), "H(0)")
    yield _checked(riem, short, "accepted steps")


def main() -> int:
    run._bootstrap()
    ebcv = run._import_ebcv()
    ebcv.load_tables()
    bad = 0
    for cases in (_curvature_cases, _verify_cases, _geodesic_cases):
        for label, problems, expect in cases(ebcv):
            if expect is None:
                ok = not problems
                what = "correct output accepted" if ok else f"correct output REJECTED: {problems}"
            else:
                ok = any(expect in p for p in problems)
                what = (f"rejected ({expect})" if ok
                        else f"corruption '{expect}' NOT rejected: {problems}")
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {label}: {what}")
    print(f"{bad} failing case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
