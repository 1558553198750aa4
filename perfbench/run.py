"""Benchmark ebcv on one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is imported
from ``src``.  The seed builds the workload's inputs, and the program
receives only those inputs.  A run times one discarded warm-up operation,
then repeats whole rounds of the workload's operations until ``--seconds``
have passed and at least `MIN_ROUNDS` rounds have run, checking every
output against the references in `checks`.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: the median wall time of several fresh interpreters, started
  between operations and spread over the run, that import ebcv and its CLI,
  load the published tables and build the inputs;
* ``op_s``: the mean over the round's operations of the 90th percentile
  of each operation's wall times in the run (see README.md for why not the
  median);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` warms up with a whole round instead, which measures the
allocation peak of the curvature calls, then alternates untraced rounds
(the program as is) and traced rounds (every public function wrapped) and
reports the per-layer metrics of the traced rounds, per operation (see
README.md), and the tracing overhead as traced minus untraced ``op_s``;
the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreter starts behind one setup_s value
SETUP_STARTS = 10
#: rounds an untraced run makes at least, so that each operation's
#: percentile is taken over at least this many repeats, also where one
#: round takes much of --seconds (a verify-sweep round takes 11 to 17 s)
MIN_ROUNDS = 2
#: problems printed to stderr before the rest are only counted
MAX_REPORTED = 10


def _bootstrap() -> None:
    if not (SRC / "ebcv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ebcv sources under {SRC}; "
                 "run it from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))


def _import_ebcv():
    import ebcv
    import ebcv.cli  # the CLI module, which the package does not import

    return ebcv


def _build(ebcv, workload: str, seed: int) -> list:
    ebcv.load_tables()
    return workloads.WORKLOADS[workload](ebcv, seed)


def _time_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter doing only the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Tally:
    """Attempted and failed operations, and the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = 0

    def report(self, label: str, message: str) -> None:
        if self.problems + self.failed <= MAX_REPORTED:
            print(f"perfbench: {label}: {message}", file=sys.stderr)

    def run_op(self, op, counted: bool = True):
        """Run and check one operation; its wall time, or None if it failed."""
        if counted:
            self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except workloads.OpFailed as exc:
            self.failed += counted
            self.report(op.label, f"failed: {exc}")
            return None
        except Exception:
            self.failed += counted
            self.report(op.label, "raised\n" + traceback.format_exc())
            return None
        dt = time.perf_counter() - t0
        for problem in op.check(out):
            self.problems += 1
            self.report(op.label, problem)
        return dt

    def run_round(self, ops, times: list, between=None) -> None:
        """Run every operation once, adding each one's time to its list in
        times.

        ``between`` is called before each operation.
        """
        for i, op in enumerate(ops):
            if between is not None:
                between()
            t = self.run_op(op)
            if t is not None:
                times[i].append(t)


def _p90(ts: list) -> float:
    if len(ts) == 1:
        return ts[0]
    return statistics.quantiles(ts, n=10, method="inclusive")[-1]


def _op_seconds(times: list) -> float:
    """Mean over the round's operations of each one's 90th-percentile time."""
    p90s = [_p90(ts) for ts in times if ts]
    return sum(p90s) / len(p90s) if p90s else float("nan")


def _result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.problems == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    ebcv = _import_ebcv()
    ops = _build(ebcv, workload, seed)
    tally = Tally()
    tally.run_op(ops[0], counted=False)  # warm-up, discarded
    times = [[] for _ in ops]
    setups = []
    start = time.perf_counter()

    def setup_if_due():
        # spread the set-up starts over the run, like the operations
        due = len(setups) * seconds / SETUP_STARTS
        if len(setups) < SETUP_STARTS and time.perf_counter() - start >= due:
            setups.append(_time_setup(workload, seed))

    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        tally.run_round(ops, times, between=setup_if_due)
        rounds += 1
    while len(setups) < SETUP_STARTS:
        setups.append(_time_setup(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return _result(tally, {
        "setup_s": (statistics.median(setups), "s"),
        "op_s": (_op_seconds(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    from tracer import LAYERS, Recorder

    ebcv = _import_ebcv()
    ops = _build(ebcv, workload, seed)
    rec = Recorder()

    tally = Tally()
    # the warm-up is a whole round here, which also measures the allocation
    # peak of the curvature calls, with no span timed meanwhile
    rec.install()
    rec.alloc_on = True
    for op in ops:
        tally.run_op(op, counted=False)
    rec.alloc_on = False
    times = {traced: [[] for _ in ops] for traced in (False, True)}
    rounds = 0
    start = time.perf_counter()
    while rounds < 2 or time.perf_counter() - start < seconds:
        traced = rounds % 2 == 1  # untraced and traced rounds alternate
        if traced:
            rec.install()
        else:
            rec.uninstall()
        rec.spans_on = traced
        tally.run_round(ops, times[traced])
        rounds += 1
    rec.spans_on = False
    rec.uninstall()

    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"trace-{workload}-seed{seed}.json")
    tot = rec.totals()
    n = (rounds // 2) * len(ops)  # traced operations
    metrics = {f"{layer}.self_s": (tot["self_s"][layer] / n, "s") for layer in LAYERS}
    metrics.update({
        "curvature.bundle_calls": (tot["bundle_calls"] / n, "count"),
        "curvature.bundle_points": (tot["bundle_points"] / n, "count"),
        "curvature.peak_alloc_mb": (rec.peak_alloc / 2**20, "MB"),
        "geodesics.calls": (tot["geodesic_calls"] / n, "count"),
        "geodesics.steps": (tot["geodesic_steps"] / n, "count"),
        "trace.overhead_s": (_op_seconds(times[True]) - _op_seconds(times[False]), "s"),
    })
    return _result(tally, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import, load the tables and build the inputs")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")

    _bootstrap()
    if args.setup_only:
        _build(_import_ebcv(), args.workload, args.seed)
        return 0
    run = per_layer if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
