"""Steadiness command: two interleaved sets of ten runs of every workload,
each end-to-end metric's spread and the two sets' medians checked against
the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--seed 1000]

Run i of set A uses seed ``--seed + i`` and run i of set B seed
``--seed + 10 + i``; run i of both sets comes before run i + 1 of either,
and the workloads run in the listed order on even i and in reverse order on
odd i.  For each set and metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread ``(q3 - q1) / median``,
which must stay within the metric's bound (the target is a third of it),
and then the change of the median from set A to set B, which must also
stay within the bound.  It also checks that every run is correct and that
all runs of a workload fail the same share of their operations.  Last
it makes one traced run per workload, with seed ``--seed``, and prints
their per-layer table.  All raw results go to ``perfbench/out/steady.json``.  It exits 1
when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: runs of every workload in one set
RUNS = 10
SETS = ("A", "B")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spreads(bench: dict, results: dict) -> tuple[bool, dict]:
    """Print one set's spread table; its medians, and False when a run
    is incorrect or a spread exceeds its bound."""
    steady = True
    medians = {}
    print(f"{'workload':<16} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload, runs in results.items():
        if not all(r["correct"] for r in runs):
            steady = False
            print(f"{workload}: correct {[r['correct'] for r in runs]}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            medians[workload, name] = med
            spread = (q3 - q1) / med
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict, steady = "TOO WIDE", False
            print(f"{workload:<16} {name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6}  {verdict}")
    return steady, medians


def agree(bench: dict, results: dict, medians: dict) -> bool:
    """Print the change of each median from set A to set B and compare the
    failed shares; False when a change exceeds its bound or shares differ."""
    ok = True
    print(f"{'workload':<16} {'metric':<12} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in results["A"]:
        runs = results["A"][workload] + results["B"][workload]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: failed shares differ: {sorted(shares)}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = medians["A"][workload, name], medians["B"][workload, name]
            change = (b - a) / a
            verdict = "agree" if abs(change) <= bound else "DISAGREE"
            ok = ok and verdict == "agree"
            print(f"{workload:<16} {name:<12} {a:>12.6g} {b:>12.6g} "
                  f"{change:>+8.4f} {bound:>6}  {verdict}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    results = {s: {w: [] for w in names} for s in SETS}
    for i in range(RUNS):
        for k, set_name in enumerate(SETS):
            seed = args.seed + k * RUNS + i
            for w in names if i % 2 == 0 else names[::-1]:
                res = run_once(w, seed, seconds, 0)
                results[set_name][w].append(res)
                print(f"set {set_name} run {i} {w} seed {seed}: " + ", ".join(
                    f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()),
                    flush=True)
    ok = True
    medians = {}
    for set_name in SETS:
        print(f"\nset {set_name}")
        steady, medians[set_name] = spreads(bench, results[set_name])
        ok = ok and steady
    print("\nset A against set B")
    ok = agree(bench, results, medians) and ok

    traced = {w: run_once(w, args.seed, seconds, 1) for w in names}
    print(f"\n{'per-layer metric':<26}" + "".join(f"{w:>17}" for w in names))
    for metric in bench["per_layer"]:
        name = metric["name"]
        print(f"{name:<26}" + "".join(
            f"{traced[w]['metrics'][name]['value']:>17.6g}" for w in names))

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(
        json.dumps({"runs": results, "traced": traced}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
