#!/usr/bin/env python3
"""Write the matrix of `ebcv verify --format json` reports into a directory.

One report per seed 0, 1, 2 at each (m, l) of PARAMS, 18 in all, each
without ``summary.elapsed`` (the only field that changes between runs).
A change meant to leave the reports alone is checked by writing the matrix
from two checkouts and comparing the directories:

    PYTHONPATH=src python scripts/report_matrix.py --out /tmp/after
    diff -r /tmp/before /tmp/after
"""

import argparse
import json
import pathlib
import sys

from ebcv.verify import run_verify

PARAMS = ((0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 0.0), (0.5, 1.5), (-0.5, 1.0))
SEEDS = (0, 1, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--samples", type=int, default=100)
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error("--samples must be at least 1")

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for m, l in PARAMS:
        for seed in SEEDS:
            doc = run_verify(m, l, samples=args.samples, seed=seed).to_json_dict()
            doc["summary"].pop("elapsed")
            name = f"verify_m{m:g}_l{l:g}_samples{args.samples}_seed{seed}.json"
            (out / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(PARAMS) * len(SEEDS)} reports to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
