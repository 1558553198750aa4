#!/usr/bin/env python3
"""Convergence study: RK4 endpoint error against the closed-form geodesic.

For each of a batch of seeded initial states, integrates to a fixed final
parameter with successively halved step sizes and reports the endpoint
error against a high-resolution closed-form evaluation.  A healthy
fourth-order integrator shows an error ratio near 16 per halving.
"""

import argparse
import math
import sys

import numpy as np

from ebcv.frames import ModelParams
from ebcv.geodesics import CotangentState, closed_form_trajectory, integrate

HEISENBERG = ModelParams(0.0, 1.0)


def seeded_states(seed: int, count: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = np.zeros(7)
        q[3:] = rng.uniform(-0.3, 0.3, 4)
        p = rng.uniform(-1.0, 1.0, 7)
        if np.linalg.norm(p[:3]) < 0.3:
            p[:3] += 0.5
        out.append(CotangentState(q, p))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--states", type=int, default=10)
    parser.add_argument("--span", type=float, default=2.0,
                        help="final curve parameter")
    parser.add_argument("--h0", type=float, default=1e-2,
                        help="coarsest step size")
    parser.add_argument("--levels", type=int, default=3,
                        help="number of halvings (>= 2)")
    args = parser.parse_args(argv)
    if args.levels < 2:
        parser.error("--levels must be at least 2")
    if args.states < 1:
        parser.error("--states must be at least 1")
    for flag, value in (("--span", args.span), ("--h0", args.h0)):
        if not (math.isfinite(value) and value > 0.0):
            parser.error(f"{flag} must be positive and finite")
    if args.span < args.h0:
        parser.error("--span must be at least --h0")

    hs = [args.h0 / 2**k for k in range(args.levels)]
    header = "state " + " ".join(f"{f'err(h/{2**k})':>12s}" for k in range(args.levels))
    header += " " + " ".join(f"{f'ratio{k}':>8s}" for k in range(args.levels - 1))
    print(f"span = {args.span:g}, h0 = {args.h0:g}")
    print(header)

    worst = (np.inf, -np.inf)
    for idx, state in enumerate(seeded_states(args.seed, args.states)):
        reference = closed_form_trajectory(state, h=args.span, n=1).q[-1]
        errs = []
        for h in hs:
            n = int(round(args.span / h))
            traj = integrate(state, HEISENBERG, mode="heisenberg", h=h, n=n)
            errs.append(float(np.abs(traj.q[-1] - reference).max()))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        worst = (min(worst[0], *ratios), max(worst[1], *ratios))
        row = f"{idx:5d} " + " ".join(f"{e:12.3e}" for e in errs)
        row += " " + " ".join(f"{r:8.2f}" for r in ratios)
        print(row)

    print(f"\nobserved ratio range: [{worst[0]:.2f}, {worst[1]:.2f}] "
          "(fourth order predicts 16 per halving)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
