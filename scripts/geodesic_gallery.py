#!/usr/bin/env python3
"""Integrate a small gallery of normal geodesics and classify their shadows.

Writes one CSV per trajectory into the output directory and prints a table
with the arc-test verdict (circle / line), the fitted radius against the
predicted |P(0)| / |Lambda|, and the energy drift of the integrator.
"""

import argparse
import math
import pathlib
import sys

import numpy as np

from ebcv.cli import trajectory_csv
from ebcv.frames import ModelParams
from ebcv.geodesics import (
    MAX_STEPS,
    CotangentState,
    circle_check,
    frame_momenta,
    integrate,
)

HEISENBERG = ModelParams(0.0, 1.0)

GALLERY = {
    # name -> (p_r, p_s, p_t, p_w, p_x, p_y, p_z)
    "unit-circle": (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    "tilted-circle": (0.5, 0.5, -0.3, 0.8, 0.2, -0.4, 0.1),
    "small-radius": (2.0, 0.0, 0.0, 0.3, 0.3, 0.0, 0.0),
    "line-w": (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    "line-diag": (0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="gallery", help="output directory")
    parser.add_argument("--h", type=float, default=1e-3, help="step size")
    parser.add_argument("--n", type=int, default=6283, help="number of steps")
    parser.add_argument(
        "--mode", default="heisenberg",
        choices=("heisenberg", "subriemannian", "riemannian"),
    )
    args = parser.parse_args(argv)
    if not (math.isfinite(args.h) and args.h > 0.0):
        parser.error("--h must be positive and finite")
    if not 1 <= args.n <= MAX_STEPS:
        parser.error(f"--n must be between 1 and {MAX_STEPS}")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'name':14s} {'verdict':8s} {'radius':>10s} {'predicted':>10s} "
          f"{'H drift':>10s}")
    for name, momenta in GALLERY.items():
        state = CotangentState(np.zeros(7), np.array(momenta))
        traj = integrate(state, HEISENBERG, mode=args.mode, h=args.h, n=args.n)
        (out_dir / f"{name}.csv").write_text(trajectory_csv(traj))
        verdict = circle_check(traj)
        drift = float(np.abs(traj.H - traj.H[0]).max())
        if verdict.kind == "circle":
            P0 = frame_momenta(state.q, state.p, HEISENBERG)[3:]
            predicted = float(np.linalg.norm(P0) / np.linalg.norm(momenta[:3]))
            print(f"{name:14s} {verdict.kind:8s} {verdict.radius:10.6f} "
                  f"{predicted:10.6f} {drift:10.2e}")
        else:
            print(f"{name:14s} {verdict.kind:8s} {'-':>10s} {'-':>10s} "
                  f"{drift:10.2e}")
    print(f"\nwrote {len(GALLERY)} trajectories to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
