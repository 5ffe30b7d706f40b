#!/usr/bin/env python3
"""Trace the multiplier equation h(lambda) and the Newton iterates.

Prints a CSV of the increasing convex curve h(lambda) for a whitened
spectrum, followed by the Newton trajectory toward h(lambda) = det tau.

Usage: python3 scripts/multiplier_curve.py [--r1 -0.7228] [--r2 1.9527] [--det-tau 1.0]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcascade.balance import f_lambda, solve_multiplier


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r1", type=float, default=-0.7228)
    parser.add_argument("--r2", type=float, default=1.9527)
    parser.add_argument("--det-tau", type=float, default=1.0, dest="det_tau")
    parser.add_argument("--grid", type=int, default=41)
    args = parser.parse_args()

    r = np.array([args.r1, args.r2])
    print("lambda,h")
    for lam in np.linspace(0.05, 3.0, args.grid):
        h = float(np.prod(f_lambda(r, lam)))
        print(f"{lam:.6f},{h:.9f}")

    res = solve_multiplier(r, args.det_tau)
    print(f"# target det tau = {args.det_tau}", file=sys.stderr)
    print(f"# iterates: {', '.join(f'{x:.9f}' for x in res.iterates)}", file=sys.stderr)
    print(
        f"# multiplier {res.multiplier:.12f} after {res.iterations} evaluations, "
        f"h residual {abs(res.h_value - args.det_tau):.2e}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
