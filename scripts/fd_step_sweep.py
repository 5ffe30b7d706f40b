#!/usr/bin/env python3
"""Sweep the finite-difference step and print the gradient error curve.

The closed-form gradients are the baseline; the error against central
differences is truncation-dominated at coarse steps and round-off
dominated at fine ones, so the curve is V-shaped.

Usage: python3 scripts/fd_step_sweep.py [spec.json]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcascade.cli import build_cascade, load_spec
from qcascade.gradients import gradient_fd_oracle, purity_gradients_direct

# the committed generated cascade; pass examples/paper_sec9.json once transcribed
DEFAULT_SPEC = Path(__file__).resolve().parent.parent / "tests" / "data" / "cascade_n3_m6.json"


def stack_gap(g1, g2):
    num = np.sqrt(
        sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g1.rho, g2.rho))
        + sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g1.mu, g2.mu))
    )
    den = np.sqrt(
        sum(np.linalg.norm(r) ** 2 for r in g2.rho)
        + sum(np.linalg.norm(u) ** 2 for u in g2.mu)
    )
    return num / den


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec", nargs="?", default=str(DEFAULT_SPEC))
    parser.add_argument("--decades", type=int, default=8, help="steps 1e-1 .. 1e-decades")
    args = parser.parse_args()

    cascade = build_cascade(load_spec(args.spec))
    exact = purity_gradients_direct(cascade)

    print(f"{'h':>10} {'relative gap':>14}")
    best = (None, np.inf)
    for exp in range(1, args.decades + 1):
        h = 10.0 ** (-exp)
        gap = stack_gap(gradient_fd_oracle(cascade, h=h), exact)
        if gap < best[1]:
            best = (h, gap)
        print(f"{h:>10.0e} {gap:>14.3e}")
    print(f"best step {best[0]:.0e} with relative gap {best[1]:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
