#!/usr/bin/env python3
"""Balance a cascade spec and print the before/after index table, with
each oscillator's stationarity residual, the certificate of its optimum.

Usage: python3 scripts/run_balance.py [spec.json]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcascade.balance import balance_cascade
from qcascade.cli import build_cascade, load_spec
from qcascade.covariance import steady_state

# the committed generated cascade; pass examples/paper_sec9.json once transcribed
DEFAULT_SPEC = Path(__file__).resolve().parent.parent / "tests" / "data" / "cascade_n3_m6.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec", nargs="?", default=str(DEFAULT_SPEC))
    args = parser.parse_args()

    spec = load_spec(args.spec)
    cascade = build_cascade(spec)
    state = steady_state(cascade)
    report = balance_cascade(cascade, spec.uncertainty)

    print(f"purity {state.purity:.6e}   log-det {state.v_logdet:.6f}")
    print(f"{'osc':>4} {'psi before':>12} {'psi after':>12} {'ratio':>8} {'lambda':>10} {'iters':>6}"
          f" {'residual':>9}")
    for k, res in enumerate(report.results):
        print(
            f"{k + 1:>4} {res.psi_before:>12.4f} {res.psi_after:>12.4f} "
            f"{report.ratios[k]:>8.4f} {res.lambda_k:>10.4f} {res.newton_iterations:>6} "
            f"{res.stationarity:>9.2e}"
        )
    total_before = sum(res.psi_before for res in report.results)
    total_after = sum(res.psi_after for res in report.results)
    print(f"{'all':>4} {total_before:>12.4f} {total_after:>12.4f} "
          f"{report.total_ratio:>8.4f}")

    after = steady_state(report.transformed)
    drift = abs(after.purity - state.purity)
    print(f"purity drift under the balancing transforms: {drift:.2e}")
    for k, res in enumerate(report.results):
        with np.printoptions(precision=4, suppress=True):
            print(f"S_{k + 1} =\n{res.s_k}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
