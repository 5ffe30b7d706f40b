#!/usr/bin/env python3
"""Per-call baselines from traced runs: median inclusive time per task class.

    python3 perfbench/run.py --workload long_chain --seed 1 --seconds 25 --trace 1
    python3 perfbench/baselines.py --seed 1

Reads the spans and task records that traced runs of ``run.py`` wrote
under ``perfbench/out/`` and prints, for the functions whose baselines
the roadmap asks for, the number of calls and the median inclusive
duration of one call, per task class (``passive32`` is the passive chain
of N = 32, ``mc6`` the Monte-Carlo check at N = 6, and so on). The
Monte-Carlo row is also given per sample.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import WORKLOAD_NAMES

OUT = Path(__file__).resolve().parent / "out"
FUNCTIONS = (
    "covariance.invariant_covariance_direct",
    "covariance.invariant_covariance_recursive",
    "gradients.purity_gradients_direct",
    "gradients.purity_gradients_recursive",
    "gradients.gradient_fd_oracle",
    "sensitivity.fisher_sensitivity",
    "sensitivity.monte_carlo_variance",
    "balance.balance_cascade",
    "zcascade.hinf_norm",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"{'function':<44} {'class':<14} {'calls':>6} {'median ms':>11}  per sample")
    found = False
    for workload in WORKLOAD_NAMES:
        stem = OUT / f"{workload}-s{args.seed}-t1"
        spans_path = Path(f"{stem}-spans.json")
        if not spans_path.exists():
            continue
        found = True
        tasks = json.loads(Path(f"{stem}.json").read_text())["tasks"]
        doc = json.loads(spans_path.read_text())
        durations: dict[tuple[str, str], list[float]] = {}
        for name_id, start, end, _parent, task in doc["spans"]:
            name = doc["names"][name_id]
            if name in FUNCTIONS:
                durations.setdefault((name, tasks[task]["label"]), []).append(end - start)
        samples = {t["label"]: t["counts"].get("mc_samples", 0) for t in tasks}
        for (name, label), values in sorted(durations.items(), key=lambda kv: (FUNCTIONS.index(kv[0][0]), kv[0][1])):
            ms = 1e3 * statistics.median(values)
            per_sample = f"{1e3 * ms / samples[label]:.1f} us" if name.endswith("monte_carlo_variance") else ""
            print(f"{name:<44} {label:<14} {len(values):>6} {ms:>11.3f}  {per_sample}")
    if not found:
        print(f"no traced runs for seed {args.seed} under {OUT}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
