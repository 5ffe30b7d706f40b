#!/usr/bin/env python3
"""Print every benchmark metric, by name and unit, for every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Runs ``run.py`` once untraced (end-to-end metrics and the per-command
``cli.<command>.s_p50`` table) and once traced (per-layer metrics) for
each workload, one fresh process per run, and prints their tables.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900  # the first run in a fresh checkout may be slow


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            print(f"=== {workload}, trace {trace} ===")
            if proc.returncode != 0:
                print(proc.stderr)
                status = 1
                continue
            *tables, last = proc.stdout.strip().splitlines()
            print("\n".join(tables))
            result = json.loads(last)
            print(f"correct {result['correct']}, attempted {result['attempted']}, failed {result['failed']}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
