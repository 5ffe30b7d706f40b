#!/usr/bin/env python3
"""Time one benchmark task class in process in two checkouts, alternating processes.

Each round starts one worker process per checkout, in turn (the parent first
in odd rounds, the change first in even ones). A worker imports that
checkout's ``src/`` and ``perfbench/workloads.py``, and runs tasks #0..#K-1
of the class at the seed in turn, one untimed pass and then ``--repeat``
timed ones, each task on its spec written anew, as a benchmark run does. It
reports the seconds the task's program calls took (``TaskOutcome.seconds``,
raw wall time, as the benchmark's task time before its host-speed
correction). With K >= 2 consecutive tasks differ, so no run finds its spec
kept by the CLI from the run before. Both sides run the same tasks, so their
failed counts must agree. BLAS is pinned to one thread, as in
``perfbench/run.py``. Nothing under ``perfbench/`` is changed.

The summary gives each side's median and quartiles over all its timed runs,
and the ratio of the medians:

    python3 scripts/ab_tasks.py ../parent . --workload long_chain --class passive64

Usage: python3 scripts/ab_tasks.py [PARENT] [CHANGE] [--workload W] [--class C]
       [--seed S] [--tasks K] [--repeat R] [--rounds N]
       (default: this checkout against itself, two reference tasks, a quick A/A run)
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", nargs="?", type=Path, default=ROOT)
    parser.add_argument("change", nargs="?", type=Path, default=ROOT)
    parser.add_argument("--workload", default="reference")
    parser.add_argument("--class", dest="task_class", default="reference")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tasks", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def worker(args: argparse.Namespace) -> int:
    """Run the class's tasks in the checkout ``args.worker``; print one JSON line."""
    sys.path[:0] = [str(args.worker / "src"), str(args.worker / "perfbench")]
    from workloads import WORKLOADS, TaskOutcome, TaskRunner

    workload = WORKLOADS[args.workload]
    cls = next(c for c in workload.cycle if c.label == args.task_class)
    seconds, failed = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        runner = TaskRunner(Path(tmp))
        for run in range(args.repeat + 1):
            for index in range(args.tasks):
                runner.write_spec(args.seed, cls, index)
                out = TaskOutcome(label=cls.label, certified=cls.certified)
                workload.run(runner, out)
                if run > 0:  # the first pass warms up
                    seconds.append(out.seconds)
                    failed += not out.ok
    print(json.dumps({"seconds": seconds, "failed": failed}))
    return 0


def run_side(checkout: Path, args: argparse.Namespace) -> dict:
    argv = [
        sys.executable, __file__, "--worker", str(checkout.resolve()), "--workload", args.workload,
        "--class", args.task_class, "--seed", str(args.seed), "--tasks", str(args.tasks),
        "--repeat", str(args.repeat),
    ]
    env = {**os.environ, **{var: "1" for var in BLAS}}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args)
    sides = {"parent": args.parent, "change": args.change}
    seconds = {side: [] for side in sides}
    failed = {side: [] for side in sides}
    start = time.perf_counter()
    for round_ in range(args.rounds):
        order = list(sides) if round_ % 2 == 0 else list(reversed(sides))
        for side in order:
            got = run_side(sides[side], args)
            seconds[side] += got["seconds"]
            failed[side].append(got["failed"])
    runs = len(seconds["parent"])
    print(
        f"{args.workload} {args.task_class} seed {args.seed}: {args.tasks} task(s) x {args.repeat} repeat(s)"
        f" x {args.rounds} round(s) = {runs} timed runs per side, {time.perf_counter() - start:.1f} s"
    )
    print(f"{'side':8}{'median_ms':>12}{'q1_ms':>10}{'q3_ms':>10}  failed per round")
    medians = {}
    for side, values in seconds.items():
        q1, medians[side], q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        )
        print(f"{side:8}{1e3 * medians[side]:12.3f}{1e3 * q1:10.3f}{1e3 * q3:10.3f}  {failed[side]}")
    print(f"change/parent median {medians['change'] / medians['parent']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
