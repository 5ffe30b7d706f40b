#!/usr/bin/env python3
"""Time one benchmark task class in process in two checkouts, alternating processes.

Each round starts one worker process per checkout, in turn (the parent first
in odd rounds, the change first in even ones). A worker imports that
checkout's ``src/`` and ``perfbench/workloads.py``, and runs tasks #0..#K-1
of the class at the seed in turn, one untimed pass and then ``--repeat``
timed ones, each task on its spec written anew, as a benchmark run does. It
reports the seconds the task's program calls took (``TaskOutcome.seconds``,
raw wall time, as the benchmark's task time before its host-speed
correction). K must be at least 2: consecutive tasks then differ, so no run
finds its spec kept by the CLI from the run before. Both sides run the same
tasks, so their failed counts must agree. BLAS is pinned to one thread, as
in ``perfbench/run.py``. Nothing under ``perfbench/`` is changed.

The summary gives each round's median per side, then each side's median and
quartiles over all its timed runs and the ratio of the medians, then the
rounds the change won (a lower round median; ties count for neither side),
the gap between the two sides' medians of the round medians, and the
parent's between-round spread, the distance between the quartiles of its
round medians. A gain holds when the change wins at least nine tenths of
the rounds and the gap exceeds that spread:

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
    args = parser.parse_args(argv)
    if args.tasks < 2:
        parser.error("--tasks must be at least 2: one task's repeats would find its spec kept by the CLI")
    return args


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


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile (all three the value itself for one value)."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args)
    sides = {"parent": args.parent, "change": args.change}
    seconds = {side: [] for side in sides}
    rounds = {side: [] for side in sides}  # the median of each round
    failed = {side: [] for side in sides}
    start = time.perf_counter()
    for round_ in range(args.rounds):
        order = list(sides) if round_ % 2 == 0 else list(reversed(sides))
        for side in order:
            got = run_side(sides[side], args)
            seconds[side] += got["seconds"]
            rounds[side].append(statistics.median(got["seconds"]))
            failed[side].append(got["failed"])
    runs = len(seconds["parent"])
    print(
        f"{args.workload} {args.task_class} seed {args.seed}: {args.tasks} task(s) x {args.repeat} repeat(s)"
        f" x {args.rounds} round(s) = {runs} timed runs per side, {time.perf_counter() - start:.1f} s"
    )
    print(f"{'round':8}{'parent_ms':>12}{'change_ms':>12}")
    for round_, (old, new) in enumerate(zip(rounds["parent"], rounds["change"]), 1):
        print(f"{round_:<8}{1e3 * old:12.3f}{1e3 * new:12.3f}")
    print(f"{'side':8}{'median_ms':>12}{'q1_ms':>10}{'q3_ms':>10}  failed per round")
    medians = {}
    for side, values in seconds.items():
        q1, medians[side], q3 = quartiles(values)
        print(f"{side:8}{1e3 * medians[side]:12.3f}{1e3 * q1:10.3f}{1e3 * q3:10.3f}  {failed[side]}")
    print(f"change/parent median {medians['change'] / medians['parent']:.4f}")
    wins = sum(new < old for old, new in zip(rounds["parent"], rounds["change"]))
    ties = sum(new == old for old, new in zip(rounds["parent"], rounds["change"]))
    gap = statistics.median(rounds["parent"]) - statistics.median(rounds["change"])
    q1, _, q3 = quartiles(rounds["parent"])
    print(
        f"change won {wins} of {args.rounds} rounds ({ties} tied); gap parent - change {1e3 * gap:.3f} ms,"
        f" parent between-round IQR {1e3 * (q3 - q1):.3f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
