#!/usr/bin/env python3
"""qcascade benchmark: seeded cascade specs through the CLI and library, timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client running one task at a time in
this single process. BLAS threads are pinned to 1 (no more than nproc)
here, before numpy loads; ``src/`` is imported as it is, never installed.

Both modes run a fixed task list sized from ``--seconds`` and never stop
on the clock, so which tasks run, and so ``attempted`` and ``failed``,
depend on the seed and ``--seconds`` alone. ``--trace 0`` runs it once
and reports the end-to-end metrics. ``--trace 1`` runs each task once
untraced and once under the outside-in tracer and reports the per-layer
metrics; its counts repeat exactly at a fixed seed. Human-readable
tables come first; the last line of standard output is one JSON object. Full results, and the spans of a
traced run, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE.relative_to(ROOT) / "out"  # relative, so report paths do not depend on the checkout

WORKLOAD_NAMES = ("reference", "long_chain", "mc_check")
SETUP_SAMPLES = 5
# a run holds at least this many cycles, so percentiles have tasks on each side
MIN_CYCLES = 3
PROBE_TIMEOUT_S = 150

# Host CPU speed on shared machines drifts over seconds. On the 2-core VM
# the benchmark was defined on, mixed_kernel_s() took from 0.016 s to
# 0.044 s (median 0.024 s) over 400 back-to-back calls, and the task
# medians of 30 s reference runs ranged from 0.38 s to 0.66 s, wider than
# any usable regression bound. So every task is bracketed by a
# calibration kernel, and end-to-end times are reported in seconds at
# reference host speed: wall seconds times CAL_REF_S over the mean of the
# two adjacent kernel times. Both kernels take about CAL_REF_S at the
# same host speed. Raw per-task wall seconds and speed factors are stored
# in the results file.
CAL_REF_S = 0.025

END_TO_END = {
    "setup_s": "s",
    "task_s_p50": "s",
    "task_s_p90": "s",
    "ok_tasks_per_s": "1/s",
    "ok_frac": "frac",
    "accuracy_digits_min": "digits",
    "peak_rss_mb": "MB",
}

TRACED_FUNCTIONS = (
    "linalg.solve_sylvester",
    "linalg.is_hurwitz",
    "linalg.sylvester_kron_solve",
    "linalg.symplectic_exponential",
    "linalg.symplectic_form",
    "oscillator.assemble_cascade",
    "oscillator.oscillator_realization",
    "covariance.invariant_covariance_direct",
    "covariance.invariant_covariance_recursive",
    "covariance.schur_complements",
    "covariance.steady_state",
    "gradients.purity_gradients_direct",
    "gradients.purity_gradients_recursive",
    "gradients.observability_gramian_and_hankelian",
    "gradients.gradient_fd_oracle",
    "gradients.covariance_derivatives",
    "sensitivity.fisher_sensitivity",
    "sensitivity.monte_carlo_variance",
    "balance.balance_cascade",
    "balance.minimize_psi_one_mode",
    "zcascade.hinf_norm",
    "zcascade.covariance_trace_bound",
    "cli.main",
    "cli.load_spec",
)
LAYERS = ("linalg", "oscillator", "covariance", "gradients", "sensitivity", "balance", "zcascade", "cli")
CLI_COMMANDS = ("validate", "covariance", "purity", "gradients", "sensitivity", "balance", "ti-bounds", "mc-check")

PER_LAYER: dict[str, str] = {}
for _fn in TRACED_FUNCTIONS:
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.self_s"] = "s"
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.fails"] = "count"
for _cmd in CLI_COMMANDS:
    PER_LAYER[f"cli.{_cmd}.s_p50"] = "s"
PER_LAYER.update(
    {
        "cli.report_bytes": "bytes",
        "balance.newton_iterations": "count",
        "balance.probe_violations": "count",
        "sensitivity.mc_us_per_sample": "us",
        "sensitivity.mc_rejected": "count",
        "gradients.purity_gradients_direct.calls_per_task": "calls/task",
        "trace.task_s": "s",
        "trace.fail_frac": "frac",
        "trace.overhead_frac": "frac",
    }
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- set-up time, measured in fresh interpreters -------------------------------

def setup_probe(args: argparse.Namespace) -> int:
    """Child mode: time importing qcascade plus one warm-up task."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qcascade.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    runner = workloads.TaskRunner(Path(args.setup_probe))
    outcome = workloads.run_warmup(runner, workloads.WORKLOADS[args.workload], args.seed)
    # set-up is mostly interpreter work (imports) on every workload
    cal = 0.5 * (mixed_kernel_s() + mixed_kernel_s())
    print(json.dumps({"setup_s": import_s + outcome.seconds, "speed": CAL_REF_S / cal, "wrong": outcome.wrong}))
    return 0


def mixed_kernel_s() -> float:
    """Seconds for a fixed mix of interpreter, small-array and BLAS work."""
    import numpy as np

    small = np.eye(4) * 0.5 + 0.01
    big = np.eye(48) * 48.0 + (np.arange(48 * 48).reshape(48, 48) % 7) / 7.0
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    for _ in range(700):
        np.linalg.solve(small, small) @ small
    for _ in range(30):
        np.linalg.solve(big, big)
    return time.perf_counter() - start


def dense_kernel_s() -> float:
    """Seconds for fixed LU solves and products of order 128."""
    import numpy as np

    big = np.eye(128) * 128.0 + (np.arange(128 * 128).reshape(128, 128) % 7) / 7.0
    start = time.perf_counter()
    for _ in range(24):
        np.linalg.solve(big, big) @ big
    return time.perf_counter() - start


# The kernel whose speed follows the workload's own work best. long_chain
# spends its time in LAPACK calls on matrices of order 32 to 128; over ten
# 22 s runs the quartile spread of its scaled task median was 0.037 with
# the dense kernel against 0.075 with the mixed one.
KERNELS = {"reference": mixed_kernel_s, "long_chain": dense_kernel_s, "mc_check": mixed_kernel_s}


def calibration_s(workload: str) -> float:
    return KERNELS[workload]()


def measure_setup(args: argparse.Namespace, workdir: Path) -> list[tuple[float, float]]:
    """(raw set-up seconds, host speed factor) of each fresh-process probe."""
    samples = []
    for i in range(SETUP_SAMPLES):
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe", str(workdir / f"setup{i}"),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["wrong"]:
            raise RuntimeError("warm-up task returned a wrong output in the set-up probe")
        samples.append((result["setup_s"], result["speed"]))
    return samples


# -- environment block ---------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "ram_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "git_commit": _git_commit(),
        "note": "Nothing machine-wide (caches, cgroups, CPU frequency) was touched or measured; "
        "BLAS threads are pinned through environment variables of this process only, and host "
        "speed is seen only through the calibration kernel run in this process.",
    }


# -- runs ----------------------------------------------------------------------

def command_p50(outcomes) -> dict[str, float]:
    per_command: dict[str, list[float]] = {}
    for o in outcomes:
        for cmd, sec in o.command_seconds.items():
            per_command.setdefault(cmd, []).append(sec)
    return {cmd: median(per_command.get(cmd, [])) for cmd in CLI_COMMANDS}


def timed_run(workloads, runner, workload, args) -> tuple[list, list[float], float]:
    """Whole cycles that take about ``--seconds`` at ``workload.nominal_cycle_s``.

    The count depends on ``--seconds`` only, never on the clock, so a
    faster or slower program runs the same tasks and reports the same
    ``attempted``, ``failed`` and ``accuracy_digits_min``. Returns the
    outcomes, the host speed factor of each task (CAL_REF_S over the mean
    of the calibration times just before and after it) and the wall time.
    """
    cycles = max(MIN_CYCLES, round(args.seconds / workload.nominal_cycle_s))
    outcomes, speed = [], []
    before = calibration_s(workload.name)
    start = time.perf_counter()
    for position in range(cycles * len(workload.cycle)):
        outcomes.append(workloads.run_task(runner, workload, args.seed, position))
        after = calibration_s(workload.name)
        speed.append(CAL_REF_S / (0.5 * (before + after)))
        before = after
    return outcomes, speed, time.perf_counter() - start


def end_to_end_metrics(outcomes, speed, setup_samples) -> dict[str, float]:
    """End-to-end metrics, times at reference host speed.

    ``ok_tasks_per_s`` divides by the summed task seconds, not the run's
    wall time, which also holds spec generation, checks and calibration.
    ``accuracy_digits_min`` covers the passing tasks of certified classes.
    """
    times = [o.seconds * f for o, f in zip(outcomes, speed)]
    digits = [min(o.digits) for o in outcomes if o.ok and o.certified and o.digits]
    metrics = {
        "setup_s": median([s * f for s, f in setup_samples]),
        "task_s_p50": median(times),
        "task_s_p90": percentile_90(times),
        "ok_tasks_per_s": sum(o.ok for o in outcomes) / sum(times),
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "accuracy_digits_min": min(digits) if digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metrics[name] for name in END_TO_END}


def traced_run(workloads, runner, workload, args) -> tuple[list, dict[str, float], object]:
    from tracer import Tracer

    cycles = max(1, round(args.seconds / (2.0 * workload.nominal_cycle_s)))
    tracer = Tracer()
    plain, traced = [], []
    scaled_s = {False: 0.0, True: 0.0}  # plain and traced, at reference host speed
    # each task runs once plain and once traced, in alternating order, so
    # that drift and first-touch costs fall on both sides alike
    before = calibration_s(workload.name)
    for p in range(cycles * len(workload.cycle)):
        for with_trace in ((False, True) if p % 2 else (True, False)):
            if with_trace:
                tracer.task = p
                with tracer.installed():
                    outcome = workloads.run_task(runner, workload, args.seed, p)
                traced.append(outcome)
            else:
                outcome = workloads.run_task(runner, workload, args.seed, p)
                plain.append(outcome)
            after = calibration_s(workload.name)
            scaled_s[with_trace] += outcome.seconds * CAL_REF_S / (0.5 * (before + after))
            before = after

    def total(name: str) -> int:
        return sum(o.counts.get(name, 0) for o in traced)

    metrics: dict[str, float] = {}
    for fn in TRACED_FUNCTIONS:
        stats = tracer.stats[fn]
        metrics[f"{fn}.calls"] = stats.calls
        metrics[f"{fn}.self_s"] = stats.self_s
    for layer in LAYERS:
        members = [s for name, s in tracer.stats.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = sum(s.calls for s in members)
        metrics[f"{layer}.self_s"] = sum(s.self_s for s in members)
        metrics[f"{layer}.fails"] = tracer.module_fails[layer]
    for cmd, sec in command_p50(plain).items():
        metrics[f"cli.{cmd}.s_p50"] = sec
    samples = total("mc_samples")
    mc_s = tracer.stats["sensitivity.monte_carlo_variance"].total_s
    metrics.update(
        {
            "cli.report_bytes": total("report_bytes"),
            "balance.newton_iterations": total("newton_iterations"),
            "balance.probe_violations": total("probe_violations"),
            "sensitivity.mc_us_per_sample": 1e6 * mc_s / samples if samples else 0.0,
            "sensitivity.mc_rejected": total("mc_rejected"),
            "gradients.purity_gradients_direct.calls_per_task":
                tracer.stats["gradients.purity_gradients_direct"].calls / len(traced),
            "trace.task_s": sum(o.seconds for o in traced),
            "trace.fail_frac": sum(not o.ok for o in traced) / len(traced),
            "trace.overhead_frac": scaled_s[True] / scaled_s[False] - 1.0,
        }
    )
    return traced, metrics, tracer


# -- output --------------------------------------------------------------------

def print_table(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {units[name]}")


def task_records(outcomes) -> list[dict]:
    return [
        {
            "label": o.label,
            "certified": o.certified,
            "seconds": o.seconds,
            "ok": o.ok,
            "wrong": o.wrong,
            "failures": o.failures,
            "digits_min": min(o.digits) if o.digits else None,
            "command_seconds": o.command_seconds,
            "counts": o.counts,
        }
        for o in outcomes
    ]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcascade" / "__init__.py").is_file():
        print(f"qcascade sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_probe:
        return setup_probe(args)

    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        # set-up time is an end-to-end metric; traced runs report per-layer ones only
        setup_samples = [] if args.trace else measure_setup(args, workdir)
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        runner = workloads.TaskRunner(workdir / "run")
        warmup = workloads.run_warmup(runner, workload, args.seed)
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        speed = tracer = None
        if args.trace:
            outcomes, metrics, tracer = traced_run(workloads, runner, workload, args)
            units = PER_LAYER
            tracer.write_spans(OUT / f"{stem}-spans.json")
            print_table(f"per-layer metrics, workload {args.workload}, {len(outcomes)} traced tasks", metrics, units)
            task_s = metrics["trace.task_s"]
            print("self-time share of traced task time:")
            for layer in LAYERS:
                print(f"  {layer:<12} {metrics[f'{layer}.self_s'] / task_s:7.1%}")
        else:
            outcomes, speed, wall = timed_run(workloads, runner, workload, args)
            metrics = end_to_end_metrics(outcomes, speed, setup_samples)
            units = END_TO_END
            print_table(
                f"end-to-end metrics, workload {args.workload}, {len(outcomes)} tasks in {wall:.1f} s"
                f" (percentiles over n={len(outcomes)}; setup over n={len(setup_samples)};"
                f" times at reference host speed, median speed factor {median(speed):.3f})",
                metrics,
                units,
            )
            print_table("per-command median seconds (cli.<command>.s_p50)",
                        {f"cli.{c}.s_p50": s for c, s in command_p50(outcomes).items() if s},
                        PER_LAYER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if not o.ok]
    # refusals count as failures but are not wrong answers; amplifying
    # chains are the known defect and are reported as measured
    correct = not warmup.wrong and not any(o.wrong for o in outcomes if o.certified)
    for o in failed:
        cls = "certified" if o.certified else "amplifying, known defect"
        kind = "wrong output" if o.wrong else "refused"
        print(f"failed task [{o.label}, {cls}, {kind}]: {'; '.join(o.failures)}")
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env,
                "setup_samples": [{"raw_s": s, "speed": f} for s, f in setup_samples],
                "host_speed": speed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
                "tasks": task_records(outcomes),
                "functions": {
                    name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s, "fails": st.fails}
                    for name, st in tracer.stats.items()
                } if args.trace else None,
            },
            indent=1,
        )
    )
    result = {
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
