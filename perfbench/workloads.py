"""Workload definitions: which calls a task makes and how its outputs are checked.

A task is one generated spec pushed through the program's front door,
``qcascade.cli.main(argv)`` in process, plus the public library calls the
CLI does not expose. Only the program calls are timed; spec generation,
report parsing and checks are not.

Library functions are looked up on their modules at call time
(``gradients.purity_gradients_direct``), never bound at import, so the
tracer's wrappers see these calls too.

Why these workloads and sizes:

* ``reference``: N = 3, m = 6 is the reference size of the paper's study.
  Every command that works on that size runs, so the task is dominated
  by many tiny solves: finite-difference and Fisher assemblies, Kronecker
  solves at order <= 8, 1000 balancing probes per oscillator and the
  Hinf bisection. It does almost no large solve and no Monte-Carlo.
* ``long_chain``: few big solves. Passive chains at N = 16, 32, 64 (state
  order up to 128) exercise the Schur-route Sylvester solve, the
  composite Hurwitz test, the Schur split, both gradient routes and JSON
  reports of 128 x 128 matrices; they stay certified at every length.
  Amplifying chains at N = 8 and 16 have the same shapes but a field gain
  that is not contractive, which is the input property that conditioning
  depends on: they already fail or silently disagree, and the benchmark
  counts that as measured. One cycle holds 8 tasks: the three chains of
  state order 16 or 32 are the fast group, whose times overlap because
  failing chains stop early, and three N = 32 and two N = 64 passive
  chains follow. So the median falls inside the N = 32 passive group and
  the 90th percentile near the middle of the N = 64 group, where an
  order statistic scatters least, for any whole number of cycles.
* ``mc_check``: the same linear algebra a third way, as batched
  per-sample Kronecker solves of cost O(n^6). N stops at 6 because memory
  grows with n^4 times the chunk size (about 0.75 GB there). Three equal
  classes put the median in the N = 4 class and the 90th percentile in
  the N = 6 class.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qcascade import cli, gradients
from qcascade.errors import QCascadeError

import specgen

# The program certifies solves, realizability and admissibility at 1e-9
# relative to max(1, scale) (RESIDUAL_TOL, PSD_TOL, --tol-residual); a
# route disagreement above that scale is a result the certificates missed.
ROUTE_TOL = 1e-9
EPS = float(np.finfo(float).eps)

MC_SAMPLES = 4096
# Perturbation variance for mc-check. The spec default 1e-6 leaves the
# first-order regime for the most sensitive generated cascades (index Z
# up to 2.6e8 at N = 6, so eps Z is far above 1), and the program then
# rightly reports the sampled variance out of range; as eps shrinks the
# ratio of such a spec goes to 1 (0.55, 0.992, 0.9997 at 1e-6, 1e-8,
# 1e-10). At 1e-10, eps Z stays below 0.03 for all 300 specs per class
# surveyed (seeds 1-10), so the range check tests the program, not the
# linearization.
MC_EPSILON = "1e-10"


@dataclass(frozen=True)
class TaskClass:
    """One kind of generated spec. ``certified`` classes must pass."""

    label: str
    kind: str
    n_osc: int
    m: int
    certified: bool = True


@dataclass
class TaskOutcome:
    """What one task did. Every failure is listed; ``refusals`` counts those
    where the program declined to answer (nonzero exit code or a typed
    ``QCascadeError``), the rest are wrong outputs or crashes."""

    label: str
    certified: bool
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)
    refusals: int = 0
    digits: list[float] = field(default_factory=list)
    command_seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def wrong(self) -> bool:
        """An output returned as a success failed its check, or a call crashed."""
        return len(self.failures) > self.refusals

    def refuse(self, message: str) -> None:
        self.failures.append(message)
        self.refusals += 1

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)


def _route_check(out: TaskOutcome, name: str, gap: float, scale: float) -> None:
    rel = abs(gap) / max(1.0, abs(scale))
    if not rel <= ROUTE_TOL:  # also catches NaN
        out.failures.append(f"{name}: relative gap {rel:.3e} > {ROUTE_TOL:.0e}")
    else:
        out.digits.append(-math.log10(max(rel, EPS)))


Check = Callable[[TaskOutcome, dict], None]


class TaskRunner:
    """Runs the calls of one task inside ``workdir`` and checks them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.spec_path = workdir / "spec.json"
        self.out_dir = workdir / "out"
        self.report_path = self.out_dir / "report.json"

    def write_spec(self, seed: int, cls: TaskClass, index: int) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spec_path.write_bytes(
            specgen.cascade_spec(seed, cls.label, index, cls.kind, cls.n_osc, cls.m)
        )

    def cli(self, out: TaskOutcome, command: str, check: Check, *extra: str) -> None:
        """Time ``cli.main`` on the current spec and check the report it wrote.

        A nonzero exit code is a refusal only when no report was written (a
        validation or typed numerical error). A command that finds its own
        answer failing (mc-check out of range, ti-bounds with a broken
        bound, validate calling an oscillator unstable) writes the report
        and exits nonzero; that report is checked like any other, so such
        an answer counts as a wrong output.
        """
        self.report_path.unlink(missing_ok=True)
        argv = [command, str(self.spec_path), "--out", str(self.out_dir), *extra]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed task, not a failed run
            out.seconds += time.perf_counter() - start
            out.failures.append(f"{command}: crashed with {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        out.seconds += elapsed
        out.command_seconds[command] = elapsed
        message = f"{command}: exit code {code}: {sink.getvalue()[-200:].strip()}"
        if not self.report_path.exists():
            if code == 0:
                out.failures.append(f"{command}: exit code 0 but no report written")
            else:
                out.refuse(message)
            return
        raw = self.report_path.read_bytes()
        out.count("report_bytes", len(raw))
        before = len(out.failures)
        check(out, json.loads(raw)["results"])
        if code != 0 and len(out.failures) == before:
            out.refuse(message)

    def library(self, out: TaskOutcome, name: str, fn: Callable, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        except QCascadeError as exc:
            out.refuse(f"{name}: {type(exc).__name__}: {exc}")
        except Exception as exc:
            out.failures.append(f"{name}: crashed with {type(exc).__name__}: {exc}")
        finally:
            out.seconds += time.perf_counter() - start
        return None


def _check_validate(out: TaskOutcome, res: dict) -> None:
    # every generated oscillator has spectral abscissa below a negative margin
    if res.get("unstable_oscillators"):
        out.failures.append(f"validate: stable oscillators {res['unstable_oscillators']} called unstable")
        return
    if not res.get("pr_ok"):
        out.failures.append(f"validate: pr_ok false (residual {res.get('pr_residual')})")
    if not res.get("psd_ok"):
        out.failures.append(f"validate: psd_ok false (margin {res.get('psd_margin')})")


def _check_covariance(out: TaskOutcome, res: dict) -> None:
    scale = float(np.linalg.norm(np.asarray(res["p_direct"])))
    _route_check(out, "covariance route_gap", res["route_gap"], scale)


def _check_purity(out: TaskOutcome, res: dict) -> None:
    v = res["v_logdet"]
    _route_check(out, "purity sum(v_k) - V", math.fsum(res["v_k"]) - v, v)


def _check_gradients(out: TaskOutcome, res: dict) -> None:
    scale = max(float(np.max(np.abs(g))) for g in (*res["rho"], *res["mu"]))
    _route_check(out, "gradients route_gap", res["route_gap"], scale)


def _check_sensitivity(out: TaskOutcome, res: dict) -> None:
    if not (math.isfinite(res["z_total"]) and res["z_total"] > 0):
        out.failures.append(f"sensitivity: index {res['z_total']} is not positive")


def _check_balance(out: TaskOutcome, res: dict) -> None:
    out.count("newton_iterations", sum(res["newton_iterations"]))
    out.count("probe_violations", res["probe_violations"])
    if res["probe_violations"] != 0:
        out.failures.append(f"balance: {res['probe_violations']} probe violations")
    _route_check(out, "balance round_trip_gap", res["round_trip_gap"], max(res["psi_after"]))


def _check_ti_bounds(out: TaskOutcome, res: dict) -> None:
    broken = [p["oscillator"] for p in res["per_oscillator"] if not p["bound_holds"]]
    if broken:
        out.failures.append(f"ti-bounds: bound fails for oscillators {broken}")


def _check_mc(out: TaskOutcome, res: dict) -> None:
    out.count("mc_samples", res["samples"])
    out.count("mc_rejected", res["rejected"])
    if not (res["in_range"] and 0.9 <= res["ratio"] <= 1.1):
        out.failures.append(f"mc-check: ratio {res['ratio']:.4f} out of range")
    else:
        # the first-order prediction eps*Z is the in-program oracle of the
        # sampled variance; at 4096 samples their gap is statistical
        out.digits.append(-math.log10(max(abs(res["ratio"] - 1.0), EPS)))


def _gradient_scale(grads) -> float:
    return max(float(np.max(np.abs(g))) for g in (*grads.rho, *grads.mu))


def _gradient_gap(a, b) -> float:
    pairs = zip((*a.rho, *a.mu), (*b.rho, *b.mu))
    return max(float(np.max(np.abs(x - y))) for x, y in pairs)


def run_reference(runner: TaskRunner, out: TaskOutcome) -> None:
    runner.cli(out, "validate", _check_validate)
    runner.cli(out, "covariance", _check_covariance)
    runner.cli(out, "purity", _check_purity)
    runner.cli(out, "gradients", _check_gradients)
    runner.cli(out, "sensitivity", _check_sensitivity)
    runner.cli(out, "balance", _check_balance)
    runner.cli(out, "ti-bounds", _check_ti_bounds)


def run_long_chain(runner: TaskRunner, out: TaskOutcome) -> None:
    runner.cli(out, "validate", _check_validate)
    runner.cli(out, "covariance", _check_covariance)
    runner.cli(out, "purity", _check_purity)
    spec = runner.library(out, "load_spec", cli.load_spec, runner.spec_path)
    if spec is None:
        return
    cascade = runner.library(out, "build_cascade", cli.build_cascade, spec)
    if cascade is None:
        return
    direct = runner.library(
        out, "purity_gradients_direct", gradients.purity_gradients_direct, cascade
    )
    recursive = runner.library(
        out, "purity_gradients_recursive", gradients.purity_gradients_recursive, cascade
    )
    if direct is not None and recursive is not None:
        _route_check(
            out, "gradients route_gap", _gradient_gap(direct, recursive), _gradient_scale(direct)
        )


def run_mc_check(runner: TaskRunner, out: TaskOutcome) -> None:
    runner.cli(out, "mc-check", _check_mc, "--samples", str(MC_SAMPLES), "--epsilon", MC_EPSILON)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[TaskClass, ...]
    run: Callable[[TaskRunner, TaskOutcome], None]
    # seconds per cycle at the commit that defined the benchmark; sizes
    # the fixed task list of a run from --seconds
    nominal_cycle_s: float


_P16 = TaskClass("passive16", "passive", 16, 2)
_P32 = TaskClass("passive32", "passive", 32, 2)
_P64 = TaskClass("passive64", "passive", 64, 2)
_A8 = TaskClass("amplifying8", "generic", 8, 2, certified=False)
_A16 = TaskClass("amplifying16", "generic", 16, 2, certified=False)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", (TaskClass("reference", "generic", 3, 6),), run_reference, 0.45),
        Workload("long_chain", (_P16, _A8, _P32, _A16, _P64, _P32, _P32, _P64), run_long_chain, 5.9),
        Workload(
            "mc_check",
            (
                TaskClass("mc3", "generic", 3, 6),
                TaskClass("mc4", "generic", 4, 2),
                TaskClass("mc6", "generic", 6, 2),
            ),
            run_mc_check,
            3.5,
        ),
    )
}


def run_warmup(runner: TaskRunner, workload: Workload, seed: int) -> TaskOutcome:
    """The first task class of the workload, on a spec stream of its own."""
    cls = workload.cycle[0]
    warm = TaskClass(f"warmup-{cls.label}", cls.kind, cls.n_osc, cls.m)
    runner.write_spec(seed, warm, 0)
    out = TaskOutcome(label=warm.label, certified=True)
    workload.run(runner, out)
    return out


def run_task(runner: TaskRunner, workload: Workload, seed: int, position: int) -> TaskOutcome:
    """Task ``position`` of the workload's seeded sequence."""
    cycle, slot = divmod(position, len(workload.cycle))
    cls = workload.cycle[slot]
    # the task index counts earlier tasks of the same class, so that a
    # class appearing twice in a cycle never repeats a spec
    index = cycle * workload.cycle.count(cls) + workload.cycle[:slot].count(cls)
    runner.write_spec(seed, cls, index)
    out = TaskOutcome(label=cls.label, certified=cls.certified)
    workload.run(runner, out)
    return out
