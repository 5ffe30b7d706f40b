"""Smoke test of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import specgen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKDIR = HERE / "out" / "smoke"


def test_same_seed_gives_byte_identical_specs():
    for workload in workloads.WORKLOADS.values():
        for cls in workload.cycle:
            first = specgen.cascade_spec(7, cls.label, 3, cls.kind, cls.n_osc, cls.m)
            again = specgen.cascade_spec(7, cls.label, 3, cls.kind, cls.n_osc, cls.m)
            other = specgen.cascade_spec(8, cls.label, 3, cls.kind, cls.n_osc, cls.m)
            assert first == again
            assert first != other


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in bench[key]} == table
        for name in table:
            assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_single_task_passes_its_checks(name):
    runner = workloads.TaskRunner(WORKDIR / name)
    outcome = workloads.run_task(runner, workloads.WORKLOADS[name], seed=1, position=0)
    assert outcome.certified
    assert outcome.ok, outcome.failures
    assert outcome.seconds > 0
    assert outcome.digits


def test_tracer_wraps_imported_names_and_restores_them():
    import qcascade.cli as cli

    original = cli.invariant_covariance_direct
    trace = tracer.Tracer()
    runner = workloads.TaskRunner(WORKDIR / "traced")
    with trace.installed():
        assert cli.invariant_covariance_direct is not original
        outcome = workloads.run_task(runner, workloads.WORKLOADS["long_chain"], seed=1, position=0)
    assert cli.invariant_covariance_direct is original
    assert outcome.ok, outcome.failures
    assert trace.stats["cli.main"].calls == 3
    assert trace.stats["covariance.invariant_covariance_direct"].calls >= 3
    assert all(span is not None for span in trace.spans)


def test_timed_run_is_a_fixed_task_list(monkeypatch):
    """The task list depends on --seconds alone, not on how fast tasks run."""
    positions = []

    def instant_task(runner, workload, seed, position):
        positions.append(position)
        return workloads.TaskOutcome(label="instant", certified=True)

    monkeypatch.setattr(run, "calibration_s", lambda name: run.CAL_REF_S)
    monkeypatch.setattr(workloads, "run_task", instant_task)
    workload = workloads.WORKLOADS["long_chain"]
    args = run.parse_args(["--workload", "long_chain", "--seed", "1", "--seconds", "25"])
    outcomes, speed, _ = run.timed_run(workloads, None, workload, args)
    cycles = round(25 / workload.nominal_cycle_s)
    assert positions == list(range(cycles * len(workload.cycle)))
    assert speed == [1.0] * len(outcomes)



MC_REPORT = {"ratio": 1.01, "in_range": True, "samples": 4096, "rejected": 0}


@pytest.mark.parametrize(
    "command, check, report, code, wrong",
    [
        ("mc-check", "_check_mc", {**MC_REPORT, "ratio": 1.3, "in_range": False}, 2, True),
        ("ti-bounds", "_check_ti_bounds",
         {"per_oscillator": [{"oscillator": 0, "bound_holds": True}, {"oscillator": 1, "bound_holds": False}]},
         2, True),
        ("validate", "_check_validate", {"pr_ok": True, "unstable_oscillators": [1]}, 1, True),
        ("mc-check", "_check_mc", MC_REPORT, 2, False),  # flagged, but the report passes
        ("mc-check", "_check_mc", None, 2, False),  # no report: a refusal
    ],
)
def test_nonzero_exit_is_wrong_when_its_report_fails_the_check(monkeypatch, command, check, report, code, wrong):
    def fake_main(argv):
        if report is not None:
            out = Path(argv[argv.index("--out") + 1])
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(json.dumps({"results": report}))
        return code

    monkeypatch.setattr(workloads.cli, "main", fake_main)
    outcome = workloads.TaskOutcome(label="fake", certified=True)
    workloads.TaskRunner(WORKDIR / "fake").cli(outcome, command, getattr(workloads, check))
    assert not outcome.ok
    assert outcome.wrong == wrong
