"""The scripts under ``scripts/`` run on their defaults and print something,
and ``output_digest.py`` prints its lines in their documented format, over the
default and the ``--format json`` output of each command."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qcascade.cli import COMMANDS

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_with_no_arguments(script, tmp_path):
    # a script's temporary directories (tempfile honours TMPDIR) go with tmp_path
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_output_digest_prints_the_exit_code_beside_the_digest():
    # one line per command: spec name, command, exit code, SHA-256
    spec = Path(__file__).resolve().parent / "data" / "cascade_n3_m6.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT_DIR / "output_digest.py"), str(spec)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.rsplit(" ", 2)[0] for line in lines] == [f"{spec.name} {command}" for command in COMMANDS]
    assert all(re.fullmatch(r"\S+ \S+ [012] [0-9a-f]{64}", line) for line in lines)


def test_output_digest_covers_the_json_format(monkeypatch):
    # each command runs in the default format and with --format json, and the
    # digest covers both standard outputs; the exit code is the default run's
    loader = importlib.util.spec_from_file_location("output_digest", SCRIPT_DIR / "output_digest.py")
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    spec, runs = Path(__file__).resolve().parent / "data" / "cascade_n3_m6.json", []

    def digest(json_text):
        def fake_main(argv):
            runs.append(argv[4:])
            print(json_text if "json" in argv else "table")
            return len(runs) % 2

        monkeypatch.setattr(script, "main", fake_main)
        return script.digest(spec, "covariance")

    (code, first), (_, second) = digest("{}"), digest("[]")
    assert first != second and code == 1
    assert runs == [[], ["--format", "json"]] * 2


def test_ab_tasks_times_one_class_on_both_sides():
    # an A/A run of one long_chain class: both sides run the same tasks and
    # print each round's median, a median and quartiles each, the ratio of
    # the medians, the rounds the change won and the parent's spread
    argv = [sys.executable, str(SCRIPT_DIR / "ab_tasks.py"), str(SCRIPT_DIR.parent), str(SCRIPT_DIR.parent)]
    argv += ["--workload", "long_chain", "--class", "passive16", "--tasks", "2", "--repeat", "1", "--rounds", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("long_chain passive16 seed 1: 2 task(s) x 1 repeat(s) x 2 round(s) = 4 timed runs per side")
    assert lines[1].split() == ["round", "parent_ms", "change_ms"]
    rounds = [line.split() for line in lines[2:4]]
    assert [r[0] for r in rounds] == ["1", "2"] and all(float(x) > 0 for r in rounds for x in r[1:])
    rows = {line.split()[0]: line.split(None, 4)[1:] for line in lines[5:7]}
    assert set(rows) == {"parent", "change"}
    for median, q1, q3, failed in rows.values():
        assert 0 < float(q1) <= float(median) <= float(q3)
        assert failed == "[0, 0]"
    assert re.fullmatch(r"change/parent median \d+\.\d{4}", lines[7])
    won = re.fullmatch(
        r"change won (\d) of 2 rounds \((\d) tied\); gap parent - change -?\d+\.\d{3} ms,"
        r" parent between-round IQR (\d+\.\d{3}) ms",
        lines[8],
    )
    assert won and int(won[1]) + int(won[2]) <= 2
    # two round medians of the parent: their quartiles lie between them
    parent_rounds = sorted(float(r[1]) for r in rounds)
    assert float(won[3]) <= parent_rounds[1] - parent_rounds[0] + 1e-3


def test_ab_tasks_refuses_one_task():
    # one task's repeats would find its spec kept by the CLI from the run before
    argv = [sys.executable, str(SCRIPT_DIR / "ab_tasks.py"), "--tasks", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--tasks must be at least 2" in done.stderr
