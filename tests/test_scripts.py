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
