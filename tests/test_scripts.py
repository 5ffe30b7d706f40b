"""The scripts under ``scripts/`` run on their defaults and print something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


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
