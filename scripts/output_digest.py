#!/usr/bin/env python3
"""Print one line per (spec, command), ``<spec> <command> <exit code> <sha256>``:
the SHA-256 is over all that two runs give back, one in the default format
and one with ``--format json``: each run's exit code, standard output,
standard error and every file it writes. The exit code beside it is the
default run's, and shows in the same diff whether a verdict moved where the
bytes did.

All nine commands run in this process through ``qcascade.cli.main``, each
run into a fresh directory; ``mc-check`` runs with ``--samples 2048``. The
spec's path, which ``provenance.input`` records, is reduced to its file
name, so two checkouts that give the same bytes print the same lines.

Usage: python3 scripts/output_digest.py [spec.json ...]   (default: tests/data/*.json)
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qcascade.cli import COMMANDS, main

EXTRA = {"mc-check": ["--samples", "2048"]}


def digest(spec: Path, command: str) -> tuple[int, str]:
    """Exit code of the default-format run and SHA-256 of both runs of ``command`` on
    ``spec``, the spec's path reduced to its name."""
    parts, codes = [], []
    for fmt in ([], ["--format", "json"]):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(main([command, str(spec), "--out", tmp, *EXTRA.get(command, []), *fmt]))
            parts += [str(codes[-1]), out.getvalue(), err.getvalue()]
            for path in sorted(Path(tmp).iterdir()):
                parts += [path.name, path.read_text()]
    text = "\0".join(parts).replace(str(spec), spec.name)
    return codes[0], hashlib.sha256(text.encode()).hexdigest()


def main_digest() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("specs", nargs="*", type=Path)
    specs = parser.parse_args().specs or sorted((ROOT / "tests" / "data").glob("*.json"))
    for spec in specs:
        for command in COMMANDS:
            code, sha = digest(spec, command)
            print(f"{spec.name} {command} {code} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
