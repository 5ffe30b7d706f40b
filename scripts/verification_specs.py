#!/usr/bin/env python3
"""Write the shared set of specs on which two checkouts are compared byte for byte.

The set is seed-1 tasks #0-#3 of every task class of the benchmark's
workloads (``perfbench/workloads.py``), each the output of
``perfbench/specgen.py``'s ``cascade_spec``, plus ``p64u.json``: ``passive64``
#0 with the weight-form uncertainty a = b = 1 added for every oscillator, and
``mixed242.json``: the m = 2 chain of a one-mode, a two-mode and a one-mode
oscillator of the test suite's ``make_mixed_cascade(np.random.default_rng(77))``
with the weights a = 0.5, b = 1.5 for every oscillator, the one spec that runs
the Kronecker step of the Lyapunov kernel and an order-4 ``ti-bounds`` unit.
Nothing under ``perfbench/`` is changed. One path is printed per line, so

    python3 scripts/output_digest.py $(python3 scripts/verification_specs.py)

digests every command on every spec.

Usage: python3 scripts/verification_specs.py [DIR]   (default: a fresh temporary directory)
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from conftest import make_mixed_cascade  # noqa: E402
from specgen import cascade_spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def mixed_spec() -> bytes:
    """The spec of the mixed (2, 4, 2) chain with weights a = 0.5, b = 1.5."""
    params = make_mixed_cascade(np.random.default_rng(77)).params
    doc = {
        "field_channels": 2,
        "oscillators": [{"n": p.n, "R": p.r_energy.tolist(), "M": p.m_coupling.tolist()} for p in params],
        "uncertainty": [{"a": 0.5, "b": 1.5}] * len(params),
    }
    return json.dumps(doc, sort_keys=True).encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", nargs="?", type=Path)
    out = parser.parse_args().dir or Path(tempfile.mkdtemp(prefix="qcascade-specs-"))
    out.mkdir(parents=True, exist_ok=True)
    classes = {cls.label: cls for workload in WORKLOADS.values() for cls in workload.cycle}
    specs = {}
    for cls in classes.values():
        for index in range(4):
            specs[f"{cls.label}_s1_{index}.json"] = cascade_spec(1, cls.label, index, cls.kind, cls.n_osc, cls.m)
    doc = json.loads(specs["passive64_s1_0.json"])
    doc["uncertainty"] = [{"a": 1.0, "b": 1.0}] * len(doc["oscillators"])
    specs["p64u.json"] = json.dumps(doc, sort_keys=True).encode()
    specs["mixed242.json"] = mixed_spec()
    for name, raw in specs.items():
        (out / name).write_bytes(raw)
        print(out / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
