#!/usr/bin/env python3
"""Write ``benchmark_<label>_s1_0.json``: task 0 of seed 1 of four benchmark classes.

Each file is the byte-for-byte output of ``perfbench/specgen.py``'s
``cascade_spec(1, label, 0, ...)`` for the classes ``mc3``, ``mc4`` and
``mc6`` of the ``mc_check`` workload and ``amplifying16`` of
``long_chain``. The tests load the committed files, so a later change to
the benchmark's sampler does not move their inputs. To check that the
files still match the sampler, rerun this script and see that git reports
no change:

    python3 tests/data/make_benchmark_specs.py
    git diff --exit-code tests/data/
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "perfbench"))

from specgen import cascade_spec  # noqa: E402

CLASSES = {"mc3": (3, 6), "mc4": (4, 2), "mc6": (6, 2), "amplifying16": (16, 2)}

if __name__ == "__main__":
    for label, (n_osc, m) in CLASSES.items():
        (HERE / f"benchmark_{label}_s1_0.json").write_bytes(cascade_spec(1, label, 0, "generic", n_osc, m))
