"""Metamorphic relations: exact physical invariances, checked without a pin.

Relation (i), the unit of time. R_k -> c R_k and M_k -> sqrt(c) M_k for every
oscillator scale A and B B^T by c, so P, V, v_k and the purity are unchanged,
rho_k scales by 1/c and mu_k by 1/sqrt(c). The uncertainty weights map to the
same perturbation in the new unit, a_k -> c^2 a_k and b_k -> c b_k, which
leaves the sensitivity index unchanged. With c = 4^j every scaling is exact
in floating point, so every command must exit as before and report, and
write, the same numbers: each bit for bit or times an exact power of two.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from qcascade import cli

DATA = Path(__file__).resolve().parent / "data"
SPECS = ["cascade_n3_m6.json", *sorted(p.name for p in DATA.glob("benchmark_*.json"))]
#: every command but reproduce-paper, which needs an ``expected`` block, with its flags
COMMANDS = {
    "validate": [], "covariance": [], "purity": [], "gradients": [], "sensitivity": [],
    "balance": [], "mc-check": ["--samples", "4096", "--epsilon", "1e-10"], "ti-bounds": [],
}
#: c = 4^j
EXPONENTS = (-20, -10, -1, 1, 10, 20)
#: report fields that scale only to round-off: the recursive gradient route
#: rounds differently in another unit, and the Fisher responses take central
#: differences with a unit step, whose rounding depends on the unit
INEXACT = {"route_gap": None, "z_fisher": 1e-2, "z_fisher_k": 1e-2}


def _in_unit(doc: dict, j: int) -> dict:
    """The spec ``doc`` with the time unit divided by c = 4^j."""
    c, root = 4.0**j, 2.0**j
    doc = json.loads(json.dumps(doc))
    for osc in doc["oscillators"]:
        osc["R"] = [[x * c for x in row] for row in osc["R"]]
        osc["M"] = [[x * root for x in row] for row in osc["M"]]
    for entry in doc.get("uncertainty", []):
        entry["a"] *= c * c
        entry["b"] *= c
    return doc


def _run(doc: dict, command: str, where: Path) -> tuple[int, dict]:
    """Exit code, and the results of report.json and the written files, parsed."""
    spec = where.with_suffix(".json")
    spec.write_text(json.dumps(doc))
    argv = [command, str(spec), "--out", str(where), *COMMANDS[command]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    outputs = {}
    for path in sorted(where.glob("*")):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            outputs[path.name] = doc["results"] if path.name == "report.json" else doc
        else:  # CSV: the header, then rows of numbers
            outputs[path.name] = [list(map(float, row.split(","))) for row in path.read_text().split()[1:]]
    return code, outputs


def _power_of_two_gaps(base, twin, key: str = "") -> list[str]:
    """Where ``twin`` differs from ``base`` other than by a number times an
    exact power of two; an ``INEXACT`` field only beyond its tolerance."""
    if isinstance(base, dict) and isinstance(twin, dict) and base.keys() == twin.keys():
        return [gap for k in base for gap in _power_of_two_gaps(base[k], twin[k], k)]
    if isinstance(base, list) and isinstance(twin, list) and len(base) == len(twin):
        return [gap for a, b in zip(base, twin) for gap in _power_of_two_gaps(a, b, key)]
    if type(base) is float and type(twin) is float and key in INEXACT:
        tol = INEXACT[key]
        same = tol is None or math.isclose(base, twin, rel_tol=tol)
    elif type(base) is float and type(twin) is float:
        same = math.frexp(base)[0] == math.frexp(twin)[0]
    else:
        same = base == twin
    return [] if same else [f"{key}: {base!r} -> {twin!r}"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", SPECS)
def test_time_unit(spec, command, tmp_path):
    doc = json.loads((DATA / spec).read_text())
    base_code, base = _run(doc, command, tmp_path / "base")
    for j in EXPONENTS:
        code, twin = _run(_in_unit(doc, j), command, tmp_path / f"unit{j}")
        assert code == base_code, f"j = {j}"
        assert _power_of_two_gaps(base, twin) == [], f"j = {j}"
        if command == "gradients" and base:
            # the known powers: rho_k by 1/c = 4^-j and mu_k by 1/sqrt(c) = 2^-j
            for name, scale in (("rho", 4.0**-j), ("mu", 2.0**-j)):
                want = [[[x * scale for x in row] for row in mat] for mat in base["report.json"][name]]
                assert twin["report.json"][name] == want, f"{name}, j = {j}"
