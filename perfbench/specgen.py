"""Seeded cascade spec generator for the benchmark workloads.

Uses numpy only and never imports ``qcascade`` or the test suite, so the
inputs cannot change when the program changes. Every spec is a pure
function of (workload seed, class name, task index): the same arguments
give byte-identical JSON.

Two samplers:

* ``generic_oscillator`` reproduces the rule of the test suite's
  ``make_oscillator``: one mode, R = sym(0.6 G), M = 0.8 G' with standard
  normal G, G', resampled until the spectral abscissa of
  A = 2 theta (R + M^T J M) is below -0.05. Chains of these are
  amplifying: their field gains are J-unitary but not contractive, so the
  conditioning of P grows geometrically with the chain length.
* ``passive_oscillator`` builds a rotation-scaling coupling
  M = alpha I + beta J with isotropic R = r I (m = 2). Then
  A = r J - (alpha^2 + beta^2) I and the field gain is unitary on the
  imaginary axis, so chains of any length stay well conditioned.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
THETA = 0.5 * J2  # canonical commutation matrix of one mode
MARGIN = -0.05  # abscissa bound of the test suite's make_oscillator
EPSILON = 1e-6


def task_rng(seed: int, label: str, index: int) -> np.random.Generator:
    """Independent stream for task ``index`` of class ``label``."""
    return np.random.default_rng([seed, zlib.crc32(label.encode()), index])


def generic_oscillator(rng: np.random.Generator, m: int) -> dict:
    j_ito = np.kron(J2, np.eye(m // 2))
    for _ in range(200):
        r = rng.standard_normal((2, 2)) * 0.6
        r = 0.5 * (r + r.T)
        mcoup = rng.standard_normal((m, 2)) * 0.8
        a = 2.0 * THETA @ (r + mcoup.T @ j_ito @ mcoup)
        if float(np.max(np.linalg.eigvals(a).real)) < MARGIN:
            return {"n": 2, "R": r.tolist(), "M": mcoup.tolist()}
    raise RuntimeError("could not sample a stable oscillator")


def passive_oscillator(rng: np.random.Generator) -> dict:
    amplitude = rng.uniform(0.5, 1.2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    mcoup = amplitude * (np.cos(phase) * np.eye(2) + np.sin(phase) * J2)
    r = rng.uniform(-1.0, 1.0) * np.eye(2)
    return {"n": 2, "R": r.tolist(), "M": mcoup.tolist()}


def cascade_spec(
    seed: int, label: str, index: int, kind: str, n_osc: int, m: int
) -> bytes:
    """JSON bytes of one spec. ``kind`` is "generic" or "passive"."""
    rng = task_rng(seed, label, index)
    if kind == "generic":
        oscillators = [generic_oscillator(rng, m) for _ in range(n_osc)]
    elif kind == "passive":
        if m != 2:
            raise ValueError("passive sampler builds m = 2 couplings only")
        oscillators = [passive_oscillator(rng) for _ in range(n_osc)]
    else:
        raise ValueError(f"unknown sampler {kind!r}")
    doc = {"field_channels": m, "oscillators": oscillators, "epsilon": EPSILON}
    if kind == "generic":
        weights = rng.uniform(0.5, 1.5, size=(n_osc, 2))
        doc["uncertainty"] = [{"a": float(a), "b": float(b)} for a, b in weights]
    return json.dumps(doc, sort_keys=True).encode()
