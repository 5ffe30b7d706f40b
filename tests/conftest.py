"""Shared fixtures: the reference cascades and random model factories.

Two roles. ``reference_spec`` / ``reference_cascade`` load a committed
generated cascade (N = 3 one-mode oscillators, m = 6) for the law and
route tests, which hold for any admissible cascade. ``paper_spec`` /
``paper_cascade`` load the paper's Sec. 9 data for the checks against
published numbers; until that file is transcribed those checks fail.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import qcascade.cli
from qcascade.cli import CascadeSpecFile, build_cascade, load_spec
from qcascade.linalg import block_slices, is_hurwitz, symplectic_exponential, vech_to_symmetric
from qcascade.oscillator import (
    CascadeModel, OscillatorParams, OscillatorUncertainty, UncertaintyModel, default_theta,
)

# written by tests/data/make_cascade_n3_m6.py: seed 1706, make_oscillator rule
GENERATED_SPEC = Path(__file__).resolve().parent / "data" / "cascade_n3_m6.json"
PAPER_SPEC = Path(__file__).resolve().parent.parent / "examples" / "paper_sec9.json"

# comfortable margin so finite-difference probes stay Hurwitz
RANDOM_MARGIN = -0.05


@pytest.fixture(autouse=True)
def empty_spec_cache():
    """Every test starts ``cli.main`` with no loaded spec, so no test reads a
    cascade, or the P and gradients on it, that an earlier test computed."""
    qcascade.cli._LOADED.clear()


def data_cascade(name: str) -> CascadeModel:
    """The cascade of the spec ``tests/data/<name>.json``, such as a benchmark task's."""
    return build_cascade(load_spec(GENERATED_SPEC.parent / f"{name}.json"))


@pytest.fixture(scope="session")
def reference_spec() -> CascadeSpecFile:
    return load_spec(GENERATED_SPEC)


@pytest.fixture(scope="session")
def reference_cascade(reference_spec) -> CascadeModel:
    return build_cascade(reference_spec)


@pytest.fixture(scope="session")
def paper_spec() -> CascadeSpecFile:
    if not PAPER_SPEC.exists():
        pytest.fail(
            "Sec. 9 reference data not present: examples/paper_sec9.json is missing; "
            "transcribe R_k, M_k, a_k, b_k and the expected block from arXiv:1706.04358 §9",
            pytrace=False,
        )
    return load_spec(PAPER_SPEC)


@pytest.fixture(scope="session")
def paper_cascade(paper_spec) -> CascadeModel:
    return build_cascade(paper_spec)


def weight_model(weights) -> UncertaintyModel:
    """Error model of isotropic bounds (a_k, b_k), one pair per oscillator."""
    return UncertaintyModel(tuple(OscillatorUncertainty(energy_weight=a, coupling_weight=b) for a, b in weights))


def make_oscillator(
    rng: np.random.Generator,
    m: int,
    n: int = 2,
    margin: float = RANDOM_MARGIN,
    max_tries: int = 200,
) -> OscillatorParams:
    """Random oscillator with spectral abscissa below ``margin``."""
    from qcascade.linalg import J2

    j_ito = np.kron(J2, np.eye(m // 2))
    for _ in range(max_tries):
        r = rng.standard_normal((n, n)) * 0.6
        r = 0.5 * (r + r.T)
        mcoup = rng.standard_normal((m, n)) * 0.8
        params = OscillatorParams(theta=default_theta(n), r_energy=r, m_coupling=mcoup)
        a = 2.0 * params.theta @ (r + mcoup.T @ j_ito @ mcoup)
        stable, abscissa = is_hurwitz(a, np.max(np.abs(a)))
        if stable and abscissa < margin:
            return params
    raise RuntimeError("could not sample a stable oscillator")


def make_cascade(
    rng: np.random.Generator,
    n_osc: int,
    m: int,
    margin: float = RANDOM_MARGIN,
) -> CascadeModel:
    from qcascade.oscillator import assemble_cascade

    return assemble_cascade(
        [make_oscillator(rng, m, margin=margin) for _ in range(n_osc)]
    )


def make_mixed_cascade(rng: np.random.Generator) -> CascadeModel:
    """Random m = 2 chain of a one-mode, a two-mode and a one-mode oscillator."""
    from qcascade.oscillator import assemble_cascade

    return assemble_cascade(
        [make_oscillator(rng, 2), make_oscillator(rng, 2, n=4), make_oscillator(rng, 2)]
    )


def make_passive_chain(rng: np.random.Generator, n_osc: int) -> CascadeModel:
    """Passive m = 2 chain: M_k = alpha (cos phi I + sin phi J), R_k = r I,
    the sampler of the benchmark's passive classes."""
    from qcascade.linalg import J2
    from qcascade.oscillator import assemble_cascade

    chain = []
    for _ in range(n_osc):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coupling = rng.uniform(0.5, 1.2) * (np.cos(phase) * np.eye(2) + np.sin(phase) * J2)
        chain.append(
            OscillatorParams(
                theta=default_theta(2), r_energy=rng.uniform(-1.0, 1.0) * np.eye(2),
                m_coupling=coupling,
            )
        )
    return assemble_cascade(chain)


@pytest.fixture(scope="session")
def random_corpus() -> list[CascadeModel]:
    """Twenty random stable cascades, N <= 4, one mode each, m in {2, 4, 6}."""
    rng = np.random.default_rng(20260814)
    corpus = []
    for i in range(20):
        n_osc = 1 + i % 4
        m = (2, 4, 6)[i % 3]
        corpus.append(make_cascade(rng, n_osc, m))
    return corpus


#: exp(delta J h) with these moves a balancing optimum of the generated spec
#: to a stationarity residual of 1.6e-2 to 2.1e-2 while keeping det U = 1;
#: Psi rises by 3.6e-4 to 8.0e-4 relative, which 1000 random probes do not find
MOVE_DELTA, MOVE_H = 1e-2, np.array([[1.0, 0.5], [0.5, -1.0]])


def move_balancing_optimum(monkeypatch, oscillators=None) -> None:
    """Make the one-mode minimiser return E^T U E, E = exp(MOVE_DELTA J MOVE_H),
    in place of its optimum U on the calls numbered in ``oscillators``
    (every call when None)."""
    import itertools

    import qcascade.balance

    stationary = qcascade.balance._stationary_gram
    calls = itertools.count()
    e = symplectic_exponential(MOVE_DELTA * MOVE_H)

    def moved(rho, tau):
        u, newton, r = stationary(rho, tau)
        if oscillators is None or next(calls) in oscillators:
            u = e.T @ u @ e
        return u, newton, r

    monkeypatch.setattr(qcascade.balance, "_stationary_gram", moved)


def random_symplectic(rng: np.random.Generator, n: int, scale: float = 0.4) -> np.ndarray:
    h = rng.standard_normal((n, n)) * scale
    return symplectic_exponential(0.5 * (h + h.T))


def random_blockdiag_symplectic(
    rng: np.random.Generator, dims: tuple[int, ...], scale: float = 0.4
) -> list[np.ndarray]:
    return [random_symplectic(rng, n, scale) for n in dims]


def rank_m_stack(cascades):
    """Stack-last rank-m form (diag, b, c) of assembled cascades of equal
    orders, one copy each: the diagonal blocks, B and C."""
    diag = [np.stack([c.a[blk, blk] for c in cascades], axis=-1) for blk in cascades[0].blocks]
    return diag, np.stack([c.b for c in cascades], axis=-1), np.stack([c.c for c in cascades], axis=-1)


def composite(diag, b, c):
    """Dense stack-last composite A (n, n, S) of a rank-m stack: the diagonal
    blocks, and A_jl = B_j C_l below them, zero above."""
    blocks = block_slices([len(x) for x in diag])
    a = np.zeros((b.shape[0], b.shape[0], b.shape[2]))
    for j, rj in enumerate(blocks):
        a[rj, rj] = diag[j]
        a[rj, : rj.start] = np.einsum("ims,mls->ils", b[rj], c[:, : rj.start])
    return a


def perturbed_params(cascade, de, s):
    """Parameters of copy s of a perturbation stack ``de``, for assembly."""
    out = []
    for p, de_k in zip(cascade.params, de):
        d_r = p.n * (p.n + 1) // 2
        out.append(
            OscillatorParams(
                theta=p.theta,
                r_energy=p.r_energy + vech_to_symmetric(de_k[s, :d_r], p.n),
                m_coupling=p.m_coupling + de_k[s, d_r:].reshape((p.m, p.n), order="F"),
            )
        )
    return out
