"""One owner per derived quantity: P, the steady-state record that holds
its factor, and the gradients of a cascade are computed at most once, kept
on the cascade and handed out read-only, whichever library calls ask for them."""

import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import qcascade.covariance
from qcascade.balance import balance_cascade
from qcascade.cli import build_cascade
from qcascade.covariance import invariant_covariance_direct, steady_state
from qcascade.errors import NonPositive, SingularLeadingBlock
from qcascade.gradients import purity_gradients_direct
from qcascade.sensitivity import fisher_sensitivity, monte_carlo_variance

# the computations an owner does once: the solve of P, a Cholesky
# factorization of P (the package routine or scipy's) and the Gramian
COMPUTATIONS = ("stationary_covariance", "_cholesky", "cho_factor", "observability_gramian_and_hankelian")


@pytest.fixture()
def counts(monkeypatch):
    counts = Counter()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    originals = {}
    for module in [m for n, m in sys.modules.items() if n.startswith("qcascade")]:
        for name in COMPUTATIONS:
            if hasattr(module, name):
                fn = originals.setdefault(name, getattr(module, name))
                monkeypatch.setattr(module, name, spy(name, fn))
    return counts


def test_the_chain_solves_factors_and_forms_the_gramian_once(counts, reference_spec):
    cascade = build_cascade(reference_spec)
    uncertainty = reference_spec.uncertainty
    state = steady_state(cascade)
    fisher_sensitivity(cascade, uncertainty)
    monte_carlo_variance(cascade, uncertainty, samples=256, seed=1)
    balance_cascade(cascade, uncertainty)
    assert counts == Counter(
        {"stationary_covariance": 1, "_cholesky": 1, "observability_gramian_and_hankelian": 1}
    )
    assert steady_state(cascade) is state
    assert invariant_covariance_direct(cascade) is state.p_full
    assert purity_gradients_direct(cascade) is purity_gradients_direct(cascade)


CONSUMERS = {
    "fisher": fisher_sensitivity,
    "balance": balance_cascade,
    "monte_carlo": lambda cascade, unc: monte_carlo_variance(cascade, unc, samples=256, seed=1),
    "steady_state": lambda cascade, unc: steady_state(cascade),
}


@pytest.mark.parametrize("first", list(CONSUMERS))
def test_one_record_per_cascade(first, counts, reference_spec, monkeypatch):
    # whichever consumer comes first builds the one record: L and the purity together
    cascade = build_cascade(reference_spec)
    slogdet_shapes = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda x: slogdet_shapes.append(np.shape(x)) or slogdet(x))
    order = [first, *(name for name in CONSUMERS if name != first)]
    for name in order:
        CONSUMERS[name](cascade, reference_spec.uncertainty)
    assert counts["_cholesky"] == 1
    assert slogdet_shapes == [cascade.theta.shape]
    assert set(cascade.derived) == {"p", "state", "gradients"}


def test_kept_arrays_are_read_only(reference_spec):
    cascade = build_cascade(reference_spec)
    state, grads = steady_state(cascade), purity_gradients_direct(cascade)
    for kept in (state.p_full, state.chol, *grads.rho, *grads.mu):
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 1.0
    np.testing.assert_array_equal(
        steady_state(cascade).p_full, invariant_covariance_direct(build_cascade(reference_spec))
    )


def test_a_failed_solve_is_not_kept(counts, reference_spec, monkeypatch):
    cascade = build_cascade(reference_spec)

    def refuse(a, b):
        raise NonPositive("refused solve")

    with monkeypatch.context() as patch:
        patch.setattr(qcascade.covariance, "stationary_covariance", refuse)
        with pytest.raises(NonPositive, match="refused solve"):
            purity_gradients_direct(cascade)
    state = steady_state(cascade)  # solved now, not the refusal replayed
    assert counts["stationary_covariance"] == 1
    np.testing.assert_array_equal(
        state.p_full, invariant_covariance_direct(build_cascade(reference_spec))
    )


def test_a_failed_factor_is_not_kept(counts, reference_spec, monkeypatch):
    cascade = build_cascade(reference_spec)
    monkeypatch.setattr(
        qcascade.covariance, "stationary_covariance", lambda a, b: np.diag([1.0, 1, -1, 1, 1, 1])
    )
    for _ in range(2):
        with pytest.raises(SingularLeadingBlock, match="oscillator 1 "):
            purity_gradients_direct(cascade)
    assert counts["_cholesky"] == 2


def test_a_fresh_cascade_solves_again(counts, reference_spec):
    first, second = build_cascade(reference_spec), build_cascade(reference_spec)
    p_first, p_second = invariant_covariance_direct(first), invariant_covariance_direct(second)
    assert p_first is not p_second
    np.testing.assert_array_equal(p_first, p_second)
    # a model derived by replace() starts with nothing kept, whatever it changed
    moved = replace(first, b=2.0 * first.b)
    np.testing.assert_allclose(invariant_covariance_direct(moved), 4.0 * p_first, rtol=1e-12)
    assert counts["stationary_covariance"] == 3
