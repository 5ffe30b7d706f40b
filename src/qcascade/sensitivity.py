"""Uncertainty propagation from oscillator parameters to the purity.

Parameter errors of oscillator k are modelled as a Gaussian vector
de_k = [vech dR_k; vec dM_k] with covariance Sigma_k (columns-first
conventions throughout, sizes from :func:`parameter_sizes`). To first
order the log-determinant responds by dV = g_k^T de_k with g_k =
d_vector(k), dV/de_k (:meth:`GradientSet.d_vector`: off-diagonal energy
entries count twice, and mu_k = -dV/dM_k), so the variance of dV is the
sensitivity index Z = sum_k g_k^T Sigma_k g_k.

The module provides the index itself, a Monte-Carlo validation of the
first-order law, the Fisher-information counterpart defined through the
covariance responses, and Gaussian relative-entropy helpers. The error model
is the sequence of the oscillators' :class:`OscillatorUncertainty` entries
(:mod:`qcascade.oscillator`), one per oscillator, or ValueError before any
solve; Z and its Fisher counterpart are each a :class:`SensitivityIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import _cholesky, _lapack_solve, log_det_stack, steady_state
from .errors import NonPositive, SchemaError, TooManyRejections, _prefixed
from .gradients import GradientSet, covariance_derivatives, purity_gradients_direct
from .linalg import Matrix, dtrtrs
from .oscillator import CascadeModel, OscillatorUncertainty, _one_entry_each, _sigma_sqrt, perturbed_cascade_stack

#: perturbed cascades built and solved as one stack by the Monte-Carlo check;
#: it sets how the random stream is cut into draws, so it takes part in the results
MC_CHUNK = 2048
MC_REJECTION_CAP = 0.01


@dataclass(frozen=True)
class SensitivityIndex:
    z_total: float
    z_k: tuple[float, ...]


def _index_term(gradients: GradientSet, k: int, unc: OscillatorUncertainty) -> float:
    """g^T Sigma g of oscillator k, with g = d_vector(k) and Sigma of ``unc``."""
    g, (m, n) = gradients.d_vector(k), gradients.mu[k].shape
    return float(g @ unc.sigma_matrix(n, m) @ g)


def sensitivity_index(
    gradients: GradientSet, uncertainty: Sequence[OscillatorUncertainty]
) -> SensitivityIndex:
    """First-order variance of V under the per-oscillator error model."""
    _one_entry_each(uncertainty, gradients.rho)
    z_k = tuple(_index_term(gradients, k, unc) for k, unc in enumerate(uncertainty))
    return SensitivityIndex(z_total=float(sum(z_k)), z_k=z_k)


def psi_transformed(
    gradients: GradientSet, uncertainty: Sequence[OscillatorUncertainty], k: int, s: Matrix
) -> float:
    """Upper bound 2 a_k |S rho S^T|^2 + b_k |mu S^T|^2 on phi."""
    _one_entry_each(uncertainty, gradients.rho)
    a_k, b_k = uncertainty[k].weights()
    rho_s, mu_s = gradients.transformed_pair(k, s)
    return float(
        2.0 * a_k * np.linalg.norm(rho_s) ** 2 + b_k * np.linalg.norm(mu_s) ** 2
    )


@dataclass(frozen=True)
class MonteCarloResult:
    variance: float
    predicted: float
    ratio: float
    samples: int
    rejected: int


def monte_carlo_variance(
    cascade: CascadeModel,
    uncertainty: Sequence[OscillatorUncertainty],
    samples: int = 100_000,
    epsilon: float = 1e-6,
    seed: int = 0,
) -> MonteCarloResult:
    """Sample variance of dV against the first-order prediction eps Z.

    Draws de_k ~ N(0, eps Sigma_k) independently per oscillator, builds
    every sample's cascade in rank-m form in vectorized chunks of ``MC_CHUNK``
    samples with :func:`perturbed_cascade_stack` and solves their Lyapunov
    equations A P + P A^T + B B^T = 0 together (:func:`log_det_stack`);
    the sample variance of dV is compared with eps Z, Z the index of the
    cascade's :func:`purity_gradients_direct`. The base V_0 is the V of
    :func:`steady_state`, so base and samples take ln det P from a Cholesky
    factor; a base P that is not positive definite raises NonPositive or
    SingularLeadingBlock naming the pivot; eps Z = 0 raises SchemaError.

    A sample is rejected when :func:`log_det_stack` gives it no ln det P: a
    perturbed diagonal block is not Hurwitz, its P is not positive definite,
    or its residual certificate fails; more than one percent of
    rejections aborts, so two or more of the at least two samples that a
    sample variance needs remain; fewer samples raise ValueError.

    Results are reproducible for a fixed (seed, samples) pair; the chunk
    size ``MC_CHUNK`` takes part in how the random stream is consumed. The
    chunks are drawn, built and solved one at a time, in draw order, on the
    calling thread, so only one chunk's stacks are held at once, the
    caller's ``np.errstate`` applies, and the first error is raised before
    any later chunk is drawn. A caller that never runs ``cli.main`` has no heap
    policy, so each chunk's build is slower (README, "Memory between chunks").
    """
    if samples < 2:
        raise ValueError(f"a sample variance needs at least two samples, got {samples}")
    _one_entry_each(uncertainty, cascade.dims)
    v0 = steady_state(cascade).v_logdet
    z_total = sensitivity_index(purity_gradients_direct(cascade), uncertainty).z_total
    predicted = epsilon * z_total
    if not predicted > 0.0:  # before any draw: no variance to compare with, and no ratio
        raise SchemaError(f"the error model predicts no variance of V (eps Z = {predicted:.3e}), nothing to check")

    sqrt_factors = [
        _sigma_sqrt(epsilon * unc.sigma_matrix(nk, cascade.m))
        for unc, nk in zip(uncertainty, cascade.dims)
    ]

    rng = np.random.default_rng(seed)
    deltas, rejected = [], 0  # ln det P - V_0 of the accepted samples of every chunk, and the rejected count
    with _prefixed("Monte-Carlo samples"):
        for done in range(0, samples, MC_CHUNK):
            s_chunk = min(MC_CHUNK, samples - done)
            de = [rng.standard_normal((s_chunk, f.shape[0])) @ f.T for f in sqrt_factors]
            logdet, _ = log_det_stack(perturbed_cascade_stack(cascade, de))
            good = ~np.isnan(logdet)
            rejected += logdet.size - int(np.count_nonzero(good))
            deltas.append(logdet[good] - v0)

    if rejected > MC_REJECTION_CAP * samples:
        raise TooManyRejections(
            f"{rejected} of {samples} samples were rejected: unstable, "
            "not positive definite or failing the residual certificate"
        )
    dv = np.concatenate(deltas)
    variance = float(np.var(dv, ddof=1))
    ratio = variance / predicted
    return MonteCarloResult(variance, predicted, ratio, samples, rejected)


def _whitened(chol: Matrix, xs: np.ndarray) -> np.ndarray:
    """W = L^{-1} X L^{-T} of every symmetric X of a stack (d, n, n), from L of P = L L^T:
    two ``dtrtrs`` solves, on the X side by side, then on the (L^{-1} X)^T side by side."""
    d, n = len(xs), chol.shape[0]
    half = _lapack_solve(dtrtrs, chol, np.asarray(xs).transpose(1, 0, 2).reshape(n, d * n), lower=1)
    half = half.reshape(n, d, n).transpose(2, 1, 0).reshape(n, d * n)
    return _lapack_solve(dtrtrs, chol, half, lower=1).reshape(n, d, n).transpose(1, 0, 2)


def fisher_gram(chol: Matrix, dps: np.ndarray) -> Matrix:
    """Gram matrix <W_a, W_b> = <dP_a, P^{-1} dP_b P^{-1}> of perturbations (d, n, n),
    W_a of :func:`_whitened` on L of P = L L^T; symmetric to the bit."""
    w = _whitened(chol, dps)
    return np.einsum("aij,bij->ab", w, w)


def fisher_metric(p: Matrix, dp: Matrix) -> float:
    """Information-metric norm <dP, P^{-1} dP P^{-1}> of a perturbation."""
    return float(fisher_gram(_cholesky(p, (len(p),)), np.asarray(dp)[None])[0, 0])


def fisher_sensitivity(cascade: CascadeModel, uncertainty: Sequence[OscillatorUncertainty]) -> SensitivityIndex:
    """Information-metric sensitivity sum_k Tr(G_k Sigma_k).

    G_k is the Gram matrix (:func:`fisher_gram`) of the covariance
    responses, taken over the same parameter basis as the gradient stack,
    on the factor L of the :func:`steady_state` record; each G_k is read
    into its trace as it is formed.
    """
    _one_entry_each(uncertainty, cascade.dims)
    chol = steady_state(cascade).chol
    z_k = tuple(
        float(np.trace(fisher_gram(chol, dps) @ unc.sigma_matrix(nk, cascade.m)))
        for dps, unc, nk in zip(covariance_derivatives(cascade), uncertainty, cascade.dims)
    )
    return SensitivityIndex(z_total=float(sum(z_k)), z_k=z_k)


def kl_gaussian(p: Matrix, p_star: Matrix) -> float:
    """Relative entropy of N(0, p) from N(0, p_star).

    Equals sum_i (mu_i - log1p mu_i) / 2 over the spectrum mu of the whitened difference
    W = L^{-1} (p - p_star) L^{-T} (:func:`_whitened`, p_star = L L^T by :func:`_cholesky`),
    so no O(n) terms cancel to an O(|W|^2) value; NonPositive unless mu > -1.
    """
    mu = np.linalg.eigvalsh(_whitened(_cholesky(p_star, (len(p_star),)), (p - p_star)[None])[0])
    if not mu[0] > -1.0:
        raise NonPositive("covariance ratio is not positive definite")
    return 0.5 * float(np.sum(mu - np.log1p(mu)))
