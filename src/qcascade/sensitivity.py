"""Uncertainty propagation from oscillator parameters to the purity.

Parameter errors of oscillator k are modelled as a Gaussian vector
de_k = [vech dR_k; vec dM_k] with covariance Sigma_k (columns-first
conventions throughout). To first order the log-determinant responds by
dV = g_k^T de_k with g_k the duplication-weighted gradient stack, so the
variance of dV is the sensitivity index Z = sum_k g_k^T Sigma_k g_k.

The module provides the index itself, a Monte-Carlo validation of the
first-order law, the Fisher-information counterpart defined through the
covariance responses, and Gaussian relative-entropy helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .covariance import _cholesky, invariant_covariance_direct, log_det_stack
from .errors import NonPositive, TooManyRejections
from .gradients import GradientSet, covariance_derivatives
from .linalg import RESIDUAL_TOL, Matrix, duplication_matrix
from .oscillator import CascadeModel, perturbed_cascade_stack

MC_CHUNK = 2048
MC_REJECTION_CAP = 0.01


@dataclass(frozen=True)
class OscillatorUncertainty:
    """Error model of one oscillator.

    Either isotropic bounds (``energy_weight`` a_k for the vech R block,
    ``coupling_weight`` b_k for the vec M block) or a full ``sigma``
    covariance over [vech dR; vec dM].
    """

    energy_weight: float | None = None
    coupling_weight: float | None = None
    sigma: Matrix | None = None

    def sigma_matrix(self, n: int, m: int) -> Matrix:
        d_r = n * (n + 1) // 2
        d_m = m * n
        if self.sigma is not None:
            if self.sigma.shape != (d_r + d_m, d_r + d_m):
                raise ValueError(
                    f"sigma has shape {self.sigma.shape}, expected {(d_r + d_m,) * 2}"
                )
            return self.sigma
        if self.energy_weight is None or self.coupling_weight is None:
            raise ValueError("either sigma or both weights must be set")
        return np.diag(np.repeat(self.weights(), [d_r, d_m]))

    def weights(self) -> tuple[float, float]:
        if self.energy_weight is None or self.coupling_weight is None:
            raise ValueError("weight-form bounds are not available")
        return float(self.energy_weight), float(self.coupling_weight)


@dataclass(frozen=True)
class UncertaintyModel:
    oscillators: tuple[OscillatorUncertainty, ...]

    @classmethod
    def from_weights(
        cls, weights: Sequence[tuple[float, float]]
    ) -> "UncertaintyModel":
        return cls(
            oscillators=tuple(
                OscillatorUncertainty(energy_weight=a, coupling_weight=b)
                for a, b in weights
            )
        )


@dataclass(frozen=True)
class SensitivityIndex:
    z_total: float
    z_k: tuple[float, ...]


def duplication_weighted_gradient(gradients: GradientSet, k: int) -> np.ndarray:
    """g_k = [dup^T vec rho_k; vec mu_k], doubling off-diagonal entries."""
    rho = gradients.rho[k]
    dup = duplication_matrix(rho.shape[0])
    g_r = dup.T @ rho.reshape(-1, order="F")
    return np.concatenate([g_r, gradients.mu[k].reshape(-1, order="F")])


def sensitivity_index(
    gradients: GradientSet, uncertainty: UncertaintyModel
) -> SensitivityIndex:
    """First-order variance of V under the per-oscillator error model."""
    if len(uncertainty.oscillators) != len(gradients.rho):
        raise ValueError("one uncertainty entry per oscillator required")
    z_k = []
    for k, unc in enumerate(uncertainty.oscillators):
        n = gradients.rho[k].shape[0]
        m = gradients.mu[k].shape[0]
        g = duplication_weighted_gradient(gradients, k)
        sigma = unc.sigma_matrix(n, m)
        z_k.append(float(g @ sigma @ g))
    return SensitivityIndex(z_total=float(sum(z_k)), z_k=tuple(z_k))


def _transformed_pair(
    gradients: GradientSet, k: int, s: Matrix
) -> tuple[Matrix, Matrix]:
    return s @ gradients.rho[k] @ s.T, gradients.mu[k] @ s.T


def phi_transformed(
    gradients: GradientSet, uncertainty: UncertaintyModel, k: int, s: Matrix
) -> float:
    """Exact index contribution of oscillator k after X_k -> S X_k."""
    rho_s, mu_s = _transformed_pair(gradients, k, s)
    g = duplication_weighted_gradient(GradientSet(rho=(rho_s,), mu=(mu_s,)), 0)
    sigma = uncertainty.oscillators[k].sigma_matrix(rho_s.shape[0], mu_s.shape[0])
    return float(g @ sigma @ g)


def psi_transformed(
    gradients: GradientSet, uncertainty: UncertaintyModel, k: int, s: Matrix
) -> float:
    """Upper bound 2 a_k |S rho S^T|^2 + b_k |mu S^T|^2 on phi."""
    a_k, b_k = uncertainty.oscillators[k].weights()
    rho_s, mu_s = _transformed_pair(gradients, k, s)
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


def _sigma_sqrt(sigma: Matrix) -> Matrix:
    sigma = 0.5 * (sigma + sigma.T)
    w, v = np.linalg.eigh(sigma)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if np.any(w < -1e-12 * scale):
        raise NonPositive(f"uncertainty covariance has eigenvalue {w.min():.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def monte_carlo_variance(
    cascade: CascadeModel,
    uncertainty: UncertaintyModel,
    gradients: GradientSet,
    samples: int = 100_000,
    epsilon: float = 1e-6,
    seed: int = 0,
    p_full: Matrix | None = None,
) -> MonteCarloResult:
    """Sample variance of dV against the first-order prediction eps Z.

    Draws de_k ~ N(0, eps Sigma_k) independently per oscillator, builds
    every sample's composite A and B in vectorized chunks of ``MC_CHUNK``
    samples with :func:`perturbed_cascade_stack` and solves their Lyapunov
    equations A P + P A^T + B B^T = 0 together (:func:`log_det_stack`);
    the sample variance of dV is compared with eps Z. ``p_full`` is the unperturbed
    P when the caller has it already. Base and samples take ln det P from a
    Cholesky factor; a base P that is not positive definite raises
    NonPositive or SingularLeadingBlock naming the pivot.

    A sample is rejected when a perturbed diagonal block is not Hurwitz,
    when its P is not positive definite, or when its residual
    certificate exceeds ``RESIDUAL_TOL``; more than one percent of
    rejections aborts.

    Results are reproducible for a fixed (seed, samples) pair; the chunk
    size ``MC_CHUNK`` takes part in how the random stream is consumed.
    """
    if p_full is None:
        p_full = invariant_covariance_direct(cascade)
    v0 = 2.0 * float(np.sum(np.log(np.diag(_cholesky(p_full, cascade.dims)))))
    z_total = sensitivity_index(gradients, uncertainty).z_total
    predicted = epsilon * z_total

    sqrt_factors = [
        _sigma_sqrt(epsilon * unc.sigma_matrix(nk, cascade.m))
        for unc, nk in zip(uncertainty.oscillators, cascade.dims)
    ]

    rng = np.random.default_rng(seed)
    deltas: list[np.ndarray] = []
    rejected = 0
    done = 0
    while done < samples:
        s_chunk = min(MC_CHUNK, samples - done)
        de = [rng.standard_normal((s_chunk, f.shape[0])) @ f.T for f in sqrt_factors]
        logdet, certificate = log_det_stack(perturbed_cascade_stack(cascade, de), cascade.dims)
        good = (certificate <= RESIDUAL_TOL) & ~np.isnan(logdet)
        rejected += s_chunk - int(np.count_nonzero(good))
        deltas.append(logdet[good] - v0)
        done += s_chunk

    if rejected > MC_REJECTION_CAP * samples:
        raise TooManyRejections(
            f"{rejected} of {samples} samples were rejected: unstable, "
            "not positive definite or failing the residual certificate"
        )
    dv = np.concatenate(deltas)
    variance = float(np.var(dv, ddof=1)) if dv.size > 1 else 0.0
    ratio = variance / predicted if predicted > 0 else float("nan")
    return MonteCarloResult(
        variance=variance,
        predicted=predicted,
        ratio=ratio,
        samples=samples,
        rejected=rejected,
    )


@dataclass(frozen=True)
class FisherResult:
    z_total: float
    z_k: tuple[float, ...]
    gram_k: tuple[Matrix, ...]


def fisher_gram(p: Matrix, dps: np.ndarray) -> Matrix:
    """Gram matrix <dP_a, P^{-1} dP_b P^{-1}> of a stack of perturbations (d, n, n)."""
    try:
        factor = cho_factor(p, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NonPositive(f"covariance is not positive definite: {exc}") from exc
    d, n = len(dps), p.shape[0]
    # Y_a = P^{-1} dP_a for all a from one solve on [dP_1 | ... | dP_d]
    ys = cho_solve(factor, np.asarray(dps).transpose(1, 0, 2).reshape(n, d * n))
    ys = ys.reshape(n, d, n).transpose(1, 0, 2)
    gram = np.einsum("aij,bji->ab", ys, ys)
    return 0.5 * (gram + gram.T)


def fisher_metric(p: Matrix, dp: Matrix) -> float:
    """Information-metric norm <dP, P^{-1} dP P^{-1}> of a perturbation."""
    return float(fisher_gram(p, np.asarray(dp)[None])[0, 0])


def fisher_sensitivity(
    cascade: CascadeModel, uncertainty: UncertaintyModel, p_full: Matrix | None = None
) -> FisherResult:
    """Information-metric sensitivity sum_k Tr(G_k Sigma_k).

    G_k is the Gram matrix (:func:`fisher_gram`) of the covariance
    responses, taken over the same parameter basis as the gradient stack.
    """
    if p_full is None:
        p_full = invariant_covariance_direct(cascade)
    grams = tuple(fisher_gram(p_full, dps) for dps in covariance_derivatives(cascade, p_full))
    z_k = tuple(
        float(np.trace(gram @ unc.sigma_matrix(nk, cascade.m)))
        for gram, unc, nk in zip(grams, uncertainty.oscillators, cascade.dims, strict=True)
    )
    return FisherResult(z_total=float(sum(z_k)), z_k=z_k, gram_k=grams)


def _inv_sqrt(p: Matrix, label: str) -> Matrix:
    w, v = np.linalg.eigh(0.5 * (p + p.T))
    if np.any(w <= 0):
        raise NonPositive(f"{label} is not positive definite")
    return (v / np.sqrt(w)) @ v.T


def kl_gaussian(p: Matrix, p_star: Matrix) -> float:
    """Relative entropy of N(0, p) from N(0, p_star).

    Equals (Tr chi - ln det chi - n) / 2 with chi the whitened ratio
    p_star^{-1/2} p p_star^{-1/2}.
    """
    n = p.shape[0]
    isq = _inv_sqrt(p_star, "reference covariance")
    chi = isq @ p @ isq
    sign, logdet = np.linalg.slogdet(chi)
    if sign <= 0:
        raise NonPositive("covariance ratio is not positive definite")
    return 0.5 * (float(np.trace(chi)) - float(logdet) - n)


def kl_quadratic(p: Matrix, p_star: Matrix) -> float:
    """Small-deviation approximation |chi - I|^2 / 4 of the relative entropy."""
    isq = _inv_sqrt(p_star, "reference covariance")
    chi = isq @ p @ isq
    return 0.25 * float(np.linalg.norm(chi - np.eye(p.shape[0])) ** 2)
