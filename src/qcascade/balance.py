"""Symplectic balancing of gradient sensitivities.

For a one-mode oscillator the weighted index after the change of
variables X -> S X depends on S only through U = S^T S with det U = 1:

    Psi(U) = <rho, U rho U> / 2 + <tau, U>,

where rho is the scaled energy gradient and tau = mu^T mu the Gram
matrix of the scaled coupling gradient. The minimizer solves

    rho U rho + tau = (lambda / 2) U^{-1}

and is obtained in closed form from a scalar multiplier equation
h(lambda) = det tau with h increasing and convex, solved by a guarded
Newton iteration started at a guaranteed lower bound.

Psi is geodesically convex on the positive definite matrices under the
affine-invariant metric (Sra and Hosseini, SIAM J. Optim. 25, 2015):
along U(t) = U^{1/2} exp(tY) U^{1/2}, with Y = Q diag(y) Q^T and
rho' = Q^T U^{1/2} rho U^{1/2} Q, the first term is
sum_ij rho'_ij^2 exp(t (y_i + y_j)) / 2, convex even for indefinite rho,
and tr(tau U(t)) is strictly convex for tau > 0. The det-1 matrices form
a totally geodesic submanifold, so a U with det U = 1 that solves the
stationarity equation is the unique global minimum. The optimum is
therefore certified by the relative residual of that equation and by
|det U - 1|, not by sampling other transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergence, NotOneMode, RankDeficientMu, SchemaError, _prefixed
from .gradients import purity_gradients_direct
from .linalg import Matrix, certified
from .oscillator import CascadeModel, OscillatorUncertainty, _one_entry_each, assemble_cascade, transform_params

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def f_lambda(z: float, lam: float) -> float:
    """Scalar solution f of 2 f^2 z^2 + 2 f - lam = 0 ... the positive branch."""
    return lam / (1.0 + np.sqrt(1.0 + 2.0 * lam * z * z))


@dataclass(frozen=True)
class NewtonResult:
    multiplier: float
    iterations: int
    iterates: tuple[float, ...]
    h_value: float


def solve_multiplier(r: np.ndarray, target: float) -> NewtonResult:
    """Solve h(lambda) = target for the positive multiplier.

    h(lambda) = prod_i lambda / (1 + sqrt(1 + 2 lambda r_i^2)) is
    strictly increasing and convex, and bounded by (lambda/2)^nu, so
    lambda_0 = 2 target^(1/nu) never overshoots the root. The first
    Newton step lands above the root, after which the iteration
    decreases monotonically. Iterations count evaluations of h. A slope
    or a step outside (0, inf), or no convergence in ``NEWTON_MAX_ITER``
    steps, raises NoConvergence.
    """
    r = np.asarray(r, dtype=float)
    nu = len(r)
    if target <= 0:
        raise RankDeficientMu(f"multiplier target must be positive, got {target}")
    lam = 2.0 * target ** (1.0 / nu)
    iterates = [lam]
    for evals in range(1, NEWTON_MAX_ITER + 1):
        s = np.sqrt(1.0 + 2.0 * lam * r * r)
        h = float(np.prod(lam / (1.0 + s)))
        slope = h * (nu / lam - float(np.sum(r * r / ((1.0 + s) * s))))
        if abs(h - target) <= NEWTON_TOL * target:
            return NewtonResult(
                multiplier=lam,
                iterations=evals,
                iterates=tuple(iterates),
                h_value=h,
            )
        # tested before dividing: a zero or non-finite slope ends the iteration
        if not 0.0 < slope < np.inf:
            raise NoConvergence(f"multiplier slope {slope:.3e} at lambda {lam:.6e}")
        lam += (target - h) / slope
        if not 0.0 < lam < np.inf:
            raise NoConvergence(f"multiplier Newton step left (0, inf): lambda {lam:.6e}")
        iterates.append(lam)
    raise NoConvergence(
        f"multiplier iteration did not converge in {NEWTON_MAX_ITER} steps"
    )


@dataclass(frozen=True)
class OneModeBalanceProblem:
    """Scaled gradient data of one oscillator mode, all that Psi reads.

    ``rho`` is the 2 x 2 symmetric scaled energy gradient, ``tau`` the
    Gram matrix mu^T mu of the scaled coupling gradient mu.
    """

    rho: Matrix
    tau: Matrix

    @classmethod
    def from_gradients(
        cls,
        rho: Matrix,
        mu: Matrix,
        energy_weight: float,
        coupling_weight: float,
    ) -> "OneModeBalanceProblem":
        mu_s = np.sqrt(coupling_weight) * mu
        return cls(rho=2.0 * np.sqrt(energy_weight) * rho, tau=mu_s.T @ mu_s)


@dataclass(frozen=True)
class BalancingResult:
    """Optimal one-mode transform and the index values around it.

    ``s_k`` is the symmetric positive definite representative of the
    optimum (rotation gauge fixed to zero); ``stretch`` and ``angle``
    give its singular factorization S = R(-angle) diag(sqrt(stretch),
    1/sqrt(stretch)) R(angle). ``whitened_spectrum`` is the spectrum r of
    tau^{-1/2} rho tau^{-1/2} on which the multiplier equation was solved.
    ``stationarity`` is the relative residual
    ||rho U rho + tau - (lambda/2) U^{-1}||_F / ||rho U rho + tau||_F of the
    stationarity equation at U = ``u_k`` and ``det_gap`` is |det U - 1|;
    together they certify the optimum.
    """

    s_k: Matrix
    lambda_k: float
    u_k: Matrix
    psi_before: float
    psi_after: float
    newton_iterations: int
    stretch: float
    angle: float
    whitened_spectrum: np.ndarray
    stationarity: float
    det_gap: float


def _psi_of_u(rho: Matrix, tau: Matrix, u: Matrix) -> float:
    return 0.5 * float(np.trace(rho @ u @ rho @ u)) + float(np.trace(tau @ u))


def _stationary_gram(rho: Matrix, tau: Matrix) -> tuple[Matrix, NewtonResult, np.ndarray]:
    """Stationary U (determinant not normalized), the Newton result and the
    whitened spectrum r, whitening by the Cholesky factor tau = L L^T (Golub
    and Van Loan, Sec. 8.7): r and V from one eigh of L^{-1} rho L^{-T}, which
    has the spectrum of tau^{-1/2} rho tau^{-1/2}, det tau = prod L_ii^2 and
    U = L^{-T} V f_lambda(r) V^T L^{-1}; forming no tau^{-1/2} keeps lambda's digits."""
    tau_eigs = np.linalg.eigvalsh(tau)
    if tau_eigs[0] <= 1e-12 * tau_eigs[-1]:  # relative to tau's own scale, so a zero tau is refused
        raise RankDeficientMu(
            f"coupling-gradient Gram matrix has eigenvalue {tau_eigs[0]:.3e}"
        )
    chol = np.linalg.cholesky(tau)
    l_inv = np.linalg.inv(chol)
    r, v = np.linalg.eigh(l_inv @ rho @ l_inv.T)
    newton = solve_multiplier(r, float(np.prod(np.diag(chol))) ** 2)
    w = l_inv.T @ v
    u = (w * f_lambda(r, newton.multiplier)) @ w.T
    return 0.5 * (u + u.T), newton, r


def minimize_psi_one_mode(problem: OneModeBalanceProblem) -> BalancingResult:
    """Closed-form minimizer of the one-mode weighted index.

    Whitens rho by tau, solves the multiplier equation on the whitened
    spectrum and assembles U with unit determinant; the returned
    transform is the symmetric square root of U. The result carries the
    certificate of U: its stationarity residual and |det U - 1|.
    """
    rho, tau = problem.rho, problem.tau
    if rho.shape != (2, 2) or tau.shape != (2, 2):
        raise NotOneMode(f"one-mode data must be 2 x 2, got {rho.shape} and {tau.shape}")
    u, newton, r = _stationary_gram(rho, tau)
    # unit determinant to round-off; renormalize so the gauge tests are exact
    u = u / np.sqrt(np.linalg.det(u))
    uw, uv = np.linalg.eigh(u)
    uw, uv = uw[[1, 0]], uv[:, [1, 0]]  # descending, eigh's order reversed
    if np.linalg.det(uv) < 0:
        uv[:, 1] = -uv[:, 1]
    s = (uv * np.sqrt(uw)) @ uv.T
    angle = -float(np.arctan2(uv[1, 0], uv[0, 0]))
    grad = rho @ u @ rho + tau
    residual = np.linalg.norm(grad - 0.5 * newton.multiplier * np.linalg.inv(u)) / np.linalg.norm(grad)
    return BalancingResult(
        s_k=s,
        lambda_k=newton.multiplier,
        u_k=u,
        psi_before=_psi_of_u(rho, tau, np.eye(2)),
        psi_after=_psi_of_u(rho, tau, u),
        newton_iterations=newton.iterations,
        stretch=float(uw[0]),
        angle=angle,
        whitened_spectrum=r,
        stationarity=float(residual),
        det_gap=abs(float(np.linalg.det(u)) - 1.0),
    )


@dataclass(frozen=True)
class CascadeBalanceReport:
    """``total_ratio`` is the ratio of the summed indices. ``uncertified`` counts the
    oscillators whose optimum fails its certificate: the stationarity residual
    or |det U - 1| fails :func:`~qcascade.linalg.certified`."""

    results: tuple[BalancingResult, ...]
    ratios: tuple[float, ...]
    total_ratio: float
    transformed: CascadeModel
    uncertified: int


def balance_cascade(cascade: CascadeModel, uncertainty: Sequence[OscillatorUncertainty]) -> CascadeBalanceReport:
    """Balance every oscillator of a one-mode-per-oscillator cascade.

    Each mode is minimized independently on the cascade's
    :func:`purity_gradients_direct`; ratios compare the weighted index
    before and after. A sigma-form uncertainty entry, which has no weights
    (SchemaError), and an error model without one entry per oscillator
    (ValueError) are refused before any solve. The transformed cascade is
    assembled so that callers can re-derive the gradients from scratch and
    close the loop.
    """
    for k, entry in enumerate(uncertainty):
        if entry.sigma is not None:
            raise SchemaError(f"uncertainty[{k}]: balancing needs weights 'a' and 'b', not 'sigma'")
    if any(d != 2 for d in cascade.dims):
        raise NotOneMode(f"cascade has mode orders {cascade.dims}, expected all 2")
    _one_entry_each(uncertainty, cascade.dims)
    gradients = purity_gradients_direct(cascade)
    results = []
    for k, (rho, mu, unc) in enumerate(zip(gradients.rho, gradients.mu, uncertainty)):
        with _prefixed(f"oscillator {k}"):
            problem = OneModeBalanceProblem.from_gradients(rho, mu, *unc.weights())
            results.append(minimize_psi_one_mode(problem))
    transformed = assemble_cascade(
        [transform_params(p, res.s_k) for p, res in zip(cascade.params, results)]
    )
    passes = [certified(res.stationarity) and certified(res.det_gap) for res in results]
    before = [res.psi_before for res in results]
    after = [res.psi_after for res in results]
    return CascadeBalanceReport(
        results=tuple(results),
        ratios=tuple(a / b for a, b in zip(after, before)),
        total_ratio=float(sum(after) / sum(before)),
        transformed=transformed,
        uncertified=passes.count(False),
    )


def multimode_lower_bound(rho: Matrix, tau: Matrix) -> float:
    """Minimum of the index over all unit-determinant U > 0.

    For more than one mode the symplectic Gram matrices form a proper
    subset of that domain, so this value bounds the balanced index from
    below. Coincides with the one-mode optimum when rho and tau are
    2 x 2.
    """
    u, _, _ = _stationary_gram(rho, tau)
    u = u / np.linalg.det(u) ** (1.0 / rho.shape[0])
    return _psi_of_u(rho, tau, u)
