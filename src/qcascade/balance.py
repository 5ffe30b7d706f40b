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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotOneMode, RankDeficientMu
from .gradients import GradientSet, transform_gradients
from .linalg import J2, Matrix, symmetric_matrix_function
from .oscillator import CascadeModel, assemble_cascade, transform_params
from .sensitivity import UncertaintyModel

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
FALLBACK_MAX_EVALS = 128
#: random symplectic probes per oscillator that certify a balancing optimum
BALANCE_PROBES = 1000


def f_lambda(z: float, lam: float) -> float:
    """Scalar solution f of 2 f^2 z^2 + 2 f - lam = 0 ... the positive branch."""
    return lam / (1.0 + np.sqrt(1.0 + 2.0 * lam * z * z))


def _h_and_slope(lam: float, r: np.ndarray) -> tuple[float, float]:
    s = np.sqrt(1.0 + 2.0 * lam * r * r)
    h = float(np.prod(lam / (1.0 + s)))
    slope = h * (len(r) / lam - float(np.sum(r * r / ((1.0 + s) * s))))
    return h, slope


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
    decreases monotonically. Iterations count evaluations of h. A
    bracketing bisection takes over if a Newton step leaves (0, inf).
    """
    r = np.asarray(r, dtype=float)
    nu = len(r)
    if target <= 0:
        raise RankDeficientMu(f"multiplier target must be positive, got {target}")
    lam = 2.0 * target ** (1.0 / nu)
    iterates = [lam]
    evals = 0
    for _ in range(NEWTON_MAX_ITER):
        h, slope = _h_and_slope(lam, r)
        evals += 1
        if abs(h - target) <= NEWTON_TOL * target:
            return NewtonResult(
                multiplier=lam,
                iterations=evals,
                iterates=tuple(iterates),
                h_value=h,
            )
        if slope <= 0 or not np.isfinite(slope):
            break
        lam_next = lam + (target - h) / slope
        if lam_next <= 0 or not np.isfinite(lam_next):
            break
        lam = lam_next
        iterates.append(lam)
    else:
        raise NoConvergence(
            f"multiplier iteration did not converge in {NEWTON_MAX_ITER} steps"
        )
    # bisection fallback from the guaranteed lower bound
    lo = 2.0 * target ** (1.0 / nu)
    hi = lo
    h_hi, _ = _h_and_slope(hi, r)
    evals += 1
    while h_hi < target:
        hi *= 2.0
        h_hi, _ = _h_and_slope(hi, r)
        evals += 1
        if evals > FALLBACK_MAX_EVALS:
            raise NoConvergence("bracket growth did not enclose the multiplier")
    while evals <= FALLBACK_MAX_EVALS:
        mid = 0.5 * (lo + hi)
        h_mid, _ = _h_and_slope(mid, r)
        evals += 1
        iterates.append(mid)
        if abs(h_mid - target) <= NEWTON_TOL * target:
            return NewtonResult(
                multiplier=mid,
                iterations=evals,
                iterates=tuple(iterates),
                h_value=h_mid,
            )
        if h_mid < target:
            lo = mid
        else:
            hi = mid
    raise NoConvergence("bisection fallback exhausted its evaluation budget")


def newton_lambda(r1: float, r2: float, det_tau: float) -> NewtonResult:
    """One-mode multiplier equation with spectrum {r1, r2}."""
    return solve_multiplier(np.array([r1, r2]), det_tau)


@dataclass(frozen=True)
class OneModeBalanceProblem:
    """Scaled gradient data of one oscillator mode.

    ``rho`` is 2 x 2 symmetric, ``mu`` stacks the scaled coupling
    gradient, ``tau`` its Gram matrix mu^T mu.
    """

    rho: Matrix
    mu: Matrix
    tau: Matrix

    @classmethod
    def from_gradients(
        cls,
        rho: Matrix,
        mu: Matrix,
        energy_weight: float,
        coupling_weight: float,
    ) -> "OneModeBalanceProblem":
        rho_s = 2.0 * np.sqrt(energy_weight) * rho
        mu_s = np.sqrt(coupling_weight) * mu
        return cls(rho=rho_s, mu=mu_s, tau=mu_s.T @ mu_s)


@dataclass(frozen=True)
class BalancingResult:
    """Optimal one-mode transform and the index values around it.

    ``s_k`` is the symmetric positive definite representative of the
    optimum (rotation gauge fixed to zero); ``stretch`` and ``angle``
    give its singular factorization S = R(-angle) diag(sqrt(stretch),
    1/sqrt(stretch)) R(angle). ``whitened_spectrum`` is the spectrum r of
    tau^{-1/2} rho tau^{-1/2} on which the multiplier equation was solved.
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


def _psi_of_u(rho: Matrix, tau: Matrix, u: Matrix) -> float:
    return 0.5 * float(np.trace(rho @ u @ rho @ u)) + float(np.trace(tau @ u))


def _stationary_gram(rho: Matrix, tau: Matrix) -> tuple[Matrix, NewtonResult, np.ndarray]:
    """Whitens rho by tau, solves the multiplier equation on the whitened
    spectrum r; returns the stationary U (determinant not normalized),
    the Newton result and r."""
    tau_eigs = np.linalg.eigvalsh(tau)
    if tau_eigs[0] <= 1e-12 * max(1.0, tau_eigs[-1]):
        raise RankDeficientMu(
            f"coupling-gradient Gram matrix has eigenvalue {tau_eigs[0]:.3e}"
        )
    det_tau = float(np.linalg.det(tau))
    w, v = np.linalg.eigh(tau)
    tau_isqrt = (v / np.sqrt(w)) @ v.T
    core = tau_isqrt @ rho @ tau_isqrt
    r = np.linalg.eigvalsh(core)
    newton = solve_multiplier(r, det_tau)
    lam = newton.multiplier
    u = tau_isqrt @ symmetric_matrix_function(lambda z: f_lambda(z, lam), core) @ tau_isqrt
    return 0.5 * (u + u.T), newton, r


def probe_psi(problem: OneModeBalanceProblem, h: np.ndarray) -> np.ndarray:
    """Index Psi(S^T S) at the one-mode probes S = exp(J h), h of shape (P, 2, 2).

    (J h)^2 = -det(h) I, so exp(J h) = cosh(w) I + (sinh(w) / w) J h with
    w^2 = -det h (cos and sin when det h > 0, I + J h as w -> 0)."""
    det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    w = np.sqrt(np.abs(det))
    even = np.where(det > 0, np.cos(w), np.cosh(w))
    odd = np.divide(np.where(det > 0, np.sin(w), np.sinh(w)), w, out=np.ones_like(w), where=w > 0)
    s = even[:, None, None] * np.eye(2) + odd[:, None, None] * (J2 @ h)
    u = s.transpose(0, 2, 1) @ s
    ru = problem.rho @ u
    return 0.5 * np.einsum("pij,pji->p", ru, ru) + np.einsum("ij,pji->p", problem.tau, u)


def minimize_psi_one_mode(problem: OneModeBalanceProblem) -> BalancingResult:
    """Closed-form minimizer of the one-mode weighted index.

    Whitens rho by tau, solves the multiplier equation on the whitened
    spectrum and assembles U with unit determinant; the returned
    transform is the symmetric square root of U.
    """
    rho, tau = problem.rho, problem.tau
    if rho.shape != (2, 2) or tau.shape != (2, 2):
        raise NotOneMode(f"one-mode data must be 2 x 2, got {rho.shape} and {tau.shape}")
    u, newton, r = _stationary_gram(rho, tau)
    lam = newton.multiplier
    # unit determinant to round-off; renormalize so the gauge tests are exact
    u = u / np.sqrt(np.linalg.det(u))
    uw, uv = np.linalg.eigh(u)
    order = np.argsort(uw)[::-1]
    uw = uw[order]
    uv = uv[:, order]
    if np.linalg.det(uv) < 0:
        uv[:, 1] = -uv[:, 1]
    s = (uv * np.sqrt(uw)) @ uv.T
    angle = -float(np.arctan2(uv[1, 0], uv[0, 0]))
    return BalancingResult(
        s_k=s,
        lambda_k=lam,
        u_k=u,
        psi_before=_psi_of_u(rho, tau, np.eye(2)),
        psi_after=_psi_of_u(rho, tau, u),
        newton_iterations=newton.iterations,
        stretch=float(uw[0]),
        angle=angle,
        whitened_spectrum=r,
    )


@dataclass(frozen=True)
class CascadeBalanceReport:
    results: tuple[BalancingResult, ...]
    ratios: tuple[float, ...]
    total_before: float
    total_after: float
    total_ratio: float
    transformed: CascadeModel
    transformed_gradients: GradientSet
    probe_violations: int


def balance_cascade(
    cascade: CascadeModel,
    gradients: GradientSet,
    uncertainty: UncertaintyModel,
    seed: int = 7,
) -> CascadeBalanceReport:
    """Balance every oscillator of a one-mode-per-oscillator cascade.

    Each mode is minimized independently; ratios compare the weighted
    index before and after. ``BALANCE_PROBES`` random symplectic probes
    per oscillator certify that no sampled transform beats the
    closed-form optimum. The transformed cascade is assembled so that
    callers can re-derive the gradients from scratch and close the loop.
    """
    if any(d != 2 for d in cascade.dims):
        raise NotOneMode(f"cascade has mode orders {cascade.dims}, expected all 2")
    problems = [
        OneModeBalanceProblem.from_gradients(rho, mu, *unc.weights())
        for rho, mu, unc in zip(gradients.rho, gradients.mu, uncertainty.oscillators)
    ]
    results = [minimize_psi_one_mode(problem) for problem in problems]

    rng = np.random.default_rng(seed)
    violations = 0
    for problem, res in zip(problems, results):
        h = rng.standard_normal((BALANCE_PROBES, 2, 2))
        psi = probe_psi(problem, 0.5 * (h + h.transpose(0, 2, 1)))
        violations += int(np.count_nonzero(psi < res.psi_after * (1 - 1e-9)))

    transforms = [res.s_k for res in results]
    transformed = assemble_cascade(
        [transform_params(p, s) for p, s in zip(cascade.params, transforms)]
    )
    new_grads = transform_gradients(
        gradients, transforms, [p.theta for p in cascade.params]
    )
    before = [res.psi_before for res in results]
    after = [res.psi_after for res in results]
    return CascadeBalanceReport(
        results=tuple(results),
        ratios=tuple(a / b for a, b in zip(after, before)),
        total_before=float(sum(before)),
        total_after=float(sum(after)),
        total_ratio=float(sum(after) / sum(before)),
        transformed=transformed,
        transformed_gradients=new_grads,
        probe_violations=violations,
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
