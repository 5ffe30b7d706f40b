"""Reference routes that the tests compare the production routes with.

Each function computes a quantity that production computes once, by an
independent route: a Lyapunov solve by scipy's Schur solver, the purity and
V of a given covariance, the composite transfer as a product of
per-oscillator transfers, the covariance and the H2 norm by frequency
quadrature, the z-family transfer through the base unit, the z-domain
cross-covariance by its closed form and by a truncated series, the
one-mode balancing index at sampled probes, the exact index Phi_k(S)
after a change of variables, the small-deviation relative entropy, the
realizability identity of the z-family, the half-vectorization vech and
its duplication matrix, and the symplectic residual of a transform. This module
imports production, and no production module imports it. The seven routes
the benchmark names by module path stay in their modules:
``linalg.solve_sylvester``, ``sylvester_kron_solve`` and ``symplectic_exponential``,
``covariance.invariant_covariance_recursive`` and ``schur_complements``,
``gradients.purity_gradients_recursive`` and ``gradient_fd_oracle``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .balance import OneModeBalanceProblem
from .covariance import _cholesky, _purity, invariant_covariance_direct
from .errors import NoConvergence, NotHurwitz, SingularResolvent
from .gradients import GradientSet
from .linalg import J2, Matrix, is_hurwitz, resolvent_solve, solve_sylvester, symmetric_part, vech_indices
from .oscillator import CascadeModel, OscillatorParams, OscillatorUncertainty, assemble_cascade, transfer_eval
from .oscillator import _one_entry_each
from .sensitivity import _index_term, fisher_metric
from .zcascade import TIModel, _stable_points, hinf_norm, z_domain_matrices

SERIES_TAIL_TARGET = 1e-8
SERIES_MAX_DEPTH = 40

__all__ = [
    "solve_lyapunov", "purity_and_logdet", "composite_transfer_stack",
    "frequency_domain_covariance", "cross_covariance_generating", "cross_covariance_series",
    "series_depth_for", "series_tail_bound", "h2_norm_quadrature", "phi_z_feedback", "probe_psi",
    "phi_transformed", "kl_quadratic", "z_pr_residual", "vech", "duplication_matrix", "symplectic_residual",
]


def solve_lyapunov(a: Matrix, q: Matrix) -> Matrix:
    """Unique solution P of a*P + P*a^T + q = 0 for Hurwitz a, symmetric q,
    by :func:`linalg.solve_sylvester`. The returned matrix is exactly symmetric.
    """
    q = symmetric_part(np.asarray(q, dtype=float))
    return symmetric_part(solve_sylvester(a, a, q))


def purity_and_logdet(p: Matrix, theta: Matrix) -> tuple[float, float]:
    """Purity sqrt(det theta / det p) and V = ln det p of a given covariance,
    the second route to the record of :func:`covariance.steady_state`: V from
    a :func:`covariance._cholesky` factor of p, det theta by slogdet."""
    chol = _cholesky(p, (len(p),))
    v = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return _purity(v, theta), v


def composite_transfer_stack(cascade: CascadeModel, s: complex) -> np.ndarray:
    """Field-to-variables transfer of the composite, stacked by oscillator.

    Block k is F_k(s) G_{k-1}(s) ... G_1(s); the stack coincides with
    (sI - A)^{-1} B of the composite realization.
    """
    blocks = []
    g_prod = np.eye(cascade.m, dtype=complex)
    for rk in cascade.realizations:
        f, g = transfer_eval(rk, s)
        blocks.append(f @ g_prod)
        g_prod = g @ g_prod
    return np.vstack(blocks)


def frequency_domain_covariance(a: Matrix, b: Matrix, j_ito: Matrix) -> tuple[Matrix, Matrix]:
    """Covariance by frequency-domain quadrature, independent of any
    Lyapunov solver.

    Integrates F(i lam) Omega F(i lam)^* / (2 pi) with Omega = I + i J
    over [-L, L] by scipy's adaptive vector quadrature (``quad_vec``,
    absolute tolerance 1e-8 max(1, |B B^T|), relative 1e-8) and adds the
    analytic O(1/lam^2) tail beyond L. A quadrature that misses its
    tolerance raises NoConvergence. Returns (real part, imaginary part);
    the real part estimates the covariance, the imaginary part the
    commutation matrix.
    """
    stable, margin = is_hurwitz(a, np.max(np.abs(a)))
    if not stable:
        raise NotHurwitz(f"dynamics matrix has spectral abscissa {margin:.3e}")
    omega = np.eye(j_ito.shape[0]) + 1j * j_ito
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    lam_max = 100.0 * max(1.0, radius)

    def integrand(lam: float) -> np.ndarray:
        f = resolvent_solve(a, b, 1j * lam)
        return (f @ omega @ f.conj().T) / (2.0 * np.pi)

    from scipy.integrate import quad_vec

    tol = 1e-8 * max(1.0, float(np.linalg.norm(b @ b.T)))
    total, _, info = quad_vec(integrand, -lam_max, lam_max, epsabs=tol, full_output=True)
    if not info.success:
        raise NoConvergence(f"frequency quadrature: {info.message}")
    # |lam| > L: F ~ B / (i lam), even term integrates to 1/(pi L)
    total += (b @ omega @ b.T) / (np.pi * lam_max)
    return np.real(total), np.imag(total)


def h2_norm_quadrature(model: TIModel) -> float:
    """H2 norm by direct frequency integration, solver-independent: the
    square root of the trace of :func:`frequency_domain_covariance` with
    Omega = I, to its tolerance; NoConvergence when the quadrature misses it."""
    re_p, _ = frequency_domain_covariance(model.a, model.b, np.zeros((model.m, model.m)))
    return float(np.sqrt(np.trace(re_p)))


def phi_z_feedback(model: TIModel, z: complex, s: complex) -> np.ndarray:
    """The transfer of :func:`zcascade.phi_z_resolvent` through the base unit:
    F(s) (z I - G(s))^{-1}; SingularResolvent when z is an eigenvalue of G(s)."""
    f, g = transfer_eval(model, s)
    try:
        return f @ np.linalg.inv(z * np.eye(model.m) - g)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"z = {z} is an eigenvalue of G(s) at s = {s}: {exc}") from exc


def cross_covariance_generating(model: TIModel, z: complex, v: complex) -> np.ndarray:
    """:func:`zcascade.cross_covariance` by the rational closed form in
    (z, v) built on K and L."""
    _stable_points(model, z, v)
    n = model.n
    eye_n = np.eye(n)
    a_sum = np.kron(eye_n, model.a) + np.kron(model.a, eye_n)
    bc = model.b @ model.c
    a_sum_inv = np.linalg.inv(a_sum)
    k_mat = a_sum_inv @ np.kron(bc, eye_n)
    l_mat = a_sum_inv @ np.kron(eye_n, bc)
    core = np.eye(n * n) + k_mat / (v - 1.0) + l_mat / (z - 1.0)
    rhs = a_sum_inv @ (model.b @ model.omega() @ model.b.T).reshape(-1, order="F")
    vec = -np.linalg.solve(core, rhs) / ((z - 1.0) * (v - 1.0))
    return vec.reshape((n, n), order="F")


def series_depth_for(model: TIModel, z: complex, v: complex) -> int:
    """Smallest truncation depth whose tail bound is below the target."""
    gnorm = hinf_norm(model)
    for depth in range(2, SERIES_MAX_DEPTH + 1):
        if _tail_bound(model, gnorm, z, v, depth) < SERIES_TAIL_TARGET:
            return depth
    return SERIES_MAX_DEPTH


def series_tail_bound(model: TIModel, z: complex, v: complex, depth: int) -> float:
    """Bound on the dropped series mass beyond the given depth.

    Uses |P_jk| <= 2 |F|_2^2 |G|_inf^{j+k-2} and geometric sums over the
    index region where j or k exceeds the depth.
    """
    return _tail_bound(model, hinf_norm(model), z, v, depth)


def _tail_bound(model: TIModel, gnorm: float, z: complex, v: complex, depth: int) -> float:
    f2sq = float(np.trace(model.p))
    qz = gnorm / abs(z)
    qv = gnorm / abs(v)
    if qz >= 1 or qv >= 1:
        return float("inf")

    def geo(q: float, start: int) -> float:
        return q**start / (1.0 - q)

    full_v = geo(qv, 1)
    tail = geo(qz, depth + 1) * full_v + geo(qz, 1) * geo(qv, depth + 1)
    return 2.0 * f2sq / gnorm**2 * tail


def cross_covariance_series(params: OscillatorParams, z: complex, v: complex) -> np.ndarray:
    """:func:`zcascade.cross_covariance` of the unit ``params``: the block
    covariances of a finite identical cascade (as many copies as
    :func:`series_depth_for` gives) summed with weights z^-j v^-k, plus the
    commutation sector i Theta / (z v - 1) in closed form."""
    model = TIModel.from_oscillator(params)
    _stable_points(model, z, v)
    depth = series_depth_for(model, z, v)
    cascade = assemble_cascade([params] * depth)
    p_full = invariant_covariance_direct(cascade)
    total = np.zeros((model.n, model.n), dtype=complex)
    for j, rows in enumerate(cascade.blocks, 1):
        for k, cols in enumerate(cascade.blocks, 1):
            total += z ** (-j) * v ** (-k) * p_full[rows, cols]
    total += 1j * params.theta / (z * v - 1.0)
    return total


def probe_psi(problem: OneModeBalanceProblem, h: np.ndarray) -> np.ndarray:
    """Index Psi(S^T S) at the one-mode probes S = exp(J h), h of shape (P, 2, 2);
    a sampled check of the optimum that the tests compare the certificate with.

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


def phi_transformed(
    gradients: GradientSet, uncertainty: Sequence[OscillatorUncertainty], k: int, s: Matrix
) -> float:
    """Exact index contribution of oscillator k after X_k -> S X_k."""
    _one_entry_each(uncertainty, gradients.rho)
    rho_s, mu_s = gradients.transformed_pair(k, s)
    return _index_term(GradientSet(rho=(rho_s,), mu=(mu_s,)), 0, uncertainty[k])


def kl_quadratic(p: Matrix, p_star: Matrix) -> float:
    """Small-deviation approximation |W|^2 / 4 of the relative entropy, W of
    :func:`sensitivity.kl_gaussian`: a quarter of the information metric of p - p_star at p_star."""
    return 0.25 * fisher_metric(p_star, p - p_star)


def z_pr_residual(model: TIModel, theta: Matrix, z: complex, v: complex) -> float:
    """Residual of A_z Theta + Theta A_v^T + (z v - 1) B_z J B_v^T.

    An exact rational identity in (z, v) for physically realizable
    (A, B, C); evaluating it at conjugated points covers the starred
    form as well.
    """
    if model.j_ito is None:
        raise ValueError("identity requires a canonical field form")
    pz = z_domain_matrices(model, z)
    pv = z_domain_matrices(model, v)
    res = (
        pz.a_z @ theta
        + theta @ pv.a_z.T
        + (z * v - 1.0) * pz.b_z @ model.j_ito @ pv.b_z.T
    )
    return float(np.linalg.norm(res))


def vech(x: Matrix) -> np.ndarray:
    """The lower triangle of x, diagonal included, in the :func:`linalg.vech_indices` order."""
    return x[vech_indices(x.shape[0])]


def duplication_matrix(r: int) -> Matrix:
    """0/1 matrix mapping vech(M) to vec(M) for symmetric M of order r.

    Columns follow the :func:`vech` ordering; vec is column-major.
    """
    if r < 1:
        raise ValueError("order must be positive")
    rows, cols = vech_indices(r)
    ups = np.zeros((r * r, len(rows)))
    ups[cols * r + rows, np.arange(len(rows))] = 1.0
    ups[rows * r + cols, np.arange(len(rows))] = 1.0
    return ups


class _SymplecticCheck(NamedTuple):
    residual: float
    det: float


def symplectic_residual(s: Matrix, theta: Matrix) -> _SymplecticCheck:
    """Distance of S from the group preserving the form theta.

    Returns ||S theta S^T - theta|| together with det S; members have
    residual 0 and determinant 1.
    """
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    residual = float(np.linalg.norm(s @ theta @ s.T - theta))
    return _SymplecticCheck(residual, float(np.linalg.det(s)))
