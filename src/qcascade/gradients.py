"""Gradients of the steady-state log-determinant V = ln det P.

V is differentiated with respect to the energy matrix R_k (symmetric
direction, gradient ``rho``) and the coupling matrix M_k (gradient
``mu``) of each oscillator. Sign convention: rho_k = +dV/dR_k and
mu_k = -dV/dM_k under the Frobenius inner product. V is invariant
under reflecting any coupling matrix (M_k -> -M_k conjugates the
cascade by a signature matrix), so the coupling gradient is defined
only up to this orientation; the package fixes it as above, and every
route here (direct, recursive, finite differences) reports it the
same way.

Three independent routes are implemented: a direct formula through the
observability Gramian of the whole cascade, a recursive formula that
works tail by tail through the Schur complements, and a finite
difference oracle. First-order covariance perturbations are also
exposed for the Fisher-information analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrs, dtrtrs

from .covariance import (
    _cholesky,
    _recursive_covariance,
    invariant_covariance_direct,
    log_det_stack,
)
from .errors import NonPositive, NotHurwitz, NotSymplectic, SolverSingular
from .linalg import (
    RESIDUAL_TOL,
    Matrix,
    antisymmetric_part,
    cascade_schur,
    dense_schur,
    solve_cascade_lyapunov,
    solve_cascade_sylvester,
    symmetric_part,
    symplectic_residual,
    vech,
)
from .oscillator import CascadeModel, CascadeStack, perturbed_cascade_stack

SYMPLECTIC_TOL = 1e-9


@dataclass(frozen=True)
class GradientSet:
    """Per-oscillator gradients of V.

    ``rho[k]`` is symmetric of the oscillator order, ``mu[k]`` has the
    coupling shape (field channels x oscillator order) and carries the
    package orientation mu_k = -dV/dM_k.
    """

    rho: tuple[Matrix, ...]
    mu: tuple[Matrix, ...]

    def d_vector(self, k: int) -> np.ndarray:
        """Stacked [vech rho_k; vec mu_k], columns first."""
        return np.concatenate([vech(self.rho[k]), self.mu[k].reshape(-1, order="F")])


def observability_gramian_and_hankelian(
    a: Matrix, p_full: Matrix
) -> tuple[Matrix, Matrix]:
    """Gramian Q solving A^T Q + Q A + P^{-1} = 0 and the product Q P.

    Q comes from one certified transposed solve on a dense real Schur
    factor of A^T (:func:`dense_schur`). ``a`` must be Hurwitz; for a
    cascade the caller establishes this with
    :meth:`CascadeModel.require_hurwitz`. Q P is similar to the
    symmetric P^{1/2} Q P^{1/2}, so its spectrum is real and nonnegative.
    """
    chol = _cholesky(p_full, (len(p_full),))
    p_inv = symmetric_part(cho_solve((chol, True), np.eye(len(p_full))))
    whole = slice(0, len(p_full))
    q = symmetric_part(solve_cascade_sylvester(dense_schur(a), whole, whole, p_inv, transpose=True))
    return q, q @ p_full


def _mu_coupling_terms(
    cascade: CascadeModel, k: int, off: int, h_cols: Matrix, m_theta: Matrix
) -> Matrix:
    """Common 8 J (...) part of the coupling gradient of oscillator k at
    state offset ``off``.

    ``h_cols`` holds the first n_k columns of the relevant Hankelian-like
    matrix, rows running over oscillators k..N; ``m_theta`` is the
    composite [M_j Theta_j]_j, so the sum over j > k is one product.
    """
    nk = cascade.dims[k]
    acc = cascade.params[k].m_coupling @ antisymmetric_part(
        cascade.params[k].theta @ h_cols[:nk, :]
    )
    acc += m_theta[:, off + nk :] @ h_cols[nk:, :]
    return 8.0 * cascade.j_ito @ acc


def purity_gradients_direct(
    cascade: CascadeModel, p_full: Matrix | None = None
) -> GradientSet:
    """Gradients from one Gramian of the whole cascade.

    rho_k is minus four times the symmetric part of theta_k H_kk, with H
    the product Q P restricted to the (k, k) block; mu_k combines the
    input-side term B^T Q theta_k with coupling corrections from all
    blocks of H interacting with oscillator k, each side summed by one
    product with the composite coupling.
    """
    cascade.require_hurwitz()
    if p_full is None:
        p_full = invariant_covariance_direct(cascade)
    q, h = observability_gramian_and_hankelian(cascade.a, p_full)
    m_theta = cascade.m_coupling @ cascade.theta
    rho: list[Matrix] = []
    mu: list[Matrix] = []
    for k in range(cascade.n_oscillators):
        blk, off = cascade.block(k), cascade.offset(k)
        theta_k = cascade.params[k].theta
        rho.append(-4.0 * symmetric_part(theta_k @ h[blk, blk]))
        mu_k = 4.0 * cascade.b.T @ q[:, blk] @ theta_k
        mu_k += _mu_coupling_terms(cascade, k, off, h[off:, blk], m_theta)
        mu_k += 8.0 * cascade.j_ito @ (cascade.m_coupling[:, :off] @ h[blk, :off].T) @ theta_k
        mu.append(-mu_k)
    return GradientSet(rho=tuple(rho), mu=tuple(mu))


def purity_gradients_recursive(cascade: CascadeModel) -> GradientSet:
    """Gradients from tail subproblems, one oscillator at a time.

    For each k the tail covariance (the Schur complement of the leading
    block) obeys its own Lyapunov equation with an effective input
    matrix; its Gramian, together with one Sylvester correction that
    accounts for the dependence of the leading covariance on oscillator
    k, reproduces the direct gradients. All of it is read off the one
    Cholesky factor P = L L^T of the recursive P (the route of
    :func:`invariant_covariance_recursive`), the ``dpotrf`` factor that
    :func:`steady_state` takes, with its refusal naming the oscillator:
    the tail covariance is L_tt L_tt^T, the effective input L_tt Z_t with
    Z = L^{-1} B, and a leading-block solve is triangular on a slice of
    L. As the inverse tail covariance is the trailing block of P^{-1} and
    A^T is block upper triangular, every tail Gramian is the trailing
    block of one Gramian with forcing P^{-1}. All solves, those of P
    included, run on sub-blocks of one structured Schur factor of the
    cascade, and the triangular ones are direct LAPACK calls.
    """
    cascade.require_hurwitz()
    factor = cascade_schur(cascade.a, cascade.dims)
    p = _recursive_covariance(cascade, factor)
    chol = _cholesky(p, cascade.dims)
    whole = slice(0, cascade.n)
    p_inv = symmetric_part(_lapack_solve(dpotrs, chol, np.eye(cascade.n), lower=1))
    q_full = symmetric_part(solve_cascade_sylvester(factor, whole, whole, p_inv, transpose=True))
    z = _lapack_solve(dtrtrs, chol, cascade.b, lower=1)
    m_theta = cascade.m_coupling @ cascade.theta
    offs = np.cumsum((0, *cascade.dims)).tolist()
    rho: list[Matrix] = []
    mu: list[Matrix] = []
    for k in range(cascade.n_oscillators):
        off, nk, theta_k = offs[k], cascade.dims[k], cascade.params[k].theta
        l_tail = chol[off:, off:]
        b_tilde = l_tail @ z[off:]
        q_tail = q_full[off:, off:]
        h_cols = q_tail @ (l_tail[:, :nk] @ l_tail[:nk, :nk].T)
        mu_k = 4.0 * b_tilde.T @ q_tail[:, :nk] @ theta_k
        if k > 0:
            # P_lead^{-1} B_lead = L_lead^{-T} Z_lead, solved as the upper
            # triangular system of L_lead^T (a leading block of the Fortran-
            # ordered L is not contiguous), the call solve_triangular makes
            w = _lapack_solve(dtrtrs, chol[:off, :off].T, z[:off] @ b_tilde.T)
            y = solve_cascade_sylvester(
                factor, slice(off, cascade.n), slice(0, off), q_tail @ w.T, transpose=True
            )
            h_cols = h_cols - y @ p[off : off + nk, :off].T
            c_p = cascade.c[:, :off] @ p[:off, :off] + cascade.b[:off].T
            mu_k -= 4.0 * c_p @ y[:nk, :].T @ theta_k
        rho.append(-4.0 * symmetric_part(theta_k @ h_cols[:nk, :]))
        mu_k += _mu_coupling_terms(cascade, k, off, h_cols, m_theta)
        mu.append(-mu_k)
    return GradientSet(rho=tuple(rho), mu=tuple(mu))


def _lapack_solve(routine, factor: Matrix, rhs: Matrix, **flags) -> Matrix:
    """x from a LAPACK ``dtrtrs`` or ``dpotrs`` call on a triangular factor;
    SolverSingular on a non-finite operand or a nonzero ``info``."""
    if not (np.isfinite(factor).all() and np.isfinite(rhs).all()):
        raise SolverSingular(f"{routine.__name__}: an operand has a non-finite entry")
    x, info = routine(factor, rhs, **flags)
    if info != 0:
        raise SolverSingular(f"{routine.__name__}: info {info}")
    return x


def _signed_stack(cascade: CascadeModel, k: int, basis: np.ndarray) -> CascadeStack:
    """Copies 2t and 2t + 1 move oscillator k by +basis[t] and -basis[t],
    rows being perturbations [vech dR_k; vec dM_k]."""
    count = 2 * len(basis)
    de = [np.zeros((count, n * (n + 1) // 2 + cascade.m * n)) for n in cascade.dims]
    de[k] = np.stack([basis, -basis], axis=1).reshape(count, -1)
    return perturbed_cascade_stack(cascade, de)


def _fd_values(cascade: CascadeModel, stack: CascadeStack, labels: list[str]) -> np.ndarray:
    """V of every copy of a signed stack; the first failing copy raises."""
    logdet, certificate = log_det_stack(stack, cascade.dims)
    failed = np.flatnonzero(~(certificate <= RESIDUAL_TOL) | np.isnan(logdet))
    if failed.size:
        t = int(failed[0])
        label = labels[t // 2]
        unstable = np.flatnonzero(~stack.hurwitz[:, t])
        if unstable.size:
            raise NotHurwitz(
                f"perturbation of {label} leaves the stability domain: oscillator "
                f"{unstable[0]} has spectral abscissa {stack.abscissa[unstable[0], t]:.3e}"
            )
        error = NonPositive if certificate[t] <= RESIDUAL_TOL else SolverSingular
        raise error(
            f"perturbation of {label}: residual certificate {certificate[t]:.3e}, "
            f"ln det P {logdet[t]:.6g} (NaN: P not positive definite)"
        )
    return logdet


def gradient_fd_oracle(cascade: CascadeModel, h: float = 1e-5) -> GradientSet:
    """Central finite differences of V, matching the gradient convention.

    Off-diagonal energy entries are perturbed in symmetric pairs, so the
    difference quotient carries a factor 1/(4h) there and 1/(2h) on the
    diagonal and for coupling entries. Coupling slopes are reported with
    the package orientation mu_k = -dV/dM_k. The probes of one oscillator
    are one batched block solve; a failing probe raises naming its entry.
    """
    rho: list[Matrix] = []
    mu: list[Matrix] = []
    m = cascade.m
    for k, nk in enumerate(cascade.dims):
        # energy pairs (i, j), j <= i, row by row; vech_pos locates them in vech
        rows, cols = np.tril_indices(nk)
        d_r = len(rows)
        vech_pos = cols * nk - cols * (cols - 1) // 2 + rows - cols
        basis = h * np.eye(d_r + m * nk)[np.concatenate([vech_pos, np.arange(d_r, d_r + m * nk)])]
        labels = [f"R_{k}[{i},{j}]" for i, j in zip(rows, cols)]
        labels += [f"M_{k}[{row},{col}]" for col in range(nk) for row in range(m)]
        values = _fd_values(cascade, _signed_stack(cascade, k, basis), labels)
        slope = (values[0::2] - values[1::2]) / (2.0 * h)
        rho_k = np.zeros((nk, nk))
        rho_k[rows, cols] = slope[:d_r] / np.where(rows == cols, 1.0, 2.0)
        rho_k[cols, rows] = rho_k[rows, cols]
        rho.append(rho_k)
        mu.append(-slope[d_r:].reshape(nk, m).T)
    return GradientSet(rho=tuple(rho), mu=tuple(mu))


def transform_gradients(
    gradients: GradientSet,
    transforms: Sequence[Matrix],
    thetas: Sequence[Matrix],
) -> GradientSet:
    """Gradients after the symplectic change of variables X_k -> S_k X_k.

    The energy gradient maps by congruence S rho S^T, the coupling
    gradient by mu S^T. A transform whose symplectic residual exceeds
    ``SYMPLECTIC_TOL`` relative to theta raises NotSymplectic.
    """
    if len(transforms) != len(gradients.rho):
        raise ValueError("one transform per oscillator required")
    for k, (s, theta) in enumerate(zip(transforms, thetas)):
        check = symplectic_residual(s, theta)
        if check.residual > SYMPLECTIC_TOL * max(1.0, float(np.linalg.norm(theta))):
            raise NotSymplectic(
                f"transform {k} has symplectic residual {check.residual:.3e}"
            )
    rho = tuple(s @ r @ s.T for s, r in zip(transforms, gradients.rho))
    mu = tuple(u @ s.T for s, u in zip(transforms, gradients.mu))
    return GradientSet(rho=rho, mu=mu)


def covariance_derivatives(
    cascade: CascadeModel, p_full: Matrix | None = None
) -> tuple[np.ndarray, ...]:
    """First-order covariance responses along the parameter basis.

    For oscillator k the directions run over the lower-triangular energy
    entries (symmetric pairs, diagonal included, columns first) followed
    by the coupling entries in column-major order, matching
    :meth:`GradientSet.d_vector`; entry k of the result stacks them,
    shape (d_k, n, n). Each response solves the Lyapunov equation
    A dP + dP A^T + 2 Sym(dA P + B dB^T) = 0, all of one oscillator in
    one batched block solve certified at ``RESIDUAL_TOL``. dA and dB are
    half-differences of the closed-form blocks of
    :func:`perturbed_cascade_stack` along +d and -d, exact because A is
    quadratic and B linear in (R_k, M_k).
    """
    cascade.require_hurwitz()
    if p_full is None:
        p_full = invariant_covariance_direct(cascade)
    out: list[np.ndarray] = []
    for k, nk in enumerate(cascade.dims):
        stack = _signed_stack(cascade, k, np.eye(nk * (nk + 1) // 2 + cascade.m * nk))
        da = 0.5 * (stack.a[..., 0::2] - stack.a[..., 1::2])
        db = 0.5 * (stack.b[..., 0::2] - stack.b[..., 1::2])
        half = np.einsum("ils,lj->ijs", da, p_full) + np.einsum("ias,ja->ijs", db, cascade.b)
        force = half + half.transpose(1, 0, 2)
        dp, certificate = solve_cascade_lyapunov(
            np.broadcast_to(cascade.a[..., None], force.shape), force, cascade.dims
        )
        worst = float(np.max(certificate))
        if not worst <= RESIDUAL_TOL:
            raise SolverSingular(
                f"covariance response of oscillator {k}: residual certificate "
                f"{worst:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
        out.append(np.moveaxis(dp, -1, 0))
    return tuple(out)
