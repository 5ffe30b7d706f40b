"""Steady-state covariance analysis of oscillator cascades.

The invariant covariance of the composite state solves the algebraic
Lyapunov equation A P + P A^T + B B^T = 0, in production by one direct
solve on the composite matrices; a block recursion that adds one
oscillator at a time is kept as an independent oracle. The Schur
complements of the leading blocks split the log-determinant of P into
per-oscillator terms, which is the quantity the gradient and balancing
modules act on. They are read off one Cholesky factor P = L L^T (the
complement before oscillator k is L_tt L_tt^T, L_tt the trailing block
of L); :func:`schur_complements` and :func:`schur_tail_step` form them
by subtraction, as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf

from .errors import NoConvergence, NonPositive, NotHurwitz, SingularLeadingBlock, SingularTheta
from .linalg import (
    CascadeSchur,
    Matrix,
    cascade_schur,
    dense_schur,
    is_hurwitz,
    solve_cascade_lyapunov,
    solve_cascade_sylvester,
    symmetric_part,
)
from .oscillator import CascadeModel, CascadeStack

PSD_TOL = 1e-9


@dataclass(frozen=True)
class SteadyStateResult:
    """Invariant covariance together with its Schur-complement split.

    ``chol`` is the lower Cholesky factor L of ``p_full``; ``pi_k[k]`` =
    L_kk L_kk^T is the conditional covariance of oscillator k given its
    predecessors, and L_tt L_tt^T, with L_tt the trailing block of L from
    k on, that of the whole tail. ``v_k[k]`` = 2 sum ln diag L_kk are the
    per-oscillator log-determinant contributions, summing to ``v_logdet``.
    """

    p_full: Matrix
    chol: Matrix
    pi_k: tuple[Matrix, ...]
    purity: float
    v_logdet: float
    v_k: tuple[float, ...]


def stationary_covariance(a: Matrix, b: Matrix) -> Matrix:
    """P solving A P + P A^T + B B^T = 0 by one certified Schur solve on
    a dense real Schur factor of A^T (:func:`dense_schur`), with a floor on
    its spectrum. The caller has checked that A is Hurwitz."""
    q = symmetric_part(b @ b.T)
    p = symmetric_part(solve_cascade_sylvester(dense_schur(a), slice(None), slice(None), q))
    floor = np.linalg.eigvalsh(p)[0]
    if floor < -PSD_TOL * max(1.0, np.linalg.norm(p)):
        raise NonPositive(f"covariance has eigenvalue {floor:.3e}")
    return p


def invariant_covariance_direct(cascade: CascadeModel) -> Matrix:
    """Steady-state covariance from one Lyapunov solve on the composite."""
    cascade.require_hurwitz()
    return stationary_covariance(cascade.a, cascade.b)


def log_det_stack(stack: CascadeStack, dims: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per copy of a perturbed cascade stack, ln det P (NaN where P is not
    positive definite) and the residual certificate (infinite where a
    diagonal block is not Hurwitz). The stable copies are solved together
    by :func:`solve_cascade_lyapunov` and factored by :func:`_cholesky_log_det`."""
    stable = stack.hurwitz.all(axis=0)
    a, b = stack.a, stack.b
    if not stable.all():  # compress keeps the stack-last layout, x[..., stable] does not
        a, b = (np.compress(stable, x, axis=-1) for x in (a, b))
    p, certificate = solve_cascade_lyapunov(a, np.einsum("ias,jas->ijs", b, b), dims)
    out_logdet = np.full(stable.shape, np.nan)
    out_logdet[stable] = _cholesky_log_det(p)
    out_certificate = np.full(stable.shape, np.inf)
    out_certificate[stable] = certificate
    return out_logdet, out_certificate


def _cholesky_log_det(p: np.ndarray) -> np.ndarray:
    """ln det P = 2 sum ln diag L of every copy of a stack-last (n, n, S)
    stack of symmetric P = L L^T, by a column Cholesky factorization that
    reads the lower triangle; NaN for a copy with a pivot that is not
    positive. The copies never mix, so a failed copy leaves the others as
    they are."""
    n = len(p)
    chol = np.empty_like(p)
    log_det = np.zeros(p.shape[2:])
    for j in range(n):
        col = p[j:, j] - np.einsum("iks,ks->is", chol[j:, :j], chol[j, :j])
        root = np.sqrt(np.where(col[0] > 0.0, col[0], np.nan))
        chol[j:, j] = col / root
        log_det += np.log(root)
    return 2.0 * log_det


def invariant_covariance_recursive(cascade: CascadeModel) -> Matrix:
    """Steady-state covariance built one oscillator at a time.

    Step k solves a Sylvester equation for the cross block between
    oscillator k and its predecessors, then a Lyapunov equation for the
    new diagonal block, both on sub-blocks of one structured Schur
    factor of the cascade. Agrees with the direct route to round-off.
    """
    cascade.require_hurwitz()
    return _recursive_covariance(cascade, cascade_schur(cascade.a, cascade.dims))


def _recursive_covariance(cascade: CascadeModel, factor: CascadeSchur) -> Matrix:
    """The recursion of :func:`invariant_covariance_recursive` on a given
    :func:`cascade_schur` factor of a stable cascade."""
    offs = np.cumsum((0, *cascade.dims)).tolist()
    p = np.zeros((cascade.n, cascade.n))
    for k, rk in enumerate(cascade.realizations):
        blk, lead = slice(offs[k], offs[k + 1]), slice(0, offs[k])
        c_lead = cascade.c[:, lead]
        if k:
            q_k = solve_cascade_sylvester(
                factor, blk, lead, rk.b @ (c_lead @ p[lead, lead] + cascade.b[lead].T)
            )
            p[blk, lead] = q_k
            p[lead, blk] = q_k.T
        # zero at k = 0, where the leading block is empty
        forcing = rk.b @ c_lead @ p[blk, lead].T
        p[blk, blk] = symmetric_part(
            solve_cascade_sylvester(factor, blk, blk, forcing + forcing.T + rk.b @ rk.b.T)
        )
    return p


@dataclass(frozen=True)
class SchurSplit:
    pi_k: tuple[Matrix, ...]
    pi_tail_k: tuple[Matrix, ...]


def schur_complements(p_full: Matrix, dims: Sequence[int]) -> SchurSplit:
    """Schur complements of the nested leading blocks of a covariance.

    For each block index k this removes the influence of blocks before k:
    the tail complement is P_tail - T Q^T with T the regression gain
    Q P_lead^{-1}, computed through a Cholesky factorization of the
    leading block, never an explicit inverse.
    """
    dims = tuple(int(d) for d in dims)
    n = p_full.shape[0]
    if sum(dims) != n:
        raise ValueError(f"block dims {dims} do not sum to order {n}")
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    pi_k: list[Matrix] = [p_full[: dims[0], : dims[0]].copy()]
    pi_tail: list[Matrix] = [p_full.copy()]
    for k in range(1, len(dims)):
        off = offsets[k]
        lead = p_full[:off, :off]
        q_tail = p_full[off:, :off]
        try:
            factor = cho_factor(lead, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SingularLeadingBlock(
                f"leading block of order {off} is not positive definite: {exc}"
            ) from exc
        t = cho_solve(factor, q_tail.T).T
        tail = p_full[off:, off:] - t @ q_tail.T
        tail = 0.5 * (tail + tail.T)
        pi_tail.append(tail)
        pi_k.append(tail[: dims[k], : dims[k]].copy())
    return SchurSplit(pi_k=tuple(pi_k), pi_tail_k=tuple(pi_tail))


def schur_tail_step(pi_tail_prev: Matrix, n_prev: int) -> Matrix:
    """One step of the tail recursion: complement out the leading block."""
    gamma = pi_tail_prev[:n_prev, :n_prev]
    beta = pi_tail_prev[n_prev:, :n_prev]
    alpha = pi_tail_prev[n_prev:, n_prev:]
    try:
        factor = cho_factor(gamma, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularLeadingBlock(
            f"leading block of order {n_prev} is not positive definite: {exc}"
        ) from exc
    out = alpha - beta @ cho_solve(factor, beta.T)
    return 0.5 * (out + out.T)


def purity_and_logdet(p: Matrix, theta: Matrix) -> tuple[float, float]:
    """Purity sqrt(det theta / det p) and V = ln det p.

    Both determinants go through triangular factorizations: Cholesky for
    the covariance, LU (through slogdet) for the commutation matrix.
    """
    chol = _cholesky(p, (len(p),))
    v = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return _purity(v, theta), v


def _purity(v: float, theta: Matrix) -> float:
    """sqrt(det theta) exp(-V / 2), det theta through slogdet."""
    sign, logdet_theta = np.linalg.slogdet(theta)
    if sign <= 0 or not np.isfinite(logdet_theta):
        raise SingularTheta("commutation matrix has nonpositive determinant")
    return float(np.exp(0.5 * (logdet_theta - v)))


def _cholesky(p_full: Matrix, dims: Sequence[int]) -> Matrix:
    """Lower Cholesky factor L of P by one ``dpotrf`` call.

    A failed pivot in any block of ``dims`` but the last means the
    leading block that ends with that oscillator is not positive definite
    (SingularLeadingBlock); one in the last block means P is not
    (NonPositive).
    """
    chol, info = dpotrf(np.asarray_chkfinite(p_full), lower=1, clean=1)
    if info > 0:
        offsets = np.cumsum(dims)
        k = int(np.searchsorted(offsets, info - 1, side="right"))
        if k < len(dims) - 1:
            raise SingularLeadingBlock(
                f"conditional covariance of oscillator {k} is not positive definite: "
                f"leading block of order {offsets[k]} fails at pivot {info}"
            )
        raise NonPositive(f"covariance is not positive definite: pivot {info} of {offsets[-1]}")
    return chol


def steady_state(cascade: CascadeModel, p_full: Matrix | None = None) -> SteadyStateResult:
    """Full steady-state summary of a cascade from one Cholesky factor.

    ``p_full`` is the invariant covariance to factor; None solves it by
    :func:`invariant_covariance_direct`, the P of every command. P = L L^T
    is factored once; Pi_k = L_kk L_kk^T, v_k = 2 sum ln diag L_kk and
    V = 2 sum ln diag L are read off L, so sum v_k = V holds by
    construction. Raises ValueError for a ``p_full`` that is not (n, n),
    SingularLeadingBlock naming the oscillator and the order when a
    leading block is not positive definite, NonPositive when only the
    last block fails.
    """
    if p_full is None:
        p_full = invariant_covariance_direct(cascade)
    elif np.shape(p_full) != (cascade.n, cascade.n):
        raise ValueError(f"p_full must have shape {(cascade.n, cascade.n)}, got {np.shape(p_full)}")
    chol = _cholesky(p_full, cascade.dims)
    blocks = [cascade.block(k) for k in range(cascade.n_oscillators)]
    log_diag = 2.0 * np.log(np.diag(chol))
    v = float(np.sum(log_diag))
    return SteadyStateResult(
        p_full=p_full,
        chol=chol,
        pi_k=tuple(chol[blk, blk] @ chol[blk, blk].T for blk in blocks),
        purity=_purity(v, cascade.theta),
        v_logdet=v,
        v_k=tuple(float(np.sum(log_diag[blk])) for blk in blocks),
    )


def frequency_domain_covariance(
    a: Matrix,
    b: Matrix,
    j_ito: Matrix,
) -> tuple[Matrix, Matrix]:
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
    stable, margin = is_hurwitz(a)
    if not stable:
        raise NotHurwitz(f"dynamics matrix has spectral abscissa {margin:.3e}")
    omega = np.eye(j_ito.shape[0]) + 1j * j_ito
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    lam_max = 100.0 * max(1.0, radius)
    eye = np.eye(len(a))
    b_c = b.astype(complex)

    def integrand(lam: float) -> np.ndarray:
        f = np.linalg.solve(1j * lam * eye - a, b_c)
        return (f @ omega @ f.conj().T) / (2.0 * np.pi)

    from scipy.integrate import quad_vec

    tol = 1e-8 * max(1.0, float(np.linalg.norm(b @ b.T)))
    total, _, info = quad_vec(integrand, -lam_max, lam_max, epsabs=tol, full_output=True)
    if not info.success:
        raise NoConvergence(f"frequency quadrature: {info.message}")
    # |lam| > L: F ~ B / (i lam), even term integrates to 1/(pi L)
    total += (b @ omega @ b.T) / (np.pi * lam_max)
    return np.real(total), np.imag(total)
