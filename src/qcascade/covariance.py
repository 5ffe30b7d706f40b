"""Steady-state covariance analysis of oscillator cascades.

The invariant covariance of the composite state solves the algebraic
Lyapunov equation A P + P A^T + B B^T = 0, in production by one direct
solve on the composite matrices, a triangular solve on the one-block
:func:`cascade_schur` factor of A^T; a block recursion that adds one
oscillator at a time is kept as an independent oracle. The Schur
complements of the leading blocks split the log-determinant of P into
per-oscillator terms, which is the quantity the gradient and balancing
modules act on. They are read off one Cholesky factor P = L L^T (the
complement before oscillator k is L_tt L_tt^T, L_tt the trailing block
of L); :func:`schur_complements` forms them by subtraction, as the
test oracle. Every solve with L goes through :func:`_lapack_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf

from .errors import NonPositive, SingularLeadingBlock, SingularTheta, SolverSingular
from .linalg import (
    CascadeSchur,
    Matrix,
    block_slices,
    cascade_schur,
    solve_cascade_lyapunov,
    solve_cascade_sylvester,
    symmetric_part,
)
from .oscillator import CascadeModel, CascadeStack

PSD_TOL = 1e-9


@dataclass(frozen=True)
class SteadyStateResult:
    """Invariant covariance together with its Schur-complement split.

    With L of :func:`covariance_factor`, ``pi_k[k]`` = L_kk L_kk^T is the
    conditional covariance of oscillator k given its predecessors, and L_tt
    L_tt^T, with L_tt the trailing block of L from k on, that of the whole
    tail. ``v_k[k]`` = 2 sum ln diag L_kk are the per-oscillator
    log-determinant contributions, summing to ``v_logdet``.
    """

    p_full: Matrix
    pi_k: tuple[Matrix, ...]
    purity: float
    v_logdet: float
    v_k: tuple[float, ...]


def stationary_covariance(a: Matrix, b: Matrix) -> Matrix:
    """P solving A P + P A^T + B B^T = 0 by one certified Schur solve on the
    one-block :func:`cascade_schur` factor of A^T, with a floor on its
    spectrum. The caller has checked that A is Hurwitz."""
    q = symmetric_part(b @ b.T)
    p = symmetric_part(solve_cascade_sylvester(cascade_schur(a, (len(a),)), slice(None), slice(None), q))
    floor = np.linalg.eigvalsh(p)[0]
    if not admissible(floor, p):
        raise NonPositive(f"covariance has eigenvalue {floor:.3e}")
    return p


def admissible(margin: float, p: Matrix) -> bool:
    """The admissibility rule, the one reader of ``PSD_TOL``: the least eigenvalue
    ``margin`` of P, or of P + i theta, is at least -PSD_TOL max(1, ||P||_F)."""
    return bool(margin >= -PSD_TOL * max(1.0, float(np.linalg.norm(p))))


def _keep(cascade: CascadeModel, key: str, value, *arrays: np.ndarray):
    """``value``, stored on the cascade under ``key``; the ``arrays`` it holds
    become read-only, so no caller can change what the next one reads."""
    for x in arrays:
        x.flags.writeable = False
    cascade.derived[key] = value
    return value


def invariant_covariance_direct(cascade: CascadeModel) -> Matrix:
    """Steady-state covariance from one Lyapunov solve on the composite, once per cascade."""
    if "p" in cascade.derived:
        return cascade.derived["p"]
    cascade.require_hurwitz()
    p = stationary_covariance(cascade.a, cascade.b)
    return _keep(cascade, "p", p, p)


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
    p = np.zeros((cascade.n, cascade.n))
    for k, (rk, blk) in enumerate(zip(cascade.realizations, cascade.blocks)):
        lead = slice(0, blk.start)
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


def schur_complements(p_full: Matrix, dims: Sequence[int]) -> tuple[Matrix, ...]:
    """Schur complements Pi_k of the nested leading blocks of a covariance.

    For each block index k this removes the influence of blocks before k:
    the tail complement is P_tail - T Q^T with T the regression gain
    Q P_lead^{-1}, computed through a Cholesky factorization of the
    leading block, never an explicit inverse; Pi_k is its leading block.
    """
    dims = tuple(int(d) for d in dims)
    n = p_full.shape[0]
    if sum(dims) != n:
        raise ValueError(f"block dims {dims} do not sum to order {n}")
    blocks = block_slices(dims)
    pi_k: list[Matrix] = [p_full[: dims[0], : dims[0]].copy()]
    for k in range(1, len(dims)):
        off = blocks[k].start
        q_tail = p_full[off:, :off]
        try:
            lead = cho_factor(p_full[:off, :off], lower=True)
        except np.linalg.LinAlgError as exc:
            raise SingularLeadingBlock(
                f"leading block of order {off} is not positive definite: {exc}"
            ) from exc
        t = cho_solve(lead, q_tail.T).T
        tail = p_full[off:, off:] - t @ q_tail.T
        tail = 0.5 * (tail + tail.T)
        pi_k.append(tail[: dims[k], : dims[k]].copy())
    return tuple(pi_k)


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
        blocks = block_slices(dims)
        k = next(k for k, blk in enumerate(blocks) if info <= blk.stop)
        if k < len(dims) - 1:
            raise SingularLeadingBlock(
                f"conditional covariance of oscillator {k} is not positive definite: "
                f"leading block of order {blocks[k].stop} fails at pivot {info}"
            )
        raise NonPositive(f"covariance is not positive definite: pivot {info} of {blocks[-1].stop}")
    return chol


def _lapack_solve(routine, factor: Matrix, rhs: Matrix, **flags) -> Matrix:
    """x from a LAPACK ``dtrtrs`` or ``dpotrs`` call on a triangular factor, such
    as a :func:`_cholesky` factor; SolverSingular on a non-finite operand or a
    nonzero ``info``."""
    if not (np.isfinite(factor).all() and np.isfinite(rhs).all()):
        raise SolverSingular(f"{routine.__name__}: an operand has a non-finite entry")
    x, info = routine(factor, rhs, **flags)
    if info != 0:
        raise SolverSingular(f"{routine.__name__}: info {info}")
    return x


def covariance_factor(cascade: CascadeModel) -> Matrix:
    """Lower Cholesky factor L of P = L L^T by :func:`_cholesky`, once per cascade; no purity."""
    if "chol" in cascade.derived:
        return cascade.derived["chol"]
    chol = _cholesky(invariant_covariance_direct(cascade), cascade.dims)
    return _keep(cascade, "chol", chol, chol)


def steady_state(cascade: CascadeModel) -> SteadyStateResult:
    """Full steady-state summary of a cascade from one Cholesky factor, once per cascade.

    P = L L^T is :func:`invariant_covariance_direct` and L is
    :func:`covariance_factor`; Pi_k = L_kk L_kk^T, v_k = 2 sum ln diag L_kk
    and V = 2 sum ln diag L are read off L, so sum v_k = V holds by
    construction. Raises SingularLeadingBlock naming the oscillator and the
    order when a leading block is not positive definite, NonPositive when
    only the last block fails.
    """
    if "state" in cascade.derived:
        return cascade.derived["state"]
    p_full, chol = invariant_covariance_direct(cascade), covariance_factor(cascade)
    log_diag = 2.0 * np.log(np.diag(chol))
    v = float(np.sum(log_diag))
    state = SteadyStateResult(
        p_full=p_full,
        pi_k=tuple(chol[blk, blk] @ chol[blk, blk].T for blk in cascade.blocks),
        purity=_purity(v, cascade.theta),
        v_logdet=v,
        v_k=tuple(float(np.sum(log_diag[blk])) for blk in cascade.blocks),
    )
    return _keep(cascade, "state", state, *state.pi_k)

