"""Steady-state covariance analysis of oscillator cascades.

The invariant covariance of the composite state solves the algebraic
Lyapunov equation A P + P A^T + B B^T = 0 by one certified triangular solve
on a real Schur factor of A^T (:func:`_covariance`). In production that is
the one-block :func:`cascade_schur` factor, one QR iteration on the whole
matrix. The second route, :func:`invariant_covariance_recursive`, is the
same solve on a second factorization of A^T, the structured factor with one
QR iteration per oscillator; it is kept as an independent oracle, and under
its name because the benchmark traces it. The Schur complements of the
leading blocks split the log-determinant of P into per-oscillator terms,
which is the quantity the gradient and balancing modules act on. They are
read off one Cholesky factor P = L L^T (the complement before oscillator k
is L_tt L_tt^T, L_tt the trailing block of L): the factor that certified
P's floor, which :func:`invariant_covariance_direct` keeps beside P and
:func:`steady_state` puts in one record per cascade. :func:`schur_complements`
forms them by subtraction, as the test oracle. Every solve with L goes through
:func:`_lapack_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonPositive, SingularLeadingBlock, SingularTheta, SolverSingular
from .linalg import (
    CascadeSchur,
    Matrix,
    block_slices,
    cascade_schur,
    certified,
    dpotrf,
    solve_cascade_lyapunov,
    solve_cascade_sylvester,
)
from .oscillator import CascadeModel, CascadeStack

PSD_TOL = 1e-9


@dataclass(frozen=True)
class SteadyStateResult:
    """The steady state of a cascade, read off one Cholesky factor P = L L^T.

    ``chol`` is L, lower triangular. L_kk L_kk^T is the conditional
    covariance of oscillator k given its predecessors, and L_tt L_tt^T, with
    L_tt the trailing block of L from k on, that of the whole tail.
    ``v_k[k]`` = 2 sum ln diag L_kk are the per-oscillator log-determinant
    contributions, summing to ``v_logdet``, and ``purity`` is
    sqrt(det theta) exp(-V / 2).
    """

    p_full: Matrix
    chol: Matrix
    purity: float
    v_logdet: float
    v_k: tuple[float, ...]


def stationary_covariance(a: Matrix, b: Matrix) -> tuple[Matrix, Matrix | None]:
    """P by :func:`_covariance` on the one-block :func:`cascade_schur` factor of
    A^T, with a floor on its spectrum, and the :func:`_cholesky` factor L of P
    that certifies the floor; L is None for an admissible P whose
    factorization fails, one singular to working precision. The caller has
    checked that A is Hurwitz.

    A factorization that succeeds is exact for some P + E with ||E||_2 at
    most of order n^2 u ||P||_2, u the unit round-off (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, ch. 10), so by Weyl's
    inequality the least eigenvalue of P is at least -||E||_2: about 2e-12
    ||P|| at order 128, far inside the floor -PSD_TOL max(1, ||P||_F) of
    :func:`admissible`. Only when the factorization fails is that eigenvalue
    computed, by one eigensolve, to apply :func:`admissible` to it.
    """
    p = _covariance(cascade_schur(a, (len(a),)), b)
    try:
        return p, _cholesky(p, (len(p),))
    except NonPositive:
        floor = np.linalg.eigvalsh(p)[0]
    if not admissible(floor, p):
        raise NonPositive(f"covariance has eigenvalue {floor:.3e}")
    return p, None


def _covariance(factor: CascadeSchur, b: Matrix) -> Matrix:
    """P solving A P + P A^T + B B^T = 0 by one certified solve on a
    :func:`cascade_schur` factor of A^T, one block or one per oscillator.
    Both B B^T (one ``syrk`` in numpy) and the solve's P are bitwise symmetric."""
    return solve_cascade_sylvester(factor, b @ b.T)


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
    """Steady-state covariance from one Lyapunov solve on the composite, once per
    cascade. The Cholesky factor that certified its floor in
    :func:`stationary_covariance` (a factorization that succeeds bounds P's
    least eigenvalue below by O(n^2 u ||P||), no eigensolve needed) is kept
    beside it under ``chol``, None for an admissible P that it could not
    factor, so that :func:`steady_state` reads L instead of factoring P again."""
    if "p" in cascade.derived:
        return cascade.derived["p"]
    cascade.require_hurwitz()
    p, chol = stationary_covariance(cascade.a, cascade.b)
    _keep(cascade, "chol", chol, *(() if chol is None else (chol,)))
    return _keep(cascade, "p", p, p)


def log_det_stack(stack: CascadeStack) -> tuple[np.ndarray, np.ndarray]:
    """Per copy of a perturbed cascade stack, ln det P and the residual
    certificate (inf where a diagonal block is not Hurwitz); ln det P is NaN
    unless the copy is stable, its P positive definite and its certificate
    :func:`certified`. The stable copies are solved together by
    :func:`solve_cascade_lyapunov` and factored in place by :func:`_cholesky_log_det`."""
    stable = stack.hurwitz.all(axis=0)
    solved = stack if stable.all() else stack.compress(stable)
    p, certificate = solve_cascade_lyapunov(solved.diag, solved.b, solved.c)
    out_logdet = np.full(stable.shape, np.nan)
    out_logdet[stable] = np.where(certified(certificate), _cholesky_log_det(p), np.nan)
    out_certificate = np.full(stable.shape, np.inf)
    out_certificate[stable] = certificate
    return out_logdet, out_certificate


def _cholesky_log_det(p: np.ndarray) -> np.ndarray:
    """ln det P = 2 sum ln diag L of every copy of a stack-last (n, n, S)
    stack of symmetric P = L L^T, by a column Cholesky factorization in
    place: it reads the lower triangle of P and writes L over it, so a
    chunk holds one (n, n, S) stack, not two. The caller owns P and gets
    it back with its lower triangle overwritten. NaN for a copy with a
    pivot that is not positive. The copies never mix, so a failed copy
    leaves the others as they are."""
    n = len(p)
    log_det = np.zeros(p.shape[2:])
    for j in range(n):
        col = p[j:, j] - np.einsum("iks,ks->is", p[j:, :j], p[j, :j])
        root = np.sqrt(np.where(col[0] > 0.0, col[0], np.nan))
        p[j:, j] = col / root
        log_det += np.log(root)
    return 2.0 * log_det


def invariant_covariance_recursive(cascade: CascadeModel) -> Matrix:
    """Steady-state covariance by :func:`_covariance` on the structured Schur
    factor, one QR iteration per oscillator: the direct route's solve on a
    second factorization of A^T. Agrees with the direct route to round-off."""
    cascade.require_hurwitz()
    return _covariance(cascade_schur(cascade.a, cascade.dims), cascade.b)


def schur_complements(p_full: Matrix, dims: Sequence[int]) -> tuple[Matrix, ...]:
    """Schur complements Pi_k of the nested leading blocks of a covariance.

    For each block index k this removes the influence of blocks before k:
    the tail complement is P_tail - T Q^T with T the regression gain
    Q P_lead^{-1}, computed through a Cholesky factorization of the
    leading block, never an explicit inverse; Pi_k is its leading block.
    """
    from scipy.linalg import cho_factor, cho_solve

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


def _purity(v: float, theta: Matrix) -> float:
    """sqrt(det theta) exp(-V / 2), det theta through slogdet."""
    sign, logdet_theta = np.linalg.slogdet(theta)
    if sign <= 0 or not np.isfinite(logdet_theta):
        raise SingularTheta("commutation matrix has nonpositive determinant")
    return float(np.exp(0.5 * (logdet_theta - v)))


def _cholesky(p_full: Matrix, dims: Sequence[int]) -> Matrix:
    """Lower Cholesky factor L of P by one ``dpotrf`` call.

    A non-finite entry of P is refused (SolverSingular, naming it). A failed
    pivot in any block of ``dims`` but the last means the leading block that
    ends with that oscillator is not positive definite (SingularLeadingBlock);
    one in the last block means P is not (NonPositive).
    """
    p_full = np.asarray(p_full)
    bad = np.argwhere(~np.isfinite(p_full))
    if len(bad):
        i, j = bad[0].tolist()
        raise SolverSingular(f"dpotrf: covariance entry ({i}, {j}) is {p_full[i, j]}, not finite")
    chol, info = dpotrf(p_full, lower=1, clean=1)
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


def steady_state(cascade: CascadeModel) -> SteadyStateResult:
    """The one steady-state record of a cascade, built once and kept.

    P is :func:`invariant_covariance_direct`, and L its :func:`_cholesky`
    factor, the one that certified P's floor (its success bounds P's least
    eigenvalue below by O(n^2 u ||P||)) and was kept beside it, read-only: P
    is factored once per cascade. v_k = 2 sum ln diag L_kk and
    V = 2 sum ln diag L are read off L, so sum v_k = V holds by construction,
    and the purity is :func:`_purity` of V. A P that passed its floor without
    a factor is singular to working precision; factored again on the blocks
    of the cascade, it raises SingularLeadingBlock naming the oscillator and
    the order when a leading block is not positive definite, NonPositive
    naming the pivot when only the last block fails.
    """
    if "state" in cascade.derived:
        return cascade.derived["state"]
    p_full = invariant_covariance_direct(cascade)
    chol = cascade.derived["chol"]
    if chol is None:
        chol = _cholesky(p_full, cascade.dims)
    log_diag = 2.0 * np.log(np.diag(chol))
    v = float(np.sum(log_diag))
    state = SteadyStateResult(
        p_full=p_full,
        chol=chol,
        purity=_purity(v, cascade.theta),
        v_logdet=v,
        v_k=tuple(float(np.sum(log_diag[blk])) for blk in cascade.blocks),
    )
    return _keep(cascade, "state", state, chol)
