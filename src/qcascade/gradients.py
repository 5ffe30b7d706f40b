"""Gradients of the steady-state log-determinant V = ln det P.

V is differentiated with respect to the energy matrix R_k (symmetric
direction, gradient ``rho``) and the coupling matrix M_k (gradient
``mu``) of each oscillator. Sign convention: rho_k = +dV/dR_k and
mu_k = -dV/dM_k under the Frobenius inner product, so that
dV = <rho_k, dR_k> - <mu_k, dM_k>. V is invariant
under reflecting any coupling matrix (M_k -> -M_k conjugates the
cascade by a signature matrix), so the coupling gradient is defined
only up to this orientation; the package fixes it as above, and every
route here (direct, recursive, finite differences) reports it the
same way. :meth:`GradientSet.d_vector` is dV/de_k in the layout of
:func:`parameter_positions`, and its inverse unpacks the oracle's slopes.

Three independent routes are implemented: a direct formula through the
observability Gramian of the whole cascade, the same formula with P and
the Gramian from the forward and reverse block-column sweeps, and a
finite difference oracle. First-order covariance perturbations, from the
exact derivative of the realization, are also exposed for the
Fisher-information analysis; they and the oracle run chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .covariance import (
    _cholesky,
    _keep,
    _lapack_solve,
    _recursive_covariance,
    invariant_covariance_direct,
    log_det_stack,
    steady_state,
)
from .errors import NonPositive, NotHurwitz, SolverSingular, _prefixed
from .linalg import (
    RESIDUAL_TOL,
    CascadeSchur,
    Matrix,
    antisymmetric_part,
    block_slices,
    block_upper_mask,
    cascade_schur,
    certified,
    dpotrs,
    solve_cascade_lyapunov,
    solve_cascade_sylvester,
    symmetric_part,
    vech_indices,
)
from .oscillator import CascadeModel, CascadeStack, parameter_positions, parameter_sizes, perturbed_cascade_stack

#: most entries in any (n, n, S) array of a chunk; the oracle's +/- stack has 2 copies per probe, a response 1
PROBE_ENTRIES = 1 << 20


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
        """dV/de_k, so dV = d_vector(k)^T de_k: [rho_k | -mu_k^T] added into the places
        :func:`parameter_positions` gives its entries, the adjoint of that gather; an
        off-diagonal energy entry has two places, and mu_k = -dV/dM_k."""
        rho, mu = self.rho[k], self.mu[k]
        at = parameter_positions(len(rho), len(mu))
        return np.bincount(at.ravel(), weights=np.hstack([rho, -mu.T]).ravel())

    def transformed_pair(self, k: int, s: Matrix) -> tuple[Matrix, Matrix]:
        """(S rho_k S^T, mu_k S^T): oscillator k's gradients after X_k -> S X_k."""
        return s @ self.rho[k] @ s.T, self.mu[k] @ s.T

    @staticmethod
    def _unpack(d: np.ndarray, n: int, m: int) -> tuple[Matrix, Matrix]:
        """Inverse of :meth:`d_vector`: (rho, mu) of an oscillator of order n whose d_vector
        is d, its gather divided by each entry's number of places, the coupling half negated."""
        at = parameter_positions(n, m)
        both = d[at] / np.bincount(at.ravel())[at]
        return both[:, :n], -both[:, n:].T


def observability_gramian_and_hankelian(cascade: CascadeModel) -> tuple[Matrix, Matrix]:
    """Gramian Q solving A^T Q + Q A + P^{-1} = 0 of a cascade and the product Q P.

    P and its Cholesky factor L, from which P^{-1} is solved by ``dpotrs``,
    are read off the record of :func:`steady_state`, which refuses an
    unstable cascade. Q comes from one certified transposed solve on the
    one-block :func:`cascade_schur` factor of A^T. Q P is similar to the
    symmetric P^{1/2} Q P^{1/2}, so its spectrum is real and nonnegative.
    """
    state = steady_state(cascade)
    p_inv = symmetric_part(_lapack_solve(dpotrs, state.chol, np.eye(cascade.n), lower=1))
    whole = slice(0, cascade.n)
    factor = cascade_schur(cascade.a, (cascade.n,))
    q = symmetric_part(solve_cascade_sylvester(factor, whole, whole, p_inv, transpose=True))
    return q, q @ state.p_full


def _gradients_from_adjoints(cascade: CascadeModel, h: Matrix, bq: Matrix) -> GradientSet:
    """(rho, mu) from the adjoints of the realization: H = (dV/dA)/2, of which
    the block lower triangle is read, and bq = (dV/dB)^T/2 (B^T Q for a Gramian Q).

    rho_k is minus four times the symmetric part of theta_k H_kk; mu_k combines
    the input-side term 4 bq_k theta_k with the coupling terms of the blocks
    of H in column k (rows after k) and in row k (columns before k). Each
    term is one composite product, masked by :func:`block_upper_mask`:
    Theta H on the diagonal blocks, M Theta times the strictly lower blocks
    H_low of H, and (M H_low^T) Theta; rho_k and mu_k are read off the
    products on oscillator k's blocks.
    """
    upper = block_upper_mask(cascade.dims)
    lower = upper.T
    theta, m_coupling = cascade.theta, cascade.m_coupling
    th = np.where(upper | lower, 0.0, theta @ h)  # theta_k H_kk on the diagonal blocks
    h_low = np.where(lower, h, 0.0)
    rho = -4.0 * symmetric_part(th)
    acc = m_coupling @ antisymmetric_part(th) + (m_coupling @ theta) @ h_low
    acc += (m_coupling @ h_low.T) @ theta
    mu = -(4.0 * bq @ theta + 8.0 * cascade.j_ito @ acc)
    return GradientSet(
        rho=tuple(rho[blk, blk] for blk in cascade.blocks),
        mu=tuple(mu[:, blk] for blk in cascade.blocks),
    )


def purity_gradients_direct(cascade: CascadeModel) -> GradientSet:
    """Gradients from one Gramian of the whole cascade, once per cascade:
    H = Q P and B^T Q, mapped to (rho, mu) by :func:`_gradients_from_adjoints`."""
    if "gradients" in cascade.derived:
        return cascade.derived["gradients"]
    q, h = observability_gramian_and_hankelian(cascade)
    grads = _gradients_from_adjoints(cascade, h, cascade.b.T @ q)
    return _keep(cascade, "gradients", grads, *grads.rho, *grads.mu)


def purity_gradients_recursive(cascade: CascadeModel) -> GradientSet:
    """Gradients in three steps on one structured Schur factor of the cascade:
    P by the column sweep of :func:`invariant_covariance_recursive`, the
    Gramian Q by its reverse sweep :func:`_recursive_gramian`, then the direct
    route's map of Q P and B^T Q, so the two routes differ only in how P and Q
    are solved."""
    cascade.require_hurwitz()
    factor = cascade_schur(cascade.a, cascade.dims)
    p = _recursive_covariance(cascade, factor)
    q = _recursive_gramian(cascade, factor, p)
    return _gradients_from_adjoints(cascade, q @ p, cascade.b.T @ q)


def _recursive_gramian(cascade: CascadeModel, factor: CascadeSchur, p: Matrix) -> Matrix:
    """Q solving A^T Q + Q A + P^{-1} = 0 by the reverse sweep (Giles, 2008) of
    ``covariance._recursive_covariance``, on its factor and its P: as the
    Lyapunov operator is linear, Q is that sweep's adjoint seeded with P^{-1}
    (``dpotrs`` on the :func:`_cholesky` factor, which refuses a leading block
    that is not positive definite). Column k, rows k..N-1, is one certified
    solve of A_tt^T L + L A_kk + Z' = 0, Z' P^{-1}'s column k plus the adjoint
    of the accumulator T, in rank-m accumulators for the rows after the column
    (G) and its own rows (W). Q is the symmetric part of the L's placed in its lower block columns."""
    n, b = cascade.n, cascade.b
    f = _lapack_solve(dpotrs, _cholesky(p, cascade.dims), np.eye(n), lower=1)
    lbar, g, w = np.zeros((n, n)), np.zeros((n, cascade.m)), np.zeros((n, cascade.m))
    for rk, blk in zip(reversed(cascade.realizations), reversed(cascade.blocks)):
        trail, d = slice(blk.start, n), blk.stop - blk.start
        zbar = f[trail, blk] + f[blk, trail].T
        zbar[:d] = symmetric_part(f[blk, blk])
        zbar[d:] += (g[blk.stop :] + w[blk.stop :]) @ rk.c
        lam = solve_cascade_sylvester(factor, trail, blk, zbar, transpose=True)
        lbar[trail, blk] = lam
        g[trail] += lam @ rk.b
        w[blk] = lam.T @ b[trail]
    return symmetric_part(lbar)


def _probe_blocks(cascade: CascadeModel) -> tuple[slice, ...]:
    """Probe range of every oscillator: oscillator k has one probe per entry
    of [vech dR_k; vec dM_k]."""
    return block_slices([sum(parameter_sizes(nk, cascade.m)) for nk in cascade.dims])


def _probe_chunks(cascade: CascadeModel, copies: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) of every chunk of probes, in order: no (n, n, S) array of a stack
    of ``copies`` per probe (the oracle's 2, a response's 1) exceeds ``PROBE_ENTRIES``."""
    total = _probe_blocks(cascade)[-1].stop
    # equal chunks: a last chunk of one probe would change bits, as einsum
    # sums a copy axis of length 1 in another order
    count = -(-total // max(1, PROBE_ENTRIES // (copies * cascade.n**2)))
    bounds = [total * i // count for i in range(count + 1)]
    return zip(bounds[:-1], bounds[1:])


def _fd_values(stack: CascadeStack, labels: list[str]) -> np.ndarray:
    """V of every copy of a signed stack; the first copy without one raises."""
    logdet, certificate = log_det_stack(stack)
    failed = np.flatnonzero(np.isnan(logdet))
    if failed.size:
        t = int(failed[0])
        label = labels[t // 2]
        unstable = np.flatnonzero(~stack.hurwitz[:, t])
        if unstable.size:
            raise NotHurwitz(
                f"perturbation of {label} leaves the stability domain: oscillator "
                f"{unstable[0]} has spectral abscissa {stack.abscissa[unstable[0], t]:.3e}"
            )
        error = NonPositive if certified(certificate[t]) else SolverSingular
        raise error(f"perturbation of {label}: residual certificate {certificate[t]:.3e}")
    return logdet


def gradient_fd_oracle(cascade: CascadeModel, h: float = 1e-5) -> GradientSet:
    """Central finite differences of V, matching the gradient convention.

    The central-difference slopes along the entries of de_k are dV/de_k,
    unpacked by the inverse of :meth:`GradientSet.d_vector`: an
    off-diagonal energy entry moves a symmetric pair, so its slope is
    halved, and coupling slopes are negated, mu_k = -dV/dM_k. The +/- probes
    of all oscillators are one signed stack and one block solve per chunk
    of :func:`_probe_chunks`; a failing probe raises naming its entry.
    """
    m, probes = cascade.m, _probe_blocks(cascade)
    labels = []
    for k, nk in enumerate(cascade.dims):
        labels += [f"R_{k}[{i},{j}]" for i, j in zip(*vech_indices(nk))]
        labels += [f"M_{k}[{row},{col}]" for col in range(nk) for row in range(m)]
    values = np.empty(2 * probes[-1].stop)
    with _prefixed("finite-difference probes"):
        for lo, hi in _probe_chunks(cascade, 2):
            # copies 2(t - lo) and 2(t - lo) + 1 move the entry of probe t by +h and -h
            signed = np.kron(np.eye(hi - lo, probes[-1].stop, lo), [[h], [-h]])
            stack = perturbed_cascade_stack(cascade, [signed[:, blk] for blk in probes])
            values[2 * lo : 2 * hi] = _fd_values(stack, labels[lo:hi])
    slopes = (values[0::2] - values[1::2]) / (2.0 * h)
    pairs = [GradientSet._unpack(slopes[blk], nk, m) for blk, nk in zip(probes, cascade.dims)]
    rho, mu = zip(*pairs)
    return GradientSet(rho=rho, mu=mu)


def covariance_derivatives(cascade: CascadeModel) -> tuple[np.ndarray, ...]:
    """First-order covariance responses along the parameter basis.

    For oscillator k the directions run over the entries of de_k = [vech
    dR_k; vec dM_k], the layout of :meth:`GradientSet.d_vector`; entry k of
    the result stacks them, shape (d_k, n, n). Each response solves the
    Lyapunov equation A dP + dP A^T + 2 Sym(dA P + B dB^T) = 0, one batched
    block solve per chunk of :func:`_probe_chunks`, one copy per probe, into
    one result, on the base cascade's diagonal blocks, B and C passed once,
    certified at ``RESIDUAL_TOL`` per oscillator. dA and dB are exact: A = 2
    Theta (R + W o M^T J M) and B = 2 Theta M^T, W 1 on the diagonal blocks, 2
    below them and 0 above, so dA = 2 Theta (dR + W o (Y - Y^T)), Y = dM^T J M,
    and dB = 2 Theta dM^T. P is :func:`invariant_covariance_direct`.
    """
    p_full, probes = invariant_covariance_direct(cascade), _probe_blocks(cascade)
    n, m, total = cascade.n, cascade.m, probes[-1].stop
    at = np.full((n, n + m), -1)  # the probe that moves each entry of [R | M^T], -1 for none
    for blk, pb, nk in zip(cascade.blocks, probes, cascade.dims):
        at[blk, np.r_[blk, n : n + m]] = pb.start + parameter_positions(nk, m)
    upper = block_upper_mask(cascade.dims)
    weight = np.where(upper, 0.0, 1.0 + upper.T)[:, None, :]
    theta2, jm = 2.0 * cascade.theta, cascade.j_ito @ cascade.m_coupling
    *diag, b, c = (x[..., None] for x in (*(r.a for r in cascade.realizations), cascade.b, cascade.c))
    dp, certificate = np.empty((n, n, total)), np.empty(total)
    with _prefixed("covariance responses"):
        for lo, hi in _probe_chunks(cascade, 1):
            # unit directions [dR | dM^T] with the copy axis in the middle, (n, S, n + m):
            # each product below is one BLAS call over all copies
            unit = (at[:, None, :] == np.arange(lo, hi)[:, None]).astype(float)
            y = (unit[..., n:].reshape(-1, m) @ jm).reshape(n, -1, n)  # Y = dM^T J M
            da = theta2 @ (unit[..., :n] + weight * (y - y.transpose(2, 1, 0))).reshape(n, -1)
            db = theta2 @ unit[..., n:].reshape(n, -1)
            half = (da.reshape(-1, n) @ p_full + db.reshape(-1, m) @ cascade.b.T).reshape(n, -1, n)
            force = (half + half.transpose(2, 1, 0)).transpose(0, 2, 1)
            dp[..., lo:hi], certificate[lo:hi] = solve_cascade_lyapunov(diag, b, c, force)
    for k, blk in enumerate(probes):
        worst = float(np.max(certificate[blk]))
        if not certified(worst):
            raise SolverSingular(
                f"covariance response of oscillator {k}: residual certificate "
                f"{worst:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
    return tuple(np.moveaxis(dp[..., blk], -1, 0) for blk in probes)
