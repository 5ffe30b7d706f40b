"""Cascade model construction for open quantum harmonic oscillators.

Each oscillator is specified by a commutation matrix ``theta``
(antisymmetric, nonsingular), an energy matrix ``r_energy`` (symmetric)
and a coupling matrix ``m_coupling`` (m x n, with m the number of field
channels shared along the cascade). Its state-space realization is

    A = 2 theta (R + M^T J M),   B = 2 theta M^T,   C = 2 J M,

where J is the canonical antisymmetric form of order m. The series
connection feeds each oscillator with the output field of its
predecessor, which makes the composite dynamics matrix block lower
triangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import block_diag

from .errors import DimensionMismatch, NotHurwitz, SingularResolvent, SingularTheta
from .linalg import HURWITZ_TOL, Matrix, is_hurwitz, spectral_abscissa, symplectic_form

PR_SELF_CHECK_TOL = 1e-12


def default_theta(n: int) -> Matrix:
    """Commutation matrix of n/2 position-momentum pairs, (1/2) [[0, I], [-I, 0]]."""
    return 0.5 * symplectic_form(n)


@dataclass(frozen=True)
class OscillatorParams:
    """Energy and coupling data of a single oscillator."""

    theta: Matrix
    r_energy: Matrix
    m_coupling: Matrix

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def m(self) -> int:
        return self.m_coupling.shape[0]


@dataclass(frozen=True)
class OscillatorRealization:
    a: Matrix
    b: Matrix
    c: Matrix


def _validate_params(p: OscillatorParams) -> None:
    n = p.theta.shape[0]
    if p.theta.ndim != 2 or p.theta.shape != (n, n):
        raise DimensionMismatch(f"theta must be square, got {p.theta.shape}")
    if n % 2:
        raise DimensionMismatch(f"mode order must be even, got {n}")
    if np.linalg.norm(p.theta + p.theta.T) > 1e-12 * max(1.0, np.linalg.norm(p.theta)):
        raise DimensionMismatch("theta must be antisymmetric")
    if p.r_energy.shape != (n, n):
        raise DimensionMismatch(
            f"energy matrix shape {p.r_energy.shape} does not match mode order {n}"
        )
    if p.m_coupling.ndim != 2 or p.m_coupling.shape[1] != n:
        raise DimensionMismatch(
            f"coupling matrix shape {p.m_coupling.shape} does not match mode order {n}"
        )
    if p.m_coupling.shape[0] % 2:
        raise DimensionMismatch(
            f"field channel count must be even, got {p.m_coupling.shape[0]}"
        )
    # singular theta cannot encode commutation relations
    if np.linalg.matrix_rank(p.theta) < n:
        raise SingularTheta("commutation matrix is singular")


def realizability_residual(
    a: Matrix, b: Matrix, c: Matrix, theta: Matrix, j_ito: Matrix
) -> tuple[np.ndarray, np.ndarray]:
    """||A theta + theta A^T + B J B^T|| + ||theta C^T + B J|| and its scale
    max(1, ||A|| ||theta||, ||B||^2), per entry for stacks (S, ., .)."""
    at, bt, ct = (np.swapaxes(x, -1, -2) for x in (a, b, c))
    axes = (-2, -1)
    res = np.linalg.norm(a @ theta + theta @ at + b @ j_ito @ bt, axis=axes)
    res += np.linalg.norm(theta @ ct + b @ j_ito, axis=axes)
    scale = np.linalg.norm(a, axis=axes) * np.linalg.norm(theta)
    return res, np.maximum(1.0, np.maximum(scale, np.linalg.norm(b, axis=axes) ** 2))


def oscillator_realization(p: OscillatorParams, j_ito: Matrix) -> OscillatorRealization:
    """State-space matrices (A, B, C) of one oscillator.

    The physical-realizability identities
    A theta + theta A^T + B J B^T = 0 and theta C^T + B J = 0
    are verified to round-off as a built-in self-check.
    """
    _validate_params(p)
    if j_ito.shape != (p.m, p.m):
        raise DimensionMismatch(
            f"field form of order {j_ito.shape[0]} does not match {p.m} channels"
        )
    theta, r, m = p.theta, p.r_energy, p.m_coupling
    a = 2.0 * theta @ (r + m.T @ j_ito @ m)
    b = 2.0 * theta @ m.T
    c = 2.0 * j_ito @ m
    res, scale = realizability_residual(a, b, c, theta, j_ito)
    if res > PR_SELF_CHECK_TOL * scale:
        raise ArithmeticError(
            f"physical-realizability self-check failed: residual {res:.3e}"
        )
    return OscillatorRealization(a=a, b=b, c=c)


@dataclass(frozen=True)
class CascadeModel:
    """Composite series connection of oscillators.

    ``a``, ``b``, ``c`` are the composite state-space matrices, ``theta``
    the block-diagonal commutation matrix, and ``r_energy``,
    ``m_coupling`` the composite energy and coupling matrices satisfying
    a = 2 theta (r_energy + m_coupling^T J m_coupling). ``hurwitz``
    records the per-oscillator stability flags with spectral abscissas;
    stability is reported at assembly, never assumed.
    """

    params: tuple[OscillatorParams, ...]
    realizations: tuple[OscillatorRealization, ...]
    m: int
    j_ito: Matrix
    a: Matrix
    b: Matrix
    c: Matrix
    theta: Matrix
    r_energy: Matrix
    m_coupling: Matrix
    dims: tuple[int, ...]
    hurwitz: tuple[tuple[bool, float], ...]

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def n_oscillators(self) -> int:
        return len(self.params)

    def offset(self, k: int) -> int:
        """State offset of oscillator k (0-based)."""
        return int(sum(self.dims[:k]))

    def block(self, k: int) -> slice:
        """State index range of oscillator k (0-based)."""
        off = self.offset(k)
        return slice(off, off + self.dims[k])

    def all_hurwitz(self) -> bool:
        return all(flag for flag, _ in self.hurwitz)

    def require_hurwitz(self) -> None:
        """Raise NotHurwitz naming the first unstable oscillator (exact for a cascade)."""
        for k, (flag, margin) in enumerate(self.hurwitz):
            if not flag:
                raise NotHurwitz(f"oscillator {k} has spectral abscissa {margin:.3e}")


def composite_energy_coupling(
    oscillators: Sequence[OscillatorParams],
) -> tuple[Matrix, Matrix]:
    """Energy and coupling matrices of the composite oscillator.

    The energy matrix keeps the individual R_k on its diagonal blocks and
    carries M_j^T J M_k below the diagonal (minus that above), so that
    the composite dynamics matrix factors as 2 theta (R + M^T J M).
    """
    if not oscillators:
        raise DimensionMismatch("at least one oscillator required")
    m = oscillators[0].m
    for idx, p in enumerate(oscillators):
        if p.m != m:
            raise DimensionMismatch(
                f"oscillator {idx}: {p.m} field channels, expected {m}"
            )
    j = symplectic_form(m)
    dims = [p.n for p in oscillators]
    n = sum(dims)
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    r_full = np.zeros((n, n))
    for k, pk in enumerate(oscillators):
        rows = slice(offs[k], offs[k + 1])
        r_full[rows, rows] = pk.r_energy
        for jx in range(k + 1, len(oscillators)):
            blk = oscillators[jx].m_coupling.T @ j @ pk.m_coupling
            r_full[offs[jx] : offs[jx + 1], rows] = blk
            r_full[rows, offs[jx] : offs[jx + 1]] = blk.T
    m_full = np.hstack([p.m_coupling for p in oscillators])
    return r_full, m_full


def assemble_cascade(oscillators: Sequence[OscillatorParams]) -> CascadeModel:
    """Build the composite model from the per-oscillator data.

    The composite matrices follow the series-connection recursion: the
    dynamics matrix gains a new diagonal block A_k and a new block row
    B_k C_{k-1} of couplings to all predecessors, the input matrix
    stacks B_k, the output matrix concatenates C_k.
    """
    oscillators = tuple(oscillators)
    if not oscillators:
        raise DimensionMismatch("at least one oscillator required")
    m = oscillators[0].m
    j = symplectic_form(m)
    reals = tuple(oscillator_realization(p, j) for p in oscillators)
    dims = tuple(p.n for p in oscillators)

    a_full, b_full, c_full = reals[0].a, reals[0].b, reals[0].c
    for rk in reals[1:]:
        a_full = np.block(
            [
                [a_full, np.zeros((a_full.shape[0], rk.a.shape[0]))],
                [rk.b @ c_full, rk.a],
            ]
        )
        b_full = np.vstack([b_full, rk.b])
        c_full = np.hstack([c_full, rk.c])

    theta_full = block_diag(*[p.theta for p in oscillators])
    r_full, m_full = composite_energy_coupling(oscillators)

    scale = max(1.0, np.linalg.norm(a_full) * np.linalg.norm(theta_full))
    identity_res = np.linalg.norm(
        a_full - 2.0 * theta_full @ (r_full + m_full.T @ j @ m_full)
    )
    pr_res, _ = realizability_residual(a_full, b_full, c_full, theta_full, j)
    if identity_res + pr_res > PR_SELF_CHECK_TOL * scale:
        raise ArithmeticError(
            f"composite realizability self-check failed: residual {identity_res + pr_res:.3e}"
        )

    flags = tuple(is_hurwitz(rk.a) for rk in reals)
    return CascadeModel(
        params=oscillators,
        realizations=reals,
        m=m,
        j_ito=j,
        a=a_full,
        b=b_full,
        c=c_full,
        theta=theta_full,
        r_energy=r_full,
        m_coupling=m_full,
        dims=dims,
        hurwitz=flags,
    )


class CascadeStack(NamedTuple):
    """Composite a (S, n, n) and b (S, n, m) of S cascades, with the spectral
    abscissa (S, N) of every diagonal block and its Hurwitz flag (exact for
    a cascade)."""

    a: np.ndarray
    b: np.ndarray
    abscissa: np.ndarray
    hurwitz: np.ndarray


def perturbed_cascade_stack(cascade: CascadeModel, de: Sequence[np.ndarray]) -> CascadeStack:
    """Composite (A, B) of S perturbed copies of a cascade, without assembly.

    ``de[k]`` (S, d_k) perturbs oscillator k by [vech dR_k; vec dM_k], the
    layout of :meth:`GradientSet.d_vector`. A_kk = 2 Theta_k (R_k + M_k^T J
    M_k), B_k = 2 Theta_k M_k^T and A_jk = B_j C_k below the diagonal, with
    C_k = 2 J M_k. Raises ArithmeticError if a perturbed oscillator fails
    the self-check of :func:`oscillator_realization`.
    """
    j, m = cascade.j_ito, cascade.m
    stack = de[0].shape[0]
    a = np.zeros((stack, cascade.n, cascade.n))
    b = np.zeros((stack, cascade.n, m))
    c = np.zeros((stack, m, cascade.n))
    abscissa = np.empty((stack, cascade.n_oscillators))
    for k, params in enumerate(cascade.params):
        bk, nk = cascade.block(k), params.n
        d_r = nk * (nk + 1) // 2
        # vech order: column j of the lower triangle, rows i >= j
        cols, rows = np.triu_indices(nk)
        dr = np.zeros((stack, nk, nk))
        dr[:, rows, cols] = de[k][:, :d_r]
        dr[:, cols, rows] = de[k][:, :d_r]
        m_k = params.m_coupling + de[k][:, d_r:].reshape(stack, nk, m).transpose(0, 2, 1)
        m_kt = m_k.transpose(0, 2, 1)
        a_kk = 2.0 * params.theta @ (params.r_energy + dr + m_kt @ j @ m_k)
        b_k = 2.0 * params.theta @ m_kt
        c_k = 2.0 * j @ m_k
        res, scale = realizability_residual(a_kk, b_k, c_k, params.theta, j)
        if np.any(res > PR_SELF_CHECK_TOL * scale):
            raise ArithmeticError(
                f"physical-realizability self-check failed for oscillator {k}: "
                f"residual {np.max(res):.3e}"
            )
        abscissa[:, k] = spectral_abscissa(a_kk)
        a[:, bk, bk] = a_kk
        b[:, bk] = b_k
        c[:, :, bk] = c_k
        a[:, bk, : bk.start] = b_k @ c[:, :, : bk.start]
    return CascadeStack(a=a, b=b, abscissa=abscissa, hurwitz=abscissa < -HURWITZ_TOL)


def transfer_eval(
    realization: OscillatorRealization, s: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices F(s) = (sI - A)^{-1} B and G(s) = C F(s) + I.

    F maps the driving field to the oscillator variables, G to the output
    field. On the imaginary axis G satisfies G J G* = J.
    """
    a, b, c = realization.a, realization.b, realization.c
    n = a.shape[0]
    m = b.shape[1]
    resolvent = s * np.eye(n) - a
    try:
        f = np.linalg.solve(resolvent, b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"s = {s} is in the spectrum: {exc}") from exc
    if not np.all(np.isfinite(f)):
        raise SingularResolvent(f"resolvent overflow at s = {s}")
    res = np.linalg.norm(resolvent @ f - b)
    if res > 1e-8 * max(1.0, np.linalg.norm(f) * np.linalg.norm(resolvent)):
        raise SingularResolvent(f"resolvent solve lost accuracy at s = {s}")
    g = c @ f + np.eye(m)
    return f, g


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


def composite_transfer_resolvent(cascade: CascadeModel, s: complex) -> np.ndarray:
    """Same map as :func:`composite_transfer_stack` via the composite resolvent."""
    n = cascade.n
    resolvent = s * np.eye(n) - cascade.a
    try:
        f = np.linalg.solve(resolvent, cascade.b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"s = {s} is in the composite spectrum: {exc}") from exc
    if not np.all(np.isfinite(f)):
        raise SingularResolvent(f"composite resolvent overflow at s = {s}")
    return f


def transform_params(
    params: OscillatorParams, s_k: Matrix
) -> OscillatorParams:
    """Symplectic change of oscillator variables X -> S X.

    Maps R -> S^{-T} R S^{-1} and M -> M S^{-1}; the commutation matrix
    and all transfer functions are unchanged.
    """
    s_inv = np.linalg.inv(s_k)
    return OscillatorParams(
        theta=params.theta,
        r_energy=(s_inv.T @ params.r_energy @ s_inv),
        m_coupling=params.m_coupling @ s_inv,
    )
