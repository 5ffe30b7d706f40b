"""Cascade model construction for open quantum harmonic oscillators.

Each oscillator is specified by a commutation matrix ``theta``
(antisymmetric, nonsingular), an energy matrix ``r_energy`` (symmetric)
and a coupling matrix ``m_coupling`` (m x n, with m the number of field
channels shared along the cascade). Its state-space realization is

    A = 2 theta (R + M^T J M),   B = 2 theta M^T,   C = 2 J M,

where J is the canonical antisymmetric form of order m. The series
connection feeds each oscillator with the output field of its
predecessor, which makes the composite dynamics matrix block lower
triangular, with one diagonal block per oscillator on the index ranges
of :attr:`CascadeModel.blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NotHurwitz, SingularTheta
from .linalg import (
    Matrix, block_slices, block_upper_mask, hurwitz_flag, resolvent_solve, spectral_abscissa,
    symplectic_form, vech_to_symmetric,
)

PR_SELF_CHECK_TOL = 1e-12
#: most entries K S n_k m the series builder forms at once: larger temporaries are
#: handed back to the system when freed and fault in again on every call
BATCH_ENTRIES = 1 << 15


def parameter_sizes(n: int, m: int) -> tuple[int, int]:
    """Entry counts (n(n+1)/2, m n) of the halves of the parameter error
    de = [vech dR; vec dM] of an oscillator of order n on m field channels."""
    return n * (n + 1) // 2, m * n


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


def _validate_shapes(p: OscillatorParams, k: int) -> None:
    n = p.theta.shape[0]
    if p.theta.shape != (n, n):
        raise DimensionMismatch(f"oscillator {k}: theta must be square, got {p.theta.shape}")
    if n % 2:
        raise DimensionMismatch(f"oscillator {k}: mode order must be even, got {n}")
    if p.r_energy.shape != (n, n):
        raise DimensionMismatch(f"oscillator {k}: energy matrix shape {p.r_energy.shape}, mode order {n}")
    if p.m_coupling.ndim != 2 or p.m_coupling.shape[1] != n:
        raise DimensionMismatch(f"oscillator {k}: coupling matrix shape {p.m_coupling.shape}, mode order {n}")
    if p.m_coupling.shape[0] % 2:
        raise DimensionMismatch(f"oscillator {k}: field channel count {p.m_coupling.shape[0]} is odd")


def _check_thetas(thetas: Sequence[Matrix]) -> None:
    """Every theta_k antisymmetric (DimensionMismatch) and nonsingular
    (SingularTheta, as it cannot encode commutation relations), by one
    batched norm per mode order and one batched ``matrix_rank`` over the
    thetas that differ from :func:`default_theta`, nonsingular by
    construction; the error names the first failing oscillator."""
    asym, singular = np.zeros((2, len(thetas)), dtype=bool)
    for n in dict.fromkeys(len(t) for t in thetas):
        ks = [k for k, t in enumerate(thetas) if len(t) == n]
        stack = np.stack([thetas[k] for k in ks])
        size = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
        asym[ks] = np.linalg.norm(stack + stack.swapaxes(1, 2), axis=(1, 2)) > 1e-12 * size
        given = ~(stack == default_theta(n)).all(axis=(1, 2))
        if given.any():
            singular[np.compress(given, ks)] = np.linalg.matrix_rank(stack[given]) < n
    failed = np.flatnonzero(asym | singular)
    if failed.size:
        k = int(failed[0])
        if asym[k]:
            raise DimensionMismatch(f"oscillator {k}: theta must be antisymmetric")
        raise SingularTheta(f"oscillator {k}: commutation matrix is singular")


def realizability_residual(
    a: Matrix, b: Matrix, c: Matrix, theta: Matrix, j_ito: Matrix
) -> tuple[np.ndarray, np.ndarray]:
    """||A theta + theta A^T + B J B^T|| + ||theta C^T + B J|| and its scale
    max(1, ||A|| ||theta||, ||B||^2), per copy for stack-last (., ., ...)
    arrays; theta broadcasts over the trailing stack axes."""

    def times_t(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # x y^T of every copy; one BLAS product when there is no copy axis
        if x.ndim == y.ndim == 2:
            return x @ y.T
        return np.einsum("il...,jl...->ij...", x, y)

    def norm(x: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("ij...,ij...->...", x, x))

    bj = times_t(b, j_ito.T)
    res = times_t(a, theta.swapaxes(0, 1)) + times_t(theta, a) + times_t(bj, b)
    bj += times_t(theta, c)
    scale = norm(a) * norm(theta)
    return norm(res) + norm(bj), np.maximum(1.0, np.maximum(scale, norm(b) ** 2))


def _realizable(res: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The one realizability rule, elementwise; an infinite scale certifies nothing."""
    return (res <= PR_SELF_CHECK_TOL * scale) & (scale < np.inf)


def _block_diag(mats: Sequence[Matrix]) -> Matrix:
    """Block-diagonal matrix of square blocks, in a tenth of scipy's block_diag time."""
    blocks = block_slices([len(x) for x in mats])
    out = np.zeros((blocks[-1].stop, blocks[-1].stop))
    for x, blk in zip(mats, blocks):
        out[blk, blk] = x
    return out


def _copies(x: np.ndarray) -> np.ndarray:
    """Stack-first view (..., S, r, c) of a stack-last array (..., r, c, S) for
    ``matmul``, with no data moved. On one copy (S = 1) the product is the
    2-D BLAS product itself, so assembly reproduces the series formulas to
    the bit."""
    return x.swapaxes(-1, -2).swapaxes(-2, -3)


def _write_series(units: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack-last composite A (n, n, S), B (n, m, S) and C (m, n, S) of a
    series connection of units from unit k's A_k (n_k, n_k, S), B_k (n_k, m, S)
    and C_k (m, n_k, S) in ``units[k]``: A_k on the diagonal, A_jk = B_j C_k
    below it, B_k stacked, C_k concatenated.
    """
    blocks = block_slices([len(a_k) for a_k, _, _ in units])
    (_, m, stack), n = units[0][1].shape, blocks[-1].stop
    a, b, c = np.zeros((n, n, stack)), np.zeros((n, m, stack)), np.zeros((m, n, stack))
    for (a_k, b_k, c_k), bk in zip(units, blocks):
        a[bk, bk], b[bk], c[:, bk] = a_k, b_k, c_k
        np.matmul(_copies(b_k), _copies(c[:, : bk.start]), out=_copies(a[bk, : bk.start]))
    return a, b, c


def _series_connection(
    oscillators: Sequence[OscillatorParams], j_ito: Matrix, de: Sequence[np.ndarray] | None = None
) -> tuple[np.ndarray, ...]:
    """Series connection of S perturbed copies of a chain of oscillators.

    ``de[k]`` (S, d_k) perturbs oscillator k by [vech dR_k; vec dM_k], the layout
    of :meth:`GradientSet.d_vector`; None is one unperturbed copy. A_kk = 2 Theta_k
    (R_k + M_k^T J M_k), B_k = 2 Theta_k M_k^T and C_k = 2 J M_k are formed
    stack-last, as contiguous (n_k, n_k, S), (n_k, m, S) and (m, n_k, S) blocks,
    for batches of oscillators of one order and pass the realizability
    self-check (ArithmeticError naming the oscillator). Returns the stacks of
    :func:`_write_series`, the spectral abscissas (N, S) of the diagonal blocks
    and their :func:`hurwitz_flag` on the scale max|A_kk| of each block and copy.
    """
    if de is None:
        de = [np.zeros((1, sum(parameter_sizes(p.n, p.m)))) for p in oscillators]
    stack, m = de[0].shape[0], j_ito.shape[0]
    blocks: list = [None] * len(oscillators)
    abscissa = np.empty((len(oscillators), stack))
    hurwitz = np.empty((len(oscillators), stack), dtype=bool)
    for n_k in dict.fromkeys(p.n for p in oscillators):
        same = [k for k, p in enumerate(oscillators) if p.n == n_k]
        size = max(1, BATCH_ENTRIES // (stack * n_k * m))
        # position in vech of every entry of dR: the symmetric matrix of vech 0, 1, 2, ...
        vech_at = vech_to_symmetric(np.arange(parameter_sizes(n_k, m)[0]), n_k).astype(np.intp)
        for ks in (same[i : i + size] for i in range(0, len(same), size)):
            # oscillator axis first and copy axis last, (K, ., ., S); a product
            # with a fixed left factor is one matrix product over all copies
            theta = np.stack([oscillators[k].theta for k in ks])
            theta2 = 2.0 * theta
            d = np.ascontiguousarray(np.stack([de[k].T for k in ks]))
            # vec dM_k, columns first, is vec dM_k^T rows first
            m_kt = d[:, -m * n_k :].reshape(len(ks), n_k, m, stack)
            m_kt = m_kt + np.stack([oscillators[k].m_coupling.T for k in ks])[..., None]
            m_k = np.ascontiguousarray(m_kt.swapaxes(1, 2))
            b_k = (theta2 @ m_kt.reshape(len(ks), n_k, -1)).reshape(m_kt.shape)
            c_k = (2.0 * j_ito @ m_k.reshape(len(ks), m, -1)).reshape(m_k.shape)
            r = np.stack([oscillators[k].r_energy for k in ks])[..., None] + d[:, vech_at]
            mjm = np.matmul(_copies(np.einsum("kias,ab->kibs", m_kt, j_ito)), _copies(m_k))
            r += mjm.transpose(0, 2, 3, 1)
            a_kk = (theta2 @ r.reshape(len(ks), n_k, -1)).reshape(r.shape)
            res, scale = realizability_residual(
                *(x.transpose(1, 2, 0, 3) for x in (a_kk, b_k, c_k)),
                theta.transpose(1, 2, 0)[..., None],
                j_ito,
            )
            passed = _realizable(res, scale)
            if not passed.all():
                i, copy = np.argwhere(~passed)[0]
                raise ArithmeticError(
                    f"physical-realizability self-check failed for oscillator {ks[i]}: "
                    f"residual {res[i, copy]:.3e}, scale {scale[i, copy]:.3e}"
                )
            abscissa[ks] = spectral_abscissa(a_kk.transpose(0, 3, 1, 2))
            # max|A_kk| as max(max A_kk, -min A_kk): no temporary of the batch's size
            largest = np.maximum(a_kk.max(axis=(1, 2)), -a_kk.min(axis=(1, 2)))
            hurwitz[ks] = hurwitz_flag(abscissa[ks], largest)
            for i, k in enumerate(ks):
                blocks[k] = (a_kk[i], b_k[i], c_k[i])
    return (*_write_series(blocks), abscissa, hurwitz)


def oscillator_realization(p: OscillatorParams) -> OscillatorRealization:
    """State-space matrices (A, B, C) of one oscillator on the canonical field
    form J of its channel count, the one-oscillator case of the series
    builder, whose self-check verifies A theta + theta A^T + B J B^T = 0 and
    theta C^T + B J = 0 to round-off."""
    _validate_shapes(p, 0)
    _check_thetas([p.theta])
    a, b, c, _, _ = _series_connection([p], symplectic_form(p.m))
    return OscillatorRealization(a=a[..., 0], b=b[..., 0], c=c[..., 0])


@dataclass(frozen=True)
class CascadeModel:
    """Composite series connection of oscillators.

    ``a``, ``b``, ``c`` are the composite state-space matrices, ``theta``
    the block-diagonal commutation matrix, and ``r_energy``,
    ``m_coupling`` the composite energy and coupling matrices satisfying
    a = 2 theta (r_energy + m_coupling^T J m_coupling). ``blocks`` holds
    the state index range of every oscillator and ``realizations`` its
    (A_kk, B_k, C_k), read off the composite on those ranges. ``hurwitz``
    records the per-oscillator stability flags with spectral abscissas;
    stability is reported at assembly, never assumed. ``realizability`` is the
    (residual, scale) assembly certified. ``derived`` keeps P, its factor and
    the gradients, each written once by its owner function.
    """

    params: tuple[OscillatorParams, ...]
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
    realizability: tuple[float, float]
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def n_oscillators(self) -> int:
        return len(self.params)

    @cached_property
    def blocks(self) -> tuple[slice, ...]:
        return block_slices(self.dims)

    @cached_property
    def realizations(self) -> tuple[OscillatorRealization, ...]:
        return tuple(OscillatorRealization(self.a[k, k], self.b[k], self.c[:, k]) for k in self.blocks)

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
    the composite dynamics matrix factors as 2 theta (R + M^T J M), the
    identity the composite self-check of :func:`assemble_cascade` tests.
    """
    if not oscillators:
        raise DimensionMismatch("at least one oscillator required")
    m = oscillators[0].m
    for idx, p in enumerate(oscillators):
        if p.m != m:
            raise DimensionMismatch(f"oscillator {idx}: {p.m} field channels, expected {m}")
    m_full = np.hstack([p.m_coupling for p in oscillators])
    below = block_upper_mask([p.n for p in oscillators]).T
    cross = np.where(below, m_full.T @ symplectic_form(m) @ m_full, 0.0)
    r_full = _block_diag([p.r_energy for p in oscillators]) + cross + cross.T
    return r_full, m_full


def assemble_cascade(oscillators: Sequence[OscillatorParams]) -> CascadeModel:
    """Build the composite model from the per-oscillator data by one call of
    the series-connection builder; the per-oscillator Hurwitz flags come from
    the spectral abscissas of the diagonal blocks, exact for a cascade. The
    composite must pass :func:`_realizable` on the pair of :func:`realizability_residual`,
    with the residual of A = 2 theta (R + M^T J M) added, and the model keeps that pair."""
    oscillators = tuple(oscillators)
    for k, p in enumerate(oscillators):
        _validate_shapes(p, k)
    _check_thetas([p.theta for p in oscillators])
    r_full, m_full = composite_energy_coupling(oscillators)
    j = symplectic_form(m_full.shape[0])
    a_full, b_full, c_full, abscissa, hurwitz = _series_connection(oscillators, j)
    # one unperturbed copy: unpack the stack axis
    a_full, b_full, c_full = a_full[..., 0], b_full[..., 0], c_full[..., 0]
    theta_full = _block_diag([p.theta for p in oscillators])

    pr_res, scale = realizability_residual(a_full, b_full, c_full, theta_full, j)
    res = np.linalg.norm(a_full - 2.0 * theta_full @ (r_full + m_full.T @ j @ m_full)) + pr_res
    if not _realizable(res, scale):
        raise ArithmeticError(
            f"composite realizability self-check failed: residual {res:.3e}, scale {scale:.3e}"
        )

    return CascadeModel(
        params=oscillators,
        m=j.shape[0],
        j_ito=j,
        a=a_full,
        b=b_full,
        c=c_full,
        theta=theta_full,
        r_energy=r_full,
        m_coupling=m_full,
        dims=tuple(p.n for p in oscillators),
        hurwitz=tuple(zip(hurwitz[:, 0].tolist(), abscissa[:, 0].tolist())),
        realizability=(float(pr_res), float(scale)),
    )


class CascadeStack(NamedTuple):
    """Composite a (n, n, S) and b (n, m, S) of S cascades, stack-last with the
    copy axis contiguous, with the spectral abscissa (N, S) of every diagonal
    block and its Hurwitz flag (exact for a cascade)."""

    a: np.ndarray
    b: np.ndarray
    abscissa: np.ndarray
    hurwitz: np.ndarray


def perturbed_cascade_stack(cascade: CascadeModel, de: Sequence[np.ndarray]) -> CascadeStack:
    """Composite (A, B) of S perturbed copies of a cascade, without assembly.

    ``de[k]`` (S, d_k) perturbs oscillator k by [vech dR_k; vec dM_k], the
    layout of :meth:`GradientSet.d_vector`; the blocks are those of
    :func:`assemble_cascade`. The stacks are stack-last (:class:`CascadeStack`),
    the layout :func:`solve_cascade_lyapunov` takes. Raises ArithmeticError if
    a perturbed oscillator fails the physical-realizability self-check.
    """
    a, b, _, abscissa, hurwitz = _series_connection(cascade.params, cascade.j_ito, de)
    return CascadeStack(a=a, b=b, abscissa=abscissa, hurwitz=hurwitz)


def transfer_eval(
    realization: OscillatorRealization, s: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices F(s) = (sI - A)^{-1} B and G(s) = C F(s) + I.

    F maps the driving field to the oscillator variables, G to the output
    field. On the imaginary axis G satisfies G J G* = J.
    """
    f = resolvent_solve(realization.a, realization.b, s)
    return f, realization.c @ f + np.eye(realization.b.shape[1])


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
