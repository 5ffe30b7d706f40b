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

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NonPositive, NotHurwitz, SchemaError, SingularTheta
from .linalg import (
    Matrix, block_slices, checked_symmetric_part, hurwitz_flag, resolvent_solve,
    spectral_abscissa, symplectic_form, vech_to_symmetric,
)

PR_SELF_CHECK_TOL = 1e-12


def parameter_sizes(n: int, m: int) -> tuple[int, int]:
    """Entry counts (n(n+1)/2, m n) of the halves of the parameter error
    de = [vech dR; vec dM] of an oscillator of order n on m field channels."""
    return n * (n + 1) // 2, m * n


@lru_cache(maxsize=64)
def parameter_positions(n: int, m: int) -> np.ndarray:
    """(n, n + m) position in de = [vech dR; vec dM] of every entry of [dR | dM^T] of an
    oscillator of order n on m field channels, so de[at] is [dR | dM^T]: dR in the vech
    order, dM columns first; shared and read-only."""
    d_r, d_m = parameter_sizes(n, m)
    at = np.empty((n, n + m), dtype=np.intp)
    at[:, :n] = vech_to_symmetric(np.arange(d_r), n)
    at[:, n:] = d_r + np.arange(d_m).reshape(n, m)  # vec dM, columns first, is vec dM^T rows first
    at.flags.writeable = False
    return at


def default_theta(n: int) -> Matrix:
    """Commutation matrix of n/2 position-momentum pairs, (1/2) [[0, I], [-I, 0]]."""
    return 0.5 * symplectic_form(n)


@dataclass(frozen=True)
class OscillatorUncertainty:
    """Error model of one oscillator.

    Either isotropic bounds (``energy_weight`` a_k for the vech R block,
    ``coupling_weight`` b_k for the vec M block) or a full ``sigma``
    covariance over [vech dR; vec dM]. Construction refuses both forms or
    neither and weights that are not finite and nonnegative (SchemaError),
    and a sigma that is not square (DimensionMismatch), not symmetric to
    1e-9 (SchemaError; it is then symmetrized) or below the eigenvalue
    floor of the Monte-Carlo sampler (NonPositive).
    """

    energy_weight: float | None = None
    coupling_weight: float | None = None
    sigma: Matrix | None = None

    def __post_init__(self) -> None:
        weights = (self.energy_weight, self.coupling_weight)
        given = tuple(x is not None for x in (self.sigma, *weights))
        if given not in ((True, False, False), (False, True, True)):  # sigma alone, or both weights
            raise SchemaError("needs either 'sigma' or both 'a' and 'b', not both forms")
        if self.sigma is None:
            if not all(0.0 <= w < np.inf for w in weights):  # NaN fails both comparisons
                raise SchemaError("weights must be finite and nonnegative")
            return
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DimensionMismatch(f"sigma must be square, got shape {sigma.shape}")
        object.__setattr__(self, "sigma", checked_symmetric_part(sigma))
        _sigma_sqrt(self.sigma)

    def sigma_matrix(self, n: int, m: int) -> Matrix:
        sizes = parameter_sizes(n, m)
        if self.sigma is None:
            return np.diag(np.repeat(self.weights(), sizes))
        if self.sigma.shape != (sum(sizes),) * 2:
            raise ValueError(f"sigma has shape {self.sigma.shape}, expected {(sum(sizes),) * 2}")
        return self.sigma

    def weights(self) -> tuple[float, float]:
        if self.sigma is not None:
            raise ValueError("weight-form bounds are not available")
        return float(self.energy_weight), float(self.coupling_weight)


@dataclass(frozen=True)
class UncertaintyModel:
    oscillators: tuple[OscillatorUncertainty, ...]


def _sigma_sqrt(sigma: Matrix) -> Matrix:
    w, v = np.linalg.eigh(sigma)
    if np.any(w < -1e-12 * np.max(np.abs(w), initial=0.0)):  # relative to sigma's own scale
        raise NonPositive(f"uncertainty covariance has eigenvalue {w.min():.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


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
    max(||A|| ||theta||, ||B||^2), which carries the unit of time as the
    residual does, per copy for stack-last (., ., ...) arrays; theta
    broadcasts over the trailing stack axes."""

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
    return norm(res) + norm(bj), np.maximum(scale, norm(b) ** 2)


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


def _write_series(diag: Sequence[Matrix], b: Matrix, c: Matrix) -> Matrix:
    """Composite A (n, n) of one series connection from its diagonal blocks
    ``diag[k]`` (n_k, n_k) and the composite B (n, m) and C (m, n): A_kk on the
    diagonal and A_jk = B_j C_k below it.
    """
    blocks = block_slices([len(a_k) for a_k in diag])
    a = np.zeros((blocks[-1].stop,) * 2)
    for a_k, bk in zip(diag, blocks):
        a[bk, bk] = a_k
        a[bk, : bk.start] = b[bk] @ c[:, : bk.start]
    return a


class CascadeStack(NamedTuple):
    """S cascades in rank-m form, stack-last with the copy axis contiguous: the
    diagonal blocks ``diag[k]`` (n_k, n_k, S), b (n, m, S) and c (m, n, S),
    which make every block A_jl = B_j C_l below the diagonal, with the
    spectral abscissa (N, S) of every diagonal block and its Hurwitz flag
    (exact for a cascade)."""

    diag: tuple[np.ndarray, ...]
    b: np.ndarray
    c: np.ndarray
    abscissa: np.ndarray
    hurwitz: np.ndarray

    def compress(self, keep: np.ndarray) -> "CascadeStack":
        """The copies where ``keep`` is true, still stack-last (x[..., keep] is not)."""
        diag, rest = ([np.compress(keep, x, axis=-1) for x in xs] for xs in (self.diag, self[1:]))
        return CascadeStack(tuple(diag), *rest)


def _series_connection(
    oscillators: Sequence[OscillatorParams], j_ito: Matrix, de: Sequence[np.ndarray]
) -> CascadeStack:
    """Series connection of S perturbed copies of a chain of oscillators, in rank-m form.

    ``de[k]`` (S, d_k) perturbs oscillator k by [vech dR_k; vec dM_k], the layout
    of :meth:`GradientSet.d_vector`. A_kk = 2 Theta_k (R_k + M_k^T J M_k),
    B_k = 2 Theta_k M_k^T and C_k = 2 J M_k are formed stack-last, A_kk as
    contiguous (n_k, n_k, S) blocks and B_k and C_k straight into the composite
    b (n, m, S) and c (m, n, S), for each run of consecutive oscillators of one
    order at once, and pass the realizability self-check (ArithmeticError naming
    the oscillator). Returns the :class:`CascadeStack` of the diagonal blocks, b
    and c, the spectral abscissas (N, S) of the diagonal blocks and their
    :func:`hurwitz_flag` on the scale max|A_kk| of each block and copy; with no
    copies, S = 0, its empty stack.
    """
    stack, m = de[0].shape[0], j_ito.shape[0]
    blocks = block_slices([p.n for p in oscillators])
    diag: list = [None] * len(oscillators)
    b, c = np.empty((blocks[-1].stop, m, stack)), np.empty((m, blocks[-1].stop, stack))
    abscissa = np.empty((len(oscillators), stack))
    hurwitz = np.empty((len(oscillators), stack), dtype=bool)
    for n_k, run in itertools.groupby(range(len(oscillators)), lambda k: oscillators[k].n):
        ks = list(run)
        rows = slice(blocks[ks[0]].start, blocks[ks[-1]].stop)
        at = parameter_positions(n_k, m)
        # oscillator axis first and copy axis last, (K, ., ., S); a product
        # with a fixed left factor is one matrix product over all copies
        theta = np.stack([oscillators[k].theta for k in ks])
        theta2 = 2.0 * theta
        d = np.ascontiguousarray(np.stack([de[k].T for k in ks]))
        m_kt = d[:, at[:, n_k:]] + np.stack([oscillators[k].m_coupling.T for k in ks])[..., None]
        m_k = np.ascontiguousarray(m_kt.swapaxes(1, 2))
        # B_k and C_k of the run formed in place, as views of its rows of b and columns of c
        b_k = b[rows].reshape(len(ks), n_k, m, stack)
        np.matmul(theta2, m_kt.reshape(len(ks), n_k, -1), out=b_k.reshape(len(ks), n_k, -1))
        c_k = c[:, rows].reshape(m, len(ks), n_k, stack).swapaxes(0, 1)
        np.matmul(2.0 * j_ito, m_k.reshape(len(ks), m, -1), out=c_k.reshape(len(ks), m, -1))
        r = np.stack([oscillators[k].r_energy for k in ks])[..., None] + d[:, at[:, :n_k]]
        # M^T J is a signed permutation of M^T's columns, J = [[0, I], [-I, 0]], held only for
        # the product; stack-first views (K, S, ., .), no data moved; on one copy the product
        # is the 2-D BLAS product itself, so assembly reproduces the series formulas to the bit
        m_kt_j = np.concatenate([-m_kt[:, :, m // 2 :], m_kt[:, :, : m // 2]], axis=2)
        mjm = np.matmul(*(np.moveaxis(x, -1, 1) for x in (m_kt_j, m_k)))
        del m_kt_j
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
            # an infinite scale is a copy beyond double precision, not an unrealizable model
            cause = (
                "a copy overflows double precision at"
                if scale[i, copy] == np.inf
                else "physical-realizability self-check failed for"
            )
            raise ArithmeticError(
                f"{cause} oscillator {ks[i]}: residual {res[i, copy]:.3e}, scale {scale[i, copy]:.3e}"
            )
        abscissa[ks] = spectral_abscissa(a_kk.transpose(0, 3, 1, 2))
        # max|A_kk| as max(max A_kk, -min A_kk): no temporary of the run's size
        largest = np.maximum(a_kk.max(axis=(1, 2)), -a_kk.min(axis=(1, 2)))
        hurwitz[ks] = hurwitz_flag(abscissa[ks], largest)
        for i, k in enumerate(ks):
            diag[k] = a_kk[i]
    return CascadeStack(tuple(diag), b, c, abscissa, hurwitz)


def _checked_series(oscillators: Sequence[OscillatorParams]) -> tuple[Matrix, CascadeStack]:
    """The canonical field form J and the unperturbed series connection of a
    chain that passes every check in turn: not empty, the shapes and the theta
    (:func:`_check_thetas`) of each oscillator, one channel count for all."""
    if not oscillators:
        raise DimensionMismatch("at least one oscillator required")
    for k, p in enumerate(oscillators):
        _validate_shapes(p, k)
    _check_thetas([p.theta for p in oscillators])
    m = oscillators[0].m
    for k, p in enumerate(oscillators):
        if p.m != m:
            raise DimensionMismatch(f"oscillator {k}: {p.m} field channels, expected {m}")
    j = symplectic_form(m)
    one_copy = [np.zeros((1, sum(parameter_sizes(p.n, m)))) for p in oscillators]
    return j, _series_connection(oscillators, j, one_copy)


def oscillator_realization(p: OscillatorParams) -> OscillatorRealization:
    """State-space matrices (A, B, C) of one oscillator on the canonical field
    form J of its channel count, the one-oscillator case of the series
    builder, whose self-check verifies A theta + theta A^T + B J B^T = 0 and
    theta C^T + B J = 0 to round-off."""
    _, stack = _checked_series([p])
    return OscillatorRealization(a=stack.diag[0][..., 0], b=stack.b[..., 0], c=stack.c[..., 0])


@dataclass(frozen=True)
class CascadeModel:
    """Composite series connection of oscillators.

    ``a``, ``b``, ``c`` are the composite state-space matrices, ``theta``
    the block-diagonal commutation matrix and ``m_coupling`` the composite
    coupling matrix [M_0, M_1, ...], so that b = 2 theta m_coupling^T and
    c = 2 J m_coupling. ``blocks`` holds
    the state index range of every oscillator and ``realizations`` its
    (A_kk, B_k, C_k), read off the composite on those ranges. ``hurwitz``
    records the per-oscillator stability flags with spectral abscissas;
    stability is reported at assembly, never assumed. ``realizability`` is the
    (residual, scale) assembly certified. ``derived`` keeps P, the
    steady-state record (the factor L of P, V, v_k and the purity) and the
    gradients, each written once by its owner function.
    """

    params: tuple[OscillatorParams, ...]
    m: int
    j_ito: Matrix
    a: Matrix
    b: Matrix
    c: Matrix
    theta: Matrix
    m_coupling: Matrix
    dims: tuple[int, ...]
    hurwitz: tuple[tuple[bool, float], ...]
    realizability: tuple[float, float]
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def blocks(self) -> tuple[slice, ...]:
        return block_slices(self.dims)

    @cached_property
    def realizations(self) -> tuple[OscillatorRealization, ...]:
        return tuple(OscillatorRealization(self.a[k, k], self.b[k], self.c[:, k]) for k in self.blocks)

    def require_hurwitz(self) -> None:
        """Raise NotHurwitz naming the first unstable oscillator (exact for a cascade)."""
        for k, (flag, margin) in enumerate(self.hurwitz):
            if not flag:
                raise NotHurwitz(f"oscillator {k} has spectral abscissa {margin:.3e}")


def assemble_cascade(oscillators: Sequence[OscillatorParams]) -> CascadeModel:
    """Build the composite model from the per-oscillator data by one call of
    the series-connection builder, whose self-check certifies every
    oscillator; the per-oscillator Hurwitz flags come from the spectral
    abscissas of the diagonal blocks, exact for a cascade. The composite must
    pass :func:`_realizable` on the pair of :func:`realizability_residual`, and
    the model keeps that pair."""
    oscillators = tuple(oscillators)
    j, stack = _checked_series(oscillators)
    # one unperturbed copy: drop the stack axis
    b_full, c_full = stack.b[..., 0], stack.c[..., 0]
    a_full = _write_series([x[..., 0] for x in stack.diag], b_full, c_full)
    theta_full = _block_diag([p.theta for p in oscillators])
    res, scale = realizability_residual(a_full, b_full, c_full, theta_full, j)
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
        m_coupling=np.hstack([p.m_coupling for p in oscillators]),
        dims=tuple(p.n for p in oscillators),
        hurwitz=tuple(zip(stack.hurwitz[:, 0].tolist(), stack.abscissa[:, 0].tolist())),
        realizability=(float(res), float(scale)),
    )


def perturbed_cascade_stack(cascade: CascadeModel, de: Sequence[np.ndarray]) -> CascadeStack:
    """S perturbed copies of a cascade in rank-m form, without assembly: the
    :class:`CascadeStack` of the series builder, whose blocks are those of
    :func:`assemble_cascade`.

    ``de[k]`` (S, d_k) perturbs oscillator k by [vech dR_k; vec dM_k], the
    layout of :meth:`GradientSet.d_vector`; S may be 0. The stacks are
    stack-last, the layout :func:`solve_cascade_lyapunov` takes; no composite
    A is written. Raises ValueError naming the first oscillator without its
    (S, d_k) array, one S for all, and ArithmeticError if a perturbed
    oscillator fails the physical-realizability self-check.
    """
    copies = len(de[0]) if len(de) else 0
    for k in range(max(len(de), len(cascade.dims))):
        got = np.shape(de[k]) if k < len(de) else "no array"
        want = (copies, sum(parameter_sizes(cascade.dims[k], cascade.m))) if k < len(cascade.dims) else "no array"
        if got != want:
            raise ValueError(f"perturbation of oscillator {k}: {got}, expected {want}")
    return _series_connection(cascade.params, cascade.j_ito, de)


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
