"""Dense linear-algebra kernels for small matrices.

Sylvester and Lyapunov solvers with stability preconditions, the symmetric
matrix of a half-vectorization, and the residual certificate of quantum
admissibility. Four decisions have their one owner here: the block layout of
a cascade (:func:`block_slices` and :func:`block_upper_mask`), the Hurwitz rule
(:func:`hurwitz_flag`, the only reader of ``HURWITZ_TOL``), the certificate
rule (:func:`certified`, the only comparison with ``RESIDUAL_TOL``) and the vech
order of a lower triangle (:func:`vech_indices`), not the places of a parameter error.

Every production Sylvester solve is certified and takes one of two routes.
A Lyapunov equation of one cascade is a Schur (Bartels-Stewart) solve
(:func:`solve_cascade_sylvester`) on a real Schur factor of a^T from
:func:`cascade_schur`: one ``dtrsyl`` call per pair of the factor's diagonal
tiles of ``TILE`` rows below the diagonal, the rest matrix products, so one
call up to order ``TILE``. Production factors a^T as one block, one QR
iteration on the whole matrix; the second routes of P and of the gradients
make the same solve on a second factorization, one QR iteration per
oscillator, as a cascade's dynamics matrix is block lower triangular.
:func:`solve_sylvester`, scipy's solver for general pairs of matrices, is a
reference route. Stacks of cascade Lyapunov equations
take :func:`solve_cascade_lyapunov`, block forward substitution with
each step between two one-mode blocks in closed form, on the rank-m form
of a cascade: its diagonal blocks with B and C, never the composite A.
Its stacks are stack-last, the copy axis last and contiguous: the one
layout of the perturbed-cascade builder and of the stacked
log-determinant, so no stack is transposed between them. Its block step
:func:`_sylvester_step` also solves the small complex z-domain equations,
one copy each; :func:`sylvester_kron_solve` is the tests' reference for both.

This module is the one owner of scipy's compiled routines: ``dgees``,
``dtrsyl``, ``dpotrf``, ``dpotrs`` and ``dtrtrs`` from LAPACK and ``nrm2``
from BLAS. They are loaded from the files of scipy's compiled modules
``linalg/_flapack`` and ``linalg/_fblas`` (:func:`_scipy_linalg_extension`),
so no production import runs ``scipy.linalg``'s ``__init__`` and its
array-API layer, which took about half of a command's start-up. The
routines are the objects ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
hold, so results are bit for bit those of the package import. Every other
production module imports them from here; only the reference routes
(:func:`solve_sylvester`, :func:`symplectic_exponential` and
``covariance.schur_complements``) import ``scipy.linalg``, when they run.
"""

from __future__ import annotations

import importlib
import os
import sys
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, spec_from_loader
from types import ModuleType
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EigFailure, NotHurwitz, SchemaError, SingularResolvent, SolverSingular

Matrix = np.ndarray

HURWITZ_TOL = 1e-9
RESIDUAL_TOL = 1e-9
#: order of the diagonal tiles of :func:`solve_cascade_sylvester`
TILE = 32

#: generator of the antisymmetric matrices of order 2
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _extension_file(name: str) -> str | None:
    """Path of scipy's compiled module ``scipy.linalg.<name>``, found without
    importing scipy, or None where this scipy layout has no such file."""
    spec = find_spec("scipy")
    for root in (spec.submodule_search_locations or []) if spec else []:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                return path
    return None


def _scipy_linalg_extension(name: str) -> ModuleType:
    """scipy's compiled module ``scipy.linalg.<name>``, loaded from its file
    without running ``scipy.linalg``'s ``__init__`` and without entering it in
    ``sys.modules``; ``importlib.import_module`` where there is no such file
    or it fails to load. Both give the same routine objects."""
    fullname = "scipy.linalg." + name
    path = _extension_file(name)
    if path is not None:
        held = sys.modules.get(fullname)
        try:
            loader = ExtensionFileLoader(fullname, path)
            module = loader.create_module(spec_from_loader(fullname, loader))
            loader.exec_module(module)
            return module
        except ImportError:
            pass
        finally:
            # a single-phase extension enters itself in sys.modules: restore what was there
            if held is None:
                sys.modules.pop(fullname, None)
            else:
                sys.modules[fullname] = held
    return importlib.import_module(fullname)


_flapack = _scipy_linalg_extension("_flapack")
dgees, dtrsyl = _flapack.dgees, _flapack.dtrsyl
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
#: the BLAS ``nrm2`` that ``scipy.linalg.norm`` picks for a real or complex
#: vector: the 64-bit-integer build where scipy has one
_fblas = _scipy_linalg_extension("_fblas_64" if _extension_file("_fblas_64") else "_fblas")
_NRM2 = {np.dtype(float): _fblas.dnrm2, np.dtype(complex): _fblas.dznrm2}


def symplectic_form(r: int) -> Matrix:
    """Canonical antisymmetric matrix [[0, I], [-I, 0]] of even order r, shared and read-only."""
    return _symplectic_form(r)


@lru_cache(maxsize=64)
def _symplectic_form(r: int) -> Matrix:
    if r % 2:
        raise ValueError(f"order must be even, got {r}")
    j = np.kron(J2, np.eye(r // 2))
    j.flags.writeable = False
    return j


def symplectic_exponential(h: Matrix) -> Matrix:
    """exp(J h) for symmetric h, symplectic for the canonical form.

    The generator J h satisfies (J h) J + J (J h)^T = 0, so the
    exponential preserves J and every scalar multiple of it, and has
    unit determinant.
    """
    import scipy.linalg

    return scipy.linalg.expm(symplectic_form(h.shape[0]) @ h)


def symmetric_part(x: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of every matrix of a stack (..., r, r)."""
    return 0.5 * (x + x.swapaxes(-1, -2))


def checked_symmetric_part(x: np.ndarray, where: str = "") -> np.ndarray:
    """Symmetric part of a matrix ``x``, or of every matrix of a stack (K, r, r);
    SchemaError (prefixed by ``where``) when a matrix's largest asymmetry
    max|x - x^T| exceeds 1e-9 of its own largest entry, which has no unit (a
    zero matrix passes), or either is not a finite number."""
    asym = np.max(np.abs(x - x.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0).ravel()
    largest = np.max(np.abs(x), axis=(-2, -1), initial=0.0).ravel()
    failed = np.flatnonzero(~((asym <= 1e-9 * largest) & (largest < np.inf)))
    if failed.size:
        k = failed[0]
        raise SchemaError(f"{where}asymmetry {asym[k]:.3e} exceeds 1e-9 of the largest entry {largest[k]:.3e}")
    return symmetric_part(x)


def antisymmetric_part(x: Matrix) -> Matrix:
    return 0.5 * (x - x.T)


@lru_cache(maxsize=64)
def vech_indices(r: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the lower triangle of order r in the vech order, column
    by column from the diagonal down; shared and read-only."""
    cols, rows = np.triu_indices(r)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def vech_to_symmetric(v: np.ndarray, r: int) -> Matrix:
    """The symmetric matrix of order r whose lower triangle in the vech order is v."""
    rows, cols = vech_indices(r)
    out = np.empty((r, r))
    out[rows, cols] = out[cols, rows] = v
    return out


def hurwitz_flag(abscissa: float | np.ndarray, scale: float | np.ndarray) -> bool | np.ndarray:
    """The package's Hurwitz rule, elementwise: spectral abscissa below
    -HURWITZ_TOL x ``scale``, the size of the matrix it judges (its largest
    entry, or that of the operands it is formed from). The rule has no unit
    of time: scaling a matrix and its scale by c > 0 keeps the verdict, and a
    zero matrix is never Hurwitz."""
    return abscissa < -HURWITZ_TOL * scale


def certified(residual: float | np.ndarray, scale: float | np.ndarray = 1.0) -> bool | np.ndarray:
    """The certificate rule, elementwise: residual <= RESIDUAL_TOL x scale, which a NaN fails."""
    return residual <= RESIDUAL_TOL * scale


def is_hurwitz(a: Matrix, scale: float) -> tuple[bool, float]:
    """Stability test of a real or complex matrix on the scale ``scale``. Returns
    (:func:`hurwitz_flag` of the spectral abscissa, the spectral abscissa)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix expected, got shape {a.shape}")
    try:
        margin = float(np.max(np.linalg.eigvals(a).real))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigensolve failed: {exc}") from exc
    return hurwitz_flag(margin, scale), margin


def spectral_abscissa(a: np.ndarray) -> np.ndarray:
    """Largest real part of the spectrum of every matrix in a stack (..., r, r);
    tr/2 + Re sqrt(tr^2/4 - det) for r = 2, with the discriminant written as
    ((a00 - a11)/2)^2 + a01 a10, which keeps near-double eigenvalues accurate."""
    if a.shape[-1] != 2:
        return np.max(np.linalg.eigvals(a).real, axis=-1)
    half_gap = 0.5 * (a[..., 0, 0] - a[..., 1, 1])
    disc = half_gap * half_gap + a[..., 0, 1] * a[..., 1, 0]
    return 0.5 * (a[..., 0, 0] + a[..., 1, 1]) + np.sqrt(np.maximum(disc, 0.0))


def sylvester_kron_solve(alpha: Matrix, beta: Matrix, gamma: Matrix) -> Matrix:
    """Solve alpha*s + s*beta^T + gamma = 0 by dense vectorization.

    Brute-force route: vec(s) = -(beta (+) alpha)^{-1} vec(gamma) with
    column-major vec, real or complex (plain transpose on beta). No production
    route calls it: it is the tests' reference for the Schur routes and for the
    block step :func:`_sylvester_step`, kept here as the benchmark traces it.
    """
    n, p = gamma.shape
    op = np.kron(np.eye(p), alpha) + np.kron(beta, np.eye(n))
    try:
        x = np.linalg.solve(op, -gamma.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise SolverSingular(f"vectorized system singular: {exc}") from exc
    return x.reshape((n, p), order="F")


_TINY = np.finfo(float).tiny


def resolvent_solve(a: Matrix, b: Matrix, s: complex) -> Matrix:
    """(sI - a)^{-1} b by one LU solve, certified: SingularResolvent when s is
    in the spectrum of a, the solution overflows or its residual exceeds 1e-8
    of its own scale ||(sI - a)^{-1} b|| ||sI - a||, which has no unit of time
    (``_TINY`` for a zero operand)."""
    resolvent = s * np.eye(a.shape[0]) - a
    try:
        f = np.linalg.solve(resolvent, b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"s = {s} is in the spectrum: {exc}") from exc
    if not np.all(np.isfinite(f)):
        raise SingularResolvent(f"resolvent overflow at s = {s}")
    res = np.linalg.norm(resolvent @ f - b)
    if res > 1e-8 * max(np.linalg.norm(f) * np.linalg.norm(resolvent), _TINY):
        raise SingularResolvent(f"resolvent solve lost accuracy at s = {s}")
    return f


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm by BLAS ``nrm2``, which scales as it sums: it overflows
    only where the norm itself does, not where the sum of squares would. The
    value of ``scipy.linalg.norm`` on the raveled x, taken in float64 or
    complex128; 0.0 for an empty x."""
    v = np.asarray(x).ravel()
    if not v.size:
        return 0.0
    v = v.astype(complex if v.dtype.kind == "c" else float, copy=False)
    return float(_NRM2[v.dtype](v))


def certify_sylvester(alpha: Matrix, beta: Matrix, gamma: Matrix, sigma: Matrix) -> None:
    """Raise SolverSingular unless sigma, real or complex, solves
    alpha*s + s*beta^T + gamma = 0 to a Frobenius residual within
    ``RESIDUAL_TOL`` of the scale ||sigma|| (||alpha|| + ||beta||) + ||gamma||,
    both finite: an infinite one means the equation does not fit in double
    precision, and no residual could fail against an infinite scale."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        residual = _frobenius(alpha @ sigma + sigma @ beta.T + gamma)
    scale = _frobenius(sigma) * (_frobenius(alpha) + _frobenius(beta)) + _frobenius(gamma)
    if not (certified(residual, max(scale, _TINY)) and scale < np.inf):
        raise SolverSingular(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} x scale {scale:.3e}"
        )


def solve_sylvester(alpha: Matrix, beta: Matrix, gamma: Matrix) -> Matrix:
    """Unique solution s, n x p, of alpha*s + s*beta^T + gamma = 0 by scipy's
    dense Schur solver, certified by :func:`certify_sylvester`.

    Raises ValueError on inconsistent shapes, SolverSingular on a
    non-finite entry, NotHurwitz unless alpha and beta pass :func:`is_hurwitz`
    on the scale of their largest entries, and SolverSingular if the
    solve or its residual certificate fails.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n, p = len(alpha), len(beta)
    if alpha.shape != (n, n) or beta.shape != (p, p) or gamma.shape != (n, p):
        shapes = f"{alpha.shape}, {beta.shape}, {gamma.shape}"
        raise ValueError(f"shapes {shapes} are not (n, n), (p, p), (n, p)")
    if not all(np.all(np.isfinite(x)) for x in (alpha, beta, gamma)):
        raise SolverSingular("alpha, beta or gamma has a non-finite entry")
    for name, mat in (("alpha", alpha), ("beta", beta)):
        ok, margin = is_hurwitz(mat, np.max(np.abs(mat)))
        if not ok:
            raise NotHurwitz(f"{name} is not Hurwitz: max Re eig = {margin:.3e}")
    import scipy.linalg

    try:
        sigma = scipy.linalg.solve_sylvester(alpha, beta.T, -gamma)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverSingular(f"Schur solve failed: {exc}") from exc
    certify_sylvester(alpha, beta, gamma, sigma)
    return sigma


def block_slices(dims: Sequence[int]) -> tuple[slice, ...]:
    """Index range of every diagonal block, of orders ``dims``, in order."""
    offs = np.cumsum((0, *dims)).tolist()
    return tuple(slice(lo, hi) for lo, hi in zip(offs[:-1], offs[1:]))


def block_upper_mask(dims: Sequence[int], a: np.ndarray | None = None) -> np.ndarray:
    """Mask of the entries above the diagonal blocks of orders ``dims``;
    ValueError if ``a`` (n, n, ...) holds a nonzero entry there."""
    block_id = np.repeat(np.arange(len(dims)), dims)
    upper = block_id[:, None] < block_id[None, :]
    if a is not None and np.any(a[upper]):
        raise ValueError("a has a nonzero block above the diagonal")
    return upper


class CascadeSchur(NamedTuple):
    """Real Schur factor a^T = w s w^T of a cascade dynamics matrix a."""

    a: Matrix
    w: Matrix
    s: Matrix


def cascade_schur(a: Matrix, dims: Sequence[int]) -> CascadeSchur:
    """Real Schur factor of a^T built from the diagonal blocks of a cascade.

    ``a`` is block lower triangular, so with A_kk^T = W_k S_k W_k^T the
    orthogonal w = blockdiag(W_k) makes s = w^T a^T w upper
    quasi-triangular in LAPACK's standard form (Jonsson and Kagstrom, 2002),
    with no QR iteration across oscillators. One block, ``dims = (len(a),)``,
    is the dense factor of the same a^T, one QR iteration on it. Each W_k, S_k
    comes from one unsorted LAPACK ``dgees`` call, the factorization
    ``scipy.linalg.schur`` makes, without its per-call wrapper. Raises
    ValueError if a block above the diagonal is nonzero, SolverSingular if
    ``a`` has a non-finite entry or a block's QR iteration fails.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise SolverSingular("a has a non-finite entry")
    if len(dims) == 1:
        s, w = _block_schur(a, 0)
        return CascadeSchur(a=a, w=w, s=s)
    upper = block_upper_mask(dims, a)
    w = np.zeros_like(a)
    s = np.zeros_like(a)
    for k, blk in enumerate(block_slices(dims)):
        s[blk, blk], w[blk, blk] = _block_schur(a[blk, blk], k)
    s[upper] = (w.T @ a.T @ w)[upper]
    return CascadeSchur(a=a, w=w, s=s)


def _no_sort(wr: float, wi: float) -> None:
    """Eigenvalue selector of an unsorted ``dgees`` call, never called."""


def _block_schur(a_kk: Matrix, k: int) -> tuple[Matrix, Matrix]:
    """(S_k, W_k) with A_kk^T = W_k S_k W_k^T from one unsorted ``dgees`` call."""
    s_k, _, _, _, w_k, _, info = dgees(_no_sort, a_kk.T)
    if info != 0:
        raise SolverSingular(f"Schur factorization of diagonal block {k} failed: info {info}")
    return s_k, w_k


def solve_cascade_sylvester(factor: CascadeSchur, gamma: Matrix, *, transpose: bool = False) -> Matrix:
    """Certified solve of A X + X A^T + gamma = 0, gamma symmetric, on a
    :func:`cascade_schur` factor a^T = w s w^T; ``transpose`` solves
    A^T X + X A + gamma = 0 instead.

    X = w Y w^T, with s^T Y + Y s = C (s Y + Y s^T = C transposed) and
    C = -w^T gamma w, solved by symmetric Bartels-Stewart block substitution
    (Jonsson and Kagstrom, 2002) on the tiles of :func:`_schur_tiles`: each
    tile (i, j), i >= j, in :func:`_tile_order`, from its forcing C_ij less
    two matrix products over the tiles already solved, by one LAPACK
    ``dtrsyl`` call on s_ii and s_jj, then mirrored to (j, i). With one tile,
    n <= ``TILE``, that is one ``dtrsyl`` call on the whole factor. The
    caller has checked stability. Raises SolverSingular, naming the tile, if
    a ``dtrsyl`` call reports close spectra or rescales, or if the residual
    certificate of X fails, as it does for a gamma far from symmetric.
    """
    w, s = factor.w, factor.s
    # the triangular matrix of the left-hand product: s^T Y, or s Y transposed
    op, left = (factor.a.T, s) if transpose else (factor.a, s.T)
    trans = ("N", "T") if transpose else ("T", "N")
    # C in Fortran order, which dtrsyl overwrites: each tile of Y replaces its tile of C
    y = np.asfortranarray(-(w.T @ gamma @ w))
    tiles = _schur_tiles(s)
    for i, j in _tile_order(len(tiles), transpose):
        ti, tj = tiles[i], tiles[j]
        forcing = y[ti, tj]
        if len(tiles) > 1:
            # the tiles of Y already solved: those before, or those after when transposed
            si = slice(ti.stop, None) if transpose else slice(ti.start)
            sj = slice(tj.stop, None) if transpose else slice(tj.start)
            forcing = forcing - left[ti, si] @ y[si, tj] - y[ti, sj] @ left[tj, sj].T
        y[ti, tj], scale, info = dtrsyl(s[ti, ti], s[tj, tj], forcing, *trans, overwrite_c=True)
        if info != 0 or scale != 1.0:
            raise SolverSingular(f"triangular Sylvester solve of tile ({i}, {j}): info {info}, scale {scale:.3e}")
        if i != j:
            y[tj, ti] = y[ti, tj].T
    sigma = w @ y @ w.T
    certify_sylvester(op, op, gamma, sigma)
    return sigma


@lru_cache(maxsize=64)
def _tile_order(p: int, transpose: bool) -> tuple[tuple[int, int], ...]:
    """(i, j) of the p(p+1)/2 tiles i >= j of :func:`solve_cascade_sylvester` in
    the vech order of :func:`vech_indices`, reversed when ``transpose``, as
    s Y + Y s^T is solved from the last tile back."""
    rows, cols = vech_indices(p)
    pairs = tuple(zip(rows.tolist(), cols.tolist()))
    return pairs[::-1] if transpose else pairs


def _schur_tiles(s: Matrix) -> list[slice]:
    """Index ranges of the diagonal tiles of a quasi-triangular s: ``TILE``
    rows each, one more where a cut would split a 2 x 2 bump, and the rest last."""
    n, lo, tiles = len(s), 0, []
    while lo < n:
        hi = min(lo + TILE, n)
        hi += bool(hi < n and s[hi, hi - 1] != 0.0)
        tiles.append(slice(lo, hi))
        lo = hi
    return tiles


def solve_cascade_lyapunov(
    diag: Sequence[np.ndarray], b: np.ndarray, c: np.ndarray, q: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve A P + P A^T + Q = 0 for a stack-last stack of cascades in rank-m form.

    Every copy's A is block lower triangular: ``diag[k]`` (d_k, d_k, S) holds
    its diagonal blocks and, below them, the series connection makes A_jl =
    B_j C_l from ``b`` (n, m, S) and ``c`` (m, n, S), so no (n, n, S)
    composite is formed. ``q`` (n, n, S) is taken symmetric; None solves the
    cascades' own covariance equation, Q = B B^T, without forming Q. The copy
    axis is last, of length S in ``q`` and S or 1 in the blocks, ``b`` and
    ``c``: one copy is shared by all S, as the covariance responses pass it,
    with the bits of its S contiguous copies. Block forward substitution
    (Bartels and Stewart, 1972) splits each equation into one small Sylvester
    problem per block (j, k) with j >= k, in column order k, then row order j:

        A_jj X + X A_kk^T = -(Q_jk + B_j U_jk + T_jk B_k^T)

    with the m-column accumulators U_jk = sum_{l<j} C_l P_lk and T_jk =
    sum_{l<k} P_jl C_l^T of :func:`_forcings`, one small product per block
    instead of O(n) forcing sums. A step between two one-mode blocks
    (d_j = d_k = 2) is closed form by Cayley-Hamilton; any other step solves
    the (d_j d_k)-order Kronecker system of every copy. The caller ensures
    that the diagonal blocks are Hurwitz.

    Returns the symmetric solutions, shape (n, n, S), and per copy the
    residual certificate ||A P + P A^T + Q|| / (2 ||A|| ||P|| + ||Q||)
    of the composite A in Frobenius norms, the ratio :func:`certify_sylvester`
    judges, left to the caller's :func:`certified`. It is formed in rank-m
    form: each block's residual is its forcing, built from the final P,
    plus A_jj P_jk + P_jk A_kk^T, and :func:`_lyapunov_residual_ratio`
    scales their sum.

    Raises
    ------
    ValueError
        If a diagonal block is not square, or the shapes of the blocks,
        ``b``, ``c`` and ``q`` or their copy counts disagree.
    """
    # einsum orders its sums by the operands' strides: contiguous copies make
    # the result independent of the caller's memory layout
    *diag, b, c = realization = [np.ascontiguousarray(x, dtype=float) for x in (*diag, b, c)]
    blocks, (n, m) = block_slices([len(x) for x in diag]), b.shape[:2]
    stack = max(x.shape[-1] for x in realization) if q is None else q.shape[-1]
    fits = [(len(x), len(x)) for x in diag] + [(n, m), (m, n)]
    if n != blocks[-1].stop or q is not None and q.shape != (n, n, stack) or any(
        x.shape not in (fit + (1,), fit + (stack,)) for x, fit in zip(realization, fits)
    ):
        raise ValueError(f"shapes {[np.shape(x) for x in (*realization, q)]} of the blocks, b, c and q do not fit")
    if q is not None:
        q = np.ascontiguousarray(0.5 * (q + q.transpose(1, 0, 2)), dtype=float)
    p, residual = np.empty((n, n, stack)), np.zeros(stack)
    for j, k, forcing in _forcings(b, c, q, p, blocks):
        x = _sylvester_step(diag[j], diag[k], forcing)
        if j == k:
            x = 0.5 * (x + x.transpose(1, 0, 2))
        p[blocks[j], blocks[k]] = x
        p[blocks[k], blocks[j]] = x.transpose(1, 0, 2)
        residual += _block_residual2(diag[j], diag[k], forcing, x, twice=j > k)
    return p, _lyapunov_residual_ratio(diag, b, c, q, p, residual)


def _forcings(b: np.ndarray, c: np.ndarray, q: np.ndarray | None, p: np.ndarray, blocks: Sequence[slice]):
    """(j, k, Q_jk + B_j U_jk + T_jk B_k^T) of every block j >= k of a stack-last
    rank-m cascade, in column order k and then row order j, for a symmetric q,
    or Q = B B^T for None. U_jk = sum_{l<j} C_l P_lk runs down column k from
    U_kk = T_kk^T; T_jk = sum_{l<k} P_jl C_l^T of every row below column k is
    one (n, m, S) array, S the copies of ``p``. Block (j, k) of ``p`` is read
    only after its forcing is yielded, so a solve may write it there."""
    t = np.zeros(b.shape[:2] + p.shape[2:])
    for k, ck in enumerate(blocks):
        below = slice(ck.start, None)
        # for q None, Q_jk = B_j B_k^T joins T_jk B_k^T
        column = np.einsum("ims,bms->ibs", t[below] + b[below] if q is None else t[below], b[ck])
        if q is not None:
            column += q[below, ck]
        u = t[ck].transpose(1, 0, 2)
        for j in range(k, len(blocks)):
            rj = blocks[j]
            forcing = column[rj.start - ck.start : rj.stop - ck.start]
            if k or j:
                forcing += np.einsum("ims,mbs->ibs", b[rj], u)
            yield j, k, forcing
            if j + 1 < len(blocks):
                u = u + np.einsum("mis,ibs->mbs", c[:, rj], p[rj, ck])
        t[ck.stop :] += np.einsum("ibs,mbs->ims", p[ck.stop :, ck], c[:, ck])


def _block_residual2(alpha: np.ndarray, beta: np.ndarray, forcing: np.ndarray, x: np.ndarray, twice: bool):
    """Per copy, ||alpha X + X beta^T + forcing||^2 of one block, twice left of the diagonal."""
    r = forcing + np.einsum("ils,lbs->ibs", alpha, x) + np.einsum("ils,bls->ibs", x, beta)
    return (1.0 + twice) * np.einsum("ijs,ijs->s", r, r)


def _lyapunov_residual_ratio(
    diag: Sequence[np.ndarray], b: np.ndarray, c: np.ndarray, q: np.ndarray | None, p: np.ndarray,
    residual: np.ndarray,
) -> np.ndarray:
    """Per copy, ||A P + P A^T + Q|| / (2 ||A|| ||P|| + ||Q||) in Frobenius
    norms for the rank-m cascades and copy axes of :func:`solve_cascade_lyapunov`;
    ||A||^2 is the diagonal blocks' squares plus ||B_j C_:o_j||^2 of every
    block row j, o_j its offset. The squared residual is ``residual``, as the
    kernel's sweep formed it on its symmetric q: block (j, k), j >= k, of R is
    the forcing of :func:`_forcings` plus A_jj P_jk + P_jk A_kk^T."""
    blocks, a_norm2 = block_slices([len(x) for x in diag]), np.zeros(p.shape[2])
    # at P's copy count, as einsum orders a sum by it: a shared realization gets its copies' bits
    *diag, b, c = (x if x.shape[2] == len(a_norm2) else np.repeat(x, len(a_norm2), axis=2) for x in (*diag, b, c))
    for rows, a_jj in zip(blocks, diag):
        row = np.einsum("ims,mls->ils", b[rows], c[:, : rows.start])
        a_norm2 += np.einsum("ijs,ijs->s", a_jj, a_jj) + np.einsum("ijs,ijs->s", row, row)
    q = np.einsum("ims,ils->mls", b, b) if q is None else q  # B^T B has the norm of B B^T
    scale = 2.0 * np.sqrt(a_norm2 * np.einsum("ijs,ijs->s", p, p)) + np.sqrt(np.einsum("ijs,ijs->s", q, q))
    return np.sqrt(residual) / np.maximum(scale, _TINY)


def _sylvester_step(alpha: np.ndarray, beta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """X with alpha X + X beta^T + f = 0, real or complex, for stack-last blocks (d_j, d_k, S).

    Order-2 blocks in closed form: with C = beta^T, Cayley-Hamilton gives
    M X = -(alpha f - f C + tr C f) with M = alpha^2 + tr C alpha + det C I.
    Applied to alpha, it makes M = u alpha + v I (u = tr alpha + tr C,
    v = det C - det alpha), so adj M = w I - u alpha with
    w = u tr alpha + v, and det M = v w + u^2 det alpha. Other orders
    solve the Kronecker system of every copy.
    """
    d_j, d_k, stack = f.shape
    if d_j == d_k == 2:
        tr_a, tr_c = alpha[0, 0] + alpha[1, 1], beta[0, 0] + beta[1, 1]
        det_a = alpha[0, 0] * alpha[1, 1] - alpha[0, 1] * alpha[1, 0]
        u = tr_a + tr_c
        v = beta[0, 0] * beta[1, 1] - beta[0, 1] * beta[1, 0] - det_a
        w = u * tr_a + v
        rhs = np.einsum("ils,lbs->ibs", alpha, f) + tr_c * f - np.einsum("ils,bls->ibs", f, beta)
        return (u * np.einsum("ils,lbs->ibs", alpha, rhs) - w * rhs) / (v * w + u * u * det_a)
    # row-major vec: vec(alpha X + X beta^T) = (alpha (x) I + I (x) beta) vec X
    op = np.einsum("acs,bd->sabcd", alpha, np.eye(d_k)) + np.einsum("ac,bds->sabcd", np.eye(d_j), beta)
    x = np.linalg.solve(op.reshape(-1, d_j * d_k, d_j * d_k), -f.transpose(2, 0, 1).reshape(stack, -1, 1))
    # contiguous, as the closed form's: einsum's sums over X depend on its layout
    return np.ascontiguousarray(x.reshape(stack, d_j, d_k).transpose(1, 2, 0))


def quantum_psd_margin(p: Matrix, theta: Matrix) -> float:
    """Minimum eigenvalue of the Hermitian matrix P + i*theta by one order-n
    Hermitian eigensolve (its real embedding [[P, -theta], [theta, P]] has
    every eigenvalue twice). A nonnegative result certifies admissibility of
    P as a quantum covariance real part; for theta = 0 it is min eig P.
    """
    hermitian = np.asarray(p, dtype=float) + 1j * np.asarray(theta, dtype=float)
    try:
        return float(np.linalg.eigvalsh(hermitian)[0])
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"Hermitian eigensolve failed: {exc}") from exc
