"""Dense linear-algebra kernels for small matrices.

Sylvester and Lyapunov solvers with stability preconditions, the
duplication matrix for half-vectorization, and residual certificates for
symplectic membership and quantum admissibility. Three decisions have
their one owner here: the block layout of a cascade
(:func:`block_slices` and :func:`block_upper_mask`), the Hurwitz rule
(:func:`hurwitz_flag`, the only reader of ``HURWITZ_TOL``) and the vech
order of a lower triangle (:func:`vech_indices`).

Every production Sylvester solve is a certified Schur (Bartels-Stewart)
solve: one ``dtrsyl`` call on a real Schur factor of a^T from
:func:`cascade_schur`, one LAPACK ``dgees`` call per diagonal block.
With one block it is one QR iteration on the whole matrix; with a
cascade's oscillator orders (its dynamics matrix is block lower
triangular) its sub-blocks serve the recursive routes. Those routes take
one such factor per call and call LAPACK directly, so a per-oscillator
step costs its triangular solves and their certificates, not scipy's
wrappers. :func:`solve_sylvester` wraps scipy's solver for general pairs
of matrices. :func:`solve_cascade_lyapunov` solves stacks
of cascade Lyapunov equations by block forward substitution, each step
between two one-mode blocks in closed form. Its stacks are stack-last,
(n, n, S) with the copy axis last and contiguous: the one layout of the
perturbed-cascade builder and of the stacked log-determinant, so no
stack is transposed between them. The dense Kronecker vectorization
solves the small complex z-domain equations and the steps between
blocks of other orders, and is the test oracle for the real routes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import EigFailure, NotHurwitz, SchemaError, SingularResolvent, SolverSingular

Matrix = np.ndarray

HURWITZ_TOL = 1e-9
RESIDUAL_TOL = 1e-9

#: generator of the antisymmetric matrices of order 2
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


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
    return scipy.linalg.expm(symplectic_form(h.shape[0]) @ h)


def symmetric_part(x: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of every matrix of a stack (..., r, r)."""
    return 0.5 * (x + x.swapaxes(-1, -2))


def checked_symmetric_part(x: np.ndarray, where: str = "") -> np.ndarray:
    """Symmetric part of a matrix ``x``, or of every matrix of a stack (K, r, r);
    SchemaError (prefixed by ``where``) when a matrix is asymmetric beyond
    1e-9 or its asymmetry is not a number."""
    asym = float(np.max(np.abs(x - x.swapaxes(-1, -2)))) if x.size else 0.0
    if not asym <= 1e-9:
        raise SchemaError(f"{where}asymmetry {asym:.3e} exceeds 1e-9")
    return symmetric_part(x)


def antisymmetric_part(x: Matrix) -> Matrix:
    return 0.5 * (x - x.T)


@lru_cache(maxsize=64)
def vech_indices(r: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the lower triangle of order r in the :func:`vech` order,
    column by column from the diagonal down; shared and read-only."""
    cols, rows = np.triu_indices(r)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def vech(x: Matrix) -> np.ndarray:
    """Column-wise vectorization of the lower triangle, diagonal included."""
    return x[vech_indices(x.shape[0])]


def vech_to_symmetric(v: np.ndarray, r: int) -> Matrix:
    """Inverse of :func:`vech` onto the symmetric matrices of order r."""
    rows, cols = vech_indices(r)
    out = np.empty((r, r))
    out[rows, cols] = out[cols, rows] = v
    return out


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


def hurwitz_flag(abscissa: float | np.ndarray, scale: float | np.ndarray) -> bool | np.ndarray:
    """The package's Hurwitz rule, elementwise: spectral abscissa below
    -HURWITZ_TOL x ``scale``, the size of the matrix it judges (its largest
    entry, or that of the operands it is formed from). The rule has no unit
    of time: scaling a matrix and its scale by c > 0 keeps the verdict, and a
    zero matrix is never Hurwitz."""
    return abscissa < -HURWITZ_TOL * scale


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
    column-major vec, real or complex (plain transpose on beta). Solves the
    complex z-domain equations, then :func:`certify_sylvester`, and is the
    independent oracle for the real Schur routes.
    """
    n, p = gamma.shape
    op = np.kron(np.eye(p), alpha) + np.kron(beta, np.eye(n))
    try:
        x = np.linalg.solve(op, -gamma.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise SolverSingular(f"vectorized system singular: {exc}") from exc
    return x.reshape((n, p), order="F")


def resolvent_solve(a: Matrix, b: Matrix, s: complex) -> Matrix:
    """(sI - a)^{-1} b by one LU solve, certified: SingularResolvent when s is
    in the spectrum of a, the solution overflows or its residual exceeds 1e-8
    of the scale max(1, ||(sI - a)^{-1} b|| ||sI - a||)."""
    resolvent = s * np.eye(a.shape[0]) - a
    try:
        f = np.linalg.solve(resolvent, b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"s = {s} is in the spectrum: {exc}") from exc
    if not np.all(np.isfinite(f)):
        raise SingularResolvent(f"resolvent overflow at s = {s}")
    res = np.linalg.norm(resolvent @ f - b)
    if res > 1e-8 * max(1.0, np.linalg.norm(f) * np.linalg.norm(resolvent)):
        raise SingularResolvent(f"resolvent solve lost accuracy at s = {s}")
    return f


_TINY = np.finfo(float).tiny
#: the BLAS ``nrm2`` that ``scipy.linalg.norm`` picks for a real or complex vector
_NRM2 = {c: scipy.linalg.get_blas_funcs("nrm2", dtype=np.dtype(c), ilp64="preferred") for c in "dD"}


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm by BLAS ``nrm2``, which scales as it sums: it overflows
    only where the norm itself does, not where the sum of squares would. The
    value of ``scipy.linalg.norm`` on the raveled x, without its per-call lookup."""
    v = np.asarray(x).ravel()
    nrm2 = _NRM2.get(v.dtype.char) if v.size else None
    return float(nrm2(v) if nrm2 else scipy.linalg.norm(v, check_finite=False))


def certify_sylvester(alpha: Matrix, beta: Matrix, gamma: Matrix, sigma: Matrix) -> None:
    """Raise SolverSingular unless sigma, real or complex, solves
    alpha*s + s*beta^T + gamma = 0 to a Frobenius residual within
    ``RESIDUAL_TOL`` of the scale ||sigma|| (||alpha|| + ||beta||) + ||gamma||,
    both finite: an infinite one means the equation does not fit in double
    precision, and no residual could fail against an infinite scale."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        residual = _frobenius(alpha @ sigma + sigma @ beta.T + gamma)
    scale = _frobenius(sigma) * (_frobenius(alpha) + _frobenius(beta)) + _frobenius(gamma)
    if not residual <= RESIDUAL_TOL * max(scale, _TINY) < np.inf:
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
    quasi-triangular in LAPACK's standard form, and every principal
    sub-block of s on oscillator boundaries is a real Schur form of the
    same sub-block of a^T (Jonsson and Kagstrom, 2002). Each W_k, S_k
    comes from one unsorted LAPACK ``dgees`` call, the factorization
    ``scipy.linalg.schur`` makes, without its per-call wrapper. One block,
    ``dims = (len(a),)``, is the dense factor of a matrix of no structure:
    nothing lies above its diagonal. Raises ValueError if a block above the
    diagonal is nonzero, SolverSingular if ``a`` has a non-finite entry or
    a block's QR iteration fails.
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
    s_k, _, _, _, w_k, _, info = scipy.linalg.lapack.dgees(_no_sort, a_kk.T)
    if info != 0:
        raise SolverSingular(f"Schur factorization of diagonal block {k} failed: info {info}")
    return s_k, w_k


def solve_cascade_sylvester(
    factor: CascadeSchur, rows: slice, cols: slice, gamma: Matrix, *, transpose: bool = False
) -> Matrix:
    """Certified solve of A_r X + X A_c^T + gamma = 0 on sub-blocks of a factor.

    For a :func:`cascade_schur` factor, A_r = a[rows, rows] and A_c =
    a[cols, cols] are principal sub-blocks on the boundaries of its
    blocks; a one-block factor serves the whole matrix only. ``transpose``
    solves A_r^T X + X A_c + gamma = 0 instead. One LAPACK ``dtrsyl`` call
    on sub-blocks of the factor, no QR iteration; the caller has checked
    stability. Raises SolverSingular if ``dtrsyl`` reports close spectra or
    rescales, or if the residual certificate fails.
    """
    w_r, w_c = factor.w[rows, rows], factor.w[cols, cols]
    trans = ("N", "T") if transpose else ("T", "N")
    x, scale, info = scipy.linalg.lapack.dtrsyl(
        factor.s[rows, rows], factor.s[cols, cols], -(w_r.T @ gamma @ w_c), *trans
    )
    if info != 0 or scale != 1.0:
        raise SolverSingular(f"triangular Sylvester solve: info {info}, scale {scale:.3e}")
    sigma = w_r @ x @ w_c.T
    a_r, a_c = factor.a[rows, rows], factor.a[cols, cols]
    if transpose:
        a_r, a_c = a_r.T, a_c.T
    certify_sylvester(a_r, a_c, gamma, sigma)
    return sigma


def solve_cascade_lyapunov(
    a: np.ndarray, q: np.ndarray, dims: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Solve A P + P A^T + Q = 0 for a stack-last stack of cascades.

    ``a`` and ``q`` have shape (n, n, S), the copy axis last: every
    ``a[..., s]`` is block lower triangular with diagonal block orders
    ``dims`` and ``q`` is taken symmetric. Block forward substitution
    (Bartels and Stewart, 1972) splits each equation into one small
    Sylvester problem per block (j, k) with j >= k, solved in column order
    k and then row order j:

        A_jj X + X A_kk^T = -(Q_jk + A_j,:o_j P_:o_j,k + P_j,:o_k A_k,:o_k^T)

    with o_j the state offset of block j. Every block entry is one
    contiguous vector over the stack, so the forcing sums are ``einsum``
    calls. A step between two one-mode blocks (d_j = d_k = 2) is closed
    form by Cayley-Hamilton; any other step solves the (d_j d_k)-order
    Kronecker system of every copy. The caller ensures that the diagonal
    blocks are Hurwitz.

    Returns the symmetric solutions, shape (n, n, S), and per copy the
    residual certificate ||A P + P A^T + Q|| / (2 ||A|| ||P|| + ||Q||)
    of the dense composite A in Frobenius norms, the same ratio
    :func:`solve_sylvester` bounds by ``RESIDUAL_TOL``, formed by
    :func:`_lyapunov_residual_ratio` without an (n, n, S) product.

    Raises
    ------
    ValueError
        If the shapes disagree with ``dims`` or a block above the
        diagonal holds a nonzero entry.
    """
    # einsum orders its sums by the operands' strides: a contiguous copy
    # makes the result independent of the caller's memory layout
    a = np.ascontiguousarray(a, dtype=float)
    q = np.ascontiguousarray(q, dtype=float)
    blocks, n = block_slices(dims), sum(dims)
    if a.ndim != 3 or a.shape[:2] != (n, n) or q.shape != a.shape:
        raise ValueError(
            f"a and q must have shape ({n}, {n}, S), got {a.shape} and {q.shape}"
        )
    block_upper_mask(dims, a)
    p = np.empty_like(q)
    for k, ck in enumerate(blocks):
        for j in range(k, len(dims)):
            rj = blocks[j]
            forcing = _symmetric_block(q, rj, ck)
            forcing += np.einsum("ils,lbs->ibs", a[rj, : rj.start], p[: rj.start, ck])
            forcing += np.einsum("ils,bls->ibs", p[rj, : ck.start], a[ck, : ck.start])
            x = _sylvester_step(a[rj, rj], a[ck, ck], forcing)
            if j == k:
                x = 0.5 * (x + x.transpose(1, 0, 2))
            p[rj, ck] = x
            p[ck, rj] = x.transpose(1, 0, 2)
    return p, _lyapunov_residual_ratio(a, q, p, blocks)


def _symmetric_block(q: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Block (rows, cols) of the symmetric part of a stack-last q, formed where it is read."""
    return 0.5 * (q[rows, cols] + q[cols, rows].transpose(1, 0, 2))


def _lyapunov_residual_ratio(
    a: np.ndarray, q: np.ndarray, p: np.ndarray, blocks: Sequence[slice]
) -> np.ndarray:
    """Per copy, ||A P + P A^T + Q|| / (2 ||A|| ||P|| + ||Q||) in Frobenius
    norms, Q the symmetric part of q, for stack-last block lower triangular
    ``a`` with diagonal blocks ``blocks``. R = A P + P A^T + Q is taken
    symmetric: block row j of its lower block triangle reads only A's lower
    block triangle up to block j, and a block left of the diagonal counts twice."""
    residual, q_norm2 = np.zeros((2, a.shape[2]))
    for rows in blocks:
        low = slice(0, rows.stop)
        q_row = _symmetric_block(q, rows, low)
        r = np.einsum("ils,ljs->ijs", a[rows, low], p[low, low])
        r += np.einsum("ils,jls->ijs", p[rows, low], a[low, low])
        r += q_row
        residual += _mirrored_norm2(r, rows.start)
        q_norm2 += _mirrored_norm2(q_row, rows.start)
    scale = 2.0 * np.sqrt(np.einsum("ijs,ijs->s", a, a) * np.einsum("ijs,ijs->s", p, p))
    return np.sqrt(residual) / np.maximum(scale + np.sqrt(q_norm2), _TINY)


def _mirrored_norm2(row: np.ndarray, diagonal: int) -> np.ndarray:
    """Per copy, the squared Frobenius norm that a symmetric stack's block row,
    taken up to its diagonal block at column ``diagonal``, adds to the whole."""
    left, block = row[:, :diagonal], row[:, diagonal:]
    return 2.0 * np.einsum("ijs,ijs->s", left, left) + np.einsum("ijs,ijs->s", block, block)


def _sylvester_step(alpha: np.ndarray, beta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """X with alpha X + X beta^T + f = 0 for stack-last blocks (d_j, d_k, S).

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
    op = np.einsum("acs,bd->sabcd", alpha, np.eye(d_k))
    op += np.einsum("ac,bds->sabcd", np.eye(d_j), beta)
    x = np.linalg.solve(
        op.reshape(stack, d_j * d_k, d_j * d_k), -f.transpose(2, 0, 1).reshape(stack, -1, 1)
    )
    return x.reshape(stack, d_j, d_k).transpose(1, 2, 0)


class SymplecticCheck(NamedTuple):
    residual: float
    det: float


def symplectic_residual(s: Matrix, theta: Matrix) -> SymplecticCheck:
    """Distance of S from the group preserving the form theta.

    Returns ||S theta S^T - theta|| together with det S; members have
    residual 0 and determinant 1.
    """
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    residual = float(np.linalg.norm(s @ theta @ s.T - theta))
    return SymplecticCheck(residual, float(np.linalg.det(s)))


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
