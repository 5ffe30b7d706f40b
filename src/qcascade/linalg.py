"""Dense linear-algebra kernels for small matrices.

Sylvester and Lyapunov solvers with stability preconditions, the
duplication matrix for half-vectorization, eigendecomposition-based
functions of symmetric matrices, and residual certificates for
symplectic membership and quantum admissibility.

Every production Sylvester solve is a certified Schur (Bartels-Stewart)
solve: one ``dtrsyl`` call on a real Schur factor of a^T, taken either
by one QR iteration on the whole matrix (:func:`dense_schur`) or, for
cascades, whose dynamics matrices are block lower triangular, from one
LAPACK ``dgees`` call per diagonal block (:func:`cascade_schur`), whose
sub-blocks serve the recursive routes. Those routes take one such factor
per call and call LAPACK directly, so a per-oscillator step costs its
triangular solves and their certificates, not scipy's wrappers.
:func:`solve_sylvester` wraps scipy's solver for
general pairs of matrices. :func:`solve_cascade_lyapunov` solves stacks
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
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import EigFailure, NotHurwitz, SolverSingular

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


def symmetric_part(x: Matrix) -> Matrix:
    return 0.5 * (x + x.T)


def antisymmetric_part(x: Matrix) -> Matrix:
    return 0.5 * (x - x.T)


def vech(x: Matrix) -> np.ndarray:
    """Column-wise vectorization of the lower triangle, diagonal included."""
    r = x.shape[0]
    return np.concatenate([x[j:, j] for j in range(r)])


def vech_to_symmetric(v: np.ndarray, r: int) -> Matrix:
    """Inverse of :func:`vech` onto the symmetric matrices of order r."""
    out = np.zeros((r, r))
    pos = 0
    for j in range(r):
        out[j:, j] = v[pos : pos + r - j]
        pos += r - j
    return out + np.tril(out, -1).T


def duplication_matrix(r: int) -> Matrix:
    """0/1 matrix mapping vech(M) to vec(M) for symmetric M of order r.

    Columns follow the :func:`vech` ordering; vec is column-major.
    """
    if r < 1:
        raise ValueError("order must be positive")
    ups = np.zeros((r * r, r * (r + 1) // 2))
    col = 0
    for j in range(r):
        for i in range(j, r):
            ups[j * r + i, col] = 1.0
            ups[i * r + j, col] = 1.0
            col += 1
    return ups


def is_hurwitz(a: Matrix) -> tuple[bool, float]:
    """Stability test. Returns (max real part < -HURWITZ_TOL, max real part of the spectrum)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix expected, got shape {a.shape}")
    try:
        margin = float(np.max(np.linalg.eigvals(a).real))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigensolve failed: {exc}") from exc
    return margin < -HURWITZ_TOL, margin


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


def certify_sylvester(alpha: Matrix, beta: Matrix, gamma: Matrix, sigma: Matrix) -> None:
    """Raise SolverSingular unless sigma, real or complex, solves
    alpha*s + s*beta^T + gamma = 0 to a Frobenius residual within
    ``RESIDUAL_TOL`` of ||alpha|| ||sigma|| + ||sigma|| ||beta|| + ||gamma||."""
    residual = np.linalg.norm(alpha @ sigma + sigma @ beta.T + gamma)
    sigma_norm = np.linalg.norm(sigma)
    scale = (
        np.linalg.norm(alpha) * sigma_norm
        + sigma_norm * np.linalg.norm(beta)
        + np.linalg.norm(gamma)
    )
    if not residual <= RESIDUAL_TOL * max(scale, np.finfo(float).tiny):
        raise SolverSingular(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} x scale {scale:.3e}"
        )


def solve_sylvester(alpha: Matrix, beta: Matrix, gamma: Matrix) -> Matrix:
    """Unique solution s, n x p, of alpha*s + s*beta^T + gamma = 0 by scipy's
    dense Schur solver, certified by :func:`certify_sylvester`.

    Raises ValueError on inconsistent shapes, SolverSingular on a
    non-finite entry, NotHurwitz unless alpha and beta have every
    eigenvalue real part below -HURWITZ_TOL, and SolverSingular if the
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
        ok, margin = is_hurwitz(mat)
        if not ok:
            raise NotHurwitz(f"{name} is not Hurwitz: max Re eig = {margin:.3e}")
    try:
        sigma = scipy.linalg.solve_sylvester(alpha, beta.T, -gamma)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverSingular(f"Schur solve failed: {exc}") from exc
    certify_sylvester(alpha, beta, gamma, sigma)
    return sigma


def solve_lyapunov(a: Matrix, q: Matrix) -> Matrix:
    """Unique solution P of a*P + P*a^T + q = 0 for Hurwitz a, symmetric q.

    The returned matrix is exactly symmetric.
    """
    q = symmetric_part(np.asarray(q, dtype=float))
    return symmetric_part(solve_sylvester(a, a, q))


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
    ``scipy.linalg.schur`` makes, without its per-call wrapper. Raises
    ValueError if a block above the diagonal is nonzero, SolverSingular
    if ``a`` has a non-finite entry or a block's QR iteration fails.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise SolverSingular("a has a non-finite entry")
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    block_id = np.repeat(np.arange(len(dims)), dims)
    upper = block_id[:, None] < block_id[None, :]
    if np.any(a[upper]):
        raise ValueError("a has a nonzero block above the diagonal")
    w = np.zeros_like(a)
    s = np.zeros_like(a)
    gees = scipy.linalg.lapack.dgees
    for k, (lo, hi) in enumerate(zip(offs[:-1], offs[1:])):
        s_k, _, _, _, w_k, _, info = gees(_no_sort, a[lo:hi, lo:hi].T)
        if info != 0:
            raise SolverSingular(f"Schur factorization of oscillator {k} failed: info {info}")
        s[lo:hi, lo:hi], w[lo:hi, lo:hi] = s_k, w_k
    s[upper] = (w.T @ a.T @ w)[upper]
    return CascadeSchur(a=a, w=w, s=s)


def _no_sort(wr: float, wi: float) -> None:
    """Eigenvalue selector of an unsorted ``dgees`` call, never called."""


def dense_schur(a: Matrix) -> CascadeSchur:
    """Real Schur factor a^T = w s w^T by one QR iteration on the whole of a^T.

    Assumes no structure in ``a``. A cascade's a^T is block upper
    triangular: for one-mode oscillators it is already upper Hessenberg
    and the iteration deflates at every block boundary, where a needs a
    full reduction and iteration. Raises SolverSingular if the iteration
    fails or ``a`` has a non-finite entry.
    """
    a = np.asarray(a, dtype=float)
    try:
        s, w = scipy.linalg.schur(a.T, output="real")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverSingular(f"Schur factorization failed: {exc}") from exc
    return CascadeSchur(a=a, w=w, s=s)


def solve_cascade_sylvester(
    factor: CascadeSchur, rows: slice, cols: slice, gamma: Matrix, *, transpose: bool = False
) -> Matrix:
    """Certified solve of A_r X + X A_c^T + gamma = 0 on sub-blocks of a factor.

    For a :func:`cascade_schur` factor, A_r = a[rows, rows] and A_c =
    a[cols, cols] are principal sub-blocks on oscillator boundaries; a
    :func:`dense_schur` factor serves the whole matrix only. ``transpose``
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
    :func:`solve_sylvester` bounds by ``RESIDUAL_TOL``.

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
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    n = int(offs[-1])
    if a.ndim != 3 or a.shape[:2] != (n, n) or q.shape != a.shape:
        raise ValueError(
            f"a and q must have shape ({n}, {n}, S), got {a.shape} and {q.shape}"
        )
    block_id = np.repeat(np.arange(len(dims)), dims)
    if np.any(a[block_id[:, None] < block_id[None, :]]):
        raise ValueError("a has a nonzero block above the diagonal")
    p = np.empty_like(q)
    blocks = [slice(lo, hi) for lo, hi in zip(offs[:-1], offs[1:])]

    def q_sym(rows: slice, cols: slice) -> np.ndarray:
        # block of the symmetric part of q, formed where it is read
        return 0.5 * (q[rows, cols] + q[cols, rows].transpose(1, 0, 2))

    for k, ck in enumerate(blocks):
        for j in range(k, len(dims)):
            rj = blocks[j]
            forcing = q_sym(rj, ck) + np.einsum("ils,lbs->ibs", a[rj, : offs[j]], p[: offs[j], ck])
            forcing += np.einsum("ils,bls->ibs", p[rj, : offs[k]], a[ck, : offs[k]])
            x = _sylvester_step(a[rj, rj], a[ck, ck], forcing)
            if j == k:
                x = 0.5 * (x + x.transpose(1, 0, 2))
            p[rj, ck] = x
            p[ck, rj] = x.transpose(1, 0, 2)
    # P is exactly symmetric, so P A^T is (A P)^T to the bit
    ap = np.einsum("ils,ljs->ijs", a, p)
    residual, q_norm2 = np.zeros((2, a.shape[2]))
    for rows in blocks:  # one block row at a time: no further (n, n, S) array
        q_rows = q_sym(rows, slice(None))
        r = ap[rows] + ap[:, rows].transpose(1, 0, 2) + q_rows
        residual += np.einsum("ijs,ijs->s", r, r)
        q_norm2 += np.einsum("ijs,ijs->s", q_rows, q_rows)
    scale = 2.0 * np.sqrt(np.einsum("ijs,ijs->s", a, a) * np.einsum("ijs,ijs->s", p, p))
    return p, np.sqrt(residual) / np.maximum(scale + np.sqrt(q_norm2), np.finfo(float).tiny)


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


def symmetric_matrix_function(f: Callable[[float], float], x: Matrix) -> Matrix:
    """Evaluate a scalar function at a real symmetric matrix.

    Uses the eigendecomposition x = V diag(w) V^T with orthogonal V and
    returns V diag(f(w)) V^T, which commutes with x.
    """
    x = np.asarray(x, dtype=float)
    try:
        w, v = np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"symmetric eigensolve failed: {exc}") from exc
    # eigh propagates NaN silently on some BLAS backends
    if not np.all(np.isfinite(w)):
        raise EigFailure("symmetric eigensolve returned non-finite spectrum")
    fw = np.array([f(wi) for wi in w], dtype=float)
    return symmetric_part((v * fw) @ v.T)


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
