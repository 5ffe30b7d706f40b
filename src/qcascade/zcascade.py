"""Infinite cascades of identical oscillators, analyzed in a z-domain.

The running variables of an infinite series of copies of one oscillator
admit a one-parameter family of state-space models indexed by a complex
scalar z != 1:

    A_z = A + B C / (z - 1),   B_z = B / (z - 1),
    C_z = z C / (z - 1),       D_z = z I / (z - 1).

Cross-covariances between two family members solve a complex Sylvester
equation whose forcing carries Omega = I + i J; the same object is a
rational function of (z, v) and the generating function of the block
covariances of the finite cascade, up to the exactly summable
commutation sector i Theta / (z v - 1).

The module also provides H2 and Hinf norms of the base oscillator and
the geometric trace bound for the per-oscillator covariances along the
cascade. Complex-valued solves are confined to this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .covariance import invariant_covariance_direct, stationary_covariance
from .errors import (
    BisectionFailure,
    NotHurwitz,
    NotInStabilitySet,
    SolverSingular,
    ZAtOne,
)
from .linalg import Matrix, is_hurwitz, symplectic_form
from .oscillator import (
    OscillatorParams,
    _write_series,
    assemble_cascade,
    oscillator_realization,
)

HINF_REL_TOL = 1e-6
HINF_IMAG_TOL = 1e-7
SERIES_TAIL_TARGET = 1e-8
SERIES_MAX_DEPTH = 40


@dataclass(frozen=True)
class TIModel:
    """One oscillator acting as the repeated unit of an infinite cascade.

    ``p`` caches the controllability Gramian of (A, B). ``params`` is
    set for oscillator-backed models and enables the series route of
    :func:`cross_covariance`; matrix-backed models support the norm and
    z-domain operations only. ``j_ito`` is None when the input field
    carries no canonical antisymmetric form (then Omega = I). Built by
    :meth:`from_matrices`, whose stability check the norm and trace-bound
    routes rely on.
    """

    a: Matrix
    b: Matrix
    c: Matrix
    j_ito: Matrix | None
    p: Matrix
    params: OscillatorParams | None = None

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @classmethod
    def from_oscillator(cls, params: OscillatorParams) -> "TIModel":
        j = symplectic_form(params.m)
        real = oscillator_realization(params, j)
        return replace(cls.from_matrices(real.a, real.b, real.c, j), params=params)

    @classmethod
    def from_matrices(
        cls, a: Matrix, b: Matrix, c: Matrix, j_ito: Matrix | None = None
    ) -> "TIModel":
        stable, margin = is_hurwitz(a)
        if not stable:
            raise NotHurwitz(f"dynamics matrix has spectral abscissa {margin:.3e}")
        return cls(a=a, b=b, c=c, j_ito=j_ito, p=stationary_covariance(a, b), params=None)

    def omega(self) -> np.ndarray:
        if self.j_ito is None:
            return np.eye(self.m, dtype=complex)
        return np.eye(self.m) + 1j * self.j_ito


@dataclass(frozen=True)
class ZPoint:
    z: complex
    a_z: np.ndarray
    b_z: np.ndarray
    c_z: np.ndarray
    d_z: np.ndarray
    is_stable: bool


def z_domain_matrices(model: TIModel, z: complex) -> ZPoint:
    """State-space matrices of the z-indexed family member.

    The stability flag records whether A_z is Hurwitz, which is the
    checkable membership test for the admissible set of z values.
    """
    z = complex(z)
    if abs(z - 1.0) <= 1e-12 * max(1.0, abs(z)):
        raise ZAtOne("the family is undefined at z = 1")
    w = 1.0 / (z - 1.0)
    a_z = model.a + w * (model.b @ model.c)
    b_z = w * model.b
    c_z = z * w * model.c
    d_z = z * w * np.eye(model.m)
    abscissa = float(np.max(np.linalg.eigvals(a_z).real))
    return ZPoint(
        z=z, a_z=a_z, b_z=b_z, c_z=c_z, d_z=d_z, is_stable=abscissa < 0.0
    )


def z_pr_residual(model: TIModel, theta: Matrix, z: complex, v: complex) -> float:
    """Residual of A_z Theta + Theta A_v^T + (z v - 1) B_z J B_v^T.

    An exact rational identity in (z, v) for physically realizable
    (A, B, C); evaluating it at conjugated points covers the starred
    form as well.
    """
    if model.j_ito is None:
        raise ValueError("identity requires a canonical field form")
    pz = z_domain_matrices(model, z)
    pv = z_domain_matrices(model, v)
    res = (
        pz.a_z @ theta
        + theta @ pv.a_z.T
        + (z * v - 1.0) * pz.b_z @ model.j_ito @ pv.b_z.T
    )
    return float(np.linalg.norm(res))


def transfer_pair(model: TIModel, s: complex) -> tuple[np.ndarray, np.ndarray]:
    """F(s) = (sI - A)^{-1} B and G(s) = C F(s) + I of the base unit."""
    f = np.linalg.solve(s * np.eye(model.n) - model.a, model.b.astype(complex))
    return f, model.c @ f + np.eye(model.m)


def phi_z_resolvent(model: TIModel, z: complex, s: complex) -> np.ndarray:
    """Transfer (sI - A_z)^{-1} B_z of the z-family member."""
    pt = z_domain_matrices(model, z)
    return np.linalg.solve(s * np.eye(model.n) - pt.a_z, pt.b_z)


def phi_z_feedback(model: TIModel, z: complex, s: complex) -> np.ndarray:
    """Same transfer through the base unit: F(s) (z I - G(s))^{-1}."""
    f, g = transfer_pair(model, s)
    return f @ np.linalg.inv(z * np.eye(model.m) - g)


def _complex_sylvester(
    alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Solve alpha X + X beta^T + gamma = 0 with complex entries.

    Kronecker vectorization in column-major order; the plain transpose
    on beta is deliberate, conjugation is up to the caller.
    """
    n = alpha.shape[0]
    p = beta.shape[0]
    op = np.kron(np.eye(p), alpha) + np.kron(beta, np.eye(n))
    try:
        vec = np.linalg.solve(op, -gamma.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise SolverSingular(f"spectra of the two factors overlap: {exc}") from exc
    x = vec.reshape((n, p), order="F")
    residual = np.linalg.norm(alpha @ x + x @ beta.T + gamma)
    scale = max(
        1.0,
        np.linalg.norm(alpha) * np.linalg.norm(x)
        + np.linalg.norm(x) * np.linalg.norm(beta)
        + np.linalg.norm(gamma),
    )
    if not residual <= 1e-9 * scale:
        raise SolverSingular(f"solution residual {residual:.3e} exceeds tolerance")
    return x


def _stable_points(model: TIModel, z: complex, v: complex) -> tuple[ZPoint, ZPoint]:
    pz = z_domain_matrices(model, z)
    pv = z_domain_matrices(model, v)
    if not pz.is_stable:
        raise NotInStabilitySet(f"z = {z} gives an unstable family member")
    if not pv.is_stable:
        raise NotInStabilitySet(f"v = {v} gives an unstable family member")
    return pz, pv


def cross_covariance(
    model: TIModel,
    z: complex,
    v: complex,
    method: str = "sylvester",
    depth: int | None = None,
) -> np.ndarray:
    """Steady-state cross-covariance of the (z, v) pair of members.

    Methods: "sylvester" solves A_z P + P A_v^T + B_z Omega B_v^T = 0
    directly; "generating" evaluates the rational closed form built on
    K and L; "series" sums the block covariances of a finite identical
    cascade and adds the commutation sector i Theta / (z v - 1) in
    closed form. All three agree to solver accuracy inside the common
    domain.
    """
    if method == "sylvester":
        pz, pv = _stable_points(model, z, v)
        forcing = pz.b_z @ model.omega() @ pv.b_z.T
        return _complex_sylvester(pz.a_z, pv.a_z, forcing)
    if method == "generating":
        return _generating_function_route(model, z, v)
    if method == "series":
        return _series_route(model, z, v, depth)
    raise ValueError(f"unknown method {method!r}")


def _generating_function_route(model: TIModel, z: complex, v: complex) -> np.ndarray:
    _stable_points(model, z, v)
    n = model.n
    eye_n = np.eye(n)
    a_sum = np.kron(eye_n, model.a) + np.kron(model.a, eye_n)
    bc = model.b @ model.c
    a_sum_inv = np.linalg.inv(a_sum)
    k_mat = a_sum_inv @ np.kron(bc, eye_n)
    l_mat = a_sum_inv @ np.kron(eye_n, bc)
    core = (
        np.eye(n * n)
        + k_mat / (v - 1.0)
        + l_mat / (z - 1.0)
    )
    rhs = a_sum_inv @ (model.b @ model.omega() @ model.b.T).reshape(-1, order="F")
    vec = -np.linalg.solve(core, rhs) / ((z - 1.0) * (v - 1.0))
    return vec.reshape((n, n), order="F")


def series_depth_for(model: TIModel, z: complex, v: complex) -> int:
    """Smallest truncation depth whose tail bound is below the target."""
    for depth in range(2, SERIES_MAX_DEPTH + 1):
        if series_tail_bound(model, z, v, depth) < SERIES_TAIL_TARGET:
            return depth
    return SERIES_MAX_DEPTH


def series_tail_bound(model: TIModel, z: complex, v: complex, depth: int) -> float:
    """Bound on the dropped series mass beyond the given depth.

    Uses |P_jk| <= 2 |F|_2^2 |G|_inf^{j+k-2} and geometric sums over the
    index region where j or k exceeds the depth.
    """
    gnorm = hinf_norm(model)
    f2sq = float(np.trace(model.p))
    qz = gnorm / abs(z)
    qv = gnorm / abs(v)
    if qz >= 1 or qv >= 1:
        return float("inf")

    def geo(q: float, start: int) -> float:
        return q**start / (1.0 - q)

    full_v = geo(qv, 1)
    tail = geo(qz, depth + 1) * full_v + geo(qz, 1) * geo(qv, depth + 1)
    return 2.0 * f2sq / gnorm**2 * tail


def _series_route(
    model: TIModel, z: complex, v: complex, depth: int | None = None
) -> np.ndarray:
    if model.params is None:
        raise ValueError("series route requires an oscillator-backed model")
    _stable_points(model, z, v)
    if depth is None:
        depth = series_depth_for(model, z, v)
    cascade = assemble_cascade([model.params] * depth)
    p_full = invariant_covariance_direct(cascade)
    n = model.n
    total = np.zeros((n, n), dtype=complex)
    for j in range(1, depth + 1):
        rows = slice((j - 1) * n, j * n)
        for k in range(1, depth + 1):
            cols = slice((k - 1) * n, k * n)
            total += z ** (-j) * v ** (-k) * p_full[rows, cols]
    theta = model.params.theta
    total += 1j * theta / (z * v - 1.0)
    return total


def cross_covariance_symmetric_sector(
    model: TIModel, z: complex, v: complex
) -> np.ndarray:
    """Cross-covariance with the commutation sector removed.

    Solves the same Sylvester equation with forcing B_z B_v^T; this part
    is symmetric under (z, v) exchange combined with transposition,
    conjugate-symmetric in (z, v), and real symmetric at real z = v.
    """
    pz, pv = _stable_points(model, z, v)
    return _complex_sylvester(pz.a_z, pv.a_z, pz.b_z @ pv.b_z.T.astype(complex))


def h2_norm(model: TIModel) -> float:
    """H2 norm of the variable-side transfer, sqrt of the Gramian trace."""
    return float(np.sqrt(np.trace(model.p)))


def h2_norm_quadrature(model: TIModel, rel_tol: float = 1e-8) -> float:
    """H2 norm by direct frequency integration, solver-independent."""
    a, b = model.a, model.b
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    lam_max = 100.0 * max(1.0, radius)
    eye = np.eye(model.n)

    def integrand(lam: float) -> float:
        f = np.linalg.solve(1j * lam * eye - a, b.astype(complex))
        return float(np.linalg.norm(f) ** 2) / (2.0 * np.pi)

    from scipy.integrate import quad

    val, _ = quad(
        integrand, -lam_max, lam_max, epsabs=rel_tol, epsrel=rel_tol, limit=800
    )
    val += float(np.linalg.norm(b) ** 2) / (np.pi * lam_max)
    return float(np.sqrt(val))


def phi_z_h2_norm(model: TIModel, z: complex) -> float:
    """H2 norm of the z-family transfer (A_z, B_z)."""
    pt = z_domain_matrices(model, z)
    if not pt.is_stable:
        raise NotInStabilitySet(f"z = {z} gives an unstable family member")
    gram = _complex_sylvester(
        pt.a_z, np.conj(pt.a_z), pt.b_z @ np.conj(pt.b_z).T
    )
    return float(np.sqrt(np.real(np.trace(gram))))


def _hamiltonian_has_imaginary_eig(model: TIModel, gamma: float) -> bool:
    n = model.n
    a, b, c = model.a, model.b, model.c
    w = 1.0 / (1.0 - gamma * gamma)
    top = np.hstack([a - w * (b @ c), -gamma * w * (b @ b.T)])
    bottom = np.hstack([gamma * w * (c.T @ c), -a.T + w * (c.T @ b.T)])
    ham = np.vstack([top, bottom])
    eigs = np.linalg.eigvals(ham)
    return bool(np.any(np.abs(eigs.real) <= HINF_IMAG_TOL * np.maximum(1.0, np.abs(eigs))))


def hinf_norm(model: TIModel) -> float:
    """Hinf norm of the field-side transfer G(s) = C (sI - A)^{-1} B + I.

    Bisection on the level gamma: for gamma above the unit feedthrough
    gain, gamma < |G|_inf exactly when the associated Hamiltonian matrix
    has an eigenvalue on the imaginary axis. The lower bracket starts
    just above 1; the upper bracket comes from a coarse frequency sweep
    and is doubled until it clears the peak. Returns the upper end of
    the final bracket, an upper bound on the norm within relative
    ``HINF_REL_TOL``, so that bounds built from it stay upper bounds.
    The model's A is Hurwitz, as :meth:`TIModel.from_matrices` checked.
    """
    lo = 1.0 + 1e-9
    if not _hamiltonian_has_imaginary_eig(model, lo):
        return 1.0
    radius = float(np.max(np.abs(np.linalg.eigvals(model.a))))
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 100.0 * max(1.0, radius), 120)])
    peak = 1.0
    eye = np.eye(model.n)
    for lam in grid:
        f = np.linalg.solve(1j * lam * eye - model.a, model.b.astype(complex))
        g = model.c @ f + np.eye(model.m)
        peak = max(peak, float(np.linalg.norm(g, 2)))
    hi = 1.05 * peak
    doublings = 0
    while _hamiltonian_has_imaginary_eig(model, hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise BisectionFailure("no finite upper bracket for the gain level")
    iterations = 0
    while hi - lo > HINF_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _hamiltonian_has_imaginary_eig(model, mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
        if iterations > 200:
            raise BisectionFailure("gain bisection did not close its bracket")
    return hi


@dataclass(frozen=True)
class TraceBoundResult:
    traces: tuple[float, ...]
    bounds: tuple[float, ...]
    h2: float
    hinf: float


def covariance_trace_bound(model: TIModel, k_max: int) -> TraceBoundResult:
    """Per-position covariance traces against the geometric growth bound.

    Builds the series connection of k_max copies of the unit, extracts
    the diagonal covariance blocks and compares Tr P_kk with
    2 |F|_2^2 |G|_inf^{2(k-1)}. The bound sequence grows exactly
    geometrically with ratio |G|_inf^2. The chain is Hurwitz because its
    block-triangular A has the unit's spectrum.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    n = model.n
    a_full, b_full, _ = _write_series([(model.a[None], model.b[None], model.c[None])] * k_max)
    p_full = stationary_covariance(a_full[0], b_full[0])
    h2 = h2_norm(model)
    hinf = hinf_norm(model)
    traces = []
    bounds = []
    for k in range(1, k_max + 1):
        blk = slice((k - 1) * n, k * n)
        traces.append(float(np.trace(p_full[blk, blk])))
        bounds.append(2.0 * h2 * h2 * hinf ** (2 * (k - 1)))
    return TraceBoundResult(
        traces=tuple(traces), bounds=tuple(bounds), h2=h2, hinf=hinf
    )
