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

The module also provides H2 and Hinf norms of the base oscillator (Hinf
by a Hamiltonian level-set iteration) and the geometric trace bound for
the per-oscillator covariances along the cascade. Complex Sylvester
equations are certified Kronecker solves from :mod:`linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .covariance import invariant_covariance_direct, stationary_covariance
from .errors import (
    BisectionFailure,
    NotHurwitz,
    NotInStabilitySet,
    ZAtOne,
)
from .linalg import Matrix, certify_sylvester, is_hurwitz, sylvester_kron_solve, symplectic_form
from .oscillator import (
    OscillatorParams,
    OscillatorRealization,
    _write_series,
    assemble_cascade,
    oscillator_realization,
    transfer_eval,
)

HINF_REL_TOL = 1e-9
HINF_IMAG_TOL = 1e-7
HINF_MAX_ITERATIONS = 50
SERIES_TAIL_TARGET = 1e-8
SERIES_MAX_DEPTH = 40


@dataclass(frozen=True)
class TIModel:
    """One oscillator acting as the repeated unit of an infinite cascade.

    ``p`` caches the controllability Gramian of (A, B). ``params`` is
    set for oscillator-backed models and enables
    :func:`cross_covariance_series`; matrix-backed models support the
    norm and z-domain operations only. ``j_ito`` is None when the input field
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
        a_z=a_z, b_z=b_z, c_z=c_z, d_z=d_z, is_stable=abscissa < 0.0
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


def phi_z_resolvent(model: TIModel, z: complex, s: complex) -> np.ndarray:
    """Transfer (sI - A_z)^{-1} B_z of the z-family member."""
    pt = z_domain_matrices(model, z)
    return np.linalg.solve(s * np.eye(model.n) - pt.a_z, pt.b_z)


def phi_z_feedback(model: TIModel, z: complex, s: complex) -> np.ndarray:
    """Same transfer through the base unit: F(s) (z I - G(s))^{-1}."""
    f, g = transfer_eval(OscillatorRealization(model.a, model.b, model.c), s)
    return f @ np.linalg.inv(z * np.eye(model.m) - g)


def _stable_points(model: TIModel, z: complex, v: complex) -> tuple[ZPoint, ZPoint]:
    pz = z_domain_matrices(model, z)
    pv = z_domain_matrices(model, v)
    if not pz.is_stable:
        raise NotInStabilitySet(f"z = {z} gives an unstable family member")
    if not pv.is_stable:
        raise NotInStabilitySet(f"v = {v} gives an unstable family member")
    return pz, pv


def _certified_cross_solve(model: TIModel, z: complex, v: complex, weight: Matrix) -> np.ndarray:
    """Certified solution X of A_z X + X A_v^T + B_z W B_v^T = 0."""
    pz, pv = _stable_points(model, z, v)
    forcing = pz.b_z @ weight @ pv.b_z.T
    x = sylvester_kron_solve(pz.a_z, pv.a_z, forcing)
    certify_sylvester(pz.a_z, pv.a_z, forcing, x)
    return x


def cross_covariance(model: TIModel, z: complex, v: complex) -> np.ndarray:
    """Steady-state cross-covariance of the (z, v) pair of members.

    Solves A_z P + P A_v^T + B_z Omega B_v^T = 0 and certifies the
    residual. The oracles :func:`cross_covariance_generating` and
    :func:`cross_covariance_series` agree with it to solver accuracy
    inside the common domain.
    """
    return _certified_cross_solve(model, z, v, model.omega())


def cross_covariance_generating(model: TIModel, z: complex, v: complex) -> np.ndarray:
    """Oracle for :func:`cross_covariance`: the rational closed form in
    (z, v) built on K and L."""
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
    gnorm = hinf_norm(model)
    for depth in range(2, SERIES_MAX_DEPTH + 1):
        if _tail_bound(model, gnorm, z, v, depth) < SERIES_TAIL_TARGET:
            return depth
    return SERIES_MAX_DEPTH


def series_tail_bound(model: TIModel, z: complex, v: complex, depth: int) -> float:
    """Bound on the dropped series mass beyond the given depth.

    Uses |P_jk| <= 2 |F|_2^2 |G|_inf^{j+k-2} and geometric sums over the
    index region where j or k exceeds the depth.
    """
    return _tail_bound(model, hinf_norm(model), z, v, depth)


def _tail_bound(model: TIModel, gnorm: float, z: complex, v: complex, depth: int) -> float:
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


def cross_covariance_series(model: TIModel, z: complex, v: complex) -> np.ndarray:
    """Oracle for :func:`cross_covariance`: the block covariances of a
    finite identical cascade (as many copies as :func:`series_depth_for`
    gives) summed with weights z^-j v^-k, plus the commutation sector
    i Theta / (z v - 1) in closed form."""
    if model.params is None:
        raise ValueError("series route requires an oscillator-backed model")
    _stable_points(model, z, v)
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
    return _certified_cross_solve(model, z, v, np.eye(model.m))


def h2_norm(model: TIModel) -> float:
    """H2 norm of the variable-side transfer, sqrt of the Gramian trace."""
    return float(np.sqrt(np.trace(model.p)))


def h2_norm_quadrature(model: TIModel) -> float:
    """H2 norm by direct frequency integration, solver-independent, to an
    absolute and relative tolerance of 1e-8."""
    a, b = model.a, model.b
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    lam_max = 100.0 * max(1.0, radius)
    eye = np.eye(model.n)

    def integrand(lam: float) -> float:
        f = np.linalg.solve(1j * lam * eye - a, b.astype(complex))
        return float(np.linalg.norm(f) ** 2) / (2.0 * np.pi)

    from scipy.integrate import quad

    val, _ = quad(integrand, -lam_max, lam_max, epsabs=1e-8, epsrel=1e-8, limit=800)
    val += float(np.linalg.norm(b) ** 2) / (np.pi * lam_max)
    return float(np.sqrt(val))


def phi_z_h2_norm(model: TIModel, z: complex) -> float:
    """H2 norm of the z-family transfer (A_z, B_z)."""
    pt = z_domain_matrices(model, z)
    if not pt.is_stable:
        raise NotInStabilitySet(f"z = {z} gives an unstable family member")
    forcing = pt.b_z @ np.conj(pt.b_z).T
    gram = sylvester_kron_solve(pt.a_z, np.conj(pt.a_z), forcing)
    certify_sylvester(pt.a_z, np.conj(pt.a_z), forcing, gram)
    return float(np.sqrt(np.real(np.trace(gram))))


def _gain(model: TIModel, w: float) -> float:
    """Largest singular value of G(i w)."""
    _, g = transfer_eval(OscillatorRealization(model.a, model.b, model.c), 1j * w)
    return float(np.linalg.norm(g, 2))


def _crossing_frequencies(model: TIModel, gamma: float) -> np.ndarray:
    """Sorted w > 0 at which gamma != 1 is a singular value of G(i w): the
    imaginary-axis eigenvalues i w of the Hamiltonian matrix of level gamma."""
    a, b, c = model.a, model.b, model.c
    w = 1.0 / (1.0 - gamma * gamma)
    top = np.hstack([a - w * (b @ c), -gamma * w * (b @ b.T)])
    bottom = np.hstack([gamma * w * (c.T @ c), -a.T + w * (c.T @ b.T)])
    eigs = np.linalg.eigvals(np.vstack([top, bottom]))
    on_axis = np.abs(eigs.real) <= HINF_IMAG_TOL * np.maximum(1.0, np.abs(eigs))
    return np.sort(eigs.imag[on_axis & (eigs.imag > 0.0)])


def hinf_norm(model: TIModel) -> float:
    """Hinf norm of the field-side transfer G(s) = C (sI - A)^{-1} B + I.

    Level-set iteration (Boyd and Balakrishnan, 1990; Bruinsma and
    Steinbuch, 1990): lo starts at the largest gain at frequency 0 and at
    the pole magnitudes; the gain crosses hi = lo (1 + ``HINF_REL_TOL``)
    at the Hamiltonian crossing frequencies, and lo moves up to the
    largest gain at the midpoints of consecutive crossings. Once no
    midpoint gain exceeds hi (also when the only crossings are a tangency
    within the axis tolerance), hi is returned: an upper bound within
    relative ``HINF_REL_TOL``, so bounds built from it stay upper bounds.
    Returns exactly 1.0 when the gain never exceeds 1 + 1e-9. A is
    Hurwitz, as :meth:`TIModel.from_matrices` checked.
    """
    floor = 1.0 + 1e-9
    if not _crossing_frequencies(model, floor).size:
        return 1.0
    poles = np.abs(np.linalg.eigvals(model.a))
    lo = max([floor] + [_gain(model, w) for w in np.concatenate([[0.0], poles])])
    for _ in range(HINF_MAX_ITERATIONS):
        hi = lo * (1.0 + HINF_REL_TOL)
        cross = _crossing_frequencies(model, hi)
        top = max((_gain(model, w) for w in 0.5 * (cross[1:] + cross[:-1])), default=0.0)
        if top <= hi:
            return hi
        lo = top
    raise BisectionFailure(f"could not close the gain bracket in {HINF_MAX_ITERATIONS} steps")


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
    a_full, b_full, _ = _write_series(
        [(model.a[..., None], model.b[..., None], model.c[..., None])] * k_max
    )
    p_full = stationary_covariance(a_full[..., 0], b_full[..., 0])
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
