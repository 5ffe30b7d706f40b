"""Infinite cascades of identical oscillators, analyzed in a z-domain.

The running variables of an infinite series of copies of one oscillator
admit a one-parameter family of state-space models indexed by a complex
scalar z != 1:

    A_z = A + B C / (z - 1),   B_z = B / (z - 1),
    C_z = z C / (z - 1),       D_z = z I / (z - 1).

A member is in the stability set when A_z passes the package's one
Hurwitz rule, :func:`linalg.is_hurwitz`, on the scale of the operands
of A_z. Cross-covariances between two family members solve a complex
Sylvester equation whose forcing carries Omega = I + i J.

The module also provides H2 and Hinf norms of the base oscillator (Hinf
by a Hamiltonian level-set iteration) and the geometric trace bound for
the per-oscillator covariances along the cascade. Complex Sylvester
equations are certified Kronecker solves from :mod:`linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import stationary_covariance
from .errors import BisectionFailure, EigFailure, NotHurwitz, NotInStabilitySet, ZAtOne
from .linalg import (
    Matrix,
    block_slices,
    certify_sylvester,
    is_hurwitz,
    resolvent_solve,
    sylvester_kron_solve,
    symplectic_form,
)
from .oscillator import (
    OscillatorParams,
    OscillatorRealization,
    _write_series,
    oscillator_realization,
    transfer_eval,
)

HINF_REL_TOL = 1e-9
HINF_IMAG_TOL = 1e-7
HINF_MAX_ITERATIONS = 50


@dataclass(frozen=True)
class TIModel:
    """One oscillator acting as the repeated unit of an infinite cascade.

    ``p`` caches the controllability Gramian of (A, B). ``j_ito`` is None
    when the input field carries no canonical antisymmetric form (then
    Omega = I). Built by :meth:`from_matrices`, whose stability check the
    norm and trace-bound routes rely on.
    """

    a: Matrix
    b: Matrix
    c: Matrix
    j_ito: Matrix | None
    p: Matrix

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @classmethod
    def from_oscillator(cls, params: OscillatorParams) -> "TIModel":
        real = oscillator_realization(params)
        return cls.from_matrices(real.a, real.b, real.c, symplectic_form(params.m))

    @classmethod
    def from_matrices(
        cls, a: Matrix, b: Matrix, c: Matrix, j_ito: Matrix | None = None
    ) -> "TIModel":
        stable, margin = is_hurwitz(a, np.max(np.abs(a)))
        if not stable:
            raise NotHurwitz(f"dynamics matrix has spectral abscissa {margin:.3e}")
        return cls(a=a, b=b, c=c, j_ito=j_ito, p=stationary_covariance(a, b))

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

    The stability flag, :func:`is_hurwitz` of A_z on the scale
    max|A| + |1/(z - 1)| max|B| max|C| of its operands, is the checkable
    membership test for the admissible set of z values.
    """
    z = complex(z)
    if abs(z - 1.0) <= 1e-12 * max(1.0, abs(z)):
        raise ZAtOne("the family is undefined at z = 1")
    w = 1.0 / (z - 1.0)
    a_z = model.a + w * (model.b @ model.c)
    b_z = w * model.b
    c_z = z * w * model.c
    d_z = z * w * np.eye(model.m)
    scale = np.max(np.abs(model.a)) + abs(w) * np.max(np.abs(model.b)) * np.max(np.abs(model.c))
    return ZPoint(a_z=a_z, b_z=b_z, c_z=c_z, d_z=d_z, is_stable=is_hurwitz(a_z, scale)[0])


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
    return resolvent_solve(pt.a_z, pt.b_z, s)


def _stable_points(model: TIModel, z: complex, v: complex) -> tuple[ZPoint, ZPoint]:
    pz, pv = z_domain_matrices(model, z), z_domain_matrices(model, v)
    for name, value, point in (("z", z, pz), ("v", v, pv)):
        if not point.is_stable:
            raise NotInStabilitySet(f"{name} = {value} gives an unstable family member")
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
    residual.
    """
    return _certified_cross_solve(model, z, v, model.omega())


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


def phi_z_h2_norm(model: TIModel, z: complex) -> float:
    """H2 norm of the z-family transfer (A_z, B_z): the square root of the
    real trace of its Gramian, the symmetric sector at (z, conj z)."""
    gram = cross_covariance_symmetric_sector(model, z, np.conj(z))
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        top = np.hstack([a - w * (b @ c), -gamma * w * (b @ b.T)])
        bottom = np.hstack([gamma * w * (c.T @ c), -a.T + w * (c.T @ b.T)])
    hamiltonian = np.vstack([top, bottom])
    if not np.isfinite(hamiltonian).all():
        raise EigFailure(f"Hamiltonian matrix of level {gamma:.10g} has a non-finite entry")
    eigs = np.linalg.eigvals(hamiltonian)
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
    a_full, b_full, _ = _write_series(
        [(model.a[..., None], model.b[..., None], model.c[..., None])] * k_max
    )
    p_full = stationary_covariance(a_full[..., 0], b_full[..., 0])
    h2 = h2_norm(model)
    hinf = hinf_norm(model)
    return TraceBoundResult(
        traces=tuple(float(np.trace(p_full[blk, blk])) for blk in block_slices((model.n,) * k_max)),
        bounds=tuple(2.0 * h2 * h2 * hinf ** (2 * k) for k in range(k_max)),
        h2=h2,
        hinf=hinf,
    )
