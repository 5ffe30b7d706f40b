import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import make_oscillator
from qcascade.errors import (
    NoConvergence,
    NotHurwitz,
    NotInStabilitySet,
    SingularResolvent,
    SolverSingular,
    ZAtOne,
)
from qcascade.linalg import certify_sylvester, sylvester_kron_solve
from qcascade.oracles import (
    cross_covariance_generating,
    cross_covariance_series,
    h2_norm_quadrature,
    phi_z_feedback,
    series_depth_for,
    series_tail_bound,
)
from qcascade.zcascade import (
    TIModel,
    cross_covariance,
    cross_covariance_symmetric_sector,
    covariance_trace_bound,
    h2_norm,
    hinf_norm,
    phi_z_h2_norm,
    phi_z_resolvent,
    z_domain_matrices,
    z_pr_residual,
)

SCALAR = TIModel.from_matrices(
    a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.array([[1.0]])
)

# a point where the z-family member is unstable; the tests rely only on
# that (it was unstable for 300 of 300 make_oscillator draws)
UNSTABLE_Z = -0.54 + 0.84j


@pytest.fixture(scope="module")
def unit(reference_spec):
    return reference_spec.oscillators[0]


@pytest.fixture(scope="module")
def unit_model(unit):
    return TIModel.from_oscillator(unit)


class TestZFamily:
    def test_pole_shift_at_z_two(self, unit_model):
        pt = z_domain_matrices(unit_model, 2.0)
        np.testing.assert_allclose(pt.a_z, unit_model.a + unit_model.b @ unit_model.c)
        np.testing.assert_allclose(pt.b_z, unit_model.b)
        np.testing.assert_allclose(pt.c_z, 2.0 * unit_model.c)
        np.testing.assert_allclose(pt.d_z, 2.0 * np.eye(unit_model.m))

    def test_limits_to_bare_dynamics_at_large_z(self, unit_model):
        pt = z_domain_matrices(unit_model, 1e8)
        gap = np.max(np.abs(pt.a_z - unit_model.a))
        assert gap <= 1e-7 * np.max(np.abs(unit_model.b @ unit_model.c))

    def test_family_is_undefined_at_one(self, unit_model):
        with pytest.raises(ZAtOne):
            z_domain_matrices(unit_model, 1.0)

    def test_realizability_in_the_family(self, unit, unit_model):
        theta = unit.theta
        rng = np.random.default_rng(3)
        for _ in range(3):
            z = complex(rng.uniform(2.0, 60.0), rng.uniform(-5.0, 5.0))
            v = complex(rng.uniform(2.0, 60.0), rng.uniform(-5.0, 5.0))
            assert z_pr_residual(unit_model, theta, z, v) <= 1e-10

    def test_realizability_needs_a_canonical_field_form(self):
        # a matrix-backed model without a field form has no identity to check
        with pytest.raises(ValueError, match="canonical field form"):
            z_pr_residual(SCALAR, np.eye(1), 3.0, 3.0)

    def test_unstable_member_is_flagged(self, unit_model):
        # near an eigenvalue of G(0) the closed loop has a right-half-plane pole
        pt = z_domain_matrices(unit_model, UNSTABLE_Z)
        assert not pt.is_stable


class TestPhiZ:
    @pytest.mark.parametrize("z,s", [(40.0 + 3.0j, 0.7 + 2.0j), (60.0, 1.5), (35.0 - 8.0j, 0.2 - 1.0j)])
    def test_resolvent_equals_feedback_form(self, unit_model, z, s):
        lhs = phi_z_resolvent(unit_model, z, s)
        rhs = phi_z_feedback(unit_model, z, s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_resolvent_at_a_pole_is_refused(self):
        # A_z = -1 + 1 / (3 - 1) = -0.5 exactly, so s = -0.5 is its pole
        with pytest.raises(SingularResolvent, match="in the spectrum"):
            phi_z_resolvent(SCALAR, 3.0, -0.5)

    def test_feedback_at_an_eigenvalue_of_g_is_refused(self):
        # G(0) = 2 for a = -1, b = c = 1, so z I - G(0) is exactly singular at z = 2
        with pytest.raises(SingularResolvent, match=r"z = 2\.0 is an eigenvalue of G\(s\) at s = 0\.0"):
            phi_z_feedback(SCALAR, 2.0, 0.0)

    def test_h2_norm_bound(self, unit_model):
        gnorm = hinf_norm(unit_model)
        fnorm = h2_norm(unit_model)
        for z in [1.5 * gnorm, (1.5 + 0.25j) * gnorm, 3.0 * gnorm]:
            assert abs(z) > gnorm
            assert phi_z_h2_norm(unit_model, z) <= fnorm / (abs(z) - gnorm) * (1 + 1e-9)

    def test_unstable_member_rejected(self, unit_model):
        with pytest.raises(NotInStabilitySet):
            phi_z_h2_norm(unit_model, UNSTABLE_Z)


class TestCrossCovariance:
    def test_three_routes_agree(self, unit, unit_model):
        gnorm = hinf_norm(unit_model)
        z = 10.0 * gnorm
        v = 10.0 * gnorm * (1.0 + 0.3j)
        sylvester = cross_covariance(unit_model, z, v)
        generating = cross_covariance_generating(unit_model, z, v)
        scale = max(1.0, np.max(np.abs(sylvester)))
        assert np.max(np.abs(generating - sylvester)) <= 1e-9 * scale
        depth = series_depth_for(unit_model, z, v)
        series = cross_covariance_series(unit, z, v)
        tail = series_tail_bound(unit_model, z, v, depth)
        assert np.max(np.abs(series - sylvester)) <= tail + 1e-9 * scale

    @pytest.mark.parametrize("z, v", [(3.0, 3.0), (3.0 + 1j, 4.0 - 0.5j), (-3.0, 5.0)])
    def test_identity_field_form_matches_the_generating_form(self, z, v):
        # without a canonical field form Omega = I; at (3, 3), A_z = -1/2 and B_z = 1/2 give 1/4
        sylvester = cross_covariance(SCALAR, z, v)
        assert np.max(np.abs(cross_covariance_generating(SCALAR, z, v) - sylvester)) <= 1e-15
        if (z, v) == (3.0, 3.0):
            assert sylvester[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_commutation_sector_is_exact(self, unit, unit_model):
        theta = unit.theta
        z, v = 30.0 + 4.0j, 50.0 - 2.0j
        full = cross_covariance(unit_model, z, v)
        sym = cross_covariance_symmetric_sector(unit_model, z, v)
        np.testing.assert_allclose(
            full - sym, 1j * theta / (z * v - 1.0), atol=1e-12
        )

    def test_symmetric_sector_is_real_symmetric_on_the_diagonal(self, unit_model):
        sym = cross_covariance_symmetric_sector(unit_model, 25.0, 25.0)
        assert np.max(np.abs(sym.imag)) <= 1e-12
        np.testing.assert_allclose(sym.real, sym.real.T, atol=1e-12)

    def test_exchange_and_conjugation_symmetry(self, unit_model):
        z, v = 30.0 + 4.0j, 50.0 - 2.0j
        sym_zv = cross_covariance_symmetric_sector(unit_model, z, v)
        sym_vz = cross_covariance_symmetric_sector(unit_model, v, z)
        np.testing.assert_allclose(sym_vz, sym_zv.T, atol=1e-12)
        sym_conj = cross_covariance_symmetric_sector(unit_model, np.conj(z), np.conj(v))
        np.testing.assert_allclose(sym_conj, np.conj(sym_zv), atol=1e-12)

    def test_points_outside_the_stability_set_rejected(self, unit_model):
        with pytest.raises(NotInStabilitySet):
            cross_covariance(unit_model, UNSTABLE_Z, 30.0)

    @pytest.mark.parametrize(
        "solve",
        [cross_covariance, cross_covariance_symmetric_sector, lambda model, z, v: phi_z_h2_norm(model, z)],
        ids=["full", "symmetric_sector", "h2_norm"],
    )
    def test_member_inside_the_hurwitz_tolerance_is_refused(self, solve):
        # A_z = -1 + 1 / (1 + 1e-12) = -1.0e-12: negative, but not below -HURWITZ_TOL
        z = 2.0 + 1e-12
        assert not z_domain_matrices(SCALAR, z).is_stable
        with pytest.raises(NotInStabilitySet, match="z = "):
            solve(SCALAR, z, z)

    def test_tail_bound_decreases_with_depth(self, unit_model):
        gnorm = hinf_norm(unit_model)
        z = v = 10.0 * gnorm
        bounds = [series_tail_bound(unit_model, z, v, d) for d in (2, 4, 8, 16)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_non_finite_forcing_rejected(self):
        # the shared Kronecker solve and certificate behind every z-domain solve
        alpha = -np.eye(2, dtype=complex)
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(SolverSingular):
            certify_sylvester(alpha, alpha, bad, sylvester_kron_solve(alpha, alpha, bad))

    def test_series_depth_computes_the_gain_once(self, unit_model, monkeypatch):
        import qcascade.oracles

        calls = []

        def spy(model):
            calls.append(model)
            return hinf_norm(model)

        monkeypatch.setattr(qcascade.oracles, "hinf_norm", spy)
        z = 10.0 * hinf_norm(unit_model)
        assert series_depth_for(unit_model, z, z) > 2
        assert len(calls) == 1


class TestNorms:
    def test_scalar_h2(self):
        assert h2_norm(SCALAR) == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_identity_pair_h2(self):
        model = TIModel.from_matrices(a=-np.eye(2), b=np.eye(2), c=np.eye(2))
        assert h2_norm(model) == pytest.approx(1.0, rel=1e-12)

    def test_quadrature_oracle(self, unit_model):
        assert h2_norm_quadrature(unit_model) == pytest.approx(
            h2_norm(unit_model), rel=1e-6
        )

    def test_unconverged_quadrature_is_refused(self, monkeypatch):
        # the oracle takes the covariance quadrature's convergence test, not a warning
        import scipy.integrate

        real = scipy.integrate.quad_vec
        capped = lambda *args, **kw: real(*args, **kw, limit=2)  # noqa: E731
        monkeypatch.setattr(scipy.integrate, "quad_vec", capped)
        with pytest.raises(NoConvergence, match="Target precision not reached"):
            h2_norm_quadrature(SCALAR)

    def test_scalar_gain_peak(self):
        assert hinf_norm(SCALAR) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
    def test_gain_is_an_upper_bound_on_the_sweep_peak(self, seed):
        # the bounds 2 |F|_2^2 |G|_inf^(2(k-1)) are upper bounds only if this is
        if seed is None:
            model = SCALAR
        else:
            rng = np.random.default_rng(7100 + seed)
            m = int(rng.choice([2, 4, 6]))
            model = TIModel.from_oscillator(make_oscillator(rng, m))
        eye = np.eye(model.n)

        def gain(lam):
            f = np.linalg.solve(1j * lam * eye - model.a, model.b.astype(complex))
            return float(np.linalg.norm(model.c @ f + np.eye(model.m), 2))

        radius = float(np.max(np.abs(np.linalg.eigvals(model.a))))
        grid = np.concatenate([[0.0], np.geomspace(1e-4, 1e3 * max(1.0, radius), 4000)])
        gains = [gain(lam) for lam in grid]
        i = int(np.argmax(gains))
        local = minimize_scalar(
            lambda lam: -gain(lam),
            bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        peak = max(gains[i], -local.fun)
        # and tight: within twice the relative bracket HINF_REL_TOL = 1e-9
        assert peak <= hinf_norm(model) <= peak * (1.0 + 2e-9)

    def test_zero_output_coupling_gain_is_one(self):
        model = TIModel.from_matrices(
            a=-np.eye(2), b=np.eye(2), c=np.zeros((2, 2))
        )
        assert hinf_norm(model) == 1.0

    def test_field_gain_at_least_one(self, reference_spec):
        for params in reference_spec.oscillators:
            model = TIModel.from_oscillator(params)
            assert hinf_norm(model) >= 1.0 - 1e-9

    def test_gain_takes_few_eigensolves_and_no_sweep(self, reference_spec, monkeypatch):
        # the level-set iteration converges in a few Hamiltonian eigensolves
        # and evaluates the gain only at a few frequencies, not on a grid
        counts = {"eigvals": 0, "solve": 0}

        def spy(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        models = [TIModel.from_oscillator(params) for params in reference_spec.oscillators]
        for key in counts:
            monkeypatch.setattr(np.linalg, key, spy(key, getattr(np.linalg, key)))
        for model in models:
            counts.update(eigvals=0, solve=0)
            assert hinf_norm(model) > 1.0
            assert counts["eigvals"] <= 8
            assert counts["solve"] <= 20

    def test_stability_is_tested_once_per_model(self, reference_spec, monkeypatch):
        # from_matrices tests A; the Gramian, the gain iteration and the trace
        # bound's chain (block triangular, with the unit's spectrum) rely on it
        import qcascade.linalg
        import qcascade.zcascade

        calls = []

        def spy(fn):
            def wrapped(a, *args):
                calls.append(a.shape)
                return fn(a, *args)

            return wrapped

        for owner in (qcascade.linalg, qcascade.zcascade):
            monkeypatch.setattr(owner, "is_hurwitz", spy(owner.is_hurwitz))
        model = TIModel.from_oscillator(reference_spec.oscillators[0])
        covariance_trace_bound(model, 6)
        assert calls == [(2, 2)]

    def test_unstable_model_rejected(self):
        with pytest.raises(NotHurwitz):
            TIModel.from_matrices(a=np.eye(2), b=np.eye(2), c=np.eye(2))


class TestTraceBound:
    def test_first_position_is_tight(self, unit_model):
        res = covariance_trace_bound(unit_model, 4)
        assert res.bounds[0] == pytest.approx(2.0 * res.h2**2, rel=1e-12)
        assert res.traces[0] <= res.bounds[0] * (1.0 + 1e-12)
        assert res.traces[0] == pytest.approx(float(np.trace(unit_model.p)), rel=1e-10)

    def test_geometric_growth_of_the_bound(self, unit_model):
        res = covariance_trace_bound(unit_model, 6)
        ratio = res.hinf**2
        for b1, b2 in zip(res.bounds, res.bounds[1:]):
            assert b2 == pytest.approx(b1 * ratio, rel=1e-12)

    def test_all_reference_oscillators_satisfy_the_bound(self, reference_spec):
        for params in reference_spec.oscillators:
            res = covariance_trace_bound(TIModel.from_oscillator(params), 10)
            for trace, bound in zip(res.traces, res.bounds):
                assert trace <= bound * (1.0 + 1e-9)

    def test_matrix_backed_matches_oscillator_backed(self, reference_spec):
        params = reference_spec.oscillators[2]
        osc = TIModel.from_oscillator(params)
        mat = TIModel.from_matrices(a=osc.a, b=osc.b, c=osc.c, j_ito=osc.j_ito)
        res_o = covariance_trace_bound(osc, 5)
        res_m = covariance_trace_bound(mat, 5)
        np.testing.assert_allclose(res_m.traces, res_o.traces, rtol=1e-10)
        np.testing.assert_allclose(res_m.bounds, res_o.bounds, rtol=1e-8)

    def test_decoupled_output_keeps_traces_constant(self):
        model = TIModel.from_matrices(
            a=-np.eye(2), b=np.eye(2), c=np.zeros((2, 2))
        )
        res = covariance_trace_bound(model, 5)
        assert all(t == pytest.approx(res.traces[0], rel=1e-12) for t in res.traces)
        assert all(b == pytest.approx(res.bounds[0], rel=1e-12) for b in res.bounds)

    def test_position_count_must_be_positive(self, unit_model):
        with pytest.raises(ValueError):
            covariance_trace_bound(unit_model, 0)
