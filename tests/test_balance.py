import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import move_balancing_optimum, weight_model
from qcascade.balance import (
    OneModeBalanceProblem,
    balance_cascade,
    f_lambda,
    minimize_psi_one_mode,
    multimode_lower_bound,
    solve_multiplier,
)
from qcascade.covariance import steady_state
from qcascade.errors import NoConvergence, NotOneMode, RankDeficientMu, SchemaError
from qcascade.gradients import GradientSet, purity_gradients_direct
from qcascade.linalg import J2, RESIDUAL_TOL, symplectic_exponential
from qcascade.oracles import probe_psi, symplectic_residual
from qcascade.oscillator import assemble_cascade, transfer_eval
from qcascade.sensitivity import OscillatorUncertainty, psi_transformed

# whitened spectrum used in the worked multiplier example
EXAMPLE_SPECTRUM = (-0.7228, 1.9527)


def rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


@pytest.fixture(scope="module")
def reference_report(reference_cascade, reference_spec):
    return balance_cascade(reference_cascade, reference_spec.uncertainty)


@pytest.fixture(scope="module")
def paper_report(paper_cascade, paper_spec):
    return balance_cascade(paper_cascade, paper_spec.uncertainty)


@pytest.fixture(scope="module")
def problems(reference_cascade, reference_spec):
    """The one-mode problems that ``reference_report`` was computed from."""
    grads = purity_gradients_direct(reference_cascade)
    return [
        OneModeBalanceProblem.from_gradients(rho, mu, *unc.weights())
        for rho, mu, unc in zip(grads.rho, grads.mu, reference_spec.uncertainty)
    ]


def probe_violations(problems, results):
    """Per oscillator, how many of 1000 random symplectic probes (symmetric
    h from one seed-7 stream, through :func:`probe_psi`) beat Psi of its
    result by more than a 1e-9 slack."""
    rng = np.random.default_rng(7)
    counts = []
    for problem, res in zip(problems, results):
        h = rng.standard_normal((1000, 2, 2))
        psi = probe_psi(problem, 0.5 * (h + h.transpose(0, 2, 1)))
        counts.append(int(np.count_nonzero(psi < res.psi_after * (1 - 1e-9))))
    return counts


class TestMultiplier:
    def test_centered_spectrum_converges_in_one_step(self):
        res = solve_multiplier(np.array([0.0, 0.0]), 9.0)
        assert res.multiplier == pytest.approx(2.0 * np.sqrt(9.0), rel=1e-12)
        assert res.iterations == 1

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.7])
    def test_antisymmetric_spectrum_closed_form(self, r):
        res = solve_multiplier(np.array([r, -r]), 1.0)
        assert res.multiplier == pytest.approx(2.0 + 2.0 * r * r, rel=1e-10)

    def test_example_curve_is_increasing_and_convex(self):
        r = np.asarray(EXAMPLE_SPECTRUM)
        grid = np.linspace(0.05, 3.0, 60)
        h = np.array([np.prod(lam / (1.0 + np.sqrt(1.0 + 2.0 * lam * r * r))) for lam in grid])
        assert np.all(np.diff(h) > 0)
        assert np.all(np.diff(h, 2) > -1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        r1, r2 = rng.normal(0.0, 2.0, size=2)
        det_tau = float(np.exp(rng.normal(0.0, 1.5)))
        res = solve_multiplier(np.array([float(r1), float(r2)]), det_tau)
        assert res.iterations <= 8
        assert abs(res.h_value - det_tau) <= 1e-12 * det_tau
        # overshoot once, then decrease monotonically
        trail = np.asarray(res.iterates[1:])
        assert np.all(np.diff(trail) <= 1e-12 * np.abs(trail[:-1]))

    def test_nonpositive_target_rejected(self):
        with pytest.raises(RankDeficientMu):
            solve_multiplier(np.array([0.1, 0.2]), 0.0)

    def test_non_finite_slope_is_refused(self):
        # 2 lambda r^2 overflows: h is 0 and its slope inf / inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NoConvergence, match="multiplier slope nan"):
            solve_multiplier(np.array([1e200, 1.0]), 1.0)

    def test_iteration_cap_names_the_oscillator(self, reference_cascade, reference_spec, monkeypatch):
        import qcascade.balance

        monkeypatch.setattr(qcascade.balance, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergence, match="^oscillator 0: multiplier iteration did not converge in 1 steps$"):
            balance_cascade(reference_cascade, reference_spec.uncertainty)

    def test_extreme_instance_still_converges(self):
        res = solve_multiplier(np.array([50.0, -80.0]), 1e-8)
        assert abs(res.h_value - 1e-8) <= 1e-12 * 1e-8

    def test_kernel_values(self):
        assert f_lambda(0.0, 2.0) == pytest.approx(1.0)
        assert f_lambda(1.0, 2.0) == pytest.approx(2.0 / (1.0 + np.sqrt(5.0)))


class TestOneMode:
    def test_pure_coupling_closed_form(self):
        problem = OneModeBalanceProblem(
            rho=np.zeros((2, 2)), tau=np.diag([4.0, 1.0])
        )
        res = minimize_psi_one_mode(problem)
        np.testing.assert_allclose(res.u_k, np.diag([0.5, 2.0]), atol=1e-12)
        np.testing.assert_allclose(
            res.s_k, np.diag([1.0 / np.sqrt(2.0), np.sqrt(2.0)]), atol=1e-12
        )
        assert res.psi_after == pytest.approx(4.0, rel=1e-12)

    def test_balanced_data_is_a_fixed_point(self):
        problem = OneModeBalanceProblem(
            rho=np.diag([1.0, -1.0]), tau=np.eye(2)
        )
        res = minimize_psi_one_mode(problem)
        np.testing.assert_allclose(res.s_k, np.eye(2), atol=1e-12)
        assert res.lambda_k == pytest.approx(4.0, rel=1e-12)
        assert res.psi_after == pytest.approx(res.psi_before, rel=1e-12)

    def test_stationarity_equation(self, reference_cascade, reference_spec):
        grads = purity_gradients_direct(reference_cascade)
        for k in range(3):
            a_k, b_k = reference_spec.uncertainty[k].weights()
            problem = OneModeBalanceProblem.from_gradients(
                grads.rho[k], grads.mu[k], a_k, b_k
            )
            res = minimize_psi_one_mode(problem)
            u = res.u_k
            residual = (
                problem.rho @ u @ problem.rho
                + problem.tau
                - 0.5 * res.lambda_k * np.linalg.inv(u)
            )
            scale = max(1.0, np.linalg.norm(problem.tau))
            assert np.linalg.norm(residual) <= 1e-9 * scale

    def test_transform_is_symplectic_with_unit_determinant(self, reference_report):
        for res in reference_report.results:
            chk = symplectic_residual(res.s_k, 0.5 * J2)
            assert chk.residual <= 1e-10
            assert np.linalg.det(res.s_k) == pytest.approx(1.0, rel=1e-12)

    def test_descent(self, reference_report):
        for res in reference_report.results:
            assert res.psi_after <= res.psi_before * (1.0 + 1e-12)

    def test_rotation_gauge_freedom(self, reference_cascade, reference_spec):
        grads = purity_gradients_direct(reference_cascade)
        unc = reference_spec.uncertainty
        for k in range(3):
            a_k, b_k = unc[k].weights()
            problem = OneModeBalanceProblem.from_gradients(
                grads.rho[k], grads.mu[k], a_k, b_k
            )
            res = minimize_psi_one_mode(problem)
            base = psi_transformed(grads, unc, k, res.s_k)
            for phi in [0.4, -1.1, 2.9]:
                rotated = psi_transformed(grads, unc, k, rotation(phi) @ res.s_k)
                assert rotated == pytest.approx(base, rel=1e-12)

    def test_degenerate_coupling_rejected(self):
        problem = OneModeBalanceProblem(
            rho=np.eye(2), tau=np.zeros((2, 2))
        )
        with pytest.raises(RankDeficientMu):
            minimize_psi_one_mode(problem)

    def test_well_conditioned_tau_is_accepted_at_any_scale(self):
        # 2^-140 (about 7e-43) scales psi and leaves its minimizer; an absolute
        # rank bound refused this tau, whose eigenvalues are all below 1e-12
        rho = np.array([[2.0, 0.3], [0.3, 0.5]])
        mu = np.array([[1.0, 0.2], [0.1, 0.8], [0.4, 0.0]])
        base = minimize_psi_one_mode(OneModeBalanceProblem(rho=rho, tau=mu.T @ mu))
        scaled = minimize_psi_one_mode(OneModeBalanceProblem(rho=2.0**-70 * rho, tau=2.0**-140 * (mu.T @ mu)))
        np.testing.assert_allclose(scaled.s_k, base.s_k, rtol=1e-12)

    @pytest.mark.parametrize("j", [-25, -21, 20])
    def test_weight_scale_leaves_the_balancing(self, j, reference_cascade, reference_spec, reference_report):
        # (a, b) -> 4^j (a, b) scales rho and tau by exact powers of two, so every
        # ratio is the same to the bit; the rank rule used to refuse j = -21
        weights = [unc.weights() for unc in reference_spec.uncertainty]
        scaled = weight_model([(4.0**j * a, 4.0**j * b) for a, b in weights])
        report = balance_cascade(reference_cascade, scaled)
        assert report.ratios == reference_report.ratios
        assert report.uncertified == 0

    def test_multimode_data_rejected(self):
        problem = OneModeBalanceProblem(
            rho=np.eye(4), tau=np.eye(4)
        )
        with pytest.raises(NotOneMode):
            minimize_psi_one_mode(problem)

    def test_ill_conditioned_coupling_keeps_the_multiplier(self):
        # the scaled (rho, mu) of oscillator 1 of the benchmark's seed-1
        # amplifying16 spec #4, where cond tau = 2.3e7; lambda against a
        # 50-digit solve of the same equations from the same doubles
        import mpmath as mp
        rho = np.array([
            [float.fromhex("0x1.4b20ceba6d129p+5"), float.fromhex("-0x1.76845c3e5635bp+5")],
            [float.fromhex("-0x1.76845c3e5635bp+5"), float.fromhex("0x1.b1dae7add1757p+4")],
        ])
        mu = np.array([
            [float.fromhex("-0x1.e6cff0f514e19p+4"), float.fromhex("0x1.0bdea42b037e6p+5")],
            [float.fromhex("-0x1.1eabd8f05aca0p+3"), float.fromhex("0x1.3afe6edd2e1d8p+3")],
        ])
        res = minimize_psi_one_mode(OneModeBalanceProblem(rho=rho, tau=mu.T @ mu))
        with mp.workdps(50):
            r, m = mp.matrix(rho.tolist()), mp.matrix(mu.tolist())
            tau = m.T * m
            det_tau = mp.det(tau)
            # the whitened spectrum: the roots z of det(rho - z tau) = 0
            b = r[0, 0] * tau[1, 1] + r[1, 1] * tau[0, 0] - 2 * r[0, 1] * tau[0, 1]
            disc = mp.sqrt(b * b - 4 * det_tau * mp.det(r))
            spectrum = [(b - disc) / (2 * det_tau), (b + disc) / (2 * det_tau)]

            def h(lam):
                return mp.fprod(lam / (1 + mp.sqrt(1 + 2 * lam * z * z)) for z in spectrum) - det_tau

            exact = mp.findroot(h, 2 * mp.sqrt(det_tau))
            assert abs(res.lambda_k - exact) <= 2e-12 * exact


class TestCascadeBalance:
    def test_reference_ratios(self, paper_report):
        want = (0.9113, 0.3678, 0.7371)
        for got, expect in zip(paper_report.ratios, want):
            assert abs(got - expect) <= 1e-3
        assert abs(paper_report.total_ratio - 0.6689) <= 1e-3

    def test_no_probe_beats_the_optimum(self, problems, reference_report):
        assert probe_violations(problems, reference_report.results) == [0, 0, 0]

    def test_purity_is_invariant(self, reference_cascade, reference_report):
        before = steady_state(reference_cascade)
        after = steady_state(reference_report.transformed)
        assert abs(after.purity - before.purity) <= 1e-12 * before.purity

    def test_transfer_is_invariant(self, reference_cascade, reference_report):
        rng = np.random.default_rng(47)
        for _ in range(5):
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-4.0, 4.0))
            for r1, r2 in zip(
                reference_cascade.realizations, reference_report.transformed.realizations
            ):
                _, g1 = transfer_eval(r1, s)
                _, g2 = transfer_eval(r2, s)
                assert np.max(np.abs(g1 - g2)) <= 1e-9 * max(1.0, np.max(np.abs(g1)))

    def test_balanced_cascade_is_a_fixed_point(self, reference_report, reference_spec):
        again = balance_cascade(reference_report.transformed, reference_spec.uncertainty)
        for ratio in again.ratios:
            assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_mapped_gradients_match_recomputation(self, reference_report, reference_cascade):
        gradients = purity_gradients_direct(reference_cascade)
        pairs = [gradients.transformed_pair(k, res.s_k) for k, res in enumerate(reference_report.results)]
        mapped = GradientSet(*zip(*pairs))
        recomputed = purity_gradients_direct(reference_report.transformed)
        for a, b in zip(mapped.rho, recomputed.rho):
            assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_multimode_cascade_rejected(self, reference_cascade, reference_spec):
        from dataclasses import replace

        fused = replace(
            reference_cascade, dims=(4, 2), params=reference_cascade.params[:2]
        )
        with pytest.raises(NotOneMode):
            balance_cascade(fused, reference_spec.uncertainty)

    def test_sigma_form_is_refused_before_any_solve(
        self, reference_cascade, reference_spec, monkeypatch
    ):
        cascade = assemble_cascade(reference_cascade.params)  # nothing solved on it yet
        solves = []
        monkeypatch.setattr("qcascade.covariance.stationary_covariance", lambda a, b: solves.append(a))
        entries = list(reference_spec.uncertainty)
        entries[1] = OscillatorUncertainty(sigma=entries[1].sigma_matrix(2, cascade.m))
        with pytest.raises(SchemaError, match=r"uncertainty\[1\]: balancing needs weights"):
            balance_cascade(cascade, tuple(entries))
        assert solves == []

    @pytest.mark.parametrize("count", [2, 4])
    def test_uncertainty_without_one_entry_per_oscillator_is_refused(
        self, reference_cascade, reference_spec, monkeypatch, count
    ):
        # zipped with the gradients, two entries would balance two of three oscillators
        cascade = assemble_cascade(reference_cascade.params)  # nothing solved on it yet
        solves = []
        monkeypatch.setattr("qcascade.covariance.stationary_covariance", lambda a, b: solves.append(a))
        entries = reference_spec.uncertainty * 2
        with pytest.raises(ValueError, match="one uncertainty entry per oscillator required"):
            balance_cascade(cascade, entries[:count])
        assert solves == []


def _loop_psi(problem, h):
    """Probe index through the matrix exponential, one probe at a time."""
    out = []
    for h_i in h:
        s = symplectic_exponential(h_i)
        u = s.T @ s
        rho = problem.rho
        out.append(0.5 * np.trace(rho @ u @ rho @ u) + np.trace(problem.tau @ u))
    return np.array(out)


class TestClosedFormProbes:
    def test_matches_exponential_loop(self, problems, reference_report):
        rng = np.random.default_rng(404)
        h = rng.standard_normal((900, 2, 2))
        v = rng.standard_normal((300, 2))
        # rank one: det h = 0 exactly; then det h of order +-1e-14
        h[:300] = v[:, :, None] * v[:, None, :]
        h[300:600] = 1e-7 * h[300:600]
        h = 0.5 * (h + h.transpose(0, 2, 1))
        det = np.linalg.det(h)
        assert np.any(det > 0) and np.any(det < 0) and np.any(det == 0)
        assert np.any((det != 0) & (np.abs(det) < 1e-12))
        for problem, res in zip(problems, reference_report.results):
            got = probe_psi(problem, h)
            want = _loop_psi(problem, h)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
            for threshold in (res.psi_after * (1 - 1e-9), res.psi_before):
                assert np.count_nonzero(got < threshold) == np.count_nonzero(want < threshold)

    def test_violation_count_matches_probe_loop(self, problems, reference_report):
        # the loop draws one 2 x 2 matrix at a time from the same stream
        rng = np.random.default_rng(7)
        violations = 0
        for problem, res in zip(problems, reference_report.results):
            h = np.array([rng.standard_normal((2, 2)) for _ in range(1000)])
            psi = _loop_psi(problem, 0.5 * (h + h.transpose(0, 2, 1)))
            violations += int(np.count_nonzero(psi < res.psi_after * (1 - 1e-9)))
        assert sum(probe_violations(problems, reference_report.results)) == violations


class TestCertificate:
    """The optimum is certified by its stationarity residual and |det U - 1|,
    which by geodesic convexity of Psi certify the global minimum."""

    def test_reference_optimum_is_certified(self, problems, reference_report):
        assert reference_report.uncertified == 0
        for problem, res in zip(problems, reference_report.results):
            grad = problem.rho @ res.u_k @ problem.rho + problem.tau
            residual = grad - 0.5 * res.lambda_k * np.linalg.inv(res.u_k)
            assert res.stationarity == np.linalg.norm(residual) / np.linalg.norm(grad)
            assert res.stationarity <= RESIDUAL_TOL and res.det_gap <= RESIDUAL_TOL

    def test_random_problems_are_certified(self):
        rng = np.random.default_rng(2015)
        certificates = []
        for _ in range(2000):
            rho = rng.standard_normal((2, 2))
            mu = rng.standard_normal((6, 2))
            res = minimize_psi_one_mode(OneModeBalanceProblem(rho=0.5 * (rho + rho.T), tau=mu.T @ mu))
            certificates.append((res.stationarity, res.det_gap))
        assert np.max(certificates) <= RESIDUAL_TOL  # np.max propagates a NaN

    def test_certificate_flags_a_move_the_probes_miss(
        self, problems, reference_cascade, reference_spec, reference_report, monkeypatch
    ):
        move_balancing_optimum(monkeypatch)
        moved = balance_cascade(reference_cascade, reference_spec.uncertainty)
        assert moved.uncertified == 3
        for res, best in zip(moved.results, reference_report.results):
            assert res.stationarity > 1e-3 and res.det_gap <= RESIDUAL_TOL
            assert best.psi_after < res.psi_after <= best.psi_after * (1 + 1e-3)
        # the moved transforms are worse than the optimum, yet no probe beats them
        assert probe_violations(problems, moved.results) == [0, 0, 0]


class TestMultimodeBound:
    def test_single_mode_agrees_with_minimizer(self):
        rng = np.random.default_rng(53)
        rho = rng.standard_normal((2, 2))
        rho = 0.5 * (rho + rho.T)
        mu = rng.standard_normal((4, 2))
        tau = mu.T @ mu
        res = minimize_psi_one_mode(OneModeBalanceProblem(rho=rho, tau=tau))
        bound = multimode_lower_bound(rho, tau)
        assert bound == pytest.approx(res.psi_after, rel=1e-9)

    def test_pure_coupling_closed_form(self):
        rng = np.random.default_rng(59)
        g = rng.standard_normal((4, 4))
        tau = g @ g.T + np.eye(4)
        got = multimode_lower_bound(np.zeros((4, 4)), tau)
        nu = 4
        assert got == pytest.approx(nu * np.linalg.det(tau) ** (1.0 / nu), rel=1e-9)

    def test_bounds_random_symplectic_probes(self):
        rng = np.random.default_rng(61)
        rho = rng.standard_normal((4, 4))
        rho = 0.5 * (rho + rho.T)
        g = rng.standard_normal((6, 4))
        tau = g.T @ g + 0.1 * np.eye(4)
        bound = multimode_lower_bound(rho, tau)
        for _ in range(1000):
            h = rng.standard_normal((4, 4)) * 0.5
            s = symplectic_exponential(0.5 * (h + h.T))
            u = s.T @ s
            value = 0.5 * float(np.trace(rho @ u @ rho @ u)) + float(np.trace(tau @ u))
            assert value >= bound * (1.0 - 1e-9)
