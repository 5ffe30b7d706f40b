import threading

import numpy as np
import pytest

import qcascade.sensitivity
from conftest import make_cascade, rank_m_stack, weight_model
from qcascade.errors import (
    DimensionMismatch,
    NonPositive,
    SchemaError,
    SingularLeadingBlock,
    SolverSingular,
    TooManyRejections,
)
from qcascade.gradients import GradientSet, covariance_derivatives, purity_gradients_direct
from qcascade.covariance import _cholesky_log_det, invariant_covariance_direct, steady_state
from qcascade.linalg import (
    J2,
    RESIDUAL_TOL,
    solve_cascade_lyapunov,
    vech_to_symmetric,
)
from qcascade.oracles import kl_quadratic, phi_transformed, vech
from qcascade.oscillator import OscillatorParams, assemble_cascade
from qcascade.sensitivity import (
    OscillatorUncertainty,
    _sigma_sqrt,
    fisher_gram,
    fisher_metric,
    fisher_sensitivity,
    kl_gaussian,
    monte_carlo_variance,
    psi_transformed,
    sensitivity_index,
)


@pytest.fixture(scope="module")
def reference_gradients(reference_cascade):
    return purity_gradients_direct(reference_cascade)


@pytest.fixture(scope="module")
def reference_uncertainty(reference_spec):
    return reference_spec.uncertainty


@pytest.fixture(scope="module")
def paper_gradients(paper_cascade):
    return purity_gradients_direct(paper_cascade)


PSI_IDENTITY = (37.9918, 35.0268, 19.5730)


class TestIndex:
    def test_weighted_gradient_doubles_offdiagonal(self, reference_gradients):
        g = reference_gradients.d_vector(0)
        rho = reference_gradients.rho[0]
        np.testing.assert_allclose(
            g[:3], [rho[0, 0], 2.0 * rho[1, 0], rho[1, 1]], atol=1e-13
        )

    def test_zero_gradients_give_zero_index(self, reference_uncertainty):
        zeros = GradientSet(
            rho=tuple(np.zeros((2, 2)) for _ in range(3)),
            mu=tuple(np.zeros((6, 2)) for _ in range(3)),
        )
        idx = sensitivity_index(zeros, reference_uncertainty)
        assert idx.z_total == 0.0
        assert idx.z_k == (0.0, 0.0, 0.0)

    def test_entry_count_must_match(self, reference_gradients):
        short = weight_model([(1.0, 1.0)])
        with pytest.raises(ValueError):
            sensitivity_index(reference_gradients, short)

    def test_psi_needs_one_entry_per_oscillator(self, reference_gradients):
        # oscillator 0 has an entry, but a short model is refused before it is read
        with pytest.raises(ValueError, match="^one uncertainty entry per oscillator required$"):
            psi_transformed(reference_gradients, weight_model([(1.0, 1.0)]), 0, np.eye(2))

    def test_phi_needs_one_entry_per_oscillator(self, reference_gradients):
        with pytest.raises(ValueError, match="^one uncertainty entry per oscillator required$"):
            phi_transformed(reference_gradients, weight_model([(1.0, 1.0)]), 0, np.eye(2))

    @pytest.mark.parametrize(
        "index", [fisher_sensitivity, lambda c, u: monte_carlo_variance(c, u, samples=10)],
        ids=["fisher_sensitivity", "monte_carlo_variance"],
    )
    def test_needs_one_entry_per_oscillator_before_any_solve(self, index, reference_cascade, monkeypatch):
        cascade = assemble_cascade(reference_cascade.params)  # nothing solved on it yet
        solves = []
        monkeypatch.setattr("qcascade.covariance.stationary_covariance", lambda a, b: solves.append(a))
        with pytest.raises(ValueError, match="^one uncertainty entry per oscillator required$"):
            index(cascade, weight_model([(1.0, 1.0)] * 2))
        assert solves == []

    def test_full_sigma_reduces_to_weights(self, reference_gradients, reference_uncertainty):
        # explicit isotropic sigma must reproduce the weight form
        idx_w = sensitivity_index(reference_gradients, reference_uncertainty)
        full = tuple(OscillatorUncertainty(sigma=u.sigma_matrix(2, 6)) for u in reference_uncertainty)
        idx_f = sensitivity_index(reference_gradients, full)
        assert idx_f.z_total == pytest.approx(idx_w.z_total, rel=1e-12)

    def test_sigma_shape_is_checked(self):
        unc = OscillatorUncertainty(sigma=np.eye(3))
        with pytest.raises(ValueError):
            unc.sigma_matrix(2, 6)


class TestUncertaintyChecks:
    """An error model that is not a covariance is refused when it is built,
    so no index, Fisher index or balancing ever sees it."""

    @pytest.mark.parametrize(
        "form",
        [
            {},
            {"energy_weight": 1.0},
            {"coupling_weight": 1.0, "sigma": np.eye(15)},
            {"energy_weight": 1.0, "coupling_weight": 1.0, "sigma": np.eye(15)},
        ],
    )
    def test_exactly_one_form(self, form):
        with pytest.raises(SchemaError, match="either 'sigma' or both"):
            OscillatorUncertainty(**form)

    @pytest.mark.parametrize(
        "weights", [(-1.0, 1.0), (1.0, -1e-300), (float("nan"), 1.0), (1.0, float("inf"))]
    )
    def test_weights_are_finite_and_nonnegative(self, weights):
        with pytest.raises(SchemaError, match="finite and nonnegative"):
            weight_model([weights] * 3)

    def test_a_sigma_form_entry_has_no_weights(self):
        with pytest.raises(ValueError, match="^weight-form bounds are not available$"):
            OscillatorUncertainty(sigma=np.eye(7)).weights()

    def test_zero_weights_are_accepted(self):
        assert weight_model([(0.0, 0.0)])[0].weights() == (0.0, 0.0)

    @pytest.mark.parametrize(
        "sigma, error, shown",
        [
            (np.eye(3, 4), DimensionMismatch, "square"),
            (np.ones(3), DimensionMismatch, "square"),
            (np.eye(15) + np.triu(1e-6 * np.ones((15, 15)), 1), SchemaError, "asymmetry"),
            (-np.eye(15), NonPositive, "eigenvalue -1.000e"),
        ],
    )
    def test_sigma_must_be_a_covariance(self, sigma, error, shown):
        with pytest.raises(error, match=shown):
            OscillatorUncertainty(sigma=sigma)

    @pytest.mark.parametrize("scale", [1.0, 1e-20])
    def test_sigma_psd_rule_is_relative(self, scale):
        # the negative eigenvalue is half the largest one, whatever the unit
        with pytest.raises(NonPositive, match=f"eigenvalue {-0.5 * scale:.3e}"):
            OscillatorUncertainty(sigma=scale * np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("scale", [1e-30, 1.0, 1e30])
    def test_weight_form_factor_is_the_root_of_its_weights(self, scale):
        weights = (scale * 0.25, scale * 4.0)
        sigma = OscillatorUncertainty(energy_weight=weights[0], coupling_weight=weights[1]).sigma_matrix(2, 2)
        np.testing.assert_array_equal(_sigma_sqrt(sigma), np.diag(np.sqrt(np.diag(sigma))))

    def test_small_asymmetry_is_symmetrized(self):
        sigma = np.eye(3)
        sigma[0, 1] = 1e-12
        kept = OscillatorUncertainty(sigma=sigma).sigma
        np.testing.assert_array_equal(kept, kept.T)
        np.testing.assert_array_equal(kept, 0.5 * (sigma + sigma.T))


class TestBoundVersusExact:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_identity_bound_matches_table(self, paper_gradients, paper_spec, k):
        psi = psi_transformed(paper_gradients, paper_spec.uncertainty, k, np.eye(2))
        assert abs(psi - PSI_IDENTITY[k]) <= 0.005 * PSI_IDENTITY[k]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_exact_index_never_exceeds_bound(
        self, reference_gradients, reference_uncertainty, k
    ):
        rng = np.random.default_rng(41 + k)
        for _ in range(10):
            h = rng.standard_normal((2, 2)) * 0.5
            from qcascade.linalg import symplectic_exponential

            s = symplectic_exponential(0.5 * (h + h.T))
            phi = phi_transformed(reference_gradients, reference_uncertainty, k, s)
            psi = psi_transformed(reference_gradients, reference_uncertainty, k, s)
            assert phi <= psi * (1.0 + 1e-12)

    def test_identity_exact_equals_quadratic_form(
        self, reference_gradients, reference_uncertainty
    ):
        idx = sensitivity_index(reference_gradients, reference_uncertainty)
        for k in range(3):
            phi = phi_transformed(
                reference_gradients, reference_uncertainty, k, np.eye(2)
            )
            assert phi == pytest.approx(idx.z_k[k], rel=1e-12)


class TestMonteCarlo:
    def test_linearization_window(self, reference_cascade, reference_uncertainty):
        res = monte_carlo_variance(
            reference_cascade,
            reference_uncertainty,
            samples=20_000,
            epsilon=1e-6,
            seed=7,
        )
        assert 0.9 <= res.ratio <= 1.1
        assert res.samples == 20_000

    def test_fixed_seed_is_reproducible(self, reference_cascade, reference_uncertainty):
        kw = dict(samples=4_000, epsilon=1e-6, seed=123)
        a = monte_carlo_variance(reference_cascade, reference_uncertainty, **kw)
        b = monte_carlo_variance(reference_cascade, reference_uncertainty, **kw)
        assert a.variance == b.variance
        assert a.rejected == b.rejected

    def test_a_sample_variance_needs_two_samples(self, reference_cascade, reference_uncertainty):
        for samples in (-1, 0, 1):
            with pytest.raises(ValueError, match="at least two samples"):
                monte_carlo_variance(reference_cascade, reference_uncertainty, samples=samples)
        two = monte_carlo_variance(reference_cascade, reference_uncertainty, samples=2, epsilon=1e-10)
        assert two.samples == 2 and two.rejected == 0 and two.variance > 0.0

    def test_zero_error_model_is_refused_before_any_chunk(self, reference_cascade, monkeypatch):
        # every weight 0 is a valid spec, but eps Z = 0 leaves no ratio to report
        def refuse(*args, **kwargs):
            raise AssertionError("a chunk was built")

        monkeypatch.setattr(qcascade.sensitivity, "perturbed_cascade_stack", refuse)
        zero = weight_model([(0.0, 0.0)] * 3)
        with pytest.raises(SchemaError, match=r"predicts no variance of V \(eps Z = 0\.000e\+00\)"):
            monte_carlo_variance(reference_cascade, zero, samples=64)

    def test_base_and_samples_make_no_slogdet_call(
        self, reference_cascade, reference_uncertainty, monkeypatch
    ):
        calls = []
        slogdet = np.linalg.slogdet

        def spy(x):
            calls.append(np.array(x))
            return slogdet(x)

        # a fresh cascade, so nothing kept by an earlier test is read
        cascade = assemble_cascade(reference_cascade.params)
        monkeypatch.setattr(np.linalg, "slogdet", spy)
        res = monte_carlo_variance(cascade, reference_uncertainty, samples=500, epsilon=1e-6, seed=3)
        # ln det P of the base and of every sample comes from a Cholesky factor;
        # the one call is det theta, for the purity of the base's steady state
        assert len(calls) == 1 and np.array_equal(calls[0], cascade.theta)
        assert res.rejected == 0

    @pytest.mark.parametrize(
        "diag, error",
        [([1.0, 1, -1, 1, 1, 1], SingularLeadingBlock), ([1.0, 1, 1, 1, 1, -1], NonPositive)],
    )
    def test_indefinite_base_covariance_names_the_pivot(
        self, reference_cascade, reference_uncertainty, diag, error, monkeypatch
    ):
        # a fresh cascade whose solved P is replaced by the indefinite one
        cascade = assemble_cascade(reference_cascade.params)
        monkeypatch.setattr("qcascade.covariance.stationary_covariance", lambda a, b: (np.diag(diag), None))
        with pytest.raises(error, match="pivot"):
            monte_carlo_variance(cascade, reference_uncertainty, samples=10)

    def test_six_oscillator_chain(self):
        rng = np.random.default_rng(606)
        cascade = make_cascade(rng, 6, 2)
        unc = weight_model(
            [tuple(w) for w in rng.uniform(0.5, 1.5, size=(6, 2))]
        )
        res = monte_carlo_variance(cascade, unc, samples=4096, epsilon=1e-10, seed=11)
        assert 0.9 <= res.ratio <= 1.1
        assert res.rejected == 0

    def test_six_oscillator_chain_matches_assembled_samples(self, monkeypatch):
        # the per-sample route: assemble every perturbed cascade from its
        # parameters, drawn from the same stream in the same order
        rng = np.random.default_rng(606)
        cascade = make_cascade(rng, 6, 2)
        unc = weight_model(
            [tuple(w) for w in rng.uniform(0.5, 1.5, size=(6, 2))]
        )
        eps, samples, chunk = 1e-10, 1024, 512
        monkeypatch.setattr("qcascade.sensitivity.MC_CHUNK", chunk)
        res = monte_carlo_variance(cascade, unc, samples=samples, epsilon=eps, seed=11)
        factors = [
            _sigma_sqrt(eps * u.sigma_matrix(2, cascade.m)) for u in unc
        ]
        draws = np.random.default_rng(11)
        stable = []
        for _ in range(samples // chunk):
            de = [draws.standard_normal((chunk, f.shape[0])) @ f.T for f in factors]
            for s in range(chunk):
                moved = assemble_cascade(
                    [
                        OscillatorParams(
                            theta=p.theta,
                            r_energy=p.r_energy + vech_to_symmetric(de_k[s, :3], 2),
                            m_coupling=p.m_coupling + de_k[s, 3:].reshape((2, 2), order="F"),
                        )
                        for p, de_k in zip(cascade.params, de)
                    ]
                )
                if all(flag for flag, _ in moved.hurwitz):
                    stable.append(moved)
        # contiguous stack-last, the layout of the program's stacks
        p, certificate = solve_cascade_lyapunov(*rank_m_stack(stable))
        logdet = _cholesky_log_det(p)
        good = ~np.isnan(logdet) & (certificate <= RESIDUAL_TOL)
        v0 = np.linalg.slogdet(invariant_covariance_direct(cascade))[1]
        ratio = np.var(logdet[good] - v0, ddof=1) / res.predicted
        assert res.rejected == samples - np.count_nonzero(good)
        assert res.ratio == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_draw_map_follows_vech_order(self, r):
        # the sampler writes draw entry t of the vech R block to (rows[t], cols[t])
        x = np.random.default_rng(r).standard_normal((r, r))
        cols, rows = np.triu_indices(r)
        np.testing.assert_array_equal(x[rows, cols], vech(x))

    def test_near_unstable_model_aborts(self):
        fragile = OscillatorParams(
            theta=0.5 * J2,
            r_energy=np.array([[0.0, 0.0099], [0.0099, 0.0]]),
            m_coupling=0.1 * np.eye(2),
        )
        cascade = assemble_cascade([fragile])
        unc = weight_model([(1.0, 1.0)])
        # order-one draws at this margin cross the stability boundary often
        with pytest.raises(TooManyRejections):
            monte_carlo_variance(cascade, unc, samples=2_000, epsilon=1.0, seed=0)


def six_oscillator_chain():
    rng = np.random.default_rng(606)
    cascade = make_cascade(rng, 6, 2)
    unc = weight_model([tuple(w) for w in rng.uniform(0.5, 1.5, size=(6, 2))])
    return cascade, unc


class TestMonteCarloChunks:
    """Chunks are drawn, built and solved one at a time, in draw order, on the
    calling thread."""

    def test_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the Monte-Carlo check started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(qcascade.sensitivity, "MC_CHUNK", 256)
        cascade, unc = six_oscillator_chain()
        res = monte_carlo_variance(cascade, unc, samples=1700, epsilon=1e-10, seed=5)
        assert res.variance > 0.0 and res.rejected == 0

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_an_overflow_raises(self, chunk, monkeypatch):
        # every chunk, the first or one after a clean chunk, is solved under
        # the caller's error settings
        cascade, unc = six_oscillator_chain()
        calls = []
        solve = qcascade.sensitivity.log_det_stack

        def overflowing(stack):
            calls.append(stack)
            if len(calls) == chunk:
                return np.array([1e308]) * 10.0, np.zeros(1)
            return solve(stack)

        monkeypatch.setattr(qcascade.sensitivity, "MC_CHUNK", 256)
        monkeypatch.setattr(qcascade.sensitivity, "log_det_stack", overflowing)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="^Monte-Carlo samples: overflow"):
                monte_carlo_variance(cascade, unc, samples=512, epsilon=1e-10, seed=1)
        assert len(calls) == chunk

    def test_the_first_failing_chunk_surfaces(self, monkeypatch):
        # chunks 1 and 2 would both fail: chunk 1's error is raised, and no
        # later chunk is built
        cascade, unc = six_oscillator_chain()
        chunk, samples, eps, seed = 64, 64 * 8, 1e-10, 3
        draws = np.random.default_rng(seed)
        factors = [_sigma_sqrt(eps * u.sigma_matrix(2, cascade.m)) for u in unc]
        firsts = []
        for _ in range(samples // chunk):
            de = [draws.standard_normal((chunk, f.shape[0])) @ f.T for f in factors]
            firsts.append(de[0][0, 0])
        started = []
        build = qcascade.sensitivity.perturbed_cascade_stack

        def failing(cascade, de):
            index = firsts.index(de[0][0, 0])
            started.append(index)
            if index in (1, 2):
                raise SolverSingular(f"chunk {index} failed")
            return build(cascade, de)

        monkeypatch.setattr(qcascade.sensitivity, "MC_CHUNK", chunk)
        monkeypatch.setattr(qcascade.sensitivity, "perturbed_cascade_stack", failing)
        with pytest.raises(SolverSingular, match="^Monte-Carlo samples: chunk 1 failed$"):
            monte_carlo_variance(cascade, unc, samples=samples, epsilon=eps, seed=seed)
        assert started == [0, 1]

    @pytest.mark.parametrize(
        "model, samples, epsilon, seed, rejected",
        [("six_oscillators", 1700, 1e-10, 5, 0), ("nearly_unstable", 1500, 7e-4, 0, 6)],
        ids=["six_oscillators", "nearly_unstable"],
    )
    def test_partial_chunk_and_rejections(self, model, samples, epsilon, seed, rejected, monkeypatch):
        # seven or six chunks, the last one partial; the nearly unstable
        # oscillator's draws leave the stability set now and then
        if model == "six_oscillators":
            cascade, unc = six_oscillator_chain()
        else:
            fragile = OscillatorParams(
                theta=0.5 * J2,
                r_energy=np.array([[0.0, 0.0099], [0.0099, 0.0]]),
                m_coupling=0.3 * np.eye(2),
            )
            cascade, unc = assemble_cascade([fragile]), weight_model([(1.0, 1.0)])
        monkeypatch.setattr(qcascade.sensitivity, "MC_CHUNK", 256)
        first = monte_carlo_variance(cascade, unc, samples=samples, epsilon=epsilon, seed=seed)
        assert first == monte_carlo_variance(cascade, unc, samples=samples, epsilon=epsilon, seed=seed)
        assert first.variance > 0.0 and first.rejected == rejected


class TestFisher:
    def test_metric_of_zero_perturbation(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        assert fisher_metric(p, np.zeros_like(p)) == 0.0

    def test_metric_rejects_indefinite_base(self):
        with pytest.raises(NonPositive):
            fisher_metric(-np.eye(2), np.eye(2))

    def test_metric_refuses_a_non_finite_perturbation(self):
        # solves with the factor of P refuse a non-finite operand with a typed error
        with pytest.raises(SolverSingular, match="non-finite entry"):
            fisher_metric(np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_gram_matrices_are_symmetric_psd(self, reference_cascade, reference_uncertainty):
        chol = steady_state(reference_cascade).chol
        for dps in covariance_derivatives(reference_cascade):
            gram = fisher_gram(chol, dps)
            np.testing.assert_allclose(gram, gram.T, atol=1e-10)
            assert np.linalg.eigvalsh(gram)[0] >= -1e-9 * np.linalg.norm(gram)
        res = fisher_sensitivity(reference_cascade, reference_uncertainty)
        assert res.z_total == pytest.approx(sum(res.z_k), rel=1e-12)
        assert res.z_total > 0.0

    def test_gram_matches_trace_loop(self, reference_cascade, reference_uncertainty):
        p = invariant_covariance_direct(reference_cascade)
        chol = steady_state(reference_cascade).chol
        res = fisher_sensitivity(reference_cascade, reference_uncertainty)
        cases = zip(
            covariance_derivatives(reference_cascade), reference_uncertainty,
            reference_cascade.dims, res.z_k, strict=True,
        )
        for responses, unc, nk, z_k in cases:
            gram = fisher_gram(chol, responses)
            ys = [np.linalg.solve(p, dp) for dp in responses]
            want = np.array([[np.trace(ya @ yb) for yb in ys] for ya in ys])
            assert np.max(np.abs(gram - want)) <= 1e-12 * np.max(np.abs(want))
            # each z_k of fisher_sensitivity is tr(G_k Sigma_k) of the Gram formed here
            want_z = float(np.trace(gram @ unc.sigma_matrix(nk, reference_cascade.m)))
            assert abs(z_k - want_z) <= 1e-12 * abs(want_z)

    def test_whitened_trace_bound(self, reference_cascade):
        # (Tr P^{-1} dP)^2 <= n Tr((P^{-1} dP)^2), Cauchy-Schwarz in the metric
        p = invariant_covariance_direct(reference_cascade)
        n = p.shape[0]
        w, v = np.linalg.eigh(p)
        root = (v * np.sqrt(w)) @ v.T
        rng = np.random.default_rng(5)
        for _ in range(100):
            e = rng.standard_normal((n, n))
            dp = root @ (0.5 * (e + e.T)) @ root
            lhs = float(np.trace(np.linalg.solve(p, dp))) ** 2
            rhs = n * fisher_metric(p, dp)
            assert lhs <= rhs * (1.0 + 1e-10)


class TestDivergence:
    def test_vanishes_at_the_base_point(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_doubled_covariance_closed_form(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4))
        p_star = g @ g.T + np.eye(4)
        want = 4 * (1.0 - np.log(2.0)) / 2.0
        assert kl_gaussian(2.0 * p_star, p_star) == pytest.approx(want, rel=1e-12)

    @staticmethod
    def near_point(p_star, eps):
        """P*^(1/2) (I + eps E) P*^(1/2) with E symmetric, |E|_F = 1 (seed 7)."""
        n = p_star.shape[0]
        w, v = np.linalg.eigh(p_star)
        root = (v * np.sqrt(w)) @ v.T
        rng = np.random.default_rng(7)
        e = rng.standard_normal((n, n))
        e = eps * (e + e.T) / np.linalg.norm(e + e.T)
        return root @ (np.eye(n) + e) @ root

    def test_quadratic_expansion_at_small_scale(self, reference_cascade):
        p_star = invariant_covariance_direct(reference_cascade)
        p = self.near_point(p_star, 1e-3)
        ratio = kl_gaussian(p, p_star) / kl_quadratic(p, p_star)
        assert 0.99 <= ratio <= 1.01

    @pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
    def test_tiny_divergence_keeps_its_digits(self, reference_cascade, eps):
        # an O(eps^2) value that an O(n) trace and log-determinant would cancel
        # to; the 60-digit value is that of the float64 p and p_star themselves
        import mpmath as mp

        p_star = invariant_covariance_direct(reference_cascade)
        p, n = self.near_point(p_star, eps), len(p_star)
        with mp.workdps(60):
            chi = mp.inverse(mp.matrix(p_star.tolist())) * mp.matrix(p.tolist())
            exact = float((sum(chi[i, i] for i in range(n)) - mp.log(mp.det(chi)) - n) / 2)
        got = kl_gaussian(p, p_star)
        assert abs(got - exact) <= 1e-7 * exact
        assert got / kl_quadratic(p, p_star) == pytest.approx(1.0, abs=1e-6)

    def test_indefinite_argument_rejected(self):
        with pytest.raises(NonPositive):
            kl_gaussian(np.diag([1.0, -1.0]), np.eye(2))
