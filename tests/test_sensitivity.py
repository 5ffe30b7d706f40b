import numpy as np
import pytest

from conftest import make_cascade
from qcascade.errors import NonPositive, SingularLeadingBlock, TooManyRejections
from qcascade.gradients import GradientSet, covariance_derivatives, purity_gradients_direct
from qcascade.covariance import _cholesky_log_det, invariant_covariance_direct
from qcascade.linalg import (
    J2,
    RESIDUAL_TOL,
    duplication_matrix,
    solve_cascade_lyapunov,
    vech,
    vech_to_symmetric,
)
from qcascade.oscillator import OscillatorParams, assemble_cascade
from qcascade.sensitivity import (
    OscillatorUncertainty,
    UncertaintyModel,
    _sigma_sqrt,
    duplication_weighted_gradient,
    fisher_metric,
    fisher_sensitivity,
    kl_gaussian,
    kl_quadratic,
    monte_carlo_variance,
    phi_transformed,
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
        g = duplication_weighted_gradient(reference_gradients, 0)
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
        short = UncertaintyModel.from_weights([(1.0, 1.0)])
        with pytest.raises(ValueError):
            sensitivity_index(reference_gradients, short)

    def test_full_sigma_reduces_to_weights(self, reference_gradients, reference_uncertainty):
        # explicit isotropic sigma must reproduce the weight form
        idx_w = sensitivity_index(reference_gradients, reference_uncertainty)
        full = UncertaintyModel(
            oscillators=tuple(
                OscillatorUncertainty(sigma=u.sigma_matrix(2, 6))
                for u in reference_uncertainty.oscillators
            )
        )
        idx_f = sensitivity_index(reference_gradients, full)
        assert idx_f.z_total == pytest.approx(idx_w.z_total, rel=1e-12)

    def test_sigma_shape_is_checked(self):
        unc = OscillatorUncertainty(sigma=np.eye(3))
        with pytest.raises(ValueError):
            unc.sigma_matrix(2, 6)


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
    def test_linearization_window(self, reference_cascade, reference_gradients, reference_uncertainty):
        res = monte_carlo_variance(
            reference_cascade,
            reference_uncertainty,
            reference_gradients,
            samples=20_000,
            epsilon=1e-6,
            seed=7,
        )
        assert 0.9 <= res.ratio <= 1.1
        assert res.samples == 20_000

    def test_fixed_seed_is_reproducible(self, reference_cascade, reference_gradients, reference_uncertainty):
        kw = dict(samples=4_000, epsilon=1e-6, seed=123)
        a = monte_carlo_variance(
            reference_cascade, reference_uncertainty, reference_gradients, **kw
        )
        b = monte_carlo_variance(
            reference_cascade, reference_uncertainty, reference_gradients, **kw
        )
        assert a.variance == b.variance
        assert a.rejected == b.rejected

    def test_given_covariance_changes_nothing(
        self, reference_cascade, reference_gradients, reference_uncertainty
    ):
        kw = dict(samples=2_000, epsilon=1e-6, seed=5)
        args = (reference_cascade, reference_uncertainty, reference_gradients)
        own = monte_carlo_variance(*args, **kw)
        given = monte_carlo_variance(
            *args, **kw, p_full=invariant_covariance_direct(reference_cascade)
        )
        assert given == own

    def test_base_and_samples_make_no_slogdet_call(
        self, reference_cascade, reference_gradients, reference_uncertainty, monkeypatch
    ):
        calls = []
        slogdet = np.linalg.slogdet

        def spy(x):
            calls.append(np.shape(x))
            return slogdet(x)

        monkeypatch.setattr(np.linalg, "slogdet", spy)
        res = monte_carlo_variance(
            reference_cascade, reference_uncertainty, reference_gradients,
            samples=500, epsilon=1e-6, seed=3,
        )
        assert calls == []
        assert res.rejected == 0

    @pytest.mark.parametrize(
        "diag, error",
        [([1.0, 1, -1, 1, 1, 1], SingularLeadingBlock), ([1.0, 1, 1, 1, 1, -1], NonPositive)],
    )
    def test_indefinite_base_covariance_names_the_pivot(
        self, reference_cascade, reference_gradients, reference_uncertainty, diag, error
    ):
        with pytest.raises(error, match="pivot"):
            monte_carlo_variance(
                reference_cascade, reference_uncertainty, reference_gradients,
                samples=10, p_full=np.diag(diag),
            )

    def test_six_oscillator_chain(self):
        rng = np.random.default_rng(606)
        cascade = make_cascade(rng, 6, 2)
        grads = purity_gradients_direct(cascade)
        unc = UncertaintyModel.from_weights(
            [tuple(w) for w in rng.uniform(0.5, 1.5, size=(6, 2))]
        )
        res = monte_carlo_variance(
            cascade, unc, grads, samples=4096, epsilon=1e-10, seed=11
        )
        assert 0.9 <= res.ratio <= 1.1
        assert res.rejected == 0

    def test_six_oscillator_chain_matches_assembled_samples(self, monkeypatch):
        # the per-sample route: assemble every perturbed cascade from its
        # parameters, drawn from the same stream in the same order
        rng = np.random.default_rng(606)
        cascade = make_cascade(rng, 6, 2)
        grads = purity_gradients_direct(cascade)
        unc = UncertaintyModel.from_weights(
            [tuple(w) for w in rng.uniform(0.5, 1.5, size=(6, 2))]
        )
        eps, samples, chunk = 1e-10, 1024, 512
        monkeypatch.setattr("qcascade.sensitivity.MC_CHUNK", chunk)
        res = monte_carlo_variance(cascade, unc, grads, samples=samples, epsilon=eps, seed=11)
        factors = [
            _sigma_sqrt(eps * u.sigma_matrix(2, cascade.m)) for u in unc.oscillators
        ]
        draws = np.random.default_rng(11)
        a, b, stable = [], [], []
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
                a.append(moved.a)
                b.append(moved.b)
                stable.append(moved.all_hurwitz())
        # contiguous stack-last, the layout of the program's stacks
        a, b = (np.ascontiguousarray(np.moveaxis(np.array(x)[stable], 0, -1)) for x in (a, b))
        q = np.einsum("ias,jas->ijs", b, b)
        p, certificate = solve_cascade_lyapunov(a, q, cascade.dims)
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
        grads = purity_gradients_direct(cascade)
        unc = UncertaintyModel.from_weights([(1.0, 1.0)])
        # order-one draws at this margin cross the stability boundary often
        with pytest.raises(TooManyRejections):
            monte_carlo_variance(cascade, unc, grads, samples=2_000, epsilon=1.0, seed=0)


class TestFisher:
    def test_metric_of_zero_perturbation(self, reference_cascade):
        from qcascade.covariance import _cholesky_log_det, invariant_covariance_direct

        p = invariant_covariance_direct(reference_cascade)
        assert fisher_metric(p, np.zeros_like(p)) == 0.0

    def test_metric_rejects_indefinite_base(self):
        with pytest.raises(NonPositive):
            fisher_metric(-np.eye(2), np.eye(2))

    def test_gram_matrices_are_symmetric_psd(self, reference_cascade, reference_uncertainty):
        res = fisher_sensitivity(reference_cascade, reference_uncertainty)
        for gram in res.gram_k:
            np.testing.assert_allclose(gram, gram.T, atol=1e-10)
            assert np.linalg.eigvalsh(gram)[0] >= -1e-9 * np.linalg.norm(gram)
        assert res.z_total == pytest.approx(sum(res.z_k), rel=1e-12)
        assert res.z_total > 0.0

    def test_gram_matches_trace_loop(self, reference_cascade, reference_uncertainty):
        from qcascade.covariance import _cholesky_log_det, invariant_covariance_direct

        p = invariant_covariance_direct(reference_cascade)
        res = fisher_sensitivity(reference_cascade, reference_uncertainty)
        for gram, responses in zip(res.gram_k, covariance_derivatives(reference_cascade, p)):
            ys = [np.linalg.solve(p, dp) for dp in responses]
            want = np.array([[np.trace(ya @ yb) for yb in ys] for ya in ys])
            assert np.max(np.abs(gram - want)) <= 1e-12 * np.max(np.abs(want))

    def test_whitened_trace_bound(self, reference_cascade):
        # (Tr P^{-1} dP)^2 <= n Tr((P^{-1} dP)^2), Cauchy-Schwarz in the metric
        from qcascade.covariance import _cholesky_log_det, invariant_covariance_direct

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
        from qcascade.covariance import _cholesky_log_det, invariant_covariance_direct

        p = invariant_covariance_direct(reference_cascade)
        assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_doubled_covariance_closed_form(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4))
        p_star = g @ g.T + np.eye(4)
        want = 4 * (1.0 - np.log(2.0)) / 2.0
        assert kl_gaussian(2.0 * p_star, p_star) == pytest.approx(want, rel=1e-12)

    def test_quadratic_expansion_at_small_scale(self, reference_cascade):
        from qcascade.covariance import _cholesky_log_det, invariant_covariance_direct

        p_star = invariant_covariance_direct(reference_cascade)
        n = p_star.shape[0]
        w, v = np.linalg.eigh(p_star)
        root = (v * np.sqrt(w)) @ v.T
        rng = np.random.default_rng(7)
        e = rng.standard_normal((n, n))
        e = 1e-3 * (e + e.T) / np.linalg.norm(e + e.T)
        p = root @ (np.eye(n) + e) @ root
        ratio = kl_gaussian(p, p_star) / kl_quadratic(p, p_star)
        assert 0.99 <= ratio <= 1.01

    def test_indefinite_argument_rejected(self):
        with pytest.raises(NonPositive):
            kl_gaussian(np.diag([1.0, -1.0]), np.eye(2))
