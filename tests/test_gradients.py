from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrs, dtrtrs

import qcascade.covariance
import qcascade.gradients

from conftest import (
    make_cascade,
    make_mixed_cascade,
    make_passive_chain,
    random_blockdiag_symplectic,
)
from qcascade.covariance import invariant_covariance_direct, invariant_covariance_recursive
from qcascade.errors import NotHurwitz, NotSymplectic, SolverSingular
from qcascade.gradients import (
    GradientSet,
    _lapack_solve,
    covariance_derivatives,
    gradient_fd_oracle,
    observability_gramian_and_hankelian,
    purity_gradients_direct,
    purity_gradients_recursive,
    transform_gradients,
)
from qcascade.linalg import J2, solve_lyapunov, vech
from qcascade.oscillator import OscillatorParams, assemble_cascade, transform_params


@pytest.fixture(scope="module")
def reference_gradients(reference_cascade):
    return purity_gradients_direct(reference_cascade)


def relative_gap(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


def stack_norm(grads):
    return np.sqrt(
        sum(np.linalg.norm(r) ** 2 for r in grads.rho)
        + sum(np.linalg.norm(u) ** 2 for u in grads.mu)
    )


def stack_gap(g1, g2):
    num = np.sqrt(
        sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g1.rho, g2.rho))
        + sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g1.mu, g2.mu))
    )
    return num / stack_norm(g2)


class TestGramian:
    def test_identity_drift(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4))
        p = g @ g.T + np.eye(4)
        q, h = observability_gramian_and_hankelian(-np.eye(4), p)
        np.testing.assert_allclose(q, 0.5 * np.linalg.inv(p), atol=1e-12)
        np.testing.assert_allclose(h, 0.5 * np.eye(4), atol=1e-12)

    def test_reference_equation_residual(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        q, _ = observability_gramian_and_hankelian(reference_cascade.a, p)
        res = reference_cascade.a.T @ q + q @ reference_cascade.a + np.linalg.inv(p)
        scale = np.linalg.norm(q) * np.linalg.norm(reference_cascade.a)
        assert np.linalg.norm(res) <= 1e-10 * max(1.0, scale)

    def test_hankelian_spectrum_is_real_positive(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        _, h = observability_gramian_and_hankelian(reference_cascade.a, p)
        eigs = np.linalg.eigvals(h)
        assert np.max(np.abs(eigs.imag)) <= 1e-9 * np.max(np.abs(eigs))
        assert np.min(eigs.real) > 0.0

    def test_hankelian_similar_to_whitened_gramian(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        q, h = observability_gramian_and_hankelian(reference_cascade.a, p)
        w, v = np.linalg.eigh(p)
        root = (v * np.sqrt(w)) @ v.T
        sym = root @ q @ root
        got = np.sort(np.linalg.eigvals(h).real)
        want = np.sort(np.linalg.eigvalsh(sym))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_gradient_set_holds_only_the_gradients(reference_cascade):
    # a gradient route need not compute a Gramian, so a gradient set
    # carries only the gradients
    assert [f.name for f in fields(GradientSet)] == ["rho", "mu"]
    for route in (purity_gradients_direct, purity_gradients_recursive):
        assert set(vars(route(reference_cascade))) == {"rho", "mu"}


class TestRouteAgreement:
    def test_reference(self, reference_cascade, reference_gradients):
        rec = purity_gradients_recursive(reference_cascade)
        assert stack_gap(rec, reference_gradients) <= 1e-8

    def test_single_oscillator(self, reference_spec):
        cascade = assemble_cascade(reference_spec.oscillators[-1:])
        direct = purity_gradients_direct(cascade)
        rec = purity_gradients_recursive(cascade)
        assert stack_gap(rec, direct) <= 1e-10

    @pytest.mark.parametrize("seed", [101, 202, 303, 404])
    def test_random_cascades(self, seed):
        rng = np.random.default_rng(seed)
        cascade = make_cascade(rng, int(rng.integers(2, 5)), int(rng.choice([2, 4, 6])))
        direct = purity_gradients_direct(cascade)
        rec = purity_gradients_recursive(cascade)
        assert stack_gap(rec, direct) <= 1e-8

    def test_mixed_chain(self):
        cascade = make_mixed_cascade(np.random.default_rng(5151))
        assert cascade.dims == (2, 4, 2)
        direct = purity_gradients_direct(cascade)
        rec = purity_gradients_recursive(cascade)
        assert stack_gap(rec, direct) <= 1e-8

    def test_recursive_routes_factor_no_matrix_beyond_one_oscillator(self, monkeypatch):
        # both recursive routes solve on one Schur factor built block by
        # block; a dense factorisation of a growing leading or trailing
        # block would bring back their O(N^4) cost
        rng = np.random.default_rng(1616)
        chain = []
        for _ in range(16):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            coupling = rng.uniform(0.5, 1.2) * (np.cos(phase) * np.eye(2) + np.sin(phase) * J2)
            chain.append(
                OscillatorParams(
                    theta=0.5 * J2,
                    r_energy=rng.uniform(-1.0, 1.0) * np.eye(2),
                    m_coupling=coupling,
                )
            )
        cascade = assemble_cascade(chain)
        orders = []

        def spy(fn):
            def wrapped(x, *args, **kwargs):
                orders.append(np.shape(x)[0])
                return fn(x, *args, **kwargs)

            return wrapped

        gees = scipy.linalg.lapack.dgees

        def spy_gees(select, x, *args, **kwargs):
            orders.append(np.shape(x)[0])
            return gees(select, x, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", spy(scipy.linalg.schur))
        monkeypatch.setattr(scipy.linalg.lapack, "dgees", spy_gees)
        monkeypatch.setattr(scipy.linalg, "solve_sylvester", spy(scipy.linalg.solve_sylvester))
        monkeypatch.setattr(np.linalg, "eigvals", spy(np.linalg.eigvals))
        invariant_covariance_recursive(cascade)
        purity_gradients_recursive(cascade)
        assert orders
        assert max(orders) <= max(cascade.dims)

    def test_recursive_route_factors_each_block_once(self, monkeypatch):
        # one structured Schur factor per call serves the recursive P and
        # the gradients alike: one dgees call per oscillator
        cascade = make_passive_chain(np.random.default_rng(1616), 16)
        orders = []
        gees = scipy.linalg.lapack.dgees

        def spy_gees(select, x, *args, **kwargs):
            orders.append(np.shape(x))
            return gees(select, x, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgees", spy_gees)
        purity_gradients_recursive(cascade)
        assert orders == [(2, 2)] * cascade.n_oscillators

    def test_triangular_solves_refuse_non_finite_and_singular(self):
        with pytest.raises(SolverSingular, match="non-finite"):
            _lapack_solve(dtrtrs, np.eye(2), np.array([[np.nan], [0.0]]))
        with pytest.raises(SolverSingular, match="non-finite"):
            _lapack_solve(dpotrs, np.diag([1.0, np.inf]), np.eye(2), lower=1)
        with pytest.raises(SolverSingular, match="dtrtrs: info 2"):
            _lapack_solve(dtrtrs, np.diag([1.0, 0.0]), np.ones((2, 1)))

    def test_recursive_route_factors_p_once(self, monkeypatch):
        # every tail Gramian is a trailing block of one Gramian with forcing
        # P^{-1}, and every leading-block solve uses a slice of the one
        # Cholesky factor of steady_state
        cascade = make_passive_chain(np.random.default_rng(1616), 16)
        square, factored = [], []
        solve = qcascade.gradients.solve_cascade_sylvester

        def spy_solve(factor, rows, cols, *args, **kwargs):
            if rows == cols:
                square.append((rows.start, rows.stop))
            return solve(factor, rows, cols, *args, **kwargs)

        cho_factor = scipy.linalg.cho_factor

        def spy_factor(*args, **kwargs):
            factored.append(np.shape(args[0]))
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(qcascade.gradients, "solve_cascade_sylvester", spy_solve)
        for module in (scipy.linalg, qcascade.covariance):
            monkeypatch.setattr(module, "cho_factor", spy_factor)
        purity_gradients_recursive(cascade)
        assert square == [(0, cascade.n)]
        assert factored == []

    def test_energy_gradient_is_symmetric(self, reference_gradients):
        for r in reference_gradients.rho:
            np.testing.assert_allclose(r, r.T, atol=1e-12)


class TestFiniteDifferenceOracle:
    def test_reference_agreement(self, reference_cascade, reference_gradients):
        fd = gradient_fd_oracle(reference_cascade, h=1e-5)
        assert stack_gap(fd, reference_gradients) <= 1e-6

    def test_mixed_chain_agreement(self):
        # a two-mode oscillator puts the energy pairs out of vech order
        cascade = make_mixed_cascade(np.random.default_rng(5151))
        fd = gradient_fd_oracle(cascade, h=1e-5)
        assert stack_gap(fd, purity_gradients_direct(cascade)) <= 1e-6

    def test_error_is_v_shaped_in_step(self, reference_spec):
        cascade = assemble_cascade(reference_spec.oscillators[:1])
        exact = purity_gradients_direct(cascade)
        steps = [1e-2, 1e-4, 1e-6, 1e-9]
        errors = [stack_gap(gradient_fd_oracle(cascade, h=h), exact) for h in steps]
        best = int(np.argmin(errors))
        # truncation dominates the coarse end, round-off the fine end
        assert 0 < best < len(steps) - 1
        assert errors[0] > errors[best]
        assert errors[-1] > errors[best]

    def test_probe_crossing_stability_boundary_is_reported(self):
        # margin -1e-7: the base is stable, the +h probe is not
        fragile = OscillatorParams(
            theta=0.5 * J2,
            r_energy=np.array([[0.0, 0.01 - 1e-7], [0.01 - 1e-7, 0.0]]),
            m_coupling=0.1 * np.eye(2),
        )
        cascade = assemble_cascade([fragile])
        with pytest.raises(NotHurwitz, match=r"R_0\[1,0\]"):
            gradient_fd_oracle(cascade, h=1e-5)


class TestTransform:
    def test_identity_transforms_are_neutral(self, reference_cascade, reference_gradients):
        eyes = [np.eye(n) for n in reference_cascade.dims]
        thetas = [p.theta for p in reference_cascade.params]
        out = transform_gradients(reference_gradients, eyes, thetas)
        for a, b in zip(out.rho, reference_gradients.rho):
            np.testing.assert_array_equal(a, b)

    def test_consistent_with_recomputation(self, reference_cascade, reference_gradients):
        rng = np.random.default_rng(31)
        transforms = random_blockdiag_symplectic(rng, reference_cascade.dims)
        thetas = [p.theta for p in reference_cascade.params]
        mapped = transform_gradients(reference_gradients, transforms, thetas)
        moved = assemble_cascade(
            [transform_params(p, s) for p, s in zip(reference_cascade.params, transforms)]
        )
        recomputed = purity_gradients_direct(moved)
        assert stack_gap(mapped, recomputed) <= 1e-8

    def test_non_symplectic_rejected(self, reference_cascade, reference_gradients):
        transforms = [np.eye(2), 2.0 * np.eye(2), np.eye(2)]
        thetas = [p.theta for p in reference_cascade.params]
        with pytest.raises(NotSymplectic):
            transform_gradients(reference_gradients, transforms, thetas)


class TestCovarianceDerivatives:
    def test_matches_finite_differences(self, reference_spec):
        cascade = assemble_cascade(reference_spec.oscillators[:2])
        derivs = covariance_derivatives(cascade)
        h = 1e-6
        k, nk = 1, cascade.dims[1]
        # vech ordering: entry (i, j), columns first
        pairs = [(i, j) for j in range(nk) for i in range(j, nk)]
        for which, (i, j) in enumerate(pairs):
            direction = np.zeros((nk, nk))
            direction[i, j] = h
            direction[j, i] = h
            params = list(cascade.params)
            base = params[k]
            params[k] = OscillatorParams(
                theta=base.theta,
                r_energy=base.r_energy + direction,
                m_coupling=base.m_coupling,
            )
            plus = invariant_covariance_direct(assemble_cascade(params))
            params[k] = OscillatorParams(
                theta=base.theta,
                r_energy=base.r_energy - direction,
                m_coupling=base.m_coupling,
            )
            minus = invariant_covariance_direct(assemble_cascade(params))
            # basis direction moves the symmetric pair at unit rate
            fd = (plus - minus) / (2.0 * h)
            got = derivs[k][which]
            assert np.max(np.abs(got - fd)) <= 1e-4 * max(1.0, np.max(np.abs(fd)))

    @pytest.mark.parametrize("which", ["reference", "mixed"])
    def test_matches_assembled_half_differences(self, reference_cascade, which):
        # the per-direction route: assemble +d and -d, one dense solve each
        cascade = reference_cascade
        if which == "mixed":
            cascade = make_mixed_cascade(np.random.default_rng(5151))
        p = invariant_covariance_direct(cascade)
        derivs = covariance_derivatives(cascade, p)
        for k, nk in enumerate(cascade.dims):
            # vech order: columns first
            directions = [("r_energy", (i, j)) for j in range(nk) for i in range(j, nk)]
            directions += [("m_coupling", (r, c)) for c in range(nk) for r in range(cascade.m)]
            assert len(derivs[k]) == len(directions)
            for dp, (field, (i, j)) in zip(derivs[k], directions):
                base = cascade.params[k]
                d = np.zeros_like(getattr(base, field))
                d[i, j] = 1.0
                if field == "r_energy":
                    d[j, i] = 1.0
                moved = []
                for sign in (1.0, -1.0):
                    params = list(cascade.params)
                    params[k] = replace(base, **{field: getattr(base, field) + sign * d})
                    moved.append(assemble_cascade(params))
                da = 0.5 * (moved[0].a - moved[1].a)
                db = 0.5 * (moved[0].b - moved[1].b)
                force = da @ p + p @ da.T + db @ cascade.b.T + cascade.b @ db.T
                want = solve_lyapunov(cascade.a, force)
                assert np.linalg.norm(dp - want) <= 1e-10 * np.linalg.norm(want)

    def test_basis_length(self, reference_cascade):
        derivs = covariance_derivatives(reference_cascade)
        for k, nk in enumerate(reference_cascade.dims):
            expected = nk * (nk + 1) // 2 + reference_cascade.m * nk
            assert len(derivs[k]) == expected
            for dp in derivs[k]:
                assert dp.shape == (reference_cascade.n, reference_cascade.n)
                np.testing.assert_allclose(dp, dp.T, atol=1e-10)


class TestVectorLayout:
    def test_d_vector_stacks_energy_then_coupling(self, reference_cascade, reference_gradients):
        for k, nk in enumerate(reference_cascade.dims):
            d = reference_gradients.d_vector(k)
            half = nk * (nk + 1) // 2
            assert d.shape == (half + reference_cascade.m * nk,)
            np.testing.assert_array_equal(d[:half], vech(reference_gradients.rho[k]))
            np.testing.assert_array_equal(
                d[half:], reference_gradients.mu[k].reshape(-1, order="F")
            )
