import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrs, dtrtrs

import qcascade.covariance
import qcascade.gradients
import qcascade.linalg
import qcascade.oscillator

from conftest import (
    composite,
    data_cascade,
    make_cascade,
    make_mixed_cascade,
    make_oscillator,
    make_passive_chain,
    random_blockdiag_symplectic,
    random_symplectic,
    rank_m_stack,
    weight_model,
)
from qcascade.covariance import (
    _recursive_covariance,
    invariant_covariance_direct,
    invariant_covariance_recursive,
    log_det_stack,
)
from qcascade.errors import NonPositive, NotHurwitz, SingularLeadingBlock, SolverSingular
from qcascade.gradients import (
    GradientSet,
    _lapack_solve,
    _recursive_gramian,
    covariance_derivatives,
    gradient_fd_oracle,
    observability_gramian_and_hankelian,
    purity_gradients_direct,
    purity_gradients_recursive,
)
from qcascade.linalg import (
    RESIDUAL_TOL, J2, antisymmetric_part, cascade_schur, solve_cascade_lyapunov, symmetric_part,
    vech_to_symmetric,
)
from qcascade.oracles import duplication_matrix, solve_lyapunov, vech
from qcascade.oscillator import (
    OscillatorParams,
    assemble_cascade,
    default_theta,
    parameter_positions,
    parameter_sizes,
    perturbed_cascade_stack,
    transform_params,
)
from qcascade.sensitivity import fisher_sensitivity


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


def stack_distance(g1, g2):
    return np.sqrt(
        sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g1.rho, g2.rho))
        + sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g1.mu, g2.mu))
    )


def stack_gap(g1, g2):
    return stack_distance(g1, g2) / stack_norm(g2)


def named_chain(name):
    """The mixed (2, 4, 2) chain, the passive eight-oscillator chain, or its
    squeezed copy R_k + 0.2 diag(1, -1), which is off the pure state."""
    if name == "mixed":
        return make_mixed_cascade(np.random.default_rng(5151))
    cascade = make_passive_chain(np.random.default_rng(808), 8)
    if name == "squeezed8":
        squeeze = 0.2 * np.diag([1.0, -1.0])
        cascade = assemble_cascade([replace(p, r_energy=p.r_energy + squeeze) for p in cascade.params])
    return cascade


def per_oscillator_adjoint_map(cascade, h, bq):
    """The adjoint map of ``_gradients_from_adjoints`` as one loop over
    oscillators, the form it had before it became composite products: the
    test oracle of the map, which both gradient routes share."""
    m_theta = cascade.m_coupling @ cascade.theta
    rho, mu = [], []
    for k, blk in enumerate(cascade.blocks):
        off, theta_k = blk.start, cascade.params[k].theta
        rho.append(-4.0 * symmetric_part(theta_k @ h[blk, blk]))
        mu_k = 4.0 * bq[:, blk] @ theta_k
        acc = cascade.params[k].m_coupling @ antisymmetric_part(theta_k @ h[blk, blk])
        acc += m_theta[:, blk.stop :] @ h[blk.stop :, blk]
        mu_k += 8.0 * cascade.j_ito @ acc
        mu_k += 8.0 * cascade.j_ito @ (cascade.m_coupling[:, :off] @ h[blk, :off].T) @ theta_k
        mu.append(-mu_k)
    return GradientSet(rho=tuple(rho), mu=tuple(mu))


class TestAdjointMap:
    """Both gradient routes map their adjoints by ``_gradients_from_adjoints``,
    so their route gap cannot see an error in it; a per-oscillator loop can.
    Passive chains have rho = mu = 0 and cannot show one either."""

    @pytest.mark.parametrize("chain", ["mixed", "squeezed8"])
    @pytest.mark.parametrize("adjoints", ["gramian", "random"])
    def test_composite_products_match_the_per_oscillator_loop(self, chain, adjoints):
        cascade = named_chain(chain)
        if adjoints == "gramian":
            q, h = observability_gramian_and_hankelian(cascade)
            bq = cascade.b.T @ q
        else:  # entries above the diagonal blocks too, which the map must not read
            rng = np.random.default_rng(77)
            h, bq = rng.standard_normal((cascade.n, cascade.n)), rng.standard_normal((cascade.m, cascade.n))
        got = qcascade.gradients._gradients_from_adjoints(cascade, h, bq)
        want = per_oscillator_adjoint_map(cascade, h, bq)
        scale = max(np.max(np.abs(x)) for x in want.rho + want.mu)
        assert scale > 1e-3  # off the pure state: the map has something to get wrong
        for g, w in zip(got.rho + got.mu, want.rho + want.mu, strict=True):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13 * scale


class TestGramian:
    def test_identity_drift(self):
        # one oscillator with R = 0 and a symplectic coupling M has A = 2 theta M^T J M = -I
        m_coupling = random_symplectic(np.random.default_rng(0), 4)
        cascade = assemble_cascade([OscillatorParams(default_theta(4), np.zeros((4, 4)), m_coupling)])
        np.testing.assert_allclose(cascade.a, -np.eye(4), atol=1e-12)
        p = invariant_covariance_direct(cascade)
        q, h = observability_gramian_and_hankelian(cascade)
        np.testing.assert_allclose(q, 0.5 * np.linalg.inv(p), atol=1e-12)
        np.testing.assert_allclose(h, 0.5 * np.eye(4), atol=1e-12)

    def test_reference_equation_residual(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        q, _ = observability_gramian_and_hankelian(reference_cascade)
        res = reference_cascade.a.T @ q + q @ reference_cascade.a + np.linalg.inv(p)
        scale = np.linalg.norm(q) * np.linalg.norm(reference_cascade.a)
        assert np.linalg.norm(res) <= 1e-10 * max(1.0, scale)

    def test_hankelian_spectrum_is_real_positive(self, reference_cascade):
        _, h = observability_gramian_and_hankelian(reference_cascade)
        eigs = np.linalg.eigvals(h)
        assert np.max(np.abs(eigs.imag)) <= 1e-9 * np.max(np.abs(eigs))
        assert np.min(eigs.real) > 0.0

    def test_hankelian_similar_to_whitened_gramian(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        q, h = observability_gramian_and_hankelian(reference_cascade)
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

        gees = qcascade.linalg.dgees

        def spy_gees(select, x, *args, **kwargs):
            orders.append(np.shape(x)[0])
            return gees(select, x, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", spy(scipy.linalg.schur))
        monkeypatch.setattr(qcascade.linalg, "dgees", spy_gees)
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
        gees = qcascade.linalg.dgees

        def spy_gees(select, x, *args, **kwargs):
            orders.append(np.shape(x))
            return gees(select, x, *args, **kwargs)

        monkeypatch.setattr(qcascade.linalg, "dgees", spy_gees)
        purity_gradients_recursive(cascade)
        assert orders == [(2, 2)] * len(cascade.dims)

    def test_triangular_solves_refuse_non_finite_and_singular(self):
        with pytest.raises(SolverSingular, match="non-finite"):
            _lapack_solve(dtrtrs, np.eye(2), np.array([[np.nan], [0.0]]))
        with pytest.raises(SolverSingular, match="non-finite"):
            _lapack_solve(dpotrs, np.diag([1.0, np.inf]), np.eye(2), lower=1)
        with pytest.raises(SolverSingular, match="dtrtrs: info 2"):
            _lapack_solve(dtrtrs, np.diag([1.0, 0.0]), np.ones((2, 1)))

    def test_recursive_route_solves_no_block_beyond_one_oscillator(self, monkeypatch):
        # the column sweeps of the block recursion: one solve per oscillator
        # forward (P) and one transposed (the Gramian), each on one
        # oscillator's columns and the rows from it to the end, and no dense
        # factorization of P or of a Gramian
        cascade = make_passive_chain(np.random.default_rng(1616), 16)
        calls, factored = [], []
        solve = qcascade.gradients.solve_cascade_sylvester

        def spy_solve(factor, rows, cols, *args, transpose=False, **kwargs):
            calls.append(((rows.start, rows.stop), (cols.start, cols.stop), transpose))
            return solve(factor, rows, cols, *args, transpose=transpose, **kwargs)

        cho_factor = scipy.linalg.cho_factor

        def spy_factor(*args, **kwargs):
            factored.append(np.shape(args[0]))
            return cho_factor(*args, **kwargs)

        for module in (qcascade.gradients, qcascade.covariance):
            monkeypatch.setattr(module, "solve_cascade_sylvester", spy_solve)
        monkeypatch.setattr(scipy.linalg, "cho_factor", spy_factor)
        purity_gradients_recursive(cascade)
        blocks = {(blk.start, blk.stop) for blk in cascade.blocks}
        assert {cols for _, cols, _ in calls} == blocks
        assert all(rows == (cols[0], cascade.n) for rows, cols, _ in calls)
        steps = len(cascade.dims)
        assert [transpose for _, _, transpose in calls].count(False) == steps
        assert [transpose for _, _, transpose in calls].count(True) == steps
        assert factored == []

    @pytest.mark.parametrize("chain", ["cascade_n3_m6", "mixed", "benchmark_mc4_s1_0"])
    def test_reverse_sweep_gramian_matches_the_direct_gramian(self, chain):
        # the recursive route's Gramian, from its own P and factor, against
        # the one dense transposed solve of the direct route
        cascade = named_chain(chain) if chain == "mixed" else data_cascade(chain)
        factor = cascade_schur(cascade.a, cascade.dims)
        q = _recursive_gramian(cascade, factor, _recursive_covariance(cascade, factor))
        direct, _ = observability_gramian_and_hankelian(cascade)
        assert np.linalg.norm(q - direct) <= 1e-12 * np.linalg.norm(direct)

    @pytest.mark.parametrize("chain", ["mixed", "passive8", "squeezed8"])
    def test_recursive_route_matches_the_fd_oracle(self, chain):
        # the (2, 4, 2) chain puts blocks of order 4 into both adjoint solves;
        # a passive chain is in the pure state, where V is stationary, so the
        # gap is taken at the benchmark's scale max(1, |gradient|), and its
        # squeezed copy moves off that state
        cascade = named_chain(chain)
        fd = gradient_fd_oracle(cascade, h=1e-5)
        gap = stack_distance(purity_gradients_recursive(cascade), fd)
        assert gap <= 1e-6 * max(1.0, stack_norm(fd))

    def test_recursive_route_refuses_an_unstable_oscillator_before_any_solve(self, monkeypatch):
        unstable = OscillatorParams(
            theta=0.5 * J2, r_energy=np.array([[0.0, 2.0], [2.0, 0.0]]), m_coupling=0.05 * np.eye(2)
        )
        stable = OscillatorParams(theta=0.5 * J2, r_energy=np.zeros((2, 2)), m_coupling=np.eye(2))
        cascade = assemble_cascade([stable, unstable, stable])
        calls = []
        monkeypatch.setattr(qcascade.gradients, "cascade_schur", lambda *a: calls.append(a))
        for module in (qcascade.gradients, qcascade.covariance):
            monkeypatch.setattr(module, "solve_cascade_sylvester", lambda *a, **k: calls.append(a))
        with pytest.raises(NotHurwitz, match="oscillator 1 "):
            purity_gradients_recursive(cascade)
        assert calls == []

    def test_recursive_route_refuses_an_indefinite_leading_block(self, reference_cascade, monkeypatch):
        p = np.diag([1.0, 1, -1, 1, 1, 1])
        monkeypatch.setattr(qcascade.gradients, "_recursive_covariance", lambda cascade, factor: p)
        with pytest.raises(SingularLeadingBlock, match="oscillator 1 "):
            purity_gradients_recursive(reference_cascade)

    def test_energy_gradient_is_symmetric(self, reference_gradients):
        for r in reference_gradients.rho:
            np.testing.assert_allclose(r, r.T, atol=1e-12)


class TestFiniteDifferenceOracle:
    def test_reference_agreement(self, reference_cascade, reference_gradients):
        fd = gradient_fd_oracle(reference_cascade, h=1e-5)
        assert stack_gap(fd, reference_gradients) <= 1e-6

    def test_mixed_chain_agreement(self):
        # a two-mode oscillator has symmetric energy pairs in several vech columns
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


def one_oscillator_stack(cascade, k, basis):
    """Copies 2t and 2t + 1 move oscillator k alone by +basis[t] and -basis[t]."""
    de = [np.zeros((2 * len(basis), nk * (nk + 1) // 2 + cascade.m * nk)) for nk in cascade.dims]
    de[k] = np.stack([basis, -basis], axis=1).reshape(2 * len(basis), -1)
    return perturbed_cascade_stack(cascade, de)


def per_oscillator_fd(cascade, h):
    """The central-difference oracle with one stack and one solve per oscillator."""
    rho, mu = [], []
    for k, nk in enumerate(cascade.dims):
        d_r = nk * (nk + 1) // 2
        stack = one_oscillator_stack(cascade, k, h * np.eye(d_r + cascade.m * nk))
        logdet, certificate = log_det_stack(stack)
        assert np.all(certificate <= RESIDUAL_TOL)
        slope = (logdet[0::2] - logdet[1::2]) / (2.0 * h)
        rho_k = np.zeros((nk, nk))
        pairs = [(i, j) for j in range(nk) for i in range(j, nk)]  # vech order
        for (i, j), value in zip(pairs, slope[:d_r]):
            rho_k[i, j] = rho_k[j, i] = value / (1.0 if i == j else 2.0)
        rho.append(rho_k)
        mu.append(-slope[d_r:].reshape(nk, cascade.m).T)
    return rho + mu


def nearest_power_of_two(x):
    """The power of two nearest x > 0 (the larger one on a tie), 1 for x = 0."""
    if x == 0.0:
        return 1.0
    below = 2.0 ** math.floor(math.log2(x))
    return min((2.0 * below, below), key=lambda c: abs(x - c))


def per_oscillator_responses(cascade):
    """The covariance responses from the differences of +/- perturbed stacks,
    with one stack and one solve per oscillator, each probe moved by the power
    of two nearest the largest |entry| of its own R_k or M_k block."""
    p = invariant_covariance_direct(cascade)
    diag, b, c = rank_m_stack([cascade])
    base, out = (*diag, b, c), []
    for k, (nk, params) in enumerate(zip(cascade.dims, cascade.params)):
        steps = np.repeat(
            [nearest_power_of_two(np.max(np.abs(x))) for x in (params.r_energy, params.m_coupling)],
            parameter_sizes(nk, cascade.m),
        )
        stack = one_oscillator_stack(cascade, k, np.diag(steps))
        stack_a = composite(stack.diag, stack.b, stack.c)
        da = (stack_a[..., 0::2] - stack_a[..., 1::2]) / (2.0 * steps)
        db = (stack.b[..., 0::2] - stack.b[..., 1::2]) / (2.0 * steps)
        half = np.einsum("ils,lj->ijs", da, p) + np.einsum("ias,ja->ijs", db, cascade.b)
        force = half + half.transpose(1, 0, 2)
        *diag, b, c = (np.broadcast_to(x, x.shape[:2] + force.shape[2:]) for x in base)
        dp, certificate = solve_cascade_lyapunov(diag, b, c, force)
        assert np.all(certificate <= RESIDUAL_TOL)
        out.append(np.moveaxis(dp, -1, 0))
    return out


def spy_lyapunov_copies(monkeypatch):
    """Copy count S of every stacked Lyapunov solve of the probe routes, read
    from its certificate: the responses pass one shared realization."""
    copies = []

    def spy(diag, b, c, q=None):
        p, certificate = solve_cascade_lyapunov(diag, b, c, q)
        copies.append(len(certificate))
        return p, certificate

    for module in (qcascade.covariance, qcascade.gradients):
        monkeypatch.setattr(module, "solve_cascade_lyapunov", spy)
    return copies


class TestProbeStack:
    """The probes of every oscillator are solved once per chunk of at most
    ``PROBE_ENTRIES`` entries in any (n, n, S) array: the oracle's signed
    stack counts two copies per probe, a response, formed from the exact dA
    and dB, one."""

    @pytest.fixture(params=["reference", "mixed"])
    def cascade(self, request, reference_cascade):
        if request.param == "mixed":
            return make_mixed_cascade(np.random.default_rng(5151))
        return reference_cascade

    def test_oracle_is_the_per_oscillator_oracle_to_the_bit(self, cascade):
        fd = gradient_fd_oracle(cascade, h=1e-5)
        for got, want in zip((*fd.rho, *fd.mu), per_oscillator_fd(cascade, 1e-5), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_responses_match_the_per_oscillator_differences(self, cascade):
        # the oracle differences perturbed stacks; production forms the exact
        # dA and dB, so they agree to round-off of each oscillator's max|dP|
        got = covariance_derivatives(cascade)
        for dp, want in zip(got, per_oscillator_responses(cascade), strict=True):
            assert np.max(np.abs(dp - want)) <= 1e-12 * np.max(np.abs(want))

    def test_responses_build_no_perturbed_cascade(self, cascade, monkeypatch):
        uncertainty = weight_model([(0.5, 1.5)] * len(cascade.dims))
        want = fisher_sensitivity(cascade, uncertainty).z_total

        def refuse(*args, **kwargs):
            raise AssertionError("a response built a perturbed cascade")

        monkeypatch.setattr(qcascade.gradients, "perturbed_cascade_stack", refuse)
        monkeypatch.setattr(qcascade.oscillator, "_series_connection", refuse)
        assert len(covariance_derivatives(cascade)) == len(cascade.dims)
        assert fisher_sensitivity(cascade, uncertainty).z_total == want

    def test_chunks_reproduce_one_stack_to_the_bit(self, cascade, monkeypatch):
        fd, dps = gradient_fd_oracle(cascade, h=1e-5), covariance_derivatives(cascade)
        probes = sum(nk * (nk + 1) // 2 + cascade.m * nk for nk in cascade.dims)
        # probes // 3 responses a chunk: three or four chunks, at least six of the oracle's pairs
        budget = cascade.n**2 * (probes // 3)
        monkeypatch.setattr(qcascade.gradients, "PROBE_ENTRIES", budget)
        copies = spy_lyapunov_copies(monkeypatch)
        chunked_fd = gradient_fd_oracle(cascade, h=1e-5)
        fd_copies, copies[:] = copies[:], []
        chunked_dps = covariance_derivatives(cascade)
        assert len(fd_copies) >= 6 and sum(fd_copies) == 2 * probes
        assert len(copies) == -(-probes // (probes // 3)) and sum(copies) == probes
        assert max(fd_copies + copies) * cascade.n**2 <= budget
        for got, want in zip((*chunked_fd.rho, *chunked_fd.mu), (*fd.rho, *fd.mu), strict=True):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(chunked_dps, dps, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_one_solve_per_chunk(self, reference_cascade, monkeypatch):
        # 45 probes in one chunk: one solve of 90 signed copies, one of 45 responses
        copies = spy_lyapunov_copies(monkeypatch)
        gradient_fd_oracle(reference_cascade, h=1e-5)
        covariance_derivatives(reference_cascade)
        assert copies == [90, 45]

    def test_crossing_probe_in_a_later_chunk_is_reported(self, monkeypatch):
        # margin -1e-7: the base is stable, the +h probe of R_2[1,0] is not
        rng = np.random.default_rng(77)
        fragile = OscillatorParams(
            theta=0.5 * J2,
            r_energy=np.array([[0.0, 0.01 - 1e-7], [0.01 - 1e-7, 0.0]]),
            m_coupling=0.1 * np.eye(2),
        )
        cascade = assemble_cascade([make_oscillator(rng, 2), make_oscillator(rng, 2), fragile])
        # 7 probes per oscillator, 3 per chunk: R_2[1,0] is probe 15, in the sixth chunk
        monkeypatch.setattr(qcascade.gradients, "PROBE_ENTRIES", 2 * cascade.n**2 * 3)
        copies = spy_lyapunov_copies(monkeypatch)
        with pytest.raises(NotHurwitz, match=r"perturbation of R_2\[1,0\].*oscillator 2"):
            gradient_fd_oracle(cascade, h=1e-5)
        assert len(copies) == 6

    def test_failed_response_certificate_names_its_oscillator(self, reference_cascade, monkeypatch):
        # three chunks of 15 probes, one oscillator each; the second fails its certificate
        monkeypatch.setattr(qcascade.gradients, "PROBE_ENTRIES", reference_cascade.n**2 * 15)
        calls = []

        def failing_second_chunk(diag, b, c, q):
            p, certificate = solve_cascade_lyapunov(diag, b, c, q)
            calls.append(len(certificate))
            return p, certificate + (len(calls) == 2)

        monkeypatch.setattr(qcascade.gradients, "solve_cascade_lyapunov", failing_second_chunk)
        with pytest.raises(SolverSingular, match="covariance response of oscillator 1"):
            covariance_derivatives(reference_cascade)
        assert calls == [15, 15, 15]

    @pytest.mark.parametrize("excess, error", [(0.0, NonPositive), (1.0, SolverSingular)])
    def test_failed_probe_names_its_entry(self, reference_cascade, monkeypatch, excess, error):
        # copy 7, the - probe of M_0[0,0], has no ln det; a certificate that
        # passes makes P not positive definite, one that fails a failed solve
        def failing(stack):
            logdet, certificate = (x.copy() for x in log_det_stack(stack))
            logdet[7] = np.nan
            certificate[7] += excess
            return logdet, certificate

        monkeypatch.setattr(qcascade.gradients, "log_det_stack", failing)
        with pytest.raises(error, match=r"^finite-difference probes: perturbation of M_0\[0,0\]: residual certificate"):
            gradient_fd_oracle(reference_cascade, h=1e-5)


class TestTransform:
    def test_identity_transforms_are_neutral(self, reference_cascade, reference_gradients):
        for k, n in enumerate(reference_cascade.dims):
            rho, _ = reference_gradients.transformed_pair(k, np.eye(n))
            np.testing.assert_array_equal(rho, reference_gradients.rho[k])

    def test_consistent_with_recomputation(self, reference_cascade, reference_gradients):
        rng = np.random.default_rng(31)
        transforms = random_blockdiag_symplectic(rng, reference_cascade.dims)
        mapped = GradientSet(*zip(*(reference_gradients.transformed_pair(k, s) for k, s in enumerate(transforms))))
        moved = assemble_cascade(
            [transform_params(p, s) for p, s in zip(reference_cascade.params, transforms)]
        )
        recomputed = purity_gradients_direct(moved)
        assert stack_gap(mapped, recomputed) <= 1e-8


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
        derivs = covariance_derivatives(cascade)
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


def layout_cascade(build, reference_cascade):
    return {
        "reference": reference_cascade,
        "mixed": make_mixed_cascade(np.random.default_rng(5151)),
    }[build]


class TestVectorLayout:
    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_positions_gather_dr_and_the_transposed_dm(self, n, m):
        # de[at] is [dR | dM^T]: dR from its vech half, dM from its vec half, columns first
        at = parameter_positions(n, m)
        d_r, d_m = parameter_sizes(n, m)
        de = np.random.default_rng(100 * n + m).standard_normal(d_r + d_m)
        assert at.shape == (n, n + m) and not at.flags.writeable
        assert parameter_positions(n, m) is at
        np.testing.assert_array_equal(de[at[:, :n]], vech_to_symmetric(de[:d_r], n))
        np.testing.assert_array_equal(de[at[:, n:]], de[d_r:].reshape(n, m))

    @pytest.mark.parametrize("build", ["reference", "mixed"])
    def test_unpack_inverts_d_vector(self, build, reference_cascade):
        cascade = layout_cascade(build, reference_cascade)
        grads = purity_gradients_direct(cascade)
        for k, nk in enumerate(cascade.dims):
            rho, mu = GradientSet._unpack(grads.d_vector(k), nk, cascade.m)
            np.testing.assert_array_equal(rho, grads.rho[k])
            np.testing.assert_array_equal(mu, grads.mu[k])

    def test_d_vector_stacks_energy_then_coupling(self, reference_cascade, reference_gradients):
        # dV/de_k: off-diagonal energy entries doubled, the coupling half negated (mu = -dV/dM)
        for k, nk in enumerate(reference_cascade.dims):
            d = reference_gradients.d_vector(k)
            half, rest = parameter_sizes(nk, reference_cascade.m)
            assert d.shape == (half + rest,)
            rho = reference_gradients.rho[k]
            np.testing.assert_array_equal(d[:half], vech(2.0 * rho - np.diag(np.diag(rho))))
            np.testing.assert_array_equal(d[:half], duplication_matrix(nk).T @ rho.reshape(-1, order="F"))
            np.testing.assert_array_equal(
                d[half:], -reference_gradients.mu[k].reshape(-1, order="F")
            )

    @pytest.mark.parametrize("build", ["reference", "mixed"])
    def test_d_vector_is_the_directional_derivative(self, build, reference_cascade):
        # sum_k d_vector(k) . de_k is the central difference of V along (de_0, ..., de_N)
        cascade = layout_cascade(build, reference_cascade)
        grads = purity_gradients_direct(cascade)
        rng = np.random.default_rng(1)
        de = [rng.standard_normal(sum(parameter_sizes(nk, cascade.m))) for nk in cascade.dims]
        h = 1e-6
        stack = perturbed_cascade_stack(cascade, [np.stack([h * u, -h * u]) for u in de])
        logdet, certificate = log_det_stack(stack)
        assert np.all(certificate <= RESIDUAL_TOL)
        slope = (logdet[0] - logdet[1]) / (2.0 * h)
        predicted = sum(grads.d_vector(k) @ u for k, u in enumerate(de))
        assert abs(predicted - slope) <= 1e-6 * abs(slope)
        # and d_vector(k) . de_k = <rho_k, dR_k> - <mu_k, dM_k>, de_k = [vech dR_k; vec dM_k]
        for k, (nk, u) in enumerate(zip(cascade.dims, de)):
            d_r = parameter_sizes(nk, cascade.m)[0]
            dr, dm = vech_to_symmetric(u[:d_r], nk), u[d_r:].reshape((cascade.m, nk), order="F")
            want = np.sum(grads.rho[k] * dr) - np.sum(grads.mu[k] * dm)
            assert grads.d_vector(k) @ u == pytest.approx(want, rel=1e-14)
