import importlib.machinery

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qcascade.covariance
import qcascade.gradients
import qcascade.linalg
from conftest import (
    composite,
    make_cascade,
    make_mixed_cascade,
    make_oscillator,
    make_passive_chain,
    perturbed_params,
    rank_m_stack,
)
from qcascade.covariance import log_det_stack, stationary_covariance
from qcascade.errors import EigFailure, NotHurwitz, SolverSingular
from qcascade.gradients import covariance_derivatives
from qcascade.linalg import (
    J2,
    RESIDUAL_TOL,
    _block_residual2,
    _forcings,
    _frobenius,
    _lyapunov_residual_ratio,
    _sylvester_step,
    block_slices,
    cascade_schur,
    certified,
    certify_sylvester,
    is_hurwitz,
    quantum_psd_margin,
    solve_cascade_lyapunov,
    solve_cascade_sylvester,
    solve_sylvester,
    spectral_abscissa,
    sylvester_kron_solve,
    symmetric_part,
    symplectic_exponential,
    symplectic_form,
    vech_to_symmetric,
)
from qcascade.oracles import duplication_matrix, solve_lyapunov, symplectic_residual, vech
from qcascade.oscillator import CascadeStack, assemble_cascade, parameter_positions, perturbed_cascade_stack


def rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def hurwitz_shifted(rng, n):
    # random matrix shifted left of the imaginary axis
    g = rng.standard_normal((n, n))
    return g - (np.max(np.abs(np.linalg.eigvals(g).real)) + 0.5) * np.eye(n)


sym_2x2 = hnp.arrays(
    np.float64,
    (2, 2),
    elements=st.floats(-3.0, 3.0, allow_nan=False),
).map(lambda x: 0.5 * (x + x.T))


class TestSylvester:
    def test_identity_pair(self):
        sigma = solve_sylvester(-np.eye(2), -np.eye(2), np.eye(2))
        np.testing.assert_allclose(sigma, 0.5 * np.eye(2), atol=1e-14)

    def test_inconsistent_shapes_are_refused(self):
        shown = r"^shapes \(2, 2\), \(3, 3\), \(3, 2\) are not \(n, n\), \(p, p\), \(n, p\)$"
        with pytest.raises(ValueError, match=shown):
            solve_sylvester(-np.eye(2), -np.eye(3), np.ones((3, 2)))

    def test_scalar(self):
        sigma = solve_sylvester(np.array([[-2.0]]), np.array([[-3.0]]), np.array([[10.0]]))
        np.testing.assert_allclose(sigma, [[2.0]], atol=1e-14)

    @pytest.mark.parametrize("n,p", [(2, 3), (4, 4), (6, 5), (3, 6)])
    def test_kron_oracle_agrees_with_production_route(self, n, p):
        rng = np.random.default_rng(n * 10 + p)
        alpha = hurwitz_shifted(rng, n)
        beta = hurwitz_shifted(rng, p)
        gamma = rng.standard_normal((n, p))
        a = sylvester_kron_solve(alpha, beta, gamma)
        b = solve_sylvester(alpha, beta, gamma)
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(a)))

    def test_large_orders_use_schur_route(self):
        # above the kron cutoff the scipy route must satisfy the same residual bound
        rng = np.random.default_rng(3)
        alpha = hurwitz_shifted(rng, 12)
        beta = hurwitz_shifted(rng, 9)
        gamma = rng.standard_normal((12, 9))
        sigma = solve_sylvester(alpha, beta, gamma)
        res = alpha @ sigma + sigma @ beta.T + gamma
        assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(sigma) * np.linalg.norm(alpha)

    def test_rejects_unstable_alpha(self):
        with pytest.raises(NotHurwitz):
            solve_sylvester(np.eye(2), -np.eye(2), np.eye(2))

    def test_rejects_unstable_beta(self):
        with pytest.raises(NotHurwitz):
            solve_sylvester(-np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_residual_certificate_rejects_non_finite_data(self):
        gamma = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(SolverSingular):
            solve_sylvester(-np.eye(2), -np.eye(2), gamma)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_finite_data_refused_before_the_solve(self, which, monkeypatch):
        args = [-np.eye(2), -np.eye(2), np.eye(2)]
        args[which][0, 0] = np.nan
        calls = []
        monkeypatch.setattr(scipy.linalg, "solve_sylvester", lambda *a: calls.append(a))
        with pytest.raises(SolverSingular, match="non-finite"):
            solve_sylvester(*args)
        assert calls == []

    def test_a_failed_schur_solve_is_refused(self, monkeypatch):
        def fail(*args):
            raise np.linalg.LinAlgError("reordering failed")

        monkeypatch.setattr(scipy.linalg, "solve_sylvester", fail)
        with pytest.raises(SolverSingular, match="^Schur solve failed: reordering failed$"):
            solve_sylvester(-np.eye(2), -np.eye(2), np.eye(2))

    @pytest.mark.parametrize("big", [1e160, 1e300])
    def test_certificate_scale_does_not_overflow(self, big):
        # -big s - s + big = 0 has s = big / (big + 1); the norms are finite,
        # their sums of squares are not
        alpha, beta, gamma = -big * np.eye(2), -np.eye(2), big * np.eye(2)
        certify_sylvester(alpha, beta, gamma, np.eye(2))
        # a wrong answer used to pass against an infinite scale
        with pytest.raises(SolverSingular, match="exceeds"):
            certify_sylvester(alpha, beta, gamma, 2.0 * np.eye(2))

    def test_frobenius_is_scipy_norm_to_the_bit(self):
        # the certificate's norms are the BLAS nrm2 that scipy.linalg.norm
        # calls on a real or complex vector, looked up once
        rng = np.random.default_rng(7)
        wide = rng.standard_normal((6, 8))
        cases = [
            rng.standard_normal((5, 3)),
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
            np.zeros((0, 3)),
            1e300 * rng.standard_normal((3, 3)),
            wide[::2, 1::3],
            wide.T,
            wide[:, 2],
        ]
        for x in cases:
            want = scipy.linalg.norm(np.ravel(x), check_finite=False)
            assert _frobenius(x) == want
        # any other dtype is taken in float64 or complex128
        for x in (np.arange(6).reshape(2, 3), cases[0].astype(np.float32), cases[1].astype(np.complex64)):
            wide_type = complex if np.iscomplexobj(x) else float
            assert _frobenius(x) == scipy.linalg.norm(np.ravel(x).astype(wide_type), check_finite=False)

    @pytest.mark.parametrize("broken", [False, True])
    def test_compiled_routines_fall_back_to_the_package_import(self, broken, tmp_path, monkeypatch):
        # where scipy's compiled modules are not files under linalg/, or one
        # fails to load, the loader imports them through scipy.linalg; the
        # routines then give what the fast path's give, to the bit
        if broken:
            (tmp_path / "linalg").mkdir()
            for name in ("_flapack", "_fblas"):
                (tmp_path / "linalg" / (name + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"no ELF")
        elsewhere = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        elsewhere.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(qcascade.linalg, "find_spec", lambda name: elsewhere)
        assert (qcascade.linalg._extension_file("_flapack") is None) is not broken
        lapack = qcascade.linalg._scipy_linalg_extension("_flapack")
        blas = qcascade.linalg._scipy_linalg_extension("_fblas")
        assert lapack is scipy.linalg._flapack
        assert blas is scipy.linalg._fblas
        rng = np.random.default_rng(33)
        s, t = np.triu(rng.standard_normal((4, 4))) - 4 * np.eye(4), np.triu(rng.standard_normal((3, 3)))
        c = rng.standard_normal((4, 3))
        for got, want in zip(lapack.dtrsyl(s, t, c), qcascade.linalg.dtrsyl(s, t, c)):
            np.testing.assert_array_equal(got, want)
        v = 1e300 * rng.standard_normal(9)
        assert blas.dnrm2(v) == qcascade.linalg._NRM2[v.dtype](v)

    def test_certificate_refuses_an_overflowing_residual(self):
        # alpha sigma overflows: the residual is infinite and is refused, with no warning
        with pytest.raises(SolverSingular, match="residual inf"):
            certify_sylvester(-1e300 * np.eye(2), -np.eye(2), np.eye(2), 1e10 * np.eye(2))

    def test_one_product_residual_refuses_an_overflow(self):
        # the same overflow where beta is alpha and sigma is symmetric
        alpha = -1e300 * np.eye(2)
        with pytest.raises(SolverSingular, match="residual inf"):
            certify_sylvester(alpha, alpha, np.eye(2), 1e10 * np.eye(2))

    def test_one_product_residual_needs_a_bitwise_symmetric_sigma(self):
        # alpha = -I solves with sigma = I; I + J2 leaves R + R^T + gamma = 0
        # with R = alpha sigma, but its own residual is -2 J2: only a bitwise
        # symmetric sigma takes the one-product residual
        alpha, gamma = -np.eye(2), 2.0 * np.eye(2)
        certify_sylvester(alpha, alpha, gamma, np.eye(2))
        with pytest.raises(SolverSingular, match="^residual 2.828e"):
            certify_sylvester(alpha, alpha, gamma, np.eye(2) + J2)

    def test_one_product_residual_is_judged_at_the_same_scale(self):
        # beta is alpha or an equal copy of it: the same verdict at the same
        # scale, with a residual that differs by round-off at most
        rng = np.random.default_rng(54)
        alpha = rng.standard_normal((5, 5)) - 4.0 * np.eye(5)
        g = rng.standard_normal((5, 2))
        gamma = g @ g.T
        sigma = solve_sylvester(alpha, alpha.copy(), gamma)
        sigma = 0.5 * (sigma + sigma.T)
        certify_sylvester(alpha, alpha, gamma, sigma)
        wrong = sigma + 1e-6 * np.eye(5)
        messages = []
        for beta in (alpha, alpha.copy()):
            with pytest.raises(SolverSingular) as refused:
                certify_sylvester(alpha, beta, gamma, wrong)
            messages.append(str(refused.value))
        assert messages[0].split(" x ")[1] == messages[1].split(" x ")[1]

    def test_kron_route_singular_spectrum(self):
        # alpha and beta^T spectra overlap on the imaginary axis
        with pytest.raises(SolverSingular):
            sylvester_kron_solve(J2, J2, np.eye(2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_residual_certificate_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 7))
        alpha = hurwitz_shifted(rng, n)
        beta = hurwitz_shifted(rng, p)
        gamma = rng.standard_normal((n, p))
        sigma = solve_sylvester(alpha, beta, gamma)
        res = alpha @ sigma + sigma @ beta.T + gamma
        scale = np.linalg.norm(sigma) * max(np.linalg.norm(alpha), np.linalg.norm(beta))
        assert np.linalg.norm(res) <= 1e-9 * max(1.0, scale)


class TestLyapunov:
    def test_identity_drift_halves_forcing(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((5, 5))
        q = q + q.T
        sigma = solve_lyapunov(-np.eye(5), q)
        np.testing.assert_allclose(sigma, q / 2.0, atol=1e-12)

    def test_result_is_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        a = hurwitz_shifted(rng, 6)
        q = rng.standard_normal((6, 6))
        sigma = solve_lyapunov(a, q + q.T)
        assert np.array_equal(sigma, sigma.T)


class TestKronRouteRetired:
    def test_small_amplifying_chains_match_refined_oracle(self):
        # the draws on which the dense Kronecker solve, once the production
        # route up to order 8, was off by 3e-11 while passing its certificate
        rng = np.random.default_rng(2024)
        for _ in range(100):
            make_cascade(rng, 3, 2)
        for _ in range(100):
            cascade = make_cascade(rng, 4, 2)
            q = cascade.b @ cascade.b.T
            want = refined_kron_lyapunov(cascade.a, q)
            got = solve_lyapunov(cascade.a, q)
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def refined_kron_lyapunov(a, q):
    """Kronecker oracle plus one refinement step with an extended-precision residual.

    On amplifying six-oscillator chains (cond P near 1e9) the plain dense
    solve is off by up to 1e-9 relative; the refined one is exact to
    round-off wherever long double is wider than double.
    """
    x = sylvester_kron_solve(a, a, q)
    a_ext, x_ext = a.astype(np.longdouble), x.astype(np.longdouble)
    residual = a_ext @ x_ext + x_ext @ a_ext.T + q.astype(np.longdouble)
    return x + sylvester_kron_solve(a, a, residual.astype(float))


def lyapunov_stack(cascades):
    """Rank-m inputs (diag, b, c, q) of the Lyapunov equations of assembled cascades, q = B B^T."""
    diag, b, c = rank_m_stack(cascades)
    return diag, b, c, np.einsum("ias,jas->ijs", b, b)


def random_de(cascade, copies, rng, size=1e-2):
    return [size * rng.standard_normal((copies, d * (d + 1) // 2 + cascade.m * d)) for d in cascade.dims]


def assert_matches_single_cascade_route(p, cascade, de):
    """Every copy's P within 1e-12 of its max|P| of the P that
    ``stationary_covariance`` solves on that copy's assembled composite."""
    for s in range(p.shape[2]):
        copy = assemble_cascade(perturbed_params(cascade, de, s))
        want, _ = stationary_covariance(copy.a, copy.b)
        assert np.max(np.abs(p[..., s] - want)) <= 1e-12 * np.max(np.abs(want))


class TestCascadeLyapunov:
    def assert_matches_kron_oracle(self, cascades):
        diag, b, c, q = lyapunov_stack(cascades)
        p, ratio = solve_cascade_lyapunov(diag, b, c, q)
        assert p.shape == q.shape
        assert ratio.shape == (len(cascades),)
        assert np.all(ratio <= RESIDUAL_TOL)
        for s, cascade in enumerate(cascades):
            want = refined_kron_lyapunov(cascade.a, q[..., s])
            assert np.linalg.norm(p[..., s] - want) <= 1e-10 * np.linalg.norm(want)
            assert np.array_equal(p[..., s], p[..., s].T)

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("m", [2, 6])
    @pytest.mark.parametrize("n_osc", [1, 2, 3, 6])
    def test_agrees_with_kron_oracle(self, n_osc, m, batch):
        rng = np.random.default_rng(1000 * n_osc + 10 * m + batch)
        self.assert_matches_kron_oracle(
            [make_cascade(rng, n_osc, m) for _ in range(batch)]
        )

    @pytest.mark.parametrize("batch", [1, 5])
    def test_two_mode_oscillator_inside_chain(self, batch):
        rng = np.random.default_rng(4000 + batch)
        cascades = [
            assemble_cascade(
                [
                    make_oscillator(rng, 2),
                    make_oscillator(rng, 2, n=4),
                    make_oscillator(rng, 2),
                ]
            )
            for _ in range(batch)
        ]
        assert cascades[0].dims == (2, 4, 2)
        self.assert_matches_kron_oracle(cascades)

    @pytest.mark.parametrize(
        "build",
        [lambda rng: make_cascade(rng, 3, 6), lambda rng: make_cascade(rng, 6, 2), make_mixed_cascade],
        ids=["one_mode_3_m6", "one_mode_6_m2", "mixed_2_4_2"],
    )
    def test_matches_the_single_cascade_route(self, build):
        # Q = B B^T given, and left to the kernel (q None), as log_det_stack does
        cascade = build(np.random.default_rng(3701))
        de = random_de(cascade, 32, np.random.default_rng(3702))
        stack = perturbed_cascade_stack(cascade, de)
        for q in (np.einsum("ias,jas->ijs", stack.b, stack.b), None):
            p, ratio = solve_cascade_lyapunov(stack.diag, stack.b, stack.c, q)
            assert np.all(ratio <= RESIDUAL_TOL)
            np.testing.assert_array_equal(recomputed_residual_ratio(stack.diag, stack.b, stack.c, q, p), ratio)
            assert_matches_single_cascade_route(p, cascade, de)

    def test_matches_the_single_cascade_route_with_unstable_copies(self, monkeypatch):
        # one-mode m = 2: swapping the columns of M_0 flips the sign of det(M_0)
        # and makes the copy unstable; log_det_stack compresses it out and
        # hands the kernel the stable copies alone
        cascade = make_cascade(np.random.default_rng(3703), 3, 2)
        de = random_de(cascade, 12, np.random.default_rng(3704), size=1e-3)
        m0 = cascade.params[0].m_coupling
        for s in (2, 7, 8):
            de[0][s, 3:] = (m0[:, ::-1] - m0).reshape(-1, order="F")
        stack = perturbed_cascade_stack(cascade, de)
        stable = stack.hurwitz.all(axis=0)
        assert np.count_nonzero(~stable) == 3
        solved = []

        def spy(diag, b, c, q=None):
            p, ratio = solve_cascade_lyapunov(diag, b, c, q)
            solved.append((p.copy(), ratio))  # log_det_stack factors p in place
            return p, ratio

        monkeypatch.setattr(qcascade.covariance, "solve_cascade_lyapunov", spy)
        logdet, certificate = log_det_stack(stack)
        (p, ratio), = solved
        assert p.shape[2] == 9 and np.all(ratio <= RESIDUAL_TOL)
        assert np.all(np.isnan(logdet[~stable])) and np.all(np.isinf(certificate[~stable]))
        assert_matches_single_cascade_route(p, cascade, [x[stable] for x in de])

    @pytest.mark.parametrize(
        "build", [lambda rng: make_cascade(rng, 3, 6), make_mixed_cascade], ids=["one_mode_3_m6", "mixed_2_4_2"]
    )
    def test_broadcast_responses_match_the_single_cascade_route(self, build, monkeypatch):
        # the covariance responses pass the base cascade's blocks, B and C
        # once, a copy axis of length 1, with an indefinite forcing per copy
        cascade = build(np.random.default_rng(3705))
        solved = []

        def spy(diag, b, c, q):
            assert all(x.shape[-1] == 1 for x in (*diag, b, c)) and q.shape[-1] > 1
            solved.append((q, *solve_cascade_lyapunov(diag, b, c, q)))
            return solved[-1][1:]

        monkeypatch.setattr(qcascade.gradients, "solve_cascade_lyapunov", spy)
        covariance_derivatives(cascade)
        factor = cascade_schur(cascade.a, (cascade.n,))
        (q, p, ratio), = solved
        assert np.all(ratio <= RESIDUAL_TOL)
        for s in range(q.shape[2]):
            want = solve_cascade_sylvester(factor, q[..., s])
            want = 0.5 * (want + want.T)
            assert np.max(np.abs(p[..., s] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_shape_must_match_dims(self):
        cascade = make_cascade(np.random.default_rng(6), 2, 2)
        diag, b, c, q = lyapunov_stack([cascade])
        with pytest.raises(ValueError, match="shape"):
            solve_cascade_lyapunov(diag[:1], b, c, q)
        with pytest.raises(ValueError, match="shape"):
            solve_cascade_lyapunov([diag[0], diag[1][:1, :1]], b, c, q)
        # a copy axis of the realization is 1 or q's: here q has 3 copies
        q3, two = np.repeat(q, 3, axis=-1), [np.repeat(x, 2, axis=-1) for x in (*diag, b, c)]
        for i in range(len(two)):
            given = [*diag, b, c]
            given[i] = two[i]
            with pytest.raises(ValueError, match="shape"):
                solve_cascade_lyapunov(given[:-2], *given[-2:], q3)
        with pytest.raises(ValueError, match="shape"):
            solve_cascade_lyapunov(two[:-2], *two[-2:], q)

    @pytest.mark.parametrize(
        "build",
        [lambda rng: make_cascade(rng, 3, 6), lambda rng: make_cascade(rng, 6, 2), make_mixed_cascade],
        ids=["one_mode_3_m6", "one_mode_6_m2", "mixed_2_4_2"],
    )
    def test_shared_realization_is_the_repeated_one_to_the_bit(self, build):
        # a copy axis of length 1 and the same realization in S contiguous
        # copies give the same P and certificate, bit for bit
        cascade = build(np.random.default_rng(3706))
        shared = rank_m_stack([cascade])
        rng = np.random.default_rng(3707)
        q = rng.standard_normal((cascade.n, cascade.n, 37))
        repeated = [np.repeat(x, q.shape[-1], axis=-1) for x in (*shared[0], *shared[1:])]
        assert all(x.flags.c_contiguous for x in repeated)
        p, ratio = solve_cascade_lyapunov(*shared, q)
        p_repeated, ratio_repeated = solve_cascade_lyapunov(repeated[:-2], *repeated[-2:], q)
        assert p.shape == q.shape and np.all(ratio <= RESIDUAL_TOL)
        np.testing.assert_array_equal(p, p_repeated)
        np.testing.assert_array_equal(ratio, ratio_repeated)
        np.testing.assert_array_equal(recomputed_residual_ratio(*shared, q, p), ratio)

    def test_result_does_not_depend_on_memory_layout(self):
        cascade = make_cascade(np.random.default_rng(606), 6, 2)
        stack = perturbed_cascade_stack(cascade, random_de(cascade, 256, np.random.default_rng(607)))
        inputs = (*stack.diag, stack.b, stack.c, np.einsum("ias,jas->ijs", stack.b, stack.b))
        # the same values, stack-last views of stack-first arrays
        views = [np.moveaxis(np.moveaxis(x, -1, 0).copy(), 0, -1) for x in inputs]
        assert not any(x.flags.c_contiguous for x in views)
        p, certificate = solve_cascade_lyapunov(inputs[:-3], *inputs[-3:])
        p_view, certificate_view = solve_cascade_lyapunov(views[:-3], *views[-3:])
        np.testing.assert_array_equal(p_view, p)
        np.testing.assert_array_equal(certificate_view, certificate)


def recomputed_residual_ratio(diag, b, c, q, p):
    """The kernel's certificate recomputed from a given P: the kernel's sweep of
    :func:`_forcings` on P and q made symmetric once, block (j, k), j >= k, of R
    the forcing plus A_jj P_jk + P_jk A_kk^T, scaled by :func:`_lyapunov_residual_ratio`.
    On the kernel's exactly symmetric P it is the kernel's ratio to the bit."""
    p, q = (x if x is None else np.ascontiguousarray(0.5 * (x + x.transpose(1, 0, 2))) for x in (p, q))
    blocks, residual = block_slices([len(x) for x in diag]), np.zeros(p.shape[2])
    for j, k, forcing in _forcings(b, c, q, p, blocks):
        residual += _block_residual2(diag[j], diag[k], forcing, p[blocks[j], blocks[k]], twice=j > k)
    return _lyapunov_residual_ratio(diag, b, c, q, p, residual)


def dense_residual_ratio(a, q, p):
    """Oracle of the stacked certificate: R = A P + P A^T + Q with the dense
    (n, n, S) composite A, P and Q the symmetric parts of p and q."""
    p_sym, q_sym = (0.5 * (x + x.transpose(1, 0, 2)) for x in (p, q))
    ap = np.einsum("ils,ljs->ijs", a, p_sym)
    r = ap + ap.transpose(1, 0, 2) + q_sym

    def norm(x):
        return np.sqrt(np.einsum("ijs,ijs->s", x, x))

    return norm(r) / (2.0 * norm(a) * norm(p) + norm(q_sym))


def perturbed_stack(cascade, copies, seed):
    """Rank-m inputs (diag, b, c) of perturbed copies and an unsymmetric Q = B B^T + noise."""
    rng = np.random.default_rng(seed)
    stack = perturbed_cascade_stack(cascade, random_de(cascade, copies, rng))
    q = np.einsum("ias,jas->ijs", stack.b, stack.b) + 1e-3 * rng.standard_normal((cascade.n, cascade.n, copies))
    return stack.diag, stack.b, stack.c, q


def moved(p, rows, cols, size, rng):
    """p with block (rows, cols) moved by ``size`` times ||p|| of each copy."""
    e = rng.standard_normal((rows.stop - rows.start, cols.stop - cols.start, p.shape[2]))
    out = p.copy()
    out[rows, cols] += size * np.sqrt(np.einsum("ijs,ijs->s", p, p)) * e / np.sqrt(np.einsum("ijs,ijs->s", e, e))
    return out


class TestResidualCertificate:
    """The rank-m certificate against the dense product it replaced: at the
    solution both are round-off, so they agree to a few ulps of the ratio's
    scale; at a P moved well above round-off they agree to 1e-8."""

    def assert_matches_the_dense_product(self, diag, b, c, q, p, ratio):
        a, q_dense = composite(diag, b, c), np.einsum("ias,jas->ijs", b, b) if q is None else q
        assert np.all(ratio <= RESIDUAL_TOL)
        np.testing.assert_allclose(ratio, dense_residual_ratio(a, q_dense, p), rtol=0.0, atol=1e-14)
        rng = np.random.default_rng(2907)
        for rows in block_slices([len(x) for x in diag]):
            away = moved(p, rows, slice(0, rows.stop), 1e-6, rng)
            np.testing.assert_allclose(
                recomputed_residual_ratio(diag, b, c, q, away), dense_residual_ratio(a, q_dense, away), rtol=1e-8
            )

    @pytest.mark.parametrize(
        "build",
        [lambda rng: make_cascade(rng, 3, 6), lambda rng: make_cascade(rng, 6, 2), make_mixed_cascade],
        ids=["one_mode_3_m6", "one_mode_6_m2", "mixed_2_4_2"],
    )
    def test_matches_the_dense_product(self, build):
        cascade = build(np.random.default_rng(2901))
        diag, b, c, q = perturbed_stack(cascade, 64, 2902)
        for given in (q, None):  # an unsymmetric Q, then Q = B B^T left to the kernel
            self.assert_matches_the_dense_product(diag, b, c, given, *solve_cascade_lyapunov(diag, b, c, given))

    @pytest.mark.parametrize(
        "build",
        [lambda rng: make_cascade(rng, 3, 6), make_mixed_cascade],
        ids=["one_mode_3_m6", "mixed_2_4_2"],
    )
    def test_matches_the_dense_product_on_force_stacks(self, build, monkeypatch):
        # the covariance responses solve stacks of one A with indefinite forcings
        solves = []

        def spy(diag, b, c, q):
            p, ratio = solve_cascade_lyapunov(diag, b, c, q)
            solves.append((diag, b, c, q, p, ratio))
            return p, ratio

        monkeypatch.setattr(qcascade.gradients, "solve_cascade_lyapunov", spy)
        covariance_derivatives(build(np.random.default_rng(2903)))
        assert solves
        for solve in solves:
            self.assert_matches_the_dense_product(*solve)

    @pytest.mark.parametrize(
        "build",
        [lambda rng: make_cascade(rng, 3, 6), lambda rng: make_cascade(rng, 4, 2), make_mixed_cascade],
        ids=["one_mode_3_m6", "one_mode_4_m2", "mixed_2_4_2"],
    )
    def test_sees_every_block_of_p(self, build):
        # a change of 1e-6 ||P|| in any one block, above the diagonal too,
        # fails the certificate in every copy
        cascade = build(np.random.default_rng(2904))
        diag, b, c, q = perturbed_stack(cascade, 16, 2905)
        p, ratio = solve_cascade_lyapunov(diag, b, c, q)
        blocks = block_slices(cascade.dims)
        np.testing.assert_array_equal(recomputed_residual_ratio(diag, b, c, q, p), ratio)
        assert np.all(ratio <= RESIDUAL_TOL)
        rng = np.random.default_rng(2906)
        for rows in blocks:
            for cols in blocks:
                away = moved(p, rows, cols, 1e-6, rng)
                assert np.all(recomputed_residual_ratio(diag, b, c, q, away) > RESIDUAL_TOL)


class TestCertificateRule:
    @pytest.mark.parametrize("scale", [1.0, 3.7, 4.0**-20, 4.0**20])
    def test_passes_exactly_the_bound(self, scale):
        bound = RESIDUAL_TOL * scale
        assert certified(bound, scale) and certified(0.0, scale)
        assert not certified(np.nextafter(bound, np.inf), scale)

    def test_fails_nan_and_inf_elementwise(self):
        above = np.nextafter(RESIDUAL_TOL, np.inf)
        residual = np.array([0.0, RESIDUAL_TOL, above, np.nan, np.inf])
        np.testing.assert_array_equal(certified(residual), [True, True, False, False, False])
        scale = np.array([1.0, 2.0, np.nan])
        np.testing.assert_array_equal(certified(np.full(3, 2.0 * RESIDUAL_TOL), scale), [False, True, False])


def with_spectrum(rng, eig, pair):
    """Real 2x2 matrix with eigenvalues eig (pair: eig[0] and its conjugate)."""
    if pair:
        core = np.array([[eig[0].real, eig[0].imag], [-eig[0].imag, eig[0].real]])
    else:
        core = np.diag(eig.real)
    v = rng.standard_normal((2, 2))
    return v @ core @ np.linalg.inv(v)


def stable_spectrum(rng, pair):
    if pair:
        return (-rng.uniform(0.2, 2.0) + 1j * rng.uniform(0.2, 2.0)) * np.ones(2)
    return -rng.uniform(0.2, 2.0, 2) + 0j


class TestOneModeStep:
    """The closed-form order-2 step against the Kronecker solve, copy by copy."""

    @pytest.mark.parametrize("gap", [None, 1e-3, 1e-6], ids=["generic", "gap_1e-3", "gap_1e-6"])
    @pytest.mark.parametrize("pair", [False, True], ids=["real", "complex_pair"])
    def test_matches_kron_solve(self, pair, gap):
        # gap: the spectrum of beta is minus that of alpha up to gap, so that
        # lambda(alpha) + lambda(beta) nearly vanishes and the Cayley-Hamilton
        # matrix u alpha + v I is nearly singular
        rng = np.random.default_rng(2 * (gap is None) + pair)
        alpha, beta = np.empty((2, 64, 2, 2))
        for s in range(64):
            eig = stable_spectrum(rng, pair)
            other = stable_spectrum(rng, pair) if gap is None else -eig[::-1] + gap
            alpha[s], beta[s] = with_spectrum(rng, eig, pair), with_spectrum(rng, other, pair)
        f = rng.standard_normal((64, 2, 2))
        x = _sylvester_step(*(z.transpose(1, 2, 0) for z in (alpha, beta, f))).transpose(2, 0, 1)
        for s in range(64):
            want = sylvester_kron_solve(alpha[s], beta[s], f[s])
            op = np.kron(np.eye(2), alpha[s]) + np.kron(beta[s], np.eye(2))
            norms = np.linalg.norm(alpha[s]) + np.linalg.norm(beta[s])
            # forward gap within the conditioning of the problem, kappa =
            # ||op^-1|| (||alpha|| + ||beta||), and a residual within 1e-12
            kappa = np.linalg.norm(np.linalg.inv(op), 2) * norms
            if gap is not None:
                assert kappa >= 0.1 / gap
            assert np.linalg.norm(x[s] - want) <= 1e-12 * kappa * np.linalg.norm(want)
            residual = alpha[s] @ x[s] + x[s] @ beta[s].T + f[s]
            scale = norms * np.linalg.norm(x[s]) + np.linalg.norm(f[s])
            assert np.linalg.norm(residual) <= 1e-12 * scale

    def test_one_mode_chain_solves_no_linear_system(self, monkeypatch):
        rng = np.random.default_rng(31)
        one_mode = lyapunov_stack([make_cascade(rng, 4, 2) for _ in range(3)])
        mixed_cascade = make_mixed_cascade(rng)
        mixed = lyapunov_stack([mixed_cascade])
        calls = []
        solve = np.linalg.solve

        def spy(*args):
            calls.append(args[0].shape)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", spy)
        solve_cascade_lyapunov(*one_mode)
        assert calls == []
        # a step next to the order-4 block still solves its Kronecker system
        solve_cascade_lyapunov(*mixed)
        assert calls

    def test_empty_stack(self):
        cascade = make_cascade(np.random.default_rng(8), 3, 2)
        diag, b, c, q = lyapunov_stack([cascade, cascade])
        p, ratio = solve_cascade_lyapunov([x[..., :0] for x in diag], b[..., :0], c[..., :0], q[..., :0])
        assert p.shape == (6, 6, 0)
        assert ratio.shape == (0,)
        # every copy unstable: log_det_stack hands the kernel the empty stack
        unstable = CascadeStack(
            diag=tuple(diag), b=b, c=c, abscissa=np.ones((3, 2)), hurwitz=np.zeros((3, 2), bool)
        )
        logdet, certificate = log_det_stack(unstable)
        assert np.all(np.isnan(logdet))
        assert np.all(np.isinf(certificate))


SCHUR_CHAINS = pytest.mark.parametrize(
    "build",
    [
        lambda rng: make_cascade(rng, 5, 2),
        lambda rng: make_cascade(rng, 5, 6),
        make_mixed_cascade,
    ],
    ids=["one_mode_m2", "one_mode_m6", "mixed_2_4_2"],
)


class TestCascadeSchur:
    @SCHUR_CHAINS
    def test_factor_is_a_real_schur_form(self, build):
        cascade = build(np.random.default_rng(5150))
        a = cascade.a
        factor = cascade_schur(a, cascade.dims)
        w, s = factor.w, factor.s
        n = cascade.n
        assert np.linalg.norm(w.T @ w - np.eye(n)) <= 1e-14 * n
        block_id = np.repeat(np.arange(len(cascade.dims)), cascade.dims)
        assert not np.any(w[block_id[:, None] != block_id[None, :]])
        # upper quasi-triangular: 1x1 and 2x2 diagonal blocks only, the
        # 2x2 ones in LAPACK's standard form
        assert not np.any(np.tril(s, -2))
        sub = np.flatnonzero(np.diag(s, -1))
        assert not np.any(np.diff(sub) == 1)
        for i in sub:
            assert s[i, i] == s[i + 1, i + 1]
            assert s[i, i + 1] * s[i + 1, i] < 0.0
            assert block_id[i] == block_id[i + 1]
        assert np.linalg.norm(w @ s @ w.T - a.T) <= 1e-14 * np.linalg.norm(a)

    @SCHUR_CHAINS
    def test_factor_is_the_per_block_scipy_schur(self, build):
        # oracle: the same construction with one scipy.linalg.schur call per
        # diagonal block; the direct dgees calls must agree to the bit
        cascade = build(np.random.default_rng(5150))
        a, dims = cascade.a, cascade.dims
        offs = np.concatenate([[0], np.cumsum(dims)])
        block_id = np.repeat(np.arange(len(dims)), dims)
        upper = block_id[:, None] < block_id[None, :]
        w, s = np.zeros_like(a), np.zeros_like(a)
        for lo, hi in zip(offs[:-1], offs[1:]):
            s[lo:hi, lo:hi], w[lo:hi, lo:hi] = scipy.linalg.schur(a[lo:hi, lo:hi].T, output="real")
        s[upper] = (w.T @ a.T @ w)[upper]
        factor = cascade_schur(a, dims)
        assert factor.w.tobytes() == w.tobytes()
        assert factor.s.tobytes() == s.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_refused(self, bad):
        a = make_cascade(np.random.default_rng(5), 3, 2).a.copy()
        a[3, 1] = bad
        with pytest.raises(SolverSingular, match="non-finite"):
            cascade_schur(a, (2, 2, 2))

    def test_marginal_spectra_are_refused(self):
        # the two sides share the spectrum {i, -i}: no unique solution
        factor = cascade_schur(J2, (2,))
        with pytest.raises(SolverSingular):
            solve_cascade_sylvester(factor, np.eye(2))

    @pytest.mark.parametrize("transpose, tile", [(False, r"\(0, 0\)"), (True, r"\(1, 1\)")])
    def test_marginal_spectra_beyond_one_tile_are_refused(self, transpose, tile):
        # order 64, two tiles, both of the spectrum {i, -i}: the first tile
        # solved, the last one when transposed, is refused by its dtrsyl call
        factor = cascade_schur(scipy.linalg.block_diag(*[J2] * 32), (64,))
        assert len(qcascade.linalg._schur_tiles(factor.s)) == 2
        with pytest.raises(SolverSingular, match=rf"^triangular Sylvester solve of tile {tile}: info 1"):
            solve_cascade_sylvester(factor, np.eye(64), transpose=transpose)

    def test_a_failed_block_factorization_is_refused(self, monkeypatch):
        # a dgees call that reports failure: info > 0 is a QR iteration that did not converge
        def fails(select, a):
            return a, 0, a[0], a[0], np.eye(len(a)), np.zeros(0), 2

        monkeypatch.setattr(qcascade.linalg, "dgees", fails)
        cascade = make_cascade(np.random.default_rng(5), 3, 2)
        with pytest.raises(SolverSingular, match="^Schur factorization of diagonal block 0 failed: info 2$"):
            cascade_schur(cascade.a, cascade.dims)

    def test_dense_factor_refusals(self):
        # the one-block factor refuses a non-finite matrix before any QR iteration
        with pytest.raises(SolverSingular, match="non-finite entry"):
            cascade_schur(np.diag([np.nan, -1.0]), (2,))

    def test_rejects_nonzero_block_above_diagonal(self):
        cascade = make_cascade(np.random.default_rng(5), 3, 2)
        a = cascade.a.copy()
        a[1, 4] = 1e-3
        with pytest.raises(ValueError, match="above the diagonal"):
            cascade_schur(a, cascade.dims)


def single_call(factor, gamma, transpose):
    """The solve as one unblocked dtrsyl call on the whole factor, certified."""
    w, op = factor.w, factor.a.T if transpose else factor.a
    x, scale, info = qcascade.linalg.dtrsyl(factor.s, factor.s, -(w.T @ gamma @ w), *("NT" if transpose else "TN"))
    assert info == 0 and scale == 1.0
    sigma = w @ x @ w.T
    certify_sylvester(op, op, gamma, sigma)
    return sigma


def bumped_factor(n, bump):
    """A stable real Schur factor of order n with a 2 x 2 bump at rows bump,
    bump + 1, and a symmetric gamma of rank 3."""
    rng = np.random.default_rng(n)
    s = np.triu(0.3 * rng.standard_normal((n, n)), 1)
    s[np.diag_indices(n)] = -1.0 - 0.05 * np.arange(n)
    s[bump : bump + 2, bump : bump + 2] = [[-2.0, 3.0], [-1.0, -2.0]]
    w = np.linalg.qr(rng.standard_normal((n, n)))[0]
    g = rng.standard_normal((n, 3))
    return qcascade.linalg.CascadeSchur(a=(w @ s @ w.T).T, w=w, s=s), g @ g.T


def chain_factor(n_osc, structured):
    """The dense or structured factor of a passive chain and its B B^T."""
    cascade = make_passive_chain(np.random.default_rng(n_osc), n_osc)
    return cascade_schur(cascade.a, cascade.dims if structured else (cascade.n,)), cascade.b @ cascade.b.T


TILED_FACTORS = pytest.mark.parametrize(
    "build, tiles",
    [
        (lambda: bumped_factor(33, 31), 1),
        (lambda: bumped_factor(48, 31), 2),
        (lambda: chain_factor(32, False), 2),
        (lambda: chain_factor(32, True), 2),
        (lambda: chain_factor(64, False), 4),
        (lambda: chain_factor(64, True), 4),
    ],
    ids=["n33_bump_at_cut", "n48_bump_at_cut", "n64_dense", "n64_structured", "n128_dense", "n128_structured"],
)


class TestTiledSolve:
    @TILED_FACTORS
    @pytest.mark.parametrize("transpose", [False, True])
    def test_tiled_solve_agrees_with_one_dtrsyl_call(self, build, tiles, transpose):
        factor, gamma = build()
        cuts = [t.stop for t in qcascade.linalg._schur_tiles(factor.s)]
        assert len(cuts) == tiles
        # a cut never splits a 2 x 2 bump
        assert all(cut == len(factor.s) or factor.s[cut, cut - 1] == 0.0 for cut in cuts)
        got = solve_cascade_sylvester(factor, gamma, transpose=transpose)
        want = single_call(factor, gamma, transpose)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("n_osc", [3, 16])
    def test_one_tile_is_the_single_call_to_the_byte(self, n_osc, structured, transpose):
        factor, gamma = chain_factor(n_osc, structured)
        assert len(factor.s) <= qcascade.linalg.TILE
        got = solve_cascade_sylvester(factor, gamma, transpose=transpose)
        assert got.tobytes() == symmetric_part(single_call(factor, gamma, transpose)).tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: chain_factor(3, False),
            lambda: chain_factor(3, True),
            lambda: bumped_factor(48, 31),
            lambda: chain_factor(64, False),
            lambda: chain_factor(64, True),
        ],
        ids=["n6_dense", "n6_structured", "n48_bump_at_cut", "n128_dense", "n128_structured"],
    )
    def test_the_solution_is_bitwise_symmetric(self, build, transpose):
        # the certificate's one-product residual is that of the value returned
        factor, gamma = build()
        got = solve_cascade_sylvester(factor, gamma, transpose=transpose)
        assert got.tobytes() == got.T.copy().tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_one_dtrsyl_call_per_lower_tile(self, monkeypatch, transpose):
        factor, gamma = chain_factor(64, False)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return dtrsyl(*args, **kwargs)

        dtrsyl = qcascade.linalg.dtrsyl
        monkeypatch.setattr(qcascade.linalg, "dtrsyl", spy)
        solve_cascade_sylvester(factor, gamma, transpose=transpose)
        p = len(qcascade.linalg._schur_tiles(factor.s))
        assert p == 4 and len(calls) == p * (p + 1) // 2

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("n_osc, tiles", [(3, 1), (64, 4)], ids=["n6_one_tile", "n128_tiled"])
    def test_the_solve_certifies_its_own_solution(self, monkeypatch, n_osc, tiles, transpose):
        # w scaled by 1 + 1e-6 is no longer orthogonal, and X comes out
        # (1 + 1e-6)^4 times the solution: the solve's own one-product residual
        # refuses it, with no call of the two-product rule
        factor, gamma = chain_factor(n_osc, False)
        assert len(qcascade.linalg._schur_tiles(factor.s)) == tiles
        calls = []
        monkeypatch.setattr(qcascade.linalg, "certify_sylvester", lambda *args: calls.append(args))
        solve_cascade_sylvester(factor, gamma, transpose=transpose)
        with pytest.raises(SolverSingular, match="^residual .* exceeds"):
            solve_cascade_sylvester(factor._replace(w=(1.0 + 1e-6) * factor.w), gamma, transpose=transpose)
        assert calls == []

    def test_a_non_symmetric_gamma_is_refused_by_the_certificate(self):
        # only the lower tiles of C are read: a gamma far from symmetric leaves
        # the mirrored upper tiles unsolved, which the certificate refuses
        factor, gamma = chain_factor(32, False)
        gamma = gamma + np.triu(np.ones_like(gamma), 1)
        with pytest.raises(SolverSingular, match="^residual .* exceeds"):
            solve_cascade_sylvester(factor, gamma)


class TestVechDuplication:
    def test_duplication_order_two(self):
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(duplication_matrix(2), expected)

    def test_duplication_order_one(self):
        np.testing.assert_array_equal(duplication_matrix(1), [[1.0]])

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_gram_diagonal_counts_offdiagonal_entries_twice(self, r):
        ups = duplication_matrix(r)
        gram = ups.T @ ups
        assert np.array_equal(gram, np.diag(np.diag(gram)))
        assert set(np.diag(gram).tolist()) <= {1.0, 2.0}
        np.testing.assert_array_equal(np.bincount(parameter_positions(r, 2)[:, :r].ravel()), ups.sum(axis=0))
        assert np.linalg.norm(ups, 2) <= np.sqrt(2.0) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_vech_round_trip(self, seed, r):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((r, r))
        x = x + x.T
        v = vech(x)
        assert v.shape == (r * (r + 1) // 2,)
        np.testing.assert_array_equal(vech_to_symmetric(v, r), x)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_duplication_reconstructs_column_vectorization(self, seed, r):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((r, r))
        x = x + x.T
        np.testing.assert_allclose(
            duplication_matrix(r) @ vech(x), x.flatten(order="F"), atol=1e-13
        )


class TestHurwitz:
    def test_negative_identity(self):
        stable, margin = is_hurwitz(-np.eye(3), 1.0)
        assert stable
        assert margin == pytest.approx(-1.0, abs=1e-14)

    def test_rotation_generator_is_marginal(self):
        stable, margin = is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0)
        assert not stable
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_complex_matrix_is_not_cast_to_real(self):
        # eigenvalues -0.1 +/- (1 - 1j) / sqrt(2); the real part alone has abscissa -0.1
        stable, margin = is_hurwitz(np.array([[-0.1, 1.0], [-1.0j, -0.1]]), 1.0)
        assert not stable
        assert margin == pytest.approx(np.sqrt(0.5) - 0.1, rel=1e-14)

    def test_real_matrices_keep_flag_and_margin(self):
        rng = np.random.default_rng(809)
        for a in [*(rng.standard_normal((20, 4, 4)) - 1.5 * np.eye(4)), np.diag([-1e-12, -1.0])]:
            want, scale = float(np.max(np.linalg.eigvals(a).real)), np.max(np.abs(a))
            assert is_hurwitz(a, scale) == (want < -1e-9 * scale, want)

    @pytest.mark.parametrize("c", [4.0**-20, 4.0**-10, 1.0, 4.0**10, 4.0**20])
    def test_the_rule_has_no_unit_of_time(self, c):
        # the same matrices in another time unit keep their verdicts and
        # scale their abscissas exactly; at c = 4^-20 the stable one has
        # abscissa -4.5e-13, above an absolute -1e-9
        stable, unstable = np.array([[-0.5, 1.0], [-1.0, -0.5]]), np.diag([1e-12, -1.0])
        for a, want in ((stable, True), (unstable, False)):
            flag, margin = is_hurwitz(c * a, np.max(np.abs(c * a)))
            assert (flag, margin) == (want, c * is_hurwitz(a, 1.0)[1])

    def test_closed_form_abscissa_matches_eigvals(self):
        rng = np.random.default_rng(808)
        a = rng.standard_normal((500, 2, 2))
        a[:100] = np.array([[0.0, 1.0], [-1.0, 0.0]]) * rng.uniform(0.5, 2.0, (100, 1, 1))
        # a large common shift: tr^2/4 - det would cancel to ~1e-10 here
        a[200:300] -= 1000.0 * np.eye(2)
        want = np.max(np.linalg.eigvals(a).real, axis=1)
        np.testing.assert_allclose(spectral_abscissa(a), want, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(spectral_abscissa(a[:100]), 0.0)
        b = rng.standard_normal((7, 4, 4))
        np.testing.assert_array_equal(spectral_abscissa(b), np.max(np.linalg.eigvals(b).real, axis=1))

    def test_reference_oscillators_are_stable(self, reference_cascade):
        for k, nk in enumerate(reference_cascade.dims):
            lo = sum(reference_cascade.dims[:k])
            a_k = reference_cascade.a[lo : lo + nk, lo : lo + nk]
            stable, _ = is_hurwitz(a_k, np.max(np.abs(a_k)))
            assert stable

    def test_a_matrix_that_is_not_square_is_refused(self):
        with pytest.raises(ValueError, match=r"^square matrix expected, got shape \(2, 3\)$"):
            is_hurwitz(np.zeros((2, 3)), 1.0)

    def test_a_failed_eigensolve_is_an_eig_failure(self):
        # numpy's eigensolver refuses a NaN entry with LinAlgError
        with pytest.raises(EigFailure, match="^eigensolve failed: "):
            is_hurwitz(np.array([[np.nan, 0.0], [0.0, -1.0]]), 1.0)


class TestSymplectic:
    def test_identity_is_member(self):
        chk = symplectic_residual(np.eye(2), 0.5 * J2)
        assert chk.residual == 0.0
        assert chk.det == pytest.approx(1.0)

    @pytest.mark.parametrize("phi", [0.1, -0.7, 2.0])
    def test_rotations_are_members(self, phi):
        chk = symplectic_residual(rotation(phi), 0.5 * J2)
        assert chk.residual <= 1e-15

    def test_reciprocal_squeeze_is_member(self):
        chk = symplectic_residual(np.diag([2.0, 0.5]), 0.5 * J2)
        assert chk.residual <= 1e-15

    def test_uniform_dilation_is_not(self):
        chk = symplectic_residual(np.diag([2.0, 2.0]), J2)
        assert chk.residual == pytest.approx(np.linalg.norm(3.0 * J2))

    @settings(max_examples=40, deadline=None)
    @given(sym_2x2)
    def test_exponential_lands_in_group(self, h):
        s = symplectic_exponential(h)
        chk = symplectic_residual(s, J2)
        assert chk.residual <= 1e-9 * max(1.0, np.linalg.norm(s) ** 2)
        assert chk.det == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("r", [2, 4, 6, 8])
    def test_form_is_cached_and_read_only(self, r):
        j = symplectic_form(r)
        assert symplectic_form(r) is j
        assert not j.flags.writeable
        np.testing.assert_array_equal(j, np.kron(J2, np.eye(r // 2)))
        with pytest.raises(ValueError):
            j[0, 0] = 1.0

    def test_odd_order_is_refused(self):
        with pytest.raises(ValueError, match="^order must be even, got 3$"):
            symplectic_form(3)

    def test_form_builder_block_structure(self):
        np.testing.assert_array_equal(symplectic_form(2), J2)
        j4 = symplectic_form(4)
        np.testing.assert_array_equal(j4[:2, 2:], np.eye(2))
        np.testing.assert_array_equal(j4[2:, :2], -np.eye(2))


class TestPsdMargin:
    def test_classical_margin_is_min_eigenvalue(self):
        assert quantum_psd_margin(np.eye(2), np.zeros((2, 2))) == pytest.approx(1.0)
        rng = np.random.default_rng(5)
        p = rng.standard_normal((4, 4))
        p = p + p.T
        margin = quantum_psd_margin(p, np.zeros((4, 4)))
        assert margin == pytest.approx(np.linalg.eigvalsh(p)[0], abs=1e-12)

    def test_pure_state_sits_on_the_boundary(self):
        assert quantum_psd_margin(0.5 * np.eye(2), 0.5 * J2) == pytest.approx(0.0, abs=1e-12)

    def test_a_failed_eigensolve_is_an_eig_failure(self, monkeypatch):
        def fails(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        with pytest.raises(EigFailure, match="^Hermitian eigensolve failed: Eigenvalues did not converge$"):
            quantum_psd_margin(0.5 * np.eye(2), 0.5 * J2)
