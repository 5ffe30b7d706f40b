import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qcascade.covariance
import qcascade.gradients
import qcascade.linalg

from conftest import (
    GENERATED_SPEC,
    data_cascade,
    make_cascade,
    make_mixed_cascade,
    make_passive_chain,
    random_symplectic,
)
from qcascade.covariance import (
    _cholesky,
    _cholesky_log_det,
    invariant_covariance_direct,
    invariant_covariance_recursive,
    log_det_stack,
    schur_complements,
    steady_state,
)
from qcascade.errors import NoConvergence, NonPositive, NotHurwitz, SingularLeadingBlock, SingularTheta, SolverSingular
from qcascade.gradients import observability_gramian_and_hankelian
from qcascade.linalg import J2, RESIDUAL_TOL, quantum_psd_margin
from qcascade.oracles import frequency_domain_covariance, purity_and_logdet
from qcascade.oscillator import (
    OscillatorParams,
    assemble_cascade,
    default_theta,
    perturbed_cascade_stack,
)

TRIVIAL = OscillatorParams(theta=0.5 * J2, r_energy=np.zeros((2, 2)), m_coupling=np.eye(2))


def trivial_cascade(n_osc=1):
    return assemble_cascade([TRIVIAL] * n_osc)


class TestDirect:
    def test_unit_coupling_oscillator(self):
        p = invariant_covariance_direct(trivial_cascade())
        np.testing.assert_allclose(p, 0.5 * np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("name", [*(path.stem for path in sorted(GENERATED_SPEC.parent.glob("*.json"))), "mixed"])
    def test_p_is_bitwise_symmetric(self, name):
        # the report writer converts each entry pair of P to text once only
        # when P equals its transpose bit for bit, and lists P silently otherwise
        cascade = make_mixed_cascade(np.random.default_rng(5151)) if name == "mixed" else data_cascade(name)
        bits = invariant_covariance_direct(cascade).view(np.uint64)
        np.testing.assert_array_equal(bits, bits.T)

    def test_unstable_cascade_rejected_with_index(self):
        unstable = OscillatorParams(
            theta=0.5 * J2,
            r_energy=np.array([[0.0, 2.0], [2.0, 0.0]]),
            m_coupling=0.05 * np.eye(2),
        )
        cascade = assemble_cascade([TRIVIAL, unstable])
        with pytest.raises(NotHurwitz, match="1"):
            invariant_covariance_recursive(cascade)
        with pytest.raises(NotHurwitz):
            invariant_covariance_direct(cascade)


class TestRecursive:
    def test_identical_unit_oscillators(self):
        cascade = trivial_cascade(2)
        direct = invariant_covariance_direct(cascade)
        recursive = invariant_covariance_recursive(cascade)
        np.testing.assert_allclose(recursive, direct, atol=1e-13)

    def test_reference_routes_agree(self, reference_cascade):
        direct = invariant_covariance_direct(reference_cascade)
        recursive = invariant_covariance_recursive(reference_cascade)
        gap = np.linalg.norm(recursive - direct) / np.linalg.norm(direct)
        assert gap <= 1e-10

    def test_routes_agree_on_mixed_chain(self):
        cascade = make_mixed_cascade(np.random.default_rng(5151))
        assert cascade.dims == (2, 4, 2)
        direct = invariant_covariance_direct(cascade)
        recursive = invariant_covariance_recursive(cascade)
        assert np.linalg.norm(recursive - direct) <= 1e-10 * np.linalg.norm(direct)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_routes_agree_on_random_cascades(self, seed):
        rng = np.random.default_rng(seed)
        cascade = make_cascade(rng, int(rng.integers(1, 5)), int(rng.choice([2, 4, 6])))
        direct = invariant_covariance_direct(cascade)
        recursive = invariant_covariance_recursive(cascade)
        assert np.linalg.norm(recursive - direct) <= 1e-10 * np.linalg.norm(direct)

    @pytest.mark.parametrize("name", ["benchmark_mc3_s1_0", "cascade_n3_m6"])
    def test_column_sweep_matches_a_high_precision_kronecker_solve(self, name):
        # truth, not route agreement: the same float64 A and B solved in 50 digits
        import mpmath as mp
        cascade = data_cascade(name)
        exact = mp_kronecker_covariance(mp, cascade.a, cascade.b)
        recursive = invariant_covariance_recursive(cascade)
        assert np.linalg.norm(recursive - exact) <= 1e-14 * np.linalg.norm(exact)


def mp_kronecker_covariance(mp, a, b, dps=50):
    """P solving A P + P A^T + B B^T = 0 in ``dps``-digit arithmetic from the
    dense Kronecker system (I (x) A + A (x) I) vec P = -vec B B^T, with
    column-major vec, by ``mp.lu_solve``, rounded to float64."""
    n = len(a)
    with mp.workdps(dps):
        am, bm = mp.matrix(a.tolist()), mp.matrix(b.tolist())
        q = bm * bm.T
        op = mp.matrix(n * n, n * n)
        for r in range(n):
            for c in range(n):
                for l in range(n):
                    op[c * n + r, c * n + l] += am[r, l]  # (A P)[r, c]
                    op[c * n + r, l * n + r] += am[c, l]  # (P A^T)[r, c]
        x = mp.lu_solve(op, -mp.matrix([q[r, c] for c in range(n) for r in range(n)]))
        return np.array([[float(x[c * n + r]) for c in range(n)] for r in range(n)])


class TestQuadratureOracle:
    def test_reference_real_part(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        re_p, im_p = frequency_domain_covariance(
            reference_cascade.a, reference_cascade.b, reference_cascade.j_ito
        )
        assert np.linalg.norm(re_p - p) <= 1e-5 * np.linalg.norm(p)
        assert np.linalg.norm(im_p - reference_cascade.theta) <= 1e-5 * max(
            1.0, np.linalg.norm(reference_cascade.theta)
        )

    def test_single_oscillator(self, reference_spec):
        cascade = assemble_cascade(reference_spec.oscillators[:1])
        p = invariant_covariance_direct(cascade)
        re_p, _ = frequency_domain_covariance(cascade.a, cascade.b, cascade.j_ito)
        assert np.linalg.norm(re_p - p) <= 1e-6 * np.linalg.norm(p)

    def test_unconverged_quadrature_is_refused(self, reference_spec, monkeypatch):
        # quad_vec reports a missed tolerance only in its status, never by a warning
        import scipy.integrate

        real = scipy.integrate.quad_vec
        capped = lambda *args, **kw: real(*args, **kw, limit=2)  # noqa: E731
        monkeypatch.setattr(scipy.integrate, "quad_vec", capped)
        cascade = assemble_cascade(reference_spec.oscillators[:1])
        with pytest.raises(NoConvergence, match="Target precision not reached"):
            frequency_domain_covariance(cascade.a, cascade.b, cascade.j_ito)


class TestSchur:
    def test_scalar_blocks(self):
        p = np.array([[2.0, 1.0], [1.0, 2.0]])
        pi_k = schur_complements(p, (1, 1))
        assert pi_k[0] == pytest.approx(2.0)
        assert pi_k[1] == pytest.approx(1.5)

    def test_head_block_is_untouched(self, reference_cascade):
        p = invariant_covariance_direct(reference_cascade)
        pi_k = schur_complements(p, reference_cascade.dims)
        np.testing.assert_array_equal(pi_k[0], p[:2, :2])

    def test_block_determinant_factorization(self, reference_cascade):
        # det P = prod_k det Pi_k, the basis of the additive split of V
        p = invariant_covariance_direct(reference_cascade)
        pi_k = schur_complements(p, reference_cascade.dims)
        v_sum = sum(float(np.linalg.slogdet(pi)[1]) for pi in pi_k)
        assert v_sum == pytest.approx(float(np.linalg.slogdet(p)[1]), abs=1e-9)

    def test_indefinite_leading_block_rejected(self):
        p = np.diag([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(SingularLeadingBlock):
            schur_complements(p, (2, 2))

    def test_dims_must_partition(self):
        with pytest.raises(ValueError):
            schur_complements(np.eye(4), (2, 4))


class TestPurity:
    def test_pure_state(self):
        purity, logdet = purity_and_logdet(0.5 * np.eye(2), 0.5 * J2)
        assert purity == pytest.approx(1.0, abs=1e-14)
        assert logdet == pytest.approx(np.log(0.25), abs=1e-12)

    def test_doubled_covariance(self):
        purity, _ = purity_and_logdet(np.eye(2), 0.5 * J2)
        assert purity == pytest.approx(0.5, abs=1e-14)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(NonPositive):
            purity_and_logdet(-np.eye(2), 0.5 * J2)

    def test_singular_theta_rejected(self):
        with pytest.raises(SingularTheta, match="^commutation matrix has nonpositive determinant$"):
            purity_and_logdet(np.eye(2), np.zeros((2, 2)))

    def test_invariant_under_symplectic_change_of_variables(self):
        rng = np.random.default_rng(23)
        p = rng.standard_normal((2, 2))
        p = p @ p.T + 0.5 * np.eye(2)
        purity, _ = purity_and_logdet(p, 0.5 * J2)
        for _ in range(10):
            s = random_symplectic(rng, 2)
            purity_s, _ = purity_and_logdet(s @ p @ s.T, 0.5 * J2)
            assert abs(purity_s - purity) <= 1e-12 * purity


class TestSteadyState:
    def test_additive_split(self, reference_cascade):
        res = steady_state(reference_cascade)
        assert sum(res.v_k) == pytest.approx(res.v_logdet, abs=1e-9)
        assert len(res.v_k) == len(reference_cascade.dims)

    def test_methods_agree(self, reference_cascade):
        rec_p = invariant_covariance_recursive(reference_cascade)
        rec_purity, _ = purity_and_logdet(rec_p, reference_cascade.theta)
        dire = steady_state(reference_cascade)
        assert np.linalg.norm(rec_p - dire.p_full) <= 1e-10 * np.linalg.norm(
            dire.p_full
        )
        assert rec_purity == pytest.approx(dire.purity, rel=1e-9)

    def test_default_factors_the_direct_covariance(self, reference_cascade):
        res = steady_state(reference_cascade)
        np.testing.assert_array_equal(res.p_full, invariant_covariance_direct(reference_cascade))

    def test_state_is_admissible(self, reference_cascade):
        res = steady_state(reference_cascade)
        margin = quantum_psd_margin(res.p_full, reference_cascade.theta)
        assert margin >= -1e-9

    def test_random_cascades_are_admissible(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            cascade = make_cascade(rng, int(rng.integers(1, 4)), int(rng.choice([2, 4])))
            res = steady_state(cascade)
            assert quantum_psd_margin(res.p_full, cascade.theta) >= -1e-9
            assert 0.0 < res.purity <= 1.0 + 1e-12


def split_cases(reference_cascade):
    return {
        "generated": reference_cascade,
        "mixed": make_mixed_cascade(np.random.default_rng(5151)),
        "passive16": make_passive_chain(np.random.default_rng(1616), 16),
    }


class TestFactoredSplit:
    @pytest.mark.parametrize("case", ["generated", "mixed", "passive16"])
    def test_matches_subtraction_oracle(self, case, reference_cascade):
        cascade = split_cases(reference_cascade)[case]
        res = steady_state(cascade)
        oracle = schur_complements(res.p_full, cascade.dims)
        scale = max(1.0, float(np.max(np.abs(res.p_full))))
        for blk, pi_oracle in zip(cascade.blocks, oracle, strict=True):
            pi = res.chol[blk, blk] @ res.chol[blk, blk].T
            assert np.max(np.abs(pi - pi_oracle)) <= 1e-10 * scale
        v_oracle = [float(np.linalg.slogdet(pi)[1]) for pi in oracle]
        np.testing.assert_allclose(res.v_k, v_oracle, rtol=0.0, atol=1e-10)

    def test_factor_reproduces_covariance(self, reference_cascade):
        res = steady_state(reference_cascade)
        chol = res.chol
        np.testing.assert_array_equal(chol, np.tril(chol))
        np.testing.assert_allclose(chol @ chol.T, res.p_full, rtol=0.0, atol=1e-12)
        assert res.v_logdet == pytest.approx(float(np.linalg.slogdet(res.p_full)[1]), abs=1e-10)


class TestAdmissibilityMargin:
    """The order-n Hermitian margin against the order-2n real embedding."""

    @pytest.mark.parametrize("case", ["generated", "passive16"])
    def test_matches_real_embedding(self, case, reference_cascade):
        cascade = split_cases(reference_cascade)[case]
        p, theta = invariant_covariance_direct(cascade), cascade.theta
        want = np.linalg.eigvalsh(np.block([[p, -theta], [theta, p]]))[0]
        got = quantum_psd_margin(p, theta)
        assert abs(got - want) <= 1e-12 * max(1.0, float(np.linalg.norm(p)))

    def test_below_the_uncertainty_bound(self):
        # 0.1 I + i theta with the canonical theta has eigenvalues 0.1 +- 0.5
        assert quantum_psd_margin(0.1 * np.eye(4), default_theta(4)) == pytest.approx(
            -0.4, abs=1e-12
        )


class TestTypedRefusal:
    @pytest.mark.parametrize(
        "diag, oscillator",
        [([-1.0, 1, 1, 1, 1, 1], 0), ([1.0, 1, 0, 1, 1, 1], 1), ([1.0, 1, 1, -2, 1, 1], 1)],
    )
    def test_leading_block_names_the_oscillator(self, diag, oscillator):
        order = 2 * oscillator + 2
        with pytest.raises(SingularLeadingBlock, match=f"oscillator {oscillator} .*order {order} "):
            _cholesky(np.diag(diag), (2, 2, 2))

    def test_dependent_rows_fail_in_a_leading_block(self):
        # rows 0 and 2 equal: the leading block of order 4 is singular
        g = np.random.default_rng(3).standard_normal((6, 6))
        g[2] = g[0]
        with pytest.raises(SingularLeadingBlock, match="oscillator 1 .*order 4 "):
            _cholesky(g @ g.T, (2, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_refused_by_name(self, bad):
        # a typed refusal, not numpy's bare ValueError, on every caller of the factor
        from qcascade.oracles import purity_and_logdet
        from qcascade.sensitivity import fisher_metric, kl_gaussian

        p = np.eye(6)
        p[3, 2] = p[2, 3] = bad
        match = rf"^dpotrf: covariance entry \(2, 3\) is {bad}, not finite$"
        with pytest.raises(SolverSingular, match=match):
            _cholesky(p, (2, 2, 2))
        for refused in (
            lambda: fisher_metric(p, np.eye(6)),
            lambda: kl_gaussian(np.eye(6), p),
            lambda: purity_and_logdet(p, np.eye(6)),
        ):
            with pytest.raises(SolverSingular, match=match):
                refused()

    @pytest.mark.parametrize("dims", [(2, 2, 2), (6,)])
    def test_last_block_is_nonpositive(self, dims):
        with pytest.raises(NonPositive):
            _cholesky(np.diag([1.0, 1, 1, 1, 1, -1]), dims)

    def test_steady_state_passes_the_refusal_on(self, reference_cascade, monkeypatch):
        # a fresh cascade whose solved P is replaced by the indefinite one
        cascade = assemble_cascade(reference_cascade.params)
        p = np.diag([1.0, 1, -1, 1, 1, 1])
        monkeypatch.setattr("qcascade.covariance.stationary_covariance", lambda a, b: p)
        with pytest.raises(SingularLeadingBlock, match="oscillator 1 "):
            steady_state(cascade)

    def test_indefinite_solve_is_refused_by_the_floor(self, tmp_path, capsys, monkeypatch):
        # a solve that returns P = -B B^T: the eigenvalue floor refuses it, and
        # ti-bounds, which takes each unit's Gramian from it, names the oscillator
        from conftest import GENERATED_SPEC
        from qcascade.cli import main

        monkeypatch.setattr(qcascade.covariance, "solve_cascade_sylvester", lambda factor, q: -q)
        with pytest.raises(NonPositive, match=r"covariance has eigenvalue -1\.000e\+00"):
            qcascade.covariance.stationary_covariance(-np.eye(2), np.eye(2))
        assert main(["ti-bounds", str(GENERATED_SPEC), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("numerical error: oscillator 0: covariance has eigenvalue -")


class TestStackCholesky:
    """The stack-last column Cholesky of the Monte-Carlo and FD log-dets."""

    def spd_stack(self, rng, n, stack):
        g = rng.standard_normal((stack, n, n))
        return np.moveaxis(g @ g.transpose(0, 2, 1) + n * np.eye(n), 0, -1).copy()

    @pytest.mark.parametrize("n", [1, 2, 6, 12])
    def test_matches_slogdet(self, n):
        p = self.spd_stack(np.random.default_rng(n), n, 40)
        sign, want = np.linalg.slogdet(np.moveaxis(p, -1, 0))
        assert np.all(sign > 0)
        np.testing.assert_allclose(_cholesky_log_det(p), want, rtol=0.0, atol=1e-12)

    def test_indefinite_copy_with_positive_determinant_is_nan(self):
        # two negative eigenvalues: det > 0, so a sign test of slogdet accepts it
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 6)))
        bad = (q * [-1.0, -2.0, 1.0, 2.0, 3.0, 4.0]) @ q.T
        bad = 0.5 * (bad + bad.T)
        assert np.linalg.slogdet(bad)[0] > 0
        p = self.spd_stack(np.random.default_rng(3), 6, 5)
        p[..., 2] = bad
        got = _cholesky_log_det(p)
        assert np.isnan(got[2])
        assert np.all(np.isfinite(np.delete(got, 2)))

    def test_factors_in_place(self):
        p = self.spd_stack(np.random.default_rng(12), 12, 64)
        before = p.copy()
        sign, want = np.linalg.slogdet(np.moveaxis(p, -1, 0))
        assert np.all(sign > 0)
        np.testing.assert_allclose(_cholesky_log_det(p), want, rtol=0.0, atol=1e-12)
        lower = np.tril(np.ones((12, 12), dtype=bool))
        chol = np.moveaxis(np.linalg.cholesky(np.moveaxis(before, -1, 0)), 0, -1)
        np.testing.assert_allclose(p[lower], chol[lower], rtol=0.0, atol=1e-13 * np.abs(chol).max())
        np.testing.assert_array_equal(p[~lower], before[~lower])

    def test_bad_copy_leaves_its_neighbours_unchanged(self):
        p = self.spd_stack(np.random.default_rng(4), 6, 5)
        want = _cholesky_log_det(p.copy())  # the factor overwrites p
        p[..., 2] = -p[..., 2]
        got = _cholesky_log_det(p)
        assert np.isnan(got[2])
        np.testing.assert_array_equal(np.delete(got, 2), np.delete(want, 2))


class TestLogDetStack:
    def test_unstable_copy_leaves_the_others_unchanged(self):
        cascade = make_cascade(np.random.default_rng(12), 3, 2)
        rng = np.random.default_rng(13)
        de = [1e-3 * rng.standard_normal((5, 3 + 2 * 2)) for _ in cascade.dims]
        # one-mode m = 2: A_00 = J2 R - det(M) I, so swapping the columns of
        # M_0 flips the sign of det(M_0) and makes copy 2 unstable
        m0 = cascade.params[0].m_coupling
        de[0][2, 3:] = (m0[:, ::-1] - m0).reshape(-1, order="F")
        stack = perturbed_cascade_stack(cascade, de)
        keep = np.arange(5) != 2
        assert not stack.hurwitz[:, 2].all() and stack.hurwitz[:, keep].all()
        logdet, certificate = log_det_stack(stack)
        assert np.isnan(logdet[2]) and np.isinf(certificate[2])
        want_logdet, want_certificate = log_det_stack(stack.compress(keep))
        np.testing.assert_array_equal(logdet[keep], want_logdet)
        np.testing.assert_array_equal(certificate[keep], want_certificate)
        assert np.all(np.isfinite(want_logdet))

    def test_a_copy_that_fails_the_certificate_has_no_log_det(self, monkeypatch):
        # copy 2's certificate is one ulp above the bound: its ln det is NaN,
        # its certificate is returned, and the other copies keep their bits
        cascade = make_cascade(np.random.default_rng(12), 3, 2)
        rng = np.random.default_rng(13)
        stack = perturbed_cascade_stack(cascade, [1e-3 * rng.standard_normal((5, 3 + 2 * 2)) for _ in cascade.dims])
        want_logdet, want_certificate = log_det_stack(stack)
        assert np.all(np.isfinite(want_logdet))
        solve, failing = qcascade.covariance.solve_cascade_lyapunov, np.nextafter(RESIDUAL_TOL, np.inf)

        def failing_copy_2(diag, b, c):
            p, certificate = solve(diag, b, c)
            certificate[2] = failing
            return p, certificate

        monkeypatch.setattr(qcascade.covariance, "solve_cascade_lyapunov", failing_copy_2)
        logdet, certificate = log_det_stack(stack)
        keep = np.arange(5) != 2
        assert np.isnan(logdet[2]) and certificate[2] == failing
        np.testing.assert_array_equal(logdet[keep], want_logdet[keep])
        np.testing.assert_array_equal(certificate[keep], want_certificate[keep])

    def test_empty_stack_gives_empty_arrays(self):
        cascade = make_cascade(np.random.default_rng(12), 3, 2)
        stack = perturbed_cascade_stack(cascade, [np.zeros((0, 3 + 2 * 2)) for _ in cascade.dims])
        logdet, certificate = log_det_stack(stack)
        assert logdet.shape == certificate.shape == (0,)


def mp_block_covariance(mp, cascade, dps=40):
    """P of a cascade by block forward substitution in ``dps``-digit
    arithmetic: block (j, k), j >= k, in column order k and then row order
    j, from the Kronecker system (I (x) A_jj + A_kk (x) I) vec P_jk =
    -vec F_jk with column-major vec, solved by ``mp.lu_solve``."""

    def kron(x, y):
        out = mp.matrix(x.rows * y.rows, x.cols * y.cols)
        for i in range(out.rows):
            for j in range(out.cols):
                out[i, j] = x[i // y.rows, j // y.cols] * y[i % y.rows, j % y.cols]
        return out

    offs = np.concatenate([[0], np.cumsum(cascade.dims)]).astype(int)
    with mp.workdps(dps):
        a = mp.matrix(cascade.a.tolist())
        b = mp.matrix(cascade.b.tolist())
        q = b * b.T

        def blk(x, j, k):
            return x[offs[j] : offs[j + 1], offs[k] : offs[k + 1]]

        p = {}
        for k, d_k in enumerate(cascade.dims):
            for j in range(k, len(cascade.dims)):
                d_j = cascade.dims[j]
                f = blk(q, j, k)
                for i in range(j):
                    f += blk(a, j, i) * (p[i, k] if i >= k else p[k, i].T)
                for i in range(k):
                    f += p[j, i] * blk(a, k, i).T
                op = kron(mp.eye(d_k), blk(a, j, j)) + kron(blk(a, k, k), mp.eye(d_j))
                x = mp.lu_solve(op, -mp.matrix([f[r, c] for c in range(d_k) for r in range(d_j)]))
                p[j, k] = mp.matrix([[x[c * d_j + r] for c in range(d_k)] for r in range(d_j)])
        out = np.zeros((cascade.n, cascade.n))
        for (j, k), x in p.items():
            block = np.array(x.tolist(), dtype=float)
            out[offs[j] : offs[j + 1], offs[k] : offs[k + 1]] = block
            out[offs[k] : offs[k + 1], offs[j] : offs[j + 1]] = block.T
    return out


class TestDenseRoute:
    def test_direct_routes_factor_the_transpose_once(self, monkeypatch):
        # the direct P and the observability Gramian each come from one real
        # Schur factorization of A^T, which for a cascade is block upper
        # triangular; a factorization of A would cost a full Hessenberg
        # reduction, and scipy's solve_sylvester would factor A twice
        cascade = make_passive_chain(np.random.default_rng(1616), 16)
        fresh = assemble_cascade(cascade.params)  # one cascade per route: P is kept on it
        invariant_covariance_direct(cascade)  # the P the Gramian route reads
        factored, sylvester = [], []
        schur, solve_sylvester = qcascade.linalg.cascade_schur, scipy.linalg.solve_sylvester

        def spy_schur(a, dims):
            if len(dims) == 1 and np.shape(a)[0] == cascade.n:
                factored.append(np.array(a).T)  # the one-block factor is of a^T
            return schur(a, dims)

        def spy_sylvester(*args, **kwargs):
            sylvester.append(1)
            return solve_sylvester(*args, **kwargs)

        for module in (qcascade.covariance, qcascade.gradients):
            monkeypatch.setattr(module, "cascade_schur", spy_schur)
        monkeypatch.setattr(scipy.linalg, "solve_sylvester", spy_sylvester)
        routes = [
            lambda: invariant_covariance_direct(fresh),
            lambda: observability_gramian_and_hankelian(cascade),
        ]
        for route in routes:
            factored.clear()
            route()
            assert len(factored) == 1
            np.testing.assert_array_equal(factored[0], cascade.a.T)
        assert sylvester == []

    @pytest.mark.parametrize("n_osc", [8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_direct_covariance_matches_high_precision(self, n_osc, seed):
        # amplifying chains of the generic sampler: cond P grows with N
        import mpmath as mp
        cascade = make_cascade(np.random.default_rng(seed), n_osc, 2)
        exact = mp_block_covariance(mp, cascade)
        scale = np.linalg.norm(exact)
        direct = invariant_covariance_direct(cascade)
        assert np.linalg.norm(direct - exact) <= 1e-13 * scale
        recursive = invariant_covariance_recursive(cascade)
        assert np.linalg.norm(direct - recursive) <= 1e-12 * scale
