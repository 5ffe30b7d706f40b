import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace
from pathlib import Path

import qcascade.oscillator
from conftest import (
    GENERATED_SPEC, composite, make_mixed_cascade, make_oscillator, perturbed_params, random_symplectic,
)
from qcascade.cli import build_cascade, load_spec
from qcascade.errors import DimensionMismatch, SingularResolvent, SingularTheta
from qcascade.linalg import J2, block_upper_mask, resolvent_solve, symplectic_form
from qcascade.oracles import composite_transfer_stack
from qcascade.oscillator import (
    PR_SELF_CHECK_TOL,
    OscillatorParams,
    OscillatorRealization,
    assemble_cascade,
    default_theta,
    oscillator_realization,
    perturbed_cascade_stack,
    realizability_residual,
    transfer_eval,
    transform_params,
)

TRIVIAL = OscillatorParams(theta=0.5 * J2, r_energy=np.zeros((2, 2)), m_coupling=np.eye(2))


def realize(params):
    return oscillator_realization(params)


def series_reference(oscillators):
    """Composite (A, B, C) by the series recursion, independent of the builder.

    Each oscillator's A_k = 2 theta (R + M^T J M), B_k = 2 theta M^T and
    C_k = 2 J M come from the 2-D formulas; A gains the block row
    [B_k C_{<k}, A_k], B stacks B_k and C appends C_k.
    """
    j = symplectic_form(oscillators[0].m)
    a = np.zeros((0, 0))
    b = np.zeros((0, j.shape[0]))
    c = np.zeros((j.shape[0], 0))
    for p in oscillators:
        a_k = 2.0 * p.theta @ (p.r_energy + p.m_coupling.T @ j @ p.m_coupling)
        b_k = 2.0 * p.theta @ p.m_coupling.T
        c_k = 2.0 * j @ p.m_coupling
        a = np.block([[a, np.zeros((a.shape[0], p.n))], [b_k @ c, a_k]])
        b = np.vstack([b, b_k])
        c = np.hstack([c, c_k])
    return a, b, c


def composite_energy(oscillators):
    """Composite energy matrix R of a chain: R_k on the diagonal blocks and
    M_j^T J M_k below the diagonal (minus that above), so that the composite
    dynamics matrix factors as 2 theta (R + M^T J M)."""
    m_full = np.hstack([p.m_coupling for p in oscillators])
    below = block_upper_mask([p.n for p in oscillators]).T
    cross = np.where(below, m_full.T @ symplectic_form(oscillators[0].m) @ m_full, 0.0)
    return scipy.linalg.block_diag(*(p.r_energy for p in oscillators)) + cross + cross.T


def passive_chain(rng, n_osc):
    """m = 2 chain with M_k = alpha (cos phi I + sin phi J), R_k = r I: every
    field gain is unitary, so the chain stays well conditioned at any length."""
    oscillators = []
    for _ in range(n_osc):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        m_k = rng.uniform(0.5, 1.2) * (np.cos(phase) * np.eye(2) + np.sin(phase) * J2)
        r_k = rng.uniform(-1.0, 1.0) * np.eye(2)
        oscillators.append(OscillatorParams(theta=0.5 * J2, r_energy=r_k, m_coupling=m_k))
    return oscillators


class TestRealization:
    def test_unit_coupling_zero_energy(self):
        got = realize(TRIVIAL)
        np.testing.assert_allclose(got.a, -np.eye(2), atol=1e-15)
        np.testing.assert_allclose(got.b, J2, atol=1e-15)
        np.testing.assert_allclose(got.c, 2.0 * J2, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]))
    def test_realizability_identities(self, seed, m):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((2, 2))
        params = OscillatorParams(
            theta=0.5 * J2,
            r_energy=0.5 * (r + r.T),
            m_coupling=rng.standard_normal((m, 2)),
        )
        j = symplectic_form(m)
        real = realize(params)
        theta = params.theta
        first = real.a @ theta + theta @ real.a.T + real.b @ j @ real.b.T
        second = theta @ real.c.T + real.b @ j
        scale = max(1.0, np.linalg.norm(real.a))
        assert np.linalg.norm(first) <= 1e-12 * scale
        assert np.linalg.norm(second) <= 1e-12 * scale

    def test_coupling_sign_flip_preserves_transfer(self):
        rng = np.random.default_rng(9)
        params = make_oscillator(rng, 4)
        flipped = OscillatorParams(
            theta=params.theta,
            r_energy=params.r_energy,
            m_coupling=-params.m_coupling,
        )
        for s in [0.3 + 1.0j, 2.0, 1.0 - 0.5j]:
            _, g1 = transfer_eval(realize(params), s)
            _, g2 = transfer_eval(realize(flipped), s)
            np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_odd_mode_order_rejected(self):
        with pytest.raises(DimensionMismatch):
            oscillator_realization(
                OscillatorParams(
                    theta=np.array([[0.0]]),
                    r_energy=np.array([[1.0]]),
                    m_coupling=np.ones((2, 1)),
                ),
            )

    def test_coupling_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            oscillator_realization(
                OscillatorParams(
                    theta=0.5 * J2,
                    r_energy=np.zeros((2, 2)),
                    m_coupling=np.ones((2, 3)),
                ),
            )

    def test_singular_theta_rejected(self):
        with pytest.raises(SingularTheta):
            oscillator_realization(
                OscillatorParams(
                    theta=np.zeros((2, 2)),
                    r_energy=np.zeros((2, 2)),
                    m_coupling=np.eye(2),
                ),
            )


class TestShapeRefusal:
    # each refusal names the oscillator that fails, here the second of a chain
    @pytest.mark.parametrize(
        "change, shown",
        [
            ({"theta": np.zeros((2, 3))}, "oscillator 1: theta must be square, got (2, 3)"),
            ({"r_energy": np.zeros((3, 3))}, "oscillator 1: energy matrix shape (3, 3), mode order 2"),
            ({"m_coupling": np.ones((3, 2))}, "oscillator 1: field channel count 3 is odd"),
        ],
        ids=["theta", "energy", "channels"],
    )
    def test_shape_refusal_names_the_oscillator(self, change, shown):
        with pytest.raises(DimensionMismatch, match=re.escape(shown)):
            assemble_cascade([TRIVIAL, replace(TRIVIAL, **change)])

    def test_composite_needs_an_oscillator(self):
        with pytest.raises(DimensionMismatch, match="at least one oscillator required"):
            assemble_cascade([])

    def test_composite_refuses_mixed_channel_counts(self):
        four = replace(TRIVIAL, m_coupling=np.ones((4, 2)))
        with pytest.raises(DimensionMismatch, match="oscillator 1: 4 field channels, expected 2"):
            assemble_cascade([TRIVIAL, four])


class TestAssembly:
    @pytest.mark.parametrize(
        "theta, error",
        [(np.zeros((2, 2)), SingularTheta), (np.array([[0.0, 0.5], [0.4, 0.0]]), DimensionMismatch)],
        ids=["singular", "not_antisymmetric"],
    )
    def test_theta_check_names_the_first_failing_oscillator(self, theta, error):
        rng = np.random.default_rng(55)
        chain = [make_oscillator(rng, 2) for _ in range(6)]
        chain[4] = replace(chain[4], theta=theta)
        chain[5] = replace(chain[5], theta=theta)
        with pytest.raises(error, match="oscillator 4: "):
            assemble_cascade(chain)

    def test_a_composite_that_fails_its_self_check_is_refused(self, reference_cascade, monkeypatch):
        # one entry below the block diagonal moved by 1e-3: every oscillator passed
        # the builder's check, the composite A theta + theta A^T + B J B^T does not
        write = qcascade.oscillator._write_series

        def broken(*args):
            a = write(*args)
            a[-1, 0] += 1e-3
            return a

        monkeypatch.setattr(qcascade.oscillator, "_write_series", broken)
        with pytest.raises(ArithmeticError, match=r"^composite realizability self-check failed: residual "):
            assemble_cascade(reference_cascade.params)

    def test_the_default_theta_skips_the_rank_test(self, monkeypatch):
        # the default theta is nonsingular by construction; a given one still
        # takes the rank test, and a singular one is refused by name
        calls = []
        rank = np.linalg.matrix_rank

        def spy(x, *args, **kwargs):
            calls.append(x.shape)
            return rank(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", spy)
        params = list(build_cascade(load_spec(GENERATED_SPEC)).params)
        assert calls == []
        params[1] = replace(params[1], theta=np.zeros((2, 2)))
        with pytest.raises(SingularTheta, match="oscillator 1: "):
            assemble_cascade(params)
        assert calls == [(1, 2, 2)]

    def test_composite_check_refuses_an_overflowed_scale(self, reference_spec):
        # a coupling entry of 1e200: the norms of the check overflow, and no
        # residual could fail against an infinite scale
        chain = list(reference_spec.oscillators)
        coupling = chain[2].m_coupling.copy()
        coupling[0, 0] *= 1e200
        chain[2] = replace(chain[2], m_coupling=coupling)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="oscillator 2: residual .*, scale inf"):
                assemble_cascade(chain)

    def test_single_oscillator_matches_realization(self):
        cascade = assemble_cascade([TRIVIAL])
        real = realize(TRIVIAL)
        np.testing.assert_array_equal(cascade.a, real.a)
        np.testing.assert_array_equal(cascade.b, real.b)
        np.testing.assert_array_equal(cascade.c, real.c)

    def test_two_oscillator_block_structure(self):
        rng = np.random.default_rng(4)
        p1 = make_oscillator(rng, 4)
        p2 = make_oscillator(rng, 4)
        cascade = assemble_cascade([p1, p2])
        r1, r2 = cascade.realizations
        np.testing.assert_array_equal(cascade.a[:2, :2], r1.a)
        np.testing.assert_array_equal(cascade.a[2:, 2:], r2.a)
        np.testing.assert_allclose(cascade.a[2:, :2], r2.b @ r1.c, atol=1e-14)
        np.testing.assert_array_equal(cascade.a[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(cascade.b[:2], r1.b)
        np.testing.assert_array_equal(cascade.c[:, 2:], r2.c)

    def test_strict_upper_blocks_are_exactly_zero(self, reference_cascade):
        dims = reference_cascade.dims
        for k in range(len(dims)):
            for j in range(k + 1, len(dims)):
                blk = reference_cascade.a[reference_cascade.blocks[k], reference_cascade.blocks[j]]
                assert np.array_equal(blk, np.zeros_like(blk))

    @pytest.mark.parametrize("which", ["reference", "mixed"])
    def test_blocks_and_realizations_follow_dims(self, reference_cascade, which):
        cascade = reference_cascade
        if which == "mixed":
            cascade = make_mixed_cascade(np.random.default_rng(77))
            assert cascade.blocks == (slice(0, 2), slice(2, 6), slice(6, 8))
        assert [blk.stop - blk.start for blk in cascade.blocks] == list(cascade.dims)
        assert len(cascade.realizations) == len(cascade.dims)
        for rk, blk in zip(cascade.realizations, cascade.blocks):
            np.testing.assert_array_equal(rk.a, cascade.a[blk, blk])
            np.testing.assert_array_equal(rk.b, cascade.b[blk])
            np.testing.assert_array_equal(rk.c, cascade.c[:, blk])

    def test_composite_realizability(self, reference_cascade):
        cas = reference_cascade
        scale = max(1.0, np.linalg.norm(cas.a) * np.linalg.norm(cas.theta))
        first = cas.a @ cas.theta + cas.theta @ cas.a.T + cas.b @ cas.j_ito @ cas.b.T
        second = cas.theta @ cas.c.T + cas.b @ cas.j_ito
        assert np.linalg.norm(first) <= 1e-12 * scale
        assert np.linalg.norm(second) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "spec",
        ["mixed", GENERATED_SPEC, *sorted(GENERATED_SPEC.parent.glob("benchmark_*.json"))],
        ids=lambda spec: spec if spec == "mixed" else Path(spec).stem,
    )
    def test_kept_certificate_is_the_composite_residual(self, spec):
        if spec == "mixed":
            cascade = make_mixed_cascade(np.random.default_rng(77))
        else:
            cascade = build_cascade(load_spec(spec))
        res, scale = realizability_residual(cascade.a, cascade.b, cascade.c, cascade.theta, cascade.j_ito)
        assert cascade.realizability == (float(res), float(scale))

    def test_assembly_accepts_what_the_builder_certifies(self):
        # one-mode oscillators with strong, weakly damped coupling M = s u v^T + small,
        # s from 10 to 1e4: B J B^T rounds at ||B||^2, far above ||A|| ||theta||
        rng = np.random.default_rng(5)
        beyond_a_theta = 0
        for s in np.geomspace(10.0, 1e4, 200):
            u, v, w, x = rng.standard_normal((4, 2))
            p = OscillatorParams(default_theta(2), 0.05 * np.eye(2), s * np.outer(u, v) + 0.1 * np.outer(w, x))
            real = oscillator_realization(p)  # the builder's self-check passes
            cascade = assemble_cascade([p])
            res = cascade.realizability[0]
            assert res == realizability_residual(real.a, real.b, real.c, p.theta, cascade.j_ito)[0]
            a_theta_scale = max(1.0, np.linalg.norm(real.a) * np.linalg.norm(p.theta))
            beyond_a_theta += res > PR_SELF_CHECK_TOL * a_theta_scale
        # the property is not vacuous: a scale without ||B||^2 would refuse these
        assert beyond_a_theta > 20

    @pytest.mark.parametrize("j", [-20, -10, 0, 10, 20])
    def test_asymmetric_energy_is_refused_in_every_unit(self, j):
        # R - R^T breaks A theta + theta A^T + B J B^T = 0 by a residual in the unit
        # of A, c = 4^j; a scale floored at 1 let it pass in a slow unit, c = 4^-20
        c = 4.0**j
        p = OscillatorParams(
            default_theta(2), c * np.array([[1.0, 0.5], [0.0, 1.0]]), 2.0**j * np.array([[0.7, 0.1], [0.2, 0.9]])
        )
        with pytest.raises(ArithmeticError, match="^physical-realizability self-check failed for oscillator 0: "):
            assemble_cascade([p, p])

    def test_energy_coupling_single(self):
        r, m = composite_energy([TRIVIAL]), assemble_cascade([TRIVIAL]).m_coupling
        np.testing.assert_array_equal(r, TRIVIAL.r_energy)
        np.testing.assert_array_equal(m, TRIVIAL.m_coupling)

    def test_energy_coupling_pair_antisymmetric_offdiagonal(self):
        rng = np.random.default_rng(11)
        base = make_oscillator(rng, 4)
        r, m = composite_energy([base, base]), assemble_cascade([base, base]).m_coupling
        j = symplectic_form(4)
        cross = base.m_coupling.T @ j @ base.m_coupling
        np.testing.assert_allclose(r[2:, :2], cross, atol=1e-14)
        # symmetric placement; cross is antisymmetric so this is -cross
        np.testing.assert_allclose(r[:2, 2:], cross.T, atol=1e-14)
        np.testing.assert_allclose(r, r.T, atol=1e-14)
        np.testing.assert_array_equal(r[:2, :2], base.r_energy)
        np.testing.assert_array_equal(m[:, :2], base.m_coupling)
        np.testing.assert_array_equal(m[:, 2:], base.m_coupling)

    def test_drift_factorization_identity(self, reference_cascade):
        cas = reference_cascade
        lhs = cas.a
        rhs = 2.0 * cas.theta @ (composite_energy(cas.params) + cas.m_coupling.T @ cas.j_ito @ cas.m_coupling)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))

    @pytest.mark.parametrize("which", ["reference", "mixed", "passive64"])
    def test_matches_series_recursion(self, reference_cascade, which):
        if which == "reference":
            oscillators = reference_cascade.params
        elif which == "mixed":
            oscillators = make_mixed_cascade(np.random.default_rng(77)).params
        else:
            oscillators = passive_chain(np.random.default_rng(64), 64)
        cascade = assemble_cascade(oscillators)
        for got, want in zip((cascade.a, cascade.b, cascade.c), series_reference(oscillators)):
            np.testing.assert_array_equal(got, want)
        for k, (flag, margin) in enumerate(cascade.hurwitz):
            blk = cascade.blocks[k]
            want = np.max(np.linalg.eigvals(cascade.a[blk, blk]).real)
            assert margin == pytest.approx(want, rel=0.0, abs=1e-14)
            assert flag == (want < -1e-9 * np.max(np.abs(cascade.a[blk, blk])))

    def test_assembly_runs_no_block_regrowth_or_eigensolves(self, monkeypatch):
        # the diagonal blocks of a one-mode chain take the closed-form
        # abscissa; np.block or an eigensolve per oscillator would be back
        import sys

        counts = {"block": 0, "eigvals": 0, "is_hurwitz": 0}

        def spy(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        targets = [(np, "block"), (np.linalg, "eigvals")]
        targets += [
            (module, "is_hurwitz")
            for name, module in list(sys.modules.items())
            if name.startswith("qcascade") and hasattr(module, "is_hurwitz")
        ]
        for owner, attr in targets:
            monkeypatch.setattr(owner, attr, spy(attr, getattr(owner, attr)))
        cascade = assemble_cascade(passive_chain(np.random.default_rng(64), 64))
        cascade.require_hurwitz()
        assert counts == {"block": 0, "eigvals": 0, "is_hurwitz": 0}

    def test_identical_oscillators_via_kronecker_oracle(self):
        rng = np.random.default_rng(13)
        base = make_oscillator(rng, 2)
        real = realize(base)
        cascade = assemble_cascade([base, base, base])
        lower = np.tril(np.ones((3, 3)), -1)
        np.testing.assert_allclose(
            cascade.a,
            np.kron(np.eye(3), real.a) + np.kron(lower, real.b @ real.c),
            atol=1e-13,
        )
        np.testing.assert_allclose(cascade.b, np.kron(np.ones((3, 1)), real.b), atol=1e-14)


class TestPerturbedStack:
    @pytest.mark.parametrize("which", ["reference", "mixed"])
    @pytest.mark.parametrize("only", [None, 0, 1, 2])
    def test_matches_assembly(self, reference_cascade, which, only):
        cascade = reference_cascade
        if which == "mixed":
            cascade = make_mixed_cascade(np.random.default_rng(77))
        rng = np.random.default_rng(78)
        sizes = [n * (n + 1) // 2 + cascade.m * n for n in cascade.dims]
        de = [0.3 * rng.standard_normal((5, d)) for d in sizes]
        if only is not None:
            de = [x if k == only else np.zeros_like(x) for k, x in enumerate(de)]
        stack = perturbed_cascade_stack(cascade, de)
        stack_a = composite(stack.diag, stack.b, stack.c)
        assert stack_a.shape == (cascade.n, cascade.n, 5)
        for s in range(5):
            a, b, c = series_reference(perturbed_params(cascade, de, s))
            for got, want in ((stack_a[..., s], a), (stack.b[..., s], b), (stack.c[..., s], c)):
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
            margins = [
                np.max(np.linalg.eigvals(a[cascade.blocks[k], cascade.blocks[k]]).real)
                for k in range(len(cascade.dims))
            ]
            np.testing.assert_allclose(stack.abscissa[:, s], margins, rtol=1e-12, atol=1e-14)
            assert list(stack.hurwitz[:, s]) == [x < -1e-9 for x in margins]

    def test_stacks_are_contiguous_stack_last(self, reference_cascade):
        cascade = reference_cascade
        de = [np.zeros((7, n * (n + 1) // 2 + cascade.m * n)) for n in cascade.dims]
        stack = perturbed_cascade_stack(cascade, de)
        assert [x.shape for x in stack.diag] == [(n, n, 7) for n in cascade.dims]
        assert stack.b.shape == (cascade.n, cascade.m, 7)
        assert stack.c.shape == (cascade.m, cascade.n, 7)
        assert all(x.flags.c_contiguous for x in (*stack.diag, stack.b, stack.c))
        assert stack.abscissa.shape == stack.hurwitz.shape == (len(cascade.dims), 7)

    @pytest.mark.parametrize("which", ["reference", "mixed"])
    def test_batching_changes_no_bits(self, reference_cascade, which):
        # the whole chain in one call against one call per oscillator, at the
        # Monte-Carlo chunk size: how the builder groups oscillators moves no bit
        cascade = reference_cascade if which == "reference" else make_mixed_cascade(np.random.default_rng(77))
        rng = np.random.default_rng(79)
        de = [1e-2 * rng.standard_normal((2048, n * (n + 1) // 2 + cascade.m * n)) for n in cascade.dims]
        whole = perturbed_cascade_stack(cascade, de)
        for k, blk in enumerate(cascade.blocks):
            alone = perturbed_cascade_stack(assemble_cascade([cascade.params[k]]), [de[k]])
            np.testing.assert_array_equal(whole.diag[k], alone.diag[0])
            np.testing.assert_array_equal(whole.b[blk], alone.b)
            np.testing.assert_array_equal(whole.c[:, blk], alone.c)
            np.testing.assert_array_equal(whole.abscissa[k], alone.abscissa[0])
            np.testing.assert_array_equal(whole.hurwitz[k], alone.hurwitz[0])

    @pytest.mark.parametrize("which", ["reference", "mixed"])
    def test_no_copies_give_the_empty_stack(self, reference_cascade, which):
        cascade = reference_cascade if which == "reference" else make_mixed_cascade(np.random.default_rng(77))
        de = [np.zeros((0, n * (n + 1) // 2 + cascade.m * n)) for n in cascade.dims]
        stack = perturbed_cascade_stack(cascade, de)
        assert [x.shape for x in stack.diag] == [(n, n, 0) for n in cascade.dims]
        assert stack.b.shape == (cascade.n, cascade.m, 0)
        assert stack.c.shape == (cascade.m, cascade.n, 0)
        assert stack.abscissa.shape == stack.hurwitz.shape == (len(cascade.dims), 0)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda de: [np.zeros((5, 20)), *de[1:]], r"oscillator 0: \(5, 20\), expected \(5, 15\)$"),
            (lambda de: [*de[:2], de[2][:4]], r"oscillator 2: \(4, 15\), expected \(5, 15\)$"),
            (lambda de: de[:2], r"oscillator 2: no array, expected \(5, 15\)$"),
            (lambda de: [*de, de[0]], r"oscillator 3: \(5, 15\), expected no array$"),
        ],
        ids=["wide_rows", "copy_counts_differ", "short_list", "long_list"],
    )
    def test_a_perturbation_that_does_not_fit_is_refused(self, reference_cascade, change, message):
        # one (S, d_k) array per oscillator, one S for all: the middle columns of
        # wider rows were ignored, and a short list raised a bare IndexError
        de = [np.zeros((5, 3 + reference_cascade.m * 2)) for _ in reference_cascade.dims]
        with pytest.raises(ValueError, match=r"^perturbation of " + message):
            perturbed_cascade_stack(reference_cascade, change(de))

    def test_self_check_refuses_an_overflowed_copy(self, reference_cascade):
        # oscillator 1's first coupling entry moved by 1e200: its B J B^T and the
        # scale overflow to inf, and a perturbed stack has no composite check
        de = [np.zeros((2, 3 + reference_cascade.m * 2)) for _ in reference_cascade.dims]
        de[1][:, 3] = 1e200
        with pytest.raises(ArithmeticError, match=r"a copy overflows double precision at oscillator 1: residual .*, scale inf"):
            perturbed_cascade_stack(reference_cascade, de)

    def test_realizability_self_check_is_applied(self, reference_cascade):
        # a symmetric part in theta breaks A theta + theta A^T + B J B^T = 0
        p0 = reference_cascade.params[0]
        broken = replace(
            reference_cascade,
            params=(replace(p0, theta=p0.theta + 0.1 * np.eye(2)),) + reference_cascade.params[1:],
        )
        de = [np.zeros((2, 3 + broken.m * 2)) for _ in broken.dims]
        with pytest.raises(ArithmeticError, match="oscillator 0"):
            perturbed_cascade_stack(broken, de)


class TestTransfer:
    def test_limits_to_identity_at_large_frequency(self, reference_cascade):
        for rk in reference_cascade.realizations:
            _, g = transfer_eval(rk, 1e8j)
            assert np.max(np.abs(g - np.eye(reference_cascade.m))) <= 1e-6

    def test_scalar_low_frequency_gain(self):
        real = OscillatorRealization(
            a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.array([[1.0]])
        )
        _, g = transfer_eval(real, 0.0)
        np.testing.assert_allclose(g, [[2.0]], atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -1.0, 10.0, -10.0])
    def test_form_unitary_on_imaginary_axis(self, reference_cascade, lam):
        j = reference_cascade.j_ito
        for rk in reference_cascade.realizations:
            _, g = transfer_eval(rk, 1j * lam)
            res = g @ j.astype(complex) @ g.conj().T - j
            assert np.max(np.abs(res)) <= 1e-10

    def test_gain_never_below_one_on_imaginary_axis(self, reference_cascade):
        for lam in np.linspace(-20.0, 20.0, 9):
            for rk in reference_cascade.realizations:
                _, g = transfer_eval(rk, 1j * lam)
                assert np.linalg.norm(g, 2) >= 1.0 - 1e-12

    def test_stack_single_equals_variable_transfer(self):
        cascade = assemble_cascade([TRIVIAL])
        f, _ = transfer_eval(cascade.realizations[0], 0.5 + 1.0j)
        np.testing.assert_allclose(
            composite_transfer_stack(cascade, 0.5 + 1.0j), f, atol=1e-14
        )

    def test_stack_matches_composite_resolvent(self, reference_cascade):
        for s in [1.0, 0.5 + 2.0j, 3.0 - 1.0j]:
            stacked = composite_transfer_stack(reference_cascade, s)
            direct = resolvent_solve(reference_cascade.a, reference_cascade.b, s)
            assert np.max(np.abs(stacked - direct)) <= 1e-10 * max(
                1.0, np.max(np.abs(direct))
            )

    def test_spectrum_point_raises(self):
        with pytest.raises(SingularResolvent):
            transfer_eval(realize(TRIVIAL), -1.0)

    def test_an_overflowing_resolvent_is_refused(self):
        # (0 - a)^{-1} b = 1e10 / 1e-300 is beyond double precision
        with pytest.raises(SingularResolvent, match=r"^resolvent overflow at s = 0j$"):
            resolvent_solve(np.array([[-1e-300]]), np.array([[1e10]]), 0j)


class TestTransform:
    def test_drift_conjugation(self):
        rng = np.random.default_rng(17)
        params = make_oscillator(rng, 4)
        s = random_symplectic(rng, 2)
        before = realize(params)
        after = realize(transform_params(params, s))
        np.testing.assert_allclose(after.a, s @ before.a @ np.linalg.inv(s), atol=1e-10)
        np.testing.assert_allclose(after.b, s @ before.b, atol=1e-10)
        np.testing.assert_allclose(after.c, before.c @ np.linalg.inv(s), atol=1e-10)

    def test_transfer_invariance(self):
        rng = np.random.default_rng(18)
        params = make_oscillator(rng, 6)
        s = random_symplectic(rng, 2)
        transformed = transform_params(params, s)
        for _ in range(5):
            point = complex(rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0))
            _, g1 = transfer_eval(realize(params), point)
            _, g2 = transfer_eval(realize(transformed), point)
            assert np.max(np.abs(g1 - g2)) <= 1e-9 * max(1.0, np.max(np.abs(g1)))

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(19)
        params = make_oscillator(rng, 2)
        back = transform_params(params, np.eye(2))
        np.testing.assert_allclose(back.r_energy, params.r_energy, atol=1e-15)
        np.testing.assert_allclose(back.m_coupling, params.m_coupling, atol=1e-15)
