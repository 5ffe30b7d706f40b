"""Acceptance gate: the ten criteria the build must satisfy.

Each test prints one ``ACCEPTANCE n: PASS or FAIL`` line and then
asserts, so a plain ``pytest -v`` run doubles as the checklist.
"""

import time

import numpy as np
import pytest

from conftest import random_blockdiag_symplectic
from qcascade.balance import balance_cascade, newton_lambda
from qcascade.covariance import (
    invariant_covariance_direct,
    invariant_covariance_recursive,
    steady_state,
)
from qcascade.gradients import (
    gradient_fd_oracle,
    purity_gradients_direct,
    purity_gradients_recursive,
    transform_gradients,
)
from qcascade.oracles import (
    cross_covariance_generating,
    cross_covariance_series,
    phi_z_feedback,
    series_depth_for,
    series_tail_bound,
)
from qcascade.oscillator import assemble_cascade, transfer_eval, transform_params
from qcascade.sensitivity import (
    fisher_metric,
    kl_gaussian,
    kl_quadratic,
    monte_carlo_variance,
    psi_transformed,
)
from qcascade.zcascade import (
    TIModel,
    covariance_trace_bound,
    cross_covariance,
    hinf_norm,
    phi_z_resolvent,
    z_pr_residual,
)

PSI_IDENTITY = (37.9918, 35.0268, 19.5730)
PSI_BALANCED = (34.6230, 12.8844, 14.4265)
RATIOS = (0.9113, 0.3678, 0.7371)
TOTAL_RATIO = 0.6689


def verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def stack_gap(g1, g2):
    num = np.sqrt(
        sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g1.rho, g2.rho))
        + sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g1.mu, g2.mu))
    )
    den = np.sqrt(
        sum(np.linalg.norm(r) ** 2 for r in g2.rho)
        + sum(np.linalg.norm(u) ** 2 for u in g2.mu)
    )
    return num / den


@pytest.fixture(scope="module")
def reference_gradients(reference_cascade):
    return purity_gradients_direct(reference_cascade)


@pytest.fixture(scope="module")
def paper_gradients(paper_cascade):
    return purity_gradients_direct(paper_cascade)


@pytest.fixture(scope="module")
def paper_balance(paper_cascade, paper_spec, paper_gradients):
    start = time.perf_counter()
    report = balance_cascade(paper_cascade, paper_spec.uncertainty)
    return report, time.perf_counter() - start


def test_criterion_01_balanced_index_table(paper_spec, paper_gradients, paper_balance):
    report, elapsed = paper_balance
    unc = paper_spec.uncertainty
    errs = []
    for k in range(3):
        psi_i = psi_transformed(paper_gradients, unc, k, np.eye(2))
        psi_b = psi_transformed(paper_gradients, unc, k, report.results[k].s_k)
        errs.append(abs(psi_i - PSI_IDENTITY[k]) / PSI_IDENTITY[k])
        errs.append(abs(psi_b - PSI_BALANCED[k]) / PSI_BALANCED[k])
    ratio_errs = [abs(g - w) for g, w in zip(report.ratios, RATIOS)]
    ratio_errs.append(abs(report.total_ratio - TOTAL_RATIO))
    ok = max(errs) <= 5e-3 and max(ratio_errs) <= 1e-3 and elapsed < 1.0
    assert verdict(
        1,
        ok,
        f"index err {max(errs):.2e} <= 5e-3, ratio err {max(ratio_errs):.2e} <= 1e-3, "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_02_gradient_values(paper_cascade, paper_spec):
    start = time.perf_counter()
    grads = purity_gradients_direct(paper_cascade)
    elapsed = time.perf_counter() - start
    worst = 0.0
    for k in range(3):
        for got, want in (
            (grads.rho[k], np.asarray(paper_spec.expected["rho"][k])),
            (grads.mu[k], np.asarray(paper_spec.expected["mu"][k])),
        ):
            tol = np.maximum(1e-2, 1e-2 * np.abs(want))
            worst = max(worst, float(np.max(np.abs(got - want) / tol)))
    ok = worst <= 1.0 and elapsed < 1.0
    assert verdict(2, ok, f"element tolerance use {worst:.3f} <= 1, {elapsed:.3f}s < 1s")


def test_criterion_03_balancing_transforms(paper_spec, paper_balance):
    report, _ = paper_balance
    worst = 0.0
    for k in range(3):
        want = np.asarray(paper_spec.expected["s"][k])
        got = report.results[k].s_k
        worst = max(worst, float(np.max(np.abs(got - want))))
        # zero-rotation gauge: the representative is symmetric positive definite
        assert np.max(np.abs(got - got.T)) <= 1e-12
        assert np.linalg.eigvalsh(got)[0] > 0
    ok = worst <= 1e-3
    assert verdict(3, ok, f"transform err {worst:.2e} <= 1e-3, symmetric gauge")


def test_criterion_04_finite_difference_oracle(reference_cascade, random_corpus):
    steps = (1e-3, 1e-4, 1e-5, 1e-6)
    worst = 0.0
    for cascade in [reference_cascade, *random_corpus]:
        exact = purity_gradients_direct(cascade)
        best = min(stack_gap(gradient_fd_oracle(cascade, h=h), exact) for h in steps)
        worst = max(worst, best)
    ok = worst <= 1e-6
    assert verdict(4, ok, f"21 cascades, worst best-step FD gap {worst:.2e} <= 1e-6")


def test_criterion_05_route_equivalence(reference_cascade, random_corpus):
    worst_grad = 0.0
    worst_cov = 0.0
    for cascade in [reference_cascade, *random_corpus]:
        direct = purity_gradients_direct(cascade)
        recursive = purity_gradients_recursive(cascade)
        worst_grad = max(worst_grad, stack_gap(recursive, direct))
        p_d = invariant_covariance_direct(cascade)
        p_r = invariant_covariance_recursive(cascade)
        worst_cov = max(worst_cov, np.linalg.norm(p_r - p_d) / np.linalg.norm(p_d))
    ok = worst_grad <= 1e-8 and worst_cov <= 1e-10
    assert verdict(
        5,
        ok,
        f"gradients {worst_grad:.2e} <= 1e-8, covariances {worst_cov:.2e} <= 1e-10",
    )


def test_criterion_06_transformation_laws(reference_cascade, reference_gradients):
    rng = np.random.default_rng(66)
    p0 = invariant_covariance_direct(reference_cascade)
    purity0 = steady_state(reference_cascade).purity
    thetas = [p.theta for p in reference_cascade.params]
    worst_grad = worst_cov = worst_purity = worst_transfer = 0.0
    sample_points = [0.6 + 1.3j, 2.0 - 0.4j]
    for _ in range(50):
        blocks = random_blockdiag_symplectic(rng, reference_cascade.dims)
        moved = assemble_cascade(
            [transform_params(p, s) for p, s in zip(reference_cascade.params, blocks)]
        )
        mapped = transform_gradients(reference_gradients, blocks, thetas)
        recomputed = purity_gradients_direct(moved)
        worst_grad = max(worst_grad, stack_gap(mapped, recomputed))

        from scipy.linalg import block_diag

        s_full = block_diag(*blocks)
        p_moved = invariant_covariance_direct(moved)
        worst_cov = max(
            worst_cov,
            np.linalg.norm(p_moved - s_full @ p0 @ s_full.T) / np.linalg.norm(p_moved),
        )
        # purity is dimensionless in (0, 1]; the invariance bound is absolute
        worst_purity = max(worst_purity, abs(steady_state(moved).purity - purity0))
        for s in sample_points:
            for r1, r2 in zip(reference_cascade.realizations, moved.realizations):
                _, g1 = transfer_eval(r1, s)
                _, g2 = transfer_eval(r2, s)
                worst_transfer = max(
                    worst_transfer, np.max(np.abs(g1 - g2)) / max(1.0, np.max(np.abs(g1)))
                )
    ok = worst_grad <= 1e-8 and worst_cov <= 1e-8 and worst_purity <= 1e-12 and worst_transfer <= 1e-9
    assert verdict(
        6,
        ok,
        f"50 transforms: gradients {worst_grad:.2e} <= 1e-8, covariance {worst_cov:.2e} <= 1e-8, "
        f"purity {worst_purity:.2e} <= 1e-12, transfer {worst_transfer:.2e} <= 1e-9",
    )


def test_criterion_07_monte_carlo(reference_cascade, reference_spec):
    start = time.perf_counter()
    res = monte_carlo_variance(
        reference_cascade,
        reference_spec.uncertainty,
        samples=100_000,
        epsilon=1e-6,
        seed=7,
    )
    elapsed = time.perf_counter() - start
    ok = 0.9 <= res.ratio <= 1.1 and elapsed < 30.0
    assert verdict(
        7,
        ok,
        f"ratio {res.ratio:.4f} in [0.9, 1.1], {res.rejected} rejected, {elapsed:.1f}s < 30s",
    )


def test_criterion_08_multiplier_newton():
    rng = np.random.default_rng(88)
    ok = True
    max_iters = 0
    for _ in range(100):
        r1, r2 = rng.normal(0.0, 2.0, size=2)
        det_tau = float(np.exp(rng.normal(0.0, 1.5)))
        res = newton_lambda(float(r1), float(r2), det_tau)
        max_iters = max(max_iters, res.iterations)
        ok &= res.iterations <= 8
        ok &= abs(res.h_value - det_tau) <= 1e-12 * det_tau
        trail = np.asarray(res.iterates[1:])
        if len(trail) > 1:
            ok &= bool(np.all(np.diff(trail) <= 1e-12 * np.abs(trail[:-1])))
    r = np.array([-0.7228, 1.9527])
    grid = np.linspace(0.05, 3.0, 60)
    h = np.array(
        [np.prod(lam / (1.0 + np.sqrt(1.0 + 2.0 * lam * r * r))) for lam in grid]
    )
    ok &= bool(np.all(np.diff(h) > 0)) and bool(np.all(np.diff(h, 2) > -1e-12))
    assert verdict(
        8, ok, f"100 instances, max {max_iters} iterations, monotone; example curve convex increasing"
    )


def test_criterion_09_divergence_expansion(reference_cascade):
    p_star = invariant_covariance_direct(reference_cascade)
    n = p_star.shape[0]
    w, v = np.linalg.eigh(p_star)
    root = (v * np.sqrt(w)) @ v.T

    closed_form_err = abs(
        kl_gaussian(2.0 * p_star, p_star) - n * (1.0 - np.log(2.0)) / 2.0
    )

    rng = np.random.default_rng(99)
    e = rng.standard_normal((n, n))
    e = 1e-3 * (e + e.T) / np.linalg.norm(e + e.T)
    p = root @ (np.eye(n) + e) @ root
    ratio = kl_gaussian(p, p_star) / kl_quadratic(p, p_star)

    bound_holds = True
    for _ in range(100):
        g = rng.standard_normal((n, n))
        dp = root @ (0.5 * (g + g.T)) @ root
        lhs = float(np.trace(np.linalg.solve(p_star, dp))) ** 2
        bound_holds &= lhs <= n * fisher_metric(p_star, dp) * (1.0 + 1e-10)

    ok = closed_form_err <= 1e-10 and 0.99 <= ratio <= 1.01 and bound_holds
    assert verdict(
        9,
        ok,
        f"closed form err {closed_form_err:.1e}, quadratic ratio {ratio:.4f} in [0.99, 1.01], "
        f"trace bound on 100 draws",
    )


def test_criterion_10_translation_invariant_family(reference_spec):
    models = [TIModel.from_oscillator(p) for p in reference_spec.oscillators]
    unit = models[0]
    theta = reference_spec.oscillators[0].theta
    rng = np.random.default_rng(1010)

    worst_pr = 0.0
    for _ in range(3):
        z = complex(rng.uniform(2.0, 60.0), rng.uniform(-5.0, 5.0))
        v = complex(rng.uniform(2.0, 60.0), rng.uniform(-5.0, 5.0))
        worst_pr = max(worst_pr, z_pr_residual(unit, theta, z, v))

    worst_phi = 0.0
    for z, s in [(40.0 + 3.0j, 0.7 + 2.0j), (60.0, 1.5), (35.0 - 8.0j, 0.2 - 1.0j)]:
        gap = np.max(np.abs(phi_z_resolvent(unit, z, s) - phi_z_feedback(unit, z, s)))
        worst_phi = max(worst_phi, gap)

    gnorm = hinf_norm(unit)
    z = 10.0 * gnorm
    v = 10.0 * gnorm * (1.0 + 0.3j)
    sylvester = cross_covariance(unit, z, v)
    generating = cross_covariance_generating(unit, z, v)
    scale = max(1.0, float(np.max(np.abs(sylvester))))
    gap_gen = float(np.max(np.abs(generating - sylvester)))
    depth = series_depth_for(unit, z, v)
    series = cross_covariance_series(reference_spec.oscillators[0], z, v)
    tail = series_tail_bound(unit, z, v, depth)
    gap_series = float(np.max(np.abs(series - sylvester)))
    triple_ok = gap_gen <= 1e-9 * scale and gap_series <= tail + 1e-9 * scale

    bound_ok = True
    for model in models:
        res = covariance_trace_bound(model, 10)
        for trace, bound in zip(res.traces, res.bounds):
            bound_ok &= trace <= bound * (1.0 + 1e-9)

    scalar = TIModel.from_matrices(
        a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.array([[1.0]])
    )
    hinf_err = abs(hinf_norm(scalar) - 2.0)

    ok = (
        worst_pr <= 1e-10
        and worst_phi <= 1e-9
        and triple_ok
        and bound_ok
        and hinf_err <= 1e-6
    )
    assert verdict(
        10,
        ok,
        f"z-realizability {worst_pr:.1e} <= 1e-10, transfer identity {worst_phi:.1e} <= 1e-9, "
        f"three covariance routes agree, trace bounds k=1..10 hold, scalar gain err {hinf_err:.1e}",
    )
