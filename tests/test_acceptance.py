"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The Monte-Carlo criteria use fixed seeds, so the
whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from dpaudit.estimator import (
    eps_lower_bound,
    mi_bound,
    optimize_generalization_width,
    optimize_prior_width,
    p_value_audit,
    rr_accuracy,
)
from dpaudit.mechanisms import (
    PathologicalConfig,
    expected_correct_gaussian,
    gaussian_dp_delta,
    gaussian_dp_eps,
    pathological,
    randomized_response,
)
from dpaudit.pipeline import (
    adapter_randomized_response,
    audit_run,
    count_correct,
    k_sweep,
    sample_selection,
)
from dpaudit.dpsgd import (
    LossModel,
    TrainerConfig,
    dirac_canaries,
    dpsgd_train,
    theoretical_eps_upper,
    whitebox_scores,
)

LN3 = math.log(3.0)


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_worked_examples_exactness():
    t0 = time.perf_counter()
    p = p_value_audit(100, 100, 75, LN3, 0.0)
    lb_a = eps_lower_bound(100, 100, 75, 0.0, 0.05)
    lb_b = eps_lower_bound(100, 100, 75, 1e-4, 0.05)
    lb_c = eps_lower_bound(1000, 100, 75, 1e-4, 0.05)
    elapsed = time.perf_counter() - t0
    ok = (abs(p - 0.553) <= 1e-3 and abs(lb_a - 0.702) <= 1e-3
          and abs(lb_b - 0.699) <= 1e-3 and abs(lb_c - 0.673) <= 1e-3
          and elapsed < 1.0)
    criterion(1, ok, f"p={p:.6f} lb={lb_a:.6f}/{lb_b:.6f}/{lb_c:.6f} "
                     f"in {elapsed * 1e3:.0f} ms")


def test_criterion_2_pure_idealized_figure():
    t0 = time.perf_counter()
    r = 10_000
    v = math.floor(r * rr_accuracy(4.0))
    lb = eps_lower_bound(r, r, v, 0.0, 0.05)
    elapsed = time.perf_counter() - t0
    ok = 3.86 <= lb <= 4.00 and elapsed < 1.0
    criterion(2, ok, f"eps_lb={lb:.4f} at v={v} in {elapsed * 1e3:.0f} ms")


def test_criterion_3_gaussian_idealized_figure():
    t0 = time.perf_counter()
    m, sigma, delta = 100_000, 2.0, 1e-5
    grid = sorted(set(
        [2 ** k for k in range(1, 15)] + list(range(1400, 1621, 10))))
    best_lb, best_r, best_v = -1.0, None, None
    for r in grid:
        _, v = expected_correct_gaussian(m, r, sigma)
        lb = eps_lower_bound(m, r, v, delta, 0.05)
        if lb > best_lb:
            best_lb, best_r, best_v = lb, r, v
    elapsed = time.perf_counter() - t0
    _, v_1510 = expected_correct_gaussian(m, 1510, sigma)
    upper = gaussian_dp_eps(0.5, delta)
    matched_delta = gaussian_dp_delta(0.5, 2.675)
    ok = (abs(best_lb - 2.675) <= 0.01 and best_r == 1510
          and best_v == 1439 and v_1510 == 1439
          and abs(upper - 4.38) <= 0.01
          and abs(matched_delta - 0.0039334) <= 5e-5
          and elapsed < 30.0)
    criterion(3, ok, f"max eps_lb={best_lb:.4f} at r={best_r} v={best_v}; "
                     f"upper={upper:.4f} delta(2.675)={matched_delta:.7f}; "
                     f"{len(grid)} grid points in {elapsed:.1f} s")


def test_criterion_4_estimator_validity():
    t0 = time.perf_counter()
    eps_true, runs = 1.0, 1000
    adapter = adapter_randomized_response(eps_true)
    overshoots = 0
    for seed in range(runs):
        report = audit_run(adapter, 1000, 0, 0, 0.0, [0.95], seed=seed)
        overshoots += report.eps_lb[0.95] > eps_true
    rate = overshoots / runs
    elapsed = time.perf_counter() - t0
    ok = rate <= 0.05 + 0.021 and elapsed < 60.0
    criterion(4, ok, f"false-overshoot rate {rate:.4f} over {runs} runs "
                     f"(budget 0.071) in {elapsed:.1f} s")


def test_criterion_5_tightness_and_pathological_bound():
    # (a) randomized response: the correct-guess count matches the binomial
    # law; W's distribution does not depend on the selection, so one fixed
    # selection is reused while the mechanism is re-run per trial.
    m = trials = 100_000
    rng = np.random.Generator(np.random.SFC64(12345))
    s = (rng.integers(0, 2, m) * 2 - 1).astype(np.int8)
    q = rr_accuracy(LN3)
    w = np.empty(trials, dtype=np.int64)
    for k in range(trials):
        t = randomized_response(s, LN3, rng)
        w[k] = np.count_nonzero(t == s)
    # spot check that the fast count agrees with the audited counter
    t = randomized_response(s, LN3, rng)
    assert count_correct(s, t) == np.count_nonzero(t == s)
    w.sort()
    grid = np.arange(w[0] - 1, w[-1] + 2)
    ecdf = np.searchsorted(w, grid, side="right") / trials
    cdf = stats.binom.cdf(grid, m, q)
    dkw_gap = float(np.max(np.abs(ecdf - cdf)))
    dkw_band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * trials))

    # (b) the tail bound holds for the delta-boosted worst-case mechanism
    cfg = PathologicalConfig(m=1000, r=100, eps=1.0, delta=1e-4, beta=0.05)
    rng = np.random.default_rng(999)
    trials_b = 100_000
    wb = np.empty(trials_b, dtype=np.int64)
    sb = sample_selection(cfg.m, rng)
    for k in range(trials_b):
        t = pathological(sb, cfg, rng)
        wb[k] = np.count_nonzero((t != 0) & (t == sb))
    violations = 0
    for v in range(cfg.r + 1):
        phat = float(np.mean(wb >= v))
        bound = p_value_audit(cfg.m, cfg.r, v, cfg.eps, cfg.delta)
        se = math.sqrt(bound * (1.0 - bound) / trials_b)
        if phat > bound + 3.0 * se:
            violations += 1
    ok = dkw_gap <= dkw_band and violations == 0
    criterion(5, ok, f"DKW gap {dkw_gap:.5f} <= band {dkw_band:.5f} "
                     f"({trials} trials); pathological violations "
                     f"beyond 3 sigma: {violations}/{cfg.r + 1} thresholds "
                     f"({trials_b} trials)")


def test_criterion_6_dpsgd_whitebox_law_and_validity():
    t0 = time.perf_counter()
    ell, sigma, c, lr = 100, 10.0, 1.0, 0.1  # rho_total = ell/(2 sigma^2) = 0.5
    mean_in = lr * ell * c * c
    var = lr * lr * c ** 4 * sigma * sigma * ell

    # score-law moment checks on ~1e4 IN and ~1e4 OUT samples from one run
    d = m = 20_000
    rng = np.random.default_rng(77)
    canaries = dirac_canaries(m, d, rng)
    s = sample_selection(m, rng)
    cfg = TrainerConfig(ell=ell, clip=c, noise_multiplier=sigma,
                        sample_prob=1.0, learning_rate=lr, dim=d)
    w_final = dpsgd_train(LossModel.canary_only(d), canaries[s == 1], cfg,
                          rng)
    scores = whitebox_scores(canaries, w_final, cfg)
    moments_ok = True
    for sample, mu in ((scores[s == 1], mean_in), (scores[s == -1], 0.0)):
        n = sample.size
        mean_tol = 3.0 * math.sqrt(var / n)
        var_tol = 3.0 * var * math.sqrt(2.0 / (n - 1))
        moments_ok &= abs(sample.mean() - mu) <= mean_tol
        moments_ok &= abs(sample.var(ddof=1) - var) <= var_tol
        # distribution fit at the 1% level on >= 1e4 samples
        ks = stats.kstest(sample, stats.norm(mu, math.sqrt(var)).cdf)
        moments_ok &= ks.pvalue > 0.01

    # one-run audits at m = 5000 stay below the theoretical upper bound
    m_audit, d_audit, delta = 5000, 5000, 1e-5
    cfg = TrainerConfig(ell=ell, clip=c, noise_multiplier=sigma,
                        sample_prob=1.0, learning_rate=lr, dim=d_audit)
    upper = theoretical_eps_upper(cfg, delta)
    grid = [(r // 2, r // 2) for r in (250, 500, 1000, 1500, 2000, 3000)]
    sound = 0
    reps = 100
    for rep in range(reps):
        rep_rng = np.random.default_rng([555, rep])
        canaries = dirac_canaries(m_audit, d_audit, rep_rng)
        s = sample_selection(m_audit, rep_rng)
        w_final = dpsgd_train(LossModel.canary_only(d_audit),
                              canaries[s == 1], cfg, rep_rng)
        y = whitebox_scores(canaries, w_final, cfg)
        rows = k_sweep(y, s, grid, delta, 0.95)
        sound += max(row.eps_lb for row in rows) <= upper
    elapsed = time.perf_counter() - t0
    ok = moments_ok and sound >= 0.95 * reps and elapsed < 300.0
    criterion(6, ok, f"moment/KS checks ok={moments_ok}; "
                     f"eps_lb <= {upper:.3f} in {sound}/{reps} runs; "
                     f"{elapsed:.1f} s")


def test_criterion_7_generalization_widths():
    gamma, eta, fail = optimize_generalization_width(
        2000, 1.0 / 3.0, 1e-5, beta_acc=1e-5, target_failure=0.05)
    width_prior, c, d = optimize_prior_width(
        1.0 / 3.0, 1e-5, beta_acc=1e-5, target_failure=0.05)
    ok = abs(gamma - 0.308) <= 0.02 and abs(width_prior - 0.397) <= 0.02
    criterion(7, ok, f"three-term width {gamma:.4f} (target 0.308 +- 0.02, "
                     f"eta={eta:.4f}, failure={fail:.4f}); baseline width "
                     f"{width_prior:.4f} (target 0.397 +- 0.02)")


def test_criterion_8_mutual_information_cap():
    ok = True
    worst = -math.inf
    for eps in np.linspace(0.0, 5.0, 26):
        for delta in (0.0, 1e-5, 1e-3):
            for n in (1, 100):
                bound = mi_bound(n, float(eps), delta, 0.5)
                cap = (n * delta * math.log(2.0)
                       + n * (1.0 - delta) * eps * eps / 8.0)
                ok &= bound <= cap + 1e-12
                worst = max(worst, bound - cap)
    gaps = [mi_bound(100, e, 1e-3, 0.5)
            - (100 * 1e-3 * math.log(2.0) + 100 * (1 - 1e-3) * e * e / 8.0)
            for e in (1.0, 0.1, 0.01, 0.001)]
    shrink = all(abs(a) > abs(b) for a, b in zip(gaps, gaps[1:]))
    ok &= shrink and abs(gaps[-1]) < 1e-6
    criterion(8, ok, f"cap respected on the grid (max excess {worst:.2e}); "
                     f"gap shrinks to {abs(gaps[-1]):.2e} as eps -> 0")


def test_criterion_9_non_reproducibility_note():
    # Image-classifier results at production scale (76% accuracy at eps=8;
    # lower bounds 0.7/1.2/1.8/3.5 for eps=1/2/4/8) need GPU-scale training
    # and are intentionally out of scope here.  Criteria 4-6 validate the
    # same estimator and pipeline with property-based checks instead.
    substitutes = [test_criterion_4_estimator_validity,
                   test_criterion_5_tightness_and_pathological_bound,
                   test_criterion_6_dpsgd_whitebox_law_and_validity]
    ok = all(callable(fn) for fn in substitutes)
    criterion(9, ok, "production-scale training runs are explicitly not "
                     "reproduced; criteria 4-6 substitute property-based "
                     "validation of the identical pipeline")
