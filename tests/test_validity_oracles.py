"""Exact validity oracles for the p-value and eps_lower_bound.

With fair selection coins, eps-DP randomized response makes the number of
correct guesses out of r exactly Binomial(r, q(eps)), q(eps) =
e^eps / (e^eps + 1).  eps_lower_bound is nondecreasing in the count v, so
the bound overshoots eps exactly when v >= v*, the smallest v whose bound
exceeds eps, and the overshoot rate is Pr[Binomial(r, q(eps)) >= v*]:
computed, not sampled.  The worst-case mechanism's count has a known law
too, so its tail is checked against the p-value at every threshold, and at
delta > 0 the overshoot rate is computed under that law.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpaudit.estimator import (GuessSummary, PrivacyParams, eps_lower_bound,
                               p_value_audit, rr_accuracy)
from dpaudit.mechanisms import PathologicalConfig


def overshoot_threshold(m: int, r: int, delta: float, eps: float,
                        beta: float, guess: int) -> int:
    """Smallest v in 0..r+1 with eps_lower_bound(m, r, v, delta, beta) > eps.

    r + 1 stands for "no count overshoots".  The bracket grows outward from
    guess by doubling steps, then bisection over v closes it; only
    monotonicity in v is assumed, so a wrong guess costs calls, not
    correctness.
    """

    def over(v):
        if v < 0:
            return False
        if v > r:
            return True
        return eps_lower_bound(m, r, v, delta, beta) > eps

    lo, step = min(max(guess, 0), r + 1) - 1, 1  # want not over(lo)
    while over(lo):
        lo, step = max(lo - step, -1), 2 * step
    hi, step = lo + 1, 1  # want over(hi)
    while not over(hi):
        lo, hi, step = hi, min(hi + step, r + 1), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if over(mid):
            hi = mid
        else:
            lo = mid
    return hi


def overshoot_rate(r: int, eps: float, beta: float) -> tuple[int, float]:
    """(v*, Pr[eps_lower_bound(W) > eps]) for W ~ Binomial(r, q(eps))."""
    q = rr_accuracy(eps)
    # the count at which the bound's own test first rejects eps
    guess = int(stats.binom.isf(beta, r, q)) + 1
    v_star = overshoot_threshold(r, r, 0.0, eps, beta, guess)
    return v_star, float(stats.binom.sf(v_star - 1, r, q))


def test_coverage_at_criterion_four_setup():
    # m = r = 1000, eps = 1, beta = 0.05: the Monte Carlo criterion's set-up
    v_star, rate = overshoot_rate(1000, 1.0, 0.05)
    assert v_star == 755
    assert rate == pytest.approx(0.04626, abs=5e-6)


@pytest.mark.parametrize("r", [10, 100, 1000, 10_000])
def test_eps_lower_bound_exact_coverage(r):
    for eps in (0.0, 0.5, 1.0, 2.0, 4.0):
        for beta in (0.01, 0.05, 0.2):
            v_star, rate = overshoot_rate(r, eps, beta)
            assert rate <= beta, (eps, beta, v_star, rate)


@pytest.mark.parametrize("delta", [1e-4, 1e-3])
def test_eps_lower_bound_exact_coverage_worst_case(delta):
    # at delta > 0 W follows the worst-case mechanism's law: the mixture
    # beta * Bin(r, boosted accuracy) + (1 - beta) * Bin(r, q), with the
    # rare event's probability equal to the bound's failure probability
    for m, r, eps, beta in itertools.product(
            (100, 1000), (10, 100, 1000), (0.0, 0.5, 1.0, 2.0), (0.05, 0.2)):
        if r > m or m * delta > r * beta:
            continue
        cfg = PathologicalConfig(m, r, eps, delta, beta)
        plain, boosted = cfg.branch_accuracy(False), cfg.branch_accuracy(True)
        guess = int(stats.binom.isf(beta, r, plain)) + 1
        v_star = overshoot_threshold(m, r, delta, eps, beta, guess)
        rate = (beta * stats.binom.sf(v_star - 1, r, boosted)
                + (1.0 - beta) * stats.binom.sf(v_star - 1, r, plain))
        assert rate <= beta, (m, r, eps, beta, v_star, rate)


# criterion 5's set-up first, then a grid of worst-case configurations
_WORST_CASES = [PathologicalConfig(1000, 100, 1.0, 1e-4, 0.05)] + [
    PathologicalConfig(m, r, eps, delta, beta)
    for m, r, eps, delta, beta in itertools.product(
        (100, 1000), (10, 50, 100), (0.0, 0.5, 1.0, 3.0),
        (1e-4, 1e-3, 1e-2), (0.01, 0.05, 0.2, 1.0))
    if r <= m and m * delta <= r * beta]


def worst_case_tails(cfg: PathologicalConfig):
    """(Pr[W >= v], Pr[Bin(r, q) >= v], p-value) for v = 0..r.

    Under the worst-case mechanism W is the mixture
    beta * Bin(r, boosted accuracy) + (1 - beta) * Bin(r, q).
    """
    v = np.arange(cfg.r + 1)
    plain = stats.binom.sf(v - 1, cfg.r, cfg.branch_accuracy(False))
    tail = (cfg.beta * stats.binom.sf(v - 1, cfg.r, cfg.branch_accuracy(True))
            + (1.0 - cfg.beta) * plain)
    params = PrivacyParams(cfg.eps, cfg.delta)
    p = np.array([p_value_audit(GuessSummary(cfg.m, cfg.r, 0, int(w)), params)
                  for w in v])
    return tail, plain, p


def test_p_value_bounds_worst_case_tail():
    worst_ratio = worst_spill = math.inf
    for cfg in _WORST_CASES:
        tail, plain, p = worst_case_tails(cfg)
        assert np.all(tail <= p * (1.0 + 1e-12)), cfg
        worst_ratio = min(worst_ratio, float((p / tail).min()))
        # the delta term p - S(v) against what the rare branch adds to the
        # tail, where it adds more than rounding and p is not capped at 1
        added = (p < 1.0) & (tail - plain > 1e-9 * tail)
        if added.any():
            worst_spill = min(worst_spill, float(
                ((p - plain)[added] / (tail - plain)[added]).min()))
    # the bound is attained, to rounding, where it saturates (p = tail = 1)
    assert worst_ratio == pytest.approx(1.0, rel=1e-12)
    # the rare branch never adds more than half of the delta term (worst at
    # m = 100, r = 10, eps = 0, delta = 1e-4, beta = 1, v = 1), so the tail
    # check alone would pass a delta term cut in half; this figure would not
    assert worst_spill == pytest.approx(2.0090165, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.integers(1, 3000),
       spill=st.one_of(st.floats(1.0, 30.0), st.floats(0.0, 1.0)),
       eps=st.lists(st.floats(0.0, 8.0), min_size=2, max_size=100))
def test_p_value_nondecreasing_in_eps(data, m, spill, eps):
    # the bisection assumes it; each spillover candidate is increasing in q
    # only for i > 2 m delta, so budgets 2 m delta in [1, 30] are drawn too
    r = data.draw(st.integers(1, min(m, 1000)), label="r")
    v = data.draw(st.integers(0, r), label="v")
    delta = min(1.0, spill / (2 * m))
    summary = GuessSummary(m=m, k_plus=r, k_minus=0, v=v)
    p = [p_value_audit(summary, PrivacyParams(e, delta)) for e in sorted(eps)]
    assert all(a <= b for a, b in zip(p, p[1:])), (m, r, v, delta)
