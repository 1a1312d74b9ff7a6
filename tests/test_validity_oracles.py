"""Exact coverage of eps_lower_bound under randomized response.

With fair selection coins, eps-DP randomized response makes the number of
correct guesses out of r exactly Binomial(r, q(eps)), q(eps) =
e^eps / (e^eps + 1).  eps_lower_bound is nondecreasing in the count v, so
the bound overshoots eps exactly when v >= v*, the smallest v whose bound
exceeds eps, and the overshoot rate is Pr[Binomial(r, q(eps)) >= v*]:
computed, not sampled.
"""

import pytest
from scipy import stats

from dpaudit.estimator import eps_lower_bound, rr_accuracy


def overshoot_threshold(r: int, eps: float, beta: float, guess: int) -> int:
    """Smallest v in 0..r+1 with eps_lower_bound(r, r, v, 0, beta) > eps.

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
        return eps_lower_bound(r, r, v, 0.0, beta) > eps

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
    v_star = overshoot_threshold(r, eps, beta, guess)
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
