"""Mechanism sampler laws and closed-form accounting."""

import math
import re

import numpy as np
import pytest
from scipy import optimize, stats

from dpaudit.dpsgd import TrainerConfig, _rdp2_eps, privacy_accounting
from dpaudit.estimator import rr_accuracy
from dpaudit.mechanisms import (
    PathologicalConfig,
    expected_correct_gaussian,
    gaussian_dp_delta,
    gaussian_dp_eps,
    gaussian_report,
    gaussian_rho,
    pathological,
    randomized_response,
    rdp_membership_accuracy,
)
from dpaudit.pipeline import (adapter_gaussian_report,
                              adapter_randomized_response)

LN3 = math.log(3.0)


def fixed_selection(m, seed=0):
    return np.random.default_rng(seed).integers(0, 2, m) * 2 - 1


# ---------------------------------------------------------------------------
# randomized response


def test_rr_fair_coin_at_eps_zero():
    rng = np.random.default_rng(0)
    s = fixed_selection(200_000)
    t = randomized_response(s, 0.0, rng)
    acc = np.mean(t == s)
    assert acc == pytest.approx(0.5, abs=0.005)


def test_rr_large_eps_always_correct():
    rng = np.random.default_rng(1)
    s = fixed_selection(10_000)
    t = randomized_response(s, 30.0, rng)
    assert np.all(t == s)


def test_rr_accuracy_monte_carlo():
    rng = np.random.default_rng(2)
    s = fixed_selection(100_000)
    t = randomized_response(s, LN3, rng)
    assert np.mean(t == s) == pytest.approx(0.75, abs=0.005)


def test_rr_correct_count_is_binomial():
    # DKW band at 99% over 20000 trials of a 50-bit mechanism
    rng = np.random.default_rng(3)
    m, trials = 50, 20_000
    s = fixed_selection(m)
    w = np.empty(trials)
    for k in range(trials):
        w[k] = np.count_nonzero(randomized_response(s, 1.0, rng) == s)
    q = rr_accuracy(1.0)
    grid = np.arange(-1, m + 1)
    ecdf = np.searchsorted(np.sort(w), grid, side="right") / trials
    cdf = stats.binom.cdf(grid, m, q)
    band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * trials))
    assert np.max(np.abs(ecdf - cdf)) <= band


def test_rr_equals_where_form_on_same_stream():
    s = fixed_selection(10_000)
    q = rr_accuracy(1.0)
    expected_keep = np.random.default_rng(5).random(s.shape[0]) < q
    t = randomized_response(s, 1.0, np.random.default_rng(5))
    assert t.dtype == s.dtype
    assert np.array_equal(t, np.where(expected_keep, s, -s))


def test_rr_config_validates():
    for eps in (-0.5, math.nan):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            adapter_randomized_response(eps)


# ---------------------------------------------------------------------------
# gaussian score release


def test_gaussian_report_noiseless_limit_sorts_cleanly():
    rng = np.random.default_rng(4)
    s = fixed_selection(1000)
    y = gaussian_report(s, 1e-9, rng)
    assert np.all(np.sign(y) == s)


def test_gaussian_report_clt_mean():
    rng = np.random.default_rng(5)
    s = fixed_selection(100_000)
    y = gaussian_report(s, 2.0, rng)
    included = y[s == 1]
    assert included.mean() == pytest.approx(1.0, abs=0.02)


def test_gaussian_report_rho_keeps_its_bits_at_sensitivity_two():
    # rho is s * s / (2 sigma^2) at s = 2, the +-1 release's sensitivity,
    # and inf where 2 sigma^2 underflows to 0, for every sigma; the adapter
    # takes exactly the sigmas where that rho is positive and finite
    def rho_at_sensitivity_two(sigma):
        var2 = 2.0 * sigma * sigma
        return 2.0 * 2.0 / var2 if var2 else math.inf

    rng = np.random.default_rng(0)
    sigmas = [5e-324, 1e-300, 1e-155, 1e-154, 1.4e-154, 2e-154, 0.5, 2.0,
              1e153, 1e154, 1e160, 1.7e308,
              *map(float, 10.0 ** rng.uniform(-160.0, 160.0, 1000))]
    seen = set()
    for sigma in sigmas:
        expected = rho_at_sensitivity_two(sigma)
        assert gaussian_rho(sigma).hex() == expected.hex()
        if 0 < expected < math.inf:
            adapter_gaussian_report(sigma, delta=0.0)
            seen.add("finite")
        else:
            with pytest.raises(ValueError,
                               match=re.escape(f"rho at sigma={sigma}")):
                adapter_gaussian_report(sigma, delta=0.0)
            seen.add(expected)
    assert seen == {"finite", 0.0, math.inf}


def test_gaussian_report_degenerate_selection():
    rng = np.random.default_rng(6)
    s = np.ones(50_000, dtype=int)
    y = gaussian_report(s, 0.5, rng)
    assert y.mean() == pytest.approx(1.0, abs=0.01)
    assert y.std() == pytest.approx(0.5, abs=0.01)


# ---------------------------------------------------------------------------
# pathological mechanism


def test_pathological_saturated_boost_all_correct():
    # beta = 1 always takes the boosted branch, and m*delta = r*beta makes
    # it deterministic
    cfg = PathologicalConfig(m=100, r=20, eps=0.0, delta=0.2, beta=1.0)
    assert cfg.boost == pytest.approx(1.0)
    rng = np.random.default_rng(7)
    s = fixed_selection(100)
    t = pathological(s, cfg, rng)
    guessed = t != 0
    assert guessed.sum() == 20
    assert np.all(t[guessed] == s[guessed])


def test_pathological_delta_zero_is_rr_on_subset():
    cfg = PathologicalConfig(m=2000, r=500, eps=LN3, delta=0.0, beta=0.05)
    rng = np.random.default_rng(8)
    s = fixed_selection(2000)
    correct = total = 0
    for _ in range(200):
        t = pathological(s, cfg, rng)
        guessed = t != 0
        total += guessed.sum()
        correct += np.count_nonzero(t[guessed] == s[guessed])
    q = rr_accuracy(LN3)
    se = math.sqrt(q * (1 - q) / total)
    assert correct / total == pytest.approx(q, abs=4 * se)


def test_pathological_branch_accuracy_formula():
    # beta = 1 always takes the boosted branch
    cfg = PathologicalConfig(m=1000, r=100, eps=1.0, delta=0.002, beta=1.0)
    # boost = m delta / (r beta) = 0.02; accuracy = 0.02 + 0.98 * e/(e+1)
    expected = 0.02 + 0.98 * math.e / (math.e + 1.0)
    assert cfg.branch_accuracy(True) == pytest.approx(expected, rel=1e-12)
    assert cfg.branch_accuracy(False) == pytest.approx(rr_accuracy(1.0),
                                                       rel=1e-12)
    rng = np.random.default_rng(9)
    s = fixed_selection(1000)
    correct = total = 0
    for _ in range(1000):
        t = pathological(s, cfg, rng)
        guessed = t != 0
        total += guessed.sum()
        correct += np.count_nonzero(t[guessed] == s[guessed])
    se = math.sqrt(expected * (1 - expected) / total)
    assert correct / total == pytest.approx(expected, abs=3 * se)


def test_pathological_config_validates():
    with pytest.raises(ValueError):
        # m*delta > r*beta
        PathologicalConfig(m=1000, r=10, eps=1.0, delta=1e-2, beta=0.05)
    with pytest.raises(ValueError):
        PathologicalConfig(m=10, r=20, eps=1.0, delta=0.0, beta=0.05)


# ---------------------------------------------------------------------------
# gaussian privacy curve


def test_gaussian_dp_delta_known_points():
    assert gaussian_dp_delta(0.5, 4.38) == pytest.approx(1e-5, abs=2e-7)
    assert gaussian_dp_delta(0.5, 2.675) == pytest.approx(0.0039334, abs=5e-5)
    expected = stats.norm.sf(-0.5) - stats.norm.sf(0.5)
    assert gaussian_dp_delta(0.5, 0.0) == pytest.approx(expected, rel=1e-12)
    assert gaussian_dp_delta(0.5, 0.0) == pytest.approx(0.38292, abs=1e-5)


def test_gaussian_dp_delta_monotone():
    eps_grid = np.linspace(0.0, 6.0, 25)
    vals = [gaussian_dp_delta(0.5, float(e)) for e in eps_grid]
    assert np.all(np.diff(vals) < 0)
    rho_grid = [0.1, 0.3, 0.5, 1.0, 2.0]
    vals = [gaussian_dp_delta(r, 1.0) for r in rho_grid]
    assert np.all(np.diff(vals) > 0)


def test_gaussian_dp_delta_validates_and_clamps():
    with pytest.raises(ValueError):
        gaussian_dp_delta(0.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_dp_delta(1.0, -0.1)
    assert 0.0 <= gaussian_dp_delta(50.0, 0.0) <= 1.0
    assert gaussian_dp_delta(1.0, math.inf) == 0.0  # the curve's limit


def test_gaussian_dp_eps_known_points():
    assert gaussian_dp_eps(0.5, 1e-5) == pytest.approx(4.38, abs=0.01)
    assert gaussian_dp_eps(0.5, 0.0039334) == pytest.approx(2.675, abs=1e-3)


def test_gaussian_dp_eps_finite_at_huge_rho():
    # the e^eps term's exponent cancels to rounding at large rho; it must not
    # overflow (rho >= 1e20 raised OverflowError)
    for rho in (1e20, 1e300, 5e307):
        eps = gaussian_dp_eps(rho, 1e-5)
        assert math.isfinite(eps) and eps == pytest.approx(rho, rel=1e-6)


def test_gaussian_dp_eps_round_trip():
    for rho in [0.1, 0.5, 1.0, 2.0, 5.0]:
        for eps in [0.0, 0.5, 1.0, 2.0, 4.0, 10.0]:
            delta = gaussian_dp_delta(rho, eps)
            if not 0.0 < delta < 1.0:
                continue
            back = gaussian_dp_eps(rho, delta)
            assert back == pytest.approx(eps, abs=1e-6)


def test_gaussian_dp_delta_equals_scipy_stats_norm_form():
    for rho in [1e-3, 0.1, 0.5, 2.0, 40.0]:
        scale = math.sqrt(2.0 * rho)
        for eps in [0.0, 0.3, 1.0, 4.38, 20.0]:
            expected = (stats.norm.sf((eps - rho) / scale)
                        - math.exp(eps + stats.norm.logsf((eps + rho) / scale)))
            assert gaussian_dp_delta(rho, eps) == min(1.0, max(0.0, expected))


def test_gaussian_dp_eps_matches_brentq_reference():
    for rho in np.geomspace(1e-3, 50.0, 25):
        for delta in [1e-300, 1e-12, 1e-8, 1e-5, 1e-3, 0.05, 0.3]:
            if gaussian_dp_delta(rho, 0.0) <= delta:
                continue
            hi = 1.0
            while gaussian_dp_delta(rho, hi) > delta:
                hi *= 2.0
            expected = optimize.brentq(
                lambda e: gaussian_dp_delta(rho, e) - delta, 0.0, hi,
                xtol=1e-9)
            assert abs(gaussian_dp_eps(rho, delta) - expected) <= 1e-9


def test_gaussian_dp_eps_is_the_float_where_the_curve_crosses_delta():
    # the upper bound is certified as the lower one is: delta(eps) <= delta,
    # and the float below eps misses it
    rng = np.random.default_rng(7)
    grid = [(0.5, 1e-5), (1.0, 1e-5)] + list(zip(
        10.0 ** rng.uniform(-4.0, 6.0, 1200),
        10.0 ** rng.uniform(-300.0, math.log10(0.3), 1200)))
    positive = 0
    for rho, delta in grid:
        rho, delta = float(rho), float(delta)
        eps = gaussian_dp_eps(rho, delta)
        if eps > 0:
            positive += 1
            assert (gaussian_dp_delta(rho, eps) <= delta
                    < gaussian_dp_delta(rho, math.nextafter(eps, 0.0))), \
                (rho, delta, eps)
    assert positive >= 1000


def test_gaussian_dp_delta_matches_60_digit_oracle_at_the_upper_bound():
    mpmath = pytest.importorskip("mpmath")

    def exact(rho, eps):
        with mpmath.workdps(60):
            rho, eps = mpmath.mpf(rho), mpmath.mpf(eps)
            scale = mpmath.sqrt(2 * rho)
            return (mpmath.ncdf(-(eps - rho) / scale)
                    - mpmath.exp(eps) * mpmath.ncdf(-(eps + rho) / scale))

    for rho in np.geomspace(1e-3, 100.0, 15):
        for delta in [1e-300, 1e-100, 1e-20, 1e-10, 1e-5, 1e-3, 0.05, 0.3]:
            eps = gaussian_dp_eps(float(rho), delta)
            if eps == 0:
                continue
            truth = exact(float(rho), eps)
            assert abs(gaussian_dp_delta(float(rho), eps) - truth) \
                <= 1e-9 * truth, (rho, delta, eps)


def test_gaussian_dp_eps_saturated_delta_returns_zero():
    assert gaussian_dp_eps(0.5, 0.9) == 0.0


# ---------------------------------------------------------------------------
# noisy-SGD accounting: the order-2 Renyi step of dpsgd.privacy_accounting


def subsampled_config(sample_prob=0.5, sigma=1.0, ell=1):
    return TrainerConfig(ell=ell, clip=1.0, noise_multiplier=sigma,
                         sample_prob=sample_prob, learning_rate=0.1, dim=4)


def test_rdp_eps_zero_sampling():
    # q = 0 is outside the accounting's domain: sample_prob must be > 0
    with pytest.raises(ValueError, match="sample_prob"):
        subsampled_config(sample_prob=0.0)


@pytest.mark.parametrize("sigma", [1e-300, 1e-160])
def test_rdp_eps_rejects_infinite_inverse_variance(sigma):
    # sigma^2 underflows to 0 or to a subnormal whose inverse overflows
    with pytest.raises(ValueError, match="noise_multiplier"):
        privacy_accounting(subsampled_config(sigma=sigma))


def test_rdp_eps_rejects_vanishing_inverse_variance():
    # sigma^2 overflows, so 1 / sigma^2 underflows to zero
    with pytest.raises(ValueError, match="noise_multiplier"):
        privacy_accounting(subsampled_config(sigma=1e300))


def test_rdp_eps_closed_form_unit():
    assert _rdp2_eps(1, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_rdp_eps_small_rate_high_precision():
    got = _rdp2_eps(1000, 0.001, 1.0)
    assert got == pytest.approx(1000 * math.log1p(1e-6 * math.expm1(1.0)),
                                rel=1e-14)
    assert got == pytest.approx(1.7182e-3, abs=1e-7)


def test_rdp_eps_additive_in_steps():
    a = _rdp2_eps(300, 0.02, 1.3)
    b = _rdp2_eps(700, 0.02, 1.3)
    assert _rdp2_eps(1000, 0.02, 1.3) == pytest.approx(a + b, rel=1e-12)


@pytest.mark.parametrize("sigma", [1.0, 0.04, 0.0376, 0.0375, 0.03, 1e-3,
                                   1e-150])
def test_rdp_eps_matches_mpmath(sigma):
    # 50-digit oracle on the float inputs, on both sides of the sigma where
    # exp(1/sigma^2) leaves the float range and of the q where q^2
    # underflows; where neither happens the plain expression's bits are kept
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    tiny = np.finfo(float).tiny
    for q in (1.0, 0.5, 1e-3, 1e-100, 1e-200, 1e-300):
        for ell in (1, 100):
            got = _rdp2_eps(ell, q, sigma)
            s, qq = mpmath.mpf(sigma), mpmath.mpf(q)
            exact = ell * mpmath.log1p(qq * qq * mpmath.expm1(1 / (s * s)))
            assert math.isfinite(got)
            # below the normal range a float has no relative 1e-12
            assert abs(got - exact) <= max(1e-12 * exact, tiny)
            if q * q >= tiny and 1.0 / (sigma * sigma) < 709.0:
                assert got == ell * math.log1p(
                    q * q * math.expm1(1.0 / (sigma * sigma)))


def test_rdp_membership_accuracy_values():
    assert rdp_membership_accuracy(0.0) == 0.5
    assert rdp_membership_accuracy(math.log(5.0)) == pytest.approx(
        0.5 + 0.5 * math.sqrt(0.5), rel=1e-12)
    for x in [1e-4, 1e-3, 0.01, 0.05]:
        approx = 0.5 + math.sqrt(x) / 4.0
        exact = rdp_membership_accuracy(x)
        assert abs((exact - 0.5) - (approx - 0.5)) <= 0.05 * (approx - 0.5)
    assert 0.5 <= rdp_membership_accuracy(30.0) < 1.0
    # saturates to 1.0 only once the gap falls below double precision
    assert rdp_membership_accuracy(800.0) <= 1.0


# ---------------------------------------------------------------------------
# expected correct guesses for the gaussian ideal


def test_expected_correct_gaussian_symmetric_case():
    m = 10_000
    c, v = expected_correct_gaussian(m, m, 2.0)
    assert c == pytest.approx(0.0, abs=1e-9)
    acc = stats.norm.sf(-0.5)
    assert v == math.ceil(m * acc)


def test_expected_correct_gaussian_noiseless():
    _, v = expected_correct_gaussian(1000, 100, 1e-6)
    assert v == 100


def test_expected_correct_gaussian_reference_point():
    _, v = expected_correct_gaussian(100_000, 1510, 2.0)
    assert v == 1439


def test_expected_correct_gaussian_accuracy_improves_with_fewer_guesses():
    m = 100_000

    def conditional_accuracy(r):
        c, _ = expected_correct_gaussian(m, r, 2.0)
        a = stats.norm.sf((c - 1.0) / 2.0)
        b = stats.norm.sf((c + 1.0) / 2.0)
        return a / (a + b)

    accs = [conditional_accuracy(r) for r in [20_000, 5000, 1510, 400, 50]]
    assert np.all(np.diff(accs) > 0)


def expected_correct_gaussian_norm_form(m, r, sigma):
    """The scipy.stats.norm form of expected_correct_gaussian."""
    target = r / (2.0 * m)

    def mixture_tail(c):
        return 0.5 * (stats.norm.sf((c - 1.0) / sigma)
                      + stats.norm.sf((c + 1.0) / sigma))

    lo, hi = 0.0, 1.0 + sigma * stats.norm.isf(target)
    if hi <= lo:
        hi = lo + 1.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if mixture_tail(mid) >= target:
            lo = mid
        else:
            hi = mid
    c = hi
    plus = stats.norm.sf((c - 1.0) / sigma)
    minus = stats.norm.sf((c + 1.0) / sigma)
    return float(c), int(math.ceil(r * plus / (plus + minus)))


@pytest.mark.parametrize("m,r,sigma", [
    (100, 100, 1.0), (1000, 7, 0.3), (100_000, 1510, 2.0),
    (100_000, 65536, 3.0), (100_000, 2, 1.5), (10_000, 500, 1e-6)])
def test_expected_correct_gaussian_equals_scipy_stats_norm_form(m, r, sigma):
    assert expected_correct_gaussian(m, r, sigma) == \
        expected_correct_gaussian_norm_form(m, r, sigma)


def test_expected_correct_gaussian_finds_a_tiny_tail_root():
    # target r / (2m) = 5e-21: an absolute stop such as
    # |tail - target| <= 1e-12 would end at c = 9.044, where the tail is
    # 2.2e-16
    m, sigma = 10 ** 20, 1.0
    c, v = expected_correct_gaussian(m, 1, sigma)

    def excess(x):
        return 0.5 * (stats.norm.sf((x - 1.0) / sigma)
                      + stats.norm.sf((x + 1.0) / sigma)) - 1 / (2.0 * m)

    assert c == pytest.approx(optimize.brentq(excess, 0.0, 50.0, xtol=1e-14),
                              rel=1e-14)
    assert v == 1


def test_expected_correct_gaussian_validates():
    with pytest.raises(ValueError):
        expected_correct_gaussian(100, 200, 2.0)
    with pytest.raises(ValueError):
        expected_correct_gaussian(100, 50, 0.0)


@pytest.mark.parametrize("call,match", [
    (lambda: gaussian_dp_eps(math.inf, 1e-5), "rho"),
    (lambda: gaussian_dp_eps(math.nan, 1e-5), "rho"),
    (lambda: gaussian_dp_delta(math.nan, 1.0), "rho"),
    (lambda: gaussian_dp_delta(1.0, math.nan), "eps"),
    (lambda: rdp_membership_accuracy(math.nan), "eps_check"),
    (lambda: expected_correct_gaussian(10, 5, math.nan), "sigma"),
    (lambda: expected_correct_gaussian(10, 5, math.inf), "sigma"),
    # sigma = 1e-154 passes the noise rule at ell = 2, but 2 rho = 2e308
    # and the order-2 Renyi eps of two steps at q = 1/2 overflow
    (lambda: privacy_accounting(subsampled_config(1.0, 1e-154, ell=2)),
     "2 \\* rho must be positive and finite"),
    (lambda: privacy_accounting(subsampled_config(0.5, 1e-154, ell=2)),
     "eps_check must be nonnegative and finite"),
    (lambda: gaussian_dp_eps(1e308, 1e-5), "2 \\* rho must be"),
], ids=["dp-eps-inf-rho", "dp-eps-nan-rho", "dp-delta-nan-rho",
        "dp-delta-nan-eps", "rdp-accuracy-nan", "expected-nan-sigma",
        "expected-inf-sigma", "zcdp-inf-rho", "rdp-inf-eps-check",
        "dp-eps-overflowing-rho"])
def test_accounting_rejects_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_gaussian_dp_eps_keeps_its_bits_where_two_rho_is_finite():
    # the largest rho the curve takes reads as before; one past it raises
    assert gaussian_dp_eps(8e307, 1e-5) == 7.999999999999998e+307
