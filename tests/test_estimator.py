"""Estimator tests: frozen worked examples, independent oracles, invariants."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from dpaudit import estimator
from dpaudit.estimator import (
    DominatingDistribution,
    adaptive_bound,
    dual_alpha,
    eps_lower_bound,
    generalization_bound,
    hoeffding_p_value,
    mi_bound,
    optimize_generalization_width,
    optimize_prior_width,
    p_value_audit,
    p_value_general_p,
    p_values_by_threshold,
    prior_generalization_bound,
    rr_accuracy,
    _p_value_at,
    _survival_fill,
    _tail_p_value,
)
from references import binomial_sf, hoeffding_p_value_full_scan

LN3 = math.log(3.0)


def kernel_sf(n, q, v):
    """Pr[Binomial(n, q) >= v], 0 <= v <= n, from a survival fill up to v,
    the table every product p-value reads."""
    return float(_survival_fill(n, v)(q)[v])


# ---------------------------------------------------------------------------
# independent oracles


def sf_by_enumeration(n, q, v):
    """Pr[#successes >= v] by summing over all 2^n outcome strings."""
    total = 0.0
    for outcome in itertools.product((1, 0), repeat=n):
        if sum(outcome) >= v:
            prob = 1.0
            for bit in outcome:
                prob *= q if bit else (1.0 - q)
            total += prob
    return total


def sf_logspace(n, q, v):
    """Log-space compensated tail sum; independent of the beta function."""
    if v <= 0:
        return 1.0
    if v > n:
        return 0.0
    ks = np.arange(v, n + 1)
    logpmf = (special.gammaln(n + 1) - special.gammaln(ks + 1)
              - special.gammaln(n - ks + 1)
              + ks * math.log(q) + (n - ks) * math.log1p(-q))
    return float(np.exp(special.logsumexp(logpmf)))


def dual_alpha_pmf_loop(r, q, v, m):
    """Literal running-max pmf-accumulation loop for the binomial case."""
    alpha = 0.0
    acc = 0.0  # Pr[v > W >= v - i]
    for i in range(1, min(m, max(v, 1)) + 1):
        acc += stats.binom.pmf(v - i, r, q)
        if acc > i * alpha:
            alpha = acc / i
    return alpha


# ---------------------------------------------------------------------------
# binomial survival: the survival fill behind every p-value


def test_binomial_sf_two_fair_coins():
    # 4 equally likely outcomes, one with two successes
    assert kernel_sf(2, 0.5, 2) == pytest.approx(0.25, abs=1e-15)


def test_binomial_sf_three_biased_coins():
    # enumeration over 8 outcomes gives 27/64 + 3*9/64*... = 0.84375
    assert kernel_sf(3, 0.75, 2) == pytest.approx(0.84375, abs=1e-15)
    assert sf_by_enumeration(3, 0.75, 2) == pytest.approx(0.84375, abs=1e-15)


@pytest.mark.parametrize("n,q", [(1, 0.5), (4, 0.3), (7, 0.9), (10, 0.75)])
def test_binomial_sf_matches_enumeration(n, q):
    table = _survival_fill(n, n)(q)
    for v in range(n + 1):
        assert table[v] == pytest.approx(
            sf_by_enumeration(n, q, v), rel=1e-12, abs=1e-300)


def test_binomial_sf_support_edges():
    assert _survival_fill(100, 100)(0.3)[0] == 1.0
    assert np.array_equal(_survival_fill(0, 0)(0.3), [1.0])
    dist = DominatingDistribution.from_binomial(100, 0.3)
    # any Python int, also one past int64, as dual_alpha's v may be
    assert dual_alpha(dist, -10**400, 10) == 0.0
    assert dual_alpha(dist, 10**300, 10) == 0.0
    # a count above the largest float is outside the count rule's domain
    with pytest.raises(ValueError, match="^v must be <= "):
        dual_alpha(dist, 10**400, 10)


def test_binomial_sf_matches_mpmath_tails():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for n, q, v in [(100, 0.75, 95), (1000, 0.5, 580), (1000, 0.9, 950),
                    (500, 0.25, 200)]:
        exact = float(mp.betainc(v, n - v + 1, 0, q, regularized=True))
        assert kernel_sf(n, q, v) == pytest.approx(exact, rel=1e-12)


def mp_survival(mp, n, q):
    """Pr[Binomial(n, q) >= w] for w = 0..n at the working mpmath precision.

    The pmf comes from its ratio recurrence and is summed from the top, an
    evaluation independent of the incomplete-beta kernel under test.
    """
    q = mp.mpf(q)
    ratio = q / (1 - q)
    pmf = [(1 - q) ** n]
    for k in range(n):
        pmf.append(pmf[-1] * (n - k) / (k + 1) * ratio)
    sf, acc = [], mp.mpf(0)
    for term in reversed(pmf):
        acc += term
        sf.append(acc)
    return sf[::-1]


def first_below(sf, level):
    """First threshold whose tail is below level, else the top of the support."""
    return next((v for v, tail in enumerate(sf) if tail < level), len(sf) - 1)


def assert_rel_1e12(got, exact, case):
    # a tail below the normal float range can only come back as a tail there
    if exact < np.finfo(float).tiny:
        assert got < np.finfo(float).tiny, case
    else:
        assert abs(got - exact) <= 1e-12 * exact, case


def test_binomial_sf_and_p_value_match_50_digit_oracle():
    # deep tails (S about 1e-300), v = 0, v = r and v just above the mean,
    # n <= 2000, to a relative 1e-12; p-values at delta = 0 and delta > 0,
    # with dual_alpha taken over the exact tails
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for n, q in [(2000, 0.5), (2000, 0.1), (1000, 1e-3), (100, 0.75),
                 (10, float(rr_accuracy(1.0))), (1, 0.3)]:
        sf = mp_survival(mp, n, q)
        for v in {0, n, math.floor(n * q) + 1, first_below(sf, 1e-295)}:
            assert_rel_1e12(kernel_sf(n, q, v), sf[v], (n, q, v))
    for m, r, eps in [(2000, 2000, 0.0), (2000, 1000, 1.0), (100, 100, 0.5)]:
        e = mp.exp(eps)
        sf = mp_survival(mp, r, e / (1 + e))
        for v in {0, r, math.floor(r * rr_accuracy(eps)) + 1,
                  first_below(sf, 1e-295)}:
            for delta in (0.0, 1e-5):
                tail = sf[v]
                alpha = max([0] + [((sf[v - i] if i < v else 1) - tail) / i
                                   for i in range(1, m + 1)])
                exact = min(1, tail + alpha * 2 * m * mp.mpf(delta))
                got = p_value_audit(m, r, v, eps, delta)
                assert_rel_1e12(got, exact, (m, r, v, delta))


def test_binomial_sf_large_n_logspace_oracle():
    # the oracle itself carries ~1e-9 relative error from gammaln at n = 1e6
    for n, q, v in [(10**6, 0.75, 751_000), (10**6, 0.5, 500_000),
                    (10**6, 0.1, 99_000)]:
        assert kernel_sf(n, q, v) == pytest.approx(
            sf_logspace(n, q, v), rel=1e-7)


BINOM_ORACLE_N = [0, 1, 100, 16384]
BINOM_ORACLE_Q = [0.0, 0.5, float(special.expit(3.0)), 1.0]


@pytest.mark.parametrize("n", BINOM_ORACLE_N)
@pytest.mark.parametrize("q", BINOM_ORACLE_Q)
def test_binomial_tails_equal_scipy_stats_exactly(n, q):
    # the incomplete-beta form is the kernel binom.sf evaluates, so the
    # whole table, deep tails included, must match bit for bit, and so must
    # a fill that stops at v, as a p-value's does
    expected = stats.binom.sf(np.arange(n + 1) - 1, n, q)
    table = DominatingDistribution.from_binomial(n, q).survival_table
    assert np.array_equal(table, expected)
    for v in {0, min(1, n), n // 2, max(n - 1, 0), n}:
        assert kernel_sf(n, q, v) == expected[v]


def test_binomial_tails_equal_scipy_stats_deep_tails():
    for n, q in [(16384, 0.01), (16384, 0.99), (1000, 1e-6), (16384, 0.5)]:
        expected = stats.binom.sf(np.arange(n + 1) - 1, n, q)
        assert expected[expected > 0].min() < 1e-70  # reaches deep tails
        table = DominatingDistribution.from_binomial(n, q).survival_table
        assert np.array_equal(table, expected)


def test_binomial_sf_rejects_bad_parameters():
    with pytest.raises(ValueError, match="q must be"):
        DominatingDistribution.from_binomial(10, 1.5)
    with pytest.raises(ValueError, match="n must be"):
        DominatingDistribution.from_binomial(-1, 0.5)


@given(n=st.integers(0, 300), q=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_binomial_sf_is_probability_and_monotone(n, q):
    table = _survival_fill(n, n)(q)
    assert np.all((0.0 <= table) & (table <= 1.0))
    assert np.all(np.diff(table) <= 1e-15)


# ---------------------------------------------------------------------------
# DominatingDistribution


def test_dominating_from_pmf_survival():
    dist = DominatingDistribution.from_pmf([0.25, 0.5, 0.25])
    np.testing.assert_allclose(dist.survival_table, [1.0, 0.75, 0.25])


def test_dominating_from_binomial_matches_sf():
    table = DominatingDistribution.from_binomial(20, 0.3).survival_table
    assert table.shape == (21,)
    for w in range(21):
        assert table[w] == pytest.approx(binomial_sf(20, 0.3, w), abs=1e-15)


def test_dominating_rejects_invalid():
    with pytest.raises(ValueError):
        DominatingDistribution(survival_table=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        DominatingDistribution.from_pmf([0.5, 0.4])  # sums to 0.9


# (a pmf's total or a table's S(0), whether it is accepted) at both edges
# of the sum tolerance 1e-9, read as |S(0) - 1| <= 1e-9 by both constructors
SUM_EDGES = [(1.0 - 2 ** -30, True), (1.0 - 2 ** -29, False),
             (1.0 + 2 ** -30, True), (1.0 + 2 ** -29, False)]


@pytest.mark.parametrize("total,accepted", SUM_EDGES)
def test_dominating_from_pmf_and_table_accept_the_same_sums(total, accepted):
    # 2**-30 = 9.3e-10 and 2**-29 = 1.9e-9 lie on either side of 1e-9; the
    # pmf's total sits in its first entry, its last, or is split over two
    if accepted:
        assert DominatingDistribution([total]).survival_table[0] == 1.0
    else:
        with pytest.raises(ValueError, match="^survival at 0 must be 1"):
            DominatingDistribution([total])
    for pmf in ([total], [0.0, total], [0.5, total - 0.5]):
        if accepted:
            expected = np.minimum(np.cumsum(pmf[::-1])[::-1], 1.0)
            expected[0] = 1.0
            assert np.array_equal(
                DominatingDistribution.from_pmf(pmf).survival_table,
                expected), pmf
        else:
            with pytest.raises(ValueError, match="^pmf must sum to 1, got"):
                DominatingDistribution.from_pmf(pmf)


def test_dominating_from_pmf_turns_pmfs_away_with_pmf_messages():
    # entries at the -1e-12 tolerance and totals off 1 by up to 2e-9, in
    # every order: each pmf is accepted, or refused by a pmf rule
    rng = np.random.default_rng(30)
    for _ in range(2000):
        a = rng.uniform(0.0, 1.0)
        tol = rng.choice([5e-13, 1e-12, 2e-12])
        pmf = np.array([1.0 - a + tol, -tol * rng.uniform(0.0, 1.5), a,
                        rng.choice([0.0, -1e-12, 1e-10])])
        pmf = rng.permutation(pmf) * rng.choice(
            [1.0, 1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 2e-9, 1.0 - 2e-9])
        try:
            DominatingDistribution.from_pmf(pmf)
        except ValueError as exc:
            assert str(exc).startswith("pmf "), (pmf, str(exc))


@given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_dominating_from_random_pmf(weights):
    total = sum(weights)
    if total <= 0:
        return
    pmf = np.asarray(weights) / total
    dist = DominatingDistribution.from_pmf(pmf)
    table = dist.survival_table
    assert table[0] == 1.0
    assert np.all(np.diff(table) <= 1e-12)
    assert np.all((table >= 0) & (table <= 1))


# ---------------------------------------------------------------------------
# dual_alpha


def test_dual_alpha_two_fair_coins():
    # survival(1) = 0.75, survival(0) = 1, beta = 0.25: max(0.5, 0.375)
    dist = DominatingDistribution.from_binomial(2, 0.5)
    assert dual_alpha(dist, v=2, m=2) == pytest.approx(0.5, abs=1e-15)


def test_dual_alpha_flat_survival_is_zero():
    # point mass at 0: survival is 0 everywhere near v
    dist = DominatingDistribution.from_pmf([1.0])
    assert dual_alpha(dist, v=5, m=3) == 0.0


def test_dual_alpha_matches_pmf_accumulation_loop():
    q = 0.75
    dist = DominatingDistribution.from_binomial(100, q)
    assert dual_alpha(dist, v=75, m=100) == pytest.approx(
        dual_alpha_pmf_loop(100, q, 75, 100), rel=1e-11)
    rng = np.random.default_rng(0)
    for _ in range(25):
        r = int(rng.integers(1, 60))
        v = int(rng.integers(0, r + 1))
        m = int(rng.integers(max(r, 1), 200))
        qq = float(rng.uniform(0.05, 0.95))
        dist = DominatingDistribution.from_binomial(r, qq)
        assert dual_alpha(dist, v, m) == pytest.approx(
            dual_alpha_pmf_loop(r, qq, v, m), rel=1e-10, abs=1e-15)


def test_dual_alpha_is_feasible_dual_solution():
    # alpha * i + beta >= S(v - i) for every i in [m], m <= 12, with the
    # tails S read from the reference binomial_sf
    rng = np.random.default_rng(1)
    for _ in range(40):
        m = int(rng.integers(1, 13))
        r = int(rng.integers(1, m + 1))
        v = int(rng.integers(0, r + 1))
        q = float(rng.uniform(0.0, 1.0))
        beta = binomial_sf(r, q, v)
        alpha = dual_alpha(DominatingDistribution.from_binomial(r, q), v, m)
        for i in range(1, m + 1):
            assert alpha * i + beta >= binomial_sf(r, q, v - i) - 1e-12


def extended(table):
    """w -> S(w): table[w] inside, 1.0 for w <= 0 and 0.0 past the table."""
    def sf(w):
        if w <= 0:
            return 1.0
        return float(table[w]) if w < len(table) else 0.0
    return sf


def brute_force_alphas(sf, v, m_max):
    """[max(0, max over i = 1..m of (S(v - i) - S(v)) / i) for m = 1..m_max],
    each candidate in one Python float subtraction and division."""
    best, alphas = 0.0, []
    for i in range(1, m_max + 1):
        best = max(best, (sf(v - i) - sf(v)) / i)
        alphas.append(best)
    return alphas


def dual_alpha_grid_cases():
    """(name, dist, S, n) for seeded binomial tables with n <= 200, S from
    the reference binomial_sf, and seeded pmf tables, S from the table."""
    rng = np.random.default_rng(30)
    for n in [1, 2, 3, 7, 64, 200] + [int(n) for n in rng.integers(1, 201, 4)]:
        q = float(rng.choice([rng.uniform(0.0, 1.0), 0.5, 1e-30, 1.0 - 1e-9,
                              0.0, 1.0]))
        yield (f"binomial({n}, {q})", DominatingDistribution.from_binomial(
            n, q), lambda w, n=n, q=q: binomial_sf(n, q, w), n)
    for size in [1, 2, 5, 40, 150]:
        w = rng.uniform(0.0, 1.0, size) * (rng.uniform(0.0, 1.0, size) < 0.7)
        w[0] += w.sum() == 0
        dist = DominatingDistribution.from_pmf(w / w.sum())
        yield f"pmf({size})", dist, extended(dist.survival_table), size - 1


def test_dual_alpha_equals_brute_force_over_the_grid():
    # every v from -3 to n + 3 and +-1e300, every m from 1 to 2n (at least
    # 1), bit for bit
    for name, dist, sf, n in dual_alpha_grid_cases():
        m_max = max(2 * n, 1)
        for v in [*range(-3, n + 4), -10**300, 10**300]:
            expected = brute_force_alphas(sf, v, m_max)
            got = [dual_alpha(dist, v, m) for m in range(1, m_max + 1)]
            assert got == expected, (name, v)


def dual_alpha_full_scan(dist, v, m):
    """Every candidate i = 1..min(m, max(v, 1)), from the extended table."""
    sf = extended(dist.survival_table)
    i = np.arange(1, min(m, max(v, 1)) + 1)
    tails = np.array([sf(w) for w in v - i])
    return float(max(0.0, np.max((tails - sf(v)) / i)))


# q near 0 or 1 puts survival(v) and its neighbours deep in the tails
tail_q = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1e-300, 1e-30, 1e-9, 0.999999, 1.0 - 1e-12, 1.0]),
    st.floats(-40.0, 40.0).map(lambda x: float(special.expit(x))))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), r=st.integers(0, 2000), q=tail_q,
       m=st.integers(1, 3000))
@example(data=None, r=2000, q=0.5, m=3000)
@example(data=None, r=1500, q=1e-30, m=1)
def test_dual_alpha_early_stop_equals_full_scan(data, r, q, m):
    # the early-stopped scan returns the full scan's maximum, bit for bit,
    # at both ends of v and everywhere between
    dist = DominatingDistribution.from_binomial(r, q)
    vs = {0, r, r + 1}
    if data is not None:
        vs.add(data.draw(st.integers(0, r)))
    for v in vs:
        assert dual_alpha(dist, v, m) == dual_alpha_full_scan(dist, v, m)


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),
       data=st.data())
def test_dual_alpha_early_stop_equals_full_scan_any_pmf(weights, data):
    w = np.asarray(weights)
    if w.sum() == 0:
        w[0] = 1.0
    dist = DominatingDistribution.from_pmf(w / w.sum())
    v = data.draw(st.integers(-2, dist.survival_table.size + 2))
    m = data.draw(st.integers(1, 400))
    assert dual_alpha(dist, v, m) == dual_alpha_full_scan(dist, v, m)


# ---------------------------------------------------------------------------
# p_value_audit


def test_p_value_worked_example():
    assert p_value_audit(100, 100, 75, LN3, 0.0) == pytest.approx(
        0.553, abs=1e-3)
    # pin the full-precision value computed by the pmf-accumulation oracle
    assert p_value_audit(100, 100, 75, LN3, 0.0) == pytest.approx(
        0.5534708238482475, rel=1e-10)


def test_p_value_zero_correct_is_one():
    assert p_value_audit(50, 30, 0, 1.0, 0.0) == 1.0
    assert p_value_audit(5, 5, 0, 0.0, 0.5) == 1.0


def test_p_value_delta_term_two_coins():
    # beta = 0.25, alpha = 0.5, p = 0.25 + 0.5 * 2 * 2 * 0.1
    assert p_value_audit(2, 2, 2, 0.0, 0.1) == pytest.approx(0.45, abs=1e-14)


def test_p_value_delta_zero_collapses_to_binomial_sf():
    for r, v, eps in [(10, 7, 0.5), (100, 75, LN3), (37, 36, 2.0), (5, 0, 1.0)]:
        assert p_value_audit(r, r, v, eps, 0.0) == pytest.approx(
            binomial_sf(r, rr_accuracy(eps), v), abs=1e-15)
    # bit for bit, sign included, the tail at v alone: one incomplete beta,
    # clamped; eps is 0, in (0, 10), >= 37 (the accuracy rounds to 1) or inf
    rng = np.random.default_rng(28)
    for _ in range(3000):
        r = int(rng.integers(1, 3001))
        m, v = int(rng.integers(r, 3 * r + 1)), int(rng.integers(1, r + 1))
        eps = (0.0, rng.uniform(0.0, 10.0), rng.uniform(37.0, 1e3),
               math.inf)[rng.integers(4)]
        p = p_value_audit(m, r, v, eps, 0.0)
        closed = min(1.0, max(0.0, special.betainc(
            v, r - v + 1, rr_accuracy(eps))) + 0.0)
        assert (p, math.copysign(1.0, p)) == (closed,
                                              math.copysign(1.0, closed))


def test_p_value_monotonicity_grid():
    base = p_value_audit(200, 100, 80, 1.0, 1e-4)
    for eps in [1.1, 1.5, 3.0]:
        assert p_value_audit(200, 100, 80, eps, 1e-4) >= base - 1e-15
    for delta in [2e-4, 1e-3, 1e-2]:
        assert p_value_audit(200, 100, 80, 1.0, delta) >= base - 1e-15
    for m in [300, 1000]:
        assert p_value_audit(m, 100, 80, 1.0, 1e-4) >= base - 1e-15
    for v in [81, 90, 100]:
        assert p_value_audit(200, 100, v, 1.0, 1e-4) <= base + 1e-15


@given(m=st.integers(1, 400), data=st.data(),
       eps=st.floats(0.0, 8.0), delta=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_p_value_is_probability(m, data, eps, delta):
    r = data.draw(st.integers(0, m))
    v = data.draw(st.integers(0, r))
    p = p_value_audit(m, r, v, eps, delta)
    assert 0.0 <= p <= 1.0


def reference_p_value(m, r, v, eps, delta):
    """The p-value through the full dominating distribution over 0..r."""
    dist = DominatingDistribution.from_binomial(r, rr_accuracy(eps))
    return _tail_p_value(dist.survival_table, v, m, delta)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), r=st.integers(0, 3000),
       delta=st.sampled_from([0.0, 1e-300, 1e-5, 1.0]),
       eps_list=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4))
@example(data=None, r=3000, delta=1e-5, eps_list=[0.0, 40.0, 1.0])
@example(data=None, r=0, delta=1.0, eps_list=[0.5])
@example(data=(10**5, 73000), r=10**5, delta=0.0,
         eps_list=[0.0, 0.99, 1.0, 40.0])
@example(data=(10**5, 73000), r=10**5, delta=1e-5,
         eps_list=[0.0, 0.99, 1.0, 40.0])
def test_p_value_at_equals_full_table_reference(data, r, delta, eps_list):
    # one set-up evaluated at several eps in turn, so a stale table entry
    # would show.  data None: m = 3r, v at both ends and next to 0; data
    # (m, v): that one point, the paper-scale ones at 1e5 guesses; drawn:
    # m from r to 3r, and v drawn too
    m_lo = max(r, 1)
    if isinstance(data, tuple):
        m, vs = data[0], {data[1]}
    else:
        m = data.draw(st.integers(m_lo, 3 * m_lo)) if data else 3 * m_lo
        vs = {0, min(1, r), r}
        if data is not None:
            vs.add(data.draw(st.integers(0, r)))
    for v in vs:
        p_value_of = _p_value_at(m, r, v, delta)
        for eps in eps_list:
            assert p_value_of(eps) == reference_p_value(m, r, v, eps, delta)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), r=st.integers(0, 600),
       delta=st.sampled_from([0.0, 1e-7, 1e-4, 1e-2]),
       eps=st.floats(0.0, 3.0))
def test_p_values_by_threshold_equal_p_value_audit(data, r, delta, eps):
    # one table over 0..r gives the p-value of every threshold bit for bit
    m = data.draw(st.integers(max(r, 1), 3 * max(r, 1)))
    assert p_values_by_threshold(m, r, eps, delta) == [
        p_value_audit(m, r, v, eps, delta) for v in range(r + 1)]


@pytest.mark.parametrize("m, r, eps, delta, message", [
    (5, 6, 1.0, 0.0, "need r <= m"), (0, 0, 1.0, 0.0, "m must be >= 1"),
    (5, -1, 1.0, 0.0, "r must be >= 0"), (5, 3, 1.0, 1.5, "delta must be in"),
    (5, 3, -1.0, 0.0, "eps must be nonnegative")])
def test_p_values_by_threshold_checks_its_arguments(m, r, eps, delta,
                                                     message):
    with pytest.raises(ValueError, match=re.escape(message)):
        p_values_by_threshold(m, r, eps, delta)


# ---------------------------------------------------------------------------
# eps_lower_bound


def test_eps_lower_bound_worked_examples():
    assert eps_lower_bound(100, 100, 75, 0.0, 0.05) == pytest.approx(
        0.702, abs=1e-3)
    assert eps_lower_bound(100, 100, 75, 1e-4, 0.05) == pytest.approx(
        0.699, abs=1e-3)
    assert eps_lower_bound(1000, 100, 75, 1e-4, 0.05) == pytest.approx(
        0.673, abs=1e-3)


def test_eps_lower_bound_half_correct_is_zero():
    assert eps_lower_bound(100, 100, 50, 0.0, 0.05) == 0.0


def test_eps_lower_bound_bracket_contract():
    # returned point still rejects; one terminal bracket width past it does not
    for m, r, v, delta in [(100, 100, 75, 0.0), (1000, 100, 75, 1e-4),
                           (500, 500, 300, 1e-5)]:
        x = eps_lower_bound(m, r, v, delta, 0.05)
        if x > 0:
            assert p_value_audit(m, r, v, x, delta) < 0.05
        assert p_value_audit(m, r, v, x + 1e-8, delta) >= 0.05


def mp_p_value(mp, m, r, v, eps, delta):
    """The p-value at the working mpmath precision, from mp_survival at the
    float eps: min(1, S(v) + alpha * 2 m delta), with alpha the largest
    (S(v - i) - S(v)) / i over i = 1..m.  Past i = v, S(v - i) = 1 and the
    candidate only falls, so i stops at min(m, max(v, 1))."""
    e = mp.exp(mp.mpf(eps))
    sf = mp_survival(mp, r, e / (1 + e))
    alpha = max([0] + [((sf[v - i] if i < v else 1) - sf[v]) / i
                       for i in range(1, min(m, max(v, 1)) + 1)])
    return min(1, sf[v] + alpha * 2 * m * mp.mpf(delta))


def test_eps_lower_bound_is_valid_against_the_exact_p_value():
    # the certificate p(eps_lb) < beta, with p the 50-digit p-value rather
    # than the float one: seeded counts r <= 2000, m in [r, 3r] and v in
    # [r/2, r] (v = r for half of them) at every (delta, beta) of the grid,
    # plus the worked examples and the Gaussian ideal's point
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(14)
    cases = [(100, 100, 75, 0.0), (100, 100, 75, 1e-4), (1000, 100, 75, 1e-4),
             (10**5, 1510, 1439, 1e-5)]
    for delta in (0.0, 1e-9, 1e-5, 1e-3):
        for top in (False, True):
            r = int(rng.integers(1, 2001))
            m = int(rng.integers(r, 3 * r + 1))
            v = r if top else int(rng.integers((r + 1) // 2, r + 1))
            cases.append((m, r, v, delta))
    rejected = 0
    for (m, r, v, delta), beta in itertools.product(
            cases, (1e-9, 1e-4, 0.05, 0.5, 0.9)):
        eps_lb = eps_lower_bound(m, r, v, delta, beta)
        if eps_lb > 0:  # 0.0 is the floor, not a rejected point
            assert mp_p_value(mp, m, r, v, eps_lb, delta) < beta, \
                (m, r, v, delta, beta, eps_lb)
            rejected += 1
    assert rejected >= 40  # of the 60 bounds; the rest are at the floor


@pytest.mark.parametrize("m,r,delta,beta", [
    (100, 100, 0.0, 0.05), (1000, 100, 1e-3, 0.2), (1000, 300, 1e-4, 0.05),
    (300, 300, 1e-5, 0.5), (50, 20, 1e-5, 1e-4), (2000, 200, 1e-9, 0.9)])
def test_eps_lower_bound_nondecreasing_in_v(m, r, delta, beta):
    # the premise of test_validity_oracles' exact overshoot rate, which
    # bisects over v: every count v = 0..r, not a sample
    bounds = [eps_lower_bound(m, r, v, delta, beta) for v in range(r + 1)]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[0] == 0.0 and bounds[-1] > 0.0


def eps_lower_bound_reference(m, r, v, delta, beta):
    """The grow-by-one and 30-step bisection over the full-table p-value."""
    eps_min, eps_max = 0.0, 1.0
    while reference_p_value(m, r, v, eps_max, delta) < beta:
        eps_max += 1.0
    for _ in range(30):
        eps = (eps_min + eps_max) / 2
        if reference_p_value(m, r, v, eps, delta) < beta:
            eps_min = eps
        else:
            eps_max = eps
    return eps_min


@settings(max_examples=100, deadline=None)
@given(data=st.data(), r=st.integers(0, 1000),
       delta=st.sampled_from([0.0, 1e-300, 1e-5, 1e-2]),
       beta=st.sampled_from([0.01, 0.05, 0.5]))
@example(data=None, r=1000, delta=0.0, beta=0.05)
@example(data=(10**5, 73000), r=10**5, delta=0.0, beta=0.05)
@example(data=(10**5, 73000), r=10**5, delta=1e-5, beta=0.05)
@example(data=(10**5, 15000), r=16384, delta=1e-5, beta=0.05)
def test_eps_lower_bound_equals_full_table_bisection(data, r, delta, beta):
    # the explicit examples give data as None (m = r, v = 0.731 r) or as
    # (m, v); the paper-scale ones reach 1e5 guesses
    m_lo = max(r, 1)
    if data is None or isinstance(data, tuple):
        m, v = data or (m_lo, (731 * r) // 1000)
    else:
        m = data.draw(st.integers(m_lo, 3 * m_lo))
        v = data.draw(st.integers(0, r))
    assert eps_lower_bound(m, r, v, delta, beta) == \
        eps_lower_bound_reference(m, r, v, delta, beta)


def test_eps_lower_bound_work_count(monkeypatch):
    # each p-value evaluation computes the survival at w = 1..v only, and
    # a bound takes the 30 bisection steps plus at most 3 growth steps
    sizes = []
    betainc = estimator.special.betainc

    def counting_betainc(*args, **kwargs):
        out = betainc(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(estimator.special, "betainc", counting_betainc)
    eps_lower_bound(1000, 1000, 731, 0.0, 0.05)
    assert 31 <= len(sizes) <= 33
    assert set(sizes) == {731}


def test_p_value_upper_bounds_primal_lp():
    # The primal of dual_alpha's docstring: an adversary picks a random
    # offset I in {0, ..., m} with E[I] <= 2 m delta to maximize
    # E[S(v - I)].  (beta, alpha) is dual feasible, so beta + alpha 2 m delta
    # is at least the LP optimum; at a budget of at most 1 it is the optimum
    # (all weight on i = 0 and the maximizing i).  Over these 300 cases the
    # largest gap is 6e-13 at budgets of at most 1 (184 cases), and 0.080
    # between the p-value (clamped at 1) and the LP at larger budgets.
    from scipy.optimize import linprog

    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(1, 31))
        r = int(rng.integers(0, m + 1))
        v = int(rng.integers(0, r + 1))
        eps = float(rng.uniform(0.0, 4.0))
        delta = float(rng.choice([1e-5, 1e-3, 0.01, 0.05, 0.2, 1.0]))
        q = rr_accuracy(eps)
        beta = binomial_sf(r, q, v)
        alpha = dual_alpha(DominatingDistribution.from_binomial(r, q), v, m)
        budget = 2.0 * m * delta
        i = np.arange(m + 1)
        gain = np.array([binomial_sf(r, q, v - k) for k in i])
        # gains differ by less than HiGHS's default 1e-7 tolerances
        lp = linprog(-gain, A_ub=[i], b_ub=[budget], A_eq=[np.ones(m + 1)],
                     b_eq=[1.0], bounds=(0, None), method="highs",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
        assert lp.status == 0
        optimum = -lp.fun
        bound = beta + alpha * budget
        assert bound >= optimum - 1e-9
        assert _p_value_at(m, r, v, delta)(eps) >= optimum - 1e-9
        if budget <= 1.0:
            assert bound <= optimum + 1e-9


# bad (m, r, v, delta) -> the message of the rule both entry points check
SHARED_BAD_ARGS = [
    ((10, 20, 5, 0.0), "need v <= r <= m, got v=5, r=20, m=10"),
    ((10, 5, 6, 0.0), "need v <= r <= m, got v=6, r=5, m=10"),
    ((0, 0, 0, 0.0), "m must be >= 1, got 0"),
    ((10, -1, 0, 0.0), "r must be >= 0, got -1"),
    ((10, 5, 2.5, 0.0), "v must be an integer, got 2.5"),
    ((10, 5, 3, 1.5), "delta must be in [0, 1], got 1.5"),
    ((10, 5, 3, math.nan), "delta must be in [0, 1], got nan"),
]


@pytest.mark.parametrize("entry,own_bad,own_message", [
    (lambda m, r, v, delta, eps=1.0: p_value_audit(m, r, v, eps, delta),
     -1.0, "eps must be nonnegative, got -1.0"),
    (lambda m, r, v, delta, beta=0.05: eps_lower_bound(m, r, v, delta, beta),
     1.5, "beta must be in (0, 1), got 1.5"),
], ids=["p_value_audit", "eps_lower_bound"])
def test_entry_points_reject_bad_args_alike(entry, own_bad, own_message):
    # the p-value and the bound that inverts it take the same counts and
    # delta, and reject each bad one with the same message
    for args, message in SHARED_BAD_ARGS:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(own_message)}$"):
        entry(10, 5, 3, 0.0, own_bad)


# ---------------------------------------------------------------------------
# p_value_general_p


def test_general_p_collapses_to_audit_p_value():
    rng = np.random.default_rng(2)
    for _ in range(30):
        k_plus = int(rng.integers(0, 251))
        k_minus = int(rng.integers(0, 251))
        r = k_plus + k_minus
        if r == 0:
            continue
        m = int(rng.integers(r, r + 300))
        v = int(rng.integers(0, r + 1))
        eps = float(rng.uniform(0, 3))
        delta = float(rng.choice([0.0, 1e-5, 1e-3]))
        a = p_value_general_p(m, k_plus, k_minus, v, eps, delta, 0.5)
        b = p_value_audit(m, r, v, eps, delta)
        assert a == pytest.approx(b, abs=1e-12)


def test_general_p_single_positive_guess():
    assert p_value_general_p(1, 1, 0, 1, 0.0, 0.0, 0.5) == \
        pytest.approx(0.5, abs=1e-14)


def test_general_p_uneven_inclusion_product():
    # q_plus = 0.75, q_minus = 0.25 at eps = 0, p = 3/4; both must succeed
    got = p_value_general_p(2, 1, 1, 2, 0.0, 0.0, 0.75)
    assert got == pytest.approx(0.1875, abs=1e-14)


def test_general_p_accuracies():
    # one guess, correct, at delta = 0: the p-value is that guess's accuracy
    e = 1.3
    assert p_value_general_p(1, 1, 0, 1, e, 0.0, 0.75) == pytest.approx(
        0.75 * math.exp(e) / (0.75 * math.exp(e) + 0.25), rel=1e-14)
    assert p_value_general_p(1, 0, 1, 1, e, 0.0, 0.75) == pytest.approx(
        0.25 * math.exp(e) / (0.25 * math.exp(e) + 0.75), rel=1e-14)
    with pytest.raises(ValueError, match="p_incl"):
        p_value_general_p(1, 1, 0, 1, e, 0.0, 1.0)


# ---------------------------------------------------------------------------
# hoeffding_p_value


def test_hoeffding_below_mean_clamps_to_one():
    assert hoeffding_p_value(100, 100.0, 10.0, 10.0, LN3, 0.0) == 1.0


def test_hoeffding_direct_formula():
    got = hoeffding_p_value(100, 100.0, 10.0, 85.0, LN3, 0.0)
    assert got == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_hoeffding_accepts_non_integer_threshold():
    got = hoeffding_p_value(100, 100.0, 10.0, 80.5, LN3, 1e-5)
    assert 0.0 < got < 1.0


def test_hoeffding_dominates_exact_binomial_tail():
    for r in [1, 2, 3, 5, 10, 17, 50, 100, 333, 1000]:
        for eps in [0.0, 0.3, LN3, 3.0]:
            exact = np.array([p_value_audit(r, r, v, eps, 0.0)
                              for v in range(r + 1)])
            loose = np.array([
                hoeffding_p_value(r, float(r), math.sqrt(r), float(v),
                                  eps, 0.0)
                for v in range(r + 1)])
            assert np.all(loose >= exact - 1e-12)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 5000), r1=st.floats(1e-3, 1e4), r2=st.floats(1e-2, 1e3),
       below=st.floats(-2.0, 50.0), eps=st.floats(0.0, 5.0),
       delta=st.floats(1e-12, 1e-2))
@example(m=10**6, r1=100.0, r2=10.0, below=100.0 * float(special.expit(1.0))
         - 60.0, eps=1.0, delta=1e-9)
def test_hoeffding_spill_window_equals_full_scan(m, r1, r2, below, eps, delta):
    # v = q r1 - below < q r1 + 2: the branch that scans integer offsets
    v = float(special.expit(eps)) * r1 - below
    assert hoeffding_p_value(m, r1, r2, v, eps, delta) == \
        hoeffding_p_value_full_scan(m, r1, r2, v, eps, delta)


@pytest.mark.parametrize("r1,r2,v", [
    (10.0, 1e-200, 5.0),  # r2^2 underflows: -2 / r2^2 divided by zero
    (1e300, 3.0, 5.0),    # (v - q r1)^2 overflowed off the taken branch
    (10.0, 3.0, -1e308),
], ids=["r2-squared-underflows", "huge-r1", "huge-negative-v"])
def test_hoeffding_past_float_range_is_one_without_warning(r1, r2, v):
    # each v lies below the mean q r1, where the survival bound is 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hoeffding_p_value(10, r1, r2, v, 1.0, 1e-5) == 1.0


def test_hoeffding_spill_scan_memory_does_not_grow_with_m():
    # a bound on 100 guesses among 10^6 examples reads a few offsets only
    tracemalloc.start()
    try:
        got = hoeffding_p_value(10**6, 100.0, 10.0, 60.0, 1.0, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == hoeffding_p_value_full_scan(10**6, 100.0, 10.0, 60.0,
                                              1.0, 1e-9)


# ---------------------------------------------------------------------------
# adaptive_bound


def test_adaptive_bound_delta_zero():
    thr, p = adaptive_bound(1000, 100, 1.0, 0.0, gamma=0.07, tau=3.0)
    assert p == 0.07


def test_adaptive_bound_quantile_is_83():
    # independent scan of the Binomial(100, 0.75) tail
    sf = stats.binom.sf(np.arange(102) - 1, 100, 0.75)
    expected_g = int(np.argmax(sf <= 0.05))
    assert expected_g == 83
    thr, _ = adaptive_bound(100, 100, LN3, 0.0, gamma=0.05, tau=2.0)
    assert thr == 83 + 2.0


def test_adaptive_bound_failure_probability():
    _, p = adaptive_bound(1000, 200, 1.0, 1e-5, gamma=0.05, tau=5.0)
    assert p == pytest.approx(0.05 + 2 * 1000 * 1e-5 / 5, rel=1e-12)


def test_adaptive_bound_validates():
    with pytest.raises(ValueError):
        adaptive_bound(10, 5, 1.0, 0.0, gamma=1.5, tau=1.0)
    with pytest.raises(ValueError):
        adaptive_bound(10, 5, 1.0, 0.0, gamma=0.5, tau=0.0)


# ---------------------------------------------------------------------------
# generalization_bound and the baseline


def test_generalization_bound_hoeffding_regime():
    # threshold beyond the support: only the concentration term remains
    n, eta = 500, 0.2
    got = generalization_bound(n, 0.1, 0.0, gamma=1.2, eta=eta)
    assert got == pytest.approx(2.0 * math.exp(-n * eta * eta / 2.0), rel=1e-9)


def test_generalization_bound_eta_zero_clamps():
    assert generalization_bound(100, 0.5, 0.0, gamma=0.5, eta=0.0) == 1.0


def test_generalization_bound_rejects_violated_precondition():
    with pytest.raises(ValueError):
        generalization_bound(100, 0.5, 0.0, gamma=0.1, eta=0.2)


def test_generalization_bound_monotone_in_eps_delta():
    base = generalization_bound(400, 0.3, 1e-5, gamma=0.4, eta=0.1)
    assert generalization_bound(400, 0.5, 1e-5,
                                gamma=0.4, eta=0.1) >= base - 1e-15
    assert generalization_bound(400, 0.3, 1e-3,
                                gamma=0.4, eta=0.1) >= base - 1e-15


def test_optimized_generalization_width():
    gamma, eta, fail = optimize_generalization_width(
        2000, 1.0 / 3.0, 1e-5, beta_acc=1e-5, target_failure=0.05)
    assert fail <= 0.05
    assert gamma == pytest.approx(0.3144, abs=2e-3)
    assert gamma >= 1.5 * eta


def test_prior_generalization_bound_values():
    error, failure = prior_generalization_bound(
        0.0, 0.01, math.log(2.0), 0.01, c=1.0, d=1.0)
    assert error == pytest.approx(4.0, rel=1e-14)
    assert failure == pytest.approx(0.02, rel=1e-14)


def test_prior_generalization_bound_is_formula_evaluation():
    error, failure = prior_generalization_bound(
        0.0, 0.01, 0.0, 0.01, c=1e-9, d=1e6)
    assert failure == pytest.approx(0.01 / 1e-9 + 0.01 / 1e6, rel=1e-12)
    assert error == pytest.approx(1e-9 + 2e6, rel=1e-12)


def test_optimized_prior_width():
    width, c, d = optimize_prior_width(
        1.0 / 3.0, 1e-5, beta_acc=1e-5, target_failure=0.05)
    assert width == pytest.approx(0.3968, abs=2e-3)
    assert 1e-5 / c + 1e-5 / d <= 0.05


# ---------------------------------------------------------------------------
# secondary bounds: exact pins and argument checks


def test_secondary_bounds_exact_pins():
    # values of the per-table implementation, compared bit for bit so a
    # moved last bit in the survival fill or the spillover scan shows
    assert p_value_general_p(300, 120, 80, 150, 0.5, 1e-5,
                             0.3) == 0.0001215383893352483
    assert p_value_general_p(100, 40, 30, 55, 1.0, 0.0,
                             0.8) == 0.035511509776240846
    assert adaptive_bound(1000, 200, 1.0, 1e-5, gamma=0.05,
                          tau=5.0) == (162.0, 0.054000000000000006)
    assert adaptive_bound(100, 100, LN3, 0.0, gamma=0.05,
                          tau=2.0) == (85.0, 0.05)
    assert generalization_bound(400, 0.3, 1e-5, gamma=0.4,
                                eta=0.1) == 0.2934595080277333
    assert generalization_bound(2000, 1 / 3, 1e-5, gamma=0.3,
                                eta=0.05) == 0.16804696350984255
    assert optimize_generalization_width(
        2000, 1 / 3, 1e-5, beta_acc=1e-5, target_failure=0.05) == (
        0.31440354715915, 0.06826071834272389, 0.035113424301548055)
    assert optimize_generalization_width(
        500, 1.0, 1e-4, beta_acc=1e-3, target_failure=0.1) == (
        0.7232633896483537, 0.12458833642950082, 0.07154980063707136)
    assert optimize_prior_width(
        1 / 3, 1e-5, beta_acc=1e-5, target_failure=0.05) == (
        0.39679335746785105, 0.00045005576757004977, 0.0003654383070957254)




@pytest.mark.parametrize("call,match", [
    (lambda: adaptive_bound(-100, 10, 1.0, 1e-3, 0.05, 1.0),
     "m must be >= 1, got -100"),
    (lambda: adaptive_bound(10, 11, 1.0, 0.0, 0.05, 1.0),
     "r_observed=11"),
    (lambda: adaptive_bound(10, 5, 1.0, 0.0, 0.05, math.nan),
     "tau"),
    (lambda: hoeffding_p_value(0, 10.0, 3.0, 5.0, 1.0, 1e-5),
     "m must be >= 1"),
    (lambda: mi_bound(-3, 1.0, 0.0, 0.5), "n must be"),
    (lambda: prior_generalization_bound(0.0, 0.01, 0.5, 0.01,
                                        c=math.nan, d=1.0), "c and d"),
    (lambda: generalization_bound(100, 0.5, 0.0,
                                  gamma=math.inf, eta=0.1), "gamma"),
    (lambda: generalization_bound(0, 0.5, 0.0,
                                  gamma=0.5, eta=0.1), "n must be >= 1"),
    (lambda: hoeffding_p_value(10, 10.0, 3.0, math.nan,
                               1.0, 1e-5), "v must be finite"),
    (lambda: hoeffding_p_value(10, math.inf, 3.0, 5.0,
                               1.0, 1e-5),
     "r1 must be positive and finite"),
    (lambda: prior_generalization_bound(0.0, 0.01, 800.0, 0.0,
                                        c=1.0, d=1.0), "eps must keep"),
    (lambda: optimize_prior_width(math.inf, 0.0, 1e-5, 0.05),
     "eps must keep"),
    (lambda: eps_lower_bound(10.5, 4, 2, 0.0, 0.05), "m must be an integer"),
    (lambda: optimize_prior_width(1.0, 1e-5, -1.0, 0.05),
     "beta_acc must be in"),
    (lambda: optimize_prior_width(1.0, 1e-5, 1e-5, math.nan),
     "target_failure must be in"),
    (lambda: optimize_generalization_width(
        500, 1.0, 1e-4, 1e-3, math.nan),
     "target_failure must be in"),
    (lambda: prior_generalization_bound(math.nan, 0.01,
                                        1.0, 1e-5, 0.1, 0.1),
     "alpha_acc must be nonnegative and finite"),
    (lambda: optimize_generalization_width(50, 1.0, 1e-4, 0.9, 0.5),
     r"target_failure 0.5 at n=50, eps=1.0, delta=0.0001, beta_acc=0.9$"),
    (lambda: optimize_prior_width(1.0, 1.0, 1e-5, 0.05),
     r"target_failure 0.05 at beta_acc=1e-05, delta=1.0$"),
], ids=["adaptive-negative-m", "adaptive-r-above-m", "adaptive-nan-tau",
        "hoeffding-zero-m", "mi-negative-n", "prior-nan-c",
        "generalization-inf-gamma", "generalization-zero-n",
        "hoeffding-nan-v", "hoeffding-inf-r1", "prior-overflowing-eps",
        "prior-width-inf-eps", "lower-bound-float-m",
        "prior-width-negative-beta", "prior-width-nan-target",
        "width-nan-target", "prior-nan-alpha", "width-unreachable-target",
        "prior-width-unreachable-target"])
def test_secondary_bounds_reject_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# mi_bound


def test_mi_bound_zero_at_no_privacy_loss():
    assert mi_bound(7, 0.0, 0.0, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_mi_bound_unit_example():
    expected = (math.log(2.0) - math.log(1.0 + math.exp(-1.0))
                - 1.0 / (math.e + 1.0))
    got = mi_bound(1, 1.0, 0.0, 0.5)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.1109, abs=1e-4)
    assert got <= 1.0 / 8.0  # below the quadratic cap eps^2 / 8


def test_mi_bound_quadratic_cap_at_half():
    for eps in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0]:
        for delta in [0.0, 1e-5, 1e-3]:
            for n in [1, 100]:
                cap = (n * delta * math.log(2.0)
                       + n * (1 - delta) * eps * eps / 8.0)
                assert mi_bound(n, eps, delta, 0.5) <= cap + 1e-12


def test_mi_bound_limit_where_exp_eps_overflows():
    # the mixing term tends to p and the loss term to 0: n h(p) remains
    h = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
    for eps in (709.0, 710.0, math.inf):
        got = mi_bound(5, eps, 1e-3, 0.3)
        assert got == pytest.approx(5 * h, rel=1e-12)


def test_mi_bound_floors_cancellation_at_zero():
    # the entropy difference cancels to -1.8e-15 at p = 1e-300
    assert mi_bound(10, 1.0, 1e-5, 1e-300) == 0.0


def test_mi_bound_monotone_and_nonnegative():
    prev = -1.0
    for eps in np.linspace(0.0, 4.0, 17):
        val = mi_bound(10, float(eps), 1e-4, 0.5)
        assert val >= max(prev, 0.0) - 1e-12
        prev = val
    assert mi_bound(10, 1.0, 0.2, 0.5) >= mi_bound(10, 1.0, 0.1, 0.5)
    assert mi_bound(4, 0.7, 1e-3, 0.2) >= 0.0
