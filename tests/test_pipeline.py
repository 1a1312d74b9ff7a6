"""Audit pipeline: selection, guessing, counting, end-to-end runs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpaudit.estimator import eps_lower_bound
from dpaudit.mechanisms import PathologicalConfig
from dpaudit.pipeline import (
    AuditReport,
    CanaryPairSet,
    MechanismAdapter,
    adapter_gaussian_report,
    adapter_pathological,
    adapter_randomized_response,
    audit_run,
    count_correct,
    k_sweep,
    make_guesses,
    replacement_selection,
    sample_selection,
)


# ---------------------------------------------------------------------------
# selection


def test_sample_selection_is_balanced():
    rng = np.random.default_rng(0)
    s = sample_selection(100_000, rng)
    assert set(np.unique(s)) <= {-1, 1}
    assert abs(s.mean()) < 0.01


def test_sample_selection_single_coin():
    s = sample_selection(1, np.random.default_rng(1))
    assert s.shape == (1,) and s[0] in (-1, 1)


def test_sample_selection_seed_reproducible():
    a = sample_selection(1000, np.random.default_rng(42))
    b = sample_selection(1000, np.random.default_rng(42))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# guesses


def test_make_guesses_all_abstain():
    assert np.array_equal(make_guesses(np.array([3.0, 1.0, 2.0]), 0, 0),
                          [0, 0, 0])


def test_make_guesses_sorting():
    t = make_guesses(np.array([3.0, 1.0, 2.0]), 1, 1)
    assert np.array_equal(t, [1, -1, 0])


def test_make_guesses_tie_break_by_index():
    t = make_guesses(np.zeros(4), 2, 1)
    assert np.array_equal(t, [1, 1, -1, 0])


def test_make_guesses_budget_invariants():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        k_plus = int(rng.integers(0, m + 1))
        k_minus = int(rng.integers(0, m - k_plus + 1))
        y = rng.normal(size=m)
        t = make_guesses(y, k_plus, k_minus)
        assert np.abs(t).sum() == k_plus + k_minus
        assert t.sum() == k_plus - k_minus


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_make_guesses_maximizes_agreement(data):
    m = data.draw(st.integers(1, 8))
    # a small value pool forces frequent ties
    y = np.array(data.draw(st.lists(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
        min_size=m, max_size=m)))
    k_plus = data.draw(st.integers(0, m))
    k_minus = data.draw(st.integers(0, m - k_plus))
    t = make_guesses(y, k_plus, k_minus)
    best = -math.inf
    for assignment in itertools.permutations(range(m), k_plus + k_minus):
        cand = np.zeros(m)
        cand[list(assignment[:k_plus])] = 1
        cand[list(assignment[k_plus:])] = -1
        best = max(best, float(cand @ y))
    assert float(t @ y) == pytest.approx(best, abs=1e-9)


def test_make_guesses_validates():
    with pytest.raises(ValueError):
        make_guesses(np.array([1.0, 2.0]), 2, 1)
    with pytest.raises(ValueError):
        make_guesses(np.array([1.0, np.inf]), 1, 0)


# ---------------------------------------------------------------------------
# counting


def test_count_correct_all_abstain():
    assert count_correct(np.array([1, -1, 1]), np.zeros(3, dtype=int)) == 0


def test_count_correct_perfect():
    s = np.array([1, -1, 1, -1])
    assert count_correct(s, s) == 4


def test_count_correct_mixed():
    assert count_correct(np.array([1, -1, 1]), np.array([1, 1, 0])) == 1


def test_count_correct_validates():
    with pytest.raises(ValueError):
        count_correct(np.array([1, -1]), np.array([1, 0, -1]))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        count_correct(np.array([1, 0, -1]), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="^guess entries must be -1, 0 or"):
        count_correct(np.array([1, -1, 1]), np.array([2, 7, 1]))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_permutation_equivariance(data):
    m = data.draw(st.integers(2, 40))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    s = sample_selection(m, rng)
    y = rng.normal(size=m)
    k_plus = data.draw(st.integers(0, m // 2))
    k_minus = data.draw(st.integers(0, m - k_plus))
    perm = rng.permutation(m)
    w = count_correct(s, make_guesses(y, k_plus, k_minus))
    w_perm = count_correct(s[perm], make_guesses(y[perm], k_plus, k_minus))
    assert w == w_perm


# ---------------------------------------------------------------------------
# audit_run


def test_audit_run_constant_scores_estimate_zero():
    adapter = MechanismAdapter(
        name="constant", run=lambda s, rng: np.zeros(s.size), output="scores")
    report = audit_run(adapter, 400, 100, 100, 0.0, [0.95], seed=0)
    assert report.eps_lb[0.95] == 0.0


def test_audit_run_rr_hits_expected_accuracy():
    counts = []
    for seed in range(40):
        report = audit_run(adapter_randomized_response(math.log(3.0)),
                           100, 0, 0, 0.0, [0.95], seed=seed)
        assert report.k_plus + report.k_minus == 100
        counts.append(report.v)
    # E[v] = 75, sd of the 40-run mean is sqrt(100 * .75 * .25 / 40) ~ 0.68
    assert np.mean(counts) == pytest.approx(75.0, abs=3.0)


def test_audit_run_gaussian_concentrates_near_expected():
    report = audit_run(adapter_gaussian_report(2.0), 100_000, 755, 755,
                       1e-5, [0.95], seed=11)
    # expected 1438.06 correct of 1510; 4 sigma is ~34
    assert abs(report.v - 1439) < 35


def test_audit_run_reproducible():
    a = audit_run(adapter_randomized_response(1.0), 500, 0, 0, 0.0,
                  [0.9, 0.95], seed=7)
    b = audit_run(adapter_randomized_response(1.0), 500, 0, 0, 0.0,
                  [0.9, 0.95], seed=7)
    assert a == b


def test_audit_run_eps_lb_nonincreasing_in_confidence():
    report = audit_run(adapter_randomized_response(2.0), 300, 0, 0, 0.0,
                       [0.8, 0.9, 0.95, 0.99], seed=5)
    lbs = [report.eps_lb[c] for c in (0.8, 0.9, 0.95, 0.99)]
    assert all(a >= b - 1e-12 for a, b in zip(lbs, lbs[1:]))


def test_audit_run_adapter_failure_has_context():
    def boom(s, rng):
        raise FloatingPointError("scores diverged")

    adapter = MechanismAdapter(name="broken", run=boom, output="scores")
    with pytest.raises(RuntimeError, match="broken"):
        audit_run(adapter, 10, 1, 1, 0.0, [0.95], seed=0)


def test_audit_run_report_round_trips_to_dict():
    report = audit_run(adapter_pathological(
        PathologicalConfig(m=200, r=50, eps=1.0, delta=1e-4, beta=0.1)),
        200, 0, 0, 1e-4, [0.95], seed=3)
    payload = report.to_dict()
    assert payload["m"] == 200
    assert payload["v"] == report.v
    assert str(0.95) in payload["eps_lb"]


# ---------------------------------------------------------------------------
# replacement sampling


def test_replacement_all_plus_takes_first_members():
    pairs = CanaryPairSet(pairs=((2, 1), (4, 3), (6, 5)))
    rng = np.random.default_rng(100)  # first three coins: any
    s, chosen = replacement_selection(pairs, rng)
    for si, pick, pair in zip(s, chosen, pairs.pairs):
        assert pick == (pair[0] if si == 1 else pair[1])
    assert len(chosen) == 3


def test_replacement_rule_on_fixed_coins():
    # pairing (1,2),(3,4),(5,6): +1 keeps the even member, -1 the odd one
    pairs = CanaryPairSet(pairs=((2, 1), (4, 3), (6, 5)))

    class FixedRng:
        def integers(self, lo, hi, size):
            return np.array([1, 0, 1])  # maps to s = (+1, -1, +1)

    s, chosen = replacement_selection(pairs, FixedRng())
    assert np.array_equal(s, [1, -1, 1])
    assert chosen == [2, 3, 6]


def test_replacement_size_always_m():
    pairs = CanaryPairSet(pairs=tuple((2 * i, 2 * i - 1)
                                      for i in range(1, 26)))
    for seed in range(5):
        _, chosen = replacement_selection(pairs, np.random.default_rng(seed))
        assert len(chosen) == 25


def test_canary_pairs_must_be_distinct():
    with pytest.raises(ValueError):
        CanaryPairSet(pairs=((1, 2), (2, 3)))


# ---------------------------------------------------------------------------
# k_sweep


def test_k_sweep_single_point_matches_audit_run():
    rng = np.random.default_rng(12)
    m = 2000
    s = sample_selection(m, rng)
    y = s + rng.normal(0.0, 2.0, m)
    [row] = k_sweep(y, s, [(100, 100)], delta=1e-5, confidence=0.95)
    t = make_guesses(y, 100, 100)
    v = count_correct(s, t)
    assert row.v == v
    assert row.eps_lb == eps_lower_bound(m, 200, v, 1e-5, 0.05)


def test_k_sweep_includes_zero_budget():
    rng = np.random.default_rng(13)
    m = 500
    s = sample_selection(m, rng)
    y = s + rng.normal(0.0, 2.0, m)
    rows = k_sweep(y, s, [(0, 0), (50, 50)], delta=0.0, confidence=0.95)
    assert rows[0].eps_lb == 0.0
    assert rows[1].eps_lb >= rows[0].eps_lb


def test_end_to_end_validity_small():
    # eps_lb at 95% exceeds the true eps in well under 5% + slack of runs
    eps_true = 0.5
    adapter = adapter_randomized_response(eps_true)
    overshoots = 0
    runs = 200
    for seed in range(runs):
        report = audit_run(adapter, 200, 0, 0, 0.0, [0.95], seed=seed)
        overshoots += report.eps_lb[0.95] > eps_true
    assert overshoots / runs <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / runs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 40))
def test_k_sweep_rows_equal_per_row_guesses(data, m):
    # scores from a handful of values, so ties are common
    y = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=m,
                                    max_size=m)), dtype=float)
    s = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=m,
                                    max_size=m)))
    budget = st.integers(0, m).flatmap(
        lambda r: st.tuples(st.integers(0, r), st.just(r)))
    grid = [(kp, r - kp) for kp, r in data.draw(
        st.lists(budget, min_size=1, max_size=6))]
    rows = k_sweep(y, s, grid, delta=1e-5, confidence=0.9)
    for (k_plus, k_minus), row in zip(grid, rows, strict=True):
        v = count_correct(s, make_guesses(y, k_plus, k_minus))
        assert (row.k_plus, row.k_minus, row.v) == (k_plus, k_minus, v)
        assert row.eps_lb == eps_lower_bound(m, k_plus + k_minus, v, 1e-5, 0.1)


def test_guesses_break_score_ties_by_index():
    # scores from five values, so the budgets cut through ties: +1 on the
    # first k_plus of the (-y, index) order, -1 on the first k_minus of the
    # (y, index) order among the rest, in make_guesses and in k_sweep's rows
    rng = np.random.default_rng(7)
    m = 1000
    y = rng.integers(-2, 3, size=m).astype(float)
    s = rng.choice([-1, 1], size=m)
    down = sorted(range(m), key=lambda i: (-y[i], i))
    up = sorted(range(m), key=lambda i: (y[i], i))
    grid = [(k_plus, k_minus) for k_plus in (0, 1, 150, 333, 500)
            for k_minus in (0, 1, 250, 499)]
    rows = k_sweep(y, s, grid, delta=0.0, confidence=0.95)
    for (k_plus, k_minus), row in zip(grid, rows, strict=True):
        expected = np.zeros(m, dtype=int)
        expected[down[:k_plus]] = 1
        expected[[i for i in up if expected[i] == 0][:k_minus]] = -1
        assert np.array_equal(make_guesses(y, k_plus, k_minus), expected)
        assert row.v == count_correct(s, expected)


def test_k_sweep_rejects_empty_grid():
    s = np.array([1, -1, 1])
    with pytest.raises(ValueError, match="grid"):
        k_sweep(np.zeros(3), s, [], delta=0.0, confidence=0.95)
