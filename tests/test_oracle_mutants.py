"""The exact oracles reject known estimator mutants on every run.

Each mutant replaces one attribute of ``dpaudit.estimator`` for one test,
through monkeypatch, with the source unchanged: a bisection against 2 beta,
the spillover coefficient alpha halved, a survival table one entry short,
a spillover scan that starts at i = 2, and a scan that stops one slice too
soon.  At least one of the exact oracles (the coverage oracle, the
worst-case tail oracle, the primal LP and the 50-digit oracle) must fail
on each, by an assertion.  In the same way, an unstable score sort in
``dpaudit.pipeline`` must fail the tie-order test of test_pipeline, and a
trainer in ``dpaudit.dpsgd`` that draws each step's canary coins before its
data coins must fail the per-row clipping reference of test_dpsgd.
"""

import numpy as np
import pytest

import test_dpsgd
import test_estimator
import test_pipeline
import test_validity_oracles
from dpaudit import dpsgd, estimator, pipeline

EPS_LOWER_BOUND = estimator.eps_lower_bound
SPILL_MAX = estimator._spill_max
SURVIVAL_FILL = estimator._survival_fill
DPSGD_TRAIN = dpsgd.dpsgd_train


def bisection_against_twice_beta(m, r, v, delta, beta):
    return EPS_LOWER_BOUND(m, r, v, delta, 2.0 * beta)


def alpha_halved(table, v, m, beta):
    return SPILL_MAX(table, v, m, beta) / 2.0


def table_one_entry_short(n, w_max):
    """The fill without its last entry S(w_max), w_max >= 1, which reads
    as the 0 of the table's extension; S(0) = 1 stays."""
    fill = SURVIVAL_FILL(n, w_max)

    def short(q):
        table = fill(q)
        if w_max:
            table[w_max] = 0.0
        return table

    return short


def spill_max_copy(table, v, m, beta, first=1, stop_early=False):
    """estimator._spill_max step for step, but scanning from i = first and,
    with stop_early, returning the maximum before the last slice it read."""
    i, last, width = max(first, v - table.size + 1), min(m, max(v, 1)), 64
    best = before = 0.0
    while i <= last and (1.0 - beta) / i > best:
        j = min(last, i + width - 1)
        tails = table[v - j:v - i + 1][::-1]
        before, best = best, max(best, float(
            ((tails - beta) / np.arange(i, j + 1)).max()))
        i, width = j + 1, 2 * width
    return before if stop_early else best


def scan_from_two(table, v, m, beta):
    return spill_max_copy(table, v, m, beta, first=2)


def stop_one_slice_early(table, v, m, beta):
    return spill_max_copy(table, v, m, beta, stop_early=True)


ORACLES = {
    "coverage": test_validity_oracles.test_coverage_at_criterion_four_setup,
    "worst-case tail":
        test_validity_oracles.test_p_value_bounds_worst_case_tail,
    "primal LP": test_estimator.test_p_value_upper_bounds_primal_lp,
    "50-digit":
        test_estimator.test_binomial_sf_and_p_value_match_50_digit_oracle,
}
# mutant -> (estimator attribute, replacement, the oracles to run, in order;
# with a table one entry short the p-value at delta = 0 is 0 for every eps,
# so the coverage oracle's bound search would never end)
MUTANTS = {
    "bisection against 2 beta": ("eps_lower_bound",
                                 bisection_against_twice_beta, ORACLES),
    "alpha halved": ("_spill_max", alpha_halved, ORACLES),
    "table one entry short": ("_survival_fill", table_one_entry_short,
                              ["worst-case tail", "primal LP", "50-digit"]),
    "scan from i = 2": ("_spill_max", scan_from_two, ORACLES),
    "stop one slice early": ("_spill_max", stop_one_slice_early, ORACLES),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_an_oracle_rejects_the_mutant(mutant, rebind):
    name, replacement, oracles = MUTANTS[mutant]
    rebind(estimator, name, replacement)
    for oracle in oracles:
        try:
            ORACLES[oracle]()
        except AssertionError:
            return
    pytest.fail(f"no oracle of {list(oracles)} rejects {mutant!r}")


def quicksort_orders(y):
    """pipeline._score_orders with numpy's default sort, which is unstable."""
    y = np.asarray(y, dtype=float)
    return np.argsort(-y, kind="quicksort"), np.argsort(y, kind="quicksort")


def test_the_tie_order_test_rejects_an_unstable_sort(rebind):
    # the guesses and the sweep share the orders, so only an independent
    # tie order can tell
    rebind(pipeline, "_score_orders", quicksort_orders)
    with pytest.raises(AssertionError):
        test_pipeline.test_guesses_break_score_ties_by_index()


class CanaryCoinsFirst:
    """A generator for a trainer with data rows and example canaries that
    draws each step's canary coins (size n_canaries) before its data coins:
    the data block's request draws the canaries' coins first and keeps them
    for the canary block's request, which comes next."""

    def __init__(self, rng, n_canaries):
        self.rng, self.n_canaries, self.kept = rng, n_canaries, None

    def random(self, size=None, out=None):
        if self.kept is None:
            self.kept = self.rng.random(self.n_canaries)
            return self.rng.random(size, out=out)
        coins, self.kept = self.kept, None
        if out is None:
            return coins
        out[...] = coins
        return out

    def __getattr__(self, name):  # the noise draws pass through
        return getattr(self.rng, name)


def canary_coins_first(data, canaries, cfg, rng):
    return DPSGD_TRAIN(data, canaries, cfg,
                       CanaryCoinsFirst(rng, canaries.n_examples))


@pytest.mark.parametrize("kind", ["logistic", "linear"])
def test_the_clipping_reference_rejects_swapped_coin_order(kind, rebind):
    # coins are drawn only under sampling, so only sample_prob < 1 can tell
    rebind(dpsgd, "dpsgd_train", canary_coins_first)
    with pytest.raises(AssertionError):
        test_dpsgd.test_trainer_matches_per_row_clipping_reference(kind, 0.5)


def test_spill_max_copy_equals_the_product():
    # the copy the scan mutants change is the product's scan, bit for bit
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = int(rng.integers(0, 3000))
        v = int(rng.integers(0, r + 1))
        m = int(rng.integers(max(r, 1), 3 * max(r, 1) + 1))
        table = SURVIVAL_FILL(r, v)(float(rng.uniform(0.05, 0.95)))
        beta = float(table[v])
        assert spill_max_copy(table, v, m, beta) == SPILL_MAX(table, v, m,
                                                              beta)
