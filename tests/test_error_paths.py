"""Each argument check raises its exception type, naming what is at fault.

One row per check: the call, the exception it raises, and a pattern its
message must match, which names the argument, config key or config line
at fault.
"""

import numpy as np
import pytest

from dpaudit import cli
from dpaudit.dpsgd import (LossModel, TrainerConfig, dpsgd_train,
                           mislabeled_canaries)
from dpaudit.estimator import DominatingDistribution, adaptive_bound
from dpaudit.mechanisms import PathologicalConfig, pathological
from dpaudit.pipeline import (CanaryPairSet, MechanismAdapter, audit_run,
                              count_correct, make_guesses)

CFG = TrainerConfig(ell=1, clip=1.0, noise_multiplier=1.0, sample_prob=1.0,
                    learning_rate=0.1, dim=5)
CANARY_ONLY = LossModel.canary_only(5)
NO_CANARIES = np.zeros(0, dtype=int)
ARRAY = np.arange(3)


def rng():
    return np.random.default_rng(0)


def rows(kind: str, n: int, d: int) -> LossModel:
    return LossModel(kind, np.ones((n, d)), np.ones(n))


def config_file(tmp_path, text: str) -> str:
    path = tmp_path / "audit.cfg"
    path.write_text(text)
    return str(path)


def liar(s, rng):
    """A guess-output mechanism whose guesses are not in {-1, 0, +1}."""
    return 2 * s


# name -> (call taking tmp_path, exception type, pattern of its message)
CASES = {
    "config-line-without-equals": (
        lambda tmp: cli.parse_dpsgd_config(
            config_file(tmp, "mode = whitebox\nseed 3\n")),
        ValueError, r"audit\.cfg:2: expected 'key = value', got 'seed 3'$"),
    "loss-kind-unknown": (
        lambda tmp: LossModel("hinge", np.ones((2, 3)), np.ones(2)),
        ValueError, "^unknown loss kind 'hinge'$"),
    "loss-labels-length": (
        lambda tmp: LossModel("logistic", np.ones((3, 4)), np.ones(5)),
        ValueError, r"labels \(n,\), got \(3, 4\) and \(5,\)$"),
    "loss-features-1d": (
        lambda tmp: LossModel("linear", np.ones(3), np.ones(3)),
        ValueError, r"^need features \(n, d\) and labels \(n,\), got \(3,\)"),
    "synthetic-canary-only": (
        lambda tmp: LossModel.synthetic("canary-only", 2, 3, rng()),
        ValueError, "kind 'canary-only'$"),
    "losses-canary-only": (
        lambda tmp: CANARY_ONLY.example_losses(np.zeros(5)),
        ValueError, "^canary-only mode has no evaluable loss$"),
    "coefs-canary-only": (
        lambda tmp: CANARY_ONLY.example_coefs(np.zeros(5)),
        ValueError, "^canary-only mode has no data gradients$"),
    "mislabeled-without-teacher": (
        lambda tmp: mislabeled_canaries(rows("logistic", 2, 5), 3, rng()),
        ValueError, "^model has no teacher"),
    "train-data-width": (
        lambda tmp: dpsgd_train(rows("logistic", 2, 7), NO_CANARIES,
                                NO_CANARIES, CFG, rng()),
        ValueError, r"^data dimension 7 != cfg\.dim 5$"),
    "train-canary-width": (
        lambda tmp: dpsgd_train(rows("logistic", 2, 5), rows("logistic", 3, 7),
                                np.ones(3), CFG, rng()),
        ValueError, r"^canary dimension 7 != cfg\.dim 5$"),
    "train-canary-kind": (
        lambda tmp: dpsgd_train(rows("logistic", 2, 5), rows("linear", 3, 5),
                                np.ones(3), CFG, rng()),
        ValueError, "^canary loss kind 'linear' != data loss kind 'logistic'$"),
    "train-dirac-index": (
        lambda tmp: dpsgd_train(CANARY_ONLY, np.array([0, 5]), np.ones(2),
                                CFG, rng()),
        ValueError, r"^canary index out of range for cfg\.dim 5$"),
    "train-selection-length": (
        lambda tmp: dpsgd_train(CANARY_ONLY, np.array([0, 1]), np.ones(3),
                                CFG, rng()),
        ValueError, r"^selection length \(3,\) != 2 canaries$"),
    "survival-table-empty": (
        lambda tmp: DominatingDistribution([]),
        ValueError, "^survival table must be a nonempty 1-d array$"),
    "survival-table-2d": (
        lambda tmp: DominatingDistribution([[1.0]]),
        ValueError, "^survival table must be a nonempty 1-d array$"),
    "survival-values": (
        lambda tmp: DominatingDistribution([1.0, -0.5]),
        ValueError, r"^survival values must lie in \[0, 1\]$"),
    "survival-at-zero": (
        lambda tmp: DominatingDistribution([0.5, 0.25]),
        ValueError, "^survival at 0 must be 1"),
    "adaptive-zero-m": (
        lambda tmp: adaptive_bound(0, 0, 1.0, 1e-5, 0.05, 1.0),
        ValueError, "^m must be >= 1, got 0$"),
    "pmf-empty": (
        lambda tmp: DominatingDistribution.from_pmf([]),
        ValueError, "^pmf must be a nonempty 1-d array$"),
    "pmf-2d": (
        lambda tmp: DominatingDistribution.from_pmf([[1.0]]),
        ValueError, "^pmf must be a nonempty 1-d array$"),
    "pmf-negative": (
        lambda tmp: DominatingDistribution.from_pmf([1.5, -0.5]),
        ValueError, "^pmf entries must be nonnegative$"),
    "pairs-none": (
        lambda tmp: CanaryPairSet(pairs=()),
        ValueError, "^need at least one pair, got 0$"),
    "pair-of-one": (
        lambda tmp: CanaryPairSet(pairs=((0,),)),
        ValueError, "^each pair must have exactly two members$"),
    "pair-of-three": (
        lambda tmp: CanaryPairSet(pairs=((0, 1, 2),)),
        ValueError, "^each pair must have exactly two members$"),
    "pair-members-unhashable": (
        lambda tmp: CanaryPairSet(pairs=(([0], [1]), ([2], [3]))),
        ValueError, "^pair members must be hashable: an index, id, string"),
    "pair-members-repeated-lists": (
        lambda tmp: CanaryPairSet(pairs=(([0], [0]), ([0], [0]))),
        ValueError, "^pair members must be hashable"),
    "pair-members-one-array-twice": (
        lambda tmp: CanaryPairSet(pairs=((ARRAY, ARRAY),)),
        ValueError, "^pair members must be hashable"),
    "pathological-selection-length": (
        lambda tmp: pathological(np.ones(3), PathologicalConfig(
            m=4, r=2, eps=1.0, delta=0.0, beta=0.05), rng()),
        ValueError, "^selection length 3 != m = 4$"),
    "selection-empty": (
        lambda tmp: count_correct(np.array([]), np.array([])),
        ValueError, "^selection must be a nonempty 1-d array$"),
    "selection-2d": (
        lambda tmp: count_correct(np.ones((2, 2)), np.zeros((2, 2))),
        ValueError, "^selection must be a nonempty 1-d array$"),
    "scores-2d": (
        lambda tmp: make_guesses(np.ones((2, 2)), 1, 1),
        ValueError, "^scores must be a 1-d array$"),
    "adapter-output": (
        lambda tmp: MechanismAdapter("votes", run=liar, output="votes"),
        ValueError, "^unknown adapter output 'votes'$"),
    "audit-run-guess-vector": (
        lambda tmp: audit_run(MechanismAdapter("liar", run=liar,
                                               output="guesses"),
                              4, 0, 0, 0.0, [0.95], seed=0),
        RuntimeError, "^adapter 'liar' returned an invalid guess vector$"),
}


@pytest.mark.parametrize("name", CASES)
def test_check_raises_naming_what_is_at_fault(name, tmp_path):
    call, error, pattern = CASES[name]
    with pytest.raises(error, match=pattern):
        call(tmp_path)
