"""End-to-end audit pipeline: selection coins, guesses, counting, estimation.

One audit run samples a +-1 selection vector, feeds it to a mechanism
adapter (which returns either real-valued scores or ternary guesses),
turns scores into the guess vector that maximizes agreement subject to the
(k_plus, k_minus) budget, counts correct guesses, and converts the count
into epsilon lower bounds at the requested confidence levels.

Independent runs parallelize with per-run seeds; a single run is
sequential.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence

import numpy as np

from . import mechanisms
from .estimator import (check_counts, check_order, check_reals,
                        eps_lower_bound, p_value_audit)

DEFAULT_EPS_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def _check_selection(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("selection must be a nonempty 1-d array")
    if not np.all(np.abs(s) == 1):
        raise ValueError("selection entries must be -1 or +1")
    return s


def sample_selection(m: int, rng: np.random.Generator) -> np.ndarray:
    """m independent uniform +-1 inclusion coins."""
    check_counts(1, m=m)
    return rng.integers(0, 2, size=m) * 2 - 1


def make_guesses(y: np.ndarray, k_plus: int, k_minus: int) -> np.ndarray:
    """Ternary guesses: +1 on the k_plus largest scores, -1 on the k_minus
    smallest, 0 (abstain) elsewhere.

    Ties are broken deterministically by lower index first, and negative
    guesses are drawn from the indices not already guessed positive.  The
    result maximizes sum(t * y) over vectors with k_plus entries equal to
    +1 and k_minus equal to -1.
    """
    return _guesses(_score_orders(y), k_plus, k_minus)


def _score_orders(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable descending and ascending orders of a finite 1-d score vector."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("scores must be a 1-d array")
    if not np.all(np.isfinite(y)):
        raise ValueError("scores must be finite")
    return np.argsort(-y, kind="stable"), np.argsort(y, kind="stable")


def _guesses(orders: tuple[np.ndarray, np.ndarray], k_plus: int,
             k_minus: int) -> np.ndarray:
    """The guesses of :func:`make_guesses`, built from the score orders."""
    descending, ascending = orders
    m = descending.size
    check_counts(0, k_plus=k_plus, k_minus=k_minus)
    check_order(**{"k_plus + k_minus": k_plus + k_minus}, m=m)
    t = np.zeros(m, dtype=int)
    t[descending[:k_plus]] = 1
    minus = ascending[t[ascending] == 0][:k_minus]
    t[minus] = -1
    return t


def count_correct(s: np.ndarray, t: np.ndarray) -> int:
    """Number of non-abstaining guesses that match the selection."""
    s = _check_selection(s)
    t = np.asarray(t)
    if t.shape != s.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {s.shape}")
    correct = t == s  # s is +-1, so an abstention never matches
    if not np.all(correct | (t == 0) | (t == -s)):
        raise ValueError("guess entries must be -1, 0 or +1")
    return int(np.count_nonzero(correct))


@dataclasses.dataclass(frozen=True)
class MechanismAdapter:
    """Bridge between a mechanism and the audit loop.

    run maps (selection, rng) to either a score vector or a ternary guess
    vector, per output; eps (None or >= 0) and delta (in [0, 1]) declare
    the guarantee the mechanism is supposed to satisfy, for validity tests.
    """

    name: str
    run: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    output: str = "scores"  # "scores" | "guesses"
    eps: float | None = None
    delta: float = 0.0

    def __post_init__(self):
        if self.output not in ("scores", "guesses"):
            raise ValueError(f"unknown adapter output {self.output!r}")
        check_reals("[0, inf]", eps=0.0 if self.eps is None else self.eps)
        check_reals("[0, 1]", delta=self.delta)


def adapter_randomized_response(eps: float) -> MechanismAdapter:
    return MechanismAdapter(
        name="randomized-response",
        run=lambda s, rng: mechanisms.randomized_response(s, eps, rng),
        output="guesses", eps=eps, delta=0.0)


def adapter_gaussian_report(sigma: float,
                            delta: float = 1e-5) -> MechanismAdapter:
    rho = mechanisms.gaussian_rho(sigma)  # checked after sigma
    check_reals("(0, inf)", sigma=sigma, **{f"rho at sigma={sigma}": rho})
    declared = mechanisms.gaussian_dp_eps(rho, delta) if 0 < delta < 1 else None
    return MechanismAdapter(
        name="gaussian-report",
        run=lambda s, rng: mechanisms.gaussian_report(s, sigma, rng),
        output="scores", eps=declared, delta=delta)


def adapter_pathological(cfg: mechanisms.PathologicalConfig) -> MechanismAdapter:
    return MechanismAdapter(
        name="pathological",
        run=lambda s, rng: mechanisms.pathological(s, cfg, rng),
        output="guesses", eps=cfg.eps, delta=cfg.delta)


def run_mechanism(adapter: MechanismAdapter, m: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One seeded run: the selection coins, then the mechanism on them.

    Both draw from one generator seeded with ``seed``, coins first, so
    ``(adapter, m, seed)`` re-creates the selection and the output exactly.
    A failure, or an output that is not finite, is a RuntimeError that
    names the adapter.
    """
    rng = np.random.default_rng(seed)
    s = sample_selection(m, rng)
    try:
        # an overflow shows up in the output, which is checked below
        with np.errstate(over="ignore", invalid="ignore"):
            out = adapter.run(s, rng)
        if not np.all(np.isfinite(out)):
            raise ValueError("non-finite output")
    except Exception as exc:
        raise RuntimeError(
            f"mechanism adapter {adapter.name!r} failed: {exc}") from exc
    return s, out


@dataclasses.dataclass
class AuditReport:
    """Everything needed to reproduce and interpret one audit run."""

    m: int                        # randomized examples
    k_plus: int                   # membership guesses made
    k_minus: int                  # non-membership guesses made
    v: int                        # correct guesses
    eps_lb: dict[float, float]    # confidence -> epsilon lower bound
    p_values: dict[float, float]  # null epsilon -> p-value
    seed: int
    config: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """The fields in order; eps_lb's and p_values' float keys as text."""
        report = dataclasses.asdict(self)
        for name in ("eps_lb", "p_values"):
            report[name] = {str(k): v for k, v in report[name].items()}
        return report


def audit_run(adapter: MechanismAdapter, m: int, k_plus: int, k_minus: int,
              delta: float, confidences: Sequence[float], seed: int
              ) -> AuditReport:
    """Run one audit: selection -> mechanism -> guesses -> count -> estimates.

    For score-output adapters the guess budget is (k_plus, k_minus); for
    guess-output adapters the mechanism's own ternary output is used and
    the budget arguments are ignored.  The report echoes the seed and
    configuration, so an identical call reproduces it exactly.
    """
    for conf in confidences:
        check_reals("confidence", confidence=conf)
    s, out = run_mechanism(adapter, m, seed)
    if adapter.output == "guesses":
        t = np.asarray(out)
        if t.shape != s.shape or not np.all(np.isin(t, (-1, 0, 1))):
            raise RuntimeError(
                f"adapter {adapter.name!r} returned an invalid guess vector")
    else:
        t = make_guesses(out, k_plus, k_minus)
    v = count_correct(s, t)
    guessed_plus = int(np.count_nonzero(t == 1))
    guessed_minus = int(np.count_nonzero(t == -1))
    r = guessed_plus + guessed_minus
    eps_lb = {
        float(conf): eps_lower_bound(m, r, v, delta, 1.0 - conf)
        for conf in confidences
    }
    p_values = {
        float(e): p_value_audit(m, r, v, e, delta)
        for e in DEFAULT_EPS_GRID
    }
    config = {
        "mechanism": adapter.name,
        "declared_eps": adapter.eps,
        "declared_delta": adapter.delta,
        "m": m,
        "k_plus": k_plus,
        "k_minus": k_minus,
        "delta": delta,
        "confidences": [float(c) for c in confidences],
    }
    return AuditReport(m=m, k_plus=guessed_plus, k_minus=guessed_minus, v=v,
                       eps_lb=eps_lb, p_values=p_values, seed=seed,
                       config=config)


@dataclasses.dataclass(frozen=True)
class CanaryPairSet:
    """m pairs of examples; exactly one member of each pair is included.

    pairs[i] = (chosen when s_i = +1, chosen when s_i = -1), m >= 1.  Each
    member is a hashable reference to an example (an index, id, string or
    tuple), and all 2m members are distinct.
    """

    pairs: tuple[tuple[Any, Any], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("need at least one pair, got 0")
        if any(len(pair) != 2 for pair in self.pairs):
            raise ValueError("each pair must have exactly two members")
        flat = [x for pair in self.pairs for x in pair]
        try:
            distinct = len(set(flat)) == len(flat)
        except TypeError:
            raise ValueError("pair members must be hashable: an index, id, "
                             "string or tuple") from None
        if not distinct:
            raise ValueError("pair members must be 2m distinct examples")

    def __len__(self) -> int:
        return len(self.pairs)


def replacement_selection(pairs: CanaryPairSet,
                          rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """Fixed-size variant of the selection step.

    Samples the +-1 coins and picks one member per pair, so the resulting
    dataset always has exactly m examples; flipping a coin replaces one
    example rather than adding or removing it.
    """
    s = sample_selection(len(pairs), rng)
    chosen = [pair[0] if si == 1 else pair[1]
              for pair, si in zip(pairs.pairs, s)]
    return s, chosen


@dataclasses.dataclass(frozen=True)
class KSweepRow:
    k_plus: int
    k_minus: int
    v: int
    eps_lb: float


def k_sweep(y: np.ndarray, s: np.ndarray,
            grid: Sequence[tuple[int, int]], delta: float,
            confidence: float) -> list[KSweepRow]:
    """Evaluate the epsilon lower bound across a grid of guess budgets,
    one row per budget, in grid order.

    Each row's guesses are those of :func:`make_guesses`; the scores are
    sorted once for the whole grid.  Selecting the best of several budgets
    on the same scores is multiple hypothesis testing, so the largest
    row's bound is optimistic at the nominal confidence.
    """
    s = _check_selection(s)
    check_reals("confidence", confidence=confidence)
    if len(grid) == 0:
        raise ValueError("grid must hold at least one (k_plus, k_minus) budget")
    m = s.size
    orders = _score_orders(y)
    rows = []
    for k_plus, k_minus in grid:
        t = _guesses(orders, k_plus, k_minus)
        v = count_correct(s, t)
        lb = eps_lower_bound(m, k_plus + k_minus, v, delta, 1.0 - confidence)
        rows.append(KSweepRow(k_plus=k_plus, k_minus=k_minus, v=v, eps_lb=lb))
    return rows
