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
from .estimator import (GuessSummary, PrivacyParams, eps_lower_bound,
                        p_value_audit, rr_accuracy)

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
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return rng.integers(0, 2, size=m) * 2 - 1


def partition(n: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split dataset indices 0..n-1 into included and excluded sets.

    Index i < len(s) is included iff s[i] == +1; indices beyond the
    randomized prefix are always included.
    """
    s = _check_selection(s)
    m = s.size
    if m > n:
        raise ValueError(f"selection length {m} exceeds dataset size {n}")
    in_idx = np.concatenate([np.flatnonzero(s == 1), np.arange(m, n)])
    out_idx = np.flatnonzero(s == -1)
    return in_idx, out_idx


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
    if k_plus < 0 or k_minus < 0 or k_plus + k_minus > m:
        raise ValueError(
            f"need 0 <= k_plus + k_minus <= {m}, got {k_plus} + {k_minus}")
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
    return int(np.count_nonzero((t != 0) & (t == s)))


@dataclasses.dataclass(frozen=True)
class MechanismAdapter:
    """Bridge between a mechanism and the audit loop.

    run maps (selection, rng) to either a score vector or a ternary guess
    vector, per output; eps/delta declare the guarantee the mechanism is
    supposed to satisfy, used by validity tests.
    """

    name: str
    run: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    output: str = "scores"  # "scores" | "guesses"
    eps: float | None = None
    delta: float = 0.0

    def __post_init__(self):
        if self.output not in ("scores", "guesses"):
            raise ValueError(f"unknown adapter output {self.output!r}")


def adapter_randomized_response(eps: float) -> MechanismAdapter:
    rr_accuracy(eps)  # rejects a negative or nan eps up front
    return MechanismAdapter(
        name="randomized-response",
        run=lambda s, rng: mechanisms.randomized_response(s, eps, rng),
        output="guesses", eps=eps, delta=0.0)


def adapter_gaussian_report(cfg: mechanisms.GaussianReportConfig,
                            delta: float = 1e-5) -> MechanismAdapter:
    declared = mechanisms.gaussian_dp_eps(cfg.rho, delta) if 0 < delta < 1 else None
    return MechanismAdapter(
        name="gaussian-report",
        run=lambda s, rng: mechanisms.gaussian_report(s, cfg, rng),
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

    summary: GuessSummary
    eps_lb: dict[float, float]    # confidence -> epsilon lower bound
    p_values: dict[float, float]  # null epsilon -> p-value
    seed: int
    config: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "m": self.summary.m,
            "k_plus": self.summary.k_plus,
            "k_minus": self.summary.k_minus,
            "v": self.summary.v,
            "eps_lb": {str(k): v for k, v in self.eps_lb.items()},
            "p_values": {str(k): v for k, v in self.p_values.items()},
            "seed": self.seed,
            "config": self.config,
        }


def audit_run(adapter: MechanismAdapter, m: int, k_plus: int, k_minus: int,
              delta: float, confidences: Sequence[float], seed: int,
              eps_grid: Sequence[float] = DEFAULT_EPS_GRID) -> AuditReport:
    """Run one audit: selection -> mechanism -> guesses -> count -> estimates.

    For score-output adapters the guess budget is (k_plus, k_minus); for
    guess-output adapters the mechanism's own ternary output is used and
    the budget arguments are ignored.  The report echoes the seed and
    configuration, so an identical call reproduces it exactly.
    """
    for conf in confidences:
        if not 0 < conf < 1:
            raise ValueError(f"confidence must be in (0, 1), got {conf}")
    s, out = run_mechanism(adapter, m, seed)
    if adapter.output == "guesses":
        t = np.asarray(out)
        if t.shape != s.shape or not np.all(np.isin(t, (-1, 0, 1))):
            raise RuntimeError(
                f"adapter {adapter.name!r} returned an invalid guess vector")
    else:
        t = make_guesses(out, k_plus, k_minus)
    v = count_correct(s, t)
    summary = GuessSummary(m=m, k_plus=int(np.count_nonzero(t == 1)),
                           k_minus=int(np.count_nonzero(t == -1)), v=v)
    eps_lb = {
        float(conf): eps_lower_bound(m, summary.r, v, delta, 1.0 - conf)
        for conf in confidences
    }
    p_values = {
        float(e): p_value_audit(summary, PrivacyParams(e, delta))
        for e in eps_grid
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
    return AuditReport(summary=summary, eps_lb=eps_lb, p_values=p_values,
                       seed=seed, config=config)


@dataclasses.dataclass(frozen=True)
class CanaryPairSet:
    """m pairs of examples; exactly one member of each pair is included.

    pairs[i] = (chosen when s_i = +1, chosen when s_i = -1).  All 2m
    examples must be distinct.
    """

    pairs: tuple[tuple[Any, Any], ...]

    def __post_init__(self):
        flat = [x for pair in self.pairs for x in pair]
        try:
            distinct = len(set(flat)) == len(flat)
        except TypeError:  # unhashable example references
            distinct = True
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


@dataclasses.dataclass
class KSweepResult:
    """Per-budget lower bounds with the best grid point flagged.

    Selecting the best of several budgets on the same scores is multiple
    hypothesis testing, so the flagged value is optimistic at the nominal
    confidence; multiple_testing_caveat records that.
    """

    rows: list[KSweepRow]
    best_index: int
    multiple_testing_caveat: bool = True

    @property
    def best(self) -> KSweepRow:
        return self.rows[self.best_index]


def k_sweep(y: np.ndarray, s: np.ndarray,
            grid: Sequence[tuple[int, int]], delta: float,
            confidence: float) -> KSweepResult:
    """Evaluate the epsilon lower bound across a grid of guess budgets.

    Each row's guesses are those of :func:`make_guesses`; the scores are
    sorted once for the whole grid.
    """
    s = _check_selection(s)
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
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
    best = int(np.argmax([row.eps_lb for row in rows]))
    return KSweepResult(rows=rows, best_index=best)
