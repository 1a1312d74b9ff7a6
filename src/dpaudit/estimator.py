"""Statistical core for single-run differential privacy audits.

Converts the outcome of one audit run -- out of ``m`` randomized examples,
``r`` membership guesses of which ``v`` were correct -- into a p-value for
the null hypothesis "the mechanism is (eps, delta)-DP", and inverts that
test into a one-sided lower confidence bound on eps.

Under the null, the number of correct guesses is stochastically dominated
by ``Binomial(r, e^eps / (e^eps + 1))`` plus a spillover term weighted by a
point of the dual of a small linear program (feasible; optimal at
2*m*delta <= 1), the closed form implemented by :func:`dual_alpha`.  The
module also provides the analytic (Hoeffding) and adaptive-threshold
variants of the bound, the uneven-inclusion-probability generalization, and
two spin-off bounds implied by DP: a generalization-error tail bound and a
mutual information bound.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
from scipy import special


def rr_accuracy(eps: float) -> float:
    """Per-guess accuracy e^eps / (e^eps + 1) of eps-DP randomized response.

    This is the largest probability with which any eps-DP mechanism can
    correctly guess an independent fair bit of its input.
    """
    check_reals("[0, inf]", eps=eps)
    return float(special.expit(eps))


def check_counts(low: float = -math.inf, **counts) -> None:
    """The one count rule: each count is an integer (numpy's too, not a
    bool) in [low, largest float]; the error names the count at fault."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if value > sys.float_info.max:
            raise ValueError(f"{name} must be <= {sys.float_info.max}, "
                             f"got {value}")


# interval -> (membership test, what a value must do); nan fails every test
REAL_INTERVALS = {
    "[0, 1]": (lambda x: 0 <= x <= 1, "be in [0, 1]"),
    "(0, 1)": (lambda x: 0 < x < 1, "be in (0, 1)"),
    "confidence": (lambda x: 0 < x < 1 and 0 < 1.0 - x < 1,
                   "be in (0, 1) with 1 - it in (0, 1)"),
    "(0, 1]": (lambda x: 0 < x <= 1, "be in (0, 1]"),
    "[0, inf]": (lambda x: x >= 0, "be nonnegative"),
    "[0, inf)": (lambda x: 0 <= x < math.inf, "be nonnegative and finite"),
    "(0, inf)": (lambda x: 0 < x < math.inf, "be positive and finite"),
    "[1, inf]": (lambda x: x >= 1, "be >= 1"),
    "finite": (lambda x: -math.inf < x < math.inf, "be finite"),
}


def check_reals(interval: str, **values) -> None:
    """The one real rule: each value lies in interval; errors name the value."""
    inside, text = REAL_INTERVALS[interval]
    for name, value in values.items():
        if not inside(value):
            raise ValueError(f"{name} must {text}, got {value}")


def check_order(**values) -> None:
    """The one order rule: the values never decrease in the order given (nan
    fails); the error names every value."""
    ordered = list(values.values())
    if not all(a <= b for a, b in zip(ordered, ordered[1:])):
        raise ValueError(f"need {' <= '.join(values)}, got " + ", ".join(
            f"{name}={value}" for name, value in values.items()))


def _survival_fill(n: int, w_max: int):
    """The function q -> S with S[w] = Pr[Binomial(n, q) >= w], w = 0..w_max.

    The index arrays and the table are built once (w_max <= n); each call
    refills the same table in place with the incomplete-beta tails, clamped
    to [0, 1], and S[0] = 1, and returns it.
    """
    a = np.arange(1.0, w_max + 1)
    b = n - a + 1
    table = np.empty(w_max + 1)
    table[0] = 1.0
    tail = table[1:]

    def fill(q: float) -> np.ndarray:
        special.betainc(a, b, q, out=tail)
        np.maximum(tail, 0.0, out=tail)
        np.minimum(tail, 1.0, out=tail)
        return table

    return fill


@dataclasses.dataclass(frozen=True)
class DominatingDistribution:
    """An integer-supported distribution that dominates the correct-guess count.

    Stores the survival function Pr[W* >= w] for w = 0..len - 1; the
    implicit extension is survival 1 for w <= 0 and 0 past the table.
    """

    survival_table: np.ndarray  # survival_table[w] = Pr[W* >= w]

    def __post_init__(self):
        table = np.asarray(self.survival_table, dtype=float)
        if table.ndim != 1 or table.size == 0:
            raise ValueError("survival table must be a nonempty 1-d array")
        # S(0) is stored as 1; the last rule holds it within 1e-9 of 1
        if (table[1:] < -1e-12).any() or (table[1:] > 1 + 1e-12).any():
            raise ValueError("survival values must lie in [0, 1]")
        if (table[1:] - table[:-1] > 1e-12).any():
            raise ValueError("survival must be nonincreasing")
        if abs(table[0] - 1.0) > 1e-9:
            raise ValueError("survival at 0 must be 1 for nonnegative support")
        table = np.minimum(np.maximum(table, 0.0), 1.0)
        table[0] = 1.0
        object.__setattr__(self, "survival_table", table)

    @classmethod
    def from_binomial(cls, n: int, q: float) -> "DominatingDistribution":
        """Survival of Binomial(n, q) over its full support."""
        check_counts(0, n=n)
        check_reals("[0, 1]", q=q)
        return cls(survival_table=_survival_fill(n, n)(q))

    @classmethod
    def from_pmf(cls, pmf: np.ndarray) -> "DominatingDistribution":
        """Build from a pmf over {0, ..., len(pmf) - 1}.

        The survival is accumulated from the upper tail so the smallest
        terms are summed first.  The entries and the sum are checked as the
        tails hold them, by the table's rules, and the tails are clamped to
        [0, 1], so a pmf is turned away only with a pmf message.
        """
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a nonempty 1-d array")
        table = np.cumsum(pmf[::-1])[::-1]
        if (np.diff(table, append=0.0) > 1e-12).any():
            raise ValueError("pmf entries must be nonnegative")
        if abs(table[0] - 1.0) > 1e-9:
            raise ValueError(f"pmf must sum to 1, got {table[0]}")
        return cls(survival_table=np.clip(table, 0.0, 1.0))


def dual_alpha(dist: DominatingDistribution, v: int, m: int) -> float:
    """Spillover dual coefficient: feasible; optimal at 2*m*delta <= 1.

    Returns max over i in {1, ..., m} of
    (Pr[W* >= v - i] - Pr[W* >= v]) / i, floored at zero.  Together with
    beta = Pr[W* >= v] this is a feasible solution of the dual of the
    linear program that maximizes the probability an adversary can add to
    the event {W >= v} using a nonnegative integer offset of mean at most
    2*m*delta, so beta + alpha * 2*m*delta upper-bounds that probability.

    Args:
      dist: Dominating distribution of the correct-guess count.
      v: Observed threshold (any integer).
      m: Number of randomized examples, m >= 1.
    """
    check_counts(1, m=m)
    check_counts(v=v)  # any integer: S(w) = 1 for w <= 0
    table = dist.survival_table
    beta = 1.0 if v <= 0 else float(table[v]) if v < table.size else 0.0
    return _spill_max(table, v, m, beta)


def _spill_max(table: np.ndarray, v: int, m: int, beta: float) -> float:
    """max(0, max over i = 1..m of (S(v - i) - beta) / i), beta = S(v).

    S(w) = table[w], extended by 1 below 0 and 0 above the table, so only
    i = max(1, v - len + 1)..min(m, max(v, 1)) is scanned: past i = v the
    candidate (1 - beta) / i only falls.  The scan runs in slices doubling
    from 64 and stops at the first slice where fl((1 - beta) / i), a bound
    on every later candidate, is no more than the best so far: the maximum
    is bit for bit the full one.
    """
    i, last, width = max(1, v - table.size + 1), min(m, max(v, 1)), 64
    best = 0.0
    while i <= last and (1.0 - beta) / i > best:
        j = min(last, i + width - 1)
        tails = table[v - j:v - i + 1][::-1]
        best = max(best, float(((tails - beta) / np.arange(i, j + 1)).max()))
        i, width = j + 1, 2 * width
    return best


def _tail_p_value(table: np.ndarray, v: int, m: int, delta: float) -> float:
    """min(1, beta + alpha * 2 m delta), beta = table[v], alpha its spillover."""
    beta = float(table[v])
    return min(1.0, beta + _spill_max(table, v, m, beta) * 2.0 * m * delta)


def _p_value_at(m: int, r: int, v: int, delta: float):
    """The function eps -> p-value of v correct out of r guesses on m examples.

    The counts, their order and delta are checked, and the survival fill set
    up, once.  Each call fills S(w) = Pr[Bin(r, rr_accuracy(eps)) >= w] only
    for w <= v, the entries the p-value reads, so it equals the p-value read
    from the full table over 0..r bit for bit.
    """
    check_counts(1, m=m)
    check_counts(0, r=r, v=v)
    check_order(v=v, r=r, m=m)
    check_reals("[0, 1]", delta=delta)
    fill = _survival_fill(r, v)
    return lambda eps: _tail_p_value(fill(rr_accuracy(eps)), v, m, delta)


def p_value_audit(m: int, r: int, v: int, eps: float, delta: float) -> float:
    """p-value of observing >= v correct guesses under the (eps, delta)-DP null.

    Computes min(1, beta + alpha * 2 * m * delta) where beta is the
    Binomial(r, e^eps/(e^eps+1)) survival at v and alpha is the dual
    spillover coefficient of :func:`dual_alpha` for that binomial.

    Args:
      m, r, v: Counts of one audit run, as in :func:`eps_lower_bound`.
      eps, delta: The null hypothesis, eps in [0, inf] and delta in [0, 1].
    """
    return _p_value_at(m, r, v, delta)(eps)


def p_values_by_threshold(m: int, r: int, eps: float,
                          delta: float) -> list[float]:
    """``p_value_audit(m, r, v, eps, delta)`` for v = 0..r, bit for bit, from
    one survival table over 0..r (each p_value_audit call fills its own)."""
    check_counts(1, m=m)
    check_counts(0, r=r)
    check_order(r=r, m=m)
    check_reals("[0, 1]", delta=delta)
    table = _survival_fill(r, r)(rr_accuracy(eps))
    return [_tail_p_value(table, v, m, delta) for v in range(r + 1)]


def eps_lower_bound(m: int, r: int, v: int, delta: float, beta: float) -> float:
    """Largest eps rejected at failure probability beta; a lower confidence bound.

    Bracket search: grow the upper end by one until the p-value reaches
    beta, then bisect 30 times and return the lower end, which keeps the
    result conservative: p_value(result) < beta, and the p-value crosses
    beta within one terminal bracket width (at most 2**-30 of the bracket).
    The eps-independent set-up runs once per bound, and each p-value
    evaluation (one per growth step, plus 30) computes the survival S(w)
    only at w <= v, the entries the p-value reads.

    Args:
      m: Number of randomized examples.
      r: Number of guesses, v <= r <= m.
      v: Number of correct guesses.
      delta: Fixed delta of the null hypothesis.
      beta: Failure probability (one minus confidence), in (0, 1).

    Returns:
      Lower bound on eps; 0.0 when v is consistent with eps = 0.
    """
    check_reals("(0, 1)", beta=beta)
    p_value = _p_value_at(m, r, v, delta)
    eps_min = 0.0  # maintain p_value(eps_min) < beta
    eps_max = 1.0  # maintain p_value(eps_max) >= beta
    while p_value(eps_max) < beta:
        eps_max += 1.0
    for _ in range(30):
        eps = (eps_min + eps_max) / 2
        if p_value(eps) < beta:
            eps_min = eps
        else:
            eps_max = eps
    return eps_min


def p_value_general_p(m: int, k_plus: int, k_minus: int, v: int, eps: float,
                      delta: float, p_incl: float) -> float:
    """p-value under the (eps, delta) null at inclusion probability p != 1/2.

    The dominating distribution is the exact integer-support convolution of
    Binomial(k_plus, q_plus), q_plus = p e^eps / (p e^eps + 1 - p), and
    Binomial(k_minus, q_minus), q_minus = (1-p) e^eps / ((1-p) e^eps + p),
    p = p_incl.  Collapses to :func:`p_value_audit` when p = 1/2.  Each
    binomial's pmf is the difference of its exact survival table.
    """
    check_counts(1, m=m)
    check_counts(0, k_plus=k_plus, k_minus=k_minus, v=v)
    check_order(v=v, **{"k_plus + k_minus": k_plus + k_minus}, m=m)
    check_reals("[0, inf]", eps=eps)
    check_reals("[0, 1]", delta=delta)
    check_reals("(0, 1)", p_incl=p_incl)
    logit_p = special.logit(p_incl)
    pmf_plus, pmf_minus = (
        -np.diff(_survival_fill(n, n)(q), append=0.0)
        for n, q in ((k_plus, float(special.expit(eps + logit_p))),
                     (k_minus, float(special.expit(eps - logit_p)))))
    dist = DominatingDistribution.from_pmf(np.convolve(pmf_plus, pmf_minus))
    return _tail_p_value(dist.survival_table, v, m, delta)


def hoeffding_p_value(m: int, r1: float, r2: float, v: float, eps: float,
                      delta: float) -> float:
    """Analytic p-value under the (eps, delta) null from a Hoeffding tail.

    Uses f(v) = exp(-2 (v - q r1)^2 / r2^2) for v above the mean q*r1 and
    1 below it, where q = e^eps/(e^eps+1), r1 bounds the guess weight
    l1-norm and r2 its l2-norm.  For v >= q r1 + 2 the delta term uses the
    closed form max(2 / (v - q r1), f((v + q r1) / 2)); otherwise it falls
    back to the discrete max over integer offsets i, which lies at i <= 2.

    Unlike the exact binomial routines, v may be non-integer here.
    """
    check_counts(1, m=m)
    check_reals("(0, inf)", r1=r1, r2=r2)
    check_reals("finite", v=v)
    check_reals("[0, 1]", delta=delta)
    mean = rr_accuracy(eps) * r1

    def f(x):  # exp(coef gap^2) <= 1, and 1 where coef gap^2 is 0 * inf
        gap = np.maximum(np.asarray(x, dtype=float) - mean, 0.0)
        out = np.fmin(np.exp(coef * gap ** 2), 1.0)
        return float(out) if out.ndim == 0 else out

    with np.errstate(all="ignore"):  # r2^2 and gap^2 may leave float range
        coef = -2.0 / np.float64(r2) ** 2
        fv = f(v)
        if delta == 0:
            return min(1.0, fv)
        if v >= mean + 2:
            dterm = max(2.0 / (v - mean), f((v + mean) / 2.0))
        else:  # v < q r1 + 2: for i >= 2, f(v - i) = 1, (1 - f(v)) / i falls
            i = np.arange(1, min(m, 2) + 1)
            dterm = max(0.0, float(np.max((f(v - i) - fv) / i)))
    return min(1.0, fv + 2.0 * m * delta * dterm)


def adaptive_bound(m: int, r_observed: int, eps: float, delta: float,
                   gamma: float, tau: float) -> tuple[float, float]:
    """Threshold and tail bound that adapt to the realized number of guesses.

    Searches the full survival table over 0..r_observed, which it keeps,
    for the smallest integer w with Pr[Binomial(r_observed, q) >= w] <=
    gamma, and guarantees Pr[W >= w + tau] <= gamma + 2 m delta / tau under
    the (eps, delta) null.  Letting the threshold depend on the observed
    guess count r_observed is what makes the bound adaptive.

    Returns:
      (threshold, p) where threshold = w + tau and p is clamped to 1.
    """
    check_counts(1, m=m)
    check_counts(0, r_observed=r_observed)
    check_order(r_observed=r_observed, m=m)
    check_reals("[0, 1]", gamma=gamma, delta=delta)
    check_reals("(0, inf)", tau=tau)
    table = _survival_fill(r_observed, r_observed)(rr_accuracy(eps))
    below = np.flatnonzero(table <= gamma)
    g = int(below[0]) if below.size else r_observed + 1
    p = min(1.0, gamma + 2.0 * m * delta / tau)
    return float(g) + tau, p


def generalization_bound(n: int, eps: float, delta: float, gamma: float,
                         eta: float) -> float:
    """Tail bound on the generalization gap of an (eps, delta)-DP algorithm.

    Three-term bound: S1 + 2 exp(-n eta^2 / 2) + max_i (2 n delta / i)
    (S2(i) - S1), where S1 is the Binomial(n, e^eps/(e^eps+1)) survival at
    (1 + gamma - 1.5 eta) n / 2 and S2(i) the survival at the threshold
    minus i.  Requires n >= 1 and finite gamma >= 1.5 eta >= 0.
    """
    check_reals("[0, inf)", gamma=gamma, eta=eta)
    check_order(**{"1.5 * eta": 1.5 * eta}, gamma=gamma)
    check_reals("[0, 1]", delta=delta)
    return _generalization_bound_from_table(
        _binomial_table(n, eps), n, delta, gamma, eta)


def _binomial_table(n: int, eps: float) -> np.ndarray:
    """The Binomial(n, rr_accuracy(eps)) survival over 0..n, n >= 1."""
    check_counts(1, n=n)
    return _survival_fill(n, n)(rr_accuracy(eps))


def _generalization_bound_from_table(table, n, delta, gamma, eta):
    # past 2n + 1 neither S1 nor the spillover reads the table; the clamp
    # keeps every bit and the threshold finite
    thr = math.ceil(min((1.0 + gamma - 1.5 * eta) * n / 2.0, 2.0 * n + 1))
    s1 = float(table[thr]) if thr <= n else 0.0
    hoeffding = 2.0 * math.exp(-n * eta * eta / 2.0)
    spill = 2.0 * n * delta * _spill_max(table, thr, n, s1)
    return min(1.0, s1 + hoeffding + spill)


# Largest x with math.exp(x) finite.
_LOG_MAX = math.log(np.finfo(float).max)


def prior_generalization_bound(alpha_acc: float, beta_acc: float, eps: float,
                               delta: float, c: float,
                               d: float) -> tuple[float, float]:
    """Earlier generalization guarantee used as a comparison baseline.

    Returns (error, failure) = (alpha_acc + e^eps - 1 + c + 2 d,
    beta_acc / c + delta / d) under the (eps, delta) null, for free
    parameters c, d > 0, or arrays of them.
    """
    check_reals("[0, inf)", alpha_acc=alpha_acc)
    check_reals("[0, inf]", eps=eps)
    check_reals("[0, 1]", beta_acc=beta_acc, delta=delta)
    if not (np.all(c > 0) and np.all(d > 0)):
        raise ValueError(f"c and d must be positive, got {c}, {d}")
    if eps > _LOG_MAX:  # no finite width
        raise ValueError(f"eps must keep e^eps finite, got {eps}")
    error = alpha_acc + math.exp(eps) - 1.0 + c + 2.0 * d
    failure = beta_acc / c + delta / d
    if not np.all(failure < math.inf):
        raise ValueError(f"beta_acc / c + delta / d must be finite, "
                         f"got c={c}, d={d}")
    return error, failure


# Points per axis of the width optimizers' log grids.
_GRID_POINTS = 200


def optimize_generalization_width(
        n: int, eps: float, delta: float, beta_acc: float,
        target_failure: float) -> tuple[float, float, float]:
    """Smallest width gamma with beta_acc + generalization_bound <= target.

    Standardized search at the (eps, delta) null: a _GRID_POINTS x
    _GRID_POINTS log grid over (gamma, eta), each from 1e-2 to 1.  Returns
    (gamma, eta, achieved_failure).
    """
    check_reals("[0, 1]", beta_acc=beta_acc, target_failure=target_failure,
                delta=delta)
    table = _binomial_table(n, eps)
    grid = np.geomspace(1e-2, 1.0, _GRID_POINTS)
    for g in grid:  # the row's least failure, and of a tie its least eta
        fail, eta = min(
            ((beta_acc + _generalization_bound_from_table(
                table, n, delta, g, e), e) for e in grid[grid <= g / 1.5]),
            default=(math.inf, 0.0))
        if fail <= target_failure:
            return float(g), float(eta), fail
    raise ValueError(f"no grid point meets target_failure {target_failure} at "
                     f"n={n}, eps={eps}, delta={delta}, beta_acc={beta_acc}")


def optimize_prior_width(
        eps: float, delta: float, beta_acc: float, target_failure: float,
) -> tuple[float, float, float]:
    """Smallest baseline width, alpha_acc = 0, with failure <= target.

    Same standardized log-grid search as :func:`optimize_generalization_width`
    over the c and d of :func:`prior_generalization_bound` at the (eps,
    delta) null, each from 1e-6 to 1.  Returns (width, c, d).
    """
    check_reals("[0, 1]", target_failure=target_failure)
    cs = ds = np.geomspace(1e-6, 1.0, _GRID_POINTS)
    width, fail = prior_generalization_bound(
        0.0, beta_acc, eps, delta, cs[:, None], ds[None, :])
    feasible = fail <= target_failure
    if not feasible.any():
        raise ValueError(f"no grid point meets target_failure {target_failure}"
                         f" at beta_acc={beta_acc}, delta={delta}")
    width = np.where(feasible, width, np.inf)
    i, j = np.unravel_index(np.argmin(width), width.shape)
    return float(width[i, j]), float(cs[i]), float(ds[j])


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def mi_bound(n: int, eps: float, delta: float, p_incl: float) -> float:
    """Upper bound (nats) on the mutual information between inclusion bits
    and the output of an (eps, delta)-DP mechanism.

    n delta h(p) + n (1-delta) h((p e^eps + 1 - p) / (e^eps + 1))
    - n (1-delta) (log(1 + e^-eps) + eps / (e^eps + 1)),
    with h the natural-log binary entropy.  At p = 1/2 this is at most
    n delta log 2 + n (1-delta) eps^2 / 8; floored at 0 against rounding.
    """
    check_counts(0, n=n)
    check_reals("(0, 1)", p_incl=p_incl)
    check_reals("[0, inf]", eps=eps)
    check_reals("[0, 1]", delta=delta)
    if eps > _LOG_MAX:  # e^eps overflows: the eps -> inf limit n h(p)
        return n * _binary_entropy(p_incl)
    mid = (p_incl * math.exp(eps) + 1.0 - p_incl) / (math.exp(eps) + 1.0)
    return max(0.0, n * delta * _binary_entropy(p_incl)
               + n * (1.0 - delta) * _binary_entropy(mid)
               - n * (1.0 - delta) * (math.log1p(math.exp(-eps))
                                      + eps / (math.exp(eps) + 1.0)))
