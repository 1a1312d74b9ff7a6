"""Simulated DP mechanisms used as audit targets, plus closed-form accounting.

The samplers (randomized response, Gaussian score release, and the
worst-case mechanism that concentrates its delta budget on a rare event)
are the idealized targets against which the estimator is validated: their
guess-accuracy laws are known exactly, so audit validity and tightness can
be checked by Monte Carlo.  The accounting functions give the matching
upper bounds: the exact Gaussian privacy curve and the balanced
membership-inference accuracy ceiling of an order-2 Renyi bound.

Samplers take an explicit seeded generator; accounting functions are pure.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import special

from .estimator import check_counts, check_order, check_reals, rr_accuracy


def gaussian_rho(sigma: float) -> float:
    """Concentrated-DP parameter 2^2 / (2 sigma^2) of the release at sigma:
    flipping one bit moves its score by 2, the release's sensitivity."""
    var2 = 2.0 * sigma * sigma
    return 4.0 / var2 if var2 else math.inf


@dataclasses.dataclass(frozen=True)
class PathologicalConfig:
    """Worst-case guesser: boosted accuracy on a rare event of probability beta.

    With probability beta, each of the r guesses is correct with probability
    m*delta/(r*beta) + (1 - m*delta/(r*beta)) * e^eps/(e^eps+1); otherwise
    with the plain randomized-response accuracy.  Requires m*delta <= r*beta
    (delta = 0 degenerates to randomized response on the guessed subset).
    """

    m: int
    r: int
    eps: float
    delta: float
    beta: float

    def __post_init__(self):
        check_counts(1, m=self.m, r=self.r)
        check_order(r=self.r, m=self.m)
        check_reals("[0, inf]", eps=self.eps)
        check_reals("[0, 1]", delta=self.delta, beta=self.beta)
        check_order(**{"m * delta": self.m * self.delta,
                       "r * beta": self.r * self.beta})

    @property
    def boost(self) -> float:
        """Extra correctness probability m*delta/(r*beta) on the rare branch."""
        if self.delta == 0:
            return 0.0
        return self.m * self.delta / (self.r * self.beta)

    def branch_accuracy(self, x: bool) -> float:
        """Per-guess correctness probability conditioned on the branch."""
        q = rr_accuracy(self.eps)
        return self.boost + (1.0 - self.boost) * q if x else q


def randomized_response(s: np.ndarray, eps: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Guess each selection bit correctly with probability e^eps/(e^eps+1).

    Returns a full guess vector (no abstentions); this is the worst-case
    (eps, 0)-DP mechanism for the audit.
    """
    s = np.asarray(s)
    q = rr_accuracy(eps)
    keep = rng.random(s.shape[0]) < q
    return s * (2 * keep - 1)


def gaussian_report(s: np.ndarray, sigma: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Release s_i + N(0, sigma^2) per coordinate, where sigma and its
    rho are positive and finite, so that the release is finite."""
    check_reals("(0, inf)", sigma=sigma,
                **{f"rho at sigma={sigma}": gaussian_rho(sigma)})
    s = np.asarray(s, dtype=float)
    return s + rng.normal(0.0, sigma, size=s.shape[0])


def pathological(s: np.ndarray, cfg: PathologicalConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Run the boosted-accuracy mechanism; 0 (abstain) off the guessed set."""
    s = np.asarray(s)
    if s.shape[0] != cfg.m:
        raise ValueError(f"selection length {s.shape[0]} != m = {cfg.m}")
    guessed = rng.choice(cfg.m, size=cfg.r, replace=False)
    acc = cfg.branch_accuracy(bool(rng.random() < cfg.beta))
    t = np.zeros(cfg.m, dtype=s.dtype)
    correct = rng.random(cfg.r) < acc
    t[guessed] = np.where(correct, s[guessed], -s[guessed])
    return t


def gaussian_dp_delta(rho: float, eps: float) -> float:
    """Exact delta of the privacy curve of a Gaussian mechanism with given rho.

    delta(eps) = Phibar((eps - rho) / sqrt(2 rho))
                 - e^eps * Phibar((eps + rho) / sqrt(2 rho)),
    where Phibar(x) = ndtr(-x) is the standard normal survival function.
    The e^eps factor is applied in log space to avoid overflow; its term is
    at most 1, so the exponent is clamped at 0 against cancellation at
    large rho.  The result is clamped to [0, 1] and strictly decreasing in
    eps, with limit 0 at eps = inf.  2 rho must be finite.
    """
    check_reals("(0, inf)", rho=rho, **{"2 * rho": 2.0 * rho})
    check_reals("[0, inf]", eps=eps)
    if eps == math.inf:
        return 0.0
    scale = math.sqrt(2.0 * rho)
    hi = special.ndtr(-((eps - rho) / scale))
    lo = math.exp(min(0.0, eps + special.log_ndtr(-((eps + rho) / scale))))
    return min(1.0, max(0.0, hi - lo))


def gaussian_dp_eps(rho: float, delta: float) -> float:
    """Invert the Gaussian privacy curve: smallest eps with delta(eps) <= delta.

    Bracket search, as in ``eps_lower_bound``: double the upper end until
    it meets delta, then bisect until the midpoint is one of the two ends
    and return the upper end.  The result is conservative and tight in
    floats: delta(eps) <= delta < delta(the float below eps).  Returns 0
    when even eps = 0 already achieves the requested delta.
    """
    check_reals("(0, 1)", delta=delta)
    if gaussian_dp_delta(rho, 0.0) <= delta:
        return 0.0
    lo, hi = 0.0, 1.0  # maintain delta(lo) > delta >= delta(hi)
    while gaussian_dp_delta(rho, hi) > delta:
        lo, hi = hi, 2.0 * hi
    return _bisect(lambda eps: gaussian_dp_delta(rho, eps) > delta, lo, hi)


def _bisect(above, lo: float, hi: float) -> float:
    """Halve [lo, hi], where above(lo) holds and above(hi) does not, until
    the midpoint is one of the ends; return hi, the conservative end."""
    while lo < (mid := (lo + hi) / 2) < hi:
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


def rdp_membership_accuracy(eps_check: float) -> float:
    """Balanced membership-inference accuracy ceiling under (2, eps_check)-RDP.

    1/2 + 1/2 * sqrt((e^x - 1) / (e^x + 3)), evaluated in the
    overflow-free form (1 - e^-x) / (1 + 3 e^-x).
    """
    check_reals("[0, inf]", eps_check=eps_check)
    ratio = -math.expm1(-eps_check) / (1.0 + 3.0 * math.exp(-eps_check))
    return 0.5 + 0.5 * math.sqrt(ratio)


def expected_correct_gaussian(m: int, r: int, sigma: float) -> tuple[float, int]:
    """Deterministic guess count for the idealized Gaussian score release.

    Solves for the score threshold c with Pr[S + xi > c] = r / (2m), where
    S is uniform on {-1, +1} and xi ~ N(0, sigma^2) (the two-component
    mixture tail is strictly decreasing, bisected down to adjacent floats),
    and returns c together with v = ceil(r * Pr[S = +1 | S + xi > c]).

    This is the number of correct guesses an auditor making the r most
    extreme guesses on m examples should expect.
    """
    check_counts(1, m=m, r=r)
    check_order(r=r, m=m)
    check_reals("(0, inf)", sigma=sigma)
    target = r / (2.0 * m)

    def mixture_tail(c):
        return 0.5 * (special.ndtr(-((c - 1.0) / sigma))
                      + special.ndtr(-((c + 1.0) / sigma)))

    # mixture_tail(0) = 1/2 >= target since r <= m, and the tail at hi is
    # below target; Python floats: an overflow gives inf, not a warning
    hi = 1.0 + sigma * -float(special.ndtri(target))
    c = _bisect(lambda x: mixture_tail(x) >= target, 0.0, hi)
    check_reals("finite", **{f"threshold c at sigma={sigma}": c})
    plus = special.ndtr(-((c - 1.0) / sigma))
    minus = special.ndtr(-((c + 1.0) / sigma))
    accuracy = plus / (plus + minus)
    return float(c), int(math.ceil(r * accuracy))
