"""Simulated DP mechanisms used as audit targets, plus closed-form accounting.

The samplers (randomized response, Gaussian score release, and the
worst-case mechanism that concentrates its delta budget on a rare event)
are the idealized targets against which the estimator is validated: their
guess-accuracy laws are known exactly, so audit validity and tightness can
be checked by Monte Carlo.  The accounting functions give the matching
upper bounds: the exact Gaussian privacy curve, the order-2 Renyi bound
for subsampled noisy SGD, and the balanced membership-inference accuracy
ceiling it implies.

Samplers take an explicit seeded generator; accounting functions are pure.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import special

from .estimator import rr_accuracy


@dataclasses.dataclass(frozen=True)
class GaussianReportConfig:
    """Release each selection bit plus N(0, sigma^2) noise.

    sensitivity is the score change when one bit flips (2 for a +-1 flip).
    """

    sigma: float
    sensitivity: float = 2.0

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError(
                f"sigma must be positive and finite, got {self.sigma}")
        if not 0 < self.sensitivity < math.inf:
            raise ValueError(f"sensitivity must be positive and finite, "
                             f"got {self.sensitivity}")
        if not 0 < self.rho < math.inf:
            raise ValueError(
                f"sensitivity^2 / (2 sigma^2) must be positive and finite, "
                f"got sigma={self.sigma}, sensitivity={self.sensitivity}")

    @property
    def rho(self) -> float:
        """Concentrated-DP parameter sensitivity^2 / (2 sigma^2)."""
        s, var2 = self.sensitivity, 2.0 * self.sigma * self.sigma
        return s * s / var2 if var2 else math.inf


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
        if not 0 < self.r <= self.m:
            raise ValueError(f"need 0 < r <= m, got r={self.r} m={self.m}")
        if not self.eps >= 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if not 0 <= self.beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.m * self.delta > self.r * self.beta:
            raise ValueError(
                f"need m*delta <= r*beta, got {self.m * self.delta} > "
                f"{self.r * self.beta}")

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


@dataclasses.dataclass(frozen=True)
class ZcdpParams:
    """Zero-concentrated DP parameter record."""

    rho: float

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")


@dataclasses.dataclass(frozen=True)
class RdpParams:
    """Renyi DP parameter record (order, eps_check)."""

    order: float
    eps_check: float

    def __post_init__(self):
        if self.order <= 1:
            raise ValueError(f"order must exceed 1, got {self.order}")
        if self.eps_check < 0:
            raise ValueError(
                f"eps_check must be nonnegative, got {self.eps_check}")


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


def gaussian_report(s: np.ndarray, cfg: GaussianReportConfig,
                    rng: np.random.Generator) -> np.ndarray:
    """Release s_i + N(0, sigma^2) per coordinate."""
    s = np.asarray(s, dtype=float)
    return s + rng.normal(0.0, cfg.sigma, size=s.shape[0])


def pathological(s: np.ndarray, cfg: PathologicalConfig,
                 rng: np.random.Generator,
                 force_branch: bool | None = None) -> np.ndarray:
    """Run the boosted-accuracy mechanism; 0 (abstain) outside the guessed set.

    force_branch conditions the rare-event coin (True: boosted branch,
    False: plain branch) so per-branch accuracy can be tested directly.
    """
    s = np.asarray(s)
    if s.shape[0] != cfg.m:
        raise ValueError(f"selection length {s.shape[0]} != m = {cfg.m}")
    guessed = rng.choice(cfg.m, size=cfg.r, replace=False)
    x = bool(rng.random() < cfg.beta) if force_branch is None else force_branch
    acc = cfg.branch_accuracy(x)
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
    eps.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    scale = math.sqrt(2.0 * rho)
    hi = special.ndtr(-((eps - rho) / scale))
    lo = math.exp(min(0.0, eps + special.log_ndtr(-((eps + rho) / scale))))
    return min(1.0, max(0.0, hi - lo))


def gaussian_dp_eps(rho: float, delta: float) -> float:
    """Invert the Gaussian privacy curve: smallest eps with delta(eps) <= delta.

    The curve is strictly decreasing in eps so the root is unique; solved
    to well below 1e-6 in eps.  Returns 0 when even eps = 0 already
    achieves the requested delta.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if gaussian_dp_delta(rho, 0.0) <= delta:
        return 0.0
    hi = 1.0
    while gaussian_dp_delta(rho, hi) > delta:
        hi *= 2.0
    return _brentq(lambda e: gaussian_dp_delta(rho, e) - delta, 0.0, hi,
                   xtol=1e-9)


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f on the sign-changing bracket [xa, xb] by Brent's method.

    Step for step the algorithm of ``scipy.optimize.brentq`` with its
    default rtol and maxiter, so it returns the same root without importing
    scipy.optimize (about 23 MB and 0.2 s of import).
    """
    rtol, maxiter = 4 * np.finfo(float).eps, 100
    xpre, xcur = xa, xb
    # float64 values as in scipy's C code: a zero denominator in a step gives
    # inf or nan, which fails the step test and falls back to bisection
    fpre, fcur = np.float64(f(xpre)), np.float64(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have opposite signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < tol:
            return float(xcur)
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                if xpre == xblk:  # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - tol):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else (tol if sbis > 0 else -tol)
        fcur = np.float64(f(xcur))
    raise RuntimeError(f"no convergence in {maxiter} iterations")


def dpsgd_rdp_eps(ell: int, q: float, sigma: float) -> float:
    """Order-2 Renyi privacy of ell noisy-SGD steps with sampling rate q.

    eps_check = ell * log(1 + q^2 * (exp(1/sigma^2) - 1)), additive in ell.
    Where exp(1/sigma^2) overflows or q^2 underflows, the log term is
    evaluated as log(1 + e^y) with y = log(q^2 (e^(1/sigma^2) - 1)).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0 <= q <= 1:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if q == 0:
        return 0.0
    var = sigma * sigma
    if var == 0 or 1.0 / var == math.inf:
        raise ValueError(f"sigma must keep 1 / sigma^2 finite, got {sigma!r}")
    x = 1.0 / var
    if x == 0:  # sigma^2 overflows: the bound is below every float
        return 0.0
    if q * q >= np.finfo(float).tiny:
        try:
            return ell * math.log1p(q * q * math.expm1(x))
        except OverflowError:
            pass
    y = 2.0 * math.log(q) + x + math.log(-math.expm1(-x))
    return ell * float(np.logaddexp(0.0, y))


def rdp_membership_accuracy(eps_check: float) -> float:
    """Balanced membership-inference accuracy ceiling under (2, eps_check)-RDP.

    1/2 + 1/2 * sqrt((e^x - 1) / (e^x + 3)), evaluated in the
    overflow-free form (1 - e^-x) / (1 + 3 e^-x).
    """
    if eps_check < 0:
        raise ValueError(f"eps_check must be nonnegative, got {eps_check}")
    ratio = -math.expm1(-eps_check) / (1.0 + 3.0 * math.exp(-eps_check))
    return 0.5 + 0.5 * math.sqrt(ratio)


def expected_correct_gaussian(m: int, r: int, sigma: float) -> tuple[float, int]:
    """Deterministic guess count for the idealized Gaussian score release.

    Solves for the score threshold c with Pr[S + xi > c] = r / (2m), where
    S is uniform on {-1, +1} and xi ~ N(0, sigma^2) (the two-component
    mixture tail is strictly decreasing, solved by bisection to 1e-12), and
    returns c together with v = ceil(r * Pr[S = +1 | S + xi > c]).

    This is the number of correct guesses an auditor making the r most
    extreme guesses on m examples should expect.
    """
    if not 0 < r <= m:
        raise ValueError(f"need 0 < r <= m, got r={r} m={m}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    target = r / (2.0 * m)

    def mixture_tail(c):
        return 0.5 * (special.ndtr(-((c - 1.0) / sigma))
                      + special.ndtr(-((c + 1.0) / sigma)))

    lo = 0.0  # mixture_tail(0) = 1/2 >= target since r <= m
    hi = 1.0 + sigma * -special.ndtri(target)
    if hi <= lo:
        hi = lo + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        t = mixture_tail(mid)
        if abs(t - target) <= 1e-12:
            lo = hi = mid
            break
        if t >= target:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    plus = special.ndtr(-((c - 1.0) / sigma))
    minus = special.ndtr(-((c + 1.0) / sigma))
    accuracy = plus / (plus + minus)
    return float(c), int(math.ceil(r * accuracy))
