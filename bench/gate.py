"""Correctness gate applied to every benchmark op, outside the timed region.

Two checks:

(a) An independent p-value oracle, the original formula of the package:
    the ``scipy.stats.binom`` survival of Binomial(r, e^eps/(e^eps+1)) at
    v plus 2*m*delta times the ``dual_alpha`` maximum.  Every reported
    lower bound ``eps_lb`` must reject (``p(eps_lb) < beta`` when
    ``eps_lb > 0``) and must stop rejecting just past itself
    (``p(eps_lb + 1e-6) >= beta``).  It holds for any seed.

(b) Reference outputs stored from the unmodified code (``reference/``):
    integer counts exactly, ``eps_lb`` within 1e-6, p-values within 1e-9
    relative.  Only ops whose input has a stored
    reference are compared.

This module imports ``scipy.stats``; the worker imports it only after the
timed phase and the memory reading, so it adds nothing to either.
"""

from __future__ import annotations

import decimal
import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy import special, stats

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
EPS_STEP = 1e-6
EPS_TOL = 1e-6
REL_TOL = 1e-9


@functools.lru_cache(maxsize=4096)
def oracle_p_value(m: int, r: int, v: int, eps: float, delta: float) -> float:
    """p-value of >= v correct out of r guesses under the (eps, delta) null."""
    q = float(special.expit(eps))
    table = stats.binom.sf(np.arange(r + 1) - 1, r, q)  # table[w] = Pr[W >= w]

    def survival(w):
        w = np.asarray(w)
        return np.where(w <= 0, 1.0,
                        np.where(w > r, 0.0, table[np.clip(w, 0, r)]))

    beta = float(survival(v))
    if delta == 0:
        return min(1.0, beta)
    i = np.arange(1, min(m, max(v, 1)) + 1)
    alpha = max(0.0, float(np.max((survival(v - i) - beta) / i)))
    return min(1.0, beta + alpha * 2.0 * m * delta)


def check_eps_lb(m: int, r: int, v: int, delta: float, beta: float,
                 eps_lb: float, half_unit: float = 0.0) -> list[str]:
    """Errors of condition (a) for one reported lower bound.

    A bound printed in rounded form stands for the interval
    ``eps_lb +- half_unit``; since the p-value increases with eps, the
    conditions are checked at the end of that interval that is hardest
    to pass.
    """
    errors = []
    if not (math.isfinite(eps_lb) and eps_lb >= 0):
        return [f"eps_lb={eps_lb!r} is not a finite nonnegative number"]
    lo, hi = eps_lb - half_unit, eps_lb + half_unit
    if eps_lb > 0 and not oracle_p_value(m, r, v, lo, delta) < beta:
        errors.append(f"p({lo!r}) >= beta={beta}: eps_lb={eps_lb!r} does "
                      f"not reject (m={m} r={r} v={v} delta={delta})")
    if not oracle_p_value(m, r, v, hi + EPS_STEP, delta) >= beta:
        errors.append(f"p({hi!r}+{EPS_STEP}) < beta={beta}: eps_lb={eps_lb!r}"
                      f" is not tight (m={m} r={r} v={v} delta={delta})")
    return errors


def half_unit(text: str) -> float:
    """Half a unit in the last printed digit of a decimal string."""
    value = decimal.Decimal(text)
    return 0.0 if value == 0 else 0.5 * 10.0 ** value.as_tuple().exponent


def close_rel(a: float, b: float, tol: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


def compare_report(got: dict, ref: dict) -> list[str]:
    """Errors of condition (b) for one audit report against its reference."""
    errors = []
    for key in ("m", "k_plus", "k_minus", "v"):
        if got[key] != ref[key]:
            errors.append(f"{key}={got[key]} != reference {ref[key]}")
    for conf, lb in ref["eps_lb"].items():
        if abs(got["eps_lb"].get(conf, math.nan) - lb) > EPS_TOL:
            errors.append(f"eps_lb[{conf}]={got['eps_lb'].get(conf)} "
                          f"!= reference {lb}")
    if set(got["p_values"]) != set(ref["p_values"]):
        errors.append("p_values keys differ from reference")
    for eps, p in ref["p_values"].items():
        if not close_rel(got["p_values"].get(eps, math.nan), p):
            errors.append(f"p_values[{eps}]={got['p_values'].get(eps)} "
                          f"!= reference {p}")
    return errors


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))
