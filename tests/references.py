"""Independent references the tests check the product code against.

The trainer and the batch scorer work on scalar coefficients and whole
canary sets; the DP-SGD helpers state the same operations row by row.
The estimator fills whole survival tables at once; :func:`binomial_sf`
states one entry.  :func:`hoeffding_p_value_full_scan` takes the Hoeffding
p-value's offset maximum over every offset, where the product stops early.
"""

import math


import numpy as np
from scipy import special

from dpaudit.dpsgd import LossModel


def example_grads(model, w: np.ndarray, X: np.ndarray,
                  Y: np.ndarray) -> np.ndarray:
    """Per-example gradients a_i * X[i] of rows X, Y under model's loss."""
    if X.shape[0] == 0:
        return np.zeros((0, w.size))
    return LossModel(model.kind, X, Y).example_coefs(w)[:, None] * X


def clip_rows(grads: np.ndarray, c: float) -> np.ndarray:
    """Each row of grads scaled by min(1, c / its norm), to norm at most c."""
    norms = np.linalg.norm(grads, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.minimum(1.0, np.where(norms > 0, c / norms, 1.0))
    return grads * factors[:, None]


def blackbox_score(example, w0: np.ndarray, w_final: np.ndarray,
                   model) -> float:
    """Loss reduction of one (x, y) example between w0 and the final model,
    under model's loss."""
    x, y = example
    row = LossModel(model.kind, np.asarray(x, float)[None, :], [y])
    return float(row.example_losses(w0)[0] - row.example_losses(w_final)[0])


def binomial_sf(n: int, q: float, v: int) -> float:
    """Pr[Binomial(n, q) >= v] as the incomplete beta I_q(v, n - v + 1).

    Exactly 1.0 for v <= 0 and 0.0 for v > n; n >= 0 and q in [0, 1].
    """
    if n < 0 or not 0 <= q <= 1:
        raise ValueError(f"need n >= 0 and q in [0, 1], got n={n} q={q}")
    if v <= 0:
        return 1.0
    if v > n:
        return 0.0
    return float(special.betainc(v, n - v + 1, q))


def hoeffding_p_value_full_scan(m: int, r1: float, r2: float, v: float,
                                eps: float, delta: float) -> float:
    """The Hoeffding p-value with its delta term's max over all i = 1..m.

    f(x) = exp(-2 (x - q r1)^2 / r2^2) above the mean q r1 and 1 below it,
    q = e^eps / (e^eps + 1); the delta term is the closed form for
    v >= q r1 + 2 and max(0, max_i (f(v - i) - f(v)) / i) otherwise.
    """
    mean = float(special.expit(eps)) * r1

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < mean, 1.0, np.exp(-2.0 / r2 ** 2 * (x - mean) ** 2))

    fv = float(f(v))
    if delta == 0:
        return min(1.0, fv)
    if v >= mean + 2:
        dterm = max(2.0 / (v - mean), float(f((v + mean) / 2.0)))
    else:
        i = np.arange(1, m + 1)
        dterm = max(0.0, float(np.max((f(v - i) - fv) / i)))
    return min(1.0, fv + 2.0 * m * delta * dterm)
