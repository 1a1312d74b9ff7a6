"""Independent per-row references for the DP-SGD tests.

The trainer and the batch scorer work on scalar coefficients and whole
canary sets; these helpers state the same operations row by row, so the
tests can check one against the other.
"""

import numpy as np


def example_grads(model, w: np.ndarray, X: np.ndarray,
                  Y: np.ndarray) -> np.ndarray:
    """Per-example gradients a_i * X[i] of a LossModel, one row each."""
    if X.shape[0] == 0:
        return np.zeros((0, w.size))
    return model.example_coefs(w, X, Y)[:, None] * X


def clip_rows(grads: np.ndarray, c: float) -> np.ndarray:
    """Each row of grads scaled by min(1, c / its norm), to norm at most c."""
    norms = np.linalg.norm(grads, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.minimum(1.0, np.where(norms > 0, c / norms, 1.0))
    return grads * factors[:, None]


def blackbox_score(example, w0: np.ndarray, w_final: np.ndarray,
                   model) -> float:
    """Loss reduction of one (x, y) example between w0 and the final model."""
    x, y = example
    x = np.asarray(x, float)[None, :]
    y = np.array([y], dtype=float)
    return float(model.example_losses(w0, x, y)[0]
                 - model.example_losses(w_final, x, y)[0])
