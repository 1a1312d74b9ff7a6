"""Desk-scale noisy SGD with per-example clipping, and its audit scoring.

Implements the iterative mechanism most worth auditing: each step Poisson-
samples the training set, clips per-example gradients to norm c, adds
N(0, sigma^2 c^2 I) noise, and takes a gradient step; the full iterate
trace is returned.  Canaries are either gradient-space (one-hot "Dirac"
gradients of magnitude c, whose white-box score law is exactly Gaussian)
or input-space examples scored black-box by their loss reduction.

Models are deliberately small synthetic ones (logistic / linear / a
canary-only mode with zero data gradients) so score distributions are
exactly computable and a full audit runs in seconds.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np
from scipy import special

from .mechanisms import RdpParams, ZcdpParams, dpsgd_rdp_eps, gaussian_dp_eps
from .pipeline import MechanismAdapter


@dataclasses.dataclass(frozen=True)
class TrainerConfig:
    """Noisy-SGD hyperparameters.

    noise_multiplier may be zero, which degenerates to deterministic
    clipped gradient descent (useful as an oracle).
    """

    ell: int
    clip: float
    noise_multiplier: float
    sample_prob: float
    learning_rate: float
    dim: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.clip <= 0:
            raise ValueError(f"clip must be positive, got {self.clip}")
        if self.noise_multiplier < 0:
            raise ValueError(
                f"noise_multiplier must be >= 0, got {self.noise_multiplier}")
        if not 0 < self.sample_prob <= 1:
            raise ValueError(
                f"sample_prob must be in (0, 1], got {self.sample_prob}")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


@dataclasses.dataclass
class ModelTrace:
    """All iterates w^0..w^ell of one training run, shape (ell+1, dim)."""

    iterates: np.ndarray

    def __post_init__(self):
        self.iterates = np.asarray(self.iterates, dtype=float)
        if self.iterates.ndim != 2 or self.iterates.shape[0] < 2:
            raise ValueError("trace needs at least the initial and one iterate")
        if not np.all(np.isfinite(self.iterates)):
            raise ValueError("trace contains non-finite values")

    @property
    def ell(self) -> int:
        return self.iterates.shape[0] - 1


@dataclasses.dataclass(frozen=True)
class DiracCanary:
    """Gradient-space canary: gradient is `magnitude` at one coordinate."""

    index: int
    magnitude: float


@dataclasses.dataclass(frozen=True)
class ExampleCanarySet:
    """Input-space canaries: rows of (feature, label) scored via the loss."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, float))
        object.__setattr__(self, "labels", np.asarray(self.labels, float))
        if self.features.ndim != 2 or self.labels.shape != (len(self),):
            raise ValueError("need features (m, d) and labels (m,)")

    def __len__(self) -> int:
        return self.features.shape[0]


def dirac_canaries(m: int, d: int, c: float,
                   rng: np.random.Generator) -> list[DiracCanary]:
    """m canaries at distinct uniformly random coordinates, magnitude c."""
    if m > d:
        raise ValueError(f"need m <= d for distinct indices, got {m} > {d}")
    indices = rng.permutation(d)[:m]
    return [DiracCanary(index=int(i), magnitude=c) for i in indices]


@dataclasses.dataclass(frozen=True)
class LossModel:
    """Per-example loss on a small synthetic dataset.

    kind "logistic" uses labels in {-1, +1} with log-loss, "linear" squared
    loss, and "canary-only" has no data examples at all (zero data
    gradient), which isolates the noise mechanism.
    """

    kind: str
    features: np.ndarray
    labels: np.ndarray
    teacher: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("logistic", "linear", "canary-only"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        object.__setattr__(self, "features", np.asarray(self.features, float))
        object.__setattr__(self, "labels", np.asarray(self.labels, float))

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @classmethod
    def canary_only(cls, d: int) -> "LossModel":
        return cls(kind="canary-only", features=np.zeros((0, d)),
                   labels=np.zeros(0))

    @classmethod
    def synthetic(cls, kind: str, n: int, d: int, rng: np.random.Generator,
                  label_noise: float = 0.0) -> "LossModel":
        """Random features with labels from a hidden teacher vector."""
        teacher = rng.normal(0.0, 1.0, d)
        features = rng.normal(0.0, 1.0 / np.sqrt(d), (n, d))
        margins = features @ teacher + label_noise * rng.normal(0.0, 1.0, n)
        if kind == "logistic":
            labels = np.where(margins >= 0, 1.0, -1.0)
        elif kind == "linear":
            labels = margins
        else:
            raise ValueError(f"synthetic data undefined for kind {kind!r}")
        return cls(kind=kind, features=features, labels=labels,
                   teacher=teacher)

    def example_losses(self, w: np.ndarray, X: np.ndarray,
                       Y: np.ndarray) -> np.ndarray:
        if self.kind == "logistic":
            return np.logaddexp(0.0, -Y * (X @ w))
        if self.kind == "linear":
            return 0.5 * (X @ w - Y) ** 2
        raise ValueError("canary-only mode has no evaluable loss")

    def example_coefs(self, w: np.ndarray, X: np.ndarray,
                      Y: np.ndarray) -> np.ndarray:
        """Scalars a_i such that the gradient of example i is a_i * X[i]."""
        if self.kind == "logistic":
            return -Y * special.expit(-Y * (X @ w))
        if self.kind == "linear":
            return X @ w - Y
        raise ValueError("canary-only mode has no data gradients")

    def example_grads(self, w: np.ndarray, X: np.ndarray,
                      Y: np.ndarray) -> np.ndarray:
        if X.shape[0] == 0:
            return np.zeros((0, w.size))
        return self.example_coefs(w, X, Y)[:, None] * X


def mislabeled_canaries(model: LossModel, m: int,
                        rng: np.random.Generator) -> ExampleCanarySet:
    """Fresh in-distribution examples with deliberately flipped labels."""
    if model.teacher is None:
        raise ValueError("model has no teacher to label fresh examples")
    d = model.teacher.size
    X = rng.normal(0.0, 1.0 / np.sqrt(d), (m, d))
    truth = np.where(X @ model.teacher >= 0, 1.0, -1.0)
    return ExampleCanarySet(features=X, labels=-truth)


def _clip_magnitudes(mags: np.ndarray, c: float) -> np.ndarray:
    """Clip one-hot gradient magnitudes elementwise to absolute value c."""
    return mags * np.minimum(1.0, np.where(mags != 0, c / np.abs(mags), 1.0))


def _clip_rows(grads: np.ndarray, c: float) -> np.ndarray:
    norms = np.linalg.norm(grads, axis=1)
    # non-finite gradients flow through and are caught by the iterate check
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.minimum(1.0, np.where(norms > 0, c / norms, 1.0))
        return grads * factors[:, None]


def dpsgd_train(data: LossModel,
                canaries: Sequence[DiracCanary] | ExampleCanarySet | None,
                selection: np.ndarray | None, cfg: TrainerConfig,
                rng: np.random.Generator, w0: np.ndarray | None = None
                ) -> ModelTrace:
    """Train with per-example clipping and Gaussian noise; return all iterates.

    Data examples are always in the training set; canary i participates iff
    selection[i] == +1.  Every element of the training set is resampled
    independently with probability sample_prob at each step (at
    sample_prob = 1 no sampling coins are drawn).  The update is
    w <- w - lr * (noise + sum of clipped per-example gradients).
    """
    d = cfg.dim
    if data.n_examples and data.features.shape[1] != d:
        raise ValueError(
            f"data dimension {data.features.shape[1]} != cfg.dim {d}")
    dirac_idx = None
    if canaries is None:
        n_canaries = 0
    elif isinstance(canaries, ExampleCanarySet):
        n_canaries = len(canaries)
    else:
        dirac_idx = np.array([c.index for c in canaries], dtype=int)
        dirac_mag = np.array([c.magnitude for c in canaries], dtype=float)
        if dirac_idx.size and (dirac_idx.min() < 0 or dirac_idx.max() >= d):
            raise ValueError("canary index out of range")
        n_canaries = dirac_idx.size
    n_inc = 0
    if n_canaries:
        selection = np.asarray(selection)
        if selection.shape != (n_canaries,):
            raise ValueError(
                f"selection length {selection.shape} != {n_canaries} canaries")
        included = selection == 1
        n_inc = int(included.sum())
        if dirac_idx is not None:
            dirac_idx = dirac_idx[included]
            dirac_mag = _clip_magnitudes(dirac_mag[included], cfg.clip)
    q, c, lr = cfg.sample_prob, cfg.clip, cfg.learning_rate

    # Row blocks with clipped per-example gradients: the data rows, then the
    # included example canaries.  Row i's gradient is a_i * x_i, so its
    # clipped form is b_i * x_i with b_i = a_i * min(1, c / (|a_i| ||x_i||)),
    # and a block's clipped sum over its sampled rows is the mat-vec b @ X
    # with b_i = 0 on rows not sampled this step.
    blocks = [(data.features, data.labels)]
    if dirac_idx is None and n_inc:
        blocks.append((canaries.features[included], canaries.labels[included]))
    blocks = [(X, Y, np.linalg.norm(X, axis=1)) for X, Y in blocks if len(X)]

    def clipped_row_sum(w, X, Y, row_norms, sampled):
        a = data.example_coefs(w, X, Y)
        # non-finite gradients flow through and are caught by the iterate check
        with np.errstate(divide="ignore", invalid="ignore"):
            norms = np.abs(a) * row_norms
            b = a * np.minimum(1.0, np.where(norms > 0, c / norms, 1.0))
        if sampled is not None:
            b[~sampled] = 0.0
        return b @ X

    # Full batch with no rows: the Dirac sum is the same every step.
    fixed_sum = None
    if q == 1 and not blocks:
        fixed_sum = np.zeros(d)
        if dirac_idx is not None:
            np.add.at(fixed_sum, dirac_idx, dirac_mag)

    w = np.zeros(d) if w0 is None else np.array(w0, dtype=float)
    iterates = np.empty((cfg.ell + 1, d))
    iterates[0] = w
    for step in range(1, cfg.ell + 1):
        if fixed_sum is not None:
            gsum = fixed_sum
        else:  # sampling coins: data rows, then the included canaries
            gsum = np.zeros(d)
            for X, Y, row_norms in blocks:
                sampled = None if q == 1 else rng.random(len(X)) < q
                gsum += clipped_row_sum(w, X, Y, row_norms, sampled)
            if dirac_idx is not None:
                on = slice(None) if q == 1 else rng.random(n_inc) < q
                np.add.at(gsum, dirac_idx[on], dirac_mag[on])
        noise = rng.normal(0.0, cfg.noise_multiplier * c, d)
        w = w - lr * (noise + gsum)
        if not np.all(np.isfinite(w)):
            raise RuntimeError(f"non-finite iterate at step {step}")
        iterates[step] = w
    return ModelTrace(iterates=iterates)


def whitebox_score(canary, trace: ModelTrace, cfg: TrainerConfig,
                   model: LossModel | None = None) -> float:
    """Sum over steps of <w^(t-1) - w^t, clipped canary gradient at w^(t-1)>.

    For a Dirac canary the clipped gradient is constant, so the score
    reduces to the net displacement of its coordinate times the clipped
    magnitude.  For an input-space canary (x, y) pass the loss model so
    the gradient can be recomputed at each iterate.
    """
    its = trace.iterates
    if isinstance(canary, DiracCanary):
        mag = canary.magnitude
        clipped = mag * min(1.0, cfg.clip / abs(mag)) if mag != 0 else 0.0
        diffs = its[:-1, canary.index] - its[1:, canary.index]
        return float(clipped * diffs.sum())
    if model is None:
        raise ValueError("input-space canaries need the loss model")
    x, y = canary
    x = np.asarray(x, float)
    total = 0.0
    for t in range(trace.ell):
        g = model.example_grads(its[t], x[None, :], np.array([y]))[0]
        total += float((its[t] - its[t + 1]) @ _clip_rows(g[None, :], cfg.clip)[0])
    return total


def whitebox_scores(canaries: Sequence[DiracCanary], trace: ModelTrace,
                    cfg: TrainerConfig) -> np.ndarray:
    """Vectorized white-box scores for a set of Dirac canaries."""
    idx = np.array([c.index for c in canaries], dtype=int)
    mags = np.array([c.magnitude for c in canaries], dtype=float)
    clipped = _clip_magnitudes(mags, cfg.clip)
    cols = trace.iterates[:, idx]
    return clipped * (cols[:-1] - cols[1:]).sum(axis=0)


def blackbox_score(example, w0: np.ndarray, w_final: np.ndarray,
                   loss_model: LossModel) -> float:
    """Loss reduction of one example: loss at w0 minus loss at the final model.

    Higher reduction suggests the example was trained on.
    """
    x, y = example
    x = np.asarray(x, float)[None, :]
    y = np.array([y], dtype=float)
    return float(loss_model.example_losses(w0, x, y)[0]
                 - loss_model.example_losses(w_final, x, y)[0])


def blackbox_scores(canaries: ExampleCanarySet, trace: ModelTrace,
                    model: LossModel) -> np.ndarray:
    w0, w_final = trace.iterates[0], trace.iterates[-1]
    return (model.example_losses(w0, canaries.features, canaries.labels)
            - model.example_losses(w_final, canaries.features, canaries.labels))


def privacy_accounting(cfg: TrainerConfig) -> ZcdpParams | RdpParams:
    """Closed-form accounting record for a training configuration.

    Full-batch runs (sample_prob = 1) compose Gaussian mechanisms, giving
    rho = ell / (2 sigma^2) of concentrated DP; subsampled runs get the
    order-2 Renyi bound.
    """
    if cfg.noise_multiplier == 0:
        raise ValueError("no privacy guarantee without noise")
    if cfg.sample_prob == 1:
        return ZcdpParams(rho=cfg.ell / (2.0 * cfg.noise_multiplier ** 2))
    return RdpParams(order=2.0, eps_check=dpsgd_rdp_eps(
        cfg.ell, cfg.sample_prob, cfg.noise_multiplier))


def theoretical_eps_upper(cfg: TrainerConfig, delta: float) -> float:
    """Upper bound on eps at the given delta for this configuration.

    sample_prob = 1: convert the composed concentrated-DP parameter through
    the exact Gaussian privacy curve.  sample_prob < 1: order-2 Renyi bound
    converted as eps <= eps_check + log(1/delta).
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    record = privacy_accounting(cfg)
    if isinstance(record, ZcdpParams):
        return gaussian_dp_eps(record.rho, delta)
    return record.eps_check + np.log(1.0 / delta)


def whitebox_adapter(model: LossModel, canaries: Sequence[DiracCanary],
                     cfg: TrainerConfig, delta: float = 1e-5) -> MechanismAdapter:
    """Audit adapter: train gated on the selection, emit white-box scores."""

    def run(s, rng):
        trace = dpsgd_train(model, canaries, s, cfg, rng)
        return whitebox_scores(canaries, trace, cfg)

    return MechanismAdapter(name="dpsgd-whitebox", run=run, output="scores",
                            eps=theoretical_eps_upper(cfg, delta), delta=delta)


def blackbox_adapter(model: LossModel, canaries: ExampleCanarySet,
                     cfg: TrainerConfig, delta: float = 1e-5) -> MechanismAdapter:
    """Audit adapter scoring canaries by loss reduction of the final model."""

    def run(s, rng):
        trace = dpsgd_train(model, canaries, s, cfg, rng)
        return blackbox_scores(canaries, trace, model)

    return MechanismAdapter(name="dpsgd-blackbox", run=run, output="scores",
                            eps=theoretical_eps_upper(cfg, delta), delta=delta)
