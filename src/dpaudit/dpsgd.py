"""Desk-scale noisy SGD with per-example clipping, and its audit scoring.

Implements the iterative mechanism most worth auditing: each step Poisson-
samples the training set, clips per-example gradients to norm c, adds
N(0, sigma^2 c^2 I) noise, and takes a gradient step; the trainer returns
the final model, which is all an audit reads.  Canaries are either
gradient-space "Dirac" canaries, each a coordinate whose gradient is the
clip norm c there (clipping never changes it, its white-box score is c
times the coordinate's net displacement, and its law is exactly
Gaussian), or input-space examples scored black-box by their loss
reduction.

Models are deliberately small synthetic ones (logistic / linear / a
canary-only mode with zero data gradients) so score distributions are
exactly computable and a full audit runs in seconds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import special

from .estimator import check_counts, check_order, check_reals
from .mechanisms import gaussian_dp_delta, gaussian_dp_eps
from .pipeline import MechanismAdapter


# Each noisy-SGD setting once: config key -> (TrainerConfig field, type,
# REAL_INTERVALS interval), checked by TrainerConfig and the config parser.
TRAINER_KEYS = {
    "iterations": ("ell", int, "[1, inf]"),
    "clip": ("clip", float, "(0, inf)"),
    "noise_multiplier": ("noise_multiplier", float, "[0, inf]"),
    "sample_prob": ("sample_prob", float, "(0, 1]"),
    "learning_rate": ("learning_rate", float, "(0, inf)"),
    "dim": ("dim", int, "[1, inf]"),
}

NOISE_RULE = ("keep 1 / noise_multiplier^2 and {ell} / (2 noise_multiplier^2) "
              "finite and positive")


def noise_rule_ok(sigma: float, ell: int) -> bool:
    """Whether sigma satisfies NOISE_RULE, which the accounting reads."""
    var = sigma * sigma
    return (var > 0 and 0 < 1.0 / var < math.inf
            and 0 < ell / (2.0 * var) < math.inf)


@dataclasses.dataclass(frozen=True)
class TrainerConfig:
    """Noisy-SGD hyperparameters, each in its interval of TRAINER_KEYS.

    noise_multiplier may be zero (clipped gradient descent, an oracle with
    no privacy guarantee) or inf; privacy_accounting rejects both.
    """

    ell: int
    clip: float
    noise_multiplier: float
    sample_prob: float
    learning_rate: float
    dim: int

    def __post_init__(self):
        for field, kind, interval in TRAINER_KEYS.values():
            value = {field: getattr(self, field)}
            if kind is int:
                check_counts(**value)
            check_reals(interval, **value)

    @classmethod
    def from_config(cls, config: dict) -> "TrainerConfig":
        """The trainer settings of a dpsgd-audit config, by TRAINER_KEYS."""
        return cls(**{field: config[key]
                      for key, (field, *_) in TRAINER_KEYS.items()})


def dirac_canaries(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Coordinates of m Dirac canaries, distinct and uniformly random."""
    check_counts(0, m=m, d=d)
    check_order(m=m, d=d)  # distinct indices
    return rng.permutation(d)[:m]


def _normal_rows(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """rng.normal(0.0, 1 / sqrt(d), (n, d)) as standard_normal scaled in place:
    equal but where a draw is -0.0 (chance 2**-53), which keeps its sign."""
    rows = rng.standard_normal((n, d))
    rows *= 1.0 / np.sqrt(d)
    return rows


@dataclasses.dataclass(frozen=True)
class LossModel:
    """Labeled rows and their per-example loss: a small synthetic dataset,
    or input-space canaries trained and scored under the data's loss.

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
        if self.features.ndim != 2 or self.labels.shape != (self.n_examples,):
            raise ValueError(f"need features (n, d) and labels (n,), got "
                             f"{self.features.shape} and {self.labels.shape}")

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @classmethod
    def canary_only(cls, d: int) -> "LossModel":
        check_counts(0, d=d)
        return cls(kind="canary-only", features=np.zeros((0, d)),
                   labels=np.zeros(0))

    @classmethod
    def synthetic(cls, kind: str, n: int, d: int, rng: np.random.Generator,
                  label_noise: float = 0.0) -> "LossModel":
        """Random features with labels from a hidden teacher vector."""
        check_counts(0, n=n)
        check_counts(1, d=d)
        teacher = rng.normal(0.0, 1.0, d)
        features = _normal_rows(n, d, rng)
        with np.errstate(over="ignore"):
            margins = features @ teacher + label_noise * rng.normal(0.0, 1.0, n)
        if not np.all(np.isfinite(margins)):
            raise ValueError(f"label_noise {label_noise!r} overflows a margin")
        if kind == "logistic":
            labels = np.where(margins >= 0, 1.0, -1.0)
        elif kind == "linear":
            labels = margins
        else:
            raise ValueError(f"synthetic data undefined for kind {kind!r}")
        return cls(kind=kind, features=features, labels=labels,
                   teacher=teacher)

    def example_losses(self, w: np.ndarray) -> np.ndarray:
        if self.kind == "logistic":
            return np.logaddexp(0.0, -self.labels * (self.features @ w))
        if self.kind == "linear":
            return 0.5 * (self.features @ w - self.labels) ** 2
        raise ValueError("canary-only mode has no evaluable loss")

    def example_coefs(self, w: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Scalars a_i such that the gradient of row i is a_i * features[i],
        written into out (shape (n,)) when it is given."""
        if self.kind == "canary-only":
            raise ValueError("canary-only mode has no data gradients")
        X, Y = self.features, self.labels
        a = np.matmul(X, w, out=out)
        if self.kind == "linear":
            return np.subtract(a, Y, out=a)
        # -Y * expit(-Y * Xw) in place: -(Y * x) is (-Y) * x to the bit
        special.expit(np.negative(np.multiply(a, Y, out=a), out=a), out=a)
        return np.negative(np.multiply(a, Y, out=a), out=a)


def mislabeled_canaries(model: LossModel, m: int,
                        rng: np.random.Generator) -> LossModel:
    """Fresh in-distribution rows of the model's loss, labels flipped."""
    if model.teacher is None:
        raise ValueError("model has no teacher to label fresh examples")
    check_counts(0, m=m)
    d = model.teacher.size
    X = _normal_rows(m, d, rng)
    truth = np.where(X @ model.teacher >= 0, 1.0, -1.0)
    return LossModel(model.kind, X, -truth)


def dpsgd_train(data: LossModel, canaries: np.ndarray | LossModel,
                selection: np.ndarray, cfg: TrainerConfig,
                rng: np.random.Generator) -> np.ndarray:
    """Train with per-example clipping and Gaussian noise; return the model.

    Data examples are always in the training set; canary i participates iff
    selection[i] == +1; a Dirac canary is its coordinate, and a repeated
    coordinate adds c once per canary; example canaries are rows of the
    data's loss kind.  Every element of the training set is resampled
    independently with probability sample_prob at each step (at
    sample_prob = 1 no sampling coins are drawn).  The update is
    w <- w - lr * (noise + sum of clipped per-example gradients) from w = 0,
    and the final iterate w^ell is returned; no other iterate is kept.
    """
    d = cfg.dim
    dirac_idx = None
    if isinstance(canaries, LossModel):
        if canaries.kind != data.kind:
            raise ValueError(f"canary loss kind {canaries.kind!r} != data "
                             f"loss kind {data.kind!r}")
        n_canaries = canaries.n_examples
    else:
        dirac_idx = np.asarray(canaries, dtype=int)
        if dirac_idx.size and (dirac_idx.min() < 0 or dirac_idx.max() >= d):
            raise ValueError(f"canary index out of range for cfg.dim {d}")
        n_canaries = dirac_idx.size
    for name, rows in (("data", data), ("canary", canaries)):
        if isinstance(rows, LossModel) and rows.features.shape[1] != d:
            raise ValueError(
                f"{name} dimension {rows.features.shape[1]} != cfg.dim {d}")
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
    q, c, lr = cfg.sample_prob, cfg.clip, cfg.learning_rate

    # Row blocks with clipped per-example gradients: the data rows, then the
    # included example canaries.  Row i's gradient is a_i * x_i, so clipping
    # it to norm c clips a_i to +-c / ||x_i|| (no bound on a zero row), and a
    # block's clipped sum over its sampled rows is the mat-vec b @ X with
    # b_i = 0 on rows not sampled this step.  Each block keeps its bounds and
    # the buffers of its step: b, the coins and the mask of rows left out.
    blocks = [data]
    if dirac_idx is None and n_inc:
        blocks.append(LossModel(canaries.kind, canaries.features[included],
                                canaries.labels[included]))
    # row norms without the n x d temporary of np.linalg.norm(X, axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        blocks = [(rows, -high, high, np.empty(len(X)), np.empty(len(X)),
                   np.empty(len(X), dtype=bool))
                  for rows in blocks if rows.n_examples for X in [rows.features]
                  for high in [c / np.sqrt(np.einsum("ij,ij->i", X, X))]]

    w, gsum, row_sum = np.zeros(d), np.empty(d), np.empty(d)
    noise, finite = np.empty(d), np.empty(d, dtype=bool)
    # non-finite values flow on to the iterate check, which names the step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for step in range(1, cfg.ell + 1):
            # sampling coins: data rows, then the included canaries
            gsum.fill(0.0)  # 0 + b @ X turns a -0.0 sum into +0.0
            for rows, low, high, b, coins, skip in blocks:
                rows.example_coefs(w, out=b)
                np.maximum(b, low, out=b)
                np.minimum(b, high, out=b)
                if q < 1:
                    rng.random(out=coins)
                    np.greater_equal(coins, q, out=skip)
                    np.putmask(b, skip, 0.0)
                gsum += np.matmul(b, rows.features, out=row_sum)
            if dirac_idx is not None:
                on = slice(None) if q == 1 else rng.random(n_inc) < q
                np.add.at(gsum, dirac_idx[on], c)
            # rng.normal(0, sigma c, d) is 0.0 + sigma c z; the 0.0 changes
            # only a -0.0, which adding gsum (never -0.0) turns into +0.0
            rng.standard_normal(out=noise)
            noise *= cfg.noise_multiplier * c
            noise += gsum
            noise *= lr
            w -= noise  # w <- w - lr * (noise + gsum)
            if not np.isfinite(w, out=finite).all():
                raise RuntimeError(f"non-finite iterate at step {step}")
    return w


def whitebox_scores(canaries: np.ndarray, w_final: np.ndarray,
                    cfg: TrainerConfig) -> np.ndarray:
    """White-box scores of Dirac canaries, given as their coordinates.

    A canary's score is the sum over steps of <w^(t-1) - w^t, its clipped
    gradient>.  That gradient is the clip norm c at its coordinate j at
    every step, so the sum telescopes from w^0 = 0 to c * (0 - w_final[j]).
    """
    return cfg.clip * (0.0 - w_final[canaries])  # -clip * x gives -0.0 at +0.0


def blackbox_scores(canaries: LossModel, w_final: np.ndarray) -> np.ndarray:
    """Each canary's loss at the initial model w^0 = 0 minus its loss at the
    final model; a higher reduction suggests the canary was trained on."""
    return (canaries.example_losses(np.zeros_like(w_final))
            - canaries.example_losses(w_final))


def privacy_accounting(cfg: TrainerConfig) -> dict[str, float]:
    """Closed-form accounting record for a training configuration.

    Full-batch runs (sample_prob = 1) compose Gaussian mechanisms, giving
    {"rho": ell / (2 sigma^2)} of concentrated DP; subsampled runs get
    {"order": 2.0, "eps_check": x}, x the Renyi bound of :func:`_rdp2_eps`.
    """
    sigma = cfg.noise_multiplier
    if not noise_rule_ok(sigma, cfg.ell):
        raise ValueError(f"noise_multiplier must {NOISE_RULE.format(ell='ell')}"
                         f", got {sigma!r}")
    try:  # the rule holds, but 2 rho or eps_check may still overflow
        if cfg.sample_prob == 1:
            rho = cfg.ell / (2.0 * sigma * sigma)
            gaussian_dp_delta(rho, math.inf)  # the curve needs 2 rho finite
            return {"rho": rho}
        eps_check = _rdp2_eps(cfg.ell, cfg.sample_prob, sigma)
        check_reals("[0, inf)", eps_check=eps_check)
        return {"order": 2.0, "eps_check": eps_check}
    except ValueError as exc:
        raise ValueError(
            f"noise_multiplier {sigma!r} overflows: {exc}") from None


def _rdp2_eps(ell: int, q: float, sigma: float) -> float:
    """ell * log(1 + q^2 (exp(1/sigma^2) - 1)), the order-2 Renyi privacy of
    ell noisy-SGD steps at sampling rate q in (0, 1], 1/sigma^2 finite and
    positive.  Where exp(1/sigma^2) overflows or q^2 underflows, the log
    term is log(1 + e^y) with y = log(q^2 (e^(1/sigma^2) - 1))."""
    x = 1.0 / (sigma * sigma)
    if q * q >= np.finfo(float).tiny:
        try:
            return ell * math.log1p(q * q * math.expm1(x))
        except OverflowError:
            pass
    y = 2.0 * math.log(q) + x + math.log(-math.expm1(-x))
    return ell * float(np.logaddexp(0.0, y))


def theoretical_eps_upper(cfg: TrainerConfig, delta: float) -> float:
    """Upper bound on eps at the given delta for this configuration.

    sample_prob = 1: convert the composed concentrated-DP parameter through
    the exact Gaussian privacy curve.  sample_prob < 1: order-2 Renyi bound
    converted as eps <= eps_check + log(1/delta).
    """
    check_reals("(0, 1)", delta=delta)
    record = privacy_accounting(cfg)
    if "rho" in record:
        return gaussian_dp_eps(record["rho"], delta)
    # log(1/delta), read as -log(delta) where 1/delta overflows
    inverse = 1.0 / delta
    return record["eps_check"] + (np.log(inverse) if inverse < math.inf
                                  else -np.log(delta))


def audit_adapter(model: LossModel, canaries: np.ndarray | LossModel,
                  cfg: TrainerConfig, delta: float = 1e-5) -> MechanismAdapter:
    """Audit adapter: train gated on the selection, score the final model.

    The canaries' form picks the scorer: Dirac coordinates get white-box
    scores, example canaries (a LossModel) black-box loss reductions.
    """
    blackbox = isinstance(canaries, LossModel)

    def run(s, rng):
        w_final = dpsgd_train(model, canaries, s, cfg, rng)
        if blackbox:
            return blackbox_scores(canaries, w_final)
        return whitebox_scores(canaries, w_final, cfg)

    return MechanismAdapter(
        name="dpsgd-blackbox" if blackbox else "dpsgd-whitebox", run=run,
        output="scores", eps=theoretical_eps_upper(cfg, delta), delta=delta)


def adapter_dpsgd_audit(config: dict) -> MechanismAdapter:
    """The audit adapter of a parsed dpsgd-audit config.

    The model, then the canaries, come from the seed stream [seed, 1], so
    they are independent of the selection coins and noise drawn from seed.
    """
    cfg = TrainerConfig.from_config(config)
    setup_rng = np.random.default_rng([config["seed"], 1])
    if config["loss"] == "canary-only":
        model = LossModel.canary_only(cfg.dim)
    else:
        model = LossModel.synthetic(config["loss"], config["data_examples"],
                                    cfg.dim, setup_rng, config["label_noise"])
    if config["mode"] == "whitebox":
        canaries = dirac_canaries(config["m"], cfg.dim, setup_rng)
    else:
        canaries = mislabeled_canaries(model, config["m"], setup_rng)
    return audit_adapter(model, canaries, cfg, config["delta"])
