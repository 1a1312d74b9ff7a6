"""Trainer, canaries, scoring, accounting, and the audit adapters."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from dpaudit.dpsgd import (
    LossModel,
    TrainerConfig,
    blackbox_scores,
    dirac_canaries,
    dpsgd_train,
    mislabeled_canaries,
    privacy_accounting,
    theoretical_eps_upper,
    whitebox_scores,
)
from dpaudit.mechanisms import gaussian_dp_delta, gaussian_dp_eps
from dpaudit.pipeline import sample_selection
from references import blackbox_score, clip_rows, example_grads

# no canaries: an empty coordinate array
NO_CANARIES = np.zeros(0, dtype=int)


def plain_clipped_gd(model, w0, ell, clip, lr):
    """Independent full-batch clipped gradient descent oracle."""
    w = np.array(w0, dtype=float)
    trace = [w.copy()]
    for _ in range(ell):
        total = np.zeros_like(w)
        for x, y in zip(model.features, model.labels):
            if model.kind == "logistic":
                g = -y * special.expit(-y * (x @ w)) * x
            else:
                g = (x @ w - y) * x
            norm = np.linalg.norm(g)
            if norm > clip:
                g = g * (clip / norm)
            total += g
        w = w - lr * total
        trace.append(w.copy())
    return np.array(trace)


# ---------------------------------------------------------------------------
# training


def reference_train(data, canaries, selection, cfg, rng):
    """Per-step loop that clips each sampled row of the gradient matrix,
    training on canary i iff selection[i] == +1.

    Same RNG draws in the same order as the trainer: data coins, canary
    coins, then the noise.
    """
    q, c, d = cfg.sample_prob, cfg.clip, cfg.dim
    dirac = not isinstance(canaries, LossModel)
    included = np.asarray(selection) == 1
    if dirac:  # each included coordinate's gradient is c there
        idx = np.asarray(canaries)[included]
        n_inc = idx.size
    else:
        inc_X = canaries.features[included]
        inc_y = canaries.labels[included]
        n_inc = inc_X.shape[0]
    w = np.zeros(d)
    iterates = [w]
    for _ in range(cfg.ell):
        gsum = np.zeros(d)
        if data.n_examples:
            mask = slice(None) if q == 1 else rng.random(data.n_examples) < q
            grads = example_grads(data, w, data.features[mask],
                                  data.labels[mask])
            gsum += clip_rows(grads, c).sum(axis=0)
        if n_inc:
            mask = slice(None) if q == 1 else rng.random(n_inc) < q
            if dirac:
                np.add.at(gsum, idx[mask], c)
            else:
                grads = example_grads(data, w, inc_X[mask], inc_y[mask])
                gsum += clip_rows(grads, c).sum(axis=0)
        noise = rng.normal(0.0, cfg.noise_multiplier * c, d)
        w = w - cfg.learning_rate * (noise + gsum)
        iterates.append(w)
    return np.array(iterates)


def trajectory(data, canaries, cfg, seed):
    """Iterates w^0..w^ell of one run: each prefix 1..ell trained from seed.

    The trainer returns only the final model; every prefix replays the same
    draws, so its final model is that run's iterate at that step.
    """
    iterates = [np.zeros(cfg.dim)]
    for t in range(1, cfg.ell + 1):
        iterates.append(dpsgd_train(data, canaries,
                                    dataclasses.replace(cfg, ell=t),
                                    np.random.default_rng(seed)))
    return np.array(iterates)


def assert_iterates_close(actual, expected):
    # relative 1e-12; the absolute floor covers coordinates that cancel to
    # near zero, where a last-bit difference is a large relative one
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", ["logistic", "linear"])
@pytest.mark.parametrize("sample_prob", [1.0, 0.5])
def test_trainer_matches_per_row_clipping_reference(kind, sample_prob):
    # data rows plus example canaries, noise on, clip small enough to bind
    d, m = 30, 40
    setup = np.random.default_rng(20)
    model = LossModel.synthetic(kind, n=60, d=d, rng=setup, label_noise=0.3)
    canaries = mislabeled_canaries(model, m, setup)
    s = sample_selection(m, setup)
    cfg = TrainerConfig(ell=25, clip=0.3, noise_multiplier=0.8,
                        sample_prob=sample_prob, learning_rate=0.1, dim=d)
    rng_new, rng_ref = np.random.default_rng(21), np.random.default_rng(21)
    dpsgd_train(model, canaries[s == 1], cfg, rng_new)
    expected = reference_train(model, canaries, s, cfg, rng_ref)
    assert rng_new.random() == rng_ref.random()
    assert_iterates_close(trajectory(model, canaries[s == 1], cfg, 21),
                          expected)


@pytest.mark.parametrize("sample_prob", [1.0, 0.5])
@pytest.mark.parametrize("with_data", [False, True])
def test_trainer_matches_reference_with_dirac_canaries(sample_prob, with_data):
    # canary-only runs are bit-identical; with data rows only the clipped
    # data sum is reassociated
    d, m = 50, 30
    setup = np.random.default_rng(22)
    model = (LossModel.synthetic("logistic", n=40, d=d, rng=setup)
             if with_data else LossModel.canary_only(d))
    canaries = dirac_canaries(m, d, setup)
    s = sample_selection(m, setup)
    cfg = TrainerConfig(ell=20, clip=1.0, noise_multiplier=2.0,
                        sample_prob=sample_prob, learning_rate=0.2, dim=d)
    rng_new, rng_ref = np.random.default_rng(23), np.random.default_rng(23)
    dpsgd_train(model, canaries[s == 1], cfg, rng_new)
    expected = reference_train(model, canaries, s, cfg, rng_ref)
    assert rng_new.random() == rng_ref.random()
    iterates = trajectory(model, canaries[s == 1], cfg, 23)
    if with_data:
        assert_iterates_close(iterates, expected)
    else:
        assert np.array_equal(iterates, expected)


@pytest.mark.parametrize("kind", ["logistic", "linear"])
def test_noiseless_full_batch_matches_plain_gd(kind):
    rng = np.random.default_rng(0)
    model = LossModel.synthetic(kind, n=25, d=6, rng=rng)
    cfg = TrainerConfig(ell=30, clip=0.5, noise_multiplier=0.0,
                        sample_prob=1.0, learning_rate=0.2, dim=6)
    iterates = trajectory(model, NO_CANARIES, cfg, 1)
    oracle = plain_clipped_gd(model, np.zeros(6), 30, 0.5, 0.2)
    np.testing.assert_allclose(iterates, oracle, atol=1e-10)


def test_clip_invariant_enforced():
    rng = np.random.default_rng(2)
    # teacher-scale labels make raw linear gradients much larger than clip
    model = LossModel.synthetic("linear", n=40, d=5, rng=rng)
    raw = example_grads(model, np.zeros(5), model.features, model.labels)
    assert np.linalg.norm(raw, axis=1).max() > 0.05
    clipped = clip_rows(raw, 0.05)
    assert np.all(np.linalg.norm(clipped, axis=1) <= 0.05 * (1 + 1e-9))
    # the trainer applies that clip: noiseless full-batch training equals
    # the independent clipped gradient descent oracle
    cfg = TrainerConfig(ell=10, clip=0.05, noise_multiplier=0.0,
                        sample_prob=1.0, learning_rate=0.1, dim=5)
    iterates = trajectory(model, NO_CANARIES, cfg, 3)
    oracle = plain_clipped_gd(model, np.zeros(5), 10, 0.05, 0.1)
    np.testing.assert_allclose(iterates, oracle, atol=1e-10)


def test_canary_only_updates_unroll_exactly():
    # sigma = 0, q = 1: each step moves by lr * clip on each included
    # coordinate, once per canary there (the last case repeats coordinate 3)
    d, m = 12, 8
    repeated = np.array([3, 3, 0, 7, 3, 11, 5, 7])
    for clip, fixed in [(0.7, None), (1.0, None), (0.4, repeated)]:
        rng = np.random.default_rng(4)
        canaries = dirac_canaries(m, d, rng) if fixed is None else fixed
        s = sample_selection(m, rng)
        cfg = TrainerConfig(ell=5, clip=clip, noise_multiplier=0.0,
                            sample_prob=1.0, learning_rate=0.3, dim=d)
        iterates = trajectory(LossModel.canary_only(d), canaries[s == 1],
                              cfg, 5)
        expected_step = np.zeros(d)
        for canary, si in zip(canaries, s):
            if si == 1:
                expected_step[canary] += 0.3 * clip
        for t in range(5):
            np.testing.assert_allclose(
                iterates[t] - iterates[t + 1], expected_step,
                atol=1e-12)


def test_poisson_sampling_thins_gradient():
    # at q = 0.25 roughly a quarter of canaries contribute per step
    d = m = 400
    rng = np.random.default_rng(6)
    canaries = dirac_canaries(m, d, rng)
    cfg = TrainerConfig(ell=200, clip=1.0, noise_multiplier=0.0,
                        sample_prob=0.25, learning_rate=1.0, dim=d)
    iterates = trajectory(LossModel.canary_only(d), canaries, cfg, 7)
    steps = iterates[:-1] - iterates[1:]
    per_step_mass = steps.sum(axis=1)
    assert per_step_mass.mean() == pytest.approx(0.25 * m, rel=0.05)
    assert per_step_mass.std() > 0


def test_training_error_reports_step():
    model = LossModel.synthetic("linear", n=10, d=3,
                                rng=np.random.default_rng(8))
    cfg = TrainerConfig(ell=4, clip=1.0, noise_multiplier=0.0,
                        sample_prob=1.0, learning_rate=1e308, dim=3)
    with pytest.raises(RuntimeError, match="step 1"):
        dpsgd_train(model, NO_CANARIES, cfg, np.random.default_rng(9))


def test_trainer_config_validates():
    with pytest.raises(ValueError):
        TrainerConfig(ell=0, clip=1.0, noise_multiplier=1.0, sample_prob=1.0,
                      learning_rate=0.1, dim=4)
    with pytest.raises(ValueError):
        TrainerConfig(ell=1, clip=1.0, noise_multiplier=1.0, sample_prob=0.0,
                      learning_rate=0.1, dim=4)


@pytest.mark.parametrize("field", ["clip", "learning_rate"])
def test_trainer_config_rejects_infinite_step_sizes(field):
    base = dict(ell=1, clip=1.0, noise_multiplier=1.0, sample_prob=1.0,
                learning_rate=0.1, dim=4)
    with pytest.raises(ValueError,
                       match=f"^{field} must be positive and finite"):
        TrainerConfig(**dict(base, **{field: math.inf}))


# ---------------------------------------------------------------------------
# canaries


def test_dirac_canaries_full_permutation():
    rng = np.random.default_rng(10)
    canaries = dirac_canaries(10, 10, rng)
    assert sorted(canaries) == list(range(10))


def test_dirac_canaries_distinct_and_reproducible():
    a = dirac_canaries(3, 10, np.random.default_rng(11))
    b = dirac_canaries(3, 10, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert np.array_equal(a, np.random.default_rng(11).permutation(10)[:3])
    assert len(set(a.tolist())) == 3
    with pytest.raises(ValueError):
        dirac_canaries(11, 10, np.random.default_rng(12))


# ---------------------------------------------------------------------------
# white-box scoring


def test_whitebox_score_constant_trace_is_zero():
    # a final model still at w^0 = 0 moved no canary coordinate
    cfg = TrainerConfig(ell=5, clip=1.0, noise_multiplier=1.0,
                        sample_prob=1.0, learning_rate=0.1, dim=4)
    assert np.array_equal(whitebox_scores(np.array([2, 0]), np.zeros(4), cfg),
                          [0.0, 0.0])


def test_whitebox_score_law_in_canary_only_mode():
    # one-hot canary score is Normal(lr*ell*c^2, lr^2 c^4 sigma^2 ell) if
    # included and Normal(0, same variance) if excluded
    d = m = 4000
    ell, sigma, c, lr = 50, 5.0, 1.0, 0.1
    rng = np.random.default_rng(13)
    canaries = dirac_canaries(m, d, rng)
    s = sample_selection(m, rng)
    cfg = TrainerConfig(ell=ell, clip=c, noise_multiplier=sigma,
                        sample_prob=1.0, learning_rate=lr, dim=d)
    w_final = dpsgd_train(LossModel.canary_only(d), canaries[s == 1], cfg,
                          rng)
    scores = whitebox_scores(canaries, w_final, cfg)
    mean_in = lr * ell * c * c
    var = lr * lr * c ** 4 * sigma * sigma * ell
    inn, out = scores[s == 1], scores[s == -1]
    for sample, mu in ((inn, mean_in), (out, 0.0)):
        n = sample.size
        assert sample.mean() == pytest.approx(
            mu, abs=4 * math.sqrt(var / n))
        assert sample.var(ddof=1) == pytest.approx(
            var, abs=4 * var * math.sqrt(2.0 / (n - 1)))


def test_whitebox_scores_match_singular():
    # the telescoped score equals the per-step sum of
    # <w^(t-1) - w^t, canary gradient> over the reference trainer's iterates
    d = 20
    rng = np.random.default_rng(14)
    canaries = dirac_canaries(5, d, rng)
    s = sample_selection(5, rng)
    cfg = TrainerConfig(ell=8, clip=0.5, noise_multiplier=0.5,
                        sample_prob=1.0, learning_rate=0.2, dim=d)
    model = LossModel.canary_only(d)
    w_final = dpsgd_train(model, canaries[s == 1], cfg,
                          np.random.default_rng(15))
    batch = whitebox_scores(canaries, w_final, cfg)
    its = reference_train(model, canaries, s, cfg, np.random.default_rng(15))
    for k, score in zip(canaries, batch):
        grad = np.zeros(d)
        grad[k] = cfg.clip
        per_step = sum((its[t] - its[t + 1]) @ grad for t in range(cfg.ell))
        assert score == pytest.approx(per_step, rel=1e-12)


def test_whitebox_separation_matches_noise_scale():
    # standardized IN-OUT separation is sqrt(ell)/sigma
    ell, sigma = 64, 4.0
    sep = (0.1 * ell * 1.0) / math.sqrt(0.1 ** 2 * sigma ** 2 * ell)
    assert sep == pytest.approx(math.sqrt(ell) / sigma, rel=1e-12)


# ---------------------------------------------------------------------------
# black-box scoring


def test_blackbox_score_zero_when_model_unchanged():
    model = LossModel.synthetic("logistic", n=5, d=3,
                                rng=np.random.default_rng(15))
    w = np.array([0.3, -0.2, 0.1])
    score = blackbox_score((model.features[0], model.labels[0]), w, w, model)
    assert score == 0.0


def test_blackbox_trained_examples_score_positive():
    # loss reduction of examples the model actually fits, over 100 runs
    data_means = []
    for run in range(100):
        run_rng = np.random.default_rng([17, run])
        model = LossModel.synthetic("logistic", n=30, d=4, rng=run_rng)
        cfg = TrainerConfig(ell=40, clip=1.0, noise_multiplier=0.3,
                            sample_prob=1.0, learning_rate=0.4, dim=4)
        w_final = dpsgd_train(model, NO_CANARIES, cfg, run_rng)
        scores = [blackbox_score((x, y), np.zeros(4), w_final, model)
                  for x, y in zip(model.features, model.labels)]
        data_means.append(np.mean(scores))
    mean = np.mean(data_means)
    assert mean > 3 * np.std(data_means) / math.sqrt(len(data_means))


def test_blackbox_excluded_mislabeled_scores_below_included():
    in_means, out_means = [], []
    for run in range(100):
        run_rng = np.random.default_rng([17, run])
        model = LossModel.synthetic("logistic", n=30, d=4, rng=run_rng)
        canaries = mislabeled_canaries(model, 10, run_rng)
        s = sample_selection(10, run_rng)
        cfg = TrainerConfig(ell=40, clip=1.0, noise_multiplier=0.3,
                            sample_prob=1.0, learning_rate=0.4, dim=4)
        w_final = dpsgd_train(model, canaries[s == 1], cfg, run_rng)
        scores = blackbox_scores(canaries, w_final)
        if np.any(s == 1):
            in_means.append(scores[s == 1].mean())
        if np.any(s == -1):
            out_means.append(scores[s == -1].mean())
    gap = np.mean(in_means) - np.mean(out_means)
    se = math.sqrt(np.var(in_means) / len(in_means)
                   + np.var(out_means) / len(out_means))
    assert gap > 3 * se


def test_blackbox_scores_match_singular():
    rng = np.random.default_rng(18)
    model = LossModel.synthetic("linear", n=12, d=3, rng=rng)
    canaries = LossModel("linear", model.features[:4], model.labels[:4] + 1.0)
    w_final = rng.normal(size=3)
    batch = blackbox_scores(canaries, w_final)
    singles = [
        blackbox_score((canaries.features[i], canaries.labels[i]),
                       np.zeros(3), w_final, model)
        for i in range(4)]
    np.testing.assert_allclose(batch, singles, rtol=1e-12)


def test_blackbox_audit_weaker_than_whitebox_paired():
    # paired runs: white-box one-hot gradients carry far more signal
    from dpaudit.dpsgd import audit_adapter
    from dpaudit.pipeline import audit_run

    wb, bb = [], []
    cfg = TrainerConfig(ell=30, clip=1.0, noise_multiplier=1.0,
                        sample_prob=1.0, learning_rate=0.2, dim=60)
    for seed in range(30):
        setup = np.random.default_rng([23, seed])
        model = LossModel.synthetic("logistic", n=40, d=60, rng=setup)
        canaries = dirac_canaries(60, 60, setup)
        report = audit_run(audit_adapter(
            LossModel.canary_only(60), canaries, cfg), 60, 20, 20, 1e-5,
            [0.95], seed=seed)
        wb.append(report.eps_lb[0.95])
        mis = mislabeled_canaries(model, 60, setup)
        report = audit_run(audit_adapter(model, mis, cfg), 60, 20, 20,
                           1e-5, [0.95], seed=seed)
        bb.append(report.eps_lb[0.95])
    assert min(bb) >= 0.0
    assert np.mean(bb) <= np.mean(wb)


@pytest.mark.parametrize("sample_prob", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["dirac", "examples"])
def test_adapter_trains_on_the_canaries_with_s_plus_one(kind, sample_prob):
    # run(s, rng) is the trainer given only the canaries with s_i = +1,
    # then the scores of every canary, all from the same generator
    from dpaudit.dpsgd import audit_adapter

    d, m = 20, 16
    setup = np.random.default_rng(40)
    model = LossModel.synthetic("logistic", n=30, d=d, rng=setup)
    canaries = (dirac_canaries(m, d, setup) if kind == "dirac"
                else mislabeled_canaries(model, m, setup))
    s = sample_selection(m, setup)
    cfg = TrainerConfig(ell=10, clip=0.5, noise_multiplier=1.0,
                        sample_prob=sample_prob, learning_rate=0.2, dim=d)
    scores = audit_adapter(model, canaries, cfg).run(
        s, np.random.default_rng(41))
    on = [i for i in range(m) if s[i] == 1]
    rng = np.random.default_rng(41)
    if kind == "dirac":
        w_final = dpsgd_train(model, canaries[on], cfg, rng)
        expected = whitebox_scores(canaries, w_final, cfg)
    else:
        trained = LossModel(canaries.kind, canaries.features[on],
                            canaries.labels[on])
        expected = blackbox_scores(canaries,
                                   dpsgd_train(model, trained, cfg, rng))
    assert 0 < len(on) < m
    assert np.array_equal(scores, expected)


def test_mislabeled_canaries_flip_teacher_labels():
    model = LossModel.synthetic("logistic", n=10, d=6,
                                rng=np.random.default_rng(19))
    canaries = mislabeled_canaries(model, 50, np.random.default_rng(20))
    truth = np.where(canaries.features @ model.teacher >= 0, 1.0, -1.0)
    assert np.all(canaries.labels == -truth)


# ---------------------------------------------------------------------------
# memory: an audit keeps only the models it reads


def traced_peak(fn):
    """Peak bytes allocated while fn runs, beyond those live when it starts."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_whitebox_audit_memory_flat_in_steps():
    # canary-only sweep, m = dim = 2000, 100 steps: an iterate trace alone
    # would be 101 x 2000 floats (1.6 MB)
    from dpaudit.cli import run_dpsgd_audit

    config = {"mode": "whitebox", "loss": "canary-only", "m": 2000,
              "dim": 2000, "iterations": 100, "clip": 1.0,
              "noise_multiplier": 10.0, "sample_prob": 1.0,
              "learning_rate": 0.1, "delta": 1e-5, "confidence": [0.95],
              "data_examples": 0, "label_noise": 0.0, "seed": 3}
    assert traced_peak(lambda: run_dpsgd_audit(config)) < 2 ** 20


def test_trainer_allocates_no_row_block_temporary():
    # 2000 x 200 logistic rows plus 1000 mislabeled canaries, Poisson
    # sampled: peak below half the data block's n * d * 8 bytes
    n, d = 2000, 200
    setup = np.random.default_rng(30)
    model = LossModel.synthetic("logistic", n=n, d=d, rng=setup)
    canaries = mislabeled_canaries(model, 1000, setup)
    s = sample_selection(1000, setup)
    cfg = TrainerConfig(ell=5, clip=1.0, noise_multiplier=1.0,
                        sample_prob=0.5, learning_rate=0.1, dim=d)
    peak = traced_peak(lambda: dpsgd_train(model, canaries[s == 1], cfg,
                                           np.random.default_rng(31)))
    assert peak < n * d * 8 / 2


# ---------------------------------------------------------------------------
# accounting


def test_theoretical_upper_full_batch_uses_gaussian_curve():
    cfg = TrainerConfig(ell=1, clip=1.0, noise_multiplier=2.0,
                        sample_prob=1.0, learning_rate=0.1, dim=4)
    record = privacy_accounting(cfg)
    assert record.keys() == {"rho"}
    assert record["rho"] == pytest.approx(0.125, rel=1e-14)
    upper = theoretical_eps_upper(cfg, 1e-5)
    assert upper == pytest.approx(gaussian_dp_eps(0.125, 1e-5), rel=1e-9)
    assert gaussian_dp_delta(0.125, upper) == pytest.approx(1e-5, rel=1e-3)


def test_theoretical_upper_calibrated_demo_point():
    cfg = TrainerConfig(ell=100, clip=1.0, noise_multiplier=10.0,
                        sample_prob=1.0, learning_rate=0.1, dim=4)
    assert theoretical_eps_upper(cfg, 1e-5) == pytest.approx(4.38, abs=0.01)


def test_theoretical_upper_subsampled_conversion():
    cfg = TrainerConfig(ell=500, clip=1.0, noise_multiplier=1.5,
                        sample_prob=0.1, learning_rate=0.1, dim=4)
    # order-2 Renyi bound 500 log(1 + q^2 (e^(1/sigma^2) - 1)) + log(1/delta)
    expected = 500 * math.log1p(0.1 * 0.1 * math.expm1(1 / 1.5 ** 2)) \
        + math.log(1e5)
    assert theoretical_eps_upper(cfg, 1e-5) == pytest.approx(expected,
                                                             rel=1e-12)


def test_theoretical_upper_vanishing_sampling_rate():
    cfg = TrainerConfig(ell=100, clip=1.0, noise_multiplier=1.0,
                        sample_prob=1e-12, learning_rate=0.1, dim=4)
    assert theoretical_eps_upper(cfg, 1e-5) == pytest.approx(math.log(1e5),
                                                             rel=1e-6)


def test_accounting_requires_noise():
    cfg = TrainerConfig(ell=10, clip=1.0, noise_multiplier=0.0,
                        sample_prob=1.0, learning_rate=0.1, dim=4)
    with pytest.raises(ValueError):
        privacy_accounting(cfg)


@pytest.mark.parametrize("sample_prob", [1.0, 0.5])
@pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1e300])
def test_accounting_rejects_noise_outside_float_range(sigma, sample_prob):
    # 1 / sigma^2 or ell / (2 sigma^2) is infinite or zero
    cfg = TrainerConfig(ell=1, clip=1.0, noise_multiplier=sigma,
                        sample_prob=sample_prob, learning_rate=0.1, dim=4)
    with pytest.raises(ValueError, match="noise_multiplier"):
        privacy_accounting(cfg)
    with pytest.raises(ValueError, match="noise_multiplier"):
        theoretical_eps_upper(cfg, 1e-5)


def test_full_batch_accounting_rejects_overflowing_two_rho():
    # rho = ell / (2 sigma^2) = 1e308 passes the noise rule, but 2 rho, the
    # scale of the Gaussian privacy curve, is inf: no upper bound of 0
    cfg = TrainerConfig(ell=2, clip=1.0, noise_multiplier=1e-154,
                        sample_prob=1.0, learning_rate=0.1, dim=4)
    for call in (privacy_accounting, lambda c: theoretical_eps_upper(c, 1e-5)):
        with pytest.raises(ValueError,
                           match="^noise_multiplier 1e-154 overflows: 2 "):
            call(cfg)
