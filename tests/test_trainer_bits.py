"""The trainer's and the synthetic data's exact bits, pinned by digest.

Each case builds a model and canaries from a seeded stream, trains once,
and compares the sha256 digest of every array's ``.tobytes()`` with a
recorded one.  Unlike ``np.array_equal``, a digest also catches a flipped
sign of zero.  The cases cover what the golden reports do not: linear
loss with Dirac canaries and data under Poisson sampling, an all-zero
feature row (its clip bound c / ||x|| is inf), label noise, full batches
with data rows, no noise, and Dirac canaries alone, sampled and at full
batch.

When an output is meant to change, print the new digests with
``PYTHONPATH=src python tests/test_trainer_bits.py`` and say why in the
change.
"""

import hashlib

import numpy as np
import pytest

from dpaudit.dpsgd import (
    LossModel,
    TrainerConfig,
    dirac_canaries,
    dpsgd_train,
    mislabeled_canaries,
)
from dpaudit.pipeline import sample_selection

# name -> (loss, data rows, canary kind, label noise, zero rows, trainer
# settings (ell, clip, noise_multiplier, sample_prob, learning_rate))
CASES = {
    "linear-dirac-sampled": ("linear", 300, "dirac", 0.0, False,
                             (25, 0.5, 0.8, 0.6, 0.05)),
    "logistic-zero-row": ("logistic", 300, "mislabeled", 0.0, True,
                          (20, 1.0, 1.0, 0.5, 0.1)),
    "logistic-label-noise": ("logistic", 300, "mislabeled", 2.0, False,
                             (20, 0.7, 1.5, 0.3, 0.2)),
    "linear-label-noise-full-batch": ("linear", 200, "mislabeled", 0.5,
                                      False, (15, 1.0, 1.0, 1.0, 0.05)),
    "logistic-dirac-full-batch": ("logistic", 200, "dirac", 0.0, True,
                                  (15, 1.0, 2.0, 1.0, 0.1)),
    "linear-noiseless-sampled": ("linear", 200, "mislabeled", 0.0, False,
                                 (15, 0.5, 0.0, 0.8, 0.1)),
    "canary-only-dirac-sampled": ("canary-only", 0, "dirac", 0.0, False,
                                  (20, 1.0, 0.5, 0.4, 0.1)),
    "canary-only-dirac-full-batch": ("canary-only", 0, "dirac", 0.0, False,
                                     (20, 1.0, 0.5, 1.0, 0.1)),
}

DIGESTS = {
    "canary-only-dirac-full-batch": {
        "w":
            "f9c1b575009cea7991695a37928c129b8f81666a53f1e707583d2e18067c63aa",
    },
    "canary-only-dirac-sampled": {
        "w":
            "0b1df4e66e8322b01c64b5c32cca23a13cd4411d1dac43f7f13f9859cafc6ca9",
    },
    "linear-dirac-sampled": {
        "features":
            "29e05521702f0224a936597e1c4d8eae0ca0994e9e328f83d081137598f2c7e9",
        "labels":
            "3e8038eb5f269ba7cf848f71ddd0fff837f03220c58e6c6898b97720229f82d0",
        "teacher":
            "b7677393253c80bd6d8b1172e37172672c8a77634a6347605b65a1ae8f13cfbe",
        "w":
            "9c4d14b3d829197cb81544021811c27d6eaa3524a88add8bc3f722f30e9538d6",
    },
    "linear-label-noise-full-batch": {
        "features":
            "340f7fa616913d6f71ed85a5c5a8cd51f07cc6506a72f8e21dba7642a7834979",
        "labels":
            "5070404175251c658b9945b88a0d2e8e87ae29d3f8aaadfa820c06636430e8d2",
        "teacher":
            "aa5bd96760e4805057ec4064ff1437c4e8181e13f5e0e39e901642cc404c7bc6",
        "canary_features":
            "665b6ad8609176dc59f14dc8f40074c148d48680c3e02cc34b9db483fe1747dd",
        "canary_labels":
            "de06cfacb43083f29164edd8c974fbf5889c46081d7dbc94145040a8cb244015",
        "w":
            "6b2220b7da4d9f66950aabd98af5b23d3d9f3b49f865a6610e4f223b3d24efc0",
    },
    "linear-noiseless-sampled": {
        "features":
            "30b637ec1097cd758cfff5a8a5ba0b2307103f5c0eff799fed2d6fdccf236cfd",
        "labels":
            "20dbcadb5e1f62745d4af969a7f579382c12cec94c0a7a48e164d7b044c25fae",
        "teacher":
            "0971050fad5581ee583620548dc8ea4e6144167f07afe7a748b23a23dcbbdf01",
        "canary_features":
            "6fde492ba1232baea67edf43b6acc877697b7753f21a5968158e691323befbd6",
        "canary_labels":
            "5f81d3e3f83e9641e19f98ea57f046582d0f5420b14d8c755cf75e6807a0e64f",
        "w":
            "89b7268c22adb2f7500054081def1d35541a6b4d909fcbb7907dfb417e62a2e9",
    },
    "logistic-dirac-full-batch": {
        "features":
            "cf981b10ec56828fbf3b1135b288de1d2080b0ad22154027cd8486f2d1410347",
        "labels":
            "58ea981282402562ec8fb65e104c8faf42ad835af21bb276f7874a809e680da5",
        "teacher":
            "4b1701c766e97b841d5a77fb8b3926261c678afa66ec07c1c6aec74ead9be1ee",
        "w":
            "fd2a33f7c736798697fec4693a0a6998427876e3a7a1e9f9988bcd20293b2b04",
    },
    "logistic-label-noise": {
        "features":
            "4c5fb69435272f09207112d7cdfdd12fada4ae5184d666dcc0381b01b42a4713",
        "labels":
            "15bcd6eef5c9f1d0f2f5958d12ac22997eb1c303ce4dc2e0d846e47fe1499672",
        "teacher":
            "8063446b2ab1b9d1806c110300a362d28cdf9163cfa7b05d33392153647b550a",
        "canary_features":
            "14b471bda88ad3cd26708b787df55544d66c5814de96f4a500b2891e5bfd7a17",
        "canary_labels":
            "6bb5b4dc8368fbc7029934596c1fb1a609ae58b03ae0826e60004854a290ba3a",
        "w":
            "04599a03a7364bc0a17849f364825ea2b1ee45f9755a2813324876fc64e7cbe2",
    },
    "logistic-zero-row": {
        "features":
            "2902bcba66a8efa577892407306bc0179bce9caf350a349a48d38135b398b458",
        "labels":
            "50d390fc0e8d738d13209f01b247b1884211c58bbabe8fb20f6b1e43999d2641",
        "teacher":
            "d2690b5c3769cb346c546124b0dae699657bae601073aeff9b5d0dfd68304d3d",
        "canary_features":
            "4d4de2de4009f1d784cc1e6010a5442591ca8ba284e0f9d22465edca947729ef",
        "canary_labels":
            "625b10c8055542f793a235fe63f8174bb2a186b106871d2907dd96313ad14aaf",
        "w":
            "553e4e34521bd42a1f5bc9c155ddf0a55462ebaca8f8c6d30d95f7a8c446c6bc",
    },
}


def run_case(name: str) -> dict[str, np.ndarray]:
    """Every array the case draws or trains, by name."""
    loss, n, canary_kind, label_noise, zero_rows, trainer = CASES[name]
    ell, clip, sigma, q, lr = trainer
    d, m = 50, 40
    rng = np.random.default_rng([sum(map(ord, name)), 7])
    if loss == "canary-only":
        model = LossModel.canary_only(d)
    else:
        model = LossModel.synthetic(loss, n, d, rng, label_noise)
    out = {}
    if model.teacher is not None:
        out.update(features=model.features, labels=model.labels,
                   teacher=model.teacher)
    if canary_kind == "dirac":
        canaries = dirac_canaries(m, d, rng)
    else:
        canaries = mislabeled_canaries(model, m, rng)
        out.update(canary_features=canaries.features,
                   canary_labels=canaries.labels)
    if zero_rows:  # data rows 0 and 7 and canary row 3: no clip bound
        features = model.features.copy()
        features[[0, 7]] = 0.0
        model = LossModel(model.kind, features, model.labels, model.teacher)
        if canary_kind != "dirac":
            features = canaries.features.copy()
            features[3] = 0.0
            canaries = LossModel(canaries.kind, features, canaries.labels)
    cfg = TrainerConfig(ell=ell, clip=clip, noise_multiplier=sigma,
                        sample_prob=q, learning_rate=lr, dim=d)
    out["w"] = dpsgd_train(model, canaries[sample_selection(m, rng) == 1],
                           cfg, rng)
    return out


def digests(name: str) -> dict[str, str]:
    return {key: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for key, a in run_case(name).items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trainer_and_data_bits_unchanged(name):
    assert digests(name) == DIGESTS[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": {{')
        for key, digest in digests(case).items():
            print(f'        "{key}":\n            "{digest}",')
        print("    },")
