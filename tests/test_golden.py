"""Byte-for-byte `dpsgd-audit` reports for fixed configs and seeds.

`golden_dpsgd_audit.json` holds the exact stdout line of each run.  A
change meant to keep every reported number must keep these lines equal.
When a report is meant to change, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""

import contextlib
import io
import json
import pathlib

import pytest

from dpaudit import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_dpsgd_audit.json")

_COMMON = {"clip": 1.0, "learning_rate": 0.1, "delta": 1e-5}

CONFIGS = {
    # white-box, canary-only, full batch, budget sweep, two confidences
    "whitebox-sweep": dict(
        _COMMON, mode="whitebox", loss="canary-only", m=500, dim=500,
        iterations=50, noise_multiplier=5.0, sample_prob=1.0,
        confidence="0.95,0.9", seed=3),
    # white-box with data rows and Poisson sampling
    "whitebox-logistic-sampled": dict(
        _COMMON, mode="whitebox", loss="logistic", m=200, dim=200,
        iterations=30, noise_multiplier=2.0, sample_prob=0.7,
        data_examples=300, k_plus=30, k_minus=30, seed=11),
    # black-box logistic, Poisson sampling, fixed budget
    "blackbox-logistic-budget": dict(
        _COMMON, mode="blackbox", loss="logistic", m=300, dim=60,
        iterations=30, noise_multiplier=1.0, sample_prob=0.5,
        data_examples=600, k_plus=40, k_minus=40, seed=5),
    # black-box linear, budget sweep at sample_prob 0.6
    "blackbox-linear-sweep": dict(
        _COMMON, mode="blackbox", loss="linear", m=200, dim=40,
        iterations=25, noise_multiplier=1.0, sample_prob=0.6,
        data_examples=300, label_noise=0.1, seed=2),
}


def run_report(config: dict, path: pathlib.Path) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["dpsgd-audit", "--config", str(path)])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dpsgd_audit_report_is_byte_identical(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_report(CONFIGS[name], tmp_path / "audit.cfg") == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: run_report(cfg, pathlib.Path(tmp) / "audit.cfg")
                   for name, cfg in CONFIGS.items()}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
