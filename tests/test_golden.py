"""Byte-for-byte outputs for fixed inputs and seeds.

`golden_dpsgd_audit.json` holds the exact stdout line of each
`dpsgd-audit` run, and `golden_stdout.json` the exact stdout of the demo
script and of the three `simulate` mechanisms.  A change meant to keep
every reported number must keep these outputs equal.  When an output is
meant to change, regenerate both files with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""

import contextlib
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
from unittest import mock

import pytest

from dpaudit import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_dpsgd_audit.json")
STDOUT = pathlib.Path(__file__).with_name("golden_stdout.json")
SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"

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


# Command lines, a script's or dpaudit's: the demo, and each simulated
# mechanism at its defaults (the Gaussian also with a declared delta)
COMMANDS = [
    "dpsgd_audit_demo.py --m 300 --seed 1",
    "simulate --mechanism rr --m 1000",
    "simulate --mechanism gaussian --m 1000 --k-plus 100 --k-minus 100",
    "simulate --mechanism gaussian --m 1000 --k-plus 100 --k-minus 100 "
    "--delta 1e-5",
    "simulate --mechanism pathological --m 1000 --r 100",
]


def command_stdout(line: str) -> str:
    name, *args = line.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if name.endswith(".py"):
            with mock.patch.object(sys, "argv", [name, *args]):
                runpy.run_path(str(SCRIPTS / name), run_name="__main__")
        else:
            assert cli.main([name, *args]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dpsgd_audit_report_is_byte_identical(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_report(CONFIGS[name], tmp_path / "audit.cfg") == golden[name]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dpsgd_audit_reports_hold_at_one_and_two_blas_threads(threads,
                                                              tmp_path):
    # the trainer's bits hold at a fixed BLAS thread count, which must be
    # set before numpy loads: a fresh interpreter writes every report
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(src), str(GOLDEN.parent)]))
    code = ("import json, pathlib, sys\n"
            "from test_golden import CONFIGS, run_report\n"
            "out = pathlib.Path(sys.argv[1])\n"
            "print(json.dumps({name: run_report(cfg, out / f'{name}.cfg')\n"
            "                  for name, cfg in CONFIGS.items()}))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert json.loads(out) == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("line", COMMANDS)
def test_command_stdout_is_byte_identical(line):
    assert command_stdout(line) == json.loads(STDOUT.read_text())[line]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: run_report(cfg, pathlib.Path(tmp) / "audit.cfg")
                   for name, cfg in CONFIGS.items()}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    STDOUT.write_text(json.dumps({line: command_stdout(line)
                                  for line in COMMANDS}, indent=1) + "\n")
