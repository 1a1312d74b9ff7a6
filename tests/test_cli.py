"""CLI subcommands: outputs, exit codes, persistence, reproducibility."""

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from dpaudit import cli
from dpaudit.dpsgd import TRAINER_KEYS, TrainerConfig, adapter_dpsgd_audit
from dpaudit.mechanisms import gaussian_dp_eps
from dpaudit.pipeline import audit_run, k_sweep, run_mechanism


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_parsers():
    """command -> its argparse subparser."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def usage_error(command, message):
    """The stderr of a usage error: argparse's message about one option's
    value is followed by the command's usage line; a rule across options
    is not."""
    usage = command_parsers()[command].format_usage()
    return f"usage error: {message}\n" + (
        usage if message.startswith("argument ") else "")


# ---------------------------------------------------------------------------
# pvalue / epslb


def test_pvalue_worked_example(capsys):
    code, out, _ = run_cli(capsys, "pvalue", "--m", "100", "--r", "100",
                           "--v", "75", "--eps", str(math.log(3.0)),
                           "--delta", "0")
    assert code == 0
    assert out.strip() == "0.553471"


def test_pvalue_zero_correct(capsys):
    code, out, _ = run_cli(capsys, "pvalue", "--m", "10", "--r", "5",
                           "--v", "0", "--eps", "1.0")
    assert code == 0
    assert float(out) == 1.0


def test_pvalue_delta_example(capsys):
    code, out, _ = run_cli(capsys, "pvalue", "--m", "2", "--r", "2",
                           "--v", "2", "--eps", "0", "--delta", "0.1")
    assert code == 0
    assert float(out) == pytest.approx(0.45, abs=1e-6)


def test_pvalue_bad_arguments_usage_exit(capsys):
    code, _, err = run_cli(capsys, "pvalue", "--m", "10", "--r", "20",
                           "--v", "25", "--eps", "1.0")
    assert code == 1
    assert "usage" in err.lower()
    code, _, err = run_cli(capsys, "pvalue", "--m", "10")
    assert code == 1
    assert "usage" in err.lower()


def test_epslb_worked_examples(capsys):
    code, out, _ = run_cli(capsys, "epslb", "--m", "100", "--r", "100",
                           "--v", "75", "--delta", "0", "--conf", "0.95")
    assert code == 0
    assert float(out) == pytest.approx(0.702, abs=1e-3)
    code, out, _ = run_cli(capsys, "epslb", "--m", "1000", "--r", "100",
                           "--v", "75", "--delta", "1e-4", "--conf", "0.95")
    assert code == 0
    assert float(out) == pytest.approx(0.673, abs=1e-3)
    code, out, _ = run_cli(capsys, "epslb", "--m", "100", "--r", "100",
                           "--v", "50", "--delta", "0", "--conf", "0.95")
    assert float(out) == 0.0


def test_epslb_persists_result_row(tmp_path, capsys):
    out_file = tmp_path / "rows.jsonl"
    code, _, _ = run_cli(capsys, "epslb", "--m", "100", "--r", "100",
                         "--v", "75", "--delta", "0", "--conf", "0.95",
                         "--out", str(out_file))
    assert code == 0
    line = out_file.read_text().strip()
    row = cli.ResultRow(**json.loads(line))
    assert row.command == "epslb"
    assert row.inputs == {"m": 100, "r": 100, "v": 75, "delta": 0.0,
                          "conf": 0.95}
    assert row.outputs["eps_lb"] == pytest.approx(0.702, abs=1e-3)
    # round trip: emit(parse(emit(x))) is identical
    assert cli.ResultRow(**json.loads(row.to_json())) == row


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    # DPAUDIT_OUTDIR is no input: the row file is where --out says
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DPAUDIT_OUTDIR", str(tmp_path / "results"))
    code, _, _ = run_cli(capsys, "epslb", "--m", "10", "--r", "10",
                         "--v", "9", "--delta", "0", "--conf", "0.9",
                         "--out", "row.jsonl")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["row.jsonl"]


# ---------------------------------------------------------------------------
# experiment drivers


def test_experiment_pure_worked_example(capsys):
    code, out, _ = run_cli(capsys, "experiment-pure", "--eps", "4",
                           "--guesses", "10000", "--conf", "0.95")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["r"] == "10000"
    assert rows[0]["v"] == "9820"
    assert float(rows[0]["eps_lb"]) == pytest.approx(3.874, abs=2e-3)


def test_experiment_pure_zero_eps_all_zero(capsys):
    code, out, _ = run_cli(capsys, "experiment-pure", "--eps", "0",
                           "--guesses", "10,100,1000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(float(row["eps_lb"]) == 0.0 for row in rows)


def test_experiment_pure_monotone_over_doublings(capsys):
    code, out, _ = run_cli(capsys, "experiment-pure", "--eps", "4",
                           "--guesses",
                           "10,20,40,80,160,320,640,1280,2560,5120,10240")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    lbs = [float(row["eps_lb"]) for row in rows]
    assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))


def test_experiment_pure_csv_round_trip(tmp_path, capsys):
    out_file = tmp_path / "pure.csv"
    run_cli(capsys, "experiment-pure", "--eps", "1", "--guesses", "10,100",
            "--out", str(out_file))
    with open(out_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["r", "v", "eps_lb"])
    writer.writeheader()
    writer.writerows(rows)
    assert buf.getvalue().replace("\r\n", "\n") == \
        out_file.read_text().replace("\r\n", "\n")


def test_experiment_gaussian_small_grid(tmp_path, capsys):
    out_file = tmp_path / "gauss.csv"
    code, _, _ = run_cli(capsys, "experiment-gaussian", "--sigma", "2",
                         "--m", "2000", "--r-grid", "16,64",
                         "--delta-grid", "1e-5,1e-3",
                         "--conf-grid", "0.95", "--out", str(out_file))
    assert code == 0
    with open(out_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        upper = gaussian_dp_eps(0.5, float(row["delta"]))
        assert float(row["eps_upper"]) == pytest.approx(upper, abs=1e-5)
        assert float(row["eps_lb"]) >= 0.0
    # the lower bound cannot beat the mechanism's true curve
    assert all(float(r["eps_lb"]) <= float(r["eps_upper"]) + 0.5
               for r in rows)


def test_experiment_gaussian_delta_sweep_monotone(tmp_path, capsys):
    # fixed 1500 guesses out of 1e5: bound weakens with delta and confidence
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "experiment-gaussian", "--sigma", "2",
                         "--m", "100000", "--r-grid", "1500",
                         "--delta-grid", "1e-6,1e-5,1e-4,1e-3",
                         "--conf-grid", "0.75,0.95,0.99",
                         "--out", str(out_file))
    assert code == 0
    with open(out_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["v"] == "1429" for row in rows)
    table = {(float(r["delta"]), float(r["confidence"])): float(r["eps_lb"])
             for r in rows}
    for conf in (0.75, 0.95, 0.99):
        col = [table[(d, conf)] for d in (1e-6, 1e-5, 1e-4, 1e-3)]
        assert all(a >= b - 1e-9 for a, b in zip(col, col[1:]))
    for delta in (1e-6, 1e-5, 1e-4, 1e-3):
        row = [table[(delta, c)] for c in (0.75, 0.95, 0.99)]
        assert all(a >= b - 1e-9 for a, b in zip(row, row[1:]))


def test_experiment_gaussian_huge_rho_upper_bound(capsys):
    # rho = 4 / (2 sigma^2) = 5e307
    code, out, err = run_cli(capsys, "experiment-gaussian", "--sigma",
                             "2e-154", "--r-grid", "2")
    assert (code, err) == (0, "")
    row = next(csv.DictReader(io.StringIO(out)))
    assert math.isfinite(float(row["eps_upper"]))


def test_experiment_gaussian_has_no_sensitivity_option(capsys):
    # the +-1 release's sensitivity is 2; no option can contradict it
    code, out, err = run_cli(capsys, "experiment-gaussian", "--sigma", "2",
                             "--sensitivity", "0.5", "--r-grid", "1510",
                             "--m", "100000")
    assert (code, out) == (1, "")
    # the top-level parser raises it, so the top-level usage follows
    assert err == ("usage error: unrecognized arguments: --sensitivity 0.5\n"
                   + cli.build_parser().format_usage())


def test_pathological_check_no_violations(tmp_path, capsys):
    out_file = tmp_path / "path.csv"
    code, out, _ = run_cli(capsys, "pathological-check", "--m", "200",
                           "--r", "50", "--eps", "1.0", "--delta", "1e-4",
                           "--beta", "0.05", "--trials", "2000",
                           "--seed", "1", "--out", str(out_file))
    assert code == 0
    assert "violations_beyond_3sigma=0" in out
    with open(out_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 51


def test_pathological_check_counts_violations_from_unrounded_z(
        tmp_path, capsys, monkeypatch):
    # one trial, bound 1 / 10.0012 at v = 0: z = sqrt(9.0012) = 3.0002 is
    # printed as 3.000 but is beyond 3 sigma; bound 1 elsewhere gives z = 0
    monkeypatch.setattr(cli, "p_values_by_threshold",
                        lambda m, r, eps, delta: [1 / 10.0012] + [1.0] * r)
    report = tmp_path / "row.jsonl"
    code, out, _ = run_cli(capsys, "pathological-check", "--m", "20", "--r",
                           "5", "--eps", "1.0", "--delta", "0", "--beta",
                           "0.05", "--trials", "1", "--report", str(report))
    assert code == 0
    assert out == "trials=1 max_z=3.000 violations_beyond_3sigma=1\n"
    outputs = json.loads(report.read_text())["outputs"]
    assert outputs["violations"] == 1 and 3.0 < outputs["max_z"] < 3.0005


def test_pathological_check_memory_flat_in_trials(capsys):
    # the Monte Carlo tail is kept as counts per w, not one entry per trial;
    # the collector is off so that argparse's cycles count the same each run
    def peak(trials):
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert run_cli(capsys, "pathological-check", "--m", "20", "--r",
                           "5", "--eps", "1.0", "--delta", "0", "--beta",
                           "0.05", "--trials", str(trials))[0] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    assert peak(4000) < peak(40) + 4000 * 8 / 4


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_pathological_check_needs_trials(capsys, trials):
    code, out, err = run_cli(capsys, "pathological-check", "--m", "20",
                             "--r", "5", "--eps", "1.0", "--delta", "0",
                             "--beta", "0.05", "--trials", trials)
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "--trials" in err


def test_pathological_check_invalid_parameters(capsys):
    # m*delta > r*beta violates the mechanism precondition
    code, _, err = run_cli(capsys, "pathological-check", "--m", "1000",
                           "--r", "10", "--eps", "1.0", "--delta", "1e-2",
                           "--beta", "0.05", "--trials", "10")
    assert code == 1
    assert "beta" in err or "delta" in err


_CONF = "must be in (0, 1) with 1 - it in (0, 1), got"


@pytest.mark.parametrize("argv, message", [
    (["epslb", "--m", "10", "--r", "5", "--v", "3", "--conf", "1.5"],
     f"argument --conf: {_CONF} 1.5"),
    (["experiment-pure", "--eps", "1", "--conf", "1.5"],
     f"argument --conf: {_CONF} 1.5"),
    (["experiment-pure", "--eps", "1", "--guesses", "0"],
     "argument --guesses: must be >= 1, got 0"),
    (["experiment-gaussian", "--m", "100", "--r-grid", "10",
      "--conf-grid", "1.5"], f"argument --conf-grid: {_CONF} 1.5"),
    # 1 - 1e-300 rounds to 1, a failure probability outside (0, 1)
    (["epslb", "--m", "10", "--r", "5", "--v", "3", "--conf", "1e-300"],
     f"argument --conf: {_CONF} 1e-300"),
    (["experiment-pure", "--eps", "1", "--conf", "1e-300"],
     f"argument --conf: {_CONF} 1e-300"),
    (["experiment-gaussian", "--m", "100", "--r-grid", "10",
      "--conf-grid", "0.95,1e-300"], f"argument --conf-grid: {_CONF} 1e-300"),
    (["simulate", "--mechanism", "rr", "--m", "10", "--conf", "1e-300"],
     f"argument --conf: {_CONF} 1e-300"),
    # checked up front, so also with no row to compute
    (["experiment-pure", "--eps", "1", "--guesses", "", "--conf", "5"],
     f"argument --conf: {_CONF} 5.0"),
    (["experiment-gaussian", "--r-grid", "", "--conf-grid", "5"],
     f"argument --conf-grid: {_CONF} 5.0"),
    (["simulate", "--mechanism", "gaussian", "--m", "10", "--k-plus", "8",
      "--k-minus", "8"], "need --k-plus + --k-minus <= --m, got "
     "--k-plus + --k-minus=16, --m=10"),
    (["simulate", "--mechanism", "rr", "--m", "10", "--conf", "1.5"],
     f"argument --conf: {_CONF} 1.5"),
    (["simulate", "--mechanism", "pathological", "--m", "10", "--r", "5",
      "--mech-delta", "2"],
     "argument --mech-delta: must be in [0, 1], got 2.0"),
    (["pvalue", "--m", "10", "--r", "12", "--v", "3", "--eps", "1"],
     "need --v <= --r <= --m, got --v=3, --r=12, --m=10"),
    (["pvalue", "--m", "10", "--r", "4", "--v", "5", "--eps", "1"],
     "need --v <= --r <= --m, got --v=5, --r=4, --m=10"),
    (["pvalue", "--m", "10", "--r", "-1", "--v", "-2", "--eps", "1"],
     "argument --r: must be >= 0, got -1"),
    (["experiment-gaussian", "--sigma", "0", "--r-grid", "2"],
     "argument --sigma: must be positive and finite, got 0.0"),
    (["experiment-gaussian", "--delta-grid", "2", "--r-grid", "2"],
     "argument --delta-grid: must be in (0, 1), got 2.0"),
    (["experiment-gaussian", "--m", "5", "--r-grid", "10"],
     "need --r-grid <= --m, got --r-grid=10, --m=5"),
    (["pathological-check", "--m", "10", "--r", "20", "--eps", "1",
      "--delta", "0", "--beta", "0.05"],
     "need --r <= --m, got --r=20, --m=10"),
    (["epslb", "--m", "10", "--r", "12", "--v", "3"],
     "need --v <= --r <= --m, got --v=3, --r=12, --m=10"),
    (["epslb", "--m", "10", "--r", "5", "--v", "3", "--delta", "2"],
     "argument --delta: must be in [0, 1], got 2.0"),
    (["pvalue", "--m", "10", "--r", "5", "--v", "3", "--eps", "-1"],
     "argument --eps: must be nonnegative, got -1.0"),
    (["experiment-gaussian", "--delta-grid", "1e-5,x"],
     "argument --delta-grid: must be float, got 'x'"),
    (["experiment-gaussian", "--r-grid", "1e5"],
     "argument --r-grid: must be int, got '1e5'"),
    (["simulate", "--mechanism", "rr", "--m", "10", "--seed", "-3"],
     "argument --seed: must be >= 0, got -3"),
    (["simulate", "--mechanism", "pathological", "--m", "2", "--r", "10"],
     "need --r <= --m, got --r=10, --m=2"),
    # --r defaults to 0, which rr and gaussian never read
    (["simulate", "--mechanism", "pathological", "--m", "2"],
     "--r must be >= 1, got 0"),
    (["simulate", "--mechanism", "pathological", "--m", "10"],
     "--r must be >= 1, got 0"),
    (["simulate", "--mechanism", "gaussian", "--m", "10", "--sigma", "1e-300"],
     "rho at --sigma=1e-300 must be positive and finite, got inf"),
    (["experiment-gaussian", "--sigma", "1e-300", "--r-grid", "2"],
     "rho at --sigma=1e-300 must be positive and finite, got inf"),
    # rho = 1.02e308 is finite, but the privacy curve's 2 rho overflows
    (["simulate", "--mechanism", "gaussian", "--m", "10", "--sigma",
      "1.4e-154", "--delta", "1e-5"],
     "2 * rho at --sigma=1.4e-154 must be positive and finite, got inf"),
    (["experiment-gaussian", "--sigma", "1.4e-154", "--r-grid", "2"],
     "2 * rho at --sigma=1.4e-154 must be positive and finite, got inf"),
    (["simulate", "--mechanism", "pathological", "--m", "10", "--r", "5",
      "--mech-delta", "0.5", "--beta", "0.01"],
     "need --m * --mech-delta <= --r * --beta, got --m * --mech-delta=5.0, "
     "--r * --beta=0.05"),
    (["pathological-check", "--m", "10", "--r", "5", "--eps", "1", "--delta",
      "0.5", "--beta", "0.01", "--trials", "10"],
     "need --m * --delta <= --r * --beta, got --m * --delta=5.0, "
     "--r * --beta=0.05"),
], ids=["epslb-conf", "pure-conf", "pure-guesses", "gaussian-conf-grid",
        "epslb-conf-tiny", "pure-conf-tiny", "gaussian-conf-grid-tiny",
        "simulate-conf-tiny", "pure-conf-no-guesses",
        "gaussian-conf-grid-no-guesses", "simulate-budget-over-m",
        "simulate-conf", "simulate-mech-delta", "pvalue-r-over-m",
        "pvalue-v-over-r", "pvalue-negative-r", "gaussian-sigma",
        "gaussian-delta-grid", "gaussian-r-over-m", "pathological-r-over-m",
        "epslb-r-over-m", "epslb-delta", "pvalue-eps",
        "gaussian-delta-grid-word", "gaussian-r-grid-float", "simulate-seed",
        "simulate-pathological-r-over-m", "simulate-pathological-r-unset",
        "simulate-pathological-r-unset-m-10",
        "simulate-gaussian-rho", "gaussian-rho", "simulate-gaussian-two-rho",
        "gaussian-two-rho",
        "simulate-pathological-budget", "pathological-budget"])
def test_usage_error_names_the_option_as_typed(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == usage_error(argv[0], message)


def test_simulate_gaussian_two_rho_is_read_only_by_the_curve(capsys):
    # at --delta 0 or 1 no upper bound is declared, so the privacy curve,
    # whose scale 2 rho overflows at this sigma, is never evaluated
    for delta in ("0", "1"):
        code, out, err = run_cli(capsys, "simulate", "--mechanism", "gaussian",
                                 "--m", "10", "--sigma", "1.4e-154",
                                 "--delta", delta)
        assert (code, err) == (0, ""), delta
        assert json.loads(out)["config"]["declared_eps"] is None


def test_simulate_budget_over_m_is_read_only_by_gaussian(capsys):
    # rr and pathological emit their own guesses and ignore the budget
    for mechanism in ("rr", "pathological"):
        code, _, err = run_cli(capsys, "simulate", "--mechanism", mechanism,
                               "--m", "10", "--r", "5", "--k-plus", "8",
                               "--k-minus", "8")
        assert (code, err) == (0, ""), mechanism


# around the two edges of the confidences: 1 - c must round below 1, and
# c must lie below 1
@pytest.mark.parametrize("conf", [
    2.0 ** -54, math.nextafter(2.0 ** -54, 1.0), 2.0 ** -53, 1e-10, 0.5,
    math.nextafter(1.0, 0.0), 1.0, 0.0, -0.0, 1.5, math.nan])
def test_confidence_rule_takes_every_valid_failure_probability(capsys, conf):
    # exactly the confidences whose --conf and whose beta = 1 - conf, which
    # eps_lower_bound checks, both lie in (0, 1)
    took = 0 < conf < 1 and 0 < 1.0 - conf < 1
    code, out, err = run_cli(capsys, "epslb", "--m", "10", "--r", "5",
                             "--v", "3", "--conf", repr(conf))
    assert code == (0 if took else 1)
    if not took:
        assert err == usage_error("epslb",
                                  f"argument --conf: {_CONF} {conf!r}")


@pytest.mark.parametrize("command", [
    ["epslb", "--r", "6", "--v", "4"],
    ["pvalue", "--r", "6", "--v", "4", "--eps", "1"]], ids=["epslb", "pvalue"])
def test_count_above_the_largest_float_usage_exit(capsys, command):
    code, out, err = run_cli(capsys, *command, "--m", "1" + "0" * 400)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: argument --m: must be <= "
                          f"{sys.float_info.max}, got 1000")


def test_experiment_gaussian_overflowing_rho_usage_exit(capsys):
    # sigma = 1.4e-154 gives rho = 1.02e308, finite, but 2 rho overflows:
    # eps_upper read 0 next to a positive eps_lb
    code, out, err = run_cli(capsys, "experiment-gaussian", "--sigma",
                             "1.4e-154", "--r-grid", "10", "--m", "100")
    assert (code, out) == (1, "")
    assert "rho" in err


# ---------------------------------------------------------------------------
# dpsgd-audit


def write_config(path, **overrides):
    base = {
        "mode": "whitebox",
        "m": 40,
        "dim": 40,
        "iterations": 20,
        "clip": 1.0,
        "noise_multiplier": 2.0,
        "sample_prob": 1.0,
        "learning_rate": 0.2,
        "delta": 1e-5,
        "k_plus": 10,
        "k_minus": 10,
        "seed": 4,
    }
    base.update(overrides)
    lines = [f"{key} = {value}" for key, value in base.items()]
    path.write_text("\n".join(lines) + "\n# trailing comment\n")
    return base


def test_parsed_configs_do_not_share_the_confidence_default(tmp_path):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file)  # no confidence key: the default [0.95]
    first = cli.parse_dpsgd_config(str(cfg_file))
    first["confidence"].append(0.99)
    assert cli.parse_dpsgd_config(str(cfg_file))["confidence"] == [0.95]


def test_dpsgd_audit_whitebox_report(tmp_path, capsys):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file)
    code, out, _ = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 40
    assert payload["seed"] == 4
    assert "0.95" in payload["eps_lb"]
    assert payload["config"]["theoretical_eps_upper"] > 0
    assert payload["config"]["accounting"]["rho"] == pytest.approx(
        20 / (2 * 4.0), rel=1e-12)


def test_dpsgd_audit_sweep_flags_caveat(tmp_path, capsys):
    cfg_file = tmp_path / "audit.cfg"
    cfg = write_config(cfg_file)
    cfg_file.write_text("\n".join(
        f"{k} = {v}" for k, v in cfg.items()
        if k not in ("k_plus", "k_minus")))
    code, out, _ = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["multiple_testing_caveat"] is True


@pytest.mark.parametrize("overrides", [
    {"noise_multiplier": 4.0},
    {"mode": "blackbox", "loss": "logistic", "dim": 20, "data_examples": 60,
     "sample_prob": 0.5, "noise_multiplier": 0.5},
], ids=["whitebox", "blackbox"])
def test_dpsgd_audit_matches_audit_run(tmp_path, overrides):
    # same setup stream and adapter: the CLI must draw the selection coins
    # and the training noise exactly as pipeline.audit_run does
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, confidence="0.95,0.9", **overrides)
    config = cli.parse_dpsgd_config(str(cfg_file))
    adapter = adapter_dpsgd_audit(config)
    expected = audit_run(adapter, config["m"], config["k_plus"],
                         config["k_minus"], config["delta"],
                         config["confidence"], config["seed"])
    report = cli.run_dpsgd_audit(config)
    r = expected.k_plus + expected.k_minus
    assert r // 2 < expected.v < r
    assert (report.m, report.k_plus, report.k_minus, report.v) == (
        expected.m, expected.k_plus, expected.k_minus, expected.v)
    assert report.eps_lb == expected.eps_lb
    assert report.p_values == expected.p_values
    assert report.config["theoretical_eps_upper"] == adapter.eps


def test_dpsgd_audit_runtime_failure_names_adapter(tmp_path, capsys):
    # the iterate check reports the overflow; numpy must not warn first
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, learning_rate=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dpsgd-audit", "--config",
                                 str(cfg_file))
    assert (code, out) == (2, "")
    assert "non-finite iterate at step 1" in err
    assert "'dpsgd-whitebox'" in err


def test_dpsgd_audit_nonfinite_scores_runtime_exit(tmp_path, capsys):
    # finite iterates near 1e300 times a clip norm of 1e300 overflow the
    # scores: a runtime failure of the adapter, not a usage error
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, clip=1e300, learning_rate=1.0)
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert (code, out) == (2, "")
    assert "'dpsgd-whitebox' failed: non-finite output" in err


def test_dpsgd_audit_label_noise_overflow_usage_exit(tmp_path, capsys):
    # label_noise * N(0, 1) overflows one of the 20 margins: the config is at
    # fault, so the CLI names the key and exits 1, and numpy must not warn
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, mode="blackbox", loss="linear", m=50, dim=10,
                 data_examples=20, label_noise=1e308, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dpsgd-audit", "--config",
                                 str(cfg_file))
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "label_noise" in err


def test_dpsgd_audit_overwhelming_noise_estimates_zero(tmp_path, capsys):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, noise_multiplier=1000.0, m=30, dim=30,
                 k_plus=8, k_minus=8)
    code, out, _ = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["eps_lb"]["0.95"] <= 0.25


def test_dpsgd_audit_small_noise_subsampled_accounts(tmp_path, capsys):
    # exp(1 / 0.03^2) overflows a float; the order-2 Renyi bound does not
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, noise_multiplier=0.03, sample_prob=0.5)
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert (code, err) == (0, "")
    accounting = json.loads(out)["config"]["accounting"]
    assert accounting["eps_check"] == pytest.approx(
        20 * (1 / 0.03 ** 2 + 2 * math.log(0.5)), rel=1e-12)


def test_dpsgd_audit_tiny_noise_accounts(tmp_path, capsys):
    # the noise rule accepts sigma = 1e-10 (rho = 5e20); accounting must not
    # overflow on it
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, m=20, dim=20, iterations=10, noise_multiplier=1e-10,
                 learning_rate=0.1)
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert (code, err) == (0, "")
    config = json.loads(out)["config"]
    assert config["accounting"]["rho"] == pytest.approx(5e20, rel=1e-12)
    assert math.isfinite(config["theoretical_eps_upper"])


def test_dpsgd_audit_overflowing_accounting_usage_exit(tmp_path, capsys):
    # the noise rule accepts sigma = 1e-154 (1 / sigma^2 = 1e308), but the
    # order-2 Renyi eps of two steps at q = 1/2 overflows, and at full batch
    # 2 rho = 2e308 does: no report with an infinite bound, which JSON cannot
    # hold, or with an upper bound of 0
    cfg_file = tmp_path / "audit.cfg"
    for sample_prob in (0.5, 1.0):
        write_config(cfg_file, iterations=2, noise_multiplier=1e-154,
                     sample_prob=sample_prob)
        code, out, err = run_cli(capsys, "dpsgd-audit", "--config",
                                 str(cfg_file))
        assert (code, out) == (1, ""), sample_prob
        assert "noise_multiplier" in err


def test_dpsgd_audit_unknown_key_named(tmp_path, capsys):
    cfg_file = tmp_path / "audit.cfg"
    cfg_file.write_text("mode = whitebox\nmystery_knob = 3\n")
    code, _, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 1
    assert "mystery_knob" in err


def test_dpsgd_audit_missing_key_named(tmp_path, capsys):
    cfg_file = tmp_path / "audit.cfg"
    cfg_file.write_text("mode = whitebox\nm = 10\n")
    code, _, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 1
    assert "dim" in err


@pytest.mark.parametrize("key, overrides", [
    ("clip", {"clip": "nan"}),
    ("noise_multiplier", {"noise_multiplier": "inf"}),
    ("learning_rate", {"learning_rate": "nan"}),
    ("label_noise", {"loss": "logistic", "data_examples": 20,
                     "label_noise": "nan"}),
    ("loss", {"loss": "hinge"}),
    ("data_examples", {"loss": "logistic", "data_examples": -1}),
    ("loss", {"mode": "blackbox"}),  # canary-only has no black-box score
    ("iterations", {"iterations": 0}),
    ("noise_multiplier", {"noise_multiplier": 0.0}),
    ("delta", {"delta": 1.0}),
    ("seed", {"seed": -1}),
    ("k_minus", {"k_minus": -1}),
    ("k_plus", {"k_plus": 25, "k_minus": 20}),  # 45 guesses, 40 canaries
    ("m", {"dim": 30}),  # 40 Dirac canaries need 40 distinct coordinates
    # 1 / sigma^2 overflows; sigma^2 overflows, so rho underflows to zero
    ("noise_multiplier", {"noise_multiplier": 1e-300}),
    ("noise_multiplier", {"noise_multiplier": 1e300}),
    # counts above the largest float, where iterations / (2 sigma^2) would
    # overflow in the noise rule
    ("iterations", {"iterations": 10 ** 320}),
    ("dim", {"dim": 10 ** 320}),
], ids=["clip-nan", "noise-inf", "lr-nan", "label-noise-nan", "loss-hinge",
        "data-negative", "blackbox-canary-only", "iterations-zero",
        "noise-zero", "delta-one", "seed-negative", "k-minus-negative",
        "budget-over-m", "whitebox-m-over-dim", "noise-tiny", "noise-huge",
        "iterations-above-float", "dim-above-float"])
def test_dpsgd_audit_bad_value_named(tmp_path, capsys, key, overrides):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, **overrides)
    with pytest.raises(ValueError, match=f"'{key}'"):
        cli.parse_dpsgd_config(str(cfg_file))
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert (code, out) == (1, "")
    assert f"'{key}'" in err


# for each config key with a rule: a value just outside it, and for the
# trainer keys one just inside it
_JUST_OUTSIDE = {
    "mode": "whitebox2", "loss": "logistics", "m": 0, "delta": 1.0,
    "confidence": "0.95,1.0", "seed": -1, "data_examples": -1,
    "k_plus": -1, "k_minus": -1, "label_noise": "inf",
    "iterations": 0, "clip": 0.0, "noise_multiplier": -5e-324,
    "sample_prob": 1.0000000000000002, "learning_rate": 0.0, "dim": 0,
}
_JUST_INSIDE = {"iterations": 1, "clip": 5e-324, "noise_multiplier": 0.0,
                "sample_prob": 1.0, "learning_rate": 5e-324, "dim": 1}


def test_config_rule_probes_cover_the_tables():
    # every config key has a rule
    assert sorted(_JUST_OUTSIDE) == sorted(cli._DPSGD_KEYS)
    assert sorted(_JUST_INSIDE) == sorted(TRAINER_KEYS)


@pytest.mark.parametrize("key", sorted(_JUST_OUTSIDE))
def test_config_rule_rejects_value_just_outside(tmp_path, key):
    # the parser names the config key; TrainerConfig, for a trainer key,
    # names the field, rejects nan too, and takes the value just inside
    cfg_file = tmp_path / "audit.cfg"
    base = write_config(cfg_file, **{key: _JUST_OUTSIDE[key]})
    with pytest.raises(ValueError, match=f"^config key '{key}' must be "):
        cli.parse_dpsgd_config(str(cfg_file))
    if key in TRAINER_KEYS:
        field = TRAINER_KEYS[key][0]
        for bad in (_JUST_OUTSIDE[key], float("nan")):
            with pytest.raises(ValueError, match=f"^{field} must be "):
                TrainerConfig.from_config(dict(base, **{key: bad}))
        TrainerConfig.from_config(dict(base, **{key: _JUST_INSIDE[key]}))


def test_dpsgd_audit_empty_confidence_usage_exit(tmp_path, capsys):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, confidence="")
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 1
    assert out == ""
    assert "'confidence'" in err


def test_dpsgd_audit_confidence_out_of_range_usage_exit(tmp_path, capsys):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, confidence="0.95,1.5")
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 1
    assert out == ""
    assert "'confidence'" in err


def test_dpsgd_audit_tiny_confidence_usage_exit(tmp_path, capsys):
    # 1 - 1e-300 rounds to 1: named under the key, with the value given
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, confidence="0.95,1e-300")
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert (code, out) == (1, "")
    assert err == f"usage error: config key 'confidence' {_CONF} 1e-300\n"


def test_dpsgd_audit_row_file_is_the_out_option(tmp_path, capsys):
    # --out alone names the row file; no config key overrides it
    cfg_file, rows = tmp_path / "audit.cfg", tmp_path / "rows.jsonl"
    write_config(cfg_file, out=tmp_path / "other.jsonl")
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file),
                             "--out", str(rows))
    assert (code, out) == (1, "")
    assert err == "usage error: unknown config key 'out'\n"
    write_config(cfg_file)
    assert run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file),
                   "--out", str(rows))[0] == 0
    assert len(rows.read_text().splitlines()) == 1
    assert not (tmp_path / "other.jsonl").exists()


def test_dpsgd_audit_sweep_needs_two_examples(tmp_path, capsys):
    # m = 1 with no budget leaves no doubling budget to sweep
    cfg_file = tmp_path / "audit.cfg"
    cfg = write_config(cfg_file, m=1)
    cfg_file.write_text("\n".join(
        f"{k} = {v}" for k, v in cfg.items()
        if k not in ("k_plus", "k_minus")))
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 1
    assert out == ""
    assert "'m'" in err and "argmax" not in err


def sweep_config(path, **overrides):
    """A parsed dpsgd-audit config with no guess budget, which sweeps."""
    cfg = write_config(path, **overrides)
    path.write_text("\n".join(f"{k} = {v}" for k, v in cfg.items()
                              if k not in ("k_plus", "k_minus")))
    return cli.parse_dpsgd_config(str(path))


def test_dpsgd_audit_sweep_rule_is_checked_before_training(tmp_path,
                                                          monkeypatch):
    config = sweep_config(tmp_path / "audit.cfg", m=1)

    def no_training(config):
        raise AssertionError("the adapter was built")

    monkeypatch.setattr(cli.dpsgd_mod, "adapter_dpsgd_audit", no_training)
    with pytest.raises(ValueError, match="config key 'm' must be >= 2"):
        cli.run_dpsgd_audit(config)


def test_dpsgd_audit_sweep_tie_takes_the_first_budget(tmp_path):
    # noise 1000 hides every canary, so every budget's bound is 0; the
    # report names the first budget of the sweep
    config = sweep_config(tmp_path / "audit.cfg", m=64, dim=64, iterations=1,
                          noise_multiplier=1000.0)
    s, y = run_mechanism(adapter_dpsgd_audit(config), 64, config["seed"])
    grid = [(r // 2, r - r // 2) for r in (2, 4, 8, 16, 32, 64)]
    assert all(row.eps_lb == 0.0 for row in k_sweep(y, s, grid, 1e-5, 0.95))
    report = cli.run_dpsgd_audit(config)
    assert (report.k_plus, report.k_minus) == (1, 1)
    assert report.eps_lb == {0.95: 0.0}


@pytest.mark.parametrize("case, reason", [
    ("missing", "No such file or directory"), ("directory", "Is a directory"),
    ("undecodable", "'utf-8' codec can't decode byte 0xff")],
    ids=["missing", "directory", "undecodable"])
def test_dpsgd_audit_unreadable_config_usage_exit(tmp_path, capsys, case,
                                                  reason):
    # the user named a file that cannot be read: exit 1 naming the option
    # and the path, as for any other bad option value
    path = tmp_path / "audit.cfg"
    if case == "directory":
        path.mkdir()
    elif case == "undecodable":
        path.write_bytes(b"\xffmode = whitebox\n")
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(
        f"usage error: argument --config: cannot read {str(path)!r}: {reason}")


def test_dpsgd_audit_repeated_key_usage_exit(tmp_path, capsys):
    # a second value of a key is not silently taken over the first
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file)  # m = 40 on line 2
    last = len(cfg_file.read_text().splitlines())
    with cfg_file.open("a") as fh:
        fh.write("m = 30\n")
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert (code, out) == (1, "")
    assert err == (f"usage error: {cfg_file}:{last + 1}: config key 'm' is "
                   f"already set on line 2\n")


@pytest.mark.parametrize("key, value, kind", [
    ("m", "x", "int"), ("seed", "1.5", "int"), ("clip", "one", "float"),
    ("iterations", "1e3", "int"), ("confidence", "0.95,x", "float")])
def test_dpsgd_audit_malformed_value_names_key_and_text(tmp_path, capsys, key,
                                                        value, kind):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, **{key: value})
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert (code, out) == (1, "")
    typed = value.split(",")[-1]
    assert err == f"usage error: config key {key!r} must be {kind}, " \
        f"got {typed!r}\n"


NAN, INF = float("nan"), float("inf")

# (typical, boundary, invalid) values of each numeric key of a tiny config;
# k_plus and k_minus are optional
_FUZZ_VALUES = {
    "m": ([2, 5, 12], [1, 16], [-1, 0]),
    "dim": ([12, 16], [1, 3], [-1, 0]),
    "iterations": ([2, 3], [1], [-1, 0]),
    "clip": ([0.5, 1.0], [1e-300, 1e300], [NAN, INF, -1.0, 0.0]),
    "noise_multiplier": ([0.5, 2.0], [1e-300, 1e300], [NAN, INF, -1.0, 0.0]),
    "sample_prob": ([0.5, 1.0], [1e-300], [NAN, -0.5, 0.0, 1.5]),
    "learning_rate": ([0.1, 0.2], [1e-300, 1e308], [NAN, INF, -0.2, 0.0]),
    "delta": ([1e-5], [1e-300, 0.5], [NAN, -1e-5, 0.0, 1.0]),
    "confidence": (["0.95"], ["0.5,0.99"], ["0", "1", "nan", ""]),
    "seed": ([0, 7], [2 ** 40], [-1]),
    "data_examples": ([4, 12], [0, 1], [-1]),
    "label_noise": ([0.0, 0.3], [-1.0, 1e300, 1e308], [NAN, INF]),
    "k_plus": ([1, 4], [0, 16], [-1]),
    "k_minus": ([1, 4], [0, 16], [-1]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["whitebox", "blackbox"]),
       loss=st.sampled_from(["canary-only", "logistic", "linear"]),
       odd=st.sampled_from(sorted(_FUZZ_VALUES)), kind=st.sampled_from([1, 2]),
       budget=st.sets(st.sampled_from(["k_plus", "k_minus"])))
def test_dpsgd_audit_config_fuzz(tmp_path_factory, data, mode, loss, odd,
                                 kind, budget):
    # a tiny config with typical values except for one boundary (kind 1) or
    # invalid (kind 2) key: exit 0 with a finite bound and a silent stderr,
    # or the CLI's own usage (1) or runtime (2) error, and no numpy warning
    config = {"mode": mode, "loss": loss}
    for key, values in _FUZZ_VALUES.items():
        if key in budget or not key.startswith("k_"):
            pool = values[kind] if key == odd else values[0]
            config[key] = data.draw(st.sampled_from(pool), label=key)
    cfg_file = tmp_path_factory.mktemp("fuzz") / "audit.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["dpsgd-audit", "--config", str(cfg_file)])
    assert [str(w.message) for w in caught] == []
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        payload = json.loads(out)
        assert all(math.isfinite(lb) and lb >= 0
                   for lb in payload["eps_lb"].values())
    else:
        assert out == ""
        assert err.startswith("usage error:" if code == 1 else "error:")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_rr_deterministic(capsys):
    args = ("simulate", "--mechanism", "rr", "--eps", "1.0", "--m", "300",
            "--delta", "0", "--conf", "0.95", "--seed", "9")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["k_plus"] + payload["k_minus"] == 300


@pytest.mark.parametrize("mechanism", ["rr", "gaussian", "pathological"])
@pytest.mark.parametrize("k_plus,k_minus,option", [
    ("-1", "-3", "--k-plus"), ("2", "-1", "--k-minus")])
def test_simulate_rejects_negative_budget(capsys, mechanism, k_plus, k_minus,
                                          option):
    code, out, err = run_cli(capsys, "simulate", "--mechanism", mechanism,
                             "--m", "10", "--r", "5", "--k-plus", k_plus,
                             "--k-minus", k_minus)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and option in err


def test_simulate_gaussian_uses_budget(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--mechanism", "gaussian",
                           "--sigma", "2.0", "--m", "1000", "--k-plus", "50",
                           "--k-minus", "50", "--delta", "1e-5",
                           "--conf", "0.95", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["k_plus"] == 50 and payload["k_minus"] == 50
    assert payload["config"]["declared_eps"] == pytest.approx(
        gaussian_dp_eps(0.5, 1e-5), abs=1e-6)


def test_simulate_pathological(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--mechanism", "pathological",
                           "--m", "200", "--r", "50", "--eps", "1.0",
                           "--mech-delta", "1e-4", "--beta", "0.05",
                           "--delta", "1e-4", "--conf", "0.95", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["k_plus"] + payload["k_minus"] == 50


_SIMULATE_ARGV = ["--m", "200", "--k-plus", "10", "--k-minus", "12", "--eps",
                  "0.8", "--sigma", "3.7", "--r", "40", "--mech-delta", "1e-3",
                  "--beta", "0.2", "--delta", "1e-4", "--conf", "0.9",
                  "--seed", "4"]
# per JSON-lines command: an argument vector with every option off its
# default, and the option that names the row's file
_RERUN_ARGV = {
    **{mechanism: (["simulate", "--mechanism", mechanism, *_SIMULATE_ARGV],
                   "--out") for mechanism in ("rr", "gaussian", "pathological")},
    "pvalue": (["pvalue", "--m", "200", "--r", "40", "--v", "31", "--eps",
                "0.8", "--delta", "1e-4"], "--out"),
    "epslb": (["epslb", "--m", "200", "--r", "40", "--v", "31", "--delta",
               "1e-4", "--conf", "0.9"], "--out"),
    "pathological-check": (["pathological-check", "--m", "200", "--r", "40",
                            "--eps", "0.8", "--delta", "1e-3", "--beta", "0.2",
                            "--trials", "50", "--seed", "4"], "--report"),
}


def rerun_row(argv, out_option, folder):
    """(row, rerun row), runtime masked: the row argv writes with out_option,
    and the row of an argument vector rebuilt from its inputs and seed alone;
    None when argv does not exit 0."""
    first, second = folder / "first.jsonl", folder / "second.jsonl"
    if cli.main([*argv, out_option, str(first)]) != 0:
        return None
    row = cli.ResultRow(**json.loads(first.read_text()))
    rerun = [row.command, out_option, str(second)]
    if row.seed is not None:
        rerun += ["--seed", str(row.seed)]
    for name, value in row.inputs.items():
        rerun += ["--" + name.replace("_", "-"), str(value)]
    assert cli.main(rerun) == 0
    again = cli.ResultRow(**json.loads(second.read_text()))
    row.runtime_ms = again.runtime_ms = None
    return row, again


@pytest.mark.parametrize("case", [*_RERUN_ARGV, "dpsgd-audit"])
def test_simulate_row_reruns_from_its_inputs(tmp_path, capsys, case):
    # the row's inputs and seed alone must rebuild an argument vector (or a
    # config file) that writes the same row
    if case == "dpsgd-audit":
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_config(tmp_path / "first.cfg", mode="blackbox", loss="linear",
                     dim=12, data_examples=15, label_noise=0.3,
                     sample_prob=0.5, confidence="0.9,0.8", seed=5)
        assert cli.main(["dpsgd-audit", "--config",
                         str(tmp_path / "first.cfg"), "--out", str(first)]) == 0
        row = cli.ResultRow(**json.loads(first.read_text()))
        config = dict(row.inputs, seed=row.seed)
        config["confidence"] = ",".join(map(str, config["confidence"]))
        (tmp_path / "second.cfg").write_text(
            "".join(f"{key} = {value}\n" for key, value in config.items()))
        rerun = ["dpsgd-audit", "--config", str(tmp_path / "second.cfg"),
                 "--out", str(second)]
        assert cli.main(rerun) == 0
        again = cli.ResultRow(**json.loads(second.read_text()))
        row.runtime_ms = again.runtime_ms = None
    else:
        row, again = rerun_row(*_RERUN_ARGV[case], tmp_path)
    assert again.to_json() == row.to_json()


# ---------------------------------------------------------------------------
# argument-vector fuzz

# per subcommand: option -> typical values; every number-valued option can
# instead take one of the odd values below
_ODD_NUMBERS = ["0", "1", "-1", "2.5", "1e-300", "1e300", "nan", "inf",
                "-inf", "x", ""]
_ODD_LISTS = ["", "0", "-1", "nan", "1,x", "1e300", "0.5,2"]
_ARGV_OPTIONS = {
    "pvalue": {"--m": ["10", "20"], "--r": ["5", "10"], "--v": ["0", "3", "5"],
               "--eps": ["0.5", "1.0"], "--delta": ["0", "1e-5"]},
    "epslb": {"--m": ["10", "20"], "--r": ["5", "10"], "--v": ["0", "3", "5"],
              "--delta": ["0", "1e-5"], "--conf": ["0.95"]},
    "experiment-pure": {"--eps": ["0.5", "1.0"], "--guesses": ["10,20", "8"],
                        "--conf": ["0.95"]},
    "experiment-gaussian": {"--sigma": ["2.0"], "--m": ["100"],
                            "--r-grid": ["2,8"],
                            "--delta-grid": ["1e-5"], "--conf-grid": ["0.95"]},
    "pathological-check": {"--m": ["20"], "--r": ["5"], "--eps": ["1.0"],
                           "--delta": ["0", "1e-3"], "--beta": ["0.05"],
                           "--trials": ["5", "20"], "--seed": ["0", "3"]},
    "simulate": {"--mechanism": ["rr", "gaussian", "pathological"],
                 "--m": ["10", "20"], "--k-plus": ["0", "2"],
                 "--k-minus": ["0", "2"], "--eps": ["1.0"], "--sigma": ["2.0"],
                 "--r": ["5"], "--mech-delta": ["0"], "--beta": ["0.05"],
                 "--delta": ["0", "1e-5"], "--conf": ["0.95"],
                 "--seed": ["0"]},
}
_LIST_OPTIONS = ("--guesses", "--r-grid", "--delta-grid", "--conf-grid")
# the options that name output files, which the fuzz leaves unset
_FILE_OPTIONS = {"--out", "--report"}


def parser_options():
    """command -> {option: its argparse action}, --help left out."""
    return {command: {option: action for action in parser._actions
                      for option in action.option_strings
                      if option.startswith("--") and option != "--help"}
            for command, parser in command_parsers().items()}


def test_argv_options_are_the_parser_options():
    # every option of each fuzzed command, so none is left unexercised, and
    # no stale one, which would turn every draw into a usage error
    for command, options in _ARGV_OPTIONS.items():
        defined = set(parser_options()[command])
        assert sorted(options) == sorted(defined - _FILE_OPTIONS), command


# per command, an argument vector that passes; and per (command, option), a
# value just outside the option's rule, the counts' and reals' from their
# type= parsers, the mechanism's from its choices and the config file's from
# reading it
_PROBE_ARGV = {
    "pvalue": ["--m", "20", "--r", "10", "--v", "5", "--eps", "1"],
    "epslb": ["--m", "20", "--r", "10", "--v", "5"],
    "experiment-pure": ["--eps", "1", "--guesses", "10"],
    "experiment-gaussian": ["--m", "100", "--r-grid", "2"],
    "pathological-check": ["--m", "20", "--r", "5", "--eps", "1", "--delta",
                           "0", "--beta", "0.05", "--trials", "5"],
    "dpsgd-audit": [],
    "simulate": ["--mechanism", "pathological", "--m", "20", "--r", "5"],
}
_ABOVE_ONE = "1.0000000000000002"
_BELOW_ZERO = "-5e-324"
_OPTION_JUST_OUTSIDE = {
    "pvalue": {"--m": "0", "--r": "-1", "--v": "-1", "--eps": _BELOW_ZERO,
               "--delta": _ABOVE_ONE},
    "epslb": {"--m": "0", "--r": "-1", "--v": "-1", "--delta": _BELOW_ZERO,
              "--conf": "1"},
    "experiment-pure": {"--eps": _BELOW_ZERO, "--guesses": "10,0",
                        "--conf": "0"},
    "experiment-gaussian": {"--sigma": "0", "--m": "0", "--r-grid": "2,0",
                            "--delta-grid": "0", "--conf-grid": "0.95,1"},
    "pathological-check": {"--m": "0", "--r": "0", "--eps": _BELOW_ZERO,
                           "--delta": _ABOVE_ONE, "--beta": _ABOVE_ONE,
                           "--trials": "0", "--seed": "-1"},
    "dpsgd-audit": {"--config": "/nonexistent/audit.cfg"},
    "simulate": {"--mechanism": "laplace", "--m": "0", "--k-plus": "-1",
                 "--k-minus": "-1", "--eps": _BELOW_ZERO, "--sigma": "0",
                 "--r": "-1", "--mech-delta": _ABOVE_ONE,
                 "--beta": _ABOVE_ONE, "--delta": _BELOW_ZERO, "--conf": "1",
                 "--seed": "-1"},
}
_PROBES = sorted((command, option)
                 for command, options in _OPTION_JUST_OUTSIDE.items()
                 for option in options)


def test_every_value_option_has_a_rule_and_a_probe():
    # a new option fails here until it has a parser with a rule (argparse's
    # bare int or float takes -1, nan and inf alike) and a probe above
    bare = [(command, option)
            for command, options in parser_options().items()
            for option, action in options.items()
            if action.type in (int, float)]
    assert bare == []
    valued = sorted((command, option)
                    for command, options in parser_options().items()
                    for option, action in options.items()
                    if action.nargs != 0 and option not in _FILE_OPTIONS)
    assert _PROBES == valued
    assert sorted(_PROBE_ARGV) == sorted(parser_options())


@pytest.mark.parametrize("command, option", _PROBES,
                         ids=[" ".join(probe) for probe in _PROBES])
def test_option_rejects_value_just_outside(capsys, command, option):
    # the last occurrence of an option wins, but each one is parsed; the
    # message names the option and the value (of a list, the bad item)
    value = _OPTION_JUST_OUTSIDE[command][option]
    code, out, err = run_cli(capsys, command, *_PROBE_ARGV[command],
                             f"{option}={value}")
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: argument {option}: ")
    assert value.split(",")[-1] in err


@pytest.mark.parametrize("command",
                         sorted(set(_PROBE_ARGV) - {"dpsgd-audit"}))
def test_option_probe_argv_passes(capsys, command):
    # so a probe's exit 1 comes from its value alone (dpsgd-audit's one
    # value option is the config file)
    code, _, err = run_cli(capsys, command, *_PROBE_ARGV[command])
    assert (code, err) == (0, "")


def draw_argv(data, command):
    """Typical values except, usually, for one option at a boundary or
    invalid value."""
    options = _ARGV_OPTIONS[command]
    odd = data.draw(st.sampled_from([None] + sorted(options)), label="odd")
    argv = [command]
    for option, typical in options.items():
        if option == odd and option != "--mechanism":
            pool = _ODD_LISTS if option in _LIST_OPTIONS else _ODD_NUMBERS
        else:
            pool = typical
        argv += [option, data.draw(st.sampled_from(pool), label=option)]
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_ARGV_OPTIONS)))
def test_cli_argv_fuzz(data, command):
    # exit 0 with a silent stderr and no nan in the result, or the CLI's own
    # usage (1) or runtime (2) error, and no numpy warning
    argv = draw_argv(data, command)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        assert "nan" not in out.lower()
    else:
        assert out == ""
        assert err.startswith("usage error:" if code == 1 else "error:")


# the JSON-lines commands among the fuzzed ones, and their row file option
_ROW_OPTION = {"pvalue": "--out", "epslb": "--out",
               "pathological-check": "--report", "simulate": "--out"}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_ROW_OPTION)))
def test_row_reruns_from_its_inputs_fuzz(tmp_path_factory, data, command):
    # every exit-0 argument vector of the fuzz writes a row whose inputs and
    # seed alone rebuild an argument vector that writes the same row
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rows = rerun_row(draw_argv(data, command), _ROW_OPTION[command],
                         tmp_path_factory.mktemp("rerun"))
    event("exit 0" if rows else "exit 1 or 2")
    assume(rows is not None)
    row, again = rows
    assert again.to_json() == row.to_json()
