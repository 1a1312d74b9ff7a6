"""CLI subcommands: outputs, exit codes, persistence, reproducibility."""

import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dpaudit import cli
from dpaudit.dpsgd import (LossModel, TrainerConfig, blackbox_adapter,
                          dirac_canaries, mislabeled_canaries,
                          whitebox_adapter)
from dpaudit.mechanisms import gaussian_dp_eps
from dpaudit.pipeline import audit_run


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    row = cli.ResultRow.from_json(line)
    assert row.command == "epslb"
    assert row.inputs == {"m": 100, "r": 100, "v": 75, "delta": 0.0,
                          "conf": 0.95}
    assert row.outputs["eps_lb"] == pytest.approx(0.702, abs=1e-3)
    # round trip: emit(parse(emit(x))) is identical
    assert cli.ResultRow.from_json(row.to_json()) == row


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path / "results"))
    code, _, _ = run_cli(capsys, "epslb", "--m", "10", "--r", "10",
                         "--v", "9", "--delta", "0", "--conf", "0.9",
                         "--out", "rows.jsonl")
    assert code == 0
    assert (tmp_path / "results" / "rows.jsonl").exists()


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


def test_pathological_check_invalid_parameters(capsys):
    # m*delta > r*beta violates the mechanism precondition
    code, _, err = run_cli(capsys, "pathological-check", "--m", "1000",
                           "--r", "10", "--eps", "1.0", "--delta", "1e-2",
                           "--beta", "0.05", "--trials", "10")
    assert code == 1
    assert "beta" in err or "delta" in err


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
    m, delta, seed = config["m"], config["delta"], config["seed"]
    cfg = TrainerConfig(
        ell=config["iterations"], clip=config["clip"],
        noise_multiplier=config["noise_multiplier"],
        sample_prob=config["sample_prob"],
        learning_rate=config["learning_rate"], dim=config["dim"])
    setup_rng = np.random.default_rng([seed, 1])
    if config["mode"] == "whitebox":
        adapter = whitebox_adapter(
            LossModel.canary_only(cfg.dim),
            dirac_canaries(m, cfg.dim, setup_rng), cfg, delta)
    else:
        model = LossModel.synthetic("logistic", config["data_examples"],
                                    cfg.dim, setup_rng)
        adapter = blackbox_adapter(
            model, mislabeled_canaries(model, m, setup_rng), cfg, delta)
    expected = audit_run(adapter, m, config["k_plus"], config["k_minus"],
                         delta, config["confidence"], seed)
    report = cli.run_dpsgd_audit(config)
    assert expected.summary.r // 2 < expected.summary.v < expected.summary.r
    assert report.summary == expected.summary
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


def test_dpsgd_audit_overwhelming_noise_estimates_zero(tmp_path, capsys):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, noise_multiplier=1000.0, m=30, dim=30,
                 k_plus=8, k_minus=8)
    code, out, _ = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["eps_lb"]["0.95"] <= 0.25


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
], ids=["clip-nan", "noise-inf", "lr-nan", "label-noise-nan", "loss-hinge",
        "data-negative", "blackbox-canary-only", "iterations-zero",
        "noise-zero", "delta-one", "seed-negative", "k-minus-negative",
        "budget-over-m", "whitebox-m-over-dim"])
def test_dpsgd_audit_bad_value_named(tmp_path, capsys, key, overrides):
    cfg_file = tmp_path / "audit.cfg"
    write_config(cfg_file, **overrides)
    with pytest.raises(ValueError, match=f"'{key}'"):
        cli.parse_dpsgd_config(str(cfg_file))
    code, out, err = run_cli(capsys, "dpsgd-audit", "--config", str(cfg_file))
    assert (code, out) == (1, "")
    assert f"'{key}'" in err


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


def test_dpsgd_audit_missing_file_runtime_exit(capsys):
    code, _, err = run_cli(capsys, "dpsgd-audit", "--config",
                           "/nonexistent/audit.cfg")
    assert code == 2
    assert "error" in err.lower()


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
    "label_noise": ([0.0, 0.3], [-1.0, 1e300], [NAN, INF]),
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
