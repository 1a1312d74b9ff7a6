"""Command-line surface and experiment drivers.

Subcommands:
  pvalue             p-value of an observed guess count under a DP null
  epslb              epsilon lower bound at a confidence level
  experiment-pure    idealized randomized-response sweep over guess counts
  experiment-gaussian idealized Gaussian score release sweep (with upper bound)
  pathological-check Monte-Carlo check of the tail bound on the worst case
  dpsgd-audit        end-to-end audit of a desk-scale DP-SGD run (config file)
  simulate           one audit run of a chosen simulated mechanism

Tables are CSV; reports are line-delimited JSON records that echo their
inputs and seed, so every row can be reproduced.  Exit codes: 0 success,
1 usage error, 2 runtime failure.  DPAUDIT_OUTDIR sets the default output
directory for relative --out paths.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from typing import Any, Sequence

import numpy as np

from . import dpsgd as dpsgd_mod
from . import mechanisms, pipeline
from .estimator import (GuessSummary, PrivacyParams, eps_lower_bound,
                        p_value_audit, rr_accuracy)

ENV_OUTDIR = "DPAUDIT_OUTDIR"


@dataclasses.dataclass
class ResultRow:
    """One persisted result: echoed inputs, outputs, timing, seed."""

    command: str
    inputs: dict[str, Any]
    outputs: dict[str, Any]
    confidence: float | None
    runtime_ms: float
    seed: int | None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ResultRow":
        return cls(**json.loads(line))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise _UsageError(message)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(ENV_OUTDIR)
    if outdir and not os.path.isabs(path):
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, path)
    return path


def _append_row(out: str | None, **fields: Any) -> None:
    out = _resolve_out(out)
    if out is None:
        return
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(ResultRow(**fields).to_json() + "\n")


def _emit_csv(fieldnames: Sequence[str], rows: Sequence[dict],
              out: str | None) -> None:
    out = _resolve_out(out)
    sink = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out:
            sink.close()


def _num_list(text: str, kind: type = float) -> list:
    return [kind(x) for x in text.split(",") if x.strip()]


def _doubling_grid(lo: int, hi: int) -> list[int]:
    grid, r = [], lo
    while r <= hi:
        grid.append(r)
        r *= 2
    return grid


def cmd_pvalue(args) -> int:
    t0 = time.perf_counter()
    summary = GuessSummary(m=args.m, k_plus=args.r, k_minus=0, v=args.v)
    p = p_value_audit(summary, PrivacyParams(args.eps, args.delta))
    print(f"{p:.6g}")
    _append_row(
        args.out, command="pvalue",
        inputs={"m": args.m, "r": args.r, "v": args.v, "eps": args.eps,
                "delta": args.delta},
        outputs={"p_value": p}, confidence=None,
        runtime_ms=(time.perf_counter() - t0) * 1e3, seed=None)
    return 0


def cmd_epslb(args) -> int:
    t0 = time.perf_counter()
    lb = eps_lower_bound(args.m, args.r, args.v, args.delta,
                         1.0 - args.conf)
    print(f"{lb:.6g}")
    _append_row(
        args.out, command="epslb",
        inputs={"m": args.m, "r": args.r, "v": args.v, "delta": args.delta,
                "conf": args.conf},
        outputs={"eps_lb": lb}, confidence=args.conf,
        runtime_ms=(time.perf_counter() - t0) * 1e3, seed=None)
    return 0


def cmd_experiment_pure(args) -> int:
    guesses = _num_list(args.guesses, int)
    q = rr_accuracy(args.eps)
    rows = []
    for r in guesses:
        v = math.floor(r * q)
        lb = eps_lower_bound(r, r, v, 0.0, 1.0 - args.conf)
        rows.append({"r": r, "v": v, "eps_lb": f"{lb:.6g}"})
    _emit_csv(["r", "v", "eps_lb"], rows, args.out)
    return 0


def cmd_experiment_gaussian(args) -> int:
    guesses = _num_list(args.r_grid, int)
    deltas = _num_list(args.delta_grid)
    confs = _num_list(args.conf_grid)
    cfg = mechanisms.GaussianReportConfig(sigma=args.sigma,
                                          sensitivity=args.sensitivity)
    uppers = {d: mechanisms.gaussian_dp_eps(cfg.rho, d) for d in deltas}
    rows = []
    for r in guesses:
        _, v = mechanisms.expected_correct_gaussian(args.m, r, args.sigma)
        for d in deltas:
            for conf in confs:
                lb = eps_lower_bound(args.m, r, v, d, 1.0 - conf)
                rows.append({
                    "r": r, "v": v, "delta": f"{d:g}", "confidence": conf,
                    "eps_lb": f"{lb:.6g}", "eps_upper": f"{uppers[d]:.6g}",
                })
    _emit_csv(["r", "v", "delta", "confidence", "eps_lb", "eps_upper"],
              rows, args.out)
    return 0


def cmd_pathological_check(args) -> int:
    cfg = mechanisms.PathologicalConfig(m=args.m, r=args.r, eps=args.eps,
                                        delta=args.delta, beta=args.beta)
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    w_samples = np.empty(args.trials, dtype=int)
    for k in range(args.trials):
        s = pipeline.sample_selection(args.m, rng)
        t = mechanisms.pathological(s, cfg, rng)
        w_samples[k] = pipeline.count_correct(s, t)
    params = PrivacyParams(args.eps, args.delta)
    rows, worst_z = [], -math.inf
    for v in range(args.r + 1):
        phat = float(np.mean(w_samples >= v))
        bound = p_value_audit(
            GuessSummary(m=args.m, k_plus=args.r, k_minus=0, v=v), params)
        se = math.sqrt(bound * (1.0 - bound) / args.trials)
        z = (phat - bound) / se if se > 0 else (math.inf if phat > bound else 0.0)
        worst_z = max(worst_z, z)
        rows.append({"v": v, "mc_tail": f"{phat:.6g}",
                     "bound": f"{bound:.6g}", "z": f"{z:.3f}"})
    violations = sum(1 for row in rows if float(row["z"]) > 3.0)
    if args.out:
        _emit_csv(["v", "mc_tail", "bound", "z"], rows, args.out)
    print(f"trials={args.trials} max_z={worst_z:.3f} "
          f"violations_beyond_3sigma={violations}")
    _append_row(
        args.report, command="pathological-check",
        inputs={"m": args.m, "r": args.r, "eps": args.eps,
                "delta": args.delta, "beta": args.beta,
                "trials": args.trials},
        outputs={"max_z": worst_z, "violations": violations},
        confidence=None, runtime_ms=(time.perf_counter() - t0) * 1e3,
        seed=args.seed)
    return 0


def _parse_config_file(path: str) -> dict[str, str]:
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    return raw


_DPSGD_KEYS = {
    "mode": str, "loss": str, "m": int, "dim": int, "iterations": int,
    "clip": float, "noise_multiplier": float, "sample_prob": float,
    "learning_rate": float, "delta": float, "confidence": _num_list,
    "k_plus": int, "k_minus": int, "seed": int, "data_examples": int,
    "label_noise": float, "out": str,
}

_DPSGD_DEFAULTS = {
    "loss": "canary-only", "confidence": [0.95], "seed": 0,
    "data_examples": 0, "label_noise": 0.0,
}

_DPSGD_REQUIRED = ("mode", "m", "dim", "iterations", "clip",
                   "noise_multiplier", "sample_prob", "learning_rate", "delta")

# (key, rule, rule text) for each numeric key with a range
_DPSGD_RANGES = (
    ("m", lambda v: v >= 1, ">= 1"),
    ("dim", lambda v: v >= 1, ">= 1"),
    ("iterations", lambda v: v >= 1, ">= 1"),
    ("clip", lambda v: v > 0, "> 0"),
    ("noise_multiplier", lambda v: v > 0,
     "> 0 (no privacy guarantee without noise)"),
    ("sample_prob", lambda v: 0 < v <= 1, "in (0, 1]"),
    ("learning_rate", lambda v: v > 0, "> 0"),
    ("delta", lambda v: 0 < v < 1, "in (0, 1)"),
    ("seed", lambda v: v >= 0, ">= 0"),
    ("data_examples", lambda v: v >= 0, ">= 0"),
    ("k_plus", lambda v: v >= 0, ">= 0"),
    ("k_minus", lambda v: v >= 0, ">= 0"),
)


def parse_dpsgd_config(path: str) -> dict[str, Any]:
    """Parse and type-check a flat key=value config; errors name the key."""
    raw = _parse_config_file(path)
    config: dict[str, Any] = dict(_DPSGD_DEFAULTS)
    for key, value in raw.items():
        if key not in _DPSGD_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            config[key] = _DPSGD_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"bad value for config key {key!r}: {exc}")
        if _DPSGD_KEYS[key] is float and not math.isfinite(config[key]):
            raise ValueError(
                f"config key {key!r} must be finite, got {config[key]!r}")
    missing = [k for k in _DPSGD_REQUIRED if k not in config]
    if missing:
        raise ValueError(f"dpsgd-audit experiment missing parameter(s): "
                         f"{', '.join(missing)}")
    if config["mode"] not in ("whitebox", "blackbox"):
        raise ValueError(f"config key 'mode' must be whitebox or blackbox, "
                         f"got {config['mode']!r}")
    if config["loss"] not in ("canary-only", "logistic", "linear"):
        raise ValueError(f"config key 'loss' must be canary-only, logistic "
                         f"or linear, got {config['loss']!r}")
    if config["mode"] == "blackbox" and config["loss"] == "canary-only":
        raise ValueError(
            "config key 'loss' must be logistic or linear in blackbox mode")
    for key, ok, rule in _DPSGD_RANGES:
        if key in config and not ok(config[key]):
            raise ValueError(
                f"config key {key!r} must be {rule}, got {config[key]!r}")
    m = config["m"]
    if config["mode"] == "whitebox" and m > config["dim"]:
        raise ValueError(f"config key 'm' must be <= dim in whitebox mode "
                         f"(one coordinate per canary), got {m} > "
                         f"{config['dim']}")
    k_plus, k_minus = config.get("k_plus", 0), config.get("k_minus", 0)
    if k_plus + k_minus > m:
        raise ValueError(f"config keys 'k_plus' + 'k_minus' must be <= m, "
                         f"got {k_plus} + {k_minus} > {m}")
    confidences = config["confidence"]
    if not confidences or not all(0 < c < 1 for c in confidences):
        raise ValueError(f"config key 'confidence' must be a nonempty list of "
                         f"values in (0, 1), got {confidences!r}")
    if "k_plus" not in config and "k_minus" not in config and m < 2:
        raise ValueError(f"config key 'm' must be >= 2 to sweep guess budgets "
                         f"(or set k_plus/k_minus), got {m}")
    return config


def run_dpsgd_audit(config: dict[str, Any]) -> pipeline.AuditReport:
    """Train once with selection-gated canaries, score, and estimate.

    Model and canary construction use a seed stream disjoint from the
    selection coins and training noise, so the audited randomness is
    independent of the setup.
    """
    cfg = dpsgd_mod.TrainerConfig(
        ell=config["iterations"], clip=config["clip"],
        noise_multiplier=config["noise_multiplier"],
        sample_prob=config["sample_prob"],
        learning_rate=config["learning_rate"], dim=config["dim"])
    seed = config["seed"]
    delta = config["delta"]
    setup_rng = np.random.default_rng([seed, 1])
    m = config["m"]
    if config["loss"] == "canary-only":
        model = dpsgd_mod.LossModel.canary_only(cfg.dim)
    else:
        model = dpsgd_mod.LossModel.synthetic(
            config["loss"], config["data_examples"], cfg.dim, setup_rng,
            label_noise=config["label_noise"])
    if config["mode"] == "whitebox":
        adapter = dpsgd_mod.whitebox_adapter(
            model, dpsgd_mod.dirac_canaries(m, cfg.dim, setup_rng),
            cfg, delta)
    else:
        adapter = dpsgd_mod.blackbox_adapter(
            model, dpsgd_mod.mislabeled_canaries(model, m, setup_rng), cfg,
            delta)
    s, y = pipeline.run_mechanism(adapter, m, seed)

    confidences = config["confidence"]
    sweep_caveat = False
    known_lb = {}  # confidence -> bound already computed by the sweep
    if "k_plus" in config or "k_minus" in config:
        k_plus = config.get("k_plus", 0)
        k_minus = config.get("k_minus", 0)
        t = pipeline.make_guesses(y, k_plus, k_minus)
        v = pipeline.count_correct(s, t)
    else:
        # No guess budget given: sweep doublings and keep the best point,
        # which is multiple testing; the caveat is recorded in the report.
        grid = [(r // 2, r - r // 2) for r in _doubling_grid(2, m)]
        sweep = pipeline.k_sweep(y, s, grid, delta, confidences[0])
        k_plus, k_minus, v = sweep.best.k_plus, sweep.best.k_minus, sweep.best.v
        known_lb[confidences[0]] = sweep.best.eps_lb
        sweep_caveat = True
    summary = GuessSummary(m=m, k_plus=k_plus, k_minus=k_minus, v=v)
    eps_lb = {conf: known_lb[conf] if conf in known_lb else
              eps_lower_bound(m, summary.r, v, delta, 1.0 - conf)
              for conf in confidences}
    p_values = {e: p_value_audit(summary, PrivacyParams(e, delta))
                for e in pipeline.DEFAULT_EPS_GRID}
    report = pipeline.AuditReport(
        summary=summary, eps_lb=eps_lb, p_values=p_values, seed=seed,
        config={
            "mechanism": f"dpsgd-{config['mode']}",
            "multiple_testing_caveat": sweep_caveat,
            "dpsgd": dataclasses.asdict(cfg),
            "loss": config["loss"],
            "delta": delta,
            "theoretical_eps_upper": adapter.eps,
            "accounting": dataclasses.asdict(dpsgd_mod.privacy_accounting(cfg)),
        })
    return report


def cmd_dpsgd_audit(args) -> int:
    config = parse_dpsgd_config(args.config)
    t0 = time.perf_counter()
    report = run_dpsgd_audit(config)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    payload = report.to_dict()
    print(json.dumps(payload, sort_keys=True))
    _append_row(
        config.get("out") or args.out, command="dpsgd-audit",
        inputs=dict(config), outputs=payload,
        confidence=config["confidence"][0], runtime_ms=runtime_ms,
        seed=config["seed"])
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    if args.mechanism == "rr":
        adapter = pipeline.adapter_randomized_response(args.eps)
    elif args.mechanism == "gaussian":
        adapter = pipeline.adapter_gaussian_report(
            mechanisms.GaussianReportConfig(sigma=args.sigma),
            delta=args.delta)
    else:  # "pathological"; argparse restricts the choices
        adapter = pipeline.adapter_pathological(
            mechanisms.PathologicalConfig(
                m=args.m, r=args.r, eps=args.eps,
                delta=args.mech_delta, beta=args.beta))
    report = pipeline.audit_run(adapter, args.m, args.k_plus, args.k_minus,
                                args.delta, [args.conf], args.seed)
    payload = report.to_dict()
    print(json.dumps(payload, sort_keys=True))
    _append_row(
        args.out, command="simulate",
        inputs={"mechanism": args.mechanism, "m": args.m,
                "k_plus": args.k_plus, "k_minus": args.k_minus,
                "delta": args.delta, "conf": args.conf},
        outputs=payload, confidence=args.conf,
        runtime_ms=(time.perf_counter() - t0) * 1e3, seed=args.seed)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dpaudit",
                     description="Single-run differential privacy auditing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pvalue", help="p-value under an (eps, delta)-DP null")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pvalue)

    p = sub.add_parser("epslb", help="epsilon lower bound at a confidence")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--conf", type=float, default=0.95)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_epslb)

    p = sub.add_parser("experiment-pure",
                       help="randomized-response ideal: eps_lb vs guesses")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--guesses", default=",".join(
        str(r) for r in _doubling_grid(10, 10240)))
    p.add_argument("--conf", type=float, default=0.95)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment_pure)

    p = sub.add_parser("experiment-gaussian",
                       help="Gaussian score release ideal: eps_lb vs guesses")
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--sensitivity", type=float, default=2.0)
    p.add_argument("--m", type=int, default=100_000)
    p.add_argument("--r-grid", default=",".join(
        str(r) for r in _doubling_grid(2, 16384)))
    p.add_argument("--delta-grid", default="1e-5")
    p.add_argument("--conf-grid", default="0.95")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment_gaussian)

    p = sub.add_parser("pathological-check",
                       help="Monte-Carlo validation of the tail bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV of per-threshold tails")
    p.add_argument("--report", default=None, help="JSONL result row")
    p.set_defaults(func=cmd_pathological_check)

    p = sub.add_parser("dpsgd-audit",
                       help="audit a desk-scale DP-SGD run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dpsgd_audit)

    p = sub.add_parser("simulate", help="one audit run of a toy mechanism")
    p.add_argument("--mechanism", choices=("rr", "gaussian", "pathological"),
                   required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k-plus", type=int, default=0)
    p.add_argument("--k-minus", type=int, default=0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--mech-delta", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--conf", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
