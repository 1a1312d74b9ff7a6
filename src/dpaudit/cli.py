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
from .estimator import (REAL_INTERVALS, GuessSummary, PrivacyParams,
                        check_counts, check_order, check_reals,
                        eps_lower_bound, p_value_audit, rr_accuracy)

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


# A JSON-lines command returns (row file, row fields): its outputs,
# confidence and seed, and its inputs when they are not simply its parsed
# arguments.  main() times the command and adds command, inputs and runtime.
_Record = tuple[str | None, dict[str, Any]]


def cmd_pvalue(args) -> _Record:
    check_counts(0, **{"--r": args.r})
    check_order(**{"--v": args.v, "--r": args.r, "--m": args.m})
    summary = GuessSummary(m=args.m, k_plus=args.r, k_minus=0, v=args.v)
    p = p_value_audit(summary, PrivacyParams(args.eps, args.delta))
    print(f"{p:.6g}")
    return args.out, {"outputs": {"p_value": p}, "confidence": None,
                      "seed": None}


def cmd_epslb(args) -> _Record:
    check_reals("confidence", **{"--conf": args.conf})
    check_order(**{"--v": args.v, "--r": args.r, "--m": args.m})
    check_reals("[0, 1]", **{"--delta": args.delta})
    lb = eps_lower_bound(args.m, args.r, args.v, args.delta,
                         1.0 - args.conf)
    print(f"{lb:.6g}")
    return args.out, {"outputs": {"eps_lb": lb}, "confidence": args.conf,
                      "seed": None}


def cmd_experiment_pure(args) -> None:
    guesses = _num_list(args.guesses, int)
    check_reals("confidence", **{"--conf": args.conf})
    q = rr_accuracy(args.eps)
    rows = []
    for r in guesses:
        check_counts(1, **{"--guesses": r})
        v = math.floor(r * q)
        lb = eps_lower_bound(r, r, v, 0.0, 1.0 - args.conf)
        rows.append({"r": r, "v": v, "eps_lb": f"{lb:.6g}"})
    _emit_csv(["r", "v", "eps_lb"], rows, args.out)


def cmd_experiment_gaussian(args) -> None:
    guesses = _num_list(args.r_grid, int)
    deltas = _num_list(args.delta_grid)
    confs = _num_list(args.conf_grid)
    check_reals("(0, inf)", **{"--sigma": args.sigma})
    for r in guesses:
        check_order(**{"--r-grid": r, "--m": args.m})
    for d in deltas:
        check_reals("(0, 1)", **{"--delta-grid": d})
    for conf in confs:
        check_reals("confidence", **{"--conf-grid": conf})
    cfg = mechanisms.GaussianReportConfig(sigma=args.sigma)
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


def cmd_pathological_check(args) -> _Record:
    check_counts(1, **{"--trials": args.trials})
    check_order(**{"--r": args.r, "--m": args.m})
    cfg = mechanisms.PathologicalConfig(m=args.m, r=args.r, eps=args.eps,
                                        delta=args.delta, beta=args.beta)
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
    return args.report, {
        "outputs": {"max_z": worst_z, "violations": violations},
        "confidence": None, "seed": args.seed}


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


_REQUIRED = object()  # the default of a config key that must be given

# The dpsgd-audit config keys: key -> (type, default, rule, what a value must
# do).  A default of None lets a key be absent; the trainer keys' rows come
# from dpsgd.TRAINER_KEYS and are required.
_DPSGD_KEYS = {
    "mode": (str, _REQUIRED, lambda v: v in ("whitebox", "blackbox"),
             "be whitebox or blackbox"),
    "loss": (str, "canary-only",
             lambda v: v in ("canary-only", "logistic", "linear"),
             "be canary-only, logistic or linear"),
    "m": (int, _REQUIRED, lambda v: v >= 1, "be >= 1"),
    **{key: (kind, _REQUIRED, *REAL_INTERVALS[interval])
       for key, (_, kind, interval) in dpsgd_mod.TRAINER_KEYS.items()},
    "delta": (float, _REQUIRED, *REAL_INTERVALS["(0, 1)"]),
    "confidence": (_num_list, [0.95], bool, "be a nonempty list"),
    "seed": (int, 0, lambda v: v >= 0, "be >= 0"),
    "data_examples": (int, 0, lambda v: v >= 0, "be >= 0"),
    "label_noise": (float, 0.0, *REAL_INTERVALS["finite"]),
    "k_plus": (int, None, lambda v: v >= 0, "be >= 0"),
    "k_minus": (int, None, lambda v: v >= 0, "be >= 0"),
}


def parse_dpsgd_config(path: str) -> dict[str, Any]:
    """Parse and type-check a flat key=value config; errors name the key."""
    config: dict[str, Any] = {
        key: default for key, (_, default, _, _) in _DPSGD_KEYS.items()
        if default is not None and default is not _REQUIRED}
    for key, value in _parse_config_file(path).items():
        if key not in _DPSGD_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        kind = _DPSGD_KEYS[key][0]
        try:
            config[key] = kind(value)
        except ValueError as exc:
            raise ValueError(f"bad value for config key {key!r}: {exc}")
    missing = [key for key, (_, default, _, _) in _DPSGD_KEYS.items()
               if default is _REQUIRED and key not in config]
    if missing:
        raise ValueError(f"dpsgd-audit experiment missing parameter(s): "
                         f"{', '.join(missing)}")
    for key, (_, _, ok, rule) in _DPSGD_KEYS.items():
        if key in config and not ok(config[key]):
            raise ValueError(
                f"config key {key!r} must {rule}, got {config[key]!r}")
    for conf in config["confidence"]:
        check_reals("confidence", **{"config key 'confidence'": conf})
    if config["mode"] == "blackbox" and config["loss"] == "canary-only":
        raise ValueError(
            "config key 'loss' must be logistic or linear in blackbox mode")
    sigma = config["noise_multiplier"]
    if not dpsgd_mod.noise_rule_ok(sigma, config["iterations"]):
        raise ValueError(f"config key 'noise_multiplier' must "
                         f"{dpsgd_mod.NOISE_RULE.format(ell='iterations')}, "
                         f"got {sigma!r}")
    m = config["m"]
    if config["mode"] == "whitebox" and m > config["dim"]:
        raise ValueError(f"config key 'm' must be <= dim in whitebox mode "
                         f"(one coordinate per canary), got {m} > "
                         f"{config['dim']}")
    k_plus, k_minus = config.get("k_plus", 0), config.get("k_minus", 0)
    if k_plus + k_minus > m:
        raise ValueError(f"config keys 'k_plus' + 'k_minus' must be <= m, "
                         f"got {k_plus} + {k_minus} > {m}")
    if "k_plus" not in config and "k_minus" not in config and m < 2:
        raise ValueError(f"config key 'm' must be >= 2 to sweep guess budgets "
                         f"(or set k_plus/k_minus), got {m}")
    return config


def run_dpsgd_audit(config: dict[str, Any]) -> pipeline.AuditReport:
    """Train once with selection-gated canaries, score, guess and estimate;
    dpsgd.adapter_dpsgd_audit builds the model, canaries and adapter."""
    seed, delta, m = config["seed"], config["delta"], config["m"]
    adapter = dpsgd_mod.adapter_dpsgd_audit(config)
    s, y = pipeline.run_mechanism(adapter, m, seed)

    confidences = config["confidence"]
    # No guess budget given: sweep doublings and keep the best point, which
    # is multiple testing; the caveat is recorded in the report.
    sweep_caveat = "k_plus" not in config and "k_minus" not in config
    known_lb = {}  # confidence -> bound already computed by the sweep
    if sweep_caveat:
        grid = [(r // 2, r - r // 2) for r in _doubling_grid(2, m)]
        sweep = pipeline.k_sweep(y, s, grid, delta, confidences[0])
        k_plus, k_minus, v = sweep.best.k_plus, sweep.best.k_minus, sweep.best.v
        known_lb[confidences[0]] = sweep.best.eps_lb
    else:
        k_plus, k_minus = config.get("k_plus", 0), config.get("k_minus", 0)
        v = pipeline.count_correct(s, pipeline.make_guesses(y, k_plus, k_minus))
    summary = GuessSummary(m=m, k_plus=k_plus, k_minus=k_minus, v=v)
    eps_lb = {conf: known_lb[conf] if conf in known_lb else
              eps_lower_bound(m, summary.r, v, delta, 1.0 - conf)
              for conf in confidences}
    p_values = {e: p_value_audit(summary, PrivacyParams(e, delta))
                for e in pipeline.DEFAULT_EPS_GRID}
    cfg = dpsgd_mod.TrainerConfig.from_config(config)
    return pipeline.AuditReport(
        summary=summary, eps_lb=eps_lb, p_values=p_values, seed=seed,
        config={
            "mechanism": adapter.name,
            "multiple_testing_caveat": sweep_caveat,
            "dpsgd": dataclasses.asdict(cfg),
            "loss": config["loss"],
            "delta": delta,
            "theoretical_eps_upper": adapter.eps,
            "accounting": dataclasses.asdict(dpsgd_mod.privacy_accounting(cfg)),
        })


def cmd_dpsgd_audit(args) -> _Record:
    config = parse_dpsgd_config(args.config)
    payload = run_dpsgd_audit(config).to_dict()
    print(json.dumps(payload, sort_keys=True))
    return args.out, {
        "inputs": dict(config), "outputs": payload,
        "confidence": config["confidence"][0], "seed": config["seed"]}


# the options that shape each mechanism's output, echoed in its result row
_SIMULATE_OPTIONS = {"rr": ("eps",), "gaussian": ("sigma",),
                     "pathological": ("r", "eps", "mech_delta", "beta")}


def cmd_simulate(args) -> _Record:
    check_counts(0, **{"--k-plus": args.k_plus, "--k-minus": args.k_minus})
    check_reals("confidence", **{"--conf": args.conf})
    if args.mechanism == "rr":
        adapter = pipeline.adapter_randomized_response(args.eps)
    elif args.mechanism == "gaussian":  # the one that reads the budget
        check_order(**{"--k-plus + --k-minus": args.k_plus + args.k_minus,
                       "--m": args.m})
        adapter = pipeline.adapter_gaussian_report(
            mechanisms.GaussianReportConfig(sigma=args.sigma),
            delta=args.delta)
    else:  # "pathological"; argparse restricts the choices
        check_reals("[0, 1]", **{"--mech-delta": args.mech_delta})
        adapter = pipeline.adapter_pathological(
            mechanisms.PathologicalConfig(
                m=args.m, r=args.r, eps=args.eps,
                delta=args.mech_delta, beta=args.beta))
    report = pipeline.audit_run(adapter, args.m, args.k_plus, args.k_minus,
                                args.delta, [args.conf], args.seed)
    payload = report.to_dict()
    print(json.dumps(payload, sort_keys=True))
    return args.out, {
        "inputs": {"mechanism": args.mechanism, "m": args.m,
                   "k_plus": args.k_plus, "k_minus": args.k_minus,
                   "delta": args.delta, "conf": args.conf,
                   **{name: getattr(args, name)
                      for name in _SIMULATE_OPTIONS[args.mechanism]}},
        "outputs": payload, "confidence": args.conf, "seed": args.seed}


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


# the parsed arguments that are not a command's inputs: the dispatch, the
# files written, and the seed, which the row records in its own field
_NOT_INPUTS = ("command", "func", "out", "report", "seed")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    t0 = time.perf_counter()
    try:
        record = args.func(args)
        if record is not None:
            out, fields = record
            fields.setdefault("inputs", {
                key: value for key, value in vars(args).items()
                if key not in _NOT_INPUTS})
            _append_row(out, command=args.command,
                        runtime_ms=(time.perf_counter() - t0) * 1e3, **fields)
        return 0
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
