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
inputs and seed, so every row can be reproduced at a fixed BLAS thread
count.  Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from typing import Any, Callable, Sequence

import numpy as np

from . import dpsgd as dpsgd_mod
from . import mechanisms, pipeline
from .estimator import (check_counts, check_order, check_reals,
                        eps_lower_bound, p_value_audit,
                        p_values_by_threshold, rr_accuracy)


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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _append_row(out: str | None, **fields: Any) -> None:
    if out is None:
        return
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(ResultRow(**fields).to_json() + "\n")


def _emit_csv(fieldnames: Sequence[str], rows: Sequence[dict],
              out: str | None) -> None:
    sink = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out:
            sink.close()


def _value(kind: type, rule: Any) -> Callable[[str], Any]:
    """The one parser of an option's or config key's text: kind(text), checked
    by the rule (a count's least value, a check_reals interval, or the words
    allowed); a bad value raises ArgumentTypeError('must ..., got ...')."""

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {kind.__name__}, got {text!r}") from None
        if isinstance(rule, tuple) and value not in rule:
            raise argparse.ArgumentTypeError(
                f"must be {', '.join(rule[:-1])} or {rule[-1]}, got {value!r}")
        try:  # the rule helpers' messages, with the value's name left blank
            if kind is int:  # a count: an integer up to the largest float
                check_counts(rule if isinstance(rule, int) else -math.inf,
                             **{"": value})
            if isinstance(rule, str):
                check_reals(rule, **{"": value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None
        return value

    return parse


def _values(kind: type, rule: Any, nonempty: bool = False) -> Callable:
    """The parser of a comma-separated list of _value(kind, rule) items."""
    parse = _value(kind, rule)

    def parse_list(text: str) -> list:
        values = [parse(item) for item in text.split(",") if item.strip()]
        if nonempty and not values:
            raise argparse.ArgumentTypeError(
                f"must be a nonempty list, got {text!r}")
        return values

    return parse_list


def _doubling_grid(lo: int, hi: int) -> list[int]:
    return [lo << k for k in range((hi // lo).bit_length())]  # lo 2^k <= hi


# A JSON-lines command returns (row file, row fields): its outputs,
# confidence and seed, and its inputs when they are not simply its parsed
# arguments.  main() times the command and adds command, inputs and runtime.
_Record = tuple[str | None, dict[str, Any]]


def cmd_pvalue(args) -> _Record:
    check_order(**{"--v": args.v, "--r": args.r, "--m": args.m})
    p = p_value_audit(args.m, args.r, args.v, args.eps, args.delta)
    print(f"{p:.6g}")
    return args.out, {"outputs": {"p_value": p}, "confidence": None,
                      "seed": None}


def cmd_epslb(args) -> _Record:
    check_order(**{"--v": args.v, "--r": args.r, "--m": args.m})
    lb = eps_lower_bound(args.m, args.r, args.v, args.delta, 1.0 - args.conf)
    print(f"{lb:.6g}")
    return args.out, {"outputs": {"eps_lb": lb}, "confidence": args.conf,
                      "seed": None}


def cmd_experiment_pure(args) -> None:
    q = rr_accuracy(args.eps)
    rows = []
    for r in args.guesses:
        v = math.floor(r * q)
        lb = eps_lower_bound(r, r, v, 0.0, 1.0 - args.conf)
        rows.append({"r": r, "v": v, "eps_lb": f"{lb:.6g}"})
    _emit_csv(["r", "v", "eps_lb"], rows, args.out)


def _sigma_rho(sigma: float, curve: bool) -> float:
    """rho of the Gaussian release at --sigma, checked positive and finite,
    and 2 rho too where the privacy curve is evaluated (curve)."""
    rho = mechanisms.gaussian_rho(sigma)
    check_reals("(0, inf)", **{f"rho at --sigma={sigma}": rho})
    if curve:
        check_reals("(0, inf)", **{f"2 * rho at --sigma={sigma}": 2.0 * rho})
    return rho


def cmd_experiment_gaussian(args) -> None:
    for r in args.r_grid:
        check_order(**{"--r-grid": r, "--m": args.m})
    rho = _sigma_rho(args.sigma, curve=True)
    uppers = {d: mechanisms.gaussian_dp_eps(rho, d) for d in args.delta_grid}
    rows = []
    for r in args.r_grid:
        _, v = mechanisms.expected_correct_gaussian(args.m, r, args.sigma)
        for d in args.delta_grid:
            for conf in args.conf_grid:
                lb = eps_lower_bound(args.m, r, v, d, 1.0 - conf)
                rows.append({
                    "r": r, "v": v, "delta": f"{d:g}", "confidence": conf,
                    "eps_lb": f"{lb:.6g}", "eps_upper": f"{uppers[d]:.6g}",
                })
    _emit_csv(["r", "v", "delta", "confidence", "eps_lb", "eps_upper"],
              rows, args.out)


def cmd_pathological_check(args) -> _Record:
    check_order(**{"--r": args.r, "--m": args.m})
    check_order(**{"--m * --delta": args.m * args.delta,
                   "--r * --beta": args.r * args.beta})
    cfg = mechanisms.PathologicalConfig(m=args.m, r=args.r, eps=args.eps,
                                        delta=args.delta, beta=args.beta)
    bounds = p_values_by_threshold(args.m, args.r, args.eps, args.delta)
    rng = np.random.default_rng(args.seed)
    counts = np.zeros(args.r + 1, dtype=np.int64)  # trials with w correct
    for _ in range(args.trials):
        s = pipeline.sample_selection(args.m, rng)
        t = mechanisms.pathological(s, cfg, rng)
        counts[pipeline.count_correct(s, t)] += 1
    tails = np.cumsum(counts[::-1])[::-1]  # trials with at least v correct
    rows, worst_z, violations = [], -math.inf, 0
    for v, bound in enumerate(bounds):
        phat = int(tails[v]) / args.trials
        se = math.sqrt(bound * (1.0 - bound) / args.trials)
        z = (phat - bound) / se if se > 0 else (math.inf if phat > bound else 0.0)
        worst_z = max(worst_z, z)
        violations += z > 3.0  # z itself, not its rounded text in rows
        rows.append({"v": v, "mc_tail": f"{phat:.6g}",
                     "bound": f"{bound:.6g}", "z": f"{z:.3f}"})
    if args.out:
        _emit_csv(["v", "mc_tail", "bound", "z"], rows, args.out)
    print(f"trials={args.trials} max_z={worst_z:.3f} "
          f"violations_beyond_3sigma={violations}")
    return args.report, {
        "outputs": {"max_z": worst_z, "violations": violations},
        "confidence": None, "seed": args.seed}


_REQUIRED = object()  # the default of a config key that must be given

# The dpsgd-audit config keys: key -> (parser, default); a default of None lets
# a key be absent.  The trainer keys come from dpsgd.TRAINER_KEYS, required.
_DPSGD_KEYS = {
    "mode": (_value(str, ("whitebox", "blackbox")), _REQUIRED),
    "loss": (_value(str, ("canary-only", "logistic", "linear")), "canary-only"),
    "m": (_value(int, 1), _REQUIRED),
    **{key: (_value(kind, interval), _REQUIRED)
       for key, (_, kind, interval) in dpsgd_mod.TRAINER_KEYS.items()},
    "delta": (_value(float, "(0, 1)"), _REQUIRED),
    "confidence": (_values(float, "confidence", nonempty=True), [0.95]),
    "seed": (_value(int, 0), 0),
    "data_examples": (_value(int, 0), 0),
    "label_noise": (_value(float, "finite"), 0.0),
    "k_plus": (_value(int, 0), None),
    "k_minus": (_value(int, 0), None),
}


def parse_dpsgd_config(path: str) -> dict[str, Any]:
    """Parse and check a flat key = value config; errors name the key."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"argument --config: cannot read {path!r}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None
    config: dict[str, Any] = {  # each parse gets its own default list
        key: list(default) if isinstance(default, list) else default
        for key, (_, default) in _DPSGD_KEYS.items() if default is not None}
    set_on = {}  # key -> the line that sets it
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key not in _DPSGD_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is "
                             f"already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            config[key] = _DPSGD_KEYS[key][0](value)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config key {key!r} {exc}") from None
    missing = [key for key, value in config.items() if value is _REQUIRED]
    if missing:
        raise ValueError(f"dpsgd-audit experiment missing parameter(s): "
                         f"{', '.join(missing)}")
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
    return config


def run_dpsgd_audit(config: dict[str, Any]) -> pipeline.AuditReport:
    """Train once with selection-gated canaries, score, guess and estimate;
    dpsgd.adapter_dpsgd_audit builds the model, canaries and adapter."""
    seed, delta, m = config["seed"], config["delta"], config["m"]
    # No guess budget given: sweep doublings and keep the best point, which
    # is multiple testing; the caveat is recorded in the report.
    sweep_caveat = "k_plus" not in config and "k_minus" not in config
    if sweep_caveat and m < 2:
        raise ValueError(f"config key 'm' must be >= 2 to sweep guess budgets "
                         f"(or set k_plus/k_minus), got {m}")
    adapter = dpsgd_mod.adapter_dpsgd_audit(config)
    s, y = pipeline.run_mechanism(adapter, m, seed)

    confidences = config["confidence"]
    eps_lb = {}  # confidence -> bound; the sweep's row gives the first
    if sweep_caveat:
        grid = [(r // 2, r - r // 2) for r in _doubling_grid(2, m)]
        rows = pipeline.k_sweep(y, s, grid, delta, confidences[0])
        best = max(rows, key=lambda row: row.eps_lb)  # the first of a tie
        k_plus, k_minus, v = best.k_plus, best.k_minus, best.v
        eps_lb[confidences[0]] = best.eps_lb
    else:
        k_plus, k_minus = config.get("k_plus", 0), config.get("k_minus", 0)
        v = pipeline.count_correct(s, pipeline.make_guesses(y, k_plus, k_minus))
    for conf in confidences:
        if conf not in eps_lb:
            eps_lb[conf] = eps_lower_bound(m, k_plus + k_minus, v, delta,
                                           1.0 - conf)
    p_values = {e: p_value_audit(m, k_plus + k_minus, v, e, delta)
                for e in pipeline.DEFAULT_EPS_GRID}
    cfg = dpsgd_mod.TrainerConfig.from_config(config)
    return pipeline.AuditReport(
        m=m, k_plus=k_plus, k_minus=k_minus, v=v, eps_lb=eps_lb,
        p_values=p_values, seed=seed,
        config={
            "mechanism": adapter.name,
            "multiple_testing_caveat": sweep_caveat,
            "dpsgd": dataclasses.asdict(cfg),
            "loss": config["loss"],
            "delta": delta,
            "theoretical_eps_upper": adapter.eps,
            "accounting": dpsgd_mod.privacy_accounting(cfg),
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
    if args.mechanism == "rr":
        adapter = pipeline.adapter_randomized_response(args.eps)
    elif args.mechanism == "gaussian":  # the one that reads the budget
        check_order(**{"--k-plus + --k-minus": args.k_plus + args.k_minus,
                       "--m": args.m})
        _sigma_rho(args.sigma, curve=0 < args.delta < 1)
        adapter = pipeline.adapter_gaussian_report(args.sigma, args.delta)
    else:  # "pathological", the one that reads --r (argparse's choices)
        check_counts(1, **{"--r": args.r})
        check_order(**{"--r": args.r, "--m": args.m})
        check_order(**{"--m * --mech-delta": args.m * args.mech_delta,
                       "--r * --beta": args.r * args.beta})
        adapter = pipeline.adapter_pathological(
            mechanisms.PathologicalConfig(
                m=args.m, r=args.r, eps=args.eps,
                delta=args.mech_delta, beta=args.beta))
    report = pipeline.audit_run(adapter, args.m, args.k_plus, args.k_minus,
                                args.delta, [args.conf], args.seed)
    payload = report.to_dict()
    print(json.dumps(payload, sort_keys=True))
    return args.out, {
        "inputs": {name: getattr(args, name) for name in (
            "mechanism", "m", "k_plus", "k_minus", "delta", "conf",
            *_SIMULATE_OPTIONS[args.mechanism])},
        "outputs": payload, "confidence": args.conf, "seed": args.seed}


def build_parser() -> _Parser:
    parser = _Parser(prog="dpaudit",
                     description="Single-run differential privacy auditing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pvalue", help="p-value under an (eps, delta)-DP null")
    p.add_argument("--m", type=_value(int, 1), required=True)
    p.add_argument("--r", type=_value(int, 0), required=True)
    p.add_argument("--v", type=_value(int, 0), required=True)
    p.add_argument("--eps", type=_value(float, "[0, inf]"), required=True)
    p.add_argument("--delta", type=_value(float, "[0, 1]"), default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pvalue)

    p = sub.add_parser("epslb", help="epsilon lower bound at a confidence")
    p.add_argument("--m", type=_value(int, 1), required=True)
    p.add_argument("--r", type=_value(int, 0), required=True)
    p.add_argument("--v", type=_value(int, 0), required=True)
    p.add_argument("--delta", type=_value(float, "[0, 1]"), default=1e-5)
    p.add_argument("--conf", type=_value(float, "confidence"), default=0.95)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_epslb)

    p = sub.add_parser("experiment-pure",
                       help="randomized-response ideal: eps_lb vs guesses")
    p.add_argument("--eps", type=_value(float, "[0, inf]"), required=True)
    p.add_argument("--guesses", type=_values(int, 1), default=",".join(
        str(r) for r in _doubling_grid(10, 10240)))
    p.add_argument("--conf", type=_value(float, "confidence"), default=0.95)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment_pure)

    p = sub.add_parser("experiment-gaussian",
                       help="Gaussian score release ideal: eps_lb vs guesses")
    p.add_argument("--sigma", type=_value(float, "(0, inf)"), default=2.0)
    p.add_argument("--m", type=_value(int, 1), default=100_000)
    p.add_argument("--r-grid", type=_values(int, 1), default=",".join(
        str(r) for r in _doubling_grid(2, 16384)))
    p.add_argument("--delta-grid", type=_values(float, "(0, 1)"), default="1e-5")
    p.add_argument("--conf-grid", type=_values(float, "confidence"),
                   default="0.95")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment_gaussian)

    p = sub.add_parser("pathological-check",
                       help="Monte-Carlo validation of the tail bound")
    p.add_argument("--m", type=_value(int, 1), required=True)
    p.add_argument("--r", type=_value(int, 1), required=True)
    p.add_argument("--eps", type=_value(float, "[0, inf]"), required=True)
    p.add_argument("--delta", type=_value(float, "[0, 1]"), required=True)
    p.add_argument("--beta", type=_value(float, "[0, 1]"), required=True)
    p.add_argument("--trials", type=_value(int, 1), default=100_000)
    p.add_argument("--seed", type=_value(int, 0), default=0)
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
    p.add_argument("--m", type=_value(int, 1), required=True)
    p.add_argument("--k-plus", type=_value(int, 0), default=0)
    p.add_argument("--k-minus", type=_value(int, 0), default=0)
    p.add_argument("--eps", type=_value(float, "[0, inf]"), default=1.0)
    p.add_argument("--sigma", type=_value(float, "(0, inf)"), default=2.0)
    p.add_argument("--r", type=_value(int, 0), default=0)
    p.add_argument("--mech-delta", type=_value(float, "[0, 1]"), default=0.0)
    p.add_argument("--beta", type=_value(float, "[0, 1]"), default=0.05)
    p.add_argument("--delta", type=_value(float, "[0, 1]"), default=0.0)
    p.add_argument("--conf", type=_value(float, "confidence"), default=0.95)
    p.add_argument("--seed", type=_value(int, 0), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


# the parsed arguments that are not a command's inputs: the dispatch, the
# files written, and the seed, which the row records in its own field
_NOT_INPUTS = ("command", "func", "out", "report", "seed")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        record = args.func(args)
        if record is not None:
            out, fields = record
            fields.setdefault("inputs", {
                key: value for key, value in vars(args).items()
                if key not in _NOT_INPUTS})
            _append_row(out, command=args.command,
                        runtime_ms=(time.perf_counter() - t0) * 1e3, **fields)
        return 0
    except (_UsageError, ValueError) as exc:  # argparse's end in the usage
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
