"""One benchmark workload in a fresh interpreter.

Started by ``run.py``; never imported by the program under test.  It
imports dpaudit from the checkout's ``src/``, builds the workload's inputs
from the seed, prints ``READY`` and then, depending on ``--mode``:

  setup         exits (a set-up sample only)
  run           runs ops until ``--seconds`` have passed (whole passes, at
                least MIN_OPS ops), then gates every op's output
  trace         one fixed pass untraced, then the same pass traced
  trace-repeat  the traced pass only, to check that work counts repeat

and prints ``RESULT <json>``.  Protocol lines go to the real stdout; each
op's own stdout and stderr are captured in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import random
import resource
import sys
import time

MIN_OPS = 100
HARD_LIMIT_S = 120.0
BETA = 1.0 - 0.95  # the CLI and pipeline turn confidence 0.95 into this
OUT = sys.stdout


def _doubling(lo: int, hi: int) -> list[int]:
    return [lo << k for k in range((hi // lo).bit_length())]


class _SeedStream:
    """Per-op seeds drawn lazily from a stream fixed by workload and seed."""

    def __init__(self, tag: str):
        self._rng = random.Random(tag)
        self._seeds: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.getrandbits(31))
        return self._seeds[i]


def _call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_text(out) -> str:
    rc, text, err = out
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.strip()}")
    return text


class Workload:
    """Inputs, the op itself, and the checks of its output.

    ``expected_spans`` lists the public functions and binding sites the
    ops must reach (``name@module whose attribute was called``).
    Estimator internals (survival tables, dual_alpha) are not listed: a
    closed form may skip them, and their counts show that instead.
    """

    pass_len = 1   # ops per whole pass of the inputs
    trace_ops = 40  # ops in the traced run

    def kind(self, inp):
        """Config label for per-layer splits, or None."""
        return None


class GaussSweep(Workload):
    """The idealized Gaussian table: one ``experiment-gaussian`` row per op.

    Runs by name only; it is not a BENCHMARK.json workload (see README).
    """

    name = "gauss-sweep"
    expected_spans = (
        "cli.main@cli", "estimator.eps_lower_bound@cli",
        "mechanisms.gaussian_dp_eps@mechanisms",
        "mechanisms.expected_correct_gaussian@mechanisms",
    )
    M = 100_000

    def __init__(self, dp, seed):
        self.cli = dp.cli
        grid = [(s, r, d) for s in ("1.5", "2", "3")
                for r in _doubling(2, 65536) for d in ("1e-5", "1e-6")]
        grid += [("2", r, d) for r in range(1400, 1621, 10)
                 for d in ("1e-5", "1e-6")]
        random.Random(f"{self.name}/{seed}").shuffle(grid)
        self.grid = grid
        self.pass_len = self.trace_ops = len(grid)

    def op_input(self, i):
        return self.grid[i % self.pass_len]

    def run(self, inp):
        sigma, r, delta = inp
        return _call_cli(self.cli, [
            "experiment-gaussian", "--m", str(self.M), "--sigma", sigma,
            "--r-grid", str(r), "--delta-grid", delta])

    def ref_key(self, inp):
        return "|".join(map(str, inp))

    def record(self, inp, out):
        rows = list(csv.DictReader(io.StringIO(_cli_text(out))))
        if len(rows) != 1 or int(rows[0]["r"]) != inp[1]:
            raise ValueError(f"expected one CSV row for r={inp[1]}")
        row = rows[0]
        return {"v": int(row["v"]), "eps_lb": float(row["eps_lb"]),
                "eps_upper": float(row["eps_upper"]),
                "eps_lb_text": row["eps_lb"]}

    def check(self, inp, rec, ref, gate):
        _, r, delta = inp
        errors = gate.check_eps_lb(self.M, r, rec["v"], float(delta), BETA,
                                   rec["eps_lb"],
                                   gate.half_unit(rec["eps_lb_text"]))
        if ref is not None:
            if rec["v"] != ref["v"]:
                errors.append(f"v={rec['v']} != reference {ref['v']}")
            for key in ("eps_lb", "eps_upper"):
                if abs(rec[key] - ref[key]) > gate.EPS_TOL:
                    errors.append(f"{key}={rec[key]} != reference {ref[key]}")
        return errors


class _ReportWorkload(Workload):
    """Shared checks for ops that return a ``pipeline.AuditReport``."""

    def record(self, inp, out):
        d = out.to_dict()
        return {k: d[k] for k in ("m", "k_plus", "k_minus", "v", "eps_lb",
                                  "p_values")}

    def check(self, inp, rec, ref, gate):
        r = rec["k_plus"] + rec["k_minus"]
        errors = gate.check_eps_lb(rec["m"], r, rec["v"], self.delta(inp),
                                   BETA, rec["eps_lb"]["0.95"])
        if ref is not None:
            errors += gate.compare_report(rec, ref)
        return errors


class RRValidity(_ReportWorkload):
    """Estimator-validity Monte Carlo: one seeded randomized-response audit."""

    name = "rr-validity"
    trace_ops = 100
    expected_spans = (
        "pipeline.audit_run@pipeline", "pipeline.sample_selection@pipeline",
        "mechanisms.randomized_response@mechanisms",
        "pipeline.count_correct@pipeline",
        "estimator.eps_lower_bound@pipeline",
        "estimator.p_value_audit@pipeline",
    )

    def __init__(self, dp, seed):
        self.pipeline = dp.pipeline
        self.seeds = _SeedStream(f"{self.name}/{seed}")

    def op_input(self, i):
        return self.seeds[i]

    def run(self, s):
        pipeline = self.pipeline
        return pipeline.audit_run(pipeline.adapter_randomized_response(1.0),
                                  1000, 0, 0, 0.0, [0.95], seed=s)

    def delta(self, inp):
        return 0.0

    def ref_key(self, s):
        return str(s)


class DPSGDAudit(_ReportWorkload):
    """``cli.run_dpsgd_audit``, alternating a white-box and a black-box config.

    W (white-box, canary-only, full batch, guess-budget sweep) spends most
    of its time in the sweep's estimation; B (black-box logistic, Poisson
    sampling, fixed budget) spends most of it in per-example gradients.
    Sizes are scaled down from the README config so a run holds >= 100 ops.
    """

    name = "dpsgd-audit"
    pass_len = 2
    expected_spans = (
        "cli.run_dpsgd_audit@cli", "dpsgd.dpsgd_train@dpsgd",
        "dpsgd.whitebox_scores@dpsgd", "dpsgd.blackbox_scores@dpsgd",
        "dpsgd.LossModel.canary_only@dpsgd", "dpsgd.LossModel.synthetic@dpsgd",
        "dpsgd.dirac_canaries@dpsgd", "dpsgd.mislabeled_canaries@dpsgd",
        "pipeline.sample_selection@pipeline", "pipeline.k_sweep@pipeline",
        "pipeline.make_guesses@pipeline", "pipeline.count_correct@pipeline",
        "estimator.eps_lower_bound@cli", "estimator.eps_lower_bound@pipeline",
        "estimator.p_value_audit@cli", "mechanisms.gaussian_dp_eps@dpsgd",
    )
    CONFIGS = {
        "W": {"mode": "whitebox", "loss": "canary-only", "m": 2000,
              "dim": 2000, "iterations": 100, "clip": 1.0,
              "noise_multiplier": 10.0, "sample_prob": 1.0,
              "learning_rate": 0.1, "delta": 1e-5, "confidence": [0.95],
              "data_examples": 0, "label_noise": 0.0},
        "B": {"mode": "blackbox", "loss": "logistic", "m": 1000, "dim": 200,
              "iterations": 40, "clip": 1.0, "noise_multiplier": 1.0,
              "sample_prob": 0.5, "learning_rate": 0.1, "delta": 1e-5,
              "confidence": [0.95], "data_examples": 2000,
              "label_noise": 0.0, "k_plus": 100, "k_minus": 100},
    }

    def __init__(self, dp, seed):
        self.cli = dp.cli
        self.seeds = _SeedStream(f"{self.name}/{seed}")

    def op_input(self, i):
        return ("W", "B")[i % 2], self.seeds[i]

    def run(self, inp):
        kind, s = inp
        return self.cli.run_dpsgd_audit(dict(self.CONFIGS[kind], seed=s))

    def kind(self, inp):
        return inp[0]

    def delta(self, inp):
        return self.CONFIGS[inp[0]]["delta"]

    def ref_key(self, inp):
        return f"{inp[0]}:{inp[1]}"


WORKLOADS = {wl.name: wl for wl in (GaussSweep, RRValidity, DPSGDAudit)}


def import_program(root: str):
    """Import numpy/scipy.special, then dpaudit from ``root/src``; timed."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    t1 = time.perf_counter()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dpaudit
    import dpaudit.cli
    t2 = time.perf_counter()
    where = os.path.realpath(dpaudit.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"dpaudit imported from {where}, not from {src}")
    return dpaudit, {"import_deps_s": t1 - t0, "import_dpaudit_s": t2 - t1}


def run_ops(wl, seconds=None, n_ops=None, tracer=None):
    """Run ops back to back; return (latencies_s, results, wall_s).

    With ``n_ops`` the count is fixed.  Otherwise ops run until ``seconds``
    have passed, stopping only at a whole pass of the workload's inputs and
    after at least MIN_OPS ops, so every run sees the same mix of ops.
    """
    clock = time.perf_counter
    lat, results = [], []
    start = t1 = clock()
    i = 0
    while True:
        inp = wl.op_input(i)
        if tracer:
            tracer.begin_op(i)
        t0 = clock()
        try:
            out, err = wl.run(inp), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer:
            tracer.end_op()
        lat.append(t1 - t0)
        results.append((inp, out, err))
        i += 1
        if n_ops is not None:
            if i >= n_ops:
                break
        elif (i % wl.pass_len == 0 and i >= MIN_OPS
              and t1 - start >= seconds) or t1 - start >= HARD_LIMIT_S:
            break
    return lat, results, t1 - start


def gate_results(wl, results):
    """Apply the correctness gate; return (failed, first error messages)."""
    import gate
    refs = gate.load_reference(wl.name)
    failed, errors = 0, []
    for inp, out, err in results:
        errs = [err] if err else []
        if not errs:
            try:
                rec = wl.record(inp, out)
                errs = wl.check(inp, rec, refs.get(wl.ref_key(inp)), gate)
            except (KeyError, ValueError, TypeError, RuntimeError) as exc:
                errs = [f"bad output: {type(exc).__name__}: {exc}"]
        if errs:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {wl.ref_key(inp)}: {errs[0]}")
    return failed, errors


def traced_pass(wl, n_ops):
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        lat, results, wall = run_ops(wl, n_ops=n_ops, tracer=tracer)
    finally:
        restored = tracer.restore()
    kinds = {i: wl.kind(inp) for i, (inp, _, _) in enumerate(results)}
    missing = sorted(set(wl.expected_spans) - tracer.fired())
    return tracer, tracer.aggregate(kinds), results, wall, restored, missing


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "trace", "trace-repeat"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    dp, setup = import_program(args.root)
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](dp, args.seed)
    setup["build_s"] = time.perf_counter() - t0
    print("READY " + json.dumps(setup), file=OUT, flush=True)
    if args.mode == "setup":
        return 0

    import numpy
    import scipy
    result = {"setup": setup, "versions": {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__}}
    if args.mode in ("run", "trace"):
        run_ops(wl, n_ops=min(wl.pass_len, 2))  # warm-up, not counted
    if args.mode == "run":
        lat, results, wall = run_ops(wl, seconds=args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed, errors = gate_results(wl, results)
        result.update(ops=len(results), wall_s=wall,
                      lat_ms=[x * 1e3 for x in lat], peak_rss_mb=rss_kb / 1024,
                      failed=failed, errors=errors)
    else:
        if args.mode == "trace":
            _, _, untraced_wall = run_ops(wl, n_ops=wl.trace_ops)
        tracer, layers, results, wall, restored, missing = traced_pass(
            wl, wl.trace_ops)
        failed, errors = gate_results(wl, results)
        if not restored:
            errors.insert(0, "traced functions were not all restored")
        if missing:
            errors.insert(0, "expected spans never fired: " + ", ".join(missing))
        result.update(ops=len(results), failed=failed, errors=errors,
                      layers=layers, ok=restored and not missing)
        if args.mode == "trace":
            layers["trace.overhead_ratio"] = wall / untraced_wall
            if args.spans_out:
                tracer.write(args.spans_out, {
                    "workload": wl.name, "seed": args.seed,
                    "ops": len(results), "clock": "perf_counter_ns"})
    print("RESULT " + json.dumps(result), file=OUT, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
