"""Benchmark entry point: run one dpaudit workload (or all) and report.

    python3 bench/run.py --workload rr-validity --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all   # every BENCHMARK.json workload

Run from the repository root.  This file uses only the standard library;
each workload runs in fresh ``worker.py`` interpreters, one at a time.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.  The exit code is not
0, and no JSON is printed, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gauss-sweep", "rr-validity", "dpsgd-audit")  # gauss: by name only
RUN_LIMIT_S = 170.0        # a workload's worker processes are killed after this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
# Every end-to-end figure is printed; the JSON result carries the ones
# BENCHMARK.json lists, which are those steady enough to gate a change.
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}
COMPUTED_COUNTS = (".calls", ".entries", ".scan_len", ".steps",
                   "pvalue_evals_per_lb")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    for var in ("PYTHONPATH", "DPAUDIT_OUTDIR"):  # dpaudit comes from src/ only
        env.pop(var, None)
    return env


def run_worker(workload, seed, mode, deadline, seconds=0.0, spans_out=None):
    """Start one worker; return (seconds until READY, RESULT payload or None).

    The worker is killed if it is still running at ``deadline``
    (``time.monotonic()``), and the caller gets a BenchError.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--root", str(ROOT)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    return ready, result


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics from one timed run.

    setup_s is the median of three fresh interpreters, one before, one
    running the ops and one after, so that it samples three moments.
    """
    before, _ = run_worker(workload, seed, "setup", deadline)
    ready, res = run_worker(workload, seed, "run", deadline, seconds)
    after, _ = run_worker(workload, seed, "setup", deadline)
    setups = [before, ready, after]
    lat = res["lat_ms"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops"] / res["wall_s"],
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    info = {"ops": res["ops"], "failed": res["failed"],
            "errors": res["errors"], "versions": res["versions"],
            "setup_samples_s": setups}
    return metrics, info


def trace(workload, seed, deadline):
    """Per-layer metrics from a traced pass, checked against a repeat."""
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    _, first = run_worker(workload, seed, "trace", deadline,
                          spans_out=out_dir / f"spans-{workload}.jsonl")
    _, again = run_worker(workload, seed, "trace-repeat", deadline)
    layers = dict(first["layers"])
    layers.update({f"setup.{k}": v for k, v in first["setup"].items()})
    errors = [f"computed count {key} differs between two runs: "
              f"{first['layers'].get(key)} != {again['layers'].get(key)}"
              for key in sorted(set(first["layers"]) | set(again["layers"]))
              if key.endswith(COMPUTED_COUNTS)
              and first["layers"].get(key) != again["layers"].get(key)]
    info = {"ops": first["ops"], "failed": first["failed"],
            "errors": errors + first["errors"], "versions": first["versions"],
            "ok": first["ok"] and again["ok"] and not errors}
    return layers, info


def provenance(seed):
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpaudit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed}


def run_workload(spec, workload, seed, seconds, traced):
    deadline = time.monotonic() + RUN_LIMIT_S
    if traced:
        values, info = trace(workload, seed, deadline)
        wanted = spec["per_layer"]
        # a layer this workload never calls did no work
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
        shown = wanted
    else:
        values, info = measure(workload, seed, seconds, deadline)
        wanted = spec["end_to_end"]
        shown = [{"name": k, "unit": u} for k, u in END_TO_END_UNITS.items()]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {missing}")
    attempted, failed = info["ops"], info["failed"]
    meta = dict(provenance(seed), workload=workload, trace=int(traced),
                ops=attempted, versions=info["versions"])
    print(f"== {workload}  seed={seed}  trace={int(traced)}  ops={attempted}")
    for m in shown:
        note = ""
        if traced and m["name"].endswith(COMPUTED_COUNTS):
            note = "  (computed count, repeats exactly)"
        elif m["name"].startswith("op_p"):
            note = f"  (from {attempted} ops)"
        print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<36} {failed / attempted:>14.6g} ratio"
          f"  ({failed}/{attempted} ops failed the gate)")
    if not traced:
        print(f"  setup samples (s): "
              + ", ".join(f"{s:.4f}" for s in info["setup_samples_s"]))
    for err in info["errors"]:
        print(f"  ERROR {err}")
    print("  meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": failed == 0 and info.get("ok", True) and not info["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed phase per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dpaudit" / "__init__.py").is_file():
        print(f"error: no dpaudit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    try:
        results = {w: run_workload(spec, w, args.seed, seconds, args.trace)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
