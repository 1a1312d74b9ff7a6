"""The experiment scripts run end to end and write what they say."""

import csv
import json
import os
import pathlib
import subprocess
import sys

from dpaudit import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLES = ("pure_rr.csv", "gaussian_sweep.csv", "delta_sweep.csv")


def run_script(name, *args, env=None):
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_idealized_tables_are_the_cli_experiments(tmp_path):
    out_dir, redirect = tmp_path / "tables", tmp_path / "redirect"
    done = run_script("idealized_tables.py", "--out-dir", out_dir,
                      env={cli.ENV_OUTDIR: str(redirect)})
    assert (done.returncode, done.stderr) == (0, "")
    # the output directory wins over DPAUDIT_OUTDIR
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(TABLES)
    assert not redirect.exists() or not any(redirect.iterdir())

    pure = tmp_path / "pure.csv"
    guesses = sorted([10 * 2 ** k for k in range(11)] + [10000])
    assert cli.main(["experiment-pure", "--eps", "4", "--guesses",
                     ",".join(map(str, guesses)), "--out", str(pure)]) == 0
    assert (out_dir / "pure_rr.csv").read_bytes() == pure.read_bytes()
    assert b"\r\n10000,9820,3.87441\r\n" in pure.read_bytes()

    with open(out_dir / "gaussian_sweep.csv", newline="") as fh:
        best = max(csv.DictReader(fh), key=lambda row: float(row["eps_lb"]))
    assert (best["r"], best["v"], best["eps_lb"]) == ("1510", "1439",
                                                      "2.67585")
    assert ("best lower bound 2.67585 at r=1510 (v=1439); upper bound "
            "4.37718") in done.stdout


def test_dpsgd_audit_demo_reports():
    done = run_script("dpsgd_audit_demo.py", "--m", 300, "--seed", 1)
    assert (done.returncode, done.stderr) == (0, "")
    report, end = json.JSONDecoder().raw_decode(done.stdout)
    assert report["m"] == 300 and report["seed"] == 1
    assert "eps lower bound (95%)" in done.stdout[end:]
