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
# appendix_bounds.py's output at its defaults
APPENDIX = """\
n=2000 eps=0.3333 delta=1e-05 beta=1e-05 target failure 0.05
  three-term bound: width 0.3144 (eta=0.0683, achieved failure 0.0351)
  baseline bound:   width 0.3968 (c=4.50e-04, d=3.65e-04)

mutual information bound vs quadratic cap (p = 1/2):
   eps    delta      bound/n        cap/n
  0.01        0  1.24998e-05     1.25e-05
  0.01    0.001  0.000705635  0.000705635
  0.10        0   0.00124844      0.00125
  0.10    0.001   0.00194034    0.0019419
  0.50        0    0.0302999      0.03125
  0.50    0.001    0.0309627    0.0319119
  1.00        0     0.110944        0.125
  1.00    0.001     0.111526     0.125568
  2.00        0     0.327813          0.5
  2.00    0.001     0.328179     0.500193
"""


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_idealized_tables_are_the_cli_experiments(tmp_path):
    out_dir = tmp_path / "tables"
    done = run_script("idealized_tables.py", "--out-dir", out_dir)
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(TABLES)

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


def test_appendix_bounds_prints_its_pinned_tables():
    done = run_script("appendix_bounds.py")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == APPENDIX
    bad = run_script("appendix_bounds.py", "--eps", -1)
    assert bad.returncode != 0
    assert "eps must be nonnegative, got -1.0" in bad.stderr
