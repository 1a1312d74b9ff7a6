#!/usr/bin/env python3
"""Regenerate the idealized-experiment tables as CSV files.

Each table is one run of a CLI experiment command on the paper's grid:
  pure_rr.csv        experiment-pure: eps_lb vs number of guesses when the
                     fraction correct is pinned at e^eps/(e^eps+1), eps = 4
  gaussian_sweep.csv experiment-gaussian: eps_lb vs number of guesses for
                     the +-1 + N(0, 4) score release, with the upper bound
  delta_sweep.csv    experiment-gaussian: eps_lb vs delta and confidence at
                     1500 guesses

Usage: python scripts/idealized_tables.py [--out-dir results]
"""

import argparse
import csv
import os
import sys

from dpaudit import cli

PURE_GUESSES = sorted([10 * 2 ** k for k in range(11)] + [10000])
GAUSSIAN_GUESSES = sorted(set([2 ** k for k in range(1, 15)]
                              + list(range(1400, 1621, 10))))


def run(*argv):
    code = cli.main([str(arg) for arg in argv])
    if code:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    pure, gaussian, delta = (os.path.join(args.out_dir, name)
                             for name in ("pure_rr.csv", "gaussian_sweep.csv",
                                          "delta_sweep.csv"))
    gaussian_options = ("--sigma", 2.0, "--m", 100_000)

    run("experiment-pure", "--eps", 4.0, "--conf", 0.95,
        "--guesses", ",".join(map(str, PURE_GUESSES)), "--out", pure)
    run("experiment-gaussian", *gaussian_options,
        "--r-grid", ",".join(map(str, GAUSSIAN_GUESSES)),
        "--delta-grid", "1e-5", "--conf-grid", 0.95, "--out", gaussian)
    with open(gaussian, newline="", encoding="utf-8") as fh:
        best = max(csv.DictReader(fh), key=lambda row: float(row["eps_lb"]))
    print(f"  best lower bound {best['eps_lb']} at r={best['r']} "
          f"(v={best['v']}); upper bound {best['eps_upper']}")
    run("experiment-gaussian", *gaussian_options, "--r-grid", 1500,
        "--delta-grid", "1e-7,1e-6,1e-5,1e-4,1e-3,1e-2",
        "--conf-grid", "0.75,0.95,0.99", "--out", delta)
    for path in (pure, gaussian, delta):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
