#!/usr/bin/env python3
"""Evaluate the generalization-width comparison and the mutual-information cap.

Prints the grid-optimized error width of the three-term generalization
bound next to the older baseline bound at matched failure probability, and
tabulates the DP mutual-information bound against its quadratic cap.

Usage: python scripts/appendix_bounds.py [--n 2000] [--eps 0.3333]
"""

import argparse
import math

from dpaudit.estimator import (mi_bound, optimize_generalization_width,
                               optimize_prior_width)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--eps", type=float, default=1.0 / 3.0)
    parser.add_argument("--delta", type=float, default=1e-5)
    parser.add_argument("--beta", type=float, default=1e-5)
    parser.add_argument("--target-failure", type=float, default=0.05)
    args = parser.parse_args()

    gamma, eta, fail = optimize_generalization_width(
        args.n, args.eps, args.delta, beta_acc=args.beta,
        target_failure=args.target_failure)
    width, c, d = optimize_prior_width(
        args.eps, args.delta, beta_acc=args.beta,
        target_failure=args.target_failure)
    print(f"n={args.n} eps={args.eps:.4f} delta={args.delta:g} "
          f"beta={args.beta:g} target failure {args.target_failure}")
    print(f"  three-term bound: width {gamma:.4f} "
          f"(eta={eta:.4f}, achieved failure {fail:.4f})")
    print(f"  baseline bound:   width {width:.4f} (c={c:.2e}, d={d:.2e})")

    print("\nmutual information bound vs quadratic cap (p = 1/2):")
    print(f"{'eps':>6} {'delta':>8} {'bound/n':>12} {'cap/n':>12}")
    for eps in (0.01, 0.1, 0.5, 1.0, 2.0):
        for delta in (0.0, 1e-3):
            bound = mi_bound(1, eps, delta, 0.5)
            cap = delta * math.log(2.0) + (1 - delta) * eps * eps / 8.0
            print(f"{eps:6.2f} {delta:8g} {bound:12.6g} {cap:12.6g}")


if __name__ == "__main__":
    main()
