#!/usr/bin/env python3
"""Compare predictors on simulated peaked-demand data.

Simulates a stretch of semi-actuated cycles, fits the side-street green
distribution in-sample, and writes MAE/MSE curves for the expectation,
confidence-bound, and asymmetric-loss predictors.  Prints a small summary
showing how much real-time conditioning buys as the phase runs.

    python scripts/error_curve_experiment.py --cycles 5000 --seed 11 -o curves.csv
"""

import argparse

import spatcast as sc
from spatcast.evaluate import compare, error_curve, write_comparison_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cycles", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--alpha", type=float, default=0.8)
    ap.add_argument("--quantity", default="d4")
    ap.add_argument("-o", "--output", default="curves.csv")
    args = ap.parse_args()

    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(args.seed), args.cycles)
    dist = sc.fit(table, args.quantity)
    print(f"{args.cycles} cycles, {args.quantity}: "
          f"mean {dist.mean():.2f} s, support [{dist.support_min():.1f}, "
          f"{dist.support_max():.1f}] s")

    predictors = [
        ("expectation", sc.Expectation()),
        (f"confidence:{args.alpha:g}", sc.Confidence(args.alpha)),
        ("asymmetric:3:1", sc.AsymmetricLoss(3, 1)),
        ("asymmetric:1:3", sc.AsymmetricLoss(1, 3)),
    ]
    rows = compare(predictors, dist, table, metrics=("mae", "mse"))
    write_comparison_csv(rows, args.output)
    print(f"wrote {len(rows)} rows to {args.output}")

    curve = error_curve(sc.Expectation(), dist, table, "mae")
    picks = [0, len(curve.ts) // 2, -1]
    for i in picks:
        print(f"  expectation MAE(t={curve.ts[i]:>5.1f}) = {curve.values[i]:.3f} s "
              f"(n={curve.counts[i]})")


if __name__ == "__main__":
    main()
