#!/usr/bin/env python3
"""Sliding-window width versus a demand regime shift.

Builds a dataset whose side-street demand jumps on a chosen day, then
evaluates next-day MAE for window widths of 14, 60, and 120 days across the
shift.  Longer windows average stale pre-shift data into the fit, so the
short window should win within days of the shift.

    python scripts/window_shift_experiment.py --shift-day 61 --last-day 80
"""

import argparse

import numpy as np

import spatcast as sc
from spatcast.evaluate import error_curve

MS_PER_DAY = 86_400_000
COLUMNS = ("cycle_start_ms", "length_s", "d4", "d1", "d2", "d8", "d5", "d6")


def concat(tables):
    """The tables' cycles in order, as one table numbered from 0."""
    columns = [np.concatenate([getattr(t, name) for t in tables]) for name in COLUMNS]
    return sc.CycleTable.from_columns(np.arange(len(columns[0])), *columns)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shift-day", type=int, default=61)
    ap.add_argument("--last-day", type=int, default=80)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--deltas", default="14,60,120")
    args = ap.parse_args()

    plan = sc.TimingPlan()
    per_day = 86_400 // 120
    calm = sc.DemandProfile(((0.0, 24.0, 0.5),), ((0.0, 24.0, 0.3),), args.seed)
    busy = sc.DemandProfile(((0.0, 24.0, 4.0),), ((0.0, 24.0, 1.5),), args.seed + 1)

    pre_days = args.shift_day - 1
    post_days = args.last_day - args.shift_day + 1
    table = concat([
        sc.simulate(plan, calm, pre_days * per_day, start_ms=1 * MS_PER_DAY),
        sc.simulate(plan, busy, post_days * per_day,
                    start_ms=args.shift_day * MS_PER_DAY),
    ])
    deltas = [int(d) for d in args.deltas.split(",")]
    print(f"demand shifts on day {args.shift_day}; next-day MAE by window width:")
    header = "day  " + "".join(f"  delta={d:<4d}" for d in deltas)
    print(header)
    for day in range(args.shift_day - 2, args.last_day + 1, 2):
        eval_day = sc.window(table, day + 1, 1)
        cells = []
        for delta in deltas:
            dist = sc.fit(sc.window(table, day, delta), "d4")
            curve = error_curve(sc.Expectation(), dist, eval_day, "mae")
            cells.append(f"  {curve.aggregate():>9.3f}")
        print(f"{day:>4d}" + "".join(cells))


if __name__ == "__main__":
    main()
