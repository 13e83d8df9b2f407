"""Operator command line: simulate, ingest, fit, predict, message, evaluate, emit.

Flags mirror the model parameters by name (delta, alpha, cycle length) and
a prediction method is one spec (confidence:0.8, asymmetric:3:1), so runs
are self-describing.  Usage errors exit 2; data and model errors exit 1
with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import json
import math
import sys

from . import evaluate as ev
from .cycles import (
    DEFAULT_TOLERANCE_S,
    ingest_events,
    read_cycle_csv,
    read_event_csv,
    stratify,
    window,
    write_cycle_csv,
)
from .distributions import fit, fit_joint
from .errors import SpatError
from .ioutil import text_sink
from .messages import _fit_dists, compose, fit_message_dists, stream
from .predict import PHASE_QUANTITY, parse_method, predict_schedule
from .simulate import (
    SimulationConfig,
    TimingPlan,
    load_config,
    peaked_demand,
    simulate,
)


_DEFAULT_ALPHA = 0.8  # confidence level of a message's bounds


def _flag_value(convert, text: str, ok, expected: str):
    """``convert(text)`` when it parses and passes ``ok``, else a usage
    error "<expected>, got <text>"."""
    try:
        value = convert(text)
    except ValueError:  # argparse would name the type helper instead
        pass
    else:
        if ok(value):
            return value
    raise argparse.ArgumentTypeError(f"{expected}, got {text}")


def _alpha_arg(text: str) -> float:
    return _flag_value(float, text, lambda v: 0.0 < v < 1.0, "alpha must be in (0, 1)")


def _positive_float(text: str) -> float:
    # nan fails too
    return _flag_value(float, text, lambda v: 0 < v < math.inf,
                       "expected a finite positive number")


def _nonnegative_float(text: str) -> float:
    return _flag_value(float, text, lambda v: 0 <= v < math.inf,
                       "expected a finite number >= 0")


def _speed_arg(text: str) -> "float | None":
    """Replay speed: None is as fast as possible, else a wall-clock multiplier."""
    if text == "max":
        return None
    return 1.0 if text == "realtime" else _positive_float(text)


def _positive_int(text: str) -> int:
    return _flag_value(int, text, lambda v: v >= 1, "expected a positive integer")


def _nonnegative_int(text: str) -> int:
    return _flag_value(int, text, lambda v: v >= 0, "expected an integer >= 0")


def _cadence_arg(text: str) -> int:
    return _flag_value(int, text, lambda v: v >= 10, "expected an integer >= 10")


def _step_arg(text: str) -> float:
    # 0.01 s is the log clock resolution
    return _flag_value(float, text, lambda v: 0.01 <= v < math.inf,
                       "expected a finite number >= 0.01")


def _day_arg(text: str) -> "dt.date | int":
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a day index or ISO date, got {text!r}"
        ) from exc


def _load_table(args, path=None):
    table = read_cycle_csv(path or args.input)
    if args.cycle_length is not None:
        table = stratify(table, args.cycle_length)
    if args.target_day is not None:
        table = window(table, args.target_day, args.delta)
    return table


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_simulate(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = SimulationConfig(
                plan=cfg.plan,
                demand=dataclasses.replace(cfg.demand, rng_seed=args.seed),
                start_ms=cfg.start_ms,
            )
    else:
        cfg = SimulationConfig(
            plan=TimingPlan(),
            demand=peaked_demand(args.seed if args.seed is not None else 0),
            start_ms=0,
        )
    start = args.start_ms if args.start_ms is not None else cfg.start_ms
    table = simulate(cfg.plan, cfg.demand, args.cycles, start_ms=start)
    write_cycle_csv(table, args.output)
    return 0


def _cmd_ingest(args) -> int:
    events = read_event_csv(args.events)
    table = ingest_events(events, tolerance=args.tolerance)
    write_cycle_csv(table, args.output)
    return 0


def _cmd_fit(args) -> int:
    table = _load_table(args)
    dist = fit(table, args.quantity)
    ev.write_distribution_csv(dist, args.output)
    return 0


def _cmd_predict(args) -> int:
    table = _load_table(args)
    method = parse_method(args.method)
    quantity = PHASE_QUANTITY[args.phase]
    if quantity is None:
        # Unchecked: the phase ends at L on a table that cannot stream too.
        end, _ = predict_schedule(_fit_dists(table), args.phase, args.t)
        quantity, label, n = "cycle_end", "identity", len(table)
    else:
        source = (fit_joint(table, *quantity.split("+")) if args.approach == 2
                  else fit(table, quantity))
        cond = source.condition_gt(args.t)
        end, label, n = float(method.apply(cond)), method.label, cond.n
    print(json.dumps({
        "quantity": quantity,
        "method": label,
        "madeAt": round(args.t, 4),
        "predictedDuration": round(end, 4),
        "residual": round(end - args.t, 4),
        "n": n,
    }))
    return 0


def _cmd_message(args) -> int:
    msg = compose(
        fit_message_dists(_load_table(args)), args.phase, args.t, args.alpha,
        site_id=args.site, phase_start=args.phase_start,
    )
    print(msg.to_ndjson())
    return 0


def _cmd_evaluate(args) -> int:
    table = _load_table(args)
    train = _load_table(args, args.train_input) if args.train_input else table
    dist = fit(train, args.quantity)
    predictors = [(spec, parse_method(spec)) for spec in args.compare.split(",")]
    metrics = args.metric.split(",")
    rows = ev.compare(
        predictors, dist, table, metrics,
        grid_step=args.step, leave_one_out=args.leave_one_out,
    )
    if args.plot_data:  # first, so a plot-data path that fails leaves -o untouched
        ev.write_plot_data(dist, args.plot_data, bin_width=args.bin_width)
    ev.write_comparison_csv(rows, args.output)
    return 0


def _cmd_emit(args) -> int:
    table = _load_table(args)
    train = _load_table(args, args.train_input) if args.train_input else table
    dists = fit_message_dists(train)
    with text_sink(args.output or sys.stdout) as out:
        stream(table, dists, out, cadence_ms=args.cadence_ms,
               alpha=args.alpha, site_id=args.site, speed=args.speed)
    return 0


# ---------------------------------------------------------------------------


_SCHEMA_HELP = """\
file schemas:
  phase-event CSV   timestamp_ms,ring,phase,kind   (ring 1|2; phase p4,p1,p2,
                    p8,p5,p6; kind start|end; int64 ms timestamps)
  cycle-record CSV  cycle_index,cycle_start_ms,L_s,d4_s,d1_s,d2_s,d8_s,d5_s,d6_s
                    (int64 index and ms start; durations in seconds, 0.01 s
                    resolution; header mandatory)
  simulator config  flat 'key = value' lines; schedule/rate values are
                    comma-separated START-END@VALUE hour segments tiling 0-24
  message stream    NDJSON, one message per ring's active phase per tick:
                    site, cycle, phase, madeAt, startTime, minEndTime,
                    maxEndTime, likelyTime, confidenceAlpha, confidenceValue,
                    nextTime, degraded (seconds into cycle, 2 decimals)
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatcast",
        description="Fit phase-duration distributions from signal logs and "
                    "broadcast residual-time predictions.",
        epilog=_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_slicing(p):
        p.add_argument("--cycle-length", type=_positive_float, default=None,
                       help="keep only cycles of this length L (seconds)")
        p.add_argument("--target-day", type=_day_arg, default=None,
                       help="fit on a sliding window before this day "
                            "(ISO date or day index)")
        p.add_argument("--delta", type=_positive_int, default=14,
                       help="window width in days (used with --target-day)")

    def add_phase_query(p):
        p.add_argument("--input", required=True, help="cycle-record CSV")
        p.add_argument("--phase", choices=sorted(PHASE_QUANTITY), default="p4")
        p.add_argument("--t", type=_nonnegative_float, required=True,
                       help="seconds into the cycle")
        add_common_slicing(p)

    p = sub.add_parser("simulate", help="generate synthetic cycles to CSV")
    p.add_argument("--cycles", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--config", default=None, help="flat key-value config file")
    p.add_argument("--start-ms", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ingest", help="reconstruct cycles from a phase-event CSV")
    p.add_argument("--events", required=True)
    p.add_argument("--tolerance", type=_positive_float, default=DEFAULT_TOLERANCE_S)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit one distribution and dump (value, probability)")
    p.add_argument("--input", required=True, help="cycle-record CSV")
    p.add_argument("--quantity", default="d4",
                   help="duration or per-cycle sum, e.g. d4 or d4+d1")
    add_common_slicing(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="print a residual-time prediction")
    add_phase_query(p)
    p.add_argument("--method", default="expectation",
                   help="expectation (the default), confidence:alpha or "
                        "asymmetric:c1:c2, as in evaluate --compare; p2/p6 "
                        "end at L whatever the method")
    p.add_argument("--approach", type=int, choices=[1, 2], default=None,
                   help="sum prediction route for p1/p5: marginal sums (1, the "
                        "default) or joint pairs (2)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("message", help="print one SPaT message")
    add_phase_query(p)
    p.add_argument("--alpha", type=_alpha_arg, default=_DEFAULT_ALPHA,
                   help=f"confidence level of its bounds (default {_DEFAULT_ALPHA})")
    p.add_argument("--phase-start", type=_nonnegative_float, default=0.0,
                   help="realized start offset of the active phase (seconds, "
                        "default 0)")
    p.add_argument("--site", default="", help="site field of each message")
    p.set_defaults(func=_cmd_message)

    p = sub.add_parser("evaluate", help="error curves for one or more predictors")
    p.add_argument("--input", required=True, help="evaluation cycle-record CSV")
    p.add_argument("--train-input", default=None,
                   help="separate training CSV (default: in-sample)")
    p.add_argument("--quantity", default="d4")
    p.add_argument("--compare", required=True,
                   help="comma list: expectation,confidence:0.8,asymmetric:3:1")
    p.add_argument("--metric", default="mae",
                   help="comma list of mae, mse, loss:c1:c2")
    p.add_argument("--step", type=_step_arg, default=1.0,
                   help="t grid step in seconds (down to 0.01)")
    p.add_argument("--leave-one-out", action="store_true")
    p.add_argument("--plot-data", default=None,
                   help="prefix for binned pdf/cdf CSVs of the training dist")
    p.add_argument("--bin-width", type=_step_arg, default=1.0,
                   help="--plot-data bin width in seconds (down to 0.01)")
    add_common_slicing(p)
    p.add_argument("-o", "--output", required=True, help="comparison CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("emit", help="stream NDJSON SPaT messages from a replay")
    p.add_argument("--input", required=True, help="cycle-record CSV to replay")
    p.add_argument("--train-input", default=None,
                   help="separate training CSV (default: in-sample)")
    p.add_argument("--cadence-ms", type=_cadence_arg, default=100)
    p.add_argument("--alpha", type=_alpha_arg, default=_DEFAULT_ALPHA)
    p.add_argument("--speed", type=_speed_arg, default="max",
                   help="max, realtime, or a finite positive multiplier")
    add_common_slicing(p)
    p.add_argument("--site", default="", help="site field of each message")
    p.add_argument("-o", "--output", default=None, help="file (default stdout)")
    p.set_defaults(func=_cmd_emit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The one flag rule argparse cannot hold: --approach routes only a sum.
    sum_phases = sorted(p for p, q in PHASE_QUANTITY.items() if q and "+" in q)
    if args.command == "predict" and args.approach and args.phase not in sum_phases:
        parser.error(f"argument --approach: only for the sum phases {', '.join(sum_phases)}")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    # MemoryError: a grid or bin range too large to allocate.
    except (SpatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
