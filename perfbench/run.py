#!/usr/bin/env python3
"""Run one benchmark workload against ``src/spatcast`` and print its result.

    python3 perfbench/run.py --workload emit-day --seed 7 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/spatcast``.  Inputs are generated from ``--seed`` under
``.perfbench/work/`` and a self-describing result file is written to
``.perfbench/results/``.  Whole passes run until ``--seconds`` of measured
time have accumulated (at least one pass).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off.  With
``--trace 1`` the same untraced passes run first; then the set-up and one
pass are repeated with every layer traced, and the metrics are the
per-layer ones, tracing overhead included.
"""

from __future__ import annotations

import sys
import time

T_START = time.perf_counter()
# Compile everything afresh in every run, so set-up time never depends on
# bytecode left behind by an earlier run.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import timing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("emit-day", "evaluate-loo", "ingest-month")

END_TO_END = (
    ("items_per_s", "1/s", "higher"),
    ("bytes_per_s", "B/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

_TIMED = (  # traced names reported with .calls and .s
    "messages.SpatMessage.init", "messages.to_ndjson",
    "distributions.condition_gt", "distributions.EmpiricalDist.init",
    "distributions.quantile", "distributions.fit",
    "predict.predict", "predict.predict_schedule",
    "evaluate.error_curve", "sink.write",
)
_SPANNED = (  # traced names reported with .s only
    "messages.fit_message_dists",
    "cycles.read_event_csv", "cycles.ingest_events", "cycles.write_cycle_csv",
    "cycles.read_cycle_csv", "cycles.window",
    "cli.main.emit", "cli.main.evaluate", "cli.main.ingest", "cli.main.fit",
)
PER_LAYER = (
    *((f"{n}.{k}", u, "lower") for n in _TIMED for k, u in (("calls", "count"), ("s", "s"))),
    *((f"{n}.s", "s", "lower") for n in _SPANNED),
    ("messages.stream.self_s", "s", "lower"),
    ("messages.stats_cache.hit_ratio", "ratio", "higher"),
    ("messages.degraded_msgs", "count", "lower"),
    ("distributions.condition_gt.empty", "count", "lower"),
    ("predict.predict.degraded", "count", "lower"),
    ("evaluate.curve_points", "count", "higher"),
    ("evaluate.predict_per_point", "ratio", "lower"),
    ("cycles.read_event_csv.events", "count", "higher"),
    ("cycles.ingest_events.cycles_out", "count", "higher"),
    ("cycles.ingest_events.cycles_dropped", "count", "lower"),
    ("cycles.read_cycle_csv.rows", "count", "higher"),
    ("simulate.simulate.s", "s", "lower"),
    ("simulate.emit_events.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("sink.bytes", "B", "higher"),
    ("sink.tick_p50_us", "us", "lower"),
    ("sink.tick_p99_us", "us", "lower"),
    ("sink.tick_samples", "count", "higher"),
    ("trace.overhead_pass_s", "s", "lower"),
    ("trace.overhead_items_per_s", "1/s", "higher"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def _git_sha():
    """HEAD's commit from a ``.git`` directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    """Digest of every file under src/spatcast, identifying the program measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spatcast").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; pass seconds are calibrated (timing.py)."""
    return {
        "items_per_s": statistics.median(p.items / p.seconds for p in passes),
        "bytes_per_s": statistics.median(p.bytes / p.seconds for p in passes),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
    }


def per_layer(tracer, traced, untraced, inputs) -> dict[str, float]:
    """Per-layer metrics of the traced pass (set-up metrics from the traced set-up)."""
    summary, counts = tracer.summary("pass"), tracer.counts["pass"]
    setup = tracer.summary("setup")

    def get(name, key="s", source=summary):
        return source.get(name, {}).get(key, 0)

    v: dict[str, float] = {}
    for name in _TIMED:
        v[f"{name}.calls"] = get(name, "calls")
        v[f"{name}.s"] = get(name)
    for name in _SPANNED:
        v[f"{name}.s"] = get(name)
    messages = traced.notes.get("messages", 0)
    schedules = get("predict.predict_schedule", "calls")
    points = counts["evaluate.error_curve.points"]
    cycles_out = counts["cycles.ingest_events.cycles_out"]
    notes = sorted(untraced, key=lambda p: p.seconds)[(len(untraced) - 1) // 2].notes
    untraced_rate = statistics.median(p.items / p.seconds for p in untraced)
    v.update({
        "messages.stream.self_s": get("messages.stream", "self_s"),
        "messages.stats_cache.hit_ratio": 1 - schedules / messages if messages else 0.0,
        "messages.degraded_msgs": traced.notes.get("degraded_msgs", 0),
        "distributions.condition_gt.empty": counts["distributions.condition_gt.EmptyCondition"],
        "predict.predict.degraded": counts["predict.predict.degraded"],
        "evaluate.curve_points": points,
        "evaluate.predict_per_point": get("predict.predict", "calls") / points if points else 0.0,
        "cycles.read_event_csv.events": counts["cycles.read_event_csv.events"],
        "cycles.ingest_events.cycles_out": cycles_out,
        "cycles.ingest_events.cycles_dropped":
            inputs["cycles"] - cycles_out if get("cycles.ingest_events", "calls") else 0,
        "cycles.read_cycle_csv.rows": counts["cycles.read_cycle_csv.rows"],
        "simulate.simulate.s": get("simulate.simulate", source=setup),
        "simulate.emit_events.s": get("simulate.emit_events", source=setup),
        "cli.main.self_s": get("cli.main", "self_s"),
        "sink.bytes": traced.notes.get("bytes", 0),
        "sink.tick_p50_us": notes.get("tick_p50_us") or 0.0,
        "sink.tick_p99_us": notes.get("tick_p99_us") or 0.0,
        "sink.tick_samples": notes.get("tick_samples", 0),
        "trace.overhead_pass_s": traced.wall_s - statistics.median(p.wall_s for p in untraced),
        "trace.overhead_items_per_s": traced.items / traced.seconds - untraced_rate,
    })
    mismatch = {name for name, _, _ in PER_LAYER} ^ set(v)
    if mismatch:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(mismatch)}")
    return v


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spatcast" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'spatcast'}", file=sys.stderr)
        return 2
    clock = timing.PassClock()  # reads like perf_counter until the first pause
    probe = timing.SpeedProbe(clock)
    probe.start()
    try:
        return _run(args, clock, probe)
    finally:
        probe.stop()


def _run(args, clock, probe) -> int:
    loadavg_start = _loadavg()
    sys.path.insert(0, str(SRC))

    import numpy as np

    import tracing
    import workloads

    import_wall_s = clock.now() - T_START
    work = ROOT / ".perfbench" / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed, clock, probe)

    setup_wall = []
    for _ in range(wl.setup_repeats):
        start = clock.now()
        wl.setup()
        setup_wall.append(clock.now() - start)
    inputs = wl.inputs()

    passes, measured = [], 0.0
    while not passes or measured < args.seconds:
        passes.append(wl.run_pass())
        measured += passes[-1].wall_s
    setup_scale = probe.run_scale()
    setup_s = (import_wall_s + statistics.median(setup_wall)) * setup_scale
    e2e = end_to_end(passes, setup_s)

    record: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "item": wl.item, "inputs": inputs,
        "setup": {"import_wall_s": import_wall_s, "samples_wall_s": setup_wall,
                  "scale": setup_scale, "setup_s": setup_s},
        "passes": [dataclasses.asdict(p) for p in passes],
        "end_to_end": e2e,
        "end_to_end_wall": {
            "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
            "bytes_per_s": statistics.median(p.bytes / p.wall_s for p in passes),
        },
    }
    all_passes = list(passes)
    if args.trace:
        tracer = tracing.Tracer(clock.now)
        tracer.install()
        try:
            tracer.pass_id = "setup"
            wl.setup()
            tracer.pass_id = "pass"
            traced = wl.run_pass(tracer)
        finally:
            tracer.uninstall()
        all_passes.append(traced)
        values = per_layer(tracer, traced, passes, inputs)
        units = {name: unit for name, unit, _ in PER_LAYER}
        record["traced"] = {
            "pass": dataclasses.asdict(traced),
            "overhead": {
                "pass_s": values["trace.overhead_pass_s"],
                "items_per_s": values["trace.overhead_items_per_s"],
            },
            "per_layer": values,
            "summary": {"pass": tracer.summary("pass"), "setup": tracer.summary("setup")},
            **tracer.to_json(),
        }
    else:
        values = e2e
        units = {name: unit for name, unit, _ in END_TO_END}

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    record["env"] = {
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": loadavg_start, "loadavg_end": _loadavg(),
        "speed_samples": len(probe.times),
        "speed_sample_ms_median": statistics.median(probe.durations) * 1e3,
    }
    record.update({"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "fail_ratio": failed / attempted})
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
