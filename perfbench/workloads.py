"""The three benchmark workloads.

Each runs the operator's CLI in-process through ``spatcast.cli.main``, in
one thread, as a closed loop with a single caller.  ``setup`` writes the
workload's inputs from the seed; ``run_pass`` runs the commands once, times
them, and checks their outputs.  The program sees only the generated files.

* ``emit-day``: the broadcast path.  One simulated day (720 cycles of
  120 s) replayed at a 100 ms cadence into a counting, hashing sink bound
  to ``sys.stdout``: 1,728,000 messages.  Formatting and validation in
  ``messages`` dominate; conditioning is cached per (phase, t_ms).
* ``evaluate-loo``: the analyst's path.  Leave-one-out error curves of
  three predictors under two metrics over two simulated days.  Refits,
  conditioning and quantiles dominate; ``messages`` is never called.
* ``ingest-month``: the data path.  Four weeks of raw phase events (241,920
  rows) ingested, fitted and evaluated in-sample on a 14-day window.  CSV
  parsing and ingest dominate, with one fit and many cheap predictions.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

sim = importlib.import_module("spatcast.simulate")
cycles = importlib.import_module("spatcast.cycles")
cli = importlib.import_module("spatcast.cli")

PREDICTORS = ("expectation", "confidence:0.8", "asymmetric:3:1")
METRICS = ("mae", "mse")
COMPARE = ["--compare", ",".join(PREDICTORS), "--metric", ",".join(METRICS)]
CYCLES_PER_DAY = 720  # 120 s cycles under the default timing plan


def _simulate(seed: int, n_cycles: int):
    # Looked up at call time so a traced set-up records the call.
    return sim.simulate(sim.TimingPlan(), sim.peaked_demand(seed), n_cycles)


@dataclass
class PassResult:
    """One timed pass: its duration, work done, and failed operations."""

    seconds: float  # calibrated (see timing.py)
    wall_s: float  # pass clock
    items: int
    bytes: int
    attempted: int
    failed: int
    notes: dict  # check outcomes and workload-specific figures


class Workload:
    """Shared plumbing: where inputs live and how a command is timed."""

    def __init__(self, work: Path, seed: int, clock, probe):
        self.work, self.seed = work, seed
        self.clock, self.probe = clock, probe

    def _timed(self, argv) -> tuple[int, float, float]:
        """(exit code, calibrated s, pass-clock s) of one in-process CLI run."""
        start = self.clock.now()
        rc = cli.main(argv)
        end = self.clock.now()
        return rc, self.probe.calibrated(start, end), end - start


class EmitDay(Workload):
    name = "emit-day"
    item = "message"
    setup_repeats = 5
    cadence_ms = 100
    alpha = 0.8
    # sha256 of the whole stream per seed, pinned from the seed program.
    pinned = {7: "adcede66da9b6a07dfda2cbbc8563fdf53b946c0edb07a5c5ca404303e1ae734"}

    def __init__(self, *args):
        super().__init__(*args)
        self.csv = self.work / "day.csv"

    def setup(self) -> None:
        cycles.write_cycle_csv(_simulate(self.seed, CYCLES_PER_DAY), self.csv)

    def inputs(self) -> dict:
        self.ref = checks.StreamReference(
            checks.read_cycle_columns(self.csv), self.cadence_ms, self.alpha
        )
        return {"cycles": self.ref.n_cycles, "ticks": self.ref.ticks,
                "messages": 2 * self.ref.ticks, "input_bytes": self.csv.stat().st_size}

    def run_pass(self, tracer=None) -> PassResult:
        checker = checks.StreamChecker(self.ref)
        sink = checks.StreamSink(self.clock, checker.feed)
        if tracer is not None:
            sink.write = tracer.wrap("sink.write", sink.write, hot=True)
        argv = ["emit", "--input", str(self.csv), "--cadence-ms", str(self.cadence_ms),
                "--alpha", str(self.alpha), "--speed", "max"]
        with contextlib.redirect_stdout(sink):
            rc, seconds, wall_s = self._timed(argv)
        pinned = self.pinned.get(self.seed)
        failed = checks.stream_failed(checker, sink, rc, pinned)
        gaps = sink.tick_gaps_us(self.probe.scales)
        notes = {
            "exit_code": rc, "messages": checker.lines, "bytes": sink.bytes,
            "sha256": sink.digest.hexdigest(), "sha256_pinned": pinned,
            "rejected_lines": sorted(checker.bad)[:20],
            "degraded_msgs": checker.degraded,
            "checked_every_kth_tick": checker.every,
            "sink_writes": sink.writes,
            "tick_p50_us": float(np.percentile(gaps, 50)) if gaps.size else None,
            "tick_p99_us": float(np.percentile(gaps, 99)) if gaps.size else None,
            "tick_samples": int(gaps.size),
        }
        return PassResult(seconds, wall_s, checker.lines, sink.bytes, 2 * self.ref.ticks,
                          failed, notes)


class EvaluateLoo(Workload):
    name = "evaluate-loo"
    item = "curve"
    setup_repeats = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.csv = self.work / "cycles.csv"
        self.out = self.work / "comparison.csv"

    def setup(self) -> None:
        cycles.write_cycle_csv(_simulate(self.seed, 2 * CYCLES_PER_DAY), self.csv)

    def inputs(self) -> dict:
        self.d4 = checks.read_cycle_columns(self.csv)["d4"]
        self.check_ts = checks.pick_check_ts(self.d4, self.seed)
        return {"cycles": int(self.d4.size), "curves": len(PREDICTORS) * len(METRICS),
                "input_bytes": self.csv.stat().st_size}

    def run_pass(self, tracer=None) -> PassResult:
        argv = ["evaluate", "--input", str(self.csv), "--quantity", "d4",
                "--leave-one-out", *COMPARE, "-o", str(self.out)]
        rc, seconds, wall_s = self._timed(argv)
        n_curves = len(PREDICTORS) * len(METRICS)
        if rc != 0:
            bad = ["all (nonzero exit)"]
        else:
            bad = checks.check_curves(
                checks.read_comparison(self.out), self.d4, PREDICTORS, METRICS,
                self.check_ts, checks.loo_point,
            )
        notes = {"exit_code": rc, "checked_t": self.check_ts, "rejected_curves": bad}
        failed = n_curves if rc != 0 else min(n_curves, len(bad))
        nbytes = self.out.stat().st_size if rc == 0 else 0
        return PassResult(seconds, wall_s, n_curves, nbytes, n_curves, failed, notes)


class IngestMonth(Workload):
    name = "ingest-month"
    item = "event"
    setup_repeats = 3
    days = 28
    target_day, delta = 28, 14

    def __init__(self, *args):
        super().__init__(*args)
        self.events = self.work / "events.csv"
        self.cycles_csv = self.work / "cycles.csv"
        self.dist_csv = self.work / "d4_d1.csv"
        self.out = self.work / "comparison.csv"

    def setup(self) -> None:
        table = _simulate(self.seed, self.days * CYCLES_PER_DAY)
        # One day at a time, so set-up never holds the month's event list and
        # peak memory reflects the pass.  Chunks split at cycle boundaries,
        # where per-chunk sorting gives the same order as sorting the month.
        with open(self.events, "w", encoding="utf-8", newline="") as f:
            for lo in range(0, len(table), CYCLES_PER_DAY):
                part = cycles.CycleTable(table.records[lo:lo + CYCLES_PER_DAY])
                buf = io.StringIO()
                cycles.write_event_csv(sim.emit_events(part), buf)
                text = buf.getvalue()
                f.write(text if lo == 0 else text.split("\n", 1)[1])
        self.table = table

    def inputs(self) -> dict:
        table = self.table
        self.truth = {name: table.column(name) for name in checks.CYCLE_COLUMNS[3:]}
        self.truth["L"] = table.cycle_lengths()
        self.truth["cycle_index"] = np.array([r.cycle_index for r in table], float)
        self.truth["cycle_start_ms"] = np.array([r.cycle_start_ms for r in table], float)
        n_cycles = len(table)
        day = self.truth["cycle_start_ms"] // 86_400_000
        in_window = (day >= self.target_day - self.delta) & (day < self.target_day)
        self.window_d4 = self.truth["d4"][in_window]
        self.check_ts = checks.pick_check_ts(self.window_d4, self.seed)
        return {"cycles": n_cycles, "events": 12 * n_cycles,
                "window_cycles": int(self.window_d4.size),
                "input_bytes": self.events.stat().st_size}

    def run_pass(self, tracer=None) -> PassResult:
        commands = {
            "ingest": ["ingest", "--events", str(self.events), "-o", str(self.cycles_csv)],
            "fit": ["fit", "--input", str(self.cycles_csv), "--quantity", "d4+d1",
                    "-o", str(self.dist_csv)],
            "evaluate": ["evaluate", "--input", str(self.cycles_csv),
                         "--target-day", str(self.target_day), "--delta", str(self.delta),
                         *COMPARE, "-o", str(self.out)],
        }
        codes, seconds, wall_s = {}, 0.0, 0.0
        for name, argv in commands.items():
            codes[name], calibrated, wall = self._timed(argv)
            seconds += calibrated
            wall_s += wall
        problems = {name: "nonzero exit" for name, rc in codes.items() if rc != 0}
        if "ingest" not in problems:
            why = checks.table_mismatch(checks.read_cycle_columns(self.cycles_csv), self.truth)
            if why:
                problems["ingest"] = why
        if "fit" not in problems:
            why = checks.distribution_mismatch(
                self.dist_csv, self.truth["d4"] + self.truth["d1"]
            )
            if why:
                problems["fit"] = why
        if "evaluate" not in problems:
            bad = checks.check_curves(
                checks.read_comparison(self.out), self.window_d4, PREDICTORS, METRICS,
                self.check_ts, checks.insample_point,
            )
            if bad:
                problems["evaluate"] = f"curves {bad}"
        written = [self.cycles_csv, self.dist_csv, self.out]
        nbytes = sum(p.stat().st_size for p in written if p.exists())
        notes = {"exit_codes": codes, "checked_t": self.check_ts, "problems": problems}
        return PassResult(seconds, wall_s, 12 * int(self.truth["L"].size), nbytes,
                          len(commands), len(problems), notes)


WORKLOADS = {w.name: w for w in (EmitDay, EvaluateLoo, IngestMonth)}

