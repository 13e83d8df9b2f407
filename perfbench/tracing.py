"""Span tracing of spatcast's layers, installed from the benchmark's side.

``Tracer.install`` wraps the public functions and methods named in
``TARGETS``.  A function another module imported by name is patched in that
module too, so every call site sees the wrapper; ``uninstall`` restores
the originals.  Nothing under ``src/`` changes.

Calls of coarse functions become spans (name, start, end, parent span, pass
id).  Hot functions run millions of times per pass, so their calls are
summed per (pass, name, enclosing span) instead: calls, total and self
seconds.  Self time is a call's duration minus the time its traced children
took.  Everything stays in memory until ``to_json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric name, hot)
TARGETS = (
    ("spatcast.cli", "main", "cli.main", False),
    ("spatcast.messages", "stream", "messages.stream", False),
    ("spatcast.messages", "fit_message_dists", "messages.fit_message_dists", False),
    ("spatcast.messages", "SpatMessage.__init__", "messages.SpatMessage.init", True),
    ("spatcast.messages", "SpatMessage.to_ndjson", "messages.to_ndjson", True),
    ("spatcast.distributions", "EmpiricalDist.__init__", "distributions.EmpiricalDist.init", True),
    ("spatcast.distributions", "EmpiricalDist.condition_gt", "distributions.condition_gt", True),
    ("spatcast.distributions", "EmpiricalDist.quantile", "distributions.quantile", True),
    ("spatcast.distributions", "EmpiricalDist.upper_quantile", "distributions.quantile", True),
    ("spatcast.distributions", "fit", "distributions.fit", False),
    ("spatcast.predict", "predict", "predict.predict", True),
    ("spatcast.predict", "predict_schedule", "predict.predict_schedule", True),
    ("spatcast.evaluate", "error_curve", "evaluate.error_curve", False),
    ("spatcast.cycles", "read_event_csv", "cycles.read_event_csv", False),
    ("spatcast.cycles", "ingest_events", "cycles.ingest_events", False),
    ("spatcast.cycles", "write_cycle_csv", "cycles.write_cycle_csv", False),
    ("spatcast.cycles", "read_cycle_csv", "cycles.read_cycle_csv", False),
    ("spatcast.cycles", "window", "cycles.window", False),
    ("spatcast.simulate", "simulate", "simulate.simulate", False),
    ("spatcast.simulate", "emit_events", "simulate.emit_events", False),
)

# Counts taken from a call's result: name -> f(result) -> {suffix: increment}.
RESULT_COUNTS = {
    "predict.predict": lambda out: {"degraded": int(out.degraded)},
    "cycles.read_event_csv": lambda out: {"events": len(out)},
    "cycles.ingest_events": lambda out: {"cycles_out": len(out)},
    "cycles.read_cycle_csv": lambda out: {"rows": len(out)},
    "evaluate.error_curve": lambda out: {"points": len(out.ts)},
}


def _subcommand(args, kwargs) -> dict:
    argv = args[0] if args else kwargs.get("argv")
    return {"cmd": argv[0] if argv else None}


SPAN_ATTRS = {"cli.main": _subcommand}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.pass_id = "none"
        self.clock = clock  # the pass clock, so the benchmark's own work is left out
        self.spans: list[tuple] = []  # (id, name, start, end, parent, pass, child_s, attrs)
        # name -> {enclosing span id, or pass id outside spans: [calls, total_s, self_s]}
        self._sums: dict[str, dict] = {}
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list] = []  # open frames: [child_s, enclosing span id]
        self._undo: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, hot in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                self._patch(owner, member, self.wrap(name, original, hot=hot))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hot=hot)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "spatcast" or mod_name.startswith("spatcast."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, *, hot: bool):
        """``fn`` recording a span (or, when ``hot``, a summed call) per call."""
        stack = self._stack
        result_counts = RESULT_COUNTS.get(name)
        span_attrs = SPAN_ATTRS.get(name)
        sums = self._sums.setdefault(name, {})

        def count_exception(exc):
            self.counts[self.pass_id][f"{name}.{type(exc).__name__}"] += 1

        def count_result(out):
            counts = self.counts[self.pass_id]
            for suffix, n in result_counts(out).items():
                counts[f"{name}.{suffix}"] += n

        @functools.wraps(fn)
        def traced_hot(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, parent[1] if parent is not None else self.pass_id]
            stack.append(frame)
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                count_exception(exc)
                raise
            finally:
                dur = self.clock() - start
                stack.pop()
                if parent is not None:
                    parent[0] += dur
                acc = sums.get(frame[1])
                if acc is None:
                    acc = sums[frame[1]] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
            if result_counts is not None:
                count_result(out)
            return out

        @functools.wraps(fn)
        def traced_span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, len(self.spans)]
            self.spans.append(None)  # reserve the id in call order
            stack.append(frame)
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                count_exception(exc)
                raise
            finally:
                end = self.clock()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
                self.spans[frame[1]] = (
                    frame[1], name, start, end, parent[1] if parent else None,
                    self.pass_id, frame[0], span_attrs(args, kwargs) if span_attrs else None,
                )
            if result_counts is not None:
                count_result(out)
            return out

        return traced_hot if hot else traced_span

    # -- summaries -----------------------------------------------------------

    def summary(self, pass_id: str) -> dict[str, dict[str, float]]:
        """{name: {calls, s, self_s}} over one pass, spans and summed calls alike.

        ``cli.main`` is also split by subcommand as ``cli.main.<cmd>``.
        """
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )

        def add(name, calls, total, self_s):
            acc = out[name]
            acc["calls"] += calls
            acc["s"] += total
            acc["self_s"] += self_s

        for _, name, start, end, _, pid, child, attrs in self.spans:
            if pid == pass_id:
                add(name, 1, end - start, end - start - child)
                if attrs and attrs.get("cmd"):
                    add(f"{name}.{attrs['cmd']}", 1, end - start, end - start - child)
        for pid, name, _, calls, total, self_s in self._summed_calls():
            if pid == pass_id:
                add(name, calls, total, self_s)
        return dict(out)

    def _summed_calls(self):
        """(pass, name, enclosing span, calls, total_s, self_s) per summed call site."""
        for name, sums in self._sums.items():
            for where, (calls, total, self_s) in sums.items():
                span = where if isinstance(where, int) else None
                pid = self.spans[span][5] if span is not None else where
                yield pid, name, span, calls, total, self_s

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                 "pass": pid, "self_s": end - start - child, "attrs": attrs}
                for i, name, start, end, parent, pid, child, attrs in self.spans
            ],
            "summed_calls": [
                {"pass": pid, "name": name, "span": span, "calls": calls,
                 "s": total, "self_s": self_s}
                for pid, name, span, calls, total, self_s in self._summed_calls()
            ],
            "counts": {pid: dict(c) for pid, c in self.counts.items()},
        }
