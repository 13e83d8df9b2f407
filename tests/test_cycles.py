import csv
import datetime as dt
import io
import math
import re
import tempfile
import warnings
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spatcast as sc
import spatcast.cycles
from conftest import event_log, log_columns
from spatcast.cycles import (
    _EVENT_CODE,
    _EVENT_HEADER,
    _INT64_MAX,
    _INT64_MIN,
    EventLog,
    MalformedRow,
)


class PhaseEvent(namedtuple("PhaseEvent", "timestamp_ms ring phase kind")):
    """One green-interval transition, as the per-event reference paths take
    it; its checks give the per-row event reader's error texts."""

    __slots__ = ()

    def __new__(cls, timestamp_ms, ring, phase, kind):
        if ring not in sc.RING_SEQUENCE:
            raise ValueError(f"unknown ring {ring!r}")
        if phase not in sc.RING_SEQUENCE[ring]:
            raise ValueError(f"phase {phase!r} is not on ring {ring}")
        if kind not in ("start", "end"):
            raise ValueError(f"kind must be 'start' or 'end', got {kind!r}")
        return super().__new__(cls, timestamp_ms, ring, phase, kind)


@contextmanager
def _opened(source):
    """``source`` when it is an open handle, else the file it names, opened
    as UTF-8 text with newline=""; either way past one leading BOM."""
    if hasattr(source, "read"):
        if source.read(1) != "\ufeff":
            source.seek(0)
        yield source
    else:
        with open(source, encoding="utf-8-sig", newline="") as f:
            yield f


def _cycle_events(start_ms, ring1, ring2):
    """Hand-rolled event stream for one cycle: ring tuples are durations."""
    events = []
    for ring, durs in ((1, ring1), (2, ring2)):
        t = start_ms
        for phase, dur in zip(sc.RING_SEQUENCE[ring], durs):
            end = t + int(round(dur * 1000))
            events.append(PhaseEvent(t, ring, phase, "start"))
            events.append(PhaseEvent(end, ring, phase, "end"))
            t = end
    return sorted(events, key=lambda e: e.timestamp_ms)


def _ingest(events, *args):
    """ingest_events on a list of (timestamp_ms, ring, phase, kind) events."""
    return sc.ingest_events(event_log(events), *args)


class TestIngest:
    @pytest.mark.parametrize("tolerance", [1e308, math.inf, math.nan, -0.5])
    def test_tolerance_must_be_finite_ms_and_nonnegative(self, tolerance):
        events = _cycle_events(0, (36, 0, 84), (36, 0, 84))
        with pytest.raises(ValueError) as exc:
            _ingest(events, tolerance)
        assert str(exc.value) == (
            f"tolerance must be a finite number >= 0 in ms, got {tolerance!r} s")

    def test_single_cycle_with_zero_duration_left_turn(self):
        events = _cycle_events(0, (36, 0, 84), (36, 0, 84))
        assert len(events) == 12
        table = _ingest(events)
        assert len(table) == 1
        rec = table[0]
        assert rec.d4 == 36.0
        assert rec.d4 + rec.d1 == 36.0
        assert rec.d4 + rec.d1 + rec.d2 == 120.0
        assert rec.length_s == 120.0
        assert rec.d1 == 0.0

    def test_three_cycles_round_trip_durations(self, build_table):
        table = build_table([(36, 0, 0), (41, 5, 10), (46, 10, 5)])
        got = sc.ingest_events(sc.emit_events(table))
        assert len(got) == 3
        for name in ("d4", "d1", "d2", "d8", "d5", "d6"):
            np.testing.assert_allclose(got.column(name), table.column(name), atol=1e-9)
        got.validate(0.05)

    def test_barrier_violation_on_lead_mismatch(self):
        # d8 differs from d4 by a full second against a 0.05 s tolerance
        events = _cycle_events(0, (36, 0, 84), (37, 0, 83))
        with pytest.raises(sc.BarrierViolation):
            _ingest(events, 0.05)

    def test_out_of_order_event(self):
        events = _cycle_events(0, (36, 0, 84), (36, 0, 84))
        bad = [events[-1]] + events[:-1]  # timestamp regression up front
        with pytest.raises(sc.OutOfOrderEvent):
            _ingest(bad)

    def test_ring_sequence_violation(self):
        events = _cycle_events(0, (36, 5, 79), (36, 5, 79))
        # drop ring 1's p1 start so p4 end is followed by p1 end
        events = [e for e in events
                  if not (e.ring == 1 and e.phase == "p1" and e.kind == "start")]
        with pytest.raises(sc.RingSequenceViolation):
            _ingest(events)

    def test_time_gap_between_cycles_rejected(self, build_table):
        # second cycle starts 2 s after the first one ends
        first = build_table([(36, 0, 0)])
        second = build_table([(41, 5, 5)], start_ms=122_000)
        logs = [sc.emit_events(first), sc.emit_events(second)]
        log = EventLog(*(np.concatenate([getattr(part, name) for part in logs])
                         for name in ("timestamp_ms", "ring", "step")))
        with pytest.raises(sc.RingSequenceViolation):
            sc.ingest_events(log)

    def test_incomplete_leading_and_trailing_cycles_dropped(self, build_table):
        table = build_table([(36, 0, 0), (41, 5, 10), (46, 10, 5)])
        log = sc.emit_events(table)
        # start mid-way through cycle 0 and cut cycle 2 short
        keep = (40_000 <= log.timestamp_ms) & (log.timestamp_ms <= 300_000)
        got = sc.ingest_events(EventLog(log.timestamp_ms[keep], log.ring[keep], log.step[keep]))
        assert len(got) == 1
        assert got[0].d4 == 41.0
        assert got[0].cycle_start_ms == 120_000


class TestStratify:
    def test_filters_exact_length(self, build_table):
        rows = [{"d4": 36, "d1": 0, "L": 100.0}, {"d4": 36, "d1": 0, "L": 110.0},
                {"d4": 36, "d1": 0, "L": 120.0}, {"d4": 41, "d1": 5, "L": 120.0}]
        table = build_table(rows)
        sub = sc.stratify(table, 120)
        assert len(sub) == 2
        assert all(r.length_s == 120.0 for r in sub)

    def test_empty_stratum_signalled(self, build_table):
        table = build_table([{"d4": 36, "d1": 0, "L": 100.0}])
        with pytest.raises(sc.EmptyStratum):
            sc.stratify(table, 115)

    def test_idempotent(self, build_table):
        table = build_table([(36, 0, 0), (41, 5, 5)])
        once = sc.stratify(table, 120)
        twice = sc.stratify(once, 120)
        assert twice.records == once.records

    def test_stratum_key_is_pythons_round(self, build_table):
        # round(100.35, 1) is 100.3 and round(100.45, 1) is 100.5, where
        # np.round gives 100.4 for both.
        table = build_table([{"d4": 36, "d1": 0, "L": 100.35},
                             {"d4": 41, "d1": 5, "L": 100.45}])
        low, high = sc.stratify(table, 100.35), sc.stratify(table, 100.45)
        assert [r.length_s for r in low] == [100.35]
        assert [r.length_s for r in high] == [100.45]
        with pytest.raises(sc.EmptyStratum, match="no cycles with L = 100.4 s"):
            sc.stratify(table, 100.4)
        with pytest.raises(sc.MixedStrata,
                           match=r"^table mixes cycle lengths \[100.3, 100.5\]; stratify first$"):
            sc.fit(table, "d4")
        assert sc.fit(low, "d4").stratum == 100.3
        assert sc.fit(high, "d4").stratum == 100.5


def _one_cycle_per_day(first_day=1, last_day=30):
    """One 120 s cycle at the start of each day in [first_day, last_day]."""
    ms_per_day = 86_400_000
    records = tuple(
        sc.CycleRecord(i, day * ms_per_day, 120.0,
                       d4=36.0 + day % 3, d1=0.0, d2=84.0 - day % 3,
                       d8=36.0 + day % 3, d5=0.0, d6=84.0 - day % 3)
        for i, day in enumerate(range(first_day, last_day + 1))
    )
    return sc.CycleTable(records)


class TestWindow:
    def test_fourteen_day_window(self):
        win = sc.window(_one_cycle_per_day(), 30, 14)
        days = sorted(set(win.day_indices().tolist()))
        assert days == list(range(16, 30))

    def test_target_day_excluded(self):
        win = sc.window(_one_cycle_per_day(), 30, 14)
        assert 30 not in win.day_indices()

    def test_clipped_to_existing_days(self):
        win = sc.window(_one_cycle_per_day(), 5, 14)
        days = sorted(set(win.day_indices().tolist()))
        assert days == [1, 2, 3, 4]

    def test_canonical_presets_supported(self):
        table = _one_cycle_per_day()
        for delta in (14, 60, 120):
            win = sc.window(table, 30, delta)
            assert len(win) >= 1
            assert set(win.day_indices().tolist()) <= set(range(1, 30))

    def test_empty_window(self):
        with pytest.raises(sc.EmptyStratum):
            sc.window(_one_cycle_per_day(), 1, 14)

    @pytest.mark.parametrize("target, delta", [(10**30, 14), (30, 10**30), (-(10**30), 1)])
    def test_days_beyond_int64_select_nothing_or_all(self, target, delta):
        table = _one_cycle_per_day()
        if delta > 14:
            assert len(sc.window(table, target, delta)) == 29
        else:
            with pytest.raises(sc.EmptyStratum):
                sc.window(table, target, delta)

    def test_date_objects_accepted(self):
        target = dt.date(1970, 1, 31)  # day index 30
        win = sc.window(_one_cycle_per_day(), target, 14)
        assert sorted(set(win.day_indices().tolist())) == list(range(16, 30))


class TestCsv:
    def test_cycle_csv_round_trip(self, build_table):
        table = build_table([(36, 0, 0), (41.25, 5.5, 10.75)])
        buf = io.StringIO()
        sc.write_cycle_csv(table, buf)
        back = sc.read_cycle_csv(io.StringIO(buf.getvalue()))
        for name in ("d4", "d1", "d2", "d8", "d5", "d6"):
            np.testing.assert_allclose(back.column(name), table.column(name), atol=1e-9)
        # A table is its columns: a simulated one reads back equal, and a
        # stratum that keeps every cycle is the table itself.
        sim = sc.simulate(sc.TimingPlan(), sc.peaked_demand(0), 30)
        buf = io.StringIO()
        sc.write_cycle_csv(sim, buf)
        assert sc.read_cycle_csv(io.StringIO(buf.getvalue())) == sim
        assert sc.stratify(sim, 120) == sim

    def test_cycle_csv_header_checked(self):
        with pytest.raises(ValueError):
            sc.read_cycle_csv(io.StringIO("a,b,c\n1,2,3\n"))

    @pytest.mark.parametrize("row, reason", [
        ("1,120000,120.00,36.00,5.00,79.00,36.00,5.00", "expected 9 fields, got 8"),
        ("1,120000,inf,36.00,5.00,79.00,36.00,5.00,79.00", "length_s must be finite"),
        ("1,120000,120.00,36.00,nan,79.00,36.00,5.00,79.00", "d1 must be finite"),
        ("1,120000,120.00,36.00,x,79.00,36.00,5.00,79.00", "could not convert"),
        (f"{2**63},120000,120.00,36.00,5.00,79.00,36.00,5.00,79.00",
         f"cycle_index {2**63} does not fit in int64"),
        (f"1,{-2**63 - 1},120.00,36.00,5.00,79.00,36.00,5.00,79.00",
         f"cycle_start_ms {-2**63 - 1} does not fit in int64"),
        # An integer outside int64 fails before the row's next field is parsed.
        (f"{2**63},x,120.00,36.00,5.00,79.00,36.00,5.00,79.00",
         f"cycle_index {2**63} does not fit in int64"),
    ])
    def test_cycle_csv_bad_row_names_its_line(self, build_table, row, reason):
        buf = io.StringIO()
        sc.write_cycle_csv(build_table([(36, 5, 5)]), buf)
        with pytest.raises(sc.MalformedRow, match=f"^line 3: {reason}") as exc:
            sc.read_cycle_csv(io.StringIO(buf.getvalue() + row + "\n"))
        assert exc.value.line == 3

    def test_event_csv_round_trip(self, build_table):
        log = sc.emit_events(build_table([(36, 5, 5)]))
        buf = io.StringIO()
        sc.write_event_csv(log, buf)
        back = sc.read_event_csv(io.StringIO(buf.getvalue()))
        assert log_columns(back) == log_columns(log)

    def test_event_csv_accepts_other_integer_spellings(self, build_table):
        log = sc.emit_events(build_table([(36, 5, 5)]))
        buf = io.StringIO()
        sc.write_event_csv(log, buf)
        text = buf.getvalue().replace(",1,p4,", ",01,p4,").replace(",2,p8,", ", 2,p8,")
        assert log_columns(sc.read_event_csv(io.StringIO(text))) == log_columns(log)

    @pytest.mark.parametrize("row, reason", [
        ("120000,1,p4", "not enough values to unpack"),
        ("", "not enough values to unpack"),
        ("x,1,p4,start", "invalid literal"),
        ("120000,1,p8,start", "phase 'p8' is not on ring 1"),
        (f"{2**63},1,p4,start", f"timestamp {2**63} ms does not fit in int64"),
        (f"{-2**63 - 1},1,p4,start", f"timestamp {-2**63 - 1} ms does not fit in int64"),
    ])
    def test_event_csv_bad_row_names_its_line(self, build_table, row, reason):
        buf = io.StringIO()
        sc.write_event_csv(sc.emit_events(build_table([(36, 5, 5)])), buf)
        line = buf.getvalue().count("\n") + 1
        with pytest.raises(sc.MalformedRow, match=f"^line {line}: {reason}") as exc:
            sc.read_event_csv(io.StringIO(buf.getvalue() + row + "\n"))
        assert exc.value.line == line

    @pytest.mark.parametrize("line, col, bad, reason", [
        # A byte the decoder rejects names its own line, not the line where
        # the decoder's chunk happened to end.
        (2857, 0, b"\xff", "byte 0xff in position 0: invalid start byte"),
        (101, 5, b"\xff", "byte 0xff in position 5: invalid start byte"),
        (1, 13, b"\xff", "byte 0xff in position 13: invalid start byte"),
        (6001, 1, b"\xe2(", "byte 0xe2 in position 1: invalid continuation byte"),
    ])
    def test_event_csv_undecodable_byte_names_its_line(self, tmp_path, line, col, bad, reason):
        table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(2), 500)
        buf = io.StringIO()
        sc.write_event_csv(sc.emit_events(table), buf)
        lines = buf.getvalue().encode().split(b"\r\n")
        assert len(lines) == 6002  # 6,001 lines and the empty rest after the last
        lines[line - 1] = lines[line - 1][:col] + bad + lines[line - 1][col:]
        path = tmp_path / "events.csv"
        path.write_bytes(b"\r\n".join(lines))
        message = f"^line {line}: 'utf-8' codec can't decode {reason}$"
        with pytest.raises(sc.MalformedRow, match=message) as exc:
            sc.read_event_csv(path)
        assert exc.value.line == line

    @pytest.mark.parametrize("line, col, bad, reason", [
        (1201, 0, b"\xff", "byte 0xff in position 0: invalid start byte"),
        (101, 5, b"\xff", "byte 0xff in position 5: invalid start byte"),
        (1, 13, b"\xff", "byte 0xff in position 13: invalid start byte"),
        (1501, 1, b"\xe2(", "byte 0xe2 in position 1: invalid continuation byte"),
    ])
    def test_cycle_csv_undecodable_byte_names_its_line(self, tmp_path, line, col, bad, reason):
        # Once a bare UnicodeDecodeError that named a byte offset, not a line.
        table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(2), 1500)
        buf = io.StringIO()
        sc.write_cycle_csv(table, buf)
        lines = buf.getvalue().encode().split(b"\r\n")
        assert len(lines) == 1502  # 1,501 lines and the empty rest after the last
        lines[line - 1] = lines[line - 1][:col] + bad + lines[line - 1][col:]
        path = tmp_path / "cycles.csv"
        path.write_bytes(b"\r\n".join(lines))
        message = f"^line {line}: 'utf-8' codec can't decode {reason}$"
        with pytest.raises(sc.MalformedRow, match=message) as exc:
            sc.read_cycle_csv(path)
        assert exc.value.line == line


# 0.01 s grid durations: d4 in [36, 66], d1 in [0, 25], d5 capped to keep d6 > 0
centi = st.tuples(
    st.integers(3600, 6600), st.integers(0, 2500), st.integers(0, 2500)
)


@settings(max_examples=40, deadline=None)
@given(st.lists(centi, min_size=1, max_size=8))
def test_round_trip_preserves_durations_on_centisecond_grid(rows):
    records = []
    t_ms = 0
    for i, (d4c, d1c, d5c) in enumerate(rows):
        d4, d1, d5 = d4c / 100, d1c / 100, d5c / 100
        d2 = 120.0 - d4 - d1
        d6 = d1 + d2 - d5
        records.append(sc.CycleRecord(i, t_ms, 120.0, d4=d4, d1=d1, d2=d2,
                                      d8=d4, d5=d5, d6=d6))
        t_ms += 120_000
    table = sc.CycleTable(tuple(records))
    got = sc.ingest_events(sc.emit_events(table))
    assert len(got) == len(table)
    for name in ("d4", "d1", "d2", "d8", "d5", "d6"):
        np.testing.assert_allclose(got.column(name), table.column(name), atol=1e-3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([100.0, 110.0, 120.0]), min_size=1, max_size=12))
def test_stratify_returns_subset_and_is_idempotent(lengths):
    records = []
    t_ms = 0
    for i, cycle_len in enumerate(lengths):
        d4, d1 = 36.0, 0.0
        d2 = cycle_len - d4 - d1
        records.append(sc.CycleRecord(i, t_ms, cycle_len, d4=d4, d1=d1, d2=d2,
                                      d8=d4, d5=d1, d6=d2))
        t_ms += int(cycle_len * 1000)
    table = sc.CycleTable(tuple(records))
    for target in {100.0, 110.0, 120.0}:
        if target not in lengths:
            with pytest.raises(sc.EmptyStratum):
                sc.stratify(table, target)
            continue
        sub = sc.stratify(table, target)
        assert set(sub.records) <= set(table.records)
        assert sc.stratify(sub, target).records == sub.records


# ---------------------------------------------------------------------------
# The cycle rules one row at a time, for the per-row references below; they
# share no code with the column check in src.

_DURATIONS = ("d4", "d1", "d2", "d8", "d5", "d6")


def _reference_check_int(name, value):
    try:
        whole = int(value) == value
    except (ValueError, OverflowError):  # nan, inf
        whole = False
    if not whole:
        raise ValueError(f"{name} {value} is not an integer")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{name} {value} does not fit in int64")


def _reference_check_row(row, tolerance=None):
    """Raise for the first rule a row in CycleRecord field order breaks:
    the integer fields, each duration, the length, then with a tolerance
    the barrier identities."""
    index, start, length, d4, d1, d2, d8, d5, d6 = row
    _reference_check_int("cycle_index", index)
    _reference_check_int("cycle_start_ms", start)
    for name, value in zip(_DURATIONS, row[3:]):
        if math.isnan(value) or value < 0 or math.isinf(value):
            raise ValueError(f"{name} must be finite and >= 0")
    if math.isnan(length) or length <= 0 or math.isinf(length):
        raise ValueError("length_s must be finite and positive")
    if tolerance is None:
        return
    residuals = {
        "ring1_sum": abs(d4 + d1 + d2 - length),
        "ring2_sum": abs(d8 + d5 + d6 - length),
        "cross_sum": abs((d1 + d2) - (d5 + d6)),
        "lead": abs(d4 - d8),
    }
    bad = {k: v for k, v in residuals.items() if v > tolerance}
    if bad:
        raise sc.BarrierViolation(
            f"cycle {index}: barrier residuals {bad} exceed tolerance {tolerance}"
        )


def _raised(fn, *args):
    """The type and text of what ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except (sc.SpatError, ValueError) as exc:
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# ingest_events against the per-event loop it replaced


def _reference_ring_spans(events, ring, tol_ms):
    """One ring's events as (phase, start_ms, end_ms) green spans, event by event."""
    seq = sc.RING_SEQUENCE[ring]
    start_at = next(
        (i for i, ev in enumerate(events) if ev.phase == seq[0] and ev.kind == "start"),
        None,
    )
    if start_at is None:
        raise sc.RingSequenceViolation(f"ring {ring}: no {seq[0]} start in stream")

    spans = []
    pos = 0
    span_start = 0
    for ev in events[start_at:]:
        expected_phase = seq[(pos // 2) % 3]
        expect_end = pos % 2 == 1
        if ev.phase != expected_phase or (ev.kind == "end") != expect_end:
            raise sc.RingSequenceViolation(
                f"ring {ring}: got {ev.phase} {ev.kind} at {ev.timestamp_ms} ms, "
                f"expected {expected_phase} {'end' if expect_end else 'start'}"
            )
        if expect_end:
            spans.append((expected_phase, span_start, ev.timestamp_ms))
        else:
            if spans and abs(ev.timestamp_ms - spans[-1][2]) > tol_ms:
                raise sc.RingSequenceViolation(
                    f"ring {ring}: {ev.phase} starts at {ev.timestamp_ms} ms but "
                    f"{spans[-1][0]} ended at {spans[-1][2]} ms (stream not contiguous)"
                )
            span_start = ev.timestamp_ms
        pos += 1
    return spans


def _reference_ingest(stream, tolerance=sc.DEFAULT_TOLERANCE_S):
    """The per-event ingest loop, kept as the oracle for ingest_events."""
    if not 0 <= tolerance * 1000 < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0 in ms, got {tolerance!r} s")
    events = list(stream)
    prev_ts = None
    for ev in events:
        if prev_ts is not None and ev.timestamp_ms < prev_ts:
            raise sc.OutOfOrderEvent(f"timestamp {ev.timestamp_ms} ms after {prev_ts} ms")
        prev_ts = ev.timestamp_ms

    tol_ms = int(round(tolerance * 1000))
    r1, r2 = (
        [tuple(spans[i:i + 3]) for i in range(0, len(spans) - len(spans) % 3, 3)]
        for spans in (
            _reference_ring_spans([ev for ev in events if ev.ring == ring], ring, tol_ms)
            for ring in (1, 2)
        )
    )
    # Drop unpaired leading cycles until both rings open together.
    while r1 and r2 and abs(r1[0][0][1] - r2[0][0][1]) > tol_ms:
        if r1[0][0][1] < r2[0][0][1]:
            r1.pop(0)
        else:
            r2.pop(0)

    records = []
    for idx in range(min(len(r1), len(r2))):
        c1, c2 = r1[idx], r2[idx]
        if abs(c1[0][1] - c2[0][1]) > tol_ms:
            raise sc.BarrierViolation(
                f"cycle {idx}: rings open {abs(c1[0][1] - c2[0][1])} ms apart"
            )
        cycle_start = c1[0][1]
        length = (c1[2][2] - cycle_start) / 1000.0
        durs = {
            sc.DURATION_KEY[phase]: (end - start) / 1000.0
            for phase, start, end in (*c1, *c2)
        }
        row = (idx, cycle_start, length, *(durs[name] for name in _DURATIONS))
        _reference_check_row(row, tolerance)
        records.append(sc.CycleRecord(*row))
    return sc.CycleTable(tuple(records))


# Green durations in ms: coarse values make zero-length phases and cycles,
# ties and exact barrier matches common; jitter breaks them by a little.
_coarse_ms = st.sampled_from([0, 1000, 5000, 36_000])
_jitter_ms = st.sampled_from([0, 0, 0, 1, 7, 50, 2000])


@st.composite
def _event_streams(draw):
    """Sorted event streams from random cycles, trimmed and maybe corrupted.

    Ring 2 mirrors ring 1 except in at most one cycle, where it moves the
    p4/p8 barrier (ring 2 keeps its length), drifts (it does not) or opens
    late or early.
    """
    n = draw(st.integers(1, 6))
    faulty = draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from(["none"] * 3 + ["lead", "drift", "offset"]))
    size = draw(st.sampled_from([1, 7, 50, 2000])) * draw(st.sampled_from([1, -1]))
    start = draw(st.sampled_from([0, 3 * 86_400_000, -5_000]))
    events = []
    for c in range(n):
        ring1 = [draw(_coarse_ms) + draw(_jitter_ms) for _ in range(3)]
        ring2, offset = list(ring1), 0
        if c == faulty and fault == "lead":
            ring2 = [ring1[0] + size, ring1[1], ring1[2] - size]
        elif c == faulty and fault == "drift":
            ring2 = [ring1[0], ring1[1], ring1[2] + size]
        elif c == faulty and fault == "offset":
            offset = size
        if min(ring2) < 0:
            ring2 = ring1
        for ring, durs, t in ((1, ring1, start), (2, ring2, start + offset)):
            for phase, d in zip(sc.RING_SEQUENCE[ring], durs):
                events.append(PhaseEvent(t, ring, phase, "start"))
                events.append(PhaseEvent(t + d, ring, phase, "end"))
                t += d
        start += sum(ring1)
    events.sort(key=lambda ev: ev.timestamp_ms)  # stable: per-ring order kept

    trims = st.sampled_from([0, 0, 0, 1, 2, 5, 7, 13])
    head, tail = draw(trims), draw(trims)
    events = events[head:max(head, len(events) - tail)]
    corruption = draw(st.sampled_from(
        ["none"] * 4 + ["drop", "duplicate", "swap", "shift", "extreme"]
    ))
    if events and corruption != "none":
        i = draw(st.integers(0, len(events) - 1))
        ev = events[i]
        if corruption == "drop":
            del events[i]
        elif corruption == "duplicate":
            events.insert(i, ev)
        elif corruption == "swap" and i + 1 < len(events):
            events[i], events[i + 1] = events[i + 1], ev
        elif corruption == "shift":
            delta = draw(st.sampled_from([-1000, -30, -1, 1, 30, 1000]))
            events[i] = PhaseEvent(ev.timestamp_ms + delta, ev.ring, ev.phase, ev.kind)
        elif corruption == "extreme":
            ts = draw(st.sampled_from([-(2**63), 2**63 - 1]))
            events[i] = PhaseEvent(ts, ev.ring, ev.phase, ev.kind)
    return events


def _drifting_events(ring1, ring2):
    """Sorted events of cycles that follow on one another along each ring;
    ``ring1`` and ``ring2`` hold each cycle's three durations in ms."""
    events = []
    for ring, cycles in ((1, ring1), (2, ring2)):
        t = 0
        for durs in cycles:
            for phase, d in zip(sc.RING_SEQUENCE[ring], durs):
                events += [PhaseEvent(t, ring, phase, "start"),
                           PhaseEvent(t + d, ring, phase, "end")]
                t += d
    return sorted(events, key=lambda ev: ev.timestamp_ms)


def _outcome(ingest, events, tolerance):
    try:
        return ingest(events, tolerance)
    except (sc.SpatError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_event_streams(), st.sampled_from([-0.5, 0.0, 0.001, 0.05, 0.05, 0.5, 3.0]))
@example(_cycle_events(0, (36, 0, 84), (36, 0, 84)), 0.05)
@example(  # a zero-length cycle, then a barrier violation
    sorted(_cycle_events(0, (0, 0, 0), (0, 0, 0)) + _cycle_events(0, (36, 0, 84), (37, 0, 83)),
           key=lambda ev: ev.timestamp_ms),
    0.05,
)
@example(_cycle_events(0, (36, 0, 84), (37, 0, 83)), 0.05)  # barrier violation
@example(  # ring 2 drifts 30 ms a cycle: in cycle 2 the rings open apart and break a barrier
    _drifting_events([(36_000, 0, 84_000)] * 3, [(36_000, 0, 84_030)] * 2 + [(37_000, 0, 83_000)]),
    0.05,
)
@example(  # p4 at the int64 minimum: the gap to p1 start exceeds int64
    [PhaseEvent(-(2**63), 1, "p4", kind) for kind in ("start", "end")]
    + [ev for ev in _cycle_events(0, (36, 0, 84), (36, 0, 84)) if ev.phase != "p4"],
    0.05,
)
def test_ingest_matches_per_event_loop(events, tolerance):
    want = _outcome(_reference_ingest, events, tolerance)
    assert _outcome(_ingest, events, tolerance) == want
    buf = io.StringIO()
    sc.write_event_csv(event_log(events), buf)
    log = sc.read_event_csv(io.StringIO(buf.getvalue()))
    assert _outcome(sc.ingest_events, log, tolerance) == want


# ---------------------------------------------------------------------------
# read_cycle_csv and the table operations against the per-record paths they
# replaced

_CYCLE_HEADER = ["cycle_index", "cycle_start_ms", "L_s",
                 "d4_s", "d1_s", "d2_s", "d8_s", "d5_s", "d6_s"]


def _reference_parse_cycle_row(row, line):
    if len(row) != len(_CYCLE_HEADER):
        raise sc.MalformedRow(line, f"expected {len(_CYCLE_HEADER)} fields, got {len(row)}")
    try:
        ints = []
        for name, text in zip(("cycle_index", "cycle_start_ms"), row):
            ints.append(int(text))
            _reference_check_int(name, ints[-1])
        values = (*ints, *map(float, row[2:]))
        _reference_check_row(values)
        return sc.CycleRecord(*values)
    except ValueError as exc:
        raise sc.MalformedRow(line, str(exc)) from exc


def _reference_read_cycle_csv(source):
    """The per-row cycle CSV reader, kept as the oracle for read_cycle_csv."""
    with _opened(source) as f:
        rows = csv.reader(f)
        try:
            header = next(rows, None)
            if header != _CYCLE_HEADER:
                raise ValueError(f"expected header {_CYCLE_HEADER}, got {header}")
            records = [_reference_parse_cycle_row(row, rows.line_num) for row in rows]
        except csv.Error as exc:
            raise sc.MalformedRow(rows.line_num, str(exc)) from exc
    starts = [r.cycle_start_ms for r in records]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("cycle_start_ms must be strictly increasing")
    return sc.CycleTable(tuple(records))


_DAY_MS = 86_400_000


@st.composite
def _cycle_columns(draw):
    """Columns of a valid table, in CycleRecord field order.

    Starts increase by steps from 1 ms to days; lengths come from a few
    plans, including 100.35 and 100.45 s, where Python's round and np.round
    disagree; durations lie on the 0.01 s grid or are -0.0; barrier
    identities are not kept.
    """
    n = draw(st.integers(0, 8))
    start = draw(st.sampled_from([0, 5 * _DAY_MS, -_DAY_MS - 7]))
    starts = []
    for _ in range(n):
        starts.append(start)
        start += draw(st.sampled_from([1, 120_000, _DAY_MS, 3 * _DAY_MS + 1]))
    if draw(st.booleans()):
        index = list(range(n))
    else:
        index = [draw(st.integers(-(2**63), 2**63 - 1)) for _ in range(n)]
    lengths = [draw(st.sampled_from([100.0, 100.35, 100.45, 120.0, 120.04])) for _ in range(n)]
    centi = st.integers(0, 9000).map(lambda c: c / 100) | st.just(-0.0)
    durations = [[draw(centi) for _ in range(n)] for _ in range(6)]
    return [index, starts, lengths, *durations]


_BAD_VALUES = [
    "nan", "inf", "-inf", "1e999", "-1", "-0.01", "0", str(2**63), str(-(2**63) - 1),
]
_ODD_SPELLINGS = [
    "-0.0", "x", "", '"36.0"', "1e2", " 36.0", "+5", "1_0", "0x10", "١٢", '"1\n"',
    '"3', str(2**63 - 1), str(-(2**63)),
]
# Durations as other tools write them: no decimals, one, three, a bare
# point, no units, leading zeros; and past the block form, four decimals,
# two points and 16 digits.
_DECIMAL_SPELLINGS = [
    "36", "36.", "36.0", "36.000", ".5", "0.125", "036.50", "000", "5.1234", "5..0",
    "1234567890123.45", "123456789012345", "1234567890123456", "12345678901234.5",
]
# How a whole table's durations are spelled: as written, as repr(float)
# (pandas' to_csv), and whole ones as integers (awk's $4 + 0).
_STYLES = {
    "written": lambda text: text,
    "repr": lambda text: repr(float(text)),
    "int": lambda text: text.removesuffix(".00"),
}


@st.composite
def _cycle_csv_texts(draw):
    """A cycle CSV from write_cycle_csv, its durations respelled in a drawn
    style, with up to three corruptions: rows dropped, duplicated or
    swapped; short, long or blank rows; a field replaced by an invalid
    value, another spelling or random text."""
    buf = io.StringIO()
    sc.write_cycle_csv(sc.CycleTable.from_columns(*draw(_cycle_columns())), buf)
    lines = buf.getvalue().split("\r\n")[:-1]
    style = _STYLES[draw(st.sampled_from(list(_STYLES)))]
    lines[1:] = [",".join(fields[:2] + [style(f) for f in fields[2:]])
                 for fields in (line.split(",") for line in lines[1:])]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))  # the header alone
        op = draw(st.sampled_from(
            ["drop", "duplicate", "swap", "short", "long", "blank"] + ["field"] * 4
        ))
        fields = lines[i].split(",")
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif op == "short":
            lines[i] = ",".join(fields[:-1])
        elif op == "long":
            lines[i] += ",0"
        elif op == "blank":
            lines.insert(i, "")
        elif op == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.one_of(
                st.sampled_from(_BAD_VALUES),
                st.sampled_from(_ODD_SPELLINGS),
                st.sampled_from(_DECIMAL_SPELLINGS),
                st.text(alphabet="0123456789-+._ eExn\"", max_size=6),
            ))
            lines[i] = ",".join(fields)
    sep = draw(st.sampled_from(["\r\n", "\n"]))
    return sep.join(lines) + draw(st.sampled_from([sep, ""]))


_COLUMNS = ("cycle_index", "cycle_start_ms", "length_s", *_DURATIONS)


def _read_outcome(read, source):
    try:
        table = read(source)
    except (sc.SpatError, ValueError) as exc:
        return type(exc), str(exc)
    # Each column's dtype and bits, so that -0.0 and 0.0 differ.
    columns = [getattr(table, name) for name in _COLUMNS]
    return [(col.dtype.str, col.tobytes()) for col in columns]


def _sources(text, tmp):
    """The four ways a reader takes ``text``: a path to its UTF-8 bytes, and
    handles that keep line ends, read universal newlines or translate them."""
    path = Path(tmp) / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    return {
        "path": lambda: path,
        "text": lambda: io.StringIO(text),
        "universal": lambda: io.StringIO(text, newline=""),
        "translated": lambda: io.StringIO(text, newline=None),
    }


def _cycle_csv(*rows, sep="\r\n"):
    return sep.join([",".join(_CYCLE_HEADER), *rows]) + sep


_VALID_ROW = "0,0,120.00,36.00,0.00,84.00,36.00,0.00,84.00"
_ROW_1 = "1,120000,120.00,36.00,5.00,79.00,36.00,5.00,79.00"
_ROW_2 = "2,240000,120.00,41.25,5.50,73.25,41.25,5.50,73.25"
# Durations of 1, 5, 6, 7 and 13 digits before the point.
_WIDE = "1.00,12345.67,123456.78,1234567.89,1234567890123.45,5.00,0.00"


@settings(max_examples=400, deadline=None)
@given(_cycle_csv_texts(), st.integers(1, 120))
@example(",".join(_CYCLE_HEADER) + "\n" + _VALID_ROW + '\n"' + "1" * 200_000 + "\n", 64)
@example(",".join(_CYCLE_HEADER) + '\n1,0,nan,0,0,0,0,0,0\n"' + "1" * 200_000 + "\n", 64)
@example('"' + "h" * 200_000 + "\n" + _VALID_ROW + "\n", 64)
@example(",".join(_CYCLE_HEADER) + "\n" + _VALID_ROW + "\n" + _VALID_ROW + "\n", 64)
# A duration without its decimals, a sign, and a point moved: the first
# and last stay on the block path, the sign sends its row per row.
@example(_cycle_csv(_VALID_ROW, _ROW_1.replace("36.00", "36", 1), _ROW_2), 7)
@example(_cycle_csv(_VALID_ROW, _ROW_1.replace(",5.00,", ",-0.00,", 1)), 7)
@example(_cycle_csv(_VALID_ROW, _ROW_1.replace("36.00", "360.0", 1)), 7)  # point moved
@example(_cycle_csv("0,-120000," + _VALID_ROW[4:], _ROW_1), 7)
@example(_cycle_csv(f"{2**63 - 1}" + _VALID_ROW[1:], _ROW_1), 7)
@example(_cycle_csv("9" * 18 + _VALID_ROW[1:], "9" * 18 + _ROW_1[1:]), 7)  # 18 digits
# A row that breaks a rule in form comes before a row that does not parse.
@example(_cycle_csv(_VALID_ROW.replace("120.00", "0.00"), _ROW_1.replace("36.00", "x", 1)), 7)
@example(_cycle_csv(_VALID_ROW, _ROW_1.replace(",5.00,", ",5.00\r,", 1), _ROW_2), 7)
# One leading BOM is skipped; a second is part of the header.
@example("\ufeff" + _cycle_csv(_VALID_ROW), 7)
@example("\ufeff\ufeff" + _cycle_csv(_VALID_ROW), 7)
# Two points, a bare point and four decimals are out of form; the row
# with four decimals reads per row, the others fail there.
@example(_cycle_csv(_VALID_ROW, _ROW_1.replace("36.00", "3.6.0", 1)), 7)
@example(_cycle_csv(_VALID_ROW, _ROW_1.replace("36.00", "36..", 1)), 7)
@example(_cycle_csv(_VALID_ROW, _ROW_1.replace("36.00", ".", 1)), 7)
@example(_cycle_csv(_VALID_ROW, _ROW_1.replace("36.00", "36.0001", 1), _ROW_2), 7)
# 15 digits in all are in form; 16 are not.
@example(_cycle_csv(_VALID_ROW.replace("84.00", "9007199254740.99"),
                    _ROW_1.replace("79.00", "90071992547409.93")), 7)
@example(_cycle_csv(_VALID_ROW) + _ROW_1 + "\n" + _ROW_2 + "\r\n", 7)  # mixed line ends
# Starts of 8, 9, 16, 17 and 18 digits take one, two and three words.
@example(_cycle_csv(*(f"{n},{'1' * n}" + _VALID_ROW[3:] for n in (8, 9, 16, 17, 18))), 7)
@example(_cycle_csv(*(f"{n},{'1' * n}" + _VALID_ROW[3:] for n in (8, 9, 16, 17, 18))), 120)
# A duration's last seven digits are read from its last word with the
# point squeezed out, and digits before those from the word before it: on
# the first row, whose words read back into the header, on rows next to
# block edges, and with a non-digit just before the point, as the last
# byte, and among the digits of the word before.
@example(_cycle_csv("0,0," + _WIDE), 7)
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE, "2,2," + _WIDE), 1)
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE, "2,2," + _WIDE), 120)
@example(_cycle_csv("0,0," + _WIDE.replace("1234567890123.45", "0.00")), 7)  # 7 at most
@example(_cycle_csv("0,0,1.00,12345.67,123456.78,5.00,0.00,5.00,0.00"), 7)  # 6 at most
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE.replace("12345.67", "1234:.67")), 7)
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE.replace("3.45", "/.45")), 7)
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE.replace("1.00", "/.00")), 7)
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE.replace("123456.78", "123456.7:")), 7)
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE.replace("0.00", "0.0/")), 7)
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE.replace("1234567.89", ":234567.89")), 7)
@example(_cycle_csv("0,0," + _WIDE, "1,1," + _WIDE.replace("0123.45", "0 23.45")), 7)
# Durations with 6, 8, 9 and 13 digits before the point, and an 18-digit
# start on the first row, whose words reach back into the header.
@example(_cycle_csv("0,123456789012345678,120.00,123456.78,12345678.90,123456789.01,"
                    "1234567890123.45,0.00,84.00"), 7)
def test_read_cycle_csv_matches_per_row_reader(text, block_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in _sources(text, tmp).items():
            want = _read_outcome(_reference_read_cycle_csv, source())
            # Small blocks put a block edge next to every line.
            for size in (1, block_bytes, spatcast.cycles._BLOCK_BYTES):
                with patch.object(spatcast.cycles, "_BLOCK_BYTES", size):
                    assert _read_outcome(sc.read_cycle_csv, source()) == want, (name, size)


def _assert_block_read(tmp_path, table, sep, respell=None):
    """read_cycle_csv reads ``table`` as written, with ``sep`` line ends and
    each duration's text passed through ``respell``, on the block path
    alone, as the per-row reference does."""
    buf = io.StringIO()
    sc.write_cycle_csv(table, buf)
    text = buf.getvalue()
    if respell is not None:
        text = re.sub(r"(?<=,)[0-9]+\.[0-9]{2}(?=[,\r])", lambda m: respell(m[0]), text)
    path = tmp_path / "cycles.csv"
    path.write_bytes(text.replace("\r\n", sep).encode())
    want = _read_outcome(_reference_read_cycle_csv, path)
    with patch.object(spatcast.cycles, "_read_rows", side_effect=AssertionError):
        for size in (1, 100, spatcast.cycles._BLOCK_BYTES):
            with patch.object(spatcast.cycles, "_BLOCK_BYTES", size):
                assert _read_outcome(sc.read_cycle_csv, path) == want


@pytest.mark.parametrize("sep", ["\r\n", "\n"])
def test_canonical_cycle_csv_skips_per_row_loop(tmp_path, sep):
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(4), 30, start_ms=10**17)
    _assert_block_read(tmp_path, table, sep)


@pytest.mark.parametrize("sep", ["\r\n", "\n"])
def test_wide_durations_skip_per_row_loop(tmp_path, sep):
    _assert_block_read(tmp_path, _wide_table(), sep)


def _wide_table():
    # Every duration column takes 1, 5, 6, 7 and 13 digits before the point.
    durations = np.array([1.0, 12345.67, 123456.78, 1234567.89, 1234567890123.45, 5.0, 0.01])
    rows = np.arange(30)
    return sc.CycleTable.from_columns(
        rows, rows * 120_000, *(durations[(rows + j) % 7] for j in range(7))
    )


@pytest.mark.parametrize("sep", ["\r\n", "\n"])
@pytest.mark.parametrize("style", ["repr", "int"])
@pytest.mark.parametrize("wide", [False, True])
def test_pandas_style_and_integer_durations_skip_per_row_loop(tmp_path, sep, style, wide):
    # Durations as pandas writes them (36.0, 12345.67), and whole ones as
    # integers (36).
    table = _wide_table() if wide else sc.simulate(sc.TimingPlan(), sc.peaked_demand(4), 30)
    _assert_block_read(tmp_path, table, sep, _STYLES[style])


@st.composite
def _decimal_fields(draw):
    """A decimal of 1 to 15 digits and 0 to 3 decimals, with or without a
    point, often with leading zeros."""
    n = draw(st.integers(1, 15))
    decimals = draw(st.integers(0, min(3, n)))
    zeros = draw(st.integers(0, n))
    digits = "0" * zeros + "".join(draw(st.lists(st.sampled_from("0123456789"),
                                                 min_size=n - zeros, max_size=n - zeros)))
    point = "." if decimals or draw(st.booleans()) else ""
    return digits[:n - decimals] + point + digits[n - decimals:]


@settings(max_examples=300, deadline=None)
@given(st.lists(_decimal_fields(), min_size=1, max_size=40), st.integers(1, 120),
       st.sampled_from(["\r\n", "\n"]))
@example(["9" * 15, "9" * 12 + ".999", "0" * 15, "0.000", ".001", "5.", "900719925474.993"], 1, "\n")
def test_decimal_kind_is_float(fields, block_bytes, sep):
    # Six durations a row, on the block path alone; each is bit-equal to
    # float() of its text.
    padded = fields + ["0"] * (-len(fields) % 6)
    rows = [f"{i},{i},120.00," + ",".join(padded[6 * i:6 * i + 6]) for i in range(len(padded) // 6)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cycles.csv"
        path.write_bytes(_cycle_csv(*rows, sep=sep).encode())
        with patch.object(spatcast.cycles, "_read_rows", side_effect=AssertionError):
            for size in (1, block_bytes, spatcast.cycles._BLOCK_BYTES):
                with patch.object(spatcast.cycles, "_BLOCK_BYTES", size):
                    table = sc.read_cycle_csv(path)
                    got = np.stack([getattr(table, name) for name in _DURATIONS], axis=1)
                    want = np.array([float(text) for text in padded]).reshape(-1, 6)
                    assert got.tobytes() == want.tobytes(), size


def _reference_write_cycle_csv(records):
    """The per-record cycle CSV writer, kept as the oracle for write_cycle_csv."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(_CYCLE_HEADER)
    for r in records:
        w.writerow([r.cycle_index, r.cycle_start_ms,
                    *(f"{getattr(r, name):.2f}" for name in ("length_s", *_DURATIONS))])
    return buf.getvalue()


_LENGTHS = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False),
    st.integers(1, 10**7).map(lambda ms: ms / 1000),  # as ingest_events makes them
    st.sampled_from([0.125, 1.005, 2.675, 1e17, 5e-324]),  # half-cent ties, extremes
)
_DURATIONS_ANY = _LENGTHS | st.sampled_from([0.0, -0.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LENGTHS, *[_DURATIONS_ANY] * 6), min_size=1, max_size=6),
       st.integers(-(2**62), 2**62))
@example([(0.125, 1.005, 2.675, 1e17, 5e-324, 0.0, 90071992547409.93)], 0)
@example([(120.0, 36.0, 0.0, 84.0, 36.0, -0.0, 84.0),  # 0.0 and -0.0 in one column
          (120.0, 36.0, -0.0, 84.0, 36.0, 0.0, 84.0)], 0)
def test_write_cycle_csv_matches_per_record_writer(rows, start):
    starts = [start + 120_000 * i for i in range(len(rows))]
    table = sc.CycleTable.from_columns(range(len(rows)), starts, *zip(*rows))
    buf = io.StringIO()
    sc.write_cycle_csv(table, buf)
    text = buf.getvalue()
    # Records built from the drawn rows, not table.records, which shares
    # write_cycle_csv's per-distinct-value formatting.
    records = [sc.CycleRecord(i, s, *row) for i, (s, row) in enumerate(zip(starts, rows))]
    assert text == _reference_write_cycle_csv(records)
    # Durations off the 0.01 s grid read back as the per-row reader reads them.
    want = _read_outcome(_reference_read_cycle_csv, io.StringIO(text, newline=""))
    assert _read_outcome(sc.read_cycle_csv, io.StringIO(text, newline="")) == want


def _reference_column(records, quantity):
    out = np.zeros(len(records), dtype=float)
    for p in quantity.split("+"):
        out += np.array([getattr(r, p) for r in records], dtype=float)
    return out


def _sliced(table, slicer, *args):
    try:
        sub = slicer(table, *args)
    except sc.EmptyStratum as exc:
        return str(exc)
    return sub.records


def _fitted(table, quantity):
    try:
        dist = sc.fit(table, quantity)
    except (sc.EmptyInput, sc.MixedStrata) as exc:
        return type(exc), str(exc)
    return dist.values.tolist(), dist.stratum


@settings(max_examples=200, deadline=None)
@given(_cycle_columns(), st.integers(-2, 8), st.integers(1, 4))
def test_table_operations_match_record_tuple(columns, target, delta):
    table = sc.CycleTable.from_columns(*columns)
    rows = list(zip(*columns))
    for row in rows:
        _reference_check_row(row)
    records = tuple(sc.CycleRecord(*row) for row in rows)
    ref = sc.CycleTable(records)
    assert table.records == records
    assert [repr(r) for r in table] == [repr(r) for r in records]  # -0.0 keeps its sign
    assert [table[i] for i in range(len(records))] == list(records)
    assert table == ref
    if records:
        assert table != sc.CycleTable(records[:-1])

    buf = io.StringIO()
    sc.write_cycle_csv(table, buf)
    assert buf.getvalue() == _reference_write_cycle_csv(records)

    for quantity in (*_DURATIONS, "d4+d1", "d8+d5"):
        got = table.column(quantity)
        assert np.array_equal(got, _reference_column(records, quantity))
        got[:] = -1.0  # a fresh, writable array
    assert np.array_equal(table.column("d4"), _reference_column(records, "d4"))
    assert table.cycle_lengths().tolist() == [r.length_s for r in records]
    assert table.day_indices().tolist() == [r.day_index for r in records]
    for tolerance in (-1.0, 0.0, 0.05, 30.0):
        barrier = (_raised(_reference_check_row, row, tolerance) for row in rows)
        assert _raised(table.validate, tolerance) == next(filter(None, barrier), None)

    for cycle_length in {100.0, 100.35, 100.4, 100.45, 100.5, 120.0, 110.0}:
        key = round(cycle_length, 1)
        kept = tuple(r for r in records if round(r.length_s, 1) == key)
        want = kept if kept else f"no cycles with L = {key} s"
        assert _sliced(table, sc.stratify, cycle_length) == want

    day = (records[0].day_index if records else 0) + target
    lo, hi = day - delta, day - 1
    kept = tuple(r for r in records if lo <= r.day_index <= hi)
    want = kept if kept else f"no cycles in days [{lo}, {hi}]"
    assert _sliced(table, sc.window, day, delta) == want

    strata = {round(r.length_s, 1) for r in records}
    for quantity in ("d4", "d4+d1"):
        if not records:
            want = sc.EmptyInput, "cannot fit on an empty table"
        elif len(strata) > 1:
            want = sc.MixedStrata, f"table mixes cycle lengths {sorted(strata)}; stratify first"
        else:
            want = sorted(_reference_column(records, quantity).tolist()), min(strata)
        assert _fitted(table, quantity) == want


_BAD_INTS = [0.9, 1.5, -0.5, math.nan, math.inf, -math.inf, 2**63, -(2**63) - 1, 1e19]
_BAD_FLOATS = [math.nan, math.inf, -math.inf, -1.0, -0.01]


@settings(max_examples=300, deadline=None)
@given(_cycle_columns(), st.data())
def test_from_columns_rejects_bad_values_as_the_per_row_check(columns, data):
    """One to three bad values placed anywhere, so that rules meet in a row."""
    if not columns[0]:
        columns = [[0], [0], [120.0], *[[0.0]] * 6]
    columns = [list(col) for col in columns]
    for _ in range(data.draw(st.integers(1, 3))):
        field = data.draw(st.integers(0, 8))
        row = data.draw(st.integers(0, len(columns[0]) - 1))
        columns[field][row] = data.draw(st.sampled_from(
            _BAD_INTS if field < 2 else _BAD_FLOATS + [0.0, -0.0] * (field == 2)
        ))
    if data.draw(st.booleans()):  # as numpy arrays, which numpy's promotion types
        columns = [np.array(col) for col in columns]
    rows = list(zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns)))
    want = next(filter(None, (_raised(_reference_check_row, r) for r in rows)))
    assert _raised(sc.CycleTable.from_columns, *columns) == want
    records = [sc.CycleRecord(*r) for r in zip(*columns)]
    assert _raised(sc.CycleTable, records) == want


_ONE_CYCLE = ([120.0], [36.0], [0.0], [84.0], [36.0], [0.0], [84.0])


@pytest.mark.parametrize("index, start, reason", [
    ([0], [1.5], "cycle_start_ms 1.5 is not an integer"),
    ([0.9], [0], "cycle_index 0.9 is not an integer"),
    ([0], np.array([2**63], dtype=np.uint64), f"cycle_start_ms {2**63} does not fit in int64"),
    ([0], [-(2**63) - 1], f"cycle_start_ms {-(2**63) - 1} does not fit in int64"),
])
def test_integer_columns_reject_non_integers_and_values_past_int64(index, start, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        sc.CycleTable.from_columns(index, start, *_ONE_CYCLE)
    record = sc.CycleRecord(index[0], start[0], *(col[0] for col in _ONE_CYCLE))
    with pytest.raises(ValueError, match=f"^{reason}$"):
        sc.CycleTable([record])


@pytest.mark.parametrize("timestamp, reason", [
    (1.5, "timestamp_ms 1.5 is not an integer"),
    (2**63, f"timestamp_ms {2**63} does not fit in int64"),
    (float("nan"), "timestamp_ms nan is not an integer"),
])
def test_event_log_rejects_timestamps_that_are_not_int64(timestamp, reason):
    # Once stored 1.5 as 1 ms, or escaped as OverflowError or a numpy cast error.
    with pytest.raises(ValueError, match=f"^{reason}$"):
        EventLog([0, timestamp], [1, 1], [0, 1])


@pytest.mark.parametrize("ring, step, reason", [
    # Ingest once dropped a ring-3 event unread: "ring 2: no p8 start in stream".
    ([1, 3], [0, 0], "ring 3 is not 1 or 2"),
    # Once an IndexError out of ingest_events.
    ([1, 1], [0, 7], "step 7 is not in 0-5"),
    # Once named ring 1's p2 end by a negative index.
    ([1, 1], [0, -1], "step -1 is not in 0-5"),
    ([1], [0, 1], "columns must be one-dimensional and of equal length"),
    ([1, 1], [[0, 1]], "columns must be one-dimensional and of equal length"),
])
def test_event_log_rejects_rings_and_steps_off_the_pattern(ring, step, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        EventLog([0, 1000], ring, step)


@pytest.mark.parametrize("ring, step, reason", [
    # Integers that would wrap into range as int8.
    (np.array([1, 257]), [0, 1], "ring 257 is not 1 or 2"),
    (np.array([1, 2]), np.array([0, 300]), "step 300 is not in 0-5"),
    (np.array([-255, 1]), [0, 1], "ring -255 is not 1 or 2"),
    (np.array([1, 1]), np.array([0, -255]), "step -255 is not in 0-5"),
    (np.array([1, 2], np.uint64), np.array([0, 2**64 - 1], np.uint64),
     f"step {2**64 - 1} is not in 0-5"),
    # Floats, nan among them, and bools.
    (np.array([1.0, 1.5]), [0, 1], "ring 1.5 is not 1 or 2"),
    ([1, 2], np.array([0.0, np.nan]), "step nan is not in 0-5"),
    ([np.nan, 1], [0, 1], "ring nan is not 1 or 2"),
    (np.array([2.0, 1.0]), np.array([5.0, 0.0]), None),
    (np.array([True, False]), [0, 1], "ring False is not 1 or 2"),
    (np.array([True, True]), np.array([False, True]), None),
    # uint8, whose 0 is in range for a step and not for a ring.
    (np.array([1, 0], np.uint8), [0, 1], "ring 0 is not 1 or 2"),
    ([1, 1], np.array([0, 255], np.uint8), "step 255 is not in 0-5"),
    (np.array([2, 1], np.uint8), np.array([0, 5], np.uint8), None),
])
def test_event_log_checks_rings_and_steps_of_any_dtype(ring, step, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if reason is not None:
            with pytest.raises(ValueError, match=f"^{reason}$"):
                EventLog([0, 1000], ring, step)
            return
        log = EventLog([0, 1000], ring, step)
    assert log_columns(log)[1:] == [("|i1", np.asarray(ring).astype(int).tolist()),
                                    ("|i1", np.asarray(step).astype(int).tolist())]


def test_event_log_holds_int64_times_and_int8_rings_and_steps():
    log = EventLog([0.0, 2**62 + 1], np.array([1, 2]), (5, 0))
    assert log_columns(log) == [("<i8", [0, 2**62 + 1]), ("|i1", [1, 2]), ("|i1", [5, 0])]


def test_event_log_columns_are_read_only_copies():
    # A write into a column once escaped ingest_events as a bare IndexError.
    log = sc.emit_events(sc.simulate(sc.TimingPlan(), sc.peaked_demand(0), 3))
    for col in (log.timestamp_ms, log.ring, log.step):
        with pytest.raises(ValueError, match="read-only"):
            col[5] = 7
    times, ring, step = np.array([0, 1000]), np.array([1, 1], np.int8), np.array([0, 1], np.int8)
    log = EventLog(times, ring, step)
    times[0], ring[0], step[0] = 5, 2, 3  # the caller's arrays stay theirs
    assert log_columns(log) == [("<i8", [0, 1000]), ("|i1", [1, 1]), ("|i1", [0, 1])]


def test_integer_columns_take_whole_floats_and_int64_arrays():
    big = 2**62 + 1  # not a float64: a list mixing it with floats keeps its digits
    two_cycles = [col * 2 for col in _ONE_CYCLE]
    table = sc.CycleTable.from_columns([0.0, 1], [big, 2.0**62 * 1.5], *two_cycles)
    assert table.cycle_start_ms.tolist() == [big, 3 * 2**61]
    again = sc.CycleTable.from_columns(table.cycle_index, table.cycle_start_ms, *two_cycles)
    assert again == table
    assert [c.dtype for c in (again.cycle_index, again.cycle_start_ms)] == [np.int64] * 2


# ---------------------------------------------------------------------------
# read_event_csv against the per-row reader it replaced


def _reference_read_event_csv(source) -> EventLog:
    """Read a phase-event CSV; a bad row raises MalformedRow with its line."""
    times: list[int] = []
    codes: list[int] = []
    with _opened(source) as f:
        rows = csv.reader(f)
        try:
            header = next(rows, None)
        except csv.Error as exc:
            raise MalformedRow(rows.line_num, str(exc)) from exc
        if header != _EVENT_HEADER:
            raise ValueError(f"expected header {_EVENT_HEADER}, got {header}")
        try:
            for ts, ring, phase, kind in rows:
                t = int(ts)
                # Only a string of 19 or more characters can leave int64.
                if len(ts) > 18 and not _INT64_MIN <= t <= _INT64_MAX:
                    raise ValueError(f"timestamp {ts} ms does not fit in int64")
                times.append(t)
                code = _EVENT_CODE.get((ring, phase, kind))
                if code is None:  # another spelling, or an invalid event
                    ev = PhaseEvent(t, int(ring), phase, kind)
                    code = _EVENT_CODE[str(ev.ring), ev.phase, ev.kind]
                codes.append(code)
        except (ValueError, csv.Error) as exc:
            raise MalformedRow(rows.line_num, str(exc)) from exc
    code = np.array(codes, dtype=np.int64)
    return EventLog(times, code >> 3, code & 7)


_EVENT_SPELLINGS = [
    " 2", "01", "+5", "1_0", "1:5", "2 ", '"1"', '"p4"', '"start"', '"0"', "", "p9", "END", "00",
]
_EDGE_STAMPS = [
    "9" * 18, "0" * 18, "0" * 17 + "7", "1" + "0" * 18, "9" * 19, "9" * 20, "0" * 19,
    str(_INT64_MAX), str(_INT64_MAX + 1), str(_INT64_MIN), str(_INT64_MIN - 1), "-0",
]


@st.composite
def _event_csv_texts(draw):
    """An event CSV from write_event_csv with up to three mutations: another
    spelling of a field, a blank line, a lone \r, an edge timestamp, leading
    zeros on a timestamp, a NUL, a BOM, the other line end, a 3-field row
    followed by a 5-field one, and no final line end."""
    start = draw(st.sampled_from([0, 1_500_000_000_000, 10**17 - 200_000, 10**18 - 200_000]))
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(draw(st.integers(0, 9))),
                        draw(st.integers(1, 3)), start_ms=start)
    buf = io.StringIO()
    sc.write_event_csv(sc.emit_events(table), buf)
    lines = buf.getvalue().split("\r\n")[:-1]
    sep = draw(st.sampled_from(["\r\n", "\n"]))
    ends = [sep] * len(lines)
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split(",")
        op = draw(st.sampled_from(
            ["spelling", "stamp", "zeros", "blank", "cr", "nul", "bom", "end", "split"]
        ))
        if op == "spelling":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_EVENT_SPELLINGS))
            lines[i] = ",".join(fields)
        elif op == "stamp":
            lines[i] = ",".join([draw(st.sampled_from(_EDGE_STAMPS)), *fields[1:]])
        elif op == "zeros":
            lines[i] = "0" * draw(st.integers(1, 6)) + lines[i]
        elif op == "blank":
            lines.insert(i, "")
            ends.insert(i, sep)
        elif op in ("cr", "nul", "bom"):
            i = draw(st.integers(0, len(lines) - 1))  # the header too
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + {"cr": "\r", "nul": "\0", "bom": "﻿"}[op] + lines[i][at:]
        elif op == "end":
            ends[i] = "\n" if ends[i] == "\r\n" else "\r\n"
        elif op == "split" and i + 1 < len(lines):
            lines[i] = ",".join(fields[:3])
            lines[i + 1] += ",0"
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[:-len(ends[-1])]


def _event_outcome(read, source):
    try:
        log = read(source)
    except (sc.SpatError, ValueError) as exc:
        return type(exc), str(exc)
    return log_columns(log)


_HEADER_LINE = ",".join(_EVENT_HEADER)
_ONE_ROW = _HEADER_LINE + "\r\n0,1,p4,start\r\n"


def _stamped(*stamps):
    """An event CSV whose rows carry these timestamps, in turn p4 start and end."""
    rows = [f"{stamp},1,p4,{('start', 'end')[i % 2]}\r\n" for i, stamp in enumerate(stamps)]
    return _HEADER_LINE + "\r\n" + "".join(rows)


@settings(max_examples=300, deadline=None)
@given(_event_csv_texts(), st.integers(1, 120))
@example(_HEADER_LINE + "\n0,1,p4\n0,1,p4,start,x\n", 1)  # 3 + 5 fields: 6 commas
@example(_HEADER_LINE + "\n0,1,p4\n0,1,p4,start,x\n", 64)
# Rows that a single check on the tail keeps off the block path: no comma
# where its last byte puts it (3 fields, whose last 8 bytes "p8,start"
# match), last 8 bytes that match no spelling's ("p4,staxt", "p4,endxt",
# "p4,endrt"), and a doubled "\r".
@example(_ONE_ROW + "952,p8,start\r\n", 1)
@example(_ONE_ROW + "952,p8,start\r\n", 64)
@example(_ONE_ROW + "0,1,p4,staxt\r\n", 1)
@example(_ONE_ROW + "0,1,p4,staxt\r\n", 64)
@example(_ONE_ROW + "0,1,p4,endxt\r\n", 1)
@example(_ONE_ROW + "0,1,p4,endxt\r\n", 64)
@example(_ONE_ROW + "0,1,p4,endrt\r\n", 1)
@example(_ONE_ROW + "0,1,p4,endrt\r\n", 64)
@example(_ONE_ROW + "0,1,p4,end\r\r\n", 1)
@example(_ONE_ROW + "0,1,p4,end\r\r\n", 64)
# Tails that hash to an empty slot ("2,p4,end" to slot 2), onto the slot
# of a spelling of another width ("1,p3,end" onto "1,p1,start"'s,
# "1,p5,end" onto "2,p8,start"'s) or of the same width ("0,p0,end" onto
# "2,p8,end"'s), and tails whose last 8 bytes match a spelling's but whose
# 9th or 10th byte from the end does not.
@example(_ONE_ROW + "0,1,p3,end\r\n", 1)
@example(_ONE_ROW + "0,2,p4,end\r\n", 1)
@example(_ONE_ROW + "0,1,p5,end\r\n", 64)
@example(_ONE_ROW + "0,0,p0,end\r\n", 64)
@example(_ONE_ROW + "0,1;p4,start\r\n", 1)
@example(_ONE_ROW + "0,9,p4,start\r\n", 64)
# One leading BOM is skipped; a second is part of the header.
@example("\ufeff" + _HEADER_LINE + "\r\n0,1,p4,start\r\n", 1)
@example("\ufeff\ufeff" + _HEADER_LINE + "\r\n0,1,p4,start\r\n", 1)
@example(_HEADER_LINE + "\r\n0,1,p4,start\r1,1,p4,end\r\n", 1)
@example(_HEADER_LINE + "\r\n0,1,p4,start\r\n" + "9" * 19 + ",1,p4,end\r\n", 7)
@example(_HEADER_LINE, 1)
@example("", 1)
# Stamps of 8, 9, 16, 17 and 18 digits take one, two and three words; an
# 18-digit stamp on the first row reads back into the header.
@example(_stamped("1" * 8, "2" * 9, "3" * 16, "4" * 17, "9" * 18), 1)
@example(_stamped("1" * 8, "2" * 9, "3" * 16, "4" * 17, "9" * 18), 120)
@example(_stamped("123456789012345678", "0"), 7)
# A non-digit as a 16-digit stamp's first, 8th, 9th and last byte: the
# bytes just past "9" and before "0", a space and a DEL.
@example(_stamped("1" * 16, ":" + "1" * 15), 7)
@example(_stamped("1" * 16, "1" * 7 + "/" + "1" * 8), 7)
@example(_stamped("1" * 16, "1" * 8 + " " + "1" * 7), 7)
@example(_stamped("1" * 16, "1" * 15 + "\x7f"), 7)
# A two-byte character, whose bytes carry out of the digit test's sum: in
# a word's middle and as its last byte.
@example(_stamped("12\u00e9345", "1"), 7)
@example(_stamped("1234567\u00e9", "1"), 7)
def test_read_event_csv_matches_per_row_reader(text, block_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in _sources(text, tmp).items():
            want = _event_outcome(_reference_read_event_csv, source())
            # Small blocks put a block edge next to every line.
            for size in (1, block_bytes, spatcast.cycles._BLOCK_BYTES):
                with patch.object(spatcast.cycles, "_BLOCK_BYTES", size):
                    assert _event_outcome(sc.read_event_csv, source()) == want, (name, size)


def _tail_slot(spelled: str) -> int:
    """The enum table slot of an event tail: the top 4 bits of its last 8
    bytes, as a little-endian word, times _HASH, mod 2**64."""
    key = int.from_bytes(spelled.encode()[-8:], "little")
    return key * int(spatcast.cycles._HASH) % 2**64 >> 60


def test_event_tails_take_distinct_slots_and_empty_slots_reject():
    cyc = spatcast.cycles
    tail = cyc._EVENT_SCHEMA.kinds[-1][0]
    slots = {_tail_slot(spelled): code for code, spelled in cyc._SPELLING.items()}
    assert len(slots) == 12
    for slot, code in slots.items():
        spelled = cyc._SPELLING[code].encode()
        assert tail.keys[slot] == int.from_bytes(spelled[-8:], "little")
        assert (tail.widths[slot], tail.values[slot]) == (len(spelled), code)
        assert list(tail.before[:len(spelled) - 8, slot]) == list(spelled[-9::-1])
    empty = sorted(set(range(16)) - set(slots))
    assert empty and all(tail.widths[slot] == -1 for slot in empty)
    # Tails of 8 bytes whose keys land in every empty slot: the block
    # parser takes none.
    tails = [f"{r},p{p},{kind}" for r in "0123" for p in range(10) for kind in ("end", "and")]
    found = {}
    for text in tails:
        found.setdefault(_tail_slot(text), text)
    assert set(empty) <= set(found)
    for text in [found[slot] for slot in empty]:
        buf = np.frombuffer((_ONE_ROW + f"0,{text}\r\n").encode(), np.uint8)
        pos = len(_ONE_ROW)
        columns, end = cyc._parse_block(buf, pos, cyc._EVENT_SCHEMA)
        assert (len(columns[0]), end) == (0, pos), text
    # 8 NULs, whose key equals an empty slot's word, are no spelling either.
    buf = np.frombuffer(("0" * 8 + "\0" * 8).encode(), np.uint8)
    values, ok = tail(buf, np.array([16]), np.array([8]))
    assert not ok.any()


@pytest.mark.parametrize("row, reason", [
    ("0,3,p4,start", "unknown ring 3"),
    ("0,1,p8,start", "phase 'p8' is not on ring 1"),
    ("0,1,p4,stb", "kind must be 'start' or 'end', got 'stb'"),
    # An end head on a 10-byte tail.
    ("0,1,p4,endrt", "kind must be 'start' or 'end', got 'endrt'"),
])
def test_near_miss_heads_go_per_row_with_their_texts(tmp_path, row, reason):
    path = tmp_path / "events.csv"
    path.write_bytes((_ONE_ROW + "1,1,p4,end\r\n" + row + "\r\n").encode())
    with pytest.raises(MalformedRow, match=f"^line 4: {reason}$"):
        sc.read_event_csv(path)


@pytest.mark.parametrize("sep", ["\r\n", "\n"])
def test_canonical_event_csv_skips_per_row_loop(tmp_path, sep):
    path = tmp_path / "events.csv"
    # Starts whose stamps take one, two and three words.
    for start in (0, 10**7, 10**15, 10**16, 10**17):
        table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(4), 30, start_ms=start)
        events = sc.emit_events(table)
        buf = io.StringIO()
        sc.write_event_csv(events, buf)
        path.write_bytes(buf.getvalue().replace("\r\n", sep).encode())
        with patch.object(spatcast.cycles, "_read_rows", side_effect=AssertionError):
            for size in (1, 100, spatcast.cycles._BLOCK_BYTES):
                with patch.object(spatcast.cycles, "_BLOCK_BYTES", size):
                    assert log_columns(sc.read_event_csv(path)) == log_columns(events), start
