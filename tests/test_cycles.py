import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spatcast as sc


def _cycle_events(start_ms, ring1, ring2):
    """Hand-rolled event stream for one cycle: ring tuples are durations."""
    events = []
    for ring, durs in ((1, ring1), (2, ring2)):
        t = start_ms
        for phase, dur in zip(sc.RING_SEQUENCE[ring], durs):
            end = t + int(round(dur * 1000))
            events.append(sc.PhaseEvent(t, ring, phase, "start"))
            events.append(sc.PhaseEvent(end, ring, phase, "end"))
            t = end
    return sorted(events, key=lambda e: e.timestamp_ms)


class TestIngest:
    def test_single_cycle_with_zero_duration_left_turn(self):
        events = _cycle_events(0, (36, 0, 84), (36, 0, 84))
        assert len(events) == 12
        table = sc.ingest_events(events)
        assert len(table) == 1
        rec = table[0]
        assert rec.p4_end == 36.0
        assert rec.p1_end == 36.0
        assert rec.p2_end == 120.0
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
            sc.ingest_events(events, tolerance=0.05)

    def test_out_of_order_event(self):
        events = _cycle_events(0, (36, 0, 84), (36, 0, 84))
        bad = [events[-1]] + events[:-1]  # timestamp regression up front
        with pytest.raises(sc.OutOfOrderEvent):
            sc.ingest_events(bad)

    def test_ring_sequence_violation(self):
        events = _cycle_events(0, (36, 5, 79), (36, 5, 79))
        # drop ring 1's p1 start so p4 end is followed by p1 end
        events = [e for e in events
                  if not (e.ring == 1 and e.phase == "p1" and e.kind == "start")]
        with pytest.raises(sc.RingSequenceViolation):
            sc.ingest_events(events)

    def test_time_gap_between_cycles_rejected(self, build_table):
        # second cycle starts 2 s after the first one ends
        first = build_table([(36, 0, 0)])
        second = build_table([(41, 5, 5)], start_ms=122_000)
        events = sc.emit_events(first) + sc.emit_events(second)
        with pytest.raises(sc.RingSequenceViolation):
            sc.ingest_events(events)

    def test_incomplete_leading_and_trailing_cycles_dropped(self, build_table):
        table = build_table([(36, 0, 0), (41, 5, 10), (46, 10, 5)])
        events = sc.emit_events(table)
        # start mid-way through cycle 0 and cut cycle 2 short
        trimmed = [e for e in events if 40_000 <= e.timestamp_ms <= 300_000]
        got = sc.ingest_events(trimmed)
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

    def test_cycle_csv_header_checked(self):
        with pytest.raises(ValueError):
            sc.read_cycle_csv(io.StringIO("a,b,c\n1,2,3\n"))

    @pytest.mark.parametrize("row, reason", [
        ("1,120000,120.00,36.00,5.00,79.00,36.00,5.00", "expected 9 fields, got 8"),
        ("1,120000,inf,36.00,5.00,79.00,36.00,5.00,79.00", "length_s must be finite"),
        ("1,120000,120.00,36.00,nan,79.00,36.00,5.00,79.00", "d1 must be finite"),
        ("1,120000,120.00,36.00,x,79.00,36.00,5.00,79.00", "could not convert"),
    ])
    def test_cycle_csv_bad_row_names_its_line(self, build_table, row, reason):
        buf = io.StringIO()
        sc.write_cycle_csv(build_table([(36, 5, 5)]), buf)
        with pytest.raises(sc.MalformedRow, match=f"^line 3: {reason}") as exc:
            sc.read_cycle_csv(io.StringIO(buf.getvalue() + row + "\n"))
        assert exc.value.line == 3

    def test_event_csv_round_trip(self, build_table):
        events = sc.emit_events(build_table([(36, 5, 5)]))
        buf = io.StringIO()
        sc.write_event_csv(events, buf)
        back = sc.read_event_csv(io.StringIO(buf.getvalue()))
        assert len(back) == len(events)
        assert list(back) == events

    def test_event_csv_accepts_other_integer_spellings(self, build_table):
        events = sc.emit_events(build_table([(36, 5, 5)]))
        buf = io.StringIO()
        sc.write_event_csv(events, buf)
        text = buf.getvalue().replace(",1,p4,", ",01,p4,").replace(",2,p8,", ", 2,p8,")
        assert list(sc.read_event_csv(io.StringIO(text))) == events

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


def _reference_ingest(stream, tolerance=sc.DEFAULT_TOLERANCE_S, site_id=""):
    """The per-event ingest loop, kept as the oracle for ingest_events."""
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
        rec = sc.CycleRecord(
            cycle_index=idx, cycle_start_ms=cycle_start, length_s=length, **durs
        )
        rec.validate(tolerance)
        records.append(rec)
    return sc.CycleTable(tuple(records), site_id=site_id)


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
                events.append(sc.PhaseEvent(t, ring, phase, "start"))
                events.append(sc.PhaseEvent(t + d, ring, phase, "end"))
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
            events[i] = sc.PhaseEvent(ev.timestamp_ms + delta, ev.ring, ev.phase, ev.kind)
        elif corruption == "extreme":
            ts = draw(st.sampled_from([-(2**63), 2**63 - 1]))
            events[i] = sc.PhaseEvent(ts, ev.ring, ev.phase, ev.kind)
    return events


def _outcome(ingest, events, tolerance):
    try:
        return ingest(events, tolerance, "s")
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
@example(  # p4 at the int64 minimum: the gap to p1 start exceeds int64
    [sc.PhaseEvent(-(2**63), 1, "p4", kind) for kind in ("start", "end")]
    + [ev for ev in _cycle_events(0, (36, 0, 84), (36, 0, 84)) if ev.phase != "p4"],
    0.05,
)
def test_ingest_matches_per_event_loop(events, tolerance):
    want = _outcome(_reference_ingest, events, tolerance)
    assert _outcome(sc.ingest_events, events, tolerance) == want
    buf = io.StringIO()
    sc.write_event_csv(events, buf)
    log = sc.read_event_csv(io.StringIO(buf.getvalue()))
    assert _outcome(sc.ingest_events, log, tolerance) == want
