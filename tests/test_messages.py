import io
import json
import re
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spatcast as sc
import spatcast.messages
from spatcast.errors import SinkClosed
from spatcast.messages import _conditional_stats


def dists_from_rows(rows, build):
    return sc.fit_message_dists(build(rows))


FIELD_ORDER = [
    "site", "cycle", "phase", "madeAt", "startTime", "minEndTime",
    "maxEndTime", "likelyTime", "confidenceAlpha", "confidenceValue",
    "nextTime", "degraded",
]


def check_message_line(line):
    pairs = json.loads(line, object_pairs_hook=list)
    assert [k for k, _ in pairs] == FIELD_ORDER
    msg = dict(pairs)
    assert msg["startTime"] <= msg["minEndTime"] <= msg["likelyTime"] <= msg["maxEndTime"]
    assert msg["minEndTime"] >= msg["madeAt"]
    assert msg["nextTime"] > msg["likelyTime"]
    return msg


class TestCompose:
    def test_point_mass(self, build_table):
        dists = dists_from_rows([(36.0, 0.0, 0.0)] * 3, build_table)
        msg = sc.compose(dists, "p4", 10.0, 0.8)
        assert msg.min_end_time == msg.max_end_time == msg.likely_time == 36.0
        assert not msg.degraded
        assert msg.next_time == 120.0

    def test_single_survivor(self, build_table):
        dists = dists_from_rows([(30.0, 0.0, 0.0), (40.0, 0.0, 0.0)], build_table)
        msg = sc.compose(dists, "p4", 35.0, 0.8)
        assert msg.min_end_time == msg.max_end_time == msg.likely_time == 40.0

    def test_field_contract_against_enumeration(self, build_table):
        d4_values = [35.0, 36.0, 38.0, 40.0, 45.5]
        dists = dists_from_rows([(v, 0.0, 0.0) for v in d4_values], build_table)
        msg = sc.compose(dists, "p4", 0.0, 0.8, site_id="s")
        assert msg.start_time == 0.0
        assert msg.min_end_time == min(d4_values)
        assert msg.max_end_time == max(d4_values)
        assert msg.likely_time == pytest.approx(sum(d4_values) / len(d4_values))
        # largest value v with (# samples >= v) / n >= 0.8: v = 36
        assert msg.confidence_value == 36.0
        assert msg.next_time == 120.0  # next p4 green is the next cycle start

    def test_conditioning_moves_fields(self, build_table):
        d4_values = [35.0, 36.0, 38.0, 40.0, 45.5]
        dists = dists_from_rows([(v, 0.0, 0.0) for v in d4_values], build_table)
        msg = sc.compose(dists, "p4", 36.0, 0.8)
        survivors = [v for v in d4_values if v > 36.0]
        assert msg.min_end_time == min(survivors)
        assert msg.max_end_time == max(survivors)
        assert msg.likely_time == pytest.approx(sum(survivors) / len(survivors))

    def test_mid_phase_conditions_the_sum(self, build_table):
        rows = [(36.0, 0.0, 0.0), (36.0, 5.0, 5.0), (41.0, 0.0, 0.0), (41.0, 10.0, 10.0)]
        dists = dists_from_rows(rows, build_table)
        msg = sc.compose(dists, "p1", 38.0, 0.8, phase_start=36.0)
        # sums {36, 41, 41, 51}; survivors past 38 are {41, 41, 51}
        assert msg.likely_time == pytest.approx(133 / 3)
        assert msg.start_time == 36.0

    def test_coordination_phase_ends_at_cycle_length(self, build_table):
        dists = dists_from_rows([(36.0, 5.0, 5.0)] * 2, build_table)
        msg = sc.compose(dists, "p2", 70.0, 0.8, phase_start=41.0)
        assert msg.min_end_time == msg.likely_time == msg.max_end_time == 120.0
        assert msg.next_time == pytest.approx(120.0 + 36.0 + 5.0)

    def test_degraded_when_history_exhausted(self, build_table):
        dists = dists_from_rows([(36.0, 0.0, 0.0)] * 3, build_table)
        msg = sc.compose(dists, "p4", 50.0, 0.8)
        assert msg.degraded
        assert msg.likely_time == 51.0
        assert msg.min_end_time >= msg.made_at
        assert msg.next_time > msg.likely_time

    def test_ring2_phases(self, build_table):
        rows = [(36.0, 5.0, 10.0), (41.0, 5.0, 0.0)]
        dists = dists_from_rows(rows, build_table)
        for phase in ("p8", "p5", "p6"):
            t = {"p8": 10.0, "p5": 42.0, "p6": 80.0}[phase]
            msg = sc.compose(dists, phase, t, 0.8, phase_start=0.0)
            assert msg.phase == phase


class TestFitMessageDists:
    @pytest.mark.parametrize("rows, reason", [
        # Each keeps the barrier identities, yet would break nextTime > likelyTime:
        # p4 likely ends at its next green, L, or p2's next green is the L it ends at.
        ([(120.0, 0.0, 0.0)] * 2, "cycle 0: d4 = 120 s is not below the cycle length 120 s"),
        ([(0.0, 0.0, 0.0)] * 2, "cycle 0: d4+d1 is 0 s in every cycle"),
        ([(36.0, 0.0, 0.0), (120.0, 0.0, 0.0)],
         "cycle 1: d4 = 120 s is not below the cycle length 120 s"),
    ])
    def test_tables_that_cannot_stream_are_rejected(self, build_table, rows, reason):
        table = build_table(rows)
        table.validate()
        text = f"{reason}; cannot stream this table"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            sc.fit_message_dists(table)

    def test_ring_2_is_checked_too(self):
        # d8 = d5 = 0 on ring 2 while ring 1 streams (a lead mismatch fit still loads).
        table = sc.CycleTable.from_columns([0], [0], [120.0], [36.0], [0.0], [84.0],
                                           [0.0], [0.0], [120.0])
        with pytest.raises(ValueError, match=re.escape("cycle 0: d8+d5 is 0 s in every cycle")):
            sc.fit_message_dists(table)

    def test_sum_past_the_middle_phase_next_green_is_rejected(self):
        # Off the barrier identities (fit still loads it): p1 would likely end
        # at 140 s, past its next green at L + mean(d4) = 130 s.
        table = sc.CycleTable.from_columns([0], [0], [120.0], [10.0], [130.0], [0.0],
                                           [10.0], [130.0], [0.0])
        text = ("cycle 0: d4+d1 = 140 s is not below p1's next green, "
                "L + mean(d4) = 130 s; cannot stream this table")
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            sc.fit_message_dists(table)

    @pytest.mark.parametrize("odd", [(100.0, 20.0, 20.0), (119.5, 0.5, 0.5)])
    def test_cycle_with_a_zero_coordination_phase_streams(self, build_table, odd):
        # d2 = d6 = 0 in one cycle: its sum reaches L, but p1 ends before
        # its next green (L + mean(d4)) and p4 before L, so the table streams.
        table = build_table([(36.0, 10.0, 12.0)] * 5 + [odd])
        table.validate()
        out = io.StringIO()
        assert sc.stream(table, sc.fit_message_dists(table), out, cadence_ms=100) == 14400
        for line in out.getvalue().splitlines():
            check_message_line(line)

    def test_same_tables_fail_midway_without_the_check(self, build_table):
        # What the check prevents: the stream raised from its first bad message.
        tables = [build_table(rows) for rows in ([(120.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)])]
        tables.append(sc.CycleTable.from_columns([0], [0], [120.0], [10.0], [130.0], [0.0],
                                                 [10.0], [130.0], [0.0]))
        for table in tables:
            dists = {key: sc.fit(table, key) for key in sc.messages.MESSAGE_DIST_KEYS}
            with pytest.raises(ValueError, match="nextTime must follow likelyTime"):
                sc.stream(table, dists, io.StringIO(), cadence_ms=1000)


class TestNdjson:
    def test_fixed_field_order_and_two_decimals(self, build_table):
        dists = dists_from_rows([(36.0, 0.0, 0.0)] * 2, build_table)
        line = sc.compose(dists, "p4", 7.125, 0.8, site_id="s1").to_ndjson()
        msg = check_message_line(line)
        assert '"madeAt":7.12' in line or '"madeAt":7.13' in line
        assert msg["site"] == "s1"

    def test_parses_as_json(self, build_table):
        dists = dists_from_rows([(36.0, 5.0, 5.0)] * 2, build_table)
        line = sc.compose(dists, "p1", 38.0, 0.8, phase_start=36.0).to_ndjson()
        msg = json.loads(line)
        assert msg["phase"] == "p1"
        assert msg["degraded"] is False


class TestStream:
    def test_tick_count_one_cycle(self, build_table):
        table = build_table([(36.0, 5.0, 5.0)])
        dists = sc.fit_message_dists(table)
        out = io.StringIO()
        emitted = sc.stream(table, dists, out, cadence_ms=100, alpha=0.8)
        lines = out.getvalue().splitlines()
        # 1200 ticks, one message per ring per tick
        assert len(lines) == 2400
        assert emitted == 2400
        assert len({json.loads(l)["madeAt"] for l in lines}) == 1200

    def test_cadence_below_clock_resolution_rejected(self, build_table):
        table = build_table([(36.0, 0.0, 0.0)])
        dists = sc.fit_message_dists(table)
        with pytest.raises(ValueError):
            sc.stream(table, dists, io.StringIO(), cadence_ms=5)

    def test_replay_is_byte_identical(self, build_table):
        table = build_table([(36.0, 0.0, 0.0), (41.0, 5.0, 10.0), (46.0, 10.0, 5.0)])
        dists = sc.fit_message_dists(table)
        a, b = io.StringIO(), io.StringIO()
        sc.stream(table, dists, a, cadence_ms=500, alpha=0.8)
        sc.stream(table, dists, b, cadence_ms=500, alpha=0.8)
        assert a.getvalue() == b.getvalue()

    def test_all_messages_satisfy_invariants(self, build_table):
        table = build_table([(36.0, 0.0, 0.0), (41.0, 5.0, 10.0), (46.0, 10.0, 5.0)])
        dists = sc.fit_message_dists(table)
        out = io.StringIO()
        sc.stream(table, dists, out, cadence_ms=250, alpha=0.8)
        per_phase_made_at = {}
        for line in out.getvalue().splitlines():
            msg = check_message_line(line)
            key = (msg["cycle"], msg["phase"])
            prev = per_phase_made_at.get(key, -1.0)
            assert msg["madeAt"] >= prev
            per_phase_made_at[key] = msg["madeAt"]

    def test_degraded_messages_on_out_of_sample_replay(self, build_table):
        train = build_table([(36.0, 0.0, 0.0)] * 4)
        replay = build_table([(60.0, 0.0, 0.0)])
        dists = sc.fit_message_dists(train)
        out = io.StringIO()
        sc.stream(replay, dists, out, cadence_ms=1000, alpha=0.8)
        msgs = [check_message_line(l) for l in out.getvalue().splitlines()]
        degraded = [m for m in msgs if m["degraded"]]
        assert degraded, "expected degraded messages once history is exhausted"

    def test_cycle_past_stratum_length_holds(self, build_table):
        # 10 ms of clock skew in d2/d6 makes one cycle 120.01 s long: its
        # stratum is still 120 s, so its tick at t = 120.00 holds, per ring.
        rows = [(36.0, 0.0, 0.0), (41.0, 5.0, 10.0), (46.0, 10.0, 5.0)]
        plain = build_table(rows)
        skewed = build_table([rows[0], {"d4": 41.0, "d1": 5.0, "d5": 10.0, "L": 120.01},
                              rows[2]])
        lines = {}
        for name, table in (("plain", plain), ("skewed", skewed)):
            out = io.StringIO()
            sc.stream(table, sc.fit_message_dists(table), out, cadence_ms=500, site_id="t")
            lines[name] = out.getvalue().splitlines()
        held = [
            f'{{"site":"t","cycle":1,"phase":"{phase}","madeAt":120.00,'
            f'"startTime":{start},"minEndTime":121.00,"maxEndTime":121.00,'
            '"likelyTime":121.00,"confidenceAlpha":0.80,"confidenceValue":121.00,'
            '"nextTime":241.00,"degraded":true}'
            for phase, start in (("p2", "46.00"), ("p6", "51.00"))
        ]
        end_of_cycle_1 = 2 * 2 * 240  # two cycles of 240 ticks, two rings
        assert lines["skewed"] == (lines["plain"][:end_of_cycle_1] + held
                                   + lines["plain"][end_of_cycle_1:])
        # The one-shot message at that t holds the same way.
        one_shot = sc.compose(sc.fit_message_dists(skewed), "p2", 120.0, 0.8,
                              site_id="t", cycle_index=1, phase_start=46.0)
        assert one_shot.to_ndjson() == held[0]

    def test_sink_close_terminates_cleanly(self, build_table):
        table = build_table([(36.0, 0.0, 0.0)])
        dists = sc.fit_message_dists(table)

        class ClosingSink:
            def __init__(self, limit):
                self.limit = limit
                self.lines = 0

            def write(self, _):
                if self.lines >= self.limit:
                    raise SinkClosed("sink full")
                self.lines += 1

        sink = ClosingSink(37)
        emitted = sc.stream(table, dists, sink, cadence_ms=100)
        assert emitted == 37

    def test_golden_stream(self, build_table):
        table = build_table([(36.0, 0.0, 0.0), (41.0, 5.0, 10.0), (46.0, 10.0, 0.0)])
        dists = sc.fit_message_dists(table)
        out = io.StringIO()
        sc.stream(table, dists, out, cadence_ms=5000, alpha=0.8, site_id="golden")
        import pathlib
        golden = pathlib.Path(__file__).parent / "data" / "golden_stream.ndjson"
        assert out.getvalue() == golden.read_text(encoding="utf-8")


duration_rows = st.lists(
    st.tuples(
        st.integers(3600, 6000).map(lambda v: v / 100),
        st.integers(0, 2500).map(lambda v: v / 100),
        st.integers(0, 2500).map(lambda v: v / 100),
    ),
    min_size=1, max_size=5,
)


def table_of(rows, skew_at=None):
    """A contiguous 120 s table from (d4, d1, d5) rows, d8 = d4; cycle
    ``skew_at`` (if any) runs 10 ms past its stratum's L, as clock skew does."""
    records = []
    t_ms = 0
    for i, (d4, d1, d5) in enumerate(rows):
        length = 120.01 if i == skew_at else 120.0
        d2 = length - d4 - d1
        d6 = d1 + d2 - d5
        records.append(sc.CycleRecord(i, t_ms, length, d4=d4, d1=d1, d2=d2,
                                      d8=d4, d5=d5, d6=d6))
        t_ms += int(round(length * 1000))
    return sc.CycleTable(tuple(records))


@settings(max_examples=40, deadline=None)
@given(duration_rows, st.floats(0.05, 0.95), st.integers(0, 119))
# Three equal d4+d5 sums, whose float mean falls an ulp below their value.
@example([(41.12, 0.0, 11.12)] * 3, 0.5, 0)
def test_composed_messages_always_ordered(rows, alpha, t_int):
    dists = sc.fit_message_dists(table_of(rows))
    t = float(t_int)
    for phase in sc.PHASES:
        msg = sc.compose(dists, phase, t, alpha)
        assert msg.start_time <= msg.min_end_time <= msg.likely_time <= msg.max_end_time
        assert msg.min_end_time >= msg.made_at
        assert msg.next_time > msg.likely_time
        if msg.degraded:
            with pytest.raises(sc.EmptyCondition):
                sc.predict_schedule(dists, phase, t)
            continue
        assert (msg.likely_time, msg.next_time) == sc.predict_schedule(dists, phase, t)


def _active_phase(rec, ring, t):
    """(phase, realized start offset) active on a ring at cycle time t."""
    if ring == 1:
        if t < rec.d4:
            return "p4", 0.0
        if t < rec.d4 + rec.d1:
            return "p1", rec.d4
        return "p2", rec.d4 + rec.d1
    if t < rec.d8:
        return "p8", 0.0
    if t < rec.d8 + rec.d5:
        return "p5", rec.d8
    return "p6", rec.d8 + rec.d5


def _reference_stream(table, dists, out, *, cadence_ms, alpha, site_id):
    """The stream one record and one SpatMessage at a time, ring phases by name."""
    emitted = 0
    for rec in table.records:
        for t_ms in range(0, int(round(rec.length_s * 1000)), cadence_ms):
            t = t_ms / 1000.0
            for ring in (1, 2):
                phase, phase_start = _active_phase(rec, ring, t)
                min_end, max_end, likely, conf, next_time, degraded = _conditional_stats(
                    dists, phase, t, alpha)
                msg = sc.SpatMessage(
                    site_id=site_id, cycle_index=rec.cycle_index, phase=phase,
                    made_at=t, start_time=phase_start, min_end_time=min_end,
                    max_end_time=max_end, likely_time=likely, confidence_alpha=alpha,
                    confidence_value=conf, next_time=next_time, degraded=degraded,
                )
                try:
                    out.write(msg.to_ndjson() + "\n")
                except SinkClosed:
                    return emitted
                emitted += 1
    return emitted


class _ClosingSink:
    """Keeps what it is given, and closes after ``limit`` writes."""

    def __init__(self, limit):
        self.limit, self.lines = limit, []

    def write(self, text):
        if len(self.lines) >= self.limit:
            raise SinkClosed("sink full")
        self.lines.append(text)


@settings(max_examples=25, deadline=None)
@given(duration_rows, st.none() | st.integers(0, 4), st.sampled_from([500, 1000, 5000]),
       st.floats(0.05, 0.95), st.integers(0, 2000))
# A tick on each phase boundary: d4 = 40.0 and d4 + d1 = 45.5 at 500 ms, and
# zero-length middle phases (d5 = 0 here, d1 = 0 in the second cycle).
@example([(40.0, 5.5, 0.0), (36.5, 0.0, 12.5)], None, 500, 0.8, 700)
@example([(40.0, 0.0, 0.0)], 0, 500, 0.5, 0)
def test_stream_lines_equal_composed_messages(rows, skew_at, cadence_ms, alpha, close_after):
    table = table_of(rows, skew_at)
    dists = sc.fit_message_dists(table)
    out, ref = io.StringIO(), io.StringIO()
    opts = {"cadence_ms": cadence_ms, "alpha": alpha, "site_id": "t"}
    emitted = sc.stream(table, dists, out, **opts)
    assert emitted == _reference_stream(table, dists, ref, **opts)
    assert out.getvalue() == ref.getvalue()
    # A sink that closes stops both at the same line.
    sink, ref_sink = _ClosingSink(close_after), _ClosingSink(close_after)
    assert (sc.stream(table, dists, sink, **opts)
            == _reference_stream(table, dists, ref_sink, **opts)
            == min(close_after, emitted))
    assert sink.lines == ref_sink.lines
    for line in out.getvalue().splitlines():
        msg = json.loads(line)
        rec = table.records[msg["cycle"]]
        phase_start = {"p4": 0.0, "p1": rec.d4, "p2": rec.d4 + rec.d1,
                       "p8": 0.0, "p5": rec.d8, "p6": rec.d8 + rec.d5}[msg["phase"]]
        one_shot = sc.compose(dists, msg["phase"], msg["madeAt"], alpha, site_id="t",
                              cycle_index=msg["cycle"], phase_start=phase_start)
        assert one_shot.to_ndjson() == line


class _FakeClock:
    """Stands in for the time module: monotonic reads the clock, and sleep
    advances it.  Start, pace and costs are binary fractions, so every sum
    is exact."""

    def __init__(self, now):
        self.now, self.sleeps = now, []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class _TimedSink:
    """Keeps each line and the clock's time at its write, which then costs
    the next of ``costs`` seconds."""

    def __init__(self, clock, costs):
        self.clock, self.costs, self.lines, self.at = clock, costs, [], []

    def write(self, text):
        self.at.append(self.clock.now)
        self.clock.now += self.costs[len(self.lines)]
        self.lines.append(text)


class _NoClock:
    def __getattr__(self, name):
        raise AssertionError(f"time.{name} read")


@settings(max_examples=40, deadline=None)
@given(duration_rows, st.sampled_from([0.5, 1.0, 10.0]), st.integers(0, 10**6), st.data())
def test_paced_stream_keeps_the_signal_clock(rows, speed, start, data):
    table = table_of(rows)
    dists = sc.fit_message_dists(table)
    plain = io.StringIO()
    with patch.object(spatcast.messages, "time", _NoClock()):  # speed=None reads no clock
        lines = sc.stream(table, dists, plain, cadence_ms=5000)
    ticks = lines // 2  # one line per ring a tick
    pace = 5.0 / speed
    # Each write costs up to a quarter pace, and one drawn tick's first
    # write up to three paces more, which makes the ticks after it late.
    costs = data.draw(st.lists(st.integers(0, 4).map(lambda q: q * pace / 16),
                               min_size=lines, max_size=lines))
    costs[2 * data.draw(st.integers(0, ticks - 1))] += data.draw(st.integers(0, 48)) * pace / 16
    clock = _FakeClock(float(start))
    sink = _TimedSink(clock, costs)
    with patch.object(spatcast.messages, "time", clock):
        assert sc.stream(table, dists, sink, cadence_ms=5000, speed=speed) == lines
    assert "".join(sink.lines) == plain.getvalue()  # no tick skipped, same bytes
    # Tick k goes out at its due time, start + k paces, or, when the ticks
    # before ran late, as soon as they are done; only an early tick sleeps.
    work = [costs[2 * k] + costs[2 * k + 1] for k in range(ticks)]
    done = start
    for k in range(ticks):
        assert sink.at[2 * k] == max(start + k * pace, done)
        done = sink.at[2 * k] + work[k]
    assert clock.now == max(start + ticks * pace, done)
    assert clock.now <= start + ticks * pace + max(work)
    assert all(seconds > 0 for seconds in clock.sleeps)
