import csv
import importlib
import io
import math
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spatcast as sc
from conftest import event_log, log_columns
from spatcast.cli import main
from spatcast.cycles import (
    _EVENT_HEADER,
    _INT64_MAX,
    _INT64_MIN,
    DURATION_KEY,
    MS_PER_DAY,
    RING_SEQUENCE,
)
from spatcast.ioutil import text_sink
from spatcast.simulate import _POISSON_LAM_MAX, _first_ms


def flat_demand(side=0.0, left=0.0, seed=0):
    return sc.DemandProfile(
        side_street_rate=((0.0, 24.0, side),),
        left_turn_rate=((0.0, 24.0, left),),
        rng_seed=seed,
    )


class TestExtensionRule:
    def test_no_actuations_gives_minimum_greens(self):
        assert sc.ring1_durations(sc.TimingPlan(), 120.0, 0, 0) == (36.0, 0.0, 84.0)

    def test_two_side_one_left(self):
        d4, d1, d2 = sc.ring1_durations(sc.TimingPlan(), 120.0, 2, 1)
        assert (d4, d1, d2) == (46.0, 5.0, 69.0)
        assert d4 + d1 + d2 == 120.0

    def test_caps_bind(self):
        plan = sc.TimingPlan()
        d4, d1, d2 = sc.ring1_durations(plan, 120.0, 50, 50)
        assert d4 == plan.max_d4
        assert d1 == plan.max_d1


class TestSimulate:
    def test_zero_demand_is_fixed_time(self):
        table = sc.simulate(sc.TimingPlan(), flat_demand(), 20)
        assert all(r.d4 == 36.0 and r.d1 == 0.0 and r.d2 == 84.0 for r in table)
        assert all(r.d8 == 36.0 and r.d5 == 0.0 and r.d6 == 84.0 for r in table)

    def test_zero_demand_distributions_are_point_masses(self):
        table = sc.simulate(sc.TimingPlan(), flat_demand(), 30)
        for quantity in ("d4", "d1", "d4+d1"):
            values, probs = sc.fit(table, quantity).pdf()
            assert values.size == 1
            assert probs.tolist() == [1.0]

    def test_deterministic_given_seed(self):
        plan, demand = sc.TimingPlan(), sc.peaked_demand(42)
        a = sc.simulate(plan, demand, 300)
        b = sc.simulate(plan, demand, 300)
        assert a.records == b.records
        c = sc.simulate(plan, sc.peaked_demand(43), 300)
        assert c.records != a.records

    def test_barrier_identities_exact(self):
        table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(3), 500)
        lengths = table.cycle_lengths()
        assert np.all(table.column("d4") + table.column("d1") + table.column("d2") == lengths)
        assert np.all(table.column("d8") + table.column("d5") + table.column("d6") == lengths)
        assert np.all(table.column("d4") == table.column("d8"))
        assert np.all(table.column("d1") + table.column("d2")
                      == table.column("d5") + table.column("d6"))

    def test_peaked_demand_shape(self):
        table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(1), 3000)
        dist = sc.fit(table, "d4")
        values, probs = dist.pdf()
        assert values[0] == 36.0
        assert probs[0] == probs.max()  # atom at the minimum green
        assert dist.support_max() > 36.0  # with a decaying tail above it

    def test_start_beyond_int64_rejected(self):
        start = 2**63 - 100_000  # the second cycle starts past int64
        with pytest.raises(ValueError, match=f"^cycle_start_ms {start + 120_000} does not fit in int64$"):
            sc.simulate(sc.TimingPlan(), flat_demand(), 2, start_ms=start)

    def test_infeasible_caps_rejected(self):
        plan = sc.TimingPlan(max_d4=100.0, max_d1=25.0)
        with pytest.raises(sc.InfeasiblePlan):
            sc.simulate(plan, flat_demand(), 1)

    def test_schedule_switches_cycle_length(self):
        plan = sc.TimingPlan(schedule=((0.0, 12.0, 120.0), (12.0, 24.0, 100.0)))
        n_half_day = 43_200 // 120
        table = sc.simulate(plan, flat_demand(), n_half_day + 5)
        lengths = set(table.cycle_lengths().tolist())
        assert lengths == {120.0, 100.0}

    def test_plan_invariants(self):
        with pytest.raises(ValueError):
            sc.TimingPlan(min_green_p4=100.0)  # leaves no coordination time
        with pytest.raises(ValueError):
            sc.TimingPlan(extension=0.0)
        with pytest.raises(ValueError):
            sc.DemandProfile(side_street_rate=((0.0, 24.0, -1.0),))
        # Library callers get the field's own check; a config file names its line.
        with pytest.raises(ValueError, match=r"^rng_seed must be >= 0, got -3$"):
            sc.DemandProfile(rng_seed=-3)

    @pytest.mark.parametrize("kwargs, message", [
        ({"schedule": ((0.0, 24.0, math.nan),)}, "schedule: cycle length must be finite, got nan"),
        ({"schedule": ((0.0, 12.0, 120.0), (12.0, 24.0, math.inf))},
         "schedule: cycle length must be finite, got inf"),
        ({"extension": math.nan}, "extension must be finite, got nan"),
        ({"min_green_p4": math.inf}, "min_green_p4 must be finite, got inf"),
        ({"max_d4": -math.inf}, "max_d4 must be finite, got -inf"),
        ({"max_d1": math.nan}, "max_d1 must be finite, got nan"),
        # Once an OverflowError out of simulate's millisecond clock.
        ({"schedule": ((0.0, 24.0, 1e308),)},
         "schedule: cycle length must be finite in ms, got 1e+308 s"),
    ])
    def test_non_finite_plan_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sc.TimingPlan(**kwargs)

    @pytest.mark.parametrize("name", ["side_street_rate", "left_turn_rate"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, name, rate):
        with pytest.raises(ValueError, match=f"^{name}: rates must be finite, got {rate}$"):
            sc.DemandProfile(**{name: ((0.0, 6.0, 0.5), (6.0, 24.0, rate))})


class TestEmitEvents:
    def test_twelve_events_per_cycle(self, build_table):
        events = sc.emit_events(build_table([(36, 0, 0)]))
        assert len(events) == 12
        starts = events.step % 2 == 0
        assert starts.sum() == (~starts).sum() == 6

    def test_empty_table_empty_stream(self):
        assert len(sc.emit_events(sc.CycleTable(()))) == 0

    def test_simulate_round_trip(self):
        table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(9), 100)
        back = sc.ingest_events(sc.emit_events(table))
        assert len(back) == len(table)
        for name in ("d4", "d1", "d2", "d8", "d5", "d6"):
            np.testing.assert_allclose(back.column(name), table.column(name), atol=1e-3)


class TestConfig:
    def test_every_key_parsed(self):
        text = (
            "schedule = 0-7@110, 7-24@120\n"
            "min_green_p4 = 30\n"
            "extension = 4.5\n"
            "max_d4 = 55\n"
            "max_d1 = 20\n"
            "side_street_rate = 0-6@0.2, 6-10@3, 10-16@0.8, 16-19@3.5, 19-24@0.3\n"
            "left_turn_rate = 0-6@0.1, 6-10@1.2, 10-16@0.4, 16-19@1.5, 19-24@0.2\n"
            "seed = 11\n"
            "start_ms = 86400000\n"
        )
        assert sc.parse_config(text) == sc.SimulationConfig(
            plan=sc.TimingPlan(schedule=((0.0, 7.0, 110.0), (7.0, 24.0, 120.0)),
                               min_green_p4=30.0, extension=4.5, max_d4=55.0, max_d1=20.0),
            demand=sc.peaked_demand(11),
            start_ms=86_400_000,
        )

    def test_defaults_and_comments(self):
        cfg = sc.parse_config("# comment only\nseed = 5\n")
        assert cfg.plan == sc.TimingPlan()
        assert cfg.demand.rng_seed == 5
        assert cfg.start_ms == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            sc.parse_config("bogus = 1\n")

    def test_malformed_segment_rejected(self):
        with pytest.raises(ValueError):
            sc.parse_config("schedule = 0-24\n")

    @pytest.mark.parametrize("text, message", [
        ("seed = 1e3\n", "line 1: seed: invalid literal for int() with base 10: '1e3'"),
        ("# plan\n\nextension = five\n",
         "line 3: extension: could not convert string to float: 'five'"),
        ("max_d4 = 50\nschedule = 0-24@x\n",
         "line 2: schedule: could not convert string to float: 'x'"),
        ("start_ms = 1.5\n", "line 1: start_ms: invalid literal for int() with base 10: '1.5'"),
        ("# plan\nseed = -1\n", "line 2: seed: must be >= 0, got -1"),
    ])
    def test_bad_number_names_key_and_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sc.parse_config(text)

    @pytest.mark.parametrize("text, message", [
        # Each of these once made simulate loop forever or blame d2.
        ("schedule = 0-24@nan\n", "schedule: cycle length must be finite, got nan"),
        ("schedule = 0-24@inf\n", "schedule: cycle length must be finite, got inf"),
        ("extension = nan\n", "extension must be finite, got nan"),
        ("left_turn_rate = 0-24@nan\n", "left_turn_rate: rates must be finite, got nan"),
    ])
    def test_non_finite_config_rejected(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sc.parse_config(text)

    @pytest.mark.parametrize("text, message", [
        # Each of these once blamed d4 or d1, or simulated d4 below its minimum.
        ("min_green_p4 = -50\n", "min_green_p4 must be >= 0, got -50.0"),
        ("max_d1 = -5\n", "max_d1 must be >= 0, got -5.0"),
        ("max_d4 = 10\n",
         "max_d4 must be >= min_green_p4, got max_d4 = 10.0 < min_green_p4 = 36.0"),
    ])
    def test_contradictory_plan_config_exits_1(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        rc = main(["simulate", "--cycles", "20", "--config", str(cfg),
                   "-o", str(tmp_path / "c.csv")])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sc.parse_config(text)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 40))
def test_simulated_tables_always_satisfy_barrier_identities(seed, n_cycles):
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(seed), n_cycles)
    table.validate(tolerance=0.0)


# ---------------------------------------------------------------------------
# emit_events and write_event_csv against the per-record code they replaced


def _reference_emit_events(table):
    """The per-record emit_events, kept as the oracle; ``getattr`` stands in
    for the deleted ``CycleRecord.duration``.  Events are (timestamp_ms,
    ring, phase, kind) tuples."""
    events = []
    for rec in table:
        for ring, seq in RING_SEQUENCE.items():
            elapsed = 0.0
            for phase in seq:
                dur = getattr(rec, DURATION_KEY[phase])
                start_ms = rec.cycle_start_ms + int(round(elapsed * 1000))
                end_ms = rec.cycle_start_ms + int(round((elapsed + dur) * 1000))
                events.append((start_ms, ring, phase, "start"))
                events.append((end_ms, ring, phase, "end"))
                elapsed += dur
    events.sort(key=lambda ev: ev[0])  # stable: per-ring order kept
    return events


def _reference_write_event_csv(events, target):
    """The csv.writer event writer, kept as the oracle for write_event_csv."""
    with text_sink(target) as f:
        w = csv.writer(f)
        w.writerow(_EVENT_HEADER)
        w.writerows(events)


def _fits_int64(table):
    try:  # an infinite time has no int: round raises OverflowError
        events = _reference_emit_events(table)
    except OverflowError:
        return False
    return all(_INT64_MIN <= ev[0] <= _INT64_MAX for ev in events)


# Durations: zero, on the 0.01 s grid, any float, on a half millisecond
# (where rounding ties go to even), and now and then large enough to push
# an event time past int64.
_duration = st.one_of(
    st.just(0.0),
    st.integers(0, 9000).map(lambda c: c / 100),
    st.floats(0, 200),
    st.integers(0, 200_000).map(lambda h: h / 2000),
    st.sampled_from([1e9, 4.6e15, 1e16, 1e300, 1.7e308]),
)


@st.composite
def _emit_tables(draw):
    """Tables of up to six cycles with any valid durations: starts strictly
    increase from anywhere in int64, by gaps that may be shorter than a
    cycle, so one cycle's events can fall among the next one's."""
    n = draw(st.integers(0, 6))
    first = draw(st.one_of(
        st.sampled_from([0, -5_000, _INT64_MIN, _INT64_MAX - 10**6, _INT64_MAX - 100_000]),
        st.integers(_INT64_MIN, _INT64_MAX - 10**7),
    ))
    gaps = draw(st.lists(st.sampled_from([1, 10, 36_000, 120_000]), min_size=n, max_size=n))
    starts = [first + sum(gaps[:i]) for i in range(n)]
    assume(all(s <= _INT64_MAX for s in starts))
    lengths = draw(st.lists(st.sampled_from([100.0, 120.0, 100.35, 0.001]), min_size=n,
                            max_size=n))
    durations = draw(st.lists(st.tuples(*[_duration] * 6), min_size=n, max_size=n))
    return sc.CycleTable.from_columns(
        range(n), starts, lengths, *zip(*durations) if n else [()] * 6
    )


@settings(max_examples=300, deadline=None)
@given(_emit_tables())
@example(sc.CycleTable.from_columns(  # the last event lands exactly on the int64 maximum
    [0], [_INT64_MAX - 120_000], [120.0], [36.0], [5.0], [79.0], [36.0], [5.0], [79.0]
))
@example(sc.CycleTable.from_columns(  # one millisecond past it
    [0], [_INT64_MAX - 119_999], [120.0], [36.0], [5.0], [79.0], [36.0], [5.0], [79.0]
))
@example(sc.CycleTable.from_columns(  # from the minimum, an offset past 2**63 still fits
    [0], [_INT64_MIN], [120.0], [1e16], [0.0], [0.0], [0.0], [0.0], [0.0]
))
def test_emit_events_matches_per_record_loop(table):
    bad = next((i for i, rec in enumerate(table) if not _fits_int64(sc.CycleTable([rec]))), None)
    if bad is not None:
        with pytest.raises(ValueError, match=f"^cycle {bad}: .* does not fit in int64$"):
            sc.emit_events(table)
        return
    want = _reference_emit_events(table)
    log = sc.emit_events(table)
    assert log_columns(log) == log_columns(event_log(want))
    assert [col.dtype for col in (log.timestamp_ms, log.ring, log.step)] == [
        np.int64, np.int8, np.int8
    ]
    got_csv, want_csv = io.StringIO(), io.StringIO()
    sc.write_event_csv(log, got_csv)
    _reference_write_event_csv(want, want_csv)
    assert got_csv.getvalue().encode() == want_csv.getvalue().encode()


@pytest.mark.parametrize("start, d4", [
    (_INT64_MAX - 1000, 1.5),  # a start near the int64 maximum
    (0, 1e300),  # a finite duration far past it
    (0, 1.7e308),  # a duration whose milliseconds overflow to inf
])
def test_emit_events_rejects_times_past_int64(start, d4):
    table = sc.CycleTable.from_columns(
        [0, 7], [-10**6, start], [120.0] * 2, [36.0, d4], [0.0] * 2, [84.0] * 2,
        [36.0] * 2, [0.0] * 2, [84.0] * 2,
    )
    with pytest.raises(ValueError, match=f"^cycle 7: an event time after its start {start} ms "
                                         "does not fit in int64$"):
        sc.emit_events(table)


def test_event_log_is_the_only_form_ingest_takes(build_table):
    log = sc.emit_events(build_table([(36, 5, 5)]))
    columns = [log.timestamp_ms.tolist(), log.ring.tolist(), log.step.tolist()]
    with pytest.raises(TypeError, match="^expected an EventLog, got list$"):
        sc.ingest_events(list(zip(*columns)))
    assert sc.ingest_events(sc.EventLog(*columns)) == sc.ingest_events(log)


def test_d6_rounding_to_zero_raises_instead_of_redrawing():
    # The plan's caps leave d6 a margin of one ulp at L, so only float
    # rounding of ring 1's split can take it to 0; pin ring 1 to one such
    # split (d1 = 1.1 * 11) and let every left-turn draw cap d5 at 80.
    length = math.nextafter(100.0, math.inf)
    plan = sc.TimingPlan(schedule=((0.0, 24.0, length),), min_green_p4=20.0, max_d4=20.0,
                         extension=1.1, max_d1=80.0)
    split = sc.ring1_durations(plan, length, 0, 11)
    module = importlib.import_module("spatcast.simulate")  # sc.simulate is the function
    with patch.object(module, "ring1_durations", return_value=split):
        with pytest.raises(sc.InfeasiblePlan,
                           match=f"^coordination phase d6 = 0.0 <= 0 at L = {length}$"):
            sc.simulate(plan, flat_demand(left=1000.0), 3)


def test_d6_rounding_to_zero_reached_by_drawn_counts():
    # The same one-ulp margin without a patch: an extension of 1.1 * 11
    # makes a count of 1 such a split, and a count of 7 or more caps d5.
    # Seed 1 draws a 1 and then a count of 7 or more in one of 50 cycles.
    length = math.nextafter(100.0, math.inf)
    plan = sc.TimingPlan(schedule=((0.0, 24.0, length),), min_green_p4=20.0, max_d4=20.0,
                         extension=1.1 * 11, max_d1=80.0)
    with pytest.raises(sc.InfeasiblePlan,
                       match=f"^coordination phase d6 = 0.0 <= 0 at L = {length}$"):
        sc.simulate(plan, flat_demand(left=3.0, seed=1), 50)


# ---------------------------------------------------------------------------
# simulate against the per-cycle loop it replaced


def _segment_value(segments, hour):
    for start, end, value in segments:
        if start <= hour < end:
            return value
    return segments[-1][2]


def _reference_simulate(plan, demand, n_cycles, *, start_ms=0):
    """The per-cycle simulate, kept as the oracle: three scalar Poisson
    draws and the extension rule one cycle at a time."""
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    for _, _, length in plan.schedule:
        if length - plan.max_d4 - plan.max_d1 <= 0:
            raise sc.InfeasiblePlan(
                f"caps leave d2 <= 0 at L = {length}: "
                f"max_d4 + max_d1 = {plan.max_d4 + plan.max_d1}"
            )
    rng = np.random.default_rng(demand.rng_seed)
    starts, lengths, durations = [], [], []
    t_ms = start_ms
    for i in range(n_cycles):
        hour = (t_ms % MS_PER_DAY) / 3_600_000.0
        length = _segment_value(plan.schedule, hour)
        left_rate = _segment_value(demand.left_turn_rate, hour)
        side = int(rng.poisson(_segment_value(demand.side_street_rate, hour)))
        left = int(rng.poisson(left_rate))
        d4 = min(plan.min_green_p4 + plan.extension * side, plan.max_d4)
        d1 = min(plan.extension * left, plan.max_d1)
        d2 = length - d4 - d1
        d5 = min(plan.extension * int(rng.poisson(left_rate)), plan.max_d1)
        d6 = d1 + d2 - d5
        if not d6 > 0:
            raise sc.InfeasiblePlan(f"coordination phase d6 = {d6!r} <= 0 at L = {length}")
        starts.append(t_ms)
        lengths.append(length)
        durations.append((d4, d1, d2, d4, d5, d6))
        t_ms += int(round(length * 1000))
    return sc.CycleTable.from_columns(range(n_cycles), starts, lengths, *zip(*durations))


def _outcome(fn, *args, **kwargs):
    """A table's column dtypes and bits, or the type and text of the error."""
    try:
        table = fn(*args, **kwargs)
    except (ValueError, sc.InfeasiblePlan) as exc:
        return type(exc).__name__, str(exc)
    return [(col.dtype.str, col.tobytes()) for col in
            (getattr(table, name) for name in ("cycle_index", "cycle_start_ms", "length_s",
                                               "d4", "d1", "d2", "d8", "d5", "d6"))]


_HOUR = 3_600_000.0
# Segment edges: any hour, a whole or half one, one that falls on a
# millisecond, and the floats either side of such an edge.
_edge = st.one_of(
    st.floats(0, 24, exclude_min=True, exclude_max=True),
    st.integers(1, 47).map(lambda h: h / 2),
    st.integers(1, MS_PER_DAY - 1).map(lambda ms: ms / _HOUR),
    st.tuples(st.integers(1, MS_PER_DAY - 1), st.sampled_from([-math.inf, math.inf])).map(
        lambda e: math.nextafter(e[0] / _HOUR, e[1])),
)


def _segments(value):
    """Zero to three edges inside the day, and one drawn value per segment."""
    @st.composite
    def segments(draw):
        edges = sorted(draw(st.sets(_edge, max_size=3)))
        hours = [0.0, *edges, 24.0]
        return tuple((a, b, draw(value)) for a, b in zip(hours, hours[1:]))
    return segments()


_rate = st.one_of(st.floats(0, 6), st.sampled_from([0.0, 3.0, 40.0, 1e19]))


@st.composite
def _simulations(draw):
    """Plans with caps, signed zeros and lengths of any step, from 0 ms to
    past a day, rate segments, seeds and starts anywhere in or past int64."""
    min_green = draw(st.one_of(st.sampled_from([0.0, 20.0, 36.0]), st.floats(0, 60)))
    max_d1 = draw(st.one_of(st.sampled_from([0.0, -0.0, 25.0, 80.0]), st.floats(0, 40)))
    max_d4 = min_green + draw(st.one_of(st.sampled_from([0.0, 24.0]), st.floats(0, 40)))
    extension = draw(st.one_of(st.sampled_from([5.0, 1.1 * 11, 0.001]), st.floats(0.01, 20)))
    length = st.one_of(
        st.sampled_from([0.0004, 100.0, math.nextafter(100.0, math.inf), 100.35, 120.0,
                         3600.5, 90_000.0, 1e15]),
        st.floats(min_green + max_d1, min_green + max_d1 + 200),
    )
    try:
        plan = sc.TimingPlan(schedule=draw(_segments(length)), min_green_p4=min_green,
                             extension=extension, max_d4=max_d4, max_d1=max_d1)
    except ValueError:
        assume(False)
    demand = sc.DemandProfile(draw(_segments(_rate)), draw(_segments(_rate)),
                              rng_seed=draw(st.integers(0, 2**70)))
    edges = [start for segments in (plan.schedule, demand.side_street_rate,
                                    demand.left_turn_rate) for start, _, _ in segments]
    start_ms = draw(st.one_of(
        st.integers(-10**12, 10**12),
        st.tuples(st.sampled_from(edges), st.integers(-3, 400), st.integers(-1, 1)).map(
            lambda e: e[1] * MS_PER_DAY + round(e[0] * _HOUR) + e[2]),  # on a segment edge
        st.tuples(st.integers(-3, 400), st.integers(-600_000, 600_000)).map(
            lambda d: d[0] * MS_PER_DAY + d[1]),  # around midnight
        st.integers(0, 10**7).map(lambda k: _INT64_MAX - k),
        st.integers(0, 10**7).map(lambda k: _INT64_MIN - k),
        st.integers(-(2**70), 2**70),
    ))
    return plan, demand, start_ms


_D6_PLAN = sc.TimingPlan(schedule=((0.0, 24.0, math.nextafter(100.0, math.inf)),),
                         min_green_p4=20.0, max_d4=20.0, extension=1.1 * 11, max_d1=80.0)


@settings(max_examples=400, deadline=None)
@given(_simulations(), st.integers(1, 60))
@example(  # a cap of -0.0: min keeps a 0.0 green, where numpy's minimum gives -0.0
    (sc.TimingPlan(max_d1=-0.0), flat_demand(left=0.5), 0), 50)
@example(  # the second start lies past int64
    (sc.TimingPlan(), flat_demand(), 2**63 - 100_000), 2)
@example(  # a start past int64 fails as a start, not an OverflowError
    (sc.TimingPlan(), flat_demand(), 2**63), 3)
@example(  # d6 rounds to 0 before a later segment's rate is too large to draw
    (_D6_PLAN, sc.DemandProfile(((0.0, 12.0, 0.0), (12.0, 24.0, 1e19)), ((0.0, 24.0, 3.0),), 1),
     12 * 3_600_000 - 50 * 100_000), 60)
@example(  # a 0 ms step: every cycle starts at once
    (sc.TimingPlan(schedule=((0.0, 24.0, 0.0004),), min_green_p4=0.0, max_d4=0.0, max_d1=0.0),
     flat_demand(), 0), 3)
@example(  # two plans and three rate segments on both sides of midnight
    (sc.TimingPlan(schedule=((0.0, 6.0, 100.0), (6.0, 24.0, 120.0))), sc.peaked_demand(3),
     MS_PER_DAY - 300_000), 400)
@example(  # hour * 3_600_000 rounds down onto 21,600,004 ms, which still lies before the edge
    (sc.TimingPlan(schedule=((0.0, math.nextafter(21_600_004 / _HOUR, math.inf), 100.0),
                             (math.nextafter(21_600_004 / _HOUR, math.inf), 24.0, 120.0))),
     flat_demand(), 21_600_004), 2)
def test_simulate_matches_per_cycle_loop(simulation, n_cycles):
    plan, demand, start_ms = simulation
    assert (_outcome(sc.simulate, plan, demand, n_cycles, start_ms=start_ms)
            == _outcome(_reference_simulate, plan, demand, n_cycles, start_ms=start_ms))


@settings(max_examples=300, deadline=None)
@given(_edge)
@example(math.nextafter(21_600_004 / _HOUR, math.inf))
@example(24.0)
def test_first_ms_is_the_first_millisecond_at_or_past_the_hour(hour):
    ms = _first_ms(hour)
    assert 0 <= ms <= MS_PER_DAY
    assert ms == MS_PER_DAY or ms / _HOUR >= hour
    assert ms == 0 or (ms - 1) / _HOUR < hour


def test_poisson_rate_bound_is_numpys():
    rng = np.random.default_rng(0)
    rng.poisson(_POISSON_LAM_MAX)
    with pytest.raises(ValueError, match="^lam value too large$"):
        rng.poisson(np.nextafter(_POISSON_LAM_MAX, np.inf))


# ---------------------------------------------------------------------------
# The whole pipeline: simulate -> events -> CSV -> ingest -> cycle CSV


@st.composite
def _grid_plans(draw):
    """Plans and demands whose numbers sit on the 0.01 s grid, with one to
    three time-of-day segments, and a start a few cycles before a switch."""
    cents = lambda lo, hi: st.integers(lo, hi).map(lambda c: c / 100)  # noqa: E731
    min_green = draw(cents(0, 5000))
    max_d4 = min_green + draw(cents(0, 3000))
    max_d1 = draw(cents(0, 3000))
    bounds = sorted(draw(st.sets(st.integers(1, 23), max_size=2)))
    hours = [0, *bounds, 24]
    schedule = tuple(
        (float(a), float(b), max_d4 + max_d1 + draw(cents(1, 6000)))
        for a, b in zip(hours, hours[1:])
    )
    plan = sc.TimingPlan(schedule=schedule, min_green_p4=min_green, extension=draw(cents(1, 1000)),
                         max_d4=max_d4, max_d1=max_d1)
    rate = st.floats(0, 5).map(lambda r: ((0.0, 24.0, r),))
    demand = sc.DemandProfile(draw(rate), draw(rate), rng_seed=draw(st.integers(0, 2**32)))
    start_ms = hours[-2] * 3_600_000 - draw(st.integers(0, 600_000))
    return plan, demand, start_ms


@settings(max_examples=60, deadline=None)
@given(_grid_plans(), st.integers(1, 40))
def test_pipeline_through_event_csv_matches_cycle_csv(planned, n_cycles):
    plan, demand, start_ms = planned
    table = sc.simulate(plan, demand, n_cycles, start_ms=start_ms)
    with tempfile.TemporaryDirectory() as tmp:
        events_csv, cycles_csv = Path(tmp) / "events.csv", Path(tmp) / "cycles.csv"
        sc.write_event_csv(sc.emit_events(table), events_csv)
        sc.write_cycle_csv(table, cycles_csv)
        got = sc.ingest_events(sc.read_event_csv(events_csv))
        want = sc.read_cycle_csv(cycles_csv)
    assert got == want
    if len(set(table.length_s.tolist())) == 1:  # a table that mixes plans does not stream
        assert _stream_outcome(got) == _stream_outcome(want)


def _stream_outcome(table):
    """The bytes ``stream`` writes, and the error that ends it if any: an L
    off the 0.1 s grid (100.03 s) stops it at t = 100 s."""
    out = io.StringIO()
    try:
        sc.stream(table, sc.fit_message_dists(table), out, cadence_ms=1000)
    except ValueError as exc:
        return out.getvalue().encode(), str(exc)
    return out.getvalue().encode(), None
