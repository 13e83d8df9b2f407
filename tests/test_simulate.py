import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatcast as sc
from spatcast.cli import main


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"schedule": ((0.0, 24.0, math.nan),)}, "schedule: cycle length must be finite, got nan"),
        ({"schedule": ((0.0, 12.0, 120.0), (12.0, 24.0, math.inf))},
         "schedule: cycle length must be finite, got inf"),
        ({"extension": math.nan}, "extension must be finite, got nan"),
        ({"min_green_p4": math.inf}, "min_green_p4 must be finite, got inf"),
        ({"max_d4": -math.inf}, "max_d4 must be finite, got -inf"),
        ({"max_d1": math.nan}, "max_d1 must be finite, got nan"),
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
        starts = [e for e in events if e.kind == "start"]
        ends = [e for e in events if e.kind == "end"]
        assert len(starts) == len(ends) == 6

    def test_empty_table_empty_stream(self):
        assert sc.emit_events(sc.CycleTable(())) == []

    def test_simulate_round_trip(self):
        table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(9), 100)
        back = sc.ingest_events(sc.emit_events(table))
        assert len(back) == len(table)
        for name in ("d4", "d1", "d2", "d8", "d5", "d6"):
            np.testing.assert_allclose(back.column(name), table.column(name), atol=1e-3)


class TestConfig:
    def test_round_trip(self):
        cfg = sc.SimulationConfig(
            plan=sc.TimingPlan(schedule=((0.0, 7.0, 110.0), (7.0, 24.0, 120.0)),
                               max_d4=55.0),
            demand=sc.peaked_demand(11),
            start_ms=86_400_000,
        )
        text = sc.format_config(cfg)
        back = sc.parse_config(text)
        assert back == cfg

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
