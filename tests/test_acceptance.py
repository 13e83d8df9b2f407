"""Acceptance gate: one test per criterion, each printing a pass line.

Every expected value here is produced by an independent oracle inside the
test (exact rational arithmetic, brute-force scans, enumeration) or is an
exact structural property; nothing is asserted from an external source.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import hashlib
import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import spatcast as sc
from spatcast.evaluate import error_curve


def _report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# Independent oracles


def oracle_mean(samples) -> float:
    return float(sum(Fraction(s) for s in samples) / len(samples))


def oracle_exceedance_value(samples, alpha: float):
    """Largest support value the samples still exceed with probability alpha."""
    n = len(samples)
    for v in sorted(set(samples), reverse=True):
        if sum(1 for s in samples if s >= v) / n >= alpha:
            return v
    raise AssertionError("unreachable for alpha < 1")


def oracle_asymmetric_minimizer(samples, c1: int, c2: int):
    """Scan the support for the minimizer of the piecewise-linear loss.

    Integer samples and integer weights keep every loss sum exact, so ties
    resolve deterministically toward the smaller candidate (first win on an
    ascending scan).
    """
    best_x, best_loss = None, None
    for x in sorted(set(samples)):
        loss = sum(c1 * (d - x) if x < d else c2 * (x - d) for d in samples)
        if best_loss is None or loss < best_loss:
            best_x, best_loss = x, loss
    return best_x


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20250808)
    trials = 0
    while trials < 240:
        n = rng.randint(1, 50)
        samples = [rng.randint(0, 120) for _ in range(n)]
        if max(samples) == 0:
            samples[0] = rng.randint(1, 120)
        top = max(samples)
        if rng.random() < 0.5 and top >= 1:
            t = float(rng.randint(0, top - 1))  # land exactly on sample values
        else:
            t = rng.uniform(0.0, top - 1e-6)
        survivors = [s for s in samples if s > t]
        assert survivors
        dist = sc.EmpiricalDist(np.array(samples, dtype=float), "d4", 120.0)

        got = sc.predict(dist, t, sc.Expectation())
        assert abs(got - oracle_mean(survivors)) <= 1e-9

        alpha = rng.uniform(0.02, 0.98)
        got = sc.predict(dist, t, sc.Confidence(alpha))
        assert got == oracle_exceedance_value(survivors, alpha)

        c1, c2 = rng.randint(1, 9), rng.randint(1, 9)
        got = sc.predict(dist, t, sc.AsymmetricLoss(c1, c2))
        assert got == oracle_asymmetric_minimizer(survivors, c1, c2)

        trials += 1
    elapsed = time.monotonic() - started
    assert trials >= 200
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"
    _report(1, "oracle equivalence on random sample sets")


def test_criterion_2_barrier_identities_and_round_trip():
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(13), 10_000)
    lengths = table.cycle_lengths()
    # zero residual, not merely within tolerance
    assert np.all(table.column("d4") + table.column("d1") + table.column("d2") == lengths)
    assert np.all(table.column("d8") + table.column("d5") + table.column("d6") == lengths)
    assert np.all(table.column("d4") == table.column("d8"))
    assert np.all(table.column("d1") + table.column("d2")
                  == table.column("d5") + table.column("d6"))

    once = sc.ingest_events(sc.emit_events(table))
    assert len(once) == len(table)
    for name in ("d4", "d1", "d2", "d8", "d5", "d6"):
        assert np.max(np.abs(once.column(name) - table.column(name))) <= 1e-3
    assert [r.cycle_start_ms for r in once] == [r.cycle_start_ms for r in table]

    twice = sc.ingest_events(sc.emit_events(once))
    for name in ("d4", "d1", "d2", "d8", "d5", "d6"):
        assert np.array_equal(twice.column(name), once.column(name))
    _report(2, "barrier identities and event round trip")


def test_criterion_3_residual_jump_on_bimodal_history():
    samples = [36.0] * 9 + [45.0]
    dist = sc.EmpiricalDist(np.array(samples), "d4", 120.0)

    # enumeration oracle on both sides of the modal value
    before_survivors = [s for s in samples if s > 35.99]
    after_survivors = [s for s in samples if s > 36.0]
    expected_r_before = oracle_mean(before_survivors) - 35.99
    expected_r_after = oracle_mean(after_survivors) - 36.0
    expected_jump = expected_r_after - expected_r_before
    assert expected_jump > 0  # the oracle itself exhibits the upward jump

    r_before = sc.predict(dist, 35.99, sc.Expectation()) - 35.99
    r_after = sc.predict(dist, 36.0, sc.Expectation()) - 36.0
    assert r_before == pytest.approx(expected_r_before, abs=1e-9)
    assert r_after == pytest.approx(expected_r_after, abs=1e-9)
    assert r_after > r_before
    assert r_after - r_before == pytest.approx(expected_jump, abs=1e-9)
    _report(3, f"residual jump of {expected_jump:.2f} s across the modal value")


def test_criterion_4_error_decrease_and_mse_optimality():
    started = time.monotonic()
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(11), 5_000)
    dist = sc.fit(table, "d4")

    exp_mae = error_curve(sc.Expectation(), dist, table, "mae")
    assert exp_mae.values[0] > 0
    assert exp_mae.values[-1] < exp_mae.values[0]

    exp_mse = error_curve(sc.Expectation(), dist, table, "mse")
    rivals = (sc.Confidence(0.8), sc.Confidence(0.5),
              sc.AsymmetricLoss(3, 1), sc.AsymmetricLoss(1, 3))
    for rival in rivals:
        rival_mse = error_curve(rival, dist, table, "mse")
        assert np.array_equal(rival_mse.ts, exp_mse.ts)
        assert np.all(exp_mse.values <= rival_mse.values)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"evaluation took {elapsed:.1f} s"
    _report(4, "error decreases in t and expectation minimizes MSE")


def test_criterion_5_sum_prediction_route_contrast():
    lead = [36.0, 36.0, 41.0, 41.0]
    follow = [0.0, 5.0, 0.0, 10.0]
    sums = [a + b for a, b in zip(lead, follow)]

    # oracle values by enumeration
    marginal_at_38 = oracle_mean([s for s in sums if s > 38.0])
    joint_at_38 = oracle_mean([a + b for a, b in zip(lead, follow) if a > 38.0])
    assert marginal_at_38 == pytest.approx(133 / 3, abs=1e-12)
    assert joint_at_38 == 46.0

    sum_dist = sc.EmpiricalDist(np.array(sums), "d4+d1", 120.0)
    joint = sc.JointSamples(lead, follow)
    got_marginal = sc.predict(sum_dist, 38.0, sc.Expectation())
    got_joint = sc.predict(joint, 38.0, sc.Expectation())
    assert got_marginal == pytest.approx(marginal_at_38, abs=1e-9)
    assert got_joint == pytest.approx(joint_at_38, abs=1e-9)
    assert got_joint != got_marginal

    at_zero_marginal = sc.predict(sum_dist, 0.0, sc.Expectation())
    at_zero_joint = sc.predict(joint, 0.0, sc.Expectation())
    assert at_zero_marginal == at_zero_joint
    _report(5, "marginal and joint sum routes differ at t=38, agree at t=0")


def _concat(tables) -> sc.CycleTable:
    records = []
    for table in tables:
        records.extend(table.records)
    records = tuple(
        replace(rec, cycle_index=i) for i, rec in enumerate(records)
    )
    return sc.CycleTable(records)


def test_criterion_6_sliding_window_tracks_demand_shift():
    plan = sc.TimingPlan()
    cycles_per_day = 86_400 // 120
    ms_per_day = 86_400_000

    calm = sc.DemandProfile(
        side_street_rate=((0.0, 24.0, 0.5),),
        left_turn_rate=((0.0, 24.0, 0.3),),
        rng_seed=101,
    )
    busy = sc.DemandProfile(
        side_street_rate=((0.0, 24.0, 4.0),),
        left_turn_rate=((0.0, 24.0, 1.5),),
        rng_seed=202,
    )
    # days 1..60 calm, demand shifts at day 61, data through day 75
    pre = sc.simulate(plan, calm, 60 * cycles_per_day, start_ms=1 * ms_per_day)
    post = sc.simulate(plan, busy, 15 * cycles_per_day, start_ms=61 * ms_per_day)
    table = _concat([pre, post])

    eval_day = sc.window(table, 76, 1)  # exactly day 75
    assert set(eval_day.day_indices().tolist()) == {75}

    aggregates = {}
    for delta in (14, 120):
        train = sc.window(table, 75, delta)
        dist = sc.fit(train, "d4")
        curve = error_curve(sc.Expectation(), dist, eval_day, "mae")
        aggregates[delta] = curve.aggregate()
    assert aggregates[14] < aggregates[120]
    _report(6, f"day-75 MAE: delta=14 {aggregates[14]:.3f} < delta=120 {aggregates[120]:.3f}")


class _HashSink:
    def __init__(self):
        self.digest = hashlib.sha256()
        self.count = 0

    def write(self, line: str) -> None:
        self.digest.update(line.encode("utf-8"))
        self.count += 1


class _ValidatingSink(_HashSink):
    def write(self, line: str) -> None:
        super().write(line)
        msg = json.loads(line)
        if not (msg["startTime"] <= msg["minEndTime"]
                <= msg["likelyTime"] <= msg["maxEndTime"]):
            raise AssertionError(f"end-time ordering violated: {line}")
        if msg["minEndTime"] < msg["madeAt"]:
            raise AssertionError(f"minEndTime precedes made_at: {line}")
        if msg["nextTime"] <= msg["likelyTime"]:
            raise AssertionError(f"nextTime not after likelyTime: {line}")


def test_criterion_7_stream_goldens_over_a_simulated_day():
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(7), 720)  # 24 h of 120 s cycles
    dists = sc.fit_message_dists(table)

    first = _ValidatingSink()
    emitted = sc.stream(table, dists, first, cadence_ms=100, alpha=0.8)
    ticks = sum(int(round(r.length_s * 1000)) // 100 for r in table)
    assert emitted == first.count == 2 * ticks

    second = _HashSink()
    sc.stream(table, dists, second, cadence_ms=100, alpha=0.8)
    assert second.count == first.count
    assert second.digest.hexdigest() == first.digest.hexdigest()
    _report(7, f"{emitted} messages, byte-identical replay, all invariants hold")
