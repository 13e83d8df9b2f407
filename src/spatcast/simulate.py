"""Synthetic semi-actuated, coordinated dual-ring controller.

Ground-truth generator for desk-scale testing: per cycle, side-street and
left-turn demands are Poisson draws, each detected vehicle extends its
actuated green by a fixed amount, and the coordination phase absorbs the
slack so the cycle keeps the length fixed by the timing plan.  Output
satisfies the barrier identities exactly and is a pure function of
(plan, demand, seed), so runs are reproducible and parallel-safe.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .cycles import _INT64_MAX, _INT64_MIN, DURATION_NAMES, MS_PER_DAY, CycleTable, EventLog
from .errors import InfeasiblePlan

Segments = tuple[tuple[float, float, float], ...]

_MS_PER_HOUR = 3_600_000.0
# Generator.poisson rejects a rate above this with "lam value too large".
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max) - np.sqrt(np.iinfo(np.int64).max) * 10


def _check_segments(segments: Segments, what: str) -> None:
    if not segments:
        raise ValueError(f"{what}: at least one segment required")
    prev_end = 0.0
    for start, end, _ in segments:
        if start != prev_end:
            raise ValueError(f"{what}: segments must tile 0-24 h contiguously")
        if end <= start:
            raise ValueError(f"{what}: empty segment {start}-{end}")
        prev_end = end
    if prev_end != 24.0:
        raise ValueError(f"{what}: segments must end at hour 24")


def _first_ms(hour: float) -> int:
    """The first millisecond of the day at or past ``hour``, by the test
    ``hour <= ms / 3_600_000.0`` that places a cycle start in a segment."""
    ms = min(max(math.ceil(hour * _MS_PER_HOUR), 0), MS_PER_DAY)
    while ms > 0 and (ms - 1) / _MS_PER_HOUR >= hour:
        ms -= 1
    while ms < MS_PER_DAY and ms / _MS_PER_HOUR < hour:
        ms += 1
    return ms


def _segment_starts_ms(segments: Segments) -> list[int]:
    """Each segment's first millisecond of the day: a time of day ``ms``
    lies in segment ``bisect_right(starts, ms) - 1``."""
    return [_first_ms(start) for start, _, _ in segments]


def _segment_values(segments: Segments, ms_of_day: np.ndarray) -> np.ndarray:
    """The value of the segment that holds each time of day."""
    values = np.array([value for _, _, value in segments], dtype=float)
    return values[np.searchsorted(_segment_starts_ms(segments), ms_of_day, side="right") - 1]


@dataclass(frozen=True)
class TimingPlan:
    """Cycle lengths by time of day plus the actuation rule parameters.

    ``schedule`` is a tuple of (start_hour, end_hour, cycle_length) segments
    tiling the 24 h day.  The side-street green starts from the pedestrian
    clearance minimum and each detected vehicle extends it; the left-turn
    green is pure extensions.  Caps bound both actuated greens.
    """

    schedule: Segments = ((0.0, 24.0, 120.0),)
    min_green_p4: float = 36.0
    extension: float = 5.0
    max_d4: float = 60.0
    max_d1: float = 25.0

    def __post_init__(self) -> None:
        _check_segments(self.schedule, "schedule")
        # Checked here, so the error names the field and not a d6 in simulate.
        for name in ("min_green_p4", "extension", "max_d4", "max_d1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.extension <= 0:
            raise ValueError("extension must be positive")
        for name in ("min_green_p4", "max_d1"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.max_d4 < self.min_green_p4:
            raise ValueError(
                f"max_d4 must be >= min_green_p4, got max_d4 = {self.max_d4} "
                f"< min_green_p4 = {self.min_green_p4}"
            )
        for _, _, length in self.schedule:
            if not math.isfinite(length):
                raise ValueError(f"schedule: cycle length must be finite, got {length}")
            if not math.isfinite(length * 1000):  # simulate's clock counts milliseconds
                raise ValueError(f"schedule: cycle length must be finite in ms, got {length} s")
            if length <= 0:
                raise ValueError("cycle length must be positive")
            if self.min_green_p4 + self.max_d1 >= length:
                raise ValueError(
                    "coordination phase must receive positive time: "
                    f"min_green_p4 + max_d1 >= L = {length}"
                )


@dataclass(frozen=True)
class DemandProfile:
    """Piecewise-constant vehicle arrival rates per cycle, periodic over 24 h."""

    side_street_rate: Segments = ((0.0, 24.0, 0.5),)
    left_turn_rate: Segments = ((0.0, 24.0, 0.3),)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_segments(self.side_street_rate, "side_street_rate")
        _check_segments(self.left_turn_rate, "left_turn_rate")
        for name in ("side_street_rate", "left_turn_rate"):
            for _, _, rate in getattr(self, name):
                if not math.isfinite(rate):
                    raise ValueError(f"{name}: rates must be finite, got {rate}")
                if rate < 0:
                    raise ValueError("rates must be >= 0")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


def peaked_demand(seed: int = 0) -> DemandProfile:
    """A day with AM and PM peaks, the shape that spreads actuated greens."""
    return DemandProfile(
        side_street_rate=(
            (0.0, 6.0, 0.2), (6.0, 10.0, 3.0), (10.0, 16.0, 0.8),
            (16.0, 19.0, 3.5), (19.0, 24.0, 0.3),
        ),
        left_turn_rate=(
            (0.0, 6.0, 0.1), (6.0, 10.0, 1.2), (10.0, 16.0, 0.4),
            (16.0, 19.0, 1.5), (19.0, 24.0, 0.2),
        ),
        rng_seed=seed,
    )


def _capped(green, cap):
    """``min(green, cap)`` elementwise, by ``min``'s rule: ``cap`` only when
    it is below ``green``, so a cap of -0.0 leaves a green of 0.0 as it is."""
    return np.where(cap < green, cap, green)[()]


def _left_turn_green(plan: TimingPlan, count):
    """A left-turn green, d1 or d5: pure extensions, capped at ``max_d1``."""
    return _capped(plan.extension * count, plan.max_d1)


def ring1_durations(plan: TimingPlan, cycle_length, side_count, left_count):
    """Apply the extension rule: returns (d4, d1, d2), for one cycle or for
    each cycle of equal-length arrays."""
    d4 = _capped(plan.min_green_p4 + plan.extension * side_count, plan.max_d4)
    d1 = _left_turn_green(plan, left_count)
    return d4, d1, cycle_length - d4 - d1


def _cycle_starts(plan: TimingPlan, n_cycles: int, start_ms: int):
    """Each cycle's start and its time of day, in ms.

    A cycle starts where the previous one ends, ``int(round(L * 1000))`` ms
    later, and takes the segment that holds its own start time of day.  So
    the starts step through one segment at a time: an arithmetic
    progression up to the segment's end or the day's.  Starts are int64,
    or Python ints when one leaves int64.
    """
    edges = [*_segment_starts_ms(plan.schedule), MS_PER_DAY]
    steps = [int(round(length * 1000)) for _, _, length in plan.schedule]
    runs = []  # (first start, step, its time of day, cycles)
    t, todo = start_ms, n_cycles
    while todo:
        ms = t % MS_PER_DAY
        seg = bisect.bisect_right(edges, ms) - 1
        step = steps[seg]
        count = todo if step == 0 else min(todo, -((ms - edges[seg + 1]) // step))
        runs.append((t, step, ms, count))
        t += step * count
        todo -= count
    first, step, ms, count = (list(col) for col in zip(*runs))
    k = np.arange(n_cycles) - np.repeat(np.cumsum(count) - count, count)
    # Within a run k * step < MS_PER_DAY, so a step past that has only k = 0.
    offset = k * np.repeat([min(s, MS_PER_DAY) for s in step], count)
    ms_of_day = np.repeat(ms, count) + offset
    if all(_INT64_MIN <= f and f + s * (c - 1) <= _INT64_MAX
           for f, s, c in zip(first, step, count)):
        return np.repeat(np.array(first, dtype=np.int64), count) + offset, ms_of_day
    # CycleTable names the first start past int64.
    starts = [f + s * i for f, s, c in zip(first, step, count) for i in range(c)]
    return starts, ms_of_day


def simulate(
    plan: TimingPlan,
    demand: DemandProfile,
    n_cycles: int,
    *,
    start_ms: int = 0,
) -> CycleTable:
    """Generate ``n_cycles`` records under the actuation rule.

    Ring 2 mirrors ring 1 at the barrier (d8 = d4); its split of the
    remaining time draws an independent left-turn count.  Raises
    InfeasiblePlan when the caps leave d2 <= 0, or when a cycle's
    coordination phase d6 would not get positive time.  Identical (plan,
    demand, n_cycles, start_ms) always produce an identical table.

    A cycle takes its length and both rates from the segments that hold its
    start time of day (UTC), and keeps them across a segment edge.  Its
    side-street, left-turn and ring-2 left-turn counts are drawn in that
    order, cycle after cycle, from one generator seeded by the demand.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    for _, _, length in plan.schedule:
        if length - plan.max_d4 - plan.max_d1 <= 0:
            raise InfeasiblePlan(
                f"caps leave d2 <= 0 at L = {length}: "
                f"max_d4 + max_d1 = {plan.max_d4 + plan.max_d1}"
            )

    starts, ms_of_day = _cycle_starts(plan, n_cycles, operator.index(start_ms))
    lengths = _segment_values(plan.schedule, ms_of_day)
    left_rate = _segment_values(demand.left_turn_rate, ms_of_day)
    rates = np.stack([_segment_values(demand.side_street_rate, ms_of_day), left_rate, left_rate],
                     axis=1)
    # Generator.poisson checks every rate before it draws any, so cycles
    # past the first rate it rejects are drawn apart: an earlier cycle's
    # InfeasiblePlan comes first, as it would cycle by cycle.
    too_large = (rates > _POISSON_LAM_MAX).any(axis=1)
    n_drawn = int(too_large.argmax()) if too_large.any() else n_cycles
    rng = np.random.default_rng(demand.rng_seed)
    side, left, left2 = rng.poisson(rates[:n_drawn]).T
    d4, d1, d2 = ring1_durations(plan, lengths[:n_drawn], side, left)
    d5 = _left_turn_green(plan, left2)
    d6 = d1 + d2 - d5
    infeasible = ~(d6 > 0)  # only float rounding at a near-zero margin gets here
    if infeasible.any():
        i = int(infeasible.argmax())
        raise InfeasiblePlan(f"coordination phase d6 = {d6[i].item()!r} <= 0 "
                             f"at L = {lengths[i].item()}")
    if n_drawn < n_cycles:
        rng.poisson(rates[n_drawn:])  # raises "lam value too large"
    return CycleTable.from_columns(np.arange(n_cycles), starts, lengths, d4, d1, d2, d4, d5, d6)


def emit_events(table: CycleTable) -> EventLog:
    """Serialize a table back into the phase-event log that produced it.

    A phase starts and ends at the cycle start plus the rounded millisecond
    of its ring's running duration sum before and after it.  Events are
    sorted by time; ties keep cycle order, ring 1 before ring 2, then ring
    pattern order.  Re-ingesting the log reproduces the durations to within
    1 ms, and a zero-duration phase starts and ends at one timestamp.
    Raises ValueError naming the cycle when an event time leaves int64.
    """
    n = len(table)
    durations = np.stack([getattr(table, d) for d in DURATION_NAMES], axis=-1)
    edges = np.zeros((n, 2, 4))  # per ring: 0, then the three running sums
    with np.errstate(over="ignore"):  # an infinite time fails the int64 check below
        np.cumsum(durations.reshape(n, 2, 3), axis=2, out=edges[:, :, 1:])
        offsets = np.rint(edges * 1000)
    # start + offset must fit in int64: offset <= INT64_MAX - start, which
    # lies in [0, 2**64) and so is exact in uint64, as is any smaller offset.
    last = offsets[:, :, 3].max(axis=1, initial=0.0)
    room = np.uint64(2**63 - 1) - table.cycle_start_ms.view(np.uint64)
    fits = last < 2.0**64
    over = ~fits | (np.where(fits, last, 0).astype(np.uint64) > room)
    if over.any():
        i = int(over.argmax())
        raise ValueError(f"cycle {table.cycle_index[i]}: an event time after its start "
                         f"{table.cycle_start_ms[i]} ms does not fit in int64")
    # The sum is exact modulo 2**64, and the result fits in int64.
    stamps = table.cycle_start_ms.view(np.uint64)[:, None, None] + offsets.astype(np.uint64)
    # A ring's six events, p4 start, p4 end, p1 start, ..., on its edges.
    stamps = stamps[:, :, [0, 1, 1, 2, 2, 3]].view(np.int64).ravel()
    order = np.argsort(stamps, kind="stable")
    place = (order % 12).astype(np.int8)  # in its cycle: ring 1's six events, then ring 2's
    return EventLog(stamps[order], place // 6 + 1, place % 6)


# ---------------------------------------------------------------------------
# Flat key-value config files


@dataclass(frozen=True)
class SimulationConfig:
    plan: TimingPlan
    demand: DemandProfile
    start_ms: int = 0


def _parse_segments(text: str) -> Segments:
    segs = []
    for part in text.split(","):
        part = part.strip()
        span, _, value = part.partition("@")
        if not value:
            raise ValueError(f"segment {part!r} must look like '6-10@2.5'")
        lo, _, hi = span.partition("-")
        segs.append((float(lo), float(hi), float(value)))
    return tuple(segs)


def parse_config(text: str) -> SimulationConfig:
    """Parse the flat ``key = value`` simulator config format.

    Recognized keys: min_green_p4, extension, max_d4, max_d1, schedule,
    side_street_rate, left_turn_rate, seed, start_ms.  Schedule and rate
    values are comma-separated 'START-END@VALUE' hour segments.  Lines
    starting with '#' and blank lines are ignored.
    """
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        values[key.strip()] = value.strip()
        lines[key.strip()] = lineno

    known = {
        "min_green_p4", "extension", "max_d4", "max_d1", "schedule",
        "side_street_rate", "left_turn_rate", "seed", "start_ms",
    }
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def parse(key, convert):
        try:
            return convert(values[key])
        except ValueError as exc:
            raise ValueError(f"line {lines[key]}: {key}: {exc}") from exc

    plan_kwargs = {}
    if "schedule" in values:
        plan_kwargs["schedule"] = parse("schedule", _parse_segments)
    for key in ("min_green_p4", "extension", "max_d4", "max_d1"):
        if key in values:
            plan_kwargs[key] = parse(key, float)
    demand_kwargs = {}
    for key in ("side_street_rate", "left_turn_rate"):
        if key in values:
            demand_kwargs[key] = parse(key, _parse_segments)
    if "seed" in values:
        demand_kwargs["rng_seed"] = parse("seed", _seed)
    return SimulationConfig(
        plan=TimingPlan(**plan_kwargs),
        demand=DemandProfile(**demand_kwargs),
        start_ms=parse("start_ms", int) if "start_ms" in values else 0,
    )


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"must be >= 0, got {seed}")
    return seed


def load_config(path) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
