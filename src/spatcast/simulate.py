"""Synthetic semi-actuated, coordinated dual-ring controller.

Ground-truth generator for desk-scale testing: per cycle, side-street and
left-turn demands are Poisson draws, each detected vehicle extends its
actuated green by a fixed amount, and the coordination phase absorbs the
slack so the cycle keeps the length fixed by the timing plan.  Output
satisfies the barrier identities exactly and is a pure function of
(plan, demand, seed), so runs are reproducible and parallel-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycles import DURATION_NAMES, MS_PER_DAY, CycleTable, EventLog
from .errors import InfeasiblePlan

Segments = tuple[tuple[float, float, float], ...]

_MS_PER_HOUR = 3_600_000.0


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


def _segment_value(segments: Segments, hour: float) -> float:
    for start, end, value in segments:
        if start <= hour < end:
            return value
    return segments[-1][2]


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

    def cycle_length_at(self, hour: float) -> float:
        return _segment_value(self.schedule, hour)


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

    def side_rate_at(self, hour: float) -> float:
        return _segment_value(self.side_street_rate, hour)

    def left_rate_at(self, hour: float) -> float:
        return _segment_value(self.left_turn_rate, hour)


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


def ring1_durations(
    plan: TimingPlan, cycle_length: float, side_count: int, left_count: int
) -> tuple[float, float, float]:
    """Apply the extension rule: returns (d4, d1, d2) for one cycle."""
    d4 = min(plan.min_green_p4 + plan.extension * side_count, plan.max_d4)
    d1 = min(plan.extension * left_count, plan.max_d1)
    return d4, d1, cycle_length - d4 - d1


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
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    for _, _, length in plan.schedule:
        if length - plan.max_d4 - plan.max_d1 <= 0:
            raise InfeasiblePlan(
                f"caps leave d2 <= 0 at L = {length}: "
                f"max_d4 + max_d1 = {plan.max_d4 + plan.max_d1}"
            )

    rng = np.random.default_rng(demand.rng_seed)
    starts, lengths, durations = [], [], []
    t_ms = start_ms
    for i in range(n_cycles):
        hour = (t_ms % MS_PER_DAY) / _MS_PER_HOUR
        length = plan.cycle_length_at(hour)
        side = int(rng.poisson(demand.side_rate_at(hour)))
        left = int(rng.poisson(demand.left_rate_at(hour)))
        d4, d1, d2 = ring1_durations(plan, length, side, left)
        d5 = min(plan.extension * int(rng.poisson(demand.left_rate_at(hour))), plan.max_d1)
        d6 = d1 + d2 - d5
        if not d6 > 0:  # only float rounding at a near-zero margin gets here
            raise InfeasiblePlan(f"coordination phase d6 = {d6!r} <= 0 at L = {length}")
        starts.append(t_ms)
        lengths.append(length)
        durations.append((d4, d1, d2, d4, d5, d6))
        t_ms += int(round(length * 1000))
    return CycleTable.from_columns(range(n_cycles), starts, lengths, *zip(*durations))


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


def _format_segments(segs: Segments) -> str:
    return ", ".join(f"{a:g}-{b:g}@{v:g}" for a, b, v in segs)


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


def format_config(config: SimulationConfig) -> str:
    plan, demand = config.plan, config.demand
    lines = [
        f"schedule = {_format_segments(plan.schedule)}",
        f"min_green_p4 = {plan.min_green_p4:g}",
        f"extension = {plan.extension:g}",
        f"max_d4 = {plan.max_d4:g}",
        f"max_d1 = {plan.max_d1:g}",
        f"side_street_rate = {_format_segments(demand.side_street_rate)}",
        f"left_turn_rate = {_format_segments(demand.left_turn_rate)}",
        f"seed = {demand.rng_seed}",
        f"start_ms = {config.start_ms}",
    ]
    return "\n".join(lines) + "\n"


def load_config(path) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
