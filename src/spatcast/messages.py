"""SPaT message composition and fixed-cadence NDJSON streaming.

A message carries, for one phase at one instant, the phase start offset,
the earliest/likeliest/latest predicted green end, a confidence-bound
value, and when the phase next turns green.  All times are seconds into
the current cycle, printed with two decimals in a fixed field order so
replays are byte-identical.

Streaming replays a cycle table tick by tick: at each tick the active
phase of each ring gets one message, composed from an immutable snapshot
of fitted distributions.  When the live phase outlives every historical
sample the message degrades to a short hold prediction rather than going
silent.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Mapping, TextIO

from .cycles import DURATION_KEY, RING_SEQUENCE, CycleTable
from .distributions import EmpiricalDist, fit
from .errors import EmptyCondition, SinkClosed
from .predict import PHASE_QUANTITY, cycle_length, hold, predict_schedule

_ORDER_EPS = 1e-9

# Per ring: the opening and middle durations, then their per-cycle sum.
MESSAGE_DIST_KEYS = (
    *(DURATION_KEY[p] for seq in RING_SEQUENCE.values() for p in seq[:2]),
    *(PHASE_QUANTITY[seq[1]] for seq in RING_SEQUENCE.values()),
)


@dataclass(frozen=True)
class SpatMessage:
    """One broadcastable phase-state record."""

    site_id: str
    cycle_index: int
    phase: str
    made_at: float
    start_time: float
    min_end_time: float
    max_end_time: float
    likely_time: float
    confidence_alpha: float
    confidence_value: float
    next_time: float
    degraded: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence_alpha < 1.0:
            raise ValueError("confidence_alpha must be in (0, 1)")
        ordered = (
            self.start_time <= self.min_end_time + _ORDER_EPS
            and self.min_end_time <= self.likely_time + _ORDER_EPS
            and self.likely_time <= self.max_end_time + _ORDER_EPS
        )
        if not ordered:
            raise ValueError("need startTime <= minEndTime <= likelyTime <= maxEndTime")
        if self.min_end_time + _ORDER_EPS < self.made_at:
            raise ValueError("minEndTime cannot precede made_at")
        if self.next_time <= self.likely_time:
            raise ValueError("nextTime must follow likelyTime")

    def to_ndjson(self) -> str:
        """One JSON line, fixed field order, 2-decimal seconds."""
        site = json.dumps(self.site_id)
        return (
            f'{{"site":{site},"cycle":{self.cycle_index},"phase":"{self.phase}",'
            f'"madeAt":{self.made_at:.2f},"startTime":{self.start_time:.2f},'
            f'"minEndTime":{self.min_end_time:.2f},"maxEndTime":{self.max_end_time:.2f},'
            f'"likelyTime":{self.likely_time:.2f},'
            f'"confidenceAlpha":{self.confidence_alpha:.2f},'
            f'"confidenceValue":{self.confidence_value:.2f},'
            f'"nextTime":{self.next_time:.2f},'
            f'"degraded":{"true" if self.degraded else "false"}}}'
        )


def fit_message_dists(table: CycleTable) -> dict[str, EmpiricalDist]:
    """Fit every distribution message composition needs, for both rings.

    Raises ValueError, naming the first bad cycle, for a table whose
    messages could not keep nextTime after likelyTime.  On a ring that is
    an opening duration not below the stratum L (the opening phase would
    likely end at or past its next green, L), an opening+middle sum not
    below L + mean(opening) (the middle phase's next green), or sums that
    are 0 in every cycle (the coordination phase's next green would be the
    L it ends at).
    """
    dists = _fit_dists(table)
    for first, mid, _ in RING_SEQUENCE.values():
        opening, quantity = DURATION_KEY[first], PHASE_QUANTITY[mid]
        length = cycle_length(dists, first)
        mid_green = length + dists[opening].mean()
        for key, bound, what in (
            (opening, length, f"the cycle length {length:g} s"),
            (quantity, mid_green, f"{mid}'s next green, L + mean({opening}) = {mid_green:g} s"),
        ):
            values = table.column(key)
            late = ~(values < bound)
            if late.any():
                i = late.argmax()
                raise ValueError(
                    f"cycle {table.cycle_index[i]}: {key} = {values[i]:g} s is not "
                    f"below {what}; cannot stream this table"
                )
        if not table.column(quantity).any():
            raise ValueError(
                f"cycle {table.cycle_index[0]}: {quantity} is 0 s in every cycle; "
                "cannot stream this table"
            )
    return dists


def _fit_dists(table: CycleTable) -> dict[str, EmpiricalDist]:
    """``fit_message_dists`` without the check that the table can stream."""
    return {key: fit(table, key) for key in MESSAGE_DIST_KEYS}


def _conditional_stats(
    dists: Mapping[str, EmpiricalDist],
    phase: str,
    t: float,
    alpha: float,
) -> tuple[float, float, float, float, float, bool]:
    """(min_end, max_end, likely, confidence_value, next_time, degraded).

    Pure in (dists, phase, t, alpha), which lets the streamer cache per
    tick offset.  The likely end and next green are ``predict_schedule``'s;
    the other fields condition the same quantity on running past t.
    """
    try:
        likely, next_time = predict_schedule(dists, phase, t)
    except EmptyCondition:  # degraded: hold at t, next green a cycle later
        held = hold(t)
        return held, held, held, held, held + cycle_length(dists, phase), True
    quantity = PHASE_QUANTITY[phase]
    if quantity is None:
        return likely, likely, likely, likely, next_time, False
    cond = dists[quantity].condition_gt(t)
    min_end = max(t, cond.support_min())
    conf = cond.upper_quantile(alpha)
    return min_end, cond.support_max(), likely, conf, next_time, False


def _message(
    site_id: str, cycle_index: int, phase: str, t: float, phase_start: float,
    alpha: float, stats: tuple[float, float, float, float, float, bool],
) -> SpatMessage:
    """The message for one phase at t, from ``_conditional_stats``' tuple."""
    min_end, max_end, likely, conf, next_time, degraded = stats
    return SpatMessage(
        site_id=site_id,
        cycle_index=cycle_index,
        phase=phase,
        made_at=t,
        start_time=phase_start,
        min_end_time=min_end,
        max_end_time=max_end,
        likely_time=likely,
        confidence_alpha=alpha,
        confidence_value=conf,
        next_time=next_time,
        degraded=degraded,
    )


def compose(
    dists: Mapping[str, EmpiricalDist],
    current_phase: str,
    t: float,
    alpha: float,
    *,
    site_id: str = "",
    cycle_index: int = 0,
    phase_start: float = 0.0,
) -> SpatMessage:
    """Compose the broadcastable record for one phase at elapsed time t.

    ``phase_start`` is the phase's realized start offset within the cycle,
    at most t; a replaying streamer knows it, and it defaults to 0, which is
    exact for the cycle-opening phases p4 and p8.  Once history is
    exhausted (a coordination phase at t >= L included) the message holds,
    degraded, as the stream's does.
    """
    if phase_start > t:
        raise ValueError(
            f"phase_start = {phase_start:g} s is after t = {t:g} s; "
            "the phase has not started yet"
        )
    stats = _conditional_stats(dists, current_phase, t, alpha)
    return _message(site_id, cycle_index, current_phase, t, phase_start, alpha, stats)


def stream(
    table: CycleTable,
    dists: Mapping[str, EmpiricalDist],
    out: TextIO,
    *,
    cadence_ms: int = 100,
    alpha: float = 0.8,
    site_id: str = "",
    speed: float | None = None,
) -> int:
    """Replay a cycle table as NDJSON messages at a fixed cadence.

    Each tick emits one message per ring's active phase (ring 1 first),
    each naming the site ``site_id``: the site is a field of the message,
    not of the table, as in ``compose``.
    ``speed`` of None replays as fast as possible and reads no clock; a
    positive value paces ticks at cadence/speed wall seconds (1.0 is real
    time), at most ``threading.TIMEOUT_MAX``, the longest wait a sleep is
    sure to take; a slower pace raises ValueError before the first line.
    Tick k is due k paces after the first: a tick waits for its due time,
    and a tick already late goes out at once, so the stream keeps the
    signal's clock however long each tick's writes take.  Returns the
    number of messages written; a sink that stops accepting writes ends the
    stream cleanly.  Each line equals ``compose``'s for its cycle, phase,
    t and phase start.
    """
    if cadence_ms < 10:
        raise ValueError("cadence_ms must be >= 10 (the log clock resolution)")
    if speed is not None and speed <= 0:
        raise ValueError("speed must be positive")
    pace = None if speed is None else (cadence_ms / 1000.0) / speed
    if pace is not None and pace > threading.TIMEOUT_MAX:
        raise ValueError(f"speed {speed:g} at cadence_ms {cadence_ms} paces ticks {pace:g} s "
                         f"apart, more than a sleep can wait ({threading.TIMEOUT_MAX:g} s)")
    # Per ring: its three phases, and its opening and middle durations by cycle.
    rings = [
        (seq, *(getattr(table, DURATION_KEY[p]).tolist() for p in seq[:2]))
        for seq in RING_SEQUENCE.values()
    ]

    cache: dict[tuple[str, int], tuple] = {}
    emitted = ticks = 0
    start = None if pace is None else time.monotonic()
    columns = (table.cycle_index.tolist(), table.length_s.tolist())
    for i, (cycle_index, length_s) in enumerate(zip(*columns)):
        # Per ring: its phases, and where its opening and middle phases end.
        ends = [(seq, opening[i], opening[i] + middle[i]) for seq, opening, middle in rings]
        for t_ms in range(0, int(round(length_s * 1000)), cadence_ms):
            t = t_ms / 1000.0
            for (first, mid, last), opening_end, middle_end in ends:
                if t < opening_end:
                    phase, phase_start = first, 0.0
                elif t < middle_end:
                    phase, phase_start = mid, opening_end
                else:
                    phase, phase_start = last, middle_end
                key = (phase, t_ms)
                stats = cache.get(key)
                if stats is None:
                    stats = cache[key] = _conditional_stats(dists, phase, t, alpha)
                msg = _message(site_id, cycle_index, phase, t, phase_start, alpha, stats)
                try:
                    out.write(msg.to_ndjson() + "\n")
                except (SinkClosed, BrokenPipeError, ValueError):
                    return emitted
                emitted += 1
            if pace is not None:
                ticks += 1
                late = time.monotonic() - (start + ticks * pace)
                if late < 0:
                    time.sleep(-late)
    return emitted
