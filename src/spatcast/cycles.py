"""Phase-log model: cycle reconstruction, validation, and slicing.

A controller log is a stream of green-interval transitions.  Ring 1 runs
p4 -> p1 -> p2 and ring 2 runs p8 -> p5 -> p6; both rings open each cycle
together at the p4/p8 barrier and close it together at the cycle end.
Yellow and all-red clearance are folded into the green intervals upstream,
so starts and ends of greens are the only transitions in the model.  From
the transition timestamps we rebuild one record per cycle carrying the six
phase durations, which must satisfy the barrier identities

    d4 + d1 + d2 = d8 + d5 + d6 = L,    d1 + d2 = d5 + d6,    d4 = d8,

where L is the cycle length fixed by the timing plan.

Timestamps are integer milliseconds; durations are seconds at 0.01 s
resolution.  A reconstructed table is immutable and safe for concurrent
reads.
"""

from __future__ import annotations

import codecs
import collections
import csv
import datetime as dt
import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BarrierViolation,
    EmptyStratum,
    MalformedRow,
    OutOfOrderEvent,
    RingSequenceViolation,
)
from .ioutil import text_sink

RING_SEQUENCE: dict[int, tuple[str, str, str]] = {
    1: ("p4", "p1", "p2"),
    2: ("p8", "p5", "p6"),
}
PHASE_RING: dict[str, int] = {p: r for r, seq in RING_SEQUENCE.items() for p in seq}
DURATION_KEY: dict[str, str] = {
    "p4": "d4", "p1": "d1", "p2": "d2",
    "p8": "d8", "p5": "d5", "p6": "d6",
}
PHASES: tuple[str, ...] = tuple(PHASE_RING)
DURATION_NAMES: tuple[str, ...] = ("d4", "d1", "d2", "d8", "d5", "d6")

MS_PER_DAY = 86_400_000
DEFAULT_TOLERANCE_S = 0.05  # covers the 10 ms log clock skew with margin
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_EVENT_HEADER = ["timestamp_ms", "ring", "phase", "kind"]
_CYCLE_HEADER = [
    "cycle_index", "cycle_start_ms", "L_s",
    "d4_s", "d1_s", "d2_s", "d8_s", "d5_s", "d6_s",
]


@dataclass(frozen=True)
class CycleRecord:
    """One cycle's start time, length, and per-phase green durations.

    A view of one row of a ``CycleTable``, which checks its cycles; a
    record built by hand is checked once a table is built from it.
    """

    cycle_index: int
    cycle_start_ms: int
    length_s: float
    d4: float
    d1: float
    d2: float
    d8: float
    d5: float
    d6: float

    @property
    def day_index(self) -> int:
        """Calendar day of the cycle start, counted in UTC days since epoch."""
        return self.cycle_start_ms // MS_PER_DAY


# CycleRecord's fields in order, one column each in a CycleTable.
_FIELDS: tuple[str, ...] = ("cycle_index", "cycle_start_ms", "length_s", *DURATION_NAMES)
_INT_FIELDS = _FIELDS[:2]


class CycleTable:
    """Ordered, immutable collection of cycles, held as its nine columns.

    ``cycle_index`` and ``cycle_start_ms`` are int64 arrays; ``length_s`` and
    the six durations ``d4`` ... ``d6`` are float64 arrays; all are
    read-only, one entry per cycle.  ``records``, iteration and indexing
    give ``CycleRecord`` views, built on first use and then kept.

    Build a table from records, or with ``from_columns``; both check that
    the integer columns hold integers in int64, that durations are finite
    and >= 0 and lengths finite and > 0, and that starts strictly increase.
    Tables straight out of ingestion or simulation are contiguous in time
    (each cycle starts where the previous one ended); slices produced by
    ``stratify`` or ``window`` keep order but not contiguity.  Tables are
    equal when their columns are; a table carries nothing else.
    """

    __slots__ = (*_FIELDS, "_records")

    def __init__(self, records: Iterable[CycleRecord] = ()) -> None:
        records = tuple(records)
        columns = [[getattr(r, name) for r in records] for name in _FIELDS]
        self._set(columns, records)

    @classmethod
    def from_columns(cls, *columns) -> "CycleTable":
        """A table from nine columns in CycleRecord field order, copied."""
        if len(columns) != len(_FIELDS):
            raise TypeError(f"expected {len(_FIELDS)} columns, got {len(columns)}")
        table = cls.__new__(cls)
        table._set(columns, None)
        return table

    def _set(self, columns, records) -> None:
        arrays, fault = _check(columns)
        if fault is not None:
            raise fault[1]
        arrays = [np.array(arr) for arr in arrays]  # copies, which the table owns
        starts = arrays[1]
        if (starts[1:] <= starts[:-1]).any():
            raise ValueError("cycle_start_ms must be strictly increasing")
        for arr in arrays:
            arr.setflags(write=False)
        for name, value in (*zip(_FIELDS, arrays), ("_records", records)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"CycleTable is immutable; cannot set {name!r}")

    @property
    def records(self) -> tuple[CycleRecord, ...]:
        """One CycleRecord view per cycle, built on first use and then kept."""
        if self._records is None:
            columns = [self.cycle_index.tolist(), self.cycle_start_ms.tolist()]
            columns += [_per_distinct(getattr(self, name)) for name in _FIELDS[2:]]
            object.__setattr__(self, "_records", tuple(map(CycleRecord, *columns)))
        return self._records

    def __len__(self) -> int:
        return len(self.cycle_index)

    def __iter__(self) -> Iterator[CycleRecord]:
        return iter(self.records)

    def __getitem__(self, i: int) -> CycleRecord:
        return self.records[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _FIELDS)

    __hash__ = None

    def __repr__(self) -> str:
        return f"CycleTable(<{len(self)} cycles>)"

    def column(self, quantity: str) -> np.ndarray:
        """Per-cycle values of a duration, or of a per-cycle sum like 'd4+d1'."""
        parts = [p.strip() for p in quantity.split("+")]
        for p in parts:
            if p not in DURATION_NAMES:
                raise ValueError(f"unknown quantity {quantity!r}")
        out = np.zeros(len(self), dtype=float)
        for p in parts:
            out += getattr(self, p)
        return out

    def cycle_lengths(self) -> np.ndarray:
        return self.length_s.copy()

    def day_indices(self) -> np.ndarray:
        return self.cycle_start_ms // MS_PER_DAY

    def validate(self, tolerance: float = DEFAULT_TOLERANCE_S) -> None:
        """Raise BarrierViolation for the first cycle breaking an identity."""
        fault = _check([getattr(self, name) for name in _FIELDS], tolerance)[1]
        if fault is not None:
            raise fault[1]

    def _select(self, keep: np.ndarray) -> "CycleTable":
        return CycleTable.from_columns(*(getattr(self, name)[keep] for name in _FIELDS))


def _check(
    columns, tolerance: float | None = None
) -> tuple[list[np.ndarray], "tuple[int, Exception] | None"]:
    """The nine columns as arrays, and the first cycle breaking a rule.

    Returns ``(arrays, fault)``, where ``fault`` is ``(index, error)`` for
    the first failing cycle, or None.  A cycle's rules are checked in this
    order: ``cycle_index`` and ``cycle_start_ms`` hold integers in int64;
    the durations, in field order, are finite and >= 0, then ``length_s``
    is finite and > 0; with a ``tolerance``, no barrier residual exceeds
    it (BarrierViolation).
    """
    ints = [_int64_column(values, name) for name, values in zip(_INT_FIELDS, columns)]
    floats = [np.asarray(values, dtype=float) for values in columns[2:]]
    arrays = [arr for arr, _ in ints] + floats
    if any(arr.shape != arrays[0].shape or arr.ndim != 1 for arr in arrays):
        raise ValueError("columns must be one-dimensional and of equal length")
    faults = [fault for _, fault in ints if fault is not None]
    length, durations = floats[0], floats[1:]
    valid = [(f"{name} must be finite and >= 0", (d >= 0) & (d < np.inf))
             for name, d in zip(DURATION_NAMES, durations)]
    valid.append(("length_s must be finite and positive", (length > 0) & (length < np.inf)))
    faults += [(int(ok.argmin()), ValueError(text)) for text, ok in valid if not ok.all()]
    if tolerance is not None:
        residuals = _barrier_residuals(length, *durations)
        over = np.logical_or.reduce([r > tolerance for r in residuals.values()])
        if over.any():
            i = int(over.argmax())
            bad = {k: r[i].item() for k, r in residuals.items() if r[i] > tolerance}
            faults.append((i, BarrierViolation(
                f"cycle {arrays[0][i]}: barrier residuals {bad} exceed tolerance {tolerance}"
            )))
    # min keeps the first of equal indices, so rules keep their order in a cycle.
    return arrays, min(faults, key=lambda fault: fault[0], default=None)


def _int64_column(values, name: str) -> tuple[np.ndarray, "tuple[int, ValueError] | None"]:
    """``values`` as int64, and the first value that is not an integer in
    int64 as ``(index, error)``, or None."""
    raw = np.asarray(values)
    if raw.dtype.kind in "bi" or raw.dtype.kind == "u" and raw.dtype.itemsize < 8:
        return raw.astype(np.int64, copy=False), None
    # Anything else one value at a time, as given: a list mixing large
    # integers with floats would lose digits as a float array.
    if not isinstance(values, np.ndarray):
        raw = np.array(values, dtype=object)
    given = raw.ravel().tolist()
    whole = [_whole(v) for v in given]
    fits = [w is not None and _INT64_MIN <= w <= _INT64_MAX for w in whole]
    arr = np.array([w if f else 0 for w, f in zip(whole, fits)], dtype=np.int64)
    if all(fits):
        return arr.reshape(raw.shape), None
    i = fits.index(False)
    why = "is not an integer" if whole[i] is None else "does not fit in int64"
    return arr.reshape(raw.shape), (i, ValueError(f"{name} {given[i]} {why}"))


def _whole(value) -> "int | None":
    """``value`` as an int when it is a whole number, else None."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):  # nan and inf are not whole
        return None
    return i if i == value else None


def _barrier_residuals(length, d4, d1, d2, d8, d5, d6) -> dict[str, np.ndarray]:
    """Per-cycle absolute residuals of the four barrier identities, by name."""
    return {
        "ring1_sum": abs(d4 + d1 + d2 - length), "ring2_sum": abs(d8 + d5 + d6 - length),
        "cross_sum": abs((d1 + d2) - (d5 + d6)), "lead": abs(d4 - d8),
    }


# ---------------------------------------------------------------------------
# Ingestion

# An event's step is its position 0-5 in its ring's start/end pattern: the
# opening phase's start and end, then the second phase's, then the third's.
# Reader and log share one small code per event, ring * 8 + step, found by
# the event's `ring,phase,kind` spelling in a CSV row.
_KINDS = ("start", "end")
_EVENT_CODE: dict[tuple[str, str, str], int] = {
    (str(ring), phase, kind): ring * 8 + 2 * j + end
    for ring, seq in RING_SEQUENCE.items()
    for j, phase in enumerate(seq)
    for end, kind in enumerate(_KINDS)
}


@dataclass(frozen=True, eq=False)
class EventLog:
    """A phase-event log held as columns, in log order.

    ``timestamp_ms`` is int64, ``ring`` and ``step`` are int8; ``step`` is
    the event's position 0-5 in its ring's pattern (p4 start, p4 end, p1
    start, ... on ring 1).  Build one with ``read_event_csv``,
    ``simulate.emit_events``, or from three columns, which must be
    one-dimensional and of equal length: timestamps that are integers in
    int64, rings of 1 or 2 and steps of 0 to 5.  Otherwise ValueError names
    the first bad value of the first column that has one.  The log keeps
    read-only copies of the columns.
    """

    timestamp_ms: np.ndarray
    ring: np.ndarray
    step: np.ndarray

    def __post_init__(self) -> None:
        times, fault = _int64_column(self.timestamp_ms, "timestamp_ms")
        ring, step = np.asarray(self.ring), np.asarray(self.step)
        if any(col.shape != times.shape or col.ndim != 1 for col in (times, ring, step)):
            raise ValueError("columns must be one-dimensional and of equal length")
        if fault is not None:
            raise fault[1]
        for name, col, lo, hi, text in (("ring", ring, 1, 2, "1 or 2"),
                                        ("step", step, 0, 5, "in 0-5")):
            # Integers compare in their own dtype, where none wraps.
            if col.dtype.kind in "biu":
                ok = (col >= lo) & (col <= hi)
            else:
                ok = np.isin(col, range(lo, hi + 1))
            if not ok.all():
                raise ValueError(f"{name} {col[ok.argmin()]} is not {text}")
        for name, col, dtype in (("timestamp_ms", times, np.int64), ("ring", ring, np.int8),
                                 ("step", step, np.int8)):
            col = np.array(col, dtype=dtype)  # a copy, which the log owns
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.timestamp_ms)


def ingest_events(
    log: EventLog,
    tolerance: float = DEFAULT_TOLERANCE_S,
) -> CycleTable:
    """Reconstruct per-cycle duration records from a phase-event log.

    The log must be sorted by timestamp and contain both rings.  One record
    is produced per completed cycle; incomplete leading or trailing cycles
    are dropped.  Durations are transition-timestamp differences converted
    to seconds.

    Raises OutOfOrderEvent on a timestamp regression, RingSequenceViolation
    when the phase order breaks a ring pattern (or the stream has a time
    gap), and BarrierViolation when the barrier identities fail beyond
    ``tolerance`` seconds.  Each names the first failing event or cycle.
    A tolerance that is not a finite number >= 0 in milliseconds raises
    ValueError.
    """
    if not isinstance(log, EventLog):
        raise TypeError(f"expected an EventLog, got {type(log).__name__}")
    tol_ms = tolerance * 1000
    if not 0 <= tol_ms < np.inf:  # nan fails too
        raise ValueError(f"tolerance must be a finite number >= 0 in ms, got {tolerance!r} s")
    tol_ms = int(round(tol_ms))
    ts = log.timestamp_ms
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if back.size:
        i = back[0] + 1
        raise OutOfOrderEvent(f"timestamp {ts[i]} ms after {ts[i - 1]} ms")

    # Every time difference taken below is at most the log's span; past
    # int64, Python integers keep the differences exact.
    if len(ts) and int(ts[-1]) - int(ts[0]) > _INT64_MAX:
        ts = ts.astype(object)
    at = {ring: np.flatnonzero(log.ring == ring) for ring in RING_SEQUENCE}
    r1, r2 = (
        _ring_cycles(ts[at[ring]], log.step[at[ring]], ring, tol_ms) for ring in RING_SEQUENCE
    )

    # Drop unpaired leading cycles until both rings open together.
    a, b = r1[:, 0], r2[:, 0]
    i = j = 0
    while i < len(a) and j < len(b) and abs(a[i] - b[j]) > tol_ms:
        if a[i] < b[j]:
            i += 1
        else:
            j += 1
    n = min(len(a) - i, len(b) - j)
    r1, r2 = r1[i:i + n], r2[j:j + n]

    apart = np.abs(r1[:, 0] - r2[:, 0])
    length = np.asarray((r1[:, 5] - r1[:, 0]) / 1000.0, dtype=float)
    ends_minus_starts = np.hstack([r1[:, 1::2] - r1[:, ::2], r2[:, 1::2] - r2[:, ::2]])
    durs = np.asarray(ends_minus_starts / 1000.0, dtype=float).T
    columns = (np.arange(len(length)), r1[:, 0], length, *durs)
    # The first failing cycle raises; rings opening apart is its first rule.
    fault = _check(columns, tolerance)[1]
    far = np.flatnonzero(apart > tol_ms)
    if far.size and (fault is None or far[0] <= fault[0]):
        raise BarrierViolation(f"cycle {far[0]}: rings open {apart[far[0]]} ms apart")
    if fault is not None:
        raise fault[1]
    return CycleTable.from_columns(*columns)


_STEPS = np.arange(6, dtype=np.int8)  # a cycle's steps in order


def _ring_cycles(t: np.ndarray, step: np.ndarray, ring: int, tol_ms: int) -> np.ndarray:
    """One ring's complete cycles, one row of its six transition times each.

    Leading events before the ring's first cycle-opening start are dropped
    (they belong to a cycle whose beginning we never saw); a trailing
    incomplete cycle is dropped too.  Everything in between must follow the
    ring pattern exactly, with consecutive spans contiguous in time: phase
    k+1 starts where phase k ended, and the next cycle's opening phase
    starts where the previous cycle closed.  A violation raises
    RingSequenceViolation for the first offending event.
    """
    seq = RING_SEQUENCE[ring]
    opens = np.flatnonzero(step == 0)
    if not opens.size:
        raise RingSequenceViolation(f"ring {ring}: no {seq[0]} start in stream")
    t, step = t[opens[0]:], step[opens[0]:]
    n = len(t)
    k = n // 6
    wrong = np.flatnonzero(step[:6 * k].reshape(k, 6) != _STEPS)
    if not wrong.size:
        wrong = np.flatnonzero(step[6 * k:] != _STEPS[:n - 6 * k]) + 6 * k
    gaps = np.flatnonzero(t[2::2] - t[1:-1:2] > tol_ms)  # start vs. the end before it
    bad = wrong[0] if wrong.size else n
    gap = 2 * gaps[0] + 2 if gaps.size else n
    if bad < n and bad <= gap:
        got, want = step[bad], bad % 6
        raise RingSequenceViolation(
            f"ring {ring}: got {seq[got // 2]} {_KINDS[got % 2]} at {t[bad]} ms, "
            f"expected {seq[want // 2]} {_KINDS[want % 2]}"
        )
    if gap < n:
        raise RingSequenceViolation(
            f"ring {ring}: {seq[gap // 2 % 3]} starts at {t[gap]} ms but "
            f"{seq[(gap - 1) // 2 % 3]} ended at {t[gap - 1]} ms (stream not contiguous)"
        )
    return t[:6 * k].reshape(k, 6)


# ---------------------------------------------------------------------------
# Slicing


def stratum_key(length_s: float) -> float:
    """The cycle length rounded to 0.1 s, which strata are matched and fitted by."""
    return round(length_s, 1)  # not np.round: they disagree (100.35 -> 100.3 vs 100.4)


def stratify(table: CycleTable, cycle_length: float) -> CycleTable:
    """Select exactly the records whose cycle length matches, order preserved.

    Matching is exact after rounding both sides to 0.1 s.  Raises
    EmptyStratum when nothing matches.
    """
    if cycle_length <= 0:
        raise ValueError("cycle_length must be positive")
    key = stratum_key(cycle_length)
    lengths, inverse = np.unique(table.length_s, return_inverse=True)
    keep = np.array([stratum_key(x) == key for x in lengths.tolist()], dtype=bool)[inverse]
    if not keep.any():
        raise EmptyStratum(f"no cycles with L = {key} s")
    return table._select(keep)


def day_number(day: "dt.date | int") -> int:
    """Days since the Unix epoch for a date, or an int passed through."""
    if isinstance(day, dt.datetime):
        day = day.date()
    if isinstance(day, dt.date):
        return (day - dt.date(1970, 1, 1)).days
    return int(day)


def window(table: CycleTable, target_day: "dt.date | int", delta_days: int) -> CycleTable:
    """Select the ``delta_days`` calendar days before ``target_day``.

    Keeps records whose day index lies in [target - delta, target - 1]; the
    target day itself is excluded so a prediction for that day uses only
    past data.  A window reaching before the first recorded day is clipped
    to what exists; EmptyStratum is raised only when nothing remains.
    """
    if delta_days < 1:
        raise ValueError("delta_days must be >= 1")
    target = day_number(target_day)
    lo, hi = target - delta_days, target - 1
    days = table.day_indices()
    keep = (lo <= days) & (days <= hi)
    if not keep.any():
        raise EmptyStratum(f"no cycles in days [{lo}, {hi}]")
    return table._select(keep)


# ---------------------------------------------------------------------------
# CSV interfaces


# Each event code's one `ring,phase,kind` spelling: write_event_csv writes
# it, and the block parser below matches it.
_SPELLING: dict[int, str] = {code: ",".join(key) for key, code in _EVENT_CODE.items()}
_WRITE_ROWS = 1 << 16  # rows formatted per write


def write_event_csv(log: EventLog, target) -> None:
    """Write an event log as CSV, in the bytes ``csv.writer`` would write:
    the header, then ``timestamp,ring,phase,kind`` rows ending in ``\r\n``."""
    with text_sink(target) as f:
        f.write(",".join(_EVENT_HEADER) + "\r\n")
        for lo in range(0, len(log), _WRITE_ROWS):
            part = slice(lo, lo + _WRITE_ROWS)
            times, codes = log.timestamp_ms[part], log.ring[part] * 8 + log.step[part]
            f.write("".join([f"{t},{_SPELLING[c]}\r\n"
                             for t, c in zip(times.tolist(), codes.tolist())]))


# Rows in block form are parsed a block of about this many bytes at a time,
# cut at a line end; blocks keep numpy's temporaries small.  Blocks of
# 128 KB, 256 KB, 512 KB and 1 MB read the ingest-month event file in 21.5,
# 18.2, 17.5 and 19.4 ms and its cycle file in 11.5, 9.8, 10.7 and 12.7 ms
# (medians of 9 on a shared 2-core x86-64 host).
_BLOCK_BYTES = 1 << 18


def read_event_csv(source) -> EventLog:
    """Read a phase-event CSV; a bad row raises MalformedRow with its line.

    ``source`` is a path, read as UTF-8 bytes, or an open text handle, read
    whole, past one leading BOM.  After the header, rows in block form are
    parsed in numpy blocks: an ``int`` timestamp of 1 to 18 ASCII digits,
    then one ``enum`` field, one of the twelve ``ring,phase,kind`` spellings
    write_event_csv writes, and a line end of ``\\n`` or ``\\r\\n``.  The
    first row in any other form (a sign, a space, a quote, a timestamp of
    19 digits, a ring spelled ``01``), and every row after it, goes through
    the per-row loop read_cycle_csv shares, where the timestamp and ring
    are parsed with ``int()`` and the ring, phase and kind are checked in
    that order.  A header in any other form sends the whole file through
    that loop.  A byte that is not UTF-8 raises MalformedRow for its line.
    """
    # The parts are joined once the file's bytes are freed.
    times, codes = map(np.concatenate, zip(*_read_blocks(source, _EVENT_SCHEMA)))
    return EventLog(times, codes >> 3, codes & 7)


def _read_blocks(source, schema) -> list[list[np.ndarray]]:
    """The columns of a CSV file's rows, in parts, one part per block.

    ``source`` is a path, read as UTF-8 bytes, or an open text handle, read
    whole; one leading BOM is skipped, and line numbers do not change.
    After the schema's header and a ``\\n`` or ``\\r\\n``, blocks of whole
    lines go to ``_parse_block``.  The first row it leaves, and every row
    after it, goes to ``_read_per_row(lines, line, schema) -> columns``;
    ``line`` is the file line before ``lines``, which start with the header
    when it is 0.
    """
    if hasattr(source, "read"):
        text = source.read().removeprefix("\ufeff")
        # A lone surrogate stays in the text for the per-row loop to reject.
        data = text.encode("utf-8", "surrogatepass")
    else:
        text, data = None, Path(source).read_bytes().removeprefix(codecs.BOM_UTF8)
    head = ",".join(schema.header).encode()
    parts = []
    pos = line = 0
    for eol in (b"\n", b"\r\n"):
        if data.startswith(head + eol):
            pos, line = len(head) + len(eol), 1
    # One block at least, which gives a file without rows its typed columns.
    while line:
        end = data.find(b"\n", pos + _BLOCK_BYTES - 1) + 1 or len(data)
        columns, pos = _parse_block(np.frombuffer(data, np.uint8, end), pos, schema)
        parts.append(columns)
        line += len(columns[0])
        if pos < end or pos == len(data):
            break
    if pos < len(data) or not line:
        if text is None:
            lines = _decoded_lines(data[pos:], line)
        else:
            # The rest splits into lines as the handle splits them: at every
            # line end when it reads universal newlines, else at "\n".
            newline = "\n" if getattr(source, "newlines", None) is None else ""
            lines = io.StringIO(text[pos:], newline=newline)  # the prefix is ASCII
        parts.append(_read_per_row(lines, line, schema))
    return parts


def _parse_block(buf: np.ndarray, pos: int, schema) -> tuple[list[np.ndarray], int]:
    """The columns of the leading rows in ``schema``'s form of the block of
    whole lines from ``pos`` to the end of ``buf``, and where they end.

    A row is in form when its commas and line end cut it into one field per
    column, each in its column kind's form, and its values pass
    ``schema.check``; the first row that is not is left to the per-row
    loop, which reports it.  ``buf`` holds the file from its start, so a
    field's words may read back past ``pos``.
    """
    # end[j] holds each row's end of field j: its comma, or for the last
    # field its line end, a "\r" before that left out.
    n = sum(m for _, m in schema.kinds)
    if isinstance(schema.kinds[-1][0], _Enum):
        # A last column of kind enum is found from the line end: its last
        # byte gives its width, and so the comma before it, and only line
        # ends are scanned.  A scan for every comma doubles the event
        # reader's time.  (take gathers by a byte faster than indexing.)
        line_ends = np.flatnonzero(buf[pos:] == ord("\n")) + pos
        last = line_ends - (buf[line_ends - 1] == ord("\r"))
        end = np.stack([last - schema.kinds[-1][0].width_by_last.take(buf[last - 1]) - 1,
                        last])
        off_grid = buf[end[0]] != ord(",")
    else:
        # Every comma and line end in one scan, n to a row in form.
        seps = np.flatnonzero((buf[pos:] == ord(",")) | (buf[pos:] == ord("\n"))) + pos
        grid = seps[:len(seps) // n * n].reshape(-1, n).T
        off_grid = (buf[grid] != np.array([[ord(",")]] * (n - 1) + [[ord("\n")]])).any(axis=0)
        line_ends = grid[-1]
        end = np.concatenate([grid[:-1], [line_ends - (buf[line_ends - 1] == ord("\r"))]])
    k = _first(off_grid)
    end, line_ends = end[:, :k], line_ends[:k]
    # Field j starts after field j - 1's comma, or after the line end before the row.
    width = end - np.vstack([np.concatenate(([pos - 1], line_ends))[:k], end[:-1]]) - 1
    values, ok, j = [], np.ones(k, bool), 0
    for kind, m in schema.kinds:  # m columns of one kind in one call
        got, got_ok = kind(buf, end[j:j + m].ravel(), width[j:j + m].ravel())
        values += list(got.reshape(m, k))
        ok &= got_ok.reshape(m, k).all(axis=0) if m > 1 else got_ok
        j += m
    columns, fault = schema.check(values)
    k = min(_first(~ok), fault[0] if fault else k)
    return [values[:k] for values in columns], int(line_ends[k - 1]) + 1 if k else pos


# A column kind reads a column's fields from their ends and widths in buf,
# as kind(buf, end, width) -> (values, ok), ok telling whether each field is
# in the kind's form; a field out of form, of any width, reads as any value.
# The int kind is _digits, below.
_MAX_DIGITS = 18  # every integer of up to 18 digits fits in int64


# A decimal of up to 15 digits is an integer k below 2**53 over 10**d, two
# exact doubles, so one correctly rounded division gives float()'s value
# (Clinger, "How to Read Floating Point Numbers Accurately", PLDI 1990).  In
# its last 8 bytes, read as one word, a point before d decimals is byte 7 -
# d: a multiply gathers which of bytes 4-7 are points into bits 24-27, and
# _POINT_AT makes them p = d + 1, or 0 for none (of two points, either
# fails the digits).  Moving the bytes before the point up one byte
# squeezes it out and leaves the last 7 digits in bytes 1-7, for _eight;
# with no point, byte 0 goes.
_MAX_DECIMAL_DIGITS = 15
_IN_FIELD = np.array([0b0000, 0b1000, 0b1100, 0b1110, 0b1111], np.uint32)  # by width to 4
_POINT_AT = np.array([0] + [5 - bits.bit_length() for bits in range(1, 16)])
_SCALE = np.array([1.0, 1.0, 10.0, 100.0, 1000.0])  # 10**d by p
_BEFORE_POINT = np.array([(1 << 8 * ((8 - p) % 8)) - 1 for p in range(5)], np.uint64)
_AFTER_POINT = np.array([2**64 - (1 << 8 * ((8 - p) % 8 + 1)) for p in range(5)], np.uint64)


def _decimal_field(buf: np.ndarray, end: np.ndarray, width: np.ndarray):
    """The ``decimal`` kind: 1 to 15 ASCII digits with at most one point,
    which has at most three digits after it, as float64."""
    last = _words(buf)[end - 8]
    dots = ((last >> _BITS_32).astype(np.uint32).view(np.uint8) == ord(".")).view("<u4")
    point = _POINT_AT.take(dots * np.uint32(0x01020408) >> np.uint32(24)
                           & _IN_FIELD[width.clip(max=4)])
    digits = width - (point > 0)
    squeezed = ((last & _BEFORE_POINT[point]) << _BITS_8) | (last & _AFTER_POINT[point])
    k, ok = _eight(squeezed, digits.clip(0, 7))
    rest = (digits - 7).clip(0, _MAX_DECIMAL_DIGITS - 7)  # digits before those
    if rest.max(initial=0):
        high, high_ok = _digits(buf, end - 8 + (point == 0), rest)
        k += high.view(np.uint64) * np.uint64(10**7)
        ok &= high_ok | (rest == 0)
    return (k.view(np.int64) / _SCALE[point],
            ok & (digits >= 1) & (digits <= _MAX_DECIMAL_DIGITS))


_HASH = np.uint64(0x9E3779B97F4A7C15)  # odd, near 2**64 / phi


class _Enum:
    """The ``enum`` kind: one of a few spellings of 8 to 16 bytes, as its
    small value.

    A field's key is its last 8 bytes, read as one little-endian word; the
    top 4 bits of key * _HASH pick its slot in a 16-slot table of each
    spelling's key, width, value and bytes before the key.  An empty slot
    has width -1, which no field has.
    """

    def __init__(self, spellings: dict[str, int]) -> None:
        self.keys, self.widths, self.values = (np.zeros(16, "<u8"), np.full(16, -1),
                                               np.zeros(16, np.int8))
        # before[p - 9][slot]: byte p from the end of the slot's spelling.
        self.before = np.zeros((max(map(len, spellings)) - 8, 16), np.uint8)
        self.width_by_last = np.zeros(256, np.int64)  # a spelling's width by its last byte
        for s, value in zip(map(str.encode, spellings), spellings.values()):
            key = int.from_bytes(s[-8:], "little")
            slot = key * int(_HASH) % 2**64 >> 60  # distinct for the event tails
            self.keys[slot], self.widths[slot], self.values[slot] = key, len(s), value
            self.before[:len(s) - 8, slot] = list(s[-9::-1])
            self.width_by_last[s[-1]] = len(s)

    def __call__(self, buf: np.ndarray, end: np.ndarray, width: np.ndarray):
        key = _words(buf)[end - 8]
        slot = ((key * _HASH) >> np.uint64(60)).astype(np.intp)  # a cast gathers faster
        ok = (self.keys[slot] == key) & (self.widths[slot] == width)
        for p, table in enumerate(self.before, 9):
            ok &= (buf[end - p] == table[slot]) | (width < p)
        return self.values[slot], ok


# _digits reads a field of up to 18 ASCII digits as int64, eight digits to
# a word (Langdale & Lemire, "Parsing Gigabytes of JSON per Second", VLDB J.
# 2019).  The 8 bytes before a field's end, read as one little-endian word,
# hold its last 8 digits, the first of them in the lowest byte.  XOR with
# "0" in every byte turns the digits into 0-9 and every other byte into
# something larger; _KEEP zeroes the bytes before the field.  A byte then
# is a digit when neither it nor it plus 0x76 has its top bit set; a carry
# out of one byte's sum comes only from a byte that already fails.  Three
# multiply-shift steps then fold the bytes into pairs, quads and the whole:
# 2561 = 10 * 2**8 + 1, 6553601 = 100 * 2**16 + 1, 42949672960001 =
# 10000 * 2**32 + 1.  The word before covers digits 9-16 once any field
# has them, and a third word the fields with more.  Every constant is a
# uint64, so no step leaves uint64 on any numpy version.
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], dtype=np.uint64)
_ZEROS = np.uint64(0x3030303030303030)
_DIGIT_ADD = np.uint64(0x7676767676767676)
_TOP_BITS = np.uint64(0x8080808080808080)
_PAIRS, _QUADS, _HALVES = (np.uint64(factor) for factor in (2561, 6553601, 42949672960001))
_BYTE_LANES = np.uint64(0x00FF00FF00FF00FF)
_SHORT_LANES = np.uint64(0x0000FFFF0000FFFF)
_BITS_8, _BITS_16, _BITS_32 = (np.uint64(bits) for bits in (8, 16, 32))


def _digits(buf: np.ndarray, end: np.ndarray, width: np.ndarray):
    """The ``int`` kind: the fields of 1 to 18 ASCII digits ending before
    each ``end`` in ``buf``, as int64, and whether each is one.

    A field's words may start up to 15 bytes before it, so ``buf`` must
    hold those bytes; both CSV headers are longer.
    """
    words, digits = _words(buf), width.clip(0, _MAX_DIGITS)
    value, ok = _eight(words[end - 8], digits.clip(max=8))
    widest = digits.max(initial=0)
    if widest > 8:
        high, high_ok = _eight(words[end - 16], (digits - 8).clip(0, 8))
        value += high * np.uint64(10**8)
        ok &= high_ok
    if widest > 16:
        wide = np.flatnonzero(digits > 16)
        top, top_ok = _eight(words[end[wide] - 24], digits[wide] - 16)
        value[wide] += top * np.uint64(10**16)
        ok[wide] &= top_ok
    return value.view(np.int64), ok & (width >= 1) & (width <= _MAX_DIGITS)


def _words(buf: np.ndarray) -> np.ndarray:
    """The unaligned little-endian uint64 word starting at each byte of
    ``buf`` that has 8 bytes from it, as a view."""
    return np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))


def _eight(word: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last ``width`` (0 to 8) bytes of each word as a decimal number,
    and whether they all are digits."""
    v = (word ^ _ZEROS) & _KEEP[width]
    ok = ((v + _DIGIT_ADD) | v) & _TOP_BITS == 0
    v = (v * _PAIRS) >> _BITS_8
    v = ((v & _BYTE_LANES) * _QUADS) >> _BITS_16
    return ((v & _SHORT_LANES) * _HALVES) >> _BITS_32, ok


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length if none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _decoded_lines(data: bytes, line: int) -> Iterator[str]:
    """The lines of ``data`` as a file opened with newline="" gives them.

    ``line`` is the file line before ``data``.  An undecodable byte raises
    MalformedRow for its line once the lines before it are read.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        fault = exc
    else:
        yield from io.StringIO(text, newline="")
        return
    cut = max(data.rfind(b"\n", 0, fault.start), data.rfind(b"\r", 0, fault.start)) + 1
    before = io.StringIO(data[:cut].decode("utf-8"), newline="").readlines()
    yield from before
    in_line = UnicodeDecodeError(
        fault.encoding, data[cut:fault.end], fault.start - cut, fault.end - cut, fault.reason
    )
    raise MalformedRow(line + len(before) + 1, str(in_line)) from fault


def _read_rows(lines: Iterable[str], line: int, header: list[str], parse_row):
    """Parse rows one at a time with ``parse_row(fields)``.

    ``line`` is the file line before ``lines``, which start with
    ``header`` when it is 0.  Returns ``(rows, lines_at, fault)``: the
    parsed rows, each row's file line, and the error to raise once those
    rows are checked, or None.  The error is a MalformedRow for the first
    row that fails to read or parse, which ``rows`` stop before, or a
    ValueError for a header that differs.
    """
    rows = csv.reader(lines)
    parsed: list = []
    lines_at: list[int] = []
    try:
        got = next(rows, None) if not line else header
        if got != header:
            return parsed, lines_at, ValueError(f"expected header {header}, got {got}")
        for fields in rows:
            parsed.append(parse_row(fields))
            lines_at.append(line + rows.line_num)
    except (ValueError, csv.Error) as exc:
        fault = MalformedRow(line + rows.line_num, str(exc))
        fault.__cause__ = exc
        return parsed, lines_at, fault
    except MalformedRow as fault:  # an undecodable byte, which names its line
        return parsed, lines_at, fault
    return parsed, lines_at, None


def _read_per_row(lines: Iterable[str], line: int, schema) -> list[np.ndarray]:
    """The columns of rows parsed one at a time, checked together."""
    rows, lines_at, fault = _read_rows(lines, line, schema.header, schema.parse_row)
    columns, checked = schema.check(list(zip(*rows)) or [()] * sum(m for _, m in schema.kinds))
    # A parsed row that breaks a rule comes before a later row that fails
    # to read or parse.
    if checked is not None:
        i, exc = checked
        raise MalformedRow(lines_at[i], str(exc)) from exc
    if fault is not None:
        raise fault
    return columns


def _parse_event_row(fields: list[str]) -> tuple[int, int]:
    """A row's timestamp and event code."""
    ts, ring, phase, kind = fields
    t = int(ts)
    # Only a string of 19 or more characters can leave int64.
    if len(ts) > 18 and not _INT64_MIN <= t <= _INT64_MAX:
        raise ValueError(f"timestamp {ts} ms does not fit in int64")
    code = _EVENT_CODE.get((ring, phase, kind))
    if code is None:  # another spelling of the ring, or an invalid event
        number = int(ring)
        code = _EVENT_CODE.get((str(number), phase, kind))
        if number not in RING_SEQUENCE:
            raise ValueError(f"unknown ring {number}")
        if phase not in RING_SEQUENCE[number]:
            raise ValueError(f"phase {phase!r} is not on ring {number}")
        if code is None:
            raise ValueError(f"kind must be 'start' or 'end', got {kind!r}")
    return t, code


def write_cycle_csv(table: CycleTable, target) -> None:
    """Write a cycle table as CSV, in the bytes ``csv.writer`` would write:
    the header, then rows of the two integers and the seven durations to
    0.01 s, ending in ``\\r\\n``."""
    columns = [table.cycle_index.tolist(), table.cycle_start_ms.tolist()]
    columns += [_per_distinct(getattr(table, name), "{:.2f}".format) for name in _FIELDS[2:]]
    rows = zip(*columns)
    with text_sink(target) as f:
        f.write(",".join(_CYCLE_HEADER) + "\r\n")
        for _ in range(0, len(table), _WRITE_ROWS):
            part = itertools.islice(rows, _WRITE_ROWS)
            f.write("".join([f"{i},{start},{length},{d4},{d1},{d2},{d8},{d5},{d6}\r\n"
                             for i, start, length, d4, d1, d2, d8, d5, d6 in part]))


def _per_distinct(values: np.ndarray, fn=None) -> list:
    """``[fn(x) for x in values.tolist()]`` for a float64 column, calling
    ``fn`` once per distinct value; ``fn`` of None gives the values.

    Equal values share one result object, which keeps record views and
    formatted columns small.  Values are told apart by their bits, so -0.0
    keeps its sign.
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    found = distinct.view(float).tolist()
    if fn is not None:
        found = [fn(x) for x in found]
    return np.array(found, dtype=object)[inverse].tolist()


def read_cycle_csv(source) -> CycleTable:
    """Read a cycle-record CSV into a table.

    ``source`` is a path, read as UTF-8 bytes, or an open text handle, read
    whole, past one leading BOM.  After the header, rows in block form are
    parsed in numpy blocks: two ``int`` fields of 1 to 18 ASCII digits,
    seven ``decimal`` durations of 1 to 15 ASCII digits with at most one
    point and at most three digits after it (``36``, ``36.0``, ``36.00``),
    and a line end of ``\\n`` or ``\\r\\n``.  The first row in any other
    form (a sign, an exponent, a quote, a space, a duration of 16 or more
    digits, an integer of 19 digits), and every row after it, goes through
    the per-row loop read_event_csv shares, where fields are parsed with
    ``int()`` and ``float()`` and the rows parsed are checked together.
    The first bad row raises MalformedRow with its file line:
    a wrong field count, a field that does not parse, an integer outside
    int64, values ``CycleTable`` rejects, or a byte that is not UTF-8.
    Barrier identities are not checked.
    """
    return CycleTable.from_columns(*map(np.concatenate, zip(*_read_blocks(source, _CYCLE_SCHEMA))))


def _parse_cycle_row(fields: list[str]) -> tuple:
    """A row's nine values.  Each integer is checked to fit in int64 as it
    is parsed; the other rules are ``_check``'s."""
    if len(fields) != len(_CYCLE_HEADER):
        raise ValueError(f"expected {len(_CYCLE_HEADER)} fields, got {len(fields)}")
    ints = []
    for name, text in zip(_INT_FIELDS, fields):
        ints.append(int(text))
        if not _INT64_MIN <= ints[-1] <= _INT64_MAX:
            raise ValueError(f"{name} {ints[-1]} does not fit in int64")
    return (*ints, *map(float, fields[2:]))


# A CSV form: its header, its columns' kinds as (kind, count) runs, the
# per-row parser, and check(columns) -> (columns, fault), fault as _check
# gives it.
_Schema = collections.namedtuple("_Schema", "header kinds parse_row check")
_EVENT_SCHEMA = _Schema(
    _EVENT_HEADER, ((_digits, 1), (_Enum({s: c for c, s in _SPELLING.items()}), 1)),
    _parse_event_row,
    lambda values: ([np.asarray(values[0], np.int64), np.asarray(values[1], np.int8)], None),
)
_CYCLE_SCHEMA = _Schema(_CYCLE_HEADER, ((_digits, 2), (_decimal_field, 7)), _parse_cycle_row,
                        _check)
