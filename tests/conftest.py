import pytest

from spatcast import RING_SEQUENCE, CycleRecord, CycleTable, EventLog


def event_log(events) -> EventLog:
    """An EventLog from (timestamp_ms, ring, phase, kind) tuples, in order."""
    events = list(events)
    steps = [2 * RING_SEQUENCE[ring].index(phase) + ("start", "end").index(kind)
             for _, ring, phase, kind in events]
    return EventLog([ev[0] for ev in events], [ev[1] for ev in events], steps)


def log_columns(log: EventLog) -> list:
    """A log's three columns as (dtype, values) pairs, for comparing logs."""
    return [(col.dtype.str, col.tolist()) for col in (log.timestamp_ms, log.ring, log.step)]


def _build_table(rows, start_ms=0, length=120.0):
    """Build a contiguous table from (d4, d1, d5) rows.

    d2 and d6 are derived so the barrier identities hold exactly; d8 = d4.
    A row may also be a dict overriding L per cycle.
    """
    records = []
    t_ms = start_ms
    for i, row in enumerate(rows):
        if isinstance(row, dict):
            d4, d1 = row["d4"], row["d1"]
            d5 = row.get("d5", d1)
            cycle_len = row.get("L", length)
        else:
            d4, d1, d5 = row
            cycle_len = length
        d2 = cycle_len - d4 - d1
        d6 = d1 + d2 - d5
        records.append(CycleRecord(
            cycle_index=i, cycle_start_ms=t_ms, length_s=cycle_len,
            d4=d4, d1=d1, d2=d2, d8=d4, d5=d5, d6=d6,
        ))
        t_ms += int(round(cycle_len * 1000))
    return CycleTable(tuple(records))


@pytest.fixture
def build_table():
    return _build_table
