#!/usr/bin/env python3
"""Regenerate the byte-exact stream fixture used by the test suite.

The fixture is a hand-built three-cycle table (no RNG involved) streamed at
a 5 s cadence, so the bytes depend only on the composition and formatting
code paths.  Run from the repository root:

    python scripts/make_stream_golden.py
"""

from pathlib import Path

from spatcast import CycleTable, fit_message_dists, stream

ROWS = [
    # (d4, d1, d5); d2/d6 derived so the barrier identities hold exactly
    (36.0, 0.0, 0.0),
    (41.0, 5.0, 10.0),
    (46.0, 10.0, 0.0),
]


def build_table() -> CycleTable:
    d4, d1, d5 = zip(*ROWS)
    d2 = [120.0 - a - b for a, b in zip(d4, d1)]
    d6 = [b + c - e for b, c, e in zip(d1, d2, d5)]
    n = len(ROWS)
    return CycleTable.from_columns(
        range(n), [120_000 * i for i in range(n)], [120.0] * n, d4, d1, d2, d4, d5, d6
    )


def main() -> None:
    table = build_table()
    dists = fit_message_dists(table)
    target = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_stream.ndjson"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="") as out:
        count = stream(table, dists, out, cadence_ms=5000, alpha=0.8, site_id="golden")
    print(f"wrote {count} messages to {target}")


if __name__ == "__main__":
    main()
