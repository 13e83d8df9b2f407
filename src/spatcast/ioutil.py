"""A helper for functions that write to either a path or an open file."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path


@contextmanager
def text_sink(target):
    """Yield a writable text handle for a path or an already-open file."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(Path(target), "w", encoding="utf-8", newline="") as handle:
            yield handle

