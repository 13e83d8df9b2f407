"""Output checks for the benchmark workloads.

Every reference here is computed by the benchmark from the input files with
numpy, without calling spatcast, so a defect in the program cannot hide in
the oracle.  Each check returns the operations it rejects; the workloads
turn those into the ``failed`` count of the result line.

Conventions shared with the program (and with the README's file formats):
strict ``> t`` conditioning, the exceedance value is the largest sample the
conditioned samples still reach with probability alpha, the asymmetric
predictor is the c1/(c1+c2) lower quantile, and an empty condition degrades
to a hold of ``HOLD_S`` seconds.
"""

from __future__ import annotations

import csv
import hashlib
import json
from array import array

import numpy as np

HOLD_S = 1.0
FIELDS = (
    "site", "cycle", "phase", "madeAt", "startTime", "minEndTime", "maxEndTime",
    "likelyTime", "confidenceAlpha", "confidenceValue", "nextTime", "degraded",
)
# Two-decimal printing puts a correct value within half a centisecond.
PRINT_TOL = 0.005 + 1e-7
# Comparison CSVs print six decimals, so a correct value is within 5e-7.
CURVE_TOL = 1e-6

RING_KEYS = {1: ("d4", "d1", "d2"), 2: ("d8", "d5", "d6")}
RING_PHASES = {1: ("p4", "p1", "p2"), 2: ("p8", "p5", "p6")}
PHASE_KEYS = {p: (ring, i) for ring, ps in RING_PHASES.items() for i, p in enumerate(ps)}
CYCLE_COLUMNS = ("cycle_index", "cycle_start_ms", "L", "d4", "d1", "d2", "d8", "d5", "d6")


def read_cycle_columns(path) -> dict[str, np.ndarray]:
    """Columns of a cycle-record CSV, read with numpy."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(CYCLE_COLUMNS):
        raise ValueError(f"{path}: expected {len(CYCLE_COLUMNS)} columns")
    return {name: data[:, i] for i, name in enumerate(CYCLE_COLUMNS)}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# ---------------------------------------------------------------------------
# Predictors over sorted conditioned samples


def _first_count(m: int, p: float) -> int:
    """Smallest k in 1..m with k/m >= p, the same float test the program makes."""
    return int(np.argmax(np.arange(1, m + 1) / m >= p)) + 1


def exceedance_value(c: np.ndarray, alpha: float) -> float:
    """Largest sample that at least alpha of the sorted samples ``c`` reach."""
    return float(c[c.size - _first_count(c.size, alpha)])


def lower_quantile(c: np.ndarray, p: float) -> float:
    """Smallest sample whose empirical cdf over sorted ``c`` reaches p."""
    return float(c[_first_count(c.size, p) - 1])


def predictor_fn(spec: str):
    """The reference predictor for a ``--compare`` entry."""
    name, _, rest = spec.partition(":")
    if name == "expectation":
        return lambda c: float(c.mean())
    if name == "confidence":
        alpha = float(rest)
        return lambda c: exceedance_value(c, alpha)
    if name == "asymmetric":
        c1, c2 = (float(x) for x in rest.split(":"))
        return lambda c: lower_quantile(c, c1 / (c1 + c2))
    raise ValueError(f"unknown predictor {spec!r}")


# ---------------------------------------------------------------------------
# Error curves


def read_comparison(path) -> dict[tuple[str, str], dict[float, tuple[float, int]]]:
    """Comparison CSV as {(predictor, metric): {t: (value, n)}}."""
    curves: dict = {}
    with open(path, newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        if next(rows, None) != ["t", "predictor", "metric", "value", "n"]:
            raise ValueError(f"{path}: unexpected comparison header")
        for t, pred, metric, value, n in rows:
            curves.setdefault((pred, metric), {})[float(t)] = (float(value), int(n))
    return curves


def _losses(errs: np.ndarray) -> dict[str, float]:
    return {"mae": float(np.abs(errs).mean()), "mse": float((errs * errs).mean())}


def insample_point(x: np.ndarray, t: float, spec: str) -> dict[str, float]:
    """MAE and MSE at t of one predictor fitted and scored on samples ``x``."""
    surv = np.sort(x[x > t])
    return _losses(predictor_fn(spec)(surv) - surv)


def loo_point(x: np.ndarray, t: float, spec: str) -> dict[str, float]:
    """MAE and MSE at t, refitting without each scored cycle (brute force)."""
    f = predictor_fn(spec)
    errs = []
    for i in np.flatnonzero(x > t):
        train = np.delete(x, i)
        c = np.sort(train[train > t])
        pred = t + HOLD_S if c.size == 0 else f(c)
        errs.append(pred - x[i])
    return _losses(np.array(errs))


def check_curves(curves, x, specs, metrics, check_ts, point_fn) -> list[str]:
    """Curves that are missing, off-grid, or wrong at one of ``check_ts``.

    Every curve must cover the grid 0, 1, ... below max(x) with the survivor
    count of each point; at each t in ``check_ts`` its value must match
    ``point_fn(x, t, spec)`` to the printed precision.
    """
    grid = np.arange(0.0, float(x.max()), 1.0)
    counts = {float(t): int((x > t).sum()) for t in grid}
    refs = {(spec, t): point_fn(x, t, spec) for spec in specs for t in check_ts}
    bad = []
    for spec in specs:
        for metric in metrics:
            curve = curves.get((spec, metric))
            ok = curve is not None and {t: n for t, (_, n) in curve.items()} == counts
            ok = ok and all(
                abs(curve[t][0] - refs[(spec, t)][metric]) <= CURVE_TOL for t in check_ts
            )
            if not ok:
                bad.append(f"{spec}/{metric}")
    extra = set(curves) - {(s, m) for s in specs for m in metrics}
    bad.extend(f"{s}/{m} (unexpected)" for s, m in sorted(extra))
    return bad


def pick_check_ts(x: np.ndarray, seed: int, k: int = 2) -> list[float]:
    """First and last grid point plus ``k`` interior ones drawn from the seed."""
    top = int(np.ceil(x.max())) - 1
    rng = np.random.default_rng(seed)
    inner = rng.choice(np.arange(1, top), size=k, replace=False) if top > k else []
    return sorted({0.0, float(top), *(float(t) for t in inner)})


# ---------------------------------------------------------------------------
# Cycle tables and distributions


def table_mismatch(got: dict, want: dict, tol: float = 0.01 + 1e-9) -> str | None:
    """Why a cycle table read back differs from the simulated one, or None."""
    n_got, n_want = got["cycle_index"].size, want["cycle_index"].size
    if n_got != n_want:
        return f"{n_got} cycles, expected {n_want}"
    if not np.array_equal(got["cycle_index"], np.arange(n_want)):
        return "cycle_index is not 0..n-1"
    if not np.array_equal(got["cycle_start_ms"], want["cycle_start_ms"]):
        return "cycle_start_ms differs"
    for name in CYCLE_COLUMNS[2:]:
        if np.abs(got[name] - want[name]).max() > tol:
            return f"{name} differs by more than {tol:g} s"
    return None


def distribution_mismatch(path, samples: np.ndarray) -> str | None:
    """Why a ``fit`` (value, probability) dump differs from ``samples``, or None."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    values, counts = np.unique(np.round(samples, 2), return_counts=True)
    if data.shape != (values.size, 2):
        return f"{data.shape[0]} support values, expected {values.size}"
    if np.abs(data[:, 0] - values).max() > PRINT_TOL:
        return "support values differ"
    probs = counts / samples.size
    if np.abs(data[:, 1] - probs).max() > 1e-9:
        return "probabilities differ"
    return None


# ---------------------------------------------------------------------------
# Message stream


class StreamReference:
    """Expected message fields of an emit replay, computed from the cycle CSV."""

    def __init__(self, cols: dict[str, np.ndarray], cadence_ms: int, alpha: float):
        lengths = np.unique(cols["L"])
        if lengths.size != 1:
            raise ValueError("the stream reference needs one cycle length")
        self.length = float(lengths[0])
        self.cols = cols
        self.cadence_ms = cadence_ms
        self.alpha = alpha
        length_ms = int(round(self.length * 1000))
        self.ticks_per_cycle = len(range(0, length_ms, cadence_ms))
        self.n_cycles = int(cols["L"].size)
        self.ticks = self.ticks_per_cycle * self.n_cycles
        self.means = {k: float(cols[k].mean()) for k in ("d4", "d1", "d8", "d5")}
        self._cache: dict[tuple[str, int], tuple] = {}

    def stats(self, phase: str, t_ms: int) -> tuple:
        """(minEnd, maxEnd, likely, confidence, next, degraded) for one phase."""
        key = (phase, t_ms)
        if key not in self._cache:
            self._cache[key] = self._stats(phase, t_ms / 1000.0)
        return self._cache[key]

    def _stats(self, phase: str, t: float) -> tuple:
        ring, idx = PHASE_KEYS[phase]
        first, mid, _ = RING_KEYS[ring]
        L = self.length
        if idx == 2:
            return L, L, L, L, L + self.means[first] + self.means[mid], False
        x = self.cols[first] if idx == 0 else self.cols[first] + self.cols[mid]
        c = np.sort(x[x > t])
        if c.size == 0:
            held = t + HOLD_S
            return held, held, held, held, held + L, True
        nxt = L if idx == 0 else L + self.means[first]
        return (max(t, float(c[0])), float(c[-1]), float(c.mean()),
                exceedance_value(c, self.alpha), nxt, False)

    def expected(self, line_no: int) -> tuple:
        """(cycle, phase, madeAt, startTime, stats) of the stream's line ``line_no``."""
        tick, ring = divmod(line_no, 2)
        j, i = divmod(tick, self.ticks_per_cycle)
        t_ms = i * self.cadence_ms
        t = t_ms / 1000.0
        first, mid, _ = RING_KEYS[ring + 1]
        d_first, d_mid = self.cols[first][j], self.cols[mid][j]
        phases = RING_PHASES[ring + 1]
        if t < d_first:
            phase, start = phases[0], 0.0
        elif t < d_first + d_mid:
            phase, start = phases[1], float(d_first)
        else:
            phase, start = phases[2], float(d_first + d_mid)
        return int(self.cols["cycle_index"][j]), phase, t, start, self.stats(phase, t_ms)


def _message_matches(obj: dict, want: tuple, alpha: float) -> bool:
    cycle, phase, t, start, (lo, hi, likely, conf, nxt, degraded) = want
    nums = (
        (obj["madeAt"], t), (obj["startTime"], start), (obj["minEndTime"], lo),
        (obj["maxEndTime"], hi), (obj["likelyTime"], likely),
        (obj["confidenceAlpha"], alpha), (obj["confidenceValue"], conf),
        (obj["nextTime"], nxt),
    )
    return (
        obj["site"] == "" and obj["cycle"] == cycle and type(obj["cycle"]) is int
        and obj["phase"] == phase and obj["degraded"] is degraded
        and all(type(v) in (int, float) and abs(v - w) <= PRINT_TOL for v, w in nums)
    )


class StreamChecker:
    """Checks an NDJSON stream fed to it in batches of whole lines.

    Every line must parse as strict JSON (no NaN or Infinity) into an object
    with exactly ``FIELDS`` in order.  The lines of every ``every``-th tick
    are compared field by field with ``StreamReference``.  ``bad`` holds the
    numbers of rejected lines.
    """

    def __init__(self, ref: StreamReference, every: int = 7):
        self.ref = ref
        self.every = every
        self.lines = 0
        self.degraded = 0
        self.bad: set[int] = set()

    def feed(self, text: str) -> None:
        lines = text.split("\n")
        lines.pop()  # text ends with a newline
        base = self.lines
        self.lines += len(lines)
        self.degraded += text.count('"degraded":true')
        objs = self._parse(lines)
        for k, obj in enumerate(objs):
            if type(obj) is not dict or tuple(obj) != FIELDS:
                self.bad.add(base + k)
        k = self.every
        first_tick = -(-(base // 2) // k) * k
        for tick in range(first_tick, (self.lines + 1) // 2, k):
            for line_no in (2 * tick, 2 * tick + 1):
                if base <= line_no < self.lines and line_no not in self.bad:
                    self._check_line(line_no, objs[line_no - base])

    def _check_line(self, line_no: int, obj: dict) -> None:
        if line_no >= 2 * self.ref.ticks:
            self.bad.add(line_no)
        elif not _message_matches(obj, self.ref.expected(line_no), self.ref.alpha):
            self.bad.add(line_no)

    @staticmethod
    def _parse(lines: list[str]) -> list:
        # One decode per batch is several times faster than one per line; the
        # per-line fallback pins down which lines are broken.
        try:
            objs = json.loads("[" + ",".join(lines) + "]", parse_constant=_reject_constant)
            if len(objs) == len(lines) and all(lines):
                return objs
        except ValueError:
            pass
        out = []
        for line in lines:
            try:
                out.append(json.loads(line, parse_constant=_reject_constant))
            except ValueError:
                out.append(None)
        return out

    def failed(self) -> int:
        """Messages rejected, plus messages missing or in excess."""
        expected = 2 * self.ref.ticks
        return sum(1 for b in self.bad if b < expected) + abs(expected - self.lines)


class StreamSink:
    """Stand-in for stdout: accepts every write at once.

    A write only stamps the pass clock and appends to a buffer.  Every
    ``batch`` writes the buffer is hashed, counted and passed to
    ``on_batch`` inside ``clock.pause()``, so pass time and tick stamps
    measure the writer alone.  A tick ends with each ring-2 line, i.e. every
    second line of the stream.
    """

    def __init__(self, clock, on_batch, batch: int = 4096):
        self.clock = clock
        self.on_batch = on_batch
        self.buf: list[str] = []
        self.stamps = array("d")  # pass-clock time of each buffered write
        self.pending = ""
        self.digest = hashlib.sha256()
        self.writes = 0
        self.lines = 0
        self.bytes = 0
        self.tick_times = array("d")
        self.tick_counts = array("q")
        buf, stamps, now = self.buf, self.stamps, clock.now

        def write(s: str) -> int:  # a closure: the writer calls it per line
            stamps.append(now())
            buf.append(s)
            if len(buf) >= batch:
                self._drain()
            return len(s)

        self.write = write

    def _drain(self) -> None:
        with self.clock.pause():
            for stamp, s in zip(self.stamps, self.buf):
                before = self.lines >> 1
                self.lines += s.count("\n")
                if self.lines >> 1 != before:
                    self.tick_times.append(stamp)
                    self.tick_counts.append((self.lines >> 1) - before)
            self.writes += len(self.buf)
            new = "".join(self.buf)
            self.buf.clear()
            del self.stamps[:]
            raw = new.encode("utf-8")
            self.bytes += len(raw)
            self.digest.update(raw)
            text = self.pending + new
            cut = text.rfind("\n") + 1
            self.pending = text[cut:]
            if cut:
                self.on_batch(text[:cut])

    def close(self) -> bool:
        """Drain the buffer; False when the stream ended inside a line."""
        self._drain()
        return self.pending == ""

    def tick_gaps_us(self, scales) -> np.ndarray:
        """Time between successive tick-completing writes, per tick, in µs.

        A write completing k ticks spreads its gap evenly over them, so a
        writer that batches lines still yields one nonzero sample per tick.
        ``scales(times)`` converts each gap, by the time it ended, into
        calibrated time.
        """
        times = np.frombuffer(self.tick_times, dtype=float)
        counts = np.frombuffer(self.tick_counts, dtype=np.int64)[1:]
        gaps = np.diff(times) / counts * scales(times[1:])
        return np.repeat(gaps, counts) * 1e6


def stream_failed(checker: StreamChecker, sink: StreamSink, exit_code: int,
                  pinned: str | None) -> int:
    """Failed messages of an emit pass, after the sink has seen every write.

    The whole stream fails when the command exits nonzero, ends inside a
    line, or differs from a pinned sha256; otherwise the checker's count.
    """
    whole_lines = sink.close()
    if exit_code != 0 or not whole_lines or pinned not in (None, sink.digest.hexdigest()):
        return 2 * checker.ref.ticks
    return checker.failed()
