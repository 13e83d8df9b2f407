"""Each output check accepts the program's output and rejects a corrupted one.

Run from the repository root (``pyproject.toml`` puts ``src`` on the path):

    python3 -m pytest perfbench -q
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import timing
import spatcast as sc

SEED = 3
SPECS = ("expectation", "confidence:0.8", "asymmetric:3:1")
METRICS = ("mae", "mse")


class _Collect:
    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)


@pytest.fixture(scope="module")
def day(tmp_path_factory):
    """A short simulated replay: the reference, the emitted lines, their sha256."""
    path = tmp_path_factory.mktemp("emit") / "day.csv"
    sc.write_cycle_csv(sc.simulate(sc.TimingPlan(), sc.peaked_demand(SEED), 30), path)
    table = sc.read_cycle_csv(path)
    out = _Collect()
    sc.stream(table, sc.fit_message_dists(table), out, cadence_ms=500, alpha=0.8)
    text = "".join(out.parts)
    ref = checks.StreamReference(checks.read_cycle_columns(path), 500, 0.8)
    return ref, text.splitlines(keepends=True), hashlib.sha256(text.encode()).hexdigest()


def _check(ref, lines, every, pinned=None):
    checker = checks.StreamChecker(ref, every=every)
    sink = checks.StreamSink(timing.PassClock(), checker.feed, batch=97)
    for line in lines:
        sink.write(line)
    return checker, checks.stream_failed(checker, sink, 0, pinned)


def _alter_digit(line: str, field: str) -> str:
    at = line.index(f'"{field}":') + len(field) + 3
    at = line.index(".", at) + 1  # first decimal of the value
    digit = "1" if line[at] != "1" else "2"
    return line[:at] + digit + line[at + 1:]


def test_stream_reference_matches_every_tick(day):
    ref, lines, digest = day
    checker, failed = _check(ref, lines, every=1, pinned=digest)
    assert failed == 0 and checker.lines == 2 * ref.ticks
    assert not checker.bad


def test_stream_check_rejects_altered_value_on_sampled_tick(day):
    ref, lines, _ = day
    k = 5
    line_no = 2 * (7 * k) + 1  # ring 2 of a sampled tick
    bad = list(lines)
    bad[line_no] = _alter_digit(bad[line_no], "likelyTime")
    checker, failed = _check(ref, bad, every=k)
    assert checker.bad == {line_no} and failed == 1


def test_stream_check_rejects_altered_byte_anywhere_against_pinned_digest(day):
    ref, lines, digest = day
    line_no = 2 * 11  # tick 11 is not sampled with every=5
    bad = list(lines)
    bad[line_no] = _alter_digit(bad[line_no], "maxEndTime")
    checker, failed = _check(ref, bad, every=5, pinned=digest)
    assert not checker.bad  # invisible to the sampled reference ...
    assert failed == 2 * ref.ticks  # ... but the digest rejects the stream


@pytest.mark.parametrize("corrupt", [
    lambda s: s.replace('"degraded":false', '"degraded":NaN'),
    lambda s: s.replace(",", ";", 1),
    lambda s: s.replace('"site":"",', "", 1),
    lambda s: s.replace('"cycle"', '"cycle_"', 1),
])
def test_stream_check_rejects_malformed_line(day, corrupt):
    ref, lines, _ = day
    bad = list(lines)
    bad[3] = corrupt(bad[3])
    checker, failed = _check(ref, bad, every=1000)
    assert checker.bad == {3} and failed == 1


def test_stream_check_counts_missing_messages(day):
    ref, lines, _ = day
    checker, failed = _check(ref, lines[:-2], every=1000)
    assert failed == 2


def _comparison(tmp_path, x, loo):
    stratum = 120.0
    table = sc.CycleTable(tuple(
        sc.CycleRecord(i, i * 120_000, stratum, d4, 0.0, stratum - d4, d4, 0.0, stratum - d4)
        for i, d4 in enumerate(x)
    ))
    dist = sc.fit(table, "d4")
    rows = sc.compare([(s, _predictor(s)) for s in SPECS], dist, table, METRICS,
                      leave_one_out=loo)
    path = tmp_path / "comparison.csv"
    sc.write_comparison_csv(rows, path)
    return path


def _predictor(spec):
    name, _, rest = spec.partition(":")
    if name == "expectation":
        return sc.Expectation()
    if name == "confidence":
        return sc.Confidence(float(rest))
    c1, c2 = rest.split(":")
    return sc.AsymmetricLoss(float(c1), float(c2))


@pytest.mark.parametrize("loo", [True, False])
def test_curve_check_rejects_one_wrong_value(tmp_path, loo):
    rng = np.random.default_rng(SEED)
    x = 36.0 + 5.0 * rng.poisson(1.5, size=60)  # heavy ties, as simulated
    path = _comparison(tmp_path, x, loo)
    point = checks.loo_point if loo else checks.insample_point
    ts = checks.pick_check_ts(x, SEED)
    curves = checks.read_comparison(path)
    assert checks.check_curves(curves, x, SPECS, METRICS, ts, point) == []

    value, n = curves[("confidence:0.8", "mse")][ts[1]]
    curves[("confidence:0.8", "mse")][ts[1]] = (value + 1e-5, n)
    assert checks.check_curves(curves, x, SPECS, METRICS, ts, point) == [
        "confidence:0.8/mse"
    ]


def test_table_check_rejects_one_dropped_cycle(tmp_path):
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(SEED), 40)
    events = tmp_path / "events.csv"
    sc.write_event_csv(sc.emit_events(table), events)
    ingested = tmp_path / "cycles.csv"
    sc.write_cycle_csv(sc.ingest_events(sc.read_event_csv(events)), ingested)
    truth = tmp_path / "truth.csv"
    sc.write_cycle_csv(table, truth)
    want = checks.read_cycle_columns(truth)
    assert checks.table_mismatch(checks.read_cycle_columns(ingested), want) is None

    rows = ingested.read_text().splitlines(keepends=True)
    ingested.write_text("".join(rows[:10] + rows[11:]))
    assert checks.table_mismatch(checks.read_cycle_columns(ingested), want)


def test_distribution_check_rejects_wrong_probability(tmp_path):
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(SEED), 200)
    path = tmp_path / "dist.csv"
    sc.write_distribution_csv(sc.fit(table, "d4+d1"), path)
    samples = table.column("d4") + table.column("d1")
    assert checks.distribution_mismatch(path, samples) is None
    assert checks.distribution_mismatch(path, samples[1:])


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    as_listed = lambda items: [(m["name"], m["unit"], m["better"]) for m in items]
    assert as_listed(spec["end_to_end"]) == list(run.END_TO_END)
    assert as_listed(spec["per_layer"]) == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
