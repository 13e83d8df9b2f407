import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spatcast as sc
from spatcast.evaluate import compare, error_curve, write_comparison_csv, write_plot_data
from spatcast.predict import DEFAULT_HOLD_S


def dist_of(values, quantity="d4", stratum=120.0):
    return sc.EmpiricalDist(np.array(values, dtype=float), quantity, stratum)


def table_from_d4(values, build):
    return build([(v, 0.0, 0.0) for v in values])


def _drop_one(dist_or_joint, key_value, target_value):
    """The training set without one sample matching the evaluated cycle."""
    if isinstance(dist_or_joint, sc.JointSamples):
        mask = (dist_or_joint.lead == key_value) & (
            dist_or_joint.lead + dist_or_joint.follow == target_value
        )
        keep = np.ones(dist_or_joint.n, dtype=bool)
        keep[np.flatnonzero(mask)[0]] = False
        if not keep.any():
            return None
        return sc.JointSamples(
            dist_or_joint.lead[keep], dist_or_joint.follow[keep],
            dist_or_joint.lead_quantity, dist_or_joint.follow_quantity,
            dist_or_joint.stratum,
        )
    values = dist_or_joint.values
    pos = int(np.searchsorted(values, key_value))
    assert values[pos] == key_value
    if values.size == 1:
        return None
    return sc.EmpiricalDist(np.delete(values, pos), dist_or_joint.quantity, dist_or_joint.stratum)


def refit_loo_errors(method, dist_or_joint, key, target, grid_step):
    """Leave-one-out (t, errors) per grid point, refitting without each cycle."""
    points = []
    for t in np.arange(0.0, float(key.max()), grid_step):
        mask = key > t
        if not mask.any():
            continue
        errs = []
        for kv, tv in zip(key[mask], target[mask]):
            reduced = _drop_one(dist_or_joint, kv, tv)
            if reduced is None:
                pred = t + DEFAULT_HOLD_S
            else:
                try:
                    pred = sc.predict(reduced, t, method)
                except sc.EmptyCondition:
                    pred = t + DEFAULT_HOLD_S
            errs.append(pred - tv)
        points.append((t, np.array(errs)))
    return points


def point_prediction_errors(method, dist_or_joint, key, target, grid_step):
    """(t, errors) per grid point from one prediction each, holding past the history."""
    points = []
    for t in np.arange(0.0, float(key.max()), grid_step):
        mask = key > t
        if not mask.any():
            continue
        try:
            pred = sc.predict(dist_or_joint, t, method)
        except sc.EmptyCondition:
            pred = t + DEFAULT_HOLD_S
        points.append((t, pred - target[mask]))
    return points


class TestCurves:
    def test_perfect_predictor_on_point_mass(self, build_table):
        table = table_from_d4([40.0] * 5, build_table)
        dist = sc.fit(table, "d4")
        curve = error_curve(sc.Expectation(), dist, table, "mae")
        assert np.all(curve.values == 0.0)
        curve = error_curve(sc.Expectation(), dist, table, "mse")
        assert np.all(curve.values == 0.0)

    def test_constant_predictor_hand_values(self, build_table):
        # Trained on a point mass at 40, every method predicts 40 at t = 0.
        table = table_from_d4([30.0, 50.0], build_table)
        dist = dist_of([40.0])
        mae = error_curve(sc.Expectation(), dist, table, "mae")
        mse = error_curve(sc.Expectation(), dist, table, "mse")
        assert mae.values[0] == 10.0
        assert mse.values[0] == 100.0
        assert mae.counts[0] == 2

    def test_survivor_counts_nonincreasing(self, build_table):
        table = table_from_d4([30.0, 40.0, 50.0, 50.0], build_table)
        dist = sc.fit(table, "d4")
        curve = error_curve(sc.Expectation(), dist, table, "mae")
        assert np.all(np.diff(curve.counts) <= 0)
        assert curve.ts[0] == 0.0
        assert curve.ts[-1] < 50.0

    def test_symmetric_loss_equals_mae(self, build_table):
        table = table_from_d4([30.0, 36.0, 41.0, 55.0], build_table)
        dist = sc.fit(table, "d4")
        mae = error_curve(sc.Expectation(), dist, table, "mae")
        sym = error_curve(sc.Expectation(), dist, table, "loss:1:1")
        np.testing.assert_array_equal(mae.values, sym.values)

    @pytest.mark.parametrize("metric, error, match", [
        ("loss:nan:1", sc.NonpositiveWeight, "c1=nan, c2=1.0"),
        ("loss:0:1", sc.NonpositiveWeight, "c1=0.0, c2=1.0"),
        ("loss:3", ValueError, "must look like 'loss:c1:c2'"),
        ("mad", ValueError, "unknown metric 'mad'"),
        ("loss:1e20:1", sc.NonpositiveWeight, r"c1/\(c1\+c2\) must be in \(0, 1\)"),
        ("loss:1e308:1e300", ValueError,
         r"loss\(1e\+308,1e\+300\) of expectation overflows to inf"),
    ])
    def test_bad_metric_rejected(self, build_table, metric, error, match):
        table = table_from_d4([30.0, 50.0], build_table)
        with pytest.raises(error, match=match):
            error_curve(sc.Expectation(), sc.fit(table, "d4"), table, metric)

    def test_empty_grid(self, build_table):
        table = table_from_d4([40.0], build_table)
        dist = sc.fit(table, "d1")  # all zeros: nothing survives t = 0
        with pytest.raises(sc.EmptyGrid):
            error_curve(sc.Expectation(), dist, table, "mae")


class TestLeaveOneOut:
    def test_two_sample_hand_computation(self, build_table):
        # dropping 30 predicts 50 (error 20); dropping 50 predicts 30 (error 20)
        table = table_from_d4([30.0, 50.0], build_table)
        dist = sc.fit(table, "d4")
        loo = error_curve(sc.Expectation(), dist, table, "mae", leave_one_out=True)
        assert loo.values[0] == 20.0
        insample = error_curve(sc.Expectation(), dist, table, "mae")
        assert insample.values[0] == 10.0

    def test_large_n_converges_to_in_sample(self, build_table):
        rng = np.random.default_rng(5)
        values = (36 + 5 * rng.poisson(1.2, size=400)).astype(float)
        table = table_from_d4(values.tolist(), build_table)
        dist = sc.fit(table, "d4")
        insample = error_curve(sc.Expectation(), dist, table, "mae")
        loo = error_curve(sc.Expectation(), dist, table, "mae", leave_one_out=True)
        assert np.max(np.abs(insample.values - loo.values)) < 0.2

    def test_out_of_sample_rejected(self, build_table):
        train = table_from_d4([36.0, 41.0, 46.0], build_table)
        dist = sc.fit(train, "d4")
        for other in ([36.0, 41.0, 41.0], [36.0, 41.0], [36.0, 41.0, 46.0, 46.0]):
            with pytest.raises(ValueError, match="in-sample"):
                error_curve(sc.Expectation(), dist, table_from_d4(other, build_table),
                            "mae", leave_one_out=True)

    def test_joint_out_of_sample_rejected(self, build_table):
        # Same leads and same sums as a multiset, but paired differently.
        train = build_table([(36, 0, 0), (41, 5, 5)])
        other = build_table([(36, 5, 5), (41, 0, 0)])
        with pytest.raises(ValueError, match="in-sample"):
            error_curve(sc.Expectation(), sc.fit_joint(train, "d4", "d1"), other,
                        "mae", leave_one_out=True)

    def test_joint_leave_one_out(self, build_table):
        table = build_table([(36, 0, 0), (36, 5, 5), (41, 0, 0), (41, 10, 10)])
        joint = sc.fit_joint(table, "d4", "d1")
        loo = error_curve(sc.Expectation(), joint, table, "mae", leave_one_out=True)
        assert loo.counts[0] == 4
        assert np.all(loo.values >= 0)


class TestOptimality:
    def test_expectation_minimizes_mse_in_sample(self, build_table):
        rng = np.random.default_rng(7)
        values = (36 + 5 * rng.poisson(1.0, size=200)).astype(float)
        table = table_from_d4(values.tolist(), build_table)
        dist = sc.fit(table, "d4")
        best = error_curve(sc.Expectation(), dist, table, "mse")
        for other in (sc.Confidence(0.8), sc.Confidence(0.5), sc.AsymmetricLoss(3, 1)):
            rival = error_curve(other, dist, table, "mse")
            assert np.all(best.values <= rival.values)

    def test_asymmetric_quantile_minimizes_its_own_loss(self, build_table):
        rng = np.random.default_rng(8)
        values = (36 + 5 * rng.poisson(1.5, size=150)).astype(float)
        table = table_from_d4(values.tolist(), build_table)
        dist = sc.fit(table, "d4")
        for c1, c2 in ((3, 1), (1, 3), (2, 5)):
            metric = f"loss:{c1}:{c2}"
            best = error_curve(sc.AsymmetricLoss(c1, c2), dist, table, metric)
            for other in (sc.Expectation(), sc.Confidence(0.8)):
                rival = error_curve(other, dist, table, metric)
                assert np.all(best.values <= rival.values + 1e-9)

    def test_weight_swap_changes_winner_on_skewed_data(self, build_table):
        table = table_from_d4([10.0, 10.0, 50.0, 50.0], build_table)
        dist = sc.fit(table, "d4")
        low = sc.AsymmetricLoss(1, 3)
        high = sc.AsymmetricLoss(3, 1)
        # each quantile wins strictly under its own loss at t = 0
        low_under_low = error_curve(low, dist, table, "loss:1:3").values[0]
        high_under_low = error_curve(high, dist, table, "loss:1:3").values[0]
        low_under_high = error_curve(low, dist, table, "loss:3:1").values[0]
        high_under_high = error_curve(high, dist, table, "loss:3:1").values[0]
        assert low_under_low < high_under_low
        assert high_under_high < low_under_high

    def test_weight_swap_tie_when_quantiles_coincide(self, build_table):
        # On {10,10,10,50} the cdf at 10 is exactly 0.75, so both the 0.25
        # and 0.75 quantiles resolve to 10 under the smaller-minimizer tie
        # convention: the two weightings predict identically and no strict
        # winner exists.
        table = table_from_d4([10.0, 10.0, 10.0, 50.0], build_table)
        dist = sc.fit(table, "d4")
        a = sc.predict(dist, 0, sc.AsymmetricLoss(1, 3))
        b = sc.predict(dist, 0, sc.AsymmetricLoss(3, 1))
        assert a == b == 10.0
        under_low = error_curve(sc.AsymmetricLoss(1, 3), dist, table, "loss:1:3").values[0]
        under_high = error_curve(sc.AsymmetricLoss(3, 1), dist, table, "loss:1:3").values[0]
        assert under_low == under_high

    def test_error_decreases_with_elapsed_time_on_simulator_data(self):
        table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(21), 800)
        dist = sc.fit(table, "d4")
        curve = error_curve(sc.Expectation(), dist, table, "mae")
        assert curve.values[-1] < curve.values[0]


class TestPlotData:
    def test_bin_width_past_the_largest_float_rejected(self, tmp_path):
        dist = dist_of([36.0, 41.0])
        with pytest.raises(ValueError, match=re.escape(
            "bin_width = 1e+308 s puts the last bin edge past the largest float"
        )):
            write_plot_data(dist, str(tmp_path / "p"), bin_width=1e308)
        assert list(tmp_path.iterdir()) == []
        write_plot_data(dist, str(tmp_path / "p"), bin_width=1e307)
        assert (tmp_path / "p_pdf.csv").read_text().splitlines()[1:] == ["0,1e+307,1"]


class TestCompare:
    def test_long_format_rows(self, build_table):
        table = table_from_d4([30.0, 40.0, 50.0], build_table)
        dist = sc.fit(table, "d4")
        predictors = [("expectation", sc.Expectation()),
                      ("confidence:0.8", sc.Confidence(0.8))]
        rows = compare(predictors, dist, table, metrics=("mae", "mse", "loss:2:1"))
        ts = sorted({r[0] for r in rows})
        assert len(rows) == len(ts) * len(predictors) * 3
        t0_exp = [r for r in rows if r[0] == 0.0 and r[1] == "expectation"]
        assert {r[2] for r in t0_exp} == {"mae", "mse", "loss(2,1)"}

    def test_bad_metric_rejected_before_any_curve(self, build_table, monkeypatch):
        table = table_from_d4([30.0, 40.0], build_table)
        dist = sc.fit(table, "d4")

        def grid_point(self, t):  # every grid point conditions the training sample
            pytest.fail(f"grid point t = {t} computed before the bad metric was rejected")

        monkeypatch.setattr(sc.EmpiricalDist, "condition_gt", grid_point)
        for leave_one_out in (False, True):
            with pytest.raises(sc.NonpositiveWeight):
                compare([("expectation", sc.Expectation())], dist, table,
                        metrics=("mae", "loss:1:inf"), leave_one_out=leave_one_out)

    def test_empty_predictors_rejected(self, build_table):
        table = table_from_d4([30.0], build_table)
        dist = sc.fit(table, "d4")
        with pytest.raises(ValueError):
            compare([], dist, table)

    def test_csv_contract(self, build_table):
        table = table_from_d4([30.0, 40.0], build_table)
        dist = sc.fit(table, "d4")
        rows = compare([("expectation", sc.Expectation())], dist, table, metrics=("mae",))
        buf = io.StringIO()
        write_comparison_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,predictor,metric,value,n"
        assert len(lines) == 1 + len(rows)


small_int_tables = st.lists(st.integers(20, 60), min_size=2, max_size=30)


@settings(max_examples=40, deadline=None)
@given(small_int_tables)
def test_expectation_mse_optimality_property(values):
    dist = dist_of([float(v) for v in values])
    records = []
    for i, v in enumerate(values):
        records.append(sc.CycleRecord(i, i * 120000, 120.0, d4=float(v), d1=0.0,
                                      d2=120.0 - v, d8=float(v), d5=0.0, d6=120.0 - v))
    table = sc.CycleTable(tuple(records))
    best = error_curve(sc.Expectation(), dist, table, "mse")
    rival = error_curve(sc.Confidence(0.5), dist, table, "mse")
    assert np.all(best.values <= rival.values)


LOO_METHODS = st.one_of(
    st.just(sc.Expectation()),
    st.sampled_from([0.5, 0.8]).map(sc.Confidence),
    st.floats(0.05, 0.95).map(sc.Confidence),
    st.sampled_from([(1, 3), (3, 1), (1, 1), (2, 5)]).map(lambda w: sc.AsymmetricLoss(*w)),
)


TIE_CYCLES = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), min_size=1, max_size=40)


def tie_table(cycles):
    """Heavy ties (d4 = 36 + 5k s, the controller's extension quantisation; d1 = 5j s)."""
    return sc.CycleTable(tuple(
        sc.CycleRecord(i, i * 120000, 120.0, d4=36.0 + 5 * k, d1=5.0 * j,
                       d2=84.0 - 5 * (k + j), d8=36.0 + 5 * k, d5=5.0 * j,
                       d6=84.0 - 5 * (k + j))
        for i, (k, j) in enumerate(cycles)
    ))


@settings(max_examples=100, deadline=None)
@given(
    TIE_CYCLES,
    LOO_METHODS,
    st.sampled_from(["d4", "d4+d1", "joint"]),
    st.sampled_from([1.0, 0.1]),
    st.booleans(),
    st.none() | TIE_CYCLES,
)
@example([(0, 1)], sc.Expectation(), "d4", 1.0, True, None)
@example([(0, 0), (2, 1)], sc.Confidence(0.8), "joint", 0.1, True, None)
@example([(1, 0), (1, 2)], sc.AsymmetricLoss(3, 1), "d4+d1", 1.0, True, None)
@example([(0, 0)], sc.Expectation(), "d4", 1.0, False, [(2, 1)])
@example([(0, 3), (1, 0)], sc.Confidence(0.8), "joint", 0.1, False, [(3, 0), (0, 4)])
def test_leave_one_out_matches_refit(cycles, method, quantity, grid_step, leave_one_out, other):
    """Leave-one-out curves equal the refit oracle; other curves equal one
    ``predict`` per grid point, on the training table or on ``other``
    (where an exhausted history holds at t + DEFAULT_HOLD_S)."""
    train = tie_table(cycles)
    table = train if leave_one_out or other is None else tie_table(other)
    if quantity == "joint":
        fitted = sc.fit_joint(train, "d4", "d1")
        key, target = table.column("d4"), table.column("d4+d1")
    else:
        fitted = sc.fit(train, quantity)
        key = target = table.column(quantity)
    oracle = refit_loo_errors if leave_one_out else point_prediction_errors
    points = oracle(method, fitted, key, target, grid_step)
    for loss, metric in ((np.abs, "mae"), (np.square, "mse")):
        curve = error_curve(method, fitted, table, metric,
                            grid_step=grid_step, leave_one_out=leave_one_out)
        np.testing.assert_array_equal(curve.ts, [t for t, _ in points])
        np.testing.assert_array_equal(curve.counts, [e.size for _, e in points])
        np.testing.assert_allclose(curve.values, [loss(e).mean() for _, e in points],
                                   rtol=0, atol=1e-9)


def reference_loss(metric):
    """(loss of prediction minus realization, output name) of a metric spec."""
    if metric == "mae":
        return np.abs, "mae"
    if metric == "mse":
        return (lambda err: err * err), "mse"
    weights = sc.AsymmetricLoss.parse(metric, "loss metric")
    return weights.loss, f"loss({weights.c1:g},{weights.c2:g})"


def reference_rows(predictors, fitted, table, metrics, grid_step):
    """In-sample comparison rows one (method, metric) curve at a time, each
    grid point conditioned and predicted afresh for every curve."""
    if isinstance(fitted, sc.JointSamples):
        key = table.column(fitted.lead_quantity)
        target = key + table.column(fitted.follow_quantity)
    else:
        key = target = table.column(fitted.quantity)
    condition = fitted.condition_gt
    rows = []
    for label, method in predictors:
        for metric in metrics:
            loss, name = reference_loss(metric)
            for t in np.arange(0.0, float(key.max()), grid_step):
                mask = key > t
                n = int(mask.sum())
                if n == 0:
                    continue
                x = target[mask]
                try:
                    pred = float(method.apply(condition(t)))
                except sc.EmptyCondition:
                    pred = t + DEFAULT_HOLD_S
                rows.append((float(t), label, name, float(loss(pred - x).mean()), n))
    return rows


METRIC_SPECS = st.sampled_from(["mae", "mse"]) | st.tuples(
    st.sampled_from([0.5, 1, 2, 3]), st.sampled_from([0.5, 1, 3, 5])
).map(lambda w: f"loss:{w[0]:g}:{w[1]:g}")


def loo_reference_rows(predictors, fitted, table, metrics, grid_step):
    """Leave-one-out comparison rows one (method, metric) curve at a time,
    each cycle's prediction refitted without that cycle."""
    if isinstance(fitted, sc.JointSamples):
        key = table.column(fitted.lead_quantity)
        target = key + table.column(fitted.follow_quantity)
    else:
        key = target = table.column(fitted.quantity)
    rows = []
    for label, method in predictors:
        points = refit_loo_errors(method, fitted, key, target, grid_step)
        for metric in metrics:
            loss, name = reference_loss(metric)
            rows.extend((float(t), label, name, float(loss(e).mean()), e.size) for t, e in points)
    return rows


@settings(max_examples=100, deadline=None)
@given(
    TIE_CYCLES,
    st.lists(LOO_METHODS, min_size=1, max_size=3),
    st.lists(METRIC_SPECS, min_size=1, max_size=3),
    st.sampled_from(["d4", "d4+d1", "joint"]),
    st.sampled_from([0.1, 1.0, 2.5]),
    st.none() | TIE_CYCLES,
    st.booleans(),
)
@example([(0, 0), (1, 2)], [sc.Expectation(), sc.Confidence(0.8), sc.AsymmetricLoss(3, 1)],
         ["mae", "mse", "loss:1:3"], "d4", 1.0, [(0, 1), (6, 4), (3, 0)], False)
@example([(2, 1), (0, 3)], [sc.AsymmetricLoss(1, 3), sc.Expectation()], ["loss:3:1", "mse"],
         "joint", 0.1, [(5, 2), (0, 0)], False)
@example([(1, 1)], [sc.Confidence(0.5)], ["mae"], "d4+d1", 2.5, None, False)
@example([(0, 0), (2, 1), (2, 3)], [sc.Expectation(), sc.Confidence(0.8), sc.AsymmetricLoss(3, 1)],
         ["mae", "mse", "loss:1:3"], "joint", 1.0, None, True)
@example([(1, 1)], [sc.Confidence(0.5), sc.Expectation()], ["loss:3:1"], "d4", 0.1, None, True)
def test_compare_in_sample_rows_equal_per_curve_reference(
    cycles, methods, metrics, quantity, grid_step, other, leave_one_out
):
    """One walk over the grid gives the rows of a walk per (method, metric),
    on the training table or on ``other``, where the history may run out.
    Leave-one-out (drawn only when ``other`` is None) gives the refit
    reference's (t, label, metric, n) and its values within 1e-9."""
    train = tie_table(cycles)
    table = train if other is None else tie_table(other)
    leave_one_out = leave_one_out and other is None
    fitted = sc.fit_joint(train, "d4", "d1") if quantity == "joint" else sc.fit(train, quantity)
    predictors = [(method.label, method) for method in methods]
    rows = compare(predictors, fitted, table, metrics, grid_step=grid_step,
                   leave_one_out=leave_one_out)
    if not leave_one_out:
        assert rows == reference_rows(predictors, fitted, table, metrics, grid_step)
        return
    expected = loo_reference_rows(predictors, fitted, table, metrics, grid_step)
    assert [(t, label, name, n) for t, label, name, _, n in rows] == [
        (t, label, name, n) for t, label, name, _, n in expected
    ]
    np.testing.assert_allclose([row[3] for row in rows], [row[3] for row in expected],
                               rtol=0, atol=1e-9)
