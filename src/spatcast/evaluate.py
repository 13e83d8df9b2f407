"""Error curves of predictions over elapsed phase time.

For a grid of times t, the error at t averages a loss between the
prediction made at t and the realized duration, over exactly the cycles
whose duration exceeds t (the cycles for which a prediction at t was ever
needed).  Both modes share one walk over the grid: it conditions the
training sample once per t, applies each method once, and scores every
metric from that method's errors.  In-sample evaluation is the default.
Leave-one-out predicts each cycle from the training sample without that
cycle; it is exact (closed form, no refit) and defined only for in-sample
evaluation.  ``compare`` walks once for all its curves in-sample, and for
leave-one-out still calls ``error_curve`` once per (method, metric).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cycles import CycleTable
from .distributions import EmpiricalDist, JointSamples
from .errors import EmptyCondition, EmptyGrid
from .ioutil import text_sink
from .predict import AsymmetricLoss, Method, hold


@dataclass(frozen=True)
class ErrorCurve:
    """Loss versus elapsed time, with surviving-sample counts."""

    ts: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    predictor: str
    metric: str

    def __post_init__(self) -> None:
        if np.any(np.diff(self.counts) > 0):
            raise ValueError("survivor counts must be non-increasing in t")
        if not np.isfinite(self.values).all():  # finite inputs, so an overflow
            raise ValueError(f"{self.metric} of {self.predictor} overflows to inf")

    def aggregate(self) -> float:
        """Unweighted mean of the curve over its defined grid."""
        return float(self.values.mean())


def _loss(metric: str) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    """(loss of prediction minus realization, output name) for ``mae``, ``mse``
    or ``loss:c1:c2``, the loss ``AsymmetricLoss(c1, c2)`` minimizes."""
    name = metric.partition(":")[0]
    if name == "mae":
        return np.abs, "mae"
    if name == "mse":
        return (lambda err: err * err), "mse"
    if name == "loss":
        weights = AsymmetricLoss.parse(metric, "loss metric")
        return weights.loss, f"loss({weights.c1:g},{weights.c2:g})"
    raise ValueError(f"unknown metric {metric!r}")


def _eval_arrays(
    dist_or_joint, eval_table: CycleTable, grid_step: float
) -> tuple[np.ndarray, np.ndarray, Callable[[float], EmpiricalDist]]:
    """(survival key, prediction target) per evaluation cycle, and the training condition.

    The condition is ``condition_gt`` of either kind.  For a scalar
    distribution key and target are the quantity itself.  For joint samples
    the survival key is the leading duration (predictions exist while the
    lead phase runs) and the target is the per-cycle sum.
    Raises ValueError unless ``grid_step`` is positive, and EmptyGrid when
    no evaluation cycle survives t = 0.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if isinstance(dist_or_joint, JointSamples):
        key = eval_table.column(dist_or_joint.lead_quantity)
        target = key + eval_table.column(dist_or_joint.follow_quantity)
    else:
        key = target = eval_table.column(dist_or_joint.quantity)
    if key.size == 0 or not np.any(key > 0):
        raise EmptyGrid("no evaluation sample survives any t >= 0")
    return key, target, dist_or_joint.condition_gt


def _require_in_sample(dist_or_joint, key: np.ndarray, target: np.ndarray) -> None:
    """Raise unless the evaluated cycles are the training sample, as a multiset."""
    if isinstance(dist_or_joint, JointSamples):
        train = np.stack([dist_or_joint.lead, dist_or_joint.lead + dist_or_joint.follow])
        evaluated = np.stack([key, target])
        same = np.array_equal(train[:, np.lexsort(train)], evaluated[:, np.lexsort(evaluated)])
    else:
        same = np.array_equal(np.sort(key), dist_or_joint.values)
    if not same:
        raise ValueError("leave-one-out requires in-sample evaluation")


def _curves(
    methods: Sequence[Method],
    dist_or_joint,
    eval_table: CycleTable,
    metrics: Sequence[str],
    grid_step: float,
    leave_one_out: bool = False,
) -> list[ErrorCurve]:
    """The curve of each (method, metric), in that order, from one walk over
    the grid.

    At each t the survivors and the training condition are taken once,
    each method predicts once, and every metric scores that prediction's
    errors.  Where the training distribution is exhausted, every method
    holds.  With ``leave_one_out`` each survivor is predicted by
    ``apply_loo`` from the condition without it, so the evaluated cycles
    must be the training sample; a lone survivor leaves nothing and holds.
    """
    losses = [_loss(metric) for metric in metrics]
    key, target, condition = _eval_arrays(dist_or_joint, eval_table, grid_step)
    if leave_one_out:
        _require_in_sample(dist_or_joint, key, target)
    ts, counts = [], []
    values = [[[] for _ in losses] for _ in methods]  # per method, per metric
    with np.errstate(over="ignore"):  # ErrorCurve rejects an overflowed value
        for t in np.arange(0.0, float(key.max()), grid_step):
            mask = key > t
            n = int(mask.sum())
            if n == 0:
                continue
            x = target[mask]
            try:
                cond = condition(t)
            except EmptyCondition:
                cond = None
            if leave_one_out and cond is not None and cond.n == 1:
                cond = None  # a lone survivor leaves no sample to predict from
            ts.append(t)
            counts.append(n)
            for method, per_metric in zip(methods, values):
                if cond is None:
                    pred = hold(t)
                elif leave_one_out:
                    pred = method.apply_loo(cond, x)
                else:
                    pred = float(method.apply(cond))
                err = pred - x
                for (loss, _), out in zip(losses, per_metric):
                    out.append(float(loss(err).mean()))
    if not ts:
        raise EmptyGrid("no grid point has surviving samples")
    return [
        ErrorCurve(
            ts=np.array(ts),
            values=np.array(out),
            counts=np.array(counts, dtype=np.int64),
            predictor=method.label,
            metric=name,
        )
        for method, per_metric in zip(methods, values)
        for (_, name), out in zip(losses, per_metric)
    ]


def error_curve(
    predictor: Method,
    dist_or_joint,
    eval_table: CycleTable,
    metric: str = "mae",
    *,
    grid_step: float = 1.0,
    leave_one_out: bool = False,
) -> ErrorCurve:
    """Average the ``metric`` loss (``mae``, ``mse`` or ``loss:c1:c2``)
    between predictions at each grid t and realizations.

    The grid runs from 0 in steps of ``grid_step`` while at least one
    evaluation cycle survives (duration strictly greater than t).  When the
    training distribution is exhausted before the evaluation samples are
    (possible out-of-sample), the broadcast fallback ``predict.hold(t)``
    stands in for the prediction.  With ``leave_one_out`` each cycle's
    prediction leaves that cycle out of the training sample; this needs
    ``eval_table`` holding exactly the training cycles.  A lone survivor
    then has no training data left and holds.
    """
    return _curves([predictor], dist_or_joint, eval_table, [metric], grid_step, leave_one_out)[0]


def compare(
    predictors: Sequence[tuple[str, Method]],
    dist_or_joint,
    eval_table: CycleTable,
    metrics: Sequence[str] = ("mae", "mse"),
    *,
    grid_step: float = 1.0,
    leave_one_out: bool = False,
) -> list[tuple[float, str, str, float, int]]:
    """Long-format rows (t, predictor, metric, value, n) for each curve, in
    (predictor, metric) order.

    In-sample, every curve comes from one walk over the grid; leave-one-out
    computes one ``error_curve`` per (predictor, metric).
    """
    if not predictors:
        raise ValueError("at least one predictor is required")
    if not metrics:
        raise ValueError("at least one metric is required")
    for metric in metrics:
        _loss(metric)  # a bad spec fails before any curve is computed
    if leave_one_out:
        curves = [
            error_curve(pred, dist_or_joint, eval_table, metric,
                        grid_step=grid_step, leave_one_out=True)
            for _, pred in predictors
            for metric in metrics
        ]
    else:
        curves = _curves(
            [pred for _, pred in predictors], dist_or_joint, eval_table, metrics, grid_step
        )
    labels = [label for label, _ in predictors for _ in metrics]
    return [
        (float(t), label, curve.metric, float(v), int(n))
        for label, curve in zip(labels, curves)
        for t, v, n in zip(curve.ts, curve.values, curve.counts)
    ]


def write_comparison_csv(rows, target) -> None:
    with text_sink(target) as f:
        w = csv.writer(f)
        w.writerow(["t", "predictor", "metric", "value", "n"])
        for t, label, metric, value, n in rows:
            w.writerow([f"{t:g}", label, metric, f"{value:.6f}", n])


def write_distribution_csv(dist: EmpiricalDist, target) -> None:
    """Dump (value, probability) rows of a fitted distribution."""
    values, probs = dist.pdf()
    with text_sink(target) as f:
        w = csv.writer(f)
        w.writerow(["value", "probability"])
        for v, p in zip(values, probs):
            w.writerow([f"{v:.2f}", f"{p:.10g}"])


def write_plot_data(dist: EmpiricalDist, prefix: str, bin_width: float = 1.0) -> None:
    """Emit binned pdf and exact cdf CSVs for external plotting."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    # Python floats, so an edge past the largest float is inf without a warning.
    lo = float(np.floor(dist.support_min() / bin_width)) * bin_width
    hi = float(np.ceil(dist.support_max() / bin_width)) * bin_width
    if not math.isfinite(hi + bin_width):
        raise ValueError(
            f"bin_width = {bin_width:g} s puts the last bin edge past the largest float"
        )
    edges = np.arange(lo, hi + bin_width, bin_width)
    hist, _ = np.histogram(dist.values, bins=edges)
    with text_sink(f"{prefix}_pdf.csv") as f:
        w = csv.writer(f)
        w.writerow(["bin_left", "bin_right", "probability"])
        for left, right, count in zip(edges[:-1], edges[1:], hist):
            w.writerow([f"{left:g}", f"{right:g}", f"{count / dist.n:.10g}"])
    values, probs = dist.pdf()
    with text_sink(f"{prefix}_cdf.csv") as f:
        w = csv.writer(f)
        w.writerow(["value", "cdf"])
        cum = 0.0
        for v, p in zip(values, probs):
            cum += p
            w.writerow([f"{v:.2f}", f"{cum:.10g}"])
