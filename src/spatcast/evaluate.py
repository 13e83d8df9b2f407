"""Prediction-error curves over elapsed phase time.

For a grid of times t, the error at t averages a loss between the
prediction made at t and the realized duration, over exactly the cycles
whose duration exceeds t (the cycles for which a prediction at t was ever
needed).  In-sample evaluation is the default.  Leave-one-out predicts each
cycle from the training sample without that cycle; it is exact (closed form,
no refit) and defined only for in-sample evaluation.
"""

from __future__ import annotations

import csv
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
    dist_or_joint, eval_table: CycleTable
) -> tuple[np.ndarray, np.ndarray, Callable[[float], EmpiricalDist]]:
    """(survival key, prediction target) per evaluation cycle, and the training condition.

    For a scalar distribution key and target are the quantity itself and the
    condition is ``condition_gt``.  For joint samples the survival key is the
    leading duration (predictions exist while the lead phase runs), the
    target is the per-cycle sum and the condition is ``sum_given_lead_gt``.
    """
    if isinstance(dist_or_joint, JointSamples):
        lead = eval_table.column(dist_or_joint.lead_quantity)
        follow = eval_table.column(dist_or_joint.follow_quantity)
        return lead, lead + follow, dist_or_joint.sum_given_lead_gt
    values = eval_table.column(dist_or_joint.quantity)
    return values, values, dist_or_joint.condition_gt


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
    loss, name = _loss(metric)
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    key, target, condition = _eval_arrays(dist_or_joint, eval_table)
    if key.size == 0 or not np.any(key > 0):
        raise EmptyGrid("no evaluation sample survives any t >= 0")
    if leave_one_out:
        _require_in_sample(dist_or_joint, key, target)

    ts = np.arange(0.0, float(key.max()), grid_step)

    def at(t: float):
        mask = key > t
        n = int(mask.sum())
        if n == 0:
            return None
        x = target[mask]
        try:
            cond = condition(t)
        except EmptyCondition:
            cond = None
        if cond is None or (leave_one_out and cond.n == 1):
            pred = hold(t)
        elif leave_one_out:
            pred = predictor.apply_loo(cond, x)
        else:
            pred = float(predictor.apply(cond))
        return t, float(loss(pred - x).mean()), n

    with np.errstate(over="ignore"):  # ErrorCurve rejects an overflowed value
        points = [p for p in map(at, ts) if p is not None]
    if not points:
        raise EmptyGrid("no grid point has surviving samples")

    return ErrorCurve(
        ts=np.array([p[0] for p in points]),
        values=np.array([p[1] for p in points]),
        counts=np.array([p[2] for p in points], dtype=np.int64),
        predictor=predictor.label,
        metric=name,
    )


def compare(
    predictors: Sequence[tuple[str, Method]],
    dist_or_joint,
    eval_table: CycleTable,
    metrics: Sequence[str] = ("mae", "mse"),
    **kwargs,
) -> list[tuple[float, str, str, float, int]]:
    """Long-format rows (t, predictor, metric, value, n) for each curve."""
    if not predictors:
        raise ValueError("at least one predictor is required")
    if not metrics:
        raise ValueError("at least one metric is required")
    for metric in metrics:
        _loss(metric)  # a bad spec fails before any curve is computed
    rows = []
    for label, pred in predictors:
        for metric in metrics:
            curve = error_curve(pred, dist_or_joint, eval_table, metric, **kwargs)
            rows.extend(
                (float(t), label, curve.metric, float(v), int(n))
                for t, v, n in zip(curve.ts, curve.values, curve.counts)
            )
    return rows


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
    lo = np.floor(dist.support_min() / bin_width) * bin_width
    hi = np.ceil(dist.support_max() / bin_width) * bin_width
    edges = np.arange(lo, hi + bin_width, bin_width)
    hist, _ = np.histogram(dist.values, bins=edges)
    with open(f"{prefix}_pdf.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_left", "bin_right", "probability"])
        for left, right, count in zip(edges[:-1], edges[1:], hist):
            w.writerow([f"{left:g}", f"{right:g}", f"{count / dist.n:.10g}"])
    values, probs = dist.pdf()
    with open(f"{prefix}_cdf.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["value", "cdf"])
        cum = 0.0
        for v, p in zip(values, probs):
            cum += p
            w.writerow([f"{v:.2f}", f"{cum:.10g}"])
