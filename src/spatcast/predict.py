"""Residual-time predictors over conditioned empirical distributions.

Each prediction method is the exact minimizer of a loss over the empirical
conditional distribution:

* expectation minimizes squared loss (the conditional sample mean),
* a confidence bound alpha returns the largest value the duration still
  exceeds with empirical probability alpha,
* an asymmetric piecewise-linear loss with underestimate weight c1 and
  overestimate weight c2 is minimized by the c1/(c1+c2) lower quantile.

All predictors condition on "the phase is still running at elapsed time t"
(samples strictly greater than t) and are pure functions of an immutable
distribution snapshot and t, so callers may invoke them at any cadence and
concurrently.  Each method's ``apply_loo(dist, x)`` is ``apply`` on ``dist``
with one copy of each sample ``x`` left out, for all ``x`` at once; it needs
``dist.n >= 2``.  ``parse_method`` reads a method from its spec:
``expectation``, ``confidence:alpha`` or ``asymmetric:c1:c2``.

``predict_schedule`` answers the two times a SPaT message carries for the
active phase: its predicted end and when it next turns green.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .cycles import DURATION_KEY, PHASE_RING, RING_SEQUENCE
from .distributions import EmpiricalDist, JointSamples, lower_rank, upper_rank
from .errors import EmptyCondition, NonpositiveWeight

DEFAULT_HOLD_S = 1.0  # broadcast fallback when history is exhausted


def hold(t: float) -> float:
    """The predicted end at elapsed time t once history is exhausted.

    Raises ValueError when t + ``DEFAULT_HOLD_S`` is not above t (t of
    2**53 s or more, where the hold rounds back to t).
    """
    held = t + DEFAULT_HOLD_S
    if not held > t:
        raise ValueError(
            f"t = {t:g} s is too large to hold: t + {DEFAULT_HOLD_S:g} s is not above t"
        )
    return held


# The quantity whose conditional distribution predicts each phase's end: the
# opening phase's own duration, the opening+middle per-cycle sum for the
# middle phase, and None for the coordination phase, which ends at the cycle
# length L.
PHASE_QUANTITY: dict[str, str | None] = {
    phase: quantity
    for first, mid, last in RING_SEQUENCE.values()
    for phase, quantity in (
        (first, DURATION_KEY[first]),
        (mid, f"{DURATION_KEY[first]}+{DURATION_KEY[mid]}"),
        (last, None),
    )
}


@dataclass(frozen=True)
class Expectation:
    """Conditional-mean prediction; minimizes mean squared error."""

    @property
    def label(self) -> str:
        return "expectation"

    def apply(self, dist: EmpiricalDist) -> float:
        return dist.mean()

    def apply_loo(self, dist: EmpiricalDist, x: np.ndarray) -> np.ndarray:
        return (dist.values.sum() - x) / (dist.n - 1)


@dataclass(frozen=True)
class Confidence:
    """Value the duration exceeds with probability alpha."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")

    @property
    def label(self) -> str:
        return f"confidence({self.alpha:g})"

    def apply(self, dist: EmpiricalDist) -> float:
        return dist.upper_quantile(self.alpha)

    def apply_loo(self, dist: EmpiricalDist, x: np.ndarray) -> np.ndarray:
        return dist.order_stat_without(x, upper_rank(dist.n - 1, self.alpha))


@dataclass(frozen=True)
class AsymmetricLoss:
    """Minimizer of c1*|err| for underestimates, c2*err for overestimates.

    The optimum is the c1/(c1+c2) lower quantile, taken as the smallest
    support value whose cdf reaches the ratio; ties are broken toward the
    smaller minimizer, matching a brute-force scan of the loss over the
    support.
    """

    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (0 < self.c1 < math.inf and 0 < self.c2 < math.inf):  # nan fails too
            raise NonpositiveWeight(
                f"c1 and c2 must be > 0 and finite, got c1={self.c1}, c2={self.c2}"
            )
        if not 0 < self.ratio < 1:  # c1 + c2 overflows, or one weight swamps the other
            raise NonpositiveWeight(
                f"c1/(c1+c2) must be in (0, 1), got c1={self.c1}, c2={self.c2}"
            )

    @classmethod
    def parse(cls, spec: str, kind: str) -> AsymmetricLoss:
        """The weights of a ``name:c1:c2`` spec; ``kind`` names the spec in errors."""
        name, _, rest = spec.partition(":")
        try:
            c1, c2 = (float(w) for w in rest.split(":"))
        except ValueError as exc:
            raise ValueError(f"{kind} must look like '{name}:c1:c2', got {spec!r}") from exc
        return cls(c1, c2)

    @property
    def ratio(self) -> float:
        return self.c1 / (self.c1 + self.c2)

    @property
    def label(self) -> str:
        return f"asymmetric({self.c1:g},{self.c2:g})"

    def apply(self, dist: EmpiricalDist) -> float:
        return dist.quantile(self.ratio)

    def apply_loo(self, dist: EmpiricalDist, x: np.ndarray) -> np.ndarray:
        return dist.order_stat_without(x, lower_rank(dist.n - 1, self.ratio))

    def loss(self, err: np.ndarray) -> np.ndarray:
        """The loss this method minimizes, of prediction minus realization."""
        return np.where(err < 0, self.c1 * np.abs(err), self.c2 * err)


Method = Union[Expectation, Confidence, AsymmetricLoss]


def parse_method(spec: str) -> Method:
    """The method ``expectation``, ``confidence:alpha`` or ``asymmetric:c1:c2``."""
    name, _, rest = spec.partition(":")
    if name == "expectation":
        return Expectation()
    if name == "confidence":
        try:
            alpha = float(rest)
        except ValueError as exc:
            raise ValueError(
                f"predictor must look like 'confidence:alpha', got {spec!r}"
            ) from exc
        return Confidence(alpha)
    if name == "asymmetric":
        return AsymmetricLoss.parse(spec, "predictor")
    raise ValueError(
        f"unknown predictor {spec!r}; expected expectation, "
        "confidence:alpha or asymmetric:c1:c2"
    )


def predict(source: EmpiricalDist | JointSamples, t: float, method: Method) -> float:
    """The predicted end: ``method`` applied to ``source`` conditioned on t.

    ``source`` is a distribution conditioned on running past t, or joint
    pairs conditioned on their lead running past t.  EmptyCondition always
    propagates when t reaches every historical sample; callers that must
    broadcast something predict ``hold(t)``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return float(method.apply(source.condition_gt(t)))


# ---------------------------------------------------------------------------
# The active phase's end and next green


def cycle_length(dists: Mapping[str, EmpiricalDist], phase: str) -> float:
    """The stratum L of the opening-phase distribution on the phase's ring."""
    opening = dists[DURATION_KEY[RING_SEQUENCE[PHASE_RING[phase]][0]]]
    if opening.stratum is None:
        raise ValueError("distributions must carry their cycle-length stratum")
    return float(opening.stratum)


def predict_schedule(
    dists: Mapping[str, EmpiricalDist], current_phase: str, t: float
) -> tuple[float, float]:
    """(end, next_green) of the active phase at elapsed time t.

    ``end`` is the conditional mean of the opening phase's duration, or of
    the opening+middle sum for the middle phase, given it runs past t, kept
    within the samples past t; the coordination phase ends at the cycle
    length L.  ``next_green`` is the phase's start in the next cycle, L,
    L + mean(opening) or L + mean(opening) + mean(middle) along the ring:
    real-time information does not reach across the cycle boundary.  Times are seconds from the
    current cycle start.  EmptyCondition means history is exhausted: no
    sample runs past t, or a coordination phase at t >= L (clock skew, or an
    L that rounds down to its 0.1 s stratum key).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if current_phase not in PHASE_QUANTITY:
        raise ValueError(f"unknown phase {current_phase!r}")
    seq = RING_SEQUENCE[PHASE_RING[current_phase]]
    first, mid = (dists[DURATION_KEY[p]] for p in seq[:2])
    length = cycle_length(dists, current_phase)

    quantity = PHASE_QUANTITY[current_phase]
    if quantity is None:
        if not t < length:
            raise EmptyCondition(f"t = {t:g} s is beyond the cycle length {length:g} s")
        end = length
    elif quantity not in dists:
        raise ValueError(
            f"schedule from {current_phase} needs the {quantity!r} distribution"
        )
    else:
        past_t = dists[quantity].condition_gt(t)
        # The float mean of equal samples can miss their value by an ulp;
        # the end stays within the samples past t.
        end = min(max(past_t.mean(), past_t.support_min()), past_t.support_max())

    next_green = length
    for dist in (first, mid)[:seq.index(current_phase)]:
        next_green += dist.mean()
    return end, next_green
