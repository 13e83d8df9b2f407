"""Empirical distributions over phase durations, with exact conditioning.

No binning, no smoothing, no parametric fits: all probability mass sits on
the observed sample values, so pdf, quantile and conditional queries
are exact order statistics of the sample multiset.  Distributions are
immutable after fitting and safe for concurrent reads.

Conditioning is strict: ``condition_gt(t)`` keeps samples strictly greater
than t, matching the event "the phase is still running at elapsed time t".
Joint pairs condition the same way on their lead and give the distribution
of the pair sums kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import CycleTable, stratum_key
from .errors import EmptyCondition, EmptyInput, MixedStrata


def upper_rank(n: int, alpha: float) -> int:
    """Index, among n sorted samples, of the upper alpha quantile.

    The largest k with (n - k)/n >= alpha, i.e. the largest order statistic
    that at least a share alpha of the samples reaches.
    """
    return int(np.count_nonzero((n - np.arange(n)) / n >= alpha)) - 1


def lower_rank(n: int, p: float) -> int:
    """Index, among n sorted samples, of the lower p quantile.

    The smallest j >= 1 with j/n >= p, less one: the first order statistic
    whose empirical cdf reaches p.
    """
    return int(np.count_nonzero(np.arange(1, n + 1) / n < p))


@dataclass(frozen=True)
class EmpiricalDist:
    """Multiset of duration samples with pdf/quantile/support queries.

    ``values`` is kept sorted ascending.  ``quantity`` names what was
    sampled (a duration like ``d4`` or a per-cycle sum like ``d4+d1``),
    and ``stratum`` is the cycle length the samples were drawn from.
    """

    values: np.ndarray
    quantity: str
    stratum: float | None = None

    def __post_init__(self) -> None:
        arr = np.sort(np.asarray(self.values, dtype=float))
        if arr.size == 0:
            raise EmptyInput("a distribution needs at least one sample")
        if not np.isfinite(arr[[0, -1]]).all():  # sorted: any nan or inf sits at an end
            raise ValueError("duration samples must be finite")
        if arr[0] < 0:
            raise ValueError("duration samples must be >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return float(self.values.mean())

    def support_min(self) -> float:
        return float(self.values[0])

    def support_max(self) -> float:
        return float(self.values[-1])

    def pdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique sample values and their probability masses (sum to 1)."""
        uniq, counts = np.unique(self.values, return_counts=True)
        return uniq, counts / self.n

    def condition_gt(self, t: float) -> "EmpiricalDist":
        """Distribution restricted to samples strictly greater than t.

        Raises EmptyCondition when no sample exceeds t, i.e. the live phase
        has outlived every historical observation.
        """
        i = int(np.searchsorted(self.values, t, side="right"))
        if i == self.n:
            raise EmptyCondition(
                f"no {self.quantity} sample exceeds t = {t:g} s"
            )
        return EmpiricalDist(self.values[i:], self.quantity, self.stratum)

    def upper_quantile(self, alpha: float) -> float:
        """Largest support value d with P(X >= d) >= alpha.

        The discrete resolution of "the value the duration exceeds with
        probability alpha": on a step cdf there is rarely an exact solution,
        so we return the largest sample value whose exceedance probability
        still meets the bound.  Always well defined for 0 < alpha < 1.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        return float(self.values[upper_rank(self.n, alpha)])

    def quantile(self, p: float) -> float:
        """Smallest support value d with cdf(d) >= p (lower quantile)."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        return float(self.values[lower_rank(self.n, p)])

    def order_stat_without(self, x: np.ndarray, k: int) -> np.ndarray:
        """The k-th smallest sample once one copy of each ``x`` is removed.

        Every ``x`` must be a sample value.  Removing the last copy of x, at
        index r, leaves values[k] in place below r and shifts values[k + 1]
        down to k from r on.
        """
        r = np.searchsorted(self.values, x, side="right") - 1
        return self.values[np.where(k < r, k, k + 1)]


@dataclass(frozen=True)
class JointSamples:
    """Paired per-cycle samples of a leading and a following duration.

    Keeping the pairs (rather than the two marginals) preserves whatever
    dependence the controller induces between them, which is what makes the
    sum predictable from partial information about the leading phase.
    """

    lead: np.ndarray
    follow: np.ndarray
    lead_quantity: str = "d4"
    follow_quantity: str = "d1"
    stratum: float | None = None

    def __post_init__(self) -> None:
        lead = np.array(self.lead, dtype=float)
        follow = np.array(self.follow, dtype=float)
        if lead.size == 0:
            raise EmptyInput("joint samples need at least one pair")
        if lead.shape != follow.shape:
            raise ValueError("lead and follow must have the same length")
        if not (np.isfinite(lead).all() and np.isfinite(follow).all()):
            raise ValueError("duration samples must be finite")
        if lead.min() < 0 or follow.min() < 0:
            raise ValueError("duration samples must be >= 0")
        lead.setflags(write=False)
        follow.setflags(write=False)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "follow", follow)

    @property
    def n(self) -> int:
        return int(self.lead.size)

    @property
    def quantity(self) -> str:
        return f"{self.lead_quantity}+{self.follow_quantity}"

    def condition_gt(self, t: float) -> EmpiricalDist:
        """Distribution of lead+follow over exactly the pairs with lead > t.

        Raises EmptyCondition when no lead exceeds t.
        """
        mask = self.lead > t
        if not mask.any():
            raise EmptyCondition(
                f"no {self.lead_quantity} sample exceeds t = {t:g} s"
            )
        return EmpiricalDist(self.lead[mask] + self.follow[mask], self.quantity, self.stratum)


def _single_stratum(table: CycleTable) -> float:
    if len(table) == 0:
        raise EmptyInput("cannot fit on an empty table")
    # The distinct lengths from a sort: a plain np.unique imports numpy.ma
    # on first use, ~15 ms and ~1 MB for a one-command process.
    lengths = np.sort(table.length_s)
    distinct = lengths[np.append(True, lengths[1:] != lengths[:-1])]
    strata = {stratum_key(x) for x in distinct.tolist()}
    if len(strata) > 1:
        raise MixedStrata(
            f"table mixes cycle lengths {sorted(strata)}; stratify first"
        )
    return strata.pop()


def fit(table: CycleTable, quantity: str) -> EmpiricalDist:
    """Fit the empirical distribution of one quantity, one sample per cycle.

    For a sum quantity like ``d4+d1`` the sum is taken per cycle, which is
    what preserves the dependence between the two durations; the sum's
    distribution is not recoverable from the two marginals.  The table must
    be nonempty and single-stratum.
    """
    stratum = _single_stratum(table)
    return EmpiricalDist(table.column(quantity), quantity, stratum=stratum)


def fit_joint(
    table: CycleTable, lead: str = "d4", follow: str = "d1"
) -> JointSamples:
    """Collect per-cycle (lead, follow) duration pairs from one stratum."""
    stratum = _single_stratum(table)
    return JointSamples(
        table.column(lead), table.column(follow),
        lead_quantity=lead, follow_quantity=follow, stratum=stratum,
    )
