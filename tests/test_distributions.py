import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatcast as sc
from spatcast.distributions import lower_rank, upper_rank


def dist_of(values, quantity="d4", stratum=120.0):
    return sc.EmpiricalDist(np.array(values, dtype=float), quantity, stratum)


samples_lists = st.lists(
    st.integers(0, 12000).map(lambda v: v / 100), min_size=1, max_size=50
)


class TestFit:
    def test_pdf_counts(self, build_table):
        table = build_table([(36, 0, 0), (36, 0, 0), (41, 0, 0)])
        dist = sc.fit(table, "d4")
        values, probs = dist.pdf()
        assert values.tolist() == [36.0, 41.0]
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3])
        assert probs.sum() == pytest.approx(1.0)

    def test_sum_quantity_is_per_cycle(self, build_table):
        table = build_table([(36, 0, 0), (36, 5, 5)])
        dist = sc.fit(table, "d4+d1")
        values, probs = dist.pdf()
        assert values.tolist() == [36.0, 41.0]
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_mixed_strata_rejected(self, build_table):
        table = build_table([{"d4": 36, "d1": 0, "L": 100.0},
                             {"d4": 36, "d1": 0, "L": 120.0}])
        with pytest.raises(sc.MixedStrata):
            sc.fit(table, "d4")

    def test_empty_input(self):
        with pytest.raises(sc.EmptyInput):
            sc.fit(sc.CycleTable(()), "d4")
        with pytest.raises(sc.EmptyInput):
            sc.EmpiricalDist(np.array([]), "d4")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sc.EmpiricalDist(np.array([40.0, bad, 36.0]), "d4")

    def test_stratum_recorded(self, build_table):
        dist = sc.fit(build_table([(36, 0, 0)]), "d4")
        assert dist.stratum == 120.0


class TestConditioning:
    def test_strictly_greater(self):
        dist = dist_of([36, 36, 41])
        cond = dist.condition_gt(36)
        values, probs = cond.pdf()
        assert values.tolist() == [41.0]
        assert probs.tolist() == [1.0]

    def test_identity_at_zero(self):
        dist = dist_of([36, 36, 41])
        cond = dist.condition_gt(0)
        assert cond.values.tolist() == dist.values.tolist()

    def test_survivors_enumerated(self):
        # survivors of {30, 40, 50} past 45: only 50
        dist = dist_of([30, 40, 50])
        cond = dist.condition_gt(45)
        assert cond.values.tolist() == [50.0]

    def test_empty_condition(self):
        with pytest.raises(sc.EmptyCondition):
            dist_of([30, 40, 50]).condition_gt(50)


class TestScalarStats:
    def test_weighted_mean(self):
        dist = dist_of([36, 36, 41])
        assert dist.mean() == pytest.approx(113 / 3, abs=1e-3)

    def test_support(self):
        dist = dist_of([30, 40, 50])
        assert dist.support_min() == 30.0
        assert dist.support_max() == 50.0


def brute_upper_quantile(samples, alpha):
    """Independent oracle: largest support value still exceeded w.p. alpha."""
    n = len(samples)
    for v in sorted(set(samples), reverse=True):
        if sum(1 for s in samples if s >= v) / n >= alpha:
            return v
    raise AssertionError("unreachable for alpha < 1")


class TestUpperQuantile:
    def test_point_mass(self):
        for alpha in (0.1, 0.5, 0.9):
            assert dist_of([40, 40]).upper_quantile(alpha) == 40.0

    def test_tail_scan_080(self):
        samples = [30, 30, 40, 50, 50]
        assert brute_upper_quantile(samples, 0.8) == 30
        assert dist_of(samples).upper_quantile(0.8) == 30.0

    def test_tail_scan_050(self):
        samples = [30, 30, 40, 50, 50]
        assert brute_upper_quantile(samples, 0.5) == 40
        assert dist_of(samples).upper_quantile(0.5) == 40.0

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            dist_of([30]).upper_quantile(0.0)
        with pytest.raises(ValueError):
            dist_of([30]).upper_quantile(1.0)


class TestJoint:
    PAIRS = ([36.0, 36.0, 41.0, 41.0], [0.0, 5.0, 0.0, 10.0])

    def test_condition_on_lead(self):
        joint = sc.JointSamples(*self.PAIRS)
        cond = joint.condition_gt(38)
        values, probs = cond.pdf()
        assert values.tolist() == [41.0, 51.0]
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_zero_threshold_keeps_all_sums(self):
        joint = sc.JointSamples(*self.PAIRS)
        cond = joint.condition_gt(0)
        assert cond.values.tolist() == [36.0, 41.0, 41.0, 51.0]

    def test_strict_inequality_empties(self):
        joint = sc.JointSamples(*self.PAIRS)
        with pytest.raises(sc.EmptyCondition):
            joint.condition_gt(41)

    @pytest.mark.parametrize("lead, follow", [
        ([np.nan, 36.0], [1.0, 2.0]),
        ([40.0, 36.0], [1.0, np.inf]),
        ([-np.inf, 36.0], [1.0, 2.0]),
    ])
    def test_non_finite_pairs_rejected(self, lead, follow):
        with pytest.raises(ValueError, match="finite"):
            sc.JointSamples(np.array(lead), np.array(follow))

    def test_fit_joint(self, build_table):
        table = build_table([(36, 0, 0), (41, 10, 5)])
        joint = sc.fit_joint(table, "d4", "d1")
        assert joint.n == 2
        assert joint.quantity == "d4+d1"
        assert joint.stratum == 120.0


@settings(max_examples=100, deadline=None)
@given(samples_lists)
def test_condition_below_support_min_is_identity(samples):
    dist = dist_of(samples)
    cond = dist.condition_gt(dist.support_min() - 1.0)
    assert cond.values.tolist() == dist.values.tolist()


@settings(max_examples=100, deadline=None)
@given(samples_lists, st.floats(0.0, 119.0))
def test_conditional_mean_nondecreasing_in_t(samples, t):
    dist = dist_of(samples)
    if dist.support_max() <= t + 1.0:
        return
    lo = dist.condition_gt(t).mean()
    hi = dist.condition_gt(t + 1.0).mean()
    assert hi >= lo - 1e-9


@settings(max_examples=100, deadline=None)
@given(samples_lists, st.floats(0.01, 0.99))
def test_upper_quantile_in_support_with_coverage(samples, alpha):
    dist = dist_of(samples)
    q = dist.upper_quantile(alpha)
    assert q in dist.values
    assert np.mean(dist.values >= q) >= alpha


@settings(max_examples=100, deadline=None)
@given(samples_lists, st.floats(0.01, 0.99))
def test_quantile_matches_cdf_convention(samples, p):
    dist = dist_of(samples)
    q = dist.quantile(p)
    assert q in dist.values
    assert np.mean(dist.values <= q) >= p
    smaller = dist.values[dist.values < q]
    if smaller.size:
        assert np.mean(dist.values <= smaller.max()) < p


@st.composite
def sorted_samples_and_level(draw):
    """Tie-heavy sorted samples and a level that is often exactly j/n."""
    values = np.sort(np.array(
        draw(st.lists(st.integers(0, 6), min_size=1, max_size=60)), dtype=float
    ))
    n = values.size
    level = draw(st.one_of(
        st.floats(0.001, 0.999),
        st.integers(1, max(1, n - 1)).map(lambda j: j / n),
        st.sampled_from([0.5, 0.8, 0.25, 0.75]),
    ))
    return values, level


@settings(max_examples=300, deadline=None)
@given(sorted_samples_and_level())
def test_ranks_match_unique_value_scans(case):
    values, level = case
    if not 0.0 < level < 1.0:
        return
    n = values.size
    # The scans over unique values that the ranks replace.
    uniq = np.unique(values)
    tails = (n - np.searchsorted(values, uniq, side="left")) / n
    old_upper = uniq[tails >= level][-1]
    cdfs = np.searchsorted(values, uniq, side="right") / n
    old_lower = uniq[int(np.argmax(cdfs >= level))]
    assert values[upper_rank(n, level)] == old_upper
    assert values[lower_rank(n, level)] == old_lower
