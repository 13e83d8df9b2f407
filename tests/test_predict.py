import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatcast as sc
from spatcast.predict import DEFAULT_HOLD_S, hold


def dist_of(values, quantity="d4", stratum=120.0):
    return sc.EmpiricalDist(np.array(values, dtype=float), quantity, stratum)


int_samples = st.lists(st.integers(0, 120), min_size=1, max_size=50)


class TestExpectation:
    def test_point_mass(self):
        dist = dist_of([40, 40, 40])
        p = sc.predict(dist, 10, sc.Expectation())
        assert p == 40.0
        assert p - 10 == 30.0
        assert dist.condition_gt(10).n == 3

    def test_survivor_mean(self):
        dist = dist_of([30, 40, 50])
        p = sc.predict(dist, 35, sc.Expectation())
        assert p == pytest.approx(45.0)
        assert p - 35 == pytest.approx(10.0)
        assert dist.condition_gt(35).n == 2

    def test_empty_condition_propagates(self):
        with pytest.raises(sc.EmptyCondition):
            sc.predict(dist_of([30]), 30, sc.Expectation())


class TestConfidence:
    def test_point_mass(self):
        p = sc.predict(dist_of([40]), 0, sc.Confidence(0.8))
        assert p == 40.0

    def test_unconditioned_scan(self):
        p = sc.predict(dist_of([30, 30, 40, 50, 50]), 0, sc.Confidence(0.8))
        assert p == 30.0

    def test_conditioned_scan(self):
        # survivors past 31 are {40, 50, 50}: P(X>=40)=1, P(X>=50)=2/3
        p = sc.predict(dist_of([30, 30, 40, 50, 50]), 31, sc.Confidence(0.8))
        assert p == 40.0


def grid_loss_minimizer(samples, c1, c2, lo, hi, step=0.01):
    """Brute-force scan of the asymmetric loss over a dense grid."""
    best_x = None
    best = float("inf")
    x = lo
    while x <= hi + 1e-12:
        loss = sum(c1 * (d - x) if x < d else c2 * (x - d) for d in samples)
        if loss < best - 1e-12:
            best, best_x = loss, x
        x = round(x + step, 10)
    return best_x


class TestAsymmetric:
    def test_symmetric_weights_give_median(self):
        p = sc.predict(dist_of([10, 20, 30, 40, 50]), 0, sc.AsymmetricLoss(1, 1))
        assert p == 30.0

    def test_matches_grid_search(self):
        samples = [10, 20, 30, 40, 50]
        oracle = grid_loss_minimizer(samples, c1=3, c2=1, lo=10, hi=50)
        assert oracle == 40.0
        p = sc.predict(dist_of(samples), 0, sc.AsymmetricLoss(3, 1))
        assert p == oracle

    def test_swapping_weights_crosses_median(self):
        dist = dist_of([10, 10, 10, 50, 50])
        low = sc.predict(dist, 0, sc.AsymmetricLoss(1, 3))
        high = sc.predict(dist, 0, sc.AsymmetricLoss(3, 1))
        median = dist.quantile(0.5)
        assert low <= median <= high
        assert low < high

    def test_loss_hand_values(self):
        # c1 weighs an underestimate (negative error), c2 an overestimate.
        loss = sc.AsymmetricLoss(3, 1).loss(np.array([-2.0, 0.0, 5.0]))
        np.testing.assert_array_equal(loss, [6.0, 0.0, 5.0])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(sc.NonpositiveWeight):
            sc.predict(dist_of([10]), 0, sc.AsymmetricLoss(0, 1))
        with pytest.raises(sc.NonpositiveWeight):
            sc.predict(dist_of([10]), 0, sc.AsymmetricLoss(1, -2))

    @pytest.mark.parametrize("c1, c2, named", [
        (float("nan"), 1.0, "c1=nan, c2=1.0"),
        (1.0, float("inf"), "c1=1.0, c2=inf"),
        (float("-inf"), float("nan"), "c1=-inf, c2=nan"),
    ])
    def test_non_finite_weights_rejected(self, c1, c2, named):
        with pytest.raises(sc.NonpositiveWeight, match=f"must be > 0 and finite, got {named}$"):
            sc.AsymmetricLoss(c1, c2)

    @pytest.mark.parametrize("c1, c2", [(1e308, 1e308), (1e20, 1.0), (1e-300, 1e100)])
    def test_weights_whose_ratio_rounds_to_0_or_1_rejected(self, c1, c2):
        message = f"c1/(c1+c2) must be in (0, 1), got c1={c1}, c2={c2}"
        with pytest.raises(sc.NonpositiveWeight, match=re.escape(message)):
            sc.AsymmetricLoss(c1, c2)


class TestParseMethod:
    @pytest.mark.parametrize("spec, method", [
        ("expectation", sc.Expectation()),
        ("confidence:0.8", sc.Confidence(0.8)),
        ("asymmetric:3:1", sc.AsymmetricLoss(3, 1)),
        ("asymmetric:0.5:2e1", sc.AsymmetricLoss(0.5, 20)),
    ])
    def test_specs(self, spec, method):
        assert sc.parse_method(spec) == method


class TestSumPredictors:
    SUMS = [36.0, 41.0, 41.0, 51.0]
    LEAD = [36.0, 36.0, 41.0, 41.0]
    FOLLOW = [0.0, 5.0, 0.0, 10.0]

    def test_marginal_expectation_conditions_on_sum(self):
        dist = dist_of(self.SUMS, quantity="d4+d1")
        p = sc.predict(dist, 38, sc.Expectation())
        # survivors {41, 41, 51}
        assert p == pytest.approx(133 / 3)
        assert dist.condition_gt(38).n == 3

    def test_marginal_unconditioned(self):
        dist = dist_of(self.SUMS, quantity="d4+d1")
        p = sc.predict(dist, 0, sc.Expectation())
        assert p == pytest.approx(42.25)

    def test_marginal_confidence(self):
        dist = dist_of(self.SUMS, quantity="d4+d1")
        p = sc.predict(dist, 38, sc.Confidence(0.8))
        assert p == 41.0

    def test_joint_conditions_on_lead(self):
        joint = sc.JointSamples(self.LEAD, self.FOLLOW)
        p = sc.predict(joint, 38, sc.Expectation())
        # pairs with lead > 38: (41,0), (41,10); mean of {41, 51}
        assert p == pytest.approx(46.0)

    def test_routes_agree_at_zero(self):
        joint = sc.JointSamples(self.LEAD, self.FOLLOW)
        marginal = dist_of(self.SUMS, quantity="d4+d1")
        a = sc.predict(marginal, 0, sc.Expectation())
        b = sc.predict(joint, 0, sc.Expectation())
        assert a == b

    def test_single_pair(self):
        joint = sc.JointSamples([40.0], [5.0])
        for t in (0, 10, 39.9):
            assert sc.predict(joint, t, sc.Expectation()) == 45.0

    def test_negative_t_rejected_on_either_route(self):
        for source in (dist_of(self.SUMS, quantity="d4+d1"),
                       sc.JointSamples(self.LEAD, self.FOLLOW)):
            with pytest.raises(ValueError, match="t must be >= 0"):
                sc.predict(source, -1.0, sc.Expectation())


class TestHold:
    def test_holds_one_second_past_t(self):
        assert hold(36.0) == 36.0 + DEFAULT_HOLD_S
        assert hold(2.0**53 - 1) == 2.0**53

    @pytest.mark.parametrize("t", [2.0**53, 1e16, 1e308, math.inf, math.nan])
    def test_t_whose_hold_is_not_past_t_rejected(self, t):
        with pytest.raises(ValueError, match=re.escape(
            f"t = {t:g} s is too large to hold: t + 1 s is not above t"
        )):
            hold(t)


class TestSchedule:
    def point_mass_dists(self):
        values = {"d4": [36.0] * 3, "d1": [5.0] * 3, "d2": [79.0] * 3}
        dists = {k: dist_of(v, quantity=k) for k, v in values.items()}
        dists["d4+d1"] = dist_of([41.0] * 3, quantity="d4+d1")
        return dists

    def test_point_mass_transitions(self):
        # p4 ends with its point mass and next turns green at the next cycle start.
        assert sc.predict_schedule(self.point_mass_dists(), "p4", 0.0) == (36.0, 120.0)

    def test_mid_phase_uses_sum_distribution(self):
        # p1 ends with the d4+d1 sum; its next green follows next cycle's p4.
        assert sc.predict_schedule(self.point_mass_dists(), "p1", 38.0) == (41.0, 156.0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            sc.predict_schedule(self.point_mass_dists(), "p2", -1.0)

    def test_coordination_phase_is_deterministic(self):
        assert sc.predict_schedule(self.point_mass_dists(), "p2", 60.0) == (120.0, 161.0)

    def test_coordination_phase_past_cycle_length_is_exhausted(self):
        with pytest.raises(sc.EmptyCondition, match="beyond the cycle length 120 s"):
            sc.predict_schedule(self.point_mass_dists(), "p2", 120.0)

    def test_compose_past_history_where_the_hold_is_not_past_t_rejected(self):
        # Once a held message whose likelyTime equalled its madeAt.
        dists = self.point_mass_dists()
        assert sc.compose(dists, "p4", 1e15, 0.8).likely_time == 1e15 + DEFAULT_HOLD_S
        with pytest.raises(ValueError, match="too large to hold"):
            sc.compose(dists, "p4", 1e16, 0.8)

    def test_distributions_without_a_stratum_rejected(self):
        dists = {k: sc.EmpiricalDist(d.values, d.quantity)
                 for k, d in self.point_mass_dists().items()}
        for phase, t in (("p1", 38.0), ("p2", 60.0)):
            with pytest.raises(ValueError, match="^distributions must carry their "
                                                 "cycle-length stratum$"):
                sc.predict_schedule(dists, phase, t)
        with pytest.raises(ValueError, match="cycle-length stratum"):
            sc.compose(dists, "p4", 50.0, 0.8)  # past all history: the hold needs L too


@settings(max_examples=100, deadline=None)
@given(int_samples, st.floats(0, 119), st.floats(0.05, 0.95))
def test_all_methods_predict_strictly_past_t(samples, t, alpha):
    dist = dist_of(samples)
    if dist.support_max() <= t:
        return
    for method in (sc.Expectation(), sc.Confidence(alpha), sc.AsymmetricLoss(2, 1)):
        assert sc.predict(dist, t, method) > t


@settings(max_examples=60, deadline=None)
@given(int_samples, st.floats(0, 100))
def test_confidence_nonincreasing_in_alpha(samples, t):
    dist = dist_of(samples)
    if dist.support_max() <= t:
        return
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
    values = [sc.predict(dist, t, sc.Confidence(a)) for a in alphas]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_residual_jumps_upward_on_bimodal_history():
    # 9 cycles at 36 s and one at 45 s: once t passes the modal value, only
    # the long cycle survives and the predicted residual grows.
    samples = [36.0] * 9 + [45.0]
    dist = dist_of(samples)
    before = sc.predict(dist, 35.99, sc.Expectation())
    after = sc.predict(dist, 36.0, sc.Expectation())
    mean_all = sum(Fraction(s) for s in samples) / len(samples)
    assert before == pytest.approx(float(mean_all))
    assert after == 45.0
    assert after - 36.0 > before - 35.99
