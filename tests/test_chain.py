"""Closed-form chain analytics against the exact matrix oracles and a seeded
Monte Carlo oracle."""
import numpy as np
import pytest

from agectl import (
    Policy,
    SystemParams,
    UtilityFunction,
    chain_summary,
    expected_age,
    expected_age_3g_only,
    expected_reward_3g_only,
    expected_reward_threshold,
    expected_reward_two_threshold,
    steady_state_exact,
    steady_state_threshold,
    summary_for_threshold,
    threshold_reward_curve,
    transition_matrix,
)
from agectl.chain import reward_curve_3g_only, threshold_reward_affine

from conftest import (
    make_rng, random_3g_params, random_wifi_params, reference_replay, threshold_action,
)


def linear_params(max_age=12, p=0.54, **kw):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=UtilityFunction.linear(max_age), **kw
    )


class TestSteadyState:
    def test_simple_value(self):
        pi = steady_state_threshold(1, 0.5, 4)
        assert pi[0] == pytest.approx(0.5)  # 1/(1 + (1-p)/p) with (1-p)/p = 1

    def test_closed_form_solves_balance_equations(self):
        rng = make_rng(101)
        for _ in range(100):
            M = int(rng.integers(2, 40))
            s = int(rng.integers(1, M + 1))
            p = float(rng.uniform(0.05, 0.95))
            pi = steady_state_threshold(s, p, M)
            pol = Policy.from_thresholds(s, None, M)
            params = SystemParams(contact_prob=p, max_age=M, utility=UtilityFunction.linear(M))
            mat = transition_matrix(pol, params)
            assert np.max(np.abs(pi @ mat - pi)) < 1e-12
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi >= 0)

    def test_matches_linear_solve(self):
        params = linear_params()
        pi = steady_state_threshold(4, 0.54, 12)
        exact = steady_state_exact(Policy.from_thresholds(4, None, 12), params)
        assert np.max(np.abs(pi - exact)) < 1e-12
        assert pi[0] == pytest.approx(0.20610687022900762)

    def test_geometric_tail_shape(self):
        s, p, M = 2, 0.9, 6
        pi = steady_state_threshold(s, p, M)
        assert pi[0] == pi[1]
        assert pi[2] == pytest.approx(pi[1] * 0.1)
        assert pi[M - 1] == pytest.approx(pi[M - 2] * 0.1 / 0.9)

    def test_always_inactive_rejected(self):
        with pytest.raises(ValueError):
            steady_state_threshold(13, 0.54, 12)


class TestExpectedReward:
    def test_always_inactive_is_zero(self):
        assert expected_reward_threshold(linear_params(), 13) == 0.0

    def test_matches_oracle_gain(self):
        rng = make_rng(202)
        for _ in range(100):
            params = random_wifi_params(rng)
            s = int(rng.integers(1, params.max_age + 2))
            pol = Policy.from_thresholds(s, None, params.max_age)
            oracle = chain_summary(pol, params)
            assert expected_reward_threshold(params, s) == pytest.approx(
                oracle.gain, abs=1e-10
            )

    def test_step_tie_fixture(self):
        params = SystemParams(
            contact_prob=0.5, max_age=21, utility=UtilityFunction.step(12, 3, 21),
            scan_cost=6.0,
        )
        assert expected_reward_threshold(params, 2) == pytest.approx(6.0)
        assert expected_reward_threshold(params, 3) == pytest.approx(6.0)

    def test_monte_carlo_agreement(self):
        # seeded Monte Carlo oracle: independent replay of a long iid string
        params = linear_params(scan_cost=0.99)
        rng = make_rng(303)
        slots = (rng.random(10**6) < params.contact_prob).astype(int)
        rewards = np.asarray(reference_replay(slots, params, threshold_action(1)))
        se = rewards.std() / np.sqrt(len(rewards))
        assert abs(rewards.mean() - expected_reward_threshold(params, 1)) < 3 * se

    def test_decreasing_in_costs_increasing_in_bonus(self):
        rng = make_rng(404)
        for _ in range(30):
            params = random_wifi_params(rng)
            if params.wifi_price == 0:
                continue
            s = int(rng.integers(1, params.max_age + 1))
            base = expected_reward_threshold(params, s)
            from dataclasses import replace

            assert expected_reward_threshold(replace(params, scan_cost=params.scan_cost + 1), s) < base
            assert expected_reward_threshold(replace(params, wifi_price=params.wifi_price + 1), s) < base
            shrunk = replace(params, bonus=params.bonus / 2)
            assert expected_reward_threshold(shrunk, s) <= base

    def test_affine_decomposition_in_bonus(self):
        rng = make_rng(505)
        for _ in range(20):
            params = random_wifi_params(rng)
            base, slope = threshold_reward_affine(params)
            got = base + params.bonus * slope
            assert np.allclose(got, threshold_reward_curve(params), atol=1e-12)

    def test_curve_matches_scalar_closed_form(self):
        rng = make_rng(507)
        for _ in range(40):
            params = random_wifi_params(rng, m_range=(2, 60))
            scalar = [expected_reward_threshold(params, s) for s in range(1, params.max_age + 2)]
            assert np.allclose(threshold_reward_curve(params), scalar, rtol=1e-12, atol=1e-12)

    def test_unimodality_over_random_instances(self):
        rng = make_rng(606)
        for _ in range(200):
            params = random_wifi_params(rng)
            curve = threshold_reward_curve(params)
            s_star = int(np.argmax(curve)) + 1
            diffs = np.diff(curve)
            assert np.all(diffs[: s_star - 1] >= -1e-9)
            assert np.all(diffs[s_star - 1 :] <= 1e-9)


class TestExpectedAge:
    def test_high_p_limit_is_half_cycle(self):
        # near-deterministic contacts: age cycles 1..s, mean (s+1)/2
        for s in (1, 3, 7):
            assert expected_age(s, 0.999999, 20) == pytest.approx((s + 1) / 2, abs=1e-4)

    def test_matches_pi_weighted_age(self):
        rng = make_rng(707)
        for _ in range(100):
            M = int(rng.integers(2, 40))
            s = int(rng.integers(1, M + 1))
            p = float(rng.uniform(0.05, 0.95))
            pi = steady_state_threshold(s, p, M)
            ages = np.arange(1, M + 1)
            assert expected_age(s, p, M) == pytest.approx(float(pi @ ages), abs=1e-10)

    def test_strictly_increasing_in_threshold(self):
        ages = [expected_age(s, 0.5, 21) for s in range(1, 22)]
        assert all(a < b for a, b in zip(ages, ages[1:]))


class TestTwoThreshold:
    def g3_params(self, **kw):
        defaults = dict(
            contact_prob=0.5, max_age=10, utility=UtilityFunction.linear(10),
            scan_cost=1.0, wifi_price=2.0, price_3g=20.0,
        )
        defaults.update(kw)
        return SystemParams(**defaults)

    def test_collapsed_band_equals_3g_only_form(self):
        params = self.g3_params()
        for s in range(1, 11):
            assert expected_reward_two_threshold(params, s, s) == pytest.approx(
                expected_reward_3g_only(params, s), abs=1e-12
            )

    def test_3g_only_curve_matches_scalar_form(self):
        rng = make_rng(807)
        for _ in range(20):
            params = random_3g_params(rng, m_range=(2, 60))
            scalar = [expected_reward_3g_only(params, s) for s in range(1, params.max_age + 1)]
            assert np.allclose(reward_curve_3g_only(params), scalar, rtol=1e-12, atol=1e-12)

    def test_matches_oracle_gain(self):
        rng = make_rng(808)
        params = self.g3_params()
        for _ in range(50):
            s3 = int(rng.integers(1, 11))
            sw = int(rng.integers(1, s3 + 1))
            pol = Policy.from_thresholds(sw, s3, 10)
            assert expected_reward_two_threshold(params, sw, s3) == pytest.approx(
                chain_summary(pol, params).gain, abs=1e-10
            )

    def test_monte_carlo_agreement(self):
        params = self.g3_params()
        rng = make_rng(909)
        slots = (rng.random(10**6) < params.contact_prob).astype(int)
        rewards = np.asarray(reference_replay(slots, params, threshold_action(3, 7)))
        se = rewards.std() / np.sqrt(len(rewards))
        assert abs(rewards.mean() - expected_reward_two_threshold(params, 3, 7)) < 3 * se

    def test_escalation_term_vanishes_at_pivot(self):
        # price_3g = G/p + P kills the (P3G - P - G/p) coefficient
        params = self.g3_params(price_3g=1.0 / 0.5 + 2.0)
        for sw, s3 in ((1, 1), (2, 5), (4, 9)):
            q = 0.5
            pi1 = 1.0 / (sw - 1 + (1 - q ** (s3 - sw + 1)) / 0.5)
            u = params.utility.values
            head = sum(u[: sw - 1])
            band = sum(u[i - 1] * q ** (i - sw) for i in range(sw, s3 + 1))
            expect = pi1 * (head + band - (1.0 / 0.5 + 2.0))
            assert expected_reward_two_threshold(params, sw, s3) == pytest.approx(expect)

    def test_s3g_beyond_max_age_rejected(self):
        with pytest.raises(ValueError):
            expected_reward_two_threshold(self.g3_params(), 2, 11)

    def test_3g_only_age(self):
        assert expected_age_3g_only(1, 12) == 1.0
        assert expected_age_3g_only(5, 12) == 3.0
        assert expected_age_3g_only(13, 12) == 12.0


class TestDegenerateSummary:
    def test_always_inactive_summary(self):
        summary = summary_for_threshold(linear_params(), 13)
        assert summary.gain == 0.0
        assert summary.age == 12.0
        assert summary.update_rate == 0.0

    def test_update_rate_equals_pi1(self):
        params = linear_params()
        summary = summary_for_threshold(params, 4)
        assert summary.update_rate == pytest.approx(0.20610687022900762)
        oracle = chain_summary(Policy.from_thresholds(4, None, 12), params)
        assert summary.update_rate == pytest.approx(oracle.update_rate, abs=1e-12)
