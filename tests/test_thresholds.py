"""Threshold search: first-crossing rule, regime tests, Lambert W, step
candidates, multi-optimum enumeration, two-threshold grid, monotonicity."""
import math
from dataclasses import replace

import numpy as np
import pytest

from agectl import (
    SystemParams,
    UtilityFunction,
    always_active,
    always_inactive,
    enumerate_optimal_thresholds,
    expected_reward_threshold,
    expected_reward_two_threshold,
    lambert_w,
    monotonicity_check,
    multi_optimum_condition,
    optimal_threshold,
    optimal_two_thresholds,
    solve_user_problem,
    step_utility_threshold,
    threshold_reward_curve,
    threshold_response,
)

from conftest import make_rng, random_3g_params, random_wifi_params


def linear_params(max_age=12, p=0.54, **kw):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=UtilityFunction.linear(max_age), **kw
    )


def step_params(v, k, max_age=21, p=0.5, scan_cost=6.0, **kw):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=UtilityFunction.step(v, k, max_age),
        scan_cost=scan_cost, **kw
    )


class TestOptimalThreshold:
    def test_low_cost_reference_point(self):
        res = optimal_threshold(linear_params(scan_cost=0.99))  # b = 0.09
        assert res.s_star == 1
        assert res.always_active and not res.always_inactive

    def test_first_crossing_equals_argmax(self):
        rng = make_rng(11)
        for _ in range(300):
            params = random_wifi_params(rng)
            res = optimal_threshold(params)
            curve = threshold_reward_curve(params)
            assert res.s_star == int(np.argmax(curve)) + 1
            assert res.reward == pytest.approx(float(np.max(curve)))
            assert res.s_star == min(res.all_optima)

    def test_boundary_flags_imply_extreme_thresholds(self):
        rng = make_rng(12)
        for _ in range(200):
            params = random_wifi_params(rng)
            res = optimal_threshold(params)
            if res.always_active:
                assert res.s_star == 1
            if res.always_inactive:
                assert params.max_age + 1 in res.all_optima
            if res.reward > 1e-9:
                assert not (res.always_active and res.always_inactive)

    def test_two_optima_are_consecutive(self):
        rng = make_rng(13)
        for _ in range(300):
            params = random_wifi_params(rng)
            res = optimal_threshold(params)
            if res.reward > 1e-9:
                assert len(res.all_optima) <= 2
                if len(res.all_optima) == 2:
                    assert res.all_optima[1] == res.all_optima[0] + 1


class TestBoundaryConditions:
    def test_zero_cost_means_always_active(self):
        assert always_active(linear_params())

    def test_zero_utility_means_always_inactive(self):
        params = SystemParams(
            contact_prob=0.5, max_age=5, utility=UtilityFunction.tabular([0] * 5),
            scan_cost=0.1,
        )
        assert always_inactive(params)

    def test_high_cost_reference_is_not_boundary(self):
        # G/p = 64.78 sits just below the cumulative utility 66: activating at
        # age 11 still pays, so neither boundary condition holds at b = 3.18
        params = linear_params(scan_cost=34.98)
        assert not always_inactive(params)
        assert optimal_threshold(params).s_star == 11

    def test_slightly_sparser_contacts_tip_to_inactive(self):
        params = linear_params(scan_cost=34.98, p=0.52)
        assert always_inactive(params)
        assert optimal_threshold(params).s_star == 13


class TestLambertW:
    def test_special_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w(-math.exp(-1)) == pytest.approx(-1.0, abs=1e-7)
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)

    def test_residual_over_log_grid(self):
        for x in np.logspace(-8, 8, 60):
            w = lambert_w(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_negative_branch_segment(self):
        for x in np.linspace(-math.exp(-1) + 1e-9, -1e-9, 25):
            w = lambert_w(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)


class TestStepUtility:
    def test_two_optimal_thresholds_fixture(self):
        res = step_utility_threshold(step_params(12, 3))
        assert res.s_star == 2
        assert set(res.all_optima) >= {2, 3}
        assert not res.fallback_sweep

    def test_unique_optimum_fixture(self):
        assert step_utility_threshold(step_params(16, 3)).s_star == 2

    def test_zero_reward_fixture(self):
        res = step_utility_threshold(step_params(4, 3))
        assert res.reward == pytest.approx(0.0, abs=1e-12)
        assert expected_reward_threshold(step_params(4, 3), 3) == pytest.approx(0.0, abs=1e-12)

    def test_candidates_match_sweep_randomized(self):
        rng = make_rng(21)
        for _ in range(500):
            M = int(rng.integers(3, 41))
            price = float(rng.uniform(0, 10))
            params = SystemParams(
                contact_prob=float(rng.uniform(0.05, 0.95)),
                max_age=M,
                utility=UtilityFunction.step(
                    float(rng.uniform(0.1, 20.0)), int(rng.integers(1, M + 1)), M
                ),
                scan_cost=float(rng.uniform(0, 30)),
                wifi_price=price,
                bonus=float(rng.uniform(0, price)) if rng.random() < 0.5 else 0.0,
            )
            assert step_utility_threshold(params).s_star == optimal_threshold(params).s_star

    def test_requires_step_form(self):
        with pytest.raises(ValueError):
            step_utility_threshold(linear_params())


class TestEnumeration:
    def test_fixtures(self):
        optima, degenerate = enumerate_optimal_thresholds(step_params(12, 3))
        assert optima == (2, 3) and not degenerate
        optima, degenerate = enumerate_optimal_thresholds(step_params(16, 3))
        assert optima == (2,) and not degenerate

    def test_degenerate_fixture_and_condition(self):
        params = step_params(4, 3)
        optima, degenerate = enumerate_optimal_thresholds(params)
        assert degenerate
        assert 22 in optima  # always inactive among the optima
        assert multi_optimum_condition(params)

    def test_constructed_degenerate_case(self):
        # utility (6, 0, 0, 0, 0) with cycle cost exactly 6
        params = SystemParams(
            contact_prob=0.5, max_age=5, utility=UtilityFunction.tabular([6, 0, 0, 0, 0]),
            scan_cost=3.0,
        )
        optima, degenerate = enumerate_optimal_thresholds(params)
        assert degenerate and len(optima) >= 3
        assert max(threshold_reward_curve(params)) == pytest.approx(0.0, abs=1e-12)
        assert multi_optimum_condition(params)

    def test_condition_agrees_with_sweep(self):
        rng = make_rng(22)
        for _ in range(200):
            params = random_wifi_params(rng)
            optima, degenerate = enumerate_optimal_thresholds(params)
            if multi_optimum_condition(params):
                assert degenerate
            if degenerate:
                assert optimal_threshold(params).reward == pytest.approx(0.0, abs=1e-9)


class TestTwoThresholds:
    def test_cheap_3g_regime_has_no_wifi_band(self):
        params = linear_params(
            max_age=10, p=0.5, scan_cost=1.0, wifi_price=2.0, price_3g=3.0
        )
        res = optimal_two_thresholds(params)
        assert res.s_wifi == res.s_3g

    def test_huge_3g_price_reduces_to_wifi_only(self):
        params = linear_params(scan_cost=0.99, price_3g=1e9)
        res = optimal_two_thresholds(params)
        wifi = optimal_threshold(params)
        assert res.s_3g == 13
        assert res.s_wifi == wifi.s_star
        assert res.reward == pytest.approx(wifi.reward)

    def test_matches_mdp_gain(self):
        params = linear_params(
            max_age=10, p=0.5, scan_cost=1.0, wifi_price=2.0, price_3g=20.0
        )
        res = optimal_two_thresholds(params)
        report = solve_user_problem(params)
        assert res.reward == pytest.approx(report.value.gain, abs=1e-6)

    def test_requires_3g(self):
        with pytest.raises(ValueError):
            optimal_two_thresholds(linear_params())

    def test_ties_prefer_smaller_3g_threshold(self):
        params = random_3g_params(make_rng(423))
        res = optimal_two_thresholds(params)
        wifi_only = expected_reward_threshold(params, 2)
        assert abs(res.reward - wifi_only) < 1e-9  # (2, 13) ties with (2, 12)
        assert (res.s_wifi, res.s_3g) == (2, 12)
        assert res.reward == pytest.approx(expected_reward_two_threshold(params, 2, 12), abs=1e-12)


class TestMonotonicity:
    def test_reference_cost_grid(self):
        rep = monotonicity_check(linear_params(), "G", [0.99, 7.92, 17.82, 34.98])
        assert rep.thresholds == (1, 5, 7, 11)
        assert rep.ok

    def test_bonus_direction(self):
        params = linear_params(scan_cost=1.0, wifi_price=10.0)
        rep = monotonicity_check(params, "B", [0.0, 2.5, 5.0, 7.5, 10.0])
        assert rep.ok
        assert rep.thresholds[0] >= rep.thresholds[-1]

    def test_randomized_grids_never_violate(self):
        rng = make_rng(31)
        for _ in range(60):
            params = random_wifi_params(rng)
            g_grid = np.sort(rng.uniform(0, 5, size=5))
            assert monotonicity_check(params, "G", list(g_grid)).ok
            p_grid = np.sort(rng.uniform(0, 5, size=5))
            base = replace(params, bonus=0.0)
            assert monotonicity_check(base, "P", list(p_grid)).ok
            price = float(rng.uniform(1, 6))
            priced = replace(params, wifi_price=price, bonus=0.0)
            b_grid = np.sort(rng.uniform(0, price, size=5))
            assert monotonicity_check(priced, "B", list(b_grid)).ok

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_check(linear_params(), "Z", [1.0])


class TestThresholdResponse:
    def test_matches_pointwise_search(self):
        rng = make_rng(41)
        for _ in range(40):
            params = random_wifi_params(rng)
            if params.wifi_price == 0:
                continue
            bonuses = rng.uniform(0, params.wifi_price, size=8)
            got = threshold_response(params, bonuses)
            for b, s in zip(bonuses, got):
                assert s == optimal_threshold(replace(params, bonus=float(b))).s_star

    def test_non_finite_bonus_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                threshold_response(linear_params(wifi_price=1.0), [0.5, bad])

    def test_non_increasing_in_bonus(self):
        rng = make_rng(42)
        for _ in range(50):
            params = random_wifi_params(rng)
            if params.wifi_price == 0:
                continue
            grid = np.linspace(0, params.wifi_price, 50)
            response = threshold_response(params, grid)
            assert np.all(np.diff(response) <= 0)
