"""Threshold search: first-crossing rule, regime tests, Lambert W, step
candidates, multi-optimum enumeration, two-threshold grid, monotonicity."""
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from agectl import (
    Action,
    Policy,
    PublisherInstance,
    SystemParams,
    UtilityFunction,
    always_active,
    always_inactive,
    bonus_range_for_threshold,
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
    verify_threshold_structure,
)
from agectl import chain, learning, model, thresholds
from agectl.chain import two_threshold_reward_grid

from conftest import (
    C_CLOSED, EPS, make_rng, random_3g_params, random_wifi_params, reference_exact,
    reference_first_crossing, reward_bound, system_params, tie_heavy_params, ulp_step_params,
)


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

    def test_equal_slopes_match_the_first_crossing_scan(self):
        # below p = 1e-17 every pi_1(s) rounds to one float, so a bonus edge
        # divides a float-noise reward gap by +0.0 and must keep its sign
        rng = make_rng(14)
        for _ in range(200):
            M = int(rng.integers(2, 13))
            values = sorted(rng.uniform(0.0, 10.0, M).round(int(rng.integers(0, 4))), reverse=True)
            params = SystemParams(
                contact_prob=float(rng.choice([1e-300, 1e-30, 1e-20, 1e-18])), max_age=M,
                utility=UtilityFunction.tabular(values),
                scan_cost=float(rng.choice([0.0, 1e-30, 1e-25])),
            )
            curve = threshold_reward_curve(params)
            assert optimal_threshold(params).s_star == reference_first_crossing(curve)

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

    # Linear(12) sums to 11 + 10 + ... + 1 = 66 over ages 1..11, and at p = 0.5
    # a scan cost of G = 33 makes G/p = 66 as well.  A cycle of threshold 11
    # earns 65 on ages 1..10 plus 1 at age 11 and pays G/p = 66; threshold 12
    # earns 66 and pays 66; never activating earns 0 at age 12.  All three
    # thresholds earn 0, so G = 33 is the never-activate boundary itself.

    def test_boundary_ties_three_thresholds_and_the_first_crossing_wins(self):
        params = linear_params(p=0.5, scan_cost=33.0)
        res = optimal_threshold(params)
        assert res.all_optima == (11, 12, 13)
        assert res.s_star == 11   # a tie goes to the smaller threshold
        assert always_inactive(params) and res.always_inactive   # never activating ties

    def test_just_below_the_boundary_only_the_first_crossing_is_optimal(self):
        params = linear_params(p=0.5, scan_cost=33.0 - 1e-6)
        res = optimal_threshold(params)
        assert not always_inactive(params) and not res.always_inactive
        assert res.all_optima == (11,)

    def test_just_past_the_boundary_never_activate(self):
        params = linear_params(p=0.5, scan_cost=33.0 + 1e-6)
        assert always_inactive(params)
        assert optimal_threshold(params).s_star == 13

    def test_utility_sum_is_the_same_on_every_python(self):
        # ten stored 0.1s sum to 1.0000000000000000555 exactly, past
        # P = 1 - 2^-53, so threshold M earns more than never activating; a
        # left-to-right float sum, Python 3.11's sum(), reads 0.9999999999999999
        params = SystemParams(
            contact_prob=0.5, max_age=11, utility=UtilityFunction.tabular([0.1] * 10 + [0.0]),
            scan_cost=0.0, wifi_price=0.9999999999999999,
        )
        assert reference_exact(Policy.from_thresholds(11, None, 11), params).gain > 0
        assert not always_inactive(params) and not optimal_threshold(params).always_inactive

    def test_utility_sum_past_the_float_range_is_inf(self):
        utility = UtilityFunction.tabular([1e308] * 3 + [0.0])
        params = SystemParams(contact_prob=1e-300, max_age=4, utility=utility, scan_cost=1e308)
        assert always_inactive(params)   # inf <= G/p = inf
        assert not always_inactive(replace(params, scan_cost=1.0))

    def test_always_active_matches_the_curve(self):
        # s* = 1 exactly when E[r; 1] >= E[r; 2], with a margin for rounding
        rng = make_rng(4603)
        for _ in range(300):
            params = random_wifi_params(rng, m_range=(2, 40))
            curve = threshold_reward_curve(params)
            if abs(curve[0] - curve[1]) > 1e-9:
                assert always_active(params) == (curve[0] > curve[1])


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

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError, match=f"got {x}"):
            lambert_w(x)

    @pytest.mark.parametrize("x", [5e307, 1e308, sys.float_info.max])
    def test_largest_arguments(self, x):
        # w e^w = x as w + log w = log x, which no float overflows
        w = lambert_w(x)
        assert abs(w + math.log(w) - math.log(x)) <= 4 * math.ulp(math.log(x))

    def test_no_convergence_within_the_step_cap(self, monkeypatch):
        monkeypatch.setattr(thresholds, "_LAMBERT_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="failed to converge for x=100000.0"):
            lambert_w(1e5)


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
        assert res.reward == expected_reward_two_threshold(params, 2, 12)

    @given(tie_heavy_params())
    def test_ties_go_to_the_solvers_wifi_threshold(self, params):
        # the search ties toward the later WiFi threshold, as policy iteration
        # does; toward the earlier one it differed on exact ties such as
        # (2, 3) and (3, 3) of test_exact_tie_across_a_block_boundary
        res = optimal_two_thresholds(params)
        assert res.s_wifi == verify_threshold_structure(solve_user_problem(params).policy)[0]


def dense_two_threshold_pick(params):
    """The documented tie rule read off the dense grid with the WiFi-only edge
    as its last column, s_3g = M + 1: never activating unless some pair earns
    more than ``model.TIE_TOL``, else the largest s_wifi, then the smallest
    s_3g in that row, within the tie of the best."""
    M, tie = params.max_age, model.TIE_TOL
    grid = np.column_stack((two_threshold_reward_grid(params), threshold_reward_curve(params)[:M]))
    top = float(grid.max())
    if top <= tie:
        return M + 1, M + 1, 0.0
    hits = grid >= top - tie
    s_w = int(np.flatnonzero(hits.any(axis=1))[-1])
    s3 = int(np.flatnonzero(hits[s_w])[0])
    return s_w + 1, s3 + 1, float(grid[s_w, s3])


def assert_same_pick(got, expected):
    s_w, s3, reward = expected
    assert (got.s_wifi, got.s_3g, got.reward.hex()) == (s_w, s3, reward.hex())


def grid_branch(params):
    """3G dearer than the WiFi cycle cost G/p + P, the regime where a WiFi
    band can pay."""
    return params.price_3g > params.scan_cost / params.contact_prob + params.wifi_price


def explicit_params(M, form):
    if form == "linear":
        utility = UtilityFunction.linear(M)
    elif form == "step":
        utility = UtilityFunction.step(5.0, max(1, M // 3), M)
    else:
        utility = UtilityFunction.tabular(np.sort(make_rng(M).uniform(0.0, 10.0, size=M))[::-1])
    scale = max(utility.values[0] - utility.values[-1], 1.0) / 10.0
    return SystemParams(
        contact_prob=0.05, max_age=M, utility=utility, scan_cost=0.3 * scale,
        wifi_price=scale, price_3g=12.0 * scale, bonus=0.25 * scale,
    )


def drift_params(M, d):
    """A row-0 peak at span 0, then a utility that moves by -d an age, to 0
    at max_age: free WiFi, p = 1e-6 and P3G = 1, so row 0's marginal is
    u(j + 1) + p.  With d > 0 the utility rises, and the marginal with it."""
    values = [1.0 + 1e-10 - (M - 2) * d] + [-(M - 1 - age) * d for age in range(1, M)]
    return SystemParams(contact_prob=1e-6, max_age=M, utility=UtilityFunction.tabular(values),
                        scan_cost=0.0, wifi_price=0.0, price_3g=1.0)


class TestTwoThresholdStream:
    """The streamed search against the dense grid, field for field."""

    @settings(max_examples=150)   # the third on one-ulp utilities comes on top
    @given(st.one_of(st.tuples(system_params(with_3g=True), st.integers(1, 80)),
                     st.tuples(tie_heavy_params(), st.integers(1, 80)),
                     # blocks of 16 cells or more: one-row panels on rows of up
                     # to 300 ages, as the search reads rows at large M
                     st.tuples(ulp_step_params(), st.integers(16, 80))),
           st.sampled_from((model.TIE_TOL, 1e-3, 0.1, 1.0)))
    def test_matches_dense_pick(self, case, tie):
        # small blocks put a few rows in each; a wide tie makes many cells tie
        # across blocks, so the last row within the tie often sits in a block
        # before the last, which the search reads again
        params, block_cells = case
        assume(grid_branch(params))
        with mock.patch.object(model, "TIE_TOL", tie):
            expected = dense_two_threshold_pick(params)
            with mock.patch.object(chain, "BLOCK_CELLS", block_cells):
                assert_same_pick(optimal_two_thresholds(params), expected)

    @given(st.one_of(system_params(with_3g=True), tie_heavy_params()),
           st.sampled_from((model.TIE_TOL, 1e-3, 0.1, 1.0)))
    # costs far below one ulp of 1.4e303 rewards: (13, 13) and (16, 20) have
    # the same reward bits, and the tie rule takes the larger s_wifi
    @example(SystemParams(contact_prob=0.9542867100902295, max_age=36,
                          utility=UtilityFunction.tabular([1.4149868178849858e303] * 35 + [0.0]),
                          scan_cost=6.605142635834034e101, wifi_price=5.395921034316342,
                          price_3g=4.308188010591358), model.TIE_TOL)
    # G/p past the float range, rewards near 1e300 and rows that rise and dip
    # by an ulp: the dense picks (4, 57) at 0x1.8fd3905aa812bp+997 and (16, 59)
    # at 0x1.2103d65005ec2p+1009, one ulp above the cells of (57, 57) and (52, 58)
    @example(SystemParams(contact_prob=6.841885299867121e-252, max_age=58,
                          utility=UtilityFunction.tabular([2.091882089507471e300] * 57 + [0.0]),
                          scan_cost=1.963779157062056e120, wifi_price=0.1561772480238904,
                          price_3g=1.4718313058586867e28), model.TIE_TOL)
    @example(SystemParams(contact_prob=0.0013481116026128287, max_age=60,
                          utility=UtilityFunction.tabular([6.193640964256937e303] * 59 + [0.0]),
                          scan_cost=1.1743394560062807e237, wifi_price=7.648004568785868e31,
                          price_3g=1.8716116238653966e80), model.TIE_TOL)
    def test_cheap_3g_matches_dense_pick(self, params, tie):
        # 3G no dearer than the WiFi cycle: no WiFi band pays in exact
        # arithmetic, but float ties can put the dense grid's pick off the
        # 3G-only pairs, and the search must pick it there too
        assume(not grid_branch(params))
        with mock.patch.object(model, "TIE_TOL", tie):
            assert_same_pick(optimal_two_thresholds(params), dense_two_threshold_pick(params))

    @pytest.mark.parametrize("form", ["linear", "step", "tabular"])
    @pytest.mark.parametrize("M", [2, 3, 16, 17, 64, 65, 255, 256, 257, 300, 1000])
    def test_matches_dense_pick_at_block_edges(self, M, form):
        params = explicit_params(M, form)
        assert grid_branch(params)
        got = optimal_two_thresholds(params)
        assert_same_pick(got, dense_two_threshold_pick(params))
        rows = chain.BLOCK_CELLS // M
        if rows < M:   # the pick's row lies in a block before the last
            assert got.s_wifi <= rows * ((M - 1) // rows)

    @pytest.mark.parametrize("block_cells", [20, 40, chain.BLOCK_CELLS])
    def test_exact_tie_across_a_block_boundary(self, block_cells):
        # (2, 3) and (3, 3) both earn exactly 16.5, the best of the grid; with one
        # or two rows per block, row 2 ends a block and row 3 starts the next.
        # The later row wins, as in policy iteration
        params = SystemParams(contact_prob=0.5, max_age=20, utility=UtilityFunction.linear(20),
                              scan_cost=2.0, price_3g=5.0)
        grid = two_threshold_reward_grid(params)
        assert grid[1, 2] == grid[2, 2] == grid.max() == 16.5
        with mock.patch.object(chain, "BLOCK_CELLS", block_cells):
            res = optimal_two_thresholds(params)
        assert (res.s_wifi, res.s_3g, res.reward) == (3, 3, 16.5)
        assert verify_threshold_structure(solve_user_problem(params).policy)[0] == 3

    @pytest.mark.parametrize("params", [
        explicit_params(300, "tabular"),
        # rows' maxima come by span 52 and repeat exactly up to span 116
        SystemParams(contact_prob=0.5, max_age=120, utility=UtilityFunction.step(1.0, 30, 120),
                     scan_cost=0.0, wifi_price=0.0, price_3g=2.0),
    ], ids=["tabular", "flat-maxima"])
    def test_reads_rows_up_to_their_3g_marginal(self, params):
        # the floor g is the best of the span-0 column and the WiFi-only
        # curve, less the tie and 2·M·eps of the largest term; A(g) is the
        # last age whose 3G marginal u(x) - G + p·(P3G - P) tops it.  Every
        # panel starts at span 0 and reads its first row no further than
        # s_3g = max(s_wifi, A(g)), each later row of a panel as many ages
        # further as it lies below the first; every row whose dense maximum
        # reaches the pick's floor has its dense argmax in what was read
        M, tie, p = params.max_age, model.TIE_TOL, params.contact_prob
        G, P, P3G = params.scan_cost, params.wifi_price, params.price_3g
        grid = two_threshold_reward_grid(params)
        wifi_only = threshold_reward_curve(params)[:M]
        u = params.utility.value_array
        best = max(0.0, float(wifi_only.max()), float(np.diag(grid).max()))
        g = best - tie - 2 * M * EPS * max(best, abs(u[0]), abs(u[-1]), G, P, P3G)
        last = int(np.count_nonzero(u - G + p * (P3G - P) > g))
        expected = dense_two_threshold_pick(params)
        calls = []
        call = chain._Panels.__call__

        def spy(panels, lo, hi, width):
            calls.append((lo, hi, width))
            return call(panels, lo, hi, width)

        with mock.patch.object(chain._Panels, "__call__", spy):
            assert_same_pick(optimal_two_thresholds(params), expected)
        assert calls[0] == (0, M, 1)
        assert calls[-1] == (expected[0] - 1, expected[0], M - expected[0] + 1)   # the pick's row, whole
        reach = np.arange(1, M + 1)   # the last s_3g read in each row
        for lo, hi, width in calls[1:-1]:
            assert lo + width <= max(lo + 1, last)
            reach[lo:hi] = np.maximum(reach[lo:hi], np.minimum(np.arange(lo, hi) + width, M))
        assert (reach[: last - 1] >= last).all()
        top = max(grid.max(), wifi_only.max())
        for r in np.flatnonzero(grid.max(axis=1) >= top - tie):
            assert r + int(np.argmax(grid[r, r:])) + 1 <= reach[r], r

    def test_an_inf_best_reads_every_row_whole(self):
        # the heads overflow: the span-0 column holds inf and the WiFi-only
        # curve nan, so g is nan and bounds no row.  Every row below M is
        # read from span 0 to M, as the dense grid holds it; the nan cells
        # there are ROADMAP item 5's class
        M = 30
        params = SystemParams(contact_prob=8.70168156431459e-242, max_age=M,
                              utility=UtilityFunction.tabular([9.645542750399209e306] * 29 + [0.0]),
                              scan_cost=6.333318040347827e307, wifi_price=6.772593395067656e271,
                              price_3g=1.76055616677983e159)
        calls = []
        call = chain._Panels.__call__

        def spy(panels, lo, hi, width):
            calls.append((lo, hi, width))
            return call(panels, lo, hi, width)

        with warnings.catch_warnings(), mock.patch.object(chain._Panels, "__call__", spy):
            warnings.simplefilter("ignore", RuntimeWarning)
            optimal_two_thresholds(params)
        assert calls[:2] == [(0, M, 1), (0, M - 1, M)]

    def test_a_slowly_falling_utility_never_climbs_back_past_the_tie(self):
        # a utility that rises by just under SLACK_TOL an age is rejected
        # where it is built; falling as slowly over 3000 ages, row 0 stalls
        # after span 0 and never tops that cell by more than TIE_TOL
        M, d = 3000, 0.99 * model.SLACK_TOL
        with pytest.raises(ValueError, match="non-increasing"):
            drift_params(M, d)
        row = chain._Panels(drift_params(M, -d))(0, 1, M)[:, 0]
        assert row[1] < row[0]
        assert row.max() <= row[0] + model.TIE_TOL

    def test_memory_stays_within_a_few_blocks(self):
        # the dense grid at M = 2000 alone is 30.5 MiB
        params = explicit_params(2000, "tabular")
        tracemalloc.start()
        try:
            optimal_two_thresholds(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * chain.BLOCK_CELLS * 8   # eight blocks of float64 cells: 4 MiB

    @given(system_params(with_3g=True), st.data())
    def test_scalar_has_the_bits_of_the_search_and_the_grid(self, params, data):
        # one home for the two-threshold reward means one value per pair, at
        # every 3G price
        M = params.max_age
        res = optimal_two_thresholds(params)
        if res.s_3g <= M:
            assert res.reward == expected_reward_two_threshold(params, res.s_wifi, res.s_3g)
        grid = two_threshold_reward_grid(params)
        for _ in range(10):
            s3 = data.draw(st.integers(1, M))
            s_w = data.draw(st.integers(1, s3))
            assert grid[s_w - 1, s3 - 1] == expected_reward_two_threshold(params, s_w, s3)

    def test_3g_only_pick_reads_its_reward_from_the_blocks(self):
        # 3G no dearer than the WiFi cycle: the search picks the 3G-only
        # pair (3, 3) with its cell's bits, 0.41666666666666663; that cell,
        # like every cell, is the exact 5/12 within its rounding bound
        params = linear_params(max_age=4, p=0.75, scan_cost=3.0, wifi_price=2.0, price_3g=1.0)
        assert not grid_branch(params)
        res = optimal_two_thresholds(params)
        assert (res.s_wifi, res.s_3g, res.reward) == (3, 3, 0.41666666666666663)
        assert res.reward == expected_reward_two_threshold(params, 3, 3)
        exact = reference_exact(Policy.from_thresholds(3, 3, 4), params)
        assert exact.gain == Fraction(5, 12)
        assert abs(Fraction(res.reward) - exact.gain) <= reward_bound(C_CLOSED, exact, params)


    def test_a_pick_one_ulp_above_the_exact_best_is_within_the_bound_of_it(self):
        # G/p = 2.9e371 is past the float range.  The search gives the dense
        # grid's pick, (4, 57), one ulp above the cell of (57, 57); the exact
        # best over all 1,711 pairs and 59 WiFi-only thresholds is (57, 57)
        # (reference_exact over every one takes 20 s, so only the two are
        # read here).  (4, 57) trails it by 1.8e120, inside both bounds
        M = 58
        params = SystemParams(contact_prob=6.841885299867121e-252, max_age=M,
                              utility=UtilityFunction.tabular([2.091882089507471e300] * 57 + [0.0]),
                              scan_cost=1.963779157062056e120, wifi_price=0.1561772480238904,
                              price_3g=1.4718313058586867e28)
        res = optimal_two_thresholds(params)
        assert (res.s_wifi, res.s_3g, res.reward.hex()) == (4, 57, "0x1.8fd3905aa812bp+997")
        pick, best = (reference_exact(Policy.from_thresholds(*pair, M), params) for pair in ((4, 57), (57, 57)))
        assert 0 < best.gain - pick.gain < Fraction(2e120)
        assert abs(Fraction(res.reward) - pick.gain) <= reward_bound(C_CLOSED, pick, params)
        assert best.gain - Fraction(res.reward) <= reward_bound(C_CLOSED, best, params)

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
                curve = threshold_reward_curve(replace(params, bonus=float(b)))
                assert s == reference_first_crossing(curve)

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


@given(system_params(max_age=60, with_3g=False, min_price=0.1))
def test_response_non_increasing_in_bonus(params):
    s = threshold_response(params, np.linspace(0.0, params.wifi_price, 41))
    assert np.all(np.diff(s) <= 0)
    assert 1 <= s.min() and s.max() <= params.max_age + 1


#: sorted cost multipliers: at 1.0 the swept cost alone reaches the always-inactive
#: boundary G/p + P - B = ΣU
COST_FACTORS = st.lists(st.floats(0.0, 1.5), min_size=2, max_size=8).map(sorted)


def _utility_sum(params):
    return float(sum(params.utility.values[: params.max_age - 1]))


@given(system_params(with_3g=False), COST_FACTORS)
def test_s_star_non_decreasing_in_scan_cost(params, factors):
    total = _utility_sum(params)
    grid = [f * params.contact_prob * total for f in factors]
    s = [optimal_threshold(replace(params, scan_cost=g)).s_star for g in grid]
    assert s == sorted(s), grid


@given(system_params(with_3g=False), COST_FACTORS)
def test_s_star_non_decreasing_in_wifi_price(params, factors):
    total = _utility_sum(params)
    grid = [params.bonus + f * total for f in factors]   # P >= B keeps the bonus valid
    s = [optimal_threshold(replace(params, wifi_price=price)).s_star for price in grid]
    assert s == sorted(s), grid


@st.composite
def params_with_an_edge_inside(draw):
    """``system_params`` at M <= 12 without 3G, with the scan cost moved so
    that one of its finite bonus edges lies at f * P, f in [0, 1]: every edge
    moves up by G/p as the scan cost G grows."""
    params = draw(system_params(max_age=12, with_3g=False))
    free = thresholds.bonus_edges(replace(params, scan_cost=0.0))
    free = free[np.isfinite(free)]
    if not free.size:
        return params
    edge = draw(st.sampled_from(free.tolist()))
    at = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) * params.wifi_price
    return replace(params, scan_cost=max(params.contact_prob * (at - edge), 0.0))


@settings(max_examples=60)
@given(params_with_an_edge_inside())
# the long-rounds preset's instance at M = 12, and a flat step whose exact
# edges coincide
@example(SystemParams(contact_prob=0.54, max_age=12, utility=UtilityFunction.linear(12),
                      scan_cost=0.4, wifi_price=40.0))
@example(SystemParams(contact_prob=0.5, max_age=12, utility=UtilityFunction.step(1.0, 5, 12),
                      scan_cost=0.25, wifi_price=4.0))
def test_routes_agree_at_every_bonus_edge(params):
    # every route's s*(B) on each finite bonus edge c in [0, P] and the float
    # on either side of it: optimal_threshold, threshold_response, the envs'
    # scalar response, the ends of bonus_range_for_threshold and the solver's
    # policy, against the threshold of the largest exact reward, ties to the
    # smaller threshold.  The float routes answer from one set of float edges
    # and must agree exactly with each other; against the exact answer they
    # may take another threshold only where the float edge is within rounding
    # of the exact one: where that threshold's exact reward trails the best
    # by no more than the two rewards' rounding bounds (conftest.reward_bound).
    # Policy iteration ties actions within TIE_TOL to the inactive one, so its
    # threshold is the exact one or a larger one within TIE_TOL of the best
    M, price = params.max_age, params.wifi_price
    edges = thresholds.bonus_edges(params)
    inside = edges[np.isfinite(edges) & (edges >= 0) & (edges <= price)]
    bonuses = sorted({float(b) for c in inside for b in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))
                      if 0 <= b <= price})
    response, instance = learning._env_response(params, 1, 1), PublisherInstance(params, 1, 1.0)
    policies = [Policy.from_thresholds(s, None, M) for s in range(1, M + 2)]
    exact = [reference_exact(policy, replace(params, bonus=0.0)) for policy in policies]
    for b in bonuses:
        at_b = replace(params, bonus=b)
        gains = [e.gain + Fraction(b) * e.wifi_rate for e in exact]   # + B per WiFi update, B <= P
        best = max(gains)
        s_exact = gains.index(best) + 1
        bounds = [reward_bound(C_CLOSED, e, at_b) for e in exact]
        s = optimal_threshold(at_b).s_star
        assert threshold_response(params, [b]).tolist() == [s] and response(b) == s, b
        assert s == s_exact or best - gains[s - 1] <= bounds[s - 1] + bounds[s_exact - 1], (b, s, s_exact)
        lo, hi = bonus_range_for_threshold(instance, s)
        assert lo <= b <= hi
        # an end falls on b where an edge does, or where [0, P] clips it
        assert (lo == b) == (b in inside or b == 0), (b, lo)
        assert (hi == b) == (np.nextafter(b, np.inf) in inside or b == price), (b, hi)
        actions = solve_user_problem(at_b).policy.actions
        t = next((x for x, a in enumerate(actions, start=1) if a is not Action.INACTIVE), M + 1)
        assert actions == policies[t - 1].actions
        assert s_exact <= t and best - gains[t - 1] <= model.TIE_TOL, (b, t, s_exact)


def test_monotonicity_check_reports_the_first_violation(monkeypatch):
    # s*(B) cannot rise as B grows: a stubbed search that rises from 2 to 4
    # and then falls to 3 is reported at its rise only
    params = SystemParams(contact_prob=0.5, max_age=6, utility=UtilityFunction.linear(6), wifi_price=3.0)
    picks = {0.0: 2, 1.0: 4, 2.0: 3}
    monkeypatch.setattr(thresholds, "optimal_threshold", lambda swept: SimpleNamespace(s_star=picks[swept.bonus]))
    report = monotonicity_check(params, "B", [0.0, 1.0, 2.0])
    assert (report.thresholds, report.violation, report.ok) == ((2, 4, 3), (0, 2, 4), False)


def test_zero_step_value_takes_the_fallback_sweep():
    # v = 0 leaves the Lambert argument undefined, so the step search sweeps
    params = SystemParams(contact_prob=0.5, max_age=8, utility=UtilityFunction.step(0.0, 3, 8), scan_cost=0.5)
    assert thresholds._step_interior_root(params) is None
    assert step_utility_threshold(params) == replace(optimal_threshold(params), fallback_sweep=True)
