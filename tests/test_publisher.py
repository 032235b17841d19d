"""Publisher problem: target threshold, bonus-range inversion, and the
age-minimal bonus against a dense grid-scan oracle."""
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from agectl import (
    PublisherInstance,
    SystemParams,
    UtilityFunction,
    bonus_range_for_threshold,
    expected_age,
    message_rate,
    optimal_bonus,
    optimal_threshold,
    target_threshold,
    threshold_response,
)
from agectl.thresholds import bonus_edges

from conftest import make_rng, random_wifi_params, system_params


def sponsorship_instance(n_users=20, rate_cap=11.0):
    params = SystemParams(
        contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30),
        scan_cost=0.4, wifi_price=40.0,
    )
    return PublisherInstance(params=params, n_users=n_users, rate_cap=rate_cap)


def exact_edges(params):
    """Bonus edges e_1..e_M of a linear-utility instance in exact rationals:
    e_j is the running minimum of the crossing bonuses
    c_j = (base_{j+1} - base_j) / (slope_j - slope_{j+1}) of the affine curve
    E[r; s] = base_s + B * slope_s, computed from the float inputs exactly."""
    M = params.max_age
    p = Fraction(params.contact_prob)
    q = 1 - p
    u = [Fraction(v) for v in params.utility.values]
    cost = Fraction(params.scan_cost) / p + Fraction(params.wifi_price)
    base, slope = [], []
    for s in range(1, M + 1):
        pi1 = 1 / (s + q / p)
        tail = sum(u[s - 1 + i] * q**i for i in range(M - s + 1))
        base.append(pi1 * (sum(u[: s - 1]) + tail - cost))
        slope.append(pi1)
    base.append(Fraction(0))
    slope.append(Fraction(0))
    edges, low = [], None
    for j in range(M):
        c = (base[j + 1] - base[j]) / (slope[j] - slope[j + 1])
        low = c if low is None else min(low, c)
        edges.append(low)
    return edges


def grid_scan_best(instance, n_points=10_001):
    """Oracle: enumerate bonuses on a dense grid, keep those within the rate
    cap, and pick the age-minimal (equivalently threshold-minimal) one."""
    params = instance.params
    p = params.contact_prob
    bonuses = np.linspace(0.0, params.wifi_price, n_points)
    response = threshold_response(params, bonuses)
    never = params.max_age + 1
    rates = np.where(
        response == never, 0.0, instance.n_users / (response + (1.0 - p) / p)
    )
    feasible = rates <= instance.rate_cap + 1e-9
    if not feasible.any():
        return None
    return int(response[feasible].min())


class TestInstance:
    @pytest.mark.parametrize("cap", [math.nan, math.inf, 0.0])
    def test_bad_rate_cap_rejected_on_construction(self, cap):
        with pytest.raises(ValueError):
            sponsorship_instance(rate_cap=cap)


class TestTargetThreshold:
    @pytest.mark.parametrize(
        "n,cap,expected", [(50, 11.0, 4), (20, 11.0, 1), (5, 100.0, 1)]
    )
    def test_reference_values(self, n, cap, expected):
        assert target_threshold(n, cap, 0.54, 30) == expected

    def test_linear_scan_oracle(self):
        rng = make_rng(51)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            cap = float(rng.uniform(0.5, 40.0))
            p = float(rng.uniform(0.05, 0.95))
            max_age = int(rng.integers(2, 40))
            got = target_threshold(n, cap, p, max_age)
            feasible = [
                s for s in range(1, max_age + 2) if n / (s + (1 - p) / p) <= cap + 1e-9
            ]
            expected = feasible[0] if feasible else max_age + 1
            assert got == expected

    def test_a_rate_on_the_budget_up_to_its_rounding_is_feasible(self):
        # the float 0.3 is 0.3 - 1.1e-17, so 3 / 0.3 - (1 - p) / p is 9 plus
        # 3.7e-16 as exact rationals; at s = 9 the rate 3 / 10 rounds to the
        # cap itself, so s = 9 keeps to the budget
        assert 3 / (9 + 1) == 0.3
        assert target_threshold(3, 0.3, 0.5, 20) == 9

    def test_clipped_into_range(self):
        assert target_threshold(10_000, 1.0, 0.5, 10) == 11
        assert target_threshold(1, 1000.0, 0.5, 10) == 1
        assert target_threshold(500, math.inf, 0.5, 10) == 1   # n / inf is 0

    @pytest.mark.parametrize("cap,expected", [(1e-320, 1), (5e-323, 13)],
                             ids=["cycle-larger", "budget-larger"])
    def test_budget_and_cycle_both_past_the_float_range(self, cap, expected):
        # p = 5e-324 = 2**-1074, so (1 - p)/p = 2**1074 - 1.  1e-320 = 2024 * 2**-1074
        # gives N/T = (500/2024) * 2**1074, about 0.247 * 2**1074 < 2**1074 - 1: the
        # raw threshold is negative and clamps to 0, so 1.  5e-323 = 10 * 2**-1074
        # gives N/T = 50 * 2**1074: the raw threshold passes M + 1 = 13.
        assert 5e-324 == 2.0**-1074 and 1e-320 == 2024 * 2.0**-1074 and 5e-323 == 10 * 2.0**-1074
        assert target_threshold(500, cap, 5e-324, 12) == expected

    @pytest.mark.parametrize("n,cap", [(20, 1e-320), (10**400, 1e-320), (10**400, 1.0), (2 * 10**21, 1.0)],
                             ids=["inf-ratio", "huge-n-tiny-cap", "huge-n", "large-n"])
    def test_budget_past_the_float_range_is_never_activate(self, n, cap):
        # n / cap is inf, or n does not convert to a float: the budget per
        # user is below any threshold's rate
        assert target_threshold(n, cap, 0.54, 30) == 31


class TestMessageRate:
    def test_formula(self):
        params = SystemParams(
            contact_prob=0.5, max_age=10, utility=UtilityFunction.linear(10)
        )
        assert optimal_threshold(params).s_star == 1  # free updates
        assert message_rate(params, 10) == pytest.approx(5.0)

    def test_always_inactive_sends_nothing(self):
        params = SystemParams(
            contact_prob=0.5, max_age=5, utility=UtilityFunction.tabular([0] * 5),
            scan_cost=1.0,
        )
        assert message_rate(params, 100) == 0.0

    @pytest.mark.parametrize("n", [100, 10**400, math.inf], ids=["small", "huge-n", "inf"])
    def test_always_inactive_population_of_any_size_sends_nothing(self, n):
        # n / inf is 0.0 only for an n that converts to a finite float
        params = SystemParams(
            contact_prob=0.5, max_age=5, utility=UtilityFunction.tabular([0] * 5),
            scan_cost=1.0,
        )
        assert message_rate(params, n) == 0.0
        solution = optimal_bonus(PublisherInstance(params=params, n_users=n, rate_cap=1.0))
        assert (solution.threshold, solution.rate, solution.age) == (6, 0.0, 5.0)

    @pytest.mark.parametrize("n", [10**400, 2 * 10**308], ids=["huge-n", "past-float-max"])
    def test_population_past_the_float_range_sends_inf(self, n):
        # n does not convert to a float: the rate is inf, as the float n = inf gives
        params = SystemParams(contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30))
        assert optimal_threshold(params).s_star == 1
        assert message_rate(params, n) == math.inf == message_rate(params, math.inf)


class TestBonusRange:
    def test_reference_instance_full_bonus_induces_threshold_one(self):
        inst = sponsorship_instance()
        interval = bonus_range_for_threshold(inst, 1)
        assert interval is not None
        lo, hi = interval
        assert hi == pytest.approx(40.0)
        assert lo == pytest.approx(38.8888888889, abs=1e-6)

    def test_interval_edges_are_sharp(self):
        rng = make_rng(52)
        checked = 0
        for _ in range(60):
            params = random_wifi_params(rng)
            if params.wifi_price < 0.5:
                continue
            params = replace(params, bonus=0.0)
            inst = PublisherInstance(params=params, n_users=10, rate_cap=5.0)
            s0 = int(threshold_response(params, [0.0])[0])
            s1 = int(threshold_response(params, [params.wifi_price])[0])
            for s in range(s1, s0 + 1):
                interval = bonus_range_for_threshold(inst, s)
                if interval is None:
                    continue
                lo, hi = interval
                assert int(threshold_response(params, [lo])[0]) == s
                assert int(threshold_response(params, [hi])[0]) == s
                eps = 1e-6 * params.wifi_price
                if lo > eps:
                    assert int(threshold_response(params, [lo - eps])[0]) != s
                checked += 1
        assert checked > 20

    def test_unattainable_threshold_below_full_bonus_response(self):
        inst = sponsorship_instance()
        s_full = int(threshold_response(inst.params, [40.0])[0])
        assert s_full == 1  # nothing below is attainable

    @pytest.mark.parametrize("n_users", [20, 50])
    def test_interval_ends_are_the_rational_edges(self, n_users):
        inst = sponsorship_instance(n_users=n_users)
        price = Fraction(inst.params.wifi_price)
        edges = [math.inf] + exact_edges(inst.params) + [-math.inf]
        attained = 0
        for s in range(1, inst.params.max_age + 2):
            lo, hi = max(Fraction(0), edges[s]), min(price, edges[s - 1])
            interval = bonus_range_for_threshold(inst, s)
            if lo >= hi:
                assert interval is None
                continue
            assert interval is not None
            assert abs(interval[0] - lo) <= 1e-12
            assert abs(interval[1] - hi) <= 1e-12
            attained += 1
        assert attained >= 4
        solution = optimal_bonus(inst)
        s = solution.threshold
        assert abs(solution.bonus_lo - edges[s]) <= 1e-12
        assert abs(solution.bonus_hi - min(price, edges[s - 1])) <= 1e-12

    def test_coincident_breakpoints_leave_no_slivers(self):
        v, k, max_age = 2.5, 5, 14
        params = SystemParams(
            contact_prob=0.62, max_age=max_age, utility=UtilityFunction.step(v, k, max_age),
            scan_cost=1.1, wifi_price=12.0,
        )
        inst = PublisherInstance(params=params, n_users=10, rate_cap=5.0)
        # past the cutoff every threshold earns pi_1(s) (k v - G/p - P + B): all
        # of them swap sign at the one bonus B0
        b0 = 1.1 / 0.62 + 12.0 - k * v
        for s in range(k + 1, max_age + 1):
            assert bonus_range_for_threshold(inst, s) is None
        lo, _ = bonus_range_for_threshold(inst, k)
        assert lo == pytest.approx(b0, abs=1e-12)
        never_lo, never_hi = bonus_range_for_threshold(inst, max_age + 1)
        assert never_lo == 0.0
        assert never_hi < lo and never_hi == pytest.approx(b0, abs=1e-12)
        assert list(threshold_response(params, [never_hi, lo])) == [max_age + 1, k]

    def test_constant_response_spans_whole_interval(self):
        params = SystemParams(
            contact_prob=0.5, max_age=8, utility=UtilityFunction.linear(8),
            wifi_price=1.0,
        )
        inst = PublisherInstance(params=params, n_users=4, rate_cap=10.0)
        s = int(threshold_response(params, [0.0])[0])
        assert bonus_range_for_threshold(inst, s) == (0.0, 1.0)


class TestOptimalBonus:
    def test_reference_instance_sponsors_full_price(self):
        solution = optimal_bonus(sponsorship_instance())
        assert solution is not None
        assert solution.threshold == 1
        assert solution.bonus_hi == pytest.approx(40.0)
        assert solution.rate <= 11.0 + 1e-9
        assert solution.rate == pytest.approx(10.8)

    def test_fifty_users_needs_threshold_four(self):
        solution = optimal_bonus(sponsorship_instance(n_users=50))
        assert solution is not None
        assert solution.threshold == 4
        assert solution.age == pytest.approx(expected_age(4, 0.54, 30))

    def test_infeasible_when_zero_bonus_already_exceeds_cap(self):
        params = SystemParams(
            contact_prob=0.9, max_age=10, utility=UtilityFunction.linear(10),
        )  # free updates: users always active no matter the bonus
        inst = PublisherInstance(params=params, n_users=100, rate_cap=2.0)
        assert optimal_bonus(inst) is None

    def test_matches_grid_scan_on_random_instances(self):
        rng = make_rng(53)
        feasible_seen = infeasible_seen = 0
        for _ in range(150):
            params = random_wifi_params(rng)
            if params.wifi_price < 0.2:
                continue
            params = replace(params, bonus=0.0)
            inst = PublisherInstance(
                params=params,
                n_users=int(rng.integers(2, 120)),
                rate_cap=float(rng.uniform(0.5, 25.0)),
            )
            oracle = grid_scan_best(inst)
            solution = optimal_bonus(inst)
            if oracle is None:
                assert solution is None
                infeasible_seen += 1
            else:
                assert solution is not None
                assert solution.threshold == oracle
                assert solution.rate <= inst.rate_cap + 1e-9
                feasible_seen += 1
        assert feasible_seen > 30 and infeasible_seen > 3

    def test_rate_invariant(self):
        solution = optimal_bonus(sponsorship_instance(n_users=50))
        assert solution.bonus_lo <= solution.bonus_hi <= 40.0

    @given(system_params(with_3g=False), st.integers(1, 150), st.floats(0.0, 1.5))
    @example(sponsorship_instance().params, 20, 3.0 / 30)
    # cap 20 / (3 + 1) = 5 is exactly the rate of threshold 3
    @example(replace(sponsorship_instance().params, contact_prob=0.5), 20, 3.0 / 30)
    # zero utility and costs: every bonus edge is exactly 0.0
    @example(SystemParams(contact_prob=0.5, max_age=6,
                          utility=UtilityFunction.tabular([0.0] * 6)), 20, 0.0)
    @example(SystemParams(contact_prob=0.5, max_age=6,
                          utility=UtilityFunction.tabular([0.0] * 6)), 20, 0.5)
    def test_property_against_brute_force_grid(self, params, n_users, position):
        """Criterion 7's oracle: the response on 1,001 bonuses in [0, P] plus
        the solution's own interval ends; the answer is the smallest threshold
        whose rate meets the cap, or None when no bonus meets it.  The cap is
        the rate of a threshold at ``position`` of the way up to max_age, so
        caps fall where the answer depends on them."""
        p = params.contact_prob
        rate_cap = n_users / (position * params.max_age + (1.0 - p) / p)
        inst = PublisherInstance(params=params, n_users=n_users, rate_cap=rate_cap)
        solution = optimal_bonus(inst)
        bonuses = np.linspace(0.0, params.wifi_price, 1_001)
        if solution is not None:
            ends = [solution.bonus_lo, solution.bonus_hi]
            assert 0.0 <= ends[0] <= ends[1] <= params.wifi_price
            assert threshold_response(params, ends).tolist() == [solution.threshold] * 2
            bonuses = np.concatenate((bonuses, ends))
        response = threshold_response(params, bonuses)
        rates = np.where(
            response == params.max_age + 1, 0.0, n_users / (response + (1.0 - p) / p)
        )
        feasible = rates <= rate_cap + 1e-9
        # a zero bonus leaves the highest threshold, so the grid's own zero
        # decides whether any bonus in [0, P] meets the cap
        assert (solution is None) == (not feasible.any())
        if solution is not None:
            assert solution.threshold == int(response[feasible].min())
            assert solution.rate == rates[bonuses == solution.bonus_lo][0]
            assert solution.rate <= rate_cap + 1e-9


@given(system_params(max_age=60, with_3g=False, min_price=0.1), st.integers(1, 150),
       st.floats(0.0, 1.5))
def test_every_threshold_answer_reads_one_rule(params, n_users, position):
    """``optimal_threshold``, ``threshold_response``, ``message_rate`` and
    ``optimal_bonus`` give one s*(B) wherever float noise could split them: at
    both ends of the optimal bonus interval, and at each bonus edge in [0, P]
    and the float just below it.  The cap is drawn as in the brute-force
    property above."""
    p = params.contact_prob
    rate_cap = n_users / (position * params.max_age + (1.0 - p) / p)
    solution = optimal_bonus(PublisherInstance(params=params, n_users=n_users, rate_cap=rate_cap))
    ends = [] if solution is None else [solution.bonus_lo, solution.bonus_hi]
    edges = bonus_edges(params)
    edges = edges[np.isfinite(edges)]
    probes = np.concatenate((edges, np.nextafter(edges, -np.inf), ends))
    probes = probes[(probes >= 0.0) & (probes <= params.wifi_price)]
    response = threshold_response(params, probes)
    for b, s in zip(probes.tolist(), response.tolist()):
        assert optimal_threshold(replace(params, bonus=b)).s_star == s, b
    for b in ends:
        assert message_rate(replace(params, bonus=b), n_users) == solution.rate, b


@pytest.mark.parametrize("call, message", [
    (lambda: PublisherInstance(params=sponsorship_instance().params, n_users=0, rate_cap=1.0),
     "need at least one user, got 0"),
    (lambda: bonus_range_for_threshold(sponsorship_instance(), 32), "threshold 32 outside [1, 31]"),
], ids=["no-users", "threshold"])
def test_input_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
