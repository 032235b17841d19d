"""Relative value iteration against the closed-form analytics and a per-age
reference iteration, plus policy structure verification."""
import math

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import example, given

from agectl import (
    Action,
    ConvergenceError,
    Policy,
    StructureViolation,
    SystemParams,
    UtilityFunction,
    ValueFunction,
    bellman_values,
    chain_summary,
    expected_reward_threshold,
    greedy_policy,
    optimal_threshold,
    solve_user_problem,
    threshold_reward_curve,
    verify_threshold_structure,
)
from agectl.solver import DEFAULT_MAX_ITER, DEFAULT_TOL, SWEEP_BATCH
from agectl.thresholds import always_active, always_inactive, optimal_two_thresholds

from conftest import (
    make_rng,
    random_3g_params,
    random_wifi_params,
    reference_rvi,
    system_params,
)


def linear_params(max_age=12, p=0.54, **kw):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=UtilityFunction.linear(max_age), **kw
    )


class TestBellmanValues:
    def test_zero_values_at_saturated_age(self):
        params = linear_params(scan_cost=2.0, wifi_price=3.0, bonus=1.0)
        value = ValueFunction(values=np.zeros(12), gain=0.0)
        f0, f1, f2 = bellman_values(12, value, params)
        assert f0 == 0.0
        assert f1 == pytest.approx(-2.0 - 0.54 * 3.0 + 0.54 * 1.0)
        assert f2 is None

    def test_activation_condition_matches_value_gap(self):
        # a = 1 preferred at x iff V(1) - V(x+1) >= G/p + P - B
        params = linear_params(scan_cost=1.0, wifi_price=2.0, bonus=0.5)
        rng = make_rng(1)
        v = np.sort(rng.uniform(0, 30, size=12))[::-1].copy()
        v -= v[0]
        value = ValueFunction(values=v, gain=0.0)
        pivot = params.scan_cost / params.contact_prob + params.wifi_price - params.bonus
        for x in range(1, 13):
            f0, f1, _ = bellman_values(x, value, params)
            gap = v[0] - v[min(x + 1, 12) - 1]
            assert (f1 >= f0) == (gap >= pivot - 1e-12)

    def test_f2_present_with_3g(self):
        params = linear_params(price_3g=5.0, wifi_price=4.0, scan_cost=1.0)
        value = ValueFunction(values=np.zeros(12), gain=0.0)
        _, _, f2 = bellman_values(3, value, params)
        assert f2 == pytest.approx(
            9 - 1.0 - 0.54 * 4.0 - 0.46 * 5.0
        )


class TestSolve:
    def test_always_inactive_instance(self):
        # cumulative utility below the cycle cost: never activate
        params = linear_params(scan_cost=40.0)
        assert always_inactive(params)
        report = solve_user_problem(params)
        assert report.value.gain == pytest.approx(0.0, abs=1e-9)
        assert all(a is Action.INACTIVE for a in report.policy.actions)

    def test_always_active_instance(self):
        params = linear_params(scan_cost=0.99)
        assert always_active(params)
        report = solve_user_problem(params)
        assert all(a is Action.WIFI for a in report.policy.actions)
        assert report.value.gain == pytest.approx(
            expected_reward_threshold(params, 1), abs=1e-6
        )

    def test_gain_matches_closed_form_sweep(self):
        rng = make_rng(42)
        for _ in range(50):
            params = random_wifi_params(rng)
            report = solve_user_problem(params)
            best = float(np.max(threshold_reward_curve(params)))
            assert report.value.gain == pytest.approx(best, abs=1e-6)
            assert report.residual <= 1e-10

    def test_value_monotone_and_policy_structured(self):
        rng = make_rng(43)
        for _ in range(50):
            params = random_3g_params(rng)
            report = solve_user_problem(params)
            v = report.value.values
            assert np.all(np.diff(v) <= 1e-9)  # V non-increasing in age
            verify_threshold_structure(report.policy)

    def test_gauge_choice_does_not_change_gain(self):
        params = linear_params(scan_cost=3.0, wifi_price=1.0)
        report = solve_user_problem(params)
        shifted = ValueFunction(values=report.value.values + 17.0, gain=report.value.gain)
        assert greedy_policy(shifted, params).actions == report.policy.actions

    def test_cheap_3g_never_uses_wifi_action(self):
        rng = make_rng(44)
        checked = 0
        for _ in range(60):
            params = random_3g_params(rng)
            pivot = params.scan_cost / params.contact_prob + params.wifi_price
            if params.price_3g > pivot:
                continue
            report = solve_user_problem(params)
            assert Action.WIFI not in report.policy.actions
            checked += 1
        assert checked > 5

    def test_3g_gain_matches_grid(self):
        rng = make_rng(45)
        for _ in range(30):
            params = random_3g_params(rng)
            report = solve_user_problem(params)
            grid = optimal_two_thresholds(params)
            assert report.value.gain == pytest.approx(grid.reward, abs=1e-6)

    def test_non_convergence_reported(self):
        with pytest.raises(ConvergenceError) as err:
            solve_user_problem(linear_params(scan_cost=1.0), tol=1e-12, max_iter=3)
        assert err.value.iterations == 3
        assert err.value.residual > 0

    def test_values_past_the_float_range_stop_at_the_first_span_not_finite(self):
        # a valid utility whose differences overflow: the spans turn nan within
        # the first batch, and a nan span never falls to tol
        params = SystemParams(contact_prob=0.54, max_age=12,
                              utility=UtilityFunction.tabular([1e308] * 11 + [0.0]))
        with pytest.raises(ConvergenceError) as err:
            solve_user_problem(params)
        assert 1 <= err.value.iterations <= SWEEP_BATCH
        assert not math.isfinite(err.value.residual)

    def test_invalid_tolerance(self):
        # inf stopped after one sweep with the all-inactive policy, nan never stopped
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                solve_user_problem(linear_params(scan_cost=0.99), tol=tol)


#: enough sweeps for most drawn instances; the rest must fail identically
ORACLE_MAX_ITER = 4000


class TestAgainstReferenceIteration:
    """The vectorized sweep repeats the per-age iteration's float operations
    in the same order, so every output is exactly equal, not just close."""

    @given(system_params())
    @example(linear_params(max_age=2, p=0.5, scan_cost=0.3, wifi_price=1.0, bonus=0.4))
    @example(linear_params(max_age=2, p=0.5, scan_cost=0.3, wifi_price=1.0, price_3g=1.2))
    @example(linear_params(p=0.001, scan_cost=0.02, wifi_price=2.0, bonus=1.0))
    @example(linear_params(p=0.999, scan_cost=5.0, wifi_price=1.0, price_3g=9.0, bonus=0.5))
    def test_sweep_equals_reference_exactly(self, params):
        ref = reference_rvi(params, DEFAULT_TOL, ORACLE_MAX_ITER)
        if not ref.converged:
            with pytest.raises(ConvergenceError) as err:
                solve_user_problem(params, max_iter=ORACLE_MAX_ITER)
            assert (err.value.iterations, err.value.residual) == (ref.iterations, ref.residual)
            return
        report = solve_user_problem(params, max_iter=ORACLE_MAX_ITER)
        assert np.array_equal(report.value.values, ref.values)
        assert report.value.gain == ref.gain
        assert report.iterations == ref.iterations
        assert report.residual == ref.residual
        assert report.policy.actions == ref.actions

    @pytest.mark.parametrize("price_3g", [None, 4.0], ids=["wifi", "3g"])
    def test_non_convergence_equals_reference(self, price_3g):
        params = linear_params(scan_cost=1.0, wifi_price=2.0, price_3g=price_3g)
        ref = reference_rvi(params, 1e-12, 3)
        assert not ref.converged
        with pytest.raises(ConvergenceError) as err:
            solve_user_problem(params, tol=1e-12, max_iter=3)
        assert (err.value.iterations, err.value.residual) == (ref.iterations, ref.residual)


def assert_same_as_reference(params, max_iter, tol=DEFAULT_TOL):
    """The solve and the per-age reference end the same way, bit for bit."""
    ref = reference_rvi(params, tol, max_iter)
    if not ref.converged:
        with pytest.raises(ConvergenceError) as err:
            solve_user_problem(params, tol=tol, max_iter=max_iter)
        assert (err.value.iterations, err.value.residual) == (ref.iterations, ref.residual)
        return ref
    report = solve_user_problem(params, tol=tol, max_iter=max_iter)
    assert report.value.values.tobytes() == ref.values.tobytes()
    assert math.copysign(1.0, report.value.gain) == math.copysign(1.0, ref.gain)
    assert report.value.gain == ref.gain
    assert report.iterations == ref.iterations
    assert report.residual == ref.residual
    assert report.policy.actions == ref.actions
    return ref


def converging_at(residue):
    """A WiFi instance whose reference iteration stops past the first batch, at
    a sweep count equal to ``residue`` modulo ``SWEEP_BATCH``.  Over this
    family the count falls steadily from 58 to 43 sweeps as p grows."""
    for p in np.linspace(0.1, 0.9, 81):
        params = linear_params(max_age=8, p=float(p), scan_cost=1.0, wifi_price=1.0)
        ref = reference_rvi(params, DEFAULT_TOL, 10 * SWEEP_BATCH)
        if ref.converged and ref.iterations > SWEEP_BATCH and ref.iterations % SWEEP_BATCH == residue:
            return params, ref.iterations
    raise AssertionError(f"no instance stops at a sweep = {residue} mod {SWEEP_BATCH}")


class TestSweepBatches:
    """Sweeps run in batches of ``SWEEP_BATCH`` with one convergence check per
    batch; where a batch starts or ends must not show in any output."""

    @pytest.mark.parametrize(
        "max_iter", [1, SWEEP_BATCH - 1, SWEEP_BATCH, SWEEP_BATCH + 1, 2 * SWEEP_BATCH + 1]
    )
    def test_max_iter_at_batch_boundaries(self, max_iter):
        params = linear_params(max_age=30, p=0.3, scan_cost=1.0, wifi_price=2.0, price_3g=9.0)
        assert not assert_same_as_reference(params, max_iter).converged

    @pytest.mark.parametrize("residue", [1, 0], ids=["first-sweep", "last-sweep"])
    def test_converges_on_batch_edge(self, residue):
        params, iterations = converging_at(residue)
        assert assert_same_as_reference(params, DEFAULT_MAX_ITER).iterations == iterations
        # the same sweep as the last one allowed, and one sweep short of it
        assert_same_as_reference(params, iterations)
        assert not assert_same_as_reference(params, iterations - 1).converged

    def test_converges_inside_final_partial_batch(self):
        params, iterations = converging_at(SWEEP_BATCH // 2)
        assert assert_same_as_reference(params, iterations).converged

    def test_zero_utility_and_costs_give_positive_zero_gain(self):
        params = SystemParams(
            contact_prob=0.5, max_age=6, utility=UtilityFunction.tabular([0.0] * 6),
        )
        ref = assert_same_as_reference(params, DEFAULT_MAX_ITER)
        assert ref.iterations == 1
        report = solve_user_problem(params)
        assert report.value.gain == 0.0 and math.copysign(1.0, report.value.gain) == 1.0


class TestRouteAgreement:
    """Closed form, matrix oracle and RVI give the same optimal gain."""

    @given(system_params(max_age=60, with_3g=False))
    def test_optimal_threshold(self, params):
        best = optimal_threshold(params)
        policy = Policy.from_thresholds(best.s_star, None, params.max_age)
        assert chain_summary(policy, params).gain == pytest.approx(best.reward, abs=1e-6)
        assert solve_user_problem(params).value.gain == pytest.approx(best.reward, abs=1e-6)

    @given(system_params(max_age=60, with_3g=True))
    def test_two_threshold_optimum(self, params):
        best = optimal_two_thresholds(params)
        policy = Policy.from_thresholds(best.s_wifi, best.s_3g, params.max_age)
        assert chain_summary(policy, params).gain == pytest.approx(best.reward, abs=1e-6)
        assert solve_user_problem(params).value.gain == pytest.approx(best.reward, abs=1e-6)


class TestGreedy:
    def test_constant_value_with_cost_means_inactive(self):
        params = linear_params(scan_cost=1.0)
        value = ValueFunction(values=np.zeros(12), gain=0.0)
        pol = greedy_policy(value, params)
        assert all(a is Action.INACTIVE for a in pol.actions)

    def test_tie_prefers_cheaper_action(self):
        # zero costs make inactive and WiFi tie at the saturated age
        params = linear_params()
        value = ValueFunction(values=np.zeros(12), gain=0.0)
        pol = greedy_policy(value, params)
        assert pol.action_at(12) is Action.INACTIVE


class TestStructure:
    def test_two_threshold_extraction(self):
        pol = Policy(actions=(0, 0, 1, 1, 2))
        assert verify_threshold_structure(pol) == (3, 5)

    def test_always_inactive_encoding(self):
        pol = Policy(actions=(0, 0, 0, 0, 0))
        assert verify_threshold_structure(pol) == (6, 6)

    def test_inversion_reported_with_location(self):
        with pytest.raises(StructureViolation) as err:
            verify_threshold_structure(Policy(actions=(0, 1, 0, 1, 1)))
        assert err.value.age == 2
        assert err.value.action is Action.WIFI
        assert err.value.next_action is Action.INACTIVE

    def test_pure_3g_band(self):
        pol = Policy(actions=(0, 0, 2, 2))
        assert verify_threshold_structure(pol) == (3, 3)
