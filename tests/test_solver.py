"""The two solvers, policy iteration (the solver of record) and relative
value iteration, against the closed-form analytics, the exact rational
oracle, each other and a per-age reference iteration, plus policy structure
verification."""
import math
from fractions import Fraction

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import example, given, strategies as st

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
    relative_value_iteration,
    solve_user_problem,
    step_utility_threshold,
    threshold_reward_curve,
    verify_threshold_structure,
)
from agectl import model, solver
from agectl.solver import DEFAULT_MAX_ITER, DEFAULT_TOL, SWEEP_BATCH
from agectl.thresholds import always_active, always_inactive, optimal_two_thresholds

from conftest import (
    C_MATRIX,
    make_rng,
    random_3g_params,
    random_wifi_params,
    reference_exact,
    reference_rvi,
    reward_bound,
    system_params,
    tie_heavy_params,
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
            relative_value_iteration(linear_params(scan_cost=1.0), tol=1e-12, max_iter=3)
        assert err.value.iterations == 3
        assert err.value.residual > 0

    def test_values_past_the_float_range_stop_at_the_first_span_not_finite(self):
        # a valid utility whose differences overflow: the spans turn nan within
        # the first batch, and a nan span never falls to tol
        params = SystemParams(contact_prob=0.54, max_age=12,
                              utility=UtilityFunction.tabular([1e308] * 11 + [0.0]))
        with pytest.raises(ConvergenceError) as err:
            relative_value_iteration(params)
        assert 1 <= err.value.iterations <= SWEEP_BATCH
        assert not math.isfinite(err.value.residual)

    def test_invalid_tolerance(self):
        # inf stopped after one sweep with the all-inactive policy, nan never stopped
        for solve in (solve_user_problem, relative_value_iteration):
            for tol in (0.0, math.inf, math.nan):
                with pytest.raises(ValueError):
                    solve(linear_params(scan_cost=0.99), tol=tol)
            with pytest.raises(ValueError):
                solve(linear_params(scan_cost=0.99), max_iter=0)


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
                relative_value_iteration(params, max_iter=ORACLE_MAX_ITER)
            assert (err.value.iterations, err.value.residual) == (ref.iterations, ref.residual)
            return
        report = relative_value_iteration(params, max_iter=ORACLE_MAX_ITER)
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
            relative_value_iteration(params, tol=1e-12, max_iter=3)
        assert (err.value.iterations, err.value.residual) == (ref.iterations, ref.residual)


def assert_same_as_reference(params, max_iter, tol=DEFAULT_TOL):
    """The solve and the per-age reference end the same way, bit for bit."""
    ref = reference_rvi(params, tol, max_iter)
    if not ref.converged:
        with pytest.raises(ConvergenceError) as err:
            relative_value_iteration(params, tol=tol, max_iter=max_iter)
        assert (err.value.iterations, err.value.residual) == (ref.iterations, ref.residual)
        return ref
    report = relative_value_iteration(params, tol=tol, max_iter=max_iter)
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
        for solve in (relative_value_iteration, solve_user_problem):
            gain = solve(params).value.gain
            assert gain == 0.0 and math.copysign(1.0, gain) == 1.0


def assert_gain_exact(report, params):
    """RVI's gain is the midpoint of Bellman differences whose span is within
    the tolerance, so it lies within tol / 2 of its policy's exact gain, up to
    the rounding of its float sweeps; policy iteration's is its stable
    policy's gain, evaluated exactly up to rounding, and that policy earns the
    reported one's gain within the same bound."""
    exact = reference_exact(report.policy, params)
    bound = DEFAULT_TOL / 2 + reward_bound(C_MATRIX, exact, params)
    assert abs(Fraction(report.value.gain) - exact.gain) <= bound


class TestRouteAgreement:
    """Closed form, matrix oracle, policy iteration and RVI give the same
    optimal gain, and each solver's is its policy's exact gain."""

    @given(system_params(max_age=60, with_3g=False))
    def test_optimal_threshold(self, params):
        best = optimal_threshold(params)
        policy = Policy.from_thresholds(best.s_star, None, params.max_age)
        assert chain_summary(policy, params).gain == pytest.approx(best.reward, abs=1e-6)
        for solve in (solve_user_problem, relative_value_iteration):
            report = solve(params)
            assert report.value.gain == pytest.approx(best.reward, abs=1e-6)
            assert_gain_exact(report, params)

    @given(system_params(max_age=60, with_3g=True))
    def test_two_threshold_optimum(self, params):
        best = optimal_two_thresholds(params)
        policy = Policy.from_thresholds(best.s_wifi, best.s_3g, params.max_age)
        assert chain_summary(policy, params).gain == pytest.approx(best.reward, abs=1e-6)
        for solve in (solve_user_problem, relative_value_iteration):
            report = solve(params)
            assert report.value.gain == pytest.approx(best.reward, abs=1e-6)
            assert_gain_exact(report, params)


def action_string(policy):
    return "".join(str(int(a)) for a in policy.actions)


class TestPolicyIteration:
    """Policy iteration, the solver of record, against RVI, the exact oracle
    and the step utility's candidate set, and its evaluation on its own."""

    @given(system_params())
    @example(linear_params(max_age=2, p=0.5, scan_cost=0.3, wifi_price=1.0, bonus=0.4))
    @example(linear_params(max_age=2, p=0.5, scan_cost=0.3, wifi_price=1.0, price_3g=1.2))
    @example(linear_params(p=0.001, scan_cost=0.02, wifi_price=2.0, bonus=1.0))
    @example(linear_params(p=0.999, scan_cost=5.0, wifi_price=1.0, price_3g=9.0, bonus=0.5))
    def test_policy_equals_rvi(self, params):
        report, rvi = solve_user_problem(params), relative_value_iteration(params)
        assert action_string(report.policy) == action_string(rvi.policy)
        assert abs(report.value.gain - rvi.value.gain) <= DEFAULT_TOL
        assert report.residual <= DEFAULT_TOL

    @given(st.one_of(tie_heavy_params(),
                     tie_heavy_params().map(lambda params: replace(params, price_3g=None))))
    def test_tie_heavy_policy_equals_rvi(self, params):
        # integer rewards at dyadic p: actions often tie exactly, and a tie
        # must keep the current action, or the iteration cycles
        report, rvi = solve_user_problem(params), relative_value_iteration(params)
        assert action_string(report.policy) == action_string(rvi.policy)

    @given(st.integers(1, 600), st.floats(0.5, 20.0), st.floats(0.05, 0.95), st.floats(0.0, 1.2))
    @example(600, 5.0, 0.54, 0.05 / (0.54 * 600 * 5.0))
    def test_long_step_cycles_match_the_candidate_set(self, K, v, p, share):
        # Step(v, K) at M = 2K: RVI needs about 3 s*^2 sweeps here, and ran
        # out of 1e6 at K = 600 (s* = 587)
        params = SystemParams(contact_prob=p, max_age=2 * K, utility=UtilityFunction.step(v, K, 2 * K),
                              scan_cost=share * p * K * v)
        report, best = solve_user_problem(params), step_utility_threshold(params)
        assert report.value.gain == pytest.approx(best.reward, abs=1e-9)
        # ties go to the cheapest action, so s may be a larger threshold
        # within the tie than the candidate set holds
        s, _ = verify_threshold_structure(report.policy)
        curve = threshold_reward_curve(params)
        assert curve[s - 1] >= curve.max() - model.TIE_TOL
        assert best.s_star in np.flatnonzero(curve >= curve.max() - model.TIE_TOL) + 1

    def test_step_counts(self):
        # all-WiFi is optimal at G = 0.99: one improvement step, which changes nothing
        assert solve_user_problem(linear_params(scan_cost=0.99)).iterations == 1
        # with zero utility and costs every action ties at every age, and a
        # tie keeps the current action: all-WiFi is stable at once, and the
        # report still takes the cheapest action within the tie
        flat = SystemParams(contact_prob=0.5, max_age=6, utility=UtilityFunction.tabular([0.0] * 6))
        report = solve_user_problem(flat)
        assert report.iterations == 1 and action_string(report.policy) == "000000"
        params = linear_params(scan_cost=6.0)
        assert solve_user_problem(params).iterations >= 2
        with pytest.raises(ConvergenceError) as err:
            solve_user_problem(params, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > DEFAULT_TOL

    def test_reads_the_action_terms_once(self, monkeypatch):
        calls, terms = [], solver._action_terms
        monkeypatch.setattr(solver, "_action_terms",
                            lambda params, v0: calls.append(v0) or terms(params, v0))
        report = solve_user_problem(linear_params(scan_cost=6.0, price_3g=20.0))
        assert report.iterations >= 2
        assert calls == [0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("price_3g", [None, 4.0], ids=["wifi", "3g"])
    def test_values_past_the_float_range_fail_the_certificate(self, price_3g):
        # all-WiFi's sums overflow, so its values are nan, no action beats a nan
        # and the first step is stable with a nan certificate; with 3G, RVI
        # exited 0 here with a gain of inf
        params = SystemParams(contact_prob=0.54, max_age=12, price_3g=price_3g,
                              utility=UtilityFunction.tabular([1e308] * 11 + [0.0]))
        with pytest.raises(ConvergenceError) as err:
            solve_user_problem(params)
        assert err.value.iterations == 1 and math.isnan(err.value.residual)

    @given(system_params(max_age=30), st.data())
    def test_evaluation_is_the_exact_gain_of_any_policy(self, params, data):
        M = params.max_age
        codes = np.array(data.draw(st.lists(st.integers(0, 2 if params.has_3g else 1),
                                            min_size=M, max_size=M)))
        terms = [t for t in solver._action_terms(params, 0.0) if t is not None]
        values, gain = solver._evaluate(codes, terms, params.contact_prob)
        if codes[-1] == Action.INACTIVE and Action.WIFI_THEN_3G in codes[:-1]:
            # M absorbs, and age 1 never reaches it: two recurrent classes
            assert math.isnan(gain) and np.isnan(values).all()
            return
        exact = reference_exact(Policy(actions=tuple(codes.tolist())), params)
        assert abs(Fraction(gain) - exact.gain) <= reward_bound(C_MATRIX, exact, params)
        assert values[0] == 0.0

    @pytest.mark.parametrize("codes, expected", [
        ("0112", "0112"), ("0101", "0001"), ("1021", "0001"), ("0121", "0001"), ("2100", "0000"),
    ])
    def test_threshold_form(self, codes, expected):
        # the fixed point of setting the lowest inverted age inactive
        policy = solver._threshold_form(np.array([int(c) for c in codes]))
        assert action_string(policy) == expected
        verify_threshold_structure(policy)


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
