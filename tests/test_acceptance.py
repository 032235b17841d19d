"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3 pins one reference point at each end of the cost axis at
p=0.54, Linear(M=12).  Its b=3.18 point (G=34.98) is not in the never-activate
regime: the cumulative utility 66 exceeds G/p = 64.78, so activating at age 11
still pays and s*=11.  The never-activate regime is checked just past the
boundary G = p * 66 = 35.64, at b=3.25.  Expected values there come from that
hand arithmetic, not from the program's output.
"""
from dataclasses import replace

import numpy as np
import pytest

from agectl import (
    Action,
    LearningConfig,
    Policy,
    PublisherInstance,
    SystemParams,
    UtilityFunction,
    always_active,
    always_inactive,
    bonus_range_for_threshold,
    chain_sim_env,
    chain_summary,
    convergence_report,
    enumerate_optimal_thresholds,
    expected_age,
    expected_reward_threshold,
    iid_trace,
    lambert_w,
    optimal_bonus,
    optimal_threshold,
    optimal_two_thresholds,
    simulate_policy,
    solve_user_problem,
    steady_state_exact,
    steady_state_threshold,
    step_utility_threshold,
    generate_corpus,
    estimate_p,
    threshold_reward_curve,
    threshold_response,
    verify_threshold_structure,
)
from agectl.learning import preset, run_population_drop
from agectl.tracesim import replayed_average_reward
import agectl.chain as chain

from conftest import make_rng, random_3g_params, random_wifi_params


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def linear_params(max_age=12, p=0.54, **kw):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=UtilityFunction.linear(max_age), **kw
    )


def test_criterion_1_closed_forms_vs_chain_oracle():
    """500 random (s, p, M<=50): pi, E[r;s], A against the linear-solve chain."""
    rng = make_rng(910)
    worst_pi = worst_r = worst_a = 0.0
    for _ in range(500):
        M = int(rng.integers(2, 51))
        s = int(rng.integers(1, M + 1))
        p = float(rng.uniform(0.05, 0.95))
        params = SystemParams(
            contact_prob=p, max_age=M, utility=UtilityFunction.linear(M),
            scan_cost=float(rng.uniform(0, 3)), wifi_price=float(rng.uniform(0, 2)),
        )
        policy = Policy.from_thresholds(s, None, M)
        pi_oracle = steady_state_exact(policy, params)
        pi_closed = steady_state_threshold(s, p, M)
        worst_pi = max(worst_pi, float(np.max(np.abs(pi_closed - pi_oracle))))
        oracle = chain_summary(policy, params)
        worst_r = max(worst_r, abs(expected_reward_threshold(params, s) - oracle.gain))
        worst_a = max(worst_a, abs(expected_age(s, p, M) - oracle.age))
    ok = worst_pi <= 1e-10 and worst_r <= 1e-10 and worst_a <= 1e-10
    report(1, ok, f"max |dpi|={worst_pi:.2e}, |dE|={worst_r:.2e}, |dA|={worst_a:.2e}")


def test_criterion_2_solver_matches_analytics():
    """200 WiFi + 50 3G instances: solver gain vs closed-form optimum, structure."""
    rng = make_rng(920)
    worst = 0.0
    for _ in range(200):
        params = random_wifi_params(rng)
        rep = solve_user_problem(params)
        best = float(np.max(threshold_reward_curve(params)))
        worst = max(worst, abs(rep.value.gain - best))
        verify_threshold_structure(rep.policy)
    worst3 = 0.0
    wifi_action_leaks = 0
    for _ in range(50):
        params = random_3g_params(rng)
        rep = solve_user_problem(params)
        grid = optimal_two_thresholds(params)
        worst3 = max(worst3, abs(rep.value.gain - grid.reward))
        verify_threshold_structure(rep.policy)
        pivot = params.scan_cost / params.contact_prob + params.wifi_price
        if params.price_3g <= pivot and Action.WIFI in rep.policy.actions:
            wifi_action_leaks += 1
    ok = worst <= 1e-6 and worst3 <= 1e-6 and wifi_action_leaks == 0
    report(2, ok, f"wifi |dg|={worst:.2e}, 3g |dg|={worst3:.2e}, action-1 leaks={wifi_action_leaks}")


def test_criterion_3_reference_thresholds():
    """Reference threshold fixtures at p=0.54, Linear(M=12), P=B=0.

    b=0.09 (G=0.99): s*=1 and always active.

    b=3.18 (G=34.98): sum U(1..11) = 66 > G/p = 64.78, so the user does
    activate.  Threshold 11 earns (66 - G/p) / (11 + q/p) = 0.103125 per slot,
    q = 1 - p; s*=11 and the always-inactive test is false.  The closed form,
    the matrix oracle and the solver must all give that gain.

    b=3.25 (G=35.75): G/p = 66.20 > 66, strictly past the boundary
    G = p * 66 = 35.64 (where thresholds 11, 12, 13 tie at zero reward), so
    s*=13 and always inactive.
    """
    p, M = 0.54, 12
    q = 1.0 - p
    total = sum(float(M - x) for x in range(1, M))  # U(1..11) = 11 + ... + 1 = 66

    low = optimal_threshold(linear_params(scan_cost=0.99))
    low_ok = low.s_star == 1 and low.always_active

    g_mid = 34.98
    mid_params = linear_params(scan_cost=g_mid)
    mid = optimal_threshold(mid_params)
    hand = (total - g_mid / p) / (11 + q / p)
    oracle_gain = chain_summary(Policy.from_thresholds(11, None, M), mid_params).gain
    solver_gain = solve_user_problem(mid_params).value.gain
    mid_ok = (
        mid.s_star == 11
        and not mid.always_inactive
        and abs(mid.reward - hand) <= 1e-12
        and abs(oracle_gain - hand) <= 1e-12
        and abs(solver_gain - hand) <= 1e-6
    )

    g_high = 35.75
    high_params = linear_params(scan_cost=g_high)
    high = optimal_threshold(high_params)
    high_ok = (
        g_high > p * total  # strictly past the boundary, no floating-point tie
        and high.s_star == 13
        and high.always_inactive
    )

    detail = (
        f"b=0.09: s*={low.s_star} active={low.always_active} | "
        f"b=3.18: s*={mid.s_star} inactive={mid.always_inactive} "
        f"(sum U = {total:g} > G/p = {g_mid / p:.4f}; reward {mid.reward:.12f}, "
        f"hand {hand:.12f}, oracle {oracle_gain:.12f}, solver {solver_gain:.13f}) | "
        f"b=3.25: s*={high.s_star} inactive={high.always_inactive} "
        f"(sum U = {total:g} <= G/p = {g_high / p:.4f}; boundary G = p*sum U = {p * total:.2f})"
    )
    report(3, low_ok and mid_ok and high_ok, detail)


def test_criterion_4_multi_optimum_fixture():
    """Step utility, M=21, p=0.5, G=6: optima sets for v in {12, 16, 4}."""
    def fixture(v):
        return SystemParams(
            contact_prob=0.5, max_age=21, utility=UtilityFunction.step(v, 3, 21),
            scan_cost=6.0,
        )

    o12, _ = enumerate_optimal_thresholds(fixture(12))
    o16, _ = enumerate_optimal_thresholds(fixture(16))
    o4, degenerate4 = enumerate_optimal_thresholds(fixture(4))
    best4 = float(np.max(threshold_reward_curve(fixture(4))))
    ok = (
        o12 == (2, 3)
        and o16 == (2,)
        and abs(best4) <= 1e-9
        and 22 in o4
        and degenerate4
    )
    report(4, ok, f"v=12 -> {o12}, v=16 -> {o16}, v=4 reward={best4:.1e} inactive-in-set={22 in o4}")


def test_criterion_5_step_candidates_and_lambert():
    """1000 random step instances: candidate set equals sweep; W residuals."""
    rng = make_rng(950)
    mismatches = 0
    fallbacks = 0
    for _ in range(1000):
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
        res = step_utility_threshold(params)
        fallbacks += res.fallback_sweep
        if res.s_star != optimal_threshold(params).s_star:
            mismatches += 1
    worst_w = 0.0
    for x in np.logspace(-9, 9, 80):
        w = lambert_w(float(x))
        worst_w = max(worst_w, abs(w * np.exp(w) - x) / max(1.0, x))
    ok = mismatches == 0 and worst_w <= 1e-12
    report(5, ok, f"mismatches={mismatches}/1000 (fallbacks={fallbacks}), W residual={worst_w:.1e}")


def test_criterion_6_monotonicity():
    """200 instances swept over G, P, B grids; ages strictly increasing in s."""
    from agectl import monotonicity_check

    rng = make_rng(960)
    violations = 0
    for _ in range(200):
        params = replace(random_wifi_params(rng), bonus=0.0)
        g_grid = np.sort(rng.uniform(0, 6, size=6))
        p_grid = np.sort(rng.uniform(0, 6, size=6))
        violations += not monotonicity_check(params, "G", list(g_grid)).ok
        violations += not monotonicity_check(params, "P", list(p_grid)).ok
        price = float(rng.uniform(1, 6))
        priced = replace(params, wifi_price=price)
        b_grid = np.sort(rng.uniform(0, price, size=6))
        violations += not monotonicity_check(priced, "B", list(b_grid)).ok
    age_violations = 0
    for _ in range(50):
        M = int(rng.integers(2, 40))
        p = float(rng.uniform(0.05, 0.95))
        ages = [expected_age(s, p, M) for s in range(1, M + 1)]
        age_violations += any(a >= b for a, b in zip(ages, ages[1:]))
    ok = violations == 0 and age_violations == 0
    report(6, ok, f"threshold violations={violations}, age violations={age_violations}")


def test_criterion_7_publisher_vs_grid_scan():
    """200 random feasible instances against the dB = P/1e4 grid oracle, plus
    the full-sponsorship reference instance."""
    rng = make_rng(970)
    feasible = 0
    attempts = 0
    mismatches = 0
    rate_breaches = 0
    while feasible < 200 and attempts < 1200:
        attempts += 1
        params = replace(random_wifi_params(rng), bonus=0.0)
        if params.wifi_price < 0.2:
            continue
        inst = PublisherInstance(
            params=params,
            n_users=int(rng.integers(2, 120)),
            rate_cap=float(rng.uniform(0.5, 25.0)),
        )
        bonuses = np.linspace(0.0, params.wifi_price, 10_001)
        response = threshold_response(params, bonuses)
        p = params.contact_prob
        rates = np.where(
            response == params.max_age + 1, 0.0,
            inst.n_users / (response + (1 - p) / p),
        )
        mask = rates <= inst.rate_cap + 1e-9
        solution = optimal_bonus(inst)
        if not mask.any():
            if solution is not None:
                mismatches += 1
            continue
        feasible += 1
        oracle_s = int(response[mask].min())
        if solution is None or solution.threshold != oracle_s:
            mismatches += 1
        elif solution.rate > inst.rate_cap + 1e-9:
            rate_breaches += 1

    ref = PublisherInstance(
        params=SystemParams(
            contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30),
            scan_cost=0.4, wifi_price=40.0,
        ),
        n_users=20, rate_cap=11.0,
    )
    ref_solution = optimal_bonus(ref)
    ref_ok = (
        ref_solution is not None
        and ref_solution.bonus_lo <= 40.0 <= ref_solution.bonus_hi
    )
    ok = feasible == 200 and mismatches == 0 and rate_breaches == 0 and ref_ok
    report(
        7, ok,
        f"feasible={feasible}, mismatches={mismatches}, breaches={rate_breaches}, "
        f"B=P in interval: {ref_ok}",
    )


def test_criterion_8_learning_convergence():
    """Reference learning setup through the seeded chain-simulator env, 20 seeds.

    Per-seed pass: bonus enters each regime's optimal interval within 25
    rounds, and the post-entry (tail) mean rate stays within [T-2, T].  The
    per-round rate is binomial with sigma ~= 0.22 at N=20, so per-round
    containment in a width-2 band cannot hold; the band is asserted on the
    regime tail mean.  The controller starts at the bonus ceiling.
    """
    exp = preset("long-rounds")
    sol50 = optimal_bonus(PublisherInstance(params=exp.params, n_users=50, rate_cap=11.0))
    sol20 = optimal_bonus(PublisherInstance(params=exp.params, n_users=20, rate_cap=11.0))
    target = exp.config.target_rate
    passes = 0
    entries = []
    for seed in range(20):
        rng = make_rng(8800 + seed)
        env_factory = lambda n: chain_sim_env(exp.params, n, exp.config.round_slots, rng)
        first, second = run_population_drop(exp, env_factory, initial_bonus=exp.config.max_bonus)
        rep1 = convergence_report(first, (sol50.bonus_lo, sol50.bonus_hi))
        rep2 = convergence_report(second, (sol20.bonus_lo, sol20.bonus_hi))
        entries.append((rep1.entry_round, rep2.entry_round))
        seed_ok = (
            rep1.entry_round is not None and rep1.entry_round <= 25
            and rep2.entry_round is not None and rep2.entry_round <= 25
        )
        for traj, rep in ((first, rep1), (second, rep2)):
            if rep.entry_round is None:
                seed_ok = False
                continue
            tail = [r.rate for r in traj.rounds if r.index >= rep.entry_round]
            seed_ok = seed_ok and target - 2 <= float(np.mean(tail)) <= target
        passes += seed_ok
    ok = passes >= 18
    report(8, ok, f"seeds passing={passes}/20, entry rounds={entries[:5]}...")


def test_criterion_9_trace_ergodicity():
    """1e6-slot iid traces at p in {0.3, 0.54, 0.7}: replay average matches
    the closed form within 3 standard errors for every s in [1, M+1], M=12."""
    failures = []
    for idx, p in enumerate((0.3, 0.54, 0.7)):
        params = linear_params(p=p, scan_cost=0.99)
        trace = iid_trace(p, 10**6, seed=4200 + idx)
        slots = np.asarray(trace.slots)
        u = np.asarray(params.utility.values)
        for s in range(1, 14):
            policy = Policy.from_thresholds(s, None, 12)
            result = simulate_policy(trace, params, policy)
            # per-slot rewards rebuilt from the update positions (ages ramp
            # deterministically between updates), for the sample std: the age
            # before slot i is 1 + (i - the slot index of the last reset)
            resets = np.zeros(len(slots), dtype=int)
            after = np.asarray(result.update_slots, dtype=int)
            after = after[after < len(slots)]   # an update in slot t resets slot index t
            resets[after] = after
            ages = np.minimum(np.arange(len(slots)) - np.maximum.accumulate(resets) + 1, 12)
            rewards = u[ages - 1] - params.scan_cost * (ages >= s)
            # summation-order noise only: any real age error shifts this by >= 0.5
            assert abs(rewards.sum() - result.total_reward) < 0.01
            se = rewards.std() / np.sqrt(len(rewards))
            err = abs(result.average_reward - expected_reward_threshold(params, s))
            if err > 3 * se and err > 1e-12:
                failures.append((p, s, err, 3 * se))
    report(9, not failures, f"violations={failures if failures else 'none'}")


def test_criterion_10_corpus_statistics():
    """Synthetic corpus stands in for real bus traces: median p-hat within
    0.02 of the 0.53 target; flat-strategy optima across M in {10,12,14,16}
    at b=1.8 mutually within one step and within one step of the model."""
    corpus = generate_corpus(200, seed=7)
    median_p = float(np.median([estimate_p(t) for t in corpus]))
    median_ok = abs(median_p - 0.53) <= 0.02

    flat_corpus = corpus
    flat_optima = []
    model_optima = []
    for M in (10, 12, 14, 16):
        params = SystemParams(
            contact_prob=0.53, max_age=M, utility=UtilityFunction.linear(M),
            scan_cost=1.8 * (M - 1),
        )
        totals = {}
        for s in range(1, M + 2):
            policy = Policy.from_thresholds(s, None, M)
            totals[s] = sum(
                replayed_average_reward(t, params, policy, replications=5)
                for t in flat_corpus
            )
        flat_optima.append(max(totals, key=lambda s: totals[s]))
        model_optima.append(optimal_threshold(params).s_star)
    band_ok = max(flat_optima) - min(flat_optima) <= 1
    model_ok = all(abs(f - m) <= 1 for f, m in zip(flat_optima, model_optima))
    ok = median_ok and band_ok and model_ok
    report(
        10, ok,
        f"median p-hat={median_p:.4f}, flat optima={flat_optima}, model={model_optima}",
    )
