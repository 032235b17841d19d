"""Properties of the one replay kernel behind every trace and population
simulation, checked against the scalar oracles in ``conftest`` and against
each other: exact totals of every policy kind, rotation means and population
rounds against the summed parts, chunked replays around the chunk length,
the trace and chain environments, their rounds, which walk whole at any
length, and a population's at a threshold that changes every round
against the replay of the same contacts, a population's recorded ages against modulo indexing, and the
kernel's ages against one ``next_age`` call per
slot at every step size, on rows that end inside a step or run as several
chunks, and on chunk rows whose seeded starts hold or miss and settle in
one rerun pass or over many; and each column of the
rotation tallies against the counted reference parts, with replays counted
by step-table row against the same replays counted slot by slot."""
import copy
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agectl import (
    MASK_POLICY,
    Action,
    ContactTrace,
    LearningConfig,
    Policy,
    SystemParams,
    UserAssignment,
    UtilityFunction,
    chain_sim_env,
    iid_trace,
    next_age,
    simulate_policy,
    simulate_population,
    threshold_response,
    trace_env,
)
from agectl import chain, learning, replay, tracesim
from agectl.replay import CHUNK_SLOTS

from conftest import parts_total, reference_parts, threshold_action

L = CHUNK_SLOTS


def params_for(max_age, p, scan_cost, bonus, utility):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=utility, scan_cost=scan_cost,
        wifi_price=2.0, price_3g=5.0, bonus=bonus,
    )


@st.composite
def instances(draw):
    max_age = draw(st.integers(2, 9))
    values = sorted(draw(st.lists(st.floats(0, 10), min_size=max_age, max_size=max_age)))
    utility = draw(st.sampled_from([UtilityFunction.linear(max_age),
                                    UtilityFunction.tabular(values[::-1])]))
    return params_for(max_age, draw(st.floats(0.05, 0.95)), draw(st.floats(0, 3)),
                      draw(st.floats(0, 2)), utility)


@st.composite
def policies(draw, max_age):
    kind = draw(st.sampled_from(["threshold", "two-threshold", "per-age", "mask"]))
    if kind == "mask":
        return MASK_POLICY
    if kind == "per-age":   # any action at any age, not monotone in age
        acts = draw(st.lists(st.sampled_from(list(Action)), min_size=max_age, max_size=max_age))
        return Policy(tuple(acts))
    s = draw(st.integers(1, max_age + 1))
    s_3g = draw(st.integers(s, max_age + 1)) if kind == "two-threshold" else None
    return Policy.from_thresholds(s, s_3g, max_age)


def bits(n, p, seed):
    return tuple(int(b) for b in np.random.default_rng(seed).random(n) < p)


def action_rule(policy, trace):
    """The oracles' ``action_at``: the policy's action at each age, or for the
    mask policy each slot's mask bit in turn, one slot per call."""
    if policy is MASK_POLICY:
        gates = iter(trace.mask)
        return lambda age: Action(next(gates))
    return policy.action_at


def assert_totals_equal_parts(result, parts):
    assert result.total_reward == parts_total(parts)
    assert result.energy_spent == math.fsum(scan for _, scan, _ in parts)
    assert result.fees_paid == math.fsum(fee for *_, fee in parts)


@given(instances(), st.data(), st.sampled_from([L - 1, L, L + 1, 3 * L + 5]),
       st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_simulate_policy_equals_reference_replay(params, data, n, p, seed):
    policy = data.draw(policies(params.max_age))
    trace = ContactTrace("t", bits(n, p, seed), mask=bits(n, 0.3, seed + 1))
    for start in range(1, params.max_age + 1):
        result = simulate_policy(trace, params, policy, start_age=start)
        parts = reference_parts(trace.slots, params, action_rule(policy, trace), start)
        assert_totals_equal_parts(result, parts)
        age, updates, by_3g, action_at = start, [], 0, action_rule(policy, trace)
        for t, contact in enumerate(trace.slots, start=1):
            age = next_age(age, action_at(age), contact, params.max_age)
            updates += [t] if age == 1 else []
            by_3g += age == 1 and not contact
        slots = np.asarray(result.update_slots)
        assert slots.dtype == np.int64 and np.array_equal(slots, updates)
        assert tuple(result.update_slots) == tuple(updates)
        counts = (result.updates, result.updates_wifi, result.updates_3g)
        assert counts == (len(updates), len(updates) - by_3g, by_3g)
        assert (result.slots, result.average_reward) == (n, result.total_reward / n)


@given(instances(), st.integers(1, 4), st.integers(1, 2 * L), st.integers(1, 9),
       st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_single_user_population_equals_simulate_policy(params, rounds, round_slots, start, p, seed):
    params = replace(params, price_3g=None)
    start = min(start, params.max_age)
    trace = ContactTrace("t", bits(rounds * round_slots, p, seed))
    result = simulate_population([UserAssignment(trace, start_age=start)], params, rounds, round_slots)
    s = int(threshold_response(params, [params.bonus])[0])
    replay = simulate_policy(trace, params, Policy.from_thresholds(s, None, params.max_age), start)
    (user,) = result.users
    assert user.total_reward == replay.total_reward
    assert user.updates == replay.updates == sum(r.served for r in result.rounds)


@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_trace_env_serves_what_the_population_serves(n_users, round_slots, rounds, seed):
    rng = np.random.default_rng(seed)
    params = SystemParams(contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30),
                          scan_cost=0.4, wifi_price=40.0)
    users = [
        UserAssignment(ContactTrace(f"u{i}", bits(int(rng.integers(1, 90)), 0.5, seed + i)),
                       phase=int(rng.integers(0, 200)), start_age=int(rng.integers(1, 31)))
        for i in range(n_users)
    ]
    controller = LearningConfig(max_bonus=40.0, target_rate=2.0, round_slots=round_slots,
                                learning_rate=5.0, initial_bonus=float(rng.uniform(0, 40)))
    result = simulate_population(users, params, rounds, round_slots, controller=controller)
    env = trace_env(users, params, round_slots)
    assert [env(r.bonus) for r in result.rounds] == [float(r.served) for r in result.rounds]


def modulo_population(users, params, round_slots, bonuses):
    """Served updates per round and final ages of users replaying their traces
    slot by slot, reading slot (phase + t) mod len at round time t: the oracle
    for the windowed contacts of a population round."""
    served, ages = [], []
    for ua in users:
        n, age, mine = len(ua.trace), ua.start_age, []
        for r, bonus in enumerate(bonuses):
            action_at, updates = threshold_action(int(threshold_response(params, [bonus])[0])), 0
            for t in range(r * round_slots, (r + 1) * round_slots):
                age = next_age(age, action_at(age), ua.trace.slots[(ua.phase + t) % n], params.max_age)
                updates += age == 1
            mine.append(updates)
        served.append(mine)
        ages.append(age)
    return [float(sum(col)) for col in zip(*served)], ages


@pytest.mark.parametrize("geometry", ["one-slot traces", "phases past the length", "one shared trace"])
def test_population_rounds_match_modulo_indexing(geometry):
    rng = np.random.default_rng(len(geometry))
    M = 12
    params = SystemParams(contact_prob=0.5, max_age=M, utility=UtilityFunction.linear(M),
                          scan_cost=0.3, wifi_price=6.0)
    if geometry == "one-slot traces":   # rounds far longer than the traces
        round_slots, traces = 1000, [ContactTrace("on", (1,)), ContactTrace("off", (0,))]
        users = [UserAssignment(traces[i % 2], phase=i, start_age=1 + i % M) for i in range(4)]
    elif geometry == "phases past the length":
        round_slots = 7
        users = [UserAssignment(ContactTrace(f"u{i}", bits(n, 0.4, i)), phase=phase,
                                start_age=int(rng.integers(1, M + 1)))
                 for i, (n, phase) in enumerate([(5, 5), (5, 13), (9, 9 * 40 + 2), (1, 3), (31, 1000)])]
    else:   # many users on one trace object, from every phase and beyond
        round_slots, trace = 23, ContactTrace("bus", bits(37, 0.5, 3))
        users = [UserAssignment(trace, phase=3 * i, start_age=1 + i % M) for i in range(150)]
    controller = LearningConfig(max_bonus=6.0, target_rate=0.5 * len(users), round_slots=round_slots,
                                learning_rate=5.0, initial_bonus=3.0)
    result = simulate_population(users, params, 5, round_slots, controller=controller)
    bonuses = [r.bonus for r in result.rounds]
    served, ages = modulo_population(users, params, round_slots, bonuses)
    assert [float(r.served) for r in result.rounds] == served
    assert [u.final_age for u in result.users] == ages
    env = trace_env(users, params, round_slots)
    assert [env(b) for b in bonuses] == served
    assert len(set(served)) > 1 or geometry == "one-slot traces"   # the bonus moved the threshold


def modulo_ages(users, params, round_slots, bonuses):
    """Each user's age after every slot of its rounds, replaying slot
    (phase + t) mod len at round time t at each round's threshold, one
    ``next_age`` call per slot: the oracle for a population's recorded ages."""
    history = []
    for ua in users:
        n, age, mine = len(ua.trace), ua.start_age, []
        for r, bonus in enumerate(bonuses):
            action_at = threshold_action(int(threshold_response(params, [bonus])[0]))
            for t in range(r * round_slots, (r + 1) * round_slots):
                age = next_age(age, action_at(age), ua.trace.slots[(ua.phase + t) % n], params.max_age)
                mine.append(age)
        history.append(mine)
    return np.array(history, int).reshape(len(users), len(bonuses) * round_slots)


@given(st.integers(1, 5), st.integers(1, L + 9), st.integers(0, 5), st.integers(0, 2**32 - 1))
# rounds that end inside a step, and rounds past CHUNK_SLOTS, which walk whole
@example(5, 13, 5, 3)
@example(3, L + 9, 3, 4)
@example(2, 4, 0, 5)
def test_recorded_ages_match_modulo_indexing(n_users, round_slots, rounds, seed):
    rng = np.random.default_rng(seed)
    M = 12
    params = SystemParams(contact_prob=0.5, max_age=M, utility=UtilityFunction.linear(M),
                          scan_cost=0.3, wifi_price=6.0)
    users = [
        UserAssignment(ContactTrace(f"u{i}", bits(int(rng.integers(1, 60)), 0.5, seed + i)),
                       phase=int(rng.integers(0, 100)), start_age=int(rng.integers(1, M + 1)))
        for i in range(n_users)
    ]
    controller = LearningConfig(max_bonus=6.0, target_rate=0.5 * n_users, round_slots=round_slots,
                                learning_rate=5.0, initial_bonus=float(rng.uniform(0, 6)))
    recorded = simulate_population(users, params, rounds, round_slots, controller=controller,
                                   record_ages=True)
    plain = simulate_population(users, params, rounds, round_slots, controller=controller)
    assert plain.age_history is None
    assert recorded.users == plain.users and recorded.rounds == plain.rounds
    expected = modulo_ages(users, params, round_slots, [r.bonus for r in recorded.rounds])
    assert recorded.age_history.dtype == np.int32
    np.testing.assert_array_equal(recorded.age_history, expected)
    assert [u.final_age for u in recorded.users] == [row[-1] if rounds else ua.start_age
                                                     for row, ua in zip(expected.tolist(), users)]


@given(st.integers(1, 40), st.integers(1, 30), st.lists(st.floats(0, 40), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
# a 13-slot round ends 3 slots into its padded last 8-slot step; rounds past
# CHUNK_SLOTS walk whole, as a replay row of that length would not
@example(40, 13, [0.0, 20.0, 0.0, 35.0, 0.0, 10.0], 5)
@example(9, L + 1, [0.0, 35.0, 10.0], 6)
@example(9, 300, [20.0, 0.0, 39.5], 7)
@example(9, 3 * L + 5, [35.0, 0.0, 20.0], 8)
def test_chain_env_draws_one_number_per_user_slot(n_users, round_slots, bonuses, seed):
    params = SystemParams(contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30),
                          scan_cost=0.4, wifi_price=40.0)
    env = chain_sim_env(params, n_users, round_slots, np.random.default_rng(seed))
    assert [env(b) for b in bonuses] == per_slot_served(params, n_users, round_slots, bonuses, seed)


def per_slot_served(params, n_users, round_slots, bonuses, seed):
    """The updates of each round at ``bonuses``, slot by slot, from users at
    age 1 and one ``rng.random(n_users)`` per slot of a generator seeded
    ``seed``."""
    rng, ages, expected = np.random.default_rng(seed), np.ones(n_users, dtype=int), []
    for bonus in bonuses:   # one draw of rng.random(n_users) per slot
        s, served = int(threshold_response(params, [bonus])[0]), 0
        for _ in range(round_slots):
            updates = (ages >= s) & (rng.random(n_users) < params.contact_prob)
            served += int(updates.sum())
            ages = np.where(updates, 1, np.minimum(ages + 1, params.max_age))
        expected.append(float(served))
    return expected


def round_params(M):
    return SystemParams(contact_prob=0.54, max_age=M, utility=UtilityFunction.linear(M), scan_cost=0.4,
                        wifi_price=40.0)


K = replay._step_size(1, 30)   # the step of a threshold's table, one policy of 30 ages
#: a new threshold every round, and some again: 8, 6, 1, 6, 8, 3, 7, 1 at
#: M = 30, where a threshold's steps are K = 8 slots long, and at M = 300,
#: where they are 4; rounds past CHUNK_SLOTS, which a replay row of that
#: length would run as chunks, walk whole
ROUND_BONUSES = [0.0, 20.0, 39.5, 20.0, 0.0, 35.0, 10.0, 39.5]
ROUND_CASES = [(M, n) for M in (30, 300) for n in (1, K - 1, K, K + 1, 2 * K + 3, L + 1, 3 * L + 5)]


def round_users():
    """Users on traces shorter and longer than the rounds, two of them on one
    trace object, from phases within and past their traces' lengths."""
    traces = [ContactTrace(f"r{n}", bits(n, 0.5, n)) for n in (1, 5, 23, 300)]
    return [UserAssignment(traces[0], phase=0, start_age=30), UserAssignment(traces[1], phase=3, start_age=1),
            UserAssignment(traces[2], phase=40, start_age=7), UserAssignment(traces[3], phase=312, start_age=12),
            UserAssignment(traces[2], phase=5, start_age=2)]


def spy_round_ends(monkeypatch):
    """The end ages of every ``replay._walk_codes`` call, in order."""
    ends, walk = [], replay._walk_codes
    def spy(*args):
        code, end = walk(*args)
        ends.append(end.tolist())
        return code, end
    monkeypatch.setattr(replay, "_walk_codes", spy)
    return ends


def replayed_rounds(params, contacts, start):
    """The served updates, end ages and ages after each slot of the rounds at
    ROUND_BONUSES on each round's (users, slots) ``contacts``, by
    ``replay._replay`` at the round's threshold, which changes every round."""
    actions = learning._threshold_actions(params.max_age)
    thresholds = threshold_response(params, ROUND_BONUSES).tolist()
    assert thresholds == [8, 6, 1, 6, 8, 3, 7, 1]
    served, ends, after, ages = [], [], [], np.asarray(start)
    for s, round_contacts in zip(thresholds, contacts):
        replayed = replay._replay(actions[s - 1:s], np.zeros(len(ages), int), round_contacts, ages)
        served.append(float(np.count_nonzero(replayed[:, 1:] == 1)))
        ages = replayed[:, -1]
        ends.append(ages.tolist())
        after.append(replayed[:, 1:])
    return served, ends, np.concatenate(after, axis=1)


def trace_contacts(users, round_slots):
    """Each round's (users, slots) contacts: slot (phase + t) mod len at round time t."""
    return [np.array([[ua.trace.slots[(ua.phase + t) % len(ua.trace)]
                       for t in range(r * round_slots, (r + 1) * round_slots)] for ua in users], np.uint8)
            for r in range(len(ROUND_BONUSES))]


def stepping_through_round_bonuses(monkeypatch, round_slots):
    """A controller whose population loop steps from each bonus of
    ROUND_BONUSES to the next, cyclically."""
    monkeypatch.setattr(tracesim.learning, "learning_step", lambda t, *args: ROUND_BONUSES[t % len(ROUND_BONUSES)])
    return LearningConfig(max_bonus=40.0, target_rate=1.0, round_slots=round_slots, initial_bonus=ROUND_BONUSES[0])


@pytest.mark.parametrize("M, round_slots", ROUND_CASES)
def test_chain_rounds_are_the_replay_of_their_draws(monkeypatch, M, round_slots):
    # the env's draws, drawn again from the same seed, replay to the same
    # updates and end ages, bit for bit
    params, n_users, seed = round_params(M), 6, round_slots
    ends = spy_round_ends(monkeypatch)
    env = chain_sim_env(params, n_users, round_slots, np.random.default_rng(seed))
    served = [env(bonus) for bonus in ROUND_BONUSES]
    got = ends[:]
    rng = np.random.default_rng(seed)
    draws = [(rng.random((round_slots, n_users)) < params.contact_prob).T for _ in ROUND_BONUSES]
    expected, expected_ends, _ = replayed_rounds(params, draws, np.ones(n_users, int))
    assert served == expected and got == expected_ends


@pytest.mark.parametrize("M, k", [(300, 4), (9000, 2)])
def test_chain_env_at_short_steps_draws_one_number_per_user_slot(M, k):
    # each packed byte splits into 8 // k steps; the replay of the draws
    # above splits a row's bytes with the same code, so check the slots
    assert replay._step_size(1, M) == k
    params = round_params(M)
    env = chain_sim_env(params, 6, 13, np.random.default_rng(M))
    assert [env(b) for b in ROUND_BONUSES] == per_slot_served(params, 6, 13, ROUND_BONUSES, M)


@pytest.mark.parametrize("M, round_slots", ROUND_CASES)
def test_trace_rounds_are_the_replay_of_their_windows(monkeypatch, M, round_slots):
    # the trace env and a population on the same users against the replay
    # of each round's contacts, and the population's totals against the
    # reference parts of those contacts
    params, users = round_params(M), round_users()
    contacts, starts = trace_contacts(users, round_slots), [ua.start_age for ua in users]
    expected, expected_ends, after = replayed_rounds(params, contacts, starts)
    ends = spy_round_ends(monkeypatch)
    env = trace_env(users, params, round_slots)
    assert [env(bonus) for bonus in ROUND_BONUSES] == expected and ends == expected_ends
    ends.clear()
    controller = stepping_through_round_bonuses(monkeypatch, round_slots)
    result = simulate_population(users, params, len(ROUND_BONUSES), round_slots, controller=controller,
                                 record_ages=True)
    assert [r.bonus for r in result.rounds] == ROUND_BONUSES
    assert [r.served for r in result.rounds] == expected and ends == expected_ends
    assert [u.final_age for u in result.users] == expected_ends[-1]
    np.testing.assert_array_equal(result.age_history, after)
    rounds = list(zip(threshold_response(params, ROUND_BONUSES).tolist(), ROUND_BONUSES, contacts,
                      [starts] + expected_ends[:-1]))
    for i, user in enumerate(result.users):   # each round's fee at its own bonus
        parts = [part for s, bonus, round_contacts, start in rounds
                 for part in reference_parts(round_contacts[i], replace(params, bonus=bonus),
                                             threshold_action(s), start[i])]
        assert user.total_reward == parts_total(parts)


def test_each_env_looks_up_each_thresholds_table_once(monkeypatch):
    # a round looks its threshold's step table up in its env, which asks
    # replay._tables once per threshold, however often it comes back
    looked_up, tables = [], replay._tables
    def spy(actions):
        (row,) = actions
        looked_up.append(int(row.argmax()) + 1 if row.any() else len(row) + 1)
        return tables(actions)
    monkeypatch.setattr(replay, "_tables", spy)
    params, users = round_params(30), round_users()
    distinct = list(dict.fromkeys(threshold_response(params, ROUND_BONUSES).tolist()))
    envs = [chain_sim_env(params, 4, 13, np.random.default_rng(1)), trace_env(users, params, 13)]
    for env in envs:
        looked_up.clear()
        for bonus in ROUND_BONUSES * 3:
            env(bonus)
        assert looked_up == distinct
    looked_up.clear()
    controller = stepping_through_round_bonuses(monkeypatch, 13)
    simulate_population(users, params, 3 * len(ROUND_BONUSES), 13, controller=controller)
    assert looked_up == distinct


def test_long_replay_matches_reference():
    # a 1e5-slot replay runs as hundreds of chunk rows
    params = params_for(12, 0.54, 0.99, 0.5, UtilityFunction.linear(12))
    trace = iid_trace(0.54, 100_000, seed=17)
    policy = Policy.from_thresholds(3, 9, 12)
    result = simulate_policy(trace, params, policy, start_age=7)
    assert_totals_equal_parts(result, reference_parts(trace.slots, params, policy.action_at, 7))


@pytest.mark.parametrize("n", [13, 3 * L + 5])
def test_trace_replays_build_no_age_matrix(monkeypatch, n):
    # simulate_policy, replayed_average_reward and comparison_table read
    # every count off the step codes, on short and on chunked traces: with
    # replay._replay, which alone builds the age matrix, gone they answer the same
    M = 12
    params = params_for(M, 0.5, 0.5, 0.5, UtilityFunction.linear(M))
    trace = ContactTrace("t", bits(n, 0.5, n), mask=bits(n, 0.3, n + 1))
    policies = [Policy.from_thresholds(3, None, M), Policy.from_thresholds(3, 9, M), MASK_POLICY]

    def answers():
        return ([simulate_policy(trace, params, policy, start_age=4) for policy in policies],
                tracesim.replayed_average_reward(trace, params, policies[0], 40, 2),
                tracesim.comparison_table([trace], params, 40))

    expected = answers()

    def no_age_matrix(*args):
        raise AssertionError("replay._replay called")

    monkeypatch.setattr(replay, "_replay", no_age_matrix)
    assert answers() == expected


@pytest.mark.parametrize("n", [13, 3 * L + 5])
def test_trace_replays_read_the_ages_at_most_once(monkeypatch, n):
    # a replay's ages are built only for its update slots or for a table with
    # action 2, and then once: threshold and mask rotations and comparison
    # rows never build them
    M = 12
    params = params_for(M, 0.5, 0.5, 0.5, UtilityFunction.linear(M))
    trace = ContactTrace("t", bits(n, 0.5, n), mask=bits(n, 0.3, n + 1))
    calls, after = [], replay._after
    monkeypatch.setattr(replay, "_after", lambda *args: calls.append(1) or after(*args))

    def reads(call):
        calls.clear()
        call()
        return len(calls)

    threshold, band = Policy.from_thresholds(3, None, M), Policy.from_thresholds(3, 9, M)
    assert [reads(lambda: simulate_policy(trace, params, policy)) for policy in (threshold, band, MASK_POLICY)] \
        == [1, 1, 1]
    assert [reads(lambda: tracesim.replayed_average_reward(trace, params, policy, 40))
            for policy in (threshold, band)] == [0, 1]
    assert reads(lambda: tracesim.comparison_table([trace], params, 40)) == 0


def test_population_rounds_read_the_ages_only_to_record_them(monkeypatch):
    # a population round tallies its slots off the cells before each slot;
    # it builds the ages after each slot only for the recorded history, once
    calls, after = [], replay._after
    monkeypatch.setattr(replay, "_after", lambda *args: calls.append(1) or after(*args))
    params, users = round_params(30), round_users()
    controller = stepping_through_round_bonuses(monkeypatch, 13)
    for record_ages, reads in ((False, 0), (True, len(ROUND_BONUSES))):
        calls.clear()
        simulate_population(users, params, len(ROUND_BONUSES), 13, controller=controller,
                            record_ages=record_ages)
        assert len(calls) == reads


def test_chunks_without_updates_settle_over_several_passes():
    # ages above the chunk length never saturate within one chunk, so every
    # chunk's start depends on all the chunks before it
    M = 3 * L
    params = SystemParams(contact_prob=0.5, max_age=M, utility=UtilityFunction.linear(M))
    trace = ContactTrace("t", bits(5 * L + 3, 0.5, 4))
    policy = Policy.from_thresholds(M + 1, None, M)   # never activate
    result = simulate_policy(trace, params, policy, start_age=2)
    assert result.updates == 0
    assert result.total_reward == parts_total(reference_parts(trace.slots, params, policy.action_at, 2))


def stepped_ages(actions, policy, contacts, start):
    """Ages along each row by one ``next_age`` call per slot: the oracle for
    ``replay._replay``'s (rows, slots + 1) result."""
    M = actions.shape[1]
    rows = []
    for r, row in enumerate(contacts):
        ages = [int(start[r])]
        for contact in row:
            action = Action(int(actions[policy[r], ages[-1] - 1]))
            ages.append(next_age(ages[-1], action, int(contact), M))
        rows.append(ages)
    return np.array(rows)


def assert_replay_equals_stepped(actions, policy, contacts, start):
    ages = replay._replay(actions, policy, contacts, start)
    assert ages.shape == (len(contacts), contacts.shape[1] + 1)
    np.testing.assert_array_equal(ages, stepped_ages(actions, policy, contacts, start))


def threshold_table(M, pairs):
    return np.array([Policy.from_thresholds(s, s_3g, M).actions for s, s_3g in pairs], np.uint8)


def spy_walks(monkeypatch):
    """The (fresh codes, start ages) of every ``replay._walk`` call, in order:
    each call is one pass over some steps of some rows or chunks."""
    passes, walk = [], replay._walk
    def spy(last, code, start):
        passes.append((code.copy(), np.array(start)))
        return walk(last, code, start)
    monkeypatch.setattr(replay, "_walk", spy)
    return passes


def test_replay_ages_without_contacts_beyond_the_chunk_length(monkeypatch):
    # with no contact a WiFi run's age only grows, so runs from different
    # starts first agree at M > CHUNK_SLOTS: each chunk's end depends on its
    # start, and so each chunk's start on all the chunks before it
    M = 3 * L
    actions = threshold_table(M, [(M + 1, None), (1, None), (M // 2, M), (2, 2)])
    policy = np.repeat(np.arange(4), 4)
    start = np.tile([1, 2, L + 7, M], 4)
    contacts = np.zeros((len(policy), 5 * L + 3), np.uint8)
    passes = spy_walks(monkeypatch)
    assert_replay_equals_stepped(actions, policy, contacts, start)
    assert len(passes) >= 4   # the look-back, then one walk per pass


def test_replay_ages_meet_late_at_low_contact_probability():
    # above a threshold near M a run waits about 1 / p = 100 slots for a
    # contact, so runs from different starts agree late in a chunk or not
    # within it at all, and a changed start often changes the chunk's end
    M = 12
    actions = threshold_table(M, [(M, None), (M - 1, None), (M - 2, M)])
    policy = np.repeat(np.arange(3), M)
    start = np.tile(np.arange(1, M + 1), 3)
    rng = np.random.default_rng(6)
    contacts = np.tile(rng.random(20 * L + 9) < 0.01, (len(policy), 1)).astype(np.uint8)
    assert_replay_equals_stepped(actions, policy, contacts, start)


@pytest.mark.parametrize("n", [L - 1, L, L + 1, 3 * L + 5])
def test_replay_ages_with_a_policy_per_row(n):
    # many rows, each with its own per-age action table and start age, on
    # different contact strings
    M = 9
    rng = np.random.default_rng(n)
    actions = rng.integers(0, 3, (3 * M, M)).astype(np.uint8)
    policy = np.arange(3 * M)
    start = np.tile(np.arange(1, M + 1), 3)
    contacts = (rng.random((3 * M, n)) < rng.uniform(0.02, 0.9, (3 * M, 1))).astype(np.uint8)
    assert_replay_equals_stepped(actions, policy, contacts, start)


def test_threshold_means_equal_reference_averages():
    M, n, reps = 300, 3 * L + 5, 2
    values = np.sort(np.random.default_rng(2).uniform(0, 50, M))[::-1]
    params = SystemParams(contact_prob=0.3, max_age=M, utility=UtilityFunction.tabular(values),
                          scan_cost=1.5, wifi_price=4.0, bonus=1.0)
    trace = ContactTrace("t", bits(n, 0.3, 11))
    means = tracesim._threshold_means(trace, params, reps, 5)
    assert len(means) == M + 1
    for s in range(1, M + 2):
        assert means[s - 1] == phases_total(trace, params, threshold_action(s), reps, 5) / (n * reps)


def step_size(actions):
    """The k of the step table ``replay._replay`` uses for ``actions``."""
    table = np.ascontiguousarray(actions, np.uint8)
    return replay._step_table.__wrapped__(table.tobytes(), *table.shape).table.shape[1]


@pytest.mark.parametrize("n", [1, 7, 9, L - 1, L + 1])
def test_replay_ages_on_rows_of_partial_steps(n):
    # eight-slot steps: rows end inside a step and past the chunk length
    M = 9
    rng = np.random.default_rng(100 + n)
    actions = rng.integers(0, 3, (2, M)).astype(np.uint8)   # not monotone, with action 2
    assert step_size(actions) == 8
    policy = np.tile([0, 1], M)
    start = np.repeat(np.arange(1, M + 1), 2)
    contacts = (rng.random((2 * M, n)) < rng.uniform(0.05, 0.9, (2 * M, 1))).astype(np.uint8)
    assert_replay_equals_stepped(actions, policy, contacts, start)


@pytest.mark.parametrize("policies, M, k", [(1, 12, 8), (4, 300, 4), (40, 300, 2), (300, 300, 1),
                                            (1200, 300, 1)])
def test_replay_ages_at_every_step_size(policies, M, k):
    # more policies x ages shrink the step: M > 255 holds ages as uint16, and
    # the last table is too large to cache; short rows end inside a step, and
    # long ones run as several chunks, on uint8 and on bool contacts
    rng = np.random.default_rng(policies + M)
    actions = rng.integers(0, 3, (policies, M)).astype(np.uint8)
    assert step_size(actions) == k
    rows = 45
    policy = rng.integers(0, policies, rows)
    start = rng.integers(1, M + 1, rows)
    for n, dtype in ((13, np.uint8), (2 * L + 3, bool)):
        contacts = (rng.random((rows, n)) < rng.uniform(0.01, 0.5, (rows, 1))).astype(dtype)
        assert replay._replay(actions, policy, contacts, start).dtype == np.min_scalar_type(M)
        assert_replay_equals_stepped(actions, policy, contacts, start)


def test_chunk_reruns_meet_between_step_boundaries(monkeypatch):
    # always WiFi: each chunk's first contact, at its slot 3, resets every run
    # to age 1, so runs from any start agree from column 3 of the chunk,
    # inside the first step of any size above 1, and every chunk ends at age M
    M = 12
    actions = threshold_table(M, [(1, None)])
    assert step_size(actions) == 8
    contacts = np.zeros((2, 3 * L), np.uint8)
    contacts[:, 2::L] = 1
    start = np.array([5, M])
    passes = spy_walks(monkeypatch)
    assert_replay_equals_stepped(actions, np.zeros(2, int), contacts, start)
    # the look-back over the last LOOK_BACK slots before each of the 4 later
    # chunks, and the first pass; no contact falls in those slots, so each
    # look-back stays at M, the age every chunk ends at, and no chunk reruns
    assert len(passes) == 2
    tails, tail_start = passes[0]
    assert tails.shape == (replay.LOOK_BACK // 8, 4) and (tail_start == M).all()
    assert not ((tails + 1) // M).any()   # code + 1 = pattern * M at policy 0: no contact
    assert passes[1][0].shape == (L // 8, 6)


def chunk_rows_replayed(passes, k):
    """Slots that the walks of k-slot steps replayed, in chunks."""
    return sum(code.size for code, _ in passes) * k / L


def test_seeded_chunks_replay_few_chunk_rows(monkeypatch):
    # a run from M and the row's own run agree from their first common update;
    # at threshold 3 and p = 0.54 that nearly always comes within the look-back,
    # so few seeds miss and few chunks rerun
    M, n = 12, 200_000
    actions = threshold_table(M, [(3, None)])
    assert step_size(actions) == 8
    contacts = np.frombuffer(iid_trace(0.54, n, seed=23).slot_bits, np.uint8)[None]
    passes = spy_walks(monkeypatch)
    assert_replay_equals_stepped(actions, np.zeros(1, int), contacts, np.array([7]))
    chunks = -(-n // L)
    # the look-back, at LOOK_BACK / L = 1/8 of a chunk row per chunk, the
    # first pass, at one, and the reruns
    assert chunk_rows_replayed(passes, 8) <= 1.2 * chunks
    assert passes[0][0].shape == (replay.LOOK_BACK // 8, chunks - 1) and passes[1][0].shape == (L // 8, chunks)


def test_missed_seeds_rerun_to_the_stepped_ages(monkeypatch):
    # M > LOOK_BACK and sparse contacts: below the WiFi threshold M // 2 a run
    # ages without an update for longer than the look-back, so a seed from M
    # often misses the age the chunk before really ends with; the reruns
    # still reach the stepped ages
    M = 2 * replay.LOOK_BACK + 5
    actions = threshold_table(M, [(M // 2, None), (M // 2, M - 3)])
    policy = np.repeat([0, 1], M)
    start = np.tile(np.arange(1, M + 1), 2)
    contacts = np.tile(np.random.default_rng(9).random(7 * L + 3) < 0.02, (2 * M, 1))
    passes = spy_walks(monkeypatch)
    assert_replay_equals_stepped(actions, policy, contacts, start)
    # the look-back, the first pass and at least one rerun
    chunks = len(policy) * -(-contacts.shape[1] // L)
    assert len(passes) >= 3 and chunk_rows_replayed(passes, step_size(actions)) > 1.2 * chunks


@pytest.mark.parametrize("policies, M, k, cells", [(1, 12, 8, 70), (300, 300, 1, 520)])
def test_replay_ages_across_row_blocks(monkeypatch, policies, M, k, cells):
    # BLOCK_CELLS shapes the chain and threshold blocks, not the replay: at a
    # block size that would hold only cells // steps of these rows, short
    # rows and chunk rows still replay to the stepped ages.  The structural
    # check is the import rule in test_routes: replay imports only model
    monkeypatch.setattr(chain, "BLOCK_CELLS", cells)
    rng = np.random.default_rng(cells)
    actions = rng.integers(0, 3, (policies, M)).astype(np.uint8)
    assert step_size(actions) == k
    rows = 45
    policy = rng.integers(0, policies, rows)
    start = rng.integers(1, M + 1, rows)
    for n in (13, 2 * L + 3):
        assert 1 < cells // -(-min(n, L) // k) < rows
        contacts = (rng.random((rows, n)) < rng.uniform(0.01, 0.6, (rows, 1))).astype(np.uint8)
        assert_replay_equals_stepped(actions, policy, contacts, start)


def test_step_tables_are_cached_by_content_read_only_and_bounded():
    M = 12
    actions = threshold_table(M, [(4, None), (2, 7)])
    policy, start = np.array([0, 1, 1]), np.array([1, 6, M])
    contacts = (np.random.default_rng(3).random((3, 40)) < 0.4).astype(np.uint8)
    assert_replay_equals_stepped(actions, policy, contacts, start)
    cached = replay._step_table(actions.tobytes(), *actions.shape)
    assert replay._step_table.cache_info().maxsize == 64
    # each row's summaries are cached with the table, by the same key and
    # bound, and all are read-only; those a round does not read are built
    # on their first read
    fresh = replay._step_table.__wrapped__(actions.tobytes(), *actions.shape)
    assert set(vars(fresh)) == {"policies", "M", "table", "last", "ones"}
    assert_cached_from_table(cached, *actions.shape)
    for name in SUMMARIES:
        array = getattr(cached, name)
        assert array.flags.c_contiguous and not array.flags.writeable and getattr(cached, name) is array
        with pytest.raises(ValueError):
            array[0] = 1
    assert cached.last.dtype == np.intp and cached.hist.shape == (len(cached.table), M)
    again = replay._step_table(bytes(bytearray(actions.tobytes())), *actions.shape)
    assert again is cached
    # the same array changed in place keys a new table
    actions[0] = threshold_table(M, [(M + 1, None)])[0]
    actions[1, ::2] = Action.WIFI_THEN_3G
    assert_replay_equals_stepped(actions, policy, contacts, start)
    changed = replay._step_table(actions.tobytes(), *actions.shape)
    assert changed is not cached and not np.array_equal(changed.table, cached.table)
    assert_cached_from_table(changed, *actions.shape)
    # a histogram of more than TABLE_CELLS cells is not kept; at M = 260 the
    # ages are uint16 and the steps 4 slots long
    wide = threshold_table(260, [(250, 255)])
    steps = replay._step_table.__wrapped__(wide.tobytes(), *wide.shape)
    assert steps.table.shape[1] == 4 and len(steps.table) * 260 > replay.TABLE_CELLS and steps.hist is None
    assert_cached_from_table(steps, *wide.shape)


SUMMARIES = ("table", "last", "ones", "cells", "hist")


def assert_cached_from_table(steps, policies, M):
    """Each summary against its row of the table, one row at a time: row
    ((policy * 2**k + pattern) * M + age - 1) starts at ``age``, and an age
    of 1 is an update."""
    table = steps.table
    k = table.shape[1]
    assert len(table) == policies * 2**k * M
    for row, ages in enumerate(table.tolist()):
        policy, age = row // (M << k), row % M + 1
        before = [age] + ages[:-1]
        assert steps.last[row] == ages[-1] and steps.ones[row] == ages.count(1)
        assert steps.cells[row].tolist() == [policy * M + a - 1 for a in before]
        if steps.hist is not None:
            assert steps.hist[row].tolist() == [before.count(a) for a in range(1, M + 1)]


@pytest.mark.parametrize("n", [1, 7, 13, 2 * L + 3])
@pytest.mark.parametrize("policies, M, k", [(1, 12, 8), (4, 300, 4), (40, 300, 2), (300, 300, 1)])
def test_replay_ages_on_every_contact_layout(policies, M, k, n):
    # the callers' layouts: bool and uint8 rows, the chain env's (slots, rows)
    # draw transposed to Fortran order, and windows of one tiled trace, both
    # as overlapping strided rows and gathered; n = 7 and 13 end inside a step
    rng = np.random.default_rng(policies * n)
    actions = rng.integers(0, 3, (policies, M)).astype(np.uint8)
    assert step_size(actions) == k
    rows = 5
    policy = rng.integers(0, policies, rows)
    start = rng.integers(1, M + 1, rows)
    draw = rng.random((n, rows)) < 0.3
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(draw[:, 0].astype(np.uint8), rows + 1), n)
    layouts = [np.ascontiguousarray(draw.T), draw.T.astype(np.uint8), draw.T,
               windows[:rows], windows[np.array([0, n - 1, 2, n, 1]) % len(windows)]]
    assert layouts[2].flags.f_contiguous and (n == 1 or not layouts[2].flags.c_contiguous)
    for contacts in layouts:
        expected = stepped_ages(actions, policy, contacts, start)
        np.testing.assert_array_equal(replay._replay(actions, policy, contacts, start), expected)


@pytest.mark.parametrize("n", [1, 7, 13, L, L + 1, 2 * L + 3])
@pytest.mark.parametrize("policies, M, k", [(1, 12, 8), (4, 300, 4), (40, 300, 2), (300, 300, 1)])
def test_round_reader_reads_the_end_ages_and_updates_of_the_replay(policies, M, k, n):
    # the end ages the walk reads, column r - 1 of each row's last step:
    # action 2 updates on the no-contact slots that pad a row's last step,
    # so reading the padded step's last column would show here
    rng = np.random.default_rng(policies * M + n)
    actions = rng.integers(0, 3, (policies, M)).astype(np.uint8)
    assert step_size(actions) == k
    rows = 9
    policy = rng.integers(0, policies, rows)
    start = rng.integers(1, M + 1, rows)
    contacts = rng.random((rows, n)) < rng.uniform(0.01, 0.5, (rows, 1))
    expected = stepped_ages(actions, policy, contacts, start)
    _, _, end = replay._steps(actions, policy, contacts, start)
    np.testing.assert_array_equal(end, expected[:, -1])


def phases_total(trace, params, action_at, reps, start):
    """``parts_total`` over the replays from the phases r * max(1, floor(n / reps))
    mod n, r < reps."""
    n, parts = len(trace), []
    for r in range(reps):
        phase = r * max(1, n // reps) % n
        parts += reference_parts(trace.slots[phase:] + trace.slots[:phase], params, action_at, start)
    return parts_total(parts)


@given(instances(), st.integers(1, 40), st.integers(1, 90), st.integers(1, 9),
       st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_threshold_means_equal_exact_phase_totals(params, n, reps, start, p, seed):
    # reps > n repeats phases: the step max(1, floor(n / reps)) is then 1
    start = min(start, params.max_age)
    trace = ContactTrace("t", bits(n, p, seed))
    means = tracesim._threshold_means(trace, params, reps, start)
    for s in range(1, params.max_age + 2):
        assert means[s - 1] == phases_total(trace, params, threshold_action(s), reps, start) / (n * reps)
    policy = Policy.from_thresholds(2, None, params.max_age)
    assert tracesim.replayed_average_reward(trace, params, policy, reps, start) == means[1]


def rotated_parts(trace, params, policy, reps, start):
    """``reference_parts`` of ``policy`` over the replays from the phases of
    ``phases_total``, each with the mask rotated as its slots are."""
    n, parts = len(trace), []
    for r in range(reps):
        phase = r * max(1, n // reps) % n
        turned = ContactTrace("t", trace.slots[phase:] + trace.slots[:phase],
                              mask=trace.mask[phase:] + trace.mask[:phase])
        parts += reference_parts(turned.slots, params, action_rule(policy, turned), start)
    return parts


@pytest.mark.parametrize("n, M, reps", [(1, 2, 40), (7, 5, 13), (13, 9, 40), (L + 3, 12, 3), (2 * L + 5, 7, 1)])
def test_rotation_tallies_count_the_reference_parts(n, M, reps):
    # each age has its own linear utility, a scan cost marks an active slot,
    # and the WiFi and 3G fees differ: so each tally column counts reference
    # parts, for every policy of one table and for the mask policy, from
    # every start age
    params = SystemParams(contact_prob=0.5, max_age=M, utility=UtilityFunction.linear(M),
                          scan_cost=0.5, wifi_price=2.0, price_3g=5.0, bonus=0.5)
    fee_wifi, fee_3g = 1.5, 4.5
    trace = ContactTrace("t", bits(n, 0.5, n), mask=bits(n, 0.4, n + 1))
    band = Policy.from_thresholds(1, 2, M)   # action 2 from age 2
    policies = [Policy.from_thresholds(s, None, M) for s in (1, M // 2 + 1, M + 1)] + [
        band, Policy.from_thresholds(2, M, M),
        Policy(tuple(np.random.default_rng(n).integers(0, 3, M).tolist()))]
    table = np.array([policy.actions for policy in policies], np.uint8)
    for start in range(1, M + 1):
        for actions, rows in ((table, policies), (None, [MASK_POLICY])):
            _, tally, totals = tracesim._replay_rotations(trace, params, actions, reps, start)
            expected = []
            for policy in rows:
                parts = rotated_parts(trace, params, policy, reps, start)
                utility, scan, fee = (list(column) for column in zip(*parts))
                expected.append([utility.count(params.utility(age)) for age in range(1, M + 1)]
                                + [len(scan) - scan.count(0.0), fee.count(fee_wifi), fee.count(fee_3g)])
                assert totals[len(expected) - 1] == parts_total(parts)
                if policy is band and n > 1:   # the band's slots updated with and without a contact
                    fees = {f for u, _, f in parts if u < params.utility(1)}
                    assert {fee_wifi, fee_3g} <= fees
            assert tally.tolist() == expected


def slot_tally(ages, policy, policies, M):
    """Each policy's slots by the age before the slot, one row's ages at a
    time: the oracle for ``replay._count_ages``."""
    counts = np.zeros((policies, M), np.int64)
    for mine, row in zip(policy, ages[:, :-1]):
        counts[mine] += np.bincount(row, minlength=M + 1)[1:]
    return counts


@settings(max_examples=40)
@given(st.sampled_from([2, 5, 12, 260]), st.sampled_from(["monotone", "per-age", "mask", "late"]),
       st.sampled_from(["1", "k - 1", "k", "k + 1", "L - 1", "L + 1", "3L + 5"]), st.data())
def test_row_tallies_equal_slot_tallies_and_reference_parts(M, kind, length, data):
    # a replay counts its full steps by step table row once they outnumber
    # the table's rows, and enough phases take every draw there; at M = 260
    # the ages are uint16 and the steps 4 slots long
    params = SystemParams(contact_prob=0.5, max_age=M, utility=UtilityFunction.linear(M),
                          scan_cost=0.5, wifi_price=2.0, price_3g=5.0, bonus=0.5)
    fee_wifi, fee_3g, p = 1.5, 4.5, 0.5
    if kind == "mask":
        policies = [MASK_POLICY]
    elif kind == "monotone":   # action 2 from s_3g when s_3g <= M
        pairs = data.draw(st.lists(st.tuples(st.integers(1, M + 1), st.integers(0, M)), min_size=1, max_size=2))
        policies = [Policy.from_thresholds(s, min(s + gap, M + 1), M) for s, gap in pairs]
    elif kind == "per-age":
        policies = data.draw(st.lists(st.lists(st.sampled_from(list(Action)), min_size=M, max_size=M)
                                      .map(lambda acts: Policy(tuple(acts))), min_size=1, max_size=2))
    else:   # a threshold near M at low p: a run waits long for a contact, so chunk seeds miss and rerun
        policies, p = [Policy.from_thresholds(data.draw(st.integers(max(1, M - 1), M)), None, M)], 0.02
    table = np.array([(1,) * M if policy is MASK_POLICY else policy.actions for policy in policies], np.uint8)
    k = step_size(table)
    n = max(1, {"1": 1, "k - 1": k - 1, "k": k, "k + 1": k + 1,
                "L - 1": L - 1, "L + 1": L + 1, "3L + 5": 3 * L + 5}[length])
    steps = -(-n // k)
    reps = 2**k * M // max(1, steps - 1) + 1   # the full steps of every row outnumber the table's rows
    start, seed = data.draw(st.integers(1, M)), data.draw(st.integers(0, 2**32 - 1))
    trace = ContactTrace("t", bits(n, p, seed), mask=bits(n, 0.4, seed + 1))

    # the kernel level: the count of a replay's table rows against the slot count of its ages
    contacts = np.asarray(trace.slots, np.uint8) & (np.asarray(trace.mask, np.uint8) if kind == "mask" else 1)
    phases = np.arange(reps) * max(1, n // reps) % n
    contacts = np.tile([np.roll(contacts, -phase) for phase in phases], (len(table), 1))
    policy, begin = np.repeat(np.arange(len(table)), reps), np.full(len(table) * reps, start)
    assert len(policy) * (steps - 1) > len(table) * 2**k * M or steps == 1
    walked, code, _ = replay._steps(table, policy, contacts, begin)
    np.testing.assert_array_equal(replay._count_ages(walked, code, n),
                                  slot_tally(replay._replay(table, policy, contacts, begin), policy, len(table), M))

    # the rotations: each tally column counts reference parts, and each total is their sum
    _, tally, totals = tracesim._replay_rotations(trace, params, None if kind == "mask" else table, reps, start)
    for i, policy in enumerate(policies):
        parts = rotated_parts(trace, params, policy, reps, start)
        utility, scan, fee = (list(column) for column in zip(*parts))
        assert tally[i].tolist() == [utility.count(params.utility(age)) for age in range(1, M + 1)] + [
            len(scan) - scan.count(0.0), fee.count(fee_wifi), fee.count(fee_3g)]
        assert totals[i] == parts_total(parts)


def histograms(steps, M):
    """The (rows, M) histogram of the ages before the slots of each row of a
    step table: its start age, then the first k - 1 ages of the row."""
    table = steps.table
    before = np.column_stack((np.arange(len(table)) % M + 1, table[:, :-1]))
    return np.array([np.bincount(row, minlength=M + 1)[1:] for row in before], np.uint8)


@pytest.mark.parametrize("route", ["by table row", "by histogram", "no histogram"])
@pytest.mark.parametrize("M, kind, n", [
    (12, "per-age", 13),         # a last step of 5 slots in 8
    (12, "per-age", 16),         # whole steps only
    (12, "per-age", 3 * L + 5),  # chunks
    (260, "per-age", 2 * L + 3),   # uint16 ages and 4-slot steps
    (260, "late", L + 1),        # chunk seeds that miss and rerun
    (260, "late", 3 * L + 5)])
def test_counts_from_codes_equal_slot_tallies(monkeypatch, M, kind, n, route):
    # each route of replay._count_ages against the slot count of the ages
    # replay._replay returns: full steps by table row when they outnumber the
    # table's rows or the table has no histograms, else by their rows'
    # histograms; each row's last step from its first r cells
    rng = np.random.default_rng(M + n)
    if kind == "late":   # a threshold near M at low p: a run waits long for a contact
        table, p = threshold_table(M, [(M - 1, None)]), 0.02
    else:
        table, p = rng.integers(0, 3, (2, M)).astype(np.uint8), 0.5
    policies, k = len(table), step_size(table)
    steps = -(-n // k)
    reps = 2**k * M // (steps - 1) + 1 if route == "by table row" else 3
    contacts = (rng.random((reps, n)) < p).astype(np.uint8)
    policy, start = np.repeat(np.arange(policies), reps), rng.integers(1, M + 1, policies * reps)
    passes = spy_walks(monkeypatch)
    walked, code, _ = replay._steps(table, policy, contacts, start)
    if kind == "late":   # the look-back, the first pass and at least one rerun
        assert len(passes) >= 3
    if route != "by table row":
        assert code[:-1].size <= len(walked.table)
        if route == "no histogram" or walked.hist is None:   # fewer steps than rows, by table row
            walked = copy.copy(walked)
            walked.hist = None if route == "no histogram" else histograms(walked, M)
    assert (code[:-1].size > len(walked.table)) == (route == "by table row")
    np.testing.assert_array_equal(replay._count_ages(walked, code, n),
                                  slot_tally(replay._replay(table, policy, contacts, start), policy, policies, M))


@given(st.integers(1, 5), st.integers(1, 30), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_population_totals_equal_parts_at_each_rounds_bonus(n_users, round_slots, rounds, seed):
    rng = np.random.default_rng(seed)
    M = 12
    params = SystemParams(contact_prob=0.5, max_age=M, utility=UtilityFunction.tabular(
        np.sort(rng.uniform(0, 10, M))[::-1]), scan_cost=float(rng.uniform(0, 2)), wifi_price=6.0)
    users = [
        UserAssignment(ContactTrace(f"u{i}", bits(int(rng.integers(1, 50)), 0.5, seed + i)),
                       phase=int(rng.integers(0, 100)), start_age=int(rng.integers(1, M + 1)))
        for i in range(n_users)
    ]
    controller = LearningConfig(max_bonus=6.0, target_rate=1.0, round_slots=round_slots,
                                learning_rate=2.0, initial_bonus=float(rng.uniform(0, 6)))
    result = simulate_population(users, params, rounds, round_slots, controller=controller)
    for ua, user in zip(users, result.users):
        n, age, parts = len(ua.trace), ua.start_age, []
        for r in result.rounds:
            at_bonus = replace(params, bonus=r.bonus)   # each round's fee at its own bonus
            action_at = threshold_action(int(threshold_response(params, [r.bonus])[0]))
            slots = [ua.trace.slots[(ua.phase + t) % n]
                     for t in range((r.index - 1) * round_slots, r.index * round_slots)]
            parts += reference_parts(slots, at_bonus, action_at, age)
            for contact in slots:
                age = next_age(age, action_at(age), contact, M)
        assert user.total_reward == parts_total(parts)
        assert user.final_age == age


def test_huge_utility_totals_are_finite_and_exact():
    M = 6
    params = SystemParams(contact_prob=0.5, max_age=M, scan_cost=0.3, wifi_price=2.0, price_3g=5.0,
                          bonus=0.5, utility=UtilityFunction.tabular([1e300, 7e299, 3e299, 1.0, 0.5, 0.0]))
    trace = ContactTrace("t", bits(3 * L + 5, 0.4, 8), mask=bits(3 * L + 5, 0.5, 9))
    for policy in (Policy.from_thresholds(2, 4, M), MASK_POLICY):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulate_policy(trace, params, policy, start_age=3)
        assert math.isfinite(result.total_reward)
        parts = reference_parts(trace.slots, params, action_rule(policy, trace), 3)
        assert_totals_equal_parts(result, parts)


def test_totals_cancelling_near_the_float_limit_stay_finite():
    # utility and scan cost cancel in every slot, but each count times 1e308
    # overflows unless the values are scaled down first
    M = 6
    params = SystemParams(contact_prob=0.5, max_age=M, scan_cost=1e308, wifi_price=2.0, price_3g=5.0,
                          bonus=0.5, utility=UtilityFunction.tabular((1e308,) * (M - 1) + (0.0,)))
    trace = ContactTrace("t", bits(3 * L + 5, 0.4, 8))
    policy = Policy.from_thresholds(1, 4, M)   # always active: ages stay below M
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = simulate_policy(trace, params, policy, start_age=3)
    parts = reference_parts(trace.slots, params, policy.action_at, 3)
    assert result.total_reward == parts_total(parts)
    assert result.fees_paid == math.fsum(fee for *_, fee in parts)
    assert result.energy_spent == math.inf   # 1e308 on every one of 3L + 5 slots


def test_subnormal_scan_costs_under_huge_prices_keep_their_bits():
    # each slot earns 2**1000 and pays 2**1000 for its update, less a scan
    # cost of the smallest subnormal: the exact total of four slots is
    # -4 * 5e-324, however large the terms that cancel
    M = 2
    params = SystemParams(contact_prob=0.5, max_age=M, scan_cost=5e-324, wifi_price=2.0**1000,
                          utility=UtilityFunction.tabular((2.0**1000, 0.0)))
    trace = ContactTrace("t", (1, 1, 1, 1))
    policy = Policy.from_thresholds(1, None, M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = simulate_policy(trace, params, policy)
    parts = reference_parts(trace.slots, params, policy.action_at)
    assert result.total_reward == parts_total(parts) == -2e-323
    assert_totals_equal_parts(result, parts)   # energy_spent 2e-323 among them


def rounded(total: Fraction) -> float:
    """``total`` rounded once to the nearest float: +-inf at or past the
    largest float plus half its ulp."""
    if abs(total) >= 2**1024 - 2**970:
        return math.inf if total > 0 else -math.inf
    return float(total)


def test_exact_sums_of_counts_past_the_count_split():
    # counts this large come only from very long replays: their products
    # with the values run far past 53 bits, and two large products cancel.
    # Huge values that cancel must leave the subnormal ones their bits, and
    # sums past the float range round to +-inf.  Fraction arithmetic rounds
    # the exact sum once
    rng = np.random.default_rng(5)
    big = rng.integers(2**40, 2**52, 20)
    counts = np.column_stack((big, big - rng.integers(0, 1000, 20), rng.integers(0, 2**52, 20)))
    top = np.finfo(float).max
    cases = [(counts, np.array([0.1, -0.1, 3.7e-9])), (counts, rng.uniform(-10, 10, 3)),
             (np.array([[1, 1, 1], [3, 2, 0], [1, 1, 7]]), np.array([2.0**1000, -2.0**1000, 5e-324])),
             (np.array([[2, 0, 0], [0, 3, 0], [1, 0, 1], [5, 5, 3]]), np.array([top, -top, 2.0**969]))]
    sums = []
    for counts, values in cases:
        sums.append(tracesim._exact_sums(counts, values))
        assert sums[-1] == [rounded(sum(Fraction(int(c)) * Fraction(v) for c, v in zip(row, values)))
                            for row in counts]
    assert sums[2] == [5e-324, 1.0715086071862673e+301, 3.5e-323]
    assert sums[3][:3] == [math.inf, -math.inf, top]
