"""Properties of the one replay kernel behind every trace and population
simulation, checked against the scalar oracles in ``conftest`` and against
each other: exact totals of every policy kind, rotation means and population
rounds against the summed parts, chunked replays around the chunk length,
the trace and chain environments, and the kernel's ages against one
``next_age`` call per slot at every step size, on rows that end inside a
step or span several row blocks, and on chunk rows whose seeded starts hold
or miss and settle in one rerun pass or over many; and each column of the
rotation tallies against the counted reference parts."""
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from agectl import model, tracesim
from agectl.model import CHUNK_SLOTS

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


@given(st.integers(1, 40), st.integers(1, 30), st.lists(st.floats(0, 40), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_chain_env_draws_one_number_per_user_slot(n_users, round_slots, bonuses, seed):
    params = SystemParams(contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30),
                          scan_cost=0.4, wifi_price=40.0)
    env = chain_sim_env(params, n_users, round_slots, np.random.default_rng(seed))
    rng, ages, expected = np.random.default_rng(seed), np.ones(n_users, dtype=int), []
    for bonus in bonuses:   # one draw of rng.random(n_users) per slot
        s, served = int(threshold_response(params, [bonus])[0]), 0
        for _ in range(round_slots):
            updates = (ages >= s) & (rng.random(n_users) < params.contact_prob)
            served += int(updates.sum())
            ages = np.where(updates, 1, np.minimum(ages + 1, params.max_age))
        expected.append(float(served))
    assert [env(b) for b in bonuses] == expected


def test_long_replay_matches_reference():
    # a 1e5-slot replay runs as hundreds of chunk rows
    params = params_for(12, 0.54, 0.99, 0.5, UtilityFunction.linear(12))
    trace = iid_trace(0.54, 100_000, seed=17)
    policy = Policy.from_thresholds(3, 9, 12)
    result = simulate_policy(trace, params, policy, start_age=7)
    assert_totals_equal_parts(result, reference_parts(trace.slots, params, policy.action_at, 7))


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
    ``model._replay``'s (rows, slots + 1) result."""
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
    ages = model._replay(actions, policy, contacts, start)
    assert ages.shape == (len(contacts), contacts.shape[1] + 1)
    np.testing.assert_array_equal(ages, stepped_ages(actions, policy, contacts, start))


def threshold_table(M, pairs):
    return np.array([Policy.from_thresholds(s, s_3g, M).actions for s, s_3g in pairs], np.uint8)


def test_replay_ages_without_contacts_beyond_the_chunk_length(monkeypatch):
    # with no contact a WiFi run's age only grows, so runs from different
    # starts first agree at M > CHUNK_SLOTS: each chunk's end depends on its
    # start, and so each chunk's start on all the chunks before it
    M = 3 * L
    actions = threshold_table(M, [(M + 1, None), (1, None), (M // 2, M), (2, 2)])
    policy = np.repeat(np.arange(4), 4)
    start = np.tile([1, 2, L + 7, M], 4)
    contacts = np.zeros((len(policy), 5 * L + 3), np.uint8)
    passes, replay = [], model._replay
    monkeypatch.setattr(model, "_replay", lambda *args: passes.append(args) or replay(*args))
    assert_replay_equals_stepped(actions, policy, contacts, start)
    assert len(passes) - 1 >= 4   # the outer call, then one call per pass


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
    """The k of the step table ``model._replay`` uses for ``actions``."""
    table = np.ascontiguousarray(actions, np.uint8)
    return model._step_table.__wrapped__(table.tobytes(), *table.shape)[0].shape[1]


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
    # the last table is too large to cache
    rng = np.random.default_rng(policies + M)
    actions = rng.integers(0, 3, (policies, M)).astype(np.uint8)
    assert step_size(actions) == k
    rows = 12
    policy = rng.integers(0, policies, rows)
    start = rng.integers(1, M + 1, rows)
    contacts = rng.random((rows, 2 * L + 3)) < rng.uniform(0.01, 0.5, (rows, 1))
    assert model._replay(actions, policy, contacts, start).dtype == np.min_scalar_type(M)
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
    passes, replay = [], model._replay
    monkeypatch.setattr(model, "_replay", lambda *args: passes.append(args) or replay(*args))
    assert_replay_equals_stepped(actions, np.zeros(2, int), contacts, start)
    # the outer call, the look-back over the last LOOK_BACK slots before each
    # of the 4 later chunks, and the first pass; no contact falls in those
    # slots, so each look-back stays at M, the age every chunk ends at, and
    # no chunk reruns
    assert len(passes) == 3
    _, _, tails, tail_start = passes[1]
    assert tails.shape == (4, model.LOOK_BACK) and not tails.any() and (tail_start == M).all()
    assert passes[2][2].shape == (6, L)


def chunk_rows_replayed(passes):
    """Slots that the kernel calls after the outer one replayed, in chunks."""
    return sum(contacts.size for _, _, contacts, _ in passes[1:]) / L


def test_seeded_chunks_replay_few_chunk_rows(monkeypatch):
    # a run from M and the row's own run agree from their first common update;
    # at threshold 3 and p = 0.54 that nearly always comes within the look-back,
    # so few seeds miss and few chunks rerun
    M, n = 12, 200_000
    actions = threshold_table(M, [(3, None)])
    assert step_size(actions) == 8
    contacts = np.frombuffer(iid_trace(0.54, n, seed=23).slot_bits, np.uint8)[None]
    passes, replay = [], model._replay
    monkeypatch.setattr(model, "_replay", lambda *args: passes.append(args) or replay(*args))
    assert_replay_equals_stepped(actions, np.zeros(1, int), contacts, np.array([7]))
    chunks = -(-n // L)
    # the look-back, at LOOK_BACK / L = 1/8 of a chunk row per chunk, the
    # first pass, at one, and the reruns
    assert chunk_rows_replayed(passes) <= 1.2 * chunks
    assert passes[1][2].shape == (chunks - 1, model.LOOK_BACK) and passes[2][2].shape == (chunks, L)


def test_missed_seeds_rerun_to_the_stepped_ages(monkeypatch):
    # M > LOOK_BACK and sparse contacts: below the WiFi threshold M // 2 a run
    # ages without an update for longer than the look-back, so a seed from M
    # often misses the age the chunk before really ends with; the reruns
    # still reach the stepped ages
    M = 2 * model.LOOK_BACK + 5
    actions = threshold_table(M, [(M // 2, None), (M // 2, M - 3)])
    policy = np.repeat([0, 1], M)
    start = np.tile(np.arange(1, M + 1), 2)
    contacts = np.tile(np.random.default_rng(9).random(7 * L + 3) < 0.02, (2 * M, 1))
    passes, replay = [], model._replay
    monkeypatch.setattr(model, "_replay", lambda *args: passes.append(args) or replay(*args))
    assert_replay_equals_stepped(actions, policy, contacts, start)
    # the outer call, the look-back, the first pass and at least one rerun
    chunks = len(policy) * -(-contacts.shape[1] // L)
    assert len(passes) >= 4 and chunk_rows_replayed(passes) > 1.2 * chunks


@pytest.mark.parametrize("policies, M, k, cells", [(1, 12, 8, 70), (300, 300, 1, 520)])
def test_replay_ages_across_row_blocks(monkeypatch, policies, M, k, cells):
    # a block holds cells // steps rows: short rows and chunk rows each run in
    # several blocks, the last of them partial
    monkeypatch.setattr(model, "BLOCK_CELLS", cells)
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
    table, last = model._step_table(actions.tobytes(), *actions.shape)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert model._step_table.cache_info().maxsize == 64
    # the last-age column is cached with it, by the same key and bound
    assert last.flags.c_contiguous and not last.flags.writeable
    with pytest.raises(ValueError):
        last[0] = 1
    np.testing.assert_array_equal(last, table[:, -1])
    again = model._step_table(bytes(bytearray(actions.tobytes())), *actions.shape)
    assert again[0] is table and again[1] is last
    # the same array changed in place keys a new table
    actions[0] = threshold_table(M, [(M + 1, None)])[0]
    actions[1, ::2] = Action.WIFI_THEN_3G
    assert_replay_equals_stepped(actions, policy, contacts, start)
    changed, changed_last = model._step_table(actions.tobytes(), *actions.shape)
    assert changed is not table and changed_last is not last
    np.testing.assert_array_equal(changed_last, changed[:, -1])


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
        np.testing.assert_array_equal(model._replay(actions, policy, contacts, start), expected)


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


def test_exact_sums_of_counts_past_the_count_split():
    # counts this large come only from very long replays: their 26-bit halves
    # keep every product exact, which shows where two large products cancel;
    # Fraction arithmetic rounds the exact sum once
    rng = np.random.default_rng(5)
    big = rng.integers(2**40, 2**52, 20)
    counts = np.column_stack((big, big - rng.integers(0, 1000, 20), rng.integers(0, 2**52, 20)))
    for values in (np.array([0.1, -0.1, 3.7e-9]), rng.uniform(-10, 10, 3)):
        expected = [float(sum(Fraction(int(c)) * Fraction(v) for c, v in zip(row, values)))
                    for row in counts]
        assert tracesim._exact_sums(counts, values) == expected
