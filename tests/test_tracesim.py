"""Trace parsing, contact statistics, policy replay against the independent
step oracle, trace-driven threshold search, corpus generation, and the
population simulator."""
import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agectl import (
    MASK_POLICY,
    ContactTrace,
    LearningConfig,
    Policy,
    SystemParams,
    TraceFormatError,
    UserAssignment,
    UtilityFunction,
    best_trace_threshold,
    comparison_table,
    consecutive_stats,
    estimate_p,
    expected_reward_threshold,
    generate_corpus,
    iid_trace,
    parse_trace_text,
    simulate_policy,
    simulate_population,
    trace_env,
)
from agectl.tracesim import UpdateSlots, dump_traces, replayed_average_reward

from conftest import make_rng, reference_replay, threshold_action


def linear_params(max_age=12, p=0.54, **kw):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=UtilityFunction.linear(max_age), **kw
    )


class TestParsing:
    def test_basic_line(self):
        traces = parse_trace_text("shiftA 10110\n")
        assert len(traces) == 1
        assert traces[0].shift_id == "shiftA"
        assert traces[0].slots == (1, 0, 1, 1, 0)
        assert traces[0].mask is None

    def test_mask_column(self):
        (trace,) = parse_trace_text("shiftB 10110 00100\n")
        assert trace.mask == (0, 0, 1, 0, 0)

    def test_comments_and_blanks_skipped(self):
        traces = parse_trace_text("# header\n\nshiftA 101\nshiftB 011\n")
        assert [t.shift_id for t in traces] == ["shiftA", "shiftB"]

    def test_invalid_character_reports_line(self):
        with pytest.raises(TraceFormatError, match="line 3") as err:
            parse_trace_text("a 101\nb 111\nc 10x10\n")
        assert err.value.line_no == 3

    def test_mask_length_mismatch(self):
        with pytest.raises(TraceFormatError, match="mask length"):
            parse_trace_text("a 101 01\n")

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            ContactTrace(shift_id="x", slots=())

    def test_dump_roundtrip(self):
        text = "a 10110 00100\nb 111\n"
        assert dump_traces(parse_trace_text(text)) == text

    @pytest.mark.parametrize("bits", [(1.0, 0.0, 1.0, 1.0), (1, 0.0), ("1", "0"), (0, 2), (1, -1),
                                      (np.float64(1.0),), (None,)])
    def test_non_integer_or_non_bit_values_rejected(self, bits):
        with pytest.raises(ValueError, match="slots must be 0/1"):
            ContactTrace("x", bits)
        with pytest.raises(ValueError, match="mask must be 0/1"):
            ContactTrace("x", (0,) * len(bits), mask=bits)

    @pytest.mark.parametrize("bits", [(True, False, True), (np.int64(1), np.uint8(0), 1),
                                      (np.True_, np.False_, np.True_)])
    def test_bool_and_numpy_integer_bits_accepted(self, bits):
        trace = ContactTrace("b", bits, mask=bits)
        assert trace.slot_bits.tolist() == trace.mask_bits.tolist() == [1, 0, 1]
        assert dump_traces([trace]) == "b 101 101\n"
        assert estimate_p(trace) == 2 / 3

    def test_stored_bits_are_read_only_copies_of_the_tuples(self):
        trace = ContactTrace("m", (1, 0, 0, 1, 1), mask=(0, 1, 0, 0, 1))
        for bits, values in ((trace.slot_bits, trace.slots), (trace.mask_bits, trace.mask)):
            assert bits.dtype == np.uint8 and bits.tolist() == list(values)
            assert not bits.flags.writeable
            with pytest.raises(ValueError):
                bits[0] = 0
        assert ContactTrace("s", (1, 0)).mask_bits is None

    def test_stored_bits_stay_out_of_equality_repr_and_pickles(self):
        trace = ContactTrace("m", (1, 0, 1), mask=(0, 0, 1))
        twin = ContactTrace("m", (1, 0, 1), mask=(0, 0, 1))
        assert trace == twin and hash(trace) == hash(twin)
        assert repr(trace) == "ContactTrace(shift_id='m', slots=(1, 0, 1), mask=(0, 0, 1))"
        assert "bits" not in pickle.dumps(trace).decode("latin-1")
        loaded = pickle.loads(pickle.dumps(trace))
        assert loaded == trace
        assert loaded.slot_bits.tolist() == [1, 0, 1] and not loaded.mask_bits.flags.writeable


class TestStatistics:
    def test_estimate_p(self):
        assert estimate_p(ContactTrace("x", (1, 0, 1, 1, 0))) == pytest.approx(0.6)
        assert estimate_p(ContactTrace("x", (0, 0, 0))) == 0.0

    def test_alternating_conditionals(self):
        stats = consecutive_stats(ContactTrace("x", (0, 1, 0, 1, 0, 1)))
        assert stats.no_contact_after_no_contact == 0.0
        assert stats.no_contact_after_contact == 1.0

    def test_absent_conditional(self):
        stats = consecutive_stats(ContactTrace("x", (0, 0, 0, 0, 0)))
        assert stats.no_contact_after_no_contact == 1.0
        assert stats.no_contact_after_contact is None

    def test_iid_trace_is_uncorrelated(self):
        trace = iid_trace(0.5, 10**5, seed=99)
        stats = consecutive_stats(trace)
        assert stats.no_contact_after_no_contact == pytest.approx(0.5, abs=0.02)
        assert stats.no_contact_after_contact == pytest.approx(0.5, abs=0.02)

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=50))
    def test_estimates_in_unit_interval(self, bits):
        trace = ContactTrace("h", tuple(bits))
        assert 0.0 <= estimate_p(trace) <= 1.0
        stats = consecutive_stats(trace)
        for value in (stats.no_contact_after_no_contact, stats.no_contact_after_contact):
            assert value is None or 0.0 <= value <= 1.0


class TestSimulatePolicy:
    def test_hand_stepped_example(self):
        # trace 101, linear M=3, free updates, threshold 1: rewards 2, 2, 1
        params = linear_params(max_age=3, p=0.5)
        result = simulate_policy(ContactTrace("x", (1, 0, 1)), params, Policy.from_thresholds(1, None, 3))
        assert result.total_reward == pytest.approx(5.0)
        assert tuple(result.update_slots) == (1, 3)
        assert result.updates == 2

    def test_always_inactive_from_saturated_age(self):
        params = linear_params()
        pol = Policy.from_thresholds(13, None, 12)
        result = simulate_policy(iid_trace(0.54, 500, seed=3), params, pol, start_age=12)
        assert result.total_reward == 0.0
        assert result.updates == 0

    def test_agrees_with_reference_oracle(self):
        rng = make_rng(71)
        for _ in range(25):
            params = linear_params(
                max_age=int(rng.integers(3, 10)),
                p=float(rng.uniform(0.2, 0.8)),
                scan_cost=float(rng.uniform(0, 2)),
                wifi_price=2.0,
                price_3g=7.0,
                bonus=float(rng.uniform(0, 2)),
            )
            s3 = int(rng.integers(1, params.max_age + 2))
            s = int(rng.integers(1, s3 + 1))
            slots = tuple(int(b) for b in rng.random(400) < 0.5)
            pol = Policy.from_thresholds(min(s, params.max_age + 1), s3, params.max_age)
            result = simulate_policy(ContactTrace("r", slots), params, pol)
            oracle = reference_replay(slots, params, threshold_action(s, s3))
            assert result.total_reward == pytest.approx(sum(oracle), abs=1e-9)

    def test_conservation_invariants(self):
        params = linear_params(scan_cost=0.7, wifi_price=3.0, price_3g=9.0, bonus=1.0)
        pol = Policy.from_thresholds(2, 6, 12)
        trace = iid_trace(0.4, 2000, seed=4)
        result = simulate_policy(trace, params, pol)
        assert result.updates == result.updates_wifi + result.updates_3g
        assert result.updates == len(result.update_slots)
        assert result.fees_paid == pytest.approx(
            result.updates_wifi * (3.0 - 1.0) + result.updates_3g * (9.0 - 1.0)
        )
        # energy = scan cost times active slots, recounted from the age path
        from agectl import next_age

        age, active = 1, 0
        action_at = threshold_action(2, 6)
        for e in trace.slots:
            a = action_at(age)
            active += a != 0
            age = next_age(age, a, e, params.max_age)
        assert result.energy_spent == pytest.approx(0.7 * active)
        assert result.average_reward == pytest.approx(result.total_reward / result.slots)

    def test_replay_is_deterministic(self):
        params = linear_params()
        trace = iid_trace(0.5, 1000, seed=5)
        pol = Policy.from_thresholds(3, None, 12)
        a = simulate_policy(trace, params, pol)
        b = simulate_policy(trace, params, pol)
        assert a == b

    def test_mask_policy(self):
        params = linear_params(max_age=3, p=0.5, scan_cost=0.25)
        trace = ContactTrace("m", (1, 1, 1, 0), mask=(0, 1, 0, 1))
        result = simulate_policy(trace, params, MASK_POLICY)
        # slots 2 and 4 active; update only at slot 2 (slot 4 has no contact)
        assert tuple(result.update_slots) == (2,)
        assert result.energy_spent == pytest.approx(0.5)

    def test_mask_policy_needs_mask(self):
        with pytest.raises(ValueError, match="mask"):
            simulate_policy(ContactTrace("x", (1, 0)), linear_params(max_age=2), MASK_POLICY)

    def test_ergodic_agreement_smoke(self):
        # acceptance covers the full grid; one cell here as a regression probe
        params = linear_params(scan_cost=0.99)
        trace = iid_trace(0.54, 200_000, seed=6)
        result = simulate_policy(trace, params, Policy.from_thresholds(4, None, 12))
        rewards = np.asarray(
            reference_replay(trace.slots, params, threshold_action(4))
        )
        se = rewards.std() / np.sqrt(len(rewards))
        assert abs(result.average_reward - expected_reward_threshold(params, 4)) < 3 * se


class TestUpdateSlots:
    """``SimResult.update_slots``: a read-only int64 sequence that hashes and
    compares by content.  ``test_replay`` checks its values against stepped
    replays of random traces and policies."""

    @staticmethod
    def replay():
        return simulate_policy(iid_trace(0.4, 3000, seed=8), linear_params(), Policy.from_thresholds(3, None, 12))

    @pytest.fixture
    def result(self):
        return self.replay()

    def test_equality_and_hash_follow_the_contents(self, result):
        slots = result.update_slots
        same = UpdateSlots(list(slots))
        assert slots == same and hash(slots) == hash(same)
        assert slots != UpdateSlots(list(slots)[:-1])
        assert slots != tuple(slots) and slots != list(slots)
        again = self.replay()
        assert again == result and hash(again) == hash(result)
        assert replace(result, update_slots=UpdateSlots(list(slots)[1:])) != result

    def test_indices_and_slices(self, result):
        slots, values = result.update_slots, np.asarray(result.update_slots).tolist()
        assert len(slots) == result.updates > 3
        assert slots[-1] == values[-1] and type(slots[-1]) is int
        assert [slots[i] for i in range(-len(slots), len(slots))] == values * 2
        assert slots[np.int64(2)] == values[2]
        for index in (len(slots), -len(slots) - 1):
            with pytest.raises(IndexError):
                slots[index]
        for part in (slice(1, 4), slice(None, None, -2), slice(5, 2), slice(-3, None)):
            assert isinstance(slots[part], UpdateSlots)
            assert list(slots[part]) == values[part]
        assert list(slots) == values and values[2] in slots

    def test_empty_result_is_falsy(self):
        params = linear_params()
        result = simulate_policy(iid_trace(0.54, 500, seed=3), params, Policy.from_thresholds(13, None, 12))
        assert not result.update_slots and len(result.update_slots) == 0
        assert result.update_slots == UpdateSlots() and np.asarray(result.update_slots).dtype == np.int64

    def test_array_is_shared_and_read_only(self, result):
        array = np.asarray(result.update_slots)
        assert array.dtype == np.int64 and np.shares_memory(array, np.asarray(result.update_slots))
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
        with pytest.raises(ValueError):
            array.flags.writeable = True
        assert np.asarray(result.update_slots, dtype=float).flags.writeable

    @pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_clones_stay_equal_and_read_only(self, result, clone):
        twin = clone(result)
        assert twin == result and hash(twin) == hash(result)
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(twin.update_slots)[0] = 0

    def test_input_is_copied_and_checked(self):
        source = np.array([2, 5, 9])
        slots = UpdateSlots(source)
        source[0] = 7
        assert list(slots) == [2, 5, 9]
        for bad in ([1.5], [[1, 2]], 3):
            with pytest.raises(TypeError):
                UpdateSlots(bad)


class TestBestTraceThreshold:
    def test_free_updates_want_threshold_one(self):
        params = linear_params(max_age=6, p=0.5)
        trace = ContactTrace("d", (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0))
        s, reward = best_trace_threshold(trace, params, replications=4)
        assert s == 1
        assert reward > 0

    def test_tracks_model_on_iid_traces(self):
        rng = make_rng(72)
        params = linear_params(scan_cost=0.2 * 11)  # b = 0.2
        close = 0
        n = 20
        from agectl import optimal_threshold

        s_model = optimal_threshold(params).s_star
        for i in range(n):
            trace = iid_trace(0.54, 600, seed=int(rng.integers(1, 2**31)))
            s_trace, _ = best_trace_threshold(trace, params, replications=8)
            close += abs(s_trace - s_model) <= 2
        assert close >= 0.6 * n  # within 2 in at least 60% of shifts

    def test_rotation_replications_change_nothing_on_constant_trace(self):
        params = linear_params(max_age=4, p=0.5)
        trace = ContactTrace("c", (1,) * 40)
        s, reward = best_trace_threshold(trace, params, replications=5)
        assert s == 1
        assert reward == pytest.approx(
            replayed_average_reward(trace, params, Policy.from_thresholds(1, None, 4), 1)
        )


class TestCorpusGenerator:
    def test_median_p_calibration(self):
        corpus = generate_corpus(200, seed=7)
        med = float(np.median([estimate_p(t) for t in corpus]))
        assert abs(med - 0.53) <= 0.02

    def test_shift_shapes(self):
        corpus = generate_corpus(30, seed=8)
        for trace in corpus:
            assert trace.mask is not None
            assert 4 * 8 <= len(trace) <= 10 * 16
            assert sum(trace.mask) >= 4  # one terminal visit per run
            # terminal slots are contact-rich
            term = [s for s, m in zip(trace.slots, trace.mask) if m]
            assert np.mean(term) > 0.6

    def test_seeded_reproducibility(self):
        a = generate_corpus(10, seed=9)
        b = generate_corpus(10, seed=9)
        assert a == b

    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_shifts=-1), "shifts"),
        (dict(median_p=2.0), "median_p"),
        (dict(median_p=-0.1), "median_p"),
        (dict(median_p=float("nan")), "median_p"),
        (dict(median_p=float("inf")), "median_p"),
        (dict(p_spread=-0.01), "p_spread"),
        (dict(p_spread=float("nan")), "p_spread"),
        (dict(p_spread=float("inf")), "p_spread"),
        (dict(runs_per_shift=(5, 4)), "runs_per_shift"),
        (dict(runs_per_shift=(0, 4)), "runs_per_shift"),
        (dict(run_slots=(16, 8)), "run_slots"),
        (dict(run_slots=(0, 0)), "run_slots"),
        (dict(terminal_contact_prob=1.5), "terminal_contact_prob"),
        (dict(terminal_contact_prob=float("nan")), "terminal_contact_prob"),
    ])
    def test_invalid_settings_rejected(self, kwargs, match):
        settings = {"n_shifts": 3, "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=match):
            generate_corpus(**settings)

    def test_edge_settings_accepted(self):
        assert generate_corpus(0, seed=1) == []
        corpus = generate_corpus(4, seed=2, median_p=0.0, p_spread=0.0, runs_per_shift=(1, 1),
                                 run_slots=(1, 1), terminal_contact_prob=1.0)
        assert [len(t) for t in corpus] == [1] * 4
        assert all(t.slots == t.mask == (1,) for t in corpus)


class TestPopulation:
    def test_identical_users_stay_synchronized(self):
        params = linear_params(max_age=6, p=0.5)
        trace = iid_trace(0.5, 300, seed=10, shift_id="bus")
        users = [UserAssignment(trace=trace, phase=0), UserAssignment(trace=trace, phase=0)]
        result = simulate_population(users, params, rounds=5, round_slots=40, record_ages=True)
        assert np.array_equal(result.age_history[0], result.age_history[1])
        assert result.users[0] == result.users[1]

    def test_single_user_rate_matches_chain(self):
        params = linear_params(scan_cost=0.99)
        trace = iid_trace(0.54, 120_000, seed=11)
        users = [UserAssignment(trace=trace)]
        result = simulate_population(users, params, rounds=1, round_slots=len(trace))
        from agectl import message_rate

        expected = message_rate(params, 1)
        observed = result.rounds[0].rate
        assert observed == pytest.approx(expected, rel=0.05)

    def test_controller_closes_the_loop(self):
        params = SystemParams(
            contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30),
            scan_cost=0.4, wifi_price=40.0,
        )
        rng = make_rng(73)
        traces = [iid_trace(0.54, 5000, seed=int(rng.integers(1, 2**31))) for _ in range(4)]
        users = [
            UserAssignment(trace=traces[i % 4], phase=137 * i) for i in range(20)
        ]
        controller = LearningConfig(
            max_bonus=40.0, target_rate=11.0, round_slots=100,
            learning_rate=1.0, initial_bonus=40.0, max_rounds=60,
        )
        result = simulate_population(users, params, rounds=60, round_slots=100, controller=controller)
        tail = [r.rate for r in result.rounds[-20:]]
        assert np.mean(tail) <= 11.0 + 0.75
        assert result.rounds[-1].bonus >= 35.0  # full sponsorship regime

    def test_zero_round_slots_rejected(self):
        users = [UserAssignment(trace=iid_trace(0.5, 50, seed=1))]
        with pytest.raises(ValueError, match="round_slots"):
            simulate_population(users, linear_params(max_age=6), rounds=3, round_slots=0)

    @pytest.mark.parametrize("record_ages", [False, True])
    def test_negative_rounds_rejected(self, record_ages):
        users = [UserAssignment(trace=iid_trace(0.5, 50, seed=1))]
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            simulate_population(users, linear_params(max_age=6), rounds=-3, round_slots=10,
                                record_ages=record_ages)

    def test_zero_rounds_keep_the_start_state(self):
        users = [UserAssignment(trace=iid_trace(0.5, 50, seed=1), start_age=4)]
        result = simulate_population(users, linear_params(max_age=6), rounds=0, round_slots=10,
                                     record_ages=True)
        assert result.rounds == []
        assert [(u.updates, u.total_reward, u.final_age) for u in result.users] == [(0, 0.0, 4)]
        assert result.age_history.shape == (1, 0)

    def test_trace_env_needs_users(self):
        with pytest.raises(ValueError, match="at least one user"):
            trace_env([], linear_params(max_age=6), round_slots=10)

    @pytest.mark.parametrize("start_age", [0, 7, 9])
    def test_start_age_outside_ages_rejected(self, start_age):
        # at M = 6, start_age 0 used to replay as age M and 9 to raise IndexError
        users = [UserAssignment(trace=ContactTrace("x", (1, 0, 1, 1)), start_age=start_age)]
        params = linear_params(max_age=6)
        with pytest.raises(ValueError, match="start age"):
            simulate_population(users, params, rounds=2, round_slots=4)
        with pytest.raises(ValueError, match="start age"):
            trace_env(users, params, round_slots=4)

    def test_trace_env_rejects_non_finite_bonus(self):
        env = trace_env([UserAssignment(trace=iid_trace(0.5, 50, seed=1))], linear_params(), 10)
        with pytest.raises(ValueError, match="finite"):
            env(float("nan"))

    def test_trace_env_interface(self):
        params = linear_params(scan_cost=0.99)
        trace = iid_trace(0.54, 2000, seed=12)
        env = trace_env([UserAssignment(trace=trace)], params, round_slots=50)
        served = env(0.0)
        assert 0 <= served <= 50


class TestComparisonTable:
    def test_columns_and_model_consistency(self):
        params = linear_params(scan_cost=0.2 * 11)
        corpus = generate_corpus(6, seed=13)
        rows = comparison_table(corpus, params, replications=4)
        assert len(rows) == 6
        for row in rows:
            shift_id, p_hat, s_trace, s_model, r_trace, r_model, r_policy = row
            assert 0.0 <= p_hat <= 1.0
            assert 1 <= s_trace <= 13 and 1 <= s_model <= 13
            assert r_trace >= r_policy - 1e-9  # trace optimum dominates by construction
