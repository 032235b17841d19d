"""Bonus controller: projected step arithmetic, stopping, convergence into the
publisher's optimal interval, trajectory export, and the controller loops'
bonuses against the public step, and the round record."""
import dataclasses
import inspect
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from agectl import (
    ContactTrace,
    LearningConfig,
    PublisherInstance,
    SystemParams,
    UserAssignment,
    UtilityFunction,
    chain_sim_env,
    convergence_report,
    expected_rate_env,
    learning_step,
    optimal_bonus,
    run_learning,
    simulate_population,
    threshold_response,
    trace_env,
)
from agectl import learning, thresholds
from agectl.learning import PRESET_NAMES, ExperimentPreset, Round, preset, run_population_drop

from conftest import make_rng


def config(**kw):
    defaults = dict(
        max_bonus=40.0, target_rate=11.0, round_slots=100, learning_rate=1.0,
        tolerance=1e-9, initial_bonus=0.0, max_rounds=200,
    )
    defaults.update(kw)
    return LearningConfig(**defaults)


class TestConfig:
    @pytest.mark.parametrize("field", ["target_rate", "learning_rate", "tolerance", "max_bonus"])
    def test_non_finite_setting_rejected(self, field):
        with pytest.raises(ValueError):
            config(**{field: float("nan")})


class TestLearningStep:
    def test_zero_correction_at_target(self):
        cfg = config()
        assert learning_step(5, 10.0, 11.0, cfg) == 10.0

    def test_step_arithmetic(self):
        cfg = config()
        assert learning_step(1, 10.0, 5.0, cfg) == pytest.approx(16.0)
        assert learning_step(2, 10.0, 5.0, cfg) == pytest.approx(13.0)

    def test_upper_clamp(self):
        cfg = config()
        assert learning_step(1, 40.0, 5.0, cfg) == 40.0

    def test_lower_clamp(self):
        cfg = config()
        assert learning_step(1, 0.5, 30.0, cfg) == 0.0

    def test_corrections_shrink_like_one_over_t(self):
        cfg = config()
        for t in range(1, 50):
            delta = abs(learning_step(t, 20.0, 8.0, cfg) - 20.0)
            assert delta <= cfg.learning_rate * cfg.target_rate / t + 1e-12

    def test_round_index_starts_at_one(self):
        with pytest.raises(ValueError):
            learning_step(0, 1.0, 1.0, config())


class TestRunLearning:
    def test_huge_tolerance_stops_after_one_round(self):
        traj = run_learning(lambda b: 0.0, config(tolerance=1e9))
        assert len(traj.rounds) == 1
        assert traj.converged

    def test_projection_invariant(self):
        rng = make_rng(61)
        noisy = lambda b: float(rng.uniform(0, 4000))
        traj = run_learning(noisy, config(max_rounds=300))
        assert all(0.0 <= r.bonus <= 40.0 for r in traj.rounds)

    def test_max_rounds_exhaustion_is_not_convergence(self):
        traj = run_learning(lambda b: 0.0, config(max_rounds=10))
        assert not traj.converged
        assert len(traj.rounds) == 10

    def test_round_is_the_frozen_dataclass_of_its_four_fields(self):
        # Round must stay what the dataclass decorator alone makes of its fields
        @dataclasses.dataclass(frozen=True)
        class Plain:
            index: int
            bonus: float
            served: float
            rate: float

        r, plain = Round(3, 1.5, 20.0, 0.2), Plain(3, 1.5, 20.0, 0.2)
        assert [f.name for f in dataclasses.fields(Round)] == ["index", "bonus", "served", "rate"]
        assert list(inspect.signature(Round).parameters) == list(inspect.signature(Plain).parameters)
        assert vars(r) == vars(plain) and repr(r) == "Round(index=3, bonus=1.5, served=20.0, rate=0.2)"
        assert r == Round(index=3, bonus=1.5, served=20.0, rate=0.2) and hash(r) == hash(plain)
        assert r != Round(3, 1.5, 20.0, 0.3) and r != plain
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.bonus = 2.0
        assert dataclasses.replace(r, served=21.0) == Round(3, 1.5, 21.0, 0.2)
        assert pickle.loads(pickle.dumps(r)) == r and dataclasses.astuple(r) == (3, 1.5, 20.0, 0.2)

    def test_csv_export(self):
        traj = run_learning(lambda b: 500.0, config(max_rounds=3))
        lines = traj.to_csv().strip().splitlines()
        assert lines[0] == "round,bonus,requests,rate"
        assert lines[1].startswith("1,0,500,5")


def stepped_bonuses(rounds, cfg):
    """The bonus of each round by a loop over the public ``learning_step``
    on the rounds' rates, from the configured initial bonus."""
    bonuses = [cfg.initial_bonus]
    for r in rounds[:-1]:
        bonuses.append(learning_step(r.index, bonuses[-1], r.rate, cfg))
    return bonuses


def bits_of(values):
    return [float(v).hex() for v in values]


# the served counts: hypothesis picks an index into this list each round, so
# large and small learning rates meet rates far on both sides of the target
SERVED = (0.0, 3.0, 550.0, 1099.0, 1101.0, 1650.0, 4000.0)


class TestControllerLoops:
    @given(st.sampled_from([1e-6, 0.01, 1.0, 7.5, 1e3, 1e9]), st.floats(0, 40),
           st.lists(st.integers(0, len(SERVED) - 1), min_size=1, max_size=30))
    # clamped at max_bonus, then at 0, then at max_bonus again
    @example(1e3, 20.0, [0, 6, 0, 5, 1])
    @example(1e-6, 0.0, [6, 6, 0])
    def test_run_learning_bonuses_are_learning_steps(self, alpha, initial, picks):
        cfg = config(learning_rate=alpha, initial_bonus=initial, max_rounds=len(picks))
        feed = iter(SERVED[i] for i in picks)
        traj = run_learning(lambda bonus: next(feed), cfg)
        bonuses = [r.bonus for r in traj.rounds]
        assert bits_of(bonuses) == bits_of(stepped_bonuses(traj.rounds, cfg))
        assert [r.served for r in traj.rounds] == [SERVED[i] for i in picks[:len(traj.rounds)]]
        assert [r.rate for r in traj.rounds] == [r.served / cfg.round_slots for r in traj.rounds]
        assert all(0.0 <= b <= cfg.max_bonus for b in bonuses)

    @pytest.mark.parametrize("alpha, initial, picks, clamps", [
        (1e3, 20.0, [0, 6, 0, 5, 1], {0.0, 40.0}),
        (1e9, 0.0, [6, 0, 6], {0.0, 40.0}),
        (1e-6, 0.0, [6, 6, 0], {0.0}),
    ])
    def test_clamped_bonuses_are_learning_steps(self, alpha, initial, picks, clamps):
        # the property's examples do reach the clamps they are there for
        cfg = config(learning_rate=alpha, initial_bonus=initial, max_rounds=len(picks))
        feed = iter(SERVED[i] for i in picks)
        traj = run_learning(lambda bonus: next(feed), cfg)
        bonuses = [r.bonus for r in traj.rounds]
        assert clamps <= set(bonuses[1:])
        assert bits_of(bonuses) == bits_of(stepped_bonuses(traj.rounds, cfg))

    @given(st.sampled_from([1e-6, 0.5, 5.0, 1e4]), st.floats(0, 6), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_population_bonuses_are_learning_steps(self, alpha, initial, rounds, seed):
        rng = make_rng(seed)
        params = SystemParams(contact_prob=0.5, max_age=12, utility=UtilityFunction.linear(12),
                              scan_cost=0.3, wifi_price=6.0)
        users = [UserAssignment(ContactTrace(f"u{i}", tuple(int(b) for b in rng.random(30) < 0.5)),
                                phase=int(rng.integers(0, 30))) for i in range(4)]
        cfg = LearningConfig(max_bonus=6.0, target_rate=0.6, round_slots=9, learning_rate=alpha,
                             initial_bonus=initial)
        result = simulate_population(users, params, rounds, 9, controller=cfg)
        assert bits_of(r.bonus for r in result.rounds) == bits_of(stepped_bonuses(result.rounds, cfg))


class TestConvergence:
    def exp_setup(self, n_users):
        exp = preset("long-rounds")
        inst = PublisherInstance(params=exp.params, n_users=n_users, rate_cap=11.0)
        return exp, optimal_bonus(inst)

    def test_deterministic_env_reaches_optimal_interval(self):
        exp, solution = self.exp_setup(50)
        env = expected_rate_env(exp.params, 50, exp.config.round_slots)
        traj = run_learning(env, config(initial_bonus=40.0, max_rounds=200))
        report = convergence_report(traj, (solution.bonus_lo, solution.bonus_hi))
        assert report.entry_round is not None
        assert report.entry_round <= 20
        assert solution.bonus_lo <= traj.final_bonus <= solution.bonus_hi

    def test_chain_env_enters_and_stays(self):
        exp, solution = self.exp_setup(50)
        for seed in range(5):
            env = chain_sim_env(exp.params, 50, exp.config.round_slots, make_rng(700 + seed))
            traj = run_learning(env, config(initial_bonus=40.0, max_rounds=120))
            report = convergence_report(traj, (solution.bonus_lo, solution.bonus_hi))
            assert report.entry_round is not None and report.entry_round <= 25
            # already inside from entry + 5 on (the report scans backwards)
            assert all(
                solution.bonus_lo <= r.bonus <= solution.bonus_hi
                for r in traj.rounds
                if r.index >= report.entry_round
            )
            assert report.tail_rate_hi <= 11.0 + 3 * 0.1 + 0.5  # slack for noise

    def test_population_drop_reaches_full_sponsorship(self):
        exp = preset("long-rounds")
        _, sol20 = self.exp_setup(20)
        env_factory = lambda n: expected_rate_env(exp.params, n, exp.config.round_slots)
        first, second = run_population_drop(exp, env_factory, initial_bonus=40.0)
        assert len(first.rounds) == exp.drop_round
        report = convergence_report(second, (sol20.bonus_lo, sol20.bonus_hi))
        assert report.entry_round is not None and report.entry_round <= 20
        assert second.final_bonus == pytest.approx(40.0, abs=1.2)  # B -> P

    def test_report_when_range_never_entered(self):
        # starved env: the bonus ramps 0 -> 11 -> 16.5 ... and skips (10, 10.5)
        traj = run_learning(lambda b: 0.0, config(max_rounds=20))
        report = convergence_report(traj, (10.0, 10.5))
        assert report.entry_round is None


class TestEnvironments:
    @pytest.mark.parametrize("n_users", [0, -3])
    def test_population_size_must_be_positive(self, n_users):
        params = preset("long-rounds").params
        with pytest.raises(ValueError, match="at least one user"):
            expected_rate_env(params, n_users, 100)
        with pytest.raises(ValueError, match="at least one user"):
            chain_sim_env(params, n_users, 100, make_rng(1))

    @pytest.mark.parametrize("bonus", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_bonus_rejected(self, bonus):
        params = preset("long-rounds").params
        for env in (expected_rate_env(params, 5, 10), chain_sim_env(params, 5, 10, make_rng(1))):
            with pytest.raises(ValueError, match="finite"):
                env(bonus)

    @pytest.mark.parametrize("params", [*(preset(name).params for name in PRESET_NAMES),
                                        # a flat step: its edges at 35.74 merge within TIE_TOL
                                        SystemParams(contact_prob=0.54, max_age=30,
                                                     utility=UtilityFunction.step(1.0, 5, 30),
                                                     scan_cost=0.4, wifi_price=40.0)],
                             ids=[*PRESET_NAMES, "flat-step"])
    def test_env_response_is_threshold_response_at_every_edge(self, params):
        # the envs' scalar s*(B) on each finite edge in [0, P], the float on
        # either side of it, +-0.0 and P
        edges = thresholds.bonus_edges(params)
        price = params.wifi_price
        inside = edges[np.isfinite(edges) & (edges >= 0) & (edges <= price)]
        assert inside.size
        bonuses = [0.0, -0.0, price, *(float(b) for edge in inside
                                       for b in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)))]
        response = learning._env_response(params, 1, 1)
        got = [response(b) for b in bonuses]
        assert all(type(s) is int for s in got)
        assert got == threshold_response(params, bonuses).tolist()
        if params.utility.form == "step":
            assert len(set(inside.tolist())) < inside.size

    def test_envs_hold_only_the_rows_of_the_thresholds_they_meet(self):
        # an (M + 1) x M table of every threshold's actions would take 77 MiB
        M = 9000
        params = SystemParams(contact_prob=0.54, max_age=M, utility=UtilityFunction.linear(M),
                              scan_cost=0.4, wifi_price=40.0)
        trace = ContactTrace("t", tuple(int(b) for b in make_rng(2).random(50) < 0.5))
        tracemalloc.start()
        try:
            users = [UserAssignment(trace, phase=i) for i in range(5)]
            for env in (chain_sim_env(params, 5, 10, make_rng(1)), trace_env(users, params, 10)):
                env(1.0), env(30.0)   # thresholds 8 and 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestPresets:
    def test_known_names(self):
        for name in ("long-rounds", "short-rounds", "short-rounds-iid"):
            exp = preset(name)
            assert exp.config.target_rate == 11.0
        with pytest.raises(ValueError):
            preset("nope")

    def test_main_text_parameterization(self):
        exp = preset("long-rounds")
        assert exp.params.scan_cost == 0.4
        assert exp.params.wifi_price == 40.0
        assert exp.config.round_slots == 100
        assert exp.config.learning_rate == 1.0
        assert (exp.n_initial, exp.n_after, exp.drop_round) == (50, 20, 200)

    @pytest.mark.parametrize("name, price, tau, alpha, max_rounds, n_initial, n_after, drop, total", [
        ("long-rounds", 40.0, 100, 1.0, 200, 50, 20, 200, 400),
        ("short-rounds", 100.0, 10, 10.0, 100, 105, 90, 100, 200),
        ("short-rounds-iid", 100.0, 10, 20.0, 100, 105, 90, 100, 200),
    ])
    def test_preset_fields(self, name, price, tau, alpha, max_rounds, n_initial, n_after, drop,
                           total):
        # every field spelled out: the learn digests cover only long-rounds, so
        # an edit to the preset table must not change a short-round preset unseen
        expected = ExperimentPreset(
            name=name,
            params=SystemParams(
                contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30),
                scan_cost=0.4, wifi_price=price, price_3g=None, bonus=0.0,
            ),
            config=LearningConfig(
                max_bonus=price, target_rate=11.0, round_slots=tau, learning_rate=alpha,
                tolerance=1e-9, initial_bonus=0.0, max_rounds=max_rounds,
            ),
            n_initial=n_initial, n_after=n_after, drop_round=drop, total_rounds=total,
        )
        assert preset(name) == expected
        assert preset(name).params.utility.values == tuple(float(29 - i) for i in range(30))

    def test_preset_names_in_order(self):
        assert PRESET_NAMES == ("long-rounds", "short-rounds", "short-rounds-iid")
        with pytest.raises(ValueError, match="choose long-rounds, short-rounds, short-rounds-iid$"):
            preset("nope")


@pytest.mark.parametrize("call, message", [
    (lambda: LearningConfig(max_bonus=1.0, target_rate=0.5, round_slots=10, initial_bonus=2.0),
     "initial bonus 2.0 outside [0, 1.0]"),
    (lambda: LearningConfig(max_bonus=1.0, target_rate=0.5, round_slots=0), "round_slots must be >= 1, got 0"),
    (lambda: LearningConfig(max_bonus=1.0, target_rate=0.5, round_slots=10, learning_rate=0.0),
     "learning rate and tolerance must be positive, got 0.0 and 1e-09"),
    (lambda: LearningConfig(max_bonus=1.0, target_rate=0.5, round_slots=10, tolerance=-1.0),
     "learning rate and tolerance must be positive, got 1.0 and -1.0"),
    (lambda: LearningConfig(max_bonus=1.0, target_rate=0.5, round_slots=10, max_rounds=0),
     "max_rounds must be >= 1, got 0"),
    (lambda: learning_step(1, 1.5, 0.3, LearningConfig(max_bonus=1.0, target_rate=0.5, round_slots=10)),
     "bonus 1.5 outside [0, 1.0]"),
], ids=["initial-bonus", "round-slots", "learning-rate", "tolerance", "max-rounds", "step-bonus"])
def test_input_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
