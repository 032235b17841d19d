"""Bonus controller: projected step arithmetic, stopping, convergence into the
publisher's optimal interval, and trajectory export."""
import numpy as np
import pytest

from agectl import (
    LearningConfig,
    PublisherInstance,
    chain_sim_env,
    convergence_report,
    expected_rate_env,
    learning_step,
    optimal_bonus,
    run_learning,
)
from agectl.learning import preset, run_population_drop

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

    def test_csv_export(self):
        traj = run_learning(lambda b: 500.0, config(max_rounds=3))
        lines = traj.to_csv().strip().splitlines()
        assert lines[0] == "round,bonus,requests,rate"
        assert lines[1].startswith("1,0,500,5")


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
