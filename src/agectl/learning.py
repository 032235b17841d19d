"""Online bonus controller: projected stochastic approximation driving the
observed per-slot request rate toward the publisher's target, without
knowledge of the population size or user strategies.

The environment is a single callable bonus -> served requests per round, so
the same controller runs against closed-form rates, a seeded chain simulator,
or recorded traces.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import thresholds
from .model import SystemParams, UtilityFunction

RoundEnv = Callable[[float], float]  # bonus in effect -> requests served that round


@dataclass(frozen=True)
class LearningConfig:
    max_bonus: float        # projection ceiling B-hat
    target_rate: float      # desired messages per slot
    round_slots: int        # slots per round (tau)
    learning_rate: float = 1.0
    tolerance: float = 1e-9  # stop once |target - rate| falls inside
    initial_bonus: float = 0.0
    max_rounds: int = 500

    def __post_init__(self) -> None:
        reals = (self.max_bonus, self.target_rate, self.learning_rate, self.tolerance,
                 self.initial_bonus)
        if not all(math.isfinite(x) for x in reals):
            raise ValueError(f"learning settings must be finite, got {self}")
        if not 0.0 <= self.initial_bonus <= self.max_bonus:
            raise ValueError("initial bonus must lie in [0, max_bonus]")
        if self.round_slots < 1:
            raise ValueError("round_slots must be >= 1")
        if self.learning_rate <= 0 or self.tolerance <= 0:
            raise ValueError("learning rate and tolerance must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(frozen=True)
class Round:
    index: int      # 1-based round counter (the 1/t step-size clock)
    bonus: float
    served: float
    rate: float


@dataclass
class LearningTrajectory:
    rounds: list[Round] = field(default_factory=list)
    converged: bool = False
    final_bonus: float = 0.0

    @property
    def bonuses(self) -> list[float]:
        return [r.bonus for r in self.rounds]

    @property
    def rates(self) -> list[float]:
        return [r.rate for r in self.rounds]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("round,bonus,requests,rate\n")
        for r in self.rounds:
            buf.write(f"{r.index},{r.bonus:.10g},{r.served:.10g},{r.rate:.10g}\n")
        return buf.getvalue()


def learning_step(round_index: int, bonus: float, rate: float, config: LearningConfig) -> float:
    """One projected correction: B + alpha * (T - Q) / t, clamped into [0, B-hat].

    Rounds are indexed from 1 so the 1/t step size is always defined.
    """
    if round_index < 1:
        raise ValueError("round index starts at 1")
    if not 0.0 <= bonus <= config.max_bonus:
        raise ValueError(f"bonus {bonus} outside [0, {config.max_bonus}]")
    step = config.learning_rate * (config.target_rate - rate) / round_index
    return min(config.max_bonus, max(0.0, bonus + step))


def run_learning(env: RoundEnv, config: LearningConfig) -> LearningTrajectory:
    """Drive the controller until the rate settles within tolerance or rounds
    run out.  Exhausting ``max_rounds`` is recorded as ``converged=False``;
    the trajectory keeps every round either way.
    """
    traj = LearningTrajectory()
    bonus = config.initial_bonus
    for t in range(1, config.max_rounds + 1):
        served = float(env(bonus))
        rate = served / config.round_slots
        traj.rounds.append(Round(index=t, bonus=bonus, served=served, rate=rate))
        if abs(config.target_rate - rate) <= config.tolerance:
            traj.converged = True
            break
        bonus = learning_step(t, bonus, rate, config)
    traj.final_bonus = traj.rounds[-1].bonus
    return traj


@dataclass(frozen=True)
class ConvergenceReport:
    entry_round: int | None   # first round from which the bonus stays in range
    tail_rate_lo: float
    tail_rate_hi: float


def convergence_report(
    traj: LearningTrajectory, bonus_range: tuple[float, float]
) -> ConvergenceReport:
    """First round at which the bonus enters the optimal range and never
    leaves, plus the oscillation band of the rate over the tail (post-entry
    rounds, or the final quarter when the range is never reached)."""
    lo, hi = bonus_range
    entry = None
    for i in range(len(traj.rounds) - 1, -1, -1):
        if lo <= traj.rounds[i].bonus <= hi:
            entry = traj.rounds[i].index
        else:
            break
    if entry is not None:
        tail = [r.rate for r in traj.rounds if r.index >= entry]
    else:
        tail = [r.rate for r in traj.rounds[-max(1, len(traj.rounds) // 4) :]]
    return ConvergenceReport(
        entry_round=entry, tail_rate_lo=min(tail), tail_rate_hi=max(tail)
    )


# --- environments ---------------------------------------------------------------------

def expected_rate_env(params: SystemParams, n_users: int, round_slots: int) -> RoundEnv:
    """Noise-free analytic environment: served requests equal the closed-form
    chain rate for the threshold users pick at the current bonus."""
    q_over_p = (1.0 - params.contact_prob) / params.contact_prob
    never = params.max_age + 1

    def env(bonus: float) -> float:
        s = int(thresholds.threshold_response(params, [bonus])[0])
        if s == never:
            return 0.0
        return round_slots * n_users / (s + q_over_p)

    return env


def chain_sim_env(
    params: SystemParams,
    n_users: int,
    round_slots: int,
    rng: np.random.Generator,
) -> RoundEnv:
    """Seeded stochastic environment: users draw i.i.d. WiFi contacts each slot,
    best-respond with the threshold for the current bonus, and carry their ages
    across rounds.  WiFi-only (the learning experiments never use 3G).
    """
    ages = np.ones(n_users, dtype=int)
    p = params.contact_prob
    max_age = params.max_age

    def env(bonus: float) -> float:
        nonlocal ages
        s = int(thresholds.threshold_response(params, [bonus])[0])
        served = 0
        for _ in range(round_slots):
            active = ages >= s
            contacts = rng.random(n_users) < p
            updates = active & contacts
            served += int(updates.sum())
            ages = np.where(updates, 1, np.minimum(ages + 1, max_age))
        return float(served)

    return env


# --- experiment presets ---------------------------------------------------------------
#
# Two parameterizations ship as named presets; neither is privileged.  The
# population drop (n_after at drop_round) restarts the 1/t clock, mirroring a
# publisher that reruns the estimation after a detected regime change.

@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    params: SystemParams
    config: LearningConfig
    n_initial: int
    n_after: int
    drop_round: int
    total_rounds: int


def _linear_params(max_age: int, scan_cost: float, price: float, bonus: float = 0.0) -> SystemParams:
    return SystemParams(
        contact_prob=0.54,
        max_age=max_age,
        utility=UtilityFunction.linear(max_age),
        scan_cost=scan_cost,
        wifi_price=price,
        bonus=bonus,
    )


def preset(name: str) -> ExperimentPreset:
    if name == "long-rounds":
        return ExperimentPreset(
            name=name,
            params=_linear_params(30, 0.4, 40.0),
            config=LearningConfig(
                max_bonus=40.0, target_rate=11.0, round_slots=100,
                learning_rate=1.0, max_rounds=200,
            ),
            n_initial=50, n_after=20, drop_round=200, total_rounds=400,
        )
    if name == "short-rounds":
        return ExperimentPreset(
            name=name,
            params=_linear_params(30, 0.4, 100.0),
            config=LearningConfig(
                max_bonus=100.0, target_rate=11.0, round_slots=10,
                learning_rate=10.0, max_rounds=100,
            ),
            n_initial=105, n_after=90, drop_round=100, total_rounds=200,
        )
    if name == "short-rounds-iid":
        return ExperimentPreset(
            name=name,
            params=_linear_params(30, 0.4, 100.0),
            config=LearningConfig(
                max_bonus=100.0, target_rate=11.0, round_slots=10,
                learning_rate=20.0, max_rounds=100,
            ),
            n_initial=105, n_after=90, drop_round=100, total_rounds=200,
        )
    raise ValueError(f"unknown preset {name!r}; choose long-rounds, short-rounds, short-rounds-iid")


PRESET_NAMES = ("long-rounds", "short-rounds", "short-rounds-iid")


def run_population_drop(
    exp: ExperimentPreset,
    env_factory: Callable[[int], RoundEnv],
    initial_bonus: float | None = None,
) -> tuple[LearningTrajectory, LearningTrajectory]:
    """Run the controller through a population drop, restarting the step-size
    clock at the drop.  ``env_factory`` maps a population size to an env; the
    second segment starts from the bonus the first one reached."""
    cfg1 = replace(
        exp.config,
        max_rounds=exp.drop_round,
        initial_bonus=exp.config.initial_bonus if initial_bonus is None else initial_bonus,
    )
    first = run_learning(env_factory(exp.n_initial), cfg1)
    cfg2 = replace(
        exp.config,
        max_rounds=exp.total_rounds - exp.drop_round,
        initial_bonus=first.final_bonus,
    )
    second = run_learning(env_factory(exp.n_after), cfg2)
    return first, second
