"""Online bonus controller: projected stochastic approximation driving the
observed per-slot request rate toward the publisher's target, without
knowledge of the population size or user strategies.

The environment is a single callable bonus -> served requests per round, so
the same controller runs against closed-form rates, a seeded chain simulator,
or recorded traces.  Each environment lists the bonus edges once and reads
every round's threshold off them by bisection; the simulated ones also look
each threshold's step table up once, on its first round
(``_ThresholdTables``), and replay a round of all their users as the rows
of one walk of the replay kernel (``replay``), which builds no age matrix.
The chain env makes its packed draw into the walk's codes
(``replay._round_codes``); the trace env gathers them from the codes its
population built once (``tracesim._Cohort``).

``run_learning`` and the population loop of ``tracesim.simulate_population``
take every round's correction through ``learning_step``, so each loop's
bonuses are the public step's.
"""
from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import chain, model, replay, thresholds
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
            raise ValueError(f"initial bonus {self.initial_bonus} outside [0, {self.max_bonus}]")
        if self.round_slots < 1:
            raise ValueError(f"round_slots must be >= 1, got {self.round_slots}")
        if self.learning_rate <= 0 or self.tolerance <= 0:
            raise ValueError("learning rate and tolerance must be positive, "
                             f"got {self.learning_rate} and {self.tolerance}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")


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
    bonus, rounds = config.initial_bonus, traj.rounds
    for t in range(1, config.max_rounds + 1):
        served = float(env(bonus))
        rate = served / config.round_slots
        rounds.append(Round(t, bonus, served, rate))
        if abs(config.target_rate - rate) <= config.tolerance:
            traj.converged = True
            break
        bonus = learning_step(t, bonus, rate, config)
    traj.final_bonus = rounds[-1].bonus
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

def _env_response(params: SystemParams, n_users: int, round_slots: int) -> Callable[[float], int]:
    """Check a population env's size, and return s*(B) for one bonus at a time
    by the rule of ``thresholds.bonus_edges``, from edges computed once and
    listed in ascending order, with no numpy call per bonus.
    A round's user-slots must fit a float, as the served counts are floats."""
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    if round_slots < 1:
        raise ValueError(f"round_slots must be >= 1, got {round_slots}")
    if n_users * round_slots > sys.float_info.max:
        raise ValueError(f"population too large: {round_slots}-slot rounds of {n_users} users"
                         " pass the float range")
    ascending = thresholds.bonus_edges(params)[::-1].tolist()

    def response(bonus: float) -> int:
        if not math.isfinite(bonus):
            raise ValueError(f"bonus must be finite, got {bonus}")
        return thresholds._threshold_at_scalar(ascending, bonus)

    return response


def _threshold_actions(max_age: int) -> np.ndarray:
    """The uint8 per-age action table of every threshold: row s - 1 is WiFi
    from age s on, s in [1, max_age + 1]."""
    ages = np.arange(1, max_age + 1)
    return (ages >= np.arange(1, max_age + 2)[:, None]).astype(np.uint8)


class _ThresholdTables(dict):
    """Threshold s -> the step table (``replay._Steps``) of its action row
    alone, built and looked up on its first use and then held, so that a
    population env looks each threshold's table up once and holds no other
    threshold's row."""

    def __init__(self, max_age: int):
        super().__init__()
        self.ages = np.arange(1, max_age + 1)

    def __missing__(self, s: int) -> replay._Steps:
        steps = self[s] = replay._tables(self.ages[None] >= s)
        return steps


def expected_rate_env(params: SystemParams, n_users: int, round_slots: int) -> RoundEnv:
    """Noise-free analytic environment: served requests are the round's user-slots
    over the mean cycle (:func:`chain.cycle_lengths`) of the threshold users
    pick at the current bonus, so always-inactive users serve none."""
    response = _env_response(params, n_users, round_slots)
    served = [round_slots * n_users / length
              for length in chain.cycle_lengths(params.contact_prob, params.max_age).tolist()]

    def env(bonus: float) -> float:
        return served[response(bonus) - 1]

    return env


def chain_sim_env(
    params: SystemParams,
    n_users: int,
    round_slots: int,
    rng: np.random.Generator,
) -> RoundEnv:
    """Seeded stochastic environment: users draw i.i.d. WiFi contacts each slot,
    best-respond with the threshold for the current bonus, and carry their ages
    across rounds.  WiFi-only (the learning experiments never use 3G).  A
    round's contacts come from one (slots, users) draw, the same numbers as
    one ``rng.random(n_users)`` per slot, made into a buffer held across
    rounds whose slots past the round's end never see a contact.  Each
    user's 8 slots of a byte are compared side by side, so one flat
    ``np.packbits`` packs the round, whose bytes ``replay._round_codes``
    makes into the walk's codes.  A threshold policy updates only on a
    contact, so the round's updates are its steps' cached counts of 1s, all
    of them.
    """
    response, tables = _env_response(params, n_users, round_slots), _ThresholdTables(params.max_age)
    M, p = params.max_age, params.contact_prob
    slots = -(-round_slots // 8) * 8   # whole bytes
    uniform = np.full((slots, n_users), np.inf)   # the round's draw, then slots without a contact
    draw, by_byte = uniform[:round_slots], uniform.reshape(-1, 8, n_users)
    contacts = np.empty((slots // 8, n_users, 8), bool)   # a byte's 8 slots of each user side by side
    by_user = contacts.transpose(0, 2, 1)
    ages = np.ones(n_users, dtype=int)

    def env(bonus: float) -> float:
        nonlocal ages
        steps = tables[response(bonus)]
        rng.random(out=draw)
        np.less(by_byte, p, out=by_user)
        packed = np.packbits(contacts, axis=None, bitorder="little").reshape(-1, n_users)
        code, ages = replay._walk_codes(steps, replay._round_codes(packed, M, round_slots), round_slots, ages)
        return float(steps.ones.take(code, mode="clip").sum())

    return env


# --- experiment presets ---------------------------------------------------------------
#
# Two parameterizations ship as named presets; neither is privileged.  Every
# preset shares p = 0.54, M = 30, linear utility, G = 0.4 and a target of 11
# messages per slot.  A row holds only what differs: the WiFi price P, which is
# also the projection ceiling B-hat; the slots per round; the learning rate;
# the rounds per segment; and the users before and after the drop.  A run is
# two segments, and the population drop ends the first.  The drop restarts the
# 1/t clock, mirroring a publisher that reruns the estimation after a detected
# regime change.

@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    params: SystemParams
    config: LearningConfig
    n_initial: int
    n_after: int
    drop_round: int
    total_rounds: int


_PRESETS = {
    "long-rounds": dict(price=40.0, round_slots=100, learning_rate=1.0, segment_rounds=200,
                        n_initial=50, n_after=20),
    "short-rounds": dict(price=100.0, round_slots=10, learning_rate=10.0, segment_rounds=100,
                         n_initial=105, n_after=90),
    "short-rounds-iid": dict(price=100.0, round_slots=10, learning_rate=20.0, segment_rounds=100,
                             n_initial=105, n_after=90),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ExperimentPreset:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose {', '.join(PRESET_NAMES)}")
    row = _PRESETS[name]
    return ExperimentPreset(
        name=name,
        params=SystemParams(contact_prob=0.54, max_age=30, utility=UtilityFunction.linear(30),
                            scan_cost=0.4, wifi_price=row["price"]),
        config=LearningConfig(max_bonus=row["price"], target_rate=11.0,
                              round_slots=row["round_slots"], learning_rate=row["learning_rate"],
                              max_rounds=row["segment_rounds"]),
        n_initial=row["n_initial"], n_after=row["n_after"],
        drop_round=row["segment_rounds"], total_rounds=2 * row["segment_rounds"],
    )


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
