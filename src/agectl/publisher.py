"""Publisher bonus optimization under complete information: target threshold
from the per-slot message budget, exact bonus-range inversion of the monotone
bonus -> threshold response from its closed-form breakpoints
(:func:`thresholds.bonus_edges`), and the resulting age-minimal bonus.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import chain, thresholds
from .model import SystemParams


@dataclass(frozen=True)
class PublisherInstance:
    """One publisher problem: the user model (bonus field is the decision
    variable and is ignored), the population size, and the message budget."""

    params: SystemParams
    n_users: int
    rate_cap: float  # budgeted expected messages per slot

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("need at least one user")
        if not (math.isfinite(self.rate_cap) and self.rate_cap > 0):
            raise ValueError(f"rate cap must be positive and finite, got {self.rate_cap}")


@dataclass(frozen=True)
class BonusSolution:
    threshold: int      # user threshold induced by any bonus in the interval
    bonus_lo: float
    bonus_hi: float
    rate: float         # achieved expected messages per slot
    age: float          # achieved expected age


def message_rate(params: SystemParams, n_users: int) -> float:
    """Expected messages per slot when every user plays s*(bonus): n_users over
    the mean cycle of :func:`chain.cycle_lengths`, inf for always-inactive
    users, who send nothing.  Otherwise a population too large for a float
    gives inf."""
    s = thresholds.optimal_threshold(params).s_star
    return _population_rate(n_users, chain.cycle_lengths(params.contact_prob, params.max_age)[s - 1])


def _population_rate(n_users: int, cycle: float) -> float:
    """``n_users / cycle``, the messages per slot of users who update once per
    ``cycle`` slots on average, with an int too large for a float as inf users."""
    try:
        n = float(n_users)
    except OverflowError:
        n = math.inf
    return 0.0 if n == cycle == math.inf else n / float(cycle)   # inf users who never update


def target_threshold(n_users: int, rate_cap: float, p: float, max_age: int) -> int:
    """Smallest integer threshold keeping the expected rate within the budget,
    clipped into [1, max_age + 1].

    A rate exactly on the budget counts as feasible; the snap tolerance keeps
    float noise from pushing the ceiling one step too high.  A budget per
    user too small for a float (``n_users / rate_cap`` past the float range)
    gives ``max_age + 1``.  A mean cycle too long for a float (``(1 - p) / p``
    is inf) gives 1: users who send nothing keep any budget.
    """
    try:
        raw = n_users / rate_cap - (1.0 - p) / p
    except OverflowError:   # an int n_users too large for a float
        raw = math.inf
    return max(1, math.ceil(min(max(raw, 0.0) - 1e-9, max_age + 1)))


def bonus_range_for_threshold(
    instance: PublisherInstance, s: int
) -> tuple[float, float] | None:
    """Closed interval of bonuses in [0, P] under which users pick threshold ``s``;
    both ends induce ``s``.  Returns None when no bonus induces ``s`` (the
    response jumps over it, or ``s`` lies outside the attainable range).
    """
    params = instance.params
    if not 1 <= s <= params.max_age + 1:
        raise ValueError(f"threshold {s} outside [1, {params.max_age + 1}]")
    return thresholds._bonus_interval(thresholds.bonus_edges(params), s, s, params.wifi_price)


def optimal_bonus(instance: PublisherInstance) -> BonusSolution | None:
    """Solve the publisher problem: minimize expected age subject to the rate cap.

    Age increases with the threshold and the threshold response to the bonus
    is non-increasing, so the optimum is the response at the largest bonus in
    [0, P] that keeps s* >= target.  Returns None when even a zero bonus
    leaves users updating too often (no bonus in [0, P] can raise their
    threshold).
    """
    params = instance.params
    p = params.contact_prob
    max_age = params.max_age
    target = target_threshold(instance.n_users, instance.rate_cap, p, max_age)

    edges = thresholds.bonus_edges(params)
    keeps_target = thresholds._bonus_interval(edges, target, max_age + 1, params.wifi_price)
    if keeps_target is None:
        return None
    s = int(thresholds._threshold_at(edges, keeps_target[1]))
    lo, hi = thresholds._bonus_interval(edges, s, s, params.wifi_price)
    rate = _population_rate(instance.n_users, chain.cycle_lengths(p, max_age)[s - 1])
    age = chain.expected_age(s, p, max_age)
    return BonusSolution(threshold=s, bonus_lo=lo, bonus_hi=hi, rate=rate, age=age)
