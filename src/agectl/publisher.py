"""Publisher bonus optimization under complete information: target threshold
from the per-slot message budget, exact bonus-range inversion of the monotone
bonus -> threshold response from its closed-form breakpoints
(:func:`thresholds.bonus_edges`), and the resulting age-minimal bonus.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Expected messages per slot when every user plays s*(bonus).

    Always-inactive users send nothing, so s* = M + 1 yields rate zero rather
    than the formula value.
    """
    s = thresholds.optimal_threshold(params).s_star
    if s == params.max_age + 1:
        return 0.0
    p = params.contact_prob
    return n_users / (s + (1.0 - p) / p)


def target_threshold(n_users: int, rate_cap: float, p: float, max_age: int) -> int:
    """Smallest integer threshold keeping the expected rate within the budget,
    clipped into [1, max_age + 1].

    A rate exactly on the budget counts as feasible; the snap tolerance keeps
    float noise from pushing the ceiling one step too high.
    """
    raw = n_users / rate_cap - (1.0 - p) / p
    s = math.ceil(raw - 1e-9)
    return max(1, min(max_age + 1, s))


def _interval(edges: np.ndarray, s: int, price: float) -> tuple[float, float] | None:
    lo = float(max(0.0, edges[s]))
    hi = float(min(price, np.nextafter(edges[s - 1], -np.inf)))
    return None if hi < lo else (lo, hi)


def bonus_range_for_threshold(
    instance: PublisherInstance, s: int
) -> tuple[float, float] | None:
    """Closed interval of bonuses in [0, P] under which users pick threshold ``s``.

    Users pick ``s`` exactly when edges[s] <= B < edges[s - 1] (see
    :func:`thresholds.bonus_edges`), so the interval is [edges[s], the float
    just below edges[s - 1]] clipped into [0, P]; both ends induce ``s``.
    Returns None when no bonus induces ``s`` (the response jumps over it, or
    ``s`` lies outside the attainable range).
    """
    max_age = instance.params.max_age
    if not 1 <= s <= max_age + 1:
        raise ValueError(f"threshold {s} outside [1, {max_age + 1}]")
    return _interval(thresholds.bonus_edges(instance.params), s, instance.params.wifi_price)


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
    if edges[target - 1] <= 0.0:
        return None
    bonus = min(params.wifi_price, np.nextafter(edges[target - 1], -np.inf))
    s = int(np.searchsorted(-edges, -bonus, side="left"))
    lo, hi = _interval(edges, s, params.wifi_price)
    if s == max_age + 1:
        rate, age = 0.0, float(max_age)
    else:
        rate = instance.n_users / (s + (1.0 - p) / p)
        age = chain.expected_age(s, p, max_age)
    return BonusSolution(threshold=s, bonus_lo=lo, bonus_hi=hi, rate=rate, age=age)
