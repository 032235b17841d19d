"""Shared test helpers: randomized instance generators and an independent
step-by-step replay oracle built directly on the one-slot primitives."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import settings

from agectl import (
    Action,
    SystemParams,
    UtilityFunction,
    instantaneous_reward,
    next_age,
)

# Tier-1 runs the same Hypothesis examples every time, with a deadline loose
# enough for a shared machine.
settings.register_profile("tier1", derandomize=True, database=None, deadline=5000)
settings.load_profile("tier1")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_utility(rng: np.random.Generator, max_age: int) -> UtilityFunction:
    form = int(rng.integers(0, 3))
    if form == 0:
        return UtilityFunction.linear(max_age)
    if form == 1:
        v = float(rng.uniform(0.5, 10.0))
        k = int(rng.integers(1, max_age + 1))
        return UtilityFunction.step(v, k, max_age)
    vals = np.sort(rng.uniform(0.0, 10.0, size=max_age))[::-1]
    return UtilityFunction.tabular(vals)


def random_wifi_params(
    rng: np.random.Generator,
    m_range: tuple[int, int] = (4, 20),
    p_range: tuple[float, float] = (0.2, 0.9),
    with_price: bool = True,
) -> SystemParams:
    max_age = int(rng.integers(m_range[0], m_range[1] + 1))
    price = float(rng.uniform(0.0, 5.0)) if with_price else 0.0
    return SystemParams(
        contact_prob=float(rng.uniform(*p_range)),
        max_age=max_age,
        utility=random_utility(rng, max_age),
        scan_cost=float(rng.uniform(0.0, 3.0)),
        wifi_price=price,
        bonus=float(rng.uniform(0.0, price)) if price > 0 else 0.0,
    )


def random_3g_params(rng: np.random.Generator, **kwargs) -> SystemParams:
    """WiFi instance plus a 3G price scattered around the G/p + P pivot so both
    regimes (3G-only and two-threshold) appear."""
    params = random_wifi_params(rng, **kwargs)
    pivot = params.scan_cost / params.contact_prob + params.wifi_price
    price_3g = float(rng.uniform(0.2, 3.0) * max(pivot, 0.5))
    price_3g = max(price_3g, params.bonus)
    return replace(params, price_3g=price_3g)


def reference_replay(
    slots,
    params: SystemParams,
    action_at,
    start_age: int = 1,
) -> list[float]:
    """Replay a contact string one slot at a time through the public one-slot
    primitives; the dumb-but-obvious oracle for every simulator path."""
    age = start_age
    rewards = []
    for contact in slots:
        action = Action(action_at(age))
        rewards.append(instantaneous_reward(params, age, action, int(contact)))
        age = next_age(age, action, int(contact), params.max_age)
    return rewards


def threshold_action(s: int, s_3g: int | None = None):
    """Action rule of a (two-)threshold policy as a plain function of age."""

    def action_at(age: int) -> Action:
        if s_3g is not None and age >= s_3g:
            return Action.WIFI_THEN_3G
        if age >= s:
            return Action.WIFI
        return Action.INACTIVE

    return action_at
