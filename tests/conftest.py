"""Shared test helpers: randomized instance generators, a first-crossing scan
over the reward curve, an exact rational stationary law of the threshold
chain, independent step-by-step replay oracles built directly on the one-slot
primitives (per slot rewards, and per slot utility, scan cost and fee for
exact totals), and a per-age relative value iteration oracle built on
``bellman_values``."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from hypothesis import settings, strategies as st

from agectl import (
    Action,
    SystemParams,
    UtilityFunction,
    ValueFunction,
    bellman_values,
    instantaneous_reward,
    next_age,
)
from agectl.model import TIE_TOL

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


@st.composite
def system_params(draw, max_age: int = 40, with_3g: bool | None = None,
                  min_price: float = 0.0) -> SystemParams:
    """Hypothesis strategy over instances of every utility form, with p drawn
    near 0, near 1 or in between and costs scaled to the utility so that
    inactive, threshold and two-threshold optima all appear."""
    M = draw(st.integers(2, max_age))
    form = draw(st.sampled_from(("linear", "step", "tabular")))
    if form == "linear":
        utility = UtilityFunction.linear(M)
    elif form == "step":
        utility = UtilityFunction.step(draw(st.floats(0.5, 20.0)), draw(st.integers(1, M)), M)
    else:
        values = draw(st.lists(st.floats(0.0, 10.0), min_size=M, max_size=M))
        utility = UtilityFunction.tabular(sorted(values, reverse=True))
    p = draw(st.one_of(st.floats(0.001, 0.05), st.floats(0.05, 0.95), st.floats(0.95, 0.999)))
    scale = max(utility.values[0] - utility.values[-1], 1.0)
    scan_cost = draw(st.floats(0.0, 1.5)) * scale
    price = draw(st.floats(min_price, 5.0))
    if with_3g is None:
        with_3g = draw(st.booleans())
    price_3g = draw(st.floats(0.2, 3.0)) * max(scan_cost / p + price, 0.5) if with_3g else None
    cap = price if price_3g is None else min(price, price_3g)
    return SystemParams(
        contact_prob=p, max_age=M, utility=utility, scan_cost=scan_cost, wifi_price=price,
        price_3g=price_3g, bonus=draw(st.floats(0.0, 1.0)) * cap,
    )


def reference_first_crossing(rewards) -> int:
    """min { s : E[r; s] >= E[r; s+1] } by a plain scan over a reward curve
    indexed from threshold 1; the last threshold when no crossing holds.  The
    oracle for the bonus-edge rule that answers s*(B) in the package."""
    for s in range(1, len(rewards)):
        if rewards[s - 1] >= rewards[s]:
            return s
    return len(rewards)


def reference_threshold_age(s: int, p: float, max_age: int) -> Fraction:
    """Exact mean age of the WiFi threshold-``s`` chain, s in [1, max_age + 1]:
    its transition matrix is built from the float ``p`` taken exactly, and the
    stationary law solved by Gauss-Jordan elimination, all in ``Fraction``
    arithmetic.  The oracle for the age closed form at any p; its cost grows
    as max_age^3 with long fractions, so keep max_age <= 12."""
    M, p = max_age, Fraction(p)
    step = [[Fraction(0)] * M for _ in range(M)]   # step[i][j]: age i + 1 -> j + 1
    for age in range(1, M + 1):
        nxt = min(age + 1, M) - 1
        if age >= s:
            step[age - 1][0] += p
            step[age - 1][nxt] += 1 - p
        else:
            step[age - 1][nxt] += 1
    # pi (P - I) = 0 for ages 1..M-1, and the masses sum to 1
    rows = [[step[i][j] - (i == j) for i in range(M)] + [Fraction(0)] for j in range(M - 1)]
    rows.append([Fraction(1)] * (M + 1))
    for col in range(M):
        pivot = next(r for r in range(col, M) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(M):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return sum(age * rows[age - 1][M] / rows[age - 1][age - 1] for age in range(1, M + 1))


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


def reference_parts(
    slots,
    params: SystemParams,
    action_at,
    start_age: int = 1,
) -> list[tuple[float, float, float]]:
    """Each slot's utility, scan cost and fee, replayed one slot at a time
    through the public primitives, with ``action_at(age)`` called once per
    slot in slot order.  Every slot's ``instantaneous_reward`` must equal
    (utility - scan cost) - fee bit for bit, so the parts stay tied to it; a
    replay's exact totals are ``math.fsum`` of the parts (``parts_total``)."""
    age = start_age
    parts = []
    for contact in map(int, slots):
        action = Action(action_at(age))
        scan = params.scan_cost if action is not Action.INACTIVE else 0.0
        if action is Action.WIFI_THEN_3G and contact == 0:
            fee = max(params.price_3g - params.bonus, 0.0)
        elif action is not Action.INACTIVE and contact == 1:
            fee = max(params.wifi_price - params.bonus, 0.0)
        else:
            fee = 0.0
        utility = params.utility(age)
        assert instantaneous_reward(params, age, action, contact) == (utility - scan) - fee
        parts.append((utility, scan, fee))
        age = next_age(age, action, contact, params.max_age)
    return parts


def parts_total(parts) -> float:
    """Utility minus scan cost minus fee, summed exactly over ``reference_parts``
    and rounded once."""
    return math.fsum(x for utility, scan, fee in parts for x in (utility, -scan, -fee))


def threshold_action(s: int, s_3g: int | None = None):
    """Action rule of a (two-)threshold policy as a plain function of age."""

    def action_at(age: int) -> Action:
        if s_3g is not None and age >= s_3g:
            return Action.WIFI_THEN_3G
        if age >= s:
            return Action.WIFI
        return Action.INACTIVE

    return action_at


@dataclass(frozen=True)
class RviResult:
    values: np.ndarray      # relative values over ages 1..M, V(1) = 0
    gain: float
    iterations: int
    residual: float         # sup-norm Bellman error; the last span if not converged
    actions: tuple[Action, ...]
    converged: bool


def reference_rvi(params: SystemParams, tol: float, max_iter: int) -> RviResult:
    """Relative value iteration one age at a time through the public
    ``bellman_values``: damped half-steps, the value at age 1 pinned to zero,
    and a stop once the span of the Bellman differences drops to ``tol``.
    Actions within ``TIE_TOL`` of the best go to the cheapest."""
    M = params.max_age
    v = np.zeros(M)
    for iteration in range(1, max_iter + 1):
        value = ValueFunction(values=v, gain=0.0)
        delta = []
        for x in range(1, M + 1):
            fs = [f for f in bellman_values(x, value, params) if f is not None]
            delta.append(max(fs) - float(v[x - 1]))
        span = max(delta) - min(delta)
        if span <= tol:
            gain = 0.5 * (max(delta) + min(delta))
            values = np.array([float(vx) - float(v[0]) for vx in v])
            final = ValueFunction(values=values, gain=gain)
            actions = []
            for x in range(1, M + 1):
                fs = [f for f in bellman_values(x, final, params) if f is not None]
                best = max(fs)
                actions.append(next(Action(a) for a, f in enumerate(fs) if f >= best - TIE_TOL))
            return RviResult(values, gain, iteration, max(abs(d - gain) for d in delta),
                             tuple(actions), True)
        stepped = [float(vx) + 0.5 * d for vx, d in zip(v, delta)]
        v = np.array([vx - stepped[0] for vx in stepped])
    return RviResult(v, float("nan"), max_iter, span, (), False)
