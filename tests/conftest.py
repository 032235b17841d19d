"""Shared test helpers: randomized instance generators, a first-crossing scan
over the reward curve, ``reference_exact`` (the exact stationary law, gain,
mean age and update rates of any policy, by flow balance over the transition
law in ``Fraction`` arithmetic) with the rounding bound ``reward_bound`` that
float routes are held to against it, independent step-by-step replay oracles
built directly on the one-slot primitives (per slot rewards, and per slot
utility, scan cost and fee for exact totals), and per-age relative value
iteration and policy iteration oracles built on ``bellman_values``."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from hypothesis import settings, strategies as st

from agectl import (
    Action,
    Policy,
    SystemParams,
    UtilityFunction,
    ValueFunction,
    bellman_values,
    instantaneous_reward,
    next_age,
)
from agectl import solver
from agectl.model import TIE_TOL

# Tier-1 runs the same Hypothesis examples every time, with a deadline loose
# enough for a shared machine.
settings.register_profile("tier1", derandomize=True, database=None, deadline=5000)
settings.load_profile("tier1")

EPS = float(np.finfo(float).eps)


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


@st.composite
def ulp_step_params(draw, max_age: int = 300) -> SystemParams:
    """Exactly non-increasing tabular utilities built from runs: flat runs,
    chains of one-ulp steps down (``np.nextafter``) and single drops, the
    last value held to max_age - 1, then 0 or below, so that normalizing
    keeps every step.  Rows of the two-threshold grid then stall and tie by
    single ulps.  3G is dearer than the WiFi cycle, so the grid is
    searched."""
    M = draw(st.integers(2, max_age))
    v = draw(st.floats(0.5, 10.0))
    values = []
    for kind, n in draw(st.lists(st.tuples(st.sampled_from(("flat", "ulp", "drop")),
                                           st.integers(1, M)), min_size=1, max_size=6)):
        for _ in range(n):
            values.append(v)
            if kind == "ulp":
                v = float(np.nextafter(v, -np.inf))
        if kind == "drop":
            v *= draw(st.floats(0.0, 1.0))
    values = (values + [v] * M)[:M - 1]
    values.append(min(values[-1], 0.0))
    p = draw(st.sampled_from((1e-6, 0.125, 0.5, 0.875)))
    scale = max(values[0] - values[-1], 1.0)
    scan_cost, price = (draw(st.sampled_from((0.0, 0.1, 1.0))) * scale for _ in range(2))
    price_3g = draw(st.floats(1.0, 3.0, exclude_min=True)) * max(scan_cost / p + price, 0.5)
    return SystemParams(
        contact_prob=p, max_age=M, utility=UtilityFunction.tabular(values), scan_cost=scan_cost,
        wifi_price=price, price_3g=price_3g, bonus=draw(st.floats(0.0, 1.0)) * min(price, price_3g),
    )


@st.composite
def tie_heavy_params(draw):
    """Flat and step utilities with integer values and costs at dyadic p, where
    distinct pairs often earn exactly the same reward."""
    M = draw(st.integers(2, 24))
    k = draw(st.integers(1, M))
    value = float(draw(st.integers(1, 4)))
    utility = draw(st.sampled_from((
        UtilityFunction.tabular([value] * M),
        UtilityFunction.tabular([value] * k + [0.0] * (M - k)),
        UtilityFunction.step(value, k, M),
        UtilityFunction.linear(M),
    )))
    price, price_3g = (float(draw(st.integers(0, n))) for n in (4, 12))
    return SystemParams(
        contact_prob=draw(st.sampled_from((0.5, 0.25, 0.75, 0.125))), max_age=M, utility=utility,
        scan_cost=float(draw(st.integers(0, 3))), wifi_price=price, price_3g=price_3g,
        bonus=float(draw(st.integers(0, int(min(price, price_3g))))),
    )


def reference_first_crossing(rewards) -> int:
    """min { s : E[r; s] >= E[r; s+1] } by a plain scan over a reward curve
    indexed from threshold 1; the last threshold when no crossing holds.  The
    oracle for the bonus-edge rule that answers s*(B) in the package."""
    for s in range(1, len(rewards)):
        if rewards[s - 1] >= rewards[s]:
            return s
    return len(rewards)


def _integers_over_one_denominator(values) -> tuple[list[int], int]:
    """Rationals, or floats taken exactly, as integers over their least common
    denominator: values[i] = ints[i] / den."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


@dataclass(frozen=True)
class ExactSummary:
    weights: tuple[int, ...]   # the stationary law over ages 1..M, up to one factor
    gain: Fraction             # expected reward per slot
    age: Fraction              # mean age
    wifi_rate: Fraction        # WiFi updates per slot
    rate_3g: Fraction          # 3G updates per slot

    @property
    def pi(self) -> tuple[Fraction, ...]:
        total = sum(self.weights)
        return tuple(Fraction(w, total) for w in self.weights)


def reference_exact(policy: Policy, params: SystemParams) -> ExactSummary:
    """Exact stationary law and long-run averages of any policy, with every
    float input taken exactly and no rounding anywhere.

    Every move goes to age 1 or to min(x + 1, M), so flow balance gives the law
    in O(M) steps from the transition law alone: pi(x + 1) = pi(x) P(x, x + 1)
    below M, pi(M) = pi(M - 1) P(M - 1, M) / (1 - P(M, M)), then normalise.
    A policy inactive at a reachable M puts all the mass on M.  The one-slot
    reward is the expectation over the contact of ``instantaneous_reward``'s
    law: utility, minus G when active, minus max(P - B, 0) on a contact, minus
    max(P3G - B, 0) when action 2 misses the contact.  The sums run over
    integers, which keeps a call near 1 ms at M = 60."""
    M = params.max_age
    p = Fraction(params.contact_prob)
    actions = [policy.action_at(x) for x in range(1, M + 1)]
    move_on = {Action.INACTIVE: Fraction(1), Action.WIFI: 1 - p, Action.WIFI_THEN_3G: Fraction(0)}
    weights = [Fraction(1)]
    for a in actions[:-2]:
        weights.append(weights[-1] * move_on[a])
    inflow = weights[-1] * move_on[actions[-2]]
    if not inflow:
        weights.append(Fraction(0))
    elif actions[-1] is Action.INACTIVE:   # M absorbs every path that reaches it
        weights = [Fraction(0)] * (M - 1) + [Fraction(1)]
    else:
        weights.append(inflow / (1 - move_on[actions[-1]]))
    weights, _ = _integers_over_one_denominator(weights)
    utilities, unit = _integers_over_one_denominator(params.utility.values)

    total = sum(weights)
    utility = Fraction(sum(w * u for w, u in zip(weights, utilities)), unit * total)
    active = Fraction(sum(w for w, a in zip(weights, actions) if a is not Action.INACTIVE), total)
    escalating = Fraction(sum(w for w, a in zip(weights, actions) if a is Action.WIFI_THEN_3G), total)
    bonus = Fraction(params.bonus)
    wifi_cost = Fraction(params.scan_cost) + p * max(Fraction(params.wifi_price) - bonus, 0)
    fee_3g = (1 - p) * max(Fraction(params.price_3g) - bonus, 0) if escalating else 0
    return ExactSummary(
        weights=tuple(weights),
        gain=utility - wifi_cost * active - fee_3g * escalating,
        age=Fraction(sum(x * w for x, w in enumerate(weights, start=1)), total),
        wifi_rate=p * active,
        rate_3g=(1 - p) * escalating,
    )


# c in the bounds c·M·eps·scale that float routes meet against reference_exact;
# the worst |error| / (M·eps·scale) seen over 270 seeded and Hypothesis
# instances at M <= 60 (x86-64, numpy 2.4) is in each comment
C_CLOSED = 2     # chain's closed forms: 0.41, a threshold age at M = 2, p = 0.001
C_MATRIX = 128   # chain_summary's linear solve (and RVI's sweeps): 36, an age at M = 45


def reward_bound(c: int, exact: ExactSummary, params: SystemParams) -> Fraction:
    """c·M·eps·pi_1·(|head| + |tail| + G/p + P + B), plus pi_1·P3G for a policy
    that escalates: the rounding a float evaluation of the reward may carry,
    with |head| + |tail| read as the exact sum of pi(x)/pi_1·|u(x)|.  A policy
    that never updates has pi_1 = 0, u(M) = 0 and a bound of 0: its float
    reward must be exactly 0.  The bound is an exact ``Fraction``, so callers
    compare exactly, and a scale past the float range (G/p at a tiny p)
    gives a bound, not an overflow."""
    costs = (Fraction(params.scan_cost) / Fraction(params.contact_prob)
             + Fraction(params.wifi_price) + Fraction(params.bonus))
    if exact.rate_3g:
        costs += Fraction(params.price_3g)
    utilities, unit = _integers_over_one_denominator(params.utility.values)
    scale = (Fraction(sum(w * abs(u) for w, u in zip(exact.weights, utilities)), unit)
             + exact.weights[0] * costs) / sum(exact.weights)
    return c * params.max_age * Fraction(EPS) * scale


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
class ReferenceSolve:
    values: np.ndarray      # relative values over ages 1..M, V(1) = 0
    gain: float
    iterations: int
    residual: float         # sup-norm Bellman error; the last span if not converged
    actions: tuple[Action, ...]
    converged: bool


def reference_rvi(params: SystemParams, tol: float, max_iter: int) -> ReferenceSolve:
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
            return ReferenceSolve(values, gain, iteration, max(abs(d - gain) for d in delta),
                                  tuple(actions), True)
        stepped = [float(vx) + 0.5 * d for vx, d in zip(v, delta)]
        v = np.array([vx - stepped[0] for vx in stepped])
    return ReferenceSolve(v, float("nan"), max_iter, span, (), False)


def _top(fs: list[float]) -> float:
    """The largest of ``fs``, or nan when any is nan, as ``np.maximum`` gives."""
    return math.nan if any(math.isnan(f) for f in fs) else max(fs)


def _threshold_form(actions: list[int]) -> tuple[Action, ...]:
    """The paper's construction: set the action at the lowest age whose action
    exceeds the next age's to inactive, and repeat until no age's does."""
    actions = list(actions)
    while True:
        inverted = [x for x in range(len(actions) - 1) if actions[x] > actions[x + 1]]
        if not inverted:
            return tuple(Action(a) for a in actions)
        actions[inverted[0]] = int(Action.INACTIVE)


def reference_policy_iteration(params: SystemParams, tol: float, max_iter: int) -> ReferenceSolve:
    """Howard's policy iteration from all-WiFi, one age at a time: each
    policy is valued by ``solver._evaluate``, and each age switches to its
    first best action through the public ``bellman_values`` only when that
    beats its current action by more than ``min(TIE_TOL, tol / 2)``, so a tie
    keeps the current action.  A step that switches no age stops; the
    residual is that step's sup-norm Bellman error, and the policy takes the
    cheapest action within ``TIE_TOL`` of the best, in threshold form.  Not
    converged when the stop's residual exceeds ``tol`` or ``max_iter`` steps
    each switch some age; the residual is then the last step's."""
    M = params.max_age
    margin = min(TIE_TOL, tol / 2)
    codes = [int(Action.WIFI)] * M
    with np.errstate(all="ignore"):
        terms = solver._action_terms(params, 0.0)
        for step in range(1, max_iter + 1):
            values, gain = solver._evaluate(np.array(codes), terms, params.contact_prob)
            value = ValueFunction(values=values, gain=gain)
            table = [[f for f in bellman_values(x, value, params) if f is not None]
                     for x in range(1, M + 1)]
            tops = [_top(fs) for fs in table]
            residual = _top([abs(top - float(v) - gain) for top, v in zip(tops, values)])
            switched = False
            for x, (fs, top) in enumerate(zip(table, tops)):
                if top > fs[codes[x]] + margin:
                    codes[x] = fs.index(top)
                    switched = True
            if not switched:
                break
    if switched or not residual <= tol:
        return ReferenceSolve(values, gain, step, residual, (), False)
    cheapest = [next(a for a, f in enumerate(fs) if f >= top - TIE_TOL)
                for fs, top in zip(table, tops)]
    return ReferenceSolve(values, gain, step, residual, _threshold_form(cheapest), True)
