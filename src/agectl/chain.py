"""Closed-form steady-state, reward, and age formulas for threshold policies,
paired with exact Markov-chain oracles (transition matrix + linear solve).

The closed forms and the matrix route are deliberately independent code paths:
tests pit one against the other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BLOCK_CELLS, Action, Policy, SystemParams


@dataclass(frozen=True)
class ChainSummary:
    gain: float         # expected reward per slot
    age: float          # expected age
    update_rate: float  # fraction of slots with an update


# --- closed forms --------------------------------------------------------------------

def steady_state_threshold(s: int, p: float, max_age: int) -> np.ndarray:
    """Stationary distribution of the WiFi threshold-``s`` chain.

    pi_1 = 1 / (s + (1-p)/p); geometric decay above the threshold; the
    saturated state absorbs the tail mass.  ``s = max_age + 1`` is rejected:
    that chain is absorbing at max_age and callers should use the degenerate
    summary instead.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if not 1 <= s <= max_age:
        raise ValueError(f"threshold {s} outside [1, {max_age}] (always-inactive has no chain)")
    q = 1.0 - p
    pi = np.empty(max_age)
    pi1 = 1.0 / (s + q / p)
    for i in range(1, max_age + 1):
        if i <= s:
            pi[i - 1] = pi1
        elif i < max_age:
            pi[i - 1] = pi1 * q ** (i - s)
        else:
            pi[i - 1] = pi1 * q ** (max_age - s) / p
    if max_age == s:
        pi[max_age - 1] = pi1 / p  # single active state keeps the whole tail
    return pi


def expected_reward_threshold(params: SystemParams, s: int) -> float:
    """Average reward per slot of the WiFi threshold-``s`` policy (closed form).

    ``s = max_age + 1`` (always inactive) earns exactly zero under the
    normalized utility.
    """
    M = params.max_age
    if not 1 <= s <= M + 1:
        raise ValueError(f"threshold {s} outside [1, {M + 1}]")
    if s == M + 1:
        return 0.0
    p = params.contact_prob
    q = 1.0 - p
    u = params.utility.values
    head = sum(u[x - 1] for x in range(1, s))
    tail = sum(u[i + s - 1] * q**i for i in range(0, M - s))
    pi1 = 1.0 / (s + q / p)
    return pi1 * (head + tail - params.scan_cost / p - params.wifi_price + params.bonus)


def threshold_reward_curve(params: SystemParams) -> np.ndarray:
    """E[r; s] for every s in [1, max_age + 1]; index s-1 holds threshold s."""
    base, slope = threshold_reward_affine(params)
    return base + params.bonus * slope


def threshold_reward_affine(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Decompose the reward curve as base + bonus * slope.

    The bonus enters E[r; s] only through the additive ``+B`` inside the
    bracket, so the curve is affine in the bonus with slope pi_1(s).  This
    makes bonus sweeps (publisher search, learning envs) cheap and keeps a
    single definition of s*(B) everywhere.
    """
    M = params.max_age
    p = params.contact_prob
    q = 1.0 - p
    u = np.asarray(params.utility.values)
    # tails[s-1] = sum_i u[s-1+i] q^i; u vanishes at max_age, so the full
    # correlation's trailing terms add nothing
    tails = np.correlate(u, q ** np.arange(M), "full")[M - 1 :]
    heads = np.concatenate(([0.0], np.cumsum(u[:-1])))
    pi1 = 1.0 / (np.arange(1, M + 1) + q / p)
    fixed = params.scan_cost / p + params.wifi_price
    # s = M + 1: always inactive, identically zero
    base = np.append(pi1 * (heads + tails - fixed), 0.0)
    slope = np.append(pi1, 0.0)
    return base, slope


def expected_age(s: int, p: float, max_age: int) -> float:
    """Expected age under the WiFi threshold-``s`` policy (closed form)."""
    if not 1 <= s <= max_age:
        raise ValueError(f"threshold {s} outside [1, {max_age}]")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    q = 1.0 - p
    num = p * p * s * s - p * p * s - 2.0 * q ** (max_age - s) * q + 2.0 * s * p + 2.0 - 2.0 * p
    return num / (2.0 * p * (s * p + q))


def expected_age_3g_only(s_3g: int, max_age: int) -> float:
    """Expected age when updating over 3G at threshold ``s_3g`` (periodic chain)."""
    if not 1 <= s_3g <= max_age + 1:
        raise ValueError(f"threshold {s_3g} outside [1, {max_age + 1}]")
    if s_3g == max_age + 1:
        return float(max_age)
    return (s_3g + 1) / 2.0


def expected_reward_3g_only(params: SystemParams, s_3g: int) -> float:
    """Average reward of the 3G-only policy: inactive below ``s_3g``, action 2 after."""
    if not params.has_3g:
        raise ValueError("3G-only policy needs a finite 3G price")
    M = params.max_age
    if not 1 <= s_3g <= M + 1:
        raise ValueError(f"threshold {s_3g} outside [1, {M + 1}]")
    if s_3g == M + 1:
        return 0.0
    p = params.contact_prob
    u = params.utility.values
    total = sum(u[:s_3g])
    cost = params.scan_cost + p * params.wifi_price + (1.0 - p) * params.price_3g - params.bonus
    return (total - cost) / s_3g


def reward_curve_3g_only(params: SystemParams) -> np.ndarray:
    """Rewards of the 3G-only policy for every s_3g in [1, max_age]; index
    s_3g - 1 holds threshold s_3g.  Vector form of :func:`expected_reward_3g_only`."""
    if not params.has_3g:
        raise ValueError("3G-only policy needs a finite 3G price")
    p = params.contact_prob
    cost = params.scan_cost + p * params.wifi_price + (1.0 - p) * params.price_3g - params.bonus
    return (np.cumsum(params.utility.values) - cost) / np.arange(1, params.max_age + 1)


def expected_reward_two_threshold(params: SystemParams, s_wifi: int, s_3g: int) -> float:
    """Average reward of the two-threshold policy (WiFi band then 3G), closed form.

    Requires a finite 3G price and 1 <= s_wifi <= s_3g <= max_age; the
    ``s_3g = max_age + 1`` family is the plain WiFi threshold case and is
    handled by :func:`expected_reward_threshold`.
    """
    if not params.has_3g:
        raise ValueError("two-threshold policy needs a finite 3G price")
    M = params.max_age
    if not (1 <= s_wifi <= s_3g <= M):
        raise ValueError(f"need 1 <= s_wifi <= s_3g <= {M}, got ({s_wifi}, {s_3g})")
    p = params.contact_prob
    q = 1.0 - p
    u = params.utility.values
    span = s_3g - s_wifi
    pi1 = 1.0 / (s_wifi - 1 + (1.0 - q ** (span + 1)) / p)
    head = sum(u[: s_wifi - 1])
    band = sum(u[i - 1] * q ** (i - s_wifi) for i in range(s_wifi, s_3g + 1))
    wifi_cycle_cost = params.scan_cost / p + params.wifi_price - params.bonus
    escalation = (params.price_3g - params.wifi_price - params.scan_cost / p) * q ** (span + 1)
    return pi1 * (head + band - wifi_cycle_cost - escalation)


def two_threshold_reward_grid(params: SystemParams) -> np.ndarray:
    """Matrix R[s_wifi - 1, s_3g - 1] of two-threshold rewards; -inf off-domain.

    Vectorized over blocks of s_wifi rows of at most ``BLOCK_CELLS`` cells,
    so an exhaustive grid stays fast at max_age in the thousands while its
    temporaries stay the size of one block.  Each row runs over the span
    j = s_3g - s_wifi with the float operations, and their order, of one
    per-row pass: its band is the in-order running sum of u(s_wifi + j)·q^j
    and its head the in-order sum of u below s_wifi, starting from 0.0.
    """
    if not params.has_3g:
        raise ValueError("two-threshold grid needs a finite 3G price")
    M = params.max_age
    p = params.contact_prob
    q = 1.0 - p
    u = np.asarray(params.utility.values)
    wifi_cycle_cost = params.scan_cost / p + params.wifi_price - params.bonus
    esc_coeff = params.price_3g - params.wifi_price - params.scan_cost / p

    band_q = q ** np.arange(M)                  # q^j
    qpow = q ** np.arange(1, M + 1)             # q^(j + 1)
    reach = (1.0 - qpow) / p
    escalation = esc_coeff * qpow
    heads = np.cumsum(np.concatenate(([0.0], u[:-1])))
    # window row i holds u from age i + 1 on, zero-padded to M entries
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((u, np.zeros(M - 1))), M)
    # row i of `skewed` starts at grid[i, i]: M + 1 cells per row shift each
    # row one column right, so span j of row i lands in column i + j
    cells = np.full(M * (M + 1), -np.inf)
    grid = cells[: M * M].reshape(M, M)
    skewed = cells.reshape(M, M + 1)
    rows = max(1, BLOCK_CELLS // M)
    for r0 in range(0, M, rows):
        s_wifi = np.arange(r0 + 1, min(r0 + rows, M) + 1)[:, None]
        r1, width = r0 + s_wifi.size, M - r0    # width: the block's longest span + 1
        band = np.cumsum(windows[r0:r1, :width] * band_q[:width], axis=1)
        pi1 = 1.0 / (s_wifi - 1 + reach[:width])
        block = pi1 * (heads[r0:r1, None] + band - wifi_cycle_cost - escalation[:width])
        np.copyto(skewed[r0:r1, :width], block, where=np.arange(width) <= M - s_wifi)
    return grid


# --- exact chain oracles --------------------------------------------------------------

def transition_matrix(policy: Policy, params: SystemParams) -> np.ndarray:
    """Row-stochastic age-transition matrix induced by ``policy``."""
    M = params.max_age
    if policy.max_age != M:
        raise ValueError("policy and params disagree on max_age")
    p = params.contact_prob
    mat = np.zeros((M, M))
    for age in range(1, M + 1):
        nxt = min(age + 1, M)
        a = policy.action_at(age)
        if a is Action.INACTIVE:
            mat[age - 1, nxt - 1] += 1.0
        elif a is Action.WIFI:
            mat[age - 1, 0] += p
            mat[age - 1, nxt - 1] += 1.0 - p
        else:
            mat[age - 1, 0] += 1.0
    return mat


def expected_reward_vector(policy: Policy, params: SystemParams) -> np.ndarray:
    """Per-age expected one-slot reward under ``policy`` (expectation over contacts)."""
    M = params.max_age
    p = params.contact_prob
    u = params.utility.values
    wifi_fee = max(params.wifi_price - params.bonus, 0.0)
    out = np.empty(M)
    for age in range(1, M + 1):
        a = policy.action_at(age)
        r = u[age - 1]
        if a is not Action.INACTIVE:
            r -= params.scan_cost + p * wifi_fee
        if a is Action.WIFI_THEN_3G:
            if not params.has_3g:
                raise ValueError("policy uses action 2 but 3G is unavailable")
            r -= (1.0 - p) * max(params.price_3g - params.bonus, 0.0)
        out[age - 1] = r
    return out


def steady_state_exact(policy: Policy, params: SystemParams) -> np.ndarray:
    """Stationary distribution via direct linear solve of pi P = pi, sum pi = 1."""
    mat = transition_matrix(policy, params)
    M = mat.shape[0]
    a = mat.T - np.eye(M)
    a[-1, :] = 1.0
    b = np.zeros(M)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    # absorbing / periodic chains can leave -0.0 or tiny negatives
    pi = np.where(np.abs(pi) < 1e-14, 0.0, pi)
    return pi


def chain_summary(policy: Policy, params: SystemParams) -> ChainSummary:
    """Gain, expected age, and update rate from the matrix oracle."""
    pi = steady_state_exact(policy, params)
    rewards = expected_reward_vector(policy, params)
    p = params.contact_prob
    rate = 0.0
    for age in range(1, params.max_age + 1):
        a = policy.action_at(age)
        if a is Action.WIFI:
            rate += pi[age - 1] * p
        elif a is Action.WIFI_THEN_3G:
            rate += pi[age - 1]
    ages = np.arange(1, params.max_age + 1)
    return ChainSummary(gain=float(pi @ rewards), age=float(pi @ ages), update_rate=float(rate))


def summary_for_threshold(params: SystemParams, s: int) -> ChainSummary:
    """Closed-form summary for a WiFi threshold, incl. the degenerate s = M + 1."""
    M = params.max_age
    if s == M + 1:
        return ChainSummary(gain=0.0, age=float(M), update_rate=0.0)
    q = 1.0 - params.contact_prob
    return ChainSummary(
        gain=expected_reward_threshold(params, s),
        age=expected_age(s, params.contact_prob, M),
        update_rate=1.0 / (s + q / params.contact_prob),
    )
