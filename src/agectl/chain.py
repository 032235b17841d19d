"""Closed-form steady-state, reward, and age formulas for threshold policies,
paired with exact Markov-chain oracles (transition matrix + linear solve).

The WiFi threshold closed forms live in three vectors over s in [1, max_age + 1],
the only home of never activating (s = max_age + 1): :func:`cycle_lengths`
(inf there), :func:`threshold_reward_affine` and :func:`threshold_ages`.

The closed forms and the matrix route are deliberately independent code paths:
tests pit one against the other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import Action, Policy, SystemParams


@dataclass(frozen=True)
class ChainSummary:
    gain: float         # expected reward per slot
    age: float          # expected age
    update_rate: float  # fraction of slots with an update


# --- closed forms --------------------------------------------------------------------

def _check_threshold(s: int, max_age: int) -> None:
    if not 1 <= s <= max_age + 1:
        raise ValueError(f"threshold {s} outside [1, {max_age + 1}]")


def cycle_lengths(p: float, max_age: int) -> np.ndarray:
    """Mean renewal cycle L(s) = s + (1-p)/p of the WiFi threshold-``s`` policy for
    every s in [1, max_age + 1], index s-1; never activating never renews, so
    its L is inf and the update rates 1/L and n/L are 0.0 there."""
    lengths = np.arange(1, max_age + 2) + (1.0 - p) / p
    lengths[max_age] = np.inf
    return lengths


def steady_state_threshold(s: int, p: float, max_age: int) -> np.ndarray:
    """Stationary distribution of the WiFi threshold-``s`` chain.

    pi_i = q^max(i-s, 0) / L(s): flat up to the threshold, geometric decay
    above it, and the saturated state absorbs the tail mass (its entry is
    divided by p).  ``s = max_age + 1`` is rejected: that chain is absorbing
    at max_age and callers should use the degenerate summary instead.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if not 1 <= s <= max_age:
        raise ValueError(f"threshold {s} outside [1, {max_age}] (always-inactive has no chain)")
    excess = np.maximum(np.arange(1, max_age + 1) - s, 0)   # ages past the threshold
    pi = (1.0 - p) ** excess / cycle_lengths(p, max_age)[s - 1]
    pi[-1] /= p
    return pi


def expected_reward_threshold(params: SystemParams, s: int) -> float:
    """Average reward per slot of the WiFi threshold-``s`` policy (closed form).

    ``s = max_age + 1`` (always inactive) earns exactly zero under the
    normalized utility.
    """
    _check_threshold(s, params.max_age)
    return float(threshold_reward_curve(params)[s - 1])


def threshold_reward_curve(params: SystemParams) -> np.ndarray:
    """E[r; s] for every s in [1, max_age + 1]; index s-1 holds threshold s."""
    base, slope = threshold_reward_affine(params)
    return base + params.bonus * slope


def threshold_reward_affine(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Decompose the reward curve as base + bonus * slope.

    The bonus enters E[r; s] only through the additive ``+B`` inside the
    bracket, so the curve is affine in the bonus with slope pi_1(s) = 1/L(s)
    (0.0 at max_age + 1).  This makes bonus sweeps (publisher search,
    learning envs) cheap and keeps a single definition of s*(B) everywhere.
    """
    M = params.max_age
    p = params.contact_prob
    q = 1.0 - p
    u = np.asarray(params.utility.values)
    slope = 1.0 / cycle_lengths(p, M)
    fixed = params.scan_cost / p + params.wifi_price
    # utilities near the float limit overflow to inf, and at a p so small that
    # G/p is inf and 1/L rounds to 0 the base is 0 * -inf = nan: the answers of
    # scalar float arithmetic, given quietly until the curve is rescaled
    with np.errstate(over="ignore", invalid="ignore"):
        # tails[s-1] = sum_i u[s-1+i] q^i; u vanishes at max_age, so the full
        # correlation's trailing terms add nothing
        tails = np.correlate(u, q ** np.arange(M), "full")[M - 1 :]
        heads = np.concatenate(([0.0], np.cumsum(u[:-1])))
        base = slope * np.append(heads + tails - fixed, 0.0)
    return base, slope


def threshold_ages(p: float, max_age: int) -> np.ndarray:
    """Expected age (p^2 s(s-1) + 2sp + 2q(1 - q^(M-s))) / (2p(sp + q)) for every
    s in [1, max_age + 1], and max_age for never activating; 1 - q^n is taken
    as -expm1(n log1p(-p)) so that nothing cancels as p -> 0."""
    s = np.arange(1, max_age + 1)
    q = 1.0 - p
    num = p * p * s * (s - 1) + 2.0 * s * p - 2.0 * q * np.expm1((max_age - s) * np.log1p(-p))
    return np.append(num / (2.0 * p * (s * p + q)), float(max_age))


def expected_age(s: int, p: float, max_age: int) -> float:
    """Expected age under the WiFi threshold-``s`` policy (closed form), s in [1, max_age + 1]."""
    _check_threshold(s, max_age)
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return float(threshold_ages(p, max_age)[s - 1])


def expected_age_3g_only(s_3g: int, max_age: int) -> float:
    """Expected age when updating over 3G at threshold ``s_3g`` (periodic chain)."""
    _check_threshold(s_3g, max_age)
    if s_3g == max_age + 1:
        return float(max_age)
    return (s_3g + 1) / 2.0


def expected_reward_3g_only(params: SystemParams, s_3g: int) -> float:
    """Average reward of the 3G-only policy: inactive below ``s_3g``, action 2 after."""
    if not params.has_3g:
        raise ValueError("3G-only policy needs a finite 3G price")
    _check_threshold(s_3g, params.max_age)
    if s_3g == params.max_age + 1:
        return 0.0
    return float(reward_curve_3g_only(params)[s_3g - 1])


def reward_curve_3g_only(params: SystemParams) -> np.ndarray:
    """Rewards of the 3G-only policy for every s_3g in [1, max_age]; index
    s_3g - 1 holds threshold s_3g: (u_1 + ... + u_s - G - pP - (1-p)P3G + B) / s."""
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

    The dense M x M assembly of the row blocks that
    :func:`thresholds.optimal_two_thresholds` streams without holding the
    grid, so every cell has the bits the search reads.  For tests and callers
    that inspect the whole grid.
    """
    if not params.has_3g:
        raise ValueError("two-threshold grid needs a finite 3G price")
    M = params.max_age
    grid = np.full((M, M), -np.inf)
    for r0, block in _two_threshold_blocks(params):
        grid[r0 : r0 + len(block), r0:] = block
    return grid


def _two_threshold_blocks(params: SystemParams, rows: int | None = None, first: int = 0,
                          columns: int | None = None):
    """Yield ``(r0, block)`` over the two-threshold grid's s_wifi rows from
    ``first`` on, ``rows`` at a time (at most ``model.BLOCK_CELLS`` cells by
    default): ``block[k, c]`` is R[r0 + k, r0 + c] for the columns r0 up to
    ``columns`` (max_age by default), -inf where c < k.  Blocks share
    buffers, so each is valid until the next is asked for.

    The only home of the grid's float operations and their order.  Each row
    runs over the span j = s_3g - s_wifi as one per-row pass: its band is the
    in-order running sum of u(s_wifi + j)·q^j, its head the in-order sum of u
    below s_wifi from 0.0, and its cell pi1 * (((head + band) - wifi cycle
    cost) - escalation).  A column limit only cuts the spans short, so a cell
    has the same bits in every block that holds it.
    """
    M = params.max_age
    stop = M if columns is None else columns
    rows = min(max(1, model.BLOCK_CELLS // M) if rows is None else rows, stop - first)
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
    padded = np.concatenate((u, np.zeros(M - 1)))
    windows = np.ndarray((M, M), buffer=padded, strides=2 * padded.strides)
    band_cells = np.empty(rows * (stop - first))
    # block rows are `pitch` cells apart, room for each row's spans past the
    # last column; no span reaches c < k, so those cells stay -inf
    pitch = stop - first + rows
    cells = np.empty(rows * (pitch + 1))
    cells[: rows * pitch].reshape(rows, pitch)[:, :rows] = -np.inf
    for r0 in range(first, stop, rows):
        n, width = min(rows, stop - r0), stop - r0
        band = band_cells[: n * width].reshape(n, width)
        np.multiply(windows[r0 : r0 + n, :width], band_q[:width], out=band)
        np.cumsum(band, axis=1, out=band)
        np.add(heads[r0 : r0 + n, None], band, out=band)
        np.subtract(band, wifi_cycle_cost, out=band)
        np.subtract(band, escalation[:width], out=band)
        # pitch + 1 cells per row shift each row one column right, so span j
        # of row k lands in column k + j
        pi1 = cells[: n * (pitch + 1)].reshape(n, pitch + 1)[:, :width]
        np.add(np.arange(r0, r0 + n)[:, None], reach[:width], out=pi1)   # s_wifi - 1 + reach
        np.divide(1.0, pi1, out=pi1)
        np.multiply(pi1, band, out=pi1)
        yield r0, cells[: n * pitch].reshape(n, pitch)[:, :width]


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
    """Closed-form summary for a WiFi threshold s in [1, max_age + 1]; never
    activating (s = max_age + 1) has gain 0, age max_age and no updates."""
    M = params.max_age
    return ChainSummary(
        gain=expected_reward_threshold(params, s),
        age=expected_age(s, params.contact_prob, M),
        update_rate=float(1.0 / cycle_lengths(params.contact_prob, M)[s - 1]),
    )
