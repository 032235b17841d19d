"""Closed-form steady-state, reward, and age formulas for threshold policies,
paired with exact Markov-chain oracles (transition matrix + linear solve).

The WiFi threshold closed forms live in three vectors over s in [1, max_age + 1],
the only home of never activating (s = max_age + 1): :func:`cycle_lengths`
(inf there), :func:`threshold_reward_affine` and :func:`threshold_ages`.  The
two-threshold reward's only home is the panel maker :class:`_Panels`: its
scalar, its dense grid, the 3G-only curve, which is the grid's span-0 column,
and the search in ``thresholds`` read their cells there, every panel from
span 0.

The closed forms and the matrix route are deliberately independent code paths:
tests pit one against the other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Action, Policy, SystemParams

#: cells (rows x columns) one block may hold, read only where a temporary
#: outgrows its input: the two-threshold search's and the dense grid's row
#: blocks
BLOCK_CELLS = 1 << 16


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
        raise ValueError(f"p must be in (0, 1), got {p}")
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

    The tails sum_i u(s+i) q^i are one backward recurrence, O(max_age), in
    a fixed order of basic float operations (:func:`_tails`), so the curve's
    bits do not depend on the CPU.
    """
    M = params.max_age
    p = params.contact_prob
    slope = 1.0 / cycle_lengths(p, M)
    fixed = params.scan_cost / p + params.wifi_price
    tails = _tails(params.utility.values, 1.0 - p)
    # utilities near the float limit overflow to inf, and at a p so small that
    # G/p is inf and 1/L rounds to 0 the base is 0 * -inf = nan: the answers of
    # scalar float arithmetic, given quietly until the curve is rescaled
    with np.errstate(over="ignore", invalid="ignore"):
        heads = np.concatenate(([0.0], np.cumsum(params.utility.value_array[:-1])))
        base = slope * np.append(heads + tails - fixed, 0.0)
    return base, slope


def _tails(u: tuple[float, ...], q: float) -> np.ndarray:
    """tails[s-1] = sum_i u(s+i) q^i for every s in [1, len(u)], by Horner's
    rule: tails[s-1] = u(s) + q·tails[s] from the last age down, in a fixed
    order of basic float operations, so its bits do not depend on the CPU.
    Python floats overflow to inf quietly, as scalar float arithmetic does.

    For u >= 0 and 0 < q < 1 a tail of n terms is within a relative
    gamma_2n = 2n·2^-53 / (1 - 2n·2^-53) of its exact sum, away from
    underflow (Higham, Accuracy and Stability of Numerical Algorithms, ch. 5).
    Measured at 1,000 ages: within 1 ulp for p >= 0.5, where the terms at
    least halve, and within 44 ulp for p <= 0.05, where a tail adds up to
    1,000 terms of like size.
    """
    tails, tail = [0.0] * len(u), 0.0
    for s in range(len(u) - 1, -1, -1):
        tail = u[s] + q * tail
        tails[s] = tail
    return np.fromiter(tails, float, len(u))


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
        raise ValueError(f"p must be in (0, 1), got {p}")
    return float(threshold_ages(p, max_age)[s - 1])


def expected_age_3g_only(s_3g: int, max_age: int) -> float:
    """Expected age when updating over 3G at threshold ``s_3g`` (periodic chain)."""
    _check_threshold(s_3g, max_age)
    if s_3g == max_age + 1:
        return float(max_age)
    return (s_3g + 1) / 2.0


def expected_reward_3g_only(params: SystemParams, s_3g: int) -> float:
    """Average reward of the 3G-only policy: inactive below ``s_3g``, action 2 after."""
    curve = np.append(reward_curve_3g_only(params), 0.0)   # s_3g = max_age + 1 earns 0
    _check_threshold(s_3g, params.max_age)
    return float(curve[s_3g - 1])


def reward_curve_3g_only(params: SystemParams) -> np.ndarray:
    """Rewards of the 3G-only policy for every s_3g in [1, max_age]; index
    s_3g - 1 holds threshold s_3g.  The policy is the two-threshold pair
    (s_3g, s_3g), so the curve is the span-0 column of the two-threshold grid:
    one one-span panel of :class:`_Panels` over every row."""
    if not params.has_3g:
        raise ValueError("3G-only policy needs a finite 3G price")
    return _Panels(params)(0, params.max_age, 1)[0]


def expected_reward_two_threshold(params: SystemParams, s_wifi: int, s_3g: int) -> float:
    """Average reward of the two-threshold policy (WiFi band then 3G), closed form.

    Requires a finite 3G price and 1 <= s_wifi <= s_3g <= max_age; the
    ``s_3g = max_age + 1`` family is the plain WiFi threshold case and is
    handled by :func:`expected_reward_threshold`.  One one-row panel of
    :class:`_Panels`, from span 0 to the cell's, gives the cell the bits the
    search reads.
    """
    if not params.has_3g:
        raise ValueError("two-threshold policy needs a finite 3G price")
    M = params.max_age
    if not (1 <= s_wifi <= s_3g <= M):
        raise ValueError(f"need 1 <= s_wifi <= s_3g <= {M}, got ({s_wifi}, {s_3g})")
    return float(_Panels(params)(s_wifi - 1, s_wifi, s_3g - s_wifi + 1)[-1, 0])


def two_threshold_reward_grid(params: SystemParams) -> np.ndarray:
    """Matrix R[s_wifi - 1, s_3g - 1] of two-threshold rewards; -inf off-domain.

    The dense M x M assembly of the panels of :class:`_Panels`, which
    :func:`thresholds.optimal_two_thresholds` reads only up to the age each
    row's 3G marginal allows, so every cell has the bits the search reads.
    For tests and callers that inspect the whole grid.  Row blocks hold as
    many whole rows as ``BLOCK_CELLS`` allows, at least one, each one panel
    from span 0.
    """
    if not params.has_3g:
        raise ValueError("two-threshold grid needs a finite 3G price")
    M = params.max_age
    panels, rows = _Panels(params), max(1, BLOCK_CELLS // M)
    grid = np.full((M, M), -np.inf)
    for r0 in range(0, M, rows):
        panel = panels(r0, min(r0 + rows, M), M - r0)
        for r, cells in enumerate(panel.T, start=r0):
            grid[r, r:] = cells[: M - r]
    return grid


class _Panels:
    """The only home of the two-threshold grid's float operations and their
    order.  ``panels(lo, hi, width)`` returns a new panel ``cells[t, k] =
    R[lo + k, lo + k + t]`` over the s_wifi rows lo..hi-1 and the ``width``
    spans j = s_3g - s_wifi from 0 on, one column per row; cells past
    max_age are -inf.  width is at most the first row's spans.

    Each row runs over its spans as one in-order pass: its band is the running
    sum of u(s_wifi + j)·q^j, its head the in-order sum of u below s_wifi
    from 0.0, and its cell pi1 * (((head + band) - (P - B)) - ((P3G - P)·q^(j+1)
    + G·reach)), where reach = (1 - q^(j+1))/p is the expected number of
    active slots in a cycle.  Every panel starts at span 0, so a cell has
    the same bits in every panel that holds it, whatever the panels' shapes.
    """

    def __init__(self, params: SystemParams):
        M = params.max_age
        p = params.contact_prob
        powers = (1.0 - p) ** np.arange(M + 1)          # q^j
        u = params.utility.value_array
        self.max_age = M
        self.fees = params.wifi_price - params.bonus
        self.band_q = powers[:-1]
        # (1 - q^(j + 1)) / p, with nothing to cancel as p -> 0
        self.reach = -np.expm1(np.arange(1, M + 1) * np.log1p(-p)) / p
        # scanning costs G per active slot, G·reach per cycle: G/p never
        # appears, so nothing cancels as p -> 0.  Costs near the float limit
        # overflow to inf, as scalar float arithmetic gives them, quietly
        with np.errstate(over="ignore"):
            self.escalation = (params.price_3g - params.wifi_price) * powers[1:] \
                + params.scan_cost * self.reach
        self.heads = np.cumsum(np.concatenate(([0.0], u[:-1])))
        self.first_age = np.arange(M, dtype=float)       # s_wifi - 1
        # windows[r, j] is u at age r + j + 1, zero past max_age
        padded = np.concatenate((u, np.zeros(M - 1)))
        self.windows = np.ndarray((M, M), buffer=padded, strides=2 * padded.strides)
        self.past = np.arange(2 * M) >= M                # past[r + j]: s_3g past max_age

    def __call__(self, lo: int, hi: int, width: int) -> np.ndarray:
        # windows is symmetric, so its span rows hold the panel's columns
        band = self.windows[:width, lo:hi] * self.band_q[:width, None]
        np.cumsum(band, axis=0, out=band)
        cells = self.heads[lo:hi] + band
        cells -= self.fees
        cells -= self.escalation[:width, None]
        # pi1 = 1 / (s_wifi - 1 + reach), in the band's memory: a panel makes
        # two new arrays, not five, which halves a whole-triangle read's page
        # faults
        np.add(self.first_age[lo:hi], self.reach[:width, None], out=band)
        cells *= np.divide(1.0, band, out=band)
        # rows from k0 on end inside the panel: cell (t, k) is past max_age
        # where lo + k + t >= max_age
        n, k0 = hi - lo, max(0, self.max_age - lo - width + 1)
        if k0 < n:
            past = np.ndarray((width, n - k0), bool, self.past, lo + k0, (1, 1))
            np.copyto(cells[:, k0:], -np.inf, where=past)
        return cells


# --- exact chain oracles --------------------------------------------------------------

def transition_matrix(policy: Policy, params: SystemParams) -> np.ndarray:
    """Row-stochastic age-transition matrix induced by ``policy``."""
    M = params.max_age
    if policy.max_age != M:
        raise ValueError(f"policy and params disagree on max_age: {policy.max_age} != {M}")
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
