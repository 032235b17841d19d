"""Optimal-threshold search: s*(B) by the one bonus-edge rule, boundary-regime
tests, step-utility candidate set via the Lambert W function, multi-optimum
enumeration, and the two-threshold grid search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import chain, model
from .model import SystemParams

_INV_E = math.exp(-1.0)
_LAMBERT_TOL, _LAMBERT_MAX_ITER = 1e-12, 100   # relative residual bound, Halley step cap
#: spans per panel of the two-threshold search, at every max_age: a row reads
#: up to a panel past its peak, so a wider panel reads more cells past it
_PANEL_SPANS = 16


@dataclass(frozen=True)
class ThresholdResult:
    s_star: int
    reward: float
    all_optima: tuple[int, ...]
    always_active: bool
    always_inactive: bool
    fallback_sweep: bool = False  # step search only: candidate set was unusable


@dataclass(frozen=True)
class TwoThresholdResult:
    s_wifi: int
    s_3g: int
    reward: float


@dataclass(frozen=True)
class MonotonicityReport:
    parameter: str
    grid: tuple[float, ...]
    thresholds: tuple[int, ...]
    violation: tuple[int, int, int] | None  # (grid index, s_i, s_{i+1})

    @property
    def ok(self) -> bool:
        return self.violation is None


def _optima(rewards: np.ndarray) -> tuple[int, ...]:
    return tuple((np.flatnonzero(rewards >= rewards.max() - model.TIE_TOL) + 1).tolist())


def optimal_threshold(params: SystemParams) -> ThresholdResult:
    """Optimal WiFi threshold s*(B) over s in [1, M+1] by the bonus-edge rule
    (:func:`bonus_edges`), which places the first crossing of the reward curve;
    unimodality makes it the argmax.  ``all_optima`` collects every threshold
    within ``model.TIE_TOL`` of the maximum.
    """
    base, slope = chain.threshold_reward_affine(params)
    rewards = base + params.bonus * slope
    s_star = int(_threshold_at(_edges(base, slope), params.bonus))
    return ThresholdResult(
        s_star=s_star,
        reward=float(rewards[s_star - 1]),
        all_optima=_optima(rewards),
        always_active=always_active(params),
        always_inactive=always_inactive(params),
    )


def always_active(params: SystemParams) -> bool:
    """Closed-form test for s* = 1 (activate at every age)."""
    p = params.contact_prob
    q = 1.0 - p
    u = params.utility.values
    discounted = sum(u[x - 1] * q ** (x - 1) for x in range(1, params.max_age))
    lhs = (u[0] - p * discounted) / q
    return lhs >= params.scan_cost / p + params.wifi_price - params.bonus


def always_inactive(params: SystemParams) -> bool:
    """Closed-form test that never activating (s = M + 1) is among the optima:
    the utility summed over ages 1..M-1 is at most G/p + P - B.

    At equality threshold M earns the same as never activating, and the bonus
    edge rule counts a crossing that holds with equality, so it picks the
    smaller threshold: s* = M + 1 holds only strictly past that boundary.
    """
    total = sum(params.utility.values[: params.max_age - 1])
    return total <= params.scan_cost / params.contact_prob + params.wifi_price - params.bonus


def lambert_w(x: float) -> float:
    """Principal branch of the Lambert W function: w with w * e^w = x.

    Defined for x >= -1/e.  Halley iterations from a branch-aware start point;
    the residual |w e^w - x| is driven below ``_LAMBERT_TOL * max(1, |x|)``.
    """
    if x < -_INV_E - 1e-15:
        raise ValueError(f"lambert_w needs x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if abs(x + _INV_E) < 1e-15:
        return -1.0
    if x < 0.0:
        w = -1.0 + math.sqrt(2.0 * (1.0 + math.e * x))  # series around the branch point
    elif x < math.e:
        w = x / (1.0 + x)  # crude rational start; Halley polishes it
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    target = _LAMBERT_TOL * max(1.0, abs(x))
    for _ in range(_LAMBERT_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= target:
            return w
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise ArithmeticError(f"lambert_w failed to converge for x={x}")


def _step_interior_root(params: SystemParams) -> float | None:
    """Stationary point of the step-utility reward curve on the s <= cutoff branch.

    Returns None when the Lambert argument leaves the principal-branch domain
    or overflows, in which case callers fall back to the exhaustive sweep.
    """
    u = params.utility
    v, k = u.step_value, u.step_cutoff
    if not v or v <= 0:
        return None
    p = params.contact_prob
    lnq = math.log1p(-p)
    costs = params.scan_cost + p * params.wifi_price - p * params.bonus
    try:
        arg = costs * math.exp(-(lnq * (1.0 + k * p) + p) / p) / v
        w = lambert_w(arg)
    except (OverflowError, ValueError, ArithmeticError):
        return None
    return -(p + w * p + lnq * (1.0 - p)) / (lnq * p)


def step_utility_threshold(params: SystemParams) -> ThresholdResult:
    """Optimal threshold for a step utility from the six candidates
    {1, k-1, floor(phi), ceil(phi), M, M+1}, each clamped to [1, M+1], phi
    being the Lambert-W interior stationary point.  Falls back to the
    exhaustive sweep (flagged) when phi is undefined."""
    if params.utility.form != "step":
        raise ValueError("step_utility_threshold needs a step utility")
    M = params.max_age
    phi = _step_interior_root(params)
    fallback = phi is None
    if fallback:
        result = optimal_threshold(params)
        return replace(result, fallback_sweep=True)

    k = params.utility.step_cutoff
    candidates = sorted(
        {min(max(c, 1), M + 1) for c in (1, k - 1, math.floor(phi), math.ceil(phi), M, M + 1)}
    )
    curve = chain.threshold_reward_curve(params)
    rewards = {s: float(curve[s - 1]) for s in candidates}
    best = max(rewards.values())
    winners = tuple(s for s in candidates if rewards[s] >= best - model.TIE_TOL)
    s_star = winners[0]
    return ThresholdResult(
        s_star=s_star,
        reward=rewards[s_star],
        all_optima=winners,
        always_active=always_active(params),
        always_inactive=always_inactive(params),
    )


def enumerate_optimal_thresholds(params: SystemParams) -> tuple[tuple[int, ...], bool]:
    """All maximizers of E[r; s] by full sweep, plus the degeneracy flag
    (three or more optima, which forces the optimal reward to zero and puts
    always-inactive among the optima)."""
    rewards = chain.threshold_reward_curve(params)
    optima = _optima(rewards)
    return optima, len(optima) >= 3


def multi_optimum_condition(params: SystemParams) -> bool:
    """Closed-form condition for three or more optimal thresholds:
    some m < M - 1 has cumulative utility below m exactly equal to the cycle
    cost while the utility vanishes beyond m.  Kept as an independent
    cross-check of the sweep-based enumeration."""
    u = params.utility.values
    cost = params.scan_cost / params.contact_prob + params.wifi_price - params.bonus
    head, tie = 0.0, model.TIE_TOL
    for m in range(1, params.max_age - 1):
        if abs(head - cost) <= tie and all(x <= tie for x in u[m:]):
            return True
        head += u[m - 1]
    return False


def optimal_two_thresholds(params: SystemParams) -> TwoThresholdResult:
    """Best (s_wifi, s_3g) pair by closed-form evaluation.

    When the 3G price is dominated by the WiFi cycle cost G/p + P the WiFi
    band is empty and only the 3G-only family competes with always-inactive:
    :func:`chain.reward_curve_3g_only`, the grid's span-0 column, picks the
    pair and gives its reward.  Otherwise the triangular grid plus the
    WiFi-only edge is searched.
    Every pair within ``model.TIE_TOL`` of the best reward ties; ties prefer
    the larger s_wifi, then the smaller s_3g in that row: the latest start of
    activity, as in the solver, and then the earliest escalation to 3G.
    Never activating is the last row, and wins unless some pair earns more
    than ``model.TIE_TOL``; WiFi-only (s_3g = M + 1) is the last column of
    its row.

    The grid is read in :class:`chain._Panels` panels of ``_PANEL_SPANS``
    spans over the rows still rising, folded into row maxima; memory stays
    O(max_age) plus the fixed panel buffer.  A row retires at its first panel
    that brings no new strict maximum.  That is exact in real arithmetic for
    every valid input, since :class:`model.UtilityFunction` admits no rise:
    with s_wifi fixed the reward is a ratio over the span whose marginal,
    u(s_3g + 1) + p·(P3G - P - G/p), then never increases, so once the ratio
    stops rising it never rises again.  The winning row is read again from
    span 0 for its first cell at or above the floor.
    """
    if not params.has_3g:
        raise ValueError("optimal_two_thresholds needs a finite 3G price")
    M = params.max_age
    p = params.contact_prob
    never, tie = M + 1, model.TIE_TOL

    if params.price_3g <= params.scan_cost / p + params.wifi_price:
        only_3g = chain.reward_curve_3g_only(params)
        top = float(only_3g.max())
        if top <= tie:
            return TwoThresholdResult(s_wifi=never, s_3g=never, reward=0.0)
        s3 = M - int(np.argmax(only_3g[::-1] >= top - tie))
        return TwoThresholdResult(s_wifi=s3, s_3g=s3, reward=float(only_3g[s3 - 1]))

    wifi_only = chain.threshold_reward_curve(params)[:M]
    panels = chain._Panels(params)
    width = min(_PANEL_SPANS, model.BLOCK_CELLS)
    rows = model.BLOCK_CELLS // width
    row_top = np.full(M, -np.inf)
    for r0 in range(0, M, rows):
        lo, hi, j0 = r0, min(r0 + rows, M), 0
        while lo < hi:
            panel = panels(lo, hi, j0, min(width, M - lo - j0))
            peak, tops = panel.max(axis=0), row_top[lo:hi]
            rising = np.flatnonzero(peak > tops)
            np.maximum(tops, peak, out=tops)
            j0 += len(panel)
            if not rising.size:
                break
            # on to the rows whose maximum this panel raised, and that have
            # spans left; rows retired between them are read on, which only
            # brings their maxima closer to the dense grid's
            lo, hi = lo + int(rising[0]), min(lo + int(rising[-1]) + 1, M - j0)
    top = max(float(row_top.max()), float(wifi_only.max()))
    if top <= tie:
        return TwoThresholdResult(s_wifi=never, s_3g=never, reward=0.0)
    floor = top - tie
    r = M - 1 - int(np.argmax(((row_top >= floor) | (wifi_only >= floor))[::-1]))
    if not row_top[r] >= floor:   # only WiFi-only reaches the floor in row r
        return TwoThresholdResult(s_wifi=r + 1, s_3g=never, reward=float(wifi_only[r]))
    # the row's first cell at or above the floor lies at or before its peak:
    # read the row again from span 0, in panels as long as the cap allows
    for c in range(0, M - r, model.BLOCK_CELLS):
        cells = panels(r, r + 1, c, min(model.BLOCK_CELLS, M - r - c))[:, 0]
        if np.any(cells >= floor):
            break
    hit = int(np.argmax(cells >= floor))
    return TwoThresholdResult(s_wifi=r + 1, s_3g=r + c + hit + 1, reward=float(cells[hit]))


def bonus_edges(params: SystemParams) -> np.ndarray:
    """Bonus breakpoints of the response B -> s*(B), padded with +inf and -inf.

    On the affine curve E[r; s] = base_s + B * slope_s, the first crossing
    E[r; j] >= E[r; j+1] holds exactly when B >= c_j with
    c_j = (base_{j+1} - base_j) / (slope_j - slope_{j+1}); the slope pi_1(s)
    never increases, so the divisor is +0.0 or positive, and a nan quotient
    (equal rewards) is -inf.  With e_j the running minimum of c_1..c_j,
    s*(B) = min {j : B >= e_j}, the count of edges above B: threshold s is the
    answer exactly on ``edges[s] <= B < edges[s - 1]``.

    Breakpoints that coincide in exact arithmetic (step and flat utilities)
    come out split by float noise; an edge within ``model.TIE_TOL`` below the
    one before it takes that edge's value, so no threshold gets a sliver of
    an interval that no real bonus can induce.
    """
    return _edges(*chain.threshold_reward_affine(params))


def _edges(base: np.ndarray, slope: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = (base[1:] - base[:-1]) / (slope[:-1] - slope[1:])
        cuts[np.isnan(cuts)] = -np.inf
        edges = np.minimum.accumulate(np.concatenate(([np.inf], cuts, [-np.inf])))
        starts = np.arange(edges.size)
        starts[1:] *= edges[1:] - edges[:-1] < -model.TIE_TOL   # 0: merges into the edge before
    return edges[np.maximum.accumulate(starts)]


def _threshold_at(edges: np.ndarray, bonus):
    """s*(B) for a finite bonus, or an array of them: the count of edges above B."""
    return edges.size - edges[::-1].searchsorted(bonus, side="right")


def _bonus_interval(edges: np.ndarray, first: int, last: int, price: float):
    """Bonuses in [0, price] with s*(B) in [first, last]: [edges[last], the float
    just below edges[first - 1]] clipped into [0, price], or None when empty."""
    lo = float(max(0.0, edges[last]))
    hi = float(min(price, np.nextafter(edges[first - 1], -np.inf)))
    return None if hi < lo else (lo, hi)


def threshold_response(params: SystemParams, bonuses: np.ndarray | list[float]) -> np.ndarray:
    """s*(B) for every bonus in ``bonuses``: the count of bonus edges above B.

    Only valid for bonuses within [0, min price]; beyond that the closed form
    stops describing the model.
    """
    b = np.atleast_1d(np.asarray(bonuses, dtype=float))
    if not np.isfinite(b).all():
        raise ValueError("bonuses must be finite")
    return _threshold_at(bonus_edges(params), b)


_SWEEPABLE = {"G": "scan_cost", "P": "wifi_price", "B": "bonus"}
_DIRECTION = {"G": 1, "P": 1, "B": -1}  # +1: s* must not decrease along the grid


def monotonicity_check(
    params: SystemParams, parameter: str, grid: tuple[float, ...] | list[float]
) -> MonotonicityReport:
    """Sweep one cost parameter and check the direction of s* along the grid:
    non-decreasing in G and P, non-increasing in B."""
    if parameter not in _SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {parameter!r}; choose one of G, P, B")
    field = _SWEEPABLE[parameter]
    thresholds = []
    for value in grid:
        swept = replace(params, **{field: float(value)})
        thresholds.append(optimal_threshold(swept).s_star)
    violation = None
    sign = _DIRECTION[parameter]
    for i in range(len(thresholds) - 1):
        if sign * (thresholds[i + 1] - thresholds[i]) < 0:
            violation = (i, thresholds[i], thresholds[i + 1])
            break
    return MonotonicityReport(
        parameter=parameter,
        grid=tuple(float(v) for v in grid),
        thresholds=tuple(thresholds),
        violation=violation,
    )
