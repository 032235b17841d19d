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
_REVISIT_ROWS = 16   # rows per chunk when a two-threshold search recomputes rows


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
    """Best (s_wifi, s_3g) pair by exhaustive closed-form evaluation.

    When the 3G price is dominated by the WiFi cycle cost G/p + P the WiFi
    band is empty and only the 3G-only family competes with always-inactive;
    otherwise the full triangular grid plus the WiFi-only edge is searched.
    Every pair within ``model.TIE_TOL`` of the best reward ties; ties prefer
    smaller s_3g, then smaller s_wifi (least escalation).  Always-inactive wins
    unless some pair earns more than ``model.TIE_TOL``.

    The grid is streamed: one pass folds the row blocks of
    :func:`chain.two_threshold_reward_grid` into column maxima, so memory
    stays O(max_age) plus one block.  The winning column's first row within
    the tie of the best is then read from the last block, or recomputed in
    short row chunks, only up to that column, from the first block that came
    within the tie of the column's maximum.
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
        s3 = int(np.argmax(only_3g >= top - tie)) + 1
        return TwoThresholdResult(s_wifi=s3, s_3g=s3, reward=float(only_3g[s3 - 1]))

    wifi_only = chain.threshold_reward_curve(params)[:M]
    column_top = np.full(M, -np.inf)
    # rows before column_from[c] stay more than the tie below column_top[c], so
    # below the final floor too: the first row within the tie lies at or after it
    column_from = np.zeros(M, dtype=np.intp)
    for r0, block in chain._two_threshold_blocks(params):
        tops = block.max(axis=0)
        seen = column_top[r0:]
        np.copyto(column_from[r0:], r0, where=tops - tie > seen)
        np.maximum(seen, tops, out=seen)
    top = max(float(column_top.max()), float(wifi_only.max()))
    if top <= tie:
        return TwoThresholdResult(s_wifi=never, s_3g=never, reward=0.0)
    floor = top - tie
    columns = column_top >= floor
    if columns.any():
        s3 = int(np.argmax(columns)) + 1
        start = int(column_from[s3 - 1])
        if start < r0:
            blocks = chain._two_threshold_blocks(params, _REVISIT_ROWS, start, s3)
        else:
            blocks = [(r0, block)]
        for r0, block in blocks:
            column = block[:, s3 - 1 - r0]
            hits = column >= floor
            if hits.any():
                k = int(np.argmax(hits))
                return TwoThresholdResult(s_wifi=r0 + k + 1, s_3g=s3, reward=float(column[k]))
    s_w = int(np.argmax(wifi_only >= floor)) + 1
    return TwoThresholdResult(s_wifi=s_w, s_3g=never, reward=float(wifi_only[s_w - 1]))


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
