"""Average-reward MDP solver: Howard's policy iteration and relative value
iteration on the optimality conditions, greedy policy extraction, and
threshold-structure verification.

Both routes are independent of the closed-form chain analytics, and of each
other past the vector Bellman operator of :func:`_action_terms` and
:func:`_action_values`, which :func:`greedy_policy` reads too; agreement of
the routes is a core correctness check.

* :func:`solve_user_problem`, the solver of record, runs policy iteration
  (Puterman, *Markov Decision Processes*, 1994, section 8.6).  Each policy is
  evaluated exactly by an O(M) back-substitution and improved age by age.
  Its ``iterations`` counts improvement steps, the last of which changes no
  action, and its ``residual`` is the sup-norm Bellman error of the final
  policy's relative values.
* :func:`relative_value_iteration` runs one damped value sweep per
  iteration until the span of its Bellman differences is within ``tol``.  Its
  ``iterations`` counts sweeps, and its ``residual`` is the sup-norm error of
  the last sweep's differences about their midpoint, the gain.  It is kept
  as a cross-check of policy iteration; no subcommand calls it.

Both report the policy that :func:`greedy_policy` reads off the final values,
and raise :class:`ConvergenceError` when ``max_iter`` iterations give no
certificate within ``tol``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import Action, Policy, SystemParams

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000


class ConvergenceError(RuntimeError):
    """A solver found no answer within its tolerance, after ``iterations``
    improvement steps or sweeps; carries the last residual."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class StructureViolation(ValueError):
    """A policy is not of two-threshold type; records the first inversion."""

    def __init__(self, age: int, action: Action, next_action: Action):
        super().__init__(
            f"action order inverted at age {age}: a({age})={int(action)}, "
            f"a({age + 1})={int(next_action)}"
        )
        self.age = age
        self.action = action
        self.next_action = next_action


@dataclass(frozen=True)
class ValueFunction:
    """Relative rewards over ages 1..M (gauge: value at age 1 is 0) plus the gain."""

    values: np.ndarray
    gain: float

    def __call__(self, age: int) -> float:
        return float(self.values[age - 1])


@dataclass(frozen=True)
class SolveReport:
    value: ValueFunction
    policy: Policy
    iterations: int
    residual: float  # sup-norm Bellman error


def bellman_values(
    x: int, value: ValueFunction, params: SystemParams
) -> tuple[float, float, float | None]:
    """Relative action values (F0, F1, F2) at age ``x``; F2 is None without 3G."""
    v = value.values
    M = params.max_age
    p = params.contact_prob
    u = params.utility(x)
    v1 = float(v[0])
    vnext = float(v[min(x + 1, M) - 1])
    f0 = u + vnext
    f1 = (
        u - params.scan_cost + p * (v1 - params.wifi_price + params.bonus) + (1.0 - p) * vnext
    )
    if not params.has_3g:
        return f0, f1, None
    f2 = (
        u - params.scan_cost + v1
        - p * params.wifi_price - (1.0 - p) * params.price_3g + params.bonus
    )
    return f0, f1, f2


def _action_terms(params: SystemParams, v0: float) -> list[np.ndarray]:
    """The terms of the action values over all ages that do not read V(x+1),
    for the value v₀ = V(1), in the float order of :func:`bellman_values`:
    u, F1's base (u − G) + p·(v₀ − P + B), and with 3G
    F2 = ((((u − G) + v₀) − p·P) − (1−p)·P3G) + B.  F0 = u + V(x+1) and
    F1 = base + (1−p)·V(x+1) complete them (:func:`_action_values`)."""
    p, q = params.contact_prob, 1.0 - params.contact_prob
    u = np.asarray(params.utility.values)
    terms = [u, u - params.scan_cost + p * (v0 - params.wifi_price + params.bonus)]
    if params.has_3g:
        terms.append(u - params.scan_cost + v0 - p * params.wifi_price - q * params.price_3g + params.bonus)
    return terms


def _check_limits(tol: float, max_iter: int) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def solve_user_problem(
    params: SystemParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Howard's policy iteration from the all-WiFi policy, which is unichain.

    Each step evaluates the current policy exactly (:func:`_evaluate`) and
    improves it: an age switches to its best action only when that beats its
    current action by more than ``min(model.TIE_TOL, tol / 2)``.  So a tie
    keeps the current action, and the iteration cannot cycle among tied
    policies; and a policy that no age leaves has a Bellman error within that
    margin, up to rounding.  The margin is narrowed from ``model.TIE_TOL`` to
    ``tol / 2`` so that the certificate can hold: at p = 1e-300, G = 1e-9 and
    P = 3, activating costs G + p·P, ``TIE_TOL`` up to rounding, more than
    waiting at every age.  A ``TIE_TOL`` margin switches only the ages where
    rounding puts that above the margin, and stops at a stable policy with a
    Bellman error of 1e-9.  ``iterations`` counts the improvement steps, the
    last of which changes nothing.

    The report holds the stable policy's values.  ``residual`` is their
    sup-norm Bellman error, and the policy is the one :func:`greedy_policy`
    reads off them (the cheapest action within ``model.TIE_TOL`` of the
    best), put in threshold form by :func:`_threshold_form` should it not
    be.  A residual that is not within ``tol``, nan and inf included, raises
    :class:`ConvergenceError`, and so do ``max_iter`` steps that each change
    the policy.  The action terms are read once, through
    :func:`_action_terms`, and numpy's floating-point warnings are off.
    """
    _check_limits(tol, max_iter)
    p = params.contact_prob
    ages = np.arange(params.max_age)
    codes = np.full(params.max_age, int(Action.WIFI))
    margin = min(model.TIE_TOL, tol / 2)
    with np.errstate(all="ignore"):   # values past the float range fail the residual test
        terms = _action_terms(params, 0.0)
        for step in range(1, max_iter + 1):
            values, gain = _evaluate(codes, terms, p)
            fs = np.stack(_action_values(terms, 1.0 - p, values))
            top = fs.max(axis=0)
            residual = float(np.max(np.abs(top - values - gain)))
            switch = top > fs[codes, ages] + margin
            if not switch.any():
                break
            codes = np.where(switch, fs.argmax(axis=0), codes)
        else:
            raise ConvergenceError(max_iter, residual)
    if not residual <= tol:
        raise ConvergenceError(step, residual)
    return SolveReport(
        value=ValueFunction(values=values, gain=gain),
        policy=_threshold_form(_tie_rule(fs)),
        iterations=step,
        residual=residual,
    )


def _evaluate(codes: np.ndarray, terms: list[np.ndarray], p: float) -> tuple[np.ndarray, float]:
    """Relative values h over ages 1..M, with h(1) = 0, and the gain g of the
    policy with per-age action codes ``codes``, exact up to rounding, in O(M).

    ``terms[a]`` holds the one-slot rewards r(x) of action a, the terms of
    :func:`_action_terms` at V(1) = 0.  Every age x moves to 1 or to
    min(x + 1, M), so h(x) = r(x) - g + b(x) h(x + 1) below M, with b(x) = 1,
    1 - p and 0 for actions 0, 1 and 2, and d h(M) = r(M) - g at M, with d =
    0, p and 1.  The one unknown is t = h(M): then g = r(M) - d t, and
    h(x) = (r(x) - r(M)) + d t + b(x) h(x + 1) is affine in t, A(x) + B(x) t,
    with A(M) = 0 and B(M) = 1.  Back-substituting to age 1, h(1) = 0 gives
    t = -A(1) / B(1).  A second pass gives h from t and g, down to the h(1)
    that the recurrence yields.  That is 0 up to the rounding of both
    passes, and one Newton step dt = -h(1) / B(1), which adds B(x) dt to
    each h(x) and takes d dt from g, removes most of it, so the Bellman
    error at age 1 stays at the level of the other ages'.  A policy
    inactive at M (d = 0) makes M absorbing with u(M) = 0, so its gain is 0.
    Taking h(M), not g, as the unknown keeps 1/p out of the recurrence: with
    g as the unknown, a WiFi action at M gives h(M) = (r(M) - g) / p, which
    scales the rounding of g by 1/p, 1e300 at p = 1e-300.

    B(1) = d (1 + b(1) + b(1) b(2) + ...) + b(1) ... b(M - 1) is 0 only when
    M absorbs and age 1 never reaches it, a policy with two recurrent classes
    that the unichain equations do not value: h and g are then nan.
    """
    r = np.choose(codes, terms)
    stay = np.array((1.0, 1.0 - p, 0.0))[codes[-2::-1]].tolist()   # b(x), x = M - 1 down to 1
    d = (0.0, p, 1.0)[codes[-1]]
    A, B = 0.0, 1.0
    slopes = [B]   # B(x), x = M down to 1
    for c, b in zip((r[-2::-1] - r[-1]).tolist(), stay):
        A = c + b * A
        B = d + b * B
        slopes.append(B)
    if not B:
        return np.full(len(r), math.nan), math.nan
    t = -A / B
    gain = float(r[-1]) - d * t
    v = t
    h = [v]   # h(x), x = M down to 1
    for c, b in zip((r[-2::-1] - gain).tolist(), stay):
        v = c + b * v
        h.append(v)
    dt = -v / B
    values = np.array(h[::-1]) + np.array(slopes[::-1]) * dt
    values[0] = 0.0
    return values, gain - d * dt


def _threshold_form(codes: np.ndarray) -> Policy:
    """The policy with per-age action codes ``codes``, in the paper's
    threshold form: the action at the lowest age whose action exceeds the
    next age's is set to inactive, again until no age's does.  That fixed
    point, computed at once, makes every age up to the last such inversion
    inactive; a policy without one is returned as it is."""
    inverted = np.flatnonzero(codes[1:] < codes[:-1])
    if inverted.size:
        codes = codes.copy()
        codes[: inverted[-1] + 1] = Action.INACTIVE
    return Policy(actions=tuple(codes.tolist()))


def relative_value_iteration(
    params: SystemParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Relative value iteration with the value at age 1 pinned to zero.

    Each sweep takes the Bellman differences of the state through
    :func:`_action_values` and stops when their span drops to ``tol``; the
    gain is then their midpoint and the residual their sup-norm distance
    from it.  Otherwise the state takes a damped half-step, the aperiodicity
    transform, because deterministic reset cycles (3G bands, p near 1) make
    the undamped iteration oscillate; the fixed point is unchanged.  The
    gauge step keeps V(1) at exactly 0.0, so the action terms are read once.

    Values that leave the float range, as inf or nan, never come back, and
    their spans never fall to ``tol``: the first span that is not finite
    raises :class:`ConvergenceError` with that span.  numpy's floating-point
    warnings are off for the sweeps.
    """
    _check_limits(tol, max_iter)
    q = 1.0 - params.contact_prob
    v = np.zeros(params.max_age)
    with np.errstate(all="ignore"):   # values past the float range stop the loop below
        terms = _action_terms(params, 0.0)
        for sweep in range(1, max_iter + 1):
            delta = np.maximum.reduce(_action_values(terms, q, v)) - v
            hi, lo = float(delta.max()), float(delta.min())
            span = hi - lo
            if span <= tol:
                break
            if not math.isfinite(span):
                raise ConvergenceError(sweep, span)
            v = v + 0.5 * delta
            v = v - v[0]
        else:
            raise ConvergenceError(max_iter, span)
    gain = 0.5 * hi + 0.5 * lo   # 0.5 * (hi + lo) overflows when both are near the float limit
    value = ValueFunction(values=v, gain=gain)
    return SolveReport(
        value=value,
        policy=greedy_policy(value, params),
        iterations=sweep,
        residual=float(np.max(np.abs(delta - gain))),
    )


def greedy_policy(value: ValueFunction, params: SystemParams) -> Policy:
    """Per-age argmax over action values; actions within ``model.TIE_TOL`` of
    the best tie, and ties go to the lower-numbered action.  numpy's
    floating-point warnings are off, as in the solvers."""
    v = np.asarray(value.values)
    with np.errstate(all="ignore"):
        terms = _action_terms(params, v[0])
        codes = _tie_rule(_action_values(terms, 1.0 - params.contact_prob, v))
    return Policy(actions=tuple(codes.tolist()))


def _action_values(terms: list[np.ndarray], q: float, v: np.ndarray) -> list[np.ndarray]:
    """F0 = u + V(x+1), F1 = base + (1−p)·V(x+1) and F2, without 3G only the
    first two, over all ages, from the terms of :func:`_action_terms`."""
    vnext = np.append(v[1:], v[-1])  # V(min(x+1, M))
    return [terms[0] + vnext, terms[1] + q * vnext, *terms[2:]]


def _tie_rule(fs) -> np.ndarray:
    """The action codes :func:`greedy_policy` picks from the action values
    ``fs``: the lowest action within ``model.TIE_TOL`` of the best."""
    cut = np.maximum.reduce(fs) - model.TIE_TOL
    return np.where(
        fs[0] >= cut, Action.INACTIVE, np.where(fs[1] >= cut, Action.WIFI, Action.WIFI_THEN_3G)
    )


def verify_threshold_structure(policy: Policy) -> tuple[int, int]:
    """Check that actions are non-decreasing in age as a 0/1/2 sequence.

    Returns the two switch points (WiFi threshold, 3G threshold); an absent
    switch is encoded as max_age + 1.  Raises :class:`StructureViolation` at
    the first inversion otherwise.
    """
    acts = policy.actions
    codes = np.frombuffer(bytes(acts), np.uint8)
    inverted = np.flatnonzero(codes[1:] < codes[:-1])
    if inverted.size:
        age = int(inverted[0]) + 1
        raise StructureViolation(age, acts[age - 1], acts[age])
    s_wifi = 1 + int(np.count_nonzero(codes == Action.INACTIVE))
    s_3g = 1 + int(np.count_nonzero(codes < Action.WIFI_THEN_3G))
    return s_wifi, s_3g
