"""Average-reward MDP solver: relative value iteration on the optimality
conditions, greedy policy extraction, and threshold-structure verification.

This route is independent of the closed-form chain analytics; agreement of the
two is a core correctness check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import Action, Policy, SystemParams

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000
#: RVI sweeps run between two convergence checks (see :func:`solve_user_problem`)
SWEEP_BATCH = 16


class ConvergenceError(RuntimeError):
    """Relative value iteration ran out of iterations; carries the last residual."""

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


def _action_terms(params: SystemParams, v0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The terms of the action values over all ages that do not read V(x+1),
    for the value v₀ = V(1), in the float order of :func:`bellman_values`:
    u, F1's base (u − G) + p·(v₀ − P + B), and F2 = ((((u − G) + v₀) − p·P)
    − (1−p)·P3G) + B, None without 3G.  F0 = u + V(x+1) and
    F1 = base + (1−p)·V(x+1) complete them."""
    p, q = params.contact_prob, 1.0 - params.contact_prob
    u = np.asarray(params.utility.values)
    f1_base = u - params.scan_cost + p * (v0 - params.wifi_price + params.bonus)
    f2 = None
    if params.has_3g:
        f2 = u - params.scan_cost + v0 - p * params.wifi_price - q * params.price_3g + params.bonus
    return u, f1_base, f2


def solve_user_problem(
    params: SystemParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Relative value iteration with the value at age 1 pinned to zero.

    Stops when the span seminorm of successive Bellman differences drops to
    ``tol``; the reported residual is then the sup-norm error of the
    optimality conditions.  Updates are damped half-steps — the aperiodicity
    transform — because deterministic reset cycles (3G bands, p near 1) make
    the undamped iteration oscillate.  The fixed point is unchanged.

    Each sweep runs in preallocated buffers and keeps the documented float
    order of :func:`bellman_values`: F1 = ((u − G) + p·(v₀ − P + B)) + (1−p)·V(x+1)
    and F2 = ((((u − G) + v₀) − p·P) − (1−p)·P3G) + B.  The gauge step leaves
    v₀ = V(1) at exactly 0.0 in every sweep, so the terms without V(x+1) are
    computed once, by :func:`_action_terms`, before the loop.

    Sweeps run in batches of ``SWEEP_BATCH``: sweep j of a batch reads its
    state from row j of a buffer and writes its Bellman differences to row j
    of another and its damped, gauged state to row j + 1, and the spans of a
    whole batch are checked at once when it ends (or at ``max_iter``).  This
    is exact, not an approximation of the per-sweep stop: a sweep's state
    depends only on the state before it, never on the check, so every row up
    to the first one whose span is within ``tol`` holds the same bits the
    per-sweep loop held at that iteration, and the report reads that row's
    state and differences only; the sweeps after it are discarded.  A max or
    min reduction returns one of its inputs, so a row's span is the per-sweep
    span up to the sign of a zero, which ``<=`` ignores; the gain, whose sign
    bit could see it, comes from the row's own ``max`` and ``min``.

    Values that leave the float range, as inf or nan, never come back, and
    their spans never fall to ``tol``: a batch that ends on a span that is not
    finite raises :class:`ConvergenceError` at the batch's first such sweep,
    with that span.  numpy's floating-point warnings are off for the sweeps.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    M = params.max_age
    q = 1.0 - params.contact_prob
    u, f1_base, f2 = _action_terms(params, 0.0)
    # row j holds V(1..M) and then V(M) again, so w[1:][x - 1] = V(min(x + 1, M))
    states = np.zeros((SWEEP_BATCH + 1, M + 1))
    deltas = np.empty((SWEEP_BATCH, M))
    sweeps = [
        (states[j, :M], states[j, 1:], deltas[j], states[j + 1], states[j + 1, :M])
        for j in range(SWEEP_BATCH)
    ]
    tv, f = np.empty(M), np.empty(M)
    q_arr, damp = np.array(q), np.array(0.5)
    add, multiply, subtract, maximum = np.add, np.multiply, np.subtract, np.maximum
    done = 0
    with np.errstate(all="ignore"):   # values past the float range stop the loop below
        while True:
            n = min(SWEEP_BATCH, max_iter - done)
            for v, vnext, delta, w, nv in sweeps[:n]:
                add(u, vnext, out=tv)
                multiply(vnext, q_arr, out=f)
                add(f1_base, f, out=f)
                maximum(tv, f, out=tv)
                if f2 is not None:
                    maximum(tv, f2, out=tv)
                subtract(tv, v, out=delta)
                multiply(delta, damp, out=f)
                add(v, f, out=nv)
                subtract(nv, nv[0], out=nv)
                w[M] = w[M - 1]
            batch = deltas[:n]
            spans = batch.max(axis=1) - batch.min(axis=1)
            hits = np.flatnonzero(spans <= tol)
            if hits.size:
                break
            if not math.isfinite(spans[n - 1]):   # values past the float range never come back
                j = int(np.flatnonzero(~np.isfinite(spans))[0])
                raise ConvergenceError(done + j + 1, float(spans[j]))
            done += n
            if done == max_iter:
                raise ConvergenceError(max_iter, float(spans[n - 1]))
            states[0] = states[n]
    j = int(hits[0])
    v, _, delta, _, _ = sweeps[j]
    hi, lo = delta.max(), delta.min()
    gain = 0.5 * float(hi + lo)
    residual = float(np.max(np.abs(delta - gain)))
    value = ValueFunction(values=v - v[0], gain=gain)
    return SolveReport(
        value=value,
        policy=greedy_policy(value, params),
        iterations=done + j + 1,
        residual=residual,
    )


def greedy_policy(value: ValueFunction, params: SystemParams) -> Policy:
    """Per-age argmax over action values; actions within ``model.TIE_TOL`` of
    the best tie, and ties go to the lower-numbered action."""
    v = np.asarray(value.values)
    u, f1_base, f2 = _action_terms(params, v[0])
    vnext = np.append(v[1:], v[-1])  # V(min(x+1, M))
    fs = [u + vnext, f1_base + (1.0 - params.contact_prob) * vnext] + ([] if f2 is None else [f2])
    cut = np.maximum.reduce(fs) - model.TIE_TOL
    actions = np.where(
        fs[0] >= cut, Action.INACTIVE, np.where(fs[1] >= cut, Action.WIFI, Action.WIFI_THEN_3G)
    )
    return Policy(actions=tuple(actions.tolist()))


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
