"""Spans around agectl's public functions, for the traced benchmark run only.

``install`` replaces every public function and method of the eight modules,
in every agectl namespace that holds it, with a wrapper that records a span:
name, parent span, op id, start and end.  Modules call each other through
these attributes, so nested calls nest their spans.  Spans stay in memory;
``layer_metrics`` turns them into per-layer numbers at the end.
"""
from __future__ import annotations

import enum
import importlib
import inspect
import time

import numpy as np

LAYERS = ("model", "chain", "solver", "thresholds", "publisher", "learning", "tracesim", "cli")

NAME, PARENT, OP, START, END, COUNTS = range(6)


#: work counts read at a span's boundary from its arguments and result
COUNTERS = {
    "solver.solve_user_problem":
        lambda a, r: {"iterations": r.iterations, "residual": r.residual},
    "chain.two_threshold_reward_grid":
        lambda a, r: {"cells": a["params"].max_age * (a["params"].max_age + 1) // 2},
    "thresholds.threshold_response":
        lambda a, r: {"bonuses": int(np.atleast_1d(a["bonuses"]).size)},
    "tracesim.simulate_policy": lambda a, r: {"slots": len(a["trace"])},
    "tracesim.iid_trace": lambda a, r: {"slots": a["n_slots"]},
    "tracesim.parse_trace_text": lambda a, r: {"slots": sum(len(t) for t in r)},
    "tracesim.simulate_population":
        lambda a, r: {"user_slots": len(a["users"]) * a["rounds"] * a["round_slots"]},
}

#: factories whose returned round environment gets its own span per call
ENV_FACTORIES = {
    "learning.chain_sim_env": ("learning.env_chain", lambda a: a["n_users"] * a["round_slots"]),
    "learning.expected_rate_env": ("learning.env_analytic", lambda a: 0),
    "tracesim.trace_env": ("tracesim.env_trace", lambda a: len(a["users"]) * a["round_slots"]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None   # op in flight, -1 for set-up, None records nothing

    def wrap(self, name: str, fn, counter=None, env=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        signature = inspect.signature(fn) if counter or env else None

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.op, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if counter is not None or env is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if counter is not None:
                    rec[COUNTS] = counter(bound, result)
                if env is not None:
                    env_name, user_slots = env
                    per_call = {"user_slots": user_slots(bound)}
                    return self.wrap(env_name, result, lambda a, r: per_call)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_named(self, name: str, fn):
        return self.wrap(name, fn, COUNTERS.get(name), ENV_FACTORIES.get(name))


def install(tracer: Tracer):
    """Wrap the public functions and methods of every layer module in place.

    Returns a function that puts the originals back.
    """
    package = importlib.import_module("agectl")
    modules = {layer: importlib.import_module(f"agectl.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    saved = []

    def swap(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = tracer.wrap_named(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            swap(ns, key, wrapped)
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_") and name != "__post_init__":
                        continue
                    span = f"{layer}.{attr}.{name}"
                    if isinstance(member, (classmethod, staticmethod)):
                        swap(obj, name, type(member)(tracer.wrap_named(span, member.__func__)))
                    elif inspect.isfunction(member):
                        swap(obj, name, tracer.wrap_named(span, member))

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore


# --- per-layer report ----------------------------------------------------------------------

def layer_metrics(spans: list[list], ops: int, bytes_out: float) -> dict[str, tuple]:
    """Per-layer metrics from the spans of one traced phase.

    Counts and self times are per op run: summed over the phase's op spans and
    divided by ``ops``, the number of op runs.  Set-up spans (op -1) give the
    build rates.  ``bytes_out`` is the output per op the benchmark counted.
    Returns name -> (value, unit, the base the value was formed from).
    """
    dur = np.array([s[END] - s[START] for s in spans], dtype=float) * 1e-9
    self_time = dur.copy()
    by_name: dict[tuple[bool, str], list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= dur[i]
        by_name.setdefault((s[OP] < 0, s[NAME]), []).append(i)
    per = max(ops, 1)

    def select(pred, setup=False) -> list[int]:
        return [i for (is_setup, name), idx in by_name.items()
                if is_setup == setup and pred(name) for i in idx]

    def named(name, setup=False) -> list[int]:
        return by_name.get((setup, name), [])

    def secs(idx, inclusive=False) -> float:
        return float((dur if inclusive else self_time)[idx].sum()) if idx else 0.0

    def counts(idx, key):
        return sum((spans[i][COUNTS] or {}).get(key, 0) for i in idx)

    def rate(num, den, scale):
        return num / den * scale if den else 0.0

    def layer_of(name):
        return name.split(".", 1)[0]

    out: dict[str, tuple[float, str, str]] = {}

    def per_op(metric, value, unit, what):
        out[metric] = (value / per, unit, f"{value:.6g} {what} / {ops} op runs")

    for layer in LAYERS:
        idx = select(lambda name, layer=layer: layer_of(name) == layer)
        per_op(f"{layer}.self_s", secs(idx), "s", "s")
        per_op(f"{layer}.calls", len(idx), "count", "calls")

    solve = named("solver.solve_user_problem")
    iters = counts(solve, "iterations")
    solver_s = secs(select(lambda name: layer_of(name) == "solver"))
    per_op("solver.iterations", iters, "count", "iterations")
    out["solver.us_per_iteration"] = (
        rate(solver_s, iters, 1e6), "us", f"{solver_s:.6g} s / {iters} iterations")
    residual = max((spans[i][COUNTS]["residual"] for i in solve), default=0.0)
    out["solver.max_residual"] = (residual, "reward", f"max over {len(solve)} solves")

    per_op("chain.grid_cells", counts(named("chain.two_threshold_reward_grid"), "cells"),
           "count", "cells")
    per_op("thresholds.two_threshold_self_s", secs(named("thresholds.optimal_two_thresholds")),
           "s", "s")

    resp = named("thresholds.threshold_response")
    per_op("thresholds.response_calls", len(resp), "count", "calls")
    per_op("thresholds.response_bonuses", counts(resp, "bonuses"), "count", "bonuses")
    out["thresholds.us_per_response_call"] = (
        rate(secs(resp, True), len(resp), 1e6), "us",
        f"{secs(resp, True):.6g} s / {len(resp)} calls")

    solves = len(named("publisher.optimal_bonus"))
    under = sum(1 for i in resp if _has_ancestor(spans, i, "publisher.optimal_bonus"))
    out["publisher.response_calls_per_solve"] = (
        rate(under, solves, 1), "count", f"{under} response calls / {solves} solves")

    per_op("learning.rounds", len(named("learning.learning_step")), "count", "controller steps")
    controller = select(lambda name: layer_of(name) == "learning" and ".env_" not in name)
    per_op("learning.controller_self_s", secs(controller), "s", "s")
    for env, name in (("chain", "learning.env_chain"), ("trace", "tracesim.env_trace"),
                      ("analytic", "learning.env_analytic")):
        idx = named(name)
        out[f"learning.env_us_per_round.{env}"] = (
            rate(secs(idx, True), len(idx), 1e6), "us",
            f"{secs(idx, True):.6g} s / {len(idx)} rounds")

    replay = named("tracesim.simulate_policy")
    slots = counts(replay, "slots")
    per_op("tracesim.replay_slots", slots, "count", "slots")
    out["tracesim.replay_ns_per_slot"] = (
        rate(secs(replay, True), slots, 1e9), "ns", f"{secs(replay, True):.6g} s / {slots} slots")

    build = named("tracesim.iid_trace", setup=True)
    built = counts(build, "slots")
    out["tracesim.build_ns_per_slot"] = (
        rate(secs(build, True), built, 1e9), "ns",
        f"{secs(build, True):.6g} s / {built} slots built in set-up")
    corpus = named("tracesim.generate_corpus", setup=True)
    out["tracesim.corpus_gen_s"] = (
        secs(corpus, True), "s", f"{len(corpus)} generate_corpus calls in set-up")

    rot = named("tracesim.ContactTrace.rotated")
    per_op("tracesim.rotations", len(rot), "count", "rotations")
    per_op("tracesim.rotate_s", secs(rot, True), "s", "s")

    env = named("tracesim.env_trace")
    user_slots = counts(env, "user_slots")
    out["tracesim.env_ns_per_user_slot"] = (
        rate(secs(env, True), user_slots, 1e9), "ns",
        f"{secs(env, True):.6g} s / {user_slots} user-slots")

    parse = named("tracesim.parse_trace_text")
    parsed = counts(parse, "slots")
    out["tracesim.parse_ns_per_slot"] = (
        rate(secs(parse, True), parsed, 1e9), "ns",
        f"{secs(parse, True):.6g} s / {parsed} slots parsed")

    out["cli.bytes_out"] = (bytes_out, "bytes", "output bytes per op")
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
