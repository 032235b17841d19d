"""Core model: system parameters, utility functions, actions, rewards, age dynamics.

Ages are 1-based integers in [1, max_age]; thresholds live in [1, max_age + 1],
with max_age + 1 meaning "never activate".
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


#: rewards, action values and bonus edges this close tie: an absolute margin in the
#: money units shared by the utility, the costs, the prices and the bonus
TIE_TOL = 1e-9
#: float-noise slack in the same units: a bonus past its cap, or a replayed mean ahead
#: of the best, by at most this, counts as not doing so
SLACK_TOL = 1e-12


class Action(IntEnum):
    INACTIVE = 0
    WIFI = 1
    WIFI_THEN_3G = 2  # WiFi if a useful contact exists this slot, else 3G


@dataclass(frozen=True)
class UtilityFunction:
    """Non-increasing map from message age (1-based) to utility: every value
    at most the one before; no tolerance.

    ``offset`` records the constant removed so that the utility at the maximum
    age is zero; shifting by a constant never changes which policy is optimal,
    so everything downstream works on the normalized values.

    Building a utility also stores its values as a read-only float64 array,
    ``value_array``, which every route reads.  It is not a field: equality,
    hashing, the repr and pickles use the tuple.
    """

    values: tuple[float, ...]
    form: str = "tabular"
    offset: float = 0.0
    step_value: float | None = None   # step form only
    step_cutoff: int | None = None    # step form only

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"utility needs at least one age, got {self.values!r}")
        for age, v in enumerate(self.values, start=1):
            if not math.isfinite(v):
                raise ValueError(f"utility must be finite: u({age}) = {v!r}")
        if self.step_cutoff is not None and self.step_cutoff < 1:
            raise ValueError(f"step cutoff must be >= 1, got {self.step_cutoff}")
        for age, (a, b) in enumerate(zip(self.values, self.values[1:]), start=1):
            if b > a:
                raise ValueError(
                    f"utility must be non-increasing: u({age + 1}) = {b!r} > u({age}) = {a!r}")
        object.__setattr__(self, "value_array", _read_only(np.array(self.values, np.float64)))

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    @property
    def max_age(self) -> int:
        return len(self.values)

    def __call__(self, age: int) -> float:
        if not 1 <= age <= len(self.values):
            raise ValueError(f"age {age} outside [1, {len(self.values)}]")
        return self.values[age - 1]

    @classmethod
    def linear(cls, max_age: int) -> "UtilityFunction":
        """Utility max_age - x, already zero at the maximum age."""
        vals = tuple(float(max(max_age - x, 0)) for x in range(1, max_age + 1))
        return cls(values=vals, form="linear")

    @classmethod
    def step(cls, value: float, cutoff: int, max_age: int) -> "UtilityFunction":
        """Utility ``value`` while age <= cutoff, zero afterwards."""
        if value < 0:
            raise ValueError(f"step value must be nonnegative, got {value}")
        vals = tuple(float(value) if x <= cutoff else 0.0 for x in range(1, max_age + 1))
        return cls(values=vals, form="step", step_value=float(value), step_cutoff=int(cutoff))

    @classmethod
    def tabular(cls, values: Sequence[float]) -> "UtilityFunction":
        return cls(values=tuple(float(v) for v in values), form="tabular")


def normalize_utility(utility: UtilityFunction) -> UtilityFunction:
    """Shift the utility so its value at the maximum age is zero.

    The removed constant is accumulated in ``offset`` for reporting; optimal
    policies under the shifted and unshifted utilities coincide.
    """
    tail = utility.values[-1]
    if tail == 0.0:
        return utility
    return replace(
        utility,
        values=tuple(v - tail for v in utility.values),
        offset=utility.offset + tail,
    )


@dataclass(frozen=True)
class SystemParams:
    """All scalar model parameters for one user population.

    ``price_3g=None`` means the user has no 3G plan: action 2 is illegal, not
    just expensive.  The utility is stored post-normalization.
    """

    contact_prob: float          # per-slot probability of a useful WiFi contact
    max_age: int                 # ages saturate here; utility is zero at max_age
    utility: UtilityFunction
    scan_cost: float = 0.0       # cost of one active slot (WiFi scanning)
    wifi_price: float = 0.0      # price per update over WiFi
    price_3g: float | None = None
    bonus: float = 0.0           # publisher credit per update, <= min price

    def __post_init__(self) -> None:
        if not 0.0 < self.contact_prob < 1.0:
            raise ValueError(f"contact probability must be in (0, 1), got {self.contact_prob}")
        if self.max_age < 2:
            raise ValueError(f"max_age must be >= 2, got {self.max_age}")
        if not (math.isfinite(self.scan_cost) and math.isfinite(self.wifi_price)):
            raise ValueError(f"costs must be finite, got G={self.scan_cost}, P={self.wifi_price}")
        if self.scan_cost < 0 or self.wifi_price < 0:
            raise ValueError(f"costs must be nonnegative, got G={self.scan_cost}, P={self.wifi_price}")
        if self.price_3g is not None:
            if math.isnan(self.price_3g):
                raise ValueError("3G price must be a number or inf, got nan")
            if math.isinf(self.price_3g):
                object.__setattr__(self, "price_3g", None)
            elif self.price_3g < 0:
                raise ValueError(f"3G price must be nonnegative, got {self.price_3g}")
        cap = self.wifi_price if self.price_3g is None else min(self.wifi_price, self.price_3g)
        if not 0 <= self.bonus <= cap + SLACK_TOL:
            raise ValueError(f"bonus must lie in [0, {cap}], got {self.bonus}")
        if self.utility.max_age != self.max_age:
            raise ValueError(
                f"utility covers ages 1..{self.utility.max_age}, expected 1..{self.max_age}"
            )
        object.__setattr__(self, "utility", normalize_utility(self.utility))

    @property
    def has_3g(self) -> bool:
        return self.price_3g is not None


def instantaneous_reward(params: SystemParams, age: int, action: Action, contact: int) -> float:
    """One-slot reward: utility minus activation cost minus bonus-reduced price.

    The price paid is the WiFi price when an update happens over WiFi, the 3G
    price when action 2 falls back to 3G, and nothing otherwise; the bonus can
    never turn a price into income.
    """
    if not 1 <= age <= params.max_age:
        raise ValueError(f"age {age} outside [1, {params.max_age}]")
    if contact not in (0, 1):
        raise ValueError(f"contact indicator must be 0 or 1, got {contact}")
    action = Action(action)
    if action is Action.WIFI_THEN_3G and not params.has_3g:
        raise ValueError("action 2 requires a finite 3G price")

    reward = params.utility(age)
    if action is not Action.INACTIVE:
        reward -= params.scan_cost
    if action is Action.WIFI_THEN_3G and contact == 0:
        reward -= max(params.price_3g - params.bonus, 0.0)
    elif action is not Action.INACTIVE and contact == 1:
        reward -= max(params.wifi_price - params.bonus, 0.0)
    return reward


def next_age(age: int, action: Action, contact: int, max_age: int) -> int:
    """Age transition: reset to 1 on an update, otherwise grow and saturate."""
    if not 1 <= age <= max_age:
        raise ValueError(f"age {age} outside [1, {max_age}]")
    action = Action(action)
    if action is Action.WIFI_THEN_3G or (action is Action.WIFI and contact == 1):
        return 1
    return min(age + 1, max_age)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: each Action by its code; members hash as their codes, so they map to themselves
_ACTIONS = {int(a): a for a in Action}


@dataclass(frozen=True)
class Policy:
    """Deterministic per-age action map; index i holds the action at age i+1."""

    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        try:
            actions = tuple(map(_ACTIONS.__getitem__, self.actions))
        except (KeyError, TypeError):   # Action() names the first invalid code
            actions = tuple(map(Action, self.actions))
        object.__setattr__(self, "actions", actions)

    @property
    def max_age(self) -> int:
        return len(self.actions)

    def action_at(self, age: int) -> Action:
        if not 1 <= age <= len(self.actions):
            raise ValueError(f"age {age} outside [1, {len(self.actions)}]")
        return self.actions[age - 1]

    @classmethod
    def from_thresholds(
        cls, wifi_threshold: int, threshold_3g: int | None, max_age: int
    ) -> "Policy":
        """Two-threshold policy: inactive below ``wifi_threshold``, WiFi up to
        ``threshold_3g``, action 2 from there on.  ``max_age + 1`` disables a
        band; ``threshold_3g=None`` means no 3G at all."""
        never = max_age + 1
        s3 = never if threshold_3g is None else threshold_3g
        if not 1 <= wifi_threshold <= never:
            raise ValueError(f"WiFi threshold {wifi_threshold} outside [1, {never}]")
        if not wifi_threshold <= s3 <= never:
            raise ValueError(f"3G threshold {s3} outside [{wifi_threshold}, {never}]")
        return cls(actions=(Action.INACTIVE,) * (wifi_threshold - 1) + (Action.WIFI,) * (s3 - wifi_threshold)
                   + (Action.WIFI_THEN_3G,) * (never - s3))

    def uses_3g(self) -> bool:
        return Action.WIFI_THEN_3G in self.actions


# --- flat key-value parameter files -------------------------------------------------
#
# Keys: p, M, G, P, P3G, B, utility.form, utility.v, utility.k, utility.values.
# "P3G = inf" marks 3G as unavailable.  Lines starting with '#' are comments.

def parse_param(key: str, raw: str, parse):
    """``parse(raw)``; a value that does not parse raises a ValueError that
    names ``key``."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"parameter '{key}': {exc}") from None


def params_from_mapping(mapping: Mapping[str, str]) -> SystemParams:
    data = {k.strip(): str(v).strip() for k, v in mapping.items()}

    def need(key: str, parse, default: str | None = None):
        raw = data.get(key, default)
        if raw is None:
            raise ValueError(f"missing required parameter '{key}'")
        return parse_param(key, raw, parse)

    max_age = need("M", int)
    if max_age < 2:
        raise ValueError(f"M must be >= 2, got {max_age}")
    form = data.get("utility.form", "linear").lower()
    if form == "linear":
        utility = UtilityFunction.linear(max_age)
    elif form == "step":
        utility = UtilityFunction.step(need("utility.v", float), need("utility.k", int), max_age)
    elif form == "tabular":
        values = need("utility.values", lambda raw: [float(v) for v in raw.split(",")])
        utility = UtilityFunction.tabular(values)
    else:
        raise ValueError(f"unknown utility form '{form}'")

    p3g_raw = data.get("P3G", "inf").lower()
    price_3g = None if p3g_raw in ("inf", "infinity", "none") else need("P3G", float)

    return SystemParams(
        contact_prob=need("p", float),
        max_age=max_age,
        utility=utility,
        scan_cost=need("G", float, "0"),
        wifi_price=need("P", float, "0"),
        price_3g=price_3g,
        bonus=need("B", float, "0"),
    )


def read_mapping(path: str | Path) -> dict[str, str]:
    """Read the ``key = value`` lines of a flat parameter file."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def load_params(path: str | Path) -> SystemParams:
    """Read SystemParams from a flat ``key = value`` file."""
    return params_from_mapping(read_mapping(path))
