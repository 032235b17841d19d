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


class Action(IntEnum):
    INACTIVE = 0
    WIFI = 1
    WIFI_THEN_3G = 2  # WiFi if a useful contact exists this slot, else 3G


@dataclass(frozen=True)
class UtilityFunction:
    """Non-increasing map from message age (1-based) to utility.

    ``offset`` records the constant removed so that the utility at the maximum
    age is zero; shifting by a constant never changes which policy is optimal,
    so everything downstream works on the normalized values.
    """

    values: tuple[float, ...]
    form: str = "tabular"
    offset: float = 0.0
    step_value: float | None = None   # step form only
    step_cutoff: int | None = None    # step form only

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("utility needs at least one age")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"utility values must be finite, got {self.values}")
        if self.step_cutoff is not None and self.step_cutoff < 1:
            raise ValueError(f"step cutoff must be >= 1, got {self.step_cutoff}")
        for a, b in zip(self.values, self.values[1:]):
            if b > a + 1e-12:
                raise ValueError(f"utility must be non-increasing, got {a} -> {b}")

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
            raise ValueError("step value must be nonnegative")
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
            raise ValueError("costs must be nonnegative")
        if self.price_3g is not None:
            if math.isnan(self.price_3g):
                raise ValueError("3G price must be a number or inf, got nan")
            if math.isinf(self.price_3g):
                object.__setattr__(self, "price_3g", None)
            elif self.price_3g < 0:
                raise ValueError("3G price must be nonnegative")
        cap = self.wifi_price if self.price_3g is None else min(self.wifi_price, self.price_3g)
        if not 0 <= self.bonus <= cap + 1e-12:
            raise ValueError(f"bonus must lie in [0, {cap}], got {self.bonus}")
        if self.utility.max_age != self.max_age:
            raise ValueError(
                f"utility covers ages 1..{self.utility.max_age}, expected 1..{self.max_age}"
            )
        object.__setattr__(self, "utility", normalize_utility(self.utility))

    @property
    def has_3g(self) -> bool:
        return self.price_3g is not None

    @property
    def scaled_scan_cost(self) -> float:
        """Scan cost divided by (max_age - 1); the cost knob used in sweeps."""
        return self.scan_cost / (self.max_age - 1)

    def with_bonus(self, bonus: float) -> "SystemParams":
        return replace(self, bonus=bonus)


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


@dataclass(frozen=True)
class Policy:
    """Deterministic per-age action map; index i holds the action at age i+1."""

    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(Action(a) for a in self.actions))

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
        acts = []
        for age in range(1, max_age + 1):
            if age >= s3:
                acts.append(Action.WIFI_THEN_3G)
            elif age >= wifi_threshold:
                acts.append(Action.WIFI)
            else:
                acts.append(Action.INACTIVE)
        return cls(actions=tuple(acts))

    def uses_3g(self) -> bool:
        return Action.WIFI_THEN_3G in self.actions


# --- flat key-value parameter files -------------------------------------------------
#
# Keys: p, M, G, P, P3G, B, utility.form, utility.v, utility.k, utility.values.
# "P3G = inf" marks 3G as unavailable.  Lines starting with '#' are comments.

def params_from_mapping(mapping: Mapping[str, str]) -> SystemParams:
    data = {k.strip(): str(v).strip() for k, v in mapping.items()}

    def need(key: str) -> str:
        if key not in data:
            raise ValueError(f"missing required parameter '{key}'")
        return data[key]

    max_age = int(need("M"))
    form = data.get("utility.form", "linear").lower()
    if form == "linear":
        utility = UtilityFunction.linear(max_age)
    elif form == "step":
        utility = UtilityFunction.step(float(need("utility.v")), int(need("utility.k")), max_age)
    elif form == "tabular":
        values = [float(v) for v in need("utility.values").split(",")]
        utility = UtilityFunction.tabular(values)
    else:
        raise ValueError(f"unknown utility form '{form}'")

    p3g_raw = data.get("P3G", "inf").lower()
    price_3g = None if p3g_raw in ("inf", "infinity", "none") else float(p3g_raw)

    return SystemParams(
        contact_prob=float(need("p")),
        max_age=max_age,
        utility=utility,
        scan_cost=float(data.get("G", "0")),
        wifi_price=float(data.get("P", "0")),
        price_3g=price_3g,
        bonus=float(data.get("B", "0")),
    )


def load_params(path: str | Path) -> SystemParams:
    """Read SystemParams from a flat ``key = value`` file."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return params_from_mapping(mapping)
