"""Core model: system parameters, utility functions, actions, rewards, age dynamics.

Ages are 1-based integers in [1, max_age]; thresholds live in [1, max_age + 1],
with max_age + 1 meaning "never activate".
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


#: rewards, action values and bonus edges this close tie: an absolute margin in the
#: money units shared by the utility, the costs, the prices and the bonus
TIE_TOL = 1e-9
#: float-noise slack in the same units: a utility that rises with age, a bonus past its
#: cap, or a replayed mean ahead of the best, by at most this, counts as not doing so
SLACK_TOL = 1e-12


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
            if b > a + SLACK_TOL:
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

    @property
    def scaled_scan_cost(self) -> float:
        """Scan cost divided by (max_age - 1); the cost knob used in sweeps."""
        return self.scan_cost / (self.max_age - 1)


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


#: replay rows longer than this many slots run as chunks of this length
CHUNK_SLOTS = 256
#: cells (rows x slots) held by one block of a replay or of its counts
BLOCK_CELLS = 1 << 16
#: cells (policies x contact patterns x ages x slots) a cached k-slot step table may hold
TABLE_CELLS = 1 << 19


@functools.lru_cache(maxsize=64)
def _step_table(codes: bytes, policies: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The ages after each slot of a k-slot step, and that table's last column
    made contiguous, both read-only, for the uint8 action table of
    ``policies`` rows of M ages held in ``codes``.

    Row ((policy * 2**k + pattern) * M + age - 1) holds the k ages that follow
    the age ``age`` when bit j of ``pattern`` is the contact of the step's slot
    j + 1.  k is the largest of 8, 4, 2 and 1 whose table holds at most
    TABLE_CELLS cells; at k = 1 it is the one-slot transition table.
    """
    actions = np.frombuffer(codes, np.uint8).reshape(policies, M)
    k = next((k for k in (8, 4, 2) if policies * 2**k * M * k <= TABLE_CELLS), 1)
    # next age by (policy, contact, age - 1): 1 after an update (action 2, or
    # action 1 with a contact: action + contact >= 2), else one older up to M
    nxt = np.where(actions[:, None] + np.arange(2)[:, None] >= 2, 1, np.minimum(np.arange(2, M + 2), M))
    table = nxt.astype(np.min_scalar_type(M))[..., None]   # (policy, pattern, age - 1, slot)
    while table.shape[-1] < k:   # j slots to 2j: the first j, then j more from the age they end at
        patterns = table.shape[1]
        then = table[np.arange(policies)[:, None, None, None], np.arange(patterns)[:, None, None],
                     table[:, None, :, :, -1] - 1]   # (policy, high bits, low bits, age - 1, slot)
        both = np.concatenate((np.broadcast_to(table[:, None], then.shape), then), axis=-1)
        table = both.reshape(policies, patterns * patterns, M, -1)
    table = table.reshape(-1, k)
    table.flags.writeable = False
    last = np.ascontiguousarray(table[:, -1])
    last.flags.writeable = False
    return table, last


def _replay(actions: np.ndarray, policy: np.ndarray, contacts: np.ndarray, start: np.ndarray,
            stored: np.ndarray | None = None) -> np.ndarray:
    """The slot loop: ages along each row of a (rows, slots) 0/1 contact matrix.

    Row r starts at age ``start[r]`` and acts by the per-age action table
    ``actions[policy[r]]``.  Column t of the (rows, slots + 1) result is the age
    before slot t + 1, and that slot updated exactly when column t + 1 reads 1.
    Rows longer than CHUNK_SLOTS run as chunks, each from the age the chunk
    before it ended with; chunks whose start changed rerun until none does, and
    every pass fixes at least one more chunk of each row.

    The loop steps k slots at once: a row's next k contacts, packed
    little-endian into a pattern, and its age name a row of the table of
    ``_step_table``, which holds the k ages that follow.  Each step carries
    only the age a row ends the step at: one index add, and one gather from
    the table's last column.  The step's table rows are kept, and after the
    loop one gather of them from the full table gives all k ages of every
    step; it is cut back to slots + 1 columns, since ``np.packbits`` pads a
    row's last step with no-contact slots.  k is the largest of 8, 4, 2 and 1
    whose table fits TABLE_CELLS cells, so it shrinks as policies x ages grow;
    at k = 1 the table is the one-slot transition table and its own last
    column.  Tables that fit are cached with their last columns by the
    content of ``actions``, not by the array, in one least-recently-used
    cache of 64 entries: it keeps at most 64 x TABLE_CELLS cells of uint16
    ages, 64 MiB, and their columns alive, and a threshold policy at M = 30
    takes 60 KiB of table and 7.5 KiB of column.  A k = 1 table too large for
    the budget is built per call and not kept.

    ``stored`` holds the ages an earlier pass found for the same rows from
    other starts.  A block of rows then steps only until, at some step
    boundary, every row's new age equals its stored age, and copies the stored
    ages from that slot on.  This is exact: the next age depends only on the
    age, the contact and the policy, so two runs of a row that meet in one
    slot agree in every later slot.  Chunk reruns pass the ages of the pass
    before.
    """
    rows, n = contacts.shape
    M = actions.shape[1]
    dtype = np.min_scalar_type(M)
    if n > CHUNK_SLOTS:
        parts, L = -(-n // CHUNK_SLOTS), CHUNK_SLOTS   # chunk j of row r is row r * parts + j
        chunks = np.pad(contacts, ((0, 0), (0, parts * L - n))).reshape(rows * parts, L)
        policy, begin = np.repeat(policy, parts), np.repeat(start, parts)
        first = np.arange(rows * parts) % parts == 0
        ages, todo, stored = np.empty((rows * parts, L + 1), dtype), np.arange(rows * parts), None
        while todo.size:
            ages[todo] = _replay(actions, policy[todo], chunks[todo], begin[todo], stored)
            carried = np.where(first, begin, np.roll(ages[:, -1], 1))
            todo, begin = np.flatnonzero(carried != begin), carried
            stored = ages[todo]
        ages = ages.reshape(rows, parts, L + 1)
        return np.column_stack((ages[:, :, :L].reshape(rows, -1)[:, :n],
                                ages[:, -1, n - (parts - 1) * L]))
    actions = np.ascontiguousarray(actions, np.uint8)
    key = (actions.tobytes(), *actions.shape)
    table, last = (_step_table if 2 * actions.size <= TABLE_CELLS else _step_table.__wrapped__)(*key)
    k = table.shape[1]
    steps = -(-n // k)
    ages = np.empty((rows, n + 1), dtype)
    ages[:, 0] = start
    per = max(1, BLOCK_CELLS // n)   # rows per block
    for lo in range(0, rows, per):
        out = ages[lo:lo + per]
        # each byte holds the patterns of 8 // k steps, the first in the low bits
        pattern = np.packbits(np.ascontiguousarray(contacts[lo:lo + per]), axis=1, bitorder="little")
        if k < 8:
            pattern = (pattern[..., None] >> np.arange(0, 8, k, dtype=np.uint8)) & ((1 << k) - 1)
        # code + age is the table row of (policy, pattern, age - 1), step-major
        code = np.multiply(pattern.reshape(len(out), -1)[:, :steps].T, np.intp(M), order="C")
        if len(actions) > 1:   # one row of actions takes policy 0, at offset 0
            code += policy[lo:lo + per] * (M << k)
        code -= 1
        age = out[:, 0].copy()
        old = None if stored is None else stored[lo:lo + per, :n:k].T
        met = steps
        for s, row in enumerate(code):
            if old is not None and age.tobytes() == old[s].tobytes():   # the runs met
                met = s
                break
            row += age   # now the table row of step s
            last.take(row, out=age, mode="clip")
        done = min(met * k, n)
        out[:, 1:done + 1] = table.take(code[:met].T, axis=0, mode="clip").reshape(len(out), -1)[:, :done]
        if met < steps:
            out[:, done:] = stored[lo:lo + per, done:]
    return ages


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

def params_from_mapping(mapping: Mapping[str, str]) -> SystemParams:
    data = {k.strip(): str(v).strip() for k, v in mapping.items()}

    def need(key: str) -> str:
        if key not in data:
            raise ValueError(f"missing required parameter '{key}'")
        return data[key]

    max_age = int(need("M"))
    if max_age < 2:
        raise ValueError(f"M must be >= 2, got {max_age}")
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
