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
    """

    values: tuple[float, ...]
    form: str = "tabular"
    offset: float = 0.0
    step_value: float | None = None   # step form only
    step_cutoff: int | None = None    # step form only

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("utility needs at least one age")
        for age, v in enumerate(self.values, start=1):
            if not math.isfinite(v):
                raise ValueError(f"utility must be finite: u({age}) = {v!r}")
        if self.step_cutoff is not None and self.step_cutoff < 1:
            raise ValueError(f"step cutoff must be >= 1, got {self.step_cutoff}")
        for age, (a, b) in enumerate(zip(self.values, self.values[1:]), start=1):
            if b > a:
                raise ValueError(
                    f"utility must be non-increasing: u({age + 1}) = {b!r} > u({age}) = {a!r}")

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
#: the slots before a later chunk of a long row whose replay from age M seeds its start
LOOK_BACK = CHUNK_SLOTS // 8
#: cells (rows x columns) one block may hold, read only where a temporary
#: outgrows its input: the row blocks of ``_replay`` and ``_count_ages`` (a
#: replay's columns are its steps), the two-threshold search's panel shape, the
#: dense grid's row blocks and the size of ``chain._Panels``' buffer
BLOCK_CELLS = 1 << 16
#: cells (policies x contact patterns x ages x slots) a cached k-slot step table may hold
TABLE_CELLS = 1 << 19


def _step_size(policies: int, M: int) -> int:
    """The k of the k-slot step table of ``policies`` rows of M actions: the
    largest of 8, 4, 2 and 1 whose table holds at most TABLE_CELLS cells."""
    return next((k for k in (8, 4, 2) if policies * 2**k * M * k <= TABLE_CELLS), 1)


@functools.lru_cache(maxsize=64)
def _step_table(codes: bytes, policies: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ages after each slot of a k-slot step, that table's last column as
    intp, the width of the step loop, and each row's count of ages at 1, all
    read-only, for the uint8 action table of ``policies`` rows of M ages held
    in ``codes``.

    Row ((policy * 2**k + pattern) * M + age - 1) holds the k ages that follow
    the age ``age`` when bit j of ``pattern`` is the contact of the step's slot
    j + 1.  k is the largest of 8, 4, 2 and 1 whose table holds at most
    TABLE_CELLS cells; at k = 1 it is the one-slot transition table.  An age
    is 1 only after an update, so a row's count of 1s is the updates of a
    step at that row.
    """
    actions = np.frombuffer(codes, np.uint8).reshape(policies, M)
    k = _step_size(policies, M)
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
    cached = table, table[:, -1].astype(np.intp), np.count_nonzero(table == 1, axis=1).astype(np.uint8)
    for array in cached:
        array.flags.writeable = False
    return cached


def _replay(actions: np.ndarray, policy: np.ndarray, contacts: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The slot loop: ages along each row of a (rows, slots) 0/1 contact matrix.

    Row r starts at age ``start[r]`` and acts by the per-age action table
    ``actions[policy[r]]``.  Column t of the (rows, slots + 1) result is the age
    before slot t + 1, and that slot updated exactly when column t + 1 reads 1.
    Rows longer than CHUNK_SLOTS run as chunks.  A row's first chunk starts
    at the row's start age.  Each later chunk is seeded first: the last
    LOOK_BACK slots of the chunk before it are replayed from age M, and the
    chunk starts at the age that replay ends at.  A run from M and the row's
    own run agree from the first slot where both update, or both reach M, so
    the seed is the age the chunk before ends with whenever that happens
    within the look-back; it misses when ages grow without an update for
    longer, such as below a threshold far above LOOK_BACK.  Then every chunk
    is replayed from its start, and a chunk whose start differs from the age
    the chunk before it ended with reruns from that age, until none does.
    Every pass fixes at least one more chunk of each row, and the carried
    starts alone make the result exact: a wrong seed costs a rerun, never a
    wrong age.

    The loop steps k slots at once: a row's next k contacts, packed
    little-endian into a pattern, and its age name a row of the table of
    ``_step_table``, which holds the k ages that follow.  ``_walk`` carries
    only the age a row ends each step at, in intp, the width of the step
    codes: one index add, and one gather from the table's intp last column.
    It leaves each step's table row in its code, and after the loop one
    gather of them from the full table gives all k ages of every step; it is
    cut back to slots + 1 columns, since ``np.packbits`` pads a row's last
    step with no-contact slots.  The ages returned keep the table's dtype,
    the narrowest that holds M.  k is the largest of 8, 4, 2 and 1 whose
    table fits TABLE_CELLS cells, so it shrinks as policies x ages grow; at
    k = 1 the table is the one-slot transition table.  Tables that fit are
    cached, with their intp last columns and their rows' counts of 1s, by
    the content of ``actions``, not by the array, in one least-recently-used
    cache of 64 entries.  An entry holds at most TABLE_CELLS cells of uint16
    ages, 1 MiB, and TABLE_CELLS / k rows of 9 bytes (an 8-byte column entry
    and a 1-byte count), so at most 5.5 MiB at k = 1 and 1.6 MiB at k = 8,
    and the cache at most 352 MiB; a threshold policy at M = 30 takes 60 KiB
    of table, 60 KiB of column and 7.5 KiB of counts.  A k = 1 table too
    large for the budget is built per call and not kept.  Rows run in blocks
    of BLOCK_CELLS // steps rows (at least one), so a block's step codes, and
    the table rows its final gather picks, number at most BLOCK_CELLS.

    The step codes name the replay's table rows; ``_count_ages`` names them
    again from the ages returned here and counts a long replay's slots at
    each age by those rows, not slot by slot.
    """
    rows, n = contacts.shape
    M = actions.shape[1]
    dtype = np.min_scalar_type(M)
    if n > CHUNK_SLOTS:
        parts, L = -(-n // CHUNK_SLOTS), CHUNK_SLOTS   # chunk j of row r is row r * parts + j
        chunks = np.zeros((rows, parts * L), contacts.dtype)
        chunks[:, :n] = contacts
        chunks = chunks.reshape(rows * parts, L)
        policy, begin = np.repeat(policy, parts), np.repeat(start, parts)
        first = np.arange(rows * parts) % parts == 0
        later = np.flatnonzero(~first)   # seeded by the last LOOK_BACK slots before them, from age M
        tails = chunks[later - 1, L - LOOK_BACK:]
        begin[later] = _replay(actions, policy[later], tails, np.full(later.size, M))[:, -1]
        ages = _replay(actions, policy, chunks, begin)
        while True:
            carried = np.where(first, begin, np.roll(ages[:, -1], 1))
            todo, begin = np.flatnonzero(carried != begin), carried
            if not todo.size:
                break
            ages[todo] = _replay(actions, policy[todo], chunks[todo], begin[todo])
        ages = ages.reshape(rows, parts, L + 1)
        return np.column_stack((ages[:, :, :L].reshape(rows, -1)[:, :n],
                                ages[:, -1, n - (parts - 1) * L]))
    table, last, _ = _tables(actions)
    k = table.shape[1]
    steps = -(-n // k)
    ages = np.empty((rows, n + 1), dtype)
    ages[:, 0] = start
    per = max(1, BLOCK_CELLS // steps)   # rows per block
    for lo in range(0, rows, per):
        block = slice(lo, lo + per)
        code = _walk(last, contacts[block], policy[block], len(actions), M, k, start[block])
        ages[block, 1:] = table.take(code.T, axis=0, mode="clip").reshape(code.shape[1], -1)[:, :n]
    return ages


def _replay_ends(actions: np.ndarray, policy: np.ndarray, contacts: np.ndarray,
                 start: np.ndarray) -> tuple[np.ndarray, int]:
    """The last column of ``_replay(actions, policy, contacts, start)``, the
    ages the rows end at, and the count of its 1s past column 0, the rows'
    updates, without the (rows, slots + 1) age matrix.

    One ``_walk`` leaves each step's table row in its code.  A row ends at
    column r - 1 of its last step's row, where r is that step's slots, since
    ``np.packbits`` pads the rest; the full steps' updates are their rows'
    cached counts of 1s, and the last step's are the 1s among its r columns.
    Rows longer than CHUNK_SLOTS go through ``_replay``, whose chunks are
    seeded there, and their ages are counted.
    """
    n = contacts.shape[1]
    if n > CHUNK_SLOTS:
        ages = _replay(actions, policy, contacts, start)
        return ages[:, -1], int(np.count_nonzero(ages[:, 1:] == 1))
    table, last, ones = _tables(actions)
    k = table.shape[1]
    code = _walk(last, contacts, policy, *actions.shape, k, start)
    tail = table.take(code[-1], axis=0, mode="clip")[:, :n - (len(code) - 1) * k]   # the last step's slots
    return tail[:, -1], int(ones.take(code[:-1], mode="clip").sum()) + int(np.count_nonzero(tail == 1))


def _walk(last: np.ndarray, contacts: np.ndarray, policy: np.ndarray, policies: int, M: int, k: int,
          start: np.ndarray) -> np.ndarray:
    """The step loop over the k-slot steps of each row of ``contacts`` from
    the ages ``start``: the (steps, rows) table rows the steps take, each
    step's ``_step_codes`` code plus the age it starts at.  Each row's age is
    carried in intp, read off the table's intp last column ``last``."""
    code = _step_codes(contacts, policy, policies, M, k)
    age = np.array(start, np.intp)
    for row in code:
        row += age   # now the table row of this step
        last.take(row, out=age, mode="clip")
    return code


def _tables(actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_step_table`` of the action table ``actions``: cached by its content
    when its one-slot table fits TABLE_CELLS cells, else built per call."""
    actions = np.ascontiguousarray(actions, np.uint8)
    key = (actions.tobytes(), *actions.shape)
    return (_step_table if 2 * actions.size <= TABLE_CELLS else _step_table.__wrapped__)(*key)


def _step_codes(contacts: np.ndarray, policy: np.ndarray, policies: int, M: int, k: int) -> np.ndarray:
    """The (steps, rows) intp codes of the k-slot steps of each row of
    ``contacts``: code + age is the step table row of (policy, pattern, age - 1),
    where ``age`` is the age the step starts at."""
    # each byte holds the patterns of 8 // k steps, the first in the low bits
    pattern = np.packbits(np.ascontiguousarray(contacts), axis=1, bitorder="little")
    if k < 8:
        pattern = (pattern[..., None] >> np.arange(0, 8, k, dtype=np.uint8)) & ((1 << k) - 1)
    steps = -(-contacts.shape[1] // k)
    code = pattern.reshape(len(contacts), -1)[:, :steps].T.astype(np.intp, order="C")   # widened once
    code *= M
    if policies > 1:   # one row of actions takes policy 0, at offset 0
        code += policy * (M << k)
    code -= 1
    return code


def _count_ages(actions: np.ndarray, policy: np.ndarray, contacts: np.ndarray, ages: np.ndarray) -> np.ndarray:
    """Each policy's slots by the age before the slot, a (len(actions), M)
    int64 array, over the rows of the ``ages`` that
    ``_replay(actions, policy, contacts, start)`` returned.

    When the replay's k-slot steps outnumber the rows of its step table, all
    but the last step of each row are counted by the table row they name,
    code + age as in ``_replay``, from their contacts and the ages they start
    at: a step at a table row covers its start age, then the first k - 1 ages
    of the row.  Every other slot, all of them for a smaller replay, is
    counted by its own age: a ``np.bincount`` of age + policy * M per block
    of rows whose cells number at most BLOCK_CELLS, which bounds its intp
    copy.  The counts are integers, so both give the same counts.
    """
    rows, n = contacts.shape
    policies, M = actions.shape
    k = _step_size(policies, M)
    steps = -(-n // k)
    by_rows = rows * steps > policies * 2**k * M
    done = (steps - 1) * k if by_rows else 0   # the slots counted by table row
    counts = np.zeros(policies * M + 1, np.int64)   # slots at age a of policy p at p * M + a
    offset = (policy * M).astype(np.min_scalar_type(policies * M))[:, None]   # narrow, as the ages are
    per = max(1, BLOCK_CELLS // (n - done))
    for lo in range(0, rows, per):
        counts += np.bincount((ages[lo:lo + per, done:-1] + offset[lo:lo + per]).ravel(), minlength=counts.size)
    if by_rows:
        table = _tables(actions)[0]
        used = np.zeros(len(table), np.int64)   # steps by table row
        per = max(1, BLOCK_CELLS // steps)
        for lo in range(0, rows, per):
            code = _step_codes(contacts[lo:lo + per], policy[lo:lo + per], policies, M, k)[:-1]
            code += ages[lo:lo + per, :done:k].T   # the age each step starts at
            used += np.bincount(code.ravel(), minlength=len(table))
        used = used.reshape(policies, -1, M)   # (policy, pattern, start age - 1)
        later = table.reshape(policies, -1, M, k)[..., :-1] + (M * np.arange(policies))[:, None, None, None]
        # each count is a whole number below 2**53, so the float sums are exact
        counts += np.bincount(later.ravel(), np.repeat(used.ravel(), k - 1), counts.size).astype(np.int64)
        counts[1:] += used.sum(1).ravel()
    return counts[1:].reshape(policies, M)


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
