"""Trace ingestion and trace-driven policy evaluation: replay threshold,
two-threshold, and location-mask policies against recorded contact strings,
estimate per-shift contact statistics, and run multi-user closed-loop rounds.

Every replay here, one policy on one trace, each policy from each rotated
phase, or one round of a user population, runs as the rows of one call to
``model._replay``, the package's only loop over slots.  The counts are read
off the replayed ages: the slots at each age, and the updates, where an age
returns to 1; the contacts are read again only to tell 3G updates from WiFi
ones.  Every reward, energy and fee total is then the exact sum of counted
terms, rounded once.

Traces are strings of ones (useful slot) and zeros; an optional second bit
string of equal length marks location-privileged slots.
"""
from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import learning, model, thresholds
from .model import Policy, SystemParams


class TraceFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _bits(values: Sequence[int], what: str) -> np.ndarray:
    """``values`` as a read-only uint8 array; ValueError unless each value is an
    integer or a bool equal to 0 or 1."""
    try:
        bits = np.frombuffer(bytes(values), np.uint8)
    except (TypeError, ValueError):   # numpy bools have no __index__; all else fails
        bits = np.array(values)
        bits = np.frombuffer(bits.tobytes(), np.uint8) if bits.dtype == bool and bits.ndim == 1 else None
    if bits is None or bits.max() > 1:
        raise ValueError(f"{what} must be 0/1")
    return bits


@dataclass(frozen=True)
class ContactTrace:
    """One shift's contact string and optional location mask, tuples of 0/1.

    Building a trace also stores both as read-only uint8 arrays, ``slot_bits``
    and ``mask_bits`` (None without a mask), which every replay reads.  They
    are not fields: equality, hashing, the repr and pickles use the tuples.
    """

    shift_id: str
    slots: tuple[int, ...]
    mask: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError("trace must contain at least one slot")
        object.__setattr__(self, "slot_bits", _bits(self.slots, "slots"))
        if self.mask is not None and len(self.mask) != len(self.slots):
            raise ValueError("mask length must match slot count")
        object.__setattr__(self, "mask_bits", None if self.mask is None else _bits(self.mask, "mask"))

    def __getstate__(self) -> dict:
        return {"shift_id": self.shift_id, "slots": self.slots, "mask": self.mask}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def __len__(self) -> int:
        return len(self.slots)


def _parse_bits(token: str, line_no: int, what: str) -> tuple[int, ...]:
    invalid = token.replace("0", "").replace("1", "")
    if invalid:
        raise TraceFormatError(line_no, f"invalid character {invalid[0]!r} in {what}")
    return tuple(map(int, token))


def parse_trace_text(text: str) -> list[ContactTrace]:
    """One trace per non-comment line: shift id, slot string, optional mask."""
    traces = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise TraceFormatError(line_no, f"expected 2 or 3 fields, got {len(parts)}")
        shift_id = parts[0]
        slots = _parse_bits(parts[1], line_no, "slot string")
        if not slots:
            raise TraceFormatError(line_no, "empty slot string")
        mask = None
        if len(parts) == 3:
            mask = _parse_bits(parts[2], line_no, "mask")
            if len(mask) != len(slots):
                raise TraceFormatError(
                    line_no, f"mask length {len(mask)} != slot count {len(slots)}"
                )
        traces.append(ContactTrace(shift_id=shift_id, slots=slots, mask=mask))
    return traces


def load_traces(path: str | Path) -> list[ContactTrace]:
    return parse_trace_text(Path(path).read_text())


def dump_traces(traces: Iterable[ContactTrace]) -> str:
    out = io.StringIO()
    for t in traces:
        line = f"{t.shift_id} {(t.slot_bits + ord('0')).tobytes().decode()}"
        if t.mask is not None:
            line += f" {(t.mask_bits + ord('0')).tobytes().decode()}"
        out.write(line + "\n")
    return out.getvalue()


def estimate_p(trace: ContactTrace) -> float:
    """Useful slots over total slots.  Can be 0 or 1 on degenerate shifts;
    model-side analytics require p strictly inside (0, 1)."""
    return int(np.count_nonzero(trace.slot_bits)) / len(trace)


@dataclass(frozen=True)
class ConsecutiveStats:
    no_contact_after_no_contact: float | None
    no_contact_after_contact: float | None


def consecutive_stats(trace: ContactTrace) -> ConsecutiveStats:
    """Empirical P(no contact | previous slot had no contact / had contact).

    A conditional with no observed pairs is reported as None.
    """
    bits = trace.slot_bits
    prev, no_contact = bits[:-1] != 0, bits[1:] == 0
    n0x, n1x = int(np.count_nonzero(~prev)), int(np.count_nonzero(prev))
    n00, n10 = int(np.count_nonzero(no_contact[~prev])), int(np.count_nonzero(no_contact[prev]))
    return ConsecutiveStats(
        no_contact_after_no_contact=n00 / n0x if n0x else None,
        no_contact_after_contact=n10 / n1x if n1x else None,
    )


class MaskPolicy:
    """Location-aware policy: activate WiFi exactly on location-privileged slots."""

    def __repr__(self) -> str:  # pragma: no cover
        return "MaskPolicy()"


MASK_POLICY = MaskPolicy()


class UpdateSlots(Sequence[int]):
    """An immutable sequence of ints stored as one read-only int64 array.

    Indexing gives a Python int, a slice gives an ``UpdateSlots`` and
    ``np.asarray`` gives the stored array itself, without a copy.  The array
    lives in an immutable bytes object, so it cannot be made writeable again.
    It equals only another ``UpdateSlots`` with the same contents, never a
    tuple or an array; its hash is that of the array's bytes.
    """

    __slots__ = ("_array",)

    def __init__(self, slots: Sequence[int] | np.ndarray = ()):
        array = np.asarray(slots)
        if array.ndim != 1 or array.size and array.dtype.kind not in "iu":
            raise TypeError("update slots must be a flat sequence of integers")
        self._array = np.frombuffer(array.astype(np.int64, copy=False).tobytes(), np.int64)

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UpdateSlots(self._array[index])
        return int(self._array[operator.index(index)])

    def __iter__(self):
        return iter(self._array.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpdateSlots):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._array, dtype=dtype, copy=copy)

    def __reduce__(self):
        return UpdateSlots, (self._array,)

    def __repr__(self) -> str:
        return f"UpdateSlots({np.array2string(self._array, separator=', ')})"


@dataclass(frozen=True)
class SimResult:
    """One replay: ``total_reward``, ``energy_spent`` and ``fees_paid`` are the
    exact sums of the slots' utility, scan-cost and fee terms, rounded once.

    ``update_slots`` holds the 1-based indices of the slots with an update as
    an :class:`UpdateSlots`, a read-only int64 sequence.  It equals only
    another ``UpdateSlots``: compare it with ``tuple(result.update_slots)``
    or read ``np.asarray(result.update_slots)``, which does not copy."""

    total_reward: float
    slots: int
    average_reward: float
    updates: int
    update_slots: UpdateSlots
    updates_wifi: int
    updates_3g: int
    energy_spent: float
    fees_paid: float


def _values(params: SystemParams, bonus: float) -> np.ndarray:
    """What one count in each tally column adds to a reward total: the utility
    of each age, minus the scan cost, minus the WiFi and the 3G price less
    ``bonus`` but never below zero, as ``instantaneous_reward`` charges them."""
    fee_3g = max(params.price_3g - bonus, 0.0) if params.has_3g else 0.0
    fee_wifi = max(params.wifi_price - bonus, 0.0)
    return np.array((*params.utility.values, -params.scan_cost, -fee_wifi, -fee_3g))


def _exact_sums(counts: np.ndarray, values: np.ndarray) -> list[float]:
    """Each row's sum of ``counts * values``, rounded once to the nearest float.

    Integer counts in [0, 2**52) split into 26-bit halves, values into their
    leading 26 and trailing 27 significand bits, so all products of halves are
    exact; one ``math.fsum`` per row adds the nonzero ones, in row blocks of
    at most ``model.BLOCK_CELLS`` counts.  Values reaching 2**900 are first
    scaled down by one power of two, so nothing overflows; a value the scaling
    makes subnormal may then lose bits.
    """
    shift = max(0, math.frexp(float(np.abs(values).max(initial=0.0)))[1] - 900)
    values = np.ldexp(values, -shift)
    high = (values.view(np.int64) & -(1 << 27)).view(float)   # the low 27 significand bits cleared
    parts, sums, rows = np.stack((high, values - high)), [], max(1, model.BLOCK_CELLS // len(values))
    for lo in range(0, len(counts), rows):
        low = counts[lo:lo + rows] & (1 << 26) - 1
        halves = np.stack((counts[lo:lo + rows] - low, low), axis=1).astype(float)   # (rows, 2, columns)
        terms = (halves[:, :, None] * parts).reshape(len(low), -1)
        ends = np.cumsum(np.count_nonzero(terms, axis=1)).tolist()
        kept = terms[terms != 0].tolist()   # each row's nonzero products, in row order
        sums += [math.fsum(kept[a:b]) * 2.0**shift for a, b in zip([0, *ends], ends)]
    return sums


def _policy_actions(params: SystemParams, policy: Policy | MaskPolicy) -> np.ndarray | None:
    """The (1, M) action table of ``policy``, None for the mask policy."""
    if isinstance(policy, MaskPolicy):
        return None
    if policy.max_age != params.max_age:
        raise ValueError("policy and params disagree on max_age")
    if policy.uses_3g() and not params.has_3g:
        raise ValueError("policy uses action 2 but 3G is unavailable")
    return np.array([policy.actions], np.uint8)


def _replay_rotations(trace: ContactTrace, params: SystemParams, actions: np.ndarray | None,
                      replications: int, start_age: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Replay each row of the per-age action table ``actions``, or the mask
    policy when it is None, from every phase r * max(1, floor(len / replications))
    mod len, r < replications, as the rows of one ``model._replay`` call; one
    replication replays the trace's own bits, with no copy per policy.
    Returns the ages and, per policy over all its phases, the reward total and
    the tally that ``_values`` prices: the slots at each age before the slot,
    the active slots, the WiFi updates and the 3G updates.

    The tally reads the ages: a ``np.bincount`` of age + policy * M per block
    of max(1, ``model.BLOCK_CELLS`` // len) rows counts each policy's slots by
    age, and its active slots follow from the ages where it acts (for the mask
    policy, every masked slot).  An update leaves the age at 1, so a
    policy's updates are its slots at age 1, less its rows that start at age
    1, plus those that end there.  The contacts are read only when the table
    has action 2: an update without a contact is a 3G update, and every other
    update is over WiFi."""
    M = params.max_age
    if not 1 <= start_age <= M:
        raise ValueError(f"start age {start_age} outside [1, {M}]")
    if replications < 1:
        raise ValueError("need at least one replication")
    if actions is None and trace.mask is None:
        raise ValueError(f"trace {trace.shift_id!r} has no location mask")
    bits, table = trace.slot_bits, actions
    if actions is None:   # the mask policy: WiFi at every age, on the contacts of masked slots only
        bits, table = bits & trace.mask_bits, np.ones((1, M), np.uint8)
    n, k = len(trace), len(table)
    if replications == 1:
        contacts = np.broadcast_to(bits, (k, n))
    else:
        phases = np.arange(replications) * max(1, n // replications) % n
        contacts = np.tile(np.lib.stride_tricks.sliding_window_view(np.tile(bits, 2), n)[phases], (k, 1))
    policy = np.repeat(np.arange(k), replications)
    ages = model._replay(table, policy, contacts, np.full(len(policy), start_age))
    offset = (policy * M).astype(np.min_scalar_type(k * M))[:, None]   # narrow, as the ages are
    by_age, rows = 0, max(1, model.BLOCK_CELLS // n)
    for lo in range(0, len(policy), rows):   # row blocks bound the bincount's intp copy
        cells = ages[lo:lo + rows, :-1] + offset[lo:lo + rows]
        by_age = by_age + np.bincount(cells.ravel(), minlength=k * M + 1)
    by_age = by_age[1:].reshape(k, M)
    ends = np.count_nonzero((ages[:, [0, -1]] == 1).reshape(k, replications, 2), axis=1)
    updates, updates_3g = by_age[:, 0] - ends[:, 0] + ends[:, 1], np.zeros(k, np.int64)
    if (table == 2).any():   # an update without a contact is a 3G update
        no_contact = (ages[:, 1:] == 1) > contacts
        updates_3g = np.array([np.count_nonzero(mine) for mine in no_contact.reshape(k, -1)])
    active = (by_age * (table >= 1)).sum(1)
    if actions is None:   # active on the masked slots, with or without a contact
        active[0] = replications * np.count_nonzero(trace.mask_bits)
    tally = np.column_stack((by_age, active, updates - updates_3g, updates_3g))
    return ages, tally, _exact_sums(tally, _values(params, params.bonus))


def simulate_policy(
    trace: ContactTrace,
    params: SystemParams,
    policy: Policy | MaskPolicy,
    start_age: int = 1,
) -> SimResult:
    """Replay a policy slot by slot against a trace.

    The reward in each slot uses the pre-transition age; updates reset the age
    to one starting from the next slot.  Deterministic: identical inputs give
    identical results.
    """
    ages, tally, (total,) = _replay_rotations(trace, params, _policy_actions(params, policy), 1, start_age)
    active, wifi, updates_3g = tally[0, -3:].tolist()
    return SimResult(
        total_reward=total,
        slots=len(trace),
        average_reward=total / len(trace),
        updates=wifi + updates_3g,
        update_slots=UpdateSlots(np.flatnonzero(ages[0, 1:] == 1) + 1),
        updates_wifi=wifi,
        updates_3g=updates_3g,
        energy_spent=active * params.scan_cost,   # one rounding: active < 2**53
        fees_paid=_exact_sums(tally[:, -2:], -_values(params, params.bonus)[-2:])[0],
    )


def replayed_average_reward(
    trace: ContactTrace,
    params: SystemParams,
    policy: Policy,
    replications: int = 40,
    start_age: int = 1,
) -> float:
    """Average reward over ``replications`` replays with rotated starting phase
    r * max(1, floor(len / replications)) mod len, r < replications: the exact
    total over all phases, rounded once, over len(trace) * replications slots.
    Traces are deterministic, so rotation is the replication mechanism."""
    total = _replay_rotations(trace, params, _policy_actions(params, policy), replications, start_age)[2][0]
    return total / (len(trace) * replications)


def best_trace_threshold(
    trace: ContactTrace,
    params: SystemParams,
    replications: int = 40,
    start_age: int = 1,
) -> tuple[int, float]:
    """Exhaustive trace-driven threshold search over s in [1, M+1]; ties go to
    the smaller threshold."""
    return _best_threshold(_threshold_means(trace, params, replications, start_age))


def _threshold_means(trace: ContactTrace, params: SystemParams, replications: int,
                     start_age: int) -> list[float]:
    """``replayed_average_reward`` of every threshold s in [1, M+1], in order."""
    totals = _replay_rotations(trace, params, learning._threshold_actions(params.max_age),
                               replications, start_age)[2]
    return [total / (len(trace) * replications) for total in totals]


def _best_threshold(means: Sequence[float]) -> tuple[int, float]:
    best_s, best_r = None, -np.inf
    for s, r in enumerate(means, start=1):   # near-ties go to the smaller threshold
        if r > best_r + model.SLACK_TOL:
            best_s, best_r = s, r
    return best_s, best_r


# --- synthetic corpus ------------------------------------------------------------------

def iid_trace(
    p: float, n_slots: int, seed: int | np.random.Generator, shift_id: str = "iid"
) -> ContactTrace:
    """Bernoulli(p) contact string; the workhorse for ergodic cross-checks."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    slots = tuple((rng.random(n_slots) < p).tobytes())   # numpy bools are the bytes 0 and 1
    return ContactTrace(shift_id=shift_id, slots=slots)


def generate_corpus(
    n_shifts: int,
    seed: int,
    median_p: float = 0.53,
    p_spread: float = 0.12,
    runs_per_shift: tuple[int, int] = (4, 10),
    run_slots: tuple[int, int] = (8, 16),
    terminal_contact_prob: float = 0.95,
) -> list[ContactTrace]:
    """Synthetic bus-shift corpus calibrated to measured campus-bus contact statistics.

    Each shift is a sequence of bus runs of 8..16 five-minute slots (40-80
    minutes).  The first slot of every run is a terminal visit: it carries the
    location mask and a near-certain contact.  Remaining slots draw i.i.d.
    contacts with a residual probability chosen so the shift's expected
    contact fraction hits a target drawn around ``median_p``.  Invalid settings
    raise ValueError before anything is drawn.
    """
    if n_shifts < 0:
        raise ValueError(f"number of shifts must be >= 0, got {n_shifts}")
    if not 0.0 <= median_p <= 1.0:   # false for nan too
        raise ValueError(f"median_p must be a probability in [0, 1], got {median_p}")
    if not 0.0 <= p_spread < math.inf:
        raise ValueError(f"p_spread must be finite and >= 0, got {p_spread}")
    if not 0.0 <= terminal_contact_prob <= 1.0:
        raise ValueError(f"terminal_contact_prob must be in [0, 1], got {terminal_contact_prob}")
    for name, (lo, hi) in (("runs_per_shift", runs_per_shift), ("run_slots", run_slots)):
        if not 1 <= lo <= hi:
            raise ValueError(f"{name} must be an ordered range of positive counts, got {(lo, hi)}")
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(n_shifts):
        n_runs = int(rng.integers(runs_per_shift[0], runs_per_shift[1] + 1))
        lengths = rng.integers(run_slots[0], run_slots[1] + 1, size=n_runs)
        total = int(lengths.sum())
        target = float(np.clip(rng.normal(median_p, p_spread), 0.05, 0.95))
        residual = (target * total - terminal_contact_prob * n_runs) / max(total - n_runs, 1)
        residual = float(np.clip(residual, 0.02, 0.95))
        mask = np.zeros(total, int)
        mask[np.cumsum(lengths) - lengths] = 1   # each run's first slot
        slots = (rng.random(total) < np.where(mask, terminal_contact_prob, residual)).astype(int)
        corpus.append(
            ContactTrace(shift_id=f"shift{i:03d}", slots=tuple(slots.tolist()), mask=tuple(mask.tolist()))
        )
    return corpus


# --- population rounds -----------------------------------------------------------------

@dataclass(frozen=True)
class UserAssignment:
    trace: ContactTrace
    phase: int = 0       # starting offset into the cyclic trace
    start_age: int = 1


@dataclass(frozen=True)
class UserOutcome:
    updates: int
    total_reward: float
    final_age: int


@dataclass
class PopulationResult:
    rounds: list[learning.Round] = field(default_factory=list)
    users: list[UserOutcome] = field(default_factory=list)
    age_history: np.ndarray | None = None  # (users, slots) when recorded


class _Cohort:
    """Users replaying their traces cyclically from their phases; ages and
    trace positions carry over from one round to the next.

    Each distinct trace is tiled once to at least len + round_slots slots, so
    the round_slots slots from any position are one window of its tiles, and
    a round reads every user's contacts in one gather of windows."""

    def __init__(self, users: Sequence[UserAssignment], params: SystemParams, round_slots: int):
        self.response = learning._env_response(params, len(users), round_slots)
        for ua in users:
            if not 1 <= ua.start_age <= params.max_age:
                raise ValueError(f"start age {ua.start_age} outside [1, {params.max_age}]")
        traces = {id(ua.trace): ua.trace for ua in users}   # each distinct trace once
        tiles = [np.tile(t.slot_bits, -(-(len(t) + round_slots) // len(t))) for t in traces.values()]
        offset = dict(zip(traces, np.cumsum([0] + [len(t) for t in tiles]).tolist()))
        self.windows = np.lib.stride_tricks.sliding_window_view(np.concatenate(tiles), round_slots)
        self.offset = np.array([offset[id(ua.trace)] for ua in users])
        self.length = np.array([len(ua.trace) for ua in users])
        self.pos = np.array([ua.phase for ua in users]) % self.length
        self.ages = np.array([ua.start_age for ua in users])
        self.actions, self.policy = learning._threshold_actions(params.max_age), np.zeros(len(users), int)
        self.round_slots = round_slots

    def round(self, bonus: float) -> tuple[int, np.ndarray]:
        """The threshold for ``bonus`` and the ages (users, slots + 1) of one
        round at it."""
        s = self.response(bonus)
        contacts = self.windows[self.offset + self.pos]
        ages = model._replay(self.actions[s - 1:s], self.policy, contacts, self.ages)
        self.ages, self.pos = ages[:, -1], (self.pos + self.round_slots) % self.length
        return s, ages


def simulate_population(
    users: Sequence[UserAssignment],
    params: SystemParams,
    rounds: int,
    round_slots: int,
    controller: learning.LearningConfig | None = None,
    record_ages: bool = False,
) -> PopulationResult:
    """Closed-loop rounds over user traces.

    Users best-respond with the optimal WiFi threshold for the bonus in effect
    at the start of each round, replay their traces cyclically (ages and trace
    positions persist across rounds), and the served-update count feeds the
    controller, when attached, to set the next bonus.  A user's
    ``total_reward`` is exact as in ``SimResult``, each fee at its round's
    bonus.  Fully deterministic given traces and phases.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    cohort = _Cohort(users, params, round_slots)
    bonus = params.bonus if controller is None else controller.initial_bonus
    history = np.zeros((len(users), rounds * round_slots), dtype=np.int32) if record_ages else None
    # each user's slots at each age, flat at user * M + age - 1, and active
    # slots; per round each user's WiFi updates and the value of one
    M = params.max_age
    by_age, active = np.zeros(len(users) * M, np.int64), np.zeros(len(users), np.int64)
    wifi, fees, base = [], [], M * np.arange(len(users))[:, None] - 1   # base + age: the flat index

    result = PopulationResult()
    for t in range(1, rounds + 1):
        s, ages = cohort.round(bonus)
        before = ages[:, :-1]
        by_age += np.bincount((base + before).ravel(), minlength=by_age.size)
        active += np.count_nonzero(before >= s, axis=1)
        wifi.append(np.count_nonzero(ages[:, 1:] == 1, axis=1))   # every update is over WiFi
        fees.append(_values(params, bonus)[-2])
        if history is not None:
            history[:, (t - 1) * round_slots : t * round_slots] = ages[:, 1:]
        served = int(wifi[-1].sum())
        rate = served / round_slots
        result.rounds.append(learning.Round(index=t, bonus=bonus, served=served, rate=rate))
        if controller is not None:
            bonus = learning.learning_step(t, bonus, rate, controller)

    counts = np.column_stack((by_age.reshape(len(users), -1), active, *wifi))
    totals = _exact_sums(counts, np.append(_values(params, params.bonus)[:-2], fees))
    updates = sum(wifi, np.zeros(len(users), int))
    result.users = [
        UserOutcome(updates=u, total_reward=r, final_age=a)
        for u, r, a in zip(updates.tolist(), totals, cohort.ages.tolist())
    ]
    result.age_history = history
    return result


def trace_env(
    users: Sequence[UserAssignment], params: SystemParams, round_slots: int
) -> learning.RoundEnv:
    """Adapt a user population on traces to the learning env interface.

    State (ages, trace positions) persists across calls, so one env instance
    follows a single continuous timeline.
    """
    cohort = _Cohort(users, params, round_slots)
    return lambda bonus: float(np.count_nonzero(cohort.round(bonus)[1][:, 1:] == 1))


# --- model-versus-trace comparison -------------------------------------------------------

COMPARISON_COLUMNS = (
    "shift_id",
    "p_hat",
    "s_trace",
    "s_model",
    "reward_trace",
    "reward_model_predicted",
    "reward_model_policy_on_trace",
)


def comparison_table(
    traces: Sequence[ContactTrace],
    params: SystemParams,
    replications: int = 40,
) -> list[tuple]:
    """Per-shift rows comparing the trace-driven optimum with the model's
    prediction at the shift's estimated contact probability."""
    rows = []
    for trace in traces:
        p_hat = estimate_p(trace)
        p_model = min(max(p_hat, 0.01), 0.99)  # model needs p inside (0, 1)
        shift_params = replace(params, contact_prob=p_model)
        means = _threshold_means(trace, shift_params, replications, 1)
        s_trace, reward_trace = _best_threshold(means)
        predicted = thresholds.optimal_threshold(shift_params)
        on_trace = means[predicted.s_star - 1]   # the model's threshold replayed on the trace
        rows.append(
            (trace.shift_id, p_hat, s_trace, predicted.s_star, reward_trace, predicted.reward, on_trace)
        )
    return rows
