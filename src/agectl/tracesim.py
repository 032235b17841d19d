"""Trace ingestion and trace-driven policy evaluation: replay threshold,
two-threshold, and location-mask policies against recorded contact strings,
estimate per-shift contact statistics, and run multi-user closed-loop rounds.

Every replay here, one policy on one trace, each policy from each rotated
phase, or one round of a user population, runs as the rows of one walk of
the replay kernel (``replay``), which builds the step codes, walks them and
reads its counts off the table rows the walk returns.  A trace replay
counts its slots by age and its updates off those rows.  Only its update
slots, and its 3G updates when its policy has action 2, are read off the
ages its rows expand to (``replay._after``): a slot updated when the age
after it is 1, over 3G when it had no contact.  So tallies and comparison
rows build no ages.  A population round reads its updates off the step
summaries and tallies its users' slots by the age before each slot, read
off the tally cells of its table rows (``replay._before``), which it
builds on its step table's first read.  Every reward, energy and fee total
is then the exact sum of counted terms, rounded once.

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

from . import learning, model, replay, thresholds
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
            raise ValueError(f"mask length {len(self.mask)} != slot count {len(self.slots)}")
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

    @classmethod
    def _adopt(cls, array: np.ndarray) -> "UpdateSlots":
        """The slots of a fresh flat int64 array that no one else holds, with no
        copy: the array is read through a read-only buffer, so it cannot be
        made writeable again."""
        slots = cls.__new__(cls)
        slots._array = np.frombuffer(memoryview(array.astype(np.int64, copy=False)).toreadonly(), np.int64)
        return slots

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
    return np.concatenate((params.utility.value_array, (-params.scan_cost, -fee_wifi, -fee_3g)))


def _exact_sums(counts: np.ndarray, values: np.ndarray) -> list[float]:
    """Each row's sum of ``counts * values``, rounded once to the nearest float.

    Every float is an integer over a power of two, so over the largest of the
    values' denominators each value is an integer, and each row's sum is one
    exact Python int.  One int true division rounds it once, to nearest even,
    as ``math.fsum`` does; a sum past the float range is +-inf.
    """
    ratios = [value.as_integer_ratio() for value in values.tolist()]
    scale = max(den for _, den in ratios)
    nums = np.array([num * (scale // den) for num, den in ratios], object)
    return [_rounded(total, scale) for total in (counts.astype(object) @ nums).tolist()]


def _rounded(num: int, den: int) -> float:
    """num / den rounded once, +-inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _policy_actions(params: SystemParams, policy: Policy | MaskPolicy) -> np.ndarray | None:
    """The (1, M) action table of ``policy``, None for the mask policy."""
    if isinstance(policy, MaskPolicy):
        return None
    if policy.max_age != params.max_age:
        raise ValueError(f"policy and params disagree on max_age: {policy.max_age} != {params.max_age}")
    if policy.uses_3g() and not params.has_3g:
        raise ValueError("policy uses action 2 but 3G is unavailable")
    return np.array([policy.actions], np.uint8)


def _replay_rotations(trace: ContactTrace, params: SystemParams, actions: np.ndarray | None, replications: int,
                      start_age: int
                      ) -> tuple[tuple[replay._Steps, np.ndarray, np.ndarray | None], np.ndarray, list[float]]:
    """Replay each row of the per-age action table ``actions``, or the mask
    policy when it is None, from every phase r * max(1, floor(len / replications))
    mod len, r < replications, as the rows of one ``replay._steps`` walk.
    The phases' contacts are packed once, and each policy's rows read them
    with its own block of the step table; one replication replays the
    trace's own bits, with no copy.  Returns the walk's step table, its
    (steps, rows) table rows, row p * replications + r for policy p from
    phase r, and the (rows, slots) mask of the slots that update, None when
    the table has no action 2; and, per policy over all its phases, the
    reward total and the tally that ``_values`` prices: the slots at each
    age before the slot, the active slots, the WiFi updates and the 3G
    updates.

    Every count but the 3G updates is read off the table rows the steps
    take, through the summaries cached with the table (``replay._Steps``):
    ``replay._count_ages`` counts each policy's slots by age, and the active
    slots follow from the ages where a policy acts (for the mask policy,
    every masked slot).  An update leaves the age at 1, so a policy's
    updates are its slots at age 1, less its rows that start at age 1, plus
    those that end there.  Only a table with action 2 updates over 3G: its
    rows' ages are built once (``replay._after``), a slot updated when the
    age after it is 1, and an update after a slot without a contact is a 3G
    update.  Every other update is over WiFi."""
    M = params.max_age
    if not 1 <= start_age <= M:
        raise ValueError(f"start age {start_age} outside [1, {M}]")
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    if actions is None and trace.mask is None:
        raise ValueError(f"trace {trace.shift_id!r} has no location mask")
    bits, table = trace.slot_bits, actions
    if actions is None:   # the mask policy: WiFi at every age, on the contacts of masked slots only
        bits, table = bits & trace.mask_bits, np.ones((1, M), np.uint8)
    n, k = len(trace), len(table)
    contacts = bits[None]
    if replications > 1:
        phases = np.arange(replications) * max(1, n // replications) % n
        contacts = np.concatenate((bits, bits))[phases[:, None] + np.arange(n)]
    policy = np.repeat(np.arange(k), replications)
    steps, code, end = replay._steps(table, policy, contacts, np.full(len(policy), start_age))
    by_age = replay._count_ages(steps, code, n)
    ends = (end == 1).reshape(k, replications).sum(1) - replications * (start_age == 1)
    updates, updates_3g, updated = by_age[:, 0] + ends, np.zeros(k, np.int64), None
    if (table == 2).any():   # an update after a slot without a contact is a 3G update
        updated = replay._after(steps, code, n) == 1
        for i, block in enumerate(updated.reshape(k, replications, n)):
            updates_3g[i] = np.count_nonzero(block > contacts)
    active = (by_age * (table >= 1)).sum(1)
    if actions is None:   # active on the masked slots, with or without a contact
        active[0] = replications * np.count_nonzero(trace.mask_bits)
    tally = np.column_stack((by_age, active, updates - updates_3g, updates_3g))
    return (steps, code, updated), tally, _exact_sums(tally, _values(params, params.bonus))


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
    (steps, code, updated), tally, (total,) = _replay_rotations(
        trace, params, _policy_actions(params, policy), 1, start_age)
    active, wifi, updates_3g = tally[0, -3:].tolist()
    if updated is None:   # a slot updated when the age after it is 1
        updated = replay._after(steps, code, len(trace)) == 1
    slots = np.flatnonzero(updated)
    slots += 1   # the 1-based slot
    return SimResult(
        total_reward=total,
        slots=len(trace),
        average_reward=total / len(trace),
        updates=wifi + updates_3g,
        update_slots=UpdateSlots._adopt(slots),
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


#: the corpus calibration to measured campus-bus contact statistics: the spread
#: of the shifts' target contact fractions around the median, the bus runs per
#: shift and the slots per run (inclusive ranges), and a terminal visit's
#: contact probability
CORPUS_P_SPREAD = 0.12
CORPUS_RUNS_PER_SHIFT = (4, 10)
CORPUS_RUN_SLOTS = (8, 16)
CORPUS_TERMINAL_CONTACT_PROB = 0.95


def generate_corpus(n_shifts: int, seed: int, median_p: float = 0.53) -> list[ContactTrace]:
    """Synthetic bus-shift corpus calibrated to measured campus-bus contact statistics.

    Each shift is a sequence of 4..10 bus runs of 8..16 five-minute slots
    (40-80 minutes).  The first slot of every run is a terminal visit: it
    carries the location mask and a near-certain contact.  Remaining slots draw
    i.i.d. contacts with a residual probability chosen so the shift's expected
    contact fraction hits a target drawn around ``median_p``.  Only
    ``median_p`` varies the calibration; the rest is the ``CORPUS_*``
    constants.  Invalid settings raise ValueError before anything is drawn.
    """
    if n_shifts < 0:
        raise ValueError(f"number of shifts must be >= 0, got {n_shifts}")
    if not 0.0 <= median_p <= 1.0:   # false for nan too
        raise ValueError(f"median_p must be a probability in [0, 1], got {median_p}")
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(n_shifts):
        n_runs = int(rng.integers(CORPUS_RUNS_PER_SHIFT[0], CORPUS_RUNS_PER_SHIFT[1] + 1))
        lengths = rng.integers(CORPUS_RUN_SLOTS[0], CORPUS_RUN_SLOTS[1] + 1, size=n_runs)
        total = int(lengths.sum())
        target = float(np.clip(rng.normal(median_p, CORPUS_P_SPREAD), 0.05, 0.95))
        residual = (target * total - CORPUS_TERMINAL_CONTACT_PROB * n_runs) / (total - n_runs)
        residual = float(np.clip(residual, 0.02, 0.95))
        mask = np.zeros(total, int)
        mask[np.cumsum(lengths) - lengths] = 1   # each run's first slot
        slots = (rng.random(total) < np.where(mask, CORPUS_TERMINAL_CONTACT_PROB, residual)).astype(int)
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

    The users' fields are read, and their traces told apart by identity,
    by ``map`` into dicts and arrays, with no Python loop over users.  Each
    distinct trace is tiled once, cyclically, to len + round_slots - 1
    slots, the furthest a round from any phase reads.  The step codes at
    every tile position, and each user's (steps, users) gather index into
    them, are built once (``replay._tile_codes``), so a round is one gather
    of every user's codes, walked by ``replay._walk_codes`` over the
    threshold's step table, which the cohort looks up once per threshold."""

    def __init__(self, users: Sequence[UserAssignment], params: SystemParams, round_slots: int):
        self.response = learning._env_response(params, len(users), round_slots)
        M = params.max_age
        traces, phases, starts = zip(*map(operator.attrgetter("trace", "phase", "start_age"), users))
        ages = np.array(starts)
        outside = (ages < 1) | (ages > M)
        if outside.any():
            raise ValueError(f"start age {starts[outside.argmax()]} outside [1, {M}]")
        # each distinct trace once, in order of first use, and the one each
        # user replays; by dicts, as np.unique's first call pages in numpy's
        # sorting code, half a megabyte of resident memory
        distinct = dict(zip(map(id, traces), traces))
        order = dict(zip(distinct, range(len(distinct))))
        which = np.fromiter(map(order.__getitem__, map(id, traces)), np.intp, len(traces))
        bits = [t.slot_bits for t in distinct.values()]
        lengths = np.array(list(map(len, bits)))
        sizes = lengths + round_slots - 1   # the furthest a round from any phase reads
        tiles = np.concatenate([b.take(np.arange(size), mode="wrap")
                                for b, size in zip(bits, sizes.tolist())])
        tile_at = np.cumsum(sizes) - sizes   # where each tile starts
        self.tables = learning._ThresholdTables(M)
        self.codes, self.index = replay._tile_codes(tiles, tile_at[which], round_slots, M)
        self.length = lengths[which]
        self.pos = np.array(phases) % self.length
        self.ages = ages
        self.round_slots = round_slots

    def round(self, bonus: float) -> tuple[int, replay._Steps, np.ndarray]:
        """The threshold for ``bonus``, its step table and the (steps, users)
        table rows of one round at it, whose slots it moves past."""
        s = self.response(bonus)
        steps = self.tables[s]
        code = self.codes.take(self.pos + self.index)
        self.pos += self.round_slots
        self.pos %= self.length
        code, self.ages = replay._walk_codes(steps, code, self.round_slots, self.ages)
        return s, steps, code

    def served(self, bonus: float) -> int:
        """The updates of one round at the threshold for ``bonus``: its steps'
        cached counts of 1s.  A threshold policy updates only on a contact,
        so the slots masked off the round's last step add none."""
        _, steps, code = self.round(bonus)
        return int(steps.ones.take(code, mode="clip").sum())


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

    The rounds are ``trace_env``'s: one ``_Cohort`` walk each, whose WiFi
    updates by user are its steps' cached counts of 1s.  Each round tallies
    its users' slots by the age before the slot, read off the tally cells
    of the walk's table rows (``replay._before``), which a round builds on
    its step table's first read; the active slots are those at an age of at
    least the round's threshold.  The ages after each slot are built only
    to record them (``replay._after``).
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    cohort = _Cohort(users, params, round_slots)
    bonus = params.bonus if controller is None else controller.initial_bonus
    history = np.zeros((len(users), rounds * round_slots), dtype=np.int32) if record_ages else None
    M = params.max_age
    base = M * np.arange(len(users))[:, None]   # base + cell: a user's flat tally cell
    by_age, active = np.zeros((len(users), M), np.int64), np.zeros(len(users), np.int64)
    wifi, fees = np.empty((rounds, len(users)), np.int64), []
    result = PopulationResult()
    for t in range(1, rounds + 1):
        s, steps, code = cohort.round(bonus)
        cells = base + replay._before(steps, code, round_slots)
        tally = np.bincount(cells.ravel(), minlength=by_age.size).reshape(-1, M)
        by_age += tally
        active += tally[:, s - 1:].sum(1)
        if history is not None:
            history[:, (t - 1) * round_slots : t * round_slots] = replay._after(steps, code, round_slots)
        served = int(steps.ones.take(code, mode="clip").sum(0, out=wifi[t - 1]).sum())
        fees.append(-max(params.wifi_price - bonus, 0.0))   # every update is over WiFi
        rate = served / round_slots
        result.rounds.append(learning.Round(index=t, bonus=bonus, served=served, rate=rate))
        if controller is not None:
            bonus = learning.learning_step(t, bonus, rate, controller)

    counts = np.column_stack((by_age, active, wifi.T))
    totals = _exact_sums(counts, np.concatenate((params.utility.value_array, [-params.scan_cost], fees)))
    result.users = [
        UserOutcome(updates=u, total_reward=r, final_age=a)
        for u, r, a in zip(wifi.sum(0).tolist(), totals, cohort.ages.tolist())
    ]
    result.age_history = history
    return result


def trace_env(
    users: Sequence[UserAssignment], params: SystemParams, round_slots: int
) -> learning.RoundEnv:
    """Adapt a user population on traces to the learning env interface.

    State (ages, trace positions) persists across calls, so one env instance
    follows a single continuous timeline.  A round is one ``_Cohort`` walk
    of gathered step codes, and reads its updates off the steps' cached
    counts; it builds no (users, slots + 1) age matrix.
    """
    cohort = _Cohort(users, params, round_slots)
    return lambda bonus: float(cohort.served(bonus))


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
