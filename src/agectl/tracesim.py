"""Trace ingestion and trace-driven policy evaluation: replay threshold,
two-threshold, and location-mask policies against recorded contact strings,
estimate per-shift contact statistics, and run multi-user closed-loop rounds.

Every replay here, one policy on one trace, each policy from each rotated
phase, or one round of a user population, runs as the rows of one call to
``model._replay``, the package's only loop over slots.  Rewards, fees, energy
and update counts are read off the replayed ages afterwards.

Traces are strings of ones (useful slot) and zeros; an optional second bit
string of equal length marks location-privileged slots.
"""
from __future__ import annotations

import io
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


@dataclass(frozen=True)
class SimResult:
    total_reward: float
    slots: int
    average_reward: float
    updates: int
    update_slots: tuple[int, ...]   # 1-based indices of slots with an update
    updates_wifi: int
    updates_3g: int
    energy_spent: float
    fees_paid: float


def _outcome_terms(params: SystemParams, bonus: float) -> tuple[np.ndarray, np.ndarray]:
    """Per outcome code 2 * action + contact: the reward at each age (6, M + 1)
    and the fee, by the float operations of ``instantaneous_reward`` in its
    order, at ``bonus``."""
    u = np.array((0.0,) + params.utility.values)   # indexed by age
    wifi_fee = max(params.wifi_price - bonus, 0.0)
    fee_3g = max(params.price_3g - bonus, 0.0) if params.has_3g else 0.0
    active = u - params.scan_cost
    rewards = np.stack([u, u, active, active - wifi_fee, active - fee_3g, active - wifi_fee])
    return rewards, np.array([0.0, 0.0, 0.0, wifi_fee, fee_3g, wifi_fee])


def _replay_rows(params: SystemParams, bonus: float, actions: np.ndarray, policy: np.ndarray,
                 contacts: np.ndarray, start: np.ndarray, gate: np.ndarray | None = None,
                 totals: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay the rows of a (rows, slots) contact matrix with ``model._replay``.

    Returns the ages, every slot's outcome code 2 * action + contact, and each
    row's reward total, added slot by slot onto ``totals``.  With a ``gate``, a
    row uses WiFi on its gated slots only (the mask policy).
    """
    ages = model._replay(actions, policy, contacts if gate is None else contacts & gate, start)
    M = params.max_age
    rewards = _outcome_terms(params, bonus)[0].ravel()   # outcome o at age x: o * (M + 1) + x
    row = policy[:, None] * M - 1   # the action at age x is actions.flat[row + x]
    outcome = np.empty(contacts.shape, np.uint8)
    totals = np.zeros(len(contacts)) if totals is None else totals
    before = ages[:, :-1]   # each slot's age before its transition
    step = max(1, model.BLOCK_CELLS // len(contacts))
    for lo in range(0, contacts.shape[1], step):   # slot blocks bound the float temporaries
        b = slice(lo, lo + step)
        act = actions.take(row + before[:, b]) if gate is None else gate[:, b]
        o = outcome[:, b] = act * 2 + contacts[:, b]
        totals = model._add_rows(totals, rewards.take(o * np.intp(M + 1) + before[:, b]))
    return ages, outcome, totals


def _add_in_order(blocks: Iterable[np.ndarray]) -> float:
    """The terms of the blocks added one at a time from +0.0, as a loop of
    ``total += term`` would add them."""
    total = np.zeros(())
    for terms in blocks:
        total = model._add_rows(total, terms)
    return float(total)


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
    policy when it is None, from every phase r * floor(len / replications), as
    the rows of one ``_replay_rows`` call.  Returns its outcomes and reward
    totals, and each policy's average reward over its phases."""
    M = params.max_age
    if not 1 <= start_age <= M:
        raise ValueError(f"start age {start_age} outside [1, {M}]")
    if replications < 1:
        raise ValueError("need at least one replication")
    if actions is None and trace.mask is None:
        raise ValueError(f"trace {trace.shift_id!r} has no location mask")
    n, k = len(trace), 1 if actions is None else len(actions)
    phases = np.arange(replications) * max(1, n // replications) % n

    def rotations(bits: np.ndarray) -> np.ndarray:
        doubled = np.tile(bits, 2)
        return np.tile(np.lib.stride_tricks.sliding_window_view(doubled, n)[phases], (k, 1))

    _, outcome, totals = _replay_rows(
        params, params.bonus, np.ones((1, M), np.uint8) if actions is None else actions,
        np.repeat(np.arange(k), replications), rotations(trace.slot_bits),
        np.full(k * replications, start_age), rotations(trace.mask_bits) if actions is None else None,
    )
    means = model._add_rows(np.zeros(k), (totals / n).reshape(k, replications)) / replications
    return outcome, totals, means.tolist()


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
    outcome, totals, _ = _replay_rotations(trace, params, _policy_actions(params, policy), 1, start_age)
    outcome, n = outcome[0], len(trace)
    updated = np.flatnonzero(outcome >= 3)
    codes = outcome[updated]
    n_3g = int(np.count_nonzero(codes == 4))
    # energy and fees add only their nonzero terms, G on each active slot and
    # a fee on each update: the sums start at +0.0 and cannot turn -0.0, so
    # the +0.0 terms left out would not have changed them
    fees, active = _outcome_terms(params, params.bonus)[1], int(np.count_nonzero(outcome >= 2))
    B = model.BLOCK_CELLS
    total = float(totals[0])
    return SimResult(
        total_reward=total,
        slots=n,
        average_reward=total / n,
        updates=len(updated),
        update_slots=tuple((updated + 1).tolist()),
        updates_wifi=len(updated) - n_3g,
        updates_3g=n_3g,
        energy_spent=_add_in_order(np.full(min(B, active - lo), float(params.scan_cost))
                                   for lo in range(0, active, B)),
        fees_paid=_add_in_order(fees.take(codes[lo:lo + B]) for lo in range(0, len(codes), B)),
    )


def replayed_average_reward(
    trace: ContactTrace,
    params: SystemParams,
    policy: Policy,
    replications: int = 40,
    start_age: int = 1,
) -> float:
    """Average reward over ``replications`` replays with rotated starting phase
    r * floor(len / replications); traces are deterministic, so rotation is the
    replication mechanism."""
    return _replay_rotations(trace, params, _policy_actions(params, policy), replications, start_age)[2][0]


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
    ages = np.arange(1, params.max_age + 1)
    return _replay_rotations(trace, params, ages >= np.arange(1, params.max_age + 2)[:, None],
                             replications, start_age)[2]


def _best_threshold(means: Sequence[float]) -> tuple[int, float]:
    best_s, best_r = None, -np.inf
    for s, r in enumerate(means, start=1):
        if r > best_r + 1e-12:
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
    contact fraction hits a target drawn around ``median_p``.
    """
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
    """Users replaying their traces cyclically from their phases; ages, trace
    positions and, unless ``totals`` is off, the reward totals carry over from
    one round to the next."""

    def __init__(self, users: Sequence[UserAssignment], params: SystemParams, round_slots: int,
                 totals: bool = True):
        self.response = learning._env_response(params, len(users), round_slots)
        for ua in users:
            if not 1 <= ua.start_age <= params.max_age:
                raise ValueError(f"start age {ua.start_age} outside [1, {params.max_age}]")
        traces = {id(ua.trace): ua.trace for ua in users}   # each distinct trace once
        offset = dict(zip(traces, np.cumsum([0] + [len(t) for t in traces.values()]).tolist()))
        self.slots = np.concatenate([t.slot_bits for t in traces.values()])
        self.offset = np.array([offset[id(ua.trace)] for ua in users])
        self.length = np.array([len(ua.trace) for ua in users])
        self.pos = np.array([ua.phase for ua in users]) % self.length
        self.ages = np.array([ua.start_age for ua in users])
        self.totals = np.zeros(len(users)) if totals else None   # each user's reward
        self.steps, self.params = np.arange(round_slots), params

    def round(self, bonus: float) -> np.ndarray:
        """Ages (users, slots + 1) of one round at the threshold for ``bonus``."""
        actions = (np.arange(1, self.params.max_age + 1) >= self.response(bonus))[None]
        cells = self.offset[:, None] + (self.pos[:, None] + self.steps) % self.length[:, None]
        policy, contacts = np.zeros(len(cells), int), self.slots[cells]
        if self.totals is None:
            ages = model._replay(actions, policy, contacts, self.ages)
        else:
            ages, _, self.totals = _replay_rows(self.params, bonus, actions, policy, contacts,
                                                self.ages, totals=self.totals)
        self.ages, self.pos = ages[:, -1], (self.pos + len(self.steps)) % self.length
        return ages


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
    controller, when attached, to set the next bonus.  Fully deterministic
    given traces and phases.
    """
    cohort = _Cohort(users, params, round_slots)
    updates_per_user = np.zeros(len(users), int)
    bonus = params.bonus if controller is None else controller.initial_bonus
    history = np.zeros((len(users), rounds * round_slots), dtype=np.int32) if record_ages else None

    result = PopulationResult()
    for t in range(1, rounds + 1):
        after = cohort.round(bonus)[:, 1:]   # each user's age after each slot
        served_per_user = np.count_nonzero(after == 1, axis=1)
        updates_per_user += served_per_user
        if history is not None:
            history[:, (t - 1) * round_slots : t * round_slots] = after
        served = int(served_per_user.sum())
        rate = served / round_slots
        result.rounds.append(learning.Round(index=t, bonus=bonus, served=served, rate=rate))
        if controller is not None:
            bonus = learning.learning_step(t, bonus, rate, controller)

    result.users = [
        UserOutcome(updates=u, total_reward=r, final_age=a)
        for u, r, a in zip(updates_per_user.tolist(), cohort.totals.tolist(), cohort.ages.tolist())
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
    cohort = _Cohort(users, params, round_slots, totals=False)   # only the ages are read
    return lambda bonus: float(np.count_nonzero(cohort.round(bonus)[:, 1:] == 1))


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
