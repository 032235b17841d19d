"""The replay kernel: the one walk of k-slot contact patterns behind every
trace replay and population round, the step tables it walks over, the step
codes it walks, which only this module builds, and the readers of the
table rows it returns: the slots counted by age, the ages rows end at,
the ages after each slot and the tally cells before it.  It imports only
``model``, and none of the routes that the replay is checked against
imports it.
"""
from __future__ import annotations

import functools

import numpy as np

from .model import _read_only


#: replay rows longer than this many slots run as chunks of this length
CHUNK_SLOTS = 256
#: the slots before a later chunk of a long row whose replay from age M seeds its start
LOOK_BACK = CHUNK_SLOTS // 8
#: cells (policies x contact patterns x ages x slots) a cached k-slot step
#: table may hold; its age histograms are kept only within as many cells
#: (table rows x ages)
TABLE_CELLS = 1 << 19


def _step_size(policies: int, M: int) -> int:
    """The k of the k-slot step table of ``policies`` rows of M actions: the
    largest of 8, 4, 2 and 1 whose table holds at most TABLE_CELLS cells."""
    return next((k for k in (8, 4, 2) if policies * 2**k * M * k <= TABLE_CELLS), 1)


class _Steps:
    """A k-slot step table and one summary of each of its rows, all read-only.

    Row ((policy * 2**k + pattern) * M + age - 1) of each is the step that
    starts at ``age`` under the action row ``policy`` when bit j of
    ``pattern`` is the contact of the step's slot j + 1.  An age is 1 only
    after an update, so a row's 1s are the updates of a step at that row.
    A step covers its start age, then the first k - 1 ages of its row.  The
    summaries every round reads, ``last`` and ``ones``, are built with the
    table; the tally cells, which a population round also reads, and the
    histograms on their first read, and then kept with it.
    """

    def __init__(self, table: np.ndarray, policies: int, M: int):
        self.policies, self.M = policies, M
        self.table = _read_only(table)   # (rows, k): the age after each slot, narrowest dtype that holds M
        self.last = _read_only(table[:, -1].astype(np.intp))   # the age the step ends at
        self.ones = _read_only(np.count_nonzero(table == 1, axis=1).astype(np.uint8))   # its updates

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """(rows, k): each slot's tally cell, policy * M + the age before the
        slot - 1, in the narrowest dtype that holds policies * M."""
        table, M = self.table, self.M
        rows = np.arange(len(table))
        cells = np.empty(table.shape, np.min_scalar_type(self.policies * M - 1))
        cells[:, 0], cells[:, 1:] = rows % M, table[:, :-1] - 1
        cells += (rows // (M << table.shape[1]) * M).astype(cells.dtype)[:, None]
        return _read_only(cells)

    @functools.cached_property
    def hist(self) -> np.ndarray | None:
        """(rows, M) uint8: the step's slots by the age before the slot; None
        when the table's rows x M is more than TABLE_CELLS."""
        rows, M = len(self.table), self.M
        if rows * M > TABLE_CELLS:
            return None
        hist, before = np.zeros((rows, M), np.uint8), self.cells % M   # the age before each slot, less 1
        first = np.arange(rows) * M
        for ages in before.T:   # one slot of every row at a time, so no cell twice
            hist.reshape(-1)[first + ages] += 1
        return _read_only(hist)


@functools.lru_cache(maxsize=64)
def _step_table(codes: bytes, policies: int, M: int) -> _Steps:
    """The ``_Steps`` of the uint8 action table of ``policies`` rows of M ages
    held in ``codes``: k is the largest of 8, 4, 2 and 1 whose table holds
    at most TABLE_CELLS cells, so it shrinks as policies x ages grow; at
    k = 1 it is the one-slot transition table.

    Tables are cached with their rows' summaries by the content of the
    action table, not by the array, in one least-recently-used cache of 64
    entries.  An entry holds at most TABLE_CELLS cells of ages, 1 MiB as
    uint16 (M <= 65535) and 2 MiB as uint32; TABLE_CELLS / k rows of 9
    bytes of summaries (an 8-byte last-column entry and a 1-byte count of
    1s); TABLE_CELLS tally cells of at most 4 bytes, 2 MiB; and a uint8
    histogram of at most TABLE_CELLS cells, 512 KiB, kept only when it
    fits.  So an entry takes at most 8.5 MiB at k = 1 (where the rows are
    too many for a histogram; 7.5 MiB when M <= 65535) and 2.1 MiB at
    k = 8, and the cache at most 544 MiB; the 13 threshold policies of
    M = 12 take 312 KiB of table, 351 KiB of summaries, 312 KiB of cells
    and 468 KiB of histogram.  A k = 1 table too large for the budget is
    built per call and not kept (``_tables``).
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
    return _Steps(table.reshape(-1, k), policies, M)


def _tables(actions: np.ndarray) -> _Steps:
    """``_step_table`` of the action table ``actions``: cached by its content
    when its one-slot table fits TABLE_CELLS cells, else built per call."""
    actions = np.ascontiguousarray(actions, np.uint8)
    key = (actions.tobytes(), *actions.shape)
    return (_step_table if 2 * actions.size <= TABLE_CELLS else _step_table.__wrapped__)(*key)


def _split(packed: np.ndarray, k: int) -> np.ndarray:
    """The k-slot patterns of the bytes ``packed``, k < 8: each byte's
    8 // k patterns along a new last axis, the first in the low bits."""
    return (packed[..., None] >> np.arange(0, 8, k, dtype=np.uint8)) & ((1 << k) - 1)


def _patterns(contacts: np.ndarray, k: int, steps: int) -> np.ndarray:
    """The (rows, steps) uint8 patterns of the k-slot steps of each row of
    ``contacts``: a step's contacts packed little-endian, with the slots past
    the row's end as no contact."""
    pattern = np.packbits(np.ascontiguousarray(contacts), axis=1, bitorder="little")
    if k < 8:
        pattern = _split(pattern, k).reshape(len(contacts), -1)
    if pattern.shape[1] < steps:
        pattern = np.concatenate((pattern, np.zeros((len(contacts), steps - pattern.shape[1]), np.uint8)), axis=1)
    return pattern[:, :steps]


def _walk(last: np.ndarray, code: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The step loop: adds to each of the (steps, rows) ``code``, in place,
    the age its row starts that step at, so that each becomes its step's
    table row; returns the ages the rows end their last steps at.  Each
    row's age is carried in intp, read off the table's intp last column
    ``last``."""
    age = np.array(start, np.intp)
    for row in code:
        row += age   # now the table row of this step
        last.take(row, out=age, mode="clip")
    return age


def _step_count(n: int, k: int) -> int:
    """The k-slot steps a row of n slots is laid out in: ceil(n / CHUNK_SLOTS)
    chunks of the fewest equal whole numbers of steps that hold the row.  So
    a row pads less than one step per chunk, and no chunk of a row of
    several is shorter than half of CHUNK_SLOTS."""
    parts = -(-n // CHUNK_SLOTS)
    return parts * -(-n // (k * parts))


def _steps(actions: np.ndarray, policy: np.ndarray, contacts: np.ndarray,
           start: np.ndarray) -> tuple[_Steps, np.ndarray, np.ndarray]:
    """The slot loop, in k-slot steps: the ``_Steps`` of ``actions`` and what
    ``_walk_patterns`` returns for the patterns of the (rows, slots) 0/1
    ``contacts``, packed by ``_patterns``: a row's last step is padded with
    no-contact slots, and so are the steps past its end."""
    steps = _tables(actions)
    n = contacts.shape[1]
    k = steps.table.shape[1]
    return (steps, *_walk_patterns(steps, policy, _patterns(contacts, k, _step_count(n, k)), n, start))


def _walk_patterns(steps: _Steps, policy: np.ndarray, pattern: np.ndarray, n: int,
                   start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``_walk_codes`` returns for the (rows, ``_step_count(n, k)``)
    uint8 k-slot contact patterns ``pattern`` of rows of n slots over the
    step table ``steps``, widened into codes once; rows longer than
    CHUNK_SLOTS are walked as the chunks ``_step_count`` lays them out in
    (``_walk_chunks``).

    Row r starts at age ``start[r]``, acts by the per-age action row
    ``policy[r]`` of the table and reads row r mod len(pattern): so rows that
    differ only in their policy share one packing of their contacts, and
    each policy adds its block of the table to the shared codes.
    """
    M, k = steps.M, steps.table.shape[1]
    parts = -(-n // CHUNK_SLOTS)   # chunk j of row r is column r * parts + j
    if len(pattern) < len(policy):   # rows that share their contacts
        pattern = np.tile(pattern, (len(policy) // len(pattern), 1))
    code = _fresh_codes(pattern.reshape(len(pattern) * parts, -1).T, M, np.repeat(policy * (M << k), parts))
    return (_walk_codes if parts == 1 else _walk_chunks)(steps, code, n, start)


def _fresh_codes(pattern: np.ndarray, M: int, block: np.ndarray | int = 0) -> np.ndarray:
    """The fresh codes of the k-slot contact patterns ``pattern`` in the
    policy blocks ``block`` of a step table of M ages, broadcast along its
    last axis: pattern * M - 1 + block, so that the age a step starts at,
    added to its code, names its table row (``_Steps``).  A new C-order intp
    array, the layout ``_walk`` steps through."""
    code = pattern.astype(np.intp, order="C")   # widened once
    code *= M
    code += block - 1
    return code


def _walk_codes(steps: _Steps, code: np.ndarray, n: int, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The walk of rows of n slots over the step table ``steps`` from their
    (steps, rows) fresh codes ``code``, which it walks in place: the table
    rows of every row's steps, and the ages the rows end at
    (``_end_ages``).

    A step's fresh code (``_fresh_codes``) plus the age it starts at names
    its table row, which holds the k ages that follow.  Row r starts at age
    ``start[r]``.
    """
    _walk(steps.last, code, start)
    return code, _end_ages(steps, code, n)


def _end_ages(steps: _Steps, code: np.ndarray, n: int) -> np.ndarray:
    """The ages that rows of n slots end at, in the table's dtype, from
    their (steps, rows) table rows ``code``.  A row ends after slot r of its
    last step, r = n - (steps - 1) * k, the slots of that step: its end age
    is column r - 1 of that step's row.  The pattern bits past them do not
    change the ages it reads."""
    r = n - (len(code) - 1) * steps.table.shape[1]   # the slots of each row's last step
    return steps.table.take(code[-1], axis=0, mode="clip")[:, r - 1]   # the age after its r-th slot


def _walk_chunks(steps: _Steps, code: np.ndarray, n: int, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_walk_codes`` for rows of n > CHUNK_SLOTS slots, from their fresh
    codes laid out as parts = ceil(n / CHUNK_SLOTS) chunks of equal whole
    numbers of steps (``_step_count``), each at least LOOK_BACK slots long:
    (steps per chunk, rows * parts), where column r * parts + j is chunk j
    of row r, and the last chunk is padded as the last step is.

    A row's first chunk starts at the row's start age.  Each later chunk is
    seeded first: the codes of the last LOOK_BACK slots of the chunk before
    it are walked from age M, and the chunk starts at the age that walk ends
    at.  A run from M and the row's own run agree from the first slot where
    both update, or both reach M, so the seed is the age the chunk before
    ends with whenever that happens within the look-back; it misses when
    ages grow without an update for longer, such as below a threshold far
    above LOOK_BACK.  Then every chunk is walked from its start, and a chunk
    whose start differs from the age the chunk before it ended with is
    walked again from that age, from its own fresh codes, until none does.
    Every pass fixes at least one more chunk of each row, and only the
    chunks a pass walks have their codes rewritten; the carried starts
    alone make the result exact: a wrong seed costs a rerun, never a wrong
    age.  The chunks' codes are then laid out as their rows' steps, less the
    steps past each row's end.
    """
    k, span = steps.table.shape[1], len(code)
    parts = -(-n // CHUNK_SLOTS)
    begin = np.repeat(np.asarray(start, np.intp), parts)
    first = np.arange(code.shape[1]) % parts == 0
    later = np.flatnonzero(~first)   # seeded by the last LOOK_BACK slots before them, from age M
    tails = code[span - LOOK_BACK // k:].take(later - 1, axis=1)
    begin[later] = _walk(steps.last, tails, np.full(later.size, steps.M))
    end = _walk(steps.last, code, begin)
    while True:
        carried = np.where(first, begin, np.roll(end, 1))
        todo = np.flatnonzero(carried != begin)
        if not todo.size:
            break
        # a walked code less the age its step started at is its fresh code
        again = code[:, todo]
        again[1:] -= steps.last.take(again[:-1], mode="clip")
        again[0] -= begin[todo]
        begin = carried
        end[todo] = _walk(steps.last, again, begin[todo])
        code[:, todo] = again
    code = code.reshape(span, -1, parts).transpose(2, 0, 1).reshape(parts * span, -1)[:-(-n // k)]
    return code, _end_ages(steps, code, n)


def _tile_codes(tiles: np.ndarray, start: np.ndarray, n: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The fresh codes at policy block 0, for the k of a one-policy table of
    M ages, of the k-slot contact pattern that starts at each position of the
    0/1 uint8 ``tiles``, packed little-endian as ``_patterns`` packs a row,
    with no contact past the last tile; then a second set for a round's last
    step, its slots past the round's r = n - (steps - 1) * k masked off.
    Also the (steps, rows) index into those codes of the steps of a round of
    n slots from position 0 of the tile that starts at ``start[i]``, for
    each row i: codes k slots apart, the last step's from the second set.
    A round from position j of each row is then the codes at j + that
    index."""
    k = _step_size(1, M)
    patterns, width = tiles.copy(), 1   # bit j: the contact of slot j + 1
    while width < k:   # patterns of width slots to 2 * width
        patterns[:-width] |= patterns[width:] << width
        width *= 2
    last = -(-n // k) - 1   # the step the round ends in, after its first r slots
    mask = (1 << n - last * k) - 1
    step = k * np.arange(last + 1)
    step[last] += len(patterns)
    return _fresh_codes(np.concatenate((patterns, patterns & mask)), M), start + step[:, None]


def _round_codes(packed: np.ndarray, M: int, n: int) -> np.ndarray:
    """The (steps, rows) fresh codes at policy block 0, for the k of a
    one-policy table of M ages, of a round of n slots from its contacts
    ``packed``: (bytes, rows) uint8, each byte 8 slots of a row packed
    little-endian, the slots past the round's end 0.  Each byte is split
    into the patterns of its 8 // k steps, as ``_patterns`` splits a row's
    bytes, and the round's steps are widened into codes (``_fresh_codes``)."""
    k = _step_size(1, M)
    if k < 8:
        packed = _split(packed, k).transpose(0, 2, 1).reshape(-1, packed.shape[1])
    return _fresh_codes(packed[:-(-n // k)], M)


def _after(steps: _Steps, code: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n) ages after each slot of the rows of n slots whose
    (steps, rows) table rows ``code`` the walk returned: one gather of the
    steps' table rows gives all k ages of every step, cut back to n columns,
    since a row's last step may be padded.  The ages keep the table's dtype,
    the narrowest that holds M."""
    return steps.table.take(code.T, axis=0, mode="clip").reshape(code.shape[1], -1)[:, :n]


def _before(steps: _Steps, code: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n) tally cells (``_Steps.cells``) of each slot of the rows
    of n slots whose (steps, rows) table rows ``code`` the walk returned,
    each by the age before the slot: ``_after``'s gather, of the cells."""
    return steps.cells.take(code.T, axis=0, mode="clip").reshape(code.shape[1], -1)[:, :n]


def _replay(actions: np.ndarray, policy: np.ndarray, contacts: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The ages along each row of a (rows, slots) 0/1 contact matrix: the
    (rows, slots + 1) ages of ``_steps``' rows, where column t is the age
    before slot t + 1, and that slot updated exactly when column t + 1 reads
    1; its start column, then ``_after``'s ages after each slot.  No replay
    in the package needs every age; the tests check the kernel through it.
    """
    steps, code, _ = _steps(actions, policy, contacts, start)
    n = contacts.shape[1]
    ages = np.empty((len(policy), n + 1), steps.table.dtype)
    ages[:, 0] = start
    ages[:, 1:] = _after(steps, code, n)
    return ages


def _count_ages(steps: _Steps, code: np.ndarray, n: int) -> np.ndarray:
    """Each policy's slots by the age before the slot, a (policies, M) int64
    array, over the rows of n slots whose (steps, rows) table rows ``code``
    ``_steps`` returned, counted from those table rows alone.  The rows come
    in one equal block per policy, in order, as rotations lay them out.

    Each slot of a step counts one at its tally cell (``_Steps.cells``): the
    cell of the step's start age, then those of the first k - 1 ages of its
    row, all in the row's policy.  A row's last step covers only its first
    r = n - (steps - 1) * k slots, so it counts only its first r cells.  The
    other steps are counted by table row when they outnumber the table's
    rows, as on one long trace, or when the table is too large for
    histograms: one ``np.bincount`` of their rows, then each used row's
    count at each of its cells.  Otherwise each adds its row's cached histogram,
    summed over each replay row's steps and then over each policy's block
    of rows.  The counts are integers, and every float sum is a whole
    number below 2**53, so both routes give the same counts.
    """
    cells, k, policies = steps.cells, steps.table.shape[1], steps.policies
    r = n - (len(code) - 1) * k   # the slots of each row's last step
    counts = np.bincount(cells.take(code[-1], axis=0, mode="clip")[:, :r].ravel(), minlength=policies * steps.M)
    full = code[:-1]
    if full.size > len(cells) or steps.hist is None:   # by table row
        used = np.bincount(full.ravel())
        rows = np.flatnonzero(used)   # only the rows the steps use
        # each count is a whole number below 2**53, so the float sums are exact
        counts += np.bincount(cells[rows].ravel(), np.repeat(used[rows], k), counts.size).astype(np.int64)
    elif full.size:
        mine = steps.hist.take(full, axis=0, mode="clip").sum(0, dtype=np.min_scalar_type(n))   # by replay row
        blocks = np.arange(0, len(mine), len(mine) // policies)
        counts += np.add.reduceat(mine, blocks, axis=0, dtype=np.int64).ravel()
    return counts.reshape(policies, steps.M)
