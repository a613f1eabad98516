"""Kernels for arity-2 tournament scans.

The mask format, defined here alone: bit b of an m-vertex mask is the
rank-b pair (i, j), i < j, in lexicographic order, set when the pair
picks j.  picks_mask encodes picks; mask_picks decodes a mask a byte at
a time through per-m tables of byte value -> picks of those 8 pairs.  A
mask or m that is not an int, an m outside 0..MAX_MASK_M or a mask
outside 0..2**C(m,2) - 1 is rejected (errors.check_int) before any
table is read.
beats_from_picks builds the beats bitsets (beats[v]: the vertices w
whose pair {v, w} picks v) that the score kernel and the 3-cycle scan,
cycle_scan, read; the scan takes one union of beats per vertex.

The regular masks are listed two ways: regular_masks_exhaustive scans
all 2^C(m,2) masks, and regular_masks_backtracking searches row by row
on states (a row index and the wins so far of the vertices not yet
placed), listing each state's completions once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import check_int

BACKEND = "pure"
# the largest m the kernels take; it bounds each call's pair-bit table and the kept byte tables
MAX_M = 11
# the largest m a mask is read or written for: C(1024, 2) = 523,776 pair bits
MAX_MASK_M = 1024


class _ByteTable(dict):
    """Byte value v -> the picks of one byte's pairs (at most 8, rank
    order) when that byte of the mask is v; each entry is built on its
    first read."""

    def __init__(self, pairs: list):
        super().__init__()
        self.pairs = pairs

    def __missing__(self, v: int) -> tuple:
        picks = self[v] = tuple(j if v >> t & 1 else i for t, (i, j) in enumerate(self.pairs))
        return picks


def _byte_tables(m: int) -> tuple:
    """One _ByteTable per byte of an m-point mask: byte k holds pairs
    8k..8k+7, and a partial last byte the C(m,2) % 8 pairs left."""
    pairs = list(combinations(range(m), 2))
    return tuple(_ByteTable(pairs[k:k + 8]) for k in range(0, len(pairs), 8))


# the tables of 2 <= m <= MAX_M are kept: 32 tables of at most 256
# entries, under 1 MB when every entry of all ten sizes is read; a
# larger m builds its tables for the call and drops them
_kept_byte_tables = lru_cache(maxsize=None)(_byte_tables)


def mask_picks(mask: int, m: int) -> tuple:
    """The picks of a mask's pairs in rank order (set bit picks the
    larger endpoint), read a byte at a time."""
    check_int("m", m, 0, MAX_MASK_M)
    check_int("mask", mask, 0, (1 << m * (m - 1) // 2) - 1)  # a bit per pair
    picks = []  # a list: adding to a tuple copies it, quadratic at large m
    for table in (_kept_byte_tables if 2 <= m <= MAX_M else _byte_tables)(m):
        picks += table[mask & 255]
        mask >>= 8
    return tuple(picks)


def picks_mask(picks, m: int) -> int:
    """mask_picks inverted: one pick per pair, in the pair order that
    _byte_tables decodes; picks of another length raise ValueError."""
    check_int("m", m, 0, MAX_MASK_M)
    mask = 0
    for b, ((_, j), p) in enumerate(zip(combinations(range(m), 2), picks, strict=True)):
        if p == j:
            mask |= 1 << b
    return mask


def beats_from_picks(pairs, picks, m: int) -> list:
    """beats[v]: the vertex bitset of the pairs {v, w} that pick v, in
    one pass over the picks of pairs (both in rank order)."""
    beats = [0] * m
    for (i, j), p in zip(pairs, picks):
        if p == j:
            beats[j] |= 1 << i
        else:
            beats[i] |= 1 << j
    return beats


def tournament_scores(mask: int, m: int) -> tuple:
    """Number of pairs picking each vertex, indexed by vertex."""
    check_int("m", m, 1, MAX_M)
    beats = beats_from_picks(combinations(range(m), 2), mask_picks(mask, m), m)
    return tuple(b.bit_count() for b in beats)


def _pair_bits(m: int) -> tuple:
    """bit[v][w]: the mask bit of pair {v, w}; bit[v][v] is 0."""
    bit = [[0] * m for _ in range(m)]
    for b, (i, j) in enumerate(combinations(range(m), 2)):
        bit[i][j] = bit[j][i] = 1 << b
    return tuple(map(tuple, bit))


def regular_masks_exhaustive(m: int) -> list:
    """All constant-score tournament masks, by full scan of 2^C(m,2)."""
    check_int("m", m, 1, MAX_M)
    if m % 2 == 0:  # m does not divide C(m, 2)
        return []
    target = (m - 1) // 2
    # v wins the pairs {u, v}, u < v, whose bit is set and the pairs
    # {v, w}, w > v, whose bit is clear
    sides = [(sum(row[:v]), m - 1 - v, sum(row[v + 1:])) for v, row in enumerate(_pair_bits(m))]
    out = []
    for x in range(1 << (m * (m - 1) // 2)):
        for high, nlow, low in sides:
            if (x & high).bit_count() + nlow - (x & low).bit_count() != target:
                break
        else:
            out.append(x)
    return out


def regular_masks_backtracking(m: int) -> list:
    """All constant-score tournament masks, ascending, by a row search
    on states.

    Row v decides every pair (v, w) with w > v, so v's score is final
    once the row is placed.  A row is cut when it would take a later
    vertex past the target score; a vertex needing more wins than it has
    pairs left has no row.  The rows v.. depend only on the state: the
    wins so far of vertices v.. (a tuple, whose length gives v).  Each
    state's row choices are found, and its completions (the masks of
    rows v.., ascending) listed, once.  The lists of row-2 and later
    states are kept for the call; the root and each row-1 state are
    reached once, as each row 0 leaves the later vertices a win pattern
    of its own.
    """
    check_int("m", m, 1, MAX_M)
    if m % 2 == 0:  # m does not divide C(m, 2)
        return []
    target = (m - 1) // 2
    bit = _pair_bits(m)
    kept = {}  # state of row 2 or later -> its completions

    def completions(wins: tuple) -> list:
        v = m - len(wins)
        if v == m - 1:  # every other score is final at the target: so is this one
            return [0]
        row = bit[v]
        rest = range(1, len(wins))  # wins[k] is vertex v + k's
        out = []
        for beaten in combinations(rest, target - wins[0]):  # none if v can no longer reach it
            row_mask = 0
            child = list(wins[1:])
            for k in rest:
                if k not in beaten:
                    # pair (v, v + k) picks v + k: set its bit, v + k gains a win
                    row_mask |= row[v + k]
                    child[k - 1] += 1
            if max(child) <= target:
                child = tuple(child)
                sub = kept.get(child)
                if sub is None:
                    sub = completions(child)
                    if v:  # a row-1 state is reached once: keep none
                        kept[child] = sub
                out += [row_mask | c for c in sub]
        # each row's masks ascend, as its bits lie below the later rows':
        # the sort merges those runs
        out.sort()
        return out

    out = completions((0,) * m)
    del completions  # it refers to itself: drop the cycle, the bit table and the kept lists now
    return out


def cycle_scan(beats: list) -> tuple | None:
    """First (x, y), by x then y, with pair {x,y} picking y but no z
    closing a 3-cycle (pair {y,z} picks z and pair {z,x} picks x); None
    if there is none.  beats[v] is the vertex bitset of the pairs that
    pick v, for v in 0..m-1.

    Such a z is a vertex beaten by x that beats y, so the y of x's
    violations are the vertices that beat x outside the union of the
    beats of the vertices x beats: one union per x, tested once.
    """
    everyone = (1 << len(beats)) - 1
    for x, wins in enumerate(beats):
        reach = wins | 1 << x  # x, what x beats, and what those beat
        zs = wins
        while zs:
            low = zs & -zs
            reach |= beats[low.bit_length() - 1]
            zs ^= low
        missed = everyone & ~reach
        if missed:
            return x, (missed & -missed).bit_length() - 1
    return None


def first_cycle_violation(m: int, masks) -> tuple | None:
    """First (mask, x, y) with (x, y) the cycle_scan of the tournament
    packed in mask; None if every mask satisfies the property."""
    check_int("m", m, 1, MAX_M)
    pairs = tuple(combinations(range(m), 2))
    for mask in masks:
        found = cycle_scan(beats_from_picks(pairs, mask_picks(mask, m), m))
        if found is not None:
            return (mask, *found)
    return None
