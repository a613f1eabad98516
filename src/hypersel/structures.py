"""Total selection structures on finite ground sets.

A selection structure of arity n on a ground set X assigns to every
n-subset of X one of its own elements.  Arity 2 gives tournaments; the
score of an element counts the subsets that pick it, and constant-score
structures are called regular.

subset_ranks keeps a table whose C(m, n) * n cells times m are at most
_KEPT_WEIGHT (638 tables of 179,609 cells in all, none with m > 256); a
structure takes its table once, when built, and its readers read it there.

Isomorphism has one search, _labeling_search, with two front ends:
_tournament_labeling, on a tournament's beats bitsets (one tournament's
canonical_form, or each m-subset of extension.partition_types' pair
level on the level's own beats), and an entry front end in
_canonical_labeling for anything else (wider arities, several
structures on one ground labeled together).  joint_isomorphism checks
the map composed from two joint labelings.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations, permutations, product
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from . import _kernels
from .errors import (
    ArityMismatch,
    BrokenInvariant,
    BudgetExceeded,
    ChoiceOutsideSubset,
    DuplicateLabel,
    MissingSubset,
    NotArityTwo,
    NotIso,
    NotRegular,
    OutOfRange,
    SizeMismatch,
    _shown,
    check_int,
)
from .verdict import PASS, Verdict, fail

Label = Hashable

DEFAULT_BUDGET = 10**8  # table cells touched by an enumeration
_KEPT_WEIGHT = 2**16  # C(m, n) * n * m: the cells of the largest subset table kept, times m
_kept: dict = {}  # (m, n) -> subset table, for the nonempty tables within _KEPT_WEIGHT


def subset_ranks(m: int, n: int):
    """(tuple of index n-subsets of 0..m-1 in rank order, dict subset ->
    rank).  A nonempty table whose cells times m are at most _KEPT_WEIGHT
    is kept for the life of the process (the factor m bounds how many are
    kept); any other is built for its caller and never stored."""
    table = _kept.get((m, n))
    if table is None:
        check_int("m", m, 0)  # checked only when no table is kept: (2.0, 2) finds (2, 2)'s
        check_int("n", n, 0)
        subs = tuple(combinations(range(m), n))
        table = subs, {s: r for r, s in enumerate(subs)}
        if 0 < len(subs) * n * m <= _KEPT_WEIGHT:
            _kept[m, n] = table
    return table


@dataclass(frozen=True)
class GroundSet:
    """Finite ordered carrier; the label order, kept as a tuple, fixes subset ranks."""

    labels: tuple

    def __post_init__(self):
        if type(self.labels) is not tuple:
            object.__setattr__(self, "labels", tuple(self.labels))
        try:
            distinct = set(self.labels)
        except TypeError:
            for x in self.labels:
                try:
                    hash(x)
                except TypeError:
                    raise OutOfRange(f"label {_shown(x)} is not hashable") from None
            raise
        if len(distinct) != len(self.labels):
            raise DuplicateLabel(f"repeated labels in {_shown(self.labels)}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _position(self) -> dict:
        return {x: i for i, x in enumerate(self.labels)}

    def index(self, label: Label) -> int:
        try:
            return self._position[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise OutOfRange(f"{_shown(label)} is not a label of the ground") from None

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


def ground_range(m: int) -> GroundSet:
    check_int("m", m, 0)
    return GroundSet(tuple(range(m)))


@dataclass(frozen=True)
class SelectionStructure:
    """Total choice function on the n-subsets of a ground set.

    picks[r] (stored as a tuple) is the ground index chosen from the rank-r
    subset, ranks following the lexicographic order of sorted index tuples.
    """

    ground: GroundSet
    n: int
    picks: tuple
    table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.picks) is not tuple:
            object.__setattr__(self, "picks", tuple(self.picks))
        m = self.ground.size
        check_int("arity", self.n, 1, m)
        object.__setattr__(self, "table", subset_ranks(m, self.n))
        subs = self.table[0]
        if len(self.picks) != len(subs):
            raise MissingSubset(f"expected {len(subs)} choices, got {len(self.picks)}")
        for s, p in zip(subs, self.picks):
            if p not in s:
                raise ChoiceOutsideSubset(f"subset {s} cannot pick index {p}")

    @property
    def size(self) -> int:
        return self.ground.size

    def choose_indices(self, subset: tuple) -> int:
        _, rank = self.table
        return self.picks[rank[subset]]

    def choose(self, labels: Iterable[Label]) -> Label:
        """The pick of the n-subset labels; OutOfRange for any other list."""
        idx = tuple(sorted(self.ground.index(x) for x in labels))
        if idx not in self.table[1]:
            raise OutOfRange(f"{_shown([self.ground.labels[i] for i in idx])} is not a {self.n}-subset")
        return self.ground.labels[self.choose_indices(idx)]


def index_table(ground: GroundSet, table: Mapping) -> dict:
    """{subset of labels: chosen label} read on indices, each key as a
    set, as its ascending index tuple; a label outside the ground raises
    OutOfRange (GroundSet.index), subset labels before the pick."""
    indexed = {tuple(sorted({ground.index(x) for x in k})): ground.index(v)
               for k, v in table.items()}
    if len(indexed) != len(table):
        raise MissingSubset("table keys collapse when read as sets")
    return indexed


def make_selection(ground: GroundSet, n: int, table: Mapping) -> SelectionStructure:
    """Build a structure from a mapping {n-subset of labels: chosen label}
    covering exactly the n-subsets of the ground set."""
    return index_selection(ground, n, index_table(ground, table))


def index_selection(ground: GroundSet, n: int, table: Mapping) -> SelectionStructure:
    """Build a structure from a mapping {ascending index n-tuple: chosen
    ground index} covering exactly the n-subsets of the ground set.
    Errors name subsets and picks by their ground labels (a pick that is
    no ground index by its repr): the first subset in rank order with no
    pick or a pick outside it, then any entry that is not an n-subset."""
    m = ground.size
    check_int("arity", n, 1, m)
    names = ground.labels
    picks = []
    for s in combinations(range(m), n):
        v = table.get(s)
        if type(v) is not int or v not in s:
            named = [names[i] for i in s]
            if v is None:
                raise MissingSubset(f"no choice for subset {_shown(named)}")
            shown = _shown(names[v]) if type(v) is int and 0 <= v < m else f"pick {_shown(v)}"
            raise ChoiceOutsideSubset(f"{shown} not in subset {_shown(named)}")
        picks.append(v)
    if len(table) != len(picks):
        raise MissingSubset("table has entries that are not n-subsets of the ground")
    return SelectionStructure(ground, n, tuple(picks))


def _check_rule(rule: str) -> None:
    if rule not in ("min", "max"):
        raise OutOfRange(f"rule must be 'min' or 'max', got {rule!r}")


def selection_from_order(ground: GroundSet, n: int, rule: str) -> SelectionStructure:
    """Structure picking the least ("min") or greatest ("max") index."""
    _check_rule(rule)
    check_int("arity", n, 1, ground.size)
    picks = tuple(s[0] if rule == "min" else s[-1] for s in combinations(range(ground.size), n))
    return SelectionStructure(ground, n, picks)


def rotational_tournament(m: int) -> SelectionStructure:
    """Tournament on 0..m-1 (m odd) where {i,j}, i<j, picks j iff
    (j - i) mod m <= (m-1)/2.  Constant score (m-1)/2."""
    check_int("m", m, 3)
    if m % 2 == 0:
        raise OutOfRange(f"rotational tournament needs odd m, got {_shown(m)}")
    half = (m - 1) // 2
    picks = tuple(j if (j - i) % m <= half else i for i, j in combinations(range(m), 2))
    return SelectionStructure(ground_range(m), 2, picks)


def score_vector(s: SelectionStructure) -> tuple:
    """Scores by ground index."""
    w = [0] * s.size
    for p in s.picks:
        w[p] += 1
    return tuple(w)


def is_regular(s: SelectionStructure) -> bool:
    return len(set(score_vector(s))) <= 1


def pair_beats(s: SelectionStructure) -> list:
    """beats[v]: the ground-index bitset of the pairs {v, w} of the
    tournament s that pick v, in one pass over its picks
    (_kernels.beats_from_picks); their popcounts are the scores."""
    if s.n != 2:
        raise NotArityTwo(f"beats are read on tournaments, arity {s.n} given")
    return _kernels.beats_from_picks(s.table[0], s.picks, s.size)


def check_cycle_property(s: SelectionStructure) -> Verdict:
    """For a regular tournament: whenever pair {x,y} picks y, some z has
    {y,z} picking z and {z,x} picking x.  Witness on violation is (x,y).

    The counting argument guaranteeing this needs constant scores, so
    non-regular or non-pair input is rejected rather than answered.  One
    pass over the picks builds the beats bitsets (pair_beats);
    their popcounts are the scores, read for regularity before the
    3-cycle scan (_kernels.cycle_scan) runs on them.
    """
    if s.n != 2:
        raise NotArityTwo(f"cycle property is about tournaments, arity {s.n} given")
    beats = pair_beats(s)
    if len({b.bit_count() for b in beats}) > 1:
        raise NotRegular("cycle property requires a constant-score tournament")
    found = _kernels.cycle_scan(beats)
    if found is not None:
        return fail(tuple(s.ground.labels[i] for i in found))
    return PASS


@dataclass(frozen=True)
class IsoMap:
    """Bijection source -> target, stored by source label order."""

    source: GroundSet
    target: GroundSet
    images: tuple  # images[i] is the image of source.labels[i]

    def __post_init__(self):
        if self.source.size != self.target.size:
            raise SizeMismatch("isomorphism endpoints differ in size")
        try:
            onto = set(self.images) == set(self.target.labels)
        except TypeError:  # an unhashable image is no target label
            onto = False
        if len(self.images) != self.source.size or not onto:
            raise NotIso("images do not form a bijection onto the target")

    def apply(self, label: Label) -> Label:
        return self.images[self.source.index(label)]

    def apply_indices(self) -> tuple:
        """Index permutation p with p[source index] = target index."""
        return tuple(self.target.index(x) for x in self.images)


def _pair_offsets(m: int) -> list:
    """off[a] + b is the rank of the pair {a < b} among the 2-subsets of
    0..m-1 in rank order: off[a] counts the pairs whose least member is
    below a, less a + 1."""
    return [a * (2 * m - a - 1) // 2 - a - 1 for a in range(m)]


def _relabeled(s: SelectionStructure, sigma: Sequence) -> tuple:
    """The picks, by rank, of the structure s is carried to by sigma (old
    index -> new index), read on s's own table: the relabeling kernel
    behind the entry front end's leaves, isomorphism checks and
    apply_iso.  Each subset's image, a pair's too, is sorted and looked
    up."""
    subs, rank = s.table
    out = [0] * len(subs)
    for sub, p in zip(subs, s.picks):
        image = [sigma[y] for y in sub]
        image.sort()
        out[rank[tuple(image)]] = sigma[p]
    return tuple(out)


def is_isomorphism(s: SelectionStructure, t: SelectionStructure, phi: IsoMap) -> bool:
    """True iff phi carries every choice of s onto the choice of t."""
    if s.size != t.size:
        raise SizeMismatch(f"ground sizes differ: {s.size} vs {t.size}")
    if s.n != t.n:
        raise ArityMismatch(f"arities differ: {s.n} vs {t.n}")
    if phi.source != s.ground or phi.target != t.ground:
        raise SizeMismatch("map endpoints do not match the structures")
    return _relabeled(s, phi.apply_indices()) == t.picks


def apply_iso(s: SelectionStructure, phi: IsoMap) -> SelectionStructure:
    """The relabeled structure on phi's target ground."""
    if phi.source != s.ground:
        raise SizeMismatch("map source does not match the structure")
    picks = _relabeled(s, phi.apply_indices())
    return SelectionStructure(phi.target, s.n, picks)


def _score_blocks(w: tuple, ids: Optional[Sequence[int]] = None):
    """Ground indices grouped by score, ascending; blocks give the only
    relabelings that can sort the score sequence.  With ids, ids[i]
    stands for index i (the carrier indices of a subset whose scores
    are w)."""
    order: dict = {}
    for i, v in zip(range(len(w)) if ids is None else ids, w):
        order.setdefault(v, []).append(i)
    return [order[v] for v in sorted(order)]


def canonical_candidates(s: SelectionStructure) -> int:
    """Number of relabelings that sort the scores ascending.

    An upper bound on the leaves canonical_form's search can reach, not
    the work it does: refinement and automorphism pruning usually visit
    far fewer.
    """
    return math.prod(math.factorial(len(b)) for b in _score_blocks(score_vector(s)))


def _refiner(subs: tuple, picks: tuple, m: int):
    """The entry front end's refinement on these subsets and picks of the
    ground 0..m-1, whole subset tables joined as _canonical_labeling
    joins them, as a function of the partition (_refine_entries).  Its
    incidence is built here, once per labeling: per-element lists of
    entries (flag, pick, other members), one for each subset holding the
    element, a pair's as any wider subset's.

    Refinement splits the ordered partition ``cells`` of the ground
    indices until it is stable.  The signature of an element is the
    sorted multiset, over the subsets containing it, of (is it the pick,
    the pick's cell, the sorted cells of the other members).  Each cell
    is replaced, where it stands, by its sub-cells in ascending
    signature order.  A cell is named by its first position, so
    signatures, and with them the result, see labels only through the
    partition: relabeling the input relabels the output.  It stops at a
    discrete partition, every element in a singleton cell.
    """
    entries: list = [[] for _ in range(m)]
    for sub, p in zip(subs, picks):
        for k, x in enumerate(sub):
            entries[x].append((x == p, p, sub[:k] + sub[k + 1:]))
    return partial(_refine_entries, entries)


def _refine_wins(beats: list, cells: list) -> list:
    """_refiner's refinement for one tournament, on its beats bitsets, on
    any element ids whose bits they hold: one tournament's ground
    indices, or one m-subset's carrier indices on its pair level's beats
    (extension.partition_types).  Every cell mask lies inside the ids in
    cells, so each count is the restriction's own.

    An element's key is its count of wins inside each cell, in cell
    order, (beats[x] & cell).bit_count(), and sub-cells follow in
    ascending key order.  That is the signature order.  x sits in m - 1
    pairs, with the entry (false, cell of y, cell of y) for a pair
    {x, y} it loses and (true, cell of x, cell of y) for one it wins, so
    its sorted signature is every lost entry, ascending in y's cell,
    then every won entry, ascending in y's cell.  Take x and y in one
    cell and the first cell c where they lose different counts, x more.
    Their lost runs agree through y's losses to c; at the next entry x
    has another loss to c, where y has a later cell or its first won
    entry, so x's signature is the smaller.  Its wins in c are
    |c| - [x in c] less its losses there, and x and y share [x in c],
    so x has fewer wins in c and as many in every earlier cell: its key
    is the smaller too.  Equal keys are equal losses per cell, so equal
    signatures.
    """
    m = sum(map(len, cells))
    while len(cells) < m:
        masks = []
        for c in cells:
            mask = 0
            for x in c:
                mask |= 1 << x
            masks.append(mask)
        split = []
        for c in cells:
            if len(c) == 1:
                split.append(c)
                continue
            groups: dict = {}
            for x in c:
                b = beats[x]
                groups.setdefault(tuple([(b & k).bit_count() for k in masks]), []).append(x)
            split.extend(groups[key] for key in sorted(groups))
        if len(split) == len(cells):
            break
        cells = split
    return cells


def _refine_entries(entries: list, cells: list) -> list:
    """_refiner's refinement on its per-element entry lists: each element
    is keyed by its signature, the sorted tuple of its entries read as
    (flag, the pick's cell, the sorted cells of the other members), and
    each cell splits in ascending key order.  Entries of different
    lengths, in a joint labeling, compare as tuples do.
    """
    m = len(entries)
    while len(cells) < m:
        cell_of = [0] * m
        pos = 0
        for c in cells:
            for x in c:
                cell_of[x] = pos
            pos += len(c)
        split = []
        for c in cells:
            if len(c) == 1:
                split.append(c)
                continue
            groups: dict = {}
            for x in c:
                sig = [(f, cell_of[p], tuple(sorted([cell_of[y] for y in others])))
                       for f, p, others in entries[x]]
                sig.sort()
                groups.setdefault(tuple(sig), []).append(x)
            split.extend(groups[key] for key in sorted(groups))
        if len(split) == len(cells):
            break
        cells = split
    return cells


def _labeling_search(refine, encode, cells: list):
    """(least leaf tuple, the first discrete order giving it): the one
    individualization-refinement search (McKay & Piperno, "Practical
    graph isomorphism, II", 2014) behind every canonical labeling.

    cells is the root's ordered partition of the element ids, any
    distinct non-negative ints (ground indices, or carrier indices of
    one subset); refine(cells) refines a partition (a front end's), and
    encode(order) reads a discrete partition, given as its elements in
    order, as a leaf tuple: the relabeling that sends the element in
    position k to k, applied to what is labeled.  The search refines,
    then individualizes each element of the first smallest non-singleton
    cell in turn and recurses; the least tuple over the leaves wins.
    refine and encode must see ids only through the partition, so the
    result is constant on isomorphism classes.  Two leaves with equal
    tuples give an automorphism, a list indexed by element id sending
    the first leaf's k-th element to the second's; a child is skipped
    when an automorphism fixing the path maps an explored sibling onto
    it, since its subtree holds the same tuples.
    """
    m = sum(map(len, cells))
    cells = refine(cells)
    if len(cells) == m:  # discrete at the root: the one leaf
        order = [x for (x,) in cells]
        return encode(order), order
    ids = 1 + max(x for c in cells for x in c)  # length of an automorphism
    leaves: dict = {}  # leaf tuple -> the first order giving it
    autos: list = []

    def visit(path: list, cells: list) -> None:
        if len(cells) == m:
            order = [x for (x,) in cells]
            enc = encode(order)
            first = leaves.get(enc)
            if first is None:
                leaves[enc] = order
            else:
                g = list(range(ids))
                for x, y in zip(first, order):
                    g[x] = y
                autos.append(g)
            return
        size = min(len(c) for c in cells if len(c) > 1)
        t = next(i for i, c in enumerate(cells) if len(c) == size)
        done: set = set()
        for v in cells[t]:
            if done and not _orbit(v, autos, path).isdisjoint(done):
                continue
            done.add(v)
            rest = [x for x in cells[t] if x != v]
            visit(path + [v], refine(cells[:t] + [[v], rest] + cells[t + 1:]))

    visit([], cells)
    best = min(leaves)
    return best, leaves[best]


def _tournament_labeling(beats: list, w: Sequence[int], ids: Optional[Sequence[int]] = None):
    """(least choice tuple, first order giving it) of the tournament with
    these beats on its element ids: _labeling_search from the score
    blocks of w (_score_blocks), refining on wins per cell
    (_refine_wins), each leaf read off the beats (_pair_leaf).  One
    tournament on its ground (_canonical_labeling) and each m-subset of
    a pair level on carrier indices (extension.partition_types)."""
    return _labeling_search(partial(_refine_wins, beats), partial(_pair_leaf, beats),
                            _score_blocks(w, ids))


def _pair_leaf(beats: list, order: list) -> tuple:
    """The choice tuple, in rank order, of the tournament with these beats
    on the element ids in order, relabeled so that order[k] goes to k:
    the pair {i < j} picks j iff bit order[i] of beats[order[j]] is set
    (on one tournament, _relabeled's tuple for _positions(order))."""
    m = len(order)
    return tuple([j if beats[order[j]] >> order[i] & 1 else i
                  for i in range(m) for j in range(i + 1, m)])


def _canonical_labeling(gs: Sequence[SelectionStructure]):
    """(least choice tuple, relabeling giving it) of the structures gs,
    all on one ground, labeled together, the relabeling stored as
    sigma[old index] = new index.  One tournament is labeled on its
    beats, scored by popcounts (_tournament_labeling), which gives the
    entry front end's partitions and leaf tuples.  Anything else
    takes that front end: the root is the score classes, counted over
    the picks of all of gs, ascending; the refinement reads the subsets
    and picks of gs joined in their order, its incidence built once
    (_refiner); a leaf joins, in that order, each one's relabeling on
    its own table (_relabeled), for one structure (canonical_form at
    arity 3 and up, partition_types' restrictions) not a copy.  The
    result is constant on isomorphism classes of the tuple gs.
    """
    if len(gs) == 1 and gs[0].n == 2:
        beats = pair_beats(gs[0])
        best, order = _tournament_labeling(beats, [b.bit_count() for b in beats])
        return best, tuple(_positions(order))
    m = gs[0].size
    subs = sum([g.table[0] for g in gs], ())
    picks = sum([g.picks for g in gs], ())
    w = [0] * m
    for p in picks:
        w[p] += 1

    def encode(order: list) -> tuple:
        sigma = _positions(order)
        return sum([_relabeled(g, sigma) for g in gs], ())

    best, order = _labeling_search(_refiner(subs, picks, m), encode, _score_blocks(w))
    return best, tuple(_positions(order))


def _positions(order: list) -> list:
    """sigma[old index] = new index for the leaf order of the indices
    0..m-1: the element in position k goes to k."""
    sigma = [0] * len(order)
    for k, x in enumerate(order):
        sigma[x] = k
    return sigma


def _orbit(v: int, autos: list, path: list) -> set:
    """The orbit of v under the automorphisms that fix path pointwise."""
    gens = [g for g in autos if all(g[x] == x for x in path)]
    orbit = {v}
    todo = [v]
    while todo:
        x = todo.pop()
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                todo.append(g[x])
    return orbit


def canonical_form(s: SelectionStructure):
    """Canonical representative on the ground 0..m-1 plus the certifying
    map: the one-structure case of _canonical_labeling, so the result is
    constant on isomorphism classes and idempotent."""
    best, sigma = _canonical_labeling((s,))
    canon = SelectionStructure(ground_range(s.size), s.n, best)
    return canon, IsoMap(s.ground, canon.ground, sigma)


def joint_isomorphism(gs: Sequence[SelectionStructure],
                      ts: Sequence[SelectionStructure]) -> Optional[IsoMap]:
    """One bijection that is an isomorphism of every gs[i] onto ts[i],
    or None when there is none.  Each side is one or more structures on
    one ground.  The two joint canonical labelings are compared and
    composed; the map is checked at every level before it is returned."""
    for side in (gs, ts):
        if not side or len({g.ground for g in side}) > 1:
            raise OutOfRange("need one or more structures on one ground on each side")
    if [(g.size, g.n) for g in gs] != [(t.size, t.n) for t in ts]:
        return None
    best, sigma = _canonical_labeling(gs)
    other, tau = _canonical_labeling(ts)
    if best != other:
        return None
    back = dict(zip(tau, ts[0].ground.labels))  # canonical index -> target label
    phi = IsoMap(gs[0].ground, ts[0].ground, tuple(back[k] for k in sigma))
    if not all(is_isomorphism(g, t, phi) for g, t in zip(gs, ts)):
        raise BrokenInvariant(
            "equal canonical forms composed to a map that is not an isomorphism"
        )
    return phi


def enumerate_selections(
    m: int,
    n: int,
    up_to_iso: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[SelectionStructure]:
    """Stream every structure of arity n on the ground 0..m-1.

    Order is subset-rank-major, ground-order-minor: itertools.product
    over the subsets in rank order, so the rank-0 choice is the most
    significant digit and candidates within a subset follow the ground
    order.  Every structure is on one shared ground.

    With up_to_iso, each class's first structure is yielded in order of
    first appearance, as its least choice tuple (_canonical_labeling) on
    the enumeration's one shared ground.  Each new class marks the
    indices of all m! relabelings of its first structure in a byte map
    over the index range, one sum of C(m, n) packed columns
    (_packed_columns), and a marked index is skipped undecoded; only a
    new class's index is decoded into its digits.  The byte map holds at
    most 2**32 indices (_slot); a larger range raises OutOfRange, eagerly.

    Cost is metered in table cells: count = C(m, n) per index walked,
    plus m! * count per new class for marking its orbit.  Exceeding the
    budget raises BudgetExceeded, eagerly (before any table is built)
    when the labeled structures alone are too many.
    """
    check_int("m", m, 1)
    check_int("arity", n, 1, m)
    check_int("budget", budget, 1)
    # C(m, n) >= 2**min(n, m - n): past the budget's bit length it is
    # over budget, and comb is not computed (it could take minutes)
    over = min(n, m - n) >= budget.bit_length()
    count = budget + 1 if over else math.comb(m, n)
    if count > budget:
        raise BudgetExceeded(f"C({_shown(m)},{n}) cells per structure exceed budget {budget}")
    # only whether there are more than budget // count structures
    # matters, so n**count >= 2**(count * (bits of n - 1)) is not
    # computed once that bound passes cap
    cap = budget // count + 1
    total = n**count if count * (n.bit_length() - 1) < cap.bit_length() else cap
    if total * count > budget:
        raise BudgetExceeded(
            f"more than {budget // count} structures x {count} cells exceed budget {budget}"
        )
    if up_to_iso:
        width, code = _slot(total)  # before any table: a range past the byte map is refused
    subs, _ = subset_ranks(m, n)
    ground = ground_range(m)

    def classes() -> Iterator[SelectionStructure]:
        marked = bytearray(total)
        relabelings = math.factorial(m)
        orbit_cells = relabelings * count
        found = 0
        packed = None
        pos = marked.find(0)
        while pos >= 0:
            found += 1
            if (pos + 1) * count + found * orbit_cells > budget:
                raise BudgetExceeded(f"budget {budget} exhausted mid-stream")
            if packed is None:
                packed = _packed_columns(m, n, code)
            digits = []  # per subset rank, the position of the pick within the subset
            rest = pos
            for _ in range(count):
                rest, d = divmod(rest, n)
                digits.append(d)
            digits.reverse()
            orbit = sum([packed[r][d] for r, d in enumerate(digits)])
            for idx in memoryview(orbit.to_bytes(relabelings * width, sys.byteorder)).cast(code):
                marked[idx] = 1
            picks = tuple(subs[r][d] for r, d in enumerate(digits))
            best, _ = _canonical_labeling((SelectionStructure(ground, n, picks),))
            yield SelectionStructure(ground, n, best)
            pos = marked.find(0, pos + 1)
        if total * count + found * orbit_cells > budget:
            raise BudgetExceeded(f"budget {budget} exhausted mid-stream")

    if up_to_iso:
        return classes()
    # total * count <= budget is checked above: the labeled stream needs no meter
    return (SelectionStructure(ground, n, picks) for picks in product(*subs))


_SLOTS = ((1, "B"), (2, "H"), (4, "I"))  # (bytes, memoryview format) of a packed slot


def _slot(total: int) -> tuple:
    """(width, format) of the narrowest packed slot that holds total - 1,
    the largest index of a range of total indices; OutOfRange past 4
    bytes, so the class stream's byte map holds at most 2**32 indices."""
    for width, code in _SLOTS:
        if total <= 256**width:
            return width, code
    raise OutOfRange(f"{_shown(total)} indices exceed the class stream's byte map of 2**32")


def _packed_columns(m: int, n: int, code: str) -> list:
    """packed[r][d]: the column _relabeling_columns(m, n)[r][d] as one
    int, its q-th entry in the q-th slot (slots of the width of format
    code, native byte order), so the sum over ranks of one packed column
    each holds, slot by slot, the indices of all m! relabelings of one
    structure; int.to_bytes and memoryview.cast read them back.

    No slot carries into the next: every entry is at least 0, so each
    partial sum in slot q is at most the full one, the index of the q-th
    relabeled structure, which is below the range's total, and the slot
    (_slot) holds total - 1.
    """
    return [[int.from_bytes(array(code, col).tobytes(), sys.byteorder) for col in cols]
            for cols in _relabeling_columns(m, n)]


def _relabeling_columns(m: int, n: int) -> list:
    """columns[r][d][q]: what the rank-r subset, picking its d-th member,
    adds to the enumeration index of a structure after the q-th
    relabeling of the ground (itertools.permutations order).

    A structure's index is the sum over ranks of digit * n**(count-1-rank),
    so the index of each relabeled copy is the sum of one column entry
    per rank.  For pairs the image {x, y} of {a, b} has rank off[min] +
    max (see _pair_offsets), and a sits at position 0 exactly when x is
    the smaller; wider subsets are sorted and looked up in rank.
    """
    subs, rank = subset_ranks(m, n)
    count = len(subs)
    # one int object per (rank, digit) value keeps the columns small
    weight = [[d * n ** (count - 1 - r) for d in range(n)] for r in range(count)]
    columns = [[[] for _ in range(n)] for _ in range(count)]
    if n == 2:
        off = _pair_offsets(m)
        for sigma in permutations(range(m)):
            for (a, b), (low, high) in zip(subs, columns):
                x, y = sigma[a], sigma[b]
                if x < y:
                    w = weight[off[x] + y]
                    low.append(w[0])
                    high.append(w[1])
                else:
                    w = weight[off[y] + x]
                    low.append(w[1])
                    high.append(w[0])
        return columns
    for sigma in permutations(range(m)):
        for sub, col in zip(subs, columns):
            image = sorted(sigma[x] for x in sub)
            w = weight[rank[tuple(image)]]
            for x, entries in zip(sub, col):
                entries.append(w[image.index(sigma[x])])
    return columns


# -- regular tournament helpers backed by the kernels ----------------------


def tournament_from_mask(mask: int, m: int) -> SelectionStructure:
    """Unpack a pair-bit mask (set bit picks the larger endpoint); an m
    outside 0.._kernels.MAX_MASK_M, a mask outside 0..2**C(m,2) - 1, or a
    mask or m not an int, raises OutOfRange."""
    picks = _kernels.mask_picks(mask, m)  # checked before the ground is built
    return SelectionStructure(ground_range(m), 2, picks)


def mask_from_tournament(s: SelectionStructure) -> int:
    if s.n != 2:
        raise NotArityTwo(f"mask packing needs arity 2, got {s.n}")
    return _kernels.picks_mask(s.picks, s.size)


def regular_tournaments(m: int) -> list:
    """Every regular tournament on 0..m-1, 2 <= m <= _kernels.MAX_M, as
    structures on one shared ground_range(m), ascending by mask (the row
    search on states of _kernels.regular_masks_backtracking), each mask
    unpacked through the byte tables of _kernels.mask_picks."""
    check_int("m", m, 2, _kernels.MAX_M)
    ground = ground_range(m)
    return [SelectionStructure(ground, 2, _kernels.mask_picks(x, m))
            for x in _kernels.regular_masks_backtracking(m)]
