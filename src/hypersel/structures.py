"""Total selection structures on finite ground sets.

A selection structure of arity n on a ground set X assigns to every
n-subset of X one of its own elements.  Arity 2 gives tournaments; the
score of an element counts the subsets that pick it, and constant-score
structures are called regular.

subset_ranks keeps a table whose C(m, n) * n cells times m are at most
_KEPT_WEIGHT (638 tables of 179,609 cells in all, none with m > 256); a
structure takes its table once, when built, and its readers read it there.

Isomorphism has one search, the canonical labeling behind
canonical_form; joint_isomorphism labels several structures on one
ground together and checks the map composed from two labelings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations
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
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"repeated labels in {self.labels!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _position(self) -> dict:
        return {x: i for i, x in enumerate(self.labels)}

    def index(self, label: Label) -> int:
        if label not in self._position:
            raise OutOfRange(f"{label!r} is not a label of the ground")
        return self._position[label]

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
            raise OutOfRange(f"{[self.ground.labels[i] for i in idx]} is not a {self.n}-subset")
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
                raise MissingSubset(f"no choice for subset {named}")
            shown = repr(names[v]) if type(v) is int and 0 <= v < m else f"pick {_shown(v)}"
            raise ChoiceOutsideSubset(f"{shown} not in subset {named}")
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


def check_cycle_property(s: SelectionStructure) -> Verdict:
    """For a regular tournament: whenever pair {x,y} picks y, some z has
    {y,z} picking z and {z,x} picking x.  Witness on violation is (x,y).

    The counting argument guaranteeing this needs constant scores, so
    non-regular or non-pair input is rejected rather than answered.  One
    pass over the picks builds the beats bitsets (_kernels.beats_from_picks);
    their popcounts are the scores, read for regularity before the
    3-cycle scan (_kernels.cycle_scan) runs on them.
    """
    if s.n != 2:
        raise NotArityTwo(f"cycle property is about tournaments, arity {s.n} given")
    beats = _kernels.beats_from_picks(s.table[0], s.picks, s.size)
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
        if len(self.images) != self.source.size or set(self.images) != set(self.target.labels):
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
    index -> new index), read on s's own table: the one relabeling kernel
    behind canonical labels, isomorphism checks and apply_iso.  A pair's
    image {x, y} is ranked by arithmetic, off[min] + max (see
    _pair_offsets); a wider subset's image is sorted and looked up."""
    subs, rank = s.table
    out = [0] * len(subs)
    if s.n == 2:
        off = _pair_offsets(len(sigma))
        for (a, b), p in zip(subs, s.picks):
            x, y = sigma[a], sigma[b]
            out[off[x] + y if x < y else off[y] + x] = sigma[p]
        return tuple(out)
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


def _score_blocks(w: tuple):
    """Ground indices grouped by score, ascending; blocks give the only
    relabelings that can sort the score sequence."""
    order: dict = {}
    for i, v in enumerate(w):
        order.setdefault(v, []).append(i)
    return [order[v] for v in sorted(order)]


def canonical_candidates(s: SelectionStructure) -> int:
    """Number of relabelings that sort the scores ascending.

    An upper bound on the leaves canonical_form's search can reach, not
    the work it does: refinement and automorphism pruning usually visit
    far fewer.
    """
    return math.prod(math.factorial(len(b)) for b in _score_blocks(score_vector(s)))


def _refine(subs: tuple, picks: tuple, cells: list) -> list:
    """Split the ordered partition ``cells`` of the ground indices until
    it is stable.

    The signature of an element is the sorted multiset, over the subsets
    containing it, of (is it the pick, the pick's cell, the sorted cells
    of the other members).  Each cell is replaced, where it stands, by
    its sub-cells in ascending signature order.  A cell is named by its
    first position, so signatures, and with them the result, see labels
    only through the partition: relabeling the input relabels the output.

    Each entry is read as one int, its fields as digits in base m + 1:
    the flag, then the pick's cell, then the other members' cells, with
    cells numbered from 1 and a short tail padded with 0 up to the
    widest subset's count of other members.  Every digit is below the
    base, so integer order is the lexicographic order of the digit
    strings; a cell digit is never 0, so a shorter tail sorts before any
    longer one sharing its prefix, as a shorter tuple does.  Integer
    order is therefore the order of the (flag, cell, cells) tuples, also
    for the entries of different lengths in a joint labeling, and sorted
    code tuples group and order elements exactly as sorted entry tuples
    do.  The incidence lists are built once per call: for a pair {x, y},
    x's entry is (true, cell of x, cell of y) when x is picked and
    (false, cell of y, cell of y) when y is, so x keeps only y in the
    list of pairs it wins or loses.
    """
    m = sum(len(c) for c in cells)
    base = m + 1
    width = max(map(len, subs), default=1) - 1  # digits for the other members
    lead = base**width  # place of the pick's cell
    top = lead * base  # place of the flag
    unit = lead // base  # place of a pair's other member (0 when there are no pairs)
    won: list = [[] for _ in range(m)]  # won[x]: the y of each pair {x, y} picking x
    lost: list = [[] for _ in range(m)]  # lost[x]: the y of each pair {x, y} picking y
    wider: list = [[] for _ in range(m)]  # (flag, pick, other members, last place)
    for sub, p in zip(subs, picks):
        if len(sub) == 2:
            x, y = sub
            if p == x:
                won[x].append(y)
                lost[y].append(x)
            else:
                won[y].append(x)
                lost[x].append(y)
            continue
        place = base ** (width + 1 - len(sub))
        for k, x in enumerate(sub):
            wider[x].append((top if x == p else 0, p, sub[:k] + sub[k + 1:], place))
    both = lead + unit
    while len(cells) < m:
        cell_of = [0] * m
        pos = 1
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
                mine = top + cell_of[x] * lead
                sig = [mine + cell_of[y] * unit for y in won[x]]
                sig += [cell_of[y] * both for y in lost[x]]
                for f, p, others, place in wider[x]:
                    code = 0
                    for cell in sorted([cell_of[y] for y in others]):
                        code = code * base + cell
                    sig.append(f + cell_of[p] * lead + code * place)
                sig.sort()
                groups.setdefault(tuple(sig), []).append(x)
            split.extend(groups[key] for key in sorted(groups))
        if len(split) == len(cells):
            break
        cells = split
    return cells


def _canonical_labeling(gs: Sequence[SelectionStructure]):
    """(least choice tuple, relabeling giving it) of the structures gs,
    all on one ground, labeled together, the relabeling stored as
    sigma[old index] = new index.  One structure (canonical_form, and
    extension.partition_types once per m-subset) is read as it stands:
    _refine reads its own table and picks, the search starts from its
    score vector, and a leaf's choice tuple is its relabeling, with
    nothing copied.  Several (joint_isomorphism) are joined: _refine
    reads their subsets and picks concatenated in the order of gs, and
    a leaf's choice tuple joins, in that order, each one's relabeling on
    its own table.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): start from the score classes, counted over
    the picks of all of gs, in ascending order, refine (see _refine),
    then individualize each element of the first smallest non-singleton
    cell in turn and recurse.  Every discrete partition is a leaf, read
    as the relabeling that sends the element in position k to k; the
    least choice tuple over the leaves wins.  The tree is built from
    isomorphism invariants only, so the result is constant on
    isomorphism classes of the tuple gs.  Two leaves with equal tuples
    give an automorphism; a child is skipped when an automorphism fixing
    the path maps an explored sibling onto it, since its subtree holds
    the same tuples.
    """
    m = gs[0].size
    if len(gs) == 1:
        g = gs[0]
        subs, picks, w = g.table[0], g.picks, score_vector(g)

        def encode(sigma: list) -> tuple:
            return _relabeled(g, sigma)
    else:
        subs = sum((g.table[0] for g in gs), ())
        picks = sum((g.picks for g in gs), ())
        w = [sum(col) for col in zip(*map(score_vector, gs))]

        def encode(sigma: list) -> tuple:
            return sum((_relabeled(g, sigma) for g in gs), ())
    leaves: dict = {}  # choice tuple -> the first relabeling giving it
    autos: list = []

    def visit(path: list, cells: list) -> None:
        cells = _refine(subs, picks, cells)
        if len(cells) == m:
            sigma = [0] * m  # old index -> new index
            for k, (x,) in enumerate(cells):
                sigma[x] = k
            enc = encode(sigma)
            if enc in leaves:
                first = leaves[enc]
                inv = [0] * m
                for x, k in enumerate(sigma):
                    inv[k] = x
                autos.append(tuple(inv[first[x]] for x in range(m)))
            else:
                leaves[enc] = tuple(sigma)
            return
        size = min(len(c) for c in cells if len(c) > 1)
        t = next(i for i, c in enumerate(cells) if len(c) == size)
        done: set = set()
        for v in cells[t]:
            if done and not _orbit(v, autos, path).isdisjoint(done):
                continue
            done.add(v)
            rest = [x for x in cells[t] if x != v]
            visit(path + [v], cells[:t] + [[v], rest] + cells[t + 1:])

    visit([], _score_blocks(w))
    best = min(leaves)
    return best, leaves[best]


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

    Order is subset-rank-major, ground-order-minor: the rank-0 choice is
    the most significant digit and candidates within a subset follow the
    ground order.

    With up_to_iso, the canonical form of the first structure of each
    isomorphism class is yielded, in order of first appearance.  Each
    new class marks the indices of all m! relabelings of its first
    structure in a byte map over the index range, and a marked index is
    skipped without being decoded.

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
    subs, _ = subset_ranks(m, n)
    ground = ground_range(m)

    def decode(idx: int) -> list:
        """Per subset rank, the position of the pick within the subset."""
        digits = []
        for _ in range(count):
            idx, d = divmod(idx, n)
            digits.append(d)
        digits.reverse()
        return digits

    def structure(digits: list) -> SelectionStructure:
        return SelectionStructure(
            ground, n, tuple(subs[r][d] for r, d in enumerate(digits))
        )

    def classes() -> Iterator[SelectionStructure]:
        marked = bytearray(total)
        orbit_cells = math.factorial(m) * count
        found = 0
        columns = None
        pos = marked.find(0)
        while pos >= 0:
            found += 1
            if (pos + 1) * count + found * orbit_cells > budget:
                raise BudgetExceeded(f"budget {budget} exhausted mid-stream")
            if columns is None:
                columns = _relabeling_columns(m, n)
            digits = decode(pos)
            terms = [columns[r][d] for r, d in enumerate(digits)]
            for idx in map(sum, zip(*terms)):
                marked[idx] = 1
            canon, _ = canonical_form(structure(digits))
            yield canon
            pos = marked.find(0, pos + 1)
        if total * count + found * orbit_cells > budget:
            raise BudgetExceeded(f"budget {budget} exhausted mid-stream")

    # total * count <= budget is checked above: the labeled stream needs no meter
    return classes() if up_to_iso else (structure(decode(i)) for i in range(total))


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
