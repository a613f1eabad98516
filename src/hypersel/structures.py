"""Total selection structures on finite ground sets.

A selection structure of arity n on a ground set X assigns to every
n-subset of X one of its own elements.  Arity 2 gives tournaments; the
score of an element counts the subsets that pick it, and constant-score
structures are called regular.

Isomorphism has one search, the canonical labeling behind
canonical_form; joint_isomorphism labels several structures on one
ground together and checks the map composed from two labelings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations
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
)
from .verdict import PASS, Verdict, fail

Label = Hashable

DEFAULT_BUDGET = 10**8  # table cells touched by an enumeration


@lru_cache(maxsize=None)
def subset_ranks(m: int, *ns: int):
    """(tuple of index n-subsets in rank order, dict subset -> rank); for
    several sizes ns, their subsets in turn, one rank dict over them all.
    The cache keeps every table for the life of the process: a caller
    walking many (m, n) pairs calls subset_ranks.cache_clear() between
    them, as CI's regular-witness sweep does."""
    subs = tuple(chain.from_iterable(combinations(range(m), n) for n in ns))
    return subs, {s: r for r, s in enumerate(subs)}


@dataclass(frozen=True)
class GroundSet:
    """Finite ordered carrier; the label order fixes subset ranks."""

    labels: tuple

    def __post_init__(self):
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
    return GroundSet(tuple(range(m)))


@dataclass(frozen=True)
class SelectionStructure:
    """Total choice function on the n-subsets of a ground set.

    picks[r] is the ground index chosen from the rank-r subset, ranks
    following the lexicographic order of sorted index tuples.
    """

    ground: GroundSet
    n: int
    picks: tuple

    def __post_init__(self):
        m = self.ground.size
        if not 1 <= self.n <= m:
            raise OutOfRange(f"arity {self.n} out of range for ground of size {m}")
        subs, _ = subset_ranks(m, self.n)
        if len(self.picks) != len(subs):
            raise MissingSubset(f"expected {len(subs)} choices, got {len(self.picks)}")
        for s, p in zip(subs, self.picks):
            if p not in s:
                raise ChoiceOutsideSubset(f"subset {s} cannot pick index {p}")

    @property
    def size(self) -> int:
        return self.ground.size

    def choose_indices(self, subset: tuple) -> int:
        _, rank = subset_ranks(self.size, self.n)
        return self.picks[rank[subset]]

    def choose(self, labels: Iterable[Label]) -> Label:
        idx = tuple(sorted(self.ground.index(x) for x in labels))
        return self.ground.labels[self.choose_indices(idx)]


class LabelIndex(dict):
    """label -> index: a ground's labels, then labels outside it from
    ground.size on, in order of first use; names[i] labels index i."""

    def __init__(self, ground: GroundSet):
        super().__init__(ground._position)
        self.names = list(ground.labels)

    def __missing__(self, label: Label) -> int:
        self[label] = i = len(self.names)
        self.names.append(label)
        return i


def index_table(ground: GroundSet, table: Mapping) -> tuple:
    """(indexed, names): {subset of labels: chosen label} read on indices,
    each key as a set, as its ascending index tuple (see LabelIndex)."""
    index = LabelIndex(ground)
    indexed = {tuple(sorted({index[x] for x in k})): index[v] for k, v in table.items()}
    if len(indexed) != len(table):
        raise MissingSubset("table keys collapse when read as sets")
    return indexed, index.names


def make_selection(ground: GroundSet, n: int, table: Mapping) -> SelectionStructure:
    """Build a structure from a mapping {n-subset of labels: chosen label}
    covering exactly the n-subsets of the ground set."""
    return index_selection(ground, n, *index_table(ground, table))


def index_selection(ground: GroundSet, n: int, table: Mapping,
                    names: Sequence) -> SelectionStructure:
    """Build a structure from a mapping {ascending index n-tuple: chosen
    index} covering exactly the n-subsets of the ground set.  Errors
    name subsets and picks by label, names[i] for index i: the first
    subset in rank order with no pick or a pick outside it, then any
    entry that is not an n-subset."""
    m = ground.size
    if not 1 <= n <= m:
        raise OutOfRange(f"arity {n} out of range for ground of size {m}")
    picks = []
    for s in combinations(range(m), n):
        v = table.get(s)
        if v not in s:
            named = [names[i] for i in s]
            if v is None:
                raise MissingSubset(f"no choice for subset {named}")
            raise ChoiceOutsideSubset(f"{names[v]!r} not in subset {named}")
        picks.append(v)
    if len(table) != len(picks):
        raise MissingSubset("table has entries that are not n-subsets of the ground")
    return SelectionStructure(ground, n, tuple(picks))


def selection_from_order(ground: GroundSet, n: int, rule: str) -> SelectionStructure:
    """Structure picking the least ("min") or greatest ("max") index."""
    if rule not in ("min", "max"):
        raise OutOfRange(f"rule must be 'min' or 'max', got {rule!r}")
    subs, _ = subset_ranks(ground.size, n)
    picks = tuple(s[0] if rule == "min" else s[-1] for s in subs)
    return SelectionStructure(ground, n, picks)


def rotational_tournament(m: int) -> SelectionStructure:
    """Tournament on 0..m-1 (m odd) where {i,j}, i<j, picks j iff
    (j - i) mod m <= (m-1)/2.  Constant score (m-1)/2."""
    if m % 2 == 0:
        raise OutOfRange(f"rotational tournament needs odd m, got {m}")
    if m < 3:
        raise OutOfRange(f"rotational tournament needs m >= 3, got {m}")
    half = (m - 1) // 2
    subs, _ = subset_ranks(m, 2)
    picks = tuple(j if (j - i) % m <= half else i for i, j in subs)
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
    non-regular or non-pair input is rejected rather than answered.
    """
    if s.n != 2:
        raise NotArityTwo(f"cycle property is about tournaments, arity {s.n} given")
    if not is_regular(s):
        raise NotRegular("cycle property requires a constant-score tournament")
    found = _kernels.cycle_violation(mask_from_tournament(s), s.size)
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


def _relabeled(subs: tuple, rank: Mapping, picks: tuple, sigma: Sequence) -> tuple:
    """The picks, by rank, of the structure that picks[r] on subs[r] is
    carried to by sigma (old index -> new index): the one relabeling
    kernel behind canonical labels, isomorphism checks and apply_iso."""
    out = [0] * len(subs)
    for sub, p in zip(subs, picks):
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
    return _relabeled(*subset_ranks(s.size, s.n), s.picks, phi.apply_indices()) == t.picks


def apply_iso(s: SelectionStructure, phi: IsoMap) -> SelectionStructure:
    """The relabeled structure on phi's target ground."""
    if phi.source != s.ground:
        raise SizeMismatch("map source does not match the structure")
    picks = _relabeled(*subset_ranks(s.size, s.n), s.picks, phi.apply_indices())
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
    all on one ground, labeled together: their subsets and picks are
    concatenated in the order of gs, and the relabeling is stored as
    sigma[old index] = new index.

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
    subs, rank = subset_ranks(m, *[g.n for g in gs])
    picks = sum((g.picks for g in gs), ())
    leaves: dict = {}  # choice tuple -> the first relabeling giving it
    autos: list = []

    def visit(path: list, cells: list) -> None:
        cells = _refine(subs, picks, cells)
        if len(cells) == m:
            sigma = [0] * m  # old index -> new index
            for k, (x,) in enumerate(cells):
                sigma[x] = k
            enc = _relabeled(subs, rank, picks, sigma)
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

    w = [0] * m  # scores, counted over the picks of all of gs
    for p in picks:
        w[p] += 1
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


def are_isomorphic(s: SelectionStructure, t: SelectionStructure) -> Optional[IsoMap]:
    """An isomorphism s -> t when one exists, else None."""
    return joint_isomorphism((s,), (t,))


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
    if not 1 <= n <= m:
        raise OutOfRange(f"arity {n} out of range for ground of size {m}")
    # C(m, n) >= 2**min(n, m - n): past the budget's bit length it is
    # over budget, and comb is not computed (it could take minutes)
    over = min(n, m - n) >= budget.bit_length()
    count = budget + 1 if over else math.comb(m, n)
    if count > budget:
        raise BudgetExceeded(f"C({m},{n}) cells per structure exceed budget {budget}")
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
    per rank.
    """
    subs, rank = subset_ranks(m, n)
    count = len(subs)
    # one int object per (rank, digit) value keeps the columns small
    weight = [[d * n ** (count - 1 - r) for d in range(n)] for r in range(count)]
    columns = [[[] for _ in range(n)] for _ in range(count)]
    for sigma in permutations(range(m)):
        for sub, col in zip(subs, columns):
            image = sorted(sigma[x] for x in sub)
            w = weight[rank[tuple(image)]]
            for x, entries in zip(sub, col):
                entries.append(w[image.index(sigma[x])])
    return columns


# -- regular tournament helpers backed by the kernels ----------------------


def tournament_from_mask(mask: int, m: int) -> SelectionStructure:
    """Unpack a pair-bit mask (set bit picks the larger endpoint)."""
    subs, _ = subset_ranks(m, 2)
    picks = tuple(
        j if (mask >> b) & 1 else i for b, (i, j) in enumerate(subs)
    )
    return SelectionStructure(ground_range(m), 2, picks)


def mask_from_tournament(s: SelectionStructure) -> int:
    if s.n != 2:
        raise NotArityTwo(f"mask packing needs arity 2, got {s.n}")
    subs, _ = subset_ranks(s.size, 2)
    mask = 0
    for b, (i, j) in enumerate(subs):
        if s.picks[b] == j:
            mask |= 1 << b
    return mask


def regular_tournaments(m: int) -> list:
    """Every regular tournament on 0..m-1 (m >= 2), as structures,
    ascending by mask (the pruned row search)."""
    if m < 2:
        raise OutOfRange(f"a tournament needs m >= 2 points, got {m}")
    return [tournament_from_mask(x, m) for x in _kernels.regular_masks_backtracking(m)]
