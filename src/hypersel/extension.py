"""Extension of small-arity selections to larger arities.

Given a selection f defined up to arity k, a prime p <= k dividing m
with m/2 <= k, every m-subset's arity-p restriction is non-regular (by
the divisibility obstruction), so it has a least level class Q of size
at most m/2; applying f to Q picks one element of the subset.  The rule
runs subset by subset on carrier indices: scores are isomorphism
invariants, so the result is equivariant without computing any
isomorphism type.  Type partitions describe the classes for a report:
one labeling per m-subset, on carrier indices, from the score blocks of
the same walk, each key on one shared ground_range(m).  An extend op
scores each subset once for the rule, its label and its class's level
(extend_with_types).  certified_isomorphism checks equivariance on a
pair of subsets through one joint canonical labeling of all their
restriction levels (structures.joint_isomorphism).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    ArityMismatch,
    ArityNotInDomain,
    BrokenInvariant,
    HypothesisViolated,
    MissingSubset,
    NotIso,
    NotPrime,
    OutOfRange,
    RegularInput,
    SizeMismatch,
    _shown,
    check_int,
)
from .obstruction import is_prime
from .structures import (
    GroundSet,
    IsoMap,
    Label,
    SelectionStructure,
    _canonical_labeling,
    _check_rule,
    _score_blocks,
    _tournament_labeling,
    ground_range,
    index_selection,
    index_table,
    is_isomorphism,
    joint_isomorphism,
    pair_beats,
    score_vector,
    selection_from_order,
)

MODE_UPTO = "upto"
MODE_EXACT = "exact"


def admissible_sizes(mode: str, bound: int) -> range:
    """Subset sizes a selection of this mode and bound is defined on:
    1..bound for "upto", only bound for "exact"."""
    check_int("bound", bound)
    return range(1 if mode == MODE_UPTO else bound, bound + 1)


def _check_domain(carrier: GroundSet, mode: str, bound: int) -> None:
    if mode not in (MODE_UPTO, MODE_EXACT):
        raise OutOfRange(f"unknown mode {mode!r}")
    # upto 0 is the empty selection (legal on an empty carrier)
    check_int("bound", bound, 0 if mode == MODE_UPTO else 1, carrier.size)


@dataclass(frozen=True)
class PartialSelection:
    """Choice function on the subsets of a carrier admitted by its mode.

    Mode "upto" covers all sizes 1..bound, mode "exact" only size
    bound.  levels[size] is the selection on the size-subsets of the
    carrier, so a selection over F_k(X) is its k structures on [X]^i.
    """

    carrier: GroundSet
    mode: str
    bound: int
    levels: dict  # size -> SelectionStructure of that arity on the carrier

    def __post_init__(self):
        _check_domain(self.carrier, self.mode, self.bound)
        expected = list(self.admissible_sizes())
        if sorted(self.levels) != expected:
            raise MissingSubset(f"levels for sizes {sorted(self.levels)}, need {expected}")
        for size, g in self.levels.items():
            if g.n != size or g.ground != self.carrier:
                raise ArityMismatch(f"level {size} is not an arity-{size} structure on the carrier")

    def admissible_sizes(self) -> range:
        return admissible_sizes(self.mode, self.bound)

    def admits(self, size: int) -> bool:
        return size in self.levels

    def level(self, n: int) -> SelectionStructure:
        level = self.levels.get(n) if type(n) is int else None  # 2.0 would find level 2
        if level is None:
            check_int("arity", n)
            raise ArityNotInDomain(f"arity {n} not admitted by mode {self.mode}")
        return level

    def choose_indices(self, subset: tuple) -> int:
        return self.level(len(subset)).choose_indices(subset)

    def choose(self, labels: Iterable[Label]) -> Label:
        labels = tuple(labels)
        return self.level(len(labels)).choose(labels)


def make_partial(carrier: GroundSet, mode: str, bound: int, table: Mapping) -> PartialSelection:
    """Build from a mapping {subset of labels: chosen label} covering
    exactly the admissible subsets, read on indices by index_table."""
    return partial_from_indices(carrier, mode, bound, index_table(carrier, table))


def partial_from_indices(carrier: GroundSet, mode: str, bound: int,
                         table: Mapping) -> PartialSelection:
    """Build from a mapping {ascending index tuple: chosen index} covering
    exactly the admissible subsets, one index_selection per size; the
    membership check forces singleton entries to pick their element."""
    by_size: dict = {}
    for k, v in table.items():
        by_size.setdefault(len(k), {})[k] = v
    levels = {
        size: index_selection(carrier, size, by_size.pop(size, {}))
        for size in admissible_sizes(mode, bound)
    }
    if by_size:
        raise MissingSubset("table has entries outside the admissible subsets")
    return PartialSelection(carrier, mode, bound, levels)


def order_partial(
    carrier: GroundSet, bound: int, rule: str, mode: str = MODE_UPTO
) -> PartialSelection:
    """Partial selection picking the least or greatest carrier index."""
    _check_rule(rule)
    _check_domain(carrier, mode, bound)
    levels = {
        size: selection_from_order(carrier, size, rule)
        for size in admissible_sizes(mode, bound)
    }
    return PartialSelection(carrier, mode, bound, levels)


def random_partial(
    carrier: GroundSet, bound: int, rng: random.Random, mode: str = MODE_UPTO
) -> PartialSelection:
    """Seeded random choices; singletons still map to themselves."""
    _check_domain(carrier, mode, bound)
    levels = {}
    for size in admissible_sizes(mode, bound):
        picks = tuple(rng.choice(s) for s in combinations(range(carrier.size), size))
        levels[size] = SelectionStructure(carrier, size, picks)
    return PartialSelection(carrier, mode, bound, levels)


def restrict(f: PartialSelection, subset: Iterable[Label], n: int) -> SelectionStructure:
    """f viewed as an arity-n structure on a subset of its carrier,
    label order inherited from the carrier."""
    check_int("n", n)
    level = f.level(n)
    idx = tuple(sorted(f.carrier.index(x) for x in subset))
    ground = GroundSet(tuple(f.carrier.labels[i] for i in idx))
    return SelectionStructure(ground, n, _restriction(level, idx))


def _restriction(level: SelectionStructure, s: Sequence[int]) -> tuple:
    """level's picks on the n-subsets of the ascending carrier indices s,
    in rank order, each as its position in s."""
    _, rank = level.table
    picks = level.picks
    at = {x: i for i, x in enumerate(s)}
    return tuple(at[picks[rank[t]]] for t in combinations(s, level.n))


@dataclass(frozen=True)
class TypePartition:
    """m-subsets of the carrier grouped by the isomorphism type of their
    arity-n restriction; class keys are canonical structures, all on one
    shared ground_range(m), equal to canonical_form(restrict(f, member,
    n))[0] for every member, however the partition labeled them."""

    m: int
    n: int
    classes: dict  # canonical SelectionStructure -> list of label tuples


def partition_types(f: PartialSelection, m: int, n: int) -> TypePartition:
    """Group every m-subset by the canonical form of its restriction: one
    walk, in rank order, scores each subset (scored_subsets) and labels
    it once from its score blocks or the restriction the walk scored
    (_type_label).  Only the class keys become structures
    (_type_partition)."""
    check_int("n", n)
    level = f.level(n)  # an arity outside the mode raises before m's range check
    check_int("m", m, n, f.carrier.size)
    label = _type_label(level, m)
    classes: dict = {}
    for s, w, r in scored_subsets(level, m):
        classes.setdefault(label(_score_blocks(w, s), r), []).append(s)
    return _type_partition(f, m, n, classes)


def _type_label(level: SelectionStructure, m: int):
    """The label step, (blocks, r) -> the class key (least choice tuple)
    of an m-subset's restriction, from the subset's score blocks and its
    restriction r as scored_subsets yields them.  A pair level labels
    the subset on its beats (built once here) with the blocks as root
    cells (_tournament_labeling), building no restriction; any other
    labels r (_canonical_labeling, which scores it anew)."""
    if level.n == 2:
        beats = pair_beats(level)
        return lambda blocks, r: _tournament_labeling(beats, blocks)[0]
    ground = ground_range(m)
    return lambda blocks, r: _canonical_labeling((SelectionStructure(ground, level.n, r),))[0]


def _type_partition(f: PartialSelection, m: int, n: int, classes: dict) -> TypePartition:
    """The TypePartition of classes {least choice tuple: member index tuples}."""
    labels = f.carrier.labels
    ground = ground_range(m)
    return TypePartition(m, n, {SelectionStructure(ground, n, best): [
        tuple([labels[i] for i in s]) for s in ss] for best, ss in classes.items()})


def scored_subsets(level: SelectionStructure, m: int) -> Iterator[tuple]:
    """(s, w, r) for every m-subset s of level's ground, as ascending
    carrier indices, in rank order: w[i] counts level's subsets inside s
    that pick s[i], the scores of s's restriction.  The one scoring walk
    of the level-class rule (_ruled_subsets), the type partition and the
    covering-type property (chains).

    A pair level is scored by popcounts, w[i] = |beats[s[i]] & s|, on
    its beats bitsets (pair_beats), built once per walk, and r is None;
    any other level by counting the picks of s's restriction, built once
    as r (_restriction), which the type label reads."""
    subsets = combinations(range(level.size), m)
    if level.n == 2:
        beats = pair_beats(level)
        for s in subsets:
            inside = 0
            for x in s:
                inside |= 1 << x
            yield s, [(beats[x] & inside).bit_count() for x in s], None
        return
    for s in subsets:
        w = [0] * m
        r = _restriction(level, s)
        for i in r:
            w[i] += 1
        yield s, w, r


def _least_small_level(blocks: list, m: int) -> list:
    """The least small level class: the first of the score blocks,
    ascending, with at most m/2 members, which non-constant scores
    always have."""
    for q in blocks:
        if 2 * len(q) <= m:
            return q
    raise BrokenInvariant("constant scores have no small level class")


def least_small_class(g: SelectionStructure, m: int):
    """(r0, Q): the least score r with 0 < |Q(r)| <= m/2, and that class."""
    if g.size != m:
        raise SizeMismatch(f"structure lives on {g.size} elements, not {_shown(m)}")
    w = score_vector(g)
    if len(set(w)) <= 1:
        raise RegularInput("level-class split undefined for regular structures")
    q = _least_small_level(_score_blocks(w), m)
    return w[q[0]], frozenset(g.ground.labels[i] for i in q)


def check_extension(f: PartialSelection, m: int, p: int) -> None:
    """Raise NotPrime, HypothesisViolated or OutOfRange unless
    extend_selection's preconditions hold: p prime, p <= k, m/2 <= k,
    p | m, p <= m <= carrier.  They are exactly what makes every
    restriction non-regular, so the level-class rule is total.  p is
    tested for primality only once it is known to be at most the bound,
    so a huge p costs nothing."""
    check_int("m", m)
    check_int("p", p)
    if f.mode != MODE_UPTO:
        raise HypothesisViolated("extension needs an up-to-k selection")
    if p > f.bound:
        raise HypothesisViolated(f"need p <= bound, got p={_shown(p)}, bound={f.bound}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m > 2 * f.bound:
        raise HypothesisViolated(f"need m/2 <= bound, got m={_shown(m)}, bound={f.bound}")
    if m > 0 and m % p != 0:  # an m <= 0 is out of range, whatever its parity
        raise HypothesisViolated(f"{p} does not divide {m}")
    if m > f.carrier.size:
        raise HypothesisViolated(f"m={m} exceeds carrier size {f.carrier.size}")
    check_int("m", m, p, f.carrier.size)  # p | m leaves only m <= 0 below p here


def _ruled_subsets(f: PartialSelection, m: int, p: int) -> Iterator[tuple]:
    """(s, w, r, blocks, q, pick) per m-subset s in rank order, the rule's
    one walk: s's scores w and restriction r on f's arity-p level
    (scored_subsets), the scores' blocks on s's carrier indices, its
    least small level class q and f's pick."""
    for s, w, r in scored_subsets(f.levels[p], m):
        blocks = _score_blocks(w, s)
        q = _least_small_level(blocks, m)
        yield s, w, r, blocks, q, f.choose_indices(tuple(q))


def _exact(f: PartialSelection, m: int, picks: list) -> PartialSelection:
    h = SelectionStructure(f.carrier, m, tuple(picks))
    return PartialSelection(f.carrier, MODE_EXACT, m, {m: h})


def extend_selection(f: PartialSelection, m: int, p: int) -> PartialSelection:
    """Total selection on m-subsets by the level-class rule at arity p
    (_ruled_subsets), with no isomorphism type computed."""
    check_extension(f, m, p)
    return _exact(f, m, [pick for *_, pick in _ruled_subsets(f, m, p)])


def extend_with_types(f: PartialSelection, m: int, p: int) -> tuple:
    """(extend_selection, partition_types, levels) of f, m, p from one
    walk (_ruled_subsets); levels[k] is (r0, |Q|) of least_small_class
    for the k-th class key, read off its first member: both are
    isomorphism invariants."""
    check_extension(f, m, p)
    label = _type_label(f.levels[p], m)
    picks, classes, levels = [], {}, []
    for s, w, r, blocks, q, pick in _ruled_subsets(f, m, p):
        picks.append(pick)
        members = classes.setdefault(label(blocks, r), [])
        if not members:
            levels.append((w[s.index(q[0])], len(q)))
        members.append(s)
    return _exact(f, m, picks), _type_partition(f, m, p, classes), levels


def _iso_arities(f: PartialSelection, k: int) -> list:
    """The arities 2..min(f's bound, k) that f admits: those at which an
    isomorphism between k-subsets must respect f."""
    top = min(f.bound, k)
    return [n for n in range(2, top + 1) if f.admits(n)]


def certified_isomorphism(
    f: PartialSelection,
    x: Iterable[Label],
    y: Iterable[Label],
) -> Optional[IsoMap]:
    """A bijection x -> y that is an isomorphism of every restriction of
    f at the arities 2..min(f's bound, |x|) that f admits, or None: the
    joint_isomorphism of the restrictions, or the order map when f
    admits none of those arities."""
    source = GroundSet(tuple(sorted(x, key=f.carrier.index)))
    target = GroundSet(tuple(sorted(y, key=f.carrier.index)))
    if source.size != target.size:
        return None
    arities = _iso_arities(f, source.size)
    if not arities:
        return IsoMap(source, target, target.labels)
    return joint_isomorphism(
        [restrict(f, source, n) for n in arities], [restrict(f, target, n) for n in arities]
    )


def equivariance_check(
    f: PartialSelection,
    h: PartialSelection,
    x: Iterable[Label],
    y: Iterable[Label],
    phi: IsoMap,
) -> bool:
    """With phi a certified isomorphism of f's restrictions to x and y
    (the arities 2..min(k, m) that f admits), test phi(h(x)) == h(y)."""
    xs = tuple(sorted(x, key=f.carrier.index))
    ys = tuple(sorted(y, key=f.carrier.index))
    if set(phi.source.labels) != set(xs) or set(phi.target.labels) != set(ys):
        raise NotIso("map endpoints do not match the subsets")
    for n in _iso_arities(f, len(xs)):
        gx = restrict(f, xs, n)
        gy = restrict(f, ys, n)
        adjusted = IsoMap(
            gx.ground, gy.ground, tuple(phi.apply(v) for v in gx.ground.labels)
        )
        if not is_isomorphism(gx, gy, adjusted):
            raise NotIso(f"map is not an isomorphism at arity {n}")
    return phi.apply(h.choose(xs)) == h.choose(ys)
