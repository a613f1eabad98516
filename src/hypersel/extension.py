"""Extension of small-arity selections to larger arities.

Given a selection f defined up to arity k, a prime p <= k dividing m
with m/2 <= k, every m-subset's arity-p restriction is non-regular (by
the divisibility obstruction), so it has a least level class Q of size
at most m/2; applying f to that class picks one element of the subset.
Doing this classwise over isomorphism types yields a total selection on
m-subsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    ArityNotInDomain,
    BrokenInvariant,
    HypothesisViolated,
    MissingSubset,
    NotIso,
    NotPrime,
    PrimeInput,
    RegularInput,
)
from .obstruction import is_prime
from .structures import (
    GroundSet,
    IsoMap,
    Label,
    SelectionStructure,
    canonical_form,
    index_selection,
    index_table,
    is_isomorphism,
    is_regular,
    score_vector,
    selection_from_order,
    subset_ranks,
)

MODE_UPTO = "upto"
MODE_EXACT = "exact"


def admissible_sizes(mode: str, bound: int) -> range:
    """Subset sizes a selection of this mode and bound is defined on:
    1..bound for "upto", only bound for "exact"."""
    if mode == MODE_UPTO:
        return range(1, bound + 1)
    return range(bound, bound + 1)


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
        if self.mode not in (MODE_UPTO, MODE_EXACT):
            raise ValueError(f"unknown mode {self.mode!r}")
        # upto 0 is the empty selection (legal on an empty carrier)
        least = 0 if self.mode == MODE_UPTO else 1
        if not least <= self.bound <= self.carrier.size:
            raise ValueError(
                f"bound {self.bound} out of range for carrier of size {self.carrier.size}"
            )
        expected = list(self.admissible_sizes())
        if sorted(self.levels) != expected:
            raise MissingSubset(f"levels for sizes {sorted(self.levels)}, need {expected}")
        for size, g in self.levels.items():
            if g.n != size or g.ground != self.carrier:
                raise ValueError(f"level {size} is not an arity-{size} structure on the carrier")

    def admissible_sizes(self) -> range:
        return admissible_sizes(self.mode, self.bound)

    def admits(self, size: int) -> bool:
        return size in self.levels

    def choose_indices(self, subset: tuple) -> int:
        level = self.levels.get(len(subset))
        if level is None:
            raise ArityNotInDomain(f"arity {len(subset)} not admitted by mode {self.mode}")
        return level.choose_indices(subset)

    def choose(self, labels: Iterable[Label]) -> Label:
        idx = tuple(sorted(self.carrier.index(x) for x in labels))
        return self.carrier.labels[self.choose_indices(idx)]


def make_partial(carrier: GroundSet, mode: str, bound: int, table: Mapping) -> PartialSelection:
    """Build from a mapping {subset of labels: chosen label} covering
    exactly the admissible subsets, read on indices by index_table."""
    return partial_from_indices(carrier, mode, bound, *index_table(carrier, table))


def partial_from_indices(carrier: GroundSet, mode: str, bound: int, table: Mapping,
                         names: Sequence) -> PartialSelection:
    """Build from a mapping {ascending index tuple: chosen index} covering
    exactly the admissible subsets, one index_selection per size; the
    membership check forces singleton entries to pick their element."""
    by_size: dict = {}
    for k, v in table.items():
        by_size.setdefault(len(k), {})[k] = v
    levels = {
        size: index_selection(carrier, size, by_size.pop(size, {}), names)
        for size in admissible_sizes(mode, bound)
    }
    if by_size:
        raise MissingSubset("table has entries outside the admissible subsets")
    return PartialSelection(carrier, mode, bound, levels)


def order_partial(
    carrier: GroundSet, bound: int, rule: str, mode: str = MODE_UPTO
) -> PartialSelection:
    """Partial selection picking the least or greatest carrier index."""
    levels = {
        size: selection_from_order(carrier, size, rule)
        for size in admissible_sizes(mode, bound)
    }
    return PartialSelection(carrier, mode, bound, levels)


def random_partial(
    carrier: GroundSet, bound: int, rng: random.Random, mode: str = MODE_UPTO
) -> PartialSelection:
    """Seeded random choices; singletons still map to themselves."""
    levels = {}
    for size in admissible_sizes(mode, bound):
        subs, _ = subset_ranks(carrier.size, size)
        levels[size] = SelectionStructure(carrier, size, tuple(rng.choice(s) for s in subs))
    return PartialSelection(carrier, mode, bound, levels)


def restrict(f: PartialSelection, subset: Iterable[Label], n: int) -> SelectionStructure:
    """f viewed as an arity-n structure on a subset of its carrier,
    label order inherited from the carrier."""
    level = f.levels.get(n)
    if level is None:
        raise ArityNotInDomain(f"arity {n} not admitted by mode {f.mode}")
    idx = tuple(sorted(f.carrier.index(x) for x in subset))
    ground = GroundSet(tuple(f.carrier.labels[i] for i in idx))
    subs, _ = subset_ranks(len(idx), n)
    picks = [idx.index(level.choose_indices(tuple(idx[i] for i in s))) for s in subs]
    return SelectionStructure(ground, n, tuple(picks))


@dataclass(frozen=True)
class TypePartition:
    """m-subsets of the carrier grouped by the isomorphism type of their
    arity-n restriction; class keys are canonical structures, and maps
    holds canonical_form's certifying map of each member's restriction."""

    m: int
    n: int
    classes: dict  # canonical SelectionStructure -> list of label tuples
    maps: dict  # label tuple -> IsoMap from its restriction onto its class key


def partition_types(f: PartialSelection, m: int, n: int) -> TypePartition:
    """Group every m-subset by canonical_form of its restriction.

    Subsets are visited in rank order, so class insertion order and
    member order are deterministic.
    """
    if not f.admits(n):
        raise ArityNotInDomain(f"arity {n} not admitted by mode {f.mode}")
    if not n <= m <= f.carrier.size:
        raise ValueError(f"need n <= m <= carrier size, got n={n}, m={m}")
    classes: dict = {}
    maps: dict = {}
    subs, _ = subset_ranks(f.carrier.size, m)
    for s in subs:
        labels = tuple(f.carrier.labels[i] for i in s)
        canon, maps[labels] = canonical_form(restrict(f, labels, n))
        classes.setdefault(canon, []).append(labels)
    return TypePartition(m, n, classes, maps)


def least_small_class(g: SelectionStructure, m: int):
    """(r0, Q): the least score r with 0 < |Q(r)| <= m/2, and that class.

    At least two level classes are nonempty for non-regular g, so the
    smallest nonempty one has size <= m/2 and r0 exists.
    """
    if g.size != m:
        raise ValueError(f"structure lives on {g.size} elements, not {m}")
    if is_regular(g):
        raise RegularInput("level-class split undefined for regular structures")
    w = score_vector(g)
    for r in range(max(w) + 1):
        q = frozenset(x for x, v in zip(g.ground.labels, w) if v == r)
        if 0 < 2 * len(q) <= m:
            return r, q
    raise BrokenInvariant("non-regular structure without a small level class")


def check_extension(f: PartialSelection, m: int, p: int) -> None:
    """Raise NotPrime or HypothesisViolated unless extend_selection's
    preconditions hold: p prime, p <= k, m/2 <= k, p | m, m <= carrier.
    They are exactly what makes every restriction type non-regular, so
    the classwise rule is total."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if f.mode != MODE_UPTO:
        raise HypothesisViolated("extension needs an up-to-k selection")
    if p > f.bound:
        raise HypothesisViolated(f"need p <= bound, got p={p}, bound={f.bound}")
    if m > 2 * f.bound:
        raise HypothesisViolated(f"need m/2 <= bound, got m={m}, bound={f.bound}")
    if m % p != 0:
        raise HypothesisViolated(f"{p} does not divide {m}")
    if m > f.carrier.size:
        raise HypothesisViolated(
            f"m={m} exceeds carrier size {f.carrier.size}"
        )


def extend_selection(
    f: PartialSelection, m: int, p: int, part: Optional[TypePartition] = None
) -> PartialSelection:
    """Total selection on m-subsets built classwise at arity p.

    part is partition_types(f, m, p) when the caller has already built
    it, so that it is built once; otherwise it is built here, after
    check_extension passes.
    """
    check_extension(f, m, p)
    if part is None:
        part = partition_types(f, m, p)
    elif (part.m, part.n) != (m, p):
        raise ValueError(f"type partition is for ({part.m}, {part.n}), not ({m}, {p})")
    subs, rank = subset_ranks(f.carrier.size, m)
    picks = [None] * len(subs)
    for g, members in part.classes.items():
        if is_regular(g):
            # the divisibility obstruction rules this out under check_extension
            raise BrokenInvariant(f"regular restriction type on ({m},{p})")
        _, q = least_small_class(g, m)
        for labels in members:
            # Q(r0) of the member's restriction is the preimage of q
            phi = part.maps[labels]
            value = f.choose([x for x, y in zip(phi.source.labels, phi.images) if y in q])
            idx = tuple(sorted(f.carrier.index(x) for x in labels))
            picks[rank[idx]] = f.carrier.index(value)
    if any(v is None for v in picks):
        raise BrokenInvariant("classwise assembly left a subset unassigned")
    h = SelectionStructure(f.carrier, m, tuple(picks))
    return PartialSelection(f.carrier, MODE_EXACT, m, {m: h})


def extend_composite(f: PartialSelection, n: int) -> PartialSelection:
    """Extension to arity n+1 for composite n+1, via its least prime
    divisor p (always p <= (n+1)/2 <= n for composite n+1)."""
    if n < 2:
        raise HypothesisViolated(f"need n >= 2, got {n}")
    m = n + 1
    if is_prime(m):
        raise PrimeInput(f"{m} is prime; the composite shortcut does not apply")
    p = next(d for d in range(2, m + 1) if m % d == 0 and is_prime(d))
    if f.mode != MODE_UPTO or f.bound < n:
        raise HypothesisViolated(f"need an up-to-{n} selection")
    return extend_selection(f, m, p)


def certified_isomorphism(
    f: PartialSelection,
    x: Iterable[Label],
    y: Iterable[Label],
    max_arity: Optional[int] = None,
) -> Optional[IsoMap]:
    """A bijection x -> y that is an isomorphism of every restriction of
    f at arities 2..min(k, |x|), or None.  Searches relabelings grouped
    by joint score vectors, so typical structures need very few tries."""
    xi = tuple(sorted(f.carrier.index(v) for v in x))
    yi = tuple(sorted(f.carrier.index(v) for v in y))
    if len(xi) != len(yi):
        return None
    k = len(xi)
    top = min(f.bound, k) if max_arity is None else min(max_arity, k)
    arities = [n for n in range(2, top + 1) if f.admits(n)]
    gx = {n: restrict(f, (f.carrier.labels[i] for i in xi), n) for n in arities}
    gy = {n: restrict(f, (f.carrier.labels[i] for i in yi), n) for n in arities}

    def joint_scores(gs: dict) -> list:
        """Per position in the subset, its scores across the arities."""
        ws = [score_vector(gs[n]) for n in arities]
        return [tuple(w[i] for w in ws) for i in range(k)]

    vx = joint_scores(gx)
    vy = joint_scores(gy)
    if sorted(vx) != sorted(vy):
        return None
    groups: dict = {}
    for j in range(k):
        groups.setdefault(vy[j], []).append(j)
    source = GroundSet(tuple(f.carrier.labels[i] for i in xi))
    target = GroundSet(tuple(f.carrier.labels[i] for i in yi))
    slots = [groups[vx[i]] for i in range(k)]

    # try score-compatible assignments until one is an isomorphism
    def search(i: int, used: set, images: list) -> Optional[IsoMap]:
        if i == k:
            phi = IsoMap(source, target, tuple(images))
            if all(is_isomorphism(gx[n], gy[n], phi) for n in arities):
                return phi
            return None
        for j in slots[i]:
            if j in used:
                continue
            used.add(j)
            images.append(target.labels[j])
            found = search(i + 1, used, images)
            if found is not None:
                return found
            images.pop()
            used.remove(j)
        return None

    return search(0, set(), [])


def equivariance_check(
    f: PartialSelection,
    h: PartialSelection,
    x: Iterable[Label],
    y: Iterable[Label],
    phi: IsoMap,
) -> bool:
    """With phi a certified isomorphism of f's restrictions to x and y
    (arities 2..min(k,m)), test phi(h(x)) == h(y)."""
    xs = tuple(sorted(x, key=f.carrier.index))
    ys = tuple(sorted(y, key=f.carrier.index))
    if set(phi.source.labels) != set(xs) or set(phi.target.labels) != set(ys):
        raise NotIso("map endpoints do not match the subsets")
    top = min(f.bound, len(xs))
    for n in range(2, top + 1):
        gx = restrict(f, xs, n)
        gy = restrict(f, ys, n)
        adjusted = IsoMap(
            gx.ground, gy.ground, tuple(phi.apply(v) for v in gx.ground.labels)
        )
        if not is_isomorphism(gx, gy, adjusted):
            raise NotIso(f"map is not an isomorphism at arity {n}")
    return phi.apply(h.choose(xs)) == h.choose(ys)
