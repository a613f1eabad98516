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
from typing import Iterable, Mapping, Optional

from .errors import (
    ArityNotInDomain,
    ChoiceOutsideSubset,
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
    is_isomorphism,
    is_regular,
    score_vector,
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
    bound.  tables[size][rank] is the carrier index chosen from the
    rank-th size-subset.
    """

    carrier: GroundSet
    mode: str
    bound: int
    tables: dict

    def __post_init__(self):
        if self.mode not in (MODE_UPTO, MODE_EXACT):
            raise ValueError(f"unknown mode {self.mode!r}")
        # upto 0 is the empty selection (legal on an empty carrier)
        least = 0 if self.mode == MODE_UPTO else 1
        if not least <= self.bound <= self.carrier.size:
            raise ValueError(
                f"bound {self.bound} out of range for carrier of size {self.carrier.size}"
            )
        expected = self.admissible_sizes()
        if sorted(self.tables) != list(expected):
            raise MissingSubset(
                f"tables for sizes {sorted(self.tables)}, need {list(expected)}"
            )
        for size in expected:
            subs, _ = subset_ranks(self.carrier.size, size)
            picks = self.tables[size]
            if len(picks) != len(subs):
                raise MissingSubset(
                    f"size {size}: expected {len(subs)} choices, got {len(picks)}"
                )
            for s, p in zip(subs, picks):
                if p not in s:
                    raise ChoiceOutsideSubset(f"subset {s} cannot pick index {p}")

    def admissible_sizes(self) -> range:
        return admissible_sizes(self.mode, self.bound)

    def admits(self, size: int) -> bool:
        return size in self.admissible_sizes()

    def choose_indices(self, subset: tuple) -> int:
        size = len(subset)
        if not self.admits(size):
            raise ArityNotInDomain(f"arity {size} not admitted by mode {self.mode}")
        _, rank = subset_ranks(self.carrier.size, size)
        return self.tables[size][rank[subset]]

    def choose(self, labels: Iterable[Label]) -> Label:
        idx = tuple(sorted(self.carrier.index(x) for x in labels))
        return self.carrier.labels[self.choose_indices(idx)]


def make_partial(
    carrier: GroundSet, mode: str, bound: int, table: Mapping
) -> PartialSelection:
    """Build from a mapping {subset of labels: chosen label} covering
    exactly the admissible subsets.  Singleton entries are forced to map
    to their element by the membership check."""
    normalized = {frozenset(k): v for k, v in table.items()}
    if len(normalized) != len(table):
        raise MissingSubset("table keys collapse when read as sets")
    tables = {}
    used = 0
    for size in admissible_sizes(mode, bound):
        subs, _ = subset_ranks(carrier.size, size)
        picks = []
        for s in subs:
            key = frozenset(carrier.labels[i] for i in s)
            if key not in normalized:
                raise MissingSubset(
                    f"no choice for subset {sorted(key, key=carrier.index)}"
                )
            v = normalized[key]
            if v not in key:
                raise ChoiceOutsideSubset(
                    f"{v!r} not in subset {sorted(key, key=carrier.index)}"
                )
            picks.append(carrier.index(v))
            used += 1
        tables[size] = tuple(picks)
    if used != len(normalized):
        raise MissingSubset("table has entries outside the admissible subsets")
    return PartialSelection(carrier, mode, bound, tables)


def order_partial(
    carrier: GroundSet, bound: int, rule: str, mode: str = MODE_UPTO
) -> PartialSelection:
    """Partial selection picking the least or greatest carrier index."""
    if rule not in ("min", "max"):
        raise ValueError(f"rule must be 'min' or 'max', got {rule!r}")
    tables = {}
    for size in admissible_sizes(mode, bound):
        subs, _ = subset_ranks(carrier.size, size)
        tables[size] = tuple(s[0] if rule == "min" else s[-1] for s in subs)
    return PartialSelection(carrier, mode, bound, tables)


def random_partial(
    carrier: GroundSet, bound: int, rng: random.Random, mode: str = MODE_UPTO
) -> PartialSelection:
    """Seeded random choices; singletons still map to themselves."""
    tables = {}
    for size in admissible_sizes(mode, bound):
        subs, _ = subset_ranks(carrier.size, size)
        tables[size] = tuple(rng.choice(s) for s in subs)
    return PartialSelection(carrier, mode, bound, tables)


def restrict(f: PartialSelection, subset: Iterable[Label], n: int) -> SelectionStructure:
    """f viewed as an arity-n structure on a subset of its carrier,
    label order inherited from the carrier."""
    if not f.admits(n):
        raise ArityNotInDomain(f"arity {n} not admitted by mode {f.mode}")
    idx = tuple(sorted(f.carrier.index(x) for x in subset))
    labels = tuple(f.carrier.labels[i] for i in idx)
    ground = GroundSet(labels)
    subs, _ = subset_ranks(len(idx), n)
    picks = []
    for s in subs:
        chosen = f.choose_indices(tuple(idx[i] for i in s))
        picks.append(idx.index(chosen))
    return SelectionStructure(ground, n, tuple(picks))


@dataclass(frozen=True)
class TypePartition:
    """m-subsets of the carrier grouped by the isomorphism type of their
    arity-n restriction; class keys are canonical structures."""

    m: int
    n: int
    classes: dict  # canonical SelectionStructure -> list of label tuples


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
    subs, _ = subset_ranks(f.carrier.size, m)
    for s in subs:
        labels = tuple(f.carrier.labels[i] for i in s)
        canon, _ = canonical_form(restrict(f, labels, n))
        classes.setdefault(canon, []).append(labels)
    return TypePartition(m, n, classes)


def least_small_class(g: SelectionStructure, m: int):
    """(r0, Q): the least score r with 0 < |Q(r)| <= m/2, and that class.

    At least two level classes are nonempty for non-regular g, so the
    smallest nonempty one has size <= m/2 and r0 exists.
    """
    if g.size != m:
        raise ValueError(f"structure lives on {g.size} elements, not {m}")
    if is_regular(g):
        raise RegularInput("level-class split undefined for regular structures")
    for r in range(max(score_vector(g)) + 1):
        q = _level_class(g, r)
        if 0 < 2 * len(q) <= m:
            return r, frozenset(q)
    raise AssertionError("non-regular structure without a small level class")


def _level_class(g: SelectionStructure, r: int) -> list:
    """Q(r): the labels of g with score r, in ground order."""
    return [g.ground.labels[i] for i, v in enumerate(score_vector(g)) if v == r]


def _class_value(f: PartialSelection, labels: tuple, n: int, r0: int) -> Label:
    """h(x) = f(Q(r0) of the arity-n restriction to x)."""
    return f.choose(_level_class(restrict(f, labels, n), r0))


def extend_on_class(
    f: PartialSelection, g: SelectionStructure, m: int, n: int
) -> dict:
    """Values of the extended selection on every m-subset whose arity-n
    restriction is isomorphic to g.  Keys are label tuples in carrier
    order; values lie inside their subset."""
    if f.mode != MODE_UPTO:
        raise HypothesisViolated("extension needs an up-to-k selection")
    if n > f.bound:
        raise HypothesisViolated(f"arity {n} exceeds bound {f.bound}")
    if m > 2 * f.bound:
        raise HypothesisViolated(f"need m/2 <= bound, got m={m}, bound={f.bound}")
    r0, q = least_small_class(g, m)  # RegularInput propagates
    k0 = len(q)
    key, _ = canonical_form(g)
    part = partition_types(f, m, n)
    members = part.classes.get(key, [])
    out = {}
    for labels in members:
        cls = _level_class(restrict(f, labels, n), r0)
        if len(cls) != k0:
            raise AssertionError(
                f"class size drifted within an isomorphism class: {len(cls)} != {k0}"
            )
        value = f.choose(cls)
        if value not in labels:
            raise AssertionError("extended value escaped its subset")
        out[labels] = value
    return out


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
            # the divisibility obstruction rules this out under the pre
            raise AssertionError(f"regular restriction type on ({m},{p})")
        r0, _ = least_small_class(g, m)
        for labels in members:
            value = _class_value(f, labels, p, r0)
            idx = tuple(sorted(f.carrier.index(x) for x in labels))
            picks[rank[idx]] = f.carrier.index(value)
    if any(v is None for v in picks):
        raise AssertionError("classwise assembly left a subset unassigned")
    return PartialSelection(f.carrier, MODE_EXACT, m, {m: tuple(picks)})


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


def _joint_score_key(f: PartialSelection, idx: tuple, arities) -> dict:
    """Per-element tuple of scores across the given arities, keyed by
    position within the sorted subset."""
    k = len(idx)
    vectors = {i: [] for i in range(k)}
    for n in arities:
        g_w = [0] * k
        subs, _ = subset_ranks(k, n)
        for s in subs:
            chosen = f.choose_indices(tuple(idx[i] for i in s))
            g_w[idx.index(chosen)] += 1
        for i in range(k):
            vectors[i].append(g_w[i])
    return {i: tuple(v) for i, v in vectors.items()}


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
    vx = _joint_score_key(f, xi, arities)
    vy = _joint_score_key(f, yi, arities)
    if sorted(vx.values()) != sorted(vy.values()):
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
