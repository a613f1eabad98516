"""Exact-rational finite models of hyperspace selections.

Sample points are rationals on the line, opens are bounded open
intervals with rational endpoints, and a finite set belongs to the
Vietoris basic open of a disjoint family iff it meets every member and
stays inside the union.  All arithmetic is exact; there is no float
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .errors import (
    ArityNotInDomain,
    NoTransversal,
    NotAMember,
    NotModelContinuous,
)
from .extension import PartialSelection, order_partial
from .structures import GroundSet
from .verdict import PASS, Verdict, fail

RADIUS_FLOOR_SHIFT = 40  # shrink at most until r_init / 2**40


@dataclass(frozen=True, order=True)
class IntervalOpen:
    """Bounded open interval (lo, hi) with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    def contains(self, p: Fraction) -> bool:
        return self.lo < p < self.hi

    def intersects(self, other: "IntervalOpen") -> bool:
        return max(self.lo, other.lo) < min(self.hi, other.hi)


@dataclass(frozen=True)
class OpenFamily:
    """Finite tuple of pairwise disjoint interval opens, order fixed."""

    members: tuple

    def __post_init__(self):
        for a, b in combinations(self.members, 2):
            if a.intersects(b):
                raise ValueError(f"family members overlap: {a} and {b}")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def bounds(self) -> list:
        """The members' (lo, hi) endpoint pairs, in member order."""
        return [(u.lo, u.hi) for u in self.members]

    def union_contains(self, p: Fraction) -> bool:
        return any(u.contains(p) for u in self.members)


def interval(lo, hi) -> IntervalOpen:
    return IntervalOpen(Fraction(lo), Fraction(hi))


def family(*bounds) -> OpenFamily:
    return OpenFamily(tuple(interval(lo, hi) for lo, hi in bounds))


@dataclass(frozen=True)
class ModelSpace:
    """Finite rational sample points carrying a partial selection.

    Points are stored sorted ascending and double as the selection's
    carrier labels.
    """

    points: tuple
    selection: PartialSelection

    def __post_init__(self):
        if list(self.points) != sorted(set(self.points)):
            raise ValueError("points must be distinct and sorted ascending")
        if self.selection.carrier.labels != self.points:
            raise ValueError("selection carrier must be exactly the points")

    @property
    def size(self) -> int:
        return len(self.points)

    def points_in(self, u: IntervalOpen) -> list:
        return [p for p in self.points if u.contains(p)]


def model_space(points: Iterable, selection: PartialSelection) -> ModelSpace:
    return ModelSpace(tuple(sorted(Fraction(p) for p in points)), selection)


def order_model(points: Iterable, bound: int, rule: str) -> ModelSpace:
    pts = tuple(sorted(Fraction(p) for p in points))
    return ModelSpace(pts, order_partial(GroundSet(pts), bound, rule))


def vietoris_contains(fam: OpenFamily, s: Iterable[Fraction]) -> bool:
    """s meets every member of fam and is contained in the union."""
    pts = list(s)
    return all(
        any(u.contains(p) for p in pts) for u in fam.members
    ) and all(fam.union_contains(p) for p in pts)


def _transversals(model: ModelSpace, fam: OpenFamily):
    """All sampled members of the Vietoris open of fam: with members
    pairwise disjoint, these are exactly the one-point-per-member picks."""
    pools = []
    for i, u in enumerate(fam.members):
        pts = model.points_in(u)
        if not pts:
            raise NoTransversal(f"member {i} = ({u.lo}, {u.hi}) holds no sample point")
        pools.append(pts)
    return product(*pools)


def arrows_to(model: ModelSpace, fam: OpenFamily, target: IntervalOpen) -> bool:
    """True iff every sampled transversal of fam selects inside target."""
    if target not in fam.members:
        raise NotAMember(f"({target.lo}, {target.hi}) is not a member of the family")
    n = fam.size
    if not model.selection.admits(n):
        raise ArityNotInDomain(f"selection does not admit arity {n}")
    for t in _transversals(model, fam):
        if not target.contains(model.selection.choose(t)):
            return False
    return True


def preserves_relations(
    model: ModelSpace, fam: OpenFamily, n: Optional[int] = None
) -> Verdict:
    """Every n-subfamily has a member receiving all its selections.

    n=None checks every arity 0 < i <= min(bound, size): the form needed
    for selections defined on all small subsets at once.  The witness on
    failure is (arity, member indices).
    """
    sizes: Sequence[int]
    if n is None:
        sizes = [
            i
            for i in range(1, fam.size + 1)
            if model.selection.admits(i)
        ]
    else:
        sizes = [n]
    for i in sizes:
        if not model.selection.admits(i):
            raise ArityNotInDomain(f"selection does not admit arity {i}")
        for idxs in combinations(range(fam.size), i):
            sub = OpenFamily(tuple(fam.members[j] for j in idxs))
            if not any(arrows_to(model, sub, sub.members[t]) for t in range(i)):
                return fail((i, idxs))
    return PASS


def half_least_gap(points: Sequence[Fraction]) -> Fraction:
    """Half the least gap between adjacent sorted points (1 for fewer
    than two points).  Intervals of this radius around distinct points
    never overlap."""
    if len(points) < 2:
        return Fraction(1)
    return min(b - a for a, b in zip(points, points[1:])) / 2


def find_preserving_neighborhoods(
    model: ModelSpace,
    pts: Iterable[Fraction],
    arities: Iterable[int],
    max_radius: Optional[Fraction] = None,
) -> OpenFamily:
    """Disjoint intervals around the given sample points preserving
    relations at every requested arity, found by halving a common
    radius; the first success is returned.

    The radius starts at half the minimum pairwise gap (capped at
    max_radius when given) and never drops below 2^-40 of that, at
    which point the model is declared non-continuous with the points
    as witness.
    """
    ps = tuple(sorted(Fraction(p) for p in pts))
    if not ps:
        raise ValueError("need at least one point")
    for p in ps:
        if p not in model.points:
            raise ValueError(f"{p} is not a sample point")
    wanted = sorted(set(arities))
    if len(ps) == 1:
        # half the gap to the nearest other sample point, which is adjacent
        i = model.points.index(ps[0])
        r = half_least_gap(model.points[max(i - 1, 0):i + 2])
    else:
        r = half_least_gap(ps)
    if max_radius is not None:
        r = min(r, max_radius)
    floor = r / (2**RADIUS_FLOOR_SHIFT)
    while r >= floor:
        fam = OpenFamily(tuple(IntervalOpen(p - r, p + r) for p in ps))
        if all(preserves_relations(model, fam, i) for i in wanted):
            return fam
        r = r / 2
    raise NotModelContinuous(f"no preserving neighborhoods around {ps}")


def check_continuity(model: ModelSpace) -> Verdict:
    """Shrinking neighborhoods exist around every domain subset, each
    receiving a common selection target at its own arity.  Witness on
    failure is the offending point tuple."""
    from .structures import subset_ranks

    for size in model.selection.admissible_sizes():
        subs, _ = subset_ranks(model.size, size)
        for s in subs:
            pts = tuple(model.points[i] for i in s)
            try:
                find_preserving_neighborhoods(model, pts, (size,))
            except NotModelContinuous:
                return fail(pts)
    return PASS


def member_hits(us: Sequence[tuple], vs: Sequence[tuple]) -> list:
    """Row a lists the indices of the opens in vs that meet us[a].

    Opens are (lo, hi) endpoint pairs compared with strict <, so opens
    that only touch at an endpoint stay disjoint.  A point p enters as
    the pair (p, p), and then "meets" reads "contains p".  Endpoints may
    be Fractions or integers on one common denominator.
    """
    return [[j for j, (lo, hi) in enumerate(vs) if alo < hi and lo < ahi] for alo, ahi in us]


def overlaps(rows: list, size: int) -> bool:
    """Whether the hit rows of u against a size-member family v form an
    edge cover of the bipartite meet graph (no isolated member on
    either side)."""
    return all(rows) and len({j for row in rows for j in row}) == size


def intersect_nonempty(u: OpenFamily, v: OpenFamily) -> bool:
    """Whether the Vietoris opens of two disjoint families intersect.

    Holds iff the bipartite meet graph (edges = intersecting member
    pairs) has no isolated vertex: such an edge cover assembles a finite
    rational witness set, and conversely any witness covers all members.
    """
    return overlaps(member_hits(u.bounds, v.bounds), v.size)
