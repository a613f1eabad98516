"""Exact-rational finite models of hyperspace selections.

Sample points are rationals on the line, opens are bounded open
intervals with rational endpoints, and a finite set belongs to the
Vietoris basic open of a disjoint family iff it meets every member and
stays inside the union.  All arithmetic is exact; there is no float
anywhere in this module.

Relation checks run on point indices.  ``ModelSpace.grid``, built on
first use, scales the points to integers on their least common
denominator, so an open holds one index range, found by bisection.  It
is the only scaling of the points (the chain layer scales it up).  The
kernel ``_receiver`` walks a family's transversals once, each an
ascending index tuple whose pick it reads off the selection level, and
names the member receiving every pick, stopping at a second receiver.
Shrinking a radius leaves each member fewer points and so a family
fewer transversals: preservation only gets easier.  The continuity
check therefore tests a domain subset once, at its floor radius (its
starting radius over 2^40), and only if it has two or more points and
meets the twinned set: the points with an adjacent gap below
ceil(span / 2^41) on the integer grid.  A floor member's half-width,
ceil(g / 2^41) for the subset's least gap g, is at most that bound, so a
member around any other point holds that point alone (a singleton's
always does).  Such a subset has one transversal, which is always
preserved; a model with no twinned point is continuous.  The
neighborhood search halves the same starting radius on integers and
skips a radius whose members hold the same ranges as at the last one,
which failed.  ``_members`` turns a grid radius back into Fraction
intervals, for the search and for ``chains.derive_nice_family``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .errors import InvalidModel, NotModelContinuous, OutOfRange
from .extension import PartialSelection, order_partial
from .structures import GroundSet, SelectionStructure, subset_ranks
from .verdict import PASS, Verdict, fail

RADIUS_FLOOR_SHIFT = 40  # shrink at most until r_init / 2**40


def _below(p, q) -> bool:
    """p < q for rationals, on integers (denominators are positive)."""
    return p.numerator * q.denominator < q.numerator * p.denominator


def _ascending(qs: Sequence) -> bool:
    """Whether the rationals qs strictly ascend, compared on integers."""
    return all(_below(p, q) for p, q in zip(qs, qs[1:]))


@dataclass(frozen=True, order=True)
class IntervalOpen:
    """Bounded open interval (lo, hi) with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not _below(self.lo, self.hi):
            raise InvalidModel(f"empty interval ({self.lo}, {self.hi})")

    def contains(self, p: Fraction) -> bool:
        return self.lo < p < self.hi

    def intersects(self, other: "IntervalOpen") -> bool:
        return self.lo < other.hi and other.lo < self.hi


@dataclass(frozen=True)
class OpenFamily:
    """Finite tuple of pairwise disjoint interval opens, order fixed.

    Members listed left to right are checked neighbour by neighbour,
    any other order pair by pair; both compare endpoints on integers."""

    members: tuple

    def __post_init__(self):
        ms = self.members
        if any(_below(b.lo, a.hi) for a, b in zip(ms, ms[1:])):  # not in ascending order
            for a, b in combinations(ms, 2):
                if _below(a.lo, b.hi) and _below(b.lo, a.hi):
                    raise InvalidModel(f"family members overlap: {a} and {b}")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def bounds(self) -> list:
        """The members' (lo, hi) endpoint pairs, in member order."""
        return [(u.lo, u.hi) for u in self.members]


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
        if not _ascending(self.points):
            raise InvalidModel("points must be distinct and sorted ascending")
        if self.selection.carrier.labels != self.points:
            raise InvalidModel("selection carrier must be exactly the points")

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def grid(self) -> tuple:
        """(D, keys): the points' least common denominator and each point
        times D as an integer, ascending (a point's index is the carrier's)."""
        d = math.lcm(*(p.denominator for p in self.points))
        return d, [p.numerator * (d // p.denominator) for p in self.points]


def model_space(points: Iterable, selection: PartialSelection) -> ModelSpace:
    """The model on the points, sorted unless they already ascend; a
    Fraction point is kept as the same object."""
    ps = tuple(p if type(p) is Fraction else Fraction(p) for p in points)
    return ModelSpace(ps if _ascending(ps) else tuple(sorted(ps)), selection)


def order_model(points: Iterable, bound: int, rule: str) -> ModelSpace:
    pts = tuple(sorted(Fraction(p) for p in points))
    return ModelSpace(pts, order_partial(GroundSet(pts), bound, rule))


def _receiver(level: SelectionStructure, spans: Sequence[range]) -> Optional[int]:
    """The position in spans of the one member receiving the pick of
    every transversal, or None once a second member receives one.
    spans are the nonempty, ascending index ranges of disjoint members."""
    picks = level.picks
    _, rank = subset_ranks(level.size, level.n)
    got = None
    for t in product(*spans):
        k = t.index(picks[rank[t]])
        if k != got:
            if got is not None:
                return None
            got = k
    return got


def _preserved(selection: PartialSelection, spans: list, arities: Sequence[int]) -> bool:
    """Whether members holding the ascending index ranges spans preserve
    relations at each arity in turn."""
    for i in arities:
        level = selection.level(i)
        if any(_receiver(level, sub) is None for sub in combinations(spans, i)):
            return False
    return True


def _members(model: ModelSpace, idx: Sequence[int], a: int, b: int) -> tuple:
    """The intervals p -+ a / (b D), that is (c b -+ a) / (D b) for p's
    key c, around the sample points p with indices idx, in that order."""
    d, keys = model.grid
    return tuple(IntervalOpen(Fraction(keys[i] * b - a, d * b), Fraction(keys[i] * b + a, d * b))
                 for i in idx)


def _descent(model: ModelSpace, idx: Sequence[int], shifts: Iterable[int]):
    """(a, b, spans) per shift k in shifts: members of radius a / (b D),
    the starting radius over 2^k, around the sample points with indices
    idx (ascending) hold the index ranges spans.  The start is half the
    points' least gap, for a lone point the least gap to its adjacent
    sample points (1 when it has none)."""
    d, keys = model.grid
    centers = [keys[i] for i in idx]
    near = keys[max(idx[0] - 1, 0):idx[0] + 2] if len(idx) == 1 else centers
    gap = min((y - x for x, y in zip(near, near[1:])), default=None)
    a, b = (d, 1) if gap is None else (gap, 2)  # the radius times D is a / b
    if a == 0:  # a repeated point: the members are empty
        raise InvalidModel("empty interval ({0}, {0})".format(model.points[idx[0]]))
    for k in shifts:
        # a center c holds the keys less than ceil(a / b) away
        bk = b << k
        w = -(-a // bk)
        yield a, bk, [range(bisect_right(keys, c - w), bisect_left(keys, c + w)) for c in centers]


def find_preserving_neighborhoods(
    model: ModelSpace,
    pts: Iterable[Fraction],
    arities: Iterable[int],
) -> OpenFamily:
    """Disjoint intervals around the given sample points preserving
    relations at every requested arity, found by halving a common
    radius from its start (see _descent) down to 2^-40 of it; the first
    success is returned.  Past that floor the model is declared
    non-continuous with the points as witness.  A radius whose members
    hold the same sample points as at the last radius tried is skipped:
    it fails too.
    """
    ps = [p if type(p) is Fraction else Fraction(p) for p in pts]
    if not ps:
        raise OutOfRange("need at least one point")
    position = model.selection.carrier._position  # the points are the carrier's labels
    at = sorted((position.get(p, -1), p) for p in ps)
    if at[0][0] < 0:
        raise OutOfRange(f"{min(p for i, p in at if i < 0)} is not a sample point")
    wanted = sorted(set(arities))
    idx, ps = zip(*at)
    last = None
    for a, b, spans in _descent(model, idx, range(RADIUS_FLOOR_SHIFT + 1)):
        if spans != last:
            last = spans
            if _preserved(model.selection, spans, wanted):
                return OpenFamily(_members(model, idx, a, b))
    raise NotModelContinuous(f"no preserving neighborhoods around {ps}")


def check_continuity(model: ModelSpace) -> Verdict:
    """Every domain subset has neighborhoods at its floor radius that
    receive all selections of its own arity in one member (see the
    module docstring).  Only subsets of size >= 2 meeting the twinned
    set are tested: any other has one transversal, which is preserved.
    Witness on failure is the first offending point tuple by size, then
    rank."""
    sel = model.selection
    sizes = [k for k in sel.admissible_sizes() if 2 <= k <= model.size]
    if not sizes:
        return PASS
    _, keys = model.grid
    cut = -(-(keys[-1] - keys[0]) >> (RADIUS_FLOOR_SHIFT + 1))  # ceil(span / 2^41)
    twins = {j for i, (x, y) in enumerate(zip(keys, keys[1:])) if y - x < cut for j in (i, i + 1)}
    if not twins:
        return PASS
    for size in sizes:
        for s in combinations(range(model.size), size):
            if twins.isdisjoint(s):
                continue
            ((_, _, spans),) = _descent(model, s, (RADIUS_FLOOR_SHIFT,))
            if not _preserved(sel, spans, (size,)):
                return fail(tuple(model.points[i] for i in s))
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
