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
check therefore tests a domain subset once, at its floor radius (half
its least gap over 2^40), and only if it has two or more points and
meets the twinned set: the points with an adjacent gap below
ceil(span / 2^41) on the integer grid.  A floor member's half-width,
ceil(g / 2^41) for the subset's least gap g, is at most that bound, so a
member around any other point holds that point alone (a singleton's
always does).  Such a subset has one transversal, which is always
preserved; a model with no twinned point is continuous.  ``_radius``
finds the members' index ranges on the grid, and ``_members`` turns a
grid radius back into Fraction intervals, for
``chains.derive_nice_family``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .errors import InvalidModel
from .extension import PartialSelection, order_partial
from .structures import GroundSet, SelectionStructure
from .verdict import PASS, Verdict, fail

RADIUS_FLOOR_SHIFT = 40  # the floor radius is half the least gap over 2**40


def _below(p, q) -> bool:
    """p < q for rationals, on integers (denominators are positive)."""
    return p.numerator * q.denominator < q.numerator * p.denominator


def _ascending(qs: Sequence) -> bool:
    """Whether the rationals qs strictly ascend, compared on integers."""
    return all(_below(p, q) for p, q in zip(qs, qs[1:]))


@dataclass(frozen=True)
class IntervalOpen:
    """Bounded open interval (lo, hi) with exact rational endpoints.
    ends holds (lo's numerator, lo's denominator, hi's numerator, hi's
    denominator), read once here, so order checks compare on integers."""

    lo: Fraction
    hi: Fraction
    ends: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        ln, ld, hn, hd = ends = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        object.__setattr__(self, "ends", ends)
        if not ln * hd < hn * ld:
            raise InvalidModel(f"empty interval {self}")

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"


@dataclass(frozen=True)
class OpenFamily:
    """Finite tuple of pairwise disjoint interval opens, order fixed.

    Members listed left to right are checked neighbour by neighbour,
    any other order pair by pair; both compare the members' ends on
    integers (denominators are positive)."""

    members: tuple

    def __post_init__(self):
        ms = self.members
        hn = None
        for u in ms:
            ln, ld, n, d = u.ends
            if hn is not None and ln * hd < hn * ld:  # u.lo below the last hi: not ascending
                break
            hn, hd = n, d
        else:
            return
        for a, b in combinations(ms, 2):
            aln, ald, ahn, ahd = a.ends
            bln, bld, bhn, bhd = b.ends
            if aln * bhd < bhn * ald and bln * ahd < ahn * bld:
                raise InvalidModel(f"family members overlap: {a} and {b}")

    @property
    def size(self) -> int:
        return len(self.members)


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
    _, rank = level.table
    got = None
    for t in product(*spans):
        k = t.index(picks[rank[t]])
        if k != got:
            if got is not None:
                return None
            got = k
    return got


def _members(model: ModelSpace, idx: Sequence[int], a: int, b: int) -> tuple:
    """The intervals p -+ a / (b D), that is (c b -+ a) / (D b) for p's
    key c, around the sample points p with indices idx, in that order."""
    d, keys = model.grid
    return tuple(IntervalOpen(Fraction(keys[i] * b - a, d * b), Fraction(keys[i] * b + a, d * b))
                 for i in idx)


def _radius(model: ModelSpace, idx: Sequence[int], k: int) -> tuple:
    """(a, b, spans): members of radius a / (b D), half the least gap
    between the sample points with indices idx (two or more, ascending)
    over 2^k, around those points hold the index ranges spans."""
    _, keys = model.grid
    centers = [keys[i] for i in idx]
    a = min(y - x for x, y in zip(centers, centers[1:]))
    b = 2 << k
    w = -(-a // b)  # a center c holds the keys less than ceil(a / b) away
    return a, b, [range(bisect_right(keys, c - w), bisect_left(keys, c + w)) for c in centers]


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
        level = sel.level(size)
        for s in combinations(range(model.size), size):
            if twins.isdisjoint(s):
                continue
            _, _, spans = _radius(model, s, RADIUS_FLOOR_SHIFT)
            if _receiver(level, spans) is None:
                return fail(tuple(model.points[i] for i in s))
    return PASS


def member_hits(us: Sequence[tuple], vs: Sequence[tuple]) -> list:
    """Row a lists the indices of the opens in vs that meet us[a].

    Opens are (lo, hi) endpoint pairs compared with strict <, so opens
    that only touch at an endpoint stay disjoint.  Endpoints may be
    Fractions or integers on one common denominator.
    """
    return [[j for j, (lo, hi) in enumerate(vs) if alo < hi and lo < ahi] for alo, ahi in us]


def overlaps(rows: list, size: int) -> bool:
    """Whether the hit rows of u against a size-member family v form an
    edge cover of the bipartite meet graph (no isolated member on
    either side), that is whether the Vietoris opens of u and v
    intersect: such an edge cover assembles a finite rational witness
    set, and conversely any witness covers all members."""
    return all(rows) and len({j for row in rows for j in row}) == size
