"""Chain transfers between open families and nice family systems.

One family meets another uniquely when each of its members intersects
exactly one member of the other; the induced index map composes along
chains.  A system is nice when overlapping families always meet
uniquely and all chains between the same endpoints compose to the same
transfer; nice systems with bijective transfers determine a selection
on every covered sample subset.

Niceness, chain components and building all read one MeetGraph per
system (``FamilySystem.graph``, built on first use).  It scales the
member endpoints to integers, and the model's point grid
(``ModelSpace.grid``) up, onto one common denominator, so comparisons
stay exact without Fractions, and indexes the distinct member intervals
by left endpoint.  Row i of the graph, the unique-meet edges out of
family i as an ascending adjacency list, is filled only when asked for:
its candidates are the families touching every member of i, and exact
member hits are tested on those alone, so a refutation in an early row
never pays for the later ones.  The cover, also built on first use, is
walked from the families' side: members are pairwise disjoint, so a
sample subset lies in a family's Vietoris open exactly when it is one
of the family's transversals, one point index from each member's range.
Placing every covered subset thus costs one step per (family, covered
subset) pair, and a subset is then placed by one dict lookup.  Derived
families take their radius and members from vietoris, as the
continuity check does.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Optional

from .errors import (
    BrokenInvariant,
    HypothesisViolated,
    NonBijectiveTransfer,
    NotNice,
    OutOfRange,
    SizeMismatch,
    _shown,
    check_int,
)
from .extension import scored_subsets
from .verdict import PASS, Verdict, fail
from .vietoris import ModelSpace, OpenFamily, _members, _radius, member_hits, overlaps


def _unique(rows: list) -> Optional[tuple]:
    """The index map of hit rows (see vietoris.member_hits) when every
    row holds exactly one hit, else None: the one definition of "meets
    uniquely"."""
    if all(len(row) == 1 for row in rows):
        return tuple(row[0] for row in rows)
    return None


@dataclass(frozen=True)
class FamilySystem:
    """Finite list of equal-size open families over one sample model."""

    families: tuple
    model: ModelSpace

    def __post_init__(self):
        sizes = {f.size for f in self.families}
        if len(sizes) > 1:
            raise SizeMismatch(f"family sizes differ: {sorted(sizes)}")

    @property
    def arity(self) -> int:
        return self.families[0].size if self.families else 0

    @cached_property
    def graph(self) -> MeetGraph:
        """The system's meet graph, built on first use and then shared by
        every check and construction on this system."""
        return MeetGraph(self)


class MeetGraph:
    """Unique-meet edges and cover placements of one family system (see
    the module docstring).  keys[f] holds family f's member endpoints
    and points[k] sample point k, as integers."""

    def __init__(self, system: FamilySystem):
        fams = system.families
        d, keys = system.model.grid
        # the readers share one IntervalOpen between equal members, so
        # each distinct object is scaled once
        opens = {id(u): u for f in fams for u in f.members}
        scale = math.lcm(d, *{q.denominator for u in opens.values() for q in (u.lo, u.hi)})

        def key(q):
            return q.numerator * (scale // q.denominator)

        scaled = {i: (key(u.lo), key(u.hi)) for i, u in opens.items()}
        self.size = system.arity
        self.keys = [tuple(scaled[id(u)] for u in f.members) for f in fams]
        self.points = [k * (scale // d) for k in keys]
        owners: dict = {}
        for f, ks in enumerate(self.keys):
            for k in ks:
                owners.setdefault(k, []).append(f)
        # the distinct member intervals sorted by lo, each with the
        # families that have it as a member
        self.spans = sorted(owners)
        self.owners = [owners[k] for k in self.spans]
        self.los = [lo for lo, _ in self.spans]
        self.reach = max((hi - lo for lo, hi in self.spans), default=0)
        self.rows: list = [None] * len(fams)
        self._touch: dict = {}

    def _touching(self, k: tuple) -> set:
        """The families with a member meeting the member interval k.  A
        member meeting it starts after lo - reach and before hi."""
        if k not in self._touch:
            lo, hi = k
            start = bisect_right(self.los, lo - self.reach)
            window = self.spans[start:bisect_left(self.los, hi)]
            (hits,) = member_hits([k], window)
            self._touch[k] = {f for h in hits for f in self.owners[start + h]}
        return self._touch[k]

    def row(self, i: int) -> tuple:
        """(edges, bad) of family i: edges lists (j, meet map) for every
        j != i that i meets uniquely, ascending in j; bad is the least j
        whose Vietoris open overlaps i's without a unique meet, or None.

        Only families touching every member of i can be either, so exact
        hits are tested on those candidates alone; a family with no
        members has every family as a candidate."""
        if self.rows[i] is None:
            ks = self.keys[i]
            first, *rest = [self._touching(k) for k in ks] or [set(range(len(self.keys)))]
            cands = first.intersection(*rest)  # a new set: the touching sets stay cached
            edges, bad = [], None
            for j in sorted(cands - {i}):
                hits = member_hits(ks, self.keys[j])
                mapping = _unique(hits)
                if mapping is not None:
                    edges.append((j, mapping))
                elif bad is None and overlaps(hits, self.size):
                    bad = j
            self.rows[i] = edges, bad
        return self.rows[i]

    @cached_property
    def cover(self) -> dict:
        """{s: [(family, members)]} for every ascending tuple s of sample
        point indices lying in some family's Vietoris open, families
        ascending; members[k] is the member holding point s[k].

        Family f holds exactly its transversals.  Walking the members in
        ascending position makes each transversal ascending, and gives
        every transversal of f the same members tuple."""
        pts = self.points
        cover: dict = {}
        for f, ks in enumerate(self.keys):
            order = tuple(sorted(range(len(ks)), key=ks.__getitem__))
            entry = (f, order)
            ranges = [range(bisect_right(pts, ks[a][0]), bisect_left(pts, ks[a][1]))
                      for a in order]
            for s in product(*ranges):
                held = cover.get(s)
                if held is None:
                    cover[s] = [entry]
                else:
                    held.append(entry)
        return cover

    def covering(self, s: tuple) -> list:
        """The cover's entry for the sample point indices s (ascending),
        or [] when no family's Vietoris open holds them.  The entry is
        the cover's own list: callers read it and never change it."""
        return self.cover.get(s, [])


def chain_classes(system: FamilySystem) -> list:
    """Connected components of the unique-meet graph (edges taken
    regardless of direction), each a sorted list of family indices."""
    n = len(system.families)
    neighbors: list = [[] for _ in range(n)]
    for i in range(n):
        for j, _ in system.graph.row(i)[0]:
            neighbors[i].append(j)
            neighbors[j].append(i)
    seen: set = set()
    comps = []
    for root in range(n):
        if root not in seen:
            seen.add(root)
            comp = [root]
            for u in comp:
                for w in neighbors[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(sorted(comp))
    return comps


def _labels_from(root: int, graph: MeetGraph):
    """Transfer labels L with L[root] = identity, propagated breadth
    first along directed edges; returns (labels, conflict edge or None).

    Labels never change once set and every edge out of a labeled family
    is walked, so each edge inside the labeled set gets compared.  A
    conflict means two chains from root to the same family compose
    differently, which refutes path independence outright.
    """
    labels: dict = {root: tuple(range(graph.size))}
    order = [root]
    for u in order:
        for v, gamma in graph.row(u)[0]:
            cand = tuple(gamma[x] for x in labels[u])
            if v not in labels:
                labels[v] = cand
                order.append(v)
            elif labels[v] != cand:
                return labels, (u, v)
    return labels, None


def is_nice(system: FamilySystem) -> Verdict:
    """Both niceness conditions.

    1. Families with intersecting Vietoris opens meet uniquely (checked
       for every ordered pair, row by row).
    2. All chains between the same endpoints compose to the same
       transfer.  Checked by consistent labeling: for every family as
       root, propagate transfers outward along unique-meet edges and
       flag any edge that disagrees with the labels.  Rooting at every
       family keeps the check exact even when maps are not invertible
       (the root label is the identity, so no inversion is needed).
       A family that a conflict-free root labeled bijectively is not
       rooted again: two chains out of it composing differently would
       compose differently after that bijection too, so it cannot
       conflict.

    Witnesses: ("overlap-without-unique-meet", i, j) or
    ("transfer-conflict", root, (u, v)).
    """
    graph = system.graph
    n = len(system.families)
    for i in range(n):
        bad = graph.row(i)[1]
        if bad is not None:
            return fail(("overlap-without-unique-meet", i, bad))
    settled: set = set()
    for root in range(n):
        if root in settled:
            continue
        labels, conflict = _labels_from(root, graph)
        if conflict is not None:
            return fail(("transfer-conflict", root, conflict))
        settled.update(v for v, lab in labels.items() if len(set(lab)) == graph.size)
    return PASS


@dataclass(frozen=True)
class BuiltSelection:
    """Classwise selection assembled from a nice system.

    Subsets and points are model point indices: values maps each
    covered sample subset (ascending index tuple) to the index of its
    selected point, in rank order; uncovered lists the subsets in no
    family's Vietoris open, in rank order: out of cover, not an error.
    """

    values: dict
    uncovered: tuple
    bases: tuple  # (family index, member index) per component
    components: tuple


def build_selection_from_nice(
    system: FamilySystem, bases: Optional[dict] = None
) -> BuiltSelection:
    """Selection on covered sample m-subsets from a nice system.

    Per chain component a base (family, member) is fixed (default the
    lexicographically least family and its first member) and every family
    receives the composed transfer from the base; a covered subset selects its
    point inside the transferred member.  All transfers must be bijective.
    Families with no members have no member to base a component on:
    HypothesisViolated.  A bases key not an int naming a component, a value
    not a (family, member) pair, a family outside its component or a member
    not an int in 0..m-1 is OutOfRange.  At arity 0 the one subset is empty.
    """
    if system.families and system.arity == 0:
        raise HypothesisViolated("families have no members")
    verdict = is_nice(system)
    if not verdict:
        raise NotNice(f"system is not nice: {verdict.witness}", verdict)
    graph = system.graph
    model = system.model
    m = system.arity
    comps = chain_classes(system)
    for ci in bases or ():
        check_int("base key", ci, 0, len(comps) - 1)
    chosen_bases = []
    targets: dict = {}  # family -> member holding its component's value
    for ci, comp in enumerate(comps):
        if bases is not None and ci in bases:
            if not isinstance(bases[ci], (tuple, list)) or len(bases[ci]) != 2:
                raise OutOfRange(f"base {_shown(bases[ci])} is not a (family, member) pair")
            base_f, base_m = bases[ci]
            check_int("base family", base_f, comp[0], comp[-1])
            if base_f not in comp:
                raise OutOfRange(f"base family {base_f} not in component {comp}")
        else:
            base_f = min(comp, key=graph.keys.__getitem__)
            base_m = 0
        check_int("base member", base_m, 0, m - 1)
        chosen_bases.append((base_f, base_m))
        labels, conflict = _labels_from(base_f, graph)
        if conflict is not None:
            raise BrokenInvariant(
                f"niceness verified but labeling from {base_f} conflicted at {conflict}"
            )
        for v in comp:
            if v not in labels:
                raise NonBijectiveTransfer(
                    f"family {v} not reachable from base {base_f} by unique-meet links"
                )
            if len(set(labels[v])) != m:
                raise NonBijectiveTransfer(
                    f"transfer from {base_f} to {v} is not bijective"
                )
            targets[v] = labels[v][base_m]
    values: dict = {}
    uncovered = []
    for s in combinations(range(model.size), m):
        picks = {s[members.index(targets[f])] for f, members in graph.covering(s)}
        if len(picks) > 1:
            pts = tuple(model.points[i] for i in s)
            raise BrokenInvariant(f"covering families of {pts} disagree despite niceness")
        if picks:
            values[s] = picks.pop()
        else:
            uncovered.append(s)
    return BuiltSelection(
        values, tuple(uncovered), tuple(chosen_bases), tuple(tuple(c) for c in comps)
    )


def derive_nice_family(model: ModelSpace, n: int) -> FamilySystem:
    """One family around every sampled (n+1)-set whose pair restriction
    is regular (n even, pairs admitted), in subset rank order: constant
    scores on extension.scored_subsets' walk of the pair level.

    A member is the interval around its point of radius half the least
    gap between sample points, so it holds its centre alone: the family
    preserves relations at every arity, and members of different
    families coincide or are disjoint, so the result is nice however
    the regular sets interleave.
    """
    pairs = model.selection.level(2)  # a missing pair level raises before n's range check
    check_int("n", n, 2, model.size - 1)
    if n % 2:
        raise OutOfRange(f"need even n >= 2, got {n}")
    regular = [s for s, w, _ in scored_subsets(pairs, n + 1) if len(set(w)) <= 1]
    a, b, _ = _radius(model, range(model.size), 0)  # half the least gap
    around = _members(model, range(model.size), a, b)
    return FamilySystem(tuple(OpenFamily(tuple(around[i] for i in s)) for s in regular), model)


def regular_class_cover_check(system: FamilySystem, n: int) -> Verdict:
    """Sampled (n+1)-sets are covered by some family's Vietoris open
    exactly when their pair restriction is regular, both read in one walk
    in rank order; the witness is the first offending point tuple.  With
    fewer than n + 1 points there is no such set, and the check passes."""
    check_int("n", n, 1)
    model = system.model
    m = n + 1
    pairs = model.selection.level(2)  # a missing pair level raises before the size check
    if m > model.size:
        return PASS
    for s, w, _ in scored_subsets(pairs, m):
        if bool(system.graph.covering(s)) != (len(set(w)) <= 1):
            return fail(tuple(model.points[i] for i in s))
    return PASS
