"""Independent brute-force oracles and shared fixtures.

Everything here re-derives expected values from definitions, staying off
the library's own code paths wherever the point is to cross-check one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice, permutations, product

from hypersel.chains import FamilySystem
from hypersel.documents import _check_fields, _int, _string_list, parse_fraction
from hypersel.errors import (
    ArityNotInDomain,
    ChoiceOutsideSubset,
    DocumentError,
    MissingSubset,
    NotModelContinuous,
)
from hypersel.extension import PartialSelection, admissible_sizes, make_partial
from hypersel.structures import GroundSet, SelectionStructure
from hypersel.vietoris import (
    RADIUS_FLOOR_SHIFT,
    IntervalOpen,
    ModelSpace,
    OpenFamily,
    interval,
    model_space,
    order_model,
)


# -- scores ---------------------------------------------------------------

def oracle_scores(s: SelectionStructure) -> dict:
    """Recount of every element's score straight from the definition."""
    w = {x: 0 for x in s.ground.labels}
    for sub in combinations(s.ground.labels, s.n):
        w[s.choose(sub)] += 1
    return w


# -- tournament masks -------------------------------------------------------

def oracle_cycle_violation(m: int, masks):
    """The O(m^3) 3-cycle scan over single-pair lookups: first
    (mask, x, y), by mask then x then y, with pair {x,y} picking y and
    no z where {y,z} picks z and {z,x} picks x; None if there is none.
    Pair {i,j}, i < j, has bit offsets[i] + j - i - 1 and picks j when
    it is set."""
    offsets = []
    acc = 0
    for v in range(m):
        offsets.append(acc)
        acc += m - 1 - v

    def pick(mask: int, a: int, b: int) -> int:
        i, j = (a, b) if a < b else (b, a)
        bit = offsets[i] + j - i - 1
        return j if (mask >> bit) & 1 else i

    for mask in masks:
        for x in range(m):
            for y in range(m):
                if y == x or pick(mask, x, y) != y:
                    continue
                for z in range(m):
                    if z != x and z != y and pick(mask, y, z) == z and pick(mask, z, x) == x:
                        break
                else:
                    return (mask, x, y)
    return None


# -- isomorphism classes ----------------------------------------------------

def oracle_relabel(s: SelectionStructure, perm: tuple) -> tuple:
    """Choice tuple, in subset-rank order on 0..m-1, of s relabeled by
    perm (ground index i becomes perm[i])."""
    subs = list(combinations(range(s.size), s.n))
    image = {tuple(sorted(perm[i] for i in sub)): perm[p] for sub, p in zip(subs, s.picks)}
    return tuple(image[sub] for sub in subs)


def oracle_orbit(s: SelectionStructure) -> set:
    """The choice tuples of all m! relabelings of s: its isomorphism
    class on the ground 0..m-1."""
    return {oracle_relabel(s, perm) for perm in permutations(range(s.size))}


def oracle_canonical(s: SelectionStructure) -> tuple:
    """The least choice tuple over all m! relabelings: equal exactly on
    isomorphic structures."""
    return min(oracle_orbit(s))


def oracle_classes(m: int, n: int, start: int = 0, stop=None) -> list:
    """The isomorphism classes met among the labeled structures with
    index in [start, stop), each as its oracle_orbit, in order of first
    appearance.  The labeled order is itertools.product over the subsets
    in rank order (the rank-0 choice most significant)."""
    ground = GroundSet(tuple(range(m)))
    subs = list(combinations(range(m), n))
    seen: set = set()
    classes = []
    for picks in islice(product(*subs), start, stop):
        if picks not in seen:
            classes.append(oracle_orbit(SelectionStructure(ground, n, picks)))
            seen |= classes[-1]
    return classes


# The refinement canonical_form ran before it read signatures from
# per-element incidence lists: each round scans every subset.  Its
# ordered partitions fix the canonical encoding, so structures._refine
# must return the same ones.
def oracle_refine(subs: tuple, picks: tuple, cells: list) -> list:
    """Split the ordered partition ``cells`` of the ground indices until
    it is stable.

    The signature of an element is the sorted multiset, over the subsets
    containing it, of (is it the pick, the pick's cell, the cells of the
    other members).  Each cell is replaced, where it stands, by its
    sub-cells in ascending signature order.  A cell is named by its
    first position, so signatures, and with them the result, see labels
    only through the partition: relabeling the input relabels the output.
    """
    m = sum(len(c) for c in cells)
    while len(cells) < m:
        cell_of = [0] * m
        live = [False] * m  # in a cell that can still split
        pos = 0
        for c in cells:
            for x in c:
                cell_of[x] = pos
                live[x] = len(c) > 1
            pos += len(c)
        sig: list = [[] for _ in range(m)]
        for sub, p in zip(subs, picks):
            if not any(live[y] for y in sub):
                continue
            where = [cell_of[y] for y in sub]
            for k, x in enumerate(sub):
                if live[x]:
                    others = where[:k] + where[k + 1:]
                    others.sort()
                    sig[x].append((x == p, cell_of[p], tuple(others)))
        split = []
        for c in cells:
            if len(c) == 1:
                split.append(c)
                continue
            groups: dict = {}
            for x in c:
                groups.setdefault(tuple(sorted(sig[x])), []).append(x)
            split.extend(groups[key] for key in sorted(groups))
        if len(split) == len(cells):
            break
        cells = split
    return cells


# -- extension ------------------------------------------------------------

def oracle_extend_value(f: PartialSelection, labels: tuple, p: int):
    """Extended value on one subset, recomputed on labels through
    f.choose: score the arity-p restriction, take the least level with
    a small nonempty class, apply f to that class."""
    labs = sorted(labels, key=f.carrier.index)
    m = len(labs)
    w = {x: 0 for x in labs}
    for sub in combinations(labs, p):
        w[f.choose(sub)] += 1
    by_score: dict = {}
    for x, sc in w.items():
        by_score.setdefault(sc, []).append(x)
    r0 = min(sc for sc, xs in by_score.items() if 2 * len(xs) <= m)
    return f.choose(by_score[r0])


def oracle_restrict(f: PartialSelection, subset, n: int) -> SelectionStructure:
    """f as an arity-n structure on a subset of its carrier, each pick
    located in the sorted index tuple by idx.index, subset by subset."""
    level = f.levels.get(n)
    if level is None:
        raise ArityNotInDomain(f"arity {n} not admitted by mode {f.mode}")
    idx = tuple(sorted(f.carrier.index(x) for x in subset))
    ground = GroundSet(tuple(f.carrier.labels[i] for i in idx))
    subs = combinations(range(len(idx)), n)
    picks = [idx.index(level.choose_indices(tuple(idx[i] for i in s))) for s in subs]
    return SelectionStructure(ground, n, tuple(picks))


# -- document reading --------------------------------------------------------
#
# The label-table construction the readers used before they resolved
# labels to carrier indices: a {frozenset(subset): pick} table, split by
# subset size, each size checked subset by subset on label sets.  Two
# records whose subsets are equal only after the fraction parse (say
# "1/2" and "2/4") collapse here, the later one winning.

def _oracle_choices(doc, where: str) -> dict:
    if not isinstance(doc, list):
        raise DocumentError(f"{where}: expected a list of choice records")
    table: dict = {}
    for i, rec in enumerate(doc):
        here = f"{where}[{i}]"
        _check_fields(rec, ("subset", "pick"), here)
        subset = _string_list(rec["subset"], f"{here}.subset")
        if not isinstance(rec["pick"], str):
            raise DocumentError(f"{here}.pick: expected a string")
        key = frozenset(subset)
        if len(key) != len(subset):
            raise DocumentError(f"{here}.subset: repeated labels")
        if key in table:
            raise DocumentError(f"{here}.subset: duplicate subset")
        table[key] = rec["pick"]
    return table


def oracle_make_selection(ground: GroundSet, n: int, table) -> SelectionStructure:
    m = ground.size
    if not 1 <= n <= m:
        raise ValueError(f"arity {n} out of range for ground of size {m}")
    normalized = {frozenset(k): v for k, v in table.items()}
    if len(normalized) != len(table):
        raise MissingSubset("table keys collapse when read as sets")
    labels = ground.labels
    position = {x: i for i, x in enumerate(labels)}
    picks = []
    for s in combinations(range(m), n):
        key = frozenset([labels[i] for i in s])
        if key not in normalized:
            raise MissingSubset(f"no choice for subset {sorted(key, key=labels.index)}")
        v = normalized[key]
        if v not in key:
            raise ChoiceOutsideSubset(f"{v!r} not in subset {sorted(key, key=labels.index)}")
        picks.append(position[v])
    if len(normalized) != len(picks):
        raise MissingSubset("table has entries that are not n-subsets of the ground")
    return SelectionStructure(ground, n, tuple(picks))


def oracle_make_partial(carrier: GroundSet, mode: str, bound: int, table) -> PartialSelection:
    by_size: dict = {}
    for k, v in table.items():
        key = frozenset(k)
        by_size.setdefault(len(key), {})[key] = v
    if sum(map(len, by_size.values())) != len(table):
        raise MissingSubset("table keys collapse when read as sets")
    levels = {
        size: oracle_make_selection(carrier, size, by_size.pop(size, {}))
        for size in admissible_sizes(mode, bound)
    }
    if by_size:
        raise MissingSubset("table has entries outside the admissible subsets")
    return PartialSelection(carrier, mode, bound, levels)


def oracle_read_partial(doc, parse_labels: bool = False) -> PartialSelection:
    _check_fields(doc, ("carrier", "mode", "bound", "choices"), "partial")
    carrier = _string_list(doc["carrier"], "partial.carrier")
    mode = doc["mode"]
    if mode not in ("upto", "exact"):
        raise DocumentError(f"partial.mode: expected 'upto' or 'exact', got {mode!r}")
    bound = _int(doc["bound"], "partial.bound")
    table = _oracle_choices(doc["choices"], "partial.choices")
    if parse_labels:
        carrier = tuple(parse_fraction(x, "partial.carrier") for x in carrier)
        table = {
            frozenset(parse_fraction(x, "partial.choices.subset") for x in k):
                parse_fraction(v, "partial.choices.pick")
            for k, v in table.items()
        }
    return oracle_make_partial(GroundSet(carrier), mode, bound, table)


def oracle_read_model(doc) -> ModelSpace:
    _check_fields(doc, ("points", "selection"), "model")
    raw = _string_list(doc["points"], "model.points")
    points = tuple(parse_fraction(p, "model.points") for p in raw)
    return model_space(points, oracle_read_partial(doc["selection"], parse_labels=True))


def oracle_read_system(doc) -> FamilySystem:
    _check_fields(doc, ("model", "families"), "system")
    model = oracle_read_model(doc["model"])
    if not isinstance(doc["families"], list):
        raise DocumentError("system.families: expected a list")
    families = []
    for fam in doc["families"]:
        _check_fields(fam, ("intervals",), "family")
        if not isinstance(fam["intervals"], list):
            raise DocumentError("family.intervals: expected a list")
        members = []
        for i, rec in enumerate(fam["intervals"]):
            here = f"family.intervals[{i}]"
            _check_fields(rec, ("lo", "hi"), here)
            members.append(IntervalOpen(parse_fraction(rec["lo"], f"{here}.lo"),
                                        parse_fraction(rec["hi"], f"{here}.hi")))
        families.append(OpenFamily(tuple(members)))
    return FamilySystem(tuple(families), model)


# -- vietoris intersection -------------------------------------------------

def oracle_union_contains(fam: OpenFamily, p: Fraction) -> bool:
    return any(u.lo < p < u.hi for u in fam.members)


def oracle_vietoris_contains(fam: OpenFamily, s) -> bool:
    """s meets every member of fam and is contained in the union."""
    pts = list(s)
    return all(any(u.lo < p < u.hi for p in pts) for u in fam.members) and all(
        oracle_union_contains(fam, p) for p in pts
    )


def oracle_intersect(u: OpenFamily, v: OpenFamily) -> bool:
    """Exhaustive witness search over cell midpoints.

    Cutting the line at every endpoint makes interval membership
    constant on each open cell, so any witness set can be moved onto
    midpoints without changing which members it meets.
    """
    cuts = sorted(
        {b for fam in (u, v) for i in fam.members for b in (i.lo, i.hi)}
    )
    mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    cand = [x for x in mids if oracle_union_contains(u, x) and oracle_union_contains(v, x)]
    for r in range(1, len(cand) + 1):
        for pts in combinations(cand, r):
            if oracle_vietoris_contains(u, pts) and oracle_vietoris_contains(v, pts):
                return True
    return False


# -- neighborhoods and continuity -------------------------------------------
#
# The radius descent as first written, on Fraction endpoints: every
# radius from the start down to the 2^-40 floor is tried, the points
# inside a member are found by scanning, and each subfamily walks its
# transversals once per candidate receiving member.

def oracle_points_in(model: ModelSpace, u) -> list:
    return [p for p in model.points if u.lo < p < u.hi]


class EmptyMember(Exception):
    """A member holds no sample point, so its family has no transversal."""


def oracle_arrows_to(model: ModelSpace, members: tuple, target) -> bool:
    """Every transversal of the members (one sample point in each)
    selects a point inside target; EmptyMember for an empty member."""
    pools = []
    for i, u in enumerate(members):
        pts = oracle_points_in(model, u)
        if not pts:
            raise EmptyMember(f"member {i} = ({u.lo}, {u.hi}) holds no sample point")
        pools.append(pts)
    return all(target.contains(model.selection.choose(t)) for t in product(*pools))


def oracle_preserves(model: ModelSpace, fam: OpenFamily, n: int):
    """(ok, witness) of preservation at arity n, witness (n, member
    indices) of the first subfamily no member of which receives all its
    transversals' selections."""
    if not model.selection.admits(n):
        raise ArityNotInDomain(f"selection does not admit arity {n}")
    for idxs in combinations(range(fam.size), n):
        sub = tuple(fam.members[j] for j in idxs)
        if not any(oracle_arrows_to(model, sub, u) for u in sub):
            return False, (n, idxs)
    return True, None


def oracle_neighborhoods(model: ModelSpace, pts, arities, max_radius=None) -> OpenFamily:
    """The family of intervals of a common radius around pts at the first
    radius, halving from half the least gap (capped at max_radius) down
    to 2^-40 of it, that preserves relations at every arity."""
    ps = tuple(sorted(Fraction(p) for p in pts))
    if not ps:
        raise ValueError("need at least one point")
    for p in ps:
        if p not in model.points:
            raise ValueError(f"{p} is not a sample point")
    wanted = sorted(set(arities))

    def half_gap(xs):
        return min(b - a for a, b in zip(xs, xs[1:])) / 2 if len(xs) > 1 else Fraction(1)

    if len(ps) == 1:
        i = model.points.index(ps[0])
        r = half_gap(model.points[max(i - 1, 0):i + 2])
    else:
        r = half_gap(ps)
    if max_radius is not None:
        r = min(r, max_radius)
    floor = r / 2**RADIUS_FLOOR_SHIFT
    while r >= floor:
        fam = OpenFamily(tuple(IntervalOpen(p - r, p + r) for p in ps))
        if all(oracle_preserves(model, fam, i)[0] for i in wanted):
            return fam
        r = r / 2
    raise NotModelContinuous(f"no preserving neighborhoods around {ps}")


def oracle_continuity(model: ModelSpace):
    """(ok, witness): the first domain subset, by size then rank, around
    which no neighborhood family preserves its own arity."""
    for size in model.selection.admissible_sizes():
        for pts in combinations(model.points, size):
            try:
                oracle_neighborhoods(model, pts, (size,))
            except NotModelContinuous:
                return False, pts
    return True, None


# -- chain agreement --------------------------------------------------------
#
# A pairwise brute-force reference for the chain layer: every ordered
# pair of families and every (family, sample subset) pair is tested
# straight from the definitions on the Fraction endpoints.

def oracle_meet_rows(u: OpenFamily, v: OpenFamily) -> list:
    """Per member of u, the indices of the members of v it meets.  Two
    open intervals are disjoint exactly when one ends at or before the
    other starts."""
    return [
        [j for j, b in enumerate(v.members) if not (a.hi <= b.lo or b.hi <= a.lo)]
        for a in u.members
    ]


def oracle_overlap(u: OpenFamily, v: OpenFamily) -> bool:
    """Vietoris opens intersect: no member on either side meets nothing."""
    return all(oracle_meet_rows(u, v)) and all(oracle_meet_rows(v, u))


def oracle_edges(system: FamilySystem) -> dict:
    """(i, j) -> index map for every ordered pair of distinct families in
    which each member of i meets exactly one member of j."""
    fams = system.families
    edges = {}
    for i, u in enumerate(fams):
        for j, v in enumerate(fams):
            rows = oracle_meet_rows(u, v)
            if i != j and all(len(row) == 1 for row in rows):
                edges[(i, j)] = tuple(row[0] for row in rows)
    return edges


def oracle_chains_agree(system: FamilySystem, max_len: int = 6):
    """Enumerate every unique-meet walk of at most max_len links and
    compare compositions pairwise per (start, end).  Trivial walks
    count, so a cycle composing to a non-identity map is a conflict.
    Returns (True, None) or (False, (start, end))."""
    n = len(system.families)
    size = system.arity
    out = {i: [] for i in range(n)}
    for (i, j), g in oracle_edges(system).items():
        out[i].append((j, g))
    ident = tuple(range(size))
    seen: dict = {}
    for start in range(n):
        stack = [(start, ident, 0)]
        while stack:
            at, comp, depth = stack.pop()
            key = (start, at)
            if key in seen and comp not in seen[key]:
                return False, key
            seen.setdefault(key, set()).add(comp)
            if depth == max_len:
                continue
            for nxt, g in out[at]:
                stack.append((nxt, tuple(g[x] for x in comp), depth + 1))
    return True, None


def oracle_unique_overlaps(system: FamilySystem) -> bool:
    """Condition 1 alone: ordered overlapping pairs meet uniquely."""
    fams = system.families
    edges = oracle_edges(system)
    return all(
        (i, j) in edges
        for i, u in enumerate(fams)
        for j, v in enumerate(fams)
        if i != j and oracle_overlap(u, v)
    )


def _oracle_labels(root: int, size: int, edges: dict, n: int):
    """Breadth-first transfer labels from root, neighbours in index
    order; (labels, first edge that disagrees or None)."""
    labels = {root: tuple(range(size))}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in range(n):
            if (u, v) not in edges:
                continue
            cand = tuple(edges[(u, v)][x] for x in labels[u])
            if v not in labels:
                labels[v] = cand
                queue.append(v)
            elif labels[v] != cand:
                return labels, (u, v)
    return labels, None


def oracle_niceness(system: FamilySystem):
    """(ok, witness) with the library's witness order: the first ordered
    pair, row by row, that overlaps without a unique meet; else the first
    root whose labeling conflicts, with the conflicting edge."""
    fams = system.families
    n = len(fams)
    edges = oracle_edges(system)
    for i in range(n):
        for j in range(n):
            if i != j and oracle_overlap(fams[i], fams[j]) and (i, j) not in edges:
                return False, ("overlap-without-unique-meet", i, j)
    for root in range(n):
        _, conflict = _oracle_labels(root, system.arity, edges, n)
        if conflict is not None:
            return False, ("transfer-conflict", root, conflict)
    return True, None


def oracle_components(system: FamilySystem) -> list:
    """Undirected components of the unique-meet graph by union-find,
    each sorted, ordered by least member."""
    n = len(system.families)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in oracle_edges(system):
        parent[find(i)] = find(j)
    comps: dict = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return sorted(comps.values())


def oracle_placement(fam: OpenFamily, pts: tuple):
    """Member i -> the one point of pts inside it, when every member
    holds exactly one point and every point is used; else None."""
    inside = [[p for p in pts if a.lo < p and p < a.hi] for a in fam.members]
    if any(len(x) != 1 for x in inside) or len({x[0] for x in inside}) != len(pts):
        return None
    return tuple(x[0] for x in inside)


def oracle_covered(system: FamilySystem) -> list:
    """The sampled arity-sized point tuples some family covers, in
    combination order."""
    m = system.arity
    if not 0 < m <= system.model.size:
        return []
    return [
        pts for pts in combinations(system.model.points, m)
        if any(oracle_placement(f, pts) is not None for f in system.families)
    ]


def oracle_build(system: FamilySystem, bases=None):
    """The built selection recomputed pairwise: ("not-nice", witness),
    ("non-bijective", None) or ("built", (values, uncovered, bases,
    components)) with the library's default bases."""
    ok, witness = oracle_niceness(system)
    if not ok:
        return "not-nice", witness
    fams = system.families
    m = system.arity
    edges = oracle_edges(system)
    comps = oracle_components(system)
    chosen = []
    target = {}
    for ci, comp in enumerate(comps):
        if bases is not None and ci in bases:
            base_f, base_m = bases[ci]
        else:
            base_f = min(comp, key=lambda i: [(a.lo, a.hi) for a in fams[i].members])
            base_m = 0
        chosen.append((base_f, base_m))
        labels, _ = _oracle_labels(base_f, m, edges, len(fams))
        for v in comp:
            if v not in labels or len(set(labels[v])) != m:
                return "non-bijective", None
            target[v] = labels[v][base_m]
    values = {}
    uncovered = []
    pool = combinations(system.model.points, m) if m <= system.model.size else ()
    for pts in pool:
        picks = set()
        for f, fam in enumerate(fams):
            placement = oracle_placement(fam, pts)
            if placement is not None:
                picks.add(placement[target[f]])
        assert len(picks) <= 1, "covering families disagree on a nice system"
        if picks:
            values[pts] = picks.pop()
        else:
            uncovered.append(pts)
    return "built", (values, tuple(uncovered), tuple(chosen), tuple(map(tuple, comps)))


# -- fixtures ---------------------------------------------------------------

def cyclic_pair_table(points: tuple) -> dict:
    """Rotational pair choices plus identity singletons on 3 points."""
    a, b, c = points
    return {
        frozenset({a}): a, frozenset({b}): b, frozenset({c}): c,
        frozenset({a, b}): b,
        frozenset({b, c}): c,
        frozenset({a, c}): a,
    }


def cyclic_model(triple_pick_index: int = 0) -> ModelSpace:
    """Three integer points with a cyclic pair selection, total up to 3."""
    pts = (Fraction(0), Fraction(1), Fraction(2))
    table = cyclic_pair_table(pts)
    table[frozenset(pts)] = pts[triple_pick_index]
    return model_space(pts, make_partial(GroundSet(pts), "upto", 3, table))


def flip_model() -> ModelSpace:
    """Two points closer than the refinement floor with opposing pair
    choices; no neighborhood family separates them."""
    eps = Fraction(1, 2**50)
    pts = (Fraction(0), eps, Fraction(1))
    table = {
        frozenset({pts[0]}): pts[0],
        frozenset({pts[1]}): pts[1],
        frozenset({pts[2]}): pts[2],
        frozenset({pts[0], pts[1]}): pts[0],
        frozenset({pts[0], pts[2]}): pts[0],
        frozenset({pts[1], pts[2]}): pts[2],
    }
    return model_space(pts, make_partial(GroundSet(pts), "upto", 2, table))


def conflict_system() -> FamilySystem:
    """Two-member families where a collapsing link disagrees with the
    direct bijective link, refuting chain agreement."""
    F = Fraction
    r = OpenFamily((interval(0, 1), interval(2, 3)))
    m = OpenFamily((interval(F(1, 2), F(5, 2)), interval(F(31, 10), F(17, 5))))
    v = OpenFamily((interval(F(1, 2), F(3, 2)), interval(F(5, 2), F(7, 2))))
    return FamilySystem((r, m, v), order_model([0, 1, 2, 3], 2, "min"))


def collapse_pair_system() -> FamilySystem:
    """Nice but with a non-bijective transfer out of the base family."""
    F = Fraction
    r = OpenFamily((interval(0, 1), interval(2, 3)))
    m = OpenFamily((interval(F(1, 2), F(5, 2)), interval(F(31, 10), F(17, 5))))
    return FamilySystem((r, m), order_model([0, 1, 2, 3], 2, "min"))


def random_system(rng: random.Random, n_families: int, size: int = 2) -> FamilySystem:
    """Random half-integer interval families over a shared span."""
    fams = []
    span = 4 * (size + 1)
    while len(fams) < n_families:
        cuts = sorted(rng.sample(range(0, span), 2 * size))
        members = tuple(
            interval(Fraction(cuts[2 * i], 2), Fraction(cuts[2 * i + 1], 2))
            for i in range(size)
        )
        fams.append(OpenFamily(members))
    return FamilySystem(tuple(fams), order_model([0, 1, 2, 3], 2, "min"))


def random_points(rng: random.Random, count: int) -> tuple:
    """Distinct rationals with denominators 1..4, sorted."""
    pts: set = set()
    while len(pts) < count:
        pts.add(Fraction(rng.randint(0, 6 * count), rng.randint(1, 4)))
    return tuple(sorted(pts))


def random_mixed_system(rng: random.Random) -> FamilySystem:
    """Random equal-size families over sample points k/97 plus one point
    2^-50 above another, mixing denominators 97, 200, 2 and 2^50.

    Families are drawn as neighborhoods of sample points at several
    radii (nested or coinciding members, sometimes listed out of order),
    as exact repeats of an earlier family, or as an earlier family with
    one member taken from another.  Two systems in three also draw
    earlier families with shifted endpoints (partial overlaps), cuts
    among an earlier family's endpoints and midpoints or a shared grid
    (touching endpoints, members spanning others), an earlier family
    with two neighbouring members recut at the second one's midpoint
    (an overlap without a unique meet), and an earlier family with two
    neighbouring members merged and a member added past the others (a
    collapsing link).
    """
    eps = Fraction(1, 2**50)
    pts = [Fraction(k, 97) for k in sorted(rng.sample(range(1, 300), 5))]
    pts = sorted(pts + [pts[rng.randrange(5)] + eps])
    size = rng.randint(1, 3)
    radii = (Fraction(1, 200), Fraction(1, 400), Fraction(1, 97), eps / 2, eps / 4)
    shifts = (0, eps, -eps, Fraction(1, 200), Fraction(-1, 200), Fraction(1, 97))
    grid = {Fraction(k, 2) for k in range(8)} | {p + d for p in pts for d in (-eps, 0, eps)}
    kinds = ["near", "copy", "swap"]
    if rng.random() < 2 / 3:
        kinds += ["shift", "grid", "grid", "recut", "merge"]
    count = rng.randint(2, 8)
    fams: list = []
    while len(fams) < count:
        kind = rng.choice(kinds) if fams else "near"
        old = [(u.lo, u.hi) for u in rng.choice(fams).members] if fams else []
        k = rng.randrange(size - 1) if size > 1 else 0
        ordered = sorted(old)
        if kind == "near":
            centers = rng.sample(pts, size)
            members = [(c - rng.choice(radii), c + rng.choice(radii)) for c in centers]
        elif kind == "shift":
            members = [(lo + rng.choice(shifts), hi + rng.choice(shifts)) for lo, hi in old]
        elif kind == "grid":
            pool = grid if rng.random() < 0.3 else set()
            ends = sorted(pool | {x for lo, hi in old for x in (lo, (lo + hi) / 2, hi)})
            cuts = sorted(rng.choice(ends) for _ in range(2 * size))
            members = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(size)]
        elif kind == "recut" and size > 1:
            (lo, _), (lo2, hi2) = ordered[k], ordered[k + 1]
            mid = (lo2 + hi2) / 2
            members = ordered[:k] + [(lo, mid), (mid, hi2)] + ordered[k + 2:]
        elif kind == "merge" and size > 1:
            end = ordered[-1][1]
            members = ordered[:k] + [(ordered[k][0], ordered[k + 1][1])] + ordered[k + 2:]
            members.append((end + Fraction(1, 97), end + Fraction(2, 97)))
        else:
            members = old
            if kind == "swap":
                donor = rng.choice(fams).members[rng.randrange(size)]
                members[rng.randrange(size)] = (donor.lo, donor.hi)
        try:
            fams.append(OpenFamily(tuple(interval(lo, hi) for lo, hi in members)))
        except ValueError:  # an empty or overlapping member: draw again
            continue
    return FamilySystem(tuple(fams), order_model(pts, 2, "min"))
