import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel import structures, vietoris
from hypersel.chains import FamilySystem, derive_nice_family, regular_class_cover_check
from hypersel.documents import read_family
from hypersel.errors import InvalidModel, OutOfRange
from hypersel.extension import (
    PartialSelection,
    admissible_sizes,
    extend_selection,
    make_partial,
    order_partial,
    random_partial,
    restrict,
)
from hypersel.structures import GroundSet, SelectionStructure, is_regular
from hypersel.vietoris import (
    RADIUS_FLOOR_SHIFT,
    IntervalOpen,
    ModelSpace,
    OpenFamily,
    check_continuity,
    family,
    interval,
    member_hits,
    model_space,
    order_model,
    overlaps,
)

from generators import lifted_models
from oracles import (
    NoNeighborhoods,
    flip_model,
    oracle_arrows_to,
    oracle_continuity,
    oracle_intersect,
    oracle_neighborhoods,
    oracle_points_in,
    oracle_preserves,
    oracle_vietoris_contains,
    random_points,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)


def random_family(rng, size):
    cuts = sorted(rng.sample(range(0, 8 * size), 2 * size))
    return OpenFamily(
        tuple(
            interval(F(cuts[2 * i], 2), F(cuts[2 * i + 1], 2))
            for i in range(size)
        )
    )


def hits(u, v):
    """member_hits of the families u and v on their endpoint pairs."""
    return member_hits([(a.lo, a.hi) for a in u.members], [(b.lo, b.hi) for b in v.members])


def spans_of(model, members):
    """(spans, order): the members' sample point index ranges, read off
    the oracle's scan and sorted ascending as the kernels take them, and
    order[k], the member holding spans[k]."""
    ranges = []
    for u in members:
        idx = [model.points.index(p) for p in oracle_points_in(model, u)]
        ranges.append(range(idx[0], idx[-1] + 1) if idx else range(0))
    order = sorted(range(len(ranges)), key=lambda j: ranges[j].start)
    return [ranges[j] for j in order], order


class TestIntervals:
    def test_degenerate_rejected(self):
        with pytest.raises(InvalidModel, match=r"^empty interval \(1, 1\)$"):
            interval(1, 1)
        with pytest.raises(InvalidModel, match=r"^empty interval \(3/2, 1/2\)$"):
            interval(F(3, 2), F(1, 2))

    @settings(max_examples=80, deadline=None)
    @given(rationals, rationals, rationals)
    def test_contains_is_strict(self, a, b, x):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)

        def inside(p):
            return vietoris._below(lo, p) and vietoris._below(p, hi)

        assert inside(x) == (lo < x < hi)
        assert not inside(lo) and not inside(hi)

    @settings(max_examples=80, deadline=None)
    @given(*(rationals,) * 4)
    def test_intersection_symmetric_and_exact(self, a, b, c, d):
        if a == b or c == d:
            return
        u = (min(a, b), max(a, b))
        v = (min(c, d), max(c, d))
        expected = max(u[0], v[0]) < min(u[1], v[1])
        assert member_hits([u], [v]) == member_hits([v], [u]) == [[0] if expected else []]

    def test_family_requires_disjoint(self):
        with pytest.raises(InvalidModel, match="^family members overlap: "):
            family((0, 2), (1, 3))

    def test_touching_endpoints_are_disjoint(self):
        fam = family((0, 1), (1, 2))
        assert fam.size == 2


# small steps on denominators 1..4, so that neighbours often touch
steps = st.fractions(min_value=0, max_value=2, max_denominator=4)


@st.composite
def member_lists(draw):
    """Opens laid out left to right with gaps of zero (touching) or more,
    then maybe one stretched over its right neighbours, then listed in
    that order, reversed or shuffled."""
    lo = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
    members = []
    for _ in range(draw(st.integers(0, 5))):
        lo += draw(steps)
        hi = lo + draw(steps.filter(bool))
        members.append([lo, hi])
        lo = hi
    if members and draw(st.booleans()):
        draw(st.sampled_from(members))[1] += draw(steps.filter(bool))
    members = [interval(lo, hi) for lo, hi in members]
    order = draw(st.sampled_from(["as laid out", "reversed", "shuffled"]))
    if order == "reversed":
        members.reverse()
    elif order == "shuffled":
        members = draw(st.permutations(members))
    return members


def spell_endpoint(q, k: int) -> str:
    """q as k p / k q, or as a bare integer when q is one and k is 1."""
    if q.denominator == 1 and k == 1:
        return str(q.numerator)
    return f"{q.numerator * k}/{q.denominator * k}"


class TestFamilyOrder:
    """OpenFamily checks member order on integers; it must accept exactly
    the lists whose members are pairwise disjoint as Fraction intervals,
    and otherwise name the first overlapping pair in combinations order."""

    @staticmethod
    def outcome(build):
        try:
            return "ok", build().members
        except InvalidModel as exc:
            return "error", str(exc)

    @staticmethod
    def expected(members):
        clash = next(((a, b) for a, b in combinations(members, 2) if a.lo < b.hi and b.lo < a.hi), None)
        if clash is None:
            return "ok", tuple(members)
        return "error", f"family members overlap: {clash[0]} and {clash[1]}"

    @settings(max_examples=400, deadline=None)
    @given(member_lists(), st.lists(st.sampled_from([1, 1, 2, 3]), min_size=10, max_size=10))
    def test_agrees_with_pairwise_intersects(self, members, ks):
        want = self.expected(members)
        assert self.outcome(lambda: OpenFamily(tuple(members))) == want
        # the same members read from a document, each endpoint spelled
        # as p/q, 2p/2q, 3p/3q or a bare integer
        doc = {"intervals": [{"lo": spell_endpoint(u.lo, ks[2 * i]),
                              "hi": spell_endpoint(u.hi, ks[2 * i + 1])}
                             for i, u in enumerate(members)]}
        assert self.outcome(lambda: read_family(doc)) == want

    @pytest.mark.parametrize("bounds, clash", [
        (((0, 1), (1, 2), (2, 3)), None),  # touching, ascending
        (((2, 3), (1, 2), (0, 1)), None),  # touching, descending
        (((F(1, 2), 1), (0, F(1, 2))), None),  # touching, out of order
        (((0, 2), (1, 3)), (0, 1)),
        (((4, 5), (0, 2), (1, 3), (F(9, 2), 6)), (0, 3)),  # (0, 3) before (1, 2)
        (((5, 6), (0, 1), (F(1, 2), 2)), (1, 2)),
    ])
    def test_fixed_cases(self, bounds, clash):
        members = [interval(lo, hi) for lo, hi in bounds]
        got = self.outcome(lambda: family(*bounds))
        assert got == self.expected(members)
        assert got[0] == ("ok" if clash is None else "error")
        if clash is not None:
            a, b = (members[j] for j in clash)
            assert got[1] == f"family members overlap: {a} and {b}"

    def test_equal_values_spelled_apart_touch(self):
        doc = {"intervals": [{"lo": "0", "hi": "1/2"}, {"lo": "2/4", "hi": "3/3"}]}
        assert read_family(doc) == family((0, F(1, 2)), (F(1, 2), 1))
        doc["intervals"].reverse()
        assert read_family(doc) == family((F(1, 2), 1), (0, F(1, 2)))
        doc["intervals"][0]["lo"] = "3/7"
        with pytest.raises(InvalidModel, match=r"^family members overlap: "):
            read_family(doc)


class TestVietorisMembership:
    def test_requires_hit_every_member(self):
        fam = family((0, 1), (2, 3))
        assert oracle_vietoris_contains(fam, (F(1, 2), F(5, 2)))
        assert not oracle_vietoris_contains(fam, (F(1, 2),))

    def test_requires_inside_union(self):
        fam = family((0, 1), (2, 3))
        assert not oracle_vietoris_contains(fam, (F(1, 2), F(5, 2), F(7, 2)))


class TestArrows:
    def test_worked_example(self):
        # both transversals, {1/4, 9/4} and {1/2, 9/4}, pick in member 0
        model = order_model([F(1, 4), F(1, 2), F(9, 4)], 2, "min")
        spans, order = spans_of(model, family((0, 1), (2, 3)).members)
        assert spans == [range(0, 2), range(2, 3)]
        assert order[vietoris._receiver(model.selection.levels[2], spans)] == 0


class TestNeighborhoods:
    def test_radii_shrink_to_exclude_outsiders(self):
        # picks at {0,1} and {1/8,1} disagree, so the neighborhood of 0
        # must shrink below 1/8 before preservation holds
        from hypersel.extension import make_partial
        from hypersel.structures import GroundSet

        pts = (F(0), F(1, 8), F(1))
        table = {
            frozenset({pts[0]}): pts[0],
            frozenset({pts[1]}): pts[1],
            frozenset({pts[2]}): pts[2],
            frozenset({pts[0], pts[1]}): pts[0],
            frozenset({pts[0], pts[2]}): pts[0],
            frozenset({pts[1], pts[2]}): pts[2],
        }
        model = model_space(pts, make_partial(GroundSet(pts), "upto", 2, table))
        fam = oracle_neighborhoods(model, (F(0), F(1)), (1, 2))
        for u in fam.members:
            assert sum(1 for p in model.points if u.lo < p < u.hi) == 1
        assert check_continuity(model).ok

    def test_points_must_ascend(self):
        pts = (F(1), F(0))
        with pytest.raises(InvalidModel, match="^points must be distinct and sorted ascending$"):
            ModelSpace(pts, order_partial(GroundSet(pts), 1, "min"))
        with pytest.raises(InvalidModel, match="^points must be distinct and sorted ascending$"):
            ModelSpace((F(0), F(0)), order_model([0], 1, "min").selection)

class TestContinuity:
    @pytest.mark.parametrize("rule", ["min", "max"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_order_models_continuous(self, rule, size):
        model = order_model(range(size), size, rule)
        assert check_continuity(model).ok

    def test_order_model_rational_points(self):
        pts = random_points(random.Random(5), 5)
        model = order_model(pts, 3, "min")
        assert check_continuity(model).ok

    def test_flip_fixture_refuted_with_witness(self):
        verdict = check_continuity(flip_model())
        assert not verdict.ok
        assert verdict.witness == (F(0), F(1))

    @pytest.mark.parametrize("bound", [0, 2])
    def test_order_model_rejects_an_unknown_rule(self, bound):
        with pytest.raises(OutOfRange, match="^rule must be 'min' or 'max', got 'mid'$"):
            order_model(range(3), bound, "mid")

    def test_large_top_level_table_built_once(self, monkeypatch):
        # 15 points, the last two 2^-50 apart: each of the 1,716
        # 5-subsets meeting the twins is tested on the top level, whose
        # table (C(15, 5) * 5 cells) is too large to keep and is built
        # once, with the level
        built, tested = [], []
        real_ranks, real_receiver = structures.subset_ranks, vietoris._receiver

        def ranks(m, n):
            built.append((m, n))
            return real_ranks(m, n)

        def receiver(level, spans):
            tested.append(level.n)
            return real_receiver(level, spans)

        for module in (structures, vietoris):
            monkeypatch.setattr(module, "subset_ranks", ranks, raising=False)
        monkeypatch.setattr(vietoris, "_receiver", receiver)
        assert math.comb(15, 5) * 5 * 15 > structures._KEPT_WEIGHT
        model = order_model(list(range(14)) + [13 + F(1, 2**50)], 5, "min")
        assert check_continuity(model).ok
        assert tested.count(5) == math.comb(15, 5) - math.comb(13, 5)
        assert built.count((15, 5)) == 1


class TestIntersectNonempty:
    """overlaps(member_hits(...)) decides whether two Vietoris opens
    intersect, as MeetGraph.row reads it."""

    def test_nested_overlap(self):
        u = family((0, 1), (2, 3))
        v = family((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)))
        assert overlaps(hits(u, v), v.size)

    def test_isolated_member_blocks(self):
        u = family((0, 1), (10, 11))
        v = family((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)))
        assert not overlaps(hits(u, v), v.size)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_grid_oracle(self, seed):
        rng = random.Random(seed)
        u = random_family(rng, rng.randint(1, 3))
        v = random_family(rng, rng.randint(1, 3))
        assert overlaps(hits(u, v), v.size) == oracle_intersect(u, v)
        assert overlaps(hits(u, v), v.size) == overlaps(hits(v, u), u.size)


# -- agreement with the Fraction oracles ------------------------------------

EPS = F(1, 2**50)


def mixed_model(seed):
    """A seeded model on 3 to 7 points with denominators 1, 2, 97 and
    2^50, one point 2^-50 above another (as in the benchmark's near
    models), random choices in mode upto or exact, and in one model of
    two the flip fixture's opposing pair choices against a third point.
    Choices follow the order (min or max) or are drawn at random."""
    rng = random.Random(seed)
    count = rng.randint(3, 7)
    pts: set = set()
    while len(pts) < count - 1:
        pts.add(F(rng.randint(0, 60), rng.choice((1, 2, 97))) + rng.choice((0, 0, rng.randint(1, 9) * EPS)))
    a = rng.choice(sorted(pts))
    pts = sorted(pts | {a + EPS})
    count = len(pts)
    mode = rng.choice(("upto", "upto", "exact"))
    bound = rng.choice((1, 2, 2, 3, 3))
    sizes = admissible_sizes(mode, bound)
    rule = rng.choice((min, max, rng.choice, rng.choice))
    table = {frozenset(s): rule(s) for k in sizes for s in combinations(pts, k)}
    if 2 in sizes and rng.random() < 0.5:
        c = rng.choice([p for p in pts if p not in (a, a + EPS)])
        table[frozenset({a, c})] = a
        table[frozenset({a + EPS, c})] = c
    return model_space(pts, make_partial(GroundSet(tuple(pts)), mode, bound, table))


def near_twin_model(seed):
    """Spread points plus one inserted 2^-50 from a neighbour whose pair
    choice against a third point is the opposite one (the benchmark's
    near models): no floor radius separates the twins."""
    rng = random.Random(seed)
    pts = sorted({F(rng.randint(0, 90), rng.choice((1, 2, 7))) for _ in range(rng.randint(3, 6))})
    a = rng.choice(pts)
    c = rng.choice([p for p in pts if p != a])
    pts = sorted(pts + [a + EPS])
    bound = rng.choice((2, 3))
    table = {frozenset(s): rng.choice(s) for k in range(1, bound + 1) for s in combinations(pts, k)}
    table[frozenset({a, c})] = a
    table[frozenset({a + EPS, c})] = c
    return model_space(pts, make_partial(GroundSet(tuple(pts)), "upto", bound, table))


def twin_free_model(seed):
    """A seeded model on 4 to 8 points with denominators 1, 2, 3 and 7
    and random choices up to 2 or 3: on the integer grid its span is
    at most 2,520, far below 2^41, so no adjacent gap is twinned."""
    rng = random.Random(seed)
    grid = sorted({F(k, d) for k in range(61) for d in (1, 2, 3, 7)})
    pts = sorted(rng.sample(grid, rng.randint(4, 8)))
    return model_space(pts, random_partial(GroundSet(tuple(pts)), rng.choice((2, 3)), rng))


def floor_family(model, pts):
    """Members around pts at the starting radius over 2^40, the radius
    worked out on the Fractions as the oracle search does."""
    near = pts
    if len(pts) == 1:
        i = model.points.index(pts[0])
        near = model.points[max(i - 1, 0):i + 2]
    r = min((b - a for a, b in zip(near, near[1:])), default=F(2)) / 2 ** (RADIUS_FLOOR_SHIFT + 1)
    return OpenFamily(tuple(IntervalOpen(p - r, p + r) for p in pts))


class TestFloorRule:
    """Preservation only gets easier as the radius shrinks, so a domain
    subset has preserving neighborhoods iff its floor members preserve."""

    def agrees(self, model):
        for size in model.selection.admissible_sizes():
            for pts in combinations(model.points, size):
                floor = oracle_preserves(model, floor_family(model, pts), size)[0]
                try:
                    oracle_neighborhoods(model, pts, (size,))
                    found = True
                except NoNeighborhoods:
                    found = False
                assert floor == found, pts
        verdict = check_continuity(model)
        assert (verdict.ok, verdict.witness) == oracle_continuity(model)
        return verdict.ok

    @pytest.mark.parametrize("seed", range(40))
    def test_mixed_models(self, seed):
        self.agrees(mixed_model(seed))

    def test_near_twin_models(self):
        refuted = [seed for seed in range(100) if not self.agrees(near_twin_model(seed))]
        assert len(refuted) == 100

    def test_twin_inside_the_floor_radius(self):
        # flip choices on 0, d, 1: the pair (0, 1) starts at radius 1/2,
        # so its floor 2^-41 = 4 / 2^43 holds the twin d below 4 / 2^43
        for j in range(1, 17):
            d = F(j, 2**43)
            pts = (F(0), d, F(1))
            table = {frozenset(s): s[0] for k in (1, 2) for s in combinations(pts, k)}
            table[frozenset({d, F(1)})] = F(1)
            model = model_space(pts, make_partial(GroundSet(pts), "upto", 2, table))
            verdict = check_continuity(model)
            assert (verdict.ok, verdict.witness) == oracle_continuity(model)
            assert verdict.ok == (j >= 4)

    def test_right_twin_alone(self):
        # on 0, 2^41, 2^41 + 1 both twins are twinned: the pair (0, 2^41)
        # has floor half-width 1 and its members hold one point each,
        # while (0, 2^41 + 1) has half-width 2, and its member around
        # 2^41 + 1 holds 2^41, whose pair against 0 picks it
        pts = (F(0), F(2**41), F(2**41 + 1))
        table = {frozenset(s): s[-1] for k in (1, 2) for s in combinations(pts, k)}
        table[frozenset({pts[0], pts[2]})] = pts[0]
        model = model_space(pts, make_partial(GroundSet(pts), "upto", 2, table))
        verdict = check_continuity(model)
        assert (verdict.ok, verdict.witness) == oracle_continuity(model) == (False, (pts[0], pts[2]))

    def spy(self, monkeypatch):
        """The list that collects check_continuity's _receiver calls."""
        calls = []
        receiver = vietoris._receiver
        monkeypatch.setattr(vietoris, "_receiver", lambda *a: calls.append(a) or receiver(*a))
        return calls

    def test_one_preservation_test_per_subset(self, monkeypatch):
        # flip fixture 0, eps, 1: one test per subset that meets the
        # twinned set {0, eps} and has two or more points; (0, eps)
        # passes, and (0, 1) is the witness, its floor member around 0
        # holding eps
        calls = self.spy(monkeypatch)
        assert check_continuity(flip_model()).witness == (F(0), F(1))
        assert [(level.n, spans) for level, spans in calls] == [
            (2, [range(0, 1), range(1, 2)]), (2, [range(0, 2), range(2, 3)])]

    @pytest.mark.parametrize("seed", range(20))
    def test_twin_free_models_pass_untested(self, monkeypatch, seed):
        model = twin_free_model(seed)
        assert (True, None) == oracle_continuity(model)
        calls = self.spy(monkeypatch)
        verdict = check_continuity(model)
        assert (verdict.ok, verdict.witness, calls) == (True, None, [])

    @pytest.mark.parametrize("bound", [0, 1])
    def test_no_pair_level_never_reads_the_grid(self, monkeypatch, bound):
        # flip fixture's points: twinned, but no subset of two or more
        # points is in the domain
        monkeypatch.setattr(ModelSpace, "grid", property(lambda _: pytest.fail("grid read")))
        pts = flip_model().points
        model = ModelSpace(pts, order_partial(GroundSet(pts), bound, "min"))
        assert check_continuity(model) == vietoris.PASS


class TestLiftedModels:
    """Continuous models with near twins, lifted from a selection on
    clusters (see tests/generators.py)."""

    @settings(max_examples=100, deadline=None)
    @given(lifted_models())
    def test_lifted_models_are_continuous(self, lifted):
        model, _ = lifted
        verdict = check_continuity(model)
        assert (verdict.ok, verdict.witness) == oracle_continuity(model) == (True, None)

    @settings(max_examples=100, deadline=None)
    @given(lifted_models(), st.data())
    def test_a_flipped_constrained_subset_is_refuted(self, lifted, data):
        model, constrained = lifted
        s = data.draw(st.sampled_from(constrained))
        sel = model.selection
        table = {frozenset(t): sel.choose(t) for k in sel.admissible_sizes() for t in combinations(model.points, k)}
        table[frozenset(s)] = data.draw(st.sampled_from([p for p in s if p != table[frozenset(s)]]))
        flipped = model_space(model.points, make_partial(sel.carrier, "upto", sel.bound, table))
        verdict = check_continuity(flipped)
        assert (verdict.ok, verdict.witness) == oracle_continuity(flipped)
        assert not verdict.ok


# (k, m, p): an up-to-k lifted model on m clusters, extended to its
# m-subsets at the prime p
EXTENSION_SETTINGS = [(2, 4, 2), (3, 4, 2), (3, 6, 2), (3, 6, 3), (4, 8, 2)]


def assert_extension_preserves_continuity(model, m, p):
    """Theorem 1's construction preserves continuity: on a continuous
    lifted model on m clusters, h = extend_selection(f, m, p) passes
    check_continuity, and h with one pick flipped is refuted.

    Why it must hold under the floor rule.  Let s be an m-subset with
    least gap g, and t a transversal of s's floor members.  Every
    p-subset u of s has least gap at least g, and so does s's least
    small level class Q, so their floor members are at least as wide
    as s's, and t restricted to u's positions is a transversal of u's
    floor members.  f is continuous at u, so t scores like s, position
    by position, and Q sits at the same positions in both.  f is
    continuous at Q, so it picks at the same position in t's copy of Q
    as in s's, and h picks at the same position in t as in s.

    The control.  Clusters split at gaps of at least 1/4: centres lie
    at least 3/8 apart and twins at most 2^-47.  The first m-subset
    with one point per cluster that holds a twin has, around that twin,
    a floor member holding the other twin too, so swapping the two gives
    a transversal on which h keeps the old pick's position.  Flipping
    the subset's pick to another of its points therefore breaks
    continuity at it.  With fewer than m clusters every m-subset holds
    a whole twin pair, no floor member holds a second point, and the
    control would be vacuous.
    """
    points = model.points
    clusters = [[points[0]]]
    for a, b in zip(points, points[1:]):
        if b - a >= F(1, 4):
            clusters.append([])
        clusters[-1].append(b)
    assert len(clusters) >= m
    h = extend_selection(model.selection, m, p)
    assert check_continuity(ModelSpace(points, h)).ok

    cluster_of = {x: k for k, c in enumerate(clusters) for x in c}
    twins = {x for c in clusters if len(c) > 1 for x in c}
    s = next(s for s in combinations(points, m)
             if len({cluster_of[x] for x in s}) == m and twins.intersection(s))
    level = h.levels[m]
    idx = tuple(map(h.carrier.index, s))
    picks = list(level.picks)
    rank = level.table[1][idx]
    picks[rank] = next(i for i in idx if i != picks[rank])
    flipped = PartialSelection(h.carrier, h.mode, m, {m: SelectionStructure(h.carrier, m, tuple(picks))})
    assert not check_continuity(ModelSpace(points, flipped)).ok


def extension_property(k, m, p, **config):
    """assert_extension_preserves_continuity on 25 lifted models drawn
    with exactly m clusters and bound k, as one runnable hypothesis test;
    config adds settings (derandomize, for the acceptance gate)."""

    @settings(max_examples=25, deadline=None, **config)
    @given(lifted_models(clusters=st.just(m), bounds=st.just(k)))
    def run(lifted):
        assert_extension_preserves_continuity(lifted[0], m, p)

    return run


class TestExtensionPreservesContinuity:
    @pytest.mark.parametrize("k, m, p", EXTENSION_SETTINGS)
    def test_extension_of_a_lifted_model_is_continuous(self, k, m, p):
        extension_property(k, m, p)()


class TestDescentAgreement:
    @pytest.mark.parametrize("seed", range(40))
    def test_check_continuity(self, seed):
        model = mixed_model(seed)
        verdict = check_continuity(model)
        assert (verdict.ok, verdict.witness) == oracle_continuity(model)

    @pytest.mark.parametrize("seed", range(30))
    def test_derived_families(self, seed):
        # the reference searches neighborhoods around every regular
        # triple, radius capped at half the least gap, drops repeats,
        # and decides regularity on the restricted pair structure
        rng = random.Random(seed)
        pts = sorted(mixed_model(seed).points + tuple(F(k, 2) for k in rng.sample(range(200, 260), 3)))
        model = model_space(pts, random_partial(GroundSet(tuple(pts)), 3, rng))
        cap = min(b - a for a, b in zip(model.points, model.points[1:])) / 2
        arities = [i for i in range(1, 4) if model.selection.admits(i)]
        want = []
        for s in combinations(model.points, 3):
            if is_regular(restrict(model.selection, s, 2)):
                fam = oracle_neighborhoods(model, s, arities, cap)
                if fam not in want:
                    want.append(fam)
        system = derive_nice_family(model, 2)
        assert system.families == tuple(want)
        assert regular_class_cover_check(system, 2).ok
        if want:  # the cover check names the regular triple left without a family
            verdict = regular_class_cover_check(FamilySystem(tuple(want[1:]), model), 2)
            assert verdict.witness == tuple((u.lo + u.hi) / 2 for u in want[0].members)

    def test_derived_members_hold_their_centre_alone(self):
        members = 0
        for seed in range(30):
            pts = mixed_model(seed).points
            model = model_space(pts, random_partial(GroundSet(pts), 3, random.Random(seed)))
            for fam in derive_nice_family(model, 2).families:
                for u in fam.members:
                    assert [p for p in pts if u.lo < p < u.hi] == [(u.lo + u.hi) / 2]
                    members += 1
        assert members > 0

    @pytest.mark.parametrize("seed", range(30))
    def test_arrows_and_preservation(self, seed):
        # members end at sample points, 2^-51 or 1/194 beside them, in
        # any order; a family with a member holding no point has no
        # transversal, and the kernels never see one
        model = mixed_model(seed)
        sel = model.selection
        rng = random.Random(seed)
        ends = sorted({p + e for p in model.points for e in (0, EPS / 2, -EPS / 2, F(1, 194), F(-1, 194))})
        checked = 0
        for _ in range(40):
            k = rng.randint(1, 3)
            cuts = sorted(rng.sample(ends, 2 * k))
            members = [interval(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
            rng.shuffle(members)
            fam = OpenFamily(tuple(members))
            spans, order = spans_of(model, members)
            if not all(spans):
                continue
            checked += 1
            if sel.admits(k):
                r = vietoris._receiver(sel.levels[k], spans)
                assert oracle_preserves(model, fam, k)[0] == (r is not None)
                for j, u in enumerate(members):
                    assert oracle_arrows_to(model, fam.members, u) == (r is not None and order[r] == j)
        assert checked
