import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel import vietoris
from hypersel.chains import FamilySystem, derive_nice_family, regular_class_cover_check
from hypersel.errors import ArityNotInDomain, NotModelContinuous
from hypersel.extension import admissible_sizes, make_partial, order_partial, random_partial, restrict
from hypersel.structures import GroundSet, is_regular
from hypersel.vietoris import (
    RADIUS_FLOOR_SHIFT,
    IntervalOpen,
    ModelSpace,
    OpenFamily,
    check_continuity,
    family,
    find_preserving_neighborhoods,
    intersect_nonempty,
    interval,
    model_space,
    order_model,
)

from oracles import (
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
        with pytest.raises(ValueError):
            interval(1, 1)
        with pytest.raises(ValueError):
            interval(F(3, 2), F(1, 2))

    @settings(max_examples=80, deadline=None)
    @given(rationals, rationals, rationals)
    def test_contains_is_strict(self, a, b, x):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        u = interval(lo, hi)
        assert u.contains(x) == (lo < x < hi)
        assert not u.contains(lo) and not u.contains(hi)

    @settings(max_examples=80, deadline=None)
    @given(*(rationals,) * 4)
    def test_intersection_symmetric_and_exact(self, a, b, c, d):
        if a == b or c == d:
            return
        u = interval(min(a, b), max(a, b))
        v = interval(min(c, d), max(c, d))
        expected = max(u.lo, v.lo) < min(u.hi, v.hi)
        assert u.intersects(v) == v.intersects(u) == expected

    def test_family_requires_disjoint(self):
        with pytest.raises(ValueError):
            family((0, 2), (1, 3))

    def test_touching_endpoints_are_disjoint(self):
        fam = family((0, 1), (1, 2))
        assert fam.size == 2


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

    def test_arity_guard(self):
        model = order_model([0, 1, 2], 2, "min")
        fam = family((F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)), (F(3, 2), F(5, 2)))
        spans, _ = spans_of(model, fam.members)
        with pytest.raises(ArityNotInDomain):
            vietoris._preserved(model.selection, spans, (3,))


class TestPreservation:
    def test_min_model_preserves(self):
        model = order_model([0, 1, 2], 2, "min")
        spans, _ = spans_of(model, family((F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))).members)
        assert vietoris._preserved(model.selection, spans, (1, 2))

    def test_flip_pair_fails(self):
        # the member around 0 holds eps too; arity 1 holds, arity 2 fails
        model = flip_model()
        spans, _ = spans_of(model, family((-F(1, 2), F(1, 2)), (F(1, 2), F(3, 2))).members)
        assert spans == [range(0, 2), range(2, 3)]
        assert vietoris._preserved(model.selection, spans, (1,))
        assert not vietoris._preserved(model.selection, spans, (2,))


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
        fam = find_preserving_neighborhoods(model, (F(0), F(1)), (1, 2))
        for u in fam.members:
            assert sum(1 for p in model.points if u.contains(p)) == 1
        assert check_continuity(model).ok

    def test_flip_fixture_has_no_family(self):
        model = flip_model()
        with pytest.raises(NotModelContinuous):
            find_preserving_neighborhoods(model, (model.points[0], model.points[2]), (1, 2))

    def test_starting_radius_is_half_the_least_gap(self):
        # points 0, 1, 7/2, 4: a singleton starts at half the gap to its
        # nearest sample point, on either side; a set at half its own
        # least gap.  Every arity-1 family preserves at once.
        model = order_model([0, 1, F(7, 2), 4], 2, "min")
        for pts, r in (((F(0),), F(1, 2)), ((F(1),), F(1, 2)), ((F(7, 2),), F(1, 4)),
                       ((F(4),), F(1, 4)), ((F(0), F(7, 2)), F(7, 4))):
            fam = find_preserving_neighborhoods(model, pts, (1,))
            assert fam == OpenFamily(tuple(IntervalOpen(p - r, p + r) for p in pts))
        lone = order_model([3], 1, "min")
        assert find_preserving_neighborhoods(lone, (F(3),), (1,)).members == (interval(2, 4),)

    def test_points_must_ascend(self):
        pts = (F(1), F(0))
        with pytest.raises(ValueError, match="^points must be distinct and sorted ascending$"):
            ModelSpace(pts, order_partial(GroundSet(pts), 1, "min"))
        with pytest.raises(ValueError, match="^points must be distinct and sorted ascending$"):
            ModelSpace((F(0), F(0)), order_model([0], 1, "min").selection)

    def test_unknown_point_rejected(self):
        model = order_model([0, 1], 2, "min")
        with pytest.raises(ValueError):
            find_preserving_neighborhoods(model, (F(1, 2),), (1,))


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


class TestIntersectNonempty:
    def test_nested_overlap(self):
        u = family((0, 1), (2, 3))
        v = family((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)))
        assert intersect_nonempty(u, v)

    def test_isolated_member_blocks(self):
        u = family((0, 1), (10, 11))
        v = family((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)))
        assert not intersect_nonempty(u, v)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_grid_oracle(self, seed):
        rng = random.Random(seed)
        u = random_family(rng, rng.randint(1, 3))
        v = random_family(rng, rng.randint(1, 3))
        assert intersect_nonempty(u, v) == oracle_intersect(u, v)
        assert intersect_nonempty(u, v) == intersect_nonempty(v, u)


# -- agreement with the Fraction descent ------------------------------------

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


def outcome(call):
    try:
        return call()
    except (ValueError, NotModelContinuous, ArityNotInDomain) as exc:
        return type(exc), str(exc)


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
                    find_preserving_neighborhoods(model, pts, (size,))
                    found = True
                except NotModelContinuous:
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

    def test_one_preservation_test_per_subset(self, monkeypatch):
        # flip fixture 0, eps, 1: the singletons and (0, eps) pass, and
        # (0, 1) is the witness, its floor member around 0 holding eps
        model = flip_model()
        calls = []
        preserved = vietoris._preserved
        monkeypatch.setattr(vietoris, "_preserved", lambda *a: calls.append(a) or preserved(*a))
        monkeypatch.setattr(vietoris, "find_preserving_neighborhoods", None)
        assert check_continuity(model).witness == (F(0), F(1))
        assert [(spans, arities) for _, spans, arities in calls] == [
            ([range(0, 1)], (1,)), ([range(1, 2)], (1,)), ([range(2, 3)], (1,)),
            ([range(0, 1), range(1, 2)], (2,)), ([range(0, 2), range(2, 3)], (2,))]


class TestDescentAgreement:
    @pytest.mark.parametrize("seed", range(40))
    def test_check_continuity(self, seed):
        model = mixed_model(seed)
        verdict = check_continuity(model)
        assert (verdict.ok, verdict.witness) == oracle_continuity(model)

    @pytest.mark.parametrize("seed", range(40))
    def test_neighborhoods(self, seed):
        model = mixed_model(seed)
        rng = random.Random(seed)
        for size in range(1, min(4, model.size) + 1):
            for pts in combinations(model.points, size):
                arities = rng.choice(((size,), (1, 2), (1, 2, 3), range(1, size + 1)))
                got = outcome(lambda: find_preserving_neighborhoods(model, pts, arities))
                want = outcome(lambda: oracle_neighborhoods(model, pts, arities))
                assert got == want, (pts, arities)

    def test_neighborhood_errors(self):
        model = mixed_model(0)
        p = model.points[0]
        for pts in ((), (p, p), (p, F(1, 3)), (F(1000),)):
            got = outcome(lambda: find_preserving_neighborhoods(model, pts, (1,)))
            assert got == outcome(lambda: oracle_neighborhoods(model, pts, (1,)))
            assert got[0] is ValueError

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
                    assert [p for p in pts if u.contains(p)] == [(u.lo + u.hi) / 2]
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
        sizes = [i for i in (1, 2, 3) if sel.admits(i)]

        def verdict(call):
            try:
                v = call()
                return v[0] if type(v) is tuple else v
            except ArityNotInDomain as exc:
                return type(exc), str(exc)

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
            for n in (1, 2, 3):
                want = verdict(lambda: oracle_preserves(model, fam, n))
                assert verdict(lambda: vietoris._preserved(sel, spans, (n,))) == want
            # the admitted arities up to the family size in turn
            arities = [i for i in sizes if i <= k]
            want = all(oracle_preserves(model, fam, i)[0] for i in arities)
            assert vietoris._preserved(sel, spans, arities) == want
            if sel.admits(k):
                r = vietoris._receiver(sel.levels[k], spans)
                for j, u in enumerate(members):
                    assert oracle_arrows_to(model, fam.members, u) == (r is not None and order[r] == j)
        assert checked

    def test_skip_tests_fewer_radii(self, monkeypatch):
        # on the flip fixture every radius holds {0, eps} and {1}: the
        # descent tries all 41 radii, the search tests the first alone
        import oracles

        model = flip_model()
        tested, visited = [], []
        receiver, preserves = vietoris._receiver, oracles.oracle_preserves
        monkeypatch.setattr(vietoris, "_receiver", lambda *a: tested.append(a) or receiver(*a))
        monkeypatch.setattr(oracles, "oracle_preserves", lambda *a: visited.append(a) or preserves(*a))
        pair = (model.points[0], model.points[2])
        for search in (find_preserving_neighborhoods, oracle_neighborhoods):
            with pytest.raises(NotModelContinuous):
                search(model, pair, (2,))
        assert len(visited) == RADIUS_FLOOR_SHIFT + 1 == 41
        assert len(tested) == 1
