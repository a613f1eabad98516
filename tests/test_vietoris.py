import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel.errors import (
    ArityNotInDomain,
    NoTransversal,
    NotAMember,
    NotModelContinuous,
)
from hypersel.vietoris import (
    IntervalOpen,
    OpenFamily,
    arrows_to,
    check_continuity,
    family,
    find_preserving_neighborhoods,
    intersect_nonempty,
    interval,
    model_space,
    order_model,
    preserves_relations,
    vietoris_contains,
)

from oracles import flip_model, oracle_intersect, random_points

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)


def random_family(rng, size):
    cuts = sorted(rng.sample(range(0, 8 * size), 2 * size))
    return OpenFamily(
        tuple(
            interval(F(cuts[2 * i], 2), F(cuts[2 * i + 1], 2))
            for i in range(size)
        )
    )


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
        assert vietoris_contains(fam, (F(1, 2), F(5, 2)))
        assert not vietoris_contains(fam, (F(1, 2),))

    def test_requires_inside_union(self):
        fam = family((0, 1), (2, 3))
        assert not vietoris_contains(fam, (F(1, 2), F(5, 2), F(7, 2)))


class TestArrows:
    def test_worked_example(self):
        model = order_model([F(1, 4), F(1, 2), F(9, 4)], 2, "min")
        fam = family((0, 1), (2, 3))
        assert arrows_to(model, fam, fam.members[0])
        assert not arrows_to(model, fam, fam.members[1])

    def test_target_must_be_member(self):
        model = order_model([F(1, 4), F(1, 2), F(9, 4)], 2, "min")
        fam = family((0, 1), (2, 3))
        with pytest.raises(NotAMember):
            arrows_to(model, fam, interval(5, 6))

    def test_empty_member_raises(self):
        model = order_model([F(1, 4), F(1, 2)], 2, "min")
        fam = family((0, 1), (2, 3))
        with pytest.raises(NoTransversal):
            arrows_to(model, fam, fam.members[0])

    def test_arity_guard(self):
        model = order_model([0, 1, 2], 2, "min")
        fam = family((F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)), (F(3, 2), F(5, 2)))
        with pytest.raises(ArityNotInDomain):
            preserves_relations(model, fam, 3)


class TestPreservation:
    def test_min_model_preserves(self):
        model = order_model([0, 1, 2], 2, "min")
        fam = family((F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)))
        assert preserves_relations(model, fam).ok

    def test_flip_pair_fails(self):
        model = flip_model()
        eps = model.points[1]
        fam = family((-F(1, 2), F(1, 2)), (F(1, 2), F(3, 2)))
        verdict = preserves_relations(model, fam, 2)
        assert not verdict.ok
        assert verdict.witness[0] == 2


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
