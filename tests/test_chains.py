import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from hypersel import chains
from hypersel.chains import (
    FamilySystem,
    build_selection_from_nice,
    chain_classes,
    derive_nice_family,
    is_nice,
    regular_class_cover_check,
)
from hypersel.cli import _cover_diagnostics
from hypersel.documents import label_str
from hypersel.errors import (
    ArityNotInDomain,
    BrokenInvariant,
    HypothesisViolated,
    NonBijectiveTransfer,
    NotNice,
    OutOfRange,
    SizeMismatch,
)
from hypersel.verdict import PASS
from hypersel.vietoris import family, interval, member_hits, model_space, order_model, overlaps
from hypersel.extension import make_partial
from hypersel.structures import GroundSet, subset_ranks

from oracles import (
    collapse_pair_system,
    conflict_system,
    cyclic_model,
    cyclic_pair_table,
    oracle_build,
    oracle_chains_agree,
    oracle_components,
    oracle_covered,
    oracle_edges,
    oracle_meet_rows,
    oracle_niceness,
    oracle_overlap,
    oracle_placement,
    oracle_unique_overlaps,
    random_mixed_system,
    random_system,
)


class TestMeets:
    """Unique meets of two families as the meet graph's row finds them."""

    MODEL = order_model(range(4), 2, "min")

    def meet(self, u, v):
        """The index map of the edge u -> v in row 0, or None."""
        edges, _ = FamilySystem((u, v), self.MODEL).graph.row(0)
        return dict(edges).get(1)

    def test_unique_bijective(self):
        u = family((0, 1), (2, 3))
        v = family((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)))
        assert self.meet(u, v) == (0, 1)

    def test_collapse_not_bijective(self):
        r = family((0, 1), (2, 3))
        m = family((F(1, 2), F(5, 2)), (F(31, 10), F(17, 5)))
        assert self.meet(r, m) == (0, 0)

    def test_straddle_is_ambiguous(self):
        x = family((F(1, 2), 3), (F(16, 5), F(17, 5)))
        v = family((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)))
        assert self.meet(x, v) is None
        assert FamilySystem((x, v), self.MODEL).graph.row(0) == ([], 1)  # overlapping

    def test_miss_is_none(self):
        u = family((0, 1), (2, 3))
        w = family((10, 11), (12, 13))
        assert self.meet(u, w) is None
        assert FamilySystem((u, w), self.MODEL).graph.row(0) == ([], None)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            FamilySystem((family((0, 1)), family((0, 1), (2, 3))), self.MODEL)


class TestIsNice:
    def test_conflict_fixture_refuted(self):
        verdict = is_nice(conflict_system())
        assert not verdict.ok
        assert verdict.witness[0] == "transfer-conflict"

    def test_collapse_pair_is_nice(self):
        # the collapsing link exists but no path disagreement arises
        assert is_nice(collapse_pair_system()).ok

    def test_overlap_without_unique_meet(self):
        # u's second member straddles both members of v while every
        # member still meets something, so overlap holds but the meet
        # map does not
        u = family((0, 1), (2, 3))
        v = family((F(1, 2), F(5, 2)), (F(11, 4), F(7, 2)))
        model = order_model([0, 1, 2, 3], 2, "min")
        verdict = is_nice(FamilySystem((u, v), model))
        assert not verdict.ok
        assert verdict.witness == ("overlap-without-unique-meet", 0, 1)

    def test_collapse_hides_conflict_from_earlier_root(self):
        # r collapses both its members into v's first member, so r's
        # labels cannot see that v -> w and v -> x -> w disagree on v's
        # second member; the conflict shows only when v is a root
        r = family((3, 4), (6, 7))
        v = family((0, 10), (20, 30))
        x = family((F(3, 2), F(41, 2)), (33, 34))
        w = family((1, 2), (29, 35))
        system = FamilySystem((r, v, x, w), order_model([0, 1, 2, 3], 2, "min"))
        verdict = is_nice(system)
        assert verdict.witness == ("transfer-conflict", 1, (2, 3))
        assert (verdict.ok, verdict.witness) == oracle_niceness(system)

    def test_empty_and_single(self):
        model = order_model([0, 1, 2, 3], 2, "min")
        assert is_nice(FamilySystem((), model)).ok
        assert is_nice(FamilySystem((family((0, 1), (2, 3)),), model)).ok


class TestChainClasses:
    def test_conflict_fixture_one_component(self):
        assert chain_classes(conflict_system()) == [[0, 1, 2]]

    def test_disconnected_families(self):
        u = family((0, 1), (2, 3))
        w = family((10, 11), (12, 13))
        model = order_model([0, 1, 2, 3], 2, "min")
        assert chain_classes(FamilySystem((u, w), model)) == [[0], [1]]


class TestBuild:
    def test_not_nice_rejected(self):
        with pytest.raises(NotNice) as info:
            build_selection_from_nice(conflict_system())
        assert info.value.verdict == is_nice(conflict_system())

    def test_labeling_conflict_is_typed(self, monkeypatch):
        # with the niceness check bypassed, the conflict surfaces while
        # labeling from the base, as an error that survives python -O
        monkeypatch.setattr(chains, "is_nice", lambda system: PASS)
        with pytest.raises(
            BrokenInvariant, match=r"^niceness verified but labeling from 0 conflicted at \(1, 2\)$"
        ):
            build_selection_from_nice(conflict_system())

    def test_cover_conflict_is_typed(self, monkeypatch):
        # both families hold (1, 3) one point per member but share no
        # unique meet, so they form two components; bases on different
        # members make them select different points
        u = family((0, F(5, 2)), (F(29, 10), 4))
        w = family((F(1, 2), F(3, 2)), (2, F(7, 2)))
        system = FamilySystem((u, w), order_model([1, 3], 2, "min"))
        assert chain_classes(system) == [[0], [1]]
        monkeypatch.setattr(chains, "is_nice", lambda system: PASS)
        pts = r"\(Fraction\(1, 1\), Fraction\(3, 1\)\)"
        with pytest.raises(BrokenInvariant, match=f"^covering families of {pts} disagree despite niceness$"):
            build_selection_from_nice(system, bases={0: (0, 0), 1: (1, 1)})

    def test_collapse_transfer_rejected(self):
        with pytest.raises(NonBijectiveTransfer):
            build_selection_from_nice(collapse_pair_system())

    # no point equals its index, so values and uncovered must be on
    # indices: u holds points 0 and 2, v points 1 and 3
    QUARTERS = [F(1, 4), F(5, 4), F(9, 4), F(13, 4)]

    def test_values_and_uncovered(self):
        u = family((0, 1), (2, 3))
        v = family((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)))
        model = order_model(self.QUARTERS, 2, "min")
        built = build_selection_from_nice(FamilySystem((u, v), model))
        assert built.values == {(0, 2): 0, (1, 3): 1}
        assert built.uncovered == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert built.bases == ((0, 0),)

    def test_base_member_selects_other_value(self):
        u = family((0, 1), (2, 3))
        v = family((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)))
        model = order_model(self.QUARTERS, 2, "min")
        built = build_selection_from_nice(
            FamilySystem((u, v), model), bases={0: (0, 1)}
        )
        assert built.values == {(0, 2): 2, (1, 3): 3}

    def test_bases_checked(self):
        system = FamilySystem((family((0, 1), (2, 3)),), order_model([0, 1, 2, 3], 2, "min"))
        with pytest.raises(OutOfRange, match=r"^base family must be an int in 0\.\.0, got 1$"):
            build_selection_from_nice(system, bases={0: (1, 0)})
        with pytest.raises(OutOfRange, match=r"^base member must be an int in 0\.\.1, got 5$"):
            build_selection_from_nice(system, bases={0: (0, 5)})

    @pytest.mark.parametrize("bases, fault", [
        ({7: (0, 1)}, r"base key must be an int in 0\.\.0, got 7"),
        ({0: (0, 0), -1: (0, 0)}, r"base key must be an int in 0\.\.0, got -1"),
        ({"0": (0, 0)}, r"base key must be an int in 0\.\.0, got '0'"),
        ({0: (0.0, 0)}, r"base family must be an int in 0\.\.0, got 0\.0"),
        ({0: (0, 1.5)}, r"base member must be an int in 0\.\.1, got 1\.5"),
        ({0: (0, 1.0)}, r"base member must be an int in 0\.\.1, got 1\.0"),
        ({0: (0, True)}, r"base member must be an int in 0\.\.1, got True"),
        ({0: 5}, r"base 5 is not a \(family, member\) pair"),
        ({0: None}, r"base None is not a \(family, member\) pair"),
        ({0: (0,)}, r"base \(0,\) is not a \(family, member\) pair"),
        ({0: (0, 1, 2)}, r"base \(0, 1, 2\) is not a \(family, member\) pair"),
        ({0: 10**5000}, r"base an int of 16610 bits is not a \(family, member\) pair"),
        ({0: (10**5000,)}, r"base \(an int of 16610 bits,\) is not a \(family, member\) pair"),
    ], ids=["key 7", "key -1", "key '0'", "family 0.0", "member 1.5", "member 1.0", "member True",
            "value 5", "value None", "value (0,)", "value (0, 1, 2)", "value huge", "value (huge,)"])
    def test_bases_it_cannot_use_rejected(self, bases, fault):
        system = FamilySystem((family((0, 1), (2, 3)),), order_model([0, 1, 2, 3], 2, "min"))
        with pytest.raises(OutOfRange, match=f"^{fault}$"):
            build_selection_from_nice(system, bases=bases)

    def test_memberless_families_violate_the_hypothesis(self):
        # nice, but no member to base a component on
        system = FamilySystem((family(), family()), order_model(self.QUARTERS, 2, "min"))
        assert is_nice(system)
        with pytest.raises(HypothesisViolated, match="^families have no members$"):
            build_selection_from_nice(system)

    def test_no_families_leave_the_empty_subset_uncovered(self):
        built = build_selection_from_nice(FamilySystem((), order_model(self.QUARTERS, 2, "min")))
        assert (built.values, built.uncovered, built.bases, built.components) == ({}, ((),), (), ())

    def test_covering_family_independence(self):
        system = derive_nice_family(cyclic_model(), 2)
        built = build_selection_from_nice(system)
        points = system.model.points
        keys = system.graph.keys
        for s, value in built.values.items():
            pts = tuple(points[i] for i in s)
            for fi, fam in enumerate(system.families):
                placement = oracle_placement(fam, pts)
                if placement is not None:
                    # re-derive the value from this family alone
                    base_f, base_m = built.bases[0]
                    mapping = chains._unique(member_hits(keys[base_f], keys[fi]))
                    member = fam.members[mapping[base_m]]
                    assert [p for p in pts if member.lo < p < member.hi] == [points[value]]


class TestDerive:
    def test_cyclic_model_roundtrip(self):
        # the built value depends on the chosen base member, not on the
        # model's own triple choice; the default base is member 0
        for pick in (0, 1, 2):
            system = derive_nice_family(cyclic_model(pick), 2)
            assert len(system.families) == 1
            assert is_nice(system).ok
            assert regular_class_cover_check(system, 2).ok
            built = build_selection_from_nice(system)
            assert built.values == {(0, 1, 2): 0}

    def test_roundtrip_base_member_choice(self):
        system = derive_nice_family(cyclic_model(), 2)
        for k in (0, 1, 2):
            built = build_selection_from_nice(system, bases={0: (0, k)})
            assert built.values == {(0, 1, 2): k}

    def test_odd_arity_rejected(self):
        with pytest.raises(OutOfRange):
            derive_nice_family(cyclic_model(), 3)

    def test_pair_level_alone_suffices(self):
        # the cyclic triple up to 2: no level 3, one regular triple
        pts = cyclic_model().points
        model = model_space(pts, make_partial(GroundSet(pts), "upto", 2, cyclic_pair_table(pts)))
        system = derive_nice_family(model, 2)
        assert system.families == derive_nice_family(cyclic_model(), 2).families
        assert len(system.families) == 1 and regular_class_cover_check(system, 2).ok

    def test_derive_preconditions(self):
        with pytest.raises(OutOfRange, match="^need even n >= 2, got 3$"):
            derive_nice_family(order_model([0, 1, 2, 3, 4], 4, "min"), 3)
        with pytest.raises(OutOfRange, match=r"^n must be an int in 2\.\.3, got 4$"):
            derive_nice_family(order_model([0, 1, 2, 3], 2, "min"), 4)
        with pytest.raises(ArityNotInDomain, match="^arity 2 not admitted by mode upto$"):
            derive_nice_family(order_model([0, 1, 2], 1, "min"), 2)

    def test_transitive_model_derives_nothing(self):
        model = order_model([0, 1, 2, 3], 3, "min")
        system = derive_nice_family(model, 2)
        assert system.families == ()
        assert regular_class_cover_check(system, 2).ok

    def test_cover_check_catches_missing_family(self):
        model = cyclic_model()
        empty = FamilySystem((), model)
        verdict = regular_class_cover_check(empty, 2)
        assert not verdict.ok
        assert verdict.witness == model.points

    @pytest.mark.parametrize("n", [3, 99, 10**20])
    def test_cover_check_passes_past_the_model_size(self, monkeypatch, n):
        # no (n+1)-set of 3 points: vacuous, and no subset is walked
        def forbidden(*args):
            raise RuntimeError("subsets walked past the model size")

        system = derive_nice_family(cyclic_model(), 2)
        monkeypatch.setattr(chains, "combinations", forbidden)
        assert regular_class_cover_check(system, n) == PASS

    @pytest.mark.parametrize("n", [0, -1])
    def test_cover_check_rejects_n_below_one(self, n):
        with pytest.raises(OutOfRange, match=f"^n must be an int >= 1, got {n}$"):
            regular_class_cover_check(derive_nice_family(cyclic_model(), 2), n)


class TestOracleAgreement:
    def test_fixtures(self):
        for system in (conflict_system(), collapse_pair_system()):
            if oracle_unique_overlaps(system):
                agree, _ = oracle_chains_agree(system)
                assert is_nice(system).ok == agree

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_systems(self, seed):
        rng = random.Random(seed)
        system = random_system(rng, rng.randint(2, 6))
        verdict = is_nice(system)
        if not oracle_unique_overlaps(system):
            assert not verdict.ok
            assert verdict.witness[0] == "overlap-without-unique-meet"
            return
        agree, _ = oracle_chains_agree(system)
        assert verdict.ok == agree


def _outcome(system, bases=None):
    """The build result in oracle_build's shape: subsets and picks
    translated from point indices to the model's points."""
    try:
        built = build_selection_from_nice(system, bases)
    except NotNice as exc:
        return "not-nice", exc.verdict.witness
    except NonBijectiveTransfer:
        return "non-bijective", None
    points = system.model.points
    values = {tuple(points[i] for i in s): points[v] for s, v in built.values.items()}
    uncovered = tuple(tuple(points[i] for i in s) for s in built.uncovered)
    return "built", (values, uncovered, built.bases, built.components)


def _oracle_covering(system, s):
    """(family, members) for every family holding the points with
    indices s, members[k] being the member that holds point s[k]."""
    pts = tuple(system.model.points[i] for i in s)
    out = []
    for f, fam in enumerate(system.families):
        placement = oracle_placement(fam, pts)
        if placement is not None:
            out.append((f, tuple(placement.index(p) for p in pts)))
    return out


def _assert_agrees(system, rng):
    """Every graph-backed answer on system equals the pairwise reference."""
    fams = system.families
    # a fresh system's first use is the lazy, early-exiting check
    verdict = is_nice(system)
    assert (verdict.ok, verdict.witness) == oracle_niceness(system)
    graph = system.graph
    edges = {(i, j): g for i in range(len(fams)) for j, g in graph.row(i)[0]}
    assert edges == oracle_edges(system)
    assert chain_classes(system) == oracle_components(system)
    assert _outcome(system) == oracle_build(system)
    comps = oracle_components(system)
    bases = {ci: (rng.choice(c), rng.randrange(system.arity)) for ci, c in enumerate(comps)}
    assert _outcome(system, bases) == oracle_build(system, bases)
    cover = _cover_diagnostics(system)
    covered = oracle_covered(system)
    assert cover["covered"] == [[label_str(p) for p in pts] for pts in covered]
    pool = list(combinations(system.model.points, system.arity)) if system.arity else []
    assert cover["uncovered_count"] == len(pool) - len(covered)
    for i, u in enumerate(fams):
        for j, v in enumerate(fams):
            # the row's hit test, on the grid's integer endpoints
            rows = member_hits(graph.keys[i], graph.keys[j])
            assert rows == oracle_meet_rows(u, v)
            assert overlaps(rows, v.size) == oracle_overlap(u, v)
            if all(len(row) == 1 for row in rows):
                assert chains._unique(rows) == tuple(row[0] for row in rows)
            else:
                assert chains._unique(rows) is None
    for s in combinations(range(system.model.size), system.arity):
        assert graph.covering(s) == _oracle_covering(system, s)


class TestMeetGraph:
    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_pairwise_reference(self, seed):
        rng = random.Random(seed)
        _assert_agrees(random_mixed_system(rng), rng)

    def test_fixtures_agree_with_pairwise_reference(self):
        for system in (conflict_system(), collapse_pair_system()):
            _assert_agrees(system, random.Random(0))

    def test_refutation_reads_one_row(self):
        # the witness sits in row 0, so no other row is ever built
        u = family((0, 1), (2, 3))
        v = family((F(1, 2), F(5, 2)), (F(11, 4), F(7, 2)))
        w = family((10, 11), (12, 13))
        system = FamilySystem((u, v, w), order_model([0, 1, 2, 3], 2, "min"))
        assert is_nice(system).witness == ("overlap-without-unique-meet", 0, 1)
        assert [i for i, row in enumerate(system.graph.rows) if row is not None] == [0]

    def test_bijectively_labeled_roots_are_not_rerooted(self, monkeypatch):
        # 80 nested families around 3 points: one component, 6,320 edges
        fams = tuple(
            family(*((p - F(1, k), p + F(1, k)) for p in range(3))) for k in range(3, 83)
        )
        system = FamilySystem(fams, order_model([0, 1, 2], 2, "min"))
        roots = []
        labels_from = chains._labels_from
        monkeypatch.setattr(
            chains, "_labels_from", lambda root, graph: roots.append(root) or labels_from(root, graph)
        )
        verdict = is_nice(system)
        assert sum(len(system.graph.row(i)[0]) for i in range(80)) == 6320
        assert (verdict.ok, verdict.witness) == oracle_niceness(system)
        assert roots == [0]

    def test_cover_of_members_listed_out_of_order(self):
        # members listed right to left: members[k] names the member
        # holding the k-th point, not the k-th listed member
        u = family((F(5, 2), F(7, 2)), (F(1, 2), F(3, 2)), (-1, 0))
        v = family((-1, 0), (F(3, 2), F(5, 2)), (3, 4))
        model = order_model([F(-1, 2), 1, 2, F(13, 4)], 2, "min")
        system = FamilySystem((u, v), model)
        assert system.graph.covering((0, 1, 3)) == [(0, (2, 1, 0))]
        assert system.graph.covering((0, 2, 3)) == [(1, (0, 1, 2))]
        assert system.graph.covering((0, 1, 2)) == []
        assert system.graph.covering((0, 1)) == []
        for s in combinations(range(4), 3):
            assert system.graph.covering(s) == _oracle_covering(system, s)

    def test_memberless_families_meet_every_family(self):
        # no member to touch: every other family is a candidate, and the
        # empty meet map is unique
        system = FamilySystem((family(),) * 3, order_model([0, 1, 2], 2, "min"))
        rows = [system.graph.row(i) for i in range(3)]
        assert rows == [([(1, ()), (2, ())], None), ([(0, ()), (2, ())], None),
                        ([(0, ()), (1, ())], None)]
        assert {(i, j): g for i, (edges, _) in enumerate(rows) for j, g in edges} == oracle_edges(system)
        assert (is_nice(system).ok, is_nice(system).witness) == oracle_niceness(system)

    def test_touching_members_stay_disjoint(self):
        u = family((0, 1), (2, 3))
        t = family((1, 2), (3, 4))
        system = FamilySystem((u, t), order_model([0, 1, 2, 3], 2, "min"))
        assert system.graph.row(0) == ([], None)
        assert chain_classes(system) == [[0], [1]]
