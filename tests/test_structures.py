import contextlib
import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel.errors import (
    ArityMismatch,
    BrokenInvariant,
    BudgetExceeded,
    ChoiceOutsideSubset,
    DuplicateLabel,
    MissingSubset,
    NotArityTwo,
    NotIso,
    NotRegular,
    OutOfRange,
    SizeMismatch,
    _shown,
)
from hypersel import _kernels, structures
from hypersel._kernels import regular_masks_exhaustive
from hypersel.cli import main
from hypersel.documents import read_selection, selection_texts
from hypersel.structures import (
    GroundSet,
    IsoMap,
    SelectionStructure,
    apply_iso,
    canonical_candidates,
    canonical_form,
    check_cycle_property,
    enumerate_selections,
    ground_range,
    index_selection,
    is_isomorphism,
    is_regular,
    joint_isomorphism,
    make_selection,
    mask_from_tournament,
    pair_beats,
    regular_tournaments,
    rotational_tournament,
    score_vector,
    selection_from_order,
    subset_ranks,
    tournament_from_mask,
)
from hypersel.verdict import fail

from hypersel.extension import (
    certified_isomorphism,
    order_partial,
    partial_from_indices,
    random_partial,
    restrict,
)

from oracles import (
    oracle_canonical,
    oracle_classes,
    oracle_make_selection,
    oracle_refine,
    oracle_relabel,
    oracle_scores,
    three_cycles9,
    write_selection,
)


def defined_beats(s):
    """The definition: bit w of beats[v] is set iff s.choose picks v
    from the pair {v, w} (indices into the ground)."""
    labels = s.ground.labels
    return [sum(1 << w for w, y in enumerate(labels) if y != x and s.choose((x, y)) == x)
            for x in labels]


# every (m, n), m <= 7, with at most 60k labeled structures
SMALL_SPACES = [
    (m, n) for m in range(1, 8) for n in range(1, m + 1) if n ** math.comb(m, n) <= 60_000
]


def pick_table(labels, n, chooser):
    return {frozenset(c): chooser(c) for c in combinations(labels, n)}


def random_structures(max_m=5):
    """Strategy: a structure on 3..max_m elements at arity 2..m-1 with
    arbitrary per-subset choices."""

    @st.composite
    def build(draw):
        m = draw(st.integers(3, max_m))
        n = draw(st.integers(2, m - 1))
        subs, _ = subset_ranks(m, n)
        picks = tuple(draw(st.sampled_from(s)) for s in subs)
        return SelectionStructure(ground_range(m), n, picks)

    return build()


@st.composite
def relabelings(draw):
    """Strategy: (structure on 1..7 elements at arity 1..4, a permutation
    of its ground indices, a subset rank)."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, min(4, m)))
    subs, _ = subset_ranks(m, n)
    s = SelectionStructure(ground_range(m), n, tuple(draw(st.sampled_from(t)) for t in subs))
    perm = tuple(draw(st.permutations(range(m))))
    return s, perm, draw(st.integers(0, len(subs) - 1))


class TestGroundSet:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            GroundSet(("a", "b", "a"))

    def test_index_lookup(self):
        g = GroundSet(("x", "y", "z"))
        assert g.index("z") == 2 and g.size == 3

    def test_position_table_leaves_equality_alone(self):
        g, h = GroundSet(("x", "y")), GroundSet(("x", "y"))
        assert g.index("y") == 1  # builds g's position table
        assert g == h and hash(g) == hash(h) and g != GroundSet(("y", "x"))
        with pytest.raises(OutOfRange, match="^'w' is not a label of the ground$"):
            g.index("w")

    @pytest.mark.parametrize("labels, shown", [
        (([1], [2]), "[1]"), (("a", ("b", [0]), [1]), "('b', [0])"),
    ])
    def test_unhashable_label_rejected(self, labels, shown):
        # the first label that does not hash is named, also one nested in a tuple
        with pytest.raises(OutOfRange, match=f"^label {re.escape(shown)} is not hashable$"):
            GroundSet(labels)

    @pytest.mark.parametrize("labels, shown", [
        (("a", "b", "a"), "('a', 'b', 'a')"),
        ([7, 7], "(7, 7)"),  # stored as a tuple
        ((10**5000, 10**5000), "(an int of 16610 bits, an int of 16610 bits)"),
    ], ids=["strings", "list", "huge"])
    def test_duplicate_label_message(self, labels, shown):
        # the labels by repr, an int past the interpreter's digits by its bit length
        with pytest.raises(DuplicateLabel, match=f"^repeated labels in {re.escape(shown)}$"):
            GroundSet(labels)

    @pytest.mark.parametrize("labels, shown", [
        ([1], "[1]"), ([10**5000], "[an int of 16610 bits]"),
        (["b", 1, 10**5000], "[an int of 16610 bits, 1, 'b']"),  # in ground order
    ], ids=["small", "huge", "three"])
    def test_non_subset_message(self, labels, shown):
        s = selection_from_order(GroundSet((10**5000, 1, "b")), 2, "min")
        with pytest.raises(OutOfRange, match=f"^{re.escape(shown)} is not a 2-subset$"):
            s.choose(labels)

    def test_index_selection_messages_show_huge_labels(self):
        g = GroundSet((10**5000, 1, 2))
        with pytest.raises(MissingSubset, match=r"^no choice for subset \[an int of 16610 bits, 1\]$"):
            index_selection(g, 2, {})
        with pytest.raises(ChoiceOutsideSubset,
                           match=r"^an int of 16610 bits not in subset \[1, 2\]$"):
            index_selection(g, 2, {(0, 1): 0, (0, 2): 0, (1, 2): 0})

    @pytest.mark.parametrize("x", [(), (1,), ("a", 2), [], [1], [(1,), "b"], ((1, 2), [3])])
    def test_shown_sequence_is_repr(self, x):
        assert _shown(x) == repr(x)

    def test_shown_sequence_with_huge_item(self):
        big = f"an int of {(10**5000).bit_length()} bits"
        assert _shown((10**5000,)) == f"({big},)"
        assert _shown([1, (10**5000, "a")]) == f"[1, ({big}, 'a')]"

    @pytest.mark.parametrize("label", [[0], ("b", [0]), 10**5000], ids=["list", "nested", "huge"])
    def test_lookup_of_a_foreign_label_is_out_of_range(self, label):
        # unhashable, or past the interpreter's digits for its repr
        g = ground_range(3)
        lookups = [
            lambda: g.index(label),
            lambda: rotational_tournament(3).choose([label, 0]),
            lambda: IsoMap(g, g, (1, 2, 0)).apply(label),
            lambda: certified_isomorphism(order_partial(g, 2, "min"), [label, 0], [1, 2]),
        ]
        for lookup in lookups:
            with pytest.raises(OutOfRange, match=f"^{re.escape(_shown(label))} is not a label of the ground$"):
                lookup()


class TestSequenceFields:
    """A ground's labels and a structure's picks given as a list are
    stored as a tuple, so equality, hashing and relabeling read them as
    they read a tuple."""

    def test_list_ground_is_hashable_for_isomorphism(self):
        s = selection_from_order(GroundSet(["a", "b", "c"]), 2, "min")
        assert type(s.ground.labels) is tuple
        assert joint_isomorphism((s,), (s,)) is not None

    def picks(self):
        g = ground_range(3)
        return SelectionStructure(g, 2, [0, 0, 1]), SelectionStructure(g, 2, (0, 0, 1))

    def test_list_picks_equal_tuple_picks(self):
        s, t = self.picks()
        assert type(s.picks) is tuple and s == t

    def test_list_picks_identity_is_an_isomorphism(self):
        s, t = self.picks()
        identity = IsoMap(s.ground, t.ground, s.ground.labels)
        assert is_isomorphism(s, t, identity) and is_isomorphism(t, s, identity)

    def test_list_picks_are_isomorphic(self):
        s, t = self.picks()
        assert joint_isomorphism((s,), (t,)).images == (0, 1, 2)


class TestConstruction:
    def test_totality_enforced(self):
        table = pick_table(range(4), 2, min)
        del table[frozenset({2, 3})]
        with pytest.raises(MissingSubset):
            make_selection(ground_range(4), 2, table)

    def test_short_table_counted_before_any_rank_table(self, monkeypatch):
        # the first missing subset is named, and a pick outside its
        # subset ahead of it is still reported first
        def forbidden(*args):
            raise RuntimeError("subset_ranks called for a short table")

        table = pick_table(range(6), 3, min)
        del table[frozenset({0, 2, 4})], table[frozenset({1, 2, 3})]
        monkeypatch.setattr(structures, "subset_ranks", forbidden)
        with pytest.raises(MissingSubset, match=r"^no choice for subset \[0, 2, 4\]$"):
            make_selection(ground_range(6), 3, table)
        table[frozenset({0, 1, 5})] = 2
        with pytest.raises(ChoiceOutsideSubset):
            make_selection(ground_range(6), 3, table)

    def test_membership_enforced(self):
        table = pick_table(range(4), 2, min)
        table[frozenset({2, 3})] = 0
        with pytest.raises(ChoiceOutsideSubset):
            make_selection(ground_range(4), 2, table)

    @pytest.mark.parametrize("pick, shown", [
        (5, "pick 5"), (-1, "pick -1"), ("x", "pick 'x'"), (False, "pick False"), (0.0, r"pick 0\.0"),
    ], ids=["past the ground", "negative", "string", "bool", "float"])
    def test_pick_that_is_no_ground_index(self, pick, shown):
        # shown by its repr, not as a label; False and 0.0 equal the
        # subset's member 0, yet are no index
        ground = GroundSet(("a", "b", "c"))
        table = {(0,): pick, (1,): 1, (2,): 2}
        with pytest.raises(ChoiceOutsideSubset, match=rf"^{shown} not in subset \['a'\]$"):
            index_selection(ground, 1, table)
        with pytest.raises(ChoiceOutsideSubset, match=rf"^{shown} not in subset \['a'\]$"):
            partial_from_indices(ground, "exact", 1, table)

    def test_extraneous_entries_rejected(self):
        table = pick_table(range(4), 2, min)
        table[frozenset({0, 1, 2})] = 0
        with pytest.raises(MissingSubset):
            make_selection(ground_range(4), 2, table)

    @pytest.mark.parametrize("key, pick", [((0, 7), 0), ((0, 1), 7)], ids=["subset", "pick"])
    def test_label_outside_the_ground(self, key, pick):
        # one label outside per key, so set order cannot pick the one
        # named; it is named before the missing subset {2, 3}
        table = pick_table(range(4), 2, min)
        del table[frozenset({2, 3})]
        table[frozenset(key)] = pick
        with pytest.raises(OutOfRange, match="^7 is not a label of the ground$"):
            make_selection(ground_range(4), 2, table)

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_collapse_named_before_the_arity(self, n):
        # keys (1, 0) and (0, 1) collapse, whatever the arity; the oracle
        # names the same fault
        table = {(1, 0): 0, (0, 1): 0}
        for build in (make_selection, oracle_make_selection):
            with pytest.raises(MissingSubset, match="^table keys collapse when read as sets$"):
                build(ground_range(3), n, table)

    def test_order_rules(self):
        g = ground_range(4)
        lo = selection_from_order(g, 3, "min")
        hi = selection_from_order(g, 3, "max")
        assert lo.choose((1, 2, 3)) == 1
        assert hi.choose((0, 1, 2)) == 2
        with pytest.raises(OutOfRange, match="^rule must be 'min' or 'max', got 'mid'$"):
            selection_from_order(g, 2, "mid")

    @pytest.mark.parametrize("labels, named", [
        (["a", "a"], r"\['a', 'a'\]"),
        (["a"], r"\['a'\]"),
        (["c", "a", "b"], r"\['a', 'b', 'c'\]"),
    ], ids=["repeated", "short", "long"])
    def test_choose_rejects_labels_that_are_no_subset(self, labels, named):
        s = selection_from_order(GroundSet(("a", "b", "c")), 2, "min")
        with pytest.raises(OutOfRange, match=rf"^{named} is not a 2-subset$"):
            s.choose(labels)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_rule_rejects_an_arity_before_any_table(self, n):
        with pytest.raises(OutOfRange, match=f"^arity must be an int in 1..3, got {n}$"):
            selection_from_order(ground_range(3), n, "min")

    def test_arity_and_table_length_checked(self):
        with pytest.raises(OutOfRange, match="^arity must be an int in 1..3, got 0$"):
            SelectionStructure(ground_range(3), 0, ())
        with pytest.raises(MissingSubset, match="^expected 3 choices, got 2$"):
            SelectionStructure(ground_range(3), 2, (0, 0))


class TestScores:
    @settings(max_examples=60, deadline=None)
    @given(random_structures())
    def test_scores_match_oracle_and_conserve(self, s):
        w = score_vector(s)
        direct = oracle_scores(s)
        assert dict(zip(s.ground.labels, w)) == direct
        assert sum(w) == math.comb(s.size, s.n)

    def test_level_classes_partition(self):
        s = rotational_tournament(5)
        assert score_vector(s) == (2,) * 5
        assert is_regular(s)

    def test_min_rule_scores(self):
        s = selection_from_order(ground_range(4), 2, "min")
        assert score_vector(s) == (3, 2, 1, 0)
        assert not is_regular(s)

    @settings(max_examples=60, deadline=None)
    @given(random_structures())
    def test_pair_beats_popcounts_are_the_scores(self, s):
        if s.n != 2:
            with pytest.raises(NotArityTwo, match=f"^beats are read on tournaments, arity {s.n} given$"):
                pair_beats(s)
            return
        beats = pair_beats(s)
        assert beats == defined_beats(s)
        assert tuple(b.bit_count() for b in beats) == score_vector(s)


class TestRotational:
    def test_even_ground_rejected(self):
        with pytest.raises(OutOfRange, match="^rotational tournament needs odd m, got 4$"):
            rotational_tournament(4)

    def test_single_point_rejected(self):
        with pytest.raises(OutOfRange, match="^m must be an int >= 3, got 1$"):
            rotational_tournament(1)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_regular_at_odd_sizes(self, m):
        s = rotational_tournament(m)
        assert score_vector(s) == ((m - 1) // 2,) * m


class TestCycleProperty:
    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_rotational_satisfies(self, m):
        assert check_cycle_property(rotational_tournament(m)).ok

    def test_beyond_kernel_size_bound(self):
        # 13 > _kernels.MAX_M: the check does not go through the enumerators' guard
        assert check_cycle_property(rotational_tournament(13)).ok

    def test_requires_arity_two(self):
        with pytest.raises(NotArityTwo):
            check_cycle_property(selection_from_order(ground_range(4), 3, "min"))

    def test_requires_regular(self):
        with pytest.raises(NotRegular):
            check_cycle_property(selection_from_order(ground_range(3), 2, "min"))

    def test_violation_is_witnessed_by_labels(self, monkeypatch):
        # every regular tournament has the property, so the failing
        # branch is reached only through a kernel that reports a pair
        monkeypatch.setattr(_kernels, "cycle_scan", lambda beats: (1, 2))
        abc = GroundSet(tuple("abc"))
        s = apply_iso(rotational_tournament(3), IsoMap(ground_range(3), abc, abc.labels))
        assert check_cycle_property(s) == fail(("b", "c"))

    @pytest.mark.parametrize("s, error", [
        (selection_from_order(ground_range(4), 3, "min"), NotArityTwo),
        (selection_from_order(ground_range(3), 2, "min"), NotRegular),
        (selection_from_order(ground_range(2), 2, "max"), NotRegular),
        (tournament_from_mask(0b110010, 4), NotRegular),
    ])
    def test_rejected_before_the_scan(self, monkeypatch, s, error):
        scanned = []
        monkeypatch.setattr(_kernels, "cycle_scan", scanned.append)
        with pytest.raises(error):
            check_cycle_property(s)
        assert scanned == []

    def test_scan_reads_the_picked_beats(self, monkeypatch):
        scanned = []
        monkeypatch.setattr(_kernels, "cycle_scan", lambda beats: scanned.append(beats))
        s = rotational_tournament(5)
        assert check_cycle_property(s).ok
        assert scanned == [defined_beats(s)]

    @pytest.fixture
    def built(self, monkeypatch):
        """Each beats list that _kernels.beats_from_picks returns."""
        out = []
        real = _kernels.beats_from_picks

        def spy(*args):
            out.append(real(*args))
            return out[-1]

        monkeypatch.setattr(_kernels, "beats_from_picks", spy)
        return out

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_beats_from_picks_on_every_tournament(self, built, m):
        for mask in range(1 << (m * (m - 1) // 2)):
            s = tournament_from_mask(mask, m)
            with contextlib.suppress(NotRegular):
                check_cycle_property(s)
            assert built.pop() == defined_beats(s)

    @pytest.mark.parametrize("m", [6, 9, 13])
    def test_beats_from_picks_on_labeled_grounds(self, built, m):
        rng = random.Random(m)
        labels = GroundSet(tuple(f"v{i}" for i in range(m)))
        for _ in range(50):
            s = make_selection(labels, 2, {k: rng.choice(k) for k in combinations(labels.labels, 2)})
            with contextlib.suppress(NotRegular):
                check_cycle_property(s)
            assert built.pop() == defined_beats(s)


class TestIsomorphism:
    def test_apply_iso_preserves_choices(self):
        s = rotational_tournament(5)
        phi = IsoMap(s.ground, s.ground, (1, 2, 3, 4, 0))
        t = apply_iso(s, phi)
        assert is_isomorphism(s, t, phi)
        for sub in combinations(s.ground.labels, 2):
            assert phi.apply(s.choose(sub)) == t.choose(tuple(map(phi.apply, sub)))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            IsoMap(ground_range(3), ground_range(4), (0, 1, 2))

    def test_endpoints_checked(self):
        s = rotational_tournament(3)
        same = IsoMap(s.ground, s.ground, (0, 1, 2))
        foreign = IsoMap(GroundSet(tuple("abc")), s.ground, (0, 1, 2))
        with pytest.raises(SizeMismatch, match="^ground sizes differ: 3 vs 5$"):
            is_isomorphism(s, rotational_tournament(5), same)
        with pytest.raises(ArityMismatch, match="^arities differ: 2 vs 3$"):
            is_isomorphism(s, selection_from_order(s.ground, 3, "min"), same)
        with pytest.raises(SizeMismatch, match="^map endpoints do not match the structures$"):
            is_isomorphism(s, s, foreign)
        with pytest.raises(SizeMismatch, match="^map source does not match the structure$"):
            apply_iso(s, foreign)

    def test_repeated_image_is_not_a_bijection(self):
        # the image set equals the target, but four images for three points
        with pytest.raises(NotIso, match="^images do not form a bijection onto the target$"):
            IsoMap(ground_range(3), ground_range(3), (0, 1, 2, 2))
        with pytest.raises(NotIso, match="^images do not form a bijection onto the target$"):
            IsoMap(ground_range(3), ground_range(3), (0, 1))
        with pytest.raises(NotIso, match="^images do not form a bijection onto the target$"):
            IsoMap(ground_range(2), ground_range(2), ([0], [1]))  # unhashable images


class TestRelabeling:
    """apply_iso and is_isomorphism share one relabeling kernel; both
    are checked against the oracle's relabeling."""

    @settings(max_examples=150, deadline=None)
    @given(relabelings())
    def test_matches_the_oracle(self, case):
        s, perm, r = case
        target = GroundSet(tuple(f"x{i}" for i in range(s.size)))
        phi = IsoMap(s.ground, target, tuple(target.labels[k] for k in perm))
        t = apply_iso(s, phi)
        assert t.ground == target and t.picks == oracle_relabel(s, perm)
        assert is_isomorphism(s, t, phi)
        sub = subset_ranks(s.size, s.n)[0][r]
        if s.n > 1:  # a singleton has no other pick
            picks = list(t.picks)
            picks[r] = next(x for x in sub if x != picks[r])
            assert not is_isomorphism(s, SelectionStructure(target, s.n, tuple(picks)), phi)

    @staticmethod
    def _assert_levels_agree(m, ns, rng):
        # levels drawn on the concatenated per-level tables and relabeled
        # one at a time, as a canonical labeling's leaf is, level by
        # level against the oracle
        subs = sum((subset_ranks(m, n)[0] for n in ns), ())
        picks = tuple(rng.choice(s) for s in subs)
        sigma = list(range(m))
        rng.shuffle(sigma)
        got, start = (), 0
        for n in ns:
            end = start + math.comb(m, n)
            got += structures._relabeled(SelectionStructure(ground_range(m), n, picks[start:end]), sigma)
            start = end
        start = 0
        for n in ns:
            end = start + math.comb(m, n)
            level = SelectionStructure(ground_range(m), n, picks[start:end])
            assert got[start:end] == oracle_relabel(level, tuple(sigma)), (m, ns, sigma)
            start = end

    @pytest.mark.parametrize("m", range(2, 9))
    def test_pair_tables_rank_by_offsets(self, m):
        rng = random.Random(f"pairs-{m}")
        for _ in range(40):
            self._assert_levels_agree(m, (2,), rng)

    @pytest.mark.parametrize("ns", [(1, 2), (3, 2), (2, 3), (1, 2, 3)])
    def test_mixed_levels_relabel_one_at_a_time(self, ns):
        rng = random.Random(f"joint-{ns}")
        for m in range(3, 7):
            for _ in range(20):
                self._assert_levels_agree(m, ns, rng)

    @pytest.mark.parametrize("m, n", [(m, 2) for m in range(2, 7)] + [(4, 3)])
    def test_enumeration_columns_match_brute_force(self, m, n):
        # each entry recomputed from the image subset's place in the
        # combinations list and the pick's place in the sorted image
        subs = list(combinations(range(m), n))
        columns = structures._relabeling_columns(m, n)
        for q, sigma in enumerate(permutations(range(m))):
            for r, sub in enumerate(subs):
                image = sorted(sigma[x] for x in sub)
                place = n ** (len(subs) - 1 - subs.index(tuple(image)))
                for d, x in enumerate(sub):
                    assert columns[r][d][q] == image.index(sigma[x]) * place, (sigma, sub, d)


class TestCanonicalForm:
    @settings(max_examples=40, deadline=None)
    @given(random_structures(max_m=4))
    def test_idempotent(self, s):
        canon, _ = canonical_form(s)
        again, _ = canonical_form(canon)
        assert again.picks == canon.picks

    @settings(max_examples=40, deadline=None)
    @given(random_structures(max_m=4), st.randoms(use_true_random=False))
    def test_constant_on_iso_classes(self, s, rng):
        images = list(range(s.size))
        rng.shuffle(images)
        phi = IsoMap(s.ground, s.ground, tuple(images))
        c1, _ = canonical_form(s)
        c2, _ = canonical_form(apply_iso(s, phi))
        assert c1.picks == c2.picks

    def test_projects_to_standard_ground(self):
        s = make_selection(
            GroundSet(("p", "q", "r")), 2, pick_table(("p", "q", "r"), 2, min)
        )
        canon, cert = canonical_form(s)
        assert canon.ground.labels == (0, 1, 2)
        assert is_isomorphism(s, canon, cert)

    def test_are_isomorphic_yields_checked_map(self):
        s = rotational_tournament(5)
        phi = IsoMap(s.ground, s.ground, (2, 3, 4, 0, 1))
        t = apply_iso(s, phi)
        psi = joint_isomorphism((s,), (t,))
        assert psi is not None and is_isomorphism(s, t, psi)

    def test_non_isomorphic_detected(self):
        s = selection_from_order(ground_range(3), 2, "min")
        t = rotational_tournament(3)
        assert joint_isomorphism((s,), (t,)) is None

    def test_uncertified_map_is_typed(self, monkeypatch):
        # raised by an explicit check, so it holds under python -O too
        s = rotational_tournament(5)
        t = apply_iso(s, IsoMap(s.ground, s.ground, (2, 3, 4, 0, 1)))
        monkeypatch.setattr(structures, "is_isomorphism", lambda *a: False)
        with pytest.raises(
            BrokenInvariant, match="^equal canonical forms composed to a map that is not an isomorphism$"
        ):
            joint_isomorphism((s,), (t,))

    def test_joint_isomorphism_needs_one_ground_a_side(self):
        s = rotational_tournament(5)
        r = selection_from_order(GroundSet(tuple("abcde")), 2, "min")
        assert joint_isomorphism((s,), (r,)) is None
        assert joint_isomorphism((s,), (selection_from_order(ground_range(5), 3, "min"),)) is None
        for gs in [(), (s, r)]:
            with pytest.raises(OutOfRange, match="^need one or more structures on one ground"):
                joint_isomorphism(gs, gs)
        # each side is checked before the shapes are compared
        t3, t5 = rotational_tournament(3), rotational_tournament(5)
        for gs, ts in [((), (t3,)), ((t3,), ()), ((t3, t5), (t3,)), ((t3,), (t3, t5))]:
            with pytest.raises(OutOfRange, match="^need one or more structures on one ground"):
                joint_isomorphism(gs, ts)

    @pytest.mark.parametrize("m, n", [(4, 2), (5, 2), (4, 3), (5, 4), (5, 5)])
    def test_one_form_per_oracle_class(self, m, n):
        forms = [
            {canonical_form(SelectionStructure(ground_range(m), n, t))[0].picks for t in orbit}
            for orbit in oracle_classes(m, n)
        ]
        assert all(len(f) == 1 for f in forms)
        assert len(set.union(*forms)) == len(forms)

    @pytest.mark.parametrize("seed", range(40))
    def test_invariant_under_relabeling(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 9)
        n = rng.randint(2, min(4, m))
        subs, _ = subset_ranks(m, n)
        if seed % 4 == 0:
            s = selection_from_order(ground_range(m), n, rng.choice(("min", "max")))
        else:
            s = SelectionStructure(ground_range(m), n, tuple(rng.choice(x) for x in subs))
        self._assert_invariant(s, rng)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_rotational_invariant(self, m):
        self._assert_invariant(rotational_tournament(m), random.Random(m))

    @staticmethod
    def _assert_invariant(s, rng):
        canon, cert = canonical_form(s)
        assert is_isomorphism(s, canon, cert)
        if s.size <= 6:
            assert oracle_canonical(canon) == oracle_canonical(s)
        for _ in range(3):
            images = list(range(s.size))
            rng.shuffle(images)
            t = apply_iso(s, IsoMap(s.ground, s.ground, tuple(images)))
            other, cert_t = canonical_form(t)
            assert other.picks == canon.picks
            assert is_isomorphism(t, other, cert_t)


def seeded_structure(m, n, seed):
    rng = random.Random(seed)
    subs, _ = subset_ranks(m, n)
    return SelectionStructure(ground_range(m), n, tuple(rng.choice(s) for s in subs))


@st.composite
def refinement_inputs(draw):
    """A structure on 2..10 elements, arbitrary choices: a tournament on
    up to 10, arity 3 or 4 on up to 8."""
    m = draw(st.integers(2, 10))
    n = draw(st.integers(2, min(4, m) if m <= 8 else 2))
    subs, _ = subset_ranks(m, n)
    return SelectionStructure(ground_range(m), n, tuple(draw(st.sampled_from(s)) for s in subs))


def _individualized(stable, t):
    """stable with each element of its cell t individualized in turn."""
    return [stable[:t] + [[v], [x for x in stable[t] if x != v]] + stable[t + 1:]
            for v in stable[t]]


class TestRefinement:
    """Both refinements return oracle_refine's ordered partitions: the
    entry one (structures._refiner) on every input, and the beats one
    (structures._refine_wins) on every tournament, so the canonical
    encoding stays the one the golden literals record."""

    @staticmethod
    def _assert_agrees(s):
        # from the score blocks, then with each element of the first
        # smallest open cell individualized, as canonical_form does, and
        # of the first open cell, and so again one level deeper
        subs, _ = subset_ranks(s.size, s.n)
        refine = structures._refiner(subs, s.picks, s.size)
        beats = pair_beats(s) if s.n == 2 else None

        def check(cells, depth):
            stable = oracle_refine(subs, s.picks, cells)
            assert refine(cells) == stable
            if beats is not None:
                assert structures._refine_wins(beats, cells) == stable
            opened = [t for t, c in enumerate(stable) if len(c) > 1]
            if depth and opened:
                size = min(len(stable[t]) for t in opened)
                smallest = next(t for t in opened if len(stable[t]) == size)
                for t in sorted({smallest, opened[0]}):
                    for child in _individualized(stable, t):
                        check(child, depth - 1)

        check(structures._score_blocks(score_vector(s)), 2)

    @settings(max_examples=200, deadline=None)
    @given(refinement_inputs())
    def test_agrees_with_oracle_on_drawn_structures(self, s):
        self._assert_agrees(s)

    def test_agrees_with_oracle_on_every_restriction(self):
        # all C(12, 8) = 495 8-point restrictions of one 12-point tournament
        f = random_partial(ground_range(12), 2, random.Random(12))
        for sub in combinations(range(12), 8):
            self._assert_agrees(restrict(f, sub, 2))

    def test_agrees_on_regular_and_transitive(self):
        for s in (rotational_tournament(9), selection_from_order(ground_range(8), 3, "min")):
            self._assert_agrees(s)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    def test_two_pair_levels_agree_with_oracle(self, m, rng):
        # a joint labeling of two tournaments on one ground reads each
        # pair twice, so it is refined as entries, not as one beats list
        pairs, _ = subset_ranks(m, 2)
        subs = pairs + pairs
        picks = tuple(rng.choice(t) for t in subs)
        refine = structures._refiner(subs, picks, m)
        start = [list(range(m))]
        stable = refine(start)
        assert stable == oracle_refine(subs, picks, start)
        for t, c in enumerate(stable):
            if len(c) > 1:
                for cells in _individualized(stable, t):
                    assert refine(cells) == oracle_refine(subs, picks, cells)

    # canonical_form(...)[0].picks recorded before signatures were read
    # from incidence lists; the canonical encoding must not move
    def test_golden_rotational_seven(self):
        assert canonical_form(rotational_tournament(7))[0].picks == (
            0, 0, 0, 4, 5, 6, 2, 3, 1, 1, 1, 3, 2, 2, 6, 3, 5, 6, 4, 4, 5)

    @pytest.mark.parametrize("seed, picks", [
        (8, (1, 0, 3, 4, 5, 0, 7, 2, 3, 1, 5, 6, 7, 2, 2, 5, 6, 7, 4, 3, 6, 7, 4, 6,
             4, 5, 7, 6)),
        (88, (1, 0, 3, 4, 5, 6, 0, 1, 3, 4, 5, 6, 7, 2, 2, 2, 6, 7, 4, 5, 3, 7, 5, 4,
              7, 6, 7, 7)),
    ])
    def test_golden_seeded_tournaments(self, seed, picks):
        assert canonical_form(seeded_structure(8, 2, seed))[0].picks == picks

    # canonical_form's picks and map at arity 3 and 4, recorded when the
    # entry front end still packed each entry into one int: one
    # structure above arity 2 is labeled on that front end alone
    @pytest.mark.parametrize("m, n, seed, picks, images", [
        (7, 3, 7, (2, 0, 1, 0, 1, 3, 4, 5, 2, 3, 3, 6, 4, 6, 6, 2, 4, 1, 6, 1, 5, 6, 5, 4, 6, 3,
                   5, 6, 4, 2, 5, 5, 6, 3, 5), (6, 5, 4, 0, 2, 3, 1)),
        (7, 3, 73, (0, 3, 4, 5, 1, 0, 4, 2, 6, 4, 5, 3, 5, 4, 6, 2, 4, 2, 1, 1, 5, 6, 4, 6, 1, 3,
                    2, 2, 5, 6, 5, 3, 6, 3, 6), (1, 2, 5, 6, 0, 3, 4)),
        (8, 4, 84, (3, 4, 0, 0, 7, 1, 5, 1, 1, 4, 6, 4, 0, 7, 6, 2, 5, 3, 3, 2, 4, 7, 0, 7, 7, 5,
                    4, 0, 5, 7, 0, 5, 7, 4, 6, 1, 5, 3, 2, 1, 6, 2, 2, 2, 7, 1, 1, 3, 3, 7, 3, 6,
                    5, 4, 5, 2, 2, 4, 6, 5, 6, 4, 7, 6, 7, 3, 5, 6, 6, 6), (7, 3, 5, 4, 1, 6, 0, 2)),
    ], ids=["7-3-seed7", "7-3-seed73", "8-4-seed84"])
    def test_golden_seeded_wider_arities(self, m, n, seed, picks, images):
        canon, phi = canonical_form(seeded_structure(m, n, seed))
        assert (canon.picks, phi.images) == (picks, images)

    @pytest.mark.parametrize("m, n, count, digest", [
        (7, 3, 200, "f2fc81f1736dd4b3044e5d0667813d0d49dfbf7ac8d804ec64e3c7f7cd0f71a8"),
        (8, 4, 100, "36da12ec1cd78ed5340ef166219f2ff04598359512d5752db21f1ebd18d50779"),
    ])
    def test_golden_seeded_wider_arity_digests(self, m, n, count, digest):
        # SHA-256 of the (picks, images) list for seeds 0..count-1
        got = []
        for seed in range(count):
            canon, phi = canonical_form(seeded_structure(m, n, seed))
            got.append((canon.picks, phi.images))
        assert hashlib.sha256(repr(got).encode()).hexdigest() == digest


@st.composite
def joint_refinement_inputs(draw):
    """(subs, picks) of several levels on 2..7 elements, distinct arities
    1..4 in drawn order, concatenated as _canonical_labeling joins them."""
    m = draw(st.integers(2, 7))
    ns = draw(st.lists(st.integers(1, min(4, m)), min_size=2, max_size=4, unique=True))
    subs = sum((subset_ranks(m, n)[0] for n in ns), ())
    return subs, tuple(draw(st.sampled_from(s)) for s in subs)


class TestJointRefinement:
    """Entries of different lengths, as in a joint labeling, split cells
    as oracle_refine's tuples do."""

    @settings(max_examples=200, deadline=None)
    @given(joint_refinement_inputs())
    def test_agrees_with_oracle_on_drawn_levels(self, drawn):
        subs, picks = drawn
        m = max(map(max, subs)) + 1
        w = [0] * m
        for p in picks:
            w[p] += 1
        refine = structures._refiner(subs, picks, m)
        starts = [structures._score_blocks(w)]
        stable = refine(starts[0])
        sizes = [len(c) for c in stable if len(c) > 1]
        if sizes:
            t = next(i for i, c in enumerate(stable) if len(c) == min(sizes))
            v = stable[t][0]
            starts.append(stable[:t] + [[v], stable[t][1:]] + stable[t + 1:])
        for cells in starts:
            assert refine(cells) == oracle_refine(subs, picks, cells)

    @pytest.mark.parametrize("ns", [(1, 2), (2, 3), (3, 1, 2), (2, 4)])
    def test_agrees_with_oracle_on_seeded_levels(self, ns):
        # every individualization of every stable partition's first
        # smallest open cell, for seeded choices on 6 points
        rng = random.Random(f"joint-{ns}")
        subs = sum((subset_ranks(6, n)[0] for n in ns), ())
        for _ in range(10):
            picks = tuple(rng.choice(s) for s in subs)
            refine = structures._refiner(subs, picks, 6)
            stable = refine([list(range(6))])
            starts = [[list(range(6))]]
            for t, c in enumerate(stable):
                starts.extend(stable[:t] + [[v], [x for x in c if x != v]] + stable[t + 1:]
                              for v in c if len(c) > 1)
            for cells in starts:
                assert refine(cells) == oracle_refine(subs, picks, cells)


def entry_labeling(t):
    """One structure's labeling on the entry front end, composed here
    from its parts: the search on _refiner's refinement from the score
    blocks, each leaf relabeled on t's own table."""
    subs, _ = t.table
    refine = structures._refiner(subs, t.picks, t.size)

    def encode(order):
        return structures._relabeled(t, structures._positions(order))

    best, order = structures._labeling_search(
        refine, encode, structures._score_blocks(score_vector(t)))
    return best, tuple(structures._positions(order))


class TestTournamentFrontEnd:
    """One tournament is labeled on its beats (_tournament_labeling); the
    entry front end, which once labeled tournaments too, gives the
    same least tuple and the same relabeling."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    def test_agrees_on_drawn_tournaments(self, m, rng):
        picks = tuple(rng.choice(s) for s in subset_ranks(m, 2)[0])
        t = SelectionStructure(ground_range(m), 2, picks)
        assert structures._canonical_labeling((t,)) == entry_labeling(t)

    @pytest.mark.parametrize("t", [
        rotational_tournament(7),
        rotational_tournament(9),
        SelectionStructure(ground_range(9), 2, three_cycles9()),
    ], ids=["rot7", "rot9", "cycles9"])
    def test_agrees_where_the_search_branches(self, t):
        # regular: the root refines to no singleton, so both front ends
        # individualize and prune by automorphisms
        assert structures._refine_wins(pair_beats(t), [list(range(t.size))]) == [list(range(t.size))]
        assert structures._canonical_labeling((t,)) == entry_labeling(t)


class TestSubsetTables:
    """A subset table whose C(m, n) * n cells times m are at most
    _KEPT_WEIGHT is kept for the life of the process; any other lives as
    long as its caller or the structure that took it."""

    def test_kept_table_is_one_object(self):
        # C(40, 2) * 2 * 40 = 62,400, the largest kept pair table
        assert math.comb(40, 2) * 2 * 40 <= structures._KEPT_WEIGHT
        for m, n in [(6, 3), (40, 2)]:
            table = subset_ranks(m, n)
            assert subset_ranks(m, n) is table
            assert SelectionStructure(ground_range(m), n, tuple(s[0] for s in table[0])).table is table

    def test_no_table_above_the_cap_outlives_its_caller(self):
        # C(41, 2) * 2 * 41 = 67,240
        assert math.comb(41, 2) * 2 * 41 > structures._KEPT_WEIGHT
        tables = [subset_ranks(41, 2)]
        assert subset_ranks(41, 2) is not tables[0]
        assert tables[0] == (tuple(combinations(range(41), 2)),
                             {s: r for r, s in enumerate(combinations(range(41), 2))})
        picks = tuple(s[-1] for s in tables[0][0])
        held = [SelectionStructure(ground_range(41), 2, picks)]
        assert held[0].table is not tables[0]
        # each table is held by this list or its structure alone, as the
        # control object is by its list
        control = [object()]
        assert sys.getrefcount(tables[0]) == sys.getrefcount(held[0].table) == sys.getrefcount(control[0])

    def test_one_size_a_table(self):
        with pytest.raises(TypeError):
            subset_ranks(4, 1, 2)

    def test_kept_store_is_bounded(self):
        # C(m, n) * n >= m for 1 <= n <= m, so no kept table has m > 256;
        # the rule keeps 638 tables of 179,609 cells in all
        rule = {(m, n) for m in range(1, 257) for n in range(1, m + 1)
                if math.comb(m, n) * n * m <= 2**16}
        assert (len(rule), sum(math.comb(m, n) * n for m, n in rule)) == (638, 179_609)
        for m in range(1, 1025):
            subset_ranks(m, 1)
            subset_ranks(m, m)
        kept = structures._kept
        assert set(kept) <= rule
        assert sum(len(subs) * n for (_, n), (subs, _) in kept.items()) <= 179_609
        for m, n in [(0, 1), (3, 5), (5, 0)]:  # empty or arity-0 tables are not kept
            assert subset_ranks(m, n) is not subset_ranks(m, n)


def brute_candidates(s):
    """The relabelings that sort the scores ascending, counted over all
    m! orders of the ground."""
    w = score_vector(s)
    return sum(all(w[a] <= w[b] for a, b in zip(perm, perm[1:]))
               for perm in permutations(range(s.size)))


class TestCanonicalCandidates:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_every_tournament(self, m):
        for s in enumerate_selections(m, 2):
            assert canonical_candidates(s) == brute_candidates(s)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_arity_three(self, m):
        rng = random.Random(f"candidates-{m}")
        subs = list(combinations(range(m), 3))
        for _ in range(20):
            s = SelectionStructure(ground_range(m), 3, tuple(rng.choice(t) for t in subs))
            assert canonical_candidates(s) == brute_candidates(s)
        # "min" never picks the two largest indices; the other scores differ
        assert canonical_candidates(selection_from_order(ground_range(m), 3, "min")) == 2


class TestJointIsomorphism:
    """Several levels of one arity are labeled together: each leaf
    relabels every level on its own table."""

    def test_same_arity_levels_are_told_apart(self):
        g = ground_range(3)
        lo, rot = selection_from_order(g, 2, "min"), rotational_tournament(3)
        assert joint_isomorphism((lo, lo), (lo, rot)) is None
        assert joint_isomorphism((lo, rot), (rot, lo)) is None
        phi = joint_isomorphism((lo, lo), (lo, lo))
        assert phi is not None and is_isomorphism(lo, lo, phi)

    @pytest.mark.parametrize("seed", range(60))
    def test_same_arity_levels_against_brute_force(self, seed):
        # half the targets are one relabeling of every level, some with
        # one pick changed; the answer is checked against all m! maps
        rng = random.Random(f"same-arity-{seed}")
        m = rng.randint(2, 5)
        n = rng.randint(2, m)
        subs = list(combinations(range(m), n))

        def level():
            return SelectionStructure(ground_range(m), n, tuple(rng.choice(x) for x in subs))

        gs = [level() for _ in range(rng.randint(2, 3))]
        if seed % 2:
            perm = list(range(m))
            rng.shuffle(perm)
            ts = [SelectionStructure(ground_range(m), n, oracle_relabel(g, tuple(perm))) for g in gs]
            if seed % 4 == 3:
                k, r = rng.randrange(len(ts)), rng.randrange(len(subs))
                picks = list(ts[k].picks)
                picks[r] = rng.choice(subs[r])
                ts[k] = SelectionStructure(ground_range(m), n, tuple(picks))
        else:
            ts = [level() for _ in gs]
        maps = [perm for perm in permutations(range(m))
                if all(oracle_relabel(g, perm) == t.picks for g, t in zip(gs, ts))]
        phi = joint_isomorphism(gs, ts)
        assert (phi is None) == (not maps)
        if phi is not None:
            assert phi.apply_indices() in maps


class TestEnumeration:
    def test_labeled_count(self):
        assert sum(1 for _ in enumerate_selections(4, 2)) == 64

    def test_iso_count(self):
        reps = list(enumerate_selections(4, 2, up_to_iso=True))
        assert len(reps) == 4
        keys = {canonical_form(r)[0].picks for r in reps}
        assert len(keys) == 4

    def test_small_arity_three(self):
        assert sum(1 for _ in enumerate_selections(3, 3)) == 3

    def test_budget_binds_mid_stream(self):
        # 64 * 6 = 384 table cells fit the budget; the third class's
        # orbit of 4! relabelings does not
        got = []
        with pytest.raises(BudgetExceeded, match="^budget 400 exhausted mid-stream$"):
            got.extend(enumerate_selections(4, 2, up_to_iso=True, budget=400))
        assert len(got) == 2

    def test_budget_guard_is_eager(self):
        with pytest.raises(BudgetExceeded):
            next(iter(enumerate_selections(6, 3)))

    @pytest.mark.parametrize("m, n, budget", [(40, 20, 10**8), (30, 10, 10**8), (22, 11, 1), (10**6, 3, 10**30)])
    def test_budget_checked_before_any_table(self, monkeypatch, m, n, budget):
        def forbidden(*args):
            raise RuntimeError("subset_ranks called before the budget check")

        monkeypatch.setattr(structures, "subset_ranks", forbidden)
        with pytest.raises(BudgetExceeded) as info:
            enumerate_selections(m, n, budget=budget)
        assert len(str(info.value)) < 200

    def test_eager_check_is_exact(self, monkeypatch):
        # C(4, 2) = 6 cells a structure; 2**6 structures in all
        assert len(list(enumerate_selections(4, 2, budget=64 * 6))) == 64
        with pytest.raises(BudgetExceeded):
            enumerate_selections(4, 2, budget=64 * 6 - 1)

        def forbidden(*args):
            raise RuntimeError("subset_ranks called before the budget check")

        # C(12, 6) = 924 cells a structure; 2**924 structures in all
        monkeypatch.setattr(structures, "subset_ranks", forbidden)
        with pytest.raises(BudgetExceeded):
            enumerate_selections(12, 6, budget=10**40)

    @pytest.mark.parametrize("m, n", SMALL_SPACES)
    def test_iso_one_record_per_class_in_order(self, monkeypatch, m, n):
        def forbidden(*args):
            raise RuntimeError("enumerate_selections keys classes without canonical_form")

        with monkeypatch.context() as patched:
            patched.setattr(structures, "canonical_form", forbidden)
            records = list(enumerate_selections(m, n, up_to_iso=True))
        classes = oracle_classes(m, n)
        assert len(records) == len(classes)
        assert all(r.picks in orbit for r, orbit in zip(records, classes))
        assert len({id(r.ground) for r in records}) == 1
        assert all(canonical_form(r)[0] == r for r in records)

    def test_iso_meter(self):
        # 2^10 indices walked at 10 cells, 12 classes at 5! * 10 cells
        cells = 2**10 * 10 + 12 * 120 * 10
        assert len(list(enumerate_selections(5, 2, up_to_iso=True, budget=cells))) == 12
        with pytest.raises(BudgetExceeded):
            list(enumerate_selections(5, 2, up_to_iso=True, budget=cells - 1))

    def test_iso_seven_tournaments_within_default_budget(self, tmp_path):
        # the one tier-1 class stream on 4-byte slots: 2**21 indices
        out = tmp_path / "iso.json"
        assert main(["enumerate", "7", "2", "--iso", "--output", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["count"] == len(result["records"]) == 456  # OEIS A000568
        records = [read_selection(rec) for rec in result["records"]]
        assert all(canonical_form(s)[0].picks == s.picks for s in records)
        assert len({s.picks for s in records}) == 456

    @pytest.mark.parametrize("m, n", SMALL_SPACES)
    def test_selection_texts_render_each_structure(self, m, n):
        # every labeled structure, on its int ground and on str and
        # Fraction grounds, interleaved so the per-ground tables alternate
        # (dumps is json's rendering with these options:
        # test_documents_cli)
        labeled = list(enumerate_selections(m, n))
        grounds = (labeled[0].ground, GroundSet(tuple('"\\\x00\u00e9\ud800x7'[:m])),
                   GroundSet(tuple(Fraction(i, 3) for i in range(m))))
        batch = [SelectionStructure(g, n, s.picks) if g is not s.ground else s
                 for s in labeled for g in grounds]
        render = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        assert selection_texts(batch) == [render(write_selection(s)) for s in batch]

    @pytest.mark.parametrize("m, n", SMALL_SPACES)
    def test_labeled_order(self, m, n):
        got = list(enumerate_selections(m, n))
        assert [s.picks for s in got] == list(product(*combinations(range(m), n)))
        assert len({id(s.ground) for s in got}) == 1

    @pytest.mark.parametrize("m, n, budget", [(8, 3, 10**30), (7, 3, 10**19), (9, 2, 10**13)])
    def test_byte_map_refused_before_any_table(self, monkeypatch, m, n, budget):
        # n**C(m, n) indices, more than 2**32, within the budget
        def forbidden(*args):
            raise RuntimeError("subset_ranks called before the byte map check")

        monkeypatch.setattr(structures, "subset_ranks", forbidden)
        with pytest.raises(OutOfRange, match=f"^{n ** math.comb(m, n)} indices exceed the class "
                                             r"stream's byte map of 2\*\*32$"):
            enumerate_selections(m, n, up_to_iso=True, budget=budget)

    def test_byte_map_refusal_exits_two(self, capsys):
        assert main(["enumerate", "8", "3", "--iso", "--budget", str(10**30)]) == 2
        assert capsys.readouterr().err == (
            f"hypersel: {3 ** 56} indices exceed the class stream's byte map of 2**32\n"
        )


class TestPackedColumns:
    @pytest.mark.parametrize("total, width", [
        (1, 1), (2**8, 1), (2**8 + 1, 2), (2**16, 2), (2**16 + 1, 4), (2**32, 4),
    ])
    def test_narrowest_slot_holding_the_last_index(self, total, width):
        got, code = structures._slot(total)
        assert got == width
        assert memoryview(bytes(width)).cast(code).itemsize == width

    def test_no_slot_past_four_bytes(self):
        with pytest.raises(OutOfRange, match=r"byte map of 2\*\*32$"):
            structures._slot(2**32 + 1)

    @pytest.mark.parametrize("m, n, width", [(3, 2, 1), (5, 3, 2), (6, 2, 2), (7, 2, 4)])
    def test_orbit_sums_unpack_to_the_columns(self, m, n, width):
        count = math.comb(m, n)
        got, code = structures._slot(n**count)
        assert got == width
        columns = structures._relabeling_columns(m, n)
        packed = structures._packed_columns(m, n, code)
        rng = random.Random(f"packed-{m}-{n}")
        vectors = [[0] * count, [n - 1] * count]
        vectors += [[rng.randrange(n) for _ in range(count)] for _ in range(30)]
        for digits in vectors:
            orbit = sum(packed[r][d] for r, d in enumerate(digits))
            raw = orbit.to_bytes(math.factorial(m) * width, sys.byteorder)
            terms = [columns[r][d] for r, d in enumerate(digits)]
            assert list(memoryview(raw).cast(code)) == list(map(sum, zip(*terms))), digits


class TestMasks:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 6).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, 2 ** (m * (m - 1) // 2) - 1))
    ))
    def test_roundtrip(self, mn):
        m, mask = mn
        assert mask_from_tournament(tournament_from_mask(mask, m)) == mask

    def test_packing_needs_arity_two(self):
        with pytest.raises(NotArityTwo, match="^mask packing needs arity 2, got 3$"):
            mask_from_tournament(selection_from_order(ground_range(3), 3, "min"))


class TestRegularTournaments:
    def test_count_three(self):
        assert len(regular_masks_exhaustive(3)) == 2

    def test_count_five_backtracking_agrees(self):
        found = regular_tournaments(5)
        assert [mask_from_tournament(t) for t in found] == regular_masks_exhaustive(5)
        assert len(found) == 24

    def test_all_regular(self):
        for t in regular_tournaments(5):
            assert is_regular(t)

    def test_one_shared_ground(self):
        found = regular_tournaments(7)
        assert len({id(t.ground) for t in found}) == 1
        assert found[0].ground == ground_range(7)

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_points_out_of_range(self, m):
        with pytest.raises(OutOfRange):
            regular_tournaments(m)

    def test_two_points_have_none(self):
        assert regular_tournaments(2) == [] and regular_masks_exhaustive(2) == []
