import hashlib
import io
import math
import random
import re
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel.errors import (
    ArityMismatch,
    ArityNotInDomain,
    BrokenInvariant,
    ChoiceOutsideSubset,
    HypothesisViolated,
    MissingSubset,
    NotIso,
    NotPrime,
    OutOfRange,
    RegularInput,
    SizeMismatch,
)
from hypersel import extension, structures
from hypersel.cli import main
from hypersel.documents import dumps, write_partial
from hypersel.obstruction import is_prime
from hypersel.extension import (
    PartialSelection,
    certified_isomorphism,
    equivariance_check,
    extend_selection,
    least_small_class,
    make_partial,
    order_partial,
    partition_types,
    random_partial,
    restrict,
)
from hypersel.structures import (
    GroundSet,
    IsoMap,
    SelectionStructure,
    canonical_form,
    ground_range,
    is_isomorphism,
    make_selection,
    rotational_tournament,
    score_vector,
    selection_from_order,
    subset_ranks,
)

from oracles import (
    oracle_canonical,
    oracle_extend_value,
    oracle_joint_isomorphism,
    oracle_make_partial,
    oracle_relabel,
    oracle_restrict,
    oracle_respects,
    three_cycles9,
)


def tournament_partial(edges, m, extra=None):
    """Up-to-2 selection on 0..m-1 from a winner table for pairs."""
    table = {frozenset({i}): i for i in range(m)}
    for pair, win in edges.items():
        table[frozenset(pair)] = win
    if extra:
        table.update(extra)
    bound = max(len(k) for k in table)
    return make_partial(ground_range(m), "upto", bound, table)


def full_table(m, sizes):
    """{subset: its least element} on every subset of range(m) whose size
    is in sizes."""
    return {frozenset(s): s[0] for k in sizes for s in combinations(range(m), k)}


def without(table, subset):
    return {k: v for k, v in table.items() if k != frozenset(subset)}


def collapsed_keys():
    table = {tuple(k): v for k, v in full_table(3, (1, 2)).items()}
    table[(1, 0)] = 0  # the same set as (0, 1)
    return table


# (case, carrier size, mode, bound, table, error make_partial raises)
REJECTED = [
    ("collapsed keys", 3, "upto", 2, collapsed_keys(), MissingSubset),
    ("size not admitted, upto", 3, "upto", 2, full_table(3, (1, 2, 3)), MissingSubset),
    ("size not admitted, exact", 3, "exact", 2, full_table(3, (1, 2)), MissingSubset),
    ("label outside the carrier", 2, "upto", 1, {**full_table(2, (1,)), frozenset({9}): 9}, OutOfRange),
    ("missing subset", 3, "upto", 2, without(full_table(3, (1, 2)), {0, 2}), MissingSubset),
    ("pick outside its subset", 3, "upto", 2, {**full_table(3, (1, 2)), frozenset({1, 2}): 0}, ChoiceOutsideSubset),
    ("singleton picks another label", 2, "upto", 1, {**full_table(2, (1,)), frozenset({1}): 0}, ChoiceOutsideSubset),
    ("bound above the carrier, upto", 3, "upto", 4, full_table(3, (1, 2, 3)), OutOfRange),
    ("bound above the carrier, exact", 3, "exact", 4, {}, OutOfRange),
    ("exact with bound 0", 3, "exact", 0, {}, OutOfRange),
    ("exact 0, empty carrier", 0, "exact", 0, {}, OutOfRange),
    ("negative bound", 2, "upto", -1, {}, OutOfRange),
    ("unknown mode", 2, "sometimes", 1, full_table(2, (1,)), OutOfRange),
]


class TestPartialSelection:
    def test_upto_covers_all_small_sizes(self):
        f = order_partial(ground_range(5), 3, "min")
        assert list(f.admissible_sizes()) == [1, 2, 3]
        assert f.choose((4, 2)) == 2

    def test_exact_mode_single_size(self):
        f = order_partial(ground_range(5), 3, "max", mode="exact")
        assert list(f.admissible_sizes()) == [3]
        with pytest.raises(ArityNotInDomain):
            f.choose((0, 1))

    def test_choose_reads_through_its_level(self):
        f = order_partial(GroundSet(("a", "b", "c")), 2, "min")
        assert f.choose(iter(["c", "b"])) == "b"
        with pytest.raises(OutOfRange, match=r"^\['a', 'a'\] is not a 2-subset$"):
            f.choose(["a", "a"])
        with pytest.raises(ArityNotInDomain):
            f.choose(["a", "b", "b"])

    def test_missing_subset_rejected(self):
        table = {frozenset({i}): i for i in range(3)}
        table[frozenset({0, 1})] = 0
        table[frozenset({0, 2})] = 2
        with pytest.raises(MissingSubset):
            make_partial(ground_range(3), "upto", 2, table)

    def test_outside_choice_rejected(self):
        table = {frozenset({i}): i for i in range(3)}
        for pair in combinations(range(3), 2):
            table[frozenset(pair)] = min(pair)
        table[frozenset({1, 2})] = 0
        with pytest.raises(ChoiceOutsideSubset):
            make_partial(ground_range(3), "upto", 2, table)

    def test_singletons_forced_to_identity(self):
        table = {frozenset({0}): 0, frozenset({1}): 0}
        with pytest.raises(ChoiceOutsideSubset):
            make_partial(ground_range(2), "upto", 1, table)

    @pytest.mark.parametrize(
        "m, mode, bound, table, error", [c[1:] for c in REJECTED], ids=[c[0] for c in REJECTED]
    )
    def test_make_partial_rejects(self, m, mode, bound, table, error):
        with pytest.raises(error) as info:
            make_partial(ground_range(m), mode, bound, table)
        assert type(info.value) is error

    @pytest.mark.parametrize("key, pick, label", [
        ({1, "x"}, 1, "'x'"), ({0, 1}, 7, "7"), ({7}, 7, "7"),
    ], ids=["subset", "pick", "singleton"])
    def test_make_partial_names_a_label_outside(self, key, pick, label):
        # one label outside per key, so set order cannot pick the one
        # named; it is named before the missing subset {0, 2}
        table = without(full_table(3, (1, 2)), {0, 2})
        table[frozenset(key)] = pick
        with pytest.raises(OutOfRange, match=f"^{label} is not a label of the ground$"):
            make_partial(ground_range(3), "upto", 2, table)

    @pytest.mark.parametrize(
        "m, mode, bound, table",
        [c[1:5] for c in REJECTED] + [
            (2, "upto", 2, {**full_table(2, (1, 2)), frozenset({0, 1}): 9}),
            (3, "upto", 2, {**without(full_table(3, (1, 2)), {1, 2}), frozenset({1, 7}): 1}),
            (3, "exact", 2, {**full_table(3, (2,)), frozenset({7, 8}): 7}),
        ],
        ids=[c[0] for c in REJECTED] + ["foreign pick", "foreign label in place", "foreign extra"],
    )
    def test_messages_match_the_label_table(self, m, mode, bound, table):
        with pytest.raises(Exception) as want:
            oracle_make_partial(ground_range(m), mode, bound, table)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            make_partial(ground_range(m), mode, bound, table)

    @pytest.mark.parametrize("build, bound", [
        (lambda g, b: order_partial(g, b, "min", "exact"), 0),
        (lambda g, b: order_partial(g, b, "min", "exact"), -1),
        (lambda g, b: random_partial(g, b, random.Random(1), "exact"), 0),
        (lambda g, b: random_partial(g, b, random.Random(1), "exact"), -2),
    ], ids=["order_partial-0", "order_partial--1", "random_partial-0", "random_partial--2"])
    def test_builders_reject_a_bound_before_any_level(self, build, bound):
        with pytest.raises(OutOfRange, match=f"^bound must be an int in 1..3, got {bound}$"):
            build(ground_range(3), bound)

    @pytest.mark.parametrize("bound", [0, 2])
    def test_order_partial_rejects_an_unknown_rule(self, bound):
        # bound 0 builds no level, so the rule is checked on its own
        with pytest.raises(OutOfRange, match="^rule must be 'min' or 'max', got 'mid'$"):
            order_partial(ground_range(3), bound, "mid")

    def test_upto_zero_on_empty_carrier_is_the_empty_selection(self):
        f = make_partial(ground_range(0), "upto", 0, {})
        assert f.levels == {} and list(f.admissible_sizes()) == []
        assert not f.admits(1)

    def test_levels_are_selection_structures(self):
        f = make_partial(ground_range(4), "upto", 2, full_table(4, (1, 2)))
        assert f.levels == {
            n: selection_from_order(ground_range(4), n, "min") for n in (1, 2)
        }
        assert f == order_partial(ground_range(4), 2, "min")

    def test_levels_checked_against_mode_and_carrier(self):
        carrier = ground_range(4)
        level = {n: selection_from_order(carrier, n, "min") for n in (1, 2)}
        with pytest.raises(MissingSubset):
            PartialSelection(carrier, "upto", 2, {1: level[1]})
        with pytest.raises(ArityMismatch):
            PartialSelection(carrier, "upto", 2, {1: level[1], 2: level[1]})
        other = selection_from_order(ground_range(5), 2, "min")
        with pytest.raises(ArityMismatch):
            PartialSelection(carrier, "upto", 2, {1: level[1], 2: other})


class TestRestrict:
    def test_restriction_agrees_pointwise(self):
        f = order_partial(ground_range(6), 2, "min")
        s = restrict(f, (1, 3, 5), 2)
        assert s.ground.labels == (1, 3, 5)
        for pair in combinations((1, 3, 5), 2):
            assert s.choose(pair) == f.choose(pair)

    def test_arity_guard(self):
        f = order_partial(ground_range(6), 2, "min")
        with pytest.raises(ArityNotInDomain):
            restrict(f, (0, 1, 2), 3)

    @pytest.mark.parametrize("labels", [
        ("q", "b", "zz", "a", "m", "c", "x"),
        (7, 3, 12, 0, 5, 9, 1),
        tuple(Fraction(n, d) for n, d in [(3, 4), (-1, 2), (5, 3), (0, 1), (7, 8), (-9, 4), (2, 5)]),
    ], ids=["strings", "shuffled ints", "fractions"])
    @pytest.mark.parametrize("mode, bound", [("upto", 4), ("exact", 3)])
    def test_matches_oracle(self, labels, mode, bound):
        # every subset of every size, in a shuffled label order, at
        # every arity the selection admits
        rng = random.Random(f"{labels}-{mode}")
        f = random_partial(GroundSet(labels), bound, rng, mode=mode)
        checked = 0
        for size in range(1, len(labels) + 1):
            for sub in combinations(labels, size):
                sub = list(sub)
                rng.shuffle(sub)
                for n in f.levels:
                    if n <= size:
                        assert restrict(f, sub, n) == oracle_restrict(f, sub, n)
                        checked += 1
        assert checked == (410 if mode == "upto" else 99)

    def test_arity_guard_matches_oracle(self):
        f = random_partial(GroundSet(("a", "b", "c", "d")), 2, random.Random(4), mode="exact")
        for n in (1, 3):
            for restriction in (restrict, oracle_restrict):
                with pytest.raises(ArityNotInDomain):
                    restriction(f, ("d", "a", "c"), n)


class TestLeastSmallClass:
    def test_transitive_scores(self):
        # scores (3,2,1,0): level 0 is the first with size <= m/2
        g = make_selection(
            ground_range(4), 2,
            {frozenset(p): min(p) for p in combinations(range(4), 2)},
        )
        assert score_vector(g) == (3, 2, 1, 0)
        r0, q = least_small_class(g, 4)
        assert r0 == 0 and q == frozenset({3})

    def test_two_two_one_one(self):
        g = make_selection(
            ground_range(4), 2,
            {
                frozenset({0, 1}): 0, frozenset({0, 2}): 0,
                frozenset({1, 2}): 1, frozenset({1, 3}): 1,
                frozenset({2, 3}): 2, frozenset({0, 3}): 3,
            },
        )
        assert score_vector(g) == (2, 2, 1, 1)
        r0, q = least_small_class(g, 4)
        assert r0 == 1 and q == frozenset({2, 3})

    def test_regular_input_rejected(self):
        with pytest.raises(RegularInput):
            least_small_class(rotational_tournament(5), 5)

    def test_ground_size_checked(self):
        with pytest.raises(SizeMismatch, match="^structure lives on 3 elements, not 4$"):
            least_small_class(selection_from_order(ground_range(3), 2, "min"), 4)
        # an m past the interpreter's digit limit is named by its bit length
        with pytest.raises(SizeMismatch, match="^structure lives on 3 elements, not an int of 16610 bits$"):
            least_small_class(selection_from_order(ground_range(3), 2, "min"), 10**5000)


def least_small_scan(w):
    """The scan the level-class rule was first written as: the least r
    with 0 < 2 * |{i : w[i] == r}| <= len(w), and that class."""
    for r in range(max(w) + 1):
        q = [i for i, v in enumerate(w) if v == r]
        if 0 < 2 * len(q) <= len(w):
            return r, q
    return None


class TestLeastSmallLevel:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 6), min_size=1, max_size=12),
        # constant scores: no level class qualifies
        st.builds(lambda v, k: [v] * k, st.integers(0, 6), st.integers(1, 12)),
        # the least score's class holds more than half the positions
        st.builds(lambda low, rest: [0] * (len(rest) + low) + rest,
                  st.integers(1, 4), st.lists(st.integers(1, 6), min_size=1, max_size=8)),
    ), st.randoms(use_true_random=False))
    def test_agrees_with_the_scan(self, w, rng):
        rng.shuffle(w)
        expected = least_small_scan(w)
        blocks = structures._score_blocks(w)
        if expected is None:
            with pytest.raises(BrokenInvariant, match="^constant scores have no small level class$"):
                extension._least_small_level(blocks, len(w))
        else:
            q = extension._least_small_level(blocks, len(w))
            assert (w[q[0]], q) == expected


class TestSubsetScores:
    """extension.scored_subsets: one (s, w, r) per m-subset, in rank order."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_equal_restriction_scores(self, size, bound, seed):
        # every subset of every level of a random up-to-3 selection
        labels = tuple(f"x{i}" for i in range(size))
        f = random_partial(GroundSet(labels), min(bound, size), random.Random(seed))
        for n in f.admissible_sizes():
            for k in range(n, size + 1):
                walk = list(extension.scored_subsets(f.level(n), k))
                assert [s for s, _, _ in walk] == list(combinations(range(size), k))
                for s, w, r in walk:
                    g = restrict(f, [labels[i] for i in s], n)
                    assert w == list(score_vector(g))
                    # the restriction scored is yielded, except on a pair level
                    assert r == (None if n == 2 else g.picks)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 14), st.integers(2, 3), st.randoms(use_true_random=False))
    def test_pair_beats_score_as_the_rank_walk(self, size, n, rng):
        # random levels and subset sizes: the beats popcounts at n = 2 and
        # the restriction's picks at n = 3 equal the rank-order walk
        # spelled out here
        n = min(n, size)
        subs, rank = subset_ranks(size, n)
        level = structures.SelectionStructure(ground_range(size), n, tuple(map(rng.choice, subs)))
        m = rng.randint(n, size)
        walk = list(extension.scored_subsets(level, m))
        assert [s for s, _, _ in walk] == list(combinations(range(size), m))
        for s, w, _ in walk:
            spelled = [0] * m
            for t in combinations(s, n):
                spelled[s.index(level.picks[rank[t]])] += 1
            assert w == spelled


class TestPartitionTypes:
    def test_min_rule_single_class(self):
        f = order_partial(ground_range(6), 2, "min")
        parts = partition_types(f, 4, 2)
        assert len(parts.classes) == 1
        members = next(iter(parts.classes.values()))
        assert len(members) == 15

    def test_members_cover_all_subsets(self):
        f = random_partial(ground_range(6), 3, random.Random(7))
        parts = partition_types(f, 4, 2)
        seen = sorted(t for ms in parts.classes.values() for t in ms)
        subs, _ = subset_ranks(6, 4)
        assert seen == sorted(subs)

    def test_m_above_the_carrier_rejected(self):
        f = order_partial(ground_range(8), 3, "min")
        with pytest.raises(OutOfRange, match="^m must be an int in 2..8, got 9$"):
            partition_types(f, 9, 2)

    def test_arity_outside_the_mode_raises_before_m_range(self):
        f = order_partial(ground_range(4), 2, "min", mode="exact")
        with pytest.raises(ArityNotInDomain, match="^arity 1 not admitted by mode exact$"):
            partition_types(f, 9, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 7),
        st.sampled_from(["strings", "fractions"]),
        st.integers(2, 3),
        st.data(),
    )
    def test_index_path_equals_labeled_path(self, size, kind, n, data):
        # keys are the canonical forms of the labeled restrictions, and the
        # classes group members as the exhaustive oracle does
        if kind == "strings":
            labels = tuple(f"v{i}" for i in range(size))
        else:
            labels = tuple(Fraction(3 * i - 4, i + 2) for i in range(size))
        f = random_partial(GroundSet(labels), 3, random.Random(data.draw(st.integers(0, 10**6))))
        m = data.draw(st.integers(n, size))
        assert_agrees_with_oracle(f, m, n)

    @pytest.mark.parametrize(
        "name,m",
        [("rot7", 4), ("rot7", 6), ("rot7", 7), ("rot9", 4), ("rot9", 6),
         ("cycles9", 4), ("cycles9", 6)],
    )
    def test_index_path_equals_labeled_path_on_regular_pair_levels(self, name, m):
        # regular pair levels: refinement leaves whole cells unsplit, so the
        # search on the level's beats branches and prunes by automorphisms
        # (rot7 at m = 7 is vertex-transitive; a 6-subset of cycles9 that
        # keeps two whole 3-cycles cannot be split by refinement)
        size = 7 if name == "rot7" else 9
        carrier = GroundSet(tuple(f"v{i}" for i in range(size)))
        levels = dict(random_partial(carrier, 3, random.Random(51)).levels)
        pairs = rotational_tournament(size).picks if name != "cycles9" else three_cycles9()
        levels[2] = SelectionStructure(carrier, 2, pairs)
        f = PartialSelection(carrier, "upto", 3, levels)
        parts = assert_agrees_with_oracle(f, m, 2)
        if name == "rot7" and m == 7:
            assert len(parts.classes) == 1

    def test_golden_pair_partition(self):
        # class count and the SHA-256 of the ordered (key picks, members)
        # list, computed by labeling each subset's restriction
        parts = partition_types(random_partial(ground_range(12), 2, random.Random(51)), 8, 2)
        ordered = [(key.picks, members) for key, members in parts.classes.items()]
        assert len(parts.classes) == 403
        assert hashlib.sha256(repr(ordered).encode()).hexdigest() == (
            "5e28fce8c077968656b9226e68c979d2371a9a49632acbe5a93ffefdc01559fe"
        )



class TestRestrictionsBuiltOnce:
    """At n >= 3 the walk builds each m-subset's restriction once, to
    score it, and the label step reads that one (scored_subsets)."""

    @staticmethod
    def counted(monkeypatch) -> list:
        calls = []
        real = extension._restriction

        def restriction(level, s):
            calls.append(s)
            return real(level, s)

        monkeypatch.setattr(extension, "_restriction", restriction)
        return calls

    def test_partition(self, monkeypatch):
        f = random_partial(ground_range(8), 3, random.Random(50))
        calls = self.counted(monkeypatch)
        partition_types(f, 6, 3)
        assert calls == list(combinations(range(8), 6))

    @pytest.mark.parametrize("size, bound, m", [(6, 3, 6), (8, 3, 6), (10, 5, 9)])
    def test_extend_op(self, monkeypatch, tmp_path, size, bound, m):
        carrier = GroundSet(tuple(f"v{i}" for i in range(size)))
        path = tmp_path / "partial.json"
        path.write_text(dumps(write_partial(random_partial(carrier, bound, random.Random(50)))))
        calls = self.counted(monkeypatch)
        with redirect_stdout(io.StringIO()):
            assert main(["extend", str(path), str(m), "3"]) == 0
        assert len(calls) == math.comb(size, m)

def assert_agrees_with_oracle(f, m, n):
    """partition_types(f, m, n) groups members as the exhaustive oracle
    does, in the same order, and each key is the canonical form of each
    member's labeled restriction, all on one shared ground."""
    parts = partition_types(f, m, n)
    oracle: dict = {}
    canon: dict = {}  # restriction picks -> oracle_canonical: equal picks, equal forms
    for member in combinations(f.carrier.labels, m):
        g = oracle_restrict(f, member, n)
        if g.picks not in canon:
            canon[g.picks] = oracle_canonical(g)
        oracle.setdefault(canon[g.picks], []).append(member)
    assert list(parts.classes.values()) == list(oracle.values())
    for key, members in parts.classes.items():
        for member in members:
            assert key == canonical_form(restrict(f, member, n))[0]
    assert len({id(key.ground) for key in parts.classes}) == 1
    return parts


class TestExtendSelection:
    def test_min_on_six_picks_max(self):
        # scores of a min restriction decrease with the label, so the
        # smallest level class is the largest element
        f = order_partial(ground_range(6), 2, "min")
        h = extend_selection(f, 4, 2)
        assert h.mode == "exact" and h.bound == 4
        for sub in combinations(range(6), 4):
            assert h.choose(sub) == max(sub)

    def test_min_on_seven_arity_six(self):
        f = order_partial(ground_range(7), 3, "min")
        h = extend_selection(f, 6, 3)
        for sub in combinations(range(7), 6):
            ordered = sorted(sub)
            assert h.choose(sub) == ordered[-2]

    def test_worked_tournament_example(self):
        f = tournament_partial(
            {
                (0, 1): 0, (0, 2): 0, (1, 2): 1,
                (1, 3): 1, (2, 3): 2, (0, 3): 3,
            },
            4,
        )
        h = extend_selection(f, 4, 2)
        assert h.choose((0, 1, 2, 3)) == 2

    @pytest.mark.parametrize(
        "seed,k,m,p", [(1, 2, 4, 2), (2, 3, 6, 2), (3, 3, 6, 3), (4, 4, 8, 2)]
    )
    def test_matches_oracle(self, seed, k, m, p):
        f = random_partial(ground_range(8), k, random.Random(seed))
        h = extend_selection(f, m, p)
        for sub in combinations(range(8), m):
            assert h.choose(sub) == oracle_extend_value(f, sub, p)

    @pytest.mark.parametrize(
        "labels",
        [
            ("q", "b", "zz", "a", "m", "c", "x", "k"),
            (7, 3, 12, 0, 5, 9, 1, 4),
            tuple(Fraction(n, d) for n, d in [(3, 4), (-1, 2), (5, 3), (0, 1), (7, 8), (-9, 4), (2, 5)]),
        ],
        ids=["strings", "shuffled ints", "fractions"],
    )
    @pytest.mark.parametrize("k,m,p", [(2, 4, 2), (3, 6, 3), (3, 6, 2)])
    def test_matches_oracle_on_labels_that_are_not_indices(self, labels, k, m, p):
        f = random_partial(GroundSet(labels), k, random.Random(f"{labels}-{k}"))
        h = extend_selection(f, m, p)
        for sub in combinations(labels, m):
            assert h.choose(sub) == oracle_extend_value(f, sub, p)

    def test_runs_without_isomorphism_types(self, monkeypatch):
        def forbidden(*args):
            raise RuntimeError("extend_selection needs no isomorphism type")

        f = random_partial(ground_range(8), 2, random.Random(9))
        with monkeypatch.context() as patched:
            for name in ("restrict", "_canonical_labeling", "partition_types"):
                patched.setattr(extension, name, forbidden)
            h = extend_selection(f, 4, 2)
        for sub in combinations(range(8), 4):
            assert h.choose(sub) == oracle_extend_value(f, sub, 2)

    def test_labels_each_subset_once_on_indices(self, monkeypatch):
        # a pair level is labeled on its own beats: one search per subset,
        # with no restriction and no structure built per subset
        searches, restrictions, built = [], [], []
        real_search = structures._labeling_search
        real_restriction = extension._restriction

        def search(refine, encode, cells):
            searches.append(sorted(x for c in cells for x in c))
            return real_search(refine, encode, cells)

        def restriction(*args):
            restrictions.append(args)
            return real_restriction(*args)

        def structure(*args):
            built.append(args)
            return SelectionStructure(*args)

        def forbidden(*args):
            raise RuntimeError("partition_types builds no labeled restriction or form")

        f = random_partial(ground_range(8), 2, random.Random(9))
        monkeypatch.setattr(structures, "_labeling_search", search)
        monkeypatch.setattr(extension, "_restriction", restriction)
        monkeypatch.setattr(extension, "SelectionStructure", structure)
        for module, name in ((extension, "restrict"), (structures, "canonical_form")):
            monkeypatch.setattr(module, name, forbidden)
        parts = partition_types(f, 4, 2)
        assert searches == [list(s) for s in combinations(range(8), 4)]  # C(8, 4): once each
        assert restrictions == []
        assert len(built) == len(parts.classes)  # the class keys only
        members = [t for ms in parts.classes.values() for t in ms]
        assert sorted(members) == list(combinations(range(8), 4))

    def test_labels_each_restriction_once_at_arity_three(self, monkeypatch):
        calls = []
        real = structures._canonical_labeling

        def counted(gs):
            calls.append(gs)
            return real(gs)

        def forbidden(*args):
            raise RuntimeError("partition_types builds no labeled restriction or form")

        monkeypatch.setattr(extension, "_canonical_labeling", counted)
        for module, name in ((extension, "restrict"), (structures, "canonical_form")):
            monkeypatch.setattr(module, name, forbidden)
        f = random_partial(ground_range(8), 3, random.Random(9))
        parts = partition_types(f, 5, 3)
        assert len(calls) == 56  # C(8, 5): once each
        assert all(len(gs) == 1 and gs[0].size == 5 for gs in calls)
        members = [t for ms in parts.classes.values() for t in ms]
        assert sorted(members) == list(combinations(range(8), 5))

    def test_builds_a_large_p_level_table_once(self, monkeypatch):
        # the 5-level's table on 16 points, C(16, 5) * 5 cells, is too
        # large to keep: it is built with the level, and each of the 16
        # 15-subsets scores the level on that table
        built = []
        real = structures.subset_ranks

        def spy(m, n):
            built.append((m, n))
            return real(m, n)

        for module in (structures, extension):
            monkeypatch.setattr(module, "subset_ranks", spy, raising=False)
        assert math.comb(16, 5) * 5 * 16 > structures._KEPT_WEIGHT
        f = random_partial(ground_range(16), 8, random.Random(16))
        h = extend_selection(f, 15, 5)
        assert built.count((16, 5)) == 1 and built.count((16, 15)) == 1
        for sub in combinations(range(16), 15):
            assert h.choose(sub) == oracle_extend_value(f, sub, 5)

    def test_rejects_composite_p(self):
        f = order_partial(ground_range(8), 4, "min")
        with pytest.raises(NotPrime):
            extend_selection(f, 8, 4)

    def test_rejects_p_beyond_bound(self):
        f = order_partial(ground_range(6), 2, "min")
        with pytest.raises(HypothesisViolated):
            extend_selection(f, 6, 3)

    def test_rejects_large_m(self):
        f = order_partial(ground_range(8), 2, "min")
        with pytest.raises(HypothesisViolated):
            extend_selection(f, 6, 2)  # m/2 = 3 > bound

    def test_rejects_nondividing_p(self):
        f = order_partial(ground_range(6), 3, "min")
        with pytest.raises(HypothesisViolated):
            extend_selection(f, 4, 3)

    def test_rejects_m_beyond_carrier(self):
        f = order_partial(ground_range(4), 2, "min")
        with pytest.raises(HypothesisViolated):
            extend_selection(f, 6, 2)

    def test_primality_tested_only_within_bound(self, monkeypatch):
        # trial division on 2**61 - 1 takes hours: a p beyond the bound,
        # or any p of an exact-mode selection, is refused before it
        seen = []

        def spy(k):
            seen.append(k)
            if k > 4:
                raise AssertionError(f"primality of {k} tested beyond the bound")
            return is_prime(k)

        monkeypatch.setattr(extension, "is_prime", spy)
        f = order_partial(ground_range(8), 4, "min")
        for p in (2**61 - 1, 10**18 + 3, 10**18, 6, 5):
            with pytest.raises(HypothesisViolated, match=f"^need p <= bound, got p={p}, bound=4$"):
                extend_selection(f, 8, p)
        exact = order_partial(ground_range(8), 4, "min", mode="exact")
        with pytest.raises(HypothesisViolated, match="^extension needs an up-to-k selection$"):
            extend_selection(exact, 8, 2**61 - 1)
        with pytest.raises(NotPrime):
            extend_selection(f, 8, 4)
        assert seen == [4]


class TestExtendComposite:
    def test_next_arity_nine(self):
        # 9 = 3*3, least prime divisor 3
        f = order_partial(ground_range(9), 8, "min")
        h = extend_selection(f, 9, 3)
        assert h.bound == 9
        ordered = tuple(range(9))
        assert h.choose(ordered) == oracle_extend_value(f, ordered, 3) == 7


class TestCertifiedIsomorphism:
    def test_same_class_members_certified(self):
        f = random_partial(ground_range(6), 2, random.Random(11))
        parts = partition_types(f, 4, 2)
        cls = max(parts.classes.values(), key=len)
        if len(cls) < 2:
            pytest.skip("seeded table came out with singleton classes")
        x, y = cls[0], cls[1]
        phi = certified_isomorphism(f, x, y)
        assert phi is not None
        assert is_isomorphism(restrict(f, x, 2), restrict(f, y, 2), phi)

    def test_distinct_types_fail(self):
        # {0,1,2} is a cycle, {0,3,4} is transitive
        f = tournament_partial(
            {
                (0, 1): 1, (1, 2): 2, (0, 2): 0,
                (0, 3): 0, (1, 3): 1, (2, 3): 2,
                (0, 4): 0, (1, 4): 1, (2, 4): 2, (3, 4): 3,
            },
            5,
        )
        assert certified_isomorphism(f, (0, 1, 2), (0, 3, 4)) is None
        phi = certified_isomorphism(f, (0, 3, 4), (1, 3, 4))
        assert phi is not None

    def test_different_sizes_fail(self):
        f = order_partial(ground_range(8), 3, "min")
        assert certified_isomorphism(f, (0, 1), (2, 3, 4)) is None

    def test_equivariance_on_extension(self):
        f = random_partial(ground_range(6), 2, random.Random(3))
        h = extend_selection(f, 4, 2)
        parts = partition_types(f, 4, 2)
        checked = 0
        for members in parts.classes.values():
            for x, y in zip(members, members[1:]):
                phi = certified_isomorphism(f, x, y)
                assert phi is not None
                assert equivariance_check(f, h, x, y, phi)
                checked += 1
        assert checked >= 1

    def test_equivariance_checks_only_admitted_arities(self):
        # f is defined on 3-subsets only; the pair is certified at arity 3
        f = random_partial(ground_range(6), 3, random.Random(2), mode="exact")
        h = order_partial(ground_range(6), 4, "min", mode="exact")
        x, y = (0, 1, 3, 4), (0, 2, 3, 5)
        phi = certified_isomorphism(f, x, y)
        assert phi is not None
        assert equivariance_check(f, h, x, y, phi) == (phi.apply(h.choose(x)) == h.choose(y))
        swapped = IsoMap(phi.source, phi.target, phi.images[1:] + phi.images[:1])
        assert not is_isomorphism(restrict(f, x, 3), restrict(f, y, 3), swapped)
        with pytest.raises(NotIso):
            equivariance_check(f, h, x, y, swapped)

    def test_map_on_other_subsets_rejected(self):
        f = order_partial(ground_range(8), 3, "min")
        phi = certified_isomorphism(f, (0, 1, 2), (3, 4, 5))
        with pytest.raises(NotIso, match="^map endpoints do not match the subsets$"):
            equivariance_check(f, f, (0, 1, 2), (4, 5, 6), phi)

    def test_non_isomorphism_rejected(self):
        f = order_partial(ground_range(6), 2, "min")
        h = extend_selection(f, 4, 2)

        x, y = (0, 1, 2, 3), (1, 2, 3, 4)
        bogus = IsoMap(
            restrict(f, x, 2).ground, restrict(f, y, 2).ground, (2, 1, 3, 4)
        )
        with pytest.raises(NotIso):
            equivariance_check(f, h, x, y, bogus)


def regular_pair(k, triangle):
    """(f, x, y): an up-to-2 selection on 0..2k-1 whose restrictions to
    x = 0..k-1 and y = k..2k-1 are regular tournaments: the rotational
    one on x, and on y the same with the cyclic triangle reversed."""
    rot = rotational_tournament(k)
    win = {frozenset(s): p for s, p in zip(subset_ranks(k, 2)[0], rot.picks)}
    other = dict(win)
    for e in map(frozenset, combinations(triangle, 2)):
        (loser,) = e - {win[e]}
        other[e] = loser
    edges = {}
    for i, j in combinations(range(2 * k), 2):
        if j < k:
            edges[(i, j)] = win[frozenset((i, j))]
        elif i >= k:
            edges[(i, j)] = k + other[frozenset((i - k, j - k))]
        else:
            edges[(i, j)] = i
    return tournament_partial(edges, 2 * k), tuple(range(k)), tuple(range(k, 2 * k))


def out_neighbourhood_scores(f, x):
    """Per point of x, the sorted scores inside the set it beats: an
    isomorphism invariant of f's pairs on x, as a sorted list."""
    beats = {v: {u for u in x if u != v and f.choose((u, v)) == v} for v in x}
    return sorted(tuple(sorted(len(beats[u] & beats[v]) for u in beats[v])) for v in x)


@st.composite
def partial_and_pair(draw):
    """A random selection on 6 points (upto 1..3 or exact 2..3) and two
    of its subsets of one size 2..5."""
    mode, bound = draw(st.sampled_from([("upto", 1), ("upto", 2), ("upto", 3),
                                        ("exact", 2), ("exact", 3)]))
    f = random_partial(ground_range(6), bound, random.Random(draw(st.integers(0, 2**32))), mode)
    k = draw(st.integers(2, 5))
    subsets = st.lists(st.integers(0, 5), min_size=k, max_size=k, unique=True)
    return f, draw(subsets), draw(subsets)


class TestJointIsomorphism:
    @settings(max_examples=300, deadline=None)
    @given(partial_and_pair())
    def test_agrees_with_every_bijection(self, case):
        f, x, y = case
        phi = certified_isomorphism(f, x, y)
        assert (phi is None) == (oracle_joint_isomorphism(f, x, y) is None)
        if phi is not None:
            assert sorted(phi.source.labels) == sorted(x)
            assert sorted(phi.target.labels) == sorted(y)
            assert oracle_respects(f, {v: phi.apply(v) for v in x})

    @pytest.mark.parametrize("k, triangle", [(7, (0, 2, 4)), (9, (0, 2, 5))])
    def test_regular_pair_decided_by_labelings(self, monkeypatch, k, triangle):
        # two regular tournaments, equal in every joint score: the
        # labelings tell them apart without trying a single bijection
        f, x, y = regular_pair(k, triangle)
        assert out_neighbourhood_scores(f, x) != out_neighbourhood_scores(f, y)
        calls = []

        def spy(s, t, phi):
            calls.append(phi)
            return is_isomorphism(s, t, phi)

        monkeypatch.setattr(structures, "is_isomorphism", spy)
        monkeypatch.setattr(extension, "is_isomorphism", spy)
        assert certified_isomorphism(f, x, y) is None
        assert len(calls) <= 1  # one admitted arity, 2
        assert certified_isomorphism(f, x, x) is not None
        assert len(calls) <= 2

    def test_no_admitted_arity_gives_the_order_map(self):
        f = random_partial(ground_range(6), 3, random.Random(5), mode="exact")
        phi = certified_isomorphism(f, (4, 1), (0, 5))
        assert phi.source.labels == (1, 4) and phi.images == (0, 5)

    def test_uncertified_map_is_typed(self, monkeypatch):
        # raised by an explicit check, so it holds under python -O too
        f = order_partial(ground_range(6), 3, "min")
        monkeypatch.setattr(structures, "is_isomorphism", lambda *a: False)
        with pytest.raises(
            BrokenInvariant, match="^equal canonical forms composed to a map that is not an isomorphism$"
        ):
            certified_isomorphism(f, (0, 1, 2), (3, 4, 5))


def cyclic_levels(m):
    """(pairs, triples) on 0..m-1 (m odd, not a multiple of 3), both
    invariant under i -> i + 1 mod m: the rotational tournament, and
    each triple picking the member x with the least sorted differences
    (y - x) mod m to the other two."""
    def pick(t):
        return min(t, key=lambda x: sorted((y - x) % m for y in t if y != x))

    triples = SelectionStructure(ground_range(m), 3, tuple(map(pick, subset_ranks(m, 3)[0])))
    return rotational_tournament(m), triples


class TestGoldenJointMaps:
    """The maps joint labelings of (2, 3)-levels return, recorded before
    pair entries were refined as generic entries: the map chosen among
    several isomorphisms must not move."""

    @pytest.mark.parametrize("seed, x, y, images", [
        (15, "abefg", "bcefg", "cbefg"),
        (42, "abefg", "cdefg", "ecgdf"),
        (120, "abcde", "abcdf", "abcdf"),
        (211, "abcde", "abdef", "abfde"),
        (211, "acdeg", "adefg", "afdeg"),
        (335, "abcef", "acefg", "agcef"),
    ])
    def test_certified_maps_of_seeded_partials(self, seed, x, y, images):
        # isomorphic 5-subsets of seeded up-to-3 selections on 7 labels
        f = random_partial(GroundSet(tuple("abcdefg")), 3, random.Random(seed))
        phi = certified_isomorphism(f, tuple(x), tuple(y))
        assert phi.source.labels == tuple(x) and phi.images == tuple(images)

    @pytest.mark.parametrize("perm, images", [
        ((3, 4, 0, 2, 1), "tvuwx"),
        ((6, 3, 1, 0, 5, 2, 4), "tyvxzwu"),
    ])
    def test_joint_maps_with_cyclic_automorphisms(self, perm, images):
        # each rotation gives another isomorphism onto the relabeled
        # copy: the labelings' first leaves pick one of them
        gs = cyclic_levels(len(perm))
        target = GroundSet(tuple("tuvwxyz"[:len(perm)]))
        ts = [SelectionStructure(target, g.n, oracle_relabel(g, perm)) for g in gs]
        phi = structures.joint_isomorphism(gs, ts)
        assert phi.images == tuple(images)
        assert all(is_isomorphism(g, t, phi) for g, t in zip(gs, ts))

    @pytest.mark.parametrize("levels, best, sigma", [
        (lambda: [restrict(random_partial(GroundSet(tuple("abcdefg")), 3, random.Random(42)),
                           tuple("abefg"), n) for n in (2, 3)],
         (1, 2, 0, 4, 2, 3, 4, 3, 4, 4, 1, 3, 4, 0, 4, 4, 3, 2, 3, 3), (4, 3, 2, 0, 1)),
        (lambda: cyclic_levels(5),
         (0, 0, 3, 4, 2, 1, 1, 3, 2, 4, 1, 0, 4, 2, 2, 0, 1, 4, 3, 3), (0, 3, 4, 1, 2)),
    ], ids=["seed-42-abefg", "cyclic-5"])
    def test_joint_labelings(self, levels, best, sigma):
        # the labelings the maps are composed from: a rigid pair of
        # levels fixes its maps under any invariant refinement, but not
        # the least choice tuple or the relabeling that gives it
        assert structures._canonical_labeling(levels()) == (best, sigma)
