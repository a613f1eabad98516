"""The tournament mask kernels against brute-force references."""

import gc
import random
import sys
from itertools import combinations

import pytest

from hypersel import _kernels
from hypersel.errors import OutOfRange
from hypersel.structures import (
    mask_from_tournament,
    regular_tournaments,
    rotational_tournament,
    subset_ranks,
    tournament_from_mask,
)

from oracles import oracle_cycle_violation, oracle_scores

A007079 = {1: 1, 3: 2, 5: 24, 7: 2640}  # labeled regular tournaments
HUGE = 10**5000  # past the 4,300-digit limit on printing an int


def test_backend_and_entry_points():
    assert _kernels.BACKEND == "pure"
    for name in ("regular_masks_exhaustive", "regular_masks_backtracking",
                 "first_cycle_violation", "tournament_scores"):
        assert callable(getattr(_kernels, name))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_backtracking_equals_exhaustive(m):
    found = _kernels.regular_masks_backtracking(m)
    assert found == _kernels.regular_masks_exhaustive(m)
    assert len(found) == A007079.get(m, 0)


def test_backtracking_count_seven():
    # exactly the regular set: each mask is checked from the definition,
    # with no other search to agree with
    found = _kernels.regular_masks_backtracking(7)
    assert len(found) == A007079[7]
    assert all(a < b for a, b in zip(found, found[1:]))
    for mask in found:
        assert set(oracle_scores(tournament_from_mask(mask, 7)).values()) == {3}


def test_no_state_outlives_a_call():
    gc.collect()
    gc.disable()
    try:
        first = _kernels.regular_masks_backtracking(7)
        assert gc.collect() == 0
    finally:
        gc.enable()
    second = _kernels.regular_masks_backtracking(7)
    assert first == second and first is not second


@pytest.mark.parametrize("call, args, shown", [
    (_kernels.regular_masks_backtracking, (7.0,), "m must be an int in 1..11, got 7.0"),
    (_kernels.regular_masks_backtracking, (True,), "m must be an int in 1..11, got True"),
    (_kernels.regular_masks_exhaustive, (5.0,), "m must be an int in 1..11, got 5.0"),
    (_kernels.tournament_scores, (5, 3.0), "m must be an int in 1..11, got 3.0"),
    (_kernels.first_cycle_violation, (3.0, [1]), "m must be an int in 1..11, got 3.0"),
    (regular_tournaments, (7.0,), "m must be an int in 2..11, got 7.0"),
    (tournament_from_mask, (1, 3.0), "m must be an int in 0..1024, got 3.0"),
    (_kernels.mask_picks, (1, 3.0), "m must be an int in 0..1024, got 3.0"),
    (_kernels.mask_picks, (1.0, 3), "mask must be an int in 0..7, got 1.0"),
    *[(call, args, f"m must be an int in 1..11, got an int of {HUGE.bit_length()} bits")
      for call, args in [(_kernels.regular_masks_backtracking, (HUGE,)),
                         (_kernels.regular_masks_exhaustive, (HUGE,)),
                         (_kernels.tournament_scores, (0, HUGE)),
                         (_kernels.first_cycle_violation, (HUGE, []))]],
    *[(regular_tournaments, (m,), f"m must be an int in 2..11, got {shown}")
      for m, shown in [(True, "True"), (None, "None"), ("2", "'2'"), (1, "1"), (12, "12"),
                       (HUGE, f"an int of {HUGE.bit_length()} bits")]],
    *[(call, (0, m), f"m must be an int in 0..1024, got {shown}")
      for call in (_kernels.mask_picks, tournament_from_mask)
      for m, shown in [(True, "True"), (None, "None"), ("2", "'2'"), (-1, "-1")]],
    *[(_kernels.mask_picks, (mask, 3), f"mask must be an int in 0..7, got {shown}")
      for mask, shown in [(2.0, "2.0"), (True, "True"), (None, "None"), ("2", "'2'"), (-1, "-1"),
                          (8, "8"), (HUGE, f"an int of {HUGE.bit_length()} bits")]],
    # rejected before 1 << C(m,2) is built
    *[(call, (0, m), f"m must be an int in 0..1024, got {m}")
      for call in (_kernels.mask_picks, tournament_from_mask) for m in (10**50, 10**6)],
])
def test_value_that_is_not_an_int_rejected(call, args, shown):
    with pytest.raises(OutOfRange) as info:
        call(*args)
    assert str(info.value) == shown


@pytest.mark.parametrize("m", [0, _kernels.MAX_M + 1])
def test_max_size_guard(m):
    with pytest.raises(OutOfRange):
        _kernels.regular_masks_backtracking(m)
    with pytest.raises(OutOfRange):
        _kernels.regular_masks_exhaustive(m)
    with pytest.raises(OutOfRange):
        _kernels.first_cycle_violation(m, [])
    with pytest.raises(OutOfRange):
        _kernels.tournament_scores(0, m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_scores_match_recount(m):
    for mask in range(1 << (m * (m - 1) // 2)):
        w = oracle_scores(tournament_from_mask(mask, m))
        assert _kernels.tournament_scores(mask, m) == tuple(w[v] for v in range(m))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_cycle_scan_matches_oracle_on_every_mask(m):
    masks = range(1 << (m * (m - 1) // 2))
    for mask in masks:
        assert _kernels.first_cycle_violation(m, [mask]) == oracle_cycle_violation(m, [mask])
    # over a list the first violating mask wins
    assert _kernels.first_cycle_violation(m, masks) == oracle_cycle_violation(m, masks)


@pytest.mark.parametrize("m", range(6, _kernels.MAX_M + 1))
def test_cycle_scan_matches_oracle_on_random_masks(m):
    rng = random.Random(m)
    pairs = m * (m - 1) // 2
    for _ in range(300):
        mask = rng.getrandbits(pairs)
        assert _kernels.first_cycle_violation(m, [mask]) == oracle_cycle_violation(m, [mask])


def test_regular_masks_have_no_violation():
    masks = _kernels.regular_masks_backtracking(7)
    assert _kernels.first_cycle_violation(7, masks) is None
    assert oracle_cycle_violation(7, masks[:200]) is None
    rot = [mask_from_tournament(rotational_tournament(m)) for m in (9, 11)]
    assert _kernels.first_cycle_violation(9, rot[:1]) is None
    assert _kernels.first_cycle_violation(11, rot[1:]) is None


def test_no_pair_table_outlives_a_call(monkeypatch):
    tables = []
    real = _kernels._pair_bits
    monkeypatch.setattr(_kernels, "_pair_bits", lambda m: tables.append(real(m)) or tables[-1])
    _kernels.regular_masks_backtracking(7)
    _kernels.regular_masks_exhaustive(5)
    assert [len(t) for t in tables] == [7, 5]
    # each table is held by this list alone, as the control object is
    control = [object()]
    assert sys.getrefcount(tables[0]) == sys.getrefcount(tables[1]) == sys.getrefcount(control[0])


def bitwise_picks(mask: int, m: int) -> tuple:
    """The definition: bit b of the mask decides the rank-b pair (i, j),
    picking j when set."""
    return tuple(j if mask >> b & 1 else i
                 for b, (i, j) in enumerate(combinations(range(m), 2)))


def pair_count(m: int) -> int:
    return m * (m - 1) // 2


class TestMaskPicks:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_every_mask(self, m):
        for mask in range(1 << pair_count(m)):
            assert _kernels.mask_picks(mask, m) == bitwise_picks(mask, m)
            assert _kernels.picks_mask(bitwise_picks(mask, m), m) == mask

    @pytest.mark.parametrize("m", [6, 7, 8, 9, 10, 11, 13, 17])
    def test_seeded_masks(self, m):
        # C(m,2) % 8 is nonzero for each m here but 17 (136 bits): the
        # last byte is partial, or exactly full
        rng = random.Random(m)
        top = (1 << pair_count(m)) - 1
        for mask in [0, top, top >> 1, top ^ 1] + [rng.getrandbits(pair_count(m)) for _ in range(300)]:
            assert _kernels.mask_picks(mask, m) == bitwise_picks(mask, m)
            assert _kernels.picks_mask(bitwise_picks(mask, m), m) == mask

    def test_picks_of_another_length_rejected(self):
        picks = bitwise_picks(37, 4)
        for wrong in (picks[:-1], picks + (3,)):
            with pytest.raises(ValueError):
                _kernels.picks_mask(wrong, 4)

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 8, 11, 17])
    def test_one_table_per_byte(self, m):
        pairs = list(combinations(range(m), 2))
        tables = _kernels._byte_tables(m)
        # a partial last byte holds only the pairs left over
        assert [t.pairs for t in tables] == [pairs[k:k + 8] for k in range(0, len(pairs), 8)]
        assert len(tables[-1].pairs) == (len(pairs) % 8 or 8)

    def test_kept_tables_are_bounded_in_bytes(self):
        size = 0
        for m in range(2, _kernels.MAX_M + 1):
            for t in _kernels._kept_byte_tables(m):
                for v in range(1 << len(t.pairs)):
                    t[v]
                assert len(t) <= 256
                size += (sys.getsizeof(t) + sum(map(sys.getsizeof, t.values()))
                         + sys.getsizeof(t.pairs) + sum(map(sys.getsizeof, t.pairs)))
        assert size < 1_000_000
        # a larger m builds its tables for the call and keeps none
        kept = _kernels._kept_byte_tables.cache_info().currsize
        big = (1 << 44850) // 7  # 300 points
        assert _kernels.mask_picks(big, 300) == bitwise_picks(big, 300)
        tournament_from_mask(0, 12)
        assert _kernels.mask_picks(0, 1) == _kernels.mask_picks(0, 0) == ()
        assert _kernels._kept_byte_tables.cache_info().currsize == kept


class TestMaskRange:
    @pytest.mark.parametrize("m", [1, 3, 5, 7, 17])
    @pytest.mark.parametrize("high", [False, True])
    def test_rejected_by_every_reader(self, m, high):
        mask = 1 << pair_count(m) if high else -1
        message = rf"^mask must be an int in 0\.\.{(1 << pair_count(m)) - 1}, got {mask}$"
        with pytest.raises(OutOfRange, match=message):
            tournament_from_mask(mask, m)
        with pytest.raises(OutOfRange, match=message):
            _kernels.mask_picks(mask, m)
        if m <= _kernels.MAX_M:
            with pytest.raises(OutOfRange, match=message):
                _kernels.tournament_scores(mask, m)
            with pytest.raises(OutOfRange, match=message):
                _kernels.first_cycle_violation(m, [mask])

    def test_bounds_are_accepted(self):
        assert mask_from_tournament(tournament_from_mask(1023, 5)) == 1023
        assert _kernels.tournament_scores(0, 3) == (2, 1, 0)
        assert _kernels.first_cycle_violation(1, [0]) is None

    def test_huge_mask_is_not_printed(self):
        with pytest.raises(OutOfRange, match=r"^mask must be an int in 0\.\.1023, got an int of 100001 bits$"):
            tournament_from_mask(1 << 100_000, 5)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_cycle_scan_on_picked_beats_matches_oracle(m):
    # the scan check_cycle_property runs, on every mask, regular or not
    for mask in range(1 << pair_count(m)):
        picks = tournament_from_mask(mask, m).picks
        found = _kernels.cycle_scan(_kernels.beats_from_picks(subset_ranks(m, 2)[0], picks, m))
        expected = oracle_cycle_violation(m, [mask])
        assert found == (expected and expected[1:])
