"""The tournament mask kernels against brute-force references."""

import random

import pytest

from hypersel import _kernels
from hypersel.errors import OutOfRange
from hypersel.structures import (
    mask_from_tournament,
    rotational_tournament,
    tournament_from_mask,
)

from oracles import oracle_cycle_violation, oracle_scores

A007079 = {1: 1, 3: 2, 5: 24, 7: 2640}  # labeled regular tournaments


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
    assert len(_kernels.regular_masks_backtracking(7)) == A007079[7]


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
