"""Every int argument the library checks goes through errors.check_int: a
value that is not an int (a bool is not one) or lies outside its domain
raises OutOfRange "<name> must be an int in lo..hi, got <value>" (">= lo"
with no upper bound, nothing with no bound), and an int too long to print
is named by its bit length.  The mask readers' cases are in test_kernels.py."""

import random

import pytest

from hypersel import _kernels
from hypersel.chains import (
    build_selection_from_nice,
    derive_nice_family,
    regular_class_cover_check,
)
from hypersel.errors import OutOfRange
from hypersel.extension import (
    extend_selection,
    make_partial,
    order_partial,
    partition_types,
    random_partial,
    restrict,
)
from hypersel.obstruction import (
    divides_binom,
    is_prime,
    obstruction_table,
    prime_divisors,
    search_regular,
)
from hypersel.structures import (
    SelectionStructure,
    enumerate_selections,
    ground_range,
    index_selection,
    rotational_tournament,
    selection_from_order,
    subset_ranks,
)

from oracles import cyclic_model

HUGE = 10**5000  # past the 4,300-digit limit on printing an int
NOT_INTS = [(2.0, "2.0"), (True, "True"), (None, "None"), ("2", "'2'")]


def _system():
    return derive_nice_family(cyclic_model(), 2)


# (id, call taking the value, argument name, lo, hi): lo and hi are None
# where the domain is open; the call is given each of NOT_INTS, lo - 1,
# hi + 1 and HUGE where those lie outside the domain
GUARDED = [
    ("ground_range", lambda x: ground_range(x), "m", 0, None),
    ("subset_ranks m", lambda x: subset_ranks(x, 300), "m", 0, None),
    ("subset_ranks n", lambda x: subset_ranks(300, x), "n", 0, None),
    ("SelectionStructure", lambda x: SelectionStructure(ground_range(3), x, ()), "arity", 1, 3),
    ("index_selection", lambda x: index_selection(ground_range(3), x, {}), "arity", 1, 3),
    ("selection_from_order", lambda x: selection_from_order(ground_range(3), x, "min"), "arity", 1, 3),
    ("rotational_tournament", lambda x: rotational_tournament(x), "m", 3, None),
    ("enumerate_selections m", lambda x: enumerate_selections(x, 1), "m", 1, None),
    ("enumerate_selections n", lambda x: enumerate_selections(3, x), "arity", 1, 3),
    ("enumerate_selections budget", lambda x: enumerate_selections(3, 2, budget=x), "budget", 1, None),
    ("order_partial", lambda x: order_partial(ground_range(3), x, "min"), "bound", 0, 3),
    ("random_partial exact", lambda x: random_partial(ground_range(3), x, random.Random(1), "exact"),
     "bound", 1, 3),
    ("make_partial", lambda x: make_partial(ground_range(3), "upto", x, {}), "bound", None, None),
    ("restrict", lambda x: restrict(order_partial(ground_range(4), 2, "min"), (0, 1, 2), x),
     "n", None, None),
    ("partition_types n", lambda x: partition_types(order_partial(ground_range(4), 2, "min"), 3, x),
     "n", None, None),
    ("partition_types m", lambda x: partition_types(order_partial(ground_range(4), 2, "min"), x, 2),
     "m", 2, 4),
    ("extend_selection m", lambda x: extend_selection(order_partial(ground_range(6), 2, "min"), x, 2),
     "m", None, None),
    ("extend_selection p", lambda x: extend_selection(order_partial(ground_range(6), 2, "min"), 4, x),
     "p", None, None),
    ("is_prime", lambda x: is_prime(x), "k", None, None),
    ("prime_divisors", lambda x: prime_divisors(x), "m", 1, None),
    ("divides_binom m", lambda x: divides_binom(x, 0), "m", 1, None),
    ("divides_binom n", lambda x: divides_binom(6, x), "n", 0, 6),
    ("search_regular m", lambda x: search_regular(x, 1), "m", 1, None),
    ("search_regular n", lambda x: search_regular(5, x), "n", 1, 5),
    ("search_regular budget", lambda x: search_regular(5, 2, budget=x), "budget", 1, None),
    ("obstruction_table", lambda x: obstruction_table(x), "max_m", 2, 10**4),
    ("derive_nice_family", lambda x: derive_nice_family(cyclic_model(), x), "n", 2, 2),
    ("regular_class_cover_check", lambda x: regular_class_cover_check(_system(), x), "n", 1, None),
    ("bases key", lambda x: build_selection_from_nice(_system(), {x: (0, 0)}), "base key", 0, 0),
    ("bases family", lambda x: build_selection_from_nice(_system(), {0: (x, 0)}), "base family", 0, 0),
    ("bases member", lambda x: build_selection_from_nice(_system(), {0: (0, x)}), "base member", 0, 2),
    ("level", lambda x: order_partial(ground_range(3), 2, "min").level(x), "arity", None, None),
    ("picks_mask", lambda x: _kernels.picks_mask((), x), "m", 0, _kernels.MAX_MASK_M),
]


def _cases():
    for case, call, name, lo, hi in GUARDED:
        if lo is None:
            domain = ""
        else:
            domain = f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        bad = list(NOT_INTS)
        if lo is not None:
            bad.append((lo - 1, str(lo - 1)))
        if hi is not None:
            bad += [(hi + 1, str(hi + 1)), (HUGE, f"an int of {HUGE.bit_length()} bits")]
        for value, shown in bad:
            yield pytest.param(call, value, f"{name} must be an int{domain}, got {shown}",
                               id=f"{case}-{shown[:20]}")
    # values that gave a wrong answer, or were accepted, inside the
    # bounds the table checks
    yield pytest.param(is_prime, 2.5, "k must be an int, got 2.5", id="is_prime-2.5")
    yield pytest.param(prime_divisors, -6, "m must be an int >= 1, got -6", id="prime_divisors--6")
    yield pytest.param(lambda x: extend_selection(order_partial(ground_range(6), 2, "min"), x, 2), 0,
                       "m must be an int in 2..6, got 0", id="extend_selection m-0")


@pytest.mark.parametrize("call, value, message", list(_cases()))
def test_int_argument_checked(call, value, message):
    with pytest.raises(OutOfRange) as info:
        call(value)
    assert str(info.value) == message
