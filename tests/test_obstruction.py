import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel import obstruction
from hypersel.errors import NotPrime, OutOfRange
from hypersel.obstruction import (
    ObstructionCertificate,
    TABLE_COLUMNS,
    divides_binom,
    is_prime,
    lucas_binom_mod,
    obstruction_table,
    prime_divisors,
    prime_obstruction_holds,
    regular_score_value,
    search_regular,
    table_tsv,
)
from hypersel.structures import is_regular


class TestPrimality:
    def test_small_values(self):
        primes = [k for k in range(2, 60) if is_prime(k)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_below_two(self):
        assert not is_prime(0) and not is_prime(1) and not is_prime(-7)

    def test_prime_divisors_match_primality_scan(self):
        for m in range(1, 1200):
            scan = [p for p in range(2, m + 1) if m % p == 0 and is_prime(p)]
            assert prime_divisors(m) == scan


class TestRegularScoreValue:
    def test_divisible_case(self):
        # every element of 5 appears in C(4,1) pairs; total C(5,2)=10
        assert regular_score_value(5, 2) == 2

    def test_indivisible_case(self):
        assert regular_score_value(4, 2) is None

    def test_range_guard(self):
        with pytest.raises(OutOfRange):
            regular_score_value(3, 4)


class TestDigitRules:
    """Lucas' and Kummer's theorems against math.comb, exhaustively."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_lucas_residue(self, p):
        for a in range(80):
            for b in range(a + 2):
                assert lucas_binom_mod(a, b, p) == math.comb(a, b) % p, (a, b)

    def test_kummer_divisibility(self):
        for m in range(1, 200):
            for n in range(m + 1):
                assert divides_binom(m, n) == (math.comb(m, n) % m == 0), (m, n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3000), st.data())
    def test_kummer_divisibility_table_range(self, m, data):
        n = data.draw(st.sampled_from(prime_divisors(m) or [1]) | st.integers(0, m))
        assert divides_binom(m, n) == (math.comb(m, n) % m == 0)

    def test_score_value_matches_comb(self):
        for m in range(1, 120):
            for n in range(1, m + 1):
                c = math.comb(m, n)
                assert regular_score_value(m, n) == (c // m if c % m == 0 else None)


class TestCertificate:
    def test_four_two(self):
        cert = prime_obstruction_holds(4, 2)
        assert cert.binom == 6
        assert not cert.divisible_by_m  # 4 does not divide 6
        assert cert.lucas_residue == 1  # C(3,1) = 3 ≡ 1 (mod 2)
        assert cert.identity_holds()    # 2*6 = 4*3
        assert cert.verdict == "regular-impossible"
        assert cert == (4, 2, 6, False, 1, "regular-impossible")

    def test_prime_equal_to_m(self):
        cert = prime_obstruction_holds(5, 5)
        assert cert.binom == 1 and not cert.divisible_by_m

    def test_rejects_composite_p(self):
        with pytest.raises(NotPrime):
            prime_obstruction_holds(8, 4)

    def test_nondividing_p_unobstructed(self):
        # 2 does not divide 5, and C(5,2)/5 = 2 is integral
        cert = prime_obstruction_holds(5, 2)
        assert cert.divisible_by_m and cert.verdict == "regular-unobstructed"

    def test_p_larger_than_m_rejected(self):
        with pytest.raises(OutOfRange):
            prime_obstruction_holds(3, 5)

    def test_range_checked_before_primality(self, monkeypatch):
        # trial division on 2**61 - 1 takes hours; p > m is refused first
        monkeypatch.setattr(obstruction, "is_prime", lambda k: pytest.fail(f"primality of {k} tested"))
        for p in (2**61 - 1, 10**18, 1, 0):
            with pytest.raises(OutOfRange, match=f"^need 2 <= p <= m, got p={p}, m=3$"):
                prime_obstruction_holds(3, p)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(1, 80),
    )
    def test_certificate_arithmetic(self, p, k):
        m = p * k
        cert = prime_obstruction_holds(m, p)
        assert p * cert.binom == m * math.comb(m - 1, p - 1)
        assert cert.lucas_residue == math.comb(m - 1, p - 1) % p == 1
        assert cert.binom % m != 0
        assert cert.verdict == "regular-impossible"


class TestSearch:
    @pytest.mark.parametrize("m,n", [(4, 2), (6, 2), (8, 2)])
    def test_proves_nonexistence(self, m, n):
        res = search_regular(m, n)
        assert res.status == "proven-none"
        assert res.structure is None and res.proven

    @pytest.mark.parametrize("m,n", [(3, 2), (5, 2), (7, 2), (4, 3)])
    def test_finds_witness(self, m, n):
        res = search_regular(m, n)
        assert res.status == "witness"
        assert is_regular(res.structure)
        assert res.structure.size == m and res.structure.n == n

    def test_five_three_witness_exists(self):
        # every element in 6 of the C(5,3)=10 triples, target score 2
        res = search_regular(5, 3)
        assert res.status == "witness"
        assert is_regular(res.structure)
        assert res.nodes <= 50

    def test_budget_flagged_not_raised(self):
        res = search_regular(5, 3, budget=3)
        assert res.status == "budget-exceeded"
        assert res.structure is None and not res.proven

    @pytest.mark.parametrize("m,n,nodes", [
        (5, 3, 19), (7, 3, 66), (9, 4, 334), (10, 4, 3608), (13, 3, 3111),
    ])
    def test_witness_node_counts(self, m, n, nodes):
        # counts of the rank-order search with backtracking; the search
        # visits each candidate once, so the count pins the visit order
        res = search_regular(m, n)
        assert res.status == "witness" and is_regular(res.structure)
        assert res.nodes == nodes

    def test_depth_beyond_recursion_limit(self):
        # C(22,3) = 1540 ranks deep; a recursive search raised RecursionError
        res = search_regular(22, 3, budget=2000)
        assert res.status == "budget-exceeded"
        assert res.nodes == 2001


class TestTable:
    def test_rows_for_six(self):
        rows = obstruction_table(6)
        assert [(r.m, r.p) for r in rows] == [
            (2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (6, 3)
        ]
        assert all(not r.divisible for r in rows)
        assert all(r.lucas_residue == 1 for r in rows)
        assert all(r.search_status == "proven-none" for r in rows)

    def test_rows_match_comb(self):
        for r in obstruction_table(400):
            assert r.binom == math.comb(r.m, r.p)
            assert r.divisible == (r.binom % r.m == 0)
            assert r.lucas_residue == math.comb(r.m - 1, r.p - 1) % r.p

    def test_one_binomial_per_row(self, monkeypatch):
        calls = Counter()
        comb = math.comb

        def counting(a, b):
            calls[a, b] += 1
            return comb(a, b)

        monkeypatch.setattr(math, "comb", counting)
        rows = [r for r in obstruction_table(120) if r.m > r.p]
        # Lucas' digit binomials C(x, y) have x < p <= y + 1; of the
        # others, each row computes its own C(m, p) and nothing else
        assert {(r.m, r.p): 1 for r in rows} == {k: c for k, c in calls.items() if k[0] > k[1]}

    def test_single_row(self):
        rows = obstruction_table(2)
        assert len(rows) == 1 and (rows[0].m, rows[0].p) == (2, 2)

    def test_range_guard(self):
        with pytest.raises(OutOfRange):
            obstruction_table(10**4 + 1)

    def test_tsv_shape(self):
        text = table_tsv(obstruction_table(4))
        lines = text.split("\n")
        assert lines[0] == "\t".join(TABLE_COLUMNS)
        assert text.endswith("\n") and "\r" not in text
        assert all(len(line.split("\t")) == len(TABLE_COLUMNS) for line in lines[:-1])
