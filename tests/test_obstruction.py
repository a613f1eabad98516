import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel import obstruction
from hypersel.errors import BrokenInvariant, OutOfRange
from hypersel.obstruction import (
    MAX_TABLE_M,
    TABLE_COLUMNS,
    divides_binom,
    is_prime,
    obstruction_table,
    prime_divisors,
    search_regular,
    table_tsv,
)
from hypersel.structures import is_regular

from oracles import oracle_primes, oracle_search_regular


class TestPrimality:
    def test_small_values(self):
        primes = [k for k in range(2, 60) if is_prime(k)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_below_two(self):
        assert not is_prime(0) and not is_prime(1) and not is_prime(-7)

    def test_prime_divisors_match_primality_scan(self):
        # against a sieve, which shares no trial division with either
        primes = oracle_primes(MAX_TABLE_M)
        assert [k for k in range(-2, MAX_TABLE_M) if is_prime(k)] == primes
        divisors: list = [[] for _ in range(MAX_TABLE_M)]
        for p in primes:
            for m in range(p, MAX_TABLE_M, p):
                divisors[m].append(p)
        for m in range(1, MAX_TABLE_M):
            assert prime_divisors(m) == divisors[m], m


class TestRegularScoreValue:
    """The score C(m,n)/m that search_regular gives every element."""

    def test_divisible_case(self):
        # every element of 5 appears in C(4,1) pairs; total C(5,2)=10
        res = search_regular(5, 2)
        assert Counter(res.structure.picks) == dict.fromkeys(range(5), 2)

    def test_indivisible_case(self):
        assert search_regular(4, 2) is obstruction._PROVEN_NONE

    def test_range_guard(self):
        with pytest.raises(OutOfRange, match="^n must be an int in 1..3, got 4$"):
            search_regular(3, 4)


class TestDigitRules:
    """Lucas' and Kummer's theorems against math.comb, exhaustively."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_lucas_residue(self, p):
        for a in range(80):
            for b in range(a + 2):
                assert obstruction._lucas_binom_mod(a, b, p) == math.comb(a, b) % p, (a, b)

    def test_kummer_divisibility(self):
        for m in range(1, 200):
            for n in range(m + 1):
                assert divides_binom(m, n) == (math.comb(m, n) % m == 0), (m, n)

    def test_carry_kernel(self):
        # at each prime q | m alone: q^e | C(m,n), q^e exactly dividing m
        def valuation(k, q):
            e = 0
            while k % q == 0:
                k //= q
                e += 1
            return e

        primes = oracle_primes(61)
        for m in range(1, 61):
            for q in (q for q in primes if m % q == 0):
                for n in range(m + 1):
                    want = valuation(math.comb(m, n), q) >= valuation(m, q)
                    assert obstruction._carries_enough(m, n, q) == want, (m, n, q)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3000), st.data())
    def test_kummer_divisibility_table_range(self, m, data):
        n = data.draw(st.sampled_from(prime_divisors(m) or [1]) | st.integers(0, m))
        assert divides_binom(m, n) == (math.comb(m, n) % m == 0)

    def test_score_value_matches_comb(self):
        # no witness where m does not divide C(m,n), decided before any
        # subset is listed; where it does, every element scores C(m,n)/m
        for m in range(1, 120):
            for n in range(1, m + 1):
                c = math.comb(m, n)
                if c % m:
                    assert search_regular(m, n) is obstruction._PROVEN_NONE, (m, n)
                elif c <= 2000:
                    res = search_regular(m, n)
                    assert Counter(res.structure.picks) == dict.fromkeys(range(m), c // m), (m, n)


class TestCertificate:
    """The table row of (m, p), p | m, carries the certificate that no
    arity-p regular structure exists on m elements."""

    ROWS = {(r.m, r.p): r for r in obstruction_table(13 * 80)}

    def test_four_two(self):
        row = self.ROWS[4, 2]
        assert row.binom == 6
        assert not row.divisible  # 4 does not divide 6
        assert row.lucas_residue == 1  # C(3,1) = 3 ≡ 1 (mod 2)
        assert 2 * row.binom == 4 * math.comb(3, 1)
        assert row.search_status == "proven-none"
        assert row == (4, 2, 6, False, 1, "proven-none")

    def test_prime_equal_to_m(self):
        row = self.ROWS[5, 5]
        assert row.binom == 1 and not row.divisible

    def test_nondividing_p_unobstructed(self):
        # 2 does not divide 5, and C(5,2)/5 = 2 is integral: no row
        assert (5, 2) not in self.ROWS and (5, 5) in self.ROWS
        assert divides_binom(5, 2) and search_regular(5, 2).status == "witness"

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(1, 80),
    )
    def test_certificate_arithmetic(self, p, k):
        m = p * k
        row = self.ROWS[m, p]
        assert p * row.binom == m * math.comb(m - 1, p - 1)
        assert row.lucas_residue == math.comb(m - 1, p - 1) % p == 1
        assert row.binom % m != 0
        assert row.search_status == "proven-none"


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

    def test_missing_path_is_broken_invariant(self, monkeypatch):
        # 4 does not divide C(4,2) = 6: a target of 6 // 4 = 1 leaves room
        # for 4 of the 6 pairs
        monkeypatch.setattr(obstruction, "divides_binom", lambda m, n: True)
        with pytest.raises(BrokenInvariant, match="^no augmenting path for rank 4 of \\(4,2\\)$"):
            search_regular(4, 2)

    def test_non_regular_witness_is_broken_invariant(self, monkeypatch):
        monkeypatch.setattr(obstruction, "is_regular", lambda s: False)
        with pytest.raises(BrokenInvariant, match="non-regular"):
            search_regular(5, 3)

    @pytest.mark.parametrize("m,n,nodes", [
        (5, 3, 19), (7, 3, 66), (9, 4, 334), (10, 4, 3608), (13, 3, 3111),
    ])
    def test_witness_node_counts(self, m, n, nodes):
        # counts of the oracle's rank-order search with backtracking; it
        # visits each candidate once, so the count pins the visit order
        res = oracle_search_regular(m, n)
        assert res.status == "witness" and is_regular(res.structure)
        assert res.nodes == nodes

    def test_depth_beyond_recursion_limit(self):
        # C(22,3) = 1540 ranks deep; a recursive search raised RecursionError
        res = oracle_search_regular(22, 3, budget=2000)
        assert res.status == "budget-exceeded"
        assert res.nodes == 2001

    def test_agrees_with_backtracking_oracle(self):
        pairs = [(m, n) for m in range(1, 301) for n in range(1, m + 1) if math.comb(m, n) <= 300]
        for m, n in pairs:
            res, ref = search_regular(m, n), oracle_search_regular(m, n)
            assert res.status == ref.status, (m, n)
            if res.structure is not None:
                assert is_regular(res.structure) and is_regular(ref.structure), (m, n)

    def test_settles_every_small_pair(self):
        # regular exactly when m | C(m,n), each witness at score C(m,n)/m
        pairs = [(m, n) for m in range(1, 41) for n in range(1, m + 1) if math.comb(m, n) <= 2000]
        divisible = [(m, n) for m, n in pairs if math.comb(m, n) % m == 0]
        assert (len(pairs), len(divisible)) == (252, 157)
        for m, n in pairs:
            res = search_regular(m, n)
            if (m, n) in divisible:
                assert res.status == "witness", (m, n)
                assert Counter(res.structure.picks) == dict.fromkeys(range(m), math.comb(m, n) // m)
            else:
                assert res.status == "proven-none", (m, n)


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
        # 1,258 stepped rows; each cofactor k <= 41 steps at least twice
        # in a row, from 67 to 71 to 73 and on
        for r in obstruction_table(3000):
            assert r.binom == math.comb(r.m, r.p)
            assert r.divisible == (r.binom % r.m == 0)
            assert r.lucas_residue == math.comb(r.m - 1, r.p - 1) % r.p

    def test_one_binomial_per_row(self, monkeypatch):
        # every prime q in (threshold, p) has a row (kq, q) before (kp, p),
        # so each cofactor's first stepped row is at the least prime above
        # the threshold and every later one steps from the prime before p
        primes = oracle_primes(400)
        first = min(q for q in primes if q > obstruction._STEP_ABOVE)
        before = dict(zip(primes[1:], primes))
        combs, perms = Counter(), Counter()
        comb, perm = math.comb, math.perm

        def counting_comb(a, b):
            combs[a, b] += 1
            return comb(a, b)

        def counting_perm(a, b):
            perms[a, b] += 1
            return perm(a, b)

        monkeypatch.setattr(math, "comb", counting_comb)
        monkeypatch.setattr(math, "perm", counting_perm)
        rows = obstruction_table(400)
        stepped = {(r.m // r.p, r.p) for r in rows if first < r.p < r.m}
        assert len(stepped) == 49  # 27, 13, 6 and 3 for k = 2 to 5
        # Lucas' one digit binomial C(p-1, p-1) per row, and C(m, p)
        # once for a row that does not step
        want = Counter((r.p - 1, r.p - 1) for r in rows)
        want.update((r.m, r.p) for r in rows if (r.m // r.p, r.p) not in stepped)
        assert combs == want
        want = Counter()
        for k, p in stepped:
            d = p - before[p]
            want.update([(k * p, k * d), (p, d), ((k - 1) * p, (k - 1) * d)])
        assert perms == want

    def test_rows_decided_without_the_search(self, monkeypatch):
        # Kummer's test at p alone: no witness search, no score value;
        # the primes of m from the sieve, with no trial division at all
        def forbidden(name):
            return lambda *args: pytest.fail(f"{name}{args} called")

        for name in ("search_regular", "divides_binom", "prime_divisors", "_least_factor"):
            monkeypatch.setattr(obstruction, name, forbidden(name))
        rows = obstruction_table(400)
        assert len(rows) == 790 and {r.search_status for r in rows} == {"proven-none"}

    @pytest.mark.parametrize("limit", [2, 3, 4, 8, 9, 25, 26, MAX_TABLE_M])
    def test_sieve_least_factor(self, limit):
        # limits at and just past the prime squares 4, 9 and 25, and the table's
        lpf = obstruction._least_prime_factors(limit)
        assert len(lpf) == limit + 1
        assert lpf[2:] == [obstruction._least_factor(k) for k in range(2, limit + 1)]

    def test_pairs_are_the_primes_of_m(self):
        pairs = [(r.m, r.p) for r in obstruction_table(MAX_TABLE_M)]
        assert pairs == [(m, p) for m in range(2, MAX_TABLE_M + 1) for p in prime_divisors(m)]

    @pytest.mark.parametrize("max_m", [1, MAX_TABLE_M + 1])
    def test_range_checked_before_the_sieve(self, monkeypatch, max_m):
        monkeypatch.setattr(obstruction, "_least_prime_factors",
                            lambda limit: pytest.fail(f"sieve built to {limit}"))
        with pytest.raises(OutOfRange, match=f"^max_m must be an int in 2..{MAX_TABLE_M}, got {max_m}$"):
            obstruction_table(max_m)

    def test_inexact_step_is_broken_invariant(self, monkeypatch):
        perm = math.perm
        monkeypatch.setattr(math, "perm", lambda a, b: perm(a, b) + 1)
        with pytest.raises(BrokenInvariant, match=r"^C\(142,71\) stepped from C\(134,67\) leaves remainder \d+$"):
            obstruction_table(142)

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
