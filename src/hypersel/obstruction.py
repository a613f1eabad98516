"""Divisibility obstruction to regular selection structures.

A constant-score structure of arity n on m elements forces m | C(m,n).
For a prime p dividing m that divisibility always fails: the exact
identity p*C(m,p) = m*C(m-1,p-1) together with C(m-1,p-1) = 1 (mod p)
shows m cannot divide C(m,p).  Note the certificate is about m, not p:
p itself may well divide C(m,p) (p=2, m=4 gives C(4,2)=6), so each
table row records the residue that actually carries the argument.

Conversely m | C(m,n) suffices: giving each n-subset weight 1/n on each member
loads every element with exactly C(m,n)/m, so by flow integrality an integral
choice with the same loads exists, and search_regular finds one by augmenting
paths.  One Kummer carry kernel decides m | C(m,n), table rows included.

The table's C(m,p) for a large prime p steps from the previous prime q
with the same cofactor k = m/p, since
C(kp,p) = C(kq,q) * perm(kp, k(p-q)) / (perm(p, p-q) * perm((k-1)p, (k-1)(p-q)))
exactly: about k(p-q) small factors and one exact division in place of
math.comb's deep recursion, which divides at every node.  Primes up to
_STEP_ABOVE, where math.comb is as fast as a step, cofactor 1 and the
first large prime of each cofactor keep math.comb.

The table reads the primes of each m from one least-prime-factor sieve
over its range, built once per table (_least_prime_factors); that is the
one route for factoring a range of m.  is_prime, prime_divisors and
_least_factor trial-divide: they serve single unbounded ints
(check_extension's p, divides_binom's gcd), where no sieve can go.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple, Optional

from .errors import BrokenInvariant, check_int
from .structures import (
    DEFAULT_BUDGET,
    SelectionStructure,
    ground_range,
    is_regular,
)

MAX_TABLE_M = 10**4  # exact-arithmetic comfort zone for table binomials
_STEP_ABOVE = 64  # table rows with a larger prime step their binomial


def _least_factor(k: int) -> int:
    """The least divisor d >= 2 of k >= 2, by trial division: 2, then
    the odd numbers up to the square root."""
    if k % 2 == 0:
        return 2
    d = 3
    while d * d <= k:
        if k % d == 0:
            return d
        d += 2
    return k


def _least_prime_factors(limit: int) -> list:
    """lpf with lpf[k] the least prime dividing k, for 2 <= k <= limit (and
    lpf[1] = 1): each d from isqrt(limit) down to 2 marks its multiples from
    d*d on, so the least d <= isqrt(k) dividing k, always a prime, is the
    last to write lpf[k]; a k no such d divides is prime and keeps lpf[k] = k."""
    lpf = list(range(limit + 1))
    for d in range(math.isqrt(limit), 1, -1):
        lpf[d * d::d] = [d] * ((limit - d * d) // d + 1)
    return lpf


def is_prime(k: int) -> bool:
    check_int("k", k)
    return k >= 2 and _least_factor(k) == k


def prime_divisors(m: int) -> list:
    """The distinct primes dividing m >= 1, ascending."""
    check_int("m", m, 1)
    out = []
    while m > 1:
        d = _least_factor(m)
        out.append(d)
        while m % d == 0:
            m //= d
    return out


def _lucas_binom_mod(a: int, b: int, p: int) -> int:
    """C(a,b) mod the prime p by Lucas' theorem: the product of the
    binomials of the base-p digits of a and b, each below p."""
    r = 1
    while b and r:
        r = r * math.comb(a % p, b % p) % p
        a //= p
        b //= p
    return r


def _carries_enough(m: int, n: int, q: int) -> bool:
    """Kummer's test at a prime q | m, 0 <= n <= m: whether n + (m-n) carries at
    least e times in base q, q^e exactly dividing m, that is whether q^e | C(m,n)."""
    short, k = 0, m  # short: e minus the carries counted so far
    while k % q == 0:
        k //= q
        short += 1
    x, y, carry = n, m - n, 0
    while short and ((x and y) or carry):  # no carry once a summand and the carry run out
        carry = x % q + y % q + carry >= q
        short -= carry
        x //= q
        y //= q
    return not short


def divides_binom(m: int, n: int) -> bool:
    """m | C(m,n) for 0 <= n <= m, without C(m,n): as n*C(m,n) = m*C(m-1,n-1), a prime
    of m but not n divides C(m,n) at least as often as m, so gcd(m, n)'s primes decide."""
    check_int("m", m, 1)
    check_int("n", n, 0, m)
    for q in prime_divisors(math.gcd(m, n)):  # a loop, not all(): no generator per call
        if not _carries_enough(m, n, q):
            return False
    return True


def _stepped_binom(k: int, q: int, binom: int, p: int) -> int:
    """C(kp,p) from binom = C(kq,q), for q < p: multiply in the factors
    kq+1..kp and divide out q+1..p and (k-1)q+1..(k-1)p, exactly."""
    d = p - q
    out, rest = divmod(binom * math.perm(k * p, k * d),
                       math.perm(p, d) * math.perm((k - 1) * p, (k - 1) * d))
    if rest:
        raise BrokenInvariant(f"C({k * p},{p}) stepped from C({k * q},{q}) leaves remainder {rest}")
    return out


class SearchResult(NamedTuple):
    """Outcome of a witness search for a regular structure.

    proven=True means the answer is definitive: either a witness was
    found or m does not divide C(m,n), the only way none can exist.
    proven=False only ever pairs with structure=None and means the node
    budget ran out first.
    """

    structure: Optional[SelectionStructure]
    proven: bool
    nodes: int

    @property
    def status(self) -> str:
        if self.structure is not None:
            return "witness"
        return "proven-none" if self.proven else "budget-exceeded"


_PROVEN_NONE = SearchResult(None, True, 0)  # immutable, so shared by every early exit


def search_regular(m: int, n: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Constant-score arity-n structure on m elements by augmenting paths, which
    exist by flow integrality once m | C(m,n): each subset in rank order searches
    from its members, least loaded first, through the subsets picking full ones."""
    check_int("budget", budget, 1)
    check_int("m", m, 1)
    check_int("n", n, 1, m)
    if not divides_binom(m, n):
        return _PROVEN_NONE
    target = math.comb(m, n) // m  # the score of every element
    subs = tuple(combinations(range(m), n))
    picks = [0] * len(subs)
    holders = [{} for _ in range(m)]  # x -> ranks picking x, as an ordered set
    nodes = 0  # elements taken off a search queue; budget bounds it
    for r, sub in enumerate(subs):
        # element -> (element, rank) it was reached through; members map to None
        prev = dict.fromkeys(sorted(sub, key=lambda x: len(holders[x])))
        queue = list(prev)
        for x in queue:
            nodes += 1
            if nodes > budget:
                return SearchResult(None, False, nodes)
            if len(holders[x]) < target:
                break
            for s in holders[x]:
                for y in subs[s]:
                    if y not in prev:
                        prev[y] = (x, s)
                        queue.append(y)
        else:
            raise BrokenInvariant(f"no augmenting path for rank {r} of ({m},{n})")
        while prev[x] is not None:  # each subset on the path moves its pick one step
            y, s = prev[x]
            del holders[y][s]
            holders[x][s] = None
            picks[s] = x
            x = y
        holders[x][r] = None
        picks[r] = x
    structure = SelectionStructure(ground_range(m), n, tuple(picks))
    if not is_regular(structure):
        raise BrokenInvariant(f"augmenting paths built a non-regular ({m},{n}) structure")
    return SearchResult(structure, True, nodes)


class TableRow(NamedTuple):
    """Checkable record for one (m, p) divisibility question, p | m."""

    m: int
    p: int
    binom: int            # C(m, p), exact
    divisible: bool       # m | C(m, p)
    lucas_residue: int    # C(m-1, p-1) mod p
    search_status: str


def obstruction_table(max_m: int) -> list:
    """One row per prime p dividing m, 2 <= m <= max_m, by m then p.  Two
    independent decisions find that m does not divide C(m,p), so no witness
    exists (proven-none): the exact C(m,p) mod m, and Kummer's test at p,
    the one prime of gcd(m, p).  The primes of each m, ascending, come from
    one least-prime-factor sieve over 2..max_m, built after max_m is checked.

    C(m,p) is math.comb's when p <= _STEP_ABOVE or p = m.  Otherwise,
    with cofactor k = m/p >= 2, it steps from C(kq,q) for the prime q
    before p, whose row came earlier (see the module docstring); the
    least prime above _STEP_ABOVE has no such q and takes math.comb's."""
    check_int("max_m", max_m, 2, MAX_TABLE_M)
    lpf = _least_prime_factors(max_m)
    status = _PROVEN_NONE.status
    rows = []
    last = {}  # cofactor k -> (q, C(kq,q)) of its latest row with q > _STEP_ABOVE
    for m in range(2, max_m + 1):
        rest = m
        while rest > 1:  # p runs over the primes of m, ascending
            p = lpf[rest]
            while lpf[rest] == p:
                rest //= p
            if p <= _STEP_ABOVE or p == m:
                binom = math.comb(m, p)
            else:
                k = m // p
                binom = _stepped_binom(k, *last[k], p) if k in last else math.comb(m, p)
                last[k] = p, binom
            divisible = binom % m == 0
            if divisible or _carries_enough(m, p, p):
                raise BrokenInvariant(f"obstructed pair ({m},{p}) has m | C(m,p)")
            residue = _lucas_binom_mod(m - 1, p - 1, p)
            rows.append(TableRow(m, p, binom, divisible, residue, status))
    return rows


TABLE_COLUMNS = TableRow._fields


def table_tsv(rows) -> str:
    """Tab-separated rendering: a header row, then one line per row with
    booleans as true/false, every line ending in LF."""
    body = [f"{m}\t{p}\t{binom}\t{'true' if div else 'false'}\t{res}\t{status}\n"
            for m, p, binom, div, res, status in rows]
    return "\t".join(TABLE_COLUMNS) + "\n" + "".join(body)
