"""Divisibility obstruction to regular selection structures.

A constant-score structure of arity n on m elements forces m | C(m,n).
For a prime p dividing m that divisibility always fails: the exact
identity p*C(m,p) = m*C(m-1,p-1) together with C(m-1,p-1) = 1 (mod p)
shows m cannot divide C(m,p).  Note the certificate is about m, not p:
p itself may well divide C(m,p) (p=2, m=4 gives C(4,2)=6), so each
certificate records the residue that actually carries the argument.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import BrokenInvariant, NotPrime, OutOfRange
from .structures import (
    DEFAULT_BUDGET,
    SelectionStructure,
    ground_range,
    subset_ranks,
)

MAX_TABLE_M = 10**4  # exact-arithmetic comfort zone for table binomials


def is_prime(k: int) -> bool:
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    d = 3
    while d * d <= k:
        if k % d == 0:
            return False
        d += 2
    return True


def prime_divisors(m: int) -> list:
    """The distinct primes dividing m >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def lucas_binom_mod(a: int, b: int, p: int) -> int:
    """C(a,b) mod the prime p by Lucas' theorem: the product of the
    binomials of the base-p digits of a and b, each below p."""
    r = 1
    while b and r:
        r = r * math.comb(a % p, b % p) % p
        a //= p
        b //= p
    return r


def divides_binom(m: int, n: int) -> bool:
    """m | C(m,n) for 0 <= n <= m, decided without C(m,n).

    Since n*C(m,n) = m*C(m-1,n-1), a prime q dividing m but not n
    divides C(m,n) at least as often as m.  For each prime q of
    gcd(m, n), with q^e exactly dividing m, Kummer's theorem asks for at
    least e carries when adding n and m-n in base q.  Once either
    summand and the carry run out, no later digit carries.
    """
    for q in prime_divisors(math.gcd(m, n)):
        short, k = 0, m  # short: e minus the carries counted so far
        while k % q == 0:
            k //= q
            short += 1
        x, y, carry = n, m - n, 0
        while short and ((x and y) or carry):
            carry = x % q + y % q + carry >= q
            short -= carry
            x //= q
            y //= q
        if short:
            return False
    return True


def regular_score_value(m: int, n: int) -> Optional[int]:
    """C(m,n)/m when integral, else None (then no regular structure exists).
    The binomial is computed only when m divides it."""
    if not 1 <= n <= m:
        raise OutOfRange(f"need 1 <= n <= m, got n={n}, m={m}")
    return math.comb(m, n) // m if divides_binom(m, n) else None


class ObstructionCertificate(NamedTuple):
    """Checkable record for one (m, p) divisibility question."""

    m: int
    p: int
    binom: int           # C(m, p), exact
    divisible_by_m: bool  # m | C(m, p)
    lucas_residue: int   # C(m-1, p-1) mod p
    verdict: str         # "regular-impossible" | "regular-unobstructed"

    def identity_holds(self) -> bool:
        """p*C(m,p) == m*C(m-1,p-1), the exact form behind the residue step."""
        return self.p * self.binom == self.m * math.comb(self.m - 1, self.p - 1)


def prime_obstruction_holds(m: int, p: int) -> ObstructionCertificate:
    """Certificate that arity-p regular structures cannot exist on m
    elements (when m does not divide C(m,p)).

    With p | m the verdict is always regular-impossible and the residue
    is always 1; both facts are recomputed, never assumed.
    """
    if not 2 <= p <= m:
        raise OutOfRange(f"need 2 <= p <= m, got p={p}, m={m}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    binom = math.comb(m, p)
    divisible = binom % m == 0
    residue = lucas_binom_mod(m - 1, p - 1, p)
    verdict = "regular-unobstructed" if divisible else "regular-impossible"
    return ObstructionCertificate(m, p, binom, divisible, residue, verdict)


class SearchResult(NamedTuple):
    """Outcome of a witness search for a regular structure.

    proven=True means the answer is definitive: either a witness was
    found or the space was exhausted (possibly via the divisibility
    shortcut).  proven=False only ever pairs with structure=None and
    means the node budget ran out first.
    """

    structure: Optional[SelectionStructure]
    proven: bool
    nodes: int

    @property
    def status(self) -> str:
        if self.structure is not None:
            return "witness"
        return "proven-none" if self.proven else "budget-exceeded"


def search_regular(m: int, n: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Backtracking search for a constant-score structure of arity n on m
    elements, pruning branches where some score overshoots the target or
    can no longer reach it.  Subsets are filled in rank order."""
    target = regular_score_value(m, n)
    if target is None:
        return SearchResult(None, True, 0)
    subs, _ = subset_ranks(m, n)
    count = len(subs)
    # suffix[r][x] = how many subsets of rank >= r contain x
    suffix = [[0] * m for _ in range(count + 1)]
    for r in range(count - 1, -1, -1):
        row = suffix[r + 1][:]
        for x in subs[r]:
            row[x] += 1
        suffix[r] = row
    for x in range(m):
        if suffix[0][x] < target:
            return SearchResult(None, True, 0)
    w = [0] * m
    picks = [0] * count
    # explicit stack: pos[r] is the position in subs[r] of rank r's next
    # candidate, so the depth is not bounded by the recursion limit
    pos = [0] * (count + 1)
    nodes = 0
    r = 0
    while r < count:
        sub = subs[r]
        if pos[r] == n:
            if r == 0:
                return SearchResult(None, True, nodes)
            r -= 1
            w[picks[r]] -= 1
            continue
        x = sub[pos[r]]
        pos[r] += 1
        nodes += 1
        if nodes > budget:
            return SearchResult(None, False, nodes)
        if w[x] + 1 > target:
            continue
        w[x] += 1
        if all(w[y] + suffix[r + 1][y] >= target for y in sub):
            picks[r] = x
            r += 1
            pos[r] = 0
        else:
            w[x] -= 1
    s = SelectionStructure(ground_range(m), n, tuple(picks))
    return SearchResult(s, True, nodes)


class TableRow(NamedTuple):
    m: int
    p: int
    binom: int
    divisible: bool
    lucas_residue: int
    search_status: str


def obstruction_table(max_m: int, budget: int = DEFAULT_BUDGET) -> list:
    """One row per pair (m, p) with p prime, p | m, m <= max_m, ordered by
    m then p.  Every row also reruns the witness search, whose
    divisibility shortcut makes it instant here."""
    if not 2 <= max_m <= MAX_TABLE_M:
        raise OutOfRange(f"need 2 <= max_m <= {MAX_TABLE_M}, got {max_m}")
    rows = []
    for m in range(2, max_m + 1):
        for p in prime_divisors(m):
            cert = prime_obstruction_holds(m, p)
            search = search_regular(m, p, budget=budget)
            if search.structure is not None:
                raise BrokenInvariant(f"obstructed pair ({m},{p}) produced a witness")
            rows.append(
                TableRow(
                    m=m,
                    p=p,
                    binom=cert.binom,
                    divisible=cert.divisible_by_m,
                    lucas_residue=cert.lucas_residue,
                    search_status=search.status,
                )
            )
    return rows


TABLE_COLUMNS = TableRow._fields


def table_tsv(rows) -> str:
    """Tab-separated rendering with header row and LF line endings."""
    lines = ["\t".join(TABLE_COLUMNS)]
    for r in rows:
        cells = [("true" if v else "false") if type(v) is bool else str(v) for v in r]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
