"""Seeded inputs for the three workloads.

Nothing here imports hypersel: documents are plain JSON built from the
schemas in ``hypersel.documents``, so input generation cannot depend on
the code under test.  ``cycle_ops`` builds one cycle's ops and the
documents they read, and ``write_docs`` writes those documents; the same
(workload, seed, cycle) always gives the same bytes, and no two ops of
one run share an input.  Ops keep only the paths of their inputs; the
checks read them back.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

WORKLOADS = ("combinatorial", "interval", "witness")

# Run length in cycles: one cycle, then as many more as fit in the
# requested seconds at these per-cycle costs (pure backend, Python 3.11,
# 2-core 2.0 GHz Xeon).  The work of a run depends only on --seconds,
# never on how fast the code is, so parent and change do equal work.
FIRST_CYCLE_S = {"combinatorial": 15.0, "interval": 9.5, "witness": 0.5}
CYCLE_S = {"combinatorial": 5.0, "interval": 9.5, "witness": 0.5}

# Pair choices of the extend workload: a seeded relabeling of one of
# these four tournaments on 12 points (bit b set: the rank-b pair picks
# its larger index), the (seed + cycle)-th in turn.  Their 495
# restrictions to 8 points need 33,576 to 33,642 relabelings in total
# (the value) and fall into 453 to 457 isomorphism types, so they are
# pairwise non-isomorphic, and one extend costs the same time and report
# size on each.  Fully random pair choices range from 9k to 57k
# relabelings over 40 seeds, so extend_s would measure the seed instead
# of the code.
EXTEND_BASES = {
    0x1081ADA08EEB43629: 33628,
    0x1298954632626B097: 33642,
    0x33939479D775C2AE1: 33576,
    0x4AF01BDD553B6C5: 33608,
}


@dataclass
class Op:
    """One measured operation.

    kind is a CLI subcommand name (or "census", a library call);
    argv is the CLI argument list (None for census); out is the output
    file; info carries what the checks need besides the files ("input"
    is the path of the input document).
    """

    kind: str
    argv: Optional[list]
    out: Optional[str]
    info: dict = field(default_factory=dict)

    @property
    def cli(self) -> bool:
        return self.argv is not None


def fs(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _write(path: str, doc) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


# -- selections -------------------------------------------------------------


def _choices(labels, table, sizes):
    """Choice records in rank order; table maps index tuples to indices."""
    out = []
    for size in sizes:
        for s in itertools.combinations(range(len(labels)), size):
            out.append(
                {"subset": [labels[i] for i in s], "pick": labels[table[s]]}
            )
    return out


def _partial_doc(labels, bound, table):
    return {
        "carrier": list(labels),
        "mode": "upto",
        "bound": bound,
        "choices": _choices(labels, table, range(1, bound + 1)),
    }


def random_table(n, bound, rng, pairs=None):
    """Index choice table on all subsets of size 1..bound of range(n);
    pairs, when given, fixes the size-2 choices."""
    table = {}
    for size in range(1, bound + 1):
        for s in itertools.combinations(range(n), size):
            if size == 2 and pairs is not None:
                table[s] = pairs[s]
            else:
                table[s] = rng.choice(s)
    return table


def near_regular_pairs(n, rng, steps=1500):
    """Pair choices with every score (n-1)//2 or n//2.

    Starts from the rotational tournament on n (odd) or n+1 (even, then
    one vertex dropped) and reverses random 3-cycles, which keeps every
    score.  The number of cyclic triples, C(n,3) - sum C(score,2), is
    therefore the same for every seed.
    """
    big = n if n % 2 else n + 1
    half = (big - 1) // 2
    win = {
        (i, j): (j if (j - i) % big <= half else i)
        for i, j in itertools.combinations(range(n), 2)
    }

    def pick(a, b):
        return win[(a, b) if a < b else (b, a)]

    for _ in range(steps):
        a, b, c = rng.sample(range(n), 3)
        if pick(a, b) == b and pick(b, c) == c and pick(c, a) == a:
            win[(min(a, b), max(a, b))] = a
            win[(min(b, c), max(b, c))] = b
            win[(min(a, c), max(a, c))] = c
    return win


def relabel(pairs, perm):
    """Pair choices after sending vertex v to perm[v]."""
    out = {}
    for (i, j), w in pairs.items():
        a, b = perm[i], perm[j]
        out[(min(a, b), max(a, b))] = perm[w]
    return out


def cyclic_triples(n, pairs):
    """Index triples whose pair restriction is a 3-cycle (regular)."""
    out = []
    for s in itertools.combinations(range(n), 3):
        wins = [0, 0, 0]
        for a, b in itertools.combinations(range(3), 2):
            wins[s.index(pairs[(s[a], s[b])])] += 1
        if wins == [1, 1, 1]:
            out.append(s)
    return out


def relabelings(pairs, n, m):
    """Relabelings a score-block canonical form tries over the pair
    restrictions to every m-subset: the product of block factorials."""
    total = 0
    for sub in itertools.combinations(range(n), m):
        score = dict.fromkeys(sub, 0)
        for a, b in itertools.combinations(sub, 2):
            score[pairs[(a, b)]] += 1
        total += math.prod(math.factorial(c) for c in Counter(score.values()).values())
    return total


def mask_pairs(mask, n):
    return {
        (i, j): (j if (mask >> b) & 1 else i)
        for b, (i, j) in enumerate(itertools.combinations(range(n), 2))
    }


# -- interval models and family systems --------------------------------------


def spread_points(n, rng):
    """Sorted distinct rationals about 40/97 apart, jittered."""
    return [Fraction(40 * i + rng.randrange(10), 97) for i in range(n)]


def model_doc(points, bound, table):
    labels = [fs(p) for p in points]
    return {"points": labels, "selection": _partial_doc(labels, bound, table)}


def family_doc(members):
    return {"intervals": [{"lo": fs(lo), "hi": fs(hi)} for lo, hi in members]}


def triple_families(points, triples):
    """One family per triple: intervals of a quarter of the minimum gap
    around its points, the shape ``chains derive`` produces."""
    gap = min(b - a for a, b in zip(points, points[1:]))
    r = gap / 4
    return [[(points[i] - r, points[i] + r) for i in t] for t in triples]


def overlap_family(fam):
    """A family meeting fam's Vietoris open without a unique meet: one
    member spans fam's first two members, two split its third."""
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = fam[:3]
    p0, p1, p2 = (lo0 + hi0) / 2, (lo1 + hi1) / 2, (lo2 + hi2) / 2
    r = (hi2 - lo2) / 4
    return [(p0, p1), (p2 - r, p2), (p2, p2 + r)]


def system_doc(points, bound, table, families):
    return {
        "model": model_doc(points, bound, table),
        "families": [family_doc(f) for f in families],
    }


def interval_model(rng, n=18):
    points = spread_points(n, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = relabel(near_regular_pairs(n, rng), perm)
    return points, random_table(n, 3, rng, pairs), pairs


# -- ops ---------------------------------------------------------------------


class Cycle:
    """Collects one cycle's ops and documents in a directory."""

    def __init__(self, workdir, cycle):
        self.dir = os.path.join(workdir, f"c{cycle}")
        os.makedirs(self.dir, exist_ok=True)
        self.ops = []
        self.docs = []  # (path, document), written by write_docs

    def path(self, name):
        return os.path.join(self.dir, name)

    def doc(self, name, doc):
        path = self.path(name)
        self.docs.append((path, doc))
        return path

    def command(self, kind, args, info=None, fmt=None):
        out = self.path(f"out{len(self.ops)}.{fmt or 'json'}")
        argv = list(args) + ["--output", out]
        self.ops.append(Op(kind, argv, out, dict(info or {})))
        return out

    def census(self, m):
        self.ops.append(Op("census", None, None, {"m": m}))

    # kinds -----------------------------------------------------------------

    def enumerate(self, m, n, iso):
        args = ["enumerate", str(m), str(n)] + (["--iso"] if iso else [])
        self.command("enumerate", args, {"m": m, "n": n, "iso": iso})

    def obstruct(self, max_m):
        self.command("obstruct", ["obstruct", str(max_m)], {"max_m": max_m}, fmt="tsv")

    def extend(self, name, labels, bound, table, m, p):
        doc = _partial_doc(labels, bound, table)
        path = self.doc(name, doc)
        self.command("extend", ["extend", path, str(m), str(p)],
                     {"input": path, "m": m, "p": p})

    def continuity(self, name, doc):
        path = self.doc(name, doc)
        self.command("continuity", ["model", "check-continuity", path], {"input": path})

    def derive(self, name, doc):
        path = self.doc(name, doc)
        return self.command("derive", ["chains", "derive", path, "2"], {"input": path})

    def check_nice(self, path):
        self.command("check_nice", ["chains", "check-nice", path], {"input": path})

    def build(self, path):
        self.command("build", ["chains", "build", path], {"input": path})


def _letters(n, rng):
    """n distinct seeded labels."""
    return [f"v{x}" for x in rng.sample(range(1000), n)]


def _combinatorial(cy, rng, seed, cycle):
    if cycle == 0:
        cy.census(7)
    perm = list(range(12))
    rng.shuffle(perm)
    mask, cost = list(EXTEND_BASES.items())[(seed + cycle) % len(EXTEND_BASES)]
    pairs = relabel(mask_pairs(mask, 12), perm)
    if relabelings(pairs, 12, 8) != cost:
        raise RuntimeError("relabeling changed the extend input's cost")
    cy.extend("extend.json", _letters(12, rng), 4, random_table(12, 4, rng, pairs), 8, 2)
    cy.obstruct(2990 + seed % 10 + cycle)
    # The interval subcommands on degenerate documents: no domain
    # subsets, no regular triples, no families.  They keep every
    # end-to-end metric defined here while the interval layers stay idle.
    transitive = {s: s[0] for k in (1, 2, 3) for s in itertools.combinations(range(3), k)}
    for i in range(100):
        pts = sorted(rng.sample(range(1, 500), 3))
        pts = [Fraction(x, 7) for x in pts]
        labels = [fs(p) for p in pts]
        empty = {"points": labels, "selection": {
            "carrier": labels, "mode": "upto", "bound": 0, "choices": []}}
        cy.continuity(f"empty{i}.json", empty)
        cy.derive(f"transitive{i}.json", model_doc(pts, 3, transitive))
        path = cy.doc(f"nofam{i}.json", {"model": empty, "families": []})
        cy.check_nice(path)
        cy.build(path)


def _interval(cy, rng, seed, cycle):
    if cycle == 0:
        cy.census(7)
    points, table, _ = interval_model(rng)
    doc = model_doc(points, 3, table)
    cy.continuity("model.json", doc)
    system = cy.derive("derive-input.json", doc)
    cy.check_nice(system)
    cy.build(system)
    # extend requests that break a hypothesis, so no canonical form runs
    for i in range(40):
        m, p = ((5, 2), (8, 2), (6, 5), (7, 3))[i % 4]
        cy.extend(f"bad{i}.json", _letters(8, rng), 3, random_table(8, 3, rng), m, p)
    for i in range(6):
        cy.obstruct(300 + 20 * i + seed % 10 + cycle)


def _near_model(rng, n, bound):
    """n spread points plus one inserted 2^-50 from a neighbour whose
    pair choice against a third point is the opposite one; continuity
    then fails only after the whole radius-halving descent."""
    points = spread_points(n, rng)
    a = rng.randrange(n)
    points.insert(a + 1, points[a] + Fraction(1, 2**50))
    b = a + 1
    table = random_table(n + 1, bound, rng)
    c = rng.choice([i for i in range(n + 1) if i not in (a, b)])
    table[tuple(sorted((a, c)))] = a
    table[tuple(sorted((b, c)))] = c
    return points, table


def _small_system(rng, injected):
    while True:
        n = rng.randint(5, 7)
        points = spread_points(n, rng)
        table = random_table(n, 3, rng)
        pairs = {s: table[s] for s in itertools.combinations(range(n), 2)}
        triples = cyclic_triples(n, pairs)
        if triples:
            break
    fams = triple_families(points, triples)
    if injected:
        fams.append(overlap_family(fams[0]))
    return system_doc(points, 3, table, fams)


def _witness(cy, rng, seed, cycle):
    if cycle == 0:
        cy.census(7)
    for i in range(16):
        n = rng.randint(4, 7)
        bound = rng.choice((2, 3))
        if i % 2:
            points, table = _near_model(rng, n, bound)
        else:
            points = spread_points(n, rng)
            table = random_table(n, bound, rng)
        cy.continuity(f"model{i}.json", model_doc(points, bound, table))
    for i in range(20):
        doc = _small_system(rng, injected=bool(i % 2))
        path = cy.doc(f"system{i}.json", doc)
        if i < 10:
            cy.check_nice(path)
        else:
            cy.build(path)
    good = ((4, 2), (6, 2), (6, 3))
    bad = ((5, 2), (7, 3), (4, 5))
    for i in range(10):
        m, p = (good if i % 2 == 0 else bad)[(i // 2) % 3]
        cy.extend(f"extend{i}.json", _letters(6, rng), 3, random_table(6, 3, rng), m, p)
    for i in range(4):
        n = rng.randint(5, 6)
        cy.derive(f"derive{i}.json", model_doc(spread_points(n, rng), 3, random_table(n, 3, rng)))
    cy.obstruct(190 + seed % 10 + cycle)
    # one large refuted build: the interval-sized system plus a family
    # overlapping family 0, so niceness fails after about F pair tests
    points, table, pairs = interval_model(rng)
    fams = triple_families(points, cyclic_triples(len(points), pairs))
    fams.append(overlap_family(fams[0]))
    doc = system_doc(points, 3, table, fams)
    cy.build(cy.doc("large.json", doc))


_GENERATORS = {"combinatorial": _combinatorial, "interval": _interval, "witness": _witness}

# Each run enumerates every (m, n, iso) of its workload once, spread
# evenly over its cycles; the inputs cannot vary with the seed.
_ENUMERATE = {
    "combinatorial": ((6, 2, True),),
    # labeled only: no canonical form on this workload
    "interval": ((4, 2, False), (4, 3, False), (5, 2, False), (5, 4, False)),
    "witness": ((3, 2, True), (4, 2, True), (5, 2, True), (3, 2, False),
                (4, 2, False), (4, 3, False), (5, 4, False), (5, 2, False)),
}


def cycle_count(workload: str, seconds: float) -> int:
    extra = (seconds - FIRST_CYCLE_S[workload]) // CYCLE_S[workload]
    return 1 + max(0, int(extra))


# Kinds that carry a workload's purpose run in generation order; the
# other ops are shuffled and spread evenly between them, so each kind's
# total samples the whole cycle rather than one stretch of it (the
# host's speed drifts over seconds).
_MAIN = {
    "combinatorial": {"enumerate", "census", "extend", "obstruct"},
    "interval": {"continuity", "derive", "check_nice", "build"},
    "witness": set(),
}


def _interleave(ops, main, rng):
    mains = [op for op in ops if op.kind in main]
    fills = [op for op in ops if op.kind not in main]
    rng.shuffle(fills)
    slots = len(mains) + 1
    out = []
    for k in range(slots):
        out.extend(fills[k * len(fills) // slots:(k + 1) * len(fills) // slots])
        if k < len(mains):
            out.append(mains[k])
    return out


def write_docs(docs) -> None:
    for path, doc in docs:
        _write(path, doc)


def cycle_ops(workload: str, seed: int, cycle: int, cycles: int, workdir: str):
    """(ops, documents to write with write_docs) of one cycle."""
    rng = random.Random(f"{workload}-{seed}-{cycle}")
    cy = Cycle(workdir, cycle)
    inputs = _ENUMERATE[workload]
    for i, (m, n, iso) in enumerate(inputs):
        if i * cycles // len(inputs) == cycle:
            cy.enumerate(m, n, iso)
    _GENERATORS[workload](cy, rng, seed, cycle)
    return _interleave(cy.ops, _MAIN[workload], rng), cy.docs
