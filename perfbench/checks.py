"""Output checks, by meaning wherever the representation may change.

Every check recomputes its answer independently of hypersel (this
module does not import it) from the op's input documents, read back
from their files:

- enumerate: class counts against OEIS A000568, labeled counts against
  n^C(m,n), and pairwise non-isomorphism by brute force over all
  relabelings;
- census: counts against OEIS A007079, scores and 3-cycle property
  recomputed from the masks;
- extend: entries and selection against the level-class rule evaluated
  per subset; the canonical "type" field is never digested;
- obstruct: byte digest of the TSV against an independent rendering;
- refutations: each witness is re-verified (the families really overlap
  without a unique meet; the point tuple really fails at the smallest
  radius the continuity search tries);
- derive, check-nice, build: families, components, covers and built
  values recomputed from interval arithmetic on integers.

A check returns None when the output is right, else a short reason.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
from fractions import Fraction

A000568 = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}  # tournaments up to iso
A007079 = {1: 1, 3: 2, 5: 24, 7: 2640, 9: 3230080}  # labeled regular tournaments
RADIUS_FLOOR_SHIFT = 40  # documented floor of the continuity radius search


def _json(data: bytes):
    return json.loads(data.decode())


def _input(op):
    """The op's input document, read back from its file."""
    with open(op.info["input"]) as fh:
        return json.load(fh)


def _frac(s):
    """A "p/q" or integer string; faster than Fraction(str)."""
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


# -- selections ---------------------------------------------------------------


def _table(choices):
    return {frozenset(c["subset"]): c["pick"] for c in choices}


def _valid_selection(rec, m, n):
    if rec["ground"] != [str(i) for i in range(m)] or rec["n"] != n:
        return False
    table = _table(rec["choices"])
    subs = list(itertools.combinations(rec["ground"], n))
    return len(table) == len(rec["choices"]) == len(subs) and all(
        table.get(frozenset(s)) in s for s in subs
    )


def _brute_canonical(rec, m):
    """Least pick encoding over every relabeling of a tournament record."""
    win = {}
    for c in rec["choices"]:
        a, b = (int(x) for x in c["subset"])
        win[(min(a, b), max(a, b))] = int(c["pick"])
    pairs = list(itertools.combinations(range(m), 2))
    best = None
    for perm in itertools.permutations(range(m)):
        inv = [0] * m
        for old, new in enumerate(perm):
            inv[new] = old
        enc = tuple(
            perm[win[(min(inv[i], inv[j]), max(inv[i], inv[j]))]] for i, j in pairs
        )
        if best is None or enc < best:
            best = enc
    return best


def check_enumerate(op, rc, data):
    m, n, iso = op.info["m"], op.info["n"], op.info["iso"]
    if rc != 0:
        return f"exit {rc}"
    res = _json(data)["result"]
    recs = res["records"]
    want = A000568[m] if iso else n ** math.comb(m, n)
    if res["count"] != want or len(recs) != want:
        return f"count {res['count']} != {want}"
    if not all(_valid_selection(r, m, n) for r in recs):
        return "invalid record"
    keys = {json.dumps(r["choices"], sort_keys=True) for r in recs}
    if len(keys) != len(recs):
        return "repeated record"
    if iso and n == 2 and m <= 6:
        canon = {_brute_canonical(r, m) for r in recs}
        if len(canon) != len(recs):
            return "two records are isomorphic"
    return None


# -- census -------------------------------------------------------------------


def _mask_scores(mask, m):
    w = [0] * m
    for b, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        w[j if (mask >> b) & 1 else i] += 1
    return w


def _mask_cycle_ok(mask, m):
    pos = {p: b for b, p in enumerate(itertools.combinations(range(m), 2))}

    def pick(a, b):
        i, j = min(a, b), max(a, b)
        return j if (mask >> pos[(i, j)]) & 1 else i

    for x, y in itertools.permutations(range(m), 2):
        if pick(x, y) == y and not any(
            pick(y, z) == z and pick(z, x) == x for z in range(m) if z not in (x, y)
        ):
            return False
    return True


def check_census(op, result):
    m = op.info["m"]
    masks, verdicts = result
    if len(masks) != A007079[m]:
        return f"census {len(masks)} != {A007079[m]}"
    if len(set(masks)) != len(masks):
        return "repeated mask"
    target = (m - 1) // 2
    if any(set(_mask_scores(x, m)) != {target} for x in masks):
        return "non-regular mask"
    if not all(verdicts):
        return "cycle property refuted on a regular tournament"
    if not all(_mask_cycle_ok(x, m) for x in masks[:: max(1, len(masks) // 64)]):
        return "3-cycle recheck failed"
    return None


def check_kernels(rows):
    """Kernel rows: backtracking agrees with the exhaustive scan, counts
    match A007079, and every available backend gives equal results."""
    for name, results in rows.items():
        first = results[0]
        if any(r != first for r in results[1:]):
            return f"{name}: backends differ"
    if rows["exhaustive_m5"][0] != rows["backtracking_m5"][0]:
        return "backtracking and exhaustive scans differ at m=5"
    if rows["exhaustive_m6"][0] != []:
        return "regular tournament found on 6 vertices"
    if len(rows["backtracking_m7"][0]) != A007079[7]:
        return "backtracking m=7 count"
    if rows["cycle_violation_m7"][0] is not None:
        return "3-cycle violation reported"
    scores = rows["scores_m6"][0]
    if any(list(scores[x]) != _mask_scores(x, 6) for x in range(0, 1 << 15, 97)):
        return "tournament scores differ from recount"
    return None


# -- obstruct -----------------------------------------------------------------


def reference_tsv(max_m: int) -> bytes:
    spf = list(range(max_m + 1))
    for i in range(2, math.isqrt(max_m) + 1):
        if spf[i] == i:
            for j in range(i * i, max_m + 1, i):
                if spf[j] == j:
                    spf[j] = i
    lines = ["m\tp\tbinom\tdivisible\tlucas_residue\tsearch_status"]
    for m in range(2, max_m + 1):
        primes, k = set(), m
        while k > 1:
            primes.add(spf[k])
            k //= spf[k]
        for p in sorted(primes):
            c = math.comb(m, p)
            div = c % m == 0
            status = "proven-none" if not div else "?"
            lines.append(
                f"{m}\t{p}\t{c}\t{'true' if div else 'false'}\t"
                f"{math.comb(m - 1, p - 1) % p}\t{status}"
            )
    return ("\n".join(lines) + "\n").encode()


def check_obstruct(op, rc, data):
    if rc != 0:
        return f"exit {rc}"
    want = hashlib.sha256(reference_tsv(op.info["max_m"])).hexdigest()
    if hashlib.sha256(data).hexdigest() != want:
        return "TSV digest differs from the reference rendering"
    return None


# -- extend -------------------------------------------------------------------


def _prime(k):
    return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))


def extend_hypotheses(doc, m, p):
    k, size = doc["bound"], len(doc["carrier"])
    return (_prime(p) and doc["mode"] == "upto" and p <= k and m <= 2 * k
            and m % p == 0 and m <= size)


def level_class_rule(doc, m, p):
    """{frozenset(m-subset): pick} by the least small level class of the
    subset's own arity-p restriction."""
    table = _table(doc["choices"])
    out = {}
    for sub in itertools.combinations(doc["carrier"], m):
        score = dict.fromkeys(sub, 0)
        for t in itertools.combinations(sub, p):
            score[table[frozenset(t)]] += 1
        for r in range(max(score.values()) + 1):
            cls = [x for x in sub if score[x] == r]
            if 0 < 2 * len(cls) <= m:
                break
        else:
            return None
        out[frozenset(sub)] = table[frozenset(cls)]
    return out


def check_extend(op, rc, data):
    doc, m, p = _input(op), op.info["m"], op.info["p"]
    res = _json(data)["result"]
    if not extend_hypotheses(doc, m, p):
        if rc != 1 or res.get("valid") is not False or not res.get("error"):
            return f"hypothesis violation not reported (exit {rc})"
        return None
    if rc != 0:
        return f"exit {rc}"
    want = level_class_rule(doc, m, p)
    if want is None:
        return "reference rule undefined"
    sel = res["selection"]
    if (sel["carrier"] != doc["carrier"] or sel["mode"] != "exact"
            or sel["bound"] != m or _table(sel["choices"]) != want
            or len(sel["choices"]) != len(want)):
        return "selection differs from the level-class rule"
    entries = res["entries"]
    if _table(entries) != want or len(entries) != len(want) or res["count"] != len(want):
        return "entries differ from the level-class rule"
    if res["valid"] is not True:
        return "valid flag"
    if sum(c["members"] for c in res["classes"]) != len(want):
        return "class members do not add up to the subsets"
    for c in res["classes"]:
        t = c["type"]
        if not _valid_selection(t, m, p):
            return "class type is not a selection"
        score = [0] * m
        for ch in t["choices"]:
            score[int(ch["pick"])] += 1
        r0 = next((r for r in range(max(score) + 1) if 0 < 2 * score.count(r) <= m), None)
        if r0 is None or c["level"] != r0 or c["level_class_size"] != score.count(r0):
            return "class level differs from the type's scores"
    return None


# -- interval models ----------------------------------------------------------


class Model:
    """Points and choices of a model document, as Fractions."""

    def __init__(self, doc):
        self.labels = doc["points"]
        self.points = [_frac(x) for x in self.labels]
        sel = doc["selection"]
        self.bound = sel["bound"] if sel["mode"] == "upto" else None
        point = dict(zip(self.labels, self.points))
        self.table = {
            frozenset(point[x] for x in c["subset"]): point[c["pick"]]
            for c in sel["choices"]
        }

    def admits(self, size):
        return self.bound is not None and 1 <= size <= self.bound

    def domain(self):
        for size in range(1, (self.bound or 0) + 1):
            yield from itertools.combinations(self.points, size)


def _initial_radius(model, pts):
    if len(pts) >= 2:
        return min(b - a for a, b in zip(pts, pts[1:])) / 2
    others = [abs(q - pts[0]) for q in model.points if q != pts[0]]
    return min(others) / 2 if others else Fraction(1)


def continuity_fails(model, pts):
    """True iff the tuple preserves no relation at the smallest radius the
    search tries; a failure there implies failure at every larger radius
    of the search, whose families stay disjoint."""
    pts = sorted(pts)
    r = _initial_radius(model, pts) / 2**RADIUS_FLOOR_SHIFT
    pools = [[q for q in model.points if p - r < q < p + r] for p in pts]
    picks = [model.table[frozenset(t)] for t in itertools.product(*pools)]
    return not any(
        all(p - r < x < p + r for x in picks) for p in pts
    )


def provably_continuous(model):
    """Every search reaches a radius below half the minimum gap, where
    each interval holds only its own point."""
    pts = model.points
    if len(pts) < 2:
        return True
    half_gap = min(b - a for a, b in zip(pts, pts[1:])) / 2
    widest = max(_initial_radius(model, t) for t in model.domain()) if model.bound else 0
    return widest / 2**RADIUS_FLOOR_SHIFT < half_gap


def check_continuity(op, rc, data):
    model = Model(_input(op))
    res = _json(data)["result"]
    if rc == 0:
        if res != {"continuous": True, "witness": None}:
            return "verdict fields"
        return None if provably_continuous(model) else "continuity claimed, not provable"
    if rc != 1 or res.get("continuous") is not False:
        return f"exit {rc}"
    try:
        pts = [_frac(x) for x in res["witness"]]
    except (TypeError, ValueError):
        return "malformed witness"
    if not all(p in model.points for p in pts) or not model.admits(len(pts)):
        return "witness is not a domain subset"
    return None if continuity_fails(model, pts) else "witness tuple does not fail"


# -- family systems -----------------------------------------------------------


class System:
    """A system document on integer coordinates (one common denominator)."""

    def __init__(self, doc):
        self.model = Model(doc["model"])
        fams = [
            [(_frac(u["lo"]), _frac(u["hi"])) for u in f["intervals"]]
            for f in doc["families"]
        ]
        den = 1
        for q in itertools.chain(self.model.points, *itertools.chain(*fams)):
            den = math.lcm(den, q.denominator)
        self.scaled = [int(p * den) for p in self.model.points]
        self.fams = [[(int(lo * den), int(hi * den)) for lo, hi in f] for f in fams]
        self.arity = len(self.fams[0]) if self.fams else 0

    def inside(self, member):
        """Indices of model points strictly inside an interval."""
        lo, hi = member
        a = bisect.bisect_right(self.scaled, lo)
        b = bisect.bisect_left(self.scaled, hi)
        return list(range(a, b))

    def hits(self):
        """{(u, v): [[members of v meeting member i of u] for i]} for every
        ordered pair of distinct families with some meeting members."""
        members = sorted(
            (lo, hi, f, i) for f, fam in enumerate(self.fams) for i, (lo, hi) in enumerate(fam)
        )
        out = {}
        active = []
        for lo, hi, f, i in members:
            active = [a for a in active if a[1] > lo]
            for alo, ahi, g, j in active:
                if g == f:
                    continue
                out.setdefault((f, g), [[] for _ in self.fams[f]])[i].append(j)
                out.setdefault((g, f), [[] for _ in self.fams[g]])[j].append(i)
            active.append((lo, hi, f, i))
        return out

    def overlaps(self, rows, u, v):
        """Vietoris opens of u and v intersect (rows from hits)."""
        if rows is None:
            return False
        cols = {j for r in rows for j in r}
        return all(rows) and len(cols) == len(self.fams[v])

    def covered(self):
        """{index tuple: set of covering families}."""
        out = {}
        for f, fam in enumerate(self.fams):
            pools = [self.inside(m) for m in fam]
            for pick in itertools.product(*pools):
                out.setdefault(tuple(sorted(pick)), set()).add(f)
        return out

    def labels(self, idx):
        return [self.model.labels[i] for i in idx]


def _components(sys_, hits):
    parent = list(range(len(sys_.fams)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = [(u, v) for (u, v), rows in hits.items() if all(len(r) == 1 for r in rows)]
    for u, v in edges:
        parent[find(u)] = find(v)
    comps = {}
    for f in range(len(sys_.fams)):
        comps.setdefault(find(f), []).append(f)
    return sorted(comps.values()), edges


def _overlap_witness_ok(sys_, w):
    """w names two families that overlap without a unique meet."""
    if not (isinstance(w, list) and len(w) == 3 and w[0] == "overlap-without-unique-meet"):
        return False
    _, u, v = w
    if not (isinstance(u, int) and isinstance(v, int) and u != v
            and 0 <= u < len(sys_.fams) and 0 <= v < len(sys_.fams)):
        return False
    rows = [[j for j, b in enumerate(sys_.fams[v]) if max(a[0], b[0]) < min(a[1], b[1])]
            for a in sys_.fams[u]]
    return sys_.overlaps(rows, u, v) and any(len(r) != 1 for r in rows)


def _nice_reason(sys_, hits, edges):
    """Why a claimed-nice system is not provably nice, or None.  Only
    systems without unique-meet edges are generated, so transfer
    consistency never needs checking."""
    if any(sys_.overlaps(rows, u, v) and any(len(r) != 1 for r in rows)
           for (u, v), rows in hits.items()):
        return "families overlap without a unique meet"
    if edges:
        return "system needs a transfer argument the check does not make"
    return None


def check_nice(op, rc, data):
    sys_ = System(_input(op))
    res = _json(data)["result"]
    hits = sys_.hits()
    comps, edges = _components(sys_, hits)
    if rc == 1:
        if res["nice"] is not False or not _overlap_witness_ok(sys_, res["witness"]):
            return "witness does not overlap without a unique meet"
    elif rc == 0:
        if res["nice"] is not True or res["witness"] is not None:
            return "verdict fields"
        reason = _nice_reason(sys_, hits, edges)
        if reason:
            return reason
    else:
        return f"exit {rc}"
    if res["components"] != comps:
        return "components differ"
    cover = res["cover"]
    if sys_.arity == 0:
        ok = cover == {"covered": [], "covered_count": 0, "uncovered_count": 0}
        return None if ok else "cover of an empty system"
    covered = sys_.covered()
    want = [sys_.labels(t) for t in sorted(covered)]
    total = math.comb(len(sys_.scaled), sys_.arity)
    if (sorted(cover["covered"]) != sorted(want) or cover["covered_count"] != len(want)
            or cover["uncovered_count"] != total - len(want)):
        return "cover differs"
    return None


def check_build(op, rc, data):
    sys_ = System(_input(op))
    res = _json(data)["result"]
    if rc == 1:
        ok = res.get("built") is False and _overlap_witness_ok(sys_, res["witness"])
        return None if ok else "witness does not overlap without a unique meet"
    if rc != 0 or res["built"] is not True:
        return f"exit {rc}"
    hits = sys_.hits()
    comps, edges = _components(sys_, hits)
    reason = _nice_reason(sys_, hits, edges)
    if reason:
        return reason
    if res["components"] != comps:
        return "components differ"
    bases = res["bases"]
    if len(bases) != len(comps) or any(
        b[0] not in c or b[1] != 0 for b, c in zip(bases, comps)
    ):
        return "bases"
    base_of = {f: (b, len(c)) for b, c in zip(bases, comps) for f in c}
    covered = sys_.covered()
    m = sys_.arity
    all_subs = list(itertools.combinations(range(len(sys_.scaled)), m))
    want_uncovered = [sys_.labels(t) for t in all_subs if t not in covered]
    if res["uncovered"] != want_uncovered:
        return "uncovered subsets differ"
    values = {tuple(v["subset"]): v["pick"] for v in res["values"]}
    if len(values) != len(res["values"]) or set(values) != {tuple(sys_.labels(t)) for t in covered}:
        return "covered subsets differ"
    for t, fams in covered.items():
        pick = values[tuple(sys_.labels(t))]
        if pick not in sys_.labels(t):
            return "value outside its subset"
        for f in fams:
            (_, base_m), size = base_of[f]
            if size == 1:  # the transfer is the identity
                inside = set(sys_.inside(sys_.fams[f][base_m]))
                if [pick] != sys_.labels([i for i in t if i in inside]):
                    return "value is not the point in the base member"
    return None


def check_derive(op, rc, data):
    if rc != 0:
        return f"exit {rc}"
    doc = _json(data)
    model_in = _input(op)
    if Model(doc["model"]).__dict__ != Model(model_in).__dict__:
        return "model changed"
    sys_ = System(doc)
    model = sys_.model
    n = len(model.points)
    want = set()
    for t in itertools.combinations(range(n), 3):
        pts = [model.points[i] for i in t]
        wins = [0, 0, 0]
        for a, b in itertools.combinations(range(3), 2):
            wins[pts.index(model.table[frozenset((pts[a], pts[b]))])] += 1
        if wins == [1, 1, 1]:
            want.add(t)
    got = []
    half_gap = min(b - a for a, b in zip(sys_.scaled, sys_.scaled[1:])) / 2
    for fam in sys_.fams:
        if len(fam) != 3 or any(hi - lo > 2 * half_gap for lo, hi in fam):
            return "family shape"
        pools = [sys_.inside(m) for m in fam]
        if any(len(p) != 1 for p in pools):
            return "member without exactly one sample point"
        got.append(tuple(p[0] for p in pools))
    if len(got) != len(set(got)) or set(got) != want:
        return f"families cover {len(set(got))} triples, want the {len(want)} regular ones"
    return None


CLI_CHECKS = {
    "enumerate": check_enumerate,
    "obstruct": check_obstruct,
    "extend": check_extend,
    "continuity": check_continuity,
    "derive": check_derive,
    "check_nice": check_nice,
    "build": check_build,
}


def check_op(op, rc, data):
    """Reason the op's output is wrong, or None."""
    try:
        return CLI_CHECKS[op.kind](op, rc, data)
    except Exception as exc:  # any malformed output is a failed op, not a crash
        return f"malformed output: {type(exc).__name__}: {exc}"
