"""JSON document readers and writers.

Schemas:
  selection  {"ground": [label], "n": int,
              "choices": [{"subset": [label], "pick": label}]}
  partial    {"carrier": [label], "mode": "upto"|"exact", "bound": int,
              "choices": [{"subset": [label], "pick": label}]}
  family     {"intervals": [{"lo": "p/q", "hi": "p/q"}]}
  model      {"points": ["p/q"], "selection": <partial>}
  system     {"model": <model>, "families": [<family>]}

Labels are strings; rationals are decimal-free "p/q" strings (writers
always emit the slash form, readers also accept a bare integer).
Readers reject unknown fields.  Writers emit subset labels in carrier
order and choices in subset-rank order, and dumps renders every document
and report as one line of compact ASCII JSON with sorted keys, so equal
objects serialize to equal bytes.  Choices laid out as the writers lay
them out are read by one positional pass that matches each record to
the next subset in rank order, each carrier string resolved to its index
once; any other list is read record by record through the per-field
checks, each label resolved where it stands (in a model after the
fraction parse, so "2/4" is "1/2"), whose messages name the first fault:
a label outside the carrier at its record, a subset listed twice under
any spelling, any other fault of the table in the rank-order walk.
A model's carrier reuses the Fractions parsed from its points.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Any, Mapping, Optional

from .chains import FamilySystem
from .errors import ChoiceOutsideSubset, DocumentError, OutOfRange
from .extension import PartialSelection, admissible_sizes, partial_from_indices
from .structures import GroundSet, SelectionStructure, index_selection, subset_ranks
from .vietoris import IntervalOpen, ModelSpace, OpenFamily, model_space


def fraction_str(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # a part past the interpreter's digit limit
        raise DocumentError(str(exc)) from exc


_FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_fraction(s: Any, where: str = "value") -> Fraction:
    """Accept "p/q" or a bare integer "p": ASCII digits with an optional
    minus sign on p and nothing else.  Decimals, a plus sign, a sign on
    q, spaces, underscores and non-ASCII digits are rejected, and so is
    q = 0."""
    if not isinstance(s, str):
        raise DocumentError(f"{where}: expected a fraction string, got {s!r}")
    if _FRACTION.fullmatch(s) is None:
        raise DocumentError(f"{where}: bad fraction {s!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or "1"))
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: bad fraction {s!r}") from exc


def label_str(x: Any) -> str:
    if isinstance(x, Fraction):
        return fraction_str(x)
    return str(x)


def jsonable(x: Any) -> Any:
    """Recursive conversion of report payloads to JSON-ready values."""
    if isinstance(x, Fraction):
        return fraction_str(x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, Mapping):
        return {label_str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def dumps(doc: Any) -> str:
    """Canonical rendering: json's C encoder with sorted keys, no
    whitespace and ASCII only (anything else as a \\u escape), then one
    trailing newline.  Equal documents give byte-equal text.  Documents
    and reports are built fresh in this process and share read-only
    parts (write_selections), so json's circular-reference guard is off:
    a shared object renders in every place it appears, and a cycle still
    raises, as RecursionError."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def _check_fields(doc: Any, required: tuple, where: str) -> None:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - set(required)
    if unknown:
        raise DocumentError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise DocumentError(f"{where}: missing fields {sorted(missing)}")


def _string_list(xs: Any, where: str) -> tuple:
    if not isinstance(xs, list) or not all(isinstance(x, str) for x in xs):
        raise DocumentError(f"{where}: expected a list of strings")
    return tuple(xs)


def _int(x: Any, where: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise DocumentError(f"{where}: expected an integer, got {x!r}")
    return x


_INTERVAL_KEYS = frozenset(("lo", "hi"))
_FAMILY_KEYS = frozenset(("intervals",))


def _positional_levels(doc: Any, carrier: GroundSet, strings: tuple,
                       sizes: range) -> Optional[dict]:
    """{size: SelectionStructure} read from choice records laid out as
    the writers lay them out, else None.

    The records must list every subset of the sizes in sizes (all within
    1..carrier size) once, sizes ascending and subsets in rank order,
    each as a two-key dict whose subset is the list of its carrier
    strings in carrier order and whose pick is a carrier string inside
    it.  The count is checked before any rank table is built, and each
    record is matched against the next subset: no table keyed by subset."""
    m = carrier.size
    if type(doc) is not list or sizes and not (1 <= sizes.start and sizes.stop <= m + 1):
        return None
    total = 0
    for n in sizes:
        total += math.comb(m, n)
        if total > len(doc):
            return None
    if total != len(doc):
        return None
    known = dict(zip(strings, range(m))).__getitem__  # strings only: any other label misses
    records = iter(doc)
    levels = {}
    try:
        for n in sizes:
            picks = []
            for sub, rec in zip(subset_ranks(m, n)[0], records):
                if type(rec) is not dict or len(rec) != 2:
                    return None
                subset = rec["subset"]
                if type(subset) is not list or tuple(map(known, subset)) != sub:
                    return None
                picks.append(known(rec["pick"]))
            levels[n] = SelectionStructure(carrier, n, tuple(picks))
    except (KeyError, TypeError, ChoiceOutsideSubset):
        return None
    return levels


def _read_choices(doc: Any, where: str, carrier: GroundSet, parse: bool = False) -> dict:
    """Choice records to the index table partial_from_indices takes,
    through the per-field checks in record order; each label (a fraction
    when parse is set) looked up in the carrier, and one outside it
    rejected at its record, subset labels in list order before the pick."""
    if not isinstance(doc, list):
        raise DocumentError(f"{where}: expected a list of choice records")

    def resolve(x: str, r: int, field: str) -> int:
        try:
            return carrier.index(parse_fraction(x, f"{where}.{field}") if parse else x)
        except OutOfRange:
            raise DocumentError(f"{where}[{r}].{field}: {x!r} is not a carrier label") from None

    table: dict = {}
    for r, rec in enumerate(doc):
        _check_fields(rec, ("subset", "pick"), f"{where}[{r}]")
        subset, pick = rec["subset"], rec["pick"]
        if not (isinstance(subset, list) and all(isinstance(x, str) for x in subset)):
            raise DocumentError(f"{where}[{r}].subset: expected a list of strings")
        if not isinstance(pick, str):
            raise DocumentError(f"{where}[{r}].pick: expected a string")
        key = tuple(sorted({resolve(x, r, "subset") for x in subset}))
        if len(key) != len(subset):
            raise DocumentError(f"{where}[{r}].subset: repeated labels")
        if key in table:
            raise DocumentError(f"{where}[{r}].subset: duplicate subset")
        table[key] = resolve(pick, r, "pick")
    return table


# -- selection structures ------------------------------------------------

def write_selections(structures) -> list:
    """write_selection of each structure, in order.  The label strings
    are rendered once per ground object (keyed by id, as equal grounds
    may hold labels that render apart: 0 and Fraction(0)).  The ground
    list, the subset label lists and the choice records are built once
    per distinct (rendered ground, n), a record once per (subset rank,
    pick), and shared by every structure on it, so the records must be
    read, not edited in place."""
    rendered: dict = {}  # id(ground) -> (ground, label strings); the ground keeps its id
    shared: dict = {}  # (label strings, n) -> (ground list, subset lists, records by rank)
    out = []
    for s in structures:
        seen = rendered.get(id(s.ground))
        if seen is None:
            seen = rendered[id(s.ground)] = (s.ground, tuple(map(label_str, s.ground.labels)))
        names = seen[1]
        key = (names, s.n)
        if key not in shared:
            subs, _ = s.table
            shared[key] = (list(names), [[names[i] for i in t] for t in subs], [{} for _ in subs])
        ground, subsets, records = shared[key]
        out.append({
            "ground": ground,
            "n": s.n,
            # records are non-empty dicts, so get() misses only on a new pick
            "choices": [row.get(p) or row.setdefault(p, {"subset": t, "pick": names[p]})
                        for t, row, p in zip(subsets, records, s.picks)],
        })
    return out


def write_selection(s: SelectionStructure) -> dict:
    return write_selections((s,))[0]


def read_selection(doc: Any) -> SelectionStructure:
    _check_fields(doc, ("ground", "n", "choices"), "selection")
    strings = _string_list(doc["ground"], "selection.ground")
    n = _int(doc["n"], "selection.n")
    ground = GroundSet(strings)
    levels = _positional_levels(doc["choices"], ground, strings, range(n, n + 1))
    if levels is not None:
        return levels[n]
    return index_selection(ground, n, _read_choices(doc["choices"], "selection.choices", ground))


# -- partial selections --------------------------------------------------

def write_partial(p: PartialSelection) -> dict:
    return {
        "carrier": [label_str(x) for x in p.carrier.labels],
        "mode": p.mode,
        "bound": p.bound,
        "choices": [c for g in write_selections(p.levels[n] for n in p.admissible_sizes())
                    for c in g["choices"]],
    }


def read_partial(doc: Any) -> PartialSelection:
    return _read_partial(doc, None)


def _read_partial(doc: Any, parsed: Optional[dict]) -> PartialSelection:
    """A partial document's selection; unless parsed is None, labels are
    fractions, and a carrier string in parsed reuses its fraction there."""
    _check_fields(doc, ("carrier", "mode", "bound", "choices"), "partial")
    strings = _string_list(doc["carrier"], "partial.carrier")
    mode = doc["mode"]
    if mode not in ("upto", "exact"):
        raise DocumentError(f"partial.mode: expected 'upto' or 'exact', got {mode!r}")
    bound = _int(doc["bound"], "partial.bound")
    if parsed is None:
        carrier = GroundSet(strings)
    else:
        carrier = GroundSet(tuple(
            parsed[x] if x in parsed else parse_fraction(x, "partial.carrier") for x in strings))
    levels = _positional_levels(doc["choices"], carrier, strings, admissible_sizes(mode, bound))
    if levels is not None:
        return PartialSelection(carrier, mode, bound, levels)
    return partial_from_indices(carrier, mode, bound, _read_choices(
        doc["choices"], "partial.choices", carrier, parsed is not None))


# -- interval families ---------------------------------------------------

def write_family(fam: OpenFamily) -> dict:
    return {
        "intervals": [
            {"lo": fraction_str(u.lo), "hi": fraction_str(u.hi)}
            for u in fam.members
        ]
    }


def read_family(doc: Any, intervals: Optional[dict] = None) -> OpenFamily:
    """intervals maps (lo, hi) strings to the opens read from them."""
    if not (isinstance(doc, dict) and doc.keys() == _FAMILY_KEYS):
        _check_fields(doc, ("intervals",), "family")
    if not isinstance(doc["intervals"], list):
        raise DocumentError("family.intervals: expected a list")
    intervals = {} if intervals is None else intervals
    members = []
    for i, rec in enumerate(doc["intervals"]):
        u = None
        # a two-key dict holding lo and hi has just those keys; intervals
        # holds string pairs only, so any other value misses
        if type(rec) is dict and len(rec) == 2:
            try:
                u = intervals[rec["lo"], rec["hi"]]
            except (KeyError, TypeError):
                pass
        if u is None:
            here = f"family.intervals[{i}]"
            if not (isinstance(rec, dict) and rec.keys() == _INTERVAL_KEYS):
                _check_fields(rec, ("lo", "hi"), here)
            lo, hi = rec["lo"], rec["hi"]
            u = intervals[lo, hi] = IntervalOpen(parse_fraction(lo, f"{here}.lo"),
                                                 parse_fraction(hi, f"{here}.hi"))
        members.append(u)
    return OpenFamily(tuple(members))


# -- model spaces and family systems --------------------------------------

def write_model(model: ModelSpace) -> dict:
    return {
        "points": [fraction_str(p) for p in model.points],
        "selection": write_partial(model.selection),
    }


def read_model(doc: Any) -> ModelSpace:
    _check_fields(doc, ("points", "selection"), "model")
    raw = _string_list(doc["points"], "model.points")
    points = tuple(parse_fraction(p, "model.points") for p in raw)
    selection = _read_partial(doc["selection"], dict(zip(raw, points)))
    return model_space(points, selection)


def write_system(system: FamilySystem) -> dict:
    return {
        "model": write_model(system.model),
        "families": [write_family(f) for f in system.families],
    }


def read_system(doc: Any) -> FamilySystem:
    _check_fields(doc, ("model", "families"), "system")
    model = read_model(doc["model"])
    if not isinstance(doc["families"], list):
        raise DocumentError("system.families: expected a list")
    intervals: dict = {}
    fams = tuple(read_family(f, intervals) for f in doc["families"])
    return FamilySystem(fams, model)
