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
objects serialize to equal bytes.  Choice records are read in one walk:
while they run as the writers lay them out, each is matched to the next
subset in rank order by its carrier strings and its pick taken by
position; from the first size laid out otherwise, the rest are read
record by record through the per-field checks, each label resolved where
it stands (in a model after the fraction parse, so "2/4" is "1/2"),
whose messages name the first fault: a label outside the carrier at its
record, a subset listed twice under any spelling, any other fault of the
table in the rank-order walk.
A model's carrier reuses the Fractions parsed from its points.
dumps splices a Fragment's text in verbatim, so what reports repeat
(selection_texts: each choice record) is rendered once.  The system
document chains derive writes is rendered straight to text
(system_text, its selection by partial_text), with no dict tree and no
json encoding; the dict writers are the library API and the reference
the text writers equal under dumps.  A choice record is spelled as text
in one place (_record_texts), for the text writers and selection_texts.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted
from operator import getitem, is_
from typing import Any, Callable, Mapping, Optional

from .chains import FamilySystem
from .errors import ChoiceOutsideSubset, DocumentError, MissingSubset, OutOfRange, _shown
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
        raise DocumentError(f"{where}: expected a fraction string, got {_shown(s)}")
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


class Fragment:
    """Text exactly as dumps renders some value, less the newline, for
    dumps to splice in verbatim in each place the Fragment stands."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


_MARK = "\0fragment\0"  # what a Fragment renders as until it is spliced
_unknown = json.JSONEncoder().default  # json's TypeError for a value it cannot render


def fragment(doc: Any) -> Fragment:
    """doc rendered once, to be spliced wherever it stands."""
    return Fragment(dumps(doc)[:-1])


def dumps(doc: Any) -> str:
    """Canonical rendering: json's C encoder with sorted keys, no
    whitespace and ASCII only (anything else as a \\u escape), then one
    trailing newline.  Equal documents give byte-equal text.  Documents
    and reports are built fresh in this process and may share read-only
    parts (cmd_extend's choices Fragment), so json's circular-reference
    guard is off: a shared object renders in every place it appears,
    and a cycle still raises, as RecursionError.

    Each Fragment renders as a mark string, in output order, and its
    text replaces the quoted mark.  The quoted mark holds quotes only at
    its ends, a backslash after the first and a "0" before the last;
    a value has "[", ",", ":" or nothing before it and ",", "]", "}" or
    nothing after it.  So a string holding the mark adds occurrences
    that never overlap a Fragment's, and the split is exact when it
    finds one per Fragment.  Else the document is rendered again with a
    mark its text does not hold: only the Fragments' places change."""
    texts: list = []
    mark = _MARK

    def splice(x: Any) -> str:
        if type(x) is not Fragment:
            return _unknown(x)
        texts.append(x.text)
        return mark

    while True:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False,
                          default=splice)
        if not texts:
            return text + "\n"
        parts = text.split(_quoted(mark))
        if len(parts) == len(texts) + 1:
            break
        n = 0
        while _quoted(mark) in text:
            n += 1
            mark = f"\0fragment {n}\0"
        texts.clear()
    parts[-1] += "\n"
    pieces = [""] * (2 * len(parts) - 1)
    pieces[::2] = parts
    pieces[1::2] = texts
    return "".join(pieces)


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
        raise DocumentError(f"{where}: expected an integer, got {_shown(x)}")
    return x


_INTERVAL_KEYS = frozenset(("lo", "hi"))
_FAMILY_KEYS = frozenset(("intervals",))


def _read_choices(doc: Any, where: str, carrier: GroundSet, strings: tuple, sizes: range,
                  walk: Callable[[dict], dict], parse: bool = False) -> dict:
    """{size: SelectionStructure} on each of sizes, from choice records
    in one walk.  While the records run as the writers lay them out, a
    size's picks are taken by position: its records are two-key dicts,
    each subset the next subset's carrier strings in carrier order, each
    pick a carrier string inside it, and no rank table is built for more
    subsets than records are left.  From the first size that is not, the
    sizes read seed the {index tuple: pick} table that walk, the
    rank-order walk, takes, and the rest of the records go through the
    per-field checks: a label found by the carrier strings, else (parsed
    as a fraction when parse is set, so "2/4" finds "1/2") in the
    carrier, one outside it rejected at its record, subset labels before
    the pick.  Records read by position pass those checks, so the
    messages and the fault named first are those of a checked read."""
    if not isinstance(doc, list):
        raise DocumentError(f"{where}: expected a list of choice records")
    m = carrier.size
    known = dict(zip(strings, range(m)))
    at = known.__getitem__  # strings only: any other label misses
    records = iter(doc)
    levels: dict = {}
    done = 0  # records read by position
    for n in sizes:
        if not 1 <= n <= m or math.comb(m, n) > len(doc) - done:
            break
        subs = subset_ranks(m, n)[0]
        picks = []
        try:
            for sub, rec in zip(subs, records):
                if type(rec) is not dict or len(rec) != 2:
                    break
                subset = rec["subset"]
                if type(subset) is not list or tuple(map(at, subset)) != sub:
                    break
                picks.append(at(rec["pick"]))
            levels[n] = SelectionStructure(carrier, n, tuple(picks))  # a pick short or outside raises
        except (KeyError, TypeError, MissingSubset, ChoiceOutsideSubset):
            break
        done += len(subs)
    else:
        if done == len(doc):
            return levels

    def resolve(x: str, r: int, field: str) -> int:
        i = known.get(x)
        if i is not None:
            return i
        try:
            return carrier.index(parse_fraction(x, f"{where}.{field}") if parse else x)
        except OutOfRange:
            raise DocumentError(f"{where}[{r}].{field}: {x!r} is not a carrier label") from None

    table = {sub: p for level in levels.values() for sub, p in zip(level.table[0], level.picks)}
    for r in range(done, len(doc)):
        rec = doc[r]
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
    return walk(table)


# -- selection structures ------------------------------------------------

def _records(names: list, s: SelectionStructure) -> list:
    """s's choice records in subset-rank order, labels spelled as names
    spells the ground's."""
    return [{"subset": [names[i] for i in t], "pick": names[p]}
            for t, p in zip(s.table[0], s.picks)]


def _record_heads(quoted: list) -> list:
    """Each label's choice record text up to its subset's labels, given
    the label quoted (quoted[i] for label i); see _record_texts."""
    return ['{"pick":' + q + ',"subset":[' for q in quoted]


def _record_texts(heads: list, subsets: list, picks) -> list:
    """The text of each choice record of subsets and picks, taken
    pairwise: a subset's labels joined (_subsets) after its pick's head
    (_record_heads).  The one spelling of a record as text."""
    return [heads[p] + t + "]}" for t, p in zip(subsets, picks)]


def _subsets(quoted: list, n: int, shorter: Optional[list] = None) -> list:
    """The n-subsets of the labels (n >= 1) in rank order, each as its
    labels' quoted texts (quoted[i] for label i) joined by commas;
    shorter is the (n-1)-subsets' list, when the caller has it.  In rank
    order the (n-1)-subsets of the labels after i are the last
    C(m-1-i, n-1), so each text joins one label's to one shorter text."""
    if n == 1:
        return list(quoted)
    if shorter is None:
        shorter = _subsets(quoted, n - 1)
    m = len(quoted)
    texts: list = []
    for i in range(m - n + 1):
        head = quoted[i] + ","
        texts += [head + t for t in shorter[len(shorter) - math.comb(m - 1 - i, n - 1):]]
    return texts


class _Records(dict):
    """{pick: choice record text} at one subset, each rendered on first
    lookup."""

    __slots__ = ("heads", "subset")

    def __init__(self, heads: list, subset: str):
        self.heads = heads
        self.subset = subset

    def __missing__(self, p: int) -> str:
        (text,) = _record_texts(self.heads, (self.subset,), (p,))
        self[p] = text
        return text


def selection_texts(structures) -> list:
    """A Fragment of dumps(write_selection(s)) for each structure s, in
    order.  Per (ground object, n) each label is quoted once, as json
    quotes strings, and each subset's labels joined once; a choice
    record is rendered on the first use of its (subset rank, pick), and
    each text joins its structure's records.  The tables are keyed by
    the ground's id, as equal grounds may hold labels that render apart
    (0 and Fraction(0)), and held with the ground, so the id is not
    reused during the walk."""
    shared: dict = {}  # (id(ground), n) -> (ground, records by rank, text after them)
    texts = []
    for s in structures:
        key = (id(s.ground), s.n)
        if key not in shared:
            quoted = [_quoted(label_str(x)) for x in s.ground.labels]
            heads = _record_heads(quoted)
            rows = [_Records(heads, sub) for sub in _subsets(quoted, s.n)]
            shared[key] = (s.ground, rows, f'],"ground":[{",".join(quoted)}],"n":{s.n}}}')
        _, rows, tail = shared[key]
        texts.append(Fragment('{"choices":[' + ",".join(map(getitem, rows, s.picks)) + tail))
    return texts


def write_selection(s: SelectionStructure) -> dict:
    names = [label_str(x) for x in s.ground.labels]
    return {"ground": names, "n": s.n, "choices": _records(names, s)}


def read_selection(doc: Any) -> SelectionStructure:
    _check_fields(doc, ("ground", "n", "choices"), "selection")
    strings = _string_list(doc["ground"], "selection.ground")
    n = _int(doc["n"], "selection.n")
    ground = GroundSet(strings)
    return _read_choices(doc["choices"], "selection.choices", ground, strings, range(n, n + 1),
                         lambda table: {n: index_selection(ground, n, table)})[n]


# -- partial selections --------------------------------------------------

def write_partial(p: PartialSelection) -> dict:
    names = [label_str(x) for x in p.carrier.labels]
    choices = []
    for n in p.admissible_sizes():
        choices += _records(names, p.levels[n])
    return {"carrier": names, "mode": p.mode, "bound": p.bound, "choices": choices}


def partial_text(p: PartialSelection, quoted: Optional[list] = None) -> str:
    """dumps(write_partial(p)) less its newline, rendered straight to
    text (_record_texts); quoted, when given, holds each carrier label
    quoted, as json quotes label_str's string."""
    if quoted is None:
        quoted = [_quoted(label_str(x)) for x in p.carrier.labels]
    heads = _record_heads(quoted)
    choices: list = []
    subsets = None
    for n in p.admissible_sizes():
        subsets = _subsets(quoted, n, subsets)
        choices += _record_texts(heads, subsets, p.levels[n].picks)
    return (f'{{"bound":{p.bound!r},"carrier":[{",".join(quoted)}],"choices":[{",".join(choices)}],'
            f'"mode":{_quoted(p.mode)}}}')


def read_partial(doc: Any) -> PartialSelection:
    return _read_partial(doc, None)


def _read_partial(doc: Any, parsed: Optional[dict]) -> PartialSelection:
    """A partial document's selection; unless parsed is None, labels are
    fractions, and a carrier string in parsed reuses its fraction there.
    Its choices are read in one _read_choices walk, with
    partial_from_indices as the rank-order walk of any keyed rest."""
    _check_fields(doc, ("carrier", "mode", "bound", "choices"), "partial")
    strings = _string_list(doc["carrier"], "partial.carrier")
    mode = doc["mode"]
    if mode not in ("upto", "exact"):
        raise DocumentError(f"partial.mode: expected 'upto' or 'exact', got {_shown(mode)}")
    bound = _int(doc["bound"], "partial.bound")
    if parsed is None:
        carrier = GroundSet(strings)
    else:
        carrier = GroundSet(tuple(
            parsed[x] if x in parsed else parse_fraction(x, "partial.carrier") for x in strings))
    levels = _read_choices(doc["choices"], "partial.choices", carrier, strings,
                           admissible_sizes(mode, bound),
                           lambda table: partial_from_indices(carrier, mode, bound, table).levels,
                           parsed is not None)
    return PartialSelection(carrier, mode, bound, levels)


# -- interval families ---------------------------------------------------

def write_family(fam: OpenFamily) -> dict:
    return {"intervals": [{"lo": fraction_str(u.lo), "hi": fraction_str(u.hi)}
                          for u in fam.members]}


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


def system_text(system: FamilySystem) -> str:
    """dumps(write_system(system)), rendered straight to text in one pass
    over the model's points, one per level over its choice records
    (partial_text) and one over the families, each open rendered once
    however many families hold it.  A part past the interpreter's digit
    limit raises DocumentError, as under write_system (fraction_str)."""
    model = system.model
    points = [_quoted(fraction_str(p)) for p in model.points]
    labels = model.selection.carrier.labels
    # a model read from a document labels its carrier with its points
    quoted = points if all(map(is_, labels, model.points)) else None
    selection = partial_text(model.selection, quoted)
    opens: dict = {}  # id -> text; the families hold their opens, so no id is reused
    families = []
    for f in system.families:
        texts = []
        for u in f.members:
            text = opens.get(id(u))
            if text is None:
                lo = fraction_str(u.lo)
                text = opens[id(u)] = f'{{"hi":"{fraction_str(u.hi)}","lo":"{lo}"}}'
            texts.append(text)
        families.append('{"intervals":[' + ",".join(texts) + "]}")
    return (f'{{"families":[{",".join(families)}],"model":{{"points":[{",".join(points)}],'
            f'"selection":{selection}}}}}\n')


def read_system(doc: Any) -> FamilySystem:
    _check_fields(doc, ("model", "families"), "system")
    model = read_model(doc["model"])
    if not isinstance(doc["families"], list):
        raise DocumentError("system.families: expected a list")
    intervals: dict = {}
    fams = tuple(read_family(f, intervals) for f in doc["families"])
    return FamilySystem(fams, model)
