"""The document readers resolve labels to carrier indices once and build
on index tables; they must return what the label-table construction
(``oracles.oracle_read_partial`` and friends) returns, and fail where it
fails with the same exception type and message."""

import copy
import importlib.util
import json
import random
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersel.documents import _read_partial, read_model, read_partial, read_system
from hypersel.errors import DocumentError
from hypersel.extension import admissible_sizes

from oracles import oracle_read_model, oracle_read_partial, oracle_read_system

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# strings that are distinct labels in a partial document, though some
# spell one rational
STRING_LABELS = ("a", "b", "c", "é", "", "v10", "1/2", "2/4", "0", "0/1")
# rationals with denominators 1, 2, 3 and 6
FRACTION_LABELS = tuple(F(k, 6) for k in range(-6, 13))
FOREIGN = {False: "zz", True: F(99, 7)}

randoms = st.randoms(use_true_random=False)


def spell(x, rnd) -> str:
    """One of the spellings of label x: itself for a string, for a
    rational p/q, 2p/2q, 3p/3q or (q = 1) a bare integer."""
    if isinstance(x, str):
        return x
    if x.denominator == 1 and rnd.random() < 0.3:
        return str(x.numerator)
    k = rnd.choice((1, 1, 2, 3))
    return f"{x.numerator * k}/{x.denominator * k}"


# "shuffled": every occurrence of a label in a choice spelled afresh,
# subset members and records shuffled; "as written": the writers' layout,
# records in rank order, subsets in carrier order and each label spelled
# as the carrier spells it, so a defect lands after a prefix read by
# position
LAYOUTS = ("shuffled", "as written")
layouts = st.sampled_from(LAYOUTS)


def partial_doc(rnd, labels, mode, bound, layout="shuffled"):
    """A valid partial document on labels (carrier order), each carrier
    label spelled once, its choices in the given layout."""
    carrier = [spell(x, rnd) for x in labels]
    records = []
    for size in admissible_sizes(mode, bound):
        for s in combinations(range(len(labels)), size):
            if layout == "as written":
                records.append({"subset": [carrier[i] for i in s], "pick": carrier[rnd.choice(s)]})
            else:
                records.append({
                    "subset": [spell(labels[i], rnd) for i in rnd.sample(s, size)],
                    "pick": spell(labels[rnd.choice(s)], rnd),
                })
    if layout == "shuffled":
        rnd.shuffle(records)
    return {"carrier": carrier, "mode": mode, "bound": bound, "choices": records}


def random_partial_doc(rnd, fractions: bool, sorted_carrier: bool = False, layout="shuffled"):
    pool = FRACTION_LABELS if fractions else STRING_LABELS
    # nine or more labels make index sets whose iteration order is not
    # ascending, such as {8, 1}
    m = rnd.randint(0, 10)
    labels = rnd.sample(pool, m)
    if sorted_carrier:
        labels.sort()
    top = min(m, 3 if m <= 6 else 2)
    if m and rnd.random() < 0.5:
        mode, bound = "exact", rnd.randint(1, top)
    else:
        mode, bound = "upto", rnd.randint(0, top)
    return partial_doc(rnd, labels, mode, bound, layout), labels


def random_model_doc(rnd, layout="shuffled"):
    sel, labels = random_partial_doc(rnd, True, sorted_carrier=True, layout=layout)
    points = [spell(x, rnd) for x in labels]
    rnd.shuffle(points)
    return {"points": points, "selection": sel}, labels


def random_system_doc(rnd):
    model, _ = random_model_doc(rnd)
    ends = sorted(rnd.sample(FRACTION_LABELS, 8))
    pool = list(zip(ends[::2], ends[1::2]))  # disjoint intervals, shared by families
    size = rnd.randint(1, 3)
    families = []
    for _ in range(rnd.randint(0, 6)):
        members = sorted(rnd.sample(pool, size))
        families.append({"intervals": [{"lo": spell(lo, rnd), "hi": spell(hi, rnd)}
                                       for lo, hi in members]})
    return {"model": model, "families": families}


def outcome(read, doc):
    """("ok", value) or (exception type, message) of reading a copy of doc."""
    try:
        return "ok", read(copy.deepcopy(doc))
    except Exception as exc:  # the point is to compare whatever is raised
        return type(exc), str(exc)


def read_both(doc, fractions: bool):
    """read_partial's outcome, or with fractions the reading of a model
    document's selection, beside the oracle's."""
    return (outcome(lambda d: _read_partial(d, {} if fractions else None), doc),
            outcome(lambda d: oracle_read_partial(d, parse_labels=fractions), doc))


class TestValidDocuments:
    @settings(max_examples=300, deadline=None)
    @given(randoms, st.booleans(), layouts)
    def test_partial(self, rnd, fractions, layout):
        doc, _ = random_partial_doc(rnd, fractions, layout=layout)
        got, want = read_both(doc, fractions)
        assert got[0] == "ok" and got == want

    @settings(max_examples=150, deadline=None)
    @given(randoms, st.booleans())
    def test_one_record_off_the_writers_layout(self, rnd, fractions):
        # read by position up to the record's size, field by field from it
        doc, _ = random_partial_doc(rnd, fractions, layout="as written")
        editable = [rec for rec in doc["choices"] if fractions or len(rec["subset"]) > 1]
        assume(editable)
        rec = rnd.choice(editable)
        if len(rec["subset"]) > 1 and (not fractions or rnd.random() < 0.5):
            rec["subset"].reverse()
        else:  # 5p/5q is none of the spellings the carrier can have
            i = rnd.randrange(len(rec["subset"]) + 1)
            x = F(rec["subset"][i] if i < len(rec["subset"]) else rec["pick"])
            respelled = f"{5 * x.numerator}/{5 * x.denominator}"
            if i < len(rec["subset"]):
                rec["subset"][i] = respelled
            else:
                rec["pick"] = respelled
        got, want = read_both(doc, fractions)
        assert got[0] == "ok" and got == want

    @settings(max_examples=100, deadline=None)
    @given(randoms)
    def test_model(self, rnd):
        doc, _ = random_model_doc(rnd)
        got, want = outcome(read_model, doc), outcome(oracle_read_model, doc)
        assert got[0] == "ok" and got == want

    @settings(max_examples=100, deadline=None)
    @given(randoms)
    def test_system(self, rnd):
        doc = random_system_doc(rnd)
        got, want = outcome(read_system, doc), outcome(oracle_read_system, doc)
        assert got == want
        if got[0] == "ok":
            assert got[1].families == want[1].families


def outside(rnd, doc, labels, fractions):
    rec = rnd.choice(doc["choices"])
    if rnd.random() < 0.5:
        rec["pick"] = spell(FOREIGN[fractions], rnd)
    else:
        rec["subset"][rnd.randrange(len(rec["subset"]))] = spell(FOREIGN[fractions], rnd)


def repeated(rnd, doc, labels, fractions):
    if rnd.random() < 0.5:
        rec = rnd.choice(doc["choices"])
        rec["subset"].append(rnd.choice(rec["subset"]))
    else:
        assume(doc["carrier"])
        doc["carrier"].insert(rnd.randrange(len(doc["carrier"]) + 1), rnd.choice(doc["carrier"]))


def not_a_list(rnd, doc, labels, fractions):
    rec = rnd.choice(doc["choices"])
    rec["subset"] = rnd.choice([rec["subset"][0], dict.fromkeys(rec["subset"], 1), None])


def duplicate(rnd, doc, labels, fractions):
    rec = copy.deepcopy(rnd.choice(doc["choices"]))
    rnd.shuffle(rec["subset"])
    rec["pick"] = rnd.choice(rec["subset"])
    doc["choices"].insert(rnd.randrange(len(doc["choices"]) + 1), rec)


def pick_outside(rnd, doc, labels, fractions):
    rec = rnd.choice(doc["choices"])
    value = F if fractions else str
    members = {value(x) for x in rec["subset"]}
    others = [x for x in doc["carrier"] if value(x) not in members]
    assume(others)
    rec["pick"] = rnd.choice(others)


def missing(rnd, doc, labels, fractions):
    del doc["choices"][rnd.randrange(len(doc["choices"]))]


def extra_size(rnd, doc, labels, fractions):
    admitted = set(admissible_sizes(doc["mode"], doc["bound"]))
    sizes = [k for k in range(1, len(labels) + 1) if k not in admitted]
    assume(sizes)
    s = rnd.sample(doc["carrier"], rnd.choice(sizes))
    doc["choices"].append({"subset": s, "pick": rnd.choice(s)})


def bad_mode_or_bound(rnd, doc, labels, fractions):
    key, value = rnd.choice([
        ("mode", "sometimes"), ("mode", None), ("bound", len(labels) + 1),
        ("bound", -1), ("bound", "2"), ("bound", True), ("bound", 10**30),
    ])
    doc[key] = value


DEFECTS = [outside, repeated, not_a_list, duplicate, pick_outside, missing, extra_size,
           bad_mode_or_bound]


class TestSingleDefects:
    @pytest.mark.parametrize("defect", DEFECTS, ids=[d.__name__ for d in DEFECTS])
    @settings(max_examples=120, deadline=None)
    @given(rnd=randoms, fractions=st.booleans(), layout=layouts)
    def test_partial(self, defect, rnd, fractions, layout):
        doc, labels = random_partial_doc(rnd, fractions, layout=layout)
        assume(defect is bad_mode_or_bound or doc["choices"])
        defect(rnd, doc, labels, fractions)
        got, want = read_both(doc, fractions)
        assert got[0] != "ok" and got == want

    @pytest.mark.parametrize("defect", DEFECTS, ids=[d.__name__ for d in DEFECTS])
    @settings(max_examples=60, deadline=None)
    @given(rnd=randoms, layout=layouts)
    def test_model(self, defect, rnd, layout):
        doc, labels = random_model_doc(rnd, layout)
        assume(defect is bad_mode_or_bound or doc["selection"]["choices"])
        defect(rnd, doc["selection"], labels, True)
        got, want = outcome(read_model, doc), outcome(oracle_read_model, doc)
        assert got[0] != "ok" and got == want


class TestEqualSpellings:
    """A model's labels are rationals, so "1/2" and "2/4" are one label."""

    def doc(self, records):
        return {"points": ["0/1", "1/2"], "selection": {
            "carrier": ["0/1", "1/2"], "mode": "upto", "bound": 2,
            "choices": [{"subset": ["0/1"], "pick": "0/1"},
                        {"subset": ["1/2"], "pick": "1/2"}] + records}}

    @pytest.mark.parametrize("order", [1, -1], ids=["as written", "swapped"])
    def test_duplicate_subset_rejected(self, order):
        pair = [{"subset": ["0/1", "1/2"], "pick": "0/1"},
                {"subset": ["0/1", "2/4"], "pick": "2/4"}][::order]
        with pytest.raises(DocumentError, match=r"^partial\.choices\[3\]\.subset: duplicate subset$"):
            read_model(self.doc(pair))

    def test_label_table_let_the_later_record_win(self):
        # the defect the index reader closes: the pair pick followed the
        # record order
        pair = [{"subset": ["0/1", "1/2"], "pick": "0/1"},
                {"subset": ["0/1", "2/4"], "pick": "2/4"}]
        picks = {oracle_read_model(self.doc(p)).selection.levels[2].picks for p in (pair, pair[::-1])}
        assert picks == {(0,), (1,)}

    @pytest.mark.parametrize("subset, fault", [
        (["1/2", "2/4"], "repeated labels"),
        # the label outside the carrier is named before the repeat is seen
        (["0/1", "9/7", "18/14"], "'9/7' is not a carrier label"),
    ], ids=["carrier label", "label outside the carrier"])
    def test_repeated_label_rejected(self, subset, fault):
        rec = {"subset": subset, "pick": subset[0]}
        doc = self.doc([{"subset": ["0/1", "1/2"], "pick": "0/1"}, rec])
        with pytest.raises(DocumentError, match=rf"^partial\.choices\[3\]\.subset: {fault}$"):
            read_model(doc)


class TestIntervalRecords:
    """An interval record that is not a {lo, hi} object is checked field
    by field, and named as the oracle reader names it."""

    @pytest.mark.parametrize("rec, fault", [
        (7, "expected an object, got int"),
        ({"lo": "0"}, r"missing fields \['hi'\]"),
        ({"lo": "0", "hi": "1", "mid": "1/2"}, r"unknown fields \['mid'\]"),
        ({"lo": "0", "mid": "1/2"}, r"unknown fields \['mid'\]"),
    ], ids=["not an object", "missing hi", "extra key", "two keys, one unknown"])
    def test_record_faults(self, rec, fault):
        selection = {"carrier": ["0", "1"], "mode": "upto", "bound": 1,
                     "choices": [{"subset": ["0"], "pick": "0"}, {"subset": ["1"], "pick": "1"}]}
        doc = {"model": {"points": ["0", "1"], "selection": selection},
               "families": [{"intervals": [{"lo": "0", "hi": "1"}]},
                            {"intervals": [{"lo": "0", "hi": "1"}, rec]}]}
        with pytest.raises(DocumentError, match=rf"^family\.intervals\[1\]: {fault}$"):
            read_system(copy.deepcopy(doc))
        assert outcome(read_system, doc) == outcome(oracle_read_system, doc)


def workload_documents(workdir, monkeypatch) -> list:
    """Every input document the benchmark's three workloads write at seed
    1, cycle 0, read back from the files perfbench/workloads.py writes
    under workdir (the module is imported, never changed, and registered
    only while the test runs, as its dataclasses need)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    docs = []
    for workload in workloads.WORKLOADS:
        _, written = workloads.cycle_ops(workload, 1, 0, 1, str(workdir / workload))
        workloads.write_docs(written)
        for path, _ in written:
            with open(path) as fh:
                docs.append(json.load(fh))
    return docs


def choice_list(doc) -> list:
    """The choice records of a partial, model or system document."""
    selection = doc.get("model", doc).get("selection", doc)
    return selection["choices"]


def kind(doc) -> str:
    return "system" if "families" in doc else "model" if "points" in doc else "partial"


READS = {
    "partial": (read_partial, oracle_read_partial),
    "model": (read_model, oracle_read_model),
    "system": (read_system, oracle_read_system),
}


class TestWorkloadDocuments:
    """The benchmark's own documents (51 partial, 222 model and 121
    system documents) read as written, by position, then shuffled and
    with one subset reversed, which moves part or all of each read to
    the per-field checks; all three reads equal the oracle's."""

    def test_three_layouts_read_alike(self, tmp_path, monkeypatch):
        docs = workload_documents(tmp_path, monkeypatch)
        assert {kind(doc) for doc in docs} == set(READS)
        rnd = random.Random(1)
        for doc in docs:
            read, oracle = READS[kind(doc)]
            want = outcome(oracle, doc)
            assert want[0] == "ok"
            shuffled, reversed_one = copy.deepcopy(doc), copy.deepcopy(doc)
            rnd.shuffle(choice_list(shuffled))
            pairs = [rec for rec in choice_list(reversed_one) if len(rec["subset"]) > 1]
            if pairs:
                rnd.choice(pairs)["subset"].reverse()
            for layout in (doc, shuffled, reversed_one):
                assert outcome(read, layout) == want
