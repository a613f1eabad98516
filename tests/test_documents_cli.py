import copy
import io
import json
import math
import os
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel import documents, structures
from hypersel.chains import FamilySystem
from hypersel.cli import main
from hypersel.documents import (
    dumps,
    fraction_str,
    jsonable,
    parse_fraction,
    read_family,
    read_model,
    read_partial,
    read_selection,
    read_system,
    write_family,
    write_model,
    write_partial,
    write_selection,
    write_selections,
    write_system,
)
from hypersel.errors import ChoiceOutsideSubset, DocumentError, MissingSubset, OutOfRange
from hypersel.extension import order_partial, partition_types, random_partial
from hypersel.obstruction import obstruction_table, table_tsv
from hypersel.structures import (
    GroundSet,
    SelectionStructure,
    enumerate_selections,
    ground_range,
    rotational_tournament,
    subset_ranks,
)
from hypersel.vietoris import family, order_model

from oracles import conflict_system, cyclic_model, flip_model, oracle_primes


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFractions:
    def test_always_slash_form(self):
        assert fraction_str(F(3)) == "3/1"
        assert fraction_str(F(-1, 2)) == "-1/2"

    def test_parse_accepts_integer_form(self):
        assert parse_fraction("3") == F(3)
        assert parse_fraction("3/1") == F(3)
        assert parse_fraction("-7/2") == F(-7, 2)

    @pytest.mark.parametrize("bad", [
        "0.5", "1/0", "a", "1/2/3", "", "1e3", 7,
        "1_0", " 3", "3 ", "3\n", "+1/2", "1/-2", "1/+2", "-", "/2", "1/", "\u0663",
    ])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(DocumentError):
            parse_fraction(bad)

    def test_huge_int_named_by_bit_length(self):
        # an int past the interpreter's digit limit has no repr
        with pytest.raises(DocumentError, match="^value: expected a fraction string, got an int of 16610 bits$"):
            parse_fraction(10**5000)


class TestRoundtrips:
    def test_selection(self):
        s = rotational_tournament(5)
        doc = write_selection(s)
        assert write_selection(read_selection(json.loads(dumps(doc)))) == doc

    def test_partial_both_modes(self):
        for mode in ("upto", "exact"):
            p = order_partial(ground_range(4), 2, "max", mode=mode)
            doc = write_partial(p)
            assert write_partial(read_partial(doc)) == doc

    def test_seeded_partial(self):
        p = random_partial(ground_range(5), 3, random.Random(9))
        doc = write_partial(p)
        assert write_partial(read_partial(doc)) == doc

    def test_family(self):
        fam = family((0, 1), (F(5, 2), F(7, 2)))
        doc = write_family(fam)
        assert doc["intervals"][0] == {"lo": "0/1", "hi": "1/1"}
        assert read_family(doc) == fam

    def test_model(self):
        doc = write_model(cyclic_model())
        assert write_model(read_model(doc)) == doc

    def test_system(self):
        doc = write_system(conflict_system())
        assert write_system(read_system(doc)) == doc

    def test_dumps_is_stable(self):
        doc = write_model(flip_model())
        assert dumps(doc) == dumps(json.loads(dumps(doc)))


# JSON values as reports hold them: nested dicts (string keys) and lists,
# empty containers, any text (non-ASCII, quotes, backslashes, control
# characters), bools, None and ints far beyond 64 bits
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


# labels of choice records: quotes, backslashes, newlines, control and
# non-ASCII characters among plain ones
label_text = st.text(
    alphabet=st.sampled_from('ab7/-"\\\n\t\x00\x1f é→\u2028😀') | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
)
choice_documents = st.fixed_dictionaries({
    "choices": st.lists(
        st.fixed_dictionaries({"subset": st.lists(label_text, max_size=10), "pick": label_text}),
        max_size=6,
    ),
    "ground": st.lists(label_text, max_size=10),
    "uncovered": st.lists(st.lists(label_text, max_size=10), max_size=3),
    "n": st.integers(0, 10),
})


def _assert_compact(doc):
    """dumps(doc) is one ASCII line ending in its only newline, and
    decodes to doc (which holds no tuples)."""
    text = dumps(doc)
    assert text.isascii()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == doc


# equal grounds that render differently (ints and Fractions of the same
# values), a second object equal to a first, and string labels
_GROUNDS = (
    ground_range(3),
    GroundSet((0, 1, 2)),
    GroundSet((F(0), F(1), F(2))),
    GroundSet(tuple(F(i, 2) for i in range(4))),
    ground_range(4),
    GroundSet(("b", "a", "c")),
)


@st.composite
def selection_batches(draw):
    batch = []
    for _ in range(draw(st.integers(0, 6))):
        g = draw(st.sampled_from(_GROUNDS))
        n = draw(st.integers(1, min(3, g.size)))
        subs, _ = subset_ranks(g.size, n)
        batch.append(SelectionStructure(g, n, tuple(draw(st.sampled_from(s)) for s in subs)))
    return batch


class TestWriteSelections:
    @settings(max_examples=100, deadline=None)
    @given(selection_batches())
    def test_equals_one_write_per_structure(self, batch):
        assert [dumps(d) for d in write_selections(iter(batch))] == [
            dumps(write_selection(s)) for s in batch]

    def test_equal_grounds_keep_their_own_names(self):
        ints = SelectionStructure(_GROUNDS[0], 1, (0, 1, 2))
        fractions = SelectionStructure(_GROUNDS[2], 1, (0, 1, 2))
        docs = write_selections([ints, fractions, ints])
        assert [d["ground"] for d in docs] == [["0", "1", "2"], ["0/1", "1/1", "2/1"], ["0", "1", "2"]]
        assert docs[0]["choices"][1]["subset"] is docs[2]["choices"][1]["subset"]

    @staticmethod
    def _assert_shared_and_equal(batch):
        docs = write_selections(batch)
        records = [id(c) for d in docs for c in d["choices"]]
        assert len(set(records)) < len(records)  # some record is shared
        assert dumps(docs) == dumps([write_selection(s) for s in batch])
        assert [dumps(d) for d in docs] == [dumps(write_selection(s)) for s in batch]

    def test_shared_records_render_as_extend_classes(self):
        f = random_partial(GroundSet(tuple("abcdefgh")), 4, random.Random("extend-classes"))
        self._assert_shared_and_equal(list(partition_types(f, 6, 2).classes))

    def test_shared_records_render_as_iso_records(self):
        self._assert_shared_and_equal(list(enumerate_selections(5, 2, up_to_iso=True)))


class TestDumps:
    @settings(max_examples=200, deadline=None)
    @given(choice_documents)
    def test_choice_records_are_compact_ascii(self, doc):
        _assert_compact(doc)

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_values_are_compact_ascii(self, doc):
        _assert_compact(doc)

    FIXED = [
        ({}, b'{}\n'),
        ([], b'[]\n'),
        ({"a": {}, "b": []}, b'{"a":{},"b":[]}\n'),
        ([[], [{}]], b'[[],[{}]]\n'),
        ({"\u00e9": "\u00e9\u2028\"\\\n\t\x00\x1f"},
         rb'{"\u00e9":"\u00e9\u2028\"\\\n\t\u0000\u001f"}' b'\n'),
        ({"b": True, "a": False, "c": None}, b'{"a":false,"b":true,"c":null}\n'),
        ([2**200, -(2**70), 0],
         b'[1606938044258990275541962092341162602522202993782792835301376,'
         b'-1180591620717411303424,0]\n'),
        ((1, "x"), b'[1,"x"]\n'),
    ]

    @pytest.mark.parametrize("doc, text", FIXED, ids=[f"doc{i}" for i in range(len(FIXED))])
    def test_fixed_cases(self, doc, text):
        assert dumps(doc).encode("ascii") == text

    def test_an_object_shared_twice_renders_in_both_places(self):
        shared = {"subset": ["a", "b"], "pick": "a"}
        assert dumps({"x": [shared, shared], "y": shared}) == (
            '{"x":[{"pick":"a","subset":["a","b"]},{"pick":"a","subset":["a","b"]}],'
            '"y":{"pick":"a","subset":["a","b"]}}\n')

    @pytest.mark.parametrize("value", [{1, 2}, F(1, 2), object()])
    def test_non_json_values_raise(self, value):
        with pytest.raises(TypeError):
            dumps({"a": [value]})


class TestRejection:
    def test_unknown_fields(self):
        doc = write_selection(rotational_tournament(3))
        doc["comment"] = "hi"
        with pytest.raises(DocumentError):
            read_selection(doc)

    def test_missing_fields(self):
        with pytest.raises(DocumentError):
            read_selection({"ground": ["a"], "n": 1})

    def test_unknown_choice_fields(self):
        doc = write_selection(rotational_tournament(3))
        doc["choices"][0]["note"] = "x"
        with pytest.raises(DocumentError):
            read_selection(doc)

    def test_duplicate_subsets(self):
        doc = write_selection(rotational_tournament(3))
        doc["choices"].append(dict(doc["choices"][0]))
        with pytest.raises(DocumentError):
            read_selection(doc)

    def test_bad_mode(self):
        doc = write_partial(order_partial(ground_range(3), 2, "min"))
        doc["mode"] = "sometimes"
        with pytest.raises(DocumentError):
            read_partial(doc)

    @pytest.mark.parametrize("field, value, message", [
        ("mode", 10**5000, "partial.mode: expected 'upto' or 'exact', got an int of 16610 bits"),
        ("bound", [10**5000], "partial.bound: expected an integer, got [an int of 16610 bits]"),
    ], ids=["mode", "bound"])
    def test_huge_int_named_by_bit_length(self, field, value, message):
        doc = write_partial(order_partial(ground_range(3), 2, "min"))
        doc[field] = value
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            read_partial(doc)

    def test_decimal_points_rejected(self):
        doc = write_model(cyclic_model())
        doc["points"][0] = "0.0"
        with pytest.raises(DocumentError):
            read_model(doc)

    def test_non_object_rejected(self):
        with pytest.raises(DocumentError):
            read_family([1, 2, 3])

    def test_family_fields(self):
        doc = write_family(family((0, 1)))
        with pytest.raises(DocumentError, match=r"^family: unknown fields \['note'\]$"):
            read_family({**doc, "note": "x"})
        with pytest.raises(DocumentError, match=r"^family: missing fields \['intervals'\]$"):
            read_family({})


class TestModelLabels:
    def test_each_label_parsed_once(self, monkeypatch):
        doc = write_model(order_model([F(k, 7) for k in range(8)], 3, "min"))
        calls = []
        monkeypatch.setattr(documents, "parse_fraction",
                            lambda s, where="value": calls.append(s) or parse_fraction(s, where))
        model = read_model(doc)
        # each point once; the carrier labels and the 92 choices reuse them
        assert calls == doc["points"]
        assert model == order_model([F(k, 7) for k in range(8)], 3, "min")
        assert all(a is b for a, b in zip(model.selection.carrier.labels, model.points))

    def test_carrier_spelled_apart_from_its_point(self, monkeypatch):
        doc = write_model(order_model([0, F(1, 2), 1], 2, "min"))
        doc["selection"]["carrier"][1] = "2/4"
        calls = []
        monkeypatch.setattr(documents, "parse_fraction",
                            lambda s, where="value": calls.append(s) or parse_fraction(s, where))
        model = read_model(doc)
        # the three points, then the one carrier label no point spells;
        # the choices spell 1/2 as "1/2", not a carrier string, so they are
        # read record by record, and each "1/2" is parsed where it stands,
        # while a carrier string is found as it is spelled
        labels = [x for rec in doc["selection"]["choices"] for x in (*rec["subset"], rec["pick"])]
        assert calls == ["0/1", "1/2", "1/1", "2/4"] + [x for x in labels if x == "1/2"]
        assert len(labels) > labels.count("1/2") > 0
        assert model == order_model([0, F(1, 2), 1], 2, "min")

    def test_system_reads_each_interval_once(self, monkeypatch):
        model = order_model([0, 1, 2, 3], 2, "min")
        doc = write_system(FamilySystem(
            (family((0, 1), (2, 3)), family((0, 1), (F(5, 2), 3)), family((0, 1), (2, 3))), model))
        calls = []
        monkeypatch.setattr(documents, "parse_fraction",
                            lambda s, where="value": calls.append(where) or parse_fraction(s, where))
        fams = read_system(doc).families
        # three distinct (lo, hi) pairs, two endpoints each
        assert sum(w.startswith("family") for w in calls) == 6
        assert fams[0].members[0] is fams[1].members[0] is fams[2].members[0]
        assert fams[0] == fams[2] and fams[1].members[1] == family((F(5, 2), 3)).members[0]

    def test_equal_spellings_are_one_label(self):
        doc = write_model(order_model([0, F(1, 2)], 2, "max"))
        for rec in doc["selection"]["choices"]:
            rec["subset"] = ["2/4" if x == "1/2" else x for x in rec["subset"]]
            rec["pick"] = "2/4" if rec["pick"] == "1/2" else rec["pick"]
        assert read_model(doc) == order_model([0, F(1, 2)], 2, "max")

    @pytest.mark.parametrize("field", ["subset", "pick"])
    def test_label_outside_the_carrier(self, field):
        # 9/7 is a fraction, but no point of the model
        doc = write_model(order_model([0, 1], 2, "min"))
        rec = doc["selection"]["choices"][2]
        if field == "subset":
            rec["subset"][1] = "9/7"
        else:
            rec["pick"] = "9/7"
        with pytest.raises(DocumentError, match=rf"^partial\.choices\[2\]\.{field}: '9/7' is not a carrier label$"):
            read_model(doc)

    @pytest.mark.parametrize("field", ["subset", "pick"])
    def test_bad_label_in_a_choice(self, field):
        doc = write_model(order_model([0, 1], 2, "min"))
        rec = doc["selection"]["choices"][2]
        if field == "subset":
            rec["subset"][0] = "0.0"
        else:
            rec["pick"] = "1/0"
        with pytest.raises(DocumentError, match=f"partial.choices.{field}: bad fraction"):
            read_model(doc)


class TestChoiceRecords:
    """The reader takes picks by position while the records run as the
    writers lay them out; from the first level that does not (records
    out of carrier order, repeated labels, a second record for a subset,
    sizes outside the mode) it reads field by field, with the messages
    of a checked read of every record."""

    @staticmethod
    def base():
        # a, b, c, d, then ab, ac, ad, bc, bd, cd, each picking its least
        return write_partial(order_partial(GroundSet(("a", "b", "c", "d")), 2, "min"))

    def test_shuffled_records(self):
        doc = self.base()
        random.Random(3).shuffle(doc["choices"])
        assert read_partial(doc) == order_partial(GroundSet(("a", "b", "c", "d")), 2, "min")

    def test_labels_out_of_carrier_order(self):
        doc = self.base()
        for rec in doc["choices"]:
            rec["subset"].reverse()
        assert read_partial(doc) == order_partial(GroundSet(("a", "b", "c", "d")), 2, "min")

    @pytest.mark.parametrize("at, subset", [(6, ["b", "b"]), (5, ["a", "c", "a"])])
    def test_repeated_labels(self, at, subset):
        doc = self.base()
        doc["choices"][at] = {"subset": subset, "pick": subset[0]}
        with pytest.raises(DocumentError, match=rf"^partial\.choices\[{at}\]\.subset: repeated labels$"):
            read_partial(doc)

    @pytest.mark.parametrize("at, rec", [
        (10, {"subset": ["c", "a"], "pick": "c"}),  # the second spelling is out of order
        (6, {"subset": ["c", "a"], "pick": "c"}),  # the first one is
        (10, {"subset": ["b", "c"], "pick": "c"}),  # both in carrier order
    ], ids=["second out of order", "first out of order", "both in order"])
    def test_duplicate_subset(self, at, rec):
        doc = self.base()
        doc["choices"].insert(0 if at < 10 else 10, rec)
        with pytest.raises(DocumentError, match=rf"^partial\.choices\[{at}\]\.subset: duplicate subset$"):
            read_partial(doc)

    def test_missing_subset(self):
        doc = self.base()
        del doc["choices"][6]
        with pytest.raises(MissingSubset, match=r"^no choice for subset \['a', 'd'\]$"):
            read_partial(doc)

    def test_pick_outside_its_subset(self):
        doc = self.base()
        doc["choices"][7]["pick"] = "d"
        with pytest.raises(ChoiceOutsideSubset, match=r"^'d' not in subset \['b', 'c'\]$"):
            read_partial(doc)

    def test_size_outside_the_mode(self):
        doc = self.base()
        doc["choices"].append({"subset": ["a", "b", "c"], "pick": "b"})
        with pytest.raises(MissingSubset, match="^table has entries outside the admissible subsets$"):
            read_partial(doc)

    def test_label_outside_the_carrier(self):
        doc = self.base()
        doc["choices"].append({"subset": ["a", "zz"], "pick": "a"})
        with pytest.raises(DocumentError, match=r"^partial\.choices\[10\]\.subset: 'zz' is not a carrier label$"):
            read_partial(doc)

    @pytest.mark.parametrize("rec, fault", [
        ({"subset": ["b", "zz"], "pick": "b"}, "subset: 'zz'"),
        ({"subset": ["zz", "b", "yy"], "pick": "b"}, "subset: 'zz'"),  # the first in list order
        ({"subset": ["b", "c"], "pick": "zz"}, "pick: 'zz'"),
        ({"subset": ["yy"], "pick": "zz"}, "subset: 'yy'"),  # subset labels before the pick
    ], ids=["subset", "first of two", "pick", "subset before pick"])
    def test_label_outside_named_at_its_record(self, rec, fault):
        doc = self.base()
        doc["choices"][7] = rec
        with pytest.raises(DocumentError, match=rf"^partial\.choices\[7\]\.{fault} is not a carrier label$"):
            read_partial(doc)

    @pytest.mark.parametrize("edit, error, message", [
        # "a" and {"a": 1} iterate as the labels of the first subset, ("a",)
        (lambda doc: doc["choices"][0].update(subset="a"), DocumentError,
         r"partial\.choices\[0\]\.subset: expected a list of strings"),
        (lambda doc: doc["choices"][0].update(subset={"a": 1}), DocumentError,
         r"partial\.choices\[0\]\.subset: expected a list of strings"),
        (lambda doc: doc.update(mode="exact", bound=-1), OutOfRange,
         r"arity must be an int in 1\.\.4, got -1"),
        (lambda doc: doc.update(carrier=[], bound=1, choices=[]), OutOfRange,
         r"arity must be an int in 1\.\.0, got 1"),
    ], ids=["subset a string", "subset a dict", "exact -1", "no labels, upto 1"])
    def test_fault_where_the_positional_read_stops(self, edit, error, message):
        doc = self.base()
        edit(doc)
        with pytest.raises(error, match=f"^{message}$"):
            read_partial(doc)

    def test_label_outside_the_ground(self):
        doc = write_selection(rotational_tournament(3))
        doc["choices"][1]["pick"] = "3"
        with pytest.raises(DocumentError, match=r"^selection\.choices\[1\]\.pick: '3' is not a carrier label$"):
            read_selection(doc)

    def test_earlier_fault_wins_over_a_later_label_outside(self):
        doc = self.base()
        doc["choices"][2] = {"subset": ["c", "c"], "pick": "c"}
        doc["choices"][7]["pick"] = "zz"
        with pytest.raises(DocumentError, match=r"^partial\.choices\[2\]\.subset: repeated labels$"):
            read_partial(doc)

    def test_label_outside_wins_over_the_rank_order_walk(self):
        # a missing subset is found only after every record is read
        doc = self.base()
        del doc["choices"][4]
        doc["choices"][8]["subset"][0] = "zz"
        with pytest.raises(DocumentError, match=r"^partial\.choices\[8\]\.subset: 'zz' is not a carrier label$"):
            read_partial(doc)

    def test_label_outside_the_carrier_exits_two(self, tmp_path):
        doc = self.base()
        doc["choices"][7]["pick"] = "zz"
        code, out, err = run_on(doc, READERS[0], tmp_path)
        assert (code, out, err) == (2, "", "hypersel: partial.choices[7].pick: 'zz' is not a carrier label\n")

    def test_selection_record_of_another_size(self):
        doc = write_selection(rotational_tournament(3))
        doc["choices"].append({"subset": ["0"], "pick": "0"})
        with pytest.raises(MissingSubset, match="^table has entries that are not n-subsets of the ground$"):
            read_selection(doc)

    def test_model_labels_spelled_apart(self):
        # "2/4" is not a carrier string, so from the first size holding it
        # the records are read field by field, and the duplicate is found
        doc = write_model(order_model([0, F(1, 2), 1], 2, "max"))
        for rec in doc["selection"]["choices"]:
            rec["subset"] = ["2/4" if x == "1/2" else x for x in rec["subset"]]
        assert read_model(doc) == order_model([0, F(1, 2), 1], 2, "max")
        doc["selection"]["choices"].append({"subset": ["1/2", "0/1"], "pick": "0/1"})
        with pytest.raises(DocumentError, match=r"^partial\.choices\[6\]\.subset: duplicate subset$"):
            read_model(doc)

    @staticmethod
    def spy(monkeypatch) -> list:
        """The where argument of every call to the choice reader."""
        calls = []
        read = documents._read_choices

        def spied(doc, where, *rest):
            calls.append(where)
            return read(doc, where, *rest)

        monkeypatch.setattr(documents, "_read_choices", spied)
        return calls

    @staticmethod
    def spy_walks(monkeypatch) -> list:
        """The rank-order walks documents calls, by name, and the where
        argument of each parse_fraction call on a choice label."""
        calls = []
        for name in ("index_selection", "partial_from_indices"):
            def spied(*args, _name=name, _walk=getattr(documents, name)):
                calls.append(_name)
                return _walk(*args)

            monkeypatch.setattr(documents, name, spied)
        parse = documents.parse_fraction

        def spied_parse(s, where="value"):
            if ".choices" in where:
                calls.append(where)
            return parse(s, where)

        monkeypatch.setattr(documents, "parse_fraction", spied_parse)
        return calls

    def test_writer_layout_is_read_positionally(self, monkeypatch):
        calls = self.spy_walks(monkeypatch)
        f = random_partial(GroundSet(tuple("qbzam")), 3, random.Random(5))
        assert read_partial(write_partial(f)) == f
        s = SelectionStructure(GroundSet(tuple("abcde")), 2, rotational_tournament(5).picks)
        assert read_selection(write_selection(s)) == s
        model = order_model([0, F(1, 3), 1, F(5, 2)], 3, "max")
        assert read_model(write_model(model)) == model
        assert calls == []

    @pytest.mark.parametrize("edit", ["reverse", "one subset out of order"])
    def test_other_layouts_take_the_checked_path(self, monkeypatch, edit):
        calls = self.spy_walks(monkeypatch)
        f = random_partial(GroundSet(tuple("qbzam")), 3, random.Random(5))
        doc = write_partial(f)
        if edit == "reverse":
            doc["choices"].reverse()
        else:
            doc["choices"][12]["subset"].reverse()
        assert read_partial(doc) == f
        s = SelectionStructure(GroundSet(tuple("abcde")), 2, rotational_tournament(5).picks)
        doc = write_selection(s)
        if edit == "reverse":
            doc["choices"].reverse()
        else:
            doc["choices"][4]["subset"].reverse()
        assert read_selection(doc) == s
        model = order_model([0, F(1, 3), 1, F(5, 2)], 3, "max")
        doc = write_model(model)
        if edit == "reverse":
            doc["selection"]["choices"].reverse()
        else:
            doc["selection"]["choices"][9]["subset"].reverse()
        assert read_model(doc) == model
        # every label is a carrier string, so none is parsed
        assert calls == ["partial_from_indices", "index_selection", "partial_from_indices"]

    def test_shuffled_model_reads_as_the_positional_read(self, monkeypatch):
        # only a label that is no carrier string is parsed as a fraction
        model = order_model([0, F(1, 3), 1, F(5, 2), F(7, 4)], 3, "max")
        doc = write_model(model)
        assert read_model(doc) == model
        calls = self.spy(monkeypatch)
        parsed = []
        parse = documents.parse_fraction

        def spied_parse(s, where="value"):
            parsed.append((s, where))
            return parse(s, where)

        monkeypatch.setattr(documents, "parse_fraction", spied_parse)
        random.Random(3).shuffle(doc["selection"]["choices"])
        assert read_model(doc) == model
        assert calls == ["partial.choices"]
        assert not [w for _, w in parsed if w.startswith("partial.choices")]
        respelled = 0
        for rec in doc["selection"]["choices"]:
            rec["subset"] = ["2/6" if x == "1/3" else x for x in rec["subset"]]
            rec["pick"] = "2/6" if rec["pick"] == "1/3" else rec["pick"]
            respelled += rec["subset"].count("2/6") + (rec["pick"] == "2/6")
        parsed.clear()
        assert read_model(doc) == model
        assert [x for x, w in parsed if w.startswith("partial.choices")] == ["2/6"] * respelled > []

    def test_too_few_records_for_any_slot(self, monkeypatch):
        # 20 labels, exact 10: C(20, 10) = 184,756 subsets and one record;
        # no rank table is made, and the first missing subset is named
        monkeypatch.setattr(structures, "subset_ranks", None)
        monkeypatch.setattr(documents, "subset_ranks", None)
        doc = {"carrier": [f"x{i}" for i in range(20)], "mode": "exact", "bound": 10,
               "choices": [{"subset": [f"x{i}" for i in range(10)], "pick": "x0"}]}
        with pytest.raises(MissingSubset, match=r"^no choice for subset \['x0', .*'x8', 'x10'\]$"):
            read_partial(doc)


class TestJsonable:
    def test_nested_conversion(self):
        out = jsonable({F(1, 2): ((F(3), "x", None), frozenset({2, 1}))})
        assert out == {"1/2": [["3/1", "x", None], [1, 2]]}


class TestCliEnumerate:
    def test_two_records(self):
        code, out, _ = run_cli(["enumerate", "2", "2"])
        rep = json.loads(out)
        assert code == 0 and rep["result"]["count"] == 2

    def test_iso_classes(self):
        code, out, _ = run_cli(["enumerate", "4", "2", "--iso"])
        rep = json.loads(out)
        assert code == 0 and rep["result"]["count"] == 4

    def test_budget_exit(self):
        code, _, err = run_cli(["enumerate", "6", "3"])
        assert code == 2 and "budget" in err

    def test_raised_budget_helps(self):
        code, out, _ = run_cli(["enumerate", "3", "3", "--budget", "1000"])
        rep = json.loads(out)
        assert code == 0 and rep["result"]["count"] == 3

    @pytest.mark.parametrize("argv", [["40", "20"], ["22", "11", "--budget", "1"], ["30", "10"]])
    def test_huge_space_exits_before_any_table(self, monkeypatch, argv):
        def forbidden(*args):
            raise RuntimeError("subset_ranks called before the budget check")

        monkeypatch.setattr(structures, "subset_ranks", forbidden)
        code, out, err = run_cli(["enumerate"] + argv)
        assert code == 2 and out == ""
        assert err.startswith("hypersel: budget exceeded")

    def test_nonpositive_budget(self):
        for argv in (["enumerate", "2", "2"], ["obstruct", "5"]):
            code, out, err = run_cli(argv + ["--budget", "0"])
            assert (code, out, err) == (2, "", "hypersel: budget must be an int >= 1, got 0\n")

    def test_tsv_not_renderable(self):
        code, _, err = run_cli(["enumerate", "2", "2", "--format", "tsv"])
        assert code == 2


class TestCliObstruct:
    def test_tsv_default(self):
        code, out, _ = run_cli(["obstruct", "6"])
        lines = out.rstrip("\n").split("\n")
        assert code == 0
        assert lines[0].split("\t") == [
            "m", "p", "binom", "divisible", "lucas_residue", "search_status"
        ]
        assert len(lines) == 1 + 6

    def test_json_rows(self):
        code, out, _ = run_cli(["obstruct", "6", "--format", "json"])
        rep = json.loads(out)
        pairs = [(r["m"], r["p"]) for r in rep["result"]["rows"]]
        assert pairs == [(2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (6, 3)]
        assert all(r["lucas_residue"] == 1 for r in rep["result"]["rows"])

    def test_json_rows_carry_the_tsv_columns(self):
        _, tsv, _ = run_cli(["obstruct", "30"])
        _, out, _ = run_cli(["obstruct", "30", "--format", "json"])
        header, *lines = tsv.rstrip("\n").split("\n")
        rows = json.loads(out)["result"]["rows"]
        assert len(rows) == len(lines)
        for row, line in zip(rows, lines):
            assert sorted(row) == sorted(header.split("\t"))
            cells = [json.dumps(row[c]).strip('"') for c in header.split("\t")]
            assert cells == line.split("\t")

    def test_golden_table(self):
        # rendered from a sieve and math.comb alone, no hypersel kernel
        primes = oracle_primes(401)
        lines = ["m\tp\tbinom\tdivisible\tlucas_residue\tsearch_status"]
        for m in range(2, 401):
            for p in (p for p in primes if m % p == 0):
                c = math.comb(m, p)
                lines.append(f"{m}\t{p}\t{c}\t{'true' if c % m == 0 else 'false'}\t"
                             f"{math.comb(m - 1, p - 1) % p}\tproven-none")
        rows = obstruction_table(400)
        assert table_tsv(rows) == "\n".join(lines) + "\n"
        code, out, _ = run_cli(["obstruct", "400", "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"]["rows"] == [r._asdict() for r in rows]

    def test_budget_never_binds(self):
        # every row has p | m: the search returns before it counts a node
        code, out, err = run_cli(["obstruct", "60", "--budget", "1"])
        assert (code, err) == (0, "")
        assert out == run_cli(["obstruct", "60"])[1]

    def test_single_row(self):
        code, out, _ = run_cli(["obstruct", "2"])
        assert code == 0 and len(out.rstrip("\n").split("\n")) == 2

    def test_version_and_config_embedded(self):
        code, out, _ = run_cli(["obstruct", "4", "--format", "json", "--seed", "5"])
        rep = json.loads(out)
        assert rep["version"]
        assert rep["config"]["seed"] == 5
        assert rep["config"]["max_m"] == 4


class TestCliExtend:
    def test_report(self, tmp_path):
        f = order_partial(ground_range(6), 2, "min")
        path = tmp_path / "f.json"
        path.write_text(dumps(write_partial(f)))
        code, out, _ = run_cli(["extend", str(path), "4", "2"])
        rep = json.loads(out)
        assert code == 0
        assert rep["result"]["count"] == 15
        assert rep["result"]["valid"] is True
        assert rep["result"]["classes"][0]["level"] == 0
        assert rep["result"]["classes"][0]["level_class_size"] == 1
        sel = read_partial(rep["result"]["selection"])
        assert sel.mode == "exact" and sel.bound == 4

    def test_entries_are_the_selection_choices(self, tmp_path):
        f = random_partial(GroundSet(tuple("qbzamcxk")), 3, random.Random(4))
        path = tmp_path / "f.json"
        path.write_text(dumps(write_partial(f)))
        code, out, _ = run_cli(["extend", str(path), "6", "3"])
        res = json.loads(out)["result"]
        assert code == 0 and res["valid"] is True
        assert res["entries"] == res["selection"]["choices"]
        assert res["count"] == len(res["entries"]) == 28  # C(8, 6)

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_nonpositive_m_exits_two(self, tmp_path, m):
        # p divides m and every hypothesis check passes, but m < p
        f = order_partial(ground_range(6), 2, "min")
        path = tmp_path / "f.json"
        path.write_text(dumps(write_partial(f)))
        code, out, err = run_cli(["extend", str(path), m, "2"])
        assert code == 2 and out == ""
        assert err == f"hypersel: m must be an int in 2..6, got {m}\n"

    def test_hypothesis_violation_exits_one(self, tmp_path):
        f = order_partial(ground_range(6), 2, "min")
        path = tmp_path / "f.json"
        path.write_text(dumps(write_partial(f)))
        code, out, _ = run_cli(["extend", str(path), "4", "3"])
        rep = json.loads(out)
        assert code == 1 and rep["result"]["valid"] is False

    def test_unreadable_input(self, tmp_path):
        code, _, err = run_cli(["extend", str(tmp_path / "nope.json"), "4", "2"])
        assert code == 2

    def test_m_above_the_carrier_exits_one(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(dumps(write_partial(order_partial(GroundSet(tuple("abc")), 2, "min"))))
        code, out, err = run_cli(["extend", str(path), "4", "2"])
        assert (code, err) == (1, "")
        assert json.loads(out)["result"] == {"error": "m=4 exceeds carrier size 3", "valid": False}

    def test_choices_not_a_list_exit_two(self, tmp_path):
        doc = write_partial(order_partial(ground_range(3), 2, "min"))
        path = tmp_path / "f.json"
        path.write_text(json.dumps({**doc, "choices": {"a": 1}}))
        code, out, err = run_cli(["extend", str(path), "2", "2"])
        assert (code, out) == (2, "")
        assert err == "hypersel: partial.choices: expected a list of choice records\n"

    def test_missing_choices_exit_before_any_rank_table(self, tmp_path, monkeypatch):
        # C(20, 10) = 184,756 subsets and no choice for any of them
        def forbidden(*args):
            raise RuntimeError("subset_ranks called before the choices were counted")

        monkeypatch.setattr(structures, "subset_ranks", forbidden)
        monkeypatch.setattr(documents, "subset_ranks", forbidden)
        labels = [f"v{i}" for i in range(20)]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"carrier": labels, "mode": "exact", "bound": 10, "choices": []}))
        code, out, err = run_cli(["extend", str(path), "20", "2"])
        assert code == 2 and out == ""
        assert err == f"hypersel: no choice for subset {labels[:10]}\n"

    @pytest.mark.parametrize(
        "mode, bound, sizes",
        [("upto", 4, (1, 2, 3)), ("exact", 0, ()), ("upto", 2, (1, 2, 3)), ("upto", 2, (1,))],
        ids=["bound above the carrier", "exact with bound 0", "size not admitted", "missing size"],
    )
    def test_rejected_partial_exits_two(self, tmp_path, mode, bound, sizes):
        labels = ["a", "b", "c"]
        choices = [
            {"subset": list(s), "pick": s[0]} for k in sizes for s in combinations(labels, k)
        ]
        doc = {"carrier": labels, "mode": mode, "bound": bound, "choices": choices}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["extend", str(path), "2", "2"])
        assert code == 2 and out == "" and err.startswith("hypersel: ")


class TestDeepDocuments:
    @pytest.mark.parametrize(
        "argv", [["extend", "{}", "4", "2"], ["model", "check-continuity", "{}"], ["chains", "check-nice", "{}"]]
    )
    def test_deep_nesting_is_a_document_error(self, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli([a.format(path) for a in argv])
        assert code == 2 and out == ""
        assert "invalid JSON" in err


# subcommands reading a document, with the document's path as {}
READERS = [
    ["extend", "{}", "4", "2"],
    ["model", "check-continuity", "{}"],
    ["chains", "check-nice", "{}"],
    ["chains", "build", "{}"],
    ["chains", "derive", "{}"],
]
VALID_DOCUMENTS = [
    write_partial(order_partial(ground_range(4), 2, "min")),
    write_model(cyclic_model()),
    write_model(flip_model()),
    write_system(conflict_system()),
]


@st.composite
def mutated_documents(draw):
    """A valid document with one node, reached by a random path,
    replaced by an arbitrary JSON value or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.integers(0, 3)) == 0:
            del node[key]
        else:
            node[key] = draw(json_values)
        return doc


def run_on(doc, argv, directory):
    path = os.path.join(directory, "doc.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
    return run_cli([a.format(path) for a in argv])


class TestCliFuzz:
    """Whatever JSON a document holds, a reading subcommand exits 0, 1
    or 2 and raises nothing."""

    @pytest.mark.parametrize("argv", READERS, ids=" ".join)
    @settings(max_examples=120, deadline=None)
    @given(doc=json_values | mutated_documents())
    def test_any_document(self, argv, doc):
        with tempfile.TemporaryDirectory() as directory:
            code, _, _ = run_on(doc, argv, directory)
        assert code in (0, 1, 2)

    MALFORMED = {
        "string bound": {"bound": "2"},
        "bool bound": {"bound": True},
        "list choices": {"choices": [[["a"], "a"]]},
        "integer labels": {"carrier": [0, 1, 2]},
        "repeated labels": {"choices": [{"subset": ["a", "a"], "pick": "a"}]},
        "nested subset": {"choices": [{"subset": [["a"], "b"], "pick": "b"}]},
        "list pick": {"choices": [{"subset": ["a"], "pick": ["a"]}]},
        "bound 10^30": {"bound": 10**30},
    }

    @pytest.mark.parametrize("change", list(MALFORMED.values()) + [None],
                             ids=list(MALFORMED) + ["no object"])
    def test_malformed_partial_exits_two(self, tmp_path, change):
        doc = write_partial(order_partial(GroundSet(("a", "b", "c")), 2, "min"))
        doc = [doc] if change is None else {**doc, **change}
        code, out, err = run_on(doc, READERS[0], tmp_path)
        assert code == 2 and out == "" and err.startswith("hypersel: ")


class TestCliModel:
    def test_min_model_continuous(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(dumps(write_model(order_model([0, 1, 2], 2, "min"))))
        code, out, _ = run_cli(["model", "check-continuity", str(path)])
        rep = json.loads(out)
        assert code == 0 and rep["result"]["continuous"] is True

    def test_flip_fixture_witnessed(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(dumps(write_model(flip_model())))
        code, out, _ = run_cli(["model", "check-continuity", str(path)])
        rep = json.loads(out)
        assert code == 1
        assert rep["result"]["witness"] == ["0/1", "1/1"]

    def test_empty_model(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(dumps({
            "points": [],
            "selection": {"carrier": [], "mode": "upto", "bound": 0, "choices": []},
        }))
        code, out, _ = run_cli(["model", "check-continuity", str(path)])
        assert code == 0


class TestCliChains:
    def test_derive_then_check_roundtrip(self, tmp_path):
        mpath = tmp_path / "model.json"
        spath = tmp_path / "system.json"
        mpath.write_text(dumps(write_model(cyclic_model())))
        code, _, _ = run_cli(
            ["chains", "derive", str(mpath), "2", "--output", str(spath)]
        )
        assert code == 0
        code, out, _ = run_cli(["chains", "check-nice", str(spath)])
        rep = json.loads(out)
        assert code == 0 and rep["result"]["nice"] is True
        assert rep["result"]["cover"]["covered_count"] == 1
        code, out, _ = run_cli(["chains", "build", str(spath)])
        rep = json.loads(out)
        assert code == 0 and rep["result"]["built"] is True

    def test_conflict_fixture_witness_serialized(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(dumps(write_system(conflict_system())))
        code, out, _ = run_cli(["chains", "check-nice", str(path)])
        rep = json.loads(out)
        assert code == 1
        assert rep["result"]["witness"][0] == "transfer-conflict"
        code, out, _ = run_cli(["chains", "build", str(path)])
        rep = json.loads(out)
        assert code == 1 and rep["result"]["built"] is False

    def test_single_family_system(self, tmp_path):
        model = order_model([0, 1, 2, 3], 2, "min")
        system = FamilySystem((family((0, 1), (2, 3)),), model)
        path = tmp_path / "one.json"
        path.write_text(dumps(write_system(system)))
        code, out, _ = run_cli(["chains", "check-nice", str(path)])
        assert code == 0

    def test_derive_reads_the_pair_level_alone(self, tmp_path):
        # the cyclic triple up to 2 (pairs pick 1, 0, 2): one regular triple
        mpath = tmp_path / "model.json"
        mpath.write_text(dumps({"points": ["0/1", "1/1", "2/1"], "selection": {
            "carrier": ["0/1", "1/1", "2/1"], "mode": "upto", "bound": 2, "choices": [
                {"subset": ["0/1"], "pick": "0/1"}, {"subset": ["1/1"], "pick": "1/1"},
                {"subset": ["2/1"], "pick": "2/1"}, {"subset": ["0/1", "1/1"], "pick": "1/1"},
                {"subset": ["0/1", "2/1"], "pick": "0/1"}, {"subset": ["1/1", "2/1"], "pick": "2/1"},
            ]}}))
        code, out, err = run_cli(["chains", "derive", str(mpath), "2"])
        assert (code, err) == (0, "")
        system = read_system(json.loads(out))
        assert [[(u.lo, u.hi) for u in f.members] for f in system.families] == [
            [(F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)), (F(3, 2), F(5, 2))]]
        for n in ("3", "4", str(10**20)):
            message = f"n must be an int in 2..2, got {n}"
            code, out, err = run_cli(["chains", "derive", str(mpath), n])
            assert (code, out) == (2, "") and message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda fams: fams[0].update(intervals={"lo": "0/1"}), "family.intervals: expected a list"),
        (lambda fams: fams[0].update(intervals=fams[0]["intervals"][:1]), "family sizes differ: [1, 2]"),
    ], ids=["intervals not a list", "sizes differ"])
    def test_malformed_system_exits_two(self, tmp_path, edit, message):
        doc = write_system(conflict_system())
        edit(doc["families"])
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["chains", "check-nice", str(path)])
        assert (code, out, err) == (2, "", f"hypersel: {message}\n")

    def test_derive_without_a_pair_level_exits_two(self, tmp_path):
        mpath = tmp_path / "model.json"
        mpath.write_text(dumps(write_model(order_model([0, 1, 2], 1, "min"))))
        code, out, err = run_cli(["chains", "derive", str(mpath), "2"])
        assert (code, out, err) == (2, "", "hypersel: arity 2 not admitted by mode upto\n")

    def test_derive_odd_arity_precondition(self, tmp_path):
        mpath = tmp_path / "model.json"
        mpath.write_text(dumps(write_model(cyclic_model())))
        code, _, err = run_cli(["chains", "derive", str(mpath), "3"])
        assert code == 2


class TestDeterminism:
    def test_same_invocation_same_bytes(self, tmp_path):
        mpath = tmp_path / "model.json"
        mpath.write_text(dumps(write_model(cyclic_model())))
        runs = []
        for _ in range(2):
            pieces = []
            for argv in (
                ["enumerate", "3", "2", "--seed", "11"],
                ["obstruct", "6", "--format", "json", "--seed", "11"],
                ["chains", "derive", str(mpath), "2", "--seed", "11"],
                ["model", "check-continuity", str(mpath), "--seed", "11"],
            ):
                code, out, _ = run_cli(argv)
                assert code == 0
                pieces.append(out)
            runs.append("".join(pieces))
        assert runs[0] == runs[1]

    def test_output_file_matches_stdout(self, tmp_path):
        out_path = tmp_path / "report.json"
        code1, stdout, _ = run_cli(["obstruct", "5", "--format", "json"])
        code2, _, _ = run_cli(
            ["obstruct", "5", "--format", "json", "--output", str(out_path)]
        )
        body = out_path.read_text()
        # config records the differing output path; results must agree
        assert json.loads(stdout)["result"] == json.loads(body)["result"]
