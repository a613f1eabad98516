"""The CLI front end: one parser per process, argument fuzz over every
subcommand, unwritable outputs, the one-shot entry point and UTF-8
documents under any locale."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersel import __version__, cli, extension
from hypersel.chains import derive_nice_family
from hypersel.documents import dumps, write_model, write_partial, write_system
from hypersel.extension import order_partial
from hypersel.structures import GroundSet, ground_range

from oracles import conflict_system, cyclic_model, flip_model

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def call(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call.
    argparse's own exits (usage errors, --help, --version) raise
    SystemExit; its code counts as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def call_fresh(argv):
    """``call`` with a parser built afresh for this call alone."""
    with mock.patch.object(cli, "_parser", cli.build_parser):
        return call(argv)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Small fixture documents, a writable report path and an unwritable one."""
    root = tmp_path_factory.mktemp("cli")
    contents = {
        "partial": write_partial(order_partial(ground_range(4), 2, "min")),
        "cyclic": write_model(cyclic_model()),
        "flip": write_model(flip_model()),
        "conflict": write_system(conflict_system()),
        "nice": write_system(derive_nice_family(cyclic_model(), 2)),
    }
    paths = {}
    for name, doc in contents.items():
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(dumps(doc))
    paths["missing"] = str(root / "missing.json")
    paths["out"] = str(root / "report")
    paths["bad_out"] = str(root / "no-such-dir" / "report")
    paths["dir_out"] = str(root)
    return paths


class TestParserOncePerProcess:
    def test_built_on_first_call_only(self):
        cli._parser.cache_clear()
        with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
            for argv in (["obstruct", "4"], ["enumerate", "2", "2"], ["obstruct", "x"]):
                call(argv)
        assert build.call_count == 1

    def test_format_default_does_not_leak(self):
        # main resolves the --format default per call, in the namespace
        code, out, _ = call(["obstruct", "3", "--format", "json"])
        assert code == 0 and out.startswith("{")
        code, out, _ = call(["obstruct", "3"])
        assert code == 0 and out.startswith("m\tp\t")
        code, out, _ = call(["enumerate", "2", "2"])
        assert code == 0 and out.startswith("{")

    def test_not_built_at_import(self):
        code = (
            "import hypersel.cli as c\n"
            "print(c._parser.cache_info().currsize)\n"
            "c.main(['obstruct', '2'])\n"
            "print(c._parser.cache_info().currsize)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, check=True,
        )
        assert done.stdout.splitlines()[0] == "0"
        assert done.stdout.splitlines()[-1] == "1"


# argv templates: "{name}" stands for the path docs[name].  Option
# values repeat to weight the draws: most calls get past the parser.
SMALL = st.integers(-1, 6).map(str)
BUDGETS = [None] * 8 + ["1", "40", "100000", "0", "-3", "x"]
OPTIONS = (
    ("--format", [None] * 6 + ["json", "json", "tsv", "xml"]),
    ("--seed", [None] * 4 + ["0", "7", "-1", "x"]),
    ("--output", [None] * 4 + ["{out}"] * 3 + ["{bad_out}", "{dir_out}"]),
)


def mostly(valid, anything):
    """Draws from the valid values about half the time."""
    return st.sampled_from(valid) | anything


@st.composite
def argvs(draw):
    kind = draw(st.sampled_from(
        ["enumerate", "obstruct", "extend", "chains", "model", "unknown"]))
    budget = draw(st.sampled_from(BUDGETS))
    if kind == "enumerate":
        m, n = draw(mostly([(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 4)],
                           st.tuples(st.integers(-1, 5), st.integers(-1, 5))))
        iso = draw(st.booleans())
        if (m, n) == (5, 3) and not iso and budget in (None, "100000"):
            budget = "40"  # 3^10 structures would take seconds to list
        argv = ["enumerate", str(m), str(n)] + (["--iso"] if iso else [])
    elif kind == "obstruct":
        argv = ["obstruct", draw(st.integers(2, 60).map(str) | st.sampled_from(["-1", "0", "1", "x"]))]
    elif kind == "extend":
        doc = draw(st.sampled_from(["{partial}"] * 3 + ["{cyclic}", "{missing}"]))
        m, p = draw(mostly([("4", "2"), ("3", "2"), ("4", "3")], st.tuples(SMALL, SMALL)))
        argv = ["extend", doc, m, p]
    elif kind == "chains":
        action, doc = draw(mostly(
            [("check-nice", "{nice}"), ("check-nice", "{conflict}"), ("build", "{nice}"),
             ("build", "{conflict}"), ("derive", "{cyclic}"), ("derive", "{flip}")],
            st.tuples(st.sampled_from(["check-nice", "build", "derive", "frob"]),
                      st.sampled_from(["{nice}", "{cyclic}", "{partial}", "{missing}"]))))
        argv = ["chains", action, doc] + draw(st.sampled_from([[], [], ["2"], ["3"], ["0"], ["-2"]]))
    elif kind == "model":
        action, doc = draw(mostly(
            [("check-continuity", "{cyclic}"), ("check-continuity", "{flip}")],
            st.tuples(st.sampled_from(["check-continuity", "check-nice"]),
                      st.sampled_from(["{nice}", "{partial}", "{missing}"]))))
        argv = ["model", action, doc]
    else:
        argv = draw(st.sampled_from(
            [[], ["frobnicate"], ["--nope"], ["--version"], ["obstruct"], ["obstruct", "4", "5"]]))
    if budget is not None:
        argv += ["--budget", budget]
    for flag, values in OPTIONS:
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


def run_and_collect(argv, runner, report):
    """runner's (exit code, stdout, stderr) and the report bytes it wrote."""
    result = runner(argv)
    written = None
    if os.path.isfile(report):
        with open(report, "rb") as fh:
            written = fh.read()
        os.remove(report)
    return result + (written,)


class TestArgumentFuzz:
    """Sequences of arguments through one process's parser: every call
    exits 0, 1 or 2, nothing else escapes, and each call's exit code,
    output and report equal a run on a freshly built parser."""

    @settings(max_examples=100, deadline=None)
    @given(templates=st.lists(argvs(), min_size=1, max_size=4))
    def test_shared_parser_matches_fresh(self, docs, templates):
        seq = [[a.format(**docs) for a in t] for t in templates]
        shared = [run_and_collect(argv, call, docs["out"]) for argv in seq]
        fresh = [run_and_collect(argv, call_fresh, docs["out"]) for argv in seq]
        for argv, got, want in zip(seq, shared, fresh):
            assert got[0] in (0, 1, 2), argv
            assert got == want, argv


# one argv per subcommand and outcome, "{name}" standing for docs[name]
EMITTERS = [
    ["enumerate", "3", "2"],
    ["obstruct", "5"],
    ["obstruct", "5", "--format", "json"],
    ["extend", "{partial}", "4", "2"],
    ["extend", "{partial}", "4", "3"],
    ["chains", "check-nice", "{nice}"],
    ["chains", "check-nice", "{conflict}"],
    ["chains", "build", "{nice}"],
    ["chains", "build", "{conflict}"],
    ["chains", "derive", "{cyclic}"],
    ["model", "check-continuity", "{cyclic}"],
    ["model", "check-continuity", "{flip}"],
]


class TestUnwritableOutput:
    @pytest.mark.parametrize("target", ["bad_out", "dir_out"])
    @pytest.mark.parametrize("argv", EMITTERS, ids=" ".join)
    def test_exits_two_with_a_message(self, docs, argv, target):
        path = docs[target]
        code, out, err = call([a.format(**docs) for a in argv] + ["--output", path])
        assert code == 2 and out == ""
        assert err.startswith(f"hypersel: cannot write {path}: ")
        assert err.count("\n") == 1


class TestHugePrime:
    def test_extend_beyond_the_bound_exits_one(self, docs, monkeypatch):
        # the bound is checked before the trial division, which would
        # take hours on 2**61 - 1
        p = 2**61 - 1
        monkeypatch.setattr(extension, "is_prime", lambda k: pytest.fail(f"primality of {k} tested"))
        code, out, err = call(["extend", docs["partial"], "4", str(p)])
        assert (code, err) == (1, "")
        assert json.loads(out)["result"] == {
            "valid": False, "error": f"need p <= bound, got p={p}, bound=2"}


class TestOneShot:
    """``python -m hypersel.cli`` in its own process agrees with
    in-process ``main``."""

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["obstruct", "6"],
        ["obstruct", "6", "--format", "xml"],
    ], ids=" ".join)
    def test_matches_in_process(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the width
        done = subprocess.run(
            [sys.executable, "-m", "hypersel.cli"] + argv, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert (done.returncode, done.stdout, done.stderr) == call(argv)

    def test_version(self):
        assert call(["--version"]) == (0, __version__ + "\n", "")


def run_module(flags, argv, text=True, **env):
    """``python FLAGS -m hypersel.cli ARGV`` in its own process."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "hypersel.cli", *argv], capture_output=True,
        text=text, env={**os.environ, "PYTHONPATH": SRC, **env},
    )


class TestDocumentEncoding:
    """Documents are read and reports written as UTF-8, whatever the
    locale's encoding."""

    def test_non_ascii_label_under_c_locale(self, tmp_path):
        doc = tmp_path / "partial.json"
        partial = order_partial(GroundSet(("a", "\u00e9", "c", "d")), 2, "min")
        doc.write_text(dumps(write_partial(partial)), encoding="utf-8")
        out = tmp_path / "report"
        argv = ["extend", str(doc), "4", "2", "--output", str(out)]
        results = []
        for utf8 in ("utf8=0", "utf8=1"):
            done = run_module(["-X", utf8], argv, LC_ALL="C")
            results.append((done.returncode, done.stderr, out.read_bytes()))
            out.unlink()
        assert results[0] == results[1]
        assert results[0][:2] == (0, "") and "\u00e9".encode() in results[0][2]

    def test_non_ascii_report_on_stdout_under_c_locale(self, tmp_path):
        doc = tmp_path / "partial.json"
        partial = order_partial(GroundSet(("a", "\u00e9", "c", "d")), 2, "min")
        doc.write_text(dumps(write_partial(partial)), encoding="utf-8")
        out = tmp_path / "report"
        argv = ["extend", str(doc), "4", "2"]
        done = run_module(["-X", "utf8=0"], argv, text=False, LC_ALL="C")
        assert (done.returncode, done.stderr) == (0, b"")
        assert "\u00e9".encode() in done.stdout
        assert done.stdout == call(argv)[1].encode("utf-8")
        # the --output report differs only in its recorded output path
        filed = run_module(["-X", "utf8=0"], argv + ["--output", str(out)], LC_ALL="C")
        assert (filed.returncode, filed.stdout, filed.stderr) == (0, "", "")
        report = json.loads(out.read_bytes())
        assert report["config"]["output"] == str(out)
        report["config"]["output"] = None
        assert dumps(report).encode("utf-8") == done.stdout

    @pytest.mark.parametrize("argv", [
        ["enumerate", "3", "2"],
        ["obstruct", "5"],
        ["extend", "{partial}", "4", "2"],
        ["chains", "derive", "{cyclic}"],
        ["model", "check-continuity", "{flip}"],
    ], ids=" ".join)
    def test_no_default_encoding(self, docs, tmp_path, argv):
        out = tmp_path / "report"
        argv = [a.format(**docs) for a in argv] + ["--output", str(out)]
        flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        done = run_module(flags, argv)
        got = (done.returncode, done.stdout, done.stderr, out.read_bytes())
        out.unlink()
        assert got == call(argv) + (out.read_bytes(),)
