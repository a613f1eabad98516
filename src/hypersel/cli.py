"""Batch command-line front end.

Exit codes: 0 success or property verified, 1 property refuted or
hypothesis violated (report carries a machine-readable witness), 2
resource or precondition failure (diagnostic on stderr).

Reports embed the tool version and the resolved configuration; given
equal inputs and flags the bytes written are identical run to run.

An argv whose first word names a subcommand is parsed by that
subcommand's parser alone, as the top-level parser's subparsers action
would parse it; any other argv, and one with arguments left over, goes
through the top-level parser.  Both parsers are built on the first call
to ``main``.  Every report, bare document and table is ASCII: ``--output``
files get its bytes in one binary write, stdout gets the text.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any, Optional

from . import __version__
from .chains import (
    build_selection_from_nice,
    chain_classes,
    derive_nice_family,
    is_nice,
)
from .documents import (
    dumps,
    jsonable,
    label_str,
    partial_texts,
    read_model,
    read_partial,
    read_system,
    selection_texts,
    system_text,
)
from .errors import (
    BudgetExceeded,
    DocumentError,
    HyperselError,
    HypothesisViolated,
    NotNice,
    check_int,
)
# extend_selection and partition_types stay bound here for
# perfbench/spans.py, which wraps them
from .extension import extend_selection, extend_with_types, partition_types  # noqa: F401
from .obstruction import obstruction_table, table_tsv
from .structures import DEFAULT_BUDGET, enumerate_selections
from .vietoris import check_continuity


def _emit(text: str, path: Optional[str]) -> None:
    """Write text to path, or to stdout when path is None.  Every report,
    bare document and table is ASCII, so any stream encoding takes it,
    and its UTF-8 encoding is its ASCII bytes."""
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
        except OSError as exc:
            raise DocumentError(f"cannot write {path}: {exc}") from exc


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


_VERSION = dumps(__version__)[:-1]


def _report(args: argparse.Namespace, result: Any) -> str:
    """The report on result: a dict, or its text as dumps renders it less
    the newline.  Sorted keys fix the envelope's layout, so it is joined
    around the result's text as dumps would render the whole."""
    if isinstance(result, dict):
        result = dumps(result)[:-1]
    return f'{{"config":{dumps(_config(args))[:-1]},"result":{result},"version":{_VERSION}}}\n'


def _load(path: str) -> Any:
    """The JSON document at path.  Read as text: universal newlines keep
    the offsets an "invalid JSON" message gives, and json would guess
    UTF-16 or UTF-32 for bytes."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path}: invalid JSON: {exc}") from exc


def _require_json(args: argparse.Namespace) -> None:
    if args.format != "json":
        raise DocumentError(
            f"command {args.command!r} only renders json, not {args.format!r}"
        )


def cmd_enumerate(args: argparse.Namespace) -> int:
    _require_json(args)
    records = selection_texts(
        enumerate_selections(args.m, args.n, up_to_iso=args.iso, budget=args.budget)
    )
    result = f'{{"count":{len(records)},"records":[{",".join(records)}]}}'
    _emit(_report(args, result), args.output)
    return 0


def cmd_obstruct(args: argparse.Namespace) -> int:
    rows = obstruction_table(args.max_m)
    if args.format == "tsv":
        _emit(table_tsv(rows), args.output)
    else:
        result = {
            "rows": [r._asdict() for r in rows],
            "count": len(rows),
        }
        _emit(_report(args, result), args.output)
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    """The extension, its type classes and their levels in one walk (extend_with_types)."""
    _require_json(args)
    f = read_partial(_load(args.input))
    try:
        h, parts, levels = extend_with_types(f, args.m, args.p)
    except HypothesisViolated as exc:
        _emit(_report(args, {"valid": False, "error": str(exc)}), args.output)
        return 1
    types = parts.classes
    classes = [f'{{"level":{r0},"level_class_size":{size},"members":{len(ms)},"type":{t}}}'
               for t, ms, (r0, size) in zip(selection_texts(types), types.values(), levels)]
    selection, choices = partial_texts(h)  # the choices stand as entries too: rendered once
    chosen = [h.levels[n] for n in h.admissible_sizes()]
    valid = all(p in t for s in chosen for t, p in zip(s.table[0], s.picks))
    count = sum(len(s.picks) for s in chosen)
    result = (f'{{"classes":[{",".join(classes)}],"count":{count},"entries":{choices},'
              f'"selection":{selection},"valid":{"true" if valid else "false"}}}')
    _emit(_report(args, result), args.output)
    return 0


def _cover_diagnostics(system) -> dict:
    """The covered sample subsets in rank order, as labels, and the
    count of uncovered ones."""
    model = system.model
    m = system.arity
    covered = []
    uncovered_count = 0
    if 0 < m <= model.size:
        names = [label_str(p) for p in model.points]
        covered = [[names[i] for i in s] for s in sorted(system.graph.cover)]
        uncovered_count = math.comb(model.size, m) - len(covered)
    return {
        "covered": covered,
        "covered_count": len(covered),
        "uncovered_count": uncovered_count,
    }


def cmd_chains(args: argparse.Namespace) -> int:
    _require_json(args)
    if args.action == "derive":
        model = read_model(_load(args.input))
        system = derive_nice_family(model, args.n)
        _emit(system_text(system), args.output)
        return 0
    system = read_system(_load(args.input))
    if args.action == "check-nice":
        verdict = is_nice(system)
        result = {
            "nice": verdict.ok,
            "witness": jsonable(verdict.witness),
            "components": chain_classes(system),
            "cover": _cover_diagnostics(system),
        }
        _emit(_report(args, result), args.output)
        return 0 if verdict.ok else 1
    # build
    try:
        built = build_selection_from_nice(system)
    except (HypothesisViolated, NotNice) as exc:
        witness = exc.verdict.witness if isinstance(exc, NotNice) else None
        result = {"built": False, "witness": jsonable(witness), "error": str(exc)}
        _emit(_report(args, result), args.output)
        return 1
    names = [label_str(p) for p in system.model.points]
    result = {
        "built": True,
        "values": [
            {"subset": [names[i] for i in s], "pick": names[v]}
            for s, v in built.values.items()
        ],
        "uncovered": [[names[i] for i in s] for s in built.uncovered],
        "bases": [list(b) for b in built.bases],
        "components": [list(c) for c in built.components],
    }
    _emit(_report(args, result), args.output)
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    _require_json(args)
    model = read_model(_load(args.input))
    verdict = check_continuity(model)
    result = {"continuous": verdict.ok, "witness": jsonable(verdict.witness)}
    _emit(_report(args, result), args.output)
    return 0 if verdict.ok else 1


def _build() -> tuple[argparse.ArgumentParser, dict]:
    """A new top-level parser and its subcommand table: each subcommand's
    name and the parser its subparsers action sends the rest of argv to."""
    parser = argparse.ArgumentParser(
        prog="hypersel",
        description="Finite selection structures: enumeration, divisibility "
        "obstructions, arity extension, and interval-model continuity checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="work budget for searches and enumeration")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in reports for reproducibility")
    common.add_argument("--format", choices=("json", "tsv"), default=None,
                        help="output rendering; defaults to json, except the "
                        "obstruct table which defaults to tsv")
    common.add_argument("--output", default=None, help="write here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list selection structures on m elements at arity n")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--iso", action="store_true",
                   help="one canonical representative per isomorphism class")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("obstruct", parents=[common],
                       help="divisibility-obstruction table for prime arities")
    p.add_argument("max_m", type=int)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("extend", parents=[common],
                       help="extend an up-to-k selection document to arity m")
    p.add_argument("input", help="partial-selection document")
    p.add_argument("m", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("chains", parents=[common],
                       help="family-system niceness, building, and derivation")
    p.add_argument("action", choices=("check-nice", "build", "derive"))
    p.add_argument("input", help="system document (model document for derive)")
    p.add_argument("n", type=int, nargs="?", default=2,
                   help="relation arity for derive (even)")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("model", parents=[common],
                       help="interval-model checks")
    p.add_argument("action", choices=("check-continuity",))
    p.add_argument("input", help="model document")
    p.set_defaults(func=cmd_model)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """A new top-level parser."""
    return _build()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and subcommand table of this process, built
    on the first call to ``main``.

    Only in-process callers that call ``main`` more than once gain; a
    one-shot process builds them once either way.  Each parse returns a
    fresh namespace and nothing writes to a parser after it is built, so
    no state passes from one call to the next.
    """
    return _build()


def _parse(argv: list) -> argparse.Namespace:
    """argv parsed as the top-level parser parses it.

    An argv that starts with a subcommand's name goes straight to that
    subcommand's parser, with ``command`` set to the name: what the
    top-level parser's subparsers action does, less the top-level pass
    that only finds the name.  Should arguments be left over, argv is
    parsed again by the top-level parser, whose error names them.  Any
    other argv (empty, an option first, an unknown command) goes through
    the top-level parser.
    """
    parser, subcommands = _parsers()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args.format is None:
        args.format = "tsv" if args.command == "obstruct" else "json"
    try:
        check_int("budget", args.budget, 1)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"hypersel: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except HyperselError as exc:
        print(f"hypersel: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
