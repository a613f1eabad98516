#!/usr/bin/env python3
"""Time this checkout against a base checkout on one workload's ops of one kind.

    python3 tools/ab_ops.py --base ../base --workload combinatorial --kind extend --pairs 40

Both trees run in one process.  The base tree's ``src/hypersel`` is
copied under the package name ``hypersel_base`` (its imports are
relative, so the copy is a package of its own) and this checkout's
``src/hypersel`` is imported as ``hypersel``.  The ops are those of the
given kind over every cycle of the workload at --seed, as
``perfbench/workloads.py`` generates them (imported, never changed).
Each pair runs the ops once on each tree, the order alternating from
pair to pair, and takes the ratio of this checkout's time to the
base's.  The median and the quartiles of those ratios are printed.
Every run's exit codes, stdout and stderr text and report bytes are
compared with the base's; any difference is named on stderr and the
exit status is 1.  Timing never decides the exit status.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402

BASE_PACKAGE = "hypersel_base"


def load_base(base: str, into: str):
    """The base tree's cli module, imported from a copy named BASE_PACKAGE."""
    shutil.copytree(os.path.join(base, "src", "hypersel"), os.path.join(into, BASE_PACKAGE),
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, into)
    return importlib.import_module(f"{BASE_PACKAGE}.cli")


def run_ops(cli, ops) -> tuple:
    """(seconds, [(exit code, stdout and stderr text, report bytes)])
    of running ops through cli.main; only the calls are timed."""
    results = []
    busy = 0.0
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            busy += time.perf_counter() - start
        report = None
        if os.path.exists(op.out):
            with open(op.out, "rb") as fh:
                report = fh.read()
            os.remove(op.out)
        results.append((code, out.getvalue() + err.getvalue(), report))
    return busy, results


def quartiles(xs: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the base checkout")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--kind", required=True, help="op kind, e.g. extend or enumerate")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    from hypersel import cli as head

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    cycles = workloads.cycle_count(args.workload, seconds)
    with tempfile.TemporaryDirectory(prefix="ab_ops-") as tmp:
        base = load_base(os.path.abspath(args.base), tmp)
        os.chdir(tmp)
        ops = []
        for cycle in range(cycles):
            cycle_ops, docs = workloads.cycle_ops(args.workload, args.seed, cycle, cycles, "work")
            workloads.write_docs(docs)
            ops.extend(op for op in cycle_ops if op.cli and op.kind == args.kind)
        if not ops:
            print(f"no {args.kind} ops in workload {args.workload}", file=sys.stderr)
            return 1
        ratios = []
        differ = 0
        for pair in range(args.pairs):
            sides = {}
            for name, cli in ((("base", base), ("head", head)) if pair % 2 == 0
                              else (("head", head), ("base", base))):
                gc.collect()
                sides[name] = run_ops(cli, ops)
            ratios.append(sides["head"][0] / sides["base"][0])
            for op, a, b in zip(ops, sides["base"][1], sides["head"][1]):
                if a != b:
                    differ += 1
                    print(f"pair {pair}: {' '.join(op.argv)}: exit code, text or report "
                          f"bytes differ", file=sys.stderr)
    q1, q2, q3 = quartiles(ratios) if len(ratios) > 1 else (ratios[0],) * 3
    print(f"{args.workload} {args.kind}: {len(ops)} ops x {args.pairs} pairs; "
          f"head/base time median {q2:.3f}, IQR {q1:.3f}-{q3:.3f}")
    if differ:
        print(f"{differ} op runs differ from the base", file=sys.stderr)
        return 1
    print("every exit code, text and report is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
