#!/usr/bin/env python3
"""Replay every CLI op of one benchmark workload and keep what it wrote.

    python3 tools/replay_ops.py --workload interval --seed 1 --out DIR

The ops and their input documents come from ``perfbench/workloads.py``
(imported, never changed), for as many cycles as the benchmark's
``run_seconds`` gives.  Each op runs through ``hypersel.cli.main`` from
this checkout's ``src``.  DIR ends up holding the inputs and reports
under ``work/`` (the paths a report records are relative to DIR) and
one ``ops.tsv`` line per op: cycle, op, kind, exit code, argv and the
stderr text.  Run it on two checkouts and compare them with
``diff -r``: equal behaviour gives equal trees.  An op that raises (the
CLI turns every input fault into an exit code, so this is a bug) is
named on stderr by its cycle, index and argv before the traceback.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from hypersel import cli  # noqa: E402


def run(argv: list) -> tuple:
    """(exit code, stdout and stderr text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue() + err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to fill (created)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    cycles = workloads.cycle_count(args.workload, seconds)
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    lines = []
    for cycle in range(cycles):
        ops, docs = workloads.cycle_ops(args.workload, args.seed, cycle, cycles, "work")
        workloads.write_docs(docs)
        for i, op in enumerate(ops):
            if op.cli:
                try:
                    code, text = run(op.argv)
                except Exception:
                    print(f"cycle {cycle} op {i} raised: {' '.join(op.argv)}", file=sys.stderr)
                    raise
                lines.append(f"{cycle}\t{i}\t{op.kind}\t{code}\t{' '.join(op.argv)}\t{text!r}\n")
    with open("ops.tsv", "w") as fh:
        fh.writelines(lines)
    print(f"{len(lines)} ops of {cycles} cycles in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
