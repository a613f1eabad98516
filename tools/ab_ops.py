#!/usr/bin/env python3
"""Time this checkout against a base checkout on one workload's ops of one kind.

    python3 tools/ab_ops.py --base ../base --workload combinatorial --kind extend --pairs 40
    python3 tools/ab_ops.py --base ../base --workload combinatorial --kind census --pairs 20

Both trees run in one process.  The base tree's ``src/hypersel`` is
copied under the package name ``hypersel_base`` (its imports are
relative, so the copy is a package of its own) and this checkout's
``src/hypersel`` is imported as ``hypersel``.  The ops are those of the
given kind over every cycle of the workload at --seed, generated and
run as ``tools/replay_ops.py`` does; a ``census`` op is the library
call the benchmark times, ``structures.regular_tournaments(m)`` and
``check_cycle_property`` on each tournament.
Each pair runs the ops once on each tree, the order alternating from
pair to pair, and takes the ratio of this checkout's time to the
base's.  The median and the quartiles of those ratios are printed;
with ``--json PATH`` they are also written to PATH, with the workload,
the kind, the seed, the op and pair counts, every ratio in pair order
and whether every output was identical.
Every CLI run's exit codes, stdout and stderr text and report bytes,
and every census run's masks (``mask_from_tournament``) and verdicts,
are compared with the base's; any difference is named on stderr and
the exit status is 1.  Timing never decides the exit status.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

from replay_ops import run, workload_ops, workloads

import hypersel  # on sys.path, its cli imported, through replay_ops

BASE_PACKAGE = "hypersel_base"


def load_base(base: str, into: str):
    """The base tree's package, imported from a copy named BASE_PACKAGE."""
    shutil.copytree(os.path.join(base, "src", "hypersel"), os.path.join(into, BASE_PACKAGE),
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, into)
    importlib.import_module(f"{BASE_PACKAGE}.cli")  # binds .cli and .structures
    return importlib.import_module(BASE_PACKAGE)


def run_ops(pkg, ops) -> tuple:
    """(seconds, [(exit code, stdout and stderr text, report bytes)])
    of running ops through pkg.cli.main; only the captured calls are timed."""
    results = []
    busy = 0.0
    for op in ops:
        start = time.perf_counter()
        code, text = run(pkg.cli.main, op.argv)
        busy += time.perf_counter() - start
        report = None
        if os.path.exists(op.out):
            with open(op.out, "rb") as fh:
                report = fh.read()
            os.remove(op.out)
        results.append((code, text, report))
    return busy, results


def run_census(pkg, ops) -> tuple:
    """(seconds, [(masks, [(ok, witness) per tournament])]) of the census
    ops on pkg; only the calls the benchmark times are timed."""
    S = pkg.structures
    results = []
    busy = 0.0
    for op in ops:
        start = time.perf_counter()
        ts = S.regular_tournaments(op.info["m"])
        verdicts = [S.check_cycle_property(t) for t in ts]
        busy += time.perf_counter() - start
        results.append(([S.mask_from_tournament(t) for t in ts],
                         [(v.ok, v.witness) for v in verdicts]))
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
    parser.add_argument("--json", metavar="PATH", help="also write the ratios as JSON to PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = os.path.abspath(args.json) if args.json else None
    with tempfile.TemporaryDirectory(prefix="ab_ops-") as tmp:
        base = load_base(os.path.abspath(args.base), tmp)
        os.chdir(tmp)
        ops = [op for _, cycle in workload_ops(args.workload, args.seed)
               for op in cycle if op.kind == args.kind]
        runner = run_census if args.kind == "census" else run_ops
        if not ops:
            print(f"no {args.kind} ops in workload {args.workload}", file=sys.stderr)
            return 1
        ratios = []
        differ = 0
        for pair in range(args.pairs):
            sides = {}
            for name, pkg in ((("base", base), ("head", hypersel)) if pair % 2 == 0
                              else (("head", hypersel), ("base", base))):
                gc.collect()
                sides[name] = runner(pkg, ops)
            ratios.append(sides["head"][0] / sides["base"][0])
            for op, a, b in zip(ops, sides["base"][1], sides["head"][1]):
                if a != b:
                    differ += 1
                    what = (f"{' '.join(op.argv)}: exit code, text or report bytes" if op.cli
                            else f"census of {op.info['m']} points: masks or verdicts")
                    print(f"pair {pair}: {what} differ", file=sys.stderr)
    q1, q2, q3 = quartiles(ratios) if len(ratios) > 1 else (ratios[0],) * 3
    print(f"{args.workload} {args.kind}: {len(ops)} ops x {args.pairs} pairs; "
          f"head/base time median {q2:.3f}, IQR {q1:.3f}-{q3:.3f}")
    if out:
        with open(out, "w") as fh:
            json.dump({"workload": args.workload, "kind": args.kind, "seed": args.seed,
                       "ops": len(ops), "pairs": args.pairs, "ratios": ratios,
                       "median": q2, "q1": q1, "q3": q3, "identical": not differ},
                      fh, indent=1)
            fh.write("\n")
    if differ:
        print(f"{differ} op runs differ from the base", file=sys.stderr)
        return 1
    print("every mask and verdict is identical" if args.kind == "census"
          else "every exit code, text and report is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
