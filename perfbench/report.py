#!/usr/bin/env python3
"""Run every workload and print each metric with its unit.

    python3 perfbench/report.py                 # end-to-end metrics, seed 1
    python3 perfbench/report.py --trace         # also the traced run's layers
    python3 perfbench/report.py --workloads witness --seed 7 --seconds 5

Run from the repository root.  Each workload runs in its own process,
one after another.  Exits 1 when any run fails or any op's output is
wrong (fail_frac > 0).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)["run_seconds"]
    except (OSError, KeyError, ValueError):
        return 24


def run(workload, seed, seconds, trace):
    """(run record, result) of one benchmark process, or None on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{workload}: run exited {proc.returncode} without a result")
        return None
    return json.loads(lines[-2][2:])["run"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=default_seconds())
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true",
                        help="also run the traced run and print per-layer metrics")
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        for trace in (0, 1) if args.trace else (0,):
            got = run(workload, args.seed, args.seconds, trace)
            if got is None:
                ok = False
                continue
            info, res = got
            fail_frac = res["failed"] / res["attempted"]
            ok = ok and fail_frac == 0 and res["correct"]
            print(f"== {workload} trace={trace} seed={info['seed']} cycles={info['cycles']} "
                  f"backend={info['backend']} python={info['python']} nproc={info['nproc']} "
                  f"commit={info['commit'] or '-'} src={info['source_sha256'][:12]}")
            for name, m in res["metrics"].items():
                print(f"{workload:14s} {name:34s} {m['value']:16.6g} {m['unit']}")
            print(f"{workload:14s} {'fail_frac':34s} {fail_frac:16.6g} ratio "
                  f"({res['failed']} of {res['attempted']} ops)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
