#!/usr/bin/env python3
"""hypersel benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload combinatorial --seed 1 --seconds 30 --trace 0

Run from the repository root.  The process imports hypersel from
./src, writes the workload's seeded documents, then calls
``hypersel.cli.main(argv)`` for each op in a closed loop: one client,
ops one after another, no threads.  The work of a run depends only on
the workload, the seed and --seconds (see workloads.cycle_count).
Outputs are checked after the timed phase.  With --trace 1 the run
instead calls the CLI with its layers traced (in cycle 0 also running
each op untraced, for comparison) and reports per-layer metrics.  The last stdout line is the
JSON result; a line before it records backend, Python, nproc, seed and
commit.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter
SETUP_REPS = 21
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.1
# Time of one speed-probe loop at the reference machine speed.  Reported
# times are measured seconds scaled by PROBE_REF_S / (probe time measured
# around the op): the host's speed drifts by up to 2x over tens of
# seconds, and the probe, which shares nothing with hypersel, follows it.
PROBE_REF_S = 0.001
KINDS = ("enumerate", "obstruct", "extend", "continuity", "derive",
         "check_nice", "build", "census")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    **{f"{k}_s": "s" for k in KINDS}, "peak_rss_mb": "MB",
}

KERNEL_ROWS = ("exhaustive_m5", "exhaustive_m6", "backtracking_m5",
               "backtracking_m7", "cycle_violation_m7", "scores_m6")

# per-layer metric -> (unit, how it is read from the tracer)
PER_LAYER = {
    "structures.canonical_form_s": ("s", ("busy", "structures.canonical_form")),
    "structures.canonical_form_calls": ("count", ("count", "structures.canonical_form.calls")),
    "structures.relabelings": ("count", ("count", "structures.relabelings")),
    "structures.enumerate_s": ("s", ("busy", "structures.enumerate")),
    "structures.labeled_visited": ("count", ("count", "structures.labeled_visited")),
    "structures.iso_yield": ("ratio", ("ratio", "structures.classes", "structures.iso_visited")),
    "structures.cycle_check_s": ("s", ("busy", "structures.cycle_check")),
    "extension.extend_selection_s": ("s", ("busy", "extension.extend_selection")),
    "extension.partition_types_s": ("s", ("busy", "extension.partition_types")),
    "extension.restrict_s": ("s", ("busy", "extension.restrict")),
    "extension.subsets": ("count", ("count", "extension.subsets")),
    "extension.type_classes": ("count", ("count", "extension.type_classes")),
    "extension.class_yield": ("ratio", ("ratio", "extension.type_classes", "extension.subsets")),
    "obstruction.table_s": ("s", ("busy", "obstruction.table")),
    "obstruction.certificate_s": ("s", ("busy", "obstruction.certificate")),
    "obstruction.search_s": ("s", ("busy", "obstruction.search")),
    "obstruction.rows": ("count", ("count", "obstruction.rows")),
    "kernels.backtracking_s": ("s", ("busy", "kernels.backtracking")),
    "kernels.masks_found": ("count", ("count", "kernels.masks_found")),
    **{f"kernels.{row}_s": ("s", ("row", row)) for row in KERNEL_ROWS},
    "vietoris.continuity_s": ("s", ("busy", "vietoris.continuity")),
    "vietoris.domain_subsets": ("count", ("count", "vietoris.neighborhoods.calls")),
    "vietoris.intersect_s": ("s", ("busy", "vietoris.intersect")),
    "vietoris.intersect_tests": ("count", ("count", "vietoris.intersect.calls")),
    "vietoris.overlap_yield": ("ratio", ("ratio", "vietoris.overlaps", "vietoris.intersect.calls")),
    "chains.derive_s": ("s", ("busy", "chains.derive")),
    "chains.families": ("count", ("count", "chains.families")),
    "chains.is_nice_s": ("s", ("busy", "chains.is_nice")),
    "chains.chain_classes_s": ("s", ("busy", "chains.chain_classes")),
    "chains.meets_s": ("s", ("busy", "chains.meets")),
    "chains.meet_tests": ("count", ("count", "chains.meets.calls")),
    "chains.meet_yield": ("ratio", ("ratio", "chains.unique_meets", "chains.meets.calls")),
    "chains.build_s": ("s", ("busy", "chains.build")),
    "chains.cover_s": ("s", ("busy", "chains.placement")),
    "chains.placement_tests": ("count", ("count", "chains.placement.calls")),
    "chains.cover_yield": ("ratio", ("ratio", "chains.placements", "chains.placement.calls")),
    "documents.read_s": ("s", ("busy", "documents.read")),
    "documents.write_s": ("s", ("busy", "documents.write")),
    "documents.bytes_in": ("B", ("count", "documents.bytes_in")),
    "documents.bytes_out": ("B", ("count", "documents.bytes_out")),
    "cli.self_s": ("s", ("self",)),
    "trace.overhead_frac": ("ratio", ("overhead",)),
}

HYPERSEL_MODULES = ("cli", "documents", "structures", "extension", "obstruction",
                    "vietoris", "chains", "errors", "_kernels")


def import_hypersel():
    """Fresh import of hypersel from ./src (module caches start cold)."""
    for name in [n for n in sys.modules if n == "hypersel" or n.startswith("hypersel.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("hypersel")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hypersel imported from {pkg.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"hypersel.{m}") for m in HYPERSEL_MODULES}
    return types.SimpleNamespace(version=pkg.__version__, **mods)


def run_info(args, hs, cycles):
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=20,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "backend": hs._kernels.BACKEND,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


def _probe_loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        table[(i % 17, i % 5)] = tuple(sorted((i * 7919 % 101, i % 13, i % 5)))
    return acc


class Speed:
    """Machine-speed probes: one run of a fixed pure-Python loop every
    PROBE_EVERY_S of wall time, from a SIGALRM handler, so long ops are
    probed while they run."""

    def __init__(self):
        self.starts, self.ends, self.took = [], [], []
        self.busy = False

    def probe(self, *_):
        if self.busy:
            return
        self.busy = True
        start = clock()
        _probe_loop()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.took.append(end - start)
        self.busy = False

    @contextlib.contextmanager
    def periodic(self):
        old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        self.probe()

    def measure(self, start, end):
        """(seconds of [start, end] outside probes, reference seconds per
        such second from the probes within PROBE_WINDOW_S of it)."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        own = (end - start) - sum(
            self.ends[k] - self.starts[k] for k in range(i, j) if self.ends[k] <= end)
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        lo, hi = min(lo, max(i - 1, 0)), max(hi, min(j + 1, len(self.took)))
        return own, PROBE_REF_S / statistics.fmean(self.took[lo:hi])


def census(hs, m):
    S = hs.structures
    ts = S.regular_tournaments(m)
    return ts, [S.check_cycle_property(t).ok for t in ts]


def execute(hs, op):
    """(exit code, library result) of one op."""
    if not op.cli:
        return 0, census(hs, op.info["m"])
    try:
        return hs.cli.main(op.argv), None
    except SystemExit as exc:
        return exc.code, None


def read_out(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def check(op, rc, result):
    if op.cli:
        return checks.check_op(op, rc, read_out(op.out))
    return checks.check_census(op, result)


def kernel_rows(hs):
    """The kernel micro-benchmark rows: min of three timings on the
    active backend, results from every importable backend."""
    backends = [hs._kernels]
    for name in ("_pure", "_fast"):
        try:
            mod = importlib.import_module(f"hypersel._kernels.{name}")
        except ImportError:
            continue
        if getattr(hs._kernels, "_impl", None) is not mod:
            backends.append(mod)
    masks7 = hs._kernels.regular_masks_backtracking(7)
    calls = {
        "exhaustive_m5": lambda k: k.regular_masks_exhaustive(5),
        "exhaustive_m6": lambda k: k.regular_masks_exhaustive(6),
        "backtracking_m5": lambda k: k.regular_masks_backtracking(5),
        "backtracking_m7": lambda k: k.regular_masks_backtracking(7),
        "cycle_violation_m7": lambda k: k.first_cycle_violation(7, masks7),
        "scores_m6": lambda k: [k.tournament_scores(x, 6) for x in range(1 << 15)],
    }
    times, results = {}, {}
    for row, call in calls.items():
        best = float("inf")
        for _ in range(3):
            start = clock()
            out = call(backends[0])
            best = min(best, clock() - start)
        times[row] = best
        results[row] = [out] + [call(k) for k in backends[1:]]
    return times, results


def end_to_end(records, setups, peak_rss_mb):
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(r["dt"] for r in records),
        "peak_rss_mb": peak_rss_mb,
    }
    for kind in KINDS:
        metrics[f"{kind}_s"] = sum(r["dt"] for r in records if r["op"].kind == kind)
    ms = [r["dt"] * 1e3 for r in records if r["op"].cli]
    metrics["op_p50_ms"] = statistics.median(ms)
    metrics["op_p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return metrics


def raw_record(records, speed):
    """Unscaled seconds per kind and the probe figures, for the run line."""
    raw = {"wall_s": sum(r["raw"] for r in records)}
    for kind in KINDS:
        raw[f"{kind}_s"] = sum(r["raw"] for r in records if r["op"].kind == kind)
    return {"raw": raw, "probes": len(speed.took),
            "probe_median_s": statistics.median(speed.took), "probe_ref_s": PROBE_REF_S}


def per_layer(tr, rows, records, self_times):
    scale = [r["traced_scale"] for r in records]
    out = {}
    for name, (_, how) in PER_LAYER.items():
        if how[0] == "busy":
            out[name] = tr.busy(how[1], scale)
        elif how[0] == "count":
            out[name] = tr.counts[how[1]]
        elif how[0] == "ratio":
            den = tr.counts[how[2]]
            out[name] = tr.counts[how[1]] / den if den else 0.0
        elif how[0] == "row":
            out[name] = rows[how[1]]
        elif how[0] == "self":
            out[name] = sum(t * scale[tr.spans[i][4]] for i, t in self_times.items())
        else:
            both = [r for r in records if "dt" in r]
            out[name] = (sum(r["traced_dt"] for r in both)
                         / sum(r["dt"] for r in both) - 1)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hypersel", "cli.py")):
        print(f"perfbench: no hypersel sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=work)
    try:
        return measure(args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, rundir):
    cycles = workloads.cycle_count(args.workload, args.seconds)
    workdir = os.path.join(rundir, "work")
    ops, docs = workloads.cycle_ops(args.workload, args.seed, 0, cycles, workdir)
    # Set-up, timed SETUP_REPS times: import hypersel afresh and write
    # cycle 0's documents (generated above, untimed; the first set-up
    # creates the files, the others rewrite them).
    speed = Speed()
    speed.probe()
    spans = []
    for _ in range(SETUP_REPS):
        start = clock()
        try:
            hs = import_hypersel()
        except ImportError as exc:
            print(f"perfbench: cannot import hypersel: {exc}", file=sys.stderr)
            return 2
        workloads.write_docs(docs)
        spans.append((start, clock()))
        speed.probe()
    del docs
    setups = [own * scale for own, scale in (speed.measure(*span) for span in spans)]

    info = run_info(args, hs, cycles)
    records = []
    tr = tracing.Tracer()

    def traced(rec):
        """rec's op run with its layers traced: (exit code, library result)."""
        op = rec["op"]
        speed.probe()
        tr.op = len(records)
        start = clock()
        with tracing.installed(tr, hs):
            with tr.span(f"cli.{op.kind}" if op.cli else "census"):
                got = execute(hs, op)
        rec["traced"] = (start, clock())
        tr.op = None
        speed.probe()
        return got

    # The traced run probes only between ops (a probe would land inside
    # spans) and runs each op untraced as well only in cycle 0, for the
    # overhead figure.
    with contextlib.nullcontext() if args.trace else speed.periodic():
        for cycle in range(cycles):
            if cycle:
                ops, docs = workloads.cycle_ops(args.workload, args.seed, cycle, cycles, workdir)
                workloads.write_docs(docs)
                del docs
            # A CLI process starts with a small heap; keep the harness's
            # own objects out of the collector's full passes.
            gc.freeze()
            for op in ops:
                rec = {"op": op}
                if args.trace:
                    rec["rc"], rec["result"] = traced(rec)
                if not args.trace or cycle == 0:
                    start = clock()
                    rec["rc"], rec["result"] = execute(hs, op)
                    rec["span"] = (start, clock())
                if rec["result"] is not None:  # census: keep masks, not structures
                    ts, verdicts = rec["result"]
                    rec["result"] = ([hs.structures.mask_from_tournament(t) for t in ts],
                                     verdicts)
                records.append(rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        speed.probe()
    for rec in records:
        if "span" in rec:
            own, scale = speed.measure(*rec["span"])
            rec["raw"], rec["dt"] = own, own * scale
        if "traced" in rec:
            own, rec["traced_scale"] = speed.measure(*rec["traced"])
            rec["traced_dt"] = own * rec["traced_scale"]

    failures = []
    for i, rec in enumerate(records):
        op = rec["op"]
        reason = check(op, rec["rc"], rec["result"])
        if reason is not None:
            failures.append(f"op {i}")
            print(f"perfbench: op {i} {op.kind} {op.argv or op.info}: {reason}",
                  file=sys.stderr)

    if args.trace:
        rows, results = kernel_rows(hs)
        reason = checks.check_kernels(results)
        if reason is not None:
            failures.append("kernel rows")
            print(f"perfbench: kernel rows: {reason}", file=sys.stderr)
        self_times = tr.self_times("cli.")
        if any(t < 0 for t in self_times.values()):
            failures.append("self time")
            print("perfbench: negative cli self time", file=sys.stderr)
        metrics = per_layer(tr, rows, records, self_times)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        tr.dump(tracing.span_file(ROOT, args.workload, args.seed), info)
    else:
        metrics = end_to_end(records, setups, peak_rss_mb)
        units = END_TO_END
        info.update(raw_record(records, speed))

    attempted = len(records) + args.trace  # the kernel rows count as one op
    print("# " + json.dumps({"run": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
