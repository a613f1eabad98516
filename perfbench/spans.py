"""Spans for the traced run.

The traced run calls ``hypersel.cli.main(argv)`` itself, with module
attributes wrapped for the length of each op: the layer functions in
the modules that call them (``cli`` binds them by from-import, so its
namespace is wrapped too) and the CLI's own document I/O helpers.
Nothing in ``src/`` changes.  Spans (name, start, end, parent, op, hook
seconds) stay in memory and are written out when the run ends.  Calls
made tens of thousands of times per op (canonical forms, restrictions,
meet and placement tests) are kept as one aggregate per (parent span,
name) with a call count and the busy time, so the trace stays small.

Counter hooks run after a call is timed; their time is kept out of
every enclosing span (``Tracer.hooks``), so harness work never lands in
a layer's figure.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from contextlib import contextmanager

from time import perf_counter as clock


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, hook seconds inside]
        self.leaves = {}  # (parent, name) -> [calls, busy, first, last, op]
        self.stack = []
        self.counts = Counter()
        self.hooks = 0.0  # seconds spent in counter hooks so far
        self.op = None

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        hooks = self.hooks
        rec = [name, clock(), None, self.stack[-1] if self.stack else None, self.op, 0.0]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield
        finally:
            rec[2] = clock()
            rec[5] = self.hooks - hooks
            self.stack.pop()

    def leaf(self, name, start, end):
        key = (self.stack[-1] if self.stack else None, name)
        agg = self.leaves.get(key)
        if agg is None:
            self.leaves[key] = [1, end - start, start, end, self.op]
        else:
            agg[0] += 1
            agg[1] += end - start
            agg[3] = end

    def hook(self, after, args, kw, result):
        start = clock()
        after(self, args, kw, result)
        self.hooks += clock() - start

    # -- derived numbers ----------------------------------------------------

    def _outermost(self, sid, name):
        """True when no ancestor of span sid has this name."""
        while sid is not None:
            s = self.spans[sid]
            if s[0] == name:
                return False
            sid = s[3]
        return True

    def busy(self, name, scale):
        """Seconds inside spans or aggregated calls of this name, hook time
        and nested calls of the same name excluded, each multiplied by
        scale[op] (reference seconds per second)."""
        total = sum((s[2] - s[1] - s[5]) * scale[s[4]] for s in self.spans
                    if s[0] == name and self._outermost(s[3], name))
        return total + sum(a[1] * scale[a[4]] for (parent, n), a in self.leaves.items()
                           if n == name and self._outermost(parent, name))

    def self_times(self, prefix):
        """{span id: own time} for root spans whose name has the prefix:
        duration minus the direct child spans, aggregated calls and hooks."""
        child = Counter()
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1] - s[5]
        for (parent, _), a in self.leaves.items():
            if parent is not None:
                child[parent] += a[1]
        return {
            i: (s[2] - s[1] - s[5]) - child[i]
            for i, s in enumerate(self.spans)
            if s[3] is None and s[0].startswith(prefix)
        }

    def dump(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"span": s}) + "\n")
            for (parent, name), (calls, busy, first, last, op) in self.leaves.items():
                fh.write(json.dumps({"calls": [name, first, last, parent, op, calls, busy]}) + "\n")


# -- counter hooks: (tracer, args, kwargs, result) ------------------------------


def _relabelings(tr, args, kw, result):
    tr.counts["structures.relabelings"] += tr.hs.structures.canonical_candidates(args[0])


def _enumerated(tr, args, kw, result):
    m, n = args[0], args[1]
    visited = n ** math.comb(m, n)
    tr.counts["structures.labeled_visited"] += visited
    if kw.get("up_to_iso", args[2] if len(args) > 2 else False):
        tr.counts["structures.iso_visited"] += visited
        tr.counts["structures.classes"] += result


def _partition(tr, args, kw, result):
    f, m = args[0], args[1]
    tr.counts["extension.subsets"] += math.comb(f.carrier.size, m)
    tr.counts["extension.type_classes"] += len(result.classes)


def _true(counter):
    def after(tr, args, kw, result):
        if result:
            tr.counts[counter] += 1
    return after


def _not_none(counter):
    def after(tr, args, kw, result):
        if result is not None:
            tr.counts[counter] += 1
    return after


def _counted(counter, size):
    def after(tr, args, kw, result):
        tr.counts[counter] += size(args, result)
    return after


def _families(tr, args, kw, result):
    tr.counts["chains.families"] += len(result.families)


# (modules holding the name, attribute, span name, kind, counter hook).
# kind: "span" nests its callees, "leaf" is aggregated per parent,
# "stream" times each step of a returned iterator as a span.
PATCHES = (
    (("structures", "extension"), "canonical_form", "structures.canonical_form", "leaf", _relabelings),
    (("structures", "cli"), "enumerate_selections", "structures.enumerate", "stream", _enumerated),
    (("structures",), "regular_tournaments", "structures.regular_tournaments", "span", None),
    (("structures",), "check_cycle_property", "structures.cycle_check", "leaf", None),
    (("_kernels",), "regular_masks_backtracking", "kernels.backtracking", "leaf",
     _counted("kernels.masks_found", lambda a, r: len(r))),
    (("extension", "cli"), "extend_selection", "extension.extend_selection", "span", None),
    (("extension", "cli"), "partition_types", "extension.partition_types", "span", _partition),
    (("extension", "chains"), "restrict", "extension.restrict", "leaf", None),
    (("obstruction", "cli"), "obstruction_table", "obstruction.table", "span",
     _counted("obstruction.rows", lambda a, r: len(r))),
    (("obstruction",), "prime_obstruction_holds", "obstruction.certificate", "leaf", None),
    (("obstruction",), "search_regular", "obstruction.search", "leaf", None),
    (("vietoris", "cli"), "check_continuity", "vietoris.continuity", "span", None),
    (("vietoris",), "find_preserving_neighborhoods", "vietoris.neighborhoods", "leaf", None),
    (("chains",), "intersect_nonempty", "vietoris.intersect", "leaf", _true("vietoris.overlaps")),
    (("chains", "cli"), "derive_nice_family", "chains.derive", "span", _families),
    (("chains", "cli"), "is_nice", "chains.is_nice", "span", None),
    (("chains", "cli"), "chain_classes", "chains.chain_classes", "span", None),
    (("chains",), "meets_uniquely", "chains.meets", "leaf", _not_none("chains.unique_meets")),
    (("chains", "cli"), "build_selection_from_nice", "chains.build", "span", None),
    (("chains",), "_placement", "chains.placement", "leaf", _not_none("chains.placements")),
    # document I/O of the CLI: parsing and rendering, file reads and writes
    (("cli",), "_load", "documents.read", "span",
     _counted("documents.bytes_in", lambda a, r: os.path.getsize(a[0]))),
    (("cli",), "read_partial", "documents.read", "span", None),
    (("cli",), "read_model", "documents.read", "span", None),
    (("cli",), "read_system", "documents.read", "span", None),
    (("cli",), "write_selection", "documents.write", "leaf", None),
    (("cli",), "write_partial", "documents.write", "span", None),
    (("cli",), "write_system", "documents.write", "span", None),
    (("cli",), "dumps", "documents.write", "span", None),
    (("cli",), "table_tsv", "documents.write", "span", None),
    (("cli",), "_emit", "documents.write", "span",
     _counted("documents.bytes_out", lambda a, r: len(a[0].encode()))),
)


def _wrap(tr, fn, name, kind, after):
    if kind == "leaf":
        def wrapper(*args, **kw):
            start = clock()
            result = fn(*args, **kw)
            tr.leaf(name, start, clock())
            tr.counts[name + ".calls"] += 1
            if after:
                tr.hook(after, args, kw, result)
            return result
    elif kind == "span":
        def wrapper(*args, **kw):
            with tr.span(name):
                result = fn(*args, **kw)
            if after:
                tr.hook(after, args, kw, result)
            return result
    else:
        def wrapper(*args, **kw):
            with tr.span(name):
                items = fn(*args, **kw)
            yielded = 0
            while True:
                with tr.span(name):
                    item = next(items, wrapper)
                if item is wrapper:
                    break
                yielded += 1
                yield item
            if after:
                tr.hook(after, args, kw, yielded)
    return wrapper


@contextmanager
def installed(tr, hs):
    """Wrap every traced attribute; restore the originals on exit.  A name
    a later version no longer has is skipped and reads as zero."""
    tr.hs = hs
    saved = []
    try:
        for modnames, attr, name, kind, after in PATCHES:
            fn = getattr(getattr(hs, modnames[0]), attr, None)
            if fn is None:
                continue
            wrapper = _wrap(tr, fn, name, kind, after)
            for mod in modnames:
                module = getattr(hs, mod)
                if getattr(module, attr, None) is fn:
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def span_file(root, workload, seed):
    out = os.path.join(root, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"trace-{workload}-seed{seed}.jsonl")
