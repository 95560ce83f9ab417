"""Per-layer tracing of one primetop CLI process, installed from outside the package.

Each traced function is replaced, at every module attribute that binds it, by a
wrapper that records one span (name, start, end, parent).  Spans stay in memory
until the process ends; then self times (a span minus the time of its child
spans) and exact counts are written as one JSON object.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter


def _count_cliques(counts, args, result):
    counts["graphs.cliques_calls"] += 1
    counts["graphs.simplices"] += sum(len(dim) for dim in result)


def _count_sphere(counts, args, result):
    counts["topology.sphere_calls"] += 1
    counts["topology.verdicts_" + result.method] += 1


def _count_betti(counts, args, result):
    counts["cohomology.betti_calls"] += 1
    counts["cohomology.betti_gf_only"] += not result.verified_rational


def _counter(name):
    def count(counts, args, result):
        counts[name] += 1
    return count


def _columns(name):
    def count(counts, args, result):
        counts[name] += len(args[0])
    return count


def _cache_hits(counts, args, result):
    counts["cli.cache_hits"] += len(result)


# (span name, module, attribute, counter or None).  A span name with several
# functions sums their self times.
TRACED = (
    ("arithmetic.sieve", "arithmetic", "FactorSieve.__init__", None),
    ("arithmetic.tables", "arithmetic", "mertens_table", None),
    ("arithmetic.tables", "arithmetic", "pi_k_tables", None),
    ("graphs.build", "graphs", "build_graph", None),
    ("graphs.cliques", "graphs", "cliques", _count_cliques),
    ("graphs.induced_subgraph", "graphs", "induced_subgraph", _counter("graphs.induced_subgraph_calls")),
    ("graphs.diameter", "graphs", "verify_component_diameter_bound", None),
    ("topology.sphere", "topology", "sphere_dimension", _count_sphere),
    ("topology.sphere", "topology", "sphere_dimension_within", _count_sphere),
    ("topology.dimension", "topology", "inductive_dimension", _counter("topology.dimension_calls")),
    ("cohomology.whitney", "cohomology", "whitney_complex", None),
    ("cohomology.boundary", "cohomology", "boundary_matrices", None),
    ("cohomology.betti", "cohomology", "betti_numbers", _count_betti),
    ("cohomology.rank_gf", "cohomology", "rank_gf", _columns("cohomology.rank_gf_columns")),
    ("cohomology.rank_exact", "cohomology", "rank_exact", _columns("cohomology.rank_exact_columns")),
    ("cohomology.wu", "cohomology", "wu_characteristic", None),
    ("morse.classify", "morse", "classify_vertex", _counter("morse.classify_calls")),
    ("morse.chi_timeline", "morse", "chi_timeline", _counter("morse.timeline_calls")),
    ("morse.betti_timeline", "morse", "betti_timeline", _counter("morse.timeline_calls")),
    ("morse.critical_counts", "morse", "critical_counts", None),
    ("cli.cache_load", "cli", "_load_cache", _cache_hits),
    ("cli.cache_append", "cli", "_append_cache", None),
    ("cli.main", "cli", "main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TRACED))


class Tracer:
    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def _wrap(self, fn, span_id, count):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each name the package binds it to."""
        modules = [m for name, m in sys.modules.items() if name == "primetop" or name.startswith("primetop.")]
        for name, module_name, attr, count in TRACED:
            module = sys.modules["primetop." + module_name]
            span_id = SPAN_NAMES.index(name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(getattr(cls, method), span_id, count))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, span_id, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def metrics(self) -> dict:
        """Self seconds per span name, the exact counts, and the span count."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            self_s[self.names[i]] += self.ends[i] - self.starts[i] - child[i]
        out = {name + "_s": self_s[k] for k, name in enumerate(SPAN_NAMES)}
        out.update(self.counts)
        out["trace.spans"] = n
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.metrics(), fh)
