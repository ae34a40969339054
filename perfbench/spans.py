"""Spans around relgraph's public functions, recorded from outside the library.

``Tracer.install()`` wraps every public function of each relgraph module
(plus ``cli._emit``, ``Relation.compose`` and the cached
``neighbor_union_table``) and rebinds the wrapper wherever the original is
bound: the defining module, every ``from ... import`` of it in the other
relgraph modules, and the package namespace. Functions bound inside
``lru_cache`` objects at import time (the solver's memoised invariants)
cannot be reached this way; their cost stays inside their caller's span.

Spans stay in memory as ``[trace, id, parent, name, start_ns, end_ns]``;
``trace`` names the operation that caused them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "io", "solver", "algebra", "equivalence", "retract", "core", "generate")
PRIVATE_WRAPPED = {("cli", "_emit")}

# Per-layer metrics and the spans behind them. "incl" sums the outermost
# spans of the named functions, "self" subtracts the time of traced child
# spans, "calls" counts spans.
SPAN_METRICS = {
    "cli.main_s": ("incl", ["cli.main"]),
    "cli.emit_s": ("incl", ["cli._emit"]),
    "io.relation_to_json_s": ("incl", ["io.relation_to_json"]),
    "io.relation_to_json_calls": ("calls", ["io.relation_to_json"]),
    "io.parse_s": ("incl", ["io.parse_graph", "io.parse_relation"]),
    "solver.solve_s": ("incl", ["solver.solve"]),
    "solver.solve_calls": ("calls", ["solver.solve"]),
    "solver.solve_self_s": ("self", ["solver.solve"]),
    "solver.certify_s": ("incl", ["solver.certify"]),
    "solver.certify_calls": ("calls", ["solver.certify"]),
    "algebra.apply_strong_s": ("incl", ["algebra.apply_strong"]),
    "algebra.apply_strong_calls": ("calls", ["algebra.apply_strong"]),
    "algebra.nbr_table_s": ("incl", ["algebra.neighbor_union_table"]),
    "equivalence.rcore_with_witness_s": ("incl", ["equivalence.rcore_with_witness"]),
    "equivalence.rcore_self_s": ("self", ["equivalence.rcore_with_witness"]),
    "equivalence.weakly_equivalent_s": ("incl", ["equivalence.weakly_equivalent"]),
    "equivalence.strongly_equivalent_s": ("incl", ["equivalence.strongly_equivalent"]),
    "equivalence.thin_quotient_s": ("incl", ["equivalence.thin_quotient"]),
    "equivalence.find_isomorphism_s": ("incl", ["equivalence.find_isomorphism"]),
    "retract.cocore_with_witness_s": ("incl", ["retract.cocore_with_witness"]),
    "retract.graph_core_with_witness_s": ("incl", ["retract.graph_core_with_witness"]),
    "core.induced_subgraph_s": ("incl", ["core.induced_subgraph"]),
    "core.induced_subgraph_calls": ("calls", ["core.induced_subgraph"]),
    "core.compose_s": ("incl", ["core.Relation.compose"]),
    "core.compose_calls": ("calls", ["core.Relation.compose"]),
}
# Measured over the input generation, which belongs to set-up.
SETUP_METRICS = {
    "generate.all_graphs_s": ("incl", ["generate.all_graphs_up_to", "generate.all_graphs"]),
}
# Measured over a separate drain of iter_solutions on the enumerate instances.
ITER_METRICS = {"solver.iter_solutions_s": ("incl", ["solver.iter_solutions"])}
# Counted by observing return values rather than spans.
COUNTER_METRICS = (
    "solver.certificates", "solver.budget_exhausted", "solver.solutions",
    "algebra.nbr_table_builds", "algebra.nbr_table_entries", "algebra.nbr_table_cached",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, Counter] = defaultdict(Counter)  # per trace
        self.trace = "setup"
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # Covers creation to exhaustion; not pushed on the stack, since
            # the consumer runs between the generator's steps.
            def gen_wrapper(*args, **kwargs):
                rec = [self.trace, len(spans), stack[-1] if stack else -1, name, clock(), 0]
                spans.append(rec)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    rec[5] = clock()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [self.trace, sid, stack[-1] if stack else -1, name, 0, 0]
            spans.append(rec)
            stack.append(sid)
            rec[4] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _observe_solve(self, args, out):
        result, cert = out
        counters = self.counters[self.trace]
        counters["solver.solutions"] += len(result.solutions)
        counters["solver.certificates"] += cert is not None
        counters["solver.budget_exhausted"] += not result.complete

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"relgraph.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and (layer, attr) not in PRIVATE_WRAPPED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if hasattr(obj, "cache_info"):
                    wrapper = self._wrap_cached(name, obj)
                elif inspect.isfunction(obj):
                    observe = self._observe_solve if name == "solver.solve" else None
                    wrapper = self._wrap(name, obj, observe)
                else:
                    continue
                wrapped[id(obj)] = wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "relgraph" and not mod_name.startswith("relgraph."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        relation = modules["core"].Relation
        relation.compose = self._wrap("core.Relation.compose", relation.compose)

    def _wrap_cached(self, name: str, cached):
        """Also counts table builds (cache misses), their entries, and hits."""
        inner = self._wrap(name, cached)

        def wrapper(*args):
            misses = cached.cache_info().misses
            out = inner(*args)
            counters = self.counters[self.trace]
            if cached.cache_info().misses > misses:
                counters["algebra.nbr_table_builds"] += 1
                counters["algebra.nbr_table_entries"] += len(out)
            else:
                counters["algebra.nbr_table_cached"] += 1
            return out

        return wrapper

    def summary(self, traces, metrics=SPAN_METRICS) -> dict:
        """Per-layer metrics over the spans of the given traces."""
        spans = self.spans
        by_name = defaultdict(list)
        child_time = defaultdict(int)
        for s in spans:
            if s[0] in traces:
                by_name[s[3]].append(s)
                if s[2] >= 0:
                    child_time[s[2]] += s[5] - s[4]
        out = {}
        for metric, (how, names) in metrics.items():
            chosen = [s for name in names for s in by_name[name]]
            if how == "calls":
                out[metric] = len(chosen)
                continue
            total = 0
            for s in chosen:
                if how == "self":
                    total += s[5] - s[4] - child_time[s[1]]
                    continue
                parent = s[2]
                while parent >= 0 and spans[parent][3] not in names:
                    parent = spans[parent][2]
                if parent < 0:
                    total += s[5] - s[4]
            out[metric] = total / 1e9
        if metrics is SPAN_METRICS:
            for metric in COUNTER_METRICS:
                out[metric] = sum(self.counters[t][metric] for t in traces)
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON: a name table plus one row per span."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], s[1], s[2], index[s[3]], s[4], s[5]] for s in self.spans]
        doc = {"columns": ["trace", "id", "parent", "name", "start_ns", "end_ns"],
               "names": names, "spans": rows}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
