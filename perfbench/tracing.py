"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each matroid_forge module from
outside the package.  A wrapped function is replaced in every module that
holds a reference to it, so calls between modules are seen as well as calls
from the benchmark.  Each call records a span (name, start, end, parent,
operation) in memory and adds to per-name call counts and self time, where
self time is the span's duration minus the time covered by its child spans.
A child's whole wrapper, bookkeeping included, counts as child time of its
parent, so the tracer's own cost is charged to no layer's self time.
Spans past `span_cap` are still counted and timed but not stored; they are
counted in `dropped_spans`.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# (module, attribute) pairs; "Class.method" wraps a method on the class
TRACED = {
    "cli": ["dispatch"],
    "files": ["parse_setspec", "parse_setspec_text", "parse_matroid_text",
              "parse_family_text", "parse_tasks_text", "emit_family_text"],
    "core": ["check_base_axioms", "FiniteMatroid.rank", "FiniteMatroid.rank_mask",
             "FiniteMatroid.independent_sets"],
    "truncation": ["truncate_to", "classify_truncation"],
    "gentrunc": ["verify_family", "enumerate_gen_truncations", "verify_family_finitary",
                 "TruncationFamily.build"],
    "templates": ["TemplateSet.__init__", "TemplateSet.union", "TemplateSet.intersection",
                  "TemplateSet.difference", "TemplateSet.issubset", "TemplateSet.select"],
    "finitary": ["certify", "relative_rank", "max_independent_subtemplate", "removal_witness"],
    "equivalence": ["strongly_equivalent", "almost_spans", "find_comparable_pair"],
    "forcing": ["forcing_step", "check_claim_preconditions", "dense_extend_gain",
                "dense_extend_guard", "verify_certificate", "seed_family"],
}
# the finitary schema methods live on the schema classes
SCHEMA_CLASSES = ("FreeMatroid", "PeriodicSumMatroid")


def span_name(module: str, attr: str) -> str:
    """Metric prefix: `templates.TemplateSet` for the constructor, else module.function."""
    cls, _, method = attr.rpartition(".")
    if method == "__init__":
        return f"{module}.{cls}"
    return f"{module}.{method}"


def layer_names() -> list[str]:
    return [span_name(m, a) for m, attrs in TRACED.items() for a in attrs]


class Tracer:
    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.rank_evaluations = 0
        self.dropped_spans = 0
        self.op = 0
        self.stack: list[list[int]] = []  # [child ns, span index] per open call
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        stack = self.stack

        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            index = -1
            if len(self.span_start) < self.span_cap:
                index = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][1] if stack else -1)
                self.span_op.append(self.op)
                self.span_start.append(0)
                self.span_end.append(0)
            else:
                self.dropped_spans += 1
            frame = [0, index]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.calls[nid] += 1
                self.self_ns[nid] += end - start - frame[0]
                if index >= 0:
                    self.span_start[index] = start
                    self.span_end[index] = end
                if stack:  # the parent's child time covers this whole wrapper
                    stack[-1][0] += perf_counter_ns() - entered

        return traced

    def counted_rank(self, fn):
        def counted(matroid, xs):
            self.rank_evaluations += 1
            return fn(matroid, xs)
        return counted

    def install(self) -> None:
        """Patch every traced entry point in all loaded matroid_forge modules."""
        package = [mod for name, mod in sys.modules.items()
                   if name == "matroid_forge" or name.startswith("matroid_forge.")]
        for module, attrs in TRACED.items():
            mod = sys.modules[f"matroid_forge.{module}"]
            for attr in attrs:
                name = span_name(module, attr)
                cls_name, _, fname = attr.rpartition(".")
                if cls_name:
                    self._patch_method(getattr(mod, cls_name), fname, name)
                elif module == "finitary" and fname != "removal_witness":
                    for cls in SCHEMA_CLASSES:
                        self._patch_method(getattr(mod, cls), fname, name)
                else:
                    self._patch_function(package, getattr(mod, fname), name)
        core = sys.modules["matroid_forge.core"]
        for value in list(vars(core).values()):
            if (isinstance(value, type) and issubclass(value, core.FiniteMatroid)
                    and value is not core.FiniteMatroid and "_rank_of" in vars(value)):
                value._rank_of = self.counted_rank(vars(value)["_rank_of"])

    def _patch_method(self, cls, method: str, name: str) -> None:
        """Replace the method and every alias of it (e.g. `__or__ = union`) on the class."""
        original = vars(cls)[method]
        if isinstance(original, classmethod):
            traced = classmethod(self.wrap(name, original.__func__))
        else:
            traced = self.wrap(name, original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, attr, traced)

    def _patch_function(self, package, original, name: str) -> None:
        """Replace the function in every module that imported it."""
        traced = self.wrap(name, original)
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round calls and self time for every traced name, plus the rank-cache ratio."""
        out = {}
        for name in layer_names():
            nid = self.name_id(name)
            out[f"{name}.calls"] = (self.calls[nid] / rounds, "count")
            out[f"{name}.self_ms"] = (self.self_ns[nid] / rounds / 1e6, "ms")
        lookups = self.calls[self.name_id("core.rank_mask")]
        out["core._rank_of.calls"] = (self.rank_evaluations / rounds, "count")
        ratio = 1 - self.rank_evaluations / lookups if lookups else 0.0
        out["core.rank_cache_hit_ratio"] = (ratio, "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\n")

