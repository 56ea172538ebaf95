"""Timing wrappers installed from outside the program, and the per-layer
metrics computed from the spans they record.

A wrapper replaces a public function (or method) of an orbiquint module
and, because modules bind names with ``from .x import y`` and keep
functions in dispatch dicts, also every other reference to the same
function object found in the package's module namespaces.  Each call
records a span [name, start, end, parent span, op id] in memory; the
benchmark writes them out when the run ends.  Self time is a span's
duration minus the part covered by its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute path, span name).  A dotted attribute path names a
# method on a class of that module.  Some targets have no metric of their
# own; they are wrapped so that their time is not counted as self time of
# the function that calls them.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "verify_golden", "cli.verify_golden"),
    ("cli", "gen_table1_tsv", "cli.gen_table1_tsv"),
    ("cli", "gen_table2_tsv", "cli.gen_table2_tsv"),
    ("cli", "gen_table3_tsv", "cli.gen_table3_tsv"),
    ("cli", "gen_theorem_json", "cli.gen_theorem_json"),
    ("cli", "gen_c1_models_json", "cli.gen_c1_models_json"),
    ("cli", "gen_c2_models_json", "cli.gen_c2_models_json"),
    ("cli", "gen_diagram_txt", "cli.gen_diagram_txt"),
    ("classify", "table1", "classify.table1"),
    ("classify", "enumerate_c1_models", "classify.enumerate_c1_models"),
    ("classify", "enumerate_c2_models", "classify.enumerate_c2_models"),
    ("classify", "LocalModelEntry.validate", "classify.validate"),
    ("classify", "classify_type_1_5", "classify.classify_type_1_5"),
    ("classify", "classify_type_6", "classify.classify_type_6"),
    ("classify", "classify_type_7", "classify.classify_type_7"),
    ("classify", "classify_type_8", "classify.classify_type_8"),
    ("classify", "theorem_divisors", "classify.theorem_divisors"),
    ("classify", "component_genus", "classify.component_genus"),
    ("classify", "component_genus_adjunction", "classify.component_genus_adjunction"),
    ("resolve", "contract_minus_ones", "resolve.contract_minus_ones"),
    ("resolve", "build_coarse_fiber_config", "resolve.build_coarse_fiber_config"),
    ("resolve", "hj_expand", "resolve.hj_expand"),
    ("resolve", "hj_reconstruct", "resolve.hj_reconstruct"),
    ("resolve", "config_isomorphic", "resolve.config_isomorphic"),
    ("covergraphs", "enumerate_boundary_types", "covergraphs.enumerate_boundary_types"),
    ("covergraphs", "complete_redundant", "covergraphs.complete_redundant"),
    ("covergraphs", "CoverGraph.to_json", "covergraphs.to_json"),
    ("covergraphs", "check_cover", "covergraphs.check_cover"),
    ("covergraphs", "perturbations", "covergraphs.perturbations"),
    ("recillas", "tetragonal_to_trigonal", "recillas.tetragonal_to_trigonal"),
    ("recillas", "fix_counts", "recillas.fix_counts"),
    ("parity", "section_parity", "parity.section_parity"),
    ("orbiscroll", "coarse_singularities", "orbiscroll.coarse_singularities"),
    ("orbiscroll", "tetragonal_branch_relation", "orbiscroll.tetragonal_branch_relation"),
]

# The per-layer metrics of a traced run, in BENCHMARK.json order.
PER_LAYER = [
    ("import.orbiquint_ms", "ms"),
    ("import.bare_python_ms", "ms"),
    ("import.modules_loaded", "count"),
    ("cli.main_ms", "ms/call"),
    ("cli.verify_golden_ms", "ms/call"),
    ("cli.gen_theorem_json_ms", "ms/call"),
    ("cli.gen_c2_models_json_ms", "ms/call"),
    ("cli.gen_table1_tsv_ms", "ms/call"),
    ("cli.output_bytes", "B/op"),
    ("classify.table1.calls", "count/op"),
    ("classify.table1.self_ms", "ms/op"),
    ("classify.enumerate_c2_models.calls", "count/op"),
    ("classify.enumerate_c2_models.self_ms", "ms/op"),
    ("classify.validate.useful_ratio", "ratio"),
    ("classify.classify_type_7.self_ms", "ms/op"),
    ("classify.theorem_divisors.self_ms", "ms/op"),
    ("resolve.contract_minus_ones.calls", "count/op"),
    ("resolve.contract_minus_ones.self_ms", "ms/op"),
    ("resolve.build_coarse_fiber_config.self_ms", "ms/op"),
    ("resolve.hj_expand.self_ms", "ms/op"),
    ("resolve.config_isomorphic.calls", "count/op"),
    ("resolve.config_isomorphic.self_ms", "ms/op"),
    ("resolve.config_isomorphic.noniso_ms.v6", "ms"),
    ("resolve.config_isomorphic.noniso_ms.v7", "ms"),
    ("resolve.config_isomorphic.noniso_ms.v8", "ms"),
    ("resolve.config_isomorphic.noniso_ms.v9", "ms"),
    ("covergraphs.enumerate_boundary_types.ms_per_graph.d3", "ms/graph"),
    ("covergraphs.enumerate_boundary_types.ms_per_graph.d4", "ms/graph"),
    ("covergraphs.enumerate_boundary_types.ms_per_graph.d5", "ms/graph"),
    ("covergraphs.enumerate_boundary_types.ms_per_graph.d6", "ms/graph"),
    ("covergraphs.complete_redundant.calls", "count/op"),
    ("covergraphs.complete_redundant.self_ms", "ms/op"),
    ("covergraphs.components_built", "count/op"),
    ("covergraphs.redundant_share", "ratio"),
    ("covergraphs.to_json.self_ms", "ms/op"),
    ("covergraphs.to_json.bytes", "B/op"),
    ("covergraphs.check_cover.calls", "count/op"),
    ("covergraphs.check_cover.self_ms", "ms/op"),
    ("covergraphs.check_cover.reject_ratio", "ratio"),
    ("covergraphs.perturbations.self_ms", "ms/op"),
    ("recillas.tetragonal_to_trigonal.calls", "count/op"),
    ("recillas.tetragonal_to_trigonal.self_ms", "ms/op"),
    ("recillas.fix_counts.self_ms", "ms/op"),
    ("parity.section_parity.calls", "count/op"),
    ("parity.section_parity.self_ms", "ms/op"),
    ("orbiscroll.coarse_singularities.self_ms", "ms/op"),
    ("orbiscroll.tetragonal_branch_relation.calls", "count/op"),
    ("orbiscroll.tetragonal_branch_relation.self_ms", "ms/op"),
    ("trace.overhead_frac", "ratio"),
]


class Tracer:
    """Span recorder.  Spans are lists [name, start, end, parent, op]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.validated: set = set()
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def begin_op(self, name: str) -> None:
        self.op += 1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, -1, self.op])

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrapper(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ------------------------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def text_bytes(args, result):
            counts["cli.output_bytes"] += len(result)

        def validated(args, result):
            e = args[0]
            self.validated.add((e.family, e.label, e.param))

        def completed(args, result):
            counts["covergraphs.components_built"] += len(result.components)
            counts["covergraphs.redundant"] += sum(
                1 for c in result.components if c.redundant)

        def json_bytes(args, result):
            counts["covergraphs.to_json.bytes"] += len(result)

        def checked(args, result):
            counts["covergraphs.check_cover.rejects"] += bool(result)

        hooks = {name: text_bytes for mod, attr, name in TARGETS
                 if mod == "cli" and attr.startswith("gen_")}
        hooks.update({
            "classify.validate": validated,
            "covergraphs.complete_redundant": completed,
            "covergraphs.to_json": json_bytes,
            "covergraphs.check_cover": checked,
        })
        return hooks

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "orbiquint" or k.startswith("orbiquint."))]
        for modname, path, name in TARGETS:
            owner = sys.modules[f"orbiquint.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self._wrapper(orig, name, hooks.get(name))
            self._set(owner, attr, wrapped)
            if cls_path:
                continue
            # Rebind names other modules took with `from ... import`, and
            # functions held in module-level dicts (dispatch tables).
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig and mod is not owner:
                        self._set(mod, key, wrapped)
                    elif type(val) is dict:
                        for dk, dv in list(val.items()):
                            if dv is orig:
                                self._set_item(val, dk, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, d, key, value) -> None:
        self._undo.append((dict.__setitem__, d, key, d[key]))
        d[key] = value

    def uninstall(self) -> None:
        while self._undo:
            fn, owner, key, old = self._undo.pop()
            fn(owner, key, old)

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            s["calls"] += 1
            s["total"] += end - start
            s["self"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            fh.write("# names: " + " ".join(names) + "\n")
            fh.write("# name_index start end parent op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{index[name]} {start:.9f} {end:.9f} {parent} {op}\n")


def layer_metrics(tracer: Tracer, ops: int, probes: dict, overhead: float) -> dict:
    """Every PER_LAYER metric from a traced phase of `ops` operations plus
    the untraced probes (import, scaling curves) and the overhead ratio."""
    s = tracer.summary()
    c = tracer.counts
    ops = max(ops, 1)

    def calls(name):
        return s.get(name, {}).get("calls", 0) / ops

    def self_ms(name):
        return s.get(name, {}).get("self", 0.0) * 1000 / ops

    def per_call_ms(name):
        st = s.get(name)
        return st["total"] * 1000 / st["calls"] if st else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    built = c["covergraphs.components_built"]
    values = dict(probes)
    values.update({
        "cli.main_ms": per_call_ms("cli.main"),
        "cli.verify_golden_ms": per_call_ms("cli.verify_golden"),
        "cli.gen_theorem_json_ms": per_call_ms("cli.gen_theorem_json"),
        "cli.gen_c2_models_json_ms": per_call_ms("cli.gen_c2_models_json"),
        "cli.gen_table1_tsv_ms": per_call_ms("cli.gen_table1_tsv"),
        "cli.output_bytes": c["cli.output_bytes"] / ops,
        "classify.validate.useful_ratio": ratio(
            len(tracer.validated), s.get("classify.validate", {}).get("calls", 0)),
        "covergraphs.components_built": built / ops,
        "covergraphs.redundant_share": ratio(c["covergraphs.redundant"], built),
        "covergraphs.to_json.bytes": c["covergraphs.to_json.bytes"] / ops,
        "covergraphs.check_cover.reject_ratio": ratio(
            c["covergraphs.check_cover.rejects"],
            s.get("covergraphs.check_cover", {}).get("calls", 0)),
        "trace.overhead_frac": overhead,
    })
    for name, _ in PER_LAYER:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        values[name] = calls(span) if kind == "calls" else self_ms(span)
    return {name: values[name] for name, _ in PER_LAYER}
