"""Span and counter tracing of gwsym, installed from outside the package.

Every public function of the traced modules is replaced, wherever it is
looked up (the defining module and every gwsym module that imported it by
name), by a wrapper that records a span: name, start, end and the index of
the enclosing span.  The scalar layer (``exact``) is counted, not spanned:
its operations run millions of times.  Spans stay in memory until the run
ends; ``Tracer.metrics`` turns them into the per-layer figures.
"""
from __future__ import annotations

import contextlib
import functools
import random
import sys
import time
import types
from collections import Counter

#: modules whose public functions get spans, by short name
SPAN_MODULES = ("forms", "interaction", "oracle", "cli", "scenario", "report")

#: cli suites reported one by one (zero where a workload does not run them)
SUITES = ("pairing_table", "derive_forms", "gauge", "cancellation", "items",
          "total", "conformal", "orders", "oracle")

#: (class name, method) -> counter; aliases such as __radd__ are separate
#: attributes of the class and are wrapped separately
EXACT_COUNTERS = {
    ("RhoRational", "__add__"): "add", ("RhoRational", "__radd__"): "add",
    ("RhoRational", "__mul__"): "mul", ("RhoRational", "__rmul__"): "mul",
    ("RhoRational", "__truediv__"): "div",
    ("RhoRational", "__rtruediv__"): "div",
    ("RhoRational", "__init__"): "ctor",
    ("RhoPoly", "__mul__"): "poly_mul",
    ("RhoPoly", "__divmod__"): "poly_divmod",
}

#: counters whose operands are sampled for the timed replay
SAMPLED = ("add", "mul", "poly_divmod")
SAMPLE_STRIDE = 509
SAMPLE_SIZE = 48
REPLAY_REPS = 20


class Tracer:
    def __init__(self, seed: int):
        self.spans = []            # (name, start, end, parent index)
        self.stack = []
        self.counts = Counter()
        self.offset = seed % SAMPLE_STRIDE
        self.captured = {key: [] for key in SAMPLED}
        self.seed = seed
        self.evaluators = {}
        self._eval_depth = 0
        self._patches = []

    # -- wrappers --------------------------------------------------------
    def _spanned(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts
        captured = self.captured.get(key)
        offset = self.offset

        @functools.wraps(fn)
        def wrapper(*args):
            n = counts[key] + 1
            counts[key] = n
            if captured is not None and n % SAMPLE_STRIDE == offset:
                captured.append(args)
            return fn(*args)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_item(self, table, key, new):
        self._patches.append((dict.__setitem__, table, key, table[key]))
        table[key] = new

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block (the workload's root)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent)

    # -- installation ----------------------------------------------------
    def install(self):
        from gwsym import exact, interaction, report
        package = [m for n, m in sys.modules.items()
                   if n.startswith("gwsym.") and isinstance(m, types.ModuleType)]
        for short in SPAN_MODULES:
            module = sys.modules[f"gwsym.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._spanned(self._span_name(short, attr), fn,
                                        self._on_result(short, attr))
                for other in package:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, name, wrapper)
                        elif isinstance(value, dict):
                            # dispatch tables such as cli.SUITES
                            for key, entry in list(value.items()):
                                if entry is fn:
                                    self._patch_item(value, key, wrapper)
        for (cls_name, attr), key in EXACT_COUNTERS.items():
            cls = getattr(exact, cls_name)
            self._patch(cls, attr, self._counted(key, vars(cls)[attr]))
        for attr in ("to_machine", "to_text"):
            self._patch(report.Report, attr, self._spanned(
                "report.render", vars(report.Report)[attr]))
        self._patch(interaction.Evaluator, "eval",
                    self._traced_eval(interaction.Evaluator.eval))

    def uninstall(self):
        while self._patches:
            put, owner, attr, original = self._patches.pop()
            put(owner, attr, original)

    @staticmethod
    def _span_name(short, attr):
        if (short, attr) == ("oracle", "interaction_total_jet"):
            def name(args, kwargs):
                exact = kwargs.get("exact", args[2] if len(args) > 2 else False)
                return "oracle.exact_jet" if exact else "oracle.float_jet"
            return name
        return f"{short}.{attr}"

    def _on_result(self, short, attr):
        if (short, attr) != ("forms", "symbol_outer_of_form"):
            return None
        counts = self.counts

        def count_outer(result):
            counts["outer_terms"] += len(result[0])
        return count_outer

    def _traced_eval(self, original):
        """Count every call and cache hit; span top-level calls only."""
        tracer = self
        counts = self.counts
        spanned = self._spanned("interaction.eval", original)

        def wrapper(ev, ast):
            counts["eval_calls"] += 1
            if ast in ev.cache:
                counts["eval_hits"] += 1
            if tracer._eval_depth:
                return original(ev, ast)
            tracer.evaluators[id(ev)] = ev
            tracer._eval_depth += 1
            try:
                return spanned(ev, ast)
            finally:
                tracer._eval_depth -= 1
        return wrapper

    # -- summaries -------------------------------------------------------
    def replay_exact(self) -> dict:
        """Time the sampled scalar operations with tracing removed (us/op)."""
        rng = random.Random(self.seed)
        ops = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b,
               "poly_divmod": divmod}
        out = {}
        for key in SAMPLED:
            pool = self.captured[key]
            sample = rng.sample(pool, min(SAMPLE_SIZE, len(pool)))
            op = ops[key]
            if not sample:
                out[key] = 0.0
                continue
            start = time.perf_counter()
            for args in sample:
                for _ in range(REPLAY_REPS):
                    op(*args)
            elapsed = time.perf_counter() - start
            out[key] = elapsed / (len(sample) * REPLAY_REPS) * 1e6
        return out

    def metrics(self) -> dict:
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        self_time = Counter()
        inclusive = Counter()
        calls = Counter()
        for idx, (name, start, end, parent) in enumerate(spans):
            module = name.split(".", 1)[0]
            self_time[module] += end - start - children[idx]
            calls[name] += 1
            if not self._nested_in_same(idx):
                inclusive[name] += end - start
        c = self.counts
        m = {}
        for key in ("add", "mul", "div", "ctor", "poly_mul", "poly_divmod"):
            m[f"exact.{key}_calls"] = (c[key], "count")
        m["forms.symbol_outer_calls"] = (calls["forms.symbol_outer_of_form"],
                                         "count")
        m["forms.symbol_outer_s"] = (inclusive["forms.symbol_outer_of_form"],
                                     "s")
        m["forms.outer_terms"] = (c["outer_terms"], "count")
        m["forms.matrix_of_outer_s"] = (inclusive["forms.matrix_of_outer"], "s")
        m["forms.self_s"] = (self_time["forms"], "s")
        m["interaction.eval_s"] = (inclusive["interaction.eval"], "s")
        m["interaction.eval_calls"] = (c["eval_calls"], "count")
        m["interaction.cache_hit_ratio"] = (
            c["eval_hits"] / c["eval_calls"] if c["eval_calls"] else 0.0,
            "ratio")
        m["interaction.cache_nodes"] = (
            sum(len(ev.cache) for ev in self.evaluators.values()), "count")
        m["interaction.total_symbol_s"] = (
            inclusive["interaction.total_symbol"], "s")
        m["interaction.total_symbol_calls"] = (
            calls["interaction.total_symbol"], "count")
        m["interaction.item_value_s"] = (inclusive["interaction.item_value"],
                                         "s")
        m["interaction.classify_s"] = (
            inclusive["interaction.classify_rho40_terms"], "s")
        m["interaction.self_s"] = (self_time["interaction"], "s")
        m["oracle.exact_jet_s"] = (inclusive["oracle.exact_jet"], "s")
        m["oracle.exact_jet_calls"] = (calls["oracle.exact_jet"], "count")
        m["oracle.float_jet_s"] = (inclusive["oracle.float_jet"], "s")
        m["oracle.float_term_s"] = (inclusive["oracle.eval_ast_float"], "s")
        m["oracle.self_s"] = (self_time["oracle"], "s")
        for suite in SUITES:
            m[f"cli.suite_{suite}_s"] = (inclusive[f"cli.suite_{suite}"], "s")
        m["cli.self_s"] = (self_time["cli"], "s")
        m["scenario.load_s"] = (inclusive["scenario.load_scenario"], "s")
        m["report.render_s"] = (inclusive["report.render"], "s")
        m["bench.self_s"] = (self_time["bench"], "s")
        m["trace.spans"] = (len(spans), "count")
        return m

    def _nested_in_same(self, idx) -> bool:
        name, _, _, parent = self.spans[idx]
        while parent >= 0:
            pname, _, _, parent_next = self.spans[parent]
            if pname == name:
                return True
            parent = parent_next
        return False
