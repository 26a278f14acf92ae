"""Span tracer that times marginforge's layers from outside the package.

``Tracer.install`` rebinds each traced function to a timing wrapper in
every ``marginforge`` module that holds it: the defining module and each
module that imported it with ``from .x import y``.  Without the second
part, calls such as ``boosting`` -> ``best_stump`` would bypass the
wrapper.  Methods are rebound on their class.  ``uninstall`` restores
every original binding.

A span records its name, start, end and the index of its parent span, so
a layer's self time is its duration minus the time its child spans
cover.  Spans stay in memory until ``drain`` folds them into per-layer
totals; the benchmark drains after each fit to keep memory bounded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" rebinds on the class
LAYERS = [
    ("stumps.query", "marginforge.stumps", "best_stump"),
    ("stumps.pool_build", "marginforge.stumps", "StumpPool.build"),
    ("lp.solve", "marginforge.lp", "solve_edge_min"),
    ("entropy.projection", "marginforge.entropy", "capped_entropy_projection"),
    ("entropy.objective", "marginforge.entropy", "smoothed_conjugate"),
    ("entropy.objective", "marginforge.entropy", "capped_min_linear"),
    ("fw.step", "marginforge.fw", "classic_step"),
    ("fw.step", "marginforge.fw", "short_step"),
    ("fw.step", "marginforge.fw", "line_search_step"),
    ("fw.step", "marginforge.fw", "pairwise_step"),
    ("boosting.secondary", "marginforge.boosting", "secondary_lpboost"),
    ("boosting.secondary", "marginforge.boosting", "secondary_erlpboost"),
    ("core.margins", "marginforge.core", "margins"),
    ("core.gain_matrix", "marginforge.core", "GainMatrix.with_column"),
    ("core.gain_matrix", "marginforge.core", "GainMatrix.as_array"),
    ("cli.load_dataset", "marginforge.cli", "load_dataset"),
]


class LayerStats:
    """Totals of one span name: call count, summed duration and self time (ns)."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_stumps: set = set()
        self._fit_columns = 0

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def drain(self):
        """Fold recorded spans into the totals and clear them.

        Also closes the current fit for the per-fit counters (columns
        reached, stumps already seen).
        """
        if self._stack:
            raise RuntimeError("drain called inside an open span")
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            stats = self.stats[name]
            stats.calls += 1
            stats.total_ns += end - start
            stats.self_ns += end - start - child_ns[i]
            if name == "entropy.projection" and parent >= 0 and spans[parent][0] == "fw.step":
                self.counters["fw.step.projections"] += 1
        spans.clear()
        self.counters["core.gain_matrix.columns"] += self._fit_columns
        self._fit_columns = 0
        self._seen_stumps.clear()

    # -- outcome hooks ---------------------------------------------------

    def _on_stump(self, result):
        stump = result[0]
        if stump not in self._seen_stumps:
            self._seen_stumps.add(stump)
            self.counters["stumps.query.new_columns"] += 1

    def _on_fw_step(self, outcome):
        if outcome.good_step:
            self.counters["fw.good_steps"] += 1

    def _on_with_column(self, result):
        self._fit_columns = max(self._fit_columns, result[0].t)

    # -- rebinding -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "best_stump": self._on_stump,
            "classic_step": self._on_fw_step,
            "short_step": self._on_fw_step,
            "line_search_step": self._on_fw_step,
            "pairwise_step": self._on_fw_step,
            "GainMatrix.with_column": self._on_with_column,
        }
        modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "marginforge"]
        for name, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw, hooks.get(attr))
                self._patches.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hooks.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
