"""Per-layer tracing for the fszd benchmark.

Spans are recorded by the benchmark's own wrappers around the public
functions of each layer; nothing inside ``fszd`` changes.  A wrapper
replaces every binding of the function in every ``fszd`` module, because
modules call each other through names imported at load time (``indicators``
imports ``centralizer``, ``conjugator``, ``rational_classes``,
``character_table`` and ``class_mult_coeff`` by name, and the table
self-check calls the module-global ``inner_product``).

Spans are aggregated per layer as they close instead of being kept: a pass
opens up to 0.8 million ``Cyclotomic`` spans.  A layer's self time is its
spans' time minus the time of the spans opened inside them; time inside an
operation that no layer span covers is reported as ``unattributed``.
"""
from __future__ import annotations

import sys
import time

# The layer names, in pipeline order; LAYER_METRICS in run.py lists the
# metrics reported for each.
LAYERS = (
    "permcore.chain",
    "permcore.classes",
    "permcore.centralizer",
    "permcore.conjugator",
    "permcore.rational_classes",
    "chartab.table",
    "chartab.inner_product",
    "chartab.class_mult_coeff",
    "cyclotomic.ops",
    "indicators.gamma",
    "indicators.mate",
    "indicators.mu",
    "indicators.nu",
    "indicators.beta",
    "report",
    "unattributed",
)

# Workloads on which each layer must record calls.  These are the workloads
# whose end-to-end metrics the layer is expected to move; a layer with no
# calls there means a binding the program calls through was not wrapped.
EXPECTED_CALLS = {
    "permcore.chain": ("sweep-nonabelian", "sweep-abelian", "fsz-decide", "gamma-queries"),
    "permcore.classes": ("sweep-nonabelian", "fsz-decide", "gamma-queries"),
    "permcore.centralizer": ("sweep-nonabelian", "sweep-abelian", "gamma-queries"),
    "permcore.conjugator": ("sweep-nonabelian",),
    "permcore.rational_classes": ("fsz-decide",),
    "chartab.table": ("sweep-nonabelian", "sweep-abelian"),
    "chartab.inner_product": ("sweep-abelian", "fsz-decide"),
    "chartab.class_mult_coeff": ("gamma-queries",),
    "cyclotomic.ops": ("sweep-abelian", "fsz-decide"),
    "indicators.gamma": ("sweep-nonabelian", "gamma-queries"),
    "indicators.mate": ("sweep-nonabelian",),
    "indicators.mu": ("sweep-nonabelian",),
    "indicators.nu": ("sweep-nonabelian",),
    "indicators.beta": ("fsz-decide",),
    "report": ("sweep-nonabelian",),
}

_CYCLOTOMIC_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "galois",
    "abs_squared",
)


class LayerStats:
    __slots__ = ("calls", "self_s", "total_s", "depth", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # outermost spans only, so recursion is not double counted
        self.depth = 0
        self.counters: dict[str, int] = {}

    def add(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n


class Tracer:
    """Wraps fszd's layer functions for one traced pass.

    Use ``install()`` before the pass and ``uninstall()`` after it; call
    ``finish()`` once the wrappers are gone to derive the counts that need
    the program (distinct subgroups by element set).
    """

    def __init__(self, fszd_module):
        self.fszd = fszd_module
        self.layers = {name: LayerStats() for name in LAYERS}
        self.op_id = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._centralizers: list[tuple] = []
        self._tables: list[tuple] = []
        self._mates: set[tuple] = set()

    # -- spans ---------------------------------------------------------------

    def _span(self, layer: str, fn, before=None, after=None):
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if stats.depth == 0:
                    stats.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(state, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, fn):
        """Run one operation as a root span; its self time is unattributed."""
        self.op_id += 1
        return self._span("unattributed", fn)()

    def exclude(self, seconds: float) -> None:
        """Keep time the benchmark spent inside the open span out of its
        self time (the calibration loops of run.Speed)."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- wiring ----------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> int:
        hits = 0
        for name, module in list(sys.modules.items()):
            if name != "fszd" and not name.startswith("fszd."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
                    hits += 1
        return hits

    def _wrap_function(self, module, name: str, layer: str, before=None, after=None) -> None:
        original = getattr(module, name)
        if not self._replace_everywhere(original, self._span(layer, original, before, after)):
            raise RuntimeError(f"no binding of {name} found")

    def _wrap_method(self, cls, name: str, layer: str, before=None, after=None) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self._span(layer, original, before, after))

    def _count_only(self, module, name: str, on_result) -> None:
        original = getattr(module, name)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            on_result(result)
            return result

        if not self._replace_everywhere(original, counted):
            raise RuntimeError(f"no binding of {name} found")

    def install(self) -> None:
        f = self.fszd
        permcore, chartab, cyclotomic, indicators = f.permcore, f.chartab, f.cyclotomic, f.indicators
        L = self.layers

        self._wrap_method(permcore.Group, "chain", "permcore.chain")
        self._wrap_method(
            permcore.Group,
            "elements",
            "permcore.classes",
            before=lambda args: args[0]._elements is None,
            after=lambda cold, args, res: cold and L["permcore.classes"].add("elements", len(res)),
        )
        self._wrap_method(permcore.Group, "conjugacy_classes", "permcore.classes")
        self._wrap_function(
            permcore,
            "centralizer",
            "permcore.centralizer",
            after=lambda _s, args, res: self._centralizers.append((self.op_id, res.degree, res.generators)),
        )
        self._wrap_function(permcore, "conjugator", "permcore.conjugator")
        self._wrap_function(permcore, "rational_classes", "permcore.rational_classes")

        def table_built(cold, args, res):
            if cold:
                L["chartab.table"].add("built")
                L["chartab.table"].add("classes_sum", len(res.classes))
                self._tables.append((self.op_id, res.group.degree, res.group.generators))

        self._wrap_function(
            chartab,
            "character_table",
            "chartab.table",
            before=lambda args: args[0]._chartab is None,
            after=table_built,
        )
        self._wrap_function(chartab, "inner_product", "chartab.inner_product")
        self._wrap_function(chartab, "class_mult_coeff", "chartab.class_mult_coeff")

        for op in _CYCLOTOMIC_OPS:
            self._wrap_method(cyclotomic.Cyclotomic, op, "cyclotomic.ops")

        self._wrap_method(indicators.Session, "gamma_vector", "indicators.gamma")
        self._count_only(
            indicators,
            "reduce_gamma_params",
            lambda red: L["indicators.gamma"].add(red.kind),
        )
        self._wrap_method(
            indicators.Session,
            "mate",
            "indicators.mate",
            after=lambda _s, args, res: self._mates.add((self.op_id, args[1], args[2])),
        )
        self._wrap_method(indicators.Session, "mu", "indicators.mu")
        self._wrap_function(indicators, "nu", "indicators.nu")
        self._wrap_function(indicators, "beta", "indicators.beta")
        self._wrap_function(cyclotomic, "rationality", "report")
        self._wrap_method(
            indicators.IndicatorReport,
            "to_json",
            "report",
            after=lambda _s, args, res: L["report"].add("bytes", len(res.encode())),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def finish(self) -> None:
        """Derive distinct-subgroup counts; call after ``uninstall``."""
        Group = self.fszd.Group

        def distinct(records) -> int:
            return len({(op, frozenset(Group(deg, gens).elements())) for op, deg, gens in records})

        self.layers["permcore.centralizer"].counters["distinct"] = distinct(self._centralizers)
        self.layers["chartab.table"].counters["distinct"] = distinct(self._tables)
        self.layers["indicators.mate"].counters["distinct"] = len(self._mates)

    def missing_calls(self, workload: str) -> list[str]:
        """Layers expected to run on this workload that recorded no call."""
        return [
            layer
            for layer, workloads in EXPECTED_CALLS.items()
            if workload in workloads and self.layers[layer].calls == 0
        ]
