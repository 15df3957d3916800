"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside the library: each traced function is
replaced by a wrapper in its defining module *and* in every other loaded
``graphconvex`` module that bound it with ``from ... import`` (``theorems``
and ``cli`` do), so no call site is missed.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and op id.  A span's self
time is its duration minus the time covered by its children; spans of one
process nest properly (single thread), so the children's cover is the sum
of their durations.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # Each span: [name, start, end, parent index or -1, op id, child seconds]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} ended out of order")
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = {}
        for name, start, end, _, _, child in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def wrap(tracer: Tracer, name: str, fn, on_result=None):
    """``fn`` inside a span called ``name``; ``on_result(tracer, result)``
    updates counters from the returned value."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return traced


def _count_violation(counter: str):
    def hook(tracer: Tracer, verdict) -> None:
        if not verdict:
            tracer.counters[counter] += 1

    return hook


def _count_classes(tracer: Tracer, graphs) -> None:
    tracer.counters["enumeration.classes"] += len(graphs)


# (defining module, attribute, span name, result hook).  Attributes with a
# dot are methods patched on their class; ``Graph.distance`` is left alone
# because it runs once per pair and a span there would swamp the run.
TARGETS = (
    ("graphconvex.cli", "main", "cli.main", None),
    ("graphconvex.io", "parse_graph", "io.parse", None),
    ("graphconvex.io", "parse_vertex_function", "io.parse", None),
    ("graphconvex.io", "parse_vertex_set", "io.parse", None),
    ("graphconvex.graph", "Graph.__init__", "graph.Graph.init", None),
    ("graphconvex.graph", "Graph._dijkstra", "graph.dijkstra", None),
    ("graphconvex.enumeration", "connected_unit_graphs",
     "enumeration.connected_unit_graphs", _count_classes),
    ("graphconvex.theorems", "exhaustive_small_graph_sweep",
     "theorems.exhaustive_small_graph_sweep", None),
    ("graphconvex.theorems", "verify_degree2_equivalence",
     "theorems.verify_degree2_equivalence", None),
    ("graphconvex.theorems", "search_counterexample",
     "theorems.search_counterexample", None),
    # the other claim verifiers, so their own work is not counted as cli.main's
    *(("graphconvex.theorems", name, "theorems.verifiers", None) for name in (
        "verify_pointwise_implication", "verify_dist_convex_implies_set_convex",
        "verify_nn_implies_dist_midpoint_convex", "verify_dist_to_point_midpoint_convex",
        "sweep_max_affine", "sweep_subsets_dist_convex", "sweep_subsets_nn")),
    ("graphconvex.convexity", "is_convex_at", "convexity.is_convex_at",
     _count_violation("convexity.is_convex_at.violations")),
    ("graphconvex.convexity", "betweenness_closure",
     "convexity.betweenness_closure", None),
    ("graphconvex.convexity", "convex_hull", "convexity.convex_hull", None),
    ("graphconvex.lattice", "is_midpoint_convex_at", "lattice.is_midpoint_convex_at",
     _count_violation("lattice.is_midpoint_convex_at.violations")),
    ("graphconvex.lattice", "has_nearest_neighbor_property",
     "lattice.has_nearest_neighbor_property", None),
    ("graphconvex.lattice", "build_lattice", "lattice.build_lattice", None),
    ("graphconvex.subharmonic", "compare_to_neighborhood_mean",
     "subharmonic.compare_to_neighborhood_mean", None),
)


def install(tracer: Tracer):
    """Wrap every target wherever a ``graphconvex`` module binds it.

    Returns the list of (module name, attribute) pairs that were patched and
    an ``uninstall`` callable restoring the originals.
    """
    modules = {
        name: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "graphconvex" or name.startswith("graphconvex."))
    }
    undo: list[tuple] = []
    patched: list[tuple[str, str]] = []
    for mod_name, attr, span_name, hook in TARGETS:
        owner_mod = modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner_mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, wrap(tracer, span_name, original, hook))
            undo.append((cls, meth, original))
            patched.append((mod_name, attr))
            continue
        original = getattr(owner_mod, attr)
        traced = wrap(tracer, span_name, original, hook)
        for name, mod in modules.items():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    undo.append((mod, key, original))
                    patched.append((name, key))

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return patched, uninstall
