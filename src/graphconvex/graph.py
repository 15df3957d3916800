"""Finite undirected graphs with positive edge weights and shortest-path distances."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from .extreal import DEFAULT_TOL

Vertex = Hashable
Weight = int | float


class UnknownVertexError(ValueError):
    """A vertex id that is not part of the graph or metric at hand."""

    def __init__(self, vertex):
        super().__init__(f"unknown vertex: {vertex!r}")
        self.vertex = vertex


def sort_vertices(vertices: Iterable) -> list:
    """Deterministic vertex order: natural sort, with a typed-repr fallback
    so that graphs mixing id types still get a stable order."""
    out = list(vertices)
    try:
        out.sort()
    except TypeError:
        out.sort(key=lambda v: (type(v).__name__, repr(v)))
    return out


@dataclass(frozen=True)
class Metric:
    """Distance oracle over a fixed, deterministically ordered vertex universe.

    ``kind`` is ``"shortest-path"`` for graph metrics and ``"norm-induced"``
    for lattice norms.  ``tol`` is the relative tolerance used by every
    comparison downstream of this metric.  ``distances_from``, when set,
    maps a vertex x to a mapping of the finite distances from x (missing =
    +inf); the engine then fills a whole distance row from one such mapping
    instead of calling ``dist`` once per entry.  It takes no part in
    equality.  ``_betweenness`` holds the metric's engine from
    :mod:`graphconvex.convexity`, built on first use, so its distance rows
    live exactly as long as the metric does.
    """

    kind: str
    vertices: tuple
    dist: Callable[[Any, Any], Weight]
    tol: float = DEFAULT_TOL
    distances_from: Callable[[Any], Mapping] | None = field(
        default=None, compare=False, repr=False
    )
    _betweenness: Any = field(default=None, init=False, compare=False, repr=False)


class Graph:
    """Immutable undirected graph over hashable vertex ids.

    Edges carry strictly positive finite weights (default 1).  Self-loops
    and duplicate edges are rejected.  Unit-weight graphs keep all distance
    arithmetic in exact ints; any float weight switches that source's
    distances to floats.
    """

    def __init__(self, edges: Iterable = (), vertices: Iterable = ()):
        adj: dict[Any, dict[Any, Weight]] = {}
        for v in vertices:
            adj.setdefault(v, {})
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w: Weight = 1
            elif len(edge) == 3:
                u, v, w = edge
            else:
                raise ValueError(f"edge must be (u, v) or (u, v, weight): {edge!r}")
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if not isinstance(w, (int, float)) or not math.isfinite(w) or w <= 0:
                raise ValueError(
                    f"edge {u!r}-{v!r}: weight must be finite and positive, got {w!r}"
                )
            adj.setdefault(u, {})
            adj.setdefault(v, {})
            if v in adj[u]:
                raise ValueError(f"duplicate edge {u!r}-{v!r}")
            adj[u][v] = w
            adj[v][u] = w
        self._order: tuple = tuple(sort_vertices(adj))
        self._adj: dict[Any, Mapping] = {v: MappingProxyType(adj[v]) for v in self._order}
        self._rows: dict[Any, Mapping] = {}

    # -- structure ----------------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._order

    @property
    def vertex_count(self) -> int:
        return len(self._order)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __contains__(self, v) -> bool:
        return v in self._adj

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"

    def edges(self) -> Iterator[tuple]:
        """Each edge once, as (u, v, weight), in deterministic order."""
        index = {v: i for i, v in enumerate(self._order)}
        for u in self._order:
            for v, w in self._adj[u].items():
                if index[u] < index[v]:
                    yield (u, v, w)

    def adjacency(self) -> dict:
        """Plain-dict copy of the adjacency structure (for comparisons)."""
        return {v: dict(nbrs) for v, nbrs in self._adj.items()}

    def neighbors(self, x) -> Mapping:
        """Read-only mapping neighbor -> edge weight."""
        self._require(x)
        return self._adj[x]

    def degree(self, x) -> int:
        self._require(x)
        return len(self._adj[x])

    def adjacent(self, u, v) -> bool:
        self._require(u)
        return v in self._adj[u]

    def in_triangle(self, z) -> bool:
        """True iff z has two adjacent neighbors."""
        nbrs = list(self.neighbors(z))
        for i, u in enumerate(nbrs):
            adj_u = self._adj[u]
            for v in nbrs[i + 1 :]:
                if v in adj_u:
                    return True
        return False

    @property
    def is_unit_weight(self) -> bool:
        return all(w == 1 for _, _, w in self.edges())

    @property
    def is_connected(self) -> bool:
        if not self._order:
            return True
        return len(self._row(self._order[0])) == self.vertex_count

    # -- shortest-path metric -----------------------------------------------

    def distance(self, x, y) -> Weight:
        """Shortest-path distance, math.inf when y is unreachable from x."""
        self._require(x)
        self._require(y)
        return self._row(x).get(y, math.inf)

    def distances_from(self, x) -> Mapping:
        """Read-only row of finite distances from x (missing = unreachable)."""
        self._require(x)
        return self._row(x)

    def metric(self, tol: float = DEFAULT_TOL) -> Metric:
        return Metric("shortest-path", self._order, self.distance, tol, self.distances_from)

    def _require(self, v) -> None:
        if v not in self._adj:
            raise UnknownVertexError(v)

    def _row(self, src) -> Mapping:
        # Idempotent cache fill: a racing recompute produces the same row.
        row = self._rows.get(src)
        if row is None:
            row = MappingProxyType(self._dijkstra(src))
            self._rows[src] = row
        return row

    def _dijkstra(self, src) -> dict:
        dist: dict[Any, Weight] = {src: 0}
        done: set = set()
        heap: list = [(0, 0, src)]
        counter = 1
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in self._adj[u].items():
                nd = d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, counter, v))
                    counter += 1
        return dist
