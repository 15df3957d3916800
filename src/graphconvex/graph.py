"""Finite undirected graphs with positive edge weights and shortest-path distances."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from .extreal import DEFAULT_TOL, INF

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
    comparison downstream of this metric.  ``row_source``, set only by
    :meth:`Graph.metric`, maps a vertex index i to ``(row, shells)``: the
    distances from ``vertices[i]`` as a list in vertex order (+inf when
    unreachable), and ``{r: bitmask of the j at distance r}`` over its
    finite entries when every row of the metric is symmetric, positive and
    plain int off the diagonal (else None, for every row).  The engine
    then takes whole rows and shells from it instead of calling ``dist``
    once per entry and rebuilding the shells.  It takes no part in
    equality.  ``_betweenness`` holds the metric's engine from
    :mod:`graphconvex.convexity`, built on first use, so its distance rows
    live exactly as long as the metric does.
    """

    kind: str
    vertices: tuple
    dist: Callable[[Any, Any], Weight]
    tol: float = DEFAULT_TOL
    row_source: Callable[[int], tuple] | None = field(
        default=None, compare=False, repr=False
    )
    _betweenness: Any = field(default=None, init=False, compare=False, repr=False)


class Graph:
    """Immutable undirected graph over hashable vertex ids.

    Edges carry strictly positive finite weights (default 1).  Self-loops
    and duplicate edges are rejected.  Distance rows are filled on first
    use and cached, one list per source in vertex order.  When every
    weight is the int 1 a row comes from a breadth-first search over
    vertex indices, which also yields its distance shells; any other
    weights take a binary-heap Dijkstra.  Int weights keep all distance
    arithmetic in exact ints; any float weight (1.0 included) switches
    that source's distances to floats.
    """

    def __init__(self, edges: Iterable = (), vertices: Iterable = ()):
        adj: dict[Any, dict[Any, Weight]] = {}
        for v in vertices:
            adj.setdefault(v, {})
        unit = int_unit = True  # every weight == 1 / every weight the int 1
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w: Weight = 1
            elif len(edge) == 3:
                u, v, w = edge
                if type(w) is not int or w != 1:
                    int_unit = False
                    unit = unit and w == 1
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
        self._index = {v: i for i, v in enumerate(self._order)}
        self._unit, self._bfs = unit, int_unit
        self._nbr_masks: list | None = None  # per index, its neighbours' bitmask; BFS only
        self._rows: list = [None] * len(self._order)  # index -> (row, shells)
        self._views: dict = {}  # vertex -> read-only mapping of its finite row

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
        index = self._index
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
        """True when every edge weight equals 1 (the float 1.0 too)."""
        return self._unit

    @property
    def is_connected(self) -> bool:
        if not self._order:
            return True
        return INF not in self._filled(0)[0]

    # -- shortest-path metric -----------------------------------------------

    def distance(self, x, y) -> Weight:
        """Shortest-path distance, math.inf when y is unreachable from x."""
        self._require(x)
        self._require(y)
        return self._filled(self._index[x])[0][self._index[y]]

    def distances_from(self, x) -> Mapping:
        """Read-only row of finite distances from x (missing = unreachable)."""
        self._require(x)
        view = self._views.get(x)
        if view is None:
            row = self._filled(self._index[x])[0]
            view = MappingProxyType({v: d for v, d in zip(self._order, row) if d != INF})
            self._views[x] = view
        return view

    def metric(self, tol: float = DEFAULT_TOL) -> Metric:
        return Metric("shortest-path", self._order, self.distance, tol, self._filled)

    def _require(self, v) -> None:
        if v not in self._adj:
            raise UnknownVertexError(v)

    def _filled(self, i: int) -> tuple:
        """``(row, shells)`` of the vertex with index i, as
        :attr:`Metric.row_source` describes them."""
        # Idempotent cache fill: a racing recompute produces the same row.
        entry = self._rows[i]
        if entry is None:
            entry = self._rows[i] = self._dijkstra(i)
        return entry

    def _dijkstra(self, i: int) -> tuple:
        """Fill row i: by BFS with its shells when every weight is the int 1,
        else by a binary-heap Dijkstra, without shells."""
        if not self._bfs:
            src = self._order[i]
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
            return list(map(dist.get, self._order, repeat(INF))), None
        masks = self._nbr_masks
        if masks is None:
            index = self._index
            masks = self._nbr_masks = [
                sum(1 << index[u] for u in self._adj[v]) for v in self._order
            ]
        row = [INF] * len(masks)
        shells = {}
        seen = layer = 1 << i
        r = 0
        while layer:  # layer: the vertices at distance r
            shells[r] = layer
            reached = 0
            while layer:
                low = layer & -layer
                j = low.bit_length() - 1
                row[j] = r
                reached |= masks[j]
                layer ^= low
            layer = reached & ~seen
            seen |= layer
            r += 1
        return row, shells
