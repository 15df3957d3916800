"""Finite undirected graphs with positive edge weights and shortest-path
distances, and the :class:`Metric` that decides betweenness: z lies between
x and y when d(x, y) = d(x, z) + d(z, y) with d(x, y) finite."""

from __future__ import annotations

import heapq
import math
import sys
from functools import reduce
from itertools import islice, repeat
from operator import and_, itemgetter, or_
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from .extreal import DEFAULT_TOL, INF, approx_eq, check_tolerance

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


class _Record:
    """Base of an immutable record whose fields ``__match_args__`` names, in
    order, for records that a NamedTuple cannot hold: one that validates
    at construction, or reads a field lazily.  Equality with records of its
    own class, hash, repr and pickling read the fields; setting or deleting
    an attribute raises AttributeError.  ``_set`` fills the slots."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Metric:
    """Distance oracle over a fixed, deterministically ordered vertex
    universe, and the betweenness relation it induces.

    ``tol`` is the relative tolerance used by every comparison downstream
    of this metric.  Row i is ``[d(v_i, v) for v in vertices]``, filled the
    first time it is read: from ``row_source(i)`` when the metric has one,
    else by calling ``dist`` per entry.  ``row_source`` maps i to
    ``(row, shells)``: the row as a list in vertex order (+inf when
    unreachable), and ``{r: bitmask of the j at distance r}`` over its
    finite entries, in ascending r, or None.  A source gives shells only
    for a metric whose rows are all symmetric, positive and plain int off
    the diagonal, as :meth:`Graph.metric` does for int weights and
    :func:`~graphconvex.lattice.group_metric` for l1 and linf windows, and
    such shells make the metric ``certified``.  Shells may have gaps (edge
    weights 2 and 3 give distances 0, 2, 3, 5, ...); ``dense`` stays True
    while every row read so far has shells r = 0, 1, ..., ecc(v_i) with no
    gap, as a breadth-first search meets them.  No shells are built after
    the fact: any other metric, a hand-built one included, has none and is
    decided by scans with ``approx_eq(., ., tol)``, which is exact unless a
    float is involved.  Intervals I(v_i, v_j) come from :meth:`interval`
    alone, and are not kept.  Metrics compare and hash by identity.  A
    tolerance that is NaN, infinite or negative raises ValueError.
    """

    def __init__(self, vertices, dist: Callable[[Any, Any], Weight],
                 tol: float = DEFAULT_TOL, row_source: Callable[[int], tuple] | None = None):
        self.vertices = tuple(vertices)
        self.dist, self.tol, self.row_source = dist, check_tolerance(tol), row_source
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.rows: list = [None] * len(self.vertices)
        self.certified = False
        self.dense = True
        self._shells: dict = {}
        self._last_closure = 0, 0  # betweenness_closure's last input and output, as masks

    def row(self, i: int) -> list:
        r = self.rows[i]
        if r is None:
            if self.row_source is None:
                v = self.vertices[i]
                r, shells = [self.dist(v, u) for u in self.vertices], None
            else:
                r, shells = self.row_source(i)
                if shells is not None:
                    self.certified = True
                    # ascending from 0, so no gap exactly when the last r is len - 1
                    self.dense = self.dense and next(reversed(shells)) == len(shells) - 1
            self._shells[i] = shells
            self.rows[i] = r
        return r

    def shells(self, i: int) -> dict | None:
        """``{r: bitmask of the j with d(v_i, v_j) = r}`` over the finite
        entries of row i, as its row source gave them; None on a metric
        that is not certified."""
        try:
            return self._shells[i]
        except KeyError:
            self.row(i)  # the row brings its shells along
            return self._shells[i]

    def through(self, i: int, k: int) -> int:
        """Bitmask of the j with d(v_i, v_j) = d(v_k, v_i) + d(v_k, v_j), all
        finite: the j such that v_k lies between v_i and v_j, k itself
        included, on a certified metric with v_i at finite distance from
        v_k.  It is the OR over r of shell_k[r] & shell_i[d(v_k, v_i) + r].
        While the metric is ``dense`` the shells pair up in one C-level
        pass; otherwise they are paired by distance."""
        sk, si, d = self.shells(k), self.shells(i), self.rows[k][i]
        if self.dense:
            return reduce(or_, map(and_, sk.values(), islice(si.values(), d, None)))
        return reduce(or_, [layer & si.get(d + r, 0) for r, layer in sk.items()])

    def interval(self, i: int, j: int, among: int = -1) -> int:
        """Bitmask of the k with d(v_i, v_j) = d(v_i, v_k) + d(v_j, v_k) on
        rows i and j (i and j among them on a symmetric metric), kept to the
        bits of ``among`` (all by default); 0 when d(v_i, v_j) is +inf.  On
        a certified metric it is the OR over r of shell_i[r] &
        shell_j[d - r], with no ``approx_eq``; any other rows are scanned
        with it, over ``among``."""
        d = self.row(i)[j]
        if d == INF:
            return 0
        si, sj = self.shells(i), self.shells(j)
        if si is not None and sj is not None:
            return among & reduce(or_, [layer & sj.get(d - r, 0) for r, layer in si.items()], 0)
        ri, rj, tol = self.rows[i], self.rows[j], self.tol
        # approx_eq(d, s, tol) implies s - d <= tol / (1 - tol) * max(1, |d|), so for
        # 0 <= tol <= 1/4 every such s is at most hi (1e-12 covers float rounding)
        bounded = 0 <= tol <= 0.25 and abs(d) < 1e300
        hi = max(d, d + (2 * tol + 1e-12) * max(1, abs(d))) if bounded else INF
        ks = _bit_indices(among & (1 << len(ri)) - 1)
        return sum(1 << k for k in ks if (s := ri[k] + rj[k]) <= hi and approx_eq(d, s, tol))

    def between_pairs(self, k: int, candidates) -> Iterator[tuple]:
        """``(i, j, d_ij, d_kj, d_ik)`` for every i < j from the ascending
        ``candidates`` with k between them and 0 < d_ij < inf, in (i, j)
        order.  Only the rows of k and of the candidates are filled.  k is
        no candidate: as d(k, k) = 0, a pair with k as an end meets
        d_ij f(k) <= d_kj f(i) + d_ik f(j) with equality (+inf too, as
        0 * inf = 0), so it can never refute convexity at k."""
        rk, tol = self.row(k), self.tol
        cands = [i for i in candidates if i != k]
        for a, i in enumerate(cands):
            ri = self.row(i)
            dik = ri[k]
            if dik == INF:
                continue
            for j in cands[a + 1 :]:
                dij = ri[j]
                if 0 < dij < INF and approx_eq(dij, dik + rk[j], tol):
                    yield i, j, dij, rk[j], dik


def _info(name: str, msg: str, *args) -> None:
    """An INFO record on the logger ``name``.  Until something imports
    logging, no handler or level is set that could show it, so it is
    dropped without paying the import (about 5 ms)."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).info(msg, *args)


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _picker(indices) -> Callable:
    """``seq -> tuple(seq[i] for i in indices)``, in one C-level call for
    two or more indices (``itemgetter`` returns a bare item for one)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(map(seq.__getitem__, indices))


class Graph:
    """Immutable undirected graph over hashable vertex ids.

    Edges carry strictly positive finite weights (default 1).  Self-loops
    and duplicate edges are rejected.  Distance rows are filled on first
    use and cached, one list per source in vertex order.  When every
    weight is the int 1 a row comes from a breadth-first search over
    vertex indices; any other weights take a binary-heap Dijkstra.  When
    every weight is a plain int, both yield the row's distance shells, and
    all distance arithmetic stays in exact ints; any float weight (1.0
    included) switches that source's distances to floats, without shells.
    A bool weight is rejected.  In a graph with a float weight, so is an
    int weight beyond float range, and weights whose float sum passes the
    float maximum.
    """

    def __init__(self, edges: Iterable = (), vertices: Iterable = ()):
        adj: dict[Any, dict[Any, Weight]] = {}
        for v in vertices:
            adj.setdefault(v, {})
        unit = ints = True  # every weight == 1 / is a plain int
        floats, huge = False, None  # a float weight / the first int edge beyond float range
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
            if type(w) is not int or w != 1:  # the int 1 needs no check
                bad = isinstance(w, bool) or not isinstance(w, (int, float))
                if bad or not 0 < w < math.inf:  # exact on ints beyond float range
                    raise ValueError(
                        f"edge {u!r}-{v!r}: weight must be finite and positive, got {w!r}"
                    )
                unit = unit and w == 1
                ints = ints and type(w) is int
                if isinstance(w, float):
                    floats = True
                elif huge is None and w > sys.float_info.max:
                    huge = u, v
            adj.setdefault(u, {})
            adj.setdefault(v, {})
            if v in adj[u]:
                raise ValueError(f"duplicate edge {u!r}-{v!r}")
            adj[u][v] = w
            adj[v][u] = w
        if floats and huge is not None:  # their sums would overflow a float
            raise ValueError(
                f"edge {huge[0]!r}-{huge[1]!r}: an int weight beyond float range "
                "cannot meet a float weight"
            )
        # no shortest path is longer than the sum of all weights; each edge
        # sits in two neighbour maps, so each entry adds half its weight
        if floats and math.isinf(sum(w / 2 for nbrs in adj.values() for w in nbrs.values())):
            raise ValueError("the edge weights sum beyond float range, so float path lengths "
                             "would overflow")
        self._order: tuple = tuple(sort_vertices(adj))
        self._adj: dict[Any, Mapping] = {v: MappingProxyType(adj[v]) for v in self._order}
        self._index = {v: i for i, v in enumerate(self._order)}
        self._unit, self._ints = unit, ints
        self._bfs = unit and ints  # every weight is the int 1
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
        return Metric(self._order, self.distance, tol, self._filled)

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
        """Fill row i: by BFS when every weight is the int 1, else by a
        binary-heap Dijkstra; with its shells when every weight is a plain
        int, else without."""
        if not self._bfs:
            src = self._order[i]
            dist: dict[Any, Weight] = {src: 0}
            done: dict = {}  # vertex -> distance, in the order settled: ascending
            heap: list = [(0, 0, src)]
            counter = 1
            while heap:
                d, _, u = heapq.heappop(heap)
                if u in done:
                    continue
                done[u] = d
                for v, w in self._adj[u].items():
                    nd = d + w
                    if v not in dist or nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(heap, (nd, counter, v))
                        counter += 1
            row = list(map(dist.get, self._order, repeat(INF)))
            if not self._ints:
                return row, None
            shells: dict = {}
            index = self._index
            for u, d in done.items():
                shells[d] = shells.get(d, 0) | 1 << index[u]
            return row, shells
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
