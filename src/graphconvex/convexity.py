"""Betweenness, closure operators, convex hulls and convex functions.

Everything here is relative to a :class:`~graphconvex.graph.Metric`.  A
vertex z lies between x and y when d(x, y) = d(x, z) + d(z, y) with
d(x, y) finite.  One engine, :class:`Betweenness`, decides that relation
for every caller, exactly on integer distances.  A set is convex when it
is fixed by the one-step betweenness closure; the convex hull is the least
such fixed point.

A function f is convex at z when for every pair x, y with z between them,

    f(z) <= (d(y,z)/d(x,y)) * f(x) + (d(x,z)/d(x,y)) * f(y).

Functions may take the value +inf (e.g. indicators); the conventions are
0 * inf = 0 and v <= inf for every v.  The inequality is evaluated with
denominators cleared, so unit-weight graphs are checked in exact ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any, Iterator, Mapping

from .extreal import INF, approx_eq, approx_le, check_values, exact_div, scaled
from .graph import Metric, UnknownVertexError

VertexFunction = Mapping[Any, float]


@dataclass(frozen=True)
class ConvexityWitness:
    """A violated instance of the two-point inequality at some vertex."""

    x: Any
    y: Any
    lhs: Any  # f at the middle vertex
    rhs: Any  # the distance-weighted combination of f(x) and f(y)


@dataclass(frozen=True)
class ConvexityVerdict:
    ok: bool
    vertex: Any
    witness: ConvexityWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


class Betweenness:
    """Index-based distance rows of one metric and the betweenness relation.

    Row i is ``[d(v_i, v) for v in m.vertices]``, filled the first time it
    is read.  Distances are compared with ``approx_eq(., ., m.tol)``, which
    is exact unless a float is involved.
    """

    def __init__(self, m: Metric):
        self.vertices, self.dist, self.tol = m.vertices, m.dist, m.tol
        self.index = {v: i for i, v in enumerate(m.vertices)}
        self.rows: list = [None] * len(m.vertices)

    def row(self, i: int) -> list:
        r = self.rows[i]
        if r is None:
            r = self.rows[i] = [self.dist(self.vertices[i], v) for v in self.vertices]
        return r

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


def betweenness(m: Metric) -> Betweenness:
    """The betweenness engine of m, built on first use and kept on m."""
    if m._betweenness is None:
        object.__setattr__(m, "_betweenness", Betweenness(m))
    return m._betweenness


def is_between(m: Metric, x, z, y) -> bool:
    """True iff d(x, y) = d(x, z) + d(z, y) with d(x, y) finite."""
    e = betweenness(m)
    ix, iz, iy = _indices(e, (x, z, y))
    rx, ry = e.row(ix), e.row(iy)
    return rx[iy] < INF and approx_eq(rx[iy], rx[iz] + ry[iz], m.tol)


def betweenness_closure(m: Metric, members) -> frozenset:
    """One closure step: members plus every vertex between two members."""
    a = frozenset(members)
    e = betweenness(m)
    rows = [(i, e.row(i)) for i in sorted(_indices(e, a))]
    tol = m.tol
    pairs = [(rx, rx[j], ry) for (_, rx), (j, ry) in combinations(rows, 2) if rx[j] != INF]
    return a.union(
        z for k, z in enumerate(m.vertices)
        if z not in a and any(approx_eq(dxy, rx[k] + ry[k], tol) for rx, dxy, ry in pairs)
    )


def convex_hull(m: Metric, members) -> frozenset:
    """Least convex superset: iterate the closure to its fixed point."""
    current = frozenset(members)
    for _ in range(len(m.vertices) + 1):
        nxt = betweenness_closure(m, current)
        if nxt == current:
            return current
        current = nxt
    raise RuntimeError("betweenness closure failed to stabilize")


def is_convex_set(m: Metric, members) -> bool:
    a = frozenset(members)
    return betweenness_closure(m, a) == a


def is_convex_at(m: Metric, f: VertexFunction, z) -> ConvexityVerdict:
    """Check the two-point inequality at z over all pairs in f's domain.

    Pairs are scanned in the metric's vertex order, so a failure reports
    the first violating pair.  Vertices without a value are skipped; if z
    itself has none there is nothing to check and the verdict is ok.
    """
    e = betweenness(m)
    if z not in e.index:
        raise UnknownVertexError(z)
    check_values(f.values())
    if z not in f:
        return ConvexityVerdict(True, z)
    verts, tol = m.vertices, m.tol
    fz = f[z]
    dom = [i for i, v in enumerate(verts) if v in f]
    for i, j, dij, dkj, dik in e.between_pairs(e.index[z], dom):
        x, y = verts[i], verts[j]
        lhs = scaled(dij, fz)
        rhs = scaled(dkj, f[x]) + scaled(dik, f[y])
        if not approx_le(lhs, rhs, tol):
            combo = INF if math.isinf(rhs) else exact_div(rhs, dij)
            return ConvexityVerdict(False, z, ConvexityWitness(x, y, fz, combo))
    return ConvexityVerdict(True, z)


def distance_to_set(m: Metric, x, members):
    """min over members of d(x, .); +inf for the empty set."""
    k = _indices(betweenness(m), (x,))[0]
    return min((r[k] for r in _member_rows(m, members)), default=INF)


def indicator(members, vertices) -> dict:
    """0 on the set, +inf off it."""
    s = set(members)
    unknown = s.difference(vertices)
    if unknown:
        raise UnknownVertexError(next(iter(unknown)))
    return {v: (0 if v in s else INF) for v in vertices}


def distance_function(m: Metric, a) -> dict:
    """f(v) = d(v, a) over the metric's vertex universe."""
    return {v: m.dist(v, a) for v in m.vertices}


def set_distance_function(m: Metric, members) -> dict:
    """f(v) = distance_to_set(v, members) over the vertex universe."""
    rows = _member_rows(m, members)
    if not rows:
        return dict.fromkeys(m.vertices, INF)
    return dict(zip(m.vertices, map(min, zip(*rows))))


def _member_rows(m: Metric, members) -> list:
    """The engine's distance rows of the members, in iteration order; by
    symmetry, entry k of a member's row is d(v_k, member)."""
    e = betweenness(m)
    return [e.row(i) for i in _indices(e, members)]


def _indices(e: Betweenness, vertices) -> list:
    try:
        return [e.index[v] for v in vertices]
    except KeyError as err:
        raise UnknownVertexError(err.args[0]) from None


def brute_force_convex_hull(m: Metric, members) -> frozenset:
    """Hull by enumeration: intersect every convex superset of the input.

    Exponential in the vertex count (guarded at 14); kept as an
    independent cross-check for :func:`convex_hull`.  The closure test is
    recomputed here from scratch on bitmasks rather than reusing
    :func:`betweenness_closure`.
    """
    n = len(m.vertices)
    if n > 14:
        raise ValueError(f"brute-force hull is limited to 14 vertices, got {n}")
    index, convex_masks = _hull_tables(m)
    amask = 0
    for v in frozenset(members):
        if v not in index:
            raise UnknownVertexError(v)
        amask |= 1 << index[v]
    result = (1 << n) - 1
    for bmask in convex_masks:
        if bmask & amask == amask:
            result &= bmask
    return frozenset(v for v, i in index.items() if result >> i & 1)


@lru_cache(maxsize=32)
def _hull_tables(m: Metric):
    """Per-metric tables for the brute-force hull: the vertex index and the
    bitmasks of all convex sets (the full vertex set is always among them)."""
    verts = m.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    dist, tol = m.dist, m.tol
    rows = [[dist(u, v) for v in verts] for u in verts]
    between = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dij = rows[i][j]
            if math.isinf(dij):
                continue
            mask = 0
            for k in range(n):
                if approx_eq(dij, rows[i][k] + rows[k][j], tol):
                    mask |= 1 << k
            between[i][j] = mask
    convex_masks = []
    for mask in range(1 << n):
        closed = mask
        bits = [i for i in range(n) if mask >> i & 1]
        for ai, i in enumerate(bits):
            row = between[i]
            for j in bits[ai + 1 :]:
                closed |= row[j]
        if closed == mask:
            convex_masks.append(mask)
    return index, tuple(convex_masks)
