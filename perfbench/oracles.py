"""Independent reference answers for the benchmark's graph ops.

Unit-weight graphs only.  Distances come from plain breadth-first search,
not from the library, and hulls from interval bitmasks, so a wrong answer
from ``graphconvex`` cannot also be the expected one.
"""

from __future__ import annotations

from collections import deque


def _adjacency(vertices, edges) -> dict:
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _bfs(adj, src) -> dict:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def ball(vertices, edges, center, radius: int) -> list:
    """``center`` first, then every other vertex within ``radius``, sorted."""
    dist = _bfs(_adjacency(vertices, edges), center)
    return [center] + sorted(v for v, d in dist.items() if 0 < d <= radius)


def hull(vertices, edges, members) -> list:
    """Geodesic convex hull of ``members``, in sorted vertex order.

    The interval I(x, y) is built per source x by a pass over the BFS
    layers: I(x, y) = {y} plus I(x, w) for every neighbour w of y one step
    closer to x.  The hull is the least set closed under those intervals.
    """
    order = sorted(vertices)
    bit = {v: 1 << i for i, v in enumerate(order)}
    adj = _adjacency(vertices, edges)
    intervals: dict = {}

    def interval_row(x) -> dict:
        row = intervals.get(x)
        if row is None:
            dist = _bfs(adj, x)
            row = {}
            for y in sorted(dist, key=dist.get):
                mask = bit[y]
                for w in adj[y]:
                    if dist.get(w) == dist[y] - 1:
                        mask |= row[w]
                row[y] = mask
            intervals[x] = row
        return row

    current = set(members)
    mask = sum(bit[v] for v in current)
    while True:
        grown = mask
        pts = sorted(current)
        for i, x in enumerate(pts):
            row = interval_row(x)
            for y in pts[i + 1:]:
                grown |= row.get(y, 0)
        if grown == mask:
            return [v for v in order if mask & bit[v]]
        mask = grown
        current = {v for v in order if mask & bit[v]}


def fn_convex_rows(vertices, edges, f) -> list[tuple]:
    """Per vertex z in order: (z, "ok" | "violated", first violating pair).

    A pair (x, y) with x before y and z between them violates the
    two-point inequality when d(x,y) f(z) > d(z,y) f(x) + d(x,z) f(y).
    """
    order = sorted(vertices)
    adj = _adjacency(vertices, edges)
    dist = {v: _bfs(adj, v) for v in order}
    rows = []
    for z in order:
        dz = dist[z]
        fz = f[z]
        pair = None
        for i, x in enumerate(order):
            dx = dist[x]
            dxz = dx.get(z)
            if dxz is None:
                continue
            for y in order[i + 1:]:
                dxy = dx.get(y)
                if not dxy:
                    continue
                dzy = dz[y]
                if dxz + dzy == dxy and dxy * fz > dzy * f[x] + dxz * f[y]:
                    pair = [x, y]
                    break
            if pair:
                break
        rows.append((z, "ok" if pair is None else "violated", pair))
    return rows
