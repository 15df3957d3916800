"""Standard graph families used by the checks, the demos and the CLI."""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph


def cycle(n: int) -> Graph:
    """Cycle on vertices 0..n-1, unit weights."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph([(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """Path on vertices 0..n-1 (n=1 gives a single isolated vertex)."""
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph([(i, i + 1) for i in range(n - 1)], vertices=range(n))


def int_path(lo: int, hi: int) -> Graph:
    """Path on the integers lo..hi, unit weights."""
    if hi < lo:
        raise ValueError("empty integer range")
    return Graph([(i, i + 1) for i in range(lo, hi)], vertices=range(lo, hi + 1))


def grid(w: int, h: int) -> Graph:
    """w x h square grid of (i, j) tuples, 4-neighbor, unit weights."""
    return _step_grid(w, h, ((1, 0), (0, 1)))


def king_grid(w: int, h: int) -> Graph:
    """w x h grid with king moves (8 neighbors), unit weights."""
    return _step_grid(w, h, ((1, 0), (0, 1), (1, 1), (1, -1)))


def triangular_tiling(w: int, h: int) -> Graph:
    """Parallelogram window of the triangular tiling, unit weights.

    Vertices (i, j) for 0 <= i < w, 0 <= j < h; edges step by (1,0), (0,1)
    and (1,1), so every interior vertex has six neighbors forming a 6-cycle.
    """
    return _step_grid(w, h, ((1, 0), (0, 1), (1, 1)))


def grid_interior(w: int, h: int) -> frozenset:
    """Vertices of grid(w, h) with a full 4-neighborhood; the same cells
    have a full 6-neighborhood in triangular_tiling(w, h)."""
    return frozenset((i, j) for i in range(1, w - 1) for j in range(1, h - 1))


tiling_interior = grid_interior


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) on vertices 0..n-1: each pair becomes an edge with probability p."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= p <= 1:  # NaN too
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(edges, vertices=range(n))


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Resample G(n, p) until connected, at most 1000 times."""
    for _ in range(1000):
        g = random_graph(n, p, rng)
        if g.is_connected:
            return g
    raise ValueError(f"no connected G({n}, {p}) found in 1000 tries")


def _step_grid(w: int, h: int, steps) -> Graph:
    """Cells (i, j) of a w x h box, each joined to (i + di, j + dj) for every
    step that stays inside; edges in cell order, then step order."""
    if w < 1 or h < 1:
        raise ValueError("grid dimensions must be positive")
    cells = [(i, j) for i in range(w) for j in range(h)]
    edges = [
        ((i, j), (i + di, j + dj))
        for i, j in cells
        for di, dj in steps
        if 0 <= i + di < w and 0 <= j + dj < h
    ]
    return Graph(edges, vertices=cells)
