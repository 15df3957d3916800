"""Exhaustive enumeration of small connected graphs up to relabeling.

Graphs are represented as edge bitmasks over the pairs of 0..n-1, in
``itertools.combinations`` order.  The canonical form of a graph is the
minimum bitmask over all vertex orderings consistent with an iterated color
refinement (degrees, then multisets of neighbor colors).  Refinement cells
are usually tiny, so the minimum is taken over few orderings; fully regular
graphs fall back to all n!.

The classes on n vertices are generated by vertex augmentation from the
classes on n - 1: each (n-1)-vertex representative gets a new vertex n - 1
joined to every nonempty subset of the old vertices, and the results are
canonicalized and de-duplicated.  This reaches every class because every
connected graph has a non-cut vertex (a leaf of any spanning tree), and
removing it leaves a connected graph on n - 1 vertices, whose class was
generated one step earlier.  The work is |classes(n-1)| * (2^(n-1) - 1)
canonical forms instead of one per labeled connected graph; see McKay,
*Isomorph-Free Exhaustive Generation*, J. Algorithms 26 (1998).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graph import Graph


def connected_unit_graphs(n: int) -> list[Graph]:
    """All connected unit-weight graphs on vertices 0..n-1, one per
    isomorphism class, in deterministic order."""
    return [_from_mask(n, mask) for mask in _canonical_masks(n)]


def count_connected_graphs(n: int) -> int:
    return len(_canonical_masks(n))


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs of 0..n-1; bit k of an edge mask is pair k."""
    return tuple(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """``bits[a][b] == bits[b][a]``: the edge-mask bit of the pair {a, b}."""
    bits = [[0] * n for _ in range(n)]
    for k, (a, b) in enumerate(_pairs(n)):
        bits[a][b] = bits[b][a] = 1 << k
    return tuple(map(tuple, bits))


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return (0,)
    bits = _pair_bits(n)
    old_bits = [bits[i][j] for i, j in _pairs(n - 1)]
    new_bits = bits[n - 1][: n - 1]
    # neighbor sets of the new vertex n - 1, as masks over the n-vertex pairs
    attach = [
        sum(bit for i, bit in enumerate(new_bits) if subset >> i & 1)
        for subset in range(1, 1 << (n - 1))
    ]
    seen: set[int] = set()
    for small in _canonical_masks(n - 1):
        base = sum(bit for k, bit in enumerate(old_bits) if small >> k & 1)
        for extra in attach:
            seen.add(_canonical_form(n, base | extra))
    return tuple(sorted(seen))


def _from_mask(n: int, mask: int) -> Graph:
    pairs = _pairs(n)
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    return Graph(edges, vertices=range(n))


def _neighbors(n: int, mask: int, pairs) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        if mask >> k & 1:
            nbrs[i].append(j)
            nbrs[j].append(i)
    return nbrs


def _refine(n: int, nbrs) -> list[int]:
    """Iterated color refinement; the final coloring is isomorphism-invariant."""
    colors = [len(nbrs[v]) for v in range(n)]
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
            for v in range(n)
        ]
        palette = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        new = [palette[keys[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _canonical_form(n: int, mask: int) -> int:
    pairs, bits = _pairs(n), _pair_bits(n)
    nbrs = _neighbors(n, mask, pairs)
    colors = _refine(n, nbrs)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    ordered_cells = [cells[c] for c in sorted(cells)]
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    best: int | None = None
    for perm_parts in itertools.product(
        *(itertools.permutations(cell) for cell in ordered_cells)
    ):
        order = [v for part in perm_parts for v in part]
        pos = [0] * n
        for position, v in enumerate(order):
            pos[v] = position
        candidate = 0
        for i, j in edges:
            candidate |= bits[pos[i]][pos[j]]
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return best
