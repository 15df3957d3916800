"""Exhaustive enumeration of small connected graphs up to relabeling.

Graphs are represented as edge bitmasks over the pairs of 0..n-1, in
``itertools.combinations`` order.  The canonical form of a graph is the
minimum bitmask over all vertex orderings consistent with an iterated color
refinement (degrees, then multisets of neighbor colors): the cells of equal
color fill consecutive positions, in color order.

Bit k of a mask is the k-th pair (a, b), and every pair with first index a
lies above every pair with a smaller first index.  So the mask is fixed
from the top by placing vertices at positions n - 1 down to 0: the vertex
at position p sets the row of pairs (p, q), q > p, from its edges to the
vertices already placed.  The minimum is found by keeping, at each
position, only the partial orderings whose new row is minimal, with partial
orderings that leave the same future merged.  A regular graph, whose
refinement leaves a single cell, thus never tries all n! orderings.

The classes on n vertices are generated by vertex augmentation from the
classes on n - 1: each (n-1)-vertex representative (the parent) gets a new
vertex n - 1 joined to every nonempty subset of the old vertices.  A child
is canonicalized only when no non-cut vertex has a smaller refined color
than the new vertex; the forms are de-duplicated.  Colors are invariant
under isomorphism, and deleting a non-cut vertex of least color from any
connected graph leaves a connected graph on n - 1 vertices, whose class is
one of the parents, so every class is still reached (canonical deletion:
McKay, *Isomorph-Free Exhaustive Generation*, J. Algorithms 26 (1998)).
Color order refines degree order, so a non-cut vertex of smaller degree
rejects a child before refinement, and one of equal degree rejects it at
the first refinement round that ranks it below the new vertex, since each
round's order refines the one before.

Twins of the parent are used too: u ~ v when N(u) - {v} = N(v) - {u}.  This
is an equivalence, and every permutation inside a class is an automorphism
of the parent.  Such a permutation, fixing the new vertex, maps the child
of one subset onto the child of its image, and the filter depends only on
the isomorphism class of the child with its new vertex, so only the subsets
that meet each class in a prefix of its members (lowest first) are tried:
every subset is the image of exactly one of them.  At n = 8 the twin rule
skips 28,394 of the 108,331 children, and 13,566 are canonicalized.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from typing import Generator, Iterator

from .graph import Graph, _bit_indices, _info


def connected_unit_graphs(n: int) -> list[Graph]:
    """All connected unit-weight graphs on vertices 0..n-1, one per
    isomorphism class, in deterministic order."""
    _require_vertex_count(n)
    return [_from_mask(n, mask) for mask in _canonical_masks(n)]


def count_connected_graphs(n: int) -> int:
    _require_vertex_count(n)
    return len(_canonical_masks(n))


def _require_vertex_count(n, name: str = "n") -> None:
    """Reject a vertex count that is a bool or not an int, before the
    cache of :func:`_canonical_masks` takes True for 1."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{name} must be an int vertex count, got {n!r}")


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs of 0..n-1; bit k of an edge mask is pair k."""
    return tuple(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return (0,)
    parents = _canonical_masks(n - 1)
    start = time.perf_counter()
    skipped = 0

    def forms() -> Iterator[int]:
        nonlocal skipped
        for parent in parents:
            skipped += yield from _child_forms(n, parent)

    found = list(forms())
    seen = set(found)
    _info(
        __name__, "n=%d: %d classes from %d children, %d skipped by the twin rule, "
        "%d canonicalized, %.2f s", n, len(seen), len(parents) * ((1 << n - 1) - 1),
        skipped, len(found), time.perf_counter() - start,
    )
    return tuple(sorted(seen))


def _child_forms(n: int, parent: int) -> Generator[int, None, int]:
    """The canonical forms of the children of ``parent``, a graph on n - 1
    vertices, that pass the canonical-deletion filter: the new vertex n - 1
    is joined to each nonempty subset of the old ones that meets every twin
    class in a prefix (see the module docstring).  Returns the number of
    subsets skipped."""
    top = n - 1
    nbrs = _neighbors(top, parent)
    degree = [len(vs) for vs in nbrs]
    pieces = [_pieces_without(u, nbrs) for u in range(top)]
    subsets = _subsets(top)
    tried = _twin_prefixes(nbrs)
    for subset in tried:
        new = subsets[subset]
        d = len(new)
        # A non-cut vertex u of smaller degree than the new vertex has a
        # smaller color and rejects the child at once; one of equal degree
        # (a tie) is compared at each refinement round.  u is a non-cut
        # vertex when every component of the parent minus u meets the new
        # neighbors.
        ties = []
        for u in range(top):
            du = degree[u] + (subset >> u & 1)
            if du <= d and all(piece & subset for piece in pieces[u]):
                if du < d:
                    break
                ties.append(u)
        else:
            child = [vs + [top] if subset >> u & 1 else vs for u, vs in enumerate(nbrs)]
            child.append(new)
            colors = _refine(child, ties)
            if colors is not None:
                yield _least_mask(child, colors)
    return (1 << top) - 1 - len(tried)


def _twin_classes(nbrs) -> list[list[int]]:
    """The classes of the twin relation, u ~ v when N(u) - {v} = N(v) - {u},
    each in ascending order.  The relation is an equivalence, and every
    permutation inside a class is an automorphism."""
    around = [sum(1 << w for w in vs) for vs in nbrs]
    classes: list[list[int]] = []
    for u, row in enumerate(around):
        for members in classes:
            v = members[0]
            if row & ~(1 << v) == around[v] & ~(1 << u):
                members.append(u)
                break
        else:
            classes.append([u])
    return classes


def _twin_prefixes(nbrs) -> list[int]:
    """The nonempty vertex bitmasks that meet each twin class of the graph
    in a prefix of its members."""
    subsets = [0]
    for members in _twin_classes(nbrs):
        prefixes = list(itertools.accumulate(1 << u for u in members))
        subsets += [s | p for s in subsets for p in prefixes]
    return subsets[1:]


def _canonical_form(n: int, mask: int) -> int:
    """The canonical form of the graph on 0..n-1 with edge mask ``mask``."""
    nbrs = _neighbors(n, mask)
    return _least_mask(nbrs, _refine(nbrs))


def _from_mask(n: int, mask: int) -> Graph:
    pairs = _pairs(n)
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    return Graph(edges, vertices=range(n))


def _neighbors(n: int, mask: int) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(_pairs(n)):
        if mask >> k & 1:
            nbrs[i].append(j)
            nbrs[j].append(i)
    return nbrs


def _adjacency(n: int, mask: int) -> list[int]:
    """Per vertex of the graph on 0..n-1 with edge mask ``mask``, the bitmask
    of its neighbours: the masks ``Graph._masks`` keeps for the graph that
    :func:`_from_mask` builds."""
    adj = [0] * n
    pairs = _pairs(n)
    for k in _bit_indices(mask):
        i, j = pairs[k]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


@lru_cache(maxsize=None)
def _subsets(m: int) -> tuple[list[int], ...]:
    """The members of every subset of 0..m-1, indexed by its bitmask."""
    return tuple(list(_bit_indices(subset)) for subset in range(1 << m))


def _pieces_without(u: int, nbrs) -> list[int]:
    """The components of the graph minus vertex u, as vertex bitmasks."""
    rest = (1 << len(nbrs)) - 1 & ~(1 << u)
    pieces = []
    while rest:
        piece = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in _bit_indices(frontier):
                for w in nbrs[v]:
                    reach |= 1 << w
            frontier = reach & rest & ~piece
            piece |= frontier
        pieces.append(piece)
        rest &= ~piece
    return pieces


def _refine(nbrs, ties=()) -> list[int] | None:
    """Iterated color refinement; the final coloring is isomorphism-invariant.

    Each round ranks the keys (old color, sorted neighbor colors), so the
    new color order refines the old one; the first round starts from the
    degrees.  When a round splits no cell, its ranks are final.  ``ties``
    are vertices of the same degree as the last vertex: at the first round
    where one of them ranks below it the result is None, since later rounds
    cannot reverse that order."""
    colors = [len(vs) for vs in nbrs]
    count = len(set(colors))
    while True:
        color = colors.__getitem__
        keys = [(c, tuple(sorted(map(color, vs)))) for c, vs in zip(colors, nbrs)]
        ranked = sorted(set(keys))
        palette = dict(zip(ranked, range(len(ranked))))
        colors = [palette[key] for key in keys]
        last = colors[-1]
        for u in ties:
            if colors[u] < last:
                return None
        if len(ranked) == count:
            return colors
        count = len(ranked)


def _least_mask(nbrs, colors) -> int:
    """The minimum edge mask over the orderings that put the cells of
    ``colors`` at consecutive positions in color order, fixed row by row
    from the top (see the module docstring)."""
    n = len(nbrs)
    cell_of = sorted(colors)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    # a partial ordering, by what its future depends on: per vertex, -1 once
    # placed (and -1 | bit == -1), else the bitmask of the positions of its
    # placed neighbors
    states = {(0,) * n}
    mask = 0
    for p in range(n - 1, -1, -1):
        bit = 1 << p
        best = -1
        successors: set[tuple[int, ...]] = set()
        for state in states:
            for w in cells[cell_of[p]]:
                row = state[w]
                if row < 0 or best >= 0 and row > best:
                    continue
                if row != best:
                    best = row
                    successors = set()
                placed = list(state)
                placed[w] = -1
                for x in nbrs[w]:
                    placed[x] |= bit
                successors.add(tuple(placed))
        states = successors
        mask |= best >> p + 1 << _row_start(n, p)
    return mask


def _row_start(n: int, p: int) -> int:
    """The bit of the pair (p, p + 1): the lowest of the pairs (p, q)."""
    return p * (2 * n - p - 1) // 2
