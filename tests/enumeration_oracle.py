"""The canonical form and class list that the enumerator must reproduce.

``graphconvex.enumeration`` canonicalizes only the children that pass a
canonical-deletion filter, and finds each minimum by a pruned top-down
search.  The oracle here is the plain definition: refine colours, try
every ordering consistent with the refinement cells, keep the smallest
edge mask, and canonicalize every child of every parent.
"""

import itertools
import random
from functools import lru_cache

# the oracle's forms of the one-cell graphs that take it seconds (9! and 10!
# orderings); tier-1 reads these, check_enumeration_n8.py recomputes them
SLOW_FORMS = {"C9": 78_270_656, "Petersen": 114_228_939_152}


@lru_cache(maxsize=None)
def pairs(n):
    """The vertex pairs of 0..n-1; bit k of an edge mask is pair k."""
    return tuple(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def pair_bits(n):
    """``bits[a][b] == bits[b][a]``: the edge-mask bit of the pair {a, b}."""
    bits = [[0] * n for _ in range(n)]
    for k, (a, b) in enumerate(pairs(n)):
        bits[a][b] = bits[b][a] = 1 << k
    return tuple(map(tuple, bits))


def neighbors(n, mask):
    nbrs = [[] for _ in range(n)]
    for k, (i, j) in enumerate(pairs(n)):
        if mask >> k & 1:
            nbrs[i].append(j)
            nbrs[j].append(i)
    return nbrs


def refine(n, nbrs):
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


def canonical_form(n, mask):
    """The minimum edge mask over every vertex ordering that lists the
    refinement cells in colour order."""
    bits = pair_bits(n)
    colors = refine(n, neighbors(n, mask))
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    ordered_cells = [cells[c] for c in sorted(cells)]
    edges = [pairs(n)[k] for k in range(len(pairs(n))) if mask >> k & 1]
    best = None
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
    return best


@lru_cache(maxsize=None)
def canonical_masks(n):
    """The sorted canonical forms of the connected graphs on n vertices:
    every nonempty neighbour set of a new vertex n - 1 on every class of
    n - 1, each child canonicalized."""
    if n == 1:
        return (0,)
    bits = pair_bits(n)
    old_bits = [bits[i][j] for i, j in pairs(n - 1)]
    new_bits = bits[n - 1][: n - 1]
    seen = set()
    for small in canonical_masks(n - 1):
        base = sum(bit for k, bit in enumerate(old_bits) if small >> k & 1)
        for subset in range(1, 1 << (n - 1)):
            extra = sum(bit for i, bit in enumerate(new_bits) if subset >> i & 1)
            seen.add(canonical_form(n, base | extra))
    return tuple(sorted(seen))


def mask_of(n, edges):
    """The edge mask of ``edges`` (pairs of 0..n-1, either order)."""
    bits = pair_bits(n)
    mask = 0
    for a, b in edges:
        mask |= bits[a][b]
    return mask


def one_cell_graphs():
    """(name, n, mask) of graphs whose refinement leaves a single cell:
    cycles, complete and edgeless graphs, K_{3,3}, the cube Q_3, the
    Petersen graph and the complement of C_8."""
    for n in range(3, 10):
        yield f"C{n}", n, mask_of(n, [(i, (i + 1) % n) for i in range(n)])
    for n in range(1, 9):
        yield f"K{n}", n, (1 << len(pairs(n))) - 1
    for n in range(1, 8):
        yield f"E{n}", n, 0
    yield "K3,3", 6, mask_of(6, [(a, b) for a in range(3) for b in range(3, 6)])
    yield "Q3", 8, mask_of(8, [(a, a ^ 1 << k) for a in range(8) for k in range(3)
                               if a < a ^ 1 << k])
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    yield "Petersen", 10, mask_of(10, outer + inner + spokes)
    c8 = mask_of(8, [(i, (i + 1) % 8) for i in range(8)])
    yield "co-C8", 8, ((1 << len(pairs(8))) - 1) & ~c8


def random_masks(n, count, seed):
    """``count`` random labeled graphs on n vertices, possibly disconnected.
    Each draws its edge density from [0.25, 0.75], which keeps the
    oracle's refinement cells small; ``one_cell_graphs`` covers the rest."""
    rng = random.Random(f"enumeration-oracle:{n}:{seed}")
    size = len(pairs(n))
    for _ in range(count):
        p = rng.uniform(0.25, 0.75)
        yield sum(1 << k for k in range(size) if rng.random() < p)
