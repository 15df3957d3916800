"""Checks for the connected-graph enumerator.

The isomorphism-class counts are pinned two ways: against the known
sequence 1, 1, 2, 6, 21, 112 and against an orbit-stabilizer recount
of the labeled totals (sum of n!/|Aut(G)| over class representatives
must equal the number of labeled connected graphs, which
``count_labeled_connected_graphs`` below computes by direct bitmask
enumeration, a completely separate code path).
"""

from itertools import combinations, permutations
from math import factorial

import pytest

from graphconvex import connected_unit_graphs, count_connected_graphs
from graphconvex.enumeration import _canonical_form, _canonical_masks, _pairs

ISO_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349
LABELED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def count_labeled_connected_graphs(n):
    """Connected graphs on labeled vertices 0..n-1 (no de-duplication), one
    edge mask over ``combinations(range(n), 2)`` at a time."""
    pairs = list(combinations(range(n), 2))
    return sum(1 for mask in range(1 << len(pairs)) if connected(n, mask, pairs))


def connected(n, mask, pairs):
    """Depth-first search from vertex 0 over the edges of ``mask``."""
    nbrs = [[] for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        if mask >> k & 1:
            nbrs[i].append(j)
            nbrs[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def automorphism_count(g):
    n = g.vertex_count
    edges = {frozenset((u, v)) for u, v, _ in g.edges()}
    count = 0
    for perm in permutations(range(n)):
        if all((frozenset((perm[u], perm[v])) in edges) == (frozenset((u, v)) in edges)
               for u, v in combinations(range(n), 2)):
            count += 1
    return count


def brute_force_isomorphic(g, h):
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    eg = {frozenset((u, v)) for u, v, _ in g.edges()}
    eh = {frozenset((u, v)) for u, v, _ in h.edges()}
    return any(
        all(frozenset((perm[u], perm[v])) in eh for u, v in eg)
        for perm in permutations(range(g.vertex_count))
    )


def test_isomorphism_class_counts():
    for n, expected in ISO_COUNTS.items():
        assert count_connected_graphs(n) == expected


def test_classes_match_the_networkx_atlas():
    """Every connected graph of the atlas (all graphs up to 7 vertices),
    canonicalized, gives exactly the enumerated classes."""
    nx = pytest.importorskip("networkx")
    atlas: dict[int, set[int]] = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n == 0 or not nx.is_connected(h):
            continue
        slot = {p: k for k, p in enumerate(_pairs(n))}
        mask = sum(1 << slot[tuple(sorted(e))] for e in h.edges())
        atlas[n].add(_canonical_form(n, mask))
    for n, classes in atlas.items():
        assert classes == set(_canonical_masks(n)), n
        assert len(classes) == ISO_COUNTS[n]


def test_labeled_counts():
    for n, expected in LABELED_COUNTS.items():
        assert count_labeled_connected_graphs(n) == expected


def test_orbit_stabilizer_cross_check():
    for n in range(1, 7):
        reps = connected_unit_graphs(n)
        total = sum(factorial(n) // automorphism_count(g) for g in reps)
        assert total == count_labeled_connected_graphs(n), n


def test_representatives_are_connected_unit_graphs():
    for n in range(1, 7):
        for g in connected_unit_graphs(n):
            assert g.vertex_count == n
            assert g.is_connected
            assert g.is_unit_weight
            assert g.vertices == tuple(range(n))


def test_representatives_pairwise_nonisomorphic():
    for n in range(1, 6):
        reps = connected_unit_graphs(n)
        for g, h in combinations(reps, 2):
            assert not brute_force_isomorphic(g, h)


def test_enumeration_is_deterministic():
    first = [sorted(g.edges()) for g in connected_unit_graphs(5)]
    second = [sorted(g.edges()) for g in connected_unit_graphs(5)]
    assert first == second
