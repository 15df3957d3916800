"""Checks for the connected-graph enumerator.

The isomorphism-class counts are pinned two ways: against the known
sequence 1, 1, 2, 6, 21, 112 and against an orbit-stabilizer recount
of the labeled totals (sum of n!/|Aut(G)| over class representatives
must equal the number of labeled connected graphs, which
``count_labeled_connected_graphs`` below computes by direct bitmask
enumeration, a completely separate code path).  The canonical forms and
the class lists are compared with the permutation-loop oracle of
``enumeration_oracle.py``; ``check_enumeration_n8.py`` does so at n = 8.
"""

import logging
import os
import subprocess
import sys
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import enumeration_oracle as oracle
import pytest

import graphconvex
from graphconvex import (
    connected_unit_graphs,
    count_connected_graphs,
    exhaustive_small_graph_sweep,
)
from graphconvex.enumeration import (
    _canonical_form,
    _canonical_masks,
    _child_forms,
    _neighbors,
    _pairs,
    _refine,
    _twin_classes,
)

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


def test_counting_needs_a_vertex():
    with pytest.raises(ValueError, match="need at least one vertex"):
        count_connected_graphs(0)


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_vertex_counts_must_be_ints(n):
    """A bool or a non-int is refused at the boundary: True is not taken for
    1, and 2.0 or "3" do not fail deep inside with a TypeError."""
    with pytest.raises(ValueError, match="must be an int vertex count"):
        count_connected_graphs(n)
    with pytest.raises(ValueError, match="must be an int vertex count"):
        connected_unit_graphs(n)
    with pytest.raises(ValueError, match="max_n must be an int vertex count"):
        exhaustive_small_graph_sweep("triangle_free", max_n=n, values=(0, 1))


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


def test_masks_match_the_oracle_up_to_seven():
    for n in range(1, 8):
        assert _canonical_masks(n) == oracle.canonical_masks(n), n


def test_form_matches_the_oracle_on_every_labeled_graph_up_to_five():
    for n in range(1, 6):
        for mask in range(1 << len(_pairs(n))):
            assert _canonical_form(n, mask) == oracle.canonical_form(n, mask), (n, mask)


def test_form_matches_the_oracle_on_random_graphs():
    for n in range(6, 10):
        for mask in oracle.random_masks(n, 250, 0):
            assert _canonical_form(n, mask) == oracle.canonical_form(n, mask), (n, mask)


def test_form_matches_the_oracle_on_one_cell_graphs():
    """Refinement leaves a single cell, so the oracle tries all n!
    orderings and the library's pruned search does the most merging."""
    for name, n, mask in oracle.one_cell_graphs():
        assert len(set(_refine(_neighbors(n, mask)))) == 1, name
        expected = oracle.SLOW_FORMS.get(name)
        if expected is None:
            expected = oracle.canonical_form(n, mask)
        assert _canonical_form(n, mask) == expected, name


def deletion_parent(n, mask):
    """The canonical form of G - u, relabeled to 0..n-2, for the first
    non-cut vertex u of least refined color."""
    colors = _refine(_neighbors(n, mask))
    edges = [p for k, p in enumerate(_pairs(n)) if mask >> k & 1]

    def minus(u):
        keep = [v for v in range(n) if v != u]
        label = {v: i for i, v in enumerate(keep)}
        return oracle.mask_of(n - 1, [(label[a], label[b]) for a, b in edges if u not in (a, b)])

    noncut = [u for u in range(n) if connected(n - 1, minus(u), _pairs(n - 1))]
    return _canonical_form(n - 1, minus(min(noncut, key=colors.__getitem__)))


def test_each_graph_is_a_child_of_its_canonical_deletion():
    """The filter keeps the child made from the parent left by deleting a
    non-cut vertex of least color, which is why every class is reached.
    In the first graph, two K4s joined through vertex 8, every vertex of
    least degree is a cut vertex, which takes at least 9 vertices."""
    blocks = [(a, b) for block in (range(4), range(4, 8)) for a, b in combinations(block, 2)]
    graphs = [(9, oracle.mask_of(9, blocks + [(0, 8), (4, 8)]))] + [
        (n, mask) for n in range(2, 10) for mask in oracle.random_masks(n, 25, 1)
        if connected(n, mask, _pairs(n))
    ]
    assert len(graphs) > 125
    for n, mask in graphs:
        assert _canonical_form(n, mask) in set(_child_forms(n, deletion_parent(n, mask))), (n, mask)


@pytest.mark.parametrize("name, n, edges, classes", [
    ("K1,3", 4, [(0, 1), (0, 2), (0, 3)], [[0], [1, 2, 3]]),
    ("K4", 4, list(combinations(range(4), 2)), [[0, 1, 2, 3]]),
    ("C4", 4, [(0, 1), (1, 2), (2, 3), (3, 0)], [[0, 2], [1, 3]]),
    ("P4", 4, [(0, 1), (1, 2), (2, 3)], [[0], [1], [2], [3]]),
])
def test_twin_classes(name, n, edges, classes):
    """True twins (K4, adjacent) and false twins (the leaves of K1,3 and the
    opposite corners of C4) share a class; P4 has none.  Swapping two
    members of a class keeps the edge set."""
    assert _twin_classes(_neighbors(n, oracle.mask_of(n, edges))) == classes, name
    edge_set = {frozenset(e) for e in edges}
    for members in classes:
        for u, v in combinations(members, 2):
            swap = {u: v, v: u}
            assert {frozenset(swap.get(x, x) for x in e) for e in edge_set} == edge_set


def test_every_canonical_deletion_child_is_tried():
    """For every parent on at most 5 vertices, each nonempty subset whose
    child has that parent as its canonical deletion gives a form among the
    parent's child forms, though the twin rule tries fewer subsets."""
    for n in range(2, 7):
        for parent in _canonical_masks(n - 1):
            edges = [p for k, p in enumerate(_pairs(n - 1)) if parent >> k & 1]
            forms = set(_child_forms(n, parent))
            for subset in range(1, 1 << n - 1):
                child = oracle.mask_of(n, edges + [(u, n - 1) for u in range(n - 1)
                                                   if subset >> u & 1])
                if deletion_parent(n, child) == parent:
                    assert _canonical_form(n, child) in forms, (n, parent, subset)


def test_enumeration_logs_one_record_per_vertex_count(caplog):
    _canonical_masks.cache_clear()
    with caplog.at_level(logging.INFO, logger="graphconvex.enumeration"):
        _canonical_masks(5)
    messages = [r.getMessage() for r in caplog.records if r.name == "graphconvex.enumeration"]
    assert [m.split(":")[0] for m in messages] == ["n=2", "n=3", "n=4", "n=5"]
    assert messages[-1].startswith(
        "n=5: 21 classes from 90 children, 37 skipped by the twin rule, 24 canonicalized, "
    )
    assert messages[-1].endswith(" s")


def run_fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this checkout."""
    src = str(Path(graphconvex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_enumeration_leaves_logging_unimported():
    """Before logging is imported nothing can show the progress record, so
    enumerating in a fresh process does not import it."""
    code = ("import sys, graphconvex; graphconvex.connected_unit_graphs(5); "
            "print('logging' in sys.modules)")
    assert run_fresh(code) == "False\n"


def test_import_and_sweeps_stay_lean():
    """Importing the package and the CLI and running one sweep of each kind
    loads none of dataclasses, inspect and logging, unless the bare
    interpreter had them already: the records are plain classes, and a
    sweep's log record is dropped while nothing has imported logging."""
    code = "\n".join([
        "import sys",
        "bare = set(sys.modules)",
        "import graphconvex, graphconvex.cli",
        "graphconvex.verify_degree2_equivalence(graphconvex.cycle(6))",
        "graphconvex.exhaustive_small_graph_sweep('triangle_free', max_n=4, values=(0, 1))",
        "graphconvex.sweep_subsets_dist_convex(graphconvex.path(5))",
        "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules) - bare))",
    ])
    assert run_fresh(code) == "[]\n"
