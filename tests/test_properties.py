"""Property tests: the betweenness engine against independent oracles.

Distances for the oracles come from networkx, never from the library.
Weights are drawn from {1, 2, 0.5, 1.5}: graphs that draw only 1s and 2s
keep exact int distances, the others exercise the tolerant float path.
All sums of these weights are exact binary fractions, so the oracles can
compare distances with ``==``.
"""

import itertools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphconvex import (  # noqa: E402
    Graph,
    betweenness_closure,
    brute_force_convex_hull,
    convex_hull,
    is_convex_at,
)

WEIGHTS = (1, 2, 0.5, 1.5)
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def weighted_graphs(draw, connected=True, max_n=8):
    """Edge list (u, v, w) on vertices 0..n-1: a random spanning tree (only
    some of its edges unless ``connected``) plus random chords."""
    n = draw(st.integers(1, max_n))
    edges = {}
    for v in range(1, n):
        if connected or draw(st.booleans()):
            edges[(draw(st.integers(0, v - 1)), v)] = draw(st.sampled_from(WEIGHTS))
    others = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    if others:
        for p in draw(st.lists(st.sampled_from(others), unique=True)):
            edges[p] = draw(st.sampled_from(WEIGHTS))
    return n, [(u, v, w) for (u, v), w in edges.items()]


def build(n, edges):
    g = Graph(edges, vertices=range(n))
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_weighted_edges_from(edges)
    d = dict(nx.shortest_path_length(ref, weight="weight"))
    return g, (lambda x, y: d[x].get(y, math.inf))


def between(d, x, z, y):
    return d(x, y) < math.inf and d(x, z) + d(z, y) == d(x, y)


@PROPERTY
@given(weighted_graphs(), st.data())
def test_hull_matches_brute_force(graph, data):
    n, edges = graph
    m = Graph(edges, vertices=range(n)).metric()
    members = data.draw(st.sets(st.integers(0, n - 1)))
    assert convex_hull(m, members) == brute_force_convex_hull(m, members)


@PROPERTY
@given(weighted_graphs(connected=False), st.data())
def test_closure_matches_interval_definition(graph, data):
    n, edges = graph
    g, d = build(n, edges)
    members = data.draw(st.sets(st.integers(0, n - 1)))
    expected = set(members) | {
        z for z in range(n)
        for x, y in itertools.combinations(sorted(members), 2)
        if between(d, x, z, y)
    }
    assert betweenness_closure(g.metric(), members) == expected


@PROPERTY
@given(weighted_graphs(connected=False), st.data())
def test_convex_at_matches_pair_scan(graph, data):
    n, edges = graph
    g, d = build(n, edges)
    values = data.draw(st.lists(st.one_of(st.none(), st.integers(-3, 3)), min_size=n, max_size=n))
    f = {v: fv for v, fv in enumerate(values) if fv is not None}
    m = g.metric()
    for z in range(n):
        expected = None
        if z in f:
            for x, y in itertools.combinations(sorted(f), 2):
                if d(x, y) > 0 and between(d, x, z, y):
                    rhs = d(z, y) * f[x] + d(x, z) * f[y]
                    if d(x, y) * f[z] > rhs:
                        expected = (x, y, f[z], rhs / d(x, y))
                        break
        verdict = is_convex_at(m, f, z)
        if expected is None:
            assert verdict.ok and verdict.witness is None
        else:
            w = verdict.witness
            assert not verdict.ok
            assert (w.x, w.y, w.lhs) == expected[:3]
            assert math.isclose(w.rhs, expected[3])
