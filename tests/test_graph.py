import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from graphconvex import (
    Graph, Metric, UnknownVertexError, cycle, grid, path, random_graph, sort_vertices,
)


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def test_vertices_are_sorted_and_immutable():
    g = Graph([(3, 1), (1, 2)], vertices=[5])
    assert g.vertices == (1, 2, 3, 5)
    assert g.vertex_count == 4
    assert g.edge_count == 2


def test_mixed_vertex_types_get_a_stable_order():
    g = Graph([("b", 1)], vertices=[(0, 1)])
    # natural sort fails on mixed types; the fallback orders by type name
    assert g.vertices == tuple(sort_vertices(g.vertices))
    assert set(g.vertices) == {1, "b", (0, 1)}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1, -1e-12])
def test_metric_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        path(3).metric(tol)


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph([(1, 1)])


def test_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate"):
        Graph([(1, 2), (2, 1)])


def test_rejects_bad_weights():
    with pytest.raises(ValueError, match="weight"):
        Graph([(1, 2, 0)])
    with pytest.raises(ValueError, match="weight"):
        Graph([(1, 2, -1.5)])
    with pytest.raises(ValueError, match="weight"):
        Graph([(1, 2, math.inf)])
    with pytest.raises(ValueError, match="weight"):
        Graph([(1, 2, True)])  # == 1, but no weight a graph file can spell
    for w in (math.nan, -math.inf, -10**400):  # -10**400 has no float
        with pytest.raises(ValueError, match="weight must be finite and positive"):
            Graph([(1, 2, w)])
    with pytest.raises(ValueError):
        Graph([(1, 2, 3, 4)])


def test_int_weights_beyond_float_range_are_exact():
    # neither weight has a float, so the weight check must compare ints exactly
    assert Graph([(0, 1, 10**400)]).distance(0, 1) == 10**400
    big = 2**1100
    m = Graph([(0, 1, big), (1, 2, big)]).metric()
    assert m.row(0) == [0, big, 2 * big] and all(type(d) is int for d in m.row(0))
    assert m.certified and m.shells(0) == {0: 0b1, big: 0b10, 2 * big: 0b100}


def test_an_int_weight_beyond_float_range_next_to_a_float_weight_is_rejected():
    # their sums overflowed in Dijkstra, and exact rows would overflow in
    # the interval and between-pair tests of a float metric instead
    for edges, bad in (([(0, 1, 10**400), (1, 2, 0.5)], "0-1"),
                       ([(1, 2, 0.5), (3, 4, 1), (5, 6, 10**400)], "5-6")):
        with pytest.raises(ValueError, match=f"^edge {bad}: an int weight beyond float range"):
            Graph(edges)
    # a float weight next to ints within float range stays a float metric
    assert Graph([(0, 1, 2**1000), (1, 2, 0.5)]).distance(0, 2) == 2.0**1000 + 0.5


def test_float_weights_whose_sum_passes_the_float_maximum_are_rejected():
    # d(0, 2) read as inf, so 0 and 2 looked disconnected and their hull {0, 2}
    for edges in ([(0, 1, 1e308), (1, 2, 1e308)], [(0, 1, 1e308), (1, 2, 10**308)],
                  [(0, 1, 1.7e308), (2, 3, 0.5), (1, 2, 1.7e308)]):
        with pytest.raises(ValueError, match="^the edge weights sum beyond float range"):
            Graph(edges)
    g = Graph([(0, 1, 1e308), (1, 2, 0.5e308)])
    assert (g.distance(0, 2), g.is_connected) == (1.5e308, True)
    # int weights alone stay exact beyond float range
    assert Graph([(0, 1, 10**308), (1, 2, 10**308)]).distance(0, 2) == 2 * 10**308


def test_neighbors_view_is_read_only():
    g = Graph([(1, 2)])
    with pytest.raises(TypeError):
        g.neighbors(1)[3] = 1  # type: ignore[index]


def test_unknown_vertex_errors():
    g = Graph([(1, 2)])
    with pytest.raises(UnknownVertexError):
        g.degree(99)
    with pytest.raises(UnknownVertexError):
        g.distance(1, 99)
    err = None
    try:
        g.neighbors("nope")
    except UnknownVertexError as exc:
        err = exc
    assert err is not None and err.vertex == "nope"


# ----------------------------------------------------------------------
# structure queries
# ----------------------------------------------------------------------


def test_degree_adjacent_triangle():
    g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
    assert g.degree(2) == 3
    assert g.adjacent(0, 1) and not g.adjacent(0, 3)
    assert g.in_triangle(0) and g.in_triangle(1) and g.in_triangle(2)
    assert not g.in_triangle(3)


def test_cycle_has_no_triangles_from_length_four():
    assert all(not cycle(4).in_triangle(v) for v in cycle(4).vertices)
    assert all(cycle(3).in_triangle(v) for v in cycle(3).vertices)


def test_edges_iterates_each_edge_once_deterministically():
    g = cycle(4)
    listed = list(g.edges())
    assert listed == [(0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)]
    assert listed == list(g.edges())


def test_unit_weight_flag():
    assert cycle(5).is_unit_weight
    assert not Graph([(0, 1, 2)]).is_unit_weight
    assert Graph([(0, 1, 1.0)]).is_unit_weight  # 1.0 == 1


def test_only_int_unit_weights_take_the_bfs():
    # 1.0 counts as a unit weight, but its rows come from the heap as
    # floats and without shells; the int 1 gives int rows with shells
    floats = Graph([(0, 1, 1.0)])
    assert floats.is_unit_weight
    row, shells = floats.metric().row_source(0)
    assert shells is None and row == [0, 1.0] and type(row[1]) is float
    assert type(floats.distance(0, 1)) is float
    ints = Graph([(0, 1, 1)], vertices=[2])
    assert ints.metric().row_source(0) == ([0, 1, math.inf], {0: 0b1, 1: 0b10})
    assert type(ints.distance(0, 1)) is int


def test_only_row_sources_certify_a_metric():
    # shells come from the row source alone: int weights give them, in
    # distance order and with gaps where no distance falls; floats and a
    # hand-built Metric over the same int distances give none
    g = Graph([(0, 1, 2), (1, 2, 3), (0, 3, 5)], vertices=[4])
    m = g.metric()
    assert m.row(0) == [0, 2, 5, 5, math.inf]
    assert m.shells(0) == {0: 0b1, 2: 0b10, 5: 0b1100} and list(m.shells(0)) == [0, 2, 5]
    assert m.certified and not m.dense
    for m in (Metric(g.vertices, g.distance), Graph([(0, 1, 2.0)]).metric()):
        assert m.row(0)[0] == 0
        assert not m.certified and m.shells(0) is None and m.shells(1) is None


def test_is_connected():
    assert cycle(6).is_connected
    assert not Graph([(0, 1), (2, 3)]).is_connected
    assert Graph().is_connected  # vacuously


# ----------------------------------------------------------------------
# shortest-path distances
# ----------------------------------------------------------------------


def test_unit_distances_are_exact_ints():
    g = cycle(6)
    d = g.distance(0, 3)
    assert d == 3 and isinstance(d, int)
    assert g.distance(0, 5) == 1
    assert g.distance(2, 2) == 0


def test_weighted_shortest_path_prefers_light_detour():
    # direct edge weight 10 vs two-hop route of weight 3
    g = Graph([(0, 2, 10), (0, 1, 1), (1, 2, 2)])
    assert g.distance(0, 2) == 3
    assert g.distance(2, 0) == 3


def test_float_weights_give_float_distances():
    g = Graph([(0, 1, 0.5), (1, 2, 0.25)])
    assert g.distance(0, 2) == pytest.approx(0.75)


def test_unreachable_is_inf():
    g = Graph([(0, 1)], vertices=[2])
    assert g.distance(0, 2) == math.inf
    assert 2 not in g.distances_from(0)


def test_grid_distance_is_manhattan():
    g = grid(4, 4)
    for (x1, y1) in g.vertices:
        for (x2, y2) in g.vertices:
            assert g.distance((x1, y1), (x2, y2)) == abs(x1 - x2) + abs(y1 - y2)


def test_metric_axioms_exhaustively_on_small_graphs():
    """Nonnegativity, identity, symmetry and the triangle inequality over
    all vertex triples, on a mix of unit, weighted and disconnected graphs."""
    rng = random.Random("metric-axioms")
    candidates = [cycle(5), path(6), grid(3, 3), Graph([(0, 1), (2, 3)], vertices=[4])]
    for k in range(5):
        g = random_graph(6, 0.4, rng)
        candidates.append(g)
    weighted = Graph([(0, 1, 2.5), (1, 2, 0.5), (2, 3, 4), (3, 0, 1)])
    candidates.append(weighted)
    for g in candidates:
        for x in g.vertices:
            assert g.distance(x, x) == 0
            for y in g.vertices:
                d = g.distance(x, y)
                assert d >= 0
                assert d == g.distance(y, x)
                if x != y and d < math.inf:
                    assert d > 0
                for z in g.vertices:
                    assert g.distance(x, y) <= g.distance(x, z) + g.distance(z, y)


def test_distance_rows_are_cached_and_consistent():
    g = cycle(8)
    row1 = g.distances_from(0)
    row2 = g.distances_from(0)
    assert row1 is row2  # same cached row object
    assert dict(row1) == {v: min(v, 8 - v) for v in g.vertices}


def test_parallel_distance_queries_agree_with_serial():
    g = grid(5, 5)
    serial = {(u, v): g.distance(u, v) for u in g.vertices for v in g.vertices}
    g2 = grid(5, 5)
    pairs = list(serial)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda p: g2.distance(*p), pairs))
    assert results == [serial[p] for p in pairs]


def test_metric_wrapper():
    g = cycle(4)
    m = g.metric()
    assert m.vertices == g.vertices
    assert m.dist(0, 2) == 2
    assert m.tol == 1e-9
