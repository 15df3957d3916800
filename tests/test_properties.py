"""Property tests: the metric's betweenness and the lattice checks against
independent oracles.

Distances for the graph oracles come from networkx, never from the library.
Weights are drawn from {1, 2, 0.5, 1.5}: graphs that draw only 1s and 2s
keep exact int distances, the others exercise the tolerant float path.
All sums of these weights are exact binary fractions.  The betweenness
tests also draw from {0.1, 0.2, 0.3}, whose sums are not: two paths of
equal length may differ in the last bits, so the oracle compares lengths
with its own relative tolerance, and the library must apply its own.  The
tests of the exact int path draw weights from {1, 2, 3} and compare
witnesses exactly, value types included; those of its ranked pass (at
sites no two neighbours refute) and its probe (at every violated site) on
certified metrics use unit weights only.

The lattice oracles scan the whole window, while the library visits
only the vectors that can matter; verdicts, first witnesses and set
distances must agree exactly, value types included.  Neighbourhood means
and the laplacian are checked against sums in fractions.

Graph files round-trip: ``parse_graph(format_graph(g))`` has the vertices
of g in the same order and its edges with equal weights of the same type.
"""

import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphconvex.lattice import GroupLattice, _plain_passes  # noqa: E402
from graphconvex import (  # noqa: E402
    NORMS,
    Graph,
    LatticeSpec,
    Metric,
    approx_le,
    betweenness_closure,
    brute_force_convex_hull,
    build_lattice,
    compare_to_neighborhood_mean,
    format_graph,
    convex_hull,
    has_nearest_neighbor_property,
    is_between,
    is_convex_at,
    is_midpoint_convex_at,
    laplacian,
    parse_graph,
    set_distance_function,
)

WEIGHTS = (1, 2, 0.5, 1.5)
ROUNDING_WEIGHTS = (0.1, 0.2, 0.3)  # 0.1 + 0.2 != 0.3 in floats
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def weighted_graphs(draw, connected=True, max_n=8, weights=WEIGHTS):
    """Edge list (u, v, w) on vertices 0..n-1: a random spanning tree (only
    some of its edges unless ``connected``) plus random chords."""
    n = draw(st.integers(1, max_n))
    edges = {}
    for v in range(1, n):
        if connected or draw(st.booleans()):
            edges[(draw(st.integers(0, v - 1)), v)] = draw(st.sampled_from(weights))
    others = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    if others:
        for p in draw(st.lists(st.sampled_from(others), unique=True)):
            edges[p] = draw(st.sampled_from(weights))
    return n, [(u, v, w) for (u, v), w in edges.items()]


def build(n, edges):
    g = Graph(edges, vertices=range(n))
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_weighted_edges_from(edges)
    d = dict(nx.shortest_path_length(ref, weight="weight"))
    return g, (lambda x, y: d[x].get(y, math.inf))


def between(d, x, z, y):
    """d(x, y) finite and equal to d(x, z) + d(z, y) up to a relative 1e-9:
    on the weights drawn here, lengths equal in the reals differ by float
    rounding alone, and unequal ones by at least 0.1."""
    dxy = d(x, y)
    return dxy < math.inf and abs(d(x, z) + d(z, y) - dxy) <= 1e-9 * max(1, dxy)


@PROPERTY
@given(weighted_graphs(connected=False, weights=(1,)))
def test_unit_weight_rows_match_networkx(graph):
    """BFS rows hold the networkx distances as plain ints (+inf when
    unreachable), and their shells are the bitmasks rebuilt from the row."""
    n, edges = graph
    g, d = build(n, edges)
    m = g.metric()
    for x in range(n):
        row, shells = m.row_source(x)
        assert row == [d(x, y) for y in range(n)]
        assert all(type(v) is int for v in row if v != math.inf)
        expected = {}
        for y, v in enumerate(row):
            if v != math.inf:
                expected[v] = expected.get(v, 0) | 1 << y
        assert shells == expected
        assert dict(g.distances_from(x)) == {y: v for y, v in enumerate(row) if v != math.inf}


@PROPERTY
@given(weighted_graphs(connected=False, weights=(1,)))
def test_float_unit_weights_keep_float_distances(graph):
    """The same graph with weights 1.0 gives equal distances, as floats,
    and no shells: only the int 1 takes the BFS (an edgeless graph has no
    other weight, so it does)."""
    n, edges = graph
    g = Graph(edges, vertices=range(n))
    h = Graph([(u, v, 1.0) for u, v, _ in edges], vertices=range(n))
    assert h.is_unit_weight
    hm = h.metric()
    for x in range(n):
        row, shells = hm.row_source(x)
        assert (shells is None) == bool(edges)
        assert row == g.metric().row_source(x)[0]
        assert all(type(v) is float for v in row if v != 0)
        assert [h.distance(x, y) for y in range(n)] == row


@PROPERTY
@given(weighted_graphs(connected=False, weights=(1, 2, 3)))
def test_int_weight_rows_carry_their_shells(graph):
    """Every int weight gives int rows with shells, from the heap unless
    every weight is 1: the shells rebuilt from the row, in distance order."""
    n, edges = graph
    g, d = build(n, edges)
    m = g.metric()
    for x in range(n):
        row, shells = m.row_source(x)
        assert row == [d(x, y) for y in range(n)]
        expected = {}
        for y in sorted(range(n), key=row.__getitem__):
            if row[y] != math.inf:
                expected[row[y]] = expected.get(row[y], 0) | 1 << y
        assert list(shells.items()) == list(expected.items())


def assert_through_matches(m, d, dense):
    """``m.through(i, k)`` against the j at finite distance from v_k with
    d(v_i, v_j) = d(v_k, v_i) + d(v_k, v_j), for every i at finite distance
    from v_k; rows are read as ``through`` asks for them, so ``m.dense`` may
    turn False between two calls, and ends as ``dense``."""
    verts = m.vertices
    for (k, z), (i, x) in itertools.product(enumerate(verts), repeat=2):
        if d(z, x) == math.inf:
            continue
        expected = sum(1 << j for j, y in enumerate(verts)
                       if d(z, y) < math.inf and d(x, y) == d(z, x) + d(z, y))
        assert m.through(i, k) == expected
    assert m.certified and m.dense == dense


# unit weights: breadth-first rows; weights 2 and 3: heap rows whose shells
# have gaps, so ``through`` pairs them by distance
@PROPERTY
@given(st.sampled_from(((1,), (2, 3))).flatmap(
    lambda w: weighted_graphs(connected=False, weights=w)))
def test_through_matches_distance_definition(graph):
    n, edges = graph
    g, d = build(n, edges)
    # the weights are all 1 or all 2 and 3, and any weight 2 or 3 leaves a gap
    assert_through_matches(g.metric(), d, dense=not edges or edges[0][2] == 1)


def graphs_of_both_weight_sets(connected):
    return st.sampled_from((WEIGHTS, ROUNDING_WEIGHTS)).flatmap(
        lambda w: weighted_graphs(connected=connected, weights=w))


@PROPERTY
@given(graphs_of_both_weight_sets(connected=True), st.data())
def test_hull_matches_brute_force(graph, data):
    n, edges = graph
    m = Graph(edges, vertices=range(n)).metric()
    members = data.draw(st.sets(st.integers(0, n - 1)))
    assert convex_hull(m, members) == brute_force_convex_hull(m, members)


@PROPERTY
@given(graphs_of_both_weight_sets(connected=False), st.data())
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


def assert_intervals_match(m, between, data, pairs=None):
    """``m.interval(i, j)`` and ``m.interval(i, j, among)`` against the k
    with ``between(x, k, y)``, on every pair or on ``pairs`` drawn ones, and
    ``is_between`` on a drawn middle vertex of each pair."""
    verts = m.vertices
    n = len(verts)
    if pairs is None:
        ends = list(itertools.product(range(n), repeat=2))
    else:
        ends = [(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
                for _ in range(pairs)]
    for i, j in ends:
        expected = sum(1 << k for k in range(n) if between(verts[i], verts[k], verts[j]))
        assert m.interval(i, j) == expected
        among = data.draw(st.integers(0, (1 << n) - 1))
        assert m.interval(i, j, among) == expected & among
        x, z, y = verts[i], verts[data.draw(st.integers(0, n - 1))], verts[j]
        assert is_between(m, x, z, y) == between(x, z, y)


# certified unit rows, int rows from the heap, float rows, rounded float
# rows, unreachable pairs
@PROPERTY
@given(st.sampled_from(((1,), (1, 2), WEIGHTS, ROUNDING_WEIGHTS)).flatmap(
    lambda w: weighted_graphs(connected=False, weights=w)), st.data())
def test_interval_matches_distance_definition(graph, data):
    n, edges = graph
    g, d = build(n, edges)
    assert_intervals_match(g.metric(), lambda x, z, y: between(d, x, z, y), data)


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


# int values that a float cannot hold exactly, or at all in a float sum
EXACT_VALUES = st.one_of(
    st.none(), st.integers(-3, 3), st.sampled_from((2**53 + 1, -(2**53 + 1), 10**30, -(10**30)))
)


def typed_witness(verdict):
    w = verdict.witness
    return None if w is None else (w.x, w.y, w.lhs, type(w.lhs), w.rhs, type(w.rhs))


def exact_scan(d, f, z):
    """The first violating pair at z in vertex order, with its exact
    quotient (an int when it divides), as :func:`typed_witness` gives it."""
    if z not in f:
        return None
    for x, y in itertools.combinations(sorted(f), 2):
        if d(x, y) > 0 and between(d, x, z, y):
            rhs = d(z, y) * f[x] + d(x, z) * f[y]
            if d(x, y) * f[z] > rhs:
                q = Fraction(rhs, d(x, y))
                q = int(q) if q.denominator == 1 else float(q)
                return (x, y, f[z], int, q, type(q))
    return None


@PROPERTY
@given(weighted_graphs(connected=False, weights=(1, 2, 3)), st.data())
def test_exact_convex_at_matches_pair_scan(graph, data):
    # int weights and int values are decided on bitmasks: the witness must be
    # the scan's first pair, with the exact quotient
    n, edges = graph
    g, d = build(n, edges)
    values = data.draw(st.lists(EXACT_VALUES, min_size=n, max_size=n))
    f = {v: fv for v, fv in enumerate(values) if fv is not None}
    m = g.metric()
    for z in range(n):
        assert typed_witness(is_convex_at(m, f, z)) == exact_scan(d, f, z)


@pytest.mark.parametrize("seed", range(6))
def test_exact_convex_at_matches_pair_scan_on_larger_graphs(seed):
    # 20-30 vertices: a vertex then often has more violators than distance
    # shells, so the exact path also filters them with whole shells
    rng = random.Random(seed)
    n = rng.randint(20, 30)
    edges = {(rng.randrange(v), v): rng.choice((1, 1, 2, 3)) for v in range(1, n)}
    for _ in range(n // 2):
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), 1)
    g, d = build(n, [(u, v, w) for (u, v), w in edges.items()])
    m = g.metric()
    for values in ((-1, 0, 1), (-3, 3, 2**53 + 1), (0, 1, 1, 1, 10**30)):
        f = {v: rng.choice(values) for v in range(n) if rng.random() < 0.9}
        for z in range(n):
            assert typed_witness(is_convex_at(m, f, z)) == exact_scan(d, f, z)


# the 10x10 grid, vertex (i, j) labelled 10 i + j
GRID_EDGES = [(10 * i + j, 10 * i + j + 1, 1) for i in range(10) for j in range(9)] + [
    (10 * i + j, 10 * i + j + 10, 1) for i in range(9) for j in range(10)
]


@pytest.mark.parametrize("seed", range(4))
def test_exact_convex_at_matches_pair_scan_on_certified_metrics(seed, ranked_passes):
    # unit weights give breadth-first rows with shells, a certified metric:
    # int data is refuted by two neighbours or else ranked, and the first
    # pair of every violated site is probed for pair by pair
    rng = random.Random(f"certified:{seed}")
    g, d = build(100, GRID_EDGES)
    a = rng.randrange(100)
    f = {v: d(v, a) for v in range(100) if rng.random() < 0.9}
    cases = [(g.metric(), d, f)]
    n = rng.randint(60, 90)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 3:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    g, d = build(n, [(u, v, 1) for u, v in edges])
    for values in (range(-3, 4), range(6), (-3, 3, 2**53 + 1)):
        f = {v: rng.choice(values) for v in range(n) if rng.random() < 0.9}
        cases.append((g.metric(), d, f))
    probed = ranked = 0
    for m, d, f in cases:
        m.row(0)
        assert m.certified
        for z in m.vertices:
            ranked_passes.clear()
            got = typed_witness(is_convex_at(m, f, z))
            assert got == exact_scan(d, f, z)
            if got is not None:
                probed += not ranked_passes
                ranked += bool(ranked_passes)
    assert probed and ranked


def test_convex_at_pins_a_probed_and_a_ranked_site(ranked_passes):
    # d(., 45) on the 10x10 grid at 6: its neighbours 5 and 16 refute
    # convexity, and the probe meets the first violating pair at its first
    # candidate; with 5 and 16 off the domain no neighbour pair refutes 6,
    # the ranked pass refutes it, and the probe finds the first violating
    # pair further on
    g, d = build(100, GRID_EDGES)
    m = g.metric()
    full = {v: d(v, 45) for v in range(100)}
    holes = {v: fv for v, fv in full.items() if v not in (5, 16)}
    for f, pair, ranked in ((full, (0, 16), []), (holes, (0, 26), [6])):
        verdict = is_convex_at(m, f, 6)
        assert typed_witness(verdict) == exact_scan(d, f, 6)
        assert (verdict.witness.x, verdict.witness.y) == pair
        assert ranked_passes == ranked


def test_the_witness_is_read_from_f_as_it_was_at_the_call(ranked_passes):
    # both violated sites of the test above: f refuted by two neighbours,
    # and f with 5 and 16 left out, refuted by the ranked pass; f then turns
    # constant, which is convex everywhere, before the witness is read
    g, d = build(100, GRID_EDGES)
    m = g.metric()
    for holes, pair, ranked in (((), (0, 16), []), ((5, 16), (0, 26), [6])):
        f = {v: d(v, 45) for v in range(100) if v not in holes}
        at_call = dict(f)
        ranked_passes.clear()
        verdict = is_convex_at(m, f, 6)
        assert not verdict.ok and ranked_passes == ranked
        f.clear()
        f.update(dict.fromkeys(range(100), 0))
        assert typed_witness(verdict) == exact_scan(d, at_call, 6)
        assert (verdict.witness.x, verdict.witness.y) == pair
        assert is_convex_at(m, f, 6).ok


def test_ranked_pass_scales_slopes_to_the_eccentricity(ranked_passes):
    # on the path 0..4 at 2 (eccentricity 2) no neighbour pair refutes
    # convexity, so the ranked pass decides; the first violating pair
    # (1, 4) rests on the slope of 4, (f(2) - f(4)) / 2, which lcm(1, 2)
    # must scale exactly
    g, d = build(5, [(i, i + 1, 1) for i in range(4)])
    f = dict(enumerate((3, 1, 0, 0, -3)))
    verdict = is_convex_at(g.metric(), f, 2)
    assert typed_witness(verdict) == exact_scan(d, f, 2)
    assert (verdict.witness.x, verdict.witness.y) == (1, 4)
    assert ranked_passes == [2]


@pytest.fixture
def through_calls(monkeypatch):
    """The (i, k) of every ``Metric.through`` call, in call order."""
    real, seen = Metric.through, []

    def through(m, i, k):
        seen.append((i, k))
        return real(m, i, k)

    monkeypatch.setattr(Metric, "through", through)
    return seen


def test_a_convex_ranked_site_reads_through_once_per_lower_value(ranked_passes, through_calls):
    # every violating pair has an end i with f(i) < f(k), so a convex site
    # needs the j with k between i and j for those i alone, each once;
    # d(., 45) on the 10x10 grid is convex at 40, with 41 values below f(40)
    g, d = build(100, GRID_EDGES)
    f = {v: d(v, 45) for v in range(100)}
    verdict = is_convex_at(g.metric(), f, 40)
    assert verdict.ok and verdict.witness is None
    assert ranked_passes == [40]
    lower = {v for v, fv in f.items() if fv < f[40]}
    assert len(lower) == 41
    ends = [i for i, _ in through_calls]
    assert len(ends) == len(set(ends)) and set(ends) <= lower


def test_the_first_positive_end_tried_need_not_end_the_first_pair(ranked_passes, through_calls):
    # on the path 0..6 at 3 the highest slope is that of 6, which has
    # partners, but the first violating pair in vertex order is (0, 4); no
    # neighbour pair refutes 3 (f(2) + f(4) = 1 >= 2 f(3))
    g, d = build(7, [(i, i + 1, 1) for i in range(6)])
    f = dict(enumerate((-3, 0, 1, 0, 0, 0, -6)))
    verdict = is_convex_at(g.metric(), f, 3)
    assert ranked_passes == [3]
    assert through_calls[0] == (6, 3)
    assert typed_witness(verdict) == exact_scan(d, f, 3)
    assert (verdict.witness.x, verdict.witness.y) == (0, 4)


@PROPERTY
@given(st.data())
def test_exact_convex_at_matches_pair_scan_on_int_tables(data):
    # a hand-built int distance table need not be symmetric away from z:
    # pairs x < y are still read from x's row, as the scan reads them
    n = data.draw(st.integers(2, 7))
    z = data.draw(st.integers(0, n - 1))
    table = [[0 if x == y else data.draw(st.integers(1, 4)) for y in range(n)] for x in range(n)]
    for x in range(n):
        table[x][z] = table[z][x]
    f = {x: data.draw(st.integers(-3, 3)) for x in range(n)}
    expected = None
    for x, y in itertools.combinations([v for v in range(n) if v != z], 2):
        dxy, dxz, dzy = table[x][y], table[x][z], table[z][y]
        if dxy == dxz + dzy and dxy * f[z] > dzy * f[x] + dxz * f[y]:
            expected = (x, y)
            break
    m = Metric(tuple(range(n)), lambda x, y: table[x][y])
    w = is_convex_at(m, f, z).witness
    assert (None if w is None else (w.x, w.y)) == expected


# ----------------------------------------------------------------------
# lattices: whole-window oracles
# ----------------------------------------------------------------------

# 0.1 + 0.2 != 0.3 in floats, so sums of these land inside the tolerance band
FLOAT_RANGE_VALUES = st.one_of(
    st.none(), st.integers(-3, 3), st.sampled_from((0.1, 0.2, 0.3, -0.7, 1.5, math.inf))
)
# ints no float holds exactly, or at all, and a Fraction: 10**400 next to a
# float is summed and scaled exactly, in fractions, by the oracle and the library
VALUES = st.one_of(
    FLOAT_RANGE_VALUES, st.sampled_from((2**53 + 1, 10**30, 10**400, Fraction(1, 3)))
)


@st.composite
def lattices(draw, norms=NORMS):
    """A window of dimension 1-3, each axis up to 8/5/3 points long."""
    dim = draw(st.integers(1, 3))
    longest = {1: 8, 2: 5, 3: 3}[dim]
    window = []
    for _ in range(dim):
        lo = draw(st.integers(-2, 1))
        window.append((lo, lo + draw(st.integers(0, longest - 1))))
    spec = LatticeSpec(dim, draw(st.sampled_from(norms)), draw(st.sampled_from((1, 1.5, 2))),
                       tuple(window))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # windows without an interior point
        return build_lattice(spec)


def partial_function(data, lat):
    """Values on a box one wider than the window on every side, so a check
    that read points outside the window would change its verdicts."""
    axes = [range(lo - 1, hi + 2) for lo, hi in lat.spec.window]
    f = {}
    for v in itertools.product(*axes):
        value = data.draw(VALUES)
        if value is not None:
            f[v] = value
    return f


def positive(z):
    return next((c > 0 for c in z if c), False)


def midpoint_oracle(lat, f, x):
    """First (z, 2 f(x), f(x+z) + f(x-z)) violating midpoint convexity,
    scanning z = p - x over every window point p."""
    if x not in f:
        return None
    for p in lat.window:
        z = tuple(a - b for a, b in zip(p, x))
        q = tuple(a - b for a, b in zip(x, z))
        if positive(z) and lat.spec.contains(q) and p in f and q in f:
            rhs = exact_sum(f[p], f[q])
            if not approx_le(2 * f[x], rhs):
                return (z, 2 * f[x], rhs)
    return None


def exact_sum(a, b):
    """a + b; an int beyond float range plus a float, which float addition
    cannot hold, is summed in fractions, and plus +inf is +inf."""
    try:
        return a + b
    except OverflowError:
        return math.inf if math.inf in (a, b) else Fraction(a) + Fraction(b)


def nn_oracle(lat, members):
    """First (y1, y2, z) that no member covers."""
    norm, pts = lat.spec.norm_value, sorted(members)
    for i, y1 in enumerate(pts):
        for y2 in pts[i:]:
            for z in lat.window:
                target = norm(tuple(a + b - 2 * c for a, b, c in zip(y1, y2, z)))
                if not any(
                    approx_le(2 * norm(tuple(a - c for a, c in zip(y, z))), target)
                    for y in pts
                ):
                    return (y1, y2, z)
    return None


def set_distance_oracle(m, members):
    f = {}
    for v in m.vertices:
        best = math.inf
        for y in members:
            d = m.dist(v, y)
            if d < best:
                best = d
        f[v] = best
    return f


def typed(values):
    return [(type(v), v) for v in values]


def assert_midpoint_matches_oracle(lat, f, x):
    verdict = is_midpoint_convex_at(lat, f, x)
    expected = midpoint_oracle(lat, f, x)
    assert verdict.ok == (expected is None)
    if expected is not None:
        w = verdict.witness
        assert typed((w.z, w.lhs, w.rhs)) == typed(expected)


@PROPERTY
@given(lattices(), st.data())
def test_midpoint_matches_window_scan(lat, data):
    """The oracle works in tuple arithmetic, so it checks the pickers of
    the flat layout in both of their readers: the tolerant scan of
    ``is_midpoint_convex_at`` and the plain pass, whose True is final."""
    f = partial_function(data, lat)
    settled = _plain_passes(lat, f)[0]
    for x in lat.window:
        assert_midpoint_matches_oracle(lat, f, x)
        if settled(x):
            assert midpoint_oracle(lat, f, x) is None


@pytest.mark.parametrize("window, box_sizes", [
    (((0, 0),), {0}),
    (((0, 1),), {0}),
    (((0, 2),), {0, 1}),
    (((0, 2), (0, 2)), {0, 1, 4}),  # a corner, the edge midpoints, the centre
])
def test_midpoint_on_empty_and_single_offset_boxes(window, box_sizes):
    """Boxes with no z and with one z, where a picker takes no value or
    one.  f = -|x|^2 fails 2 f(x) <= f(x + z) + f(x - z) for every z, so
    both readers must see exactly the points whose box is not empty."""
    lat = GroupLattice(LatticeSpec(len(window), "l1", 1, window))
    f = {x: -sum(c * c for c in x) for x in lat.window}
    settled = _plain_passes(lat, f)[0]
    assert {len(lat._offsets(x)[1]) for x in lat.window} == box_sizes
    for x in lat.window:
        box = lat._offsets(x)[1]
        assert settled(x) == (not box)
        assert_midpoint_matches_oracle(lat, f, x)
        verdict = is_midpoint_convex_at(lat, f, x)
        assert verdict.ok == (not box)
        if box:
            assert verdict.witness.z == box[0]


def test_midpoint_witness_after_a_translate_without_value():
    """The first z in box order has no value at x + z and a later z fails,
    so the plain pass stops on the missing value, and the scan skips that
    z and finds the later one."""
    lat = build_lattice(LatticeSpec(2, "l1", 1, ((0, 2), (0, 2))))
    f = {v: 0 for v in lat.window}
    f[(1, 1)] = 1
    del f[(1, 2)]  # x + z for z = (0, 1), the first offset of (1, 1)
    assert _plain_passes(lat, f)[0]((1, 1)) is False
    verdict = is_midpoint_convex_at(lat, f, (1, 1))
    assert not verdict
    assert verdict.witness.z == (1, -1)
    for x in lat.window:
        assert_midpoint_matches_oracle(lat, f, x)


def test_midpoint_on_3d_window_with_negative_corner():
    lat = build_lattice(LatticeSpec(3, "linf", 1, ((-2, 1), (-1, 1), (-3, 0))))
    f = {v: (v[0] * v[1] - v[2]) ** 2 % 5 - 2 for v in lat.window}
    f[(-1, 0, -2)] = 0.5
    del f[(0, 1, -1)]
    verdicts = [is_midpoint_convex_at(lat, f, x).ok for x in lat.window]
    assert any(verdicts) and not all(verdicts)
    for x in lat.window:
        assert_midpoint_matches_oracle(lat, f, x)


@PROPERTY
@given(lattices(), st.data())
def test_norm_metric_convexity_implies_midpoint_convexity(lat, data):
    """x lies between x + z and x - z with weights 1/2, so the two-point
    inequality of the norm metric contains the midpoint inequality."""
    f = partial_function(data, lat)
    m = lat.metric()
    for x in lat.window:
        if is_convex_at(m, f, x):
            assert is_midpoint_convex_at(lat, f, x)


@PROPERTY
@given(lattices())
def test_interior_matches_ball_containment(lat):
    spec = lat.spec
    expected = {
        x for x in lat.window
        if all(spec.contains(tuple(a + b for a, b in zip(x, z))) for z in spec.ball_offsets())
    }
    assert lat.interior == expected


@PROPERTY
@given(lattices(), st.data())
def test_nn_property_matches_triple_scan(lat, data):
    members = data.draw(st.sets(st.sampled_from(lat.window), max_size=4))
    verdict = has_nearest_neighbor_property(lat, members)
    expected = nn_oracle(lat, members)
    assert verdict.ok == (expected is None)
    if expected is not None:
        w = verdict.witness
        assert (w.y1, w.y2, w.z) == expected


@PROPERTY
@given(lattices(), st.data())
def test_lattice_set_distance_matches_norm_minimum(lat, data):
    members = data.draw(st.sets(st.sampled_from(lat.window), max_size=4))
    m = lat.metric()
    got, expected = set_distance_function(m, members), set_distance_oracle(m, members)
    assert list(got) == list(expected)
    assert typed(got.values()) == typed(expected.values())


@PROPERTY
@given(weighted_graphs(connected=False, weights=(1,)), st.data())
def test_graph_set_distance_matches_row_minimum(graph, data):
    n, edges = graph
    m = Graph(edges, vertices=range(n)).metric()
    members = data.draw(st.sets(st.integers(0, n - 1)))
    got, expected = set_distance_function(m, members), set_distance_oracle(m, members)
    assert list(got) == list(expected)
    assert typed(got.values()) == typed(expected.values())


@PROPERTY
@given(lattices(), st.data())
def test_interval_matches_norm_definition_on_lattices(lat, data):
    norm = {"l1": lambda v: sum(map(abs, v)), "linf": lambda v: max(map(abs, v)),
            "l2": lambda v: math.sqrt(sum(c * c for c in v))}[lat.spec.norm]

    def d(x, y):
        return norm([a - b for a, b in zip(x, y)])

    def on_segment(x, z, y):
        return math.isclose(d(x, z) + d(z, y), d(x, y), rel_tol=1e-9, abs_tol=1e-9)

    assert_intervals_match(lat.metric(), on_segment, data, pairs=8)


@PROPERTY
@given(lattices(norms=("l1", "linf")))
def test_through_matches_norm_definition_on_lattices(lat):
    norm = sum if lat.spec.norm == "l1" else max

    def d(x, y):
        return norm(abs(a - b) for a, b in zip(x, y))

    assert_through_matches(lat.metric(), d, dense=True)


# ----------------------------------------------------------------------
# neighborhood means and the laplacian: an exact Fraction oracle
# ----------------------------------------------------------------------


def mean_oracle(g, f, x, weighted):
    """(the verdicts allowed, the exact mean, the exact total weight) of f
    at x.  Within twice the tolerance band of equality, float rounding may
    make the library call a float case harmonic."""
    total, acc, infinite = Fraction(0), Fraction(0), False
    floats = isinstance(f[x], float)
    for y, w in g.neighbors(x).items():
        c = w if weighted else 1
        floats |= isinstance(c, float) or isinstance(f[y], float) and f[y] != math.inf
        total += Fraction(c)
        if f[y] == math.inf:
            infinite = True
        else:
            acc += Fraction(c) * Fraction(f[y])
    if infinite:
        return {"harmonic" if f[x] == math.inf else "subharmonic"}, math.inf, total
    if f[x] == math.inf:
        return {"neither"}, acc / total, total
    lhs = total * Fraction(f[x])
    exact = "harmonic" if lhs == acc else "subharmonic" if lhs < acc else "neither"
    allowed = {exact}
    if floats and abs(lhs - acc) <= Fraction(2e-9) * max(1, abs(lhs), abs(acc)):
        allowed.add("harmonic")
    return allowed, acc / total, total


def close(got, exact, scale=1):
    if exact == math.inf:
        return got == math.inf
    return abs(Fraction(got) - exact) <= Fraction(1e-9) * max(1, abs(exact), scale)


@PROPERTY
@given(weighted_graphs(connected=False), st.data())
def test_means_and_laplacian_match_fraction_oracle(graph, data):
    """Values include 10**400 next to floats, which float sums cannot hold."""
    n, edges = graph
    g = Graph(edges, vertices=range(n))
    f = {v: data.draw(VALUES.filter(lambda value: value is not None)) for v in range(n)}
    weighted = data.draw(st.booleans())
    for x in range(n):
        nbrs = g.neighbors(x)
        if not nbrs:
            continue
        cmp = compare_to_neighborhood_mean(g, f, x, weighted=weighted)
        allowed, mean, total = mean_oracle(g, f, x, weighted)
        assert cmp.verdict in allowed
        assert close(cmp.neighborhood_mean, mean)
        assert Fraction(cmp.total_weight) == total
        lap = laplacian(g, f, x)
        if f[x] == math.inf or any(f[y] == math.inf for y in nbrs):
            assert lap == math.inf
        else:
            terms = [Fraction(w) * (Fraction(f[y]) - Fraction(f[x])) for y, w in nbrs.items()]
            scale = sum(Fraction(w) * (abs(Fraction(f[y])) + abs(Fraction(f[x])))
                        for y, w in nbrs.items())
            assert close(lap, sum(terms), scale)


# ids of every kind a graph file holds: ints, int tuples (the empty one
# too) and names that read as neither
VERTEX_IDS = st.one_of(
    st.integers(-20, 10**20),
    st.lists(st.integers(-3, 3), max_size=3).map(tuple),
    st.text("abxyz_-", min_size=1, max_size=3).filter(lambda t: not t.lstrip("-").isdigit()),
)


@PROPERTY
@given(st.lists(VERTEX_IDS, min_size=1, max_size=8, unique=True), st.data())
def test_graph_files_round_trip(vertices, data):
    pairs = list(itertools.combinations(range(len(vertices)), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.sampled_from((None, 1, 2, 7, 10**30, 1.0, 0.5, 2.25, 0.1))
    edges = []
    for i, j in chosen:
        w = data.draw(weights)
        edges.append((vertices[i], vertices[j]) if w is None else (vertices[i], vertices[j], w))
    g = Graph(edges, vertices=vertices)
    g2 = parse_graph(format_graph(g))
    assert g2.vertices == g.vertices
    assert _typed_edges(g2) == _typed_edges(g)


def _typed_edges(g):
    return [(u, v, w, type(w)) for u, v, w in g.edges()]
