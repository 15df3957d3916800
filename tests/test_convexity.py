import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from graphconvex import (
    ConvexityVerdict,
    ConvexityWitness,
    Graph,
    LatticeSpec,
    Metric,
    UnknownVertexError,
    betweenness_closure,
    brute_force_convex_hull,
    build_lattice,
    convex_hull,
    cycle,
    distance_function,
    distance_to_set,
    grid,
    indicator,
    int_path,
    is_between,
    is_convex_at,
    is_convex_set,
    path,
    random_connected_graph,
    set_distance_function,
)
from graphconvex import convexity, graph, theorems

INF = math.inf


# ----------------------------------------------------------------------
# betweenness
# ----------------------------------------------------------------------


def test_is_between_on_path():
    m = path(5).metric()
    assert is_between(m, 0, 2, 4)
    assert is_between(m, 0, 0, 4)  # endpoints are between themselves
    assert is_between(m, 4, 2, 0)
    assert not is_between(m, 0, 4, 2)


def test_is_between_on_lettered_square(lettered_square):
    m = lettered_square.metric()
    # both x and y (and a and z) lie between the antipodal pair... of their sides
    assert is_between(m, "x", "a", "z")
    assert is_between(m, "x", "y", "z")
    assert not is_between(m, "a", "y", "x")


def test_is_between_rejects_unknown_vertices():
    with pytest.raises(UnknownVertexError):
        is_between(path(3).metric(), 0, 7, 2)


def test_between_ignores_unreachable_pairs():
    g = Graph([(0, 1)], vertices=[2])
    m = g.metric()
    assert not is_between(m, 0, 1, 2)
    assert not is_between(m, 0, 2, 1)


# ----------------------------------------------------------------------
# closure and hull
# ----------------------------------------------------------------------


def test_one_step_closure_on_lettered_square(lettered_square):
    m = lettered_square.metric()
    got = betweenness_closure(m, {"x", "z"})
    assert got == {"a", "x", "y", "z"}


def test_closure_trivia(lettered_square):
    m = lettered_square.metric()
    assert betweenness_closure(m, set()) == frozenset()
    assert betweenness_closure(m, {"a"}) == {"a"}
    with pytest.raises(UnknownVertexError):
        betweenness_closure(m, {"q"})


def test_hull_on_lettered_square(lettered_square):
    m = lettered_square.metric()
    assert convex_hull(m, {"x", "z"}) == frozenset(m.vertices)
    assert convex_hull(m, set()) == frozenset()
    assert convex_hull(m, {"y"}) == {"y"}


def test_hull_on_path_is_the_interval():
    m = path(7).metric()
    assert convex_hull(m, {1, 5}) == {1, 2, 3, 4, 5}
    assert convex_hull(m, {0, 2, 3}) == {0, 1, 2, 3}


def test_closure_on_unit_graphs_needs_no_approx_eq(monkeypatch):
    # unit-weight rows are plain ints: the metric's intervals come from the
    # distance shells
    def refuse(*args):
        raise AssertionError("approx_eq called")

    m = grid(4, 5).metric()
    monkeypatch.setattr(graph, "approx_eq", refuse)
    corners = {(0, 0), (3, 4)}
    assert betweenness_closure(m, corners) == set(m.vertices)
    assert betweenness_closure(m, {(0, 0), (0, 3)}) == {(0, j) for j in range(4)}
    assert convex_hull(m, {(1, 1), (2, 3)}) == {(i, j) for i in (1, 2) for j in (1, 2, 3)}
    square = Graph([("a", "x"), ("x", "y"), ("y", "z"), ("z", "a")]).metric()
    assert betweenness_closure(square, {"a", "y"}) == {"a", "x", "y", "z"}
    assert convex_hull(square, {"a", "x"}) == {"a", "x"}


def test_closure_and_hull_apply_the_tolerance_to_float_sums():
    # 0.1 + 0.2 != 0.3 in floats, yet 1 lies between 0 and 2 on this triangle
    m = Graph([(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)]).metric()
    assert m.row(0)[2] == 0.3 != m.row(0)[1] + m.row(1)[2]
    assert is_between(m, 0, 1, 2)
    assert betweenness_closure(m, {0, 2}) == convex_hull(m, {0, 2}) == {0, 1, 2}
    assert brute_force_convex_hull(m, {0, 2}) == {0, 1, 2}


def test_brute_force_hull_skips_unreachable_vertices_beyond_float_range():
    # 10**400 + inf overflowed once a vertex at infinite distance was tried
    m = Graph([(0, 1, 10**400), (1, 2, 10**400), (3, 4, 1)]).metric()
    for members in ({0, 2}, {0, 3}, {3, 4}, {1}):
        assert brute_force_convex_hull(m, members) == convex_hull(m, members)
    assert brute_force_convex_hull(m, {0, 2}) == {0, 1, 2}


def test_brute_force_hull_checks_its_cap_and_members():
    with pytest.raises(ValueError, match="limited to 14 vertices, got 15"):
        brute_force_convex_hull(path(15).metric(), {0})
    with pytest.raises(UnknownVertexError):
        brute_force_convex_hull(path(4).metric(), {0, 9})


def test_hull_on_grid_is_the_bounding_box():
    m = grid(5, 5).metric()
    hull = convex_hull(m, {(0, 0), (2, 2)})
    assert hull == {(i, j) for i in range(3) for j in range(3)}
    assert len(hull) == 9


def test_hull_needs_multiple_rounds():
    # on a path, c1({0, 4}) already gives the whole interval, so force
    # stepwise growth with two far apart points on a larger cycle
    m = cycle(9).metric()
    a = betweenness_closure(m, {0, 3})
    assert a == {0, 1, 2, 3}
    assert convex_hull(m, {0, 3}) == {0, 1, 2, 3}


def test_is_convex_set(lettered_square):
    m = lettered_square.metric()
    assert not is_convex_set(m, {"x", "y", "z"})
    assert is_convex_set(m, set(m.vertices))
    assert is_convex_set(m, set())
    assert is_convex_set(m, {"a", "x"})
    pm = path(6).metric()
    assert is_convex_set(pm, {2, 3, 4})
    assert not is_convex_set(pm, {2, 4})


# ----------------------------------------------------------------------
# convex functions
# ----------------------------------------------------------------------


def test_distance_function_fails_at_opposite_vertex(lettered_square):
    m = lettered_square.metric()
    f = distance_function(m, "a")
    assert f == {"a": 0, "x": 1, "y": 2, "z": 1}
    verdict = is_convex_at(m, f, "y")
    assert not verdict
    assert verdict.vertex == "y"
    w = verdict.witness
    assert {w.x, w.y} == {"x", "z"}
    assert w.lhs == 2
    assert w.rhs == 1  # exactly 1, computed in integer arithmetic
    assert isinstance(w.rhs, int)
    # ... and is fine everywhere else
    for z in ("a", "x", "z"):
        assert is_convex_at(m, f, z)


def test_convexity_on_path_interval_functions():
    m = int_path(-5, 5).metric()
    f = {v: abs(v) for v in m.vertices}
    assert all(is_convex_at(m, f, z) for z in m.vertices)
    g = {v: -abs(v) for v in m.vertices}
    # chords crossing the kink dip below -|v|, so every interior vertex fails
    bad = [z for z in m.vertices if not is_convex_at(m, g, z)]
    assert bad == list(range(-4, 5))


def test_convexity_skips_missing_values():
    m = path(5).metric()
    f = {0: 0, 4: 0, 2: 5}  # no values at 1 and 3
    v = is_convex_at(m, f, 2)
    assert not v and v.witness.lhs == 5
    assert is_convex_at(m, {0: 0, 4: 0}, 2)  # z itself unset: vacuous
    partial = {0: 0, 2: 5}  # pair (0, 4) now lacks an endpoint value
    assert is_convex_at(m, partial, 2) is not None


def test_convexity_with_infinite_values():
    m = path(4).metric()
    chi = indicator({0, 1}, m.vertices)
    assert chi == {0: 0, 1: 0, 2: INF, 3: INF}
    assert all(is_convex_at(m, chi, z) for z in m.vertices)
    # an infinite gap inside finite values is not convex
    f = {0: 0, 1: INF, 2: 0, 3: 0}
    assert not is_convex_at(m, f, 1)


def test_convexity_unknown_vertex(lettered_square):
    m = lettered_square.metric()
    with pytest.raises(UnknownVertexError):
        is_convex_at(m, {"a": 0}, "nope")


def test_weighted_metric_convexity():
    g = Graph([(0, 1, 2.0), (1, 2, 1.0)])
    m = g.metric()
    f = {0: 0.0, 1: 2.0, 2: 3.0}  # f = d(., 0): convex everywhere
    assert all(is_convex_at(m, f, z) for z in m.vertices)
    f[1] = 2.5  # now above the chord between 0 and 2
    assert not is_convex_at(m, f, 1)


# ----------------------------------------------------------------------
# indicator functions tie sets to functions
# ----------------------------------------------------------------------


def test_indicator_validates_members():
    with pytest.raises(UnknownVertexError):
        indicator({9}, cycle(3).vertices)


def test_indicator_convex_iff_set_convex_seeded_sweep():
    """chi_A is convex at every vertex exactly when A is a convex set."""
    rng = random.Random("indicator-sweep")
    for trial in range(40):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng.uniform(0.3, 0.9), rng)
        m = g.metric()
        size = rng.randint(1, n)
        members = set(rng.sample(list(m.vertices), size))
        chi = indicator(members, m.vertices)
        fn_convex = all(is_convex_at(m, chi, z) for z in m.vertices)
        assert fn_convex == is_convex_set(m, members), (g.adjacency(), members)


# ----------------------------------------------------------------------
# distance-to-set
# ----------------------------------------------------------------------


def test_distance_to_set():
    m = path(5).metric()
    assert distance_to_set(m, 0, {3, 4}) == 3
    assert distance_to_set(m, 3, {3, 4}) == 0
    assert distance_to_set(m, 2, set()) == INF
    f = set_distance_function(m, {0, 4})
    assert f == {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}


def test_distance_to_set_unreachable_component():
    g = Graph([(0, 1), (2, 3)])
    m = g.metric()
    assert distance_to_set(m, 0, {2}) == INF


def test_set_distances_reject_unknown_vertices():
    line = build_lattice(LatticeSpec(1, "l1", 1, ((0, 4),)))
    for m, known, unknown in ((path(5).metric(), 4, 99), (line.metric(), (4,), (99,))):
        with pytest.raises(UnknownVertexError):
            set_distance_function(m, [known, unknown])
        with pytest.raises(UnknownVertexError):
            distance_to_set(m, known, [unknown])
        with pytest.raises(UnknownVertexError):
            distance_to_set(m, unknown, [known])


# ----------------------------------------------------------------------
# hull oracle (independent route)
# ----------------------------------------------------------------------


def test_brute_force_oracle_matches_hull_on_all_square_subsets(lettered_square):
    m = lettered_square.metric()
    verts = list(m.vertices)
    for mask in range(1 << len(verts)):
        subset = {v for i, v in enumerate(verts) if mask >> i & 1}
        assert brute_force_convex_hull(m, subset) == convex_hull(m, subset)


def test_brute_force_oracle_random_graphs():
    rng = random.Random("hull-oracle")
    for trial in range(10):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng.uniform(0.25, 0.8), rng)
        m = g.metric()
        verts = list(m.vertices)
        for _ in range(25):
            subset = {v for v in verts if rng.random() < 0.4}
            assert brute_force_convex_hull(m, subset) == convex_hull(m, subset)


def test_hull_closure_properties_quick():
    rng = random.Random("hull-props")
    g = random_connected_graph(7, 0.4, rng)
    m = g.metric()
    verts = list(m.vertices)
    for _ in range(20):
        a = {v for v in verts if rng.random() < 0.3}
        b = a | {v for v in verts if rng.random() < 0.3}
        ha, hb = convex_hull(m, a), convex_hull(m, b)
        assert a <= ha  # extensive
        assert ha <= hb  # monotone
        assert convex_hull(m, ha) == ha  # idempotent
        assert is_convex_set(m, ha & hb)  # intersection of convex is convex


# ----------------------------------------------------------------------
# exact integers and value validation
# ----------------------------------------------------------------------


def test_is_convex_at_is_exact_on_large_ints():
    # 2 * 10**10 > 0 + (2 * 10**10 - 2) by 2, far inside a relative 1e-9 band
    f = {0: 0, 1: 10**10, 2: 2 * 10**10 - 2}
    verdict = is_convex_at(path(3).metric(), f, 1)
    assert not verdict
    w = verdict.witness
    assert (w.x, w.y, w.lhs, w.rhs) == (0, 2, 10**10, 9999999999)


def test_is_convex_at_is_exact_beyond_float_range_on_float_distances():
    # l2 distances are floats; the ints below overflow any float product
    m = build_lattice(LatticeSpec(1, "l2", 1, ((0, 4),))).metric()
    f = dict(zip(m.vertices, (0, 10**400, 0.5, 1, 2)))
    assert [is_convex_at(m, f, x).ok for x in m.vertices] == [True, False, True, True, True]
    f = dict(zip(m.vertices, (-(10**400), 0, 0.5, 1, 2)))
    w = is_convex_at(m, f, (1,)).witness
    assert (w.x, w.y, w.lhs) == ((0,), (2,), 0)
    assert w.rhs == Fraction(-2 * 10**400 + 1, 4) and isinstance(w.rhs, Fraction)


def test_is_convex_at_rejects_nan_and_minus_inf():
    m = path(3).metric()
    with pytest.raises(ValueError):
        is_convex_at(m, {0: 0, 1: math.nan, 2: 0}, 1)
    with pytest.raises(ValueError):
        is_convex_at(m, {0: -INF, 1: 0, 2: 0}, 1)
    with pytest.raises(ValueError):
        is_convex_at(m, {0: "0", 1: 0, 2: 0}, 1)
    with pytest.raises(ValueError):  # also where z has no value to check
        is_convex_at(m, {0: math.nan, 2: 0}, 1)


def test_is_convex_at_reads_only_rows_of_the_domain():
    # a three-point domain on a 300-vertex path reads the rows of z and of
    # the domain only, not all n rows
    g = path(300)
    sources = set()

    def dist(x, y):
        sources.add(x)
        return g.distance(x, y)

    verdict = is_convex_at(Metric(g.vertices, dist), {0: 0, 150: 5, 299: 0}, 150)
    assert (verdict.witness.x, verdict.witness.y) == (0, 299)
    assert sources <= {0, 150, 299}
    sources.clear()
    linear = {0: 0, 150: 150, 299: 299}
    assert is_convex_at(Metric(g.vertices, dist), linear, 150)
    assert sources <= {0, 150, 299}
    sources.clear()
    # float values take the pair scan, which reads every row of the domain
    linear_float = {v: float(fv) for v, fv in linear.items()}
    assert is_convex_at(Metric(g.vertices, dist), linear_float, 150)
    assert sources == {0, 150, 299}


def test_int_data_never_takes_the_pair_scan(monkeypatch):
    # int distances with int values are decided on bitmasks; a float
    # distance or value, a Fraction or +inf still takes the pair scan
    real_scan = Metric.between_pairs

    def no_scan(self, k, candidates):
        raise AssertionError("int data reached the pair scan")

    monkeypatch.setattr(Metric, "between_pairs", no_scan)
    rng = random.Random(7)
    disconnected = Graph([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], vertices=range(7))
    weighted = Graph([(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 0, 4), (1, 3, 2)])
    # l1 and linf windows are certified too; each witness is read, so that
    # a verdict settled by two neighbours still runs its pair search
    l1, linf = (build_lattice(LatticeSpec(2, norm, 1, ((0, 3), (0, 4)))).metric()
                for norm in ("l1", "linf"))
    violations = 0
    for m in (*(g.metric() for g in (grid(4, 4), cycle(9), disconnected, weighted)), l1, linf):
        for f in (
            {v: rng.randint(-3, 3) for v in m.vertices},
            {v: rng.choice((10**30, -(10**30), 2**53 + 1)) for v in m.vertices[::2]},
        ):
            violations += sum(is_convex_at(m, f, z).witness is not None for z in m.vertices)
    assert violations > 0

    scanned = []

    def counting_scan(self, k, candidates):
        scanned.append(k)
        return real_scan(self, k, candidates)

    monkeypatch.setattr(Metric, "between_pairs", counting_scan)
    cases = [
        (Graph([(0, 1, 1.5), (1, 2, 1), (2, 3, 0.5)]).metric(), {0: 0, 1: 1, 2: 2, 3: 0}),
        (path(4).metric(), {0: 0, 1: 1.0, 2: 2, 3: 0}),
        (path(4).metric(), {0: 0, 1: Fraction(1, 3), 2: 2, 3: 0}),
        (path(4).metric(), {0: 0, 1: INF, 2: 2, 3: 0}),
    ]
    for m, f in cases:
        scanned.clear()
        is_convex_at(m, f, 2)
        assert scanned == [2]


# ----------------------------------------------------------------------
# the verdict first, the witness when read
# ----------------------------------------------------------------------


def first_pair(m, f, z):
    """``(x, y, f(z), rhs)`` of the first violating pair at z of the int
    function f, by the ordered pair scan; None when f is convex at z."""
    verts, k = m.vertices, m.index[z]
    for i, j, dij, dkj, dik in m.between_pairs(k, [i for i, v in enumerate(verts) if v in f]):
        x, y = verts[i], verts[j]
        rhs = dkj * f[x] + dik * f[y]
        if dij * f[z] > rhs:
            q = Fraction(rhs, dij)
            return x, y, f[z], int(q) if q.denominator == 1 else float(q)
    return None


@pytest.fixture()
def witness_searches(monkeypatch):
    """The first-pair searches run, as (vertex, found) pairs."""
    runs = []
    real = convexity._first_witness

    def counting(m, f, k, search):
        w = real(m, f, k, search)
        runs.append((m.vertices[k], w is not None))
        return w

    monkeypatch.setattr(convexity, "_first_witness", counting)
    return runs


def test_convexity_verdict_keeps_its_record_behaviour(witness_searches):
    m = cycle(4).metric()
    lazy = is_convex_at(m, {0: 0, 1: 1, 2: 2, 3: 1}, 2)  # refuted by neighbours 1 and 3
    assert not lazy and witness_searches == []
    eager = ConvexityVerdict(False, 2, ConvexityWitness(1, 3, 2, 1))
    assert ConvexityVerdict.__match_args__ == ("ok", "vertex", "witness")
    match lazy:
        case ConvexityVerdict(ok, vertex, witness):
            pass
    assert (ok, vertex, witness) == (False, 2, (1, 3, 2, 1))
    assert repr(lazy) == repr(eager) == (
        "ConvexityVerdict(ok=False, vertex=2, witness=ConvexityWitness(x=1, y=3, lhs=2, rhs=1))"
    )
    assert lazy == eager and hash(lazy) == hash(eager)
    assert lazy != ConvexityVerdict(False, 2, ConvexityWitness(3, 1, 2, 1))
    assert lazy != (False, 2, eager.witness)  # a record, not a tuple
    assert copy.copy(lazy) == pickle.loads(pickle.dumps(lazy)) == eager
    assert witness_searches == [(2, True)]  # found once, for all of the above
    for name in ("ok", "vertex", "witness"):
        with pytest.raises(AttributeError):
            setattr(lazy, name, None)
        with pytest.raises(AttributeError):
            delattr(lazy, name)
    assert lazy.witness == eager.witness
    plain = ConvexityVerdict(True, 0)
    assert plain.witness is None and plain == ConvexityVerdict(True, 0, None)
    assert repr(plain) == "ConvexityVerdict(ok=True, vertex=0, witness=None)"
    assert {plain, ConvexityVerdict(True, 0)} == {plain}


def test_lazy_witness_is_the_first_violating_pair(witness_searches):
    rng = random.Random("lazy-witness")
    graphs = [cycle(n) for n in range(4, 9)] + [grid(4, 4)]
    lazy = 0
    for g in graphs:
        m = g.metric()
        functions = []
        if len(g.vertices) == 4:  # every function on C4 with values 0..2
            functions = [dict(zip(g.vertices, vs)) for vs in itertools.product(range(3), repeat=4)]
        for _ in range(60):
            share = rng.choice((1.0, 0.7))
            functions.append({v: rng.randint(-3, 3) for v in g.vertices if rng.random() < share})
        for f in functions:
            for z in g.vertices:
                witness_searches.clear()
                verdict = is_convex_at(m, f, z)
                lazy += not witness_searches
                expected = first_pair(m, f, z) if z in f else None
                assert verdict.ok == (expected is None)
                w = verdict.witness
                assert (None if w is None else (w.x, w.y, w.lhs, w.rhs)) == expected
                assert verdict.witness is w
                assert len(witness_searches) <= 1
    assert lazy > 1000  # on int data no site searches a pair before its witness is read


def test_thm1_on_the_grid_searches_no_pair_at_its_violated_sites(witness_searches, ranked_passes):
    g = grid(10, 10)
    m = g.metric()
    f = distance_function(m, (3, 6))
    report = theorems.verify_pointwise_implication(g, f, "triangle_free")
    assert (report.verdict, report.checked, report.hypothesis_fired) == ("verified", 100, 19)
    # the 81 sites off the row and column of a are refuted by neighbours
    # alone, the ranked pass decides the 19 on them, and no site is searched
    assert witness_searches == []
    assert ranked_passes == [m.index[z] for z in g.vertices if z[0] == 3 or z[1] == 6]
