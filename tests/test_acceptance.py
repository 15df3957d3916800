"""Acceptance gate: one test per headline capability, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Criterion 9 sweeps every function into {0, 1, 2} on the
cycles C_4..C_8 and checks the true pointwise relation between convexity
and subharmonicity: convex at z implies subharmonic at z everywhere, the
converse holds on C_4 and C_5 only, and from C_6 on it first fails at
f = (0, ..., 0, 1, 2), vertex n - 2.  The function-level equivalence on
cycles is covered by the degree-2 equivalence tests.
"""

import itertools
import random
import time

import pytest

from graphconvex import (
    Graph,
    LatticeSpec,
    brute_force_convex_hull,
    build_lattice,
    compare_to_neighborhood_mean,
    connected_unit_graphs,
    convex_hull,
    cycle,
    distance_function,
    exhaustive_small_graph_sweep,
    grid,
    grid_interior,
    int_path,
    is_convex_at,
    is_convex_set,
    is_subharmonic_at,
    max_affine_samples,
    pairing_hypothesis,
    path,
    random_connected_graph,
    tiling_interior,
    triangular_tiling,
    verify_dist_convex_implies_set_convex,
    verify_dist_to_point_midpoint_convex,
    verify_nn_implies_dist_midpoint_convex,
)

TOL = 1e-9

LATTICES = (("l1", 1), ("linf", 1), ("l2", 1.5))


def test_criterion_1_square_distance_counterexample(lettered_square):
    """d(., a) on the 4-cycle a-x-y-z: above the mean and non-convex at the
    antipode, with every quantity an exact int, in under a second."""
    t0 = time.perf_counter()
    g = lettered_square
    m = g.metric(TOL)
    f = distance_function(m, "a")
    assert f == {"a": 0, "x": 1, "y": 2, "z": 1}
    assert all(isinstance(v, int) for v in f.values())

    cmp = compare_to_neighborhood_mean(g, f, "y")
    assert f["y"] == 2
    assert cmp.neighborhood_mean == 1
    assert isinstance(cmp.neighborhood_mean, int)
    assert cmp.verdict == "neither"
    assert not is_subharmonic_at(g, f, "y", tol=TOL)

    verdict = is_convex_at(m, f, "y")
    assert not verdict
    assert {verdict.witness.x, verdict.witness.y} == {"x", "z"}
    assert verdict.witness.lhs == 2
    assert verdict.witness.rhs == 1
    assert isinstance(verdict.witness.rhs, int)

    assert not is_convex_set(m, {"x", "y", "z"})
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_hull_matches_brute_force_oracle():
    """Fixed-point hull equals the intersection-of-convex-supersets oracle
    on every subset of a fixed zoo plus 20 random connected graphs."""
    t0 = time.perf_counter()
    zoo = [cycle(4), cycle(5), path(4), cycle(3), grid(3, 3)]
    for k in range(20):
        rng = random.Random(f"acceptance2:{k}")
        zoo.append(random_connected_graph(rng.randint(4, 8), 0.5, rng))
    for g in zoo:
        m = g.metric(TOL)
        verts = g.vertices
        for mask in range(1 << len(verts)):
            subset = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
            assert convex_hull(m, subset) == brute_force_convex_hull(m, subset)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_triangle_free_sweep_is_exhaustive():
    """Convex-at-z implies subharmonic-at-z at triangle-free vertices of
    degree > 1, for every function into {0,1,2} on every connected graph
    with at most 6 vertices (one per isomorphism class)."""
    report = exhaustive_small_graph_sweep("triangle_free", max_n=6, values=(0, 1, 2))
    assert report.verdict == "verified"
    assert report.witness is None
    assert report.hypothesis_fired >= 10_000
    assert "143 graphs" in report.instance  # 1+1+2+6+21+112 classes


def test_criterion_4_pairing_sweep_and_tiling_matchings():
    """The same sweep under the neighbor-pairing hypothesis, plus explicit
    non-adjacent perfect matchings at tiling interiors: 3 pairs per
    triangular-tiling interior vertex, 2 per grid interior vertex."""
    report = exhaustive_small_graph_sweep("pairing", max_n=6, values=(0, 1, 2))
    assert report.verdict == "verified"
    assert report.witness is None
    assert report.hypothesis_fired >= 10_000

    t = triangular_tiling(5, 5)
    for z in sorted(tiling_interior(5, 5)):
        pairs = pairing_hypothesis(t, z)
        assert pairs is not None and len(pairs) == 3
        assert all(not t.adjacent(a, b) for a, b in pairs)
    g = grid(5, 5)
    for z in sorted(grid_interior(5, 5)):
        pairs = pairing_hypothesis(g, z)
        assert pairs is not None and len(pairs) == 2
        assert all(not g.adjacent(a, b) for a, b in pairs)


@pytest.mark.parametrize(
    "hypothesis, checked, fired",
    [("triangle_free", 2_047_032, 1_021_330), ("pairing", 3_203_955, 1_511_613)],
)
def test_thm1_thm2_sweeps_on_all_853_graphs_with_seven_vertices(hypothesis, checked, fired):
    """Criteria 3 and 4 one vertex further: every function into {0,1,2} on
    every connected graph with exactly 7 vertices."""
    report = exhaustive_small_graph_sweep(
        hypothesis, graphs=connected_unit_graphs(7), values=(0, 1, 2)
    )
    assert report.verdict == "verified"
    assert report.instance.startswith("853 graphs")
    assert (report.checked, report.hypothesis_fired) == (checked, fired)


def test_criterion_5_max_affine_samples_are_weighted_subharmonic():
    """200 random maxima of affine forms per lattice (l1 r=1, linf r=1,
    l2 r=1.5 on the [-4,4]^2 window) are weighted-subharmonic at every
    interior vertex, at tolerance 1e-9."""
    for norm, radius in LATTICES:
        lat = build_lattice(LatticeSpec(2, norm, radius, ((-4, 4), (-4, 4))))
        assert len(lat.interior) == 49
        rng = random.Random(f"acceptance5:{norm}")
        checked = 0
        for _, fun in max_affine_samples(lat.spec, rng, count=200):
            for x in sorted(lat.interior):
                assert is_subharmonic_at(lat.graph, fun, x, weighted=True, tol=TOL), (
                    norm, x, fun)
                checked += 1
        assert checked == 200 * 49


def test_criterion_6_norm_distance_is_midpoint_convex():
    """f = ||. - a|| passes the midpoint inequality at all 81 window
    vertices for 20 random base points per norm."""
    for norm, radius in LATTICES:
        lat = build_lattice(LatticeSpec(2, norm, radius, ((-4, 4), (-4, 4))))
        report = verify_dist_to_point_midpoint_convex(lat, count=20, seed=6, tol=TOL)
        assert report.verdict == "verified"
        assert report.checked == 20 * 81
        assert report.hypothesis_fired == report.checked


def test_criterion_7_all_subsets_of_the_line_window():
    """Every one of the 511 nonempty subsets of the 1-D window [-4,4]: the
    three set-based claims are each verified or correctly vacuous, where
    the hypothesis must fire exactly for intervals, and never refuted."""
    lat = build_lattice(LatticeSpec(1, "l1", 1, ((-4, 4),)))
    line = int_path(-4, 4)
    points = list(range(-4, 5))
    fired = {"thm3": 0, "prop-dist-cvx": 0, "prop-nn": 0}
    subsets = 0
    for mask in range(1, 1 << 9):
        chosen = [p for i, p in enumerate(points) if mask >> i & 1]
        subsets += 1
        is_interval = chosen[-1] - chosen[0] == len(chosen) - 1
        r_graph = verify_dist_convex_implies_set_convex(line, chosen, tol=TOL)
        r_lat = verify_dist_convex_implies_set_convex(
            lat, [(p,) for p in chosen], tol=TOL
        )
        r_nn = verify_nn_implies_dist_midpoint_convex(
            lat, [(p,) for p in chosen], tol=TOL
        )
        for key, r in (("thm3", r_graph), ("prop-dist-cvx", r_lat), ("prop-nn", r_nn)):
            assert r.verdict != "refuted", (key, chosen, r.witness)
            assert (r.verdict == "verified") == is_interval, (key, chosen, r.verdict)
            fired[key] += r.hypothesis_fired > 0
    assert subsets == 511
    assert all(count >= 1 for count in fired.values())
    assert fired["thm3"] == fired["prop-dist-cvx"] == fired["prop-nn"] == 9 * 10 // 2


def test_criterion_8_hull_closure_laws_on_random_instances():
    """Extensivity, monotonicity, idempotence, hull of intersections, and
    nested-union chains across 100 random connected instances n <= 10."""
    for k in range(100):
        rng = random.Random(f"acceptance8:{k}")
        n = rng.randint(3, 10)
        g = random_connected_graph(n, 0.4, rng)
        m = g.metric(TOL)
        verts = g.vertices
        a = frozenset(rng.sample(verts, rng.randint(0, n)))
        b = frozenset(rng.sample(verts, rng.randint(0, n)))
        ha, hb = convex_hull(m, a), convex_hull(m, b)
        assert a <= ha and b <= hb
        if a <= b:
            assert ha <= hb
        assert convex_hull(m, ha) == ha
        assert convex_hull(m, a & b) <= ha & hb
        # a nested chain: hulls are nested and the union's hull is the top's
        chain = [a, a | b, a | b | frozenset(rng.sample(verts, rng.randint(0, n)))]
        hulls = [convex_hull(m, s) for s in chain]
        assert hulls[0] <= hulls[1] <= hulls[2]
        union = frozenset().union(*chain)
        assert convex_hull(m, union) == hulls[2]


def test_criterion_9_pointwise_equivalence_on_cycles():
    """Convex-at vs subharmonic-at on every C_n (4 <= n <= 8), f into {0,1,2}.

    Over every f and every vertex z this asserts:

    1. convex at z implies subharmonic at z (no exception anywhere);
    2. on C_4 and C_5 the converse holds too: the only pair with z strictly
       between its ends is z's two neighbors, whose two-point inequality
       is 2 f(z) <= f(z-1) + f(z+1);
    3. from C_6 on the converse fails, and the first subharmonic but not
       convex site (functions in ``itertools.product`` order, then
       vertices in order) is f = (0, ..., 0, 1, 2) at z = n - 2.  Every
       zero of f >= 0 is both convex and subharmonic, and every earlier
       tuple is zero except in its last two entries, (0, 1), (0, 2),
       (1, 0) or (1, 1), none of which is subharmonic at a positive
       vertex.  That f is harmonic at n - 2, yet n - 2 lies on the
       geodesic from 0 through n - 1 to ceil(n/2), where f vanishes, so
       the pair (0, ceil(n/2)) refutes convexity there;
    4. every reported witness (x, y) has z between x and y and violates
       the two-point inequality strictly, rechecked with the cycle
       distance min(|i - j|, n - |i - j|) rather than through ``Metric``.
    """
    for n in range(4, 9):
        g = cycle(n)
        m = g.metric(TOL)

        def d(i, j):
            return min(abs(i - j), n - abs(i - j))

        first_gap = None
        for fvals in itertools.product((0, 1, 2), repeat=n):
            f = dict(enumerate(fvals))
            for z in range(n):
                conv = is_convex_at(m, f, z)
                sub = bool(is_subharmonic_at(g, f, z, tol=TOL))
                assert sub or not conv, (
                    f"cycle({n}): f = {fvals} convex but not subharmonic at {z}"
                )
                if conv:
                    continue
                x, y = conv.witness.x, conv.witness.y
                assert d(x, y) == d(x, z) + d(z, y), (n, fvals, z, x, y)
                assert d(x, y) * fvals[z] > d(z, y) * fvals[x] + d(x, z) * fvals[y], (
                    n, fvals, z, x, y,
                )
                if sub and first_gap is None:
                    first_gap = (fvals, z)
        if n <= 5:
            assert first_gap is None, f"cycle({n}): converse fails at {first_gap}"
        else:
            assert first_gap == ((0,) * (n - 2) + (1, 2), n - 2), (n, first_gap)
