import itertools
import json
import logging
import math
import random
import re

import pytest

from graphconvex import lattice, theorems
from graphconvex import (
    ClaimReport,
    Graph,
    LatticeSpec,
    Metric,
    UnknownVertexError,
    aggregate_reports,
    build_lattice,
    compare_to_neighborhood_mean,
    connected_unit_graphs,
    cycle,
    distance_function,
    exhaustive_small_graph_sweep,
    grid,
    grid_interior,
    has_nearest_neighbor_property,
    indicator_samples,
    integer_function_samples,
    is_convex_at,
    is_harmonic_at,
    is_midpoint_convex_at,
    is_subharmonic_at,
    king_grid,
    max_affine_samples,
    pairing_hypothesis,
    path,
    random_connected_graph,
    search_counterexample,
    sweep_max_affine,
    sweep_subsets_dist_convex,
    sweep_subsets_nn,
    tiling_interior,
    triangle_free_hypothesis,
    triangular_tiling,
    verify_degree2_equivalence,
    verify_dist_convex_implies_set_convex,
    verify_dist_to_point_midpoint_convex,
    verify_nn_implies_dist_midpoint_convex,
    verify_pointwise_implication,
)
from graphconvex.theorems import _family_instances

from subset_oracle import kernel_and_fold


def lattice_1d(lo=-3, hi=3):
    return build_lattice(LatticeSpec(1, "l1", 1, ((lo, hi),)))


# ----------------------------------------------------------------------
# structural hypotheses
# ----------------------------------------------------------------------


def test_triangle_free_hypothesis():
    sq = cycle(4)
    assert all(triangle_free_hypothesis(sq, z) for z in sq.vertices)
    tri = cycle(3)
    assert not any(triangle_free_hypothesis(tri, z) for z in tri.vertices)
    star = Graph([("c", 1), ("c", 2), ("c", 3)])
    assert triangle_free_hypothesis(star, "c")
    assert not triangle_free_hypothesis(star, 1)  # leaves have degree 1


def test_pairing_hypothesis_values():
    assert pairing_hypothesis(cycle(4), 0) == ((1, 3),)
    assert pairing_hypothesis(cycle(3), 0) is None  # the two neighbors touch
    star = Graph([("c", 1), ("c", 2), ("c", 3)])
    assert pairing_hypothesis(star, "c") is None  # odd degree
    assert pairing_hypothesis(star, 1) is None  # and an endpoint
    lonely = Graph([(0, 1)], vertices=[0, 1, 2])
    assert pairing_hypothesis(lonely, 2) is None  # degree zero


def test_pairing_hypothesis_on_tilings():
    g = grid(3, 3)
    assert len(pairing_hypothesis(g, (1, 1))) == 2
    t = triangular_tiling(4, 4)
    for z in sorted(tiling_interior(4, 4)):
        pairs = pairing_hypothesis(t, z)
        assert pairs is not None and len(pairs) == 3
        for a, b in pairs:
            assert not t.adjacent(a, b)
    k = king_grid(3, 3)
    assert len(pairing_hypothesis(k, (1, 1))) == 4


def test_hypotheses_reject_an_unknown_vertex():
    for hypothesis in (triangle_free_hypothesis, pairing_hypothesis):
        with pytest.raises(UnknownVertexError):
            hypothesis(cycle(4), 9)


def test_pairing_is_deterministic():
    t = triangular_tiling(5, 5)
    z = sorted(tiling_interior(5, 5))[0]
    assert pairing_hypothesis(t, z) == pairing_hypothesis(t, z)


# ----------------------------------------------------------------------
# pointwise implication verifiers
# ----------------------------------------------------------------------


def test_distance_function_on_square_fires_three_times(lettered_square):
    m = lettered_square.metric()
    f = distance_function(m, "a")
    for hyp in ("triangle_free", "pairing"):
        report = verify_pointwise_implication(lettered_square, f, hyp)
        assert report.verdict == "verified"
        assert report.checked == 4  # the hypothesis holds at every vertex
        assert report.hypothesis_fired == 3  # but d(., a) is not convex at y
        assert bool(report)


def test_verifier_rejects_bad_instances():
    weighted = Graph([(0, 1, 2.0), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="unit"):
        verify_pointwise_implication(weighted, {v: 0 for v in range(3)}, "triangle_free")
    with pytest.raises(ValueError, match="Graph"):
        verify_pointwise_implication(lattice_1d(), {}, "triangle_free")
    with pytest.raises(ValueError, match="GroupLattice"):
        verify_pointwise_implication(cycle(4), {}, "midpoint")
    with pytest.raises(ValueError, match="hypothesis"):
        verify_pointwise_implication(cycle(4), {}, "nope")


# each library entry point that takes a tol and builds no Metric or
# GroupLattice with it, called so that it would otherwise pass or return
# "verified"
TOL_ENTRY_POINTS = {
    "is_subharmonic_at": lambda tol: is_subharmonic_at(
        cycle(4), {0: 5.0, 1: 0.0, 2: 0.0, 3: 0.0}, 0, tol=tol),
    "compare_to_neighborhood_mean": lambda tol: compare_to_neighborhood_mean(
        cycle(4), dict.fromkeys(range(4), 0), 0, tol=tol),
    "is_harmonic_at": lambda tol: is_harmonic_at(cycle(4), dict.fromkeys(range(4), 0), 0, tol=tol),
    "is_midpoint_convex_at": lambda tol: is_midpoint_convex_at(
        lattice_1d(), {(x,): -float(x * x) for x in range(-3, 4)}, (0,), tol=tol),
    "has_nearest_neighbor_property": lambda tol: has_nearest_neighbor_property(
        lattice_1d(), {(0,)}, tol=tol),
    "search_counterexample": lambda tol: search_counterexample(
        "cycle", "random-int", budget=0, tol=tol),
    "verify_pointwise_implication": lambda tol: verify_pointwise_implication(
        lattice_1d(), {(x,): x for x in range(-3, 4)}, "midpoint", tol=tol),
    "verify_dist_to_point_midpoint_convex": lambda tol: verify_dist_to_point_midpoint_convex(
        lattice_1d(), count=2, tol=tol),
    "sweep_max_affine": lambda tol: sweep_max_affine(lattice_1d(), count=2, tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_entry_points_reject_a_bad_tolerance(entry, tol):
    TOL_ENTRY_POINTS[entry](0)  # a good tolerance passes
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        TOL_ENTRY_POINTS[entry](tol)


def test_refuted_pointwise_reports_are_pinned(monkeypatch, lettered_square):
    # The claims hold, so the refuted report is reached by making the mean
    # comparison fail at one chosen vertex.
    real = theorems.is_subharmonic_at

    def fail_at(bad):
        def fake(g, f, x, **kw):
            cmp = real(g, f, x, **kw)
            return cmp._replace(verdict="neither") if x == bad else cmp

        return fake

    monkeypatch.setattr(theorems, "is_subharmonic_at", fail_at("z"))
    f = distance_function(lettered_square.metric(), "a")
    report = verify_pointwise_implication(lettered_square, f, "triangle_free").as_dict()
    assert report == {
        "claim": "thm1",
        "instance": "Graph(vertices=4, edges=4)",
        "checked": 4,
        "hypothesis_fired": 3,  # a, x and z; d(., a) is not convex at y
        "verdict": "refuted",
        "witness": {"vertex": "z", "f_value": 1, "neighborhood_mean": 1},
    }
    assert list(report["witness"]) == ["vertex", "f_value", "neighborhood_mean"]

    monkeypatch.setattr(lattice, "compare_to_neighborhood_mean", fail_at((0,)))
    # the plain mean pass settles every site of this f, so it is made to
    # settle none and each site reaches the comparison above
    real_passes = lattice._plain_passes
    monkeypatch.setattr(
        lattice, "_plain_passes", lambda lat, f: (real_passes(lat, f)[0], lambda x: False))
    lat = lattice_1d()
    report = verify_pointwise_implication(lat, {v: 2 * v[0] + 1 for v in lat.window}, "midpoint")
    report = report.as_dict()
    assert report == {
        "claim": "thm4-cvx-sub",
        "instance": "GroupLattice(l1 lattice r=1 window [-3,3])",
        "checked": 3,  # the interior vertices -2, -1 and 0
        "hypothesis_fired": 3,
        "verdict": "refuted",
        "witness": {"vertex": "(0)", "total_weight": 2, "f_value": 1, "neighborhood_mean": 1},
    }
    assert list(report["witness"]) == ["vertex", "total_weight", "f_value", "neighborhood_mean"]


def test_midpoint_verifier_on_affine_function():
    lat = lattice_1d()
    f = {v: 3 * v[0] - 1 for v in lat.window}
    report = verify_pointwise_implication(lat, f, "midpoint")
    assert report.claim == "thm4-cvx-sub"
    assert report.verdict == "verified"
    assert report.hypothesis_fired == len(lat.interior)


def test_midpoint_verifier_vacuous_for_concave():
    lat = lattice_1d()
    f = {v: -v[0] * v[0] for v in lat.window}
    report = verify_pointwise_implication(lat, f, "midpoint")
    assert report.verdict == "vacuous"
    assert report.hypothesis_fired == 0


# ----------------------------------------------------------------------
# distance-function claims
# ----------------------------------------------------------------------


def test_dist_convex_claim_on_path_interval():
    report = verify_dist_convex_implies_set_convex(path(5), {1, 2})
    assert report.claim == "thm3"
    assert report.verdict == "verified"


def test_dist_convex_claim_vacuous_on_square(lettered_square):
    # d(., {x, z}) already fails convexity at y, so the claim is not tested
    report = verify_dist_convex_implies_set_convex(lettered_square, {"x", "z"})
    assert report.verdict == "vacuous"
    assert bool(report)  # vacuous is consistent, only refuted is falsy


def test_dist_convex_claim_rejects_empty_set(lettered_square):
    with pytest.raises(ValueError, match="nonempty"):
        verify_dist_convex_implies_set_convex(lettered_square, set())
    with pytest.raises(ValueError, match="nonempty"):
        verify_nn_implies_dist_midpoint_convex(lattice_1d(), set())


def test_dist_convex_claim_rejects_members_outside_the_window():
    with pytest.raises(UnknownVertexError):
        verify_dist_convex_implies_set_convex(lattice_1d(0, 4), [(0,), (4,), (99,)])


def test_dist_convex_claim_on_lattice():
    lat = lattice_1d()
    interval = {(v,) for v in range(-1, 2)}
    report = verify_dist_convex_implies_set_convex(lat, interval)
    assert report.claim == "prop-dist-cvx"
    assert report.verdict == "verified"
    gap = {(-1,), (1,)}
    assert verify_dist_convex_implies_set_convex(lat, gap).verdict == "vacuous"


def test_dist_convex_claim_refuted_on_2d_windows():
    # Set convexity here is betweenness on the lattice graph.  Under it the
    # claim fails on 3x3 windows: d(., F) is midpoint convex, but a vertex
    # between two members lies outside F.  l2 with radius 1.5 verifies.
    square = ((0, 2), (0, 2))
    for norm, members, vertex in (
        ("l1", {(0, 1), (1, 0)}, "(0,0)"),
        ("linf", {(0, 0), (0, 1), (0, 2)}, "(1,1)"),
    ):
        lat = build_lattice(LatticeSpec(2, norm, 1, square))
        report = verify_dist_convex_implies_set_convex(lat, members)
        assert (report.verdict, report.hypothesis_fired) == ("refuted", 1)
        assert report.witness == {"vertex": vertex, "outside_set": True}
    l2 = build_lattice(LatticeSpec(2, "l2", 1.5, square))
    report = sweep_subsets_dist_convex(l2)
    assert (report.verdict, report.checked, report.hypothesis_fired) == ("verified", 4599, 67)


def test_nn_claim_on_lattice():
    lat = lattice_1d()
    report = verify_nn_implies_dist_midpoint_convex(lat, {(-1,), (0,), (1,)})
    assert report.claim == "prop-nn"
    assert report.verdict == "verified"
    assert report.hypothesis_fired == len(lat.interior)
    assert verify_nn_implies_dist_midpoint_convex(lat, {(-1,), (1,)}).verdict == "vacuous"
    assert verify_nn_implies_dist_midpoint_convex(lat, {(3,)}).verdict == "verified"


def test_dist_to_point_claim():
    for norm in ("l1", "l2", "linf"):
        lat = build_lattice(LatticeSpec(2, norm, 1 if norm != "l2" else 1.5, ((-2, 2),) * 2))
        report = verify_dist_to_point_midpoint_convex(lat, count=5, seed=7)
        assert report.claim == "lem-dist-pt"
        assert report.verdict == "verified"
        assert report.checked == 5 * len(lat.window)
    explicit = verify_dist_to_point_midpoint_convex(lattice_1d(), points=[(0,), (9,)])
    assert explicit.verdict == "verified"
    assert explicit.checked == 2 * 7


# ----------------------------------------------------------------------
# degree-2 equivalence
# ----------------------------------------------------------------------


def test_degree2_equivalence_frozen_counts():
    r4 = verify_degree2_equivalence(cycle(4))
    assert (r4.verdict, r4.checked, r4.hypothesis_fired) == ("verified", 324, 195)
    r5 = verify_degree2_equivalence(cycle(5))
    assert (r5.verdict, r5.checked, r5.hypothesis_fired) == ("verified", 1215, 723)
    r6 = verify_degree2_equivalence(cycle(6))
    assert (r6.verdict, r6.checked, r6.hypothesis_fired) == ("verified", 4374, 1929)


def test_degree2_equivalence_counts_up_to_the_sweep_cap():
    """C_13 is the longest cycle whose 3**n functions fit the sweep cap."""
    counts = {11: (1_948_617, 702_012), 12: (6_377_292, 2_216_883),
              13: (20_726_199, 7_204_863)}
    for n, pinned in counts.items():
        report = verify_degree2_equivalence(cycle(n))
        assert report.verdict == "verified"
        assert (report.checked, report.hypothesis_fired) == pinned


def test_degree2_equivalence_validation():
    with pytest.raises(ValueError, match="triangle"):
        verify_degree2_equivalence(cycle(3))
    with pytest.raises(ValueError, match="2-regular"):
        verify_degree2_equivalence(path(4))
    two_squares = Graph(
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    )
    with pytest.raises(ValueError, match="connected"):
        verify_degree2_equivalence(two_squares)
    with pytest.raises(ValueError, match="ints"):
        verify_degree2_equivalence(cycle(4), values=(0.5, 1))
    with pytest.raises(ValueError, match="ints"):  # bool is an int subclass
        verify_degree2_equivalence(cycle(4), values=(True, False))
    with pytest.raises(ValueError, match="too large"):
        verify_degree2_equivalence(cycle(14))


def test_pointwise_converse_fails_on_six_cycle():
    """Subharmonic at a vertex does not imply convex at it once the cycle is
    long enough for non-neighbor between-pairs to bite."""
    c6 = cycle(6)
    f = {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 2}
    assert is_subharmonic_at(c6, f, 0)  # 1 <= (0 + 2) / 2
    verdict = is_convex_at(c6.metric(), f, 0)
    assert not verdict
    w = verdict.witness
    assert {w.x, w.y} == {1, 4}
    assert w.lhs == 1 and w.rhs == 0  # f(0) = 1 > (2*f(1) + 1*f(4)) / 3 = 0
    # the function-level equivalence still holds: f is not subharmonic
    # everywhere (vertex 5 fails), so no global witness arises
    assert not is_subharmonic_at(c6, f, 5)


# ----------------------------------------------------------------------
# exhaustive sweeps
# ----------------------------------------------------------------------


def test_sweep_validation():
    with pytest.raises(ValueError, match="hypothesis"):
        exhaustive_small_graph_sweep("nope", graphs=[cycle(4)])
    with pytest.raises(ValueError, match="ints"):
        exhaustive_small_graph_sweep("triangle_free", values=(0.5,), graphs=[cycle(4)])
    with pytest.raises(ValueError, match="ints"):
        exhaustive_small_graph_sweep("triangle_free", values=(True, False), graphs=[cycle(4)])
    with pytest.raises(ValueError, match="too large"):
        exhaustive_small_graph_sweep("triangle_free", graphs=[cycle(16)])


def test_sweep_square_matches_direct_oracle():
    """The prepared-table sweep must agree with the generic convexity oracle
    computed the slow way, function by function."""
    sq = cycle(4)
    report = exhaustive_small_graph_sweep("triangle_free", graphs=[sq])
    assert report.verdict == "verified"
    assert report.checked == 4 * 81

    m = sq.metric()
    fired = 0
    for fvals in itertools.product((0, 1, 2), repeat=4):
        f = dict(zip(sq.vertices, fvals))
        for z in sq.vertices:
            if not triangle_free_hypothesis(sq, z):
                continue
            if is_convex_at(m, f, z):
                fired += 1
                assert is_subharmonic_at(sq, f, z)
    assert fired == 192
    assert report.hypothesis_fired == fired


def test_sweep_pairing_route_on_square():
    report = exhaustive_small_graph_sweep("pairing", graphs=[cycle(4)])
    assert report.verdict == "verified"
    assert report.hypothesis_fired == 192


def test_sweep_small_binary_values():
    report = exhaustive_small_graph_sweep("triangle_free", max_n=4, values=(0, 1))
    assert report.verdict == "verified"
    assert report.hypothesis_fired > 0


def test_sweep_logs_progress_once_per_vertex_count(caplog):
    with caplog.at_level(logging.INFO, logger="graphconvex.theorems"):
        report = exhaustive_small_graph_sweep("triangle_free", max_n=4, values=(0, 1))
    messages = [r.getMessage() for r in caplog.records if r.name == "graphconvex.theorems"]
    assert len(messages) == 5
    assert messages[0].startswith("thm1 sweep: n=1 after 0 graphs, checked=0 fired=0")
    assert messages[3].startswith("thm1 sweep: n=4 after 4 graphs")
    assert report.instance.startswith("10 graphs")
    # the closing record: the totals, the verdict, and the masks of n = 4
    assert messages[4].startswith("thm1 sweep: 10 graphs, f in (0, 1)^X, checked=120 fired=72, "
                                  "verified, ")
    assert messages[4].endswith("; n=4: pair masks 9 built, 2 reused; mean masks 7 built, 0 reused")


def test_a_refuted_sweep_logs_its_closing_record(caplog, monkeypatch):
    # every vertex a site: on the edge, f = (0, 1) is convex at the leaf 1
    # but not subharmonic there
    monkeypatch.setattr(theorems, "_graph_hypothesis", lambda h: ("thm1", lambda adj, k: True))
    with caplog.at_level(logging.INFO, logger="graphconvex.theorems"):
        streamed = exhaustive_small_graph_sweep("triangle_free", max_n=4, values=(0, 1))
        edge = [Graph([(0, 1)])]
        single = exhaustive_small_graph_sweep("triangle_free", values=(0, 1), graphs=edge)
    messages = [r.getMessage() for r in caplog.records if r.name == "graphconvex.theorems"]
    assert (streamed.verdict, single.verdict) == ("refuted", "refuted")
    assert len(messages) == 5
    assert messages[2].startswith("thm1 sweep: 10 graphs, f in (0, 1)^X, checked=6 fired=6, "
                                  "refuted, ")
    assert messages[2].endswith("; n=2: pair masks 0 built, 0 reused; mean masks 2 built, 0 reused")
    # one graph keeps no memo, so its closing record has no mask counts
    assert messages[3].startswith("thm1 sweep: n=2 after 0 graphs, checked=0 fired=0, ")
    assert re.fullmatch(r"thm1 sweep: 1 graphs, f in \(0, 1\)\^X, checked=4 fired=4, refuted, "
                        r"\d+\.\d\d s", messages[4])


def test_streamed_sweep_matches_the_sweep_over_a_list():
    listed = [g for n in range(1, 6) for g in connected_unit_graphs(n)]
    for hypothesis in ("triangle_free", "pairing"):
        streamed = exhaustive_small_graph_sweep(hypothesis, max_n=5, values=(0, 1, 2))
        assert streamed == exhaustive_small_graph_sweep(hypothesis, values=(0, 1, 2), graphs=listed)
        assert streamed.instance.startswith("31 graphs")


@pytest.mark.parametrize("max_n", [0, -3])
def test_streamed_sweep_needs_a_vertex(max_n):
    # as count_connected_graphs(0) does, rather than a vacuous report over 0 graphs
    for hypothesis in ("triangle_free", "pairing"):
        with pytest.raises(ValueError, match=f"max_n must be at least 1, got {max_n}"):
            exhaustive_small_graph_sweep(hypothesis, max_n=max_n, values=(0, 1))


def test_streamed_sweep_builds_a_graph_only_for_its_witness(monkeypatch):
    built = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    assert exhaustive_small_graph_sweep("pairing", max_n=5, values=(0, 1, 2))
    assert built == []
    # every vertex a site: on the edge, f = (0, 1) is convex at the leaf 1
    # but not subharmonic there
    monkeypatch.setattr(theorems, "_graph_hypothesis", lambda h: ("thm1", lambda adj, k: True))
    streamed = exhaustive_small_graph_sweep("triangle_free", max_n=4, values=(0, 1))
    assert len(built) == 1
    assert streamed.witness == {"graph": "v 0\nv 1\ne 0 1\n", "f": {"0": 0, "1": 1}, "vertex": "1",
                                "reason": "convex at z but not subharmonic at z"}
    listed = [g for n in range(1, 5) for g in connected_unit_graphs(n)]
    assert streamed == exhaustive_small_graph_sweep("triangle_free", values=(0, 1), graphs=listed)


def test_sweep_progress_counts_the_pair_and_mean_masks(caplog):
    with caplog.at_level(logging.INFO, logger="graphconvex.theorems"):
        exhaustive_small_graph_sweep("pairing", max_n=6, values=(0, 1, 2))
    messages = [r.getMessage() for r in caplog.records if r.name == "graphconvex.theorems"]
    assert len(messages) == 7 and "masks" not in messages[0]
    tail = re.compile(r"; n=(\d+): pair masks (\d+) built, (\d+) reused; "
                      r"mean masks (\d+) built, (\d+) reused$")
    got = [tuple(map(int, tail.search(message).groups())) for message in messages[1:]]
    # the same counts from the tolerant pair scan: a mask is built the first
    # time its key is met at its vertex count and reused every other time
    want = []
    for n in range(1, 7):  # the closing record has those of n = 6
        pair_keys, mean_keys, pairs, sites = set(), set(), 0, 0
        for g in connected_unit_graphs(n):
            m = g.metric()
            for k, z in enumerate(g.vertices):
                if pairing_hypothesis(g, z) is None:
                    continue
                for i, j, _, djk, dik in m.between_pairs(k, range(n)):
                    pair_keys.add((k, i, j, dik, djk))
                    pairs += 1
                mean_keys.add((k, frozenset(g.neighbors(z))))
                sites += 1
        want.append((n, len(pair_keys), pairs - len(pair_keys),
                     len(mean_keys), sites - len(mean_keys)))
    assert got == want
    assert want[4][2] and want[4][4]  # n = 5 reuses both kinds


def test_sweeps_log_one_record_per_call(caplog):
    line = lattice_1d(-2, 2)
    calls = (
        (lambda: verify_degree2_equivalence(cycle(6)), "lem-deg2 sweep: Graph("),
        (lambda: sweep_subsets_dist_convex(path(5)), "thm3 sweep: Graph("),
        (lambda: sweep_subsets_dist_convex(line), "prop-dist-cvx sweep: GroupLattice("),
        (lambda: sweep_subsets_nn(line), "prop-nn sweep: GroupLattice("),
    )
    for call, prefix in calls:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="graphconvex.theorems"):
            report = call()
        messages = [r.getMessage() for r in caplog.records if r.name == "graphconvex.theorems"]
        assert len(messages) == 1
        assert messages[0].startswith(prefix)
        assert (
            f"checked={report.checked} fired={report.hypothesis_fired}, {report.verdict}, "
            in messages[0]
        )


def test_sweeps_are_silent_by_default(capsys):
    verify_degree2_equivalence(cycle(4))
    sweep_subsets_nn(lattice_1d(-1, 1))
    assert capsys.readouterr() == ("", "")


# ----------------------------------------------------------------------
# aggregate reports and suite sweeps
# ----------------------------------------------------------------------


def test_aggregate_reports_semantics():
    ok = ClaimReport("thm1", "a", 5, 2, "verified")
    vac = ClaimReport("thm1", "b", 3, 0, "vacuous")
    bad = ClaimReport("thm1", "c", 1, 1, "refuted", {"vertex": "v"})
    agg = aggregate_reports("thm1", "all", [ok, vac])
    assert (agg.verdict, agg.checked, agg.hypothesis_fired) == ("verified", 8, 2)
    assert aggregate_reports("thm1", "all", [vac]).verdict == "vacuous"
    worst = aggregate_reports("thm1", "all", [ok, bad, vac])
    assert worst.verdict == "refuted" and worst.witness == {"vertex": "v"}
    assert not worst


def test_claim_report_as_dict_round_trips():
    report = exhaustive_small_graph_sweep("triangle_free", graphs=[cycle(4)])
    payload = report.as_dict()
    assert payload["claim"] == "thm1"
    assert payload["verdict"] == "verified"
    json.dumps(payload)


def test_suite_sweeps():
    sq = cycle(4)
    report = sweep_subsets_dist_convex(sq)
    assert report.verdict == "verified"  # F = X fires; nothing refutes
    assert report.checked == 15 * 4

    lat = build_lattice(LatticeSpec(1, "l1", 1, ((-2, 2),)))
    nn = sweep_subsets_nn(lat)
    assert nn.verdict == "verified"
    dist = sweep_subsets_dist_convex(lat)
    assert dist.verdict == "verified"

    affine = sweep_max_affine(lat, count=10, seed=3)
    assert affine.verdict == "verified"
    assert affine.hypothesis_fired == 10 * len(lat.interior)

    with pytest.raises(ValueError, match="too large"):
        sweep_subsets_dist_convex(grid(4, 4))


def test_subset_sweeps_cover_twelve_points_and_refuse_thirteen():
    # checked counts sites per subset: every vertex of path(12) for thm3,
    # the 10 interior points of the window 0:11 for prop-nn
    for sweep, instance, sites, bigger in (
        (sweep_subsets_dist_convex, path(12), 12, path(13)),
        (sweep_subsets_nn, lattice_1d(0, 11), 10, lattice_1d(0, 12)),
    ):
        report = sweep(instance)
        assert (report.verdict, report.checked) == ("verified", 4095 * sites)
        with pytest.raises(ValueError, match=r"over 13 vertices is too large \(limit 12\)"):
            sweep(bigger)


def test_subset_sweeps_match_the_per_subset_verifiers():
    """A sweep builds each set from a smaller one; its report must equal
    the fold of the public verifier called once per subset."""
    line = lattice_1d(-2, 2)
    for claim, instance in (("thm3", path(5)), ("prop-dist-cvx", line), ("prop-nn", line)):
        kernel, fold = kernel_and_fold(claim, instance)
        assert kernel == fold


def test_subset_sweeps_build_one_betweenness_engine(monkeypatch):
    built = []
    init = Metric.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Metric, "__init__", counting_init)
    # a fresh lattice per sweep: a lattice keeps its metric, and so its rows
    for sweep, instance in (
        (sweep_subsets_dist_convex, path(11)),
        (sweep_subsets_dist_convex, lattice_1d(-5, 5)),
        (sweep_subsets_nn, lattice_1d(-5, 5)),
    ):
        built.clear()
        assert sweep(instance).verdict == "verified"
        assert len(built) == 1
    line = lattice_1d(-5, 5)
    built.clear()
    assert sweep_subsets_dist_convex(line).verdict == sweep_subsets_nn(line).verdict == "verified"
    assert len(built) == 1


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------


def test_samplers_are_deterministic():
    vs = tuple(range(5))
    a = list(integer_function_samples(vs, random.Random("k"), count=4))
    b = list(integer_function_samples(vs, random.Random("k"), count=4))
    assert a == b
    ia = list(indicator_samples(vs, random.Random("k"), count=4))
    ib = list(indicator_samples(vs, random.Random("k"), count=4))
    assert ia == ib


def test_sampler_and_generator_constants_are_pinned():
    # the value ranges, term counts, coefficient and offset bounds, retry
    # budget and grid order are fixed constants; these draws pin them
    spec = LatticeSpec(2, "l1", 1, ((-1, 1), (-1, 1)))
    pts = list(spec.points())
    assert [
        [f[v] for v in pts] for _, f in max_affine_samples(spec, random.Random("ma"), count=4)
    ] == [
        [2, 4, 6, 1, 3, 5, 0, 2, 4],
        [7, 5, 3, 5, 3, 1, 3, 1, -1],
        [7, 5, 3, 5, 3, 1, 3, 1, -1],
        [-3, -4, -5, -1, -2, -3, 1, 0, -1],
    ]
    assert [
        [f[v] for v in range(6)]
        for _, f in integer_function_samples(range(6), random.Random("k"), count=3)
    ] == [[-3, 3, 0, -2, 1, 2], [2, -3, 0, 1, -2, 3], [-3, 0, -2, 3, -1, 1]]
    g = random_connected_graph(8, 0.3, random.Random("k"))
    assert sorted(g.edges()) == [
        (0, 1, 1), (1, 7, 1), (2, 6, 1), (2, 7, 1), (3, 4, 1),
        (3, 6, 1), (3, 7, 1), (4, 5, 1), (4, 6, 1),
    ]
    with pytest.raises(ValueError, match=r"no connected G\(2, 0.0\) found in 1000 tries"):
        random_connected_graph(2, 0.0, random.Random("k"))
    grids = itertools.islice(_family_instances("grid", 0, None, 0.5, None), 6)
    assert [label for label, _ in grids] == [
        "grid(2x2)", "grid(2x3)", "grid(2x4)", "grid(3x3)", "grid(2x5)", "grid(2x6)",
    ]
    inner = {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)}
    assert grid_interior(4, 5) == tiling_interior(4, 5) == inner


def test_max_affine_samples_are_midpoint_convex():
    spec = LatticeSpec(2, "l1", 1, ((-2, 2), (-2, 2)))
    lat = build_lattice(spec)
    for _, fun in max_affine_samples(spec, random.Random("ma"), count=12):
        assert all(isinstance(v, int) for v in fun.values())
        for x in lat.window:
            assert is_midpoint_convex_at(lat, fun, x)


# ----------------------------------------------------------------------
# counterexample search
# ----------------------------------------------------------------------


def test_search_finds_classic_square_failure():
    w = search_counterexample(
        "cycle", "distance", budget=1, predicate="distance-fn-not-convex",
        sizes=[4],
    )
    assert w is not None
    assert w.instance == "cycle(4)"
    assert w.function == "d(.,0)"
    assert w.vertex == 2
    assert w.detail["pair"] == ["1", "3"]
    assert w.detail["lhs"] == 2 and w.detail["rhs"] == 1
    assert w.detail["subharmonic"] is False
    json.dumps(w.as_dict())


def test_search_convex_not_subharmonic_needs_a_triangle():
    hit = search_counterexample("cycle", "distance", budget=1, sizes=[3])
    assert hit is not None
    assert hit.instance == "cycle(3)"
    assert hit.vertex == 1  # d(., 0) is convex at 1 yet above the mean there
    none = search_counterexample(
        "cycle", "random-int", budget=2, sizes=[4, 5], seed=11, count=40,
    )
    assert none is None  # triangle-free cycles cannot trip the predicate
    # an empty size list means no instances, not the default sizes
    assert search_counterexample("cycle", "distance", budget=5, sizes=()) is None
    # the one vertex of path(1) has no neighbour, so it is no site
    assert search_counterexample("path", "constant", budget=1, sizes=[1]) is None


def test_search_is_deterministic():
    kw = dict(budget=3, predicate="distance-fn-not-convex", seed=5, count=6)
    a = search_counterexample("random", "random-int", **kw)
    b = search_counterexample("random", "random-int", **kw)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.as_dict() == b.as_dict()


def test_search_rejects_unknown_names():
    with pytest.raises(ValueError, match="predicate"):
        search_counterexample("cycle", "distance", budget=1, predicate="nope")
    with pytest.raises(ValueError, match="family"):
        search_counterexample("nope", "distance", budget=1)
    with pytest.raises(ValueError, match="sampler"):
        search_counterexample("cycle", "nope", budget=1)
    with pytest.raises(ValueError, match="unknown sampler 'bogus'"):  # before any instance
        search_counterexample("cycle", "bogus", 0)


def test_search_rejects_unknown_keywords():
    with pytest.raises(TypeError, match="foo"):
        search_counterexample(
            "grid", "distance", budget=1, predicate="distance-fn-not-convex", foo=1
        )
