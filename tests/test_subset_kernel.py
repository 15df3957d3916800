"""The subset-sweep kernel against the per-subset fold of the public verifiers.

``sweep_subsets_dist_convex`` and ``sweep_subsets_nn`` build each set F
from the set one bit smaller; their reports (counts, verdict, witness)
must equal those of the single-set verifiers called once per subset
(``subset_oracle.per_subset_fold``).  ``tests/check_subset_kernel_at_cap.py``
runs the same comparison at the 12-point cap.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphconvex import (
    Graph,
    LatticeSpec,
    MidpointVerdict,
    MidpointWitness,
    build_lattice,
    has_nearest_neighbor_property,
    path,
    set_distance_function,
    theorems,
)
import graphconvex.lattice as lattice_module

from subset_oracle import kernel_and_fold, random_weighted_graph, seeded


def assert_same(claim, instance, tol=1e-9):
    kernel, fold = kernel_and_fold(claim, instance, tol)
    assert kernel == fold, (claim, instance)
    return kernel


def lattice(norm, radius, window):
    return build_lattice(LatticeSpec(len(window), norm, radius, window))


@pytest.mark.parametrize("n", range(3, 11))
def test_thm3_on_paths(n):
    report = assert_same("thm3", path(n))
    # d(., F) is convex exactly for the n(n+1)/2 intervals F
    assert (report.verdict, report.hypothesis_fired) == ("verified", n * (n + 1) // 2)


def test_thm3_on_random_graphs():
    kinds = {"disconnected": 0, "float": 0}
    for s in range(12):
        rng = seeded(f"thm3:{s}")
        weights = ("unit", "int", "float")[s % 3]
        g = random_weighted_graph(rng.randint(6, 9), rng, weights, p=(0.2, 0.4)[s % 2])
        kinds["disconnected"] += not g.is_connected
        kinds["float"] += any(isinstance(w, float) for _, _, w in g.edges())
        assert_same("thm3", g)
    assert min(kinds.values()) >= 2


def test_thm3_with_a_wide_tolerance_refutes_alike():
    # under tol = 0.2 near-betweenness and near-convexity both pass the
    # band, the float fallback decides, and some set is refuted
    verdicts = set()
    for s in range(8):
        rng = seeded(f"wide:{s}")
        g = random_weighted_graph(rng.randint(4, 7), rng, "float", p=0.5)
        verdicts.add(assert_same("thm3", g, tol=0.2).verdict)
    assert "refuted" in verdicts


@pytest.mark.parametrize("claim", ["prop-dist-cvx", "prop-nn"])
@pytest.mark.parametrize("norm, radius", [("l1", 1), ("l2", 2)])
def test_line_window_of_eleven(claim, norm, radius):
    assert assert_same(claim, lattice(norm, radius, ((0, 10),))).verdict == "verified"


@pytest.mark.parametrize("claim", ["prop-dist-cvx", "prop-nn"])
@pytest.mark.parametrize("norm, radius", [("l1", 1), ("linf", 1), ("l2", 1.5)])
def test_square_windows(claim, norm, radius):
    report = assert_same(claim, lattice(norm, radius, ((0, 2), (0, 2))))
    # set convexity is graph betweenness here: prop-dist-cvx fails on l1/linf
    refuted = claim == "prop-dist-cvx" and norm != "l2"
    assert (report.verdict == "refuted") == refuted


def test_lattice_with_a_wide_tolerance():
    # on 0:6 a band of 0.35 lets near-betweenness count: prop-dist-cvx is
    # refuted and fewer sets are convex for prop-nn (84 firings at 1e-9);
    # on the square a band of 0.3 lets midpoint near-misses pass (67 at 1e-9)
    line = lattice("l2", 2, ((0, 6),))
    dist = assert_same("prop-dist-cvx", line, tol=0.35)
    nn = assert_same("prop-nn", line, tol=0.35)
    assert dist.verdict == "refuted" and nn.hypothesis_fired == 69
    square = lattice("l2", 1.5, ((0, 2), (0, 2)))
    assert assert_same("prop-dist-cvx", square, tol=0.3).hypothesis_fired == 117
    assert_same("prop-nn", square, tol=0.3)


@pytest.mark.parametrize("tol", [1e-9, 0.3])
def test_nearest_neighbor_test_matches_the_library_on_every_set(tol):
    # the sweep asks only convex sets; here every set is asked
    for lat in (lattice("l2", 1.5, ((0, 2), (0, 2))), lattice("l1", 1, ((0, 6),))):
        m = lat.metric(tol)
        test = theorems._nearest_neighbor_test(lat, tol)
        for mask in range(1, 1 << len(lat.window)):
            members = [v for i, v in enumerate(lat.window) if mask >> i & 1]
            dist = list(set_distance_function(m, members).values())
            expected = bool(has_nearest_neighbor_property(lat, members, tol))
            assert test(dist, mask) == expected, members


def test_prop_nn_refutations_fold_alike(monkeypatch):
    # prop-nn never fails on a real lattice, so fail its midpoint check at
    # every point at distance 1 from F, with |F| as the right side: the first
    # refuted set in mask order must give the witness, and every set its
    # firings
    real = lattice_module.is_midpoint_convex_at

    def failing(lat, f, x, tol=None):
        if f[x] == 1:
            size = sum(1 for v in f.values() if v == 0)
            return MidpointVerdict(False, x, MidpointWitness((1,), 2, size))
        return real(lat, f, x, tol=tol)

    monkeypatch.setattr(lattice_module, "is_midpoint_convex_at", failing)
    # the plain passes settle no site, so every site reaches the library checks
    monkeypatch.setattr(lattice_module, "_plain_passes", lambda lat, f: (lambda x: False,) * 2)
    report = assert_same("prop-nn", lattice("l1", 1, ((0, 6),)))
    assert report.verdict == "refuted"
    assert report.witness == {"vertex": "(1)", "z": "(1)", "lhs": 2, "rhs": 1}


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 7))
    weights = st.sampled_from((1, 2, 3, 0.5, 1.5, 0.1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j, draw(weights)))
    return Graph(edges, vertices=range(n))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_instances())
def test_thm3_matches_the_fold_on_any_small_graph(g):
    assert_same("thm3", g)
