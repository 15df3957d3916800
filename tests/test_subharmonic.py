import math
from fractions import Fraction

import pytest

from graphconvex import (
    Graph,
    LatticeSpec,
    build_lattice,
    compare_to_neighborhood_mean,
    cycle,
    distance_function,
    is_harmonic_at,
    is_subharmonic_at,
    laplacian,
    path,
)

INF = math.inf


def dist_to_a(lettered_square):
    return distance_function(lettered_square.metric(), "a")


def test_square_distance_function_fails_at_opposite_vertex(lettered_square):
    f = dist_to_a(lettered_square)
    cmp = compare_to_neighborhood_mean(lettered_square, f, "y")
    assert cmp.f_value == 2
    assert cmp.neighborhood_mean == 1
    assert isinstance(cmp.neighborhood_mean, int)  # exact, not 1.0000000001
    assert cmp.verdict == "neither"
    assert not cmp
    assert not is_subharmonic_at(lettered_square, f, "y")


def test_square_distance_function_harmonic_on_the_sides(lettered_square):
    f = dist_to_a(lettered_square)
    for v in ("x", "z"):
        cmp = compare_to_neighborhood_mean(lettered_square, f, v)
        assert cmp.verdict == "harmonic"
        assert cmp.is_harmonic
        assert is_harmonic_at(lettered_square, f, v)
    # at the base point the value 0 sits strictly below the mean 1
    cmp = compare_to_neighborhood_mean(lettered_square, f, "a")
    assert cmp.verdict == "subharmonic"
    assert bool(cmp) and not cmp.is_harmonic


def test_constant_functions_are_harmonic():
    g = cycle(5)
    f = {v: 7 for v in g.vertices}
    assert all(is_harmonic_at(g, f, v) for v in g.vertices)


def test_laplacian_frozen_values(lettered_square):
    f = dist_to_a(lettered_square)
    assert laplacian(lettered_square, f, "a") == 2
    assert laplacian(lettered_square, f, "y") == -2
    assert laplacian(lettered_square, f, "x") == 0
    assert laplacian(lettered_square, f, "z") == 0


def test_laplacian_is_undefined_at_an_isolated_vertex():
    g = Graph([(0, 1)], vertices=[2])
    with pytest.raises(ValueError, match="degree zero at vertex 2: laplacian undefined"):
        laplacian(g, {0: 0, 1: 1, 2: 2}, 2)


def test_means_and_laplacian_stay_exact_beyond_float_range():
    big = 10**400
    g = path(3)
    cmp = compare_to_neighborhood_mean(g, {0: big, 1: 0, 2: big + 1}, 1)
    assert cmp.neighborhood_mean == Fraction(2 * big + 1, 2)
    assert cmp.verdict == "subharmonic"
    assert laplacian(g, {0: big, 1: 0, 2: big}, 1) == 2 * big


def test_laplacian_folds_left_to_right_like_the_comparison():
    # sum() compensates float sums from Python 3.12 on, and gave 1.0 there
    g = Graph([("x", "a"), ("x", "b"), ("x", "c")])
    f = {"x": 0, "a": 1e16, "b": 1.0, "c": -1e16}
    assert compare_to_neighborhood_mean(g, f, "x").verdict == "harmonic"
    lap = laplacian(g, f, "x")
    assert lap == 0.0 and type(lap) is float


def test_means_and_laplacian_mixing_huge_ints_with_floats_are_exact():
    # each of these raised OverflowError in float arithmetic
    big = 10**400
    g = path(3)
    cmp = compare_to_neighborhood_mean(g, {0: big, 1: 0, 2: 0.5}, 1)
    assert cmp.neighborhood_mean == Fraction(2 * big + 1, 4)
    assert cmp.verdict == "subharmonic"
    assert laplacian(g, {0: big, 1: 0.5, 2: 0}, 1) == big - 1
    lat = build_lattice(LatticeSpec(1, "l2", 1.5, ((0, 4),)))  # weights 1.0
    f = dict(zip(lat.window, (0, big, 3, 1, 2)))
    cmp = compare_to_neighborhood_mean(lat.graph, f, (2,), weighted=True)
    assert cmp.total_weight == 2.0
    assert cmp.neighborhood_mean == Fraction(big + 1, 2)
    assert cmp.verdict == "subharmonic"
    assert not compare_to_neighborhood_mean(lat.graph, f, (1,), weighted=True)


def test_weighted_mean_and_laplacian():
    # path a - b - c with weights 1 and 3; M_b = 4
    g = Graph([("a", "b", 1), ("b", "c", 3)])
    f = {"a": 0, "b": 1, "c": 3}
    cmp = compare_to_neighborhood_mean(g, f, "b", weighted=True)
    assert cmp.total_weight == 4
    assert cmp.neighborhood_mean == pytest.approx(9 / 4)
    assert cmp.verdict == "subharmonic"
    unweighted = compare_to_neighborhood_mean(g, f, "b", weighted=False)
    assert unweighted.neighborhood_mean == pytest.approx(3 / 2)
    assert laplacian(g, f, "b") == 1 * (0 - 1) + 3 * (3 - 1) == 5


def test_weighted_vs_unweighted_can_disagree():
    g = Graph([("a", "b", 1), ("b", "c", 9)])
    f = {"a": 0, "b": 2, "c": 3}
    # unweighted mean (0 + 3)/2 = 1.5 < 2, weighted mean 27/10 = 2.7 > 2
    assert not is_subharmonic_at(g, f, "b", weighted=False)
    assert is_subharmonic_at(g, f, "b", weighted=True)


def test_infinite_values():
    g = cycle(4)
    f = {0: INF, 1: 0, 2: 0, 3: 0}
    # an infinite value can only be subharmonic next to another infinity
    assert not is_subharmonic_at(g, f, 0)
    assert is_subharmonic_at(g, f, 1)  # 0 <= (inf + 0)/2
    g5 = cycle(5)
    h = {0: INF, 1: INF, 2: INF, 3: 0, 4: INF}
    assert is_subharmonic_at(g5, h, 0)  # both neighbors infinite
    assert laplacian(g5, h, 0) == INF
    assert laplacian(g, f, 1) == INF


def test_degree_zero_is_an_error():
    g = Graph([(0, 1)], vertices=[2])
    with pytest.raises(ValueError, match="degree zero"):
        compare_to_neighborhood_mean(g, {0: 0, 1: 0, 2: 0}, 2)


def test_missing_value_is_an_error():
    g = cycle(3)
    with pytest.raises(ValueError, match="no value"):
        is_subharmonic_at(g, {0: 1, 1: 1}, 0)
    with pytest.raises(ValueError, match="unknown vertex"):
        is_subharmonic_at(g, {0: 1, 1: 1, 2: 1}, 9)


def test_large_int_comparison_is_exact():
    # mean (0 + 2*10**10 - 2) / 2 = 9999999999 < 10**10: a relative band
    # would call this harmonic
    f = {0: 0, 1: 10**10, 2: 2 * 10**10 - 2}
    cmp = compare_to_neighborhood_mean(path(3), f, 1)
    assert cmp.verdict == "neither"
    assert cmp.neighborhood_mean == 9999999999


def test_bad_values_are_rejected():
    g = path(3)
    with pytest.raises(ValueError):
        compare_to_neighborhood_mean(g, {0: -INF, 1: 0, 2: INF}, 1)
    with pytest.raises(ValueError):
        compare_to_neighborhood_mean(g, {0: 0, 1: math.nan, 2: 0}, 1)
    with pytest.raises(ValueError):
        laplacian(g, {0: 0, 1: 0, 2: math.nan}, 1)
