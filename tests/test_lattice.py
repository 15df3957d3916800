import math
import random
from fractions import Fraction

import pytest

from graphconvex import (
    GroupLattice,
    LatticeSpec,
    UnknownVertexError,
    approx_eq,
    build_lattice,
    group_metric,
    has_nearest_neighbor_property,
    is_convex_at,
    is_midpoint_convex_at,
)


def make(dim=1, norm="l1", radius=1, lo=-2, hi=2):
    return build_lattice(LatticeSpec(dim, norm, radius, ((lo, hi),) * dim))


# ----------------------------------------------------------------------
# spec validation and norms
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1, -1e-12])
def test_lattice_rejects_a_bad_tolerance(tol):
    spec = LatticeSpec(1, "l1", 1, ((0, 2),))
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        GroupLattice(spec, tol)
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        build_lattice(spec).metric(tol)


def test_spec_validation():
    with pytest.raises(ValueError, match="dimension"):
        LatticeSpec(0, "l1", 1, ())
    with pytest.raises(ValueError, match="norm"):
        LatticeSpec(1, "l7", 1, ((0, 1),))
    with pytest.raises(ValueError, match="radius"):
        LatticeSpec(1, "l1", 0, ((0, 1),))
    with pytest.raises(ValueError, match="radius"):
        LatticeSpec(1, "l1", math.inf, ((0, 1),))
    # an int past float range, and a bool, which
    # graphs reject as an edge weight
    with pytest.raises(ValueError, match="radius"):
        LatticeSpec(1, "l1", 10**400, ((0, 3),))
    with pytest.raises(ValueError, match="radius"):
        LatticeSpec(1, "l1", True, ((0, 3),))
    with pytest.raises(ValueError, match="window"):
        LatticeSpec(2, "l1", 1, ((0, 1),))
    with pytest.raises(ValueError, match="empty window"):
        LatticeSpec(1, "l1", 1, ((3, 2),))
    # norm names are case-normalized
    assert LatticeSpec(1, "L1", 1, ((0, 1),)).norm == "l1"


def test_norm_values():
    s2 = LatticeSpec(2, "l1", 1, ((-1, 1), (-1, 1)))
    assert s2.norm_value((3, -4)) == 7
    assert isinstance(s2.norm_value((3, -4)), int)
    si = LatticeSpec(2, "linf", 1, ((-1, 1), (-1, 1)))
    assert si.norm_value((3, -4)) == 4
    se = LatticeSpec(2, "l2", 1, ((-1, 1), (-1, 1)))
    assert se.norm_value((3, -4)) == pytest.approx(5.0)


def test_norm_homogeneity_on_window_points():
    """||2z|| = 2||z|| for every window point, in all three norms."""
    for norm in ("l1", "l2", "linf"):
        spec = LatticeSpec(2, norm, 1, ((-4, 4), (-4, 4)))
        for z in spec.points():
            doubled = tuple(2 * c for c in z)
            assert approx_eq(spec.norm_value(doubled), 2 * spec.norm_value(z))


def test_ball_offsets():
    assert len(LatticeSpec(2, "l1", 1, ((-1, 1),) * 2).ball_offsets()) == 5
    assert len(LatticeSpec(2, "linf", 1, ((-1, 1),) * 2).ball_offsets()) == 9
    # l2 radius 1.5 picks up the diagonals but not (2, 0)
    offs = LatticeSpec(2, "l2", 1.5, ((-1, 1),) * 2).ball_offsets()
    assert len(offs) == 9 and (1, 1) in offs and (2, 0) not in offs
    assert len(LatticeSpec(2, "l1", 2, ((-1, 1),) * 2).ball_offsets()) == 13


# ----------------------------------------------------------------------
# lattice construction
# ----------------------------------------------------------------------


def test_l1_lattice_counts():
    lat = make(dim=2)
    assert len(lat.window) == 25
    assert lat.graph.edge_count == 40
    assert lat.graph.is_unit_weight
    assert len(lat.interior) == 9
    assert lat.is_interior((0, 0)) and not lat.is_interior((2, 0))
    with pytest.raises(UnknownVertexError):
        lat.is_interior((9, 9))


def test_king_moves_under_linf():
    lat = build_lattice(LatticeSpec(2, "linf", 1, ((-1, 1), (-1, 1))))
    assert lat.graph.degree((0, 0)) == 8
    assert lat.graph.degree((1, 1)) == 3


def test_l2_radius_one_and_a_half_weights():
    lat = build_lattice(LatticeSpec(2, "l2", 1.5, ((-1, 1), (-1, 1))))
    w = lat.graph.neighbors((0, 0))
    assert w[(1, 0)] == 1.0
    assert w[(1, 1)] == pytest.approx(math.sqrt(2))
    assert lat.graph.degree((0, 0)) == 8


def test_no_interior_warns():
    with pytest.warns(UserWarning, match="no interior"):
        build_lattice(LatticeSpec(1, "l1", 3, ((0, 2),)))


def test_lattice_keeps_one_norm_metric_per_tolerance():
    lat = build_lattice(LatticeSpec(2, "l2", 1.5, ((0, 2), (0, 2))))
    m = lat.metric()
    assert lat.metric() is m
    assert lat.metric(lat.metric().tol) is m
    other = lat.metric(1e-6)
    assert other is not m and other.tol == 1e-6
    assert lat.metric(1e-6) is other


def test_group_metric_axioms_sampled():
    rng = random.Random("norm-metric")
    for norm in ("l1", "l2", "linf"):
        spec = LatticeSpec(3, norm, 1, ((-2, 2),) * 3)
        m = group_metric(spec)
        pts = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(12)]
        for x in pts:
            assert m.dist(x, x) == 0
            for y in pts:
                assert m.dist(x, y) == m.dist(y, x) >= 0
                for z in pts:
                    assert m.dist(x, y) <= m.dist(x, z) + m.dist(z, y) + 1e-9


# ----------------------------------------------------------------------
# midpoint convexity
# ----------------------------------------------------------------------


def test_abs_is_midpoint_convex():
    lat = make(lo=-4, hi=4)
    f = {v: abs(v[0]) for v in lat.window}
    assert all(is_midpoint_convex_at(lat, f, x) for x in lat.window)


def test_concave_function_fails_with_unit_witness():
    lat = make(lo=-4, hi=4)
    f = {v: -v[0] * v[0] for v in lat.window}
    verdict = is_midpoint_convex_at(lat, f, (0,))
    assert not verdict
    assert verdict.witness.z == (1,)  # the smallest positive offset fails first
    assert verdict.witness.lhs == 0
    assert verdict.witness.rhs == -2


def test_midpoint_rejects_nan():
    lat = make(lo=-2, hi=2)
    f = {v: 0 for v in lat.window}
    f[(2,)] = math.nan
    with pytest.raises(ValueError):
        is_midpoint_convex_at(lat, f, (0,))
    del f[(0,)]  # rejected even where x has no value
    with pytest.raises(ValueError):
        is_midpoint_convex_at(lat, f, (0,))


def test_midpoint_is_exact_beyond_float_range_next_to_floats():
    lat = build_lattice(LatticeSpec(1, "l2", 1, ((0, 4),)))
    f = dict(zip(lat.window, (0, 10**400, 3, 0.5, 2)))
    # z = (1,) gives 10**400 + 0.5, which no float holds; z = (2,) fails
    verdict = is_midpoint_convex_at(lat, f, (2,))
    assert (verdict.witness.z, verdict.witness.lhs, verdict.witness.rhs) == ((2,), 6, 2)
    lat = build_lattice(LatticeSpec(1, "l2", 1, ((0, 2),)))
    f = dict(zip(lat.window, (0.5, 10**401, 10**400)))
    w = is_midpoint_convex_at(lat, f, (1,)).witness
    assert w.rhs == Fraction(2 * 10**400 + 1, 2) and isinstance(w.rhs, Fraction)


def test_midpoint_skips_half_space_and_window_edges():
    lat = make(lo=0, hi=3)
    # at the window edge only z values with both translates inside count
    f = {(0,): 0, (1,): 5, (2,): 0, (3,): 0}
    assert not is_midpoint_convex_at(lat, f, (1,))
    assert is_midpoint_convex_at(lat, f, (0,))  # no valid z at the corner
    # missing values make a pair unusable rather than an error
    partial = {(1,): 5, (2,): 0}
    assert is_midpoint_convex_at(lat, partial, (1,))
    assert is_midpoint_convex_at(lat, partial, (3,))  # x unset: vacuous


def test_midpoint_convexity_agrees_with_norm_metric_convexity():
    """Functions convex under the norm metric are midpoint convex (sampled)."""
    rng = random.Random("cvx-implies-midpoint")
    for norm in ("l1", "l2", "linf"):
        lat = build_lattice(LatticeSpec(1, norm, 1, ((-3, 3),)))
        m = lat.metric()
        for _ in range(30):
            f = {v: rng.randint(-4, 4) for v in lat.window}
            for x in lat.window:
                if is_convex_at(m, f, x):
                    assert is_midpoint_convex_at(lat, f, x), (norm, f, x)


def test_midpoint_2d_requires_both_translates():
    lat = build_lattice(LatticeSpec(2, "l1", 1, ((-2, 2), (-2, 2))))
    f = {v: max(v[0] + 2 * v[1], -v[0]) for v in lat.window}  # max of affine
    assert all(is_midpoint_convex_at(lat, f, x) for x in lat.window)


# ----------------------------------------------------------------------
# nearest-neighbor property
# ----------------------------------------------------------------------


def test_nn_property_two_point_gap_fails():
    lat = make(lo=-2, hi=2)
    verdict = has_nearest_neighbor_property(lat, {(-1,), (1,)})
    assert not verdict
    w = verdict.witness
    assert (w.y1, w.y2, w.z) == ((-1,), (1,), (0,))


def test_nn_property_intervals_pass():
    lat = make(lo=-3, hi=3)
    assert has_nearest_neighbor_property(lat, {(-1,), (0,), (1,)})
    assert has_nearest_neighbor_property(lat, {(2,)})
    assert has_nearest_neighbor_property(lat, set())  # vacuous
    assert has_nearest_neighbor_property(lat, {(v,) for v in range(-3, 4)})


def test_nn_property_2d():
    lat = build_lattice(LatticeSpec(2, "l1", 1, ((-2, 2), (-2, 2))))
    square = {(i, j) for i in (0, 1) for j in (0, 1)}
    assert has_nearest_neighbor_property(lat, square)
    assert not has_nearest_neighbor_property(lat, {(0, 0), (2, 0)})
    # the diagonal pair survives in l1 (the offsets cancel coordinatewise)
    # but not in l2, where |(y1 - z) + (y2 - z)| can dip below 2 min |y - z|
    diagonal = {(0, 0), (1, 1)}
    assert has_nearest_neighbor_property(lat, diagonal)
    lat2 = build_lattice(LatticeSpec(2, "l2", 1.5, ((-2, 2), (-2, 2))))
    verdict = has_nearest_neighbor_property(lat2, diagonal)
    assert not verdict
    assert (verdict.witness.y1, verdict.witness.y2) == ((0, 0), (1, 1))


def test_midpoint_check_rejects_a_point_off_the_window():
    lat = make()
    with pytest.raises(UnknownVertexError):
        is_midpoint_convex_at(lat, dict.fromkeys(lat.window, 0), (9,))


def test_nn_property_validates_members():
    lat = make()
    with pytest.raises(UnknownVertexError):
        has_nearest_neighbor_property(lat, {(9,)})
