"""The per-function midpoint pass against the per-site library checks.

thm4-cvx-sub, lem-dist-pt and the prop-dist-cvx antecedent read each
function once and settle most sites with ``lattice._plain_midpoint``; the
loops of ``lattice_oracle`` call ``is_midpoint_convex_at`` at every site.
Reports, witness value types and errors must agree.
``tests/check_lattice_pass_at_scale.py`` runs the comparison on larger
windows.

thm4-cvx-sub's weighted means take a plain pass too, over the neighbours
x + z in window order, and the lattice graph is built only when a mean is
left to the library; the graph, the interior and the max-affine samples
are pinned against the point-by-point constructions of ``lattice_oracle``.
"""

import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphconvex import (
    LatticeSpec,
    build_lattice,
    cli,
    compare_to_neighborhood_mean,
    graph,
    is_midpoint_convex_at,
    max_affine_samples,
    theorems,
    verify_dist_convex_implies_set_convex,
    verify_dist_to_point_midpoint_convex,
    sweep_max_affine,
    verify_pointwise_implication,
)
from graphconvex.lattice import NORMS, _add, _plain_midpoint, _plain_passes

from lattice_oracle import (
    dist_cvx_per_site,
    dist_pt_per_site,
    eager_graph,
    max_affine_oracle,
    outcome,
    reach_interior,
    thm4_per_site,
)

# scales of a max-affine function (all keep it midpoint convex; floats round)
SCALES = (1, 3, 0.1, 0.3, Fraction(1, 3), 10**30, 2**53 + 1)
# values set at a few points; None drops the point from f
SPECIAL = (0, 0.1, -0.7, 1.5, math.inf, 2**53 + 1, 10**30, 10**400, Fraction(1, 3), None)
TOLS = (1e-9, 0.0)
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def lattices(draw):
    """A window of dimension 1-3, each axis 3 to 9/6/4 points long."""
    dim = draw(st.integers(1, 3))
    longest = {1: 9, 2: 6, 3: 4}[dim]
    window = []
    for _ in range(dim):
        lo = draw(st.integers(-3, 1))
        window.append((lo, lo + draw(st.integers(2, longest - 1))))
    spec = LatticeSpec(dim, draw(st.sampled_from(NORMS)),
                       draw(st.sampled_from((1, 1.5, 2, 2.5))), tuple(window))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # windows without an interior point
        return build_lattice(spec)


def lattice(norm, radius, window):
    return build_lattice(LatticeSpec(len(window), norm, radius, window))


def convex_function(lat, seed, scale=1):
    (_, f), = max_affine_samples(lat.spec, random.Random(seed), 1)
    return {v: scale * y for v, y in f.items()}


def mixed_function(data, lat):
    """A scaled max-affine function with a few values replaced or dropped,
    or values drawn point by point."""
    if data.draw(st.integers(0, 3)):
        seed, scale = data.draw(st.integers(0, 2**32)), data.draw(st.sampled_from(SCALES))
        f = convex_function(lat, seed, scale)
        changed = data.draw(st.lists(st.sampled_from(lat.window), max_size=3))
    else:
        f, changed = {}, lat.window
    for v in changed:
        value = data.draw(st.sampled_from(SPECIAL))
        if value is None:
            f.pop(v, None)
        else:
            f[v] = value
    return f


@SETTINGS
@given(lattices(), st.data())
def test_thm4_matches_the_per_site_loop(lat, data):
    f = mixed_function(data, lat)
    tol = data.draw(st.sampled_from(TOLS))
    expected = outcome(thm4_per_site, lat, f, tol)
    assert outcome(verify_pointwise_implication, lat, f, "midpoint", tol) == expected


@SETTINGS
@given(lattices(), st.data())
def test_thm4_rejects_nan_and_minus_inf_alike(lat, data):
    f = mixed_function(data, lat)
    f[data.draw(st.sampled_from(lat.window))] = data.draw(st.sampled_from((math.nan, -math.inf)))
    expected = outcome(thm4_per_site, lat, f)
    assert outcome(verify_pointwise_implication, lat, f, "midpoint") == expected
    if any(lat.graph.degree(x) for x in lat.interior):
        assert expected[:2] == ("raised", ValueError)


@SETTINGS
@given(lattices(), st.data())
def test_dist_to_point_matches_the_per_site_loop(lat, data):
    around = [(lo - 3, hi + 3) for lo, hi in lat.spec.window]
    points = data.draw(st.lists(
        st.tuples(*(st.integers(lo, hi) for lo, hi in around)), min_size=1, max_size=3))
    tol = data.draw(st.sampled_from(TOLS))
    expected = outcome(dist_pt_per_site, lat, points, tol=tol)
    assert outcome(verify_dist_to_point_midpoint_convex, lat, points, tol=tol) == expected


@SETTINGS
@given(lattices(), st.data())
def test_dist_convex_matches_the_per_site_loop(lat, data):
    members = data.draw(st.sets(st.sampled_from(lat.window), min_size=1, max_size=4))
    tol = data.draw(st.sampled_from(TOLS))
    expected = outcome(dist_cvx_per_site, lat, members, tol)
    assert outcome(verify_dist_convex_implies_set_convex, lat, members, tol) == expected


@SETTINGS
@given(lattices(), st.data())
def test_a_plain_pass_is_final(lat, data):
    f = mixed_function(data, lat)
    holds = _plain_midpoint(lat, f)
    for x in lat.window:
        if holds(x):
            assert is_midpoint_convex_at(lat, f, x, tol=0.0)


def test_plain_float_failure_falls_back_to_the_tolerance_scan():
    # 2 ||(4, 4)|| exceeds ||(5, 5)|| + ||(3, 3)|| by one float ulp, which
    # the tolerance accepts: the plain pass leaves the site to the library
    lat = lattice("l2", 1.5, ((-2, 2), (-2, 2)))
    f = {v: lat.spec.norm_value((v[0] + 4, v[1] + 4)) for v in lat.window}
    assert _plain_midpoint(lat, f)((0, 0)) is False
    assert is_midpoint_convex_at(lat, f, (0, 0))
    report = verify_dist_to_point_midpoint_convex(lat, [(-4, -4)])
    assert (report.verdict, report.checked, report.hypothesis_fired) == ("verified", 25, 25)


def test_thm4_validates_f_before_the_first_site(monkeypatch):
    # a bad value away from the first site is still found before that site
    # is decided, as when every site validated f
    compared = []
    real = theorems.is_subharmonic_at

    def spy(*args, **kwargs):
        compared.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(theorems, "is_subharmonic_at", spy)
    lat = lattice("l1", 1, ((-3, 3), (-3, 3)))
    for bad in ((3, 3), (9, 9)):  # a window corner, and a point outside the window
        f = convex_function(lat, 0)
        f[bad] = math.nan
        with pytest.raises(ValueError, match="got nan"):
            verify_pointwise_implication(lat, f, "midpoint")
        assert compared == []


def test_thm4_without_sites_does_not_validate_f():
    with pytest.warns(UserWarning, match="no interior vertex"):
        lat = lattice("l1", 1, ((0, 1), (0, 5)))
    f = {v: math.nan for v in lat.window}
    report = verify_pointwise_implication(lat, f, "midpoint")
    assert (report.verdict, report.checked) == ("vacuous", 0)


# windows with negative lo on every axis, in 1, 2 and 3 dimensions
WINDOWS = (((-4, 3),), ((-3, 2), (-2, 3)), ((-2, 1), (-3, 0), (-1, 2)))
RADII = (1, 1.5, 2, 2.5)


def every_lattice(windows=WINDOWS, radii=RADII):
    for window in windows:
        for norm in NORMS:
            for radius in radii:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # windows without an interior point
                    yield lattice(norm, radius, window)


def test_interior_neighbours_are_the_ball_in_window_order():
    for lat in every_lattice():
        ball = [z for z in lat.spec.ball_offsets() if any(z)]
        for x in lat.interior:
            nbrs = list(lat.graph.neighbors(x).items())
            assert nbrs == [(_add(x, z), lat.spec.norm_value(z)) for z in ball]
            order = [lat.window.index(y) for y, _ in nbrs]
            assert order == sorted(order)


def test_the_graph_is_built_on_first_use_as_the_eager_constructor_built_it():
    for lat in every_lattice():
        assert "graph" not in vars(lat)
        g, expected = lat.graph, eager_graph(lat.spec)
        assert lat.graph is g
        assert g.vertices == expected.vertices
        # same neighbours with the same weights, in the same order
        assert [list(g.neighbors(x).items()) for x in g.vertices] == [
            list(expected.neighbors(x).items()) for x in expected.vertices]


def test_interior_is_the_per_point_reach_definition():
    # radius below 1 (every point is interior), and windows smaller than the ball
    small = (((0, 0),), ((0, 1), (-1, 1)), ((-1, 0), (0, 2), (0, 0)))
    for lat in (*every_lattice(), *every_lattice(WINDOWS + small, (0.5, 1, 2, 3))):
        assert lat.interior == reach_interior(lat.spec)


@SETTINGS
@given(lattices(), st.data())
def test_a_plain_mean_is_the_library_verdict(lat, data):
    # a True of the pass is final at any tolerance; on values without a
    # missing point or an overflow it is the verdict at tolerance 0
    f = mixed_function(data, lat)
    scaled = convex_function(lat, data.draw(st.integers(0, 2**32)),
                             data.draw(st.sampled_from(SCALES)))
    for fun, exact in ((f, False), (scaled, True)):
        _, mean = _plain_passes(lat, fun)
        for x in lat.interior:
            if mean(x):
                assert compare_to_neighborhood_mean(lat.graph, fun, x, weighted=True, tol=0.0)
            elif exact:
                assert not compare_to_neighborhood_mean(lat.graph, fun, x, weighted=True, tol=0.0)


def test_verified_lattice_runs_build_no_graph(monkeypatch, capsys):
    built = []
    init = graph.Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(graph.Graph, "__init__", counting)
    for lat in every_lattice():
        if lat.spec.norm != "l2":  # float weights may leave a mean to the library
            assert sweep_max_affine(lat, 10).verdict in ("verified", "vacuous")
        report = verify_dist_to_point_midpoint_convex(lat, count=3)
        assert report.verdict == "verified"
    assert cli.main(["verify", "thm4-cvx-sub", "--lattice", "l1", "--window", "9",
                     "--dim", "2", "--count", "3"]) == 0
    assert cli.main(["verify", "lem-dist-pt", "--lattice", "l2", "--window", "11",
                     "--dim", "2", "--radius", "1.5", "--count", "2"]) == 0
    capsys.readouterr()
    assert built == []
    lat = lattice("l1", 1, ((-2, 2),))
    assert lat.graph.degree((0,)) == 2 and len(built) == 1


def test_max_affine_samples_match_the_oracle():
    for window in WINDOWS:
        spec = LatticeSpec(len(window), "l1", 1, window)
        for seed in range(5):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = list(max_affine_samples(spec, rng, 20))
            assert got == list(max_affine_oracle(spec, oracle_rng, 20))
            assert rng.getstate() == oracle_rng.getstate()
            assert {type(y) for _, f in got for y in f.values()} == {int}
