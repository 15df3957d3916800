"""The per-function midpoint pass against the per-site library checks.

thm4-cvx-sub, lem-dist-pt, the prop-dist-cvx antecedent and the prop-nn
conclusion read each function once and settle most sites with the midpoint
test of ``lattice._plain_passes``; the loops of ``lattice_oracle`` call
``is_midpoint_convex_at`` at every site.  Reports, witness value types and
errors must agree.  ``tests/check_lattice_pass_at_scale.py`` runs the
comparison on larger windows.

The weighted means of thm4-cvx-sub and prop-nn take a plain pass too, over
the neighbours x + z in window order, and a mean left to the library is
compared on the lattice, through ``GroupLattice.neighbors``, so no graph is
built.  The neighbours, the graph, the interior and the max-affine samples
are pinned against the point-by-point constructions of ``lattice_oracle``.
"""

import itertools
import json
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
    is_subharmonic_at,
    max_affine_samples,
    verify_dist_convex_implies_set_convex,
    verify_dist_to_point_midpoint_convex,
    sweep_max_affine,
    sweep_subsets_dist_convex,
    sweep_subsets_nn,
    verify_nn_implies_dist_midpoint_convex,
    verify_pointwise_implication,
)
from graphconvex.extreal import report_value
from graphconvex.graph import UnknownVertexError
from graphconvex.io import format_vertex
import graphconvex.lattice as lattice_module
from graphconvex.lattice import NORMS, _add, _plain_passes

from lattice_oracle import (
    dist_cvx_per_site,
    dist_pt_per_site,
    eager_graph,
    max_affine_oracle,
    nn_per_site,
    nn_sweep_per_site,
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


@st.composite
def nn_sets(draw, lat):
    """A nonempty set of window points: drawn point by point, one point, or
    a sub-box of the window (these two are convex in every norm here)."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.sets(st.sampled_from(lat.window), min_size=1, max_size=4))
    if kind == 1:
        return {draw(st.sampled_from(lat.window))}
    box = []
    for lo, hi in lat.spec.window:
        a = draw(st.integers(lo, hi))
        box.append(range(a, draw(st.integers(a, hi)) + 1))
    return set(itertools.product(*box))


@SETTINGS
@given(lattices(), st.data())
def test_prop_nn_matches_the_per_site_loop(lat, data):
    members = data.draw(nn_sets(lat))
    # a wide tolerance lets near-misses pass the antecedent
    tol = data.draw(st.sampled_from((*TOLS, 0.3)))
    expected = outcome(nn_per_site, lat, members, tol)
    assert outcome(verify_nn_implies_dist_midpoint_convex, lat, members, tol) == expected


def test_prop_nn_library_checks_match_the_per_site_loop(monkeypatch):
    # the plain passes settle no site, so every asserted site goes to the
    # library checks on the lattice
    monkeypatch.setattr(lattice_module, "_plain_passes", lambda lat, f: (lambda x: False,) * 2)
    for lat in every_lattice():
        corner = tuple(lo for lo, _ in lat.spec.window)
        box = set(itertools.product(*(range(lo, lo + 2) for lo, _ in lat.spec.window)))
        for members, tol in itertools.product(({corner}, box), TOLS):
            expected = outcome(nn_per_site, lat, members, tol)
            assert outcome(verify_nn_implies_dist_midpoint_convex, lat, members, tol) == expected


@st.composite
def sweep_lattices(draw):
    """A window of at most 12 points, in 1 or 2 dimensions, radius 0.5 too."""
    if draw(st.booleans()):
        lo = draw(st.integers(-3, 1))
        window = ((lo, lo + draw(st.integers(0, 11))),)
    else:
        window = tuple((lo, lo + n - 1) for lo, n in zip(
            draw(st.tuples(st.integers(-2, 1), st.integers(-2, 1))),
            draw(st.sampled_from(((1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3))))))
    spec = LatticeSpec(len(window), draw(st.sampled_from(NORMS)),
                       draw(st.sampled_from((0.5, 1, 1.5, 2))), window)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # windows without an interior point
        return build_lattice(spec)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sweep_lattices(), st.sampled_from((*TOLS, 0.3)))
def test_prop_nn_sweep_matches_the_per_site_fold(lat, tol):
    assert sweep_subsets_nn(lat, tol) == nn_sweep_per_site(lat, tol)


@SETTINGS
@given(lattices(), st.data())
def test_a_plain_pass_is_final(lat, data):
    f = mixed_function(data, lat)
    holds = _plain_passes(lat, f)[0]
    for x in lat.window:
        if holds(x):
            assert is_midpoint_convex_at(lat, f, x, tol=0.0)


def test_plain_float_failure_falls_back_to_the_tolerance_scan():
    # 2 ||(4, 4)|| exceeds ||(5, 5)|| + ||(3, 3)|| by one float ulp, which
    # the tolerance accepts: the plain pass leaves the site to the library
    lat = lattice("l2", 1.5, ((-2, 2), (-2, 2)))
    f = {v: lat.spec.norm_value((v[0] + 4, v[1] + 4)) for v in lat.window}
    assert _plain_passes(lat, f)[0]((0, 0)) is False
    assert is_midpoint_convex_at(lat, f, (0, 0))
    report = verify_dist_to_point_midpoint_convex(lat, [(-4, -4)])
    assert (report.verdict, report.checked, report.hypothesis_fired) == ("verified", 25, 25)


def test_thm4_validates_f_before_the_first_site(monkeypatch):
    # a bad value away from the first site is still found before that site
    # is decided, as when every site validated f
    compared = []
    real = lattice_module.compare_to_neighborhood_mean

    def spy(*args, **kwargs):
        compared.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice_module, "compare_to_neighborhood_mean", spy)
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


def test_neighbors_are_the_eager_graph_neighbours():
    # at every point, the boundary too, in the same order with the same
    # weights; radius 0.5 has an empty ball, and the last three windows are
    # smaller than the ball
    small = (((0, 0),), ((0, 1), (-1, 1)), ((-1, 0), (0, 2), (0, 0)))
    for lat in every_lattice(WINDOWS + small, (0.5, *RADII, 3)):
        g = eager_graph(lat.spec)
        for x in lat.window:
            got = [(y, type(w), w) for y, w in lat.neighbors(x).items()]
            assert got == [(y, type(w), w) for y, w in g.neighbors(x).items()]
        outside = tuple(hi + 1 for _, hi in lat.spec.window)
        for x in (outside, outside[:-1], outside + (0,)):
            with pytest.raises(UnknownVertexError):
                lat.neighbors(x)


def test_a_rounded_mean_is_settled_on_the_lattice_without_a_graph(monkeypatch):
    # on l2 radius 1.5, f(v) = -v_0 is harmonic at (0, 0), but its float
    # sum misses M f(x) by rounding: the plain pass leaves the site to the
    # library, which compares the mean with the tolerance on the lattice
    built = []
    monkeypatch.setattr(graph.Graph, "__init__", lambda self, *a, **k: built.append(self))
    lat = lattice("l2", 1.5, ((-2, 2), (-2, 2)))
    f = {v: -v[0] for v in lat.window}
    assert _plain_passes(lat, f)[1]((0, 0)) is False
    assert is_subharmonic_at(lat, f, (0, 0), weighted=True).verdict == "harmonic"
    report = verify_pointwise_implication(lat, f, "midpoint")
    assert (report.verdict, report.checked, report.hypothesis_fired) == ("verified", 9, 9)
    assert built == []


@pytest.mark.filterwarnings("ignore:.*no interior vertex")
def test_check_means_on_a_lattice_are_the_eager_graph_means(tmp_path, capsys):
    # check subharmonic|harmonic --lattice compares each mean on the lattice;
    # every row, at the boundary and next to a missing value too, must be
    # the comparison on the eager graph
    rng = random.Random(7)
    for norm, radius in (("l1", 2), ("linf", 1), ("l2", 1.5), ("l2", 2.5), ("l2", 0.5)):
        lat = lattice(norm, radius, ((-2, 2), (-1, 2)))
        g = eager_graph(lat.spec)
        f = {v: rng.choice((0, 1, 2, -1, 0.1, 0.3, math.inf)) for v in lat.window
             if rng.random() < 0.9}
        fn = tmp_path / "f.fn"
        fn.write_text("".join(f"{format_vertex(v)} {y}\n" for v, y in f.items()))
        for kind, weighted in itertools.product(("subharmonic", "harmonic"), (False, True)):
            cli.main(["check", kind, "--lattice", norm, "--radius", str(radius),
                      "--window", "-2:2,-1:2", "--fn", str(fn), "--format", "json",
                      *(["--weighted"] if weighted else [])])
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert rows == [eager_row(g, f, x, kind, weighted) for x in lat.window]


def eager_row(g, f, x, kind, weighted):
    """The row of ``check subharmonic|harmonic`` at x, from the mean on g."""
    name = format_vertex(x)
    if x not in f:
        return {"vertex": name, "verdict": "skipped", "reason": "no value"}
    if not g.neighbors(x):
        return {"vertex": name, "verdict": "skipped", "reason": "degree zero"}
    try:
        cmp = compare_to_neighborhood_mean(g, f, x, weighted=weighted)
    except ValueError:
        return {"vertex": name, "verdict": "skipped", "reason": "no value"}
    ok = cmp.is_harmonic if kind == "harmonic" else bool(cmp)
    return {"vertex": name, "verdict": "ok" if ok else "violated",
            "f_value": report_value(cmp.f_value), "mean": report_value(cmp.neighborhood_mean)}


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


def test_verified_lattice_runs_build_no_graph(monkeypatch, capsys, tmp_path):
    built = []
    init = graph.Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(graph.Graph, "__init__", counting)
    for lat in every_lattice():
        assert sweep_max_affine(lat, 10).verdict in ("verified", "vacuous")
        report = verify_dist_to_point_midpoint_convex(lat, count=3)
        assert report.verdict == "verified"
    for lat in (lattice("l1", 1, ((0, 10),)), lattice("l2", 1.5, ((0, 2), (0, 2)))):
        assert sweep_subsets_nn(lat).verdict == "verified"
        assert sweep_subsets_dist_convex(lat).verdict in ("verified", "refuted")
    assert cli.main(["verify", "thm4-cvx-sub", "--lattice", "l1", "--window", "9",
                     "--dim", "2", "--count", "3"]) == 0
    assert cli.main(["verify", "lem-dist-pt", "--lattice", "l2", "--window", "11",
                     "--dim", "2", "--radius", "1.5", "--count", "2"]) == 0
    fn = tmp_path / "f.fn"
    fn.write_text("".join(f"({x},{y}) {x - y}\n" for x in range(-2, 3) for y in range(-2, 3)))
    for kind, weighted in itertools.product(("subharmonic", "harmonic"), ([], ["--weighted"])):
        # boundary rows are violated: the exit code is 1, and the rows are
        # pinned by test_check_means_on_a_lattice_are_the_eager_graph_means
        assert cli.main(["check", kind, "--lattice", "l2", "--window", "5", "--dim", "2",
                         "--radius", "1.5", "--fn", str(fn), *weighted]) == 1
    capsys.readouterr()
    assert built == []
    lat = lattice("l1", 1, ((-2, 2),))
    assert lat.graph.degree((0,)) == 2 and len(built) == 1
    assert cli.main(["gen", "lattice", "--norm", "l2", "--radius", "1.5", "--window", "3",
                     "--dim", "2"]) == 0
    assert "# interior (0,0)" in capsys.readouterr().out and len(built) == 2


def test_max_affine_samples_match_the_oracle():
    for window in WINDOWS:
        spec = LatticeSpec(len(window), "l1", 1, window)
        for seed in range(5):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = list(max_affine_samples(spec, rng, 20))
            assert got == list(max_affine_oracle(spec, oracle_rng, 20))
            assert rng.getstate() == oracle_rng.getstate()
            assert {type(y) for _, f in got for y in f.values()} == {int}
