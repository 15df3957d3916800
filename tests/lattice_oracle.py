"""Per-site lattice claim checks that the per-function midpoint and mean
passes must reproduce, and point-by-point lattice constructions.

``theorems.verify_pointwise_implication`` (hypothesis "midpoint", claim
thm4-cvx-sub), ``verify_dist_to_point_midpoint_convex`` (lem-dist-pt), the
lattice antecedent of ``verify_dist_convex_implies_set_convex``
(prop-dist-cvx) and the conclusion of prop-nn take their tests from
``lattice._tests``, which reads each function once into window order and
settles most sites with one plain midpoint pass (``lattice._plain_passes``).
The loops here call the library check ``is_midpoint_convex_at`` at every
site instead, so each call validates f and scans the whole box of x with
the tolerance, with no plain pass first; they are the verifiers' loops as
they were before that pass.  Both
read the window through the same pickers (``GroupLattice._offsets``), so
the tuple-arithmetic oracle of ``test_properties`` is what checks those.
Reports, witnesses and errors must be equal.

thm4-cvx-sub and prop-nn also settle most weighted means with one plain
pass over the same window-order values (the one other reader of the flat
layout), and leave the rest to ``compare_to_neighborhood_mean`` on the
lattice, which reads ``GroupLattice.neighbors``, and that looks each x + z
up in the window's index; ``thm4_per_site`` and ``nn_per_site`` compare the
mean at every site on ``eager_graph``, so they share no adjacency code with
the library.
``eager_graph`` and ``reach_interior`` build the graph and the interior
point by point, over the whole window, and ``max_affine_oracle`` computes
the max-affine samples point by point, one dict entry per window point.
"""

import random
from functools import lru_cache, partial
from operator import mul

from graphconvex import (
    ClaimReport,
    Graph,
    aggregate_reports,
    betweenness_closure,
    has_nearest_neighbor_property,
    is_convex_set,
    set_distance_function,
)
from graphconvex.extreal import DEFAULT_TOL, report_value
from graphconvex.io import format_vertex
from graphconvex.lattice import _add, _positive, _reach, _sub, is_midpoint_convex_at
from graphconvex.subharmonic import is_subharmonic_at
from graphconvex.theorems import _mean_witness, _midpoint_witness, _outside_witness


def thm4_per_site(lat, f, tol=DEFAULT_TOL, label=None):
    """thm4-cvx-sub on f: the library midpoint check at every interior
    vertex of nonzero degree, then the weighted mean where it holds."""
    claim, g, weighted = "thm4-cvx-sub", eager_graph(lat.spec, lat._tol), True
    sites = [x for x in sorted(lat.interior) if g.degree(x)]
    convex_at = partial(is_midpoint_convex_at, lat, f, tol=tol)
    name = label or repr(lat)
    fired = 0
    for checked, z in enumerate(sites, 1):
        if not convex_at(z):
            continue
        fired += 1
        cmp = is_subharmonic_at(g, f, z, weighted=weighted, tol=tol)
        if not cmp:
            lead = {"vertex": format_vertex(z)}
            if weighted:
                lead["total_weight"] = report_value(cmp.total_weight)
            witness = _mean_witness(cmp, **lead)
            return ClaimReport(claim, name, checked, fired, "refuted", witness)
    return ClaimReport.settled(claim, name, len(sites), fired)


def nn_per_site(lat, members, tol=DEFAULT_TOL):
    """prop-nn on one set F: the library antecedent, then at every interior
    vertex of nonzero degree the library midpoint check of d(., F) and the
    weighted mean on ``eager_graph``."""
    m = lat.metric(tol)
    f_set = frozenset(members)
    name, checked = f"{lat!r}, |F|={len(f_set)}", len(lat.interior)
    if not is_convex_set(m, f_set) or not has_nearest_neighbor_property(lat, f_set, tol=tol):
        return ClaimReport("prop-nn", name, checked, 0, "vacuous")
    fun, g = set_distance_function(m, f_set), eager_graph(lat.spec, lat._tol)
    fired = 0
    for x in sorted(lat.interior):
        if g.degree(x) == 0:
            continue
        fired += 1
        mp = is_midpoint_convex_at(lat, fun, x, tol=tol)
        if not mp:
            witness = _midpoint_witness(mp.witness, vertex=format_vertex(x))
            return ClaimReport("prop-nn", name, checked, fired, "refuted", witness)
        cmp = is_subharmonic_at(g, fun, x, weighted=True, tol=tol)
        if not cmp:
            witness = _mean_witness(cmp, vertex=format_vertex(x))
            return ClaimReport("prop-nn", name, checked, fired, "refuted", witness)
    return ClaimReport.settled("prop-nn", name, checked, fired)


def nn_sweep_per_site(lat, tol=DEFAULT_TOL):
    """``sweep_subsets_nn``: ``nn_per_site`` on every nonempty subset of the
    window, in mask order, folded into one report."""
    window = lat.window
    reports = (
        nn_per_site(lat, [v for i, v in enumerate(window) if mask >> i & 1], tol)
        for mask in range(1, 1 << len(window))
    )
    return aggregate_reports("prop-nn", f"{lat!r}, all nonempty F", reports)


def dist_pt_per_site(lat, points=None, count=20, seed=0, tol=DEFAULT_TOL):
    """lem-dist-pt: the library midpoint check of ||. - a|| at every window
    vertex, for each base point a."""
    spec = lat.spec
    if points is None:
        rng = random.Random(f"dist-pt:{seed}")
        points = [
            tuple(rng.randint(lo - 2, hi + 2) for lo, hi in spec.window)
            for _ in range(count)
        ]
    else:
        points = list(points)
    checked = fired = 0
    for a in points:
        fun = {v: spec.norm_value(_sub(v, a)) for v in lat.window}
        for x in lat.window:
            checked += 1
            fired += 1
            mp = is_midpoint_convex_at(lat, fun, x, tol=tol)
            if not mp:
                witness = _midpoint_witness(
                    mp.witness, base_point=format_vertex(a), vertex=format_vertex(x)
                )
                return ClaimReport(
                    "lem-dist-pt", repr(lat), checked, fired, "refuted", witness
                )
    return ClaimReport.settled(
        "lem-dist-pt", f"{lat!r}, {len(points)} base points", checked, fired
    )


def dist_cvx_per_site(lat, members, tol=DEFAULT_TOL, label=None):
    """prop-dist-cvx on one set F: the library midpoint check of d(., F) at
    every window vertex, then the betweenness closure of F."""
    m = lat.metric(tol)
    f_set = frozenset(members)
    fun = set_distance_function(m, f_set)
    antecedent = all(is_midpoint_convex_at(lat, fun, x, tol=m.tol) for x in lat.window)
    checked = len(lat.window)
    name = label or f"{lat!r}, |F|={len(f_set)}"
    if not antecedent:
        return ClaimReport("prop-dist-cvx", name, checked, 0, "vacuous")
    extra = betweenness_closure(m, f_set) - f_set
    if not extra:
        return ClaimReport("prop-dist-cvx", name, checked, 1, "verified")
    return ClaimReport("prop-dist-cvx", name, checked, 1, "refuted", _outside_witness(extra))


def outcome(call, *args, **kwargs):
    """The report of ``call`` as a dict plus the types of its witness
    values, or the type and message of the error it raised."""
    try:
        report = call(*args, **kwargs).as_dict()
    except (ValueError, TypeError, OverflowError) as exc:
        return ("raised", type(exc), str(exc))
    types = {k: type(v) for k, v in report.get("witness", {}).items()}
    return ("report", report, types)


@lru_cache(maxsize=64)
def eager_graph(spec, tol=DEFAULT_TOL):
    """The lattice graph on the window of ``spec``: from each window point
    x, in window order, an edge to every x + z in the window, z over the
    ball with first nonzero coordinate positive, of weight ||z||."""
    window = tuple(spec.points())
    steps = [(z, spec.norm_value(z)) for z in spec.ball_offsets(tol) if _positive(z)]
    points = frozenset(window)
    edges = []
    for x in window:
        for z, w in steps:
            y = _add(x, z)
            if y in points:
                edges.append((x, y, w))
    return Graph(edges, vertices=window)


def reach_interior(spec, tol=DEFAULT_TOL):
    """The window points whose reach on every axis is at least the ball's
    largest |z_i| there."""
    offsets = spec.ball_offsets(tol)
    span = [max(abs(z[i]) for z in offsets) for i in range(spec.dimension)]
    return frozenset(
        x for x in spec.points() if all(r >= s for r, s in zip(_reach(spec, x), span))
    )


def max_affine_oracle(spec, rng, count):
    """``theorems.max_affine_samples``, each value computed at its point:
    the same draws from ``rng``, in the same order."""
    pts = tuple(spec.points())
    for k in range(count):
        terms = []
        for _ in range(rng.randint(1, 4)):
            c = tuple(rng.randint(-2, 2) for _ in range(spec.dimension))
            b = rng.randint(-3, 3)
            terms.append((c, b))
        fun = {v: max([sum(map(mul, c, v)) + b for c, b in terms]) for v in pts}
        yield f"max-affine#{k}", fun
