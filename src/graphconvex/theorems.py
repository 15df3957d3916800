"""Machine checks for the claims connecting convexity and subharmonicity.

Each verifier scans an instance, fires wherever the claim's hypothesis
holds, asserts the claimed conclusion there, and returns a
:class:`ClaimReport`.  Vacuous outcomes (the hypothesis never fired) are
first-class: a claim suite that only ever fires vacuously is treated as a
failure by the CLI.

Claim ids, in the order of :data:`CLAIMS`, which says how ``verify`` checks each:

================  ============================================================
``thm1``          triangle-free at z with deg(z) > 1: convex at z implies
                  subharmonic at z (unit weights)
``thm2``          neighbors of z split into non-adjacent pairs: convex at z
                  implies subharmonic at z (unit weights)
``thm3``          d(., F) convex everywhere implies F is convex (graph metric)
``thm4-cvx-sub``  midpoint convex implies weighted-subharmonic at interior
                  lattice vertices
``lem-deg2``      on connected 2-regular triangle-free graphs, a function is
                  convex everywhere iff subharmonic everywhere
``lem-dist-pt``   f = ||. - a|| is midpoint convex at every window vertex
``prop-dist-cvx`` d(., F) midpoint convex everywhere implies F is convex
                  (norm metric)
``prop-nn``       F convex with the nearest-neighbor property: d(., F) is
                  midpoint convex and weighted-subharmonic at interior
                  vertices
================  ============================================================
"""

from __future__ import annotations

import itertools
import math
import random
import time
from functools import partial, reduce
from itertools import repeat
from operator import add, le, mul, or_
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from . import generators
from .convexity import (
    betweenness_closure,
    distance_function,
    indicator,
    is_convex_at,
    is_convex_set,
    set_distance_function,
)
from .enumeration import _iter_connected_unit_graphs, count_connected_graphs
from .extreal import DEFAULT_TOL, approx_le, check_tolerance, report_value
from .graph import Graph, Metric, _bit_indices, _info, _picker
from .io import format_graph, format_vertex
from .lattice import GroupLattice, _is_int, _sub, _tests, has_nearest_neighbor_property
from .lattice import is_midpoint_convex_at  # noqa: F401  uncalled; perfbench/selfcheck.py reads it
from .subharmonic import is_subharmonic_at

# claim id -> (instance kind "graph" or "lattice", input file "fn", "set" or
# None, check(instance, data, opts) of that input, (the value options of
# "values", "count" and "seed" that the suite reads, suite(instance, opts)
# run without an input)).  opts has tol, label, count, seed and values().
# Verifiers are looked up by global name when called, so a wrapper set on
# this module sees them.
CLAIMS = {
    "thm1": ("graph", "fn",
        lambda g, f, o: verify_pointwise_implication(g, f, "triangle_free", o.tol, o.label),
        (("values",), lambda g, o: exhaustive_small_graph_sweep(
            "triangle_free", graphs=[g], values=o.values()))),
    "thm2": ("graph", "fn",
        lambda g, f, o: verify_pointwise_implication(g, f, "pairing", o.tol, o.label),
        (("values",), lambda g, o: exhaustive_small_graph_sweep(
            "pairing", graphs=[g], values=o.values()))),
    "thm3": ("graph", "set",
        lambda g, s, o: verify_dist_convex_implies_set_convex(g, s, o.tol, o.label),
        ((), lambda g, o: sweep_subsets_dist_convex(g, o.tol))),
    "thm4-cvx-sub": ("lattice", "fn",
        lambda lat, f, o: verify_pointwise_implication(lat, f, "midpoint", o.tol, o.label),
        (("count", "seed"), lambda lat, o: sweep_max_affine(lat, o.count, o.seed, o.tol))),
    "lem-deg2": ("graph", None, None,
        (("values",), lambda g, o: verify_degree2_equivalence(g, o.values()))),
    "lem-dist-pt": ("lattice", None, None,
        (("count", "seed"), lambda lat, o: verify_dist_to_point_midpoint_convex(
            lat, None, o.count, o.seed, o.tol))),
    "prop-dist-cvx": ("lattice", "set",
        lambda lat, s, o: verify_dist_convex_implies_set_convex(lat, s, o.tol, o.label),
        ((), lambda lat, o: sweep_subsets_dist_convex(lat, o.tol))),
    "prop-nn": ("lattice", "set",
        lambda lat, s, o: verify_nn_implies_dist_midpoint_convex(lat, s, o.tol),
        ((), lambda lat, o: sweep_subsets_nn(lat, o.tol))),
}

CLAIM_IDS = tuple(CLAIMS)

PREDICATES = ("convex-not-subharmonic", "distance-fn-not-convex")

SAMPLERS = ("distance", "random-int", "indicator", "constant")

FAMILIES = ("cycle", "path", "grid", "random")

# The most functions one exact sweep covers, one bit each: 500 KB per mask.
SWEEP_CAP = 4_000_000

# The most points whose nonempty subsets one subset sweep covers: 4,095 sets.
SUBSET_CAP = 12


class ClaimReport(NamedTuple):
    """Outcome of checking one claim on one instance (or aggregated sweep).

    ``checked`` counts assertion sites scanned, ``hypothesis_fired`` how many
    of them had the full antecedent hold (each such site was asserted).
    ``verdict`` is ``"verified"``, ``"vacuous"`` (never fired) or
    ``"refuted"`` (an assertion failed; ``witness`` says where).
    """

    claim: str
    instance: str
    checked: int
    hypothesis_fired: int
    verdict: str
    witness: dict | None = None

    @classmethod
    def settled(cls, claim: str, instance: str, checked: int, fired: int) -> ClaimReport:
        """The report of a scan that found no refutation: verified when the
        hypothesis fired somewhere, vacuous when it never did."""
        return cls(claim, instance, checked, fired, "verified" if fired else "vacuous")

    def __bool__(self) -> bool:
        return self.verdict != "refuted"

    def as_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "instance": self.instance,
            "checked": self.checked,
            "hypothesis_fired": self.hypothesis_fired,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def aggregate_reports(claim: str, instance: str, reports: Iterable[ClaimReport]) -> ClaimReport:
    """Fold per-instance reports into one: refuted wins, then verified, then vacuous."""
    checked = fired = 0
    first_refuted: ClaimReport | None = None
    for r in reports:
        checked += r.checked
        fired += r.hypothesis_fired
        if r.verdict == "refuted" and first_refuted is None:
            first_refuted = r
    if first_refuted is not None:
        return ClaimReport(claim, instance, checked, fired, "refuted", first_refuted.witness)
    return ClaimReport.settled(claim, instance, checked, fired)


# -- structural hypotheses ----------------------------------------------------


def triangle_free_hypothesis(g: Graph, z) -> bool:
    """deg(z) > 1 and no two neighbors of z are adjacent."""
    return g.degree(z) > 1 and not g.in_triangle(z)


def pairing_hypothesis(g: Graph, z) -> tuple | None:
    """A partition of z's neighbors into mutually non-adjacent pairs, or None.

    Deterministic backtracking in vertex order, so the same matching is
    returned every time.  Odd degree (and degree zero, where neighborhood
    means are undefined) yields None.
    """
    adj = g.neighbors(z)
    nbrs = [v for v in g.vertices if v in adj]
    if not nbrs or len(nbrs) % 2:
        return None
    pairs: list[tuple] = []

    def extend(remaining: list) -> bool:
        if not remaining:
            return True
        a, adj_a = remaining[0], g.neighbors(remaining[0])
        for k in range(1, len(remaining)):
            b = remaining[k]
            if b not in adj_a:
                pairs.append((a, b))
                if extend(remaining[1:k] + remaining[k + 1 :]):
                    return True
                pairs.pop()
        return False

    return tuple(pairs) if extend(nbrs) else None


def _graph_hypothesis(hypothesis: str):
    """Claim id and per-vertex test of a structural hypothesis."""
    if hypothesis == "triangle_free":
        return "thm1", triangle_free_hypothesis
    if hypothesis == "pairing":
        return "thm2", lambda g, z: pairing_hypothesis(g, z) is not None
    raise ValueError(f"unknown hypothesis {hypothesis!r}")


# -- pointwise implication claims ---------------------------------------------


def verify_pointwise_implication(
    instance: Graph | GroupLattice,
    f: Mapping,
    hypothesis: str,
    tol: float = DEFAULT_TOL,
    label: str | None = None,
) -> ClaimReport:
    """Assert "convex here implies subharmonic here" wherever the named
    hypothesis holds.

    ``hypothesis`` is ``"triangle_free"`` or ``"pairing"`` on a unit-weight
    graph (plain means, claim thm1/thm2), or ``"midpoint"`` on a lattice
    (weighted means at interior vertices, claim thm4-cvx-sub).  The witness
    of a refutation names the first failing site, and on a lattice also
    the total edge weight of its mean.  A tolerance that is NaN, infinite
    or negative raises ValueError.
    """
    check_tolerance(tol)
    if hypothesis in ("triangle_free", "pairing"):
        if not isinstance(instance, Graph):
            raise ValueError(f"hypothesis {hypothesis!r} needs a Graph instance")
        if not instance.is_unit_weight:
            raise ValueError("structural hypotheses assume unit edge weights")
        claim, hyp = _graph_hypothesis(hypothesis)
        weighted = False
        sites = [z for z in instance.vertices if hyp(instance, z)]
        convex_at = partial(is_convex_at, instance.metric(tol), f)

        def subharmonic_at(z):
            return is_subharmonic_at(instance, f, z, weighted=False, tol=tol)
    elif hypothesis == "midpoint":
        if not isinstance(instance, GroupLattice):
            raise ValueError("hypothesis 'midpoint' needs a GroupLattice instance")
        claim, weighted = "thm4-cvx-sub", True
        sites = instance._mean_sites
        # f is validated at the first site, so a window without sites
        # leaves it unread
        if sites:
            convex_at, subharmonic_at = _tests(instance, f, tol)
    else:
        raise ValueError(f"unknown hypothesis {hypothesis!r}")
    name = label or repr(instance)
    fired = 0
    for checked, z in enumerate(sites, 1):
        if not convex_at(z):
            continue
        fired += 1
        cmp = subharmonic_at(z)
        if not cmp:
            lead = {"vertex": format_vertex(z)}
            if weighted:
                lead["total_weight"] = report_value(cmp.total_weight)
            witness = _mean_witness(cmp, **lead)
            return ClaimReport(claim, name, checked, fired, "refuted", witness)
    return ClaimReport.settled(claim, name, len(sites), fired)


# -- distance-function claims --------------------------------------------------


def verify_dist_convex_implies_set_convex(
    instance: Graph | GroupLattice,
    members,
    tol: float = DEFAULT_TOL,
    label: str | None = None,
) -> ClaimReport:
    """If d(., F) is convex (graph metric: two-point inequality everywhere;
    lattice: midpoint inequality everywhere), then F must be a convex set.

    Claim thm3 on graphs, prop-dist-cvx on lattices.  F must be nonempty.
    """
    m = instance.metric(tol)
    f_set = frozenset(members)
    if not f_set:
        raise ValueError("F must be nonempty")
    fun = set_distance_function(m, f_set)
    if isinstance(instance, GroupLattice):
        claim = "prop-dist-cvx"
        antecedent = all(map(_tests(instance, fun, m.tol)[0], instance.window))
        checked = len(instance.window)
    else:
        claim = "thm3"
        antecedent = all(is_convex_at(m, fun, z) for z in m.vertices)
        checked = len(m.vertices)
    name = label or f"{instance!r}, |F|={len(f_set)}"
    if not antecedent:
        return ClaimReport(claim, name, checked, 0, "vacuous")
    extra = betweenness_closure(m, f_set) - f_set
    if not extra:
        return ClaimReport(claim, name, checked, 1, "verified")
    return ClaimReport(claim, name, checked, 1, "refuted", _outside_witness(extra))


def verify_nn_implies_dist_midpoint_convex(
    lat: GroupLattice,
    members,
    tol: float = DEFAULT_TOL,
) -> ClaimReport:
    """Claim prop-nn: a convex set with the nearest-neighbor property has a
    midpoint-convex (hence weighted-subharmonic) distance function at every
    interior vertex."""
    m = lat.metric(tol)
    f_set = frozenset(members)
    if not f_set:
        raise ValueError("F must be nonempty")
    name = f"{lat!r}, |F|={len(f_set)}"
    checked = len(lat.interior)
    if not is_convex_set(m, f_set) or not has_nearest_neighbor_property(lat, f_set, tol=tol):
        return ClaimReport("prop-nn", name, checked, 0, "vacuous")
    fired, witness = _nn_conclusion(lat, set_distance_function(m, f_set), tol)
    if witness is not None:
        return ClaimReport("prop-nn", name, checked, fired, "refuted", witness)
    return ClaimReport.settled("prop-nn", name, checked, fired)


def _nn_conclusion(lat: GroupLattice, fun: Mapping, tol: float) -> tuple[int, dict | None]:
    """The interior vertices of nonzero degree asserted, in order, and the
    witness of the first one where d(., F) = ``fun`` is not midpoint convex
    or not weighted-subharmonic (None when there is none)."""
    convex_at, subharmonic_at = _tests(lat, fun, tol)
    sites = lat._mean_sites
    for fired, x in enumerate(sites, 1):
        mp = convex_at(x)
        if not mp:
            return fired, _midpoint_witness(mp.witness, vertex=format_vertex(x))
        cmp = subharmonic_at(x)
        if not cmp:
            return fired, _mean_witness(cmp, vertex=format_vertex(x))
    return len(sites), None


def _outside_witness(extra) -> dict:
    """The witness of a set F whose closure adds the vertices ``extra``."""
    return {"vertex": format_vertex(min(extra, key=format_vertex)), "outside_set": True}


def verify_dist_to_point_midpoint_convex(
    lat: GroupLattice,
    points: Iterable | None = None,
    count: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ClaimReport:
    """Claim lem-dist-pt: f = ||. - a|| is midpoint convex at every window
    vertex, for each base point a (sampled near the window by default)."""
    check_tolerance(tol)
    spec = lat.spec
    if points is None:
        _require_non_negative(count=count)
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
        convex_at = _tests(lat, fun, tol)[0]
        for x in lat.window:
            checked += 1
            fired += 1
            mp = convex_at(x)
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


# -- degree-2 equivalence -------------------------------------------------------


def verify_degree2_equivalence(g: Graph, values=(0, 1, 2)) -> ClaimReport:
    """Claim lem-deg2 on a connected 2-regular triangle-free graph.

    For every function into ``values`` this asserts, in exact ints, that
    convex at z implies subharmonic at z, so convex everywhere implies
    subharmonic everywhere.  The reverse holds by the maximum principle: on
    a connected graph a function subharmonic everywhere is constant, and
    constants are convex.  The functions subharmonic everywhere still count
    as firings, so pinned counts guard that set.

    The pointwise *converse* is deliberately not asserted: on cycles of
    length >= 6 a function can be subharmonic at a vertex while a longer
    between-pair refutes convexity there.  On C_6, f = (0, 0, 0, 0, 1, 2)
    is harmonic at vertex 4, but vertex 4 lies between 0 and 3 and
    d(0, 3) f(4) = 3 > d(4, 3) f(0) + d(0, 4) f(3) = 0, so f is not convex
    there.  Only the function-level equivalence is a theorem;
    ``test_criterion_9_pointwise_equivalence_on_cycles`` checks the
    pointwise relation on C_4..C_8.

    At most 4,000,000 functions are swept (C_13 with three values).  The
    finished sweep is logged at INFO level on this module's logger.
    """
    if not g.is_unit_weight:
        raise ValueError("degree-2 equivalence assumes unit weights")
    if not g.is_connected:
        raise ValueError("degree-2 equivalence needs a connected graph")
    if any(g.degree(v) != 2 for v in g.vertices):
        raise ValueError("degree-2 equivalence needs a 2-regular graph")
    if any(g.in_triangle(v) for v in g.vertices):
        raise ValueError("degree-2 equivalence needs a triangle-free graph")
    _require_int_values(values)
    n = g.vertex_count
    if len(values) ** n > SWEEP_CAP:
        raise ValueError("value sweep too large")
    start = time.perf_counter()
    report = _degree2_sweep(g, values)
    _log_sweep(report, start)
    return report


def _degree2_sweep(g: Graph, values) -> ClaimReport:
    """The value sweep of :func:`verify_degree2_equivalence`, at every vertex
    of g; g is not validated.

    The functions are the tuples of ``itertools.product(values, repeat=n)``
    in the vertex order of g, and bit b of each mask of
    :func:`_sweep_masks` stands for the b-th of them.  Per function the
    report counts n checked sites, one firing per convex site, and one more
    when the function is subharmonic everywhere.  The one refutation is a
    site that is convex but not subharmonic: the witness is the lowest such
    function at its first such vertex, all n of its sites count as checked
    and none of its firings count.  Neither global direction needs a test
    of its own.  Convex everywhere but not subharmonic everywhere makes
    some site convex but not subharmonic.  Subharmonic everywhere makes the
    function constant by the maximum principle (at a maximum, deg f(z) <=
    the neighbour sum forces every neighbour to the maximum, and g is
    connected), and constants are convex everywhere.
    """
    n = g.vertex_count
    total, convex, not_sub = _sweep_masks(g, values, range(n))
    sub_everywhere = (1 << total) - 1
    for bad in not_sub:
        sub_everywhere &= ~bad
    refutation = _first_refutation(convex, not_sub)
    if refutation is None:
        fired = sum(c.bit_count() for c in convex) + sub_everywhere.bit_count()
        return ClaimReport.settled(
            "lem-deg2", f"{g!r}, f in {values}^X", total * n, fired
        )
    b, k, fired = refutation
    fired += (sub_everywhere & ((1 << b) - 1)).bit_count()
    witness = _sweep_witness(
        g, _function_at(values, n, b), k, "convex at z but not subharmonic at z"
    )
    return ClaimReport("lem-deg2", repr(g), (b + 1) * n, fired, "refuted", witness)


# -- exhaustive sweeps over small graphs ----------------------------------------


def exhaustive_small_graph_sweep(
    hypothesis: str,
    max_n: int = 6,
    values=(0, 1, 2),
    graphs: Iterable[Graph] | None = None,
) -> ClaimReport:
    """Run thm1/thm2 over every function into ``values`` on every connected
    graph up to ``max_n`` vertices (one per isomorphism class).

    All arithmetic is exact ints.  The returned report counts every
    hypothesis site scanned and every firing (site where the function was
    also convex); a single refutation aborts the sweep with its witness.
    Progress goes to this module's logger at INFO level, one record each
    time the vertex count changes.  Without ``graphs``, each class is built
    as a :class:`Graph` only when the sweep reaches it.

    On each graph the functions are the tuples of
    ``itertools.product(values, repeat=n)`` in the vertex order of the
    graph, and bit b of each mask of :func:`_sweep_masks` stands for the
    b-th of them, so at most 4,000,000 functions fit one graph.  The value
    masks and violation rules are built once per sweep, so each graph pays
    only for its between-pairs, read from its breadth-first shells, and the
    mask algebra.  The witness is the lowest function that refutes at some
    site, at its first such site in vertex order; the counts are those of a
    scan that visits the functions in order, and the sites of each in
    vertex order, and stops there.
    """
    claim, hyp = _graph_hypothesis(hypothesis)
    _require_int_values(values)
    if graphs is None:
        count = sum(count_connected_graphs(n) for n in range(1, max_n + 1))
        graphs = (
            g for n in range(1, max_n + 1) for g in _iter_connected_unit_graphs(n)
        )
    else:
        graphs = list(graphs)
        count = len(graphs)
    label = f"{count} graphs, f in {values}^X"
    checked = fired = 0
    start, last_n, tables = time.perf_counter(), None, {}
    for swept, g in enumerate(graphs):
        if g.vertex_count != last_n:
            last_n = g.vertex_count
            _info(
                __name__, "%s sweep: n=%d after %d graphs, checked=%d fired=%d, %.2f s",
                claim, last_n, swept, checked, fired, time.perf_counter() - start,
            )
        if len(values) ** g.vertex_count > SWEEP_CAP:
            raise ValueError(
                f"value sweep over {g.vertex_count} vertices is too large"
            )
        sites = [k for k, z in enumerate(g.vertices) if hyp(g, z)]
        if not sites:
            continue
        site_checked, site_fired, witness = _implication_sweep(g, values, sites, tables)
        checked += site_checked
        fired += site_fired
        if witness is not None:
            return ClaimReport(claim, label, checked, fired, "refuted", witness)
    return ClaimReport.settled(claim, label, checked, fired)


def _implication_sweep(g: Graph, values, sites, tables=None) -> tuple[int, int, dict | None]:
    """Checked sites, firings and the first witness of "convex at z implies
    subharmonic at z" over every function into ``values``, at the vertex
    indices ``sites`` (ascending) of g, in the order of
    :func:`exhaustive_small_graph_sweep`; ``tables`` as :func:`_sweep_masks`
    takes them."""
    total, convex, not_sub = _sweep_masks(g, values, sites, tables)
    refutation = _first_refutation(convex, not_sub)
    if refutation is None:
        return total * len(sites), sum(c.bit_count() for c in convex), None
    b, p, fired = refutation
    fired += sum(c >> b & 1 for c in convex[: p + 1])
    witness = _sweep_witness(
        g, _function_at(values, g.vertex_count, b), sites[p],
        "convex at z but not subharmonic at z",
    )
    return b * len(sites) + p + 1, fired, witness


def _first_refutation(convex, not_sub) -> tuple[int, int, int] | None:
    """The lowest function b convex but not subharmonic at some site, the
    first such site p, and the firings (convex sites) of the functions
    before b; None when no function refutes."""
    firsts = [
        ((m & -m).bit_length() - 1, p)
        for p, (c, s) in enumerate(zip(convex, not_sub))
        if (m := c & s)
    ]
    if not firsts:
        return None
    b, p = min(firsts)
    return b, p, sum((c & ((1 << b) - 1)).bit_count() for c in convex)


# -- the bit-parallel sweep kernel ---------------------------------------------------


def _sweep_masks(g: Graph, values, sites, tables=None) -> tuple[int, list[int], list[int]]:
    """Convexity and subharmonicity at each site of g for every function
    into ``values`` at once, in exact ints (unit weights, plain means).

    Bit b of a mask stands for the b-th tuple of
    ``itertools.product(values, repeat=n)``, in the vertex order of g;
    ``values`` keep the caller's order, duplicates included.  Returns the
    number of functions and, per site, the mask of functions convex there
    and the mask of functions not subharmonic there.

    The between-pairs (i, j) of a site k are read exactly from the
    breadth-first shells: for each i at finite distance from k, the j > i
    of :meth:`Metric.through` (i, k), k excluded, so a disconnected g
    sweeps too.  The neighbours of k are its shell at distance 1.
    ``tables`` keeps what depends on ``values`` alone: the value masks of
    the last vertex count and the violation rule of each pair of
    distances.  A sweep passes one dict, for its one ``values``, to all its
    calls, so each is built once per sweep; without one, a call builds its
    own.
    """
    if not g.is_unit_weight:
        raise ValueError("structural hypotheses assume unit edge weights")
    n, q, xs = g.vertex_count, len(values), sorted(set(values))
    total = q**n
    full = (1 << total) - 1
    tables = {} if tables is None else tables
    if tables.get("n") != n:
        # at[i] = (eq, below): eq[a] has f(i) = xs[a], below[t] has f(i) in
        # xs[:t].  Vertex i is digit i of b in base q, most significant
        # first, so its pattern is a block of q**(n-1-i) bits per value
        # index, repeated every q**(n-i) bits.
        tables["n"], at = n, []
        for i in range(n):
            stride = q ** (n - 1 - i)
            period = dict.fromkeys(xs, 0)
            for v, x in enumerate(values):
                period[x] |= ((1 << stride) - 1) << v * stride
            eq = [_tile(period[x], q * stride, total) for x in xs]
            at.append((eq, list(itertools.accumulate(eq, or_, initial=0))))
        tables["at"] = at
    at, rules = tables["at"], tables.setdefault("rules", {})
    m = g.metric()
    if n and m.shells(0) is None:  # weights 1.0: the same distances from an int copy
        m = Graph([e[:2] for e in g.edges()], g.vertices).metric()
    convex, not_sub = [], []
    for k in sites:
        rk, shells = m.row(k), m.shells(k)
        others = reduce(or_, shells.values()) & ~(1 << k)
        # broken[a]: functions where some pair (i, j) around k breaks
        # d_ij f(k) <= d_jk f(i) + d_ik f(j) once f(k) = xs[a]
        broken = [0] * len(xs)
        for i in _bit_indices(others):
            at_i, dik = at[i][0], rk[i]
            for j in _bit_indices(m.through(i, k) & others >> i + 1 << i + 1):
                rule = rules.get((dik, rk[j]))
                if rule is None:
                    rule = rules[dik, rk[j]] = _violation_rule(xs, dik + rk[j], rk[j], dik)
                below_j = at[j][1]
                for a, terms in enumerate(rule):
                    for b, t in terms:
                        broken[a] |= at_i[b] & below_j[t]
        at_k = at[k][0]
        bad = 0
        for a in range(len(xs)):
            bad |= at_k[a] & broken[a]
        convex.append(full ^ bad)
        # sums[s]: functions whose neighbours of k sum to s
        nlist = list(_bit_indices(shells.get(1, 0)))
        sums = {0: full}
        for i in nlist:
            at_i = at[i][0]
            nxt: dict[int, int] = {}
            for s, mask in sums.items():
                for a, x in enumerate(xs):
                    nxt[s + x] = nxt.get(s + x, 0) | mask & at_i[a]
            sums = nxt
        ordered = sorted(sums)
        bad = low = t = 0
        for a, x in enumerate(xs):
            while t < len(ordered) and ordered[t] < len(nlist) * x:
                low |= sums[ordered[t]]
                t += 1
            bad |= at_k[a] & low
        not_sub.append(bad)
    return total, convex, not_sub


def _violation_rule(xs, dij: int, djk: int, dik: int) -> list[list[tuple[int, int]]]:
    """Per index a of f(k) = xs[a]: the (b, t) such that f(i) = xs[b] and f(j)
    in xs[:t] break d_ij f(k) <= d_jk f(i) + d_ik f(j); xs ascending."""
    rule = []
    for a in xs:
        terms = []
        for b, y in enumerate(xs):
            t = sum(1 for c in xs if dij * a > djk * y + dik * c)
            if t:
                terms.append((b, t))
        rule.append(terms)
    return rule


def _tile(pattern: int, period: int, total: int) -> int:
    """``pattern``, ``period`` bits long, repeated over ``total`` bits."""
    while period < total:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << total) - 1)


def _function_at(values, n: int, b: int) -> list:
    """The b-th tuple of ``itertools.product(values, repeat=n)``."""
    fvals = []
    for _ in range(n):
        b, r = divmod(b, len(values))
        fvals.append(values[r])
    return fvals[::-1]


def _sweep_witness(g: Graph, fvals, k: int, reason: str) -> dict:
    verts = g.vertices
    return {
        "graph": format_graph(g),
        "f": {format_vertex(v): fvals[i] for i, v in enumerate(verts)},
        "vertex": format_vertex(verts[k]),
        "reason": reason,
    }


# -- self-contained suites (no user-supplied function/set) ------------------------


def sweep_max_affine(
    lat: GroupLattice, count: int = 50, seed: int = 0, tol: float = DEFAULT_TOL
) -> ClaimReport:
    """thm4-cvx-sub over ``count`` sampled max-of-affine functions."""
    _require_non_negative(count=count)
    check_tolerance(tol)
    rng = random.Random(f"max-affine:{seed}")
    reports = [
        verify_pointwise_implication(lat, fun, "midpoint", tol=tol, label=name)
        for name, fun in max_affine_samples(lat.spec, rng, count)
    ]
    return aggregate_reports(
        "thm4-cvx-sub", f"{lat!r}, {count} max-affine samples", reports
    )


def sweep_subsets_dist_convex(
    instance: Graph | GroupLattice, tol: float = DEFAULT_TOL
) -> ClaimReport:
    """thm3 (graph) / prop-dist-cvx (lattice) over every nonempty subset,
    logged at INFO level when done."""
    claim = "prop-dist-cvx" if isinstance(instance, GroupLattice) else "thm3"
    return _sweep_subsets(claim, instance, tol)


def sweep_subsets_nn(lat: GroupLattice, tol: float = DEFAULT_TOL) -> ClaimReport:
    """prop-nn over every nonempty subset of the window, logged at INFO
    level when done."""
    return _sweep_subsets("prop-nn", lat, tol)


# -- the incremental subset-sweep kernel --------------------------------------------


def _sweep_subsets(claim: str, instance, tol: float) -> ClaimReport:
    """The claim on every nonempty subset F of the vertices of one metric of
    ``instance``, in mask order (bit i for the i-th vertex), folded into one
    report and logged at INFO level; at most ``SUBSET_CAP`` points.

    The report is the fold of :func:`verify_dist_convex_implies_set_convex`
    (thm3, prop-dist-cvx) or :func:`verify_nn_implies_dist_midpoint_convex`
    (prop-nn) over the subsets, but each F = F' + {v}, v its highest bit,
    is built from the F' visited before it:

    * d(., F) is the pointwise min of d(., F') and the row of v;
    * span(F), the vertices between two members, is span(F') or'ed with the
      intervals I(v, y), y in F', the metric's :meth:`Metric.interval`
      bitmasks, as in the closure; F is convex exactly when span(F) lies
      in F, and span(F) - F is ``betweenness_closure(F) - F``, the witness.

    The antecedents are decided on these vectors (:func:`_antecedent_test`,
    and for prop-nn F convex and :func:`_nearest_neighbor_test`).  prop-nn
    asserts its conclusion with the library checks on d(., F) at the
    interior vertices, only for the F where the antecedent holds.
    """
    start = time.perf_counter()
    m = instance.metric(tol)
    verts = m.vertices
    n = len(verts)
    if n > SUBSET_CAP:
        raise ValueError(
            f"subset sweep over {n} vertices is too large (limit {SUBSET_CAP})"
        )
    rows = [m.row(i) for i in range(n)]
    nn = claim == "prop-nn"
    if nn:
        nearest = _nearest_neighbor_test(instance, m.tol)
    else:
        antecedent = _antecedent_test(claim, instance, m)
    per_set = len(instance.interior) if nn else n
    fired, witness = 0, None
    # d(., F) and span(F) of the F that are some later F', those below the top bit
    dists, spans, half = [None], [0], 1 << (n - 1)
    for v in range(n):
        bit, row, through = 1 << v, rows[v], [m.interval(y, v) for y in range(v)]
        reach = [0]  # reach[s]: OR of I(v, y) over the y in s, for every s < bit
        for rest in range(bit):
            if rest:
                top = rest.bit_length() - 1
                reach.append(reach[rest ^ 1 << top] | through[top])
                dist = list(map(min, dists[rest], row))
            else:
                dist = row
            mask = rest | bit
            span = spans[rest] | reach[rest]
            if mask < half:
                dists.append(dist)
                spans.append(span)
            outside = span & ~mask
            if nn:
                if outside or not nearest(dist, mask):
                    continue
                hits, refuted = _nn_conclusion(instance, dict(zip(verts, dist)), m.tol)
                fired += hits
                if witness is None:
                    witness = refuted
            elif antecedent(dist, mask, outside):
                fired += 1
                if outside and witness is None:
                    witness = _outside_witness([verts[k] for k in _bit_indices(outside)])
    name, checked = f"{instance!r}, all nonempty F", per_set * ((1 << n) - 1)
    if witness is not None:
        result = ClaimReport(claim, name, checked, fired, "refuted", witness)
    else:
        result = ClaimReport.settled(claim, name, checked, fired)
    _log_sweep(result, start)
    return result


def _antecedent_test(claim: str, instance, m: Metric):
    """``test(dist, mask, first)``: whether d(., F) is convex at every vertex
    (thm3, over ``m.between_pairs``) or midpoint convex at every window
    point (prop-dist-cvx), for the set F with bits ``mask`` and distance
    vector ``dist``; the vertices in ``first`` are tried first.

    Each vertex is accepted at once when plain ``<=`` holds on all of its
    inequalities, else decided one inequality at a time with ``approx_le``,
    as the single-set checks do, so floats, +inf and the tolerance keep
    their verdicts.  Members of F need no test: there d(., F) is 0 and every
    right-hand side is at least 0.
    """
    tol = m.tol
    if claim == "thm3":
        # (i, j, d_ij, d_kj, d_ik) with k between: d_ij f(k) <= d_kj f(i) + d_ik f(j),
        # every coefficient positive, so the product never meets 0 * inf
        sites = {}
        for k in range(len(m.vertices)):
            ps = list(m.between_pairs(k, range(len(m.vertices))))
            if ps:
                ii, jj, dij, dkj, dik = zip(*ps)
                sites[k] = (_picker(ii), _picker(jj), dij, dkj, dik)

        def sides(dist, k):
            fi, fj, dij, dkj, dik = sites[k]
            return (map(mul, dij, repeat(dist[k])),
                    map(add, map(mul, dkj, fi(dist)), map(mul, dik, fj(dist))))
    else:
        # 2 f(x) <= f(x + z) + f(x - z) over the pickers of the lattice
        # layout: the metric's vertices are the lattice window, in its order
        sites = {}
        for k, x in enumerate(m.vertices):
            _, box, plus, minus = instance._offsets(x)
            if box:
                sites[k] = (plus, minus)

        def sides(dist, k):
            fp, fq = sites[k]
            return repeat(2 * dist[k]), map(add, fp(dist), fq(dist))

    def holds_at(dist, k):
        return all(map(le, *sides(dist, k))) or all(map(approx_le, *sides(dist, k), repeat(tol)))

    full = sum(1 << k for k in sites)

    def test(dist, mask, first):
        first &= full
        return all(holds_at(dist, k) for k in _bit_indices(first)) and all(
            holds_at(dist, k) for k in _bit_indices(full & ~mask & ~first)
        )

    return test


def _nearest_neighbor_test(lat: GroupLattice, tol: float):
    """``test(dist, mask)``: the nearest-neighbor property of the set F with
    bits ``mask`` and distance vector ``dist``, as
    :func:`has_nearest_neighbor_property` decides it: for members y1, y2
    and every window point z, 2 d(z, F) <= ||y1 + y2 - 2 z||.  The right
    side depends on y1 + y2 only, so there is one row of bounds per sum;
    plain ``<=`` comes first, as in :func:`_antecedent_test`."""
    spec, window = lat.spec, lat.window
    doubled = [tuple(2 * c for c in z) for z in window]
    pair_sum = {}  # (i, j) -> y_i + y_j
    bounds = {}  # y1 + y2 -> ||y1 + y2 - 2 z|| over the window points z
    for i, y1 in enumerate(window):
        for j in range(i, len(window)):
            s = pair_sum[i, j] = tuple(map(add, y1, window[j]))
            if s not in bounds:
                bounds[s] = tuple(spec.norm_value(_sub(s, z2)) for z2 in doubled)

    def test(dist, mask):
        members = list(_bit_indices(mask))
        twice = [2 * d for d in dist]
        for s in {pair_sum[i, j] for a, i in enumerate(members) for j in members[a:]}:
            bound = bounds[s]
            if not (all(map(le, twice, bound)) or all(map(approx_le, twice, bound, repeat(tol)))):
                return False
        return True

    return test


def _log_sweep(report: ClaimReport, start: float) -> None:
    """One INFO record on this module's logger for a finished sweep."""
    _info(
        __name__, "%s sweep: %s, checked=%d fired=%d, %s, %.2f s",
        report.claim, report.instance, report.checked, report.hypothesis_fired,
        report.verdict, time.perf_counter() - start,
    )


# -- function samplers -----------------------------------------------------------


def integer_function_samples(
    vertices, rng: random.Random, count: int = 20
) -> Iterator[tuple[str, dict]]:
    """Uniform random integer functions into [-3, 3]."""
    vs = tuple(vertices)
    for k in range(count):
        yield f"random-int#{k}", {v: rng.randint(-3, 3) for v in vs}


def indicator_samples(
    vertices, rng: random.Random, count: int = 20
) -> Iterator[tuple[str, dict]]:
    """Indicators (0 on the set, +inf off it) of random nonempty subsets."""
    vs = tuple(vertices)
    for k in range(count):
        size = rng.randint(1, len(vs))
        subset = rng.sample(vs, size)
        yield f"indicator#{k}", indicator(subset, vs)


def max_affine_samples(spec, rng: random.Random, count: int = 200) -> Iterator[tuple[str, dict]]:
    """Maxima of one to four integer affine forms <c, v> + b on a lattice
    window, with each c_i in [-2, 2] and b in [-3, 3]: midpoint convex by
    construction, in exact ints."""
    pts = tuple(spec.points())
    axes = [range(lo, hi + 1) for lo, hi in spec.window]
    for k in range(count):
        cols = []  # per affine form, its values in window order
        for _ in range(rng.randint(1, 4)):
            c = tuple(rng.randint(-2, 2) for _ in range(spec.dimension))
            col = [rng.randint(-3, 3)]  # b
            for c_k, axis in zip(c, axes):
                steps = [c_k * t for t in axis]
                col = [u + d for u in col for d in steps]
            cols.append(col)
        values = cols[0] if len(cols) == 1 else map(max, *cols)
        yield f"max-affine#{k}", dict(zip(pts, values))


# -- counterexample search ---------------------------------------------------------


class _SearchFields(NamedTuple):
    instance: str
    function: str
    vertex: Any
    graph: Graph
    values: dict
    detail: dict


class SearchWitness(_SearchFields):
    """A found counterexample: which instance, which function, which vertex.
    ``detail`` defaults to a new empty dict."""

    __slots__ = ()

    def __new__(cls, instance: str, function: str, vertex: Any, graph: Graph, values: dict,
                detail: dict | None = None):
        return super().__new__(
            cls, instance, function, vertex, graph, values, {} if detail is None else detail
        )

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "function": self.function,
            "vertex": format_vertex(self.vertex),
            "graph": format_graph(self.graph),
            "values": {format_vertex(v): report_value(x) for v, x in self.values.items()},
            "detail": self.detail,
        }


def search_counterexample(
    family: str,
    sampler: str,
    budget: int,
    predicate: str = "convex-not-subharmonic",
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    *,
    sizes: Iterable[int] | None = None,
    p: float = 0.5,
    n: int | None = None,
    count: int = 20,
) -> SearchWitness | None:
    """Scan ``budget`` instances of a graph family, sampling functions on
    each, for the first vertex where the predicate trips.

    ``sizes`` lists the cycle or path lengths (default 3, 4, ... or 2, 3,
    ...); the random family draws G(n, p) with n cycling through 4..8
    unless ``n`` is given.  ``count`` functions are sampled per instance by
    the ``random-int`` and ``indicator`` samplers.

    Predicates:

    * ``convex-not-subharmonic`` - f convex at z but not subharmonic at z
      (never fires when the structural hypotheses of thm1/thm2 hold);
    * ``distance-fn-not-convex`` - f fails the two-point inequality at z
      (with the ``distance`` sampler this finds the classic 4-cycle failure
      of d(., a)).

    Returns None when the budget is exhausted without a hit.  Fully
    deterministic for a given seed.  A tolerance that is NaN, infinite or
    negative raises ValueError.
    """
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    _require_non_negative(budget=budget, count=count)
    check_tolerance(tol)
    instances = _family_instances(family, seed, sizes, p, n)
    for idx, (label, g) in enumerate(itertools.islice(instances, budget)):
        m = g.metric(tol)
        rng_key = f"search:{seed}:{idx}"
        for flabel, fun in _sampler_functions(sampler, g, m, rng_key, count):
            for z in g.vertices:
                hit = _evaluate_predicate(predicate, g, m, fun, z, tol)
                if hit is not None:
                    return SearchWitness(label, flabel, z, g, dict(fun), hit)
    return None


def _evaluate_predicate(predicate, g, m, fun, z, tol) -> dict | None:
    if predicate == "convex-not-subharmonic":
        if g.degree(z) == 0:
            return None
        if not is_convex_at(m, fun, z):
            return None
        cmp = is_subharmonic_at(g, fun, z, tol=tol)
        return None if cmp else _mean_witness(cmp)
    verdict = is_convex_at(m, fun, z)
    if verdict:
        return None
    detail = _convexity_witness(verdict.witness)
    if g.degree(z) > 0:
        detail["subharmonic"] = bool(is_subharmonic_at(g, fun, z, tol=tol))
    return detail


def _require_int_values(values) -> None:
    if not all(map(_is_int, values)):  # bool rejected, as Graph rejects bool weights
        raise ValueError(f"values must be ints for the exact sweep, got {values!r}")


def _require_non_negative(**params) -> None:
    for name, value in params.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def _family_instances(family: str, seed: int, sizes, p, n) -> Iterator[tuple[str, Graph]]:
    if family in ("cycle", "path"):
        make, smallest = {"cycle": (generators.cycle, 3), "path": (generators.path, 2)}[family]
        ks = itertools.count(smallest) if sizes is None else sizes
        return ((f"{family}({k})", make(k)) for k in ks)
    if family == "grid":
        return ((f"grid({w}x{h})", generators.grid(w, h)) for w, h in _grid_dims())
    if family == "random":
        ns = (4 + idx % 5 if n is None else n for idx in itertools.count())
        return (
            (f"random(n={k},p={p})#{idx}",
             generators.random_graph(k, p, random.Random(f"family:{seed}:{idx}")))
            for idx, k in enumerate(ns)
        )
    raise ValueError(f"unknown family {family!r}")


def _grid_dims() -> Iterator[tuple[int, int]]:
    for area in itertools.count(4):
        for w in range(2, int(math.isqrt(area)) + 1):
            if area % w == 0:
                yield (w, area // w)


def _sampler_functions(sampler, g, m, rng_key, count: int) -> Iterator[tuple[str, dict]]:
    if sampler == "distance":
        return ((f"d(.,{format_vertex(a)})", distance_function(m, a)) for a in m.vertices)
    if sampler == "random-int":
        return integer_function_samples(g.vertices, random.Random(rng_key), count)
    if sampler == "indicator":
        return indicator_samples(g.vertices, random.Random(rng_key), count)
    return ((f"const {c}", {v: c for v in g.vertices}) for c in (0, 1))  # constant


# -- witness dicts -------------------------------------------------------------------


def _mean_witness(cmp, **lead) -> dict:
    """``lead``, then f(x) and the neighborhood mean of a failed comparison."""
    return {
        **lead,
        "f_value": report_value(cmp.f_value),
        "neighborhood_mean": report_value(cmp.neighborhood_mean),
    }


def _convexity_witness(w, **lead) -> dict:
    """``lead``, then the pair and both sides of a failed two-point inequality."""
    return {
        **lead,
        "pair": [format_vertex(w.x), format_vertex(w.y)],
        "lhs": report_value(w.lhs),
        "rhs": report_value(w.rhs),
    }


def _midpoint_witness(w, **lead) -> dict:
    """``lead``, then the offset z and both sides of a failed midpoint check."""
    return {
        **lead,
        "z": format_vertex(w.z),
        "lhs": report_value(w.lhs),
        "rhs": report_value(w.rhs),
    }

