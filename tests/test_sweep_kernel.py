"""The bit-parallel sweep kernel against the per-function loops it replaced.

``implication_oracle`` and ``degree2_oracle`` are the inner loops that
``exhaustive_small_graph_sweep`` and ``_degree2_sweep`` ran before the mask
kernel, kept as a reference: one function at a time, one site at a time,
in ``itertools.product`` order.  They take their between-pairs from the
tolerant scan of ``Metric.between_pairs`` and their neighbours from the
graph, not from the breadth-first shells and neighbour bitmasks the kernel
reads.
"""

import itertools

import pytest

from graphconvex import (
    Graph,
    cycle,
    grid,
    king_grid,
    pairing_hypothesis,
    path,
    triangle_free_hypothesis,
    triangular_tiling,
)
from graphconvex.enumeration import _adjacency, _canonical_masks, connected_unit_graphs
from graphconvex.theorems import (
    ClaimReport,
    _degree2_sweep,
    _implication_sweep,
    _refuted_at,
    _sweep_masks,
    _sweep_witness,
)

GRAPHS = [g for n in range(1, 6) for g in connected_unit_graphs(n)]

VALUES = [(0, 1, 2), (2, 0, 1), (-1, 0, 1, 1), (0, 1, 3), ()]


# graphs the enumeration never yields: two components, an isolated vertex,
# and unit weights given as the float 1.0
UNUSUAL = [
    Graph([(0, 1), (1, 2), (3, 4), (4, 5)], vertices=range(7)),
    Graph([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]),
    Graph([(0, 1), (0, 2), (0, 3)], vertices=range(5)),
    Graph([], vertices=range(3)),
    Graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (4, 5, 1.0)]),
]


def pairs_and_neighbours(g):
    """Per vertex index k: the between-pairs of k from the tolerant scan,
    and the indices of k's neighbours with their count."""
    m, n = g.metric(), g.vertex_count
    return [
        (list(m.between_pairs(k, range(n))), ([m.index[u] for u in g.neighbors(z)], g.degree(z)))
        for k, z in enumerate(g.vertices)
    ]


def implication_oracle(g, values, sites):
    """checked, fired and the first witness of thm1/thm2 on g at ``sites``."""
    at = pairs_and_neighbours(g)
    n = g.vertex_count
    data = [(k, *at[k]) for k in sites]
    checked = fired = 0
    for fvals in itertools.product(values, repeat=n):
        for k, plist, (nlist, deg) in data:
            fz = fvals[k]
            checked += 1
            ok = True
            for i, j, dij, djz, diz in plist:
                if dij * fz > djz * fvals[i] + diz * fvals[j]:
                    ok = False
                    break
            if not ok:
                continue
            fired += 1
            if deg * fz > sum(fvals[i] for i in nlist):
                witness = _sweep_witness(
                    g, fvals, k, "convex at z but not subharmonic at z"
                )
                return checked, fired, witness
    return checked, fired, None


def degree2_oracle(g, values) -> ClaimReport:
    """The lem-deg2 value sweep on g, at every vertex."""
    n = g.vertex_count
    pairs_at, nbrs_at = zip(*pairs_and_neighbours(g))
    checked = fired = 0
    for fvals in itertools.product(values, repeat=n):
        conv = []
        sub = []
        for k in range(n):
            fz = fvals[k]
            ok = True
            for i, j, dij, djz, diz in pairs_at[k]:
                if dij * fz > djz * fvals[i] + diz * fvals[j]:
                    ok = False
                    break
            conv.append(ok)
            nlist, deg = nbrs_at[k]
            sub.append(deg * fz <= sum(fvals[i] for i in nlist))
            checked += 1
        for k in range(n):
            if conv[k] and not sub[k]:
                witness = _sweep_witness(g, fvals, k, "convex at z but not subharmonic at z")
                return ClaimReport("lem-deg2", repr(g), checked, fired, "refuted", witness)
        fired += sum(conv)
        if all(sub):
            fired += 1
            if not all(conv):
                k = conv.index(False)
                witness = _sweep_witness(
                    g, fvals, k, "subharmonic everywhere but not convex everywhere"
                )
                return ClaimReport("lem-deg2", repr(g), checked, fired, "refuted", witness)
        elif all(conv):
            k = sub.index(False)
            witness = _sweep_witness(
                g, fvals, k, "convex everywhere but not subharmonic everywhere"
            )
            return ClaimReport("lem-deg2", repr(g), checked, fired, "refuted", witness)
    return ClaimReport.settled("lem-deg2", f"{g!r}, f in {values}^X", checked, fired)


def kernel_sweep(g, values, sites):
    """``_implication_sweep`` on the neighbour bitmasks of g, with its
    refutation spelt as the oracle's witness."""
    checked, fired, refutation = _implication_sweep(g._masks(), values, sites)
    return checked, fired, refutation and _refuted_at(g, values, *refutation)


def _site_lists(g):
    """The thm1 sites, the thm2 sites and every vertex, as index lists."""
    verts = g.vertices
    return (
        [k for k, z in enumerate(verts) if triangle_free_hypothesis(g, z)],
        [k for k, z in enumerate(verts) if pairing_hypothesis(g, z) is not None],
        list(range(len(verts))),
    )


@pytest.mark.parametrize("values", VALUES, ids=repr)
def test_kernel_matches_the_loops_on_every_graph_up_to_five_vertices(values):
    refuted = 0
    for g in GRAPHS:
        for sites in _site_lists(g):
            want = implication_oracle(g, values, sites)
            assert kernel_sweep(g, values, sites) == want, (g, sites)
            refuted += want[2] is not None
        want = degree2_oracle(g, values)
        assert _degree2_sweep(g, values) == want, g
        refuted += want.verdict == "refuted"
    # every vertex as a site reaches refutations (a leaf is convex but not
    # subharmonic under most functions), so witnesses and partial counts
    # are compared too
    assert refuted > 0 if values else refuted == 0


@pytest.mark.parametrize("values", VALUES, ids=repr)
def test_kernel_matches_the_loops_on_graphs_the_enumeration_skips(values):
    # between-pairs come from the shells of each i at finite distance from
    # the site only, so other components and isolated vertices add none
    for g in UNUSUAL:
        for sites in _site_lists(g):
            assert kernel_sweep(g, values, sites) == implication_oracle(g, values, sites), (
                g, sites)
        assert _degree2_sweep(g, values) == degree2_oracle(g, values), g


def test_tables_carry_over_between_vertex_counts():
    # one sweep's tables: masks rebuilt whenever the vertex count changes,
    # rules kept, and every graph still matches its own sweep
    tables = {}
    for g in [cycle(5), path(3), *UNUSUAL, cycle(4), cycle(5)]:
        sites = range(g.vertex_count)
        assert _sweep_masks(g._masks(), (0, 1, 2), sites, tables) == _sweep_masks(
            g._masks(), (0, 1, 2), sites), g
        assert tables["n"] == g.vertex_count
    # the pair and mean masks memoized over every graph up to six vertices,
    # each vertex a site, against a call per graph, which memoizes nothing;
    # values with a duplicate too
    for values in [(0, 1, 2), (2, 0, 2, 1)]:
        tables, reused = {}, [0, 0]
        for n in range(1, 7):
            for mask in _canonical_masks(n):
                adj = _adjacency(n, mask)
                shared = _sweep_masks(adj, values, range(n), tables)
                assert shared == _sweep_masks(adj, values, range(n)), (values, n, mask)
            reused = [a + b for a, b in zip(reused, tables["reused"])]
        assert all(reused), values


def test_kernel_refutation_counts_on_an_edge():
    report = _degree2_sweep(path(2), (0, 1))
    assert (report.verdict, report.checked, report.hypothesis_fired) == ("refuted", 4, 3)
    assert report.witness["vertex"] == "1"
    assert report.witness["f"] == {"0": 0, "1": 1}
    assert kernel_sweep(path(2), (0, 1), [0, 1]) == implication_oracle(
        path(2), (0, 1), [0, 1]
    )


def test_kernel_matches_the_loops_on_cycles_six_and_seven():
    for n in (6, 7):
        assert _degree2_sweep(cycle(n), (0, 1, 2)) == degree2_oracle(cycle(n), (0, 1, 2))


@pytest.mark.parametrize("values", VALUES, ids=repr)
def test_subharmonic_everywhere_is_exactly_the_constants(values):
    # the premises of the one refutation lem-deg2 keeps: by the maximum
    # principle a function subharmonic at every vertex of a connected graph
    # is constant, and constants are convex everywhere
    for g in GRAPHS:
        n = g.vertex_count
        total, convex, not_sub = _sweep_masks(g._masks(), values, range(n))
        sub_everywhere = (1 << total) - 1
        for bad in not_sub:
            sub_everywhere &= ~bad
        constants = 0
        for b, fvals in enumerate(itertools.product(values, repeat=n)):
            if len(set(fvals)) == 1:
                constants |= 1 << b
        assert sub_everywhere == constants, g
        assert all(c & constants == constants for c in convex), g


def test_between_pairs_never_has_the_middle_as_an_end():
    for g in [*GRAPHS, *UNUSUAL, cycle(6), grid(3, 4)]:
        for k, (pairs, _) in enumerate(pairs_and_neighbours(g)):
            assert all(k not in (i, j) for i, j, *_ in pairs), (g, k)


def backtracking_pairs(g, z):
    """The partition ``pairing_hypothesis`` must return: backtracking over
    z's neighbours in vertex order, each adjacency asked of the graph."""
    nbrs = [v for v in g.vertices if g.adjacent(z, v)]
    if not nbrs or len(nbrs) % 2:
        return None
    pairs = []

    def extend(remaining):
        if not remaining:
            return True
        a = remaining[0]
        for k in range(1, len(remaining)):
            b = remaining[k]
            if not g.adjacent(a, b):
                pairs.append((a, b))
                if extend(remaining[1:k] + remaining[k + 1 :]):
                    return True
                pairs.pop()
        return False

    return tuple(pairs) if extend(nbrs) else None


# every graph up to seven vertices, as its enumeration mask and as a Graph
CLASSES = [(mask, g) for n in range(1, 8)
           for mask, g in zip(_canonical_masks(n), connected_unit_graphs(n))]

HYPOTHESIS_GRAPHS = [g for _, g in CLASSES] + [
    grid(4, 4), triangular_tiling(5, 5), king_grid(4, 4), *UNUSUAL]


def test_streamed_adjacency_is_the_graph_bitmasks():
    # so the hypotheses on a Graph decide the streamed sweep's sites too
    for mask, g in CLASSES:
        assert _adjacency(g.vertex_count, mask) == g._masks(), g


def test_pairing_hypothesis_matches_the_backtracking():
    found = sites = 0
    for g in HYPOTHESIS_GRAPHS:
        for z in g.vertices:
            want = backtracking_pairs(g, z)
            assert pairing_hypothesis(g, z) == want, (g, z)
            found += want is not None
            sites += 1
    # None exactly where the copy finds no partition, and both occur
    assert 0 < found < sites


def test_triangle_free_hypothesis_matches_the_graph():
    held = sites = 0
    for g in HYPOTHESIS_GRAPHS:
        for z in g.vertices:
            want = g.degree(z) > 1 and not g.in_triangle(z)
            assert triangle_free_hypothesis(g, z) == want, (g, z)
            held += want
            sites += 1
    assert 0 < held < sites
