"""The bit-parallel sweep kernel against the per-function loops it replaced.

``implication_oracle`` and ``degree2_oracle`` are the inner loops that
``exhaustive_small_graph_sweep`` and ``_degree2_sweep`` ran before the mask
kernel, kept unchanged as a reference: one function at a time, one site at
a time, in ``itertools.product`` order.
"""

import itertools

import pytest

from graphconvex import cycle, grid, pairing_hypothesis, path, triangle_free_hypothesis
from graphconvex.enumeration import connected_unit_graphs
from graphconvex.theorems import (
    ClaimReport,
    _degree2_sweep,
    _implication_sweep,
    _prepare_unit,
    _sweep_masks,
    _sweep_witness,
)

GRAPHS = [g for n in range(1, 6) for g in connected_unit_graphs(n)]

VALUES = [(0, 1, 2), (2, 0, 1), (-1, 0, 1, 1), (0, 1, 3), ()]


def implication_oracle(g, values, sites):
    """checked, fired and the first witness of thm1/thm2 on g at ``sites``."""
    between_pairs, nbrs_at = _prepare_unit(g)
    n = g.vertex_count
    data = [(k, list(between_pairs(k, range(n))), nbrs_at[k]) for k in sites]
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
    between_pairs, nbrs_at = _prepare_unit(g)
    pairs_at = [list(between_pairs(k, range(n))) for k in range(n)]
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
            assert _implication_sweep(g, values, sites) == want, (g, sites)
            refuted += want[2] is not None
        want = degree2_oracle(g, values)
        assert _degree2_sweep(g, values) == want, g
        refuted += want.verdict == "refuted"
    # every vertex as a site reaches refutations (a leaf is convex but not
    # subharmonic under most functions), so witnesses and partial counts
    # are compared too
    assert refuted > 0 if values else refuted == 0


def test_kernel_refutation_counts_on_an_edge():
    report = _degree2_sweep(path(2), (0, 1))
    assert (report.verdict, report.checked, report.hypothesis_fired) == ("refuted", 4, 3)
    assert report.witness["vertex"] == "1"
    assert report.witness["f"] == {"0": 0, "1": 1}
    assert _implication_sweep(path(2), (0, 1), [0, 1]) == implication_oracle(
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
        total, convex, not_sub = _sweep_masks(g, values, range(n))
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
    for g in [*GRAPHS, cycle(6), grid(3, 4)]:
        between_pairs, _ = _prepare_unit(g)
        n = g.vertex_count
        for k in range(n):
            pairs = list(between_pairs(k, range(n)))
            assert all(k not in (i, j) for i, j, *_ in pairs), (g, k)
