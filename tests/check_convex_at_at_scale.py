"""Convexity at a vertex against the ordered pair scan, at every site of
larger certified metrics: unit-weight and int-weighted graphs, and l1 and
linf windows.

    PYTHONPATH=src python tests/check_convex_at_at_scale.py

Compares ``is_convex_at`` with the first violating pair of
``Metric.between_pairs``, the pair scan in vertex order, with both sides
of the inequality in exact ints: at every site of the 10x10 grid for
d(., a) with 10 choices of a; of five sparse connected G(120) (a random
tree plus 20 chords) with unit weights and one with weights 1-3, for 4
random int functions each, some on about 90 % of the vertices; and of the
15x15 l1 and linf windows for d(., a) and a random int function.  These
metrics are all certified (their rows come with distance shells, which
have gaps under weights 1-3), so int data first tries the pairs of z's
neighbours, and a site that no two of them refute goes to the ranked
pass.  Each verdict's truth is read before its witness, as the claim
checkers and ``search`` read it, so no site has had a pair search when
its witness is read: the probe finds the first pair of every violated
site on that read.  The verdict, the pair and both sides of the witness
must agree, the search must run at most once and not before the read,
and each metric must end certified.  A violating pair has an end i with
f(i) < f(z), so at a convex site the ranked pass may call
``Metric.through`` at most once per such i at finite distance from z,
its positive-slope candidates.  Prints per case the sites refuted by a
neighbour pair, the sites decided by the ranked pass, and over its
convex sites the ``through`` calls beside the positive-slope
candidates.  Too slow for the tier-1 suite (about 4 s on a 2-core VM
with CPython 3.11.7), so pytest does not collect it; exits 1 on the
first mismatch, when a convex site calls ``through`` more often than it
has positive-slope candidates, or when either path decided no site over
the whole run.
"""

import random
import sys
import time
from fractions import Fraction

from graphconvex import INF, Graph, LatticeSpec, Metric, build_lattice, convexity, is_convex_at

VALUES = (range(-3, 4), range(6), (-3, 3, 2**53 + 1), range(-50, 51))


def pair_scan(m, f, z):
    """``(x, y, f(z), rhs)`` of the first violating pair at z in vertex
    order, rhs as ``is_convex_at`` reports it; None when f is convex at z."""
    verts, k = m.vertices, m.index[z]
    dom = [i for i, v in enumerate(verts) if v in f]
    for i, j, dij, dkj, dik in m.between_pairs(k, dom):
        x, y = verts[i], verts[j]
        rhs = dkj * f[x] + dik * f[y]
        if dij * f[z] > rhs:
            q = Fraction(rhs, dij)
            return x, y, f[z], int(q) if q.denominator == 1 else float(q)
    return None


def cases():
    grid = Graph([((i, j), (i + di, j + dj)) for i in range(10) for j in range(10)
                  for di, dj in ((0, 1), (1, 0)) if i + di < 10 and j + dj < 10])
    rng = random.Random("convex-at-scale:grid")
    for a in rng.sample(grid.vertices, 10):
        yield f"grid 10x10, d(., {a})", grid, {v: grid.distance(v, a) for v in grid.vertices}
    for s in range(6):
        rng = random.Random(f"convex-at-scale:g120:{s}")
        edges = {(rng.randrange(v), v) for v in range(1, 120)}
        while len(edges) < 119 + 20:
            edges.add(tuple(sorted(rng.sample(range(120), 2))))
        if s < 5:
            label, g = f"G(120) #{s}", Graph(edges, vertices=range(120))
        else:
            label = f"G(120) #{s}, weights 1-3"
            g = Graph([(u, v, rng.randint(1, 3)) for u, v in sorted(edges)], vertices=range(120))
        for values in VALUES:
            share = rng.choice((1.0, 0.9))
            f = {v: rng.choice(values) for v in g.vertices if rng.random() < share}
            yield f"{label}, values {values}, {len(f)} sites", g, f
    for norm in ("l1", "linf"):
        lat = build_lattice(LatticeSpec(2, norm, 1, ((0, 14), (0, 14))))
        rng = random.Random(f"convex-at-scale:{norm}")
        a = rng.choice(lat.window)
        m = lat.metric()
        yield f"{norm} 15x15, d(., {a})", lat, {v: m.dist(v, a) for v in lat.window}
        yield f"{norm} 15x15, values {VALUES[0]}", lat, {v: rng.choice(VALUES[0]) for v in lat.window}


def main() -> int:
    searches, throughs = [], []  # one entry per first-pair search, per Metric.through call
    refuted, ranked = [], []  # the neighbour refutations; per ranked pass, its through calls
    search, refute = convexity._first_witness, convexity._neighbours_refute
    rank, through = convexity._ranked_convex, Metric.through

    def counted(*args):
        searches.append(args[2])
        return search(*args)

    def refute_counted(*args):
        refutes = refute(*args)
        refuted.append(refutes)
        return refutes

    def ranked_counted(*args):
        before = len(throughs)
        convex = rank(*args)
        ranked.append(len(throughs) - before)
        return convex

    def through_counted(*args):
        throughs.append(args[1])
        return through(*args)

    convexity._first_witness, convexity._neighbours_refute = counted, refute_counted
    convexity._ranked_convex = ranked_counted
    Metric.through = through_counted
    totals = [0, 0]  # sites refuted by a neighbour pair, sites decided by the ranked pass
    for label, instance, f in cases():
        start = time.perf_counter()
        m = instance.metric()
        violations = convex_calls = convex_ends = 0
        refuted.clear()
        ranked.clear()
        for z in m.vertices:
            searches.clear()
            passes = len(ranked)
            verdict = is_convex_at(m, f, z)
            ok = verdict.ok
            if searches:
                print(f"MISMATCH {label} at {z!r}: a pair search ran before the witness was read")
                return 1
            w = verdict.witness
            got = None if w is None else (w.x, w.y, w.lhs, w.rhs)
            expected = pair_scan(m, f, z) if z in f else None
            if ok != (expected is None) or got != expected or verdict.witness is not w:
                print(f"MISMATCH {label} at {z!r}:\n"
                      f"  is_convex_at: ok={ok}, {got}\n  pair scan:    {expected}")
                return 1
            if len(searches) > 1:
                print(f"MISMATCH {label} at {z!r}: {len(searches)} pair searches")
                return 1
            violations += not ok
            if ok and len(ranked) > passes:
                rz = m.row(m.index[z])
                ends = sum(fv < f[z] and rz[m.index[v]] != INF for v, fv in f.items())
                if ranked[-1] > ends:
                    print(f"MISMATCH {label} at {z!r}: convex, but the ranked pass called "
                          f"Metric.through {ranked[-1]} times for {ends} positive-slope "
                          "candidates")
                    return 1
                convex_calls += ranked[-1]
                convex_ends += ends
        if not m.certified:
            print(f"MISMATCH {label}: the metric is not certified, so the pair scan decided")
            return 1
        by_neighbours = sum(refuted)
        print(f"{label}: {len(m.vertices)} sites agree, {violations} violations, "
              f"{by_neighbours} refuted by a neighbour pair, "
              f"{len(ranked)} decided by the ranked pass, at its convex sites "
              f"{convex_calls} through calls for {convex_ends} positive-slope candidates, "
              f"{time.perf_counter() - start:.1f} s")
        totals[0] += by_neighbours
        totals[1] += len(ranked)
    if not all(totals):
        print(f"MISMATCH: {totals[0]} sites refuted by a neighbour pair and "
              f"{totals[1]} decided by the ranked pass over the whole run; both paths must run")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
