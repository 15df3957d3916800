"""Betweenness, closure operators, convex hulls and convex functions.

Everything here is relative to a :class:`~graphconvex.graph.Metric`.  A
vertex z lies between x and y when d(x, y) = d(x, z) + d(z, y) with
d(x, y) finite.  The metric decides that relation for every caller,
exactly on integer distances: :func:`is_between`, the closure and the
subset sweeps read its :meth:`~graphconvex.graph.Metric.interval`
bitmasks, and :func:`is_convex_at` its between-pairs or, on int data and
a certified metric, its :meth:`~graphconvex.graph.Metric.through` masks.
A set is convex when it is fixed by the one-step betweenness closure; the
convex hull is the least such fixed point.

A function f is convex at z when for every pair x, y with z between them,

    f(z) <= (d(y,z)/d(x,y)) * f(x) + (d(x,z)/d(x,y)) * f(y).

Functions may take the value +inf (e.g. indicators); the conventions are
0 * inf = 0 and v <= inf for every v.  The inequality is evaluated with
denominators cleared, so unit-weight graphs are checked in exact ints.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache, partial
from itertools import accumulate, combinations, compress, repeat
from operator import is_not, or_
from typing import Any, Mapping, NamedTuple

from .extreal import INF, approx_eq, approx_le, check_values, exact_add, exact_div, scaled
from .graph import Metric, UnknownVertexError, _bit_indices, _Record

VertexFunction = Mapping[Any, float]


class ConvexityWitness(NamedTuple):
    """A violated instance of the two-point inequality at some vertex."""

    x: Any
    y: Any
    lhs: Any  # f at the middle vertex
    rhs: Any  # the distance-weighted combination of f(x) and f(y)


class ConvexityVerdict(_Record):
    """Whether f is convex at ``vertex``, and if not, the first violating
    pair in the metric's vertex order.  On int data over a certified
    metric :func:`is_convex_at` settles ``ok`` without looking for that
    pair: at a violated site it passes a :class:`functools.partial` in
    place of the witness, which is called the first time ``witness`` is
    read, once, so a caller that only tests the verdict never pays for it.
    An immutable record with the fields ``ok``, ``vertex`` and
    ``witness``; equality, hash and repr read the witness."""

    __slots__ = ("ok", "vertex", "_witness")
    __match_args__ = ("ok", "vertex", "witness")

    def __init__(self, ok: bool, vertex: Any, witness: ConvexityWitness | None = None):
        self._set(ok, vertex, witness)

    @property
    def witness(self) -> ConvexityWitness | None:
        w = self._witness
        if isinstance(w, partial):
            w = w()
            object.__setattr__(self, "_witness", w)
        return w

    def __bool__(self) -> bool:
        return self.ok


def is_between(m: Metric, x, z, y) -> bool:
    """True iff d(x, y) = d(x, z) + d(z, y) with d(x, y) finite."""
    ix, iz, iy = _indices(m, (x, z, y))
    return m.interval(ix, iy, 1 << iz) != 0


def betweenness_closure(m: Metric, members) -> frozenset:
    """One closure step: members plus every vertex between two members,
    from the members' intervals, each asked only for the vertices not yet
    reached.  The metric keeps the last set asked and its closure; when
    that set lies in ``members``, its pairs are skipped."""
    a = frozenset(members)
    idx = sorted(_indices(m, a))
    mask, full = sum(1 << i for i in idx), (1 << len(m.vertices)) - 1
    last, closed = m._last_closure if m._last_closure[0] & ~mask == 0 else (0, 0)
    rest = full & ~(closed | mask)  # the vertices not reached yet
    for i, j in combinations(idx, 2):
        if not rest:
            break
        if not last >> i & last >> j & 1:
            rest &= ~m.interval(i, j, rest)
    m._last_closure = mask, full & ~rest
    return a.union(map(m.vertices.__getitem__, _bit_indices(full & ~rest)))


def convex_hull(m: Metric, members) -> frozenset:
    """Least convex superset: iterate the closure to its fixed point."""
    current = frozenset(members)
    for _ in range(len(m.vertices) + 1):
        nxt = betweenness_closure(m, current)
        if nxt == current:
            return current
        current = nxt
    raise RuntimeError("betweenness closure failed to stabilize")


def is_convex_set(m: Metric, members) -> bool:
    a = frozenset(members)
    return betweenness_closure(m, a) == a


def is_convex_at(m: Metric, f: VertexFunction, z) -> ConvexityVerdict:
    """Check the two-point inequality at z over all pairs in f's domain.

    Pairs are scanned in the metric's vertex order, so a failure reports
    the first violating pair.  Vertices without a value are skipped; if z
    itself has none there is nothing to check and the verdict is ok.  On a
    certified metric (int-weighted graphs, l1 and linf windows) with every
    value a plain int, the verdict is False at once when two neighbours of
    z refute convexity (:func:`_neighbours_refute`), and otherwise the
    ranked pass (:func:`_ranked_convex`) decides it, from f's values below
    f(z) alone at a convex site.  At a violated site of such data the first
    violating pair is probed for (:func:`_int_violation`), on a copy of f,
    only when the verdict's ``witness`` is read.  Any other metric or value
    (floats, l2, a hand-built metric, fractions, +inf) takes the scan of
    every between-pair.
    """
    if z not in m.index:
        raise UnknownVertexError(z)
    ints = check_values(f.values())
    if z not in f:
        return ConvexityVerdict(True, z)
    k = m.index[z]
    m.row(k)  # reading a certified row certifies the metric
    if ints and m.certified:
        if not _neighbours_refute(m, k, f) and _ranked_convex(m, k, f):
            return ConvexityVerdict(True, z)
        return ConvexityVerdict(False, z, partial(_first_witness, m, dict(f), k, _int_violation))
    witness = _first_witness(m, f, k, None)
    return ConvexityVerdict(witness is None, z, witness)


def _neighbours_refute(m: Metric, k: int, f: VertexFunction) -> bool:
    """True when two neighbours i, j of k that are not adjacent have
    2 f(k) > f(i) + f(j), on a certified metric and int values.  Then
    d(i, j) = 2 = d(i, k) + d(k, j), so (i, j) violates the two-point
    inequality at k.  Every such pair has an end i with f(i) < f(k), so
    only the shell at distance 1 from k and, for those i, the shell at
    distance 2 from i are read."""
    verts, near = m.vertices, m.shells(k).get(1, 0)
    fz = f[verts[k]]
    vals, low = {}, []  # f on the neighbours; those with f(i) < f(k)
    rest = near
    while rest:  # bit loops: this runs at every site, and generators cost more here
        bit = rest & -rest
        i = bit.bit_length() - 1
        fi = vals[i] = f.get(verts[i], INF)  # no value: never a partner
        if fi < fz:
            low.append(i)
        rest ^= bit
    for i in low:
        bound = 2 * fz - vals[i]  # a partner j refutes when f(j) < bound
        far = near & m.shells(i).get(2, 0)  # the neighbours of k not adjacent to i
        while far:
            bit = far & -far
            if vals[bit.bit_length() - 1] < bound:
                return True
            far ^= bit
    return False


def _first_witness(m: Metric, f: VertexFunction, k: int, search) -> ConvexityWitness | None:
    """The witness of the first violating pair at k in vertex order, or
    None when f is convex at k.  On int data over a certified metric
    ``search(m, k, f)``, :func:`_int_violation`, finds the pair; with
    ``search`` None every between-pair in f's domain is scanned."""
    verts = m.vertices
    fz = f[verts[k]]
    if search:
        pairs = search(m, k, f)
    else:
        pairs = m.between_pairs(k, [i for i, v in enumerate(verts) if v in f])
    for i, j, dij, dkj, dik in pairs:
        x, y = verts[i], verts[j]
        lhs = scaled(dij, fz)
        rhs = exact_add(scaled(dkj, f[x]), scaled(dik, f[y]))
        if not approx_le(lhs, rhs, m.tol):
            return ConvexityWitness(x, y, fz, INF if rhs == INF else exact_div(rhs, dij))
    return None


def _int_violation(m: Metric, k: int, f: VertexFunction) -> list:
    """The first violating between-pair at k of the plain-int function f
    on the certified metric m, in the form and order of
    :meth:`Metric.between_pairs`, as a list of at most one tuple, at a site
    that :func:`_neighbours_refute` or :func:`_ranked_convex` refuted.  The
    candidates i are probed in order: the j > i with k between them,
    :meth:`Metric.through` (i, k), are tested lowest first with
    (d(i, k) + d(k, j)) f(k) > d(k, j) f(i) + d(i, k) f(j), so the first
    hit is the first violating pair, found with no slopes or sort.
    """
    rk, verts = m.row(k), m.vertices
    vals = list(map(f.get, verts))  # None off the domain
    fz, vals[k] = vals[k], None
    for i, fi in enumerate(vals):
        dik = rk[i]
        if fi is None or dik == INF:
            continue
        for j in _bit_indices(m.through(i, k) >> i + 1 << i + 1):  # k between i and j > i
            fj, dkj = vals[j], rk[j]
            if fj is not None and (dik + dkj) * fz > dkj * fi + dik * fj:
                return [(i, j, dik + dkj, dkj, dik)]
    return []


def _ranked_convex(m: Metric, k: int, f: VertexFunction) -> bool:
    """Whether the plain-int function f on the certified metric m is convex
    at k, a site that no neighbour pair refuted.  k is convex at once when
    no value of f is smaller than f(k).  Otherwise, with slopes a(i) =
    (f(k) - f(i)) / d(i, k), a between-pair (i, j) violates the inequality
    exactly when a(i) + a(j) > 0.  Scaled to ints by the lcm of k's shell
    distances and sorted once, the j with a(j) > -a(i) form one suffix
    mask.  Such a pair has an end p with a(p) > 0, so k is convex exactly
    when, for each such end, tried highest slope first, its suffix mask
    misses :meth:`Metric.through` (p, k)."""
    rk, verts = m.row(k), m.vertices
    vals = list(map(f.get, verts))  # None off the domain
    fz, vals[k] = vals[k], None
    if fz <= min(f.values()):  # every slope is at most 0
        return True
    shell_k = m.shells(k)
    if sum(map(int.bit_count, shell_k.values())) < len(verts):  # some j out of reach
        vals = [None if d == INF else v for v, d in zip(vals, rk)]
    cands = list(compress(range(len(vals)), map(is_not, vals, repeat(None))))
    scales = _shell_scales(tuple(shell_k))
    slopes = [(fz - vals[j]) * scales[rk[j]] for j in cands]
    size = len(slopes)
    order = sorted(range(size), key=slopes.__getitem__)
    keys = list(map(slopes.__getitem__, order))
    if size < 2 or keys[-1] + keys[-2] <= 0:
        return True
    # acc[q]: the candidates at the q highest sorted positions
    acc = [0, *accumulate([1 << cands[p] for p in reversed(order)], or_)]
    return not any(  # the ends p with a(p) > 0, highest first
        acc[size - bisect_right(keys, -slopes[q])] & m.through(cands[q], k)
        for q in reversed(order[bisect_right(keys, 0):])
    )


@lru_cache(maxsize=32)
def _shell_scales(dists: tuple) -> dict:
    """``{d: L // d}`` over the positive ``dists`` of a row's shells, with
    L their lcm: the slope scale of each distance from that vertex.  On a
    row with no gap, L = lcm(1..ecc)."""
    lcm = math.lcm(*dists[1:])  # dists[0] is 0, the vertex itself
    return {d: lcm // d for d in dists[1:]}


def distance_to_set(m: Metric, x, members):
    """min over members of d(x, .); +inf for the empty set."""
    k = _indices(m, (x,))[0]
    return min((r[k] for r in _member_rows(m, members)), default=INF)


def indicator(members, vertices) -> dict:
    """0 on the set, +inf off it."""
    s = set(members)
    unknown = s.difference(vertices)
    if unknown:
        raise UnknownVertexError(next(iter(unknown)))
    return {v: (0 if v in s else INF) for v in vertices}


def distance_function(m: Metric, a) -> dict:
    """f(v) = d(v, a) over the metric's vertex universe."""
    return {v: m.dist(v, a) for v in m.vertices}


def set_distance_function(m: Metric, members) -> dict:
    """f(v) = distance_to_set(v, members) over the vertex universe."""
    rows = _member_rows(m, members)
    if not rows:
        return dict.fromkeys(m.vertices, INF)
    return dict(zip(m.vertices, map(min, zip(*rows))))


def _member_rows(m: Metric, members) -> list:
    """The metric's distance rows of the members, in iteration order; by
    symmetry, entry k of a member's row is d(v_k, member)."""
    return [m.row(i) for i in _indices(m, members)]


def _indices(m: Metric, vertices) -> list:
    try:
        return [m.index[v] for v in vertices]
    except KeyError as err:
        raise UnknownVertexError(err.args[0]) from None


def brute_force_convex_hull(m: Metric, members) -> frozenset:
    """Hull by enumeration: intersect every convex superset of the input.

    Exponential in the vertex count (guarded at 14); kept as an
    independent cross-check for :func:`convex_hull`.  The closure test is
    recomputed here from scratch on bitmasks rather than reusing
    :func:`betweenness_closure`.
    """
    n = len(m.vertices)
    if n > 14:
        raise ValueError(f"brute-force hull is limited to 14 vertices, got {n}")
    index, convex_masks = _hull_tables(m)
    amask = 0
    for v in frozenset(members):
        if v not in index:
            raise UnknownVertexError(v)
        amask |= 1 << index[v]
    result = (1 << n) - 1
    for bmask in convex_masks:
        if bmask & amask == amask:
            result &= bmask
    return frozenset(v for v, i in index.items() if result >> i & 1)


@lru_cache(maxsize=32)
def _hull_tables(m: Metric):
    """Per-metric tables for the brute-force hull: the vertex index and the
    bitmasks of all convex sets (the full vertex set is always among them)."""
    verts = m.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    dist, tol = m.dist, m.tol
    rows = [[dist(u, v) for v in verts] for u in verts]
    between = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dij = rows[i][j]
            if dij == INF:  # == INF, not math.isinf: an int may be beyond float range
                continue
            mask = 0
            for k in range(n):
                dik, dkj = rows[i][k], rows[k][j]
                if dik != INF and dkj != INF and approx_eq(dij, dik + dkj, tol):
                    mask |= 1 << k
            between[i][j] = mask
    convex_masks = []
    for mask in range(1 << n):
        closed = mask
        bits = [i for i in range(n) if mask >> i & 1]
        for ai, i in enumerate(bits):
            row = between[i]
            for j in bits[ai + 1 :]:
                closed |= row[j]
        if closed == mask:
            convex_masks.append(mask)
    return index, tuple(convex_masks)
