"""Betweenness, closure operators, convex hulls and convex functions.

Everything here is relative to a :class:`~graphconvex.graph.Metric`.  A
vertex z lies between x and y when d(x, y) = d(x, z) + d(z, y) with
d(x, y) finite.  One engine, :class:`Betweenness`, decides that relation
for every caller, exactly on integer distances; the intervals I(x, y) of
the closure and of the subset sweeps are its :meth:`Betweenness.interval`
bitmasks.  A set is convex when it is fixed by the one-step betweenness
closure; the convex hull is the least such fixed point.

A function f is convex at z when for every pair x, y with z between them,

    f(z) <= (d(y,z)/d(x,y)) * f(x) + (d(x,z)/d(x,y)) * f(y).

Functions may take the value +inf (e.g. indicators); the conventions are
0 * inf = 0 and v <= inf for every v.  The inequality is evaluated with
denominators cleared, so unit-weight graphs are checked in exact ints.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Any, Iterator, Mapping

from .extreal import INF, approx_eq, approx_le, check_values, exact_add, exact_div, scaled
from .graph import Metric, UnknownVertexError

VertexFunction = Mapping[Any, float]


@dataclass(frozen=True)
class ConvexityWitness:
    """A violated instance of the two-point inequality at some vertex."""

    x: Any
    y: Any
    lhs: Any  # f at the middle vertex
    rhs: Any  # the distance-weighted combination of f(x) and f(y)


@dataclass(frozen=True)
class ConvexityVerdict:
    ok: bool
    vertex: Any
    witness: ConvexityWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


class Betweenness:
    """Index-based distance rows of one metric and the betweenness relation.

    Row i is ``[d(v_i, v) for v in m.vertices]``, filled the first time it
    is read: from ``m.row_source(i)`` when the metric has one, else by
    calling ``m.dist`` per entry.  Distances are compared with
    ``approx_eq(., ., m.tol)``, which is exact unless a float is involved.
    On rows of plain ints the engine also keeps each vertex's distance
    shells, ``{r: bitmask of the vertices at distance r}``, for as long as
    the row: taken with the row from ``row_source`` when it gives them,
    which makes the metric ``certified`` (every row symmetric, plain int
    and positive off the diagonal), else built on first use.  Intervals
    I(v_i, v_j) come from :meth:`interval` alone, and are not kept.
    """

    def __init__(self, m: Metric):
        self.vertices, self.dist, self.tol = m.vertices, m.dist, m.tol
        self.row_source = m.row_source
        self.index = {v: i for i, v in enumerate(m.vertices)}
        self.rows: list = [None] * len(m.vertices)
        self.certified = False
        self._shells: dict = {}
        self._bases: dict = {}
        self._last_closure = 0, 0  # betweenness_closure's last input and output, as masks

    def row(self, i: int) -> list:
        r = self.rows[i]
        if r is None:
            if self.row_source is None:
                v = self.vertices[i]
                r = [self.dist(v, u) for u in self.vertices]
            else:
                r, shells = self.row_source(i)
                if shells is not None:
                    self._shells[i] = shells
                    self.certified = True
            self.rows[i] = r
        return r

    def shells(self, i: int) -> dict | None:
        """``{r: bitmask of the j with d(v_i, v_j) = r}`` over the finite
        entries of row i, or None when one of them is not a plain int."""
        try:
            return self._shells[i]
        except KeyError:
            pass
        row = self.row(i)  # a certified row brings its shells along
        if self.certified:
            return self._shells[i]
        shells: dict | None = {}
        for j, d in enumerate(row):
            if type(d) is int:
                shells[d] = shells.get(d, 0) | 1 << j
            elif d != INF:
                shells = None
                break
        self._shells[i] = shells
        return shells

    def int_basis(self, k: int, dom: list) -> tuple | None:
        """``(cands, dists, scales)`` for the i != k of the ascending ``dom``
        with d(v_k, v_i) finite: those i, their distances from v_k and
        lcm(dists) // dist.  None unless every i != k in ``dom`` has
        d(v_i, v_k) = d(v_k, v_i), the rows of k and of the candidates
        hold only plain ints and +inf, and every candidate distance is
        positive; on a certified metric that holds by construction and is
        not checked.  Kept at k for the last ``dom`` asked."""
        key = tuple(dom)
        last = self._bases.get(k)
        if last is not None and last[0] == key:
            return last[1]
        rk = self.row(k)
        others = [i for i in dom if i != k]
        cands = [i for i in others if rk[i] != INF]
        dists = [rk[i] for i in cands]
        basis = None
        if self.certified or (
            self.shells(k) is not None
            and [self.row(i)[k] for i in others] == [rk[i] for i in others]
            and (not cands or (min(dists) > 0 and None not in map(self.shells, cands)))
        ):
            scale = math.lcm(*dists)
            basis = cands, dists, [scale // d for d in dists]
        self._bases[k] = key, basis
        return basis

    def interval(self, i: int, j: int, among: int = -1) -> int:
        """Bitmask of the k with d(v_i, v_j) = d(v_i, v_k) + d(v_j, v_k) on
        rows i and j (i and j among them on a symmetric metric), kept to the
        bits of ``among`` (all by default); 0 when d(v_i, v_j) is +inf.  When
        both rows hold only plain ints it is the OR over r of
        shell_i[r] & shell_j[d - r], with no ``approx_eq``; any other rows
        are scanned with it, over ``among``."""
        d = self.row(i)[j]
        if d == INF:
            return 0
        si, sj = self.shells(i), self.shells(j)
        if si is not None and sj is not None:
            return among & reduce(or_, [layer & sj.get(d - r, 0) for r, layer in si.items()], 0)
        ri, rj, tol = self.rows[i], self.rows[j], self.tol
        # approx_eq(d, s, tol) implies s - d <= tol / (1 - tol) * max(1, |d|), so for
        # 0 <= tol <= 1/4 every such s is at most hi (1e-12 covers float rounding)
        bounded = 0 <= tol <= 0.25 and abs(d) < 1e300
        hi = max(d, d + (2 * tol + 1e-12) * max(1, abs(d))) if bounded else INF
        ks = _bit_indices(among & (1 << len(ri)) - 1)
        return sum(1 << k for k in ks if (s := ri[k] + rj[k]) <= hi and approx_eq(d, s, tol))

    def between_pairs(self, k: int, candidates) -> Iterator[tuple]:
        """``(i, j, d_ij, d_kj, d_ik)`` for every i < j from the ascending
        ``candidates`` with k between them and 0 < d_ij < inf, in (i, j)
        order.  Only the rows of k and of the candidates are filled.  k is
        no candidate: as d(k, k) = 0, a pair with k as an end meets
        d_ij f(k) <= d_kj f(i) + d_ik f(j) with equality (+inf too, as
        0 * inf = 0), so it can never refute convexity at k."""
        rk, tol = self.row(k), self.tol
        cands = [i for i in candidates if i != k]
        for a, i in enumerate(cands):
            ri = self.row(i)
            dik = ri[k]
            if dik == INF:
                continue
            for j in cands[a + 1 :]:
                dij = ri[j]
                if 0 < dij < INF and approx_eq(dij, dik + rk[j], tol):
                    yield i, j, dij, rk[j], dik


def betweenness(m: Metric) -> Betweenness:
    """The betweenness engine of m, built on first use and kept on m."""
    if m._betweenness is None:
        object.__setattr__(m, "_betweenness", Betweenness(m))
    return m._betweenness


def is_between(m: Metric, x, z, y) -> bool:
    """True iff d(x, y) = d(x, z) + d(z, y) with d(x, y) finite."""
    e = betweenness(m)
    ix, iz, iy = _indices(e, (x, z, y))
    rx, ry = e.row(ix), e.row(iy)
    return rx[iy] < INF and approx_eq(rx[iy], rx[iz] + ry[iz], m.tol)


def betweenness_closure(m: Metric, members) -> frozenset:
    """One closure step: members plus every vertex between two members,
    from the members' intervals, each asked only for the vertices not yet
    reached.  The engine keeps the last set asked and its closure; when
    that set lies in ``members``, its pairs are skipped."""
    a = frozenset(members)
    e = betweenness(m)
    idx = sorted(_indices(e, a))
    mask, full = sum(1 << i for i in idx), (1 << len(m.vertices)) - 1
    last, closed = e._last_closure if e._last_closure[0] & ~mask == 0 else (0, 0)
    rest = full & ~(closed | mask)  # the vertices not reached yet
    for i, j in combinations(idx, 2):
        if not rest:
            break
        if not last >> i & last >> j & 1:
            rest &= ~e.interval(i, j, rest)
    e._last_closure = mask, full & ~rest
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
    itself has none there is nothing to check and the verdict is ok.  When
    every value is a plain int and the distances allow it
    (:meth:`Betweenness.int_basis`), that pair is found exactly on bitmasks
    (:func:`_int_violation`); otherwise every between-pair is scanned.
    """
    e = betweenness(m)
    if z not in e.index:
        raise UnknownVertexError(z)
    check_values(f.values())
    if z not in f:
        return ConvexityVerdict(True, z)
    verts, tol, k = m.vertices, m.tol, e.index[z]
    fz = f[z]
    dom = [i for i, v in enumerate(verts) if v in f]
    pairs = _int_violation(e, k, dom, f) if {int}.issuperset(map(type, f.values())) else None
    for i, j, dij, dkj, dik in e.between_pairs(k, dom) if pairs is None else pairs:
        x, y = verts[i], verts[j]
        lhs = scaled(dij, fz)
        rhs = exact_add(scaled(dkj, f[x]), scaled(dik, f[y]))
        if not approx_le(lhs, rhs, tol):
            combo = INF if rhs == INF else exact_div(rhs, dij)
            return ConvexityVerdict(False, z, ConvexityWitness(x, y, fz, combo))
    return ConvexityVerdict(True, z)


def _int_violation(e: Betweenness, k: int, dom: list, f: VertexFunction) -> list | None:
    """The first violating between-pair at k, in the form and order of
    ``e.between_pairs(k, dom)``, as a list of at most one tuple; None when
    the distances do not allow the exact decision (:meth:`Betweenness.int_basis`).

    With slopes a(i) = (f(k) - f(i)) / d(i, k), a between-pair (i, j)
    violates the inequality exactly when a(i) + a(j) > 0.  The slopes are
    scaled to ints by the lcm of the distances and sorted once, so the j
    with a(j) > -a(i) form one suffix mask of that order.  Those j > i are
    tested for k between i and j lowest first, after keeping only the OR
    over r of shell_k[r] & shell_i[d(i, k) + r] when there are more of them
    than shells.
    """
    basis = e.int_basis(k, dom)
    if basis is None:
        return None
    cands, dists, scales = basis
    verts = e.vertices
    fz = f[verts[k]]
    slopes = [(fz - f[verts[i]]) * c for i, c in zip(cands, scales)]
    ranked = sorted(zip(slopes, cands))
    if len(ranked) < 2 or ranked[-1][0] + ranked[-2][0] <= 0:
        return []
    keys = [s for s, _ in ranked]
    above = [0] * (len(ranked) + 1)  # above[p]: the candidates at sorted positions >= p
    for p in range(len(ranked) - 1, -1, -1):
        above[p] = above[p + 1] | 1 << ranked[p][1]
    rk, shell_k = e.row(k), e.shells(k)
    for i, d, s in zip(cands, dists, slopes):
        later = above[bisect_right(keys, -s)] >> i + 1 << i + 1
        if not later:
            continue
        if later.bit_count() > len(shell_k):  # cheaper to keep only the j between
            shell_i = e.shells(i)
            later &= reduce(or_, [layer & shell_i.get(d + r, 0) for r, layer in shell_k.items()])
        ri = e.row(i)
        while later:  # the lowest j first
            j = (later & -later).bit_length() - 1
            if ri[j] == d + rk[j]:
                return [(i, j, ri[j], rk[j], ri[k])]
            later &= later - 1
    return []


def distance_to_set(m: Metric, x, members):
    """min over members of d(x, .); +inf for the empty set."""
    k = _indices(betweenness(m), (x,))[0]
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
    """The engine's distance rows of the members, in iteration order; by
    symmetry, entry k of a member's row is d(v_k, member)."""
    e = betweenness(m)
    return [e.row(i) for i in _indices(e, members)]


def _indices(e: Betweenness, vertices) -> list:
    try:
        return [e.index[v] for v in vertices]
    except KeyError as err:
        raise UnknownVertexError(err.args[0]) from None


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
            if math.isinf(dij):
                continue
            mask = 0
            for k in range(n):
                if approx_eq(dij, rows[i][k] + rows[k][j], tol):
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
