"""Integer lattices under L1/L2/Linf norms.

A :class:`LatticeSpec` fixes a dimension, a norm, an adjacency radius and a
finite window (an inclusive box of integer points).  The neighbours of a
window point x are the points x + z of the window, z != 0 in the radius
ball, with weight ||z||: ``GroupLattice.neighbors`` lists them in window
order, and every mean on a lattice reads them there.  A
:class:`~graphconvex.graph.Graph` with this adjacency is built only when
``GroupLattice.graph`` is read.

A window vertex is *interior* when the whole radius ball around it stays in
the window; the pointwise claims about means only apply there, because an
interior vertex sees the full, symmetric neighbor ball (x + z is a neighbor
iff x - z is).  Verdicts at non-interior vertices are still computable and
are reported with an ``interior`` flag by the CLI.

Midpoint convexity of f at x quantifies over group elements z != 0 with
both x + z and x - z in the window:

    2 f(x) <= f(x + z) + f(x - z).

Both translates lie in the window exactly when |z_i| <= reach_i on every
axis, where reach_i = min(x_i - lo_i, hi_i - x_i) is x's distance to the
nearer face of the window.  The scan therefore visits only that box, and
of it only the half-space of vectors whose first nonzero coordinate is
positive (z and -z give the same inequality).  It goes in lexicographic
order of z, which is the order of the points x + z in the window, so the
first witness is the one a scan over the whole window would report.  The
same reach decides interiority: x is interior when reach_i is at least
the largest |z_i| over the radius ball, so the interior is a box.

The window is stored in row-major order (the last axis varies fastest),
so with x at index i the translates x + z and x - z sit at i + s and
i - s, where s = sum_k z_k * stride_k; inside the half-box neither wraps
across an axis.  Each check first runs the plain inequalities over these
flat offsets in one C-level pass and only rescans, with the tolerance and
in box order, when that pass does not settle it.  ``_plain_passes`` runs
that pass, and one for the weighted mean at interior points, over one
function read once into window order.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import repeat
from operator import add, le, mul, sub
from typing import Any, Iterator, Mapping

from .extreal import DEFAULT_TOL, approx_le, check_values, exact_add
from .graph import Graph, Metric, UnknownVertexError

NORMS = ("l1", "l2", "linf")


@dataclass(frozen=True)
class LatticeSpec:
    """Dimension, norm name ('l1', 'l2', 'linf'), radius and window box.

    ``window`` holds one inclusive (lo, hi) pair per dimension.
    """

    dimension: int
    norm: str
    radius: int | float
    window: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        norm = self.norm.lower()
        if norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}; expected one of {NORMS}")
        object.__setattr__(self, "norm", norm)
        if not isinstance(self.radius, (int, float)) or not math.isfinite(self.radius) or self.radius <= 0:
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")
        window = tuple(tuple(int(b) for b in axis) for axis in self.window)
        if len(window) != self.dimension:
            raise ValueError("window must give one (lo, hi) range per dimension")
        for lo, hi in window:
            if hi < lo:
                raise ValueError(f"empty window axis {lo}:{hi}")
        object.__setattr__(self, "window", window)

    # -- the group side -----------------------------------------------------

    def norm_value(self, vec):
        """Norm of an arbitrary integer vector (not restricted to the window)."""
        if self.norm == "l1":
            return sum(abs(c) for c in vec)
        if self.norm == "linf":
            return max(abs(c) for c in vec)
        return math.hypot(*vec)

    def contains(self, point) -> bool:
        return len(point) == self.dimension and all(
            lo <= c <= hi for c, (lo, hi) in zip(point, self.window)
        )

    def points(self) -> Iterator[tuple]:
        """Window points in lexicographic order."""
        axes = [range(lo, hi + 1) for lo, hi in self.window]
        return itertools.product(*axes)

    def ball_offsets(self, tol: float = DEFAULT_TOL) -> tuple:
        """All integer vectors with norm <= radius, the zero vector included."""
        return _ball_offsets(self, tol)

    def describe(self) -> str:
        box = "x".join(f"[{lo},{hi}]" for lo, hi in self.window)
        return f"{self.norm} lattice r={self.radius} window {box}"


@lru_cache(maxsize=64)
def _ball_offsets(spec: LatticeSpec, tol: float) -> tuple:
    # Every norm here dominates the sup norm, so the radius box suffices.
    bound = int(math.floor(spec.radius + tol))
    axes = [range(-bound, bound + 1)] * spec.dimension
    return tuple(
        z for z in itertools.product(*axes)
        if approx_le(spec.norm_value(z), spec.radius, tol)
    )


class GroupLattice:
    """A window of an integer lattice: its points in window order, its
    interior, and per point its ``neighbors``, from which means are taken.
    The :class:`Graph` of that adjacency is built the first time ``graph``
    is read."""

    def __init__(self, spec: LatticeSpec, tol: float = DEFAULT_TOL):
        self.spec = spec
        self.window: tuple = tuple(spec.points())
        self._index = {x: i for i, x in enumerate(self.window)}
        self._ball = spec.ball_offsets(tol)
        span = [max(abs(z[i]) for z in self._ball) for i in range(spec.dimension)]
        self.interior: frozenset = frozenset(itertools.product(*(
            range(lo + s, hi - s + 1) for (lo, hi), s in zip(spec.window, span)
        )))
        self._tol = tol
        # row-major strides of the window: the last axis varies fastest
        sizes = [hi - lo + 1 for lo, hi in spec.window]
        self._strides = tuple(math.prod(sizes[k + 1:]) for k in range(spec.dimension))
        # the z of the ball but 0, in window order of x + z; per z its flat
        # shift and its weight ||z||, and their sum, the total weight at interior x
        self._steps = tuple(z for z in self._ball if any(z))
        self._mean_shifts = tuple(sum(map(mul, z, self._strides)) for z in self._steps)
        self._mean_weights = tuple(map(spec.norm_value, self._steps))
        self._total_weight = reduce(add, self._mean_weights, 0)
        self._offset_table: dict = {}  # x -> (i, half-box of x, flat shifts)
        self._metrics: dict = {}  # tol -> the norm metric

    def neighbors(self, x) -> dict:
        """``{x + z: ||z||}`` over the z != 0 of the ball with x + z in the
        window, in window order.  Raises UnknownVertexError when x is not a
        window point."""
        i = self._index.get(x)
        if i is None:
            raise UnknownVertexError(x)
        at = self.window.__getitem__
        bounds = [(lo - c, hi - c) for c, (lo, hi) in zip(x, self.spec.window)]
        return {
            at(i + s): w
            for z, s, w in zip(self._steps, self._mean_shifts, self._mean_weights)
            if all(lo <= c <= hi for c, (lo, hi) in zip(z, bounds))
        }

    @cached_property
    def graph(self) -> Graph:
        """x ~ y when y is among ``neighbors(x)``, with weight ||x - y||; each
        edge is listed once, from its end that comes first in window order."""
        edges = [(x, y, w) for x in self.window for y, w in self.neighbors(x).items() if y > x]
        return Graph(edges, vertices=self.window)

    def __repr__(self) -> str:
        return f"GroupLattice({self.spec.describe()})"

    def is_interior(self, x) -> bool:
        self._require(x)
        return x in self.interior

    def metric(self, tol: float | None = None) -> Metric:
        """The norm metric of the window, built once per tol and kept here,
        so its distance rows, shells and intervals are shared."""
        tol = self._tol if tol is None else tol
        m = self._metrics.get(tol)
        if m is None:
            m = self._metrics[tol] = group_metric(self.spec, tol)
        return m

    def _require(self, x) -> None:
        if x not in self._index:
            raise UnknownVertexError(x)

    def _offsets(self, x) -> tuple:
        """(i, box, shifts) for the window point x: its index in
        ``window``, its half-box of offsets z and, per z, the shift s with
        ``window[i + s] == x + z`` and ``window[i - s] == x - z``.
        Raises UnknownVertexError when x is not a window point."""
        found = self._offset_table.get(x)
        if found is None:
            i = self._index.get(x)
            if i is None:
                raise UnknownVertexError(x)
            reach = _reach(self.spec, x)
            found = self._offset_table[x] = (i, _half_box(reach), _shifts(reach, self._strides))
        return found


def build_lattice(spec: LatticeSpec, tol: float = DEFAULT_TOL) -> GroupLattice:
    """Construct the lattice; warns when the window has no interior vertex."""
    lat = GroupLattice(spec, tol)
    if not lat.interior:
        warnings.warn(
            f"{spec.describe()}: window has no interior vertex; "
            "pointwise mean claims are vacuous here",
            stacklevel=2,
        )
    return lat


def group_metric(spec: LatticeSpec, tol: float = DEFAULT_TOL) -> Metric:
    """The norm metric d(x, y) = ||x - y|| over the window points."""
    def dist(x, y):
        return spec.norm_value(_sub(x, y))

    return Metric(spec.points(), dist, tol)


@dataclass(frozen=True)
class MidpointWitness:
    z: tuple
    lhs: Any  # 2 f(x)
    rhs: Any  # f(x + z) + f(x - z)


@dataclass(frozen=True)
class MidpointVerdict:
    ok: bool
    vertex: Any
    witness: MidpointWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_midpoint_convex_at(
    lat: GroupLattice, f: Mapping, x, tol: float | None = None
) -> MidpointVerdict:
    """Check 2 f(x) <= f(x+z) + f(x-z) for all z with both points in window."""
    i, box, shifts = lat._offsets(x)
    tol = lat._tol if tol is None else tol
    check_values(f.values())
    if x not in f:
        return MidpointVerdict(True, x)
    fx2 = 2 * f[x]
    at, get = lat.window.__getitem__, f.get
    try:
        # plain <= implies approx_le, so a pass is final
        if _plain_pass(lambda js: map(get, map(at, js)), fx2, i, shifts):
            return MidpointVerdict(True, x)
    except (TypeError, OverflowError):
        # a translate without a value (None + ...), or an int beyond float
        # range plus a float: the scan below decides
        pass
    for z, s in zip(box, shifts):
        fp, fq = get(at(i + s)), get(at(i - s))
        if fp is None or fq is None:
            continue
        rhs = exact_add(fp, fq)
        if not approx_le(fx2, rhs, tol):
            return MidpointVerdict(False, x, MidpointWitness(z, fx2, rhs))
    return MidpointVerdict(True, x)


def _plain_passes(lat: GroupLattice, f: Mapping) -> tuple:
    """(midpoint, mean), each x -> bool for one function f, and a True of
    either is final.

    midpoint(x) is True when the plain inequalities 2 f(x) <= f(x + z) +
    f(x - z) all hold at x.  mean(x), for interior x only, is True when
    plain ``M f(x) <= sum of ||z|| f(x + z)`` holds, M the total weight,
    with z over the ball but 0: the products are summed one by one from 0
    in the order of ``lat.neighbors(x)``, as
    :func:`~graphconvex.subharmonic.compare_to_neighborhood_mean` sums them
    on ``lat``, so this is that comparison's truth value.

    f is validated here, once, and read once into window order, so each
    x costs one C-level pass over its flat shifts.  False means "not
    settled": a failed inequality, a point without a value, or an int
    beyond float range met by a float; :func:`is_midpoint_convex_at` and
    the mean comparison then give the verdict, the tolerance's say and the
    witness.
    """
    check_values(f.values())
    vals = list(map(f.get, lat.window))
    read = partial(map, vals.__getitem__)
    offsets, index = lat._offsets, lat._index
    weights, shifts, total = lat._mean_weights, lat._mean_shifts, lat._total_weight

    def midpoint(x) -> bool:
        i, _, box_shifts = offsets(x)
        try:
            return _plain_pass(read, 2 * vals[i], i, box_shifts)
        except (TypeError, OverflowError):
            return False

    def mean(x) -> bool:
        i = index[x]
        try:
            # reduce, not sum: sum() of floats is compensated on Python 3.12+
            acc = reduce(add, map(mul, weights, read(map(add, repeat(i), shifts))), 0)
            return total * vals[i] <= acc
        except (TypeError, OverflowError):
            return False

    return midpoint, mean


def _plain_pass(read, fx2, i, shifts) -> bool:
    """Plain ``fx2 <= f(x + z) + f(x - z)`` for every flat shift s of x (at
    index i), in one C-level pass; ``read`` maps an iterable of window
    indices to the values there.  Raises TypeError where a value is None
    and OverflowError where an int beyond float range meets a float."""
    return all(map(le, repeat(fx2), map(
        add,
        read(map(add, repeat(i), shifts)),
        read(map(sub, repeat(i), shifts)),
    )))


def _reach(spec: LatticeSpec, x) -> tuple:
    """Per axis, how far x can move either way and stay in the window."""
    return tuple(min(c - lo, hi - c) for c, (lo, hi) in zip(x, spec.window))


@lru_cache(maxsize=256)
def _half_box(reach: tuple) -> tuple:
    """Nonzero z with |z_i| <= reach_i and first nonzero coordinate
    positive, in lexicographic order."""
    axes = [range(-r, r + 1) for r in reach]
    return tuple(z for z in itertools.product(*axes) if _positive(z))


@lru_cache(maxsize=256)
def _shifts(reach: tuple, strides: tuple) -> tuple:
    """Per z of ``_half_box(reach)``, its flat shift sum_k z_k * stride_k."""
    return tuple(sum(map(mul, z, strides)) for z in _half_box(reach))


@dataclass(frozen=True)
class NearestNeighborWitness:
    y1: tuple
    y2: tuple
    z: tuple


@dataclass(frozen=True)
class NearestNeighborVerdict:
    ok: bool
    witness: NearestNeighborWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def has_nearest_neighbor_property(
    lat: GroupLattice, members, tol: float | None = None
) -> NearestNeighborVerdict:
    """For every y1, y2 in the set and every window point z, some member y
    must satisfy 2 ||y - z|| <= ||y1 + y2 - 2 z||.

    Scanning order is sorted pairs then window order, so a failure reports
    the first uncovered triple (y1, y2, z).  Empty sets pass vacuously.
    """
    tol = lat._tol if tol is None else tol
    spec = lat.spec
    pts = sorted(members)
    for y in pts:
        lat._require(y)
    if not pts:
        return NearestNeighborVerdict(True)
    # approx_le is monotone in its left side, so some member covers z iff
    # the nearest one does
    nearest = [
        (z, _scale(z, 2), 2 * min(spec.norm_value(_sub(y, z)) for y in pts))
        for z in lat.window
    ]
    for i, y1 in enumerate(pts):
        for y2 in pts[i:]:
            target_base = _add(y1, y2)
            for z, z2, best in nearest:
                if not approx_le(best, spec.norm_value(_sub(target_base, z2)), tol):
                    return NearestNeighborVerdict(
                        False, NearestNeighborWitness(y1, y2, z)
                    )
    return NearestNeighborVerdict(True)


# -- small tuple arithmetic helpers ------------------------------------------


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _scale(a: tuple, c: int) -> tuple:
    return tuple(c * x for x in a)


def _positive(z: tuple) -> bool:
    """First nonzero coordinate is positive (picks one of each {z, -z})."""
    for c in z:
        if c:
            return c > 0
    return False
