"""Integer lattices under L1/L2/Linf norms and their norm-compatible graphs.

A :class:`LatticeSpec` fixes a dimension, a norm, an adjacency radius and a
finite window (an inclusive box of integer points).  The induced graph joins
x and y whenever 0 < ||x - y|| <= radius, with edge weight ||x - y||, so the
edge weights agree with the norm metric on neighbors.

A window vertex is *interior* when the whole radius ball around it stays in
the window; the pointwise claims about means only apply there, because an
interior vertex sees the full, symmetric neighbor ball (x + z is a neighbor
iff x - z is).  Verdicts at non-interior vertices are still computable and
are reported with an ``interior`` flag by the CLI.

Midpoint convexity of f at x quantifies over group elements z != 0 with
both x + z and x - z in the window:

    2 f(x) <= f(x + z) + f(x - z).

Candidates are scanned in lexicographic order over the half-space of
vectors whose first nonzero coordinate is positive (z and -z give the same
inequality), so witnesses are deterministic.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator, Mapping

from .extreal import DEFAULT_TOL, approx_le, check_value
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
    """A window of an integer lattice with its norm-induced graph."""

    def __init__(self, spec: LatticeSpec, tol: float = DEFAULT_TOL):
        self.spec = spec
        self.window: tuple = tuple(spec.points())
        offsets = spec.ball_offsets(tol)
        half = [z for z in offsets if z != _zero(spec.dimension) and _positive(z)]
        edges = []
        for x in self.window:
            for z in half:
                y = _add(x, z)
                if spec.contains(y):
                    edges.append((x, y, spec.norm_value(z)))
        self.graph = Graph(edges, vertices=self.window)
        self.interior: frozenset = frozenset(
            x for x in self.window
            if all(spec.contains(_add(x, z)) for z in offsets)
        )
        self._tol = tol

    def __repr__(self) -> str:
        return f"GroupLattice({self.spec.describe()})"

    def is_interior(self, x) -> bool:
        self._require(x)
        return x in self.interior

    def metric(self, tol: float | None = None) -> Metric:
        return group_metric(self.spec, self._tol if tol is None else tol)

    def _require(self, x) -> None:
        if not self.spec.contains(x):
            raise UnknownVertexError(x)


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

    return Metric("norm-induced", tuple(spec.points()), dist, tol)


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
    lat._require(x)
    tol = lat._tol if tol is None else tol
    for v in f.values():
        check_value(v)
    if x not in f:
        return MidpointVerdict(True, x)
    spec = lat.spec
    fx2 = 2 * f[x]
    for p in lat.window:  # lexicographic, so z = p - x ascends too
        z = _sub(p, x)
        if z == _zero(spec.dimension) or not _positive(z):
            continue
        q = _sub(x, z)
        if not spec.contains(q):
            continue
        if p not in f or q not in f:
            continue
        rhs = f[p] + f[q]
        if not approx_le(fx2, rhs, tol):
            return MidpointVerdict(False, x, MidpointWitness(z, fx2, rhs))
    return MidpointVerdict(True, x)


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
    for i, y1 in enumerate(pts):
        for y2 in pts[i:]:
            target_base = _add(y1, y2)
            for z in lat.window:
                target = spec.norm_value(_sub(target_base, _scale(z, 2)))
                if not any(
                    approx_le(2 * spec.norm_value(_sub(y, z)), target, tol)
                    for y in pts
                ):
                    return NearestNeighborVerdict(
                        False, NearestNeighborWitness(y1, y2, z)
                    )
    return NearestNeighborVerdict(True)


# -- small tuple arithmetic helpers ------------------------------------------


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _scale(a: tuple, c: int) -> tuple:
    return tuple(c * x for x in a)


def _zero(n: int) -> tuple:
    return (0,) * n


def _positive(z: tuple) -> bool:
    """First nonzero coordinate is positive (picks one of each {z, -z})."""
    for c in z:
        if c:
            return c > 0
    return False
