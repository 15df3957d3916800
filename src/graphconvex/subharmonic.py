"""Pointwise harmonic and subharmonic checks against neighborhood means.

A function f is subharmonic at x when f(x) is at most the mean of its
neighbor values, and harmonic when it equals that mean.  The weighted
variant uses the edge weights:

    f(x) <= (1/M_x) * sum over y~x of e(x, y) * f(y),   M_x = sum of e(x, y);

with unit weights this is the plain neighborhood mean.  Comparisons clear
the denominator (M_x * f(x) vs the weighted sum), so unit-weight graphs
with integer values are decided in exact ints.  A value of +inf at x is
subharmonic only when some neighbor value is +inf as well; two infinite
sides count as equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, Mapping

from .extreal import DEFAULT_TOL, INF, approx_eq, check_value, exact_add, exact_div, scaled
from .graph import Graph


@dataclass(frozen=True)
class MeanComparison:
    """Outcome of comparing f(x) with its (possibly weighted) neighborhood mean.

    ``verdict`` is one of ``"harmonic"`` (equality), ``"subharmonic"``
    (strictly below the mean) or ``"neither"``.  Truthiness is the
    subharmonic inequality: harmonic or subharmonic.
    """

    vertex: Any
    f_value: Any
    neighborhood_mean: Any
    total_weight: Any
    verdict: str

    def __bool__(self) -> bool:
        return self.verdict != "neither"

    @property
    def is_harmonic(self) -> bool:
        return self.verdict == "harmonic"


def compare_to_neighborhood_mean(
    g, f: Mapping, x, weighted: bool = False, tol: float = DEFAULT_TOL
) -> MeanComparison:
    """Build the MeanComparison at x; raises on vertices of degree zero.

    g is a Graph or a GroupLattice: only ``g.neighbors(x)`` is read, so a
    lattice builds no graph.  Also named :func:`is_subharmonic_at`: the
    comparison is truthy iff f(x) <= the neighborhood mean."""
    nbrs = g.neighbors(x)
    if not nbrs:
        raise ValueError(f"degree zero at vertex {x!r}: no neighborhood mean")
    fx = _value(f, x)
    total = acc = 0
    try:
        for y, w in nbrs.items():
            c = w if weighted else 1
            total += c
            acc += c * _value(f, y)  # c > 0, so no 0*inf can arise
        lhs = total * fx
    except OverflowError:  # an int beyond float range met a float: sum exactly
        total = acc = 0
        for y, w in nbrs.items():
            c = w if weighted else 1
            total, acc = exact_add(total, c), exact_add(acc, scaled(c, _value(f, y)))
        lhs = scaled(total, fx)
    mean = INF if acc == INF else exact_div(acc, total)
    if approx_eq(lhs, acc, tol):
        verdict = "harmonic"
    elif lhs < acc:
        verdict = "subharmonic"
    else:
        verdict = "neither"
    return MeanComparison(x, fx, mean, total, verdict)


is_subharmonic_at = compare_to_neighborhood_mean


def laplacian(g: Graph, f: Mapping, x):
    """sum over y~x of e(x, y) * (f(y) - f(x)); +inf if any value involved
    is +inf.  Nonnegative exactly when f is weighted-subharmonic at x."""
    nbrs = g.neighbors(x)
    if not nbrs:
        raise ValueError(f"degree zero at vertex {x!r}: laplacian undefined")
    fx = _value(f, x)
    values = [_value(f, y) for y in nbrs]
    if fx == INF or INF in values:
        return INF
    try:
        return sum(w * (v - fx) for w, v in zip(nbrs.values(), values))
    except OverflowError:  # an int beyond float range met a float: sum exactly
        terms = (scaled(w, exact_add(v, -fx)) for w, v in zip(nbrs.values(), values))
        return reduce(exact_add, terms, 0)


def is_harmonic_at(
    g: Graph, f: Mapping, x, weighted: bool = False, tol: float = DEFAULT_TOL
) -> bool:
    """True iff f(x) equals its neighborhood mean (up to tolerance)."""
    return compare_to_neighborhood_mean(g, f, x, weighted=weighted, tol=tol).is_harmonic


def _value(f: Mapping, v):
    try:
        value = f[v]
    except KeyError:
        raise ValueError(f"function has no value at vertex {v!r}") from None
    return check_value(value)
