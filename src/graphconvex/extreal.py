"""Tolerance-aware comparisons and +inf-safe helpers.

Values handled here are "extended reals": ordinary ints/floats plus +inf
(``math.inf``).  -inf and NaN are rejected by :func:`check_value` and
:func:`check_values` at the library boundary and never produced by this
package.  The relative tolerance below only applies when a float is
involved: ints (and ``Fraction`` values) are compared exactly at every
magnitude.
"""

from __future__ import annotations

import math
from itertools import repeat
from numbers import Rational, Real
from operator import add, gt, mul, truediv

INF = math.inf
DEFAULT_TOL = 1e-9


def check_value(v):
    """v itself when it is a real number or +inf; ValueError for NaN, -inf
    and anything that is not a number."""
    # int and float skip the slow abstract-class check; NaN fails v > -INF
    if (type(v) is int or type(v) is float or isinstance(v, Real)) and v > -INF:
        return v
    raise ValueError(f"value must be a real number or +inf, got {v!r}")


def check_tolerance(tol):
    """tol itself when it is a finite number >= 0; ValueError for NaN,
    +-inf and negative tolerances."""
    if not 0 <= tol < INF:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol


def check_values(values) -> bool:
    """:func:`check_value` on every item of the collection ``values``; True
    when every item is a plain int, so that exact int paths may follow."""
    # plain ints need no check and plain floats only NaN and -inf checks:
    # one set of the types and one C-level comparison pass are cheaper
    # than a call per value, which is left to find the first bad one
    types = set(map(type, values))
    if types <= {int}:
        return True
    if not (types <= {int, float} and all(map(gt, values, repeat(-INF)))):
        for v in values:
            check_value(v)
    return False


def approx_eq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Equality up to relative tolerance: |a-b| <= tol * max(1, |a|, |b|).

    Exact unless a side is a float; +inf is equal only to +inf.  An int
    (or ``Fraction``) beyond float range against a float is decided
    exactly, in fractions.
    """
    if a == b:
        return True
    # == INF, not math.isinf: the other side may be an int no float can hold
    if not (isinstance(a, float) or isinstance(b, float)) or a == INF or b == INF:
        return False
    try:
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    except OverflowError:
        from fractions import Fraction  # rare; keeps the import off start-up

        a, b = Fraction(a), Fraction(b)
        return abs(a - b) <= Fraction(tol) * max(1, abs(a), abs(b))


def approx_le(a, b, tol: float = DEFAULT_TOL) -> bool:
    """a <= b, also accepting an overshoot inside the approx_eq band."""
    return a <= b or approx_eq(a, b, tol)


def scaled(c, v):
    """c * v for c >= 0 under the convention 0 * inf = 0, exact (see
    :func:`exact_add`) when an int beyond float range meets a float."""
    if c == 0:
        return 0
    try:
        return c * v
    except OverflowError:
        return _overflowed(mul, c, v)


def exact_add(a, b):
    """a + b for values above -inf.  An int (or ``Fraction``) beyond float
    range plus a float is summed exactly, in fractions, instead of raising
    ``OverflowError``; plus +inf it is +inf."""
    try:
        return a + b
    except OverflowError:
        return _overflowed(add, a, b)


def _overflowed(op, a, b):
    """op(a, b) after converting an int beyond float range to a float
    overflowed.  +inf on either side gives +inf, which holds for the sums
    of values and their products with or quotients by a positive finite
    distance done here; anything else is done exactly in fractions."""
    if a == INF or b == INF:
        return INF
    from fractions import Fraction  # rare; keeps the import off start-up

    return op(Fraction(a), Fraction(b))


def report_value(x):
    """x as reports carry it: +inf becomes the string ``"inf"`` and a
    ``Fraction`` (any non-int rational) the string ``"p/q"``, which JSON
    can hold and text output prints unchanged."""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if not isinstance(x, int) and isinstance(x, Rational):
        return f"{x.numerator}/{x.denominator}"
    return x


def exact_div(a, b):
    """a / b for b > 0, staying an int when both are ints and the division
    is exact, and a ``Fraction`` when the quotient overflows a float."""
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    try:
        return a / b
    except OverflowError:
        return _overflowed(truediv, a, b)
