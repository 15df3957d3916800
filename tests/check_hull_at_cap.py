"""Convex hulls against the brute-force hull at its 14-vertex cap.

    PYTHONPATH=src python tests/check_hull_at_cap.py

Compares ``convex_hull`` with ``brute_force_convex_hull`` on every 3-set
and 300 random 5-sets of each instance: 14-vertex random graphs with
unit, small-int and float weights (three each, and one disconnected
each), one with weights 0.1, 0.2 and 0.3, where some intervals hold a
vertex only within the tolerance, and the 14-point windows 2x7 in l1,
linf and l2, the last also with the wide tolerances 0.2 and 0.35.  Unit
weights take the engine's shell path on certified rows, small ints its
shell path on heap rows, floats and l2 its scan, and disconnected graphs
its unreachable pairs.  Too slow for the tier-1 suite (about 6 s on a
2-core VM with CPython 3.11), so pytest does not collect it; exits 1 on
the first mismatch.
"""

import sys
import time
import warnings
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from graphconvex import (  # noqa: E402
    Graph,
    LatticeSpec,
    brute_force_convex_hull,
    build_lattice,
    convex_hull,
)
from subset_oracle import random_weighted_graph, seeded  # noqa: E402

N = 14
FIVE_SETS = 300
BOX = ((0, 1), (0, 6))


def cases():
    for weights in ("unit", "int", "float"):
        for s in range(3):
            yield weights, random_weighted_graph(N, seeded(f"hull-cap:{weights}:{s}"), weights)
        yield f"{weights}, disconnected", two_components(weights)
    rng = seeded("hull-cap:tenths")
    tenths = [(i, j, rng.choice((0.1, 0.2, 0.3))) for i, j in combinations(range(N), 2)
              if rng.random() < 0.2]
    yield "tenths", Graph(tenths, vertices=range(N))  # 0.1 + 0.2 != 0.3 in floats
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 2x7 windows have no interior point
        lattices = [(f"{norm}, tol {tol:g}", build_lattice(LatticeSpec(2, norm, radius, BOX), tol))
                    for norm, radius, tol in (("l1", 1, 1e-9), ("linf", 1, 1e-9),
                                              ("l2", 1.5, 1e-9), ("l2", 1.5, 0.2),
                                              ("l2", 2, 0.35))]
    yield from lattices


def two_components(weights):
    """A random graph with every edge between 0..6 and 7..13 dropped."""
    g = random_weighted_graph(N, seeded(f"hull-cap:disconnected:{weights}"), weights)
    kept = [e for e in g.edges() if (e[0] < N // 2) == (e[1] < N // 2)]
    return Graph(kept, vertices=range(N))


def main() -> int:
    for label, instance in cases():
        start = time.perf_counter()
        m = instance.metric()
        assert len(m.vertices) == N
        rng = seeded(f"hull-cap:sets:{label}")
        sets = list(combinations(m.vertices, 3))
        sets += [rng.sample(m.vertices, 5) for _ in range(FIVE_SETS)]
        for members in sets:
            hull, expected = convex_hull(m, members), brute_force_convex_hull(m, members)
            if hull != expected:
                print(f"MISMATCH {label} {instance!r} on {sorted(members)}:\n"
                      f"  hull:        {sorted(hull)}\n  brute force: {sorted(expected)}")
                return 1
        sizes = sorted(len(convex_hull(m, members)) for members in sets)
        print(f"{label} {instance!r}: {len(sets)} hulls agree, sizes {sizes[0]}..{sizes[-1]}, "
              f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
