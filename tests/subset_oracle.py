"""The per-subset fold that the subset-sweep kernel must reproduce.

``theorems._sweep_subsets`` builds each set's distance function and span
from the set one bit smaller.  The oracle here calls the public single-set
verifier once per nonempty subset, in mask order, and folds the reports
with ``aggregate_reports``: no state is shared between subsets.
"""

import random

from graphconvex import (
    Graph,
    GroupLattice,
    aggregate_reports,
    sweep_subsets_dist_convex,
    sweep_subsets_nn,
    verify_dist_convex_implies_set_convex,
    verify_nn_implies_dist_midpoint_convex,
)

CLAIMS = {
    "thm3": (sweep_subsets_dist_convex, verify_dist_convex_implies_set_convex),
    "prop-dist-cvx": (sweep_subsets_dist_convex, verify_dist_convex_implies_set_convex),
    "prop-nn": (sweep_subsets_nn, verify_nn_implies_dist_midpoint_convex),
}


def per_subset_fold(claim, instance, tol=1e-9):
    """The report of ``claim`` on every nonempty subset, one verifier call each."""
    verify = CLAIMS[claim][1]
    universe = instance.window if isinstance(instance, GroupLattice) else instance.vertices
    reports = (
        verify(instance, [v for i, v in enumerate(universe) if mask >> i & 1], tol)
        for mask in range(1, 1 << len(universe))
    )
    return aggregate_reports(claim, f"{instance!r}, all nonempty F", reports)


def kernel_and_fold(claim, instance, tol=1e-9):
    """The sweep's report and the oracle's, for one instance."""
    sweep = CLAIMS[claim][0]
    return sweep(instance, tol), per_subset_fold(claim, instance, tol)


def random_weighted_graph(n, rng, weights="unit", p=0.35):
    """G(n, p) on 0..n-1, possibly disconnected, with unit, small-int or
    float weights (floats from a few sums that round differently)."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                if weights == "unit":
                    edges.append((i, j))
                elif weights == "int":
                    edges.append((i, j, rng.randint(1, 4)))
                else:
                    edges.append((i, j, rng.choice((1, 2, 0.1, 0.2, 0.3, 1.5, 2.5))))
    return Graph(edges, vertices=range(n))


def seeded(key):
    return random.Random(f"subset-oracle:{key}")
