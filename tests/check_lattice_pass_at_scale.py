"""The per-function midpoint and mean passes against the per-site library
checks, on larger lattice windows, for thm4-cvx-sub, lem-dist-pt and prop-nn.

    PYTHONPATH=src python tests/check_lattice_pass_at_scale.py

thm4-cvx-sub, lem-dist-pt and the prop-nn conclusion read each function
once and settle most sites with one plain midpoint pass, and thm4-cvx-sub
and prop-nn most weighted means with one plain mean pass
(``lattice._plain_passes``); a mean the pass leaves open is compared on
the lattice's own neighbours.  The loops of ``tests/lattice_oracle.py``
call ``is_midpoint_convex_at`` at every site and compare every mean on
``eager_graph``.  On 5x5x5 windows in the l1, linf and l2 norms and on
15x15 l2 windows with radius 1.5 and 2.5, thm4-cvx-sub takes 20 max-affine
samples and the same samples divided by 3 in floats (which the plain
passes leave to the tolerance at some sites), and lem-dist-pt 10 base
points.  prop-nn takes single sets (points, boxes and random sets) on the
15x15 windows and on 41-point lines, and the all-subsets sweep on lines of
11 points and on 3x3 and 3x4 windows.  Each runs at the default tolerance
and at tolerance 0; reports and witness value types must agree, sample by
sample and aggregated.  Too slow for the tier-1 suite, so pytest does not
collect it; exits 1 on the first mismatch.
"""

import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from graphconvex import (  # noqa: E402
    LatticeSpec,
    aggregate_reports,
    build_lattice,
    max_affine_samples,
    sweep_max_affine,
    sweep_subsets_nn,
    verify_dist_to_point_midpoint_convex,
    verify_nn_implies_dist_midpoint_convex,
    verify_pointwise_implication,
)
from graphconvex.extreal import DEFAULT_TOL  # noqa: E402
from lattice_oracle import (  # noqa: E402
    dist_pt_per_site,
    nn_per_site,
    nn_sweep_per_site,
    outcome,
    thm4_per_site,
)

SAMPLES, POINTS, TOLS = 20, 10, (DEFAULT_TOL, 0.0)
LATTICES = (
    ("l1", 1, ((-2, 2),) * 3),
    ("linf", 1, ((-2, 2),) * 3),
    ("l2", 1.5, ((-2, 2),) * 3),
    ("l2", 1.5, ((-7, 7),) * 2),
    ("l2", 2.5, ((-7, 7),) * 2),
)
NN_SETS, NN_LINES = 6, (("l1", 1, ((-20, 20),)), ("l2", 2, ((-20, 20),)))
NN_SWEEPS = (
    ("l1", 1, ((0, 10),)),
    ("l2", 2, ((0, 10),)),
    ("l2", 1.5, ((0, 2), (0, 2))),
    ("l1", 1, ((-1, 1), (0, 3))),
    ("linf", 1, ((-1, 1), (0, 2))),
)


def mismatch(what, got, expected) -> int:
    print(f"MISMATCH {what}:\n  pass:     {got}\n  per site: {expected}")
    return 1


def main() -> int:
    start = time.perf_counter()
    sites = 0
    for (norm, radius, window), tol in itertools.product(LATTICES, TOLS):
        lat = build_lattice(LatticeSpec(len(window), norm, radius, window))
        seed = len(lat.window)
        samples = list(max_affine_samples(lat.spec, random.Random(f"max-affine:{seed}"), SAMPLES))
        for name, f in samples:
            for label, fun in ((name, f), (f"{name} / 3", {v: y / 3 for v, y in f.items()})):
                got = outcome(verify_pointwise_implication, lat, fun, "midpoint", tol, label)
                expected = outcome(thm4_per_site, lat, fun, tol, label)
                if got != expected:
                    return mismatch(f"{lat!r} tol={tol} {label}", got, expected)
                sites += got[1]["checked"]
        reports = [thm4_per_site(lat, f, tol, name) for name, f in samples]
        got = sweep_max_affine(lat, SAMPLES, seed, tol)
        expected = aggregate_reports(
            "thm4-cvx-sub", f"{lat!r}, {SAMPLES} max-affine samples", reports)
        if got != expected:
            return mismatch(f"{lat!r} tol={tol} thm4 suite", got, expected)
        got = outcome(verify_dist_to_point_midpoint_convex, lat, None, POINTS, seed, tol)
        expected = outcome(dist_pt_per_site, lat, None, POINTS, seed, tol)
        if got != expected:
            return mismatch(f"{lat!r} tol={tol} lem-dist-pt", got, expected)
        sites += got[1]["checked"]
        print(f"{lat!r}, tol={tol}: {SAMPLES} x 2 functions and {POINTS} base points agree")
    for (norm, radius, window), tol in itertools.product(LATTICES[3:] + NN_LINES, TOLS):
        lat = build_lattice(LatticeSpec(len(window), norm, radius, window))
        fired = 0
        for members in nn_sets(lat, random.Random(f"prop-nn:{lat!r}")):
            got = outcome(verify_nn_implies_dist_midpoint_convex, lat, members, tol)
            expected = outcome(nn_per_site, lat, members, tol)
            if got != expected:
                return mismatch(f"{lat!r} tol={tol} prop-nn F={sorted(members)}", got, expected)
            sites += got[1]["checked"]
            fired += got[1]["hypothesis_fired"]
        print(f"{lat!r}, tol={tol}: prop-nn on {3 * NN_SETS} sets agrees, {fired} sites fired")
    for (norm, radius, window), tol in itertools.product(NN_SWEEPS, TOLS):
        lat = build_lattice(LatticeSpec(len(window), norm, radius, window))
        got, expected = sweep_subsets_nn(lat, tol), nn_sweep_per_site(lat, tol)
        if got != expected:
            return mismatch(f"{lat!r} tol={tol} prop-nn sweep", got, expected)
        sites += got.checked
        print(f"{lat!r}, tol={tol}: prop-nn sweep agrees")
    print(f"ok: {sites} sites in {time.perf_counter() - start:.1f} s")
    return 0


def nn_sets(lat, rng):
    """NN_SETS single points, boxes of side 1 to 4 and sets of 2 to 4
    points drawn at random; most random sets fail the antecedent."""
    for _ in range(NN_SETS):
        yield {rng.choice(lat.window)}
        corner = rng.choice(lat.window)
        yield set(itertools.product(*(
            range(c, min(c + rng.randint(1, 4), hi + 1))
            for c, (_, hi) in zip(corner, lat.spec.window))))
        yield set(rng.sample(lat.window, rng.randint(2, 4)))


if __name__ == "__main__":
    sys.exit(main())
