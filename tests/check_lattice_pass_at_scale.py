"""The per-function midpoint and mean passes against the per-site library
checks, on larger lattice windows.

    PYTHONPATH=src python tests/check_lattice_pass_at_scale.py

thm4-cvx-sub and lem-dist-pt read each function once and settle most sites
with one plain midpoint pass, and thm4-cvx-sub most weighted means with one
plain mean pass (``lattice._plain_passes``); the loops of
``tests/lattice_oracle.py`` call ``is_midpoint_convex_at`` and
``is_subharmonic_at`` at every site.  On 5x5x5 windows in the l1, linf and
l2 norms and on 15x15 l2 windows with radius 1.5 and 2.5, each takes 20
max-affine samples, the same samples divided by 3 in floats (which the
plain passes leave to the tolerance at some sites), and 10 base points, at
the default tolerance and at tolerance 0; reports and witness value types
must agree, sample by sample and aggregated.  Too slow for the tier-1
suite, so pytest does not collect it; exits 1 on the first mismatch.
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
    verify_dist_to_point_midpoint_convex,
    verify_pointwise_implication,
)
from graphconvex.extreal import DEFAULT_TOL  # noqa: E402
from lattice_oracle import dist_pt_per_site, outcome, thm4_per_site  # noqa: E402

SAMPLES, POINTS = 20, 10
LATTICES = (
    ("l1", 1, ((-2, 2),) * 3),
    ("linf", 1, ((-2, 2),) * 3),
    ("l2", 1.5, ((-2, 2),) * 3),
    ("l2", 1.5, ((-7, 7),) * 2),
    ("l2", 2.5, ((-7, 7),) * 2),
)


def mismatch(what, got, expected) -> int:
    print(f"MISMATCH {what}:\n  pass:     {got}\n  per site: {expected}")
    return 1


def main() -> int:
    start = time.perf_counter()
    sites = 0
    for (norm, radius, window), tol in itertools.product(LATTICES, (DEFAULT_TOL, 0.0)):
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
    print(f"ok: {sites} sites in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
