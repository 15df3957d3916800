"""The subset-sweep kernel against the per-subset fold at the 12-point cap.

    PYTHONPATH=src python tests/check_subset_kernel_at_cap.py

Compares the reports of ``sweep_subsets_dist_convex`` and
``sweep_subsets_nn`` with those of the single-set verifiers called once
per subset (4,095 sets each) on the 3x4 windows in l1, linf and l2, on
path 12 and on four random weighted 12-vertex graphs.  Too slow for the
tier-1 suite (about five seconds), so pytest does not collect it; exits 1
on the first mismatch.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from graphconvex import LatticeSpec, build_lattice, path  # noqa: E402
from subset_oracle import kernel_and_fold, random_weighted_graph, seeded  # noqa: E402


def cases():
    for norm, radius in (("l1", 1), ("linf", 1), ("l2", 1.5)):
        lat = build_lattice(LatticeSpec(2, norm, radius, ((0, 2), (0, 3))))
        yield "prop-dist-cvx", lat
        yield "prop-nn", lat
    yield "thm3", path(12)
    for s, weights in enumerate(("int", "float", "int", "float")):
        rng = seeded(f"cap:{s}")
        yield "thm3", random_weighted_graph(12, rng, weights, p=0.25)


def main() -> int:
    for claim, instance in cases():
        start = time.perf_counter()
        kernel, fold = kernel_and_fold(claim, instance)
        line = (f"{claim} on {instance!r}: {kernel.verdict}, checked={kernel.checked} "
                f"fired={kernel.hypothesis_fired}, {time.perf_counter() - start:.1f} s")
        if kernel != fold:
            print(f"MISMATCH {line}\n  kernel: {kernel}\n  fold:   {fold}")
            return 1
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
