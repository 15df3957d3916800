"""The enumerator against the permutation-loop oracle at n = 8.

    PYTHONPATH=src python tests/check_enumeration_n8.py

Checks that ``_canonical_masks(8)`` is byte-equal to the oracle's class
list (every child of every n = 7 parent canonicalized by trying all
orderings inside each refinement cell), that there are 11,117 classes,
that the library's forms of C_9 and the Petersen graph equal the oracle's
(9! and 10! orderings), and that the thm1 and thm2 sweeps over every
function into {0, 1, 2} on all n = 8 graphs are verified with their
pinned counts.  Both claims are then swept streamed, from the class masks,
with ``max_n=7`` and ``max_n=8``: the n <= 8 counts must be the n <= 7
counts plus the pinned n = 8 counts of the built graphs, so the two entry
paths of ``exhaustive_small_graph_sweep`` cannot drift apart.  Too slow
for the tier-1 suite, so pytest does not collect it; exits 1 on the first
mismatch.

Each line ends with the check's own duration and the time since the start.
On a 2-core VM with CPython 3.11 the whole run takes about 22 s: about
10 s for the class list (mostly the oracle's), 0.7 and 9 s for the C_9
and Petersen forms, 0.2 s to build the 11,117 graphs, 0.5 and 0.75 s for
the thm1 and thm2 sweeps over them, and 0.04 and 0.06 s, then 0.5 and
0.85 s, for the streamed thm1 and thm2 sweeps with ``max_n=7`` and
``max_n=8``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import enumeration_oracle as oracle  # noqa: E402

from graphconvex import connected_unit_graphs, exhaustive_small_graph_sweep  # noqa: E402
from graphconvex.enumeration import _canonical_form, _canonical_masks  # noqa: E402

CLASSES = 11_117
SWEEPS = {"triangle_free": (71_199_972, 35_369_943), "pairing": (151_677_198, 68_688_427)}


def checks():
    """(description, passed) of each check, in order, timed as it runs."""
    masks = _canonical_masks(8)
    yield "_canonical_masks(8) equals the oracle's", masks == oracle.canonical_masks(8)
    yield f"{len(masks)} classes, expected {CLASSES}", len(masks) == CLASSES
    for name, n, mask in oracle.one_cell_graphs():
        if name in oracle.SLOW_FORMS:
            pinned, form = oracle.SLOW_FORMS[name], _canonical_form(n, mask)
            yield (f"{name}: form {form}, pinned {pinned}",
                   form == pinned == oracle.canonical_form(n, mask))
    graphs = connected_unit_graphs(8)
    yield f"{len(graphs)} graphs built", len(graphs) == CLASSES
    for hypothesis, counts in SWEEPS.items():
        report = exhaustive_small_graph_sweep(hypothesis, graphs=graphs, values=(0, 1, 2))
        got = (report.checked, report.hypothesis_fired)
        yield (f"{report.claim} on {report.instance}: {report.verdict}, "
               f"checked={got[0]} fired={got[1]}",
               report.verdict == "verified" and got == counts)
    for hypothesis, counts in SWEEPS.items():
        below = exhaustive_small_graph_sweep(hypothesis, max_n=7, values=(0, 1, 2))
        yield (f"{below.claim} streamed on {below.instance}: {below.verdict}, "
               f"checked={below.checked} fired={below.hypothesis_fired}",
               below.verdict == "verified")
        report = exhaustive_small_graph_sweep(hypothesis, max_n=8, values=(0, 1, 2))
        got = (report.checked, report.hypothesis_fired)
        want = (below.checked + counts[0], below.hypothesis_fired + counts[1])
        yield (f"{report.claim} streamed on {report.instance}: {report.verdict}, "
               f"checked={got[0]} fired={got[1]}, n <= 7 plus n = 8 gives {want}",
               report.verdict == "verified" and got == want)


def main() -> int:
    start = last = time.perf_counter()
    for line, passed in checks():
        now = time.perf_counter()
        stamp = f"{now - last:.2f} s, at {now - start:.1f} s"
        last = now
        if not passed:
            print(f"MISMATCH {line}, {stamp}")
            return 1
        print(f"{line}, {stamp}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
