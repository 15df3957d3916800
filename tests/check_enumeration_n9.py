"""The n = 9 census of the enumerator.

    PYTHONPATH=src python tests/check_enumeration_n9.py

Checks that ``_canonical_masks(9)`` has 261,080 classes, the number of
connected graphs on 9 unlabeled vertices (OEIS A001349), and that the
SHA-256 of its class list, written as ``",".join(map(str, masks))``,
equals the pinned digest, so pruning the children the enumerator tries
cannot change one byte of the list.
Too slow for the tier-1 suite, so pytest does not collect it; exits 1 on
the first mismatch.  The per-n records of the enumeration logger go to
stderr as it runs.

On a 2-core VM with CPython 3.11 the run takes about 19 s.
"""

import hashlib
import logging
import sys
import time

from graphconvex.enumeration import _canonical_masks

CLASSES = 261_080
DIGEST = "9711cb771d7de1b96fdb58ef8203bea79dcf148caae37679e9e138c818f022d6"


def main() -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    start = time.perf_counter()
    masks = _canonical_masks(9)
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()
    checks = [
        (f"{len(masks)} classes, expected {CLASSES}", len(masks) == CLASSES),
        (f"class list SHA-256 {digest}, pinned {DIGEST}", digest == DIGEST),
    ]
    for line, passed in checks:
        if not passed:
            print(f"MISMATCH {line}")
            return 1
        print(line)
    print(f"_canonical_masks(9) in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
