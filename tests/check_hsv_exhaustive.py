"""Exhaustive check of colorseg._hsv_planes against the reduction form.

Compares h, s and v bit for bit on all 2^24 uint8 RGB triples, one red
level (65,536 triples) at a time; test_colorseg.py's Hypothesis test covers
the same property on a sample within the test suite's time budget.

    PYTHONPATH=src python tests/check_hsv_exhaustive.py

Prints the number of triples checked and of mismatches; exits 1 on any
mismatch.
"""

import sys
import time

import numpy as np

from garmwatch.colorseg import _hsv_planes
from test_colorseg import hsv_planes_by_reduction


def main() -> int:
    start = time.perf_counter()
    gb = np.indices((256, 256), dtype=np.uint8).reshape(2, -1).T
    pixels = np.empty((gb.shape[0], 3), dtype=np.uint8)
    pixels[:, 1:] = gb
    checked = mismatched = 0
    for red in range(256):
        pixels[:, 0] = red
        same = np.ones(len(pixels), dtype=bool)
        for got, want in zip(_hsv_planes(pixels), hsv_planes_by_reduction(pixels)):
            same &= got == want
        checked += len(pixels)
        mismatched += int(np.count_nonzero(~same))
    print(f"{checked} triples, {mismatched} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
