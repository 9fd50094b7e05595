"""A reference span enumeration that tests of f2 and decoders share."""

import numpy as np


def reference_span_blocks(basis, offset=None):
    """The picks-product span_blocks that the doubling build replaced, kept
    verbatim at its block of 2^14 rows as the reference."""
    kappa = basis.rows
    dense = basis.to_dense()
    if offset is None:
        offset = np.zeros(basis.cols, dtype=np.uint8)
    shifts = np.arange(kappa, dtype=np.uint64)
    for lo in range(0, 1 << kappa, 1 << 14):
        hi = min(lo + (1 << 14), 1 << kappa)
        picks = (np.arange(lo, hi, dtype=np.uint64)[:, None] >> shifts) & 1
        yield (picks.astype(np.uint8) @ dense + offset) & 1
