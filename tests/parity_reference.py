"""A reference predicate that tests of f2 and decoders share."""

import numpy as np


def parity_test(sparse, s):
    """The former SparseRows.parity_test, kept verbatim: a predicate for
    M v == s on bool vectors v; s (0/1) is split over the rows once."""
    # reduceat returns v[start] for an empty row and rejects a start
    # equal to the edge count, so empty rows are left out of it
    degree = np.bincount(sparse.row, minlength=sparse.shape[0])
    rows = np.flatnonzero(degree)
    want = s[rows].astype(bool)
    if np.count_nonzero(want) != np.count_nonzero(s):  # a 1 on an empty row
        return lambda v: False
    col, starts, want = sparse.col, (np.cumsum(degree) - degree)[rows], want.tobytes()
    # bools are 0/1 bytes, so equal bytes are equal parities
    return lambda v: np.bitwise_xor.reduceat(v[col], starts).tobytes() == want
