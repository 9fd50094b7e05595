"""The solve path that tests of f2 and decoders share as a reference."""

import numpy as np

from qecbench.errors import NoSolution
from qecbench.f2 import F2Matrix, hstack


def reference_coset(self, s=None, cols=None):
    """F2Matrix.coset as it stood on F2Matrix.eliminate, before the column
    basis, kept verbatim (with reference_coset_transform for its method)."""
    if s is not None:
        s = np.asarray(s, dtype=np.uint8) & 1
        if s.shape != (self.rows,):
            raise ValueError("syndrome length does not match row count")
        if cols is not None and self.cols in np.asarray(cols):
            # the column of s; eliminate checks the rest
            raise ValueError("columns must be distinct integers in range(cols)")
    pivots, free, rows, x, below = reference_coset_transform(self, s if s is None else s[:, None], cols)
    if below.any():  # empty for s = None
        raise NoSolution("syndrome not in the image of the selected columns")
    if s is not None:
        rows[-1] = x[:, 0]
    return pivots, free, rows


def reference_coset_transform(self, rhs=None, cols=None):
    """F2Matrix.coset_transform as one elimination of [M | rhs], kept
    verbatim: below is T rhs under the pivot rows."""
    m = self if rhs is None else hstack([self, F2Matrix(*rhs.shape, rhs)])
    res = m.eliminate(range(self.cols) if cols is None and rhs is not None else cols)
    pivots = np.array(res.pivot_columns, dtype=np.intp)
    reduced = res.reduced.to_dense()
    order = np.arange(self.cols) if cols is None else np.asarray(cols, dtype=np.intp)
    in_pivot = np.zeros(self.cols, dtype=bool)
    in_pivot[pivots] = True
    free = order[~in_pivot[order]]
    rows = np.zeros((free.size + 1, self.cols), dtype=np.uint8)
    rows[np.arange(free.size), free] = 1
    rows[:-1, pivots] = reduced[:pivots.size, free].T
    x = np.zeros((self.cols, m.cols - self.cols), dtype=np.uint8)
    x[pivots] = reduced[:pivots.size, self.cols:]
    return pivots, free, rows, x, reduced[pivots.size:, self.cols:]
