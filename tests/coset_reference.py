"""The elimination and solve path that tests of f2 and decoders share as a
reference, written apart from the F2Matrix code they check."""

import numpy as np

from qecbench.errors import NoSolution
from qecbench.f2 import F2Matrix, hstack


def _words(m):
    """m's rows as little-endian uint64 words, the layout F2Matrix stored
    when the reference loops ran (a copy of its packing helper)."""
    dense = np.atleast_2d(np.asarray(m.to_dense(), dtype=np.uint8) & 1)
    rows, cols = dense.shape
    words = (cols + 63) // 64
    if words == 0:
        return np.zeros((rows, 0), dtype=np.uint64)
    padded = np.zeros((rows, words * 64), dtype=np.uint8)
    padded[:, :cols] = dense
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _reference_eliminate(self, column_order=None):
    """The elimination loop that F2Matrix.eliminate replaced, kept verbatim
    as the reference: (pivot columns, reduced words)."""
    if column_order is None:
        order = range(self.cols)
    else:
        order = np.asarray(column_order).tolist()
    m = _words(self)
    pivots: list[int] = []
    r = 0
    for col in order:
        if r == self.rows:
            break
        w, b = divmod(col, 64)
        mask = np.uint64(1 << b)
        hits = np.nonzero(m[r:, w] & mask)[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        elim = (m[:, w] & mask).astype(bool)
        elim[r] = False
        if elim.any():
            m[elim] ^= m[r]
        pivots.append(col)
        r += 1
    return tuple(pivots), m


def _unwords(words, cols):
    """The dense 0/1 rows of the little-endian uint64 words of _words."""
    dense = np.unpackbits(words.view(np.uint8), axis=1, count=cols, bitorder="little")
    return dense.reshape(len(words), cols)


def reference_reduce(m, column_order=None):
    """_reference_eliminate with R unpacked: (pivot columns, dense R)."""
    pivots, words = _reference_eliminate(m, column_order)
    return pivots, _unwords(words, m.cols)


def reference_coset(self, s=None, cols=None):
    """F2Matrix.coset as it stood on F2Matrix.eliminate, before the column
    basis, kept verbatim (with reference_coset_transform for its method)."""
    if s is not None:
        s = np.asarray(s, dtype=np.uint8) & 1
        if s.shape != (self.rows,):
            raise ValueError("syndrome length does not match row count")
        if cols is not None and self.cols in np.asarray(cols):
            # the column of s; the reference loop checks no other column
            raise ValueError("columns must be distinct integers in range(cols)")
    pivots, free, rows, x, below = reference_coset_transform(self, s if s is None else s[:, None], cols)
    if below.any():  # empty for s = None
        raise NoSolution("syndrome not in the image of the selected columns")
    if s is not None:
        rows[-1] = x[:, 0]
    return pivots, free, rows


def reference_coset_transform(self, rhs=None, cols=None):
    """F2Matrix.coset_transform as one elimination of [M | rhs], kept
    verbatim on the reference loop: below is T rhs under the pivot rows."""
    m = self if rhs is None else hstack([self, F2Matrix(*rhs.shape, rhs)])
    pivots, reduced = reference_reduce(m, range(self.cols) if cols is None and rhs is not None else cols)
    pivots = np.array(pivots, dtype=np.intp)
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
