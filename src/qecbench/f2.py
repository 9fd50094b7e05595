"""Linear algebra over GF(2) on dense 0/1 matrices.

Each matrix holds one read-only (rows, cols) uint8 array of 0s and 1s,
so stacking, slicing and products are plain numpy: a product is an
exact float sum on BLAS, reduced to its low bit.  One kernel does all
elimination: coset_transform's greedy pass on a column basis, where each
column is one int (its rows, and one bit for itself), built once per
matrix, so a column order is just the order of the pass and re-packs
nothing.  Solves, kernels, rank, independent_rows and eliminate read its
pivots, kernel rows and solutions; those that read no kernel rows stop
the pass once its pivots span the rows (_pass, which coset_transform wraps).

Also implements the MacKay ``alist`` sparse text format used to
exchange parity-check matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityExceeded, NoRightInverse, NoSolution

SPAN_BLOCK = 1 << 14  # rows per block of span_blocks
DENSE_BYTES = 1 << 30  # largest dense matrix an input file or code size may ask for


class F2Matrix:
    """Matrix over GF(2); the backbone of every code and decoder here.

    A value: its 0/1 array is read-only, and the views hand out copies."""

    __slots__ = ("rows", "cols", "_bits", "_columns")

    def __init__(self, rows: int, cols: int, _bits: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        if _bits is None:
            _bits = np.zeros((rows, cols), dtype=np.uint8)
        _bits.flags.writeable = False
        self._bits = _bits
        self._columns = None  # one int per column for coset_transform, built on first use

    # -- construction -------------------------------------------------

    @classmethod
    def from_dense(cls, array: Iterable) -> "F2Matrix":
        """The matrix of the low bit of each entry."""
        bits = np.atleast_2d(np.asarray(array, dtype=np.uint8)) & 1
        return cls(*bits.shape, bits)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, np.eye(n, dtype=np.uint8))

    # -- views ---------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return self._bits.copy()

    def row_dense(self, i: int) -> np.ndarray:
        return self._bits[i].copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self._bits, other._bits))
        )

    def __hash__(self) -> int:  # content hash; matrices are treated as values
        return hash((self.rows, self.cols, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"F2Matrix({self.rows}x{self.cols})"

    @property
    def T(self) -> "F2Matrix":
        return F2Matrix(self.cols, self.rows, self._bits.T)

    def is_zero(self) -> bool:
        return not self._bits.any()

    # -- products ------------------------------------------------------

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # BLAS sums 0/1 products exactly while they stay below 2^24 (float32)
        exact = np.float32 if self.cols < 1 << 24 else np.float64
        total = np.matmul(self._bits, other._bits, dtype=exact)
        return F2Matrix(self.rows, other.cols, (total.astype(np.int64) & 1).astype(np.uint8))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return M @ v over GF(2) as a dense uint8 vector, from the low bit of each entry of v."""
        v = np.asarray(v, dtype=np.uint8).reshape(-1)
        if v.size != self.cols:
            raise ValueError(f"expected vector of length {self.cols}, got {v.size}")
        return np.bitwise_xor.reduce(self._bits & (v & 1), axis=1)

    # -- elimination ---------------------------------------------------

    def eliminate(self, column_order: Sequence[int] | None = None) -> "EliminationResult":
        """Row reduce, trying pivots greedily in ``column_order``.

        ``column_order`` lists distinct int columns (default: all, left to
        right); only listed columns take pivots.  Unlisted columns are
        reduced with the rest, so appending s or I as extra columns and
        leaving them out of the order yields T @ s or T itself.  Returns
        the pivot columns (in the order they were chosen) and the reduced
        matrix R = T @ M, reduced row-echelon relative to the order, for
        an invertible T = [x^T; K] from a second pass over M[:, pivots]^T
        with rhs I: x^T is a left inverse of the pivot columns and K's rows
        a basis of their left kernel, so the rows from the rank on are zero
        on every listed column.
        """
        pivots = self._pass(None, column_order, False)[0]
        picked = F2Matrix(pivots.size, self.rows, self._bits[:, pivots].T)
        _, _, kernel, x, _ = picked.coset_transform(np.eye(pivots.size, dtype=np.uint8))
        t = F2Matrix(self.rows, self.rows, np.vstack([x.T, kernel[:-1]]))
        return EliminationResult(pivot_columns=tuple(pivots.tolist()), reduced=t @ self)

    def rank(self) -> int:
        return self._pass(None, None, False)[0].size

    def right_inverse(self) -> "F2Matrix":
        """Return R with self @ R = I; raises if rows are dependent."""
        pivots, _, _, xs, _ = self._pass(np.eye(self.rows, dtype=np.uint8), None, False)
        if pivots.size < self.rows:
            raise NoRightInverse(f"rank {pivots.size} < {self.rows} rows")
        return F2Matrix(self.cols, self.rows, _unpack(xs, self.cols).T)

    def coset(self, s: np.ndarray | None = None, cols: Sequence[int] | None = None):
        """Lay out the solutions of M x = s supported on ``cols``, in one pass.

        Pivots are tried greedily in ``cols`` (default: every column, left
        to right), and free holds the other listed columns in their order.
        Returns (pivots, free, rows): row j < free.size is the kernel
        vector that sets free column j and the pivot bits it couples to;
        the last row is the solution that is zero off the pivots (zero for
        s = None).  Raises NoSolution if no solution uses only ``cols``.
        """
        return self._coset(s, cols, True)

    def _coset(self, s, cols, full: bool):
        """coset, whose rows are only the solution unless full."""
        if s is not None:
            s = np.asarray(s, dtype=np.uint8) & 1
            if s.shape != (self.rows,):
                raise ValueError("syndrome length does not match row count")
        pivots, free, kernel, xs, below = self._pass(s if s is None else s[:, None], cols, full)
        if below.any():  # empty for s = None
            raise NoSolution("syndrome not in the image of the selected columns")
        return pivots, free, _unpack(kernel + (xs or [0]), self.cols)

    def coset_transform(self, rhs: np.ndarray | None = None,
                        cols: Sequence[int] | None = None):
        """coset's one pass, for a block of 0/1 columns rhs: (pivots, free,
        rows, x, below), rows laid out as coset's with a zero last row.

        Each listed column in turn is reduced against the basis so far (keyed
        by top bit, each entry carrying its combination of columns): one that
        survives is a pivot, one that reduces to zero gives its kernel row.
        Each rhs column is reduced over every top bit, linearly: x is its
        combination, zero off the pivots, and below (rows - rank, k) is what
        is left on the rows without a top bit.  Column j of x solves M x =
        rhs[:, j] if column j of below is zero; else none on cols does."""
        pivots, free, kernel, xs, below = self._pass(rhs, cols, True)
        return pivots, free, _unpack(kernel + [0], self.cols), _unpack(xs, self.cols).T, below

    def _pass(self, rhs, cols, full: bool):
        """coset_transform's pass, its kernel rows and x as lists of ints.
        Unless full, it stops once the pivots span the rows and returns no
        kernel rows, so free may be short."""
        order = range(self.cols) if cols is None else _column_order(cols, self.cols)
        n, rows = self.cols, self.rows
        if self._columns is None:
            self._columns = [v << n | 1 << j for j, v in enumerate(_ints(self._bits.T))]
        # Column j's int holds its rows above bit n and its combination of
        # columns, bit j, below, so one XOR reduces a column and tracks its
        # combination.  basis[i] is the entry that leads at bit i - 1.
        columns, basis, limit = self._columns, [0] * (n + rows + 1), 1 << n
        pivots, free, kernel, tops = [], [], [], 0
        for j in order:
            if not full and len(pivots) == rows:
                break
            e = columns[j]
            while e >= limit:  # some row bit is left
                i = e.bit_length()
                b = basis[i]
                if not b:
                    basis[i], tops = e, tops | 1 << (i - 1)
                    pivots.append(j)
                    break
                e ^= b
            else:
                free.append(j)
                kernel.append(e)
        xs, left = [], []
        for e in [] if rhs is None else _ints(rhs.T):
            e <<= n
            while u := e & tops:
                e ^= basis[u.bit_length()]
            xs.append(e & limit - 1)
            left.append(e >> n)
        below = _unpack(left, rows)[:, [r for r in range(rows) if not basis[n + r + 1]]].T
        return (np.array(pivots, dtype=np.intp), np.array(free, dtype=np.intp),
                kernel if full else [], xs, below)

    def kernel_basis(self) -> "F2Matrix":
        """Rows form a basis of the null space {v : M v = 0}."""
        rows = self.coset_transform()[2]  # its last row is zero
        return F2Matrix(len(rows) - 1, self.cols, rows[:-1])

    def solve_columns(self, cols: Sequence[int], s: np.ndarray) -> np.ndarray:
        """Solve M x = s with x supported on ``cols``, dense; NoSolution if none is."""
        return self._coset(s, cols, False)[2][0]


def _column_order(column_order, cols: int) -> list[int]:
    """column_order as a list of ints; ValueError unless it lists distinct
    int columns in range(cols)."""
    listed = np.asarray(column_order)  # [] comes out as float64
    order = listed.tolist()
    if (listed.size and (listed.dtype.kind not in "iu" or min(order) < 0 or max(order) >= cols)
            or len(set(order)) != len(order)
            or not isinstance(column_order, np.ndarray)
            and {bool, np.bool_} & set(map(type, column_order))):
        raise ValueError("columns must be distinct integers in range(cols)")
    return order


def _ints(bits: np.ndarray) -> list[int]:
    """Row i of the 2-D 0/1 array bits as one int, its column j at bit j."""
    n, m = bits.shape
    nbytes = (m + 7) // 8
    if not nbytes:
        return [0] * n
    padded = np.zeros((n, 8 * nbytes), dtype=np.uint8)  # one flat packbits beats one per row
    padded[:, :m] = bits
    raw = np.packbits(padded, bitorder="little").tobytes()
    return [int.from_bytes(raw[q:q + nbytes], "little") for q in range(0, len(raw), nbytes)]


def _unpack(ints: list[int], m: int) -> np.ndarray:
    """The (len(ints), m) 0/1 uint8 array of the low m bits of each int."""
    nbytes = (m + 7) // 8
    packed = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in ints), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(ints), nbytes), axis=1, count=m, bitorder="little")


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of F2Matrix.eliminate: R = T @ M for an invertible T."""

    pivot_columns: tuple[int, ...]
    reduced: F2Matrix


def independent_rows(base: F2Matrix, candidates: F2Matrix) -> list[int]:
    """Indices of the candidate rows that extend span(base) in turn:
    row i is kept when it lies outside span(base, candidates[:i])."""
    pivots = vstack([base, candidates]).T._pass(None, None, False)[0]
    return [p - base.rows for p in pivots.tolist() if p >= base.rows]


class SparseRows:
    """Row-major edge list of a fixed matrix, and its row parities.

    Edge k is the nonzero at (row[k], col[k]); a row's edges are
    contiguous.  Padded, row i's edges fill the first slots of a row of
    dmax (the largest degree): real marks those slots, pad_col holds
    their columns and the dummy column cols elsewhere, and pads lists the
    other slots' flat indices.  Read-only.
    """

    def __init__(self, m: F2Matrix):
        self.shape = (m.rows, m.cols)
        self.row, self.col = np.nonzero(m._bits)
        degree = np.bincount(self.row, minlength=m.rows)
        self.real = np.arange(degree.max(initial=0)) < degree[:, None]
        self.pad_col = np.full(self.real.shape, m.cols)
        self.pad_col[self.real] = self.col
        self.pads = np.flatnonzero(~self.real)
        for a in (self.row, self.col, self.real, self.pad_col, self.pads):
            a.flags.writeable = False

    def parity(self, v: np.ndarray) -> np.ndarray:
        """M v over GF(2) as uint8, from the low bit of each entry of integer v,
        for each vector along the last axis: (..., cols) -> (..., rows).  It
        gathers pad_col from a copy with a zero column and XORs each row's
        dmax slots, so an empty row is 0."""
        v = np.asarray(v)
        if v.shape[-1:] != (self.shape[1],):
            raise ValueError(f"expected vectors of length {self.shape[1]}, got {v.shape}")
        # the copy holds the vectors last, so each slot XORs whole rows
        flat = v.reshape(math.prod(v.shape[:-1]), self.shape[1])
        padded = np.zeros((self.shape[1] + 1, len(flat)), dtype=v.dtype)
        padded[:-1] = flat.T
        bits = np.bitwise_xor.reduce(padded.take(self.pad_col.T, axis=0), axis=0) & 1
        return bits.T.astype(np.uint8, order="C").reshape(v.shape[:-1] + (self.shape[0],))


# -- assembly ------------------------------------------------------------


def kron(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    check_dense(a.rows * b.rows, a.cols * b.cols, "a Kronecker product")
    return F2Matrix(a.rows * b.rows, a.cols * b.cols, np.kron(a._bits, b._bits))


def hstack(blocks: Sequence[F2Matrix]) -> F2Matrix:
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("row count mismatch in hstack")
    return F2Matrix(rows, sum(b.cols for b in blocks), np.hstack([b._bits for b in blocks]))


def vstack(blocks: Sequence[F2Matrix]) -> F2Matrix:
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column count mismatch in vstack")
    return F2Matrix(sum(b.rows for b in blocks), cols, np.vstack([b._bits for b in blocks]))


def _doubled(rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """start + span(rows) in counting order: [2^j, 2^(j+1)) is [0, 2^j) XOR rows[j]."""
    out = np.empty((1 << len(rows), start.size), dtype=np.uint8)
    out[0] = start
    for j, row in enumerate(rows):
        np.bitwise_xor(out[: 1 << j], row, out=out[1 << j : 2 << j])
    return out


def span_tables(basis: F2Matrix):
    """span_blocks' tables for a zero offset: the spans of the low m basis rows
    (2^m = SPAN_BLOCK, or all rows) and of the high rows, each by doubling."""
    dense, zero = basis._bits, np.zeros(basis.cols, dtype=np.uint8)
    m = min(basis.rows, (SPAN_BLOCK - 1).bit_length())
    return _doubled(dense[:m], zero), _doubled(dense[m:], zero)


def span_blocks(basis: F2Matrix, offset: np.ndarray | None = None, tables=None):
    """Iterate offset + span(basis rows) in dense uint8 blocks; row i
    of the concatenation adds the basis rows picked by the bits of i.
    Block c is span_tables' low table XOR offset XOR high row c: it has
    SPAN_BLOCK rows unless the whole span has fewer, and it is the low
    table XOR its own first row.  tables, if given, are
    span_tables(basis), kept for many offsets.  Building takes one XOR
    pass per basis row, and block 0 is read-only."""
    low, high = span_tables(basis) if tables is None else tables
    if offset is not None:
        low = low ^ (np.asarray(offset) & 1).astype(np.uint8, copy=False)
    low.flags.writeable = False
    for c in range(len(high)):
        yield low if c == 0 else low ^ high[c]


# -- MacKay alist format -------------------------------------------------


def to_alist(m: F2Matrix) -> str:
    """Serialize in MacKay's alist format (1-based, zero padded)."""
    dense = m._bits
    col_lists = [list(np.nonzero(dense[:, j])[0] + 1) for j in range(m.cols)]
    row_lists = [list(np.nonzero(dense[i, :])[0] + 1) for i in range(m.rows)]
    max_col = max((len(c) for c in col_lists), default=0)
    max_row = max((len(r) for r in row_lists), default=0)
    lines = [
        f"{m.cols} {m.rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(c)) for c in col_lists),
        " ".join(str(len(r)) for r in row_lists),
    ]
    for entries in col_lists:
        padded = entries + [0] * (max_col - len(entries))
        lines.append(" ".join(str(e) for e in padded))
    for entries in row_lists:
        padded = entries + [0] * (max_row - len(entries))
        lines.append(" ".join(str(e) for e in padded))
    return "\n".join(lines) + "\n"


def check_dense(rows: int, cols: int, what: str) -> None:
    """Raise CapacityExceeded if a dense rows x cols uint8 array exceeds DENSE_BYTES."""
    if rows * cols > DENSE_BYTES:
        raise CapacityExceeded(f"{what} needs {rows * cols} bytes,"
                               f" above the {DENSE_BYTES} of f2.DENSE_BYTES")


def from_alist(text: str) -> F2Matrix:
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("truncated alist")
    cols, rows = (int(x) for x in lines[0].split())
    col_degs = [int(x) for x in lines[2].split()]
    row_degs = [int(x) for x in lines[3].split()]
    if len(col_degs) != cols or len(row_degs) != rows:
        raise ValueError("alist degree lists do not match header")
    if len(lines) < 4 + cols + rows:
        raise ValueError("truncated alist")
    check_dense(rows, cols, f"a {rows}x{cols} alist")  # the header alone sizes the array
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for j in range(cols):
        entries = [int(x) for x in lines[4 + j].split() if int(x) != 0]
        if len(entries) != col_degs[j]:
            raise ValueError(f"column {j} degree mismatch")
        if len(set(entries)) < len(entries) or any(not 1 <= i <= rows for i in entries):
            raise ValueError(f"column {j} repeats a row or names one outside 1..{rows}")
        for i in entries:
            dense[i - 1, j] = 1
    # row blocks are redundant with the column blocks; cross-check them
    for i in range(rows):
        entries = [int(x) for x in lines[4 + cols + i].split() if int(x) != 0]
        if sorted(entries) != list(np.nonzero(dense[i, :])[0] + 1):
            raise ValueError(f"row {i} entries inconsistent with columns")
    return F2Matrix.from_dense(dense)


def write_alist(m: F2Matrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_alist(m))


def read_alist(path) -> F2Matrix:
    with open(path) as fh:
        return from_alist(fh.read())
