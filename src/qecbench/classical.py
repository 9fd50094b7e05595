"""Binary linear codes, their distance, and encoding matrices.

A code is the null space {c : H c = 0} of its parity-check matrix.
The encoding matrix V stacks a generator on top of the transposed
right inverse of H's independent rows, so any word splits as
v^T V^{-1} = (logical : syndrome); the logical half labels the
information bits of a classical decoding problem and the syndrome
half equals H v on those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded
from .f2 import F2Matrix, check_dense, independent_rows, span_blocks, vstack

DISTANCE_GUARD = 24  # 2^k codewords get enumerated; refuse beyond this


@dataclass(frozen=True)
class LinearCode:
    """Parity checks plus a generator whose rows span the kernel of H."""

    h: F2Matrix
    g: F2Matrix

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def k(self) -> int:
        return self.g.rows

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"


def linear_code(h: F2Matrix) -> LinearCode:
    return LinearCode(h=h, g=h.kernel_basis())


def transpose_code(code: LinearCode) -> LinearCode:
    """Code whose parity-check matrix is H^T."""
    return linear_code(code.h.T)


def syndrome(code: LinearCode, word: np.ndarray) -> np.ndarray:
    return code.h.matvec(word)


@dataclass(frozen=True)
class EncodingMatrix:
    """Invertible V = (G ; R^T), R a fixed right inverse of H's
    independent rows (all of H when it has full row rank)."""

    v: F2Matrix
    v_inv: F2Matrix


def encoding_matrix(code: LinearCode) -> EncodingMatrix:
    picks = independent_rows(F2Matrix(0, code.n), code.h)
    if not picks:
        v = code.g
    else:
        r = F2Matrix.from_dense(code.h.to_dense()[picks]).right_inverse()
        v = vstack([code.g, r.T])
    # V is always invertible: a dependency (a G + b R^T) = 0 hit with the
    # picked rows of H, transposed, forces b = 0, then a = 0 since G has
    # independent rows.
    v_inv = v.right_inverse()
    return EncodingMatrix(v=v, v_inv=v_inv)


def distance(code: LinearCode, guard: int = DISTANCE_GUARD) -> float:
    """Minimum weight of a nonzero codeword; inf when k = 0."""
    if code.k == 0:
        return math.inf
    if code.k > guard:
        raise CapacityExceeded(f"2^{code.k} codewords exceeds guard 2^{guard}")
    best = code.n + 1
    for words in span_blocks(code.g):
        # only the zero message gives the zero word: G has independent rows
        weights = words.sum(axis=1)
        best = min(best, int(weights[weights > 0].min()))
    return best


# -- standard constructions ----------------------------------------------


def repetition(n: int) -> LinearCode:
    """Length-n repetition code; H is the (n-1) x n bidiagonal chain."""
    if n < 1:
        raise ValueError("repetition code needs n >= 1")
    check_dense(n - 1, n, f"repetition {n}")
    h = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        h[i, i] = h[i, i + 1] = 1
    return linear_code(F2Matrix.from_dense(h))


def hamming74() -> LinearCode:
    """[7,4,3] Hamming code; column j is the binary expansion of j."""
    h = [
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ]
    return linear_code(F2Matrix.from_dense(h))
