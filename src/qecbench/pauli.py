"""Pauli operators in the binary symplectic representation.

An n-qubit Pauli is a pair of bit vectors (x | z) plus a power of i;
qubit q carries X when x_q = 1, Z when z_q = 1 and Y when both are
set.  Hermitian operators have phase i^0 or i^2, i.e. sign +-1.
The two rules of the algebra live here, for codes and the tableau
alike: ``product`` multiplies signed rows in order, and
``symplectic_product`` is the commutation form x1.z2 + z1.x2 over GF(2).
"""

from __future__ import annotations

import numpy as np

from .f2 import F2Matrix

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {v: k for k, v in _LETTERS.items()}
_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _bits(v) -> np.ndarray:
    """A uint8 copy of a 0/1 vector."""
    v = np.asarray(v)
    bits = v.astype(np.uint8)
    # a byte other than 0 or 1 survives the delete; a cast from another
    # dtype must also be exact (256 and 0.5 both cast to 0)
    if bits.tobytes().translate(None, b"\0\1") or (
            v.dtype != np.uint8 and not np.array_equal(bits, v)):
        raise ValueError("Pauli x and z entries must be 0 or 1")
    return bits


class PauliOperator:
    """Signed Pauli string; phase is tracked as an exponent of i."""

    __slots__ = ("x", "z", "phase")

    def __init__(self, x: np.ndarray, z: np.ndarray, phase: int = 0):
        self.x, self.z = _bits(x), _bits(z)
        if self.x.shape != self.z.shape:
            raise ValueError("x and z supports differ in length")
        self.phase = phase % 4

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, sign: int = 1) -> "PauliOperator":
        p = cls.identity(n)
        xb, zb = _BITS[letter]
        p.x[qubit] = xb
        p.z[qubit] = zb
        p.phase = 0 if sign == 1 else 2
        return p

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        body = text
        phase = 0
        for pref, val in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
            if text.startswith(pref):
                body = text[len(pref):]
                phase = val
                break
        if set(body) - set("IXYZ"):
            raise ValueError(f"not a Pauli string: {text!r}")
        bits = [_BITS[c] for c in body]
        if not bits:
            return cls(np.zeros(0, np.uint8), np.zeros(0, np.uint8), phase)
        x, z = zip(*bits)
        return cls(np.array(x, np.uint8), np.array(z, np.uint8), phase)

    @classmethod
    def from_bsr(cls, vec: np.ndarray, sign: int = 1) -> "PauliOperator":
        vec = np.asarray(vec)
        n = vec.size // 2
        return cls(vec[:n], vec[n:], 0 if sign == 1 else 2)

    # -- views -----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def sign(self) -> int:
        if self.phase == 0:
            return 1
        if self.phase == 2:
            return -1
        raise ValueError("operator carries an imaginary phase")

    def bsr(self) -> np.ndarray:
        """Binary symplectic row (x_1..x_n | z_1..z_n); drops the phase."""
        return np.concatenate([self.x, self.z])

    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    def to_string(self) -> str:
        letters = "".join(
            _LETTERS[(int(a), int(b))] for a, b in zip(self.x, self.z)
        )
        return _PREFIX[self.phase] + letters

    def __repr__(self) -> str:
        return f"PauliOperator({self.to_string()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (
            self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.phase, self.x.tobytes(), self.z.tobytes()))

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        rows = np.stack([self.x, self.z, other.x, other.z]).reshape(2, -1)
        row, phase = product(rows, self.phase + other.phase)
        return PauliOperator(row[: self.n], row[self.n :], phase)


def product(rows: np.ndarray, phases) -> tuple[np.ndarray, int]:
    """Symplectic row and phase of the ordered product of rows i^p W(x, z).

    ``rows`` is an m x 2n stack of symplectic rows, multiplied first
    to last; ``phases`` holds their powers of i (one per row, or their
    sum).  An empty stack gives the identity.
    """
    # i^p W(x, z) = i^(p + x.z) X^x Z^z; moving every X left of every Z
    # costs (-1)^(z_i . x_j) for i < j, and X^X Z^Z = i^(-X.Z) W(X, Z)
    rows = np.asarray(rows, dtype=np.uint8)
    n = rows.shape[1] // 2
    x, z = rows[:, :n], rows[:, n:]
    total = np.bitwise_xor.reduce(rows, axis=0)
    before = np.bitwise_xor.accumulate(z[:-1], axis=0)  # z_1 + ... + z_(j-1)
    phase = (int(np.asarray(phases).sum()) + np.count_nonzero(x & z)
             + 2 * np.count_nonzero(before & x[1:])
             - np.count_nonzero(total[:n] & total[n:]))
    return total, int(phase) % 4


def symplectic_product(a: np.ndarray, b: np.ndarray):
    """Anticommutation indicator a_x.b_z + a_z.b_x mod 2 of symplectic rows.

    Two rows give 0 or 1; a stack of rows against one row gives a
    vector, and two stacks give the len(a) x len(b) matrix, all uint8.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    n = b.shape[-1] // 2
    swapped = np.concatenate([b[..., n:], b[..., :n]], axis=-1)
    if swapped.ndim == 2:
        return (a @ swapped.T) & 1  # the uint8 wrap modulo 256 keeps parity
    # against one row, a masked parity beats numpy's integer matmul
    return np.bitwise_xor.reduce(a & swapped, axis=-1)


def swap_halves(m: F2Matrix) -> F2Matrix:
    """Return M @ Lambda without forming the form matrix."""
    dense = m.to_dense()
    n = m.cols // 2
    return F2Matrix.from_dense(np.hstack([dense[:, n:], dense[:, :n]]))
