"""Pauli operators in the binary symplectic representation.

An n-qubit Pauli is a pair of bit vectors (x | z) plus a power of i;
qubit q carries X when x_q = 1, Z when z_q = 1 and Y when both are
set.  Hermitian operators have phase i^0 or i^2, i.e. sign +-1.
Commutation is the symplectic form x1.z2 + z1.x2 over GF(2).
"""

from __future__ import annotations

import numpy as np

from .f2 import F2Matrix

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {v: k for k, v in _LETTERS.items()}
_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _phase_contrib(x1, z1, x2, z2):
    """Per-qubit power of i picked up by W(x1,z1) W(x2,z2)."""
    x1 = x1.astype(np.int8)
    z1 = z1.astype(np.int8)
    x2 = x2.astype(np.int8)
    z2 = z2.astype(np.int8)
    y1 = x1 * z1
    return (
        y1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )


class PauliOperator:
    """Signed Pauli string; phase is tracked as an exponent of i."""

    __slots__ = ("x", "z", "phase")

    def __init__(self, x: np.ndarray, z: np.ndarray, phase: int = 0):
        self.x = np.asarray(x, dtype=np.uint8) & 1
        self.z = np.asarray(z, dtype=np.uint8) & 1
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
        vec = np.asarray(vec, dtype=np.uint8) & 1
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
        phase = self.phase + other.phase + int(
            _phase_contrib(self.x, self.z, other.x, other.z).sum()
        )
        return PauliOperator(self.x ^ other.x, self.z ^ other.z, phase)


def symplectic_product(a: np.ndarray, b: np.ndarray) -> int:
    """Anticommutation indicator of two binary symplectic rows."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    n = a.size // 2
    return int((a[:n] & b[n:]).sum() + (a[n:] & b[:n]).sum()) % 2


def swap_halves(m: F2Matrix) -> F2Matrix:
    """Return M @ Lambda without forming the form matrix."""
    dense = m.to_dense()
    n = m.cols // 2
    return F2Matrix.from_dense(np.hstack([dense[:, n:], dense[:, :n]]))
