"""Stabilizer codes, CSS codes, logical operators and distance search.

Codes are held as binary symplectic check matrices (one row per
generator, redundant rows allowed).  Logical representatives come
from the centralizer of the stabilizer group modulo the group itself
and are arranged in anticommuting X/Z pairs; k is read off their
count.  Distance is found by one exhaustive search over low-weight
Paulis, guarded by qubit count and weight, which the pure-type CSS
search shares.  Commutation and products go through ``pauli``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, DistanceUnknown, NotAbelian, NotCss
from .f2 import F2Matrix, independent_rows
from .pauli import PauliOperator, product, swap_halves, symplectic_product

DISTANCE_QUBIT_GUARD = 20
DISTANCE_WEIGHT_GUARD = 6


@dataclass(frozen=True)
class StabilizerCode:
    """n-qubit code fixed by the group generated by the rows of h."""

    h: F2Matrix            # r x 2n binary symplectic rows, signs all +1
    n: int
    k: int
    logicals: F2Matrix     # rows: Xbar_1..Xbar_k, Zbar_1..Zbar_k

    def generator(self, i: int) -> PauliOperator:
        return PauliOperator.from_bsr(self.h.row_dense(i))

    def __repr__(self) -> str:
        return f"StabilizerCode(n={self.n}, k={self.k})"


def stabilizer_code(generators) -> StabilizerCode:
    """Build a code from PauliOperators or a symplectic check matrix.

    Raises NotAbelian when generators fail to commute, carry imaginary
    phases, or multiply to -identity along a dependency.
    """
    if isinstance(generators, F2Matrix):
        h, phases = generators, []
    else:
        paulis = list(generators)
        if not paulis:
            raise ValueError("need at least one generator (or a check matrix)")
        h = F2Matrix.from_dense(np.stack([p.bsr() for p in paulis]))
        phases = [p.phase for p in paulis]
    if h.cols % 2:
        raise ValueError("symplectic rows must have even length")
    n = h.cols // 2

    rows = h.to_dense()
    if symplectic_product(rows, rows).any():
        raise NotAbelian("generators do not mutually commute")
    if any(p % 2 for p in phases):
        raise NotAbelian("generator carries an imaginary phase")
    # signs are normalized to +1 (replacing S by -S fixes the same code
    # family); a dependent subset multiplying to -I would make the group
    # inconsistent
    for dep in h.T.kernel_basis().to_dense():
        if product(rows[dep == 1], 0)[1] != 0:
            raise NotAbelian("-identity lies in the span of the generators")

    reps = _coset_reps(swap_halves(h), h)  # centralizer mod stabilizer
    return StabilizerCode(h=h, n=n, k=reps.rows // 2, logicals=_logical_pairs(reps))


def _logical_pairs(reps: F2Matrix) -> F2Matrix:
    """The rows of reps re-arranged as X/Z anticommuting pairs."""
    rem = reps.to_dense()
    xs, zs = [], []
    while len(rem):
        u, rem = rem[0], rem[1:]
        j = int(np.argmax(symplectic_product(rem, u)))  # first partner of u
        w, rem = rem[j], np.delete(rem, j, axis=0)
        # a row absorbs u if it anticommutes with w, then w if with u
        rem = rem ^ symplectic_product(rem, w)[:, None] * u
        rem = rem ^ symplectic_product(rem, u)[:, None] * w
        xs.append(u)
        zs.append(w)
    return F2Matrix.from_dense(np.reshape(xs + zs, (reps.rows, reps.cols)))


# -- CSS codes -------------------------------------------------------------


@dataclass(frozen=True)
class CssCode:
    """Code with separated X and Z checks satisfying Hx Hz^T = 0."""

    hx: F2Matrix
    hz: F2Matrix
    lx: F2Matrix  # k x n, X-type logical representatives
    lz: F2Matrix  # k x n, Z-type, paired so that lx_i . lz_j = delta_ij

    @property
    def n(self) -> int:
        return self.hx.cols

    @property
    def k(self) -> int:
        return self.lx.rows

    def __repr__(self) -> str:
        return f"CssCode(n={self.n}, k={self.k})"


def css_code(hx: F2Matrix, hz: F2Matrix) -> CssCode:
    if hx.cols != hz.cols:
        raise ValueError("Hx and Hz act on different qubit counts")
    if not (hx @ hz.T).is_zero():
        raise NotCss("Hx Hz^T != 0")
    lx = _coset_reps(hz, hx)  # commute with Z checks, mod X stabilizers
    lz = _coset_reps(hx, hz)
    if lx.rows:
        # re-pair so the logical bases are mutually dual
        pairing = lx @ lz.T  # k x k, invertible by nondegeneracy
        lz = pairing.right_inverse().T @ lz
    return CssCode(hx=hx, hz=hz, lx=lx, lz=lz)


def _coset_reps(h_commute: F2Matrix, h_mod: F2Matrix) -> F2Matrix:
    """Rows of ker(h_commute) that extend rowspace(h_mod) to all of it:
    a basis of the quotient, so their count is k."""
    kernel = h_commute.kernel_basis()
    return F2Matrix.from_dense(kernel.to_dense()[independent_rows(h_mod, kernel)])


# -- distance ---------------------------------------------------------------


def distance(code: StabilizerCode, max_weight: int = 3) -> float:
    """Exhaustive minimum weight of a logical operator.

    Searches all Paulis by increasing weight; raises DistanceUnknown
    when nothing is found up to max_weight.
    """
    if code.k == 0:
        return math.inf
    if code.n > DISTANCE_QUBIT_GUARD or max_weight > DISTANCE_WEIGHT_GUARD:
        raise CapacityExceeded(
            f"distance search limited to n <= {DISTANCE_QUBIT_GUARD}, "
            f"weight <= {DISTANCE_WEIGHT_GUARD}"
        )
    d = _lightest_logical(code.h.to_dense(), code.logicals.to_dense(), code.n,
                          max_weight, (1, 2, 3))
    if d is None:
        raise DistanceUnknown(max_weight)
    return d


def css_distance(css: CssCode, max_weight: int | None = None) -> float:
    """min(d_X, d_Z) via pure-type search; inf when k = 0."""
    if css.k == 0:
        return math.inf
    if css.n > 24:
        raise CapacityExceeded("pure-type distance search limited to n <= 24")
    cap = max_weight if max_weight is not None else css.n
    # [[hx, 0], [0, hz]] and [[lx, 0], [0, lz]] as symplectic rows; for v
    # in ker(hz), v lies outside rowspace(hx) = ker(hx)^perp exactly when
    # lz v != 0, since ker(hx) = rowspace(hz) + span(lz)
    hx, hz, lx, lz = (m.to_dense() for m in (css.hx, css.hz, css.lx, css.lz))
    checks = np.block([[hx, 0 * hx], [0 * hz, hz]])
    logicals = np.block([[lx, 0 * lx], [0 * lz, lz]])
    dx = _lightest_logical(checks, logicals, css.n, cap, (1,))
    dz = _lightest_logical(checks, logicals, css.n, cap, (2,))
    if dx is None or dz is None:
        raise DistanceUnknown(cap)
    return min(dx, dz)


def _lightest_logical(checks, logicals, n, max_weight, letters):
    """Least weight <= max_weight of a Pauli with letters from ``letters``
    (1 X, 2 Z, 3 Y) on its support that commutes with every check row
    and not with some logical row; None when there is none."""
    for w in range(1, max_weight + 1):
        # one row per support and choice of letter on each of its qubits,
        # a block of supports (a few thousand rows) at a time
        types = np.array(list(itertools.product(letters, repeat=w)), np.uint8)
        supports = itertools.combinations(range(n), w)
        while block := list(itertools.islice(supports, 1 + 4096 // len(types))):
            cols = np.repeat(block, len(types), axis=0)
            v = np.zeros((len(cols), 2 * n), dtype=np.uint8)
            np.put_along_axis(v, cols, np.tile(types & 1, (len(block), 1)), axis=1)
            np.put_along_axis(v, cols + n, np.tile(types >> 1, (len(block), 1)), axis=1)
            commuting = v[~symplectic_product(v, checks).any(axis=1)]
            if symplectic_product(commuting, logicals).any():
                return w
    return None


# -- standard codes ----------------------------------------------------------


def five_qubit_code() -> StabilizerCode:
    """The [[5,1,3]] code with cyclic generators XZZXI etc."""
    gens = [
        PauliOperator.from_string(s)
        for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
    ]
    return stabilizer_code(gens)


def four_two_two_checks() -> tuple[F2Matrix, F2Matrix]:
    """Check matrices of the [[4,1,2]] detection code used in examples."""
    hx = F2Matrix.from_dense([[1, 1, 0, 0], [0, 0, 1, 1]])
    hz = F2Matrix.from_dense([[1, 1, 1, 1]])
    return hx, hz
