"""Stabilizer codes, CSS codes, logical operators and distance search.

Codes are held as binary symplectic check matrices (one row per
generator, redundant rows allowed).  Logical representatives come
from the centralizer of the stabilizer group modulo the group itself
and are arranged in anticommuting X/Z pairs.  Distance is found by
exhaustive search over low-weight Paulis, guarded by qubit count and
weight.  Commutation and products go through ``pauli``.
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

    k = n - h.rank()
    return StabilizerCode(h=h, n=n, k=k, logicals=_logical_pairs(h, n, k))


def _logical_pairs(h: F2Matrix, n: int, k: int) -> F2Matrix:
    """Centralizer mod stabilizer, arranged as X/Z anticommuting pairs."""
    if k == 0:
        return F2Matrix(0, 2 * n)
    centralizer = swap_halves(h).kernel_basis()
    rem = centralizer.to_dense()[independent_rows(h, centralizer)]
    assert len(rem) == 2 * k
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
    return F2Matrix.from_dense(np.stack(xs + zs))


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
    n = hx.cols
    k = n - hx.rank() - hz.rank()
    lx = _coset_reps(hz, hx, k)  # commute with Z checks, mod X stabilizers
    lz = _coset_reps(hx, hz, k)
    if k:
        # re-pair so the logical bases are mutually dual
        pairing = lx @ lz.T  # k x k, invertible by nondegeneracy
        lz = pairing.right_inverse().T @ lz
    return CssCode(hx=hx, hz=hz, lx=lx, lz=lz)


def _coset_reps(h_commute: F2Matrix, h_mod: F2Matrix, k: int) -> F2Matrix:
    if k == 0:
        return F2Matrix(0, h_commute.cols)
    kernel = h_commute.kernel_basis()
    picks = independent_rows(h_mod, kernel)
    assert len(picks) == k
    return F2Matrix.from_dense(kernel.to_dense()[picks])


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
    h, logicals, n = code.h.to_dense(), code.logicals.to_dense(), code.n
    for w in range(1, max_weight + 1):
        # one row per choice of X, Z or Y on each qubit of the support
        types = np.array(list(itertools.product((1, 2, 3), repeat=w)), np.uint8)
        for support in itertools.combinations(range(n), w):
            v = np.zeros((len(types), 2 * n), dtype=np.uint8)
            v[:, support] = types & 1
            v[:, np.add(support, n)] = types >> 1
            commuting = v[~symplectic_product(v, h).any(axis=1)]
            if symplectic_product(commuting, logicals).any():
                return w
    raise DistanceUnknown(max_weight)


def css_distance(css: CssCode, max_weight: int | None = None) -> float:
    """min(d_X, d_Z) via pure-type search; inf when k = 0."""
    if css.k == 0:
        return math.inf
    if css.n > 24:
        raise CapacityExceeded("pure-type distance search limited to n <= 24")
    cap = max_weight if max_weight is not None else css.n
    dx = _pure_distance(css.hz, css.hx, css.n, cap)
    dz = _pure_distance(css.hx, css.hz, css.n, cap)
    if dx is None or dz is None:
        raise DistanceUnknown(cap)
    return min(dx, dz)


def _pure_distance(h_commute, h_mod, n, max_weight):
    hc = h_commute.to_dense().astype(np.int64)
    # rowspace(h_mod) is the orthogonal complement of ker(h_mod)
    dual = h_mod.kernel_basis()
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            v = np.zeros(n, dtype=np.uint8)
            v[list(support)] = 1
            if hc.size and (hc @ v % 2).any():
                continue
            if dual.matvec(v).any():
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
