"""Chain complexes over F2 and the hypergraph product construction.

A complex is a descending sequence of spaces C_l -> ... -> C_0 whose
boundary maps compose to zero.  CSS codes sit inside as the length-2
segment with boundary_2 = Hz^T and boundary_1 = Hx, which makes the
orthogonality requirement exactly the composition rule.  The tensor
product of two length-1 complexes yields the hypergraph product code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import LinearCode, distance as classical_distance
from .errors import NotAComplex
from .f2 import F2Matrix, check_dense, hstack, kron
from .quantum import CssCode, css_code


@dataclass(frozen=True)
class ChainComplex:
    """Spaces and boundary maps, both stored highest index first.

    spaces[j] is the dimension of C_{l-j}; boundaries[j] is the map
    boundary_{l-j}: C_{l-j} -> C_{l-j-1}, so there is one fewer map
    than there are spaces.
    """

    spaces: tuple[int, ...]
    boundaries: tuple[F2Matrix, ...]

    @property
    def length(self) -> int:
        return len(self.spaces) - 1

    def dim(self, i: int) -> int:
        if not 0 <= i <= self.length:
            raise IndexError(f"no space C_{i} in a length-{self.length} complex")
        return self.spaces[self.length - i]

    def boundary(self, i: int) -> F2Matrix:
        if not 1 <= i <= self.length:
            raise IndexError(f"no boundary map at index {i}")
        return self.boundaries[self.length - i]

    def __repr__(self) -> str:
        return f"ChainComplex(spaces={list(self.spaces)})"


def chain_complex(boundaries) -> ChainComplex:
    """Assemble a complex from [boundary_l, ..., boundary_1].

    Shapes must chain (cols of one map = rows of the next-higher one);
    composition to zero is checked separately by validate.
    """
    boundaries = tuple(boundaries)
    if not boundaries:
        raise ValueError("need at least one boundary map")
    for j in range(len(boundaries) - 1):
        if boundaries[j].rows != boundaries[j + 1].cols:
            raise ValueError("boundary map shapes do not chain")
    spaces = (boundaries[0].cols,) + tuple(b.rows for b in boundaries)
    return ChainComplex(spaces=spaces, boundaries=boundaries)


def validate(complex_: ChainComplex) -> bool:
    """Check boundary_i @ boundary_{i+1} = 0 for every adjacent pair."""
    for i in range(1, complex_.length):
        prod = complex_.boundary(i) @ complex_.boundary(i + 1)
        if not prod.is_zero():
            raise NotAComplex(i)
    return True


def homology_dimension(complex_: ChainComplex, i: int) -> int:
    """dim ker boundary_i minus rank boundary_{i+1} (zero maps at the ends)."""
    n_i = complex_.dim(i)
    kernel_dim = n_i - (complex_.boundary(i).rank() if i >= 1 else 0)
    image_rank = (
        complex_.boundary(i + 1).rank() if i + 1 <= complex_.length else 0
    )
    return kernel_dim - image_rank


# -- CSS correspondence -----------------------------------------------------


def from_css(code: CssCode) -> ChainComplex:
    """Length-2 complex with boundary_2 = Hz^T and boundary_1 = Hx."""
    return chain_complex([code.hz.T, code.hx])


def to_css(complex_: ChainComplex, i: int) -> CssCode:
    """CSS code on the qubit space C_i, taking hz = boundary_{i+1}^T."""
    if not 1 <= i <= complex_.length - 1:
        raise IndexError(f"index {i} has no boundary maps on both sides")
    upper = complex_.boundary(i + 1)
    lower = complex_.boundary(i)
    if not (lower @ upper).is_zero():
        raise NotAComplex(i)
    return css_code(hx=lower, hz=upper.T)


# -- hypergraph product -----------------------------------------------------


def hypergraph_product(a: LinearCode, b: LinearCode) -> CssCode:
    """CSS code from the product of two parity-check complexes.

    Qubits are the block A1 (x) B0 followed by A0 (x) B1 (bit spaces A1,
    B1; check spaces A0, B0), row-major inside each Kronecker factor.
    The identity block sizes are the unique dimensionally consistent
    choice for that ordering.
    """
    ha, hb = a.h, b.h
    na, ma = ha.cols, ha.rows
    nb, mb = hb.cols, hb.rows
    check_dense(ma * mb + na * nb, na * mb + ma * nb, "the hypergraph product's hx and hz")
    hx = hstack([kron(ha, F2Matrix.identity(mb)), kron(F2Matrix.identity(ma), hb)])
    hz = hstack([kron(F2Matrix.identity(na), hb.T), kron(ha.T, F2Matrix.identity(nb))])
    return css_code(hx, hz)


def hgp_parameters(a: LinearCode, b: LinearCode) -> tuple[int, int, float]:
    """Predicted (n, k, d) of the hypergraph product, without building it.

    The distance is the least constituent distance over the sectors
    ker A (x) ker B^T and ker A^T (x) ker B that hold a logical; inf
    when the product k is zero.
    """
    from .classical import transpose_code

    at, bt = transpose_code(a), transpose_code(b)
    n = a.n * bt.n + at.n * b.n
    k = a.k * bt.k + at.k * b.k
    if k == 0:
        return n, 0, math.inf
    d = min(classical_distance(c)
            for x, y in ((a, bt), (at, b)) if x.k * y.k for c in (x, y))
    return n, k, d


def surface_code(side: int) -> CssCode:
    """Hypergraph product of a length-L repetition code with its transpose.

    Parameters come out as [[L^2 + (L-1)^2, 1, L]].
    """
    from .classical import repetition, transpose_code

    if side < 2:
        raise ValueError("surface code needs side length >= 2")
    rep = repetition(side)
    return hypergraph_product(rep, transpose_code(rep))

