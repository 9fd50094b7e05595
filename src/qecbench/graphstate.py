"""Sign-tracking stabilizer tableau, graph states, and foliation.

The tableau (after Aaronson and Gottesman) keeps stabilizer generators
with their signs, one destabilizer per generator, and optionally
tracked logical operators evolving in the Heisenberg picture.  The
destabilizers pair with the stabilizers symplectically and commute
with everything else, so a deterministic measurement outcome reduces
to a destabilizer-indexed product of stabilizers; they are built here,
by one right_inverse, because nothing else reads them.  Products and
commutation tests call ``pauli``, except ``_rowsum``, a batched
two-row product for random measurements.  Foliation
stacks the Z- and X-Tanner graph states of a CSS code in alternating
layers; detectors fall out as the pure-X stabilizer products, i.e.
the F2 kernel of the graph adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoRightInverse, NotAbelian, StateError
from .f2 import F2Matrix, check_dense, independent_rows
from .pauli import PauliOperator, product, swap_halves, symplectic_product
from .quantum import CssCode


def _rowsum(rows, p, picks, pivot) -> None:
    """Aaronson and Gottesman's rowsum, batched: row_i <- row_i row_pivot
    for every i in picks, with the phase rule of ``pauli.product``."""
    n = rows.shape[1] // 2
    a, b = rows[picks], rows[pivot]
    ab = a ^ b
    # per qubit: Y letters of a and b, the Z-past-X swaps, less the Y
    # letters of the product; uint8 wraps modulo 256, keeping it mod 4
    g = ((a[:, :n] & a[:, n:]) + (b[:n] & b[n:]) + 2 * (a[:, n:] & b[:n])
         - (ab[:, :n] & ab[:, n:]))
    p[picks] = (p[picks] + p[pivot] + g.sum(axis=1, dtype=np.uint8)) % 4
    rows[picks] = ab


def _qubit_indices(qubits, n: int) -> list[int]:
    """Ints in range(n), else ValueError (non-integer) or IndexError."""
    for q in qubits:
        if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
            raise ValueError(f"qubit index {q!r} is not an integer")
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range")
    return [int(q) for q in qubits]


def _operator(m: PauliOperator, n: int, hermitian: bool = True) -> np.ndarray:
    """Symplectic row of m; ValueError unless m acts on n qubits and,
    when ``hermitian``, has a real sign."""
    if m.n != n:
        raise ValueError(f"operator acts on {m.n} qubits, the tableau on {n}")
    if hermitian and m.phase % 2:
        raise ValueError("operator must be Hermitian (real sign)")
    return m.bsr()


def _destabilizers(s: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Symplectic rows d_j pairing with stabilizer row s_j alone.

    The d_j commute with each other and with every row of l.  One right
    inverse of [s; l_ind] Lambda, with l_ind an independent subset of
    l, gives rows D0 with the right pairings; adding the stabilizers
    picked by the strict upper triangle of D0 Lambda D0^T makes them
    commute and keeps every pairing with s and l.  Raises
    NoRightInverse when the rows of s are dependent or a product of
    rows of l lies in span(s).
    """
    lm = F2Matrix.from_dense(l)
    l_ind = l[independent_rows(F2Matrix(0, lm.cols), lm)]
    a = F2Matrix.from_dense(np.concatenate([s, l_ind]))
    d0 = swap_halves(a).right_inverse().to_dense().T[: len(s)]
    upper = F2Matrix.from_dense(np.triu(symplectic_product(d0, d0), 1))
    return d0 ^ (upper @ F2Matrix.from_dense(s)).to_dense()


class Tableau:
    """Mutable stabilizer state with signs and tracked logicals.

    One array of binary symplectic rows (x | z) holds the r stabilizers
    (rows 0..r-1), their destabilizers (rows r..2r-1) and the tracked
    logicals (the rest), next to a vector of phases (powers of i).
    Destabilizer signs are never read.
    """

    def __init__(self, stabilizers, tracked_logicals=(), n=None):
        stabs = list(stabilizers)
        logicals = list(tracked_logicals)
        if n is None:
            if not stabs:
                raise ValueError("need qubit count for a stabilizer-free tableau")
            n = stabs[0].n
        s, l = (np.reshape([_operator(p, n) for p in ops], (len(ops), 2 * n))
                .astype(np.uint8) for ops in (stabs, logicals))
        if symplectic_product(s, s).any():
            raise NotAbelian("stabilizer rows must pairwise commute")
        if symplectic_product(l, s).any():
            raise ValueError("tracked logicals must commute with stabilizers")
        try:
            d = _destabilizers(s, l)
        except NoRightInverse:
            raise ValueError(
                "stabilizer rows must be independent, and no product of "
                "tracked logicals may lie in the stabilizer group"
            ) from None
        phases = [p.phase for p in stabs] + [0] * len(stabs) + [
            p.phase for p in logicals]
        self.n, self._r = n, len(stabs)
        self._rows = np.concatenate([s, d, l])
        self._p = np.array(phases, dtype=np.int64)

    @classmethod
    def _from_rows(cls, r, rows, p):
        t = object.__new__(cls)
        t.n, t._r, t._rows, t._p = rows.shape[1] // 2, r, rows, p
        return t

    # -- views ----------------------------------------------------------

    @property
    def n_stabilizers(self) -> int:
        return self._r

    def stabilizer(self, i: int) -> PauliOperator:
        return self._row(range(self._r)[i])

    def tracked(self, i: int) -> PauliOperator:
        return self._row(range(2 * self._r, len(self._rows))[i])

    def _row(self, i: int) -> PauliOperator:
        n = self.n
        return PauliOperator(self._rows[i, :n], self._rows[i, n:],
                             int(self._p[i]))

    @property
    def n_tracked(self) -> int:
        return self._rows.shape[0] - 2 * self._r

    def reduce_tracked(self, i: int, support) -> PauliOperator:
        """Equivalent representative of tracked(i) inside ``support``.

        Multiplies by stabilizers to clear the complement, which is how
        a teleported logical is read off its destination qubits.  Raises
        NoSolution when no stabilizer product does the job.
        """
        keep = np.zeros(self.n, dtype=bool)
        keep[_qubit_indices(list(support), self.n)] = True
        drop = np.nonzero(~keep)[0]
        cols = np.concatenate([drop, drop + self.n])
        system = F2Matrix.from_dense(self._rows[: self._r, cols].T)
        row = range(2 * self._r, len(self._rows))[i]
        combo = system.solve_columns(range(self._r), self._rows[row, cols])
        picks = np.concatenate([[row], np.nonzero(combo)[0]])
        row, phase = product(self._rows[picks], self._p[picks])
        return PauliOperator(row[: self.n], row[self.n :], phase)

    def copy(self) -> "Tableau":
        return Tableau._from_rows(self._r, self._rows.copy(), self._p.copy())

    def __repr__(self) -> str:
        return (
            f"Tableau(n={self.n}, stabilizers={self.n_stabilizers}, "
            f"tracked={self.n_tracked})"
        )

    # -- Clifford conjugation --------------------------------------------

    def apply_clifford(self, gate: str, qubits) -> "Tableau":
        qs = _qubit_indices(np.atleast_1d(qubits), self.n)
        if len(set(qs)) != len(qs):
            raise ValueError("qubit indices must be distinct")
        expect = {"H": 1, "S": 1, "CX": 2, "CZ": 2}
        if gate not in expect:
            raise ValueError(f"unknown gate {gate!r}")
        if len(qs) != expect[gate]:
            raise ValueError(f"{gate} acts on {expect[gate]} qubit(s)")
        _conjugate(gate, qs, self._rows[:, : self.n], self._rows[:, self.n :],
                   self._p)
        return self

    def apply_pauli(self, p: PauliOperator) -> "Tableau":
        """Inject a Pauli fault: flip the sign of anticommuting rows."""
        flips = symplectic_product(self._rows, _operator(p, self.n, False)) == 1
        self._p[flips] = (self._p[flips] + 2) % 4
        return self

    # -- measurement ------------------------------------------------------

    def deterministic_outcome(self, m: PauliOperator):
        """Measurement outcome of m if it is fixed by the state, else None."""
        v, r = _operator(m, self.n), self._r
        picks = np.nonzero(symplectic_product(self._rows[r : 2 * r], v))[0]
        row, phase = product(self._rows[picks], self._p[picks])
        if not np.array_equal(row, v):
            return None
        return 1 if (phase - m.phase) % 4 == 0 else -1

    def measure_pauli(self, m: PauliOperator, rng: np.random.Generator):
        """Measure a Hermitian Pauli; returns (outcome, self)."""
        v = _operator(m, self.n)
        if not v.any():
            raise ValueError("measurement operator must be nontrivial")
        r, rows = self._r, self._rows
        anti = symplectic_product(rows, v) == 1
        if anti[:r].any():
            pivot = int(np.nonzero(anti[:r])[0][0])
            anti[pivot] = False
            # every other anticommuting row absorbs the pivot stabilizer
            _rowsum(rows, self._p, np.nonzero(anti)[0], pivot)
            outcome = 1 if int(rng.integers(2)) == 0 else -1
            rows[r + pivot] = rows[pivot]
            rows[pivot] = v
            self._p[pivot] = (m.phase + (0 if outcome == 1 else 2)) % 4
            return outcome, self

        sign = self.deterministic_outcome(m)
        if sign is not None:
            return sign, self
        # m is independent of the group; measuring it would destroy any
        # tracked logical it fails to commute with
        if anti[2 * r :].any():
            raise StateError(
                "measurement outcome is random and disturbs a tracked logical"
            )
        s = np.concatenate([rows[:r], v[None, :]])
        try:
            d = _destabilizers(s, rows[2 * r :])
        except NoRightInverse:
            raise StateError(
                "measured operator is a product of stabilizers and tracked "
                "logicals outside the stabilizer group"
            ) from None
        outcome = 1 if int(rng.integers(2)) == 0 else -1
        sign_phase = (m.phase + (0 if outcome == 1 else 2)) % 4
        self._r, self._rows = r + 1, np.concatenate([s, d, rows[2 * r :]])
        self._p = np.insert(self._p, [r, 2 * r], [sign_phase, 0])
        return outcome, self


def _conjugate(gate: str, qs, x, z, p) -> None:
    if gate == "H":
        q = qs[0]
        flip = x[:, q] & z[:, q]
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif gate == "S":
        q = qs[0]
        flip = x[:, q] & z[:, q]
        z[:, q] ^= x[:, q]
    elif gate == "CX":
        c, t = qs
        flip = x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1)
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    else:  # CZ
        a, b = qs
        flip = x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    p[flip.astype(bool)] = (p[flip.astype(bool)] + 2) % 4


# -- graph states -------------------------------------------------------------


def graph_state(adjacency) -> Tableau:
    """Tableau of |G> with stabilizers S_v = X_v prod_{u~v} Z_u.

    The destabilizers are simply Z_v; all signs start at +1.
    """
    if isinstance(adjacency, F2Matrix):
        a = adjacency.to_dense()
    else:
        a = np.asarray(adjacency, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if (a > 1).any():
        raise ValueError("multi-edges are not allowed")
    if np.diag(a).any():
        raise ValueError("self-loops are not allowed")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency matrix must be symmetric")
    n = a.shape[0]
    eye = np.eye(n, dtype=np.uint8)
    return Tableau._from_rows(n, np.block([[eye, a], [0 * eye, eye]]),
                              np.zeros(2 * n, dtype=np.int64))


# -- MBQC primitives ---------------------------------------------------------


def _require_plus(t: Tableau, qubit: int) -> None:
    if t.deterministic_outcome(PauliOperator.single(t.n, qubit, "X")) != 1:
        raise StateError(f"qubit {qubit} is not stabilized by +X")


def teleport_one_bit(t: Tableau, data: int, fresh: int,
                     rng: np.random.Generator):
    """CZ(data, fresh) then X measurement on data; returns (m, t).

    Tracked logicals on the data qubit end up H-conjugated on the
    fresh qubit, with an X^m frame from the outcome.
    """
    _require_plus(t, fresh)
    t.apply_clifford("CZ", (data, fresh))
    outcome, _ = t.measure_pauli(PauliOperator.single(t.n, data, "X"), rng)
    return outcome, t


# -- foliation ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FoliatedState:
    """Layered graph state of a CSS code plus fault bookkeeping labels."""

    code: CssCode
    layers: int
    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    layer_of: tuple[int, ...]
    kind_of: tuple[str, ...]          # "code" | "ancilla"
    parity: tuple[str, ...]           # "primal" | "dual"
    logical_supports: tuple[frozenset, ...]
    adjacency: F2Matrix
    kernel: F2Matrix                  # basis of ker(adjacency): pure-X products

    def predicted_parity(self, support) -> int:
        """Sign of the pure-X stabilizer product over a vertex set.

        The graph-state stabilizer of vertex v is X_v times Z on its
        neighbours, with sign +1.
        """
        n, vs = self.n_vertices, sorted(support)
        rows = np.hstack([np.eye(n, dtype=np.uint8)[vs],
                          self.adjacency.to_dense()[vs]])
        row, phase = product(rows, 0)
        if row[n:].any() or not np.array_equal(row[:n], _indicator(support, n)):
            raise ValueError("vertex set is not a pure-X stabilizer product")
        return 1 if phase == 0 else -1

    def __repr__(self) -> str:
        return (
            f"FoliatedState(n={self.code.n}, layers={self.layers}, "
            f"vertices={self.n_vertices})"
        )


def _indicator(support, n) -> np.ndarray:
    v = np.zeros(n, dtype=np.uint8)
    v[sorted(support)] = 1
    return v


def foliate(code: CssCode, layers: int) -> FoliatedState:
    """Alternate G_Z / G_X Tanner graph states with inter-layer links.

    Even layers carry the Z-check ancillas, odd layers the X-check
    ancillas; code qubits of adjacent layers share one edge.  Code
    qubits in G_Z layers and ancillas in G_X layers are primal.
    """
    if layers < 1:
        raise ValueError("need at least one layer")
    n = code.n
    total = layers * n + (layers + 1) // 2 * code.hz.rows + layers // 2 * code.hx.rows
    check_dense(total, total, f"a foliation of {total} vertices")  # its adjacency matrix
    offsets, kinds, layer_ids, parities = [], [], [], []
    for layer in range(layers):
        offsets.append(len(kinds))
        checks = code.hz if layer % 2 == 0 else code.hx
        z_layer = layer % 2 == 0
        kinds.extend(["code"] * n + ["ancilla"] * checks.rows)
        layer_ids.extend([layer] * (n + checks.rows))
        parities.extend(
            ["primal" if z_layer else "dual"] * n
            + ["dual" if z_layer else "primal"] * checks.rows
        )
    edges = []
    for layer in range(layers):
        base = offsets[layer]
        checks = code.hz if layer % 2 == 0 else code.hx
        dense = checks.to_dense()
        for j, i in zip(*np.nonzero(dense)):
            edges.append((base + n + int(j), base + int(i)))
        if layer + 1 < layers:
            for i in range(n):
                edges.append((base + i, offsets[layer + 1] + i))
    adj = np.zeros((total, total), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    adjacency = F2Matrix.from_dense(adj)
    kernel = adjacency.kernel_basis()
    supports = _logical_supports(code, kernel, offsets[0], n)
    return FoliatedState(
        code=code,
        layers=layers,
        n_vertices=total,
        edges=tuple((min(u, v), max(u, v)) for u, v in edges),
        layer_of=tuple(layer_ids),
        kind_of=tuple(kinds),
        parity=tuple(parities),
        logical_supports=supports,
        adjacency=adjacency,
        kernel=kernel,
    )


def _logical_supports(code, kernel, first_base, n):
    """Kernel elements restricting to each X-logical on the first layer,
    from one coset_transform pass of the restricted system over every
    logical; a logical whose column of below is nonzero has none."""
    if kernel.rows == 0:
        return ()
    dense = kernel.to_dense()
    restricted = F2Matrix.from_dense(dense[:, first_base : first_base + n].T)
    _, _, _, combos, below = restricted.coset_transform(code.lx.to_dense().T)
    solved = ~below.any(axis=0)
    return tuple(frozenset(np.flatnonzero(v).tolist()) for v in combos.T[solved] @ dense & 1)


def detectors(state: FoliatedState) -> list[frozenset]:
    """Basis of deterministic X-parities beyond the logical readouts.

    Every kernel element of the adjacency matrix corresponds to a
    stabilizer product that is pure X, hence a parity of measurement
    outcomes fixed by the state; the logical supports span the part
    that carries encoded information, the rest are checks.
    """
    kernel, n = state.kernel, state.n_vertices
    logicals = F2Matrix.from_dense(
        np.reshape([_indicator(s, n) for s in state.logical_supports], (-1, n)))
    dense = kernel.to_dense()
    return [frozenset(int(v) for v in np.nonzero(dense[i])[0])
            for i in independent_rows(logicals, kernel)]

