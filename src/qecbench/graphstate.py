"""Sign-tracking stabilizer tableau, graph states, and foliation.

The tableau keeps stabilizer generators with their signs, a parallel
set of destabilizers (so deterministic measurement outcomes reduce to
a destabilizer-indexed group expansion), and optionally tracked
logical operators evolving in the Heisenberg picture.  Foliation
stacks the Z- and X-Tanner graph states of a CSS code in alternating
layers; detectors fall out as the pure-X stabilizer products, i.e.
the F2 kernel of the graph adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSolution, NotAbelian, StateError
from .f2 import F2Matrix, independent_rows
from .pauli import PauliOperator, _phase_contrib, swap_halves
from .quantum import CssCode, _destabilizers


def _mul_row(x, z, p, i, nx, nz, np_phase):
    """rows[i] <- rows[i] * N in place, with phase bookkeeping."""
    contrib = int(_phase_contrib(x[i], z[i], nx, nz).sum())
    p[i] = (p[i] + np_phase + contrib) % 4
    x[i] ^= nx
    z[i] ^= nz


def _anticommute_mask(x, z, mx, mz):
    return ((x @ mz + z @ mx) % 2).astype(bool)


class Tableau:
    """Mutable stabilizer state with signs and tracked logicals."""

    def __init__(self, stabilizers, tracked_logicals=(), n=None):
        stabs = list(stabilizers)
        logicals = list(tracked_logicals)
        if stabs:
            n = stabs[0].n
        elif n is None:
            raise ValueError("need qubit count for a stabilizer-free tableau")
        self.n = n
        for p in stabs + logicals:
            if p.n != n:
                raise ValueError("operators act on differing qubit counts")
            if p.phase % 2:
                raise ValueError("operators must be Hermitian (real sign)")
        r = len(stabs)
        self._sx = np.array([p.x for p in stabs], dtype=np.uint8).reshape(r, n)
        self._sz = np.array([p.z for p in stabs], dtype=np.uint8).reshape(r, n)
        self._sp = np.array([p.phase for p in stabs], dtype=np.int64).reshape(r)
        h = F2Matrix.from_dense(np.concatenate([self._sx, self._sz], axis=1))
        if not (swap_halves(h) @ h.T).is_zero():
            raise NotAbelian("stabilizer rows must pairwise commute")
        if h.rank() != r:
            raise ValueError("stabilizer rows must be independent")
        k = len(logicals)
        self._lx = np.array([p.x for p in logicals], dtype=np.uint8).reshape(k, n)
        self._lz = np.array([p.z for p in logicals], dtype=np.uint8).reshape(k, n)
        self._lp = np.array([p.phase for p in logicals], dtype=np.int64).reshape(k)
        for i in range(k):
            if _anticommute_mask(self._sx, self._sz, self._lx[i], self._lz[i]).any():
                raise ValueError("tracked logicals must commute with stabilizers")
        lm = F2Matrix.from_dense(np.concatenate([self._lx, self._lz], axis=1))
        destab = _destabilizers(h, lm)
        self._dx = destab.to_dense()[:, :n].astype(np.uint8)
        self._dz = destab.to_dense()[:, n:].astype(np.uint8)
        self._dp = np.zeros(r, dtype=np.int64)

    @classmethod
    def _from_arrays(cls, sx, sz, sp, dx, dz, dp, lx, lz, lp):
        t = object.__new__(cls)
        t.n = sx.shape[1]
        t._sx, t._sz, t._sp = sx, sz, sp
        t._dx, t._dz, t._dp = dx, dz, dp
        t._lx, t._lz, t._lp = lx, lz, lp
        return t

    # -- views ----------------------------------------------------------

    @property
    def n_stabilizers(self) -> int:
        return self._sx.shape[0]

    def stabilizer(self, i: int) -> PauliOperator:
        return PauliOperator(self._sx[i].copy(), self._sz[i].copy(),
                             int(self._sp[i]))

    def tracked(self, i: int) -> PauliOperator:
        return PauliOperator(self._lx[i].copy(), self._lz[i].copy(),
                             int(self._lp[i]))

    @property
    def n_tracked(self) -> int:
        return self._lx.shape[0]

    def reduce_tracked(self, i: int, support) -> PauliOperator:
        """Equivalent representative of tracked(i) inside ``support``.

        Multiplies by stabilizers to clear the complement, which is how
        a teleported logical is read off its destination qubits.  Raises
        NoSolution when no stabilizer product does the job.
        """
        keep = np.zeros(self.n, dtype=bool)
        keep[list(support)] = True
        drop = np.nonzero(~keep)[0]
        cols = np.concatenate([drop, drop + self.n])
        stab_bsr = np.concatenate([self._sx, self._sz], axis=1)
        target = np.concatenate([self._lx[i], self._lz[i]])
        system = F2Matrix.from_dense(stab_bsr[:, cols].T)
        combo = system.solve_columns(range(system.cols), target[cols])
        out = self.tracked(i)
        for j in np.nonzero(combo)[0]:
            out = out * self.stabilizer(int(j))
        return out

    def copy(self) -> "Tableau":
        return Tableau._from_arrays(
            self._sx.copy(), self._sz.copy(), self._sp.copy(),
            self._dx.copy(), self._dz.copy(), self._dp.copy(),
            self._lx.copy(), self._lz.copy(), self._lp.copy(),
        )

    def __repr__(self) -> str:
        return (
            f"Tableau(n={self.n}, stabilizers={self.n_stabilizers}, "
            f"tracked={self.n_tracked})"
        )

    # -- Clifford conjugation --------------------------------------------

    def apply_clifford(self, gate: str, qubits) -> "Tableau":
        qs = tuple(np.atleast_1d(qubits).astype(int))
        if len(set(qs)) != len(qs):
            raise ValueError("qubit indices must be distinct")
        for q in qs:
            if not 0 <= q < self.n:
                raise IndexError(f"qubit {q} out of range")
        expect = {"H": 1, "S": 1, "CX": 2, "CZ": 2}
        if gate not in expect:
            raise ValueError(f"unknown gate {gate!r}")
        if len(qs) != expect[gate]:
            raise ValueError(f"{gate} acts on {expect[gate]} qubit(s)")
        for x, z, p in (
            (self._sx, self._sz, self._sp),
            (self._dx, self._dz, self._dp),
            (self._lx, self._lz, self._lp),
        ):
            if x.shape[0]:
                _conjugate(gate, qs, x, z, p)
        return self

    def apply_pauli(self, p: PauliOperator) -> "Tableau":
        """Inject a Pauli fault: flip the sign of anticommuting rows."""
        for x, z, ph in (
            (self._sx, self._sz, self._sp),
            (self._lx, self._lz, self._lp),
        ):
            if x.shape[0]:
                flips = _anticommute_mask(x, z, p.x, p.z)
                ph[flips] = (ph[flips] + 2) % 4
        return self

    # -- measurement ------------------------------------------------------

    def deterministic_outcome(self, m: PauliOperator):
        """Measurement outcome of m if it is fixed by the state, else None."""
        picks = _anticommute_mask(self._dx, self._dz, m.x, m.z)
        x = np.zeros(self.n, dtype=np.uint8)
        z = np.zeros(self.n, dtype=np.uint8)
        p = np.array([0], dtype=np.int64)
        xs, zs = x[None, :], z[None, :]
        for i in np.nonzero(picks)[0]:
            _mul_row(xs, zs, p, 0, self._sx[i], self._sz[i], int(self._sp[i]))
        if not (np.array_equal(xs[0], m.x) and np.array_equal(zs[0], m.z)):
            return None
        return 1 if (int(p[0]) - m.phase) % 4 == 0 else -1

    def measure_pauli(self, m: PauliOperator, rng: np.random.Generator):
        """Measure a Hermitian Pauli; returns (outcome, self)."""
        if m.n != self.n:
            raise ValueError("operator size does not match the tableau")
        if m.phase % 2:
            raise ValueError("measurement operator must be Hermitian")
        if not (m.x.any() or m.z.any()):
            raise ValueError("measurement operator must be nontrivial")
        anti_s = _anticommute_mask(self._sx, self._sz, m.x, m.z)
        if anti_s.any():
            pivot = int(np.nonzero(anti_s)[0][0])
            nx = self._sx[pivot].copy()
            nz = self._sz[pivot].copy()
            nph = int(self._sp[pivot])
            anti_s[pivot] = False
            for mask, (x, z, p) in (
                (anti_s, (self._sx, self._sz, self._sp)),
                (_anticommute_mask(self._dx, self._dz, m.x, m.z),
                 (self._dx, self._dz, self._dp)),
                (_anticommute_mask(self._lx, self._lz, m.x, m.z),
                 (self._lx, self._lz, self._lp)),
            ):
                for i in np.nonzero(mask)[0]:
                    _mul_row(x, z, p, i, nx, nz, nph)
            outcome = 1 if int(rng.integers(2)) == 0 else -1
            self._dx[pivot], self._dz[pivot] = nx, nz
            self._dp[pivot] = nph
            self._sx[pivot], self._sz[pivot] = m.x.copy(), m.z.copy()
            self._sp[pivot] = (m.phase + (0 if outcome == 1 else 2)) % 4
            return outcome, self

        sign = self.deterministic_outcome(m)
        if sign is not None:
            return sign, self
        # m is independent of the group; measuring it would destroy any
        # tracked logical it fails to commute with
        if _anticommute_mask(self._lx, self._lz, m.x, m.z).any():
            raise StateError(
                "measurement outcome is random and disturbs a tracked logical"
            )
        outcome = 1 if int(rng.integers(2)) == 0 else -1
        self._extend(m, outcome)
        return outcome, self

    def _extend(self, m: PauliOperator, outcome: int) -> None:
        rows = [
            np.concatenate([self._sx, self._sz], axis=1),
            np.concatenate([m.x, m.z])[None, :],
            np.concatenate([self._dx, self._dz], axis=1),
            np.concatenate([self._lx, self._lz], axis=1),
        ]
        system = swap_halves(F2Matrix.from_dense(np.concatenate(rows, axis=0)))
        rhs = np.zeros(system.rows, dtype=np.uint8)
        rhs[self.n_stabilizers] = 1
        t = system.solve_columns(range(system.cols), rhs)
        self._sx = np.vstack([self._sx, m.x[None, :]])
        self._sz = np.vstack([self._sz, m.z[None, :]])
        self._sp = np.append(
            self._sp, (m.phase + (0 if outcome == 1 else 2)) % 4
        )
        self._dx = np.vstack([self._dx, t[None, : self.n]])
        self._dz = np.vstack([self._dz, t[None, self.n :]])
        self._dp = np.append(self._dp, 0)


def _conjugate(gate: str, qs, x, z, p) -> None:
    if gate == "H":
        q = qs[0]
        flip = x[:, q] & z[:, q]
        p[flip.astype(bool)] = (p[flip.astype(bool)] + 2) % 4
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif gate == "S":
        q = qs[0]
        flip = x[:, q] & z[:, q]
        p[flip.astype(bool)] = (p[flip.astype(bool)] + 2) % 4
        z[:, q] ^= x[:, q]
    elif gate == "CX":
        c, t = qs
        flip = x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1)
        p[flip.astype(bool)] = (p[flip.astype(bool)] + 2) % 4
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    else:  # CZ
        a, b = qs
        flip = x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
        p[flip.astype(bool)] = (p[flip.astype(bool)] + 2) % 4
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]


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
    return Tableau._from_arrays(
        sx=np.eye(n, dtype=np.uint8),
        sz=a.copy(),
        sp=np.zeros(n, dtype=np.int64),
        dx=np.zeros((n, n), dtype=np.uint8),
        dz=np.eye(n, dtype=np.uint8),
        dp=np.zeros(n, dtype=np.int64),
        lx=np.zeros((0, n), dtype=np.uint8),
        lz=np.zeros((0, n), dtype=np.uint8),
        lp=np.zeros(0, dtype=np.int64),
    )


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

    def graph_state(self) -> Tableau:
        return graph_state(self.adjacency)

    def stabilizer_of(self, v: int) -> PauliOperator:
        x = np.zeros(self.n_vertices, dtype=np.uint8)
        x[v] = 1
        return PauliOperator(x, self.adjacency.row_dense(v), 0)

    def predicted_parity(self, support) -> int:
        """Sign of the pure-X stabilizer product over a vertex set."""
        prod = PauliOperator.identity(self.n_vertices)
        for v in sorted(support):
            prod = prod * self.stabilizer_of(v)
        if prod.z.any() or not np.array_equal(
            prod.x, _indicator(support, self.n_vertices)
        ):
            raise ValueError("vertex set is not a pure-X stabilizer product")
        return prod.sign

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
    total = len(kinds)
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
    supports = _logical_supports(code, adjacency, offsets[0], n)
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
    )


def _logical_supports(code, adjacency, first_base, n):
    """Kernel elements restricting to each X-logical on the first layer."""
    kernel = adjacency.kernel_basis()
    if kernel.rows == 0:
        return ()
    restricted = kernel.to_dense()[:, first_base : first_base + n]
    system = F2Matrix.from_dense(restricted.T)
    supports = []
    for j in range(code.k):
        try:
            combo = system.solve_columns(range(kernel.rows), code.lx.row_dense(j))
        except NoSolution:
            continue
        vec = kernel.rmatvec(combo)
        supports.append(frozenset(int(v) for v in np.nonzero(vec)[0]))
    return tuple(supports)


def detectors(state: FoliatedState) -> list[frozenset]:
    """Basis of deterministic X-parities beyond the logical readouts.

    Every kernel element of the adjacency matrix corresponds to a
    stabilizer product that is pure X, hence a parity of measurement
    outcomes fixed by the state; the logical supports span the part
    that carries encoded information, the rest are checks.
    """
    kernel = state.adjacency.kernel_basis()
    n = state.n_vertices
    logicals = F2Matrix.from_dense(
        np.reshape([_indicator(s, n) for s in state.logical_supports], (-1, n)))
    dense = kernel.to_dense()
    return [frozenset(int(v) for v in np.nonzero(dense[i])[0])
            for i in independent_rows(logicals, kernel)]

