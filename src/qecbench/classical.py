"""Binary linear codes, Tanner graphs, and encoding matrices.

A code is the null space {c : H c = 0} of its parity-check matrix.
The encoding matrix V stacks a generator on top of the transposed
right inverse of H, so any word splits as v^T V^{-1} = (logical :
syndrome); the syndrome half always equals H v.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityExceeded
from .f2 import F2Matrix, read_alist, span_blocks, vstack, write_alist

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
    """Invertible V = (G ; R^T) with R a fixed right inverse of H."""

    v: F2Matrix
    v_inv: F2Matrix
    k: int


def encoding_matrix(code: LinearCode) -> EncodingMatrix:
    if code.h.rows == 0:
        v = code.g
    else:
        r = code.h.right_inverse()
        v = vstack([code.g, r.T])
    # V is always invertible: a dependency (a G + b R^T) = 0 hit with H^T
    # forces b = 0, then a = 0 since G has independent rows.
    v_inv = v.right_inverse()
    return EncodingMatrix(v=v, v_inv=v_inv, k=code.k)


def encode(enc: EncodingMatrix, bits: np.ndarray) -> np.ndarray:
    """Codeword (b : 0)^T V for a length-k message b."""
    bits = np.asarray(bits, dtype=np.uint8) & 1
    if bits.shape != (enc.k,):
        raise ValueError(f"expected {enc.k} message bits")
    padded = np.zeros(enc.v.rows, dtype=np.uint8)
    padded[: enc.k] = bits
    return enc.v.rmatvec(padded)


def decompose(enc: EncodingMatrix, word: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split v^T V^{-1} into (logical bits, syndrome bits)."""
    coords = enc.v_inv.rmatvec(word)
    return coords[: enc.k], coords[enc.k :]


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


# -- Tanner graph ---------------------------------------------------------


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite check/variable graph of a parity-check matrix."""

    n_variables: int
    n_checks: int
    edges: tuple[tuple[int, int], ...]  # (check, variable) pairs
    girth: float  # math.inf when the graph is a forest


def tanner_graph(h: F2Matrix) -> TannerGraph:
    dense = h.to_dense()
    edges = tuple((int(i), int(j)) for i, j in zip(*np.nonzero(dense)))
    adj: list[list[int]] = [[] for _ in range(h.rows + h.cols)]
    for i, j in edges:
        adj[i].append(h.rows + j)
        adj[h.rows + j].append(i)
    return TannerGraph(
        n_variables=h.cols, n_checks=h.rows, edges=edges, girth=_girth(adj)
    )


def _girth(adj: list[list[int]]) -> float:
    # BFS from every vertex; every shortest cycle is seen from its own
    # vertices, so the global minimum over roots is exact.
    best = math.inf
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if dist[u] * 2 >= best:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


# -- descriptors ----------------------------------------------------------


def save_code(code: LinearCode, json_path, name: str, d: float | None = None) -> None:
    """Write a JSON descriptor plus a sibling alist file for H."""
    json_path = Path(json_path)
    alist_path = json_path.with_suffix(".alist")
    write_alist(code.h, alist_path)
    doc: dict = {"name": name, "n": code.n, "k": code.k, "H": alist_path.name}
    if d is not None:
        doc["d"] = d if math.isfinite(d) else None
    json_path.write_text(json.dumps(doc, indent=2) + "\n")


def load_code(json_path) -> tuple[LinearCode, dict]:
    json_path = Path(json_path)
    doc = json.loads(json_path.read_text())
    h = read_alist(json_path.parent / doc["H"])
    code = linear_code(h)
    if code.n != doc["n"] or code.k != doc["k"]:
        raise ValueError("descriptor parameters disagree with the stored matrix")
    return code, doc
