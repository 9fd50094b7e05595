"""Noise channels, priors, and decoder-facing problem assembly.

The binary symmetric channel flips bits; the depolarizing channel
produces Pauli errors.  A DecodingProblem bundles the check matrix,
the logical-correlation matrix, and the per-fault prior in one
immutable object, including the three-column-block X/Z/Y layout where
a Y fault hits both check types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import LinearCode, encoding_matrix
from .f2 import F2Matrix, SparseRows, hstack, vstack
from .quantum import CssCode


@dataclass(frozen=True, eq=False)
class Prior:
    """Independent per-fault error probabilities, each in [0, 1/2]."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("prior must be a flat probability vector")
        if not np.all((arr >= 0.0) & (arr <= 0.5)):  # also refuses NaN
            raise ValueError("fault probabilities must lie in [0, 0.5]")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    def __len__(self) -> int:
        return self.p.size

    @cached_property
    def llr(self) -> np.ndarray:
        """log((1-p)/p) per fault; +inf where p = 0, 0 where p = 1/2.  Read-only."""
        with np.errstate(divide="ignore"):
            llr = np.log1p(-self.p) - np.log(self.p)
        llr.flags.writeable = False
        return llr


def uniform_prior(n: int, p: float) -> Prior:
    return Prior(np.full(n, p))


class Answers(dict):
    """Decoder answers stored by decoders.memo; nbytes sums their syndrome
    bytes and answer arrays.  bp holds the BP answers of the problem's last
    decoders.bp_prefetch call, apart: each call replaces it, none mutates it."""

    nbytes, bp = 0, {}


@dataclass(frozen=True, eq=False)
class DecodingProblem:
    """Checks H, logical correlations L, and a prior over the faults."""

    h: F2Matrix
    l: F2Matrix
    prior: Prior

    @cached_property
    def tanner(self) -> SparseRows:
        """Edge list of H, built on first use: BP's graph."""
        return SparseRows(self.h)

    @cached_property
    def tanner_hl(self) -> SparseRows:
        """Edge list of [H; L]: a syndrome and a logical class in one parity."""
        return SparseRows(vstack([self.h, self.l]))

    @cached_property
    def answers(self) -> Answers:
        """Decoder answers by key, filled on first use (decoders.memo)."""
        return Answers()

    @cached_property
    def cosets(self) -> dict:
        """The coset span and MLD's weights, built on first use (decoders)."""
        return {}

    def __repr__(self) -> str:
        return (
            f"DecodingProblem(checks={self.h.rows}, faults={self.h.cols}, "
            f"logicals={self.l.rows})"
        )


def decoding_problem(h: F2Matrix, l: F2Matrix, prior: Prior) -> DecodingProblem:
    if not (h.cols == l.cols == len(prior)):
        raise ValueError("H, L, and prior must agree on the fault count")
    return DecodingProblem(h=h, l=l, prior=prior)


# -- bit-level channels ------------------------------------------------------


def flips(u: np.ndarray, p) -> np.ndarray:
    """Bernoulli(p) flips, as uint8, from uniforms u over (..., n) arrays."""
    return (u < p).view(np.uint8)


# -- depolarizing channel ----------------------------------------------------


def pauli_flips(u: np.ndarray, kind: np.ndarray, p: float):
    """(x, z) uint8 bits over (..., n) arrays: a qubit is hit where u < p,
    with X, Z or Y for kind 0, 1 or 2."""
    hit = u < p
    return (hit & (kind != 1)).view(np.uint8), (hit & (kind != 0)).view(np.uint8)


def depolarizing_problem(code: CssCode, p: float, mode: str = "xzy"):
    """Check/logical matrices for depolarizing noise on a CSS code.

    "xzy" mode keeps Y as its own fault column so its O(p) probability
    is represented faithfully: fault columns are the X, Z, and Y blocks
    and each Y column is the XOR of the matching X and Z columns.
    "split-xz" returns two independent problems (Z faults against the
    X-type checks, then X faults against the Z-type checks); each fault
    carries prior 2p/3 since Y contributes to both sides.
    """
    n = code.n
    zeros_x = F2Matrix(code.hz.rows, n)
    zeros_z = F2Matrix(code.hx.rows, n)
    if mode == "xzy":
        h = vstack([
            hstack([code.hz, zeros_x, code.hz]),
            hstack([zeros_z, code.hx, code.hx]),
        ])
        zeros_k = F2Matrix(code.k, n)
        l = vstack([
            hstack([zeros_k, code.lx, code.lx]),
            hstack([code.lz, zeros_k, code.lz]),
        ])
        return decoding_problem(h, l, uniform_prior(3 * n, p / 3.0))
    if mode == "split-xz":
        prior = uniform_prior(n, 2.0 * p / 3.0)
        z_faults = decoding_problem(code.hx, code.lx, prior)
        x_faults = decoding_problem(code.hz, code.lz, prior)
        return z_faults, x_faults
    raise ValueError(f"unknown mode {mode!r}")


def depolarizing_fault_vector(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Indicator over the X/Z/Y fault columns of the "xzy" layout, from the
    uint8 x and z bits of a Pauli error: (..., n) arrays give (..., 3n)."""
    y = x & z
    return np.concatenate([x ^ y, z ^ y, y], axis=-1)


def classical_problem(code: LinearCode, p: float) -> DecodingProblem:
    """BSC decoding problem whose logicals are the information bits."""
    enc = encoding_matrix(code)
    dense = enc.v_inv.to_dense()[:, : code.k].T
    l = F2Matrix.from_dense(dense)
    return decoding_problem(code.h, l, uniform_prior(code.n, p))

