"""Noise channels, priors, and decoder-facing problem assembly.

Bit-level channels (BSC, erasure, AWGN) produce samples or soft
information; the depolarizing channel produces Pauli errors.  A
DecodingProblem bundles the check matrix, the logical-correlation
matrix, and the per-fault prior in one immutable object, including the
three-column-block X/Z/Y layout where a Y fault hits both check types.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import LinearCode, encoding_matrix
from .f2 import F2Matrix, hstack, read_alist, vstack, write_alist
from .pauli import PauliOperator
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

    @property
    def llr(self) -> np.ndarray:
        """log((1-p)/p) per fault; +inf where p = 0, 0 where p = 1/2."""
        with np.errstate(divide="ignore"):
            return np.log1p(-self.p) - np.log(self.p)


def uniform_prior(n: int, p: float) -> Prior:
    return Prior(np.full(n, p))


@dataclass(frozen=True, eq=False)
class DecodingProblem:
    """Checks H, logical correlations L, and a prior over the faults."""

    h: F2Matrix
    l: F2Matrix
    prior: Prior
    undetectable: np.ndarray  # flags the all-zero columns of H

    def __repr__(self) -> str:
        return (
            f"DecodingProblem(checks={self.h.rows}, faults={self.h.cols}, "
            f"logicals={self.l.rows})"
        )


def decoding_problem(h: F2Matrix, l: F2Matrix, prior: Prior) -> DecodingProblem:
    if not (h.cols == l.cols == len(prior)):
        raise ValueError("H, L, and prior must agree on the fault count")
    column_weights = h.to_dense().sum(axis=0) if h.rows else np.zeros(h.cols)
    undetectable = column_weights == 0
    undetectable.flags.writeable = False
    return DecodingProblem(h=h, l=l, prior=prior, undetectable=undetectable)


def error_probability(e: np.ndarray, prior: Prior) -> float:
    """prod (1-p_i)^(1-e_i) p_i^e_i, evaluated in the log domain."""
    e = np.asarray(e, dtype=np.uint8) & 1
    p = prior.p
    if e.shape != p.shape:
        raise ValueError("error and prior lengths differ")
    hit = e == 1
    if np.any(p[hit] == 0.0):
        return 0.0
    with np.errstate(divide="ignore"):
        log_terms = np.where(hit, np.log(p), np.log1p(-p))
    return float(math.exp(log_terms.sum()))


# -- bit-level channels ------------------------------------------------------


def sample_bsc(prior: Prior, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli(p_i) flip pattern."""
    return (rng.random(len(prior)) < prior.p).astype(np.uint8)


def sample_erasure(p_e: float, n: int, rng: np.random.Generator,
                   base: Prior | None = None) -> tuple[np.ndarray, Prior]:
    """Erase each position with probability p_e.

    Erased positions get prior 1/2 (zero LLR, complete uncertainty);
    the rest keep the base channel prior (default: error-free).
    """
    if base is None:
        base = uniform_prior(n, 0.0)
    if len(base) != n:
        raise ValueError("base prior length differs from n")
    flags = (rng.random(n) < p_e).astype(np.uint8)
    adjusted = np.where(flags == 1, 0.5, base.p)
    return flags, Prior(adjusted)


def sample_awgn(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Per-bit LLRs 2y/sigma^2 for the received y = x + N(0, sigma^2)."""
    if sigma <= 0:
        raise ValueError("need sigma > 0")
    x = np.asarray(x, dtype=np.float64)
    y = x + rng.normal(0.0, sigma, x.shape)
    return 2.0 * y / sigma**2


# -- depolarizing channel ----------------------------------------------------


def sample_depolarizing(n: int, p: float, rng: np.random.Generator) -> PauliOperator:
    """Per qubit: identity with prob 1-p, else X, Y, or Z uniformly."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("need 0 <= p <= 1")
    hit = rng.random(n) < p
    kind = rng.integers(0, 3, n)  # 0 -> X, 1 -> Z, 2 -> Y
    x = (hit & (kind != 1)).astype(np.uint8)
    z = (hit & (kind != 0)).astype(np.uint8)
    return PauliOperator(x, z, 0)


def sample_depolarizing2(p: float, rng: np.random.Generator) -> PauliOperator:
    """Two-qubit channel: identity with prob 1-p, else one of 15 uniformly."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("need 0 <= p <= 1")
    if rng.random() >= p:
        return PauliOperator.identity(2)
    idx = int(rng.integers(1, 16))
    codes = np.array([idx & 3, (idx >> 2) & 3], dtype=np.uint8)
    return PauliOperator(codes & 1, codes >> 1, 0)


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


def depolarizing_fault_vector(error: PauliOperator) -> np.ndarray:
    """Indicator over the X/Z/Y fault columns of the "xzy" layout."""
    x, z = error.x, error.z
    return np.concatenate([x & ~z, z & ~x, x & z]).astype(np.uint8)


def classical_problem(code: LinearCode, p: float) -> DecodingProblem:
    """BSC decoding problem whose logicals are the information bits."""
    enc = encoding_matrix(code)
    dense = enc.v_inv.to_dense()[:, : code.k].T
    l = F2Matrix.from_dense(dense)
    return decoding_problem(code.h, l, uniform_prior(code.n, p))


# -- serialization -----------------------------------------------------------


def save_problem(problem: DecodingProblem, json_path) -> None:
    """JSON descriptor with sibling alist files for H, L and a prior CSV."""
    json_path = Path(json_path)
    h_path = json_path.with_suffix(".h.alist")
    l_path = json_path.with_suffix(".l.alist")
    p_path = json_path.with_suffix(".prior.csv")
    write_alist(problem.h, h_path)
    write_alist(problem.l, l_path)
    np.savetxt(p_path, problem.prior.p, fmt="%.17g")
    doc = {"H": h_path.name, "L": l_path.name, "prior": p_path.name}
    json_path.write_text(json.dumps(doc, indent=2) + "\n")


def load_problem(json_path) -> DecodingProblem:
    json_path = Path(json_path)
    doc = json.loads(json_path.read_text())
    if not (isinstance(doc, dict)
            and all(isinstance(doc.get(key), str) for key in ("H", "L", "prior"))):
        raise ValueError(f"{json_path}: a problem descriptor needs file names"
                         " under 'H', 'L' and 'prior'")
    h = read_alist(json_path.parent / doc["H"])
    l = read_alist(json_path.parent / doc["L"])
    p = np.loadtxt(json_path.parent / doc["prior"], ndmin=1)
    return decoding_problem(h, l, Prior(p))
