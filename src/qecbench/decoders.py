"""Belief propagation, ordered-statistics reprocessing, and oracles.

Messages live in the LLR domain: positive means "probably no fault".
The check update is the tanh-product rule (sum-product) or the scaled
minimum (min-sum) with the syndrome folded in as a sign; both take the
value over a check's other edges from one prefix/suffix scan, so
degree-1 checks and saturated messages need no division or sort.  OSD
re-solves the syndrome on the most-reliable independent column set;
order-w reprocessing sweeps low-weight patterns on the remaining
columns.  Exhaustive MWD/MLD enumerate a solution coset and serve as
oracles for everything else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityExceeded, NoSolution, Unsatisfiable
from .f2 import F2Matrix, hstack, span_blocks
from .noise import DecodingProblem

MWD_COLUMN_GUARD = 24
MLD_COLUMN_GUARD = 20
OSD_CANDIDATE_GUARD = 10**7


@dataclass(frozen=True)
class BpConfig:
    """Knobs for the message-passing loop."""

    variant: str = "sum-product"   # or "min-sum"
    max_iterations: int = 32
    min_sum_scale: float = 0.8125
    llr_clamp: float = 30.0
    early_stop: bool = True  # stop once the hard decision matches s

    def __post_init__(self):
        if self.variant not in ("sum-product", "min-sum"):
            raise ValueError(f"unknown variant {self.variant!r}")
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        # NaN fails both tests; an infinite clamp lets inf - inf reach BP
        if not 0 < self.llr_clamp < math.inf:
            raise ValueError("llr_clamp must be positive and finite")
        if not 0.0 < self.min_sum_scale <= 1.0:
            raise ValueError("min_sum_scale must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class DecodeResult:
    correction: np.ndarray
    converged: bool
    iterations_used: int
    posterior_llr: np.ndarray


def _others(rows: np.ndarray, op: np.ufunc, fill: float) -> np.ndarray:
    """op over every other slot of the same row, for every slot.

    Exclusive prefix and suffix scans along the last axis, joined with
    op; fill is op's identity and pads short rows.
    """
    pad = np.full(rows.shape[:-1] + (1,), fill)
    prefix = op.accumulate(np.concatenate([pad, rows[..., :-1]], axis=-1), axis=-1)
    suffix = op.accumulate(np.concatenate([pad, rows[..., :0:-1]], axis=-1), axis=-1)
    return op(prefix, suffix[..., ::-1])


def bp_decode(problem: DecodingProblem, s: np.ndarray, cfg: BpConfig = BpConfig()) -> DecodeResult:
    """Flooding BP on the Tanner graph of the problem's check matrix.

    Each round runs every check-to-bit update, then every bit-to-check
    update, hard-decides on the posterior sign (ties decide "no
    fault"), and tests the syndrome equation.
    """
    h = problem.h
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.shape != (h.rows,):
        raise ValueError(f"syndrome length {s.size} does not match {h.rows} checks")
    clamp = cfg.llr_clamp
    lam = np.clip(problem.prior.llr, -clamp, clamp)

    dense = h.to_dense()
    checks, vars_ = np.nonzero(dense)
    n_edges = checks.size
    if n_edges == 0:
        correction = (lam < 0).astype(np.uint8)
        converged = bool(np.array_equal(h.matvec(correction), s))
        return DecodeResult(correction, converged, 1, lam.copy())

    # pad edges into per-check rows so the extrinsic value is a
    # prefix/suffix scan along each row
    degrees = np.bincount(checks, minlength=h.rows)
    dmax = int(degrees.max())
    # np.nonzero is row-major, so a check's edges are contiguous
    edge_slot = np.arange(n_edges) - (np.cumsum(degrees) - degrees)[checks]
    edge_sign = (1.0 - 2.0 * s)[checks]

    msg_v2c = lam[vars_]
    # max_iterations >= 1, so the loop binds every name it returns
    for iterations in range(1, cfg.max_iterations + 1):
        if cfg.variant == "sum-product":
            tanh_half = np.ones((h.rows, dmax))
            tanh_half[checks, edge_slot] = np.tanh(msg_v2c / 2.0)
            extrinsic = _others(tanh_half, np.multiply, 1.0)[checks, edge_slot]
            with np.errstate(divide="ignore"):
                update = 2.0 * np.arctanh(extrinsic)
            msg_c2v = np.clip(edge_sign * update, -clamp, clamp)
        else:
            mags = np.full((h.rows, dmax), np.inf)
            mags[checks, edge_slot] = np.abs(msg_v2c)
            ext_min = _others(mags, np.minimum, np.inf)[checks, edge_slot]
            ext_min = np.where(np.isinf(ext_min), clamp, ext_min)  # degree-1 checks
            signs = np.where(msg_v2c < 0, -1.0, 1.0)
            sign_rows = np.ones((h.rows, dmax))
            sign_rows[checks, edge_slot] = signs
            ext_sign = sign_rows.prod(axis=1)[checks] * signs  # exact for +-1
            msg_c2v = np.clip(
                cfg.min_sum_scale * edge_sign * ext_sign * ext_min, -clamp, clamp
            )

        incoming = np.zeros(h.cols)
        np.add.at(incoming, vars_, msg_c2v)
        posterior = lam + incoming
        msg_v2c = np.clip(posterior[vars_] - msg_c2v, -clamp, clamp)

        # converged must describe the correction we return, so re-test
        # every round: without early stopping a later sweep may undo an
        # intermediate syndrome match
        correction = (posterior < 0).astype(np.uint8)
        converged = bool(np.array_equal(h.matvec(correction), s))
        if converged and cfg.early_stop:
            break

    return DecodeResult(correction, converged, iterations, posterior)


# -- ordered statistics ------------------------------------------------------


def _osd_prepare(h: F2Matrix, s: np.ndarray, soft: np.ndarray):
    """Rank columns, eliminate, and split the syndrome solve.

    Returns (pivots, free columns, base pivot values ts, pivot-row
    coupling R restricted to the free columns).
    """
    s = np.asarray(s, dtype=np.uint8) & 1
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape != (h.cols,):
        raise ValueError("soft information length does not match column count")
    if s.shape != (h.rows,):
        raise ValueError("syndrome length does not match row count")
    order = np.argsort(soft, kind="stable")  # most likely in error first
    # s rides along as column h.cols of [H | s], so that column ends as T s
    elim = hstack([h, F2Matrix.from_dense(s[:, None])]).eliminate(order)
    pivots = np.array(elim.pivot_columns, dtype=np.int64)
    rank = pivots.size
    reduced = elim.reduced.to_dense()
    ts = reduced[:, h.cols]
    if ts[rank:].any():
        raise Unsatisfiable("syndrome lies outside the image of H")
    in_pivot = np.zeros(h.cols, dtype=bool)
    in_pivot[pivots] = True
    free = order[~in_pivot[order]]
    return pivots, free, ts[:rank], reduced[:rank][:, free]


def osd0(h: F2Matrix, s: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """Solve H c = s on the most-reliable independent column set."""
    pivots, _, base, _ = _osd_prepare(h, s, soft)
    c = np.zeros(h.cols, dtype=np.uint8)
    c[pivots] = base
    return c


def _osd_candidates(h: F2Matrix, s: np.ndarray, soft: np.ndarray, w: int):
    """Yield every order-w candidate as (cost key, correction)."""
    pivots, free, base, coupling = _osd_prepare(h, s, soft)
    soft = np.asarray(soft, dtype=np.float64)
    reliability = np.abs(soft)
    total = sum(math.comb(free.size, i) for i in range(0, w + 1))
    if total > OSD_CANDIDATE_GUARD:
        raise CapacityExceeded(
            f"{total} reprocessing candidates exceed {OSD_CANDIDATE_GUARD}"
        )
    for weight in range(0, min(w, free.size) + 1):
        for subset in itertools.combinations(range(free.size), weight):
            c = np.zeros(h.cols, dtype=np.uint8)
            bits = base.copy()
            for j in subset:
                bits ^= coupling[:, j]
                c[free[j]] = 1
            c[pivots] = bits
            cost = float(reliability[c == 1].sum())
            yield (cost, int(c.sum()), c.tobytes()), c


def osd_w(h: F2Matrix, s: np.ndarray, soft: np.ndarray, w: int) -> np.ndarray:
    """Order-w reprocessing: best candidate by soft weight.

    Ties break by Hamming weight, then lexicographically, so the
    result is deterministic for any input ordering.
    """
    if w < 0:
        raise ValueError("need w >= 0")
    # keys end in the correction's bytes, so the minimum is unique
    return min(_osd_candidates(h, s, soft, w), key=lambda kc: kc[0])[1]


def bp_osd(problem: DecodingProblem, s: np.ndarray, cfg: BpConfig = BpConfig(),
           w: int = 0) -> DecodeResult:
    """BP with ordered-statistics fallback on non-convergence."""
    if w < 0:
        raise ValueError("need w >= 0")
    result = bp_decode(problem, s, cfg)
    if result.converged:
        return result
    correction = osd_w(problem.h, s, result.posterior_llr, w)
    return replace(result, correction=correction, converged=True)


# -- exhaustive oracles ------------------------------------------------------


def _solution_coset(h: F2Matrix, s: np.ndarray):
    """One solution of H e = s plus a kernel basis."""
    s = np.asarray(s, dtype=np.uint8) & 1
    try:
        e0 = h.solve_columns(range(h.cols), s)
    except NoSolution as err:
        raise Unsatisfiable("syndrome lies outside the image of H") from err
    return e0, h.kernel_basis()


def exhaustive_mwd(problem: DecodingProblem, s: np.ndarray) -> np.ndarray:
    """Most probable single error with syndrome s (min soft weight)."""
    h = problem.h
    if h.cols > MWD_COLUMN_GUARD:
        raise CapacityExceeded(
            f"MWD enumeration limited to {MWD_COLUMN_GUARD} columns"
        )
    e0, kernel = _solution_coset(h, s)
    llr = problem.prior.llr
    weights = np.where(np.isinf(llr), 1e18, llr)
    best_key, best = None, None
    for errors in span_blocks(kernel, e0):
        costs = errors @ weights
        idx = int(np.argmin(costs))
        near = np.nonzero(costs == costs[idx])[0]
        for i in near:
            e = errors[i].astype(np.uint8)
            key = (float(costs[i]), int(e.sum()), e.tobytes())
            if best_key is None or key < best_key:
                best_key, best = key, e
    return best


def exhaustive_mld(problem: DecodingProblem, s: np.ndarray) -> np.ndarray:
    """Most likely logical class: argmax of the coset-summed probability."""
    h, l = problem.h, problem.l
    if h.cols > MLD_COLUMN_GUARD:
        raise CapacityExceeded(
            f"MLD enumeration limited to {MLD_COLUMN_GUARD} columns"
        )
    e0, kernel = _solution_coset(h, s)
    p = problem.prior.p
    with np.errstate(divide="ignore"):
        base = np.log1p(-p).sum()
        delta = np.log(p) - np.log1p(-p)
    delta = np.where(np.isinf(delta), -1e300, delta)
    l_dense = l.to_dense().astype(np.uint8)
    class_bits = np.left_shift(1, np.arange(l.rows, dtype=np.int64))
    totals = np.zeros(1 << l.rows)
    for errors in span_blocks(kernel, e0):
        probs = np.exp(base + errors @ delta)
        classes = ((errors @ l_dense.T) & 1) @ class_bits
        totals += np.bincount(classes, weights=probs, minlength=totals.size)
    winner = int(np.argmax(totals))
    return ((winner >> np.arange(l.rows)) & 1).astype(np.uint8)


@dataclass(frozen=True)
class SuccessReport:
    valid: bool
    success: bool


def success(correction: np.ndarray, error: np.ndarray,
            problem: DecodingProblem) -> SuccessReport:
    """Validity is H(c+e) = 0; success additionally needs L c = L e."""
    c = np.asarray(correction, dtype=np.uint8) & 1
    e = np.asarray(error, dtype=np.uint8) & 1
    if c.shape != e.shape or c.shape != (problem.h.cols,):
        raise ValueError("correction/error lengths do not match the problem")
    residual = (c + e) & 1
    valid = not problem.h.matvec(residual).any()
    ok = valid and not problem.l.matvec(residual).any()
    return SuccessReport(valid=valid, success=ok)
