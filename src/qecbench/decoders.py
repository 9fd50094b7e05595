"""Belief propagation, ordered-statistics reprocessing, and oracles.

Messages live in the LLR domain: positive means "probably no fault".
The check update is the tanh-product rule (sum-product) or the scaled
minimum (min-sum) with the syndrome folded in as a sign; both take the
value over a check's other edges from an exclusive prefix/suffix scan,
so degree-1 checks and saturated messages need no division or sort.  OSD
re-solves the syndrome on the most-reliable independent column set, in
one greedy pass of F2Matrix.coset over H's columns in the order of soft,
so a new order neither permutes nor re-packs H; order-w reprocessing
extends each prefix (the OSD-0 solution XOR the kernel rows of at most
w - 1 remaining columns) by every later kernel row, scores a block of
extensions by one matrix product against |soft|, and builds only those
within a rounding bound of the best.  Exhaustive MWD/MLD enumerate the
whole solution coset (f2.span_blocks doubles it from the kernel rows)
and serve as oracles for everything else.  Both read one coset per
problem whose rows carry the class bits L e after the errors: its span
depends on H and L alone, so it is built once, and a syndrome then
costs two products by fixed matrices (its test and its particular
solution) and one XOR of that solution into the span's table (MLD also
keeps its weights and the table's class indices per problem).  BP runs
one loop over a batch of syndromes (bp_batch; bp_decode is a batch of
one, or an answer of the problem's last bp_prefetch call, which runs one
batch), their (rows, dmax) message arrays stacked.  The scan is built
as a plan of ufunc steps over the slots of the batch's buffers, again
whenever solved rows leave; a round writes the scan's identity into the
pads by one put, runs the plan, sums each column by one bincount, and
tests the syndromes (an XOR over the slots of the posterior gather) only
when a hard decision changed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityExceeded, NoSolution, Unsatisfiable
from .f2 import F2Matrix, span_blocks, span_tables
from .noise import DecodingProblem

MWD_COLUMN_GUARD = 24
MLD_COLUMN_GUARD = 20
OSD_CANDIDATE_GUARD = 10**7
OSD_BLOCK = 512  # index patterns per block of _patterns
OSD_STEP = 1 << 15  # floats per array in one scoring step of osd_w
MEMO_LIMIT = 1 << 16  # answers stored per problem; later ones are not stored
MEMO_BYTES = 1 << 24  # nor once a problem's stored keys and answers reach this


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
        object.__setattr__(self, "max_iterations", int(n))  # JSON-serialisable
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


def _scan_plan(x: np.ndarray, fill: float):
    """(out, steps): running op(a, b, out=o) for the steps (a, b, o) in turn
    writes op over every other slot of the same row of x into out.

    The steps work on the slot views x[..., j] of x, out and two
    temporaries shaped like x, so they rerun on new contents of x.  Slot
    j joins the prefix of the slots before it, built left to right, with
    the suffix of those after it, built right to left, in the association
    order of op.accumulate's exclusive scans; an end slot takes its one
    scan's last step, exact as op(fill, y) == y.  fill, op's identity,
    stands in for the scans that rows of one or two slots lack.
    """
    out, d = np.empty_like(x), x.shape[-1]
    if d < 3:  # no scan: a row of two swaps its slots, a row of one holds fill
        others = [x[..., 1], x[..., 0]] if d == 2 else [fill] * d
        return out, [(fill, y, out[..., j]) for j, y in enumerate(others)]
    pre, suf = np.empty((2,) + x.shape[:-1] + (d - 3,), dtype=x.dtype)  # for j in [2, d - 2]
    p, s, steps = [None, x[..., 0]], [None, x[..., d - 1]], []
    for j in range(2, d):  # p[j] = x0 op ... op x(j-1), s[j] = x(d-1) op ... op x(d-j)
        p.append(out[..., d - 1] if j == d - 1 else pre[..., j - 2])
        s.append(out[..., 0] if j == d - 1 else suf[..., j - 2])
        steps += [(p[j - 1], x[..., j - 1], p[j]), (s[j - 1], x[..., d - j], s[j])]
    return out, steps + [(p[j], s[d - 1 - j], out[..., j]) for j in range(1, d - 1)]


@np.errstate(divide="ignore")  # arctanh(+-1) is +-inf, which the clamp then bounds
def bp_batch(problem: DecodingProblem, s: np.ndarray, cfg: BpConfig = BpConfig()):
    """Flooding BP on the Tanner graph of the problem's check matrix for each
    row of the (n, rows) syndromes s: (corrections, converged, iterations,
    posteriors), row i answering s[i] with the bits a batch of one gives.

    Each round runs every check-to-bit update, then every bit-to-check
    update, hard-decides on the posterior sign (ties decide "no fault"),
    and tests each row's syndrome equation.  Under early_stop a row that
    matches keeps that round's answer and leaves the arrays before the
    next round, so a round works only on the rows still unsolved.
    """
    g = problem.tanner
    rows, cols = g.shape
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.ndim != 2 or s.shape[1] != rows:
        raise ValueError(f"syndromes of shape {s.shape} do not match {rows} checks")
    n, clamp = len(s), cfg.llr_clamp
    lam = np.zeros(cols + 1)  # 0 for the pads' column
    lam[:cols] = problem.prior.llr
    lam.clip(-clamp, clamp, out=lam)
    posteriors, converged = np.empty((n, cols)), np.zeros(n, dtype=bool)
    iterations = np.full(n, cfg.max_iterations)
    if g.col.size == 0 or n == 0:
        posteriors[:], iterations[:] = lam[:cols], 1
        converged[:] = (g.parity((posteriors < 0).view(np.uint8)) == s).all(axis=1)
        return (posteriors < 0).view(np.uint8), converged, iterations, posteriors

    # each row's messages stay in g's padded (rows, dmax) layout: pads hold
    # the scan's identity, and their messages only reach the dummy column cols
    pad_col, dmax = g.pad_col, g.pad_col.shape[1]
    # the syndrome sign, and the factor 2 or the min-sum scale: exact multiplies
    sum_product = cfg.variant == "sum-product"
    sign = (1.0 - 2.0 * s)[..., None] * (2.0 if sum_product else cfg.min_sum_scale)
    # |msg| <= clamp, so clamp is min's identity here and stands in for
    # the minimum over no other edge (degree-1 checks)
    op, fill = (np.multiply, 1.0) if sum_product else (np.minimum, clamp)
    msg_v2c = lam[pad_col][None].repeat(n, axis=0)
    # row i's pads, and its bins i (cols + 1) + [0, cols]; b live rows take the first b rows'
    all_pads = (g.pads + np.arange(0, msg_v2c.size, pad_col.size)[:, None]).ravel()
    all_at = (pad_col + np.arange(0, n * (cols + 1), cols + 1)[:, None, None]).reshape(-1, dmax)
    all_lam = np.tile(lam, n)
    live, keep, tested, b = np.arange(n), None, None, 0
    for iteration in range(1, cfg.max_iterations + 1):
        if keep is not None:  # the rows solved last round leave
            live, s, sign, msg_v2c, keep = live[keep], s[keep], sign[keep], msg_v2c[keep], None
        if b != live.size:  # a round works on (live rows x rows, dmax) views,
            # whose slot views are 1-D as for one syndrome
            v2c, row_sign, b = msg_v2c.reshape(-1, dmax), sign.reshape(-1, 1), live.size
            scan, signs = np.empty_like(v2c), None if sum_product else np.empty_like(v2c)
            extrinsic, plan = _scan_plan(scan, fill)
            pads, at, lam_b = all_pads[:b * g.pads.size], all_at[:len(v2c)], all_lam[:b * (cols + 1)]
            flat_at, weights = at.ravel(), (extrinsic if sum_product else signs).ravel()
        if sum_product:
            np.tanh(np.multiply(v2c, 0.5, out=scan), out=scan)
        else:
            np.abs(v2c, out=scan)
        scan.put(pads, fill)
        for a, c, o in plan:
            op(a, c, out=o)
        if sum_product:
            msg_c2v = np.multiply(row_sign, np.arctanh(extrinsic, out=extrinsic), out=extrinsic)
        else:
            # copysign(1, -0.0) = -1 only flips the other edges' zero messages,
            # and -0 and +0 add and subtract alike into the posterior
            np.copysign(1.0, v2c, out=signs)
            signs.put(pads, 1.0)
            msg_c2v = np.multiply(row_sign * np.multiply.reduce(signs, axis=1, keepdims=True),
                                  signs, out=signs)
            msg_c2v *= extrinsic
        msg_c2v.clip(-clamp, clamp, out=msg_c2v)

        # bincount adds each column's messages one at a time in row-major
        # edge order, so every sum is fixed to the bit by the graph alone
        posterior = np.bincount(flat_at, weights=weights, minlength=lam_b.size)
        posterior += lam_b
        posterior[cols::cols + 1] = 0.0  # pads read "no fault" in the gather below
        # scan is free until the next round; "clip" lets take skip its bounds buffer
        gathered = posterior.take(at, out=scan, mode="clip")
        np.subtract(gathered, msg_c2v, out=v2c).clip(-clamp, clamp, out=v2c)

        # converged must describe the correction we return, so it is kept
        # for every round: without early stopping a later sweep may undo an
        # intermediate syndrome match.  It depends on the hard decisions
        # alone, so they are tested only when one of them changes.
        hard = (gathered < 0).view(np.uint8)
        if (key := hard.tobytes()) == tested:
            continue
        parity = hard[:, 0].copy()  # a pad's hard decision is 0
        for j in range(1, dmax):
            parity ^= hard[:, j]
        tested, solved = key, (parity.reshape(b, -1) == s).all(axis=1)
        if cfg.early_stop and solved.any():
            posteriors[live[solved]] = posterior.reshape(b, -1)[solved, :cols]
            converged[live[solved]], iterations[live[solved]] = True, iteration
            if solved.all():
                break
            keep = ~solved
    posteriors[live] = posterior.reshape(b, -1)[:, :cols]  # the rows of the last round
    converged[live] = solved
    return (posteriors < 0).view(np.uint8), converged, iterations, posteriors


def bp_decode(problem: DecodingProblem, s: np.ndarray, cfg: BpConfig = BpConfig()) -> DecodeResult:
    """bp_batch on the one syndrome s, or the answer that the problem's last
    bp_prefetch call made for it (its arrays read-only)."""
    s = np.asarray(s, dtype=np.uint8) & 1
    c, converged, iterations, posterior = (problem.answers.bp.get((cfg, s.shape, s.tobytes()))
                                           or [a[0] for a in bp_batch(problem, s[None], cfg)])
    return DecodeResult(c, bool(converged), int(iterations), posterior)


def bp_prefetch(problem: DecodingProblem, s: np.ndarray, cfg: BpConfig = BpConfig(),
                held: tuple = ()) -> None:
    """One bp_batch over the distinct rows of the (n, rows) uint8 0/1
    syndromes s that memo does not hold under the key held; their answers
    (arrays read-only) replace problem.answers.bp, which bp_decode reads."""
    size, table = s.shape[1], {}
    shape, data = (size,), s.tobytes()
    todo = [r for r in dict.fromkeys(data[i:i + size] for i in range(0, len(data), size or 1))
            if held + (shape, r) not in problem.answers]
    if todo:
        batch = np.frombuffer(b"".join(todo), dtype=np.uint8).reshape(len(todo), size)
        c, converged, iterations, posteriors = bp_batch(problem, batch, cfg)
        c.flags.writeable = posteriors.flags.writeable = False
        table = {(cfg, shape, r): answer for r, answer in
                 zip(todo, zip(c, converged.tolist(), iterations.tolist(), posteriors))}
    problem.answers.bp = table


# -- ordered statistics ------------------------------------------------------


def _osd_prepare(h: F2Matrix, s: np.ndarray, soft: np.ndarray, full: bool = True):
    """h.coset(s) with the columns ranked by soft, most likely in error first
    (without its kernel rows unless full); its last row is the OSD-0
    solution.  NaN soft information has no rank, so it raises ValueError;
    +-inf is legal."""
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape != (h.cols,):
        raise ValueError("soft information length does not match column count")
    if np.isnan(soft).any():
        raise ValueError("soft information contains NaN")
    try:
        return h._coset(s, np.argsort(soft, kind="stable"), full)
    except NoSolution:
        raise Unsatisfiable("syndrome lies outside the image of H") from None


def osd0(h: F2Matrix, s: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """Solve H c = s on the most-reliable independent column set."""
    return _osd_prepare(h, s, soft, False)[2][0]


def _patterns(f: int, w: int, block: int = OSD_BLOCK):
    """Subsets of range(f) of at most w elements, in the order of
    itertools.combinations, as (<= block, weight) index blocks."""
    yield np.zeros((1, 0), dtype=np.intp)
    for weight in range(1, min(w, f) + 1):
        combos = itertools.combinations(range(f), weight)
        while (flat := np.fromiter(itertools.chain.from_iterable(
                itertools.islice(combos, block)), np.intp)).size:
            yield flat.reshape(-1, weight)


def _xor_weights(x: np.ndarray, k: np.ndarray, weights: np.ndarray):
    """weights @ (x[b] ^ k[j]) for every row pair, as weights @ (x[b] + k[j]
    - 2 (x[b] & k[j])) with one matrix product, and weights @ (x[b] + k[j])."""
    kw = k.astype(np.float64)
    kw *= weights  # faster than k * weights, which casts k inside the loop
    both = (x @ weights)[:, None] + kw.sum(axis=1)
    return both - 2 * (x @ kw.T), both


def _osd_steps(flips: np.ndarray, reliability: np.ndarray, w: int):
    """The order-w candidates other than the OSD-0 solution flips[-1], as
    steps (x, k, new, cost, both): prefix x[b] (flips[-1] XOR the kernel
    rows of at most w - 1 free columns) XOR kernel row k[j] of a later
    column where new[b, j], costing cost[b, j] by _xor_weights (inf if it
    touches an infinite |soft|).  Each array of a step holds about
    OSD_STEP floats."""
    kernel, cols = flips[:-1], max(flips.shape[1], 1)
    infinite = np.isinf(reliability).astype(np.float64)
    finite = np.where(infinite > 0, 0.0, reliability)  # 0 * inf would be NaN in a sum
    rows = max(1, min(OSD_BLOCK, OSD_STEP // cols))
    for idx in _patterns(len(kernel), w - 1, rows) if w else ():
        x = np.repeat(flips[-1:], len(idx), axis=0)
        for j in idx.T:
            x ^= kernel[j]
        xf, last = x.astype(np.float64), idx[:, -1:] if idx.size else np.full((1, 1), -1)
        for lo in range(0, len(kernel), rows):
            k = kernel[lo:lo + rows]
            cost, both = _xor_weights(xf, k, finite)
            if infinite.any():  # integer counts, so exact
                cost[_xor_weights(xf, k, infinite)[0] > 0] = np.inf
            yield x, k, np.arange(lo, lo + len(k)) > last, cost, both


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN sums are kept, see below
def osd_w(h: F2Matrix, s: np.ndarray, soft: np.ndarray, w: int) -> np.ndarray:
    """Order-w reprocessing: the least of the OSD-0 solution XOR the kernel
    rows of at most w free columns, by soft weight, Hamming weight, bytes.

    Each cost is three dot products of n = h.cols non-negative terms,
    within 2n 2^-53 (cost(x) + cost(k)) of the soft weight, and the exact
    key's sum is within n 2^-53 (cost(x) + cost(k)) of it too.  So a
    candidate is built and keyed only if cost - slack, with slack (3n + 8)
    2^-53 (cost(x) + cost(k)), is at most the OSD-0 key and every cost +
    slack so far: the exact key-minimum over all sum C(f, <= w) candidates
    always is.  A bound past the largest double may belong to a key that
    overflowed to inf, which ties with every other such key, so it prunes
    nothing.  While no bound prunes, the candidates that touch an infinite
    |soft| weigh inf too, and of those only the ones of fewest ones so far
    are built.  Where sums of the finite |soft| may overflow, the costs
    are taken on |soft| scaled by a power of two, which is exact unless a
    weight turns subnormal (then they overflow as they are).  NaN soft
    raises ValueError; +-inf is legal.
    """
    if w < 0:
        raise ValueError("need w >= 0")
    if w == 0:  # the sweep's only candidate is the osd0 solution
        return osd0(h, s, soft)
    _, free, flips = _osd_prepare(h, s, soft)
    total = sum(math.comb(free.size, i) for i in range(min(w, free.size) + 1))
    if total > OSD_CANDIDATE_GUARD:
        raise CapacityExceeded(
            f"{total} reprocessing candidates exceed {OSD_CANDIDATE_GUARD}"
        )
    reliability = np.abs(np.asarray(soft, dtype=np.float64))
    key = lambda c: _osd_key(c, reliability)
    best = flips[-1]
    finite = reliability[np.isfinite(reliability) & (reliability > 0)]
    scale = 0  # costs and bounds are 2^-scale times the unscaled ones, bit for bit
    if np.isinf(4 * finite.sum()):  # a cost's sums reach 2 finite.sum() (1 + slack)
        scale = np.frexp(finite.max())[1] + h.cols.bit_length() + 2
        if np.ldexp(finite.min(), -scale) < np.finfo(np.float64).tiny:
            scale = 0
    bound, tolerance = np.ldexp(key(best)[0], -scale), (3 * h.cols + 8) * 2.0**-53
    largest = np.ldexp(np.finfo(np.float64).max, -scale)
    infinite, fewest = np.isinf(reliability).astype(np.float64), float(best.sum())
    for x, k, new, cost, both in _osd_steps(flips, np.ldexp(reliability, -scale), w):
        slack = both * tolerance  # overflow leaves NaN, which fmin skips and ~> keeps
        bound = np.fmin.reduce((cost + slack)[new], initial=bound)
        prune = bound if bound <= largest else np.inf
        near = new & ~(cost - slack > prune)
        if prune == np.inf:  # the candidates of infinite weight rank by ones, then bytes
            xf = x.astype(np.float64)
            tie = near & (_xor_weights(xf, k, infinite)[0] > 0)
            ones = _xor_weights(xf, k, np.ones(h.cols))[0]  # integer counts, so exact
            fewest = ones[tie].min(initial=fewest)
            near &= ~tie | (ones <= fewest)
        near = np.nonzero(near)
        best = min(itertools.chain([best], (x[b] ^ k[j] for b, j in zip(*near))), key=key)
    return best.copy()  # a view would pin all of flips


def _osd_key(c: np.ndarray, reliability: np.ndarray) -> tuple:
    """osd_w's order on candidates c: soft weight, Hamming weight, bytes."""
    return float(reliability[c == 1].sum()), int(c.sum()), c.tobytes()


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


def _solution_coset(problem: DecodingProblem, s: np.ndarray):
    """Every solution e of H e = s in dense blocks, pivots taken in column
    order, each row's class bits L e after its h.cols error bits.  A
    problem's first call makes one pass of h.coset_transform over I and keeps
    for every s: below, linear in s (s is outside the image of H iff it maps s
    to a nonzero), solve (solve @ s is the solution that is zero off the
    pivots, with its class bits) and span_tables of the kernel."""
    h = problem.h
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.shape != (h.rows,):
        raise ValueError("syndrome length does not match row count")
    if "span" not in problem.cosets:
        _, _, rows, solve, outside = h.coset_transform(np.eye(h.rows, dtype=np.uint8))
        l = problem.l.to_dense()
        rows, solve = np.hstack([rows, rows @ l.T & 1]), np.vstack([solve, l @ solve & 1])
        kernel = F2Matrix.from_dense(rows[:-1])
        problem.cosets["span"] = outside, solve, kernel, span_tables(kernel)
    outside, solve, kernel, tables = problem.cosets["span"]
    # uint8 sums wrap at 256, which keeps their low bit; span_blocks reads only it
    if (outside @ s & 1).any():
        raise Unsatisfiable("syndrome lies outside the image of H")
    return span_blocks(kernel, solve @ s, tables=tables)


def exhaustive_mwd(problem: DecodingProblem, s: np.ndarray) -> np.ndarray:
    """Most probable single error with syndrome s (min soft weight)."""
    if problem.h.cols > MWD_COLUMN_GUARD:
        raise CapacityExceeded(
            f"MWD enumeration limited to {MWD_COLUMN_GUARD} columns"
        )
    llr = problem.prior.llr
    weights = np.where(np.isinf(llr), 1e18, llr)
    best_key, best = None, None
    for rows in _solution_coset(problem, s):
        errors = rows[:, :problem.h.cols]
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
    """Most likely logical class: argmax of the coset-summed probability.
    A repeated syndrome is answered from memo, as a fresh copy."""
    return memo(problem, ("mld",), s, lambda s: (_mld(problem, s),))[0].copy()


def _mld(problem: DecodingProblem, s: np.ndarray) -> np.ndarray:
    cols, k = problem.h.cols, problem.l.rows
    if cols > MLD_COLUMN_GUARD:
        raise CapacityExceeded(
            f"MLD enumeration limited to {MLD_COLUMN_GUARD} columns"
        )
    blocks = _solution_coset(problem, s)
    if "mld" not in problem.cosets:  # the weights, and the classes of span_blocks'
        # low table: the zero syndrome's first block, each block XOR its first row
        low = next(_solution_coset(problem, np.zeros(problem.h.rows, dtype=np.uint8)))
        delta = -problem.prior.llr  # log(p) - log1p(-p), bit for bit
        class_bits = np.left_shift(1, np.arange(k, dtype=np.int64))
        problem.cosets["mld"] = (np.log1p(-problem.prior.p).sum(),
                                 np.where(np.isinf(delta), -1e300, delta), class_bits,
                                 low[:, cols:] @ class_bits)
    base, delta, class_bits, low_classes = problem.cosets["mld"]
    totals = np.zeros(1 << k)
    for rows in blocks:
        probs = np.exp(base + rows[:, :cols] @ delta)
        classes = low_classes ^ (rows[0, cols:] @ class_bits)
        totals += np.bincount(classes, weights=probs, minlength=totals.size)
    winner = int(np.argmax(totals))
    return ((winner >> np.arange(k)) & 1).astype(np.uint8)


def memo(problem: DecodingProblem, key: tuple, s: np.ndarray, compute) -> tuple:
    """compute(s), s as uint8 & 1, kept in problem.answers under key + s;
    key names every other input.  Every array among the answer's items is
    made read-only.  Past MEMO_LIMIT answers, or once the stored s bytes
    and answer arrays reach MEMO_BYTES, none is added and none is
    evicted; exceptions are never kept, so each call raises them again."""
    s = np.asarray(s, dtype=np.uint8) & 1
    key += (s.shape, s.tobytes())
    answers = problem.answers
    if (out := answers.get(key)) is None:
        out = compute(s)
        arrays = [a for a in out if isinstance(a, np.ndarray)]
        for a in arrays:
            a.flags.writeable = False
        if len(answers) < MEMO_LIMIT and answers.nbytes < MEMO_BYTES:
            answers[key] = out
            answers.nbytes += s.nbytes + sum(a.nbytes for a in arrays)
    return out


@dataclass(frozen=True)
class SuccessReport:
    valid: bool
    success: bool


_SUCCEEDED = SuccessReport(valid=True, success=True)
_WRONG_CLASS = SuccessReport(valid=True, success=False)
_INVALID = SuccessReport(valid=False, success=False)


def success(correction: np.ndarray, error: np.ndarray,
            problem: DecodingProblem) -> SuccessReport:
    """Validity is H(c+e) = 0; success additionally needs L c = L e.  The
    report is one of three shared frozen ones."""
    c = np.asarray(correction, dtype=np.uint8)
    e = np.asarray(error, dtype=np.uint8)
    if c.shape != e.shape or c.shape != (problem.h.cols,):
        raise ValueError("correction/error lengths do not match the problem")
    parity = problem.tanner_hl.parity(c ^ e)  # H(c+e) over L(c+e)
    if not np.count_nonzero(parity):
        return _SUCCEEDED
    return _INVALID if np.count_nonzero(parity[:problem.h.rows]) else _WRONG_CLASS
