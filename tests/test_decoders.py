import dataclasses
import hashlib
import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qecbench.bench import BenchmarkConfig, build_code, run_benchmark
from qecbench.classical import hamming74
from qecbench import decoders
from qecbench.decoders import (
    BpConfig,
    DecodeResult,
    SuccessReport,
    bp_decode,
    bp_osd,
    exhaustive_mld,
    exhaustive_mwd,
    osd0,
    osd_w,
    success,
    _osd_prepare,
    _osd_steps,
    _patterns,
    _scan_plan,
)
from qecbench.errors import CapacityExceeded, NoSolution, Unsatisfiable
from qecbench.f2 import F2Matrix, SparseRows, hstack
from qecbench.noise import (
    Prior,
    classical_problem,
    decoding_problem,
    depolarizing_problem,
    uniform_prior,
)
from qecbench.quantum import css_code, four_two_two_checks

from coset_reference import reference_coset, reference_reduce
from parity_reference import parity_test
from span_reference import reference_span_blocks


def make_problem(h_dense, p):
    h = F2Matrix.from_dense(h_dense)
    if np.isscalar(p):
        prior = uniform_prior(h.cols, p)
    else:
        prior = Prior(np.asarray(p))
    return decoding_problem(h, F2Matrix(0, h.cols), prior)


def conditional_marginal_p1(h_dense, s, p):
    """P[e_i = 1 | He = s] by enumerating every error pattern."""
    n = h_dense.shape[1]
    errors = (
        np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32)
    ) & 1
    consistent = ((errors @ h_dense.T) % 2 == s).all(axis=1)
    probs = np.prod(np.where(errors == 1, p, 1.0 - p), axis=1) * consistent
    return (errors * probs[:, None]).sum(axis=0) / probs.sum()


def test_zero_syndrome_converges_at_once():
    problem = classical_problem(hamming74(), 0.05)
    result = bp_decode(problem, np.zeros(3, dtype=np.uint8))
    assert result.converged
    assert result.iterations_used == 1
    assert not result.correction.any()


def test_repetition_tree_posteriors_match_enumeration():
    h_dense = np.zeros((4, 5), dtype=np.uint8)
    for i in range(4):
        h_dense[i, i] = h_dense[i, i + 1] = 1
    problem = make_problem(h_dense, 0.1)
    e = np.zeros(5, dtype=np.uint8)
    e[2] = 1
    s = problem.h.matvec(e)

    result = bp_decode(problem, s)
    assert result.converged
    assert np.array_equal(result.correction, e)

    settled = bp_decode(
        problem, s, BpConfig(max_iterations=12, early_stop=False)
    )
    oracle = conditional_marginal_p1(h_dense, s, np.full(5, 0.1))
    bp_p1 = 1.0 / (1.0 + np.exp(settled.posterior_llr))
    assert np.allclose(bp_p1, oracle, atol=1e-9)


def random_tree(rnd):
    """Grow a bipartite tree edge by edge; (edges, n_checks, n_vars)."""
    n_vars, n_checks = 1, 0
    edges = []
    for _ in range(rnd.randint(1, 10)):
        if n_checks and rnd.random() < 0.5:
            edges.append((rnd.randrange(n_checks), n_vars))
            n_vars += 1
        else:
            edges.append((n_checks, rnd.randrange(n_vars)))
            n_checks += 1
    return edges, n_checks, n_vars


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_tree_posteriors_are_exact(rnd):
    edges, n_checks, n_vars = random_tree(rnd)
    h_dense = np.zeros((n_checks, n_vars), dtype=np.uint8)
    for c, v in edges:
        h_dense[c, v] = 1
    p = np.array([rnd.uniform(0.05, 0.45) for _ in range(n_vars)])
    problem = make_problem(h_dense, p)
    e = np.array([rnd.random() < q for q in p], dtype=np.uint8)
    s = problem.h.matvec(e)

    cfg = BpConfig(max_iterations=n_vars + n_checks + 2, early_stop=False)
    result = bp_decode(problem, s, cfg)
    oracle = conditional_marginal_p1(h_dense, s, p)
    bp_p1 = 1.0 / (1.0 + np.exp(result.posterior_llr))
    assert np.allclose(bp_p1, oracle, atol=1e-9)
    if result.converged:
        assert np.array_equal(problem.h.matvec(result.correction), s)


def test_four_cycle_matches_hand_unrolled_messages():
    lam = np.array([1.2, 0.7])
    s = np.array([1, 0], dtype=np.uint8)
    problem = make_problem(np.array([[1, 1], [1, 1]], dtype=np.uint8),
                           1.0 / (1.0 + math.e**lam))

    # two checks on two bits: unroll the message recursion directly
    v2c = [[lam[0], lam[1]], [lam[0], lam[1]]]
    for t in range(1, 5):
        c2v = [[0.0, 0.0], [0.0, 0.0]]
        for c in range(2):
            for v in range(2):
                other = v2c[c][1 - v]
                c2v[c][v] = (1 - 2 * int(s[c])) * 2 * math.atanh(math.tanh(other / 2))
        posterior = [lam[v] + c2v[0][v] + c2v[1][v] for v in range(2)]
        for c in range(2):
            for v in range(2):
                v2c[c][v] = posterior[v] - c2v[c][v]
        got = bp_decode(
            problem, s, BpConfig(max_iterations=t, early_stop=False)
        )
        assert np.allclose(got.posterior_llr, posterior, atol=1e-12)


def test_girth_eight_first_iteration_is_tree_like():
    # 4-ring: girth 8, so iteration 1 must equal the unrolled tree,
    # which for bit 0 is the path v3 - c3 - v0 - c0 - v1
    ring = np.zeros((4, 4), dtype=np.uint8)
    for c in range(4):
        ring[c, c] = ring[c, (c + 1) % 4] = 1
    p_ring = np.array([0.1, 0.15, 0.2, 0.3])
    s_ring = np.array([1, 0, 1, 0], dtype=np.uint8)
    ring_result = bp_decode(
        make_problem(ring, p_ring), s_ring,
        BpConfig(max_iterations=1, early_stop=False),
    )

    path = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    p_path = np.array([0.3, 0.1, 0.15])  # v3, v0, v1
    s_path = np.array([s_ring[3], s_ring[0]], dtype=np.uint8)
    path_result = bp_decode(
        make_problem(path, p_path), s_path,
        BpConfig(max_iterations=1, early_stop=False),
    )
    assert math.isclose(
        ring_result.posterior_llr[0], path_result.posterior_llr[1],
        rel_tol=0, abs_tol=1e-12,
    )


def test_min_sum_single_check_by_hand():
    problem = make_problem(
        np.array([[1, 1, 1]], dtype=np.uint8),
        1.0 / (1.0 + np.exp([2.0, 3.0, 4.0])),
    )
    result = bp_decode(problem, np.array([1], dtype=np.uint8),
                       BpConfig(variant="min-sum", max_iterations=1))
    assert result.converged
    assert result.correction.tolist() == [1, 0, 0]
    assert np.allclose(
        result.posterior_llr,
        [2 - 0.8125 * 3, 3 - 0.8125 * 2, 4 - 0.8125 * 2],
    )


def test_min_sum_agrees_with_sum_product_at_tiny_p():
    problem = classical_problem(hamming74(), 1e-3)
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        s = problem.h.matvec(e)
        sp = bp_decode(problem, s, BpConfig(max_iterations=20))
        ms = bp_decode(problem, s, BpConfig(variant="min-sum", max_iterations=20))
        assert np.array_equal(sp.correction, ms.correction)


def _brute_others(rows, reduce, fill):
    out = np.empty_like(rows)
    for idx in np.ndindex(rows.shape[:-1]):
        row = rows[idx]
        for j in range(row.size):
            out[idx + (j,)] = reduce(np.delete(row, j), initial=fill)
    return out


def _others(rows, op, fill):
    """op over every other slot of the same row, for every slot: the
    _scan_plan of rows, run once; fill is op's identity and pads short rows."""
    out, steps = _scan_plan(rows, fill)
    for a, b, o in steps:
        op(a, b, out=o)
    return out


_row_shapes = array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6)


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, _row_shapes,
              elements=st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, np.inf])))
def test_others_min_matches_brute_force(rows):
    # repeated values give ties; inf stands for the padding of short rows
    assert np.array_equal(_others(rows, np.minimum, np.inf),
                          _brute_others(rows, np.min, np.inf))


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, _row_shapes,
              elements=st.sampled_from([1.0, -1.0, 0.5, -2.0, 4.0, 0.0])))
def test_others_product_matches_brute_force(rows):
    # +-1 and powers of two multiply exactly in any order; 1.0 is the padding
    assert np.array_equal(_others(rows, np.multiply, 1.0),
                          _brute_others(rows, np.prod, 1.0))


def _clip(a, clamp):
    """decoders._clip before bp_batch clipped by ndarray.clip, kept verbatim:
    a.clip(-clamp, clamp, out=a), bit for bit, without ndarray.clip's Python
    wrapper.  The earlier loops copied below clip through it."""
    return np.minimum(np.maximum(a, -clamp, out=a), clamp, out=a)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, _row_shapes, elements=st.one_of(
           st.sampled_from([np.inf, -np.inf, 0.0, -0.0, np.nan, 30.0, -30.0, 1e300, -1e-300]),
           st.floats(-100.0, 100.0))),
       st.sampled_from([0.5, 20.0, 30.0]))
def test_clip_matches_ndarray_clip_bit_for_bit(a, clamp):
    """The maximum and minimum ufuncs of the earlier loops clip as
    ndarray.clip, which bp_batch calls, does: signed zeros and NaN too."""
    want = a.clip(-clamp, clamp)
    got = a.copy()
    assert _clip(got, clamp) is got
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
@pytest.mark.parametrize("early_stop", [True, False])
def test_bp_messages_unchanged_by_the_clip_ufuncs(variant, early_stop):
    """bp_decode, clipping by ndarray.clip, returns the bits of the loop
    that clipped by the maximum and minimum ufuncs."""
    code = build_code("surface 5")
    problems = [depolarizing_problem(code, p, "split-xz")[0] for p in (0.03, 0.1)]
    cfg = BpConfig(variant=variant, early_stop=early_stop, max_iterations=12)
    for seed, problem in itertools.product(range(25), problems):
        e = (np.random.default_rng(seed).random(problem.h.cols) < 0.08).astype(np.uint8)
        s = problem.tanner.parity(e)
        want = [a[0] for a in _bp_batch_before_the_drop(problem, s[None], cfg)]
        assert _bp_outcome(bp_decode(problem, s, cfg)) == _bp_outcome(DecodeResult(*want))


def test_bp_rejects_wrong_syndrome_length():
    problem = classical_problem(hamming74(), 0.1)
    with pytest.raises(ValueError):
        bp_decode(problem, np.zeros(5, dtype=np.uint8))


def test_config_validation():
    with pytest.raises(ValueError):
        BpConfig(variant="layered")
    with pytest.raises(ValueError):
        BpConfig(max_iterations=0)
    for not_an_int in (2.5, True, "3"):
        with pytest.raises(ValueError):
            BpConfig(max_iterations=not_an_int)
    assert BpConfig(max_iterations=np.int64(3)).max_iterations == 3
    for bad_clamp in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            BpConfig(llr_clamp=bad_clamp)
    with pytest.raises(ValueError):
        BpConfig(min_sum_scale=1.5)


@pytest.mark.parametrize("shape", [(0, 4), (3, 4), (3, 0), (0, 0)])
def test_bp_without_edges_hard_decides_the_prior(shape):
    rows, cols = shape
    problem = make_problem(np.zeros(shape, dtype=np.uint8), np.linspace(0.0, 0.5, cols))
    for s in {(0,) * rows, (1,) * rows}:
        result = bp_decode(problem, np.array(s, dtype=np.uint8))
        assert not result.correction.any() and result.iterations_used == 1
        assert result.converged == (not any(s))
        assert np.array_equal(result.posterior_llr, np.clip(problem.prior.llr, -30, 30))


def _bp_runs(code: str, variant: str, early_stop: bool):
    """BP on both split-xz sides of a code, for 12 seeded errors each."""
    cfg = BpConfig(variant=variant, early_stop=early_stop)
    for problem in depolarizing_problem(build_code(code), 0.06, "split-xz"):
        for seed in range(12):
            e = (np.random.default_rng(seed).random(problem.h.cols) < 0.06).astype(np.uint8)
            yield bp_decode(problem, problem.h.matvec(e), cfg)


# Computed with the per-call Tanner-graph build and packed matvec
# convergence test that the compiled edge list replaced.  Per config:
# iterations and convergence per syndrome, a sha256 prefix of the
# corrections, and the posteriors' dot product with fixed weights, which
# is compared with a tolerance so that a libm rounding tanh differently
# does not trip it while any change to the message passing does.
BP_PINNED = {
    ("surface 5", "sum-product", True): (
        "2 2 1 2 1 32 2 1 32 2 1 2 4 32 1 2 1 32 6 32 4 2 1 1",
        "111110110111101110101111",
        "3c199a491c8bf0fc",
        3294.486682189015,
    ),
    ("surface 5", "sum-product", False): (
        "32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32",
        "111110110111101110000111",
        "edf9650818682051",
        4349.131236011731,
    ),
    ("surface 5", "min-sum", True): (
        "4 3 1 2 1 32 3 1 32 3 1 2 5 32 1 2 1 32 32 32 4 3 1 1",
        "111110110111101110001111",
        "d616c8f9b621f01c",
        3318.634842098183,
    ),
    ("surface 5", "min-sum", False): (
        "32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32",
        "111110110111101110000111",
        "8fc2ca46b542109d",
        3776.890795878852,
    ),
    ("surface 9", "sum-product", True): (
        "9 2 32 3 1 2 32 32 2 32 4 32 32 2 32 3 1 32 32 32 2 32 32 32",
        "110111001010010110001000",
        "f99424cba6f6b4db",
        14891.857039835846,
    ),
    ("surface 9", "sum-product", False): (
        "32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32",
        "010111001010010110001000",
        "cebaa8222095cf3d",
        19143.878187746937,
    ),
    ("surface 9", "min-sum", True): (
        "32 2 32 3 1 4 32 32 2 32 4 32 32 2 32 3 1 32 32 32 3 32 32 32",
        "010111001010010110001000",
        "b10f6ec80b7f42e1",
        13430.806559412767,
    ),
    ("surface 9", "min-sum", False): (
        "32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32",
        "010111001010010110001000",
        "b10f6ec80b7f42e1",
        15008.379801997393,
    ),
    ("hgp hamming transpose hamming", "sum-product", True): (
        "32 2 4 2 1 32 32 3 2 2 1 32 32 2 3 3 1 3 32 7 2 2 1 32",
        "011110011110011111011110",
        "02c03cc6e7cf119c",
        4095.42175426713,
    ),
    ("hgp hamming transpose hamming", "sum-product", False): (
        "32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32",
        "000110000010000011010010",
        "dde6226f2a4021da",
        5116.757658840421,
    ),
    ("hgp hamming transpose hamming", "min-sum", True): (
        "32 2 4 1 1 4 32 7 2 2 1 5 6 2 3 3 1 4 5 7 2 2 1 6",
        "011111011111111111111111",
        "44fa38377450e6a7",
        4047.0938225862383,
    ),
    ("hgp hamming transpose hamming", "min-sum", False): (
        "32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32 32",
        "011111011111111111111110",
        "f3f552a6af0c9516",
        4619.793589695491,
    ),
}


@pytest.mark.parametrize("code,variant,early_stop", list(BP_PINNED))
def test_bp_outputs_match_pinned_values(code, variant, early_stop):
    iterations, converged, corrections, fingerprint = BP_PINNED[code, variant, early_stop]
    runs = list(_bp_runs(code, variant, early_stop))
    assert " ".join(str(r.iterations_used) for r in runs) == iterations
    assert "".join(str(int(r.converged)) for r in runs) == converged
    sha = hashlib.sha256(b"".join(r.correction.tobytes() for r in runs))
    assert sha.hexdigest()[:16] == corrections
    posterior = np.concatenate([r.posterior_llr for r in runs])
    weights = np.random.default_rng(0).random(posterior.size)
    assert posterior @ weights == pytest.approx(fingerprint, rel=1e-9)


def _reference_others(rows, op, fill):
    pad = np.full(rows.shape[:-1] + (1,), fill)
    prefix = op.accumulate(np.concatenate([pad, rows[..., :-1]], axis=-1), axis=-1)
    suffix = op.accumulate(np.concatenate([pad, rows[..., :0:-1]], axis=-1), axis=-1)
    return op(prefix, suffix[..., ::-1])


def _reference_bp(problem, s, cfg):
    """BP on the edge list with scatter/gather into padded rows and np.add.at:
    the loop that the compiled padded layout replaced, kept as the reference."""
    g = problem.tanner
    rows, cols = g.shape
    s = np.asarray(s, dtype=np.uint8) & 1
    clamp = cfg.llr_clamp
    lam = np.clip(problem.prior.llr, -clamp, clamp)
    if g.col.size == 0:
        correction = (lam < 0).astype(np.uint8)
        converged = bool(np.array_equal(g.parity(correction), s))
        return DecodeResult(correction, converged, 1, lam)
    checks, vars_ = np.nonzero(problem.h.to_dense())
    degree = np.bincount(checks, minlength=rows)
    edge_slot = np.arange(checks.size) - (np.cumsum(degree) - degree)[checks]
    dmax = int(degree.max())
    edge_sign = (1.0 - 2.0 * s)[checks]

    msg_v2c = lam[vars_]
    for iterations in range(1, cfg.max_iterations + 1):
        if cfg.variant == "sum-product":
            tanh_half = np.ones((rows, dmax))
            tanh_half[checks, edge_slot] = np.tanh(msg_v2c / 2.0)
            extrinsic = _reference_others(tanh_half, np.multiply, 1.0)[checks, edge_slot]
            with np.errstate(divide="ignore"):
                update = 2.0 * np.arctanh(extrinsic)
            msg_c2v = np.clip(edge_sign * update, -clamp, clamp)
        else:
            mags = np.full((rows, dmax), np.inf)
            mags[checks, edge_slot] = np.abs(msg_v2c)
            ext_min = _reference_others(mags, np.minimum, np.inf)[checks, edge_slot]
            ext_min = np.where(np.isinf(ext_min), clamp, ext_min)  # degree-1 checks
            signs = np.where(msg_v2c < 0, -1.0, 1.0)
            sign_rows = np.ones((rows, dmax))
            sign_rows[checks, edge_slot] = signs
            ext_sign = sign_rows.prod(axis=1)[checks] * signs  # exact for +-1
            msg_c2v = np.clip(
                cfg.min_sum_scale * edge_sign * ext_sign * ext_min, -clamp, clamp
            )

        incoming = np.zeros(cols)
        np.add.at(incoming, vars_, msg_c2v)
        posterior = lam + incoming
        msg_v2c = np.clip(posterior[vars_] - msg_c2v, -clamp, clamp)

        correction = (posterior < 0).astype(np.uint8)
        converged = bool(np.array_equal(g.parity(correction), s))
        if converged and cfg.early_stop:
            break

    return DecodeResult(correction, converged, iterations, posterior)


@st.composite
def bp_instances(draw):
    """Random H with empty rows and columns, degree-1 checks and mixed row
    degrees; priors with p = 0 and 1/2; any syndrome; any BP settings."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = (rng.random((rows, cols)) < draw(st.sampled_from([0.2, 0.5, 0.9]))).astype(np.uint8)
    dense[:, rng.random(cols) < 0.15] = 0
    dense[rng.random(rows) < 0.2] = 0
    for i in np.flatnonzero(rng.random(rows) < 0.25):
        dense[i] = 0
        dense[i, rng.integers(cols)] = 1
    p = rng.choice([0.0, 0.001, 0.05, 0.2, 0.5], size=cols)
    s = rng.integers(0, 2, size=rows, dtype=np.uint8)
    cfg = BpConfig(variant=draw(st.sampled_from(["sum-product", "min-sum"])),
                   max_iterations=draw(st.integers(1, 8)),
                   llr_clamp=draw(st.sampled_from([0.5, 3.0, 30.0])),
                   early_stop=draw(st.booleans()))
    return make_problem(dense, p), s, cfg


@settings(max_examples=400, deadline=None)
@given(bp_instances())
def test_bp_matches_the_scatter_gather_reference(instance):
    problem, s, cfg = instance
    got, want = bp_decode(problem, s, cfg), _reference_bp(problem, s, cfg)
    assert np.array_equal(got.correction, want.correction)
    assert (got.converged, got.iterations_used) == (want.converged, want.iterations_used)
    assert np.array_equal(got.posterior_llr, want.posterior_llr)


def _others_before_scratch(rows, op, fill):
    """decoders._others before the per-call scratch, kept verbatim."""
    prefix, suffix = np.empty_like(rows), np.empty_like(rows)
    prefix[..., 0] = suffix[..., 0] = fill
    op.accumulate(rows[..., :-1], axis=-1, out=prefix[..., 1:])
    op.accumulate(rows[..., :0:-1], axis=-1, out=suffix[..., 1:])
    return op(prefix, suffix[..., ::-1], out=prefix)


@np.errstate(divide="ignore")
def _bp_before_scratch(problem, s, cfg=BpConfig()):
    """decoders.bp_decode before the per-call scratch, the pad fill and the
    convergence test on the posterior gather, kept verbatim."""
    g = problem.tanner
    rows, cols = g.shape
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.shape != (rows,):
        raise ValueError(f"syndrome length {s.size} does not match {rows} checks")
    clamp = cfg.llr_clamp
    lam = np.append(problem.prior.llr.clip(-clamp, clamp), 0.0)
    if g.col.size == 0:
        correction = (lam[:cols] < 0).astype(np.uint8)
        converged = bool(np.array_equal(g.parity(correction), s))
        return DecodeResult(correction, converged, 1, lam[:cols])

    real, pad_col, flat_col = g.real, g.pad_col, g.pad_col.ravel()
    sum_product = cfg.variant == "sum-product"
    sign = (1.0 - 2.0 * s)[:, None] * (2.0 if sum_product else cfg.min_sum_scale)
    msg_v2c = lam[pad_col]
    scan = np.full(msg_v2c.shape, 1.0 if sum_product else clamp)
    solves = parity_test(g, s)
    for iterations in range(1, cfg.max_iterations + 1):
        if sum_product:
            np.tanh(msg_v2c / 2.0, out=scan, where=real)
            extrinsic = _others_before_scratch(scan, np.multiply, 1.0)
            msg_c2v = sign * np.arctanh(extrinsic, out=extrinsic)
        else:
            np.abs(msg_v2c, out=scan, where=real)
            ext_min = _others_before_scratch(scan, np.minimum, clamp)
            signs = np.ones_like(msg_v2c)
            np.copysign(1.0, msg_v2c, out=signs, where=real)
            msg_c2v = sign * signs.prod(axis=1, keepdims=True) * signs
            msg_c2v *= ext_min
        _clip(msg_c2v, clamp)

        posterior = lam + np.bincount(flat_col, weights=msg_c2v.ravel(), minlength=cols + 1)
        _clip(np.subtract(posterior[pad_col], msg_c2v, out=msg_v2c), clamp)

        converged = solves(posterior[:cols] < 0)
        if converged and cfg.early_stop:
            break

    correction = (posterior[:cols] < 0).astype(np.uint8)
    return DecodeResult(correction, converged, iterations, posterior[:cols])


def _bp_outcome(result):
    return (result.correction.tobytes(), result.converged, result.iterations_used,
            result.posterior_llr.tobytes())


@settings(max_examples=300, deadline=None)
@given(bp_instances())
def test_bp_matches_the_version_before_the_scratch(instance):
    """Empty rows, degree-1 checks, p = 0 and 1/2: the same corrections,
    convergence, iteration counts and posterior bytes."""
    problem, s, cfg = instance
    assert _bp_outcome(bp_decode(problem, s, cfg)) == _bp_outcome(_bp_before_scratch(problem, s, cfg))


@pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
@pytest.mark.parametrize("early_stop", [True, False])
def test_bp_matches_the_version_before_the_scratch_on_surface_codes(variant, early_stop):
    cfg = BpConfig(variant=variant, early_stop=early_stop)
    seen = set()
    for d, p in (("5", 0.01), ("5", 0.08), ("9", 0.05)):
        for problem in depolarizing_problem(build_code(f"surface {d}"), p, "split-xz"):
            rng = np.random.default_rng(int(d) * 1000 + round(p * 100))
            for _ in range(15):
                s = problem.tanner.parity(rng.random(problem.h.cols) < p)
                new, old = bp_decode(problem, s, cfg), _bp_before_scratch(problem, s, cfg)
                assert _bp_outcome(new) == _bp_outcome(old)
                seen.add(new.converged)
    assert seen == {True, False}


def _others_before_plan(rows, op, fill, scratch=None):
    """decoders._others before the scan plan, kept verbatim: op over every
    other slot of the same row, for every slot.

    Exclusive prefix and suffix scans along the last axis, joined with
    op; fill is op's identity and pads short rows.  Each scan starts
    from fill in its first slot, which is exact: op(fill, x) == x.  A
    caller may pass the three arrays, shaped like rows, that hold the
    prefix, the suffix and the output, the first two starting with fill.
    """
    if scratch is None:
        scratch = np.full((3,) + rows.shape, fill, dtype=rows.dtype)
    prefix, suffix, out = scratch
    op.accumulate(rows[..., :-1], axis=-1, out=prefix[..., 1:])
    op.accumulate(rows[..., :0:-1], axis=-1, out=suffix[..., 1:])
    return op(prefix, suffix[..., ::-1], out=out)


@np.errstate(divide="ignore")  # arctanh(+-1) is +-inf, which the clamp then bounds
def _bp_before_plan(problem, s, cfg=BpConfig()):
    """decoders.bp_decode before the scan plan, the parity test only on a
    change and the set-up clip through _clip, kept verbatim: flooding BP
    on the Tanner graph of the problem's check matrix.

    Each round runs every check-to-bit update, then every bit-to-check
    update, hard-decides on the posterior sign (ties decide "no
    fault"), and tests the syndrome equation.
    """
    g = problem.tanner
    rows, cols = g.shape
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.shape != (rows,):
        raise ValueError(f"syndrome length {s.size} does not match {rows} checks")
    clamp = cfg.llr_clamp
    lam = np.append(problem.prior.llr.clip(-clamp, clamp), 0.0)  # 0 for the pads' column
    if g.col.size == 0:
        correction = (lam[:cols] < 0).astype(np.uint8)
        converged = bool(np.array_equal(g.parity(correction), s))
        return DecodeResult(correction, converged, 1, lam[:cols])

    # messages stay in g's padded (rows, dmax) layout: pads hold the scan's
    # identity, and their messages only reach the dummy column cols
    pads, pad_col, flat_col = g.pads, g.pad_col, g.pad_col.ravel()
    # the syndrome sign, and the factor 2 or the min-sum scale: exact multiplies
    sum_product = cfg.variant == "sum-product"
    sign = (1.0 - 2.0 * s)[:, None] * (2.0 if sum_product else cfg.min_sum_scale)
    msg_v2c = lam[pad_col]
    scan, signs = np.empty_like(msg_v2c), np.empty_like(msg_v2c)
    scratch = tuple(np.full((3,) + msg_v2c.shape, 1.0 if sum_product else clamp))
    # uint8 counts of a row's hard decisions keep its parity; an empty row's is 0
    ones, want = np.ones(pad_col.shape[1], dtype=np.uint8), s.tobytes()
    # max_iterations >= 1, so the loop binds every name it returns
    for iterations in range(1, cfg.max_iterations + 1):
        if sum_product:
            np.tanh(np.multiply(msg_v2c, 0.5, out=scan), out=scan)
            scan.put(pads, 1.0)
            extrinsic = _others_before_plan(scan, np.multiply, 1.0, scratch)
            msg_c2v = np.multiply(sign, np.arctanh(extrinsic, out=extrinsic), out=extrinsic)
        else:
            # |msg| <= clamp, so clamp is min's identity here and stands
            # in for the minimum over no other edge (degree-1 checks)
            np.abs(msg_v2c, out=scan)
            scan.put(pads, clamp)
            ext_min = _others_before_plan(scan, np.minimum, clamp, scratch)
            # copysign(1, -0.0) = -1 only flips the other edges' zero messages,
            # and -0 and +0 add and subtract alike into the posterior
            np.copysign(1.0, msg_v2c, out=signs)
            signs.put(pads, 1.0)
            msg_c2v = np.multiply(sign * np.multiply.reduce(signs, axis=1, keepdims=True),
                                  signs, out=signs)
            msg_c2v *= ext_min
        _clip(msg_c2v, clamp)

        # bincount adds each column's messages one at a time in row-major
        # edge order, so every sum is fixed to the bit by the graph alone
        posterior = np.bincount(flat_col, weights=msg_c2v.ravel(), minlength=cols + 1)
        posterior += lam
        posterior[cols] = 0.0  # pads read "no fault" in the gather below
        gathered = posterior[pad_col]
        _clip(np.subtract(gathered, msg_c2v, out=msg_v2c), clamp)

        # converged must describe the correction we return, so re-test
        # every round: without early stopping a later sweep may undo an
        # intermediate syndrome match
        converged = ((gathered < 0).view(np.uint8) @ ones & 1).tobytes() == want
        if converged and cfg.early_stop:
            break

    correction = (posterior[:cols] < 0).astype(np.uint8)
    return DecodeResult(correction, converged, iterations, posterior[:cols])


@settings(max_examples=300, deadline=None)
@given(bp_instances())
def test_bp_matches_the_version_before_the_plan(instance):
    """Empty rows, degree-1 checks, rows of 1 to 10 edges, p = 0 and 1/2:
    the same corrections, convergence, iteration counts and posterior bytes."""
    problem, s, cfg = instance
    assert _bp_outcome(bp_decode(problem, s, cfg)) == _bp_outcome(_bp_before_plan(problem, s, cfg))


@pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
@pytest.mark.parametrize("early_stop", [True, False])
def test_bp_matches_the_version_before_the_plan_on_larger_codes(variant, early_stop):
    """Split-xz surface 5 and 9 syndromes, converging or not, and an hgp code
    whose checks have more than four edges."""
    cfg = BpConfig(variant=variant, early_stop=early_stop)
    seen, dmax = set(), set()
    for code, p in (("surface 5", 0.08), ("surface 9", 0.05), ("hgp hamming transpose hamming", 0.05)):
        for problem in depolarizing_problem(build_code(code), p, "split-xz"):
            dmax.add(problem.tanner.pad_col.shape[1])
            rng = np.random.default_rng(problem.h.cols)
            for _ in range(15):
                s = problem.tanner.parity(rng.random(problem.h.cols) < p)
                new, old = bp_decode(problem, s, cfg), _bp_before_plan(problem, s, cfg)
                assert _bp_outcome(new) == _bp_outcome(old)
                seen.add(new.converged)
    assert seen == {True, False} and max(dmax) > 4


@pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
@pytest.mark.parametrize("early_stop", [True, False])
def test_bp_keeps_the_last_parity_while_the_hard_decision_repeats(variant, early_stop):
    """A 1 on an empty check never converges, and a zero syndrome converges
    every round; both hard decisions hold still from the first round on, so
    later rounds reuse the first round's parity test."""
    problem = make_problem(np.array([[1, 1, 0], [0, 1, 1], [0, 0, 0]]), 0.1)
    for s, converged in (([0, 0, 1], False), ([0, 0, 0], True)):
        s = np.array(s, dtype=np.uint8)
        runs = [bp_decode(problem, s, BpConfig(variant=variant, early_stop=False, max_iterations=n))
                for n in range(1, 6)]
        assert {r.correction.tobytes() for r in runs} == {bytes(3)}
        assert [r.converged for r in runs] == [converged] * 5
        cfg = BpConfig(variant=variant, early_stop=early_stop, max_iterations=5)
        assert _bp_outcome(bp_decode(problem, s, cfg)) == _bp_outcome(_bp_before_plan(problem, s, cfg))


@pytest.mark.parametrize("d", range(1, 8))
def test_scan_plan_reruns_on_its_buffers(d):
    """Three steps per inner slot (a row of two or one: one per slot), all on
    views, so rerunning the plan after rows change gives the new answer."""
    rows = np.arange(1.0, 3 * d + 1).reshape(3, d)  # small integers multiply exactly
    out, steps = _scan_plan(rows, 1.0)
    assert len(steps) == (3 * (d - 2) if d > 2 else d)
    for _ in range(2):
        for a, b, o in steps:
            np.multiply(a, b, out=o)
        assert np.array_equal(out, _brute_others(rows, np.prod, 1.0))
        rows[:] = rows[::-1, ::-1] - 2.0


@np.errstate(divide="ignore")  # arctanh(+-1) is +-inf, which the clamp then bounds
def _bp_before_batch(problem, s, cfg=BpConfig()):
    """decoders.bp_decode before the batch, kept verbatim: flooding BP on
    the Tanner graph of the problem's check matrix, one syndrome per call.

    Each round runs every check-to-bit update, then every bit-to-check
    update, hard-decides on the posterior sign (ties decide "no
    fault"), and tests the syndrome equation.
    """
    g = problem.tanner
    rows, cols = g.shape
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.shape != (rows,):
        raise ValueError(f"syndrome length {s.size} does not match {rows} checks")
    clamp = cfg.llr_clamp
    lam = np.zeros(cols + 1)  # 0 for the pads' column
    lam[:cols] = problem.prior.llr
    _clip(lam, clamp)
    if g.col.size == 0:
        correction = (lam[:cols] < 0).astype(np.uint8)
        converged = bool(np.array_equal(g.parity(correction), s))
        return DecodeResult(correction, converged, 1, lam[:cols])

    # messages stay in g's padded (rows, dmax) layout: pads hold the scan's
    # identity, and their messages only reach the dummy column cols
    pads, pad_col, flat_col = g.pads, g.pad_col, g.pad_col.ravel()
    # the syndrome sign, and the factor 2 or the min-sum scale: exact multiplies
    sum_product = cfg.variant == "sum-product"
    sign = (1.0 - 2.0 * s)[:, None] * (2.0 if sum_product else cfg.min_sum_scale)
    # |msg| <= clamp, so clamp is min's identity here and stands in for
    # the minimum over no other edge (degree-1 checks)
    op, fill = (np.multiply, 1.0) if sum_product else (np.minimum, clamp)
    msg_v2c = lam[pad_col]
    scan, signs = np.empty_like(msg_v2c), np.empty_like(msg_v2c)
    extrinsic, plan = _scan_plan(scan, fill)
    # uint8 counts of a row's hard decisions keep its parity; an empty row's is 0
    ones, want, tested = np.ones(pad_col.shape[1], dtype=np.uint8), s.tobytes(), None
    # max_iterations >= 1, so the loop binds every name it returns
    for iterations in range(1, cfg.max_iterations + 1):
        if sum_product:
            np.tanh(np.multiply(msg_v2c, 0.5, out=scan), out=scan)
        else:
            np.abs(msg_v2c, out=scan)
        scan.put(pads, fill)
        for a, b, o in plan:
            op(a, b, out=o)
        if sum_product:
            msg_c2v = np.multiply(sign, np.arctanh(extrinsic, out=extrinsic), out=extrinsic)
        else:
            # copysign(1, -0.0) = -1 only flips the other edges' zero messages,
            # and -0 and +0 add and subtract alike into the posterior
            np.copysign(1.0, msg_v2c, out=signs)
            signs.put(pads, 1.0)
            msg_c2v = np.multiply(sign * np.multiply.reduce(signs, axis=1, keepdims=True),
                                  signs, out=signs)
            msg_c2v *= extrinsic
        _clip(msg_c2v, clamp)

        # bincount adds each column's messages one at a time in row-major
        # edge order, so every sum is fixed to the bit by the graph alone
        posterior = np.bincount(flat_col, weights=msg_c2v.ravel(), minlength=cols + 1)
        posterior += lam
        posterior[cols] = 0.0  # pads read "no fault" in the gather below
        gathered = posterior[pad_col]
        _clip(np.subtract(gathered, msg_c2v, out=msg_v2c), clamp)

        # converged must describe the correction we return, so it is kept
        # for every round: without early stopping a later sweep may undo an
        # intermediate syndrome match.  It depends on the hard decisions
        # alone, so they are tested only when they change.
        hard = gathered < 0
        if (key := hard.tobytes()) != tested:
            tested, converged = key, (hard.view(np.uint8) @ ones & 1).tobytes() == want
        if converged and cfg.early_stop:
            break

    correction = (posterior[:cols] < 0).astype(np.uint8)
    return DecodeResult(correction, converged, iterations, posterior[:cols])


@st.composite
def bp_batches(draw):
    """A random sparse H with empty rows and columns and checks of degree 1,
    2 and more (every _scan_plan branch), priors near 0 and 1/2, either
    variant, early stopping or not, 1, 2 or 32 rounds, and a batch of 1 to
    40 syndromes that repeats some of its rows."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for i, degree in enumerate(rng.choice([0, 1, 2, 3, 5], size=rows)):
        dense[i, rng.choice(cols, size=min(degree, cols), replace=False)] = 1
    dense[:, rng.random(cols) < 0.15] = 0
    p = rng.choice([1e-9, 1e-3, 0.05, 0.3, 0.499, 0.5], size=cols)
    n = draw(st.integers(1, 40))
    distinct = rng.integers(0, 2, size=(draw(st.integers(1, n)), rows), dtype=np.uint8)
    s = distinct[rng.integers(0, len(distinct), size=n)]
    cfg = BpConfig(variant=draw(st.sampled_from(["sum-product", "min-sum"])),
                   max_iterations=draw(st.sampled_from([1, 2, 32])),
                   early_stop=draw(st.booleans()))
    return make_problem(dense, p), s, cfg


@settings(max_examples=300, deadline=None)
@given(bp_batches())
def test_bp_batch_matches_the_single_syndrome_loop(instance):
    """Each row of a batch gets the correction, convergence flag, iteration
    count and posterior bytes of the loop that decoded one syndrome a call."""
    problem, s, cfg = instance
    c, converged, iterations, posteriors = decoders.bp_batch(problem, s, cfg)
    assert c.shape == posteriors.shape == (len(s), problem.h.cols) and c.dtype == np.uint8
    for i, row in enumerate(s):
        got = DecodeResult(c[i], bool(converged[i]), int(iterations[i]), posteriors[i])
        assert _bp_outcome(got) == _bp_outcome(_bp_before_batch(problem, row, cfg))
        assert _bp_outcome(bp_decode(problem, row, cfg)) == _bp_outcome(got)


def test_bp_batch_takes_a_batch_of_rows():
    problem = make_problem(np.array([[1, 1, 0], [0, 1, 1]]), 0.1)
    with pytest.raises(ValueError):
        decoders.bp_batch(problem, np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        decoders.bp_batch(problem, np.zeros((4, 3), dtype=np.uint8))
    c, converged, iterations, posteriors = decoders.bp_batch(problem, np.zeros((0, 2), np.uint8))
    assert c.shape == posteriors.shape == (0, 3) and converged.size == iterations.size == 0


@np.errstate(divide="ignore")  # arctanh(+-1) is +-inf, which the clamp then bounds
def _bp_batch_before_the_drop(problem, s, cfg=BpConfig()):
    """decoders.bp_batch before each solved row left at once, kept
    verbatim (with _clip and the parity as a uint8 product): flooding BP
    on the Tanner graph of the problem's check matrix for each row of the
    (n, rows) syndromes s: (corrections, converged, iterations,
    posteriors), row i answering s[i] with the bits a batch of one gives.

    Each round runs every check-to-bit update, then every bit-to-check
    update, hard-decides on the posterior sign (ties decide "no fault"),
    and tests each row's syndrome equation.  Under early_stop a row that
    matches keeps that round's answer; the arrays drop such rows once
    half of theirs are.
    """
    g = problem.tanner
    rows, cols = g.shape
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.ndim != 2 or s.shape[1] != rows:
        raise ValueError(f"syndromes of shape {s.shape} do not match {rows} checks")
    n, clamp = len(s), cfg.llr_clamp
    lam = np.zeros(cols + 1)  # 0 for the pads' column
    lam[:cols] = problem.prior.llr
    _clip(lam, clamp)
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
    # uint8 counts of a row's hard decisions keep its parity; an empty row's is 0
    ones, tested = np.ones(dmax, dtype=np.uint8), None
    live, done, keep, plan = np.arange(n), np.zeros(n, dtype=bool), slice(None), None
    for iteration in range(1, cfg.max_iterations + 1):
        if plan is None:  # the first round, or half the rows are done: drop them
            live, s, sign, msg_v2c, done = live[keep], s[keep], sign[keep], msg_v2c[keep], done[keep]
            # a round works on (live rows x rows, dmax) views, whose slot
            # views are 1-D as for one syndrome
            v2c, row_sign, b = msg_v2c.reshape(-1, dmax), sign.reshape(-1, 1), live.size
            scan, signs = np.empty_like(v2c), None if sum_product else np.empty_like(v2c)
            extrinsic, plan = _scan_plan(scan, fill)
            # row i's pads, and its bins i (cols + 1) + [0, cols]
            pads = (g.pads + np.arange(0, v2c.size, pad_col.size)[:, None]).ravel()
            at = (pad_col + np.arange(0, b * (cols + 1), cols + 1)[:, None, None]).reshape(-1, dmax)
            flat_at, lam_b = at.ravel(), np.tile(lam, b)
            weights = (extrinsic if sum_product else signs).ravel()  # msg_c2v's buffer
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
        _clip(msg_c2v, clamp)

        # bincount adds each column's messages one at a time in row-major
        # edge order, so every sum is fixed to the bit by the graph alone
        posterior = np.bincount(flat_at, weights=weights, minlength=lam_b.size)
        posterior += lam_b
        posterior[cols::cols + 1] = 0.0  # pads read "no fault" in the gather below
        # scan is free until the next round; "clip" lets take skip its bounds buffer
        gathered = posterior.take(at, out=scan, mode="clip")
        _clip(np.subtract(gathered, msg_c2v, out=v2c), clamp)

        # converged must describe the correction we return, so it is kept
        # for every round: without early stopping a later sweep may undo an
        # intermediate syndrome match.  It depends on the hard decisions
        # alone, so they are tested only when one of them changes.
        hard = gathered < 0
        if (key := hard.tobytes()) == tested:
            continue
        parity = (hard.view(np.uint8) @ ones & 1).reshape(b, -1)
        tested, solved = key, (parity == s).all(axis=1)
        if cfg.early_stop and solved.any():
            posteriors[live[solved]] = posterior.reshape(b, -1)[solved, :cols]
            converged[live[solved]], iterations[live[solved]] = True, iteration
            # a parity is 0 or 1, so a done row never matches again
            s[solved], tested, done = 2, None, done | solved
            if done.all():
                break
            if 2 * np.count_nonzero(done) >= b:
                keep, plan = ~done, None
    rest = ~done  # the rows that ran every round
    posteriors[live[rest]] = posterior.reshape(b, -1)[rest, :cols]
    converged[live[rest]] = solved[rest]
    return (posteriors < 0).view(np.uint8), converged, iterations, posteriors


def _bp_batch_outcome(out):
    """bp_batch's four arrays as bytes, their dtypes and shapes."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in out]


def _surface_batch(problem, n, seed):
    """n syndromes of split-xz errors at rates 0.01 to 0.15, so rows converge
    in different rounds or never, with repeated and all-zero rows."""
    rng = np.random.default_rng(seed)
    p = rng.choice([0.0, 0.01, 0.05, 0.1, 0.15], size=(n, 1))
    s = problem.tanner.parity((rng.random((n, problem.h.cols)) < p).view(np.uint8))
    return s[rng.integers(0, n, size=n)] if n > 3 else s  # repeats


def _empty_row_problem():
    """Surface 3's Z side with an empty check appended: a 1 there never converges."""
    h = depolarizing_problem(build_code("surface 3"), 0.05, "split-xz")[1].h.to_dense()
    return make_problem(np.vstack([h, np.zeros((1, h.shape[1]), dtype=np.uint8)]), 0.05)


@pytest.mark.parametrize("code", ["surface 3", "surface 5", "surface 9", "empty row"])
@pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("max_iterations", [1, 2, 32])
def test_bp_batch_matches_the_batch_before_the_drop(code, variant, early_stop, max_iterations):
    """Batches of 1 to 128 rows: the same corrections, convergence flags,
    iteration counts and posterior bytes as the loop that kept solved rows
    until half of them were."""
    cfg = BpConfig(variant=variant, early_stop=early_stop, max_iterations=max_iterations)
    problems = ([_empty_row_problem()] if code == "empty row"
                else depolarizing_problem(build_code(code), 0.05, "split-xz"))
    for problem, n in itertools.product(problems, (1, 2, 17, 128)):
        s = _surface_batch(problem, n, n)
        if code == "empty row":
            s[::3, -1] = 1
        got = decoders.bp_batch(problem, s, cfg)
        assert _bp_batch_outcome(got) == _bp_batch_outcome(_bp_batch_before_the_drop(problem, s, cfg))


@settings(max_examples=200, deadline=None)
@given(bp_batches())
def test_bp_batch_matches_the_batch_before_the_drop_on_random_graphs(instance):
    problem, s, cfg = instance
    want = _bp_batch_before_the_drop(problem, s, cfg)
    assert _bp_batch_outcome(decoders.bp_batch(problem, s, cfg)) == _bp_batch_outcome(want)


@pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
@pytest.mark.parametrize("early_stop", [True, False])
def test_bp_batch_rounds_run_only_the_unsolved_rows(monkeypatch, variant, early_stop):
    """The rows in each round's scan, summed over the rounds, equal the
    rows' summed iterations: a row leaves the round after the one that
    solves it, and a batch of 128 rows runs as one."""
    problem = depolarizing_problem(build_code("surface 9"), 0.05, "split-xz")[1]
    plan, live = decoders._scan_plan, []

    def spied(x, fill):
        out, steps = plan(x, fill)

        class Steps(list):  # iterated once per round
            def __iter__(self):
                live.append(len(x) // problem.h.rows)
                return super().__iter__()

        return out, Steps(steps)

    monkeypatch.setattr(decoders, "_scan_plan", spied)
    s = _surface_batch(problem, 128, 5)
    _, converged, iterations, _ = decoders.bp_batch(problem, s, BpConfig(variant=variant,
                                                                         early_stop=early_stop))
    assert live[0] == 128 and live == sorted(live, reverse=True)
    assert sum(live) == iterations.sum()
    assert converged.any() and not converged.all()
    if not early_stop:
        assert live == [128] * 32


def test_success_returns_shared_frozen_reports():
    """Each outcome is one module-level report, equal to a freshly built one."""
    problem = depolarizing_problem(build_code("surface 3"), 0.1, "split-xz")[0]
    zero = np.zeros(problem.h.cols, dtype=np.uint8)
    kernel = problem.h.kernel_basis().to_dense()
    logical = kernel[(kernel @ problem.l.to_dense().T % 2).any(axis=1)][0]  # a wrong class
    flip = zero.copy()
    flip[0] = 1
    for (c, e), want in (((zero, zero), SuccessReport(valid=True, success=True)),
                         ((logical, zero), SuccessReport(valid=True, success=False)),
                         ((flip, zero), SuccessReport(valid=False, success=False))):
        report = success(c, e, problem)
        assert report == want and report is success(e, c, problem)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.valid = not report.valid
        assert report == want


# -- ordered statistics ------------------------------------------------------


def test_osd0_zero_syndrome():
    h = hamming74().h
    c = osd0(h, np.zeros(3, dtype=np.uint8), np.arange(7, dtype=float))
    assert not c.any()


def test_osd0_follows_the_ranking():
    h = hamming74().h
    e5 = np.zeros(7, dtype=np.uint8)
    e5[5] = 1
    s = h.matvec(e5)
    soft = np.full(7, 5.0)
    soft[5] = -1.0
    assert np.array_equal(osd0(h, s, soft), e5)


def test_osd0_unsatisfiable():
    h = F2Matrix.from_dense([[1, 1], [1, 1]])
    with pytest.raises(Unsatisfiable):
        osd0(h, np.array([1, 0], dtype=np.uint8), np.zeros(2))


def _sweep(h, s, soft, w):
    """Every candidate the order-w sweep scores: the OSD-0 solution, then
    each new prefix-row and kernel-row pair of each step XORed."""
    _, _, flips = _osd_prepare(h, s, soft)
    yield flips[-1]
    for x, k, new, _, _ in _osd_steps(flips, np.abs(soft), w):
        for b, j in zip(*np.nonzero(new)):
            yield x[b] ^ k[j]


def test_every_reprocessing_candidate_satisfies_syndrome():
    rng = np.random.default_rng(43)
    for _ in range(10):
        h = F2Matrix.from_dense(rng.integers(0, 2, (8, 16), dtype=np.uint8))
        e = rng.integers(0, 2, 16, dtype=np.uint8)
        s = h.matvec(e)
        soft = rng.normal(size=16)
        seen = 0
        for c in _sweep(h, s, soft, 2):
            assert np.array_equal(h.matvec(c), s)
            seen += 1
        assert seen == 1 + 16 - h.rank() + math.comb(16 - h.rank(), 2)


def test_reprocessing_beats_osd0_on_dependent_columns():
    # top-ranked columns solve s only at weight 2; the third column
    # alone is the true minimum-weight solution
    h = F2Matrix.from_dense([[1, 0, 1], [0, 1, 1]])
    s = np.array([1, 1], dtype=np.uint8)
    soft = np.zeros(3)
    assert int(osd0(h, s, soft).sum()) == 2
    best = osd_w(h, s, soft, 1)
    assert best.tolist() == [0, 0, 1]


def test_osd_patterns_stay_one_block_in_memory():
    # 2,001,001 patterns over 2,000 free columns; the first weight-2
    # blocks must not cost memory of order the pair count (32 MB of
    # index pairs), only of order one block
    tracemalloc.start()
    try:
        blocks = list(itertools.islice(_patterns(2000, 2), 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(b) for b in blocks] == [1, 512, 512, 512, 464, 512, 512, 512]
    assert blocks[-1][0].tolist() == [0, 1025] and blocks[-1].shape == (512, 2)
    assert peak < 1_000_000


def test_osd_candidate_guard():
    h = F2Matrix.from_dense(np.ones((1, 40), dtype=np.uint8))
    with pytest.raises(CapacityExceeded):
        osd_w(h, np.array([1], dtype=np.uint8), np.zeros(40), 7)


def _osd_w_loop(h, s, soft, w):
    """Reference order-w sweep: one correction built per candidate."""
    pivots, free, rows = _osd_prepare(h, s, soft)
    base, coupling = rows[-1, pivots], rows[:-1][:, pivots].T
    reliability = np.abs(np.asarray(soft, dtype=np.float64))
    best_key, best = None, None
    for weight in range(0, min(w, free.size) + 1):
        for subset in itertools.combinations(range(free.size), weight):
            c = np.zeros(h.cols, dtype=np.uint8)
            bits = base.copy()
            for j in subset:
                bits ^= coupling[:, j]
                c[free[j]] = 1
            c[pivots] = bits
            key = (float(reliability[c == 1].sum()), int(c.sum()), c.tobytes())
            if best_key is None or key < best_key:
                best_key, best = key, c
    return best


_decimals = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 2.2, 3.3])


@st.composite
def osd_instances(draw):
    """Satisfiable (H, s, soft, w) with exact ties, rounding and infinities."""
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 11))
    h = F2Matrix.from_dense(draw(arrays(np.uint8, (r, c), elements=st.integers(0, 1))))
    e = draw(arrays(np.uint8, c, elements=st.integers(0, 1)))
    magnitude = draw(st.sampled_from([
        st.integers(-3, 3).map(float),                    # integer sums tie exactly
        st.builds(lambda d, sign: sign * d, _decimals, st.sampled_from([-1.0, 1.0])),
        st.floats(-5, 5) | st.sampled_from([np.inf, -np.inf]),
    ]))
    soft = np.array(draw(st.lists(magnitude, min_size=c, max_size=c)))
    return h, h.matvec(e), soft, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(osd_instances())
@example((F2Matrix.from_dense([[1, 0, 1], [0, 1, 1]]), np.array([1, 1], dtype=np.uint8),
          np.array([-0.1, -0.2, -0.3]), 1))  # 0.1 + 0.2 weighs more than 0.3
@example((F2Matrix.from_dense([[1, 0, 1, 1, 1, 1, 1], [1, 1, 0, 1, 1, 0, 1],
                               [0, 0, 0, 1, 1, 1, 0], [0, 0, 0, 0, 1, 1, 0],
                               [1, 0, 1, 1, 1, 1, 0], [0, 1, 1, 1, 1, 0, 0]]),
          np.array([0, 1, 0, 0, 1, 1], dtype=np.uint8),
          np.array([0.1, 0.3, -0.7, -0.2, 0.1, 0.2, -0.2]), 1))  # block sum and key round apart
@example((F2Matrix.from_dense([[1, 0, 1, 1], [0, 1, 1, 0]]), np.array([1, 1], dtype=np.uint8),
          np.array([np.inf, -1.0, np.inf, 2.0]), 2))
@example((F2Matrix.from_dense([[1, 0, 1, 1], [0, 1, 1, 0]]), np.array([1, 1], dtype=np.uint8),
          np.array([-np.inf, np.inf, 0.5, -np.inf]), 2))
def test_osd_w_matches_the_candidate_loop(instance):
    h, s, soft, w = instance
    assert np.array_equal(osd_w(h, s, soft, w), _osd_w_loop(h, s, soft, w))


@settings(max_examples=300, deadline=None)
@given(osd_instances(), st.sampled_from(["all", "most", "huge"]))
def test_osd_w_matches_the_candidate_loop_where_no_bound_prunes(instance, kind):
    """Every |soft| infinite, all but every third, or so large that sums
    overflow: the OSD-0 key and most costs are inf, and the key-minimum is
    still the candidate loop's."""
    h, s, soft, w = instance
    soft = np.where(soft < 0, -1.0, 1.0) * {
        "all": np.inf,
        "most": np.where(np.arange(soft.size) % 3, np.inf, np.abs(soft) + 1.0),
        "huge": np.abs(soft) * 1e307 + 1e308,
    }[kind]
    with np.errstate(over="ignore"):  # the loop's sums overflow where soft is huge
        assert np.array_equal(osd_w(h, s, soft, w), _osd_w_loop(h, s, soft, w))


@pytest.mark.parametrize("f", [30, 200])
def test_osd_w_keys_only_the_fewest_ones_among_infinite_weights(monkeypatch, f):
    """On the 1 x (f + 1) all-ones H with every |soft| infinite, order 2 has
    1 + f + f (f - 1) / 2 candidates; only the OSD-0 solution and the f of
    Hamming weight 1 can win, and about that many are keyed."""
    h, s = F2Matrix.from_dense(np.ones((1, f + 1), dtype=np.uint8)), np.array([1], np.uint8)
    keyed, key = [], decoders._osd_key
    monkeypatch.setattr(decoders, "_osd_key", lambda c, r: keyed.append(1) or key(c, r))
    for soft in (np.full(f + 1, np.inf), -np.full(f + 1, np.inf)):
        keyed.clear()
        got = osd_w(h, s, soft, 2)
        assert len(keyed) <= 2 * (f + 1) < 1 + f + math.comb(f, 2)
        if f <= 30:
            assert np.array_equal(got, _osd_w_loop(h, s, soft, 2))
        assert got.sum() == 1


def test_osd_w_prunes_where_finite_sums_overflow(monkeypatch):
    """On the 1 x 201 all-ones H every |soft| = 1e308 overflows any sum of two;
    the costs scaled by a power of two still prune the 19,900 candidates of
    three ones, whose keys are inf, and the answer is the candidate loop's."""
    h, s = F2Matrix.from_dense(np.ones((1, 201), dtype=np.uint8)), np.array([1], np.uint8)
    keyed, key = [], decoders._osd_key
    monkeypatch.setattr(decoders, "_osd_key", lambda c, r: keyed.append(1) or key(c, r))
    for soft in (np.full(201, 1e308), -np.full(201, 1e308)):
        keyed.clear()
        got = osd_w(h, s, soft, 2)
        assert len(keyed) <= 2 * 201
        with np.errstate(over="ignore"):
            assert np.array_equal(got, _osd_w_loop(h, s, soft, 2))


def test_osd_w_keeps_candidates_whose_keys_overflow_alike():
    """{2, 3} weighs less than {3, 4}, but both sums overflow to inf, so the
    key ranks them by ones, then bytes: {3, 4} wins, and a bound past the
    largest double must not prune it."""
    h = F2Matrix.from_dense([[1, 0, 0, 1, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
    s = np.array([1, 1, 1], dtype=np.uint8)
    soft = np.array([0.9e308, 0.9e308, 0.9e308, 1.79e308, 1.79e308])
    with np.errstate(over="ignore"):
        expected = _osd_w_loop(h, s, soft, 3)
    assert np.flatnonzero(expected).tolist() == [3, 4]
    assert np.array_equal(osd_w(h, s, soft, 3), expected)


@settings(max_examples=200, deadline=None)
@given(osd_instances())
@example((F2Matrix.from_dense([[1, 0, 1, 1], [0, 1, 1, 0]]), np.array([1, 1], dtype=np.uint8),
          np.array([-np.inf, np.inf, 0.5, -np.inf]), 0))
def test_osd_w_zero_equals_osd0(instance):
    # osd_w returns osd0 at order 0; the block sweep it skips has that
    # solution as its only candidate
    h, s, soft, _ = instance
    swept, = _sweep(h, s, soft, 0)
    assert np.array_equal(osd_w(h, s, soft, 0), osd0(h, s, soft))
    assert np.array_equal(osd0(h, s, soft), swept)


# -- the order-w sweep against the parent's candidate blocks -----------------


def _parent_patterns(f: int, w: int):
    """Subsets of range(f) of at most w elements, in the order of
    itertools.combinations, as (<= OSD_BLOCK, weight) index blocks."""
    yield np.zeros((1, 0), dtype=np.intp)
    for weight in range(1, min(w, f) + 1):
        combos = itertools.combinations(range(f), weight)
        while (flat := np.fromiter(itertools.chain.from_iterable(
                itertools.islice(combos, 512)), np.intp)).size:
            yield flat.reshape(-1, weight)


def _parent_osd_blocks(h, s, soft, w):
    """Yield every order-w candidate in blocks (corrections, approximate soft weights)."""
    _, free, flips = _osd_prepare(h, s, soft)
    total = sum(math.comb(free.size, i) for i in range(0, w + 1))
    if total > decoders.OSD_CANDIDATE_GUARD:
        raise CapacityExceeded(
            f"{total} reprocessing candidates exceed {decoders.OSD_CANDIDATE_GUARD}"
        )
    reliability = np.abs(np.asarray(soft, dtype=np.float64))
    infinite = np.isinf(reliability)
    finite = np.where(infinite, 0.0, reliability)  # 0 * inf would be NaN in the sum
    for idx in _parent_patterns(free.size, w):
        c = np.repeat(flips[-1:], len(idx), axis=0)
        for j in idx.T:
            c ^= flips[j]
        cost = np.einsum("ij,j->i", c, finite)  # no float64 copy of c, unlike c @ finite
        cost[c[:, infinite].any(axis=1)] = np.inf
        yield c, cost


def _parent_osd_w(h, s, soft, w):
    """The parent's osd_w: every candidate built, OSD_BLOCK at a time."""
    if w < 0:
        raise ValueError("need w >= 0")
    if w == 0:  # the sweep's only candidate is the osd0 solution
        return osd0(h, s, soft)
    reliability = np.abs(np.asarray(soft, dtype=np.float64))
    near = (c for block, cost in _parent_osd_blocks(h, s, soft, w)
            for c in block[cost <= cost.min() * (1 + h.cols * 2.0**-50)])
    return min(near, key=lambda c: (float(reliability[c == 1].sum()), int(c.sum()), c.tobytes()))


def _assert_same_as_parent(h, s, soft, w):
    try:
        with np.errstate(over="ignore"):  # the parent warns where huge soft sums overflow
            expected = _parent_osd_w(h, s, soft, w)
    except CapacityExceeded:
        with pytest.raises(CapacityExceeded):
            osd_w(h, s, soft, w)
        return
    got = osd_w(h, s, soft, w)
    assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


@pytest.fixture(scope="module")
def surface9_osd_inputs():
    """(h, s, soft) of every osd_w call bp_osd makes on surface 9, split-xz,
    p = 0.05, in 40 trials at each of seeds 3 and 11."""
    inputs = []
    osd = decoders.osd_w

    def recorded(h, s, soft, w):
        inputs.append((h, np.array(s), np.array(soft)))
        return osd(h, s, soft, w)

    with mock.patch.object(decoders, "osd_w", recorded):
        for seed in (3, 11):
            run_benchmark(BenchmarkConfig(code="surface 9", noise="split-xz", decoder="bp+osd 1",
                                          rates=(0.05,), trials=40, seed=seed))
    return inputs


@pytest.mark.parametrize("w", [0, 1, 2, 3])
def test_osd_w_matches_the_parent_on_surface9_bp_osd_inputs(surface9_osd_inputs, w):
    """At w = 0, OSD-0's whole coset equals the elimination path's."""
    assert len(surface9_osd_inputs) >= 20
    for h, s, soft in surface9_osd_inputs:
        if w == 0:
            expected = reference_coset(h, s, np.argsort(soft, kind="stable"))
            got = _osd_prepare(h, s, soft)
            assert ([(a.dtype, a.shape, a.tobytes()) for a in got]
                    == [(a.dtype, a.shape, a.tobytes()) for a in expected])
            assert osd0(h, s, soft).tobytes() == expected[2][-1].tobytes()
        _assert_same_as_parent(h, s, soft, w)


@st.composite
def sweep_instances(draw):
    """Satisfiable (H, s, soft, w, step) from a seeded generator: integer soft
    (exact ties), zeros, +-inf, all-infinite soft, and OSD_STEP values whose
    scoring steps split the prefixes and the kernel rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 14))
    h = F2Matrix.from_dense(rng.integers(0, 2, (r, c), dtype=np.uint8))

    def huge():  # sums past float64's range; a draw past about 3.6 overflows to inf
        with np.errstate(over="ignore"):
            return rng.normal(size=c) * 5e307

    soft = {
        "integer": lambda: rng.integers(-3, 4, c).astype(float),
        "zeros": lambda: np.zeros(c),
        "normal": lambda: rng.normal(size=c),
        "some infinite": lambda: np.where(rng.random(c) < 0.3, np.inf, rng.integers(-2, 3, c))
        * rng.choice([-1.0, 1.0], c),
        "all infinite": lambda: rng.choice([-np.inf, np.inf], c),
        "huge": huge,
    }[draw(st.sampled_from(["integer", "zeros", "normal", "some infinite", "all infinite",
                            "huge"]))]()
    step = draw(st.sampled_from([decoders.OSD_STEP, 1, 2 * c, 5 * c]))
    return h, h.matvec(rng.integers(0, 2, c, dtype=np.uint8)), soft, draw(st.integers(1, 3)), step


@settings(max_examples=300, deadline=None)
@given(sweep_instances())
def test_osd_w_matches_the_parent_across_step_sizes(instance):
    h, s, soft, w, step = instance
    with mock.patch.object(decoders, "OSD_STEP", step):
        _assert_same_as_parent(h, s, soft, w)


@pytest.mark.parametrize("soft_kind", ["normal", "integer", "some infinite"])
@pytest.mark.parametrize("shape", [(1, 601), (3, 520)])
@pytest.mark.parametrize("w", [1, 2])
def test_osd_w_matches_the_parent_past_one_pattern_block(soft_kind, shape, w):
    # f > OSD_BLOCK free columns, so both the prefixes and the kernel rows
    # take several scoring steps at the default OSD_STEP
    rng = np.random.default_rng(shape[1])
    h = F2Matrix.from_dense(rng.integers(0, 2, shape, dtype=np.uint8) | (shape[0] == 1))
    assert h.cols - h.rank() > decoders.OSD_BLOCK
    soft = {
        "normal": rng.normal(size=h.cols),
        "integer": rng.integers(-9, 10, h.cols).astype(float),
        "some infinite": np.where(rng.random(h.cols) < 0.1, -np.inf, rng.normal(size=h.cols)),
    }[soft_kind]
    _assert_same_as_parent(h, h.matvec(rng.integers(0, 2, h.cols, dtype=np.uint8)), soft, w)


def test_osd_w_past_the_free_column_count_costs_nothing_more():
    h = F2Matrix.from_dense(np.random.default_rng(5).integers(0, 2, (4, 12), dtype=np.uint8))
    s = h.matvec(np.eye(12, dtype=np.uint8)[3])
    soft = np.random.default_rng(6).normal(size=12)
    start = time.perf_counter()
    assert np.array_equal(osd_w(h, s, soft, 10**12), osd_w(h, s, soft, 12 - h.rank()))
    assert time.perf_counter() - start < 0.5


def test_osd_w_without_columns_returns_the_empty_correction():
    h = F2Matrix.from_dense(np.zeros((2, 0), dtype=np.uint8))
    assert osd_w(h, np.zeros(2, dtype=np.uint8), np.zeros(0), 2).shape == (0,)


def test_osd_w_order_two_stays_within_twice_the_candidate_blocks():
    # the parent, building each block of 512 candidates, peaked at 1.34 MB here
    h = F2Matrix.from_dense(np.ones((1, 601), dtype=np.uint8))
    s, soft = np.array([1], dtype=np.uint8), np.random.default_rng(601).normal(size=601)
    tracemalloc.start()
    try:
        osd_w(h, s, soft, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1_340_000


@st.composite
def prepare_instances(draw):
    """Satisfiable (H, s, soft) across the 64-bit word boundary of [H | s],
    rank-deficient H included."""
    c = draw(st.sampled_from([1, 7, 63, 64, 65]))
    r = draw(st.integers(0, 8))
    h = draw(arrays(np.uint8, (r, c), elements=st.integers(0, 1)))
    if r >= 2 and draw(st.booleans()):
        h[-1] = h[0] ^ h[1]  # a dependent row
    h = F2Matrix.from_dense(h)
    e = draw(arrays(np.uint8, c, elements=st.integers(0, 1)))
    soft = draw(arrays(np.float64, c, elements=st.integers(-2, 2).map(float)
                       | st.floats(-5, 5) | st.sampled_from([np.inf, -np.inf])))
    return h, h.matvec(e), soft


@settings(max_examples=150, deadline=None)
@given(prepare_instances())
def test_osd_prepare_rows_lay_out_the_solution_coset(instance):
    h, s, soft = instance
    pivots, free, rows = _osd_prepare(h, s, soft)
    assert rows.shape == (free.size + 1, h.cols)
    assert sorted(pivots.tolist() + free.tolist()) == list(range(h.cols))
    kernel, solution = rows[:-1], rows[-1]
    assert not (kernel.astype(np.int64) @ h.to_dense().T.astype(np.int64) % 2).any()
    assert np.array_equal(kernel[:, free], np.eye(free.size, dtype=np.uint8))
    assert np.array_equal(h.matvec(solution), s)
    assert not np.delete(solution, pivots).any()
    assert _outcome(lambda: _osd_prepare(h, s, soft)) == _outcome(
        lambda: _separate_osd_prepare(h, s, soft))


# The three layouts as they stood before F2Matrix.coset served them all,
# kept here so the shared method is checked against code it did not write.


def _separate_kernel_basis(m):
    pivots, reduced = reference_reduce(m)
    pivots = list(pivots)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[pivots] = False
    free = np.nonzero(is_free)[0]
    if free.size == 0:
        return F2Matrix(0, m.cols)
    basis = np.zeros((free.size, m.cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = reduced[: len(pivots), free].T
    return F2Matrix.from_dense(basis)


def _separate_solve_columns(m, cols, s):
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.shape != (m.rows,):
        raise ValueError("syndrome length does not match row count")
    if m.cols in np.asarray(cols):
        raise ValueError("columns must be distinct integers in range(cols)")
    pivots, reduced = reference_reduce(hstack([m, F2Matrix.from_dense(s.reshape(-1, 1))]), cols)
    rhs = reduced[:, m.cols]
    r = len(pivots)
    if np.any(rhs[r:]):
        raise NoSolution("syndrome not in the image of the selected columns")
    x = np.zeros(m.cols, dtype=np.uint8)
    x[list(pivots)] = rhs[:r]
    return x


def _separate_osd_prepare(h, s, soft):
    s = np.asarray(s, dtype=np.uint8) & 1
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape != (h.cols,):
        raise ValueError("soft information length does not match column count")
    if s.shape != (h.rows,):
        raise ValueError("syndrome length does not match row count")
    if np.isnan(soft).any():
        raise ValueError("soft information contains NaN")
    order = np.argsort(soft, kind="stable")
    pivots, reduced = reference_reduce(hstack([h, F2Matrix.from_dense(s.reshape(-1, 1))]), order)
    pivots = np.array(pivots, dtype=np.int64)
    rank = pivots.size
    if reduced[rank:, h.cols].any():
        raise Unsatisfiable("syndrome lies outside the image of H")
    in_pivot = np.zeros(h.cols, dtype=bool)
    in_pivot[pivots] = True
    free = order[~in_pivot[order]]
    rows = np.zeros((free.size + 1, h.cols), dtype=np.uint8)
    rows[np.arange(free.size), free] = 1
    rows[:, pivots] = reduced[:rank][:, np.append(free, h.cols)].T
    return pivots, free, rows


def _outcome(call):
    """The exception type call() raises, or its arrays as (dtype, shape, bytes)."""
    try:
        out = call()
    except (NoSolution, Unsatisfiable) as err:
        return type(err)
    arrays_out = out if isinstance(out, tuple) else (out,)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays_out]


@st.composite
def coset_instances(draw):
    """(H, s, cols, soft) across the word boundaries of H and [H | s]:
    0-row, 0-column and rank-deficient H, permuted and restricted column
    lists (the empty one included), and s consistent on cols, consistent
    on H only, or drawn at random."""
    c = draw(st.sampled_from([0, 1, 7, 63, 64, 65, 128, 129]))
    r = draw(st.integers(0, 6))
    dense = draw(arrays(np.uint8, (r, c), elements=st.integers(0, 1)))
    if r >= 2 and draw(st.booleans()):
        dense[-1] = dense[0] ^ dense[1]  # a dependent row
    h = F2Matrix.from_dense(dense)
    cols = draw(st.permutations(range(c)))[: draw(st.integers(0, c))]
    e = draw(arrays(np.uint8, c, elements=st.integers(0, 1)))
    s = draw(st.sampled_from([
        h.matvec(e * np.isin(np.arange(c), cols)),
        h.matvec(e),
        draw(arrays(np.uint8, r, elements=st.integers(0, 1))),
    ]))
    soft = draw(arrays(np.float64, c, elements=st.integers(-2, 2).map(float)
                       | st.floats(-5, 5) | st.sampled_from([np.inf, -np.inf])))
    return h, s, cols, soft


@settings(max_examples=300, deadline=None)
@given(coset_instances())
@example((F2Matrix.from_dense([[1, 1], [1, 1]]), np.array([1, 0], dtype=np.uint8),
          [1, 0], np.zeros(2)))  # inconsistent on every column list
@example((F2Matrix(2, 0), np.array([0, 1], dtype=np.uint8), [], np.zeros(0)))
@example((F2Matrix(0, 3), np.zeros(0, dtype=np.uint8), [2], np.zeros(3)))
def test_coset_callers_match_the_separate_layouts(instance):
    h, s, cols, soft = instance
    assert h.kernel_basis() == _separate_kernel_basis(h)
    for listed in (cols, np.array(cols, dtype=np.int64), range(h.cols)):
        solved = _outcome(lambda: h.solve_columns(listed, s))
        assert solved == _outcome(lambda: _separate_solve_columns(h, listed, s))
        assert solved is NoSolution or isinstance(solved, list)
    osd = _outcome(lambda: _osd_prepare(h, s, soft))
    assert osd == _outcome(lambda: _separate_osd_prepare(h, s, soft))
    assert osd is Unsatisfiable or isinstance(osd, list)


def _count_solve_passes(monkeypatch, calls):
    """Append to calls for each F2Matrix._pass (the column-basis pass under
    every solve, which coset_transform wraps) and each F2Matrix.eliminate."""
    for name in ("_pass", "eliminate"):
        def counted(self, *args, method=getattr(F2Matrix, name), **kwargs):
            calls.append(method.__name__)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(F2Matrix, name, counted)


def test_each_decode_call_eliminates_once(monkeypatch):
    """Each call makes one column-basis pass and no elimination."""
    code = build_code("surface 2")
    problem, fresh = (depolarizing_problem(code, 0.05) for _ in range(2))
    e = np.zeros(problem.h.cols, dtype=np.uint8)
    e[[1, 4]] = 1
    s = problem.h.matvec(e)
    soft = problem.prior.llr - e
    calls = []
    _count_solve_passes(monkeypatch, calls)
    decoders = {
        "kernel_basis": lambda: problem.h.kernel_basis(),
        "solve_columns": lambda: problem.h.solve_columns(range(problem.h.cols), s),
        "mld": lambda: exhaustive_mld(problem, s),
        "mwd": lambda: exhaustive_mwd(fresh, s),  # a coset that mld has not built
        "osd0": lambda: osd0(problem.h, s, soft),
        **{f"osd_w {w}": lambda w=w: osd_w(problem.h, s, soft, w) for w in range(3)},
    }
    for name, decode in decoders.items():
        calls.clear()
        decode()
        assert calls == ["_pass"], name
    calls.clear()
    exhaustive_mld(problem, s)  # a repeated syndrome is answered from the memo
    assert not calls


@pytest.mark.parametrize("first, then", [(exhaustive_mld, exhaustive_mwd),
                                         (exhaustive_mwd, exhaustive_mld)],
                         ids=["mwd after mld", "mld after mwd"])
def test_mwd_and_mld_share_one_elimination_per_problem(monkeypatch, first, then):
    """Both oracles read one coset per problem, so the second makes no
    column-basis pass."""
    problem = depolarizing_problem(build_code("surface 2"), 0.05)
    s = problem.h.matvec(np.eye(problem.h.cols, dtype=np.uint8)[3])
    calls = []
    _count_solve_passes(monkeypatch, calls)
    first(problem, s)
    assert calls == ["_pass"]
    then(problem, s)
    assert calls == ["_pass"]


@pytest.mark.parametrize("decoder", [osd0, lambda h, s, soft: osd_w(h, s, soft, 2)],
                         ids=["osd0", "osd_w"])
def test_osd_rejects_nan_soft_information(decoder):
    h = F2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])
    with pytest.raises(ValueError, match="NaN"):
        decoder(h, np.array([1, 0], dtype=np.uint8), np.array([0.5, np.nan, 1.0]))


def test_bp_osd_passthrough_when_converged():
    problem = classical_problem(hamming74(), 0.05)
    e = np.zeros(7, dtype=np.uint8)
    e[3] = 1
    s = problem.h.matvec(e)
    direct = bp_decode(problem, s)
    assert direct.converged
    combined = bp_osd(problem, s, w=2)
    assert np.array_equal(combined.correction, direct.correction)
    assert combined.iterations_used == direct.iterations_used


def test_bp_osd_resolves_split_belief():
    # one check over two bits: the two weight-1 corrections tie, BP
    # freezes at zero posteriors, OSD must still return a valid answer
    problem = make_problem(np.array([[1, 1]], dtype=np.uint8), 0.1)
    s = np.array([1], dtype=np.uint8)
    plain = bp_decode(problem, s)
    assert not plain.converged
    fixed = bp_osd(problem, s, w=1)
    assert fixed.converged
    assert np.array_equal(problem.h.matvec(fixed.correction), s)


def test_bp_osd_on_degenerate_css_halves():
    hx, hz = four_two_two_checks()
    z_faults, _ = depolarizing_problem(css_code(hx, hz), 0.1, mode="split-xz")
    s = np.array([1, 0], dtype=np.uint8)
    plain = bp_decode(z_faults, s)
    assert not plain.converged
    fixed = bp_osd(z_faults, s, w=2)
    assert np.array_equal(z_faults.h.matvec(fixed.correction), s)


# -- exhaustive oracles ------------------------------------------------------


def test_mwd_locates_hamming_single_errors():
    problem = classical_problem(hamming74(), 0.05)
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        s = problem.h.matvec(e)
        assert np.array_equal(exhaustive_mwd(problem, s), e)


def test_mwd_and_mld_trivial_on_zero_syndrome():
    problem = classical_problem(hamming74(), 0.05)
    s = np.zeros(3, dtype=np.uint8)
    assert not exhaustive_mwd(problem, s).any()
    assert not exhaustive_mld(problem, s).any()


def test_oracles_guard_and_unsatisfiable():
    wide = make_problem(np.ones((1, 25), dtype=np.uint8), 0.1)
    with pytest.raises(CapacityExceeded):
        exhaustive_mwd(wide, np.array([1], dtype=np.uint8))
    mid = make_problem(np.ones((1, 21), dtype=np.uint8), 0.1)
    with pytest.raises(CapacityExceeded):
        exhaustive_mld(mid, np.array([1], dtype=np.uint8))
    bad = make_problem(np.array([[1, 1], [1, 1]], dtype=np.uint8), 0.1)
    with pytest.raises(Unsatisfiable):
        exhaustive_mwd(bad, np.array([1, 0], dtype=np.uint8))


def enumerate_exact_rates(problem):
    """Exact success probability of MWD's class pick vs MLD."""
    n = problem.h.cols
    h_dense = problem.h.to_dense()
    l_dense = problem.l.to_dense()
    p = problem.prior.p
    by_syndrome = {}
    mwd_rate = mld_rate = 0.0
    errors = (
        np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32)
    ) & 1
    probs = np.prod(np.where(errors == 1, p, 1.0 - p), axis=1)
    for e, pe in zip(errors, probs):
        s = tuple((h_dense @ e) % 2)
        if s not in by_syndrome:
            sv = np.array(s, dtype=np.uint8)
            mwd_class = (l_dense @ exhaustive_mwd(problem, sv)) % 2
            by_syndrome[s] = (mwd_class, exhaustive_mld(problem, sv))
        mwd_class, mld_class = by_syndrome[s]
        true_class = (l_dense @ e) % 2
        mwd_rate += pe * np.array_equal(mwd_class, true_class)
        mld_rate += pe * np.array_equal(mld_class, true_class)
    return mwd_rate, mld_rate


def test_mld_dominates_mwd_exactly():
    hx, hz = four_two_two_checks()
    problem = depolarizing_problem(css_code(hx, hz), 0.2)
    mwd_rate, mld_rate = enumerate_exact_rates(problem)
    assert mld_rate >= mwd_rate - 1e-15


@st.composite
def mld_instances(draw):
    """Small random problems with uneven priors, as in the acceptance test."""
    r = draw(st.integers(2, 4))
    c = draw(st.integers(r + 1, 10))
    bits = lambda rows: arrays(np.uint8, (rows, c), elements=st.integers(0, 1))
    h = F2Matrix.from_dense(draw(bits(r)))
    l = F2Matrix.from_dense(draw(bits(draw(st.integers(1, 2)))))
    p = draw(arrays(np.float64, c, elements=st.floats(0.02, 0.4)))
    return decoding_problem(h, l, Prior(p))


@settings(max_examples=60, deadline=None)
@given(mld_instances())
def test_mld_class_has_maximal_summed_probability(problem):
    # reference: all 2^c errors, probability summed per (syndrome, class)
    h, l, p = problem.h.to_dense(), problem.l.to_dense(), problem.prior.p
    c = h.shape[1]
    errors = ((np.arange(1 << c)[:, None] >> np.arange(c)) & 1).astype(np.uint8)
    probs = np.prod(np.where(errors == 1, p, 1.0 - p), axis=1)
    syndromes = (errors @ h.T % 2) @ (1 << np.arange(h.shape[0]))
    class_bits = 1 << np.arange(l.shape[0])
    classes = (errors @ l.T % 2) @ class_bits
    totals = np.zeros((1 << h.shape[0], 1 << l.shape[0]))
    np.add.at(totals, (syndromes, classes), probs)
    for s in np.unique(syndromes):
        sv = ((s >> np.arange(h.shape[0])) & 1).astype(np.uint8)
        cls = int(exhaustive_mld(problem, sv) @ class_bits)
        assert totals[s, cls] >= totals[s].max() * (1 - 1e-9)


def test_degeneracy_separates_mld_from_mwd():
    # under strong depolarizing noise the summed coset weight can
    # overrule the single most-probable error's class
    hx, hz = four_two_two_checks()
    problem = depolarizing_problem(css_code(hx, hz), 0.3)
    l_dense = problem.l.to_dense()
    seen_difference = False
    for bits in itertools.product((0, 1), repeat=3):
        s = np.array(bits, dtype=np.uint8)
        mwd_class = (l_dense @ exhaustive_mwd(problem, s)) % 2
        if not np.array_equal(mwd_class, exhaustive_mld(problem, s)):
            seen_difference = True
    assert seen_difference


def _reference_coset(h, s):
    rows = _osd_prepare(h, s, np.zeros(h.cols))[2]
    return reference_span_blocks(F2Matrix.from_dense(rows[:-1]), rows[-1])


def _reference_mwd(problem, s):
    """exhaustive_mwd before the doubling build, kept verbatim."""
    h = problem.h
    if h.cols > decoders.MWD_COLUMN_GUARD:
        raise CapacityExceeded("MWD guard")
    llr = problem.prior.llr
    weights = np.where(np.isinf(llr), 1e18, llr)
    best_key, best = None, None
    for errors in _reference_coset(h, s):
        costs = errors @ weights
        idx = int(np.argmin(costs))
        near = np.nonzero(costs == costs[idx])[0]
        for i in near:
            e = errors[i].astype(np.uint8)
            key = (float(costs[i]), int(e.sum()), e.tobytes())
            if best_key is None or key < best_key:
                best_key, best = key, e
    return best


def _reference_mld(problem, s):
    """exhaustive_mld before the doubling build, kept verbatim (no memo)."""
    h, l = problem.h, problem.l
    if h.cols > decoders.MLD_COLUMN_GUARD:
        raise CapacityExceeded("MLD guard")
    s = np.asarray(s, dtype=np.uint8) & 1
    base = np.log1p(-problem.prior.p).sum()
    delta = -problem.prior.llr
    delta = np.where(np.isinf(delta), -1e300, delta)
    l_dense = l.to_dense().astype(np.uint8)
    class_bits = np.left_shift(1, np.arange(l.rows, dtype=np.int64))
    totals = np.zeros(1 << l.rows)
    for errors in _reference_coset(h, s):
        probs = np.exp(base + errors @ delta)
        classes = ((errors @ l_dense.T) & 1) @ class_bits
        totals += np.bincount(classes, weights=probs, minlength=totals.size)
    winner = int(np.argmax(totals))
    return ((winner >> np.arange(l.rows)) & 1).astype(np.uint8)


def _oracle_outcome(decode, problem, s):
    try:
        out = decode(problem, s)
    except (CapacityExceeded, Unsatisfiable, ValueError) as exc:
        return type(exc)
    return out.dtype, out.shape, out.tobytes()


@pytest.mark.parametrize("rows, cols, k, zero_row", [
    (4, 15, 2, False),  # the size of the surface 2 xzy problem
    (3, 20, 2, False),  # kappa 17: the coset crosses the 2^14-row block
    (5, 12, 3, True),   # an all-zero check row: half the syndromes are unsatisfiable
    (3, 8, 0, False),   # no logicals: MLD's class is empty
    (5, 21, 1, False),  # past MLD's column guard, inside MWD's
    (1, 25, 1, False),  # past both guards
])
def test_oracles_match_the_picks_product_reference(rows, cols, k, zero_row):
    """Same classes, corrections and raises as the oracles before the
    doubling build, on generic problems with uneven priors."""
    rng = np.random.default_rng(rows * 100 + cols)
    h = (rng.random((rows, cols)) < 0.4).astype(np.uint8)
    if zero_row:
        h[rng.integers(rows)] = 0
    problem = decoding_problem(F2Matrix.from_dense(h),
                               F2Matrix.from_dense(rng.integers(0, 2, (k, cols))),
                               Prior(rng.uniform(0.01, 0.45, cols)))
    syndromes = [rng.integers(0, 2, rows).astype(np.uint8) for _ in range(4)]
    syndromes += [np.zeros(rows, dtype=np.uint8), np.zeros(rows + 1, dtype=np.uint8)]
    seen = set()
    for s in syndromes:
        for new, old in ((exhaustive_mld, _reference_mld), (exhaustive_mwd, _reference_mwd)):
            outcome = _oracle_outcome(new, problem, s)
            assert outcome == _oracle_outcome(old, problem, s)
            seen.add(outcome if isinstance(outcome, type) else "answer")
    if cols <= decoders.MWD_COLUMN_GUARD:
        assert {"answer", ValueError} <= seen
    if zero_row:
        assert Unsatisfiable in seen
    assert (CapacityExceeded in seen) == (cols > decoders.MLD_COLUMN_GUARD)


@pytest.mark.parametrize("rows, cols, k", [(4, 15, 2), (3, 20, 2), (5, 12, 3), (3, 8, 0)])
def test_solution_coset_rows_carry_their_class_bits(rows, cols, k):
    """The doubled blocks are the reference blocks with L e appended, and
    their error columns give MLD's float products bit for bit."""
    rng = np.random.default_rng(cols)
    problem = decoding_problem(F2Matrix.from_dense(rng.integers(0, 2, (rows, cols))),
                               F2Matrix.from_dense(rng.integers(0, 2, (k, cols))),
                               Prior(rng.uniform(0.01, 0.45, cols)))
    delta = -problem.prior.llr
    s = problem.h.matvec(rng.integers(0, 2, cols))
    new = list(decoders._solution_coset(problem, s))
    old = list(_reference_coset(problem.h, s))
    assert len(new) == len(old)
    for rows_, errors in zip(new, old):
        assert np.array_equal(rows_[:, :cols], errors)
        assert np.array_equal(rows_[:, cols:], errors @ problem.l.to_dense().T & 1)
        assert (rows_[:, :cols] @ delta).tobytes() == (errors @ delta).tobytes()


def _parent_solution_coset(problem, s, classes=False):
    """_solution_coset before the per-problem span, kept verbatim with the
    coset and span_blocks bodies it called: one elimination of [H | s] and one
    doubling from the particular solution per call."""
    h = problem.h
    s = np.asarray(s, dtype=np.uint8) & 1
    if s.shape != (h.rows,):
        raise ValueError("syndrome length does not match row count")
    pivots, reduced = reference_reduce(hstack([h, F2Matrix(h.rows, 1, s[:, None])]), range(h.cols))
    pivots = np.array(pivots, dtype=np.intp)
    rank = pivots.size
    if reduced[rank:, h.cols:].any():
        raise Unsatisfiable("syndrome lies outside the image of H")
    in_pivot = np.zeros(h.cols, dtype=bool)
    in_pivot[pivots] = True
    free = np.flatnonzero(~in_pivot)
    rows = np.zeros((free.size + 1, h.cols), dtype=np.uint8)
    rows[np.arange(free.size), free] = 1
    rows[:-1, pivots] = reduced[:rank, free].T
    rows[-1, pivots] = reduced[:rank, h.cols]
    if classes:
        rows = np.hstack([rows, rows @ problem.l.to_dense().T & 1])

    def doubled(basis, start):
        out = np.empty((1 << len(basis), start.size), dtype=np.uint8)
        out[0] = start
        for j, row in enumerate(basis):
            np.bitwise_xor(out[: 1 << j], row, out=out[1 << j : 2 << j])
        return out

    dense, block = rows[:-1], 1 << 14
    kappa, m = len(dense), min(len(dense), (block - 1).bit_length())
    low, high = doubled(dense[:m], rows[-1]), doubled(dense[m:], np.zeros_like(rows[-1]))
    for lo in range(0, 1 << kappa, block):
        c, a = divmod(lo, 1 << m)
        b = a + min(block, (1 << kappa) - lo)
        yield low[a:b] if c == 0 else low[a:b] ^ high[c]


def _coset_outcome(coset, problem, s, *classes):
    try:
        return [(b.dtype, b.shape, b.tobytes()) for b in coset(problem, s, *classes)]
    except (Unsatisfiable, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("kappa", [0, 11, 17])
def test_solution_coset_matches_the_parent_across_calls(kappa):
    """One problem's kernel span serves a run of syndromes, with unsatisfiable
    and malformed ones between them: every block equals the per-call build's
    with class bits byte for byte, its error columns equal the build's
    without, and the problem makes one column-basis pass."""
    rng = np.random.default_rng(kappa)
    if kappa == 11:  # the surface2-xzy-mld problem, with a dependent check row added
        base = depolarizing_problem(build_code("surface 2"), 0.05)
        h = base.h.to_dense()
        h = np.vstack([h, h[0] ^ h[1]])
        l = base.l.to_dense()
    else:  # rank 5 of 6 rows, or rank 3 of 4 rows over 20 columns
        cols = 5 if kappa == 0 else 20
        h = rng.integers(0, 2, (cols - kappa, cols), dtype=np.uint8)
        while F2Matrix.from_dense(h).rank() < cols - kappa:
            h = rng.integers(0, 2, (cols - kappa, cols), dtype=np.uint8)
        h = np.vstack([h, h[0] ^ h[-1]])
        l = rng.integers(0, 2, (2, cols), dtype=np.uint8)
    problem = decoding_problem(F2Matrix.from_dense(h), F2Matrix.from_dense(l),
                               uniform_prior(h.shape[1], 0.1))
    assert problem.h.cols - problem.h.rank() == kappa
    syndromes = [rng.integers(0, 2, len(h), dtype=np.uint8) for _ in range(8)]
    syndromes[3:3] = [np.zeros(len(h) + 1, dtype=np.uint8), np.zeros(len(h), dtype=np.uint8)]
    seen, calls = set(), []

    def error_columns(problem, s):
        return (b[:, :problem.h.cols] for b in decoders._solution_coset(problem, s))

    with pytest.MonkeyPatch.context() as patch:
        _count_solve_passes(patch, calls)
        new = [(_coset_outcome(decoders._solution_coset, problem, s),
                _coset_outcome(error_columns, problem, s)) for s in syndromes]
    assert calls == ["_pass"]
    for s, (got, errors) in zip(syndromes, new):
        assert got == _coset_outcome(_parent_solution_coset, problem, s, True)
        assert errors == _coset_outcome(_parent_solution_coset, problem, s, False)
        seen.add(got if isinstance(got, type) else len(got))
    assert seen == {Unsatisfiable, ValueError, max(1, 2**kappa // 2**14)}


# -- success predicate -------------------------------------------------------


def test_success_predicate_cases():
    hx, hz = four_two_two_checks()
    code = css_code(hx, hz)
    z_faults, _ = depolarizing_problem(code, 0.1, mode="split-xz")
    e = np.array([1, 0, 0, 0], dtype=np.uint8)

    exact = success(e, e, z_faults)
    assert exact.valid and exact.success

    stabilizer = code.hz.row_dense(0)
    degenerate = success((e + stabilizer) % 2, e, z_faults)
    assert degenerate.valid and degenerate.success

    logical = code.lz.row_dense(0)
    flipped = success((e + logical) % 2, e, z_faults)
    assert flipped.valid and not flipped.success

    residual = np.array([0, 0, 0, 1], dtype=np.uint8)
    invalid = success((e + residual) % 2, e, z_faults)
    assert not invalid.valid and not invalid.success


def test_success_reports_match_dense_products():
    """success gives SuccessReport(H r = 0, H r = 0 and L r = 0) of plain bools
    for the residual r = c + e, on every kind of outcome."""
    z_faults, x_faults = depolarizing_problem(build_code("surface 3"), 0.1, mode="split-xz")
    rng = np.random.default_rng(5)
    seen = set()
    for problem in (z_faults, x_faults):
        h, l = problem.h.to_dense(), problem.l.to_dense()
        kernel = problem.h.kernel_basis().to_dense()
        for _ in range(200):
            e = (rng.random(problem.h.cols) < 0.1).astype(np.uint8)
            if rng.random() < 0.5:  # H r = 0: a stabilizer, or a logical times one
                r = rng.integers(0, 2, len(kernel)) @ kernel % 2
            else:
                r = rng.random(problem.h.cols) < 0.05
            c = e ^ r.astype(np.uint8)
            r = r.astype(np.int64)
            valid = not (h @ r % 2).any()
            want = SuccessReport(valid=valid, success=valid and not (l @ r % 2).any())
            report = success(c, e, problem)
            assert report == want and type(report.valid) is type(report.success) is bool
            seen.add((want.valid, want.success))
    assert seen == {(False, False), (True, False), (True, True)}


def test_success_scores_an_exact_correction_without_a_parity(monkeypatch):
    """Equal bytes succeed with no SparseRows.parity call.  Bytes that differ,
    also only above the low bit, take one parity and give the dense report."""
    problem, _ = depolarizing_problem(build_code("surface 3"), 0.1, mode="split-xz")
    h, l = problem.h.to_dense(), problem.l.to_dense()
    logical = l[0]
    parity, calls = SparseRows.parity, []

    def counted(self, v):
        calls.append(1)
        return parity(self, v)

    monkeypatch.setattr(SparseRows, "parity", counted)
    rng = np.random.default_rng(7)
    for _ in range(100):
        e = (rng.random(problem.h.cols) < 0.2).astype(np.uint8)
        assert success(e.copy(), e, problem) == SuccessReport(valid=True, success=True)
        assert not calls
        residual = (rng.random(problem.h.cols) < 0.1).astype(np.uint8)
        residual[rng.integers(problem.h.cols)] = 1
        plus = [e.copy(), e.copy()]
        plus[0][residual.argmax()] += 2  # the low bit is unchanged
        plus[1][residual.argmax()] += 3
        for c in plus + [e ^ logical, e ^ residual]:
            r = (c ^ e).astype(np.int64) & 1
            valid = not (h @ r % 2).any()
            want = SuccessReport(valid=valid, success=valid and not (l @ r % 2).any())
            assert success(c, e, problem) == want and len(calls) == 1
            calls.clear()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_converged_corrections_always_satisfy_syndrome(rnd):
    rows = rnd.randint(1, 6)
    cols = rnd.randint(1, 12)
    h_dense = np.array(
        [[rnd.randint(0, 1) for _ in range(cols)] for _ in range(rows)],
        dtype=np.uint8,
    )
    p = np.array([rnd.uniform(0.01, 0.4) for _ in range(cols)])
    problem = make_problem(h_dense, p)
    e = np.array([rnd.random() < q for q in p], dtype=np.uint8)
    s = problem.h.matvec(e)
    variant = "min-sum" if rnd.random() < 0.5 else "sum-product"
    result = bp_decode(problem, s, BpConfig(variant=variant, max_iterations=8))
    if result.converged:
        assert np.array_equal(problem.h.matvec(result.correction), s)
    follow = bp_osd(problem, s, BpConfig(variant=variant, max_iterations=8), w=1)
    assert follow.converged
    assert np.array_equal(problem.h.matvec(follow.correction), s)
