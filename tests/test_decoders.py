import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qecbench.classical import hamming74
from qecbench.decoders import (
    BpConfig,
    bp_decode,
    bp_osd,
    exhaustive_mld,
    exhaustive_mwd,
    osd0,
    osd_w,
    success,
    _osd_candidates,
    _others,
)
from qecbench.errors import CapacityExceeded, Unsatisfiable
from qecbench.f2 import F2Matrix
from qecbench.noise import (
    Prior,
    classical_problem,
    decoding_problem,
    depolarizing_problem,
    uniform_prior,
)
from qecbench.quantum import css_code, four_two_two_checks


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


def test_osd_w_zero_equals_osd0():
    rng = np.random.default_rng(41)
    for _ in range(20):
        h = F2Matrix.from_dense(rng.integers(0, 2, (4, 9), dtype=np.uint8))
        e = rng.integers(0, 2, 9, dtype=np.uint8)
        s = h.matvec(e)
        soft = rng.normal(size=9)
        assert np.array_equal(osd0(h, s, soft), osd_w(h, s, soft, 0))


def test_every_reprocessing_candidate_satisfies_syndrome():
    rng = np.random.default_rng(43)
    for _ in range(10):
        h = F2Matrix.from_dense(rng.integers(0, 2, (8, 16), dtype=np.uint8))
        e = rng.integers(0, 2, 16, dtype=np.uint8)
        s = h.matvec(e)
        soft = rng.normal(size=16)
        seen = 0
        for _, c in _osd_candidates(h, s, soft, 2):
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


def test_osd_candidate_guard():
    h = F2Matrix.from_dense(np.ones((1, 40), dtype=np.uint8))
    with pytest.raises(CapacityExceeded):
        osd_w(h, np.array([1], dtype=np.uint8), np.zeros(40), 7)


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
