"""Release acceptance checks, one test per gate.

Every externally promised behavior gets exactly one test here, ordered
from single-bit syndromes up to the Monte Carlo pipeline, so that a
verbose run reads as a pass/fail scorecard.  Wall-clock budgets and
numeric tolerances are part of the contract and asserted alongside the
behavior itself.
"""

import math
import time

import numpy as np

from qecbench.bench import BenchmarkConfig, csv_text, run_benchmark
from qecbench.classical import (
    hamming74,
    linear_code,
    repetition,
    syndrome,
    transpose_code,
)
from qecbench.decoders import (
    BpConfig,
    _osd_prepare,
    _osd_steps,
    bp_decode,
    exhaustive_mld,
    exhaustive_mwd,
    osd0,
    osd_w,
    success,
)
from qecbench.f2 import F2Matrix, vstack
from qecbench.graphstate import (
    Tableau,
    detectors,
    foliate,
    graph_state,
    teleport_one_bit,
)
from qecbench.homology import (
    from_css,
    homology_dimension,
    hypergraph_product,
    surface_code,
    to_css,
    validate,
)
from qecbench.noise import (
    Prior,
    classical_problem,
    decoding_problem,
    depolarizing_problem,
    uniform_prior,
)
from qecbench.pauli import PauliOperator
from qecbench.quantum import (
    css_code,
    css_distance,
    distance,
    five_qubit_code,
    four_two_two_checks,
)

pauli = PauliOperator.from_string


# -- 1: Hamming syndromes address the error -----------------------------------


def test_hamming_syndrome_is_the_error_position_in_binary():
    code = hamming74()
    start = time.perf_counter()
    for j in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[j] = 1
        s = syndrome(code, e)
        assert int(s[0]) + 2 * int(s[1]) + 4 * int(s[2]) == j + 1
    assert time.perf_counter() - start < 1e-3


# -- 2: five-qubit code parameters ---------------------------------------------


def test_five_qubit_code_is_5_1_3():
    start = time.perf_counter()
    code = five_qubit_code()
    assert (code.h.rows, code.h.cols) == (4, 10)
    assert (code.n, code.k) == (5, 1)
    assert distance(code, max_weight=3) == 3
    assert time.perf_counter() - start < 1.0


# -- 3: hypergraph product parameters ------------------------------------------


def test_hypergraph_product_parameters():
    start = time.perf_counter()
    rep = repetition(3)
    prod = hypergraph_product(rep, transpose_code(rep))
    assert (prod.n, prod.k) == (13, 1)
    assert css_distance(prod) == 3

    rng = np.random.default_rng(8)
    for _ in range(12):
        a = linear_code(F2Matrix.from_dense(
            rng.integers(0, 2, (int(rng.integers(1, 5)), int(rng.integers(1, 7))),
                         dtype=np.uint8)))
        b = linear_code(F2Matrix.from_dense(
            rng.integers(0, 2, (int(rng.integers(1, 5)), int(rng.integers(1, 7))),
                         dtype=np.uint8)))
        at, bt = transpose_code(a), transpose_code(b)
        prod = hypergraph_product(a, b)
        assert prod.n == a.n * bt.n + at.n * b.n
        k_formula = a.k * bt.k + at.k * b.k
        k_rank = prod.n - prod.hx.rank() - prod.hz.rank()
        assert k_formula == k_rank == prod.k
    assert time.perf_counter() - start < 10.0


# -- 4: CSS codes are chain complexes ------------------------------------------


def test_css_complex_duality_and_homology_dimension():
    builtin = [
        css_code(*four_two_two_checks()),
        surface_code(2),
        surface_code(3),
        hypergraph_product(hamming74(), transpose_code(repetition(3))),
    ]
    for css in builtin:
        assert (css.hx @ css.hz.T).is_zero()
        complex_ = from_css(css)
        assert validate(complex_)
        back = to_css(complex_, 1)
        assert np.array_equal(back.hx.to_dense(), css.hx.to_dense())
        assert np.array_equal(back.hz.to_dense(), css.hz.to_dense())
        assert homology_dimension(complex_, 1) == css.k


# -- 5: belief propagation is exact on trees -----------------------------------


def conditional_marginals(h_dense, s, p):
    """P[e_i = 1 | He = s] by enumerating every error pattern."""
    n = h_dense.shape[1]
    errors = (
        np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32)
    ) & 1
    consistent = ((errors @ h_dense.T) % 2 == s).all(axis=1)
    probs = np.prod(np.where(errors == 1, p, 1.0 - p), axis=1) * consistent
    return (errors * probs[:, None]).sum(axis=0) / probs.sum()


def test_bp_matches_enumeration_on_the_repetition_tree():
    start = time.perf_counter()
    code = repetition(5)
    problem = classical_problem(code, 0.1)
    h_dense = code.h.to_dense()
    cfg = BpConfig(max_iterations=16, early_stop=False)
    for word in range(16):
        s = np.array([(word >> i) & 1 for i in range(4)], dtype=np.uint8)
        res = bp_decode(problem, s, cfg)
        got = 1.0 / (1.0 + np.exp(res.posterior_llr))
        want = conditional_marginals(h_dense, s, np.full(5, 0.1))
        assert np.abs(got - want).max() <= 1e-9
    assert time.perf_counter() - start < 1.0


# -- 6: OSD-0 optimality on an independent most-likely basis --------------------


def test_osd0_is_minimum_weight_when_top_ranked_columns_are_independent():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    qualifying = 0
    while qualifying < 100:
        r = int(rng.integers(2, 9))
        c = int(rng.integers(r, 17))
        dense = rng.integers(0, 2, (r, c), dtype=np.uint8)
        h = F2Matrix.from_dense(dense)
        rank = h.rank()
        if rank == 0:
            continue
        problem = decoding_problem(h, F2Matrix(0, c), uniform_prior(c, 0.1))
        e = (rng.random(c) < 0.15).astype(np.uint8)
        s = h.matvec(e)
        best = exhaustive_mwd(problem, s)
        # ideal soft information: the optimum's bits rank as most likely
        soft = np.where(best == 1, -1.0, 1.0)
        order = np.argsort(soft, kind="stable")
        if F2Matrix.from_dense(dense[:, order[:rank]]).rank() != rank:
            continue
        qualifying += 1
        c0 = osd0(h, s, soft)
        assert np.array_equal(h.matvec(c0), s)
        assert int(c0.sum()) == int(best.sum())
    assert qualifying >= 100
    assert time.perf_counter() - start < 30.0


# -- 7: reprocessing candidates stay valid --------------------------------------


def test_every_reprocessing_candidate_is_valid_and_w0_is_osd0():
    start = time.perf_counter()
    rng = np.random.default_rng(43)
    for _ in range(25):
        h = F2Matrix.from_dense(rng.integers(0, 2, (8, 16), dtype=np.uint8))
        e = rng.integers(0, 2, 16, dtype=np.uint8)
        s = h.matvec(e)
        soft = rng.normal(size=16)
        for w in (0, 1, 2):
            _, _, flips = _osd_prepare(h, s, soft)
            assert np.array_equal(h.matvec(flips[-1]), s)
            for x, k, new, _, _ in _osd_steps(flips, np.abs(soft), w):
                for b, j in zip(*np.nonzero(new)):
                    assert np.array_equal(h.matvec(x[b] ^ k[j]), s)
        assert np.array_equal(osd_w(h, s, soft, 0), osd0(h, s, soft))
    assert time.perf_counter() - start < 10.0


# -- 8: scoring quotients out the stabilizer ------------------------------------


def test_success_predicate_honors_degeneracy():
    problems = [
        depolarizing_problem(css_code(*four_two_two_checks()), 0.1, "xzy"),
        depolarizing_problem(surface_code(3), 0.05, "split-xz")[0],
    ]
    rng = np.random.default_rng(3)
    for problem in problems:
        h, l = problem.h, problem.l
        stabilizer_rows = vstack([h, l]).kernel_basis()
        assert stabilizer_rows.rows > 0
        valid_rows = h.kernel_basis()
        logical_rows = [
            valid_rows.row_dense(i)
            for i in range(valid_rows.rows)
            if l.matvec(valid_rows.row_dense(i)).any()
        ]
        assert logical_rows
        for _ in range(10):
            e = (rng.random(h.cols) < 0.2).astype(np.uint8)
            for i in range(stabilizer_rows.rows):
                c = e ^ stabilizer_rows.row_dense(i)
                report = success(c, e, problem)
                assert report.valid and report.success
            for w in logical_rows:
                report = success(e ^ w, e, problem)
                assert report.valid and not report.success


# -- 9: star-graph measurements ---------------------------------------------


def star5():
    a = np.zeros((5, 5), dtype=np.uint8)
    for i in range(4):
        a[4, i] = a[i, 4] = 1
    return a


def test_star_measurements_reproduce_the_three_groups():
    # the expected post-measurement group for each center basis, written
    # as five independent generators whose signs depend on the outcome
    expected = {
        "X": (("m", "IIIIX"), ("+", "XXIII"), ("+", "XIXII"), ("+", "XIIXI"),
              ("+", "ZZZZX")),
        "Y": (("m", "IIIIY"), ("+", "XXIII"), ("+", "XIXII"), ("+", "XIIXI"),
              ("+", "YZZZY")),
        "Z": (("m", "IIIIZ"), ("+", "XIIIZ"), ("+", "IXIIZ"), ("+", "IIXIZ"),
              ("+", "IIIXZ")),
    }
    graph_state(star5()).measure_pauli(pauli("IIIIX"), np.random.default_rng(0))
    for basis, gens in expected.items():
        rows = np.stack([pauli(p).bsr() for _, p in gens])
        assert F2Matrix.from_dense(rows).rank() == 5  # full group pinned
        seen = set()
        for seed in range(8):
            t = graph_state(star5())
            op = PauliOperator.single(5, 4, basis)
            start = time.perf_counter()
            m, _ = t.measure_pauli(op, np.random.default_rng(seed))
            assert time.perf_counter() - start < 1e-3
            for sign, p in gens:
                want = m if sign == "m" else 1
                assert t.deterministic_outcome(pauli(p)) == want
            seen.add(m)
        assert seen == {1, -1}


# -- 10: teleportation chain ------------------------------------------------


def test_two_teleports_leave_an_x_m2_z_m1_frame():
    seen = set()
    for seed in range(24):
        t = Tableau(
            [pauli("IXI"), pauli("IIX")],
            [pauli("XII"), pauli("ZII")],
        )
        rng = np.random.default_rng(seed)
        m1, _ = teleport_one_bit(t, 0, 1, rng)
        m2, _ = teleport_one_bit(t, 1, 2, rng)
        x = t.reduce_tracked(0, [2])
        z = t.reduce_tracked(1, [2])
        # conjugating by the frame X^(m2) Z^(m1): X keeps m1, Z keeps m2
        assert x.sign == m1 and np.array_equal(x.x, [0, 0, 1]) and not x.z.any()
        assert z.sign == m2 and np.array_equal(z.z, [0, 0, 1]) and not z.x.any()
        seen.add((m1, m2))
    assert seen == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


# -- 11: foliation of the [[4,1,2]] code --------------------------------------


def measure_graph(state, rng, order=None, fault=None):
    t = graph_state(state.adjacency)
    if fault is not None:
        t.apply_pauli(fault)
    order = range(state.n_vertices) if order is None else order
    out = {}
    for v in order:
        m, _ = t.measure_pauli(PauliOperator.single(state.n_vertices, v, "X"), rng)
        out[v] = m
    return out


def parity(outcomes, support):
    p = 1
    for v in support:
        p *= outcomes[v]
    return p


def test_foliated_422_structure_detectors_and_fault_incidence():
    start = time.perf_counter()
    code = css_code(*four_two_two_checks())
    f = foliate(code, 2)
    assert f.n_vertices == 11
    assert f.layer_of == (0,) * 5 + (1,) * 6
    assert f.kind_of == ("code",) * 4 + ("ancilla",) + ("code",) * 4 + ("ancilla",) * 2
    assert f.parity == ("primal",) * 4 + ("dual",) + ("dual",) * 4 + ("primal",) * 2
    tanner0 = {(i, 4) for i in range(4)}
    rails = {(i, 5 + i) for i in range(4)}
    tanner1 = {(5, 9), (6, 9), (7, 10), (8, 10)}
    assert set(f.edges) == tanner0 | rails | tanner1

    dets = [frozenset(d) for d in detectors(f)]
    assert dets
    rng = np.random.default_rng(11)
    for _ in range(1000):
        order = rng.permutation(f.n_vertices)
        outcomes = measure_graph(f, rng, order=order)
        for d in dets:
            assert parity(outcomes, d) == f.predicted_parity(d)

    # a single Z fault flips exactly the incident detectors
    assert set().union(*dets) == set(range(f.n_vertices))
    for v0 in range(f.n_vertices):
        fault = PauliOperator.single(f.n_vertices, v0, "Z")
        outcomes = measure_graph(f, rng, fault=fault)
        for d in dets:
            want = f.predicted_parity(d) * (-1 if v0 in d else 1)
            assert parity(outcomes, d) == want
    assert time.perf_counter() - start < 30.0


# -- 12: Monte Carlo pipeline ---------------------------------------------


def mask_seconds(doc: str) -> str:
    rows = [line.split(",") for line in doc.strip().split("\n")]
    return "\n".join(",".join(row[:-1]) for row in rows)


def test_surface_code_monte_carlo_suppression_and_determinism():
    cfg = BenchmarkConfig(code="surface 3", noise="split-xz", decoder="bp+osd 2",
                          rates=(0.01,), trials=10_000, seed=1)
    start = time.perf_counter()
    result = run_benchmark(cfg, threads=1)
    assert time.perf_counter() - start < 60.0
    rec = result.records[0]
    assert rec.trials == 10_000
    assert rec.logical_error_rate < 0.01
    assert rec.failures == 18  # regression number for this seed

    again = run_benchmark(cfg, threads=1)

    def stats(r):
        return (r.rate, r.trials, r.failures, r.logical_error_rate,
                r.ci_low, r.ci_high, r.mean_iterations)

    assert [stats(r) for r in result.records] == [stats(r) for r in again.records]
    # identical output bytes, apart from the wall-time column
    assert mask_seconds(csv_text(result)) == mask_seconds(csv_text(again))


# -- 13: MLD never trails MWD ------------------------------------------------


def exact_success_rates(problem):
    """Syndrome-weighted success of the MLD and MWD oracles, exactly."""
    h_dense = problem.h.to_dense()
    l_dense = problem.l.to_dense()
    c = problem.h.cols
    errors = (
        np.arange(1 << c, dtype=np.uint32)[:, None] >> np.arange(c, dtype=np.uint32)
    ) & 1
    errors = errors.astype(np.uint8)
    p = problem.prior.p
    probs = np.prod(np.where(errors == 1, p, 1.0 - p), axis=1)
    syndromes = errors @ h_dense.T % 2
    classes = errors @ l_dense.T % 2
    mld_rate = mwd_rate = 0.0
    for s in np.unique(syndromes, axis=0):
        mask = (syndromes == s).all(axis=1)
        mld_cls = exhaustive_mld(problem, s)
        mwd_cls = problem.l.matvec(exhaustive_mwd(problem, s))
        hit = probs * mask
        mld_rate += hit[(classes == mld_cls).all(axis=1)].sum()
        mwd_rate += hit[(classes == mwd_cls).all(axis=1)].sum()
    return mld_rate, mwd_rate


def test_mld_success_rate_dominates_mwd():
    start = time.perf_counter()
    z_faults, x_faults = depolarizing_problem(css_code(*four_two_two_checks()),
                                              0.1, "split-xz")
    sz, sx = depolarizing_problem(surface_code(2), 0.08, "split-xz")
    problems = [
        classical_problem(repetition(5), 0.1),
        classical_problem(hamming74(), 0.08),
        depolarizing_problem(css_code(*four_two_two_checks()), 0.1, "xzy"),
        z_faults,
        x_faults,
        sz,
        sx,
    ]
    rng = np.random.default_rng(5)
    for _ in range(5):  # plus fuzzed instances with uneven priors
        r = int(rng.integers(2, 5))
        c = int(rng.integers(r + 1, 11))
        h = F2Matrix.from_dense(rng.integers(0, 2, (r, c), dtype=np.uint8))
        l = F2Matrix.from_dense(rng.integers(0, 2, (1, c), dtype=np.uint8))
        prior = Prior(rng.uniform(0.02, 0.4, size=c))
        problems.append(decoding_problem(h, l, prior))
    for problem in problems:
        assert problem.h.cols <= 14
        mld_rate, mwd_rate = exact_success_rates(problem)
        assert mld_rate >= mwd_rate - 1e-12
    assert time.perf_counter() - start < 60.0
