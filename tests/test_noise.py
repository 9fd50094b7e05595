import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecbench.classical import hamming74, encoding_matrix, decompose
from qecbench.f2 import F2Matrix
from qecbench.homology import surface_code
from qecbench.noise import (
    Prior,
    classical_problem,
    decoding_problem,
    depolarizing_fault_vector,
    depolarizing_problem,
    error_probability,
    load_problem,
    sample_awgn,
    sample_bsc,
    sample_depolarizing,
    sample_depolarizing2,
    sample_erasure,
    save_problem,
    uniform_prior,
)
from qecbench.quantum import css_code, four_two_two_checks


def test_prior_rejects_out_of_range():
    with pytest.raises(ValueError):
        Prior(np.array([0.6]))
    with pytest.raises(ValueError):
        Prior(np.array([-0.1]))
    with pytest.raises(ValueError):
        Prior(np.array([0.1, math.nan]))


def test_prior_llr_endpoints():
    pr = Prior(np.array([0.0, 0.5, 0.1]))
    assert pr.llr[0] == math.inf
    assert pr.llr[1] == 0.0
    assert pr.llr[2] == pytest.approx(math.log(9))


def test_error_probability_examples():
    pr = uniform_prior(3, 0.1)
    zero = np.zeros(3, dtype=np.uint8)
    assert error_probability(zero, pr) == pytest.approx(0.9**3)
    assert error_probability(np.array([0, 1, 0]), pr) == pytest.approx(0.081)
    certain = Prior(np.array([0.0, 0.1]))
    assert error_probability(np.array([1, 0]), certain) == 0.0


@settings(max_examples=30)
@given(
    st.lists(st.floats(min_value=0.001, max_value=0.5), min_size=1, max_size=10)
)
def test_error_probabilities_sum_to_one(ps):
    pr = Prior(np.array(ps))
    n = len(ps)
    total = sum(
        error_probability(np.array(e, dtype=np.uint8), pr)
        for e in itertools.product((0, 1), repeat=n)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bsc_p_zero_never_flips():
    rng = np.random.default_rng(7)
    sample = sample_bsc(uniform_prior(64, 0.0), rng)
    assert not sample.any()


def test_bsc_empirical_rate():
    rng = np.random.default_rng(11)
    n = 100_000
    flips = int(sample_bsc(uniform_prior(n, 0.1), rng).sum())
    sigma = math.sqrt(n * 0.1 * 0.9)
    assert abs(flips - n * 0.1) < 3 * sigma


def test_erasure_extremes_and_llr():
    rng = np.random.default_rng(3)
    flags, pr = sample_erasure(1.0, 16, rng)
    assert flags.all()
    assert np.all(pr.p == 0.5)
    assert np.all(pr.llr == 0.0)
    flags, pr = sample_erasure(0.0, 16, rng, base=uniform_prior(16, 0.05))
    assert not flags.any()
    assert np.all(pr.p == 0.05)


def test_erasure_erased_positions_get_zero_llr():
    rng = np.random.default_rng(5)
    flags, pr = sample_erasure(0.4, 200, rng, base=uniform_prior(200, 0.02))
    assert np.all(pr.llr[flags == 1] == 0.0)
    assert np.all(pr.p[flags == 0] == 0.02)


def test_awgn_llr_scaling():
    x = np.ones(50)
    llr1 = sample_awgn(x, 1.0, np.random.default_rng(9))
    llr2 = sample_awgn(x, 2.0, np.random.default_rng(9))
    # same underlying standard-normal draw, so the two are related exactly
    delta = llr1 / 2.0 - x
    assert np.allclose(llr2, (x + 2.0 * delta) / 2.0)
    with pytest.raises(ValueError):
        sample_awgn(x, 0.0, np.random.default_rng(0))


def test_awgn_mean_llr():
    rng = np.random.default_rng(13)
    llr = sample_awgn(np.ones(100_000), 1.0, rng)
    assert abs(llr.mean() - 2.0) < 3 * 2.0 / math.sqrt(100_000)


def test_depolarizing_p_zero_is_identity():
    rng = np.random.default_rng(1)
    assert sample_depolarizing(10, 0.0, rng).weight() == 0


def test_depolarizing_uniform_over_xyz():
    rng = np.random.default_rng(17)
    counts = {"X": 0, "Y": 0, "Z": 0}
    trials = 100_000
    draws = sample_depolarizing(trials, 1.0, rng)
    for xb, zb in zip(draws.x, draws.z):
        counts[{(1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(xb, zb)]] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    for c in counts.values():
        assert abs(c / trials - 1 / 3) < 3 * sigma


def test_depolarizing2_uniform_over_15():
    rng = np.random.default_rng(24)
    trials = 100_000
    counts = np.zeros(16, dtype=int)
    for _ in range(trials):
        p = sample_depolarizing2(1.0, rng)
        code = (p.x[0] + 2 * p.x[1]) + 4 * (p.z[0] + 2 * p.z[1])
        counts[code] += 1
    assert counts[0] == 0
    sigma = math.sqrt((1 / 15) * (14 / 15) / trials)
    for c in counts[1:]:
        assert abs(c / trials - 1 / 15) < 3 * sigma


def test_xzy_problem_shape():
    hx, hz = four_two_two_checks()
    problem = depolarizing_problem(css_code(hx, hz), 0.1)
    assert problem.h.cols == 12
    assert problem.h.rows == 3
    assert problem.l.rows == 2
    assert np.allclose(problem.prior.p, 0.1 / 3)


def test_xzy_y_column_is_x_plus_z():
    problem = depolarizing_problem(surface_code(2), 0.05)
    h = problem.h.to_dense()
    n = 5
    for q in range(n):
        assert np.array_equal(h[:, 2 * n + q], h[:, q] ^ h[:, n + q])


def test_xzy_syndrome_matches_pauli_commutation():
    code = surface_code(2)
    rng = np.random.default_rng(29)
    problem = depolarizing_problem(code, 0.3)
    for _ in range(25):
        err = sample_depolarizing(code.n, 0.5, rng)
        faults = depolarizing_fault_vector(err)
        s = problem.h.matvec(faults)
        expect = np.concatenate(
            [code.hz.matvec(err.x), code.hx.matvec(err.z)]
        )
        assert np.array_equal(s, expect)
        flips = problem.l.matvec(faults)
        expect_l = np.concatenate(
            [code.lx.matvec(err.z), code.lz.matvec(err.x)]
        )
        assert np.array_equal(flips, expect_l)


def test_split_mode_on_surface_three():
    z_faults, x_faults = depolarizing_problem(surface_code(3), 0.1, mode="split-xz")
    assert z_faults.h.cols == 13 and x_faults.h.cols == 13
    assert np.allclose(z_faults.prior.p, 0.2 / 3)
    assert z_faults.h == surface_code(3).hx
    assert x_faults.h == surface_code(3).hz
    with pytest.raises(ValueError):
        depolarizing_problem(surface_code(3), 0.1, mode="bogus")


def test_undetectable_columns_are_flagged():
    h = F2Matrix.from_dense([[1, 0, 1], [0, 0, 1]])
    problem = decoding_problem(h, F2Matrix(1, 3), uniform_prior(3, 0.1))
    assert problem.undetectable.tolist() == [False, True, False]


@given(st.integers(0, 2**7 - 1))
def test_classical_problem_logicals_track_information_bits(word_int):
    code = hamming74()
    problem = classical_problem(code, 0.1)
    e = np.array([(word_int >> i) & 1 for i in range(7)], dtype=np.uint8)
    logical, _ = decompose(encoding_matrix(code), e)
    assert np.array_equal(problem.l.matvec(e), logical)


def test_problem_round_trip(tmp_path):
    problem = depolarizing_problem(surface_code(2), 0.07)
    path = tmp_path / "surface2_xzy.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.h == problem.h
    assert loaded.l == problem.l
    assert np.allclose(loaded.prior.p, problem.prior.p)
