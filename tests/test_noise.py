import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qecbench.bench import sample_trials
from qecbench.classical import encoding_matrix, hamming74, linear_code
from qecbench.descriptors import load, save_problem
from qecbench.f2 import F2Matrix, SparseRows
from qecbench.homology import surface_code
from qecbench.noise import (
    Prior,
    classical_problem,
    depolarizing_fault_vector,
    depolarizing_problem,
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


def test_bsc_p_zero_never_flips():
    sample, = sample_trials("bsc", 64, 0.0, 7, 128)
    assert sample.shape == (128, 64) and not sample.any()


def test_bsc_empirical_rate():
    n = 100_000  # 100 trials of 1,000 bits: one block
    flips = sum(int(block.sum()) for block in sample_trials("bsc", 1_000, 0.1, 11, 100))
    sigma = math.sqrt(n * 0.1 * 0.9)
    assert abs(flips - n * 0.1) < 3 * sigma


def test_depolarizing_p_zero_is_identity():
    (x, z), = sample_trials("xzy", 10, 0.0, 1, 128)
    assert x.shape == z.shape == (128, 10) and not x.any() and not z.any()


def test_depolarizing_uniform_over_xyz():
    trials = 100_000  # qubits: 100 trials of 1,000, one block
    (x, z), = sample_trials("xzy", 1_000, 1.0, 17, 100)
    counts = [np.count_nonzero(x & ~z), np.count_nonzero(z & ~x), np.count_nonzero(x & z)]
    assert sum(counts) == trials
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    for c in counts:
        assert abs(c / trials - 1 / 3) < 3 * sigma


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
    problem = depolarizing_problem(code, 0.3)
    (xs, zs), = sample_trials("xzy", code.n, 0.5, 29, 25)
    for x, z in zip(xs, zs):
        faults = depolarizing_fault_vector(x, z)
        s = problem.h.matvec(faults)
        expect = np.concatenate(
            [code.hz.matvec(x), code.hx.matvec(z)]
        )
        assert np.array_equal(s, expect)
        flips = problem.l.matvec(faults)
        expect_l = np.concatenate(
            [code.lx.matvec(z), code.lz.matvec(x)]
        )
        assert np.array_equal(flips, expect_l)


@pytest.mark.parametrize("shape", [(0, 5), (1, 5), (128, 5), (3, 4, 7)])
def test_fault_vector_takes_a_batch_axis(shape):
    """(..., n) bits give (..., 3n) fault rows, each row that of its own call."""
    rng = np.random.default_rng(shape[0])
    x, z = (rng.integers(0, 2, size=shape, dtype=np.uint8) for _ in range(2))
    rows = depolarizing_fault_vector(x, z)
    assert rows.dtype == np.uint8 and rows.shape == shape[:-1] + (3 * shape[-1],)
    for index in np.ndindex(shape[:-1]):
        assert np.array_equal(rows[index], depolarizing_fault_vector(x[index], z[index]))


def test_split_mode_on_surface_three():
    z_faults, x_faults = depolarizing_problem(surface_code(3), 0.1, mode="split-xz")
    assert z_faults.h.cols == 13 and x_faults.h.cols == 13
    assert np.allclose(z_faults.prior.p, 0.2 / 3)
    assert z_faults.h == surface_code(3).hx
    assert x_faults.h == surface_code(3).hz
    with pytest.raises(ValueError):
        depolarizing_problem(surface_code(3), 0.1, mode="bogus")


@given(st.integers(0, 2**7 - 1))
def test_classical_problem_logicals_track_information_bits(word_int):
    code = hamming74()
    problem = classical_problem(code, 0.1)
    e = np.array([(word_int >> i) & 1 for i in range(7)], dtype=np.uint8)
    logical = encoding_matrix(code).v_inv.T.matvec(e)[: code.k]
    assert np.array_equal(problem.l.matvec(e), logical)


def test_classical_problem_ignores_redundant_checks():
    code = hamming74()
    h = code.h.to_dense()
    redundant = linear_code(F2Matrix.from_dense(np.vstack([h, h[0] ^ h[1]])))
    plain = classical_problem(code, 0.1)
    assert classical_problem(redundant, 0.1).l == plain.l


def test_problem_round_trip(tmp_path):
    problem = depolarizing_problem(surface_code(2), 0.07)
    path = tmp_path / "surface2_xzy.json"
    save_problem(problem, path)
    loaded = load(path)
    assert loaded.h == problem.h
    assert loaded.l == problem.l
    assert np.allclose(loaded.prior.p, problem.prior.p)


def test_compiled_arrays_are_read_only_and_built_once():
    problem = depolarizing_problem(surface_code(3), 0.05, "split-xz")[0]
    assert "tanner" not in vars(problem)  # the set-up builds no layout
    assert problem.tanner is problem.tanner and problem.prior.llr is problem.prior.llr
    with_empty_row = SparseRows(F2Matrix.from_dense([[1, 0], [0, 0]]))
    compiled = [problem.prior.llr]
    for graph in (problem.tanner, problem.tanner_hl, with_empty_row):
        compiled += [graph.row, graph.col, graph.real, graph.pad_col]
        compiled += [a for a in vars(graph).values() if isinstance(a, np.ndarray)]
    for a in compiled:
        with pytest.raises(ValueError):
            a[0] = 1
