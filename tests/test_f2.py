from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qecbench import decoders
from qecbench.bench import BenchmarkConfig, run_benchmark
from qecbench.errors import CapacityExceeded, NoRightInverse, NoSolution
from qecbench.f2 import (
    F2Matrix,
    SPAN_BLOCK,
    SparseRows,
    _unpack,
    from_alist,
    hstack,
    independent_rows,
    kron,
    span_blocks,
    to_alist,
    vstack,
)

from coset_reference import (_unwords, _words, reference_coset, reference_coset_transform,
                             reference_reduce)
from parity_reference import parity_test
from span_reference import reference_span_blocks


def f2_matrices(max_rows=8, max_cols=12, min_rows=0, min_cols=0):
    shapes = st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
    )
    return shapes.flatmap(
        lambda s: arrays(np.uint8, s, elements=st.integers(0, 1)).map(
            F2Matrix.from_dense
        )
    )


@given(f2_matrices())
def test_eliminate_reconstruction(m):
    # eliminating [M | I] over M's columns leaves [R | T] with T M = R
    res = hstack([m, F2Matrix.identity(m.rows)]).eliminate(range(m.cols))
    dense = res.reduced.to_dense()
    reduced = F2Matrix.from_dense(dense[:, : m.cols])
    t = F2Matrix.from_dense(dense[:, m.cols :])
    assert (t @ m) == reduced == m.eliminate().reduced
    assert t.rank() == m.rows  # invertible
    assert len(res.pivot_columns) == m.rank()


@given(f2_matrices())
def test_eliminate_pivot_columns_are_reduced(m):
    res = m.eliminate()
    dense = res.reduced.to_dense()
    for i, p in enumerate(res.pivot_columns):
        col = dense[:, p]
        assert col[i] == 1 and col.sum() == 1


@given(f2_matrices(max_rows=7, max_cols=7))
def test_rank_transpose_invariant(m):
    assert m.rank() == m.T.rank()


@given(f2_matrices(max_rows=4, max_cols=5), f2_matrices(max_rows=4, max_cols=5))
def test_kron_rank_multiplicative(a, b):
    assert kron(a, b).rank() == a.rank() * b.rank()


def test_kron_checks_its_product_against_dense_bytes(monkeypatch):
    """A product past f2.DENSE_BYTES raises CapacityExceeded before np.kron
    builds it, and one at the limit builds as before; a broken guard costs
    about 1 MB."""
    monkeypatch.setattr("qecbench.f2.DENSE_BYTES", 1 << 20)
    with pytest.raises(CapacityExceeded, match="Kronecker product.*DENSE_BYTES"):
        kron(F2Matrix(1025, 1), F2Matrix(1024, 1))
    with pytest.raises(CapacityExceeded):
        kron(F2Matrix(1, 1025), F2Matrix(1, 1024))
    at_limit = kron(F2Matrix.identity(32), F2Matrix.identity(32))
    assert (at_limit.rows, at_limit.cols) == (1024, 1024)
    assert np.array_equal(at_limit.to_dense(), np.eye(1024, dtype=np.uint8))


@given(f2_matrices())
def test_kernel_basis(m):
    k = m.kernel_basis()
    assert k.rows == m.cols - m.rank()
    assert (m @ k.T).is_zero()
    # basis rows are independent
    assert k.rank() == k.rows


@given(f2_matrices(min_rows=1, min_cols=1))
def test_right_inverse(m):
    if m.rank() < m.rows:
        with pytest.raises(NoRightInverse):
            m.right_inverse()
    else:
        r = m.right_inverse()
        assert (m @ r) == F2Matrix.identity(m.rows)


@given(f2_matrices(min_rows=1, min_cols=1), st.randoms(use_true_random=False))
def test_solve_columns_consistent_rhs(m, rnd):
    x_true = np.array([rnd.randint(0, 1) for _ in range(m.cols)], dtype=np.uint8)
    s = m.matvec(x_true)
    x = m.solve_columns(range(m.cols), s)
    assert np.array_equal(m.matvec(x), s)


def test_solve_columns_restricted():
    m = F2Matrix.from_dense([[1, 0, 1], [0, 1, 1]])
    x = m.solve_columns([2], np.array([1, 1], dtype=np.uint8))
    assert np.array_equal(x, [0, 0, 1])
    with pytest.raises(NoSolution):
        m.solve_columns([0], np.array([1, 1], dtype=np.uint8))
    with pytest.raises(ValueError):
        m.solve_columns([0, 0], np.array([1, 1], dtype=np.uint8))
    for cols in ([-1], [0, -3], [3]):  # negative indices do not wrap
        with pytest.raises(ValueError):
            m.solve_columns(cols, np.array([1, 1], dtype=np.uint8))
    # floats and bools are not read as column numbers
    for cols in ([0.0, 2.0], [2.0], [True], [2, True], np.array([True, False, True])):
        with pytest.raises(ValueError):
            m.solve_columns(cols, np.array([1, 1], dtype=np.uint8))


@settings(max_examples=150)
@given(f2_matrices(max_rows=6, max_cols=9), st.data())
def test_coset_transform_solves_exactly_where_below_is_zero(m, data):
    """Against every vector on the listed columns: x solves M x = rhs, zero
    off the pivots, in the columns where below is zero, and no vector solves
    the others; rhs mixes random columns with images M v."""
    dense = m.to_dense().astype(np.int64)
    k = data.draw(st.integers(0, 4))
    rhs = data.draw(arrays(np.uint8, (m.rows, k), elements=st.integers(0, 1)))
    images = data.draw(arrays(np.uint8, (m.cols, data.draw(st.integers(0, 2))),
                              elements=st.integers(0, 1)))
    rhs = np.hstack([rhs, dense @ images % 2]).astype(np.uint8)
    listed = data.draw(st.one_of(st.none(), st.permutations(range(m.cols)).flatmap(
        lambda order: st.integers(0, m.cols).map(lambda n: order[:n]))))
    pivots, free, rows, x, below = m.coset_transform(rhs, listed)
    on = np.arange(m.cols) if listed is None else np.asarray(listed, dtype=np.intp)
    assert sorted(pivots.tolist() + free.tolist()) == sorted(on.tolist())
    assert x.shape == (m.cols, rhs.shape[1]) and below.shape == (m.rows - pivots.size,
                                                                 rhs.shape[1])
    off = np.ones(m.cols, dtype=bool)
    off[pivots] = False
    assert not x[off].any()
    vectors = np.zeros((1 << on.size, m.cols), dtype=np.int64)
    vectors[:, on] = (np.arange(1 << on.size)[:, None] >> np.arange(on.size)) & 1
    reached = {v.tobytes() for v in (vectors @ dense.T % 2).astype(np.uint8)}
    for j in range(rhs.shape[1]):
        solved = not below[:, j].any()
        assert solved == (rhs[:, j].tobytes() in reached)
        if solved:
            assert np.array_equal(dense @ x[:, j] % 2, rhs[:, j])


def test_eliminate_rejects_malformed_order():
    m = F2Matrix.from_dense([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        m.eliminate([0, 0])
    with pytest.raises(ValueError):
        m.eliminate([1, 2])
    for order in ([0.0, 1.0], np.array([1.0]), [True, False], [0, True], [1, np.True_],
                  np.array([True, False])):
        with pytest.raises(ValueError):
            m.eliminate(order)
    assert m.eliminate([]).pivot_columns == ()
    assert m.eliminate(np.array([1, 0], dtype=np.uint8)).pivot_columns == (1, 0)


@settings(max_examples=400, deadline=None)
@given(rows=st.integers(0, 12), cols=st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]),
       density=st.sampled_from([0.02, 0.1, 0.5, 0.9, 1.0]), dependent=st.booleans(),
       order=st.sampled_from(["all", "permutation", "prefix"]), seed=st.integers(0, 2**32 - 1))
def test_eliminate_matches_the_reference_loop(rows, cols, density, dependent, order, seed):
    """Same pivots and the same reduced rows as far as eliminate's contract fixes them."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    if dependent and rows >= 2:  # one row becomes the sum of some others
        i = rng.integers(rows)
        others = rng.choice(np.delete(np.arange(rows), i), rng.integers(1, rows), replace=False)
        dense[i] = np.bitwise_xor.reduce(dense[others], axis=0)
    m = F2Matrix.from_dense(dense)
    column_order = {"all": None, "permutation": rng.permutation(cols),
                    "prefix": rng.permutation(cols)[:rng.integers(0, max(cols, 1))]}[order]
    _assert_same_reduction(m, column_order, reference_reduce(m, column_order))


def _assert_same_reduction(m, column_order, reference):
    """eliminate against a reference loop's (pivots, dense R): the same
    pivots, the same pivot rows and zero rows under them on the listed
    columns, and the same R when the rows are independent.  The rest of R
    (dependent rows, unlisted columns) depends on which invertible T is
    taken, so only a full-rank R, whose T is unique, is compared whole."""
    pivots, expected = reference
    res = m.eliminate(column_order)
    reduced = res.reduced.to_dense()
    listed = range(m.cols) if column_order is None else column_order
    listed, rank = np.asarray(listed, dtype=np.intp), len(pivots)
    assert res.pivot_columns == pivots
    assert reduced.shape == expected.shape
    assert np.array_equal(reduced[:rank, listed], expected[:rank, listed])
    assert not reduced[rank:, listed].any()
    if rank == m.rows:
        assert reduced.tobytes() == expected.tobytes()


def _argmax_eliminate(self, column_order=None):
    """The argmax + bitwise_xor.at loop that F2Matrix.eliminate ran before
    its rows became Python ints, kept verbatim as a second reference:
    (pivot columns, reduced words)."""
    if column_order is None:
        order = range(self.cols)
    else:
        order = np.asarray(column_order).tolist()
    m = _words(self)
    pivots: list[int] = []
    r = 0
    for col in order:
        if r == self.rows:  # also keeps argmax off an empty slice
            break
        w, b = divmod(col, 64)
        bits = m[:, w] & np.uint64(1 << b)
        # every set entry equals the mask, so argmax is the first row from r with the bit
        p = r + bits[r:].argmax()
        if not bits[p]:
            continue
        row = m[p].copy()
        m[p], m[r] = m[r], row
        bits[p], bits[r] = bits[r], 0
        np.bitwise_xor.at(m, bits.nonzero()[0], row)
        pivots.append(col)
        r += 1
    return tuple(pivots), m


def _assert_same_as_argmax_loop(m, column_order):
    res = m.eliminate(column_order)
    pivots, words = _argmax_eliminate(m, column_order)
    assert res.pivot_columns == pivots
    assert _words(res.reduced).shape == words.shape
    assert np.array_equal(_words(res.reduced), words)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 150), cols=st.sampled_from([0, 1, 63, 64, 65, 128, 129, 192]),
       density=st.sampled_from([0.02, 0.1, 0.5, 0.9]),
       order=st.sampled_from(["all", "permutation", "prefix", "leading", "empty"]),
       seed=st.integers(0, 2**32 - 1))
def test_eliminate_matches_the_argmax_loop_on_dependent_rows(rows, cols, density, order, seed):
    """Rank at most rows/2, so at least half the rows are sums of others:
    same pivots, the same pivot rows and zero dependent rows on the listed
    columns."""
    rng = np.random.default_rng(seed)
    basis = rng.random((rng.integers(0, rows // 2 + 1), cols)) < density
    mix = rng.random((rows, basis.shape[0])) < 0.5
    m = F2Matrix.from_dense((mix.astype(np.int64) @ basis) & 1)
    column_order = {"all": None, "permutation": rng.permutation(cols),
                    "prefix": list(rng.permutation(cols)[:rng.integers(0, cols + 1)]),
                    "leading": range(rng.integers(0, cols + 1)), "empty": []}[order]
    pivots, words = _argmax_eliminate(m, column_order)
    _assert_same_reduction(m, column_order, (pivots, _unwords(words, m.cols)))


@pytest.fixture(scope="module")
def surface9_osd_eliminations():
    """([H | s], argsort(soft, kind="stable")) of every OSD-0 elimination
    bp_osd makes on surface 9, split-xz, p = 0.05, in 40 trials at each of
    seeds 3 and 11."""
    inputs = []
    prepare = decoders._osd_prepare

    def recorded(h, s, soft, *full):
        column = F2Matrix.from_dense(np.reshape(s, (-1, 1)))
        inputs.append((hstack([h, column]), np.argsort(soft, kind="stable")))
        return prepare(h, s, soft, *full)

    with mock.patch.object(decoders, "_osd_prepare", recorded):
        for seed in (3, 11):
            run_benchmark(BenchmarkConfig(code="surface 9", noise="split-xz", decoder="bp+osd 0",
                                          rates=(0.05,), trials=40, seed=seed))
    return inputs


def test_eliminate_matches_the_argmax_loop_on_surface9_osd_inputs(surface9_osd_eliminations):
    assert len(surface9_osd_eliminations) >= 20
    for m, order in surface9_osd_eliminations:
        _assert_same_as_argmax_loop(m, order)


def test_rank_and_independent_rows_make_one_column_pass(monkeypatch):
    """Both read the pivots of one column-basis pass, and nothing eliminates."""
    calls = []
    for name in ("_pass", "eliminate"):
        def counted(self, *args, name=name, method=getattr(F2Matrix, name), **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(F2Matrix, name, counted)
    m = F2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m.rank() == 2
    assert calls == ["_pass"]
    calls.clear()
    assert independent_rows(F2Matrix.from_dense([[1, 1, 0]]), m) == [1]
    assert calls == ["_pass"]


def test_eliminate_respects_column_order():
    m = F2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])
    res = m.eliminate([2, 1, 0])
    assert res.pivot_columns == (2, 1)


@given(f2_matrices(), st.data())
def test_unlisted_columns_never_take_a_pivot(m, data):
    order = data.draw(st.permutations(range(m.cols)))
    listed = order[: data.draw(st.integers(0, m.cols))]
    res = m.eliminate(listed)
    assert set(res.pivot_columns) <= set(listed)
    assert len(res.pivot_columns) == F2Matrix.from_dense(m.to_dense()[:, listed]).rank()
    dense = res.reduced.to_dense()
    for i, p in enumerate(res.pivot_columns):
        assert dense[i, p] == 1 and dense[:, p].sum() == 1


@st.composite
def base_and_candidates(draw):
    cols = draw(st.integers(0, 10))
    block = lambda: arrays(np.uint8, (draw(st.integers(0, 6)), cols),
                           elements=st.integers(0, 1)).map(F2Matrix.from_dense)
    return draw(block()), draw(block())


@given(base_and_candidates())
def test_independent_rows_picks_each_row_that_extends_the_span(pair):
    base, cand = pair
    picks = independent_rows(base, cand)
    rank = [vstack([base, F2Matrix.from_dense(cand.to_dense()[:i])]).rank()
            for i in range(cand.rows + 1)]
    assert picks == [i for i in range(cand.rows) if rank[i + 1] > rank[i]]


@given(base_and_candidates())
def test_independent_rows_span_every_candidate(pair):
    base, cand = pair
    kept = F2Matrix.from_dense(cand.to_dense()[independent_rows(base, cand)])
    assert vstack([base, kept]).rank() == vstack([base, cand]).rank()


@given(f2_matrices())
def test_matmul_matches_dense(m):
    other_dense = np.eye(m.cols, dtype=np.uint8)
    assert (m @ F2Matrix.from_dense(other_dense) if m.cols else m) == m


@given(f2_matrices(max_rows=5, max_cols=6), f2_matrices(max_rows=6, max_cols=4))
def test_matmul_associates_with_dense_product(a, b):
    if a.cols != b.rows:
        b = F2Matrix.from_dense(np.resize(b.to_dense(), (a.cols, max(1, b.cols))))
    ref = (a.to_dense().astype(int) @ b.to_dense().astype(int)) % 2
    assert (a @ b) == F2Matrix.from_dense(ref)


@given(f2_matrices(min_cols=1))
def test_matvec_matches_dense(m):
    rng = np.random.default_rng(m.cols * 31 + m.rows)
    v = rng.integers(0, 2, size=m.cols, dtype=np.uint8)
    ref = (m.to_dense().astype(int) @ v.astype(int)) % 2
    assert np.array_equal(m.matvec(v), ref.astype(np.uint8))


def test_matrices_are_values():
    """Writing into a dense view or into the array it was built from
    changes neither == nor hash; from_dense keeps the low bit."""
    source = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    m = F2Matrix.from_dense(source)
    same, key = F2Matrix.from_dense(source.copy()), hash(m)
    source[0] = 0
    dense, row = m.to_dense(), m.row_dense(1)
    assert dense.flags.writeable and row.flags.writeable
    dense[0, 1] = 1
    row[0] = 1
    assert m == same and hash(m) == key
    assert np.array_equal(m.to_dense(), [[1, 0, 1], [0, 1, 1]])
    assert F2Matrix.from_dense([[2, 3]]) == F2Matrix.from_dense([[0, 1]])


@pytest.mark.parametrize("inner", [255, 256, 257, 300, 301])
def test_products_keep_parity_past_the_uint8_wrap(inner):
    """An all-ones row times an all-ones column sums ``inner`` ones, past
    255; a bool product or a sum without its low-bit mask reads wrong."""
    rng = np.random.default_rng(inner)
    a = rng.integers(0, 2, size=(4, inner), dtype=np.uint8)
    b = rng.integers(0, 2, size=(inner, 3), dtype=np.uint8)
    a[0], b[:, 0] = 1, 1
    ref = (a.astype(np.int64) @ b) % 2
    product = F2Matrix.from_dense(a) @ F2Matrix.from_dense(b)
    assert product == F2Matrix.from_dense(ref) and product.to_dense()[0, 0] == inner % 2
    out = F2Matrix.from_dense(a).matvec(b[:, 0])
    assert out.dtype == np.uint8 and np.array_equal(out, ref[:, 0])
    assert np.array_equal(F2Matrix.from_dense(a).matvec(b[:, 0] * 3), ref[:, 0])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 6), cols=st.sampled_from([0, 1, 7, 63, 64, 65, 128, 129]),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]), empty=st.sets(st.integers(0, 5)),
       seed=st.integers(0, 2**32 - 1))
@example(rows=4, cols=65, density=1.0, empty={1, 3}, seed=0)  # empty rows mid and last
def test_sparse_rows_parity_matches_matvec(rows, cols, density, empty, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    dense[[i for i in empty if i < rows]] = 0
    m = F2Matrix.from_dense(dense)
    sparse = SparseRows(m)
    degree = dense.sum(axis=1, dtype=np.intp)
    assert np.array_equal(sparse.row, np.repeat(np.arange(rows), degree))
    assert np.array_equal(dense[sparse.row, sparse.col], np.ones(degree.sum()))
    dmax = degree.max(initial=0)
    assert np.array_equal(sparse.real, np.arange(dmax) < degree[:, None])
    padded = np.full((rows, dmax), cols)
    for i, row in enumerate(dense):
        padded[i, :degree[i]] = np.flatnonzero(row)
    assert np.array_equal(sparse.pad_col, padded)
    v = rng.integers(0, 256, size=cols, dtype=np.uint8)  # matvec reads the low bit
    out = sparse.parity(v)
    assert out.dtype == np.uint8 and np.array_equal(out, m.matvec(v))
    for s in (out, rng.integers(0, 2, size=rows, dtype=np.uint8)):  # s may set an empty row
        assert parity_test(sparse, s)((v & 1).astype(bool)) == np.array_equal(out, s)
    with pytest.raises(ValueError):
        sparse.parity(np.zeros(cols + 1, dtype=np.uint8))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(0, 6), cols=st.sampled_from([0, 1, 7, 64, 65]),
       density=st.sampled_from([0.0, 0.3, 1.0]), empty=st.sets(st.integers(0, 5)),
       batch=st.sampled_from([0, 1, 5, 128]), seed=st.integers(0, 2**32 - 1))
def test_sparse_rows_parity_takes_a_batch_axis(rows, cols, density, empty, batch, seed):
    """A (B, cols) batch gives each row's own matvec, also for B = 0 and 1, for
    empty rows and for entries other than 0/1; a vector is a batch of one."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    dense[[i for i in empty if i < rows]] = 0
    m = F2Matrix.from_dense(dense)
    sparse = SparseRows(m)
    v = rng.integers(0, 256, size=(batch, cols), dtype=np.uint8)
    out = sparse.parity(v)
    assert out.dtype == np.uint8 and out.shape == (batch, rows)
    for got, row in zip(out, v):
        assert np.array_equal(got, m.matvec(row))
    if batch:
        assert np.array_equal(sparse.parity(v[0]), out[0])
        assert np.array_equal(sparse.parity(v.astype(np.int64) + 2), out)  # low bit only
        assert np.array_equal(sparse.parity(v.reshape(1, batch, cols)), out[None])
    for shape in ((batch, cols + 1), (cols + 1,), ()):
        with pytest.raises(ValueError):
            sparse.parity(np.zeros(shape, dtype=np.uint8))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 9), empty=st.booleans(),
       dtype=st.sampled_from([bool, np.uint8, np.int64]), batch=st.sampled_from([None, 0, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_rows_parity_paths_agree_with_matvec(rows, cols, empty, dtype, batch, seed):
    """With and without an empty row, parity gives matvec's bits as uint8, for
    bool, uint8 and int64 input, as a vector and as a (B, cols) batch."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    dense[np.arange(rows), rng.integers(0, cols, rows)] = 1  # every row has an edge
    if empty:
        dense[rng.integers(rows)] = 0
    m = F2Matrix.from_dense(dense)
    sparse = SparseRows(m)
    v = rng.integers(0, 2 if dtype is bool else 256, size=(batch or 0, cols)).astype(dtype)
    for vectors in ((v, v[0]) if batch else (v,)):
        out = sparse.parity(vectors)
        assert out.dtype == np.uint8 and out.shape == vectors.shape[:-1] + (rows,)
        want = [m.matvec(row.astype(np.uint8)) for row in np.atleast_2d(vectors)]
        assert np.array_equal(np.atleast_2d(out), np.reshape(want, (-1, rows)))


def test_stacking():
    a = F2Matrix.from_dense([[1, 0], [0, 1]])
    b = F2Matrix.from_dense([[1, 1], [1, 0]])
    assert hstack([a, b]).cols == 4
    assert vstack([a, b]).rows == 4


@pytest.mark.parametrize("rows,cols", [(0, 5), (3, 0), (4, 1), (4, 63), (4, 64), (4, 65), (2, 128)])
def test_hstack_appends_a_column(rows, cols):
    """[M | v] as coset builds it for a syndrome v, against the dense layout."""
    rng = np.random.default_rng(cols)
    dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    v = rng.integers(0, 2, size=rows, dtype=np.uint8)
    out = hstack([F2Matrix.from_dense(dense), F2Matrix.from_dense(v.reshape(rows, 1))])
    assert (out.rows, out.cols) == (rows, cols + 1)
    assert np.array_equal(out.to_dense(), np.column_stack([dense, v]))


def test_wide_matrix_crosses_word_boundary():
    rng = np.random.default_rng(7)
    dense = rng.integers(0, 2, size=(5, 130), dtype=np.uint8)
    m = F2Matrix.from_dense(dense)
    assert np.array_equal(m.to_dense(), dense)
    assert m.rank() == np.linalg.matrix_rank(dense.astype(float)) or m.rank() <= 5
    v = rng.integers(0, 2, size=130, dtype=np.uint8)
    ref = (dense.astype(int) @ v.astype(int)) % 2
    assert np.array_equal(m.matvec(v), ref.astype(np.uint8))


@given(f2_matrices())
def test_alist_roundtrip(m):
    text = to_alist(m)
    back = from_alist(text)
    assert back == m
    assert to_alist(back) == text  # bit-exact on the wire


def test_alist_known_form():
    m = F2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])
    lines = to_alist(m).splitlines()
    assert lines[0] == "3 2"
    assert lines[1] == "2 2"
    assert lines[2] == "1 2 1"
    assert lines[3] == "2 2"
    assert lines[4] == "1 0"   # column 0: row 1, padded
    assert lines[7] == "1 2"   # row 0: columns 1,2


def test_alist_rejects_bad_row_indices_and_truncation():
    lines = to_alist(F2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])).splitlines()
    for entry in ("3 0", "-1 0"):  # column 0 names a row outside 1..2
        with pytest.raises(ValueError):
            from_alist("\n".join(lines[:4] + [entry] + lines[5:]) + "\n")
    with pytest.raises(ValueError):  # column 0 lists row 1 twice as its degree 2
        from_alist("2 2\n2 1\n2 1\n1 1\n1 1\n2 0\n1\n2\n")
    with pytest.raises(ValueError):
        from_alist("\n".join(lines[:-1]) + "\n")


@given(f2_matrices(max_rows=6, max_cols=8), st.integers(0, 255))
def test_span_blocks_counts_through_offset_plus_span(m, seed):
    offset = np.random.default_rng(seed).integers(0, 2, m.cols).astype(np.uint8)
    rows = np.concatenate(list(span_blocks(m, offset)))
    assert rows.shape == (1 << m.rows, m.cols)
    dense = m.to_dense().astype(np.int64)
    for i, row in enumerate(rows):
        picks = (i >> np.arange(m.rows)) & 1
        assert np.array_equal(row, (picks @ dense + offset) % 2)
    plain = np.concatenate(list(span_blocks(m)))
    assert np.array_equal(plain, rows ^ offset)


@pytest.mark.parametrize("kappa", range(17))
def test_span_blocks_match_the_picks_product_block_by_block(kappa):
    rng = np.random.default_rng(kappa)
    m = F2Matrix.from_dense(rng.integers(0, 2, (kappa, kappa % 7 * 3)))
    offset = rng.integers(0, 2, m.cols).astype(np.uint8)
    for off in (None, offset):
        new = list(span_blocks(m, off))
        old = list(reference_span_blocks(m, off))
        assert len(new) == len(old) == max(1, 2**kappa // SPAN_BLOCK)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


def _coset_outcome(f, *args):
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in f(*args)]
    except NoSolution:
        return NoSolution


@settings(max_examples=300, deadline=None)
@given(rows=st.sampled_from([0, 1, 3, 7, 8, 9, 63, 64, 65]),
       cols=st.sampled_from([0, 1, 4, 7, 8, 9, 63, 64, 65]),
       density=st.sampled_from([0.05, 0.2, 0.5, 0.9]), rank=st.sampled_from(["full", "half", "one"]),
       order=st.sampled_from(["none", "permutation", "prefix"]), k=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_coset_transform_matches_the_elimination_path(rows, cols, density, rank, order, k, seed):
    """The column-basis pass against the eliminate-based coset_transform it
    replaced: the same pivots, free columns and kernel rows, below of the
    same shape and zero in the same columns, and there the same solutions x
    (elsewhere x solves nothing, and each path leaves its own); coset raises
    NoSolution on exactly the same syndromes."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    if rank != "full":  # rows are sums of rows / 2 (or of one) random rows
        basis = dense[:max(rows // 2, 1) if rank == "half" else 1]
        dense = ((rng.random((rows, len(basis))) < 0.5).astype(np.int64) @ basis & 1).astype(np.uint8)
    m = F2Matrix.from_dense(dense)
    listed = {"none": None, "permutation": rng.permutation(cols),
              "prefix": list(rng.permutation(cols)[:rng.integers(0, cols + 1)])}[order]
    images = dense.astype(np.int64) @ (rng.random((cols, k)) < 0.5) % 2
    rhs = np.where(rng.random(k) < 0.5, images, rng.random((rows, k)) < 0.5).astype(np.uint8)
    pivots, free, kernel, x, below = m.coset_transform(rhs, listed)
    ref_pivots, ref_free, ref_kernel, ref_x, ref_below = reference_coset_transform(m, rhs, listed)
    assert below.shape == ref_below.shape
    solved = ~below.any(axis=0)
    assert np.array_equal(solved, ~ref_below.any(axis=0))
    assert x.shape == ref_x.shape
    for got, expected in ((pivots, ref_pivots), (free, ref_free), (kernel, ref_kernel),
                          (x[:, solved], ref_x[:, solved])):
        assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape,
                                                         expected.tobytes())
    # x and below are linear in rhs, so those of I map any rhs to its own
    _, _, _, x_eye, below_eye = m.coset_transform(np.eye(rows, dtype=np.uint8), listed)
    assert np.array_equal(x, x_eye.astype(np.int64) @ rhs % 2)
    assert np.array_equal(below, below_eye.astype(np.int64) @ rhs % 2)
    assert _coset_outcome(m.coset, None, listed) == _coset_outcome(reference_coset, m, None, listed)
    for j in range(k):
        assert (_coset_outcome(m.coset, rhs[:, j], listed)
                == _coset_outcome(reference_coset, m, rhs[:, j], listed))


@settings(max_examples=200, deadline=None)
@given(rows=st.sampled_from([0, 1, 3, 8, 9, 64, 65]), cols=st.sampled_from([0, 1, 7, 9, 64, 65]),
       density=st.sampled_from([0.05, 0.5]), dependent=st.booleans(),
       order=st.sampled_from(["none", "permutation", "prefix"]), k=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_the_short_pass_keeps_the_pivots_and_solutions(rows, cols, density, dependent, order, k,
                                                       seed):
    """The pass that stops once its pivots span the rows, for callers that
    read no kernel rows: the pivots, x and below of the full pass, and the
    rank, right inverse, independent rows and solutions built on it."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    if dependent and rows > 1:
        dense[-1] = dense[0]
    m = F2Matrix.from_dense(dense)
    listed = {"none": None, "permutation": rng.permutation(cols),
              "prefix": list(rng.permutation(cols)[:rng.integers(0, cols + 1)])}[order]
    rhs = (rng.random((rows, k)) < 0.5).astype(np.uint8)
    pivots, free, kernel, x, below = m.coset_transform(rhs, listed)
    short_pivots, _, short_kernel, xs, short_below = m._pass(rhs, listed, False)
    assert np.array_equal(short_pivots, pivots) and short_kernel == []
    assert np.array_equal(_unpack(xs, cols).T, x)
    assert short_below.tobytes() == below.tobytes() and short_below.shape == below.shape
    assert m.rank() == len(reference_reduce(m)[0])
    if m.rank() == rows:
        assert np.array_equal(m.right_inverse().to_dense(),
                              m.coset_transform(np.eye(rows, dtype=np.uint8))[3])
    for j in range(k):
        want = _coset_outcome(lambda: [m.coset(rhs[:, j], listed)[2][-1]])
        assert _coset_outcome(lambda: [m.solve_columns(range(cols) if listed is None else listed,
                                                       rhs[:, j])]) == want


def test_the_column_cache_is_no_part_of_a_matrix_value():
    """A solve builds a matrix's column ints; its transpose builds its own,
    and == and hash read the 0/1 entries alone."""
    dense = np.array([[1, 0, 1, 1, 0], [0, 1, 1, 0, 0], [1, 1, 0, 1, 1]], dtype=np.uint8)
    m, twin = F2Matrix.from_dense(dense), F2Matrix.from_dense(dense)
    assert hash(m) == hash(twin)
    before = m.kernel_basis()  # builds m's columns, not twin's
    assert m == twin and twin == m and hash(m) == hash(twin)
    assert len({m, twin}) == 1
    assert before == twin.kernel_basis() == m.kernel_basis()
    fresh_t, s = F2Matrix.from_dense(dense.T), dense[0]
    for t in (m.T, twin.T):
        assert t == fresh_t and hash(t) == hash(fresh_t)
        assert t.kernel_basis() == fresh_t.kernel_basis()
        assert np.array_equal(t.solve_columns(range(3), s), fresh_t.solve_columns(range(3), s))
    assert m.T.kernel_basis().rows == 0 and m.kernel_basis().rows == 2
