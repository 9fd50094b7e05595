import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from qecbench.classical import (
    LinearCode,
    distance,
    encoding_matrix,
    hamming74,
    linear_code,
    repetition,
    syndrome,
    transpose_code,
)
from qecbench.descriptors import load
from qecbench.errors import CapacityExceeded
from qecbench.f2 import F2Matrix, write_alist


def check_matrices(max_rows=6, max_cols=10):
    shapes = st.tuples(st.integers(0, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(
        lambda s: arrays(np.uint8, s, elements=st.integers(0, 1)).map(
            F2Matrix.from_dense
        )
    )


def test_repetition_structure():
    code = repetition(3)
    assert np.array_equal(code.h.to_dense(), [[1, 1, 0], [0, 1, 1]])
    assert code.k == 1
    assert np.array_equal(code.g.to_dense(), [[1, 1, 1]])
    assert distance(code) == 3

    tiny = repetition(2)
    assert np.array_equal(tiny.h.to_dense(), [[1, 1]])
    assert np.array_equal(tiny.g.to_dense(), [[1, 1]])

    trivial = repetition(1)
    assert trivial.k == 1 and trivial.h.rows == 0


def test_hamming_parameters():
    code = hamming74()
    assert (code.n, code.k) == (7, 4)
    assert distance(code) == 3
    # single-bit error at position i has syndrome = binary expansion of i
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        s = syndrome(code, e)
        assert int(s[0]) + 2 * int(s[1]) + 4 * int(s[2]) == i + 1


@given(check_matrices())
def test_generator_annihilates_checks(h):
    code = linear_code(h)
    assert (code.h @ code.g.T).is_zero()
    assert code.k == code.n - h.rank()


@given(check_matrices())
def test_encoding_matrix_roundtrip(h):
    assume(h.rank() == h.rows)  # right inverse needs independent checks
    code = linear_code(h)
    enc = encoding_matrix(code)
    assert (enc.v @ enc.v_inv) == F2Matrix.identity(code.n)
    rng = np.random.default_rng(code.n + 5 * code.k)
    word = rng.integers(0, 2, size=code.n, dtype=np.uint8)
    coords = enc.v_inv.T.matvec(word)
    logical, synd = coords[: code.k], coords[code.k :]
    assert np.array_equal(synd, syndrome(code, word))
    # recombination reproduces the word
    assert np.array_equal(enc.v.T.matvec(np.concatenate([logical, synd])), word)


def test_no_checks_encoding():
    code = linear_code(F2Matrix(0, 4))
    enc = encoding_matrix(code)
    assert enc.v.rows == 4 and enc.v.rank() == 4


def test_distance_guard():
    g = F2Matrix.identity(25)
    code = LinearCode(h=F2Matrix(0, 25), g=g)
    with pytest.raises(CapacityExceeded):
        distance(code)


def test_distance_zero_rate():
    code = linear_code(F2Matrix.identity(3))
    assert code.k == 0
    assert distance(code) == math.inf


def test_transpose_code():
    code = repetition(3)
    t = transpose_code(code)
    assert t.n == 2 and t.k == 0


def test_code_descriptor_roundtrip(tmp_path):
    code = hamming74()
    path = tmp_path / "hamming.alist"
    write_alist(code.h, path)
    loaded = load(path)
    assert isinstance(loaded, LinearCode)
    assert loaded.h == code.h and loaded.g == code.g
