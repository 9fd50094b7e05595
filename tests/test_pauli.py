import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecbench.f2 import F2Matrix
from qecbench.pauli import PauliOperator, product, swap_halves, symplectic_product


def pauli_strings(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


@given(pauli_strings(6), pauli_strings(6))
def test_multiply_xors_symplectic_rows(a, b):
    pa = PauliOperator.from_string(a)
    pb = PauliOperator.from_string(b)
    prod = pa * pb
    assert np.array_equal(prod.bsr(), pa.bsr() ^ pb.bsr())


@given(pauli_strings(6), pauli_strings(6))
def test_commutation_matches_pairwise_count(a, b):
    pa = PauliOperator.from_string(a)
    pb = PauliOperator.from_string(b)
    anti = 0
    for ca, cb in zip(a, b):
        if ca != "I" and cb != "I" and ca != cb:
            anti += 1
    assert symplectic_product(pa.bsr(), pb.bsr()) == anti % 2


@given(pauli_strings(5), pauli_strings(5))
def test_commutator_phase_relation(a, b):
    # P Q = (-1)^{<P,Q>} Q P for Hermitian Pauli strings
    pa = PauliOperator.from_string(a)
    pb = PauliOperator.from_string(b)
    ab = pa * pb
    ba = pb * pa
    expected = (ba.phase + 2 * symplectic_product(pa.bsr(), pb.bsr())) % 4
    assert ab.phase == expected


def test_single_qubit_products():
    x = PauliOperator.from_string("X")
    y = PauliOperator.from_string("Y")
    z = PauliOperator.from_string("Z")
    assert (x * z).to_string() == "-iY"
    assert (z * x).to_string() == "+iY"
    assert (x * y).to_string() == "+iZ"
    assert (y * x).to_string() == "-iZ"
    assert (z * y).to_string() == "-iX"
    assert (y * z).to_string() == "+iX"
    assert (x * x).to_string() == "+I"
    assert (y * y).to_string() == "+I"


@given(pauli_strings(4))
def test_string_roundtrip(s):
    for prefix in ("+", "-", "+i", "-i"):
        p = PauliOperator.from_string(prefix + s)
        assert p.to_string() == prefix + s
        assert PauliOperator.from_string(p.to_string()) == p


def test_sign_property():
    assert PauliOperator.from_string("-XX").sign == -1
    assert PauliOperator.from_string("XX").sign == 1
    with pytest.raises(ValueError):
        _ = PauliOperator.from_string("+iX").sign


def test_bsr_layout():
    p = PauliOperator.from_string("XZZXI")
    assert np.array_equal(p.bsr(), [1, 0, 0, 1, 0, 0, 1, 1, 0, 0])
    q = PauliOperator.from_bsr(p.bsr())
    assert q.to_string() == "+XZZXI"


@pytest.mark.parametrize("x, z", [([2, 3], [0, 1]), ([256], [0]), ([0], [-1]), ([0.5], [0])])
def test_rejects_non_binary_entries(x, z):
    with pytest.raises(ValueError, match="0 or 1"):
        PauliOperator(np.array(x), np.array(z))
    with pytest.raises(ValueError, match="0 or 1"):
        PauliOperator.from_bsr(np.concatenate([x, z]))
    assert PauliOperator([True, 1.0], [0, 1]).to_string() == "+XY"


def test_lambda_matrix_and_swap():
    zero, one = np.zeros((3, 3), np.uint8), np.eye(3, dtype=np.uint8)
    lam = F2Matrix.from_dense(np.block([[zero, one], [one, zero]]))
    m = F2Matrix.from_dense(np.arange(12).reshape(2, 6) % 2)
    assert (m @ lam) == swap_halves(m)
    # symplectic product via the form matrix
    a = PauliOperator.from_string("XYZ").bsr()
    b = PauliOperator.from_string("ZZI").bsr()
    via_form = int(np.dot(a, lam.matvec(b))) % 2
    assert via_form == symplectic_product(a, b)


def test_weight():
    assert PauliOperator.from_string("IXYZI").weight() == 3


# -- dense reference ----------------------------------------------------------

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]]),
}


def dense(row, phase=0):
    """The 2^n x 2^n matrix i^phase W(x, z), qubit 0 the leftmost factor."""
    n = len(row) // 2
    factors = [_SINGLE[(int(row[q]), int(row[n + q]))] for q in range(n)]
    return 1j ** phase * functools.reduce(np.kron, factors)


@st.composite
def signed_rows(draw, n=None):
    n = draw(st.integers(1, 3)) if n is None else n
    m = draw(st.integers(1, 5))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * 2 * n,
                         max_size=m * 2 * n))
    phases = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    return np.array(bits, np.uint8).reshape(m, 2 * n), np.array(phases)


@settings(max_examples=150, deadline=None)
@given(signed_rows())
def test_product_matches_dense_matrices(case):
    rows, phases = case
    row, phase = product(rows, phases)
    want = functools.reduce(np.matmul, map(dense, rows, phases))
    assert np.allclose(dense(row, phase), want)
    # the operator product is the two-row case
    n = rows.shape[1] // 2
    ops = [PauliOperator(r[:n], r[n:], int(p)) for r, p in zip(rows, phases)]
    got = functools.reduce(lambda a, b: a * b, ops)
    assert (got.bsr().tolist(), got.phase) == (row.tolist(), phase)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(signed_rows(n), signed_rows(n))))
def test_symplectic_product_matches_dense_commutation(case):
    (a, _), (b, _) = case
    got = symplectic_product(a, b)
    assert got.shape == (len(a), len(b))
    for i, j in np.ndindex(got.shape):
        u, v = dense(a[i]), dense(b[j])
        assert got[i, j] == (not np.allclose(u @ v, v @ u))
        assert symplectic_product(a[i], b[j]) == got[i, j]
    assert np.array_equal(symplectic_product(a, b[0]), got[:, 0])
