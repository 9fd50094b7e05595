import numpy as np
import pytest
from hypothesis import given, strategies as st

from qecbench.f2 import F2Matrix
from qecbench.pauli import PauliOperator, swap_halves, symplectic_product


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
