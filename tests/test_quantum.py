import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qecbench.errors import (
    CapacityExceeded,
    DistanceUnknown,
    NotAbelian,
    NotCss,
)
from qecbench.descriptors import load, save_css_code, save_stabilizer_code
from qecbench.bench import build_code
from qecbench.f2 import F2Matrix, hstack, independent_rows, vstack
from qecbench.pauli import PauliOperator, swap_halves, symplectic_product
from qecbench.quantum import (
    CssCode,
    StabilizerCode,
    css_code,
    css_distance,
    distance,
    five_qubit_code,
    four_two_two_checks,
    stabilizer_code,
)

FIVE_QUBIT_H = np.array(
    [
        [1, 0, 0, 1, 0, 0, 1, 1, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 1, 1, 0],
        [1, 0, 1, 0, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 1, 0, 0, 0, 1],
    ],
    dtype=np.uint8,
)


def css_stabilizers(hx, hz):
    """[[hx, 0], [0, hz]]: the CSS checks as symplectic (x | z) rows."""
    return vstack([hstack([hx, F2Matrix(hx.rows, hz.cols)]),
                   hstack([F2Matrix(hz.rows, hx.cols), hz])])


def test_five_qubit_code():
    code = five_qubit_code()
    assert (code.n, code.k) == (5, 1)
    assert np.array_equal(code.h.to_dense(), FIVE_QUBIT_H)
    assert distance(code, 3) == 3


def test_not_abelian_rejected():
    with pytest.raises(NotAbelian):
        stabilizer_code([PauliOperator.from_string(s) for s in ("XI", "ZI")])


def test_minus_identity_in_span_rejected():
    # XX . ZZ . YY = -identity even though every pair commutes
    gens = [PauliOperator.from_string(s) for s in ("XX", "ZZ", "YY")]
    with pytest.raises(NotAbelian):
        stabilizer_code(gens)


def test_odd_check_matrix_rejected_by_its_own_check():
    with pytest.raises(ValueError, match="symplectic rows must have even length"):
        stabilizer_code(F2Matrix.from_dense([[1, 0, 1]]))


def test_imaginary_generator_rejected():
    with pytest.raises(NotAbelian):
        stabilizer_code([PauliOperator.from_string("+iXX")])


def test_negative_signs_are_normalized():
    code = stabilizer_code(
        [PauliOperator.from_string("-XX"), PauliOperator.from_string("ZZ")]
    )
    assert code.k == 0
    # a redundant row that matches after normalization is fine
    redundant = stabilizer_code(
        [PauliOperator.from_string("XX"), PauliOperator.from_string("-XX")]
    )
    assert redundant.k == 1


def test_logical_pairing_five_qubit():
    code = five_qubit_code()
    l = code.logicals
    assert l.rows == 2
    assert symplectic_product(l.row_dense(0), l.row_dense(1)) == 1
    for i in range(code.h.rows):
        assert symplectic_product(l.row_dense(0), code.h.row_dense(i)) == 0
        assert symplectic_product(l.row_dense(1), code.h.row_dense(i)) == 0


def reference_pairs(h):
    """Logical pairs by the per-row loop that the row-stack code replaced."""
    centralizer = swap_halves(h).kernel_basis()
    rem = list(centralizer.to_dense()[independent_rows(h, centralizer)])
    xs, zs = [], []
    while rem:
        u = rem.pop(0)
        w = rem.pop(next(i for i, w in enumerate(rem) if symplectic_product(u, w)))
        for i, v in enumerate(rem):
            if symplectic_product(v, w):
                v = v ^ u
            if symplectic_product(v, u):
                v = v ^ w
            rem[i] = v
        xs.append(u)
        zs.append(w)
    return np.stack(xs + zs)


@pytest.mark.parametrize(
    "spec", ["surface 2", "surface 3", "surface 4", "hgp hamming transpose hamming"])
def test_logical_pairs_match_the_loop_reference(spec):
    css = build_code(spec)
    h = css_stabilizers(css.hx, css.hz)
    got = stabilizer_code(h).logicals.to_dense()
    assert np.array_equal(got, reference_pairs(h))
    k = len(got) // 2
    pairing = symplectic_product(got, got)
    assert np.array_equal(pairing, np.kron([[0, 1], [1, 0]], np.eye(k, dtype=np.uint8)))
    assert not symplectic_product(got, h.to_dense()).any()
    five = five_qubit_code()
    assert np.array_equal(five.logicals.to_dense(), reference_pairs(five.h))


def test_tls_basis_spans_everything():
    code = five_qubit_code()
    assert vstack([code.h, code.logicals]).rank() == code.n + code.k


def test_css_code_422():
    hx, hz = four_two_two_checks()
    css = css_code(hx, hz)
    assert (css.n, css.k) == (4, 1)
    assert css_distance(css) == 2
    # pure-type logicals that pair correctly
    assert not css.hz.matvec(css.lx.row_dense(0)).any()
    assert not css.hx.matvec(css.lz.row_dense(0)).any()
    assert int(np.dot(css.lx.row_dense(0), css.lz.row_dense(0))) % 2 == 1


def test_css_rejects_non_orthogonal():
    with pytest.raises(NotCss):
        css_code(
            F2Matrix.from_dense([[1, 1, 0, 0]]),
            F2Matrix.from_dense([[1, 0, 0, 0]]),
        )


def test_block_diagonal_matches_css():
    hx, hz = four_two_two_checks()
    css = css_code(hx, hz)
    stab = stabilizer_code(css_stabilizers(hx, hz))
    assert stab.k == css.k
    assert distance(stab, 3) == css_distance(css)


def test_distance_guards():
    code = five_qubit_code()
    with pytest.raises(CapacityExceeded):
        distance(code, 7)
    with pytest.raises(DistanceUnknown):
        distance(code, 2)


def test_distance_of_stabilizer_state_is_inf():
    code = stabilizer_code(
        [PauliOperator.from_string("XX"), PauliOperator.from_string("ZZ")]
    )
    assert distance(code, 2) == math.inf


def test_code_descriptor_roundtrips(tmp_path):
    code = five_qubit_code()
    path = tmp_path / "five.json"
    save_stabilizer_code(code, path)
    loaded = load(path)
    assert isinstance(loaded, StabilizerCode) and loaded.h == code.h

    hx, hz = four_two_two_checks()
    css = css_code(hx, hz)
    cpath = tmp_path / "fourtwotwo.json"
    save_css_code(css, cpath, name="fourtwotwo")
    back = load(cpath)
    assert isinstance(back, CssCode) and back.hx == css.hx and back.hz == css.hz


@settings(max_examples=25)
@given(
    arrays(np.uint8, (2, 8), elements=st.integers(0, 1)),
)
def test_random_css_structure(bits):
    hx = F2Matrix.from_dense(bits)
    hz = hx.kernel_basis()  # guaranteed orthogonal to hx
    assume(hz.rows > 0)
    css = css_code(hx, hz)
    assert css.k == css.n - css.hx.rank() - css.hz.rank()
    if css.k:
        pairing = (css.lx @ css.lz.T).to_dense()
        assert np.array_equal(pairing, np.eye(css.k, dtype=np.uint8))
