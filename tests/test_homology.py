import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qecbench.classical import linear_code, repetition, transpose_code
from qecbench.errors import NotAComplex
from qecbench.f2 import F2Matrix
from qecbench.homology import (
    chain_complex,
    from_css,
    hgp_parameters,
    homology_dimension,
    hypergraph_product,
    surface_code,
    to_css,
    validate,
)
from qecbench.quantum import css_code, css_distance, four_two_two_checks


def small_codes(max_rows=3, max_cols=4):
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(
        lambda s: arrays(np.uint8, s, elements=st.integers(0, 1)).map(
            lambda a: linear_code(F2Matrix.from_dense(a))
        )
    )


def test_single_map_always_validates():
    c = chain_complex([repetition(4).h])
    assert validate(c)
    assert c.length == 1
    assert c.spaces == (4, 3)


def test_nonzero_composition_is_rejected():
    one = F2Matrix.from_dense([[1]])
    c = chain_complex([one, one])
    with pytest.raises(NotAComplex) as err:
        validate(c)
    assert err.value.index == 1


def test_shape_mismatch_is_rejected():
    with pytest.raises(ValueError):
        chain_complex([repetition(4).h, repetition(4).h])


@given(small_codes())
def test_classical_code_has_homology_k_at_top(code):
    c = chain_complex([code.h])
    assert homology_dimension(c, 1) == code.k


def test_exact_complex_has_trivial_homology():
    d2 = F2Matrix.from_dense([[1, 0], [0, 1], [0, 0], [0, 0]])
    d1 = F2Matrix.from_dense([[0, 0, 1, 0], [0, 0, 0, 1]])
    c = chain_complex([d2, d1])
    assert validate(c)
    assert [homology_dimension(c, i) for i in (0, 1, 2)] == [0, 0, 0]


def test_css_complex_of_detection_code():
    hx, hz = four_two_two_checks()
    code = css_code(hx, hz)
    c = from_css(code)
    assert validate(c)
    assert c.boundary(2) == code.hz.T
    assert c.boundary(1) == code.hx
    assert c.boundary(2).rows == 4 and c.boundary(2).cols == 1
    assert homology_dimension(c, 1) == 1


def test_css_round_trip():
    hx, hz = four_two_two_checks()
    code = css_code(hx, hz)
    assert to_css(from_css(code), 1) == code


def test_to_css_checks_the_segment():
    one = F2Matrix.from_dense([[1]])
    with pytest.raises(NotAComplex):
        to_css(chain_complex([one, one]), 1)


def test_surface_code_three_is_13_1_3():
    code = surface_code(3)
    assert (code.n, code.k) == (13, 1)
    assert css_distance(code) == 3
    assert (code.hx @ code.hz.T).is_zero()
    assert homology_dimension(from_css(code), 1) == 1


def test_surface_code_two_is_5_1_2():
    code = surface_code(2)
    assert (code.n, code.k) == (5, 1)
    assert css_distance(code) == 2


def test_surface_code_family_parameters():
    for side in range(2, 6):
        code = surface_code(side)
        assert code.n == side**2 + (side - 1) ** 2
        assert code.k == 1
    with pytest.raises(ValueError):
        surface_code(1)


def test_hgp_of_repetition_and_transpose_matches_surface():
    rep = repetition(3)
    code = hypergraph_product(rep, transpose_code(rep))
    assert code.hx == surface_code(3).hx
    assert code.hz == surface_code(3).hz


@settings(max_examples=60)
@given(small_codes(), small_codes())
def test_hgp_parameter_formula(a, b):
    code = hypergraph_product(a, b)
    n, k, _ = hgp_parameters(a, b)
    assert code.n == n == a.n * b.h.rows + a.h.rows * b.n
    assert code.k == k
    assert homology_dimension(from_css(code), 1) == code.k


@settings(max_examples=25, deadline=None)
@given(small_codes(max_rows=2, max_cols=3), small_codes(max_rows=2, max_cols=3))
def test_hgp_distance_formula(a, b):
    n, k, d = hgp_parameters(a, b)
    assume(n <= 16)
    code = hypergraph_product(a, b)
    if k == 0:
        assert css_distance(code) == math.inf
    else:
        assert css_distance(code) == d

