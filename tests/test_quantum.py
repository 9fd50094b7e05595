import hashlib
import itertools
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
from qecbench.classical import linear_code
from qecbench.f2 import F2Matrix, hstack, independent_rows, vstack
from qecbench.homology import hypergraph_product
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


# sha256 (first 16 hex digits) of the dense 0/1 bytes of each matrix, as
# built when elimination ran as a numpy argmax + bitwise_xor.at loop
CODE_DIGESTS = {
    "surface 2": {"hx": "efd2f3f41fa6b629", "hz": "1c4986046ee13a5f",
                  "lx": "b3844634762d8e07", "lz": "9c9d8c6a5bdfdf83"},
    "surface 5": {"hx": "f4b323918bc0f535", "hz": "621b357f56687e56",
                  "lx": "ffcf7999f9d1a228", "lz": "5c06e1f69f88918c"},
    "surface 9": {"hx": "8426b226758999dc", "hz": "0f03f1e9ab8c7218",
                  "lx": "9209866620aa7f77", "lz": "db0adaae6ea85d4e"},
    "hgp hamming transpose hamming": {"hx": "da53d992a0c48d9b", "hz": "bca2038f022c9e58",
                                      "lx": "e1861d4a70199cd4", "lz": "f12d6e0dc0a16834"},
}


@pytest.mark.parametrize("spec", sorted(CODE_DIGESTS))
def test_code_construction_is_pinned(spec):
    css = build_code(spec)
    digests = {name: hashlib.sha256(getattr(css, name).to_dense().tobytes()).hexdigest()[:16]
               for name in ("hx", "hz", "lx", "lz")}
    assert digests == CODE_DIGESTS[spec]


def test_constructors_and_distances_rerun_no_reduction(monkeypatch):
    # k is read off the coset representatives and nontriviality off the
    # paired logicals, so no rank pass and no second kernel is needed
    calls = []

    def counting(name, method):
        def counted(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)
        return counted

    for name in ("rank", "eliminate", "coset_transform", "kernel_basis"):
        monkeypatch.setattr(F2Matrix, name, counting(name, getattr(F2Matrix, name)))
    css = build_code("surface 3")
    # two repetition kernels, then per side a kernel and a quotient, and
    # one right inverse to pair lx with lz: the quotients eliminate, and
    # the kernels and the right inverse make one column-basis pass each
    assert (calls.count("eliminate"), calls.count("coset_transform")) == (2, 5)
    five = five_qubit_code()
    stabilizer_code(css_stabilizers(css.hx, css.hz))
    assert (five.k, "rank" in calls) == (1, False)
    calls.clear()
    assert css_distance(css) == 3
    assert calls == []


# -- the constructors and searches as they stood before k was read off the
# representatives; the differential test below pins the new code to them


def old_coset_reps(h_commute, h_mod, k):
    if k == 0:
        return F2Matrix(0, h_commute.cols)
    kernel = h_commute.kernel_basis()
    picks = independent_rows(h_mod, kernel)
    assert len(picks) == k
    return F2Matrix.from_dense(kernel.to_dense()[picks])


def old_css_code(hx, hz):
    k = hx.cols - hx.rank() - hz.rank()
    lx, lz = old_coset_reps(hz, hx, k), old_coset_reps(hx, hz, k)
    if k:
        lz = (lx @ lz.T).right_inverse().T @ lz
    return k, lx, lz


def old_logical_pairs(h, n, k):
    if k == 0:
        return F2Matrix(0, 2 * n)
    centralizer = swap_halves(h).kernel_basis()
    rem = centralizer.to_dense()[independent_rows(h, centralizer)]
    assert len(rem) == 2 * k
    xs, zs = [], []
    while len(rem):
        u, rem = rem[0], rem[1:]
        j = int(np.argmax(symplectic_product(rem, u)))
        w, rem = rem[j], np.delete(rem, j, axis=0)
        rem = rem ^ symplectic_product(rem, w)[:, None] * u
        rem = rem ^ symplectic_product(rem, u)[:, None] * w
        xs.append(u)
        zs.append(w)
    return F2Matrix.from_dense(np.stack(xs + zs))


def old_distance(h, logicals, n, k, max_weight):
    if k == 0:
        return math.inf
    if n > 20 or max_weight > 6:
        raise CapacityExceeded("guard")
    h, logicals = h.to_dense(), logicals.to_dense()
    for w in range(1, max_weight + 1):
        types = np.array(list(itertools.product((1, 2, 3), repeat=w)), np.uint8)
        for support in itertools.combinations(range(n), w):
            v = np.zeros((len(types), 2 * n), dtype=np.uint8)
            v[:, support] = types & 1
            v[:, np.add(support, n)] = types >> 1
            commuting = v[~symplectic_product(v, h).any(axis=1)]
            if symplectic_product(commuting, logicals).any():
                return w
    raise DistanceUnknown(max_weight)


def old_pure_distance(h_commute, h_mod, n, max_weight):
    hc = h_commute.to_dense().astype(np.int64)
    dual = h_mod.kernel_basis()
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            v = np.zeros(n, dtype=np.uint8)
            v[list(support)] = 1
            if hc.size and (hc @ v % 2).any():
                continue
            if dual.matvec(v).any():
                return w
    return None


def old_css_distance(hx, hz, k, max_weight):
    n = hx.cols
    if k == 0:
        return math.inf
    if n > 24:
        raise CapacityExceeded("guard")
    cap = max_weight if max_weight is not None else n
    dx = old_pure_distance(hz, hx, n, cap)
    dz = old_pure_distance(hx, hz, n, cap)
    if dx is None or dz is None:
        raise DistanceUnknown(cap)
    return min(dx, dz)


def outcome(search, *args):
    """What a distance search returns, or the type and argument it raises."""
    try:
        return search(*args)
    except (CapacityExceeded, DistanceUnknown) as err:
        return type(err), getattr(err, "max_weight", None)


@st.composite
def covering_checks(draw, rows, cols):
    """A random check matrix in which every row and every column has a 1,
    so neither its code nor its transpose code has distance 1."""
    r, c = draw(rows), draw(cols)
    bits = draw(arrays(np.uint8, (r, c), elements=st.integers(0, 1)))
    bits[draw(arrays(np.intp, c, elements=st.integers(0, r - 1))), np.arange(c)] = 1
    bits[np.arange(r), draw(arrays(np.intp, r, elements=st.integers(0, c - 1)))] = 1
    return F2Matrix.from_dense(bits)


@st.composite
def css_pairs(draw):
    """Orthogonal (hx, hz): random rows of a kernel with a redundant row,
    the whole kernel (k = 0), or a hypergraph product of small codes."""
    kind = draw(st.sampled_from(["kernel", "k=0", "hgp"]))
    if kind == "hgp":
        # more columns than rows in a and fewer in b, so that k >= 1
        a, b = (draw(covering_checks(st.integers(1, 2), st.integers(3, 3)))
                for _ in range(2))
        code = hypergraph_product(linear_code(a), linear_code(b.T))
        return code.hx, code.hz
    hx = draw(covering_checks(st.integers(1, 4), st.integers(2, 9)))
    kernel = hx.kernel_basis()
    if kind == "k=0" or kernel.rows == 0:
        return hx, kernel
    picks = draw(arrays(np.uint8, (draw(st.integers(1, kernel.rows + 1)), kernel.rows),
                        elements=st.integers(0, 1)))
    hz = (F2Matrix.from_dense(picks) @ kernel).to_dense()
    hx = hx.to_dense()
    # a redundant row on one side: the sum of two rows already there
    if draw(st.booleans()):
        hz = np.vstack([hz, hz[0] ^ hz[-1]])
    else:
        hx = np.vstack([hx, hx[0] ^ hx[-1]])
    return F2Matrix.from_dense(hx), F2Matrix.from_dense(hz)


@settings(max_examples=100, deadline=None)
@given(css_pairs(), st.integers(0, 255), st.integers(1, 7), st.booleans())
def test_codes_and_distances_match_the_rank_pass_code(pair, clifford, weight, cap):
    hx, hz = pair
    n = hx.cols
    css = css_code(hx, hz)
    k, lx, lz = old_css_code(hx, hz)
    assert (css.k, css.lx, css.lz) == (k, lx, lz)  # equal shapes and packed words
    max_weight = weight if cap else None
    assert outcome(css_distance, css, max_weight) == outcome(
        old_css_distance, hx, hz, k, max_weight)

    # the stabilizer form, also after a local Clifford per qubit that
    # mixes the X and Z letters (it maps each dependency of the X rows,
    # and of the Z rows, to a product of +I); a stabilizer state when k = 0
    h = css_stabilizers(hx, hz).to_dense()
    if clifford % 2:
        mix = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]],
                        [[1, 0], [1, 1]], [[0, 1], [1, 1]], [[1, 1], [1, 0]]])
        ops = mix[np.random.default_rng(clifford).integers(6, size=n)]
        x, z = h[:, :n], h[:, n:]
        h = np.hstack([x * ops[:, 0, 0] ^ z * ops[:, 1, 0],
                       x * ops[:, 0, 1] ^ z * ops[:, 1, 1]]).astype(np.uint8)
    h = F2Matrix.from_dense(h)
    code = stabilizer_code(h)
    k = n - h.rank()
    logicals = old_logical_pairs(h, n, k)
    assert (code.k, code.logicals) == (k, logicals)
    weight = min(weight, 3) if weight < 7 else weight  # 7 trips the weight guard
    assert outcome(distance, code, weight) == outcome(
        old_distance, h, logicals, n, k, weight)
