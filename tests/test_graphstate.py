"""Tableau simulation, graph-state measurements, and foliation checks."""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecbench import graphstate
from qecbench.bench import build_code
from qecbench.descriptors import save_foliation
from qecbench.errors import NoSolution, NotAbelian, StateError
from qecbench.f2 import F2Matrix, hstack, vstack
from qecbench.graphstate import (
    FoliatedState,
    Tableau,
    detectors,
    foliate,
    graph_state,
    teleport_one_bit,
)
from qecbench.homology import surface_code
from qecbench.pauli import PauliOperator, swap_halves
from qecbench.quantum import (
    css_code,
    five_qubit_code,
    four_two_two_checks,
    stabilizer_code,
)

pauli = PauliOperator.from_string


def star5():
    """Star with center 4 and leaves 0..3."""
    a = np.zeros((5, 5), dtype=np.uint8)
    for i in range(4):
        a[4, i] = a[i, 4] = 1
    return a


def code_422():
    hx, hz = four_two_two_checks()
    return css_code(hx, hz)


def measure_all_x(state, rng, order=None):
    t = graph_state(state.adjacency)
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


# -- tableau basics -----------------------------------------------------------


def test_tableau_rejects_bad_generators():
    with pytest.raises(NotAbelian):
        Tableau([pauli("X"), pauli("Z")])
    with pytest.raises(ValueError):
        Tableau([pauli("XX"), pauli("XX")])
    with pytest.raises(ValueError):
        Tableau([PauliOperator(np.array([1]), np.array([0]), 1)])
    with pytest.raises(ValueError):
        Tableau([pauli("XI")], [pauli("ZI")])  # anticommutes with the stabilizer
    with pytest.raises(ValueError):
        Tableau([])
    with pytest.raises(ValueError, match="acts on 1 qubits, the tableau on 3"):
        Tableau([pauli("X")], n=3)
    assert Tableau([pauli("XI")], n=2).n == Tableau([], n=2).n == 2
    # a product of tracked logicals inside the stabilizer group
    with pytest.raises(ValueError, match="stabilizer group"):
        Tableau([pauli("XX")], [pauli("XX")])
    with pytest.raises(ValueError, match="stabilizer group"):
        Tableau([pauli("ZZ")], [pauli("XX"), pauli("YY")])


def test_tableau_accepts_duplicate_tracked_logicals():
    t = Tableau([pauli("XI")], [pauli("IX"), pauli("IZ"), pauli("IX")])
    assert [t.tracked(i).to_string() for i in range(3)] == ["+IX", "+IZ", "+IX"]


def test_single_qubit_conjugation_table():
    cases = [
        ("H", "X", "+Z"), ("H", "Z", "+X"), ("H", "Y", "-Y"),
        ("S", "X", "+Y"), ("S", "Y", "-X"), ("S", "Z", "+Z"),
    ]
    for gate, inp, want in cases:
        t = Tableau([pauli(inp)])
        t.apply_clifford(gate, 0)
        assert t.stabilizer(0).to_string() == want, (gate, inp)


def test_two_qubit_conjugation_table():
    cases = [
        ("CX", "XI", "+XX"), ("CX", "IZ", "+ZZ"), ("CX", "IX", "+IX"),
        ("CX", "ZI", "+ZI"), ("CX", "YY", "-XZ"),
        ("CZ", "XI", "+XZ"), ("CZ", "IX", "+ZX"), ("CZ", "ZI", "+ZI"),
        ("CZ", "XX", "+YY"), ("CZ", "YX", "-XY"),
    ]
    for gate, inp, want in cases:
        t = Tableau([pauli(inp)])
        t.apply_clifford(gate, (0, 1))
        assert t.stabilizer(0).to_string() == want, (gate, inp)


def test_hadamard_is_an_involution():
    t = Tableau([pauli("YX")], [pauli("ZZ"), pauli("IX")])
    before = [t.stabilizer(0).to_string(), t.tracked(0).to_string(),
              t.tracked(1).to_string()]
    t.apply_clifford("H", 0)
    t.apply_clifford("H", 0)
    after = [t.stabilizer(0).to_string(), t.tracked(0).to_string(),
             t.tracked(1).to_string()]
    assert before == after


def test_clifford_argument_validation():
    t = Tableau([pauli("XX")])
    with pytest.raises(ValueError):
        t.apply_clifford("T", 0)
    with pytest.raises(ValueError):
        t.apply_clifford("CX", (1, 1))
    with pytest.raises(ValueError):
        t.apply_clifford("H", (0, 1))
    with pytest.raises(IndexError):
        t.apply_clifford("S", 5)


def test_apply_pauli_flips_anticommuting_signs():
    t = Tableau([pauli("ZI")], [pauli("IX"), pauli("IZ")])
    t.apply_pauli(pauli("XZ"))
    assert t.stabilizer(0).to_string() == "-ZI"
    assert t.tracked(0).to_string() == "-IX"
    assert t.tracked(1).to_string() == "+IZ"  # commutes, untouched


# -- measurement branches ------------------------------------------------------


def test_measure_stabilized_qubit_is_deterministic():
    t = Tableau([pauli("Z")])
    rng = np.random.default_rng(0)
    before = t.stabilizer(0).to_string()
    m, _ = t.measure_pauli(pauli("Z"), rng)
    assert m == 1
    assert t.stabilizer(0).to_string() == before
    m2, _ = t.measure_pauli(pauli("-Z") * pauli("-Z") * pauli("Z"), rng)
    assert m2 == 1


def test_measure_random_branch_collapses():
    seen = set()
    for seed in range(16):
        t = Tableau([pauli("X")])
        m, _ = t.measure_pauli(pauli("Z"), np.random.default_rng(seed))
        assert t.stabilizer(0).to_string() == ("+Z" if m == 1 else "-Z")
        m2, _ = t.measure_pauli(pauli("Z"), np.random.default_rng(seed + 99))
        assert m2 == m
        seen.add(m)
    assert seen == {1, -1}


def test_measure_extends_an_underdetermined_group():
    t = Tableau([pauli("XI")])
    rng = np.random.default_rng(3)
    m, _ = t.measure_pauli(pauli("IZ"), rng)
    assert t.n_stabilizers == 2
    assert t.deterministic_outcome(pauli("IZ")) == m
    assert t.deterministic_outcome(pauli("XI")) == 1


def test_measure_that_disturbs_a_tracked_logical_raises():
    t = Tableau([pauli("IX")], [pauli("XI"), pauli("ZI")])
    with pytest.raises(StateError):
        t.measure_pauli(pauli("ZI"), np.random.default_rng(0))


def test_measure_in_the_logical_span_raises_before_drawing():
    # XX is the tracked logical itself: commutes with everything tracked,
    # lies outside the stabilizer group, and cannot extend it
    t = Tableau([pauli("ZZ")], [pauli("XX")])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(StateError):
        t.measure_pauli(pauli("XX"), rng)
    assert rng.bit_generator.state == state
    assert t.n_stabilizers == 1 and t.tracked(0).to_string() == "+XX"


def test_extended_group_keeps_deterministic_outcomes():
    # the new stabilizer XIX anticommutes with the destabilizer of XII;
    # the destabilizers must be rebuilt for IIX = XII * XIX to read out
    for seed in range(8):
        t = Tableau([pauli("XII")], [pauli("IXI"), pauli("IZI")])
        m, _ = t.measure_pauli(pauli("XIX"), np.random.default_rng(seed))
        assert t.deterministic_outcome(pauli("IIX")) == m
        assert t.measure_pauli(pauli("IIX"), np.random.default_rng(0))[0] == m
        assert_tableau_invariants(t)


def test_measure_argument_validation():
    t = Tableau([pauli("XX")])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        t.measure_pauli(pauli("X"), rng)
    with pytest.raises(ValueError):
        t.measure_pauli(PauliOperator(np.array([1, 0]), np.array([0, 0]), 1), rng)
    with pytest.raises(ValueError):
        t.measure_pauli(PauliOperator.identity(2), rng)


def test_operator_check_is_shared():
    t = Tableau([pauli("XI"), pauli("IZ")])
    rng = np.random.default_rng(0)
    # an imaginary phase has no +-1 outcome
    for op in ("+iXI", "-iXI"):
        with pytest.raises(ValueError, match="Hermitian"):
            t.deterministic_outcome(pauli(op))
        with pytest.raises(ValueError, match="Hermitian"):
            t.measure_pauli(pauli(op), rng)
    # a fault's phase is irrelevant, its length is not
    assert t.copy().apply_pauli(pauli("+iZI")).stabilizer(0).to_string() == "-XI"
    for call in (t.apply_pauli, t.deterministic_outcome,
                 lambda m: t.measure_pauli(m, rng)):
        with pytest.raises(ValueError, match="acts on 3 qubits"):
            call(pauli("XII"))
        with pytest.raises(ValueError, match="acts on 1 qubits"):
            call(pauli("X"))


def test_qubit_index_check_is_shared():
    t = Tableau([pauli("XII")], [pauli("IXI"), pauli("IZI")])
    for bad in ([1.7], 1.7, [True], [0.0, 1]):
        with pytest.raises(ValueError, match="integer"):
            t.apply_clifford("H" if np.size(bad) == 1 else "CZ", bad)
    with pytest.raises(ValueError, match="integer"):
        t.reduce_tracked(0, [1.0])
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            t.apply_clifford("H", [bad])
        with pytest.raises(IndexError):
            t.reduce_tracked(0, [1, bad])
    assert t.stabilizer(0).to_string() == "+XII"
    t.apply_clifford("CZ", np.array([0, 1]))
    assert t.reduce_tracked(0, {0, 1}).to_string() == "+ZXI"


def test_copy_isolates_state():
    t = Tableau([pauli("X")])
    u = t.copy()
    u.measure_pauli(pauli("Z"), np.random.default_rng(1))
    assert t.stabilizer(0).to_string() == "+X"


# -- graph states --------------------------------------------------------------


def test_graph_state_stabilizers():
    a = star5()
    t = graph_state(a)
    assert t.stabilizer(0).to_string() == "+XIIIZ"
    assert t.stabilizer(4).to_string() == "+ZZZZX"


def test_graph_state_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        graph_state(np.ones((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        graph_state(np.array([[1, 0], [0, 0]], dtype=np.uint8))
    with pytest.raises(ValueError):
        graph_state(np.array([[0, 1], [0, 0]], dtype=np.uint8))


def test_edgeless_graph_measures_plus_one_everywhere():
    t = graph_state(np.zeros((4, 4), dtype=np.uint8))
    rng = np.random.default_rng(0)
    for q in range(4):
        m, _ = t.measure_pauli(PauliOperator.single(4, q, "X"), rng)
        assert m == 1


def test_star_x_measurement_group():
    # measuring the center in X leaves an X-GHZ group on the leaves:
    # <m X_5, X_1 X_2, X_1 X_3, X_1 X_4, Z_1 Z_2 Z_3 Z_4 X_5>
    seen = set()
    for seed in range(10):
        t = graph_state(star5())
        m, _ = t.measure_pauli(pauli("IIIIX"), np.random.default_rng(seed))
        assert t.deterministic_outcome(pauli("IIIIX")) == m
        for s in ("XXIII", "XIXII", "XIIXI", "ZZZZX"):
            assert t.deterministic_outcome(pauli(s)) == 1
        assert t.deterministic_outcome(pauli("ZZZZI")) == m
        seen.add(m)
    assert seen == {1, -1}


def test_star_z_measurement_deletes_the_center():
    # leaves are left in |+->^4 per the outcome; the center factors out
    seen = set()
    for seed in range(10):
        t = graph_state(star5())
        m, _ = t.measure_pauli(pauli("IIIIZ"), np.random.default_rng(seed))
        assert t.deterministic_outcome(pauli("IIIIZ")) == m
        for q in range(4):
            leaf = PauliOperator.single(5, q, "X")
            assert t.deterministic_outcome(leaf) == m
            assert t.deterministic_outcome(leaf * pauli("IIIIZ")) == 1
        assert t.deterministic_outcome(pauli("ZZZZZ")) is None
        seen.add(m)
    assert seen == {1, -1}


def test_star_y_measurement_group():
    for seed in range(10):
        t = graph_state(star5())
        m, _ = t.measure_pauli(pauli("IIIIY"), np.random.default_rng(seed))
        assert t.deterministic_outcome(pauli("IIIIY")) == m
        for s in ("XXIII", "XIXII", "XIIXI"):
            assert t.deterministic_outcome(pauli(s)) == 1
        assert t.deterministic_outcome(pauli("YZZZY")) == 1
        assert t.deterministic_outcome(pauli("ZZZZY")) is None


@st.composite
def simple_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    a = np.zeros((n, n), dtype=np.uint8)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = a[j, i] = bits[k]
            k += 1
    return a


def assert_tableau_invariants(t):
    """Abelian independent S; D pairs with S as the identity and
    commutes with itself and with the tracked logicals L."""
    r, rows = t.n_stabilizers, t._rows
    stab, destab, logs = (F2Matrix.from_dense(b)
                          for b in (rows[:r], rows[r : 2 * r], rows[2 * r :]))
    assert (swap_halves(stab) @ stab.T).is_zero(), "stabilizers must stay abelian"
    assert stab.rank() == r
    pairing = (swap_halves(destab) @ stab.T).to_dense()
    assert np.array_equal(pairing, np.eye(r, dtype=np.uint8))
    assert (swap_halves(destab) @ destab.T).is_zero()
    assert (swap_halves(destab) @ logs.T).is_zero()


def random_pauli(pyrng, n):
    letters = "".join(pyrng.choice("IXYZ") for _ in range(n - 1))
    return pauli(pyrng.choice("+-") + letters + pyrng.choice("XYZ"))


def scramble(t, pyrng, rng, steps=6):
    """Random Cliffords and single- or multi-qubit Pauli measurements."""
    n = t.n
    for _ in range(steps):
        if pyrng.random() < 0.5:
            gate = pyrng.choice(["H", "S", "CX", "CZ"])
            t.apply_clifford(gate, pyrng.sample(range(n), len(gate)))
        elif pyrng.random() < 0.5:
            q, basis = pyrng.randrange(n), pyrng.choice("XYZ")
            t.measure_pauli(PauliOperator.single(n, q, basis), rng)
        else:
            t.measure_pauli(random_pauli(pyrng, n), rng)
    return t


@settings(max_examples=40, deadline=None)
@given(simple_graphs(), st.randoms(use_true_random=False))
def test_measurement_keeps_tableau_invariants(a, pyrng):
    t = graph_state(a)
    n = a.shape[0]
    rng = np.random.default_rng(pyrng.randrange(2**32))
    for _ in range(6):
        q = pyrng.randrange(n)
        basis = pyrng.choice("XYZ")
        t.measure_pauli(PauliOperator.single(n, q, basis), rng)
    assert_tableau_invariants(t)
    # deterministic outcomes are reproducible and non-disturbing
    q = pyrng.randrange(n)
    op = PauliOperator.single(n, q, "Z")
    fixed = t.deterministic_outcome(op)
    if fixed is not None:
        m, _ = t.measure_pauli(op, rng)
        assert m == fixed


@settings(max_examples=40, deadline=None)
@given(simple_graphs(max_n=7), st.randoms(use_true_random=False))
def test_deterministic_outcome_matches_group_enumeration(a, pyrng):
    t = scramble(graph_state(a), pyrng,
                 np.random.default_rng(pyrng.randrange(2**32)))
    n, r = t.n, t.n_stabilizers
    group = {}
    for bits in itertools.product((0, 1), repeat=r):
        prod = PauliOperator.identity(n)
        for i in np.nonzero(bits)[0]:
            prod = prod * t.stabilizer(int(i))
        group[(prod.x.tobytes(), prod.z.tobytes())] = prod.phase
    members = list(group.items())
    for _ in range(12):
        if pyrng.random() < 0.5:
            (xb, zb), _ = pyrng.choice(members)
            m = PauliOperator(np.frombuffer(xb, np.uint8),
                              np.frombuffer(zb, np.uint8), pyrng.choice((0, 2)))
        else:
            m = random_pauli(pyrng, n)
        phase = group.get((m.x.tobytes(), m.z.tobytes()))
        want = None if phase is None else (1 if phase == m.phase else -1)
        assert t.deterministic_outcome(m) == want


_DENSE = {
    "I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1]),
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "S": np.diag([1, 1j]),
    "0": np.diag([1, 0]), "1": np.diag([0, 1]),
}


def on_qubits(n, letters):
    """Dense operator with the given 2 x 2 factors, qubit 0 leftmost."""
    return functools.reduce(np.kron, [_DENSE[letters.get(q, "I")] for q in range(n)])


def dense_pauli(p):
    body = p.to_string().lstrip("+-i")
    return 1j ** p.phase * on_qubits(p.n, dict(enumerate(body)))


def dense_gate(n, gate, qs):
    if gate in ("H", "S"):
        return on_qubits(n, {qs[0]: gate})
    target = "X" if gate == "CX" else "Z"
    return on_qubits(n, {qs[0]: "0"}) + on_qubits(n, {qs[0]: "1", qs[1]: target})


@settings(max_examples=40, deadline=None)
@given(simple_graphs(max_n=4), st.randoms(use_true_random=False))
def test_signs_match_a_state_vector(a, pyrng):
    """Run the tableau next to a dense state vector: every outcome it
    draws has nonzero probability, every stabilizer fixes the state and
    every deterministic outcome is the expectation value."""
    n = a.shape[0]
    t, rng = graph_state(a), np.random.default_rng(pyrng.randrange(2**32))
    psi = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    for u, v in zip(*np.nonzero(np.triu(a))):
        psi = dense_gate(n, "CZ", (u, v)) @ psi
    for _ in range(10):
        kind = pyrng.random()
        if kind < 0.4:
            gate = pyrng.choice(["H", "S", "CX", "CZ"])
            qs = pyrng.sample(range(n), len(gate))
            t.apply_clifford(gate, qs)
            psi = dense_gate(n, gate, qs) @ psi
        elif kind < 0.5:
            fault = random_pauli(pyrng, n)
            t.apply_pauli(fault)
            psi = dense_pauli(fault) @ psi
        else:
            m = random_pauli(pyrng, n)
            outcome, _ = t.measure_pauli(m, rng)
            psi = (psi + outcome * dense_pauli(m) @ psi) / 2
            norm = np.linalg.norm(psi)
            assert norm > 1e-6, "the tableau drew an impossible outcome"
            psi /= norm
    for i in range(t.n_stabilizers):
        assert np.allclose(dense_pauli(t.stabilizer(i)) @ psi, psi)
    m = random_pauli(pyrng, n)
    expectation = np.vdot(psi, dense_pauli(m) @ psi).real
    want = round(expectation) if abs(expectation) > 0.5 else None
    assert t.deterministic_outcome(m) == want


def css_stabilizers(hx, hz):
    """[[hx, 0], [0, hz]]: the CSS checks as symplectic (x | z) rows."""
    return vstack([hstack([hx, F2Matrix(hx.rows, hz.cols)]),
                   hstack([F2Matrix(hz.rows, hx.cols), hz])])


def code_tableau(code):
    """Tableau of a stabilizer code with its logical pairs tracked."""
    stabs = [code.generator(i) for i in range(code.h.rows)]
    logs = [PauliOperator.from_bsr(code.logicals.row_dense(i))
            for i in range(code.logicals.rows)]
    return Tableau(stabs, logs)


TABLEAUX = {
    "partial": lambda: Tableau([pauli("XII")], [pauli("IXI"), pauli("IZI")]),
    "five qubit": lambda: code_tableau(five_qubit_code()),
    "surface 3": lambda: code_tableau(stabilizer_code(
        css_stabilizers(surface_code(3).hx, surface_code(3).hz))),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(TABLEAUX)), st.randoms(use_true_random=False))
def test_constructed_tableau_keeps_invariants(name, pyrng):
    t = TABLEAUX[name]()
    rng = np.random.default_rng(pyrng.randrange(2**32))
    assert_tableau_invariants(t)
    for _ in range(4):
        try:
            scramble(t, pyrng, rng, steps=1)
        except StateError:
            pass
        assert_tableau_invariants(t)


# -- teleportation primitives --------------------------------------------------


def plus_ancillas(k, logicals):
    stabs = [PauliOperator.single(1 + k, 1 + j, "X") for j in range(k)]
    return Tableau(stabs, logicals)


def test_one_bit_teleport_frames():
    seen = set()
    for seed in range(14):
        t = plus_ancillas(1, [pauli("XI"), pauli("ZI")])
        m, _ = teleport_one_bit(t, 0, 1, np.random.default_rng(seed))
        want_x = "+IZ" if m == 1 else "-IZ"
        assert t.reduce_tracked(0, [1]).to_string() == want_x
        assert t.reduce_tracked(1, [1]).to_string() == "+IX"
        seen.add(m)
    assert seen == {1, -1}


def test_chained_teleports_accumulate_the_frame():
    # two hops leave X^(m2) Z^(m1) |psi>: X picks up m1, Z picks up m2
    seen = set()
    for seed in range(24):
        t = Tableau(
            [pauli("IXI"), pauli("IIX")],
            [pauli("XII"), pauli("ZII")],
        )
        rng = np.random.default_rng(seed)
        m1, _ = teleport_one_bit(t, 0, 1, rng)
        m2, _ = teleport_one_bit(t, 1, 2, rng)
        assert t.reduce_tracked(0, [2]).sign == m1
        assert np.array_equal(t.reduce_tracked(0, [2]).x, [0, 0, 1])
        assert t.reduce_tracked(1, [2]).sign == m2
        assert np.array_equal(t.reduce_tracked(1, [2]).z, [0, 0, 1])
        seen.add((m1, m2))
    assert len(seen) == 4


def test_teleport_requires_a_fresh_plus_state():
    t = Tableau([pauli("IZ")], [pauli("XI"), pauli("ZI")])
    with pytest.raises(StateError):
        teleport_one_bit(t, 0, 1, np.random.default_rng(0))


def measurement_induced_cz(t, a, mid1, mid2, b, rng):
    """CZ chain a-mid1-mid2-b, then X measurements on the two middle qubits."""
    for u, v in ((a, mid1), (mid1, mid2), (mid2, b)):
        t.apply_clifford("CZ", (u, v))
    m1, _ = t.measure_pauli(PauliOperator.single(t.n, mid1, "X"), rng)
    m2, _ = t.measure_pauli(PauliOperator.single(t.n, mid2, "X"), rng)
    return (m1, m2), t


def test_measurement_induced_cz_frames():
    ops = [pauli("XIII"), pauli("ZIII"), pauli("IIIX"), pauli("IIIZ")]
    for seed in range(20):
        t = Tableau([pauli("IXII"), pauli("IIXI")], ops)
        (m1, m2), _ = measurement_induced_cz(t, 0, 1, 2, 3, np.random.default_rng(seed))
        xa = t.reduce_tracked(0, [0, 3])
        assert xa.sign == m2 and xa.to_string().lstrip("+-") == "XIIZ"
        za = t.reduce_tracked(1, [0, 3])
        assert za.to_string() == "+ZIII"
        xb = t.reduce_tracked(2, [0, 3])
        assert xb.sign == m1 and xb.to_string().lstrip("+-") == "ZIIX"
        zb = t.reduce_tracked(3, [0, 3])
        assert zb.to_string() == "+IIIZ"


def test_measurement_induced_cz_matches_direct_cz_up_to_frame():
    for seed in range(8):
        t = Tableau([pauli("IXII"), pauli("IIXI")], [pauli("YIIX")])
        (m1, m2), _ = measurement_induced_cz(t, 0, 1, 2, 3, np.random.default_rng(seed))
        got = t.reduce_tracked(0, [0, 3])
        direct = Tableau([pauli("IX")], [pauli("YX")])
        direct.apply_clifford("CZ", (0, 1))
        want = direct.tracked(0)
        # frame: the a-side X component picks up m2, the b-side m1
        frame = (m2 if want.x[0] else 1) * (m1 if want.x[1] else 1)
        assert got.sign == want.sign * frame
        assert np.array_equal(got.x, [want.x[0], 0, 0, want.x[1]])
        assert np.array_equal(got.z, [want.z[0], 0, 0, want.z[1]])


def test_reduce_tracked_raises_when_support_cannot_clear():
    t = Tableau([pauli("ZZ")], [pauli("XX")])
    with pytest.raises(NoSolution):
        t.reduce_tracked(0, [0])


# -- foliation ----------------------------------------------------------------


def test_foliation_structure_of_the_422_code():
    code = code_422()
    f = foliate(code, 2)
    assert f.n_vertices == 11  # (4+1) + (4+2)
    assert f.layer_of == (0,) * 5 + (1,) * 6
    assert f.kind_of == ("code",) * 4 + ("ancilla",) + ("code",) * 4 + ("ancilla",) * 2
    assert f.parity == ("primal",) * 4 + ("dual",) + ("dual",) * 4 + ("primal",) * 2
    tanner0 = {(i, 4) for i in range(4)}
    rails = {(i, 5 + i) for i in range(4)}
    tanner1 = {(5, 9), (6, 9), (7, 10), (8, 10)}
    assert set(f.edges) == tanner0 | rails | tanner1
    with pytest.raises(ValueError):
        foliate(code, 0)


def test_foliation_logical_supports_and_detectors():
    code = code_422()

    f1 = foliate(code, 1)
    assert [sorted(s) for s in f1.logical_supports] == [[0, 2]]
    assert sorted(sorted(d) for d in detectors(f1)) == [[0, 1], [0, 3]]

    f2 = foliate(code, 2)
    assert f2.logical_supports == ()  # even depth has no X-readout plane
    d2 = sorted(sorted(d) for d in detectors(f2))
    assert d2 == [[0, 1, 9], [2, 3, 10], [4, 5, 6, 7, 8]]

    f3 = foliate(code, 3)
    assert [sorted(s) for s in f3.logical_supports] == [[0, 2, 11, 13]]
    assert len(detectors(f3)) == 5


def test_detectors_and_logicals_complete_the_kernel():
    surf = surface_code(2)
    for code, layers in [(code_422(), 1), (code_422(), 2), (code_422(), 3),
                         (surf, 2), (surf, 3)]:
        f = foliate(code, layers)
        kernel = f.adjacency.kernel_basis()
        dets = detectors(f)
        assert len(dets) + len(f.logical_supports) == kernel.rows
        picked = np.zeros((kernel.rows, f.n_vertices), dtype=np.uint8)
        for i, s in enumerate(list(f.logical_supports) + dets):
            picked[i, sorted(s)] = 1
        picked = F2Matrix.from_dense(picked)
        assert picked.rank() == kernel.rows  # independent
        assert vstack([picked, kernel]).rank() == kernel.rows  # span the kernel


def per_logical_supports(code, kernel, first_base, n):
    """The replaced _logical_supports: one solve_columns per X-logical."""
    if kernel.rows == 0:
        return ()
    restricted = kernel.to_dense()[:, first_base : first_base + n]
    system = F2Matrix.from_dense(restricted.T)
    supports = []
    for j in range(code.k):
        try:
            combo = system.solve_columns(range(kernel.rows), code.lx.row_dense(j))
        except NoSolution:
            continue
        vec = kernel.T.matvec(combo)
        supports.append(frozenset(int(v) for v in np.nonzero(vec)[0]))
    return tuple(supports)


FOLIATED_SPECS = ["surface 2", "surface 3", "surface 4", "hgp hamming transpose hamming",
                  "hgp repetition 3 repetition 4"]


@pytest.mark.parametrize("spec", FOLIATED_SPECS)
def test_logical_supports_match_one_solve_per_logical(spec):
    """One elimination with every logical appended gives the supports of
    the per-logical loop, solvable or not, at every layer offset."""
    code = build_code(spec)
    for layers in (1, 2, 3):
        f = foliate(code, layers)
        assert f.logical_supports == per_logical_supports(code, f.kernel, 0, code.n)
        for base in range(0, f.n_vertices - code.n + 1, 5):
            assert (graphstate._logical_supports(code, f.kernel, base, code.n)
                    == per_logical_supports(code, f.kernel, base, code.n))


def test_foliate_eliminates_twice(monkeypatch):
    """The adjacency kernel and the logical supports take one column-basis
    pass each, and nothing else eliminates."""
    code = build_code("hgp hamming transpose hamming")
    assert code.k == 16
    calls = []
    for name in ("coset_transform", "eliminate"):
        def counting(self, *args, name=name, method=getattr(F2Matrix, name), **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(F2Matrix, name, counting)
    f = foliate(code, 3)
    assert len(f.logical_supports) == 16
    assert calls == ["coset_transform"] * 2


def test_surface_code_foliation_size():
    f = foliate(surface_code(3), 3)
    assert f.n_vertices == 57  # 3*13 code qubits + 6+6+6 ancillas
    assert f.parity.count("primal") == 2 * 13 + 6
    assert [len(s) for s in f.logical_supports] == [6]


def test_detector_parities_are_deterministic():
    code = code_422()
    f = foliate(code, 2)
    dets = detectors(f)
    rng = np.random.default_rng(11)
    for trial in range(30):
        order = rng.permutation(f.n_vertices)
        outcomes = measure_all_x(f, rng, order=order)
        for d in dets:
            assert parity(outcomes, d) == f.predicted_parity(d)

    f = foliate(surface_code(3), 2)
    dets = detectors(f)
    outcomes = measure_all_x(f, rng)
    for d in dets:
        assert parity(outcomes, d) == f.predicted_parity(d)


def test_logical_readout_parity_is_deterministic():
    f = foliate(code_422(), 3)
    rng = np.random.default_rng(5)
    support = f.logical_supports[0]
    want = f.predicted_parity(support)
    for trial in range(20):
        outcomes = measure_all_x(f, rng)
        assert parity(outcomes, support) == want


def test_single_z_fault_flips_exactly_the_covering_detectors():
    code = code_422()
    for layers in (2, 3):
        f = foliate(code, layers)
        dets = detectors(f)
        sets = [frozenset(d) for d in dets] + list(f.logical_supports)
        covered = set().union(*sets)
        assert covered == set(range(f.n_vertices))
        rng = np.random.default_rng(layers)
        for v0 in range(f.n_vertices):
            t = graph_state(f.adjacency)
            t.apply_pauli(PauliOperator.single(f.n_vertices, v0, "Z"))
            outcomes = {}
            for v in range(f.n_vertices):
                m, _ = t.measure_pauli(
                    PauliOperator.single(f.n_vertices, v, "X"), rng)
                outcomes[v] = m
            for s in sets:
                want = f.predicted_parity(s) * (-1 if v0 in s else 1)
                assert parity(outcomes, s) == want


def test_single_layer_ancilla_is_a_blind_spot():
    # with one layer the Z-check ancilla sits in no deterministic parity
    f = foliate(code_422(), 1)
    sets = [frozenset(d) for d in detectors(f)] + list(f.logical_supports)
    covered = set().union(*sets)
    assert covered == {0, 1, 2, 3}


def test_predicted_parity_rejects_non_stabilizer_sets():
    f = foliate(code_422(), 2)
    with pytest.raises(ValueError):
        f.predicted_parity({0})


def test_foliation_export(tmp_path):
    f = foliate(code_422(), 2)
    out = tmp_path / "foliation.json"
    save_foliation(f, out)
    loaded = json.loads(out.read_text())
    assert len(loaded["vertices"]) == 11
    assert loaded["vertices"][4] == {"id": 4, "layer": 0, "kind": "ancilla",
                                     "parity": "dual"}
    assert all(u < v for u, v in loaded["edges"])
    assert loaded["edges"] == [list(e) for e in f.edges]
    assert sorted(map(tuple, loaded["detectors"])) == sorted(
        tuple(sorted(d)) for d in detectors(f))
    assert loaded["logical_supports"] == []
