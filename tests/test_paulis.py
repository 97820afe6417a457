import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulisynth as ps
from paulisynth import verify
from paulisynth.paulis import CONJ_1Q, CONJ_CNOT, TO_Z, Pauli, conjugation_luts

ALL_1Q_KINDS = ("h", "s", "sdg", "v", "vdg")


def dense_conjugation_1q(kind, p):
    g = verify.GATE_MATRICES_1Q[kind]
    target = g.conj().T @ verify.PAULI_MATRICES[p] @ g
    for cand in Pauli:
        for sign in (1, -1):
            if np.allclose(target, sign * verify.PAULI_MATRICES[cand], atol=1e-12):
                return cand, sign == -1
    raise AssertionError(f"{kind}^ {p.name} {kind} is not a signed Pauli")


def dense_conjugation_cx(pc, pt):
    g = verify.gate_matrix(ps.cx(0, 1), 2)
    target = g @ np.kron(verify.PAULI_MATRICES[pc], verify.PAULI_MATRICES[pt]) @ g
    for cc in Pauli:
        for ct in Pauli:
            cand = np.kron(verify.PAULI_MATRICES[cc], verify.PAULI_MATRICES[ct])
            for sign in (1, -1):
                if np.allclose(target, sign * cand, atol=1e-12):
                    return (cc, ct), sign == -1
    raise AssertionError(f"CNOT ({pc.name},{pt.name}) CNOT is not a signed Pauli")


def test_conjugation_table_matches_matrix_oracle_exhaustively():
    for kind in ALL_1Q_KINDS:
        for p in Pauli:
            expected = dense_conjugation_1q(kind, p)
            got = ps.conjugate_letter(ps.Gate(kind, (0,)), (p,))
            assert (got[0][0], got[1]) == expected, (kind, p.name)
    for pc in Pauli:
        for pt in Pauli:
            expected = dense_conjugation_cx(pc, pt)
            got = ps.conjugate_letter(ps.cx(0, 1), (pc, pt))
            assert (got[0], got[1]) == expected, (pc.name, pt.name)


def test_frozen_conjugation_examples():
    # CNOT removes the control leg from ZZ, no sign.
    assert ps.conjugate_letter(ps.cx(0, 1), (Pauli.Z, Pauli.Z)) == ((Pauli.I, Pauli.Z), False)
    # Identity commutes with everything.
    assert ps.conjugate_letter(ps.h(0), (Pauli.I,)) == ((Pauli.I,), False)
    # S^ X S = -Y with our phase convention.
    assert ps.conjugate_letter(ps.s(0), (Pauli.X,)) == ((Pauli.Y,), True)
    # V^ Y V = -Z fixes the square-root-of-X phase convention.
    assert ps.conjugate_letter(ps.v(0), (Pauli.Y,)) == ((Pauli.Z,), True)


def test_conjugate_by_is_the_reverse_direction():
    for kind in ALL_1Q_KINDS:
        g = ps.Gate(kind, (0,))
        for p in Pauli:
            (mid,), flip1 = ps.conjugate_letter(g, (p,))
            (back,), flip2 = ps.conjugate_by(g, (mid,))
            assert back == p and flip1 == flip2


@pytest.mark.parametrize("order", [(Pauli.I, Pauli.X, Pauli.Y, Pauli.Z),
                                   (Pauli.I, Pauli.X, Pauli.Z, Pauli.Y)],
                         ids=["pauli-enum", "xz"])
def test_conjugation_luts_match_conjugate_by(order):
    one, cx_letters, cx_flips = conjugation_luts(order)
    assert sorted(one) == sorted(ALL_1Q_KINDS)
    for kind in ALL_1Q_KINDS:
        letters, flips = one[kind]
        for c, p in enumerate(order):
            (res,), flip = ps.conjugate_by(ps.Gate(kind, (0,)), (p,))
            assert (order[letters[c]], bool(flips[c])) == (res, flip), (kind, p.name)
    for cc, pc in enumerate(order):
        for ct, pt in enumerate(order):
            (rc, rt), flip = ps.conjugate_by(ps.cx(0, 1), (pc, pt))
            code = int(cx_letters[4 * cc + ct])
            assert (order[code >> 2], order[code & 3]) == (rc, rt), (pc.name, pt.name)
            assert bool(cx_flips[4 * cc + ct]) == flip, (pc.name, pt.name)


def test_to_z_turns_each_letter_into_plus_z():
    assert sorted(TO_Z) == [Pauli.X, Pauli.Y]
    for p, make in TO_Z.items():
        assert ps.conjugate_by(make(0), (p,)) == ((Pauli.Z,), False)


@given(st.sampled_from(ALL_1Q_KINDS + ("cx",)), st.data())
@settings(max_examples=100, deadline=None)
def test_conjugation_involution(kind, data):
    gate = ps.cx(0, 1) if kind == "cx" else ps.Gate(kind, (0,))
    arity = 2 if kind == "cx" else 1
    letters = tuple(data.draw(st.sampled_from(list(Pauli))) for _ in range(arity))
    mid, flip1 = ps.conjugate_letter(gate, letters)
    back, flip2 = ps.conjugate_letter(gate.adjoint(), mid)
    assert back == letters
    assert flip1 == flip2


def test_conjugate_letter_rejects_rotation_and_bad_arity():
    with pytest.raises(ValueError):
        ps.conjugate_letter(ps.rz(0.5, 0), (Pauli.X,))
    with pytest.raises(ValueError):
        ps.conjugate_letter(ps.cx(0, 1), (Pauli.X,))
    with pytest.raises(ValueError):
        ps.conjugate_letter(ps.h(0), (Pauli.X, Pauli.Z))


def gadget(angle, text):
    return ps.PauliGadget(angle, ps.PauliString.from_str(text))


def test_commutes_examples():
    assert ps.commutes(gadget(0.1, "ZZ"), gadget(0.2, "ZZ"))
    assert not ps.commutes(gadget(0.1, "XI"), gadget(0.2, "ZI"))
    assert ps.commutes(gadget(0.1, "XX"), gadget(0.2, "ZZ"))


def test_commutes_agrees_with_dense_commutator():
    a = verify.pauli_matrix(ps.PauliString.from_str("XX"))
    b = verify.pauli_matrix(ps.PauliString.from_str("ZZ"))
    assert np.allclose(a @ b - b @ a, 0)
    a = verify.pauli_matrix(ps.PauliString.from_str("XI"))
    b = verify.pauli_matrix(ps.PauliString.from_str("ZI"))
    assert not np.allclose(a @ b - b @ a, 0)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_commutes_symmetric_and_reflexive(q, data):
    letters = st.sampled_from(list(Pauli))
    a = ps.PauliGadget(0.5, ps.PauliString(tuple(data.draw(letters) for _ in range(q))))
    b = ps.PauliGadget(0.7, ps.PauliString(tuple(data.draw(letters) for _ in range(q))))
    assert ps.commutes(a, b) == ps.commutes(b, a)
    assert ps.commutes(a, a)


def test_commutes_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ps.commutes(gadget(0.1, "XX"), gadget(0.1, "X"))


def test_parse_basic():
    poly = ps.parse_polynomial("qubits 5\n0.5 XIXYZ\n")
    assert poly.num_qubits == 5
    assert len(poly) == 1
    assert poly.gadgets[0].angle == 0.5
    assert str(poly.gadgets[0].string) == "XIXYZ"


def test_parse_empty_polynomial_requires_header():
    poly = ps.parse_polynomial("qubits 3\n")
    assert poly.num_qubits == 3 and len(poly) == 0
    with pytest.raises(ValueError):
        ps.parse_polynomial("")


def test_parse_comments_and_blank_lines():
    poly = ps.parse_polynomial("# header comment\nqubits 2\n\n# mid\n1.5 XY\n")
    assert len(poly) == 1


@pytest.mark.parametrize("text,msg", [
    ("qubits 2\n0.5 XYZ\n", "letters"),
    ("qubits 2\nnotanangle XY\n", "angle"),
    ("qubits 2\ninf XY\n", "finite"),
    ("qubits 2\n0.5 XQ\n", "invalid Pauli"),
    ("qubits 0\n", "positive"),
    ("0.5 XY\n", "header"),
    ("qubits 2\n0.5\n", "expected"),
])
def test_parse_errors_name_the_problem(text, msg):
    with pytest.raises(ValueError, match=msg):
        ps.parse_polynomial(text)


def test_serialize_round_trip_three_gadgets():
    text = "qubits 3\n0.5 XIY\n-1.25 ZZZ\n0.7853981633974483 IIX\n"
    poly = ps.parse_polynomial(text)
    again = ps.parse_polynomial(ps.serialize_polynomial(poly))
    assert again == poly


@given(st.integers(1, 5), st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_bit_exact(q, angles, data):
    letters = st.sampled_from(list(Pauli))
    gadgets = tuple(
        ps.PauliGadget(a, ps.PauliString(tuple(data.draw(letters) for _ in range(q))))
        for a in angles)
    poly = ps.PauliPolynomial(q, gadgets)
    assert ps.parse_polynomial(ps.serialize_polynomial(poly)) == poly


def test_gadget_rejects_non_finite_angle():
    with pytest.raises(ValueError):
        ps.PauliGadget(math.inf, ps.PauliString.from_str("X"))


def test_polynomial_validates_lengths():
    with pytest.raises(ValueError):
        ps.PauliPolynomial(3, (gadget(0.5, "XX"),))


def test_gate_validation():
    with pytest.raises(ValueError):
        ps.cx(1, 1)
    with pytest.raises(ValueError):
        ps.Gate("h", (0, 1))
    with pytest.raises(ValueError):
        ps.Gate("bogus", (0,))


def test_table_shapes():
    assert len(CONJ_CNOT) == 16
    assert all(len(CONJ_1Q[k]) == 4 for k in ALL_1Q_KINDS)
