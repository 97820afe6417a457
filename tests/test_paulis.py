import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulisynth as ps
from paulisynth import verify
from paulisynth.paulis import CLIFFORD_KINDS, TO_Z, XZ_LETTER, Pauli

from conftest import conjugate_bits, dense_conjugate

ALL_1Q_KINDS = ("h", "s", "sdg", "v", "vdg")

# x/z bits of each letter: I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).
XZ_BITS = {Pauli.I: (0, 0), Pauli.X: (1, 0), Pauli.Y: (1, 1), Pauli.Z: (0, 1)}


def _pack(letters):
    """x and z bitsets with bit i holding letters[i]."""
    return (sum(XZ_BITS[p][0] << i for i, p in enumerate(letters)),
            sum(XZ_BITS[p][1] << i for i, p in enumerate(letters)))


def _letter(x, z, i):
    return {v: p for p, v in XZ_BITS.items()}[(x >> i & 1, z >> i & 1)]


def bits_conjugate(gate, letters):
    """``conjugate_bits`` on one Pauli, given by its letters on ``gate.qubits``,
    in the form of ``dense_conjugate``: (letters, sign flip)."""
    bits = [b for p in letters for b in XZ_BITS[p]]
    nx, nz, nxt, nzt, flip = conjugate_bits(gate.kind, *bits)
    out = (_letter(nx, nz, 0), _letter(nxt, nzt, 0))[:len(letters)]
    return out, bool(flip & 1)


def test_conjugation_table_matches_matrix_oracle_exhaustively():
    for kind in ALL_1Q_KINDS:
        for p in Pauli:
            gate = ps.Gate(kind, (0,))
            assert bits_conjugate(gate, (p,)) == dense_conjugate(gate, (p,)), (kind, p.name)
    for pc in Pauli:
        for pt in Pauli:
            assert bits_conjugate(ps.cx(0, 1), (pc, pt)) == \
                dense_conjugate(ps.cx(0, 1), (pc, pt)), (pc.name, pt.name)


def test_frozen_conjugation_examples():
    # CNOT removes the control leg from ZZ, no sign.
    assert bits_conjugate(ps.cx(0, 1), (Pauli.Z, Pauli.Z)) == ((Pauli.I, Pauli.Z), False)
    # Identity commutes with everything.
    assert bits_conjugate(ps.h(0), (Pauli.I,)) == ((Pauli.I,), False)
    # S^ X S = -Y with our phase convention (conjugation by sdg).
    assert bits_conjugate(ps.sdg(0), (Pauli.X,)) == ((Pauli.Y,), True)
    # V^ Y V = -Z fixes the square-root-of-X phase convention.
    assert bits_conjugate(ps.vdg(0), (Pauli.Y,)) == ((Pauli.Z,), True)
    # The module docstring's V Y V^ = Z and V Z V^ = -Y.
    assert bits_conjugate(ps.v(0), (Pauli.Y,)) == ((Pauli.Z,), False)
    assert bits_conjugate(ps.v(0), (Pauli.Z,)) == ((Pauli.Y,), True)


@pytest.mark.parametrize("letters", [tuple(Pauli), XZ_LETTER], ids=["pauli-enum", "xz"])
def test_conjugation_luts_match_conjugate_by(letters):
    # The bit rules of conjugate_bits agree with dense conjugation g P g^,
    # whichever order the letters sit in a column.
    # Whole columns at once: bit i is letter i (1q) or letter pair i (cx).
    for kind in ALL_1Q_KINDS:
        gate = ps.Gate(kind, (0,))
        x, z = _pack(letters)
        nx, nz, xt, zt, flips = conjugate_bits(kind, x, z, 5, 6)
        assert (xt, zt) == (5, 6)  # a 1q gate leaves the second column alone
        for i, p in enumerate(letters):
            (res,), flip = dense_conjugate(gate, (p,))
            assert (_letter(nx, nz, i), bool(flips >> i & 1)) == (res, flip), (kind, p.name)
        # ... and one Pauli at a time, as single bits.
        for p in letters:
            nx, nz, _, _, flip = conjugate_bits(kind, *XZ_BITS[p])
            (res,), want = dense_conjugate(gate, (p,))
            assert ((nx, nz), flip) == (XZ_BITS[res], int(want)), (kind, p.name)
    pairs = [(pc, pt) for pc in letters for pt in letters]
    xc, zc = _pack([pc for pc, _ in pairs])
    xt, zt = _pack([pt for _, pt in pairs])
    nxc, nzc, nxt, nzt, flips = conjugate_bits("cx", xc, zc, xt, zt)
    for i, (pc, pt) in enumerate(pairs):
        (rc, rt), flip = dense_conjugate(ps.cx(0, 1), (pc, pt))
        assert (_letter(nxc, nzc, i), _letter(nxt, nzt, i)) == (rc, rt), (pc.name, pt.name)
        assert bool(flips >> i & 1) == flip, (pc.name, pt.name)
    with pytest.raises(ValueError):
        conjugate_bits("rz", 1, 0)


def test_to_z_turns_each_letter_into_plus_z():
    assert sorted(TO_Z) == [Pauli.X, Pauli.Y]
    for p, make in TO_Z.items():
        assert dense_conjugate(make(0), (p,)) == ((Pauli.Z,), False)


@given(st.sampled_from(ALL_1Q_KINDS + ("cx",)), st.data())
@settings(max_examples=100, deadline=None)
def test_conjugation_involution(kind, data):
    # conjugate_bits by g, then the dense g^, gives back P with no net sign.
    gate = ps.cx(0, 1) if kind == "cx" else ps.Gate(kind, (0,))
    arity = 2 if kind == "cx" else 1
    letters = tuple(data.draw(st.sampled_from(list(Pauli))) for _ in range(arity))
    mid, flip1 = bits_conjugate(gate, letters)
    back, flip2 = dense_conjugate(gate.adjoint(), mid)
    assert back == letters
    assert flip1 == flip2


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


@pytest.mark.parametrize("q", [2.5, True, 0, -1, "2"])
def test_polynomial_rejects_non_integer_qubit_count(q):
    with pytest.raises(ValueError, match=re.escape(f"num_qubits must be an integer >= 1, "
                                                   f"got {q!r}")):
        ps.PauliPolynomial(q, ())
    assert ps.PauliPolynomial(np.int64(2), ()).num_qubits == 2


def test_gate_validation():
    with pytest.raises(ValueError):
        ps.cx(1, 1)
    with pytest.raises(ValueError):
        ps.Gate("h", (0, 1))
    with pytest.raises(ValueError):
        ps.Gate("bogus", (0,))


def test_clifford_gates_are_interned_per_argument_type():
    # True == 1 with equal hashes, so only a typed cache keeps the bool-wired
    # gate apart from the int-wired one, whichever is built first.
    ps.cx.cache_clear()
    ps.sdg.cache_clear()
    first = ps.cx(True, 0)
    later = ps.cx(1, 0)
    assert [type(q) for q in later.qubits] == [int, int]
    assert ps.Circuit(2, (later,)).gates == (later,)
    with pytest.raises(ValueError, match="needs integer wires"):
        ps.Circuit(2, (first,))
    adj = ps.s(True).adjoint()
    assert adj.kind == "sdg" and type(adj.qubits[0]) is bool
    assert type(ps.sdg(1).qubits[0]) is int
    assert ps.Circuit(2, (ps.sdg(1),)).gates == (ps.sdg(1),)
    with pytest.raises(ValueError, match="needs integer wires"):
        ps.Circuit(2, (adj,))
    assert ps.h(0) is ps.h(0)
    assert ps.s(0).adjoint() is ps.sdg(0) and ps.cx(0, 1).adjoint() is ps.cx(0, 1)


def test_clifford_adjoints_are_kept_interned_gates():
    for kind in CLIFFORD_KINDS:
        g = getattr(ps, kind)(*((0, 1) if kind == "cx" else (1,)))
        assert g.adjoint().adjoint() is g and g.adjoint() is g.adjoint()
    # A gate built without its factory gets the interned adjoint, and does
    # not become that gate's adjoint.
    direct = ps.Gate("s", (0,))
    assert direct.adjoint() is ps.sdg(0) and ps.sdg(0).adjoint() is ps.s(0) is not direct
    # Clearing one factory clears them all, so no gate built afterwards
    # keeps an adjoint that is no longer the interned one.
    for factory in (ps.sdg, ps.vdg, ps.h):
        ps.s(0).adjoint(), ps.v(1).adjoint()
        factory.cache_clear()
        assert ps.s(0).adjoint() is ps.sdg(0) and ps.v(1).adjoint() is ps.vdg(1)


def test_rz_adjoint_is_built_per_call():
    g = ps.rz(0.3, 0)
    assert g.adjoint() == ps.rz(-0.3, 0) and g.adjoint() is not g.adjoint()
    assert "_adjoint" not in vars(g)


def test_a_kept_adjoint_is_not_gate_state():
    for g in (ps.cx(2, 0), ps.v(3)):
        g.adjoint()
        fresh = ps.Gate(g.kind, g.qubits)
        assert "_adjoint" in vars(g) and "_adjoint" not in vars(fresh)
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and "_adjoint" not in vars(back)
        assert back.adjoint() == g.adjoint()
