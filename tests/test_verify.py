import math

import numpy as np
import pytest

import paulisynth as ps
from paulisynth import verify
from paulisynth.circuit import Circuit


def gadget(angle, text):
    return ps.PauliGadget(angle, ps.PauliString.from_str(text))


def test_gadget_unitary_zero_angle():
    assert np.allclose(verify.gadget_unitary(gadget(0.0, "XYZ")), np.eye(8))


def test_gadget_unitary_pi_z():
    u = verify.gadget_unitary(gadget(math.pi, "Z"))
    assert np.allclose(u, -1j * verify.PAULI_MATRICES[ps.Pauli.Z], atol=1e-12)


def test_gadget_unitary_zz_eigenphases():
    theta = 0.37
    u = verify.gadget_unitary(gadget(theta, "ZZ"))
    # parity sectors: |00>,|11> get exp(-i theta/2); |01>,|10> get exp(+i theta/2)
    diag = np.diag(u)
    assert np.allclose(diag[[0, 3]], np.exp(-1j * theta / 2))
    assert np.allclose(diag[[1, 2]], np.exp(1j * theta / 2))
    assert np.allclose(u, np.diag(diag))


def test_circuit_unitary_conventions():
    assert np.allclose(verify.circuit_unitary(Circuit(1)), np.eye(2))
    hh = Circuit(1, (ps.h(0), ps.h(0)))
    assert np.allclose(verify.circuit_unitary(hh), np.eye(2), atol=1e-12)
    cnot = verify.circuit_unitary(Circuit(2, (ps.cx(0, 1),)))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[2, 3] = expected[3, 2] = 1
    assert np.allclose(cnot, expected)
    # order: gates[0] applied first, so [h, s] has unitary S @ H
    hs = Circuit(1, (ps.h(0), ps.s(0)))
    ref = verify.GATE_MATRICES_1Q["s"] @ verify.GATE_MATRICES_1Q["h"]
    assert np.allclose(verify.circuit_unitary(hs), ref, atol=1e-12)


def _kron_gate(gate, n):
    """Dense matrix of one gate on n wires from Kronecker products (wire 0 leftmost)."""
    eye, x = np.eye(2), np.array([[0, 1], [1, 0]])
    p0, p1 = np.diag([1, 0]), np.diag([0, 1])

    def on_wires(mats):
        out = np.eye(1)
        for w in range(n):
            out = np.kron(out, mats.get(w, eye))
        return out

    if gate.kind == "cx":
        c, t = gate.qubits
        return on_wires({c: p0}) + on_wires({c: p1, t: x})
    if gate.kind == "rz":
        m = np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    else:
        m = verify.GATE_MATRICES_1Q[gate.kind]
    return on_wires({gate.qubits[0]: m})


def test_circuit_unitary_matches_kronecker_products_per_gate():
    # Every 1q kind on every wire, every ordered cx pair (control above and
    # below the target, adjacent or not) and one rz, on 3 qubits.
    gates = [ps.Gate(kind, (j,)) for kind in ("h", "s", "sdg", "v", "vdg") for j in range(3)]
    gates += [ps.cx(c, t) for c in range(3) for t in range(3) if c != t]
    gates.append(ps.rz(0.37, 1))
    for g in gates:
        assert np.allclose(verify.circuit_unitary(Circuit(3, (g,))), _kron_gate(g, 3),
                           atol=1e-12), g


def test_concat_unitary_convention():
    a = Circuit(1, (ps.h(0),))
    b = Circuit(1, (ps.s(0),))
    u = verify.circuit_unitary(a.concat(b))
    assert np.allclose(u, verify.circuit_unitary(b) @ verify.circuit_unitary(a),
                       atol=1e-12)


def test_exact_unitary_zero_time():
    poly = ps.PauliPolynomial(2, (gadget(0.4, "XZ"), gadget(0.2, "ZY")))
    assert np.allclose(verify.exact_unitary(poly, 0.0), np.eye(4), atol=1e-12)


def test_exact_unitary_single_gadget_scales():
    poly = ps.PauliPolynomial(2, (gadget(0.31, "XY"),))
    t = 1.7
    assert np.allclose(verify.exact_unitary(poly, t),
                       verify.gadget_unitary(gadget(0.31 * t, "XY")), atol=1e-10)


def test_exact_unitary_commuting_poly_factorizes():
    poly = ps.PauliPolynomial(2, (gadget(0.3, "ZI"), gadget(0.5, "IZ"),
                                  gadget(0.7, "ZZ")))
    u = verify.exact_unitary(poly, 1.0)
    prod = verify.polynomial_unitary(poly)
    assert np.allclose(u, prod, atol=1e-10)


def test_equivalent_basics():
    u = verify.circuit_unitary(Circuit(2, (ps.h(0), ps.cx(0, 1))))
    assert verify.equivalent(u, u)
    assert verify.equivalent(1j * u, u)  # global phase
    x = verify.pauli_matrix(ps.PauliString.from_str("XI"))
    assert not verify.equivalent(x, np.eye(4))


def test_equivalent_swap_permutation_direction():
    swap = Circuit(2, (ps.cx(0, 1), ps.cx(1, 0), ps.cx(0, 1)))
    u_swap = verify.circuit_unitary(swap)
    ident = np.eye(4, dtype=complex)
    # qubit 0 moved to wire 1 and vice versa: u_swap == P([1,0]) @ I
    assert verify.equivalent(u_swap, ident, perm=[1, 0])
    assert not verify.equivalent(u_swap, ident, perm=[0, 1])


def test_permutation_operator_action_on_paulis():
    perm = [1, 2, 0]
    p = verify.permutation_operator(perm, 3)
    for i, target in enumerate(perm):
        gen = [ps.Pauli.I] * 3
        gen[i] = ps.Pauli.X
        img = [ps.Pauli.I] * 3
        img[target] = ps.Pauli.X
        lhs = p @ verify.pauli_matrix(ps.PauliString(tuple(gen))) @ p.conj().T
        assert np.allclose(lhs, verify.pauli_matrix(ps.PauliString(tuple(img))))


def test_overlap_identity_cases():
    poly = ps.PauliPolynomial(2, (gadget(0.4, "ZZ"),))
    assert abs(verify.overlap(poly, Circuit(2), 0.0) - 1.0) < 1e-12
    # exact factorization of a commuting polynomial at t=1
    poly = ps.PauliPolynomial(2, (gadget(0.3, "ZI"), gadget(0.5, "ZZ")))
    res = ps.synthesize(poly, ps.Topology.complete(2))
    ov = verify.overlap(poly, res.circuit, 1.0)
    assert abs(abs(ov) - 1.0) < 1e-9


def test_overlap_phase_invariance():
    poly = ps.PauliPolynomial(1, (gadget(0.9, "X"),))
    circ = Circuit(1, (ps.h(0), ps.rz(0.9, 0), ps.h(0)))
    base = abs(verify.overlap(poly, circ, 1.0))
    # s s sdg sdg is the identity with no net phase; v v v v = X^2 = I is a
    # pure global-phase variant at the matrix level via rz(2pi)
    shifted = circ.append(ps.rz(2 * math.pi, 0)).append(ps.rz(2 * math.pi, 0))
    assert abs(abs(verify.overlap(poly, shifted, 1.0)) - base) < 1e-10


def test_overlap_matches_matrix_definition(rng):
    for _ in range(10):
        q = int(rng.integers(1, 4))
        poly = ps.random_polynomial(ps.RandomSpec(q, int(rng.integers(1, 6)),
                                                  ps.SMALL_ANGLE_SET,
                                                  int(rng.integers(1 << 30))))
        t = float(rng.uniform(0, 2 * math.pi))
        r = int(rng.integers(1, 4))
        res = ps.synthesize(poly.scaled(t / r), ps.Topology.complete(q))
        u_exact = verify.exact_unitary(poly, t)
        u_circ = np.linalg.matrix_power(verify.circuit_unitary(res.circuit), r)
        ref = (u_exact @ u_circ.conj().T)[0, 0]
        assert abs(verify.overlap(poly, res.circuit, t, r) - ref) < 1e-10


def test_overlap_follows_output_permutation():
    # cycle:4 leaves a 4-cycle output permutation, so relabelling the
    # repetitions in the wrong direction (or not at all) changes the value
    poly = ps.random_polynomial(ps.RandomSpec(4, 12, ps.SMALL_ANGLE_SET, seed=1))
    t = 2.0
    for r in (1, 2, 3, 4):
        res = ps.synthesize(poly.scaled(t / r), ps.Topology.cycle(4))
        perm = res.permutation.mapping
        assert perm != res.permutation.inverse().mapping
        p = verify.permutation_operator(perm)
        u_step = p @ verify.circuit_unitary(res.circuit)
        u_exact = verify.exact_unitary(poly, t)
        ref = (u_exact @ np.linalg.matrix_power(u_step, r).conj().T)[0, 0]
        assert abs(verify.overlap(poly, res.circuit, t, r, perm) - ref) < 1e-10


def test_overlap_rejects_bad_permutation():
    poly = ps.PauliPolynomial(2, (gadget(0.1, "ZZ"),))
    for perm in ((0,), (0, 1, 2), (1, 1)):
        with pytest.raises(ValueError, match="permutation"):
            verify.overlap(poly, Circuit(2), 1.0, 2, perm)


def test_overlap_magnitude_bounded(rng):
    poly = ps.random_polynomial(ps.RandomSpec(3, 8, seed=4))
    res = ps.synthesize(poly, ps.Topology.line(3))
    ov = verify.overlap(poly, res.circuit, 1.0)
    assert abs(ov) <= 1.0 + 1e-12


def test_dense_cap():
    big = ps.PauliPolynomial(13, (ps.PauliGadget(0.1, ps.PauliString(
        tuple([ps.Pauli.Z] * 13))),))
    with pytest.raises(ValueError, match="capped"):
        verify.exact_unitary(big, 1.0)
    with pytest.raises(ValueError, match="capped"):
        verify.circuit_unitary(Circuit(13))


def test_overlap_dimension_mismatch():
    poly = ps.PauliPolynomial(2, (gadget(0.1, "ZZ"),))
    with pytest.raises(ValueError, match="mismatch"):
        verify.overlap(poly, Circuit(3), 1.0)


def test_apply_circuit_to_state_matches_matrix(rng):
    for _ in range(10):
        q = int(rng.integers(1, 5))
        from conftest import random_clifford_circuit
        c = random_clifford_circuit(q, 15, rng).append(ps.rz(0.7, 0))
        psi = rng.normal(size=2 ** q) + 1j * rng.normal(size=2 ** q)
        psi /= np.linalg.norm(psi)
        ref = verify.circuit_unitary(c) @ psi
        got = verify.apply_circuit_to_state(c, psi)
        assert np.allclose(ref, got, atol=1e-10)
