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
    u = verify.circuit_unitary(ps.Circuit(1, a.gates + b.gates))
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


def _scan(poly, t, r=1, order=None):
    order = range(len(poly.gadgets)) if order is None else order
    return complex(verify.trotter_overlaps(poly, list(order), [t], r)[0])


def test_overlap_identity_cases():
    poly = ps.PauliPolynomial(2, (gadget(0.4, "ZZ"),))
    assert abs(_scan(poly, 0.0) - 1.0) < 1e-12
    # exact factorization of a commuting polynomial at every timestep and r
    poly = ps.PauliPolynomial(2, (gadget(0.3, "ZI"), gadget(0.5, "ZZ")))
    ts = [0.0, 1.0, 2.5]
    for r in (1, 3):
        for order in ([0, 1], [1, 0]):
            assert np.allclose(verify.trotter_overlaps(poly, order, ts, r), 1.0,
                               atol=1e-12)


def test_overlap_phase_invariance():
    # an identity term is a global phase of the Hamiltonian; the exact
    # evolution and every repetition of the product formula carry it alike
    poly = ps.PauliPolynomial(2, (gadget(0.9, "XY"), gadget(0.4, "ZI")))
    shifted = ps.PauliPolynomial(2, poly.gadgets + (gadget(1.3, "II"),))
    for r in (1, 2):
        for t in (0.7, 2.0):
            assert abs(_scan(shifted, t, r, [2, 1, 0]) - _scan(poly, t, r, [1, 0])) < 1e-12


def test_overlap_matches_matrix_definition(rng):
    # G(t/r) is polynomial_unitary of the scaled polynomial in the given
    # order; the complex value matches, not only its magnitude
    for _ in range(10):
        q = int(rng.integers(1, 4))
        poly = ps.random_polynomial(ps.RandomSpec(q, int(rng.integers(1, 6)),
                                                  ps.SMALL_ANGLE_SET,
                                                  int(rng.integers(1 << 30))))
        t = float(rng.uniform(0, 2 * math.pi))
        r = int(rng.integers(1, 4))
        order = [int(i) for i in rng.permutation(len(poly.gadgets))]
        u_step = verify.polynomial_unitary(poly.scaled(t / r), order)
        u_exact = verify.exact_unitary(poly, t)
        ref = (u_exact @ np.linalg.matrix_power(u_step, r).conj().T)[0, 0]
        assert abs(_scan(poly, t, r, order) - ref) < 1e-10


def test_overlap_follows_output_permutation():
    # The circuit route: (P @ U_circuit)^r against the exact evolution, from
    # the dense circuit and permutation matrices.  The scan reads only the
    # emitted order, and gives the same magnitude for non-identity output
    # permutations (cycle:4 leaves a 4-cycle, so a wrong relabelling shows).
    non_identity = 0
    for spec in ("line:4", "cycle:4", "grid:2x3"):
        topo = ps.Topology.from_spec(spec)
        poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, 12,
                                                  ps.SMALL_ANGLE_SET, seed=1))
        t = 2.0
        u_exact = verify.exact_unitary(poly, t)
        for r in (2, 4):
            res = ps.synthesize(poly.scaled(t / r), topo)
            assert ps.bench.check_result(poly.scaled(t / r), res)
            non_identity += not res.permutation.is_identity
            p = verify.permutation_operator(res.permutation.mapping)
            u_step = p @ verify.circuit_unitary(res.circuit)
            ref = (u_exact @ np.linalg.matrix_power(u_step, r).conj().T)[0, 0]
            got = _scan(poly, t, r, res.emitted_order)
            assert abs(abs(got) - abs(ref)) < 1e-10
    assert non_identity == 6


def test_overlap_magnitude_bounded(rng):
    poly = ps.random_polynomial(ps.RandomSpec(3, 8, seed=4))
    res = ps.synthesize(poly, ps.Topology.line(3))
    ovs = verify.trotter_overlaps(poly, res.emitted_order, [0.5, 1.0, 4.0], 2)
    assert np.all(np.abs(ovs) <= 1.0 + 1e-12)


def test_dense_cap():
    big = ps.PauliPolynomial(13, (ps.PauliGadget(0.1, ps.PauliString(
        tuple([ps.Pauli.Z] * 13))),))
    with pytest.raises(ValueError, match="capped"):
        verify.exact_unitary(big, 1.0)
    with pytest.raises(ValueError, match="capped"):
        verify.circuit_unitary(Circuit(13))


def test_overlap_dimension_mismatch():
    # the order must name every gadget of the polynomial exactly once
    poly = ps.PauliPolynomial(2, (gadget(0.1, "ZZ"), gadget(0.2, "XI")))
    for order in ([], [0], [0, 0], [0, 1, 2], [1, 2]):
        with pytest.raises(ValueError, match="permutation of the 2 gadget"):
            verify.trotter_overlaps(poly, order, [1.0])
    for r in (0, 1.5):
        with pytest.raises(ValueError, match=f"repetitions must be an integer >= 1, got {r}"):
            verify.trotter_overlaps(poly, [0, 1], [1.0], r)
