import re

import numpy as np
import pytest

import paulisynth as ps
from paulisynth import tableau, verify
from paulisynth.circuit import Circuit
from paulisynth.tableau import (CliffordTableau, QubitPermutation, _inverse_columns,
                                _row_supports, _supports, _wire_masks, column_distance_cost,
                                row_interaction_cost, steiner_ladder, synthesize_tableau)

from conftest import (RowTableau, conjugate_bits, random_clifford_circuit,
                      random_connected_topology, tableau_matches_unitary)


def test_prepend_h_twice_is_identity():
    t = CliffordTableau(2)
    t.prepend(ps.h(0))
    t.prepend(ps.h(0))
    assert t.is_identity


def test_prepend_s_four_times_is_identity():
    t = CliffordTableau(1)
    for _ in range(4):
        t.prepend(ps.s(0))
    assert t.is_identity


def test_h_cnot_stabilizer_row():
    # W = CNOT(0,1) . H(0): W Z0 W^ = X(x)X
    circ = Circuit(2, (ps.h(0), ps.cx(0, 1)))
    t = CliffordTableau.from_circuit(circ)
    assert t.row_letter(2, 0) == ps.Pauli.X
    assert t.row_letter(2, 1) == ps.Pauli.X
    assert not t.signs[2]
    u = verify.circuit_unitary(circ)
    z0 = verify.pauli_matrix(ps.PauliString.from_str("ZI"))
    xx = verify.pauli_matrix(ps.PauliString.from_str("XX"))
    assert np.allclose(u @ z0 @ u.conj().T, xx, atol=1e-12)


def test_appends_match_dense_conjugation_200_circuits(rng):
    for _ in range(200):
        q = int(rng.integers(1, 6))
        circ = random_clifford_circuit(q, int(rng.integers(1, 30)), rng)
        t = CliffordTableau.from_circuit(circ)
        assert tableau_matches_unitary(t, verify.circuit_unitary(circ))


def test_prepends_match_dense_conjugation(rng):
    for _ in range(80):
        q = int(rng.integers(1, 6))
        circ = random_clifford_circuit(q, int(rng.integers(1, 30)), rng)
        t = CliffordTableau(q)
        for g in reversed(circ.gates):
            t.prepend(g)
        assert tableau_matches_unitary(t, verify.circuit_unitary(circ))


def test_int_row_prepends_match_dense_oracle_up_to_8_qubits(rng):
    # Rows wider than a few bits, and every gate kind, against dense
    # conjugation; the adjoint-prepend replay of a circuit is its inverse.
    for q in (6, 7, 8):
        for _ in range(4):
            circ = random_clifford_circuit(q, int(rng.integers(20, 60)), rng)
            t = CliffordTableau(q)
            for g in reversed(circ.gates):
                t.prepend(g)
            u = verify.circuit_unitary(circ)
            assert tableau_matches_unitary(t, u)
            assert t.is_symplectic()
            back = CliffordTableau(q)
            for g in circ.gates:
                back.prepend(g.adjoint())
            assert back == t.inverse()
            assert tableau_matches_unitary(back, u.conj().T)


def test_prepend_append_preserve_symplecticity(rng):
    t = CliffordTableau(4)
    for _ in range(200):
        g = random_clifford_circuit(4, 1, rng).gates[0]
        t.prepend(g)
        assert t.is_symplectic()


def test_peel_reads_match_the_inverse_rows(rng):
    # The peel reads the inverse's rows from a copy of t's columns, each row
    # as X and Z wire masks, and the supports by one transpose of the
    # columns; the reference is t.inverse(), whose columns are the
    # generators pushed through the gates of t's own peel.
    for q in range(1, 11):
        for _ in range(3):
            t = CliffordTableau(q)
            for g in random_clifford_circuit(q, int(rng.integers(1, 12 * q)), rng).gates:
                t.prepend(g)
            inv = t.inverse()
            cols = _inverse_columns(t)
            # Bit k of column j is row k's letter on wire j, so every letter
            # of every row is compared.
            assert [[cols.letter(k, j) for j in range(q)] for k in range(2 * q)] \
                == [[inv.row_letter(k, j) for j in range(q)] for k in range(2 * q)]
            assert [x | z << q for x, z in (_wire_masks(cols, k) for k in range(2 * q))] \
                == list(inv.rows)
            assert cols.signs == sum(sign << k for k, sign in enumerate(inv.signs))
            supports = [sum((inv.row_letter(k, j) != ps.Pauli.I) << j for j in range(q))
                        for k in range(2 * q)]
            assert _supports(cols) == _row_supports(inv) == supports


def test_steiner_ladder_folds_the_legs_into_the_root(rng):
    # On a connected active set, the ladder uses only active edges and maps
    # X (or Z) on every leg to exactly +X (or +Z) on the root under g P g^.
    for trial in range(200):
        q = int(rng.integers(2, 13))
        topo = ps.Topology.grid(8, 8) if trial % 10 == 0 else random_connected_topology(q, rng)
        q = topo.num_qubits
        active = {int(rng.integers(q))}
        for _ in range(int(rng.integers(q))):
            active.add(int(rng.choice(sorted({w for u in active for w in topo.neighbors(u)}))))
        act = sum(1 << j for j in active)
        root = int(rng.choice(sorted(active)))
        legs = sum(1 << j for j in rng.choice(sorted(active), int(rng.integers(1, len(active) + 1)),
                                              replace=False).tolist())
        for z_legs in (False, True):
            x, z, sign = [0] * q, [0] * q, 0
            for j in active:
                (z if z_legs else x)[j] = legs >> j & 1
            ladder = []
            steiner_ladder(topo, legs, root, act, z_legs, ladder.append)
            for g in ladder:
                c, t = g.qubits
                assert g.kind == "cx" and topo.has_edge(c, t) and act >> c & act >> t & 1
                x[c], z[c], x[t], z[t], flip = conjugate_bits("cx", x[c], z[c], x[t], z[t])
                sign ^= flip
            single = [int(j == root) for j in range(q)]
            expected = ([0] * q, single) if z_legs else (single, [0] * q)
            assert (x, z, sign) == (*expected, 0), (trial, topo.edges, active, root, legs)


def test_rejects_rotations():
    t = CliffordTableau(1)
    with pytest.raises(ValueError):
        t.prepend(ps.rz(0.3, 0))


@pytest.mark.parametrize("q", [2.5, True, 0, -1, "2"])
def test_rejects_non_integer_qubit_count(q):
    with pytest.raises(ValueError, match=re.escape(f"num_qubits must be an integer >= 1, "
                                                   f"got {q!r}")):
        CliffordTableau(q)
    assert CliffordTableau(np.int64(2)) == CliffordTableau(2)


def test_inverse_roundtrip_and_oracle(rng):
    for _ in range(40):
        q = int(rng.integers(1, 5))
        circ = random_clifford_circuit(q, int(rng.integers(1, 40)), rng)
        t = CliffordTableau.from_circuit(circ)
        tinv = t.inverse()
        u = verify.circuit_unitary(circ)
        assert tableau_matches_unitary(tinv, u.conj().T)
        assert tinv.inverse() == t
    # Past the dense oracle's reach: rows, signs and inverse() against the
    # row-rule reference after the same prepends.
    for q in (12, 36, 64):
        gates = random_clifford_circuit(q, 20 * q, rng).gates
        t, ref, ref_inv = CliffordTableau(q), RowTableau(q), RowTableau(q)
        for g in gates:
            t.prepend(g)
            ref.prepend(g)
        for g in reversed(gates):
            ref_inv.prepend(g.adjoint())
        inv = t.inverse()
        assert (list(t.rows), list(t.signs)) == (ref.rows, ref.signs)
        assert (list(inv.rows), list(inv.signs)) == (ref_inv.rows, ref_inv.signs)


def test_inverse_builds_one_complete_device_per_size(monkeypatch, rng):
    built, complete = [], ps.Topology.complete
    monkeypatch.setattr(ps.Topology, "complete",
                        staticmethod(lambda q: built.append(q) or complete(q)))
    tableau._complete.cache_clear()
    for q in (5, 7, 5, 7, 5):
        t = CliffordTableau.from_circuit(random_clifford_circuit(q, 30, rng))
        assert t.inverse().inverse() == t and t.signs == t.inverse().inverse().signs
    assert built == [5, 7]


def test_synthesis_and_check_never_build_the_adjoint(monkeypatch):
    # inverse() and signs run a peel per call, so no timed path may reach them.
    def refuse(*_):
        raise AssertionError("CliffordTableau.inverse or signs was called")

    monkeypatch.setattr(CliffordTableau, "inverse", refuse)
    monkeypatch.setattr(CliffordTableau, "signs", property(refuse))
    for spec in ("grid:4x4", "line:8"):
        topo = ps.Topology.from_spec(spec)
        poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, 60, seed=5))
        for allow_perm in (True, False):
            result = ps.synthesize(poly, topo, ps.SynthConfig(allow_permutation=allow_perm))
            assert ps.bench.check_result(poly, result)


def test_row_interaction_cost_examples():
    t = CliffordTableau(3)
    for r in range(3):
        assert row_interaction_cost(t, r) == 2
    t.prepend(ps.cx(0, 1))
    assert row_interaction_cost(t, 0) > 2
    # total over all rows is invariant under a row swap (prepend h)
    before = sum(row_interaction_cost(t, r) for r in range(3))
    t.prepend(ps.h(1))
    assert sum(row_interaction_cost(t, r) for r in range(3)) == before


def test_column_distance_cost_examples():
    line3 = ps.Topology.line(3)
    t = CliffordTableau(3)
    for c in range(3):
        assert column_distance_cost(t, c, line3) == 0
    # on a complete topology the distance weight is 1 off-diagonal, so the
    # cost equals the interaction count minus the self terms
    complete = ps.Topology.complete(3)
    t.prepend(ps.cx(0, 1))
    t.prepend(ps.s(2))
    t.prepend(ps.h(1))
    for c in range(3):
        self_terms = int(t.row_letter(c, c) != ps.Pauli.I) \
            + int(t.row_letter(3 + c, c) != ps.Pauli.I)
        assert column_distance_cost(t, c, complete) == \
            row_interaction_cost(t, c) - self_terms
    # line penalizes far columns more on equally spread rows: row pair 0
    # touches wires {0,2} (distance 2) while row pair 1 touches {1,2}
    t2 = CliffordTableau(3)
    t2.prepend(ps.cx(0, 2))
    t2.prepend(ps.cx(1, 2))
    assert row_interaction_cost(t2, 0) == row_interaction_cost(t2, 1)
    assert column_distance_cost(t2, 0, line3) > column_distance_cost(t2, 1, line3)


def test_synthesize_identity():
    t = CliffordTableau(3)
    circ, perm = synthesize_tableau(t, ps.Topology.line(3))
    assert len(circ) == 0
    assert perm.is_identity


def test_synthesize_single_cnot_is_minimal():
    t = CliffordTableau.from_circuit(Circuit(2, (ps.cx(0, 1),)))
    circ, perm = synthesize_tableau(t, ps.Topology.line(2))
    assert sum(1 for g in circ.gates if g.kind == "cx") == 1
    u = verify.circuit_unitary(Circuit(2, (ps.cx(0, 1),)))
    assert verify.equivalent(u, verify.circuit_unitary(circ), perm.mapping)


def test_synthesize_roundtrip_small_suite(rng):
    topos = {
        2: [ps.Topology.line(2)],
        3: [ps.Topology.line(3), ps.Topology.cycle(3)],
        4: [ps.Topology.line(4), ps.Topology.grid(2, 2)],
        5: [ps.Topology.line(5), ps.Topology.complete(5)],
    }
    for trial in range(40):
        q = int(rng.integers(2, 6))
        circ = random_clifford_circuit(q, int(rng.integers(1, 100)), rng)
        t = CliffordTableau.from_circuit(circ)
        u = verify.circuit_unitary(circ)
        topo = topos[q][trial % len(topos[q])]
        for allow_perm in (True, False):
            out, perm = synthesize_tableau(t.copy(), topo, allow_perm)
            assert ps.conforms(out, topo)
            if not allow_perm:
                assert perm.is_identity
            assert verify.equivalent(u, verify.circuit_unitary(out), perm.mapping, 1e-9)
            # replaying adjoint prepends must leave a clean permutation
            replay = t.copy()
            for g in out.gates:
                replay.prepend(g.adjoint())
            residual = replay.residual_permutation()
            assert residual is not None
            if not allow_perm:
                assert residual == list(range(q))


def test_synthesize_leaves_its_argument_unchanged(rng):
    for q in range(1, 7):
        topo = ps.Topology.line(q)
        for allow_perm in (True, False):
            t = CliffordTableau.from_circuit(random_clifford_circuit(q, 10 * q, rng))
            before = t.copy()
            synthesize_tableau(t, topo, allow_perm)
            assert t == before


def test_synthesize_rejects_mismatched_topology():
    with pytest.raises(ValueError):
        synthesize_tableau(CliffordTableau(3), ps.Topology.line(4))


def test_synthesize_rejects_non_bool_allow_permutation():
    for bad in ("no", 0, 1, None):
        with pytest.raises(ValueError) as got:
            synthesize_tableau(CliffordTableau(3), ps.Topology.line(3), bad)
        with pytest.raises(ValueError) as want:
            ps.SynthConfig(allow_permutation=bad)
        assert str(got.value) == str(want.value)
    for ok in (True, False):
        assert synthesize_tableau(CliffordTableau(3), ps.Topology.line(3), ok)[1].is_identity


def test_synthesize_cnot_bound_empirical(rng):
    # CNOT count stays within 8 q^2 for random tableaus up to q=16
    for q in (4, 8, 16):
        topo = ps.Topology.line(q)
        for _ in range(3):
            circ = random_clifford_circuit(q, 20 * q, rng)
            t = CliffordTableau.from_circuit(circ)
            out, _perm = synthesize_tableau(t, topo)
            cnots = sum(1 for g in out.gates if g.kind == "cx")
            assert cnots <= 8 * q * q


def test_qubit_permutation_applies_the_integer_rule():
    for mapping in ((0, 1.0), (True, 0), ("0", 1), (0, None)):
        with pytest.raises(ValueError, match="permutation entries must be integers"):
            QubitPermutation(mapping)
    p = QubitPermutation((np.int64(1), 0))
    assert p.mapping == (1, 0) and all(type(i) is int for i in p.mapping)


def test_residual_permutation_detects_signs():
    t = CliffordTableau(2)
    assert t.residual_permutation() == [0, 1]
    t.prepend(ps.s(0))
    t.prepend(ps.s(0))  # W = Z_0 flips the sign of X_0 and keeps every letter
    assert t.rows == CliffordTableau(2).rows and t.signs == (1, 0, 0, 0)
    assert t.residual_permutation() is None


def test_qubit_permutation_helpers():
    p = QubitPermutation((1, 2, 0))
    assert not p.is_identity
    assert QubitPermutation.identity(3).is_identity
    with pytest.raises(ValueError):
        QubitPermutation((0, 0, 1))
