import re

import numpy as np
import pytest

import paulisynth as ps
from paulisynth import verify
from paulisynth.circuit import Circuit, Metrics

from conftest import random_clifford_circuit


def _fused_ops(c):
    """The layering oracle's fusion step: each maximal run of single-qubit
    gates on a wire becomes one ("u3", (q,)) op; CNOTs are kept as-is."""
    ops = []
    slot_open = [False] * c.num_qubits
    for g in c.gates:
        if g.kind == "cx":
            ops.append(("cx", g.qubits))
            slot_open[g.qubits[0]] = False
            slot_open[g.qubits[1]] = False
        else:
            q = g.qubits[0]
            if not slot_open[q]:
                ops.append(("u3", (q,)))
                slot_open[q] = True
    return ops


def test_index_bounds_checked():
    with pytest.raises(ValueError):
        Circuit(1, (ps.cx(0, 1),))


def test_rejects_non_positive_qubit_count():
    for q in (0, -1):
        with pytest.raises(ValueError, match="num_qubits must be positive"):
            Circuit(q)


@pytest.mark.parametrize("q", [2.0, 2.5, "2", True, None])
def test_rejects_non_integer_qubit_count(q):
    with pytest.raises(ValueError, match=f"num_qubits must be an integer, got {q!r}"):
        Circuit(q)


@pytest.mark.parametrize("gates,bad", [
    ((ps.Gate("h", (0.5,)),), "h', qubits=(0.5,)"),
    ((ps.h(0), ps.Gate("s", (1.0,))), "s', qubits=(1.0,)"),
    # 1 == True == 1.0: a non-integer equal to a wire seen earlier is caught too.
    ((ps.cx(0, 1), ps.Gate("h", (True,))), "h', qubits=(True,)"),
    ((ps.h(1), ps.Gate("cx", (0, 1.0))), "cx', qubits=(0, 1.0)"),
    ((ps.h(1), ps.Gate("rz", ("0",), 0.5)), "rz', qubits=('0',)"),
    # Unhashable wires, from a factory without a cache and from an interned one.
    ((ps.rz(0.1, [0]),), "rz', qubits=([0],)"),
    ((ps.h(0), ps.h([0])), "h', qubits=([0],)"),
])
def test_rejects_non_integer_wires(gates, bad):
    with pytest.raises(ValueError, match=re.escape(bad) + r".*needs integer wires"):
        Circuit(2, gates)


def test_names_the_first_bad_gate():
    gates = (ps.h(0), ps.cx(0, 1), ps.h(4), ps.Gate("h", (0.5,)), ps.s(-1))
    with pytest.raises(ValueError, match=re.escape("qubits=(4,)") + ".*wires in 0..1"):
        Circuit(2, gates)
    with pytest.raises(ValueError, match=re.escape("qubits=(-1,)") + ".*wires in 0..1"):
        Circuit(2, (ps.h(1), ps.s(-1)))
    # numpy integers are integers, as everywhere else in the package.
    assert Circuit(np.int64(2), (ps.Gate("cx", (np.int64(1), 0)),)).num_qubits == 2


def test_stores_the_gates_as_a_tuple():
    # A list is copied into a tuple: the frozen circuit hashes, equals the one
    # built from a tuple, and a later change to the caller's list (here a wire
    # outside 0..1) does not reach it.
    gates = [ps.h(0), ps.cx(0, 1)]
    c = Circuit(2, gates)
    assert type(c.gates) is tuple
    assert c == Circuit(2, tuple(gates)) and hash(c) == hash(Circuit(2, tuple(gates)))
    gates.append(ps.cx(0, 7))
    assert c.gates == (ps.h(0), ps.cx(0, 1))


def test_metrics_empty():
    assert ps.metrics(Circuit(3)) == Metrics(0, 0, 0)


def test_metrics_disjoint_cnots_parallelize():
    c = Circuit(4, (ps.cx(0, 1), ps.cx(2, 3)))
    assert ps.metrics(c) == Metrics(2, 1, 1)


def test_metrics_single_qubit_fusion():
    c = Circuit(2, (ps.h(0), ps.s(0), ps.cx(0, 1)))
    m = ps.metrics(c)
    assert m.cnot_count == 1
    assert m.depth == 2  # h,s fuse into one u3 slot
    assert m.two_qubit_depth == 1


def test_fusion_reopens_after_cnot():
    c = Circuit(2, (ps.h(0), ps.cx(0, 1), ps.s(0), ps.h(0)))
    ops = _fused_ops(c)
    assert [k for k, _ in ops] == ["u3", "cx", "u3"]


def _layered_depth_oracle(ops, num_qubits, count_only_cx):
    """Independent longest-path computation on the fused op DAG."""
    finish = [0] * num_qubits
    for kind, qubits in ops:
        start = max(finish[q] for q in qubits)
        dur = 1 if (kind == "cx" or not count_only_cx) else 0
        for q in qubits:
            finish[q] = start + dur
    return max(finish, default=0)


def test_metrics_against_layering_oracle(rng):
    for _ in range(40):
        q = int(rng.integers(2, 6))
        c = random_clifford_circuit(q, int(rng.integers(0, 40)), rng)
        ops = _fused_ops(c)
        m = ps.metrics(c)
        assert m.depth == _layered_depth_oracle(ops, q, False)
        assert m.two_qubit_depth == _layered_depth_oracle(ops, q, True)
        assert m.two_qubit_depth <= m.depth


def test_cnot_count_additive_under_concat(rng):
    a = random_clifford_circuit(3, 12, rng)
    b = random_clifford_circuit(3, 9, rng)
    assert ps.metrics(Circuit(3, a.gates + b.gates)).cnot_count == \
        ps.metrics(a).cnot_count + ps.metrics(b).cnot_count


def test_depth_invariant_under_disjoint_swap(rng):
    for _ in range(20):
        c = random_clifford_circuit(4, 20, rng)
        gates = list(c.gates)
        # find an adjacent disjoint pair and swap it
        for i in range(len(gates) - 1):
            if not set(gates[i].qubits) & set(gates[i + 1].qubits):
                gates[i], gates[i + 1] = gates[i + 1], gates[i]
                break
        swapped = Circuit(4, tuple(gates))
        assert ps.metrics(swapped).depth == ps.metrics(c).depth


def test_conforms():
    line3 = ps.Topology.line(3)
    assert not ps.conforms(Circuit(3, (ps.cx(0, 2),)), line3)
    assert ps.conforms(Circuit(3, (ps.cx(0, 1), ps.h(2))), line3)
    assert ps.conforms(Circuit(3, (ps.cx(0, 2),)), ps.Topology.complete(3))
    assert not ps.conforms(Circuit(5, (ps.cx(3, 4),)), line3)  # wires outside the device


def test_conforms_reads_the_last_gate():
    # A non-edge CNOT as the last gate of a synthesized circuit is caught.
    line4 = ps.Topology.line(4)
    poly = ps.random_polynomial(ps.RandomSpec(4, 12, seed=1))
    gates = ps.synthesize(poly, line4).circuit.gates
    assert ps.conforms(Circuit(4, gates), line4)
    assert not ps.conforms(Circuit(4, gates + (ps.cx(0, 3),)), line4)


def test_conforms_monotone_under_added_edges(rng):
    base = ps.Topology.line(4)
    richer = ps.Topology(4, list(base.edges) + [(0, 2), (1, 3)])
    for _ in range(20):
        c = random_clifford_circuit(4, 15, rng)
        if ps.conforms(c, base):
            assert ps.conforms(c, richer)


def test_qasm_empty_circuit():
    out = ps.to_qasm2(Circuit(3))
    assert out == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'


def test_qasm_gate_lines():
    c = Circuit(2, (ps.cx(0, 1), ps.v(0), ps.vdg(1), ps.rz(0.5, 0)))
    out = ps.to_qasm2(c)
    assert "cx q[0],q[1];" in out
    assert "sx q[0];" in out
    assert "sxdg q[1];" in out
    assert "rz(0.5) q[0];" in out


def test_five_gate_circuit_unitary_round_trip():
    c = Circuit(2, (ps.h(0), ps.s(1), ps.cx(0, 1), ps.vdg(0), ps.rz(0.3, 1)))
    u = verify.circuit_unitary(c)
    ref = np.eye(4, dtype=complex)
    for g in c.gates:
        ref = verify.circuit_unitary(Circuit(2, (g,))) @ ref
    assert np.allclose(u, ref, atol=1e-12)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_adjoint_reverses():
    c = Circuit(2, (ps.h(0), ps.s(1), ps.cx(0, 1)))
    u = verify.circuit_unitary(c)
    ua = verify.circuit_unitary(Circuit(2, tuple(g.adjoint() for g in reversed(c.gates))))
    assert np.allclose(ua, u.conj().T, atol=1e-12)
