"""The input contract of the public entry points: a bad value gives a
``ValueError`` that names it, and the accepted forms (numpy integers for
counts and indices, plain integers for letters) still work.

One row per case: an id, the call, and a fragment of the expected message.
"""

import math
import re

import numpy as np
import pytest

import paulisynth as ps

X = ps.Pauli.X
XZ = ps.PauliString.from_str("XZ")
POLY2 = ps.random_polynomial(ps.RandomSpec(2, 3, seed=1))
TAB3 = ps.CliffordTableau(3)
row_interaction_cost, column_distance_cost = (ps.tableau.row_interaction_cost,
                                              ps.tableau.column_distance_cost)


def trotter(polys, timesteps):
    """``bench.run_trotter_error`` of the naive method on line:2, no CSV."""
    return ps.bench.run_trotter_error(polys, ps.Topology.line(2), ["naive"], timesteps, None)


BAD = [
    ("line-float", lambda: ps.Topology.line(2.5), "num_qubits must be an integer >= 1, got 2.5"),
    ("line-bool", lambda: ps.Topology.line(True), "num_qubits must be an integer >= 1, got True"),
    ("line-zero", lambda: ps.Topology.line(0), "num_qubits must be an integer >= 1, got 0"),
    ("cycle-str", lambda: ps.Topology.cycle("3"), "num_qubits must be an integer >= 1, got '3'"),
    ("cycle-float", lambda: ps.Topology.cycle(2.0), "num_qubits must be an integer >= 1, got 2.0"),
    ("complete-none", lambda: ps.Topology.complete(None),
     "num_qubits must be an integer >= 1, got None"),
    ("complete-neg", lambda: ps.Topology.complete(-1), "num_qubits must be an integer >= 1"),
    ("grid-bool-rows", lambda: ps.Topology.grid(True, 3), "rows must be an integer >= 1, got True"),
    ("grid-float-cols", lambda: ps.Topology.grid(2, 2.5), "cols must be an integer >= 1, got 2.5"),
    ("grid-zero-rows", lambda: ps.Topology.grid(0, 3), "rows must be an integer >= 1, got 0"),
    ("row-letter-row-past-end", lambda: ps.CliffordTableau(3).row_letter(7, 0),
     "row in 0..5 and a wire in 0..2, got (7, 0)"),
    ("row-letter-negative-wire", lambda: ps.CliffordTableau(3).row_letter(0, -1),
     "got (0, -1)"),
    ("row-letter-wire-past-end", lambda: ps.CliffordTableau(3).row_letter(0, 3), "got (0, 3)"),
    ("row-letter-negative-row", lambda: ps.CliffordTableau(3).row_letter(-1, 0), "got (-1, 0)"),
    ("row-letter-bool-row", lambda: ps.CliffordTableau(3).row_letter(True, 0), "got (True, 0)"),
    ("row-letter-float-wire", lambda: ps.CliffordTableau(3).row_letter(0, 1.0), "got (0, 1.0)"),
    ("spec-angle-set-int", lambda: ps.RandomSpec(3, 3, 7),
     "angle_set must be a non-empty sequence of finite angles, got 7"),
    ("spec-angle-set-empty", lambda: ps.RandomSpec(3, 3, ()), "got ()"),
    ("spec-angle-set-str", lambda: ps.RandomSpec(3, 3, "0.5"), "got '0.5'"),
    ("spec-angle-set-none", lambda: ps.RandomSpec(3, 3, None), "got None"),
    ("spec-angle-set-nan", lambda: ps.RandomSpec(3, 3, (0.5, math.nan)), "got (0.5, nan)"),
    ("spec-angle-set-text-entry", lambda: ps.RandomSpec(3, 3, ("0.5",)), "got ('0.5',)"),
    ("spec-angle-set-bool-entry", lambda: ps.RandomSpec(3, 3, (True,)), "got (True,)"),
    ("string-letter-text", lambda: ps.PauliString(("X", 7)), "invalid Pauli letter 'X'"),
    ("string-letter-out-of-range", lambda: ps.PauliString((X, 7)), "invalid Pauli letter 7"),
    ("string-letter-negative", lambda: ps.PauliString((-1,)), "invalid Pauli letter -1"),
    ("string-letter-bool", lambda: ps.PauliString((True,)), "invalid Pauli letter True"),
    ("string-letter-float", lambda: ps.PauliString((1.0,)), "invalid Pauli letter 1.0"),
    ("string-letter-none", lambda: ps.PauliString((None,)), "invalid Pauli letter None"),
    ("string-text", lambda: ps.PauliString("XZ"), "invalid Pauli letter 'X'"),
    ("config-k-float", lambda: ps.SynthConfig(k=2.5), "k must be an integer >= 1, got 2.5"),
    ("steiner-negative-terminal-mask", lambda: ps.Topology.line(3).steiner_tree(-1, 0b111),
     "terminal mask must be a non-negative int, got -1"),
    ("steiner-negative-active-mask", lambda: ps.Topology.line(3).steiner_tree(0b1, -2),
     "active mask must be a non-negative int, got -2"),
    ("steiner-numpy-negative-mask",
     lambda: ps.Topology.line(3).steiner_tree(0b1, np.int64(-1)),
     "active mask must be a non-negative int, got"),
    ("steiner-bool-terminal-mask", lambda: ps.Topology.line(3).steiner_tree(True, 0b111),
     "terminal mask must be a non-negative int, got True"),
    ("steiner-terminal-mask-off-device", lambda: ps.Topology.line(3).steiner_tree(0b1001, 0b111),
     "terminal qubits [3] not in 0..2"),
    ("steiner-active-mask-off-device", lambda: ps.Topology.line(3).steiner_tree(0b1, 0b10111),
     "active qubits [4] not in 0..2"),
    ("steiner-terminal-mask-outside-active",
     lambda: ps.Topology.line(3).steiner_tree(0b101, 0b011),
     "terminals must lie inside the active set"),
    ("steiner-empty-terminal-mask", lambda: ps.Topology.line(3).steiner_tree(0, 0b111),
     "terminals must be non-empty"),
    ("non-cutting-mixed-members", lambda: ps.Topology.line(3).is_non_cutting(0, [0, "a", 7]),
     "active qubits [7, 'a'] not in 0..2"),
    ("non-cutting-float-mask", lambda: ps.Topology.line(3).is_non_cutting(0, 2.5),
     "active mask must be a non-negative int, got 2.5"),
    ("path-none-targets", lambda: ps.Topology.line(3).shortest_path(0, None, 0b111),
     "target mask must be a non-negative int, got None"),
    ("neighbors-negative-mask", lambda: ps.Topology.line(3).neighbors(1, -1),
     "active mask must be a non-negative int, got -1"),
    ("steiner-set-outside-active-mask", lambda: ps.Topology.line(3).steiner_tree({0, 2}, 0b011),
     "terminals must lie inside the active set"),
    ("non-cutting-0d-float-mask", lambda: ps.Topology.line(3).is_non_cutting(0, np.array(1.5)),
     "active mask must be a non-negative int, got"),
    ("non-cutting-0d-bool-mask", lambda: ps.Topology.line(3).is_non_cutting(0, np.array(True)),
     "active mask must be a non-negative int, got"),
    ("neighbors-0d-float-mask", lambda: ps.Topology.line(3).neighbors(1, np.array(1.5)),
     "active mask must be a non-negative int, got"),
    ("path-0d-bool-targets", lambda: ps.Topology.line(3).shortest_path(0, np.array(True), 0b111),
     "target mask must be a non-negative int, got"),
    ("path-0d-negative-active", lambda: ps.Topology.line(3).shortest_path(0, 0b100, np.array(-1)),
     "active mask must be a non-negative int, got"),
    ("steiner-0d-float-terminal-mask",
     lambda: ps.Topology.line(3).steiner_tree(np.array(1.5), 0b111),
     "terminal mask must be a non-negative int, got"),
    ("steiner-0d-bool-active-mask", lambda: ps.Topology.line(3).steiner_tree(0b1, np.array(True)),
     "active mask must be a non-negative int, got"),
    ("steiner-0d-mask-off-device", lambda: ps.Topology.line(3).steiner_tree(0b1, np.array(0b1011)),
     "active qubits [3] not in 0..2"),
    ("has-edge-0d-float-qubit", lambda: ps.Topology.line(3).has_edge(0, np.array(1.5)),
     "edge qubits [array(1.5)] not in 0..2"),
    ("has-edge-0d-qubit-off-device", lambda: ps.Topology.line(3).has_edge(np.array(3), 0),
     "edge qubits [3] not in 0..2"),
    ("neighbors-0d-qubit-off-device", lambda: ps.Topology.line(3).neighbors(np.array(3)),
     "not in 0..2"),
    ("neighbors-numpy-qubit-off-device", lambda: ps.Topology.line(3).neighbors(np.int64(3)),
     "qubit 3 not in 0..2"),
    ("neighbors-0d-bool-qubit", lambda: ps.Topology.line(3).neighbors(np.array(True)),
     "qubit array(True) not in 0..2"),
    ("non-cutting-0d-qubit-inactive", lambda: ps.Topology.line(3).is_non_cutting(np.array(2), 3),
     "qubit 2 is not in the active set"),
    ("non-cutting-0d-member-off-device",
     lambda: ps.Topology.line(3).is_non_cutting(0, [0, np.array(4)]),
     "active qubits [4] not in 0..2"),
    ("path-0d-source-off-device", lambda: ps.Topology.line(3).shortest_path(np.array(5), 1, 7),
     "source qubits [5] not in 0..2"),
    ("synthesize-str-config",
     lambda: ps.synthesize(ps.random_polynomial(ps.RandomSpec(4, 3)), ps.Topology.line(4), "fast"),
     "cfg must be a SynthConfig, got 'fast'"),
    ("synthesize-spec-topology",
     lambda: ps.synthesize(ps.random_polynomial(ps.RandomSpec(4, 3)), "line:4"),
     "topo must be a Topology, got 'line:4'"),
    ("naive-spec-topology",
     lambda: ps.naive_synthesize(ps.random_polynomial(ps.RandomSpec(4, 3)), "line:4"),
     "topo must be a Topology, got 'line:4'"),
    ("synthesize-text-polynomial", lambda: ps.synthesize("XXYZ", ps.Topology.line(4)),
     "poly must be a PauliPolynomial, got 'XXYZ'"),
    ("trotter-text-polynomial-entry", lambda: trotter([POLY2, "XZ"], [1.0]),
     "polys[1] must be a PauliPolynomial, got 'XZ'"),
    ("trotter-bare-polynomial", lambda: trotter(POLY2, [1.0]),
     "polys must be a sequence of PauliPolynomial, got a PauliPolynomial"),
    ("trotter-text-timestep", lambda: trotter([POLY2], [0.0, "1.5"]),
     "timesteps must be finite reals, got [0.0, '1.5']"),
    ("trotter-none-timestep", lambda: trotter([POLY2], [None]),
     "timesteps must be finite reals, got [None]"),
    ("trotter-complex-timestep", lambda: trotter([POLY2], [1j]),
     "timesteps must be finite reals, got [1j]"),
    ("trotter-scalar-timesteps", lambda: trotter([POLY2], 1.0),
     "timesteps must be a sequence of finite reals, got 1.0"),
    ("trotter-2d-array-timesteps", lambda: trotter([POLY2], np.zeros((1, 2))),
     "timesteps must be finite reals, got [array([0., 0.])]"),
    ("rz-nan-angle", lambda: ps.rz(math.nan, 0), "rz angle must be a finite real, got nan"),
    ("rz-infinite-angle", lambda: ps.rz(-math.inf, 0), "rz angle must be a finite real, got -inf"),
    ("rz-text-angle", lambda: ps.rz("a", 0), "rz angle must be a finite real, got 'a'"),
    ("rz-bool-angle", lambda: ps.rz(True, 0), "rz angle must be a finite real, got True"),
    ("rz-complex-angle", lambda: ps.Gate("rz", (0,), 1j), "rz angle must be a finite real, got 1j"),
    ("clifford-with-angle", lambda: ps.Gate("h", (0,), 0.5), "h takes no angle, got 0.5"),
    ("cx-with-angle", lambda: ps.Gate("cx", (0, 1), math.nan), "cx takes no angle, got nan"),
    ("gadget-text-angle", lambda: ps.PauliGadget("a", XZ),
     "gadget angle must be a finite real, got 'a'"),
    ("gadget-complex-angle", lambda: ps.PauliGadget(1j, XZ),
     "gadget angle must be a finite real, got 1j"),
    ("gadget-bool-angle", lambda: ps.PauliGadget(False, XZ),
     "gadget angle must be a finite real, got False"),
    ("gadget-text-string", lambda: ps.PauliGadget(0.1, "XZ"),
     "gadget string must be a PauliString, got 'XZ'"),
    ("polynomial-text-gadget", lambda: ps.PauliPolynomial(2, ["XZ"]),
     "gadget 0 must be a PauliGadget, got 'XZ'"),
    ("polynomial-none-gadgets", lambda: ps.PauliPolynomial(2, None),
     "gadgets must be an iterable of PauliGadget, got None"),
    ("topology-int-edge", lambda: ps.Topology(3, [1]), "edge 1 is not a (u, v) pair"),
    ("topology-none-edges", lambda: ps.Topology(3, None),
     "edges must be an iterable of (u, v) pairs, got None"),
    ("topology-triple-edge", lambda: ps.Topology(3, [(0, 1), (0, 1, 2)]),
     "edge (0, 1, 2) is not a (u, v) pair"),
    ("topology-one-qubit-edge", lambda: ps.Topology(3, [(0,)]), "edge (0,) is not a (u, v) pair"),
    ("interaction-cost-negative-row", lambda: row_interaction_cost(TAB3, -1),
     "row pair must be an integer in 0..2, got -1"),
    ("interaction-cost-row-past-end", lambda: row_interaction_cost(TAB3, 3),
     "row pair must be an integer in 0..2, got 3"),
    ("interaction-cost-bool-row", lambda: row_interaction_cost(TAB3, True), "got True"),
    ("interaction-cost-none-tableau", lambda: row_interaction_cost(None, 0),
     "t must be a CliffordTableau, got None"),
    ("distance-cost-negative-row", lambda: column_distance_cost(TAB3, -1, ps.Topology.line(3)),
     "row pair must be an integer in 0..2, got -1"),
    ("distance-cost-row-past-end", lambda: column_distance_cost(TAB3, 3, ps.Topology.line(3)),
     "row pair must be an integer in 0..2, got 3"),
    ("distance-cost-other-size", lambda: column_distance_cost(TAB3, 0, ps.Topology.line(4)),
     "topology size does not match tableau"),
    ("distance-cost-spec-topology", lambda: column_distance_cost(TAB3, 0, "line:3"),
     "topo must be a Topology, got 'line:3'"),
    ("tableau-synthesis-spec-topology", lambda: ps.synthesize_tableau(TAB3, "line:3"),
     "topo must be a Topology, got 'line:3'"),
    ("tableau-synthesis-none-tableau", lambda: ps.synthesize_tableau(None, ps.Topology.line(3)),
     "t must be a CliffordTableau, got None"),
    ("gate-int-qubits", lambda: ps.Gate("h", 0), "qubits must be an iterable of wires, got 0"),
    ("circuit-int-gate", lambda: ps.Circuit(2, [1]), "gate 0 must be a Gate, got 1"),
    ("circuit-text-gate-after-gates", lambda: ps.Circuit(2, [ps.h(0), ps.cx(0, 1), "h"]),
     "gate 2 must be a Gate, got 'h'"),
    ("circuit-none-gates", lambda: ps.Circuit(2, None), "gates must be an iterable of Gate, got None"),
    ("string-none-letters", lambda: ps.PauliString(None),
     "letters must be an iterable of Paulis, got None"),
    ("permutation-none-mapping", lambda: ps.QubitPermutation(None),
     "mapping must be an iterable of integers, got None"),
    ("check-none-result", lambda: ps.bench.check_result(POLY2, None),
     "result must be a SynthesisResult, got None"),
    ("check-text-polynomial",
     lambda: ps.bench.check_result("x", ps.synthesize(POLY2, ps.Topology.line(2))),
     "poly must be a PauliPolynomial, got 'x'"),
    ("conforms-spec-topology", lambda: ps.conforms(ps.Circuit(3), "line:3"),
     "topo must be a Topology, got 'line:3'"),
    ("conforms-gate-list", lambda: ps.conforms([ps.cx(0, 1)], ps.Topology.line(3)),
     "c must be a Circuit, got [Gate(kind='cx'"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in BAD], ids=[row[0] for row in BAD])
def test_bad_values_raise_a_named_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_accepted_forms():
    assert ps.Topology.line(np.int64(3)).edges == ps.Topology.line(3).edges
    assert ps.Topology.grid(np.int64(2), 3).num_qubits == 6
    assert ps.Topology.cycle(2).edges == ps.Topology.line(2).edges
    assert ps.CliffordTableau(2).row_letter(np.int64(3), np.int64(1)) == ps.Pauli.Z
    assert type(ps.SynthConfig(k=np.int64(3)).k) is int
    spec = ps.RandomSpec(3, 3, [0.5, np.float64(0.25)])
    assert spec.angle_set == (0.5, 0.25) and hash(spec) == hash(ps.RandomSpec(3, 3, (0.5, 0.25)))
    letters = ps.PauliString([0, 1, np.int64(2), ps.Pauli.Z]).letters
    assert letters == (ps.Pauli.I, ps.Pauli.X, ps.Pauli.Y, ps.Pauli.Z)
    assert all(type(p) is ps.Pauli for p in letters)
    assert str(ps.PauliString((3, 2, 1, 0))) == "ZYXI"
    assert str(ps.PauliString(())) == ""
    assert ps.PauliString((1, 3)) == ps.PauliString.from_str("XZ")
    assert ps.Topology.line(3).is_non_cutting(0, np.int64(7))
    assert not ps.Topology.line(3).is_non_cutting(np.int64(1), np.uint8(7))
    line3 = ps.Topology.line(3)
    assert line3.steiner_tree(np.int64(0b101), np.uint8(0b111)) == [(0, 1), (1, 2)]
    assert line3.steiner_tree({0, 2}, 0b111) == line3.steiner_tree(0b101, [0, 1, 2])
    # A 0-d integer array is read as its scalar, like a numpy integer.
    assert line3.is_non_cutting(0, np.array(7)) and not line3.is_non_cutting(1, np.array(7))
    assert line3.neighbors(1, np.array(0b101)) == [0, 2]
    assert line3.shortest_path(0, np.array(0b100), np.array(0b111)) == [0, 1, 2]
    assert line3.steiner_tree(np.array(0b101), np.array(0b111)) == [(0, 1), (1, 2)]
    # So is a 0-d integer array given as one qubit or as a member.
    assert line3.has_edge(0, np.array(1)) and not line3.has_edge(np.array(0), np.uint8(2))
    assert line3.neighbors(np.array(1)) == [0, 2] == line3.neighbors(np.array(1), np.array(7))
    assert line3.is_non_cutting(np.array(0), 7) and not line3.is_non_cutting(np.array(1), 7)
    assert line3.is_non_cutting(0, [0, np.array(1)])
    assert line3.shortest_path(np.array(0), [np.array(2)], 7) == [0, 1, 2]
    assert line3.steiner_tree([np.array(0), 2], (0, np.array(1), 2)) == [(0, 1), (1, 2)]
    # Angles are kept as floats, so numpy angles write as numbers, and a
    # polynomial's gadgets as a tuple.
    assert ps.rz(np.float32(0.5), 0) == ps.rz(0.5, 0) and type(ps.rz(1, 0).angle) is float
    assert ps.to_qasm2(ps.Circuit(1, (ps.rz(np.float64(0.5), 0),))).endswith("rz(0.5) q[0];\n")
    gadgets = (ps.PauliGadget(0.5, XZ),)
    text = ps.serialize_polynomial(ps.PauliPolynomial(2, (ps.PauliGadget(np.float64(0.5), XZ),)))
    assert text == "qubits 2\n0.5 XZ\n" and ps.parse_polynomial(text).gadgets == gadgets
    poly = ps.PauliPolynomial(2, list(gadgets))
    assert poly.gadgets == gadgets and hash(poly) == hash(ps.PauliPolynomial(2, gadgets))
    assert ps.Topology(3, ([0, 1], np.array([1, 2]))).edges == ps.Topology.line(3).edges
    assert row_interaction_cost(TAB3, np.int64(2)) == 2
    # Gate wires given as a list are kept as a tuple: hashable, and equal to
    # the factory's gate.
    listed = ps.Gate("h", [0])
    assert listed == ps.h(0) and hash(listed) == hash(ps.h(0)) and listed.qubits == (0,)
    assert ps.Circuit(2, [listed]).gates == (ps.h(0),)
    # An iterator is read once, so a permutation from a generator keeps its entries.
    assert ps.QubitPermutation(j for j in (1, 0)).mapping == (1, 0)


def test_numpy_timesteps_scan_as_a_list():
    assert trotter([POLY2], np.array([0.0, 1.5])) == trotter([POLY2], [0.0, 1.5])
    assert trotter((p for p in [POLY2]), (0.0, 1.5)) == trotter([POLY2], [0.0, 1.5])


def test_numpy_qubit_counts_synthesize():
    topo = ps.Topology.line(4)
    poly = ps.random_polynomial(ps.RandomSpec(4, 12, seed=3))
    for p in (ps.PauliPolynomial(np.int64(4), poly.gadgets),
              ps.random_polynomial(ps.RandomSpec(np.int64(4), 12, seed=3))):
        assert type(p.num_qubits) is int and p == poly
        result = ps.synthesize(p, topo)
        assert result.circuit == ps.synthesize(poly, topo).circuit
        assert ps.bench.check_result(p, result)
