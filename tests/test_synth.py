import numpy as np
import pytest

import paulisynth as ps
from paulisynth import verify
from paulisynth.bench import check_result
from paulisynth.synth import _State, column_cost, column_costs
from paulisynth.topology import tree_postorder

from conftest import random_connected_topology


def gadget(angle, text):
    return ps.PauliGadget(angle, ps.PauliString.from_str(text))


def poly_of(*entries):
    gadgets = tuple(gadget(a, s) for a, s in entries)
    return ps.PauliPolynomial(len(entries[0][1]), gadgets)


def brute_runs(text_column):
    """Independent run scanner: lengths of maximal non-I runs."""
    runs, cur = [], 0
    for ch in text_column:
        if ch != "I":
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    return runs


def cost_oracle(text_column, k):
    runs = brute_runs(text_column)
    n_i = text_column.count("I")
    if not runs:
        return k * n_i
    return k * n_i + max(runs) - min(runs)


def _col(text):
    return np.array([int(ps.Pauli[c]) for c in text], dtype=np.uint8)


@pytest.mark.parametrize("column,expected", [
    ("IIXXI", 30),
    ("IIIII", 50),
    ("XZIXX", 10),  # runs are XZ (2) and XX (2): 10*1 + 2 - 2
    ("X", 10 * 0 + 0),
    ("IXIXXXI", 10 * 3 + 3 - 1),
])
def test_column_cost_frozen_values(column, expected):
    assert cost_oracle(column, 10) == expected
    assert column_cost(_col(column), 10) == expected


def test_column_cost_matches_oracle_random(rng):
    letters = "IXYZ"
    for _ in range(200):
        text = "".join(letters[rng.integers(4)] for _ in range(int(rng.integers(1, 20))))
        k = int(rng.integers(1, 20))
        assert column_cost(_col(text), k) == cost_oracle(text, k)
    # Whole blocks: one-row blocks, all-identity columns and k in [1, 20].
    for trial in range(300):
        n = 1 if trial % 5 == 0 else int(rng.integers(1, 25))
        m = int(rng.integers(1, 10))
        block = rng.choice(4, size=(n, m), p=[0.4, 0.2, 0.2, 0.2]).astype(np.uint8)
        block[:, rng.random(m) < 0.2] = 0
        k = int(rng.integers(1, 21))
        costs = column_costs(block, k)
        assert costs.shape == (m,)
        for c in range(m):
            text = "".join(letters[x] for x in block[:, c])
            assert costs[c] == cost_oracle(text, k), (block, k, c)


def _state(poly, topo, cfg=None):
    return _State(poly, topo, cfg or ps.SynthConfig())


def test_pick_pivot_prefers_all_identity_column():
    poly = poly_of((0.1, "XYZI"), (0.2, "ZXYI"), (0.3, "YZXI"))
    st = _state(poly, ps.Topology.complete(4))
    assert ps.pick_pivot(st, [0, 1, 2], frozenset(range(4))) == 3


def test_pick_pivot_excludes_cut_vertices():
    # qubit 1 is all-I (by far the best score) but cutting on line(3);
    # the tie between ends breaks to the lowest index
    poly = poly_of((0.1, "XIX"), (0.2, "ZIZ"))
    st = _state(poly, ps.Topology.line(3))
    assert ps.pick_pivot(st, [0, 1], frozenset({0, 1, 2})) == 0
    st2 = _state(poly, ps.Topology.complete(3))
    assert ps.pick_pivot(st2, [0, 1], frozenset({0, 1, 2})) == 1


def test_pick_pivot_single_qubit():
    poly = poly_of((0.1, "IZ"),)
    st = _state(poly, ps.Topology.line(2))
    assert ps.pick_pivot(st, [0], frozenset({1})) == 1


def test_pick_neighbor_forced_on_line():
    poly = poly_of((0.1, "ZXY"),)
    st = _state(poly, ps.Topology.line(3))
    assert ps.pick_neighbor(st, 0, [0], frozenset({0, 1, 2})) == 1


def test_pick_neighbor_maximizes_cost():
    # neighbor candidates 1 and 2 of pivot 0 on a complete graph; qubit 2
    # carries the all-I column which scores k=10 higher
    poly = poly_of((0.1, "ZXI"), (0.2, "ZXI"))
    st = _state(poly, ps.Topology.complete(3))
    assert ps.pick_neighbor(st, 0, [0, 1], frozenset({0, 1, 2})) == 2


def test_pick_neighbor_single_candidate_even_all_identity():
    poly = poly_of((0.1, "ZI"),)
    st = _state(poly, ps.Topology.line(2))
    assert ps.pick_neighbor(st, 0, [0], frozenset({0, 1})) == 1


def _brute_non_cutting(topo, qb, active):
    """Independent flood fill over ``topo.edges`` without ``qb``."""
    rest = set(active) - {qb}
    if not rest:
        return True
    seen, todo = set(), [min(rest)]
    while todo:
        u = todo.pop()
        if u in seen:
            continue
        seen.add(u)
        todo.extend(w for a, b in topo.edges for x, w in ((a, b), (b, a))
                    if x == u and w in rest)
    return seen == rest


def _brute_best(candidates, column_text, k):
    """Maximum ``cost_oracle`` over ``candidates``; ties go to the lowest index."""
    return max(candidates, key=lambda qb: (cost_oracle(column_text(qb), k), -qb))


def _random_connected_subset(topo, rng):
    """A random connected set of qubits, grown from a random start."""
    size = int(rng.integers(1, topo.num_qubits + 1))
    chosen = {int(rng.integers(topo.num_qubits))}
    while len(chosen) < size:
        frontier = sorted({w for u in chosen for w in topo.neighbors(u)} - chosen)
        chosen.add(int(rng.choice(frontier)))
    return frozenset(chosen)


def test_pick_pivot_and_neighbor_match_brute_force(rng):
    letters = "IXYZ"
    for trial in range(120):
        kind = trial % 4
        q = int(rng.integers(2, 10))
        if kind == 0:
            topo = ps.Topology.line(q)
        elif kind == 1:
            topo = ps.Topology.cycle(q)
        elif kind == 2:
            topo = ps.Topology.grid(int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        else:
            topo = random_connected_topology(q, rng)
        q = topo.num_qubits
        n = int(rng.integers(1, 8))
        rows = rng.choice(4, size=(n, q), p=[0.5, 0.2, 0.15, 0.15])
        if trial % 2:
            # Forced ties: many columns repeat one column.
            rows[:, rng.random(q) < 0.6] = rows[:, [int(rng.integers(q))]]
        poly = poly_of(*((0.1, "".join(letters[x] for x in row)) for row in rows))
        k = int(rng.integers(1, 21))
        st = _state(poly, topo, ps.SynthConfig(k=k))
        g = [int(i) for i in rng.permutation(n)[:int(rng.integers(1, n + 1))]]

        def column_text(qb):
            return "".join(letters[int(st.letters[i, qb])] for i in g)

        active = _random_connected_subset(topo, rng)
        free = [qb for qb in active if _brute_non_cutting(topo, qb, active)]
        pivot = ps.pick_pivot(st, g, active)
        assert pivot == _brute_best(free, column_text, k), (trial, sorted(active))
        near = [w for w in active if topo.has_edge(pivot, w)]
        if near:
            assert ps.pick_neighbor(st, pivot, g, active) == \
                _brute_best(near, column_text, k), (trial, pivot)


def test_partition_on_qubit_worked_strings():
    poly = poly_of((0.1, "IIZZ"), (0.2, "YXZX"), (0.3, "IIYZ"), (0.4, "YXZI"))
    st = _state(poly, ps.Topology.line(4))
    parts = ps.partition_on_qubit(st, [0, 1, 2, 3], 3)
    assert parts[ps.Pauli.I] == [3]
    assert parts[ps.Pauli.X] == [1]
    assert parts[ps.Pauli.Y] == []
    assert parts[ps.Pauli.Z] == [0, 2]


def test_partition_all_z_and_empty():
    poly = poly_of((0.1, "ZZ"), (0.2, "ZI"))
    st = _state(poly, ps.Topology.line(2))
    parts = ps.partition_on_qubit(st, [0, 1], 0)
    assert parts[ps.Pauli.Z] == [0, 1]
    assert ps.partition_on_qubit(st, [], 0) == {0: [], 1: [], 2: [], 3: []}


def test_diagonalize_qubit_per_letter():
    poly = poly_of((0.1, "XZ"), (0.2, "XI"))
    st = _state(poly, ps.Topology.line(2))
    ps.diagonalize_qubit(st, [0, 1], 0)
    assert [g.kind for g in st.gates] == ["h"]
    assert st.letters[0, 0] == ps.Pauli.Z and st.letters[1, 0] == ps.Pauli.Z
    # Z group needs no gate
    st2 = _state(poly_of((0.1, "ZZ"),), ps.Topology.line(2))
    ps.diagonalize_qubit(st2, [0], 0)
    assert st2.gates == []
    # mixed letters are rejected
    st3 = _state(poly_of((0.1, "XZ"), (0.2, "YI")), ps.Topology.line(2))
    with pytest.raises(ValueError):
        ps.diagonalize_qubit(st3, [0, 1], 0)


def test_diagonalize_y_records_flips_via_oracle():
    st = _state(poly_of((0.5, "YZ"), (0.3, "ZZ")), ps.Topology.line(2))
    ps.diagonalize_qubit(st, [0], 0)
    assert [g.kind for g in st.gates] == ["v"]
    assert st.letters[0, 0] == ps.Pauli.Z
    # the Z-letter gadget turned into -Y under v conjugation
    assert st.letters[1, 0] == ps.Pauli.Y and st.angles[1] == -0.3


def test_disconnect_zz_zy_single_cnot():
    st = _state(poly_of((0.1, "ZZ"), (0.2, "ZY")), ps.Topology.line(2))
    ps.disconnect(st, 0, 1, [0, 1])
    assert [g.kind for g in st.gates] == ["cx"]
    assert st.letters[0, 0] == ps.Pauli.I and st.letters[1, 0] == ps.Pauli.I


def test_disconnect_zi_uses_two_cnots():
    st = _state(poly_of((0.7, "ZI"),), ps.Topology.line(2))
    ps.disconnect(st, 0, 1, [0])
    assert [g.kind for g in st.gates] == ["cx", "cx"]
    assert st.letters[0, 0] == ps.Pauli.I and st.letters[0, 1] == ps.Pauli.Z
    # unitary check on 2 qubits: circuit + conjugated gadget + undo == original
    u = np.eye(4, dtype=complex)
    for g in st.gates:
        u = verify.gate_matrix(g, 2) @ u
    conj = verify.gadget_unitary(gadget(float(st.angles[0]), "IZ"))
    orig = verify.gadget_unitary(gadget(0.7, "ZI"))
    assert np.allclose(u.conj().T @ conj @ u, orig, atol=1e-12)


def test_disconnect_zx_rule_handles_both():
    st = _state(poly_of((0.1, "ZX"), (0.2, "ZZ")), ps.Topology.line(2))
    ps.disconnect(st, 0, 1, [0, 1])
    # Z/X matches both gadgets: one Clifford on the neighbor plus one CNOT
    assert [g.kind for g in st.gates] == ["s", "cx"]
    assert st.letters[0, 0] == ps.Pauli.I and st.letters[1, 0] == ps.Pauli.I
    # unitary check: undoing the emitted gates around the conjugated gadgets
    # reproduces the originals
    u = np.eye(4, dtype=complex)
    for g in st.gates:
        u = verify.gate_matrix(g, 2) @ u
    for idx, orig_text in ((0, "ZX"), (1, "ZZ")):
        letters = "".join("IXYZ"[int(p)] for p in st.letters[idx])
        conj = verify.gadget_unitary(gadget(float(st.angles[idx]), letters))
        orig = verify.gadget_unitary(gadget([0.1, 0.2][idx], orig_text))
        assert np.allclose(u.conj().T @ conj @ u, orig, atol=1e-12)


def test_disconnect_rule_tie_priority():
    # single ZX gadget: Z/X and X/Y both match one gadget; priority picks Z/X
    st = _state(poly_of((0.1, "ZX"),), ps.Topology.line(2))
    ps.disconnect(st, 0, 1, [0])
    assert [g.kind for g in st.gates] == ["s", "cx"]
    # single ZZ gadget: Z/Y and Z/X tie; priority picks Z/Y (bare CNOT)
    st2 = _state(poly_of((0.1, "ZZ"),), ps.Topology.line(2))
    ps.disconnect(st2, 0, 1, [0])
    assert [g.kind for g in st2.gates] == ["cx"]


def test_disconnect_requires_diagonal_pivot():
    st = _state(poly_of((0.1, "XZ"),), ps.Topology.line(2))
    with pytest.raises(ValueError):
        ps.disconnect(st, 0, 1, [0])


def test_single_gadget_diagonal_single_leg():
    poly = poly_of((0.3, "ZI"),)
    res = ps.synthesize(poly, ps.Topology.line(2))
    assert [g.kind for g in res.circuit.gates] == ["rz"]
    assert res.circuit.gates[0] == ps.rz(0.3, 0)
    assert res.metrics.cnot_count == 0


def test_single_gadget_x_leg():
    poly = poly_of((0.3, "XI"),)
    res = ps.synthesize(poly, ps.Topology.line(2))
    assert res.metrics.cnot_count == 0
    u = verify.circuit_unitary(res.circuit)
    expected = verify.gadget_unitary(poly.gadgets[0])
    assert verify.equivalent(expected, u, res.permutation.mapping, 1e-12)


def test_zero_leg_gadget_dropped_but_recorded():
    poly = poly_of((0.4, "II"), (0.2, "ZI"))
    res = ps.synthesize(poly, ps.Topology.line(2))
    assert sorted(res.emitted_order) == [0, 1]
    assert check_result(poly, res)


def test_worked_example_grouping_and_equivalence():
    poly = poly_of((0.3, "IIZZ"), (0.5, "YXZX"), (0.7, "IIYZ"), (0.9, "YXZI"))
    res = ps.synthesize(poly, ps.Topology.line(4))
    pos = {g: i for i, g in enumerate(res.emitted_order)}
    assert abs(pos[0] - pos[2]) == 1
    assert abs(pos[1] - pos[3]) == 1
    assert check_result(poly, res)


def test_random_end_to_end_equivalence(rng):
    for trial in range(30):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(1, 21))
        poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 40))))
        topo = [ps.Topology.complete(q), ps.Topology.line(q)][trial % 2]
        res = ps.synthesize(poly, topo)
        assert sorted(res.emitted_order) == list(range(n))
        assert ps.conforms(res.circuit, topo)
        assert check_result(poly, res)


def test_commuting_sets_mode_preserves_original_product(rng):
    for trial in range(12):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(2, 14))
        poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 40))))
        res = ps.synthesize(poly, ps.Topology.line(q),
                            ps.SynthConfig(mode="commuting-sets"))
        assert check_result(poly, res)
        u_orig = verify.polynomial_unitary(poly)
        u_perm = verify.polynomial_unitary(poly, res.emitted_order)
        assert np.allclose(u_orig, u_perm, atol=1e-9)


def test_commuting_sets_order_within_sets():
    # all-Z polynomial: one commuting set
    poly = poly_of((0.1, "ZZ"), (0.2, "ZI"), (0.3, "IZ"))
    assert ps.partition_commuting_sets(poly) == [[0, 1, 2]]
    # alternating anticommuting X,Z,X,Z on one qubit: all singletons
    poly2 = poly_of((0.1, "X"), (0.2, "Z"), (0.3, "X"), (0.4, "Z"))
    assert ps.partition_commuting_sets(poly2) == [[0], [1], [2], [3]]
    # empty polynomial
    assert ps.partition_commuting_sets(ps.PauliPolynomial(2)) == []


def test_commuting_sets_reordering_is_sound(rng):
    for _ in range(20):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 12))
        poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 40))))
        sets = ps.partition_commuting_sets(poly)
        flat = [i for gs in sets for i in gs]
        assert sorted(flat) == list(range(n))
        # members of one set commute pairwise, and any pair whose relative
        # order flips across set boundaries must commute
        set_of = {i: s for s, gs in enumerate(sets) for i in gs}
        for gs in sets:
            for a in gs:
                for b in gs:
                    assert ps.commutes(poly.gadgets[a], poly.gadgets[b])
        for i in range(n):
            for j in range(i):
                if set_of[i] < set_of[j]:
                    assert ps.commutes(poly.gadgets[i], poly.gadgets[j])


def test_identity_column_gets_no_recursion_gates():
    # qubit 2 is I in every gadget: the recursion never touches it
    poly = poly_of((0.1, "XZIY"), (0.2, "ZYIX"), (0.3, "YXIZ"))
    res = ps.synthesize(poly, ps.Topology.complete(4))
    recursion = res.circuit.gates[:res.recursion_gate_count]
    assert all(2 not in g.qubits for g in recursion)
    assert check_result(poly, res)


def test_determinism():
    poly = ps.random_polynomial(ps.RandomSpec(5, 30, seed=12345))
    topo = ps.Topology.grid(1, 5)
    a = ps.synthesize(poly, topo)
    b = ps.synthesize(poly, topo)
    assert a.circuit == b.circuit
    assert a.emitted_order == b.emitted_order
    assert a.permutation == b.permutation


def test_qubit_count_mismatch_raises():
    poly = poly_of((0.1, "ZZ"),)
    with pytest.raises(ValueError, match="qubits"):
        ps.synthesize(poly, ps.Topology.line(3))
    with pytest.raises(ValueError, match="qubits"):
        ps.naive_synthesize(poly, ps.Topology.line(3))


def test_no_permutation_mode_yields_identity(rng):
    for _ in range(8):
        poly = ps.random_polynomial(ps.RandomSpec(4, 10, seed=int(rng.integers(1 << 30))))
        res = ps.synthesize(poly, ps.Topology.line(4),
                            ps.SynthConfig(allow_permutation=False))
        assert res.permutation.is_identity
        assert check_result(poly, res)


def test_naive_single_zz_two_cnots():
    poly = poly_of((0.4, "ZZ"),)
    res = ps.naive_synthesize(poly, ps.Topology.line(2))
    assert res.metrics.cnot_count == 2
    assert check_result(poly, res)


def test_naive_single_leg_no_cnots():
    poly = poly_of((0.4, "IZ"),)
    res = ps.naive_synthesize(poly, ps.Topology.line(2))
    assert res.metrics.cnot_count == 0


def naive_expected_cnots(poly, topo):
    """Structural recount: per gadget, one CNOT per tree edge plus one extra
    per fill of an empty intermediate node, each way."""
    total = 0
    for g in poly.gadgets:
        legs = [i for i, p in enumerate(g.string.letters) if p != ps.Pauli.I]
        if not legs:
            continue
        tree = topo.steiner_tree(set(legs), set(range(topo.num_qubits)))
        carrying = set(legs)
        one_way = 0
        for child, parent in tree_postorder(tree, legs[0]):
            if child not in carrying:
                continue
            if parent not in carrying:
                one_way += 1
                carrying.add(parent)
            one_way += 1
            carrying.discard(child)
        total += 2 * one_way
    return total


def test_naive_structural_cnot_count(rng):
    for trial in range(10):
        q = int(rng.integers(2, 7))
        poly = ps.random_polynomial(ps.RandomSpec(q, int(rng.integers(1, 15)),
                                                  seed=int(rng.integers(1 << 30))))
        topo = [ps.Topology.complete(q), ps.Topology.line(q)][trial % 2]
        res = ps.naive_synthesize(poly, topo)
        assert res.metrics.cnot_count == naive_expected_cnots(poly, topo)
        # on complete graphs every tree node is a leg: exactly 2*(edges)
        if trial % 2 == 0:
            expected = 2 * sum(
                max(len(g.string.legs()) - 1, 0) for g in poly.gadgets)
            assert res.metrics.cnot_count == expected


def test_naive_identity_order_and_conformance(rng):
    poly = ps.random_polynomial(ps.RandomSpec(4, 8, seed=77))
    topo = ps.Topology.cycle(4)
    res = ps.naive_synthesize(poly, topo)
    assert res.emitted_order == list(range(8))
    assert ps.conforms(res.circuit, topo)
    assert res.permutation.is_identity
    assert check_result(poly, res)


def test_cnot_budget_moderate_suite(rng):
    for spec in ("line:8", "grid:2x4", "cycle:8"):
        topo = ps.Topology.from_spec(spec)
        q = topo.num_qubits
        for n in (20, 60):
            poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=ps.instance_seed(2, q, n)))
            res = ps.synthesize(poly, topo)
            assert res.metrics.cnot_count <= 6 * (n * q + q * q)


def test_synth_config_validation():
    for bad_k in (0, -1, "3", 2.5, True, None):
        with pytest.raises(ValueError):
            ps.SynthConfig(k=bad_k)
    assert ps.SynthConfig(k=1).k == 1
    with pytest.raises(ValueError):
        ps.SynthConfig(mode="nope")
    assert ps.SynthConfig(mode="commuting_sets").mode == "commuting-sets"


def test_debug_invariant_mode(monkeypatch):
    monkeypatch.setenv("PAULISYNTH_DEBUG", "1")
    poly = ps.random_polynomial(ps.RandomSpec(3, 6, seed=9))
    res = ps.synthesize(poly, ps.Topology.line(3))
    assert check_result(poly, res)
    for spec, seed in (("cycle:4", 4), ("grid:2x2", 5)):
        topo = ps.Topology.from_spec(spec)
        poly = ps.random_polynomial(ps.RandomSpec(4, 12, seed=seed))
        for mode in ("arbitrary", "commuting-sets"):
            for perm in (True, False):
                cfg = ps.SynthConfig(mode=mode, allow_permutation=perm)
                assert check_result(poly, ps.synthesize(poly, topo, cfg))
