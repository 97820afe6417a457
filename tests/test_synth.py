import copy
import sys

import numpy as np
import pytest

import paulisynth as ps
from paulisynth import verify
from paulisynth.bench import check_result
from paulisynth.paulis import PauliColumns
from paulisynth import synth
from paulisynth.synth import (_by_cost, _State, _check_invariant, _lone_gadget, _split,
                              column_cost, diagonalize_qubit, disconnect, pick_neighbor,
                              pick_pivot)
from paulisynth.topology import tree_postorder

from conftest import (dense_conjugate, heavy_hex_topology, is_connected,
                      random_connected_topology, star_topology)
from recursion_ref import greedy_sets, reference_recursion


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
        costs = [column_cost(block[:, c], k) for c in range(m)]
        assert len(costs) == m
        for c in range(m):
            text = "".join(letters[x] for x in block[:, c])
            assert costs[c] == cost_oracle(text, k), (block, k, c)


def _state(poly, topo, cfg=None):
    return _State(poly, topo, cfg or ps.SynthConfig())


def flip_bit(state, i, part, qubit=0):
    """Corrupt gadget i's ``"x"`` or ``"z"`` bit on ``qubit``, or its ``"sign"``."""
    if part == "sign":
        state.signs ^= 1 << i
    else:
        getattr(state, part)[qubit] ^= 1 << i


def _mask(qubits):
    """Bitmask of a set of qubits or gadgets."""
    return sum(1 << i for i in qubits)


def test_emit_clifford_matches_conjugate_by():
    # The gadget store against dense conjugation g P g^: one gadget per letter
    # (1q kinds) or per letter pair (cx), signs folded into the angles.
    for kind in ("h", "s", "sdg", "v", "vdg"):
        st = _state(poly_of(*((0.25, p.name) for p in ps.Pauli)), ps.Topology.line(1))
        st.emit_clifford(ps.Gate(kind, (0,)))
        for i, p in enumerate(ps.Pauli):
            (res,), flip = dense_conjugate(ps.Gate(kind, (0,)), (p,))
            assert (st.letter(i, 0), st.angle(i)) == (res, -0.25 if flip else 0.25)
    pairs = [(pc, pt) for pc in ps.Pauli for pt in ps.Pauli]
    # Control on qubit 1, so the pair is written target first.
    st = _state(poly_of(*((0.25, pt.name + pc.name) for pc, pt in pairs)),
                ps.Topology.line(2))
    st.emit_clifford(ps.cx(1, 0))
    for i, (pc, pt) in enumerate(pairs):
        (rc, rt), flip = dense_conjugate(ps.cx(0, 1), (pc, pt))
        assert (st.letter(i, 1), st.letter(i, 0)) == (rc, rt), (pc.name, pt.name)
        assert st.angle(i) == (-0.25 if flip else 0.25), (pc.name, pt.name)


def test_pick_pivot_prefers_all_identity_column():
    poly = poly_of((0.1, "XYZI"), (0.2, "ZXYI"), (0.3, "YZXI"))
    st = _state(poly, ps.Topology.complete(4))
    assert pick_pivot(st, [0, 1, 2], 0b111, 0b1111) == 3


def test_pick_pivot_excludes_cut_vertices():
    # qubit 1 is all-I (by far the best score) but cutting on line(3);
    # the tie between ends breaks to the lowest index
    poly = poly_of((0.1, "XIX"), (0.2, "ZIZ"))
    st = _state(poly, ps.Topology.line(3))
    assert pick_pivot(st, [0, 1], 0b11, 0b111) == 0
    st2 = _state(poly, ps.Topology.complete(3))
    assert pick_pivot(st2, [0, 1], 0b11, 0b111) == 1


def test_pick_pivot_single_qubit():
    poly = poly_of((0.1, "IZ"),)
    st = _state(poly, ps.Topology.line(2))
    assert pick_pivot(st, [0], 0b1, 0b10) == 1


def test_pick_neighbor_forced_on_line():
    poly = poly_of((0.1, "ZXY"),)
    st = _state(poly, ps.Topology.line(3))
    assert pick_neighbor(st, 0, [0], 0b1, 0b111) == 1


def test_pick_neighbor_maximizes_cost():
    # neighbor candidates 1 and 2 of pivot 0 on a complete graph; qubit 2
    # carries the all-I column which scores k=10 higher
    poly = poly_of((0.1, "ZXI"), (0.2, "ZXI"))
    st = _state(poly, ps.Topology.complete(3))
    assert pick_neighbor(st, 0, [0, 1], 0b11, 0b111) == 2


def test_pick_neighbor_single_candidate_even_all_identity():
    poly = poly_of((0.1, "ZI"),)
    st = _state(poly, ps.Topology.line(2))
    assert pick_neighbor(st, 0, [0], 0b1, 0b11) == 1


def _brute_non_cutting(topo, qb, active):
    """Independent flood fill over ``topo.edges`` without ``qb``."""
    return is_connected(topo, set(active) - {qb})


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


def _random_topology(kind, q, rng):
    """Line, cycle, small grid or random connected graph, by ``kind`` 0-3."""
    if kind == 0:
        return ps.Topology.line(q)
    if kind == 1:
        return ps.Topology.cycle(q)
    if kind == 2:
        return ps.Topology.grid(int(rng.integers(1, 4)), int(rng.integers(2, 4)))
    return random_connected_topology(q, rng)


def test_pick_pivot_and_neighbor_match_brute_force(rng):
    letters = "IXYZ"

    def check(topo, rows, g, active, k, tag):
        poly = poly_of(*((0.1, "".join(letters[x] for x in row)) for row in rows))
        st = _state(poly, topo, ps.SynthConfig(k=k))

        def column_text(qb, group=g):
            return "".join(letters[st.letter(i, qb)] for i in group)

        free = [qb for qb in active if _brute_non_cutting(topo, qb, active)]
        pivot = pick_pivot(st, g, _mask(g), _mask(active))
        assert pivot == _brute_best(free, column_text, k), (tag, sorted(active))
        near = [w for w in active if topo.has_edge(pivot, w)]
        if near:
            assert pick_neighbor(st, pivot, g, _mask(g), _mask(active)) == \
                _brute_best(near, column_text, k), (tag, pivot)
            # Over a letter group: the gadgets of g in a sub-mask, in frame order.
            group = g[::2]
            assert pick_neighbor(st, pivot, g, _mask(group), _mask(active)) == \
                _brute_best(near, lambda qb: column_text(qb, group), k), (tag, pivot)
        return pivot

    for trial in range(120):
        topo = _random_topology(trial % 4, int(rng.integers(2, 10)), rng)
        q = topo.num_qubits
        n = int(rng.integers(1, 8))
        rows = rng.choice(4, size=(n, q), p=[0.5, 0.2, 0.15, 0.15])
        if trial % 2:
            # Forced ties: many columns repeat one column.
            rows[:, rng.random(q) < 0.6] = rows[:, [int(rng.integers(q))]]
        k = int(rng.integers(1, 21))
        g = [int(i) for i in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
        check(topo, rows, g, _random_connected_subset(topo, rng), k, trial)

    # One-gadget frames: every leg-free column costs k, every touched one 0.
    for trial in range(80):
        topo = _random_topology(trial % 4, int(rng.integers(2, 10)), rng)
        q = topo.num_qubits
        rows = rng.choice(4, size=(3, q), p=[0.4, 0.2, 0.2, 0.2])
        active = _random_connected_subset(topo, rng)
        if trial % 2:  # the gadget touches every active qubit
            rows[1, sorted(active)] = rng.choice([1, 2, 3], size=len(active))
        check(topo, rows, [1], active, int(rng.integers(1, 21)), ("one", trial))

    # Every leg-free column is a cut vertex: a path of free qubits between
    # two legs, as the whole line or as an induced path of a grid.
    paths = [(ps.Topology.line(q), list(range(q))) for q in range(3, 9)]
    grid = ps.Topology.grid(3, 4)
    paths += [(grid, [0, 1, 2, 3, 7, 11]), (grid, [8, 4, 0, 1, 2, 6, 10]),
              (grid, [11, 7, 3, 2, 1, 0])]
    for trial in range(60):
        topo, path = paths[trial % len(paths)]
        n = int(rng.integers(1, 5))
        rows = np.zeros((n, topo.num_qubits), dtype=int)
        for end in (path[0], path[-1]):
            rows[:, end] = rng.choice(4, size=n, p=[0.4, 0.2, 0.2, 0.2])
            rows[int(rng.integers(n)), end] = int(rng.integers(1, 4))
        if trial % 3 == 2:  # some legs on the inner qubits too
            inner = rng.choice(path[1:-1], size=int(rng.integers(1, len(path) - 1)))
            rows[int(rng.integers(n)), inner] = int(rng.integers(1, 4))
        g = [int(i) for i in rng.permutation(n)]
        pivot = check(topo, rows, g, frozenset(path), int(rng.integers(1, 21)),
                      ("path", trial))
        assert pivot in (path[0], path[-1])

    # Frames of 8-40 gadgets at k = 1-3, where the cost ranges of different
    # leg counts overlap, so the lazy order must cost columns to decide.
    for trial in range(90):
        topo = _random_topology(trial % 4, int(rng.integers(2, 10)), rng)
        q = topo.num_qubits
        n = int(rng.integers(8, 41))
        rows = rng.choice(4, size=(n, q), p=[0.5, 0.2, 0.15, 0.15])
        rows[:, rng.random(q) < 0.2] = 0  # leg-free columns
        if trial % 2:
            rows[:, rng.random(q) < 0.5] = rows[:, [int(rng.integers(q))]]
        g = [int(i) for i in rng.permutation(n)[:int(rng.integers(2, n + 1))]]
        check(topo, rows, g, _random_connected_subset(topo, rng), 1 + trial % 3,
              ("large", trial))


def _random_frame(rng):
    """Random ``(g, cands, keys)``: gadgets in frame order and candidate
    columns in index order with their leg masks, some of them empty or
    repeated, over 1-40 gadgets."""
    n = int(rng.integers(1, 41))
    g = [int(i) for i in rng.permutation(n + 5)[:n]]
    full = sum(1 << i for i in g)
    keys = []
    for _ in range(int(rng.integers(1, 13))):
        draw = rng.random()
        if draw < 0.15:
            keys.append(0)
        elif draw < 0.35 and keys:
            keys.append(keys[int(rng.integers(len(keys)))])
        else:  # legs on a random share of the gadgets
            dense = rng.random()
            keys.append(sum(1 << i for i in g if rng.random() < dense) & full)
    cands = sorted(int(j) for j in rng.permutation(64)[:len(keys)])
    return g, cands, keys


def _column_text(g, key):
    return "".join("X" if key >> i & 1 else "I" for i in g)


def test_lazy_cost_order_is_a_stable_sort(rng, monkeypatch):
    calls = []

    def counted(column, k):
        calls.append(bytes(column))
        return column_cost(column, k)

    monkeypatch.setattr(synth, "column_cost", counted)
    for trial in range(600):
        k = (1, 2, 3)[trial % 3] if trial < 450 else int(rng.integers(4, 21))
        g, cands, keys = _random_frame(rng)
        cost = {j: cost_oracle(_column_text(g, key), k) for j, key in zip(cands, keys)}
        calls.clear()
        assert list(_by_cost(g, cands, keys, k)) == sorted(cands, key=lambda j: -cost[j]), \
            (trial, k)
        # Each distinct mask is costed at most once, and only one with a
        # range wider than one value (three or more legs).
        assert len(calls) == len(set(calls))
        assert all(sum(column) >= 3 for column in calls)


def test_every_decisive_cost_comes_from_column_cost(rng, monkeypatch):
    # A column_cost patched to another cost inside the proved range
    # [k*(n - m), k*(n - m) + max(m - 2, 0)] must steer the order: the
    # order reads the module's column_cost, as the tracer wraps it.
    for trial in range(300):
        k = int(rng.integers(1, 4))
        g, cands, keys = _random_frame(rng)
        n, draws = len(g), {}

        def other(column, k, draws=draws, n=n):
            m = sum(column)
            if column not in draws:
                draws[column] = k * (n - m) + int(rng.integers(max(m - 2, 0) + 1))
            return draws[column]

        monkeypatch.setattr(synth, "column_cost", other)
        order = list(_by_cost(g, cands, keys, k))
        monkeypatch.undo()
        cost = {j: other(bytes([key >> i & 1 for i in g]), k) for j, key in zip(cands, keys)}
        assert order == sorted(cands, key=lambda j: -cost[j]), trial


def test_unique_fewest_leg_column_is_picked_without_costing(monkeypatch):
    # Five gadgets on a complete device, every column touched.  Qubit 2 has
    # the fewest legs, the others four in one or two runs.  Its range alone
    # reaches the top unless it has three legs and k <= 2: then a four-leg
    # column may spread 2 >= k*(4 - 3), so every candidate is costed, each
    # distinct mask once (qubits 1 and 4 share theirs).
    calls = []

    def counted(column, k):
        calls.append(bytes(column))
        return column_cost(column, k)

    monkeypatch.setattr(synth, "column_cost", counted)
    for k, fewest, costed in [(1, "IIZII", (0, 0)), (2, "IIZII", (0, 0)),
                              (10, "IIZII", (0, 0)), (3, "XIZXI", (0, 0)),
                              (10, "XIZXI", (0, 0)), (1, "XIZXI", (4, 3)),
                              (2, "XIZXI", (4, 3))]:
        columns = ["XIZYX", "ZXZIY", fewest, "ZYXZI", "YZXIZ"]
        poly = poly_of(*((0.1, "".join(col[i] for col in columns)) for i in range(5)))
        st = _state(poly, ps.Topology.complete(5), ps.SynthConfig(k=k))
        calls.clear()
        best = _brute_best(range(5), columns.__getitem__, k)
        assert best == 2 or costed != (0, 0)
        assert pick_pivot(st, [0, 1, 2, 3, 4], 0b11111, 0b11111) == best
        pivot_calls = len(calls)
        calls.clear()
        assert pick_neighbor(st, 0, [0, 1, 2, 3, 4], 0b11111, 0b11111) == \
            _brute_best(range(1, 5), columns.__getitem__, k)
        assert (pivot_calls, len(calls)) == costed, (k, fewest)


_DENSE = {}


def _dense(kind, letters):
    """``dense_conjugate`` by a gate of ``kind`` on its own wires, memoized."""
    if (kind, letters) not in _DENSE:
        wires = (0, 1) if kind == "cx" else (0,)
        _DENSE[kind, letters] = dense_conjugate(ps.Gate(kind, wires), letters)
    return _DENSE[kind, letters]


def _lone_gadget_ref(topo, rows, i, angle, pivot, active):
    """List reference of the one-gadget rule on gadget i of ``rows`` (one
    list of letters per gadget), with no pivot if ``pivot`` < 0.  Gates move
    every row through ``dense_conjugate``; the cut test is
    ``_brute_non_cutting``.  Returns the gates, the rows and the sign flips."""
    I, X, Y, Z = ps.Pauli.I, ps.Pauli.X, ps.Pauli.Y, ps.Pauli.Z
    rows, active = [list(row) for row in rows], set(active)
    flips, gates = [False] * len(rows), []

    def emit(gate):
        gates.append(gate)
        for r, row in enumerate(rows):
            letters, flip = _dense(gate.kind, tuple(row[qb] for qb in gate.qubits))
            for qb, p in zip(gate.qubits, letters):
                row[qb] = p
            flips[r] ^= flip

    def diagonalize(qb):  # h X h = Z, v Y v^ = Z
        if rows[i][qb] in (X, Y):
            emit((ps.h if rows[i][qb] == X else ps.v)(qb))
        assert rows[i][qb] == Z

    while True:
        legs = [qb for qb in sorted(active) if rows[i][qb] != I]
        if len(legs) < 2:
            if legs:
                diagonalize(legs[0])
                gates.append(ps.rz(-angle if flips[i] else angle, legs[0]))
            return gates, rows, flips
        if pivot < 0:
            free = [qb for qb in sorted(active) if _brute_non_cutting(topo, qb, active)]
            pivot = ([qb for qb in free if rows[i][qb] == I] or free)[0]
        if rows[i][pivot] != I:
            diagonalize(pivot)
            near = [w for w in topo.neighbors(pivot) if w in active]
            neighbor = ([w for w in near if rows[i][w] == I] or near)[0]
            letter = rows[i][neighbor]
            if letter == I:
                emit(ps.cx(neighbor, pivot))
            else:  # the first pair rule, in tie order, that matches the letter
                for pair, before in (((Z, Y), None), ((Z, X), ps.s), ((X, Y), ps.h)):
                    if letter in pair:
                        break
                if before:
                    emit(before(neighbor))
            emit(ps.cx(pivot, neighbor))
            assert rows[i][pivot] == I
        active.discard(pivot)
        pivot = -1


def test_lone_gadget_matches_list_reference(rng):
    # A one-gadget frame run by _lone_gadget, from its pivot and with none,
    # against the list reference, whose Cliffords are replayed through a
    # second state built from the same polynomial.
    letters = "IXYZ"
    for trial in range(240):
        topo = _random_topology(trial % 4, int(rng.integers(2, 10)), rng)
        q = topo.num_qubits
        active = _random_connected_subset(topo, rng)
        while len(active) < 2:
            active = _random_connected_subset(topo, rng)
        free = sorted(qb for qb in active if _brute_non_cutting(topo, qb, active))
        pivot = int(rng.choice(free))
        others = sorted(active - {pivot})
        legs = {pivot, *rng.choice(others, size=int(rng.integers(1, len(others) + 1)),
                                   replace=False).tolist()}
        n = int(rng.integers(1, 5))
        rows = rng.choice(4, size=(n, q), p=[0.4, 0.2, 0.2, 0.2])
        i = int(rng.integers(n))
        rows[i] = [int(rng.integers(1, 4)) if qb in legs else 0 for qb in range(q)]
        poly = poly_of(*((0.1 * (r + 1), "".join(letters[x] for x in row))
                         for r, row in enumerate(rows)))
        cfg = ps.SynthConfig(k=int(rng.integers(1, 21)))
        paulis = [[ps.Pauli[letters[x]] for x in row] for row in rows]
        for start in (pivot, -1):
            lone, replay = _state(poly, topo, cfg), _state(poly, topo, cfg)
            _lone_gadget(lone, i, start, _mask(active))
            gates, ref_rows, flips = _lone_gadget_ref(topo, paulis, i, 0.1 * (i + 1), start,
                                                      active)
            for gate in gates:
                if gate.kind != "rz":
                    replay.emit_clifford(gate)
            tag = (trial, start, topo.edges, sorted(active), rows.tolist())
            assert lone.emitted == [i], tag
            assert lone.gates == gates, tag
            assert (lone.signs, lone.x, lone.z) == (replay.signs, replay.x, replay.z), tag
            assert lone.tableau == replay.tableau, tag
            assert [[lone.letter(r, qb) for qb in range(q)] for r in range(n)] == ref_rows, tag
            assert lone.signs == _mask(r for r in range(n) if flips[r]), tag


@pytest.mark.parametrize("neighbor_letter", "IXYZ")
@pytest.mark.parametrize("pivot_letter", "XYZ")
def test_lone_gadget_round_matches_diagonalize_and_disconnect(monkeypatch, pivot_letter,
                                                              neighbor_letter):
    # _lone_gadget's letter table and the group steps on a one-gadget mask
    # write the same rule twice.  Gadget 0 has its pivot 0 and neighbour 1 on
    # line:3, and a leg on 2 so that it keeps two legs; four more live
    # gadgets see every gate.  The round is read at its debug check.
    others = ["XYZ", "ZZI", "YIX", "IXY"]
    poly = poly_of((0.3, pivot_letter + neighbor_letter + "Z"),
                   *((0.1 * (r + 1), text) for r, text in enumerate(others)))
    lone, ref = _state(poly, ps.Topology.line(3)), _state(poly, ps.Topology.line(3))
    rounds = []
    monkeypatch.setattr(synth, "_check_invariant", lambda st: rounds.append(
        (list(st.gates), list(st.x), list(st.z), st.signs, copy.deepcopy(st.tableau))))
    lone.debug = True
    _lone_gadget(lone, 0, 0, 0b111)
    diagonalize_qubit(ref, 0b1, 0)
    disconnect(ref, 0, 1, 0b1)
    assert ref.gates and rounds[0] == (ref.gates, ref.x, ref.z, ref.signs, ref.tableau)


def test_debug_invariant_catches_a_letter_corrupted_in_a_one_gadget_frame(monkeypatch):
    # One-gadget frames call neither disconnect nor diagonalize_qubit.  A bit
    # of another live gadget, flipped once right after a CNOT that
    # _lone_gadget emits, is caught by the debug check closing that round.
    monkeypatch.setenv("PAULISYNTH_DEBUG", "1")
    emit, lone = synth._State.emit_clifford, synth._lone_gadget
    inside, corrupted = [], []

    def tracked(state, i, pivot, act):
        inside.append(i)
        try:
            return lone(state, i, pivot, act)
        finally:
            inside.pop()

    def corrupting(state, gate):
        emit(state, gate)
        live = [j for j in range(len(state.poly)) if j not in state.emitted + inside]
        if inside and gate.kind == "cx" and live and not corrupted:
            corrupted.append(live[-1])
            flip_bit(state, live[-1], "z", gate.qubits[1])

    monkeypatch.setattr(synth, "_lone_gadget", tracked)
    monkeypatch.setattr(synth._State, "emit_clifford", corrupting)
    poly = ps.random_polynomial(ps.RandomSpec(6, 8, seed=3))
    with pytest.raises(AssertionError, match="invariant") as info:
        ps.synthesize(poly, ps.Topology.from_spec("grid:2x3"))
    assert corrupted
    assert "_lone_gadget" in [entry.name for entry in info.traceback]


def test_recursion_matches_list_reference():
    # The recursion's gates and emitted order against the list reference,
    # on the devices where cut vertices decide the picks: random trees,
    # stars, sparse and dense graphs, and small heavy hex, each in both modes.
    rng = np.random.default_rng(19)
    for case in range(150):
        q, kind = int(rng.integers(2, 17)), case % 5
        if kind == 1:
            topo = star_topology(q, int(rng.integers(q)))
        elif kind == 4:
            topo = heavy_hex_topology(2, 3) if case % 10 == 4 else ps.Topology.complete(q)
        else:
            topo = random_connected_topology(q, rng, (0.0, None, 0.1, 0.6)[kind])
        n = int(rng.integers(1, 21))
        poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, n,
                                                  seed=int(rng.integers(1 << 40))))
        cfg = ps.SynthConfig(k=int(rng.integers(1, 21)),
                             mode=("arbitrary", "commuting-sets")[case // 10 % 2])
        res = ps.synthesize(poly, topo, cfg)
        gates, order = reference_recursion(poly, topo, cfg)
        tag = (case, sorted(topo.edges), n, cfg)
        assert list(res.circuit.gates[:res.recursion_gate_count]) == gates, tag
        assert res.emitted_order == order, tag


def test_recursion_matches_list_reference_where_group_and_frame_costs_disagree(monkeypatch):
    # Many gadgets on 3-6 qubits at k = 1-3: pivot frames hold several letter
    # groups, and the pivot's neighbours rank differently over the group than
    # over the whole frame (counted below), so a neighbour costed over the
    # wrong gadgets changes the gates.  Each group is one contiguous run of
    # its frame (``_split`` orders a frame by pivot letter, and no gate acts
    # on the pivot while the frame waits; asserted below), so the group's
    # legs cost the same in the frame's order as in the group's.
    disagree = []
    pick = synth.pick_neighbor

    def counted(state, pivot, g, gm, act):
        at = [p for p, i in enumerate(g) if gm >> i & 1]
        assert at == list(range(at[0], at[-1] + 1)), (g, bin(gm))
        chosen = pick(state, pivot, g, gm, act)
        disagree.append(chosen != pick(state, pivot, g, sum(1 << i for i in g), act))
        return chosen

    monkeypatch.setattr(synth, "pick_neighbor", counted)
    rng = np.random.default_rng(33)
    cases = []
    for case in range(60):
        q, kind = int(rng.integers(3, 7)), case % 3
        topo = (ps.Topology.complete(q), star_topology(q, int(rng.integers(q))),
                random_connected_topology(q, rng, 0.5))[kind]
        poly = ps.random_polynomial(ps.RandomSpec(q, int(rng.integers(4, 25)),
                                                  seed=int(rng.integers(1 << 40))))
        mode = ("arbitrary", "commuting-sets")[case % 2]
        cases.append((poly, topo, int(rng.integers(1, 4)), mode))
    # At k = 1 qubit 0's column (3 legs in runs of 1 and 2) costs 1 + 1, as
    # qubit 1's (2 legs) does: the lazy cost order must cost qubit 0 to rank
    # it first, on its lower index (the in-range test at m - 2 reaches it).
    tie = ps.PauliPolynomial(3, tuple(ps.PauliGadget(0.1, ps.PauliString.from_str(t))
                                      for t in ("ZZZ", "IZZ", "ZIZ", "ZIZ")))
    cases.append((tie, ps.Topology.complete(3), 1, "arbitrary"))
    for case, (poly, topo, k, mode) in enumerate(cases):
        cfg = ps.SynthConfig(k=k, mode=mode)
        res = ps.synthesize(poly, topo, cfg)
        gates, order = reference_recursion(poly, topo, cfg)
        tag = (case, sorted(topo.edges), cfg)
        assert list(res.circuit.gates[:res.recursion_gate_count]) == gates, tag
        assert res.emitted_order == order, tag
    assert sum(disagree) >= 10, (sum(disagree), len(disagree))


def test_debug_invariant_closes_both_frame_kinds_on_cut_vertex_devices(monkeypatch):
    # On trees, stars and heavy hex, where cut vertices decide the picks, the
    # debug check closes every frame the loop pops, id frames (pivot -1) and
    # pivot frames alike, and the gates still match the list reference.
    monkeypatch.setenv("PAULISYNTH_DEBUG", "1")
    check, kinds = synth._check_invariant, set()

    def counted(state):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_run_recursion":
            kinds.add("id" if caller.f_locals["pivot"] < 0 else "pivot")
        return check(state)

    monkeypatch.setattr(synth, "_check_invariant", counted)
    rng = np.random.default_rng(35)
    for case in range(24):
        q = int(rng.integers(2, 13))
        topo = (random_connected_topology(q, rng, 0.0), star_topology(q, int(rng.integers(q))),
                heavy_hex_topology(2, 3))[case % 3]
        poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, int(rng.integers(2, 21)),
                                                  seed=int(rng.integers(1 << 40))))
        cfg = ps.SynthConfig(k=int(rng.integers(1, 21)),
                             mode=("arbitrary", "commuting-sets")[case // 3 % 2])
        res = ps.synthesize(poly, topo, cfg)
        gates, order = reference_recursion(poly, topo, cfg)
        tag = (case, sorted(topo.edges), cfg)
        assert list(res.circuit.gates[:res.recursion_gate_count]) == gates, tag
        assert res.emitted_order == order, tag
    assert kinds == {"id", "pivot"}, kinds


def test_recursion_runs_within_a_few_dozen_interpreter_frames():
    # The frames sit on an explicit stack, so a deep instance (32 pivots on
    # a line, 400 gadgets) synthesizes with the interpreter's recursion limit
    # a few dozen frames above the caller's depth, in both modes.
    topo = ps.Topology.line(32)
    poly = ps.random_polynomial(ps.RandomSpec(32, 400, seed=5))
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        results = [ps.synthesize(poly, topo, ps.SynthConfig(mode=mode))
                   for mode in ("arbitrary", "commuting-sets")]
    finally:
        sys.setrecursionlimit(limit)
    for res in results:
        assert check_result(poly, res)


def test_cut_kernel_gets_a_connected_active_set_holding_its_qubit(monkeypatch):
    # Topology._non_cutting trusts its caller: its verdict holds only for a
    # connected active set that holds the qubit.  Every call made while
    # synthesizing must meet that and give the flood fill's verdict; both
    # _lone_gadget and pick_pivot make such calls.
    verdicts, callers = [], set()
    kernel = ps.Topology._non_cutting

    def checked(topo, q, act):
        callers.add(sys._getframe(1).f_code.co_name)
        members = {j for j in range(topo.num_qubits) if act >> j & 1}
        assert type(q) is int and type(act) is int and q in members, (q, bin(act))
        assert is_connected(topo, members), (sorted(topo.edges), sorted(members))
        verdict = kernel(topo, q, act)
        assert verdict == _brute_non_cutting(topo, q, members), (q, sorted(members))
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(ps.Topology, "_non_cutting", checked)
    rng = np.random.default_rng(34)
    topos = [heavy_hex_topology(2, 3), ps.Topology.grid(6, 6)]
    for q in (6, 9, 12, 15):
        topos += [random_connected_topology(q, rng, 0.0), star_topology(q, q // 2),
                  random_connected_topology(q, rng, 0.1)]
    for topo in topos:
        seed = int(rng.integers(1 << 40))
        poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, 30, seed=seed))
        for mode in ("arbitrary", "commuting-sets"):
            res = ps.synthesize(poly, topo, ps.SynthConfig(mode=mode))
            assert check_result(poly, res), (sorted(topo.edges), mode)
    assert True in verdicts and False in verdicts, len(verdicts)
    assert callers == {"_lone_gadget", "pick_pivot"}, callers


def test_pick_pivot_never_gets_a_lone_gadget(monkeypatch):
    # Every frame of one gadget runs in _lone_gadget, so pick_pivot only
    # ever sees frames of two or more gadgets.
    sizes, starts = [], []
    pick, lone = synth.pick_pivot, synth._lone_gadget

    def counted_pick(state, g, gm, act):
        sizes.append(len(g))
        return pick(state, g, gm, act)

    def counted_lone(state, i, pivot, act):
        starts.append(pivot)
        return lone(state, i, pivot, act)

    monkeypatch.setattr(synth, "pick_pivot", counted_pick)
    monkeypatch.setattr(synth, "_lone_gadget", counted_lone)
    rng = np.random.default_rng(30)
    topos = [ps.Topology.grid(3, 4), ps.Topology.line(9), ps.Topology.complete(6),
             random_connected_topology(12, rng, 0.0)]
    for topo in topos:
        poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, 40, seed=7))
        for mode in ("arbitrary", "commuting-sets"):
            sizes.clear()
            starts.clear()
            res = ps.synthesize(poly, topo, ps.SynthConfig(mode=mode))
            tag = (sorted(topo.edges), mode)
            assert check_result(poly, res), tag
            assert sizes and min(sizes) >= 2, tag
            assert len(starts) > 0, tag


def _partition_ref(state, g, qubit):
    """List reference of the frame split: the gadgets of ``g`` by their
    letter on ``qubit``, each group in frame order."""
    groups = {p: [] for p in ps.Pauli}
    for i in g:
        groups[state.letter(i, qubit)].append(i)
    return groups


def test_partition_on_qubit_worked_strings():
    poly = poly_of((0.1, "IIZZ"), (0.2, "YXZX"), (0.3, "IIYZ"), (0.4, "YXZI"))
    st = _state(poly, ps.Topology.line(4))
    parts = _partition_ref(st, [0, 1, 2, 3], 3)
    assert parts[ps.Pauli.I] == [3]
    assert parts[ps.Pauli.X] == [1]
    assert parts[ps.Pauli.Y] == []
    assert parts[ps.Pauli.Z] == [0, 2]
    # The split: X, then Y, then Z, with their mask; then I.
    assert _split(st, [0, 1, 2, 3], 0b1111, 3) == ([1, 0, 2], 0b0111, [3], 0b1000)


def test_partition_all_z_and_empty():
    poly = poly_of((0.1, "ZZ"), (0.2, "ZI"))
    st = _state(poly, ps.Topology.line(2))
    parts = _partition_ref(st, [0, 1], 0)
    assert parts[ps.Pauli.Z] == [0, 1]
    assert _partition_ref(st, [], 0) == {0: [], 1: [], 2: [], 3: []}
    assert _split(st, [0, 1], 0b11, 0) == ([0, 1], 0b11, [], 0)
    assert _split(st, [], 0, 0) == ([], 0, [], 0)


def test_split_matches_list_reference(rng):
    # Random frames in random order among gadgets outside the frame: the mask
    # split gives the reference's X+Y+Z and I lists, with their masks.
    paths = {"id child": 0, "one letter": 0, "ordered pass": 0}
    for trial in range(300):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 12))
        rows = rng.choice(4, size=(n, q), p=[0.4, 0.2, 0.2, 0.2])
        g = [int(i) for i in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
        pivot = int(rng.integers(q))
        if trial % 3 == 0:  # no frame gadget on the pivot
            rows[g, pivot] = 0
        elif trial % 3 == 1:  # one shared letter
            rows[g, pivot] = int(rng.integers(1, 4))
        poly = poly_of(*((0.1, "".join("IXYZ"[x] for x in row)) for row in rows))
        st = _state(poly, ps.Topology.line(q))
        parts = _partition_ref(st, g, pivot)
        rest = parts[ps.Pauli.X] + parts[ps.Pauli.Y] + parts[ps.Pauli.Z]
        tag = (trial, rows.tolist(), g, pivot)
        assert _split(st, g, _mask(g), pivot) == \
            (rest, _mask(rest), parts[ps.Pauli.I], _mask(parts[ps.Pauli.I])), tag
        if not rest:
            paths["id child"] += 1
        elif not parts[ps.Pauli.I] and rest in (parts[p] for p in ps.Pauli):
            paths["one letter"] += 1
        else:
            paths["ordered pass"] += 1
    assert min(paths.values()) >= 20, paths


def test_diagonalize_qubit_per_letter():
    poly = poly_of((0.1, "XZ"), (0.2, "XI"))
    st = _state(poly, ps.Topology.line(2))
    diagonalize_qubit(st, 0b11, 0)
    assert [g.kind for g in st.gates] == ["h"]
    assert st.letter(0, 0) == ps.Pauli.Z and st.letter(1, 0) == ps.Pauli.Z
    # Z group needs no gate
    st2 = _state(poly_of((0.1, "ZZ"),), ps.Topology.line(2))
    diagonalize_qubit(st2, 0b1, 0)
    assert st2.gates == []
    # mixed letters are rejected
    st3 = _state(poly_of((0.1, "XZ"), (0.2, "YI")), ps.Topology.line(2))
    with pytest.raises(ValueError):
        diagonalize_qubit(st3, 0b11, 0)


def test_diagonalize_y_records_flips_via_oracle():
    st = _state(poly_of((0.5, "YZ"), (0.3, "ZZ")), ps.Topology.line(2))
    diagonalize_qubit(st, 0b1, 0)
    assert [g.kind for g in st.gates] == ["v"]
    assert st.letter(0, 0) == ps.Pauli.Z
    # the Z-letter gadget turned into -Y under v conjugation
    assert st.letter(1, 0) == ps.Pauli.Y and st.angle(1) == -0.3


def test_disconnect_zz_zy_single_cnot():
    st = _state(poly_of((0.1, "ZZ"), (0.2, "ZY")), ps.Topology.line(2))
    disconnect(st, 0, 1, 0b11)
    assert [g.kind for g in st.gates] == ["cx"]
    assert st.letter(0, 0) == ps.Pauli.I and st.letter(1, 0) == ps.Pauli.I


def test_disconnect_zi_uses_two_cnots():
    st = _state(poly_of((0.7, "ZI"),), ps.Topology.line(2))
    disconnect(st, 0, 1, 0b1)
    assert [g.kind for g in st.gates] == ["cx", "cx"]
    assert st.letter(0, 0) == ps.Pauli.I and st.letter(0, 1) == ps.Pauli.Z
    # unitary check on 2 qubits: circuit + conjugated gadget + undo == original
    u = np.eye(4, dtype=complex)
    for g in st.gates:
        u = verify.circuit_unitary(ps.Circuit(2, (g,))) @ u
    conj = verify.gadget_unitary(gadget(st.angle(0), "IZ"))
    orig = verify.gadget_unitary(gadget(0.7, "ZI"))
    assert np.allclose(u.conj().T @ conj @ u, orig, atol=1e-12)


def test_disconnect_zx_rule_handles_both():
    st = _state(poly_of((0.1, "ZX"), (0.2, "ZZ")), ps.Topology.line(2))
    disconnect(st, 0, 1, 0b11)
    # Z/X matches both gadgets: one Clifford on the neighbor plus one CNOT
    assert [g.kind for g in st.gates] == ["s", "cx"]
    assert st.letter(0, 0) == ps.Pauli.I and st.letter(1, 0) == ps.Pauli.I
    # unitary check: undoing the emitted gates around the conjugated gadgets
    # reproduces the originals
    u = np.eye(4, dtype=complex)
    for g in st.gates:
        u = verify.circuit_unitary(ps.Circuit(2, (g,))) @ u
    for idx, orig_text in ((0, "ZX"), (1, "ZZ")):
        letters = "".join("IXYZ"[st.letter(idx, j)] for j in range(2))
        conj = verify.gadget_unitary(gadget(st.angle(idx), letters))
        orig = verify.gadget_unitary(gadget([0.1, 0.2][idx], orig_text))
        assert np.allclose(u.conj().T @ conj @ u, orig, atol=1e-12)


def test_disconnect_rule_tie_priority():
    # single ZX gadget: Z/X and X/Y both match one gadget; priority picks Z/X
    st = _state(poly_of((0.1, "ZX"),), ps.Topology.line(2))
    disconnect(st, 0, 1, 0b1)
    assert [g.kind for g in st.gates] == ["s", "cx"]
    # single ZZ gadget: Z/Y and Z/X tie; priority picks Z/Y (bare CNOT)
    st2 = _state(poly_of((0.1, "ZZ"),), ps.Topology.line(2))
    disconnect(st2, 0, 1, 0b1)
    assert [g.kind for g in st2.gates] == ["cx"]


def test_disconnect_requires_diagonal_pivot():
    st = _state(poly_of((0.1, "XZ"),), ps.Topology.line(2))
    with pytest.raises(ValueError):
        disconnect(st, 0, 1, 0b1)


def test_disconnect_requires_an_edge():
    st = _state(poly_of((0.1, "ZIZ"),), ps.Topology.line(3))
    for neighbor in (2, 7):
        with pytest.raises(ValueError, match=f"\\(0,{neighbor}\\) is not a topology edge"):
            disconnect(st, 0, neighbor, 0b1)
    assert not st.gates


def _partition_disconnect(state, pivot, neighbor, g):
    """Reference rule over the neighbor's letter groups: I-legged gadgets
    take two CNOTs; otherwise the largest of Z/Y, Z/X and X/Y (first in
    that order on ties) takes at most one Clifford plus one CNOT."""
    parts = _partition_ref(state, g, neighbor)
    if parts[ps.Pauli.I]:
        state.emit_clifford(ps.cx(neighbor, pivot))
        state.emit_clifford(ps.cx(pivot, neighbor))
        return "free"
    nz, nx, ny = (len(parts[p]) for p in (ps.Pauli.Z, ps.Pauli.X, ps.Pauli.Y))
    rule = max((("zy", nz + ny), ("zx", nz + nx), ("xy", nx + ny)), key=lambda kv: kv[1])[0]
    if rule == "zx":
        state.emit_clifford(ps.s(neighbor))
    elif rule == "xy":
        state.emit_clifford(ps.h(neighbor))
    state.emit_clifford(ps.cx(pivot, neighbor))
    ties = sorted((nz + ny, nz + nx, nx + ny))
    return rule + ("-tie" if ties[1] == ties[2] else "")


def test_disconnect_matches_partition_rule(rng):
    # Random frames with Z on the pivot and any letter on the neighbor, among
    # gadgets outside the frame: the mask rule emits the reference's gates.
    seen = {}
    for trial in range(400):
        q = int(rng.integers(2, 6))
        topo = random_connected_topology(q, rng, extra_edge_prob=0.3)
        pivot, neighbor = sorted(topo.edges)[int(rng.integers(len(topo.edges)))]
        if trial % 2:
            pivot, neighbor = neighbor, pivot
        frame_size = int(rng.integers(1, 13))
        others = int(rng.integers(0, 4))
        texts = []
        for i in range(frame_size + others):
            letters = ["IXYZ"[int(c)] for c in rng.integers(0, 4, size=q)]
            if i < frame_size:
                letters[pivot] = "Z"
                # Mostly legged neighbors, so the three pair rules all run.
                if trial % 4 and letters[neighbor] == "I":
                    letters[neighbor] = "XYZ"[int(rng.integers(3))]
            texts.append((0.1 * (i + 1), "".join(letters)))
        order = rng.permutation(len(texts))
        poly = poly_of(*(texts[j] for j in order))
        g = sorted(int(k) for k in np.flatnonzero(order < frame_size))
        mask, ref = _state(poly, topo), _state(poly, topo)
        disconnect(mask, pivot, neighbor, sum(1 << i for i in g))
        rule = _partition_disconnect(ref, pivot, neighbor, g)
        seen[rule] = seen.get(rule, 0) + 1
        tag = (trial, topo.edges, pivot, neighbor, [t for _, t in texts])
        assert mask.gates == ref.gates, tag
        assert (mask.signs, mask.x, mask.z) == (ref.signs, ref.x, ref.z), tag
        assert mask.tableau == ref.tableau, tag
    assert min(seen.get(r, 0) for r in ("free", "zy", "zx", "xy")) >= 10, seen
    assert min(seen.get(r, 0) for r in ("zy-tie", "zx-tie")) >= 10, seen


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


def _letter_poly(rng, q, n, weights):
    """n gadgets on q qubits, letters I, X, Y, Z drawn with ``weights``."""
    rows = rng.choice(4, size=(n, q), p=weights)
    return ps.PauliPolynomial(q, tuple(gadget(0.1, "".join("IXYZ"[x] for x in row))
                                       for row in rows))


def test_partition_matches_the_greedy_reference(rng):
    # Random, sparse, all-commuting ({I, Z} and {I, X}) and identity-heavy
    # polynomials, so that sets are long, short, single or hold all-I gadgets.
    kinds = [None, [0.8, 0.1, 0.05, 0.05], [0.5, 0, 0, 0.5], [0.6, 0.4, 0, 0],
             [0.9, 0, 0.1, 0], [0.25, 0.25, 0.25, 0.25], [0.3, 0.5, 0, 0.2]]
    for trial in range(140):
        weights = kinds[trial % len(kinds)]
        q, n = int(rng.integers(1, 12)), int(rng.integers(0, 60))
        if weights is None:
            poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 40))))
        else:
            poly = _letter_poly(rng, q, n, weights)
        assert ps.partition_commuting_sets(poly) == greedy_sets(poly), (trial, poly)


def test_commuting_sets_of_many_z_gadgets_call_no_letter_loop(monkeypatch):
    # 2,000 gadgets over {I, Z} on 8 qubits are one commuting set.  The
    # partition reads bit columns, so the quadratic letter loop of
    # ``commutes`` is never entered.
    poly = _letter_poly(np.random.default_rng(22), 8, 2000, [0.5, 0, 0, 0.5])

    def refuse(a, b):
        raise AssertionError("commutes called")

    monkeypatch.setattr(ps.paulis, "commutes", refuse)
    monkeypatch.setattr(synth, "commutes", refuse, raising=False)
    assert ps.partition_commuting_sets(poly) == [list(range(2000))]
    res = ps.synthesize(poly, ps.Topology.line(8), ps.SynthConfig(mode="commuting-sets"))
    assert res.emitted_order == ps.synthesize(poly, ps.Topology.line(8)).emitted_order
    assert check_result(poly, res)


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
    for bad_mode in ("nope", 3, None):
        with pytest.raises(ValueError):
            ps.SynthConfig(mode=bad_mode)
    assert ps.SynthConfig(mode="commuting_sets").mode == "commuting-sets"
    for bad_perm in ("no", 0, 1, None):
        with pytest.raises(ValueError):
            ps.SynthConfig(allow_permutation=bad_perm)
    assert ps.SynthConfig(allow_permutation=False).allow_permutation is False


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


def test_debug_invariant_grid_3x3(monkeypatch):
    monkeypatch.setenv("PAULISYNTH_DEBUG", "1")
    topo = ps.Topology.from_spec("grid:3x3")
    poly = ps.random_polynomial(ps.RandomSpec(9, 10, seed=4))
    checked = []

    def counted(state):
        checked.append(state.poly.num_qubits)
        _check_invariant(state)

    monkeypatch.setattr(ps.synth, "_check_invariant", counted)
    for mode in ("arbitrary", "commuting-sets"):
        assert check_result(poly, ps.synthesize(poly, topo, ps.SynthConfig(mode=mode)))
    assert checked and set(checked) == {9}


def test_debug_invariant_on_a_tree_and_a_sparse_graph(monkeypatch):
    # On a tree every inner qubit is a cut vertex, and sparse graphs have
    # many; the checks run after every frame, in both modes.
    monkeypatch.setenv("PAULISYNTH_DEBUG", "1")
    checked = []

    def counted(state):
        checked.append(len(state.emitted))
        _check_invariant(state)

    monkeypatch.setattr(ps.synth, "_check_invariant", counted)
    rng = np.random.default_rng(1610)
    for extra_edge_prob in (0.0, 0.2):
        topo = random_connected_topology(10, rng, extra_edge_prob)
        assert (len(topo.edges) == 9) == (extra_edge_prob == 0.0)
        poly = ps.random_polynomial(ps.RandomSpec(10, 40, seed=int(rng.integers(1 << 40))))
        for mode in ("arbitrary", "commuting-sets"):
            checked.clear()
            res = ps.synthesize(poly, topo, ps.SynthConfig(mode=mode))
            assert check_result(poly, res) and ps.conforms(res.circuit, topo)
            assert len(checked) > 10 and checked[-1] == len(poly)


def _count_pushed(monkeypatch):
    """Record the number of gates each ``PauliColumns.push_through`` call pushes."""
    push_through, pushed = PauliColumns.push_through, []

    def counted(self, gates, *args):
        gates = list(gates)
        pushed.append(len(gates))
        return push_through(self, gates, *args)

    monkeypatch.setattr(PauliColumns, "push_through", counted)
    return pushed


def test_debug_invariant_pushes_each_gate_once(monkeypatch):
    # The invariant keeps its pushed columns between checks, so each check
    # pushes only the gates emitted since the last one: over a debug
    # synthesis every recursion gate is pushed once.
    topo = ps.Topology.from_spec("grid:6x6")
    poly = ps.random_polynomial(ps.RandomSpec(36, 100, seed=1))
    plain = ps.synthesize(poly, topo)
    pushed = _count_pushed(monkeypatch)
    monkeypatch.setenv("PAULISYNTH_DEBUG", "1")
    res = ps.synthesize(poly, topo)
    assert res.circuit == plain.circuit
    assert len(pushed) > 100 and sum(pushed) == res.recursion_gate_count


def test_debug_invariant_rebuilds_after_a_changed_gate_list_or_a_failed_check(monkeypatch):
    topo = ps.Topology.from_spec("grid:2x3")
    poly = ps.random_polynomial(ps.RandomSpec(6, 8, seed=3))
    st = _state(poly, topo)
    disconnect(st, 0, 1, sum(1 << i for i in range(8) if st.letter(i, 0) == ps.Pauli.Z))
    _check_invariant(st)
    pushed = _count_pushed(monkeypatch)
    st.emit_clifford(ps.h(2))
    _check_invariant(st)
    assert pushed == [1]
    # A different gate in place of the last pushed one, at the same length.
    st.gates[-1] = ps.s(2)
    with pytest.raises(AssertionError, match="emitted gates"):
        _check_invariant(st)
    # The failed check left no cursor: the next one pushes every gate again,
    # and passes once the gate is restored.
    st.gates[-1] = ps.h(2)
    _check_invariant(st)
    assert pushed[-1] == len(st.gates)
    # A shorter gate list starts again too; it passes once the store and the
    # tableau drop h(2) as well (h is its own adjoint).
    st.gates.pop()
    with pytest.raises(AssertionError, match="emitted gates"):
        _check_invariant(st)
    st.conjugate(ps.h(2))
    st.tableau.prepend(ps.h(2))
    _check_invariant(st)
    assert pushed[-1] == len(st.gates)


def test_debug_invariant_reads_only_live_gadgets_across_checks():
    # Emitted gadgets are never read again, so the invariant skips them, also
    # in a check that pushes from the kept columns.
    st = _state(poly_of((0.3, "ZII"), (0.5, "XXI")), ps.Topology.line(3))
    st.emit_rotation(0, 0b111)
    _check_invariant(st)
    st.emit_clifford(ps.h(1))
    flip_bit(st, 0, "x", 2)
    _check_invariant(st)
    flip_bit(st, 1, "x", 2)
    with pytest.raises(AssertionError, match="live gadget 1"):
        _check_invariant(st)


def test_debug_synthesis_of_a_large_grid_matches_plain(monkeypatch):
    topo = ps.Topology.from_spec("grid:8x8")
    poly = ps.random_polynomial(ps.RandomSpec(64, 300, seed=1))
    plain = ps.synthesize(poly, topo)
    monkeypatch.setenv("PAULISYNTH_DEBUG", "1")
    assert ps.synthesize(poly, topo).circuit == plain.circuit


def test_synthesis_on_random_devices():
    # Trees, stars and sparse graphs up to q=64, and a 60-qubit heavy-hex
    # lattice: every mode and permutation setting gives an exact, conforming
    # circuit that emits each gadget once.
    hexes = heavy_hex_topology(3, 9)
    degrees = sorted(len(hexes.neighbors(j)) for j in range(hexes.num_qubits))
    assert hexes.num_qubits == 60 and degrees[-1] == 3 and degrees.count(2) >= 33
    rng = np.random.default_rng(1616)
    topos = [hexes]
    for q in (2, 3, 5, 9, 16, 24, 40, 64):
        topos.append(random_connected_topology(q, rng, 0.0))
        topos.append(star_topology(q, int(rng.integers(q))))
        topos.append(random_connected_topology(q, rng, 2 / q))
    for topo in topos:
        q = topo.num_qubits
        n = int(rng.integers(1, 41))
        poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 40))))
        for mode in ("arbitrary", "commuting-sets"):
            for allow_permutation in (True, False):
                cfg = ps.SynthConfig(mode=mode, allow_permutation=allow_permutation)
                res = ps.synthesize(poly, topo, cfg)
                tag = (sorted(topo.edges), n, cfg)
                assert sorted(res.emitted_order) == list(range(n)), tag
                assert check_result(poly, res) and ps.conforms(res.circuit, topo), tag
                assert allow_permutation or res.permutation.is_identity, tag


def test_debug_invariant_catches_a_changed_generator_part_or_an_extra_rotation():
    # Before any gate U is the identity.  Prepending sdg(0) to the tableau of
    # U^ turns U's image of X_0 into +Y_0 (only a Z bit changes); s(2) twice
    # turns its image of X_2 into -X_2 (only a sign changes).
    poly = ps.random_polynomial(ps.RandomSpec(4, 6, seed=2))
    st = _state(poly, ps.Topology.line(4))
    _check_invariant(st)
    for corruption in ((ps.sdg(0),), (ps.s(2), ps.s(2))):
        for g in corruption:
            st.tableau.prepend(g)
        with pytest.raises(AssertionError, match="emitted gates"):
            _check_invariant(st)
        for g in reversed(corruption):
            st.tableau.prepend(g.adjoint())
        _check_invariant(st)
    st.gates.append(ps.rz(0.1, 0))  # a rotation with no emitted gadget
    with pytest.raises(AssertionError, match="emitted gates"):
        _check_invariant(st)


def test_debug_invariant_catches_corrupted_letters(monkeypatch):
    topo = ps.Topology.from_spec("grid:2x3")
    poly = ps.random_polynomial(ps.RandomSpec(6, 8, seed=3))
    st = _state(poly, topo)
    _check_invariant(st)
    ps.synth.disconnect(st, 0, 1, sum(1 << i for i in range(8) if st.letter(i, 0) == ps.Pauli.Z))
    _check_invariant(st)
    st.gates.append(ps.h(2))  # a gate neither the gadgets nor the tableau saw
    with pytest.raises(AssertionError, match="emitted gates"):
        _check_invariant(st)
    st.gates.pop()
    st.tableau.prepend(ps.h(2))
    with pytest.raises(AssertionError, match="emitted gates"):
        _check_invariant(st)
    st.tableau.prepend(ps.h(2))
    _check_invariant(st)
    live = [i for i in range(len(poly)) if i not in st.emitted]
    # One flipped bit anywhere in a live gadget is caught: its x bit, its z
    # bit, or its sign.
    for part in ("x", "z", "sign"):
        flip_bit(st, live[0], part, 5)
        with pytest.raises(AssertionError, match="live gadget"):
            _check_invariant(st)
        flip_bit(st, live[0], part, 5)
        _check_invariant(st)
    flip_bit(st, live[0], "x", 5)
    with pytest.raises(AssertionError, match="live gadget"):
        _check_invariant(st)

    # A letter corrupted during a debug run stops synthesize.
    monkeypatch.setenv("PAULISYNTH_DEBUG", "1")
    disconnect = ps.synth.disconnect
    corrupted = []

    def corrupting(state, pivot, neighbor, g):
        disconnect(state, pivot, neighbor, g)
        if not corrupted:  # once, so the recursion ends even unchecked
            corrupted.append(max(i for i in range(len(poly)) if i not in state.emitted))
            flip_bit(state, corrupted[0], "z", pivot)

    monkeypatch.setattr(ps.synth, "disconnect", corrupting)
    with pytest.raises(AssertionError, match="invariant"):
        ps.synthesize(poly, topo)
