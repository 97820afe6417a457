"""List reference of the synthesis recursion: the gates ``synthesize`` emits
before the final tableau synthesis, and its emitted order.

It is written as the rules read, sharing no kernel with the package:
letters are lists moved by ``conftest.dense_conjugate``, column costs are
counted on lists, the cut test is a set BFS over ``Topology.neighbors``, and
frames sit on a plain stack.  There is no one-gadget fast path, no memo of
cut vertices and no in-place id step.

- A frame is ``(gadgets, pivot, active)``; an id frame has no pivot.  Each
  popped frame emits the gadgets of one active leg (an ``h`` or ``v`` to Z,
  then the ``rz``) and drops those of none.
- An id frame picks as pivot the active non-cutting qubit whose column over
  its gadgets costs most, ties to the lowest index.
- A pivot frame takes its largest pivot-letter group (ties Z, then X, then
  Y), turns it to Z and disconnects it towards the active neighbour whose
  column over the group costs most (ties to the lowest index): two CNOTs if
  a group gadget has I there, else the pair rule matching the most gadgets
  (ties Z/Y, then Z/X, then X/Y).
- Either frame then pushes the gadgets still on the pivot, in X, Y, Z order,
  as a pivot frame, and above it the others as an id frame without the
  pivot.
"""

from itertools import groupby

import paulisynth as ps

from conftest import dense_conjugate

I, X, Y, Z = ps.Pauli.I, ps.Pauli.X, ps.Pauli.Y, ps.Pauli.Z
_RULES = {}  # (kind, letters) -> (letters, sign flip), gates on their own wires


def greedy_sets(poly):
    """The greedy rule of ``partition_commuting_sets`` in letter loops: scan
    the sets backwards with ``ps.commutes`` against every member."""
    sets = []
    for i, gadget in enumerate(poly.gadgets):
        target = None
        for sidx in range(len(sets) - 1, -1, -1):
            if all(ps.commutes(gadget, poly.gadgets[j]) for j in sets[sidx]):
                target = sidx
            else:
                break
        if target is None:
            sets.append([i])
        else:
            sets[target].append(i)
    return sets


def column_cost(column, k):
    """k * (#I letters) + largest - smallest contiguous run of non-I letters."""
    runs = [len(list(run)) for leg, run in groupby(p != I for p in column) if leg]
    return k * column.count(I) + (max(runs) - min(runs) if runs else 0)


def non_cutting(topo, qubit, active):
    """Whether ``active`` without ``qubit`` is connected (or empty)."""
    rest = active - {qubit}
    if not rest:
        return True
    seen, todo = {min(rest)}, [min(rest)]
    while todo:
        for w in topo.neighbors(todo.pop()):
            if w in rest and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen == rest


class _Recursion:
    def __init__(self, poly, topo, k):
        self.rows = {i: list(g.string.letters) for i, g in enumerate(poly.gadgets)}  # live
        self.flips = dict.fromkeys(self.rows, False)
        self.angles = [g.angle for g in poly.gadgets]
        self.topo, self.k, self.gates, self.emitted = topo, k, [], []

    def emit(self, gate):
        self.gates.append(gate)
        for i, row in self.rows.items():
            key = (gate.kind, tuple(row[w] for w in gate.qubits))
            if key not in _RULES:
                wires = (0, 1) if gate.kind == "cx" else (0,)
                _RULES[key] = dense_conjugate(ps.Gate(gate.kind, wires), key[1])
            letters, flip = _RULES[key]
            for w, p in zip(gate.qubits, letters):
                row[w] = p
            self.flips[i] ^= flip

    def best(self, cands, g):
        """The candidate whose column over the gadgets ``g`` costs most, ties
        to the lowest index."""
        return max(sorted(cands), key=lambda j: (
            column_cost([self.rows[i][j] for i in g], self.k), -j))

    def sweep(self, g, active):
        rest = []
        for i in g:
            legs = [w for w in sorted(active) if self.rows[i][w] != I]
            if len(legs) > 1:
                rest.append(i)
                continue
            if legs:
                w, p = legs[0], self.rows[i][legs[0]]
                if p in (X, Y):
                    self.emit((ps.h if p == X else ps.v)(w))
                self.gates.append(ps.rz(-self.angles[i] if self.flips[i] else self.angles[i], w))
            self.emitted.append(i)
            del self.rows[i]
        return rest

    def disconnect(self, group, pivot, neighbor):
        letters = [self.rows[i][neighbor] for i in group]
        if I in letters:
            self.emit(ps.cx(neighbor, pivot))
        else:
            rules = [(sum(p in pair for p in letters), before)
                     for pair, before in (((Z, Y), None), ((Z, X), ps.s), ((X, Y), ps.h))]
            _, before = max(rules, key=lambda rule: rule[0])  # max keeps the first of ties
            if before:
                self.emit(before(neighbor))
        self.emit(ps.cx(pivot, neighbor))

    def run(self, g, num_qubits):
        rows, stack = self.rows, [(g, None, frozenset(range(num_qubits)))]
        while stack:
            g, pivot, active = stack.pop()
            g = self.sweep(g, active)
            if not g:
                continue
            if pivot is None:
                free = [j for j in active if non_cutting(self.topo, j, active)]
                pivot = self.best(free, g)
            else:
                groups = {p: [i for i in g if rows[i][pivot] == p] for p in (Z, X, Y)}
                letter = max((Z, X, Y), key=lambda p: len(groups[p]))  # ties: the first
                if letter != Z:
                    self.emit((ps.h if letter == X else ps.v)(pivot))
                near = [w for w in self.topo.neighbors(pivot) if w in active]
                neighbor = self.best(near, groups[letter])
                self.disconnect(groups[letter], pivot, neighbor)
            rest = [i for p in (X, Y, Z) for i in g if rows[i][pivot] == p]
            ids = [i for i in g if rows[i][pivot] == I]
            if rest:
                stack.append((rest, pivot, active))
            if ids:
                stack.append((ids, None, active - {pivot}))


def reference_recursion(poly, topo, cfg):
    """``(gates, emitted order)`` of the recursion for ``synthesize(poly,
    topo, cfg)``: its ``circuit.gates[:recursion_gate_count]`` and
    ``emitted_order``."""
    if cfg.mode == "commuting-sets":
        sets = greedy_sets(poly)
    else:
        sets = [list(range(len(poly.gadgets)))]
    rec = _Recursion(poly, topo, cfg.k)
    for g in sets:
        rec.run(g, poly.num_qubits)
    return rec.gates, rec.emitted
