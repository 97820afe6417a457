"""Recursive connectivity-aware synthesis of Pauli polynomials.

The synthesizer walks the polynomial qubit by qubit: it picks a removable
(non-cutting) pivot qubit, peels off the gadgets not touching it, and
disconnects the rest from the pivot with at most one single-qubit Clifford
plus CNOTs on topology edges.  Every emitted Clifford is propagated through
all unsynthesized gadgets (conjugating their letters and folding sign flips
into angles) while its adjoint accumulates in a Clifford tableau that is
synthesized at the very end, up to an output permutation.

The recursion is driven by an explicit work stack so deep polynomials do not
hit the interpreter recursion limit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Metrics, metrics
from .paulis import (TO_Z, Gate, Pauli, PauliGadget, PauliPolynomial, PauliString,
                     commutes, conjugation_luts, cx, h, rz, s)
from .tableau import CliffordTableau, QubitPermutation, synthesize_tableau
from .topology import Topology, tree_postorder

DEBUG_ENV_VAR = "PAULISYNTH_DEBUG"


_PROP_1Q, _PROP_CX_L, _PROP_CX_F = conjugation_luts((Pauli.I, Pauli.X, Pauli.Y, Pauli.Z))

_MODES = ("arbitrary", "commuting-sets")


@dataclass(frozen=True)
class SynthConfig:
    k: int = 10
    mode: str = "arbitrary"
    allow_permutation: bool = True

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"weighting factor k must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "mode", self.mode.replace("_", "-"))
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass
class SynthesisResult:
    circuit: Circuit
    emitted_order: list[int]
    permutation: QubitPermutation
    metrics: Metrics
    recursion_gate_count: int = 0


def column_costs(block: np.ndarray, k: int) -> np.ndarray:
    """Cost of every column of a gadgets x qubits letter block:
    k * (#identity letters) + largest - smallest contiguous non-I run."""
    n, m = block.shape
    non_i = block != 0
    costs = k * (n - non_i.sum(axis=0))
    padded = np.zeros((m, n + 2), dtype=bool)
    padded[:, 1:-1] = non_i.T
    # Runs alternate start/end edges and never cross the padding.
    flat = padded.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    if edges.size:
        starts = edges[0::2]
        lengths = edges[1::2] - starts
        cols = starts // (n + 2)
        first = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
        costs[cols[first]] += (np.maximum.reduceat(lengths, first)
                               - np.minimum.reduceat(lengths, first))
    return costs


def column_cost(column: np.ndarray, k: int) -> int:
    """Cost of one letter column; see ``column_costs``."""
    return int(column_costs(np.asarray(column).reshape(-1, 1), k)[0])


class _State:
    def __init__(self, poly: PauliPolynomial, topo: Topology, cfg: SynthConfig):
        n = len(poly.gadgets)
        q = poly.num_qubits
        self.letters = np.zeros((n, q), dtype=np.uint8)
        for i, g in enumerate(poly.gadgets):
            self.letters[i] = [int(p) for p in g.string.letters]
        self.angles = np.array([g.angle for g in poly.gadgets], dtype=float)
        self.alive = np.ones(n, dtype=bool)
        self.gates: list[Gate] = []
        self.tableau = CliffordTableau(q)
        self.emitted: list[int] = []
        self.topo = topo
        self.k = cfg.k
        self.poly = poly
        self.debug = os.environ.get(DEBUG_ENV_VAR) == "1" and q <= 5

    def emit_clifford(self, gate: Gate) -> None:
        """Append to the circuit, conjugate all live gadgets, stash the adjoint."""
        self.gates.append(gate)
        idx = np.flatnonzero(self.alive)
        if idx.size:
            if gate.kind == "cx":
                c, t = gate.qubits
                codes = 4 * self.letters[idx, c] + self.letters[idx, t]
                new = _PROP_CX_L[codes]
                self.letters[idx, c] = new >> 2
                self.letters[idx, t] = new & 3
                flips = _PROP_CX_F[codes]
            else:
                j = gate.qubits[0]
                lut, flut = _PROP_1Q[gate.kind]
                codes = self.letters[idx, j]
                self.letters[idx, j] = lut[codes]
                flips = flut[codes]
            if flips.any():
                self.angles[idx[flips]] *= -1.0
        self.tableau.prepend(gate.adjoint())

    def emit_rotation(self, i: int) -> None:
        legs = np.flatnonzero(self.letters[i])
        if len(legs) != 1:
            raise AssertionError("rotation emission needs exactly one leg")
        qb = int(legs[0])
        letter = int(self.letters[i, qb])
        if letter in TO_Z:
            self.emit_clifford(TO_Z[letter](qb))
        self.gates.append(rz(float(self.angles[i]), qb))
        self.alive[i] = False
        self.emitted.append(i)


def _single_leg_sweep(state: _State, g: list[int]) -> list[int]:
    remaining = []
    for i in g:
        if not state.alive[i]:
            continue
        leg_count = int((state.letters[i] != 0).sum())
        if leg_count == 0:
            # All-identity gadget: a global phase, dropped.
            state.alive[i] = False
            state.emitted.append(i)
        elif leg_count == 1:
            state.emit_rotation(i)
        else:
            remaining.append(i)
    return remaining


def pick_pivot(state: _State, g: list[int], active: frozenset[int]) -> int:
    """Highest column-cost non-cutting qubit; ties go to the lowest index.

    All active columns are costed at once; the cut-vertex test then runs
    lazily in cost order and stops at the first non-cutting qubit.
    """
    cands = sorted(active)
    costs = column_costs(state.letters.take(g, axis=0)[:, cands], state.k)
    for i in np.argsort(-costs, kind="stable"):
        if state.topo.is_non_cutting(cands[i], active):
            return cands[i]
    raise AssertionError("connected active set always has a non-cutting qubit")


def pick_neighbor(state: _State, pivot: int, g: list[int], active: frozenset[int]) -> int:
    """Highest column-cost active neighbor of ``pivot``; ties go to the lowest index."""
    cands = state.topo.neighbors(pivot, active)
    if not cands:
        raise AssertionError("pivot with connected gadgets must have an active neighbor")
    if len(cands) == 1:  # nothing to compare, so skip the costs
        return cands[0]
    costs = column_costs(state.letters.take(g, axis=0)[:, cands], state.k)
    return cands[int(np.argmax(costs))]


def partition_on_qubit(state: _State, g: list[int], qubit: int) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {0: [], 1: [], 2: [], 3: []}
    for i in g:
        groups[int(state.letters[i, qubit])].append(i)
    return groups


def _id_step(state: _State, g: list[int], active: frozenset[int], stack: list) -> None:
    remaining = _single_leg_sweep(state, g)
    if not remaining:
        return
    if not active:
        raise AssertionError("live gadgets without active qubits")
    pivot = pick_pivot(state, remaining, active)
    parts = partition_on_qubit(state, remaining, pivot)
    rest = parts[Pauli.X] + parts[Pauli.Y] + parts[Pauli.Z]
    stack.append(("p", rest, pivot, active))
    stack.append(("id", parts[Pauli.I], active - {pivot}))


def diagonalize_qubit(state: _State, g: list[int], qubit: int) -> None:
    """Emit at most one single-qubit Clifford turning the legs of ``g`` at
    ``qubit`` into Z.  The gadgets must share one letter there (call per
    letter group otherwise); the gate propagates through all live gadgets."""
    letters = {int(state.letters[i, qubit]) for i in g} - {int(Pauli.I)}
    if len(letters) > 1:
        raise ValueError("mixed letters at qubit; diagonalize per letter group")
    if not letters or letters == {int(Pauli.Z)}:
        return
    state.emit_clifford(TO_Z[letters.pop()](qubit))
    if any(int(state.letters[i, qubit]) != Pauli.Z for i in g):
        raise AssertionError("diagonalization left a non-Z leg")


def disconnect(state: _State, pivot: int, neighbor: int, g: list[int]) -> None:
    """Clear the pivot leg for the best-matched subset of ``g``.

    Requires diagonal (Z) pivot legs and a (pivot, neighbor) edge.  If some
    gadgets have no leg on the neighbor, two CNOTs move their pivot legs
    over; otherwise the pair rule matching the most gadgets is used (one
    CNOT plus at most one single-qubit Clifford on the neighbor).
    """
    if any(int(state.letters[i, pivot]) != Pauli.Z for i in g):
        raise ValueError("disconnect requires diagonalized pivot legs")
    if not state.topo.has_edge(pivot, neighbor):
        raise ValueError(f"({pivot},{neighbor}) is not a topology edge")
    nparts = partition_on_qubit(state, g, neighbor)
    if nparts[Pauli.I]:
        matched = nparts[Pauli.I]
        state.emit_clifford(cx(neighbor, pivot))
        state.emit_clifford(cx(pivot, neighbor))
    else:
        nz = len(nparts[Pauli.Z])
        nx = len(nparts[Pauli.X])
        ny = len(nparts[Pauli.Y])
        rule = max((("zy", nz + ny), ("zx", nz + nx), ("xy", nx + ny)),
                   key=lambda kv: kv[1])[0]
        matched = {"zy": nparts[Pauli.Z] + nparts[Pauli.Y],
                   "zx": nparts[Pauli.Z] + nparts[Pauli.X],
                   "xy": nparts[Pauli.X] + nparts[Pauli.Y]}[rule]
        if rule == "zx":
            state.emit_clifford(s(neighbor))
        elif rule == "xy":
            state.emit_clifford(h(neighbor))
        state.emit_clifford(cx(pivot, neighbor))
    if any(int(state.letters[i, pivot]) != Pauli.I for i in matched):
        raise AssertionError("disconnect left a matched gadget on the pivot")


def _p_step(state: _State, g: list[int], pivot: int, active: frozenset[int],
            stack: list) -> None:
    remaining = _single_leg_sweep(state, [i for i in g if state.alive[i]])
    if not remaining:
        return
    parts = partition_on_qubit(state, remaining, pivot)
    if parts[Pauli.I]:
        raise AssertionError("pivot frame gadgets must touch the pivot")

    # Largest pivot-letter group; ties prefer Z (no diagonalization gate),
    # then X, then Y.
    _letter, gpiv = max(
        ((Pauli.Z, parts[Pauli.Z]), (Pauli.X, parts[Pauli.X]), (Pauli.Y, parts[Pauli.Y])),
        key=lambda kv: len(kv[1]))
    diagonalize_qubit(state, gpiv, pivot)
    neighbor = pick_neighbor(state, pivot, gpiv, active)
    disconnect(state, pivot, neighbor, gpiv)

    parts2 = partition_on_qubit(state, [i for i in remaining if state.alive[i]], pivot)
    rest = parts2[Pauli.X] + parts2[Pauli.Y] + parts2[Pauli.Z]
    stack.append(("p", rest, pivot, active))
    stack.append(("id", parts2[Pauli.I], active - {pivot}))


def _run_recursion(state: _State, indices: list[int]) -> None:
    active = frozenset(range(state.poly.num_qubits))
    stack: list = [("id", indices, active)]
    while stack:
        frame = stack.pop()
        if frame[0] == "id":
            _id_step(state, frame[1], frame[2], stack)
        else:
            _p_step(state, frame[1], frame[2], frame[3], stack)
        if state.debug:
            _check_invariant(state)


def partition_commuting_sets(poly: PauliPolynomial) -> list[list[int]]:
    """Greedy in-order grouping into mutually commuting sets.

    A gadget joins the earliest set such that it commutes with every member
    of that set and of all later sets (so reordering across set boundaries
    never changes the operator); otherwise it opens a new set.
    """
    sets: list[list[int]] = []
    for i, gadget in enumerate(poly.gadgets):
        target = None
        for sidx in range(len(sets) - 1, -1, -1):
            if all(commutes(gadget, poly.gadgets[j]) for j in sets[sidx]):
                target = sidx
            else:
                break
        if target is None:
            sets.append([i])
        else:
            sets[target].append(i)
    return sets


def synthesize(poly: PauliPolynomial, topo: Topology,
               cfg: SynthConfig | None = None) -> SynthesisResult:
    """Compile a Pauli polynomial to a conforming circuit plus output permutation."""
    cfg = cfg or SynthConfig()
    if poly.num_qubits != topo.num_qubits:
        raise ValueError(
            f"polynomial has {poly.num_qubits} qubits but topology has {topo.num_qubits}")
    state = _State(poly, topo, cfg)
    if cfg.mode == "commuting-sets":
        gadget_sets = partition_commuting_sets(poly)
    else:
        gadget_sets = [list(range(len(poly.gadgets)))]
    for gset in gadget_sets:
        _run_recursion(state, gset)
    if state.alive.any():
        raise AssertionError("synthesis left live gadgets")
    recursion_gates = len(state.gates)
    tab_circuit, perm = synthesize_tableau(state.tableau, topo, cfg.allow_permutation)
    circ = Circuit(poly.num_qubits, tuple(state.gates) + tab_circuit.gates)
    return SynthesisResult(circ, state.emitted, perm, metrics(circ), recursion_gates)


def naive_synthesize(poly: PauliPolynomial, topo: Topology) -> SynthesisResult:
    """Per-gadget Steiner-ladder baseline in the original order, no reordering.

    Each gadget is diagonalized, fanned into a root wire with CNOTs along a
    Steiner tree, rotated, and exactly undone.
    """
    if poly.num_qubits != topo.num_qubits:
        raise ValueError(
            f"polynomial has {poly.num_qubits} qubits but topology has {topo.num_qubits}")
    q = poly.num_qubits
    everything = frozenset(range(q))
    gates: list[Gate] = []
    for gadget in poly.gadgets:
        letters = gadget.string.letters
        legs = [i for i, p in enumerate(letters) if p != Pauli.I]
        if not legs:
            continue
        pre = [TO_Z[letters[j]](j) for j in legs if letters[j] in TO_Z]
        root = legs[0]
        ladder: list[Gate] = []
        carrying = set(legs)
        tree = topo.steiner_tree(set(legs), everything)
        for child, parent in tree_postorder(tree, root):
            if child not in carrying:
                continue
            if parent not in carrying:
                ladder.append(cx(parent, child))
                carrying.add(parent)
            ladder.append(cx(child, parent))
            carrying.discard(child)
        gates.extend(pre)
        gates.extend(ladder)
        gates.append(rz(gadget.angle, root))
        gates.extend(g.adjoint() for g in reversed(ladder))
        gates.extend(g.adjoint() for g in reversed(pre))
    circ = Circuit(q, tuple(gates))
    return SynthesisResult(circ, list(range(len(poly.gadgets))),
                           QubitPermutation.identity(q), metrics(circ), len(gates))


def _check_invariant(state: _State) -> None:
    """Dense check of the running decomposition (debug toggle, small q only).

    With U the product of the Clifford gates emitted so far, ``U^ @ (live
    gadgets) @ circuit`` must equal the polynomial in emission order.
    """
    from . import verify

    q = state.poly.num_qubits
    circ_u = verify.circuit_unitary(Circuit(q, tuple(state.gates)))
    poly_u = np.eye(2 ** q, dtype=complex)
    for i in np.flatnonzero(state.alive):
        letters = tuple(Pauli(int(p)) for p in state.letters[i])
        poly_u = verify.gadget_unitary(
            PauliGadget(float(state.angles[i]), PauliString(letters))) @ poly_u
    cliffords = tuple(g for g in state.gates if g.is_clifford)
    u_dg = verify.circuit_unitary(Circuit(q, cliffords)).conj().T
    lhs = u_dg @ poly_u @ circ_u
    order = state.emitted + [int(i) for i in np.flatnonzero(state.alive)]
    rhs = verify.polynomial_unitary(state.poly, order)
    if not verify.equivalent(lhs, rhs, None, 1e-8):
        raise AssertionError("synthesis invariant violated")
