"""Recursive connectivity-aware synthesis of Pauli polynomials.

The synthesizer walks the polynomial qubit by qubit: it picks a removable
(non-cutting) pivot qubit, peels off the gadgets not touching it, and
disconnects the rest from the pivot with at most one single-qubit Clifford
plus CNOTs on topology edges.  Every emitted Clifford is propagated through
all gadgets while its adjoint accumulates in a Clifford tableau that is
synthesized at the very end, up to an output permutation.

One column layout serves the gadgets and the tableau
(``paulis.PauliColumns``, after Aaronson-Gottesman).  For each qubit j,
``x[j]`` and ``z[j]`` are Python-int bitsets whose bit i is the X and Z part
of Pauli i's letter on j, and bit i of ``signs`` is its accumulated sign.
In the gadget store (``_State``) Pauli i is gadget i.  The tableau W = U^,
with U the Clifford emitted so far, keeps U's images of X_r and Z_r as its
Paulis r and q+r; ``CliffordTableau.prepend`` of an emitted gate's adjoint
is conjugation by that gate, as for the gadgets.  ``PauliColumns.conjugate``
is the package's one set of conjugation rules: it moves the store, the
tableau, the final peel, ``bench.check_result`` and the debug invariant
alike.  An emitted Clifford is a few bitwise operations on whole columns,
with no live-gadget mask: emitted gadgets keep being conjugated and are
never read again.  The sign is folded into the angle when the gadget's
``rz`` is emitted.

The recursion is one loop, ``_run_recursion``, over an explicit stack of
frames, so deep polynomials do not hit the interpreter recursion limit;
``tests/recursion_ref.py`` runs the same rules on lists.  A frame is ``(g,
gm, pivot, act)``: its gadgets in frame order (column costs read runs in
that order), their bitmask (bit i for gadget i), its pivot (-1 for an id
frame, which has none yet), and its active qubits as a bitmask.  Its gadgets
are live and have legs only on its active qubits.  All other frame reads
are bitwise on columns under these masks, from the sweep to ``_split`` and
``disconnect``.  A frame of one gadget, most frames on sparse devices, runs
in ``_lone_gadget``: its docstring gives the one-gadget letter table, and
why every cut test of the recursion may skip the checked public query.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .circuit import Circuit, Metrics, metrics
from .paulis import (TO_Z, Gate, Pauli, PauliColumns, PauliPolynomial, _check_int, _check_type,
                     cx, h, rz, s, v)
from .tableau import (CliffordTableau, QubitPermutation, _inverse_columns, steiner_ladder,
                      synthesize_tableau)
from .topology import Topology, _bits

DEBUG_ENV_VAR = "PAULISYNTH_DEBUG"

_MODES = ("arbitrary", "commuting-sets")


@dataclass(frozen=True)
class SynthConfig:
    k: int = 10
    mode: str = "arbitrary"
    allow_permutation: bool = True

    def __post_init__(self):
        _check_int("k", self.k, 1)
        object.__setattr__(self, "k", int(self.k))
        mode = self.mode.replace("_", "-") if isinstance(self.mode, str) else self.mode
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "mode", mode)
        _check_type("allow_permutation", self.allow_permutation, bool)


@dataclass
class SynthesisResult:
    circuit: Circuit
    emitted_order: list[int]
    permutation: QubitPermutation
    metrics: Metrics
    recursion_gate_count: int = 0


def column_cost(column, k: int) -> int:
    """Cost of a letter column in frame order (0 = I):
    k * (#identity letters) + largest - smallest contiguous non-I run.
    With m legs (non-I letters) of n, that is k*(n - m) plus 0 for one run,
    or at most m - 2 for more: ``_by_cost`` calls it only if that range
    cannot decide."""
    legs = bytes(map(bool, column))
    runs = [len(run) for run in legs.split(b"\0") if run]
    cost = k * (len(legs) - sum(runs))
    return cost + max(runs) - min(runs) if runs else cost


class _State(PauliColumns):
    def __init__(self, poly: PauliPolynomial, topo: Topology, cfg: SynthConfig):
        q = poly.num_qubits
        cols = PauliColumns.from_texts([str(g.string) for g in poly.gadgets], q)
        super().__init__(cols.x, cols.z)
        self.angles = [g.angle for g in poly.gadgets]
        self.gates: list[Gate] = []
        self.tableau = CliffordTableau(q)
        self.emitted: list[int] = []
        self.topo = topo
        self.k = cfg.k
        self.poly = poly
        self.debug = os.environ.get(DEBUG_ENV_VAR) == "1"
        self._invariant = None  # _check_invariant's pushed columns and cursor

    def angle(self, i: int) -> float:
        """Current angle of gadget i, its accumulated sign folded in."""
        return -self.angles[i] if self.signs >> i & 1 else self.angles[i]

    def emit_clifford(self, gate: Gate) -> None:
        """Append to the circuit, conjugate all gadgets, stash the adjoint."""
        self.gates.append(gate)
        self.conjugate(gate)
        self.tableau.prepend(gate.adjoint())

    def emit_rotation(self, i: int, act: int) -> None:
        """Emit gadget i, whose one leg lies on the active qubits in mask ``act``."""
        legs = [j for j in _bits(act) if (self.x[j] | self.z[j]) >> i & 1]
        if len(legs) != 1:
            raise AssertionError("rotation emission needs exactly one leg")
        qb = legs[0]
        letter = self.letter(i, qb)
        if letter in TO_Z:
            self.emit_clifford(TO_Z[letter](qb))
        self.gates.append(rz(self.angle(i), qb))
        self.emitted.append(i)


def _single_leg_sweep(state: _State, g: list[int], gm: int, act: int) -> tuple[list[int], int]:
    # Weight classes as bitsets over the active columns: some leg, and two or
    # more legs.  The sweep emits only single-qubit Cliffords, which keep legs.
    some = many = 0
    x, z = state.x, state.z
    for j in _bits(act):
        legs = x[j] | z[j]
        many |= some & legs
        some |= legs
    if gm & many == gm:  # every gadget keeps two or more legs
        return g, gm
    remaining = []
    for i in g:
        if not some >> i & 1:
            # All-identity gadget: a global phase, dropped.
            state.emitted.append(i)
        elif not many >> i & 1:
            state.emit_rotation(i, act)
        else:
            remaining.append(i)
    return remaining, gm & many


def _by_cost(g: list[int], cands: list[int], keys: list[int], k: int):
    """Yield ``cands`` (leg masks ``keys``, bit i for gadget i) by column
    cost over ``g``, highest first, ties to the lower index, lazily.

    Both ends of a column's cost range (``column_cost``) fall as its leg
    count m grows, so the candidates left are kept by m, then index; the
    next is the best of the first and those whose range reaches its lower
    bound.  The first alone is yielded uncosted; else each distinct mask
    with m > 2 (a range wider than one value) is costed once.
    """
    n, costs = len(g), {}
    left = sorted(zip(map(int.bit_count, keys), cands, keys))
    while left:
        m0, end = left[0][0], 1
        # In range: k*(n - m) + m - 2 >= k*(n - m0); ties at m0 <= 1 lose on index.
        while end < len(left) and left[end][0] - 2 >= k * (left[end][0] - m0):
            end += 1
        best = 0
        if end > 1:
            for m, _, key in left[:end]:
                if m > 2 and key not in costs:
                    costs[key] = column_cost(bytes([key >> i & 1 for i in g]), k)
            best = max(range(end), key=lambda e: (
                costs.get(left[e][2], k * (n - left[e][0])), -left[e][1]))
        yield left.pop(best)[1]


def pick_pivot(state: _State, g: list[int], gm: int, act: int) -> int:
    """Highest column-cost non-cutting qubit; ties go to the lowest index.

    The active qubits are cut-tested in ``_by_cost``'s lazy order, which
    costs a column only if its range can decide, and the test stops at the
    first non-cutting one, ``Topology._non_cutting`` (``_lone_gadget`` says
    why it may be), which answers a leaf without a BFS round.
    Over the n gadgets of ``g`` a leg-free column costs exactly k*n, the top,
    so those come first, in index order and uncosted.  Frames of one gadget
    never reach here (``_lone_gadget``).
    """
    x, z, non_cutting = state.x, state.z, state.topo._non_cutting
    cands = _bits(act)
    for j in _by_cost(g, cands, [(x[j] | z[j]) & gm for j in cands], state.k):
        if non_cutting(j, act):
            return j
    raise AssertionError("connected active set always has a non-cutting qubit")


def pick_neighbor(state: _State, pivot: int, g: list[int], gm: int, act: int) -> int:
    """Highest column-cost active neighbor of ``pivot`` over the gadgets of
    ``g`` in mask ``gm``; ties go to the lowest index: the first of
    ``_by_cost``'s lazy order, which costs only neighbours whose cost range
    reaches the highest lower bound (a leg-free one costs exactly k*n)."""
    near = state.topo._nbr_mask[pivot] & act
    if not near:
        raise AssertionError("pivot with connected gadgets must have an active neighbor")
    if not near & near - 1:  # nothing to compare, so skip the costs
        return near.bit_length() - 1
    cands = _bits(near)
    keys = [(state.x[j] | state.z[j]) & gm for j in cands]
    return next(_by_cost([i for i in g if gm >> i & 1], cands, keys, state.k))


def _split(state: _State, g: list[int], gm: int,
           pivot: int) -> tuple[list[int], int, list[int], int]:
    """``(rest, rest mask, id, id mask)``: the gadgets of ``g`` (mask ``gm``)
    with a leg on ``pivot``, in frame order X, then Y, then Z, and the others
    in frame order."""
    xs, zs = state.x[pivot] & gm, state.z[pivot] & gm
    on = xs | zs
    if not on:
        return [], 0, g, gm
    groups = ([], [], [], [])  # by x + 2z: I, X, Z, Y
    for i in g:
        groups[(xs >> i & 1) | (zs >> i & 1) << 1].append(i)
    return groups[1] + groups[3] + groups[2], on, groups[0], gm ^ on


def diagonalize_qubit(state: _State, gm: int, qubit: int) -> None:
    """Emit at most one single-qubit Clifford turning the legs at ``qubit`` of
    the gadgets in mask ``gm`` (bit i for gadget i) into Z.  The gadgets must
    share one letter there (call per letter group otherwise); the gate
    propagates through all live gadgets."""
    xs, zs = state.x[qubit] & gm, state.z[qubit] & gm
    if not xs:  # only I and Z legs
        return
    if zs and zs != xs:  # a Z beside X or Y legs, or Y beside X
        raise ValueError("mixed letters at qubit; diagonalize per letter group")
    state.emit_clifford(TO_Z[Pauli.Y if zs else Pauli.X](qubit))
    if gm & (state.x[qubit] | ~state.z[qubit]):
        raise AssertionError("diagonalization left a non-Z leg")


def disconnect(state: _State, pivot: int, neighbor: int, gm: int) -> None:
    """Clear the pivot leg for the best-matched subset of the gadgets in mask
    ``gm`` (bit i for gadget i).

    Requires diagonal (Z) pivot legs and a (pivot, neighbor) edge.  If some
    gadgets have no leg on the neighbor, two CNOTs move their pivot legs over;
    otherwise one CNOT and at most one Clifford on the neighbor apply the pair
    rule matching the most gadgets (ties: Z/Y, then Z/X, then X/Y).

    Its one-gadget case is written again as ``_lone_gadget``'s table;
    ``test_lone_gadget_round_matches_diagonalize_and_disconnect`` pins both.
    """
    x, z = state.x, state.z
    if gm & (x[pivot] | ~z[pivot]):
        raise ValueError("disconnect requires diagonalized pivot legs")
    if not state.topo._nbr_mask[pivot] >> neighbor & 1:
        raise ValueError(f"({pivot},{neighbor}) is not a topology edge")
    xn, zn = x[neighbor] & gm, z[neighbor] & gm
    matched = gm & ~(xn | zn)  # no leg on the neighbor
    if matched:
        state.emit_clifford(cx(neighbor, pivot))
        state.emit_clifford(cx(pivot, neighbor))
    else:
        zy, xy, zx = zn, xn, gm & ~(xn & zn)  # no I legs, so Z/X matches the non-Y ones
        nzy, nzx = zy.bit_count(), zx.bit_count()
        if nzy >= nzx and nzy >= xy.bit_count():
            matched = zy
        elif nzx >= xy.bit_count():
            matched = zx
            state.emit_clifford(s(neighbor))
        else:
            matched = xy
            state.emit_clifford(h(neighbor))
        state.emit_clifford(cx(pivot, neighbor))
    if matched & (x[pivot] | z[pivot]):
        raise AssertionError("disconnect left a matched gadget on the pivot")


def _lone_gadget(state: _State, i: int, pivot: int, act: int) -> None:
    """Run the frame of one gadget i to its end: the one-gadget rule.

    ``pivot`` is the frame's pivot, or -1 for none.  Until the gadget has at
    most one active leg (then its rz is emitted, or with none it is dropped),
    each round drops a pivot from the active set.  With none, that is the
    lowest leg-free non-cutting active qubit, else the lowest non-cutting one
    (``pick_pivot``'s order: all touched columns cost 0).  A leg on it is
    diagonalized and disconnected towards the lowest leg-free active
    neighbour, else the lowest one (``pick_neighbor``'s: cost k against 0).

    For one gadget ``diagonalize_qubit`` and ``disconnect`` reduce to a table
    on its letters at the pivot p and the neighbour n, emitted directly:
    p's X gives ``h(p)`` and Y gives ``v(p)``; then n's I gives ``cx(n, p)``,
    ``cx(p, n)``; X gives ``s(n)``, ``cx(p, n)``; Y or Z gives ``cx(p, n)``.
    After it the gadget must have no leg on p and one on n (else an
    ``AssertionError``), which replaces the two functions' asserts.

    The legs and the active set are bitmasks: the table moves the pivot's
    leg to the neighbour, or merges it there.  ``act`` must be connected.
    Every frame's active set is, since it is the device less pivots that were
    non-cutting when dropped (by ``pick_pivot`` or here).  So no cut test of
    the recursion needs the checked public ``is_non_cutting``: here a
    candidate with at most one active neighbour is a leaf, so non-cutting,
    and any other gets ``Topology._non_cutting``, whose BFS from one
    neighbour must reach the others; ``pick_pivot`` sends every candidate
    there.  Known cut vertices are not tested
    again: removing a non-cutting qubit u keeps every cut vertex cut, except
    u's only active neighbour if u has exactly one.
    """
    x, z, emit, debug = state.x, state.z, state.emit_clifford, state.debug
    nbr, non_cutting = state.topo._nbr_mask, state.topo._non_cutting
    bit = 1 << i
    legs = sum(1 << j for j in _bits(act) if (x[j] | z[j]) & bit)
    cut = 0  # known cut vertices of the active set
    while True:  # left by the return once the gadget is emitted
        if not legs & legs - 1:  # the sweep: one leg is emitted, none is a global phase
            if legs:
                state.emit_rotation(i, act)
            else:
                state.emitted.append(i)
            return
        if pivot < 0:  # pick_pivot's order: leg-free qubits, then touched ones
            cands, touched = act & ~(legs | cut), act & legs & ~cut
            while True:
                if not cands:
                    if not touched:
                        raise AssertionError(
                            "connected active set always has a non-cutting qubit")
                    cands, touched = touched, 0
                low = cands & -cands
                pivot = low.bit_length() - 1
                near = nbr[pivot] & act
                if not near & near - 1 or non_cutting(pivot, act):  # a leaf cannot cut
                    break
                cut |= low
                cands ^= low
        else:
            near = nbr[pivot] & act
        pm = 1 << pivot
        if legs & pm:
            if x[pivot] & bit:  # X or Y: diagonalize_qubit's gate
                emit((v if z[pivot] & bit else h)(pivot))
            nb = near & ~legs or near  # pick_neighbor's choice, lowest first
            nb &= -nb
            neighbor = nb.bit_length() - 1
            if not legs & nb:  # disconnect's rules for one gadget
                emit(cx(neighbor, pivot))
            elif x[neighbor] & bit and not z[neighbor] & bit:
                emit(s(neighbor))
            emit(cx(pivot, neighbor))
            if (x[pivot] | z[pivot]) & bit or not (x[neighbor] | z[neighbor]) & bit:
                raise AssertionError("one-gadget disconnect left a pivot leg or no neighbor leg")
            legs ^= pm | nb & ~legs
            if debug:
                _check_invariant(state)
        # The pivot is leg-free now: drop it from the active set.
        act ^= pm
        if not near & near - 1:
            cut &= ~near
        pivot = -1


def _run_recursion(state: _State, indices: list[int]) -> None:
    """Run the frames of the gadgets ``indices`` off one stack, starting from
    an id frame on every qubit; the debug check closes each popped frame.

    A frame of two or more gadgets is swept first.  An id frame (pivot -1)
    then peels pivots in place while two or more gadgets are left: it pushes
    the frame of the gadgets on each pivot and drops the pivot from ``act``,
    since the id frame it would push above is popped next and its sweep
    emits nothing.  One gadget left runs in ``_lone_gadget``.  A pivot frame
    of two or more disconnects its largest pivot-letter group, then pushes
    the gadgets still on the pivot and, above them, the freed ones as an id
    frame without the pivot.
    """
    stack = [(indices, sum(1 << i for i in indices), -1, (1 << state.poly.num_qubits) - 1)]
    while stack:
        g, gm, pivot, act = stack.pop()
        if len(g) > 1:
            g, gm = _single_leg_sweep(state, g, gm, act)
        if pivot < 0:
            while len(g) > 1:
                peel = pick_pivot(state, g, gm, act)
                rest, rm, g, gm = _split(state, g, gm, peel)
                if rest:
                    stack.append((rest, rm, peel, act))
                act ^= 1 << peel
        if len(g) == 1:
            _lone_gadget(state, g[0], pivot, act)
        elif g:  # a pivot frame: an id frame has peeled down to one gadget
            xs, zs = state.x[pivot] & gm, state.z[pivot] & gm
            if (xs | zs) != gm:
                raise AssertionError("pivot frame gadgets must touch the pivot")
            # Largest pivot-letter group; ties prefer Z (no diagonalization
            # gate), then X, then Y.
            zg, xg, yg = zs & ~xs, xs & ~zs, xs & zs
            nz, nx, ny = zg.bit_count(), xg.bit_count(), yg.bit_count()
            gpiv = zg if nz >= nx and nz >= ny else xg if nx >= ny else yg
            diagonalize_qubit(state, gpiv, pivot)
            disconnect(state, pivot, pick_neighbor(state, pivot, g, gpiv, act), gpiv)
            rest, rm, ids, idm = _split(state, g, gm, pivot)  # the steps above emit no rz
            if rest:
                stack.append((rest, rm, pivot, act))
            if ids:
                stack.append((ids, idm, -1, act ^ 1 << pivot))
        if state.debug:
            _check_invariant(state)


def partition_commuting_sets(poly: PauliPolynomial) -> list[list[int]]:
    """Greedy in-order grouping into mutually commuting sets.

    A gadget joins the earliest set such that it commutes with every member
    of that set and of all later sets (so reordering across set boundaries
    never changes the operator); otherwise it opens a new set.  Gadget i's
    anticommutation mask, bit j for each gadget j it anticommutes with, is
    the symplectic product of the bit columns: the XOR of ``z[w]`` over the
    wires w where i has an X part and of ``x[w]`` where it has a Z part.  So
    each set scanned costs one AND with its member mask.
    """
    cols = PauliColumns.from_texts([str(g.string) for g in poly.gadgets], poly.num_qubits)
    sets: list[list[int]] = []
    members: list[int] = []  # bit j for gadget j, per set
    for i in range(len(poly.gadgets)):
        clash = 0
        for xw, zw in zip(cols.x, cols.z):
            if xw >> i & 1:
                clash ^= zw
            if zw >> i & 1:
                clash ^= xw
        target = len(sets)
        while target and not members[target - 1] & clash:
            target -= 1
        if target == len(sets):
            sets.append([])
            members.append(0)
        sets[target].append(i)
        members[target] |= 1 << i
    return sets


def _check_args(poly, topo, cfg) -> SynthConfig:
    """``cfg``, after a ``ValueError`` naming an argument of the wrong type,
    or a polynomial and a topology with different qubit counts."""
    _check_type("poly", poly, PauliPolynomial)
    _check_type("topo", topo, Topology)
    _check_type("cfg", cfg, SynthConfig)
    if poly.num_qubits != topo.num_qubits:
        raise ValueError(
            f"polynomial has {poly.num_qubits} qubits but topology has {topo.num_qubits}")
    return cfg


def synthesize(poly: PauliPolynomial, topo: Topology,
               cfg: SynthConfig | None = None) -> SynthesisResult:
    """Compile a Pauli polynomial to a conforming circuit plus output permutation."""
    cfg = _check_args(poly, topo, SynthConfig() if cfg is None else cfg)
    state = _State(poly, topo, cfg)
    if cfg.mode == "commuting-sets":
        gadget_sets = partition_commuting_sets(poly)
    else:
        gadget_sets = [list(range(len(poly.gadgets)))]
    for gset in gadget_sets:
        _run_recursion(state, gset)
    if len(state.emitted) != len(poly.gadgets):
        raise AssertionError("synthesis left live gadgets")
    recursion_gates = len(state.gates)
    tab_circuit, perm = synthesize_tableau(state.tableau, topo, cfg.allow_permutation)
    circ = Circuit(poly.num_qubits, tuple(state.gates) + tab_circuit.gates)
    return SynthesisResult(circ, state.emitted, perm, metrics(circ), recursion_gates)


def naive_synthesize(poly: PauliPolynomial, topo: Topology) -> SynthesisResult:
    """Per-gadget Steiner-ladder baseline in the original order, no reordering.

    Each gadget is diagonalized, fanned into its lowest leg by the Z
    ``steiner_ladder`` over all wires, rotated there, and exactly undone.
    """
    _check_args(poly, topo, SynthConfig())
    q = poly.num_qubits
    gates: list[Gate] = []
    for gadget in poly.gadgets:
        letters = gadget.string.letters
        legs = [i for i, p in enumerate(letters) if p != Pauli.I]
        if not legs:
            continue
        pre = [TO_Z[letters[j]](j) for j in legs if letters[j] in TO_Z]
        root = legs[0]
        ladder: list[Gate] = []
        steiner_ladder(topo, sum(1 << j for j in legs), root, (1 << q) - 1, True, ladder.append)
        gates.extend(pre)
        gates.extend(ladder)
        gates.append(rz(gadget.angle, root))
        gates.extend(g.adjoint() for g in reversed(ladder))
        gates.extend(g.adjoint() for g in reversed(pre))
    circ = Circuit(q, tuple(gates))
    return SynthesisResult(circ, list(range(len(poly.gadgets))),
                           QubitPermutation.identity(q), metrics(circ), len(gates))


def _check_invariant(state: _State) -> None:
    """Exact check of the running decomposition (debug toggle, any size).

    ``PauliColumns.push_through`` pushes the original gadgets and the
    generators X_r, Z_r through ``state.gates``, matching the rotations to
    the emitted gadgets.  The generators must land on ``state.tableau``'s
    columns (U's images of X_r and Z_r, kept by ``prepend``), and every live
    gadget on its bits and sign in the store.

    The pushed columns persist on the state with a cursor: the gates pushed,
    the ``state.emitted`` entries matched, the last pushed gate and the mask
    of those entries.  So each check pushes only the gates emitted since the
    last one.  It starts again from the original Paulis when ``state.gates``
    (or ``state.emitted``) is shorter than the cursor, when the gate at the
    cursor is not the very object pushed last, or when the last check raised
    (a check that raises leaves no cursor behind).
    """
    q, gadgets, n = state.poly.num_qubits, state.poly.gadgets, len(state.poly)
    gates, emitted = state.gates, state.emitted
    cursor, state._invariant = state._invariant, None
    if cursor is not None:
        cols, pushed, matched, last, done = cursor
        if (len(gates) < pushed or len(emitted) < matched
                or pushed and gates[pushed - 1] is not last):
            cursor = None
    if cursor is None:
        cols = PauliColumns.with_generators([str(g.string) for g in gadgets], q)
        pushed = matched = done = 0
    new = emitted[matched:]
    # Pauli.I is 0, so any() skips the identity gadgets, which emit no rz.
    order = [i for i in new if any(gadgets[i].string.letters)]
    inv = _inverse_columns(state.tableau)
    if not (cols.push_through(gates[pushed:], order, [gadgets[i].angle for i in order], 1e-9)
            and [col >> n for col in cols.x] == inv.x and [col >> n for col in cols.z] == inv.z
            and cols.signs >> n == inv.signs):
        raise AssertionError("synthesis invariant violated: emitted gates")
    done |= sum(1 << i for i in new)
    bad = cols.signs ^ state.signs
    for j in range(q):
        bad |= cols.x[j] ^ state.x[j] | cols.z[j] ^ state.z[j]
    bad &= (1 << n) - 1 & ~done
    if bad:
        raise AssertionError(
            f"synthesis invariant violated: live gadget {(bad & -bad).bit_length() - 1}")
    state._invariant = (cols, len(gates), len(emitted), gates[-1] if gates else None, done)
