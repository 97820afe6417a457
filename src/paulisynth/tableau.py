"""Clifford tableaus over GF(2) and their architecture-aware synthesis.

One layout: a Clifford W is stored as the images of the generators under
its inverse, Paulis 0..2q-1 of one ``paulis.PauliColumns``: Pauli r < q is
``W^ X_r W`` and Pauli q+r is ``W^ Z_r W``, with signs.  Bit k of the X (Z)
column of wire j is Pauli k's X (Z) component there (I=(0,0), X=(1,0),
Z=(0,1), Y=(1,1)).

``prepend(g)`` realizes ``W -> W * W_g`` (gate applied before the tableau):
``W^`` becomes ``g^ W^``, so every stored Pauli is conjugated by g^, one
``PauliColumns.conjugate`` call (the package's one rule set) on whole columns.

W's own images are read-only views.  By ``M^-1 = Omega M^T Omega``, row j
(``W X_j W^``) is wire j's Z column with its halves swapped and row q+j
(``W Z_j W^``) is wire j's X column swapped; bit j < q of a row is the X
component on wire j, bit q+j the Z component.  Their signs are those of
``inverse()``, which pushes the generators through W's own peel.

``synthesize_tableau`` emits a conforming circuit E and a permutation with
``W_t = P(perm) * U(E)``.  It pushes a copy of t's columns, the images
``U(E) W_t^ P W_t U(E)^``, through each emitted gate g (``P -> g P g^``).
Pauli pair r, bit r of every column, is folded onto one wire by a
``steiner_ladder`` of CNOTs on device edges (Kissinger and Meijer-van de
Griend, arXiv:1904.00633); at the end wire c holds pair ``perm[c]`` with +
signs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from .circuit import Circuit
from .paulis import (XZ_LETTER, Gate, Pauli, PauliColumns, _check_int, _check_type, _is_int, cx,
                     h, s, sdg, v)
from .topology import Topology, _bits, tree_postorder


@dataclass(frozen=True)
class QubitPermutation:
    """Output relabelling: output wire i carries logical qubit mapping[i].

    A circuit with this permutation satisfies ``U_poly = P(mapping) @
    U_circuit`` (``verify.permutation_operator``), so logical qubit i ends on
    the wire j with ``mapping[j] == i``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.mapping, Iterable):
            raise ValueError(f"mapping must be an iterable of integers, got {self.mapping!r}")
        mapping = tuple(self.mapping)  # an iterator can be read only once
        if not all(map(_is_int, mapping)):
            raise ValueError(f"permutation entries must be integers, got {self.mapping}")
        object.__setattr__(self, "mapping", tuple(map(int, mapping)))
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"not a permutation: {self.mapping}")

    @classmethod
    def identity(cls, q: int) -> "QubitPermutation":
        return cls(tuple(range(q)))

    def __getitem__(self, i: int) -> int:
        return self.mapping[i]

    def __len__(self) -> int:
        return len(self.mapping)

    @property
    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.mapping))


class CliffordTableau:
    """A Clifford W, kept as its inverse's generator images in bit columns
    (see the module docstring); ``rows`` and ``signs`` are W's own."""

    def __init__(self, num_qubits: int):
        _check_int("num_qubits", num_qubits, 1)
        self.num_qubits = q = int(num_qubits)  # masks need Python ints
        self._cols = PauliColumns([1 << j for j in range(q)], [1 << (q + j) for j in range(q)])

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CliffordTableau":
        t = cls(circuit.num_qubits)
        for g in reversed(circuit.gates):
            t.prepend(g)
        return t

    def copy(self) -> "CliffordTableau":
        t = CliffordTableau(self.num_qubits)
        t._cols = _inverse_columns(self)
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return False
        a, b = self._cols, other._cols
        return self.num_qubits == other.num_qubits and (a.x, a.z, a.signs) == (b.x, b.z, b.signs)

    # -- gate actions --------------------------------------------------------

    def prepend(self, gate: Gate) -> None:
        """Apply ``gate`` before this Clifford: conjugate the columns by its
        adjoint (a rotation is rejected there)."""
        self._cols.conjugate(gate.adjoint())

    # -- queries -------------------------------------------------------------

    @property
    def rows(self) -> tuple[int, ...]:
        """Row r < q is ``W X_r W^`` and row q+r is ``W Z_r W^``, sign-free."""
        q = self.num_qubits
        m = (1 << q) - 1
        return tuple(col >> q | (col & m) << q for col in self._cols.z + self._cols.x)

    @property
    def signs(self) -> tuple[int, ...]:
        """Sign bit of each row, from ``inverse()``: a peel per access, so read once."""
        signs = self.inverse()._cols.signs
        return tuple(signs >> r & 1 for r in range(2 * self.num_qubits))

    def row_letter(self, r: int, wire: int) -> Pauli:
        """Letter of row r (image of X_r, or of Z_{r-q} for r >= q) on ``wire``."""
        q = self.num_qubits
        if not (_is_int(r) and 0 <= r < 2 * q and _is_int(wire) and 0 <= wire < q):
            raise ValueError(f"row_letter needs a row in 0..{2 * q - 1} and a wire in "
                             f"0..{q - 1}, got ({r!r}, {wire!r})")
        col = self._cols.z[r] if r < q else self._cols.x[r - q]  # row r, halves swapped
        return XZ_LETTER[(col >> (q + wire) & 1) | (col >> wire & 1) << 1]

    def is_symplectic(self) -> bool:
        """Rows r and q+r anticommute; every other pair commutes."""
        q = self.num_qubits
        m = (1 << q) - 1
        rows = self.rows
        for a, ra in enumerate(rows):
            for b in range(a + 1, 2 * q):
                form = (((ra & (rows[b] >> q)) ^ ((ra >> q) & rows[b])) & m).bit_count() & 1
                if form != (b == a + q):
                    return False
        return True

    def inverse(self) -> "CliffordTableau":
        """Tableau of the adjoint: W's peel with no permutation gives W = U(E), and
        the generators pushed through E are ``W X_r W^``, ``W Z_r W^``, signed."""
        q = self.num_qubits
        inv = CliffordTableau(q)
        for g in synthesize_tableau(self, _complete(q), False)[0].gates:
            inv._cols.conjugate(g)
        return inv

    def residual_permutation(self) -> list[int] | None:
        """If this tableau is a permutation with zero signs, return row->wire."""
        q = self.num_qubits
        # A permutation maps X_c to +-X_r and back with the same sign, so its
        # rows have no sign exactly when its columns have none.
        if self._cols.signs:
            return None
        rows = self.rows
        perm = [max(rows[r].bit_length() - 1, 0) for r in range(q)]
        if any(rows[r] != 1 << c or rows[q + r] != 1 << (q + c) for r, c in enumerate(perm)):
            return None
        return perm if sorted(perm) == list(range(q)) else None

    @property
    def is_identity(self) -> bool:
        return self.residual_permutation() == list(range(self.num_qubits))


@lru_cache(maxsize=16)
def _complete(q: int) -> Topology:
    """The complete device on q wires, built once per q for ``inverse``'s peel."""
    return Topology.complete(q)


def _interaction_cost(supp: list[int], r: int) -> int:
    return supp[r].bit_count() + supp[len(supp) // 2 + r].bit_count()


def _distance_cost(supp: list[int], c: int, topo: Topology) -> int:
    """Sum of the distances from wire c to the wires of row pair c, one
    popcount per distance ring of c."""
    x, z = supp[c], supp[len(supp) // 2 + c]
    return sum(d * ((ring & x).bit_count() + (ring & z).bit_count())
               for d, ring in enumerate(topo._rings[c]))


def _row_supports(t: CliffordTableau) -> list[int]:
    """Per row of t, the wires where its Pauli is not I, as a bitset."""
    q = t.num_qubits
    return [(row | row >> q) & ((1 << q) - 1) for row in t.rows]


def _inverse_columns(t: CliffordTableau) -> PauliColumns:
    """A copy of t's columns: Paulis r and q+r are ``W^ X_r W`` and ``W^ Z_r W``."""
    cols = t._cols
    return PauliColumns(list(cols.x), list(cols.z), cols.signs)


def _wire_masks(work: PauliColumns, r: int) -> tuple[int, int]:
    """X and Z wire masks of Pauli r: bit j is bit r of column j."""
    return (sum((col >> r & 1) << j for j, col in enumerate(work.x)),
            sum((col >> r & 1) << j for j, col in enumerate(work.z)))


def _supports(work: PauliColumns) -> list[int]:
    """Per Pauli of ``work``, the wires where it is not I, as a bitset, by one
    bit-matrix transpose: bit j of ``supp[k]`` is bit k of ``x[j] | z[j]``."""
    width = 2 * len(work.x)
    text = [format(x | z, f"0{width}b") for x, z in zip(work.x, work.z)]
    return [int("".join(bits)[::-1], 2) for bits in zip(*text)][::-1]


def _check_tableau(t, *topo) -> int:
    """t's qubit count, after a ValueError unless t is a ``CliffordTableau``
    and the topology, if one is given, a ``Topology`` of its size."""
    _check_type("t", t, CliffordTableau)
    for device in topo:
        _check_type("topo", device, Topology)
        if device.num_qubits != t.num_qubits:
            raise ValueError("topology size does not match tableau")
    return t.num_qubits


def _check_pair(r, q: int) -> None:
    if not (_is_int(r) and 0 <= r < q):
        raise ValueError(f"row pair must be an integer in 0..{q - 1}, got {r!r}")


def row_interaction_cost(t: CliffordTableau, r: int) -> int:
    """Number of wires touched by the X and Z images of logical qubit r."""
    _check_pair(r, _check_tableau(t))
    return _interaction_cost(_row_supports(t), r)


def column_distance_cost(t: CliffordTableau, c: int, topo: Topology) -> int:
    """Distance-weighted spread of the row pair at index c."""
    _check_pair(c, _check_tableau(t, topo))
    return _distance_cost(_row_supports(t), c, topo)


def steiner_ladder(topo: Topology, legs: int, root: int, act: int, z: bool, emit) -> None:
    """Emit CNOTs on edges among the active wires (mask ``act``) that fold X
    on every wire of mask ``legs`` (Z if ``z``) into X (Z) on ``root`` alone.
    In postorder along a Steiner tree of the legs and the root, each leg is
    copied onto its parent if that has none, then cleared; none is read again."""
    tree = topo.steiner_tree(legs | 1 << root, act)
    for child, parent in tree_postorder(tree, root):
        if not legs >> child & 1:
            continue
        if not legs >> parent & 1:
            emit(cx(parent, child) if z else cx(child, parent))
            legs |= 1 << parent
        emit(cx(child, parent) if z else cx(parent, child))


def _reduce_pair(work: PauliColumns, r: int, c: int, act: int,
                 topo: Topology, emit) -> None:
    """Emit gates until Pauli pair r of ``work`` is X_c, Z_c with + signs; it
    commutes with the finished pairs, so its legs lie on the active wires
    (mask ``act``)."""
    q = len(work.x)

    # X image -> X on its legs (h on Z, sdg on Y) -> single X on wire c.
    x, z = _wire_masks(work, r)
    for j in _bits(z):
        emit(sdg(j) if x >> j & 1 else h(j))
    steiner_ladder(topo, x | z, c, act, False, emit)

    # Z image -> single Z on wire c, leaving X_c intact (gates with c as CNOT
    # target or diagonal-preserving on c only).
    x, z = _wire_masks(work, q + r)
    if x >> c & 1:  # Y on the root, emitted before the other wires
        emit(v(c))
    elif not z >> c & 1:
        raise AssertionError("anticommutation forces Z or Y on the target wire")
    for j in _bits(x & ~(1 << c)):
        emit(v(j) if z >> j & 1 else h(j))
    steiner_ladder(topo, x | z, c, act, True, emit)

    # Clear the pair's residual signs: Z_c flips X_c, X_c flips Z_c.
    if work.signs >> r & 1:
        emit(s(c))
        emit(s(c))
    if work.signs >> (q + r) & 1:
        emit(v(c))
        emit(v(c))


def synthesize_tableau(t: CliffordTableau, topo: Topology,
                       allow_permutation: bool = True
                       ) -> tuple[Circuit, QubitPermutation]:
    """Emit a conforming circuit E and permutation with W_t = P(perm) * U(E).

    A copy of t's columns is pushed through each gate of E in turn until it
    is a permutation of the generators with + signs (the identity if
    ``allow_permutation=False``).  t is left unchanged.
    """
    q = _check_tableau(t, topo)
    _check_type("allow_permutation", allow_permutation, bool)
    if not t.is_symplectic():
        raise ValueError("tableau matrix is not symplectic")
    work = _inverse_columns(t)
    gates: list[Gate] = []

    def emit(gate: Gate) -> None:
        gates.append(gate)
        work.conjugate(gate)

    act = rows_left = (1 << q) - 1  # bit c: wire c active, bit r: row pair r left
    while rows_left:
        supp = _supports(work)
        # min and the stable sort keep index order among equal costs, so ties
        # go to the lowest index; wires are cut-tested in cost order, up to
        # the first non-cutting one.
        if allow_permutation:
            r = min(_bits(rows_left), key=lambda rr: _interaction_cost(supp, rr))
            wires = sorted(_bits(act), key=lambda cc: _distance_cost(supp, cc, topo))
        else:  # rows_left == act
            wires = sorted(_bits(act), key=lambda rr: _interaction_cost(supp, rr))
        c = next(j for j in wires if topo.is_non_cutting(j, act))
        if not allow_permutation:
            r = c
        _reduce_pair(work, r, c, act, topo, emit)
        act ^= 1 << c
        rows_left ^= 1 << r

    # Wire c holds X and Z of the row pair perm[c], with + signs.
    perm = [x.bit_length() - 1 for x in work.x]
    if (work.signs or work.x != [1 << r for r in perm]
            or work.z != [1 << (q + r) for r in perm] or sorted(perm) != list(range(q))):
        raise AssertionError("tableau reduction did not reach a clean permutation")
    return Circuit(q, tuple(gates)), QubitPermutation(tuple(perm))
