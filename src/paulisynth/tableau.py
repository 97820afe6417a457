"""Clifford tableaus over GF(2) and their architecture-aware synthesis.

One layout: 2q rows as Python ints plus 2q sign bits for a Clifford W.
Row r < q stores the image ``W X_r W^`` and row q+r stores ``W Z_r W^`` as a
signed Pauli; bit j < q of a row is the X component on wire j, bit q+j the Z
component (I=(0,0), X=(1,0), Z=(0,1), Y=(1,1)).

``prepend(g)`` realizes ``W -> W * W_g`` (gate applied before the tableau)
as row products, O(1) per gate (Aaronson-Gottesman, quant-ph/0406196).
With ``P(x, z) = i^|x&z| X^x Z^z`` (Hermitian, Y = iXZ),

    P(x1, z1) * P(x2, z2) = i^(|x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3|) * P(x3, z3)

for ``(x3, z3) = (x1^x2, z1^z2)``, so a row product costs four popcounts.

``synthesize_tableau`` emits a conforming circuit E and a permutation with
``W_t = P(perm) * U(E)``.  It peels the rows of ``U(E) * W_t^`` as Paulis in
bit columns: by ``M^-1 = Omega M^T Omega``, wire j's X and Z columns start as
rows q+j and j of t with their halves swapped (``_inverse_columns``; only the
signs need ``inverse``), and each emitted gate g maps P to ``g P g^`` by
``paulis.conjugate_bits``.  Row r, bit r of every column, is folded onto one
wire by a ``steiner_ladder`` of CNOTs on device edges (Kissinger and
Meijer-van de Griend, arXiv:1904.00633); at the end wire c holds row pair
``perm[c]`` with + signs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit
from .paulis import (XZ_LETTER, Gate, Pauli, PauliColumns, _check_int, _is_int, cx, h, s,
                     sdg, v)
from .topology import Topology, _bits, tree_postorder


def _product_phase(r1: int, r2: int, q: int) -> int:
    """Power of i in P(r1) * P(r2) = i^p * P(r1 ^ r2), for rows of q wires
    (2q bits, so ``r >> q`` is the Z part and needs no mask)."""
    r3 = r1 ^ r2
    return ((r1 & (r1 >> q)).bit_count() + (r2 & (r2 >> q)).bit_count()
            + 2 * ((r1 >> q) & r2).bit_count() - (r3 & (r3 >> q)).bit_count())


@dataclass(frozen=True)
class QubitPermutation:
    """Output relabelling: output wire i carries logical qubit mapping[i].

    A circuit with this permutation satisfies ``U_poly = P(mapping) @
    U_circuit`` (``verify.permutation_operator``), so logical qubit i ends on
    the wire j with ``mapping[j] == i``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        if not all(map(_is_int, self.mapping)):
            raise ValueError(f"permutation entries must be integers, got {self.mapping}")
        object.__setattr__(self, "mapping", tuple(map(int, self.mapping)))
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
    def __init__(self, num_qubits: int):
        _check_int("num_qubits", num_qubits, 1)
        self.num_qubits = num_qubits
        self.rows = [1 << r for r in range(2 * num_qubits)]
        self.signs = [0] * (2 * num_qubits)

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CliffordTableau":
        t = cls(circuit.num_qubits)
        for g in reversed(circuit.gates):
            t.prepend(g)
        return t

    def copy(self) -> "CliffordTableau":
        t = CliffordTableau(self.num_qubits)
        t.rows = list(self.rows)
        t.signs = list(self.signs)
        return t

    def __eq__(self, other) -> bool:
        return (isinstance(other, CliffordTableau)
                and self.num_qubits == other.num_qubits
                and self.rows == other.rows and self.signs == other.signs)

    def _row_product(self, dest: int, a: int, b: int, extra: int) -> None:
        """dest := i^extra * image(a) * image(b); extra makes the result Hermitian."""
        rows, signs = self.rows, self.signs
        p = (extra + _product_phase(rows[a], rows[b], self.num_qubits)
             + 2 * (signs[a] + signs[b]))
        if p & 1:
            raise AssertionError("non-Hermitian image in tableau row update")
        rows[dest] = rows[a] ^ rows[b]
        signs[dest] = (p >> 1) & 1

    # -- gate actions --------------------------------------------------------

    def prepend(self, gate: Gate) -> None:
        """Row action of applying ``gate`` before this Clifford."""
        if not gate.is_clifford:
            raise ValueError("tableaus track Clifford gates only")
        q = self.num_qubits
        k = gate.kind
        if k == "h":
            i = gate.qubits[0]
            rows, signs = self.rows, self.signs
            rows[i], rows[q + i] = rows[q + i], rows[i]
            signs[i], signs[q + i] = signs[q + i], signs[i]
        elif k in ("s", "sdg"):
            i = gate.qubits[0]
            self._row_product(i, i, q + i, extra=1 if k == "s" else 3)
        elif k in ("v", "vdg"):
            i = gate.qubits[0]
            self._row_product(q + i, i, q + i, extra=3 if k == "v" else 1)
        else:  # cx
            c, t = gate.qubits
            self._row_product(c, c, t, extra=0)
            self._row_product(q + t, q + c, q + t, extra=0)

    # -- queries -------------------------------------------------------------

    def row_letter(self, r: int, wire: int) -> Pauli:
        """Letter of row r (image of X_r, or of Z_{r-q} for r >= q) on ``wire``."""
        q = self.num_qubits
        if not (_is_int(r) and 0 <= r < 2 * q and _is_int(wire) and 0 <= wire < q):
            raise ValueError(f"row_letter needs a row in 0..{2 * q - 1} and a wire in "
                             f"0..{q - 1}, got ({r!r}, {wire!r})")
        row = self.rows[r]
        return XZ_LETTER[(row >> wire & 1) | (row >> (q + wire) & 1) << 1]

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

    def conjugate_vector(self, row: int) -> tuple[int, bool]:
        """Image of the sign-free Pauli with row int ``row``: (row, sign)."""
        q = self.num_qubits
        m = (1 << q) - 1
        phase = (row & m & (row >> q)).bit_count()
        acc = 0
        for b in [b for b in range(2 * q) if row >> b & 1]:  # X^x first, then Z^z
            phase += _product_phase(acc, self.rows[b], q) + 2 * self.signs[b]
            acc ^= self.rows[b]
        if phase & 1:
            raise AssertionError("non-Hermitian conjugation result")
        return acc, bool(phase & 2)

    def inverse(self) -> "CliffordTableau":
        """Tableau of the adjoint Clifford: the symplectic transpose, with
        signs from conjugating each new row back."""
        q = self.num_qubits
        swap = [r + q if r < q else r - q for r in range(2 * q)]
        inv = CliffordTableau(q)
        for r in range(2 * q):
            bit = swap[r]
            inv.rows[r] = sum((self.rows[swap[c]] >> bit & 1) << c for c in range(2 * q))
            img, sign = self.conjugate_vector(inv.rows[r])
            if img != 1 << r:
                raise AssertionError("tableau inverse is inconsistent")
            inv.signs[r] = int(sign)
        return inv

    def residual_permutation(self) -> list[int] | None:
        """If this tableau is a permutation with zero signs, return row->wire."""
        q = self.num_qubits
        if any(self.signs):
            return None
        perm = [max(self.rows[r].bit_length() - 1, 0) for r in range(q)]
        if any(self.rows[r] != 1 << c or self.rows[q + r] != 1 << (q + c)
               for r, c in enumerate(perm)):
            return None
        return perm if sorted(perm) == list(range(q)) else None

    @property
    def is_identity(self) -> bool:
        return self.residual_permutation() == list(range(self.num_qubits))


def _interaction_cost(supp: list[int], r: int) -> int:
    return supp[r].bit_count() + supp[len(supp) // 2 + r].bit_count()


def _distance_cost(supp: list[int], c: int, topo: Topology) -> int:
    d = topo.dist[c].tolist()
    return sum(d[j] for row in (supp[c], supp[len(supp) // 2 + c]) for j in range(len(d))
               if row >> j & 1)


def _row_supports(t: CliffordTableau) -> list[int]:
    """Per row of t, the wires where its Pauli is not I, as a bitset."""
    q = t.num_qubits
    return [(row | row >> q) & ((1 << q) - 1) for row in t.rows]


def _inverse_columns(t: CliffordTableau) -> PauliColumns:
    """The rows of ``t.inverse()`` as Paulis 0..2q-1 in bit columns: wire j's
    X (Z) column is row q+j (j) of t with its halves swapped."""
    q = t.num_qubits
    swapped = [row >> q | (row & (1 << q) - 1) << q for row in t.rows]
    signs = sum(sign << k for k, sign in enumerate(t.inverse().signs))
    return PauliColumns(swapped[q:], swapped[:q], signs)


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


def row_interaction_cost(t: CliffordTableau, r: int) -> int:
    """Number of wires touched by the X and Z images of logical qubit r."""
    return _interaction_cost(_row_supports(t), r)


def column_distance_cost(t: CliffordTableau, c: int, topo: Topology) -> int:
    """Distance-weighted spread of the row pair at index c."""
    return _distance_cost(_row_supports(t), c, topo)


def steiner_ladder(topo: Topology, legs: int, root: int, act: int, z: bool, emit) -> None:
    """Emit CNOTs on edges among the active wires (mask ``act``) that fold X
    on every wire of mask ``legs`` (Z if ``z``) into X (Z) on ``root`` alone.
    In postorder along a Steiner tree of the legs and the root, each leg is
    copied onto its parent if that has none, then cleared; none is read again."""
    tree = topo.steiner_tree(_bits(legs | 1 << root), _bits(act))
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

    The rows of ``t.inverse()`` are pushed through each gate of E in turn
    until they are a permutation of the generators with + signs (the
    identity if ``allow_permutation=False``).  t is left unchanged.
    """
    q = t.num_qubits
    if topo.num_qubits != q:
        raise ValueError("topology size does not match tableau")
    if not isinstance(allow_permutation, bool):
        raise ValueError(f"allow_permutation must be a bool, got {allow_permutation!r}")
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
        # min keeps the first, so ties go to the lowest index.
        free = [j for j in _bits(act) if topo.is_non_cutting(j, act)]
        if allow_permutation:
            r = min(_bits(rows_left), key=lambda rr: _interaction_cost(supp, rr))
            c = min(free, key=lambda cc: _distance_cost(supp, cc, topo))
        else:  # rows_left == act
            r = c = min(free, key=lambda rr: _interaction_cost(supp, rr))
        _reduce_pair(work, r, c, act, topo, emit)
        act ^= 1 << c
        rows_left ^= 1 << r

    # Wire c holds X and Z of the row pair perm[c], with + signs.
    perm = [x.bit_length() - 1 for x in work.x]
    if (work.signs or work.x != [1 << r for r in perm]
            or work.z != [1 << (q + r) for r in perm] or sorted(perm) != list(range(q))):
        raise AssertionError("tableau reduction did not reach a clean permutation")
    return Circuit(q, tuple(gates)), QubitPermutation(tuple(perm))
