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
``W_t = P(perm) * U(E)``.  It peels a copy of t, prepending each gate's
adjoint, and picks gates on the copy's inverse ``U(E) * W_t^``, read from
the rows by ``M^-1 = Omega M^T Omega``: for k' = k+q (k < q) or k-q, row k
of the inverse has X bit ``rows[q+j] >> k' & 1`` and Z bit
``rows[j] >> k' & 1`` on wire j (``_inverse_row``: two wire masks).  Each
row is folded onto one wire by a ``steiner_ladder`` of CNOTs on device edges
(Kissinger and Meijer-van de Griend, arXiv:1904.00633).  Once the inverse's
row pair r is X_c, Z_c, the copy maps X_c, Z_c to X_r, Z_r with the same
signs, ``signs[c]`` and ``signs[q+c]``; at the end the copy is the permutation.

``replay_rotations`` reads a Clifford+Rz gate list in Pauli-rotation form
with the same ``prepend`` path; it is the debug invariant's replay
(``synth._check_invariant``), independent of the column rules of
``paulis.conjugate_bits`` that ``bench.check_result`` uses.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .circuit import Circuit
from .paulis import XZ_LETTER, Gate, Pauli, PauliGadget, _check_int, _is_int, cx, h, s, sdg, v
from .topology import Topology, _bits, tree_postorder


def _product_phase(r1: int, r2: int, q: int) -> int:
    """Power of i in P(r1) * P(r2) = i^p * P(r1 ^ r2), for rows of q wires
    (2q bits, so ``r >> q`` is the Z part and needs no mask)."""
    r3 = r1 ^ r2
    return ((r1 & (r1 >> q)).bit_count() + (r2 & (r2 >> q)).bit_count()
            + 2 * ((r1 >> q) & r2).bit_count() - (r3 & (r3 >> q)).bit_count())


def pauli_row(letters: Sequence[Pauli]) -> int:
    """Row int of a Pauli word: X bit j, then Z bit q+j."""
    q = len(letters)
    return sum((p in (Pauli.X, Pauli.Y)) << j | (p in (Pauli.Y, Pauli.Z)) << (q + j)
               for j, p in enumerate(letters))


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
        self._prepend(gate)

    def _prepend(self, gate: Gate) -> None:
        """``prepend`` of a gate known to be Clifford: the peel's gate action."""
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
        row = self.rows[r]
        return XZ_LETTER[(row >> wire & 1) | (row >> (self.num_qubits + wire) & 1) << 1]

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


def replay_rotations(num_qubits: int, gates: Iterable[Gate],
                     gadgets: Sequence[PauliGadget], tol: float) -> CliffordTableau | None:
    """Match a Clifford+Rz gate list against a gadget product, exactly.

    The gates equal ``C * prod_i exp(-i*a_i/2 * P_i)`` (first rotation acting
    first): ``prepend(g.adjoint())`` per Clifford gate builds the tableau of
    ``C^`` so far, and an ``rz(theta)`` on wire j is ``P_i`` = row q+j at that
    point with ``a_i = theta * (row sign)``.  The rotations must be the
    non-identity ``gadgets`` one for one and in order, letters exactly and
    angles within ``tol``.  Returns the tableau of ``C^``, or None on a
    mismatch.
    """
    q = num_qubits
    targets = [g for g in gadgets if g.string.legs()]
    rows = [pauli_row(g.string.letters) for g in targets]
    t = CliffordTableau(q)
    k = 0
    for g in gates:
        if g.is_clifford:
            t.prepend(g.adjoint())
            continue
        if k == len(targets):
            return None
        row = q + g.qubits[0]
        angle = -g.angle if t.signs[row] else g.angle
        # Compared with <= so that a NaN angle fails too.
        if not (t.rows[row] == rows[k] and abs(angle - targets[k].angle) <= tol):
            return None
        k += 1
    return t if k == len(targets) else None


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


def _inverse_supports(t: CliffordTableau) -> list[int]:
    """``_row_supports(t.inverse())``, read from t's rows by one bit-matrix
    transpose: bit j of ``supp[k']`` is bit k' of ``rows[j] | rows[q+j]``."""
    q = t.num_qubits
    text = [format(t.rows[j] | t.rows[q + j], f"0{2 * q}b") for j in range(q)]
    supp = [int("".join(bits)[::-1], 2) for bits in zip(*text)][::-1]
    return supp[q:] + supp[:q]


def _inverse_row(t: CliffordTableau, k: int) -> tuple[int, int]:
    """X and Z wire masks of row k of ``t.inverse()``, read from t's rows."""
    q, rows = t.num_qubits, t.rows
    b = k + q if k < q else k - q
    return (sum((rows[q + j] >> b & 1) << j for j in range(q)),
            sum((rows[j] >> b & 1) << j for j in range(q)))


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


def _reduce_pair(work: CliffordTableau, r: int, c: int, act: int,
                 topo: Topology, emit) -> None:
    """Emit gates until row pair r of ``work.inverse()`` is X_c, Z_c with +
    signs (``work`` maps X_c, Z_c to X_r, Z_r); it commutes with the finished
    pairs, so its legs lie on the active wires (mask ``act``)."""
    q = work.num_qubits

    # X image -> X on its legs (h on Z, sdg on Y) -> single X on wire c.
    x, z = _inverse_row(work, r)
    for j in _bits(z):
        emit(sdg(j) if x >> j & 1 else h(j))
    steiner_ladder(topo, x | z, c, act, False, emit)

    # Z image -> single Z on wire c, leaving X_c intact (gates with c as CNOT
    # target or diagonal-preserving on c only).
    x, z = _inverse_row(work, q + r)
    if x >> c & 1:  # Y on the root, emitted before the other wires
        emit(v(c))
    elif not z >> c & 1:
        raise AssertionError("anticommutation forces Z or Y on the target wire")
    for j in _bits(x & ~(1 << c)):
        emit(v(j) if z >> j & 1 else h(j))
    steiner_ladder(topo, x | z, c, act, True, emit)

    # Clear residual signs on the finished pair, acting on the new register.
    if work.signs[c]:
        emit(s(c))
        emit(s(c))
    if work.signs[q + c]:
        emit(v(c))
        emit(v(c))


def synthesize_tableau(t: CliffordTableau, topo: Topology,
                       allow_permutation: bool = True
                       ) -> tuple[Circuit, QubitPermutation]:
    """Emit a conforming circuit E and permutation with W_t = P(perm) * U(E).

    Gates are generated by peeling a copy of t down to a permutation matrix
    with all-zero signs (the identity when ``allow_permutation=False``):
    the copy takes ``prepend(gate.adjoint())`` for each gate of E in order.
    t itself is left unchanged.
    """
    q = t.num_qubits
    if topo.num_qubits != q:
        raise ValueError("topology size does not match tableau")
    if not isinstance(allow_permutation, bool):
        raise ValueError(f"allow_permutation must be a bool, got {allow_permutation!r}")
    if not t.is_symplectic():
        raise ValueError("tableau matrix is not symplectic")
    work = t.copy()
    gates: list[Gate] = []

    def emit(gate: Gate) -> None:
        gates.append(gate)
        work._prepend(gate.adjoint())

    act = rows_left = (1 << q) - 1  # bit c: wire c active, bit r: row pair r left
    while rows_left:
        supp = _inverse_supports(work)
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

    perm = work.residual_permutation()
    if perm is None:
        raise AssertionError("tableau reduction did not reach a clean permutation")
    return Circuit(q, tuple(gates)), QubitPermutation(tuple(perm))
