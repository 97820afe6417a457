"""Clifford tableaus over GF(2) and their architecture-aware synthesis.

Representation: a 2q x 2q bit matrix plus 2q sign bits for a Clifford W.
Row r < q stores the image ``W X_r W^`` and row q+r stores ``W Z_r W^`` as a
signed Pauli; column j < q is the X component on wire j, column q+j the Z
component.

``prepend(g)`` realizes ``W -> W * W_g`` (gate applied before the tableau)
as row operations; ``append(g)`` realizes ``W -> W_g * W`` by conjugating
every stored image.  ``append`` takes its letter and sign rules from
``paulis.CONJ_1Q``/``CONJ_CNOT`` through ``paulis.conjugation_luts``;
``prepend``'s row rules and their sign updates are derived by hand and
re-checked against the dense-matrix oracle in the test suite.

``synthesize_tableau`` emits an architecture-conforming circuit E and an
output permutation ``perm`` such that ``W_t = P(perm) * U(E)``; with
``allow_permutation=False`` the permutation is the identity.

``replay_rotations`` reads a Clifford+Rz gate list in Pauli-rotation form
(Clifford times a product of Pauli exponentials) with the same ``prepend``
path; it is the exact equivalence check at any qubit count.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .paulis import TO_Z, Gate, Pauli, PauliGadget, conjugation_luts, cx, h, s, sdg, v
from .topology import Topology, tree_postorder

# Letter codes internal to the tableau: l = x + 2z, so I=0, X=1, Z=2, Y=3.
# _PHASE[a][b] is the power of i in L(a) * L(b) = i^p * L(a xor b).
_PHASE = np.array([
    [0, 0, 0, 0],
    [0, 0, 3, 1],
    [0, 1, 0, 3],
    [0, 3, 1, 0],
], dtype=np.int64)

# _XZ_ORDER[l] is the Pauli with xz code l.
_XZ_ORDER = (Pauli.I, Pauli.X, Pauli.Z, Pauli.Y)

_APPEND_1Q, _APPEND_CX_L, _APPEND_CX_F = conjugation_luts(_XZ_ORDER)


@dataclass(frozen=True)
class QubitPermutation:
    """Output relabelling: output wire i carries logical qubit mapping[i].

    A circuit with this permutation satisfies ``U_poly = P(mapping) @
    U_circuit`` (``verify.permutation_operator``), so logical qubit i ends on
    wire ``inverse().mapping[i]``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
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

    def inverse(self) -> "QubitPermutation":
        inv = [0] * len(self.mapping)
        for i, p in enumerate(self.mapping):
            inv[p] = i
        return QubitPermutation(tuple(inv))


class CliffordTableau:
    def __init__(self, num_qubits: int):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = num_qubits
        self.mat = np.eye(2 * num_qubits, dtype=bool)
        self.signs = np.zeros(2 * num_qubits, dtype=bool)

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CliffordTableau":
        t = cls(circuit.num_qubits)
        for g in circuit.gates:
            t.append(g)
        return t

    def copy(self) -> "CliffordTableau":
        t = CliffordTableau(self.num_qubits)
        t.mat = self.mat.copy()
        t.signs = self.signs.copy()
        return t

    def __eq__(self, other) -> bool:
        return (isinstance(other, CliffordTableau)
                and self.num_qubits == other.num_qubits
                and bool(np.array_equal(self.mat, other.mat))
                and bool(np.array_equal(self.signs, other.signs)))

    # -- internals ---------------------------------------------------------

    def _codes(self, row: np.ndarray) -> np.ndarray:
        q = self.num_qubits
        return row[:q].astype(np.int8) + 2 * row[q:].astype(np.int8)

    def _row_combine(self, dest: int, a: int, b: int, extra: int) -> None:
        """dest := i^extra * image(a) * image(b); extra makes the result Hermitian."""
        pa = int(_PHASE[self._codes(self.mat[a]), self._codes(self.mat[b])].sum())
        total = (extra + pa + 2 * (int(self.signs[a]) + int(self.signs[b]))) % 4
        if total % 2:
            raise AssertionError("non-Hermitian image in tableau row update")
        self.mat[dest] = self.mat[a] ^ self.mat[b]
        self.signs[dest] = bool(total // 2)

    # -- gate actions --------------------------------------------------------

    def prepend(self, gate: Gate) -> None:
        """Row action of applying ``gate`` before this Clifford."""
        if not gate.is_clifford:
            raise ValueError("tableaus track Clifford gates only")
        q = self.num_qubits
        k = gate.kind
        if k == "h":
            i = gate.qubits[0]
            self.mat[[i, q + i]] = self.mat[[q + i, i]]
            self.signs[[i, q + i]] = self.signs[[q + i, i]]
        elif k in ("s", "sdg"):
            i = gate.qubits[0]
            self._row_combine(i, i, q + i, extra=1 if k == "s" else 3)
        elif k in ("v", "vdg"):
            i = gate.qubits[0]
            self._row_combine(q + i, i, q + i, extra=3 if k == "v" else 1)
        else:  # cx
            c, t = gate.qubits
            self._row_combine(c, c, t, extra=0)
            self._row_combine(q + t, q + c, q + t, extra=0)

    def append(self, gate: Gate) -> None:
        """Column action of applying ``gate`` after this Clifford."""
        if not gate.is_clifford:
            raise ValueError("tableaus track Clifford gates only")
        q = self.num_qubits
        if gate.kind == "cx":
            c, t = gate.qubits
            codes = (self.mat[:, c].astype(np.int8) + 2 * self.mat[:, q + c]) * 4 \
                + (self.mat[:, t].astype(np.int8) + 2 * self.mat[:, q + t])
            new = _APPEND_CX_L[codes]
            self.signs ^= _APPEND_CX_F[codes]
            lc, lt = new >> 2, new & 3
            self.mat[:, c] = (lc & 1).astype(bool)
            self.mat[:, q + c] = (lc >> 1).astype(bool)
            self.mat[:, t] = (lt & 1).astype(bool)
            self.mat[:, q + t] = (lt >> 1).astype(bool)
        else:
            j = gate.qubits[0]
            letters, flips = _APPEND_1Q[gate.kind]
            codes = self.mat[:, j].astype(np.int8) + 2 * self.mat[:, q + j]
            new = letters[codes]
            self.signs ^= flips[codes]
            self.mat[:, j] = (new & 1).astype(bool)
            self.mat[:, q + j] = (new >> 1).astype(bool)

    # -- queries -------------------------------------------------------------

    def row_letter(self, r: int, wire: int) -> Pauli:
        q = self.num_qubits
        code = int(self.mat[r, wire]) + 2 * int(self.mat[r, q + wire])
        return _XZ_ORDER[code]

    def is_symplectic(self) -> bool:
        q = self.num_qubits
        lam = np.zeros((2 * q, 2 * q), dtype=np.int64)
        lam[:q, q:] = np.eye(q)
        lam[q:, :q] = np.eye(q)
        m = self.mat.astype(np.int64)
        return bool(np.array_equal((m @ lam @ m.T) % 2, lam))

    def conjugate_vector(self, vec: np.ndarray) -> tuple[np.ndarray, bool]:
        """Image of the signed-free Pauli L(vec) under this Clifford: (bits, sign)."""
        q = self.num_qubits
        vec = vec.astype(bool)
        y_count = int(np.sum(vec[:q] & vec[q:]))
        acc = np.zeros(2 * q, dtype=bool)
        phase = y_count
        gens = list(np.flatnonzero(vec[:q])) + [q + int(j) for j in np.flatnonzero(vec[q:])]
        for b in gens:
            phase += int(_PHASE[self._codes(acc), self._codes(self.mat[b])].sum())
            phase += 2 * int(self.signs[b])
            acc ^= self.mat[b]
        phase %= 4
        if phase % 2:
            raise AssertionError("non-Hermitian conjugation result")
        return acc, bool(phase // 2)

    def inverse(self) -> "CliffordTableau":
        """Tableau of the adjoint Clifford."""
        q = self.num_qubits
        idx = np.concatenate([np.arange(q, 2 * q), np.arange(0, q)])
        inv = CliffordTableau(q)
        inv.mat = self.mat.T[np.ix_(idx, idx)].copy()
        for r in range(2 * q):
            img, sign = self.conjugate_vector(inv.mat[r])
            expect = np.zeros(2 * q, dtype=bool)
            expect[r] = True
            if not np.array_equal(img, expect):
                raise AssertionError("tableau inverse is inconsistent")
            inv.signs[r] = sign
        return inv

    def residual_permutation(self) -> list[int] | None:
        """If this tableau is a permutation with zero signs, return row->wire."""
        q = self.num_qubits
        if self.signs.any():
            return None
        perm = []
        for r in range(q):
            xrow = self.mat[r]
            zrow = self.mat[q + r]
            if int(xrow.sum()) != 1 or int(zrow.sum()) != 1:
                return None
            c = int(np.flatnonzero(xrow)[0])
            if c >= q or not zrow[q + c]:
                return None
            perm.append(c)
        if sorted(perm) != list(range(q)):
            return None
        return perm

    @property
    def is_identity(self) -> bool:
        return self.residual_permutation() == list(range(self.num_qubits))

    def dump(self) -> str:
        lines = []
        for r in range(2 * self.num_qubits):
            bits = "".join("1" if b else "0" for b in self.mat[r])
            lines.append(f"{bits} | {int(self.signs[r])}")
        return "\n".join(lines) + "\n"


def pauli_bits(codes) -> np.ndarray:
    """xz bits (X part, then Z part) of Pauli-enum letter codes, along the last axis."""
    codes = np.asarray(codes)
    return np.concatenate([(codes == Pauli.X) | (codes == Pauli.Y), codes >= Pauli.Y],
                          axis=-1)


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
    bits = pauli_bits(np.array([g.string.letters for g in targets],
                               dtype=np.uint8).reshape(len(targets), q))
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
        if not (np.array_equal(t.mat[row], bits[k]) and abs(angle - targets[k].angle) <= tol):
            return None
        k += 1
    return t if k == len(targets) else None


def row_interaction_cost(t: CliffordTableau, r: int) -> int:
    """Number of wires touched by the X and Z images of logical qubit r."""
    q = t.num_qubits
    m = t.mat
    return int((m[r, :q] | m[r, q:]).sum() + (m[q + r, :q] | m[q + r, q:]).sum())


def column_distance_cost(t: CliffordTableau, c: int, topo: Topology) -> int:
    """Distance-weighted spread of the row pair at index c."""
    q = t.num_qubits
    m = t.mat
    d = topo.dist[c, :q]
    return int(((m[c, :q] | m[c, q:]) * d).sum() + ((m[q + c, :q] | m[q + c, q:]) * d).sum())


def _reduce_pair(work: CliffordTableau, r: int, c: int, active: set[int],
                 topo: Topology, emit) -> None:
    """Conjugate until image(X_r) = X_c and image(Z_r) = Z_c with + signs."""
    q = work.num_qubits

    # X image -> single X on wire c.
    supp = [j for j in sorted(active) if work.row_letter(r, j) != Pauli.I]
    for j in supp:
        letter = work.row_letter(r, j)
        if letter == Pauli.Z:
            emit(h(j))
        elif letter == Pauli.Y:
            emit(sdg(j))
    tree = topo.steiner_tree(set(supp) | {c}, active)
    for child, parent in tree_postorder(tree, c):
        if work.row_letter(r, child) != Pauli.X:
            continue
        if work.row_letter(r, parent) != Pauli.X:
            emit(cx(child, parent))
        emit(cx(parent, child))

    # Z image -> single Z on wire c, leaving X_c intact (gates with c as CNOT
    # target or diagonal-preserving on c only).
    root_letter = work.row_letter(q + r, c)
    if root_letter == Pauli.Y:
        emit(v(c))
    elif root_letter != Pauli.Z:
        raise AssertionError("anticommutation forces Z or Y on the target wire")
    for j in sorted(active - {c}):
        letter = work.row_letter(q + r, j)
        if letter in TO_Z:
            emit(TO_Z[letter](j))
    supp_z = [j for j in sorted(active) if work.row_letter(q + r, j) != Pauli.I]
    tree = topo.steiner_tree(set(supp_z) | {c}, active)
    for child, parent in tree_postorder(tree, c):
        if work.row_letter(q + r, child) != Pauli.Z:
            continue
        if work.row_letter(q + r, parent) != Pauli.Z:
            emit(cx(parent, child))
        emit(cx(child, parent))

    # Clear residual signs on the finished pair, acting on the new register.
    if work.signs[r]:
        emit(s(c))
        emit(s(c))
    if work.signs[q + r]:
        emit(v(c))
        emit(v(c))


def synthesize_tableau(t: CliffordTableau, topo: Topology,
                       allow_permutation: bool = True
                       ) -> tuple[Circuit, QubitPermutation]:
    """Emit a conforming circuit E and permutation with W_t = P(perm) * U(E).

    Gates are generated by peeling the tableau down to a permutation matrix
    with all-zero signs (the identity when ``allow_permutation=False``);
    replaying ``prepend(gate.adjoint())`` over E in order reproduces exactly
    that residual.
    """
    q = t.num_qubits
    if topo.num_qubits != q:
        raise ValueError("topology size does not match tableau")
    if not t.is_symplectic():
        raise ValueError("tableau matrix is not symplectic")
    work = t.inverse()
    gates: list[Gate] = []

    def emit(gate: Gate) -> None:
        gates.append(gate)
        work.append(gate)

    active = set(range(q))
    rows_left = set(range(q))
    while rows_left:
        if allow_permutation:
            r = min(rows_left, key=lambda rr: (row_interaction_cost(work, rr), rr))
            candidates = [cc for cc in sorted(active) if topo.is_non_cutting(cc, active)]
            c = min(candidates, key=lambda cc: (column_distance_cost(work, cc, topo), cc))
        else:
            candidates = [rr for rr in sorted(rows_left) if topo.is_non_cutting(rr, active)]
            r = min(candidates, key=lambda rr: (row_interaction_cost(work, rr), rr))
            c = r
        _reduce_pair(work, r, c, active, topo, emit)
        active.discard(c)
        rows_left.discard(r)

    residual = work.residual_permutation()
    if residual is None:
        raise AssertionError("tableau reduction did not reach a clean permutation")
    perm_out = [0] * q
    for r in range(q):
        perm_out[residual[r]] = r
    return Circuit(q, tuple(gates)), QubitPermutation(tuple(perm_out))
