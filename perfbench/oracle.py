"""Output checks for the benchmark, written independently of ``paulisynth``.

Nothing here imports ``paulisynth.verify`` or ``paulisynth.bench``, so the
benchmark keeps checking outputs when the dense-matrix code moves out of the
package.  Inputs and outputs are read only through their data fields
(``gadget.angle``, ``gadget.string.letters``, ``gate.kind``, ``gate.qubits``,
``gate.angle``, ``result.emitted_order``, ``result.permutation.mapping``).

Conventions (those documented by the package): qubit 0 is the most
significant bit of a basis index; a gadget ``(angle, P)`` is
``exp(-i*angle/2 * P)``; ``gates[0]`` acts first; the output permutation
``perm`` satisfies ``U_poly = e^{i*gamma} * P(perm) * U_circuit`` with
``P X_i P^dag = X_{perm[i]}``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Letter codes of ``paulisynth.Pauli``.
_I, _X, _Y, _Z = 0, 1, 2, 3

EXACT_MAX_QUBITS = 10
NUM_PROBE_STATES = 3
TOLERANCE = 1e-8
ANGLE_TOLERANCE = 1e-12

_V = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_ONE_QUBIT = {
    "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "s": np.array([[1, 0], [0, 1j]]),
    "sdg": np.array([[1, 0], [0, -1j]]),
    "v": _V,
    "vdg": _V.conj().T,
}


def topology_edges(spec: str) -> frozenset[tuple[int, int]]:
    """Edges (u < v) of a ``line:q``, ``complete:q`` or ``grid:RxC`` device."""
    kind, _, arg = spec.partition(":")
    if kind == "grid":
        rows, cols = (int(x) for x in arg.split("x"))
        right = [(i, i + 1) for i in range(rows * cols) if (i + 1) % cols]
        down = [(i, i + cols) for i in range((rows - 1) * cols)]
        return frozenset(right + down)
    q = int(arg)
    if kind == "line":
        return frozenset((i, i + 1) for i in range(q - 1))
    if kind == "complete":
        return frozenset((i, j) for i in range(q) for j in range(i + 1, q))
    raise ValueError(f"unknown topology spec {spec!r}")


def fingerprint(result) -> str:
    """Hash of the gate list and the output permutation."""
    h = hashlib.sha256()
    for g in result.circuit.gates:
        h.update(f"{g.kind} {g.qubits} {g.angle!r};".encode())
    h.update(repr(tuple(result.permutation.mapping)).encode())
    return h.hexdigest()[:16]


class _States:
    """A batch of state vectors (one per column) updated by index arithmetic."""

    def __init__(self, psi: np.ndarray):
        self.q = psi.shape[0].bit_length() - 1
        self.psi = psi.copy()
        self.index = np.arange(psi.shape[0])

    def mask(self, qubit: int) -> int:
        return 1 << (self.q - 1 - qubit)

    def bit(self, qubit: int) -> np.ndarray:
        return (self.index >> (self.q - 1 - qubit)) & 1

    def apply_gate(self, gate) -> None:
        if gate.kind == "cx":
            control, target = gate.qubits
            self.psi = self.psi[self.index ^ (self.bit(control) * self.mask(target))]
            return
        if gate.kind == "rz":
            half = gate.angle / 2
            m = np.diag([np.exp(-1j * half), np.exp(1j * half)])
        else:
            m = _ONE_QUBIT[gate.kind]
        j = gate.qubits[0]
        lo = self.psi[self.index & ~self.mask(j)]
        hi = self.psi[self.index | self.mask(j)]
        b = self.bit(j)[:, None]
        self.psi = np.where(b == 0, m[0, 0] * lo + m[0, 1] * hi,
                            m[1, 0] * lo + m[1, 1] * hi)

    def apply_gadget(self, angle: float, letters) -> None:
        """psi <- cos(a/2) psi - i sin(a/2) P psi, where P = i^{#Y} X^x Z^z."""
        xmask = zmask = n_y = 0
        for j, p in enumerate(letters):
            p = int(p)
            if p in (_X, _Y):
                xmask |= self.mask(j)
            if p in (_Z, _Y):
                zmask |= self.mask(j)
            n_y += p == _Y
        if xmask == 0 and zmask == 0:
            return  # identity: a global phase
        src = self.index ^ xmask
        sign = np.where(np.bitwise_count(src & zmask) & 1, -1.0, 1.0)
        p_psi = (1j ** n_y) * sign[:, None] * self.psi[src]
        half = angle / 2
        self.psi = math.cos(half) * self.psi - 1j * math.sin(half) * p_psi

    def permute(self, perm) -> None:
        """psi <- P(perm) psi: bit i of the basis index moves to position perm[i]."""
        dst = np.zeros_like(self.index)
        for i, p in enumerate(perm):
            dst |= self.bit(i) << (self.q - 1 - p)
        out = np.empty_like(self.psi)
        out[dst] = self.psi
        self.psi = out


def _structural_errors(poly, result, edges) -> list[str]:
    q = poly.num_qubits
    n = len(poly.gadgets)
    errors = []
    circ = result.circuit
    if circ.num_qubits != q:
        errors.append(f"circuit has {circ.num_qubits} qubits, polynomial has {q}")
    cnots = sum(g.kind == "cx" for g in circ.gates)
    if result.metrics.cnot_count != cnots:
        errors.append(f"metrics report {result.metrics.cnot_count} CNOTs, circuit has {cnots}")
    rz_angles = []
    for k, g in enumerate(circ.gates):
        if any(not 0 <= w < q for w in g.qubits):
            errors.append(f"gate {k} {g.kind}{g.qubits} out of range")
        elif g.kind == "cx":
            if tuple(sorted(g.qubits)) not in edges:
                errors.append(f"gate {k} cx{g.qubits} is not on a device edge")
        elif g.kind == "rz":
            rz_angles.append(g.angle)
        elif g.kind not in _ONE_QUBIT:
            errors.append(f"gate {k} has unknown kind {g.kind!r}")
    order = list(result.emitted_order)
    if sorted(order) != list(range(n)):
        errors.append("emitted_order is not a permutation of the gadgets")
        return errors
    if sorted(result.permutation.mapping) != list(range(q)):
        errors.append("output permutation is not a permutation of the qubits")
    gadget_angles = [poly.gadgets[i].angle for i in order
                     if any(int(p) != _I for p in poly.gadgets[i].string.letters)]
    if len(rz_angles) != len(gadget_angles):
        errors.append(f"{len(rz_angles)} rz gates for {len(gadget_angles)} "
                      "non-identity gadgets")
    else:
        for k, (got, want) in enumerate(zip(rz_angles, gadget_angles)):
            if abs(abs(got) - abs(want)) > ANGLE_TOLERANCE:
                errors.append(f"rz {k} has angle {got!r}, gadget has {want!r}")
                break
    return errors


def _exact_errors(poly, result, seed: int) -> list[str]:
    """State-vector comparison on random probe states."""
    q = poly.num_qubits
    rng = np.random.default_rng(seed)
    probe = rng.normal(size=(2 ** q, NUM_PROBE_STATES)) \
        + 1j * rng.normal(size=(2 ** q, NUM_PROBE_STATES))
    probe /= np.linalg.norm(probe, axis=0)
    want = _States(probe)
    for i in result.emitted_order:
        g = poly.gadgets[i]
        want.apply_gadget(g.angle, g.string.letters)
    got = _States(probe)
    for g in result.circuit.gates:
        got.apply_gate(g)
    got.permute(result.permutation.mapping)
    overlap = np.vdot(got.psi, want.psi)
    if abs(overlap) < 1e-12:
        return ["circuit output is orthogonal to the polynomial's"]
    diff = float(np.max(np.abs(want.psi - overlap / abs(overlap) * got.psi)))
    if not diff <= TOLERANCE:  # also rejects NaN
        return [f"circuit differs from the polynomial by {diff:.3g} on probe states"]
    return []


def check(poly, result, spec: str, seed: int = 0) -> list[str]:
    """Every reason ``result`` is not a correct compilation of ``poly`` on ``spec``.

    Structural checks run at every size.  Up to ``EXACT_MAX_QUBITS`` qubits the
    circuit is also compared exactly against the gadgets in ``emitted_order``
    followed by the output permutation.
    """
    errors = _structural_errors(poly, result, topology_edges(spec))
    if not errors and poly.num_qubits <= EXACT_MAX_QUBITS:
        errors = _exact_errors(poly, result, seed)
    return errors
