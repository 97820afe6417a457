"""Dense-unitary oracle for small qubit counts: the test and Trotter oracle.

Builds exact matrices for gadgets, circuits, exact time evolution, and the
initial-state unitary overlap (``overlap``, used by the Trotter-error scan).
Synthesized circuits are checked exactly at any size by
``bench.check_result`` (a tableau replay); the dense functions here are the
oracle its tests compare it with.

Qubit 0 is the most significant tensor factor, matching the Pauli string
convention.  Application order: a circuit ``[g0, g1]`` has unitary
``M(g1) @ M(g0)``.  Gates act through one axis kernel
(``_apply_gate_state``): on a state vector in ``overlap``, and on the
columns of the identity in ``circuit_unitary``, so no gate matrix is built
or cached.

Equivalence up to an output permutation is checked against
``u1 = exp(i*gamma) * P(perm) @ u2`` where ``P(perm)`` is the operator with
``P X_i P^ = X_{perm[i]}``; the two-qubit SWAP test in the suite pins this
direction.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from collections.abc import Sequence

import numpy as np

from .circuit import Circuit
from .paulis import Gate, Pauli, PauliGadget, PauliPolynomial, PauliString
from .tableau import QubitPermutation

MAX_DENSE_QUBITS = 12

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_MATRICES = {Pauli.I: _I2, Pauli.X: _X, Pauli.Y: _Y, Pauli.Z: _Z}

_S = np.diag([1, 1j]).astype(complex)
_V = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

GATE_MATRICES_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": _S,
    "sdg": _S.conj().T,
    "v": _V,
    "vdg": _V.conj().T,
}


def _check_dim(num_qubits: int) -> None:
    if num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense verification is capped at {MAX_DENSE_QUBITS} qubits, got {num_qubits}")


def _kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def pauli_matrix(string: PauliString) -> np.ndarray:
    _check_dim(len(string))
    return _kron_all([PAULI_MATRICES[p] for p in string.letters])


def gadget_unitary(gadget: PauliGadget) -> np.ndarray:
    """``exp(-i*angle/2 * P)`` via cos/sin closed form (P is an involution)."""
    p = pauli_matrix(gadget.string)
    half = gadget.angle / 2
    return np.cos(half) * np.eye(p.shape[0]) - 1j * np.sin(half) * p


def circuit_unitary(c: Circuit) -> np.ndarray:
    """The circuit applied to every column of the identity."""
    _check_dim(c.num_qubits)
    return apply_circuit_to_state(c, np.eye(2 ** c.num_qubits, dtype=complex))


def polynomial_unitary(poly: PauliPolynomial, order: Sequence[int] | None = None) -> np.ndarray:
    """Product of gadget exponentials; the first gadget in ``order`` acts first."""
    _check_dim(poly.num_qubits)
    idx = range(len(poly.gadgets)) if order is None else order
    u = np.eye(2 ** poly.num_qubits, dtype=complex)
    for i in idx:
        u = gadget_unitary(poly.gadgets[i]) @ u
    return u


@lru_cache(maxsize=64)
def _hamiltonian_eig(poly: PauliPolynomial) -> tuple[np.ndarray, np.ndarray]:
    dim = 2 ** poly.num_qubits
    ham = np.zeros((dim, dim), dtype=complex)
    for g in poly.gadgets:
        ham += g.angle * pauli_matrix(g.string)
    evals, evecs = np.linalg.eigh(ham)
    return evals, evecs


def exact_unitary(poly: PauliPolynomial, t: float) -> np.ndarray:
    """``exp(-i*t/2 * sum_n angle_n * P_n)`` via Hermitian eigendecomposition."""
    _check_dim(poly.num_qubits)
    evals, evecs = _hamiltonian_eig(poly)
    return (evecs * np.exp(-1j * t / 2 * evals)) @ evecs.conj().T


def permutation_operator(perm: Sequence[int], num_qubits: int | None = None) -> np.ndarray:
    """Unitary P with ``P X_i P^ = X_{perm[i]}`` (bit i moves to position perm[i])."""
    mapping = list(perm)
    n = num_qubits if num_qubits is not None else len(mapping)
    dim = 2 ** n
    op = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        dst = 0
        for i in range(n):
            bit = (src >> (n - 1 - i)) & 1
            dst |= bit << (n - 1 - mapping[i])
        op[dst, src] = 1.0
    return op


def equivalent(u1: np.ndarray, u2: np.ndarray,
               perm: Sequence[int] | None = None, tol: float = 1e-9) -> bool:
    """True iff ``u1 = exp(i*gamma) * P(perm) @ u2`` for some global phase."""
    if u1.shape != u2.shape:
        raise ValueError("dimension mismatch")
    target = u2
    if perm is not None:
        n = u1.shape[0].bit_length() - 1
        target = permutation_operator(perm, n) @ u2
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    ref = target[idx]
    if abs(ref) < 1e-12:
        return bool(np.max(np.abs(u1)) <= tol)
    phase = u1[idx] / ref
    if abs(abs(phase) - 1.0) > max(tol, 1e-9):
        return False
    phase /= abs(phase)
    return bool(np.max(np.abs(u1 - phase * target)) <= tol)


def _apply_gate_state(psi: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one gate to 2**n amplitudes, or to every column of a matrix
    with 2**n rows (a trailing column axis)."""
    shaped = psi.reshape([2] * n + [-1])
    if gate.kind == "cx":
        c, t = gate.qubits
        sel = [slice(None)] * n
        sel[c] = 1
        sub = shaped[tuple(sel)]
        t_axis = t if t < c else t - 1
        shaped[tuple(sel)] = np.flip(sub, axis=t_axis).copy()
        return shaped.reshape(psi.shape)
    if gate.kind == "rz":
        m = np.diag([np.exp(-1j * gate.angle / 2), np.exp(1j * gate.angle / 2)])
    else:
        m = GATE_MATRICES_1Q[gate.kind]
    j = gate.qubits[0]
    moved = m @ np.moveaxis(shaped, j, 0).reshape(2, -1)
    return np.moveaxis(moved.reshape(shaped.shape), 0, j).reshape(psi.shape)


def apply_circuit_to_state(circuit: Circuit, psi: np.ndarray) -> np.ndarray:
    """State-vector application of a circuit (gates[0] first); a matrix
    with 2**n rows is transformed column by column."""
    out = psi.astype(complex)
    for g in circuit.gates:
        out = _apply_gate_state(out, g, circuit.num_qubits)
    return out


def overlap(poly: PauliPolynomial, circuit: Circuit, t: float, r: int = 1,
            perm: Sequence[int] | None = None) -> complex:
    """``(U_exact(t) @ ((P(perm) @ U_circuit)^r)^)[0, 0]``; ``perm=None`` is
    the identity.

    The circuit is expected to realize one repetition of the product formula
    up to its output permutation (``U_step = P(perm) @ U_circuit``, as
    ``equivalent`` checks), i.e. to have been synthesized from ``poly`` with
    angles scaled by t/r.  Evaluated on state vectors with no dense ``P``:
    ``(P U)^r = P^r U_{r-1} ... U_1 U_0``, where ``U_k`` is the circuit with
    every wire w moved to ``inv^k[w]`` (``inv`` the inverse of ``perm``), and
    ``P^r`` fixes ``|0>``.  So repetition k replays the circuit on relabelled
    wires, with no SWAP gates; the adjoint of the r repetitions is simulated
    from ``|0>`` and contracted with the top row of the exact evolution.
    """
    if r < 1:
        raise ValueError("repetitions must be >= 1")
    if circuit.num_qubits != poly.num_qubits:
        raise ValueError("dimension mismatch between polynomial and circuit")
    n = poly.num_qubits
    _check_dim(n)
    if perm is None:
        perm = range(n)
    elif len(perm) != n:
        raise ValueError(f"permutation of length {len(perm)} for {n} qubits")
    inv = QubitPermutation(tuple(perm)).inverse().mapping
    wires = list(range(n))
    gates = []
    for _ in range(r):
        gates.extend(Gate(g.kind, tuple(wires[q] for q in g.qubits), g.angle)
                     for g in circuit.gates)
        wires = [inv[w] for w in wires]
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    psi = apply_circuit_to_state(Circuit(n, tuple(gates)).adjoint(), psi)
    evals, evecs = _hamiltonian_eig(poly)
    exact_row0 = (evecs[0, :] * np.exp(-1j * t / 2 * evals)) @ evecs.conj().T
    return complex(exact_row0 @ psi)
