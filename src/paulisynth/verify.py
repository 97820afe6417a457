"""Dense-unitary oracle for small qubit counts: the test and Trotter oracle.

Builds exact matrices for gadgets, circuits and exact time evolution, and
the overlap of a product formula with the exact evolution (used by the
Trotter-error scan).  Synthesized circuits are checked exactly at any size
by ``bench.check_result`` (one pass over bit columns); the dense functions
here are the oracle its tests compare it with.

Qubit 0 is the most significant tensor factor, matching the Pauli string
convention.  Application order: a circuit ``[g0, g1]`` has unitary
``M(g1) @ M(g0)``.  ``circuit_unitary`` applies gates through one axis
kernel (``_apply_gate_state``) to the columns of the identity, so no gate
matrix is built or cached.  The Trotter scan needs no circuit: it applies
the gadgets themselves to state vectors.

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
from .paulis import Gate, Pauli, PauliGadget, PauliPolynomial, PauliString, _check_int

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


def pauli_matrix(string: PauliString) -> np.ndarray:
    _check_dim(len(string))
    return reduce(np.kron, [PAULI_MATRICES[p] for p in string.letters])


def gadget_unitary(gadget: PauliGadget) -> np.ndarray:
    """``exp(-i*angle/2 * P)`` via cos/sin closed form (P is an involution)."""
    p = pauli_matrix(gadget.string)
    half = gadget.angle / 2
    return np.cos(half) * np.eye(p.shape[0]) - 1j * np.sin(half) * p


def circuit_unitary(c: Circuit) -> np.ndarray:
    """The circuit applied to every column of the identity (gates[0] first)."""
    _check_dim(c.num_qubits)
    u = np.eye(2 ** c.num_qubits, dtype=complex)
    for g in c.gates:
        u = _apply_gate_state(u, g, c.num_qubits)
    return u


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


def trotter_overlaps(poly: PauliPolynomial, order: Sequence[int],
                     timesteps: Sequence[float], r: int = 1) -> np.ndarray:
    """``<0| U_exact(t) (G(t/r)^r)^ |0>`` per timestep t; ``G(s)`` is the product
    of the gadgets in ``order`` (the first acts first) with angles scaled by s.

    A gadget acts as ``cos(a/2) psi - i sin(a/2) P psi``: ``P psi`` is the index
    permutation ``k ^ xmask`` times the diagonal of ``P X^xmask``, which is
    ``(-i)^#Y (-1)^popcount(k & zmask)``.  Both are built once for all
    gadgets and applied to one state column per timestep."""
    _check_int("repetitions", r, 1)
    if sorted(order) != list(range(len(poly.gadgets))):
        raise ValueError(f"order must be a permutation of the {len(poly.gadgets)} "
                         f"gadget indices, got {list(order)!r}")
    n = poly.num_qubits
    _check_dim(n)
    ts = np.asarray(timesteps, dtype=float)
    adjoint = [poly.gadgets[i] for i in reversed(order)]
    letters = np.array([g.string.letters for g in adjoint], dtype=int).reshape(-1, n)
    x, z = (letters == Pauli.X) | (letters == Pauli.Y), letters >= Pauli.Y
    weights = 1 << np.arange(n - 1, -1, -1)
    k = np.arange(2 ** n)
    srcs = k ^ (x @ weights)[:, None]
    signs = (1 - 2 * ((z @ (k[:, None] // weights & 1).T) & 1)).astype(np.int8)
    half = np.outer([g.angle for g in adjoint], ts) / (2 * r)
    cos, isin = np.cos(half), 1j * np.sin(half) * (-1j) ** (x & z).sum(axis=1)[:, None]
    psi = np.zeros((2 ** n, len(ts)), dtype=complex)
    psi[0] = 1.0
    for _ in range(r):
        for j in range(len(adjoint)):
            psi = cos[j] * psi + isin[j] * (signs[j][:, None] * psi[srcs[j]])
    evals, evecs = _hamiltonian_eig(poly)
    exact_row0 = (evecs[0] * np.exp(-0.5j * np.outer(ts, evals))) @ evecs.conj().T
    return np.sum(exact_row0 * psi.T, axis=1)


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
