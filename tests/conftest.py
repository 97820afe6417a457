import itertools
from functools import lru_cache

import numpy as np
import pytest

import paulisynth as ps
from paulisynth import verify


def random_clifford_circuit(q, n, rng):
    """Random circuit over {h, s, sdg, v, vdg, cx}."""
    gates = []
    while len(gates) < n:
        kind = ["h", "s", "sdg", "v", "vdg", "cx"][rng.integers(6)]
        if kind == "cx":
            if q < 2:
                continue
            c, t = rng.choice(q, 2, replace=False)
            gates.append(ps.cx(int(c), int(t)))
        else:
            gates.append(ps.Gate(kind, (int(rng.integers(q)),)))
    return ps.Circuit(q, tuple(gates))


def tableau_matches_unitary(t, u):
    """Every generator image of the tableau must equal dense conjugation exactly."""
    q = t.num_qubits
    for r in range(2 * q):
        gen = [ps.Pauli.I] * q
        if r < q:
            gen[r] = ps.Pauli.X
        else:
            gen[r - q] = ps.Pauli.Z
        lhs = u @ verify.pauli_matrix(ps.PauliString(tuple(gen))) @ u.conj().T
        letters = tuple(t.row_letter(r, j) for j in range(q))
        rhs = (-1 if t.signs[r] else 1) * verify.pauli_matrix(ps.PauliString(letters))
        if not np.allclose(lhs, rhs, atol=1e-10):
            return False
    return True


@lru_cache(maxsize=None)
def dense_conjugate(gate, letters):
    """``g P g^`` read off the dense matrices, for a Clifford gate g and the
    letters of P on ``gate.qubits`` (a tuple): returns (letters, sign flip)."""
    n = len(letters)
    g = verify.circuit_unitary(ps.Circuit(n, (ps.Gate(gate.kind, tuple(range(n))),)))
    target = g @ verify.pauli_matrix(ps.PauliString(letters)) @ g.conj().T
    for cand in itertools.product(ps.Pauli, repeat=n):
        m = verify.pauli_matrix(ps.PauliString(cand))
        for sign in (1, -1):
            if np.allclose(target, sign * m, atol=1e-12):
                return cand, sign == -1
    raise AssertionError(f"{gate} does not map {letters} to a signed Pauli")


def dense_check(poly, result, tol=1e-9):
    """Dense oracle for ``bench.check_result`` (small qubit counts only):
    ``P(mapping) @ U_circuit`` equals the emitted gadget product up to phase."""
    u_circ = verify.circuit_unitary(result.circuit)
    u_poly = verify.polynomial_unitary(poly, result.emitted_order)
    return verify.equivalent(u_poly, u_circ, result.permutation.mapping, tol)


def pauli_row(letters):
    """Row int of a Pauli word: X bit j, then Z bit q+j."""
    q = len(letters)
    return sum((p in (ps.Pauli.X, ps.Pauli.Y)) << j | (p in (ps.Pauli.Y, ps.Pauli.Z)) << (q + j)
               for j, p in enumerate(letters))


def replay_rotations(num_qubits, gates, gadgets, tol):
    """Row-rule reference for ``bench.check_result``: match a Clifford+Rz
    gate list against a gadget product, exactly, with tableau row products.

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
    t = ps.CliffordTableau(q)
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


def random_connected_topology(q, rng, extra_edge_prob=0.3):
    """Random spanning tree plus extra edges."""
    edges = []
    nodes = list(range(q))
    rng.shuffle(nodes)
    for i in range(1, q):
        edges.append((nodes[i], nodes[int(rng.integers(i))]))
    for u in range(q):
        for w in range(u + 1, q):
            if rng.random() < extra_edge_prob:
                edges.append((u, w))
    return ps.Topology(q, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
