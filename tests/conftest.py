import itertools
from functools import lru_cache

import numpy as np
import pytest

import paulisynth as ps
from paulisynth import verify
from paulisynth.paulis import PauliColumns


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
    q, signs = t.num_qubits, t.signs
    for r in range(2 * q):
        gen = [ps.Pauli.I] * q
        if r < q:
            gen[r] = ps.Pauli.X
        else:
            gen[r - q] = ps.Pauli.Z
        lhs = u @ verify.pauli_matrix(ps.PauliString(tuple(gen))) @ u.conj().T
        letters = tuple(t.row_letter(r, j) for j in range(q))
        rhs = (-1 if signs[r] else 1) * verify.pauli_matrix(ps.PauliString(letters))
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


def conjugate_bits(kind, x, z, xt=0, zt=0):
    """``PauliColumns.conjugate`` by the Clifford gate ``kind`` on Paulis
    given as bits: bit i of ``x``/``z`` is the X/Z part of Pauli i on the
    gate's wire (the control for ``cx``; ``xt``/``zt`` are the target's).
    Returns the conjugated ``(x, z, xt, zt, flips)``; bit i of ``flips`` is
    set where Pauli i gains a minus sign."""
    cols = PauliColumns([x, xt], [z, zt])
    cols.conjugate(ps.Gate(kind, (0, 1) if kind == "cx" else (0,)))
    return cols.x[0], cols.z[0], cols.x[1], cols.z[1], cols.signs


def pauli_row(letters):
    """Row int of a Pauli word: X bit j, then Z bit q+j."""
    q = len(letters)
    return sum((p in (ps.Pauli.X, ps.Pauli.Y)) << j | (p in (ps.Pauli.Y, ps.Pauli.Z)) << (q + j)
               for j, p in enumerate(letters))


class RowTableau:
    """Row-rule reference tableau of a Clifford W (Aaronson-Gottesman,
    quant-ph/0406196), independent of ``conjugate_bits``: ``rows[r]`` is the
    image of X_r (of Z_{r-q} for r >= q) as a row int, ``signs[r]`` its sign.
    With ``P(x, z) = i^|x&z| X^x Z^z``, a row product costs four popcounts."""

    def __init__(self, q):
        self.q = q
        self.rows = [1 << r for r in range(2 * q)]
        self.signs = [0] * (2 * q)

    def _product(self, dest, a, b, extra):
        """dest := i^extra * image(a) * image(b); extra makes the result Hermitian."""
        q, r1, r2 = self.q, self.rows[a], self.rows[b]
        r3 = r1 ^ r2
        p = (extra + (r1 & r1 >> q).bit_count() + (r2 & r2 >> q).bit_count()
             + 2 * (r1 >> q & r2).bit_count() - (r3 & r3 >> q).bit_count()
             + 2 * (self.signs[a] + self.signs[b]))
        assert p % 2 == 0, "non-Hermitian image in tableau row update"
        self.rows[dest], self.signs[dest] = r3, p >> 1 & 1

    def prepend(self, gate):
        """``W -> W * W_g``: the row action of applying ``gate`` first."""
        q, i, kind = self.q, gate.qubits[0], gate.kind
        if kind == "h":
            rows, signs = self.rows, self.signs
            rows[i], rows[q + i] = rows[q + i], rows[i]
            signs[i], signs[q + i] = signs[q + i], signs[i]
        elif kind in ("s", "sdg"):
            self._product(i, i, q + i, 1 if kind == "s" else 3)
        elif kind in ("v", "vdg"):
            self._product(q + i, i, q + i, 3 if kind == "v" else 1)
        else:
            assert kind == "cx", kind
            t = gate.qubits[1]
            self._product(i, i, t, 0)
            self._product(q + t, q + i, q + t, 0)

    def residual_permutation(self):
        """If W is a permutation with zero signs, return row->wire."""
        q, rows = self.q, self.rows
        if any(self.signs):
            return None
        perm = [max(rows[r].bit_length() - 1, 0) for r in range(q)]
        if any(rows[r] != 1 << c or rows[q + r] != 1 << (q + c) for r, c in enumerate(perm)):
            return None
        return perm if sorted(perm) == list(range(q)) else None


def replay_rotations(num_qubits, gates, gadgets, tol):
    """Row-rule reference for ``bench.check_result``: match a Clifford+Rz
    gate list against a gadget product, exactly, with tableau row products.

    The gates equal ``C * prod_i exp(-i*a_i/2 * P_i)`` (first rotation acting
    first): ``prepend(g.adjoint())`` per Clifford gate builds the
    ``RowTableau`` of ``C^`` so far, and an ``rz(theta)`` on wire j is
    ``P_i`` = row q+j at that point with ``a_i = theta * (row sign)``.  The
    rotations must be the non-identity ``gadgets`` one for one and in order,
    letters exactly and angles within ``tol``.  Returns the ``RowTableau`` of
    ``C^``, or None on a mismatch.
    """
    q = num_qubits
    targets = [g for g in gadgets if g.string.legs()]
    rows = [pauli_row(g.string.letters) for g in targets]
    t = RowTableau(q)
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


def is_connected(topo, qubits):
    """Whether ``qubits`` induce a connected subgraph of ``topo`` (or are
    none): a set BFS over ``topo.edges``."""
    qubits = set(qubits)
    if not qubits:
        return True
    seen, todo = set(), [min(qubits)]
    while todo:
        u = todo.pop()
        if u not in seen:
            seen.add(u)
            todo.extend(w for a, b in topo.edges for x, w in ((a, b), (b, a))
                        if x == u and w in qubits)
    return seen == qubits


def star_topology(q, center):
    """Every qubit joined to ``center`` alone."""
    return ps.Topology(q, [(center, j) for j in range(q) if j != center])


def heavy_hex_topology(rows, cols):
    """Heavy-hex lattice (Chamberland et al., PRX 10, 011022, 2020): a
    brick-wall honeycomb of rows x cols qubits, with one more qubit on each
    of its edges.  Qubit r*cols + c is honeycomb vertex (r, c); the edge
    qubits follow."""
    honeycomb = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    honeycomb += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1)
                  for c in range(r % 2, cols, 2)]
    q = rows * cols
    edges = []
    for k, (u, w) in enumerate(honeycomb):
        edges += [(u, q + k), (q + k, w)]
    return ps.Topology(q + len(honeycomb), edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
