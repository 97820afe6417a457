"""Gate-list circuits, metrics after single-qubit fusion, and QASM2 export.

Application order: ``gates[0]`` acts first.  Metrics emulate compilation to a
{CNOT, U3} gateset by collapsing every maximal run of consecutive
single-qubit gates on a wire into one U3 slot before layering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .paulis import Gate
from .topology import Topology


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {self.num_qubits} qubits")

    def __len__(self) -> int:
        return len(self.gates)

    def append(self, gate: Gate) -> "Circuit":
        return Circuit(self.num_qubits, self.gates + (gate,))

    def concat(self, other: "Circuit") -> "Circuit":
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch in concat")
        return Circuit(self.num_qubits, self.gates + other.gates)

    def adjoint(self) -> "Circuit":
        return Circuit(self.num_qubits, tuple(g.adjoint() for g in reversed(self.gates)))

    def scale_rotations(self, factor: float) -> "Circuit":
        """Multiply every rz angle by ``factor`` (Clifford gates untouched)."""
        return Circuit(self.num_qubits, tuple(
            Gate("rz", g.qubits, g.angle * factor) if g.kind == "rz" else g
            for g in self.gates))


@dataclass(frozen=True)
class Metrics:
    cnot_count: int
    depth: int
    two_qubit_depth: int


def _fused_ops(c: Circuit) -> list[tuple[str, tuple[int, ...]]]:
    """Collapse single-qubit runs into U3 slots; keep CNOTs as-is."""
    ops: list[tuple[str, tuple[int, ...]]] = []
    slot_open = [False] * c.num_qubits
    for g in c.gates:
        if g.kind == "cx":
            ops.append(("cx", g.qubits))
            slot_open[g.qubits[0]] = False
            slot_open[g.qubits[1]] = False
        else:
            q = g.qubits[0]
            if not slot_open[q]:
                ops.append(("u3", (q,)))
                slot_open[q] = True
    return ops


def metrics(c: Circuit) -> Metrics:
    ops = _fused_ops(c)
    depth = [0] * c.num_qubits
    depth2 = [0] * c.num_qubits
    cnots = 0
    for kind, qubits in ops:
        layer = 1 + max(depth[q] for q in qubits)
        for q in qubits:
            depth[q] = layer
        d2 = max(depth2[q] for q in qubits)
        if kind == "cx":
            cnots += 1
            d2 += 1
        for q in qubits:
            depth2[q] = d2
    return Metrics(cnots, max(depth, default=0), max(depth2, default=0))


def conforms(c: Circuit, topo: Topology) -> bool:
    """True iff every CNOT acts on a topology edge."""
    return all(g.kind != "cx" or topo.has_edge(*g.qubits) for g in c.gates)


_QASM_KIND = {"h": "h", "s": "s", "sdg": "sdg", "v": "sx", "vdg": "sxdg", "cx": "cx"}


def to_qasm2(c: Circuit) -> str:
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f'qreg q[{c.num_qubits}];']
    for g in c.gates:
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind == "rz":
            lines.append(f"rz({g.angle!r}) {args};")
        else:
            lines.append(f"{_QASM_KIND[g.kind]} {args};")
    return "\n".join(lines) + "\n"
