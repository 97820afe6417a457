"""Gate-list circuits, metrics after single-qubit fusion, and QASM2 export.

Application order: ``gates[0]`` acts first.  Metrics emulate compilation to a
{CNOT, U3} gateset: every maximal run of consecutive single-qubit gates on a
wire counts as one U3 slot.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from .paulis import Gate, _check_type, _is_int
from .topology import Topology, _norm_edge


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.gates, Iterable):
            raise ValueError(f"gates must be an iterable of Gate, got {self.gates!r}")
        object.__setattr__(self, "gates", tuple(self.gates))  # frozen: no caller's list
        n = self.num_qubits
        if not _is_int(n):
            raise ValueError(f"num_qubits must be an integer, got {n!r}")
        if n <= 0:
            raise ValueError("num_qubits must be positive")
        if not all(issubclass(kind, Gate) for kind in set(map(type, self.gates))):
            i, bad = next((i, g) for i, g in enumerate(self.gates) if not isinstance(g, Gate))
            raise ValueError(f"gate {i} must be a Gate, got {bad!r}")
        wires = tuple(chain.from_iterable(map(attrgetter("qubits"), self.gates)))
        # Types first: a set merges 1, 1.0 and True, and cannot hold a list.
        typed = dict(zip(map(type, wires), wires)).values()
        if not (all(_is_int(q) for q in typed) and all(0 <= q < n for q in set(wires))):
            bad = next(g for g in self.gates
                       if not all(_is_int(q) and 0 <= q < n for q in g.qubits))
            raise ValueError(f"gate {bad} needs integer wires in 0..{n - 1}")

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class Metrics:
    cnot_count: int
    depth: int
    two_qubit_depth: int


def metrics(c: Circuit) -> Metrics:
    """CNOT count, depth and CNOT depth in one pass over the gates.  Each
    maximal run of single-qubit gates on a wire is one U3 slot: its first
    gate adds a layer to the wire's depth.  A CNOT closes both wires' slots
    and lands one layer above the deeper wire, in ``depth`` and ``depth2``."""
    depth, depth2, slot_open = [0] * c.num_qubits, [0] * c.num_qubits, [False] * c.num_qubits
    cnots = 0
    for g in c.gates:
        if g.kind == "cx":
            a, b = g.qubits
            depth[a] = depth[b] = 1 + (depth[a] if depth[a] > depth[b] else depth[b])
            depth2[a] = depth2[b] = 1 + (depth2[a] if depth2[a] > depth2[b] else depth2[b])
            slot_open[a] = slot_open[b] = False
            cnots += 1
        elif not slot_open[q := g.qubits[0]]:  # the first gate of a U3 slot
            slot_open[q] = True
            depth[q] += 1
    return Metrics(cnots, max(depth, default=0), max(depth2, default=0))


def conforms(c: Circuit, topo: Topology) -> bool:
    """True iff every CNOT acts on a topology edge (a wire outside the
    topology is on none)."""
    _check_type("c", c, Circuit)
    _check_type("topo", topo, Topology)
    return all(g.kind != "cx" or _norm_edge(*g.qubits) in topo.edges for g in c.gates)


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
