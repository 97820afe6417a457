"""Connectivity graphs: all-pairs distances, cut-vertex queries, Steiner trees.

The synthesis routines never mutate a topology; recursion over shrinking
qubit sets is expressed through ``active`` subsets passed to the queries.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Topology:
    """Undirected connected graph on qubits 0..num_qubits-1."""

    def __init__(self, num_qubits: int, edges: Iterable[Edge]):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = num_qubits
        edge_set: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on qubit {u}")
            if not (0 <= u < num_qubits and 0 <= v < num_qubits):
                raise ValueError(f"edge ({u},{v}) out of range for {num_qubits} qubits")
            edge_set.add(_norm_edge(u, v))
        self.edges = frozenset(edge_set)
        self._adj: list[list[int]] = [[] for _ in range(num_qubits)]
        for u, v in sorted(edge_set):
            self._adj[u].append(v)
            self._adj[v].append(u)
        for lst in self._adj:
            lst.sort()
        self.dist = self._floyd_warshall()
        if num_qubits > 1 and int(self.dist.max()) >= _UNREACHABLE:
            raise ValueError("topology graph must be connected")

    def _floyd_warshall(self) -> np.ndarray:
        n = self.num_qubits
        d = np.full((n, n), _UNREACHABLE, dtype=np.int64)
        np.fill_diagonal(d, 0)
        for u, v in self.edges:
            d[u, v] = d[v, u] = 1
        for k in range(n):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
        return d

    # -- presets ---------------------------------------------------------

    @classmethod
    def complete(cls, q: int) -> "Topology":
        return cls(q, [(i, j) for i in range(q) for j in range(i + 1, q)])

    @classmethod
    def line(cls, q: int) -> "Topology":
        return cls(q, [(i, i + 1) for i in range(q - 1)])

    @classmethod
    def cycle(cls, q: int) -> "Topology":
        if q < 3:
            return cls.line(q)
        return cls(q, [(i, (i + 1) % q) for i in range(q)])

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        edges = []
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    edges.append((i, i + 1))
                if r + 1 < rows:
                    edges.append((i, i + cols))
        return cls(rows * cols, edges)

    @classmethod
    def from_file(cls, path: str) -> "Topology":
        with open(path, encoding="utf-8") as f:
            text = f.read()
        return cls.parse(text)

    @classmethod
    def parse(cls, text: str) -> "Topology":
        num_qubits = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if num_qubits is None:
                if len(parts) != 2 or parts[0] != "qubits":
                    raise ValueError(f"line {lineno}: expected 'qubits <q>' header")
                num_qubits = int(parts[1])
                continue
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'u v' edge, got {raw!r}")
            edges.append((int(parts[0]), int(parts[1])))
        if num_qubits is None:
            raise ValueError("missing 'qubits <q>' header")
        return cls(num_qubits, edges)

    @classmethod
    def from_spec(cls, spec: str) -> "Topology":
        """Parse a CLI preset: complete:5 | line:7 | cycle:6 | grid:4x4 | file:<path>."""
        kind, sep, arg = spec.partition(":")
        if not sep:
            raise ValueError(f"invalid topology spec {spec!r} (expected kind:arg)")
        if kind == "complete":
            return cls.complete(int(arg))
        if kind == "line":
            return cls.line(int(arg))
        if kind == "cycle":
            return cls.cycle(int(arg))
        if kind == "grid":
            rows, _, cols = arg.partition("x")
            return cls.grid(int(rows), int(cols))
        if kind == "file":
            return cls.from_file(arg)
        raise ValueError(f"unknown topology kind {kind!r}")

    def serialize(self) -> str:
        lines = [f"qubits {self.num_qubits}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, q: int, active: Iterable[int] | None = None) -> list[int]:
        if active is None:
            return list(self._adj[q])
        active_set = set(active)
        return [n for n in self._adj[q] if n in active_set]

    def _component(self, start: int, allowed: set[int]) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def is_non_cutting(self, q: int, active: Iterable[int]) -> bool:
        """Whether removing ``q`` keeps the induced subgraph on ``active`` connected."""
        active_set = set(active)
        if q not in active_set:
            raise ValueError(f"qubit {q} is not in the active set")
        rest = active_set - {q}
        if not rest:
            return True
        start = next(iter(rest))
        return self._component(start, rest) == rest

    def shortest_path(self, source: int, targets: set[int], active: set[int]) -> list[int]:
        """BFS path inside ``active`` from ``source`` to the nearest of ``targets``.

        Deterministic: neighbors are scanned in ascending order.
        """
        if source in targets:
            return [source]
        prev = {source: -1}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w in active and w not in prev:
                    prev[w] = u
                    if w in targets:
                        path = [w]
                        while path[-1] != source:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    queue.append(w)
        raise ValueError("targets unreachable inside the active set")

    def steiner_tree(self, terminals: Iterable[int], active: Iterable[int]) -> list[Edge]:
        """Edges of a connected subgraph of the active graph spanning ``terminals``.

        Nearest-terminal shortest-path merging; every leaf of the result is a
        terminal.  Returns [] for a single terminal.
        """
        terms = sorted(set(terminals))
        active_set = set(active)
        if not terms:
            raise ValueError("terminals must be non-empty")
        if not set(terms) <= active_set:
            raise ValueError("terminals must lie inside the active set")
        tree_nodes = {terms[0]}
        edges: list[Edge] = []
        remaining = set(terms[1:])
        while remaining:
            # Grow from the tree to the nearest uncovered terminal.
            path = self.shortest_path(min(remaining), tree_nodes, active_set)
            path.reverse()  # now runs tree -> terminal
            for a, b in zip(path, path[1:]):
                edges.append(_norm_edge(a, b))
                tree_nodes.add(b)
            tree_nodes.add(path[0])
            remaining -= tree_nodes
        return edges


_UNREACHABLE = 10 ** 9


def tree_postorder(edges: Iterable[Edge], root: int) -> list[tuple[int, int]]:
    """(child, parent) pairs of a tree in postorder (children before parents)."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for lst in adj.values():
        lst.sort()
    order: list[tuple[int, int]] = []
    stack: list[tuple[int, int, bool]] = [(root, -1, False)]
    while stack:
        node, parent, expanded = stack.pop()
        if expanded:
            if parent != -1:
                order.append((node, parent))
            continue
        stack.append((node, parent, True))
        for child in reversed(adj.get(node, [])):
            if child != parent:
                stack.append((child, node, False))
    return order
