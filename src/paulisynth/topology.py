"""Connectivity graphs: all-pairs distances by BFS rings, cut-vertex queries,
Steiner trees.

A topology holds no state that changes after ``__init__``: recursion over
shrinking qubit sets is expressed through ``active`` subsets passed to the
queries.

Inside, a set of qubits is an int bitmask (bit j for qubit j), the graph is
one neighbour mask per qubit, and every query runs on masks.  A query that
takes a set of qubits accepts any iterable of device qubits or a Python or
numpy integer mask, and checks it in one place, ``Topology._qubit_mask``,
whose first line returns a Python-int mask inside the device as it is.  The
one unchecked entry is the cut test ``_non_cutting``, which trusts its
caller that the qubit is in a connected active set; it and
``is_non_cutting`` run one BFS loop, ``_reaches``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

from .paulis import _check_int, _is_int, parse_token, read_records

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Topology:
    """Undirected connected graph on qubits 0..num_qubits-1."""

    def __init__(self, num_qubits: int, edges: Iterable[Edge]):
        _check_int("num_qubits", num_qubits, 1)
        self.num_qubits = num_qubits = int(num_qubits)  # masks need Python ints
        if not isinstance(edges, Iterable):
            raise ValueError(f"edges must be an iterable of (u, v) pairs, got {edges!r}")
        edge_set: set[Edge] = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a (u, v) pair") from None
            if not (_is_int(u) and _is_int(v) and 0 <= u < num_qubits and 0 <= v < num_qubits):
                raise ValueError(f"edge ({u!r},{v!r}) out of range: endpoints must be "
                                 f"integers in 0..{num_qubits - 1}")
            if u == v:
                raise ValueError(f"self-loop on qubit {u}")
            edge_set.add(_norm_edge(int(u), int(v)))
        self.edges = frozenset(edge_set)
        self._nbr_mask = [0] * num_qubits  # bit w of entry u: (u, w) is an edge
        for u, v in edge_set:
            self._nbr_mask[u] |= 1 << v
            self._nbr_mask[v] |= 1 << u
        # _rings[c][d]: the qubits at distance d from c, by one BFS per qubit.
        self._rings = [self._bfs_rings(c) for c in range(num_qubits)]
        if sum(self._rings[0]) != (1 << num_qubits) - 1:
            raise ValueError("topology graph must be connected")
        dist = [[0] * num_qubits for _ in range(num_qubits)]
        for row, rings in zip(dist, self._rings):
            for d, ring in enumerate(rings):
                while ring:
                    low = ring & -ring
                    row[low.bit_length() - 1] = d
                    ring ^= low
        self.dist = np.array(dist, dtype=np.int64)

    def _bfs_rings(self, source: int) -> list[int]:
        nbr, seen, rings = self._nbr_mask, 1 << source, [1 << source]
        while True:
            reached, ring = 0, rings[-1]
            while ring:
                low = ring & -ring
                reached |= nbr[low.bit_length() - 1]
                ring ^= low
            if not reached & ~seen:
                return rings
            rings.append(reached & ~seen)
            seen |= reached

    # -- presets ---------------------------------------------------------

    @classmethod
    def complete(cls, q: int) -> "Topology":
        _check_int("num_qubits", q, 1)
        return cls(q, [(i, j) for i in range(q) for j in range(i + 1, q)])

    @classmethod
    def line(cls, q: int) -> "Topology":
        _check_int("num_qubits", q, 1)
        return cls(q, [(i, i + 1) for i in range(q - 1)])

    @classmethod
    def cycle(cls, q: int) -> "Topology":
        _check_int("num_qubits", q, 1)
        if q < 3:
            return cls.line(q)
        return cls(q, [(i, (i + 1) % q) for i in range(q)])

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        _check_int("rows", rows, 1)
        _check_int("cols", cols, 1)
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
        """Parse the topology file format (``paulis.read_records``): each
        record is a ``u v`` edge."""
        num_qubits, records = read_records(text, "'u v' edge")
        return cls(num_qubits, [tuple(parse_token(int, t, lineno, "edge endpoint") for t in parts)
                                for lineno, parts in records])

    @classmethod
    def from_spec(cls, spec: str) -> "Topology":
        """Parse a CLI preset: complete:5 | line:7 | cycle:6 | grid:4x4 | file:<path>."""
        kind, sep, arg = spec.partition(":")
        if not sep:
            raise ValueError(f"invalid topology spec {spec!r} (expected kind:arg)")
        if kind == "file":
            return cls.from_file(arg)
        presets = {"complete": cls.complete, "line": cls.line, "cycle": cls.cycle,
                   "grid": cls.grid}
        if kind not in presets:
            raise ValueError(f"unknown topology kind {kind!r}")
        sizes = arg.split("x")
        if len(sizes) != (2 if kind == "grid" else 1) or not all(x.isdigit() for x in sizes):
            raise ValueError(f"invalid topology spec {spec!r}")
        return presets[kind](*map(int, sizes))

    def serialize(self) -> str:
        lines = [f"qubits {self.num_qubits}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._qubit_mask("edge", (u, v))
        return bool(self._nbr_mask[u] >> int(v) & 1)

    def neighbors(self, q: int, active: Iterable[int] | int | None = None) -> list[int]:
        """Neighbours of ``q`` in ascending order, only those in ``active`` if
        given (an iterable of qubits, or an integer with bit j set for qubit j)."""
        near = self._nbr_mask[self._one_qubit(q)]
        if active is not None:
            near &= self._qubit_mask("active", active)
        return _bits(near)

    def is_non_cutting(self, q: int, active: Iterable[int] | int) -> bool:
        """Whether removing ``q`` keeps the induced subgraph on ``active`` (an
        iterable of qubits, or an integer with bit j set for qubit j) connected."""
        active = self._qubit_mask("active", active)
        rest = active & ~(1 << self._one_qubit(q, active))
        return self._reaches(rest, rest)

    def _non_cutting(self, q: int, act: int) -> bool:
        """``is_non_cutting`` for a connected ``act``, unchecked.

        ``q`` must be a Python int in the Python-int mask ``act``, and ``act``
        must be connected: then every part of ``act`` without ``q`` holds a
        neighbour of ``q``, so it is connected iff the BFS from ``q``'s lowest
        active neighbour reaches the others.  On a disconnected ``act`` the
        verdict can be wrong."""
        return self._reaches(self._nbr_mask[q] & act, act & ~(1 << q))

    def _reaches(self, target: int, rest: int) -> bool:
        """Whether the BFS inside mask ``rest`` from the lowest qubit of
        ``target`` (a subset of ``rest``) reaches all of ``target``."""
        nbr = self._nbr_mask
        frontier = target & -target
        unseen = rest ^ frontier
        while frontier and target & unseen:  # one BFS level per round
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & unseen
            unseen ^= frontier
        return not target & unseen

    def _one_qubit(self, q, active: int | None = None) -> int:
        """``q`` as a Python int, or a ValueError unless it is a device qubit
        (one in the Python-int mask ``active``, if given).  A 0-d integer array
        reads as its scalar, as a numpy integer does."""
        q, allowed = _qubit(q), (1 << self.num_qubits) - 1 if active is None else active
        if _is_int(q) and q >= 0 and allowed >> int(q) & 1:
            return int(q)
        if active is None:
            raise ValueError(f"qubit {int(q) if _is_int(q) else repr(q)} not in "
                             f"0..{self.num_qubits - 1}")
        raise ValueError(f"qubit {q} is not in the active set")

    def _qubit_mask(self, role: str, qubits: Iterable[int] | int) -> int:
        """``qubits`` as a Python-int mask (bit j: qubit j), or a ValueError
        naming what is wrong with it.  ``qubits`` is an iterable of device
        qubits, read once, repeats allowed, or a Python or numpy integer mask
        (a 0-d integer array too, as a member may be)."""
        if type(qubits) is int and not qubits >> self.num_qubits:  # needs no other check
            return qubits
        n = self.num_qubits
        if isinstance(qubits, np.ndarray) and not qubits.ndim:
            qubits = qubits[()]  # a 0-d array cannot be iterated: take its scalar
        if not isinstance(qubits, Iterable):
            if not _is_int(qubits) or qubits < 0:  # a bool too
                raise ValueError(f"{role} mask must be a non-negative int, got {qubits!r}")
            mask = int(qubits)  # masks need Python ints
            bad = _bits(mask >> n << n)
        else:
            mask, bad = 0, []
            for j in map(_qubit, qubits):
                # A bool or a float compares like the int it equals, so check the type.
                if _is_int(j) and 0 <= j < n:
                    mask |= 1 << int(j)
                else:
                    bad.append(j)
            bad = sorted(int(j) for j in bad if _is_int(j)) + [j for j in bad if not _is_int(j)]
        if bad:
            raise ValueError(f"{role} qubits {bad} not in 0..{n - 1}")
        return mask

    def shortest_path(self, source: int, targets: Iterable[int] | int,
                      active: Iterable[int] | int) -> list[int]:
        """BFS path inside ``active`` from ``source`` to the nearest of ``targets``
        (each an iterable of qubits, or an integer with bit j set for qubit j).

        Deterministic: neighbors are scanned in ascending order.
        """
        source = self._qubit_mask("source", (source,)).bit_length() - 1
        return self._path(source, self._qubit_mask("target", targets),
                          self._qubit_mask("active", active))[::-1]

    def _path(self, source: int, targets: int, active: int) -> list[int]:
        """``shortest_path`` on masks (bit j: qubit j), from the target to ``source``."""
        if targets >> source & 1:
            return [source]
        nbr, prev = self._nbr_mask, {}
        seen = 1 << source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            fresh = nbr[u] & active & ~seen
            hit = fresh & targets
            if hit:  # the lowest target comes first in ascending order
                path = [(hit & -hit).bit_length() - 1, u]
                while path[-1] != source:
                    path.append(prev[path[-1]])
                return path
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                w = low.bit_length() - 1
                prev[w] = u
                queue.append(w)
                fresh ^= low
        raise ValueError("targets unreachable inside the active set")

    def steiner_tree(self, terminals: Iterable[int] | int,
                     active: Iterable[int] | int) -> list[Edge]:
        """Edges of a connected subgraph of the active graph spanning ``terminals``
        (each an iterable of qubits, or an integer with bit j set for qubit j).

        Nearest-terminal shortest-path merging; every leaf of the result is a
        terminal.  Returns [] for a single terminal.
        """
        terminals = self._qubit_mask("terminal", terminals)
        active = self._qubit_mask("active", active)
        if not terminals:
            raise ValueError("terminals must be non-empty")
        if terminals & ~active:
            raise ValueError("terminals must lie inside the active set")
        remaining, tree = terminals, terminals & -terminals
        edges: list[Edge] = []
        while remaining := remaining & ~tree:
            # Grow from the tree to the nearest uncovered terminal.
            path = self._path((remaining & -remaining).bit_length() - 1, tree, active)
            edges.extend(map(_norm_edge, path, path[1:]))  # tree -> terminal
            tree |= sum(1 << j for j in path)
        return edges


def _qubit(value):
    """``value``, or its scalar if it is a 0-d integer array, so that it reads
    as a numpy integer does."""
    if isinstance(value, np.ndarray) and not value.ndim and value.dtype.kind in "iu":
        return value[()]
    return value


def _bits(mask: int) -> list[int]:
    """Set bits of ``mask``, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def tree_postorder(edges: Iterable[Edge], root: int) -> list[tuple[int, int]]:
    """(child, parent) pairs of a tree in postorder (children before parents,
    siblings in ascending order): the reverse of the preorder that takes
    siblings in descending order."""
    nbr: dict[int, int] = {}  # bit w of nbr[u]: (u, w) is a tree edge
    for u, v in edges:
        nbr[u] = nbr.get(u, 0) | 1 << v
        nbr[v] = nbr.get(v, 0) | 1 << u
    order: list[tuple[int, int]] = []
    stack = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        kids = nbr.get(node, 0)
        if parent >= 0:
            order.append((node, parent))
            kids ^= 1 << parent
        while kids:  # ascending, so that the highest is popped first
            low = kids & -kids
            stack.append((low.bit_length() - 1, node))
            kids ^= low
    return order[::-1]
