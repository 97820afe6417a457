import re
from collections import deque
from itertools import combinations

import numpy as np
import pytest

import paulisynth as ps
from paulisynth import synth
from paulisynth.topology import Topology, tree_postorder

from conftest import random_connected_topology


def bfs_distances(topo, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in topo.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def test_complete_distances():
    t = Topology.complete(5)
    for i in range(5):
        for j in range(5):
            assert t.dist[i, j] == (0 if i == j else 1)


def test_line_distances():
    t = Topology.line(3)
    assert t.dist[0, 2] == 2


def test_star_distances_vs_bfs():
    t = Topology(4, [(0, 1), (0, 2), (0, 3)])
    assert t.dist[1, 2] == 2
    ref = bfs_distances(t, 1)
    assert all(t.dist[1, j] == ref[j] for j in range(4))


def test_distances_match_bfs_on_random_graphs(rng):
    for _ in range(50):
        q = int(rng.integers(2, 17))
        t = random_connected_topology(q, rng)
        for source in range(q):
            ref = bfs_distances(t, source)
            for j in range(q):
                assert t.dist[source, j] == ref[j]


def test_build_errors():
    with pytest.raises(ValueError, match="self-loop"):
        Topology(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError, match="connected"):
        Topology(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="out of range"):
        Topology(2, [(0, 5)])


@pytest.mark.parametrize("q", [2.5, "3", 3.0, True, None, 0, -1])
def test_rejects_non_integer_qubit_count(q):
    with pytest.raises(ValueError, match=re.escape(f"num_qubits must be an integer >= 1, "
                                                   f"got {q!r}")):
        Topology(q, [])


@pytest.mark.parametrize("edge", [(0, 1.0), (0, True), (False, 1), ("0", 1), (0.5, 1)])
def test_rejects_non_integer_edge_endpoints(edge):
    with pytest.raises(ValueError, match=re.escape(f"edge ({edge[0]!r},{edge[1]!r}) out of "
                                                   "range: endpoints must be integers in 0..2")):
        Topology(3, [edge, (1, 2)])


def test_numpy_integers_are_integers():
    t = Topology(np.int64(3), [(np.int64(0), np.int64(1)), (1, 2)])
    assert t.edges == Topology.line(3).edges


def test_numpy_integer_edges_past_63_qubits():
    # Qubit masks are Python ints, so numpy endpoints must not make them
    # fixed-width: bit 64 and up would overflow.
    line = Topology.line(70)
    t = Topology(np.int64(70), [(np.int64(u), np.int64(v)) for u, v in sorted(line.edges)])
    assert t._nbr_mask == line._nbr_mask and all(type(m) is int for m in t._nbr_mask)
    assert t.is_non_cutting(69, (1 << 70) - 1) and not t.is_non_cutting(64, (1 << 70) - 1)
    assert (t.dist == line.dist).all() and t.dist[0, 69] == 69


def test_duplicate_edges_are_idempotent():
    a = Topology(3, [(0, 1), (1, 2)])
    b = Topology(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert a.edges == b.edges


def brute_force_connected(topo, nodes):
    nodes = set(nodes)
    if not nodes:
        return True
    seen = {next(iter(nodes))}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in topo.neighbors(u):
            if w in nodes and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == nodes


def test_non_cutting_examples():
    line3 = Topology.line(3)
    assert not line3.is_non_cutting(1, {0, 1, 2})
    assert line3.is_non_cutting(0, {0, 1, 2})
    complete4 = Topology.complete(4)
    assert all(complete4.is_non_cutting(v, set(range(4))) for v in range(4))
    cycle4 = Topology.cycle(4)
    for v in range(4):
        # brute-force oracle: connectivity after removal
        assert cycle4.is_non_cutting(v, set(range(4))) == \
            brute_force_connected(cycle4, {0, 1, 2, 3} - {v})
    line5 = Topology.line(5)
    # On a disconnected active set a degree-1 qubit still leaves it cut.
    assert not line5.is_non_cutting(0, {0, 1, 3, 4})
    assert line5.is_non_cutting(0, {0, 3, 4})


def test_non_cutting_matches_brute_force_on_random_graphs(rng):
    kinds = {"full": 0, "connected": 0, "disconnected": 0, "single": 0}
    for _ in range(25):
        q = int(rng.integers(2, 10))
        t = random_connected_topology(q, rng, extra_edge_prob=0.2)
        subsets = [set(range(q)), {int(rng.integers(q))}]
        subsets += [{v for v in range(q) if rng.random() < 0.6} for _ in range(6)]
        for active in [a for a in subsets if a]:
            kind = ("full" if len(active) == q else "single" if len(active) == 1
                    else "connected" if brute_force_connected(t, active) else "disconnected")
            kinds[kind] += 1
            for v in active:
                assert t.is_non_cutting(v, active) == \
                    brute_force_connected(t, active - {v}), (t.edges, active, v)
                # Any iterable, or a bitmask, is accepted, with the same answer.
                assert t.is_non_cutting(v, frozenset(active)) == t.is_non_cutting(v, list(active))
                assert t.is_non_cutting(v, frozenset(active)) == \
                    t.is_non_cutting(v, sum(1 << j for j in active))
    assert min(kinds.values()) >= 5, kinds


def test_cut_vertex_survives_non_cutting_removal(rng):
    # Removing a non-cutting vertex u keeps every cut vertex cut, except u's
    # only active neighbour if u has exactly one.  `known` keeps verdicts by
    # that rule, as synth._lone_gadget does; never forgetting one fails.
    pendants = 0
    for trial in range(120):
        q = int(rng.integers(3, 11))
        kind = trial % 4
        t = (Topology.line(q) if kind == 0 else Topology.cycle(q) if kind == 1
             else Topology.grid(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
             if kind == 2 else random_connected_topology(q, rng, extra_edge_prob=0.15))
        active, known = set(range(t.num_qubits)), set()
        while len(active) > 1:
            cut = {v for v in active if not brute_force_connected(t, active - {v})}
            assert known <= cut, (t.edges, active, known - cut)
            assert cut == {v for v in active if not t.is_non_cutting(v, active)}
            known = cut
            u = int(rng.choice(sorted(active - cut)))
            active.remove(u)
            near = [w for w in t.neighbors(u) if w in active]
            if len(near) == 1:
                pendants += near[0] in known and brute_force_connected(t, active - {near[0]})
                known.discard(near[0])
    assert pendants >= 20, pendants


def test_connectivity_memo_skips_sets_where_q_had_no_active_neighbour():
    # {0, 3, 4} minus qubit 0 is connected, but qubit 0 touches none of it,
    # so {0, 3, 4} itself is not: no query, later ones included, may treat it
    # as connected, as the connected-set kernel ``_non_cutting`` would.
    line5 = Topology.line(5)
    assert line5.is_non_cutting(0, {0, 3, 4})
    assert not line5.is_non_cutting(3, {0, 3, 4})
    assert not line5.is_non_cutting(4, 0b11001)


def test_non_cutting_on_peels_interleaved_with_random_sets(rng):
    # Peel steps remove a non-cutting qubit, so the active set stays
    # connected; random, possibly disconnected, queries on the same object
    # in between must get exact answers and must not change later ones.
    disconnected = 0
    for trial in range(60):
        q = int(rng.integers(3, 13))
        kind = trial % 4
        t = (Topology.line(q) if kind == 0 else Topology.cycle(q) if kind == 1
             else Topology.grid(int(rng.integers(2, 4)), int(rng.integers(2, 5)))
             if kind == 2 else random_connected_topology(q, rng, extra_edge_prob=0.2))
        active = set(range(t.num_qubits))
        while active:
            mask = sum(1 << j for j in active)
            free = []
            for v in sorted(active):
                ans = t.is_non_cutting(v, mask)
                assert ans == brute_force_connected(t, active - {v}), (t.edges, active, v)
                free += [v] * ans
                other = {j for j in range(t.num_qubits) if rng.random() < 0.5} | {v}
                if rng.random() < 0.2:
                    disconnected += not brute_force_connected(t, other)
                    for w in sorted(other):
                        assert t.is_non_cutting(w, other) == \
                            brute_force_connected(t, other - {w}), (t.edges, other, w)
            active.remove(int(rng.choice(free)))
    assert disconnected >= 50, disconnected


def test_non_cutting_requires_active_vertex():
    with pytest.raises(ValueError):
        Topology.line(3).is_non_cutting(2, {0, 1})


@pytest.mark.parametrize("active,bad", [({0, 5}, "[5]"), ({0, 1, 5}, "[5]"),
                                        ({0, 1, -1}, "[-1]"), ({-2, 0, 3}, "[-2, 3]"),
                                        (0b100001, "[5]"), (0b100011, "[5]"),
                                        (0b11011, "[3, 4]"), (0b1001, "[3]"),
                                        (np.int64(0b1001), "[3]")])
def test_non_cutting_rejects_active_qubits_out_of_range(active, bad):
    with pytest.raises(ValueError, match=re.escape(f"active qubits {bad} not in 0..2")):
        Topology.line(3).is_non_cutting(0, active)


@pytest.mark.parametrize("mask", [-1, -0b101, True, False, np.int64(-1)])
def test_non_cutting_rejects_bad_masks(mask):
    with pytest.raises(ValueError, match=re.escape(f"active mask must be a non-negative int, "
                                                   f"got {mask!r}")):
        Topology.line(3).is_non_cutting(0, mask)


@pytest.mark.parametrize("q,active,msg", [
    (True, [0, 1, 2], "qubit True is not in the active set"),  # True == 1, a bool
    (0, [0, True], "active qubits [True] not in 0..2"),  # as a member too
    (1.0, [0, 1, 2], "qubit 1.0 is not in the active set"),  # 1.0 == 1, not an int
])
def test_non_cutting_applies_the_integer_rule(q, active, msg):
    with pytest.raises(ValueError, match=re.escape(msg)):
        Topology.line(3).is_non_cutting(q, active)
    assert Topology.line(3).is_non_cutting(np.int64(0), [np.int64(0), 1, 2])


def test_non_cutting_mask_forms_agree(rng):
    # A plain-int mask takes ``_qubit_mask``'s fast return; a numpy-int mask
    # and an iterable take the checks.  All three give the same verdict.
    for _ in range(12):
        q = int(rng.integers(2, 8))
        t = random_connected_topology(q, rng, extra_edge_prob=0.3)
        for mask in range(1, 1 << q):
            active = [j for j in range(q) if mask >> j & 1]
            for v in active:
                ans = t.is_non_cutting(v, mask)
                assert ans == brute_force_connected(t, set(active) - {v}), (t.edges, mask, v)
                assert t.is_non_cutting(v, np.int64(mask)) == ans
                assert t.is_non_cutting(np.int64(v), np.uint64(mask)) == ans
                assert t.is_non_cutting(v, active) == ans


def test_non_cutting_mask_requires_active_vertex():
    line3 = Topology.line(3)
    for q, mask in ((2, 0b011), (0, 0), (-1, 0b111), (3, 0b111), ("1", 0b111)):
        with pytest.raises(ValueError, match=f"qubit {q} is not in the active set"):
            line3.is_non_cutting(q, mask)
    assert not line3.is_non_cutting(1, 0b111) and line3.is_non_cutting(2, 0b111)
    for q, mask in ((2, np.int64(0b011)), (np.int64(3), np.int64(0b111))):
        with pytest.raises(ValueError, match=f"qubit {q} is not in the active set"):
            line3.is_non_cutting(q, mask)


def test_neighbors():
    line3 = Topology.line(3)
    assert line3.neighbors(1) == [0, 2]
    assert Topology.complete(3).neighbors(0) == [1, 2]
    assert line3.neighbors(1, active={0, 1}) == [0]


@pytest.mark.parametrize("q", [-1, 3, 5, 1.0, True, "1"])
def test_neighbors_rejects_qubits_out_of_range(q):
    with pytest.raises(ValueError, match=re.escape(f"qubit {q!r} not in 0..2")):
        Topology.line(3).neighbors(q)
    with pytest.raises(ValueError, match=re.escape(f"qubit {q!r} not in 0..2")):
        Topology.line(3).neighbors(q, {0, 1, 2})


def test_has_edge_and_neighbors_check_their_qubits():
    line3 = Topology.line(3)
    assert line3.has_edge(0, 1) and line3.has_edge(np.int64(2), 1) and not line3.has_edge(0, 2)
    for u, v, bad in ((7, 1, 7), (True, 2, True), (0, 1.0, 1.0), (-1, 0, -1), ("1", 2, "1")):
        with pytest.raises(ValueError, match=re.escape(f"edge qubits [{bad!r}] not in 0..2")):
            line3.has_edge(u, v)
    assert line3.neighbors(1, active=[np.int64(2), 0]) == [0, 2]
    for active in (["a", 7, 2.0, 0], [True], [-1]):
        with pytest.raises(ValueError, match="active qubits"):
            line3.neighbors(1, active=active)


def test_steiner_line_path():
    t = Topology.line(5)
    edges = t.steiner_tree({0, 4}, set(range(5)))
    assert sorted(edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_steiner_single_terminal_is_empty():
    assert Topology.complete(4).steiner_tree({2}, set(range(4))) == []


def test_steiner_grid_l_path():
    t = Topology.grid(2, 2)
    edges = t.steiner_tree({0, 3}, set(range(4)))
    assert len(edges) == 2
    # brute-force oracle: no connected subgraph spanning {0,3} with fewer edges
    best = None
    for k in range(1, 5):
        for combo in combinations(sorted(t.edges), k):
            nodes = {u for e in combo for u in e}
            if {0, 3} <= nodes:
                adj = {n: [] for n in nodes}
                for u, w in combo:
                    adj[u].append(w)
                    adj[w].append(u)
                seen = {0}
                queue = deque([0])
                while queue:
                    u = queue.popleft()
                    for w in adj[u]:
                        if w not in seen:
                            seen.add(w)
                            queue.append(w)
                if 3 in seen:
                    best = k
                    break
        if best:
            break
    assert len(edges) == best == 2


def _tree_degree(edges):
    deg = {}
    for u, w in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[w] = deg.get(w, 0) + 1
    return deg


def test_steiner_properties_random(rng):
    for _ in range(40):
        q = int(rng.integers(2, 12))
        t = random_connected_topology(q, rng)
        n_terms = int(rng.integers(1, q + 1))
        terminals = set(int(x) for x in rng.choice(q, n_terms, replace=False))
        edges = t.steiner_tree(terminals, set(range(q)))
        nodes = {u for e in edges for u in e} | terminals
        # connected and spanning
        adj = {n: [] for n in nodes}
        for u, w in edges:
            adj[u].append(w)
            adj[w].append(u)
        seen = {next(iter(terminals))}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        assert terminals <= seen
        # every leaf is a terminal
        for node, deg in _tree_degree(edges).items():
            if deg == 1:
                assert node in terminals
        # edge budget: consecutive-terminal path lengths
        ordered = sorted(terminals)
        budget = sum(t.dist[a, b] for a, b in zip(ordered, ordered[1:]))
        assert len(edges) <= budget


def test_steiner_errors():
    t = Topology.line(4)
    with pytest.raises(ValueError, match="non-empty"):
        t.steiner_tree(set(), {0, 1, 2, 3})
    with pytest.raises(ValueError, match="inside"):
        t.steiner_tree({3}, {0, 1})


def test_paths_reject_qubits_out_of_range():
    line3 = Topology.line(3)
    with pytest.raises(ValueError, match=re.escape("source qubits [-1] not in 0..2")):
        line3.shortest_path(-1, {2}, {0, 1, 2, -1})
    with pytest.raises(ValueError, match=re.escape("target qubits [3] not in 0..2")):
        line3.shortest_path(0, {3}, {0, 1, 2})
    with pytest.raises(ValueError, match=re.escape("active qubits [1.0] not in 0..2")):
        line3.shortest_path(0, {2}, [0, 1.0, 2])
    with pytest.raises(ValueError, match=re.escape("terminal qubits [5] not in 0..2")):
        line3.steiner_tree({0, 5}, {0, 1, 2, 5})
    with pytest.raises(ValueError, match=re.escape("active qubits [True] not in 0..2")):
        line3.steiner_tree({0, 2}, [0, True, 2])
    assert line3.shortest_path(0, {2}, {0, 1, 2}) == [0, 1, 2]


def _path_ref(adj, source, targets, active):
    """Set-based BFS over adjacency lists: the reference for ``Topology._path``."""
    if source in targets:
        return [source]
    prev = {source: -1}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
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


def _steiner_ref(adj, terminals, active):
    """Set-based nearest-terminal merging: the reference for ``steiner_tree``."""
    terms = sorted(terminals)
    tree_nodes, remaining, edges = {terms[0]}, set(terms[1:]), []
    while remaining:
        path = _path_ref(adj, min(remaining), tree_nodes, active)
        path.reverse()
        for a, b in zip(path, path[1:]):
            edges.append((min(a, b), max(a, b)))
            tree_nodes.add(b)
        remaining -= tree_nodes
    return edges


def _postorder_ref(edges, root):
    """Explicit-stack postorder over sorted adjacency lists: the reference for
    ``tree_postorder``."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    order, stack = [], [(root, -1, False)]
    while stack:
        node, parent, expanded = stack.pop()
        if expanded:
            if parent != -1:
                order.append((node, parent))
            continue
        stack.append((node, parent, True))
        for child in sorted(adj.get(node, []), reverse=True):
            if child != parent:
                stack.append((child, node, False))
    return order


def _outcome(query, *args):
    try:
        return query(*args)
    except ValueError as exc:
        return str(exc)


def test_mask_paths_and_trees_match_the_set_reference(rng):
    # Random active sets need not be connected, so some queries fail; both
    # sides must then fail alike.  Sources are drawn from all qubits, so some
    # lie outside the active set.  Each tree is also walked from one of its
    # terminals.
    for trial in range(300):
        t = Topology.grid(8, 8) if trial % 5 == 0 else \
            random_connected_topology(int(rng.integers(2, 13)), rng)
        q = t.num_qubits
        adj = [sorted(w for e in t.edges if u in e for w in e if w != u) for u in range(q)]
        density = rng.uniform(0.4, 1.0)
        active = {j for j in range(q) if rng.random() < density}
        source = int(rng.integers(q))
        targets = {int(j) for j in rng.choice(q, int(rng.integers(1, 4)))}
        assert _outcome(t.shortest_path, source, targets, active) == \
            _outcome(_path_ref, adj, source, targets, active), (trial, source, targets, active)
        if active:
            terms = {int(j) for j in rng.choice(sorted(active), int(rng.integers(1, len(active) + 1)))}
            tree = _outcome(t.steiner_tree, terms, active)
            assert tree == _outcome(_steiner_ref, adj, terms, active), (trial, terms, active)
            if isinstance(tree, list):
                root = int(rng.choice(sorted(terms)))
                assert tree_postorder(tree, root) == _postorder_ref(tree, root), (trial, tree)


def test_steiner_masks_match_the_sets(rng):
    # On random instances of the reference corpus above, integer masks take
    # ``_qubit_mask``'s fast return and give the same edges, or the same
    # failure, as sets; so does a numpy mask, which takes the checks.
    for trial in range(300):
        t = Topology.grid(8, 8) if trial % 5 == 0 else \
            random_connected_topology(int(rng.integers(2, 13)), rng)
        q = t.num_qubits
        adj = [sorted(w for e in t.edges if u in e for w in e if w != u) for u in range(q)]
        density = rng.uniform(0.4, 1.0)
        active = {j for j in range(q) if rng.random() < density}
        if not active:
            continue
        terms = {int(j) for j in rng.choice(sorted(active), int(rng.integers(1, len(active) + 1)))}
        tree = _outcome(_steiner_ref, adj, terms, active)
        tmask, amask = sum(1 << j for j in terms), sum(1 << j for j in active)
        assert _outcome(t.steiner_tree, terms, active) == tree, (trial, terms, active)
        assert _outcome(t.steiner_tree, tmask, amask) == tree, (trial, terms, active)
        assert _outcome(t.steiner_tree, np.uint64(tmask), amask) == tree, (trial, terms, active)


def _qubit_forms(qubits):
    """Every accepted form of a set of device qubits, each made fresh by a call."""
    qs, mask = sorted(qubits), sum(1 << j for j in qubits)
    return {"set": lambda: set(qs), "list": lambda: list(qs), "tuple": lambda: tuple(qs[::-1]),
            "generator": lambda: (j for j in qs), "repeats": lambda: qs + qs[::-1] + qs[:1],
            "numpy members": lambda: [np.int64(j) for j in qs], "mask": lambda: mask,
            "numpy mask": lambda: np.int64(mask), "unsigned numpy mask": lambda: np.uint8(mask)}


def test_every_query_accepts_every_qubit_form(rng):
    # Every query gives the set reference's answer, or its error, for each
    # form of the same qubits: one checked boundary serves them all.  The
    # Python-int mask takes its fast return; the other forms take the checks.
    for trial in range(60):
        q = int(rng.integers(2, 8))
        t = random_connected_topology(q, rng, extra_edge_prob=0.3)
        adj = [sorted(w for e in t.edges if u in e for w in e if w != u) for u in range(q)]
        active = {j for j in range(q) if rng.random() < 0.7} or {int(rng.integers(q))}
        terms = {j for j in active if rng.random() < 0.5} or {min(active)}
        want = ([[w for w in adj[u] if w in active] for u in range(q)],
                [brute_force_connected(t, active - {u}) if u in active
                 else f"qubit {u} is not in the active set" for u in range(q)],
                [_outcome(_path_ref, adj, u, terms, active) for u in range(q)],
                _outcome(_steiner_ref, adj, terms, active))
        acts, tms = _qubit_forms(active), _qubit_forms(terms)
        for form, act in acts.items():
            got = ([t.neighbors(u, act()) for u in range(q)],
                   [_outcome(t.is_non_cutting, u, act()) for u in range(q)],
                   [_outcome(t.shortest_path, u, tms[form](), act()) for u in range(q)],
                   _outcome(t.steiner_tree, tms[form](), act()))
            assert got == want, (trial, form, t.edges, active, terms)
        for u, v in combinations(range(q), 2):
            assert t.has_edge(np.int64(u), np.uint8(v)) == t.has_edge(v, u) == ((u, v) in t.edges)


def test_shortest_path_reads_one_shot_iterables_once():
    line3 = Topology.line(3)
    assert line3.shortest_path(0, iter([2]), {0, 1, 2}) == [0, 1, 2]
    assert line3.shortest_path(0, {2}, (j for j in range(3))) == [0, 1, 2]
    assert line3.shortest_path(2, (j for j in [0, 0]), iter(range(3))) == [2, 1, 0]


def test_mixed_bad_members_give_one_named_error():
    # Integer members come first, ascending, then the others in the order
    # given; no query sorts a str against an int.
    line3 = Topology.line(3)
    bad = [0, "a", 7]
    for call in (lambda: line3.is_non_cutting(0, bad), lambda: line3.neighbors(1, bad),
                 lambda: line3.shortest_path(0, {2}, bad), lambda: line3.steiner_tree({0}, bad)):
        with pytest.raises(ValueError, match=re.escape("active qubits [7, 'a'] not in 0..2")):
            call()
    with pytest.raises(ValueError, match=re.escape("edge qubits [7, 'a'] not in 0..2")):
        line3.has_edge("a", 7)


@pytest.mark.parametrize("allow_permutation", [False, True])
@pytest.mark.parametrize("mode", ["arbitrary", "commuting-sets"])
def test_recursion_makes_no_public_cut_test(monkeypatch, mode, allow_permutation):
    # Every frame's active set is connected, so the recursion's cut tests go
    # to the kernel; only the final peel in synthesize_tableau asks the
    # public, checked query.
    poly = ps.random_polynomial(ps.RandomSpec(16, 60, seed=5))
    cfg = ps.SynthConfig(mode=mode, allow_permutation=allow_permutation)
    want = ps.synthesize(poly, Topology.grid(4, 4), cfg).circuit
    query, peel, peeling = Topology.is_non_cutting, synth.synthesize_tableau, []

    def guarded(self, q, active):
        if not peeling:
            raise AssertionError(f"public cut test of qubit {q} outside the peel")
        return query(self, q, active)

    def marked_peel(*args):
        peeling.append(True)
        try:
            return peel(*args)
        finally:
            peeling.pop()

    monkeypatch.setattr(Topology, "is_non_cutting", guarded)
    monkeypatch.setattr(synth, "synthesize_tableau", marked_peel)
    assert ps.synthesize(poly, Topology.grid(4, 4), cfg).circuit == want


def test_steiner_respects_active_subset():
    t = Topology.cycle(4)
    # with vertex 1 inactive, the 0..2 route must go the long way
    edges = t.steiner_tree({0, 2}, {0, 2, 3})
    assert sorted(edges) == [(0, 3), (2, 3)]


def test_tree_postorder_children_before_parents():
    edges = [(0, 1), (1, 2), (1, 3)]
    order = tree_postorder(edges, 0)
    seen = set()
    for child, parent in order:
        for c2, p2 in order:
            if p2 == child:
                assert c2 in seen
        seen.add(child)
    assert len(order) == 3
    assert (1, 0) == order[-1]


def test_presets_and_spec_parsing():
    assert Topology.from_spec("complete:5").num_qubits == 5
    assert Topology.from_spec("line:7").num_qubits == 7
    assert Topology.from_spec("cycle:6").num_qubits == 6
    grid = Topology.from_spec("grid:4x4")
    assert grid.num_qubits == 16
    assert grid.has_edge(0, 1) and grid.has_edge(0, 4) and not grid.has_edge(3, 4)
    with pytest.raises(ValueError):
        Topology.from_spec("torus:4")
    with pytest.raises(ValueError):
        Topology.from_spec("line")


def test_file_round_trip(tmp_path):
    t = Topology.grid(2, 3)
    path = tmp_path / "topo.txt"
    path.write_text(t.serialize())
    again = Topology.from_spec(f"file:{path}")
    assert again.edges == t.edges and again.num_qubits == t.num_qubits


def test_parse_errors():
    with pytest.raises(ValueError, match="header"):
        Topology.parse("0 1\n")
    with pytest.raises(ValueError, match="edge"):
        Topology.parse("qubits 3\n0 1 2\n")
    with pytest.raises(ValueError, match="line 1: invalid qubit count 'abc'"):
        Topology.parse("qubits abc\n0 1\n")
    with pytest.raises(ValueError, match="line 3: invalid edge endpoint 'x'"):
        Topology.parse("qubits 3\n# comment\n0 x\n")
    with pytest.raises(ValueError, match="line 2: invalid edge endpoint '1.5'"):
        Topology.parse("qubits 3\n1.5 2\n")
    with pytest.raises(ValueError, match="line 2: qubit count must be positive"):
        Topology.parse("# no qubits\nqubits 0\n")
