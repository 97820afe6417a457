"""``bench.check_result`` (one pass over bit columns) against the dense
oracle, and against the row-product replay it replaced
(``conftest.replay_rotations``, the row-rule reference).

The corpus mixes naive and proposed synthesis, both modes and both
permutation settings, polynomials with all-identity gadgets, and six kinds
of broken result; the check must give the dense verdict on every case.  Two
more mutants flip only a generator's sign, which keeps every letter; past the
dense oracle's reach, the check must agree with the old verdict of
``replay_rotations`` plus ``residual_permutation``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import paulisynth as ps
from paulisynth.bench import check_result

from conftest import dense_check, random_connected_topology, replay_rotations

SPECS = ("line:2", "line:3", "cycle:3", "line:4", "cycle:4", "grid:2x2",
         "complete:4", "line:5", "cycle:5", "complete:5")
MUTANTS = ("angle", "drop_clifford", "swap_clifford", "inverse_permutation",
           "swap_gadgets", "truncate_order")
# Append s(c) s(c) = Z_c or v(c) v(c) = X_c (up to phase) on one wire: the
# left-over Clifford flips the sign of an X or Z generator and no letter.
SIGN_MUTANTS = ("sign_x", "sign_z")


def _with_identity_gadgets(poly, rng):
    """Insert one to three all-identity gadgets at random positions."""
    gadgets = list(poly.gadgets)
    ident = ps.PauliString((ps.Pauli.I,) * poly.num_qubits)
    for _ in range(int(rng.integers(1, 4))):
        angle = float(rng.choice(ps.DEFAULT_ANGLE_SET))
        gadgets.insert(int(rng.integers(len(gadgets) + 1)), ps.PauliGadget(angle, ident))
    return ps.PauliPolynomial(poly.num_qubits, tuple(gadgets))


def _with_gates(result, gates):
    return replace(result, circuit=ps.Circuit(result.circuit.num_qubits, tuple(gates)))


def _is_identity(gadget):
    return not gadget.string.legs()


def _pi_multiple(angle):
    return math.isclose(math.remainder(angle, math.pi), 0.0, abs_tol=1e-12)


def mutate(kind, poly, result, rng):
    """A broken copy of ``result``, or None if ``kind`` does not apply to it."""
    gates = list(result.circuit.gates)
    rots = [i for i, g in enumerate(gates) if g.kind == "rz"]
    cliffords = [i for i, g in enumerate(gates) if g.is_clifford]
    order = list(result.emitted_order)
    if kind == "angle":
        if not rots:
            return None
        i = int(rng.choice(rots))
        gates[i] = ps.rz(gates[i].angle + 1e-3, gates[i].qubits[0])
        return _with_gates(result, gates)
    if kind == "drop_clifford":
        if not cliffords:
            return None
        del gates[int(rng.choice(cliffords))]
        return _with_gates(result, gates)
    if kind == "swap_clifford":
        if not cliffords:
            return None
        i = int(rng.choice(cliffords))
        g = gates[i]
        if g.kind == "cx":
            gates[i] = ps.cx(g.qubits[1], g.qubits[0])
        else:
            other = [k for k in ("h", "s", "sdg", "v", "vdg") if k != g.kind]
            gates[i] = ps.Gate(str(rng.choice(other)), g.qubits)
        return _with_gates(result, gates)
    if kind == "inverse_permutation":
        mapping = result.permutation.mapping
        inverse = tuple(mapping.index(i) for i in range(len(mapping)))
        return replace(result, permutation=ps.QubitPermutation(inverse))
    if kind == "swap_gadgets":
        # Neighbours in the rotation sequence that anticommute and are not
        # both angle-pi gadgets (those two orders differ by a global phase).
        live = [p for p, i in enumerate(order) if not _is_identity(poly.gadgets[i])]
        pairs = [(a, b) for a, b in zip(live, live[1:])
                 if not ps.commutes(poly.gadgets[order[a]], poly.gadgets[order[b]])
                 and not (_pi_multiple(poly.gadgets[order[a]].angle)
                          and _pi_multiple(poly.gadgets[order[b]].angle))]
        if not pairs:
            return None
        a, b = pairs[int(rng.integers(len(pairs)))]
        order[a], order[b] = order[b], order[a]
        return replace(result, emitted_order=order)
    if kind in SIGN_MUTANTS:
        gate = (ps.s if kind == "sign_x" else ps.v)(int(rng.integers(result.circuit.num_qubits)))
        return _with_gates(result, gates + [gate, gate])
    if kind == "truncate_order":
        # Cut at the last gadget that is not the identity, so the product changes.
        last = [p for p, i in enumerate(order) if not _is_identity(poly.gadgets[i])]
        if not last:
            return None
        return replace(result, emitted_order=order[:last[-1]])
    raise ValueError(kind)


def test_check_result_agrees_with_dense_oracle():
    rng = np.random.default_rng(9001)
    verdicts = {"correct": [], **{kind: [] for kind in MUTANTS}}
    for trial in range(64):
        topo = ps.Topology.from_spec(SPECS[trial % len(SPECS)])
        q = topo.num_qubits
        n = int(rng.integers(1, 16))
        poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 40))))
        if trial % 3 == 0:
            poly = _with_identity_gadgets(poly, rng)
        if trial % 4 == 3:
            result = ps.naive_synthesize(poly, topo)
        else:
            cfg = ps.SynthConfig(mode=("arbitrary", "commuting-sets")[trial % 2],
                                 allow_permutation=trial % 8 < 4)
            result = ps.synthesize(poly, topo, cfg)
        cases = [("correct", result)]
        cases += [(kind, mutate(kind, poly, result, rng)) for kind in MUTANTS]
        for kind, case in cases:
            if case is None:
                continue
            dense = dense_check(poly, case)
            assert check_result(poly, case) == dense, (trial, kind, SPECS[trial % len(SPECS)])
            verdicts[kind].append(dense)
    # All-identity polynomials: no rotations at all.  Dropping an identity
    # gadget from emitted_order only changes a global phase, so the dense
    # oracle still accepts it; the replay requires a permutation of the gadgets.
    for q in (2, 4):
        ident = ps.PauliString((ps.Pauli.I,) * q)
        poly = ps.PauliPolynomial(q, (ps.PauliGadget(0.5, ident),) * 3)
        for result in (ps.synthesize(poly, ps.Topology.line(q)),
                       ps.naive_synthesize(poly, ps.Topology.line(q))):
            assert check_result(poly, result) and dense_check(poly, result)
            verdicts["correct"].append(True)
            truncated = replace(result, emitted_order=result.emitted_order[:-1])
            assert not check_result(poly, truncated)
    assert sum(len(v) for v in verdicts.values()) >= 300
    assert all(verdicts["correct"])
    for kind in MUTANTS:
        assert verdicts[kind] and not all(verdicts[kind]), kind
    for kind in ("angle", "drop_clifford", "swap_clifford", "swap_gadgets",
                 "truncate_order"):
        assert not any(verdicts[kind]), kind


def test_check_result_rejects_bad_emitted_order():
    poly = ps.random_polynomial(ps.RandomSpec(3, 6, seed=2))
    result = ps.synthesize(poly, ps.Topology.line(3))
    order = result.emitted_order
    assert check_result(poly, result)
    assert not check_result(poly, replace(result, emitted_order=order + [order[0]]))
    assert not check_result(poly, replace(result, emitted_order=order[:-1] + [order[0]]))
    with pytest.raises(ValueError):
        check_result(poly, replace(result, circuit=ps.Circuit(4)))


@pytest.mark.parametrize("tol", [None, "1e-9", True, [1e-9], float("nan"), math.inf, -1.0])
def test_check_result_rejects_a_bad_tolerance(tol):
    poly = ps.random_polynomial(ps.RandomSpec(3, 6, seed=2))
    result = ps.synthesize(poly, ps.Topology.line(3))
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        check_result(poly, result, tol)
    assert check_result(poly, result, np.float64(1e-9)) and check_result(poly, result, 0)


def test_check_result_rejects_an_appended_clifford_that_fixes_every_x():
    # h(0) cx(0,1) h(0) maps every X image to itself but moves Z images, so a
    # check that reads only the X rows of the left-over Clifford would pass it.
    poly = ps.random_polynomial(ps.RandomSpec(4, 12, seed=1))
    result = ps.synthesize(poly, ps.Topology.line(4))
    assert check_result(poly, result)
    extra = (ps.h(0), ps.cx(0, 1), ps.h(0))
    broken = _with_gates(result, result.circuit.gates + extra)
    assert not check_result(poly, broken)
    assert not dense_check(poly, broken)


def test_check_result_rejects_a_rotation_about_a_wrong_pauli_or_an_extra_one():
    # cx(0,1) rz(1) cx(0,1) is exp(-i*0.3/2 * ZZ).  The rz alone leaves the
    # same Clifford part but rotates about IZ, so only the rotation's Pauli,
    # Z on wire 1 and on wire 0, tells them apart.
    poly = ps.PauliPolynomial(2, (ps.PauliGadget(0.3, ps.PauliString.from_str("ZZ")),))
    result = replace(ps.synthesize(poly, ps.Topology.line(2)),
                     permutation=ps.QubitPermutation.identity(2))
    good = _with_gates(result, (ps.cx(0, 1), ps.rz(0.3, 1), ps.cx(0, 1)))
    assert check_result(poly, good) and dense_check(poly, good)
    for gates in ((ps.rz(0.3, 1),), good.circuit.gates + (ps.rz(0.1, 0),)):
        broken = _with_gates(result, gates)
        assert not check_result(poly, broken) and not dense_check(poly, broken)
    poly = ps.random_polynomial(ps.RandomSpec(4, 12, seed=1))
    result = ps.synthesize(poly, ps.Topology.line(4))
    assert not check_result(poly, _with_gates(result, result.circuit.gates + (ps.rz(0.1, 2),)))


def test_check_result_at_64_qubits():
    topo = ps.Topology.from_spec("grid:8x8")
    poly = ps.random_polynomial(ps.RandomSpec(64, 300, seed=1))
    result = ps.synthesize(poly, topo)
    assert check_result(poly, result)
    broken = mutate("angle", poly, result, np.random.default_rng(3))
    assert not check_result(poly, broken)


def test_replay_rotations_returns_the_left_over_clifford():
    # cx(0,1) rz(0.3) on wire 1 cx(0,1): exp(-i*0.3/2 * ZZ), nothing left over.
    gates = (ps.cx(0, 1), ps.rz(0.3, 1), ps.cx(0, 1))
    zz = ps.PauliGadget(0.3, ps.PauliString.from_str("ZZ"))
    t = replay_rotations(2, gates, [zz], 1e-9)
    identity = ps.CliffordTableau(2)
    assert t is not None and (t.rows, t.signs) == (list(identity.rows), list(identity.signs))
    assert replay_rotations(2, gates, [ps.PauliGadget(-0.3, zz.string)], 1e-9) is None
    assert replay_rotations(2, gates, [], 1e-9) is None
    assert replay_rotations(2, gates, [zz, zz], 1e-9) is None
    with pytest.raises(ValueError, match="rz angle must be a finite real"):
        ps.rz(float("nan"), 1)  # so no replay meets a NaN rotation
    # h then rz: the rotation is about X; the h is left over as C.
    t = replay_rotations(1, (ps.h(0), ps.rz(0.2, 0)),
                         [ps.PauliGadget(0.2, ps.PauliString.from_str("X"))], 1e-9)
    h = ps.CliffordTableau.from_circuit(ps.Circuit(1, (ps.h(0),)))
    assert (t.rows, t.signs) == (list(h.rows), list(h.signs))


def _row_replay_verdict(poly, result, tol=1e-9):
    """The check before the column pass: row-product replay, then the
    left-over Clifford must be the output permutation with no signs."""
    order = result.emitted_order
    if sorted(order) != list(range(len(poly.gadgets))):
        return False
    t = replay_rotations(poly.num_qubits, result.circuit.gates,
                         [poly.gadgets[i] for i in order], tol)
    return t is not None and t.residual_permutation() == list(result.permutation.mapping)


def _assert_same_verdicts(poly, result, rng):
    """check_result and the row replay agree on ``result`` and every mutant."""
    cases = [("correct", result)]
    cases += [(kind, mutate(kind, poly, result, rng)) for kind in MUTANTS + SIGN_MUTANTS]
    verdicts = {}
    for kind, case in cases:
        if case is not None:
            verdicts[kind] = check_result(poly, case)
            assert verdicts[kind] == _row_replay_verdict(poly, case), kind
    assert verdicts["correct"]
    assert not any(verdicts[kind] for kind in SIGN_MUTANTS)
    return verdicts


def test_check_result_agrees_with_the_row_replay_on_the_corpus():
    # The corpus of test_check_result_agrees_with_dense_oracle, instance for
    # instance; the sign mutants draw from their own generator.
    rng, sign_rng = np.random.default_rng(9001), np.random.default_rng(9002)
    for trial in range(64):
        topo = ps.Topology.from_spec(SPECS[trial % len(SPECS)])
        q = topo.num_qubits
        n = int(rng.integers(1, 16))
        poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 40))))
        if trial % 3 == 0:
            poly = _with_identity_gadgets(poly, rng)
        if trial % 4 == 3:
            result = ps.naive_synthesize(poly, topo)
        else:
            cfg = ps.SynthConfig(mode=("arbitrary", "commuting-sets")[trial % 2],
                                 allow_permutation=trial % 8 < 4)
            result = ps.synthesize(poly, topo, cfg)
        for kind in MUTANTS:
            case = mutate(kind, poly, result, rng)
            if case is not None:
                assert check_result(poly, case) == _row_replay_verdict(poly, case), (trial, kind)
        for kind in SIGN_MUTANTS:
            case = mutate(kind, poly, result, sign_rng)
            assert not check_result(poly, case) and not _row_replay_verdict(poly, case)
            assert not dense_check(poly, case), (trial, kind)


@pytest.mark.parametrize("spec, n", [("grid:8x8", 300), ("line:8", 2500)])
def test_check_result_agrees_with_the_row_replay_on_large_instances(spec, n):
    topo = ps.Topology.from_spec(spec)
    poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, n, seed=1))
    verdicts = _assert_same_verdicts(poly, ps.synthesize(poly, topo), np.random.default_rng(5))
    assert set(verdicts) == {"correct", *MUTANTS, *SIGN_MUTANTS}


def test_check_result_agrees_with_the_row_replay_on_random_devices():
    # Trees (no extra edge), sparse and dense graphs, q up to 64.
    rng = np.random.default_rng(2108)
    for trial, q in enumerate((2, 3, 5, 8, 13, 21, 34, 47, 55, 64, 64, 64)):
        topo = random_connected_topology(q, rng, (0.0, 2 / q, 0.3)[trial % 3])
        poly = ps.random_polynomial(ps.RandomSpec(q, int(rng.integers(1, 40)),
                                                  seed=int(rng.integers(1 << 40))))
        if trial % 4 == 3:
            result = ps.naive_synthesize(poly, topo)
        else:
            cfg = ps.SynthConfig(mode=("arbitrary", "commuting-sets")[trial % 2],
                                 allow_permutation=trial % 8 < 4)
            result = ps.synthesize(poly, topo, cfg)
        _assert_same_verdicts(poly, result, rng)
