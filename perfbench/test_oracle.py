"""Self-test of the benchmark's output oracle.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_oracle.py

Correct compilations must pass; a flipped rotation angle, a dropped gate and
a wrong output permutation must each be rejected.
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import paulisynth as ps  # noqa: E402

# (device, gadgets, seed); every case has a non-identity output permutation.
EXACT_CASES = [("complete:5", 30, 2), ("line:6", 40, 1), ("complete:8", 25, 2)]


def compile_case(spec, n, seed):
    topo = ps.Topology.from_spec(spec)
    poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, n, ps.DEFAULT_ANGLE_SET, seed))
    result = ps.synthesize(poly, topo)
    return poly, result


def with_gates(result, gates):
    return dataclasses.replace(result, circuit=ps.Circuit(result.circuit.num_qubits,
                                                          tuple(gates)))


@pytest.fixture(scope="module", params=EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
def case(request):
    spec = request.param[0]
    poly, result = compile_case(*request.param)
    assert not result.permutation.is_identity
    return spec, poly, result


def test_accepts_correct_output(case):
    spec, poly, result = case
    assert oracle.check(poly, result, spec) == []


def test_rejects_flipped_angle(case):
    spec, poly, result = case
    gates = list(result.circuit.gates)
    k = next(k for k, g in enumerate(gates)
             if g.kind == "rz" and not math.isclose(abs(g.angle), math.pi))
    gates[k] = ps.rz(-gates[k].angle, gates[k].qubits[0])
    assert oracle.check(poly, with_gates(result, gates), spec)


@pytest.mark.parametrize("kind", ["cx", "h", "rz"])
def test_rejects_dropped_gate(case, kind):
    spec, poly, result = case
    gates = list(result.circuit.gates)
    k = next(k for k, g in enumerate(gates) if g.kind == kind)
    assert oracle.check(poly, with_gates(result, gates[:k] + gates[k + 1:]), spec)


def test_rejects_wrong_permutation(case):
    spec, poly, result = case
    mapping = list(result.permutation.mapping)
    a = next(i for i, p in enumerate(mapping) if p != i)
    b = mapping[a]
    mapping[a], mapping[b] = mapping[b], mapping[a]
    wrong = dataclasses.replace(result, permutation=ps.QubitPermutation(tuple(mapping)))
    assert oracle.check(poly, wrong, spec)


def test_structural_check_at_36_qubits():
    spec = "grid:6x6"
    poly, result = compile_case(spec, 40, 1)
    assert poly.num_qubits > oracle.EXACT_MAX_QUBITS
    assert oracle.check(poly, result, spec) == []
    gates = list(result.circuit.gates)
    rz_at = next(k for k, g in enumerate(gates) if g.kind == "rz")
    dropped = with_gates(result, gates[:rz_at] + gates[rz_at + 1:])
    assert oracle.check(poly, dropped, spec)
    scaled = gates[:rz_at] + [ps.rz(gates[rz_at].angle / 2, gates[rz_at].qubits[0])] \
        + gates[rz_at + 1:]
    assert oracle.check(poly, with_gates(result, scaled), spec)
    cx_at = next(k for k, g in enumerate(gates) if g.kind == "cx")
    control = gates[cx_at].qubits[0]
    off_device = gates[:cx_at] + [ps.cx(control, (control + 18) % 36)] + gates[cx_at + 1:]
    assert oracle.check(poly, with_gates(result, off_device), spec)
    reordered = dataclasses.replace(result, emitted_order=result.emitted_order[1:])
    assert oracle.check(poly, reordered, spec)
