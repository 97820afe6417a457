"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every check pins its stated tolerance.
"""

import time

import numpy as np

import paulisynth as ps
from paulisynth import bench, verify
from paulisynth.bench import check_result
from paulisynth.paulis import XZ_LETTER
from paulisynth.tableau import CliffordTableau, synthesize_tableau

from conftest import conjugate_bits, dense_check, random_clifford_circuit


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_conjugation_table_oracle():
    # conjugate_bits (g P g^) on every letter against the dense matrices.
    start = time.perf_counter()
    bits = {p: (int(p in (ps.Pauli.X, ps.Pauli.Y)), int(p in (ps.Pauli.Y, ps.Pauli.Z)))
            for p in ps.Pauli}
    cases = 0
    ok = True
    for kind in ("h", "s", "sdg", "v", "vdg"):
        gm = verify.circuit_unitary(ps.Circuit(1, (ps.Gate(kind, (0,)),)))
        for p in ps.Pauli:
            x, z, _, _, flip = conjugate_bits(kind, *bits[p])
            lhs = gm @ verify.PAULI_MATRICES[p] @ gm.conj().T
            rhs = (-1 if flip else 1) * verify.PAULI_MATRICES[XZ_LETTER[x + 2 * z]]
            ok &= bool(np.allclose(lhs, rhs, atol=1e-12))
            cases += 1
    gm = verify.circuit_unitary(ps.Circuit(2, (ps.cx(0, 1),)))
    for pc in ps.Pauli:
        for pt in ps.Pauli:
            xc, zc, xt, zt, flip = conjugate_bits("cx", *bits[pc], *bits[pt])
            lhs = gm @ np.kron(verify.PAULI_MATRICES[pc], verify.PAULI_MATRICES[pt]) @ gm
            rhs = (-1 if flip else 1) * np.kron(verify.PAULI_MATRICES[XZ_LETTER[xc + 2 * zc]],
                                                verify.PAULI_MATRICES[XZ_LETTER[xt + 2 * zt]])
            ok &= bool(np.allclose(lhs, rhs, atol=1e-12))
            cases += 1
    elapsed = time.perf_counter() - start
    _report("criterion 1: conjugation rules vs matrix oracle", ok and elapsed < 1.0,
            f"{cases} cases in {elapsed:.2f}s")


def test_criterion_2_end_to_end_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    for trial in range(200):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(1, 21))
        poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 48))))
        topo = ps.Topology.complete(q) if trial % 2 == 0 else ps.Topology.line(q)
        result = ps.synthesize(poly, topo)
        if sorted(result.emitted_order) != list(range(n)):
            failures += 1
            continue
        equivalent = dense_check(poly, result, tol=1e-9)
        if not equivalent or check_result(poly, result, tol=1e-9) != equivalent:
            failures += 1
    elapsed = time.perf_counter() - start
    _report("criterion 2: 200-instance unitary equivalence at 1e-9",
            failures == 0 and elapsed < 120, f"{failures} failures in {elapsed:.1f}s")


def test_criterion_3_architecture_conformance_1000():
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    specs = ["line:4", "line:8", "line:12", "line:16",
             "cycle:4", "cycle:8", "cycle:12", "cycle:16",
             "grid:2x2", "grid:2x4", "grid:4x4", "grid:2x8"]
    topos = {s: ps.Topology.from_spec(s) for s in specs}
    failures = 0
    for trial in range(1000):
        spec = specs[trial % len(specs)]
        topo = topos[spec]
        n = int(rng.integers(5, 51))
        poly = ps.random_polynomial(
            ps.RandomSpec(topo.num_qubits, n, seed=int(rng.integers(1 << 48))))
        result = ps.synthesize(poly, topo)
        if not ps.conforms(result.circuit, topo):
            failures += 1
    elapsed = time.perf_counter() - start
    _report("criterion 3: 1000-instance architecture conformance",
            failures == 0 and elapsed < 300, f"{failures} failures in {elapsed:.1f}s")


def test_criterion_4_tableau_round_trip_200():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    topo_sets = {
        2: [ps.Topology.line(2)],
        3: [ps.Topology.line(3), ps.Topology.cycle(3)],
        4: [ps.Topology.line(4), ps.Topology.grid(2, 2)],
        5: [ps.Topology.line(5), ps.Topology.complete(5)],
    }
    failures = 0
    for trial in range(200):
        q = int(rng.integers(2, 6))
        circ = random_clifford_circuit(q, int(rng.integers(1, 101)), rng)
        t = CliffordTableau.from_circuit(circ)
        u = verify.circuit_unitary(circ)
        topo = topo_sets[q][trial % len(topo_sets[q])]
        for allow_perm in (True, False):
            out, perm = synthesize_tableau(t.copy(), topo, allow_perm)
            good = ps.conforms(out, topo)
            good &= verify.equivalent(u, verify.circuit_unitary(out),
                                      perm.mapping, 1e-9)
            replay = t.copy()
            for g in out.gates:
                replay.prepend(g.adjoint())
            residual = replay.residual_permutation()
            good &= residual is not None
            if not allow_perm:
                good &= perm.is_identity and residual == list(range(q))
            if not good:
                failures += 1
    elapsed = time.perf_counter() - start
    _report("criterion 4: 200 tableau round-trips, both permutation modes",
            failures == 0 and elapsed < 120, f"{failures} failures in {elapsed:.1f}s")


def test_criterion_5_complexity_envelopes():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    worst = 0.0
    for spec in ("line:16", "cycle:16", "grid:4x4", "line:8", "complete:8"):
        topo = ps.Topology.from_spec(spec)
        q = topo.num_qubits
        for n in (100, 500):
            poly = ps.random_polynomial(ps.RandomSpec(q, n, seed=int(rng.integers(1 << 40))))
            result = ps.synthesize(poly, topo)
            ratio = result.metrics.cnot_count / (n * q + q * q)
            worst = max(worst, ratio)
            ok &= result.metrics.cnot_count <= 6 * (n * q + q * q)
    # wall-time scaling at fixed q=16
    topo = ps.Topology.line(16)
    sizes = (50, 100, 200, 400)
    times = []
    for n in sizes:
        poly = ps.random_polynomial(ps.RandomSpec(16, n, seed=int(rng.integers(1 << 40))))
        t0 = time.perf_counter()
        ps.synthesize(poly, topo)
        times.append(time.perf_counter() - t0)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    ok &= slope < 3.0
    elapsed = time.perf_counter() - start
    _report("criterion 5: CNOTs <= 6(nq+q^2) and sub-cubic time scaling",
            ok and elapsed < 900,
            f"worst C={worst:.2f}, slope={slope:.2f}, {elapsed:.1f}s")


def test_criterion_6_improvement_over_naive():
    start = time.perf_counter()
    topo = ps.Topology.complete(5)
    prop_cnots, naive_cnots, prop_d2, naive_d2 = [], [], [], []
    for rep in range(20):
        poly = ps.random_polynomial(
            ps.RandomSpec(5, 100, seed=ps.instance_seed(6, rep)))
        rp = ps.synthesize(poly, topo)
        rn = ps.naive_synthesize(poly, topo)
        prop_cnots.append(rp.metrics.cnot_count)
        naive_cnots.append(rn.metrics.cnot_count)
        prop_d2.append(rp.metrics.two_qubit_depth)
        naive_d2.append(rn.metrics.two_qubit_depth)
    cnot_ratio = np.mean(prop_cnots) / np.mean(naive_cnots)
    depth_ratio = np.mean(prop_d2) / np.mean(naive_d2)
    ok = cnot_ratio <= 0.8 and depth_ratio <= 0.8
    elapsed = time.perf_counter() - start
    _report("criterion 6: proposed <= 0.8x naive on complete:5, n=100",
            ok and elapsed < 300,
            f"cnot ratio={cnot_ratio:.2f}, 2q-depth ratio={depth_ratio:.2f}, "
            f"{elapsed:.1f}s")


def test_criterion_7_trotter_error_parity():
    start = time.perf_counter()
    polys = [ps.random_polynomial(
        ps.RandomSpec(6, 160, ps.SMALL_ANGLE_SET, ps.instance_seed(7, i)))
        for i in range(20)]
    topo = ps.Topology.complete(6)
    timesteps = bench.default_timesteps(17)
    rows = bench.run_trotter_error(polys, topo, ["naive", "proposed"],
                                   timesteps, None)
    err = {"naive": [], "proposed": []}
    for method, _idx, _t, ov in rows:
        err[method].append(1.0 - ov)
    mean_naive = float(np.mean(err["naive"]))
    mean_prop = float(np.mean(err["proposed"]))
    ok = mean_prop <= 2.0 * mean_naive
    elapsed = time.perf_counter() - start
    _report("criterion 7: trotter error parity (proposed <= 2x naive)",
            ok and elapsed < 1200,
            f"naive={mean_naive:.3e}, proposed={mean_prop:.3e}, {elapsed:.1f}s")


def test_criterion_8_worked_example():
    start = time.perf_counter()
    poly = ps.parse_polynomial(
        "qubits 4\n0.3 IIZZ\n0.5 YXZX\n0.7 IIYZ\n0.9 YXZI\n")
    result = ps.synthesize(poly, ps.Topology.line(4))
    pos = {g: i for i, g in enumerate(result.emitted_order)}
    grouped = abs(pos[0] - pos[2]) == 1 and abs(pos[1] - pos[3]) == 1
    equivalent = dense_check(poly, result, tol=1e-9)
    agrees = check_result(poly, result, tol=1e-9) == equivalent
    elapsed = time.perf_counter() - start
    _report("criterion 8: worked four-gadget example groups (0,2) and (1,3)",
            grouped and equivalent and agrees and elapsed < 1.0,
            f"order={result.emitted_order}, {elapsed:.2f}s")
