import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import paulisynth as ps
from paulisynth import bench
from paulisynth.paulis import Pauli


def test_random_polynomial_deterministic():
    spec = ps.RandomSpec(4, 12, seed=42)
    assert ps.random_polynomial(spec) == ps.random_polynomial(spec)
    other = ps.RandomSpec(4, 12, seed=43)
    assert ps.random_polynomial(spec) != ps.random_polynomial(other)


def test_random_polynomial_single_qubit_always_single_leg():
    poly = ps.random_polynomial(ps.RandomSpec(1, 50, seed=3))
    assert all(len(g.string.legs()) == 1 for g in poly.gadgets)


def test_random_polynomial_shape_and_angles():
    spec = ps.RandomSpec(5, 40, seed=9)
    poly = ps.random_polynomial(spec)
    assert poly.num_qubits == 5 and len(poly) == 40
    for g in poly.gadgets:
        assert 1 <= len(g.string.legs()) <= 5
        assert g.angle in spec.angle_set


def test_letter_frequencies_chi_square():
    poly = ps.random_polynomial(ps.RandomSpec(6, 3000, seed=17))
    counts = {Pauli.X: 0, Pauli.Y: 0, Pauli.Z: 0}
    for g in poly.gadgets:
        for p in g.string.letters:
            if p != Pauli.I:
                counts[p] += 1
    total = sum(counts.values())
    assert total >= 10_000
    expected = total / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # df=2 critical value at p=0.001
    assert chi2 < 13.816


def test_leg_count_roughly_uniform():
    q = 4
    poly = ps.random_polynomial(ps.RandomSpec(q, 4000, seed=23))
    counts = [0] * (q + 1)
    for g in poly.gadgets:
        counts[len(g.string.legs())] += 1
    assert counts[0] == 0
    expected = 1000
    chi2 = sum((c - expected) ** 2 / expected for c in counts[1:])
    assert chi2 < 16.27  # df=3, p=0.001


def test_random_spec_validation():
    with pytest.raises(ValueError):
        ps.RandomSpec(0, 5)
    with pytest.raises(ValueError):
        ps.RandomSpec(3, 5, angle_set=())
    for bad in (2.5, True, False, "3", None, 3.0):
        with pytest.raises(ValueError, match="num_qubits"):
            ps.RandomSpec(bad, 3)
        with pytest.raises(ValueError, match="num_gadgets"):
            ps.RandomSpec(2, bad)
    assert len(ps.random_polynomial(ps.RandomSpec(2, 1))) == 1


def test_instance_seed_deterministic():
    assert ps.instance_seed(1, 2, 3) == ps.instance_seed(1, 2, 3)
    assert ps.instance_seed(1, 2, 3) != ps.instance_seed(1, 2, 4)


def test_seeds_are_checked_by_name():
    for bad in (-1, 1.5, True, "3", None):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ps.RandomSpec(2, 3, seed=bad)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ps.instance_seed(bad, 0)
        with pytest.raises(ValueError, match="instance index must be an integer >= 0"):
            ps.instance_seed(1, 0, bad)
    # numpy integers and seed 0 keep working, with the same polynomial
    assert (ps.random_polynomial(ps.RandomSpec(3, 5, seed=np.int64(4)))
            == ps.random_polynomial(ps.RandomSpec(3, 5, seed=4)))
    assert ps.instance_seed(np.uint32(0), 0) == ps.instance_seed(0, 0)


def test_run_benchmark_row_counts_and_consistency(tmp_path):
    out = tmp_path / "rows.csv"
    rows = bench.run_benchmark(["naive", "proposed"], ["complete:4", "line:4"],
                               [5, 10], repeats=2, out_csv=str(out), base_seed=5)
    assert len(rows) == 2 * 2 * 2 * 2
    # metrics recompute identically from the (seed, config)-determined circuit
    for row in rows[:6]:
        topo = ps.Topology.from_spec(row.topology)
        poly = ps.random_polynomial(ps.RandomSpec(row.q, row.n, seed=row.seed))
        res = bench.run_method(row.method, poly, topo)
        assert (res.metrics.cnot_count, res.metrics.depth,
                res.metrics.two_qubit_depth) == (row.cnots, row.depth, row.cnot_depth)
    text = out.read_text()
    assert text.startswith("# paulisynth benchmark rng=numpy-PCG64")
    with open(out) as f:
        reader = csv.reader(line for line in f if not line.startswith("#"))
        header = next(reader)
        assert tuple(header) == bench.CSV_COLUMNS
        assert len(list(reader)) == len(rows)


def test_run_benchmark_rows_deterministic_modulo_walltime(tmp_path):
    kwargs = dict(methods=["proposed"], topologies=["line:3"], sizes=[6],
                  repeats=2, out_csv=None, base_seed=11)
    a = bench.run_benchmark(**kwargs)
    b = bench.run_benchmark(**kwargs)
    strip = lambda r: (r.method, r.topology, r.q, r.n, r.seed, r.cnots, r.depth,
                       r.cnot_depth)
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_run_benchmark_input_validation(tmp_path):
    with pytest.raises(ValueError, match="method"):
        bench.run_benchmark([], ["line:3"], [5], 1, None)
    with pytest.raises(ValueError, match="unknown method"):
        bench.run_benchmark(["bogus"], ["line:3"], [5], 1, None)
    with pytest.raises(ValueError):
        bench.run_benchmark(["naive"], [], [5], 1, None)


def test_run_benchmark_checks_every_row(monkeypatch):
    checked = []
    check = bench.check_result

    def spy(poly, result, tol=1e-9):
        checked.append(poly.num_qubits)
        return check(poly, result, tol)

    monkeypatch.setattr(bench, "check_result", spy)
    rows = bench.run_benchmark(["naive", "proposed"], ["grid:2x3", "line:8"], [6], 1, None)
    assert checked == [row.q for row in rows] == [6, 6, 8, 8]


def test_run_method_unknown():
    poly = ps.random_polynomial(ps.RandomSpec(2, 2, seed=1))
    with pytest.raises(ValueError, match="unknown method"):
        bench.run_method("fancy", poly, ps.Topology.line(2))


def test_trotter_error_zero_timestep_and_commuting(tmp_path):
    # commuting-only polynomial: |overlap| = 1 at every timestep for all methods
    gadgets = tuple(ps.PauliGadget(a, ps.PauliString.from_str(s))
                    for a, s in ((0.1, "ZZI"), (0.2, "IZZ"), (0.3, "ZIZ")))
    poly = ps.PauliPolynomial(3, gadgets)
    out = tmp_path / "trot.csv"
    ts = bench.default_timesteps(5)
    rows = bench.run_trotter_error([poly], ps.Topology.complete(3),
                                   ["naive", "proposed"], ts, str(out))
    assert len(rows) == 2 * 5
    for _method, _idx, t, ov in rows:
        assert abs(ov - 1.0) < 1e-9
    header = out.read_text().splitlines()[1]
    assert header == "method,instance,timestep,overlap_abs"


def test_trotter_timesteps_span():
    ts = bench.default_timesteps(17)
    assert len(ts) == 17
    assert ts[0] == 0.0
    assert abs(ts[-1] - 2 * math.pi) < 1e-12


def test_trotter_error_repetitions_reduce_error():
    poly = ps.random_polynomial(ps.RandomSpec(3, 12, ps.SMALL_ANGLE_SET, seed=5))
    topo = ps.Topology.complete(3)
    t = 2.0
    errs = []
    for r in (1, 4):
        rows = bench.run_trotter_error([poly], topo, ["proposed"], [t], None,
                                       repetitions=r)
        errs.append(1.0 - rows[0][3])
    assert errs[1] <= errs[0] + 1e-12


def test_trotter_error_repetitions_follow_permutation():
    # the output permutation is handled by the check (P @ U_circuit is the
    # product in emitted_order), so the overlap must equal that of a circuit
    # synthesized without a permutation
    no_perm = ps.SynthConfig(allow_permutation=False)
    t = 2.0
    non_involutions = 0
    for spec in ("line:4", "cycle:4", "grid:2x3"):
        topo = ps.Topology.from_spec(spec)
        for seed in (1, 2, 3):
            poly = ps.random_polynomial(ps.RandomSpec(topo.num_qubits, 12,
                                                      ps.SMALL_ANGLE_SET, seed))
            for r in (2, 4):
                base = poly.scaled(1.0 / r)
                with_perm = bench.run_method("proposed", base, topo)
                without = bench.run_method("proposed", base, topo, no_perm)
                assert with_perm.emitted_order == without.emitted_order
                assert without.permutation.is_identity
                perm = with_perm.permutation
                inverse = tuple(perm.mapping.index(i) for i in range(len(perm)))
                non_involutions += perm.mapping != inverse
                rows = [bench.run_trotter_error([poly], topo, ["proposed"], [t],
                                                None, repetitions=r, cfg=cfg)
                        for cfg in (None, no_perm)]
                assert abs(rows[0][0][3] - rows[1][0][3]) < 1e-12
    assert non_involutions > 0


def test_trotter_error_rejects_bad_timesteps(tmp_path):
    poly = ps.random_polynomial(ps.RandomSpec(2, 3, seed=1))
    out = tmp_path / "trot.csv"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="timesteps must be finite"):
            bench.run_trotter_error([poly], ps.Topology.line(2), ["naive"],
                                    [0.0, bad], str(out))
    with pytest.raises(ValueError, match="repetitions must be an integer >= 1, got 1.5"):
        bench.run_trotter_error([poly], ps.Topology.line(2), ["naive"], [1.0], str(out),
                                repetitions=1.5)
    assert not out.exists()
    for count in (-1, 0, 2.5):
        with pytest.raises(ValueError, match=f"timesteps must be an integer >= 1, got {count}"):
            bench.default_timesteps(count)


def test_trotter_error_checks_qubit_cap_before_synthesis(tmp_path, monkeypatch):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesized before the qubit cap was checked")

    monkeypatch.setattr(bench, "run_method", no_synthesis)
    small = ps.random_polynomial(ps.RandomSpec(2, 3, seed=1))
    big = ps.random_polynomial(ps.RandomSpec(13, 3, seed=1))
    out = tmp_path / "trot.csv"
    with pytest.raises(ValueError, match="capped at 12 qubits, got 13"):
        bench.run_trotter_error([small, big], ps.Topology.complete(13), ["proposed"],
                                [1.0], str(out))
    assert not out.exists()


def _corrupt_angle(result):
    gates = list(result.circuit.gates)
    j = next(j for j, g in enumerate(gates) if g.kind == "rz")
    gates[j] = ps.rz(gates[j].angle + 0.1, gates[j].qubits[0])
    return replace(result, circuit=ps.Circuit(result.circuit.num_qubits, tuple(gates)))


def _swap_order(result):
    order = list(result.emitted_order)
    order[0], order[1] = order[1], order[0]
    return replace(result, emitted_order=order)


@pytest.mark.parametrize("corrupt", [_corrupt_angle, _swap_order])
def test_trotter_error_raises_on_failed_check(tmp_path, monkeypatch, corrupt):
    # a circuit that is not the product in emitted_order must not yield rows
    run = bench.run_method
    monkeypatch.setattr(bench, "run_method", lambda *args: corrupt(run(*args)))
    poly = ps.random_polynomial(ps.RandomSpec(4, 12, ps.SMALL_ANGLE_SET, seed=2))
    # distinct strings, none the identity: every swap changes the checked order
    assert len({g.string for g in poly.gadgets}) == len(poly.gadgets)
    out = tmp_path / "trot.csv"
    with pytest.raises(AssertionError, match="equivalence check failed"):
        bench.run_trotter_error([poly], ps.Topology.line(4), ["naive", "proposed"],
                                [1.0], str(out))
    assert not out.exists()


def test_benchmark_jobs_parallel_matches_serial(tmp_path):
    kwargs = dict(methods=["naive"], topologies=["line:3"], sizes=[4],
                  repeats=2, out_csv=None, base_seed=3)
    serial = bench.run_benchmark(**kwargs)
    parallel = bench.run_benchmark(jobs=2, **kwargs)
    strip = lambda r: (r.method, r.seed, r.cnots, r.depth, r.cnot_depth)
    assert [strip(r) for r in serial] == [strip(r) for r in parallel]
