"""Experiment orchestration: random benchmarks and Trotter-error scans to CSV."""

from __future__ import annotations

import csv
import math
import time
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, astuple

import numpy as np

from . import verify
from .circuit import conforms
from .paulis import PauliColumns, PauliPolynomial, _check_int, _check_type, _is_real
from .randgen import (RandomSpec, RNG_ALGORITHM, DEFAULT_ANGLE_SET, instance_seed,
                      random_polynomial)
from .synth import SynthConfig, SynthesisResult, naive_synthesize, synthesize
from .topology import Topology

METHODS = ("naive", "proposed")

CSV_COLUMNS = ("method", "topology", "q", "n", "seed",
               "cnots", "depth", "cnot_depth", "wall_time_ms")


@dataclass
class ExperimentRow:
    method: str
    topology: str
    q: int
    n: int
    seed: int
    cnots: int
    depth: int
    cnot_depth: int
    wall_time_ms: float


def _check_methods(methods: list[str]) -> None:
    if not methods:
        raise ValueError("at least one method is required")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} (expected one of {METHODS})")


def run_method(method: str, poly: PauliPolynomial, topo: Topology,
               cfg: SynthConfig | None = None) -> SynthesisResult:
    if method == "naive":
        return naive_synthesize(poly, topo)
    if method == "proposed":
        return synthesize(poly, topo, cfg)
    raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")


def check_result(poly: PauliPolynomial, result: SynthesisResult,
                 tol: float = 1e-9) -> bool:
    """Exact check that ``P(mapping) @ U_circuit`` is the emitted gadget
    product up to a global phase, at any qubit count.

    ``emitted_order`` must be a permutation of the gadgets.  One forward pass,
    ``PauliColumns.push_through``, pushes Paulis 0..m-1 (the m non-identity
    gadgets of ``emitted_order`` in that order) and m+r, m+q+r (X_r, Z_r)
    through the circuit's Clifford gates: with D the gates before the k-th rz
    (on wire j), that rz is gadget k when ``D P_k D^ = +-Z_j`` exactly and
    its angle times that sign is the gadget's within ``tol``.  At the end the
    gates map generator ``mapping[c]`` to X_c and Z_c with no sign, i.e. they
    are ``P(mapping)^``.  The dense functions in ``verify`` are the test
    oracle for this check.
    """
    _check_type("poly", poly, PauliPolynomial)
    _check_type("result", result, SynthesisResult)
    if not (_is_real(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    q = poly.num_qubits
    if result.circuit.num_qubits != q:
        raise ValueError("dimension mismatch between polynomial and circuit")
    order = result.emitted_order
    if sorted(order) != list(range(len(poly.gadgets))):
        return False
    # Pauli.I is 0, so any() keeps the gadgets with a non-identity letter.
    targets = [g for g in (poly.gadgets[i] for i in order) if any(g.string.letters)]
    m = len(targets)
    cols = PauliColumns.with_generators([str(g.string) for g in targets], q)
    if not cols.push_through(result.circuit.gates, range(m), [g.angle for g in targets], tol):
        return False
    x, z = cols.x, cols.z
    mapping = result.permutation.mapping
    return (not cols.signs >> m and len(mapping) == q
            and all(x[c] >> m == 1 << mapping[c] and z[c] >> m == 1 << (q + mapping[c])
                    for c in range(q)))


def _bench_task(args) -> tuple:
    method, topo_spec, n, seed, cfg = args
    topo = Topology.from_spec(topo_spec)
    poly = random_polynomial(RandomSpec(topo.num_qubits, n, DEFAULT_ANGLE_SET, seed))
    start = time.perf_counter()
    result = run_method(method, poly, topo, cfg)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if not conforms(result.circuit, topo):
        raise AssertionError(f"non-conforming circuit from {method} on {topo_spec}")
    if not check_result(poly, result):
        raise AssertionError(f"equivalence check failed for {method} on {topo_spec}")
    m = result.metrics
    return (method, topo_spec, topo.num_qubits, n, seed,
            m.cnot_count, m.depth, m.two_qubit_depth, elapsed_ms)


def run_benchmark(methods: list[str], topologies: list[str], sizes: list[int],
                  repeats: int, out_csv: str | None, base_seed: int = 1,
                  cfg: SynthConfig | None = None, jobs: int = 1) -> list[ExperimentRow]:
    """One row per (method, topology, size, repeat); instances are shared
    across methods via deterministic per-instance seeds."""
    _check_methods(methods)
    if not topologies or not sizes:
        raise ValueError("topologies and sizes must be non-empty")
    for name, value in [("repeats", repeats), ("jobs", jobs)] + [("size", n) for n in sizes]:
        _check_int(name, value, 1)
    tasks = []
    for ti, topo_spec in enumerate(topologies):
        for si, n in enumerate(sizes):
            for rep in range(repeats):
                seed = instance_seed(base_seed, ti, si, rep)
                for method in methods:
                    tasks.append((method, topo_spec, n, seed, cfg))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_bench_task, tasks))
    else:
        raw = [_bench_task(t) for t in tasks]
    rows = [ExperimentRow(*r) for r in raw]
    if out_csv:
        with open(out_csv, "w", newline="", encoding="utf-8") as f:
            f.write(f"# paulisynth benchmark rng={RNG_ALGORITHM} base_seed={base_seed}\n")
            writer = csv.writer(f)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(map(astuple, rows))
    return rows


TROTTER_CSV_COLUMNS = ("method", "instance", "timestep", "overlap_abs")


def run_trotter_error(polys: list[PauliPolynomial], topo: Topology,
                      methods: list[str], timesteps: list[float],
                      out_csv: str | None, repetitions: int = 1,
                      cfg: SynthConfig | None = None) -> list[tuple]:
    """|<0| U_exact(t) (G(t/r)^r)^ |0>| per (method, instance, timestep), where
    G is the product of the gadgets in the order the method emits them.

    Each instance is synthesized once with angles scaled by 1/r, and
    ``check_result`` proves that ``P(mapping) @ U_circuit`` is that product up
    to a global phase (a failed check raises ``AssertionError``).  So
    ``(P U_circuit)^r`` is ``G^r`` up to a phase: the order alone gives the
    magnitude at every timestep, with no circuit simulated or relabelled.
    """
    _check_methods(methods)
    _check_int("repetitions", repetitions, 1)
    if isinstance(polys, PauliPolynomial) or not isinstance(polys, Iterable):
        raise ValueError(
            f"polys must be a sequence of PauliPolynomial, got a {type(polys).__name__}")
    polys = list(polys)
    for idx, poly in enumerate(polys):
        if not isinstance(poly, PauliPolynomial):
            raise ValueError(f"polys[{idx}] must be a PauliPolynomial, got {poly!r}")
    # A numpy array is a sequence of reals too, so it is read as a list.
    if isinstance(timesteps, str) or not isinstance(timesteps, Iterable):
        raise ValueError(f"timesteps must be a sequence of finite reals, got {timesteps!r}")
    timesteps = list(timesteps)
    if not timesteps:
        raise ValueError("at least one timestep is required")
    if not all(map(_is_real, timesteps)):
        raise ValueError(f"timesteps must be finite reals, got {timesteps!r}")
    q = max((poly.num_qubits for poly in polys), default=0)
    if q > verify.MAX_DENSE_QUBITS:
        raise ValueError(f"the Trotter scan is capped at {verify.MAX_DENSE_QUBITS} qubits, got {q}")
    rows = []
    for idx, poly in enumerate(polys):
        base = poly.scaled(1.0 / repetitions)
        for method in methods:
            result = run_method(method, base, topo, cfg)
            if not check_result(base, result):
                raise AssertionError(f"equivalence check failed for {method} on instance {idx}")
            overlaps = verify.trotter_overlaps(poly, result.emitted_order,
                                               timesteps, repetitions)
            rows.extend((method, idx, t, float(abs(ov)))
                        for t, ov in zip(timesteps, overlaps))
    if out_csv:
        with open(out_csv, "w", newline="", encoding="utf-8") as f:
            f.write(f"# paulisynth trotter-error rng={RNG_ALGORITHM} r={repetitions}\n")
            writer = csv.writer(f)
            writer.writerow(TROTTER_CSV_COLUMNS)
            writer.writerows(rows)
    return rows


def default_timesteps(count: int = 17) -> list[float]:
    _check_int("timesteps", count, 1)
    return [float(t) for t in np.linspace(0.0, 2 * math.pi, count)]
