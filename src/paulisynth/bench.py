"""Experiment orchestration: random benchmarks and Trotter-error scans to CSV."""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, astuple

import numpy as np

from . import verify
from .circuit import conforms
from .paulis import PauliPolynomial
from .randgen import (RandomSpec, RNG_ALGORITHM, DEFAULT_ANGLE_SET,
                      instance_seed, random_polynomial)
from .synth import SynthConfig, SynthesisResult, naive_synthesize, synthesize
from .topology import Topology

METHODS = ("naive", "proposed")

# Benchmark rows up to this many qubits are also checked against the dense oracle.
CHECK_MAX_Q = 5

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


def run_method(method: str, poly: PauliPolynomial, topo: Topology,
               cfg: SynthConfig | None = None) -> SynthesisResult:
    if method == "naive":
        return naive_synthesize(poly, topo)
    if method == "proposed":
        return synthesize(poly, topo, cfg)
    raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")


def check_result(poly: PauliPolynomial, result: SynthesisResult,
                 tol: float = 1e-9) -> bool:
    """Dense equivalence of the circuit against the emitted gadget product."""
    u_circ = verify.circuit_unitary(result.circuit)
    u_poly = verify.polynomial_unitary(poly, result.emitted_order)
    return verify.equivalent(u_poly, u_circ, result.permutation.mapping, tol)


def _bench_task(args) -> tuple:
    method, topo_spec, n, seed, cfg = args
    topo = Topology.from_spec(topo_spec)
    poly = random_polynomial(RandomSpec(topo.num_qubits, n, DEFAULT_ANGLE_SET, seed))
    start = time.perf_counter()
    result = run_method(method, poly, topo, cfg)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if not conforms(result.circuit, topo):
        raise AssertionError(f"non-conforming circuit from {method} on {topo_spec}")
    if topo.num_qubits <= CHECK_MAX_Q and not check_result(poly, result):
        raise AssertionError(f"equivalence check failed for {method} on {topo_spec}")
    m = result.metrics
    return (method, topo_spec, topo.num_qubits, n, seed,
            m.cnot_count, m.depth, m.two_qubit_depth, elapsed_ms)


def run_benchmark(methods: list[str], topologies: list[str], sizes: list[int],
                  repeats: int, out_csv: str | None, base_seed: int = 1,
                  cfg: SynthConfig | None = None, jobs: int = 1) -> list[ExperimentRow]:
    """One row per (method, topology, size, repeat); instances are shared
    across methods via deterministic per-instance seeds."""
    if not methods:
        raise ValueError("at least one method is required")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} (expected one of {METHODS})")
    if not topologies or not sizes or repeats < 1:
        raise ValueError("topologies, sizes, and repeats must be non-empty/positive")
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
            for row in rows:
                writer.writerow(astuple(row))
    return rows


TROTTER_CSV_COLUMNS = ("method", "instance", "timestep", "overlap_abs")


def run_trotter_error(polys: list[PauliPolynomial], topo: Topology,
                      methods: list[str], timesteps: list[float],
                      out_csv: str | None, repetitions: int = 1,
                      cfg: SynthConfig | None = None) -> list[tuple]:
    """|<0| U_exact(t) ((P U_circuit)^r)^ |0>| per (method, instance, timestep).

    Circuits are synthesized once per instance at unit timestep (angles scaled
    by 1/repetitions); rotation angles are then rescaled per timestep, which
    is exact because the Clifford structure does not depend on the angles.
    Repetitions follow the circuit's output permutation ``P``: each one
    starts on the wires where the previous one left the logical qubits (see
    ``verify.overlap``).
    """
    if not methods:
        raise ValueError("at least one method is required")
    rows = []
    for idx, poly in enumerate(polys):
        base = poly.scaled(1.0 / repetitions)
        for method in methods:
            result = run_method(method, base, topo, cfg)
            for t in timesteps:
                circ = result.circuit.scale_rotations(t)
                ov = verify.overlap(poly, circ, t, repetitions,
                                    result.permutation.mapping)
                rows.append((method, idx, t, abs(ov)))
    if out_csv:
        with open(out_csv, "w", newline="", encoding="utf-8") as f:
            f.write(f"# paulisynth trotter-error rng={RNG_ALGORITHM} r={repetitions}\n")
            writer = csv.writer(f)
            writer.writerow(TROTTER_CSV_COLUMNS)
            for row in rows:
                writer.writerow(row)
    return rows


def default_timesteps(count: int = 17) -> list[float]:
    return [float(t) for t in np.linspace(0.0, 2 * math.pi, count)]
