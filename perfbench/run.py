"""Seeded end-to-end benchmark of ``paulisynth``, with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid36 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
Each workload compiles a few random polynomials of one size on one device
through ``paulisynth.synthesize`` (and, for ``verify8``, checks them with
``paulisynth.bench.check_result``), in one process with the BLAS/OpenMP
thread count pinned below.  Every output is checked by ``oracle.py``, which
shares no code with the package.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer spans of ``layers.py``, per pass over the instances.
Lines before it repeat every metric for a reader, with sample counts, the
failure share, the circuit fingerprint and the environment.

Self-tests of the oracle and the tracer:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # write nothing into the checkout

# Pinned before numpy loads: the dense check in ``verify8`` runs about 20%
# slower on one BLAS thread than on two, and more threads than cores only
# add noise.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import oracle

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "paulisynth"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# The warm-up polynomial has this many times fewer gadgets than an instance
# and a fixed seed, so every set-up does the same work.
WARMUP_DIVISOR = 4
WARMUP_SEED = 0


@dataclass(frozen=True)
class Workload:
    spec: str
    gadgets: int
    instances: int
    dense_check: bool


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    # Sparse 36-qubit device: pivot selection dominates synthesize.
    "grid36": Workload("grid:6x6", 300, 3, False),
    # Few qubits, many gadgets: Clifford propagation dominates.
    "line8-deep": Workload("line:8", 2500, 2, False),
    # synthesize then bench.check_result, as `paulisynth verify` does.
    "verify8": Workload("complete:8", 100, 4, True),
}


def instance_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def import_package():
    """A fresh import of ``paulisynth`` from this checkout, with empty caches."""
    for name in [n for n in sys.modules if n == "paulisynth" or n.startswith("paulisynth.")]:
        del sys.modules[name]
    gc.collect()
    ps = importlib.import_module("paulisynth")
    if Path(ps.__file__).resolve().parent != PACKAGE_DIR:
        raise ImportError(f"paulisynth was imported from {ps.__file__}, not {PACKAGE_DIR}")
    return ps


def make_polynomial(ps, q: int, gadgets: int, seed: int, index: int):
    spec = ps.RandomSpec(q, gadgets, ps.DEFAULT_ANGLE_SET, instance_seed(seed, index))
    return ps.random_polynomial(spec)


def call(ps, w: Workload, poly, topo):
    """The timed operation: (result, library check passed)."""
    result = ps.synthesize(poly, topo)
    return result, (ps.bench.check_result(poly, result) if w.dense_check else True)


def fill_gate_cache(ps, q: int) -> None:
    """Put every gate a synthesized circuit can hold into the dense gate cache.

    ``paulisynth.verify`` caches one matrix per (gate, angle); rotation
    angles are +-a for a in the angle set.  Filling the cache completely
    means every timed dense check sees the same cache state, whichever
    instance it checks first.
    """
    if not hasattr(getattr(ps, "verify", None), "circuit_unitary"):
        return
    gates = [ps.Gate(kind, (j,)) for kind in ("h", "s", "sdg", "v", "vdg") for j in range(q)]
    gates += [ps.rz(sign * a, j) for a in ps.DEFAULT_ANGLE_SET for sign in (1, -1)
              for j in range(q)]
    gates += [ps.cx(c, t) for c in range(q) for t in range(q) if c != t]
    ps.verify.circuit_unitary(ps.Circuit(q, tuple(gates)))


def set_up(w: Workload, seed: int):
    """Import, device, polynomials and an untimed warm-up.

    The warm-up calls the timed operation once on a smaller polynomial drawn
    like the instances but never one of them, so every code path has run
    while a cache keyed by the input cannot serve a timed call.  Dense-check
    workloads also fill the gate-matrix cache.
    """
    start = time.perf_counter()
    ps = import_package()
    topo = ps.Topology.from_spec(w.spec)
    q = topo.num_qubits
    polys = [make_polynomial(ps, q, w.gadgets, seed, i) for i in range(w.instances)]
    warm = make_polynomial(ps, q, w.gadgets // WARMUP_DIVISOR, WARMUP_SEED, w.instances)
    call(ps, w, warm, topo)
    if w.dense_check:
        fill_gate_cache(ps, q)
    return ps, topo, polys, time.perf_counter() - start


class Outcomes:
    """Checks every output once per distinct fingerprint, counts failures."""

    def __init__(self, w: Workload, polys, seed: int):
        self.w, self.polys, self.seed = w, polys, seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.verdicts: dict[tuple[int, str], list[str]] = {}
        self.first: dict[int, tuple[str, object]] = {}

    def record(self, i: int, result, library_ok: bool) -> None:
        self.attempted += 1
        fp = oracle.fingerprint(result)
        key = (i, fp)
        if key not in self.verdicts:
            self.verdicts[key] = oracle.check(self.polys[i], result, self.w.spec, self.seed)
        errors = list(self.verdicts[key])
        if not library_ok:
            errors.append("bench.check_result rejected the circuit")
        if errors:
            self.fail(f"instance {i}: {errors[0]}")
        self.first.setdefault(i, (fp, result))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def fingerprint(self) -> str:
        if len(self.first) < len(self.polys):
            return "incomplete"
        return "".join(self.first[i][0] for i in range(len(self.polys)))

    def results(self):
        return [self.first[i][1] for i in sorted(self.first)]


def timed_pass(ps, w, topo, polys, outcomes, samples, indices) -> None:
    for i in indices:
        start = time.perf_counter()
        try:
            result, library_ok = call(ps, w, polys[i], topo)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcomes.attempted += 1
            outcomes.fail(f"instance {i}: {type(exc).__name__}: {exc}")
            continue
        samples[i].append(time.perf_counter() - start)
        outcomes.record(i, result, library_ok)


def instance_medians(samples) -> list[float]:
    return [statistics.median(s) for s in samples if s]


def gadgets_per_s(w: Workload, samples) -> float:
    """Gadgets over the sum of per-instance median call times."""
    timed = instance_medians(samples)
    return w.gadgets * len(timed) / sum(timed) if timed else 0.0


def end_to_end(ps, w, topo, polys, seed, seconds, setup_times):
    outcomes = Outcomes(w, polys, seed)
    samples = [[] for _ in polys]
    # Every instance once, then round-robin while the next call, if it takes
    # as long as the last one, still ends within ``seconds``.
    start, k, last = time.perf_counter(), 0, 0.0
    while k < len(polys) or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        timed_pass(ps, w, topo, polys, outcomes, samples, [k % len(polys)])
        last = time.perf_counter() - began
        k += 1
    times = [t for s in samples for t in s]
    results = outcomes.results()
    metrics = {
        "gadgets_per_s": (gadgets_per_s(w, samples), "gadgets/s"),
        "call_s_p50": (statistics.median(times) if times else 0.0, "s"),
        "call_s_max": (max(instance_medians(samples), default=0.0), "s"),
        "cnots": (sum(r.metrics.cnot_count for r in results), "count"),
        "depth": (sum(r.metrics.depth for r in results), "count"),
        "cnot_depth": (sum(r.metrics.two_qubit_depth for r in results), "count"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"call_s_p50 is the median of {len(times)} timed calls; call_s_max is the "
             "slowest instance's median call",
             "call seconds per instance: " + "; ".join(
                 " ".join(f"{t:.3f}" for t in s) for s in samples),
             f"setup_s median of {len(setup_times)} set-ups: "
             + ", ".join(f"{t:.3f}" for t in setup_times)]
    return outcomes, metrics, notes


def traced(ps, w, topo, polys, seed, seconds):
    """Alternate untraced and traced passes; per-layer numbers per traced pass."""
    outcomes = Outcomes(w, polys, seed)
    untraced = [[] for _ in polys]
    traced_samples = [[] for _ in polys]
    tracer = layers.Tracer()
    everything = range(len(polys))
    start, passes = time.perf_counter(), 0
    # Rounds of one untraced and one traced pass, as many as fit in ``seconds``.
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        timed_pass(ps, w, topo, polys, outcomes, untraced, everything)
        tracer.install()
        try:
            timed_pass(ps, w, topo, polys, outcomes, traced_samples, everything)
        finally:
            tracer.uninstall()
        passes += 1
    metrics = {}
    for name, _, _ in layers.LAYERS:
        span = tracer.spans.get(name, layers.Span())
        metrics[f"{name}.s"] = (span.s / passes, "s")
        if name in layers.NESTING:
            metrics[f"{name}.self_s"] = (span.self_s / passes, "s")
        metrics[f"{name}.calls"] = (span.calls // passes, "count")
    nc = tracer.spans.get("topology.is_non_cutting", layers.Span())
    metrics["topology.is_non_cutting.true_frac"] = (nc.true / nc.calls if nc.calls else 0.0, "frac")
    total = sum(t for s in traced_samples for t in s) / passes
    shares = {g: sum(metrics[f"{n}.s"][0] for n in names) / total
              for g, names in layers.GROUPS.items()}
    shares["synth_other"] = metrics["synth.synthesize.self_s"][0] / total
    for g, share in shares.items():
        metrics[f"share.{g}"] = (share, "frac")
    rec = tab = 0
    for r in outcomes.results():
        split = getattr(r, "recursion_gate_count", None)
        if split is None:
            tracer.absent.append("SynthesisResult.recursion_gate_count")
            break
        cx = [g.kind == "cx" for g in r.circuit.gates]
        rec += sum(cx[:split])
        tab += sum(cx[split:])
    metrics["recursion_cnots"] = (rec, "count")
    metrics["tableau_cnots"] = (tab, "count")
    plain_gps, traced_gps = gadgets_per_s(w, untraced), gadgets_per_s(w, traced_samples)
    metrics["trace.gadgets_per_s"] = (traced_gps, "gadgets/s")
    metrics["trace.overhead_frac"] = (1 - traced_gps / plain_gps if plain_gps else 0.0, "frac")
    metrics["trace.absent_layers"] = (len(tracer.absent), "count")
    metrics["trace.passes"] = (passes, "count")
    largest = max(shares, key=shares.get)
    notes = [f"per-layer numbers per pass, over {passes} traced and {passes} untraced "
             f"passes of {len(polys)} calls",
             f"untraced gadgets_per_s {plain_gps:.4g}, traced {traced_gps:.4g}",
             f"largest layer: {largest} ({shares[largest]:.0%} of traced call time)",
             "absent layers: " + (", ".join(tracer.absent) or "none")]
    return outcomes, metrics, notes


def recorded_fingerprint(workload: str, seed: int) -> str | None:
    if not FINGERPRINTS.exists():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    w = WORKLOADS[args.workload]
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_times = []
        for _ in range(repeats):
            ps = topo = polys = None  # let the previous import be collected
            ps, topo, polys, elapsed = set_up(w, args.seed)
            setup_times.append(elapsed)
    except ImportError as exc:
        print(f"cannot import paulisynth from {PACKAGE_DIR}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        outcomes, metrics, notes = traced(ps, w, topo, polys, args.seed, args.seconds)
    else:
        outcomes, metrics, notes = end_to_end(ps, w, topo, polys, args.seed,
                                              args.seconds, setup_times)

    print(f"workload {args.workload} seed {args.seed}: {w.spec}, {w.instances} "
          f"instances x {w.gadgets} gadgets, "
          + ("synthesize + bench.check_result" if w.dense_check else "synthesize")
          + f", trace {args.trace}")
    print(f"env: nproc {os.cpu_count()}, BLAS/OpenMP threads {BLAS_THREADS}, jobs 1, "
          f"python {platform.python_version()}, numpy {np.__version__}")
    fp, known = outcomes.fingerprint(), recorded_fingerprint(args.workload, args.seed)
    verdict = ("no recorded fingerprint for this seed" if known is None
               else "matches the recorded one" if known == fp
               else f"DIFFERS from the recorded {known}")
    print(f"fingerprint {fp} ({verdict})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed_frac = outcomes.failed / outcomes.attempted if outcomes.attempted else 1.0
    print(f"failed_frac {failed_frac:.6g} frac ({outcomes.failed} of {outcomes.attempted} "
          "attempted calls)")
    for note in notes:
        print(note)
    for error in outcomes.errors[:10]:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": outcomes.failed == 0 and outcomes.attempted > 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
