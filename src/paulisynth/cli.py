"""Command-line front end: synth, bench, trotter-error, and verify subcommands."""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .circuit import to_qasm2
from .paulis import _check_int, parse_polynomial
from .randgen import RandomSpec, SMALL_ANGLE_SET, instance_seed, random_polynomial
from .synth import SynthConfig
from .topology import Topology


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulisynth",
        description="Connectivity-aware synthesis of trotterized Pauli polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_synth_options(p):
        p.add_argument("--mode", choices=["arbitrary", "commuting-sets"],
                       default="arbitrary")
        p.add_argument("--k", type=int, default=10, help="heuristic weighting factor")
        p.add_argument("--no-permutation", action="store_true",
                       help="force an identity output permutation")

    def add_common(p):
        p.add_argument("--method", choices=list(bench_mod.METHODS), default="proposed")
        add_synth_options(p)

    p_synth = sub.add_parser("synth", help="compile a polynomial file to QASM2")
    p_synth.add_argument("--in", dest="infile", required=True)
    p_synth.add_argument("--topology", required=True)
    add_common(p_synth)
    p_synth.add_argument("--out-qasm")
    p_synth.add_argument("--out-metrics")
    p_synth.add_argument("--verify", action="store_true",
                         help="exact equivalence check (bit-column pass, any qubit count)")
    p_synth.add_argument("--tol", type=float, default=1e-9)

    p_bench = sub.add_parser("bench", help="random-instance benchmark to CSV")
    p_bench.add_argument("--methods", default="naive,proposed",
                         help="comma-separated subset of naive,proposed")
    p_bench.add_argument("--topologies", required=True,
                         help="comma-separated topology specs")
    p_bench.add_argument("--sizes", required=True, help="comma-separated gadget counts")
    p_bench.add_argument("--repeats", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=1)
    add_synth_options(p_bench)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--out", required=True)

    p_trot = sub.add_parser("trotter-error", help="unitary-overlap scan to CSV")
    p_trot.add_argument("--in", dest="infiles", nargs="*", default=[],
                        help="polynomial files (omit to generate random instances)")
    p_trot.add_argument("--qubits", type=int, default=6)
    p_trot.add_argument("--gadgets", type=int, default=160)
    p_trot.add_argument("--instances", type=int, default=20)
    p_trot.add_argument("--timesteps", type=int, default=17)
    p_trot.add_argument("--repetitions", type=int, default=1)
    p_trot.add_argument("--methods", default="naive,proposed")
    p_trot.add_argument("--topology", default=None,
                        help="defaults to complete:<q>")
    p_trot.add_argument("--seed", type=int, default=7)
    add_synth_options(p_trot)
    p_trot.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="synthesize and check equivalence")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--topology", required=True)
    add_common(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-9)

    return parser


def _load_poly(path: str):
    with open(path, encoding="utf-8") as f:
        return parse_polynomial(f.read())


def _cfg(args) -> SynthConfig:
    return SynthConfig(k=args.k, mode=args.mode,
                       allow_permutation=not args.no_permutation)


def _synthesize_checked(args):
    poly = _load_poly(args.infile)
    topo = Topology.from_spec(args.topology)
    result = bench_mod.run_method(args.method, poly, topo, _cfg(args))
    return poly, topo, result


def _cmd_synth(args) -> int:
    poly, _topo, result = _synthesize_checked(args)
    if args.out_qasm:
        with open(args.out_qasm, "w", encoding="utf-8") as f:
            f.write(to_qasm2(result.circuit))
    m = result.metrics
    metrics_line = f"{m.cnot_count},{m.depth},{m.two_qubit_depth}"
    if args.out_metrics:
        with open(args.out_metrics, "w", encoding="utf-8") as f:
            f.write("cnots,depth,cnot_depth\n")
            f.write(metrics_line + "\n")
    print(f"cnots,depth,cnot_depth = {metrics_line}")
    print(f"permutation = {list(result.permutation.mapping)}")
    if args.verify:
        ok = bench_mod.check_result(poly, result, args.tol)
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1
    return 0


def _cmd_verify(args) -> int:
    poly, _topo, result = _synthesize_checked(args)
    ok = bench_mod.check_result(poly, result, args.tol)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _split_csv_list(text: str) -> list[str]:
    return [item for item in (s.strip() for s in text.split(",")) if item]


def _cmd_bench(args) -> int:
    methods = _split_csv_list(args.methods)
    topologies = _split_csv_list(args.topologies)
    try:
        sizes = [int(s) for s in _split_csv_list(args.sizes)]
    except ValueError:
        raise ValueError(f"--sizes must be integers, got {args.sizes!r}") from None
    rows = bench_mod.run_benchmark(methods, topologies, sizes, args.repeats,
                                   args.out, base_seed=args.seed, cfg=_cfg(args),
                                   jobs=args.jobs)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_trotter(args) -> int:
    methods = _split_csv_list(args.methods)
    if args.infiles:
        polys = [_load_poly(path) for path in args.infiles]
    else:
        _check_int("instances", args.instances, 1)
        polys = [random_polynomial(RandomSpec(args.qubits, args.gadgets,
                                              SMALL_ANGLE_SET,
                                              instance_seed(args.seed, i)))
                 for i in range(args.instances)]
    if not polys:
        raise ValueError("no polynomial instances to run")
    q = polys[0].num_qubits
    topo = Topology.from_spec(args.topology) if args.topology else Topology.complete(q)
    timesteps = bench_mod.default_timesteps(args.timesteps)
    rows = bench_mod.run_trotter_error(polys, topo, methods, timesteps,
                                       args.out, repetitions=args.repetitions,
                                       cfg=_cfg(args))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": _cmd_synth, "bench": _cmd_bench,
                "trotter-error": _cmd_trotter, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
