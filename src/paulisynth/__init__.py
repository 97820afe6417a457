"""Connectivity-aware synthesis of trotterized Pauli polynomials."""

from .paulis import (Gate, Pauli, PauliGadget, PauliPolynomial, PauliString, commutes,
                     cx, h, parse_polynomial, rz, s, sdg, serialize_polynomial, v, vdg)
from .topology import Topology
from .circuit import Circuit, Metrics, conforms, metrics, to_qasm2
from .tableau import CliffordTableau, QubitPermutation, synthesize_tableau
from .synth import (SynthConfig, SynthesisResult, naive_synthesize,
                    partition_commuting_sets, synthesize)
from .randgen import (DEFAULT_ANGLE_SET, SMALL_ANGLE_SET, RandomSpec,
                      instance_seed, random_polynomial)
from . import bench, verify

__all__ = [
    "Circuit", "CliffordTableau", "DEFAULT_ANGLE_SET", "Gate", "Metrics", "Pauli",
    "PauliGadget", "PauliPolynomial", "PauliString", "QubitPermutation", "RandomSpec",
    "SMALL_ANGLE_SET", "SynthConfig", "SynthesisResult", "Topology", "bench",
    "commutes", "conforms", "cx", "h", "instance_seed", "metrics", "naive_synthesize",
    "parse_polynomial", "partition_commuting_sets", "random_polynomial", "rz", "s",
    "sdg", "serialize_polynomial", "synthesize", "synthesize_tableau", "to_qasm2", "v",
    "vdg", "verify",
]
