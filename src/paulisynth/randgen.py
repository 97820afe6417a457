"""Seeded random Pauli polynomial generation for the experiment protocol."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .paulis import Pauli, PauliGadget, PauliPolynomial, PauliString, _check_int, _is_real

DEFAULT_ANGLE_SET = (math.pi, math.pi / 2, math.pi / 4, math.pi / 8, math.pi / 16)
SMALL_ANGLE_SET = (math.pi / 32, math.pi / 64, math.pi / 128)

RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class RandomSpec:
    num_qubits: int
    num_gadgets: int
    angle_set: tuple[float, ...] = DEFAULT_ANGLE_SET
    seed: int = 0

    def __post_init__(self):
        for name in ("num_qubits", "num_gadgets"):
            _check_int(name, getattr(self, name), 1)
        angles = self.angle_set
        if (not isinstance(angles, Sequence) or isinstance(angles, str) or not angles
                or not all(map(_is_real, angles))):
            raise ValueError(f"angle_set must be a non-empty sequence of finite angles, "
                             f"got {angles!r}")
        object.__setattr__(self, "angle_set", tuple(angles))
        _check_int("seed", self.seed, 0)


def random_polynomial(spec: RandomSpec) -> PauliPolynomial:
    """Per gadget: leg count ~ U{1..q}, distinct leg positions, letters ~ U{X,Y,Z},
    angle ~ U(angle_set).  Deterministic for a fixed seed."""
    rng = np.random.default_rng(spec.seed)
    q = spec.num_qubits
    gadgets = []
    for _ in range(spec.num_gadgets):
        leg_count = int(rng.integers(1, q + 1))
        positions = rng.choice(q, size=leg_count, replace=False)
        letters = [Pauli.I] * q
        for pos in positions:
            letters[int(pos)] = Pauli(int(rng.integers(1, 4)))
        angle = float(spec.angle_set[int(rng.integers(len(spec.angle_set)))])
        gadgets.append(PauliGadget(angle, PauliString(tuple(letters))))
    return PauliPolynomial(q, tuple(gadgets))


def instance_seed(base_seed: int, *indices: int) -> int:
    """Deterministic per-instance seed derived with numpy's SeedSequence."""
    _check_int("seed", base_seed, 0)
    for index in indices:
        _check_int("instance index", index, 0)
    return int(np.random.SeedSequence((base_seed,) + indices).generate_state(1)[0])
