"""Pauli letters, strings, gadgets, polynomials, and Clifford conjugation rules.

Conventions used throughout the package:

* Qubit 0 is the leftmost letter of a Pauli string and the most significant
  tensor factor of the corresponding matrix.
* A gadget ``(angle, string)`` denotes ``exp(-i * angle/2 * P)`` where ``P``
  is the tensor of the string's letters.
* ``v`` / ``vdg`` are the square root of X and its adjoint, with the phase
  fixed so that ``V Y V^ = Z`` and ``V Z V^ = -Y`` exactly (equivalently
  ``V = exp(i*pi/4) * Rx(pi/2)``).
* Conjugation may flip the sign of a Pauli; callers fold that flip into the
  gadget angle (``angle -> -angle``) rather than carrying a separate sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


class Pauli(IntEnum):
    I = 0
    X = 1
    Y = 2
    Z = 3


_PAULI_CHARS = "IXYZ"
_CHAR_TO_PAULI = {c: Pauli(i) for i, c in enumerate(_PAULI_CHARS)}

CLIFFORD_KINDS = ("h", "s", "sdg", "v", "vdg", "cx")
ONE_QUBIT_CLIFFORDS = ("h", "s", "sdg", "v", "vdg")

_ADJOINT_KIND = {"h": "h", "s": "sdg", "sdg": "s", "v": "vdg", "vdg": "v",
                 "cx": "cx", "rz": "rz"}


@dataclass(frozen=True)
class Gate:
    """A circuit gate: one of the Clifford kinds above, or an ``rz`` rotation."""

    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in CLIFFORD_KINDS and self.kind != "rz":
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "cx" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} expects {arity} qubit(s), got {self.qubits}")
        if self.kind == "cx" and self.qubits[0] == self.qubits[1]:
            raise ValueError("cx control and target must differ")

    @property
    def is_clifford(self) -> bool:
        return self.kind in CLIFFORD_KINDS

    def adjoint(self) -> "Gate":
        if self.kind == "rz":
            return Gate("rz", self.qubits, -self.angle)
        return Gate(_ADJOINT_KIND[self.kind], self.qubits)


def h(q: int) -> Gate:
    return Gate("h", (q,))


def s(q: int) -> Gate:
    return Gate("s", (q,))


def sdg(q: int) -> Gate:
    return Gate("sdg", (q,))


def v(q: int) -> Gate:
    return Gate("v", (q,))


def vdg(q: int) -> Gate:
    return Gate("vdg", (q,))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def rz(angle: float, q: int) -> Gate:
    return Gate("rz", (q,), angle)


# Conjugation tables: CONJ_1Q[kind][p] = (g^ p g, sign_flip) for gate unitary g.
# Derived from the 2x2 matrix algebra once; the test suite re-derives every
# entry from dense matrices.
I, X, Y, Z = Pauli.I, Pauli.X, Pauli.Y, Pauli.Z

CONJ_1Q: dict[str, dict[Pauli, tuple[Pauli, bool]]] = {
    "h": {I: (I, False), X: (Z, False), Y: (Y, True), Z: (X, False)},
    "s": {I: (I, False), X: (Y, True), Y: (X, False), Z: (Z, False)},
    "sdg": {I: (I, False), X: (Y, False), Y: (X, True), Z: (Z, False)},
    "v": {I: (I, False), X: (X, False), Y: (Z, True), Z: (Y, False)},
    "vdg": {I: (I, False), X: (X, False), Y: (Z, False), Z: (Y, True)},
}

# CONJ_CNOT[(control, target)] = ((control', target'), sign_flip) for g^ P g
# with g = CNOT (self-adjoint).
CONJ_CNOT: dict[tuple[Pauli, Pauli], tuple[tuple[Pauli, Pauli], bool]] = {
    (I, I): ((I, I), False),
    (I, X): ((I, X), False),
    (I, Y): ((Z, Y), False),
    (I, Z): ((Z, Z), False),
    (X, I): ((X, X), False),
    (X, X): ((X, I), False),
    (X, Y): ((Y, Z), False),
    (X, Z): ((Y, Y), True),
    (Y, I): ((Y, X), False),
    (Y, X): ((Y, I), False),
    (Y, Y): ((X, Z), True),
    (Y, Z): ((X, Y), False),
    (Z, I): ((Z, I), False),
    (Z, X): ((Z, X), False),
    (Z, Y): ((I, Y), False),
    (Z, Z): ((I, Z), False),
}


def conjugate_letter(gate: Gate, letters: tuple[Pauli, ...]) -> tuple[tuple[Pauli, ...], bool]:
    """Conjugate Pauli letters by a Clifford gate: returns ``g^ P g`` and a sign flip.

    ``letters`` must match the gate arity (one letter, or ``(control, target)``
    for ``cx``).  ``sign_flip=True`` means the conjugated Pauli carries a minus
    sign, i.e. the gadget's effective angle negates.
    """
    if not gate.is_clifford:
        raise ValueError("conjugation is defined for Clifford gates only")
    if gate.kind == "cx":
        if len(letters) != 2:
            raise ValueError("cx conjugation needs (control, target) letters")
        return CONJ_CNOT[(letters[0], letters[1])]
    if len(letters) != 1:
        raise ValueError("single-qubit conjugation needs one letter")
    new, flip = CONJ_1Q[gate.kind][letters[0]]
    return (new,), flip


def conjugate_by(gate: Gate, letters: tuple[Pauli, ...]) -> tuple[tuple[Pauli, ...], bool]:
    """Conjugate the other way around: ``g P g^`` (the action of an emitted gate)."""
    return conjugate_letter(gate.adjoint(), letters)


def conjugation_luts(order: tuple[Pauli, ...]):
    """``conjugate_by`` as lookup arrays over a caller's letter code.

    ``order[c]`` is the Pauli with code ``c``.  Returns ``(one, cx_letters,
    cx_flips)``: ``one[kind] = (letters, flips)`` maps a code to the code of
    ``g P g^`` and its sign flip; the cx arrays do the same for the pair code
    ``4 * control + target``.
    """
    code = {p: c for c, p in enumerate(order)}
    one = {}
    for kind in ONE_QUBIT_CLIFFORDS:
        images = [conjugate_by(Gate(kind, (0,)), (p,)) for p in order]
        one[kind] = (np.array([code[res] for (res,), _ in images], dtype=np.uint8),
                     np.array([flip for _, flip in images], dtype=bool))
    pairs = [conjugate_by(Gate("cx", (0, 1)), (pc, pt)) for pc in order for pt in order]
    cx_letters = np.array([4 * code[rc] + code[rt] for (rc, rt), _ in pairs], dtype=np.uint8)
    cx_flips = np.array([flip for _, flip in pairs], dtype=bool)
    return one, cx_letters, cx_flips


# TO_Z[p](j) is the gate g on wire j that turns letter p into Z: g p g^ = +Z.
TO_Z = {X: h, Y: v}


@dataclass(frozen=True)
class PauliString:
    """A word over {I, X, Y, Z}; one letter per qubit."""

    letters: tuple[Pauli, ...]

    @classmethod
    def from_str(cls, text: str) -> "PauliString":
        try:
            return cls(tuple(_CHAR_TO_PAULI[c] for c in text))
        except KeyError as exc:
            raise ValueError(f"invalid Pauli letter {exc.args[0]!r} in {text!r}") from None

    def __str__(self) -> str:
        return "".join(_PAULI_CHARS[p] for p in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def legs(self) -> tuple[int, ...]:
        """Qubits carrying a non-identity letter."""
        return tuple(i for i, p in enumerate(self.letters) if p != Pauli.I)


@dataclass(frozen=True)
class PauliGadget:
    """``exp(-i * angle/2 * P)`` for the Pauli tensor P of ``string``."""

    angle: float
    string: PauliString

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"gadget angle must be finite, got {self.angle}")


@dataclass(frozen=True)
class PauliPolynomial:
    """An ordered product of Pauli gadgets over a fixed qubit count."""

    num_qubits: int
    gadgets: tuple[PauliGadget, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        for i, g in enumerate(self.gadgets):
            if len(g.string) != self.num_qubits:
                raise ValueError(
                    f"gadget {i} has {len(g.string)} letters, expected {self.num_qubits}")

    def __len__(self) -> int:
        return len(self.gadgets)

    def scaled(self, factor: float) -> "PauliPolynomial":
        """Same strings, all angles multiplied by ``factor``."""
        return PauliPolynomial(
            self.num_qubits,
            tuple(PauliGadget(g.angle * factor, g.string) for g in self.gadgets))


def strings_commute(a: PauliString, b: PauliString) -> bool:
    if len(a) != len(b):
        raise ValueError("Pauli strings must have equal length")
    clashes = sum(1 for pa, pb in zip(a.letters, b.letters)
                  if pa != Pauli.I and pb != Pauli.I and pa != pb)
    return clashes % 2 == 0


def commutes(a: PauliGadget, b: PauliGadget) -> bool:
    """Whether two gadgets commute (even number of anticommuting positions)."""
    return strings_commute(a.string, b.string)


def parse_polynomial(text: str) -> PauliPolynomial:
    """Parse the polynomial file format.

    First non-comment line is ``qubits <q>``; every following non-empty,
    non-``#`` line is ``<angle> <string>`` with a decimal angle and a word of
    q letters over IXYZ.
    """
    num_qubits = None
    gadgets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if num_qubits is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "qubits":
                raise ValueError(f"line {lineno}: expected 'qubits <q>' header, got {raw!r}")
            try:
                num_qubits = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: invalid qubit count {parts[1]!r}") from None
            if num_qubits <= 0:
                raise ValueError(f"line {lineno}: qubit count must be positive")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<angle> <string>', got {raw!r}")
        try:
            angle = float(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: invalid angle {parts[0]!r}") from None
        if not math.isfinite(angle):
            raise ValueError(f"line {lineno}: angle must be finite, got {parts[0]!r}")
        if len(parts[1]) != num_qubits:
            raise ValueError(
                f"line {lineno}: string {parts[1]!r} has {len(parts[1])} letters, "
                f"expected {num_qubits}")
        gadgets.append(PauliGadget(angle, PauliString.from_str(parts[1])))
    if num_qubits is None:
        raise ValueError("missing 'qubits <q>' header")
    return PauliPolynomial(num_qubits, tuple(gadgets))


def serialize_polynomial(poly: PauliPolynomial) -> str:
    lines = [f"qubits {poly.num_qubits}"]
    lines.extend(f"{g.angle!r} {g.string}" for g in poly.gadgets)
    return "\n".join(lines) + "\n"
