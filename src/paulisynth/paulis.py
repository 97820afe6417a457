"""Pauli letters, strings, gadgets, polynomials, the Clifford conjugation
rules, and the package's integer rule for counts, seeds and indices
(``_check_int``).

``PauliColumns.conjugate`` is the one rule set: every gate action in the
package (the recursion's gadget store and tableau, the final peel, the
exact check and the debug invariant) is that method on bit columns, and it
is the only code that changes a Pauli's sign under a Clifford.

The Clifford gate factories intern their gates: equal arguments of equal
types give the same frozen ``Gate``, built once, and a Clifford gate keeps
its adjoint after the first ``adjoint()`` call.

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
* Entry points reject a bad value (a float count, a letter out of range, a
  non-finite angle, a gadget that is not a ``PauliGadget``) with a
  ``ValueError`` naming it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache, wraps
from numbers import Real

import numpy as np


def _is_int(value) -> bool:  # a Python or numpy integer, not a bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:  # a finite real number, not a bool
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_int(name: str, value, minimum: int) -> None:
    """Seeds, indices and counts: a named ValueError unless an integer >= minimum."""
    if not _is_int(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_type(name: str, value, kind: type) -> None:
    """Arguments of a given class: a named ValueError unless ``value`` is one."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


class Pauli(IntEnum):
    I = 0
    X = 1
    Y = 2
    Z = 3


_PAULI_CHARS = "IXYZ"
_CHAR_TO_PAULI = {c: Pauli(i) for i, c in enumerate(_PAULI_CHARS)}
_LETTER_TEXT = bytes.maketrans(bytes(range(4)), _PAULI_CHARS.encode())
# Letter text to x and z bits.
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")

CLIFFORD_KINDS = ("h", "s", "sdg", "v", "vdg", "cx")


@dataclass(frozen=True)
class Gate:
    """A circuit gate: one of the Clifford kinds above, with angle 0, or an
    ``rz`` rotation by a finite real angle, kept as a float."""

    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in CLIFFORD_KINDS and self.kind != "rz":
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if type(self.qubits) is not tuple:  # frozen and hashable: no caller's list
            if not isinstance(self.qubits, Iterable):
                raise ValueError(f"qubits must be an iterable of wires, got {self.qubits!r}")
            object.__setattr__(self, "qubits", tuple(self.qubits))
        arity = 2 if self.kind == "cx" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} expects {arity} qubit(s), got {self.qubits}")
        if self.kind == "cx" and self.qubits[0] == self.qubits[1]:
            raise ValueError("cx control and target must differ")
        if self.kind == "rz":
            # A float, as synthesis emits, skips the slower Real check.
            if not (type(self.angle) is float and math.isfinite(self.angle)):
                if not _is_real(self.angle):
                    raise ValueError(f"rz angle must be a finite real, got {self.angle!r}")
                object.__setattr__(self, "angle", float(self.angle))
        elif self.angle != 0:
            raise ValueError(f"{self.kind} takes no angle, got {self.angle!r}")

    @property
    def is_clifford(self) -> bool:
        return self.kind in CLIFFORD_KINDS

    def adjoint(self) -> "Gate":
        """The inverse gate; a Clifford gate keeps its factory's adjoint after
        the first call (outside the fields, so equality, hash, repr and
        pickling ignore it)."""
        try:
            return self._adjoint
        except AttributeError:
            if self.kind == "rz":
                return Gate("rz", self.qubits, -self.angle)
        adj = _ADJOINT[self.kind](*self.qubits)
        object.__setattr__(self, "_adjoint", adj)
        return adj

    def __reduce__(self):
        return Gate, (self.kind, self.qubits, self.angle)


_GATE_CACHES = []


def _clear_gate_caches() -> None:
    """Clear every Clifford factory's cache, so that a gate built after the
    clear keeps only an adjoint built after it."""
    for cached in _GATE_CACHES:
        cached.cache_clear()


def _interned(factory):
    """Cache ``factory``'s gates per argument type, as True == 1 with equal
    hashes; an unhashable wire gets an uncached gate, for ``Circuit`` to reject.
    ``cache_clear`` clears the caches of all Clifford factories."""
    cached = lru_cache(maxsize=None, typed=True)(factory)
    _GATE_CACHES.append(cached)

    @wraps(factory)
    def gate(*wires):
        try:
            return cached(*wires)
        except TypeError:
            return factory(*wires)

    gate.cache_clear = _clear_gate_caches
    return gate


@_interned
def h(q: int) -> Gate:
    return Gate("h", (q,))


@_interned
def s(q: int) -> Gate:
    return Gate("s", (q,))


@_interned
def sdg(q: int) -> Gate:
    return Gate("sdg", (q,))


@_interned
def v(q: int) -> Gate:
    return Gate("v", (q,))


@_interned
def vdg(q: int) -> Gate:
    return Gate("vdg", (q,))


@_interned
def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


_ADJOINT = {"h": h, "s": sdg, "sdg": s, "v": vdg, "vdg": v, "cx": cx}


def rz(angle: float, q: int) -> Gate:
    return Gate("rz", (q,), angle)


I, X, Y, Z = Pauli.I, Pauli.X, Pauli.Y, Pauli.Z

# XZ_LETTER[x + 2z] is the Pauli with those bits.
XZ_LETTER = (I, X, Z, Y)

# TO_Z[p](j) is the gate g on wire j that turns letter p into Z: g p g^ = +Z.
TO_Z = {X: h, Y: v}


class PauliColumns:
    """Signed Paulis in bit columns: bit i of ``x[j]``/``z[j]`` is Pauli i's
    X/Z part on wire j (I=(0,0), X=(1,0), Y=(1,1), Z=(0,1)) and bit i of
    ``signs`` its sign.  ``conjugate`` is the package's one set of Clifford
    conjugation rules: a gate is a few bitwise operations on whole columns."""

    def __init__(self, x: list[int], z: list[int], signs: int = 0):
        self.x, self.z, self.signs = x, z, signs

    @classmethod
    def from_texts(cls, texts: list[str], num_qubits: int) -> "PauliColumns":
        """Pauli i from the letter word ``texts[i]`` (num_qubits letters), sign +."""
        # Column j as text, Pauli 0 last so that it lands on bit 0.
        cols = ["".join(c)[::-1] for c in zip(*texts)] or [""] * num_qubits
        return cls([int("0" + c.translate(_X_BITS), 2) for c in cols],
                   [int("0" + c.translate(_Z_BITS), 2) for c in cols])

    @classmethod
    def with_generators(cls, texts: list[str], q: int) -> "PauliColumns":
        """``from_texts``, then X_r and Z_r as Paulis m+r and m+q+r, m = len(texts)."""
        cols, m = cls.from_texts(texts, q), len(texts)
        return cls([c | 1 << (m + r) for r, c in enumerate(cols.x)],
                   [c | 1 << (m + q + r) for r, c in enumerate(cols.z)])

    def conjugate(self, gate: Gate) -> None:
        """Every Pauli P becomes ``g P g^`` for the Clifford gate g
        (Aaronson-Gottesman column rules, quant-ph/0406196).  Each touched
        column is read once and ``signs`` gains the flips, the bits of the
        Paulis that pick up a minus sign; a rotation is a ValueError."""
        x, z, kind, a = self.x, self.z, gate.kind, gate.qubits[0]
        if kind == "cx":  # a control, b target
            b = gate.qubits[1]
            xa, za, xb, zb = x[a], z[a], x[b], z[b]
            self.signs ^= xa & zb & ~(xb ^ za)
            z[a], x[b] = za ^ zb, xb ^ xa
            return
        xa, za = x[a], z[a]
        if kind == "v":
            self.signs ^= za & ~xa
            x[a] = xa ^ za
        elif kind == "s":
            self.signs ^= xa & za
            z[a] = za ^ xa
        elif kind == "h":
            self.signs ^= xa & za
            x[a], z[a] = za, xa
        elif kind == "sdg":
            self.signs ^= xa & ~za
            z[a] = za ^ xa
        elif kind == "vdg":
            self.signs ^= xa & za
            x[a] = xa ^ za
        else:
            raise ValueError(f"not a Clifford gate kind: {kind!r}")

    def letter(self, i: int, wire: int) -> Pauli:
        """Letter of Pauli i on ``wire``."""
        return XZ_LETTER[(self.x[wire] >> i & 1) | (self.z[wire] >> i & 1) << 1]

    def push_through(self, gates, order, angles, tol: float) -> bool:
        """``conjugate`` every Pauli by each Clifford gate in turn; the k-th
        ``rz``, on wire j, must find Pauli ``order[k]`` exactly +-Z_j, and its
        angle times that sign must be ``angles[k]`` within ``tol``.  False at
        a mismatch, or unless there is exactly one rz per entry of ``order``."""
        x, z, k, conjugate = self.x, self.z, 0, self.conjugate
        for g in gates:
            if g.kind != "rz":
                conjugate(g)
                continue
            if k == len(order):
                return False
            bit = 1 << order[k]
            if (any(map(bit.__and__, x)) or not z[g.qubits[0]] & bit
                    or sum(map(bit.__and__, z)) != bit):  # not exactly +-Z on the wire
                return False
            angle = -g.angle if self.signs & bit else g.angle
            # Compared with <= so that a NaN angle fails too.
            if not abs(angle - angles[k]) <= tol:
                return False
            k += 1
        return k == len(order)


@dataclass(frozen=True)
class PauliString:
    """A word over {I, X, Y, Z}; one letter per qubit, a ``Pauli`` or 0-3."""

    letters: tuple[Pauli, ...]

    def __post_init__(self):
        if not isinstance(self.letters, Iterable):
            raise ValueError(f"letters must be an iterable of Paulis, got {self.letters!r}")
        letters = tuple(self.letters)
        if not all(type(p) is Pauli for p in letters):
            for p in letters:
                if not (_is_int(p) and 0 <= p <= 3):
                    raise ValueError(f"invalid Pauli letter {p!r}: not a Pauli or 0-3")
            letters = tuple(map(Pauli, letters))
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_str(cls, text: str) -> "PauliString":
        try:
            return cls(tuple(_CHAR_TO_PAULI[c] for c in text))
        except KeyError as exc:
            raise ValueError(f"invalid Pauli letter {exc.args[0]!r} in {text!r}") from None

    def __str__(self) -> str:
        return bytes(self.letters).translate(_LETTER_TEXT).decode()

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
        if not _is_real(self.angle):
            raise ValueError(f"gadget angle must be a finite real, got {self.angle!r}")
        _check_type("gadget string", self.string, PauliString)
        object.__setattr__(self, "angle", float(self.angle))


@dataclass(frozen=True)
class PauliPolynomial:
    """An ordered product of Pauli gadgets over a fixed qubit count."""

    num_qubits: int
    gadgets: tuple[PauliGadget, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _check_int("num_qubits", self.num_qubits, 1)
        object.__setattr__(self, "num_qubits", int(self.num_qubits))  # masks need Python ints
        if not isinstance(self.gadgets, Iterable):
            raise ValueError(f"gadgets must be an iterable of PauliGadget, got {self.gadgets!r}")
        object.__setattr__(self, "gadgets", tuple(self.gadgets))  # hashable, like its members
        for i, g in enumerate(self.gadgets):
            if not isinstance(g, PauliGadget):
                raise ValueError(f"gadget {i} must be a PauliGadget, got {g!r}")
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


def commutes(a: PauliGadget, b: PauliGadget) -> bool:
    """Whether two gadgets commute (even number of anticommuting positions)."""
    if len(a.string) != len(b.string):
        raise ValueError("Pauli strings must have equal length")
    clashes = sum(1 for pa, pb in zip(a.string.letters, b.string.letters)
                  if pa != Pauli.I and pb != Pauli.I and pa != pb)
    return clashes % 2 == 0


def parse_token(convert, token: str, lineno: int, what: str):
    """``convert(token)``, or a ``ValueError`` naming the line, ``what`` and the token."""
    try:
        return convert(token)
    except ValueError:
        raise ValueError(f"line {lineno}: invalid {what} {token!r}") from None


def read_records(text: str, record: str) -> tuple[int, list[tuple[int, list[str]]]]:
    """``(q, records)`` from the ``qubits <q>`` text format: blank and ``#``
    lines are skipped, the first other line is the header, and each later
    line is a record of two tokens, kept as ``(line number, tokens)``;
    ``record`` names that form in the error for a line of another length."""
    num_qubits, records = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if num_qubits is None:
            if len(parts) != 2 or parts[0] != "qubits":
                raise ValueError(f"line {lineno}: expected 'qubits <q>' header, got {raw!r}")
            num_qubits = parse_token(int, parts[1], lineno, "qubit count")
            if num_qubits <= 0:
                raise ValueError(f"line {lineno}: qubit count must be positive")
        elif len(parts) != 2:
            raise ValueError(f"line {lineno}: expected {record}, got {raw!r}")
        else:
            records.append((lineno, parts))
    if num_qubits is None:
        raise ValueError("missing 'qubits <q>' header")
    return num_qubits, records


def parse_polynomial(text: str) -> PauliPolynomial:
    """Parse the polynomial file format (``read_records``): each record is
    ``<angle> <string>`` with a decimal angle and a word of q letters over
    IXYZ."""
    num_qubits, records = read_records(text, "'<angle> <string>'")
    gadgets = []
    for lineno, (angle_text, word) in records:
        angle = parse_token(float, angle_text, lineno, "angle")
        if not math.isfinite(angle):
            raise ValueError(f"line {lineno}: angle must be finite, got {angle_text!r}")
        if len(word) != num_qubits:
            raise ValueError(f"line {lineno}: string {word!r} has {len(word)} letters, "
                             f"expected {num_qubits}")
        gadgets.append(PauliGadget(angle, PauliString.from_str(word)))
    return PauliPolynomial(num_qubits, tuple(gadgets))


def serialize_polynomial(poly: PauliPolynomial) -> str:
    lines = [f"qubits {poly.num_qubits}"]
    lines.extend(f"{g.angle!r} {g.string}" for g in poly.gadgets)
    return "\n".join(lines) + "\n"
