"""Per-layer tracing from outside the package.

Each layer is a public function or method of ``paulisynth`` named by module
and attribute path.  ``Tracer.install`` replaces it, in every ``paulisynth``
namespace that binds it, with a wrapper that records a span: wall seconds,
call count, and self time (the span minus the wrapped spans it encloses).
A name that no longer exists is reported as absent rather than failing.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (metric prefix, module, attribute path).  Functions that other modules
# import by name are patched wherever they are bound.
LAYERS = (
    ("synth.synthesize", "paulisynth.synth", "synthesize"),
    ("synth.pick_pivot", "paulisynth.synth", "pick_pivot"),
    ("synth.pick_neighbor", "paulisynth.synth", "pick_neighbor"),
    ("synth.column_cost", "paulisynth.synth", "column_cost"),
    ("synth.emit_clifford", "paulisynth.synth", "_State.emit_clifford"),
    ("synth.disconnect", "paulisynth.synth", "disconnect"),
    ("synth.diagonalize_qubit", "paulisynth.synth", "diagonalize_qubit"),
    ("topology.is_non_cutting", "paulisynth.topology", "Topology.is_non_cutting"),
    ("topology.steiner_tree", "paulisynth.topology", "Topology.steiner_tree"),
    ("tableau.prepend", "paulisynth.tableau", "CliffordTableau.prepend"),
    ("tableau.synthesize_tableau", "paulisynth.tableau", "synthesize_tableau"),
    ("tableau.inverse", "paulisynth.tableau", "CliffordTableau.inverse"),
    ("circuit.metrics", "paulisynth.circuit", "metrics"),
    ("bench.check_result", "paulisynth.bench", "check_result"),
    ("verify.circuit_unitary", "paulisynth.verify", "circuit_unitary"),
    ("verify.polynomial_unitary", "paulisynth.verify", "polynomial_unitary"),
)

# Layers that enclose other wrapped layers, so their self time is reported.
NESTING = ("synth.synthesize", "synth.pick_pivot", "synth.pick_neighbor",
           "synth.emit_clifford", "synth.disconnect", "synth.diagonalize_qubit",
           "tableau.synthesize_tableau", "bench.check_result")

# Disjoint groups of layers whose shares of the traced time are compared to
# find the largest layer.  Pivot selection includes the column costs and
# cut-vertex tests it makes; propagation includes the tableau prepends.
GROUPS = {
    "pivot_selection": ("synth.pick_pivot", "synth.pick_neighbor"),
    "propagation": ("synth.emit_clifford",),
    "tableau_synthesis": ("tableau.synthesize_tableau",),
    "metrics": ("circuit.metrics",),
    "check": ("bench.check_result",),
}


@dataclass
class Span:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    true: int = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, layers=LAYERS) -> None:
        for name, module_name, path in layers:
            owner, attr, fn = _resolve(module_name, path)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(fn, self.spans.setdefault(name, Span()))
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, k) for m in _package_modules()
                         for k, v in list(vars(m).items()) if v is fn]
            for target, key in sites:
                self._undo.append((target, key, fn))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def _wrap(self, fn, span: Span):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                span.calls += 1
                span.s += elapsed
                span.self_s += elapsed - inner
                if children:
                    children[-1] += elapsed
            span.true += result is True
            return result

        return wrapper


def _resolve(module_name: str, path: str):
    """(owner, attribute, function), with function None when the name is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    return owner, parts[-1], fn if callable(fn) else None


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "paulisynth" or name.startswith("paulisynth.")]
