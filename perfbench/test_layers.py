"""Self-test of the traced run's layer wrapping.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_layers.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import paulisynth as ps  # noqa: E402


def test_spans_nest_and_missing_names_are_absent():
    original = ps.synthesize
    topo = ps.Topology.from_spec("line:4")
    poly = ps.random_polynomial(ps.RandomSpec(4, 20, ps.DEFAULT_ANGLE_SET, 1))
    tracer = layers.Tracer()
    tracer.install(layers.LAYERS + (
        ("synth.renamed", "paulisynth.synth", "_State.renamed_method"),
        ("gone.module", "paulisynth.gone", "anything"),
    ))
    try:
        assert ps.synthesize is not original
        assert ps.synth.synthesize is ps.synthesize
        ps.synthesize(poly, topo)
    finally:
        tracer.uninstall()
    assert ps.synthesize is original and ps.synth.synthesize is original
    assert tracer.absent == ["synth.renamed", "gone.module"]
    spans = tracer.spans
    top = spans["synth.synthesize"]
    assert top.calls == 1
    assert spans["tableau.synthesize_tableau"].calls == 1
    assert spans["synth.emit_clifford"].calls == spans["tableau.prepend"].calls > 0
    assert 0 <= top.self_s < top.s
    children = sum(spans[n].s for n in ("synth.pick_pivot", "synth.pick_neighbor",
                                        "synth.disconnect", "synth.diagonalize_qubit",
                                        "tableau.synthesize_tableau", "circuit.metrics"))
    assert children <= top.s
    cut = spans["topology.is_non_cutting"]
    assert 0 < cut.true <= cut.calls
