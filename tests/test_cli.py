import csv

import pytest

import paulisynth as ps
from paulisynth.cli import main


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("qubits 2\n0.5 ZI\n0.25 XY\n")
    return str(path)


def test_synth_writes_qasm_and_metrics(poly_file, tmp_path, capsys):
    qasm = tmp_path / "out.qasm"
    met = tmp_path / "out.csv"
    code = main(["synth", "--in", poly_file, "--topology", "complete:2",
                 "--out-qasm", str(qasm), "--out-metrics", str(met)])
    assert code == 0
    text = qasm.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert "rz(" in text
    met_lines = met.read_text().splitlines()
    assert met_lines[0] == "cnots,depth,cnot_depth"
    assert len(met_lines[1].split(",")) == 3
    assert "cnots,depth,cnot_depth" in capsys.readouterr().out


def test_synth_single_gadget_has_one_rz(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("qubits 2\n0.5 ZI\n")
    qasm = tmp_path / "one.qasm"
    assert main(["synth", "--in", str(path), "--topology", "complete:2",
                 "--out-qasm", str(qasm)]) == 0
    lines = [l for l in qasm.read_text().splitlines() if l.startswith("rz")]
    assert len(lines) == 1


def test_synth_qubit_mismatch_exits_2(poly_file, capsys):
    code = main(["synth", "--in", poly_file, "--topology", "line:3"])
    assert code == 2
    assert "2 qubits" in capsys.readouterr().err


def test_synth_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("qubits 2\n0.5 QQ\n")
    code = main(["synth", "--in", str(path), "--topology", "line:2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_synth_verify_flag_prints_pass(poly_file, capsys):
    code = main(["synth", "--in", poly_file, "--topology", "line:2", "--verify"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_subcommand(poly_file, capsys):
    code = main(["verify", "--in", poly_file, "--topology", "line:2",
                 "--method", "naive"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_commuting_sets_mode(poly_file, capsys):
    code = main(["verify", "--in", poly_file, "--topology", "line:2",
                 "--mode", "commuting-sets", "--no-permutation"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--topologies", "line:3", "--sizes", "4,6",
                 "--repeats", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    with open(out) as f:
        rows = [r for r in csv.reader(line for line in f if not line.startswith("#"))]
    assert len(rows) == 1 + 2 * 2 * 2  # header + methods*sizes*repeats


def test_bench_empty_methods_usage_error(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--methods", "", "--topologies", "line:3",
                 "--sizes", "4", "--out", str(out)])
    assert code == 2
    assert "method" in capsys.readouterr().err


def test_bench_unknown_topology_exits_2(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--topologies", "moebius:4", "--sizes", "4",
                 "--repeats", "1", "--out", str(out)])
    assert code == 2


def test_trotter_error_subcommand(tmp_path):
    out = tmp_path / "trot.csv"
    code = main(["trotter-error", "--qubits", "2", "--gadgets", "4",
                 "--instances", "2", "--timesteps", "3", "--out", str(out)])
    assert code == 0
    with open(out) as f:
        rows = [r for r in csv.reader(line for line in f if not line.startswith("#"))]
    assert rows[0] == ["method", "instance", "timestep", "overlap_abs"]
    assert len(rows) == 1 + 2 * 2 * 3
    # t = 0 rows have unit overlap
    for method, _inst, t, ov in rows[1:]:
        if float(t) == 0.0:
            assert abs(float(ov) - 1.0) < 1e-9


def _csv_rows(path):
    with open(path) as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def test_bench_no_permutation_matches_library(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--methods", "proposed", "--topologies", "grid:2x3",
                 "--sizes", "12,30", "--repeats", "3", "--no-permutation",
                 "--out", str(out)])
    assert code == 0
    rows = _csv_rows(out)
    assert len(rows) == 2 * 3
    topo = ps.Topology.from_spec("grid:2x3")
    differs = False
    for row in rows:
        poly = ps.random_polynomial(ps.RandomSpec(6, int(row["n"]), ps.DEFAULT_ANGLE_SET,
                                                  int(row["seed"])))
        fixed = ps.synthesize(poly, topo, ps.SynthConfig(allow_permutation=False))
        assert int(row["cnots"]) == fixed.metrics.cnot_count
        differs |= ps.synthesize(poly, topo).metrics.cnot_count != fixed.metrics.cnot_count
    assert differs  # the flag changes the circuits, so the check above means something


def test_trotter_error_synthesis_options(tmp_path, monkeypatch):
    seen = []
    synthesize = ps.bench.synthesize

    def spy(poly, topo, cfg=None):
        seen.append(cfg)
        return synthesize(poly, topo, cfg)

    monkeypatch.setattr(ps.bench, "synthesize", spy)
    out = tmp_path / "trot.csv"
    code = main(["trotter-error", "--qubits", "3", "--gadgets", "6", "--instances", "2",
                 "--timesteps", "3", "--methods", "proposed", "--no-permutation",
                 "--mode", "commuting-sets", "--k", "3", "--out", str(out)])
    assert code == 0
    assert seen == [ps.SynthConfig(k=3, mode="commuting-sets", allow_permutation=False)] * 2
    rows = _csv_rows(out)
    assert len(rows) == 2 * 3
    for row in rows:
        if float(row["timestep"]) == 0.0:
            assert abs(float(row["overlap_abs"]) - 1.0) < 1e-9


def test_bad_k_exits_2(tmp_path, capsys):
    code = main(["trotter-error", "--qubits", "2", "--gadgets", "4", "--instances", "1",
                 "--k", "0", "--out", str(tmp_path / "trot.csv")])
    assert code == 2
    assert "k must be" in capsys.readouterr().err


def test_trotter_error_from_file(poly_file, tmp_path):
    out = tmp_path / "trot.csv"
    code = main(["trotter-error", "--in", poly_file, "--timesteps", "2",
                 "--methods", "proposed", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = main(["synth", "--in", str(tmp_path / "nope.txt"),
                 "--topology", "line:2"])
    assert code == 2
