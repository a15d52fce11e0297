import json
import shutil
import subprocess
import sys

import pytest

from zxcliff import bench as bench_module
from zxcliff.bench import CSV_HEADER, VERIFY_WIDTH_BOUND, bench, render_report
from zxcliff.cli import main
from zxcliff.circuit import gate_matrix_product, parse_circuit, random_clifford_circuit
from zxcliff.optimiser import METRIC_OUTCOMES, PHASES, Optimiser
from zxcliff.ruleset import shipped_ruleset_dir
from zxcliff.semantics import scalar_free_equal


def test_bench_row_reproducible():
    r1 = bench(2, 10, 8, seed=5)
    r2 = bench(2, 10, 8, seed=5)
    assert r1.mean_in == r2.mean_in
    assert r1.mean_out == r2.mean_out
    assert r1.ratio == r2.ratio
    assert r1.steps == r2.steps
    assert r1.verified and r2.verified


def test_bench_rows_sum_metric_candidates():
    # a row's metric candidate counts are its runs' counts summed
    row = bench(3, 20, 2, seed=5).to_json_obj()
    runs = [Optimiser().run(random_clifford_circuit(3, 20, s)).stats["metric_candidates"]
            for s in (5, 6)]
    assert row["metric_candidates"] == {key: runs[0][key] + runs[1][key] for key in runs[0]}
    assert sum(row["metric_candidates"].values())


def test_bench_rows_sum_phases():
    # a row's phase times, steps and cover sources are its runs' summed
    row = bench(3, 20, 2, seed=5).to_json_obj()
    runs = [Optimiser().run(random_clifford_circuit(3, 20, s)).stats["phases"] for s in (5, 6)]
    assert list(row["phases"]) == list(PHASES)
    for name, entry in row["phases"].items():
        assert entry.keys() == runs[0][name].keys()
        for key, value in entry.items():
            if key != "ms":
                assert value == runs[0][name][key] + runs[1][name][key], (name, key)
    assert row["phases"]["metric"]["carried"] and all(e["ms"] > 0 for e in row["phases"].values())


def test_optimize_json_reports_metric_candidates(tmp_path, capsys):
    src = tmp_path / "c.zxc"
    src.write_text("qubits 2\nCNOT 0 1\nS 1\nZ 0\nCNOT 0 1\n")
    assert main(["--json", "optimize", str(src), "--out", str(tmp_path / "out.zxc")]) == 0
    stats = json.loads(capsys.readouterr().err)
    assert list(stats["metric_candidates"]) == sorted(METRIC_OUTCOMES)
    assert list(stats["phases"]) == sorted(PHASES)
    assert stats["phases"]["metric"].keys() == {"ms", "steps", "carried", "searched"}


def test_bench_seed_changes_runs():
    assert bench(2, 10, 8, seed=5).mean_in != bench(2, 10, 8, seed=99).mean_in


def test_bench_verifies_small_widths():
    row = bench(1, 10, 6, seed=0)
    assert row.verified and row.failures == 0
    assert row.mean_out <= row.mean_in


def test_bench_csv_schema():
    row = bench(1, 5, 3, seed=0)
    assert CSV_HEADER.count(",") == row.csv().count(",")
    assert render_report([row]).splitlines()[1].strip().endswith("yes")


def test_bench_verification_is_tri_state(monkeypatch, capsys):
    assert bench(5, 6, 2, seed=0).verified is True
    row = bench(VERIFY_WIDTH_BOUND + 1, 4, 1, seed=0)
    assert row.verified is None
    assert row.csv().endswith(",")
    assert row.to_json_obj()["verified"] is None
    assert render_report([row]).splitlines()[1].endswith("n/a")
    args = ["bench", "--width", str(VERIFY_WIDTH_BOUND + 1), "--depth", "4", "--count", "1"]
    assert main(args) == 0
    monkeypatch.setattr(bench_module, "scalar_free_equal", lambda a, b: False)
    row = bench(1, 4, 1, seed=0)
    assert row.verified is False and row.csv().endswith(",0")
    assert main(["bench", "--width", "1", "--depth", "4", "--count", "1"]) == 1


def test_bench_jobs_parallel_matches_serial():
    serial = bench(2, 8, 6, seed=3, jobs=1)
    parallel = bench(2, 8, 6, seed=3, jobs=2)
    assert serial.mean_in == parallel.mean_in
    assert serial.mean_out == parallel.mean_out
    assert serial.steps == parallel.steps


# -- CLI ------------------------------------------------------------------------------

CIRCUIT = "qubits 2\nCNOT 0 1\nS 0\nS 0\nCNOT 0 1\nH 1\nH 1\n"


def test_cli_optimize(tmp_path, capsys):
    src = tmp_path / "c.zxc"
    src.write_text(CIRCUIT)
    out = tmp_path / "out.zxc"
    trace = tmp_path / "trace.json"
    rc = main(["optimize", str(src), "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    optimised = parse_circuit(out.read_text())
    original = parse_circuit(CIRCUIT)
    assert scalar_free_equal(gate_matrix_product(optimised),
                             gate_matrix_product(original))
    obj = json.loads(trace.read_text())
    assert {"initial", "steps", "final"} <= set(obj)


def test_cli_optimize_no_fallback(tmp_path):
    src = tmp_path / "c.zxc"
    src.write_text(CIRCUIT)
    out = tmp_path / "out.zxc"
    assert main(["optimize", str(src), "--out", str(out), "--no-fallback"]) == 0


def test_cli_optimize_verify_failure_exits_3(tmp_path, capsys, monkeypatch):
    src = tmp_path / "c.zxc"
    src.write_text(CIRCUIT)
    monkeypatch.setattr("zxcliff.optimiser.scalar_free_equal", lambda a, b: False)
    assert main(["optimize", str(src), "--verify"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: verification failed: step changed the interpretation")


def test_cli_verify(tmp_path, capsys):
    a = tmp_path / "a.zxc"
    b = tmp_path / "b.zxc"
    a.write_text("qubits 1\nH 0\nH 0\n")
    b.write_text("qubits 1\n")
    assert main(["verify", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "true"
    c = tmp_path / "c.zxc"
    c.write_text("qubits 1\nS 0\n")
    assert main(["verify", str(a), str(c)]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_cli_translate_extract_round_trip(tmp_path, capsys):
    src = tmp_path / "c.zxc"
    src.write_text(CIRCUIT)
    dia = tmp_path / "d.json"
    assert main(["translate", str(src), "--out", str(dia)]) == 0
    out = tmp_path / "o.zxc"
    assert main(["extract", str(dia), "--out", str(out)]) == 0
    extracted = parse_circuit(out.read_text())
    assert scalar_free_equal(gate_matrix_product(extracted),
                             gate_matrix_product(parse_circuit(CIRCUIT)))


def test_cli_extract_non_circuit(tmp_path, capsys):
    from tests.test_flow import bridge_gadget

    dia = tmp_path / "bad.json"
    dia.write_text(bridge_gadget().to_json())
    assert main(["extract", str(dia)]) == 0  # diagnostic only by default
    assert main(["extract", str(dia), "--require-flow"]) == 2


@pytest.mark.parametrize("text,found", [
    ('{"vertices": [{"id": 0, "kind": "B"}, {"id": 1, "kind": "B"}], '
     '"edges": [[0]], "inputs": [0], "outputs": [1]}', "ValueError"),
    ("not json", "not JSON"),
    ('{"edges": [], "inputs": [], "outputs": []}', "'vertices'"),
], ids=["short-edge", "not-json", "no-vertices"])
def test_cli_extract_refuses_malformed_diagram(tmp_path, capsys, text, found):
    # the package's own error and exit 2, not a traceback
    dia = tmp_path / "bad.json"
    dia.write_text(text)
    assert main(["extract", str(dia)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and found in err


@pytest.mark.parametrize("verb", [["optimize"], ["verify", "a.txt"], ["extract"], ["translate"]],
                         ids=["optimize", "verify", "extract", "translate"])
def test_cli_missing_input_file(tmp_path, capsys, verb):
    # a path that does not exist ends in `error: ...` and exit 2, not a traceback
    missing = tmp_path / "missing.txt"
    assert main([verb[0], str(missing), *verb[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and str(missing) in err


@pytest.mark.parametrize("verb", [
    ["optimize", "{src}", "--out", "{missing}"],
    ["optimize", "{src}", "--out", "{ok}", "--trace", "{missing}"],
    ["nf", "dump", "--cc1-only", "--out", "{missing}"],
], ids=["optimize-out", "optimize-trace", "nf-dump-out"])
def test_cli_unwritable_output_file(tmp_path, capsys, verb):
    # a path in a directory that does not exist ends in `error: ...` and
    # exit 2, not a traceback
    src = tmp_path / "c.zxc"
    src.write_text(CIRCUIT)
    missing = tmp_path / "absent" / "out"
    paths = {"src": src, "ok": tmp_path / "ok.zxc", "missing": missing}
    assert main([arg.format(**paths) for arg in verb]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and str(missing) in err
    assert not missing.parent.exists()


@pytest.mark.parametrize("text,found", [
    ('{"name": "Bad", "rhs": {}}', "'lhs'"),
    ("not json", "JSONDecodeError"),
], ids=["no-lhs", "not-json"])
def test_cli_rules_check_refuses_malformed_rule(tmp_path, capsys, text, found):
    rules = tmp_path / "rules"
    shutil.copytree(shipped_ruleset_dir(), rules)
    (rules / "init" / "99_Bad.json").write_text(text)
    assert main(["rules", "check", "--dir", str(rules)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "99_Bad.json" in err and found in err


def test_cli_rules_check(capsys):
    assert main(["rules", "check"]) == 0
    out = capsys.readouterr().out
    assert "0 unsound" in out


def test_cli_nf_dump_cc1(tmp_path):
    out = tmp_path / "nf.json"
    assert main(["nf", "dump", "--cc1-only", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["cc1"]["count"] == 24


def test_cli_bench(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    rc = main(["--seed", "2", "bench", "--width", "1", "--depth", "8",
               "--count", "4", "--csv", str(csv)])
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 2


def test_cli_syntax_error(tmp_path, capsys):
    src = tmp_path / "bad.zxc"
    src.write_text("qubits 2\nCNOT 0 2\n")
    assert main(["optimize", str(src)]) == 2


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "zxcliff.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "optimize" in proc.stdout


def test_package_runs_as_a_module():
    # `python -m zxcliff` is the same front end, with its exit codes
    proc = subprocess.run([sys.executable, "-m", "zxcliff", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "optimize" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "zxcliff", "bench", "--width", "0",
                           "--depth", "5"], capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ["bench", "--width", "0", "--depth", "5"],
    ["bench", "--width", "1", "--depth", "0"],
    ["bench", "--width", "1", "2", "--depth", "-3"],
    ["bench", "--width", "1", "--depth", "5", "--count", "0"],
    ["--jobs", "0", "bench", "--width", "1", "--depth", "5"],
    ["--jobs", "two", "bench", "--width", "1", "--depth", "5"],
    ["optimize", "c.txt", "--max-iters", "0"],
])
def test_cli_refuses_non_positive_sizes(args, capsys):
    # an argument error, not a traceback from deep inside the run
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "is not a positive integer" in capsys.readouterr().err
