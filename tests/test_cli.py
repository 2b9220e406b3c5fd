import json

import pytest

from qmultiprog import cli, fixtures
from qmultiprog.circuit import parse_program
from qmultiprog.hardware import load_backend


def bench_file(name):
    return str(fixtures.benchmark_path(name))


def backend_file(name):
    return str(fixtures.backend_path(name))


def run(argv):
    return cli.main(argv)


def test_compile_success_and_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = run(
        [
            "compile",
            bench_file("bv_n3"),
            bench_file("toffoli_3"),
            "--backend",
            backend_file("cross9"),
            "--policy",
            "cdap-xswap",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "equivalence: passed=True" in stdout
    # every artifact round-trips through its loader
    compiled = parse_program((out / "compiled.qasm").read_text())
    assert compiled.n_qubits == 9
    report = json.loads((out / "report.json").read_text())
    layout = json.loads((out / "layout.json").read_text())
    assert report["policy"] == "cdap-xswap"
    for entry in report["programs"]:
        assert entry["post_gates"] == entry["original_gates"] + 3 * entry["swaps"]
    total = sum(e["original_gates"] for e in report["programs"])
    assert report["combined"]["post_gates"] == total + 3 * report["combined"]["swaps"]
    assert {p["name"] for p in layout["programs"]} == {"bv_n3", "toffoli_3"}


@pytest.mark.parametrize("policy", cli.POLICIES)
def test_compile_all_policies(policy, tmp_path):
    code = run(
        [
            "compile",
            bench_file("bv_n3"),
            bench_file("bv_n4"),
            "--backend",
            backend_file("tokyo20"),
            "--policy",
            policy,
            "--out",
            str(tmp_path),
            "--format",
            "doc",
        ]
    )
    assert code == 0


def test_compile_doc_format_is_json(capsys):
    code = run(
        [
            "compile",
            bench_file("bv_n3"),
            "--backend",
            backend_file("london"),
            "--format",
            "doc",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == "london"


def test_exit_code_usage_error_missing_file():
    assert run(["compile", "/nonexistent/prog.qasm", "--backend", backend_file("london")]) == 2


def test_exit_code_usage_error_bad_subcommand():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[2]; bogus q[0];")
    assert run(["compile", str(bad), "--backend", backend_file("london")]) == 3


def test_exit_code_backend_parse_error(tmp_path):
    bad = tmp_path / "bad.backend"
    bad.write_text("{not json")
    assert run(["compile", bench_file("bv_n3"), "--backend", str(bad)]) == 3


def test_exit_code_malformed_backend_is_usage_error(tmp_path, capsys):
    doc = json.loads(fixtures.backend_path("london").read_text())
    doc["edges"] = [0, 1]
    bad = tmp_path / "bad.backend"
    bad.write_text(json.dumps(doc))
    assert run(["compile", bench_file("bv_n3"), "--backend", str(bad)]) == 2
    assert "'edges'" in capsys.readouterr().err


def test_exit_code_bad_angle_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[1];\nu1(pi/0) q[0];\n")
    assert run(["compile", str(bad), "--backend", backend_file("london")]) == 3
    assert "division by zero" in capsys.readouterr().err


def test_exit_code_partition_failure():
    # two 3-qubit programs cannot share a 5-qubit chip region-disjointly
    code = run(
        [
            "compile",
            bench_file("toffoli_3"),
            bench_file("fredkin_3"),
            bench_file("bv_n3"),
            "--backend",
            backend_file("london"),
        ]
    )
    assert code == 4


def test_exit_code_equivalence_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "verify_equivalence", lambda *a, **k: (False, 1.0))
    code = run(
        [
            "compile",
            bench_file("bv_n3"),
            "--backend",
            backend_file("london"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 5
    # artifacts are still written for inspection
    assert (tmp_path / "report.json").exists()


def test_compile_seed_redraws_calibration(capsys):
    argv = [
        "compile",
        bench_file("bv_n3"),
        "--backend",
        backend_file("london"),
        "--format",
        "doc",
    ]
    run(argv)
    base = json.loads(capsys.readouterr().out)
    run(argv + ["--seed", "5"])
    seeded = json.loads(capsys.readouterr().out)
    assert seeded["backend"].endswith("#seed5")
    assert seeded["programs"][0]["epst"] != base["programs"][0]["epst"]


def test_bench_grid_and_determinism(tmp_path, capsys):
    manifest = tmp_path / "workloads.txt"
    manifest.write_text(
        f"{bench_file('bv_n3')},{bench_file('bv_n4')}\n"
        f"# comment line\n"
        f"{bench_file('toffoli_3')},{bench_file('fredkin_3')}\n"
    )
    argv = [
        "bench",
        str(manifest),
        "--backend",
        backend_file("tokyo20"),
        "--policies",
        "baseline,cdap-xswap",
        "--seeds",
        "1,2",
        "--out",
        str(tmp_path / "a"),
        "--format",
        "doc",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert len(doc["cells"]) == 2 * 2 * 2
    assert "baseline-vs-cdap-xswap" in doc["policy_deltas"]
    argv[argv.index(str(tmp_path / "a"))] = str(tmp_path / "b")
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert (tmp_path / "a" / "bench.json").read_text() == (tmp_path / "b" / "bench.json").read_text()
    assert (tmp_path / "a" / "bench.txt").exists()


def test_bench_empty_policy_list(tmp_path, capsys):
    manifest = tmp_path / "w.txt"
    manifest.write_text(f"{bench_file('bv_n3')}\n")
    code = run(
        ["bench", str(manifest), "--backend", backend_file("london"), "--policies", "", "--format", "doc"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == []


def test_schedule_subcommand(tmp_path, capsys):
    manifest = tmp_path / "queue.txt"
    manifest.write_text(
        "\n".join(bench_file(n) for n in ["bv_n3", "bv_n4", "toffoli_3", "peres_3"]) + "\n"
    )
    code = run(
        [
            "schedule",
            str(manifest),
            "--backend",
            backend_file("melbourne"),
            "--epsilon",
            "1.0",
            "--max-colocate",
            "2",
            "--out",
            str(tmp_path),
            "--format",
            "doc",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trf"] == 2.0
    assert len(doc["batches"]) == 2
    saved = json.loads((tmp_path / "schedule.json").read_text())
    assert saved == doc


def test_tree_subcommand_dump_and_dot(tmp_path, capsys):
    code = run(
        [
            "tree",
            "--backend",
            backend_file("london"),
            "--dot",
            "--out",
            str(tmp_path),
            "--format",
            "doc",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    merged = sorted(
        (n for n in doc["nodes"] if n["merge_step"] is not None), key=lambda n: n["merge_step"]
    )
    assert [n["qubits"] for n in merged] == [[0, 1], [0, 1, 2], [3, 4], [0, 1, 2, 3, 4]]
    dot = (tmp_path / "tree.dot").read_text()
    assert dot.startswith("digraph")
    assert (tmp_path / "tree.json").exists()


def test_simulate_subcommand(tmp_path, capsys):
    code = run(
        [
            "simulate",
            bench_file("bv_n3"),
            "--out",
            str(tmp_path),
            "--format",
            "doc",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["distribution"]) == {"011", "111"}
    assert doc["distribution"]["011"] == pytest.approx(0.5)
    assert doc["distribution"]["111"] == pytest.approx(0.5)
    assert json.loads((tmp_path / "distribution.json").read_text()) == doc


def test_simulate_cap_exceeded_is_usage_error(tmp_path):
    wide = tmp_path / "wide.qasm"
    wide.write_text("qreg q[14];\nh q[0];\n")
    assert run(["simulate", str(wide)]) == 2
    assert run(["simulate", str(wide), "--cap", "14"]) == 0


def test_backend_fixture_files_round_trip():
    for name in fixtures.backend_names():
        doc = json.loads(fixtures.backend_path(name).read_text())
        backend = load_backend(doc)
        assert backend.name == name
