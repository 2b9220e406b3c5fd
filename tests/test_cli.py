import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BUNDLED, backend_to_doc, grid_graph, make_backend, underflow_instance
import qmultiprog
from qmultiprog import cli, fixtures, partition
from qmultiprog.circuit import parse_program, serialize_program
from qmultiprog.hardware import load_backend
from qmultiprog.partition import PartitionError
from qmultiprog.routing import GateEvent, xswap_route
from qmultiprog.sim import QubitCapExceeded


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


def test_independent_writes_one_circuit_per_program(tmp_path):
    argv = ["compile", bench_file("bv_n3"), bench_file("toffoli_3"), "--backend", backend_file("cross9")]
    assert run([*argv, "--policy", "independent", "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.glob("compiled*.qasm"))
    assert written == ["compiled_bv_n3.qasm", "compiled_toffoli_3.qasm"]


def test_independent_refuses_programs_sharing_a_name(tmp_path, capsys):
    source = fixtures.benchmark_path("bv_n3").read_text()
    paths = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        paths.append(tmp_path / d / "prog.qasm")
        paths[-1].write_text(source)
    out = tmp_path / "out"
    argv = ["compile", *map(str, paths), "--backend", backend_file("cross9"), "--out", str(out)]
    assert run([*argv, "--policy", "independent"]) == 2
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not out.exists()  # refused before anything was compiled or written
    # A joint policy writes one circuit, so the shared name is harmless there.
    assert run([*argv, "--policy", "cdap-xswap"]) == 0
    assert (out / "compiled.qasm").exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "{missing}", "--backend", "{london}"],
        ["compile", "{dir}", "--backend", "{london}"],
        ["compile", "{bv_n3}", "--backend", "{dir}"],
        ["simulate", "{dir}"],
        ["bench", "{dir}", "--backend", "{london}"],
        ["schedule", "{dir}", "--backend", "{london}"],
        ["tree", "--backend", "{dir}"],
    ],
    ids=["missing-program", "dir-program", "dir-backend", "dir-circuit", "dir-bench-manifest",
         "dir-queue-manifest", "dir-tree-backend"],
)
def test_exit_code_unreadable_input_is_usage_error(argv, tmp_path, capsys):
    paths = {
        "missing": str(tmp_path / "nonexistent.qasm"),
        "dir": str(tmp_path),
        "london": backend_file("london"),
        "bv_n3": bench_file("bv_n3"),
    }
    assert run([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_usage_error_bad_subcommand():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "w.txt", "--backend", "chip.backend", "--seed", "3"],
        ["simulate", "c.qasm", "--backend", "/nonexistent"],
        ["simulate", "c.qasm", "--omega", "0.5"],
        ["simulate", "c.qasm", "--seed", "3"],
        ["tree", "--backend", "chip.backend", "--cap", "14"],
        ["schedule", "q.txt", "--backend", "chip.backend", "--cap", "14"],
    ],
)
def test_options_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source",
    [b"qreg q[2]; bogus q[0];", b"qreg q[2];\nh q[0];\n\xff\xfe\n", b"qreg q[0];\n"],
    ids=["bad-gate", "not-utf8", "zero-qreg"],
)
def test_exit_code_parse_error(source, tmp_path):
    bad = tmp_path / "bad.qasm"
    bad.write_bytes(source)
    assert run(["compile", str(bad), "--backend", backend_file("london")]) == 3
    assert run(["simulate", str(bad)]) == 3


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


@pytest.mark.parametrize("n_qubits", [0, -2])
def test_exit_code_qubit_count_below_one_is_usage_error(n_qubits, tmp_path, capsys):
    doc = {"n_qubits": n_qubits, "edges": [], "cnot_error": {}, "readout_error": [], "oneq_error": []}
    bad = tmp_path / "bad.backend"
    bad.write_text(json.dumps(doc))
    assert run(["compile", bench_file("bv_n3"), "--backend", str(bad)]) == 2
    assert "'n_qubits'" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["cnot_error", "readout_error", "oneq_error"])
def test_exit_code_rate_of_one_is_usage_error(field, tmp_path, capsys):
    doc = json.loads(fixtures.backend_path("london").read_text())
    if field == "cnot_error":
        doc[field]["1-3"] = 1.0
    else:
        doc[field][2] = 1.0
    bad = tmp_path / "bad.backend"
    bad.write_text(json.dumps(doc))
    assert run(["compile", bench_file("bv_n3"), "--backend", str(bad)]) == 2
    assert f"{field} rate 1.0 outside [0, 1)" in capsys.readouterr().err


def test_exit_code_disconnected_backend_is_usage_error(tmp_path, capsys):
    # valid in every field, but qubit 2 has no link
    doc = {
        "n_qubits": 3,
        "edges": [[0, 1]],
        "cnot_error": {"0-1": 0.01},
        "readout_error": [0.02] * 3,
        "oneq_error": [0.001] * 3,
    }
    bad = tmp_path / "split.backend"
    bad.write_text(json.dumps(doc))
    assert run(["tree", "--backend", str(bad)]) == 2
    assert "coupling graph is disconnected" in capsys.readouterr().err


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
            "--statevector",
        ]
    )
    assert code == 5
    # artifacts are still written for inspection
    assert (tmp_path / "report.json").exists()


def test_a_schedule_the_certificate_rejects_exits_5(monkeypatch, capsys):
    def drop_a_gate(programs, mapping, backend):
        schedule = xswap_route(programs, mapping, backend)
        i = max(i for i, e in enumerate(schedule.events) if isinstance(e, GateEvent))
        return dataclasses.replace(schedule, events=schedule.events[:i] + schedule.events[i + 1 :])

    monkeypatch.setattr(cli, "xswap_route", drop_a_gate)
    code = run(["compile", bench_file("bv_n3"), bench_file("toffoli_3"), "--backend", backend_file("cross9")])
    assert code == 5
    err = capsys.readouterr().err
    assert "equivalence-check failure" in err and "never executed" in err


def test_statevector_option_reports_the_simulated_check(capsys):
    argv = ["compile", bench_file("bv_n3"), bench_file("toffoli_3"), "--backend", backend_file("cross9")]
    assert run(argv + ["--format", "doc", "--statevector"]) == 0
    equivalence = json.loads(capsys.readouterr().out)["equivalence"]
    assert equivalence["method"] == "statevector" and equivalence["passed"] is True
    assert 0.0 <= equivalence["total_variation"] <= 1e-9


@pytest.mark.parametrize("command", ["compile", "bench"])
def test_statevector_over_the_cap_is_usage_error(command, tmp_path, capsys):
    if command == "compile":
        argv = ["compile", bench_file("bv_n3")]
    else:
        manifest = tmp_path / "w.txt"
        manifest.write_text(f"{bench_file('bv_n3')}\n")
        argv = ["bench", str(manifest)]
    argv += ["--backend", backend_file("cross9"), "--cap", "2"]
    assert run(argv) == 0  # the certificate needs no cap
    capsys.readouterr()
    assert run(argv + ["--statevector"]) == 2
    assert "exceed the simulation cap of 2" in capsys.readouterr().err


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


def test_bench_reports_a_refused_cell_and_compiles_the_rest(tmp_path, capsys):
    # two 3-qubit programs overfill the 5-qubit london chip together, so the
    # joint policies refuse, while independent compiles each on its own
    manifest = tmp_path / "w.txt"
    manifest.write_text(f"{bench_file('toffoli_3')},{bench_file('peres_3')}\n")
    policies = "baseline,cdap-xswap,independent"
    argv = ["bench", str(manifest), "--backend", backend_file("london"), "--policies", policies, "--out", str(tmp_path)]
    assert run(argv) == 0
    text = capsys.readouterr().out
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert [(c["policy"], c["ok"]) for c in doc["cells"]] == [
        ("baseline", False),
        ("cdap-xswap", False),
        ("independent", True),
    ]
    assert doc["cells"][0]["error"] == "no region found for: toffoli_3"
    assert list(doc["by_policy"]) == ["independent"] and doc["policy_deltas"] == {}
    rows = text.splitlines()[2:5]
    assert rows[0].split() == ["toffoli_3+peres_3", "baseline", "-", "FAILED:", "no", "region", "found", "for:", "toffoli_3"]
    assert rows[2].split()[:3] == ["toffoli_3+peres_3", "independent", "-"]
    assert text == (tmp_path / "bench.txt").read_text() + "\n"


def test_bench_empty_policy_list(tmp_path, capsys):
    # An empty policy list is a usage error naming the option, not an empty table.
    manifest = tmp_path / "w.txt"
    manifest.write_text(f"{bench_file('bv_n3')}\n")
    for policies in ("", ","):
        code = run(
            ["bench", str(manifest), "--backend", backend_file("london"), "--policies", policies, "--format", "doc"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--policies lists no policy" in err


def test_bench_empty_seed_list_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "w.txt"
    manifest.write_text(f"{bench_file('bv_n3')}\n")
    assert run(["bench", str(manifest), "--backend", backend_file("london"), "--seeds", ","]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--seeds lists no seed" in err


@pytest.mark.parametrize("text", ["", "# nothing to compare yet\n\n", ",\n"])
def test_bench_refuses_an_empty_manifest_naming_it(text, tmp_path, capsys):
    manifest = tmp_path / "w.txt"
    manifest.write_text(text)
    assert run(["bench", str(manifest), "--backend", backend_file("london"), "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"manifest {manifest} lists no programs" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["bench", "schedule"])
def test_manifest_line_naming_no_file_is_refused_with_its_number(command, tmp_path, capsys):
    manifest = tmp_path / "w.txt"
    manifest.write_text(f"{bench_file('bv_n3')}\n,\n")
    assert run([command, str(manifest), "--backend", backend_file("london")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"manifest {manifest} lists no programs on line 2" in err


def test_bench_refuses_a_repeated_policy_before_compiling(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("compiled a cell for a repeated policy")

    monkeypatch.setattr(cli, "compile_workload", fail)
    manifest = tmp_path / "w.txt"
    manifest.write_text(f"{bench_file('bv_n3')}\n")
    code = run(["bench", str(manifest), "--backend", backend_file("london"), "--policies", "baseline,baseline"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--policies lists baseline twice" in err


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


def test_schedule_prints_its_batches_as_text_by_default(tmp_path, capsys):
    manifest = tmp_path / "queue.txt"
    names = ["bv_n3", "bv_n4", "toffoli_3", "peres_3"]
    manifest.write_text("\n".join(bench_file(n) for n in names) + "\n")
    argv = ["schedule", str(manifest), "--backend", backend_file("melbourne"), "--epsilon", "1.0", "--max-colocate", "2"]
    assert run([*argv, "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "queue of 4 jobs -> 2 batches, trf=2.0000"
    assert len(lines) == 1 + len(doc["batches"])
    for i, (line, batch) in enumerate(zip(lines[1:], doc["batches"])):
        assert line == f"  batch {i}: " + ", ".join(
            f"{j['name']} (ind={j['ind_epst']}, co={j['co_epst']}, viol={j['violation']})" for j in batch["jobs"]
        )


def test_schedule_survives_solo_estimates_underflowing_to_zero(tmp_path, capsys):
    programs, backend = underflow_instance()
    chip = tmp_path / "line6.backend"
    chip.write_text(json.dumps(backend_to_doc(backend)))
    manifest = tmp_path / "queue.txt"
    for program in programs:
        path = tmp_path / f"{program.name}.qasm"
        path.write_text(serialize_program(program))
        with manifest.open("a") as f:
            f.write(f"{path}\n")
    assert run(["schedule", str(manifest), "--backend", str(chip), "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [j["violation"] for b in doc["batches"] for j in b["jobs"]] == [0.0, 0.0]


def test_schedule_refuses_an_empty_queue_naming_the_manifest(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built the dendrogram for an empty queue")

    monkeypatch.setattr(cli, "build_hierarchy_tree", fail)
    manifest = tmp_path / "queue.txt"
    manifest.write_text("# nothing queued yet\n\n")
    assert run(["schedule", str(manifest), "--backend", backend_file("london")]) == 2
    err = capsys.readouterr().err
    assert f"manifest {manifest} lists no programs" in err


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


def test_tree_prints_its_merges_as_text_by_default(capsys):
    assert run(["tree", "--backend", backend_file("london")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"dendrogram at omega={partition.DEFAULT_OMEGA}"
    assert [line.split(" (reward ")[0] for line in lines[1:]] == [
        "  step 1: [0, 1]",
        "  step 2: [0, 1, 2]",
        "  step 3: [3, 4]",
        "  step 4: [0, 1, 2, 3, 4]",
    ]


def test_numpy_loads_only_when_something_is_simulated(tmp_path):
    # A fresh interpreter on the package under test: importing it, compiling
    # under every policy, bench, schedule and tree leave numpy unloaded;
    # simulate and compile --statevector load it.
    bv, toffoli, cross9 = bench_file("bv_n3"), bench_file("toffoli_3"), backend_file("cross9")
    manifest = tmp_path / "workloads.txt"
    manifest.write_text(f"{bv},{toffoli}\n")
    free = [["compile", bv, toffoli, "--backend", cross9, "--policy", policy] for policy in cli.POLICIES]
    free += [
        ["bench", str(manifest), "--backend", cross9],
        ["schedule", str(manifest), "--backend", backend_file("melbourne")],
        ["tree", "--backend", backend_file("london")],
    ]
    simulating = [["simulate", bv], ["compile", bv, toffoli, "--backend", cross9, "--statevector"]]
    script = (
        "import json, sys\n"
        "import qmultiprog\n"
        "from qmultiprog import cli\n"
        "done = [qmultiprog.__file__, 'numpy' in sys.modules]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    done.append([cli.main(argv), 'numpy' in sys.modules])\n"
        "with open(sys.argv[2], 'w') as f:\n"
        "    json.dump(done, f)\n"
    )
    result = tmp_path / "result.json"
    package = Path(qmultiprog.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(free + simulating), str(result)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    where, at_import, *codes = json.loads(result.read_text())
    assert Path(where).resolve().parent == package
    assert not at_import
    assert codes == [[0, False]] * len(free) + [[0, True]] * len(simulating)


@pytest.mark.parametrize("command", [["compile", "bv_n3.qasm"], ["bench", "w.txt"], ["schedule", "q.txt"], ["tree"]])
def test_a_missing_backend_is_usage_error(command, capsys):
    assert run(command) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --backend is required\n"


def test_tree_dot_without_out_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["tree", "--backend", backend_file("london"), "--dot"]) == 2
    err = capsys.readouterr().err
    assert "--dot" in err and "--out" in err
    assert not list(tmp_path.iterdir())


def exit_code(argv):
    """The exit code of a CLI run, whether argparse or the command ends it."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", ["tree", "compile", "schedule", "compile-baseline", "bench-baseline"])
def test_non_finite_omega_is_usage_error(command, tmp_path, capsys):
    # every policy refuses it, also those that build no dendrogram
    queue = tmp_path / "queue.txt"
    queue.write_text(bench_file("bv_n3") + "\n")
    argv = {
        "tree": ["tree"],
        "compile": ["compile", bench_file("bv_n3")],
        "schedule": ["schedule", str(queue)],
        "compile-baseline": ["compile", bench_file("bv_n3"), "--policy", "baseline"],
        "bench-baseline": ["bench", str(queue), "--policies", "baseline"],
    }[command]
    omega = "inf" if command == "bench-baseline" else "nan"
    out = tmp_path / "out"
    assert exit_code([*argv, "--backend", backend_file("london"), "--omega", omega, "--out", str(out)]) == 2
    assert "omega must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["compile", "bench", "simulate"])
def test_cap_below_one_is_usage_error(command, cap, tmp_path, capsys):
    manifest = tmp_path / "workloads.txt"
    manifest.write_text(bench_file("bv_n3") + "\n")
    out = tmp_path / "out"
    argv = {
        "compile": ["compile", bench_file("bv_n3"), "--backend", backend_file("london")],
        "bench": ["bench", str(manifest), "--backend", backend_file("london")],
        "simulate": ["simulate", bench_file("bv_n3")],
    }[command]
    assert exit_code([*argv, "--cap", cap, "--out", str(out)]) == 2
    assert "--cap" in capsys.readouterr().err
    assert not out.exists()


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


# --- compile_workload: one path for every policy -----------------------------

def _pairs_digest(chip, policy):
    """Digest of every bundled pair's report (without its timing) and compiled
    circuits, or of the refusal, on one chip under one policy."""
    backend = fixtures.load_fixture_backend(chip)
    programs = {n: fixtures.load_benchmark(n) for n in BUNDLED}
    record = []
    for a, b in itertools.combinations(BUNDLED, 2):
        try:
            result = cli.compile_workload([programs[a], programs[b]], backend, policy)
        except (PartitionError, cli.UnroutableProgramError) as exc:
            record.append(f"{type(exc).__name__}: {exc}")
            continue
        report = dict(result["report"])
        del report["compile_seconds"]
        if policy == "independent":
            # Pinned before independent reports carried the swap classes.
            report["combined"] = {k: v for k, v in report["combined"].items() if k != "swap_classes"}
        record.append(report)
        record.append([serialize_program(c) for c in result["compiled"]])
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


# One digest per policy, in cli.POLICIES order. On london every pair is too
# wide to share the chip, so the four joint policies record the same refusals.
# Regenerated when the reports' equivalence became the routing certificate:
# each digest recomputed without the "equivalence" key is unchanged.
GOLDEN_REPORTS = {
    "london": ["5844e81a8ae9e962"] * 4 + ["58fb9470ba04579d"],
    "grid2x3": ["1857c2eb05134280", "42df25fd6b1b8e6d", "ae380f158253e312", "730d445329bfbf90", "62c65c516f62d643"],
    "cross9": ["dfcad29074d8fb80", "406078dadd894dde", "281d5589ce389140", "3067ef58f1877562", "8934f39ef3ef45fb"],
}


@pytest.mark.parametrize("chip", sorted(GOLDEN_REPORTS))
def test_golden_compile_reports(chip):
    assert [_pairs_digest(chip, policy) for policy in cli.POLICIES] == GOLDEN_REPORTS[chip]


@pytest.mark.parametrize("chip", ["grid2x3", "cross9", "tokyo20"])
def test_independent_report_combines_solo_runs(chip):
    backend = fixtures.load_fixture_backend(chip)
    programs = [fixtures.load_benchmark(n) for n in ("toffoli_3", "bv_n3")]
    solo = [cli.compile_workload([p], backend, "cdap-xswap") for p in programs]
    result = cli.compile_workload(programs, backend, "independent")
    report, runs = result["report"], [s["report"] for s in solo]
    assert report["policy"] == "independent"
    assert report["programs"] == [r["programs"][0] for r in runs]
    combined = report["combined"]
    for key in ("swaps", "added_cnots", "post_gates"):
        assert combined[key] == sum(r["combined"][key] for r in runs)
    for cls, count in combined["swap_classes"].items():
        assert count == sum(r["combined"]["swap_classes"][cls] for r in runs)
    assert combined["depth"] == max(r["combined"]["depth"] for r in runs)
    checks = [r["equivalence"] for r in runs]
    assert report["equivalence"]["checked"] == all(c["checked"] for c in checks)
    if report["equivalence"]["checked"]:
        assert report["equivalence"]["passed"] is all(c["passed"] for c in checks)
        assert report["equivalence"]["total_variation"] == max(c["total_variation"] for c in checks)
    assert [serialize_program(c) for c in result["compiled"]] == [
        serialize_program(s["compiled"][0]) for s in solo
    ]
    assert [s.to_json() for s in result["schedules"]] == [s["schedules"][0].to_json() for s in solo]


@pytest.mark.parametrize("policy", cli.POLICIES)
def test_empty_workload_is_partition_error(policy, london):
    with pytest.raises(PartitionError, match="no programs"):
        cli.compile_workload([], london, policy)


@pytest.mark.parametrize("policy", [p for p in cli.POLICIES if p != "independent"])
def test_a_program_object_given_twice_is_refused_by_every_joint_policy(policy):
    # The dendrogram partitioner and the greedy one refuse it alike, before placing anything.
    program = fixtures.load_benchmark("bv_n3")
    with pytest.raises(PartitionError, match="each program must be a distinct object"):
        cli.compile_workload([program, program], fixtures.load_fixture_backend("cross9"), policy)


CERTIFIED = {"method": "certificate", "checked": True, "passed": True, "total_variation": 0.0}


@pytest.mark.parametrize("policy", ["cdap-xswap", "independent"])
def test_register_over_the_simulator_cap_is_certified(policy):
    backend = make_backend(25, grid_graph(5, 5).edges, name="grid5x5")
    programs = [fixtures.load_benchmark(n) for n in ("bv_n3", "toffoli_3")]
    # Every run's active register holds a 3-qubit program: over a cap of 2,
    # which bounds only the simulation.
    report = cli.compile_workload(programs, backend, policy, cap=2)["report"]
    assert report["equivalence"] == CERTIFIED
    with pytest.raises(QubitCapExceeded):
        cli.compile_workload(programs, backend, policy, cap=2, statevector=True)


def test_melbourne_three_program_compile_is_certified():
    # 14 program qubits: over the simulator's default cap of 12.
    programs = [fixtures.load_benchmark(n) for n in ("alu-v0_27", "decod24-v2_43", "4mod5-v1_22")]
    backend = fixtures.load_fixture_backend("melbourne")
    report = cli.compile_workload(programs, backend, "cdap-xswap")["report"]
    assert report["equivalence"] == CERTIFIED
    with pytest.raises(QubitCapExceeded):
        cli.compile_workload(programs, backend, "cdap-xswap", statevector=True)


def test_tokyo20_compile_is_checked_on_its_active_register(tmp_path):
    # 20 physical qubits, over the default cap; the 6 of their light cone are not
    out = tmp_path / "tokyo"
    argv = ["compile", bench_file("bv_n3"), bench_file("toffoli_3"), "--backend", backend_file("tokyo20")]
    assert run(argv + ["--out", str(out), "--format", "doc", "--statevector"]) == 0
    equivalence = json.loads((out / "report.json").read_text())["equivalence"]
    assert equivalence["checked"] is True and equivalence["passed"] is True
    assert equivalence["method"] == "statevector"


@pytest.mark.parametrize("policy", ["baseline", "xswap-only"])
def test_policies_without_a_dendrogram_build_no_tree(policy, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built a dendrogram for a policy that does not partition by one")

    monkeypatch.setattr(partition, "build_hierarchy_tree", fail)
    programs = [fixtures.load_benchmark(n) for n in ("bv_n3", "toffoli_3")]
    report = cli.compile_workload(programs, fixtures.load_fixture_backend("cross9"), policy)["report"]
    assert report["equivalence"]["passed"] is True


def test_one_tree_per_backend_serves_every_policy(monkeypatch):
    calls = []
    original = partition.build_hierarchy_tree

    def counting(backend, omega=partition.DEFAULT_OMEGA):
        calls.append((backend.name, omega))
        return original(backend, omega)

    monkeypatch.setattr(partition, "build_hierarchy_tree", counting)
    backend = fixtures.load_fixture_backend("cross9")
    programs = [fixtures.load_benchmark(n) for n in ("bv_n3", "toffoli_3")]
    for policy in cli.POLICIES:
        cli.compile_workload(programs, backend, policy)
    assert calls == [("cross9", partition.DEFAULT_OMEGA)]
    cli.compile_workload(programs, backend, "cdap-only", omega=0.5)
    assert calls[1:] == [("cross9", 0.5)]


@pytest.mark.parametrize("policy", cli.POLICIES)
def test_value_equal_program_lists_give_identical_reports(policy):
    # The second list meets caches filled by the first: a kept tree on the
    # backend and kept distributions on equal (not identical) programs.
    backend = fixtures.load_fixture_backend("cross9")
    names = ("toffoli_3", "bv_n3", "peres_3")

    def compile_once():
        result = cli.compile_workload([fixtures.load_benchmark(n) for n in names], backend, policy)
        report = dict(result["report"])
        del report["compile_seconds"]
        return cli._json(report), [serialize_program(c) for c in result["compiled"]]

    assert compile_once() == compile_once()
