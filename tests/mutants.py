"""Mutation check: each mutant is a small deliberate fault in the package,
and the tests listed with it must catch it.

For each mutant the script copies ``src``, ``tests`` and ``pyproject.toml``
into a temporary directory, replaces the mutant's exact old text (which must
occur once in its file) with the new text, and runs the listed tests there
with pytest. The mutant is killed when they fail. Before any mutant the
listed tests must pass on an unmutated copy, so a kill is the mutant's doing.
Exits 1 if a mutant survives or its old text is not found.

    python tests/mutants.py

Uses only the standard library; the tests it runs need pytest and hypothesis.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/qmultiprog, exact old text, new text, tests that must fail)
MUTANTS = (
    (
        "a gate joins ready when it becomes next on any one of its lines",
        "routing.py",
        "                self.waiting[head] -= 1\n                if not self.waiting[head]:\n",
        "                self.waiting[head] -= 1\n                if True:\n",
        ["tests/test_routing.py::test_incremental_frontier_matches_reference"],
    ),
    (
        "every line's first gate starts ready",
        "routing.py",
        "for line in self.lines if line and not self.waiting[line[-1]])",
        "for line in self.lines if line)",
        [
            "tests/test_routing.py::test_incremental_frontier_matches_reference",
            "tests/test_circuit.py::test_dag_matches_brute_force_on_toffoli",
        ],
    ),
    (
        "a front gate is critical when one of its lines holds any gate",
        "routing.py",
        "            if any(len(lines[q]) > 1 for q in gates[gid].qubits):\n                critical.append(pair)",
        "            if any(len(lines[q]) > 0 for q in gates[gid].qubits):\n                critical.append(pair)",
        [
            "tests/test_circuit.py::test_front_layer_and_critical_gates_layered",
            "tests/test_routing.py::test_incremental_frontier_matches_reference",
        ],
    ),
    (
        "the certificate accepts a gate that is not next on its line",
        "routing.py",
        "if not line or line[-1] != gid:",
        "if not line:",
        ["tests/test_routing.py::test_the_certificate_is_sound_against_the_statevector"],
    ),
    (
        "a calibration rate of exactly 1.0 is accepted",
        "hardware.py",
        "if not 0.0 <= r < 1.0:",
        "if not 0.0 <= r <= 1.0:",
        [
            "tests/test_hardware.py::test_load_backend_rejections",
            "tests/test_cli.py::test_exit_code_rate_of_one_is_usage_error",
        ],
    ),
    (
        "a violation equal to epsilon is admitted",
        "scheduler.py",
        "return violation < epsilon or violation <= 0.0",
        "return violation <= epsilon or violation <= 0.0",
        ["tests/test_scheduler.py::test_violation_equal_to_epsilon_is_refused"],
    ),
    (
        "the fallback walk waits four SWAPs per qubit",
        "routing.py",
        "STALL_STEPS_PER_QUBIT = 3",
        "STALL_STEPS_PER_QUBIT = 4",
        ["tests/test_routing.py::test_default_stall_limit_is_three_per_qubit"],
    ),
    (
        "a gate that touches the light cone adds none of its qubits",
        "sim.py",
        "            live.update(g.qubits)\n",
        "            pass\n",
        ["tests/test_sim.py::test_light_cone_matches_reference_walk"],
    ),
    (
        "a cone over the cap is simulated",
        "sim.py",
        'check_cap(len(qubits), cap, "cone qubits")',
        "pass",
        ["tests/test_sim.py::test_cone_over_the_cap_raises_before_simulating"],
    ),
    (
        "a layout qubit just outside the circuit is accepted",
        "sim.py",
        "    if top >= n:",
        "    if top > n:",
        ["tests/test_sim.py::test_equivalence_check_renumbers_the_cone_in_ascending_order"],
    ),
    (
        "the oracle scans the circuit although the programs exceed the cap",
        "sim.py",
        'check_cap(sum(p.n_qubits for p in programs), limit, "program qubits")',
        "pass",
        ["tests/test_routing.py::test_program_qubits_over_the_cap_refuse_before_any_gate_is_scanned"],
    ),
    (
        "an exact cone's density has no byte budget",
        "sim.py",
        "            if 16 * 4 ** len(qubits) > DENSITY_BYTES:",
        "            if False:",
        ["tests/test_sim.py::test_exact_cone_over_the_density_budget_raises_before_simulating"],
    ),
    (
        "a density of exactly the byte budget is refused",
        "sim.py",
        "            if 16 * 4 ** len(qubits) > DENSITY_BYTES:",
        "            if 16 * 4 ** len(qubits) >= DENSITY_BYTES:",
        ["tests/test_sim.py::test_density_budget_admits_a_cone_at_the_budget_and_binds_exact_mode_only"],
    ),
    (
        "importing the simulator loads numpy",
        "sim.py",
        "from typing import TYPE_CHECKING, NamedTuple\n",
        "from typing import TYPE_CHECKING, NamedTuple\n\nimport numpy as np\n",
        ["tests/test_cli.py::test_numpy_loads_only_when_something_is_simulated"],
    ),
    (
        "a qreg of size 0 is accepted",
        "circuit.py",
        "            if not n_qubits:\n",
        "            if False:\n",
        ["tests/test_circuit.py::test_parse_errors"],
    ),
    (
        "a non-finite angle is accepted",
        "circuit.py",
        "    if not math.isfinite(result):",
        "    if False:",
        ["tests/test_circuit.py::test_parse_errors"],
    ),
    (
        "a cx with three operands is accepted",
        "circuit.py",
        "            if len(operands) != 2:",
        "            if len(operands) < 2:",
        ["tests/test_circuit.py::test_parse_errors"],
    ),
    (
        "links lists a set's edges in edge-set order, by a scan of every chip edge",
        "hardware.py",
        "return [(a, b) for a in sorted(qubits) for b in self.neighbors(a) if b > a and b in qubits]",
        "return [(a, b) for a, b in self.edges if a in qubits and b in qubits]",
        [
            "tests/test_hardware.py::test_adjacency_matches_edge_scan",
            "tests/test_partition.py::test_no_result_depends_on_the_order_a_chip_lists_its_edges",
            "tests/test_partition.py::test_region_reads_never_iterate_the_chip_edge_list",
        ],
    ),
    (
        "decompose replays a SWAP that is not a coupling edge",
        "routing.py",
        "            if not graph.has_edge(a, b):\n",
        "            if False:\n",
        ["tests/test_routing.py::test_decompose_rejects_each_corruption"],
    ),
    (
        "decompose accepts an executed CNOT on non-adjacent qubits",
        "routing.py",
        'if g.kind == CNOT and not graph.has_edge(*phys):\n            raise RoutingError(f"executed CNOT',
        'if False:\n            raise RoutingError(f"executed CNOT',
        ["tests/test_routing.py::test_decompose_rejects_each_corruption"],
    ),
    (
        "decompose never compares the replay with the final mapping",
        "routing.py",
        "        if sigma != schedule.final.sigmas[i]:\n",
        "        if False:\n",
        ["tests/test_routing.py::test_decompose_rejects_corrupted_schedule"],
    ),
    (
        "two cnot_error keys for one edge are accepted",
        "hardware.py",
        "        if edge in key_of:\n",
        "        if False:\n",
        ["tests/test_hardware.py::test_load_backend_rejections"],
    ),
    (
        "a bool is accepted as a number",
        "hardware.py",
        "if isinstance(value, bool) or not isinstance(value, kind):",
        "if not isinstance(value, kind):",
        ["tests/test_hardware.py::test_load_backend_rejections"],
    ),
    (
        "a sibling left with no link is never cut loose",
        "partition.py",
        "            if sib_alive and not linked:",
        "            if False:",
        ["tests/test_partition.py::test_golden_cut_partitions"],
    ),
    (
        "a climb stops only at a node with more alive qubits than the program needs",
        "partition.py",
        "if len(alive(n)) >= need",
        "if len(alive(n)) > need",
        ["tests/test_partition.py::test_golden_cut_partitions"],
    ),
    (
        "allocate seeds a pair on the least reliable free link",
        "partition.py",
        "pa, pb = max(free_edges, key=",
        "pa, pb = min(free_edges, key=",
        ["tests/test_partition.py::test_region_reads_never_iterate_the_chip_edge_list"],
    ),
    (
        "allocate seeds the heavier logical qubit on the worse-connected spot",
        "partition.py",
        "if phys_edge_anchor_score(pa) < phys_edge_anchor_score(pb):",
        "if phys_edge_anchor_score(pa) > phys_edge_anchor_score(pb):",
        ["tests/test_partition.py::test_region_reads_never_iterate_the_chip_edge_list"],
    ),
    (
        "a Backend accepts a disconnected coupling graph",
        "hardware.py",
        "        if not self.graph.is_connected():\n",
        "        if False:\n",
        [
            "tests/test_hardware.py::test_every_way_to_build_a_chip_refuses_a_disconnected_graph",
            "tests/test_cli.py::test_exit_code_disconnected_backend_is_usage_error",
        ],
    ),
    (
        "the equivalence check pairs programs and layouts of different counts",
        "sim.py",
        "    if len(programs) != len(final_layouts):\n",
        "    if False:\n",
        ["tests/test_routing.py::test_equivalence_check_refuses_programs_and_layouts_of_different_counts"],
    ),
    (
        "the routers route a mapping that does not place their programs",
        "routing.py",
        "        if i >= len(mapping.sigmas) or mapping.sigmas[i].keys() != set(range(program.n_qubits)):\n",
        "        if False:\n",
        ["tests/test_routing.py::test_routers_refuse_a_mapping_that_does_not_place_their_programs"],
    ),
    (
        "a repeated job id is accepted",
        "scheduler.py",
        "    if len(set(ids)) != len(ids):\n",
        "    if False:\n",
        ["tests/test_scheduler.py::test_repeated_job_id_is_refused_before_any_estimate"],
    ),
    (
        "the lookahead window holds one job more",
        "scheduler.py",
        "jobs[1:lookahead]",
        "jobs[1:lookahead + 1]",
        ["tests/test_scheduler.py::test_lookahead_and_colocation_caps"],
    ),
    (
        "a batch may grow past max_colocate",
        "scheduler.py",
        "if len(members) == max_colocate:",
        "if len(members) > max_colocate:",
        ["tests/test_scheduler.py::test_lookahead_and_colocation_caps"],
    ),
)


def _copy(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(cwd: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True).returncode


def main() -> int:
    started = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="qmultiprog-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        listed = sorted({t for *_, tests in MUTANTS for t in tests})
        if _pytest(clean, listed):
            print("the listed tests fail on the unmutated code; fix them first")
            return 1
        for k, (name, file, old, new, tests) in enumerate(MUTANTS):
            work = Path(tmp) / f"mutant{k}"
            _copy(work)
            path = work / "src" / "qmultiprog" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"STALE   {name}: old text occurs {text.count(old)} times in {file}")
                failures += 1
                continue
            path.write_text(text.replace(old, new))
            killed = _pytest(work, tests) != 0
            print(f"{'killed ' if killed else 'SURVIVED'} {name}")
            failures += not killed
            shutil.rmtree(work)
    print(f"{len(MUTANTS) - failures}/{len(MUTANTS)} mutants killed in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
