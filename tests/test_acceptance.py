"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -s`` to see the
lines on a green run.
"""
import random
import time

from conftest import make_backend, random_graph, random_program
from qmultiprog import fixtures
from qmultiprog.circuit import Gate, QuantumProgram
from qmultiprog.cli import POLICIES, compile_workload
from qmultiprog.hardware import bfs_hops, random_backend
from qmultiprog.partition import (
    average_redundancy,
    build_hierarchy_tree,
    max_redundant_qubits,
    modularity,
)
from qmultiprog.routing import (
    baseline_route,
    decompose,
    verify_equivalence,
    verify_schedule,
    xswap_route,
)
from qmultiprog.scheduler import Job, epst, schedule_tasks, trf
from qmultiprog.partition import build_hierarchy_tree as build_tree


def _report(num: int, name: str, ok: bool):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


def test_criterion_01_two_program_swap_counts():
    started = time.perf_counter()
    programs, mapping, backend = fixtures.boundary_swap_instance()
    joint = xswap_route(programs, mapping, backend)
    split = baseline_route(programs, mapping, backend)
    ok = (
        joint.swap_count == 1
        and joint.swaps_by_class()["inter"] == 1
        and split.swap_count == 2
        and split.swaps_by_class()["intra"] == 2
        and decompose(joint).stats["added_cnots"] == 3
        and decompose(split).stats["added_cnots"] == 6
        and time.perf_counter() - started < 1.0
    )
    _report(1, "grid2x3 joint-vs-split swap counts", ok)


def test_criterion_02_shortcut_gain_and_counts():
    programs, mapping, backend = fixtures.shortcut_swap_instance()
    full = {q: bfs_hops(backend.graph, q) for q in range(backend.n_qubits)}
    own = bfs_hops(backend.graph, 0, mapping.region(0))
    blocked = programs[0].gates[-1]
    joint = xswap_route(programs, mapping, backend)
    split = baseline_route(programs, mapping, backend)
    d = full[0][8]
    d_own = own[8]
    [swap] = joint.swaps()
    on_path = (
        full[0][swap.phys_a] + 1 + full[swap.phys_b][8] == d
        or full[0][swap.phys_b] + 1 + full[swap.phys_a][8] == d
    )
    ok = (
        d == 2
        and d_own == 4
        and sorted(mapping.sigmas[0][q] for q in blocked.qubits) == [0, 8]
        and d_own - d == 2
        and on_path
        and joint.swap_count == 1
        and split.swap_count == 3
    )
    _report(2, "cross9 shortcut gain and swap counts", ok)


def test_criterion_03_dendrogram_merge_order():
    backend = fixtures.load_fixture_backend("london")
    tree = build_hierarchy_tree(backend, omega=0.95)
    merges = [sorted(n.qubits) for n in sorted(tree.internal_nodes(), key=lambda n: n.merge_step)]
    ok = merges == [[0, 1], [0, 1, 2], [3, 4], [0, 1, 2, 3, 4]]
    _report(3, "london dendrogram merge order", ok)


def test_criterion_04_benchmark_size_table():
    table = {
        "bv_n3": (3, 2, 8),
        "bv_n4": (4, 3, 11),
        "peres_3": (3, 7, 16),
        "toffoli_3": (3, 6, 15),
        "fredkin_3": (3, 8, 16),
        "3_17_13": (3, 17, 36),
        "4mod5-v1_22": (5, 11, 21),
        "mod5mils_65": (5, 16, 35),
        "alu-v0_27": (5, 17, 36),
        "decod24-v2_43": (4, 22, 52),
    }
    ok = True
    for name, expected in table.items():
        program = fixtures.load_benchmark(name)
        ok = ok and (program.n_qubits, program.n_cnot, program.gate_count) == expected
    _report(4, "bundled benchmark size table", ok)


def test_criterion_05_equivalence_oracle():
    started = time.perf_counter()
    ok = True
    # pinned-layout regression instances under both routers
    for instance in (fixtures.boundary_swap_instance, fixtures.shortcut_swap_instance):
        for router in (xswap_route, baseline_route):
            programs, mapping, backend = instance()
            good, tv = verify_schedule(router(programs, mapping, backend))
            ok = ok and good and tv <= 1e-9
    # a co-location compiled under every policy
    programs = [fixtures.load_benchmark("bv_n3"), fixtures.load_benchmark("toffoli_3")]
    backend = fixtures.load_fixture_backend("cross9")
    for policy in POLICIES:
        report = compile_workload(programs, backend, policy)["report"]
        eq = report["equivalence"]
        ok = ok and eq["checked"] and eq["passed"] and eq["total_variation"] <= 1e-9
    # mutation negative control: breaking one swap must break equivalence
    progs, mapping, backend = fixtures.boundary_swap_instance()
    schedule = xswap_route(progs, mapping, backend)
    compiled = decompose(schedule)
    gates = list(compiled.combined.gates)
    idx = next(
        i for i in range(len(gates) - 2)
        if gates[i].kind == "cx" and gates[i + 1].kind == "cx"
        and gates[i].qubits == tuple(reversed(gates[i + 1].qubits))
    )
    del gates[idx + 1]
    corrupted = QuantumProgram(
        "corrupted",
        compiled.combined.n_qubits,
        tuple(Gate(g.kind, g.qubits, g.params, i) for i, g in enumerate(gates)),
    )
    bad_ok, _ = verify_equivalence(progs, corrupted, [dict(s) for s in schedule.final.sigmas])
    ok = ok and not bad_ok
    ok = ok and time.perf_counter() - started < 30.0
    _report(5, "equivalence oracle with negative control", ok)


def test_criterion_06_modularity_oracle():
    def oracle(grouping, graph):
        m = len(graph.edges)
        total = 0.0
        for g in sorted(set(grouping.values())):
            members = {q for q, gg in grouping.items() if gg == g}
            inside = sum(1 for a, b in graph.edges if a in members and b in members)
            ends = sum((a in members) + (b in members) for a, b in graph.edges)
            total += inside / m - (ends / (2 * m)) ** 2
        return total

    rng = random.Random(1234)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 10)
        graph = random_graph(n, seed=rng.randrange(1 << 30))
        grouping = {q: rng.randrange(rng.randint(1, n)) for q in range(n)}
        ok = ok and abs(modularity(grouping, graph) - oracle(grouping, graph)) <= 1e-12
    _report(6, "modularity against brute-force edge counts", ok)


def test_criterion_07_redundancy_identity_and_trend():
    melbourne = fixtures.load_fixture_backend("melbourne")
    ok = True
    for seed in range(100):
        backend = random_backend(melbourne.graph, melbourne.calib, seed=seed)
        tree = build_tree(backend, omega=(seed % 6) * 0.5)
        for node in tree.internal_nodes():
            ok = ok and max_redundant_qubits(node) == min(node.left.n_qubits, node.right.n_qubits) - 1
    for name in fixtures.backend_names():
        backend = fixtures.load_fixture_backend(name)
        at_zero = average_redundancy(build_tree(backend, omega=0.0))
        at_high = average_redundancy(build_tree(backend, omega=2.5))
        ok = ok and at_high <= at_zero + 1e-12
    _report(7, "redundancy identity and omega trend", ok)


def test_criterion_08_scheduler_contract():
    asym = make_backend(
        4,
        [(0, 1), (1, 2), (2, 3)],
        cnot={(0, 1): 0.01, (1, 2): 0.10, (2, 3): 0.04},
        readout={0: 0.01, 1: 0.02, 2: 0.05, 3: 0.09},
        oneq={0: 0.001, 1: 0.001, 2: 0.003, 3: 0.004},
    )
    jobs = [
        Job(id=0, program=random_program("job_a", 2, 3, 2, seed=7)),
        Job(id=1, program=random_program("job_b", 2, 3, 2, seed=7)),
    ]
    batches = schedule_tasks(jobs, build_tree(asym), asym, epsilon=0.0)
    ok = [len(b.jobs) for b in batches] == [1, 1] and trf(batches) == 1.0
    melbourne = fixtures.load_fixture_backend("melbourne")
    tiny = [Job(id=k, program=random_program(f"tiny{k}", 2, 1, 1, seed=100 + k)) for k in range(10)]
    batches = schedule_tasks(tiny, build_tree(melbourne), melbourne, epsilon=1.0, max_colocate=2)
    ok = ok and [len(b.jobs) for b in batches] == [2] * 5 and trf(batches) == 2.0
    _report(8, "scheduler epsilon contract and trial reduction", ok)


def test_criterion_09_success_estimate_arithmetic():
    oracle = 0.98 ** 2 * 0.999 ** 6 * 0.97 ** 3
    backend = make_backend(3, [(0, 1), (1, 2)], cnot=0.02, oneq=0.001, readout=0.03)
    program = random_program("worked", 3, 2, 6, seed=1)
    ok = abs(epst(program, {0, 1, 2}, backend) - oracle) <= 1e-6
    rng = random.Random(99)
    for probe in range(10):
        rates = {
            "cnot": rng.uniform(0.005, 0.05),
            "oneq": rng.uniform(0.0005, 0.005),
            "readout": rng.uniform(0.01, 0.08),
        }
        prog = random_program(f"probe{probe}", 3, 4, 5, seed=probe)
        base = epst(prog, {0, 1, 2}, make_backend(3, [(0, 1), (1, 2)], **rates))
        for category in rates:
            bumped = dict(rates)
            bumped[category] = rates[category] + 0.01
            ok = ok and epst(prog, {0, 1, 2}, make_backend(3, [(0, 1), (1, 2)], **bumped)) < base
    _report(9, "success-estimate arithmetic and monotonicity", ok)


def test_criterion_10_aggregate_policy_trend():
    started = time.perf_counter()
    tokyo = fixtures.load_fixture_backend("tokyo20")
    base_swaps = []
    joint_swaps = []
    worst_excess = 0
    for i in range(50):
        rng = random.Random(9000 + i)
        programs = []
        for j in range(2):
            nq = rng.randint(3, 5)
            ncx = rng.randint(5, 25)
            n1q = rng.randint(3, 12)
            programs.append(
                random_program(f"rand{i}_{j}", nq, ncx, n1q, seed=rng.randrange(1 << 30))
            )
        backend = random_backend(tokyo.graph, tokyo.calib, seed=5000 + i, name="tokyo-rand")
        split = compile_workload(programs, backend, "baseline")["report"]["combined"]["swaps"]
        joint = compile_workload(programs, backend, "cdap-xswap")["report"]["combined"]["swaps"]
        total_cnots = sum(p.n_cnot for p in programs)
        base_swaps.append(total_cnots + 3 * split)
        joint_swaps.append(total_cnots + 3 * joint)
        worst_excess = max(worst_excess, joint - split)
    mean_base = sum(base_swaps) / len(base_swaps)
    mean_joint = sum(joint_swaps) / len(joint_swaps)
    elapsed = time.perf_counter() - started
    ok = mean_joint <= mean_base and worst_excess <= 2 and elapsed < 120.0
    print(
        f"  mean post-compilation CNOTs: joint {mean_joint:.2f} vs split {mean_base:.2f}; "
        f"worst per-instance excess {worst_excess} swaps; {elapsed:.1f}s"
    )
    _report(10, "aggregate policy trend over 50 seeded pairs", ok)
