import hashlib
import itertools
import json
import random

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (
    floyd_warshall,
    grid_graph,
    grid_queue,
    make_backend,
    partition_digest,
    random_graph,
    random_program,
)
from qmultiprog import fixtures
from qmultiprog.hardware import Backend, CouplingGraph, random_backend
from qmultiprog.partition import (
    UNMERGEABLE,
    Assignment,
    HierarchyNode,
    allocate,
    average_redundancy,
    build_hierarchy_tree,
    frp_partition,
    hierarchy_tree,
    max_redundant_qubits,
    merge_reward,
    modularity,
    partition_qubits,
    program_order,
    PartitionError,
    _allocation_pressure,
    _region_avg_fidelity,
)
from qmultiprog.scheduler import Job, epst, schedule_tasks


# --- modularity -----------------------------------------------------------------


def test_modularity_single_group_is_zero():
    graph = random_graph(6, seed=1)
    grouping = {q: 0 for q in range(6)}
    assert modularity(grouping, graph) == pytest.approx(0.0, abs=1e-15)


def test_modularity_four_cycle_split_pairs():
    graph = CouplingGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    grouping = {0: 0, 1: 0, 2: 1, 3: 1}
    # each pair keeps 1 of 4 edges inside and half of all endpoints
    assert modularity(grouping, graph) == pytest.approx(0.0, abs=1e-15)


def test_modularity_two_triangles():
    graph = CouplingGraph.from_pairs(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    grouping = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    assert modularity(grouping, graph) == pytest.approx(0.5, abs=1e-15)


def test_modularity_rejects_edgeless_graph():
    graph = CouplingGraph.from_pairs(3, [])
    with pytest.raises(ValueError):
        modularity({0: 0, 1: 0, 2: 0}, graph)


def modularity_oracle(grouping, graph):
    """Brute-force edge counting, one group at a time."""
    m = len(graph.edges)
    total = 0.0
    for g in sorted(set(grouping.values())):
        members = {q for q, gg in grouping.items() if gg == g}
        inside = sum(1 for a, b in graph.edges if a in members and b in members)
        ends = sum((a in members) + (b in members) for a, b in graph.edges)
        total += inside / m - (ends / (2 * m)) ** 2
    return total


def test_modularity_matches_brute_force_200_graphs():
    rng = random.Random(606)
    for trial in range(200):
        n = rng.randint(2, 10)
        graph = random_graph(n, seed=rng.randrange(1 << 30))
        grouping = {q: rng.randrange(rng.randint(1, n)) for q in range(n)}
        assert modularity(grouping, graph) == pytest.approx(
            modularity_oracle(grouping, graph), abs=1e-12
        )


# --- merge reward ----------------------------------------------------------------


def test_merge_reward_omega_zero_ignores_calibration():
    graph_pairs = [(0, 1), (1, 2), (2, 3)]
    noisy = make_backend(4, graph_pairs, cnot={(0, 1): 0.3, (1, 2): 0.01, (2, 3): 0.2})
    clean = make_backend(4, graph_pairs, cnot=0.001, readout=0.001)
    nodes = [HierarchyNode([q]) for q in range(4)]
    for a, b in [(0, 1), (1, 2)]:
        r_noisy = merge_reward(nodes[a], nodes[b], noisy, omega=0.0)
        r_clean = merge_reward(nodes[a], nodes[b], clean, omega=0.0)
        assert r_noisy == pytest.approx(r_clean, abs=1e-15)


def test_merge_reward_unconnected_pair_unmergeable():
    backend = make_backend(3, [(0, 1), (1, 2)])
    nodes = [HierarchyNode([q]) for q in range(3)]
    assert merge_reward(nodes[0], nodes[2], backend, omega=1.0) == UNMERGEABLE


def test_merge_reward_two_qubit_chip_perfect_calibration():
    backend = make_backend(2, [(0, 1)], cnot=0.0, readout=0.0, oneq=0.0)
    nodes = [HierarchyNode([0]), HierarchyNode([1])]
    # modularity delta on the one-edge graph is 0 - (-1/2) = 1/2
    assert merge_reward(nodes[0], nodes[1], backend, omega=1.0) == pytest.approx(1.5)


@given(
    n=st.integers(2, 16),
    seed=st.integers(0, 2**31),
    extra=st.sampled_from((0.0, 0.15, 0.4)),
    n_groups=st.integers(2, 8),
)
def test_merge_reward_omega_zero_is_modularity_delta(n, seed, extra, n_groups):
    rng = random.Random(seed)
    graph = random_graph(n, seed=seed, extra_edge_prob=extra)
    backend = random_backend(graph, fixtures.load_fixture_backend("melbourne").calib, seed)
    grouping = {q: rng.randrange(n_groups) for q in range(n)}
    adjacent = sorted(
        {(min(grouping[x], grouping[y]), max(grouping[x], grouping[y])) for x, y in backend.graph.edges}
        - {(g, g) for g in range(n_groups)}
    )
    assume(adjacent)
    ga, gb = rng.choice(adjacent)
    a = HierarchyNode([q for q in range(n) if grouping[q] == ga])
    b = HierarchyNode([q for q in range(n) if grouping[q] == gb])
    merged = {q: ga if g == gb else g for q, g in grouping.items()}
    delta = modularity(merged, backend.graph) - modularity(grouping, backend.graph)
    assert merge_reward(a, b, backend, omega=0.0) == pytest.approx(delta, abs=1e-12)


# --- hierarchy tree ----------------------------------------------------------------


def test_london_merge_order(london):
    tree = build_hierarchy_tree(london, omega=0.95)
    merges = sorted(tree.internal_nodes(), key=lambda n: n.merge_step)
    assert [sorted(n.qubits) for n in merges] == [
        [0, 1],
        [0, 1, 2],
        [3, 4],
        [0, 1, 2, 3, 4],
    ]


def test_two_qubit_chip_tree():
    backend = make_backend(2, [(0, 1)])
    tree = build_hierarchy_tree(backend)
    assert tree.root.n_qubits == 2
    assert tree.root.left.is_leaf and tree.root.right.is_leaf


def _tree_shape(tree):
    def shape(node):
        if node.is_leaf:
            return tuple(sorted(node.qubits))
        return (shape(node.left), shape(node.right))

    return shape(tree.root)


def test_omega_zero_tree_independent_of_calibration():
    pairs = [(0, 1), (1, 2), (1, 3), (3, 4), (2, 4)]
    a = make_backend(5, pairs, cnot={e: 0.01 * (i + 1) for i, e in enumerate(sorted(CouplingGraph.from_pairs(5, pairs).edges))})
    b = make_backend(5, pairs, cnot=0.07, readout=0.11)
    t_a = build_hierarchy_tree(a, omega=0.0)
    t_b = build_hierarchy_tree(b, omega=0.0)
    assert _tree_shape(t_a) == _tree_shape(t_b)


def test_large_omega_degrades_to_greedy_first_merge(melbourne):
    backend = melbourne
    tree = build_hierarchy_tree(backend, omega=1e3)
    first = min(tree.internal_nodes(), key=lambda n: n.merge_step)
    # oracle: the adjacent pair maximizing link fidelity * mean readout fidelity
    def ev(a, b):
        link = backend.calib.cnot_fidelity(a, b)
        ro = (backend.calib.readout_fidelity(a) + backend.calib.readout_fidelity(b)) / 2
        return link * ro

    best = max(sorted(backend.graph.edges), key=lambda e: (ev(*e), -e[0], -e[1]))
    assert tuple(sorted(first.qubits)) == best


def _assert_tree_invariants(tree, n_qubits):
    internal = tree.internal_nodes()
    assert len(internal) == n_qubits - 1
    assert len(tree.leaves) == n_qubits
    for node in internal:
        assert node.left.qubits | node.right.qubits == node.qubits
        assert not (node.left.qubits & node.right.qubits)


def test_tree_structure_invariants(tokyo20):
    _assert_tree_invariants(build_hierarchy_tree(tokyo20), tokyo20.n_qubits)


def test_tree_structure_invariants_11x11_grid(melbourne):
    pairs = [(q, q + 1) for q in range(121) if q % 11 != 10] + [(q, q + 11) for q in range(110)]
    backend = random_backend(CouplingGraph.from_pairs(121, pairs), melbourne.calib, seed=11)
    tree = build_hierarchy_tree(backend)
    _assert_tree_invariants(tree, 121)
    assert tree.root.qubits == frozenset(range(121))


def test_exact_tie_takes_lowest_pair(tokyo20):
    # At omega=0 the pairs (0,1) and (15,16) have the same modularity delta.
    tree = build_hierarchy_tree(tokyo20, omega=0.0)
    first = min(tree.internal_nodes(), key=lambda n: n.merge_step)
    assert first.qubits == frozenset({0, 1})


def _merge_digest(backend, omega=0.95):
    tree = build_hierarchy_tree(backend, omega=omega)
    merges = [
        [min(n.left.qubits), min(n.right.qubits)]
        for n in sorted(tree.internal_nodes(), key=lambda n: n.merge_step)
    ]
    return hashlib.sha256(json.dumps(merges).encode()).hexdigest()[:16]


# Merge orders (the (min left, min right) qubit of every merge, in order),
# pinned from the all-pairs two-pass implementation the closed form replaced.
GOLDEN_MERGES = {
    "cross9": ["0707ad800dce10c4", "0707ad800dce10c4", "0707ad800dce10c4"],
    "grid2x3": ["5ab04acacd4f6092", "5ab04acacd4f6092", "5ab04acacd4f6092"],
    "london": ["06028939ee2d8dbe", "a358867bf9cee7d4", "a358867bf9cee7d4"],
    "melbourne": ["40e610807994773b", "955756686b20db85", "a15ec4b1382266e4"],
    "tokyo20": ["ff98399b07a99dca", "6d82e22ab5c4df8d", "46a7fc7b5d0a5e3f"],
}
GOLDEN_CALIBRATED_MERGES = {
    "tokyo20": [
        "5c408dcaec17a8cf", "2c94aad79f443c66", "dafb1cc594402612", "fe951605f8dec676",
        "221994880c32a246", "c96166081660720d", "d39d71f576c6e6b6", "8ec6dee95fa536f7",
        "e0a9ca164a792b8e", "ab204fce59d498ef", "33eec7c260c53799", "068c278447652201",
        "b3bed070d418e1f3", "78e3e51893de20bc", "4703c4f5f7a7213b", "2a729354cb03bedb",
        "d3e9dfbb5ce81ac9", "c761f40c3344e8d6", "63def0f2fc38b73e", "6c5d8b9e52b87bef",
    ],
    "melbourne": [
        "d0dcf51bb8ef1cbb", "533b40c606498bfb", "754419154007a9a0", "095878e377151e1f",
        "f1de438f7c322106", "319c41292798e7e9", "6dfd8279a6aa947c", "8834a43409adc209",
        "3e4a72452be939aa", "0c7e8f811c2cc6db", "2873249905dd36f7", "2a2d7285df6345f0",
        "ee33e9fcdd2696a5", "250bb01b70864c11", "8d6b99b212c84329", "7b98e967b6956cd5",
        "be405874148807e0", "59fefca1cf172911", "72c778c01749a4ab", "09b0df9b06002ad5",
    ],
}


@pytest.mark.parametrize("chip", sorted(GOLDEN_MERGES))
def test_golden_merge_orders(chip):
    backend = fixtures.load_fixture_backend(chip)
    assert [_merge_digest(backend, omega) for omega in (0.5, 0.95, 2.5)] == GOLDEN_MERGES[chip]


@pytest.mark.parametrize("chip", sorted(GOLDEN_CALIBRATED_MERGES))
def test_golden_merge_orders_random_calibrations(chip):
    base = fixtures.load_fixture_backend(chip)
    digests = [_merge_digest(random_backend(base.graph, base.calib, seed=s)) for s in range(20)]
    assert digests == GOLDEN_CALIBRATED_MERGES[chip]


def test_hierarchy_tree_keeps_one_tree_per_backend():
    backend = fixtures.load_fixture_backend("london")
    before = (backend == fixtures.load_fixture_backend("london"), repr(backend))
    tree = hierarchy_tree(backend, 0.95)
    assert hierarchy_tree(backend, 0.95) is tree
    assert (backend == fixtures.load_fixture_backend("london"), repr(backend)) == before
    assert _tree_shape(tree) == _tree_shape(build_hierarchy_tree(backend, 0.95))
    other = hierarchy_tree(backend, 0.5)
    assert other is not tree and other.omega == 0.5
    assert _tree_shape(other) == _tree_shape(build_hierarchy_tree(backend, 0.5))
    # the last omega asked for replaced the first: back at 0.95 it is rebuilt
    again = hierarchy_tree(backend, 0.95)
    assert again is not tree and _tree_shape(again) == _tree_shape(tree)
    assert hierarchy_tree(fixtures.load_fixture_backend("london"), 0.95) is not again


# --- redundancy -----------------------------------------------------------------


def test_max_redundant_hand_cases():
    from qmultiprog.partition import HierarchyNode

    leaf_a, leaf_b = HierarchyNode([0]), HierarchyNode([1])
    pair = HierarchyNode([0, 1], leaf_a, leaf_b)
    assert max_redundant_qubits(pair) == 0
    left = HierarchyNode([0, 1], HierarchyNode([0]), HierarchyNode([1]))
    right = HierarchyNode(
        [2, 3, 4],
        HierarchyNode([2, 3], HierarchyNode([2]), HierarchyNode([3])),
        HierarchyNode([4]),
    )
    node = HierarchyNode([0, 1, 2, 3, 4], left, right)
    assert max_redundant_qubits(node) == 5 - (1 + 3) == 1
    with pytest.raises(ValueError):
        max_redundant_qubits(leaf_a)


def test_max_redundant_identity_on_random_trees(melbourne):
    for seed in range(100):
        backend = random_backend(melbourne.graph, melbourne.calib, seed=seed)
        tree = build_hierarchy_tree(backend, omega=0.5 + (seed % 5) * 0.5)
        for node in tree.internal_nodes():
            expected = min(node.left.n_qubits, node.right.n_qubits) - 1
            assert max_redundant_qubits(node) == expected


def test_average_redundancy_degenerate_chain():
    # a path chip at huge omega with decaying fidelities merges one leaf at a time
    backend = make_backend(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        cnot={(0, 1): 0.01, (1, 2): 0.02, (2, 3): 0.03, (3, 4): 0.04},
    )
    tree = build_hierarchy_tree(backend, omega=1e3)
    assert average_redundancy(tree) == pytest.approx(0.0)


def test_average_redundancy_balanced_four():
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tree = build_hierarchy_tree(backend, omega=0.0)
    # two pair merges then the root: redundancy values {0, 0, 1}
    values = sorted(max_redundant_qubits(n) for n in tree.internal_nodes())
    assert values == [0, 0, 1]
    assert average_redundancy(tree) == pytest.approx(1 / 3)


@pytest.mark.parametrize("name", sorted(fixtures.backend_names()))
def test_redundancy_endpoint_comparison(name):
    backend = fixtures.load_fixture_backend(name)
    at_zero = average_redundancy(build_hierarchy_tree(backend, omega=0.0))
    at_high = average_redundancy(build_hierarchy_tree(backend, omega=2.5))
    assert at_high <= at_zero + 1e-12


# --- partitioning ------------------------------------------------------------------


def test_partition_four_qubit_program_on_london(london):
    tree = build_hierarchy_tree(london)
    program = random_program("four", 4, 6, 4, seed=3)
    partition = partition_qubits(tree, [program], london)
    assert not partition.unassigned
    assignment = partition.assignments[0]
    assert len(assignment.qubits) == 4
    assert assignment.qubits <= {0, 1, 2, 3, 4}
    # the climb only tops out at the root; one redundant qubit stays alive,
    # and a 1-qubit program in the same call lands on it
    single = random_program("one", 1, 0, 2, seed=3)
    both = partition_qubits(tree, [program, single], london)
    assert not both.unassigned
    assert both.assignment_for(program) == assignment
    (leftover,) = {0, 1, 2, 3, 4} - assignment.qubits
    assert both.assignment_for(single).sigma == {0: leftover}


def test_partition_rejects_duplicate_program_objects(london):
    # Both partitioners share one prologue: the same refusals, before any placement.
    tree = build_hierarchy_tree(london)
    program = random_program("twice", 2, 2, 1, seed=44)
    for partitioner in (lambda ps: partition_qubits(tree, ps, london), lambda ps: frp_partition(ps, london)):
        with pytest.raises(PartitionError, match="distinct object"):
            partitioner([program, program])
        with pytest.raises(PartitionError, match="no programs to partition"):
            partitioner([])


def test_partitioners_accept_a_generator(tokyo20):
    # programs may arrive as a generator, which can be read only once
    programs = [fixtures.load_benchmark(n) for n in ("bv_n3", "toffoli_3")]
    tree = build_hierarchy_tree(tokyo20)
    from_list = partition_qubits(tree, programs, tokyo20)
    assert len(from_list.assignments) == 2
    assert partition_qubits(tree, (p for p in programs), tokyo20) == from_list
    assert frp_partition((p for p in programs), tokyo20) == frp_partition(programs, tokyo20)


def test_partition_program_too_large_goes_unassigned(london):
    tree = build_hierarchy_tree(london)
    program = random_program("huge", 6, 5, 2, seed=4)
    partition = partition_qubits(tree, [program], london)
    assert partition.unassigned == (program,)
    assert not partition.assignments


def test_partition_two_programs_on_path_chip():
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3)])
    tree = build_hierarchy_tree(backend)
    p_a = random_program("aa", 2, 3, 2, seed=5)
    p_b = random_program("bb", 2, 3, 2, seed=6)
    partition = partition_qubits(tree, [p_a, p_b], backend)
    regions = sorted(sorted(a.qubits) for a in partition.assignments)
    assert regions == [[0, 1], [2, 3]]


def test_partition_regions_disjoint_random(tokyo20):
    rng = random.Random(77)
    for trial in range(10):
        backend = random_backend(tokyo20.graph, tokyo20.calib, seed=trial)
        programs = [
            random_program(f"p{trial}_{k}", rng.randint(2, 5), rng.randint(2, 15), rng.randint(1, 8), seed=rng.randrange(1 << 30))
            for k in range(3)
        ]
        tree = build_hierarchy_tree(backend)
        partition = partition_qubits(tree, programs, backend)
        seen = set()
        for a in partition.assignments:
            assert len(a.qubits) == a.program.n_qubits
            assert not (seen & a.qubits)
            seen |= a.qubits
        assert len(partition.assignments) + len(partition.unassigned) == 3


def test_partition_near_full_chip_never_overlaps(tokyo20):
    # packing 3-4 programs onto a 20-qubit chip: a program may fall back to
    # independent execution, but assignments never overlap and never crash
    rng = random.Random(4321)
    outcomes = {"assigned": 0, "unassigned": 0}
    for trial in range(20):
        count = 3 + trial % 2
        programs = [
            random_program(
                f"full{trial}_{k}", rng.randint(3, 5), rng.randint(5, 20), rng.randint(3, 10), seed=rng.randrange(1 << 30)
            )
            for k in range(count)
        ]
        backend = random_backend(tokyo20.graph, tokyo20.calib, seed=9900 + trial)
        partition = partition_qubits(build_hierarchy_tree(backend), programs, backend)
        taken = set()
        for a in partition.assignments:
            assert not (taken & a.qubits)
            taken |= a.qubits
        outcomes["assigned"] += len(partition.assignments)
        outcomes["unassigned"] += len(partition.unassigned)
        assert len(partition.assignments) + len(partition.unassigned) == count
    assert outcomes["assigned"] > outcomes["unassigned"]  # fallback is the exception


def reachable_candidates(tree, alive, need):
    """Independent climb: first node with enough alive qubits above each leaf."""
    found = {}
    for q in sorted(tree.leaves):
        node = tree.leaves[q]
        while node is not None and len(alive[node]) < need:
            node = node.parent
        if node is not None:
            found[id(node)] = node
    return list(found.values())


def test_partition_candidate_choice_matches_brute_force():
    backend = make_backend(
        8,
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (3, 4), (0, 7), (1, 6)],
        cnot={
            (0, 1): 0.012, (1, 2): 0.05, (2, 3): 0.02, (3, 4): 0.04,
            (4, 5): 0.015, (5, 6): 0.03, (6, 7): 0.025, (0, 7): 0.06, (1, 6): 0.018,
        },
        readout={q: 0.02 + 0.005 * q for q in range(8)},
    )
    programs = [random_program("px", 3, 8, 4, seed=11), random_program("py", 3, 5, 4, seed=12)]
    tree = build_hierarchy_tree(backend)
    partition = partition_qubits(tree, programs, backend)

    alive = {node: set(node.qubits) for node in tree.nodes()}
    for program in program_order(programs):
        best = None
        for node in reachable_candidates(tree, alive, program.n_qubits):
            sigma = allocate(program, alive[node], backend)
            pressure = _allocation_pressure(program, sigma, backend)
            if pressure is None:
                continue
            used = tuple(sorted(sigma.values()))
            key = (pressure, -_region_avg_fidelity(set(used), backend), used)
            if best is None or key < best[0]:
                best = (key, sigma)
        assignment = next(a for a in partition.assignments if a.program is program)
        assert frozenset(best[1].values()) == assignment.qubits
        assert assignment.avg_fidelity == pytest.approx(-best[0][1])
        for q in assignment.qubits:
            node = tree.leaves[q]
            while node is not None:
                alive[node].discard(q)
                node = node.parent


# Partitions of windows of a seeded bundled-circuit queue (one to four
# programs, then the whole queue) on an 8x8 grid under two calibrations drawn
# from melbourne's ranges. Pinned from the implementation that built
# chip-wide distance matrices, then re-pinned when region means began to sum
# their links in sorted order: every record equal to the old at rel 1e-12.
GOLDEN_GRID_PARTITIONS = {
    5: "846141c0faa8efdc",
    6: "8fbd37f6fd977839",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_GRID_PARTITIONS))
def test_golden_grid_partitions(seed, melbourne):
    backend = random_backend(grid_graph(8, 8), melbourne.calib, seed=seed)
    tree = build_hierarchy_tree(backend)
    queue = grid_queue(seed)
    windows = [queue[i : i + k] for k in (1, 2, 3, 4) for i in range(0, len(queue) - k + 1, k)]
    digests = [partition_digest(partition_qubits(tree, w, backend)) for w in windows + [queue]]
    assert hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16] == GOLDEN_GRID_PARTITIONS[seed]


# Every pair of bundled circuits (routing fixtures included) on london, grid2x3
# and cross9, and every triple on a uniformly calibrated 3x4 grid: inputs that
# cut a sibling loose 46, 13, 37 and 350 times. One tree per chip serves every
# call. Pinned from the implementation that wrote its claims into the tree
# and so needed a fresh copy of it per call.
GOLDEN_CUT_PARTITIONS = {
    "london": (2, "896527369a2c31f7"),
    "grid2x3": (2, "a761a95afa52d38f"),
    "cross9": (2, "968809b6b11ffbbb"),
    "grid3x4": (3, "3be3c2093f842051"),
}


def _cut_backend(chip):
    if chip == "grid3x4":
        return make_backend(12, sorted(grid_graph(3, 4).edges))
    return fixtures.load_fixture_backend(chip)


@pytest.mark.parametrize("chip", sorted(GOLDEN_CUT_PARTITIONS))
def test_golden_cut_partitions(chip):
    size, golden = GOLDEN_CUT_PARTITIONS[chip]
    backend = _cut_backend(chip)
    tree = build_hierarchy_tree(backend)
    programs = {name: fixtures.load_benchmark(name) for name in fixtures.benchmark_names()}
    digests = [
        partition_digest(partition_qubits(tree, [programs[n] for n in combo], backend))
        for combo in itertools.combinations(sorted(programs), size)
    ]
    assert hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16] == golden


def test_partition_leaves_tree_unchanged():
    backend = _cut_backend("grid3x4")
    tree = build_hierarchy_tree(backend)
    shape = _tree_shape(tree)
    programs = [fixtures.load_benchmark(n) for n in ("3_17_13", "4mod5-v1_22", "alu-v0_27")]
    first = partition_qubits(tree, programs, backend)
    second = partition_qubits(tree, programs, backend)
    assert first == second
    assert _tree_shape(tree) == shape
    for node in tree.internal_nodes():
        assert node.left.parent is node and node.right.parent is node
    assert tree.root.parent is None


# --- allocation ----------------------------------------------------------------------


def test_allocate_single_cnot_orientation_tie():
    backend = make_backend(2, [(0, 1)])
    program = random_program("tiny", 2, 1, 0, seed=0)
    sigma = allocate(program, {0, 1}, backend)
    assert sigma[0] == 0 and sigma[1] == 1


def test_allocate_heaviest_pair_on_most_reliable_edge():
    backend = make_backend(
        4, [(0, 1), (1, 2), (2, 3)],
        cnot={(0, 1): 0.05, (1, 2): 0.004, (2, 3): 0.03},
    )
    program = random_program("pair", 2, 4, 2, seed=8)
    sigma = allocate(program, {0, 1, 2, 3}, backend)
    assert set(sigma.values()) == {1, 2}


def test_allocate_deterministic(tokyo20):
    program = random_program("det", 4, 9, 5, seed=9)
    region = set(range(10))
    assert allocate(program, region, tokyo20) == allocate(program, region, tokyo20)


def test_allocate_isolated_qubits_fill_by_readout():
    backend = make_backend(
        4, [(0, 1), (1, 2), (2, 3)],
        readout={0: 0.09, 1: 0.01, 2: 0.02, 3: 0.002},
    )
    program = random_program("lonely", 2, 0, 3, seed=10)  # no CNOTs at all
    sigma = allocate(program, {0, 1, 2, 3}, backend)
    assert set(sigma.values()) == {3, 1}  # two best readout qubits
    assert sigma[0] == 3  # logical 0 gets the very best


def test_allocate_region_too_small():
    backend = make_backend(3, [(0, 1), (1, 2)])
    program = random_program("big", 3, 2, 1, seed=13)
    with pytest.raises(PartitionError):
        allocate(program, {0, 1}, backend)


def test_allocate_coverage_prefers_triangle():
    backend = make_backend(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    program_gates = []
    from qmultiprog.circuit import Gate, QuantumProgram

    for (a, b) in [(0, 1), (0, 2), (1, 2), (0, 1)]:
        program_gates.append(Gate("cx", (a, b), (), id=len(program_gates)))
    program = QuantumProgram("tri", 3, tuple(program_gates))
    sigma = allocate(program, {0, 1, 2, 3}, backend)
    assert set(sigma.values()) == {0, 1, 2}


# --- greedy baseline partition -----------------------------------------------------


def test_frp_regions_connected_and_disjoint(tokyo20):
    programs = [random_program(f"f{k}", 3 + k, 6, 4, seed=20 + k) for k in range(3)]
    partition = frp_partition(programs, tokyo20)
    assert not partition.unassigned
    seen = set()
    for a in partition.assignments:
        assert len(a.qubits) == a.program.n_qubits
        assert not (seen & a.qubits)
        seen |= a.qubits
        # region growth is neighbor-by-neighbor, so the region is connected
        from qmultiprog.partition import _allocation_pressure as pressure

        assert pressure(a.program, a.sigma, tokyo20) is not None


def test_frp_prefers_well_connected_reliable_root():
    backend = make_backend(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)],
        cnot={(0, 1): 0.09, (1, 2): 0.01, (2, 3): 0.01, (3, 4): 0.09, (1, 3): 0.01},
    )
    program = random_program("root", 2, 2, 1, seed=21)
    partition = frp_partition([program], backend)
    region = partition.assignments[0].qubits
    assert region <= {1, 2, 3}


def test_frp_unassigned_when_chip_full():
    backend = make_backend(3, [(0, 1), (1, 2)])
    big = random_program("big", 3, 2, 1, seed=22)
    extra = random_program("extra", 2, 1, 1, seed=23)
    partition = frp_partition([big, extra], backend)
    assert len(partition.assignments) == 1
    assert len(partition.unassigned) == 1


def test_frp_unassigned_when_region_growth_runs_out_of_frontier():
    # On the path 0-...-7 the densest program takes the best link, 3-4: six
    # free qubits are left, but in two 3-qubit pieces, so no region of 4 grows.
    path = [(q, q + 1) for q in range(7)]
    backend = make_backend(8, path, cnot={e: 0.001 if e == (3, 4) else 0.02 for e in path})
    pair = random_program("pair", 2, 6, 0, seed=3)
    wide = random_program("wide", 4, 3, 1, seed=24)
    narrow = random_program("narrow", 3, 2, 1, seed=25)
    partition = frp_partition([wide, pair, narrow], backend)
    assert partition.unassigned == (wide,)
    # the abandoned region's qubits stay available to the next program
    assert [(a.program, a.qubits) for a in partition.assignments] == [(pair, {3, 4}), (narrow, {0, 1, 2})]


# Workloads that fit, where CDAP leaves a program unassigned (ROADMAP item 3).
_CDAP_DROPS = {
    "tokyo20": ("alu-v0_27", "decod24-v2_43", "mod5mils_65", "3_17_13"),  # drops mod5mils_65
    "grid3x4": ("bv_n4", "decod24-v2_43", "shortcut_p2"),  # drops shortcut_p2
}


def _cdap_drop_case(chip):
    backend = make_backend(12, grid_graph(3, 4).edges) if chip == "grid3x4" else fixtures.load_fixture_backend(chip)
    return [fixtures.load_benchmark(n) for n in _CDAP_DROPS[chip]], backend


@pytest.mark.parametrize("chip", sorted(_CDAP_DROPS))
def test_frp_places_every_program_of_the_cdap_drop_cases(chip):
    programs, backend = _cdap_drop_case(chip)
    assert frp_partition(programs, backend).unassigned == ()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("chip", sorted(_CDAP_DROPS))
def test_cdap_places_every_program_frp_places(chip):
    programs, backend = _cdap_drop_case(chip)
    assert partition_qubits(hierarchy_tree(backend), programs, backend).unassigned == ()


# --- references: the chip-wide implementations the region-local ones replaced ------


def _rescan_merges(backend, omega):
    """The dendrogram loop that rescored every linked community pair at every
    step; returns (left key, right key, reward) per merge."""
    communities = {q: HierarchyNode([q]) for q in range(backend.n_qubits)}
    owner = list(range(backend.n_qubits))
    merges = []
    while len(communities) > 1:
        adjacent = {
            (min(owner[x], owner[y]), max(owner[x], owner[y]))
            for x, y in backend.graph.edges
            if owner[x] != owner[y]
        }
        if not adjacent:
            raise PartitionError("coupling graph is disconnected; cannot finish the dendrogram")
        rewards = {
            (ka, kb): merge_reward(communities[ka], communities[kb], backend, omega) for ka, kb in adjacent
        }
        ka, kb = min(rewards, key=lambda pair: (-rewards[pair], pair))
        a, b = communities.pop(ka), communities.pop(kb)
        communities[ka] = HierarchyNode(a.qubits | b.qubits, a, b)
        for q in b.qubits:
            owner[q] = ka
        merges.append((ka, kb, rewards[ka, kb]))
    return merges


def _tree_merges(tree):
    return [
        (min(n.left.qubits), min(n.right.qubits), n.reward)
        for n in sorted(tree.internal_nodes(), key=lambda n: n.merge_step)
    ]


def _matrix_pressure(program, sigma, backend):
    """_allocation_pressure over Floyd-Warshall distances confined to the
    placed qubits."""
    dist = floyd_warshall(backend.graph, set(sigma.values()))
    total = 0
    for (a, b), w in program.cnot_weights().items():
        d = dist[sigma[a], sigma[b]]
        if d == float("inf"):
            return None
        total += w * (d - 1)
    return total


def _matrix_allocate(program, region, backend, fired):
    """allocate with a sorted scan of every chip edge for the region's links
    and chip-wide Floyd-Warshall distances for the nearest-free-qubit
    fallback; appends to ``fired`` each time the fallback runs."""
    region = set(region)
    if len(region) < program.n_qubits:
        raise PartitionError("region too small")
    weights = program.cnot_weights()
    logical_weight = {q: 0 for q in range(program.n_qubits)}
    for (a, b), w in weights.items():
        logical_weight[a] += w
        logical_weight[b] += w
    region_edges = [e for e in sorted(backend.graph.edges) if e[0] in region and e[1] in region]
    full_dist = None
    sigma, used = {}, set()

    def anchor_score(p):
        return sum(backend.calib.cnot_fidelity(a, b) for a, b in region_edges if p in (a, b))

    def place(logical, phys):
        sigma[logical] = phys
        used.add(phys)

    def coverage(logical, p):
        total = 0.0
        for other, phys in sigma.items():
            key = (min(logical, other), max(logical, other))
            if key in weights and backend.graph.has_edge(p, phys):
                total += weights[key] * backend.calib.cnot_fidelity(p, phys)
        return total

    pending = sorted(weights, key=lambda e: (-weights[e], e))
    while True:
        half = [e for e in pending if (e[0] in sigma) != (e[1] in sigma)]
        if half:
            la, lb = min(half, key=lambda e: (-weights[e], e))
            anchor, free_l = (la, lb) if la in sigma else (lb, la)
            anchor_p = sigma[anchor]
            adjacent = [p for p in sorted(region - used) if backend.graph.has_edge(anchor_p, p)]
            if adjacent:
                target = max(
                    adjacent,
                    key=lambda p: (coverage(free_l, p), backend.calib.cnot_fidelity(anchor_p, p), -p),
                )
            else:
                fired.append(anchor_p)
                if full_dist is None:
                    full_dist = floyd_warshall(backend.graph)
                free = sorted(region - used)
                target = min(free, key=lambda p: (full_dist[anchor_p, p], p))
            place(free_l, target)
            continue
        unmapped = [e for e in pending if e[0] not in sigma and e[1] not in sigma]
        if not unmapped:
            break
        la, lb = min(unmapped, key=lambda e: (-weights[e], e))
        free_edges = [e for e in region_edges if e[0] not in used and e[1] not in used]
        if not free_edges:
            break
        pa, pb = max(free_edges, key=lambda e: (backend.calib.cnot_fidelity(*e), (-e[0], -e[1])))
        if logical_weight[la] < logical_weight[lb] or (logical_weight[la] == logical_weight[lb] and la > lb):
            la, lb = lb, la
        if anchor_score(pa) < anchor_score(pb):
            pa, pb = pb, pa
        place(la, pa)
        place(lb, pb)
    for logical in range(program.n_qubits):
        if logical not in sigma:
            place(logical, max(sorted(region - used), key=lambda p: (backend.calib.readout_fidelity(p), -p)))
    return sigma


def _random_chip(n, seed, extra):
    """A random connected chip, calibrated from melbourne's ranges."""
    graph = random_graph(n, seed=seed, extra_edge_prob=extra)
    return random_backend(graph, fixtures.load_fixture_backend("melbourne").calib, seed)


@given(
    n=st.integers(2, 14),
    seed=st.integers(0, 2**31),
    extra=st.sampled_from((0.0, 0.2, 0.5)),
    omega=st.sampled_from((0.0, 0.5, 0.95, 2.5)),
    uniform=st.booleans(),
)
def test_incremental_tree_matches_rescan(n, seed, extra, omega, uniform):
    backend = _random_chip(n, seed, extra)
    if uniform:  # equal calibrations: exact reward ties at every omega
        backend = make_backend(n, backend.graph.edges)
    assert _tree_merges(build_hierarchy_tree(backend, omega)) == _rescan_merges(backend, omega)


def test_incremental_tree_breaks_exact_ties_like_rescan():
    # a uniform 4x4 grid at omega=0: most steps choose among tied pairs
    backend = make_backend(16, grid_graph(4, 4).edges)
    merges = _rescan_merges(backend, 0.0)
    rewards = [r for _, _, r in merges]
    assert len(set(rewards)) < len(rewards)
    assert _tree_merges(build_hierarchy_tree(backend, 0.0)) == merges


@given(
    n=st.integers(2, 14),
    seed=st.integers(0, 2**31),
    extra=st.sampled_from((0.0, 0.2, 0.5)),
    k=st.integers(2, 6),
    n_cnot=st.integers(0, 12),
)
def test_allocation_pressure_matches_matrix_reference(n, seed, extra, k, n_cnot):
    # arbitrary placements, often split across the chip: None must agree too
    backend = _random_chip(n, seed, extra)
    k = min(k, n)
    program = random_program("placed", k, n_cnot, 2, seed)
    placed = random.Random(seed).sample(range(n), k)
    sigma = dict(enumerate(placed))
    assert _allocation_pressure(program, sigma, backend) == _matrix_pressure(program, sigma, backend)


def test_allocation_pressure_none_on_split_placement():
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3)])
    program = random_program("split", 2, 3, 0, seed=1)
    split = {0: 0, 1: 3}
    assert _allocation_pressure(program, split, backend) is None is _matrix_pressure(program, split, backend)
    joined = {0: 0, 1: 1}
    assert _allocation_pressure(program, joined, backend) == 0 == _matrix_pressure(program, joined, backend)


@given(
    n=st.integers(6, 20),
    seed=st.integers(0, 2**31),
    extra=st.sampled_from((0.0, 0.1, 0.3)),
    k=st.integers(3, 6),
    spare=st.integers(0, 3),
    n_cnot=st.integers(2, 15),
)
def test_allocate_matches_matrix_reference_when_fallback_fires(n, seed, extra, k, spare, n_cnot):
    # sparse random regions: anchors often have no free neighbour in them
    backend = _random_chip(n, seed, extra)
    k = min(k, n)
    program = random_program("alloc", k, n_cnot, 3, seed)
    region = set(random.Random(seed).sample(range(n), min(n, k + spare)))
    fired = []
    expected = _matrix_allocate(program, region, backend, fired)
    assume(fired)
    # The same chip and region built in another insertion order: allocate
    # iterates sets, and no choice may depend on their order.
    rng = random.Random(seed)
    edges = list(backend.graph.edges)
    rng.shuffle(edges)
    shuffled = Backend(CouplingGraph(n, frozenset(edges)), backend.calib, backend.name)
    shuffled_region = set(rng.sample(sorted(region), len(region)))
    assert allocate(program, region, backend) == expected == allocate(program, shuffled_region, shuffled)


class _GuardedEdges(frozenset):
    """A chip's edge set that refuses iteration once armed; ``in`` and
    ``len`` still work."""

    armed = False

    def __iter__(self):
        if self.armed:
            raise AssertionError("a region read iterated the chip's edge list")
        return super().__iter__()


def _guarded_twin(backend):
    """``backend`` on a guarded copy of its edge set, with the adjacency, the
    calibration check and the dendrogram already built (they read every
    edge); arm ``twin.graph.edges`` before the region reads."""
    twin = Backend(CouplingGraph(backend.n_qubits, _GuardedEdges(backend.graph.edges)), backend.calib, backend.name)
    twin.graph.neighbors(0)
    return twin, build_hierarchy_tree(twin)


def _schedule(programs, tree, backend):
    return schedule_tasks([Job(i, p) for i, p in enumerate(programs)], tree, backend, max_colocate=3)


def test_region_reads_never_iterate_the_chip_edge_list(melbourne):
    # every bundled chip and an 8x8 grid: allocate (whole chip as region) for
    # every bundled program that fits, partitions of pairs, the baseline
    # partitioner, region means, merge rewards and a schedule, each read
    # after the chip's edge list refuses iteration
    programs = [fixtures.load_benchmark(name) for name in fixtures.benchmark_names()]
    chips = [fixtures.load_fixture_backend(chip) for chip in fixtures.backend_names()]
    for backend in chips + [random_backend(grid_graph(8, 8), melbourne.calib, seed=5)]:
        region = set(range(backend.n_qubits))
        fits = [p for p in programs if p.n_qubits <= backend.n_qubits]
        pairs = [fits[i : i + 2] for i in range(0, len(fits) - 1, 2)]
        tree = build_hierarchy_tree(backend)
        placed = [a for pair in pairs for a in partition_qubits(tree, pair, backend).assignments]
        expected = (
            [_matrix_allocate(p, region, backend, []) for p in fits],
            [partition_qubits(tree, pair, backend) for pair in pairs],
            [frp_partition(pair, backend) for pair in pairs],
            [(_region_avg_fidelity(a.qubits, backend), epst(a.program, a.qubits, backend)) for a in placed],
            _schedule(fits, tree, backend),
        )
        twin, twin_tree = _guarded_twin(backend)
        twin.graph.edges.armed = True
        assert (
            [allocate(p, region, twin) for p in fits],
            [partition_qubits(twin_tree, pair, twin) for pair in pairs],
            [frp_partition(pair, twin) for pair in pairs],
            [(_region_avg_fidelity(a.qubits, twin), epst(a.program, a.qubits, twin)) for a in placed],
            _schedule(fits, twin_tree, twin),
        ) == expected
        for node in twin_tree.internal_nodes():
            assert merge_reward(node.left, node.right, twin, twin_tree.omega) == node.reward


def _insertion_records(backend, seed):
    """Bit-exact records of every read that averages floats over a region's
    links: dendrogram rewards and merge order, region means and EPSTs on
    random connected regions, partitions and a schedule."""
    tree = build_hierarchy_tree(backend)
    rng = random.Random(seed)
    regions = []
    for _ in range(12):
        region = {rng.randrange(backend.n_qubits)}
        for _ in range(rng.randint(1, min(16, backend.n_qubits - 1))):
            region.add(rng.choice(sorted({n for q in region for n in backend.graph.neighbors(q)} - region)))
        regions.append(region)
    program = random_program("p2", 2, 5, 3, seed)
    queue = [fixtures.load_benchmark(n) for n in rng.sample(fixtures.benchmark_names(), 6)]
    queue = [p for p in queue if p.n_qubits <= backend.n_qubits]
    return (
        sorted((n.merge_step, sorted(n.qubits), n.reward) for n in tree.internal_nodes()),
        [(_region_avg_fidelity(r, backend), epst(program, r, backend)) for r in regions],
        [partition_qubits(tree, queue[i : i + 3], backend) for i in range(0, len(queue), 3)],
        _schedule(queue, tree, backend),
    )


@pytest.mark.parametrize("chip", ["random", "grid8x8", "tokyo20"])
def test_no_result_depends_on_the_order_a_chip_lists_its_edges(chip, melbourne, tokyo20):
    # the same chip and calibration rebuilt from its edges reversed and in
    # shuffled insertion order gives bit-identical floats and decisions
    for seed in range(4):
        if chip == "random":
            topology = random_graph(12 + 3 * seed, seed)
        else:
            topology = grid_graph(8, 8) if chip == "grid8x8" else tokyo20.graph
        backend = random_backend(topology, melbourne.calib, seed=seed)
        expected = _insertion_records(backend, seed)
        edges = sorted(topology.edges)
        rng = random.Random(seed)
        for order in [edges[::-1]] + [rng.sample(edges, len(edges)) for _ in range(2)]:
            rebuilt = Backend(CouplingGraph.from_pairs(topology.n_qubits, order), backend.calib, backend.name)
            assert _insertion_records(rebuilt, seed) == expected


@pytest.mark.parametrize("omega", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_omega_must_be_finite_and_non_negative(omega, london):
    with pytest.raises(ValueError, match="non-negative"):
        build_hierarchy_tree(london, omega=omega)


@pytest.mark.parametrize(
    "sigma",
    [{0: 0, 1: 0, 2: 1}, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 2, 3: 3}],
    ids=["not-injective", "misses-a-qubit", "extra-qubit"],
)
def test_assignment_refuses_a_sigma_that_is_not_a_placement(sigma):
    program = random_program("three", 3, 2, 1, seed=5)
    with pytest.raises(ValueError, match="injectively"):
        Assignment(program=program, sigma=sigma, avg_fidelity=0.9)
