import hashlib
import json
import random

import pytest
from hypothesis import assume, given, strategies as st

from conftest import make_backend, random_graph, random_program
from qmultiprog import fixtures
from qmultiprog.hardware import CouplingGraph, random_backend
from qmultiprog.partition import (
    UNMERGEABLE,
    HierarchyNode,
    allocate,
    average_redundancy,
    build_hierarchy_tree,
    frp_partition,
    max_redundant_qubits,
    merge_reward,
    modularity,
    partition_qubits,
    program_order,
    PartitionError,
    _allocation_pressure,
    _region_avg_fidelity,
)


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


def test_tree_clone_is_independent(london):
    tree = build_hierarchy_tree(london)
    clone = tree.clone()
    clone.root.alive.discard(0)
    assert 0 in tree.root.alive
    assert _tree_shape(clone) == _tree_shape(tree)


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
    # the climb only tops out at the root; one redundant qubit stays alive
    alive = set(tree.root.alive)
    assert len(alive) == 1
    assert alive.isdisjoint(assignment.qubits)


def test_partition_rejects_duplicate_program_objects(london):
    tree = build_hierarchy_tree(london)
    program = random_program("twice", 2, 2, 1, seed=44)
    with pytest.raises(PartitionError, match="distinct object"):
        partition_qubits(tree, [program, program], london)


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


def reachable_candidates(tree, need):
    """Independent climb: first node with enough alive qubits above each leaf."""
    found = {}
    for q in sorted(tree.leaves):
        node = tree.leaves[q]
        while node is not None and len(node.alive) < need:
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
    partition = partition_qubits(tree.clone(), programs, backend)

    work = tree.clone()
    for program in program_order(programs):
        best = None
        for node in reachable_candidates(work, program.n_qubits):
            trial = allocate(program, set(node.alive), backend)
            pressure = _allocation_pressure(trial, backend)
            if pressure is None:
                continue
            used = tuple(sorted(trial.sigma.values()))
            key = (pressure, -_region_avg_fidelity(set(used), backend), used)
            if best is None or key < best[0]:
                best = (key, trial)
        assignment = next(a for a in partition.assignments if a.program is program)
        assert frozenset(best[1].sigma.values()) == assignment.qubits
        assert assignment.avg_fidelity == pytest.approx(-best[0][1])
        for q in assignment.qubits:
            node = work.leaves[q]
            while node is not None:
                node.alive.discard(q)
                node = node.parent


# --- allocation ----------------------------------------------------------------------


def test_allocate_single_cnot_orientation_tie():
    backend = make_backend(2, [(0, 1)])
    program = random_program("tiny", 2, 1, 0, seed=0)
    mapping = allocate(program, {0, 1}, backend)
    assert mapping.sigma[0] == 0 and mapping.sigma[1] == 1


def test_allocate_heaviest_pair_on_most_reliable_edge():
    backend = make_backend(
        4, [(0, 1), (1, 2), (2, 3)],
        cnot={(0, 1): 0.05, (1, 2): 0.004, (2, 3): 0.03},
    )
    program = random_program("pair", 2, 4, 2, seed=8)
    mapping = allocate(program, {0, 1, 2, 3}, backend)
    assert set(mapping.sigma.values()) == {1, 2}


def test_allocate_deterministic(tokyo20):
    program = random_program("det", 4, 9, 5, seed=9)
    region = set(range(10))
    a = allocate(program, region, tokyo20)
    b = allocate(program, region, tokyo20)
    assert a.sigma == b.sigma


def test_allocate_isolated_qubits_fill_by_readout():
    backend = make_backend(
        4, [(0, 1), (1, 2), (2, 3)],
        readout={0: 0.09, 1: 0.01, 2: 0.02, 3: 0.002},
    )
    program = random_program("lonely", 2, 0, 3, seed=10)  # no CNOTs at all
    mapping = allocate(program, {0, 1, 2, 3}, backend)
    assert set(mapping.sigma.values()) == {3, 1}  # two best readout qubits
    assert mapping.sigma[0] == 3  # logical 0 gets the very best


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
    mapping = allocate(program, {0, 1, 2, 3}, backend)
    assert set(mapping.sigma.values()) == {0, 1, 2}


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

        assert pressure(a.mapping, tokyo20) is not None


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
