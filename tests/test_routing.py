import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    make_backend,
    random_graph,
    random_program,
    ready_gates,
    reference_depth,
    reference_swap_score,
)
from qmultiprog import fixtures, routing
from qmultiprog.circuit import Gate, QuantumProgram, front_layer, parse_program
from qmultiprog.hardware import bfs_hops
from qmultiprog.partition import build_hierarchy_tree, frp_partition, partition_qubits
from qmultiprog.routing import (
    FREE,
    GateEvent,
    GlobalMapping,
    RoutingError,
    Schedule,
    SwapOp,
    UnroutableProgramError,
    _execute_compliant,
    _ProgramState,
    _classify,
    baseline_route,
    decompose,
    mapping_from_partition,
    obtain_swaps,
    swap_score,
    verify_equivalence,
    verify_schedule,
    xswap_route,
)


# --- mapping -----------------------------------------------------------------


def test_global_mapping_owner_and_swap():
    mapping = GlobalMapping([{0: 0, 1: 1}, {0: 3}], n_phys=4)
    assert mapping.owner_of(0) == 0
    assert mapping.owner_of(3) == 1
    assert mapping.owner_of(2) == FREE
    mapping.apply_swap(1, 2)  # move a logical qubit onto a free qubit
    assert mapping.phys(0, 1) == 2
    assert mapping.owner_of(1) == FREE
    mapping.apply_swap(2, 3)  # exchange occupants of two programs
    assert mapping.phys(0, 1) == 3
    assert mapping.phys(1, 0) == 2


def test_global_mapping_rejects_overlap():
    with pytest.raises(ValueError):
        GlobalMapping([{0: 0}, {0: 0}], n_phys=2)
    with pytest.raises(ValueError):
        GlobalMapping([{0: 0, 1: 0}], n_phys=2)


# --- heuristics ----------------------------------------------------------------


def test_obtain_swaps_crossed_grid_candidates():
    programs, mapping, backend = fixtures.shortcut_swap_instance()
    blocked = programs[0].gates[-1]
    keys = obtain_swaps([(0, blocked)], backend.graph, mapping)
    # edges incident to the blocked operands (phys 0 and 8), owners ignored
    assert keys == [(0, 1), (0, 3), (0, 4), (4, 8), (5, 8), (7, 8)]
    by_key = {k: _classify(mapping, *k) for k in keys}
    assert by_key[(0, 4)].swap_class == "inter"
    assert by_key[(0, 1)].swap_class == "intra"


def test_obtain_swaps_path_chip():
    backend = make_backend(3, [(0, 1), (1, 2)])
    program = parse_program("qreg q[2]; cx q[0],q[1];", name="p")
    mapping = GlobalMapping([{0: 0, 1: 2}], n_phys=3)
    swaps = obtain_swaps([(0, program.gates[0])], backend.graph, mapping)
    assert swaps == [(0, 1), (1, 2)]
    assert obtain_swaps([], backend.graph, mapping) == []


def test_score_prefers_shortcut_swap():
    programs, mapping, backend = fixtures.shortcut_swap_instance()
    graph = backend.graph
    full = {q: bfs_hops(graph, q) for q in range(graph.n_qubits)}
    own = []
    for i in range(2):
        allowed = mapping.region(i) | mapping.free_qubits()
        own.append({q: bfs_hops(graph, q, allowed) for q in allowed})
    blocked = programs[0].gates[-1]
    fronts = [[blocked], []]
    state = _ProgramState(0, programs[0])
    state.blocked = {blocked.id}
    terms = state.front_terms(mapping, full, own, gain_cap=backend.n_qubits)
    candidates = obtain_swaps([(0, blocked)], backend.graph, mapping)
    scores = {e: swap_score(e, terms, full) for e in candidates}
    assert scores == {
        e: reference_swap_score(e, fronts, mapping, full, own, gain_cap=backend.n_qubits)
        for e in candidates
    }
    # the two shortcut swaps on the 0-4-8 path win; ties resolve to (0, 4)
    assert scores[(0, 4)] == min(scores.values())
    assert scores[(0, 4)] == pytest.approx(scores[(4, 8)])
    assert all(scores[k] > scores[(0, 4)] for k in scores if k not in ((0, 4), (4, 8)))


# --- routers ---------------------------------------------------------------------


def test_boundary_swap_instance_regression():
    programs, mapping, backend = fixtures.boundary_swap_instance()
    joint = xswap_route(programs, mapping, backend)
    split = baseline_route(programs, mapping, backend)
    assert joint.swap_count == 1
    assert joint.swaps_by_class() == {"intra": 0, "inter": 1, "free": 0}
    assert split.swap_count == 2
    assert split.swaps_by_class() == {"intra": 2, "inter": 0, "free": 0}
    assert decompose(joint).stats["added_cnots"] == 3
    assert decompose(split).stats["added_cnots"] == 6


def test_shortcut_swap_instance_regression():
    programs, mapping, backend = fixtures.shortcut_swap_instance()
    joint = xswap_route(programs, mapping, backend)
    split = baseline_route(programs, mapping, backend)
    assert joint.swap_count == 1
    [swap] = joint.swaps()
    assert swap.key() == (0, 4)  # on the 2-hop shortcut path
    assert swap.swap_class == "inter"
    assert split.swap_count == 3
    assert all(s.swap_class == "intra" for s in split.swaps())


def test_adjacent_program_needs_no_swaps():
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3)])
    program = parse_program(
        "qreg q[4]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];", name="adj"
    )
    mapping = GlobalMapping([{i: i for i in range(4)}], n_phys=4)
    schedule = xswap_route([program], mapping, backend)
    assert schedule.swap_count == 0
    assert baseline_route([program], mapping, backend).swap_count == 0


def test_every_gate_scheduled_exactly_once():
    programs, mapping, backend = fixtures.boundary_swap_instance()
    schedule = xswap_route(programs, mapping, backend)
    seen = set()
    for event in schedule.events:
        if hasattr(event, "gate_id"):
            key = (event.program, event.gate_id)
            assert key not in seen
            seen.add(key)
    expected = {(i, g.id) for i, p in enumerate(programs) for g in p.gates}
    assert seen == expected


@pytest.mark.parametrize("router", [xswap_route, baseline_route])
def test_per_program_event_order_is_topological(router):
    for instance in (fixtures.boundary_swap_instance, fixtures.shortcut_swap_instance):
        programs, mapping, backend = instance()
        schedule = router(programs, mapping, backend)
        from qmultiprog.circuit import build_dag

        for i, program in enumerate(programs):
            order = [e.gate_id for e in schedule.events
                     if hasattr(e, "gate_id") and e.program == i]
            position = {gid: k for k, gid in enumerate(order)}
            dag = build_dag(program)
            for u, v in dag.edges:
                assert position[u] < position[v]


def test_schedules_are_deterministic():
    programs, mapping, backend = fixtures.shortcut_swap_instance()
    a = xswap_route(programs, mapping, backend).to_json()
    b = xswap_route(programs, mapping, backend).to_json()
    assert a == b
    c = baseline_route(programs, mapping, backend).to_json()
    d = baseline_route(programs, mapping, backend).to_json()
    assert c == d


def test_joint_router_never_beaten_on_fixtures():
    for instance in (fixtures.boundary_swap_instance, fixtures.shortcut_swap_instance):
        programs, mapping, backend = instance()
        joint = xswap_route(programs, mapping, backend)
        split = baseline_route(programs, mapping, backend)
        assert joint.swap_count <= split.swap_count


def test_routers_identical_when_region_covers_chip():
    backend = make_backend(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    program = random_program("whole", 5, 12, 6, seed=42)
    mapping = GlobalMapping([{i: i for i in range(5)}], n_phys=5)
    joint = xswap_route([program], mapping, backend)
    split = baseline_route([program], mapping, backend)
    assert [s.key() for s in joint.swaps()] == [s.key() for s in split.swaps()]
    assert joint.swap_count == split.swap_count


def test_lone_program_partial_region_dominance():
    # free qubits can only help the joint router
    backend = make_backend(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    program = random_program("part", 4, 10, 4, seed=43)
    mapping = GlobalMapping([{0: 0, 1: 1, 2: 2, 3: 3}], n_phys=6)
    joint = xswap_route([program], mapping, backend)
    split = baseline_route([program], mapping, backend)
    assert joint.swap_count <= split.swap_count


@pytest.mark.parametrize("router", [xswap_route, baseline_route])
def test_forced_walk_fallback_still_correct(router):
    # stall_limit=0 makes every blocked step take the deterministic
    # shortest-path walk instead of the scored candidates
    for instance in (fixtures.boundary_swap_instance, fixtures.shortcut_swap_instance):
        programs, mapping, backend = instance()
        schedule = router(programs, mapping, backend, stall_limit=0)
        seen = {(e.program, e.gate_id) for e in schedule.events if hasattr(e, "gate_id")}
        assert seen == {(i, g.id) for i, p in enumerate(programs) for g in p.gates}
        ok, _ = verify_schedule(schedule)
        assert ok
        again = router(programs, mapping, backend, stall_limit=0)
        assert schedule.to_json() == again.to_json()


def test_baseline_unroutable_region_reported():
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3)])
    program = parse_program("qreg q[2]; cx q[0],q[1];", name="gap")
    mapping = GlobalMapping([{0: 0, 1: 3}], n_phys=4)  # region {0,3} has no path
    with pytest.raises(UnroutableProgramError) as err:
        baseline_route([program], mapping, backend)
    assert "gap" in str(err.value)
    # the joint router routes it through the free middle qubits
    schedule = xswap_route([program], mapping, backend)
    assert schedule.swap_count > 0
    assert verify_schedule(schedule)[0]


def test_xswap_routes_programs_on_separate_parts_of_a_disconnected_chip():
    # load_backend rejects disconnected chips, so this one is built in code
    backend = make_backend(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    programs = [parse_program("qreg q[2]; cx q[0],q[1];", name=n) for n in ("left", "right")]
    sigmas = [{0: 0, 1: 2}, {0: 3, 1: 5}]
    for program, sigma, swap in zip(programs, sigmas, [(0, 1), (3, 4)]):
        alone = xswap_route([program], GlobalMapping([sigma], n_phys=6), backend)
        assert [s.key() for s in alone.swaps()] == [swap]
    schedule = xswap_route(programs, GlobalMapping(sigmas, n_phys=6), backend)
    assert [s.key() for s in schedule.swaps()] == [(0, 1), (3, 4)]
    assert decompose(schedule).stats["swaps"] == 2
    assert verify_schedule(schedule)[0]


def test_baseline_unreachable_noncritical_front_cnot_is_unroutable():
    # cx q[0],q[2] is critical (a later gate needs it); cx q[1],q[3] is a
    # front gate with no successor whose operands the region cannot connect
    backend = make_backend(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    program = parse_program("qreg q[4]; cx q[0],q[2]; cx q[0],q[2]; cx q[1],q[3];", name="gap")
    mapping = GlobalMapping([{0: 0, 1: 1, 2: 2, 3: 4}], n_phys=5)
    with pytest.raises(UnroutableProgramError) as err:
        baseline_route([program], mapping, backend)
    assert str(err.value) == "program 'gap' is unroutable: region [0, 1, 2, 4] cannot connect qubits 1 and 4"


# --- incremental frontier ------------------------------------------------------------


@st.composite
def _programs(draw):
    """Random programs over CNOTs, rotations, partial barriers and measures."""
    n = draw(st.integers(1, 5))
    gates = []
    for kind in draw(st.lists(st.sampled_from(["cx", "h", "u3", "barrier", "measure"]), max_size=40)):
        if kind == "cx":
            if n < 2:
                continue
            qubits = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        elif kind == "barrier":
            qubits = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        else:
            qubits = [draw(st.integers(0, n - 1))]
        params = (0.1, 0.2, 0.3) if kind == "u3" else ()
        gates.append(Gate(kind, tuple(qubits), params, id=len(gates)))
    return QuantumProgram("prop", n, tuple(gates))


@given(program=_programs(), data=st.data())
def test_incremental_frontier_matches_reference(program, data):
    # drive the router's per-program state through a random valid execution
    # order; after every step it must agree with the rescanning definitions
    state = _ProgramState(0, program)
    executed: set[int] = set()
    while True:
        assert sorted(state.ready) == ready_gates(state.dag, executed)
        assert {gid for gid in state.ready if program.gates[gid].is_cnot} == front_layer(state.dag, executed)
        assert state.executed == executed
        if not state.ready:
            break
        gid = data.draw(st.sampled_from(sorted(state.ready)))
        state.execute(gid)
        executed.add(gid)
    assert state.done() and len(executed) == len(program.gates)


@st.composite
def _colocations(draw):
    """One to three random programs placed on a random connected chip with
    zero to three free qubits. Programs of up to 7 qubits give front layers of
    three gates, whose per-layer bonus weights are inexact in binary."""
    programs = []
    for k in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            programs.append(draw(_programs()))
        else:
            n, cx, oneq = draw(st.integers(2, 7)), draw(st.integers(1, 30)), draw(st.integers(0, 10))
            programs.append(random_program(f"wide{k}", n, cx, oneq, seed=draw(st.integers(0, 10**6))))
    used = sum(p.n_qubits for p in programs)
    n_phys = max(2, used + draw(st.integers(0, 3)))
    graph = random_graph(n_phys, draw(st.integers(0, 10**6)), draw(st.sampled_from([0.0, 0.1, 0.3])))
    backend = make_backend(n_phys, graph.edges)
    return programs, _placed(programs, draw(st.permutations(range(n_phys)))), backend


def _placed(programs, slots):
    """The programs' logical qubits on consecutive physical qubits of ``slots``."""
    sigmas, k = [], 0
    for p in programs:
        sigmas.append({q: slots[k + q] for q in range(p.n_qubits)})
        k += p.n_qubits
    return GlobalMapping(sigmas, len(slots))


def _own_rows(mapping, graph):
    free = mapping.free_qubits()
    rows = []
    for i in range(len(mapping.sigmas)):
        allowed = free | mapping.region(i)
        rows.append({q: bfs_hops(graph, q, allowed) for q in allowed})
    return rows


def _checked_compliant_pass(states, mapping, graph, *args):
    """``_execute_compliant`` followed by the blocked-set invariant: the
    blocked gates are the rescanned front layer, all ready and all still
    non-adjacent (the pass left no executable gate behind)."""
    progress = _execute_compliant(states, mapping, graph, *args)
    for s in states:
        assert s.blocked == front_layer(s.dag, s.executed)
        assert s.blocked <= s.ready
        for gid in s.blocked:
            assert not graph.has_edge(*(mapping.phys(s.index, q) for q in s.program.gates[gid].qubits))
    return progress


def _walk_and_score(programs, mapping, graph, bonus, steps, pick):
    """Drive the router's state through compliant passes and SWAPs on the
    edges ``pick`` chooses. After every pass the blocked sets must hold the
    invariant and every edge must score exactly (==, not approx) as the
    rescanning reference does."""
    hops = {q: bfs_hops(graph, q) for q in range(graph.n_qubits)}
    states = [_ProgramState(i, p) for i, p in enumerate(programs)]
    edges = sorted(graph.edges)
    for _ in range(steps):
        _checked_compliant_pass(states, mapping, graph, [], [])
        own = _own_rows(mapping, graph) if bonus else None
        terms, fronts = [], []
        for s in states:
            fronts.append([s.program.gates[gid] for gid in sorted(front_layer(s.dag, s.executed))])
            terms += s.front_terms(mapping, hops, own, graph.n_qubits)
        for e in edges:
            assert swap_score(e, terms, hops) == reference_swap_score(e, fronts, mapping, hops, own, graph.n_qubits)
        a, b = pick(edges)
        for s in states:
            s.unblock(mapping, a, b)
        mapping.apply_swap(a, b)


@given(instance=_colocations(), bonus=st.booleans(), data=st.data())
def test_front_terms_and_blocked_set_match_rescans(instance, bonus, data):
    programs, mapping, backend = instance
    steps = data.draw(st.integers(1, 8))
    _walk_and_score(programs, mapping, backend.graph, bonus, steps, lambda edges: data.draw(st.sampled_from(edges)))


def test_front_terms_score_bit_exact_on_seeded_walks():
    # Summing a gate's hop count and bonus in another order changes the last
    # bit of a score on only a few of these walks (seeds 9, 145, 191, 199),
    # too rarely for the property test's draws to show.
    for seed in range(200):
        rng = random.Random(seed)
        programs = [
            random_program(f"w{k}", rng.randint(2, 7), rng.randint(1, 30), rng.randint(0, 10), rng.randrange(10**6))
            for k in range(rng.randint(1, 3))
        ]
        n_phys = sum(p.n_qubits for p in programs) + rng.randint(0, 3)
        graph = random_graph(n_phys, rng.randrange(10**6), rng.choice([0.0, 0.1, 0.3]))
        mapping = _placed(programs, rng.sample(range(n_phys), n_phys))
        _walk_and_score(programs, mapping, graph, True, 8, rng.choice)


def _check_routed(programs, mapping, backend, stall_limit=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_execute_compliant", _checked_compliant_pass)
        for router in (xswap_route, baseline_route):
            schedule = router(programs, mapping, backend, stall_limit=stall_limit)
            compiled = decompose(schedule)
            assert compiled.stats["depth"] == reference_depth(compiled.combined.gates)


@given(instance=_colocations(), stall_limit=st.sampled_from([None, 0]))
def test_random_schedules_keep_blocked_set_and_depth(instance, stall_limit):
    programs, mapping, backend = instance
    try:
        _check_routed(programs, mapping, backend, stall_limit)
    except UnroutableProgramError:
        pass  # the baseline's region may not connect a CNOT; xswap routed first


# --- golden schedules -----------------------------------------------------------------

# SHA-256 of Schedule.to_json() per instance, in the order
# (xswap, stall_limit=None), (xswap, 0), (baseline, None), (baseline, 0).
GOLDEN_SCHEDULES = {
    "boundary": (
        "0f265d554c9fd159a3c747b0c287b7800e137cef7a38d081d39ff5760ae67cbb",
        "9dde066fcb1ae174f54d1ac1baae356ca4d3ec14fd9aff51c2b2f656c4e88c65",
        "629d92ab43e51bcdfe334d9ad220ec7dd30f951c6ffb25ca73bb76c948e1b163",
        "1f8fd9837d7cba978732fc3333f22c9f28836e58cf51969eff86fd6db677b080",
    ),
    "shortcut": (
        "4697e7e8fc9ebfca0eb93b8927b82bdebba8fb35b102b9fae816ef88563e7f2b",
        "4697e7e8fc9ebfca0eb93b8927b82bdebba8fb35b102b9fae816ef88563e7f2b",
        "92eac97e22b79a7f29a9a35a2d4a8c1ad009a73c275fb212fb4d533dd0c1ba34",
        "92eac97e22b79a7f29a9a35a2d4a8c1ad009a73c275fb212fb4d533dd0c1ba34",
    ),
    "tokyo20-s0-frp": (
        "9279294d34f0aaf0104961c84318e76d7f2f773a880aa855808a0fb4c8dbc70a",
        "d889070951259229495506149a4c8167a7334cba7d462ee5faa01ad458f47b01",
        "3e5ccfb37ae15f8464481e557ea633ca8b08d1c9a8b0ac206343cb191084de39",
        "ee17dca4d2d3d92b2d9a465319858e8daa1330b74ceff163776c98048c0d28fe",
    ),
    "tokyo20-s0-cdap": (
        "1dd50d1e7b39b906331bd3d13749b50059e5031889f6ec15fef3dc0ae8be724d",
        "34353972cfa7bc6edffa4b18bce68bddc2486f9f2fce442e9369102bba21a8bd",
        "7dd0b04a374433780d27680fe7f9cf1f66d5addf4a9870886f1a85a2286e0ac6",
        "b47f88b99ccffc63230a9bfc77a73b1897649493b8acf8ed7cc36e57a435a5c4",
    ),
    "tokyo20-s1-frp": (
        "d15c0f9c196a91bd9e06aa5626383e6477d38963d474b3a9deb55a8c6d2fba06",
        "822b636cf189bbba88e42aeee35b60b1f4fd15d033c9f1041b8806a7b4abdeef",
        "d70a520028dbdf8b1122de0d5dc76a62a9f7ccb9e2382db4dfc084fae24c43e4",
        "9c2647bb5c8cd3f470952126e95743e311d4b88f96f8b95f4c4fb9e6e47428cc",
    ),
    "tokyo20-s1-cdap": (
        "f6ea5826d03dbb21784bcafb23022b4a41c3ea86a6323e1000db079eecb502bd",
        "2b7acfe2a9ec2305c0d85fba7269c5d6c0a6fe92c33a428f86e4d845813d775f",
        "2337e8b9fb84bac494fad814c21fb6d16ffb5eabc3173fd92242b4eee695561a",
        "8b36b93cd7821413e06fb8ef7a0ba1dbc2e9375170610ce0447786a80f8762a3",
    ),
    "tokyo20-s2-frp": (
        "4821ccac3d411dcc1f735a3fd2036f170860eaf50cb9bcba5a1262615c60517d",
        "28dd4c2262ed8e1c7ebf3e03790ac95b7a27b066156c2946a686cb906b686c22",
        "771419ca24a992ceee7345547e2372c9881951c384bfa2d53fe6b8240c7a981d",
        "a3257cfe1cb49f4cc3c8c3b76edc9c96076df98267b41a23fd1c12ec5171c2a1",
    ),
    "tokyo20-s2-cdap": (
        "16777f4e490c389e20c13cb11fb2880f808e721d181420aae95aaef2f54d0041",
        "42589617ffbfd789ad52cfa712ff38f93384ac409b5d434a1f77652ac57620f5",
        "1e5bb03bcafcc16773358630ccefa8e20719023d307e67bcc98ceb5c8c9b3d8d",
        "b17b7d72079694ee21e14b7d172f9f41e43280c1fe2a79241a98c09dfc6a0ad4",
    ),
    "melbourne-s0-frp": (
        "7a31cdf51e24b4c5cb603264d1370c2690c1f46467c3cab185c23867f736bfd5",
        "751a0172d724c36427c67a17d5f977729200b8bb3b59f6ea8594e9d3765eb5b7",
        "307dafa036e9b0a51ca656f1cd2f87c2ce07b1bc5bdb822b28c15760d3ead899",
        "af4846208c5ab47b3fc1d2f8e1e545f945929761d51754d615cb7599322b6d70",
    ),
    "melbourne-s0-cdap": (
        "090598c0c06f59dbb79ac9b39c92b9fe5269d3ebe17240eacee0cbf47dea6cd6",
        "6227eca13bac8b9d59c694f5432a7642be7d1848114eb1bae93dc76896f6af8d",
        "2ac68d8a9c8f8414658efa13b1ad73651d266cb4735ea3bc3d19de8249e06611",
        "4a9c6a3fb096eeaaa94408e8c0c0875be0b4049bbc5c47ad80eeca2d1861f94e",
    ),
    "melbourne-s1-frp": (
        "fb937ddc1c6e10d69382e6c52facfb0d6f38675cb3a3b3d3538f1547d3ea5f19",
        "115017eb70be3b27786e2a35066239ae6b1ebc2b80a674a5bd879df538c80d17",
        "b9adb9ba0deaf60260cfa9c3ebca834f0ef852ea0f52897172168ce65ece300f",
        "208c72309b759538870ecd9a05740871533bf1c0aa611e3aa85f9c8e9f716ff4",
    ),
    "melbourne-s1-cdap": (
        "fe1af9a5be6f1f49984a7a199b2b85d70a2950108047698cd46fe30b8fea750b",
        "bd1c014b429cb4c310a30d8621abf5fa7237c69e0ecff05a24f4ae5dc4dc38d8",
        "9221e140effa85b5df01ee06c7b7b4d4d7e1a6a08e26540e0271a1ef0c9b6724",
        "ab211ebe5bc6d9fd44a048648b53039f4eccc5e926eae7035081f95dc370d407",
    ),
    "melbourne-s2-frp": (
        "1c6903321d49753ebf6da753ff4de6c1e8d8f38f42896d2069bf7499501f5d5e",
        "65d201e30b38ae788562de7308ea34a337d0102456211deb7b270413b6eefd90",
        "5fb903f4fcccb31edc3542e9eab0bcbf4959126447280472c79fb831ab7955e6",
        "3f20ad0abc2a056a64fb30465db054e7559d4936c398f93a404e083302673966",
    ),
    "cross9-mixed": (
        "1d317eab96239b6a45606b2706489003045a91e320bc8473d23164fbfa5f0c28",
        "02219a48bd395a97a361f5a3251e883f4b45ae574c3984f13c933f312d17300b",
        "3c3840af3368b6282d56e624719794ccaf0fc917bf505be49740e5611878eac6",
        "8d8f305a27544373c18bb5a56d3f3e53a35a72851beaca4e7f6b42166b1eeeae",
    ),
    "tokyo20-deep-frp": (
        "93615d35e2326698995c095e75cdbea56daa8271bf9433ee7b524678ec6f35d6",
        "5750f926b77a27e997711df477e525a6401cd26fe63905573869686a5c67ca88",
        "067f8d3dcfe7fd0cb73a94eddaed7e7f8e176353349982b3495f045ef5f1549e",
        "d397d324b3bc6864d4d5a3c9eca70ef74be7b9de5e88b87101aab6fad2dec3d0",
    ),
    "melbourne-s2-cdap": (
        "fa13caca4cf12978c1c51058007d052b42f24efb9653cc88508c6add8c196991",
        "82ab173963f013d6c89fe6a0a53c379940690a4945625de037eef397c8f6784c",
        "c098e97427e8d586631e4186775813f8835a382781d588c1890ff67ffd07b324",
        "4f24ea88d578439b27c3e141a1e2928e1f5343ebfbd3e27fd17684582c8eb8a6",
    ),
}


def _mixed_program(name, n_qubits, n_cnot, n_1q, seed):
    """A random program with u3 rotations, partial barriers and measures; each
    qubit is measured right after its last use or at the very end."""
    rng = random.Random(seed)
    body = random_program(name, n_qubits, n_cnot, n_1q, seed=seed).gates
    last_use = {q: i for i, g in enumerate(body) for q in g.qubits}
    gates, deferred = [], [q for q in range(n_qubits) if q not in last_use]

    def add(kind, qubits, params=()):
        gates.append(Gate(kind, tuple(qubits), tuple(params), id=len(gates)))

    for i, g in enumerate(body):
        add(g.kind, g.qubits)
        if rng.random() < 0.2:
            add("u3", (rng.choice(g.qubits),), [round(rng.uniform(-3, 3), 3) for _ in range(3)])
        if rng.random() < 0.1:
            add("barrier", sorted(rng.sample(range(n_qubits), rng.randint(1, n_qubits))))
        for q in g.qubits:
            if last_use[q] == i:
                if rng.random() < 0.5:
                    add("measure", (q,))
                else:
                    deferred.append(q)
    add("barrier", range(n_qubits))
    for q in sorted(deferred):
        add("measure", (q,))
    return QuantumProgram(name, n_qubits, tuple(gates))


def _golden_instance(name):
    if name == "boundary":
        return fixtures.boundary_swap_instance()
    if name == "shortcut":
        return fixtures.shortcut_swap_instance()
    if name == "cross9-mixed":
        # The scattered layout of the pipeline stress test: the hub (phys 4) is free.
        backend = fixtures.load_fixture_backend("cross9")
        programs = [_mixed_program(f"mixed_{k}", n, 14, 8, seed=500 + k) for k, n in enumerate((3, 2, 3))]
        mapping = GlobalMapping([{0: 0, 1: 1, 2: 2}, {0: 3, 1: 6}, {0: 5, 1: 7, 2: 8}], n_phys=9)
        return programs, mapping, backend
    if name == "tokyo20-deep-frp":
        # Shaped like the route_deep benchmark workload, at 150 CNOTs per program.
        backend = fixtures.load_fixture_backend("tokyo20")
        programs = [random_program(f"deep_{k}", 6, 150, 75, seed=300 + k) for k in range(3)]
        partition = frp_partition(programs, backend)
        assert not partition.unassigned
        return programs, mapping_from_partition(partition, programs, backend.n_qubits), backend
    chip, seed, placer = name.split("-")
    seed = int(seed[1:])
    backend = fixtures.load_fixture_backend(chip)
    programs = [
        random_program(f"{chip}{seed}_{k}", n, 24, 12, seed=100 * seed + k)
        for k, n in enumerate((5, 4, 3))
    ]
    if placer == "frp":
        partition = frp_partition(programs, backend)
    else:
        partition = partition_qubits(build_hierarchy_tree(backend), programs, backend)
    placed = [p for p in programs if p not in partition.unassigned]
    return placed, mapping_from_partition(partition, placed, backend.n_qubits), backend


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEDULES))
def test_golden_schedule_digests(name):
    programs, mapping, backend = _golden_instance(name)
    digests = tuple(
        hashlib.sha256(router(programs, mapping, backend, stall_limit=stall).to_json().encode()).hexdigest()
        for router in (xswap_route, baseline_route)
        for stall in (None, 0)
    )
    assert digests == GOLDEN_SCHEDULES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEDULES))
def test_golden_schedules_keep_blocked_set_and_depth(name):
    programs, mapping, backend = _golden_instance(name)
    for stall in (None, 0):
        _check_routed(programs, mapping, backend, stall)


def test_golden_unroutable_message():
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3)])
    program = parse_program("qreg q[2]; cx q[0],q[1];", name="gap")
    mapping = GlobalMapping([{0: 0, 1: 3}], n_phys=4)
    with pytest.raises(UnroutableProgramError) as err:
        baseline_route([program], mapping, backend)
    assert str(err.value) == "program 'gap' is unroutable: region [0, 3] cannot connect qubits 0 and 3"


# --- decomposition ------------------------------------------------------------------


def test_decompose_single_swap_three_cnots():
    backend = make_backend(3, [(0, 1), (1, 2)])
    program = parse_program("qreg q[2]; cx q[0],q[1];", name="one")
    mapping = GlobalMapping([{0: 0, 1: 2}], n_phys=3)
    schedule = xswap_route([program], mapping, backend)
    assert schedule.swap_count == 1
    compiled = decompose(schedule)
    cnots = [g for g in compiled.combined.gates if g.kind == "cx"]
    assert len(cnots) == 4  # 3 from the swap + the program's own
    assert compiled.stats["post_gates"] == program.gate_count + 3


def test_decompose_stats_partition_swaps():
    programs, mapping, backend = fixtures.boundary_swap_instance()
    compiled = decompose(xswap_route(programs, mapping, backend))
    per = compiled.stats["per_program"]
    assert sum(p["swaps"] for p in per) == compiled.stats["swaps"]
    for p, program in zip(per, programs):
        assert p["post_gates"] == program.gate_count + 3 * p["swaps"]
    total = sum(p.gate_count for p in programs)
    assert compiled.stats["post_gates"] == total + 3 * compiled.stats["swaps"]


def test_decompose_rejects_corrupted_schedule():
    programs, mapping, backend = fixtures.boundary_swap_instance()
    schedule = xswap_route(programs, mapping, backend)
    # corrupt the final mapping: pretend a different permutation happened
    broken = schedule.final.clone()
    a, b = sorted(broken.sigmas[0])[:2]
    broken.sigmas[0][a], broken.sigmas[0][b] = broken.sigmas[0][b], broken.sigmas[0][a]
    from qmultiprog.routing import Schedule

    bad = Schedule(schedule.programs, schedule.events, schedule.initial, broken, backend)
    with pytest.raises(RoutingError):
        decompose(bad)


def _corrupt_swap_to_non_edge():
    programs, mapping, backend = fixtures.boundary_swap_instance()
    schedule = xswap_route(programs, mapping, backend)
    i, swap = next((i, e) for i, e in enumerate(schedule.events) if isinstance(e, SwapOp))
    a = swap.phys_a
    far = next(q for q in range(backend.n_qubits) if q != a and not backend.graph.has_edge(a, q))
    events = list(schedule.events)
    events[i] = dataclasses.replace(swap, phys_a=min(a, far), phys_b=max(a, far))
    return dataclasses.replace(schedule, events=tuple(events))


def _corrupt_cnot_to_non_adjacent():
    # consistent with the replay, but the CNOT's operands are two hops apart
    backend = make_backend(3, [(0, 1), (1, 2)])
    program = parse_program("qreg q[2]; cx q[0],q[1];", name="one")
    mapping = GlobalMapping([{0: 0, 1: 2}], n_phys=3)
    events = (GateEvent(0, 0, "cx", (0, 2)),)
    return Schedule((program,), events, mapping, mapping.clone(), backend)


def _corrupt_operands():
    # a CNOT's operands reversed: still a coupling edge, but not the replay
    programs, mapping, backend = fixtures.boundary_swap_instance()
    schedule = xswap_route(programs, mapping, backend)
    i, cx = next((i, e) for i, e in enumerate(schedule.events) if isinstance(e, GateEvent) and e.kind == "cx")
    events = list(schedule.events)
    events[i] = dataclasses.replace(cx, phys=cx.phys[::-1])
    return dataclasses.replace(schedule, events=tuple(events))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_swap_to_non_edge, "is not a coupling edge"),
        (_corrupt_cnot_to_non_adjacent, "non-adjacent"),
        (_corrupt_operands, "disagree with replayed mapping"),
    ],
)
def test_decompose_rejects_each_corruption(corrupt, message):
    with pytest.raises(RoutingError, match=message):
        decompose(corrupt())


def test_measures_remapped_through_final_layout():
    backend = make_backend(3, [(0, 1), (1, 2)])
    program = parse_program(
        "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];",
        name="meas",
    )
    mapping = GlobalMapping([{0: 0, 1: 2}], n_phys=3)
    schedule = xswap_route([program], mapping, backend)
    assert schedule.swap_count >= 1
    compiled = decompose(schedule)
    measures = [g for g in compiled.combined.gates if g.kind == "measure"]
    assert [g.qubits[0] for g in measures] == [
        schedule.final.phys(0, 0),
        schedule.final.phys(0, 1),
    ]
    # measures land at the very end of the compiled stream
    tail = compiled.combined.gates[-2:]
    assert all(g.kind == "measure" for g in tail)


# --- equivalence oracle ----------------------------------------------------------


@pytest.mark.parametrize("router", [xswap_route, baseline_route])
def test_equivalence_on_fixture_instances(router):
    for instance in (fixtures.boundary_swap_instance, fixtures.shortcut_swap_instance):
        programs, mapping, backend = instance()
        ok, tv = verify_schedule(router(programs, mapping, backend))
        assert ok
        assert tv <= 1e-9


def test_equivalence_mutation_negative_control():
    programs, mapping, backend = fixtures.boundary_swap_instance()
    schedule = xswap_route(programs, mapping, backend)
    compiled = decompose(schedule)
    gates = list(compiled.combined.gates)
    # drop the middle CNOT of the first swap triple: no longer a permutation
    swap_start = next(
        i for i in range(len(gates) - 2)
        if gates[i].kind == "cx" and gates[i + 1].kind == "cx"
        and gates[i].qubits == tuple(reversed(gates[i + 1].qubits))
    )
    del gates[swap_start + 1]
    corrupted = QuantumProgram(
        name="corrupted",
        n_qubits=compiled.combined.n_qubits,
        gates=tuple(Gate(g.kind, g.qubits, g.params, i) for i, g in enumerate(gates)),
    )
    layouts = [dict(s) for s in schedule.final.sigmas]
    ok, tv = verify_equivalence(programs, corrupted, layouts)
    assert not ok
    assert tv > 1e-6


def test_equivalence_identity_programs():
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3)])
    p1 = parse_program("qreg q[1];", name="id1")
    p2 = parse_program("qreg q[1];", name="id2")
    mapping = GlobalMapping([{0: 0}, {0: 3}], n_phys=4)
    schedule = xswap_route([p1, p2], mapping, backend)
    ok, tv = verify_schedule(schedule)
    assert ok and tv == 0.0


def test_equivalence_cap():
    wide = QuantumProgram("wide", 13, ())
    from qmultiprog.sim import QubitCapExceeded

    with pytest.raises(QubitCapExceeded):
        verify_equivalence([wide], wide, [{q: q for q in range(13)}], limit=12)


@pytest.mark.parametrize("seed", range(6))
def test_random_colocations_verify(seed):
    rng = random.Random(seed)
    backend = fixtures.load_fixture_backend("cross9")
    p1 = random_program(f"ra{seed}", 3, rng.randint(3, 8), rng.randint(2, 6), seed=seed)
    p2 = random_program(f"rb{seed}", 3, rng.randint(3, 8), rng.randint(2, 6), seed=seed + 50)
    mapping = GlobalMapping([{0: 0, 1: 1, 2: 2}, {0: 6, 1: 7, 2: 8}], n_phys=9)
    for router in (xswap_route, baseline_route):
        schedule = router([p1, p2], mapping, backend)
        ok, tv = verify_schedule(schedule)
        assert ok, f"{router.__name__} failed at tv={tv}"


def _with_measures_and_barrier(program):
    gates = list(program.gates)
    gates.append(Gate("barrier", tuple(range(program.n_qubits)), (), len(gates)))
    for q in range(program.n_qubits):
        gates.append(Gate("measure", (q,), (), len(gates)))
    return QuantumProgram(program.name + "_m", program.n_qubits, tuple(gates))


@pytest.mark.parametrize("seed", range(8))
def test_pipeline_stress_three_programs_with_measures(seed):
    rng = random.Random(1000 + seed)
    backend = fixtures.load_fixture_backend("cross9")
    programs = [
        _with_measures_and_barrier(
            random_program(f"s{seed}_{k}", sizes, rng.randint(2, 9), rng.randint(1, 5), seed=rng.randrange(1 << 30))
        )
        for k, sizes in enumerate((3, 2, 3))
    ]
    # scattered layout with one free qubit (phys 4, the hub)
    mapping = GlobalMapping(
        [{0: 0, 1: 1, 2: 2}, {0: 3, 1: 6}, {0: 5, 1: 7, 2: 8}], n_phys=9
    )
    for router in (xswap_route, baseline_route):
        schedule = router(programs, mapping, backend)
        compiled = decompose(schedule)
        measures = [g for g in compiled.combined.gates if g.kind == "measure"]
        assert len(measures) == 8
        ok, tv = verify_schedule(schedule)
        assert ok, f"{router.__name__} seed={seed} tv={tv}"
