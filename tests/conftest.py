import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import settings

from qmultiprog import fixtures, sim
from qmultiprog.circuit import Gate, QuantumProgram
from qmultiprog.hardware import Backend, Calibration, CouplingGraph

# Property tests replay the same examples on every run, never fail on timing
# and keep no example database between runs.
settings.register_profile("qmultiprog", derandomize=True, deadline=None, database=None)
settings.load_profile("qmultiprog")


def make_backend(n, pairs, cnot=0.02, readout=0.03, oneq=0.001, name="chip"):
    """Backend with uniform (or per-item dict) calibration over given edges."""
    graph = CouplingGraph.from_pairs(n, pairs)
    cnot_map = {e: cnot for e in graph.edges} if not isinstance(cnot, dict) else dict(cnot)
    ro_map = {q: readout for q in range(n)} if not isinstance(readout, dict) else dict(readout)
    oneq_map = {q: oneq for q in range(n)} if not isinstance(oneq, dict) else dict(oneq)
    return Backend(graph=graph, calib=Calibration(cnot_map, ro_map, oneq_map), name=name)


def random_program(name, n_qubits, n_cnot, n_1q, seed):
    """Seeded random circuit over the supported gate alphabet."""
    rng = random.Random(seed)
    kinds = ["h", "t", "tdg", "x", "s"]
    gates = []
    cx, oneq = n_cnot, n_1q
    while cx or oneq:
        if rng.randrange(cx + oneq) < cx:
            a = rng.randrange(n_qubits)
            b = rng.randrange(n_qubits - 1)
            if b >= a:
                b += 1
            gates.append(Gate("cx", (a, b), (), id=len(gates)))
            cx -= 1
        else:
            gates.append(Gate(rng.choice(kinds), (rng.randrange(n_qubits),), (), id=len(gates)))
            oneq -= 1
    return QuantumProgram(name=name, n_qubits=n_qubits, gates=tuple(gates))


def random_graph(n, seed, extra_edge_prob=0.3):
    """Connected random graph on n nodes (spanning tree plus extras)."""
    rng = random.Random(seed)
    nodes = list(range(n))
    rng.shuffle(nodes)
    pairs = set()
    for i in range(1, n):
        a = nodes[i]
        b = nodes[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in pairs and rng.random() < extra_edge_prob:
                pairs.add((a, b))
    return CouplingGraph.from_pairs(n, pairs)


@pytest.fixture(scope="session")
def london():
    return fixtures.load_fixture_backend("london")


@pytest.fixture(scope="session")
def tokyo20():
    return fixtures.load_fixture_backend("tokyo20")


@pytest.fixture(scope="session")
def melbourne():
    return fixtures.load_fixture_backend("melbourne")


# The ten bundled benchmark circuits (the four routing-fixture circuits are
# test scaffolding, not benchmarks).
BUNDLED = (
    "3_17_13", "4mod5-v1_22", "alu-v0_27", "bv_n3", "bv_n4",
    "decod24-v2_43", "fredkin_3", "mod5mils_65", "peres_3", "toffoli_3",
)


def brute_force_edges(program):
    """Independent oracle for program order: for every non-barrier gate, scan
    backwards for the nearest prior non-barrier gate on each of its qubits.
    Returns the dependency edges (u, v)."""
    edges = set()
    gates = [g for g in program.gates]
    for v in gates:
        if v.kind == "barrier":
            continue
        for q in v.qubits:
            for u in reversed(gates[: v.id]):
                if u.kind != "barrier" and q in u.qubits:
                    edges.add((u.id, v.id))
                    break
    return edges


def ready_gates(program, executed):
    """Reference frontier: all pending gates (any kind) whose predecessors in
    ``brute_force_edges`` are executed, in id order, rescanning every gate;
    the routers keep the same set incrementally as gates execute."""
    edges = brute_force_edges(program)
    return [
        g.id for g in program.gates
        if g.id not in executed and all(u in executed for u, v in edges if v == g.id)
    ]


def front_layer(program, executed):
    """Reference front layer: the ready CNOT gates, rescanning every gate.
    After each compliant pass a router's blocked gates are exactly this set."""
    return {gid for gid in ready_gates(program, executed) if program.gates[gid].kind == "cx"}


def critical_reference(program, front):
    """Reference critical gates: the gates of ``front`` that some gate
    depends on in ``brute_force_edges``, or all of ``front`` when none does."""
    edges = brute_force_edges(program)
    return {u for u, _ in edges if u in front} or set(front)


def critical_of(state, front):
    """The gates whose operand pairs ``_ProgramState.front`` returns to
    resolve, in that order, with ``front`` blocked on the identity layout of
    a chip whose qubits are all one hop apart."""
    gates, n = state.program.gates, state.program.n_qubits
    state.blocked = {gid: gates[gid].qubits for gid in front}
    hops = {q: {r: int(q != r) for r in range(n)} for q in range(n)}
    _, pairs = state.front(n, hops)
    gid_of = {pair: gid for gid, pair in state.blocked.items()}
    return [gid_of[pair] for pair in pairs]


def with_measures_and_barriers(program, seed):
    """The program with barriers spliced in at random places, one naming a
    qubit twice, and every qubit measured once at the end, in random order."""
    rng = random.Random(seed)
    n = program.n_qubits
    ops = [(g.kind, g.qubits) for g in program.gates]
    for _ in range(3):
        ops.insert(rng.randrange(len(ops) + 1), ("barrier", tuple(rng.sample(range(n), rng.randint(1, n)))))
    q = rng.randrange(n)
    ops.insert(rng.randrange(len(ops) + 1), ("barrier", (q, rng.randrange(n), q)))
    ops += [("measure", (q,)) for q in rng.sample(range(n), n)]
    gates = tuple(Gate(kind, qubits, (), i) for i, (kind, qubits) in enumerate(ops))
    return QuantumProgram(program.name, n, gates)


def underflow_instance():
    """Two 3-qubit programs of 400 CNOTs each on a 6-qubit line chip whose
    every CNOT fails with rate 0.9: each program's estimated success rate,
    a product of fidelities, underflows to 0.0 on any region."""
    backend = make_backend(6, [(q, q + 1) for q in range(5)], cnot=0.9, name="line6")
    gates = tuple(Gate("cx", (g % 3, (g + 1) % 3), (), g) for g in range(400))
    return [QuantumProgram(name, 3, gates) for name in ("deep_a", "deep_b")], backend


def noisy_output_distribution(program, backend):
    """Exact outcome distribution of the whole register under the failure
    model, from the package's density kernel with every qubit simulated."""
    return sim._exact_distribution(sim._noisy_ops(program, backend), list(range(program.n_qubits)), backend)


def reference_active_qubits(program, layouts):
    """The qubits of a compiled circuit that a unitary gate touches or a
    final layout names, ascending: a superset of every layout's light cone,
    and the most any simulation of the circuit could need."""
    gate_qubits = {q for g in program.gates if g.kind not in ("measure", "barrier") for q in g.qubits}
    return sorted(gate_qubits | {q for layout in layouts for q in layout.values()})


def reference_light_cone(program, qubits):
    """Reference backward light cone: walking the gates by index from the
    last, a unitary gate with an operand in the cone joins it and adds its
    operands. Returns the cone's qubits in ascending order and its gates in
    program order."""
    cone = set(qubits)
    gates = []
    for i in range(len(program.gates) - 1, -1, -1):
        g = program.gates[i]
        if g.kind in ("measure", "barrier"):
            continue
        if any(q in cone for q in g.qubits):
            cone |= set(g.qubits)
            gates.insert(0, g)
    return sorted(cone), gates


def reference_hits(outcomes, keep, modal):
    """Reference readout of sampled shots: how many register outcomes spell
    ``modal`` on ``keep`` (bit j from qubit keep[j]), extracted bit by bit."""
    bits = np.zeros_like(outcomes)
    for j, q in enumerate(keep):
        bits |= ((outcomes >> q) & 1) << j
    return int(np.count_nonzero(bits == modal))


def backend_to_doc(backend):
    """The loader's document for a backend: ``load_backend(backend_to_doc(b))``
    rebuilds ``b``."""
    return {
        "name": backend.name,
        "n_qubits": backend.n_qubits,
        "edges": [list(e) for e in sorted(backend.graph.edges)],
        "cnot_error": {f"{a}-{b}": backend.calib.cnot_error[(a, b)] for a, b in sorted(backend.graph.edges)},
        "readout_error": [backend.calib.readout_error[q] for q in range(backend.n_qubits)],
        "oneq_error": [backend.calib.oneq_error[q] for q in range(backend.n_qubits)],
    }


def floyd_warshall(graph, allowed=None):
    """Independent all-pairs oracle."""
    nodes = set(range(graph.n_qubits)) if allowed is None else set(allowed)
    inf = float("inf")
    dist = {(a, b): (0 if a == b else inf) for a in nodes for b in nodes}
    for a, b in graph.edges:
        if a in nodes and b in nodes:
            dist[(a, b)] = dist[(b, a)] = 1
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if dist[(i, k)] + dist[(k, j)] < dist[(i, j)]:
                    dist[(i, j)] = dist[(i, k)] + dist[(k, j)]
    return dist


def grid_graph(rows, cols):
    """Rectangular nearest-neighbour grid, qubits numbered row by row."""
    pairs = [(q, q + 1) for q in range(rows * cols) if q % cols != cols - 1]
    pairs += [(q, q + cols) for q in range((rows - 1) * cols)]
    return CouplingGraph.from_pairs(rows * cols, pairs)


def partition_digest(partition):
    """Short hash of a partition's regions, fidelities, placements and
    unassigned programs, by program name."""
    record = {
        "assigned": [
            [a.program.name, sorted(a.qubits), a.avg_fidelity, sorted(a.sigma.items())]
            for a in partition.assignments
        ],
        "unassigned": [p.name for p in partition.unassigned],
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def grid_queue(seed):
    """Every bundled circuit once plus two repeats (parsed again, so each is
    its own program object), in seeded order."""
    rng = random.Random(seed)
    names = list(BUNDLED) + rng.sample(BUNDLED, 2)
    rng.shuffle(names)
    return [fixtures.load_benchmark(n) for n in names]


def reference_swap_score(edge, fronts, mapping, hops, own_hops=None, gain_cap=0):
    """Reference SWAP score, rescanning every front gate for each candidate:
    ``fronts[i]`` lists program i's front-layer CNOTs in gate order and
    ``own_hops[i]`` its rows confined to its region plus the free qubits. The
    routers build each gate's terms once per step and must score every
    candidate exactly (bit for bit) as this does."""
    a, b = edge
    row_a, row_b = hops[a], hops[b]
    score = 0.0
    for i, front in enumerate(fronts):
        if not front:
            continue
        per_layer = 1.0 / len(front)
        sigma = mapping.sigmas[i]
        for g in front:
            pa, pb = sigma[g.qubits[0]], sigma[g.qubits[1]]
            qa = b if pa == a else a if pa == b else pa
            qb = b if pb == a else a if pb == b else pb
            score += hops[qa][qb]
            if own_hops is None:
                continue
            row = hops[pa]
            d = row[pb]
            on_path = (
                row.get(a, d) + 1 + row_b.get(pb, d) == d
                or row.get(b, d) + 1 + row_a.get(pb, d) == d
            )
            if on_path:
                restricted = own_hops[i][pa].get(pb)
                saved = gain_cap if restricted is None else restricted - d
                score -= per_layer * saved
    return score


def reference_depth(gates):
    """Reference depth: a second pass over a gate list, one level per qubit;
    a barrier lifts its qubits to their common level and adds none."""
    level = {}
    for g in gates:
        if g.kind == "barrier":
            sync = max((level.get(q, 0) for q in g.qubits), default=0)
            for q in g.qubits:
                level[q] = sync
            continue
        d = max(level.get(q, 0) for q in g.qubits) + 1
        for q in g.qubits:
            level[q] = d
    return max(level.values(), default=0)


def reference_blocks(tensor, axes):
    """Reference slice views: ``tensor`` with ``axes`` fixed, one view per
    basis index of those axes (axes[0] is the index's most significant bit),
    index tuples rebuilt on every call."""
    k = len(axes)
    views = []
    for b in range(2**k):
        idx = [slice(None)] * tensor.ndim
        for i, ax in enumerate(axes):
            idx[ax] = (b >> (k - 1 - i)) & 1
        views.append(tensor[(*idx, ...)])
    return views


def reference_contract(tensor, matrix, axes):
    """Reference kernel: in place, apply ``matrix`` to the given axes of
    ``tensor``, rescanning the matrix rows for nonzero entries on every call.
    The simulator plans each matrix once and must give bit-identical results:
    the same coefficients in the same order, every mixed slice computed from
    the old slices before any slice is written."""
    views = reference_blocks(tensor, axes)
    scales, mixed = [], []
    for b, row in enumerate(matrix):
        src = np.flatnonzero(row)
        if src.size == 1 and src[0] == b:
            if row[b] != 1:
                scales.append(b)
            continue
        out = views[src[0]].copy() if row[src[0]] == 1 else views[src[0]] * row[src[0]]
        for a in src[1:]:
            out += views[a] * row[a]
        mixed.append((b, out))
    for b in scales:
        views[b] *= matrix[b, b]
    for b, out in mixed:
        views[b][...] = out
