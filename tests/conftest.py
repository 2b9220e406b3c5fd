import hashlib
import json
import random

import pytest
from hypothesis import settings

from qmultiprog import fixtures
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
    return Backend(graph=graph, calib=Calibration(cnot_map, ro_map, oneq_map, "test"), name=name)


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


def ready_gates(dag, executed):
    """Reference frontier: all pending gates (any kind) whose predecessors are
    executed, in id order, rescanning every gate; the routers keep the same
    set incrementally as gates execute."""
    return [g.id for g in dag.program.gates if g.id not in executed and dag.predecessors[g.id] <= executed]


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
        "timestamp": backend.calib.timestamp,
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
            [a.program.name, sorted(a.qubits), a.avg_fidelity, sorted(a.mapping.sigma.items())]
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
