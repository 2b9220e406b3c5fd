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


def grid_queue(seed):
    """Every bundled circuit once plus two repeats (parsed again, so each is
    its own program object), in seeded order."""
    rng = random.Random(seed)
    names = list(BUNDLED) + rng.sample(BUNDLED, 2)
    rng.shuffle(names)
    return [fixtures.load_benchmark(n) for n in names]
