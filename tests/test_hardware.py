import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import backend_to_doc, floyd_warshall, make_backend, random_graph
from qmultiprog import fixtures
from qmultiprog.hardware import (
    Backend,
    Calibration,
    CouplingGraph,
    bfs_hops,
    load_backend,
    random_backend,
)


def test_london_fixture_loads(london):
    assert london.n_qubits == 5
    assert len(london.graph.edges) == 4
    assert london.graph.has_edge(1, 3)
    assert not london.graph.has_edge(0, 2)


def test_tokyo_fixture_loads(tokyo20):
    assert tokyo20.n_qubits == 20
    assert len(tokyo20.graph.edges) == 43


def test_two_qubit_chip_distance():
    backend = make_backend(2, [(0, 1)])
    assert bfs_hops(backend.graph, 0) == {0: 0, 1: 1}


def _doc(n, edges, **overrides):
    doc = {
        "name": "t",
        "n_qubits": n,
        "edges": [list(e) for e in edges],
        "cnot_error": {f"{a}-{b}": 0.01 for a, b in edges},
        "readout_error": [0.02] * n,
        "oneq_error": [0.001] * n,
    }
    doc.update(overrides)
    return doc


def _respell(key):
    """Mangle: file the rate of edge 0-1 under ``key`` instead of "0-1"."""
    return lambda d: d["cnot_error"].update({key: d["cnot_error"].pop("0-1")})


def test_load_backend_accepts_extra_fields():
    doc = _doc(2, [(0, 1)], T1=[50.0, 60.0], T2=[40.0, 70.0], vendor="someone", timestamp="2019-06-01")
    backend = load_backend(doc)
    assert backend.n_qubits == 2


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda d: d.pop("cnot_error"), "missing required field"),
        (lambda d: d["cnot_error"].popitem(), "missing cnot_error"),
        # a valid document but for its graph: edge 1-2 and its rate both go
        (lambda d: (d.update(edges=[[0, 1]]), d["cnot_error"].pop("1-2")), "disconnected"),
        (lambda d: d.update(readout_error=[0.02, 1.5, 0.02]), "outside [0, 1)"),
        # a rate of exactly 1.0 is refused too: a gate that always fails
        (lambda d: d["cnot_error"].update({"0-1": 1.0}), "cnot_error rate 1.0 outside [0, 1)"),
        (lambda d: d.update(readout_error=[0.02, 1.0, 0.02]), "readout_error rate 1.0 outside [0, 1)"),
        (lambda d: d.update(oneq_error=[0.001, 0.001, 1.0]), "oneq_error rate 1.0 outside [0, 1)"),
        (lambda d: d.update(edges=[0, 1]), "'edges'"),
        (lambda d: d.update(edges=[[0, 1], [1, 2.0]]), "'edges'"),
        (lambda d: d.update(n_qubits="3"), "'n_qubits'"),
        # a chip without qubits is refused by its count, before any graph is built
        (
            lambda d: d.update(n_qubits=0, edges=[], cnot_error={}, readout_error=[], oneq_error=[]),
            "'n_qubits' holds 0",
        ),
        (lambda d: d.update(n_qubits=-2), "'n_qubits' holds -2"),
        (lambda d: d.update(cnot_error=[0.01, 0.01]), "'cnot_error'"),
        (lambda d: d["cnot_error"].update({"0-1": None}), "'cnot_error'"),
        (lambda d: d["cnot_error"].update({"0:1": 0.01}), "'cnot_error'"),
        (lambda d: d["cnot_error"].update({"0-2": 0.01}), "not an edge"),
        (lambda d: d["cnot_error"].update({"1-0": 0.5}), "keys '0-1' and '1-0' for one edge"),
        (lambda d: d.update(readout_error=5), "'readout_error'"),
        (lambda d: d.update(oneq_error=[0.001] * 4), "'oneq_error'"),
        (lambda d: d.update(oneq_error=[0.001, "0.001", 0.001]), "'oneq_error'"),
        (lambda d: d.clear(), "required field 'n_qubits'"),
        # another spelling of the "0-1" key: non-ASCII digits, spaces, signs
        (_respell("\u0660-\u0661"), "not of the form"),
        (_respell(" 0 - 1 "), "not of the form"),
        (_respell("+0-+1"), "not of the form"),
        # JSON true and false are no numbers, though a Python bool is an int
        (lambda d: d.update(n_qubits=True), "'n_qubits' holds True, not a number"),
        (lambda d: d.update(edges=[[0, 1], [True, 2]]), "'edges' holds True, not a number"),
        (lambda d: d["cnot_error"].update({"0-1": False}), "'cnot_error' holds False, not a number"),
        (lambda d: d.update(readout_error=[0.02, False, 0.02]), "'readout_error' holds False, not a number"),
        (lambda d: d.update(oneq_error=[0.001, 0.001, False]), "'oneq_error' holds False, not a number"),
    ],
)
def test_load_backend_rejections(mangle, fragment):
    doc = _doc(3, [(0, 1), (1, 2)])
    mangle(doc)
    with pytest.raises(ValueError) as err:
        load_backend(doc)
    assert fragment in str(err.value)


def test_load_backend_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        load_backend([1, 2])


def _mutations(doc):
    """Every path of a backend document (field, list item, map entry)."""
    for field, value in doc.items():
        yield (field,)
        if isinstance(value, list):
            yield from ((field, i) for i in range(len(value)))
        elif isinstance(value, dict):
            yield from ((field, k) for k in value)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)


@given(st.data())
def test_load_backend_fuzz_raises_only_value_error(data):
    doc = backend_to_doc(fixtures.load_fixture_backend(data.draw(st.sampled_from(["london", "grid2x3"]))))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_mutations(doc))))
        target = doc
        for key in path[:-1]:
            target = target[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete" and isinstance(target, dict):
            del target[path[-1]]
        elif action == "add" and isinstance(target[path[-1]], dict):
            target[path[-1]][data.draw(st.text(max_size=6))] = data.draw(_JSON)
        else:
            target[path[-1]] = data.draw(_JSON)
    try:
        load_backend(doc)
    except ValueError:
        pass


def test_backend_doc_round_trip(london):
    doc = backend_to_doc(london)
    again = load_backend(json.loads(json.dumps(doc)))
    assert again.graph.edges == london.graph.edges
    assert again.calib.cnot_error == london.calib.cnot_error
    assert again.calib.readout_error == london.calib.readout_error


@pytest.mark.parametrize("seed", range(12))
def test_bfs_matches_floyd_warshall(seed):
    # every source's row, whole chip or confined to a subset
    rng = random.Random(seed)
    graph = random_graph(rng.randint(2, 12), seed)
    allowed = None
    if seed % 3 == 0 and graph.n_qubits > 3:
        allowed = set(rng.sample(range(graph.n_qubits), k=graph.n_qubits - 2))
    oracle = floyd_warshall(graph, allowed)
    nodes = set(range(graph.n_qubits)) if allowed is None else allowed
    for a in range(graph.n_qubits):
        row = bfs_hops(graph, a, allowed)
        for b in range(graph.n_qubits):
            if a in nodes and b in nodes and oracle[(a, b)] != float("inf"):
                assert row[b] == oracle[(a, b)]
            else:
                assert b not in row


@given(
    n=st.integers(1, 14),
    seed=st.integers(0, 2**31),
    keep=st.sampled_from((1.0, 0.6)),
    restrict=st.booleans(),
)
def test_single_source_search_matches_floyd_warshall(n, seed, keep, restrict):
    # connected chips and chips that fell apart, whole or confined to a subset
    rng = random.Random(seed)
    full = random_graph(n, seed)
    graph = CouplingGraph(n, frozenset(e for e in full.edges if rng.random() < keep))
    allowed = set(rng.sample(range(n), rng.randint(0, n))) if restrict else None
    oracle = floyd_warshall(graph, allowed)
    source = rng.randrange(n)
    expected = {
        q: int(oracle[source, q])
        for q in range(n)
        if (source, q) in oracle and oracle[source, q] != float("inf")
    }
    assert bfs_hops(graph, source, allowed) == expected


def test_every_way_to_build_a_chip_refuses_a_disconnected_graph():
    doc = _doc(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(ValueError, match="coupling graph is disconnected"):
        load_backend(doc)
    graph = CouplingGraph.from_pairs(5, [(0, 1), (1, 2), (3, 4)])
    calib = make_backend(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).calib  # covers every edge of graph
    with pytest.raises(ValueError, match="coupling graph is disconnected"):
        Backend(graph, calib)
    with pytest.raises(ValueError, match="coupling graph is disconnected"):
        random_backend(graph, calib, seed=0)


@given(n=st.integers(1, 16), seed=st.integers(0, 2**31), extra=st.sampled_from((0.0, 0.2, 0.5)))
def test_chip_wide_hop_rows_of_a_backend_hold_every_qubit(n, seed, extra):
    # the joint router's rows and swap_score's bonus index them unguarded
    base = fixtures.load_fixture_backend("melbourne").calib
    graph = random_backend(random_graph(n, seed, extra), base, seed).graph
    for q in range(n):
        assert bfs_hops(graph, q).keys() == set(range(n))


@pytest.mark.parametrize("seed", range(12))
def test_adjacency_matches_edge_scan(seed):
    # neighbors/degree/is_connected read precomputed adjacency; check them,
    # and links on random qubit subsets, against a sorted scan of the edge
    # set, on connected graphs and on random subgraphs that may fall apart
    rng = random.Random(seed)
    full = random_graph(rng.randint(1, 12), seed)
    kept = frozenset(e for e in full.edges if rng.random() < 0.6)
    for graph in (full, CouplingGraph(full.n_qubits, kept)):
        for q in range(-1, graph.n_qubits + 1):
            scan = sorted([b for a, b in graph.edges if a == q] + [a for a, b in graph.edges if b == q])
            assert list(graph.neighbors(q)) == scan
            assert graph.degree(q) == len(scan)
        for _ in range(4):
            subset = {q for q in range(graph.n_qubits) if rng.random() < 0.5}
            assert graph.links(subset) == [e for e in sorted(graph.edges) if e[0] in subset and e[1] in subset]
        component = {0}
        while True:
            grown = component | {x for e in graph.edges if set(e) & component for x in e}
            if grown == component:
                break
            component = grown
        assert graph.is_connected() == (len(component) == graph.n_qubits)
        twin = CouplingGraph(graph.n_qubits, frozenset(graph.edges))
        assert twin == graph and hash(twin) == hash(graph) and repr(twin) == repr(graph)


@pytest.mark.parametrize("seed", range(6))
def test_every_edge_has_distance_one_and_restriction_monotone(seed):
    graph = random_graph(8, 100 + seed)
    full = {q: bfs_hops(graph, q) for q in range(8)}
    for a, b in graph.edges:
        assert full[a][b] == 1
    rng = random.Random(seed)
    allowed = set(rng.sample(range(8), k=6))
    for a in allowed:
        for b, d in bfs_hops(graph, a, allowed).items():
            assert d >= full[a][b]


def test_unreachable_marker_is_checked():
    # an unreachable qubit is missing from the row, so a lookup cannot
    # quietly read a placeholder as a hop count
    graph = CouplingGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    row = bfs_hops(graph, 0, {0, 1, 3})
    assert row == {0: 0, 1: 1}
    with pytest.raises(KeyError):
        row[3]


def test_crossed_grid_restriction_matches_narrative():
    _, mapping, backend = fixtures.shortcut_swap_instance()
    assert bfs_hops(backend.graph, 0)[8] == 2  # through the diagonal hub
    region = set(mapping.region(0))
    assert bfs_hops(backend.graph, 0, region)[8] == 4  # snake inside the region


def test_random_backend_deterministic(melbourne):
    a = random_backend(melbourne.graph, melbourne.calib, seed=7)
    b = random_backend(melbourne.graph, melbourne.calib, seed=7)
    assert a.calib.cnot_error == b.calib.cnot_error
    assert a.calib.readout_error == b.calib.readout_error
    c = random_backend(melbourne.graph, melbourne.calib, seed=8)
    assert c.calib.cnot_error != a.calib.cnot_error


def test_random_backend_respects_base_bounds(melbourne):
    lo, hi = min(melbourne.calib.cnot_error.values()), max(melbourne.calib.cnot_error.values())
    rlo, rhi = min(melbourne.calib.readout_error.values()), max(melbourne.calib.readout_error.values())
    for seed in range(100):
        drawn = random_backend(melbourne.graph, melbourne.calib, seed=seed)
        assert all(lo <= r <= hi for r in drawn.calib.cnot_error.values())
        assert all(rlo <= r <= rhi for r in drawn.calib.readout_error.values())


def test_random_backend_degenerate_range_collapses():
    base = make_backend(3, [(0, 1), (1, 2)], cnot=0.01).calib
    drawn = random_backend(CouplingGraph.from_pairs(2, [(0, 1)]), base, seed=0)
    assert drawn.calib.cnot_error[(0, 1)] == pytest.approx(0.01)


def test_random_backend_empty_base_rejected():
    empty = Calibration({}, {0: 0.1}, {0: 0.001})
    with pytest.raises(ValueError):
        random_backend(CouplingGraph.from_pairs(2, [(0, 1)]), empty, seed=0)
