"""Chip model: coupling graph, calibration data, hop counts and synthetic
backend generation.

Distances are unweighted hop counts. Noise awareness enters through the
partitioning reward and the fidelity estimates, never through distances, so
SWAP-count arithmetic stays exact. One breadth-first search over the graph's
cached adjacency, ``bfs_hops``, answers every distance question: it returns
the hop row of one source, a dict from each qubit the source reaches to its
hop count, optionally confined to a qubit subset. A qubit missing from the
row is unreachable. A caller that needs many sources builds one row per
source, and one that needs a few hops inside a small region never pays for
the whole chip. Everything here is immutable after construction and safe to
share across threads.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

Edge = tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


class UnreachableError(ValueError):
    """Raised when two qubits that must be joined have no path between them."""


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected connectivity of a chip's physical qubits."""

    n_qubits: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits):
                raise ValueError(f"edge ({a},{b}) out of range")
            if a > b:
                raise ValueError("edges must be stored as (low, high) pairs")

    @staticmethod
    def from_pairs(n_qubits: int, pairs) -> "CouplingGraph":
        return CouplingGraph(n_qubits, frozenset(_norm_edge(a, b) for a, b in pairs))

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        # Built on first use; not a dataclass field, so == and hash ignore it.
        adj: dict[int, list[int]] = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        return {q: tuple(sorted(nbs)) for q, nbs in adj.items()}

    def neighbors(self, q: int) -> list[int]:
        return list(self._adjacency.get(q, ()))

    def has_edge(self, a: int, b: int) -> bool:
        return _norm_edge(a, b) in self.edges

    def degree(self, q: int) -> int:
        return len(self.neighbors(q))

    def is_connected(self) -> bool:
        return self.n_qubits > 0 and len(bfs_hops(self, 0)) == self.n_qubits


@dataclass(frozen=True)
class Calibration:
    """Per-edge CNOT error rates plus per-qubit readout and one-qubit rates.

    Fidelity is always 1 - rate.
    """

    cnot_error: dict[Edge, float]
    readout_error: dict[int, float]
    oneq_error: dict[int, float]
    timestamp: str = ""

    def validate(self, graph: CouplingGraph):
        for e in graph.edges:
            if e not in self.cnot_error:
                raise ValueError(f"missing cnot_error for edge {e}")
        for q in range(graph.n_qubits):
            if q not in self.readout_error:
                raise ValueError(f"missing readout_error for qubit {q}")
            if q not in self.oneq_error:
                raise ValueError(f"missing oneq_error for qubit {q}")
        for label, rates in (
            ("cnot_error", self.cnot_error.values()),
            ("readout_error", self.readout_error.values()),
            ("oneq_error", self.oneq_error.values()),
        ):
            for r in rates:
                if not 0.0 <= r < 1.0:
                    raise ValueError(f"{label} rate {r} outside [0, 1)")

    def cnot_fidelity(self, a: int, b: int) -> float:
        return 1.0 - self.cnot_error[_norm_edge(a, b)]

    def readout_fidelity(self, q: int) -> float:
        return 1.0 - self.readout_error[q]

    def oneq_fidelity(self, q: int) -> float:
        return 1.0 - self.oneq_error[q]


@dataclass(frozen=True)
class Backend:
    """A chip: coupling graph plus one calibration snapshot."""

    graph: CouplingGraph
    calib: Calibration
    name: str = "backend"

    def __post_init__(self):
        self.calib.validate(self.graph)

    @property
    def n_qubits(self) -> int:
        return self.graph.n_qubits


def bfs_hops(graph: CouplingGraph, source: int, allowed: set[int] | None = None) -> dict[int, int]:
    """Hop counts from ``source`` to every qubit it reaches, by breadth-first
    search over the graph's cached adjacency.

    With ``allowed`` the search stays inside that qubit subset (the subgraph
    it induces); a source outside it reaches nothing. Qubits missing from the
    result are unreachable.
    """
    if allowed is not None and source not in allowed:
        return {}
    adjacency = graph._adjacency
    hops = {source: 0}
    queue = [source]
    for v in queue:  # the list grows as the search runs; it is the FIFO queue
        d = hops[v] + 1
        for w in adjacency.get(v, ()):
            if w not in hops and (allowed is None or w in allowed):
                hops[w] = d
                queue.append(w)
    return hops


# --- backend documents --------------------------------------------------------

_REQUIRED_FIELDS = ("n_qubits", "edges", "cnot_error", "readout_error", "oneq_error")


def _typed(value, kind, field: str):
    """``value`` if it is an instance of ``kind`` other than a bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"backend field {field!r} holds {value!r}, not a number of the expected type")
    return value


def load_backend(doc: dict) -> Backend:
    """Validate a backend description document (parsed JSON) into a Backend.

    Unknown extra fields (T1, T2, notes, ...) are accepted and ignored. Any
    malformed document raises ValueError naming the field at fault: missing
    required fields, values of the wrong type, ``cnot_error`` keys that are
    not edges or that name one edge twice, rate lists of the wrong length,
    disconnected graphs and out-of-range rates.
    """
    if not isinstance(doc, dict):
        raise ValueError("backend document must be a JSON object")
    for f in _REQUIRED_FIELDS:
        if f not in doc:
            raise ValueError(f"backend document missing required field {f!r}")
    n = _typed(doc["n_qubits"], int, "n_qubits")
    edges = doc["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, (list, tuple)) and len(e) == 2 for e in edges):
        raise ValueError("backend field 'edges' must be a list of [a, b] pairs")
    graph = CouplingGraph.from_pairs(n, [(_typed(a, int, "edges"), _typed(b, int, "edges")) for a, b in edges])
    if not graph.is_connected():
        raise ValueError("coupling graph is disconnected")
    if not isinstance(doc["cnot_error"], dict):
        raise ValueError("backend field 'cnot_error' must map \"a-b\" keys to rates")
    cnot_error: dict[Edge, float] = {}
    key_of: dict[Edge, str] = {}
    for key, rate in doc["cnot_error"].items():
        try:
            a, b = (int(x) for x in key.split("-"))
        except (AttributeError, ValueError):
            raise ValueError(f"backend field 'cnot_error' has key {key!r}, not of the form \"a-b\"") from None
        edge = _norm_edge(a, b)
        if edge not in graph.edges:
            raise ValueError(f"backend field 'cnot_error' has key {key!r}, which is not an edge")
        if edge in key_of:
            raise ValueError(f"backend field 'cnot_error' has keys {key_of[edge]!r} and {key!r} for one edge")
        key_of[edge] = key
        cnot_error[edge] = float(_typed(rate, (int, float), "cnot_error"))
    rate_fields = ("readout_error", "oneq_error")
    for f in rate_fields:
        if not isinstance(doc[f], list) or len(doc[f]) != n:
            raise ValueError(f"backend field {f!r} must list one rate per qubit ({n})")
    readout, oneq = ({q: float(_typed(r, (int, float), f)) for q, r in enumerate(doc[f])} for f in rate_fields)
    calib = Calibration(cnot_error, readout, oneq, timestamp=str(doc.get("timestamp", "")))
    return Backend(graph=graph, calib=calib, name=str(doc.get("name", "backend")))


def load_backend_file(path) -> Backend:
    return load_backend(json.loads(Path(path).read_text()))


def backend_to_doc(backend: Backend) -> dict:
    return {
        "name": backend.name,
        "n_qubits": backend.n_qubits,
        "edges": [list(e) for e in sorted(backend.graph.edges)],
        "cnot_error": {f"{a}-{b}": backend.calib.cnot_error[(a, b)] for a, b in sorted(backend.graph.edges)},
        "readout_error": [backend.calib.readout_error[q] for q in range(backend.n_qubits)],
        "oneq_error": [backend.calib.oneq_error[q] for q in range(backend.n_qubits)],
        "timestamp": backend.calib.timestamp,
    }


def random_backend(topology: CouplingGraph, base: Calibration, seed: int, name: str = "random") -> Backend:
    """Draw a synthetic calibration for ``topology``, uniformly per category
    within the min/max range observed in ``base``. Deterministic in ``seed``."""
    rng = random.Random(seed)

    def bounds(values) -> tuple[float, float]:
        vals = list(values)
        if not vals:
            raise ValueError("base calibration has an empty rate category")
        return min(vals), max(vals)

    c_lo, c_hi = bounds(base.cnot_error.values())
    r_lo, r_hi = bounds(base.readout_error.values())
    o_lo, o_hi = bounds(base.oneq_error.values())
    cnot = {e: rng.uniform(c_lo, c_hi) for e in sorted(topology.edges)}
    readout = {q: rng.uniform(r_lo, r_hi) for q in range(topology.n_qubits)}
    oneq = {q: rng.uniform(o_lo, o_hi) for q in range(topology.n_qubits)}
    calib = Calibration(cnot, readout, oneq, timestamp=f"synthetic-seed-{seed}")
    return Backend(graph=topology, calib=calib, name=name)
