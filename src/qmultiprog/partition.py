"""Noise-aware chip partitioning for concurrent programs.

A dendrogram of qubit communities is built bottom-up over the coupling graph:
each merge maximizes a reward combining the modularity delta of the grouping
with the fidelity of the links crossing the merge. The delta is the closed
form e_ab/m - 2(d_a/2m)(d_b/2m) of Clauset, Newman and Moore (2004) over the
crossing links and the two sides' degree sums, and only communities that
share a link are scored. The reward table is kept across merges: each merge
rescores only the merged community against its linked neighbours. Programs
then claim regions by climbing the tree from its leaves, and an
interaction-graph greedy (greatest weighted edge first, over the program's
cached ``cnot_weights``) places logical qubits inside the claimed region.
Every hop count here comes from a single-source search (``bfs_hops``),
confined to the placed qubits where the region matters; nothing builds a
chip-wide distance matrix. A greedy utility-based partitioner is included as
the comparison baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import QuantumProgram
from .hardware import Backend, CouplingGraph, bfs_hops

DEFAULT_OMEGA = 0.95
UNMERGEABLE = float("-inf")


class PartitionError(ValueError):
    pass


class HierarchyNode:
    """A community of physical qubits; leaves hold exactly one qubit."""

    __slots__ = ("qubits", "left", "right", "parent", "merge_step", "reward")

    def __init__(self, qubits, left=None, right=None, merge_step=None, reward=None):
        self.qubits: frozenset[int] = frozenset(qubits)
        self.left: HierarchyNode | None = left
        self.right: HierarchyNode | None = right
        self.parent: HierarchyNode | None = None
        self.merge_step: int | None = merge_step
        self.reward: float | None = reward
        if left is not None:
            left.parent = self
        if right is not None:
            right.parent = self

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def __repr__(self):
        return f"HierarchyNode({sorted(self.qubits)})"


@dataclass(frozen=True)
class HierarchyTree:
    """Dendrogram over a backend's qubits, as produced by the merge loop.
    Nothing writes to it after the build, so one tree serves any number of
    partitioning calls."""

    root: HierarchyNode
    leaves: dict[int, HierarchyNode]
    omega: float

    def nodes(self) -> list[HierarchyNode]:
        out: list[HierarchyNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.extend([node.right, node.left])
        return out

    def internal_nodes(self) -> list[HierarchyNode]:
        return [n for n in self.nodes() if not n.is_leaf]


def modularity(grouping: dict[int, int], graph: CouplingGraph) -> float:
    """Newman modularity of a qubit grouping: sum over groups of
    (fraction of edges inside the group) - (fraction of edge endpoints in it)^2.
    """
    m = len(graph.edges)
    if m == 0:
        raise ValueError("modularity is undefined on an edgeless graph")
    inside: dict[int, int] = {}
    endpoints: dict[int, int] = {}
    for a, b in graph.edges:
        ga, gb = grouping[a], grouping[b]
        endpoints[ga] = endpoints.get(ga, 0) + 1
        endpoints[gb] = endpoints.get(gb, 0) + 1
        if ga == gb:
            inside[ga] = inside.get(ga, 0) + 1
    groups = set(grouping.values())
    return sum(inside.get(g, 0) / m - (endpoints.get(g, 0) / (2 * m)) ** 2 for g in groups)


def merge_reward(a: HierarchyNode, b: HierarchyNode, backend: Backend, omega: float) -> float:
    """Benefit of merging communities a and b: the closed-form modularity
    delta (``modularity`` after the merge minus before) plus omega * (mean CNOT
    fidelity of crossing links) * (mean readout fidelity of their endpoint
    qubits). Returns -inf when no link crosses (unmergeable).
    """
    graph = backend.graph
    crossing = sorted((min(x, y), max(x, y)) for x in a.qubits for y in graph.neighbors(x) if y in b.qubits)
    if not crossing:
        return UNMERGEABLE
    m = len(graph.edges)
    d_a = sum(map(graph.degree, a.qubits))
    d_b = sum(map(graph.degree, b.qubits))
    # One division of exact integers: mathematically equal deltas round alike.
    delta_q = (2 * m * len(crossing) - d_a * d_b) / (2 * m * m)
    link_fid = sum(backend.calib.cnot_fidelity(x, y) for x, y in crossing) / len(crossing)
    endpoint_qubits = sorted({q for e in crossing for q in e})
    readout_fid = sum(backend.calib.readout_fidelity(q) for q in endpoint_qubits) / len(endpoint_qubits)
    return delta_q + omega * link_fid * readout_fid


def check_omega(omega: float) -> None:
    """Refuse a reward weight that is NaN, infinite or negative."""
    if not (math.isfinite(omega) and omega >= 0):
        raise ValueError(f"omega must be finite and non-negative, got {omega}")


def build_hierarchy_tree(backend: Backend, omega: float = DEFAULT_OMEGA) -> HierarchyTree:
    """Agglomerate single-qubit communities by repeatedly merging the pair
    with the highest reward until one community remains.

    Only pairs joined by at least one link are scored; any other pair is
    unmergeable. Ties take the pair with the smallest (min qubit of first,
    min qubit of second) after ordering each pair by its minimum qubit.

    The reward table persists across steps, as in Clauset, Newman and Moore
    (2004): a merge drops every pair touching either side and scores only
    the merged community against the communities linked to it. Every other
    pair keeps the reward it had, which is the reward a rescan would give,
    since neither of its communities changed.
    """
    check_omega(omega)
    leaves = {q: HierarchyNode([q]) for q in range(backend.n_qubits)}
    # Communities are keyed by their minimum qubit; rewards[(ka, kb)] with
    # ka < kb holds every pair of communities that share a link.
    communities = dict(leaves)
    rewards = {(x, y): merge_reward(leaves[x], leaves[y], backend, omega) for x, y in backend.graph.edges}
    step = 0
    while len(communities) > 1:
        ka, kb = min(rewards, key=lambda pair: (-rewards[pair], pair))
        a, b = communities.pop(ka), communities.pop(kb)
        step += 1
        communities[ka] = HierarchyNode(a.qubits | b.qubits, a, b, merge_step=step, reward=rewards[ka, kb])
        linked: set[int] = set()
        for pair in [pair for pair in rewards if ka in pair or kb in pair]:
            del rewards[pair]
            linked.update(pair)
        for kc in linked - {ka, kb}:
            pair = (ka, kc) if ka < kc else (kc, ka)
            rewards[pair] = merge_reward(communities[pair[0]], communities[pair[1]], backend, omega)
    (root,) = communities.values()
    return HierarchyTree(root=root, leaves=leaves, omega=omega)


def hierarchy_tree(backend: Backend, omega: float = DEFAULT_OMEGA) -> HierarchyTree:
    """The dendrogram of ``backend`` at ``omega``, kept on the backend (an
    attribute, not a dataclass field, so == and hash ignore it). A backend
    keeps one tree, that of the last omega asked for; another omega builds
    its tree with ``build_hierarchy_tree`` and replaces it. Sharing is safe:
    nothing writes to a tree after its build."""
    tree = getattr(backend, "_hierarchy_tree", None)
    if tree is None or tree.omega != omega:
        tree = build_hierarchy_tree(backend, omega)
        object.__setattr__(backend, "_hierarchy_tree", tree)
    return tree


def max_redundant_qubits(node: HierarchyNode) -> int:
    """Worst-case unused qubits when a program lands on this community:
    its size minus one more than its larger child."""
    if node.is_leaf:
        raise ValueError("redundancy is defined for internal nodes only")
    return node.n_qubits - (1 + max(node.left.n_qubits, node.right.n_qubits))


def average_redundancy(tree: HierarchyTree) -> float:
    internal = tree.internal_nodes()
    if not internal:
        raise ValueError("tree has no internal nodes")
    return sum(max_redundant_qubits(n) for n in internal) / len(internal)


# --- region assignment ---------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """One program's placement: an injective map of its logical qubits onto
    the chip, and the pooled fidelity of the qubits it occupies."""

    program: QuantumProgram
    sigma: dict[int, int]
    avg_fidelity: float

    def __post_init__(self):
        image = set(self.sigma.values())
        if len(image) != len(self.sigma) or len(self.sigma) != self.program.n_qubits:
            raise ValueError("mapping must place every logical qubit injectively")

    @property
    def qubits(self) -> frozenset[int]:
        return frozenset(self.sigma.values())


@dataclass(frozen=True)
class Partition:
    """Outcome of dividing the chip among programs: disjoint per-program
    regions plus the programs that must fall back to running alone."""

    assignments: tuple[Assignment, ...]
    unassigned: tuple[QuantumProgram, ...] = ()

    def assignment_for(self, program: QuantumProgram) -> Assignment:
        for a in self.assignments:
            if a.program is program:
                return a
        raise KeyError(program.name)


def _region_avg_fidelity(qubits: set[int], backend: Backend) -> float:
    """Pooled mean of CNOT-link fidelities inside the set and readout
    fidelities of its members."""
    values = [backend.calib.cnot_fidelity(a, b) for a, b in backend.graph.links(qubits)]
    values += [backend.calib.readout_fidelity(q) for q in qubits]
    return sum(values) / len(values)


def _allocation_pressure(program: QuantumProgram, sigma: dict[int, int], backend: Backend) -> int | None:
    """CNOT-weighted excess hop count of a placement, measured inside the
    region it occupies (the router confined to that region pays for every
    extra hop). None when some interacting pair has no internal path at all,
    which makes the placement unusable. Hops come from one search confined
    to the placed qubits per distinct source qubit."""
    used = set(sigma.values())
    rows: dict[int, dict[int, int]] = {}
    total = 0
    for (a, b), w in program.cnot_weights().items():
        src = sigma[a]
        if src not in rows:
            rows[src] = bfs_hops(backend.graph, src, used)
        d = rows[src].get(sigma[b])
        if d is None:
            return None
        total += w * (d - 1)
    return total


def program_order(programs) -> list[QuantumProgram]:
    """Compilation priority: densest-in-CNOTs first, bigger first on ties,
    then name for determinism."""
    return sorted(programs, key=lambda p: (-p.cnot_density, -p.n_qubits, p.name))


def _placement_order(programs) -> list[QuantumProgram]:
    """The programs a partitioner places, in ``program_order``. Refuses an
    empty list and a program object given twice (a placement is looked up by
    object, so one object cannot hold two regions)."""
    programs = list(programs)
    if not programs:
        raise PartitionError("no programs to partition")
    if len({id(p) for p in programs}) != len(programs):
        raise PartitionError(
            "each program must be a distinct object; parse the source again to co-run a circuit with itself"
        )
    return program_order(programs)


def allocate(program: QuantumProgram, region: set[int], backend: Backend) -> dict[int, int]:
    """Greatest-weighted-edge-first placement of a program inside a region,
    as the map from each logical qubit to its physical qubit.

    The heaviest interacting logical pair is seeded onto the region's most
    reliable internal link; remaining logical qubits grow outward from mapped
    neighbors (heaviest half-mapped edge first, best adjacent free link),
    falling back to the nearest free qubit by chip-wide hops, which reach
    every qubit since a Backend's graph is connected. Logical qubits that never
    interact fill leftover region qubits by descending readout fidelity.
    All ties break toward the lowest index, so the result is deterministic.
    Only the neighbourhoods of the region's qubits are read, never the chip's
    edge list, so a call costs the region's size, not the chip's.
    """
    region = set(region)
    if len(region) < program.n_qubits:
        raise PartitionError(
            f"region of {len(region)} qubits cannot host {program.name} ({program.n_qubits} qubits)"
        )
    graph, calib = backend.graph, backend.calib
    weights = program.cnot_weights()
    logical_weight = {q: 0 for q in range(program.n_qubits)}
    for (a, b), w in weights.items():
        logical_weight[a] += w
        logical_weight[b] += w
    sigma: dict[int, int] = {}
    free = set(region)  # the region's unplaced qubits; shrinks as sigma grows

    def phys_edge_anchor_score(p: int) -> float:
        return sum(calib.cnot_fidelity(p, n) for n in graph.neighbors(p) if n in region)

    def coverage(logical: int, p: int) -> float:
        """Weighted fidelity of links from p to the already-mapped partners of
        ``logical``; placing next to every partner beats a single good link."""
        total = 0.0
        for other, phys in sigma.items():
            key = (min(logical, other), max(logical, other))
            if key in weights and graph.has_edge(p, phys):
                total += weights[key] * calib.cnot_fidelity(p, phys)
        return total

    def place(logical: int, p: int) -> None:
        sigma[logical] = p
        free.remove(p)

    # Every max and min key below ends in the qubit index, so no choice
    # depends on the order in which ``free`` is iterated.
    pending = sorted(weights, key=lambda e: (-weights[e], e))
    while True:
        # ``pending`` is sorted by (-weight, edge), so the first match is the best.
        half = next((e for e in pending if (e[0] in sigma) != (e[1] in sigma)), None)
        if half is not None:
            la, lb = half
            anchor, free_l = (la, lb) if la in sigma else (lb, la)
            anchor_p = sigma[anchor]
            adjacent = [p for p in graph.neighbors(anchor_p) if p in free]
            if adjacent:
                target = max(adjacent, key=lambda p: (coverage(free_l, p), calib.cnot_fidelity(anchor_p, p), -p))
            else:
                hops = bfs_hops(graph, anchor_p)  # chip-wide, from the anchor only
                target = min(free, key=lambda p: (hops[p], p))
            place(free_l, target)
            continue
        unmapped = next((e for e in pending if e[0] not in sigma and e[1] not in sigma), None)
        if unmapped is None:
            break
        free_edges = graph.links(free)
        if not free_edges:
            break  # no internal link left; the readout fill below handles the rest
        pa, pb = max(free_edges, key=lambda e: (calib.cnot_fidelity(*e), (-e[0], -e[1])))
        la, lb = sorted(unmapped, key=lambda q: (-logical_weight[q], q))  # heavier (or lower-index) first
        if phys_edge_anchor_score(pa) < phys_edge_anchor_score(pb):
            pa, pb = pb, pa  # better-connected physical spot first
        place(la, pa)
        place(lb, pb)

    for logical in range(program.n_qubits):
        if logical not in sigma:
            place(logical, max(free, key=lambda p: (calib.readout_fidelity(p), -p)))
    return sigma


def partition_qubits(tree: HierarchyTree, programs, backend: Backend, *, _trials: dict | None = None) -> Partition:
    """Assign disjoint chip regions to programs by climbing the dendrogram.

    For each program (densest first) every leaf climbs until a node with
    enough alive (not yet claimed) qubits is found; the candidate with the
    best pooled average fidelity over its alive subgraph wins. The placed
    qubits are removed from every node on the climb from their leaves;
    surplus alive qubits of the winning community stay available for later
    programs. A sibling left with no link to any other alive qubit is cut
    loose so it never seeds an unusable region: its alive qubits leave every
    node above it, and a climb stops at it.

    The claims live in this call only; the tree is never modified, so one
    tree can be shared by any number of calls.

    Each (program, alive set) trial is allocated and scored once. The scores
    live in ``_trials``, keyed by ``id(program)``: the scheduler hands one
    table to every partition of a call, so trials recur across its batches.
    """
    ordered = _placement_order(programs)
    # Alive qubits of every node that has lost some; any other node still
    # has all of ``node.qubits``. The parent of a cut node counts as None.
    free: dict[HierarchyNode, frozenset[int]] = {}
    cut: set[HierarchyNode] = set()

    def alive(node: HierarchyNode) -> frozenset[int]:
        return free.get(node, node.qubits)

    def up(node: HierarchyNode) -> HierarchyNode | None:
        return None if node in cut else node.parent

    def climb(node: HierarchyNode | None):
        while node is not None:
            yield node
            node = up(node)

    if _trials is None:
        _trials = {}
    assignments: list[Assignment] = []
    unassigned: list[QuantumProgram] = []
    for program in ordered:
        need = program.n_qubits
        candidates: list[HierarchyNode] = []
        for q in sorted(tree.leaves):
            node = next((n for n in climb(tree.leaves[q]) if len(alive(n)) >= need), None)
            if node is not None and node not in candidates:
                candidates.append(node)
        # Score each candidate by the region the program would actually occupy
        # (pooled alive-set means would punish supersets for qubits left
        # unused): fewest forced SWAPs first, then best pooled fidelity.
        # Candidates that leave interacting qubits without an internal path
        # are unusable and dropped. A recurring alive set reuses its score;
        # sharing the sigma between partitions is safe because GlobalMapping
        # copies it.
        scored = []
        for node in candidates:
            key = (id(program), alive(node))
            if key not in _trials:
                sigma = allocate(program, alive(node), backend)
                pressure = _allocation_pressure(program, sigma, backend)
                placed = frozenset(sigma.values())
                _trials[key] = None if pressure is None else (
                    pressure,
                    -_region_avg_fidelity(placed, backend),
                    tuple(sorted(placed)),
                    sigma,
                )
            if _trials[key] is not None:
                scored.append((*_trials[key], node))
        if not scored:
            unassigned.append(program)
            continue
        _, neg_fid, _, sigma, winner = min(scored, key=lambda t: t[:3])
        assignment = Assignment(program=program, sigma=sigma, avg_fidelity=-neg_fid)
        for q in assignment.qubits:
            for node in climb(tree.leaves[q]):
                free[node] = alive(node) - {q}
        parent = up(winner)
        if parent is not None:
            sibling = parent.left if parent.right is winner else parent.right
            sib_alive = alive(sibling)
            root_alive = alive(tree.root)
            linked = any(
                n in root_alive and n not in sib_alive for q in sib_alive for n in backend.graph.neighbors(q)
            )
            if sib_alive and not linked:
                for node in climb(up(sibling)):
                    free[node] = alive(node) - sib_alive
                cut.add(sibling)
        assignments.append(assignment)
    return Partition(assignments=tuple(assignments), unassigned=tuple(unassigned))


# --- greedy comparison baseline -------------------------------------------------


def frp_partition(programs, backend: Backend) -> Partition:
    """Greedy utility-driven region growth, the pre-existing multi-programming
    strategy used as baseline: pick the available qubit with the best
    (link count / summed CNOT error) utility as root, then repeatedly absorb
    the best-utility available neighbor until the region is program-sized.
    """
    ordered = _placement_order(programs)
    available = set(range(backend.n_qubits))
    assignments: list[Assignment] = []
    unassigned: list[QuantumProgram] = []

    def utility(q: int) -> float:
        links = [n for n in backend.graph.neighbors(q) if n in available]
        if not links:
            return 0.0
        err = sum(backend.calib.cnot_error[(min(q, n), max(q, n))] for n in links)
        return float("inf") if err == 0 else len(links) / err

    for program in ordered:
        if program.n_qubits > len(available):
            unassigned.append(program)
            continue
        # Every key ends in the qubit index, so set order cannot decide a tie.
        root = max(available, key=lambda q: (utility(q), -q))
        region = {root}
        while len(region) < program.n_qubits:
            frontier = {n for q in region for n in backend.graph.neighbors(q) if n in available and n not in region}
            if not frontier:
                break
            region.add(max(frontier, key=lambda q: (utility(q), -q)))
        if len(region) < program.n_qubits:
            unassigned.append(program)
            continue
        sigma = allocate(program, region, backend)
        available -= region
        assignments.append(
            Assignment(program=program, sigma=sigma, avg_fidelity=_region_avg_fidelity(region, backend))
        )
    return Partition(assignments=tuple(assignments), unassigned=tuple(unassigned))
