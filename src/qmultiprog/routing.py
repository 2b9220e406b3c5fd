"""Mapping transition: a joint router that may SWAP across program boundaries
and through free qubits, a per-program baseline router for comparison, SWAP
decomposition into CNOTs, and an exact-simulation equivalence check.

Both routers run one loop (``_route``): execute every hardware-compliant
gate, then insert the best-scoring SWAP among candidates touching the
blocked critical gates, until nothing is left; after a stall the oldest
blocked gate walks along a shortest path instead. Each router passes the
three things that differ:

- candidate edges: the joint router takes any coupling edge incident to a
  blocked operand, the baseline only edges inside the program's own region;
- hop rows: ``hops[x]`` is ``hardware.bfs_hops`` from qubit ``x``, chip-wide
  for the joint router and confined to the region for the baseline; a qubit
  missing from a row is unreachable from ``x``;
- shortcut bonus: the joint router passes per-step rows confined to each
  program's region plus the free qubits, so that SWAPs shortcutting a
  constraint across program boundaries score better; the baseline passes
  none.

Each step redoes only what the last SWAP changed (as in SABRE). A program
counts every gate's unexecuted predecessors and updates its ready set as
gates execute; CNOTs found non-adjacent stay blocked until a SWAP moves one
of their operands, so the compliant pass re-tests only those. The blocked
sets are then the front layer, whose terms (hop row, hop count, shortcut
bonus per CNOT) are looked up once per step and shared by every candidate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    BARRIER,
    CNOT,
    MEASURE,
    ONE_QUBIT_GATES,
    Dag,
    Gate,
    QuantumProgram,
    build_dag,
    critical_gates,
)
from .hardware import Backend, bfs_hops
from . import sim

FREE = -1


class RoutingError(RuntimeError):
    pass


class UnroutableProgramError(RoutingError):
    """A program's region cannot connect the operands of one of its CNOTs."""

    def __init__(self, program_name: str, detail: str):
        super().__init__(f"program {program_name!r} is unroutable: {detail}")
        self.program_name = program_name


class GlobalMapping:
    """Joint logical-to-physical placement of several programs.

    Each physical qubit hosts at most one (program, logical) occupant; the
    rest are free. Swaps exchange occupants (or move one onto a free qubit).
    """

    def __init__(self, sigmas, n_phys: int):
        self.n_phys = n_phys
        self.sigmas: list[dict[int, int]] = [dict(s) for s in sigmas]
        self._occupant: dict[int, tuple[int, int]] = {}
        for i, sigma in enumerate(self.sigmas):
            for logical, phys in sigma.items():
                if not 0 <= phys < n_phys:
                    raise ValueError(f"physical qubit {phys} out of range")
                if phys in self._occupant:
                    raise ValueError(f"physical qubit {phys} assigned twice")
                self._occupant[phys] = (i, logical)
            if len(set(sigma.values())) != len(sigma):
                raise ValueError(f"sigma of program {i} is not injective")

    def clone(self) -> "GlobalMapping":
        return GlobalMapping(self.sigmas, self.n_phys)

    def phys(self, program: int, logical: int) -> int:
        return self.sigmas[program][logical]

    def owner_of(self, phys: int) -> int:
        occ = self._occupant.get(phys)
        return FREE if occ is None else occ[0]

    def region(self, program: int) -> frozenset[int]:
        return frozenset(self.sigmas[program].values())

    def free_qubits(self) -> frozenset[int]:
        return frozenset(p for p in range(self.n_phys) if p not in self._occupant)

    def apply_swap(self, a: int, b: int):
        occ_a, occ_b = self._occupant.pop(a, None), self._occupant.pop(b, None)
        if occ_b is not None:
            self._occupant[a] = occ_b
            self.sigmas[occ_b[0]][occ_b[1]] = a
        if occ_a is not None:
            self._occupant[b] = occ_a
            self.sigmas[occ_a[0]][occ_a[1]] = b

    def to_doc(self) -> dict:
        return {
            "n_phys": self.n_phys,
            "sigmas": [{str(k): v for k, v in sorted(s.items())} for s in self.sigmas],
        }


@dataclass(frozen=True)
class SwapOp:
    """A SWAP on a coupling edge, classified by who owned its endpoints when
    it was inserted. ``attributed`` names the single program charged for it
    in per-program accounting (the lowest-indexed owner)."""

    phys_a: int
    phys_b: int
    swap_class: str  # "intra" | "inter" | "free"
    owners: tuple[int, ...]
    attributed: int

    def key(self) -> tuple[int, int]:
        return (self.phys_a, self.phys_b)


@dataclass(frozen=True)
class GateEvent:
    program: int
    gate_id: int
    kind: str
    phys: tuple[int, ...]
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class Schedule:
    """Ordered executed-gate/SWAP stream plus the evolving mapping endpoints."""

    programs: tuple[QuantumProgram, ...]
    events: tuple[GateEvent | SwapOp, ...]
    initial: GlobalMapping
    final: GlobalMapping
    backend: Backend

    def swaps(self) -> list[SwapOp]:
        return [e for e in self.events if isinstance(e, SwapOp)]

    @property
    def swap_count(self) -> int:
        return len(self.swaps())

    def swaps_by_class(self) -> dict[str, int]:
        counts = {"intra": 0, "inter": 0, "free": 0}
        for s in self.swaps():
            counts[s.swap_class] += 1
        return counts

    def to_doc(self) -> dict:
        events = []
        for e in self.events:
            if isinstance(e, SwapOp):
                events.append({"swap": [e.phys_a, e.phys_b], "class": e.swap_class, "owners": list(e.owners)})
            else:
                events.append(
                    {
                        "program": e.program,
                        "gate": e.gate_id,
                        "kind": e.kind,
                        "phys": list(e.phys),
                        "params": list(e.params),
                    }
                )
        return {
            "programs": [p.name for p in self.programs],
            "events": events,
            "initial": self.initial.to_doc(),
            "final": self.final.to_doc(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))


def mapping_from_partition(partition, programs, n_phys: int) -> GlobalMapping:
    """Arrange a partition's placements in the callers' program order."""
    return GlobalMapping([partition.mapping_for(p).sigma for p in programs], n_phys)


# --- heuristics ----------------------------------------------------------------


def obtain_swaps(to_resolve, graph, mapping: GlobalMapping, allowed=None) -> list[tuple[int, int]]:
    """Candidate SWAPs as sorted (low, high) edges: every coupling edge
    incident to a physical qubit that hosts an operand of a gate to resolve,
    regardless of who owns the other endpoint (this is what admits
    cross-program and free-qubit SWAPs). With ``allowed``, only edges with
    both endpoints in that set qualify."""
    edges: set[tuple[int, int]] = set()
    for program, g in to_resolve:
        sigma = mapping.sigmas[program]
        for lq in g.qubits:
            p = sigma[lq]
            if allowed is not None and p not in allowed:
                continue
            for nb in graph.neighbors(p):
                if allowed is None or nb in allowed:
                    edges.add((p, nb) if p < nb else (nb, p))
    return sorted(edges)


def _classify(mapping: GlobalMapping, a: int, b: int) -> SwapOp:
    oa, ob = mapping.owner_of(a), mapping.owner_of(b)
    owners = tuple(sorted(o for o in (oa, ob) if o != FREE))
    if not owners:
        raise RoutingError("swap with both endpoints free is never a candidate")
    if oa == FREE or ob == FREE:
        cls = "free"
    elif oa == ob:
        cls = "intra"
    else:
        cls = "inter"
    return SwapOp(min(a, b), max(a, b), cls, owners, owners[0])


def swap_score(edge: tuple[int, int], terms, hops: dict[int, dict[int, int]]) -> float:
    """Score a candidate SWAP on ``edge``; lower is better.

    ``terms`` holds one ``(pa, pb, hops[pa], d, bonus)`` tuple per front-layer
    CNOT (see ``_ProgramState.front_terms``). The base term sums every front
    gate's operand hop count after hypothetically applying the SWAP. A gate's
    bonus, when it has one, is subtracted if the SWAP lies on its chip-wide
    shortest path, so the minimization prefers exactly the shortcut SWAPs.
    """
    a, b = edge
    row_a, row_b = hops[a], hops[b]
    score = 0.0
    for pa, pb, row, d, bonus in terms:
        # The operands' hop count after the SWAP (hop counts are symmetric).
        if pa == a:
            score += d if pb == b else row_b[pb]
        elif pa == b:
            score += d if pb == a else row_a[pb]
        else:
            score += row[b] if pb == a else row[a] if pb == b else d
        # A missing pair defaults to d, which makes its sum exceed d:
        # an unreachable endpoint is off the path.
        if bonus is not None and (
            row.get(a, d) + 1 + row_b.get(pb, d) == d or row.get(b, d) + 1 + row_a.get(pb, d) == d
        ):
            score -= bonus
    return score


# --- routers --------------------------------------------------------------------


class _ProgramState:
    """One program's routing progress, kept incrementally.

    ``waiting[gid]`` counts the gate's DAG predecessors not yet executed;
    ``ready`` is the set of pending gates (any kind) with none left, updated
    as gates execute rather than found by rescanning the program. ``blocked``
    holds the ready CNOTs found non-adjacent under the current mapping; only
    a SWAP on one of their operands can unblock them.
    """

    def __init__(self, index: int, program: QuantumProgram):
        self.index = index
        self.program = program
        self.dag: Dag = build_dag(program)
        self.executed: set[int] = set()
        self.waiting = {gid: len(preds) for gid, preds in self.dag.predecessors.items()}
        self.ready = {gid for gid, n in self.waiting.items() if n == 0}
        self.blocked: set[int] = set()

    def execute(self, gid: int):
        self.executed.add(gid)
        self.ready.remove(gid)
        for succ in self.dag.successors[gid]:
            self.waiting[succ] -= 1
            if not self.waiting[succ]:
                self.ready.add(succ)

    def unblock(self, mapping: GlobalMapping, a: int, b: int):
        """Forget the blocked gates with an operand on physical qubit a or b."""
        sigma, gates = mapping.sigmas[self.index], self.program.gates
        self.blocked = {gid for gid in self.blocked if not {sigma[q] for q in gates[gid].qubits} & {a, b}}

    def front_terms(self, mapping: GlobalMapping, hops, own=None, gain_cap: int = 0, allowed=None) -> list[tuple]:
        """``swap_score``'s terms for the front layer (``blocked`` after a
        compliant pass), one ``(pa, pb, hops[pa], d, bonus)`` per CNOT in gate
        order. The bonus is the SWAPs the gate saves by crossing program
        boundaries, per front gate: its hop count in ``own[index]`` (its region
        plus the free qubits) minus ``d``, or ``gain_cap`` when that region
        cannot connect it. It is None without ``own`` and when the gate saves
        nothing, as subtracting 0.0 changes no score. Raises
        UnroutableProgramError when ``hops`` cannot connect the operands."""
        front = sorted(self.blocked)
        per_layer = 1.0 / len(front) if front else 0.0
        sigma = mapping.sigmas[self.index]
        terms = []
        for gid in front:
            qa, qb = self.program.gates[gid].qubits
            pa, pb = sigma[qa], sigma[qb]
            row = hops[pa]
            if pb not in row:
                where = "the chip" if allowed is None else f"region {sorted(allowed)}"
                raise UnroutableProgramError(self.program.name, f"{where} cannot connect qubits {pa} and {pb}")
            d = row[pb]
            saved = 0
            if own is not None:
                restricted = own[self.index][pa].get(pb)
                saved = gain_cap if restricted is None else restricted - d
            terms.append((pa, pb, row, d, per_layer * saved if saved else None))
        return terms

    def done(self) -> bool:
        return len(self.executed) == len(self.program.gates)


def _execute_compliant(states, mapping: GlobalMapping, graph, events, pending_measures) -> bool:
    """Greedily execute every gate that needs no SWAP; returns True if any ran.
    The mapping is fixed for the whole call, so a blocked gate is not tested
    again; afterwards ``blocked`` is exactly ``front_layer(dag, executed)``."""
    progress = False
    moved = True
    while moved:
        moved = False
        for st in states:
            todo = st.ready - st.blocked
            if not todo:
                continue
            sigma, gates = mapping.sigmas[st.index], st.program.gates
            # A snapshot: gates readied during this pass wait for the next one.
            for gid in sorted(todo):
                g = gates[gid]
                phys = tuple([sigma[q] for q in g.qubits])
                if g.kind == CNOT and not graph.has_edge(*phys):
                    st.blocked.add(gid)
                    continue
                st.execute(gid)
                moved = progress = True
                if g.kind == MEASURE:
                    pending_measures.append((st.index, gid, g.qubits[0]))
                else:
                    params = g.params if g.kind in ONE_QUBIT_GATES else ()
                    events.append(GateEvent(st.index, gid, g.kind, phys, params))
    return progress


def _route(
    programs,
    mapping: GlobalMapping,
    graph,
    hops: dict[int, dict[int, int]],
    stall_limit: int | None,
    allowed: frozenset[int] | None = None,
    own_hops=None,
    gain_cap: int = 0,
) -> list:
    """The loop both routers share. Routes ``programs``, a list of (index in
    ``mapping``, program) pairs, and returns their events.

    ``hops`` holds a ``bfs_hops`` row for every qubit a program may occupy.
    Candidates come from ``obtain_swaps(..., allowed)`` and are scored by
    ``swap_score`` over the step's front terms; ``own_hops``, when given,
    returns the per-program confined rows for the current mapping and turns
    on the shortcut bonus. A front CNOT whose operands ``hops`` cannot
    connect raises UnroutableProgramError. After ``stall_limit`` (default
    3 * n_qubits) consecutive SWAPs that execute no gate, the oldest blocked
    gate steps along a shortest path in ``hops`` instead.
    """
    if stall_limit is None:
        stall_limit = 3 * graph.n_qubits
    states = [_ProgramState(i, p) for i, p in programs]
    events: list = []
    pending_measures: list[tuple[int, int, int]] = []
    stalled = 0
    own = None
    regions_moved = own_hops is not None
    while True:
        if _execute_compliant(states, mapping, graph, events, pending_measures):
            stalled = 0
        if all(st.done() for st in states):
            break
        if regions_moved:  # an intra-program SWAP keeps every region and the free qubits
            own = own_hops()
        terms, to_resolve = [], []
        for st in states:
            terms += st.front_terms(mapping, hops, own, gain_cap, allowed)
            for gid in sorted(critical_gates(st.dag, st.blocked) or st.blocked):
                to_resolve.append((st.index, st.program.gates[gid]))
        if stalled >= stall_limit:
            program, g = to_resolve[0]
            pa, pb = mapping.phys(program, g.qubits[0]), mapping.phys(program, g.qubits[1])
            row = hops[pb]  # hop counts are symmetric
            step = min((x for x in graph.neighbors(pa) if x in row), key=lambda x: (row[x], x))
            best = _classify(mapping, pa, step)
        else:
            edge = min(
                obtain_swaps(to_resolve, graph, mapping, allowed),
                key=lambda e: (swap_score(e, terms, hops), e),
            )
            best = _classify(mapping, *edge)
        for st in states:
            st.unblock(mapping, best.phys_a, best.phys_b)
        mapping.apply_swap(best.phys_a, best.phys_b)
        events.append(best)
        stalled += 1
        regions_moved = own_hops is not None and best.swap_class != "intra"
    # Measurements are pinned to the end, remapped through the final layout.
    for program, gid, logical in pending_measures:
        events.append(GateEvent(program, gid, MEASURE, (mapping.phys(program, logical),)))
    return events


def xswap_route(
    programs, initial: GlobalMapping, backend: Backend, stall_limit: int | None = None
) -> Schedule:
    """Route all programs jointly, allowing SWAPs across program boundaries
    and through free qubits.

    Candidate SWAPs touch the operands of each program's blocked critical
    gates (all blocked front gates when none is critical). A deterministic
    fallback walks the oldest blocked gate along a chip-wide shortest path if
    ``stall_limit`` (default 3 * n_qubits) consecutive SWAPs execute no gate.
    """
    graph = backend.graph
    mapping = initial.clone()
    own_cache: dict[frozenset, dict[int, dict[int, int]]] = {}

    def own_hops() -> list[dict[int, dict[int, int]]]:
        free = mapping.free_qubits()
        out = []
        for i in range(len(programs)):
            allowed = free | mapping.region(i)
            if allowed not in own_cache:
                own_cache[allowed] = {q: bfs_hops(graph, q, allowed) for q in allowed}
            out.append(own_cache[allowed])
        return out

    events = _route(
        list(enumerate(programs)),
        mapping,
        graph,
        {q: bfs_hops(graph, q) for q in range(graph.n_qubits)},
        stall_limit,
        own_hops=own_hops,
        gain_cap=graph.n_qubits,
    )
    return Schedule(tuple(programs), tuple(events), initial.clone(), mapping, backend)


def baseline_route(
    programs, initial: GlobalMapping, backend: Backend, stall_limit: int | None = None
) -> Schedule:
    """Route each program independently inside its own region, then merge the
    per-program event streams round-robin.

    Candidates are restricted to coupling edges with both endpoints in the
    program's region and hop counts to the region-induced subgraph, mirroring
    per-program heuristic routing. Raises UnroutableProgramError when a
    region cannot connect a CNOT's operands.
    """
    graph = backend.graph
    mapping = initial.clone()
    streams = []
    for i, program in enumerate(programs):
        region = mapping.region(i)
        region_hops = {q: bfs_hops(graph, q, region) for q in region}
        streams.append(_route([(i, program)], mapping, graph, region_hops, stall_limit, allowed=region))
    merged: list = []
    cursors = [0] * len(streams)
    while any(c < len(s) for c, s in zip(cursors, streams)):
        for i, stream in enumerate(streams):
            if cursors[i] < len(stream):
                merged.append(stream[cursors[i]])
                cursors[i] += 1
    return Schedule(tuple(programs), tuple(merged), initial.clone(), mapping, backend)


# --- decomposition and verification ----------------------------------------------


@dataclass(frozen=True)
class CompiledCircuits:
    """The physical circuit obtained by expanding SWAPs into CNOT triples."""

    combined: QuantumProgram
    stats: dict = field(repr=False)


def decompose(schedule: Schedule) -> CompiledCircuits:
    """Expand every SWAP into three CNOTs and emit the physical circuit.

    One replay checks that executed CNOTs and SWAPs act on adjacent qubits,
    that operands agree with the replayed mapping and that the permutation
    matches the final mapping (else RoutingError), and counts SWAPs and depth.
    """
    graph = schedule.backend.graph
    replayed = schedule.initial.clone()
    sigmas = replayed.sigmas
    combined: list[Gate] = []
    swap_classes = {"intra": 0, "inter": 0, "free": 0}
    attributed = [0] * len(schedule.programs)
    level: dict[int, int] = {}  # depth of each physical qubit so far
    for event in schedule.events:
        if isinstance(event, SwapOp):
            a, b = event.phys_a, event.phys_b
            if not graph.has_edge(a, b):
                raise RoutingError(f"swap ({a},{b}) is not a coupling edge")
            n = len(combined)
            combined += (Gate(CNOT, (a, b), (), n), Gate(CNOT, (b, a), (), n + 1), Gate(CNOT, (a, b), (), n + 2))
            level[a] = level[b] = max(level.get(a, 0), level.get(b, 0)) + 3
            swap_classes[event.swap_class] += 1
            attributed[event.attributed] += 1
            replayed.apply_swap(a, b)
            continue
        kind, phys = event.kind, event.phys
        if kind == CNOT and not graph.has_edge(*phys):
            raise RoutingError(f"executed CNOT on non-adjacent qubits ({phys[0]},{phys[1]})")
        sigma = sigmas[event.program]
        expected = tuple([sigma[q] for q in schedule.programs[event.program].gates[event.gate_id].qubits])
        if expected != phys:
            raise RoutingError(f"event operands {phys} disagree with replayed mapping {expected}")
        combined.append(Gate(kind, phys, tuple(event.params), len(combined)))
        # A barrier lifts its qubits to their common level and adds none.
        depth = max([level.get(q, 0) for q in phys], default=0) + (kind != BARRIER)
        for q in phys:
            level[q] = depth
    for i, sigma in enumerate(sigmas):
        if sigma != schedule.final.sigmas[i]:
            raise RoutingError(f"final mapping of program {i} does not match the replay")

    per_stats = [
        {"name": p.name, "swaps": k, "added_cnots": 3 * k,
         "original_gates": p.gate_count, "post_gates": p.gate_count + 3 * k}
        for p, k in zip(schedule.programs, attributed)
    ]
    n_swaps = sum(swap_classes.values())
    stats = {
        "per_program": per_stats,
        "swap_classes": swap_classes,
        "swaps": n_swaps,
        "added_cnots": 3 * n_swaps,
        "post_gates": sum(p.gate_count for p in schedule.programs) + 3 * n_swaps,
        "depth": max(level.values(), default=0),
    }
    combined_program = QuantumProgram(name="combined", n_qubits=replayed.n_phys, gates=tuple(combined))
    return CompiledCircuits(combined=combined_program, stats=stats)


def verify_equivalence(
    programs,
    compiled: QuantumProgram,
    final_layouts,
    limit: int = sim.DEFAULT_QUBIT_CAP,
    tolerance: float = 1e-9,
) -> tuple[bool, float]:
    """Check the compiled physical circuit against exact simulation.

    Simulates the compiled circuit from |0..0>, marginalizes it onto every
    program's final layout, and compares with the tensor product of the
    programs' standalone output distributions. Returns (equivalent, total
    variation distance). Raises QubitCapExceeded above ``limit``.
    """
    if compiled.n_qubits > limit:
        raise sim.QubitCapExceeded(
            f"{compiled.n_qubits} physical qubits exceed the verification cap {limit}"
        )
    phys_probs = sim.distribution_vector(compiled, cap=limit)
    keep: list[int] = []
    ideal = np.array([1.0])
    for program, layout in zip(programs, final_layouts):
        keep.extend(layout[q] for q in sorted(layout))
        ideal = np.kron(sim.distribution_vector(program, cap=limit), ideal)
    marginal = sim.marginal_distribution(phys_probs, compiled.n_qubits, keep)
    tv = sim.total_variation(marginal, ideal)
    return tv <= tolerance, tv


def verify_schedule(schedule: Schedule, limit: int = sim.DEFAULT_QUBIT_CAP) -> tuple[bool, float]:
    compiled = decompose(schedule)
    layouts = [dict(s) for s in schedule.final.sigmas]
    return verify_equivalence(schedule.programs, compiled.combined, layouts, limit=limit)
