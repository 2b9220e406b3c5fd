"""Mapping transition: a joint router that may SWAP across program boundaries
and through free qubits, a per-program baseline router for comparison, and
SWAP decomposition into CNOTs that certifies equivalence as it replays the
schedule.

Both routers run one loop (``_route``): execute every hardware-compliant
gate, then insert the best-scoring SWAP among candidates touching the
blocked critical gates, until nothing is left; after
``STALL_STEPS_PER_QUBIT`` SWAPs per chip qubit that execute no gate, the
oldest blocked gate walks along a shortest path instead. Each router passes
the two things that differ:

- hop rows: ``hops[x]`` is ``hardware.bfs_hops`` from qubit ``x``, chip-wide
  rows for every qubit in the joint router, region-confined rows for the
  region's qubits in the baseline (a qubit missing from a row is unreachable
  from ``x``); candidates are the edges whose endpoints both have a row;
- shortcut bonus: the joint router passes per-step rows confined to each
  program's region plus the free qubits, so that SWAPs shortcutting a
  constraint across program boundaries score better; the baseline passes
  none.

Each step redoes only what the last SWAP changed (as in SABRE). A program
walks its ``circuit.qubit_lines``, popping each gate from its lines as it
executes; a gate counts the lines on which it is not yet next and is ready
when none is left. A CNOT found non-adjacent keeps its physical operand
pair and stays blocked until a SWAP moves one of them, so the compliant pass
re-tests only those. The blocked gates are then the front layer, walked once
per step (``_ProgramState.front``): it yields every CNOT's score terms (hop
row, hop count, shortcut bonus), shared by every candidate, and the operand
pairs of the critical gates, those with a later gate on one of their lines.
A schedule records each SWAP with its class and owners, and each gate as
(program, gate id, physical operands). ``_route`` classifies each SWAP by
who owns its endpoints when it is inserted; ``decompose`` tallies the
classes and charges each SWAP to its lowest-indexed owner. Measures are
emitted after every other gate, which is exact because ``QuantumProgram``
keeps measurement terminal.

``decompose``'s replay is also the equivalence proof (compare the
compilation-flow checks of Burgholzer and Wille, arXiv 2004.08420): it
follows the mapping through every SWAP and requires each program gate once,
in program order on each of its logical qubits, popping the same
``qubit_lines`` the routers walk. It needs no simulation and so holds at any
chip size. ``verify_schedule`` adds the independent oracle,
``sim.verify_equivalence``, which simulates the compiled circuit within a
qubit cap.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import zip_longest

from .circuit import BARRIER, CNOT, MEASURE, Gate, QuantumProgram, _placed, qubit_lines
from .hardware import Backend, bfs_hops
from . import sim

FREE = -1
STALL_STEPS_PER_QUBIT = 3  # SWAPs per chip qubit that may execute no gate before the fallback walk


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
    it was inserted; ``owners`` lists those programs in ascending order."""

    phys_a: int
    phys_b: int
    swap_class: str  # "intra" | "inter" | "free"
    owners: tuple[int, ...]

    def key(self) -> tuple[int, int]:
        return (self.phys_a, self.phys_b)


@dataclass(frozen=True)
class GateEvent:
    program: int
    gate_id: int
    phys: tuple[int, ...]


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

    def to_doc(self) -> dict:
        events = []
        for e in self.events:
            if isinstance(e, SwapOp):
                events.append({"swap": [e.phys_a, e.phys_b], "class": e.swap_class, "owners": list(e.owners)})
            else:
                g = self.programs[e.program].gates[e.gate_id]
                events.append(
                    {
                        "program": e.program,
                        "gate": e.gate_id,
                        "kind": g.kind,
                        "phys": list(e.phys),
                        "params": list(g.params),
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
    return GlobalMapping([partition.assignment_for(p).sigma for p in programs], n_phys)


# --- heuristics ----------------------------------------------------------------


def obtain_swaps(operands, graph, allowed) -> list[tuple[int, int]]:
    """Candidate SWAPs as sorted (low, high) edges: every coupling edge
    incident to a qubit of the physical ``operands`` pairs, with both
    endpoints in ``allowed`` (the routers pass their hop rows), regardless of
    who owns the other one (this is what admits cross-program and free-qubit
    SWAPs)."""
    edges: set[tuple[int, int]] = set()
    for pair in operands:
        for p in pair:
            if p in allowed:
                for nb in graph.neighbors(p):
                    if nb in allowed:
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
    return SwapOp(min(a, b), max(a, b), cls, owners)


def swap_score(edge: tuple[int, int], terms, hops: dict[int, dict[int, int]]) -> float:
    """Score a candidate SWAP on ``edge``; lower is better.

    ``terms`` holds one ``(pa, pb, hops[pa], d, bonus)`` tuple per front-layer
    CNOT (see ``_ProgramState.front``). The base term sums every front
    gate's operand hop count after hypothetically applying the SWAP. A gate's
    bonus (only the joint router's, whose rows hold every qubit) is subtracted
    if the SWAP lies on its chip-wide shortest path: shortcut SWAPs score best.
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
        if bonus is not None and (row[a] + 1 + row_b[pb] == d or row[b] + 1 + row_a[pb] == d):
            score -= bonus
    return score


# --- routers --------------------------------------------------------------------


class _ProgramState:
    """One program's routing progress, kept incrementally.

    ``lines`` are the program's ``qubit_lines``, popped as gates execute;
    ``waiting[gid]`` counts the lines on which a non-barrier gate is not yet
    next. ``ready`` is the set of pending gates (any kind) with none left,
    barriers from the start, updated as gates execute rather than found by
    rescanning the program. ``blocked`` maps each ready CNOT found
    non-adjacent to its physical operand pair, which stays valid until a
    SWAP on one of those qubits unblocks it.
    """

    def __init__(self, index: int, program: QuantumProgram):
        self.index = index
        self.program = program
        self.lines, self.ready = qubit_lines(program)
        self.waiting = [0] * len(program.gates)
        for line in self.lines:
            for gid in line[:-1]:
                self.waiting[gid] += 1
        self.ready.update(line[-1] for line in self.lines if line and not self.waiting[line[-1]])
        self.blocked: dict[int, tuple[int, int]] = {}

    def execute(self, gid: int):
        self.ready.remove(gid)
        g = self.program.gates[gid]
        if g.kind == BARRIER:
            return
        for q in g.qubits:
            line = self.lines[q]
            line.pop()
            if line:
                head = line[-1]
                self.waiting[head] -= 1
                if not self.waiting[head]:
                    self.ready.add(head)

    def unblock(self, a: int, b: int):
        """Forget the blocked gates with an operand on physical qubit a or b."""
        self.blocked = {gid: pair for gid, pair in self.blocked.items() if a not in pair and b not in pair}

    def front(self, n_phys: int, hops, own=None) -> tuple[list[tuple], list[tuple[int, int]]]:
        """One walk of the front layer (``blocked`` after a compliant pass),
        in gate order. Returns ``swap_score``'s terms, one ``(pa, pb,
        hops[pa], d, bonus)`` per CNOT, and the operand pairs to resolve:
        those of the critical gates (one of their lines holds more than one
        gate, so a later gate waits on them), or every pair when none is.
        The bonus is the SWAPs the gate saves by crossing program
        boundaries, per front gate: its hop count in ``own[index]`` (its
        region plus the free qubits) minus ``d``, or ``n_phys`` (the chip's
        qubit count) when that region cannot connect it. It is None without
        ``own`` and when the gate saves nothing, as subtracting 0.0 changes
        no score. Raises UnroutableProgramError when ``hops`` cannot connect
        a pair."""
        lines, gates = self.lines, self.program.gates
        per_layer = 1.0 / len(self.blocked) if self.blocked else 0.0
        terms, pairs, critical = [], [], []
        for gid, pair in sorted(self.blocked.items()):
            pa, pb = pair
            row = hops[pa]
            if pb not in row:
                detail = f"region {sorted(hops)} cannot connect qubits {pa} and {pb}"
                raise UnroutableProgramError(self.program.name, detail)
            d = row[pb]
            saved = 0
            if own is not None:
                restricted = own[self.index][pa].get(pb)
                saved = n_phys if restricted is None else restricted - d
            terms.append((pa, pb, row, d, per_layer * saved if saved else None))
            pairs.append(pair)
            if any(len(lines[q]) > 1 for q in gates[gid].qubits):
                critical.append(pair)
        return terms, critical or pairs

    def done(self) -> bool:
        return not self.ready  # the earliest unexecuted gate is always ready


def _execute_compliant(states, mapping: GlobalMapping, graph, events, pending_measures) -> bool:
    """Greedily execute every gate that needs no SWAP; returns True if any ran.
    The mapping is fixed for the whole call, so a blocked gate is not tested
    again; afterwards ``blocked`` maps the front layer (the ready CNOTs) to
    the gates' current physical operands."""
    progress = False
    moved = True
    while moved:
        moved = False
        for st in states:
            todo = st.ready.difference(st.blocked)
            if not todo:
                continue
            sigma, gates = mapping.sigmas[st.index], st.program.gates
            # A snapshot: gates readied during this pass wait for the next one.
            for gid in sorted(todo):
                g = gates[gid]
                phys = tuple([sigma[q] for q in g.qubits])
                if g.kind == CNOT and not graph.has_edge(*phys):
                    st.blocked[gid] = phys
                    continue
                st.execute(gid)
                moved = progress = True
                if g.kind == MEASURE:
                    pending_measures.append((st.index, gid, g.qubits[0]))
                else:
                    events.append(GateEvent(st.index, gid, phys))
    return progress


def _route(programs, mapping: GlobalMapping, graph, hops: dict[int, dict[int, int]], own_hops=None) -> list:
    """The loop both routers share. Routes ``programs``, a list of (index in
    ``mapping``, program) pairs, and returns their events.

    ``hops`` holds a ``bfs_hops`` row for every qubit a program may occupy.
    Candidates come from ``obtain_swaps(..., hops)`` and are scored by
    ``swap_score`` over the step's front terms; ``own_hops``, when given,
    returns the per-program confined rows for the current mapping and turns
    on the shortcut bonus. A front CNOT whose operands ``hops`` cannot
    connect raises UnroutableProgramError. After ``STALL_STEPS_PER_QUBIT *
    n_qubits`` consecutive SWAPs that execute no gate, the oldest blocked
    gate steps along a shortest path in ``hops`` instead.
    """
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
            st_terms, st_pairs = st.front(mapping.n_phys, hops, own)
            terms += st_terms
            to_resolve += st_pairs
        if stalled >= STALL_STEPS_PER_QUBIT * graph.n_qubits:
            pa, pb = to_resolve[0]
            row = hops[pb]  # hop counts are symmetric
            step = min((x for x in graph.neighbors(pa) if x in row), key=lambda x: (row[x], x))
            best = _classify(mapping, pa, step)
        else:
            edge = min(
                obtain_swaps(to_resolve, graph, hops),
                key=lambda e: (swap_score(e, terms, hops), e),
            )
            best = _classify(mapping, *edge)
        for st in states:
            st.unblock(best.phys_a, best.phys_b)
        mapping.apply_swap(best.phys_a, best.phys_b)
        events.append(best)
        stalled += 1
        regions_moved = own_hops is not None and best.swap_class != "intra"
    # Measurements are pinned to the end, remapped through the final layout.
    for program, gid, logical in pending_measures:
        events.append(GateEvent(program, gid, (mapping.phys(program, logical),)))
    return events


def _check_placed(programs, mapping: GlobalMapping) -> None:
    """Refuse a mapping without, for each program, a sigma over exactly its
    logical qubits ``range(n_qubits)``. Sigmas beyond the programs are left
    alone."""
    for i, program in enumerate(programs):
        if i >= len(mapping.sigmas) or mapping.sigmas[i].keys() != set(range(program.n_qubits)):
            raise ValueError(f"mapping gives {program.name!r} no sigma over logical qubits 0..{program.n_qubits - 1}")


def xswap_route(programs, initial: GlobalMapping, backend: Backend) -> Schedule:
    """Route all programs jointly, allowing SWAPs across program boundaries
    and through free qubits.

    Candidate SWAPs touch the operands of each program's blocked critical
    gates (all blocked front gates when none is critical). A deterministic
    fallback walks the oldest blocked gate along a chip-wide shortest path if
    ``STALL_STEPS_PER_QUBIT * n_qubits`` consecutive SWAPs execute no gate.
    """
    _check_placed(programs, initial)
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
        own_hops=own_hops,
    )
    return Schedule(tuple(programs), tuple(events), initial.clone(), mapping, backend)


def baseline_route(programs, initial: GlobalMapping, backend: Backend) -> Schedule:
    """Route each program independently inside its own region, then merge the
    per-program event streams round-robin.

    Each program gets hop rows for its region's qubits only, confined to the
    region-induced subgraph; they restrict candidates to coupling edges inside
    the region, mirroring per-program heuristic routing. Raises
    UnroutableProgramError when a region cannot connect a CNOT's operands.
    """
    _check_placed(programs, initial)
    graph = backend.graph
    mapping = initial.clone()
    streams = []
    for i, program in enumerate(programs):
        region = mapping.region(i)
        region_hops = {q: bfs_hops(graph, q, region) for q in region}
        streams.append(_route([(i, program)], mapping, graph, region_hops))
    merged = tuple(e for row in zip_longest(*streams) for e in row if e is not None)
    return Schedule(tuple(programs), merged, initial.clone(), mapping, backend)


# --- decomposition and verification ----------------------------------------------


@dataclass(frozen=True)
class CompiledCircuits:
    """The physical circuit obtained by expanding SWAPs into CNOT triples."""

    combined: QuantumProgram
    stats: dict = field(repr=False)


_SWAP_CX = Gate(CNOT, (0, 1))  # placed three times per SWAP


def decompose(schedule: Schedule) -> CompiledCircuits:
    """Expand every SWAP into three CNOTs and emit the physical circuit.

    One replay checks that executed CNOTs and SWAPs act on adjacent qubits,
    that operands agree with the replayed mapping and that the permutation
    matches the final mapping, and counts SWAPs and depth. The same replay
    certifies equivalence: each non-barrier gate must be the next unexecuted
    gate, in program order, on every logical qubit it touches, each barrier
    must appear once, and no gate may be left over. Any failure raises
    RoutingError.

    The certificate is exact on any chip. A SWAP triple only permutes qubits,
    which the replay follows, and free qubits stay |0> because no gate acts on
    them. So the compiled circuit applies each program's gates to its logical
    qubits in an order that keeps the order on every qubit. Gates on disjoint
    qubits commute and the programs hold disjoint qubits, so the circuit acts
    as the product of the programs, read through the final layouts.
    """
    graph = schedule.backend.graph
    replayed = schedule.initial.clone()
    sigmas = replayed.sigmas
    pending = [qubit_lines(p) for p in schedule.programs]
    combined: list[Gate] = []
    swap_classes = {"intra": 0, "inter": 0, "free": 0}
    charged = [0] * len(schedule.programs)  # SWAPs per lowest-indexed owner
    level: dict[int, int] = {}  # depth of each physical qubit so far
    for event in schedule.events:
        if isinstance(event, SwapOp):
            a, b = event.phys_a, event.phys_b
            if not graph.has_edge(a, b):
                raise RoutingError(f"swap ({a},{b}) is not a coupling edge")
            n = len(combined)
            combined += (
                _placed(_SWAP_CX, (a, b), n),
                _placed(_SWAP_CX, (b, a), n + 1),
                _placed(_SWAP_CX, (a, b), n + 2),
            )
            level[a] = level[b] = max(level.get(a, 0), level.get(b, 0)) + 3
            swap_classes[event.swap_class] += 1
            charged[event.owners[0]] += 1
            replayed.apply_swap(a, b)
            continue
        g, phys = schedule.programs[event.program].gates[event.gate_id], event.phys
        if g.kind == CNOT and not graph.has_edge(*phys):
            raise RoutingError(f"executed CNOT on non-adjacent qubits ({phys[0]},{phys[1]})")
        sigma = sigmas[event.program]
        expected = tuple([sigma[q] for q in g.qubits])
        if expected != phys:
            raise RoutingError(f"event operands {phys} disagree with replayed mapping {expected}")
        gid = event.gate_id
        lines, barriers = pending[event.program]
        if g.kind == BARRIER:
            if gid not in barriers:
                raise RoutingError(f"barrier {gid} of program {event.program} is executed more than once")
            barriers.remove(gid)
        else:
            for q in g.qubits:
                line = lines[q]
                if not line or line[-1] != gid:
                    raise RoutingError(
                        f"gate {gid} of program {event.program} is not the next gate on its logical qubit {q}"
                    )
                line.pop()
        combined.append(_placed(g, phys, len(combined)))
        # A barrier lifts its qubits to their common level and adds none.
        depth = max([level.get(q, 0) for q in phys], default=0) + (g.kind != BARRIER)
        for q in phys:
            level[q] = depth
    for i, sigma in enumerate(sigmas):
        if sigma != schedule.final.sigmas[i]:
            raise RoutingError(f"final mapping of program {i} does not match the replay")
    for i, (lines, barriers) in enumerate(pending):
        if barriers or any(lines):
            raise RoutingError(f"program {i} has gates that were never executed")

    per_stats = [
        {"name": p.name, "swaps": k, "added_cnots": 3 * k,
         "original_gates": p.gate_count, "post_gates": p.gate_count + 3 * k}
        for p, k in zip(schedule.programs, charged)
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


def verify_schedule(schedule: Schedule, limit: int = sim.DEFAULT_QUBIT_CAP) -> tuple[bool, float]:
    """Decompose ``schedule`` and check the circuit by ``sim.verify_equivalence``
    on the programs' final layouts (a sigma beyond the programs has none)."""
    compiled = decompose(schedule)
    layouts = [dict(s) for s in schedule.final.sigmas[: len(schedule.programs)]]
    return sim.verify_equivalence(schedule.programs, compiled.combined, layouts, limit=limit)
