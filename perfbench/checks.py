"""Untimed correctness gates run after every benchmark operation.

A failed gate raises CheckFailed and aborts the run with a nonzero exit; a
documented refusal (no region, unroutable, ...) is not a failure here.
"""
from __future__ import annotations

import hashlib
import json
import math

from qmultiprog.circuit import BARRIER, CNOT, QuantumProgram
from qmultiprog.sim import DEFAULT_QUBIT_CAP


class CheckFailed(RuntimeError):
    pass


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Progress:
    """Which gates of one program are still to be matched, and which of
    those have every earlier gate on their qubits already matched."""

    def __init__(self, program: QuantumProgram):
        self.program = program
        self.waiting: dict[int, int] = {}
        self.successors: dict[int, list[int]] = {g.id: [] for g in program.gates}
        self.ready: dict[tuple, list[int]] = {}
        last: dict[int, int] = {}
        for g in program.gates:
            preds = set()
            if g.kind != BARRIER:  # a barrier orders nothing
                preds = {last[q] for q in g.qubits if q in last}
                for q in g.qubits:
                    last[q] = g.id
            for p in preds:
                self.successors[p].append(g.id)
            self.waiting[g.id] = len(preds)
            if not preds:
                self._make_ready(g.id)
        self.left = len(program.gates)

    def _make_ready(self, gid: int):
        g = self.program.gates[gid]
        self.ready.setdefault((g.kind, g.qubits, g.params), []).append(gid)

    def take(self, kind: str, qubits: tuple, params: tuple) -> bool:
        ids = self.ready.get((kind, qubits, params))
        if not ids:
            return False
        gid = ids.pop(0)
        self.left -= 1
        for s in self.successors[gid]:
            self.waiting[s] -= 1
            if self.waiting[s] == 0:
                self._make_ready(s)
        return True


def check_combined(programs, combined: QuantumProgram, initial_sigmas, final_layouts, graph) -> int:
    """Check a compiled physical circuit against its programs at any chip size.

    Tracks which (program, logical qubit) each physical qubit holds, starting
    from the initial layouts. A gate that matches a ready gate of the program
    occupying its qubits is read as that gate; otherwise it must open a SWAP
    triple cx(a,b) cx(b,a) cx(a,b) on a coupling edge, which exchanges the two
    occupants. Every program gate must appear exactly once, after the earlier
    gates on its qubits, every CX on a coupling edge, and the occupancy at the
    end must equal the reported final layouts. Returns the SWAPs read.
    """
    occupant: dict[int, tuple[int, int]] = {}
    for i, sigma in enumerate(initial_sigmas):
        for logical, phys in sigma.items():
            if phys in occupant:
                raise CheckFailed(f"physical qubit {phys} placed twice")
            occupant[phys] = (i, logical)
    progress = [_Progress(p) for p in programs]
    gates = combined.gates
    swaps = 0
    k = 0
    while k < len(gates):
        g = gates[k]
        owners = [occupant.get(p) for p in g.qubits]
        if all(o is not None and o[0] == owners[0][0] for o in owners):
            i = owners[0][0]
            logical = tuple(o[1] for o in owners)
            if progress[i].take(g.kind, logical, g.params):
                if g.kind == CNOT and not graph.has_edge(*g.qubits):
                    raise CheckFailed(f"gate {k}: cx on non-adjacent qubits {g.qubits}")
                k += 1
                continue
        if g.kind == CNOT and k + 2 < len(gates):
            a, b = g.qubits
            if gates[k + 1].kind == CNOT == gates[k + 2].kind and gates[k + 1].qubits == (b, a) and gates[k + 2].qubits == (a, b):
                if not graph.has_edge(a, b):
                    raise CheckFailed(f"gate {k}: swap on non-adjacent qubits ({a},{b})")
                oa, ob = occupant.pop(a, None), occupant.pop(b, None)
                if oa is not None:
                    occupant[b] = oa
                if ob is not None:
                    occupant[a] = ob
                swaps += 1
                k += 3
                continue
        raise CheckFailed(f"gate {k} ({g.kind} on {g.qubits}) matches no ready program gate and opens no swap")
    for i, prog in enumerate(progress):
        if prog.left:
            raise CheckFailed(f"program {programs[i].name}: {prog.left} gates never executed")
    for i, layout in enumerate(final_layouts):
        for logical, phys in layout.items():
            if occupant.get(phys) != (i, logical):
                raise CheckFailed(f"program {programs[i].name}: logical {logical} does not end on {phys}")
    return swaps


def check_compile(programs, backend, result) -> dict:
    """Gate for one compile_workload result (any policy, any chip size)."""
    report = result["report"]
    schedules = result["schedules"]
    reported = iter(report["programs"])
    swaps = 0
    for schedule, compiled in zip(schedules, result["compiled"], strict=True):
        layouts = [{int(k): v for k, v in next(reported)["final_layout"].items()} for _ in schedule.programs]
        swaps += check_combined(
            schedule.programs, compiled, schedule.initial.sigmas, layouts, backend.graph
        )
    if swaps != report["combined"]["swaps"]:
        raise CheckFailed(f"read {swaps} swaps, report claims {report['combined']['swaps']}")
    if {p.name for p in programs} != {p["name"] for p in report["programs"]}:
        raise CheckFailed("report does not cover the submitted programs")
    eq = report["equivalence"]
    if backend.n_qubits <= DEFAULT_QUBIT_CAP and not (eq["checked"] and eq["passed"]):
        raise CheckFailed(f"equivalence check under the cap: {eq}")
    combined = report["combined"]
    return {
        "digest": sha256("\n".join(s.to_json() for s in schedules)),
        "swaps": combined["swaps"],
        "post_gates": combined["post_gates"],
        "depth": combined["depth"],
        "verified": bool(eq["checked"] and eq["passed"]),
    }


def check_schedule(jobs, batches, epsilon: float, max_colocate: int) -> dict:
    """Gate for one schedule_tasks result: every job in exactly one batch, no
    batch over the co-location limit, every co-located job within the
    threshold, and disjoint regions inside each batch."""
    placed = sorted(j.id for b in batches for j in b.jobs)
    if placed != sorted(j.id for j in jobs):
        raise CheckFailed("batches do not cover the queue exactly once")
    violations = []
    for b in batches:
        if len(b.jobs) > max_colocate:
            raise CheckFailed(f"batch of {len(b.jobs)} jobs exceeds max_colocate {max_colocate}")
        if len(b.jobs) < 2:
            continue
        regions = [a.qubits for a in b.partition.assignments]
        if len(regions) != len(b.jobs) or sum(map(len, regions)) != len(frozenset().union(*regions)):
            raise CheckFailed("co-located jobs do not get disjoint regions")
        for j in b.jobs:
            v = b.decision_record[j.id]
            if not (v < epsilon or v <= 0.0) or not math.isclose(v, 1.0 - j.co_epst / j.ind_epst, abs_tol=1e-12):
                raise CheckFailed(f"job {j.id}: recorded violation {v} breaks the threshold or its estimates")
            violations.append(v)
    doc = [[[j.id, j.program.name, repr(b.decision_record.get(j.id))] for j in b.jobs] for b in batches]
    return {
        "digest": sha256(json.dumps(doc)),
        "jobs": len(placed),
        "batches": len(batches),
        "violations": violations,
    }


def check_noisy(exact, sampled, shots: int) -> dict:
    """Gate for the two noisy estimates of one compiled pair: probabilities,
    defined for the same programs, sampled within 5 sigma of exact."""
    if len(exact) != len(sampled):
        raise CheckFailed("exact and sampled estimates cover different programs")
    for e, s in zip(exact, sampled):
        if (e is None) != (s is None):
            raise CheckFailed("exact and sampled disagree on which modes are defined")
        if e is None:
            continue
        if not -1e-9 <= e <= 1 + 1e-9:
            raise CheckFailed(f"exact success probability {e} is not a probability")
        if abs(s - e) > 5 * math.sqrt(e * (1 - e) / shots) + 1.0 / shots:
            raise CheckFailed(f"sampled estimate {s} is over 5 sigma from exact {e}")
    return {
        "digest": sha256(repr((exact, sampled))),
        "success": [e for e in exact if e is not None],
    }
