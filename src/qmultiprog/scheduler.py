"""Success-rate estimation and the compilation-task batching loop.

Queued programs are batched greedily from the head of the queue: a candidate
joins the current batch only while every member's estimated success rate
stays within a relative threshold of what it would achieve running alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import QuantumProgram
from .hardware import Backend
from .partition import HierarchyTree, Partition, partition_qubits

DEFAULT_EPSILON = 0.15
DEFAULT_LOOKAHEAD = 8
DEFAULT_MAX_COLOCATE = 2


class SchedulingError(ValueError):
    pass


@dataclass
class Job:
    """A queued program with the success-rate estimates its last
    ``schedule_tasks`` call recorded."""

    id: int
    program: QuantumProgram
    ind_epst: float | None = None
    co_epst: float | None = None
    status: str = "queued"  # queued | batched | independent


@dataclass(frozen=True)
class Batch:
    """Jobs admitted to run together, with the partition that justified it and
    each job's recorded estimate violation."""

    jobs: tuple[Job, ...]
    partition: Partition | None
    decision_record: dict[int, float | None] = field(default_factory=dict)


def epst(program: QuantumProgram, region, backend: Backend) -> float:
    """Estimated probability of a successful trial on the given region:
    (mean CNOT fidelity)^#CNOTs * (mean 1q fidelity)^#1q * (mean readout
    fidelity)^#qubits, all means over the region's qubits/internal links."""
    region = set(region)
    if len(region) < program.n_qubits:
        raise SchedulingError(
            f"region of {len(region)} qubits is too small for {program.name}"
        )
    edges = backend.graph.links(region)
    if program.n_cnot > 0 and not edges:
        raise SchedulingError(
            f"region {sorted(region)} has no internal link but {program.name} has CNOTs"
        )
    f_2q = (
        sum(backend.calib.cnot_fidelity(a, b) for a, b in edges) / len(edges) if edges else 1.0
    )
    f_1q = sum(backend.calib.oneq_fidelity(q) for q in region) / len(region)
    f_ro = sum(backend.calib.readout_fidelity(q) for q in region) / len(region)
    return f_2q ** program.n_cnot * f_1q ** program.n_1q * f_ro ** program.n_qubits


def independent_epst(job: Job, tree: HierarchyTree, backend: Backend, *, _trials: dict | None = None) -> float:
    """Best estimate the job's program can reach with the chip to itself."""
    result = _co_epsts([job], tree, backend, _trials=_trials)
    if result is None:
        raise SchedulingError(f"{job.program.name} cannot be placed even alone")
    return result[1][job.id]


def _co_epsts(
    jobs, tree: HierarchyTree, backend: Backend, *, _trials: dict | None = None
) -> tuple[Partition, dict[int, float]] | None:
    """The joint partition of all jobs and each job's estimate under it, or
    None if any job cannot be placed alongside the others. A placed job's
    region fits it and is linked if it has CNOTs, so ``epst`` cannot fail."""
    partition = partition_qubits(tree, [j.program for j in jobs], backend, _trials=_trials)
    if partition.unassigned:
        return None
    return partition, {j.id: epst(j.program, partition.assignment_for(j.program).qubits, backend) for j in jobs}


def _violation(ind: float, co: float) -> float:
    """Relative loss of the co-located estimate against the solo one. A solo
    estimate that underflowed to 0.0 defines no relative loss, and sharing the
    chip cannot lower it, so its violation is 0.0."""
    return 1.0 - co / ind if ind else 0.0


def _acceptable(violation: float, epsilon: float) -> bool:
    # A co-location that costs nothing is always admissible, even at epsilon=0.
    return violation < epsilon or violation <= 0.0


def schedule_tasks(
    queue,
    tree: HierarchyTree,
    backend: Backend,
    epsilon: float = DEFAULT_EPSILON,
    lookahead: int = DEFAULT_LOOKAHEAD,
    max_colocate: int = DEFAULT_MAX_COLOCATE,
) -> list[Batch]:
    """Greedy head-of-queue batching.

    Seed a batch with the queue head, then scan up to ``lookahead`` positions,
    tentatively adding each job and recomputing every member's co-located
    estimate under a joint partition; a tentative addition that pushes any
    member's violation past ``epsilon`` is dropped. A job whose program object
    is already in the batch is skipped and waits for a later batch. Every job
    is estimated alone on ``backend`` before batching, whatever estimate it
    carries in, once per distinct program value (a program compares by
    value, so a circuit parsed twice is estimated once);
    a job that cannot be placed alone is never a candidate and runs alone
    when it reaches the head.

    Each (program, region) trial is scored once per call and reused by every
    later trial batch that offers the program the same region.

    Estimates and decision records are keyed by job id, so the ids must be
    distinct: a repeated id raises ValueError before anything is estimated.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if lookahead < 1 or max_colocate < 1:
        raise ValueError("lookahead and max_colocate must be at least 1")
    jobs: list[Job] = list(queue)
    ids = [j.id for j in jobs]
    if len(set(ids)) != len(ids):
        repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise ValueError(f"job id {repeated} is repeated; each job in the queue needs its own id")
    trials: dict = {}  # partition_qubits' scored trials; the jobs keep their programs alive
    solo: dict[QuantumProgram, float | None] = {}  # by value: equal programs place alike
    for job in jobs:
        if job.program not in solo:
            try:
                solo[job.program] = independent_epst(job, tree, backend, _trials=trials)
            except SchedulingError:
                solo[job.program] = None
        job.ind_epst = solo[job.program]
    batches: list[Batch] = []
    while jobs:
        head = jobs[0]
        if head.ind_epst is None:
            head.status = "independent"
            head.co_epst = None
            batches.append(Batch(jobs=(head,), partition=None, decision_record={head.id: None}))
            jobs = jobs[1:]
            continue
        members = [head]
        accepted = None
        for tentative in jobs[1:lookahead]:
            if len(members) == max_colocate:
                break
            if tentative.ind_epst is None or any(m.program is tentative.program for m in members):
                # Not placeable alone, or its program object is already in the
                # batch (a partition places each object once): it waits.
                continue
            trial = members + [tentative]
            result = _co_epsts(trial, tree, backend, _trials=trials)
            if result is None:
                continue
            if all(_acceptable(_violation(j.ind_epst, result[1][j.id]), epsilon) for j in trial):
                members, accepted = trial, result
        # The last accepted trial already partitioned exactly these members.
        final_partition, co = accepted or _co_epsts(members, tree, backend, _trials=trials)
        record: dict[int, float | None] = {}
        for job in members:
            job.co_epst = co[job.id]
            record[job.id] = _violation(job.ind_epst, job.co_epst)
            job.status = "batched" if len(members) > 1 else "independent"
        batches.append(Batch(jobs=tuple(members), partition=final_partition, decision_record=record))
        chosen = {id(j) for j in members}
        jobs = [j for j in jobs if id(j) not in chosen]
    return batches


def trf(batches) -> float:
    """Trial reduction factor: jobs executed per scheduling batch."""
    if not batches:
        raise ValueError("no batches")
    total = sum(len(b.jobs) for b in batches)
    return total / len(batches)
