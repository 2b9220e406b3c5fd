import hashlib
import json
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BUNDLED,
    grid_graph,
    grid_queue,
    make_backend,
    partition_digest,
    random_graph,
    random_program,
    underflow_instance,
)
from qmultiprog import fixtures, partition, scheduler
from qmultiprog.hardware import random_backend
from qmultiprog.partition import build_hierarchy_tree, partition_qubits
from qmultiprog.scheduler import (
    Batch,
    Job,
    SchedulingError,
    epst,
    independent_epst,
    schedule_tasks,
    trf,
)


def test_epst_worked_example():
    # direct-arithmetic oracle for the mixed-rate product
    oracle = 0.98 ** 2 * 0.999 ** 6 * 0.97 ** 3
    backend = make_backend(3, [(0, 1), (1, 2)], cnot=0.02, oneq=0.001, readout=0.03)
    program = random_program("worked", 3, 2, 6, seed=1)
    assert epst(program, {0, 1, 2}, backend) == pytest.approx(oracle, abs=1e-6)


def test_epst_perfect_calibration_is_one():
    backend = make_backend(3, [(0, 1), (1, 2)], cnot=0.0, oneq=0.0, readout=0.0)
    program = random_program("perfect", 3, 5, 7, seed=2)
    assert epst(program, {0, 1, 2}, backend) == 1.0


def test_epst_region_too_small():
    backend = make_backend(3, [(0, 1), (1, 2)])
    program = random_program("big", 3, 2, 2, seed=3)
    with pytest.raises(SchedulingError):
        epst(program, {0, 1}, backend)


def test_epst_region_without_links_rejected_for_cnot_programs():
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3)])
    program = random_program("pair", 2, 1, 0, seed=4)
    with pytest.raises(SchedulingError):
        epst(program, {0, 3}, backend)
    # but a one-qubit-gate-only program is fine on an edgeless region
    lonely = random_program("lonely", 2, 0, 3, seed=5)
    assert epst(lonely, {0, 3}, backend) > 0


@pytest.mark.parametrize("category", ["cnot", "oneq", "readout"])
def test_epst_strictly_decreases_when_any_rate_rises(category):
    rng = random.Random(17)
    for probe in range(10):
        base = {
            "cnot": rng.uniform(0.005, 0.05),
            "oneq": rng.uniform(0.0005, 0.005),
            "readout": rng.uniform(0.01, 0.08),
        }
        bumped = dict(base)
        bumped[category] = base[category] + 0.01
        b0 = make_backend(3, [(0, 1), (1, 2)], **base)
        b1 = make_backend(3, [(0, 1), (1, 2)], **bumped)
        program = random_program(f"probe{probe}", 3, 4, 5, seed=probe)
        assert epst(program, {0, 1, 2}, b1) < epst(program, {0, 1, 2}, b0)


def test_independent_epst_empty_program_best_readout(london):
    from qmultiprog.circuit import QuantumProgram

    job = Job(id=0, program=QuantumProgram("empty", 1, ()))
    tree = build_hierarchy_tree(london)
    # readout errors rise with qubit index on this fixture, so qubit 0 wins
    assert independent_epst(job, tree, london) == pytest.approx(0.99)


def test_independent_epst_unassignable():
    backend = make_backend(2, [(0, 1)])
    job = Job(id=0, program=random_program("huge", 3, 2, 2, seed=6))
    tree = build_hierarchy_tree(backend)
    with pytest.raises(SchedulingError):
        independent_epst(job, tree, backend)


def _path4_backend(symmetric):
    if symmetric:
        return make_backend(
            4,
            [(0, 1), (1, 2), (2, 3)],
            cnot={(0, 1): 0.02, (1, 2): 0.10, (2, 3): 0.02},
            readout={0: 0.02, 1: 0.03, 2: 0.03, 3: 0.02},
            oneq={0: 0.001, 1: 0.002, 2: 0.002, 3: 0.001},
        )
    return make_backend(
        4,
        [(0, 1), (1, 2), (2, 3)],
        cnot={(0, 1): 0.01, (1, 2): 0.10, (2, 3): 0.04},
        readout={0: 0.01, 1: 0.02, 2: 0.05, 3: 0.09},
        oneq={0: 0.001, 1: 0.001, 2: 0.003, 3: 0.004},
    )


def _pair_jobs():
    a = random_program("job_a", 2, 3, 2, seed=7)
    b = random_program("job_b", 2, 3, 2, seed=7)  # identical gates, later name
    return [Job(id=0, program=a), Job(id=1, program=b)]


def test_solo_estimate_underflowing_to_zero_schedules():
    programs, backend = underflow_instance()
    jobs = [Job(id=i, program=p) for i, p in enumerate(programs)]
    batches = schedule_tasks(jobs, build_hierarchy_tree(backend), backend)
    assert [j.ind_epst for j in jobs] == [0.0, 0.0]
    # no relative loss is defined against 0.0, and sharing cannot lower it
    assert [b.decision_record for b in batches] == [{0: 0.0, 1: 0.0}]
    assert [j.co_epst for j in jobs] == [0.0, 0.0]


@pytest.mark.parametrize("epsilon", [5e-324, 0.15, 1.0])
def test_violation_equal_to_epsilon_is_refused(epsilon):
    assert not scheduler._acceptable(epsilon, epsilon)
    assert scheduler._acceptable(math.nextafter(epsilon, 0.0), epsilon)


def test_epsilon_zero_asymmetric_regions_all_singletons():
    backend = _path4_backend(symmetric=False)
    tree = build_hierarchy_tree(backend)
    batches = schedule_tasks(_pair_jobs(), tree, backend, epsilon=0.0)
    assert [len(b.jobs) for b in batches] == [1, 1]
    assert trf(batches) == 1.0
    statuses = [b.jobs[0].status for b in batches]
    assert statuses == ["independent", "independent"]


def test_epsilon_zero_symmetric_regions_still_batch():
    backend = _path4_backend(symmetric=True)
    tree = build_hierarchy_tree(backend)
    jobs = _pair_jobs()
    batches = schedule_tasks(jobs, tree, backend, epsilon=0.0)
    assert [len(b.jobs) for b in batches] == [2]
    # twin regions give bitwise-identical estimates: violation is exactly zero
    assert batches[0].decision_record == {0: 0.0, 1: 0.0}
    assert trf(batches) == 2.0
    assert all(j.status == "batched" for j in jobs)


def test_epsilon_one_ten_tiny_jobs_trf_two(melbourne):
    queue = [
        Job(id=k, program=random_program(f"tiny{k}", 2, 1, 1, seed=100 + k)) for k in range(10)
    ]
    tree = build_hierarchy_tree(melbourne)
    batches = schedule_tasks(queue, tree, melbourne, epsilon=1.0, max_colocate=2)
    assert [len(b.jobs) for b in batches] == [2] * 5
    assert trf(batches) == 2.0


def test_lookahead_and_colocation_caps():
    backend = _path4_backend(symmetric=True)
    tree = build_hierarchy_tree(backend)
    batches = schedule_tasks(_pair_jobs(), tree, backend, epsilon=1.0, lookahead=1)
    assert [len(b.jobs) for b in batches] == [1, 1]
    batches = schedule_tasks(_pair_jobs(), tree, backend, epsilon=1.0, max_colocate=1)
    assert [len(b.jobs) for b in batches] == [1, 1]


def test_unassignable_job_runs_independent():
    backend = make_backend(2, [(0, 1)])
    tree = build_hierarchy_tree(backend)
    queue = [
        Job(id=0, program=random_program("fits", 2, 2, 1, seed=8)),
        Job(id=1, program=random_program("too_big", 3, 2, 1, seed=9)),
    ]
    batches = schedule_tasks(queue, tree, backend, epsilon=1.0)
    assert [len(b.jobs) for b in batches] == [1, 1]
    assert queue[1].status == "independent"
    assert batches[1].partition is None
    assert batches[1].decision_record == {1: None}


def test_repeated_job_id_is_refused_before_any_estimate(melbourne, monkeypatch):
    # estimates and decision records are keyed by id: two jobs sharing id 0
    # would read each other's co-located estimate
    queue = [Job(0, fixtures.load_benchmark("alu-v0_27")), Job(0, fixtures.load_benchmark("bv_n3"))]
    tree = build_hierarchy_tree(melbourne)

    def estimate(*args, **kwargs):
        raise AssertionError("estimated before the queue was checked")

    monkeypatch.setattr(scheduler, "independent_epst", estimate)
    with pytest.raises(ValueError, match="job id 0 is repeated"):
        schedule_tasks(queue, tree, melbourne, epsilon=1.0)
    assert [j.ind_epst for j in queue] == [None, None]


def test_each_job_is_estimated_alone_once(monkeypatch):
    # too_big cannot be placed alone: it is a candidate in the first batch,
    # then the head of the second, and still estimated only once
    backend = make_backend(2, [(0, 1)])
    tree = build_hierarchy_tree(backend)
    queue = [
        Job(id=0, program=random_program("fits", 2, 2, 1, seed=8)),
        Job(id=1, program=random_program("too_big", 3, 2, 1, seed=9)),
        Job(id=2, program=random_program("fits_too", 2, 1, 1, seed=10)),
    ]
    calls = Counter()
    original = scheduler.independent_epst

    def counting(job, tree, backend, **kw):
        calls[job.id] += 1
        return original(job, tree, backend, **kw)

    monkeypatch.setattr(scheduler, "independent_epst", counting)
    batches = schedule_tasks(queue, tree, backend, epsilon=1.0)
    assert [[j.id for j in b.jobs] for b in batches] == [[0], [1], [2]]
    assert queue[1].ind_epst is None and batches[1].partition is None
    assert calls == {0: 1, 1: 1, 2: 1}


def test_value_equal_programs_are_estimated_alone_once(tokyo20, monkeypatch):
    # bv_n3 parsed twice: two program objects, one value, one solo estimate
    bv, peres, bv_again = (fixtures.load_benchmark(n) for n in ("bv_n3", "peres_3", "bv_n3"))
    assert bv == bv_again and bv is not bv_again
    tree = build_hierarchy_tree(tokyo20)
    queue = [Job(0, bv), Job(1, peres), Job(2, bv_again)]
    calls = Counter()
    original = scheduler.independent_epst

    def counting(job, tree, backend, **kw):
        calls[job.program.name] += 1
        return original(job, tree, backend, **kw)

    monkeypatch.setattr(scheduler, "independent_epst", counting)
    batches = schedule_tasks(queue, tree, tokyo20, epsilon=0.15, max_colocate=3)
    assert calls == {"bv_n3": 1, "peres_3": 1}
    assert queue[0].ind_epst == queue[2].ind_epst == original(Job(9, bv_again), tree, tokyo20)
    assert sorted(j.id for b in batches for j in b.jobs) == [0, 1, 2]


def test_reused_jobs_are_estimated_on_the_chip_they_are_scheduled_on(melbourne):
    # A job list scheduled on one calibration and then on another must carry
    # the second chip's solo estimates, so it batches and records exactly as
    # fresh jobs of the same programs do.
    programs = [fixtures.load_benchmark(n) for n in ("bv_n3", "bv_n4", "toffoli_3", "peres_3", "fredkin_3")]
    jobs = [Job(i, p) for i, p in enumerate(programs)]
    schedule_tasks(jobs, build_hierarchy_tree(melbourne), melbourne)
    other = random_backend(melbourne.graph, melbourne.calib, seed=7)
    tree = build_hierarchy_tree(other)

    def summary(batches):
        return [
            ([(j.id, j.status, j.ind_epst, j.co_epst) for j in b.jobs], sorted(b.decision_record.items()))
            for b in batches
        ]

    reused = summary(schedule_tasks(jobs, tree, other))
    assert reused == summary(schedule_tasks([Job(i, p) for i, p in enumerate(programs)], tree, other))


def test_trf_arithmetic():
    def batch_of(k, start):
        return Batch(
            jobs=tuple(Job(id=start + i, program=random_program(f"t{start+i}", 1, 0, 1, seed=1)) for i in range(k)),
            partition=None,
        )

    assert trf([batch_of(1, 0), batch_of(1, 1)]) == 1.0
    assert trf([batch_of(2, i * 2) for i in range(5)]) == 2.0
    ten_in_seven = [batch_of(2, 0), batch_of(2, 2), batch_of(2, 4)] + [
        batch_of(1, 6 + i) for i in range(4)
    ]
    assert trf(ten_in_seven) == pytest.approx(10 / 7)
    with pytest.raises(ValueError):
        trf([])


def test_epsilon_contract_holds_post_hoc(tokyo20):
    rng = random.Random(55)
    epsilon = 0.15
    for trial in range(5):
        backend = random_backend(tokyo20.graph, tokyo20.calib, seed=300 + trial)
        tree = build_hierarchy_tree(backend)
        queue = [
            Job(
                id=k,
                program=random_program(
                    f"q{trial}_{k}", rng.randint(2, 4), rng.randint(2, 12), rng.randint(1, 8), seed=rng.randrange(1 << 30)
                ),
            )
            for k in range(6)
        ]
        batches = schedule_tasks(queue, tree, backend, epsilon=epsilon)
        assert 1.0 <= trf(batches) <= 2.0  # default co-location cap
        for batch in batches:
            for violation in batch.decision_record.values():
                if violation is not None:
                    assert violation < epsilon or violation <= 0.0


def test_scheduling_is_deterministic(tokyo20):
    def run():
        queue = [
            Job(id=k, program=random_program(f"d{k}", 2 + (k % 3), 4 + k, 3, seed=400 + k))
            for k in range(6)
        ]
        tree = build_hierarchy_tree(tokyo20)
        batches = schedule_tasks(queue, tree, tokyo20, epsilon=0.2)
        return [[j.id for j in b.jobs] for b in batches]

    assert run() == run()


def test_competition_can_beat_the_solo_estimate(tokyo20):
    """The greedy region choice does not maximize the estimate itself, so a
    co-located run occasionally lands on a region with a better estimate than
    the solo run picked; the scheduler treats those as zero-cost admissions."""
    rng = random.Random(777)
    found = False
    for trial in range(10):
        backend = random_backend(tokyo20.graph, tokyo20.calib, seed=100 + trial)
        tree = build_hierarchy_tree(backend)
        queue = [
            Job(
                id=k,
                program=random_program(
                    f"c{trial}_{k}", rng.randint(2, 4), rng.randint(2, 10), rng.randint(1, 6), seed=rng.randrange(1 << 30)
                ),
            )
            for k in range(6)
        ]
        for batch in schedule_tasks(queue, tree, backend, epsilon=1.0, max_colocate=3):
            for job in batch.jobs:
                if job.ind_epst is not None and job.co_epst is not None:
                    if job.co_epst > job.ind_epst + 1e-12:
                        found = True
    assert found


def test_batch_partition_matches_fresh_partition(tokyo20):
    # each batch reuses its last accepted trial's partition instead of
    # partitioning again; it must be the partition its members would get
    rng = random.Random(91)
    for trial in range(3):
        backend = random_backend(tokyo20.graph, tokyo20.calib, seed=700 + trial)
        tree = build_hierarchy_tree(backend)
        queue = [
            Job(
                id=k,
                program=random_program(
                    f"p{trial}_{k}", rng.randint(2, 4), rng.randint(2, 10), rng.randint(1, 6), seed=rng.randrange(1 << 30)
                ),
            )
            for k in range(7)
        ]
        batches = schedule_tasks(queue, tree, backend, epsilon=0.3, max_colocate=3)
        assert any(len(b.jobs) > 1 for b in batches)
        for batch in batches:
            if batch.partition is None:  # head cannot be placed even alone
                continue
            fresh = partition_qubits(tree, [j.program for j in batch.jobs], backend)
            assert batch.partition == fresh
            for job in batch.jobs:
                region = next(a.qubits for a in fresh.assignments if a.program is job.program)
                assert job.co_epst == epst(job.program, region, backend)


def test_repeated_program_object_waits_for_a_later_batch(tokyo20):
    # a partition places each program object once, so a job whose program
    # is already in the batch is skipped instead of failing the trial
    bv, peres = fixtures.load_benchmark("bv_n3"), fixtures.load_benchmark("peres_3")
    tree = build_hierarchy_tree(tokyo20)
    for epsilon, expected in ((0.0, [[0], [1], [2]]), (0.15, [[0, 1], [2]]), (1.0, [[0, 1], [2]])):
        queue = [Job(0, bv), Job(1, peres), Job(2, bv)]
        batches = schedule_tasks(queue, tree, tokyo20, epsilon=epsilon, max_colocate=3)
        assert [[j.id for j in b.jobs] for b in batches] == expected
        for b in batches:
            assert len({id(j.program) for j in b.jobs}) == len(b.jobs)
            assert all(j.co_epst is not None for j in b.jobs)


# Batch membership, estimates, decision records and partitions of a 12-job
# bundled-circuit queue on an 8x8 grid under two calibrations drawn from
# melbourne's ranges (epsilon 0.15, lookahead 8, up to four co-located
# jobs). Pinned from the implementation that built chip-wide distance
# matrices, then re-pinned when region means began to sum their links in
# sorted order: every record equal to the old at rel 1e-12.
GOLDEN_GRID_SCHEDULES = {
    5: "6fcb8c117f253616",
    6: "c829b596ee9be826",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_GRID_SCHEDULES))
def test_golden_grid_schedules(seed, melbourne):
    backend = random_backend(grid_graph(8, 8), melbourne.calib, seed=seed)
    tree = build_hierarchy_tree(backend)
    queue = [Job(id=i, program=p) for i, p in enumerate(grid_queue(seed))]
    batches = schedule_tasks(queue, tree, backend, epsilon=0.15, lookahead=8, max_colocate=4)
    record = [
        {
            "jobs": [[j.id, j.program.name, j.status, j.ind_epst, j.co_epst] for j in b.jobs],
            "decisions": sorted(b.decision_record.items()),
            "regions": None
            if b.partition is None
            else [[a.program.name, sorted(a.sigma.items())] for a in b.partition.assignments],
        }
        for b in batches
    ]
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16] == GOLDEN_GRID_SCHEDULES[seed]


def _memo_free_schedule(queue, tree, backend, **kw):
    """schedule_tasks with every partition computed from scratch."""
    fresh = scheduler.partition_qubits

    def unshared(tree, programs, backend, *, _trials=None):
        return fresh(tree, programs, backend)

    with mock.patch.object(scheduler, "partition_qubits", unshared):
        return schedule_tasks(queue, tree, backend, **kw)


def _pool_program(spec):
    kind, arg = spec
    if kind == "bundled":
        return fixtures.load_benchmark(arg)
    n, n_cnot, n_1q, seed = arg
    return random_program(f"r{seed}", n, n_cnot, n_1q, seed=seed)


_BASE_CALIB = fixtures.load_fixture_backend("melbourne").calib


@st.composite
def _chips(draw):
    if draw(st.booleans()):
        backend = fixtures.load_fixture_backend(draw(st.sampled_from(["tokyo20", "cross9", "grid2x3", "london"])))
    else:
        n = draw(st.integers(3, 16))
        backend = random_backend(random_graph(n, draw(st.integers(0, 999))), _BASE_CALIB, seed=0)
    if draw(st.booleans()):
        backend = random_backend(backend.graph, _BASE_CALIB, seed=draw(st.integers(0, 999)))
    return backend


_POOL_SPECS = st.one_of(
    st.tuples(st.just("bundled"), st.sampled_from(BUNDLED)),
    st.tuples(
        st.just("random"),
        st.tuples(st.integers(2, 6), st.integers(0, 8), st.integers(0, 4), st.integers(0, 9)),
    ),
)


@settings(max_examples=60)
@given(
    backend=_chips(),
    specs=st.lists(_POOL_SPECS, min_size=2, max_size=5),
    picks=st.lists(st.integers(0, 4), min_size=3, max_size=10),
    epsilon=st.sampled_from([0.5, 1.0, 0.15, 0.0]),
    lookahead=st.integers(1, 8),
    max_colocate=st.integers(2, 4),
)
def test_shared_trials_match_fresh_partitions(backend, specs, picks, epsilon, lookahead, max_colocate):
    # Each job builds its circuit again, so repeats in the queue are distinct
    # objects with equal content, and random circuits of different shapes can
    # share a name: a table keyed by content or name would mix them up.
    programs = [_pool_program(specs[i % len(specs)]) for i in picks]
    tree = build_hierarchy_tree(backend)
    kw = dict(epsilon=epsilon, lookahead=lookahead, max_colocate=max_colocate)
    batches = schedule_tasks([Job(i, p) for i, p in enumerate(programs)], tree, backend, **kw)
    reference = _memo_free_schedule([Job(i, p) for i, p in enumerate(programs)], tree, backend, **kw)
    assert [[(j.id, j.status) for j in b.jobs] for b in batches] == [
        [(j.id, j.status) for j in b.jobs] for b in reference
    ]
    for batch in batches:
        if batch.partition is None:
            (job,) = batch.jobs
            with pytest.raises(SchedulingError):
                independent_epst(Job(job.id, job.program), tree, backend)
            assert batch.decision_record == {job.id: None}
            continue
        members = [j.program for j in batch.jobs]
        fresh = partition_qubits(tree, members, backend)
        assert partition_digest(batch.partition) == partition_digest(fresh)
        for job in batch.jobs:
            solo = partition_qubits(tree, [job.program], backend).assignments[0].qubits
            ind = epst(job.program, solo, backend)
            co = epst(job.program, fresh.assignment_for(job.program).qubits, backend)
            assert (job.ind_epst, job.co_epst) == (ind, co)
            assert batch.decision_record[job.id] == 1.0 - co / ind


@settings(max_examples=60)
@given(backend=_chips(), specs=st.lists(_POOL_SPECS, min_size=1, max_size=4))
def test_epst_never_raises_on_a_placed_program(backend, specs):
    # The scheduler estimates every placed program without a guard: a kept
    # placement has exactly n_qubits qubits, linked inside whenever the
    # program has CNOTs.
    tree = build_hierarchy_tree(backend)
    partition = partition_qubits(tree, [_pool_program(spec) for spec in specs], backend)
    for a in partition.assignments:
        assert len(a.qubits) == a.program.n_qubits
        assert 0.0 <= epst(a.program, a.qubits, backend) <= 1.0


def test_schedule_allocates_each_program_region_pair_once(melbourne, monkeypatch):
    backend = random_backend(grid_graph(8, 8), melbourne.calib, seed=5)
    tree = build_hierarchy_tree(backend)
    queue = [Job(id=i, program=p) for i, p in enumerate(grid_queue(5))]
    calls = Counter()
    original = partition.allocate

    def counting(program, region, backend):
        calls[id(program), frozenset(region)] += 1
        return original(program, region, backend)

    monkeypatch.setattr(partition, "allocate", counting)
    batches = schedule_tasks(queue, tree, backend, epsilon=0.15, lookahead=8, max_colocate=4)
    assert sum(len(b.jobs) for b in batches) == len(queue)
    assert calls and max(calls.values()) == 1
