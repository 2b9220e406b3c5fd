"""Batch a job queue by estimated fidelity, then compare compile policies.

A batch admits a candidate only while every member's estimated success rate
stays within the violation threshold of its solo estimate. The policy grid
at the end contrasts the greedy-utility partition + region-confined routing
stack against the dendrogram partition + joint routing stack.
"""
from qmultiprog import build_hierarchy_tree, random_backend
from qmultiprog.cli import compile_workload
from qmultiprog.fixtures import benchmark_names, load_benchmark, load_fixture_backend
from qmultiprog.scheduler import Job, schedule_tasks, trf

melbourne = load_fixture_backend("melbourne")
queue = [Job(id=i, program=load_benchmark(n)) for i, n in enumerate(sorted(benchmark_names()))]

tree = build_hierarchy_tree(melbourne)
batches = schedule_tasks(queue, tree, melbourne, epsilon=0.15, lookahead=8, max_colocate=2)
print(f"queue of {len(queue)} jobs -> {len(batches)} batches, trf={trf(batches):.3f}")
for i, batch in enumerate(batches):
    members = ", ".join(
        f"{j.program.name} (solo {j.ind_epst:.3f}, co {j.co_epst:.3f})" for j in batch.jobs
    )
    print(f"  batch {i}: {members}")

print("\npolicy comparison on a redrawn 20-qubit chip:")
tokyo = load_fixture_backend("tokyo20")
chip = random_backend(tokyo.graph, tokyo.calib, seed=11, name="tokyo#11")
workload = [load_benchmark("3_17_13"), load_benchmark("decod24-v2_43")]
for policy in ("baseline", "cdap-only", "xswap-only", "cdap-xswap"):
    combined = compile_workload(workload, chip, policy)["report"]["combined"]
    print(f"  {policy:12s} swaps={combined['swaps']:3d} "
          f"post gates={combined['post_gates']:3d} depth={combined['depth']}")
