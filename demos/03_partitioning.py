"""Build the community dendrogram of a chip and split it between programs.

Each merge step joins the pair of communities with the best reward:
modularity improvement plus a weighted bonus for reliable crossing links.
Programs then claim regions by climbing the tree, densest-in-CNOTs first.
"""
from qmultiprog import build_hierarchy_tree, partition_qubits
from qmultiprog.fixtures import load_benchmark, load_fixture_backend

london = load_fixture_backend("london")
tree = build_hierarchy_tree(london, omega=0.95)

print("merge history (london):")
for node in sorted(tree.internal_nodes(), key=lambda n: n.merge_step):
    print(f"  step {node.merge_step}: {sorted(node.qubits)}  reward {node.reward:.4f}")

# qubits 0 and 1 join first (most reliable link); 2 joins them even though
# the 1-3 link is better than 1-2, because absorbing the leaf keeps the
# community tight instead of wasting the hub

# raising the reward weight trades community tightness for raw fidelity and
# shrinks the dendrogram's average redundancy (unused qubits per claim)
from qmultiprog import average_redundancy

melbourne = load_fixture_backend("melbourne")
print("\naverage redundant qubits on melbourne:")
for omega in (0.0, 0.95, 2.5):
    tree = build_hierarchy_tree(melbourne, omega=omega)
    print(f"  omega {omega:4.2f}: {average_redundancy(tree):.3f}")

tokyo = load_fixture_backend("tokyo20")
tree = build_hierarchy_tree(tokyo)
programs = [load_benchmark("decod24-v2_43"), load_benchmark("4mod5-v1_22")]
partition = partition_qubits(tree, programs, tokyo)
print("\nregions on tokyo20:")
for assignment in partition.assignments:
    sigma = dict(sorted(assignment.sigma.items()))
    print(f"  {assignment.program.name:16s} -> {sorted(assignment.qubits)} "
          f"(avg fidelity {assignment.avg_fidelity:.4f})")
    print(f"      placement {sigma}")
if partition.unassigned:
    print("  unassigned:", [p.name for p in partition.unassigned])
