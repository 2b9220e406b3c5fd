"""Load chip descriptions and compare chip-wide vs region-restricted hops.

Both views come from one breadth-first search, ``bfs_hops``: the hop row of
one source qubit, optionally confined to a qubit subset. The gap between the
two is exactly what the joint router exploits: a CNOT whose operands are far apart inside their own region may
have a short path through a neighbor program's qubits.
"""
from qmultiprog import bfs_hops, random_backend
from qmultiprog.fixtures import shortcut_swap_instance, load_fixture_backend

london = load_fixture_backend("london")
print(f"{london.name}: {london.n_qubits} qubits, edges {sorted(london.graph.edges)}")
for (a, b), rate in sorted(london.calib.cnot_error.items()):
    print(f"  link {a}-{b}: CNOT error {rate:.3f}")

programs, mapping, cross9 = shortcut_swap_instance()
region = set(mapping.region(0))
full = bfs_hops(cross9.graph, 0)
restricted = bfs_hops(cross9.graph, 0, region)
print(f"\n{cross9.name}: program 0 occupies {sorted(region)}")
print(f"corner-to-corner hops, whole chip:     {full[8]}")
print(f"corner-to-corner hops, region only:    {restricted[8]}")
print("the difference is the SWAPs saved by cutting across")
outside = sorted(q for q in range(cross9.n_qubits) if q not in restricted)
print(f"qubits the region-confined search cannot reach: {outside}")

# synthetic calibrations redraw every rate uniformly within observed ranges
melbourne = load_fixture_backend("melbourne")
redrawn = random_backend(melbourne.graph, melbourne.calib, seed=7)
worst = max(redrawn.calib.cnot_error.values())
best = min(redrawn.calib.cnot_error.values())
print(f"\nredrawn melbourne calibration: CNOT error spread {best:.4f}..{worst:.4f}")
