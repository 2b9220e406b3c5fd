"""Parse a circuit, inspect its size counts, and walk its dependency DAG.

A gate is ready when all its dependencies have executed; the front layer is
the set of ready CNOTs, and a front gate is critical when resolving it
unlocks more gates. These two queries drive the routers in demos 04.
"""
from qmultiprog import build_dag, critical_gates, serialize_program
from qmultiprog.circuit import CNOT
from qmultiprog.fixtures import load_benchmark

program = load_benchmark("toffoli_3")
print(f"{program.name}: {program.n_qubits} qubits, {program.n_cnot} CNOTs, "
      f"{program.gate_count} gates, CNOT density {program.cnot_density:.2f}")

dag = build_dag(program)
edges = sum(len(preds) for preds in dag.predecessors.values())
print(f"dependency edges: {edges} (at most two per gate)")

executed = set()
layer = 0
while True:
    ready = [g.id for g in program.gates
             if g.id not in executed and dag.predecessors[g.id] <= executed]
    if not ready:
        break
    front = {gid for gid in ready if program.gates[gid].kind == CNOT}
    if not front:
        executed.update(ready)  # ready non-CNOT gates never block
        continue
    critical = critical_gates(dag, front)
    print(f"layer {layer}: front CNOTs {sorted(front)}, critical {sorted(critical)}")
    executed.update(front)
    layer += 1

print("\nround-trip through the serializer:")
print(serialize_program(program)[:160], "...")
