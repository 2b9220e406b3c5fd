"""Parse a circuit, inspect its size counts, and walk its program order.

Program order is kept per logical qubit (``qubit_lines``): the ids of the
gates on that qubit, the next one last. A gate is ready when it is next on
every one of its lines; the front layer is the set of ready CNOTs, and a
front gate is critical when one of its lines holds a later gate, so that
resolving it unlocks more gates. These two queries drive the routers in
demo 04.
"""
from qmultiprog import qubit_lines, serialize_program
from qmultiprog.circuit import CNOT
from qmultiprog.fixtures import load_benchmark

program = load_benchmark("toffoli_3")
print(f"{program.name}: {program.n_qubits} qubits, {program.n_cnot} CNOTs, "
      f"{program.gate_count} gates, CNOT density {program.cnot_density:.2f}")

lines, barriers = qubit_lines(program)
for q, line in enumerate(lines):
    print(f"qubit {q}: {len(line)} gates, next gate {line[-1]}")
edges = {(line[k + 1], line[k]) for line in lines for k in range(len(line) - 1)}
print(f"dependency edges: {len(edges)} (at most two per gate), barriers: {len(barriers)}")

layer = 0
while any(lines):
    heads = {line[-1] for line in lines if line}
    ready = {gid for gid in heads if all(lines[q][-1] == gid for q in program.gates[gid].qubits)}
    front = {gid for gid in ready if program.gates[gid].kind == CNOT}
    if front:
        critical = {gid for gid in front if any(len(lines[q]) > 1 for q in program.gates[gid].qubits)}
        print(f"layer {layer}: front CNOTs {sorted(front)}, critical {sorted(critical)}")
        layer += 1
    # ready non-CNOT gates never block; run them once no CNOT is ready
    for gid in front or ready:
        for q in program.gates[gid].qubits:
            lines[q].pop()

print("\nround-trip through the serializer:")
print(serialize_program(program)[:160], "...")
