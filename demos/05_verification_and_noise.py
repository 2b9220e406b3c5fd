"""Verify a compiled co-location exactly, then estimate its noisy success.

``decompose`` certifies every compiled circuit as it builds it: each program
gate must come once, in program order on each of its logical qubits, on the
qubits the replayed SWAPs have moved them to. That proof needs no simulation
and holds on any chip. This demo also checks the circuit independently by
exact simulation: the output distribution, marginalized onto each program
through its final layout, must equal the product of the programs'
standalone distributions. The simulator only ever runs a backward light
cone: the gates some final qubits depend on. The check runs the cone of
every program's final qubits at once. The same simulator also drives a
stochastic failure model (each gate depolarizes its operands with its
calibration error rate) to approximate hardware success, and each
program's estimate runs its own cone. A crossing SWAP pulls the other
program's qubits into the cone.
"""
import numpy as np

from qmultiprog import decompose, verify_schedule, xswap_route
from qmultiprog.fixtures import boundary_swap_instance
from qmultiprog.sim import distribution_vector, light_cone, noisy_success_probability

programs, mapping, backend = boundary_swap_instance()
schedule = xswap_route(programs, mapping, backend)
equivalent, deviation = verify_schedule(schedule)
print(f"equivalence: {equivalent} (total variation {deviation:.2e})")

compiled = decompose(schedule)
layouts = [dict(s) for s in schedule.final.sigmas]
ideals = [distribution_vector(p) for p in programs]

exact = noisy_success_probability(compiled.combined, layouts, backend, ideals, mode="exact")
sampled = noisy_success_probability(
    compiled.combined, layouts, backend, ideals, mode="sampled", shots=8024, seed=3
)
print("\nper-program success probability under the failure model:")
for program, layout, ideal, e, s in zip(programs, layouts, ideals, exact, sampled):
    ceiling = float(np.max(ideal))
    cone, _ = light_cone(compiled.combined, layout.values())
    print(f"  {program.name}: light cone of {len(cone)} qubits {cone} "
          f"(of {compiled.combined.n_qubits} on the chip)")
    if e is None:
        # two outcomes tie for the ideal mode, so "success" is undefined
        print(f"    ideal mode ambiguous (ceiling {ceiling:.3f}), skipped")
    else:
        print(f"    ideal ceiling {ceiling:.3f}, exact {e:.3f}, sampled(8024) {s:.3f}")
