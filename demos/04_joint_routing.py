"""Route two co-located programs jointly and separately, and compare.

The pinned instances reproduce the two classic situations where a SWAP that
crosses program boundaries wins: replacing one region-confined SWAP in each
program with a single exchange at the boundary, and cutting across a
neighbor's qubit instead of snaking through one's own region.
"""
from qmultiprog import baseline_route, decompose, xswap_route
from qmultiprog.fixtures import boundary_swap_instance, shortcut_swap_instance
from qmultiprog.routing import SwapOp


def describe(label, schedule):
    swaps = [(s.key(), s.swap_class) for s in schedule.swaps()]
    stats = decompose(schedule).stats
    print(f"  {label:14s} swaps={schedule.swap_count} {swaps}  "
          f"added CNOTs={stats['added_cnots']}  depth={stats['depth']}")


for name, instance in [("boundary swap", boundary_swap_instance), ("shortcut swap", shortcut_swap_instance)]:
    programs, mapping, backend = instance()
    print(f"{name} on {backend.name} "
          f"({' + '.join(f'{p.name}({p.n_qubits}q)' for p in programs)}):")
    describe("joint", xswap_route(programs, mapping, backend))
    describe("separate", baseline_route(programs, mapping, backend))
    print()

# the joint schedule interleaves gates and the one crossing swap
programs, mapping, backend = boundary_swap_instance()
schedule = xswap_route(programs, mapping, backend)
print("joint event stream (grid2x3):")
for event in schedule.events:
    if isinstance(event, SwapOp):
        print(f"  SWAP {event.key()} [{event.swap_class}]")
    else:
        kind = programs[event.program].gates[event.gate_id].kind
        print(f"  P{event.program} {kind:8s} phys {event.phys}")
