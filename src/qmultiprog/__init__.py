"""Multi-programming qubit mapping toolkit.

Compiles several quantum programs onto one noisy chip: a community-detection
dendrogram partitions the physical qubits, a joint router inserts SWAPs that
may cross program boundaries, a fidelity-estimate scheduler decides which
queued programs share the chip, and an exact statevector simulator verifies
every compiled circuit.
"""

from .circuit import (
    Dag,
    Gate,
    QasmError,
    QuantumProgram,
    build_dag,
    critical_gates,
    front_layer,
    parse_program,
    parse_program_file,
    serialize_program,
)
from .hardware import (
    Backend,
    Calibration,
    CouplingGraph,
    UnreachableError,
    bfs_hops,
    load_backend,
    load_backend_file,
    random_backend,
)
from .partition import (
    DEFAULT_OMEGA,
    HierarchyNode,
    HierarchyTree,
    InitialMapping,
    Partition,
    PartitionError,
    allocate,
    average_redundancy,
    build_hierarchy_tree,
    frp_partition,
    max_redundant_qubits,
    merge_reward,
    modularity,
    partition_qubits,
)
from .routing import (
    CompiledCircuits,
    GlobalMapping,
    RoutingError,
    Schedule,
    SwapOp,
    UnroutableProgramError,
    baseline_route,
    decompose,
    mapping_from_partition,
    verify_equivalence,
    verify_schedule,
    xswap_route,
)
from .scheduler import (
    DEFAULT_EPSILON,
    DEFAULT_LOOKAHEAD,
    DEFAULT_MAX_COLOCATE,
    Batch,
    Job,
    SchedulingError,
    epst,
    independent_epst,
    schedule_tasks,
    trf,
)
from .sim import (
    QubitCapExceeded,
    apply_gate,
    gate_matrix,
    modal_outcome,
    noisy_output_distribution,
    noisy_success_probability,
    output_distribution,
    simulate_statevector,
)

__version__ = "0.1.0"
