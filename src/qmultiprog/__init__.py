"""Multi-programming qubit mapping toolkit.

Compiles several quantum programs onto one noisy chip: a community-detection
dendrogram partitions the physical qubits, a joint router inserts SWAPs that
may cross program boundaries, and a fidelity-estimate scheduler decides
which queued programs share the chip. Both routers and the certificate that
``routing.decompose`` checks on every compiled circuit read program order
from one place, ``circuit.qubit_lines``; an exact statevector simulator
checks a compile again on request.

The submodules (``circuit``, ``hardware``, ``partition``, ``routing``,
``scheduler``, ``sim``, ``cli``, ``fixtures``) are the API. The names below
are the pipeline's entry points, re-exported for short scripts.
"""

from .circuit import qubit_lines, serialize_program
from .hardware import bfs_hops, random_backend
from .partition import average_redundancy, build_hierarchy_tree, partition_qubits
from .routing import baseline_route, decompose, mapping_from_partition, verify_schedule, xswap_route

__version__ = "0.1.0"
