"""Exact statevector simulation, used both as the correctness oracle for
compiled circuits and as a desk-scale stand-in for hardware success rates.

Convention: amplitudes are little-endian, qubit 0 is the least significant
bit of the basis-state index. Bitstring keys render qubit n-1 leftmost.

Kernel: a gate acts in place on slice views of a tensor with one axis of
length 2 per qubit, following a plan made once per matrix. The plan lists
the diagonal entries that only scale a slice and, for every other output
slice, its source slices and their coefficients; every mixed slice is
computed before any slice is written. The fixed gates, cx and their
conjugates are built (read-only) and planned once, on first use, not at
import; a parametrized gate is planned when it is applied or when its noisy
op is built. ``simulate_statevector`` evolves one buffer in place;
``apply_gate`` is the one-gate wrapper that copies. A program's ideal
distribution (``distribution_vector``) is simulated once and kept on the
program.

numpy is imported by the functions that compute with it, not by the
module, so importing the package, compiling, scheduling or building a
dendrogram never loads it.

A compiled circuit is only ever simulated on a backward light cone
(``light_cone``: walking its gates in reverse from some final-layout
qubits, every unitary gate that touches the set joins it with its qubits,
so a SWAP between two programs merges their cones), renumbered in
ascending order. ``_cones`` refuses a layout qubit outside the circuit and
a cone over the cap before anything is simulated. The equivalence check
(``verify_equivalence``) runs the cone of every layout at once,
``noisy_success_probability`` each program's own.

Noisy model: every gate fully depolarizes its operands with its calibration
error rate, and readout flips each bit with the qubit's readout error. Both
are local, so a program's marginal depends only on its cone. Two modes:

- exact: the cone's density matrix evolves in place as one [2]*(2m)
  tensor, at most ``DENSITY_BYTES``. U rho U^dagger acts through slice
  views of the row and column axes; depolarizing scales rho by 1 - r and
  adds r/2^k times the partial trace over the gate's k qubits to each
  diagonal block.
- sampled: one ``random.Random(seed)`` stream is consumed program by
  program in layout order. Each program draws every random number of its
  shots first, shot by shot in a fixed order (each of its cone's noisy
  gates' failure draw and, on failure, one Pauli ``randrange(4)`` per
  operand; the outcome draw; one readout draw per cone qubit, ascending),
  so the estimate depends only on the seed. Its shots then evolve as one
  (shots x 2^m) array, in chunks that keep the working set under
  ``TRAJECTORY_BYTES``; their outcomes are counted over the cone.

Both read a program's success as its cone distribution's marginal on its
layout at its ideal mode, divided by ``shots`` for the (exact) counts.
"""
from __future__ import annotations

import functools
import math
import random
from typing import TYPE_CHECKING, NamedTuple

from .circuit import CNOT, Gate, QuantumProgram, _placed
from .hardware import Backend

if TYPE_CHECKING:
    import numpy as np

DEFAULT_QUBIT_CAP = 12
HARD_QUBIT_CAP = 20
DENSITY_BYTES = 16 * 4**DEFAULT_QUBIT_CAP  # an exact cone's density matrix at most: 256 MiB
PRUNE_BELOW = 1e-15
MODE_TIE = 1e-12  # probability gap within which two outcomes tie for the mode
TOLERANCE = 1e-9  # total variation up to which verify_equivalence accepts

_SQ2 = 1.0 / math.sqrt(2.0)


class QubitCapExceeded(ValueError):
    pass


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a supported gate (2x2 for one-qubit kinds, 4x4 for cx)."""
    import numpy as np

    kind, p = gate.kind, gate.params
    fixed = _fixed().matrices
    if kind in fixed:
        return fixed[kind]
    if kind == "u1":
        return np.array([[1, 0], [0, np.exp(1j * p[0])]], dtype=complex)
    if kind == "u2":
        phi, lam = p
        return _SQ2 * np.array(
            [[1, -np.exp(1j * lam)], [np.exp(1j * phi), np.exp(1j * (phi + lam))]], dtype=complex
        )
    if kind == "u3":
        theta, phi, lam = p
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
            dtype=complex,
        )
    if kind == "rx":
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "ry":
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.array([[np.exp(-1j * p[0] / 2), 0], [0, np.exp(1j * p[0] / 2)]], dtype=complex)
    raise ValueError(f"no unitary for gate kind {kind!r}")


# --- the kernel: each matrix is planned once ----------------------------------
#
# A plan is (scales, mixed). ``scales`` holds (slice, coefficient) for each
# row whose only nonzero entry is a diagonal one other than 1; a row that is
# the identity's is left out. ``mixed`` holds (slice, sources) for every other
# row, with sources the (slice, coefficient) pairs of its nonzero entries in
# column order. Coefficients are the matrix entries themselves. Zero entries
# are left out, so a diagonal gate only scales slices and a CNOT only swaps
# two of them.

_Terms = tuple[tuple[int, complex], ...]
_Plan = tuple[_Terms, tuple[tuple[int, _Terms], ...]]


def _plan(matrix: np.ndarray) -> _Plan:
    scales, mixed = [], []
    for b, row in enumerate(matrix.tolist()):
        src = tuple((a, c) for a, c in enumerate(row) if c != 0)
        if len(src) == 1 and src[0][0] == b:
            if src[0][1] != 1:
                scales.append(src[0])
            continue
        mixed.append((b, src))
    return tuple(scales), tuple(mixed)


class _FixedGates(NamedTuple):
    matrices: dict[str, np.ndarray]  # read-only: gate_matrix hands them out
    plans: dict[str, _Plan]
    conj_plans: dict[str, _Plan]
    paulis: tuple[_Plan | None, ...]  # identity (None), x, y, z by Pauli index


@functools.cache
def _fixed() -> _FixedGates:
    """The unitaries of the parameter-free gates, their plans and their
    conjugates' plans, built on first use."""
    import numpy as np

    matrices = {
        "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
        "s": np.array([[1, 0], [0, 1j]], dtype=complex),
        "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
        "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
        "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
        # basis order |control target> with target the low bit
        CNOT: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    }
    for m in matrices.values():
        m.setflags(write=False)
    plans = {kind: _plan(m) for kind, m in matrices.items()}
    conj_plans = {kind: _plan(m.conj()) for kind, m in matrices.items()}
    return _FixedGates(matrices, plans, conj_plans, (None, plans["x"], plans["y"], plans["z"]))


def _gate_plan(gate: Gate, conj: bool = False) -> _Plan:
    """The plan of the gate's matrix, or of its conjugate with ``conj``."""
    fixed = _fixed()
    plan = (fixed.conj_plans if conj else fixed.plans).get(gate.kind)
    if plan is None:
        matrix = gate_matrix(gate)
        plan = _plan(matrix.conj() if conj else matrix)
    return plan


# Index tuples of the slice views, per (tensor rank, axes), filled on first
# use. Its size is bounded by the register sizes and operands simulated,
# never by gate parameters.
_BLOCK_INDEX: dict[tuple[int, tuple[int, ...]], tuple[tuple, ...]] = {}


def _block_index(ndim: int, axes: tuple[int, ...]) -> tuple[tuple, ...]:
    """One index per basis index of ``axes``, fixing those axes of a rank
    ``ndim`` tensor; axes[0] is the basis index's most significant bit. The
    trailing Ellipsis keeps a view even when every axis is fixed."""
    index = _BLOCK_INDEX.get((ndim, axes))
    if index is None:
        k = len(axes)
        rows = []
        for b in range(2**k):
            idx: list = [slice(None)] * ndim
            for i, ax in enumerate(axes):
                idx[ax] = (b >> (k - 1 - i)) & 1
            rows.append((*idx, ...))
        index = _BLOCK_INDEX[(ndim, axes)] = tuple(rows)
    return index


def _contract(tensor: np.ndarray, plan: _Plan, axes: tuple[int, ...]) -> None:
    """In place: apply a planned matrix to the given axes of ``tensor``
    (axes[0] is the matrix index's most significant bit). Every mixed slice
    is computed from the old slices before any slice is written."""
    views = [tensor[i] for i in _block_index(tensor.ndim, axes)]
    scales, mixed = plan
    new = []
    for _, src in mixed:
        a, c = src[0]
        out = views[a].copy() if c == 1 else views[a] * c
        for a, c in src[1:]:
            out += views[a] * c
        new.append(out)
    for b, c in scales:
        views[b] *= c
    for (b, _), out in zip(mixed, new):
        views[b][...] = out


def apply_gate(state: np.ndarray, gate: Gate, operands: tuple[int, ...] | None = None) -> np.ndarray:
    """Apply one unitary gate to a statevector, returning the new state; the
    input is left untouched. ``operands`` replaces the gate's own qubits and
    must name as many distinct qubits of the state."""
    if not gate.is_unitary:
        raise ValueError(f"gate kind {gate.kind!r} has no unitary action")
    n = int(round(math.log2(state.size)))
    qubits = gate.qubits if operands is None else tuple(operands)
    if len(qubits) != len(gate.qubits) or len(set(qubits)) != len(qubits) or not all(0 <= q < n for q in qubits):
        raise ValueError(f"operands {qubits} do not fit a {gate.kind} gate on a {n}-qubit state")
    out = state.astype(complex)
    _contract(out.reshape([2] * n), _gate_plan(gate), tuple(n - 1 - q for q in qubits))
    return out


def simulate_statevector(program: QuantumProgram) -> np.ndarray:
    """Run all unitary gates from |0...0> on one buffer; barriers and the
    terminal measures are skipped."""
    import numpy as np

    n = program.n_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    tensor = state.reshape([2] * n)
    for g in program.gates:
        if g.is_unitary:
            # axis of qubit q is n-1-q (little-endian); a CNOT matrix's basis
            # is |control target>, so the control comes first
            _contract(tensor, _gate_plan(g), tuple(n - 1 - q for q in g.qubits))
    return state


def bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def output_distribution(program: QuantumProgram, cap: int = DEFAULT_QUBIT_CAP) -> dict[str, float]:
    """Exact outcome probabilities of a program, keyed by bitstring
    (qubit n-1 leftmost). Entries below 1e-15 are pruned."""
    probs = distribution_vector(program, cap)
    n = program.n_qubits
    return {bitstring(i, n): float(p) for i, p in enumerate(probs) if p >= PRUNE_BELOW}


def check_cap(m: int, cap: int, what: str) -> None:
    """Refuse a register of ``m`` qubits above ``cap`` (itself at most
    ``HARD_QUBIT_CAP``); ``what`` names the qubits in the message."""
    if m > min(cap, HARD_QUBIT_CAP):
        raise QubitCapExceeded(f"{m} {what} exceed the simulation cap of {min(cap, HARD_QUBIT_CAP)}")


def distribution_vector(program: QuantumProgram, cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Outcome probabilities of a program by basis index. The cap is checked
    on every call; the vector is simulated on first use and kept on the
    program (an attribute, not a dataclass field, so == and hash ignore it),
    and every caller gets that one read-only vector."""
    import numpy as np

    check_cap(program.n_qubits, cap, "qubits")
    probs = getattr(program, "_distribution", None)
    if probs is None:
        probs = np.abs(simulate_statevector(program)) ** 2
        probs.flags.writeable = False
        object.__setattr__(program, "_distribution", probs)
    return probs


def marginal_distribution(probs: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Marginal over ``keep``, in the given order: bit j of the result indexes
    original qubit keep[j]. Entries are summed in index order."""
    import numpy as np

    idx = np.arange(probs.size)
    new_idx = np.zeros(probs.size, dtype=np.intp)
    for j, q in enumerate(keep):
        new_idx |= ((idx >> q) & 1) << j
    return np.bincount(new_idx, weights=probs, minlength=2 ** len(keep))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    import numpy as np

    return 0.5 * float(np.abs(p - q).sum())


# --- noisy execution model -------------------------------------------------------
#
# Both estimators share one op list, built once per call: for every unitary
# gate the plans of its matrix and of its conjugate, its operands and its
# calibration error rate (looked up on the physical operands). Each
# program's cone takes its gates' ops with the operands renumbered onto the
# cone's qubits in ascending order.

# Byte budget for the sampled estimator's working set. Shots are evolved in
# chunks of rows small enough that the chunk and the kernel's copies of it fit.
TRAJECTORY_BYTES = 32 << 20
# Per amplitude of a chunk: the chunk (16), the new slices a dense one-qubit
# gate computes (16) and its product temporary (8), the rows a Pauli error
# copies (16).
_WORKING_BYTES = 64

_Op = tuple[_Plan, _Plan, tuple[int, ...], float]


def _gate_error(gate: Gate, backend: Backend) -> float:
    if gate.kind == CNOT:
        return backend.calib.cnot_error[tuple(sorted(gate.qubits))]
    return backend.calib.oneq_error[gate.qubits[0]]


def _noisy_ops(program: QuantumProgram, backend: Backend) -> list[_Op]:
    """(plan, conjugate plan, operands, error rate) per unitary gate."""
    return [
        (_gate_plan(g), _gate_plan(g, conj=True), g.qubits, _gate_error(g, backend))
        for g in program.gates
        if g.is_unitary
    ]


def _depolarize(tensor: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...], rate: float) -> None:
    """In place: one failure event with probability ``rate`` fully
    depolarizes every involved qubit at once (not an independent coin per
    qubit): rho -> (1 - r) rho + r Tr_Q(rho) (x) I / 2^k."""
    k = len(rows)
    diagonal = [tensor[i] for i in _block_index(tensor.ndim, rows + cols)[:: 2**k + 1]]
    traced = diagonal[0].copy()
    for block in diagonal[1:]:
        traced += block
    traced *= rate / 2**k
    tensor *= 1.0 - rate
    for block in diagonal:
        block += traced


def _readout_flip(probs: np.ndarray, qubit: int, rate: float, n: int) -> np.ndarray:
    import numpy as np

    if rate == 0.0:
        return probs
    tensor = probs.reshape([2] * n)
    flipped = np.flip(tensor, axis=n - 1 - qubit)
    return ((1.0 - rate) * tensor + rate * flipped).reshape(-1)


def _exact_distribution(ops: list[_Op], register: list[int], backend: Backend) -> np.ndarray:
    """Outcome distribution over the physical qubits ``register``: rho evolves
    in place as one [2]*(2m) tensor (row axes first), then readout flips."""
    import numpy as np

    m = len(register)
    rho = np.zeros((2**m, 2**m), dtype=complex)
    rho[0, 0] = 1.0  # |0..0><0..0|
    tensor = rho.reshape([2] * (2 * m))
    for plan, conj, qubits, rate in ops:
        rows = tuple(m - 1 - q for q in qubits)
        cols = tuple(2 * m - 1 - q for q in qubits)
        _contract(tensor, plan, rows)
        _contract(tensor, conj, cols)
        if rate:
            _depolarize(tensor, rows, cols, rate)
    diag = rho.diagonal().real.copy()
    for i, q in enumerate(register):
        diag = _readout_flip(diag, i, backend.calib.readout_error[q], m)
    return diag


def modal_outcome(dist: np.ndarray) -> int | None:
    """Index of the unique most likely outcome, or None when the mode is
    ambiguous (several outcomes tie within ``MODE_TIE``)."""
    import numpy as np

    best = float(dist.max())
    winners = np.flatnonzero(dist >= best - MODE_TIE)
    return int(winners[0]) if winners.size == 1 else None


def _draw_shots(ops: list[_Op], readout: list[tuple[float, int]], shots: int, rng: random.Random):
    """Every random number of every shot, in per-shot order: for each noisy
    gate its failure draw and, on failure, one Pauli ``randrange(4)`` per
    operand; then the outcome draw; then one readout draw per qubit. None of
    them depends on the state. Returns the Pauli errors per op index as
    (shot, local qubit, pauli) arrays, the outcome uniforms and the readout
    flip mask of each shot (``readout`` pairs a rate with its local bit)."""
    import numpy as np

    rand, pick = rng.random, rng.randrange
    noisy = [(i, qubits, rate) for i, (_, _, qubits, rate) in enumerate(ops) if rate > 0.0]
    events: dict[int, list[tuple[int, int, int]]] = {}
    uniforms, flips = [], []
    for shot in range(shots):
        for i, qubits, rate in noisy:
            if rand() < rate:
                for q in qubits:
                    p = pick(4)
                    if p:
                        events.setdefault(i, []).append((shot, q, p))
        uniforms.append(rand())
        mask = 0
        for rate, bit in readout:
            if rand() < rate:
                mask |= bit
        flips.append(mask)
    errors = {i: tuple(np.array(ev).T) for i, ev in events.items()}
    return errors, np.array(uniforms), np.array(flips, dtype=np.int64)


def _sampled_outcomes(ops: list[_Op], m: int, errors, uniforms: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Measured register index (before readout error) of shots lo..hi-1,
    evolved together as one (shots x 2^m) array."""
    import numpy as np

    paulis = _fixed().paulis
    state = np.zeros((hi - lo, 2**m), dtype=complex)
    state[:, 0] = 1.0
    tensor = state.reshape((hi - lo,) + (2,) * m)  # axis of local qubit q: m - q
    for i, (plan, _, qubits, _) in enumerate(ops):
        _contract(tensor, plan, tuple(m - q for q in qubits))
        if i not in errors:
            continue
        shot, qubit, pauli = errors[i]
        in_chunk = (shot >= lo) & (shot < hi)
        for q in qubits:
            for p in (1, 2, 3):
                rows = shot[in_chunk & (qubit == q) & (pauli == p)] - lo
                if rows.size:
                    hit = tensor[rows]
                    _contract(hit, paulis[p], (m - q,))
                    tensor[rows] = hit
    probs = np.abs(state)
    del state, tensor
    probs *= probs
    probs /= probs.sum(axis=1, keepdims=True)
    np.cumsum(probs, axis=1, out=probs)
    # count of cumulative entries <= u is searchsorted(cumulative, u, "right")
    drawn = np.count_nonzero(probs <= uniforms[lo:hi, None], axis=1)
    return np.minimum(drawn, 2**m - 1)


def light_cone(compiled: QuantumProgram, qubits) -> tuple[list[int], list[int]]:
    """Backward light cone of ``qubits`` in a compiled circuit. Walking its
    unitary gates in reverse, a gate that touches the set joins the cone and
    its qubits join the set, so a SWAP between two programs merges their
    cones. Returns the cone's qubits in ascending order and its gates' ids
    in circuit order. Under the failure model, the outcome distribution on
    ``qubits`` depends only on these gates."""
    live = set(qubits)
    ids = []
    for g in reversed(compiled.gates):
        if g.is_unitary and not live.isdisjoint(g.qubits):
            live.update(g.qubits)
            ids.append(g.id)
    return sorted(live), ids[::-1]


def _cones(compiled: QuantumProgram, layouts, wanted, cap: int) -> list[tuple[list[int], list[int]] | None]:
    """``light_cone`` of each qubit set in ``wanted`` (None: no cone). First
    refuses a qubit of ``layouts`` outside the circuit (ValueError), then any
    cone over ``cap`` (QubitCapExceeded), before anything is simulated."""
    n = compiled.n_qubits
    top = max((q for layout in layouts for q in layout.values()), default=-1)
    if top >= n:
        raise ValueError(f"layout qubit {top} is outside the {n}-qubit circuit")
    cones = [None if qubits is None else light_cone(compiled, qubits) for qubits in wanted]
    for qubits, _ in filter(None, cones):
        check_cap(len(qubits), cap, "cone qubits")
    return cones


def verify_equivalence(
    programs, compiled: QuantumProgram, final_layouts, limit: int = DEFAULT_QUBIT_CAP
) -> tuple[bool, float]:
    """Check the compiled physical circuit against exact simulation.

    Simulates the gates of the light cone of every final-layout qubit
    (``light_cone``), renumbered in ascending order, from |0..0>;
    marginalizes the result onto every program's final layout, and compares
    with the tensor product of the programs' standalone output
    distributions. Returns (total variation <= ``TOLERANCE``, total
    variation). Raises ValueError unless there is one final layout per
    program, and QubitCapExceeded when the programs' own qubits, a lower
    bound checked before any gate is scanned, or the cone exceed ``limit``.
    """
    if len(programs) != len(final_layouts):
        raise ValueError(f"{len(programs)} programs but {len(final_layouts)} final layouts: one per program")
    import numpy as np

    check_cap(sum(p.n_qubits for p in programs), limit, "program qubits")
    [(qubits, ids)] = _cones(compiled, final_layouts, [[q for s in final_layouts for q in s.values()]], limit)
    local = {q: i for i, q in enumerate(qubits)}
    gates = (compiled.gates[j] for j in ids)
    cone = tuple(_placed(g, tuple(local[q] for q in g.qubits), i) for i, g in enumerate(gates))
    # a program has at least one qubit; an empty cone's idle one is summed away
    probs = np.abs(simulate_statevector(QuantumProgram("cone", len(qubits) or 1, cone))) ** 2
    keep: list[int] = []
    ideal = np.array([1.0])
    for program, layout in zip(programs, final_layouts):
        keep.extend(local[layout[q]] for q in sorted(layout))
        ideal = np.kron(distribution_vector(program, cap=limit), ideal)
    marginal = marginal_distribution(probs, len(qubits), keep)
    tv = total_variation(marginal, ideal)
    return tv <= TOLERANCE, tv


def noisy_success_probability(
    compiled: QuantumProgram,
    layouts: list[dict[int, int]],
    backend: Backend,
    ideal_distributions: list[np.ndarray],
    mode: str = "exact",
    shots: int = 8024,
    seed: int = 0,
    cap: int = DEFAULT_QUBIT_CAP,
) -> list[float | None]:
    """Per-program probability of observing its ideal modal outcome when the
    compiled physical circuit runs under the stochastic failure model.

    ``layouts`` maps each program's logical qubits to final physical qubits,
    and ``ideal_distributions`` holds each program's ideal distribution: one
    of each per program, in the same order, else ValueError.
    ``mode`` is "exact" (full mixed-state evolution) or "sampled" (``shots``
    trajectories with the given seed). Each program is simulated on its own
    light cone (``light_cone`` of its layout's qubits). The cap bounds every
    cone, not the chip the circuit was compiled for, and every cone is
    checked before anything is simulated: in exact mode a cone whose density
    (16 * 4**m bytes) exceeds ``DENSITY_BYTES`` raises QubitCapExceeded too.
    Sampled mode consumes one ``random.Random(seed)``
    stream in the order the module docstring gives. Programs with an
    ambiguous ideal mode get None and are not simulated.
    """
    import numpy as np

    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    if len(layouts) != len(ideal_distributions):
        raise ValueError(
            f"{len(layouts)} layouts but {len(ideal_distributions)} ideal distributions: one of each per program"
        )
    modes = [modal_outcome(d) for d in ideal_distributions]
    wanted = [None if modal is None else layout.values() for layout, modal in zip(layouts, modes)]
    cones = _cones(compiled, layouts, wanted, cap)
    if mode == "exact":
        for qubits, _ in filter(None, cones):
            if 16 * 4 ** len(qubits) > DENSITY_BYTES:
                raise QubitCapExceeded(
                    f"the density matrix of {len(qubits)} cone qubits takes {16 * 4 ** len(qubits)} bytes, "
                    f"over the budget of {DENSITY_BYTES}"
                )
    if not any(cones):
        return [None] * len(cones)
    # built once on physical operands, renumbered onto each cone below
    ops = dict(zip((g.id for g in compiled.gates if g.is_unitary), _noisy_ops(compiled, backend)))
    rng = random.Random(seed)
    estimates: list[float | None] = []
    for layout, modal, cone in zip(layouts, modes, cones):
        if cone is None:
            estimates.append(None)
            continue
        qubits, ids = cone
        m = len(qubits)
        local = {q: i for i, q in enumerate(qubits)}
        cone_ops = [
            (plan, conj, tuple(local[q] for q in operands), rate)
            for plan, conj, operands, rate in (ops[i] for i in ids)
        ]
        if mode == "exact":
            dist, total = _exact_distribution(cone_ops, qubits, backend), 1
        else:
            readout = [(backend.calib.readout_error[q], 1 << i) for i, q in enumerate(qubits)]
            errors, uniforms, flips = _draw_shots(cone_ops, readout, shots, rng)
            chunk = max(1, TRAJECTORY_BYTES // (_WORKING_BYTES * 2**m))
            dist, total = np.zeros(2**m, dtype=np.int64), shots
            for lo in range(0, shots, chunk):
                hi = min(lo + chunk, shots)
                outcome = _sampled_outcomes(cone_ops, m, errors, uniforms, lo, hi) ^ flips[lo:hi]
                dist += np.bincount(outcome, minlength=2**m)
        keep = [local[layout[q]] for q in sorted(layout)]
        estimates.append(float(marginal_distribution(dist, m, keep)[modal]) / total)
    return estimates
