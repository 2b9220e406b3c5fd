"""Exact statevector simulation, used both as the correctness oracle for
compiled circuits and as a desk-scale stand-in for hardware success rates.

Convention: amplitudes are little-endian, qubit 0 is the least significant
bit of the basis-state index. Bitstring keys render qubit n-1 leftmost.
"""
from __future__ import annotations

import math
import random

import numpy as np

from .circuit import BARRIER, CNOT, MEASURE, Gate, QuantumProgram
from .hardware import Backend

DEFAULT_QUBIT_CAP = 12
HARD_QUBIT_CAP = 20
PRUNE_BELOW = 1e-15

_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED_1Q = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


class QubitCapExceeded(ValueError):
    pass


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a supported gate (2x2 for one-qubit kinds, 4x4 for cx)."""
    kind, p = gate.kind, gate.params
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind]
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
    if kind == CNOT:
        # basis order |control target> with target the low bit
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"no unitary for gate kind {kind!r}")


def _apply_matrix(state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a k-qubit unitary to the given qubits of an n-qubit state."""
    k = len(qubits)
    tensor = state.reshape([2] * n)
    # axis of qubit q is n-1-q (little-endian)
    axes = [n - 1 - q for q in qubits]
    op = matrix.reshape([2] * (2 * k))
    tensor = np.tensordot(op, tensor, axes=(list(range(k, 2 * k)), axes))
    # tensordot moved the acted-on axes to the front; transpose them back
    remaining = [a for a in range(n) if a not in axes]
    perm = [0] * n
    for i, a in enumerate(axes):
        perm[a] = i
    for i, a in enumerate(remaining):
        perm[a] = k + i
    return tensor.transpose(perm).reshape(-1)


def apply_gate(state: np.ndarray, gate: Gate, operands: tuple[int, ...] | None = None) -> np.ndarray:
    """Apply one unitary gate to a statevector, returning the new state."""
    if not gate.is_unitary:
        raise ValueError(f"gate kind {gate.kind!r} has no unitary action")
    n = int(round(math.log2(state.size)))
    qubits = gate.qubits if operands is None else operands
    if any(q >= n for q in qubits):
        raise ValueError(f"operand {qubits} out of range for {n}-qubit state")
    if gate.kind == CNOT:
        # matrix basis is |control target>, so pass (control, target)
        return _apply_matrix(state, gate_matrix(gate), (qubits[0], qubits[1]), n)
    return _apply_matrix(state, gate_matrix(gate), qubits, n)


def simulate_statevector(program: QuantumProgram) -> np.ndarray:
    """Run all unitary gates from |0...0>; measures and barriers are skipped."""
    state = np.zeros(2 ** program.n_qubits, dtype=complex)
    state[0] = 1.0
    for g in program.gates:
        if g.kind in (MEASURE, BARRIER):
            continue
        state = apply_gate(state, g)
    return state


def bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def output_distribution(program: QuantumProgram, cap: int = DEFAULT_QUBIT_CAP) -> dict[str, float]:
    """Exact outcome probabilities of a program, keyed by bitstring
    (qubit n-1 leftmost). Entries below 1e-15 are pruned."""
    probs = distribution_vector(program, cap)
    n = program.n_qubits
    return {bitstring(i, n): float(p) for i, p in enumerate(probs) if p >= PRUNE_BELOW}


def distribution_vector(program: QuantumProgram, cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    if program.n_qubits > min(cap, HARD_QUBIT_CAP):
        raise QubitCapExceeded(
            f"{program.n_qubits} qubits exceed the simulation cap of {min(cap, HARD_QUBIT_CAP)}"
        )
    return np.abs(simulate_statevector(program)) ** 2


def marginal_distribution(probs: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Marginal over ``keep``, in the given order: bit j of the result indexes
    original qubit keep[j]."""
    out = np.zeros(2 ** len(keep))
    for idx in range(probs.size):
        p = probs[idx]
        if p == 0.0:
            continue
        new_idx = 0
        for j, q in enumerate(keep):
            new_idx |= ((idx >> q) & 1) << j
        out[new_idx] += p
    return out


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


# --- noisy execution model -------------------------------------------------------


def _gate_error(gate: Gate, operands: tuple[int, ...], backend: Backend) -> float:
    if gate.kind == CNOT:
        a, b = operands
        return backend.calib.cnot_error[(min(a, b), max(a, b))]
    return backend.calib.oneq_error[operands[0]]


def _density_apply_unitary(rho: np.ndarray, gate: Gate, operands: tuple[int, ...], n: int) -> np.ndarray:
    """rho -> U rho U^dagger, with rho flattened as a 2n-qubit vector whose low
    n bits index columns and high n bits index rows."""
    row_ops = tuple(n + q for q in operands)
    col_ops = operands
    mat = gate_matrix(gate)
    flat = rho.reshape(-1)
    flat = _apply_matrix(flat, mat, row_ops, 2 * n)
    flat = _apply_matrix(flat, mat.conj(), col_ops, 2 * n)
    return flat


def _replace_with_mixed(rho_flat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Unconditionally replace one qubit's state by I/2 (trace out, re-embed)."""
    tensor = rho_flat.reshape([2] * (2 * n))
    row_ax = 2 * n - 1 - (n + qubit)
    col_ax = 2 * n - 1 - qubit
    traced = np.trace(tensor, axis1=row_ax, axis2=col_ax)  # shape [2]*(2n-2)
    out = np.zeros_like(tensor)
    idx: list = [slice(None)] * (2 * n)
    for b in (0, 1):
        idx[row_ax] = b
        idx[col_ax] = b
        out[tuple(idx)] = traced / 2.0
    return out.reshape(-1)


def _density_depolarize(rho_flat: np.ndarray, qubits, rate: float, n: int) -> np.ndarray:
    """One failure event with probability ``rate`` fully depolarizes every
    involved qubit at once (not an independent coin per qubit)."""
    if rate == 0.0:
        return rho_flat
    mixed = rho_flat
    for q in qubits:
        mixed = _replace_with_mixed(mixed, q, n)
    return (1.0 - rate) * rho_flat + rate * mixed


def _readout_flip(probs: np.ndarray, qubit: int, rate: float, n: int) -> np.ndarray:
    if rate == 0.0:
        return probs
    tensor = probs.reshape([2] * n)
    flipped = np.flip(tensor, axis=n - 1 - qubit)
    return ((1.0 - rate) * tensor + rate * flipped).reshape(-1)


def noisy_output_distribution(program: QuantumProgram, backend: Backend, cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Exact outcome distribution under the stochastic failure model: every
    gate independently depolarizes its operands with its calibration error
    rate, and readout flips each bit with the qubit's readout error."""
    n = program.n_qubits
    if n > min(cap, HARD_QUBIT_CAP):
        raise QubitCapExceeded(f"{n} qubits exceed the simulation cap")
    rho = np.zeros(4 ** n, dtype=complex)
    rho[0] = 1.0  # |0..0><0..0| flattened
    for g in program.gates:
        if g.kind in (MEASURE, BARRIER):
            continue
        rho = _density_apply_unitary(rho, g, g.qubits, n)
        rho = _density_depolarize(rho, g.qubits, _gate_error(g, g.qubits, backend), n)
    diag = rho.reshape(2 ** n, 2 ** n).diagonal().real.copy()
    for q in range(n):
        diag = _readout_flip(diag, q, backend.calib.readout_error[q], n)
    return diag


def modal_outcome(dist: np.ndarray, tol: float = 1e-12) -> int | None:
    """Index of the unique most likely outcome, or None when the mode is
    ambiguous (several outcomes tie within ``tol``)."""
    best = float(dist.max())
    winners = np.flatnonzero(dist >= best - tol)
    return int(winners[0]) if winners.size == 1 else None


def _sample_trajectory(program: QuantumProgram, backend: Backend, rng: random.Random) -> int:
    n = program.n_qubits
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    paulis = [None, "x", "y", "z"]
    for g in program.gates:
        if g.kind in (MEASURE, BARRIER):
            continue
        state = apply_gate(state, g)
        err = _gate_error(g, g.qubits, backend)
        if err > 0.0 and rng.random() < err:
            for q in g.qubits:
                p = paulis[rng.randrange(4)]
                if p is not None:
                    state = apply_gate(state, Gate(p, (q,), (), id=-1), (q,))
    probs = np.abs(state) ** 2
    cumulative = np.cumsum(probs / probs.sum())
    outcome = min(int(np.searchsorted(cumulative, rng.random(), side="right")), probs.size - 1)
    for q in range(n):
        if rng.random() < backend.calib.readout_error[q]:
            outcome ^= 1 << q
    return outcome


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

    ``layouts`` maps each program's logical qubits to final physical qubits.
    ``mode`` is "exact" (full mixed-state evolution) or "sampled" (``shots``
    trajectories with the given seed). Programs with an ambiguous ideal mode
    get None.
    """
    n = compiled.n_qubits
    if n > min(cap, HARD_QUBIT_CAP):
        raise QubitCapExceeded(f"{n} qubits exceed the simulation cap")
    modes = [modal_outcome(d) for d in ideal_distributions]
    if mode == "exact":
        phys = noisy_output_distribution(compiled, backend, cap=cap)
        results: list[float | None] = []
        for layout, modal in zip(layouts, modes):
            if modal is None:
                results.append(None)
                continue
            keep = [layout[q] for q in sorted(layout)]
            marg = marginal_distribution(phys, n, keep)
            results.append(float(marg[modal]))
        return results
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    hits = [0] * len(layouts)
    for _ in range(shots):
        outcome = _sample_trajectory(compiled, backend, rng)
        for i, (layout, modal) in enumerate(zip(layouts, modes)):
            if modal is None:
                continue
            bits = 0
            for j, q in enumerate(sorted(layout)):
                bits |= ((outcome >> layout[q]) & 1) << j
            if bits == modal:
                hits[i] += 1
    return [None if m is None else h / shots for h, m in zip(hits, modes)]
