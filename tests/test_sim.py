import itertools
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    BUNDLED,
    make_backend,
    noisy_output_distribution,
    random_program,
    reference_active_qubits,
    reference_blocks,
    reference_contract,
    reference_hits,
    reference_light_cone,
)
from qmultiprog import sim
from qmultiprog import fixtures
from qmultiprog.circuit import ONE_QUBIT_GATES, PARAM_COUNTS, Gate, QuantumProgram, parse_program
from qmultiprog.sim import (
    QubitCapExceeded,
    apply_gate,
    distribution_vector,
    gate_matrix,
    marginal_distribution,
    modal_outcome,
    noisy_success_probability,
    output_distribution,
    simulate_statevector,
    total_variation,
    verify_equivalence,
)


def state(n, index=0):
    vec = np.zeros(2 ** n, dtype=complex)
    vec[index] = 1.0
    return vec


def test_x_flips_zero():
    out = apply_gate(state(1), Gate("x", (0,), (), 0))
    assert out[1] == pytest.approx(1.0)


def test_cnot_flips_target_when_control_set():
    # state |control=1, target=0> on qubits (1, 0): index 0b10 = 2
    out = apply_gate(state(2, index=2), Gate("cx", (1, 0), (), 0))
    assert out[3] == pytest.approx(1.0)  # -> |11>
    # control clear: nothing happens
    out = apply_gate(state(2, index=1), Gate("cx", (1, 0), (), 0))
    assert out[1] == pytest.approx(1.0)


def test_little_endian_convention():
    # x on qubit 0 sets the least significant bit
    out = apply_gate(state(2), Gate("x", (0,), (), 0))
    assert out[1] == pytest.approx(1.0)
    out = apply_gate(state(2), Gate("x", (1,), (), 0))
    assert out[2] == pytest.approx(1.0)


def test_hadamard_involution():
    psi = state(1)
    for _ in range(2):
        psi = apply_gate(psi, Gate("h", (0,), (), 0))
    assert abs(psi[0] - 1.0) < 1e-12


def test_measure_has_no_unitary():
    with pytest.raises(ValueError):
        apply_gate(state(1), Gate("measure", (0,), (), 0))


@pytest.mark.parametrize(
    "kind, operands",
    [
        ("cx", (0, 0)),  # a repeated operand
        ("cx", (1, -1)),  # a negative one
        ("x", (-1,)),
        ("cx", (0,)),  # too few
        ("x", (0, 1)),  # too many
        ("h", (2,)),  # past the register
    ],
)
def test_apply_gate_rejects_bad_operands(kind, operands):
    gate = Gate(kind, (0, 1) if kind == "cx" else (0,), (), 0)
    psi = state(2)
    with pytest.raises(ValueError, match=re.escape(str(operands))):
        apply_gate(psi, gate, operands)
    assert psi[0] == 1.0  # the input is left untouched


@pytest.mark.parametrize("kind", ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "cx"])
def test_fixed_gate_matrices_are_read_only(kind):
    # gate_matrix hands out the one shared array of a fixed kind, which the
    # simulator's plans are built from: an in-place edit must not reach them
    program = parse_program("qreg q[2]; h q[0]; x q[1]; y q[0]; z q[1]; s q[0]; sdg q[1]; t q[0]; tdg q[1]; cx q[0],q[1];")
    before = simulate_statevector(program)
    gate = Gate(kind, (0, 1) if kind == "cx" else (0,), (), 0)
    matrix = gate_matrix(gate)
    copy = matrix.copy()
    with pytest.raises(ValueError):
        matrix *= 2
    assert np.array_equal(gate_matrix(gate), copy)
    assert np.array_equal(simulate_statevector(program), before)


def test_norm_preserved_over_many_random_gates():
    rng = random.Random(2024)
    n = 4
    psi = state(n)
    kinds_1q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
    for i in range(10_000):
        if rng.random() < 0.3:
            a = rng.randrange(n)
            b = (a + rng.randrange(1, n)) % n
            psi = apply_gate(psi, Gate("cx", (a, b), (), i))
        elif rng.random() < 0.5:
            psi = apply_gate(psi, Gate(rng.choice(kinds_1q), (rng.randrange(n),), (), i))
        else:
            params = tuple(rng.uniform(0, 2 * math.pi) for _ in range(3))
            psi = apply_gate(psi, Gate("u3", (rng.randrange(n),), params, i))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def expand_unitary(gate, n):
    """Independent oracle: full 2^n matrix via kron / explicit permutation."""
    if gate.kind == "cx":
        control, target = gate.qubits
        dim = 2 ** n
        mat = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            j = i ^ (((i >> control) & 1) << target)
            mat[j, i] = 1.0
        return mat
    m = gate_matrix(gate)
    q = gate.qubits[0]
    return np.kron(np.eye(2 ** (n - 1 - q)), np.kron(m, np.eye(2 ** q)))


@pytest.mark.parametrize("seed", range(10))
def test_simulator_matches_matrix_chain(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    program = random_program(f"mc{seed}", n, 5 if n > 1 else 0, 8, seed=seed)
    psi = simulate_statevector(program)
    full = np.eye(2 ** n, dtype=complex)
    for g in program.gates:
        full = expand_unitary(g, n) @ full
    oracle = full @ state(n)
    assert np.allclose(psi, oracle, atol=1e-12)


def _marginal_oracle(probs, n, keep):
    """Entry-by-entry marginal, summed in index order."""
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


@pytest.mark.parametrize("seed", range(6))
def test_marginal_is_bit_identical_to_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    probs = rng.random(2 ** n)
    probs[rng.random(2 ** n) < 0.3] = 0.0
    probs /= probs.sum()
    keep = [int(q) for q in rng.permutation(n)[: rng.integers(0, n + 1)]]
    got = marginal_distribution(probs, n, keep)
    assert got.dtype == np.float64
    assert got.tobytes() == _marginal_oracle(probs, n, keep).tobytes()


def test_bv_marginal_is_point_mass():
    program = fixtures.load_benchmark("bv_n3")
    probs = distribution_vector(program)
    data = marginal_distribution(probs, 3, [0, 1])
    assert data[0b11] == pytest.approx(1.0, abs=1e-12)
    # the ancilla is left in superposition, so the full state is not a point mass
    full = output_distribution(program)
    assert set(full) == {"011", "111"}


def test_empty_circuit_distribution():
    program = parse_program("qreg q[2];", name="empty")
    assert output_distribution(program) == {"00": 1.0}


def test_single_hadamard_distribution():
    program = parse_program("qreg q[1]; h q[0];")
    dist = output_distribution(program)
    assert dist["0"] == pytest.approx(0.5)
    assert dist["1"] == pytest.approx(0.5)


def test_distribution_prunes_tiny_entries():
    program = parse_program("qreg q[2]; h q[0];")
    dist = output_distribution(program)
    assert set(dist) == {"00", "01"}


def test_qubit_cap_enforced():
    program = QuantumProgram("wide", 13, ())
    with pytest.raises(QubitCapExceeded):
        output_distribution(program, cap=12)


@pytest.mark.parametrize("seed", range(5))
def test_permutation_covariance(seed):
    rng = random.Random(seed)
    n = 3
    program = random_program(f"perm{seed}", n, 4, 6, seed=100 + seed)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = QuantumProgram(
        name="relabeled",
        n_qubits=n,
        gates=tuple(
            Gate(g.kind, tuple(perm[q] for q in g.qubits), g.params, g.id) for g in program.gates
        ),
    )
    p = distribution_vector(program)
    q = distribution_vector(relabeled)
    for idx in range(2 ** n):
        mapped = 0
        for bit in range(n):
            mapped |= ((idx >> bit) & 1) << perm[bit]
        assert q[mapped] == pytest.approx(p[idx], abs=1e-12)


def test_modal_outcome_unique_and_ambiguous():
    assert modal_outcome(np.array([0.1, 0.7, 0.2])) == 1
    assert modal_outcome(np.array([0.5, 0.5])) is None
    # outcomes within MODE_TIE of the best tie; a wider gap does not
    assert modal_outcome(np.array([0.5, 0.5 - sim.MODE_TIE / 2])) is None
    assert modal_outcome(np.array([0.5, 0.5 - 2 * sim.MODE_TIE])) == 0


def _three_qubit_instance():
    backend = make_backend(3, [(0, 1), (1, 2), (0, 2)], cnot=0.03, readout=0.02, oneq=0.002)
    program = fixtures.load_benchmark("toffoli_3")
    layout = {0: 0, 1: 1, 2: 2}
    ideal = distribution_vector(program)
    return backend, program, layout, ideal


def test_noisy_zero_error_matches_ideal_modal():
    backend = make_backend(3, [(0, 1), (1, 2), (0, 2)], cnot=0.0, readout=0.0, oneq=0.0)
    program = fixtures.load_benchmark("toffoli_3")
    ideal = distribution_vector(program)
    [pst] = noisy_success_probability(program, [{0: 0, 1: 1, 2: 2}], backend, [ideal])
    assert pst == pytest.approx(float(ideal[modal_outcome(ideal)]), abs=1e-12)


def test_noisy_ambiguous_modal_reports_none():
    # the hidden-string fixture leaves its ancilla in superposition, so the
    # full-state mode is ambiguous and the success rate is undefined
    backend = make_backend(3, [(0, 1), (1, 2), (0, 2)], cnot=0.0, readout=0.0, oneq=0.0)
    program = fixtures.load_benchmark("bv_n3")
    ideal = distribution_vector(program)
    [pst] = noisy_success_probability(program, [{0: 0, 1: 1, 2: 2}], backend, [ideal])
    assert pst is None


def test_noisy_degradation_is_strict():
    clean = make_backend(3, [(0, 1), (1, 2), (0, 2)], cnot=0.0, readout=0.0, oneq=0.0)
    broken = make_backend(3, [(0, 1), (1, 2), (0, 2)], cnot=0.9, readout=0.0, oneq=0.0)
    program = fixtures.load_benchmark("toffoli_3")
    ideal = distribution_vector(program)
    [clean_pst] = noisy_success_probability(program, [{0: 0, 1: 1, 2: 2}], clean, [ideal])
    [broken_pst] = noisy_success_probability(program, [{0: 0, 1: 1, 2: 2}], broken, [ideal])
    assert broken_pst < clean_pst


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_noisy_refuses_layouts_and_ideals_of_different_lengths(mode):
    backend, program, layout, ideal = _three_qubit_instance()
    with pytest.raises(ValueError, match="2 layouts but 1 ideal distributions"):
        noisy_success_probability(program, [layout, {0: 2}], backend, [ideal], mode=mode)
    with pytest.raises(ValueError, match="1 layouts but 2 ideal distributions"):
        noisy_success_probability(program, [layout], backend, [ideal, ideal], mode=mode)


def test_noisy_distribution_normalized():
    backend, program, layout, ideal = _three_qubit_instance()
    dist = noisy_output_distribution(program, backend)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)
    assert (dist >= -1e-12).all()


def test_sampled_mode_agrees_with_exact_within_3_sigma():
    backend, program, layout, ideal = _three_qubit_instance()
    [exact] = noisy_success_probability(program, [layout], backend, [ideal], mode="exact")
    shots = 8024
    [sampled] = noisy_success_probability(
        program, [layout], backend, [ideal], mode="sampled", shots=shots, seed=11
    )
    sigma = math.sqrt(exact * (1 - exact) / shots)
    assert abs(sampled - exact) <= 3 * sigma


def test_total_variation_basic():
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


def _depolarize_oracle(rho, q, n):
    dim = 2 ** n
    out = np.zeros_like(rho)
    for i in range(dim):
        for j in range(dim):
            if ((i >> q) & 1) == ((j >> q) & 1):
                bi, bj = i & ~(1 << q), j & ~(1 << q)
                out[i, j] += (rho[bi, bj] + rho[bi | (1 << q), bj | (1 << q)]) / 2
    return out


def _noisy_oracle(program, backend):
    """Dense-matrix re-implementation of the stochastic failure model."""
    n = program.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    for g in program.gates:
        if g.kind in ("measure", "barrier"):
            continue
        full = expand_unitary(g, n)
        rho = full @ rho @ full.conj().T
        if g.kind == "cx":
            a, b = g.qubits
            err = backend.calib.cnot_error[(min(a, b), max(a, b))]
        else:
            err = backend.calib.oneq_error[g.qubits[0]]
        if err:
            mixed = rho.copy()
            for q in g.qubits:
                mixed = _depolarize_oracle(mixed, q, n)
            rho = (1 - err) * rho + err * mixed
    probs = np.real(np.diag(rho)).copy()
    for q in range(n):
        r = backend.calib.readout_error[q]
        flipped = np.array([probs[i ^ (1 << q)] for i in range(len(probs))])
        probs = (1 - r) * probs + r * flipped
    return probs


@pytest.mark.parametrize("name", ["toffoli_3", "fredkin_3", "bv_n3"])
def test_noisy_exact_matches_dense_oracle(name):
    backend = make_backend(3, [(0, 1), (1, 2), (0, 2)], cnot=0.04, readout=0.03, oneq=0.005)
    program = fixtures.load_benchmark(name)
    got = noisy_output_distribution(program, backend)
    assert np.allclose(got, _noisy_oracle(program, backend), atol=1e-12)


# --- compacted exact mode against the dense oracle -----------------------------


@st.composite
def _placed_instances(draw):
    """A 2-4 qubit random program placed on a larger all-to-all chip with
    idle qubits, random per-item calibration, and layouts over subsets of the
    chip (idle qubits included), each with a one-hot ideal distribution."""
    k = draw(st.integers(2, 4))
    n = k + draw(st.integers(1, 2))
    place = draw(st.permutations(range(n)))[:k]
    gates = []
    for kind in draw(st.lists(st.sampled_from(["cx", "h", "t", "u3", "measure"]), max_size=10)):
        if kind == "cx":
            a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            gates.append(Gate("cx", (place[a], place[b]), (), len(gates)))
        elif kind == "u3":
            params = tuple(draw(st.floats(0, 2 * math.pi)) for _ in range(3))
            gates.append(Gate("u3", (place[draw(st.integers(0, k - 1))],), params, len(gates)))
        elif kind != "measure":
            gates.append(Gate(kind, (place[draw(st.integers(0, k - 1))],), (), len(gates)))
    compiled = QuantumProgram("placed", n, tuple(gates))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    backend = make_backend(
        n,
        pairs,
        cnot={e: rng.uniform(0, 0.3) for e in pairs},
        readout={q: rng.uniform(0, 0.2) for q in range(n)},
        oneq={q: rng.choice([0.0, rng.uniform(0, 0.1)]) for q in range(n)},
    )
    layouts, ideals = [], []
    for _ in range(draw(st.integers(1, 3))):
        phys = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        layouts.append(dict(enumerate(phys)))
        ideal = np.zeros(2 ** len(phys))
        ideal[draw(st.integers(0, 2 ** len(phys) - 1))] = 1.0
        ideals.append(ideal)
    return compiled, backend, layouts, ideals


@settings(max_examples=40)
@given(instance=_placed_instances())
def test_compacted_exact_matches_dense_oracle(instance):
    compiled, backend, layouts, ideals = instance
    full = _noisy_oracle(compiled, backend)
    assert np.allclose(noisy_output_distribution(compiled, backend), full, rtol=0, atol=1e-12)
    got = noisy_success_probability(compiled, layouts, backend, ideals, mode="exact")
    for layout, ideal, estimate in zip(layouts, ideals, got, strict=True):
        keep = [layout[q] for q in sorted(layout)]
        want = _marginal_oracle(full, compiled.n_qubits, keep)[modal_outcome(ideal)]
        assert abs(estimate - want) <= 1e-12


# --- batched sampler against the per-shot loop ---------------------------------


def _sample_trajectory(program, backend, rng, phys):
    """One trajectory, simulated gate by gate on the full register of
    ``program``; its qubit q is the chip's qubit phys[q], whose calibration
    gives the error rates."""
    n = program.n_qubits
    psi = state(n)
    paulis = [None, "x", "y", "z"]
    for g in program.gates:
        if g.kind in ("measure", "barrier"):
            continue
        psi = apply_gate(psi, g)
        if g.kind == "cx":
            a, b = phys[g.qubits[0]], phys[g.qubits[1]]
            err = backend.calib.cnot_error[(min(a, b), max(a, b))]
        else:
            err = backend.calib.oneq_error[phys[g.qubits[0]]]
        if err > 0.0 and rng.random() < err:
            for q in g.qubits:
                p = paulis[rng.randrange(4)]
                if p is not None:
                    psi = apply_gate(psi, Gate(p, (q,), (), id=-1), (q,))
    probs = np.abs(psi) ** 2
    cumulative = np.cumsum(probs / probs.sum())
    outcome = min(int(np.searchsorted(cumulative, rng.random(), side="right")), probs.size - 1)
    for q in range(n):
        if rng.random() < backend.calib.readout_error[phys[q]]:
            outcome ^= 1 << q
    return outcome


def _cone_program(compiled, layout):
    """The light cone of a layout as a program of its own: the cone's gates
    with their qubits renumbered onto the cone's in ascending order. Returns
    it with the cone's physical qubits."""
    qubits, gates = reference_light_cone(compiled, layout.values())
    local = {q: i for i, q in enumerate(qubits)}
    renumbered = (Gate(g.kind, tuple(local[q] for q in g.qubits), g.params, i) for i, g in enumerate(gates))
    return QuantumProgram("cone", len(qubits), tuple(renumbered)), qubits


def _per_shot_hits(compiled, layouts, backend, ideals, shots, seed):
    """Per-program oracle: in layout order, each program with a defined ideal
    mode draws all its shots from one shared stream, each shot simulated on
    the program's light cone alone. None for an ambiguous mode."""
    rng = random.Random(seed)
    hits = []
    for layout, ideal in zip(layouts, ideals):
        modal = modal_outcome(ideal)
        if modal is None:
            hits.append(None)
            continue
        cone, qubits = _cone_program(compiled, layout)
        count = 0
        for _ in range(shots):
            outcome = _sample_trajectory(cone, backend, rng, qubits)
            bits = 0
            for j, q in enumerate(sorted(layout)):
                bits |= ((outcome >> qubits.index(layout[q])) & 1) << j
            count += bits == modal
        hits.append(count)
    return hits


def _noisy_placed_instance():
    """A 4-qubit program on qubits 0, 1, 3, 4 of a 6-qubit line, with error
    rates high enough that most shots carry a Pauli error."""
    program = random_program("placed", 4, 6, 8, seed=5)
    place = [0, 1, 3, 4]
    gates = []
    for g in program.gates:
        qubits = tuple(place[q] for q in g.qubits)
        gates.append(Gate(g.kind, qubits, (), len(gates)))
        gates.append(Gate("u3", (qubits[-1],), (0.3 * g.id, 0.7, 1.1), len(gates)))
    compiled = QuantumProgram("placed", 6, tuple(gates))
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    # per-qubit readout rates, so a readout draw paired with the wrong qubit shows
    backend = make_backend(6, pairs, cnot=0.15, readout={q: 0.02 + 0.03 * q for q in range(6)}, oneq=0.04)
    layouts = [{0: 0, 1: 1}, {0: 3, 1: 4}, {0: 4, 1: 2}]
    ideals = []
    for layout in layouts:
        ideal = np.zeros(2 ** len(layout))
        ideal[1] = 1.0
        ideals.append(ideal)
    return compiled, backend, layouts, ideals


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_batched_sampler_matches_per_shot_loop(seed):
    compiled, backend, layouts, ideals = _noisy_placed_instance()
    shots = 200
    hits = _per_shot_hits(compiled, layouts, backend, ideals, shots, seed)
    got = noisy_success_probability(compiled, layouts, backend, ideals, mode="sampled", shots=shots, seed=seed)
    assert got == [h / shots for h in hits]


def test_batched_sampler_chunks_match_per_shot_loop(monkeypatch):
    compiled, backend, layouts, ideals = _noisy_placed_instance()
    widths = [len(reference_light_cone(compiled, layout.values())[0]) for layout in layouts]
    # the 4-qubit cone gets 7 shots per chunk, the 3- and 2-qubit ones 14 and 28
    assert widths == [3, 4, 2]
    monkeypatch.setattr(sim, "TRAJECTORY_BYTES", 7 * sim._WORKING_BYTES * 2**4)
    shots = 100
    assert shots % 7 and shots % 14 and shots % 28
    hits = _per_shot_hits(compiled, layouts, backend, ideals, shots, 9)
    got = noisy_success_probability(compiled, layouts, backend, ideals, mode="sampled", shots=shots, seed=9)
    assert got == [h / shots for h in hits]


@given(data=st.data())
def test_counted_readout_equals_per_bit_hits(data):
    # The sampled estimate counts each program's outcomes over its cone and
    # reads its hits from their marginal; this must give the very float the
    # per-bit extraction of every shot does.
    m = data.draw(st.integers(1, 8))
    outcomes = np.array(data.draw(st.lists(st.integers(0, 2**m - 1), min_size=1, max_size=300)))
    shots = len(outcomes)
    keep_lists = st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
    keeps = data.draw(st.lists(keep_lists, min_size=1, max_size=3))
    modals = [data.draw(st.integers(0, 2 ** len(keep) - 1)) for keep in keeps]
    ideals = [np.eye(2 ** len(keep))[modal] for keep, modal in zip(keeps, modals)]
    layouts = [dict(enumerate(keep)) for keep in keeps]
    # One-qubit gates only: each program's cone is its own layout's qubits.
    compiled = QuantumProgram("all", m, tuple(Gate("h", (q,), (), q) for q in range(m)))
    backend = make_backend(m, [(q, q + 1) for q in range(m - 1)])
    chunk = data.draw(st.integers(1, shots))
    programs = iter(keeps)
    cone = []

    def no_errors(ops, readout, n_shots, rng):
        # called once per program, in layout order
        cone[:] = sorted(next(programs))
        assert len(readout) == len(cone)
        return {}, np.zeros(n_shots), np.zeros(n_shots, dtype=np.int64)

    def drawn(ops, width, errors, uniforms, lo, hi):
        # the register outcomes of shots lo..hi-1, read on the cone's qubits
        assert width == len(cone)
        return sum(((outcomes[lo:hi] >> q) & 1) << i for i, q in enumerate(cone))

    with (
        mock.patch.object(sim, "_draw_shots", no_errors),
        mock.patch.object(sim, "_sampled_outcomes", drawn),
        mock.patch.object(sim, "TRAJECTORY_BYTES", chunk * sim._WORKING_BYTES * 2**m),
    ):
        got = noisy_success_probability(compiled, layouts, backend, ideals, mode="sampled", shots=shots)
    assert next(programs, None) is None
    assert got == [reference_hits(outcomes, keep, modal) / shots for keep, modal in zip(keeps, modals)]


def test_sampled_working_set_stays_under_budget():
    # a few gates; the layout names all 12 qubits, so all 12 are simulated
    n = 12
    program = parse_program("qreg q[12]; h q[0]; cx q[0],q[1]; u3(0.4,0.2,0.1) q[1]; cx q[1],q[11]; h q[11];")
    backend = make_backend(n, [(0, 1), (1, 11)] + [(q, q + 1) for q in range(1, 10)], cnot=0.2, oneq=0.1)
    ideal = np.zeros(2**n)
    ideal[0] = 1.0
    shots = 8024
    assert shots * 16 * 2**n > sim.TRAJECTORY_BYTES  # one unchunked array would not fit
    tracemalloc.start()
    try:
        [estimate] = noisy_success_probability(
            program, [{q: q for q in range(n)}], backend, [ideal], mode="sampled", shots=shots, seed=1
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < estimate < 1.0
    assert peak < sim.TRAJECTORY_BYTES


# --- argument checks ------------------------------------------------------------


@pytest.mark.parametrize("shots", [0, -3])
def test_sampled_rejects_non_positive_shots(shots):
    backend, program, layout, ideal = _three_qubit_instance()
    with pytest.raises(ValueError, match="shots"):
        noisy_success_probability(program, [layout], backend, [ideal], mode="sampled", shots=shots)


def test_unknown_mode_and_out_of_range_layout_rejected():
    backend, program, layout, ideal = _three_qubit_instance()
    with pytest.raises(ValueError, match="mode"):
        noisy_success_probability(program, [layout], backend, [ideal], mode="density")
    with pytest.raises(ValueError, match="outside"):
        noisy_success_probability(program, [{0: 0, 1: 1, 2: 3}], backend, [ideal])


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_all_ambiguous_modes_skip_simulation(mode, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulated although no mode is defined")

    for kernel in ("_noisy_ops", "_exact_distribution", "_draw_shots", "_sampled_outcomes"):
        monkeypatch.setattr(sim, kernel, fail)
    backend = make_backend(3, [(0, 1), (1, 2), (0, 2)])
    program = fixtures.load_benchmark("bv_n3")
    ideal = distribution_vector(program)
    layouts = [{0: 0, 1: 1, 2: 2}, {0: 2}]
    got = noisy_success_probability(program, layouts, backend, [ideal, np.array([0.5, 0.5])], mode=mode)
    assert got == [None, None]


# --- the cap bounds each light cone ----------------------------------------------


def _tokyo_pair_compile():
    from qmultiprog.cli import compile_workload

    tokyo20 = fixtures.load_fixture_backend("tokyo20")
    programs = [fixtures.load_benchmark("toffoli_3"), fixtures.load_benchmark("fredkin_3")]
    result = compile_workload(programs, tokyo20, "cdap-xswap")
    compiled = result["compiled"][0]
    layouts = [dict(s) for s in result["schedules"][0].final.sigmas]
    ideals = [distribution_vector(p) for p in programs]
    return compiled, layouts, tokyo20, ideals


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_cap_counts_active_qubits_not_chip_width(mode):
    # 6 active qubits on a 20-qubit chip: within the default cap of 12
    compiled, layouts, tokyo20, ideals = _tokyo_pair_compile()
    assert compiled.n_qubits == 20 > sim.DEFAULT_QUBIT_CAP
    got = noisy_success_probability(compiled, layouts, tokyo20, ideals, mode=mode, shots=64)
    assert got == noisy_success_probability(compiled, layouts, tokyo20, ideals, mode=mode, shots=64, cap=20)
    assert all(0.0 < p < 1.0 for p in got)


def _one_hot_modes(programs):
    """Ideal targets with a defined mode: each program's first most likely
    outcome, one-hot."""
    return [np.eye(2**p.n_qubits)[int(np.argmax(distribution_vector(p)))] for p in programs]


def _tokyo_triple_compile():
    # 15 active qubits, over the default cap; three cones of 5
    from qmultiprog.cli import compile_workload

    tokyo20 = fixtures.load_fixture_backend("tokyo20")
    programs = [fixtures.load_benchmark(n) for n in ("4mod5-v1_22", "alu-v0_27", "mod5mils_65")]
    result = compile_workload(programs, tokyo20, "cdap-xswap")
    compiled = result["compiled"][0]
    layouts = [dict(s) for s in result["schedules"][0].final.sigmas]
    # all three ideal modes are ambiguous, so each is read at a one-hot target
    assert all(modal_outcome(distribution_vector(p)) is None for p in programs)
    return compiled, layouts, tokyo20, _one_hot_modes(programs)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_cap_bounds_each_cone_not_the_active_register(mode):
    compiled, layouts, tokyo20, ideals = _tokyo_triple_compile()
    assert len(reference_active_qubits(compiled, layouts)) == 15 > sim.DEFAULT_QUBIT_CAP
    assert [len(sim.light_cone(compiled, layout.values())[0]) for layout in layouts] == [5, 5, 5]
    got = noisy_success_probability(compiled, layouts, tokyo20, ideals, mode=mode, shots=64)
    assert all(0.0 < p < 1.0 for p in got)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_cone_over_the_cap_raises_before_simulating(mode, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulated although a cone exceeds the cap")

    compiled, layouts, tokyo20, ideals = _tokyo_triple_compile()
    for kernel in ("_noisy_ops", "_exact_distribution", "_draw_shots", "_sampled_outcomes"):
        monkeypatch.setattr(sim, kernel, fail)
    with pytest.raises(QubitCapExceeded, match="5 cone qubits exceed the simulation cap of 4"):
        noisy_success_probability(compiled, layouts, tokyo20, ideals, mode=mode, cap=4)


def _one_hot(n):
    ideal = np.zeros(2**n)
    ideal[0] = 1.0
    return ideal


def test_exact_cone_over_the_density_budget_raises_before_simulating(monkeypatch):
    # cap 20 lets a 13-qubit cone through; its density would take 1 GiB
    def fail(*args, **kwargs):
        raise AssertionError("simulated although a cone's density exceeds the byte budget")

    for kernel in ("_noisy_ops", "_exact_distribution", "_draw_shots", "_sampled_outcomes"):
        monkeypatch.setattr(sim, kernel, fail)
    backend = make_backend(13, [(q, q + 1) for q in range(12)])
    layouts = [{q: q for q in range(13)}]
    with pytest.raises(
        QubitCapExceeded,
        match=f"density matrix of 13 cone qubits takes {16 * 4**13} bytes, over the budget of {16 * 4**12}",
    ):
        noisy_success_probability(QuantumProgram("wide", 13, ()), layouts, backend, [_one_hot(13)], cap=20)


def test_density_budget_admits_a_cone_at_the_budget_and_binds_exact_mode_only(monkeypatch):
    monkeypatch.setattr(sim, "DENSITY_BYTES", 16 * 4**3)
    backend = make_backend(4, [(0, 1), (1, 2), (2, 3)], readout=0.0)
    three = QuantumProgram("three", 3, ())
    assert noisy_success_probability(three, [{q: q for q in range(3)}], backend, [_one_hot(3)]) == [1.0]
    layouts = [{q: q for q in range(4)}]
    with pytest.raises(QubitCapExceeded, match="density matrix of 4 cone qubits"):
        noisy_success_probability(QuantumProgram("four", 4, ()), layouts, backend, [_one_hot(4)])
    sampled = noisy_success_probability(
        QuantumProgram("four", 4, ()), layouts, backend, [_one_hot(4)], mode="sampled", shots=8
    )
    assert sampled == [1.0]


def test_every_bundled_tokyo20_triple_is_estimable_at_the_default_cap():
    # 25 of these 120 have over 12 active qubits; no cone has more than 5
    from qmultiprog.cli import compile_workload

    tokyo20 = fixtures.load_fixture_backend("tokyo20")
    programs = {name: fixtures.load_benchmark(name) for name in BUNDLED}
    over = 0
    for names in itertools.combinations(BUNDLED, 3):
        triple = [programs[name] for name in names]
        result = compile_workload(triple, tokyo20, "cdap-xswap")
        compiled = result["compiled"][0]
        layouts = [dict(s) for s in result["schedules"][0].final.sigmas]
        over += len(reference_active_qubits(compiled, layouts)) > sim.DEFAULT_QUBIT_CAP
        assert max(len(sim.light_cone(compiled, layout.values())[0]) for layout in layouts) <= 5
        ideals = _one_hot_modes(triple)
        for mode in ("exact", "sampled"):
            got = noisy_success_probability(compiled, layouts, tokyo20, ideals, mode=mode, shots=64)
            assert all(0.0 <= p <= 1.0 for p in got)
    assert over == 25


def test_crossing_swap_merges_cones():
    from qmultiprog import decompose, xswap_route

    programs, mapping, backend = fixtures.boundary_swap_instance()
    schedule = xswap_route(programs, mapping, backend)
    compiled = decompose(schedule).combined
    layouts = [dict(s) for s in schedule.final.sigmas]
    for mine, other in ((0, 1), (1, 0)):
        qubits, ids = sim.light_cone(compiled, layouts[mine].values())
        ref_qubits, ref_gates = reference_light_cone(compiled, layouts[mine].values())
        assert (qubits, ids) == (ref_qubits, [g.id for g in ref_gates])
        # the crossing SWAP brings a qubit of the other program's region in
        assert set(qubits) & set(mapping.sigmas[other].values())
    ideals = _one_hot_modes(programs)
    full = noisy_output_distribution(compiled, backend)
    got = noisy_success_probability(compiled, layouts, backend, ideals, mode="exact")
    for layout, ideal, estimate in zip(layouts, ideals, got, strict=True):
        keep = [layout[q] for q in sorted(layout)]
        want = marginal_distribution(full, compiled.n_qubits, keep)[modal_outcome(ideal)]
        assert abs(estimate - want) <= 1e-12


@settings(max_examples=60)
@given(instance=_placed_instances())
def test_light_cone_matches_reference_walk(instance):
    compiled, _, layouts, _ = instance
    for layout in layouts:
        qubits, gates = reference_light_cone(compiled, layout.values())
        assert sim.light_cone(compiled, layout.values()) == (qubits, [g.id for g in gates])


# --- the planned kernel against the row-scanning reference --------------------

_KINDS = sorted(ONE_QUBIT_GATES) + ["cx"]
# exact zeros and multiples of pi give the diagonal and sparse cases
_ANGLES = st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, 2 * math.pi]) | st.floats(-10, 10)


@st.composite
def _unitary_programs(draw, min_qubits, max_qubits, max_gates):
    """A random program over every unitary kind, with random angles."""
    n = draw(st.integers(min_qubits, max_qubits))
    gates = []
    for kind in draw(st.lists(st.sampled_from(_KINDS if n > 1 else _KINDS[:-1]), max_size=max_gates)):
        if kind == "cx":
            qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        params = tuple(draw(_ANGLES) for _ in range(PARAM_COUNTS.get(kind, 0)))
        gates.append(Gate(kind, qubits, params, len(gates)))
    return QuantumProgram("random", n, tuple(gates))


def _reference_statevector(program):
    n = program.n_qubits
    psi = state(n)
    for g in program.gates:
        reference_contract(psi.reshape([2] * n), gate_matrix(g), [n - 1 - q for q in g.qubits])
    return psi


@settings(max_examples=60)
@given(program=_unitary_programs(1, 10, 40))
def test_statevector_is_bit_identical_to_reference_kernel(program):
    assert np.array_equal(simulate_statevector(program), _reference_statevector(program))


@settings(max_examples=60)
@given(data=st.data())
def test_planned_contract_is_bit_identical_on_any_matrix(data):
    # A unitary row that only scales its slice has no other nonzero entry in
    # its column, so gate matrices cannot show the order of the writes;
    # sparse random matrices with ones and zeros can.
    k = data.draw(st.integers(1, 2))
    shape = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=5))
    axes = tuple(data.draw(st.permutations(range(len(shape))))[:k])
    for ax in axes:
        shape[ax] = 2
    entry = st.sampled_from([0.0, 1.0, -1j]) | st.complex_numbers(max_magnitude=3, allow_nan=False)
    matrix = np.array(data.draw(st.lists(entry, min_size=4**k, max_size=4**k)), dtype=complex).reshape(2**k, 2**k)
    assume(matrix.any(axis=1).all())  # a zero row is no linear map either kernel takes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = tensor.copy()
    reference_contract(want, matrix, list(axes))
    sim._contract(tensor, sim._plan(matrix), axes)
    assert np.array_equal(tensor, want)


def _reference_depolarize(tensor, rows, cols, rate):
    k = len(rows)
    diagonal = reference_blocks(tensor, rows + cols)[:: 2**k + 1]
    traced = diagonal[0].copy()
    for block in diagonal[1:]:
        traced += block
    traced *= rate / 2**k
    tensor *= 1.0 - rate
    for block in diagonal:
        block += traced


def _reference_exact(program, backend):
    m = program.n_qubits
    rho = np.zeros((2**m, 2**m), dtype=complex)
    rho[0, 0] = 1.0
    tensor = rho.reshape([2] * (2 * m))
    for g in program.gates:
        matrix, rate = gate_matrix(g), sim._gate_error(g, backend)
        rows = [m - 1 - q for q in g.qubits]
        cols = [2 * m - 1 - q for q in g.qubits]
        reference_contract(tensor, matrix, rows)
        reference_contract(tensor, matrix.conj(), cols)
        if rate:
            _reference_depolarize(tensor, rows, cols, rate)
    diag = rho.diagonal().real.copy()
    for q in range(m):
        diag = sim._readout_flip(diag, q, backend.calib.readout_error[q], m)
    return diag


def _reference_sampled(program, errors, uniforms, lo, hi):
    m = program.n_qubits
    psi = np.zeros((hi - lo, 2**m), dtype=complex)
    psi[:, 0] = 1.0
    tensor = psi.reshape((hi - lo,) + (2,) * m)
    paulis = (None, gate_matrix(Gate("x", (0,))), gate_matrix(Gate("y", (0,))), gate_matrix(Gate("z", (0,))))
    for i, g in enumerate(program.gates):
        reference_contract(tensor, gate_matrix(g), [m - q for q in g.qubits])
        if i not in errors:
            continue
        shot, qubit, pauli = errors[i]
        in_chunk = (shot >= lo) & (shot < hi)
        for q in g.qubits:
            for p in (1, 2, 3):
                rows = shot[in_chunk & (qubit == q) & (pauli == p)] - lo
                if rows.size:
                    hit = tensor[rows]
                    reference_contract(hit, paulis[p], [m - q])
                    tensor[rows] = hit
    probs = np.abs(psi) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probs, axis=1)
    drawn = np.count_nonzero(cumulative <= uniforms[lo:hi, None], axis=1)
    return np.minimum(drawn, 2**m - 1)


@settings(max_examples=40)
@given(program=_unitary_programs(1, 4, 14), seed=st.integers(0, 2**32 - 1))
def test_noisy_kernels_are_bit_identical_to_reference_kernel(program, seed):
    n = program.n_qubits
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    backend = make_backend(
        n,
        pairs,
        cnot={e: rng.uniform(0, 0.4) for e in pairs},
        readout={q: rng.uniform(0, 0.2) for q in range(n)},
        oneq={q: rng.choice([0.0, rng.uniform(0, 0.4)]) for q in range(n)},
    )
    ops = sim._noisy_ops(program, backend)
    assert np.array_equal(sim._exact_distribution(ops, list(range(n)), backend), _reference_exact(program, backend))
    shots = 64
    readout = [(backend.calib.readout_error[q], 1 << q) for q in range(n)]
    errors, uniforms, _ = sim._draw_shots(ops, readout, shots, random.Random(seed))
    for lo, hi in ((0, shots), (5, 29)):
        got = sim._sampled_outcomes(ops, n, errors, uniforms, lo, hi)
        assert np.array_equal(got, _reference_sampled(program, errors, uniforms, lo, hi))


def test_plan_and_index_tables_do_not_grow_with_angles():
    n = 3
    backend = make_backend(n, [(0, 1), (1, 2), (0, 2)], cnot=0.1, oneq=0.05)
    rng = random.Random(3)

    def run(gates):
        program = QuantumProgram("angles", n, tuple(Gate(g.kind, g.qubits, g.params, i) for i, g in enumerate(gates)))
        simulate_statevector(program)
        ideal = np.zeros(2**n)
        ideal[0] = 1.0
        layout = {q: q for q in range(n)}
        for mode in ("exact", "sampled"):
            noisy_success_probability(program, [layout], backend, [ideal], mode=mode, shots=16)

    # every operand and axis tuple of the register once
    warm = [Gate("u3", (q,), (0.1, 0.2, 0.3)) for q in range(n)]
    warm += [Gate("cx", (a, b)) for a in range(n) for b in range(n) if a != b]
    warm += [Gate(p, (q,)) for p in ("x", "y", "z") for q in range(n)]
    run(warm)
    tables = {name: value for name, value in vars(sim).items() if isinstance(value, (dict, tuple))}
    sizes = {name: len(value) for name, value in tables.items()}
    run([Gate("u3", (i % n,), tuple(rng.uniform(-7, 7) for _ in range(3))) for i in range(1000)])
    assert {name: len(value) for name, value in tables.items()} == sizes
    assert sizes["_BLOCK_INDEX"] > 0


# --- a program's ideal distribution is simulated once and kept on it -----------


def test_distribution_cache_is_invisible_to_value_semantics():
    src = fixtures.benchmark_path("toffoli_3").read_text()
    program, twin = parse_program(src, name="toffoli_3"), parse_program(src, name="toffoli_3")
    before = (program == twin, hash(program), repr(program))
    first = distribution_vector(program)
    assert distribution_vector(program) is first  # simulated once
    assert (program == twin, hash(program), repr(program)) == before
    assert distribution_vector(twin).tobytes() == first.tobytes()
    assert first.tobytes() == (np.abs(simulate_statevector(program)) ** 2).tobytes()


def test_cached_distribution_is_read_only():
    probs = distribution_vector(fixtures.load_benchmark("bv_n3"))
    with pytest.raises(ValueError):
        probs[0] = 1.0


def test_cap_is_checked_on_every_call_of_a_cached_program():
    program = fixtures.load_benchmark("toffoli_3")
    distribution_vector(program, cap=12)
    with pytest.raises(QubitCapExceeded, match="3 qubits exceed the simulation cap of 2"):
        distribution_vector(program, cap=2)


def test_equivalence_check_renumbers_the_cone_in_ascending_order(monkeypatch):
    compiled = parse_program("qreg q[6]; creg c[1]; h q[4]; cx q[4],q[1]; measure q[5] -> c[0];", name="c")
    program = parse_program("qreg q[2]; h q[0];", name="p")
    # q5 is only measured and q0 is named by the layout: the cone is q0, q1, q4
    distribution_vector(program)  # kept on the program: only the cone is simulated below
    simulated = []
    monkeypatch.setattr(sim, "simulate_statevector", lambda p: simulated.append(p) or simulate_statevector(p))
    assert verify_equivalence([program], compiled, [{0: 4, 1: 0}]) == (True, 0.0)
    [cone] = simulated
    assert cone.n_qubits == 3
    assert [(g.kind, g.qubits) for g in cone.gates] == [("h", (2,)), ("cx", (2, 1))]
    with pytest.raises(QubitCapExceeded, match="3 cone qubits exceed the simulation cap of 2"):
        verify_equivalence([program], compiled, [{0: 4, 1: 0}], limit=2)
    with pytest.raises(ValueError, match="outside the 6-qubit circuit"):
        verify_equivalence([program], compiled, [{0: 6, 1: 0}])
