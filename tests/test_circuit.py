import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_program
from qmultiprog import fixtures
from qmultiprog.circuit import (
    QasmError,
    build_dag,
    critical_gates,
    front_layer,
    parse_program,
    ready_gates,
    serialize_program,
)

TABLE_COUNTS = {
    "bv_n3": (3, 2, 8),
    "bv_n4": (4, 3, 11),
    "peres_3": (3, 7, 16),
    "toffoli_3": (3, 6, 15),
    "fredkin_3": (3, 8, 16),
    "3_17_13": (3, 17, 36),
    "4mod5-v1_22": (5, 11, 21),
    "mod5mils_65": (5, 16, 35),
    "alu-v0_27": (5, 17, 36),
    "decod24-v2_43": (4, 22, 52),
}


@pytest.mark.parametrize("name", sorted(TABLE_COUNTS))
def test_bundled_benchmark_counts(name):
    program = fixtures.load_benchmark(name)
    expected = TABLE_COUNTS[name]
    assert (program.n_qubits, program.n_cnot, program.gate_count) == expected


def test_parse_empty_program():
    program = parse_program("qreg q[1];")
    assert program.n_qubits == 1
    assert program.gates == ()


def test_parse_counts_and_density():
    program = fixtures.load_benchmark("bv_n3")
    assert program.n_cnot == 2
    assert program.n_1q == 6
    assert program.cnot_density == pytest.approx(2 / 3)
    # measures are kept in the gate list but not in the operational count
    assert len(program.gates) == program.gate_count + 2


def test_cnot_weights_counted_once_and_read_only():
    src = "qreg q[3]; cx q[1],q[0]; h q[2]; cx q[0],q[1]; cx q[1],q[2];"
    program = parse_program(src)
    weights = program.cnot_weights()
    assert list(weights.items()) == [((0, 1), 2), ((1, 2), 1)]  # order of first appearance
    with pytest.raises(TypeError):
        weights[0, 1] = 7
    assert program.cnot_weights() == {(0, 1): 2, (1, 2): 1}
    # the cache is no field: equality and hashing see only the program
    assert program == parse_program(src) and hash(program) == hash(parse_program(src))


def test_parse_param_expressions():
    program = parse_program(
        "qreg q[1]; rz(pi/2) q[0]; u3(pi, -pi/4, 0.5) q[0]; rx(2*pi) q[0];"
    )
    assert program.gates[0].params == (math.pi / 2,)
    assert program.gates[1].params == (math.pi, -math.pi / 4, 0.5)
    assert program.gates[2].params == (2 * math.pi,)


@pytest.mark.parametrize(
    "source, params",
    [
        ("qreg q[1]; u1((pi)/2) q[0];", (math.pi / 2,)),
        ("qreg q[1]; u3((pi)/2, 0, (1+1)) q[0];", (math.pi / 2, 0.0, 2.0)),
        ("qreg q[1]; u2(-(pi*(1+1)), ((0.5))) q[0];", (-2 * math.pi, 0.5)),
    ],
)
def test_parse_nested_parentheses_in_angles(source, params):
    assert parse_program(source).gates[0].params == params


def test_parse_broadcast_and_measure_arrow():
    program = parse_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'
        "h q;\nbarrier q;\nmeasure q -> c;\n"
    )
    kinds = [g.kind for g in program.gates]
    assert kinds == ["h", "h", "h", "barrier", "measure", "measure", "measure"]


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("qreg q[2]; cz q[0],q[1];", "unsupported gate"),
        ("qreg q[2]; h q[5];", "out of range"),
        ("qreg q[2]; rx() q[0];", "parameter"),
        ("qreg q[2]; cx q[0];", "two operands"),
        ("h q[0];", "before qreg"),
        ("qreg q[2]; qreg p[2];", "exactly one qreg"),
        ("qreg q[2]; measure q[0] -> c[0]; h q[0];", "terminal"),
        ("qreg q[2]; cx q, q[1];", "single indexed"),
        ("qreg q[1]; u1(pi/0) q[0];", "division by zero"),
        ("qreg q[1]; u1(1e999*0) q[0];", "not a finite number"),
        ("qreg q[1]; u1(1e999) q[0];", "not a finite number"),
        ("qreg q[1]; rz(" + "-" * 5000 + "1) q[0];", "nested too deeply"),
        ("qreg q[1]; u1((pi/2) q[0];", "unbalanced parentheses"),
        ("qreg q[2]; cx(pi) q[0],q[1];", "cx takes no parameters"),
        ("qreg q[2]; measure(1) q[0];", "measure takes no parameters"),
        ("qreg q[2]; barrier(2) q;", "barrier takes no parameters"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(QasmError) as err:
        parse_program(source)
    assert fragment in str(err.value)


_ANGLE = st.lists(
    st.sampled_from(["pi", "0", "2", "1e999", ".5", "+", "-", "*", "/", "(", ")", "x", "(pi)", "((2))", "(1,2)", ","]),
    min_size=1,
    max_size=6,
).map("".join)
_OPERAND = st.sampled_from(["q", "q[0]", "q[1]", "q[7]", "r[0]", "q[", "0", ""])
_GATE = st.sampled_from(["u1", "u2", "u3", "rx", "rz", "h", "cx", "measure", "barrier", "cz", "creg c[2]", "qreg p[2]"])
_STATEMENT = st.one_of(
    st.builds(lambda g, p, op: f"{g}({p}) {op}", st.sampled_from(["u1", "rx", "rz"]), _ANGLE, _OPERAND),
    st.builds(lambda g, ps, ops: f"{g}({','.join(ps)}) {','.join(ops)}", _GATE, st.lists(_ANGLE, max_size=3), st.lists(_OPERAND, max_size=3)),
    st.builds(lambda g, ops: f"{g} {','.join(ops)}", _GATE, st.lists(_OPERAND, max_size=3)),
    st.builds(lambda ops: f"measure {ops} -> c[0]", _OPERAND),
    st.text(max_size=12),
)
_SOURCE = st.builds(
    lambda n, stmts, sep: f"qreg q[{n}]{sep}" + sep.join(stmts),
    st.integers(0, 9),
    st.lists(_STATEMENT, max_size=6),
    st.sampled_from([";", ";\n", "; // note\n", "\n"]),
)


@settings(max_examples=300)
@given(_SOURCE)
def test_parse_program_fuzz_raises_only_parse_errors(source):
    try:
        program = parse_program(source)
    except (QasmError, ValueError):
        return
    assert all(math.isfinite(p) for g in program.gates for p in g.params)


def test_parse_error_carries_line_number():
    with pytest.raises(QasmError) as err:
        parse_program("qreg q[2];\nh q[0];\nbogus q[1];")
    assert err.value.line == 3


@pytest.mark.parametrize("name", sorted(fixtures.benchmark_names()))
def test_round_trip_all_benchmarks(name):
    program = fixtures.load_benchmark(name)
    again = parse_program(serialize_program(program), name=name)
    assert again.n_qubits == program.n_qubits
    assert again.gates == program.gates


def brute_force_edges(program):
    """Independent oracle for the DAG: scan backwards for the nearest prior
    gate on each shared qubit."""
    edges = set()
    gates = [g for g in program.gates]
    for v in gates:
        if v.kind == "barrier":
            continue
        for q in v.qubits:
            for u in reversed(gates[: v.id]):
                if u.kind != "barrier" and q in u.qubits:
                    edges.add((u.id, v.id))
                    break
    return edges


def test_dag_matches_brute_force_on_toffoli():
    program = fixtures.load_benchmark("toffoli_3")
    dag = build_dag(program)
    assert set(dag.edges) == brute_force_edges(program)
    assert len(dag.edges) <= 2 * len(program.gates)
    # the opening hadamard blocks the first CNOT until it executes
    assert front_layer(dag, set()) == set()
    assert front_layer(dag, {0}) == {1}
    assert ready_gates(dag, set())[0] == 0


@pytest.mark.parametrize("seed", range(8))
def test_dag_matches_brute_force_random(seed):
    program = random_program(f"r{seed}", 4, 12, 10, seed=seed)
    dag = build_dag(program)
    assert set(dag.edges) == brute_force_edges(program)


def test_dag_single_gate():
    program = parse_program("qreg q[2]; cx q[0],q[1];")
    dag = build_dag(program)
    assert len(list(dag.nodes)) == 1
    assert not dag.edges


def test_dag_disjoint_cnots_independent():
    program = parse_program("qreg q[4]; cx q[0],q[1]; cx q[2],q[3];")
    dag = build_dag(program)
    assert not dag.edges
    assert front_layer(dag, set()) == {0, 1}


def test_barriers_contribute_no_edges():
    program = parse_program("qreg q[2]; h q[0]; barrier q[0],q[1]; h q[0];")
    dag = build_dag(program)
    assert set(dag.edges) == {(0, 2)}
    assert dag.predecessors[1] == frozenset()


def test_front_layer_and_critical_gates_layered():
    # two front CNOTs; only the first has a successor, so only it is critical
    program = parse_program(
        "qreg q[5]; cx q[0],q[1]; cx q[2],q[3]; cx q[1],q[4]; cx q[0],q[4];"
    )
    dag = build_dag(program)
    front = front_layer(dag, set())
    assert front == {0, 1}
    assert critical_gates(dag, front) == {0}
    # resolving the critical gate advances the frontier
    assert front_layer(dag, {0}) == {1, 2}


def test_front_layer_all_executed_empty():
    program = fixtures.load_benchmark("bv_n3")
    dag = build_dag(program)
    executed = {g.id for g in program.gates}
    assert front_layer(dag, executed) == set()


def test_front_layer_chain_same_pair():
    program = parse_program("qreg q[2]; cx q[0],q[1]; cx q[0],q[1]; cx q[0],q[1];")
    dag = build_dag(program)
    assert front_layer(dag, {0}) == {1}


@pytest.mark.parametrize("seed", range(10))
def test_front_layer_never_contains_blocked_gate(seed):
    rng = random.Random(seed)
    program = random_program(f"p{seed}", rng.randint(2, 6), rng.randint(3, 25), rng.randint(2, 25), seed)
    dag = build_dag(program)
    oracle_edges = brute_force_edges(program)
    executed = set()
    order = [g.id for g in program.gates]
    rng.shuffle(order)
    for gid in order:
        # grow a predecessor-closed executed set
        stack = [gid]
        while stack:
            x = stack.pop()
            if x in executed:
                continue
            executed.add(x)
            stack.extend(u for u, v in oracle_edges if v == x)
        front = front_layer(dag, executed)
        for f in front:
            preds = {u for u, v in oracle_edges if v == f}
            assert preds <= executed
            assert f not in executed
        assert critical_gates(dag, front) <= front
