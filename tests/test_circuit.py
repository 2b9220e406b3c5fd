import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    brute_force_edges,
    critical_of,
    critical_reference,
    front_layer,
    random_program,
    ready_gates,
    with_measures_and_barriers,
)
from qmultiprog import fixtures
from qmultiprog.circuit import (
    ONE_QUBIT_GATES,
    PARAM_COUNTS,
    Gate,
    GateError,
    QasmError,
    QuantumProgram,
    parse_program,
    qubit_lines,
    serialize_program,
)
from qmultiprog.routing import _ProgramState

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


@pytest.mark.parametrize("blank", ["\t", "\n", "\r\n", "\x0b", "\x0c"])
def test_ascii_blanks_inside_angles_are_blanks(blank):
    plain = parse_program("qreg q[1]; rz(pi/2) q[0]; u3(1, pi / 4, -pi) q[0];")
    program = parse_program(f"qreg q[1]; rz(pi{blank}/2) q[0]; u3(1,{blank}pi{blank}/{blank}4, -{blank}pi) q[0];")
    assert program == plain
    assert parse_program(serialize_program(program), name=program.name) == program


_DIGITS = st.text("0123456789", min_size=1, max_size=3)
_EXPONENT = st.builds("".join, st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), _DIGITS))
# ASCII numerals as Python writes them: an integer has no leading zero; a
# fraction or an exponent may have one, and a numeral that opens with its
# point has no exponent. The 401-digit integer lies past the
# float range, so it reads as inf.
_NUMBER = st.one_of(
    st.sampled_from(["0", "2", "17", "3.5", ".25", "1.", "1e3", "7e-2", "1.5E+2", "1" + "0" * 400]),
    st.builds(lambda head, tail: head + tail, st.sampled_from("123456789"), st.text("0123456789", max_size=3)),
    st.builds(lambda i, f, e: f"{i}.{f}{e}", _DIGITS, st.text("0123456789", max_size=3), st.just("") | _EXPONENT),
    _DIGITS.map(".{}".format),
    st.builds(lambda i, e: i + e, _DIGITS, _EXPONENT),
)
# A tree is a leaf (a numeral or "pi"), (op, left, right), (sign, operand) or
# ("()", inner) for parentheses the grammar does not need.
_ANGLE_TREE = st.recursive(
    _NUMBER | st.just("pi"),
    lambda sub: st.tuples(st.sampled_from("+-*/"), sub, sub)
    | st.tuples(st.sampled_from("+-"), sub)
    | st.tuples(st.just("()"), sub),
    max_leaves=12,
)
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _binary(tree):
    return isinstance(tree, tuple) and len(tree) == 3


def _render(tree):
    """Angle source for ``tree``, with parentheses only where it has a "()"
    node or where precedence or left-associativity needs them, so that
    chains such as 1-2-3 and 8/4/2 stay bare."""
    if isinstance(tree, str):
        return tree
    if tree[0] == "()":
        return f"({_render(tree[1])})"
    if len(tree) == 2:
        return f"{tree[0]}({_render(tree[1])})" if _binary(tree[1]) else tree[0] + _render(tree[1])
    op, left, right = tree
    lhs, rhs = _render(left), _render(right)
    if _binary(left) and _PRECEDENCE[left[0]] < _PRECEDENCE[op]:
        lhs = f"({lhs})"
    if _binary(right) and _PRECEDENCE[right[0]] <= _PRECEDENCE[op]:
        rhs = f"({rhs})"
    return lhs + op + rhs


def _value(tree):
    """Reference value of ``tree``: float arithmetic, left operand first."""
    if isinstance(tree, str):
        return math.pi if tree == "pi" else float(tree)
    if tree[0] == "()":
        return _value(tree[1])
    if len(tree) == 2:
        return -_value(tree[1]) if tree[0] == "-" else +_value(tree[1])
    op, left, right = tree
    a, b = _value(left), _value(right)
    return a + b if op == "+" else a - b if op == "-" else a * b if op == "*" else a / b


@settings(max_examples=400)
@given(st.lists(_ANGLE_TREE, min_size=3, max_size=3))
def test_angle_expressions_read_as_float_arithmetic(trees):
    # Each angle is bit for bit the reference value, or, at the first angle
    # whose reference value divides by zero or is not finite, the parse
    # refuses with that reason.
    source = "qreg q[1]; u3({}, {}, {}) q[0];".format(*map(_render, trees))
    values, refusal = [], None
    for tree in trees:
        try:
            value = _value(tree)
        except ZeroDivisionError:
            refusal = "division by zero"
            break
        if not math.isfinite(value):
            refusal = "not a finite number"
            break
        values.append(value)
    if refusal:
        with pytest.raises(QasmError, match=refusal):
            parse_program(source)
    else:
        params = parse_program(source).gates[0].params
        assert [p.hex() for p in params] == [v.hex() for v in values], source


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
        ("qreg q[3]; cx q[0],q[1],q[2];", "two operands"),
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
        ("OPENQASM 2.0;\nqreg q[0];", "line 2: qreg q has no qubits"),
        # OpenQASM 2 numerals are ASCII: Arabic-Indic digits are no numbers
        ("qreg q[\u0663];", "before qreg"),
        ("qreg q[2]; h q[\u0661];", "unknown operand"),
        ("qreg q[1]; rz(\u0663) q[0];", "bad angle expression"),
        ("qreg q[1]; h\u00e9 q[0];", "cannot parse statement"),
        # nor is an integer with a leading zero, as in Python
        ("qreg q[1]; u1(02) q[0];", "bad angle expression"),
        # and its whitespace is ASCII: a no-break or ideographic space is no blank
        ("qreg q[2];\u00a0h q[1];", "cannot parse statement"),
        ("qreg q[2]; cx q[0],\u00a0q[1];", "unknown operand"),
        ("qreg q[1]; rz(1\u00a0) q[0];", "bad angle expression"),
        ("qreg q[1]; rz(pi\u00a0/2) q[0];", "bad angle expression"),
        ("qreg q[2];\u3000h q[1];", "cannot parse statement"),
        # lines break at ASCII line breaks only: these are no blanks either
        ("qreg q[2];\x1ch q[1];", "cannot parse statement"),
        ("qreg q[2];\x85h q[1];", "cannot parse statement"),
        ("qreg q[2];\u2028h q[1];", "cannot parse statement"),
        ("qreg q[2];\u2029h q[1];", "cannot parse statement"),
        # so a comment runs past a U+2028, and line numbers count LF only
        ("qreg q[2]; // a\u2028b\nh q[5];", "line 2: gate 0: qubit 5 out of range"),
        ("// a\u2028b\r\n", "line 1: no qreg declaration found"),
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
    except QasmError:  # the CLI's exit 3; any other exception is a bug
        return
    assert all(math.isfinite(p) for g in program.gates for p in g.params)


def test_parse_error_carries_line_number():
    with pytest.raises(QasmError) as err:
        parse_program("qreg q[2];\nh q[0];\nbogus q[1];")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "source, line, fragment",
    [
        ("qreg q[2];\nh q[0];\ncx q[0],q[0];\nh q[1];", 3, "distinct"),
        ("qreg q[2];\nh q[1];\nh q[5];", 3, "qubit 5 out of range"),
        ("qreg q[2];\nmeasure q[0] -> c[0];\nh q[1];\nh q[0];", 4, "terminal"),
        ("qreg q[1];\nh q[0];\nu3(1) q[0];", 3, "u3 takes 3 parameter(s), got 1"),
    ],
)
def test_refusals_of_the_gate_and_program_rules_name_their_line(source, line, fragment):
    # The parser checks syntax only; Gate and QuantumProgram refuse these,
    # and the parser reports each refusal on the refused statement's line.
    with pytest.raises(QasmError) as err:
        parse_program(source)
    assert err.value.line == line and fragment in str(err.value)


@pytest.mark.parametrize(
    "kind, qubits, params",
    [("h", (0,), (0.3,)), ("u3", (0,), (1.0,)), ("cx", (0, 1), (1.0,)), ("rz", (0,), ())],
)
def test_gate_refuses_a_wrong_angle_count(kind, qubits, params):
    # A gate owns its angle count, so a wrong one never reaches the
    # simulator or a serialized circuit that would not parse back.
    with pytest.raises(ValueError, match=f"{kind} takes"):
        Gate(kind, qubits, params, 0)


def _program(n, ops):
    return QuantumProgram("p", n, tuple(Gate(kind, qubits, (), i) for i, (kind, qubits) in enumerate(ops)))


@pytest.mark.parametrize(
    "ops, index",
    [
        ([("measure", (0,)), ("h", (0,))], 1),
        ([("h", (1,)), ("measure", (1,)), ("cx", (0, 1))], 2),
        ([("measure", (0,)), ("measure", (1,)), ("measure", (0,))], 2),
    ],
)
def test_program_keeps_measurement_terminal(ops, index):
    with pytest.raises(GateError, match="terminal") as err:
        _program(2, ops)
    assert err.value.gate == index
    # a barrier in its place may name the measured qubit
    ops[index] = ("barrier", ops[index][1])
    assert _program(2, ops).gates[index].kind == "barrier"


def test_program_names_the_gate_it_refuses():
    with pytest.raises(GateError, match="out of range") as err:
        _program(2, [("h", (0,)), ("cx", (0, 2))])
    assert err.value.gate == 1
    with pytest.raises(GateError, match="program order") as err:
        QuantumProgram("p", 1, (Gate("h", (0,), (), 0), Gate("x", (0,), (), 0)))
    assert err.value.gate == 1


def test_a_gate_after_its_measure_is_refused_before_it_reaches_the_router():
    # Accepted, it would compile to h, x, cx, measure: the router pins the
    # measure past two gates on its qubit, and the equivalence check passes.
    with pytest.raises(GateError, match="qubit 0 already measured"):
        _program(2, [("h", (0,)), ("measure", (0,)), ("x", (0,)), ("cx", (0, 1))])


@st.composite
def _gate_lists(draw):
    """Any valid gates over every kind, with measures anywhere."""
    n = draw(st.integers(1, 3))
    gates = []
    for kind in draw(st.lists(st.sampled_from(sorted(ONE_QUBIT_GATES) + ["cx", "barrier", "measure"]), max_size=12)):
        if kind == "cx":
            if n < 2:
                continue
            qubits = tuple(draw(st.permutations(range(n)))[:2])
        elif kind == "barrier":
            qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1)))
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        angles = st.floats(allow_nan=False, allow_infinity=False)
        gates.append(Gate(kind, qubits, tuple(draw(angles) for _ in range(PARAM_COUNTS.get(kind, 0))), len(gates)))
    return n, tuple(gates)


@given(_gate_lists())
def test_every_accepted_program_round_trips_through_qasm(drawn):
    n, gates = drawn
    try:
        program = QuantumProgram("p", n, gates)
    except GateError:
        assume(False)
    assert parse_program(serialize_program(program), name="p") == program


@pytest.mark.parametrize("name", sorted(fixtures.benchmark_names()))
def test_round_trip_all_benchmarks(name):
    program = fixtures.load_benchmark(name)
    text = serialize_program(program)
    for source in (text, text.replace("\n", "\r\n")):  # CR LF line ends too
        again = parse_program(source, name=name)
        assert again.n_qubits == program.n_qubits
        assert again.gates == program.gates


def test_statements_end_at_semicolons_not_lines():
    program = parse_program("qreg q[2];\nh\nq[0]; cx q[0],\r\n  q[1] // note; h q[1];\n;")
    assert [(g.kind, g.qubits) for g in program.gates] == [("h", (0,)), ("cx", (0, 1))]
    with pytest.raises(QasmError) as err:
        parse_program("qreg q[2];\r\nh q[0];\r\n\r\ncx\nq[0],\rq[0];")
    assert err.value.line == 4  # the line the refused statement starts on


def line_edges(program):
    """Program order as ``qubit_lines`` states it: each gate depends on the
    entry after it on each of its lines."""
    lines, _ = qubit_lines(program)
    return {(line[k + 1], line[k]) for line in lines for k in range(len(line) - 1)}


def state_after(program, executed):
    """The router's state for ``program`` with the predecessor-closed set
    ``executed`` run in id order, which is a valid program order."""
    state = _ProgramState(0, program)
    for gid in sorted(executed):
        state.execute(gid)
    return state


def front_of(state):
    """The state's front layer: its ready CNOTs."""
    return {gid for gid in state.ready if state.program.gates[gid].kind == "cx"}


def test_dag_matches_brute_force_on_toffoli():
    program = fixtures.load_benchmark("toffoli_3")
    assert line_edges(program) == brute_force_edges(program)
    assert len(line_edges(program)) <= 2 * len(program.gates)
    # the opening hadamard blocks the first CNOT until it executes
    assert front_of(state_after(program, set())) == front_layer(program, set()) == set()
    assert front_of(state_after(program, {0})) == front_layer(program, {0}) == {1}
    assert min(state_after(program, set()).ready) == ready_gates(program, set())[0] == 0


@pytest.mark.parametrize("seed", range(8))
def test_dag_matches_brute_force_random(seed):
    plain = random_program(f"r{seed}", 4, 12, 10, seed=seed)
    for program in (plain, with_measures_and_barriers(plain, seed)):
        lines, barriers = qubit_lines(program)
        assert line_edges(program) == brute_force_edges(program)
        # each line lists its qubit's non-barrier gates, latest first
        for q, line in enumerate(lines):
            assert line == [g.id for g in reversed(program.gates) if g.kind != "barrier" and q in g.qubits]
        assert barriers == {g.id for g in program.gates if g.kind == "barrier"}
        for g in program.gates:
            if g.kind == "barrier":
                assert not any(g.id in edge for edge in line_edges(program))


def test_dag_single_gate():
    program = parse_program("qreg q[2]; cx q[0],q[1];")
    assert qubit_lines(program) == ([[0], [0]], set())
    assert not line_edges(program)


def test_dag_disjoint_cnots_independent():
    program = parse_program("qreg q[4]; cx q[0],q[1]; cx q[2],q[3];")
    assert not line_edges(program)
    assert front_of(state_after(program, set())) == front_layer(program, set()) == {0, 1}


def test_barriers_contribute_no_edges():
    program = parse_program("qreg q[2]; h q[0]; barrier q[0],q[1]; h q[0];")
    assert line_edges(program) == {(0, 2)}
    assert qubit_lines(program) == ([[2, 0], []], {1})
    assert 1 in state_after(program, set()).ready


def test_front_layer_and_critical_gates_layered():
    # two front CNOTs; only the first has a successor, so only it is critical
    program = parse_program(
        "qreg q[5]; cx q[0],q[1]; cx q[2],q[3]; cx q[1],q[4]; cx q[0],q[4];"
    )
    state = state_after(program, set())
    front = front_of(state)
    assert front == front_layer(program, set()) == {0, 1}
    assert critical_of(state, front) == [0]
    assert critical_reference(program, front) == {0}
    # resolving the critical gate advances the frontier
    assert front_of(state_after(program, {0})) == front_layer(program, {0}) == {1, 2}


def test_front_layer_all_executed_empty():
    program = fixtures.load_benchmark("bv_n3")
    executed = {g.id for g in program.gates}
    state = state_after(program, executed)
    assert front_of(state) == front_layer(program, executed) == set()
    assert state.done() and not any(state.lines)


def test_front_layer_chain_same_pair():
    program = parse_program("qreg q[2]; cx q[0],q[1]; cx q[0],q[1]; cx q[0],q[1];")
    assert front_of(state_after(program, {0})) == front_layer(program, {0}) == {1}


@pytest.mark.parametrize("seed", range(10))
def test_front_layer_never_contains_blocked_gate(seed):
    rng = random.Random(seed)
    program = random_program(f"p{seed}", rng.randint(2, 6), rng.randint(3, 25), rng.randint(2, 25), seed)
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
        state = state_after(program, executed)
        front = front_of(state)
        assert front == front_layer(program, executed)
        for f in front:
            preds = {u for u, v in oracle_edges if v == f}
            assert preds <= executed
            assert f not in executed
        assert set(critical_of(state, front)) == critical_reference(program, front)
        assert set(critical_of(state, front)) <= front
