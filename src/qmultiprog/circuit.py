"""Quantum program IR: gate list, OpenQASM 2 subset parser and program order.

Programs are immutable after construction; all operations here are pure
functions, so programs can be shared freely across threads. Program order
has one representation, ``qubit_lines``: per logical qubit, the gates still
to run on it, next one last. The routers' front layer and ``decompose``'s
equivalence certificate both consume fresh copies of those lines.
``Gate`` and ``QuantumProgram`` own every rule about gates and programs; the
parser checks syntax only and names the source line of their refusals.
Angle expressions are read by Python's own parser (``ast``), after a check
that they hold only ASCII numerals, ``pi``, ``+ - * /`` and parentheses; a
walker over the syntax tree refuses every other construct.
"""
from __future__ import annotations

import ast
import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

ONE_QUBIT_GATES = frozenset(
    ["u1", "u2", "u3", "rx", "ry", "rz", "h", "x", "y", "z", "s", "sdg", "t", "tdg"]
)
PARAM_COUNTS = {"u1": 1, "u2": 2, "u3": 3, "rx": 1, "ry": 1, "rz": 1}
CNOT = "cx"
MEASURE = "measure"
BARRIER = "barrier"


class QasmError(ValueError):
    """Parse failure, carrying the 1-based source line it occurred on."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GateError(ValueError):
    """A program refused one of its gates; ``gate`` is that gate's index."""

    def __init__(self, message: str, gate: int):
        super().__init__(f"gate {gate}: {message}")
        self.gate = gate


@dataclass(frozen=True)
class Gate:
    """One instruction: an opcode, its qubit operands and rotation angles.

    ``id`` is the gate's index in program order and is unique per program.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    id: int = -1

    def __post_init__(self):
        if self.kind == CNOT:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"cx needs two distinct qubits, got {self.qubits}")
        elif self.kind in ONE_QUBIT_GATES or self.kind == MEASURE:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} takes exactly one qubit")
        elif self.kind != BARRIER:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = PARAM_COUNTS.get(self.kind, 0)
        if len(self.params) != want:
            detail = f"{want} parameter(s), got {len(self.params)}" if want else "no parameters"
            raise ValueError(f"{self.kind} takes {detail}")

    @property
    def is_unitary(self) -> bool:
        return self.kind == CNOT or self.kind in ONE_QUBIT_GATES


def _placed(gate: Gate, qubits: tuple[int, ...], gid: int) -> Gate:
    """``gate`` moved onto ``qubits`` with id ``gid``, without rerunning
    ``Gate``'s checks: valid because ``gate`` is, provided ``qubits`` names
    as many qubits as ``gate.qubits`` and repeats none that it does not.
    Fields are set one by one in declaration order, as ``__init__`` does,
    so the instance keeps the compact attribute layout of other gates."""
    placed = object.__new__(Gate)
    object.__setattr__(placed, "kind", gate.kind)
    object.__setattr__(placed, "qubits", qubits)
    object.__setattr__(placed, "params", gate.params)
    object.__setattr__(placed, "id", gid)
    return placed


@dataclass(frozen=True)
class QuantumProgram:
    """A named gate sequence over ``n_qubits`` logical qubits.

    ``n_cnot`` and ``n_1q`` cache the two-qubit and one-qubit gate counts;
    measures and barriers are kept in ``gates`` but excluded from both, so
    ``gate_count`` matches the way benchmark sizes are usually quoted.
    Measurement is terminal: once a qubit is measured, only barriers name it.
    """

    name: str
    n_qubits: int
    gates: tuple[Gate, ...]
    n_cnot: int = field(init=False)
    n_1q: int = field(init=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("a program needs at least one qubit")
        n_cnot = n_1q = 0
        measured: set[int] = set()
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise GateError(f"id {g.id} differs from its place in program order", i)
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise GateError(f"qubit {q} out of range ({self.n_qubits} qubits)", i)
                if q in measured and g.kind != BARRIER:
                    raise GateError(f"qubit {q} already measured; measurement must be terminal", i)
            if g.kind == CNOT:
                n_cnot += 1
            elif g.kind == MEASURE:
                measured.add(g.qubits[0])
            elif g.kind in ONE_QUBIT_GATES:
                n_1q += 1
        object.__setattr__(self, "n_cnot", n_cnot)
        object.__setattr__(self, "n_1q", n_1q)

    @property
    def gate_count(self) -> int:
        """Operational gate count (CNOTs + one-qubit gates)."""
        return self.n_cnot + self.n_1q

    @property
    def cnot_density(self) -> float:
        return self.n_cnot / self.n_qubits

    @cached_property
    def _cnot_counts(self) -> dict[tuple[int, int], int]:
        # Counted on first use; not a dataclass field, so == and hash ignore it.
        weights: dict[tuple[int, int], int] = {}
        for g in self.gates:
            if g.kind == CNOT:
                key = (min(g.qubits), max(g.qubits))
                weights[key] = weights.get(key, 0) + 1
        return weights

    def cnot_weights(self) -> Mapping[tuple[int, int], int]:
        """CNOT count per unordered logical pair (the interaction graph), in
        order of first appearance. Counted once per program; callers get a
        read-only view of the cached counts."""
        return MappingProxyType(self._cnot_counts)


def qubit_lines(program: QuantumProgram) -> tuple[list[list[int]], set[int]]:
    """Program order, per logical qubit: the ids of the program's non-barrier
    gates on that qubit in reverse program order, so the next gate to execute
    is last, and the set of barrier ids. Barriers order nothing. A gate may
    run once it is last on every one of its lines; it has a later gate that
    depends on it when one of those lines holds more than one gate."""
    lines: list[list[int]] = [[] for _ in range(program.n_qubits)]
    barriers = set()
    for g in program.gates:
        if g.kind == BARRIER:
            barriers.add(g.id)
        else:
            for q in g.qubits:
                lines[q].append(g.id)
    for line in lines:
        line.reverse()
    return lines, barriers


# --- OpenQASM 2 subset -------------------------------------------------------

_QREG_RE = re.compile(r"qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$", re.ASCII)
_CREG_RE = re.compile(r"creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$", re.ASCII)
_OPERAND_RE = re.compile(r"([A-Za-z_]\w*)(?:\s*\[\s*(\d+)\s*\])?$", re.ASCII)
_HEAD_RE = re.compile(r"([A-Za-z_]\w*)(?=[\s(]|$)\s*", re.ASCII)  # a whole ASCII name: "hé" is no gate "h"
_ANGLE_TOKEN_RE = re.compile(r"pi|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?|[()+\-*/]", re.ASCII)
# OpenQASM 2 is ASCII: statements, operands and angles are trimmed of ASCII
# whitespace only, so a no-break or ideographic space is refused, not skipped.
_SPACE = " \t\n\r\x0b\x0c"
_BLANKS = str.maketrans(_SPACE, " " * len(_SPACE))
_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _angle(node: ast.AST) -> float:
    """Value of an angle expression's syntax tree, evaluated left to right in
    float arithmetic; a node outside the angle grammar raises ValueError."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_angle(node.left), _angle(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_angle(node.operand))
    if isinstance(node, ast.Constant):  # the token check lets only numbers through
        try:
            return float(node.value)
        except OverflowError:  # an integer literal past the float range reads as inf, as its text does
            return math.inf
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    raise ValueError(f"{type(node).__name__} is not part of an angle expression")


def _eval_param(expr: str, line: int) -> float:
    """Evaluate a QASM angle expression: ASCII numbers, pi, + - * /, unary
    signs and parentheses, read by Python's parser, with every ASCII blank
    read as a space. Division by zero and a non-finite result are parse
    errors."""
    spaced = expr.translate(_BLANKS)
    tokens = _ANGLE_TOKEN_RE.findall(spaced)
    if "".join(tokens) != spaced.replace(" ", ""):
        raise QasmError(f"bad angle expression {expr!r}", line)
    try:
        result = _angle(ast.parse(spaced, mode="eval").body)
    except ZeroDivisionError:
        raise QasmError(f"division by zero in angle expression {expr!r}", line) from None
    except (RecursionError, MemoryError):
        raise QasmError("angle expression nested too deeply", line) from None
    except (SyntaxError, ValueError):
        raise QasmError(f"bad angle expression {expr!r}", line) from None
    if not math.isfinite(result):
        raise QasmError(f"angle expression {expr!r} is not a finite number", line)
    return result


def _split_params(text: str, line: int) -> tuple[list[str], str]:
    """Split ``text``, which opens with ``(``, at the ``)`` that closes it:
    the parameter texts between them, cut at top-level commas only, and the
    rest of the statement after it."""
    parts: list[str] = []
    depth, start = 0, 1
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if not depth:
                parts.append(text[start:i])
                return parts, text[i + 1 :].lstrip(_SPACE)
        elif ch == "," and depth == 1:
            parts.append(text[start:i])
            start = i + 1
    raise QasmError(f"unbalanced parentheses in {text!r}", line)


def _statements(text: str):
    """(line, statement) per ``;``-ended statement, trimmed of ASCII whitespace,
    with the line it starts on. Lines end at LF, CR LF or CR only, and a
    ``//`` comment runs to the end of its line."""
    code = "\n".join(line.split("//", 1)[0] for line in _LINE_BREAK_RE.split(text))
    line = 1
    for chunk in code.split(";"):
        stmt = chunk.strip(_SPACE)
        if stmt:
            yield line + chunk.count("\n", 0, chunk.index(stmt)), stmt
        line += chunk.count("\n")


def parse_program(text: str, name: str = "program") -> QuantumProgram:
    """Parse an OpenQASM 2 subset source into a QuantumProgram.

    Supported: one qreg, optional cregs, the fixed gate set
    {u1,u2,u3,rx,ry,rz,h,x,y,z,s,sdg,t,tdg,cx,measure,barrier}, comments and
    ``include "qelib1.inc";`` (ignored). One-qubit gates, barrier and measure
    broadcast over the whole register when given an unindexed operand.
    Only syntax is checked here; a refusal by ``Gate`` or ``QuantumProgram``
    (angle count, qubit range, terminal measurement...) becomes a
    ``QasmError`` on the refused statement's line.
    """
    qreg_name: str | None = None
    n_qubits = 0
    gates: list[Gate] = []
    gate_lines: list[int] = []

    def operand_indices(tok: str, lineno: int) -> list[int]:
        m = _OPERAND_RE.match(tok.strip(_SPACE))
        if not m or m.group(1) != qreg_name:
            raise QasmError(f"unknown operand {tok.strip(_SPACE)!r}", lineno)
        if m.group(2) is None:
            return list(range(n_qubits))
        return [int(m.group(2))]

    def emit(kind: str, qubits: tuple[int, ...], params: tuple[float, ...], lineno: int):
        try:
            gates.append(Gate(kind, qubits, params, id=len(gates)))
        except ValueError as exc:
            raise QasmError(str(exc), lineno) from None
        gate_lines.append(lineno)

    for lineno, stmt in _statements(text):
        if stmt.startswith("OPENQASM") or stmt.startswith("include"):
            continue
        m = _QREG_RE.match(stmt)
        if m:
            if qreg_name is not None:
                raise QasmError("exactly one qreg is supported", lineno)
            qreg_name, n_qubits = m.group(1), int(m.group(2))
            if not n_qubits:
                raise QasmError(f"qreg {qreg_name} has no qubits", lineno)
            continue
        if _CREG_RE.match(stmt):
            continue
        if qreg_name is None:
            raise QasmError("statement before qreg declaration", lineno)

        head = _HEAD_RE.match(stmt)
        if not head:
            raise QasmError(f"cannot parse statement {stmt!r}", lineno)
        opname, rest = head.group(1), stmt[head.end():]
        if opname not in ONE_QUBIT_GATES and opname not in (MEASURE, BARRIER, CNOT):
            raise QasmError(f"unsupported gate {opname!r}", lineno)
        params: tuple[float, ...] = ()
        if rest.startswith("("):
            parts, rest = _split_params(rest, lineno)
            if parts != [""]:  # "()" holds no angles
                params = tuple(_eval_param(p.strip(_SPACE), lineno) for p in parts)

        if opname == BARRIER:
            qubits = tuple(q for tok in rest.split(",") for q in operand_indices(tok, lineno))
            emit(BARRIER, qubits, params, lineno)
        elif opname == CNOT:
            operands = rest.split(",")
            if len(operands) != 2:
                raise QasmError("cx takes two operands", lineno)
            indices = [operand_indices(t, lineno) for t in operands]
            if any(len(idx) != 1 for idx in indices):
                raise QasmError("cx operands must be single indexed qubits", lineno)
            emit(CNOT, (*indices[0], *indices[1]), params, lineno)
        else:
            target = rest.split("->")[0] if opname == MEASURE else rest  # classical target ignored
            for q in operand_indices(target, lineno):
                emit(opname, (q,), params, lineno)

    if qreg_name is None:
        last_line = len(_LINE_BREAK_RE.findall(text)) + (not text.endswith(("\n", "\r")))
        raise QasmError("no qreg declaration found", last_line)
    try:
        return QuantumProgram(name=name, n_qubits=n_qubits, gates=tuple(gates))
    except GateError as exc:
        raise QasmError(str(exc), gate_lines[exc.gate]) from None


def parse_program_file(path, name: str | None = None) -> QuantumProgram:
    from pathlib import Path

    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise QasmError(f"not UTF-8 text: {exc.reason}", exc.object[: exc.start].count(b"\n") + 1) from exc
    return parse_program(source, name=name if name is not None else p.stem)


def serialize_program(program: QuantumProgram) -> str:
    """Render a program back to QASM. Round-trips through parse_program."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{program.n_qubits}];"]
    if any(g.kind == MEASURE for g in program.gates):
        lines.append(f"creg c[{program.n_qubits}];")
    for g in program.gates:
        if g.kind == MEASURE:
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.qubits[0]}];")
        elif g.kind == BARRIER:
            ops = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"barrier {ops};")
        else:
            params = f"({','.join(repr(p) for p in g.params)})" if g.params else ""
            ops = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"{g.kind}{params} {ops};")
    return "\n".join(lines) + "\n"
