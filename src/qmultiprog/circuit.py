"""Quantum program IR: gate list, OpenQASM 2 subset parser and dependency DAG.

Programs are immutable after construction; all operations here are pure
functions, so programs and DAGs can be shared freely across threads.
"""
from __future__ import annotations

import math
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

    @property
    def is_cnot(self) -> bool:
        return self.kind == CNOT

    @property
    def is_unitary(self) -> bool:
        return self.kind == CNOT or self.kind in ONE_QUBIT_GATES


@dataclass(frozen=True)
class QuantumProgram:
    """A named gate sequence over ``n_qubits`` logical qubits.

    ``n_cnot`` and ``n_1q`` cache the two-qubit and one-qubit gate counts;
    measures and barriers are kept in ``gates`` but excluded from both, so
    ``gate_count`` matches the way benchmark sizes are usually quoted.
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
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise ValueError(f"gate ids must equal program order (gate {i})")
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit {q} out of range in gate {i}")
            if g.kind == CNOT:
                n_cnot += 1
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
            if g.is_cnot:
                key = (min(g.qubits), max(g.qubits))
                weights[key] = weights.get(key, 0) + 1
        return weights

    def cnot_weights(self) -> Mapping[tuple[int, int], int]:
        """CNOT count per unordered logical pair (the interaction graph), in
        order of first appearance. Counted once per program; callers get a
        read-only view of the cached counts."""
        return MappingProxyType(self._cnot_counts)


@dataclass(frozen=True)
class Dag:
    """Data-dependency DAG: edge u -> v iff u is v's nearest predecessor on a
    shared qubit. Barriers are isolated nodes (they impose no dependencies)."""

    program: QuantumProgram
    edges: frozenset[tuple[int, int]]
    predecessors: dict[int, frozenset[int]]
    successors: dict[int, frozenset[int]]

    @property
    def nodes(self) -> range:
        return range(len(self.program.gates))


def build_dag(program: QuantumProgram) -> Dag:
    """Build the nearest-predecessor-per-shared-qubit dependency DAG."""
    last_on_qubit: dict[int, int] = {}
    preds: dict[int, set[int]] = {g.id: set() for g in program.gates}
    succs: dict[int, set[int]] = {g.id: set() for g in program.gates}
    edges: set[tuple[int, int]] = set()
    for g in program.gates:
        if g.kind == BARRIER:
            continue
        for q in g.qubits:
            if q in last_on_qubit:
                u = last_on_qubit[q]
                if u != g.id:
                    edges.add((u, g.id))
                    preds[g.id].add(u)
                    succs[u].add(g.id)
            last_on_qubit[q] = g.id
    return Dag(
        program=program,
        edges=frozenset(edges),
        predecessors={k: frozenset(v) for k, v in preds.items()},
        successors={k: frozenset(v) for k, v in succs.items()},
    )


def front_layer(dag: Dag, executed: set[int]) -> set[int]:
    """CNOT gates whose DAG predecessors are all executed, themselves pending.

    This is the reference definition, rescanning every gate; the routers
    maintain the same set incrementally as gates execute.
    """
    return {
        g.id
        for g in dag.program.gates
        if g.is_cnot and g.id not in executed and dag.predecessors[g.id] <= executed
    }


def critical_gates(dag: Dag, front: set[int]) -> set[int]:
    """Front-layer gates with at least one successor; resolving one of these
    advances the dependency frontier."""
    return {gid for gid in front if dag.successors[gid]}


def ready_gates(dag: Dag, executed: set[int]) -> list[int]:
    """All pending gates (any kind) whose predecessors are executed, in id order.

    This is the reference definition, rescanning every gate; the routers
    maintain the same set incrementally as gates execute.
    """
    return [
        g.id
        for g in dag.program.gates
        if g.id not in executed and dag.predecessors[g.id] <= executed
    ]


# --- OpenQASM 2 subset -------------------------------------------------------

_QREG_RE = re.compile(r"qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_OPERAND_RE = re.compile(r"([A-Za-z_]\w*)(?:\s*\[\s*(\d+)\s*\])?$")


def _eval_param(expr: str, line: int) -> float:
    """Evaluate a QASM angle expression: numbers, pi, + - * / and parentheses.
    Division by zero and a non-finite result are parse errors."""
    tokens = re.findall(r"pi|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?|[()+\-*/]", expr)
    if "".join(tokens).replace(" ", "") != expr.replace(" ", ""):
        raise QasmError(f"bad angle expression {expr!r}", line)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom() -> float:
        tok = peek()
        if tok is None:
            raise QasmError(f"truncated angle expression {expr!r}", line)
        if tok == "-":
            take()
            return -atom()
        if tok == "+":
            take()
            return atom()
        if tok == "(":
            take()
            val = add_expr()
            if peek() != ")":
                raise QasmError(f"unbalanced parentheses in {expr!r}", line)
            take()
            return val
        take()
        if tok == "pi":
            return math.pi
        try:
            return float(tok)
        except ValueError:
            raise QasmError(f"bad number {tok!r} in angle expression", line) from None

    def mul_expr() -> float:
        val = atom()
        while peek() in ("*", "/"):
            op = take()
            rhs = atom()
            val = val * rhs if op == "*" else val / rhs
        return val

    def add_expr() -> float:
        val = mul_expr()
        while peek() in ("+", "-"):
            op = take()
            rhs = mul_expr()
            val = val + rhs if op == "+" else val - rhs
        return val

    try:
        result = add_expr()
    except ZeroDivisionError:
        raise QasmError(f"division by zero in angle expression {expr!r}", line) from None
    except RecursionError:
        raise QasmError("angle expression nested too deeply", line) from None
    if pos != len(tokens):
        raise QasmError(f"trailing tokens in angle expression {expr!r}", line)
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
                return parts, text[i + 1 :].lstrip()
        elif ch == "," and depth == 1:
            parts.append(text[start:i])
            start = i + 1
    raise QasmError(f"unbalanced parentheses in {text!r}", line)


def _strip_comment(line: str) -> str:
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def parse_program(text: str, name: str = "program") -> QuantumProgram:
    """Parse an OpenQASM 2 subset source into a QuantumProgram.

    Supported: one qreg, optional cregs, the fixed gate set
    {u1,u2,u3,rx,ry,rz,h,x,y,z,s,sdg,t,tdg,cx,measure,barrier}, comments and
    ``include "qelib1.inc";`` (ignored). One-qubit gates, barrier and measure
    broadcast over the whole register when given an unindexed operand.
    Measurement must be terminal on its qubit: no later gate may touch it.
    """
    qreg_name: str | None = None
    n_qubits = 0
    gates: list[Gate] = []
    measured: set[int] = set()

    def operand_indices(tok: str, lineno: int) -> list[int]:
        m = _OPERAND_RE.match(tok.strip())
        if not m or m.group(1) != qreg_name:
            raise QasmError(f"unknown operand {tok.strip()!r}", lineno)
        if m.group(2) is None:
            return list(range(n_qubits))
        idx = int(m.group(2))
        if idx >= n_qubits:
            raise QasmError(f"qubit index {idx} out of range (qreg size {n_qubits})", lineno)
        return [idx]

    def emit(kind: str, qubits: tuple[int, ...], params: tuple[float, ...], lineno: int):
        if kind != BARRIER:
            for q in qubits:
                if q in measured:
                    raise QasmError(f"qubit {q} already measured; measurement must be terminal", lineno)
        if kind == MEASURE:
            measured.update(qubits)
        gates.append(Gate(kind, qubits, params, id=len(gates)))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        for stmt in _strip_comment(raw).split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if stmt.startswith("OPENQASM") or stmt.startswith("include"):
                continue
            m = _QREG_RE.match(stmt)
            if m:
                if qreg_name is not None:
                    raise QasmError("exactly one qreg is supported", lineno)
                qreg_name, n_qubits = m.group(1), int(m.group(2))
                continue
            if _CREG_RE.match(stmt):
                continue
            if qreg_name is None:
                raise QasmError("statement before qreg declaration", lineno)

            head = re.match(r"([A-Za-z_]\w*)\s*", stmt)
            if not head:
                raise QasmError(f"cannot parse statement {stmt!r}", lineno)
            opname, rest = head.group(1), stmt[head.end():]
            param_parts = None
            if rest.startswith("("):
                param_parts, rest = _split_params(rest, lineno)
            if opname not in ONE_QUBIT_GATES and opname not in (MEASURE, BARRIER, CNOT):
                raise QasmError(f"unsupported gate {opname!r}", lineno)
            want = PARAM_COUNTS.get(opname, 0)
            if param_parts is not None and not want:
                raise QasmError(f"{opname} takes no parameters", lineno)

            if opname == "measure":
                target = rest.split("->")[0]  # classical target ignored
                for q in operand_indices(target, lineno):
                    emit(MEASURE, (q,), (), lineno)
            elif opname == "barrier":
                qubits: list[int] = []
                for tok in rest.split(","):
                    qubits.extend(operand_indices(tok, lineno))
                emit(BARRIER, tuple(qubits), (), lineno)
            elif opname == "cx":
                operands = rest.split(",")
                if len(operands) != 2:
                    raise QasmError("cx takes two operands", lineno)
                indices = [operand_indices(t, lineno) for t in operands]
                if any(len(idx) != 1 for idx in indices):
                    raise QasmError("cx operands must be single indexed qubits", lineno)
                (a,), (b,) = indices
                if a == b:
                    raise QasmError("cx operands must be distinct", lineno)
                emit(CNOT, (a, b), (), lineno)
            else:
                params: tuple[float, ...] = ()
                if want:
                    if param_parts is None or len(param_parts) != want or any(not p.strip() for p in param_parts):
                        raise QasmError(f"{opname} needs {want} parameter(s)", lineno)
                    params = tuple(_eval_param(p.strip(), lineno) for p in param_parts)
                for q in operand_indices(rest, lineno):
                    emit(opname, (q,), params, lineno)

    if qreg_name is None:
        raise QasmError("no qreg declaration found", len(text.splitlines()) or 1)
    return QuantumProgram(name=name, n_qubits=n_qubits, gates=tuple(gates))


def parse_program_file(path, name: str | None = None) -> QuantumProgram:
    from pathlib import Path

    p = Path(path)
    return parse_program(p.read_text(), name=name if name is not None else p.stem)


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
