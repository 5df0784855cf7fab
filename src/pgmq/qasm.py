"""OpenQASM 2.0 frontend: tokenizer, recursive-descent parser with located
errors, custom-gate inlining, and rewriting of all entangling gates into the
canonical-CNOT / Z(x)Z basis used by the compiler.

The standard library ("qelib1.inc") is satisfied internally; gate matrices
follow its literal u1/u2/u3 definitions so parsed circuits are phase-exact.

Inputs are bounded before they are built: registers may declare at most
MAX_QUBITS qubits (and as many classical bits) in total, and a gate call that
would push the circuit past MAX_GATES gates is refused before it is inlined,
from the expanded size each custom gate records when it is defined.

A gate definition is checked where it is written, whether the file calls it
or not: each body call names a built-in or an earlier gate with its numbers
of parameters and qubits, its qubits are distinct arguments of the
definition, and its expressions use only the definition's parameters.  Each
expression is parsed once, into a function of the parameter values that
every inlined call evaluates.

Measurements are terminal: each `measure` is recorded in `Circuit.measures`,
and a gate call after one is refused at the call.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    CircuitError,
    GeneralizedCnot,
    InputError,
    Measure,
    Barrier,
    SingleQubit,
    ZzRotation,
    cnot,
    hadamard,
    pauli_gate,
    u1,
    u3,
)


MAX_QUBITS = 1024
MAX_GATES = 100_000


class QasmError(CircuitError):
    """Parse or semantic error with a source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(eq=False)
class Token:
    kind: str  # ID, REAL, INT, STRING, or the literal symbol
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<symbol>->|==|[;,(){}\[\]+\-*/^=])
  | (?P<bad>.)
""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    # only whitespace can hold a line break: a token's column is its offset
    # from the start of its line
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "ws":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rfind("\n") + 1
        elif kind != "comment":
            col = m.start() - line_start + 1
            if kind == "bad":
                raise QasmError(f"unexpected character {text!r}", line, col)
            tokens.append(Token(text if kind == "symbol" else kind.upper(),
                                text, line, col))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Gate construction (qelib1-compatible semantics)
# ---------------------------------------------------------------------------

def _u2(phi: float, lam: float, q: int) -> SingleQubit:
    return u3(math.pi / 2, phi, lam, q)


def _rx(theta: float, q: int) -> SingleQubit:
    return u3(theta, -math.pi / 2, math.pi / 2, q)


def _ry(theta: float, q: int) -> SingleQubit:
    return u3(theta, 0.0, 0.0, q)


def _crz(lam, a, b):
    return [u1(lam / 2, b), cnot(a, b), u1(-lam / 2, b), cnot(a, b)], 1.0


def _cu1(lam, a, b):
    return ([u1(lam / 2, a), cnot(a, b), u1(-lam / 2, b), cnot(a, b),
             u1(lam / 2, b)], 1.0)


def _ccx(a, b, c):
    gates = [hadamard(c), cnot(b, c), u1(-math.pi / 4, c), cnot(a, c),
             u1(math.pi / 4, c), cnot(b, c), u1(-math.pi / 4, c), cnot(a, c),
             u1(math.pi / 4, b), u1(math.pi / 4, c), hadamard(c),
             cnot(a, b), u1(math.pi / 4, a), u1(-math.pi / 4, b), cnot(a, b)]
    return gates, 1.0


@dataclass(eq=False)
class _Gate:
    """What a call may name: a built-in, whose builder(params, qubits)
    returns (gates, phase), or a definition, whose body holds one
    (callee, parameter expressions, argument positions) per call."""

    nparams: int
    nqubits: int
    builder: object = None
    body: tuple = ()
    size: int = 0  # gates one call inlines


def _builtin(nparams: int, nqubits: int, builder) -> _Gate:
    gates, _ = builder([0.0] * nparams, list(range(nqubits)))
    return _Gate(nparams, nqubits, builder, size=len(gates))


def _single(builder):
    return lambda ps, qs: ([builder(*ps, qs[0])], 1.0)


# name -> (num params, num qubits, builder(params, qubits) -> (gates, phase))
_BUILTIN = {name: _builtin(*spec) for name, spec in {
    "U": (3, 1, _single(u3)),
    "u3": (3, 1, _single(u3)),
    "u2": (2, 1, _single(_u2)),
    "u1": (1, 1, _single(u1)),
    "rz": (1, 1, _single(u1)),   # qelib1: rz(phi) == u1(phi)
    "rx": (1, 1, _single(_rx)),
    "ry": (1, 1, _single(_ry)),
    "h": (0, 1, _single(hadamard)),
    "x": (0, 1, lambda ps, qs: ([pauli_gate("X", qs[0])], 1.0)),
    "y": (0, 1, lambda ps, qs: ([pauli_gate("Y", qs[0])], 1.0)),
    "z": (0, 1, lambda ps, qs: ([pauli_gate("Z", qs[0])], 1.0)),
    "s": (0, 1, lambda ps, qs: ([u1(math.pi / 2, qs[0])], 1.0)),
    "sdg": (0, 1, lambda ps, qs: ([u1(-math.pi / 2, qs[0])], 1.0)),
    "t": (0, 1, lambda ps, qs: ([u1(math.pi / 4, qs[0])], 1.0)),
    "tdg": (0, 1, lambda ps, qs: ([u1(-math.pi / 4, qs[0])], 1.0)),
    "id": (0, 1, lambda ps, qs: ([u3(0.0, 0.0, 0.0, qs[0])], 1.0)),
    "CX": (0, 2, lambda ps, qs: ([cnot(qs[0], qs[1])], 1.0)),
    "cx": (0, 2, lambda ps, qs: ([cnot(qs[0], qs[1])], 1.0)),
    "cz": (0, 2, lambda ps, qs:
           ([GeneralizedCnot("Z", qs[0], "Z", qs[1])], 1.0)),
    "swap": (0, 2, lambda ps, qs:
             ([cnot(qs[0], qs[1]), cnot(qs[1], qs[0]), cnot(qs[0], qs[1])], 1.0)),
    # rzz(theta) == cx; u1(theta) t; cx == e^{i theta/2} exp(-i theta/2 ZZ)
    "rzz": (1, 2, lambda ps, qs:
            ([ZzRotation(-ps[0] / 2, qs[0], qs[1])], np.exp(1j * ps[0] / 2))),
    "crz": (1, 2, lambda ps, qs: _crz(ps[0], qs[0], qs[1])),
    "cu1": (1, 2, lambda ps, qs: _cu1(ps[0], qs[0], qs[1])),
    "ccx": (0, 3, lambda ps, qs: _ccx(qs[0], qs[1], qs[2])),
}.items()}

_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
}
_BINARY = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}


def _binary(op: str, a, b):
    f = _BINARY[op]
    return lambda env: f(a(env), b(env))


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.gate_defs: dict[str, _Gate] = dict(_BUILTIN)  # name -> gate
        self.num_qubits = 0
        self.num_bits = 0
        self.gates: list = []
        self.measures: list[Measure] = []
        self.phase: complex = 1.0 + 0j

    # -- token helpers ------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise QasmError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, msg: str, tok: Token | None = None):
        t = tok or self.peek()
        raise QasmError(msg, t.line, t.col)

    def comma_list(self, item) -> list:
        """`item {, item}`: what each `item()` call parses, in order."""
        items = [item()]
        while self.peek().kind == ",":
            self.next()
            items.append(item())
        return items

    def paren_list(self, item) -> list:
        """An optional `( [item {, item}] )`: [] when absent or empty."""
        if self.peek().kind != "(":
            return []
        self.next()
        items = [] if self.peek().kind == ")" else self.comma_list(item)
        self.expect(")")
        return items

    # -- grammar ------------------------------------------------------------
    def parse(self) -> Circuit:
        t = self.expect("ID")
        if t.text != "OPENQASM":
            self.error("file must start with an OPENQASM 2.0 header", t)
        v = self.next()
        if v.text != "2.0":
            self.error(f"unsupported OpenQASM version {v.text!r} "
                       "(only 2.0 is supported)", v)
        self.expect(";")
        while self.peek().kind != "EOF":
            self.statement()
        return Circuit(self.num_qubits, self.gates, self.num_bits,
                       self.phase, self.measures)

    def statement(self):
        t = self.peek()
        if t.kind != "ID":
            self.error(f"unexpected token {t.text!r}")
        kw = t.text
        if kw == "include":
            self.next()
            s = self.expect("STRING")
            if s.text.strip('"') != "qelib1.inc":
                self.error(f"unknown include {s.text}", s)
            self.expect(";")
        elif kw in ("qreg", "creg"):
            self.next()
            name = self.expect("ID")
            self.expect("[")
            size_tok = self.expect("INT")
            size = int(size_tok.text)
            self.expect("]")
            self.expect(";")
            table = self.qregs if kw == "qreg" else self.cregs
            if name.text in self.qregs or name.text in self.cregs:
                self.error(f"register {name.text!r} already declared", name)
            if size == 0:
                self.error(f"register {name.text!r} has size 0", size_tok)
            total = (self.num_qubits if kw == "qreg" else self.num_bits) + size
            if total > MAX_QUBITS:
                what = "qubits" if kw == "qreg" else "classical bits"
                self.error(f"register {name.text!r} brings the {what} to "
                           f"{total}, above the limit of {MAX_QUBITS}", size_tok)
            if kw == "qreg":
                table[name.text] = (self.num_qubits, size)
                self.num_qubits += size
            else:
                table[name.text] = (self.num_bits, size)
                self.num_bits += size
        elif kw == "gate":
            self.gate_definition()
        elif kw == "measure":
            self.next()
            qbits = self.operand_qubits()
            self.expect("->")
            cbits = self.operand_bits()
            self.expect(";")
            if len(qbits) != len(cbits):
                self.error("measure operand sizes differ", t)
            self.measures.extend(map(Measure, qbits, cbits))
        elif kw == "barrier":
            self.next()
            operands = self.comma_list(self.operand_qubits)
            self.expect(";")
            self.gates.append(Barrier(tuple(q for o in operands for q in o)))
        elif kw in ("if", "reset", "opaque"):
            self.error(f"unsupported statement {kw!r}", t)
        else:
            self.gate_call()

    def gate_definition(self):
        """Parse `gate name(params) qargs { body }` and check each body call
        where it is written: OpenQASM 2.0 bodies call only built-in or
        earlier gates, which keeps the call graph acyclic."""
        self.expect("ID")  # 'gate'
        name = self.expect("ID")
        params = self._names(self.paren_list(lambda: self.expect("ID")), name)
        qargs = self._names(self.comma_list(lambda: self.expect("ID")), name)

        def qarg() -> int:
            t = self.expect("ID")
            if t.text not in qargs:
                self.error(f"unknown qubit argument {t.text!r} in gate "
                           f"{name.text!r}", t)
            return qargs.index(t.text)

        self.expect("{")
        body = []
        while self.peek().kind != "}":
            t = self.next()
            if t.kind != "ID":
                self.error(f"unexpected token {t.text!r} in gate body", t)
            if t.text == "barrier":
                self.comma_list(qarg)
                self.expect(";")
                continue
            callee = self.gate_defs.get(t.text)
            if callee is None:
                self.error(f"unknown gate {t.text!r} in the body of "
                           f"{name.text!r}", t)
            exprs = self.paren_list(lambda: self.expr(params))
            args = self.comma_list(qarg)
            self.expect(";")
            self.check_call(t, callee, len(exprs), args)
            body.append((callee, exprs, args))
        self.expect("}")
        self.gate_defs[name.text] = _Gate(
            len(params), len(qargs), body=tuple(body),
            size=sum(callee.size for callee, _, _ in body))

    def _names(self, tokens: list[Token], gate: Token) -> list[str]:
        names: list[str] = []
        for t in tokens:
            if t.text in names:
                self.error(f"repeated name {t.text!r} in gate {gate.text!r}", t)
            names.append(t.text)
        return names

    # -- operands -----------------------------------------------------------
    def _operand(self, table: dict, what: str) -> list[int]:
        name = self.expect("ID")
        if name.text not in table:
            self.error(f"undeclared {what} register {name.text!r}", name)
        offset, size = table[name.text]
        if self.peek().kind == "[":
            self.next()
            idx = int(self.expect("INT").text)
            self.expect("]")
            if idx >= size:
                self.error(f"index {idx} out of range for {name.text}[{size}]",
                           name)
            return [offset + idx]
        return [offset + i for i in range(size)]

    def operand_qubits(self) -> list[int]:
        return self._operand(self.qregs, "quantum")

    def operand_bits(self) -> list[int]:
        return self._operand(self.cregs, "classical")

    # -- expressions --------------------------------------------------------
    # An expression is parsed once, over the parameter names in scope, into
    # (first token, f) where f(env) computes it from the parameter values
    # in that order; `value` evaluates it and locates any error.
    def expr(self, names: list[str]) -> tuple:
        return self.peek(), self._expr_add(names)

    def value(self, expr: tuple, env) -> float:
        start, f = expr
        try:
            v = f(env)
        except OverflowError:
            self.error("expression value out of range", start)
        except (ZeroDivisionError, ValueError) as exc:
            self.error(f"cannot evaluate expression: {exc}", start)
        if not math.isfinite(v):
            self.error(f"expression value {v} is not finite", start)
        return v

    def _expr_add(self, names):
        f = self._expr_mul(names)
        while self.peek().kind in ("+", "-"):
            f = _binary(self.next().kind, f, self._expr_mul(names))
        return f

    def _expr_mul(self, names):
        f = self._expr_pow(names)
        while self.peek().kind in ("*", "/"):
            f = _binary(self.next().kind, f, self._expr_pow(names))
        return f

    def _expr_pow(self, names):
        base = self._expr_atom(names)
        if self.peek().kind != "^":
            return base
        op = self.next()
        exponent = self._expr_pow(names)

        def power(env):
            v = base(env) ** exponent(env)
            if isinstance(v, complex):
                self.error("negative base with a fractional exponent", op)
            return v
        return power

    def _expr_atom(self, names):
        t = self.next()
        if t.kind == "-":
            f = self._expr_atom(names)
            return lambda env: -f(env)
        if t.kind == "+":
            return self._expr_atom(names)
        if t.kind in ("REAL", "INT"):
            v = float(t.text)
            return lambda env: v
        if t.kind == "(":
            f = self._expr_add(names)
            self.expect(")")
            return f
        if t.kind == "ID":
            if t.text == "pi":
                return lambda env: math.pi
            if t.text in _FUNCS:
                func = _FUNCS[t.text]
                self.expect("(")
                f = self._expr_add(names)
                self.expect(")")
                return lambda env: func(f(env))
            if t.text in names:
                i = names.index(t.text)
                return lambda env: env[i]
            self.error(f"unknown identifier {t.text!r} in expression", t)
        self.error(f"unexpected token {t.text!r} in expression", t)

    # -- gate application ---------------------------------------------------
    def check_call(self, name: Token, gate: _Gate, nparams: int,
                   qubits: list[int]):
        if nparams != gate.nparams or len(qubits) != gate.nqubits:
            self.error(f"wrong arity for gate {name.text!r}", name)
        if len(set(qubits)) != len(qubits):
            self.error("duplicate qubit operand", name)

    def gate_call(self):
        name = self.expect("ID")
        gate = self.gate_defs.get(name.text)
        if gate is None:
            self.error(f"unknown gate {name.text!r}", name)
        params = self.paren_list(lambda: self.value(self.expr([]), ()))
        operands = self.comma_list(self.operand_qubits)
        self.expect(";")
        if self.measures:
            qubits = ", ".join(str(q) for o in operands for q in o)
            self.error(f"gate on qubit(s) {qubits} after the measurement of "
                       f"qubit {self.measures[-1].qubit}: only terminal "
                       "measurements are supported", name)
        # register broadcast: all multi-qubit operands must agree in size
        sizes = {len(o) for o in operands if len(o) > 1}
        if len(sizes) > 1:
            self.error("mismatched register sizes in gate call", name)
        reps = sizes.pop() if sizes else 1
        if len(self.gates) + reps * gate.size > MAX_GATES:
            self.error(f"gate {name.text!r} would expand the circuit past "
                       f"{MAX_GATES} gates ({reps} x {gate.size} more after "
                       f"{len(self.gates)})", name)
        for i in range(reps):
            qs = [o[i] if len(o) > 1 else o[0] for o in operands]
            self.check_call(name, gate, len(params), qs)
            self.apply_gate(gate, params, qs)

    def apply_gate(self, gate: _Gate, params: list[float], qs: list[int]):
        """Inline one checked call of `gate` on qubits `qs`."""
        if gate.builder is not None:
            gates, phase = gate.builder(params, qs)
            self.gates.extend(gates)
            self.phase *= phase
            return
        for callee, exprs, args in gate.body:
            self.apply_gate(callee, [self.value(e, params) for e in exprs],
                            [qs[i] for i in args])


def parse_qasm(source: str) -> Circuit:
    """Parse OpenQASM 2.0 text into a Circuit (registers concatenated in
    declaration order, custom gates inlined, errors carry line/column)."""
    parser = Parser(source)
    try:
        return parser.parse()
    except RecursionError:
        t = parser.peek()
        raise QasmError("expression or gate nesting too deep",
                        t.line, t.col) from None


def parse_qasm_file(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as f:
            source = f.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_qasm(source)


# ---------------------------------------------------------------------------
# Entangling-basis normalization
# ---------------------------------------------------------------------------

def to_zz_basis(circuit: Circuit) -> Circuit:
    """The circuit in the gate set every later stage takes: one-qubit gates,
    canonical CNOTs and ZZ rotations.  Each CZ, the one other entangling
    gate the parser emits, is rewritten exactly as a ZZ rotation with phase
    corrections; any other non-canonical CNOT is refused."""
    out = Circuit(circuit.num_qubits, [], circuit.classical_bits,
                  circuit.global_phase, circuit.measures)
    for g in circuit.gates:
        if isinstance(g, GeneralizedCnot) and not g.is_canonical:
            if g.control_axis != "Z" or g.target_axis != "Z":
                raise CircuitError(f"to_zz_basis takes canonical CNOTs and "
                                   f"CZ, not {g!r}")
            # C_{Z^Z} = e^{-i pi/4} u1(pi/2)_a u1(pi/2)_b exp(i pi/4 Z Z)
            out.global_phase *= np.exp(-1j * math.pi / 4)
            out.add(u1(math.pi / 2, g.control))
            out.add(u1(math.pi / 2, g.target))
            out.add(ZzRotation(math.pi / 4, g.control, g.target))
        else:
            out.add(g)
    return out


def two_qubit_count(circuit: Circuit) -> int:
    """Number of entangling gates, each CNOT or ZZ rotation counting as one."""
    return sum(1 for g in circuit.gates
               if isinstance(g, (GeneralizedCnot, ZzRotation)))
