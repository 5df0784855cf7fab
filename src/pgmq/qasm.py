"""OpenQASM 2.0 frontend: tokenizer, recursive-descent parser with located
errors, custom-gate inlining, and rewriting of all entangling gates into the
canonical-CNOT / Z(x)Z basis used by the compiler.

The standard library ("qelib1.inc") is satisfied internally; gate matrices
follow its literal u1/u2/u3 definitions so parsed circuits are phase-exact.

Inputs are bounded before they are built: registers may declare at most
MAX_QUBITS qubits (and as many classical bits) in total, and a gate call that
would push the circuit past MAX_GATES gates is refused before it is inlined,
from the expanded size each custom gate records when it is defined.
"""

from __future__ import annotations

import math
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
from .gadgets import _Z_TO  # Z -> P conjugators


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
""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise QasmError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            pass
        elif kind == "real":
            tokens.append(Token("REAL", text, line, col))
        elif kind == "int":
            tokens.append(Token("INT", text, line, col))
        elif kind == "id":
            tokens.append(Token("ID", text, line, col))
        elif kind == "string":
            tokens.append(Token("STRING", text, line, col))
        else:
            tokens.append(Token(text, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
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


# name -> (num params, num qubits, builder(params, qubits) -> (gates, phase))
def _single(builder):
    return lambda ps, qs: ([builder(*ps, qs[0])], 1.0)


_BUILTIN = {
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
}


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


_BUILTIN["crz"] = (1, 2, lambda ps, qs: _crz(ps[0], qs[0], qs[1]))
_BUILTIN["cu1"] = (1, 2, lambda ps, qs: _cu1(ps[0], qs[0], qs[1]))
_BUILTIN["ccx"] = (0, 3, lambda ps, qs: _ccx(qs[0], qs[1], qs[2]))

# gates each built-in expands to
_BUILTIN_SIZE = {name: len(builder([0.0] * nparams, list(range(nqubits)))[0])
                 for name, (nparams, nqubits, builder) in _BUILTIN.items()}

_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
}


@dataclass(eq=False)
class _GateDef:
    params: list[str]
    qargs: list[str]
    # (name token, its _GateDef or None if built in, param exprs, qarg names)
    body: list
    size: int  # gates one call inlines


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.gate_defs: dict[str, _GateDef] = {}
        self.num_qubits = 0
        self.num_bits = 0
        self.gates: list = []
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
        c = Circuit(self.num_qubits, [], classical_bits=self.num_bits,
                    global_phase=self.phase)
        for g in self.gates:
            c.add(g)
        return c

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
            for q, b in zip(qbits, cbits):
                self.gates.append(Measure(q, b))
        elif kw == "barrier":
            self.next()
            qs: list[int] = []
            qs.extend(self.operand_qubits())
            while self.peek().kind == ",":
                self.next()
                qs.extend(self.operand_qubits())
            self.expect(";")
            self.gates.append(Barrier(tuple(qs)))
        elif kw in ("if", "reset", "opaque"):
            self.error(f"unsupported statement {kw!r}", t)
        else:
            self.gate_call()

    def gate_definition(self):
        self.expect("ID")  # 'gate'
        name = self.expect("ID")
        params: list[str] = []
        if self.peek().kind == "(":
            self.next()
            while self.peek().kind != ")":
                params.append(self.expect("ID").text)
                if self.peek().kind == ",":
                    self.next()
            self.expect(")")
        qargs = [self.expect("ID").text]
        while self.peek().kind == ",":
            self.next()
            qargs.append(self.expect("ID").text)
        self.expect("{")
        body: list = []
        while self.peek().kind != "}":
            t = self.peek()
            if t.kind != "ID":
                self.error(f"unexpected token {t.text!r} in gate body")
            if t.text == "barrier":
                self.next()
                while self.peek().kind not in (";", "EOF"):
                    self.next()
                self.expect(";")
                continue
            gname = self.next()
            # OpenQASM 2.0 gate bodies call only built-in or earlier gates;
            # binding the definition now keeps the call graph acyclic
            target = self.gate_defs.get(gname.text)
            if target is None and gname.text not in _BUILTIN:
                self.error(f"unknown gate {gname.text!r} in the body of "
                           f"{name.text!r}", gname)
            pexprs: list[list[Token]] = []
            if self.peek().kind == "(":
                self.next()
                depth = 1
                cur: list[Token] = []
                while depth > 0:
                    tok = self.next()
                    if tok.kind == "EOF":
                        self.error("unexpected end of file in gate body", tok)
                    if tok.kind == "(":
                        depth += 1
                    elif tok.kind == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    if tok.kind == "," and depth == 1:
                        pexprs.append(cur)
                        cur = []
                    else:
                        cur.append(tok)
                if cur or pexprs:
                    pexprs.append(cur)
            gqs = [self.expect("ID").text]
            while self.peek().kind == ",":
                self.next()
                gqs.append(self.expect("ID").text)
            self.expect(";")
            body.append((gname, target, pexprs, gqs))
        self.expect("}")
        size = sum(_BUILTIN_SIZE[g.text] if d is None else d.size
                   for g, d, _, _ in body)
        self.gate_defs[name.text] = _GateDef(params, qargs, body, size)

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
    def eval_expr(self, env: dict[str, float]) -> float:
        start = self.peek()
        try:
            v = self._expr_add(env)
        except OverflowError:
            self.error("expression value out of range", start)
        except (ZeroDivisionError, ValueError) as exc:
            self.error(f"cannot evaluate expression: {exc}", start)
        if not math.isfinite(v):
            self.error(f"expression value {v} is not finite", start)
        return v

    def _expr_add(self, env) -> float:
        v = self._expr_mul(env)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            r = self._expr_mul(env)
            v = v + r if op == "+" else v - r
        return v

    def _expr_mul(self, env) -> float:
        v = self._expr_pow(env)
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            r = self._expr_pow(env)
            v = v * r if op == "*" else v / r
        return v

    def _expr_pow(self, env) -> float:
        v = self._expr_atom(env)
        if self.peek().kind == "^":
            op = self.next()
            v = v ** self._expr_pow(env)
            if isinstance(v, complex):
                self.error("negative base with a fractional exponent", op)
        return v

    def _expr_atom(self, env) -> float:
        t = self.next()
        if t.kind == "-":
            return -self._expr_atom(env)
        if t.kind == "+":
            return self._expr_atom(env)
        if t.kind in ("REAL", "INT"):
            return float(t.text)
        if t.kind == "(":
            v = self._expr_add(env)
            self.expect(")")
            return v
        if t.kind == "ID":
            if t.text == "pi":
                return math.pi
            if t.text in _FUNCS:
                self.expect("(")
                v = self._expr_add(env)
                self.expect(")")
                return _FUNCS[t.text](v)
            if t.text in env:
                return env[t.text]
            self.error(f"unknown identifier {t.text!r} in expression", t)
        self.error(f"unexpected token {t.text!r} in expression", t)

    # -- gate application ---------------------------------------------------
    def gate_call(self):
        name = self.expect("ID")
        params: list[float] = []
        if self.peek().kind == "(":
            self.next()
            if self.peek().kind != ")":
                params.append(self.eval_expr({}))
                while self.peek().kind == ",":
                    self.next()
                    params.append(self.eval_expr({}))
            self.expect(")")
        operands = [self.operand_qubits()]
        while self.peek().kind == ",":
            self.next()
            operands.append(self.operand_qubits())
        self.expect(";")
        # register broadcast: all multi-qubit operands must agree in size
        sizes = {len(o) for o in operands if len(o) > 1}
        if len(sizes) > 1:
            self.error("mismatched register sizes in gate call", name)
        reps = sizes.pop() if sizes else 1
        d = self.gate_defs.get(name.text)
        size = d.size if d is not None else _BUILTIN_SIZE.get(name.text, 0)
        if len(self.gates) + reps * size > MAX_GATES:
            self.error(f"gate {name.text!r} would expand the circuit past "
                       f"{MAX_GATES} gates ({reps} x {size} more after "
                       f"{len(self.gates)})", name)
        for i in range(reps):
            qs = [o[i] if len(o) > 1 else o[0] for o in operands]
            self.apply_gate(name, d, params, qs)

    def apply_gate(self, name: Token, d: _GateDef | None,
                   params: list[float], qs: list[int]):
        """Apply gate `name`: the definition `d`, or the built-in if None."""
        if len(set(qs)) != len(qs):
            self.error("duplicate qubit operand", name)
        if d is not None:
            if len(params) != len(d.params) or len(qs) != len(d.qargs):
                self.error(f"wrong arity for gate {name.text!r}", name)
            env = dict(zip(d.params, params))
            qmap = dict(zip(d.qargs, qs))
            for gname, target, pexprs, gqs in d.body:
                sub = Parser.__new__(Parser)
                sub.__dict__.update(self.__dict__)
                ps = []
                for expr in pexprs:
                    sub.tokens = expr + [Token("EOF", "", gname.line, gname.col)]
                    sub.pos = 0
                    ps.append(sub.eval_expr(env))
                    if sub.peek().kind != "EOF":
                        sub.error(f"unexpected token {sub.peek().text!r} in "
                                  f"expression")
                try:
                    mapped = [qmap[q] for q in gqs]
                except KeyError as e:
                    self.error(f"unknown qubit argument {e.args[0]!r} in gate "
                               f"{name.text!r}", gname)
                self.apply_gate(gname, target, ps, mapped)
            return
        if name.text not in _BUILTIN:
            self.error(f"unknown gate {name.text!r}", name)
        nparams, nqubits, builder = _BUILTIN[name.text]
        if len(params) != nparams or len(qs) != nqubits:
            self.error(f"wrong arity for gate {name.text!r}", name)
        gates, phase = builder(params, qs)
        self.gates.extend(gates)
        self.phase *= phase


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

_SQ2 = math.sqrt(2.0)
# W with W X W^dag = Q, used on the target wire of a generalized CNOT
_X_TO = {
    "X": np.eye(2, dtype=complex),
    "Z": np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2,
    "Y": np.diag([1.0, 1j]).astype(complex),
}


def to_zz_basis(circuit: Circuit) -> Circuit:
    """Rewrite every entangling gate as canonical CNOTs / ZZ rotations plus
    single-qubit gates; the unitary is preserved exactly."""
    out = Circuit(circuit.num_qubits, [], circuit.classical_bits,
                  circuit.global_phase)
    for g in circuit.gates:
        if isinstance(g, GeneralizedCnot) and g.control_axis == "Z" \
                and g.target_axis == "Z":
            # the diagonal case lowers to a ZZ rotation and phase corrections:
            # C_{Z^Z} = e^{-i pi/4} u1(pi/2)_a u1(pi/2)_b exp(i pi/4 Z Z)
            out.global_phase *= np.exp(-1j * math.pi / 4)
            out.add(u1(math.pi / 2, g.control))
            out.add(u1(math.pi / 2, g.target))
            out.add(ZzRotation(math.pi / 4, g.control, g.target))
        elif isinstance(g, GeneralizedCnot) and not g.is_canonical:
            v = _Z_TO[g.control_axis]
            w = _X_TO[g.target_axis]
            if not np.allclose(v, np.eye(2)):
                out.add(SingleQubit(g.control, v.conj().T, "basis"))
            if not np.allclose(w, np.eye(2)):
                out.add(SingleQubit(g.target, w.conj().T, "basis"))
            out.add(cnot(g.control, g.target))
            if not np.allclose(w, np.eye(2)):
                out.add(SingleQubit(g.target, w, "basis"))
            if not np.allclose(v, np.eye(2)):
                out.add(SingleQubit(g.control, v, "basis"))
        else:
            out.add(g)
    return out


def two_qubit_count(circuit: Circuit) -> int:
    """Number of entangling gates, each CNOT or ZZ rotation counting as one."""
    return sum(1 for g in circuit.gates
               if isinstance(g, (GeneralizedCnot, ZzRotation)))
