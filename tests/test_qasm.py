import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgmq.circuit import Circuit, GeneralizedCnot, Measure, to_unitary
from pgmq.qasm import (QasmError, Token, parse_qasm, to_zz_basis, tokenize,
                       two_qubit_count)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def _u(source: str) -> np.ndarray:
    return to_unitary(parse_qasm(HEADER + source))


def test_bell_pair():
    c = parse_qasm(HEADER + "qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    psi = to_unitary(c)[:, 0]
    expect = np.zeros(4, dtype=complex)
    expect[0] = expect[3] = 1 / math.sqrt(2)
    assert np.max(np.abs(psi - expect)) < 1e-12


def test_rzz_matches_cx_u1_cx():
    lam = 0.931
    a = _u(f"qreg q[2];\nrzz({lam}) q[0],q[1];\n")
    b = _u(f"qreg q[2];\ncx q[0],q[1];\nu1({lam}) q[1];\ncx q[0],q[1];\n")
    assert np.max(np.abs(a - b)) < 1e-12


def test_gate_definition_inlines():
    src = ("qreg q[2];\n"
           "gate foo(t) a,b { cx a,b; rz(t) b; cx a,b; }\n"
           "foo(0.5) q[0],q[1];\n")
    b = _u("qreg q[2];\ncx q[0],q[1];\nrz(0.5) q[1];\ncx q[0],q[1];\n")
    assert np.max(np.abs(_u(src) - b)) < 1e-12

    # a nested definition called twice with different parameter expressions
    src = ("qreg q[2];\n"
           "gate inner(a, b) x, y { rz(a*b) x; cx x, y; u3(a, -b, a/2+b) y; }\n"
           "gate outer(s, t) p, r { inner(s+t, s-t) p, r; "
           "inner(2*s, t^2) r, p; }\n"
           "outer(0.3, -1.2) q[0], q[1];\n"
           "outer(pi/4, sin(0.5)) q[1], q[0];\n")

    def inner(a, b, x, y):
        return (f"rz({a * b!r}) q[{x}];\ncx q[{x}],q[{y}];\n"
                f"u3({a!r},{-b!r},{a / 2 + b!r}) q[{y}];\n")

    def outer(s, t, p, r):
        return inner(s + t, s - t, p, r) + inner(2 * s, t ** 2, r, p)

    b = _u("qreg q[2];\n" + outer(0.3, -1.2, 0, 1)
           + outer(math.pi / 4, math.sin(0.5), 1, 0))
    assert len(parse_qasm(HEADER + src).gates) == 12
    assert np.max(np.abs(_u(src) - b)) < 1e-12


def test_expression_arithmetic():
    a = _u("qreg q[1];\nrz(pi/4+sin(0)) q[0];\n")
    b = _u(f"qreg q[1];\nrz({math.pi / 4}) q[0];\n")
    assert np.max(np.abs(a - b)) < 1e-12


def test_register_broadcast_and_measure():
    c = parse_qasm(HEADER + "qreg q[3];\ncreg c[3];\nh q;\nmeasure q -> c;\n")
    assert [(m.qubit, m.bit) for m in c.measures] == [(0, 0), (1, 1), (2, 2)]
    assert not any(isinstance(g, Measure) for g in c.gates)
    assert c.classical_bits == 3
    assert to_zz_basis(c).measures == c.measures


def test_gate_after_measurement_rejected_at_call():
    # a barrier may follow a measurement; the gate call after it may not
    src = HEADER + ("qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[0];\n"
                    "barrier q;\n  cx q[0],q[1];\n")
    with pytest.raises(QasmError) as ei:
        parse_qasm(src)
    assert (ei.value.line, ei.value.col) == (7, 3)
    assert str(ei.value) == (
        "line 7, col 3: gate on qubit(s) 0, 1 after the measurement of "
        "qubit 1: only terminal measurements are supported")


def test_parse_error_carries_location():
    with pytest.raises(QasmError) as ei:
        parse_qasm(HEADER + "qreg q[1];\nnosuchgate q[0];\n")
    assert ei.value.line is not None


def test_unsupported_conditional_rejected():
    src = HEADER + "qreg q[1];\ncreg c[1];\nif(c==1) x q[0];\n"
    with pytest.raises(QasmError):
        parse_qasm(src)


def test_two_qubit_count():
    c = parse_qasm(HEADER + "qreg q[3];\ncx q[0],q[1];\nrzz(0.2) q[1],q[2];\n"
                            "h q[0];\n")
    assert two_qubit_count(c) == 2


def test_to_zz_basis_preserves_unitary(rng):
    for ca in "XYZ":
        for ta in "XYZ":
            c = Circuit(2, [GeneralizedCnot(ca, 0, ta, 1)])
            z = to_zz_basis(c)
            assert np.max(np.abs(to_unitary(z) - to_unitary(c))) < 1e-12
            for g in z.gates:
                if isinstance(g, GeneralizedCnot):
                    assert g.is_canonical


def test_empty_circuit():
    c = parse_qasm(HEADER + "qreg q[2];\n")
    assert c.gates == []
    assert c.num_qubits == 2



# Random OpenQASM 2.0 statements: declarations, calls, gate definitions and
# stray tokens.  Register sizes and indices stay in 0..9 so no large register
# is ever built, and a gate body makes at most two calls so nested
# definitions cannot blow up.
_TOKENS = ["OPENQASM", "2.0", ";", "include", '"qelib1.inc"', "opaque",
           "reset", "q", "(", ")", "{", "}", ",", "[", "]", "->", "==", "^"]
_EXPR = st.recursive(
    st.sampled_from(["0", "0.5", "2", "pi", "t", "1e400", "10.0"]),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/^"), e).map(" ".join),
        st.tuples(st.sampled_from(["sin", "sqrt", "ln", "exp", "-", ""]),
                  e).map(lambda fe: f"{fe[0]}({fe[1]})")),
    max_leaves=4)
_OPERAND = st.one_of(
    st.sampled_from(["q", "r", "a", "b"]),
    st.tuples(st.sampled_from("qr"), st.integers(0, 9)).map(
        lambda ri: f"{ri[0]}[{ri[1]}]"))
_CALL = st.builds(
    lambda name, ps, qs: (name + ("" if ps is None else f"({', '.join(ps)})")
                          + " " + ", ".join(qs) + ";"),
    st.sampled_from(["h", "cx", "rz", "u3", "ccx", "rzz", "g", "k", "nope"]),
    st.none() | st.lists(_EXPR, max_size=3),
    st.lists(_OPERAND, min_size=1, max_size=3))
_STATEMENT = st.one_of(
    st.builds(lambda kind, name, k: f"{kind} {name}[{k}];",
              st.sampled_from(["qreg", "creg"]), st.sampled_from("qrc"),
              st.integers(0, 9)),
    _CALL,
    st.builds(lambda name, ps, qs, body: (
        f"gate {name}{'(t)' if ps else ''} {', '.join(qs)} "
        f"{{ {' '.join(body)} }}"),
        st.sampled_from("gk"), st.booleans(),
        st.lists(st.sampled_from("ab"), min_size=1, max_size=2),
        st.lists(_CALL, max_size=2)),
    st.sampled_from(["measure q -> c;", "measure q[0] -> c[1];", "barrier q;",
                     "if (c == 1) x q[0];"]),
    st.sampled_from(_TOKENS))


@settings(max_examples=150, deadline=None)
@given(header=st.booleans(), statements=st.lists(_STATEMENT, max_size=12))
def test_parse_qasm_fuzz_raises_only_qasm_error(header, statements):
    try:
        parse_qasm((HEADER if header else "") + "\n".join(statements))
    except QasmError:
        pass


def test_gate_budget_refuses_nested_doubling_before_inlining():
    # 40 nested two-call definitions would inline 2^40 gates
    defs = ["gate g0 a { h a; h a; }"]
    defs += [f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}" for k in range(1, 40)]
    source = HEADER + "qreg q[1];\n" + "\n".join(defs) + "\ng39 q[0];\n"
    with pytest.raises(QasmError, match="line 44, col 1: gate 'g39'"):
        parse_qasm(source)


def test_gate_budget_counts_broadcast_copies():
    from pgmq import qasm
    # a 1024-gate definition broadcast over a register is refused when the
    # copies together pass the budget, and accepted one copy at a time
    defs = ["gate g0 a { h a; h a; }"]
    defs += [f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}" for k in range(1, 10)]
    width = qasm.MAX_GATES // 1024 + 1
    source = HEADER + f"qreg q[{width}];\n" + "\n".join(defs) + "\n"
    assert len(parse_qasm(source + "g9 q[0];\n").gates) == 1024
    with pytest.raises(QasmError, match="past"):
        parse_qasm(source + "g9 q;\n")


@pytest.mark.parametrize("decl, name", [("qreg q[2000];", "'q'"),
                                        ("qreg a[1000];\nqreg b[100];", "'b'"),
                                        ("creg c[1025];", "'c'")])
def test_register_width_limit(decl, name):
    with pytest.raises(QasmError, match=f"register {name}"):
        parse_qasm(HEADER + decl + "\n")


# --- the tokenizer against its line-counting reference -----------------------

_REFERENCE_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<symbol>->|==|[;,(){}\[\]+\-*/^=])
""", re.VERBOSE)


def _reference_tokenize(source):
    """Reference tokenizer: one match at a time, counting the line breaks in
    every match's text."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _REFERENCE_TOKEN_RE.match(source, pos)
        if m is None:
            raise QasmError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind in ("real", "int", "id", "string"):
            tokens.append(Token(kind.upper(), text, line, col))
        elif kind == "symbol":
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


def _tokens_or_error(tokenize_fn, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize_fn(source)]
    except QasmError as e:
        return str(e), e.line, e.col


_BENCHMARKS = sorted(
    (Path(__file__).resolve().parent.parent / "benchmarks").glob("*.qasm"))

# the malformed inputs of the tests above, and stray characters, strings and
# comments around line breaks of every kind
_MALFORMED = [
    HEADER + "qreg q[1];\nnosuchgate q[0];\n",
    HEADER + "qreg q[1];\ncreg c[1];\nif(c==1) x q[0];\n",
    HEADER + ("qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[0];\n"
              "barrier q;\n  cx q[0],q[1];\n"),
    HEADER + "qreg q[2000];\n",
    HEADER + "qreg q[1];\n\tgate g a { rz(1 ",
    HEADER + "qreg q[1];\nrz(1e400) q[0]; // trailing comment",
    HEADER + "qreg q[1];\r\nh q[0];\r\n\r\n  $h q[0];\n",
    'OPENQASM 2.0;\ninclude "qelib1.inc\n";\n',
    "qreg q[1];\n// comment\n\n   \u00e9",
    "h q[0];\n\n\n\t  \"",
    "\n\n",
    "",
]


@pytest.mark.parametrize("path", _BENCHMARKS, ids=lambda p: p.stem)
def test_tokenize_matches_reference_on_corpus(path):
    source = path.read_text()
    assert _tokens_or_error(tokenize, source) == \
        _tokens_or_error(_reference_tokenize, source)


@pytest.mark.parametrize("source", _MALFORMED)
def test_tokenize_matches_reference_on_malformed_input(source):
    assert _tokens_or_error(tokenize, source) == \
        _tokens_or_error(_reference_tokenize, source)


@settings(max_examples=150, deadline=None)
@given(statements=st.lists(
    _STATEMENT | st.text(alphabet='ab1.e+-/"$;(q) \t\r\n\u00e9', max_size=12),
    max_size=12))
def test_tokenize_matches_reference_fuzz(statements):
    source = "\n".join(statements)
    assert _tokens_or_error(tokenize, source) == \
        _tokens_or_error(_reference_tokenize, source)
