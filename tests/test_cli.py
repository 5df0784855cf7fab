import functools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgmq import serialize
from pgmq.circuit import InputError, to_unitary
from pgmq.cli import main
from pgmq.passes import optimize

BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q -> c;
"""

SMALL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
rzz(0.4) q[0], q[1];
rzz(0.3) q[1], q[2];
cx q[0], q[2];
rz(0.7) q[1];
"""


@pytest.fixture
def qasm_dir(tmp_path):
    (tmp_path / "bell.qasm").write_text(BELL)
    (tmp_path / "small.qasm").write_text(SMALL)
    return tmp_path


# --- serialization round trip -------------------------------------------------

def test_program_json_roundtrip_identical(rng):
    from conftest import random_circuit
    c = random_circuit(3, 15, rng)
    prog = optimize(c)
    text = serialize.dumps(prog)
    again = serialize.dumps(serialize.loads(text))
    assert text == again
    u = to_unitary(serialize.loads(text).to_circuit())
    assert np.max(np.abs(u - to_unitary(prog.to_circuit()))) < 1e-12


def test_program_json_schema_fields(rng):
    from conftest import random_circuit
    prog = optimize(random_circuit(2, 8, rng))
    doc = json.loads(serialize.dumps(prog))
    assert doc["version"] == serialize.SCHEMA_VERSION
    for key in ("numQubits", "preLayer", "body", "postLayer",
                "measurementMap", "phase"):
        assert key in doc


def test_loads_rejects_corrupt_layer(rng):
    from conftest import random_circuit
    from pgmq.circuit import CircuitError
    prog = optimize(random_circuit(3, 12, rng))
    doc = json.loads(serialize.dumps(prog))
    if not doc["preLayer"]["word"]:
        doc["preLayer"]["word"] = [[0, 1]]  # no longer matches the matrix
    else:
        doc["preLayer"]["word"] = doc["preLayer"]["word"][:-1]
    with pytest.raises(CircuitError):
        serialize.loads(json.dumps(doc))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "gadget", "mq", "X", "Z", "auto", "1.0", "ff"]),
    lambda v: st.lists(v, max_size=3) | st.dictionaries(
        st.sampled_from(["type", "axis", "alpha", "support", "word",
                         "matrix", "pairs"]), v, max_size=3),
    max_leaves=6)


@functools.lru_cache(maxsize=None)
def _corpus_documents() -> tuple:
    from pgmq.passes import CompileOptions
    from pgmq.qasm import parse_qasm_file
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    return tuple(serialize.dumps(optimize(parse_qasm_file(bench / name),
                                          CompileOptions(scheme=scheme)))
                 for name, scheme in (("adder_n4.qasm", "ancilla-merged"),
                                      ("qaoa_n6.qasm", "auto")))


def _slots(node, out):
    """Every (container, key) below node, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, 1), data=st.data())
def test_loads_fuzz_raises_only_input_error(which, data):
    # every integer drawn is at most 12, so numQubits stays <= 12
    doc = json.loads(_corpus_documents()[which])
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        node, key = slots[data.draw(st.integers(0, len(slots) - 1))]
        if data.draw(st.booleans()):
            node[key] = data.draw(_JSON)
        else:
            del node[key]
    try:
        serialize.loads(json.dumps(doc)).realized_circuit()
    except InputError:
        pass


# --- compile / verify ----------------------------------------------------------

def test_compile_then_verify_ok(qasm_dir, tmp_path, capsys):
    out = tmp_path / "bell.program.json"
    assert main(["compile", str(qasm_dir / "bell.qasm"),
                 "--out", str(out)]) == 0
    assert out.exists()
    metrics = json.loads(
        (tmp_path / "bell.program.metrics.json").read_text())
    assert metrics["numQubits"] == 2
    assert main(["verify", str(out), str(qasm_dir / "bell.qasm")]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_fails_on_tampered_program(qasm_dir, tmp_path, capsys):
    out = tmp_path / "p.json"
    main(["compile", str(qasm_dir / "small.qasm"), "--out", str(out)])
    doc = json.loads(out.read_text())
    for g in doc["body"]:
        if g["type"] == "gadget":
            g["alpha"] += 0.05
            break
    else:
        pytest.skip("no gadget to perturb")
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out), str(qasm_dir / "small.qasm")]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_checks_realized_circuit(qasm_dir, tmp_path, capsys,
                                        monkeypatch):
    # dropping one native gate from the realization must fail verify even
    # though the gadget replay is untouched
    from pgmq.gadgets import MultiQubitGate
    from pgmq.passes import CompiledProgram
    out = tmp_path / "p.json"
    main(["compile", str(qasm_dir / "small.qasm"), "--out", str(out)])
    realized = CompiledProgram.realized_circuit

    def drop_one_mq(self):
        c = realized(self)
        k = next(i for i, g in enumerate(c.gates)
                 if isinstance(g, MultiQubitGate))
        del c.gates[k]
        return c

    monkeypatch.setattr(CompiledProgram, "realized_circuit", drop_one_mq)
    capsys.readouterr()
    assert main(["verify", str(out), str(qasm_dir / "small.qasm")]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("scheme", ["auto", "no-ancilla", "ancilla-merged"])
def test_verify_passes_on_corpus_under_every_scheme(tmp_path, capsys, scheme):
    # every corpus program on the dense identity columns and, with the
    # oracle cap at 0, on the random states; one gadget nudged fails both
    from pgmq.passes import CompileOptions
    from pgmq.qasm import parse_qasm_file
    opts = CompileOptions(scheme=scheme)
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    sources = sorted(bench.glob("*.qasm"))
    assert len(sources) == 12
    for src in sources:
        out = tmp_path / f"{src.stem}.json"
        doc = serialize.dumps(optimize(parse_qasm_file(src), opts))
        out.write_text(doc)
        for cap in ("10", "0"):
            assert main(["verify", str(out), str(src), "--oracle-cap",
                         cap]) == 0, (src.name, cap)
            assert capsys.readouterr().out.startswith("PASS")
        tampered = json.loads(doc)
        gadget = next((g for g in tampered["body"] if g["type"] == "gadget"),
                      None)
        if gadget is None:
            continue
        gadget["alpha"] += 0.05
        out.write_text(json.dumps(tampered))
        for cap in ("10", "0"):
            assert main(["verify", str(out), str(src), "--oracle-cap",
                         cap]) == 1, (src.name, cap)
            assert capsys.readouterr().out.startswith("FAIL")


def _width_mismatch_exit_2(qasm_dir, tmp_path, capsys, program_src, source,
                           argv):
    out = tmp_path / "p.json"
    main(["compile", str(qasm_dir / f"{program_src}.qasm"), "--out", str(out)])
    capsys.readouterr()
    assert main(argv(str(out), str(qasm_dir / f"{source}.qasm"))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "qubits" in captured.err


@pytest.mark.parametrize("program_src, source", [("small", "bell"),
                                                 ("bell", "small")])
def test_verify_width_mismatch_exit_2(qasm_dir, tmp_path, capsys,
                                      program_src, source):
    # a wider program used to FAIL on "ancilla leakage", a narrower one to
    # escape as a broadcasting ValueError
    _width_mismatch_exit_2(qasm_dir, tmp_path, capsys, program_src, source,
                           lambda prog, src: ["verify", prog, src])


@pytest.mark.parametrize("program_src, source", [("small", "bell"),
                                                 ("bell", "small")])
def test_simulate_width_mismatch_exit_2(qasm_dir, tmp_path, capsys,
                                        program_src, source):
    # a wider program used to report a fidelity over its low qubits, a
    # narrower one to exit 3
    _width_mismatch_exit_2(
        qasm_dir, tmp_path, capsys, program_src, source,
        lambda prog, src: ["simulate", prog, "--input", src, "--samples", "5"])


def _set_body(doc, item):
    doc["body"] = [item]


@pytest.mark.parametrize("corrupt, field", [
    (None, "not JSON"),
    (lambda d: d.pop("body"), "'body'"),
    (lambda d: d["preLayer"].update(word=[[0, 9]]), "preLayer.word[0]"),
    (lambda d: d["preLayer"].update(word=[[2, 2]]), "preLayer.word[0]"),
    (lambda d: d["postLayer"].update(word=d["postLayer"]["word"] + [[0, 1]]),
     "postLayer.matrix"),
    (lambda d: _set_body(d, {"type": "gadget", "axis": "Z", "alpha": 0.25,
                             "support": [0, 99]}), "body[0].support"),
    (lambda d: _set_body(d, {"type": "gadget", "axis": "W", "alpha": 0.25,
                             "support": [0, 1]}), "body[0].axis"),
    (lambda d: _set_body(d, {"type": "mq", "pairs": [[1, 1, 0.3]]}),
     "body[0].type"),
    (lambda d: _set_body(d, {"type": "mq", "pairs": [[0, 1, 0.3]]}),
     "body[0].type"),
    (lambda d: d.update(ancilla=9), "ancilla"),
    (lambda d: d.update(version="9.9"), "version"),
    (lambda d: d.update(frames=[[0, "Q"]]), "frames[0]"),
    # a repeated qubit used to keep its last letter silently
    (lambda d: d.update(frames=[[0, "X"], [0, "Z"]]), "frames[1]"),
    # a phase off the unit circle used to fail verify with exit 1
    (lambda d: d.update(phase=[2.0, 0.0]), "phase"),
    (lambda d: d.update(scheme="fastest"), "scheme"),
    (lambda d: d.update(measurementMap=[[0, 0], [1, 0]]),
     "measurementMap[1]"),
    # wider than QASM input may be: the matrix replay grew as n^2
    (lambda d: d.update(numQubits=60000), "numQubits"),
    (lambda d: d["preLayer"].update(matrix=d["preLayer"]["matrix"][1:]),
     "preLayer.matrix: expected 3 rows"),
], ids=["not-json", "no-body", "word-range", "word-self", "matrix",
        "support-range", "axis", "mq-pair", "mq-element", "ancilla-set",
        "version", "frame", "frame-qubit-twice", "phase-off-circle",
        "scheme", "map-bit-twice", "qubits-above-limit", "matrix-rows"])
def test_verify_malformed_program_exit_2(qasm_dir, tmp_path, capsys,
                                         corrupt, field):
    out = tmp_path / "p.json"
    main(["compile", str(qasm_dir / "small.qasm"), "--out", str(out)])
    if corrupt is None:
        out.write_text("{ this is not a program")
    else:
        doc = json.loads(out.read_text())
        corrupt(doc)
        out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out), str(qasm_dir / "small.qasm")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and field in captured.err


def test_wide_program_refused_before_any_replay(tmp_path, capsys):
    # a few hundred bytes that made the loader replay a 60 000-row GF(2)
    # matrix (266 MB at its peak) before refusing the empty matrix
    import tracemalloc
    doc = {"version": serialize.SCHEMA_VERSION, "numQubits": 60000,
           "ancilla": None, "preLayer": {"matrix": [], "word": []},
           "body": [], "frames": [], "phase": [1.0, 0.0],
           "postLayer": {"matrix": [], "word": []}, "measurementMap": [],
           "scheme": "auto"}
    out = tmp_path / "wide.json"
    out.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        assert main(["simulate", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "numQubits" in captured.err


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_sample_shots_above_the_cap_exit_2(qasm_dir, tmp_path, capsys,
                                            command):
    # 2^20 samples of 2^10 shots would hold 16 GiB of shots: refused as
    # one line naming both flags before any file is read, where bench used
    # to skip every file with the sampler's message
    import tracemalloc
    from pgmq.noise import MAX_SAMPLE_SHOTS
    prog = tmp_path / "bell.json"
    assert main(["compile", str(qasm_dir / "bell.qasm"),
                 "--out", str(prog)]) == 0
    capsys.readouterr()
    target = str(prog) if command == "simulate" else str(qasm_dir)
    samples, shots = 2 ** 20, 2 ** 10
    assert samples * shots > MAX_SAMPLE_SHOTS >= 12000 * 200 * 16
    tracemalloc.start()
    try:
        assert main([command, target, "--samples", str(samples),
                     "--shots", str(shots)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert "--samples" in captured.err and "--shots" in captured.err


@pytest.mark.parametrize("measures, want", [
    # one qubit into two bits: both bits are kept
    ("measure q[0] -> c[0];\nmeasure q[0] -> c[1];\n", [[0, 0], [0, 1]]),
    # two qubits into one bit: the bit holds the last one
    ("measure q[1] -> c[0];\nmeasure q[0] -> c[0];\n", [[0, 0]]),
])
def test_measurement_map_has_one_entry_per_bit(measures, want):
    from pgmq.qasm import parse_qasm
    prog = optimize(parse_qasm(BELL.replace("measure q -> c;\n", measures)))
    text = serialize.dumps(prog)
    assert json.loads(text)["measurementMap"] == want
    assert serialize.dumps(serialize.loads(text)) == text


MID_MEASURE = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
               'creg c[2];\nh q[0];\nmeasure q[0] -> c[0];\ncx q[0],q[1];\n')


def test_compile_mid_circuit_measure_exit_2(tmp_path, capsys):
    f = tmp_path / "mid.qasm"
    f.write_text(MID_MEASURE)
    assert main(["compile", str(f), "--out", str(tmp_path / "p.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 7, col 1" in err and "measurement of qubit 0" in err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("command", [
    lambda prog, src: ["verify", prog, src],
    lambda prog, src: ["simulate", prog, "--input", src, "--samples", "50"],
], ids=["verify", "simulate"])
def test_mid_circuit_measure_input_exit_2(qasm_dir, tmp_path, capsys,
                                          command):
    # simulate --input used to score the file as if the measurement were
    # not there
    prog = tmp_path / "p.json"
    assert main(["compile", str(qasm_dir / "bell.qasm"), "--out",
                 str(prog)]) == 0
    (tmp_path / "mid.qasm").write_text(MID_MEASURE)
    capsys.readouterr()
    assert main(command(str(prog), str(tmp_path / "mid.qasm"))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 7, col 1: ")
    assert captured.err.count("\n") == 1
    assert "after the measurement of qubit 0" in captured.err


@pytest.mark.parametrize("body, where", [
    ("qreg q[1];\nrz(1/0) q[0];\n", "line 4, col 4"),
    ("qreg q[1];\nrz(sqrt(-1)) q[0];\n", "line 4, col 4"),
    ("qreg q[1];\nrz(ln(0)) q[0];\n", "line 4, col 4"),
    ("qreg q[1];\nrz(10.0^400) q[0];\n", "line 4, col 4"),
    ("qreg q[1];\nrz(1e400) q[0];\n", "line 4, col 4"),
    ("qreg q[1];\ngate g(t) a { rz(1/t) a; }\ng(0) q[0];\n", "line 4, col 18"),
    ("qreg q[1];\ngate a x { a x; }\na q[0];\n", "line 4, col 12"),
    ("qreg q[1];\nrz(" + "(" * 3000 + "1" + ")" * 3000 + ") q[0];\n",
     "line 4, col "),
    ("qreg q[0];\nh q;\n", "line 3, col 8"),
    ("qreg q[1];\nrz((-8)^(1/3)) q[0];\n", "line 4, col 8"),
    ("qreg q[1];\ngate g(t) a { rz(1 2) a; }\ng(0) q[0];\n", "line 4, col 20"),
    ("qreg q[2];\ngate g a, b { cx a, a; }\ng q[0], q[1];\n", "line 4, col 15"),
    ("qreg q[1];\ngate g a { rz(1 ", "line 4, col 17"),
    # malformed definitions of gates the file never calls
    ("qreg q[1];\ngate g a { rz(1 2) a; }\n", "line 4, col 17"),
    ("qreg q[1];\ngate g(t) a { rz(t +) a; }\n", "line 4, col 21"),
    ("qreg q[1];\ngate g(s) a { rz(t) a; }\n", "line 4, col 18"),
    ("qreg q[2];\ngate g a { cx a, b; }\n", "line 4, col 18"),
    ("qreg q[2];\ngate g a { cx a; }\n", "line 4, col 12"),
    ("qreg q[2];\ngate g a, b { cx a, a; }\n", "line 4, col 15"),
    ("qreg q[1];\ngate g(s t) a { rz(s) a; }\n", "line 4, col 10"),
    ("qreg q[2];\ngate g a, a { h a; }\n", "line 4, col 11"),
    ("qreg q[2];\ngate g a { barrier a, b; }\n", "line 4, col 23"),
], ids=["div-zero", "sqrt-negative", "ln-zero", "pow-overflow", "infinite",
        "gate-body-div-zero", "self-call", "deep-parens", "empty-register",
        "complex-power", "gate-body-trailing-token", "gate-body-same-qubit",
        "gate-body-eof", "uncalled-trailing-token", "uncalled-broken-expression",
        "uncalled-unknown-identifier", "uncalled-unknown-qubit",
        "uncalled-wrong-arity", "uncalled-same-qubit",
        "uncalled-params-without-comma", "uncalled-repeated-argument",
        "uncalled-barrier-unknown-qubit"])
def test_compile_bad_input_exit_2(tmp_path, capsys, body, where):
    f = tmp_path / "bad.qasm"
    f.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body)
    assert main(["compile", str(f), "--out", str(tmp_path / "p.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and where in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "p.json").exists()


def test_unexpected_exception_exit_3(qasm_dir, tmp_path, capsys,
                                     monkeypatch):
    import pgmq.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(pgmq.cli, "optimize", broken)
    assert main(["compile", str(qasm_dir / "small.qasm"),
                 "--out", str(tmp_path / "p.json")]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_compile_malformed_qasm_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n")
    assert main(["compile", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_compile_missing_file_exit_2(tmp_path):
    assert main(["compile", str(tmp_path / "nope.qasm")]) == 2


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_compile_unreadable_input_exit_2(tmp_path, capsys, kind):
    f = tmp_path / "in.qasm"
    if kind == "directory":
        f.mkdir()
    else:
        f.write_bytes(b"OPENQASM 2.0;\n\xff\xfe;\n")
    assert main(["compile", str(f), "--out", str(tmp_path / "p.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "in.qasm" in err


def test_compile_huge_u2_angle_then_verify(tmp_path, capsys):
    # phi + lam once rounded lam away, so the built u3 was not unitary and
    # compile stopped with an internal error (exit 3)
    f = tmp_path / "huge.qasm"
    f.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                 'u2(1e17, 0.5) q[0];\ncx q[0], q[1];\n')
    out = tmp_path / "p.json"
    assert main(["compile", str(f), "--out", str(out)]) == 0
    assert main(["verify", str(out), str(f)]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("tail", ["cx q[0], q[1];\n", ""],
                         ids=["with-cx", "alone"])
def test_compile_overflowing_angle_then_verify(tmp_path, capsys, tail):
    # phi + lam overflows to inf, and the NaN entry it made passed the
    # unitarity check: compile then stopped with an internal error (exit 3)
    # or wrote a NaN phase that verify refused (exit 2)
    f = tmp_path / "huge.qasm"
    f.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                 'U(1e308, 1e308, 1e308) q[0];\n' + tail)
    out = tmp_path / "p.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compile", str(f), "--out", str(out)]) == 0
        serialize.loads(out.read_text())
        assert main(["verify", str(out), str(f)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["simulate", str(out), "--input", str(f),
                     "--samples", "5"]) == 0


def test_compile_empty_circuit_ok(tmp_path):
    f = tmp_path / "empty.qasm"
    f.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n')
    out = tmp_path / "empty.program.json"
    assert main(["compile", str(f), "--out", str(out)]) == 0
    assert main(["verify", str(out), str(f)]) == 0


def test_compile_scheme_flags(qasm_dir, tmp_path):
    out = tmp_path / "p.json"
    assert main(["compile", str(qasm_dir / "small.qasm"), "--out", str(out),
                 "--no-ancilla"]) == 0
    assert json.loads(out.read_text())["scheme"] == "no-ancilla"
    assert main(["compile", str(qasm_dir / "small.qasm"), "--out", str(out),
                 "--ancilla"]) == 0
    assert json.loads(out.read_text())["scheme"] == "ancilla-merged"


@pytest.mark.parametrize("argv, digest", [
    ([], "655a5c96c412"),
    (["--cost", "weighted:0.5", "--no-ancilla"], "fea212a29b8a"),
    (["--ancilla", "--max-iters", "3"], "c2f8a544f3e9"),
])
def test_opts_hash_stable(argv, digest):
    from pgmq.cli import _compile_options, _opts_hash, build_parser
    args = build_parser().parse_args(["compile", "x.qasm", *argv])
    assert _opts_hash(_compile_options(args), 0) == digest


def test_compile_weighted_cost_then_verify(tmp_path, capsys):
    src = Path(__file__).resolve().parent.parent / "benchmarks" / "qaoa_n6.qasm"
    out = tmp_path / "p.json"
    assert main(["compile", str(src), "--out", str(out),
                 "--cost", "weighted:0.5"]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), str(src)]) == 0
    assert capsys.readouterr().out.startswith("PASS")


@pytest.mark.parametrize("cost", ["foo", "weighted:abc"])
def test_compile_bad_cost_exit_2(qasm_dir, tmp_path, capsys, cost):
    with pytest.raises(SystemExit) as exc:
        main(["compile", str(qasm_dir / "small.qasm"),
              "--out", str(tmp_path / "p.json"), "--cost", cost])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--cost" in err and cost in err
    assert not (tmp_path / "p.json").exists()


# --- simulate --------------------------------------------------------------------

def test_simulate_deterministic_reports(qasm_dir, tmp_path):
    prog = tmp_path / "p.json"
    main(["compile", str(qasm_dir / "bell.qasm"), "--out", str(prog)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["simulate", str(prog), "--input", str(qasm_dir / "bell.qasm"),
            "--samples", "50", "--shots", "5", "--seed", "7"]
    assert main(argv + ["--out", str(r1)]) == 0
    assert main(argv + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert 0.0 < doc["successProbability"] <= 1.0
    assert "monteCarlo" in doc


def test_simulate_closed_form_only(qasm_dir, tmp_path, capsys):
    prog = tmp_path / "p.json"
    main(["compile", str(qasm_dir / "bell.qasm"), "--out", str(prog)])
    capsys.readouterr()  # drop the compile status line
    assert main(["simulate", str(prog)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "monteCarlo" not in doc


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("flags, flag", [
    (["--p-dephase", "2"], "--p-dephase"),
    (["--p-depol-tq", "nan"], "--p-depol-tq"),
    (["--samples", "5", "--shots", "0"], "--shots"),
    (["--shots", "-1"], "--shots"),
    (["--samples", "-1"], "--samples"),
], ids=["dephase-2", "depol-nan", "shots-0", "shots-negative",
        "samples-negative"])
def test_noise_flag_out_of_range_exit_2(qasm_dir, tmp_path, capsys, command,
                                        flags, flag):
    if command == "simulate":
        target = tmp_path / "p.json"
        main(["compile", str(qasm_dir / "bell.qasm"), "--out", str(target)])
    else:
        target = qasm_dir
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, str(target), *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"argument {flag}:" in captured.err


@pytest.mark.parametrize("command, flags, flag", [
    ("verify", ["--oracle-cap", "0", "--seed", "-1"], "--seed"),
    ("simulate", ["--samples", "2", "--seed", "18446744073709551616"],
     "--seed"),
    ("bench", ["--samples", "2", "--seed", "18446744073709551616"], "--seed"),
    ("simulate", ["--samples", "2", "--seed", "18446744073709551615"],
     "--seed"),
    ("simulate", ["--seed", "9223372036854775808"], "--seed"),
    ("compile", ["--seed", "-1"], "--seed"),
    ("compile", ["--max-iters", "-3"], "--max-iters"),
], ids=["verify-seed-negative", "simulate-seed-2^64", "bench-seed-2^64",
        "simulate-seed-2^64-1", "simulate-seed-2^63", "compile-seed-negative",
        "compile-max-iters-negative"])
def test_integer_flag_out_of_range_exit_2(qasm_dir, tmp_path, capsys,
                                          command, flags, flag):
    # a seed outside [0, 2^63 - 1] used to escape as a ValueError or an
    # OverflowError (exit 3) or print numpy's cast warning, and a negative
    # --max-iters silently ran no norm search
    program = tmp_path / "p.json"
    main(["compile", str(qasm_dir / "small.qasm"), "--out", str(program)])
    capsys.readouterr()
    target = {"verify": [str(program), str(qasm_dir / "small.qasm")],
              "simulate": [str(program)], "bench": [str(qasm_dir)],
              "compile": [str(qasm_dir / "small.qasm"), "--out",
                          str(tmp_path / "q.json")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *target, *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"pgmq {command}: error: argument {flag}:")
    assert not (tmp_path / "q.json").exists()


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_largest_seed_is_accepted(qasm_dir, tmp_path, capsys, command):
    program = tmp_path / "p.json"
    main(["compile", str(qasm_dir / "bell.qasm"), "--out", str(program)])
    target = str(program if command == "simulate" else qasm_dir)
    # the top of the range keys Philox without numpy's cast warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, target, "--samples", "2", "--shots", "2",
                     "--seed", str(2 ** 63 - 1)]) == 0


# --- bench -----------------------------------------------------------------------

def test_bench_csv_byte_identical(qasm_dir, tmp_path):
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bench", str(qasm_dir), "--samples", "20", "--shots", "5",
            "--seed", "3"]
    assert main(argv + ["--csv", str(c1)]) == 0
    assert main(argv + ["--csv", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    header, *rows = c1.read_text().splitlines()
    assert header.startswith("name,numQubits,")
    assert len(rows) == 2  # bell + small, sorted by name
    assert rows[0].startswith("bell,2,")


def test_bench_json_report(qasm_dir, tmp_path):
    out = tmp_path / "report.json"
    assert main(["bench", str(qasm_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["name"] for r in doc["circuits"]] == ["bell", "small"]
    assert doc["aggregate"]["meanGateCountRatio"] > 0
    for r in doc["circuits"]:
        assert r["method"] == "success-prob"
        assert "wallTime" in r


def _ghz(n: int) -> str:
    return ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            f"qreg q[{n}];\nh q[0];\n"
            + "".join(f"cx q[{i}], q[{i + 1}];\n" for i in range(n - 1)))


def test_bench_scores_every_width(tmp_path):
    # success probabilities are closed form: no width keeps them from a row
    (tmp_path / "ghz12.qasm").write_text(_ghz(12))
    out = tmp_path / "report.json"
    assert main(["bench", str(tmp_path), "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())["circuits"]
    assert row["numQubits"] == 12 and row["method"] == "success-prob"
    assert 0.0 < row["fInput"] <= 1.0 and 0.0 < row["fCompiled"] <= 1.0
    assert isinstance(row["relativeError"], float)


def test_bench_skips_malformed_file(qasm_dir, tmp_path):
    (qasm_dir / "broken.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nfoo;\n")
    (qasm_dir / "mid.qasm").write_text(MID_MEASURE)
    out = tmp_path / "report.json"
    assert main(["bench", str(qasm_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["name"] for r in doc["circuits"]] == ["bell", "small"]
    assert [s["name"] for s in doc["skipped"]] == ["broken", "mid"]
    assert doc["skipped"][1]["error"].startswith(
        "line 7, col 1: gate on qubit(s) 0, 1 after the measurement of qubit 0")


def test_bench_internal_error_exit_3(qasm_dir, monkeypatch, capsys):
    # a broken invariant is not a bad input file: it ends the run
    from pgmq import cli
    from pgmq.circuit import CircuitError

    def broken(*args, **kwargs):
        raise CircuitError("broken invariant")

    monkeypatch.setattr(cli, "optimize", broken)
    assert main(["bench", str(qasm_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: broken invariant\n"


def test_bench_empty_directory_exit_2(tmp_path):
    assert main(["bench", str(tmp_path)]) == 2


def test_compile_deep_gate_nesting_exit_2_fast(tmp_path, capsys):
    # 40 nested two-call definitions: 2^40 gates if inlined
    import time
    defs = ["gate g0 a { h a; h a; }"]
    defs += [f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}" for k in range(1, 40)]
    f = tmp_path / "deep.qasm"
    f.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
                 + "\n".join(defs) + "\ng39 q[0];\n")
    t0 = time.perf_counter()
    assert main(["compile", str(f), "--out", str(tmp_path / "p.json")]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 44, col 1: ")
    assert captured.err.count("\n") == 1


def test_verify_above_width_cap_exit_2(tmp_path, capsys):
    from pgmq.noise import STATEVECTOR_CAP
    n = STATEVECTOR_CAP + 1
    f = tmp_path / "ghz.qasm"
    f.write_text(_ghz(n))
    out = tmp_path / "ghz.json"
    assert main(["compile", str(f), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{n} qubits" in captured.err and str(STATEVECTOR_CAP) in captured.err


@pytest.mark.parametrize("cap", ["11", "-1"])
def test_verify_oracle_cap_out_of_range_exit_2(qasm_dir, tmp_path, capsys,
                                               cap):
    # above DEFAULT_ORACLE_CAP the dense identity alone grows 4x per qubit
    # (64 GiB at 16); argparse refuses the value before anything is loaded
    out = tmp_path / "p.json"
    main(["compile", str(qasm_dir / "small.qasm"), "--out", str(out)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(out), str(qasm_dir / "small.qasm"),
              "--oracle-cap", cap])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "argument --oracle-cap:" in captured.err


def _twelve_qubit_source() -> str:
    """A 12-qubit circuit (above the default oracle cap) whose program
    holds a 6- and a 7-qubit gadget, so the ancilla scheme uses its wire."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', 'qreg q[12];']
    lines += [f"h q[{i}];" for i in range(12)]
    lines += [f"rzz({0.1 * (i + 1):.1f}) q[{i}], q[{i + 1}];"
              for i in range(11)]
    for lo, hi, angle in ((0, 6, 0.3), (5, 12, 0.5)):
        ladder = [f"cx q[{i}], q[{i + 1}];" for i in range(lo, hi - 1)]
        lines += [*ladder, f"rz({angle}) q[{hi - 1}];", *ladder[::-1],
                  f"rx(0.2) q[{lo + 2}];"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags, width", [([], 12), (["--ancilla"], 13)],
                         ids=["auto", "ancilla"])
def test_verify_random_states_above_oracle_cap(tmp_path, capsys, flags,
                                               width):
    from pgmq.circuit import DEFAULT_ORACLE_CAP
    src = tmp_path / "w12.qasm"
    src.write_text(_twelve_qubit_source())
    out = tmp_path / "p.json"
    assert main(["compile", str(src), "--out", str(out), *flags]) == 0
    assert 12 > DEFAULT_ORACLE_CAP
    assert serialize.load(out).realized_circuit().num_qubits == width
    capsys.readouterr()
    assert main(["verify", str(out), str(src)]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    doc = json.loads(out.read_text())
    next(g for g in doc["body"] if g["type"] == "gadget")["alpha"] += 0.05
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out), str(src)]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


# --- strict JSON reports --------------------------------------------------------

GHZ6 = Path(__file__).resolve().parent.parent / "benchmarks" / "ghz_n6.qasm"
RATIOS = ("gateCountRatio", "baselineRatio", "normRatio")


def _strict_json(text: str):
    """Parse JSON that may hold no NaN or Infinity constant."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_compile_metrics_are_strict_json(tmp_path, capsys):
    # ghz compiles to no multiqubit gate, so its three ratios are infinite
    out = tmp_path / "ghz.program.json"
    assert main(["compile", str(GHZ6), "--out", str(out)]) == 0
    m = _strict_json((tmp_path / "ghz.program.metrics.json").read_text())
    assert m["compiledMqCount"] == 0
    assert [m[k] for k in RATIOS] == [None] * 3


def test_bench_reports_are_strict_json(qasm_dir, tmp_path, capsys):
    (qasm_dir / "ghz.qasm").write_text(GHZ6.read_text())
    out, table = tmp_path / "report.json", tmp_path / "report.csv"
    assert main(["bench", str(qasm_dir), "--out", str(out),
                 "--csv", str(table)]) == 0
    doc = _strict_json(out.read_text())
    (ghz,) = [r for r in doc["circuits"] if r["name"] == "ghz"]
    assert [ghz[k] for k in RATIOS] == [None] * 3
    # the means skip the infinite ratios
    for key in ("meanGateCountRatio", "meanBaselineRatio", "meanNormRatio"):
        assert math.isfinite(doc["aggregate"][key])
    # the CSV still spells an infinite ratio inf
    assert any(r.startswith("ghz,") and ",inf,inf,inf," in r
               for r in table.read_text().splitlines())
    capsys.readouterr()
    assert main(["bench", str(qasm_dir)]) == 0
    printed = _strict_json(capsys.readouterr().out)
    assert printed["aggregate"] == doc["aggregate"]


def test_simulate_report_is_strict_json(tmp_path, capsys):
    # with no noise the input is ideal and the relative error is NaN
    prog = tmp_path / "ghz.json"
    assert main(["compile", str(GHZ6), "--out", str(prog)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(prog), "--input", str(GHZ6),
                 "--p-dephase", "0", "--p-depol-tq", "0"]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["successProbabilityInput"] == 1.0
    assert report["relativeErrorSuccessProb"] is None
