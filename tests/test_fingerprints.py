"""Compiled programs against the benchmark's recorded fingerprints.

Compiles the 12 corpus circuits and the benchmark's fixed random pool with
the default options, as `perfbench` does (parse -> optimize ->
serialize.dumps -> cost.metrics), and compares each program's multiqubit
count, nuclear norm and SHA-256 with `perfbench/reference.json`, which this
test only reads.  A change that means to alter compiled output rewrites that
file with `perfbench/update_reference.py` and says so.  The benchmark's
fixed-seed Monte Carlo pair (`mc_low@reference`, `mc_high@reference`) is
checked against the same file, so a change to the sampler's random stream
fails here, not only in a benchmark run; that file holds fidelities to
1e-9, so one more SHA-256 pins the last bits of the sampler's fidelities,
CIs and bootstrap replicates over the corpus and its realizations.  The two
forced realization schemes, which the benchmark does not run, are checked
against one SHA-256 each over the 12 corpus programs, kept here, and so are
the default programs of acceptance test 1's first 50 random circuits.  One
more SHA-256 pins the realized native-gate circuits of the corpus under all
three schemes, so a change below the program bytes (locals, pair phases,
the global phase) fails here too.  A last SHA-256 pins the programs of the
QFT and XX+ZZ chain families at 8 to 16 qubits under all three schemes,
where pair groups hold dozens of gadgets and bodies hundreds.  The corpus
programs are also compiled with the pair-group norm table bounded to a
few keys, so that it is cleared on nearly every fill, and must still match
the same pins.
"""

import hashlib
import importlib.util
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import pgmq.cost
from pgmq import serialize
from pgmq.circuit import GeneralizedCnot, SingleQubit
from pgmq.cost import ANCILLA_MERGED, AUTO, NO_ANCILLA, metrics
from pgmq.gadgets import MultiQubitGate
from pgmq.noise import NoiseModel, monte_carlo_fidelity
from pgmq.passes import CompileOptions, optimize
from pgmq.qasm import parse_qasm_file
from conftest import chain_circuit, qft_circuit, random_circuit

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
NORM_RTOL = 1e-9            # perfbench's own tolerance on the norm and fidelities


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def _random_pool() -> dict:
    return _workloads().random_pool()


def _fingerprint(circuit) -> dict:
    prog = optimize(circuit)
    text = serialize.dumps(prog)
    m = metrics(prog.body, circuit, prog.scheme)
    return {"mq_count": m["compiledMqCount"], "norm": m["compiledNorm"],
            "program_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _assert_matches(row: str, got: dict) -> None:
    want = REFERENCE[row]
    assert got["program_sha256"] == want["program_sha256"], row
    assert got["mq_count"] == want["mq_count"], row
    assert got["norm"] == pytest.approx(want["norm"], rel=NORM_RTOL,
                                        abs=NORM_RTOL), row


CORPUS = sorted((ROOT / "benchmarks").glob("*.qasm"))


def test_reference_covers_the_corpus():
    assert {f"corpus/{p.stem}" for p in CORPUS} \
        == {row for row in REFERENCE if row.startswith("corpus/")}
    assert len(CORPUS) == 12


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_programs_match_reference(path):
    _assert_matches(f"corpus/{path.stem}", _fingerprint(parse_qasm_file(path)))


def test_random_pool_programs_match_reference():
    pool = _random_pool()
    assert len(pool) == 8
    for name, circuit in pool.items():
        _assert_matches(f"random/{name}", _fingerprint(circuit))


@pytest.mark.parametrize("workload", ["mc_low", "mc_high"])
def test_monte_carlo_fidelities_match_reference(workload):
    # the benchmark's fingerprinted Monte Carlo pair: the compiled program
    # and its input at the fixed reference noise seed
    w = _workloads()
    p = w.MC_NOISE[workload]
    circuit = parse_qasm_file(ROOT / "benchmarks" / f"{w.MC_CIRCUIT}.qasm")
    model = NoiseModel(p, p, w.REFERENCE_NOISE_SEED)
    got = {name: monte_carlo_fidelity(program, circuit, model,
                                      samples=w.REFERENCE_SAMPLES,
                                      shots=w.MC_SHOTS).fidelity
           for name, program in (("fidelity_compiled", optimize(circuit)),
                                 ("fidelity_input", circuit))}
    want = REFERENCE[f"{workload}/{workload}@reference"]
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == pytest.approx(want[name], rel=NORM_RTOL,
                                          abs=NORM_RTOL), name


# SHA-256 over the fidelity, CI and bootstrap fidelities of every corpus
# circuit's Monte Carlo calls, in sorted file order: the circuit itself, then
# its auto and its ancilla-merged realization, each against the circuit, at
# p = 1e-3 and then 2e-2 (dephasing and depolarization alike, seed 3)
MONTE_CARLO_SHA256 = \
    "ffceade28cff21589daa5abc178cedf7342ed8b9057d9c9fe0fa1e29f1cd6fbc"


def test_corpus_monte_carlo_bytes_match():
    # the reference pair above is compared to 1e-9; this pins the last bit
    digest = hashlib.sha256()
    for path in CORPUS:
        circuit = parse_qasm_file(path)
        programs = [circuit] + [
            optimize(circuit, CompileOptions(scheme=scheme)).realized_circuit()
            for scheme in (AUTO, ANCILLA_MERGED)]
        for program in programs:
            for p in (1e-3, 2e-2):
                r = monte_carlo_fidelity(program, circuit,
                                         NoiseModel(p, p, seed=3),
                                         samples=24, shots=10)
                digest.update(struct.pack("<ddd", r.fidelity, r.ci_low,
                                          r.ci_high))
                digest.update(r.bootstrap_fidelities.tobytes())
    assert digest.hexdigest() == MONTE_CARLO_SHA256


# SHA-256 over serialize.dumps of the 12 corpus programs, in sorted file order
FORCED_SCHEME_SHA256 = {
    ANCILLA_MERGED:
        "2f5f34cbe3604b0c9b41351b7da0ab40585eaab19b5c63213259bf317c0b22da",
    NO_ANCILLA:
        "29a4bdef2d025aae4d3f5bb05ce63ed68fb9efc37a42595ca1a08f7e3b057b36",
}


@pytest.mark.parametrize("scheme", sorted(FORCED_SCHEME_SHA256))
def test_forced_scheme_corpus_programs_match(scheme):
    digest = hashlib.sha256()
    for path in CORPUS:
        prog = optimize(parse_qasm_file(path), CompileOptions(scheme=scheme))
        digest.update(serialize.dumps(prog).encode("utf-8"))
    assert digest.hexdigest() == FORCED_SCHEME_SHA256[scheme]


# SHA-256 over serialize.dumps of the programs of acceptance test 1's first
# 50 random circuits, drawn as that test draws them
ACCEPTANCE_SHA256 = \
    "0cdb8f666e94d583d27eda89b77d0c5708d59470d69669a4c30132ecd2da2039"


def test_acceptance_circuit_programs_match():
    rng = np.random.default_rng(20260826)
    digest = hashlib.sha256()
    for _ in range(50):
        n = int(rng.integers(2, 9))
        depth = int(rng.integers(5, 61))
        prog = optimize(random_circuit(n, depth, rng))
        digest.update(serialize.dumps(prog).encode("utf-8"))
    assert digest.hexdigest() == ACCEPTANCE_SHA256


# SHA-256 over the realized circuits of the 12 corpus programs, in sorted
# file order, under each of the three schemes in turn
REALIZED_SHA256 = \
    "d273e4023d9d84b51a016ed71ff7dabfeddd8ddab1a22d8be8e4f60278472049"


def _gate_bytes(g) -> bytes:
    """A native gate's kind, qubits and exact parameters."""
    if isinstance(g, SingleQubit):
        return b"S" + struct.pack("<q", g.qubit) + \
            np.ascontiguousarray(g.matrix, dtype=complex).tobytes()
    if isinstance(g, MultiQubitGate):
        return b"M" + b"".join(struct.pack("<qqd", a, b, th)
                               for (a, b), th in g.pairs.items())
    assert isinstance(g, GeneralizedCnot), type(g).__name__
    return b"C" + struct.pack("<qq", g.control, g.target) + \
        (g.control_axis + g.target_axis).encode("ascii")


def test_corpus_realized_circuits_match():
    digest = hashlib.sha256()
    for path in CORPUS:
        circuit = parse_qasm_file(path)
        for scheme in (AUTO, ANCILLA_MERGED, NO_ANCILLA):
            realized = optimize(circuit, CompileOptions(scheme=scheme)) \
                .realized_circuit()
            digest.update(struct.pack("<q", realized.num_qubits))
            for g in realized.gates:
                digest.update(_gate_bytes(g))
            phase = complex(realized.global_phase)
            digest.update(struct.pack("<dd", phase.real, phase.imag))
    assert digest.hexdigest() == REALIZED_SHA256


# SHA-256 over serialize.dumps of the QFT, then the 4-step XX+ZZ chain, at
# n = 8, 12 and 16, each under auto, ancilla-merged and no-ancilla in turn
FAMILY_SHA256 = \
    "eac74fc7fbcb11c6082508f93928fc34c778e958db9e34084f11da169d25ceb9"


def test_wide_family_programs_match():
    digest = hashlib.sha256()
    for make in (qft_circuit, chain_circuit):
        for n in (8, 12, 16):
            circuit = make(n)
            for scheme in (AUTO, ANCILLA_MERGED, NO_ANCILLA):
                prog = optimize(circuit, CompileOptions(scheme=scheme))
                digest.update(serialize.dumps(prog).encode("utf-8"))
    assert digest.hexdigest() == FAMILY_SHA256


def test_norm_table_cap_changes_no_program(monkeypatch):
    # a cleared table is refilled bit for bit, so a cap of a few keys gives
    # the same programs and metrics as the default one; after every batch
    # of at most CAP distinct keys the table holds at most CAP
    cap = 16
    circuits = [parse_qasm_file(path) for path in CORPUS]
    schemes = (AUTO, ANCILLA_MERGED, NO_ANCILLA)
    want = {}
    for c in circuits:
        for scheme in schemes:
            prog = optimize(c, CompileOptions(scheme=scheme))
            want[id(c), scheme] = metrics(prog.body, c, prog.scheme)

    fill, sizes = pgmq.cost._fill_norms, []

    def bounded(keys):
        fill(keys)
        batch = len(set(keys))
        sizes.append(batch)
        if batch <= cap:
            assert len(pgmq.cost._NORMS) <= cap

    monkeypatch.setattr(pgmq.cost, "_NORMS", {})
    monkeypatch.setattr(pgmq.cost, "_NORMS_CAP", cap)
    monkeypatch.setattr(pgmq.cost, "_fill_norms", bounded)
    digests = {scheme: hashlib.sha256() for scheme in FORCED_SCHEME_SHA256}
    for path, c in zip(CORPUS, circuits):
        for scheme in schemes:
            prog = optimize(c, CompileOptions(scheme=scheme))
            text = serialize.dumps(prog)
            got = metrics(prog.body, c, prog.scheme)
            for key in ("compiledNorm", "baselineNorm"):
                assert got[key] == pytest.approx(want[id(c), scheme][key],
                                                 rel=NORM_RTOL, abs=NORM_RTOL)
            if scheme == AUTO:
                _assert_matches(f"corpus/{path.stem}", {
                    "mq_count": got["compiledMqCount"],
                    "norm": got["compiledNorm"],
                    "program_sha256":
                        hashlib.sha256(text.encode("utf-8")).hexdigest()})
            else:
                digests[scheme].update(text.encode("utf-8"))
    for scheme, digest in digests.items():
        assert digest.hexdigest() == FORCED_SCHEME_SHA256[scheme], scheme
    # batches both under and over the cap occurred
    assert min(sizes) <= cap < max(sizes)
