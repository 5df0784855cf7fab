"""Inputs, operations and output checks of the four benchmark workloads.

A workload is built once (set-up) and then runs passes.  A pass runs every
row of the workload once: `corpus` and `random` compile and verify each of
their circuits, the `mc_*` workloads run one Monte Carlo operation for each
of their noise seeds.  Every operation is timed and checked, and each row's
quality fingerprint is recorded.  pgmq is
always reached through its module attributes, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pgmq.circuit
import pgmq.cost
import pgmq.noise
import pgmq.passes
import pgmq.qasm
import pgmq.serialize

# The 12 corpus circuits by explicit name, with the SHA-256 of each file.
CORPUS = {
    "adder_n4": "54dd532df4703bb7603b1481d985618a98cf19adb5b4df1253afd030b3103bc4",
    "bv_n7": "8bfc67a1e73efea0ae23261b6892a4d20da7cc2296c45eb002d471f8a5a46d3c",
    "ghz_n6": "2e915763d5527eeb26ca75e7e1bd30f5af0b597e19e162cde8b18fac40e499fe",
    "graphstate_n7": "d34b5c3e29bbac880aa45ae25764c250b7e3c1b04ca03b7b9a1e9e060a573a98",
    "heisenberg_n5": "d5a00823d743f865b99744ee368f3ca55698053a6b5884ee8e4863b444578164",
    "ising_n6": "b96bc9cd80124c0b5ba3d589bd70c23f988bb3bd414aa83a8b8e4bf8ecc2b507",
    "ising_n9_lattice": "bb68a19e6a1165a111e12a6a6067fb57d1589e7de24b23ab73138e2a6cc04301",
    "qaoa_n6": "2e41e2ea3d06d8f2350589460eb94daf3161f336178acc1ae4b057ae4b68a9a0",
    "qaoa_n8": "84febad15322dc89e6553c6b2f73eedc4d7669db1c4022fa764768fec12b3ae2",
    "qft_n5": "cfc26fdac2bb5cc21949bc1009cb1f3299b5f4324aade225a27fd591a911c5af",
    "swaptest_n5": "853a0e278edb1183e2c98f5d9890bb94245029dc20522f94e8e1c9292fcf0312",
    "vqe_n4": "e98dba1428cd681db3618b850dd1bbb66501b98ea37d8c28d76c82b43b7bd8e9",
}

# `random` compiles a fixed pool drawn from acceptance test 1's distribution
# with this generator seed; the workload seed sets the order of each pass.
POOL_SEED = 20260826
POOL_SIZE = 8

MC_CIRCUIT = "qaoa_n6"
MC_NOISE = {"mc_low": 1e-3, "mc_high": 2e-2}
MC_ROWS = 8                 # noise seeds, each run once per pass
MC_SAMPLES = 20             # noisy instances per monte_carlo_fidelity call
MC_SHOTS = 200
REFERENCE_NOISE_SEED = 0    # fixed seed of the fingerprinted Monte Carlo pair
REFERENCE_SAMPLES = 200

VERIFY_TOL = 1e-8
LEAK_TOL = 1e-12


class InputError(Exception):
    """The checkout lacks the benchmark's inputs."""


# ---------------------------------------------------------------------------
# Random circuits (same distribution as tests/conftest.random_circuit)
# ---------------------------------------------------------------------------

def haar_unitary(rng) -> np.ndarray:
    """Haar-random 2x2 unitary: QR of a complex Gaussian with the phases of
    R's diagonal moved into Q."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_circuit(n: int, depth: int, rng, p_local=0.35, p_cnot=0.35):
    """Haar single-qubit gates, CNOTs and ZZ rotations with angle in [-2, 2]."""
    c = pgmq.circuit.Circuit(n, [])
    for _ in range(depth):
        r = rng.random()
        if r < p_local:
            q = int(rng.integers(n))
            c.add(pgmq.circuit.SingleQubit(q, haar_unitary(rng)))
        elif r < p_local + p_cnot:
            a, b = rng.choice(n, size=2, replace=False)
            c.add(pgmq.circuit.cnot(int(a), int(b)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            c.add(pgmq.circuit.ZzRotation(float(rng.uniform(-2.0, 2.0)),
                                          int(a), int(b)))
    return c


def random_pool(size: int = POOL_SIZE, seed: int = POOL_SEED) -> dict:
    """Circuits with n in [2, 8] and depth in [5, 60], as acceptance test 1
    draws them."""
    rng = np.random.default_rng(seed)
    pool = {}
    for i in range(size):
        n = int(rng.integers(2, 9))
        depth = int(rng.integers(5, 61))
        pool[f"r{i:02d}_n{n}_d{depth}"] = random_circuit(n, depth, rng)
    return pool


# ---------------------------------------------------------------------------
# Checks, independent of the compiler under test
# ---------------------------------------------------------------------------

def realized_error(prog, circ) -> tuple[float, float]:
    """Max deviation of the realized program from the source unitary up to
    global phase, with the ancilla (if any) projected onto |0>, and the
    worst ancilla leakage."""
    skip = (pgmq.circuit.Measure, pgmq.circuit.Barrier)
    source = pgmq.circuit.Circuit(
        circ.num_qubits, [g for g in circ.gates if not isinstance(g, skip)],
        global_phase=circ.global_phase)
    want = pgmq.circuit.to_unitary(source)
    got = pgmq.circuit.to_unitary(prog.realized_circuit())
    dim = want.shape[0]
    leak = float(np.max(np.abs(got[dim:, :dim]))) if got.shape[0] > dim else 0.0
    got = got[:dim, :dim]
    overlap = np.vdot(want, got)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-14 else 1.0
    return float(np.max(np.abs(want * phase - got))), leak


def mc_check(res, samples: int) -> tuple[bool, dict]:
    """Strict checks of one Monte Carlo result, plus the bootstrap-CI
    properties the program does not guarantee today (counted, not failed)."""
    ok = (0.0 <= res.fidelity <= 1.0 and res.ci_low <= res.ci_high
          and res.samples == samples and res.shots == MC_SHOTS)
    defects = {"ci_excludes_estimate": not res.ci_low <= res.fidelity <= res.ci_high,
               "ci_outside_unit": not 0.0 <= res.ci_low <= res.ci_high <= 1.0}
    return ok, defects


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation and what its checks found."""

    row: str
    latency_s: float = 0.0
    verify_s: float = 0.0
    samples: int = 0
    ok: bool = False
    error: str = ""
    fingerprint: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def compile_op(row: str, source) -> Op:
    """What `pgmq compile` does (parse -> optimize -> dumps -> metrics),
    then a dense check of the realized circuit against the source."""
    op = Op(row)
    try:
        t0 = time.perf_counter()
        circ = pgmq.qasm.parse_qasm_file(source) if isinstance(source, str) \
            else source
        prog = pgmq.passes.optimize(circ)
        text = pgmq.serialize.dumps(prog)
        m = pgmq.cost.metrics(prog.body, circ, prog.scheme)
        t1 = time.perf_counter()
        err, leak = realized_error(prog, circ)
        t2 = time.perf_counter()
    except Exception:
        op.error = traceback.format_exc()
        return op
    op.latency_s, op.verify_s = t1 - t0, t2 - t1
    op.ok = err <= VERIFY_TOL and leak <= LEAK_TOL
    if not op.ok:
        op.error = f"realized circuit deviates by {err:.3e} (leak {leak:.3e})"
    op.fingerprint = {"mq_count": m["compiledMqCount"],
                      "norm": m["compiledNorm"], "program_sha256": sha256(text)}
    op.info = {"iterations": prog.iterations,
               "commutation_events": prog.commutation_events,
               "program_bytes": len(text.encode("utf-8"))}
    return op


def mc_op(row: str, prog, circ, p: float, noise_seed: int, samples: int) -> Op:
    """monte_carlo_fidelity on the compiled program and on the input, as
    `pgmq simulate --input` runs them."""
    op = Op(row, samples=2 * samples)
    model = pgmq.noise.NoiseModel(p, p, noise_seed)
    try:
        t0 = time.perf_counter()
        comp = pgmq.noise.monte_carlo_fidelity(prog, circ, model,
                                               samples=samples, shots=MC_SHOTS)
        inp = pgmq.noise.monte_carlo_fidelity(circ, circ, model,
                                              samples=samples, shots=MC_SHOTS)
        op.latency_s = time.perf_counter() - t0
    except Exception:
        op.error = traceback.format_exc()
        return op
    (ok_c, def_c), (ok_i, def_i) = mc_check(comp, samples), mc_check(inp, samples)
    op.ok = ok_c and ok_i
    if not op.ok:
        op.error = f"Monte Carlo result out of range: {comp} / {inp}"
    op.fingerprint = {"fidelity_compiled": comp.fidelity,
                      "fidelity_input": inp.fidelity}
    op.info = {k: int(def_c[k]) + int(def_i[k]) for k in def_c}
    return op


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class CompileWorkload:
    """corpus / random: one pass compiles and verifies every circuit once,
    in an order drawn from the workload seed."""

    kind = "compile"

    def __init__(self, name: str, rows: dict, seed: int):
        self.name = name
        self.rows = rows
        self.seed = seed

    def run_pass(self, k: int, after_op=None) -> list[Op]:
        """Pass k: every circuit once, in an order drawn from (seed, k);
        `after_op`, if given, is called after each operation."""
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for row in rng.permutation(list(self.rows)):
            ops.append(compile_op(row, self.rows[row]))
            if after_op:
                after_op()
        return ops

    def finish(self) -> list[Op]:
        return []

    def quality(self, fingerprints: dict) -> tuple[int, float]:
        return (sum(fp["mq_count"] for fp in fingerprints.values()),
                sum(fp["norm"] for fp in fingerprints.values()))


class MonteCarloWorkload:
    """mc_low / mc_high: the program is compiled and checked in set-up; the
    rows are MC_ROWS operations, each with its own noise seed derived from
    the workload seed."""

    kind = "mc"

    def __init__(self, name: str, path: Path, seed: int):
        self.name = name
        self.p = MC_NOISE[name]
        self.noise_seeds = np.random.SeedSequence(seed).generate_state(MC_ROWS)
        self.circ = pgmq.qasm.parse_qasm_file(str(path))
        self.prog = pgmq.passes.optimize(self.circ)
        self.setup_op = Op(MC_CIRCUIT)
        err, leak = realized_error(self.prog, self.circ)
        self.setup_op.ok = err <= VERIFY_TOL and leak <= LEAK_TOL
        if not self.setup_op.ok:
            self.setup_op.error = f"realized circuit deviates by {err:.3e}"
        text = pgmq.serialize.dumps(self.prog)
        cv = self.prog.cost()
        self.setup_op.fingerprint = {"mq_count": cv.mq_count,
                                     "norm": cv.total_norm,
                                     "program_sha256": sha256(text)}

    def run_pass(self, k: int, after_op=None) -> list[Op]:
        """Every row once (the same operations in every pass); `after_op`,
        if given, is called after each operation."""
        ops = []
        for j, noise_seed in enumerate(self.noise_seeds):
            ops.append(mc_op(f"{self.name}@{j}", self.prog, self.circ, self.p,
                             int(noise_seed), MC_SAMPLES))
            if after_op:
                after_op()
        return ops

    def finish(self) -> list[Op]:
        """The fingerprinted pair at the fixed reference seed (untimed)."""
        return [self.setup_op,
                mc_op(f"{self.name}@reference", self.prog, self.circ, self.p,
                      REFERENCE_NOISE_SEED, REFERENCE_SAMPLES)]

    def quality(self, fingerprints: dict) -> tuple[int, float]:
        fp = self.setup_op.fingerprint
        return fp["mq_count"], fp["norm"]

    def error_free_frac(self) -> float:
        """Success probability (no error drawn anywhere), averaged over the
        compiled and the input circuit, which run equally many samples."""
        model = pgmq.noise.NoiseModel(self.p, self.p, 0)
        return 0.5 * (pgmq.noise.success_probability(self.prog, model)
                      + pgmq.noise.success_probability(self.circ, model))


def build(name: str, root: Path, seed: int):
    """Set up one workload: read or generate its inputs, and for mc_*
    compile the program."""
    bench = root / "benchmarks"
    stems = {"corpus": CORPUS, "random": ()}.get(name, (MC_CIRCUIT,))
    for stem in stems:
        path = bench / f"{stem}.qasm"
        if not path.is_file():
            raise InputError(f"missing corpus file {path}")
        if hashlib.sha256(path.read_bytes()).hexdigest() != CORPUS[stem]:
            raise InputError(f"{path} differs from the benchmarked corpus")
    if name == "corpus":
        return CompileWorkload(name, {stem: str(bench / f"{stem}.qasm")
                                      for stem in CORPUS}, seed)
    if name == "random":
        return CompileWorkload(name, random_pool(), seed)
    return MonteCarloWorkload(name, bench / f"{MC_CIRCUIT}.qasm", seed)
