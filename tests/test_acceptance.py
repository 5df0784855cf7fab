"""End-to-end acceptance suite.

Each test here pins one of the package's headline guarantees: exact semantic
preservation, the algebraic identity catalogue, the gate-count and norm laws,
benchmark-corpus improvement ratios, the noise pipeline's two fidelity
estimators agreeing, optimization monotonicity, and bit-exact determinism.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power

from pgmq.circuit import (Circuit, GeneralizedCnot, SingleQubit, cnot,
                          phase_distance, to_unitary)
from pgmq.cost import (ANCILLA_MERGED, NO_ANCILLA, nuclear_norm, realize,
                       star_norm, metrics)
from pgmq.gadgets import (GadgetSequence, MultiQubitGate, PhaseGadget,
                          commute_cnot, decompose_pg, fanout_to_mq,
                          merge_interface)
from pgmq.noise import (NoiseModel, _noise_sites, monte_carlo_fidelity,
                        relative_error, success_probability)
from pgmq.passes import CompileOptions, _greedy_matching, optimize
from pgmq.qasm import parse_qasm_file
from conftest import (exact_matching, mq_gates, random_circuit,
                      relative_error_ci)

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.diag([1.0 + 0j, -1.0])}


def corpus():
    files = sorted(BENCH_DIR.glob("*.qasm"))
    assert len(files) >= 10
    return files


def program_error(prog, circuit):
    """Max deviation of the realized program from the input unitary, up to
    global phase, with the ancilla (if any) projected onto |0> in and out;
    also returns the worst ancilla leakage."""
    from pgmq.passes import _strip_measures
    stripped, _ = _strip_measures(circuit)
    want = to_unitary(stripped)
    got = to_unitary(prog.realized_circuit())
    dim = want.shape[0]
    if got.shape[0] == dim:
        return phase_distance(want, got), 0.0
    leak = float(np.max(np.abs(got[dim:, :dim])))
    return phase_distance(want, got[:dim, :dim]), leak


# --- 1. semantic preservation -------------------------------------------------

def test_semantic_preservation_random_circuits():
    rng = np.random.default_rng(20260826)
    worst, worst_leak = 0.0, 0.0
    for i in range(200):
        n = int(rng.integers(2, 9))
        depth = int(rng.integers(5, 61))
        c = random_circuit(n, depth, rng)
        prog = optimize(c)
        err, leak = program_error(prog, c)
        worst, worst_leak = max(worst, err), max(worst_leak, leak)
    assert worst < 1e-8
    assert worst_leak < 1e-12


def test_semantic_preservation_corpus():
    for f in corpus():
        c = parse_qasm_file(f)
        assert c.num_qubits <= 10
        for opts in (CompileOptions(), CompileOptions(scheme=NO_ANCILLA),
                     CompileOptions(scheme=ANCILLA_MERGED)):
            prog = optimize(c, opts)
            err, leak = program_error(prog, c)
            assert err < 1e-8, (f.stem, opts.scheme, err)
            assert leak < 1e-12, (f.stem, opts.scheme, leak)


# --- 2. algebraic identity suite ------------------------------------------------

def _rand_support(rng, n, kmin=2):
    k = int(rng.integers(kmin, n + 1))
    return tuple(sorted(int(q) for q in rng.choice(n, k, replace=False)))


def test_identity_gadget_decomposition():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = PhaseGadget(str(rng.choice(list("XYZ"))),
                        float(rng.uniform(-2, 2)), _rand_support(rng, n))
        jstar = g.support[int(rng.integers(len(g.support)))]
        got = to_unitary(decompose_pg(g, jstar, num_qubits=n))
        want = to_unitary(Circuit(n, [g]))
        assert np.max(np.abs(got - want)) < 1e-10


def test_identity_fanout_and_interface_merge():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a = n
        j = set(_rand_support(rng, n, kmin=1))
        k = set(_rand_support(rng, n, kmin=1))
        ax1, ax2 = (str(x) for x in rng.choice(list("XYZ"), size=2))
        fan = [GeneralizedCnot(ax1, q, "Y", a) for q in sorted(j)] + \
              [GeneralizedCnot(ax2, q, "Y", a) for q in sorted(k)]
        want = to_unitary(Circuit(n + 1, fan))
        mq, frame = merge_interface(j, k, a, ax1, ax2)
        c = Circuit(n + 1, [], global_phase=frame.phase)
        for g in frame.right_gates():
            c.add(g)
        if mq.pairs:
            c.add(mq)
        for g in frame.left_gates():
            c.add(g)
        assert np.max(np.abs(to_unitary(c) - want)) < 1e-10


def test_identity_interface_closed_form():
    # product of a Z-fanout and an X-fanout over the same support J, both
    # targeting the ancilla with axis Y, equals
    #   e^{i|J| pi/4} . prod_k Y_k^{-1/2} . prod_k G_Y(-1/2, {a, k})
    rng = np.random.default_rng(13)
    y_m = fractional_matrix_power(PAULI["Y"], -0.5)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = n
        j = sorted(set(_rand_support(rng, n, kmin=1)))
        fan_x = [GeneralizedCnot("X", k, "Y", a) for k in j]
        fan_z = [GeneralizedCnot("Z", q, "Y", a) for q in j]
        lhs = Circuit(n + 1, fan_x + fan_z)  # matrix order: Z-fanout last
        gates = []
        for k in j:
            gates.append(SingleQubit(k, y_m, "y-half"))
            gates.append(PhaseGadget("Y", -0.5, (k, a)))
        rhs = Circuit(n + 1, gates,
                      global_phase=np.exp(1j * len(j) * math.pi / 4))
        assert np.max(np.abs(to_unitary(lhs) - to_unitary(rhs))) < 1e-10


def test_identity_six_commutation_cases():
    rng = np.random.default_rng(14)
    n = 5
    trials = 0
    while trials < 100:
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        c = cnot(a, b)
        axis = str(rng.choice(["X", "Z"]))
        sup = _rand_support(rng, n, kmin=1)
        # need the CNOT to touch the gadget to exercise a nontrivial case
        g = PhaseGadget(axis, float(rng.uniform(-2, 2)), sup)
        if axis == "Z" and sup == (a,) and b not in sup:
            continue
        try:
            gp = commute_cnot(c, g)
        except Exception:
            continue
        cu = to_unitary(Circuit(n, [c]))
        lhs = cu @ to_unitary(Circuit(n, [g]))
        rhs = to_unitary(Circuit(n, [gp])) @ cu
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        trials += 1


def test_identity_parity_rule():
    # conjugating a Z-axis phase rotation on the fanout target by the fanout
    # spreads it into a full-support gadget:
    #   (prod_j C_{Zj^X0}) . Z_0^alpha . (prod_j C_{Zj^X0})
    #     = e^{i alpha pi/2} . G_Z(-alpha, {0..n})
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        alpha = float(rng.uniform(-2, 2))
        fan = [GeneralizedCnot("Z", j, "X", 0) for j in range(1, n + 1)]
        z_pow = SingleQubit(0, np.diag([1.0, np.exp(1j * math.pi * alpha)]),
                            "z-pow")
        lhs = Circuit(n + 1, fan + [z_pow] + fan)
        rhs = Circuit(n + 1, [PhaseGadget("Z", -alpha, tuple(range(n + 1)))],
                      global_phase=np.exp(1j * alpha * math.pi / 2))
        assert np.max(np.abs(to_unitary(lhs) - to_unitary(rhs))) < 1e-10


# --- 3. gate-count laws -----------------------------------------------------------

def alternating_big_gadgets(m):
    gads = []
    for i in range(m):
        if i % 2 == 0:
            gads.append(PhaseGadget("Z", 0.23 + 0.007 * i, (0, 1, 2)))
        else:
            gads.append(PhaseGadget("X", 0.31 + 0.007 * i, (1, 2, 3)))
    return GadgetSequence(4, gads)


def test_gate_count_laws_m_plus_one_and_two_m():
    for m in range(1, 21):
        seq = alternating_big_gadgets(m)
        assert len(mq_gates(realize(seq, ANCILLA_MERGED))) == m + 1
        assert len(mq_gates(realize(seq, NO_ANCILLA))) == 2 * m


# --- 4. Clifford structure ---------------------------------------------------------

def test_ancilla_merged_gates_are_clifford():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        gads = [PhaseGadget(str(rng.choice(list("XYZ"))),
                            float(rng.uniform(-2, 2)),
                            _rand_support(rng, n, kmin=3))
                for _ in range(int(rng.integers(1, 6)))]
        r = realize(GadgetSequence(n, gads), ANCILLA_MERGED)
        assert mq_gates(r)
        for g in mq_gates(r):
            for th in g.pairs.values():
                assert th in (math.pi / 4, -math.pi / 4, 0.0)


# --- 5. norm model -------------------------------------------------------------------

def test_star_norm_closed_form_and_power_ratio():
    for k in range(1, 65):
        g = MultiQubitGate({(q, 64): math.pi / 4 for q in range(k)})
        assert abs(nuclear_norm(g) - (math.pi / 4) * math.sqrt(k)) < 1e-10
        assert star_norm(k) / star_norm(1) == pytest.approx(math.sqrt(k))


def test_depolarization_anchor_k30():
    star = MultiQubitGate({(q, 30): math.pi / 4 for q in range(30)})
    sites = _noise_sites(Circuit(31, [star]), NoiseModel(p_depol_tq=1e-3))
    p = sites[0][1]
    assert abs(p - 0.00528) / 0.00528 < 0.10


# --- 6. benchmark corpus ratios ----------------------------------------------------

def test_corpus_improvement_ratios():
    rows = []
    for f in corpus():
        c = parse_qasm_file(f)
        prog = optimize(c)
        m = metrics(prog.body, c, prog.scheme)
        m["name"] = f.stem
        rows.append(m)
    assert len(rows) >= 10
    # (a) fewer multiqubit gates than input entangling gates, every circuit
    for m in rows:
        assert m["gateCountRatio"] > 1.0, (m["name"], m["gateCountRatio"])
    # (b) never worse than the trivial parallel-merge baseline, strictly
    # better on at least 70%
    strict = 0
    for m in rows:
        assert m["baselineRatio"] >= 1.0 - 1e-9, (m["name"], m["baselineRatio"])
        strict += m["baselineRatio"] > 1.0 + 1e-9
    assert strict >= math.ceil(0.7 * len(rows))
    # (c) total nuclear norm not increased on at least 70%
    good = sum(m["normRatio"] >= 1.0 - 1e-9 for m in rows)
    assert good >= math.ceil(0.7 * len(rows))
    # (d) report the aggregate means
    means = {k: sum(m[k] for m in rows) / len(rows)
             for k in ("gateCountRatio", "baselineRatio", "normRatio")}
    sys.stdout.write(f"corpus means ({len(rows)} circuits): {means}\n")


# --- 7. noise pipeline: both fidelity estimators agree ------------------------------

def test_noise_pipeline_relative_error_positive():
    c = parse_qasm_file(BENCH_DIR / "qaoa_n6.qasm")
    prog = optimize(c)
    model = NoiseModel(p_dephase=1e-3, p_depol_tq=1e-3, seed=1)

    # closed-form estimator
    f_inp_sp = success_probability(c, model)
    f_comp_sp = success_probability(prog, model)
    eps_sp = relative_error(f_comp_sp, f_inp_sp)
    assert eps_sp > 0.0

    # Monte Carlo estimator (>= 1e4 samples x >= 10 shots)
    samples, shots = 12000, 200
    mc_inp = monte_carlo_fidelity(c, c, model, samples=samples, shots=shots)
    mc_comp = monte_carlo_fidelity(prog, c, model, samples=samples,
                                   shots=shots)
    eps_mc, lo, hi = relative_error_ci(mc_comp, mc_inp)
    sys.stdout.write(f"eps success-prob={eps_sp:.4f} "
                     f"monte-carlo={eps_mc:.4f} CI=({lo:.4f}, {hi:.4f})\n")
    assert lo > 0.0                       # significant at 95%
    assert eps_mc > 0.0                   # same sign as closed form
    assert lo <= eps_sp <= hi             # estimators consistent


# --- 8. optimization dynamics ---------------------------------------------------------

def test_cost_trace_strictly_decreasing_on_corpus():
    for f in corpus():
        prog = optimize(parse_qasm_file(f))
        trace = prog.cost_trace
        for earlier, later in zip(trace, trace[1:]):
            assert later < earlier, f.stem


def test_greedy_matching_at_least_half_exact():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        weights = {}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.7:
                    weights[(a, b)] = float(rng.uniform(0.01, 1.0))
        if not weights:
            continue
        wg = sum(weights[tuple(sorted(e))] for e in _greedy_matching(weights))
        we = sum(weights[tuple(sorted(e))] for e in exact_matching(weights))
        assert wg >= we / 2 - 1e-12


def test_commutation_event_regression_bound():
    # frozen baseline: the fixed circuit below measured 4944 commutation
    # events; the regression bound is three times that
    rng = np.random.default_rng(424242)
    c = random_circuit(8, 60, rng)
    prog = optimize(c)
    assert prog.commutation_events <= 3 * 4944


# --- 9. determinism ---------------------------------------------------------------------

def _run_cli(args):
    from pgmq.cli import main
    rc = main(args)
    assert rc == 0, args
    return rc


def test_byte_identical_program_json_and_csv(tmp_path):
    src = BENCH_DIR / "ising_n6.qasm"
    p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
    _run_cli(["compile", str(src), "--out", str(p1), "--seed", "5"])
    _run_cli(["compile", str(src), "--out", str(p2), "--seed", "5"])
    assert p1.read_bytes() == p2.read_bytes()

    sub = tmp_path / "suite"
    sub.mkdir()
    for name in ("ghz_n6.qasm", "bv_n7.qasm", "qft_n5.qasm"):
        shutil.copy(BENCH_DIR / name, sub / name)
    c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    argv = ["bench", str(sub), "--seed", "5", "--samples", "25", "--shots",
            "10"]
    _run_cli(argv + ["--csv", str(c1)])
    _run_cli(argv + ["--csv", str(c2)])
    assert c1.read_bytes() == c2.read_bytes()
