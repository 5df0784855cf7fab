import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from pgmq.circuit import (Circuit, SingleQubit, ZzRotation, cnot, hadamard,
                          to_unitary, u1)
from pgmq.gadgets import GadgetSequence, MultiQubitGate
from pgmq.noise import MonteCarloResult, relative_error


def random_circuit(n: int, depth: int, rng, p_local=0.35, p_cnot=0.35) -> Circuit:
    """Random circuit over Haar single-qubit gates, CNOTs, and ZZ rotations."""
    c = Circuit(n, [])
    for _ in range(depth):
        r = rng.random()
        if r < p_local:
            q = int(rng.integers(n))
            c.add(SingleQubit(q, unitary_group.rvs(2, random_state=rng)))
        elif r < p_local + p_cnot:
            a, b = rng.choice(n, size=2, replace=False)
            c.add(cnot(int(a), int(b)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            c.add(ZzRotation(float(rng.uniform(-2.0, 2.0)), int(a), int(b)))
    return c


def qft_circuit(n: int) -> Circuit:
    """The n-qubit quantum Fourier transform with its terminal swaps: each
    controlled phase as qelib1's cu1, each swap as three CNOTs."""
    gates = []
    for i in range(n):
        gates.append(hadamard(i))
        for j in range(i + 1, n):
            lam = math.pi / 2 ** (j - i)
            gates += [u1(lam / 2, j), cnot(j, i), u1(-lam / 2, i), cnot(j, i),
                      u1(lam / 2, i)]
    for i in range(n // 2):
        a, b = i, n - 1 - i
        gates += [cnot(a, b), cnot(b, a), cnot(a, b)]
    return Circuit(n, gates)


def chain_circuit(n: int, steps: int = 4, xx: float = 0.3,
                  zz: float = 0.2) -> Circuit:
    """`steps` Trotter steps of the open XX+ZZ chain on n qubits: per step
    the even bonds, then the odd ones, each an XX rotation written with
    Hadamards followed by a ZZ rotation."""
    gates = []
    for _ in range(steps):
        for start in (0, 1):
            for a in range(start, n - 1, 2):
                b = a + 1
                gates += [hadamard(a), hadamard(b), ZzRotation(xx, a, b),
                          hadamard(a), hadamard(b), ZzRotation(zz, a, b)]
    return Circuit(n, gates)


def sequence_unitary(seq: GadgetSequence) -> np.ndarray:
    """Dense unitary of a gadget sequence including frame and phase."""
    c = Circuit(seq.num_qubits, [])
    for g in seq.gadgets:
        c.add(g)
    for g in seq.frame.gates():
        c.add(g)
    c.global_phase = seq.phase
    return to_unitary(c)


def mq_gates(circuit: Circuit) -> list:
    """The MultiQubitGates of a realized circuit, in order."""
    return [g for g in circuit.gates if isinstance(g, MultiQubitGate)]


def reference_norm(pairs) -> float:
    """Nuclear norm of a pair group, computed here: its phase matrix holds
    theta/2 on both slots of each (pair, theta) item, over the sorted
    support, then eigvalsh, abs and sum.  The matrix is checked to be
    symmetric."""
    pairs = dict(pairs)
    support = sorted({q for pair in pairs for q in pair})
    idx = {q: i for i, q in enumerate(support)}
    m = np.zeros((len(support), len(support)))
    for (a, b), th in pairs.items():
        m[idx[a], idx[b]] += th / 2
        m[idx[b], idx[a]] += th / 2
    assert np.array_equal(m, m.T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def exact_matching(weights: dict) -> list:
    """Exact maximum-weight matching, the reference for the greedy matching
    that compile uses (greedy reaches at least half its weight)."""
    import networkx as nx  # only the matching tests need networkx
    g = nx.Graph()
    for (a, b), w in weights.items():
        g.add_edge(a, b, weight=w)
    return [tuple(sorted(e)) for e in nx.max_weight_matching(g)]


def relative_error_ci(mc_comp: MonteCarloResult,
                      mc_inp: MonteCarloResult) -> tuple[float, float, float]:
    """Relative error with a basic-bootstrap 95% CI, pairing the bootstrap
    replicates of two independent Monte Carlo runs."""
    eps = relative_error(mc_comp.fidelity, mc_inp.fidelity)
    f_comp, f_inp = mc_comp.bootstrap_fidelities, mc_inp.bootstrap_fidelities
    # relative_error of each replicate pair, NaN where the input is ideal
    reps = np.full(f_inp.shape, math.nan)
    room = ~(f_inp >= 1.0)
    reps[room] = (f_comp[room] - f_inp[room]) / (1.0 - f_inp[room])
    q_lo, q_hi = np.percentile(reps, [2.5, 97.5])
    return eps, float(2 * eps - q_hi), float(2 * eps - q_lo)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
