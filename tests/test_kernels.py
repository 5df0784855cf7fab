"""The structured kernels of `gate_apply` against the dense reference.

Every kernel path (phase vector, row permutation, the one-qubit matmul on
every wire, and the dense fallback) is compared with `apply_local`
on random gates at widths 1-9, the top qubit (where an ancilla sits)
included, on state vectors and on unitaries.  `to_unitary`, which also
fuses runs of one-qubit gates, is compared with a product built from
`apply_local` alone, so a kernel bug cannot hide behind an oracle that
shares it.  The batched applier `gate_apply_rows` is compared with
`gate_apply` on each row alone, bit for bit.
"""

import itertools

import numpy as np
import pytest
from scipy.stats import unitary_group

from pgmq.circuit import (Circuit, GeneralizedCnot, SingleQubit, ZzRotation,
                          apply_local, cnot, gate_apply, gate_apply_rows,
                          gate_kernel, to_unitary)
from pgmq.cost import ANCILLA_MERGED
from pgmq.gadgets import MultiQubitGate, PhaseGadget
from pgmq.passes import CompileOptions, optimize
from conftest import random_circuit

TOL = 1e-12


def _random_gates(n: int, rng) -> list:
    """Gates of every kind on an n-qubit register: a one-qubit gate on each
    wire, and for n >= 2 canonical and non-canonical CNOTs, ZZ rotations,
    multiqubit gates and phase gadgets, each on the top qubit among others."""
    top = n - 1
    gates = [SingleQubit(q, unitary_group.rvs(2, random_state=rng))
             for q in range(n)]
    if n < 2:
        return gates + [MultiQubitGate({})]
    for _ in range(3):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        gates += [cnot(a, b), ZzRotation(float(rng.uniform(-2, 2)), a, b)]
    gates += [cnot(0, top), cnot(top, 0),
              GeneralizedCnot("X", top, "Y", 0),
              GeneralizedCnot("Z", 0, "Z", top),
              ZzRotation(0.7, top, 0)]
    for k in range(2, n + 1):
        qs = [int(x) for x in rng.choice(n, size=k, replace=False)]
        pairs = {(a, b): float(rng.uniform(-2, 2))
                 for a, b in itertools.combinations(qs, 2)
                 if rng.random() < 0.7}
        pairs[(qs[0], top) if qs[0] != top else (qs[1], top)] = 0.4
        gates.append(MultiQubitGate(pairs))
    gates += [PhaseGadget(axis, float(rng.uniform(-2, 2)),
                          tuple(sorted({0, top})))
              for axis in "XYZ"]
    return gates


def _reference(mat, gate, n):
    return apply_local(mat, gate.local_unitary(), gate.qubits, n)


def _arrays(n: int, rng) -> list:
    """A random state vector and a random unitary on n qubits (only its
    first five columns above six qubits)."""
    dim = 2 ** n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u = unitary_group.rvs(dim, random_state=rng)
    return [psi / np.linalg.norm(psi),
            np.ascontiguousarray(u[:, :5] if n > 6 else u)]


@pytest.mark.parametrize("n", range(1, 10))
def test_every_kernel_matches_apply_local(n, rng):
    kinds = set()
    arrays = _arrays(n, rng)
    for gate in _random_gates(n, rng):
        kernel = gate_kernel(gate, n)
        kinds.add(kernel.kind)
        for mat in arrays:
            want = _reference(mat, gate, n)
            got = gate_apply(mat, gate, n)
            assert got.shape == mat.shape
            assert np.max(np.abs(got - want)) <= TOL, (n, gate, mat.ndim)
            # a kernel built beforehand applies the same arithmetic
            assert np.array_equal(gate_apply(mat, kernel, n), got)
    want = {"one-qubit", "phase"} | ({"permute", "local"} if n > 1 else set())
    assert kinds == want


def test_one_qubit_kernel_covers_every_shape(rng):
    # every wire of a nine-qubit state vector and unitary: the batched
    # matmul's view runs from one trailing column to one batch entry
    n = 9
    psi, u = _arrays(n, rng)
    for q in range(n):
        g = SingleQubit(q, unitary_group.rvs(2, random_state=rng))
        for mat in (psi, u, np.eye(2 ** n, dtype=complex)):
            got = gate_apply(mat, g, n)
            assert np.max(np.abs(got - _reference(mat, g, n))) <= TOL


def _row_gates(n: int, rng) -> list:
    """A gate of each kernel kind on an n-qubit register: a one-qubit gate
    on every wire, and for n >= 2 a ZZ rotation and a multiqubit gate
    (phase), canonical CNOTs (permutation) and a non-canonical CNOT
    (dense local), each touching the top qubit."""
    gates = [SingleQubit(q, unitary_group.rvs(2, random_state=rng))
             for q in range(n)]
    if n < 2:
        return gates + [MultiQubitGate({})]
    top = n - 1
    pairs = {(a, b): float(rng.uniform(-2, 2))
             for a, b in itertools.combinations(range(n), 2)}
    return gates + [ZzRotation(float(rng.uniform(-2, 2)), 0, top),
                    MultiQubitGate(pairs), cnot(0, top), cnot(top, 0),
                    GeneralizedCnot("X", top, "Y", 0)]


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_rows_equal_gate_apply_on_each_row(n, rng):
    # prefixes of one buffer, as the sampler's replay passes them; the
    # first row is a basis state, whose zeros keep their signs only if
    # every row gets the single-vector arithmetic
    dim = 2 ** n
    rows = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
    rows[0] = 0.0
    rows[0, dim - 1] = 1.0
    kinds = set()
    for gate in _row_gates(n, rng):
        kernel = gate_kernel(gate, n)
        kinds.add(kernel.kind)
        want = [gate_apply(row, gate, n).tobytes() for row in rows]
        for m in range(1, 6):
            out = np.full_like(rows, np.nan)
            gate_apply_rows(rows[:m], out[:m], kernel, n)
            assert [row.tobytes() for row in out[:m]] == want[:m], (n, m, gate)
            assert np.isnan(out[m:]).all()
    want = {"one-qubit", "phase"} | ({"permute", "local"} if n > 1 else set())
    assert kinds == want


def _apply_local_unitary(circuit: Circuit) -> np.ndarray:
    n = circuit.num_qubits
    u = np.eye(2 ** n, dtype=complex)
    for g in circuit.gates:
        u = _reference(u, g, n)
    return circuit.global_phase * u


def test_to_unitary_matches_apply_local_product(rng):
    for _ in range(40):
        n = int(rng.integers(2, 8))
        c = random_circuit(n, int(rng.integers(1, 40)), rng, p_local=0.6,
                           p_cnot=0.2)
        c.global_phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert np.max(np.abs(to_unitary(c) - _apply_local_unitary(c))) <= TOL


def test_to_unitary_matches_apply_local_on_realized_programs(rng):
    # realized circuits carry multiqubit gates and, under the ancilla
    # scheme, the ancilla as their top qubit
    widths = set()
    for opts in (CompileOptions(), CompileOptions(scheme=ANCILLA_MERGED)):
        for _ in range(4):
            realized = optimize(random_circuit(4, 30, rng),
                                opts).realized_circuit()
            widths.add(realized.num_qubits)
            want = _apply_local_unitary(realized)
            assert np.max(np.abs(to_unitary(realized) - want)) <= TOL
    assert widths == {4, 5}
