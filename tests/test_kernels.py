"""The structured kernels of `gate_apply` against the dense reference.

Every kernel path (phase vector, row permutation, the one-qubit matmul on
every wire, and the dense fallback) is compared with `apply_local`
on random gates at widths 1-9, the top qubit (where an ancilla sits)
included, on state vectors and on unitaries.  `to_unitary`, which also
fuses one-qubit runs and diagonal/CNOT runs, is compared with a product
built from `apply_local` alone, so a kernel bug cannot hide behind an
oracle that shares it.  The batched applier `gate_apply_rows` is compared
with `gate_apply` on each row alone, bit for bit.  The phase vectors built
from cached per-qubit signs are compared with the index formula they
replace, byte for byte.
"""

import itertools

import numpy as np
import pytest
from scipy.stats import unitary_group

from pgmq.circuit import (Barrier, Circuit, GeneralizedCnot, SingleQubit,
                          ZzRotation, apply_local, apply_unitary, cnot,
                          gate_apply, gate_apply_rows, gate_kernel,
                          pauli_gate, qubit_signs, to_unitary)
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


def test_z_controlled_cnot_kernels():
    # the one gate-to-kernel map of the sampler and the oracle: with a Z
    # control, an X target permutes the rows, a Z target (CZ) is the phase
    # vector 1 - 2 (c & t), and a Y target is a dense local operator
    n, c, t = 4, 1, 3
    x = np.arange(2 ** n)
    on = ((x >> c) & 1, (x >> t) & 1)
    kernel = gate_kernel(GeneralizedCnot("Z", c, "X", t), n)
    assert kernel.kind == "permute"
    assert np.array_equal(kernel.table, x ^ (on[0] << t))
    kernel = gate_kernel(GeneralizedCnot("Z", c, "Z", t), n)
    assert kernel.kind == "phase"
    assert kernel.table.tobytes() == (1.0 - 2.0 * (on[0] & on[1])).tobytes()
    assert gate_kernel(GeneralizedCnot("Z", c, "Y", t), n).kind == "local"


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
    and a CZ (phase), canonical CNOTs (permutation) and a non-canonical
    CNOT (dense local), each touching the top qubit."""
    gates = [SingleQubit(q, unitary_group.rvs(2, random_state=rng))
             for q in range(n)]
    if n < 2:
        return gates + [MultiQubitGate({})]
    top = n - 1
    pairs = {(a, b): float(rng.uniform(-2, 2))
             for a, b in itertools.combinations(range(n), 2)}
    return gates + [ZzRotation(float(rng.uniform(-2, 2)), 0, top),
                    MultiQubitGate(pairs), GeneralizedCnot("Z", 0, "Z", top),
                    cnot(0, top), cnot(top, 0),
                    GeneralizedCnot("X", top, "Y", 0)]


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_rows_equal_gate_apply_on_each_row(n, rng):
    # prefixes of one buffer, as the sampler's replay passes them, and its
    # first row alone as a vector, as a one-row sweep passes it; the first
    # row is a basis state, whose zeros keep their signs only if every row
    # gets the single-vector arithmetic
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
        vector = np.full(dim, np.nan, dtype=complex)
        gate_apply_rows(rows[0], vector, kernel, n)
        assert vector.tobytes() == want[0], (n, gate)
    want = {"one-qubit", "phase"} | ({"permute", "local"} if n > 1 else set())
    assert kinds == want


def _apply_local_unitary(circuit: Circuit) -> np.ndarray:
    n = circuit.num_qubits
    u = np.eye(2 ** n, dtype=complex)
    for g in circuit.gates:
        if not isinstance(g, Barrier):
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


# --- the fused oracle ---------------------------------------------------------

def _fused_gate(kind: str, n: int, rng):
    """One gate of `kind` on a random choice of an n-qubit register's
    wires (n >= 2 for the two-qubit kinds)."""
    if kind == "local":
        return SingleQubit(int(rng.integers(n)),
                           unitary_group.rvs(2, random_state=rng))
    if kind == "barrier":
        k = int(rng.integers(0, n + 1))
        return Barrier(tuple(int(q) for q in rng.choice(n, k, replace=False)))
    if kind == "mq":
        k = int(rng.integers(2, n + 1)) if n > 1 else 0
        qs = [int(q) for q in rng.choice(n, size=k, replace=False)]
        return MultiQubitGate({(a, b): float(rng.uniform(-2, 2))
                               for a, b in itertools.combinations(qs, 2)
                               if rng.random() < 0.6})
    a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
    if kind == "cnot":
        return cnot(a, b)
    if kind == "gcnot":
        return GeneralizedCnot(str(rng.choice(list("XYZ"))), a,
                               str(rng.choice(list("XYZ"))), b)
    return ZzRotation(float(rng.uniform(-2, 2)), a, b)


_FAMILIES = {
    "mixed": ("local", "cnot", "gcnot", "zz", "mq", "barrier"),
    "local": ("local",),
    "diagonal": ("zz", "mq"),
    "cnot word": ("cnot",),
    "generalized word": ("cnot", "gcnot"),
    "no one-qubit": ("cnot", "gcnot", "zz", "mq", "barrier"),
}


def _fused_cases(rng) -> list:
    """(family, circuit) pairs: every family at widths 1-8 (the two-qubit
    kinds from width 2), and shallow mixed circuits at widths 9 and 10; each
    may carry a random global phase, and each family has an empty case."""
    cases = []
    for family, kinds in _FAMILIES.items():
        for n in range(1, 9):
            usable = [k for k in kinds if n > 1 or k in ("local", "barrier")]
            if not usable:
                continue
            for depth in (0, 3, 12, 24, 40):
                c = Circuit(n, [_fused_gate(usable[int(rng.integers(len(usable)))],
                                            n, rng) for _ in range(depth)])
                if rng.random() < 0.5:
                    c.global_phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
                cases.append((family, c))
    for n in (9, 10):
        for depth in (4, 8):
            kinds = _FAMILIES["mixed"]
            cases.append(("mixed", Circuit(n, [
                _fused_gate(kinds[int(rng.integers(len(kinds)))], n, rng)
                for _ in range(depth)])))
    return cases


def test_fused_oracle_matches_per_gate_product(rng):
    # the dense unitary, and the first columns of the low wires' basis
    # states (the ancilla form verify uses), against applying every gate
    # through apply_local; no gate's matrix is changed on the way
    cases = _fused_cases(rng)
    assert len(cases) >= 200
    widths, families = set(), set()
    for family, c in cases:
        n = c.num_qubits
        before = [g.matrix.copy() for g in c.gates
                  if isinstance(g, SingleQubit)]
        want = _apply_local_unitary(c)
        got = to_unitary(c)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= TOL, (family, n)
        m = int(rng.integers(0, n + 1))
        got = apply_unitary(c, m)
        assert np.max(np.abs(got - want[:, :2 ** m])) <= TOL, (family, n, m)
        after = [g.matrix for g in c.gates if isinstance(g, SingleQubit)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        widths.add(n)
        families.add(family)
    assert widths == set(range(1, 11)) and families == set(_FAMILIES)


def test_fused_oracle_on_a_block_of_columns(rng):
    # a block of states is left unchanged and gets the dense product's
    # columns; an empty register is its global phase, and a one-wire
    # circuit of a shared gate leaves the gate alone
    for n in (1, 3, 6):
        kinds = _FAMILIES["mixed" if n > 1 else "local"]
        c = Circuit(n, [_fused_gate(kinds[int(rng.integers(len(kinds)))],
                                    n, rng) for _ in range(30)],
                    global_phase=np.exp(0.3j))
        block = rng.normal(size=(2 ** n, 5)) + 1j * rng.normal(size=(2 ** n, 5))
        kept = block.copy()
        got = apply_unitary(c, block)
        assert np.array_equal(block, kept)
        assert np.max(np.abs(got - _apply_local_unitary(c) @ block)) <= TOL
    assert np.array_equal(to_unitary(Circuit(0, [], global_phase=1j)), [[1j]])
    x = pauli_gate("X", 0)
    u = to_unitary(Circuit(1, [x], global_phase=1j))
    assert np.array_equal(u, 1j * x.matrix)
    assert np.array_equal(x.matrix, [[0, 1], [1, 0]])


def test_fused_oracle_start_reaching_the_top_wires(rng):
    # a monomial from the low wires into the top one before any one-qubit
    # gate: kept columns of the low wires' basis states land where the top
    # wire is 1, so the start's Kronecker product needs all its columns
    def haar(q):
        return SingleQubit(q, unitary_group.rvs(2, random_state=rng))
    cases = [(Circuit(2, [cnot(0, 1), haar(0)]), 1),
             (Circuit(4, [cnot(0, 3), GeneralizedCnot("Z", 1, "Y", 3),
                          ZzRotation(0.3, 0, 3), haar(3), haar(0), haar(1),
                          cnot(3, 2), haar(2)],
                      global_phase=np.exp(0.7j)), 3)]
    for c, m in cases:
        want = _apply_local_unitary(c)[:, :2 ** m]
        assert np.max(np.abs(apply_unitary(c, m) - want)) <= TOL


def test_fused_oracle_on_realized_ancilla_programs(rng):
    # the realized ancilla program with the ancilla in |0>, as verify
    # applies it, against the per-gate product's first columns
    for _ in range(3):
        source = random_circuit(4, 30, rng)
        realized = optimize(source, CompileOptions(scheme=ANCILLA_MERGED)
                            ).realized_circuit()
        assert realized.num_qubits == 5
        want = _apply_local_unitary(realized)[:, :16]
        assert np.max(np.abs(apply_unitary(realized, 4) - want)) <= TOL


# --- phase vectors from cached signs -------------------------------------------

def _index_zz_diagonal(theta: float, a: int, b: int, n: int) -> np.ndarray:
    x = np.arange(2 ** n)
    z = 1 - 2 * (((x >> a) ^ (x >> b)) & 1)
    return np.cos(theta) + 1j * np.sin(theta) * z


def _index_mq_diagonal(gate: MultiQubitGate, n: int | None) -> np.ndarray:
    qs = gate.support
    if n is None:
        n, pos = len(qs), {q: i for i, q in enumerate(qs)}
    else:
        pos = {q: q for q in qs}
    x = np.arange(2 ** n)
    diag = np.zeros(x.size)
    for (a, b), th in gate.pairs.items():
        sa = 1 - 2 * ((x >> pos[a]) & 1)
        sb = 1 - 2 * ((x >> pos[b]) & 1)
        diag += th * sa * sb
    return np.exp(1j * diag)


def test_qubit_signs_are_cached_read_only_int8():
    for n in range(1, 17):
        x = np.arange(2 ** n)
        for q in range(n):
            signs = qubit_signs(n, q)
            assert signs.dtype == np.int8 and not signs.flags.writeable
            assert np.array_equal(signs, 1 - 2 * ((x >> q) & 1))
            assert qubit_signs(n, q) is signs
    # wider registers get their signs but leave no cache entry
    assert qubit_signs(17, 3) is not qubit_signs(17, 3)


def test_sign_diagonals_equal_index_diagonals_bytewise(rng):
    # every qubit pair of every width up to the statevector cap, as a ZZ
    # rotation and as a one-pair multiqubit gate, and a dense gate per
    # width over the register and over its support
    for n in range(2, 17):
        for a, b in itertools.permutations(range(n), 2):
            if a > b and n > 8:
                continue
            theta = float(rng.uniform(-2, 2))
            assert ZzRotation(theta, a, b).diagonal(n).tobytes() == \
                _index_zz_diagonal(theta, a, b, n).tobytes(), (n, a, b)
            g = MultiQubitGate({(a, b): theta})
            assert g.diagonal(n).tobytes() == \
                _index_mq_diagonal(g, n).tobytes(), (n, a, b)
        qs = sorted(int(q) for q in rng.choice(n, size=min(n, 6),
                                                replace=False))
        g = MultiQubitGate({(a, b): float(rng.uniform(-2, 2))
                            for a, b in itertools.combinations(qs, 2)})
        for width in (n, None):
            assert g.diagonal(width).tobytes() == \
                _index_mq_diagonal(g, width).tobytes(), (n, width)
