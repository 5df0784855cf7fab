import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from pgmq import circuit
from pgmq.circuit import (I2, PAULI, Circuit, CircuitError, GeneralizedCnot,
                          SingleQubit, ZzRotation, apply_local, cnot,
                          form_su4_blocks, gates_commute, hadamard, layerize,
                          pauli_gate, phase_distance, to_unitary, u1)
from pgmq.gadgets import pauli_rotation
from conftest import random_circuit

CNOT = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                dtype=complex)


def test_cnot_matrix_little_endian():
    # control qubit 0 (least significant bit), target qubit 1
    u = to_unitary(Circuit(2, [cnot(0, 1)]))
    assert np.allclose(u, CNOT)


def test_generalized_cnot_projector_form():
    # C_{P^Q} = exp[i (I-P)(I-Q) pi/4] with no extra phase
    from scipy.linalg import expm
    paulis = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
              "Y": np.array([[0, -1j], [1j, 0]]),
              "Z": np.diag([1.0 + 0j, -1.0])}
    eye = np.eye(2)
    for p in "XYZ":
        for q in "XYZ":
            g = GeneralizedCnot(p, 0, q, 1)
            a = np.kron(eye, paulis[p])  # qubit 0 least significant
            b = np.kron(paulis[q], eye)
            expect = expm(1j * math.pi / 4 * (np.eye(4) - a) @ (np.eye(4) - b))
            assert np.max(np.abs(to_unitary(Circuit(2, [g])) - expect)) < 1e-12


def test_zz_rotation_definition():
    theta = 0.813
    u = to_unitary(Circuit(2, [ZzRotation(theta, 0, 1)]))
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    from scipy.linalg import expm
    assert np.max(np.abs(u - expm(1j * theta * zz))) < 1e-12


def test_standard_rotations():
    from scipy.linalg import expm
    th = 1.234
    for axis in "XYZ":
        g = pauli_rotation(axis, th, 0)
        assert np.allclose(g.matrix, expm(-1j * th / 2 * PAULI[axis]))
        assert g.name == f"r{axis.lower()}"
    assert np.allclose(u1(th, 0).matrix, np.diag([1.0, np.exp(1j * th)]))
    h = hadamard(0).matrix
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def test_layerize_preserves_order_and_unitary(rng):
    for _ in range(20):
        c = random_circuit(4, 20, rng)
        layers = layerize(c)
        flat = Circuit(4, [g for lay in layers for g in lay],
                       global_phase=c.global_phase)
        assert np.max(np.abs(to_unitary(flat) - to_unitary(c))) < 1e-12
        # two gates in one layer that share a wire commute
        for lay in layers:
            for i, g in enumerate(lay):
                for h in lay[i + 1:]:
                    assert gates_commute(g, h)


def test_su4_blocks_reconstruct(rng):
    for _ in range(10):
        c = random_circuit(4, 25, rng)
        items = form_su4_blocks(layerize(c))
        from pgmq.circuit import Su4Block, gate_apply
        u = np.eye(16, dtype=complex)
        for it in items:
            if isinstance(it, Su4Block):
                lo, hi = it.pair
                U4 = it.unitary
                full = Circuit(4, [])
                # embed via a 2-qubit SingleQubit-style application
                k = np.eye(16, dtype=complex)
                k = gate_apply(k, _Embed(U4, (lo, hi)), 4)
                u = k @ u
            else:
                u = gate_apply(u, it, 4)
        u *= c.global_phase
        assert phase_distance(u, to_unitary(c)) < 1e-10


class _Embed:
    def __init__(self, m, qubits):
        self._m = m
        self.qubits = qubits

    def local_unitary(self):
        return self._m


def test_gates_commute_matches_dense(rng):
    for _ in range(50):
        c = random_circuit(3, 2, rng)
        if len(c.gates) < 2:
            continue
        g1, g2 = c.gates[0], c.gates[1]
        u12 = to_unitary(Circuit(3, [g1, g2]))
        u21 = to_unitary(Circuit(3, [g2, g1]))
        if gates_commute(g1, g2):
            assert np.max(np.abs(u12 - u21)) < 1e-10


def _dense_commute_reference(a, b):
    """The dense check on the joint support that once decided every pair."""
    qs = tuple(sorted(set(a.qubits) | set(b.qubits)))
    if set(a.qubits).isdisjoint(b.qubits):
        return True
    k = len(qs)
    pos = {q: i for i, q in enumerate(qs)}
    ua = apply_local(np.eye(2 ** k, dtype=complex), a.local_unitary(),
                     tuple(pos[q] for q in a.qubits), k)
    ub = apply_local(np.eye(2 ** k, dtype=complex), b.local_unitary(),
                     tuple(pos[q] for q in b.qubits), k)
    return bool(np.max(np.abs(ua @ ub - ub @ ua)) < 1e-10)


_EPSILONS = [0.0, 1e-12, 3e-12, 1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8]


def _near_identity(axis, eps, q):
    """A one-qubit gate eps away from the identity: "x" has symmetric
    off-diagonal entries, "y" antisymmetric ones, "z" a u00 - u11 part."""
    c = math.sqrt(1.0 - eps * eps)
    m = {"x": [[c, -1j * eps], [-1j * eps, c]],
         "y": [[c, -eps], [eps, c]],
         "z": [[np.exp(-0.5j * eps), 0], [0, np.exp(0.5j * eps)]]}[axis]
    return SingleQubit(q, np.array(m, dtype=complex))


def test_gates_commute_matches_dense_reference_on_every_kind(rng):
    thetas = [k * math.pi + d for k in range(-2, 3)
              for d in (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8)]
    thetas.append(0.3)
    ones = [_near_identity(axis, sign * eps, q) for axis in "xyz"
            for eps in _EPSILONS for sign in (1, -1) for q in range(2)]
    ones += [SingleQubit(q, PAULI[p]) for p in "XYZ" for q in range(2)]
    ones += [SingleQubit(q, unitary_group.rvs(2, random_state=rng))
             for q in range(2) for _ in range(5)]
    cnots = [cnot(a, b) for a, b in itertools.permutations(range(3), 2)]
    zzs = [ZzRotation(t, a, b) for t in thetas
           for a, b in itertools.permutations(range(3), 2)]
    zzs_01 = [ZzRotation(t, a, b) for t in thetas[7:21] + [0.3]
              for a, b in ((0, 1), (1, 0))]
    few_zzs = [ZzRotation(t, a, b) for t in (0.0, math.pi + 1e-12, 0.3)
               for a, b in itertools.permutations(range(3), 2)]
    others = [GeneralizedCnot("Y", 0, "Z", 1), GeneralizedCnot("Z", 1, "Z", 0)]
    pairs = [(a, b) for a, b in itertools.product(ones, ones[::4])
             if a.qubit == b.qubit]
    pairs += itertools.product(ones, cnots + zzs_01 + others)
    pairs += itertools.product(cnots, cnots + zzs + others)
    pairs += itertools.product(few_zzs, few_zzs + others)
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert gates_commute(x, y) == _dense_commute_reference(x, y), (x, y)


def test_layerize_decides_commutation_in_closed_form(rng, monkeypatch):
    def dense(a, b):
        raise AssertionError(f"dense check reached for {a} and {b}")

    monkeypatch.setattr(circuit, "_dense_commute", dense)
    for _ in range(10):
        layerize(random_circuit(4, 30, rng))


def test_generalized_cnot_local_unitary_table():
    for p in "XYZ":
        for q in "XYZ":
            m = GeneralizedCnot(p, 0, q, 1).local_unitary()
            plus, minus = (I2 + PAULI[p]) / 2, (I2 - PAULI[p]) / 2
            assert np.array_equal(
                m, np.kron(I2, plus) + np.kron(PAULI[q], minus))
            with pytest.raises(ValueError):
                m[0, 0] = 0


def test_measure_rejected_in_unitary():
    # a measurement is never a gate: the circuit refuses one among its gates
    from pgmq.circuit import Measure
    with pytest.raises(CircuitError, match="measures"):
        Circuit(1, [Measure(0, 0)], classical_bits=1)
    with pytest.raises(CircuitError, match="measures"):
        Circuit(1, classical_bits=1).add(Measure(0, 0))
    c = Circuit(1, [pauli_gate("X", 0)], 1, measures=[Measure(0, 0)])
    assert np.array_equal(to_unitary(c), pauli_gate("X", 0).matrix)


@pytest.mark.parametrize("qubit, bit", [(1, 0), (-1, 0), (0, 1), (0, -1)])
def test_measures_range_checked(qubit, bit):
    from pgmq.circuit import Measure
    with pytest.raises(CircuitError, match="out of range"):
        Circuit(1, [], 1, measures=[Measure(qubit, bit)])


@pytest.mark.parametrize("shape", [(8, 8), (16, 5)])
def test_phase_distance_matches_trace_form(rng, shape):
    # the fitted phase is that of trace(a^dag b), read without the product
    for _ in range(20):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = a * np.exp(1j * rng.uniform(-3, 3)) + 1e-3 * rng.normal(size=shape)
        tr = np.trace(a.conj().T @ b)
        want = float(np.max(np.abs(a * tr / abs(tr) - b)))
        assert abs(phase_distance(a, b) - want) < 1e-12


def test_oracle_cap():
    with pytest.raises(CircuitError):
        to_unitary(Circuit(13, []))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2),
       st.floats(-6, 6, allow_nan=False))
def test_pauli_gate_involution(q, p, th):
    g = pauli_gate("XYZ"[p], q)
    assert np.allclose(g.matrix @ g.matrix, np.eye(2))
