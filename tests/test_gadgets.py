import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgmq.circuit import Circuit, GeneralizedCnot, cnot, to_unitary
from pgmq.cost import _interface_live
from pgmq.gadgets import (ALPHA_EPS, GadgetSequence, MultiQubitGate,
                          PauliFrame, PhaseGadget, _I_POW, _anticommutes,
                          _product_power, commute_cnot, decompose_pg,
                          fanout_to_mq, merge_interface, normalized_alpha,
                          pg_commutes, simplify, support_of)
from conftest import sequence_unitary


def gadget_unitary(n, g):
    return to_unitary(Circuit(n, [g]))


def test_phase_gadget_definition():
    from scipy.linalg import expm
    z = np.diag([1.0, -1.0])
    zz = np.kron(z, z)
    alpha = 0.37
    u = gadget_unitary(2, PhaseGadget("Z", alpha, (0, 1)))
    assert np.max(np.abs(u - expm(1j * alpha * math.pi / 2 * zz))) < 1e-12


def test_alpha_period_normalization():
    g = PhaseGadget("X", 4.3, (0,))
    assert g.alpha == pytest.approx(0.3)
    g = PhaseGadget("X", -2.0, (0,))
    assert g.alpha == pytest.approx(2.0)


def test_support_is_checked_and_masked():
    from pgmq.circuit import CircuitError
    g = PhaseGadget("Y", 0.3, (np.int64(5), 0, 2))
    assert g.support == (0, 2, 5) and g.mask == 0b100101
    assert all(type(q) is int for q in g.support)
    for bad in ((), (1, 1), (-1, 2)):
        with pytest.raises(CircuitError):
            PhaseGadget("Z", 0.3, bad)


def _string_unitary(n, x, z):
    """Dense P(x, z) on n qubits, one Hermitian letter per qubit."""
    frame = PauliFrame(x, z)
    assert len(frame.gates()) == (x | z).bit_count()
    return to_unitary(Circuit(n, frame.gates()))


def test_product_power_dense(rng):
    # all 16 one-qubit pairs, then random strings on up to 4 qubits:
    # P(x1, z1) P(x2, z2) = i^k P(x1 ^ x2, z1 ^ z2)
    cases = [(1, a & 1, a >> 1, b & 1, b >> 1)
             for a, b in itertools.product(range(4), repeat=2)]
    for _ in range(200):
        n = int(rng.integers(1, 5))
        cases.append((n, *(int(v) for v in rng.integers(0, 2 ** n, 4))))
    for n, x1, z1, x2, z2 in cases:
        k = _product_power(x1, z1, x2, z2)
        assert 0 <= k < 4
        got = 1j ** k * _string_unitary(n, x1 ^ x2, z1 ^ z2)
        want = _string_unitary(n, x1, z1) @ _string_unitary(n, x2, z2)
        assert np.max(np.abs(got - want)) < 1e-12


def test_frame_letters_round_trip():
    letters = {0: "X", 2: "Y", 5: "Z"}
    frame = PauliFrame.from_letters(letters)
    assert (frame.x, frame.z) == (0b101, 0b100100)
    assert frame.paulis == sorted(letters.items())


def test_decompose_pg_matches_gadget(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, n + 1))
        support = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        axis = str(rng.choice(list("XYZ")))
        alpha = float(rng.uniform(-2, 2))
        g = PhaseGadget(axis, alpha, support)
        jstar = support[int(rng.integers(k))]
        c = decompose_pg(g, jstar, num_qubits=n)
        assert np.max(np.abs(to_unitary(c) - gadget_unitary(n, g))) < 1e-10


def test_decompose_pg_ancilla_logical_action(rng):
    for _ in range(50):
        n = int(rng.integers(2, 4))
        support = tuple(range(n))
        axis = str(rng.choice(list("XYZ")))
        g = PhaseGadget(axis, float(rng.uniform(-2, 2)), support)
        c = decompose_pg(g, n, num_qubits=n + 1)
        u = to_unitary(c)
        dim = 2 ** n
        # ancilla starts and ends in |0>
        block = u[:dim, :dim]
        assert np.max(np.abs(block - gadget_unitary(n, g))) < 1e-10
        assert np.max(np.abs(u[dim:, :dim])) < 1e-10


def test_fanout_to_mq(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        target = int(rng.integers(n))
        controls = [q for q in range(n) if q != target]
        rng.shuffle(controls)
        k = int(rng.integers(1, len(controls) + 1))
        taxis = str(rng.choice(list("XYZ")))
        fan = [GeneralizedCnot(str(rng.choice(list("XYZ"))), q, taxis, target)
               for q in controls[:k]]
        mq, frame = fanout_to_mq(fan)
        want = to_unitary(Circuit(n, fan))
        got = frame.phase * _frame_sandwich(n, frame, mq)
        assert np.max(np.abs(got - want)) < 1e-10
        # star-shaped pi/4 pair phases: Clifford
        for v in mq.pairs.values():
            assert abs(abs(v) - math.pi / 4) < 1e-12


def _frame_sandwich(n, frame, mq):
    c = Circuit(n, [])
    for g in frame.right_gates():
        c.add(g)
    if mq.pairs:
        c.add(mq)
    for g in frame.left_gates():
        c.add(g)
    return to_unitary(c)


def test_merge_interface(rng):
    for _ in range(60):
        n = int(rng.integers(2, 5))
        a = n  # ancilla index
        j = set(int(q) for q in
                rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        k = set(int(q) for q in
                rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        ax1, ax2 = (str(x) for x in rng.choice(list("XYZ"), size=2))
        fan = [GeneralizedCnot(ax1, q, "Y", a) for q in sorted(j)] + \
              [GeneralizedCnot(ax2, q, "Y", a) for q in sorted(k)]
        want = to_unitary(Circuit(n + 1, fan))
        mq, frame = merge_interface(j, k, a, ax1, ax2)
        got = frame.phase * _frame_sandwich(n + 1, frame, mq)
        assert np.max(np.abs(got - want)) < 1e-10


def test_merge_interface_pair_order():
    # the gate's pairs follow the controls' first appearance (3 before 1),
    # which fixes the order its phases are summed in; a qubit whose net
    # Pauli cancels (3 under one axis twice) is no pair
    for ax1, ax2, want in (("X", "Z", [(3, 4), (1, 4)]),
                           ("Z", "Z", [(1, 4)])):
        mq, frame = merge_interface({3}, {1, 3}, 4, ax1, ax2)
        assert list(mq.pairs) == want
        fan = [GeneralizedCnot(ax1, 3, "Y", 4), GeneralizedCnot(ax2, 1, "Y", 4),
               GeneralizedCnot(ax2, 3, "Y", 4)]
        got = frame.phase * _frame_sandwich(5, frame, mq)
        assert np.max(np.abs(got - to_unitary(Circuit(5, fan)))) < 1e-10


def test_mq_local_unitary_matches_basis_loop(rng):
    # reference: the diagonal built one basis state and one pair at a time;
    # the phases add in the same pair order, so the results are equal bits
    for _ in range(100):
        k = int(rng.integers(2, 8))
        qs = sorted(int(q) for q in rng.choice(12, size=k, replace=False))
        gate = MultiQubitGate({(a, b): float(rng.normal())
                               for a, b in itertools.combinations(qs, 2)
                               if rng.random() < 0.6} or {(qs[0], qs[1]): 0.5})
        pos = {q: i for i, q in enumerate(gate.support)}
        diag = np.zeros(2 ** len(pos))
        for (a, b), th in gate.pairs.items():
            for x in range(diag.size):
                sa = 1 - 2 * ((x >> pos[a]) & 1)
                sb = 1 - 2 * ((x >> pos[b]) & 1)
                diag[x] += th * sa * sb
        assert np.array_equal(gate.local_unitary(), np.diag(np.exp(1j * diag)))


def test_commute_cnot_all_six_cases():
    # canonical CNOT(0,1) vs Z/X gadget with control/target membership varied
    n = 3
    c = cnot(0, 1)
    cu = to_unitary(Circuit(n, [c]))
    cases = [PhaseGadget("Z", 0.41, (0, 1)),  # both in support
             PhaseGadget("Z", 0.41, (1, 2)),  # target only
             PhaseGadget("Z", 0.41, (0, 2)),  # control only (unchanged)
             PhaseGadget("X", 0.41, (0, 1)),
             PhaseGadget("X", 0.41, (0, 2)),
             PhaseGadget("X", 0.41, (1, 2))]
    for g in cases:
        gp = commute_cnot(c, g)
        lhs = cu @ to_unitary(Circuit(n, [g]))
        rhs = to_unitary(Circuit(n, [gp])) @ cu
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_commute_cnot_rejects_y_gadget():
    from pgmq.circuit import CircuitError
    with pytest.raises(CircuitError):
        commute_cnot(cnot(0, 1), PhaseGadget("Y", 0.3, (0, 1)))


def test_commute_cnot_untouched_passthrough():
    # CNOT(0, 1) changes Z gadgets holding its target and X gadgets holding
    # its control; any other gadget comes back as the very same object
    c = cnot(0, 1)
    for g in (PhaseGadget("Z", 0.3, (2, 3)),
              PhaseGadget("X", 0.3, (2, 3)),
              PhaseGadget("Z", 0.3, (0, 2)),    # Z gadget on the control
              PhaseGadget("X", 0.3, (1, 2))):   # X gadget on the target
        gp = commute_cnot(c, g)
        assert gp is g
        assert (gp.axis, gp.alpha, gp.support) == (g.axis, 0.3, g.support)
    # a changed gadget is a new object; its input is left as it was
    for g, want in ((PhaseGadget("Z", 0.3, (1, 2)), (0, 1, 2)),
                    (PhaseGadget("X", 0.3, (0, 1)), (0,))):
        before = g.support
        gp = commute_cnot(c, g)
        assert gp is not g and gp.support == want
        assert (g.alpha, g.support) == (0.3, before)


def test_pg_commutes_matches_dense(rng):
    for _ in range(80):
        n = 4
        k1 = int(rng.integers(1, n + 1))
        k2 = int(rng.integers(1, n + 1))
        g1 = PhaseGadget(str(rng.choice(list("XYZ"))), 0.3,
                         tuple(int(q) for q in rng.choice(n, k1, replace=False)))
        g2 = PhaseGadget(str(rng.choice(list("XYZ"))), 0.7,
                         tuple(int(q) for q in rng.choice(n, k2, replace=False)))
        u1g = to_unitary(Circuit(n, [g1]))
        u2g = to_unitary(Circuit(n, [g2]))
        dense = np.max(np.abs(u1g @ u2g - u2g @ u1g)) < 1e-10
        assert pg_commutes(g1, g2) == dense


# The set-based definitions the bitmask forms replaced.

def set_commutes(g1, g2) -> bool:
    if g1.axis == g2.axis:
        return True
    return len(set(g1.support) & set(g2.support)) % 2 == 0


def set_interface_live(g, h) -> int:
    if g.axis == h.axis:
        return len(set(g.support) ^ set(h.support))
    return len(set(g.support) | set(h.support))


def set_parity(g, string: dict) -> int:
    return sum(1 for q in g.support
               if string.get(q, "I") not in ("I", g.axis)) % 2


def set_commute_cnot(c, t, g) -> tuple:
    pivot, toggled = (t, c) if g.axis == "Z" else (c, t)
    if pivot not in g.support:
        return g.support
    return tuple(sorted(set(g.support) ^ {toggled}))


def test_mask_forms_match_set_definitions(rng):
    # seeded random gadgets of all three axes on up to 16 qubits, and
    # random Pauli strings over the same register
    for _ in range(400):
        n = int(rng.integers(1, 17))

        def gadget():
            k = int(rng.integers(1, n + 1))
            return PhaseGadget(str(rng.choice(list("XYZ"))), 0.3,
                               tuple(int(q) for q in
                                     rng.choice(n, k, replace=False)))

        g, h = gadget(), gadget()
        assert g.mask == sum(1 << q for q in g.support)
        assert support_of(g.mask) == g.support
        assert pg_commutes(g, h) == set_commutes(g, h)
        assert _interface_live(g, h) == set_interface_live(g, h)
        string = {int(q): str(rng.choice(list("XYZ")))
                  for q in rng.choice(n, int(rng.integers(0, n + 1)),
                                      replace=False)}
        frame = PauliFrame.from_letters(string)
        assert _anticommutes(g, frame.x, frame.z) == set_parity(g, string)
        if n > 1 and g.axis != "Y":
            c, t = (int(q) for q in rng.choice(n, 2, replace=False))
            moved = commute_cnot(cnot(c, t), g)
            assert moved.support == set_commute_cnot(c, t, g)
            assert moved.mask == sum(1 << q for q in moved.support)


def test_simplify_preserves_unitary_and_merges(rng):
    for _ in range(50):
        n = 3
        gads = []
        for _ in range(int(rng.integers(1, 10))):
            k = int(rng.integers(1, n + 1))
            gads.append(PhaseGadget(
                str(rng.choice(list("XYZ"))), float(rng.uniform(-2, 2)),
                tuple(int(q) for q in rng.choice(n, k, replace=False))))
        seq = GadgetSequence(n, gads)
        simp = simplify(seq)
        assert np.max(np.abs(sequence_unitary(simp) -
                             sequence_unitary(seq))) < 1e-10
        for g in simp.gadgets:
            assert -0.5 <= g.alpha < 0.5
            assert abs(g.alpha) > 1e-12


def test_simplify_cancels_inverse_pair():
    seq = GadgetSequence(2, [PhaseGadget("Z", 0.4, (0, 1)),
                             PhaseGadget("Z", -0.4, (0, 1))])
    assert simplify(seq).gadgets == []


def _push_string_to_frame(seq: GadgetSequence, start: int, xs: int, zs: int,
                          scalar: complex) -> None:
    """Move the Pauli string P(xs, zs) from just after gadget `start` through
    the rest of the sequence into the trailing frame, flipping angles it
    anticommutes with; edits `seq` in place."""
    for g in seq.gadgets[start + 1:]:
        if _anticommutes(g, xs, zs):
            g.alpha = normalized_alpha(-g.alpha)
    frame = seq.frame
    scalar *= _I_POW[_product_power(frame.x, frame.z, xs, zs)]
    seq.frame = PauliFrame(frame.x ^ xs, frame.z ^ zs)
    seq.phase *= scalar


def _nested_loop_simplify(seq: GadgetSequence) -> GadgetSequence:
    """`simplify` as it was before its one-sweep merge and its running
    string: for each gadget, pull every later equal one back across
    everything between them that it commutes with; then, for each shifted
    angle, push its Pauli string through every later gadget
    (`_push_string_to_frame`).  Step (d) is `simplify`'s.  Edits a deep
    copy of `seq` in place."""
    out = GadgetSequence(
        seq.num_qubits,
        [PhaseGadget(g.axis, g.alpha, g.support) for g in seq.gadgets],
        PauliFrame(seq.frame.x, seq.frame.z), seq.phase)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(out.gadgets):
            gi = out.gadgets[i]
            j = i + 1
            while j < len(out.gadgets):
                gj = out.gadgets[j]
                if (gj.axis == gi.axis and gj.support == gi.support
                        and all(pg_commutes(out.gadgets[k], gj)
                                for k in range(i + 1, j))):
                    gi.alpha = gi.alpha + gj.alpha
                    gi.__post_init__()
                    del out.gadgets[j]
                    changed = True
                    continue
                j += 1
            i += 1
        for idx, g in enumerate(out.gadgets):
            shift = math.floor(g.alpha + 0.5)
            if shift != 0:
                g.alpha -= shift
                string = PauliFrame.from_letters(
                    {q: g.axis for q in g.support} if shift % 2 else {})
                _push_string_to_frame(out, idx, string.x, string.z,
                                      1j ** (shift % 4))
                changed = True
        kept = [g for g in out.gadgets if abs(g.alpha) > ALPHA_EPS]
        if len(kept) != len(out.gadgets):
            out.gadgets = kept
            changed = True
    return out


def test_simplify_matches_nested_loop_merge(rng):
    # few (axis, support) keys, so most gadgets have equal ones to merge
    # with across commuting and anticommuting gadgets in between
    n = 4
    for _ in range(300):
        keys = [(str(rng.choice(list("XYZ"))),
                 tuple(int(q) for q in rng.choice(
                     n, int(rng.integers(1, n + 1)), replace=False)))
                for _ in range(int(rng.integers(1, 6)))]
        gads = []
        for _ in range(int(rng.integers(1, 25))):
            axis, support = keys[int(rng.integers(len(keys)))]
            alpha = (float(rng.uniform(-2, 2)) if rng.random() < 0.5
                     else 0.25 * int(rng.integers(-8, 9)))
            gads.append(PhaseGadget(axis, alpha, support))
        seq = GadgetSequence(n, gads, PauliFrame.from_letters({0: "Y"}), 1j)
        got, want = simplify(seq), _nested_loop_simplify(seq)
        assert [(g.axis, g.support, g.alpha.hex()) for g in got.gadgets] \
            == [(g.axis, g.support, g.alpha.hex()) for g in want.gadgets]
        assert got.frame.paulis == want.frame.paulis
        assert got.phase == want.phase



def test_simplify_matches_old_walk_up_to_16_qubits(rng):
    # many gadgets over up to 16 qubits, most angles shifted: every shift
    # that pushes a string flips the later gadgets it anticommutes with
    for _ in range(120):
        n = int(rng.integers(1, 17))
        gads = []
        for _ in range(int(rng.integers(1, 60))):
            k = int(rng.integers(1, min(n, 5) + 1))
            alpha = (float(rng.uniform(-2, 2)) if rng.random() < 0.6
                     else 0.5 * int(rng.integers(-4, 5)))
            gads.append(PhaseGadget(
                str(rng.choice(list("XYZ"))), alpha,
                tuple(int(q) for q in rng.choice(n, k, replace=False))))
        frame = {int(q): str(rng.choice(list("XYZ")))
                 for q in rng.choice(n, int(rng.integers(0, n + 1)),
                                     replace=False)}
        seq = GadgetSequence(n, gads, PauliFrame.from_letters(frame),
                             complex(np.exp(1j * rng.uniform(-3, 3))))
        got, want = simplify(seq), _nested_loop_simplify(seq)
        assert [(g.axis, g.support, g.alpha.hex()) for g in got.gadgets] \
            == [(g.axis, g.support, g.alpha.hex()) for g in want.gadgets]
        assert got.frame.paulis == want.frame.paulis
        phase, ref = complex(got.phase), complex(want.phase)
        assert (phase.real.hex(), phase.imag.hex()) == \
            (ref.real.hex(), ref.imag.hex())

def test_frame_cnot_conjugation_signs(rng):
    # A P A^dag for random frames and CNOT words, dense-checked
    n = 3
    for _ in range(60):
        paulis = {}
        for q in range(n):
            p = str(rng.choice(list("IXYZ")))
            if p != "I":
                paulis[q] = p
        word = [tuple(int(x) for x in rng.choice(n, 2, replace=False))
                for _ in range(int(rng.integers(1, 4)))]
        frame = PauliFrame.from_letters(paulis)
        moved, coeff = frame.conjugate_by_cnot_word(word)
        assert frame.paulis == sorted(paulis.items())
        a = to_unitary(Circuit(n, [cnot(c, t) for c, t in word]))
        p_in = to_unitary(Circuit(n, frame.gates()))
        p_out = coeff * to_unitary(Circuit(n, moved.gates()))
        assert np.max(np.abs(a @ p_in @ a.conj().T - p_out)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(-10, 10, allow_nan=False, allow_infinity=False))
def test_alpha_always_in_period(alpha):
    g = PhaseGadget("Z", alpha, (0,))
    assert -2.0 < g.alpha <= 2.0
