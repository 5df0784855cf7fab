import math

import numpy as np
import pytest

from pgmq.circuit import (I2, Barrier, Circuit, CircuitError, GeneralizedCnot,
                          Measure, SingleQubit, Su4Block, ZzRotation,
                          _sharing_commute, apply_local, cnot,
                          form_su4_blocks, hadamard, layerize, to_unitary, u1)
from pgmq.cost import AUTO, NO_ANCILLA, ANCILLA_MERGED, sequence_cost
from pgmq.gadgets import (GadgetSequence, PauliFrame, PhaseGadget,
                          commute_cnot, simplify)
from pgmq.passes import (CompileOptions, _greedy_matching,
                         conjugate_sequence,
                         conjugation_cost_matrix, norm_reduction_step,
                         optimize, pg_left, pg_right, sequence_adjoint,
                         _gadget_angles)
from pgmq.serialize import _row_bits
from pgmq.qasm import parse_qasm_file, to_zz_basis
from pgmq.su4 import minimize_block_phase
from conftest import (exact_matching, random_circuit, reference_norm,
                      sequence_unitary)
from test_fingerprints import ROOT, _random_pool


def zz_circuit(n, depth, rng):
    return to_zz_basis(random_circuit(n, depth, rng))


def layer_unitary(word, n):
    """Dense unitary of a CNOT word, (control, target) pairs in time order."""
    return to_unitary(Circuit(n, [cnot(c, t) for c, t in word]))


# --- CNOT layers -----------------------------------------------------------

def test_cnot_layer_replay_and_invertibility(rng):
    for _ in range(30):
        n = 4
        word = [tuple(int(q) for q in rng.choice(n, size=2, replace=False))
                for _ in range(int(rng.integers(0, 10)))]
        # the serialized GF(2) rows are the basis permutation |x> -> |Ax>
        rows = _row_bits(word, n)
        perm = np.zeros((2 ** n, 2 ** n))
        for x in range(2 ** n):
            y = sum((bin(r & x).count("1") % 2) << i for i, r in enumerate(rows))
            perm[y, x] = 1
        u = layer_unitary(word, n)
        assert np.max(np.abs(u - perm)) < 1e-12
        # the reversed word is the inverse layer
        v = layer_unitary(word[::-1], n)
        assert np.max(np.abs(u @ v - np.eye(2 ** n))) < 1e-12


# --- gadget extraction -----------------------------------------------------

def test_pg_left_factors_exactly(rng):
    for _ in range(25):
        c = zz_circuit(int(rng.integers(2, 5)), int(rng.integers(1, 25)), rng)
        seq, word = pg_left(c)
        got = sequence_unitary(seq) @ layer_unitary(word, c.num_qubits)
        assert np.max(np.abs(got - to_unitary(c))) < 1e-9


def test_pg_right_factors_exactly(rng):
    for _ in range(25):
        c = zz_circuit(int(rng.integers(2, 5)), int(rng.integers(1, 25)), rng)
        word, seq = pg_right(c)
        got = layer_unitary(word, c.num_qubits) @ sequence_unitary(seq)
        assert np.max(np.abs(got - to_unitary(c))) < 1e-9


def test_pg_left_rejects_measure():
    # no measurement reaches pg_left among the gates: the circuit refuses it
    with pytest.raises(CircuitError, match="measures"):
        pg_left(Circuit(1, [Measure(0, 0)], classical_bits=1))


def test_pg_left_rejects_noncanonical_cnot():
    c = Circuit(2, [GeneralizedCnot("X", 0, "Z", 1)])
    with pytest.raises(CircuitError):
        pg_left(c)


def test_pg_right_skips_barriers_and_rejects_measure():
    c = Circuit(2, [ZzRotation(0.3, 0, 1), Barrier((0, 1)), cnot(0, 1)])
    word, seq = pg_right(c)
    got = layer_unitary(word, 2) @ sequence_unitary(seq)
    assert np.max(np.abs(got - to_unitary(c))) < 1e-12
    with pytest.raises(CircuitError):
        pg_right(Circuit(1, [Measure(0, 0)], classical_bits=1))


def test_sequence_adjoint_dense(rng):
    for _ in range(25):
        c = zz_circuit(3, int(rng.integers(1, 20)), rng)
        seq, _ = pg_left(c)
        adj = sequence_adjoint(seq)
        u = sequence_unitary(seq)
        assert np.max(np.abs(sequence_unitary(adj) - u.conj().T)) < 1e-9


def test_pg_left_counts_commutation_events(rng):
    c = Circuit(3, [ZzRotation(0.3, 0, 1), cnot(0, 2), cnot(1, 2)])
    counter = {}
    pg_left(c, counter)
    # first CNOT crosses one gadget, second crosses one gadget
    assert counter["events"] == 2


# --- extraction against the per-CNOT reference walk ------------------------

def reference_pull_cnots(circuit, dagger, counter):
    """Extraction as one walk in time order that moves each CNOT across
    every gadget gathered before it (`commute_cnot`), counting one event per
    crossing: the reference for `passes._pull_cnots`, which maps each gadget
    once."""
    phase = circuit.global_phase
    seq = GadgetSequence(circuit.num_qubits, [],
                         phase=np.conj(phase) if dagger else phase)
    word = []
    for g in reversed(circuit.gates) if dagger else circuit.gates:
        if isinstance(g, Barrier):
            continue
        if isinstance(g, SingleQubit):
            angles, ph = _gadget_angles(g.matrix.tobytes(), dagger)
            seq.gadgets.extend(PhaseGadget(axis, alpha, (g.qubit,))
                               for axis, alpha in angles)
            seq.phase *= ph
        elif isinstance(g, ZzRotation):
            theta = -g.theta if dagger else g.theta
            seq.gadgets.append(
                PhaseGadget("Z", 2 * theta / math.pi, (g.qubit_a, g.qubit_b)))
        else:
            for i in range(len(seq.gadgets) - 1, -1, -1):
                seq.gadgets[i] = commute_cnot(g, seq.gadgets[i])
                counter["events"] = counter.get("events", 0) + 1
            word.append((g.control, g.target))
    return simplify(seq), word


def extraction_bits(seq, word):
    """Everything an extraction returns, with every double as its bits."""
    phase = complex(seq.phase)
    return ([(g.axis, g.alpha.hex(), g.support) for g in seq.gadgets],
            seq.frame.paulis,
            (phase.real.hex(), phase.imag.hex()), list(word))


def _zz(theta, a, b):
    return [cnot(a, b), u1(theta, b), cnot(a, b)]


def qft_circuit(n):
    """QFT with each controlled phase as two CNOTs and three u1, and the
    closing qubit reversal as three CNOTs per swap."""
    gates = []
    for j in range(n):
        gates.append(hadamard(j))
        for k in range(j + 1, n):
            lam = math.pi / 2 ** (k - j)
            gates += [u1(lam / 2, k), cnot(k, j), u1(-lam / 2, j),
                      cnot(k, j), u1(lam / 2, j)]
    for a in range(n // 2):
        b = n - 1 - a
        gates += [cnot(a, b), cnot(b, a), cnot(a, b)]
    return Circuit(n, gates)


def xx_zz_chain(n, steps, dt=0.1):
    """Trotter steps of an open XX+ZZ chain, each ZZ term as CNOT, u1, CNOT
    and each XX term as that between Hadamards."""
    gates = []
    for _ in range(steps):
        for q in range(n - 1):
            gates += _zz(dt, q, q + 1)
        for q in range(n - 1):
            gates += [hadamard(q), hadamard(q + 1), *_zz(dt, q, q + 1),
                      hadamard(q), hadamard(q + 1)]
    return Circuit(n, gates)


def test_extraction_matches_per_cnot_reference_walk(rng):
    from pgmq.passes import _block_pass
    circuits = [to_zz_basis(qft_circuit(n)) for n in range(2, 17)]
    circuits += [xx_zz_chain(n, 1 + n % 3) for n in range(2, 17)]
    for i in range(180):
        n = int(rng.integers(2, 17))
        c = zz_circuit(n, int(rng.integers(1, 4 * n + 8)), rng)
        circuits.append(_block_pass(c) if i % 4 == 0 and n <= 6 else c)
    crossed = 0
    for c in circuits:
        counter, ref_counter = {}, {}
        seq, word = pg_left(c, counter)
        ref_seq, ref_word = reference_pull_cnots(c, False, ref_counter)
        assert extraction_bits(seq, word) == extraction_bits(ref_seq,
                                                             ref_word)
        word, seq = pg_right(c, counter)
        ref_seq, ref_word = reference_pull_cnots(c, True, ref_counter)
        assert extraction_bits(seq, word) == extraction_bits(
            sequence_adjoint(ref_seq), ref_word[::-1])
        assert counter.get("events", 0) == ref_counter.get("events", 0)
        crossed += counter.get("events", 0)
    assert len(circuits) >= 200 and crossed > 0


# --- the stacked block pass against the per-block loop ---------------------

def reference_layerize(circuit):
    """`layerize` as a scan of every gate of each layer whose wires meet the
    new gate's: the reference for the scan of only the gates on its wires."""
    layers, supports = [], []
    for g in circuit.gates:
        blocked = -1
        for idx in range(len(layers) - 1, -1, -1):
            if supports[idx].isdisjoint(g.qubits):
                continue
            met = [o for o in layers[idx]
                   if not set(g.qubits).isdisjoint(o.qubits)]
            if any(not _sharing_commute(g, other) for other in met):
                blocked = idx
                break
        if blocked + 1 == len(layers):
            layers.append([])
            supports.append(set())
        layers[blocked + 1].append(g)
        supports[blocked + 1].update(g.qubits)
    return layers


def reference_absorb(block, gate):
    """`Su4Block.absorb` as the dense local product of `apply_local`: the
    reference for the absorbs by gate kind."""
    pos = tuple(block.pair.index(q) for q in gate.qubits)
    block.unitary = apply_local(block.unitary, gate.local_unitary(), pos, 2)


def reference_block_pass(circuit, items):
    """The block pass over `form_su4_blocks`' items as a loop over the
    blocks, each decomposed alone (a stack of one) and each emitted "loc"
    gate checked as it is built: the reference for `passes._block_pass`,
    which decomposes all of a circuit's blocks in one stacked call and
    checks all emitted factors in one stacked test."""
    out = Circuit(circuit.num_qubits, [], global_phase=circuit.global_phase)
    for it in items:
        if isinstance(it, Su4Block):
            blk = minimize_block_phase([it])[0]
            out.global_phase *= blk.phase
            for g in blk.to_gates():
                if isinstance(g, SingleQubit):
                    g = SingleQubit(g.qubit, g.matrix, g.name)
                out.add(g)
        else:
            out.add(it)
    return out


def circuit_bits(c):
    """Every gate's kind, qubits and doubles as bits, and the phase's bits."""
    def bits(g):
        if isinstance(g, SingleQubit):
            return g.matrix.tobytes()
        if isinstance(g, ZzRotation):
            return g.theta.hex()
        return (g.control, g.target, g.control_axis, g.target_axis)
    phase = complex(c.global_phase)
    return ([(type(g).__name__, g.qubits, bits(g)) for g in c.gates],
            phase.real.hex(), phase.imag.hex())


def item_bits(items):
    """Each block's pair and matrix bytes, each loose gate's identity."""
    return [it.pair + (it.unitary.tobytes(),) if isinstance(it, Su4Block)
            else id(it) for it in items]


def test_block_pass_matches_per_block_loop(monkeypatch):
    # each stage against its reference, bit for bit: the layers as gate
    # identities, every block matrix as bytes, the flattened circuit
    from pgmq.passes import _block_pass, _strip_measures
    circuits = [parse_qasm_file(f)
                for f in sorted((ROOT / "benchmarks").glob("*.qasm"))]
    assert len(circuits) >= 10
    circuits += list(_random_pool().values())
    rng = np.random.default_rng(20260826)  # acceptance test 1's circuits
    for _ in range(200):
        n = int(rng.integers(2, 9))
        circuits.append(random_circuit(n, int(rng.integers(5, 61)), rng))
    repeated = 0
    for c in circuits:
        raw = to_zz_basis(_strip_measures(c)[0])
        layers = layerize(raw)
        assert [list(map(id, lay)) for lay in layers] == \
            [list(map(id, lay)) for lay in reference_layerize(raw)]
        items = form_su4_blocks(layers)
        with monkeypatch.context() as m:
            m.setattr(Su4Block, "absorb", reference_absorb)
            want = form_su4_blocks(layers)
        assert item_bits(items) == item_bits(want)
        assert circuit_bits(_block_pass(raw)) == \
            circuit_bits(reference_block_pass(raw, want))
        blocks = [it.unitary.tobytes() for it in items
                  if isinstance(it, Su4Block)]
        repeated += len(blocks) - len(set(blocks))
    assert repeated > 0


def test_block_pass_checks_every_emitted_local(monkeypatch):
    # the "loc" gates are built unchecked; one stacked test over every
    # factor the blocks emit keeps the 1e-12 unitarity bound
    from pgmq import passes
    real = passes.minimize_block_phase

    def scaled_by(eps):
        # a Hadamard on the high wire of the last block, 2 eps off unitary
        bad = hadamard(0).matrix * (1.0 + eps)

        def minimize(blocks):
            out = real(blocks)
            out[-1].elements.append(("loc", I2, bad))
            return out
        return bad, minimize

    c = Circuit(3, [hadamard(2), cnot(0, 1), ZzRotation(0.3, 1, 2),
                    cnot(1, 2)])
    bad, minimize = scaled_by(1e-14)
    monkeypatch.setattr(passes, "minimize_block_phase", minimize)
    assert passes._block_pass(c).gates[-1].matrix is bad
    monkeypatch.setattr(passes, "minimize_block_phase", scaled_by(1e-11)[1])
    with pytest.raises(CircuitError, match="not unitary to 1e-12"):
        passes._block_pass(c)


# --- conjugation and norm reduction ----------------------------------------

def test_conjugate_sequence_dense(rng):
    for _ in range(30):
        n = 4
        c = zz_circuit(n, int(rng.integers(1, 20)), rng)
        seq, _ = pg_left(c)
        a, b = rng.choice(n, size=2, replace=False)
        conj = conjugate_sequence(seq, int(a), int(b))
        cu = to_unitary(Circuit(n, [cnot(int(a), int(b))]))
        want = cu @ sequence_unitary(seq) @ cu
        assert np.max(np.abs(sequence_unitary(conj) - want)) < 1e-9


def mixed_sequences(rng):
    """Gadget sequences holding X and Z gadgets on 2 to 6 qubits: pg_left of
    random circuits, and one sequence on which most CNOT pairs change no
    gadget (CNOT(a, b) changes Z gadgets holding b and X gadgets holding a)."""
    seqs = [pg_left(zz_circuit(n, int(rng.integers(4, 24)), rng))[0]
            for n in range(2, 7) for _ in range(3)]
    seqs.append(GadgetSequence(6, [PhaseGadget("Z", 0.3, (0, 1)),
                                   PhaseGadget("X", 0.2, (1, 2, 3)),
                                   PhaseGadget("Z", -0.4, (1, 4)),
                                   PhaseGadget("Z", 0.25, (0, 1, 4))]))
    return seqs


def test_conjugation_cost_matrix_matches_bruteforce(rng):
    skipped = 0
    seqs = mixed_sequences(rng)
    assert any(g.axis == "X" and len(g.support) > 1
               for seq in seqs for g in seq.gadgets)
    for seq in seqs:
        n = seq.num_qubits
        for scheme in (NO_ANCILLA, ANCILLA_MERGED, AUTO):
            cm = conjugation_cost_matrix(seq, scheme)
            cur = sequence_cost(seq, scheme).total_norm
            for a in range(n):
                for b in range(n):
                    if a == b:
                        assert cm[a, b] == cur
                        continue
                    conj = conjugate_sequence(seq, a, b)
                    want = sequence_cost(conj, scheme).total_norm
                    assert cm[a, b] == want
                    skipped += all(h is g for h, g in
                                   zip(conj.gadgets, seq.gadgets))
    # pairs the matrix does not re-plan are covered too
    assert skipped > 0


def whole_sequence_matrix(seq, scheme):
    """The cost matrix computed the long way: each pair whose CNOT changes
    some gadget costs `commute_cnot` of every gadget with `sequence_cost`,
    and every other entry keeps the current norm."""
    n = seq.num_qubits
    cur = float(sequence_cost(seq, scheme).total_norm)
    out = np.full((n, n), cur, dtype=float)
    z_held = {q for g in seq.gadgets if g.axis == "Z" for q in g.support}
    x_held = {q for g in seq.gadgets if g.axis == "X" for q in g.support}
    for a in range(n):
        for b in range(n):
            if a != b and (b in z_held or a in x_held):
                c = cnot(a, b)
                gadgets = [commute_cnot(c, g) for g in seq.gadgets]
                out[a, b] = sequence_cost(GadgetSequence(n, gadgets),
                                          scheme).total_norm
    return out


def matrix_reference_circuits():
    """The corpus, the benchmark's random pool, and 30 circuits drawn as
    acceptance test 1 draws them."""
    circuits = [parse_qasm_file(str(p))
                for p in sorted((ROOT / "benchmarks").glob("*.qasm"))]
    circuits += _random_pool().values()
    rng = np.random.default_rng(20261019)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        depth = int(rng.integers(5, 61))
        circuits.append(random_circuit(n, depth, rng))
    return circuits


@pytest.mark.parametrize("scheme", [NO_ANCILLA, ANCILLA_MERGED, AUTO])
def test_cost_matrix_equals_whole_sequence_reference(scheme, monkeypatch):
    # every matrix optimize asks for: the batch fills the norm table first,
    # and the reference's sequence_cost calls then read the norms it
    # filled; each table entry is checked against a norm computed here
    import pgmq.cost
    import pgmq.passes
    real = pgmq.passes.conjugation_cost_matrix
    table, calls = {}, 0

    def checked(seq, scheme_):
        nonlocal calls
        got = real(seq, scheme_)
        want = whole_sequence_matrix(seq, scheme_)
        assert got.tobytes() == want.tobytes()
        calls += 1
        return got

    monkeypatch.setattr(pgmq.cost, "_NORMS", table)
    monkeypatch.setattr(pgmq.passes, "conjugation_cost_matrix", checked)
    accepted = 0
    for c in matrix_reference_circuits():
        accepted += optimize(c, CompileOptions(scheme=scheme)).iterations
    assert calls > 60 and accepted > 0 and table
    for key, norm in table.items():
        assert norm == reference_norm(key)


def held_values(seq):
    """`seq`'s gadgets with their values bit for bit, its frame's masks and
    its phase bit for bit, as they are now."""
    phase = complex(seq.phase)
    return ([(g, g.axis, g.alpha.hex(), g.support, g.mask)
             for g in seq.gadgets],
            seq.frame.x, seq.frame.z, phase.real.hex(), phase.imag.hex())


def raw_sequence(n, rng):
    """An unsimplified sequence: repeated supports and angles in (-2, 2], so
    `simplify` merges, normalizes and flips signs."""
    gadgets = []
    for _ in range(16):
        k = int(rng.integers(1, n + 1))
        support = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        gadgets.append(PhaseGadget(str(rng.choice(["X", "Z"])),
                                   float(rng.uniform(-2.0, 2.0)), support))
        if rng.random() < 0.4:
            gadgets.append(PhaseGadget(gadgets[-1].axis,
                                       float(rng.uniform(-2.0, 2.0)), support))
    return GadgetSequence(n, gadgets)


def test_passes_leave_input_gadgets_alone(rng):
    # the gadget algebra shares the gadgets it leaves unchanged, so it may
    # edit none of its inputs: sequences with equal gadgets to merge,
    # angles outside [-1/2, 1/2), Y gadgets (which no CNOT moves, so only
    # simplify and the adjoint get them) and a non-empty frame for
    # simplify to extend and the adjoint to move
    applied = 0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        frame = PauliFrame(int(rng.integers(1, 2 ** n)),
                           int(rng.integers(0, 2 ** n)))
        phase = complex(np.exp(1j * rng.uniform(-3, 3)))
        xz = GadgetSequence(n, raw_sequence(n, rng).gadgets, frame, phase)
        gadgets = []
        for g in xz.gadgets:
            gadgets.append(g)
            if rng.random() < 0.3:
                alpha = float(rng.uniform(-2.0, 2.0))
                gadgets += [PhaseGadget("Y", alpha, g.support)] * 2
        mixed = GadgetSequence(n, gadgets, frame, phase)
        before = [held_values(s) for s in (xz, mixed)]
        for seq in (xz, mixed):
            simplify(seq)
            sequence_adjoint(seq)
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        conj = conjugate_sequence(xz, a, b)
        assert any(h is g for h, g in zip(conj.gadgets, xz.gadgets))
        before.append(held_values(conj))
        simplify(conj)
        sequence_adjoint(conj)
        step, nxt, _ = norm_reduction_step(xz, AUTO)
        applied += len(step)
        simplify(nxt)
        assert [held_values(s) for s in (xz, mixed, conj)] == before
    assert applied > 0


def test_optimize_leaves_every_input_gadget_alone(rng, monkeypatch):
    # snapshot each sequence optimize hands to simplify or costs (extracted
    # bodies, candidates, cost-matrix gadget lists, proposals) at the call,
    # and check none moved by the end of the compile
    import pgmq.passes
    snaps = []

    def recording(fn):
        def wrapped(seq, *args):
            snaps.append((seq, held_values(seq)))
            return fn(seq, *args)
        return wrapped

    for name in ("simplify", "sequence_cost"):
        monkeypatch.setattr(pgmq.passes, name,
                            recording(getattr(pgmq.passes, name)))
    accepted = 0
    for _ in range(6):
        n = int(rng.integers(4, 7))
        accepted += optimize(random_circuit(n, 40, rng)).iterations
    assert accepted > 0
    assert snaps and all(held_values(s) == held for s, held in snaps)


def assert_well_formed(gadgets) -> None:
    """What `gadgets._gadget` takes on trust: a sorted support of distinct
    qubits, `mask` its bitmask, alpha in (-2, 2]."""
    for g in gadgets:
        assert g.axis in ("X", "Y", "Z")
        assert g.support and all(a < b for a, b in zip(g.support,
                                                       g.support[1:]))
        assert type(g.mask) is int
        assert g.mask == sum(1 << q for q in g.support)
        assert -2.0 < g.alpha <= 2.0


def test_every_gadget_optimize_builds_is_well_formed(monkeypatch):
    # every sequence optimize builds or returns, checked when it is made and
    # again at the end of the compile (nothing may reassign a support or a
    # mask afterwards): the extracted bodies and adjoints behind the four
    # candidates, every gadget list costed (proposals' lists, with the
    # gadgets commute_cnot maps), every proposal and conjugation, every
    # simplify, and the program's serialize round trip
    import pgmq.passes
    from pgmq import serialize
    made = []

    def checked(fn, pick):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            for gadgets in pick(args, out):
                assert_well_formed(gadgets)
                made.append(gadgets)
            return out
        return wrapped

    for name, pick in (
            ("pg_left", lambda a, out: [out[0].gadgets]),
            ("pg_right", lambda a, out: [out[1].gadgets]),
            ("sequence_adjoint", lambda a, out: [out.gadgets]),
            ("simplify", lambda a, out: [out.gadgets]),
            ("conjugate_sequence", lambda a, out: [out.gadgets]),
            ("norm_reduction_step", lambda a, out: [out[1].gadgets]),
            ("sequence_costs", lambda a, out: a[0])):
        monkeypatch.setattr(pgmq.passes, name,
                            checked(getattr(pgmq.passes, name), pick))
    accepted = 0
    for c in matrix_reference_circuits():
        prog = optimize(c)
        accepted += prog.iterations
        back = serialize.loads(serialize.dumps(prog)).body.gadgets
        assert_well_formed(back)
        assert [(g.axis, g.alpha, g.support, g.mask) for g in back] == \
            [(g.axis, g.alpha, g.support, g.mask) for g in prog.body.gadgets]
    assert accepted > 0 and len(made) > 1000
    for gadgets in made:
        assert_well_formed(gadgets)


def test_norm_reduction_step_preserves_unitary_and_improves(rng):
    hits = 0
    for _ in range(20):
        n = 4
        c = zz_circuit(n, 18, rng)
        seq, _ = pg_left(c)
        applied, nxt, improved = norm_reduction_step(seq, NO_ANCILLA)
        if not improved:
            continue
        hits += 1
        u = sequence_unitary(seq)
        v = sequence_unitary(nxt)
        pre = to_unitary(Circuit(n, [cnot(a, b) for a, b in applied]))
        assert np.max(np.abs(pre @ v @ pre - u)) < 1e-9
        assert (sequence_cost(nxt, NO_ANCILLA).total_norm
                < sequence_cost(seq, NO_ANCILLA).total_norm + 1e-9)
    assert hits > 0


def test_greedy_matching_half_of_exact():
    weights = {(0, 1): 3.0, (1, 2): 2.9, (2, 3): 3.0, (0, 3): 1.0}
    greedy = _greedy_matching(weights)
    exact = exact_matching(weights)
    wg = sum(weights[tuple(sorted(e))] for e in greedy)
    we = sum(weights[tuple(sorted(e))] for e in exact)
    assert wg >= we / 2 - 1e-12
    assert we == pytest.approx(6.0)


def test_matchings_are_vertex_disjoint(rng):
    weights = {}
    for a in range(6):
        for b in range(a + 1, 6):
            weights[(a, b)] = float(rng.random())
    for pairs in (_greedy_matching(weights), exact_matching(weights)):
        used = [q for e in pairs for q in e]
        assert len(used) == len(set(used))


# --- the driver ------------------------------------------------------------

def program_unitary(prog):
    return to_unitary(prog.to_circuit())


def test_optimize_preserves_unitary(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        c = random_circuit(n, int(rng.integers(5, 30)), rng)
        prog = optimize(c)
        assert np.max(np.abs(program_unitary(prog) - to_unitary(c))) < 1e-8


def test_realized_circuit_is_built_once(rng, monkeypatch):
    # repeated calls, and the noise library's calls, reuse one realization
    from pgmq import noise, passes
    calls = []
    realize = passes.realize
    monkeypatch.setattr(passes, "realize",
                        lambda *a: calls.append(a) or realize(*a))
    c = random_circuit(4, 30, rng)
    opts = CompileOptions(scheme=ANCILLA_MERGED)
    prog = optimize(c, opts)
    first = prog.realized_circuit()
    model = noise.NoiseModel(1e-2, 1e-2)
    noise.success_probability(prog, model)
    noise.monte_carlo_fidelity(prog, c, model, samples=3, shots=2)
    again = prog.realized_circuit()
    assert len(calls) == 1 and again.gates == first.gates
    # and it is the realization a fresh compile of the same circuit gives
    fresh = optimize(c, opts).realized_circuit()
    assert np.array_equal(to_unitary(again), to_unitary(fresh))


def test_optimize_realized_circuit_no_ancilla(rng):
    for _ in range(6):
        n = 3
        c = random_circuit(n, 15, rng)
        prog = optimize(c, CompileOptions(scheme=NO_ANCILLA))
        u = to_unitary(prog.realized_circuit())
        assert np.max(np.abs(u - to_unitary(c))) < 1e-8


def test_optimize_realized_circuit_ancilla(rng):
    for _ in range(6):
        n = 3
        c = random_circuit(n, 15, rng)
        prog = optimize(c, CompileOptions(scheme=ANCILLA_MERGED))
        u = to_unitary(prog.realized_circuit())
        dim = 2 ** n
        if u.shape[0] == dim:        # no big gadget -> no ancilla wire needed
            assert np.max(np.abs(u - to_unitary(c))) < 1e-8
        else:
            assert np.max(np.abs(u[:dim, :dim] - to_unitary(c))) < 1e-8
            assert np.max(np.abs(u[dim:, :dim])) < 1e-10


def test_optimize_cost_trace_strictly_decreasing(rng):
    for _ in range(8):
        c = random_circuit(4, 25, rng)
        prog = optimize(c)
        trace = prog.cost_trace
        assert len(trace) == prog.iterations + 1
        for earlier, later in zip(trace, trace[1:]):
            assert later < earlier
        assert prog.cost().key() == trace[-1]


def test_optimize_keeps_measurement_map():
    c = Circuit(2, [cnot(0, 1)], classical_bits=2,
                measures=[Measure(0, 1), Measure(1, 0)])
    prog = optimize(c)
    assert prog.measurement_map == {0: 1, 1: 0}


def test_optimize_never_worse_than_baseline_count(rng):
    from pgmq.cost import baseline_parallel_merge
    from pgmq.qasm import to_zz_basis
    for _ in range(6):
        c = random_circuit(4, 20, rng, p_local=0.2)
        prog = optimize(c)
        base_count, _ = baseline_parallel_merge(to_zz_basis(c))
        assert prog.cost().mq_count <= base_count


def test_to_circuit_replays_gadgets_as_two_qubit_gates():
    # a 16-qubit parity circuit compiles to a 16-qubit gadget, whose dense
    # local operator would take 64 GiB
    n = 16
    ladder = [cnot(q, q + 1) for q in range(n - 1)]
    c = Circuit(n, [*map(hadamard, range(n)), *ladder, u1(0.3, n - 1),
                    *ladder[::-1]])
    prog = optimize(c)
    assert max(len(g.support) for g in prog.body.gadgets) == n
    assert max(len(g.qubits) for g in prog.to_circuit().gates) <= 2


def test_optimize_empty_circuit():
    prog = optimize(Circuit(2, []))
    assert prog.cost().mq_count == 0
    assert np.max(np.abs(program_unitary(prog) - np.eye(4))) < 1e-12
