import math

import numpy as np
import pytest

import pgmq.cost
from pgmq.circuit import (Circuit, SingleQubit, ZzRotation, cnot, hadamard,
                          to_unitary)
from pgmq.cost import (ANCILLA_MERGED, NO_ANCILLA, CostVector, _fill_norms,
                       _group_key, _interface_live, baseline_parallel_merge,
                       input_norm, metrics, nuclear_norm, realize,
                       sequence_cost, sequence_costs, star_norm)
from pgmq.gadgets import (GadgetSequence, MultiQubitGate, PhaseGadget,
                          decompose_pg, fanout_to_mq, pg_commutes)
from pgmq.passes import optimize
from conftest import mq_gates, reference_norm, sequence_unitary


def alternating_big_gadgets(m):
    """M support-3 gadgets on 4 qubits, no two adjacent ones commuting."""
    gads = []
    for i in range(m):
        if i % 2 == 0:
            gads.append(PhaseGadget("Z", 0.23 + 0.01 * i, (0, 1, 2)))
        else:
            gads.append(PhaseGadget("X", 0.31 + 0.01 * i, (1, 2, 3)))
    return GadgetSequence(4, gads)


# --- norms -------------------------------------------------------------------

def test_nuclear_norm_single_pair():
    g = MultiQubitGate({(0, 1): 0.7})
    assert nuclear_norm(g) == pytest.approx(0.7)


def test_star_norm_closed_form():
    # star with k spokes of angle theta has nuclear norm |theta| sqrt(k)
    for k in range(1, 65):
        g = MultiQubitGate({(q, k): math.pi / 4 for q in range(k)})
        assert nuclear_norm(g) == pytest.approx(star_norm(k), abs=1e-10)


def test_star_norm_sqrt_power_law():
    assert star_norm(4) / star_norm(1) == pytest.approx(2.0)
    assert star_norm(30) / star_norm(1) == pytest.approx(math.sqrt(30))


def test_nuclear_norm_rejects_asymmetric():
    # only a gate, whose phase matrix is symmetric by construction, is
    # accepted; a raw (here asymmetric) matrix is refused
    from pgmq.circuit import CircuitError
    with pytest.raises(CircuitError):
        nuclear_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nuclear_norm_of_gate_is_norm_of_its_phase_matrix(rng):
    # dense gates of 2-8 qubits, a pair written high-low, a pair below the
    # 1e-15 drop, and an empty gate: each norm equals, bit for bit, the
    # norm of the symmetric phase matrix built in the test
    gates = [MultiQubitGate({(a, b): float(rng.uniform(-2, 2))
                             for a in range(k) for b in range(a + 1, k)})
             for k in range(2, 9)]
    gates.append(MultiQubitGate({(3, 1): 0.4, (1, 5): -0.2, (0, 2): 1e-16}))
    assert gates[-1].pairs == {(1, 3): 0.4, (1, 5): -0.2}
    for g in gates:
        assert nuclear_norm(g) == reference_norm(g.pairs)
    assert nuclear_norm(MultiQubitGate({(0, 1): 1e-16})) == 0.0
    assert nuclear_norm(MultiQubitGate()) == 0.0


def test_cost_vector_lex_key():
    assert CostVector(2, 1.0).key() < CostVector(3, 0.1).key()
    assert CostVector(2, 0.5).key() < CostVector(2, 0.6).key()
    assert CostVector(2, 1.0).key(weight=1.0) == pytest.approx(3.0)


# --- gate-count laws ---------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_no_ancilla_costs_two_per_big_gadget(m):
    seq = alternating_big_gadgets(m)
    r = realize(seq, NO_ANCILLA)
    assert len(mq_gates(r)) == 2 * m


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_ancilla_costs_m_plus_one(m):
    seq = alternating_big_gadgets(m)
    r = realize(seq, ANCILLA_MERGED)
    assert len(mq_gates(r)) == m + 1
    assert r.num_qubits == 5


def test_ancilla_wire_only_when_a_run_uses_it():
    # with no gadget on three or more qubits the ancilla scheme emits the
    # no-ancilla gates on the same wires; one such gadget adds the wire
    small = GadgetSequence(3, [PhaseGadget("Z", 0.3, (0, 1)),
                               PhaseGadget("X", 0.2, (2,)),
                               PhaseGadget("X", 0.4, (1, 2))])
    r, want = realize(small, ANCILLA_MERGED), realize(small, NO_ANCILLA)
    assert r.num_qubits == 3
    assert [type(g) for g in r.gates] == [type(g) for g in want.gates]
    for got, exp in zip(r.gates, want.gates):
        assert got.qubits == exp.qubits
        assert np.array_equal(got.local_unitary(), exp.local_unitary())
    big = GadgetSequence(3, [*small.gadgets,
                             PhaseGadget("Y", 0.1, (0, 1, 2))])
    r = realize(big, ANCILLA_MERGED)
    assert r.num_qubits == 4


def test_auto_picks_cheaper_scheme():
    seq = alternating_big_gadgets(4)   # 5 < 8
    r = realize(seq)
    assert r.num_qubits == seq.num_qubits + 1
    seq1 = alternating_big_gadgets(1)  # 2 == 2, tie -> no-ancilla
    r1 = realize(seq1)
    assert r1.num_qubits == seq1.num_qubits


def test_realizations_are_exact(rng):
    for m in (1, 2, 4):
        seq = alternating_big_gadgets(m)
        want = sequence_unitary(seq)
        got = to_unitary(realize(seq, NO_ANCILLA))
        assert np.max(np.abs(got - want)) < 1e-10
        ua = to_unitary(realize(seq, ANCILLA_MERGED))
        dim = want.shape[0]
        assert np.max(np.abs(ua[:dim, :dim] - want)) < 1e-10
        # the ancilla returns to |0> exactly
        assert np.max(np.abs(ua[dim:, :dim])) < 1e-10


def test_clifford_gates_have_quantized_pair_phases():
    seq = alternating_big_gadgets(3)
    for scheme in (NO_ANCILLA, ANCILLA_MERGED):
        r = realize(seq, scheme)
        assert mq_gates(r)
        for g in mq_gates(r):
            for th in g.pairs.values():
                assert abs(th) == pytest.approx(math.pi / 4, abs=0.0)


def test_pair_gadgets_are_one_gate_each_group():
    # commuting two-qubit Z gadgets on disjoint/overlapping wires merge into
    # a single programmable gate
    gads = [PhaseGadget("Z", 0.2, (0, 1)),
            PhaseGadget("Z", 0.3, (2, 3)),
            PhaseGadget("Z", 0.1, (1, 2))]
    seq = GadgetSequence(4, gads)
    r = realize(seq, NO_ANCILLA)
    assert len(mq_gates(r)) == 1
    got = to_unitary(r)
    assert np.max(np.abs(got - sequence_unitary(seq))) < 1e-10


def test_pair_group_splits_on_axis_conflict():
    gads = [PhaseGadget("Z", 0.2, (0, 1)),
            PhaseGadget("X", 0.3, (1, 2))]   # qubit 1 axis conflict
    seq = GadgetSequence(3, gads)
    r = realize(seq, NO_ANCILLA)
    assert len(mq_gates(r)) == 2
    got = to_unitary(r)
    assert np.max(np.abs(got - sequence_unitary(seq))) < 1e-10


def test_repeated_pair_merges_phases():
    gads = [PhaseGadget("Y", 0.2, (0, 1)), PhaseGadget("Y", 0.25, (0, 1))]
    seq = GadgetSequence(2, gads)
    r = realize(seq, NO_ANCILLA)
    assert len(mq_gates(r)) == 1
    assert list(mq_gates(r)[0].pairs.values())[0] == pytest.approx(
        0.45 * math.pi / 2)


def test_pair_group_cancelling_to_rounding_residual_is_no_gate():
    # the summed phase is 2.2e-16, not 0: it must drop out like an exact
    # cancellation, not leave a pair outside the gate's support
    seq = GadgetSequence(2, [PhaseGadget("Z", a, (0, 1))
                             for a in (0.3, 0.6, -(0.3 + 0.6))])
    assert sequence_cost(seq) == CostVector(0, 0.0)
    for scheme in (NO_ANCILLA, ANCILLA_MERGED):
        r = realize(seq, scheme)
        assert not mq_gates(r)
        got = to_unitary(r)
        dim = 2 ** seq.num_qubits
        assert np.max(np.abs(got[:dim, :dim] - sequence_unitary(seq))) < 1e-12
    assert MultiQubitGate({(0, 1): 1e-16, (1, 2): 0.4}).support == (1, 2)


def test_batched_norms_equal_nuclear_norm(monkeypatch):
    # one batch over support sizes 2-8, keys met twice or already in the
    # table, a pair below MultiQubitGate's 1e-15 drop (which also leaves the
    # support) and a group whose phases cancel to no gate
    rng = np.random.default_rng(19)
    groups = []
    for k in range(2, 9):
        for _ in range(5):
            qs = sorted(int(q) for q in rng.choice(10, size=k, replace=False))
            pairs = {p: float(rng.uniform(-3, 3)) for p in zip(qs, qs[1:])}
            for _ in range(int(rng.integers(0, k))):
                a, b = sorted(int(q) for q in rng.choice(qs, 2, replace=False))
                pairs[(a, b)] = float(rng.uniform(-3, 3))
            groups.append(pairs)
    groups.append({(0, 1): 0.4, (1, 2): 1e-16, (2, 3): -0.7})
    groups.append({(0, 1): 0.3 + 0.6 - 0.9})
    groups.append(dict(groups[3]))
    keys = [_group_key(p) for p in groups]
    assert keys[-3] == frozenset({((0, 1), 0.4), ((2, 3), -0.7)})
    assert keys[-2] == frozenset()
    assert not MultiQubitGate(groups[-2]).pairs
    table = {keys[0]: reference_norm(keys[0])}
    seeded = table[keys[0]]
    monkeypatch.setattr(pgmq.cost, "_NORMS", table)
    _fill_norms([k for k in keys if k])
    assert table[keys[0]] is seeded
    for pairs, key in zip(groups[:-2], keys):
        gate = MultiQubitGate(pairs)
        assert key == frozenset(gate.pairs.items())
        assert table[key] == reference_norm(key)
        assert nuclear_norm(gate) is table[key]
    assert len(table) == len(set(keys)) - 1


def test_single_qubit_gadgets_are_free():
    seq = GadgetSequence(2, [PhaseGadget("X", 0.4, (0,)),
                             PhaseGadget("Z", 0.1, (1,))])
    cv = sequence_cost(seq)
    assert cv.mq_count == 0
    assert cv.total_norm == 0.0


def _random_sequence(rng, n, free=()):
    """Gadgets with supports of size 1-5 on the wires outside `free`.  A
    gadget often reuses its predecessor's support, with another axis, the
    same axis, or the same axis and the opposite angle, so that runs contain
    overlapping and cancelling interfaces and pair groups cancel to no
    gate."""
    wires = [q for q in range(n) if q not in free]
    gads = []
    for _ in range(int(rng.integers(1, 16))):
        axis = str(rng.choice(list("XYZ")))
        alpha = float(rng.uniform(-2, 2))
        prev = gads[-1] if gads else None
        if prev is not None and len(prev.support) > 1 and rng.random() < 0.4:
            sup = prev.support
            reuse = rng.random()
            if reuse < 0.5:
                axis = prev.axis
            if reuse < 0.25:
                alpha = -prev.alpha
        else:
            k = int(rng.integers(1, min(5, len(wires)) + 1))
            sup = tuple(int(q) for q in rng.choice(wires, size=k, replace=False))
        gads.append(PhaseGadget(axis, alpha, sup))
    return GadgetSequence(n, gads)


def _emitted_cost(r):
    return CostVector(len(mq_gates(r)),
                      sum((nuclear_norm(g) for g in mq_gates(r)), 0.0))


def test_planned_cost_equals_emitted_gates():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(2, 9))
        free = (int(rng.integers(n)),) if trial % 3 == 0 and n > 2 else ()
        seq = _random_sequence(rng, n, free)
        emitted = {}
        for scheme in (NO_ANCILLA, ANCILLA_MERGED):
            r = realize(seq, scheme)
            emitted[scheme] = want = _emitted_cost(r)
            got = sequence_cost(seq, scheme)
            assert got.mq_count == want.mq_count
            assert abs(got.total_norm - want.total_norm) \
                <= 1e-12 * max(1.0, want.total_norm)
        pick_no = (emitted[NO_ANCILLA].key()
                   <= emitted[ANCILLA_MERGED].key())
        assert (realize(seq).num_qubits == n) == pick_no
        assert sequence_cost(seq) == sequence_cost(
            seq, NO_ANCILLA if pick_no else ANCILLA_MERGED)


@pytest.mark.parametrize("ancilla", [False, True],
                         ids=["no-ancilla", "ancilla"])
def test_realized_fanouts_match_decompose_pg(ancilla):
    # a lone large gadget is emitted as decompose_pg's circuit (the one the
    # acceptance identity test checks) with each fanout fused by fanout_to_mq
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(3, n + 1))
        g = PhaseGadget(str(rng.choice(list("XYZ"))), float(rng.uniform(-2, 2)),
                        tuple(int(q) for q in rng.choice(n, k, replace=False)))
        r = realize(GadgetSequence(n, [g]),
                    ANCILLA_MERGED if ancilla else NO_ANCILLA)
        jstar = n if ancilla else g.support[0]
        c = decompose_pg(g, jstar, n + ancilla, ancilla=ancilla)
        fan, mid = c.gates[:(len(c.gates) - 1) // 2], c.gates[len(c.gates) // 2]
        mq, frame = fanout_to_mq(fan)
        fused = [*frame.right_gates(), mq, *frame.left_gates()]
        want = [*fused, mid, *fused]
        assert [m.pairs for m in mq_gates(r)] == [mq.pairs] * 2
        assert [type(x) for x in r.gates] == [type(x) for x in want]
        for got, exp in zip(r.gates, want):
            assert got.qubits == exp.qubits
            assert np.array_equal(got.local_unitary(), exp.local_unitary())
        assert r.global_phase == frame.phase * frame.phase
        assert r.num_qubits == n + ancilla


def test_cancelling_interface_is_no_gate():
    # equal axis and support: the interface's controls all cancel
    seq = GadgetSequence(3, [PhaseGadget("Z", 0.2, (0, 1, 2)),
                             PhaseGadget("Z", 0.3, (0, 1, 2))])
    r = realize(seq, ANCILLA_MERGED)
    assert len(mq_gates(r)) == 2
    assert sequence_cost(seq, ANCILLA_MERGED) == CostVector(2, 2 * star_norm(3))
    ua = to_unitary(r)
    assert np.max(np.abs(ua[:8, :8] - sequence_unitary(seq))) < 1e-10


# --- baseline and metrics ------------------------------------------------------

def test_baseline_parallel_merge_counts():
    c = Circuit(4, [ZzRotation(0.3, 0, 1), ZzRotation(0.4, 2, 3),  # one layer
                    ZzRotation(0.2, 0, 1)])                        # reuse: new
    count, norm = baseline_parallel_merge(c)
    assert count == 2
    assert norm == pytest.approx(
        nuclear_norm(MultiQubitGate({(0, 1): 0.3, (2, 3): 0.4})) + 0.2)


def test_baseline_flushes_on_local_gate():
    c = Circuit(2, [ZzRotation(0.3, 0, 1), hadamard(0), ZzRotation(0.3, 0, 1)])
    count, _ = baseline_parallel_merge(c)
    assert count == 2


def test_input_norm():
    c = Circuit(2, [ZzRotation(-0.3, 0, 1), cnot(0, 1)])
    assert input_norm(c) == pytest.approx(0.3 + math.pi / 4)


def test_metrics_ratios(rng):
    from pgmq.passes import optimize
    from conftest import random_circuit
    from pgmq.qasm import to_zz_basis
    c = random_circuit(4, 20, rng, p_local=0.2)
    prog = optimize(c)
    m = metrics(prog.body, to_zz_basis(c), prog.scheme)
    assert m["gateCountRatio"] == pytest.approx(
        m["twoQubitCount"] / m["compiledMqCount"])
    assert m["compiledMqCount"] == prog.cost().mq_count
    assert m["normRatio"] > 0


# --- the costing scan against the step-building planner ----------------------

def _reference_plan(gadgets, ancilla):
    """The planner as it was when costing built both schemes' steps: one
    scan making each scheme's steps and its terms (a star's closed form, or
    a pair group's sorted surviving pair phases)."""
    no_steps, no_terms, anc_steps, anc_terms = [], [], [], []
    axes, pairs, run = {}, {}, []

    def end_run():
        nonlocal run
        anc_steps.append(("run", (run, ancilla)))
        anc_terms.append(star_norm(len(run[0].support)))
        for g, h in zip(run, run[1:]):
            k = _interface_live(g, h)
            if k:
                anc_terms.append(star_norm(k))
        anc_terms.append(star_norm(len(run[-1].support)))
        run = []

    def end_group():
        nonlocal axes, pairs
        key = tuple(sorted(kv for kv in pairs.items() if abs(kv[1]) > 1e-15))
        step = ("pairs", (axes, pairs, key))
        if run:
            end_run()
        no_steps.append(step)
        anc_steps.append(step)
        if key:
            no_terms.append(key)
            anc_terms.append(key)
        axes, pairs = {}, {}

    for g in gadgets:
        support, axis = g.support, g.axis
        k = len(support)
        if k == 2:
            a, b = support
            if axes.get(a, axis) != axis or axes.get(b, axis) != axis:
                end_group()
            pairs[support] = pairs.get(support, 0.0) + g.alpha * math.pi / 2
            axes[a] = axes[b] = axis
        elif k == 1:
            q = support[0]
            if axes.get(q, axis) != axis:
                end_group()
            step = ("single", g)
            no_steps.append(step)
            if run and not all(pg_commutes(g, h) for h in run):
                end_run()
            anc_steps.append(step)
        else:
            if axes:
                end_group()
            no_steps.append(("run", ([g], support[0])))
            no_terms += [star_norm(k - 1)] * 2
            run.append(g)
    if axes:
        end_group()
    if run:
        end_run()
    return ({NO_ANCILLA: no_steps, ANCILLA_MERGED: anc_steps},
            {NO_ANCILLA: no_terms, ANCILLA_MERGED: anc_terms})


def _reference_total(terms, norms):
    norm = 0.0
    for t in terms:
        if type(t) is tuple:
            if t not in norms:
                norms[t] = reference_norm(t)
            t = norms[t]
        norm += t
    return CostVector(len(terms), norm)


def _bits(cv):
    return cv.mq_count, cv.total_norm.hex()


def _assert_costing_matches_reference(lists, n, norms):
    """Each scheme's cost of every list, from one batch, equals the
    reference planner's count and norm bit for bit (`norms` memoizes the
    reference's own norms); returns the reference plans."""
    plans = [_reference_plan(gadgets, n) for gadgets in lists]
    for scheme in (NO_ANCILLA, ANCILLA_MERGED):
        got = sequence_costs(lists, n, scheme)
        want = [_reference_total(terms[scheme], norms) for _, terms in plans]
        assert [_bits(c) for c in got] == [_bits(c) for c in want]
    return plans


def _hops_a_run(steps, gadgets):
    """Whether a one-qubit step comes before a run step whose first gadget
    the list holds before it."""
    pos = {id(g): i for i, g in enumerate(gadgets)}
    last_single = -1
    for kind, val in steps:
        if kind == "single":
            last_single = max(last_single, pos[id(val)])
        elif kind == "run" and pos[id(val[0][0])] < last_single:
            return True
    return False


def test_costing_scan_matches_reference_planner_on_random_lists():
    # lists with runs that singles hop, groups that cancel and Y gadgets;
    # each list is also costed in one batch with its neighbours
    rng = np.random.default_rng(24)
    norms, seen = {}, {"hop": 0, "cancel": 0, "Y": 0}
    for _ in range(60):
        n = int(rng.integers(2, 9))
        lists = [_random_sequence(rng, n).gadgets
                 for _ in range(int(rng.integers(1, 8)))]
        plans = _assert_costing_matches_reference(lists, n, norms)
        for gadgets, (steps, _) in zip(lists, plans):
            seen["hop"] += _hops_a_run(steps[ANCILLA_MERGED], gadgets)
            seen["cancel"] += any(k == "pairs" and v[1] and not v[2]
                                  for k, v in steps[NO_ANCILLA])
            seen["Y"] += any(g.axis == "Y" for g in gadgets)
    assert min(seen.values()) > 0, seen


def test_costing_scan_matches_reference_planner_on_cost_matrices(monkeypatch):
    # every candidate list of every cost matrix the corpus and the random
    # pool compile; the compile's own (auto) costs equal the reference's pick
    import pgmq.passes
    from pgmq.qasm import parse_qasm_file
    from test_fingerprints import ROOT, _random_pool
    real = pgmq.passes.sequence_costs
    norms, calls = {}, []

    def checked(lists, n, scheme):
        out = real(lists, n, scheme)
        plans = _assert_costing_matches_reference(lists, n, norms)
        for cv, (_, terms) in zip(out, plans):
            no, anc = (_reference_total(terms[s], norms)
                       for s in (NO_ANCILLA, ANCILLA_MERGED))
            assert _bits(cv) == _bits(no if no.key() <= anc.key() else anc)
        calls.append(len(lists))
        return out

    monkeypatch.setattr(pgmq.passes, "sequence_costs", checked)
    circuits = [parse_qasm_file(p)
                for p in sorted((ROOT / "benchmarks").glob("*.qasm"))]
    for c in [*circuits, *_random_pool().values()]:
        optimize(c)
    assert len(calls) > 40 and sum(calls) > 800


def test_metrics_and_realize_after_optimize_run_no_eigvalsh(monkeypatch):
    # the compile's norm fills serve the metrics and the realization that
    # follow it: neither computes a body pair group's norm again.  The
    # baseline merge's layers come from the input circuit, not the body,
    # so their norms are filled before eigvalsh is counted
    from test_fingerprints import CORPUS
    from pgmq.qasm import parse_qasm_file
    real, calls = np.linalg.eigvalsh, []

    def counted(m):
        calls.append(m.shape)
        return real(m)

    for path in CORPUS:
        c = parse_qasm_file(path)
        prog = optimize(c)
        baseline_parallel_merge(c)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counted)
            metrics(prog.body, c, prog.scheme)
            realize(prog.body, prog.scheme)
        assert not calls, path.stem
