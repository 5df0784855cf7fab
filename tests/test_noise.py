import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pgmq import noise
from pgmq.circuit import (Barrier, Circuit, InputError, Kernel, SingleQubit,
                          ZzRotation, cnot, hadamard, pauli_gate)
from pgmq.cost import ANCILLA_MERGED, AUTO
from pgmq.gadgets import MultiQubitGate
from pgmq.noise import (BOOTSTRAP, MonteCarloResult, NoiseModel,
                        _draw, _draw_one, _noise_sites,
                        _slots, _substreams, gate_norm, inject_noise,
                        monte_carlo_fidelity, probabilities, relative_error,
                        statevector, success_probability)
from pgmq.passes import CompileOptions, optimize
from pgmq.qasm import parse_qasm
from conftest import relative_error_ci

MEASURED_BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q -> c;
"""


def bell():
    return Circuit(2, [hadamard(0), cnot(0, 1)])


# --- model and rates ---------------------------------------------------------

def test_noise_model_validates_probabilities():
    with pytest.raises(InputError):
        NoiseModel(p_dephase=-0.1)
    with pytest.raises(InputError):
        NoiseModel(p_depol_tq=1.5)
    with pytest.raises(InputError):
        NoiseModel(p_dephase=math.nan)


@pytest.mark.parametrize("seed", [-1, 2 ** 63, 2 ** 64])
def test_noise_model_refuses_seed_out_of_range(seed):
    # Philox keys are 64-bit: a negative seed escaped as a ValueError, one
    # of 2^64 as an OverflowError
    with pytest.raises(InputError, match="seed"):
        NoiseModel(seed=seed)
    assert NoiseModel(seed=2 ** 63 - 1).seed == 2 ** 63 - 1


def test_gate_norm_values():
    assert gate_norm(cnot(0, 1)) == pytest.approx(math.pi / 4)
    assert gate_norm(ZzRotation(-0.3, 0, 1)) == pytest.approx(0.3)
    assert gate_norm(hadamard(0)) == 0.0
    star = MultiQubitGate({(q, 30): math.pi / 4 for q in range(30)})
    assert gate_norm(star) == pytest.approx(math.pi / 4 * math.sqrt(30))


def depol_rate(gate, model):
    """The depolarization rate the site table gives a one-gate circuit
    (0.0 when the gate is no noise site)."""
    sites = _noise_sites(Circuit(max(gate.qubits) + 1, [gate]), model)
    return sites[0][1] if sites else 0.0


def test_depol_prob_scales_with_norm():
    m = NoiseModel(p_depol_tq=1e-3)
    assert depol_rate(cnot(0, 1), m) == pytest.approx(1e-3)
    star = MultiQubitGate({(q, 30): math.pi / 4 for q in range(30)})
    # sqrt(30) * 1e-3 ~ 5.477e-3
    assert depol_rate(star, m) == pytest.approx(math.sqrt(30) * 1e-3)
    assert depol_rate(hadamard(0), m) == 0.0
    assert depol_rate(cnot(0, 1), NoiseModel(p_depol_tq=1.0)) == 1.0


# --- injection ---------------------------------------------------------------

def test_inject_noise_zero_rates_is_identity(rng):
    c = bell()
    noisy = inject_noise(c, NoiseModel(0.0, 0.0), rng)
    assert len(noisy.gates) == len(c.gates)


def test_inject_noise_certain_dephasing(rng):
    c = bell()  # one entangling gate on two qubits
    noisy = inject_noise(c, NoiseModel(p_dephase=1.0, p_depol_tq=0.0), rng)
    z_gates = [g for g in noisy.gates
               if isinstance(g, SingleQubit) and g.name == "z"]
    assert len(z_gates) == 2
    assert sorted(g.qubit for g in z_gates) == [0, 1]


def test_inject_noise_insertion_rate(rng):
    # binomial check over many instances: insertion count per site ~ p
    p = 0.05
    c = Circuit(2, [cnot(0, 1)])
    model = NoiseModel(p_dephase=p, p_depol_tq=0.0)
    trials, hits = 20000, 0
    for _ in range(trials):
        hits += len(inject_noise(c, model, rng).gates) - 1
    mean = hits / (2 * trials)
    sigma = math.sqrt(p * (1 - p) / (2 * trials))
    assert abs(mean - p) < 4 * sigma


def test_inject_noise_keeps_measurements(rng):
    c = parse_qasm(MEASURED_BELL)
    noisy = inject_noise(c, NoiseModel(p_dephase=1.0, p_depol_tq=0.0), rng)
    assert noisy.classical_bits == c.classical_bits == 2
    assert len(noisy.gates) == len(c.gates) + 2  # one Z per CNOT qubit
    assert [(m.qubit, m.bit) for m in noisy.measures] == \
        [(m.qubit, m.bit) for m in c.measures] == [(0, 0), (1, 1)]


def test_single_qubit_gates_collect_no_noise(rng):
    c = Circuit(2, [hadamard(0), hadamard(1)])
    noisy = inject_noise(c, NoiseModel(1.0, 1.0), rng)
    assert len(noisy.gates) == 2
    assert success_probability(c, NoiseModel(1.0, 1.0)) == 1.0


def _substream(seed, sample):
    """A fresh generator on one sample's substream."""
    return np.random.Generator(np.random.Philox(key=[seed, sample]))


def _draw_slot_by_slot(sites, model, rng):
    """Reference draw loop: one scalar draw per test, site by site, qubit by
    qubit, dephasing before depolarization."""
    errors = {}
    for i, (qubits, p_dep) in sites.items():
        paulis = []
        for q in qubits:
            if rng.random() < model.p_dephase:
                paulis.append(pauli_gate("Z", q))
            if rng.random() < p_dep:
                paulis.append(pauli_gate(("X", "Y", "Z")[rng.integers(3)], q))
        if paulis:
            errors[i] = paulis
    return errors


def _named(errors):
    return {i: [(g.qubit, g.name) for g in gates] for i, gates in errors.items()}


@pytest.mark.parametrize("p", [1e-3, 2e-2, 0.3])
def test_block_draw_is_slot_by_slot_draw(p):
    # the same errors and the generator left at the same point (the shots
    # are drawn from it next), on Philox substreams and on a PCG64 stream;
    # norms differ per site, so the depolarization rates do too
    c = parse_qasm(MEASURED_BELL)
    realized, source = _ancilla_program()
    hits = 0
    for circuit in (c, realized, source):
        model = NoiseModel(p, p)
        sites = _noise_sites(circuit, model)
        slots = _slots(sites)
        for seed in range(400):
            for make in (lambda: _substream(7, seed),
                         lambda: np.random.default_rng(seed)):
                fast, slow = make(), make()
                got = _draw_one(slots, model, fast)
                assert _named(got) == _named(
                    _draw_slot_by_slot(sites, model, slow))
                assert fast.random() == slow.random()
                assert fast.integers(3) == slow.integers(3)
                hits += sum(g.name != "z" for gates in got.values()
                            for g in gates)
    assert hits > 0      # depolarization hits, and with them the rewind, ran


def test_rekeyed_substreams_are_fresh_generators():
    # each rekeyed sample draws the doubles and integers of a fresh
    # Philox(key=[seed, s]), also after _draw rewinds it and after the
    # sample before left a stored half-word (an odd number of 32-bit draws)
    c = parse_qasm(MEASURED_BELL)
    model = NoiseModel(0.3, 0.3)
    sites = _noise_sites(c, model)
    slots = _slots(sites)
    rewound = 0
    for seed in (0, 5, 2 ** 40):
        rekey = _substreams(seed)
        for s in range(60):
            rng, fresh = rekey(s), _substream(seed, s)
            got = _draw_one(slots, model, rng)
            assert _named(got) == _named(_draw_one(slots, model, fresh))
            assert np.array_equal(rng.random(7), fresh.random(7))
            assert np.array_equal(rng.integers(0, 5, size=3),
                                  fresh.integers(0, 5, size=3))
            rewound += any(g.name != "z" for gates in got.values()
                           for g in gates)
    assert rewound > 0


def _assert_sampler_draws(circuit, model, samples, shots):
    """The sampler's draw of a call, sample by sample, against the
    slot-by-slot draw and then the shots on a fresh substream: the same
    error gates (the same objects), the same shot doubles, and only the
    samples that drew an error yielded.  Returns the reference errors."""
    sites = _noise_sites(circuit, model)
    u = np.empty((samples, shots))
    got = dict(_draw(_slots(sites), model, _substreams(model.seed), u))
    assert all(got.values())
    want = []
    for s in range(samples):
        fresh = _substream(model.seed, s)
        want.append(_draw_slot_by_slot(sites, model, fresh))
        assert {i: list(map(id, g)) for i, g in got.get(s, {}).items()} == \
            {i: list(map(id, g)) for i, g in want[-1].items()}, s
        assert np.array_equal(u[s], fresh.random(shots)), s
    return want


def test_array_draw_without_noise_sites():
    # no entangling gate, no slot: every row is its shots alone
    c = Circuit(2, [hadamard(0), hadamard(1)])
    model = NoiseModel(0.5, 0.5, seed=3)
    assert not any(_assert_sampler_draws(c, model, 20, 7))
    _assert_resimulated(c, c, model)


def test_array_draw_when_every_sample_hits_the_first_slot():
    # certain dephasing and depolarization (CNOTs depolarize at the full
    # rate): every sample is drawn slot by slot from its first slot on, and
    # every slot gets a Z and then a Pauli
    c = Circuit(3, [hadamard(0), cnot(0, 1), cnot(1, 2)])
    model = NoiseModel(1.0, 1.0, seed=4)
    for errors in _assert_sampler_draws(c, model, 20, 5):
        assert [[(g.qubit, g.name == "z") for g in gates[::2]]
                for gates in errors.values()] == [[(0, True), (1, True)],
                                                  [(1, True), (2, True)]]
    _assert_resimulated(c, c, model)


@pytest.mark.parametrize("p_dephase, p_depol", [(0.3, 0.0), (0.0, 0.3)])
def test_array_draw_with_only_the_last_slot_hit(p_dephase, p_depol):
    # a dephasing hit found in the table, and a depolarizing hit drawn
    # slot by slot, each a sample's only hit and on its last slot
    c = parse_qasm(MEASURED_BELL)
    model = NoiseModel(p_dephase, p_depol, seed=5)
    last = next(iter(_noise_sites(c, model)))
    want = _assert_sampler_draws(c, model, 40, 3)
    assert any(list(errors) == [last] and len(errors[last]) == 1
               and errors[last][0].qubit == 1 for errors in want)
    _assert_resimulated(c, c, model)


def test_array_draw_across_chunk_boundaries(monkeypatch):
    # a budget of three rows per chunk: chunk boundaries fall between
    # samples with and without hits, both ways round
    c = parse_qasm(MEASURED_BELL)
    model = NoiseModel(0.1, 0.1, seed=6)
    samples, shots = 60, 4
    width = 2 * _slots(_noise_sites(c, model))[0].size + shots
    monkeypatch.setattr(noise, "CALL_BYTES", 3 * 8 * width)
    erred = [bool(e) for e in _assert_sampler_draws(c, model, samples, shots)]
    edges = {(erred[s - 1], erred[s]) for s in range(3, samples, 3)}
    assert {(False, True), (True, False)} <= edges
    _assert_resimulated(c, c, model)


def test_draw_chunks_fit_the_budget(monkeypatch):
    # 5000 samples of a 10-qubit chain's 144 slots and 2 shots would draw
    # 11.6 MB of doubles at once; under a 1 MB budget a chunk holds 451
    # rows, and the call's peak stays near its other budgets (1 MB of
    # sweep buffers and kernels, and the bootstrap chunk)
    from conftest import chain_circuit
    c = chain_circuit(10, steps=4)
    model = NoiseModel(1e-5, 1e-5, seed=2)
    assert _slots(_noise_sites(c, model))[0].size == 144
    monkeypatch.setattr(noise, "CALL_BYTES", 2 ** 20)
    monte_carlo_fidelity(c, c, model, samples=1, shots=2)   # first-call costs
    tracemalloc.start()
    try:
        monte_carlo_fidelity(c, c, model, samples=5000, shots=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


# --- success probability -------------------------------------------------------

def test_success_probability_single_cnot():
    f = success_probability(bell(), NoiseModel(1e-3, 1e-3))
    assert f == pytest.approx(((1 - 1e-3) * (1 - 1e-3)) ** 2, abs=1e-15)


def test_success_probability_matches_zero_insertion_frequency(rng):
    c = Circuit(2, [cnot(0, 1), cnot(0, 1)])
    model = NoiseModel(0.05, 0.03)
    want = success_probability(c, model)
    trials, clean = 20000, 0
    for _ in range(trials):
        clean += len(inject_noise(c, model, rng).gates) == 2
    mean = clean / trials
    sigma = math.sqrt(want * (1 - want) / trials)
    assert abs(mean - want) < 4 * sigma


# --- statevector and distributions ---------------------------------------------

def test_statevector_bell():
    psi = statevector(bell())
    want = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert np.max(np.abs(psi - want)) < 1e-12


def test_statevector_cap():
    # a register too wide to simulate is the user's input: exit 2, not 3
    with pytest.raises(InputError):
        statevector(Circuit(17, []))


@pytest.mark.parametrize("n, gates", [
    (0, []), (3, []), (3, [Barrier()]), (3, [Barrier((0, 2)), Barrier((1,))])])
def test_statevector_of_no_gate_is_the_phased_zero_state(n, gates):
    # the sweep joins its row before the first gate: a circuit that applies
    # none returns its start, times the global phase
    zero = np.zeros(2 ** n, dtype=complex)
    zero[0] = 1.0
    for phase in (1.0, -1j, np.exp(0.3j)):
        got = statevector(Circuit(n, gates, global_phase=phase))
        assert got.tobytes() == (phase * zero).tobytes()


@pytest.mark.parametrize("room", [0, noise.CALL_BYTES])
def test_forked_rows_leave_the_clean_row_a_lone_simulation(room):
    # samples whose rows join as copies of row 0 before their first error,
    # at a barrier's index too: row 0 stays, byte for byte, the state
    # vector of the clean circuit swept alone, and each forked row that of
    # its noisy instance; with and without the kernels built beforehand
    realized, _ = _ancilla_program()
    gates = realized.gates[:4] + [Barrier()] + realized.gates[4:]
    circuit = Circuit(realized.num_qubits, gates,
                      global_phase=realized.global_phase)
    n = circuit.num_qubits
    flips = {0: {3: [pauli_gate("X", 0)]},
             1: {3: [pauli_gate("Z", 1)], 9: [pauli_gate("Y", 3)]},
             2: {4: [pauli_gate("Y", 2), pauli_gate("X", 0)]},
             3: {len(gates) - 1: [pauli_gate("Z", 3)]}}
    batch = [(min(errors), s, errors) for s, errors in flips.items()]
    final = noise._replay(circuit, noise._kernels(circuit, room), batch)
    assert final.shape == (1 + len(batch), 2 ** n)
    assert final[0].tobytes() == statevector(circuit).tobytes()
    for (_, s, errors), psi in zip(batch, final[1:]):
        noisy = []
        for i, g in enumerate(gates):
            noisy.extend(errors.get(i, ()))
            noisy.append(g)
        noisy = Circuit(n, noisy, global_phase=circuit.global_phase)
        want = statevector(noisy)
        assert psi.tobytes() == want.tobytes(), s


def test_probabilities_trace_out_high_qubits():
    # ancilla-style third qubit in |+>, low two in Bell
    c = bell()
    c3 = Circuit(3, list(c.gates) + [hadamard(2)])
    p = probabilities(c3, num_bits=2)
    assert p == pytest.approx([0.5, 0, 0, 0.5], abs=1e-12)


def test_relative_error_definition():
    assert relative_error(0.95, 0.9) == pytest.approx(0.5)
    assert relative_error(0.9, 0.95) == pytest.approx(-1.0)
    assert math.isnan(relative_error(0.9, 1.0))


# --- Monte Carlo ----------------------------------------------------------------

def test_monte_carlo_zero_noise_is_near_one():
    c = bell()
    mc = monte_carlo_fidelity(c, c, NoiseModel(0.0, 0.0, seed=3),
                              samples=400, shots=40)
    # only shot noise remains; CI must include the sampling-limited optimum
    assert mc.fidelity > 0.95
    assert mc.ci_high >= mc.fidelity >= mc.ci_low


def test_monte_carlo_deterministic():
    c = bell()
    m = NoiseModel(5e-2, 5e-2, seed=11)
    a = monte_carlo_fidelity(c, c, m, samples=50, shots=20)
    b = monte_carlo_fidelity(c, c, m, samples=50, shots=20)
    assert a.fidelity == b.fidelity
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
    assert np.array_equal(a.bootstrap_fidelities, b.bootstrap_fidelities)
    c2 = monte_carlo_fidelity(c, c, NoiseModel(5e-2, 5e-2, seed=12),
                              samples=50, shots=20)
    assert c2.fidelity != a.fidelity


def test_monte_carlo_tracks_channel_fidelity():
    # one dephasing site whose exact output channel is computable by hand:
    # in H . CNOT . H, a Z error before the CNOT flips the final measurement
    c = Circuit(2, [hadamard(0), cnot(0, 1), hadamard(0)])
    model = NoiseModel(p_dephase=0.2, p_depol_tq=0.0, seed=7)
    mc = monte_carlo_fidelity(c, c, model, samples=4000, shots=50)
    # exact channel: Z on qubit 0 before the CNOT flips the final H output
    # bit with probability p (qubit 1's Z acts diagonally on |0>, harmless)
    ideal = probabilities(c)
    flipped = probabilities(
        Circuit(2, [hadamard(0),
                    SingleQubit(0, np.diag([1.0, -1.0]), "Z"),
                    cnot(0, 1), hadamard(0)]))
    p = model.p_dephase
    mixed = (1 - p) * ideal + p * flipped
    want = 1.0 - 0.5 * float(np.abs(mixed - ideal).sum())
    assert mc.ci_low - 0.02 <= want <= mc.ci_high + 0.02


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monte_carlo_draws_are_inject_noise_draws(seed):
    # the sampler's per-sample substream feeds inject_noise's draws and then
    # the shots, so replaying both by hand gives the merged counts exactly,
    # and with them the fidelity and every bootstrap replicate
    c = parse_qasm(MEASURED_BELL)
    model = NoiseModel(0.3, 0.3, seed)
    mc = monte_carlo_fidelity(c, c, model, samples=40, shots=7)
    fid, lo, hi, fids = _resimulated(c, c, model, 40, 7)
    assert (mc.fidelity, mc.ci_low, mc.ci_high) == (fid, lo, hi)
    assert np.array_equal(mc.bootstrap_fidelities, fids)


def _resimulated(circuit, input_circuit, model, samples, shots):
    """Reference sampler: every noisy instance simulated in full from
    |0...0>, then the per-replicate bootstrap loop over the drawn shots.
    Returns (fidelity, ci_low, ci_high, bootstrap fidelities)."""
    nb = input_circuit.num_qubits
    dim = 2 ** nb
    ideal = probabilities(input_circuit)
    drawn = np.empty((samples, shots), dtype=np.int64)
    for s in range(samples):
        rng = _substream(model.seed, s)
        p = probabilities(inject_noise(circuit, model, rng), nb)
        p = p / p.sum()
        drawn[s] = rng.choice(dim, size=shots, p=p)
    total = samples * shots
    merged = np.bincount(drawn.ravel(), minlength=dim) / total
    fid = 1.0 - 0.5 * float(np.abs(merged - ideal).sum())
    boot_rng = np.random.Generator(np.random.Philox(key=[model.seed, 2 ** 63]))
    fids = np.empty(BOOTSTRAP)
    for b in range(BOOTSTRAP):
        rows = boot_rng.integers(0, samples, size=samples)
        counts = np.bincount(drawn[rows].ravel(), minlength=dim) / total
        fids[b] = 1.0 - 0.5 * float(np.abs(counts - ideal).sum())
    q_lo, q_hi = np.percentile(fids, [2.5, 97.5])
    return fid, float(2 * fid - q_hi), float(2 * fid - q_lo), fids


def _assert_resimulated(circuit, input_circuit, model):
    # odd and even numbers of samples and of shots; an odd number of
    # samples leaves a half-word between the replicates' 32-bit draws.
    # Calls this small count their replicates through the per-sample
    # table: the budget tests below reach the shot-by-shot count
    for samples, shots in itertools.product((30, 31), (3, 9)):
        mc = monte_carlo_fidelity(circuit, input_circuit, model,
                                  samples=samples, shots=shots)
        fid, lo, hi, fids = _resimulated(circuit, input_circuit, model,
                                         samples, shots)
        assert (mc.fidelity, mc.ci_low, mc.ci_high) == (fid, lo, hi)
        assert np.array_equal(mc.bootstrap_fidelities, fids)


def test_bootstrap_chunks_equal_one_chunk(monkeypatch):
    # a budget of three replicates per chunk (the last chunk holds two)
    # holds the per-sample count table; one a byte short of that table
    # counts shot by shot, a replicate per chunk.  Both give every
    # replicate of the unchunked call, which takes the table
    circuit, input_circuit = _ancilla_program()
    model = NoiseModel(0.1, 0.1, seed=6)
    samples, dim = 31, 2 ** input_circuit.num_qubits
    for shots in (3, 9):
        whole = monte_carlo_fidelity(circuit, input_circuit, model,
                                     samples=samples, shots=shots)
        for budget in (3 * 32 * (samples + dim), 8 * samples * dim - 1):
            with monkeypatch.context() as m:
                m.setattr(noise, "CALL_BYTES", budget)
                chunked = monte_carlo_fidelity(circuit, input_circuit, model,
                                               samples=samples, shots=shots)
            assert (chunked.fidelity, chunked.ci_low, chunked.ci_high) == \
                (whole.fidelity, whole.ci_low, whole.ci_high)
            assert np.array_equal(chunked.bootstrap_fidelities,
                                  whole.bootstrap_fidelities)


def test_bootstrap_chunks_fit_the_budget(monkeypatch):
    # 200 replicates of 5000 picks would take about 32 MB at once; under a
    # 1 MB budget they are drawn a few at a time
    c = Circuit(1, [hadamard(0)])
    model = NoiseModel(0.0, 0.0, seed=1)
    monkeypatch.setattr(noise, "CALL_BYTES", 2 ** 20)
    monte_carlo_fidelity(c, c, model, samples=1, shots=2)   # first-call costs
    tracemalloc.start()
    try:
        monte_carlo_fidelity(c, c, model, samples=5000, shots=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_bootstrap_count_table_fits_the_budget(monkeypatch):
    # 5000 samples of 8 outcomes make a 320 KB count table, within a 1 MB
    # budget although the 6 shots are fewer than the outcomes: 200
    # replicates' picks of it would take about 32 MB at once, and are
    # drawn and multiplied a few replicates at a time
    c = Circuit(3, [hadamard(0), hadamard(1), hadamard(2)])
    model = NoiseModel(0.0, 0.0, seed=1)
    monkeypatch.setattr(noise, "CALL_BYTES", 2 ** 20)
    monte_carlo_fidelity(c, c, model, samples=1, shots=2)   # first-call costs
    tracemalloc.start()
    try:
        monte_carlo_fidelity(c, c, model, samples=5000, shots=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


@pytest.mark.parametrize("kind", ["measured-input", "ancilla-program"])
def test_smallest_budgets_equal_full_resimulation(monkeypatch, kind):
    # a one-byte budget puts every budgeted part at its floor: sweeps of
    # one sample beside the clean row, no kernel built ahead, draw chunks
    # of one sample and bootstrap chunks of one replicate, counted shot by
    # shot
    if kind == "measured-input":
        circuit = input_circuit = parse_qasm(MEASURED_BELL)
    else:
        circuit, input_circuit = _ancilla_program()
    monkeypatch.setattr(noise, "CALL_BYTES", 1)
    _assert_resimulated(circuit, input_circuit, NoiseModel(0.1, 0.1, seed=8))


def test_input_side_reuses_its_clean_run_as_the_ideal(monkeypatch):
    # monte_carlo_fidelity(c, c, ...) takes the ideal from its clean run,
    # never from probabilities, with the bits of simulating the input
    # again (which a distinct but equal input circuit still does)
    from pathlib import Path
    from pgmq.qasm import parse_qasm_file
    root = Path(__file__).resolve().parent.parent
    real = noise.probabilities
    for path in sorted((root / "benchmarks").glob("*.qasm")):
        c = parse_qasm_file(path)
        twin = Circuit(c.num_qubits, list(c.gates), c.classical_bits,
                       c.global_phase, c.measures)
        model = NoiseModel(2e-2, 2e-2, seed=3)
        want = monte_carlo_fidelity(c, twin, model, samples=12, shots=5)

        def refused(circuit, num_bits=None):
            assert circuit is not c
            return real(circuit, num_bits)

        with monkeypatch.context() as m:
            m.setattr(noise, "probabilities", refused)
            got = monte_carlo_fidelity(c, c, model, samples=12, shots=5)
        assert (got.fidelity, got.ci_low, got.ci_high) == \
            (want.fidelity, want.ci_low, want.ci_high), path.stem
        assert got.bootstrap_fidelities.tobytes() == \
            want.bootstrap_fidelities.tobytes(), path.stem


def _ancilla_program():
    c = Circuit(3, [hadamard(0), hadamard(1), hadamard(2),
                    ZzRotation(0.4, 0, 1), ZzRotation(0.4, 1, 2),
                    ZzRotation(0.4, 0, 2), cnot(2, 0), hadamard(1),
                    ZzRotation(0.3, 0, 1), cnot(1, 2), hadamard(0),
                    ZzRotation(0.7, 0, 2), cnot(0, 1)])
    realized = optimize(c, CompileOptions(scheme=ANCILLA_MERGED)) \
        .realized_circuit()
    assert realized.num_qubits == 4      # the ancilla is traced out
    return realized, c


@pytest.mark.parametrize("p_dephase, p_depol", [
    (1e-3, 1e-3), (2e-2, 2e-2), (0.3, 0.3),
    (1.0, 0.0),                     # every sample errs at the first site
])
@pytest.mark.parametrize("kind", ["measured-input", "ancilla-program"])
def test_monte_carlo_equals_full_resimulation(kind, p_dephase, p_depol):
    if kind == "measured-input":
        circuit = input_circuit = parse_qasm(MEASURED_BELL)
    else:
        circuit, input_circuit = _ancilla_program()
    for seed in range(3):
        _assert_resimulated(circuit, input_circuit,
                            NoiseModel(p_dephase, p_depol, seed))


def test_monte_carlo_builds_kernels_within_the_budget(monkeypatch):
    # a budget of six states: the sweep's two buffers take four (the clean
    # row and one sample each), leaving two states' worth of kernel tables;
    # the gates past that build their kernel at each application, and the
    # result is still that of re-simulating every sample
    circuit, input_circuit = _ancilla_program()
    state = 16 * 2 ** circuit.num_qubits
    monkeypatch.setattr(noise, "CALL_BYTES", 6 * state)
    built = []
    real = noise._kernels

    def spy(circuit, room):
        built.append((room, real(circuit, room)))
        return built[-1][1]

    monkeypatch.setattr(noise, "_kernels", spy)
    _assert_resimulated(circuit, input_circuit, NoiseModel(0.1, 0.1, seed=5))
    room, ops = built[0]
    assert room == 2 * state
    held = [op for op in ops if isinstance(op, Kernel)]
    assert held and len(held) < len(ops)
    assert sum(k.table.nbytes for k in held) <= 2 * state


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("kind", ["measured-input", "ancilla-program"])
def test_replay_batches_equal_full_resimulation(monkeypatch, kind, rows):
    # sweeps of one to three sample rows beside the clean row, and windows
    # of every size from one erroneous sample up: each sample's row forks
    # from the clean row at its first error, with the bits of replaying
    # every sample alone
    if kind == "measured-input":
        circuit = input_circuit = parse_qasm(MEASURED_BELL)
    else:
        circuit, input_circuit = _ancilla_program()
    monkeypatch.setattr(noise, "CALL_BYTES",
                        4 * (1 + rows) * 16 * 2 ** circuit.num_qubits)
    for window in (1, 5, noise.REPLAY_WINDOW):
        monkeypatch.setattr(noise, "REPLAY_WINDOW", window)
        _assert_resimulated(circuit, input_circuit,
                            NoiseModel(0.1, 0.1, seed=rows))


@pytest.mark.parametrize("rows", [1, 2, 3, 64])
def test_replayed_states_are_full_simulations(monkeypatch, rows):
    # each replayed final state, byte for byte, against simulating its
    # noisy instance from |0...0>: the fidelity sees the states only
    # through the shots' search in their distributions, which a change in
    # the last bits rarely moves
    circuit, input_circuit = _ancilla_program()
    model = NoiseModel(0.1, 0.1, seed=7)
    monkeypatch.setattr(noise, "CALL_BYTES",
                        4 * (1 + rows) * 16 * 2 ** circuit.num_qubits)
    replayed = {}
    real = noise._replay

    def spy(circuit, ops, batch):
        # row 0 is the clean run, the samples' rows follow it
        final = real(circuit, ops, batch)
        replayed.update((s, psi.tobytes()) for (_, s, _), psi
                        in zip(batch, final[1:]))
        return final

    monkeypatch.setattr(noise, "_replay", spy)
    monte_carlo_fidelity(circuit, input_circuit, model, samples=40, shots=3)
    assert 20 < len(replayed) < 40
    for s, got in replayed.items():
        noisy = inject_noise(circuit, model, _substream(model.seed, s))
        assert got == statevector(noisy).tobytes(), s


@pytest.mark.parametrize("rows", [4, None])
def test_one_sweep_per_batch_and_no_separate_clean_run(monkeypatch, rows):
    # row 0 of every sweep is the clean run: a call where no sample errs
    # sweeps it alone, and one whose k erroneous samples fill one window
    # sweeps ceil(k / (rows - 1)) times, rows - 1 samples in all but the
    # last; at the default budget this 4-qubit program sweeps them at once
    circuit, _ = _ancilla_program()
    if rows is not None:
        monkeypatch.setattr(noise, "CALL_BYTES",
                            4 * rows * 16 * 2 ** circuit.num_qubits)
    sweeps = []
    real = noise._replay

    def spy(circuit, ops, batch):
        sweeps.append(len(batch))
        return real(circuit, ops, batch)

    monkeypatch.setattr(noise, "_replay", spy)
    monte_carlo_fidelity(circuit, circuit, NoiseModel(0.0, 0.0), 40, 3)
    assert sweeps == [0]
    sweeps.clear()
    model = NoiseModel(2e-2, 2e-2, seed=0)
    k = len(list(_draw(_slots(_noise_sites(circuit, model)), model,
                       _substreams(model.seed), np.empty((40, 3)))))
    assert 3 < k < 40
    monte_carlo_fidelity(circuit, circuit, model, 40, 3)
    per = k if rows is None else rows - 1
    assert sweeps == [per] * (k // per) + [k % per] * (k % per > 0)


@pytest.mark.parametrize("scheme", [AUTO, ANCILLA_MERGED])
def test_benchmark_program_equals_full_resimulation(scheme):
    # the sampler benchmark's own circuit at its high error rate, compiled
    # under auto and forced onto the ancilla
    from pathlib import Path
    from pgmq.qasm import parse_qasm_file
    root = Path(__file__).resolve().parent.parent
    c = parse_qasm_file(root / "benchmarks" / "qaoa_n6.qasm")
    realized = optimize(c, CompileOptions(scheme=scheme)).realized_circuit()
    _assert_resimulated(realized, c, NoiseModel(2e-2, 2e-2, seed=1))


def test_replay_batches_fit_the_budget(monkeypatch):
    # nearly all 200 samples of a 10-qubit chain err: replayed together,
    # their two row buffers would take 6.4 MB; under a 1 MB budget a sweep
    # holds 16 rows (256 KB a buffer), and the call's peak stays near its
    # other budgets (kernels in the rest of that 1 MB, the draw and the
    # bootstrap chunks)
    from conftest import chain_circuit
    c = chain_circuit(10, steps=1)
    model = NoiseModel(0.3, 0.3, seed=2)
    monkeypatch.setattr(noise, "CALL_BYTES", 2 ** 20)
    monte_carlo_fidelity(c, c, model, samples=1, shots=2)   # first-call costs
    tracemalloc.start()
    try:
        monte_carlo_fidelity(c, c, model, samples=200, shots=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_monte_carlo_refuses_sample_shots_above_the_cap():
    # the call holds 16 bytes per sample-shot: above the cap it is refused
    # before any of them is allocated; at the cap it would proceed
    samples, shots = noise.MAX_SAMPLE_SHOTS // 4 + 1, 4
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="above the Monte Carlo cap"):
            monte_carlo_fidelity(bell(), bell(), NoiseModel(),
                                 samples=samples, shots=shots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_monte_carlo_mismatched_register_rejected():
    # a program narrower than its input is the caller's mistake: exit 2
    with pytest.raises(InputError, match="smaller than the input's 2"):
        monte_carlo_fidelity(Circuit(1, []), Circuit(2, []),
                             NoiseModel(), samples=1, shots=1)


@pytest.mark.parametrize("samples, shots", [(5, 0), (0, 5), (3, -1)])
def test_monte_carlo_needs_a_sample_and_a_shot(samples, shots):
    # zero shots used to divide 0 by 0 and report a NaN fidelity
    with pytest.raises(InputError):
        monte_carlo_fidelity(bell(), bell(), NoiseModel(),
                             samples=samples, shots=shots)


def test_relative_error_ci_sign():
    c = bell()
    deep = Circuit(2, [hadamard(0)] + [cnot(0, 1), cnot(0, 1)] * 3
                   + [cnot(0, 1)])
    m = NoiseModel(2e-2, 2e-2, seed=5)
    mc_inp = monte_carlo_fidelity(deep, c, m, samples=2000, shots=50)
    mc_comp = monte_carlo_fidelity(c, c, m, samples=2000, shots=50)
    eps, lo, hi = relative_error_ci(mc_comp, mc_inp)
    assert lo <= eps <= hi
    assert eps > 0  # shallower circuit is strictly better here


def _relative_error_ci_by_pairs(mc_comp, mc_inp):
    """Reference: relative_error_ci over a Python list of replicate pairs."""
    eps = relative_error(mc_comp.fidelity, mc_inp.fidelity)
    reps = np.array([relative_error(fc, fi)
                     for fc, fi in zip(mc_comp.bootstrap_fidelities,
                                       mc_inp.bootstrap_fidelities)])
    q_lo, q_hi = np.percentile(reps, [2.5, 97.5])
    return eps, float(2 * eps - q_hi), float(2 * eps - q_lo)


@pytest.mark.parametrize("p, seed, ideal", [
    (5e-2, 9, 0),
    (0.0, 9, BOOTSTRAP),    # noiseless: every input replicate is ideal
    (1e-3, 0, 64),          # ... and here some of them are
])
def test_relative_error_ci_is_list_form(p, seed, ideal):
    # a deterministic input (|11>), so a replicate without an error sample
    # scores exactly 1 and its relative error is NaN
    c = Circuit(2, [SingleQubit(0, np.array([[0, 1], [1, 0]]), "x"),
                    cnot(0, 1)])
    deep = Circuit(2, list(c.gates) + [cnot(0, 1), cnot(0, 1)])
    m = NoiseModel(p, p, seed)
    mc_inp = monte_carlo_fidelity(deep, c, m, samples=40, shots=20)
    mc_comp = monte_carlo_fidelity(c, c, m, samples=40, shots=20)
    assert np.sum(mc_inp.bootstrap_fidelities >= 1.0) == ideal
    got = relative_error_ci(mc_comp, mc_inp)
    assert np.array_equal(got, _relative_error_ci_by_pairs(mc_comp, mc_inp),
                          equal_nan=True)
    assert all(map(math.isnan, got)) == (ideal == BOOTSTRAP)


def test_monte_carlo_result_to_dict_roundtrip():
    r = MonteCarloResult(0.9, 0.85, 0.95, 10, 5, 3)
    d = r.to_dict()
    assert d["fidelity"] == 0.9
    assert d["ci95"] == [0.85, 0.95]


def test_compiled_program_fidelity_with_ancilla():
    # a realization whose ancilla carries gates is scored over the input
    # register only: noiselessly, just shot noise separates it from ideal
    realized, c = _ancilla_program()
    mc = monte_carlo_fidelity(realized, c, NoiseModel(0.0, 0.0, seed=2),
                              samples=100, shots=100)
    assert mc.fidelity > 0.9
