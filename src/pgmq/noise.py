"""Stochastic Pauli noise injection and fidelity estimation.

Noise model: before every entangling gate, each participating qubit
independently picks up a Z error (dephasing) with a fixed probability, and a
uniformly random Pauli error (depolarization) with a probability scaled by
the gate's nuclear norm relative to a fully entangling two-qubit gate.
Single-qubit gates are noiseless.

`_noise_sites` decides once per circuit where errors can fire: a table from
each entangling gate's index to its participating qubits and its
depolarization rate.  The closed-form success probability (the chance that
no error fires anywhere) is a product over that table.  `_draw`, the one
draw loop, picks the Pauli errors of one noisy instance from the table;
`inject_noise` inserts them into the circuit.

One sweep, `_replay`, advances every state vector: a batch of rows, each
gate's kernel (`circuit.gate_kernel`) applied once to all of them.  The
Monte Carlo sampler's clean run and `statevector` are one-row sweeps from
|0...0>.  The sampler simulates the clean circuit once per call, keeping
copies (the sweep's two buffers swap) of the state before the noise sites,
as many as fit in `CHECKPOINT_BYTES`, evenly spaced.  It builds each gate's
kernel once per call too, in what is left of that budget, for the clean run
and every replay.  A sample that draws no error reuses the clean bitstring
distribution; any other sample restarts from the last checkpoint at or
before its first error and replays only the rest of the circuit with its
errors inserted.  The erroneous samples are replayed together: sorted by
their checkpoint (`REPLAY_WINDOW` of them at a time), they become the rows
of sample-major batches of at most `REPLAY_BYTES`, sized to cache, so one
sweep applies each gate's kernel once to all its joined rows
(`circuit.gate_apply_rows`).  The batch is sample-major because each row
then gets a single state vector's arithmetic (a column-major batch would
change the one-qubit matmul's blocking and so the bits).  Gates are applied
in the same order and with the same arithmetic as a full simulation of the
noisy instance, so results are bit-for-bit those of re-simulating every
sample, and the cost grows with the error rate, not with samples times
gates.  A call holds a double and an index per sample-shot, and refuses
more than `MAX_SAMPLE_SHOTS` of them.  When the program is the
input circuit itself, its clean run also gives the ideal distribution.
Each sample draws from its own counter-based Philox substream, so the
result is reproducible regardless of evaluation order; its distribution is
compared to the ideal one via total variation distance.  The shots are
drawn in whole arrays (one search of each sample's doubles in its
cumulative distribution, one for all error-free samples) and so are the
bootstrap replicates (one draw of every replicate's rows per
memory-bounded chunk), with results bit for bit those of drawing them one
by one with `Generator.choice` and `Generator.integers`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (STATEVECTOR_CAP, Barrier, Circuit, InputError, Kernel,
                      gate_apply, gate_apply_rows, gate_kernel, pauli_gate)
from .cost import FULL_TQ_PHASE, gate_norm

CHECKPOINT_BYTES = 32 * 2 ** 20     # clean-run states kept per sampler call
REPLAY_BYTES = 64 * 2 ** 10         # one batch of replayed samples, cache-sized
REPLAY_WINDOW = 4096                # erroneous samples sorted per replay
MAX_SAMPLE_SHOTS = 2 ** 26          # samples x shots of one sampler call
BOOTSTRAP = 200                     # resamplings behind the Monte Carlo CI
_PAULI_CHOICES = ("X", "Y", "Z")


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit error probabilities attached to entangling gates."""

    p_dephase: float = 1e-3
    p_depol_tq: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("p_dephase", "p_depol_tq"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {p}")
        if not 0 <= self.seed <= 2 ** 63 - 1:
            raise InputError(f"seed must lie in [0, 2^63), got {self.seed}")


def _depol_rate(nu: float, model: NoiseModel) -> float:
    """Per-qubit depolarization probability of a gate of nuclear norm `nu`:
    the fully entangling two-qubit rate scaled by the norm ratio."""
    if nu == 0.0:
        return 0.0
    return min(1.0, model.p_depol_tq * nu / FULL_TQ_PHASE)


def _as_circuit(program) -> Circuit:
    if isinstance(program, Circuit):
        return program
    return program.realized_circuit()


def _noise_sites(circuit: Circuit, model: NoiseModel) -> dict:
    """Noise-site table: the index of every entangling gate, in time order,
    mapped to (its participating qubits ascending, its depolarization rate)."""
    sites = {}
    for i, g in enumerate(circuit.gates):
        nu = gate_norm(g)
        if nu > 0.0:
            sites[i] = tuple(sorted(set(g.qubits))), _depol_rate(nu, model)
    return sites


def _slots(sites: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (site, qubit) slots of a site table in draw order: each slot's
    gate index, qubit and depolarization rate."""
    site = [i for i, (qubits, _) in sites.items() for _ in qubits]
    qubit = [q for qubits, _ in sites.values() for q in qubits]
    p_dep = [p for qubits, p in sites.values() for _ in qubits]
    return (np.array(site, dtype=int), np.array(qubit, dtype=int),
            np.array(p_dep, dtype=float))


def _draw(slots: tuple, model: NoiseModel, rng) -> dict:
    """The Pauli errors of one noisy instance: each site's index, in time
    order, mapped to the error gates inserted before its gate (sites that
    drew none are left out).  Draw order is fixed (time-major, then
    qubit-major, dephasing before depolarization) for reproducibility.

    Each slot draws a dephasing and a depolarization double, and a
    depolarized slot then draws its Pauli.  The doubles are drawn in one
    block up to the first depolarized slot and slot by slot from there on,
    so the stream is that of drawing slot by slot throughout."""
    site, qubit, p_dep = slots
    p_z = model.p_dephase
    errors: dict = {}

    def add(i: int, q: int, axis: str) -> None:
        errors.setdefault(i, []).append(pauli_gate(axis, q))

    state = rng.bit_generator.state
    u = rng.random(2 * site.size).reshape(-1, 2)
    hits = np.flatnonzero(u[:, 1] < p_dep)
    first = int(hits[0]) if hits.size else site.size
    for k in np.flatnonzero(u[:first, 0] < p_z).tolist():
        add(int(site[k]), int(qubit[k]), "Z")
    if hits.size:
        # rewind to the first depolarized slot's doubles and go on slot by
        # slot: its Pauli is drawn right after them
        rng.bit_generator.state = state
        rng.random(2 * first)
        for i, q, p in zip(*(a[first:].tolist() for a in slots)):
            if rng.random() < p_z:
                add(i, q, "Z")
            if rng.random() < p:
                add(i, q, _PAULI_CHOICES[rng.integers(3)])
    return errors


def inject_noise(program, model: NoiseModel, rng) -> Circuit:
    """One noisy instance: the circuit with random Pauli errors inserted
    before each entangling gate (single-qubit gates stay noiseless)."""
    circuit = _as_circuit(program)
    errors = _draw(_slots(_noise_sites(circuit, model)), model, rng)
    gates = []
    for i, g in enumerate(circuit.gates):
        gates.extend(errors.get(i, ()))
        gates.append(g)
    return Circuit(circuit.num_qubits, gates, circuit.classical_bits,
                   circuit.global_phase, circuit.measures)


def success_probability(program, model: NoiseModel) -> float:
    """Closed-form fidelity estimate: the probability that no error fires at
    any (entangling gate, participating qubit) site."""
    f = 1.0
    for qubits, p_dep in _noise_sites(_as_circuit(program), model).values():
        f *= ((1.0 - model.p_dephase) * (1.0 - p_dep)) ** len(qubits)
    return f


# ---------------------------------------------------------------------------
# Statevector simulation
# ---------------------------------------------------------------------------

def _replay(circuit: Circuit, ops: list, starts: dict, batch: list,
            keep: dict | None = None) -> np.ndarray:
    """The final states of a batch of samples, one row each: the one state
    vector sweep behind the clean run, `statevector` and the replays.

    `ops` holds what is applied in place of each gate (see `_kernels`), and
    `batch` each sample's (start, sample, errors), in ascending start.  The
    rows form one sample-major (m, 2^n) array; a row joins, a copy of
    `starts[start]` (the state before gate `start`), when the sweep reaches
    its start, and gets its errors (see `_draw`) before the gate they
    precede.  Each gate's kernel is then applied once to all joined rows,
    written into a second buffer that swaps with the first
    (`circuit.gate_apply_rows`), so every row holds the bits of simulating
    its noisy instance alone, gate by gate through `gate_apply`.  For every
    gate index that is a key of `keep`, a copy of the joined rows before
    that gate (in a one-row sweep, its state vector) is stored there."""
    n = circuit.num_qubits
    joins: dict = {}        # gate index -> number of rows joining there
    pending: dict = {}      # gate index -> [(row, its errors before it)]
    for r, (start, _, errors) in enumerate(batch):
        joins[start] = joins.get(start, 0) + 1
        for i, gates in errors.items():
            pending.setdefault(i, []).append((r, gates))
    # the sweep stops before each gate where a row joins, gets errors or
    # is kept, and runs the gates up to the next stop in one tight loop
    stops = sorted(joins.keys() | pending.keys() | (keep or {}).keys())
    cur = np.empty((len(batch), 2 ** n), dtype=complex)
    nxt = np.empty_like(cur)
    joined = 0
    for i, end in zip(stops, stops[1:] + [len(ops)]):
        if i in joins:
            cur[joined:joined + joins[i]] = starts[i]
            joined += joins[i]
            # a lone row goes to the kernels as a vector: no broadcasting
            rows, out = (cur[0], nxt[0]) if joined == 1 \
                else (cur[:joined], nxt[:joined])
        for r, gates in pending.get(i, ()):
            for e in gates:
                cur[r] = gate_apply(cur[r], e, n)
        if keep is not None and i in keep:
            keep[i] = rows.copy()
        for op in ops[i:end]:
            if isinstance(op, Barrier):
                continue
            gate_apply_rows(
                rows, out,
                op if isinstance(op, Kernel) else gate_kernel(op, n), n)
            cur, nxt, rows, out = nxt, cur, out, rows
    return np.multiply(circuit.global_phase, cur, out=nxt)


def _clean_run(circuit: Circuit, ops: list,
               keep: dict | None = None) -> np.ndarray:
    """U |0...0>, one row swept through `ops`, keeping the states `keep`
    asks for (see `_replay`)."""
    psi0 = _zero_state(circuit.num_qubits)
    return _replay(circuit, ops, {0: psi0}, [(0, None, {})], keep)[0]


def _kernels(circuit: Circuit, room: int) -> list:
    """Each gate's kernel, built once, in place of the gate while the
    kernels' tables fit in `room` bytes together; barriers and the gates past
    that stay themselves (their kernel is built at each application)."""
    n = circuit.num_qubits
    ops = list(circuit.gates)
    for i, g in enumerate(ops):
        if isinstance(g, Barrier):
            continue
        kernel = gate_kernel(g, n)
        if kernel.table.nbytes > room:
            break
        room -= kernel.table.nbytes
        ops[i] = kernel
    return ops


def check_simulable(n: int) -> None:
    """Refuse an n-qubit register (any ancilla included) wider than
    STATEVECTOR_CAP: the width comes from the user's input."""
    if n > STATEVECTOR_CAP:
        raise InputError(f"register of {n} qubits (any ancilla included) is "
                         f"above the statevector cap of {STATEVECTOR_CAP}")


def _zero_state(n: int) -> np.ndarray:
    check_simulable(n)
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    return psi


def statevector(circuit: Circuit) -> np.ndarray:
    """Final state |psi> = U |0...0>, the gates applied one by one in time
    order by the sampler's one-row sweep (`_replay`), not by the dense
    oracle's fused product."""
    return _clean_run(circuit, circuit.gates)


def _marginal(psi: np.ndarray, num_bits: int) -> np.ndarray:
    p = np.abs(psi) ** 2
    if 2 ** num_bits < p.size:
        p = p.reshape(-1, 2 ** num_bits).sum(axis=0)
    return p


def probabilities(circuit: Circuit, num_bits: int | None = None) -> np.ndarray:
    """Measurement probabilities over the low `num_bits` qubits (high qubits,
    e.g. an ancilla, are traced out)."""
    n = circuit.num_qubits
    return _marginal(statevector(circuit), n if num_bits is None else num_bits)


def relative_error(f_comp: float, f_inp: float) -> float:
    """Improvement of the compiled fidelity over the input fidelity, as a
    fraction of the input infidelity; NaN when the input is already ideal."""
    if f_inp >= 1.0:
        return math.nan
    return (f_comp - f_inp) / (1.0 - f_inp)


# ---------------------------------------------------------------------------
# Monte Carlo fidelity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloResult:
    fidelity: float
    ci_low: float
    ci_high: float
    samples: int
    shots: int
    seed: int
    bootstrap_fidelities: np.ndarray = field(repr=False, default=None,
                                             compare=False)

    def to_dict(self) -> dict:
        return {"fidelity": self.fidelity,
                "ci95": [self.ci_low, self.ci_high],
                "samples": self.samples, "shots": self.shots,
                "seed": self.seed}


def _substreams(seed: int, samples: int):
    """One generator per call, rekeyed in turn to each sample's substream:
    for sample s it yields the stream of a fresh Philox(key=[seed, s])
    (counter 0, empty buffer, no stored half-word) without seeding a new
    generator, which first reads OS entropy, per sample."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    fresh = rng.bit_generator.state
    for s in range(samples):
        fresh["state"]["key"][1] = s
        rng.bit_generator.state = fresh
        yield rng


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative distribution Generator.choice(p.size, p=p) searches."""
    c = (p / p.sum()).cumsum()
    c /= c[-1]
    return c


def _checkpoint_sites(sites: dict, n: int) -> list[int]:
    """Evenly spaced noise sites, the first included, whose pre-gate states
    of an n-qubit register fit in CHECKPOINT_BYTES together (at least one)."""
    order = list(sites)
    room = max(1, CHECKPOINT_BYTES // (16 * 2 ** n))
    return order[::max(1, -(-len(order) // room))]


def monte_carlo_fidelity(program, input_circuit: Circuit, model: NoiseModel,
                         samples: int = 1000,
                         shots: int = 10) -> MonteCarloResult:
    """Total-variation fidelity of the noisy program against the ideal
    distribution of `input_circuit`, averaged over `samples` noisy instances
    of `shots` measurement shots each, with a bootstrap 95% CI over
    BOOTSTRAP resamplings of the instances."""
    if samples < 1 or shots < 1:
        raise InputError(f"Monte Carlo needs at least one sample and one "
                         f"shot, got {samples} samples of {shots} shots")
    if samples * shots > MAX_SAMPLE_SHOTS:
        # the call holds a double and an index per sample-shot
        raise InputError(f"{samples} samples of {shots} shots are above the "
                         f"Monte Carlo cap of {MAX_SAMPLE_SHOTS} sample-shots")
    circuit = _as_circuit(program)
    num_bits = input_circuit.num_qubits
    if circuit.num_qubits < num_bits:
        raise InputError(f"program register of {circuit.num_qubits} qubits "
                         f"is smaller than the input's {num_bits}")
    dim = 2 ** num_bits
    seed = model.seed

    sites = _noise_sites(circuit, model)
    slots = _slots(sites)
    check_simulable(circuit.num_qubits)
    state_bytes = 16 * 2 ** circuit.num_qubits
    # the clean run keeps the state before each checkpoint site; a sample
    # restarts from the last one at or before its first error
    checkpoints = dict.fromkeys(_checkpoint_sites(sites, circuit.num_qubits))
    starts = list(checkpoints)
    # the gates' kernels share the checkpoints' memory budget
    ops = _kernels(circuit, CHECKPOINT_BYTES - state_bytes * len(checkpoints))

    clean = _marginal(_clean_run(circuit, ops, checkpoints), num_bits)
    clean_cdf = _cdf(clean)
    # a program that is the input itself (the input side of `pgmq simulate
    # --input`) has its clean run for the ideal: the same gates through the
    # same kernels, so the same bits as simulating the input again
    ideal = clean if circuit is input_circuit else probabilities(input_circuit)
    u = np.empty((samples, shots))
    drawn = np.empty((samples, shots), dtype=np.int64)
    error_free = np.ones(samples, dtype=bool)
    # the erroneous samples are replayed REPLAY_WINDOW at a time, sorted by
    # their checkpoint start so that each batch sweeps as few gates as it can
    per_batch = max(1, REPLAY_BYTES // state_bytes)
    window: list = []

    def replay():
        window.sort(key=lambda entry: entry[0])
        for b in range(0, len(window), per_batch):
            batch = window[b:b + per_batch]
            final = _replay(circuit, ops, checkpoints, batch)
            for (_, k, _), psi in zip(batch, final):
                drawn[k] = _cdf(_marginal(psi, num_bits)).searchsorted(
                    u[k], side="right")
        window.clear()

    for s, rng in enumerate(_substreams(seed, samples)):
        errors = _draw(slots, model, rng)
        rng.random(out=u[s])
        if errors:
            start = starts[bisect.bisect_right(starts, min(errors)) - 1]
            window.append((start, s, errors))
            error_free[s] = False
            if len(window) == REPLAY_WINDOW:
                replay()
    replay()
    drawn[error_free] = clean_cdf.searchsorted(u[error_free], side="right")
    del u

    total = samples * shots
    merged = np.bincount(drawn.ravel(), minlength=dim) / total
    fid = 1.0 - 0.5 * float(np.abs(merged - ideal).sum())

    if dim <= shots:
        # per-sample shot counts, no larger than the shots themselves: a
        # replicate's counts are then one product with how often it picked
        # each sample (whole numbers below 2**53, so exact in floating point)
        table = np.bincount((drawn + dim * np.arange(samples)[:, None]).ravel(),
                            minlength=samples * dim).reshape(samples, dim)
        table = table.astype(float)

        def replicate_counts(rows):
            k = len(rows)
            picks = np.bincount((rows + samples * np.arange(k)[:, None]).ravel(),
                                minlength=k * samples).reshape(k, samples)
            return picks @ table
    else:
        def replicate_counts(rows):
            return np.array([np.bincount(drawn[r].ravel(), minlength=dim)
                             for r in rows])

    # the replicates a chunk at a time within CHECKPOINT_BYTES, each taking
    # about 32 bytes per sample (rows, offsets, picks as integers and as
    # doubles) and per outcome (counts and three temporaries); one draw of
    # (k, samples) is the stream of k draws of `samples`
    boot_rng = np.random.Generator(np.random.Philox(key=[seed, 2 ** 63]))
    chunk = max(1, CHECKPOINT_BYTES // (32 * (samples + dim)))
    fids = np.empty(BOOTSTRAP)
    for b in range(0, BOOTSTRAP, chunk):
        k = min(chunk, BOOTSTRAP - b)
        counts = replicate_counts(boot_rng.integers(0, samples,
                                                    size=(k, samples)))
        fids[b:b + k] = 1.0 - 0.5 * np.abs(counts / total - ideal).sum(axis=1)
    # basic (reversed-percentile) bootstrap: resampling re-adds shot noise,
    # which biases the convex TVD statistic down; reflection corrects this
    q_lo, q_hi = np.percentile(fids, [2.5, 97.5])
    lo, hi = 2 * fid - q_hi, 2 * fid - q_lo
    return MonteCarloResult(fid, float(lo), float(hi), samples, shots, seed,
                            fids)
