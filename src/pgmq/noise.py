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
draw routine, picks the Pauli errors of a batch of noisy instances from the
table, each from its own stream: every sample's slot doubles and shot
doubles are one row, drawn in one call, and the hits of a memory-bounded
chunk of rows are found over the whole samples x slots table at once.  Only
a sample that a slot depolarizes goes on in Python, slot by slot from that
slot, since the Pauli it draws there moves every double after it.
`inject_noise` draws a batch of one from its generator and inserts the
errors into the circuit.

One sweep, `_replay`, advances every state vector: a batch of rows, each
gate's kernel (`circuit.gate_kernel`) applied once to all of them.  Row 0
of every sweep is the clean run from |0...0>; `statevector` is a sweep of
that row alone.  The Monte Carlo sampler builds each gate's kernel once per
call, within `CALL_BYTES` less the sweep's two row buffers.  A sample that
draws no error reuses the clean bitstring distribution.  The other samples
are sorted by their first error (`REPLAY_WINDOW` of them at a time) and
become the later rows of sweeps whose buffers take at most a quarter of
`CALL_BYTES` each: a sample's row joins as a copy of row 0 before the gate
of its first error, so it computes only the rest of the circuit, with its
errors inserted.  The clean distribution is row 0 of the last sweep, or of
a sweep of its own when no sample errs.  The batch is sample-major because
each row then gets a single state vector's arithmetic
(`circuit.gate_apply_rows`; a column-major batch would change the one-qubit
matmul's blocking and so the bits).  Gates are applied in the same order
and with the same arithmetic as a full simulation of the noisy instance, so
results are bit-for-bit those of re-simulating every sample, and the cost
grows with the error rate, not with samples times gates.  A call holds a
double and an index per sample-shot, and refuses more than
`MAX_SAMPLE_SHOTS` of them.  When the program is the input circuit itself,
its clean run also gives the ideal distribution.
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

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (STATEVECTOR_CAP, Barrier, Circuit, InputError, Kernel,
                      gate_apply, gate_apply_rows, gate_kernel, pauli_gate)
from .cost import FULL_TQ_PHASE, gate_norm

CALL_BYTES = 32 * 2 ** 20           # each memory budget of a sampler call
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


def _draw(slots: tuple, model: NoiseModel, rekey, u: np.ndarray):
    """The noise of u.shape[0] samples, sample s drawn from the stream that
    `rekey(s)` sets its generator to: fills u[s] with the sample's shot
    doubles and yields (s, errors) for every sample that draws an error, in
    sample order.  Its errors map each site's index, in time order, to the
    error gates inserted before its gate (sites that drew none are left
    out).  Draw order is fixed (time-major, then qubit-major, dephasing
    before depolarization) for reproducibility.

    Each slot draws a dephasing and a depolarization double, a depolarized
    slot then draws its Pauli, and the shots come last.  Up to a sample's
    first depolarized slot its stream is one block of doubles, so each
    sample draws a row of 2 per slot and then its shots in one call, and
    the hits of a chunk of samples are found over the whole samples x
    slots table at once.  A sample that no slot depolarizes is done there;
    one that a slot does is rekeyed, skips the doubles before that slot,
    and draws slot by slot from it and then its shots, so every stream is
    that of drawing slot by slot throughout.  A chunk holds at most
    REPLAY_WINDOW rows and CALL_BYTES of doubles (at least one row)."""
    sites, qubits, rates = (a.tolist() for a in slots)
    p_dep = slots[2]
    p_z = model.p_dephase
    samples, shots = u.shape
    n_slots = len(sites)
    width = 2 * n_slots + shots
    chunk = max(1, min(REPLAY_WINDOW, samples,
                       CALL_BYTES // (8 * max(1, width))))
    block = np.empty((chunk, width))
    for b in range(0, samples, chunk):
        rows = block[:min(chunk, samples - b)]
        for s, row in enumerate(rows, b):
            rekey(s).random(out=row)
        u[b:b + len(rows)] = rows[:, 2 * n_slots:]
        table = rows[:, :2 * n_slots].reshape(len(rows), n_slots, 2)
        # each row's first depolarized slot, n_slots if none: a column of
        # hits past the last slot ends every row's search
        dep = np.ones((len(rows), n_slots + 1), dtype=bool)
        np.less(table[:, :, 1], p_dep, out=dep[:, :-1])
        first = dep.argmax(axis=1)
        z = (table[:, :, 0] < p_z) & (np.arange(n_slots) < first[:, None])
        for r in np.flatnonzero(z.any(axis=1) | (first < n_slots)).tolist():
            s, f = b + r, int(first[r])
            hits = [(sites[k], qubits[k], "Z")
                    for k in np.flatnonzero(z[r]).tolist()]
            if f < n_slots:
                # the depolarized slot's Pauli is drawn right after its
                # doubles and moves every double after it
                rng = rekey(s)
                rng.random(2 * f)
                for i, q, p in zip(sites[f:], qubits[f:], rates[f:]):
                    if rng.random() < p_z:
                        hits.append((i, q, "Z"))
                    if rng.random() < p:
                        hits.append((i, q, _PAULI_CHOICES[rng.integers(3)]))
                rng.random(out=u[s])
            errors: dict = {}
            for i, q, axis in hits:
                errors.setdefault(i, []).append(pauli_gate(axis, q))
            yield s, errors


def _draw_one(slots: tuple, model: NoiseModel, rng) -> dict:
    """The errors of one noisy instance drawn from `rng`: `_draw` on a batch
    of one sample with no shots, rekeyed by rewinding `rng` to where it
    stood.  `rng` is left where drawing slot by slot leaves it."""
    state = rng.bit_generator.state

    def rewind(_: int):
        rng.bit_generator.state = state
        return rng

    return dict(_draw(slots, model, rewind, np.empty((1, 0)))).get(0, {})


def inject_noise(program, model: NoiseModel, rng) -> Circuit:
    """One noisy instance: the circuit with random Pauli errors inserted
    before each entangling gate (single-qubit gates stay noiseless)."""
    circuit = _as_circuit(program)
    errors = _draw_one(_slots(_noise_sites(circuit, model)), model, rng)
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

def _replay(circuit: Circuit, ops: list, batch: list) -> np.ndarray:
    """The final states of a sweep, one row each: row 0 is the clean run,
    the next rows are the samples of `batch`.  This one state vector sweep
    is behind `statevector` and the sampler.

    `ops` holds what is applied in place of each gate (see `_kernels`), and
    `batch` each sample's (first error, sample, errors), in ascending first
    error.  Row 0 starts at |0...0>, alone as a vector.  The rows form one
    sample-major (m, 2^n) array; a sample's row joins as a copy of row 0
    when the sweep reaches its first error, and gets its errors (see
    `_draw`) before the gate they precede.  Each gate's kernel is then
    applied once to all joined rows, written into a second buffer that
    swaps with the first (`circuit.gate_apply_rows`), so every row holds
    the bits of simulating its instance alone, gate by gate through
    `gate_apply`."""
    n = circuit.num_qubits
    check_simulable(n)
    joins: dict = {}        # gate index -> number of rows joining there
    pending: dict = {}      # gate index -> [(row, its errors before it)]
    for r, (first, _, errors) in enumerate(batch, 1):
        joins[first] = joins.get(first, 0) + 1
        for i, gates in errors.items():
            pending.setdefault(i, []).append((r, gates))
    # the sweep stops before each gate where a row joins or gets errors,
    # and runs the gates up to the next stop in one tight loop
    stops = sorted(joins.keys() | pending.keys() | {0})
    cur = np.empty((1 + len(batch), 2 ** n), dtype=complex)
    nxt = np.empty_like(cur)
    cur[0] = 0.0
    cur[0, 0] = 1.0
    joined = 1
    rows, out = cur[0], nxt[0]
    for i, end in zip(stops, stops[1:] + [len(ops)]):
        if i in joins:
            cur[joined:joined + joins[i]] = cur[0]
            joined += joins[i]
            rows, out = cur[:joined], nxt[:joined]
        for r, gates in pending.get(i, ()):
            for e in gates:
                cur[r] = gate_apply(cur[r], e, n)
        for op in ops[i:end]:
            if isinstance(op, Barrier):
                continue
            gate_apply_rows(
                rows, out,
                op if isinstance(op, Kernel) else gate_kernel(op, n), n)
            cur, nxt, rows, out = nxt, cur, out, rows
    return np.multiply(circuit.global_phase, cur, out=nxt)


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


def statevector(circuit: Circuit) -> np.ndarray:
    """Final state |psi> = U |0...0>, the gates applied one by one in time
    order by the sampler's sweep (`_replay`) with no sample, not by the
    dense oracle's fused product."""
    return _replay(circuit, circuit.gates, [])[0]


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


def _substreams(seed: int):
    """Sample substreams on one generator per call: `rekey(s)` returns it
    with the stream of a fresh Philox(key=[seed, s]) (counter 0, empty
    buffer, no stored half-word), without seeding a new generator, which
    first reads OS entropy, per sample."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    fresh = rng.bit_generator.state

    def rekey(s: int):
        fresh["state"]["key"][1] = s
        rng.bit_generator.state = fresh
        return rng

    return rekey


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative distribution Generator.choice(p.size, p=p) searches."""
    c = (p / p.sum()).cumsum()
    c /= c[-1]
    return c


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

    slots = _slots(_noise_sites(circuit, model))
    check_simulable(circuit.num_qubits)
    state_bytes = 16 * 2 ** circuit.num_qubits
    # a sweep's two row buffers take at most half the budget (the clean row
    # and at least one sample each), the gates' kernels what they leave
    rows = max(2, CALL_BYTES // (4 * state_bytes))
    ops = _kernels(circuit, CALL_BYTES - 2 * rows * state_bytes)
    u = np.empty((samples, shots))
    drawn = np.empty((samples, shots), dtype=np.int64)
    error_free = np.ones(samples, dtype=bool)
    # the erroneous samples are swept REPLAY_WINDOW at a time, sorted by
    # their first error, the order in which their rows join a sweep
    window: list = []
    final = None

    def replay():
        nonlocal final
        window.sort(key=lambda entry: entry[0])
        for b in range(0, len(window), rows - 1):
            batch = window[b:b + rows - 1]
            final = _replay(circuit, ops, batch)
            for (_, k, _), psi in zip(batch, final[1:]):
                drawn[k] = _cdf(_marginal(psi, num_bits)).searchsorted(
                    u[k], side="right")
        window.clear()

    for s, errors in _draw(slots, model, _substreams(seed), u):
        window.append((min(errors), s, errors))
        error_free[s] = False
        if len(window) == REPLAY_WINDOW:
            replay()
    replay()
    # row 0 of every sweep is the clean run; it is swept alone when no
    # sample errs
    if final is None:
        final = _replay(circuit, ops, [])
    clean = _marginal(final[0], num_bits)
    # a program that is the input itself (the input side of `pgmq simulate
    # --input`) has its clean run for the ideal: the same gates through the
    # same kernels, so the same bits as simulating the input again
    ideal = clean if circuit is input_circuit else probabilities(input_circuit)
    drawn[error_free] = _cdf(clean).searchsorted(u[error_free], side="right")
    del u

    total = samples * shots
    merged = np.bincount(drawn.ravel(), minlength=dim) / total
    fid = 1.0 - 0.5 * float(np.abs(merged - ideal).sum())

    if 8 * samples * dim <= CALL_BYTES and dim <= 32 * shots:
        # per-sample shot counts, when their table fits the budget: a
        # replicate's counts are then one product with how often it picked
        # each sample (whole numbers below 2**53, so exact in floating point,
        # as counting shot by shot is).  The product costs a multiply-add per
        # sample and outcome, the count a gather and an increment per
        # sample-shot, about 32 times as much on one core: past 32 outcomes
        # per shot the count is faster
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

    # the replicates a chunk at a time within CALL_BYTES, each taking
    # about 32 bytes per sample (rows, offsets, picks as integers and as
    # doubles) and per outcome (counts and three temporaries); one draw of
    # (k, samples) is the stream of k draws of `samples`
    boot_rng = np.random.Generator(np.random.Philox(key=[seed, 2 ** 63]))
    chunk = max(1, CALL_BYTES // (32 * (samples + dim)))
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
