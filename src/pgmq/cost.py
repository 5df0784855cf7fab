"""Cost model: nuclear norm of multiqubit gates, realization of gadget
sequences into native gates (with or without an ancilla-merged interface),
the straightforward parallel-merge baseline, and benchmark metrics.

A gadget sequence is realized in two steps, plan then cost or emit.

The plan partitions the gadget stream once into time-ordered units (free
one-qubit rotations, groups of two-qubit gadgets, larger gadgets) and, for
the ancilla scheme, groups consecutive large gadgets into runs.  Each
scheme's cost (multiqubit-gate count, then total nuclear norm) is read
straight from the plan:

  * a one-qubit gadget is a frame rotation and never counts;
  * a group of two-qubit gadgets is one programmable gate carrying the
    summed pair phases, counted iff a phase survives MultiQubitGate's
    zero-drop; its norm comes from one eigvalsh and serves both schemes;
  * without an ancilla, a gadget on J costs two star gates with |J|-1
    spokes each;
  * with an ancilla, a run of M gadgets J_1..J_M costs a leading star with
    |J_1| spokes, one merged interface per adjacent pair (J, K) and a
    trailing star with |J_M| spokes.  An interface's live controls number
    |J ^ K| (symmetric difference) when both gadgets share an axis, since
    a repeated Pauli cancels, and |J | K| (union) otherwise; with no live
    control it is no gate.  So a run costs at most M+1 gates.

Every star gate with k spokes of phase pi/4 has norm star_norm(k) =
(pi/4) sqrt(k).  `auto` takes the cheaper scheme, no-ancilla on a tie.

Emission builds native gates (locals plus MultiQubitGate) from the plan,
only for the scheme that runs: `realize` plans, picks, then emits once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, GeneralizedCnot, SingleQubit, \
    ZzRotation
from .gadgets import (
    _Z_TO,
    GadgetSequence,
    LocalFrame,
    MultiQubitGate,
    PhaseGadget,
    fanout_to_mq,
    merge_interface,
    pauli_rotation,
    pg_commutes,
)

NO_ANCILLA = "no-ancilla"
ANCILLA_MERGED = "ancilla-merged"
AUTO = "auto"

FULL_TQ_PHASE = math.pi / 4


@dataclass(frozen=True)
class CostVector:
    """Lexicographic compilation cost: gate count first, then total norm."""

    mq_count: int
    total_norm: float

    def key(self, weight: float | None = None):
        if weight is None:
            return (self.mq_count, round(self.total_norm, 9))
        return round(self.mq_count + weight * self.total_norm, 9)


def nuclear_norm(gate: MultiQubitGate | np.ndarray) -> float:
    """Sum of absolute eigenvalues of the symmetric phase matrix."""
    m = gate.phase_matrix() if isinstance(gate, MultiQubitGate) else np.asarray(gate)
    if m.size == 0:
        return 0.0
    if np.max(np.abs(m - m.T)) > 1e-12:
        raise CircuitError("phase matrix must be symmetric")
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def star_norm(k: int, theta: float = FULL_TQ_PHASE) -> float:
    """Closed-form nuclear norm of a star-shaped gate with k spokes."""
    return abs(theta) * math.sqrt(k)


@dataclass(eq=False)
class Realization:
    """Native-gate realization of a gadget sequence."""

    num_qubits: int              # including the ancilla when used
    items: list                  # time-ordered gates (locals + MultiQubitGate)
    mq_gates: list               # the MultiQubitGate subset, in order
    phase: complex
    ancilla: int | None = None
    clifford_gates: list = None  # fanout/interface subset (Clifford phases)

    def __post_init__(self):
        if self.clifford_gates is None:
            self.clifford_gates = []

    def to_circuit(self) -> Circuit:
        c = Circuit(self.num_qubits, [], global_phase=self.phase)
        for g in self.items:
            c.add(g)
        return c


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _PairGroup:
    """Consecutive two-qubit gadgets with consistent per-qubit axes, as the
    one programmable gate that implements them."""

    axes: dict                   # qubit -> gadget axis
    gate: MultiQubitGate         # summed pair phases alpha*pi/2
    norm: float


def _pair_group(group: list, axes: dict) -> _PairGroup:
    pairs: dict = {}
    for g in group:
        pairs[g.support] = pairs.get(g.support, 0.0) + g.alpha * math.pi / 2
    gate = MultiQubitGate(pairs)
    return _PairGroup(axes, gate, nuclear_norm(gate))


def _stream_units(gadgets: list) -> list:
    """Partition a gadget stream into realization units, in time order:
    ("single", g), ("pairs", _PairGroup) for maximal groups of consecutive
    two-qubit gadgets with consistent per-qubit axes (single-qubit gadgets
    that commute with a pending group hop in front of it), ("big", g)."""
    units: list = []
    axes: dict = {}
    group: list = []

    def flush():
        nonlocal axes, group
        if group:
            units.append(("pairs", _pair_group(group, axes)))
        axes, group = {}, []

    for g in gadgets:
        k = len(g.support)
        if k == 2:
            if group and any(axes.get(q, g.axis) != g.axis for q in g.support):
                flush()
            group.append(g)
            for q in g.support:
                axes[q] = g.axis
        elif k == 1:
            if group and not all(pg_commutes(g, h) for h in group):
                flush()
            units.append(("single", g))
        else:
            flush()
            units.append(("big", g))
    flush()
    return units


def _group_runs(units: list) -> list:
    """The ancilla scheme's schedule: consecutive "big" units become one
    ("run", [g, ...]); single-qubit units that commute with a pending run
    hop in front of it."""
    schedule: list = []
    run: list = []
    for kind, val in units:
        if kind == "big":
            run.append(val)
            continue
        if run and not (kind == "single"
                        and all(pg_commutes(val, h) for h in run)):
            schedule.append(("run", run))
            run = []
        schedule.append((kind, val))
    if run:
        schedule.append(("run", run))
    return schedule


def _interface_live(g: PhaseGadget, h: PhaseGadget) -> int:
    """Live controls of the merged interface between run neighbours g, h:
    a qubit in both supports cancels iff the two axes are equal."""
    if g.axis == h.axis:
        return len(set(g.support) ^ set(h.support))
    return len(set(g.support) | set(h.support))


def _plan_cost(steps: list) -> CostVector:
    """Gate count and total norm of a unit list or a run schedule."""
    count, norm = 0, 0.0
    for kind, val in steps:
        if kind == "pairs":
            if val.gate.pairs:
                count += 1
                norm += val.norm
            continue
        if kind == "big":
            spokes = [len(val.support) - 1] * 2
        elif kind == "run":
            spokes = [len(val[0].support),
                      *(_interface_live(g, h) for g, h in zip(val, val[1:])),
                      len(val[-1].support)]
        else:
            continue
        for k in spokes:
            if k:
                count += 1
                norm += star_norm(k)
    return CostVector(count, norm)


@dataclass(eq=False)
class _Plan:
    """Realization units of one gadget sequence and both schemes' costs."""

    units: list                  # no-ancilla order
    schedule: list               # ancilla order (runs grouped)
    costs: dict                  # scheme -> CostVector

    def pick(self, scheme: str) -> str:
        """The scheme to emit: `auto` takes the cheaper, no-ancilla on a tie."""
        if scheme == AUTO:
            if self.costs[NO_ANCILLA].key() <= self.costs[ANCILLA_MERGED].key():
                return NO_ANCILLA
            return ANCILLA_MERGED
        if scheme not in self.costs:
            raise CircuitError(f"unknown realization scheme {scheme!r}")
        return scheme


def _plan(seq: GadgetSequence) -> _Plan:
    units = _stream_units(seq.gadgets)
    schedule = _group_runs(units)
    return _Plan(units, schedule, {NO_ANCILLA: _plan_cost(units),
                                   ANCILLA_MERGED: _plan_cost(schedule)})


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _emit_frame(frame: LocalFrame, mq: MultiQubitGate, items: list,
                mq_gates: list, cliffords: list | None = None) -> complex:
    items.extend(frame.right_gates())
    if mq.pairs:
        items.append(mq)
        mq_gates.append(mq)
        if cliffords is not None:
            cliffords.append(mq)
    items.extend(frame.left_gates())
    return frame.phase


def _emit_pair_group(group: _PairGroup, items: list, mq_gates: list) -> None:
    """Conjugate each touched qubit into the Z basis around the group's
    programmable gate."""
    conj = sorted(q for q, ax in group.axes.items() if ax != "Z")
    for q in conj:
        items.append(SingleQubit(q, _Z_TO[group.axes[q]].conj().T, "basis"))
    if group.gate.pairs:
        items.append(group.gate)
        mq_gates.append(group.gate)
    for q in conj:
        items.append(SingleQubit(q, _Z_TO[group.axes[q]], "basis"))


def _emit_single(g: PhaseGadget, items: list) -> None:
    items.append(pauli_rotation(g.axis, -g.alpha * math.pi, g.support[0]))


def _emit_no_ancilla(seq: GadgetSequence, units: list) -> Realization:
    items: list = []
    mq_gates: list = []
    cliffords: list = []
    phase = seq.phase
    for kind, val in units:
        if kind == "single":
            _emit_single(val, items)
        elif kind == "pairs":
            _emit_pair_group(val, items, mq_gates)
        else:
            g = val
            jstar = g.support[0]
            controls = [q for q in g.support if q != jstar]
            taxis = "X" if g.axis == "Z" else "Z"
            fan = [GeneralizedCnot(g.axis, q, taxis, jstar) for q in controls]
            mq, frame = fanout_to_mq(fan)
            phase *= _emit_frame(frame, mq, items, mq_gates, cliffords)
            items.append(pauli_rotation(g.axis, -g.alpha * math.pi, jstar))
            mq2, frame2 = fanout_to_mq(fan)
            phase *= _emit_frame(frame2, mq2, items, mq_gates, cliffords)
    items.extend(seq.frame.gates())
    return Realization(seq.num_qubits, items, mq_gates, phase,
                       clifford_gates=cliffords)


def _emit_ancilla(seq: GadgetSequence, schedule: list) -> Realization:
    a = seq.num_qubits
    items: list = []
    mq_gates: list = []
    cliffords: list = []
    phase = seq.phase

    def fan_gate(g: PhaseGadget):
        fan = [GeneralizedCnot(g.axis, q, "Y", a) for q in g.support]
        return fanout_to_mq(fan)

    def emit_run(run: list) -> None:
        """M consecutive large-support gadgets as at most M+1 multiqubit
        gates: leading fanout, merged interfaces, trailing fanout."""
        nonlocal phase
        mq, frame = fan_gate(run[0])
        phase *= _emit_frame(frame, mq, items, mq_gates, cliffords)
        for i, g in enumerate(run):
            items.append(pauli_rotation("Z", -g.alpha * math.pi, a))
            if i + 1 < len(run):
                h = run[i + 1]
                mq, frame = merge_interface(g.support, h.support, a,
                                            g.axis, h.axis)
                phase *= _emit_frame(frame, mq, items, mq_gates, cliffords)
        mq, frame = fan_gate(run[-1])
        phase *= _emit_frame(frame, mq, items, mq_gates, cliffords)

    for kind, val in schedule:
        if kind == "single":
            _emit_single(val, items)
        elif kind == "pairs":
            _emit_pair_group(val, items, mq_gates)
        else:
            emit_run(val)
    items.extend(seq.frame.gates())
    return Realization(a + 1, items, mq_gates, phase, ancilla=a,
                       clifford_gates=cliffords)


def realize(seq: GadgetSequence, scheme: str = AUTO) -> Realization:
    """Turn a gadget sequence into native multiqubit gates plus locals.

    With the ancilla scheme, a run of M multiqubit gadgets costs at most
    M+1 gates (interfaces merged) on the extra qubit `seq.num_qubits`;
    without, each costs two star gates.  `auto` picks the scheme with the
    lower planned cost (count first, then norm) and emits only that one."""
    plan = _plan(seq)
    if plan.pick(scheme) == NO_ANCILLA:
        return _emit_no_ancilla(seq, plan.units)
    return _emit_ancilla(seq, plan.schedule)


def sequence_cost(seq: GadgetSequence, scheme: str = AUTO) -> CostVector:
    """Planned cost of realizing `seq` with `scheme` (the cheaper one for
    `auto`); equals the count and norm of the gates `realize` emits."""
    plan = _plan(seq)
    return plan.costs[plan.pick(scheme)]


# ---------------------------------------------------------------------------
# Baseline and metrics
# ---------------------------------------------------------------------------

def baseline_parallel_merge(circuit: Circuit) -> tuple[int, float]:
    """Fuse only trivially parallel entangling gates (disjoint supports, no
    intervening single-qubit gate) into shared multiqubit gates; returns the
    resulting (gate count, total nuclear norm)."""
    layers: list[dict] = []
    support: set[int] = set()
    pairs: dict = {}

    def flush():
        nonlocal pairs, support
        if pairs:
            layers.append(pairs)
        pairs, support = {}, set()

    for g in circuit.gates:
        if isinstance(g, ZzRotation):
            theta = g.theta
        elif isinstance(g, GeneralizedCnot):
            theta = FULL_TQ_PHASE
        else:
            qs = set(g.qubits)
            if qs & support:
                flush()
            continue
        a, b = sorted(g.qubits)
        if {a, b} & support:
            flush()
        key = (a, b)
        pairs[key] = pairs.get(key, 0.0) + theta
        support.update((a, b))
    flush()
    count = len(layers)
    norm = sum(nuclear_norm(MultiQubitGate(dict(p))) for p in layers)
    return count, norm


def input_norm(circuit: Circuit) -> float:
    """Total nuclear norm of the input's entangling gates, one per gate."""
    total = 0.0
    for g in circuit.gates:
        if isinstance(g, ZzRotation):
            total += abs(g.theta)
        elif isinstance(g, GeneralizedCnot):
            total += FULL_TQ_PHASE
    return total


def metrics(seq: GadgetSequence, input_circuit: Circuit,
            scheme: str = AUTO) -> dict:
    """Benchmark metrics relating a compiled body to its input circuit:
    entangling-gate vs multiqubit count, baseline-merge ratio, and nuclear
    norm reduction."""
    from .qasm import two_qubit_count
    tq = two_qubit_count(input_circuit)
    comp = sequence_cost(seq, scheme)
    base_count, base_norm = baseline_parallel_merge(input_circuit)
    in_norm = input_norm(input_circuit)

    def ratio(a, b):
        return a / b if b > 0 else (math.inf if a > 0 else 1.0)

    return {
        "twoQubitCount": tq,
        "compiledMqCount": comp.mq_count,
        "compiledNorm": comp.total_norm,
        "baselineMqCount": base_count,
        "baselineNorm": base_norm,
        "inputNorm": in_norm,
        "gateCountRatio": ratio(tq, comp.mq_count),
        "baselineRatio": ratio(base_count, comp.mq_count),
        "normRatio": ratio(in_norm, comp.total_norm),
    }
