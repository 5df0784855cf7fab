"""Cost model: nuclear norm of multiqubit gates, realization of gadget
sequences into native gates (with or without an ancilla-merged interface),
the straightforward parallel-merge baseline, and benchmark metrics.

A gadget sequence is realized in two steps, plan then cost or emit.

The plan partitions the gadget stream once into time-ordered steps: free
one-qubit rotations, groups of two-qubit gadgets, and runs of larger
gadgets.  A run is realized through one fanout target t as fanout, target
rotation, merged interface, target rotation, ..., fanout.  Without an
ancilla each larger gadget is a run of one whose target is its first
support qubit; with one, consecutive larger gadgets form one run whose
target is the ancilla.  Each scheme's cost (multiqubit-gate count, then
total nuclear norm) is read straight from its steps:

  * a one-qubit gadget is a frame rotation and never counts;
  * a group of two-qubit gadgets is one programmable gate carrying the
    summed pair phases, counted iff a phase survives MultiQubitGate's
    zero-drop; its norm comes from one eigvalsh and serves both schemes
    and every later plan in the same `norms` memo that forms a group with
    the same pair phases;
  * a run of M gadgets J_1..J_M onto t costs a leading star with |J_1 - t|
    spokes (the support without the target), one merged interface per
    adjacent pair (J, K) and a trailing star with |J_M - t| spokes: two
    stars with |J|-1 spokes for a run of one without an ancilla, at most
    M+1 gates with one.  An interface's live controls number |J ^ K|
    (symmetric difference) when both gadgets share an axis, since a
    repeated Pauli cancels, and |J | K| (union) otherwise; with no live
    control it is no gate.

Every star gate with k spokes of phase pi/4 has norm star_norm(k) =
(pi/4) sqrt(k).  `auto` takes the cheaper scheme, no-ancilla on a tie.

`passes.optimize` owns one `norms` memo per compile and hands it to every
`sequence_cost` of that compile, the CNOT-pair cost matrix included; the
matrix re-plans only the pairs whose CNOT changes some gadget.

One emitter, `_emit`, builds the native-gate `Circuit` (locals plus
MultiQubitGate) from either scheme's steps, only for the scheme that runs:
`realize` plans, picks, then emits once.  Fanouts come from
`gadgets.fanout` and are fused by `gadgets.fanout_to_mq`; interfaces by
`gadgets.merge_interface`.
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
    fanout,
    fanout_to_mq,
    merge_interface,
    pg_commutes,
    target_rotation,
)
from .qasm import two_qubit_count

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
    """Sum of absolute eigenvalues of the symmetric phase matrix (a raw
    array is checked for symmetry; a gate's phase matrix is symmetric by
    construction)."""
    raw = not isinstance(gate, MultiQubitGate)
    m = np.asarray(gate) if raw else gate.phase_matrix()
    if m.size == 0:
        return 0.0
    if raw and np.max(np.abs(m - m.T)) > 1e-12:
        raise CircuitError("phase matrix must be symmetric")
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def star_norm(k: int) -> float:
    """Closed-form nuclear norm of a star gate with k spokes of phase pi/4."""
    return FULL_TQ_PHASE * math.sqrt(k)


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


def _pair_group(group: list, axes: dict, norms: dict) -> _PairGroup:
    """The group's gate, its norm looked up in (or added to) `norms`, keyed
    by the gate's sorted pair phases: the key fixes the phase matrix bit for
    bit, so a hit returns exactly what `nuclear_norm` would."""
    pairs: dict = {}
    for g in group:
        pairs[g.support] = pairs.get(g.support, 0.0) + g.alpha * math.pi / 2
    gate = MultiQubitGate(pairs)
    key = tuple(sorted(gate.pairs.items()))
    norm = norms.get(key)
    if norm is None:
        norm = norms[key] = nuclear_norm(gate)
    return _PairGroup(axes, gate, norm)


def _stream_units(gadgets: list, norms: dict) -> list:
    """The no-ancilla scheme's steps, in time order: ("single", g);
    ("pairs", _PairGroup) for maximal groups of consecutive two-qubit
    gadgets with consistent per-qubit axes (single-qubit gadgets that
    commute with a pending group hop in front of it); and, for a larger
    gadget g, ("run", ([g], g.support[0])): a run of one whose fanouts
    target its first support qubit."""
    units: list = []
    axes: dict = {}
    group: list = []

    def flush():
        nonlocal axes, group
        if group:
            units.append(("pairs", _pair_group(group, axes, norms)))
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
            units.append(("run", ([g], g.support[0])))
    flush()
    return units


def _group_runs(units: list, ancilla: int) -> list:
    """The ancilla scheme's steps: consecutive runs become one run whose
    fanouts and interfaces all target `ancilla`; single-qubit units that
    commute with a pending run hop in front of it."""
    schedule: list = []
    run: list = []
    for kind, val in units:
        if kind == "run":
            run.extend(val[0])
            continue
        if run and not (kind == "single"
                        and all(pg_commutes(val, h) for h in run)):
            schedule.append(("run", (run, ancilla)))
            run = []
        schedule.append((kind, val))
    if run:
        schedule.append(("run", (run, ancilla)))
    return schedule


def _fanout_spokes(g: PhaseGadget, target: int) -> int:
    """Controls of `fanout(g, target)`: the support minus the target."""
    return len(g.support) - (target in g.support)


def _interface_live(g: PhaseGadget, h: PhaseGadget) -> int:
    """Live controls of the merged interface between run neighbours g, h:
    a qubit in both supports cancels iff the two axes are equal."""
    if g.axis == h.axis:
        return len(set(g.support) ^ set(h.support))
    return len(set(g.support) | set(h.support))


def _plan_cost(steps: list) -> CostVector:
    """Gate count and total norm of one scheme's steps."""
    count, norm = 0, 0.0
    for kind, val in steps:
        if kind == "pairs":
            if val.gate.pairs:
                count += 1
                norm += val.norm
        elif kind == "run":
            run, t = val
            for k in (_fanout_spokes(run[0], t),
                      *(_interface_live(g, h) for g, h in zip(run, run[1:])),
                      _fanout_spokes(run[-1], t)):
                if k:
                    count += 1
                    norm += star_norm(k)
    return CostVector(count, norm)


@dataclass(eq=False)
class _Plan:
    """Realization steps of one gadget sequence and their costs, per scheme."""

    steps: dict                  # scheme -> step list
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


def _plan(seq: GadgetSequence, norms: dict) -> _Plan:
    units = _stream_units(seq.gadgets, norms)
    steps = {NO_ANCILLA: units,
             ANCILLA_MERGED: _group_runs(units, seq.num_qubits)}
    return _Plan(steps, {s: _plan_cost(v) for s, v in steps.items()})


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _emit(seq: GadgetSequence, steps: list, width: int) -> Circuit:
    """Native-gate circuit of one scheme's steps: a one-qubit gadget as its
    rotation, a pair group as its programmable gate conjugated into the Z
    basis, and a run g_1..g_M onto target t as fanout(g_1, t), then each
    g_i's target rotation followed by the merged interface to g_{i+1}, then
    fanout(g_M, t), every fanout and interface fused into one U_MQ."""
    items: list = []
    phase = seq.phase

    def fused(mq: MultiQubitGate, frame: LocalFrame) -> None:
        nonlocal phase
        items.extend(frame.right_gates())
        if mq.pairs:
            items.append(mq)
        items.extend(frame.left_gates())
        phase *= frame.phase

    for kind, val in steps:
        if kind == "single":
            items.append(target_rotation(val, val.support[0]))
        elif kind == "pairs":
            conj = sorted(q for q, ax in val.axes.items() if ax != "Z")
            items.extend(SingleQubit(q, _Z_TO[val.axes[q]].conj().T, "basis")
                         for q in conj)
            if val.gate.pairs:
                items.append(val.gate)
            items.extend(SingleQubit(q, _Z_TO[val.axes[q]], "basis")
                         for q in conj)
        else:
            run, t = val
            fused(*fanout_to_mq(fanout(run[0], t)))
            for g, h in zip(run, run[1:]):
                items.append(target_rotation(g, t))
                fused(*merge_interface(g.support, h.support, t, g.axis, h.axis))
            items.append(target_rotation(run[-1], t))
            fused(*fanout_to_mq(fanout(run[-1], t)))
    items.extend(seq.frame.gates())
    return Circuit(width, items, global_phase=phase)


def realize(seq: GadgetSequence, scheme: str = AUTO) -> Circuit:
    """Turn a gadget sequence into a circuit of native U_MQ gates plus locals.

    With the ancilla scheme, a run of M multiqubit gadgets costs at most
    M+1 gates (interfaces merged) on the extra qubit `seq.num_qubits`,
    which is added only when a run uses it; without, each costs two star
    gates.  `auto` picks the scheme with the lower planned cost (count
    first, then norm) and emits only that one."""
    plan = _plan(seq, {})
    scheme = plan.pick(scheme)
    steps = plan.steps[scheme]
    used = scheme == ANCILLA_MERGED and any(k == "run" for k, _ in steps)
    return _emit(seq, steps, seq.num_qubits + int(used))


def sequence_cost(seq: GadgetSequence, scheme: str = AUTO,
                  norms: dict | None = None) -> CostVector:
    """Planned cost of realizing `seq` with `scheme` (the cheaper one for
    `auto`); equals the count and norm of the gates `realize` emits.

    `norms` memoizes pair-group nuclear norms across calls; the caller owns
    it (`passes.optimize` keeps one per compile).  Only `seq.gadgets` and
    `seq.num_qubits` are read: the frame and phase cost nothing."""
    plan = _plan(seq, {} if norms is None else norms)
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


def gate_norm(gate) -> float:
    """Nuclear norm of one entangling gate (0 for non-entangling gates)."""
    if isinstance(gate, MultiQubitGate):
        return nuclear_norm(gate)
    if isinstance(gate, ZzRotation):
        return abs(gate.theta)
    if isinstance(gate, GeneralizedCnot):
        return FULL_TQ_PHASE
    return 0.0


def input_norm(circuit: Circuit) -> float:
    """Total nuclear norm of the input's entangling gates, one per gate."""
    return sum((gate_norm(g) for g in circuit.gates), 0.0)


def metrics(seq: GadgetSequence, input_circuit: Circuit,
            scheme: str = AUTO) -> dict:
    """Benchmark metrics relating a compiled body to its input circuit:
    entangling-gate vs multiqubit count, baseline-merge ratio, and nuclear
    norm reduction."""
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
