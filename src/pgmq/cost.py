"""Cost model: nuclear norm of multiqubit gates, realization of gadget
sequences into native gates (with or without an ancilla-merged interface),
the straightforward parallel-merge baseline, and benchmark metrics.

A gadget sequence is realized in two steps, plan then cost or emit.

The plan is one left-to-right scan of the gadget list, `_plan`, with one
set of segmentation rules for both schemes: free one-qubit rotations,
groups of two-qubit gadgets, and runs of larger gadgets.  A run is realized
through one fanout target t as fanout, target rotation, merged interface,
target rotation, ..., fanout.  Without an ancilla each larger gadget is a
run of one whose target is its first support qubit; with one, consecutive
larger gadgets form one run whose target is the ancilla.  The scan lists,
per scheme and in step order, the norm term of every gate the scheme
emits; a scheme's cost (multiqubit-gate count, then total nuclear norm) is
the number of its terms and their sum:

  * a one-qubit gadget is a frame rotation and never counts;
  * a group of two-qubit gadgets is one programmable gate carrying the
    summed pair phases, counted iff a phase survives MultiQubitGate's
    zero-drop; its term is its key, the frozenset of its surviving (pair,
    phase) items, which fix the phase matrix bit for bit, need no sort and
    keep their hash once computed.  Both schemes share the group;
  * a run of M gadgets J_1..J_M onto t costs a leading star with |J_1 - t|
    spokes (the support without the target), one merged interface per
    adjacent pair (J, K) and a trailing star with |J_M - t| spokes: two
    stars with |J|-1 spokes for a run of one without an ancilla, at most
    M+1 gates with one.  An interface's live controls number |J ^ K|
    (symmetric difference) when both gadgets share an axis, since a
    repeated Pauli cancels, and |J | K| (union) otherwise, each the
    popcount of the gadgets' support masks so combined; with no live
    control it is no gate.

A one-qubit gadget hops in front of the pending ancilla run iff it commutes
with every run gadget, that is iff its qubit is in no run gadget of another
axis: the scan keeps the run's supports per axis as bitmasks and tests the
union of the other two.
The time-ordered steps themselves are recorded only for emission, when
`realize` asks for them; costing reads the terms alone.

Every star gate with k spokes of phase pi/4 has norm star_norm(k) =
(pi/4) sqrt(k), read from a table.  Pair-group norms live in one table,
`_NORMS`, keyed by the group key, that only `_fill_norms` fills: costing
plans all of its gadget lists first, fills every key the table lacks with
one stacked eigvalsh per support size, and only then sums.  A norm's bits
do not depend on its batch, so costs, `realize`, `metrics` and the noise
sites (through `nuclear_norm`) share the table, and clearing it at
`_NORMS_CAP` keys changes no result.  `auto` takes the cheaper scheme,
no-ancilla on a tie.  `sequence_costs` costs many gadget lists on one
register in one batch: the four extraction candidates, and, in the
CNOT-pair cost matrix, the current list and, for each pair whose CNOT
changes some gadget, that list with only the changed gadgets mapped.

One emitter, `_emit`, builds the native-gate `Circuit` (locals plus
MultiQubitGate) from either scheme's steps, only for the scheme that runs:
`realize` plans with steps, picks, then emits once.  Fanouts come from
`gadgets.fanout` and are fused by `gadgets.fanout_to_mq`; interfaces by
`gadgets.merge_interface`.  The baseline merge needs no table: its layers
hold vertex-disjoint pairs, so each norm is a sum of |theta|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .circuit import Circuit, CircuitError, GeneralizedCnot, SingleQubit, \
    ZzRotation
from .gadgets import (
    PAIR_PHASE_EPS,
    _Z_TO,
    GadgetSequence,
    LocalFrame,
    MultiQubitGate,
    PhaseGadget,
    fanout,
    fanout_to_mq,
    merge_interface,
    support_of,
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


def nuclear_norm(gate: MultiQubitGate) -> float:
    """Sum of absolute eigenvalues of the gate's symmetric phase matrix
    (theta/2 on both slots of each pair, over its sorted support), read
    from the pair-group norm table; 0.0 for a gate with no pair.  A raw
    matrix is refused: a gate's phase matrix is symmetric by construction,
    an array's need not be."""
    if not isinstance(gate, MultiQubitGate):
        raise CircuitError("nuclear_norm takes a MultiQubitGate, not a "
                           "raw phase matrix")
    key = frozenset(gate.pairs.items())
    if not key:
        return 0.0
    _fill_norms((key,))
    return _NORMS[key]


def star_norm(k: int) -> float:
    """Closed-form nuclear norm of a star gate with k spokes of phase pi/4."""
    return FULL_TQ_PHASE * math.sqrt(k)


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

_HALF_PI = math.pi / 2
# the scan's end marker: a gadget with no support closes what is pending
_END = (SimpleNamespace(mask=0, axis="Z", support=()),)


def _group_key(pairs: dict) -> frozenset:
    """Table key of a pair group: the set of its (pair, phase) items that
    survive MultiQubitGate's zero-drop, which fix its phase matrix bit for
    bit; empty when the phases cancel to no gate.  Built without a sort,
    its hash is computed once and kept."""
    if pairs and min(map(abs, pairs.values())) > PAIR_PHASE_EPS:
        return frozenset(pairs.items())
    return frozenset(kv for kv in pairs.items()
                     if abs(kv[1]) > PAIR_PHASE_EPS)


@functools.lru_cache(maxsize=None)
def _star_norms(n: int) -> tuple:
    """star_norm(k) for k = 0..n: every star and interface on an n-qubit
    register has at most n spokes."""
    return tuple(star_norm(k) for k in range(n + 1))


def _plan(gadgets: list, ancilla: int, steps: dict | None = None
          ) -> tuple[list, list]:
    """One left-to-right scan of the gadget list giving both schemes' terms,
    the norm of each gate a scheme emits in step order: a star's closed
    form, or a pair group's table key.  With a `steps` dict it also records
    each scheme's time-ordered steps there, for the emitter.

    No-ancilla steps: ("single", g); ("pairs", (on, pairs, key)) for each
    maximal group of consecutive two-qubit gadgets with consistent
    per-qubit axes, where on[a] masks the group's qubits of axis a and the
    summed pair phases `pairs` (insertion order) become one
    MultiQubitGate; and, for a larger gadget g, ("run", ([g],
    g.support[0])), a run of one onto its first support qubit.  A
    single-qubit gadget that commutes with a pending group hops in front of
    it.  The ancilla schedule has the same steps, except that consecutive
    runs merge into one run onto qubit `ancilla`, and a single-qubit step
    that commutes with the pending run hops in front of it."""
    star = _star_norms(ancilla)
    half_pi = _HALF_PI
    no_terms, anc_terms = [], []
    record = steps is not None
    if record:
        no_steps = steps[NO_ANCILLA] = []
        anc_steps = steps[ANCILLA_MERGED] = []
    # pending pair group: its qubits of axis Z, X and Y, all its qubits,
    # and support -> summed phase
    zs = xs = ys = held = 0
    pairs = {}
    # pending ancilla run, its interface terms, and the qubits of its
    # gadgets of axis Z, X and Y
    run, iface = [], []
    rz = rx = ry = 0
    for g in chain(gadgets, _END):
        mask, axis = g.mask, g.axis
        k = len(g.support)
        # every group gadget on q carries the group's axis of q, so g
        # commutes with the group iff its qubits there carry its own axis
        closes = held and (k > 2 or not k or mask & (
            held ^ (zs if axis == "Z" else xs if axis == "X" else ys)))
        # a one-qubit gadget commutes with the whole run iff its qubit is
        # in no run gadget of another axis (the union of the other two)
        if run and (closes or not k or k == 1 and mask & (
                rx | ry if axis == "Z" else rz | ry if axis == "X"
                else rz | rx)):
            # the ancilla is in no support: each end star has |J| spokes
            anc_terms.append(star[len(run[0].support)])
            anc_terms += iface
            anc_terms.append(star[len(run[-1].support)])
            if record:
                anc_steps.append(("run", (run, ancilla)))
            run, iface = [], []
            rz = rx = ry = 0
        if closes:
            key = _group_key(pairs)
            if key:
                no_terms.append(key)
                anc_terms.append(key)
            if record:
                step = ("pairs", ({"X": xs, "Y": ys, "Z": zs}, pairs, key))
                no_steps.append(step)
                anc_steps.append(step)
            zs = xs = ys = held = 0
            pairs = {}
        if k == 2:
            support = g.support
            pairs[support] = pairs.get(support, 0.0) + g.alpha * half_pi
            if axis == "Z":
                zs |= mask
            elif axis == "X":
                xs |= mask
            else:
                ys |= mask
            held |= mask
        elif k == 1:
            if record:
                step = ("single", g)
                no_steps.append(step)
                anc_steps.append(step)
        elif k:
            no_terms += (star[k - 1], star[k - 1])
            if run:
                live = _interface_live(run[-1], g)
                if live:
                    iface.append(star[live])
            run.append(g)
            if axis == "Z":
                rz |= mask
            elif axis == "X":
                rx |= mask
            else:
                ry |= mask
            if record:
                no_steps.append(("run", ([g], g.support[0])))
    return no_terms, anc_terms


def _interface_live(g: PhaseGadget, h: PhaseGadget) -> int:
    """Live controls of the merged interface between run neighbours g, h:
    a qubit in both supports cancels iff the two axes are equal."""
    if g.axis == h.axis:
        return (g.mask ^ h.mask).bit_count()
    return (g.mask | h.mask).bit_count()


# pair-group key -> nuclear norm; bounded as gadgets.support_of's table is
_NORMS: dict = {}
_NORMS_CAP = 1 << 14


def _fill_norms(keys) -> None:
    """Add to the norm table the nuclear norm of every key in `keys` (a
    collection) that it lacks, with one stacked eigvalsh per support size;
    a table that would end past `_NORMS_CAP` keys is cleared first and all
    of `keys` computed.  Each phase matrix has theta/2 on both slots of each
    pair, over the sorted support: a stacked eigvalsh and a row sum give
    each member the bits of its own."""
    missing = dict.fromkeys(k for k in keys if k not in _NORMS)
    if len(_NORMS) + len(missing) > _NORMS_CAP:
        _NORMS.clear()
        missing = dict.fromkeys(keys)
    by_size: dict = {}
    for key in missing:
        support = sorted({q for pair, _ in key for q in pair})
        by_size.setdefault(len(support), []).append((key, support))
    for k, group in by_size.items():
        m = np.zeros((len(group), k, k))
        for i, (key, support) in enumerate(group):
            for (a, b), th in key:
                ia, ib = support.index(a), support.index(b)
                m[i, ia, ib] = m[i, ib, ia] = th / 2
        ev = np.sum(np.abs(np.linalg.eigvalsh(m)), axis=1)
        _NORMS.update(zip((key for key, _ in group), ev.tolist()))


def _total(terms: list) -> CostVector:
    """Gate count and total norm of one scheme's terms, summed in step
    order."""
    norm = 0.0
    for t in terms:
        norm += t if type(t) is float else _NORMS[t]
    return CostVector(len(terms), norm)


def _pick(costs: dict, scheme: str) -> str:
    """The scheme to emit: `auto` takes the cheaper, no-ancilla on a tie."""
    if scheme == AUTO:
        if costs[NO_ANCILLA].key() <= costs[ANCILLA_MERGED].key():
            return NO_ANCILLA
        return ANCILLA_MERGED
    if scheme not in costs:
        raise CircuitError(f"unknown realization scheme {scheme!r}")
    return scheme


def _costs(plans: list) -> list:
    """Each plan's cost per scheme, after filling every pair-group norm
    the plans need and the table lacks in one batch."""
    # both schemes' terms hold the same pair groups
    _fill_norms([t for no_terms, _ in plans for t in no_terms
                 if type(t) is not float])
    return [{NO_ANCILLA: _total(no_terms), ANCILLA_MERGED: _total(anc_terms)}
            for no_terms, anc_terms in plans]


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
            on, pairs, key = val
            conj = sorted((q, ax) for ax in ("X", "Y")
                          for q in support_of(on[ax]))
            items.extend(SingleQubit(q, _Z_TO[ax].conj().T, "basis")
                         for q, ax in conj)
            if key:
                items.append(MultiQubitGate(pairs))
            items.extend(SingleQubit(q, _Z_TO[ax], "basis")
                         for q, ax in conj)
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
    recorded: dict = {}
    terms = _plan(seq.gadgets, seq.num_qubits, recorded)
    scheme = _pick(_costs([terms])[0], scheme)
    steps = recorded[scheme]
    used = scheme == ANCILLA_MERGED and any(k == "run" for k, _ in steps)
    return _emit(seq, steps, seq.num_qubits + int(used))


def sequence_cost(seq: GadgetSequence, scheme: str = AUTO) -> CostVector:
    """Planned cost of realizing `seq` with `scheme` (the cheaper one for
    `auto`); equals the count and norm of the gates `realize` emits.

    Only `seq.gadgets` and `seq.num_qubits` are read: the frame and phase
    cost nothing."""
    return sequence_costs([seq.gadgets], seq.num_qubits, scheme)[0]


def sequence_costs(gadget_lists: list, num_qubits: int,
                   scheme: str = AUTO) -> list[CostVector]:
    """`sequence_cost` of each gadget list on `num_qubits` qubits, with the
    pair-group norms that all of them need and the table lacks computed in
    one batch before any cost is summed."""
    plans = [_plan(gadgets, num_qubits) for gadgets in gadget_lists]
    return [c[_pick(c, scheme)] for c in _costs(plans)]


# ---------------------------------------------------------------------------
# Baseline and metrics
# ---------------------------------------------------------------------------

def baseline_parallel_merge(circuit: Circuit) -> tuple[int, float]:
    """Fuse only trivially parallel entangling gates (disjoint supports, no
    intervening single-qubit gate) into shared multiqubit gates; returns the
    resulting (gate count, total nuclear norm).

    A layer is flushed when a gate touches one of its qubits, so its pairs
    are vertex-disjoint and its phase matrix block-diagonal: its nuclear
    norm is the sum of |theta| over its pairs that survive
    MultiQubitGate's zero-drop, in gate order, and the total is the sum of
    the layers' norms in layer order."""
    norms: list[float] = []
    support: set[int] = set()
    for g in circuit.gates:
        if support.intersection(g.qubits):
            support = set()
        if isinstance(g, ZzRotation):
            theta = g.theta
        elif isinstance(g, GeneralizedCnot):
            theta = FULL_TQ_PHASE
        else:
            continue
        if not support:
            norms.append(0.0)
        support.update(g.qubits)
        if abs(theta) > PAIR_PHASE_EPS:
            norms[-1] += abs(theta)
    return len(norms), sum(norms, 0.0)


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
