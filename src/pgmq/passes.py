"""Compilation passes: pulling CNOTs out of a circuit into GF(2) edge layers
(left- and right-handed primitives), nuclear-norm reduction by CNOT-pair
conjugation with greedy maximum-weight matching, and the iterative driver
producing the three-layer compiled form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import starmap

import numpy as np

from .circuit import (
    Barrier,
    I2,
    Circuit,
    CircuitError,
    GeneralizedCnot,
    SingleQubit,
    ZzRotation,
    cnot,
    layerize,
    form_su4_blocks,
    Su4Block,
)
from .cost import AUTO, CostVector, realize, sequence_cost, sequence_costs
from .gadgets import (
    GadgetSequence,
    _anticommutes,
    _gadget,
    commute_cnot,
    decompose_pg,
    normalized_alpha,
    simplify,
    support_of,
)
from .qasm import to_zz_basis
from .su4 import minimize_block_phase


# ---------------------------------------------------------------------------
# Single-qubit gates as one-qubit gadgets
# ---------------------------------------------------------------------------

def _zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """(delta, a, b, c) with u = e^{i delta} Rz(a) Ry(b) Rz(c)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    delta = math.atan2(det.imag, det.real) / 2
    v = u * np.exp(-1j * delta)
    b = 2 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[1, 0]) < 1e-12:
        a_plus_c = 2 * np.angle(v[1, 1])
        a_minus_c = 0.0
    elif abs(v[0, 0]) < 1e-12:
        a_plus_c = 0.0
        a_minus_c = 2 * np.angle(v[1, 0])
    else:
        a_plus_c = 2 * np.angle(v[1, 1])
        a_minus_c = 2 * np.angle(v[1, 0])
    return delta, (a_plus_c + a_minus_c) / 2, b, (a_plus_c - a_minus_c) / 2


@functools.lru_cache(maxsize=1024)
def _gadget_angles(matrix: bytes, dagger: bool) -> tuple[tuple, complex]:
    """Exact rewrite of the one-qubit unitary with these complex bytes, or
    with `dagger` of its adjoint, as up to three axis gadgets (Z, X, Z
    pattern), as (axis, alpha) pairs in time order with alpha normalized
    into (-2, 2], plus a scalar phase.  Cached: a compile meets the same
    gates many times over."""
    u = np.frombuffer(matrix, dtype=complex).reshape(2, 2)
    delta, a, b, c = _zyz_angles(u.conj().T if dagger else u)
    # Ry(b) = Rz(pi/2) Rx(b) Rz(-pi/2); Rz(t) = G_Z(-t/pi), Rx(t) = G_X(-t/pi)
    angles = [("Z", c - math.pi / 2), ("X", b), ("Z", a + math.pi / 2)]
    out = []
    for axis, theta in angles:  # time order
        alpha = -theta / math.pi
        if abs(math.fmod(alpha, 4.0)) > 1e-14:
            out.append((axis, normalized_alpha(alpha)))
    return tuple(out), np.exp(1j * delta)


# ---------------------------------------------------------------------------
# Left- and right-handed primitives
# ---------------------------------------------------------------------------

def _pull_cnots(circuit: Circuit, dagger: bool,
                counter: dict | None) -> tuple[GadgetSequence, list]:
    """Gadgetize the circuit, or with `dagger` its adjoint (gates in
    reverse order, one-qubit gates and ZZ rotations inverted, CNOTs
    self-inverse, phase conjugated), pulling every CNOT to the beginning
    through the gadgets before it; returns the gadgets and the CNOT word.

    The walk runs from that circuit's last gate to its first, with z[q] and
    x[q] the bitmasks of what Z_q and X_q become under the CNOTs met so far.
    CNOTs map Z and X strings to strings of the same axis and no sign, so
    each gadget is mapped once, by the XOR of its support qubits' masks,
    and built from that image mask (its support read off it)."""
    n = circuit.num_qubits
    z = [1 << q for q in range(n)]
    x = list(z)
    gadgets, phases, word = [], [], []
    events = 0
    for g in circuit.gates if dagger else reversed(circuit.gates):
        if isinstance(g, GeneralizedCnot):
            if not g.is_canonical:
                raise CircuitError("pg_left needs canonical CNOTs; "
                                   "run to_zz_basis first")
            z[g.target] ^= z[g.control]
            x[g.control] ^= x[g.target]
            word.append((g.control, g.target))
            continue
        if isinstance(g, SingleQubit):
            raw, ph = _gadget_angles(g.matrix.tobytes(), dagger)
            # (axis, alpha, image mask), in time order
            met = [(axis, alpha, (z if axis == "Z" else x)[g.qubit])
                   for axis, alpha in raw]
            phases.append(ph)
        elif isinstance(g, ZzRotation):
            theta = -g.theta if dagger else g.theta
            met = [("Z", normalized_alpha(2 * theta / math.pi),
                    z[g.qubit_a] ^ z[g.qubit_b])]
        elif isinstance(g, Barrier):
            continue
        else:
            raise CircuitError(f"unsupported gate kind: {type(g).__name__}")
        events += len(met) * len(word)  # each later CNOT crosses each gadget
        for axis, alpha, mask in reversed(met):
            gadgets.append(_gadget(axis, alpha, support_of(mask), mask))
    phase = np.conj(circuit.global_phase) if dagger else circuit.global_phase
    for ph in reversed(phases):  # in time order: each product is rounded
        phase *= ph
    if counter is not None:
        counter["events"] = counter.get("events", 0) + events
    return simplify(GadgetSequence(n, gadgets[::-1], phase=phase)), word[::-1]


def pg_left(circuit: Circuit,
            counter: dict | None = None) -> tuple[GadgetSequence, list]:
    """Factor circuit = U_PG . U_C (matrix order) by pulling every CNOT to
    the beginning of the circuit through the accumulated gadgets."""
    return _pull_cnots(circuit, False, counter)


def sequence_adjoint(seq: GadgetSequence) -> GadgetSequence:
    """Adjoint of a gadget sequence, renormalized to the standard shape
    (gadgets, then trailing Pauli frame, then scalar)."""
    # the (Hermitian) frame string moves from the front of the adjoint to
    # the back, flipping back each negated gadget it anticommutes with
    frame = seq.frame
    gadgets = [g if _anticommutes(g, frame.x, frame.z) else
               _gadget(g.axis, normalized_alpha(-g.alpha), g.support, g.mask)
               for g in reversed(seq.gadgets)]
    return GadgetSequence(seq.num_qubits, gadgets, frame, np.conj(seq.phase))


def pg_right(circuit: Circuit,
             counter: dict | None = None) -> tuple[list, GadgetSequence]:
    """Factor circuit = U_C . U_PG (matrix order): the mirrored primitive,
    pg_left's factorization U^dag = U_PG' . U_C' of the adjoint, inverted."""
    seq_t, word_t = _pull_cnots(circuit, True, counter)
    return word_t[::-1], sequence_adjoint(seq_t)


# ---------------------------------------------------------------------------
# Nuclear-norm reduction by CNOT-pair conjugation
# ---------------------------------------------------------------------------

def conjugate_sequence(seq: GadgetSequence, control: int,
                       target: int) -> GadgetSequence:
    """C . seq . C for the canonical CNOT (self-inverse conjugation)."""
    c = cnot(control, target)
    frame, sign = seq.frame.conjugate_by_cnot_word([(control, target)])
    return GadgetSequence(seq.num_qubits,
                          [commute_cnot(c, g) for g in seq.gadgets],
                          frame, seq.phase * sign)


def conjugation_cost_matrix(seq: GadgetSequence,
                            scheme: str = AUTO) -> np.ndarray:
    """Entry (n, m): total nuclear norm after conjugating every gadget with
    the CNOT controlled on n targeting m; diagonal holds the current norm.

    CNOT(n, m) changes only Z gadgets whose support holds m and X gadgets
    whose support holds n, so each pair maps just those, found in a
    per-qubit index, and shares the rest; a pair that changes no gadget
    keeps the current norm and is not planned.  The current list and every
    other pair's are costed together on their gadgets alone (the frame and
    phase carry no cost), in one `sequence_costs` batch."""
    n = seq.num_qubits
    gadgets = seq.gadgets
    held = {"Z": [[] for _ in range(n)], "X": [[] for _ in range(n)]}
    for i, g in enumerate(gadgets):
        if g.axis not in held:
            raise CircuitError("only X and Z gadgets commute through CNOTs")
        for q in g.support:
            held[g.axis][q].append(i)
    moves, lists = [], [gadgets]
    for a in range(n):
        for b in range(n):
            changed = held["Z"][b] + held["X"][a]
            if a != b and changed:
                c = cnot(a, b)
                moved = list(gadgets)
                for i in changed:
                    moved[i] = commute_cnot(c, gadgets[i])
                moves.append((a, b))
                lists.append(moved)
    costs = sequence_costs(lists, n, scheme)
    out = np.full((n, n), costs[0].total_norm, dtype=float)
    for (a, b), cv in zip(moves, costs[1:]):
        out[a, b] = cv.total_norm
    return out


def _greedy_matching(weights: dict) -> list:
    chosen, used = [], set()
    for (a, b), w in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0])):
        if a not in used and b not in used:
            chosen.append((a, b))
            used.update((a, b))
    return chosen


def norm_reduction_step(seq: GadgetSequence, scheme: str = AUTO
                        ) -> tuple[list, GadgetSequence, bool]:
    """One round of commuting-CNOT conjugations lowering the total norm.

    Returns (applied CNOTs, conjugated sequence, improved).  Candidate pair
    weights are current norm minus the best of the two conjugation
    directions, clipped at zero; accepted pairs are vertex-disjoint."""
    cm = conjugation_cost_matrix(seq, scheme)
    cur = cm[0, 0] if seq.num_qubits else 0.0
    n = seq.num_qubits
    weights = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = cur - min(cm[a, b], cm[b, a])
            if w > 1e-9:
                weights[(a, b)] = w
    applied = []
    out = seq
    for a, b in sorted(_greedy_matching(weights)):
        c, t = (a, b) if cm[a, b] <= cm[b, a] else (b, a)
        out = conjugate_sequence(out, c, t)
        applied.append((c, t))
    return applied, out, bool(applied)


# ---------------------------------------------------------------------------
# Compiled program and the iterative driver
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CompileOptions:
    scheme: str = AUTO
    # None: lexicographic (count, then norm); W: count + W * norm
    cost_weight: float | None = None
    max_iters: int = 50


@dataclass(eq=False)
class CompiledProgram:
    """Three-layer compiled form: CNOT layer, gadget body (with trailing
    Pauli frame and phase), CNOT layer; plus the stripped measurement map."""

    num_qubits: int
    pre: list  # CNOT word: (control, target) pairs in time order
    body: GadgetSequence
    post: list
    measurement_map: dict = field(default_factory=dict)  # bit -> qubit
    scheme: str = AUTO
    commutation_events: int = 0
    cost_trace: list = field(default_factory=list)  # accepted cost keys
    _realized: Circuit | None = field(default=None, init=False, repr=False)

    @property
    def iterations(self) -> int:
        """Accepted norm-reduction steps (0 for a loaded program)."""
        return max(len(self.cost_trace) - 1, 0)

    def cost(self) -> CostVector:
        return sequence_cost(self.body, self.scheme)

    def _replay(self, width: int, middle: list, phase: complex) -> Circuit:
        """Pre layer, then `middle`, then post layer, on `width` qubits."""
        return Circuit(width, [*starmap(cnot, self.pre), *middle,
                               *starmap(cnot, self.post)], global_phase=phase)

    def to_circuit(self) -> Circuit:
        """Ideal replay: pre layer, gadget body, frame, post layer, each
        gadget as one- and two-qubit gates (`decompose_pg`)."""
        body = self.body
        gates = [g for gad in body.gadgets
                 for g in decompose_pg(gad, gad.support[0]).gates]
        return self._replay(self.num_qubits, [*gates, *body.frame.gates()],
                            body.phase)

    def realized_circuit(self) -> Circuit:
        """Replay with the body realized as native multiqubit gates (the
        ancilla, when used, is the final qubit).  Built on the first call
        and kept: nothing changes a program once it is built, and callers
        only read the circuit."""
        if self._realized is None:
            r = realize(self.body, self.scheme)
            self._realized = self._replay(r.num_qubits, r.gates,
                                          r.global_phase)
        return self._realized


def _strip_measures(circuit: Circuit) -> tuple[Circuit, dict]:
    """The circuit's gates without barriers, and its measurement map: each
    classical bit to the last qubit measured into it."""
    gates = [g for g in circuit.gates if not isinstance(g, Barrier)]
    return (Circuit(circuit.num_qubits, gates,
                    global_phase=circuit.global_phase),
            {m.bit: m.qubit for m in circuit.measures})


def _block_pass(circuit: Circuit) -> Circuit:
    """layerize -> SU(4) blocks -> phase minimization of all blocks in one
    stacked call, flattened back to locals + ZZ rotations + canonical
    CNOTs.  The blocks' "loc" gates are built unchecked, and every factor
    they emit is checked for unitarity here in one stacked test."""
    items = form_su4_blocks(layerize(circuit))
    blocks = iter(minimize_block_phase(
        [it for it in items if isinstance(it, Su4Block)]))
    phase = circuit.global_phase
    gates, locs = [], []
    for it in items:
        if isinstance(it, Su4Block):
            blk = next(blocks)
            phase *= blk.phase
            emitted = blk.to_gates()
            locs += [g.matrix for g in emitted if isinstance(g, SingleQubit)]
            gates += emitted
        else:
            gates.append(it)
    if locs:
        m = np.stack(locs)
        if np.max(np.abs(m @ m.conj().mT - I2)) > 1e-12:
            raise CircuitError("gate 'loc' is not unitary to 1e-12")
    return Circuit(circuit.num_qubits, gates, global_phase=phase)


def optimize(circuit: Circuit, opts: CompileOptions | None = None) -> CompiledProgram:
    """Compile a CNOT/ZZ-basis circuit into the three-layer form, iterating
    norm-reducing CNOT conjugations until the cost stops decreasing."""
    opts = opts or CompileOptions()
    stripped, mmap = _strip_measures(circuit)
    raw = to_zz_basis(stripped)
    blocked = _block_pass(raw)
    counter = {"events": 0}
    n = circuit.num_qubits

    # four gadgetization candidates: left- and right-handed extraction, each
    # on the SU(4)-blocked circuit and on the plain lowered one (blocking can
    # smear locals into otherwise-mergeable commuting layers)
    candidates = []
    for flat in (blocked, raw):
        seq_l, pre_l = pg_left(flat, counter)
        candidates.append((seq_l, pre_l, []))
        post_r, seq_r = pg_right(flat, counter)
        candidates.append((seq_r, [], post_r))
    keys = [cv.key(opts.cost_weight) for cv in sequence_costs(
        [s.gadgets for s, _, _ in candidates], n, opts.scheme)]
    cur = min(keys)
    seq, pre, post = candidates[keys.index(cur)]

    trace = [cur]
    for _ in range(opts.max_iters):
        applied, nxt, improved = norm_reduction_step(seq, opts.scheme)
        if not improved:
            break
        nxt = simplify(nxt)
        key = sequence_cost(nxt, opts.scheme).key(opts.cost_weight)
        if key >= cur:
            break
        # U_PG = C . U_PG' . C: the outer CNOT joins the post layer, the
        # inner one the pre layer
        for c, t in applied:
            post.insert(0, (c, t))
            pre.append((c, t))
        seq, cur = nxt, key
        trace.append(cur)

    return CompiledProgram(n, pre, seq, post, mmap, opts.scheme,
                           counter["events"], trace)
