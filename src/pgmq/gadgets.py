"""Phase-gadget algebra: fanout decomposition, interface merging, CNOT and
gadget commutation, and gadget-sequence simplification.

A fanout (a product of generalized CNOTs sharing one target qubit t with
target axis Q) is block-diagonal in the Q-eigenbasis of t: the +1 sector is
the identity and the -1 sector applies the product of the control Paulis.
Matching that sector action against

    exp(i*chi) * exp(i*t*Q_t) * exp(i*pi/4 * sum_q P_q Q_t) * prod_q e^{-i*pi/4*P_q}

gives an exact closed form for the multiqubit-gate realization of any fanout
or fanout-fanout interface, including overlapping supports.  The Pauli-type
couplings are then conjugated to Z(x)Z form by single-qubit Cliffords, which
supplies the local frame around each U_MQ instance.

`fanout(g, target)` is the one place a gadget's fanout is built: onto one of
its own support qubits, or onto an ancilla outside the support.  Both
`decompose_pg` and the realization emitter in `cost` use it, and the
emitter fuses it with `fanout_to_mq` (or, between two gadgets sharing the
ancilla, `merge_interface`).

No code edits a gadget, frame or sequence after it is built: every
rewrite (CNOT conjugation, merging, angle normalization, the adjoint)
returns new values, so gadgets, gadget lists and frames may be shared
freely between sequences.

A gadget carries its support twice: as the sorted qubit tuple `support`
and as the GF(2) bitmask `mask` (bit q set iff q is in the support), the
bit-packed Pauli view, so commutation (`pg_commutes`: same axis, or an
even popcount of the masks' AND), CNOT conjugation (`commute_cnot`: one
bit toggled), merging and anticommutation parities are integer
operations.  The public constructor validates its input; `_gadget` builds
a gadget from parts already checked (a sorted support, its mask and an
alpha in (-2, 2]) and skips that.

Every other Pauli string (the frame, a string pushed into it, a fused
fanout's net control string) is an X-part mask x and a Z-part mask z:
qubit q carries "IXZY"[x_q | z_q << 1], with Y = i X Z so every letter is
Hermitian (the tableau form of Aaronson & Gottesman, quant-ph/0406196).
With |.| a popcount, P(x1, z1) P(x2, z2) = i^k P(x1 ^ x2, z1 ^ z2) for
k = |x1 & z1| + |x2 & z2| - |(x1 ^ x2) & (z1 ^ z2)| + 2 |z1 & x2| (mod 4),
and CNOT(c, t) conjugation sets x ^= x_c << t, z ^= z_t << c and flips the
sign iff x_c z_t (x_t ^ z_c ^ 1).  Letters appear only at the edges,
`PauliFrame.from_letters` and `PauliFrame.paulis`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    PAULI,
    Circuit,
    CircuitError,
    GeneralizedCnot,
    SingleQubit,
    pauli_gate,
    qubit_signs,
)

_LETTERS = "IXZY"
_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, complex(0.0, -1.0))  # i^k, k mod 4


def _product_power(x1: int, z1: int, x2: int, z2: int) -> int:
    """k mod 4 in P(x1, z1) P(x2, z2) = i^k P(x1 ^ x2, z1 ^ z2)."""
    return ((x1 & z1).bit_count() + (x2 & z2).bit_count()
            - ((x1 ^ x2) & (z1 ^ z2)).bit_count()
            + 2 * (z1 & x2).bit_count()) % 4


def _axis_bits(axis: str, mask: int) -> tuple[int, int]:
    """The X and Z parts of the string with `axis` on every qubit of mask."""
    return (0 if axis == "Z" else mask), (0 if axis == "X" else mask)


def pauli_rotation(axis: str, theta: float, q: int) -> SingleQubit:
    """exp(-i * theta/2 * P) on qubit q."""
    m = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * PAULI[axis]
    return SingleQubit(q, m, f"r{axis.lower()}")


# Clifford V with V Z V^dag = P, used to turn P-type couplings into Z-type;
# H = _Z_TO["X"] also has H X H^dag = Z.  Every basis change in the package
# reads these arrays, and gates and frames share them: nothing may write
# into them.
_Z_TO = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    # R_x(-pi/2): rotates Z -> Y
    "Y": (math.cos(math.pi / 4) * np.eye(2)
          + 1j * math.sin(math.pi / 4) * PAULI["X"]),
}
for _v in _Z_TO.values():
    _v.setflags(write=False)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def normalized_alpha(alpha: float) -> float:
    """alpha reduced modulo its period 4 into (-2, 2]; a value already
    there comes back unchanged, bit for bit."""
    a = math.fmod(alpha, 4.0)
    if a > 2.0:
        a -= 4.0
    elif a <= -2.0:
        a += 4.0
    return a


@functools.lru_cache(maxsize=1 << 14)
def support_of(mask: int) -> tuple[int, ...]:
    """The sorted qubits of a support bitmask.  Cached, in a bounded table:
    a compile reads the same few supports off their masks many times."""
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


@dataclass(eq=False, slots=True)
class PhaseGadget:
    """G_P(alpha, J) = exp(i * alpha * pi/2 * P_j1 P_j2 ...), with J held
    both as the sorted tuple `support` and as the bitmask `mask`."""

    axis: str
    alpha: float
    support: tuple[int, ...]
    mask: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.axis not in ("X", "Y", "Z"):
            raise CircuitError("gadget axis must be X, Y or Z")
        sup = tuple(sorted(operator.index(q) for q in self.support))
        if not sup or len(set(sup)) != len(sup):
            raise CircuitError("gadget support must be a nonempty set")
        if sup[0] < 0:
            raise CircuitError("gadget support must hold qubit indices >= 0")
        self.support = sup
        self.mask = sum(1 << q for q in sup)
        self.alpha = normalized_alpha(self.alpha)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.support

    def local_unitary(self) -> np.ndarray:
        k = len(self.support)
        p = np.array([1.0])
        for _ in range(k):
            p = np.kron(PAULI[self.axis], p)
        ang = self.alpha * math.pi / 2
        return math.cos(ang) * np.eye(2 ** k) + 1j * math.sin(ang) * p


_new = object.__new__


def _gadget(axis: str, alpha: float, support: tuple[int, ...],
            mask: int) -> PhaseGadget:
    """A gadget from checked parts, without `__post_init__`: `support`
    sorted and distinct, `mask` its bitmask, `alpha` in (-2, 2]."""
    g = _new(PhaseGadget)
    g.axis, g.alpha, g.support, g.mask = axis, alpha, support, mask
    return g


PAIR_PHASE_EPS = 1e-15   # a U_MQ pair phase at most this in size is dropped


@dataclass(eq=False)
class MultiQubitGate:
    """exp(i * sum_{n<m} theta_nm Z_n Z_m); pair phases stored upper-triangular,
    a pair whose summed phase is at most PAIR_PHASE_EPS in size dropped."""

    pairs: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = {}
        for (n, m), th in self.pairs.items():
            if n == m:
                raise CircuitError("phase matrix must have zero diagonal")
            key = (min(n, m), max(n, m))
            norm[key] = norm.get(key, 0.0) + th
        self.pairs = {k: v for k, v in norm.items()
                      if abs(v) > PAIR_PHASE_EPS}

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({q for pair in self.pairs for q in pair}))

    qubits = support

    def diagonal(self, n: int | None = None) -> np.ndarray:
        """The gate's diagonal over an n-qubit register, or (n None) over
        its support with support[0] least significant."""
        qs = self.support
        if n is None:
            n, pos = len(qs), {q: i for i, q in enumerate(qs)}
        else:
            pos = {q: q for q in qs}
        diag = np.zeros(2 ** n)
        for (a, b), th in self.pairs.items():
            diag += th * qubit_signs(n, pos[a]) * qubit_signs(n, pos[b])
        return np.exp(1j * diag)

    def local_unitary(self) -> np.ndarray:
        return np.diag(self.diagonal())


@dataclass(eq=False)
class PauliFrame:
    """A Pauli-string correction applied after a gadget sequence: X part
    `x`, Z part `z`."""

    x: int = 0
    z: int = 0

    @classmethod
    def from_letters(cls, letters: dict) -> "PauliFrame":
        """The frame of a {qubit: "X", "Y" or "Z"} string."""
        bits = [_axis_bits(p, 1 << q) for q, p in letters.items()]
        return cls(sum(b[0] for b in bits), sum(b[1] for b in bits))

    @property
    def paulis(self) -> list[tuple[int, str]]:
        """(qubit, letter) of every non-identity qubit, ascending."""
        x, z = self.x, self.z
        return [(q, _LETTERS[(x >> q & 1) | (z >> q & 1) << 1])
                for q in support_of(x | z)]

    def gates(self) -> list[SingleQubit]:
        return [pauli_gate(p, q) for q, p in self.paulis]

    def conjugate_by_cnot_word(self, word: list[tuple[int, int]]
                               ) -> tuple["PauliFrame", complex]:
        """The frame A P A^dag for this frame P and the CNOT circuit A given
        as a (control, target) word in time order, and the +/-1 sign picked
        up (conjugation can flip signs, e.g. X_c Z_t -> -Y_c Y_t)."""
        x, z, flip = self.x, self.z, 0
        for c, t in word:
            xc, zt = x >> c & 1, z >> t & 1
            flip ^= xc & zt & (x >> t ^ z >> c ^ 1)
            x ^= xc << t
            z ^= zt << c
        return PauliFrame(x, z), _I_POW[2 * flip]


@dataclass(eq=False)
class GadgetSequence:
    """Ordered phase gadgets plus a trailing Pauli frame and a global phase."""

    num_qubits: int
    gadgets: list = field(default_factory=list)
    frame: PauliFrame = field(default_factory=PauliFrame)
    phase: complex = 1.0 + 0j


@dataclass(eq=False)
class LocalFrame:
    """Single-qubit dressings around a U_MQ: matrix = left . U_MQ . right."""

    left: dict = field(default_factory=dict)    # qubit -> 2x2
    right: dict = field(default_factory=dict)
    phase: complex = 1.0 + 0j

    def left_gates(self) -> list[SingleQubit]:
        return [SingleQubit(q, m, "frameL") for q, m in sorted(self.left.items())]

    def right_gates(self) -> list[SingleQubit]:
        return [SingleQubit(q, m, "frameR") for q, m in sorted(self.right.items())]


# ---------------------------------------------------------------------------
# Fanout and interface identities
# ---------------------------------------------------------------------------

def fanout(g: PhaseGadget, target: int) -> list[GeneralizedCnot]:
    """The fanout that collects g's Pauli string onto `target`, one CNOT per
    other support qubit.  A target inside the support gets target axis X
    (Z for an X gadget), so it maps g's Pauli on the target to g's string;
    a target outside the support is an ancilla with target axis Y, which
    maps its Z to g's string."""
    if target in g.support:
        taxis = "X" if g.axis == "Z" else "Z"
    else:
        taxis = "Y"
    return [GeneralizedCnot(g.axis, q, taxis, target)
            for q in g.support if q != target]


def target_rotation(g: PhaseGadget, target: int) -> SingleQubit:
    """The rotation between g's two fanouts onto `target`: about g's axis on
    a support qubit, about Z on an ancilla."""
    axis = g.axis if target in g.support else "Z"
    return pauli_rotation(axis, -g.alpha * math.pi, target)


def decompose_pg(g: PhaseGadget, jstar: int,
                 num_qubits: int | None = None) -> Circuit:
    """Fanout . single-qubit rotation . fanout realization of a gadget.

    A jstar outside the support is an ancilla: the fanout then targets it
    (axis Y) and the middle rotation acts on it.  The ancilla must start in
    |0> for the logical action to equal g.
    """
    n = num_qubits if num_qubits is not None else max([jstar, *g.support]) + 1
    fan = fanout(g, jstar)
    return Circuit(n, [*fan, target_rotation(g, jstar), *fan])


def _fuse(controls: list[tuple[int, str]], target: int,
          target_axis: str) -> tuple[MultiQubitGate, LocalFrame]:
    """Exact U_MQ + locals for an ordered product of generalized CNOTs sharing
    (target, target_axis).  Later list entries act later in time."""
    # net control string, built in matrix order (later gates left); the
    # controls' first-appearance order fixes the gate's pair order
    x = z = k = 0
    for q, axis in controls:
        cx, cz = _axis_bits(axis, 1 << q)
        k += _product_power(cx, cz, x, z)
        x ^= cx
        z ^= cz
    letters = dict(PauliFrame(x, z).paulis)
    live = [q for q in dict.fromkeys(q for q, _ in controls) if q in letters]
    # sector equations (coeff = i^k): e^{i(chi+t)} = 1,
    # e^{i(chi-t)} (-i)^n coeff_sector = coeff, where coeff_sector comes
    # from prod e^{-i pi/2 P} = (-i)^n prod P
    delta = len(live) * math.pi / 2 + np.angle(_I_POW[k % 4])
    chi = delta / 2
    tshift = -delta / 2
    mq = MultiQubitGate({(q, target): math.pi / 4 for q in live})
    phase = np.exp(1j * chi)
    if not live:
        return mq, LocalFrame(phase=phase)
    vq_t = _Z_TO[target_axis]
    q_t = PAULI[target_axis]
    exp_t = math.cos(tshift) * np.eye(2) + 1j * math.sin(tshift) * q_t
    left = {target: exp_t @ vq_t}
    right = {target: vq_t.conj().T}
    for q in live:
        p = letters[q]
        v = _Z_TO[p]
        rot = (math.cos(math.pi / 4) * np.eye(2)
               - 1j * math.sin(math.pi / 4) * PAULI[p])  # e^{-i pi/4 P}
        left[q] = v
        right[q] = v.conj().T @ rot
    return mq, LocalFrame(left, right, phase)


def fanout_to_mq(fanout: list[GeneralizedCnot]) -> tuple[MultiQubitGate, LocalFrame]:
    """One U_MQ (star-shaped pi/4 phases) plus locals for a fanout."""
    if not fanout:
        return MultiQubitGate({}), LocalFrame()
    target = fanout[0].target
    taxis = fanout[0].target_axis
    for g in fanout:
        if g.target != target or g.target_axis != taxis:
            raise CircuitError("fanout gates must share one target")
    return _fuse([(g.control, g.control_axis) for g in fanout], target, taxis)


def merge_interface(j_set, k_set, a: int, first_axis: str,
                    second_axis: str) -> tuple[MultiQubitGate, LocalFrame]:
    """Fuse the closing fanout of a first gadget (first_axis over j_set) with
    the opening fanout of the next (second_axis over k_set), both targeting
    the ancilla a with axis Y, into one star-shaped Clifford U_MQ."""
    if a in j_set or a in k_set:
        raise CircuitError("ancilla lies inside the merged supports")
    controls = [(q, first_axis) for q in sorted(j_set)]
    controls += [(q, second_axis) for q in sorted(k_set)]
    return _fuse(controls, a, "Y")


def commute_cnot(cnot_gate: GeneralizedCnot, g: PhaseGadget) -> PhaseGadget:
    """Move a canonical CNOT across a gadget: C.G = G'.C and G.C = C.G'.

    The canonical CNOT is self-inverse, so both directions produce the same
    conjugated gadget G' = C G C.  CNOT(j, k) changes a Z gadget only when
    its support holds k (it toggles j) and an X gadget only when its support
    holds j (it toggles k); any other gadget is returned itself.
    """
    if not cnot_gate.is_canonical:
        raise CircuitError("commute_cnot needs a canonical (Z^X) CNOT")
    j, k = cnot_gate.control, cnot_gate.target
    if g.axis == "Z":
        pivot, toggled = k, j
    elif g.axis == "X":
        pivot, toggled = j, k
    else:
        raise CircuitError("only X and Z gadgets commute through CNOTs")
    if not g.mask >> pivot & 1:
        return g
    # the pivot stays, so the support never empties
    mask = g.mask ^ (1 << toggled)
    return _gadget(g.axis, g.alpha, support_of(mask), mask)


def pg_commutes(g1: PhaseGadget, g2: PhaseGadget) -> bool:
    """Gadgets commute iff same axis or an even support overlap."""
    return g1.axis == g2.axis or not (g1.mask & g2.mask).bit_count() & 1


# ---------------------------------------------------------------------------
# Sequence simplification
# ---------------------------------------------------------------------------

ALPHA_EPS = 1e-12
_OTHER_AXES = {"X": "YZ", "Y": "XZ", "Z": "XY"}   # axis -> the other two


def _anticommutes(g: PhaseGadget, xs: int, zs: int) -> int:
    """1 iff g anticommutes with the Pauli string of X part xs and Z part zs:
    an odd number of its support qubits carry a letter other than its axis
    (a Z gadget meets the X part, an X gadget the Z part, a Y gadget the
    qubits with exactly one of the two)."""
    axis = g.axis
    bits = xs if axis == "Z" else zs if axis == "X" else xs ^ zs
    return (bits & g.mask).bit_count() & 1


def simplify(seq: GadgetSequence) -> GadgetSequence:
    """Fixed point of: bubble-merge equal (axis, support) gadgets, normalize
    angles into [-1/2, 1/2) extracting Pauli corrections, drop trivial
    gadgets.  The unitary is preserved exactly.  A gadget is rebuilt only
    when its angle changes."""
    gadgets = seq.gadgets
    x, z, phase = seq.frame.x, seq.frame.z, seq.phase
    changed = True
    while changed:
        changed = False
        # (a)+(b): one sweep; each gadget walks back across the kept ones it
        # commutes with and merges into the first equal one it meets (two
        # kept equal gadgets have one between them they do not commute with,
        # so that is also the earliest equal one it could pass).  Kept
        # gadgets of its own axis commute with it, so it merges into the
        # last equal kept one, at j, iff no kept gadget of another axis
        # after j overlaps it oddly; with no equal kept one it is kept.
        kept: list[PhaseGadget] = []
        # per axis: mask -> index of its last kept gadget, and the (index,
        # mask) of every kept gadget of another axis, in kept order
        last = {"X": {}, "Y": {}, "Z": {}}
        off = {"X": [], "Y": [], "Z": []}
        for g in gadgets:
            axis, mask = g.axis, g.mask
            seen = last[axis]
            j = seen.get(mask)
            if j is not None:
                for i, m in reversed(off[axis]):
                    if i < j:
                        break
                    if (m & mask).bit_count() & 1:
                        j = None
                        break
                if j is not None:
                    h = kept[j]
                    kept[j] = _gadget(axis, normalized_alpha(h.alpha + g.alpha),
                                      h.support, mask)
                    changed = True
                    continue
            seen[mask] = len(kept)
            item = (len(kept), mask)
            for other in _OTHER_AXES[axis]:
                off[other].append(item)
            kept.append(g)
        # (c)+(d): angle normalization with Pauli extraction, then dropping
        # trivial gadgets; x ^ x0 and z ^ z0 are the product, up to a
        # scalar, of the strings moved to the frame in this sweep so far,
        # each gadget flipped at its own turn if it anticommutes with it
        x0, z0 = x, z
        gadgets = []
        for g in kept:
            alpha = -g.alpha if _anticommutes(g, x ^ x0, z ^ z0) else g.alpha
            shift = math.floor(alpha + 0.5)
            if shift != 0:
                alpha -= shift
                sx, sz = _axis_bits(g.axis, g.mask) if shift % 2 else (0, 0)
                k = _product_power(x, z, sx, sz)
                phase *= 1j ** (shift % 4) * _I_POW[k]
                x ^= sx
                z ^= sz
                changed = True
            if abs(alpha) <= ALPHA_EPS:
                changed = True
            elif alpha == g.alpha:
                gadgets.append(g)
            else:
                gadgets.append(_gadget(g.axis, alpha, g.support, g.mask))
    return GadgetSequence(seq.num_qubits, gadgets, PauliFrame(x, z), phase)
