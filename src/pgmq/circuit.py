"""Core circuit IR: gates, dense-unitary oracle, layering, SU(4) block formation.

Conventions (fixed once, used everywhere):
  * little-endian -- qubit 0 is the least significant tensor factor, so a
    basis index x has bit q equal to (x >> q) & 1.
  * G_P(alpha, J) = exp(+i * alpha * pi/2 * P_j1 P_j2 ...), alpha dimensionless.
  * ZzRotation(theta) = exp(+i * theta * Z (x) Z) = G_Z(2*theta/pi, {n, m}).
  * C_{P_j ^ Q_k} = exp[i (I - P_j)(I - Q_k) pi/4]; the canonical CNOT is
    C_{Z_j ^ X_k} and equals the usual CNOT matrix with no extra phase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ZZ = np.kron(PAULI["Z"], PAULI["Z"])
ZZ.setflags(write=False)

DEFAULT_ORACLE_CAP = 10


class CircuitError(Exception):
    pass


class InputError(CircuitError):
    """Input the package does not accept (as opposed to a broken internal
    invariant)."""


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SingleQubit:
    """Arbitrary 2x2 unitary on one qubit, carrying a name."""

    qubit: int
    matrix: np.ndarray
    name: str = "u"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise CircuitError("single-qubit gate needs a 2x2 matrix")
        if np.max(np.abs(m @ m.conj().T - I2)) > 1e-12:
            raise CircuitError(f"gate {self.name!r} is not unitary to 1e-12")
        self.matrix = m

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)

    def local_unitary(self) -> np.ndarray:
        return self.matrix


@dataclass(eq=False)
class GeneralizedCnot:
    """C_{P_j ^ Q_k}: control axis P on qubit j, target axis Q on qubit k.

    Equals the projector form |+P><+P| (x) I + |-P><-P| (x) Q, which matches
    exp[i (I-P)(I-Q) pi/4] exactly (no global phase).
    """

    control_axis: str
    control: int
    target_axis: str
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise CircuitError("generalized CNOT needs distinct qubits")
        if self.control_axis not in "XYZ" or self.target_axis not in "XYZ":
            raise CircuitError("axes must be X, Y or Z")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)

    @property
    def is_canonical(self) -> bool:
        return self.control_axis == "Z" and self.target_axis == "X"

    def local_unitary(self) -> np.ndarray:
        """The shared read-only 4x4 matrix, control least significant."""
        return _GCNOT_LOCAL[self.control_axis, self.target_axis]


def _projector_form(control_axis: str, target_axis: str) -> np.ndarray:
    p = PAULI[control_axis]
    q = PAULI[target_axis]
    plus = (I2 + p) / 2
    minus = (I2 - p) / 2
    m = np.kron(I2, plus) + np.kron(q, minus)
    m.setflags(write=False)
    return m


_GCNOT_LOCAL = {(p, q): _projector_form(p, q) for p in "XYZ" for q in "XYZ"}


@dataclass(eq=False)
class ZzRotation:
    """exp(i * theta * Z_a Z_b)."""

    theta: float
    qubit_a: int
    qubit_b: int

    def __post_init__(self):
        if self.qubit_a == self.qubit_b:
            raise CircuitError("ZZ rotation needs distinct qubits")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit_a, self.qubit_b)

    def local_unitary(self) -> np.ndarray:
        return np.cos(self.theta) * np.eye(4) + 1j * np.sin(self.theta) * ZZ

    def diagonal(self, n: int) -> np.ndarray:
        """The gate's diagonal over an n-qubit register."""
        x = np.arange(2 ** n)
        z = 1 - 2 * (((x >> self.qubit_a) ^ (x >> self.qubit_b)) & 1)
        return np.cos(self.theta) + 1j * np.sin(self.theta) * z


@dataclass(eq=False)
class Measure:
    """An entry of `Circuit.measures`, never a gate."""

    qubit: int
    bit: int


@dataclass(eq=False)
class Barrier:
    over: tuple[int, ...] = ()

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.over


# ---------------------------------------------------------------------------
# Named single-qubit constructors
# ---------------------------------------------------------------------------

def u1(lam: float, q: int) -> SingleQubit:
    return SingleQubit(q, np.diag([1.0, np.exp(1j * lam)]), "u1")


def u3(theta: float, phi: float, lam: float, q: int) -> SingleQubit:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.array([[c, -np.exp(1j * lam) * s],
                  [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])
    try:
        return SingleQubit(q, m, "u3")
    except CircuitError:
        # phi + lam rounds the smaller angle away once the other is huge
        # (1e17 has an ulp of 16); the product of the two phases keeps both
        m[1, 1] = np.exp(1j * phi) * np.exp(1j * lam) * c
        return SingleQubit(q, m, "u3")


def hadamard(q: int) -> SingleQubit:
    return SingleQubit(q, np.array([[1, 1], [1, -1]]) / np.sqrt(2), "h")


@functools.lru_cache(maxsize=None)
def pauli_gate(axis: str, q: int) -> SingleQubit:
    """The Pauli gate on qubit q, built and checked once per (axis, q) and
    then shared: nothing changes a gate after construction."""
    return SingleQubit(q, PAULI[axis], axis.lower())


def cnot(control: int, target: int) -> GeneralizedCnot:
    return GeneralizedCnot("Z", control, "X", target)


# ---------------------------------------------------------------------------
# Circuit
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Circuit:
    """Gates in time order, then the terminal measurements in written order."""

    num_qubits: int
    gates: list = field(default_factory=list)
    classical_bits: int = 0
    global_phase: complex = 1.0 + 0j
    measures: list = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            self._check(g)
        for m in self.measures:
            if not (0 <= m.qubit < self.num_qubits
                    and 0 <= m.bit < self.classical_bits):
                raise CircuitError(f"measurement of qubit {m.qubit} into bit "
                                   f"{m.bit} out of range")

    def _check(self, g):
        if isinstance(g, Measure):
            raise CircuitError("a measurement belongs in measures, not gates")
        for q in g.qubits:
            if not (0 <= q < self.num_qubits):
                raise CircuitError(f"qubit {q} out of range (N={self.num_qubits})")

    def add(self, g) -> "Circuit":
        self._check(g)
        self.gates.append(g)
        return self


# ---------------------------------------------------------------------------
# Dense oracle
# ---------------------------------------------------------------------------

def apply_local(mat: np.ndarray, local: np.ndarray, qubits: tuple[int, ...],
                n: int) -> np.ndarray:
    """Left-multiply a 2^n x (...) array by a local operator on `qubits`.

    `local` is 2^k x 2^k with qubits[0] as its least significant index.  This
    is the reference every structured kernel of `gate_apply` is tested
    against.
    """
    k = len(qubits)
    rest = mat.shape[1:]
    t = mat.reshape((2,) * n + rest)
    # local reshaped index order: (o_{k-1}, ..., o_0, i_{k-1}, ..., i_0) where
    # slot j corresponds to qubits[j]
    loc = local.reshape((2,) * (2 * k))
    loc_in = [2 * k - 1 - j for j in range(k)]          # input axis of slot j
    t_in = [n - 1 - qubits[j] for j in range(k)]        # t axis of qubits[j]
    t = np.tensordot(loc, t, axes=(loc_in, t_in))
    # loc's output axes land first, ordered (o_{k-1}, ..., o_0); move each
    # back to its qubit's axis position.
    src = list(range(k))
    dst = [n - 1 - qubits[k - 1 - i] for i in range(k)]
    t = np.moveaxis(t, src, dst)
    return t.reshape((2 ** n,) + rest)


PHASE, PERMUTE, ONE_QUBIT, LOCAL = "phase", "permute", "one-qubit", "local"


class Kernel(NamedTuple):
    """How `gate_apply` applies one gate to the rows of a 2^n x (...) array."""

    kind: str               # PHASE, PERMUTE, ONE_QUBIT or LOCAL
    table: np.ndarray       # phase vector, row permutation, 2x2 or dense local
    qubits: tuple = ()      # the wires of ONE_QUBIT and LOCAL


def gate_kernel(gate, n: int) -> Kernel:
    """The kernel of one gate on an n-qubit register: a diagonal gate
    (`ZzRotation`, `MultiQubitGate`) is its phase vector over the register, a
    canonical CNOT a permutation of the rows, a one-qubit gate its 2x2 on one
    wire, and any other gate its dense local operator (`apply_local`)."""
    if isinstance(gate, SingleQubit):
        return Kernel(ONE_QUBIT, gate.matrix, (gate.qubit,))
    if isinstance(gate, GeneralizedCnot) and gate.is_canonical:
        x = np.arange(2 ** n)
        return Kernel(PERMUTE, x ^ (((x >> gate.control) & 1) << gate.target))
    if hasattr(gate, "diagonal"):
        return Kernel(PHASE, gate.diagonal(n))
    return Kernel(LOCAL, gate.local_unitary(), gate.qubits)


def gate_apply(mat: np.ndarray, gate, n: int) -> np.ndarray:
    """Apply one gate to the rows of `mat` (a unitary or statevector) through
    its kernel; `gate` may also be a `Kernel` built beforehand."""
    if isinstance(gate, Barrier):
        return mat
    kind, table, qubits = gate if isinstance(gate, Kernel) \
        else gate_kernel(gate, n)
    if kind == PHASE:
        return mat * table.reshape(table.shape + (1,) * (mat.ndim - 1))
    if kind == PERMUTE:
        return mat[table]
    if kind == ONE_QUBIT:
        # one batched matmul of the 2x2 over the (2^(n-1-q), 2, rest) view
        # of the rows, with no axis-moving copy
        view = mat.reshape(2 ** (n - 1 - qubits[0]), 2, -1)
        return np.matmul(table, view).reshape(mat.shape)
    return apply_local(mat, table, qubits, n)


def gate_apply_rows(rows: np.ndarray, out: np.ndarray, kernel: Kernel,
                    n: int) -> None:
    """Write `kernel` applied to each row of `rows`, a sample-major
    (m, 2^n) batch of state vectors, into `out` (same shape, C-contiguous,
    not overlapping `rows`), bit for bit `gate_apply` on each row alone.

    The batch is sample-major so that every kind applies a row's
    single-vector arithmetic: the phase vector and the permutation run
    along each row, the one-qubit matmul's stack of 2 x 2^q blocks is each
    row's stack end to end, and a dense local operator is applied row by
    row.  The gather clips instead of raising: `take` with "raise" buffers
    its output, which doubled a one-row gather at 12 qubits."""
    kind, table, qubits = kernel
    if kind == PHASE:
        np.multiply(rows, table, out=out)
    elif kind == PERMUTE:
        rows.take(table, axis=-1, out=out, mode="clip")
    elif kind == ONE_QUBIT:
        shape = (-1, 2, 2 ** qubits[0])
        np.matmul(table, rows.reshape(shape), out=out.reshape(shape))
    else:
        for row, dst in zip(rows, out):
            dst[...] = apply_local(row, table, qubits, n)


def to_unitary(circuit: Circuit) -> np.ndarray:
    """Dense 2^N x 2^N unitary of the circuit (leftmost gate applied first).
    The one-qubit gates on a wire between two gates that touch it are
    multiplied into one 2x2 before they are applied."""
    n = circuit.num_qubits
    if n > DEFAULT_ORACLE_CAP:
        raise CircuitError(f"register too large for dense oracle "
                           f"({n} > {DEFAULT_ORACLE_CAP})")
    u = np.eye(2 ** n, dtype=complex)
    pending: dict[int, np.ndarray] = {}     # wire -> product of its locals
    for g in circuit.gates:
        if isinstance(g, SingleQubit):
            prev = pending.get(g.qubit)
            pending[g.qubit] = g.matrix if prev is None else g.matrix @ prev
            continue
        for q in g.qubits:
            if q in pending:
                u = gate_apply(u, Kernel(ONE_QUBIT, pending.pop(q), (q,)), n)
        u = gate_apply(u, g, n)
    for q, m in pending.items():
        u = gate_apply(u, Kernel(ONE_QUBIT, m, (q,)), n)
    return circuit.global_phase * u


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry distance between a and b modulo a global phase."""
    tr = np.vdot(a, b)      # trace(a^dag b) in O(size), not a product
    ph = tr / abs(tr) if abs(tr) > 1e-14 else 1.0
    return float(np.max(np.abs(a * ph - b)))


# ---------------------------------------------------------------------------
# Layering
# ---------------------------------------------------------------------------

# commutator sizes below the first bound commute and above the second do
# not; between them the closed form's rounding could cross the dense check's
# 1e-10 threshold, so the dense check decides
_DECIDED_BELOW, _DECIDED_ABOVE = 1e-11, 1e-9
_KIND_RANK = {SingleQubit: 0, GeneralizedCnot: 1, ZzRotation: 2}


def _commutator_size(a, b) -> float | None:
    """Max-entry size of [a, b] on the joint support for two gates sharing a
    wire, from their 2x2 entries (as Python scalars); None for kinds without
    a closed form."""
    ra, rb = _KIND_RANK.get(type(a)), _KIND_RANK.get(type(b))
    if ra is None or rb is None:
        return None
    if ra > rb:
        a, b, ra, rb = b, a, rb, ra
    if (ra == 1 and not a.is_canonical) or (rb == 1 and not b.is_canonical):
        return None
    if ra == 0:
        (u00, u01), (u10, u11) = a.matrix.tolist()
        if rb == 0:
            (v00, v01), (v10, v11) = b.matrix.tolist()
            # [u, v] has opposite diagonal entries
            return max(abs(u01 * v10 - v01 * u10),
                       abs(u00 * v01 + u01 * v11 - v00 * u01 - v01 * u11),
                       abs(u10 * v00 + u11 * v10 - v10 * u00 - v11 * u10))
        off = max(abs(u01), abs(u10))
        if rb == 2:
            # [u (x) I, cos + i sin ZZ] = i sin [u, Z] (x) Z
            return 2.0 * abs(math.sin(b.theta)) * off
        if a.qubit == b.control:
            # [u, P0] (x) (I - X)
            return off
        # P1 (x) [u, X]
        return max(abs(u01 - u10), abs(u00 - u11))
    if ra == 1:
        if rb == 1:
            return float(a.control == b.target or b.control == a.target)
        # CNOT maps Z_t to Z_c Z_t and fixes Z_c
        return 2.0 * abs(math.sin(b.theta)) if a.target in b.qubits else 0.0
    return 0.0  # two ZZ rotations are both diagonal


def _dense_commute(a, b) -> bool:
    """Dense commutation check on the joint support (at most 4 qubits)."""
    qs = tuple(sorted(set(a.qubits) | set(b.qubits)))
    k = len(qs)
    pos = {q: i for i, q in enumerate(qs)}
    ua = apply_local(np.eye(2 ** k, dtype=complex), a.local_unitary(),
                     tuple(pos[q] for q in a.qubits), k)
    ub = apply_local(np.eye(2 ** k, dtype=complex), b.local_unitary(),
                     tuple(pos[q] for q in b.qubits), k)
    return bool(np.max(np.abs(ua @ ub - ub @ ua)) < 1e-10)


def gates_commute(a, b) -> bool:
    """Whether the max-entry commutator of two gates on their joint support
    is below 1e-10.  Gates on disjoint wires commute; pairs of one-qubit
    gates, canonical CNOTs and ZZ rotations are decided from the closed-form
    commutator size unless it lies within [1e-11, 1e-9]; those and all
    other kinds take the dense check."""
    return set(a.qubits).isdisjoint(b.qubits) or _sharing_commute(a, b)


def _sharing_commute(a, b) -> bool:
    """`gates_commute` for two gates known to share a wire."""
    m = _commutator_size(a, b)
    if m is None or _DECIDED_BELOW <= m <= _DECIDED_ABOVE:
        return _dense_commute(a, b)
    return m < _DECIDED_BELOW


_LAYERABLE = (SingleQubit, GeneralizedCnot, ZzRotation)


def layerize(circuit: Circuit) -> list[list]:
    """Greedy commuting layers, each a list of gates: each gate goes right
    after the last layer it fails to commute with (layer 0 if it commutes
    with everything).  Each layer keeps its gates by wire, and a gate is
    checked only against the gates that share a wire with it, since gates
    on disjoint wires commute.  `gates_commute` decides one-qubit gates,
    CNOTs and ZZ rotations in closed form; only commutators within
    1e-11..1e-9 of size build dense matrices."""
    layers: list[list] = []
    on_wire: list[dict] = []    # per layer: wire -> that layer's gates on it
    for g in circuit.gates:
        if not isinstance(g, _LAYERABLE):
            raise CircuitError(f"unsupported gate kind for layerize: {type(g).__name__}")
        qs = g.qubits
        blocked = -1
        for idx in range(len(layers) - 1, -1, -1):
            wires = on_wire[idx]
            met = wires.get(qs[0], [])
            if len(qs) == 2 and qs[1] in wires:
                # a gate on both wires is already in met
                met = met + [o for o in wires[qs[1]] if qs[0] not in o.qubits]
            if any(not _sharing_commute(g, other) for other in met):
                blocked = idx
                break
        target = blocked + 1
        if target == len(layers):
            layers.append([])
            on_wire.append({})
        layers[target].append(g)
        for q in qs:
            on_wire[target].setdefault(q, []).append(g)
    return layers


# ---------------------------------------------------------------------------
# SU(4) block formation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Su4Block:
    """Accumulated 4x4 unitary on an ordered qubit pair (low, high).

    The low qubit is the least significant index of the 4x4 matrix.
    """

    pair: tuple[int, int]
    unitary: np.ndarray

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.pair

    def absorb(self, gate) -> None:
        """Left-multiply the block by a gate on its wires, by the gate's
        kind: a one-qubit gate and a canonical CNOT through `gate_apply`'s
        ONE_QUBIT and PERMUTE kernels, a ZZ rotation as its 4x4 times the
        block, any other gate through `apply_local`.  Each gives the bits of
        `apply_local` (tests/test_passes.py checks this)."""
        pos = tuple(self.pair.index(q) for q in gate.qubits)
        if isinstance(gate, SingleQubit):
            kernel = Kernel(ONE_QUBIT, gate.matrix, pos)
        elif isinstance(gate, GeneralizedCnot) and gate.is_canonical:
            kernel = _BLOCK_CNOT_KERNELS[pos]
        elif isinstance(gate, ZzRotation):
            # not the phase-vector multiply, whose bits differ
            self.unitary = gate.local_unitary() @ self.unitary
            return
        else:
            kernel = Kernel(LOCAL, gate.local_unitary(), pos)
        self.unitary = gate_apply(self.unitary, kernel, 2)


# the PERMUTE kernel of a canonical CNOT (control, target) on a block's
# local positions
_BLOCK_CNOT_KERNELS = {(c, t): gate_kernel(cnot(c, t), 2)
                       for c, t in ((0, 1), (1, 0))}


def form_su4_blocks(layers: list[list]) -> list:
    """Collapse the layered circuit into Su4Blocks plus leftover single-qubit
    gates, preserving the overall unitary.  Returns the ordered item list.
    Each gate enters its block by its kind (`Su4Block.absorb`), with the
    bits of the dense `apply_local` product."""
    items: list = []
    last_touch: dict[int, int] = {}

    def new_item(it) -> int:
        items.append(it)
        idx = len(items) - 1
        for q in it.qubits:
            last_touch[q] = idx
        return idx

    for lay in layers:
        for g in lay:
            qs = g.qubits
            if len(qs) == 1:
                q = qs[0]
                idx = last_touch.get(q)
                it = items[idx] if idx is not None else None
                if isinstance(it, Su4Block) and q in it.pair:
                    it.absorb(g)
                else:
                    new_item(g)
            elif len(qs) == 2:
                a, b = qs
                ia, ib = last_touch.get(a), last_touch.get(b)
                it = items[ia] if ia is not None else None
                if (ia is not None and ia == ib and isinstance(it, Su4Block)
                        and set(it.pair) == {a, b}):
                    it.absorb(g)
                else:
                    pair = (min(a, b), max(a, b))
                    block = Su4Block(pair, np.eye(4, dtype=complex))
                    # absorb trailing loose single-qubit gates on these wires
                    for q in pair:
                        iq = last_touch.get(q)
                        if iq is not None and isinstance(items[iq], SingleQubit):
                            block.absorb(items[iq])
                            items[iq] = None
                    block.absorb(g)
                    new_item(block)
            else:
                raise CircuitError("form_su4_blocks expects 1- or 2-qubit gates")
    return [it for it in items if it is not None]
