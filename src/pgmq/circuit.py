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
STATEVECTOR_CAP = 16    # the widest register the statevector paths accept


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
        # written so that a NaN entry fails the check too
        if not np.max(np.abs(m @ m.conj().T - I2)) <= 1e-12:
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
        z = qubit_signs(n, self.qubit_a) * qubit_signs(n, self.qubit_b)
        return np.cos(self.theta) + 1j * np.sin(self.theta) * z


_SIGNS: dict = {}   # (n, q) -> qubit_signs(n, q), for n <= STATEVECTOR_CAP


def qubit_signs(n: int, q: int) -> np.ndarray:
    """(-1)^(bit q of x) for every basis index x of an n-qubit register, as
    a read-only int8 vector, built once per (n, q) up to STATEVECTOR_CAP
    wires (at most 64 KiB each).  Products of these signs are exact, so a
    diagonal built from them has the bits of one built from the indices."""
    signs = _SIGNS.get((n, q))
    if signs is None:
        signs = (1 - 2 * ((np.arange(2 ** n) >> q) & 1)).astype(np.int8)
        signs.setflags(write=False)
        if n <= STATEVECTOR_CAP:
            _SIGNS[n, q] = signs
    return signs


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
    both = np.exp(1j * (phi + lam)) if math.isfinite(phi + lam) else np.nan
    m = np.array([[c, -np.exp(1j * lam) * s],
                  [np.exp(1j * phi) * s, both * c]])
    try:
        return SingleQubit(q, m, "u3")
    except CircuitError:
        # phi + lam overflows once both angles are huge (the NaN above), and
        # rounds the smaller angle away once the other is (1e17 has an ulp
        # of 16); the product of the two phases keeps both
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
    (`ZzRotation`, `MultiQubitGate`) and a CZ (a CNOT with Z control and
    Z target) are their phase vector over the register, a canonical CNOT a
    permutation of the rows, a one-qubit gate its 2x2 on one wire, and any
    other gate its dense local operator (`apply_local`)."""
    if isinstance(gate, SingleQubit):
        return Kernel(ONE_QUBIT, gate.matrix, (gate.qubit,))
    if isinstance(gate, GeneralizedCnot) and gate.control_axis == "Z":
        x = np.arange(2 ** n)
        c = (x >> gate.control) & 1
        if gate.target_axis == "X":
            return Kernel(PERMUTE, x ^ (c << gate.target))
        if gate.target_axis == "Z":
            return Kernel(PHASE, 1.0 - 2.0 * (c & (x >> gate.target)))
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
    (m, 2^n) batch of state vectors or one state vector, into `out` (same
    shape, C-contiguous, not overlapping `rows`), bit for bit `gate_apply`
    on each row alone.

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
        shape = (-1, 2 ** n)
        for row, dst in zip(rows.reshape(shape), out.reshape(shape)):
            dst[...] = apply_local(row, table, qubits, n)


# wires per fused block of pending 2x2s: at 9 qubits one 8x8 matmul pass
# costs about 1.3 one-wire passes, a 16x16 one about 1.9
_CHUNK = 3


def _kron(factors: list) -> np.ndarray:
    """np.kron of the factors, the first one most significant, as a new
    array.  The two halves are built first, so that the last product's
    inner loop runs over half the wires, not one."""
    mid = len(factors) // 2
    if mid == 0:
        # one factor, or none for a register of no qubits
        return factors[0].copy() if factors else np.ones((1, 1), complex)
    a = factors[0] if mid == 1 else _kron(factors[:mid])
    b = factors[-1] if len(factors) == mid + 1 else _kron(factors[mid:])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], -1)


def _after(g: tuple, w: tuple) -> tuple:
    """The monomial g applied after w.  A monomial (perm, phase) maps row y
    to phase[y] * row perm[y], None standing for the identity part, so the
    product has perm w_perm[g_perm] and phase g_phase * w_phase[g_perm]."""
    g_perm, g_phase = g
    perm, phase = w
    if g_perm is not None:
        perm = g_perm if perm is None else perm[g_perm]
        if phase is not None:
            phase = phase[g_perm]
    if g_phase is not None:
        phase = g_phase if phase is None else g_phase * phase
    return perm, phase


class _FusedProduct:
    """The state of `apply_unitary`: the product so far, then each wire's
    pending 2x2, then one pending monomial, in time order.  While the
    product is still a monomial (`columns` an int), it is kept as one."""

    def __init__(self, n: int, columns: np.ndarray | int):
        self.n = n
        self.columns = columns
        self.mat = None if isinstance(columns, int) else columns
        self.start = (None, None)   # the product while `mat` is None
        self.local: dict[int, np.ndarray] = {}
        self.after = (None, None)
        self.touched = 0            # bitmask of the pending monomial's wires

    def one_qubit(self, g: SingleQubit) -> None:
        # a 2x2 after the monomial on one of its wires does not commute
        # with it; on any other wire it does, and joins the wire's product
        if self.touched >> g.qubit & 1:
            self.flush(self.touched)
        prev = self.local.get(g.qubit)
        self.local[g.qubit] = g.matrix if prev is None else g.matrix @ prev

    def monomial(self, g: tuple, wires: int) -> None:
        self.after = _after(g, self.after)
        self.touched |= wires

    def dense(self, kernel: Kernel, wires: int) -> None:
        self.flush(self.touched | wires)
        if self.mat is None:
            self.mat = self._start_product()
        self.mat = gate_apply(self.mat, kernel, self.n)

    def flush(self, wires: int) -> None:
        """Apply the pending 2x2s of `wires` (bitmask), then the monomial."""
        mine = [q for q in self.local if wires >> q & 1]
        if self.mat is None:
            if mine:
                self.mat = self._start_product()
            else:
                self.start = _after(self.after, self.start)
        else:
            self._apply_locals(mine)
            perm, phase = self.after
            if perm is not None:
                self.mat = self.mat[perm]
            if phase is not None:
                if self.mat is self.columns:
                    self.mat = self.mat * phase[:, None]
                else:
                    self.mat *= phase[:, None]
        self.after = (None, None)
        self.touched = 0

    def result(self, global_phase: complex) -> np.ndarray:
        if global_phase != 1:
            self.after = _after((None, np.full(2 ** self.n, global_phase)),
                                self.after)
        self.flush(-1)
        return self._start_product() if self.mat is None else self.mat

    def _factors(self, lo: int, hi: int, cols: int) -> list:
        """Kronecker factors of wires hi-1 .. lo: each pending 2x2, popped,
        and one identity per run of wires without one; each keeps its first
        `cols` columns per wire (1 for a wire whose input is |0>)."""
        factors, run = [], 0
        for q in range(hi - 1, lo - 1, -1):
            f = self.local.pop(q, None)
            if f is None:
                run += 1
                continue
            if run:
                factors.append(np.eye(2 ** run, cols ** run, dtype=complex))
                run = 0
            factors.append(f[:, :cols])
        if run:
            factors.append(np.eye(2 ** run, cols ** run, dtype=complex))
        return factors

    def _apply_locals(self, wires: list) -> None:
        """Apply the pending 2x2s of `wires` to the product, those of up to
        _CHUNK adjacent wires as one Kronecker block per matmul (a wire in a
        block with no 2x2 takes the identity; one whose 2x2 is off `wires`
        commutes with the monomial and is applied too).  Each matmul
        replaces the product, so that no more than two are held."""
        n = self.n
        wires = sorted(wires)
        i = 0
        while i < len(wires):
            lo, j = wires[i], i + 1
            while j < len(wires) and wires[j] < lo + _CHUNK:
                j += 1
            hi = wires[j - 1] + 1
            block = self.local.pop(lo) if hi == lo + 1 \
                else _kron(self._factors(lo, hi, 2))
            view = self.mat.reshape(2 ** (n - hi), 2 ** (hi - lo), -1)
            self.mat = np.matmul(block, view).reshape(self.mat.shape)
            i = j

    def _start_product(self) -> np.ndarray:
        """after . kron(every pending 2x2) . start, on the first 2^m
        columns: the Kronecker product (the identity if no 2x2 is pending)
        with its rows permuted and scaled by the monomial after it and its
        columns by the one before."""
        n, m = self.n, self.columns
        perm, phase = self.after
        start_perm, start_phase = self.start
        top = m     # wires from here up start in |0>: one column each
        cols = None
        if start_perm is not None:
            # column x of the product is column inverse[x] of the kron
            cols = np.empty_like(start_perm)
            cols[start_perm] = np.arange(start_perm.size)
            cols = cols[:2 ** m]
            if m < n and int(cols.max()) >= 2 ** m:
                top = n
        mat = _kron(self._factors(top, n, 1) + self._factors(0, top, 2))
        if cols is not None:
            mat = mat[:, cols] if perm is None else mat[np.ix_(perm, cols)]
        elif perm is not None:
            mat = mat[perm]
        if phase is not None:
            mat *= phase[:, None]
        if start_phase is not None:
            mat *= start_phase[:2 ** m] if cols is None else start_phase[cols]
        return mat


def apply_unitary(circuit: Circuit, columns: np.ndarray | int) -> np.ndarray:
    """The circuit's unitary (global phase included) times a block of
    columns: a 2^N x k array, left unchanged, or an int m standing for the
    first 2^m columns of the identity (the basis states of the low m wires,
    the other wires in |0>).

    Gates are fused, not applied one by one.  Each wire's one-qubit gates
    multiply into one pending 2x2.  Every run of the other gates whose
    kernel (`gate_kernel`) is PHASE or PERMUTE (diagonal gates, CZs and
    canonical CNOTs) composes into one pending monomial, a row permutation
    times a phase vector, by index arithmetic on 2^N-vectors.  A one-qubit
    gate on a wire the monomial touches flushes the monomial's wires' 2x2s
    (`_CHUNK` adjacent wires per matmul) and then the monomial (one gather
    and one scaling of the rows); any other gate flushes those and its own
    wires' and is applied through `gate_apply`.  While the product is still
    the identity or a monomial (`columns` an int), the first flush that
    holds a 2x2 is one Kronecker product of every pending 2x2, with its
    rows permuted and scaled by the monomial after it and its columns by
    the one before."""
    n = circuit.num_qubits
    product = _FusedProduct(n, columns)
    for g in circuit.gates:
        if isinstance(g, SingleQubit):
            product.one_qubit(g)
            continue
        if isinstance(g, Barrier):
            continue
        kernel = gate_kernel(g, n)
        wires = 0
        for q in g.qubits:
            wires |= 1 << q
        if kernel.kind == PHASE:
            product.monomial((None, kernel.table), wires)
        elif kernel.kind == PERMUTE:
            product.monomial((kernel.table, None), wires)
        else:
            product.dense(kernel, wires)
    return product.result(circuit.global_phase)


def to_unitary(circuit: Circuit) -> np.ndarray:
    """Dense 2^N x 2^N unitary of the circuit (leftmost gate applied first),
    from the fused oracle `apply_unitary`."""
    n = circuit.num_qubits
    if n > DEFAULT_ORACLE_CAP:
        raise CircuitError(f"register too large for dense oracle "
                           f"({n} > {DEFAULT_ORACLE_CAP})")
    return apply_unitary(circuit, n)


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


def _commutator_size(a, b) -> float:
    """Max-entry size of [a, b] on the joint support for two gates of the
    lowered set (one-qubit gates, canonical CNOTs, ZZ rotations) sharing a
    wire, from their 2x2 entries (as Python scalars)."""
    ra, rb = _KIND_RANK[type(a)], _KIND_RANK[type(b)]
    if ra > rb:
        a, b, ra, rb = b, a, rb, ra
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


def _sharing_commute(a, b) -> bool:
    """Whether two gates of the lowered set that share a wire commute: their
    max-entry commutator on the joint support is below 1e-10.  The closed
    form (`_commutator_size`) decides unless it lies within [1e-11, 1e-9],
    where the dense check does."""
    m = _commutator_size(a, b)
    if _DECIDED_BELOW <= m <= _DECIDED_ABOVE:
        return _dense_commute(a, b)
    return m < _DECIDED_BELOW


def layerize(circuit: Circuit) -> list[list]:
    """Greedy commuting layers, each a list of gates: each gate goes right
    after the last layer it fails to commute with (layer 0 if it commutes
    with everything).  The circuit holds the gate set `qasm.to_zz_basis`
    lowers to: one-qubit gates, canonical CNOTs and ZZ rotations; any other
    gate is refused.  Each layer keeps its gates by wire, and a gate is
    checked only against the gates that share a wire with it, since gates
    on disjoint wires commute.  `_sharing_commute` decides each pair in
    closed form; only commutators within 1e-11..1e-9 of size build dense
    matrices."""
    layers: list[list] = []
    on_wire: list[dict] = []    # per layer: wire -> that layer's gates on it
    for g in circuit.gates:
        rank = _KIND_RANK.get(type(g))
        if rank is None or (rank == 1 and not g.is_canonical):
            raise CircuitError(f"layerize takes one-qubit gates, canonical "
                               f"CNOTs and ZZ rotations, not {g!r}")
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
        """Left-multiply the block by a gate of the lowered set on its wires,
        with the register kernels' arithmetic: a one-qubit gate as one
        batched 2x2 matmul, a canonical CNOT as a row gather, a ZZ rotation
        as its 4x4 times the block (not the phase-vector multiply, whose
        bits differ).  Each gives the bits of the dense local product
        (tests/test_passes.py checks this); any other gate is refused."""
        if isinstance(gate, SingleQubit):
            view = self.unitary.reshape(2 ** (1 - self.pair.index(gate.qubit)),
                                        2, -1)
            self.unitary = np.matmul(gate.matrix, view).reshape(4, 4)
        elif isinstance(gate, GeneralizedCnot) and gate.is_canonical:
            self.unitary = self.unitary[
                _BLOCK_CNOT_PERMS[self.pair.index(gate.control)]]
        elif isinstance(gate, ZzRotation):
            self.unitary = gate.local_unitary() @ self.unitary
        else:
            raise CircuitError(f"an SU(4) block takes one-qubit gates, "
                               f"canonical CNOTs and ZZ rotations, not "
                               f"{gate!r}")


# the row permutation of a canonical CNOT on a block, by the control's local
# position: the index with the control's bit set has the target's bit flipped
_BLOCK_CNOT_PERMS = (np.array([0, 3, 2, 1]), np.array([0, 1, 3, 2]))


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
