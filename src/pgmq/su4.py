"""Two-qubit unitary synthesis: Cartan (KAK) decomposition via the magic
basis with each interaction coefficient reduced into (-pi/4, pi/4],
rewriting into blocks of at most three Z(x)Z rotations with a leading
rotation, and total-entanglement-phase minimization over the six CNOT-pair
completions.

The minimization runs once per circuit, over a stack of all its SU(4)
blocks.  Each distinct unitary (by its bytes) is decomposed once and laid
onto the qubits of every block that holds it.  One diagonalization serves
both the scores and the decompositions (`_invariants`): for all six
completions U.W^dag of every distinct U, with V = U.W^dag / det^(1/4), the
symmetric unitary t = (M^dag V M)^T (M^dag V M) is diagonalized by a real
orthogonal O (Zhang et al., quant-ph/0209120).  The eigenphases on the
diagonal of O^T t O are twice the interaction coefficients mapped through
`_DIAG_SYSTEM`, so the summed |reduced coefficient| of every completion
needs no local factors.  The key (score rounded to 12 digits, word length,
order) picks each completion, and the winners' slices of the same arrays
are decomposed and assembled.

The KAK decomposition (`_kak_raw`) takes a stack too: every step is the
one-matrix step batched (stacked det, eigh, solve and svd, matmuls in the
same operand order), so each member's result is bit for bit what a stack
of one gives.  The column order and sign fixes, the determinant fixes and
the checks act per member, and the diagonalizer's retries with another
real/imaginary mix run only on the members that need them.

Assembly is interpreter-bound, so its exact tests on 2x2 factors
(`_is_identity`, `_as_phase_pauli`) first reject on the four entries as
Python scalars, and only a factor that passes runs the numpy test.
`LhBlock.to_gates` builds its "loc" gates without
`SingleQubit.__post_init__`: `passes._block_pass` checks every emitted
factor for unitarity in one stacked test.

Matrix conventions follow circuit.py: a 4x4 block unitary acts on an ordered
qubit pair (low, high) with the low qubit as the least significant index, so
the tensor product of locals is kron(high_factor, low_factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    I2,
    PAULI,
    Circuit,
    CircuitError,
    SingleQubit,
    Su4Block,
    ZZ,
    ZzRotation,
    cnot,
    to_unitary,
)
from .gadgets import _Z_TO

# Magic basis: columns are the Bell-like states in which SU(2)xSU(2) becomes
# SO(4) and exp(i sum c_k P_k(x)P_k) becomes diagonal.
MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / math.sqrt(2.0)

_PP = {k: np.kron(PAULI[k], PAULI[k]) for k in "XY"} | {"Z": ZZ}

# Diagonal vectors of Mdag (P(x)P) M, one per interaction axis; together with
# the all-ones vector they form the invertible system mapping interaction
# coefficients to the eigenphases of the canonical diagonal part.
_DIAG_SYSTEM = np.column_stack(
    [np.real(np.diag(MAGIC.conj().T @ _PP[k] @ MAGIC)) for k in "XYZ"]
    + [np.ones(4)]
)

# Single-qubit Cliffords that move interaction axes by conjugation:
# (W(x)W) E(cx,cy,cz) (W(x)W)^dag = E(permuted c).
_H = _Z_TO["X"]
_VX = _Z_TO["Y"]  # swaps the YY and ZZ terms
_VX_DAG = _VX.conj().T
_H_VX = _H @ _VX
# shared by every assembled block: nothing may write into them
_VX_DAG.setflags(write=False)
_H_VX.setflags(write=False)

_EPS = 1e-12
_KRON_TOL = 1e-9     # second singular value of a tensor-product matrix
_EXACT_TOL = 1e-12   # identity and phase-Pauli tests on 2x2 factors


def factor_kron(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each 4x4 tensor-product matrix of a (k, 4, 4) stack into its
    (high, low) 2x2 factors, two (k, 2, 2) stacks."""
    r = ms.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    u, s, vh = np.linalg.svd(r)
    if np.any(s[:, 1] > _KRON_TOL):
        raise CircuitError("matrix is not a tensor product of single-qubit factors")
    scale = np.sqrt(s[:, :1])
    hi = (u[:, :, 0] * scale).reshape(-1, 2, 2)
    lo = (vh[:, 0] * scale).reshape(-1, 2, 2)
    # deterministic gauge: largest entry of the high factor made positive real
    flat = hi.reshape(-1, 4)
    top = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    ph = (top / np.hypot(top.real, top.imag))[:, None, None]
    return hi / ph, lo * ph


@dataclass(eq=False)
class KakDecomposition:
    """U = phase * (a_hi (x) a_lo) . E(c) . (b_hi (x) b_lo)."""

    phase: complex
    a_lo: np.ndarray
    a_hi: np.ndarray
    c: tuple[float, float, float]
    b_lo: np.ndarray
    b_hi: np.ndarray


_DIAG = np.arange(4)


def _diag(v: np.ndarray) -> np.ndarray:
    """Diagonal matrices of a (k, 4) stack of vectors, as np.diag builds one."""
    out = np.zeros(v.shape + (4,), dtype=v.dtype)
    out[:, _DIAG, _DIAG] = v
    return out


def _orthogonal_diagonalizer(t: np.ndarray) -> np.ndarray:
    """Real orthogonal O with O^T t O diagonal, for each symmetric unitary t
    of a (k, 4, 4) stack; a member that one mix of t's real and imaginary
    parts fails to diagonalize is retried with the next mix."""
    re, im = np.real(t), np.imag(t)
    o = np.empty(t.shape)
    todo = np.arange(len(t))
    for mu in (0.0, 1.0, 0.5, 0.7268339, 1.6180339887, 0.3141592653):
        _, trial = np.linalg.eigh(re[todo] + mu * im[todo])
        d = trial.mT @ t[todo] @ trial
        d[:, _DIAG, _DIAG] = 0.0
        ok = np.abs(d).max(axis=(1, 2)) < 1e-10
        o[todo[ok]] = trial[ok]
        todo = todo[~ok]
        if not todo.size:
            return o
    raise CircuitError("failed to diagonalize the symmetric invariant matrix")


def _invariants(us: np.ndarray) -> tuple[np.ndarray, ...]:
    """(g0, vm, t, o, d) for each unitary u of a (k, 4, 4) stack: g0 =
    det(u)^(1/4), vm = M^dag (u / g0) M, its symmetric unitary invariant
    t = vm^T vm, a real orthogonal o with o^T t o diagonal, and that
    diagonal d, the spectrum of t."""
    g0 = np.linalg.det(us) ** 0.25
    vm = MAGIC.conj().T @ (us / g0[:, None, None]) @ MAGIC
    t = vm.mT @ vm
    o = _orthogonal_diagonalizer(t)
    return g0, vm, t, o, np.diagonal(o.mT @ t @ o, axis1=1, axis2=2)


def _kak_raw(g0: np.ndarray, vm: np.ndarray, t: np.ndarray, o: np.ndarray,
             d: np.ndarray) -> list[KakDecomposition]:
    """KAK forms with unconstrained interaction coefficients, one per member
    of a stack of `_invariants`."""
    # deterministic column order and sign
    order = np.argsort(np.round(np.angle(d), 10), axis=1, kind="stable")
    o = np.take_along_axis(o, order[:, None, :], axis=2)
    lead = np.take_along_axis(
        o, np.argmax(np.abs(o) > 1e-8, axis=1)[:, None, :], axis=1)
    o = np.where(lead < 0, -o, o)
    neg = np.linalg.det(o) < 0
    o[neg, :, 3] = -o[neg, :, 3]
    d = np.diagonal(o.mT @ t @ o, axis1=1, axis2=2)
    phi = np.angle(d) / 2.0
    k1 = vm @ o @ _diag(np.exp(-1j * phi))
    neg = np.real(np.linalg.det(k1)) < 0
    if neg.any():
        phi[neg, 0] -= math.pi
        k1[neg] = vm[neg] @ o[neg] @ _diag(np.exp(-1j * phi[neg]))
    if np.max(np.abs(np.imag(k1))) > 1e-8:
        raise CircuitError("left orthogonal factor failed to be real")
    sol = np.linalg.solve(_DIAG_SYSTEM, phi[:, :, None])[:, :, 0]
    # both local pairs in one call: the SVD runs per member, so each keeps
    # the bits of its own call
    k = len(sol)
    hi, lo = factor_kron(np.concatenate([MAGIC @ np.real(k1) @ MAGIC.conj().T,
                                         MAGIC @ o.mT @ MAGIC.conj().T]))
    return [KakDecomposition(g0[i] * np.exp(1j * c0), lo[i], hi[i],
                             (cx, cy, cz), lo[k + i], hi[k + i])
            for i, (cx, cy, cz, c0) in enumerate(sol.tolist())]


# P^0 .. P^3 of each Pauli X, Y, Z, as np.linalg.matrix_power builds them
_PAULI_POWERS = [[np.linalg.matrix_power(PAULI[name], m) for m in range(4)]
                 for name in "XYZ"]


def _shift_coeff(k: KakDecomposition, axis: int) -> None:
    """Reduce coefficient `axis` into [-pi/4, pi/4] by quarter-period shifts,
    absorbing the leftover Pauli pair into the right locals."""
    c = list(k.c)
    # round half down so the reduced angle lies in (-pi/4, pi/4]; the small
    # slack keeps values at the -pi/4 boundary (up to fp noise) mapping to
    # +pi/4 rather than sticking at the excluded endpoint
    m = math.ceil(c[axis] / (math.pi / 2) - 0.5 - 1e-12)
    if m == 0:
        return
    c[axis] -= m * math.pi / 2
    pm = _PAULI_POWERS[axis][m % 4]
    k.phase *= 1j ** (m % 4)
    k.b_lo = pm @ k.b_lo
    k.b_hi = pm @ k.b_hi
    k.c = tuple(c)


# ---------------------------------------------------------------------------
# Blocks of ZZ rotations with single-qubit layers
# ---------------------------------------------------------------------------

def _is_identity(m: np.ndarray) -> bool:
    (a, b), (c, d) = m.tolist()
    # a factor 2 _EXACT_TOL away in Python arithmetic fails the numpy
    # test too
    if max(abs(a - 1), abs(b), abs(c), abs(d - 1)) >= 2 * _EXACT_TOL:
        return False
    return bool(np.max(np.abs(m - I2)) < _EXACT_TOL)


def _loc(q: int, m: np.ndarray) -> SingleQubit:
    """A "loc" gate built without `SingleQubit.__post_init__`; its caller
    checks the factor for unitarity."""
    g = object.__new__(SingleQubit)
    g.qubit, g.matrix, g.name = q, m, "loc"
    return g


@dataclass(eq=False)
class LhBlock:
    """A two-qubit block as an alternation of single-qubit layers and Z(x)Z
    rotations, in time order, with an optional trailing canonical-CNOT word.

    Elements are ("loc", lo2x2, hi2x2) or ("zz", phi); a "zz" element is
    always the first non-local element.  `trailing` lists (control, target)
    CNOTs on the actual qubit indices; it is the completion word in the
    matrix-product sense (block . word), so those CNOTs run before the
    alternation in circuit time and can be pulled into a classical layer.
    """

    pair: tuple[int, int]
    elements: list = field(default_factory=list)
    phase: complex = 1.0 + 0j
    trailing: list = field(default_factory=list)

    def to_gates(self) -> list:
        """Block contents as IR gates on the actual qubit pair, time order:
        the completion CNOT word first, then the alternation.  The block's
        scalar phase is not included, and the "loc" gates are not checked
        for unitarity here (`passes._block_pass` checks them all at once)."""
        lo, hi = self.pair
        out = [cnot(c, t) for c, t in self.trailing]
        for e in self.elements:
            if e[0] == "loc":
                if not _is_identity(e[1]):
                    out.append(_loc(lo, e[1]))
                if not _is_identity(e[2]):
                    out.append(_loc(hi, e[2]))
            else:
                out.append(ZzRotation(e[1], lo, hi))
        return out


def _as_phase_pauli(m: np.ndarray):
    """If m = s * P for a phase s and Pauli/identity P, return (s, P-name)."""
    (a, b), (c, d) = m.tolist()
    # I and Z need the off-diagonal entries below _EXACT_TOL, X and Y the
    # diagonal ones, and |s| near 1 rules out the other class; within a
    # class, I needs d = a, Z d = -a, X c = b and Y c = -b.  Only the Paulis
    # whose pattern holds to 2 _EXACT_TOL in Python arithmetic take the
    # numpy test.
    t = 2 * _EXACT_TOL
    if max(abs(b), abs(c)) < t:
        names = "I" * (abs(d - a) < t) + "Z" * (abs(d + a) < t)
    elif max(abs(a), abs(d)) < t:
        names = "X" * (abs(c - b) < t) + "Y" * (abs(c + b) < t)
    else:
        return None
    for name in names:
        p = PAULI[name]
        k = int(np.argmax(np.abs(p)))
        s = m.flat[k] / p.flat[k]
        if (abs(abs(s) - 1.0) < 1e-9
                and np.max(np.abs(m - s * p)) < _EXACT_TOL):
            return s, name
    return None


def _cleanup_pauli_locals(blk: "LhBlock") -> None:
    """Commute local layers that are pure phase-Paulis through the ZZ
    rotations (flipping rotation signs as needed) and merge them together;
    layers that cancel to the identity disappear entirely."""
    out: list = []
    pend = None  # (phase, name_lo, name_hi) waiting to move later in time
    for e in blk.elements:
        if e[0] == "zz":
            ang = e[1]
            if pend is not None:
                flips = sum(1 for nm in pend[1:] if nm in ("X", "Y"))
                if flips % 2:
                    ang = -ang
            out.append(("zz", ang))
        else:
            lo, hi = e[1], e[2]
            if pend is not None:
                lo = lo @ PAULI[pend[1]]
                hi = hi @ PAULI[pend[2]]
                blk.phase *= pend[0]
                pend = None
            pp_lo, pp_hi = _as_phase_pauli(lo), _as_phase_pauli(hi)
            if pp_lo is not None and pp_hi is not None:
                pend = (pp_lo[0] * pp_hi[0], pp_lo[1], pp_hi[1])
            else:
                out.append(("loc", lo, hi))
    if pend is not None:
        blk.phase *= pend[0]
        if pend[1] != "I" or pend[2] != "I":
            out.append(("loc", PAULI[pend[1]].copy(), PAULI[pend[2]].copy()))
    blk.elements = out


def _push_loc(elements: list, lo: np.ndarray, hi: np.ndarray) -> None:
    if elements and elements[-1][0] == "loc":
        _, plo, phi_ = elements[-1]
        elements[-1] = ("loc", lo @ plo, hi @ phi_)
    else:
        elements.append(("loc", lo, hi))


def _checked_unitaries(us) -> np.ndarray:
    """The (k, 4, 4) stack as complex matrices, each checked unitary."""
    us = np.asarray(us, dtype=complex)
    if (us.ndim != 3 or us.shape[1:] != (4, 4)
            or np.max(np.abs(us @ us.conj().mT - np.eye(4))) > 1e-10):
        raise CircuitError("an SU(4) block is not a 4x4 unitary to 1e-10")
    return us


def _reduced_kak(*inv: np.ndarray) -> list[KakDecomposition]:
    """KAK forms of a stack of `_invariants` with each interaction
    coefficient reduced into (-pi/4, pi/4] only: the frame is not permuted
    into the Weyl chamber, so axis-pure inputs keep their natural axis and
    pick up no spurious local layers."""
    kaks = _kak_raw(*inv)
    for k in kaks:
        for axis in range(3):
            _shift_coeff(k, axis)
    return kaks


def _assemble(k: KakDecomposition, pair: tuple[int, int]) -> LhBlock:
    """Lay a reduced KAK form out as single-qubit layers alternating with at
    most three ZZ rotations, a rotation leading all other non-local content."""
    blk = LhBlock(pair, [], k.phase, [])
    els = blk.elements
    if not (_is_identity(k.b_lo) and _is_identity(k.b_hi)):
        _push_loc(els, k.b_lo, k.b_hi)
    cx, cy, cz = k.c
    # time order: ZZ(cz) . Vy^dag . ZZ(cy) . (H Vy) . ZZ(cx) . H, then A,
    # where Vy = _VX maps Z to Y by conjugation
    steps = [(cz, _VX_DAG), (cy, _H_VX), (cx, _H)]
    pending = None  # a local layer, the same on both qubits, not yet placed
    for ang, after in steps:
        if abs(ang) < _EPS:
            # skip the rotation; its surrounding locals still compose
            pending = after if pending is None else after @ pending
            continue
        if pending is not None:
            _push_loc(els, pending, pending)
        els.append(("zz", float(ang)))
        pending = after
    if pending is None:
        pending = I2
    a_lo, a_hi = k.a_lo @ pending, k.a_hi @ pending
    if not (_is_identity(a_lo) and _is_identity(a_hi)):
        _push_loc(els, a_lo, a_hi)
    _cleanup_pauli_locals(blk)
    return blk


# the six CNOT-pair completions as (control, target) words over the local
# pair (0, 1), and the adjoints W^dag of their unitaries
_WORDS = ((), ((0, 1),), ((1, 0),), ((0, 1), (1, 0)), ((1, 0), (0, 1)),
          ((0, 1), (1, 0), (0, 1)))  # the last is SWAP
_WORD_ADJOINTS = np.stack([
    to_unitary(Circuit(2, [cnot(c, t) for c, t in w])).conj().T for w in _WORDS])

# rows of _DIAG_SYSTEM^-1 that map eigenphases to (cx, cy, cz)
_PHASES_TO_COEFFS = np.linalg.inv(_DIAG_SYSTEM)[:3]


def _spectral_scores(lam: np.ndarray) -> np.ndarray:
    """The summed |ZZ angle| of `_assemble(_reduced_kak(...), pair)` for each
    member of a stack of `_invariants`, read from its spectra `lam` (the d
    of `_invariants`) alone.

    The summed |coefficient| does not depend on the order of the eigenphases
    (reordering them permutes the coefficients and flips pairs of signs), so
    sorting stands in for `_kak_raw`'s eigenvector ordering."""
    if np.max(np.abs(np.abs(lam) - 1.0)) > 1e-8:
        raise CircuitError("magic-basis invariant has an eigenvalue off the "
                           "unit circle")
    phi = np.sort(np.angle(lam), axis=1) / 2.0
    # _kak_raw's det(k1) < 0 fix: sum(phi) is an odd multiple of pi
    phi[np.rint(phi.sum(axis=1) / math.pi) % 2 == 1, 0] -= math.pi
    c = phi @ _PHASES_TO_COEFFS.T
    c -= (math.pi / 2) * np.ceil(c / (math.pi / 2) - 0.5 - 1e-12)  # _shift_coeff
    a = np.abs(c)
    return np.where(a >= _EPS, a, 0.0).sum(axis=1)


def minimize_block_phase(blocks: list[Su4Block]) -> list[LhBlock]:
    """For each block U of a circuit, in order, pick the CNOT-word completion
    W minimizing the summed |ZZ angle| of the block decomposition of
    U.W^dag; ties prefer fewer trailing CNOTs, then the fixed completion
    order.

    Each distinct unitary is decomposed once, and its block is laid onto
    the qubits of every block that holds it.  All completions of all
    distinct unitaries are diagonalized once and scored from the spectra,
    and only the winners are decomposed (from their slices of the same
    arrays) and assembled."""
    if not blocks:
        return []
    us = _checked_unitaries(np.stack([b.unitary for b in blocks]))
    slot: dict[bytes, int] = {}
    which = [slot.setdefault(u.tobytes(), len(slot)) for u in us]
    distinct = us[np.unique(which, return_index=True)[1]]
    inv = _invariants((distinct[:, None] @ _WORD_ADJOINTS).reshape(-1, 4, 4))
    scores = _spectral_scores(inv[-1]).reshape(-1, len(_WORDS))
    best = [min(range(len(_WORDS)),
                key=lambda i: (round(float(row[i]), 12), len(_WORDS[i]), i))
            for row in scores]
    won = np.arange(0, inv[0].size, len(_WORDS)) + best
    kaks = _reduced_kak(*(a[won] for a in inv))
    shapes = [_assemble(k, (0, 1)) for k in kaks]
    # blocks holding the same unitary share its "loc" arrays, as do the
    # SingleQubit gates built from them: nothing may write into them
    return [LhBlock(b.pair, list(shapes[j].elements), shapes[j].phase,
                    [(b.pair[c], b.pair[t]) for c, t in _WORDS[best[j]]])
            for b, j in zip(blocks, which)]
