"""Two-qubit unitary synthesis: Cartan (KAK) decomposition via the magic
basis with each interaction coefficient reduced into (-pi/4, pi/4],
rewriting into blocks of at most three Z(x)Z rotations with a leading
rotation, and total-entanglement-phase minimization over the six CNOT-pair
completions.

The minimization scores all six completions U.W^dag from one batched
spectrum: the eigenphases of (M^dag V M)^T (M^dag V M), with
V = U.W^dag / det^(1/4), are twice the interaction coefficients mapped
through `_DIAG_SYSTEM`
(Zhang et al., quant-ph/0209120), so the summed |reduced coefficient| needs
no eigenvectors and no local factors.  The key (score rounded to 12 digits,
word length, order) picks the completion, and only the winner is decomposed
and assembled.

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
    ZZ,
    ZzRotation,
    cnot,
    to_unitary,
)

_SQ2 = math.sqrt(2.0)

# Magic basis: columns are the Bell-like states in which SU(2)xSU(2) becomes
# SO(4) and exp(i sum c_k P_k(x)P_k) becomes diagonal.
MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / _SQ2

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
_H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
_VX = (math.cos(math.pi / 4) * I2
       + 1j * math.sin(math.pi / 4) * PAULI["X"])  # swaps the YY and ZZ terms

_EPS = 1e-12


def interaction_unitary(c: tuple[float, float, float]) -> np.ndarray:
    """E(c) = exp(i (cx XX + cy YY + cz ZZ)) as a dense 4x4 matrix."""
    # the three terms commute and are jointly diagonal in the magic basis
    phases = _DIAG_SYSTEM[:, :3] @ np.asarray(c, dtype=float)
    return MAGIC @ np.diag(np.exp(1j * phases)) @ MAGIC.conj().T


def factor_kron(m: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Split a 4x4 tensor-product matrix into (high, low) 2x2 factors."""
    r = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(r)
    if s.size > 1 and s[1] > tol:
        raise CircuitError("matrix is not a tensor product of single-qubit factors")
    hi = (u[:, 0] * math.sqrt(s[0])).reshape(2, 2)
    lo = (vh[0] * math.sqrt(s[0])).reshape(2, 2)
    # deterministic gauge: largest entry of the high factor made positive real
    k = int(np.argmax(np.abs(hi)))
    ph = hi.flat[k] / abs(hi.flat[k])
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

    def reconstruct(self) -> np.ndarray:
        return (self.phase * np.kron(self.a_hi, self.a_lo)
                @ interaction_unitary(self.c) @ np.kron(self.b_hi, self.b_lo))


def _orthogonal_diagonalizer(t: np.ndarray) -> np.ndarray:
    """Real orthogonal O with O^T t O diagonal, for symmetric unitary t."""
    re, im = np.real(t), np.imag(t)
    for mu in (0.0, 1.0, 0.5, 0.7268339, 1.6180339887, 0.3141592653):
        _, o = np.linalg.eigh(re + mu * im)
        d = o.T @ t @ o
        if np.max(np.abs(d - np.diag(np.diag(d)))) < 1e-10:
            return o
    raise CircuitError("failed to diagonalize the symmetric invariant matrix")


def _kak_raw(u: np.ndarray) -> KakDecomposition:
    """KAK form with unconstrained interaction coefficients."""
    det = np.linalg.det(u)
    g0 = det ** 0.25
    v = u / g0
    vm = MAGIC.conj().T @ v @ MAGIC
    t = vm.T @ vm
    o = _orthogonal_diagonalizer(t)
    # deterministic column order and sign
    d = np.diag(o.T @ t @ o)
    order = np.lexsort((np.arange(4), np.round(np.angle(d), 10)))
    o = o[:, order]
    for j in range(4):
        nz = np.flatnonzero(np.abs(o[:, j]) > 1e-8)[0]
        if o[nz, j] < 0:
            o[:, j] = -o[:, j]
    if np.linalg.det(o) < 0:
        o[:, 3] = -o[:, 3]
    d = np.diag(o.T @ t @ o)
    phi = np.angle(d) / 2.0
    k2 = o.T
    k1 = vm @ o @ np.diag(np.exp(-1j * phi))
    if np.real(np.linalg.det(k1)) < 0:
        phi[0] -= math.pi
        k1 = vm @ o @ np.diag(np.exp(-1j * phi))
    if np.max(np.abs(np.imag(k1))) > 1e-8:
        raise CircuitError("left orthogonal factor failed to be real")
    k1 = np.real(k1)
    sol = np.linalg.solve(_DIAG_SYSTEM, phi)
    cx, cy, cz, c0 = (float(x) for x in sol)
    l1 = MAGIC @ k1 @ MAGIC.conj().T
    l2 = MAGIC @ k2 @ MAGIC.conj().T
    a_hi, a_lo = factor_kron(l1)
    b_hi, b_lo = factor_kron(l2)
    return KakDecomposition(g0 * np.exp(1j * c0), a_lo, a_hi,
                            (cx, cy, cz), b_lo, b_hi)


def _shift_coeff(k: KakDecomposition, axis: int) -> None:
    """Reduce coefficient `axis` into [-pi/4, pi/4] by quarter-period shifts,
    absorbing the leftover Pauli pair into the right locals."""
    names = "XYZ"
    c = list(k.c)
    # round half down so the reduced angle lies in (-pi/4, pi/4]; the small
    # slack keeps values at the -pi/4 boundary (up to fp noise) mapping to
    # +pi/4 rather than sticking at the excluded endpoint
    m = math.ceil(c[axis] / (math.pi / 2) - 0.5 - 1e-12)
    if m == 0:
        return
    c[axis] -= m * math.pi / 2
    p = PAULI[names[axis]]
    pm = np.linalg.matrix_power(p, m % 4)
    k.phase *= 1j ** (m % 4)
    k.b_lo = pm @ k.b_lo
    k.b_hi = pm @ k.b_hi
    k.c = tuple(c)


# ---------------------------------------------------------------------------
# Blocks of ZZ rotations with single-qubit layers
# ---------------------------------------------------------------------------

def _is_identity(m: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(m - I2)) < tol)


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

    def zz_angles(self) -> list[float]:
        return [e[1] for e in self.elements if e[0] == "zz"]

    def total_phase(self) -> float:
        return float(sum(abs(a) for a in self.zz_angles()))

    def to_gates(self) -> list:
        """Block contents as IR gates on the actual qubit pair, time order:
        the completion CNOT word first, then the alternation.  The block's
        scalar phase is not included."""
        lo, hi = self.pair
        out = [cnot(c, t) for c, t in self.trailing]
        for e in self.elements:
            if e[0] == "loc":
                if not _is_identity(e[1]):
                    out.append(SingleQubit(lo, e[1], "loc"))
                if not _is_identity(e[2]):
                    out.append(SingleQubit(hi, e[2], "loc"))
            else:
                out.append(ZzRotation(e[1], lo, hi))
        return out


def _as_phase_pauli(m: np.ndarray, tol: float = 1e-12):
    """If m = s * P for a phase s and Pauli/identity P, return (s, P-name)."""
    for name in "IXYZ":
        p = PAULI[name]
        k = int(np.argmax(np.abs(p)))
        s = m.flat[k] / p.flat[k]
        if abs(abs(s) - 1.0) < 1e-9 and np.max(np.abs(m - s * p)) < tol:
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


def _checked_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or np.max(np.abs(u @ u.conj().T - np.eye(4))) > 1e-10:
        raise CircuitError("to_lh_block needs a 4x4 unitary")
    return u


def _reduced_kak(u: np.ndarray) -> KakDecomposition:
    """KAK form with each interaction coefficient reduced into (-pi/4, pi/4]."""
    k = _kak_raw(_checked_unitary(u))
    for axis in range(3):
        _shift_coeff(k, axis)
    return k


def _assemble(k: KakDecomposition, pair: tuple[int, int]) -> LhBlock:
    """Lay a reduced KAK form out as single-qubit layers alternating with at
    most three ZZ rotations, a rotation leading all other non-local content."""
    blk = LhBlock(pair, [], k.phase, [])
    els = blk.elements
    if not (_is_identity(k.b_lo, 1e-12) and _is_identity(k.b_hi, 1e-12)):
        _push_loc(els, k.b_lo, k.b_hi)
    cx, cy, cz = k.c
    # time order: ZZ(cz) . Vy^dag . ZZ(cy) . (H Vy) . ZZ(cx) . H, then A,
    # where Vy = _VX maps Z to Y by conjugation
    steps = [(cz, _VX.conj().T), (cy, _H @ _VX), (cx, _H)]
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
    if not (_is_identity(a_lo, 1e-12) and _is_identity(a_hi, 1e-12)):
        _push_loc(els, a_lo, a_hi)
    _cleanup_pauli_locals(blk)
    return blk


def to_lh_block(u: np.ndarray, pair: tuple[int, int] = (0, 1)) -> LhBlock:
    """Rewrite a two-qubit unitary as single-qubit layers alternating with at
    most three ZZ rotations, a rotation leading all other non-local content.

    Uses the un-permuted interaction frame (each coefficient reduced into
    (-pi/4, pi/4] only), so axis-pure inputs keep their natural axis and do
    not pick up spurious local layers from Weyl-chamber reordering."""
    return _assemble(_reduced_kak(u), pair)


# the six CNOT-pair completions as (control, target) words over the local
# pair (0, 1), and the adjoints W^dag of their unitaries
_WORDS = ((), ((0, 1),), ((1, 0),), ((0, 1), (1, 0)), ((1, 0), (0, 1)),
          ((0, 1), (1, 0), (0, 1)))  # the last is SWAP
_WORD_ADJOINTS = np.stack([
    to_unitary(Circuit(2, [cnot(c, t) for c, t in w])).conj().T for w in _WORDS])

# rows of _DIAG_SYSTEM^-1 that map eigenphases to (cx, cy, cz)
_PHASES_TO_COEFFS = np.linalg.inv(_DIAG_SYSTEM)[:3]


def _spectral_scores(us: np.ndarray) -> np.ndarray:
    """`_assemble(_reduced_kak(u), pair).total_phase()` for each unitary of a
    (k, 4, 4) stack, read from the eigenvalues of the magic-basis invariant
    alone.

    The summed |coefficient| does not depend on the order of the eigenphases
    (reordering them permutes the coefficients and flips pairs of signs), so
    sorting stands in for `_kak_raw`'s eigenvector ordering."""
    det = np.linalg.det(us)
    vm = MAGIC.conj().T @ (us / (det ** 0.25)[:, None, None]) @ MAGIC
    lam = np.linalg.eigvals(np.swapaxes(vm, 1, 2) @ vm)
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


def minimize_block_phase(u: np.ndarray, pair: tuple[int, int]) -> LhBlock:
    """Pick the CNOT-word completion W minimizing the summed |ZZ angle| of
    the block decomposition of U.W^dag; ties prefer fewer trailing CNOTs,
    then the fixed completion order.  All completions are scored from one
    batched spectrum, and only the winner is decomposed and assembled."""
    u = _checked_unitary(u)
    scores = _spectral_scores(u @ _WORD_ADJOINTS)
    best = min(range(len(_WORDS)),
               key=lambda i: (round(float(scores[i]), 12), len(_WORDS[i]), i))
    blk = _assemble(_reduced_kak(u @ _WORD_ADJOINTS[best]), pair)
    blk.trailing = [(pair[c], pair[t]) for c, t in _WORDS[best]]
    return blk
