import hashlib
import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from pgmq import su4
from pgmq.circuit import (Circuit, CircuitError, Su4Block, ZzRotation, cnot,
                          to_unitary)
from pgmq.su4 import (_DIAG_SYSTEM, _WORD_ADJOINTS, _WORDS, MAGIC, _assemble,
                      _checked_unitaries, _invariants, _kak_raw, _reduced_kak,
                      factor_kron, minimize_block_phase)


def minimize_one(u, pair):
    """`minimize_block_phase` on a stack of one block."""
    return minimize_block_phase([Su4Block(pair, u)])[0]


def interaction_unitary(c):
    """E(c) = exp(i (cx XX + cy YY + cz ZZ)) as a dense 4x4 matrix."""
    # the three terms commute and are jointly diagonal in the magic basis
    phases = _DIAG_SYSTEM[:, :3] @ np.asarray(c, dtype=float)
    return MAGIC @ np.diag(np.exp(1j * phases)) @ MAGIC.conj().T


def reconstruct(k):
    """phase * (a_hi (x) a_lo) . E(c) . (b_hi (x) b_lo) of a KAK form."""
    return (k.phase * np.kron(k.a_hi, k.a_lo) @ interaction_unitary(k.c)
            @ np.kron(k.b_hi, k.b_lo))


def to_lh_block(u, pair=(0, 1)):
    """One two-qubit unitary as single-qubit layers alternating with at most
    three ZZ rotations, without a completion: the block pass's assembly on
    a stack of one."""
    inv = _invariants(_checked_unitaries(np.asarray(u)[None]))
    return _assemble(_reduced_kak(*inv)[0], pair)


def zz_angles(blk):
    return [e[1] for e in blk.elements if e[0] == "zz"]


def total_phase(blk):
    """The block's summed |ZZ angle|."""
    return float(sum(abs(a) for a in zz_angles(blk)))


def test_kak_reconstructs_haar(rng):
    us = np.stack([unitary_group.rvs(4, random_state=rng) for _ in range(200)])
    worst = max(float(np.max(np.abs(reconstruct(k) - u)))
                for u, k in zip(us, _kak_raw(*_invariants(us))))
    assert worst < 1e-9


def test_lh_block_anchors():
    # total entangling phase: one full interaction for CNOT, three for SWAP
    u_cnot = to_unitary(Circuit(2, [cnot(0, 1)]))
    assert total_phase(to_lh_block(u_cnot)) == pytest.approx(
        math.pi / 4, abs=1e-10)
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    assert total_phase(to_lh_block(swap)) == pytest.approx(
        3 * math.pi / 4, abs=1e-10)


def test_factor_kron(rng):
    a = unitary_group.rvs(2, random_state=rng)
    b = unitary_group.rvs(2, random_state=rng)
    hi, lo = factor_kron(np.kron(a, b)[None])
    assert np.max(np.abs(np.kron(hi[0], lo[0]) - np.kron(a, b))) < 1e-10


def test_interaction_unitary_diagonal_in_magic_basis():
    u = interaction_unitary((0.2, 0.1, -0.05))
    # exp(i(cx XX + cy YY + cz ZZ)) commutes with its adjoint transposes
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def test_lh_block_reconstructs(rng):
    # replay the gates the block pass ships, times the block's scalar phase
    worst = 0.0
    for _ in range(200):
        u = unitary_group.rvs(4, random_state=rng)
        blk = to_lh_block(u)
        got = blk.phase * to_unitary(Circuit(2, blk.to_gates()))
        worst = max(worst, float(np.max(np.abs(got - u))))
    assert worst < 1e-9
    assert all(len(zz_angles(blk)) <= 3 for _ in [0])


def test_lh_block_pure_zz_has_no_locals():
    from pgmq.circuit import ZzRotation
    u = to_unitary(Circuit(2, [ZzRotation(0.3, 0, 1)]))
    blk = to_lh_block(u)
    assert zz_angles(blk) == pytest.approx([0.3])
    locs = [e for e in blk.elements if e[0] == "loc"]
    assert not locs


def test_minimize_block_phase_reduces_norm(rng):
    for _ in range(50):
        u = unitary_group.rvs(4, random_state=rng)
        best = minimize_one(u, (0, 1))
        plain = to_lh_block(u)
        assert total_phase(best) <= total_phase(plain) + 1e-12
        # gates replay the block exactly
        c = Circuit(2, best.to_gates(), global_phase=best.phase)
        assert np.max(np.abs(to_unitary(c) - u)) < 1e-9


def test_minimize_block_phase_absorbs_cnot():
    # a bare CNOT is all Clifford: it should land in the trailing word with
    # zero leftover ZZ rotation
    u = to_unitary(Circuit(2, [cnot(0, 1)]))
    blk = minimize_one(u, (0, 1))
    assert total_phase(blk) == pytest.approx(0.0, abs=1e-12)
    assert blk.trailing
    c = Circuit(2, blk.to_gates(), global_phase=blk.phase)
    assert np.max(np.abs(to_unitary(c) - u)) < 1e-10


def test_to_lh_block_cnot_plus_zz_keeps_only_zz():
    from pgmq.circuit import ZzRotation
    u = to_unitary(Circuit(2, [cnot(0, 1), ZzRotation(0.3, 0, 1)]))
    blk = minimize_one(u, (0, 1))
    assert total_phase(blk) == pytest.approx(0.3, abs=1e-10)


# --- the block pass against a reference that assembles every completion -----

def _reference_block(u, pair):
    """The completion search done the long way: assemble the block of every
    completion, then pick by (rounded total phase, word length, order)."""
    lo, hi = pair
    words = [[], [(lo, hi)], [(hi, lo)], [(lo, hi), (hi, lo)],
             [(hi, lo), (lo, hi)], [(lo, hi), (hi, lo), (lo, hi)]]
    pos = {lo: 0, hi: 1}
    best = None
    for idx, word in enumerate(words):
        w = to_unitary(Circuit(2, [cnot(pos[c], pos[t]) for c, t in word]))
        blk = to_lh_block(u @ w.conj().T, pair)
        blk.trailing = list(word)
        key = (round(total_phase(blk), 12), len(word), idx)
        if best is None or key < best[0]:
            best = (key, blk)
    return best[1]


def _block_inputs(rng):
    named = [
        to_unitary(Circuit(2, [cnot(0, 1)])),
        to_unitary(Circuit(2, [cnot(1, 0)])),
        np.diag([1, 1, 1, -1]).astype(complex),               # CZ
        np.eye(4)[[0, 2, 1, 3]].astype(complex),              # SWAP
        np.eye(4, dtype=complex),
        to_unitary(Circuit(2, [ZzRotation(0.3, 0, 1)])),
        to_unitary(Circuit(2, [cnot(0, 1), ZzRotation(0.3, 0, 1)])),
    ]
    # locals in front of CZ leave three completions tied up to rounding
    dressed_cz = [np.kron(unitary_group.rvs(2, random_state=rng),
                          unitary_group.rvs(2, random_state=rng)) @ named[2]
                  for _ in range(20)]
    haar = [unitary_group.rvs(4, random_state=rng) for _ in range(200)]
    return named + dressed_cz + haar


def test_minimize_block_phase_matches_full_assembly(rng):
    for i, u in enumerate(_block_inputs(rng)):
        for pair in ((0, 1), (2, 5)):
            assert_same_block(minimize_one(u, pair), _reference_block(u, pair),
                              f"input {i} on {pair}")


def test_word_adjoints_bytes_are_pinned():
    # the completions' adjoints come from the dense oracle and feed every
    # block pass, so their bytes (zero signs included) are program bytes
    assert hashlib.sha256(_WORD_ADJOINTS.tobytes()).hexdigest() == \
        "7b340cc8402195f7b3899eb915fef7c28e6ded88667ac39cc03665f564db7407"
    for word, adjoint in zip(_WORDS, _WORD_ADJOINTS):
        u = np.eye(4, dtype=complex)
        for c, t in word:
            x = np.arange(4)
            u = u[x ^ (((x >> c) & 1) << t)]
        assert adjoint.tobytes() == u.conj().T.tobytes()


def test_spectral_score_is_reduced_kak_phase(rng):
    for i, u in enumerate(_block_inputs(rng)):
        inv = _invariants(u @ _WORD_ADJOINTS)
        got = su4._spectral_scores(inv[-1])
        want = [total_phase(_assemble(k, (2, 5))) for k in _reduced_kak(*inv)]
        assert np.max(np.abs(got - want)) < 1e-12, f"input {i}"


def test_spectral_score_rejects_non_unitary_spectrum():
    with pytest.raises(CircuitError, match="off the unit circle"):
        su4._spectral_scores(np.array([[1.0, 1.0, 1.0, 2.0]], dtype=complex))


def test_minimize_block_phase_assembles_once(rng, monkeypatch):
    # one assembly per distinct unitary, one diagonalization and one stacked
    # KAK pass per call, no general eigensolver and no circuit built at all
    counts = {"assemble": 0, "kak_raw": 0, "diagonalizer": 0, "eigvals": 0,
              "circuit": 0, "to_unitary": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(su4, "_assemble", counted("assemble", su4._assemble))
    monkeypatch.setattr(su4, "_kak_raw", counted("kak_raw", su4._kak_raw))
    monkeypatch.setattr(su4, "_orthogonal_diagonalizer",
                        counted("diagonalizer", su4._orthogonal_diagonalizer))
    monkeypatch.setattr(np.linalg, "eigvals",
                        counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(su4, "Circuit", counted("circuit", su4.Circuit))
    monkeypatch.setattr(su4, "to_unitary",
                        counted("to_unitary", su4.to_unitary))
    us = [unitary_group.rvs(4, random_state=rng) for _ in range(5)]
    blocks = [Su4Block((q, q + 1), us[j % 5])
              for q, j in enumerate([0, 1, 2, 0, 3, 4, 1, 0])]
    minimize_block_phase(blocks)
    assert counts == {"assemble": 5, "kak_raw": 1, "diagonalizer": 1,
                      "eigvals": 0, "circuit": 0, "to_unitary": 0}
    minimize_block_phase(blocks[:3])
    assert (counts["kak_raw"], counts["diagonalizer"]) == (2, 2)


def assert_same_block(got, want, where):
    """Two LhBlocks equal bit for bit."""
    assert got.pair == want.pair, where
    assert got.trailing == want.trailing, where
    assert got.phase == want.phase, where
    assert [e[0] for e in got.elements] == \
        [e[0] for e in want.elements], where
    for eg, ew in zip(got.elements, want.elements):
        if eg[0] == "zz":
            assert eg[1] == ew[1], where
        else:
            assert np.array_equal(eg[1], ew[1]), where
            assert np.array_equal(eg[2], ew[2]), where


def test_stacked_blocks_match_stacks_of_one(rng, monkeypatch):
    # one stack mixing duplicates (on other pairs), members the first mix of
    # the diagonalizer fails on, both sign fixes and Haar inputs: each member
    # is decomposed as on its own
    us = _block_inputs(rng)
    rng.shuffle(us)
    blocks = [Su4Block((i % 3, 3 + i % 2), u) for i, u in enumerate(us)]
    blocks += [Su4Block((1, 4), b.unitary) for b in blocks[::7]]
    eighs, dets = [], []
    eigh, det = np.linalg.eigh, np.linalg.det

    def seen(log, fn):
        def wrapper(a):
            out = fn(a)
            log.append(out)
            return out
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", seen(eighs, eigh))
        m.setattr(np.linalg, "det", seen(dets, det))
        stacked = minimize_block_phase(blocks)
    # the first eigh covers every completion of every distinct unitary;
    # then the mixes retried on the members that need them, and det(o) and
    # det(k1) of the winners
    retried = [len(w.eigenvalues) for w in eighs[1:]]
    assert retried and retried[0] > 0
    det_o, det_k1 = dets[-2], dets[-1]
    assert np.any(det_o < 0) and np.any(det_k1.real < 0)
    assert len(stacked) == len(blocks)
    for i, (b, got) in enumerate(zip(blocks, stacked)):
        assert_same_block(got, minimize_block_phase([b])[0], f"member {i}")


def test_stack_with_one_non_unitary_member_raises(rng):
    blocks = [Su4Block((0, 1), unitary_group.rvs(4, random_state=rng))
              for _ in range(4)]
    blocks.insert(2, Su4Block((1, 2), np.diag([1.0, 1.0, 1.0, 1.5]) + 0j))
    with pytest.raises(CircuitError):
        minimize_block_phase(blocks)
    assert minimize_block_phase([]) == []


# The magic-basis invariant of one completion of a block met while compiling
# circuit 123 of default_rng(7) (drawn as acceptance test 1 draws them): i*I
# up to 8e-18 off the diagonal, on which LAPACK's general eigensolver
# (np.linalg.eigvals) does not converge.
_D, _E = float.fromhex("0x1.ffffffffffffep-1"), float.fromhex("0x1.27d0d79624b00p-57")
_UNCONVERGED = 1j * np.array([[_D, 0, 0, _E], [0, _D, -_E, 0],
                              [0, -_E, _D, 0], [_E, 0, 0, _D]])


def test_orthogonal_diagonalizer_on_unconverged_invariant():
    o = su4._orthogonal_diagonalizer(_UNCONVERGED[None])[0]
    assert np.max(np.abs(o.T @ _UNCONVERGED @ o - 1j * _D * np.eye(4))) < 1e-15


def test_compile_with_unconverged_invariant_verifies():
    from pgmq.cli import _verify_program
    from pgmq.passes import optimize
    from conftest import random_circuit
    rng = np.random.default_rng(7)
    for _ in range(124):
        n = int(rng.integers(2, 9))
        depth = int(rng.integers(5, 61))
        c = random_circuit(n, depth, rng)
    assert (n, depth) == (4, 28)
    ok, err, leak = _verify_program(optimize(c), c, cap=10)
    assert ok, (err, leak)


def _distinct_block_unitaries(circuits):
    """The distinct SU(4) block unitaries (by bytes) the block pass forms
    from the circuits."""
    from pgmq.circuit import form_su4_blocks, layerize
    from pgmq.passes import _strip_measures
    from pgmq.qasm import to_zz_basis
    seen = {}
    for c in circuits:
        raw = to_zz_basis(_strip_measures(c)[0])
        for it in form_su4_blocks(layerize(raw)):
            if isinstance(it, Su4Block):
                seen.setdefault(it.unitary.tobytes(), it.unitary)
    return np.stack(list(seen.values()))


def _choices(scores):
    return [min(range(len(_WORDS)),
                key=lambda i: (round(float(row[i]), 12), len(_WORDS[i]), i))
            for row in scores]


def test_scores_match_general_eigensolver():
    # the spectra read off O^T t O against np.linalg.eigvals of the same
    # invariants, on every distinct block of the corpus, the benchmark's
    # random pool and acceptance test 1's first 50 circuits
    from conftest import random_circuit
    from pgmq.qasm import parse_qasm_file
    from test_fingerprints import CORPUS, _random_pool
    circuits = [parse_qasm_file(f) for f in CORPUS]
    circuits += list(_random_pool().values())
    rng = np.random.default_rng(20260826)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        depth = int(rng.integers(5, 61))
        circuits.append(random_circuit(n, depth, rng))
    us = _distinct_block_unitaries(circuits)
    tried = (us[:, None] @ _WORD_ADJOINTS).reshape(-1, 4, 4)
    got = su4._spectral_scores(_invariants(tried)[-1]).reshape(-1, len(_WORDS))
    g0 = np.linalg.det(tried) ** 0.25
    vm = MAGIC.conj().T @ (tried / g0[:, None, None]) @ MAGIC
    want = su4._spectral_scores(np.linalg.eigvals(vm.mT @ vm)) \
        .reshape(-1, len(_WORDS))
    assert len(us) > 400
    assert np.max(np.abs(got - want)) < 1e-12
    assert _choices(got) == _choices(want)
