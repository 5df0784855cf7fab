import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from pgmq.circuit import Circuit, cnot, to_unitary
from pgmq.su4 import (LhBlock, _kak_raw, factor_kron, interaction_unitary,
                      minimize_block_phase, to_lh_block)


def test_kak_reconstructs_haar(rng):
    worst = 0.0
    for _ in range(200):
        u = unitary_group.rvs(4, random_state=rng)
        k = _kak_raw(u)
        worst = max(worst, float(np.max(np.abs(k.reconstruct() - u))))
    assert worst < 1e-9


def test_lh_block_anchors():
    # total entangling phase: one full interaction for CNOT, three for SWAP
    u_cnot = to_unitary(Circuit(2, [cnot(0, 1)]))
    assert to_lh_block(u_cnot).total_phase() == pytest.approx(
        math.pi / 4, abs=1e-10)
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    assert to_lh_block(swap).total_phase() == pytest.approx(
        3 * math.pi / 4, abs=1e-10)


def test_factor_kron(rng):
    a = unitary_group.rvs(2, random_state=rng)
    b = unitary_group.rvs(2, random_state=rng)
    hi, lo = factor_kron(np.kron(a, b))
    assert np.max(np.abs(np.kron(hi, lo) - np.kron(a, b))) < 1e-10


def test_interaction_unitary_diagonal_in_magic_basis():
    u = interaction_unitary((0.2, 0.1, -0.05))
    # exp(i(cx XX + cy YY + cz ZZ)) commutes with its adjoint transposes
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def test_lh_block_reconstructs(rng):
    worst = 0.0
    for _ in range(200):
        u = unitary_group.rvs(4, random_state=rng)
        blk = to_lh_block(u)
        worst = max(worst, float(np.max(np.abs(blk.local_unitary() - u))))
    assert worst < 1e-9
    assert all(len(blk.zz_angles()) <= 3 for _ in [0])


def test_lh_block_pure_zz_has_no_locals():
    from pgmq.circuit import ZzRotation
    u = to_unitary(Circuit(2, [ZzRotation(0.3, 0, 1)]))
    blk = to_lh_block(u)
    assert blk.zz_angles() == pytest.approx([0.3])
    locs = [e for e in blk.elements if e[0] == "loc"]
    assert not locs


def test_minimize_block_phase_reduces_norm(rng):
    for _ in range(50):
        u = unitary_group.rvs(4, random_state=rng)
        best = minimize_block_phase(u, (0, 1))
        plain = to_lh_block(u)
        assert best.total_phase() <= plain.total_phase() + 1e-12
        # gates replay the block exactly
        c = Circuit(2, best.to_gates(), global_phase=best.phase)
        assert np.max(np.abs(to_unitary(c) - u)) < 1e-9


def test_minimize_block_phase_absorbs_cnot():
    # a bare CNOT is all Clifford: it should land in the trailing word with
    # zero leftover ZZ rotation
    u = to_unitary(Circuit(2, [cnot(0, 1)]))
    blk = minimize_block_phase(u, (0, 1))
    assert blk.total_phase() == pytest.approx(0.0, abs=1e-12)
    assert blk.trailing
    c = Circuit(2, blk.to_gates(), global_phase=blk.phase)
    assert np.max(np.abs(to_unitary(c) - u)) < 1e-10


def test_to_lh_block_cnot_plus_zz_keeps_only_zz():
    from pgmq.circuit import ZzRotation
    u = to_unitary(Circuit(2, [cnot(0, 1), ZzRotation(0.3, 0, 1)]))
    blk = minimize_block_phase(u, (0, 1))
    assert blk.total_phase() == pytest.approx(0.3, abs=1e-10)
