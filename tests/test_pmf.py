from __future__ import annotations

import math

import numpy as np
import pytest

from canonical_region import (
    Alphabet,
    JointPmf,
    NumericIntegrityError,
    StructuralError,
    entropy,
    mi_sets,
)
from canonical_region import pmf as pmf_mod
from canonical_region.pmf import CMI_CLAMP


def random_joint(rng, sizes):
    return JointPmf(rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes))


def loop_entropy(arr):
    # independent reference: plain python loop, base-2 logs
    total = 0.0
    for v in np.asarray(arr).ravel():
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def test_axis_mask_bounds():
    p = random_joint(np.random.default_rng(6), (2, 3, 2, 2))
    assert p.ndim == 4
    assert p.all_axes() == 0b1111
    for ok in (0, 0b1, 0b1111):
        p.check_axes(ok)
    for bad in (-1, -0b1111, 1 << 4, 0b10001, 1 << 9):    # negative, or a bit >= ndim
        with pytest.raises(StructuralError):
            p.check_axes(bad)
        for compute in (lambda: entropy(p, bad), lambda: mi_sets(p, 0b1, 0b10, given=bad),
                        lambda: p.marginal(bad)):
            with pytest.raises(StructuralError):
                compute()


def test_alphabet_and_joint_validation():
    with pytest.raises(StructuralError):
        Alphabet("X", 0)
    with pytest.raises(StructuralError):
        JointPmf([[0.6, -0.1], [0.3, 0.2]])
    with pytest.raises(StructuralError):
        JointPmf([[0.3, 0.3], [0.3, 0.3]])  # mass 1.2
    with pytest.raises(StructuralError):
        JointPmf([[np.nan, 0.5], [0.25, 0.25]])
    with pytest.raises(StructuralError):
        JointPmf(1.0)                       # no axis


def test_joint_is_immutable():
    p = random_joint(np.random.default_rng(0), (2, 3))
    with pytest.raises(AttributeError):
        p.probs = np.zeros((2, 3))
    with pytest.raises(ValueError):
        p.probs[0, 0] = 0.5


def test_marginalize_matches_loops():
    rng = np.random.default_rng(7)
    p = random_joint(rng, (2, 3, 2, 4))
    for mask in range(1 << 4):
        keep = [a for a in range(4) if mask >> a & 1]
        # oracle first: add each cell into its kept coordinates, kept axes in tensor order
        oracle = np.zeros([p.probs.shape[a] for a in keep])
        for cell in np.ndindex(p.probs.shape):
            oracle[tuple(cell[a] for a in keep)] += p.probs[cell]
        got = p.marginal(mask)
        assert np.shape(got) == oracle.shape
        assert np.abs(got - oracle).max() <= 1e-15
    assert np.array_equal(p.marginal(0b1111), p.probs)


def test_entropy_known_values():
    p = JointPmf([0.25, 0.75])
    assert abs(entropy(p, 0b1) - 0.8112781244591328) < 1e-15
    u = JointPmf(np.full(8, 0.125))
    assert abs(entropy(u, 0b1) - 3.0) < 1e-15
    d = JointPmf([1.0, 0.0, 0.0])
    assert entropy(d, 0b1) == 0.0


def test_entropy_chain_rule():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_joint(rng, (3, 4))
        va, vb = 0b01, 0b10
        lhs = entropy(p, va | vb)
        rhs = entropy(p, va) + entropy(p, vb, given=va)
        assert abs(lhs - rhs) < 1e-12


def test_entropy_argument_validation():
    p = random_joint(np.random.default_rng(1), (2, 2))
    with pytest.raises(StructuralError):
        entropy(p, 0)
    with pytest.raises(StructuralError):
        entropy(p, 0b01, given=0b01)


def test_mutual_information_symmetric_pair():
    # a symmetric binary pair with flip probability 0.1
    table = np.array([[0.45, 0.05], [0.05, 0.45]])
    # oracle first: direct sum of p log p/(px py)
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    oracle = 0.0
    for x in range(2):
        for y in range(2):
            oracle += table[x, y] * math.log2(table[x, y] / (px[x] * py[y]))
    p = JointPmf(table)
    got = mi_sets(p, 0b01, 0b10)
    assert abs(got - oracle) < 1e-12
    assert abs(oracle - 0.5310044064107188) < 1e-12


def test_mi_overlapping_sets_reduces_to_entropy():
    rng = np.random.default_rng(5)
    p = random_joint(rng, (2, 3))
    vxy, vy = 0b11, 0b10
    assert abs(mi_sets(p, vxy, vy) - entropy(p, vy)) < 1e-12


def test_cmi_chain_rule_and_nonnegativity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        p = random_joint(rng, (2, 2, 3))
        va, vb, vc = 0b001, 0b010, 0b100
        joint = mi_sets(p, va, vb | vc)
        split = mi_sets(p, va, vb) + mi_sets(p, va, vc, given=vb)
        assert abs(joint - split) < 1e-12
        assert mi_sets(p, va, vb, given=vc) >= 0.0


@pytest.mark.parametrize("total", [-CMI_CLAMP / 2, -0.0, -5 * CMI_CLAMP])
def test_cmi_sign_rule(monkeypatch, total):
    # the four-entropy sum H(a) + H(b) - H(ab) - H(empty) reads exactly ``total``
    p = random_joint(np.random.default_rng(3), (2, 2, 2))
    entropies = {0b01: total, 0b10: -0.0, 0b11: 0.0, 0: 0.0}
    monkeypatch.setattr(pmf_mod, "_entropies",
                        lambda _, masks: np.vectorize(entropies.get, otypes=[float])(masks))
    if total < -CMI_CLAMP:
        with pytest.raises(NumericIntegrityError):
            mi_sets(p, 0b01, 0b10)
    else:   # within the clamp, -0.0 included, the value is +0.0
        value = mi_sets(p, 0b01, 0b10)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # elementwise: the pairs (X1, X2), (X1, X3) and (X2, X3) read -0.0, ``total`` and 0.25
    entropies.update({0b001: -0.0, 0b100: -0.0, 0b101: -total, 0b110: -0.25})
    a, b = np.array([0b001, 0b001, 0b010]), np.array([0b010, 0b100, 0b100])
    if total < -CMI_CLAMP:
        with pytest.raises(NumericIntegrityError):
            mi_sets(p, a, b)
    else:
        values = mi_sets(p, a, b)
        assert values.tolist() == [0.0, 0.0, 0.25] and not np.signbit(values).any()


def test_cmi_requires_disjoint_sets():
    p = random_joint(np.random.default_rng(2), (2, 2))
    a, b = 0b01, 0b10
    with pytest.raises(StructuralError):
        mi_sets(p, a, b, given=b)
    with pytest.raises(StructuralError):
        mi_sets(p, a | b, a, given=b)
    with pytest.raises(StructuralError):
        mi_sets(p, 0, b)
    with pytest.raises(StructuralError):
        mi_sets(p, a, 0)


def test_data_processing_and_markov():
    rng = np.random.default_rng(13)
    px = rng.dirichlet(np.ones(3))
    q1 = np.array([rng.dirichlet(np.ones(3)) for _ in range(3)])
    q2 = np.array([rng.dirichlet(np.ones(3)) for _ in range(3)])
    # build p(x, y, z) = p(x) q1(y|x) q2(z|y) with loops
    cube = np.zeros((3, 3, 3))
    for x in range(3):
        for y in range(3):
            for z in range(3):
                cube[x, y, z] = px[x] * q1[x, y] * q2[y, z]
    p = JointPmf(cube)
    vx, vy, vz = 0b001, 0b010, 0b100
    assert mi_sets(p, vx, vz, vy) <= 1e-10     # X -- Y -- Z: only cancellation noise
    assert mi_sets(p, vx, vz) <= mi_sets(p, vx, vy) + 1e-12
    # break the chain: Z a direct noisy copy of X
    cube2 = np.zeros((3, 3, 3))
    for x in range(3):
        for y in range(3):
            for z in range(3):
                cube2[x, y, z] = px[x] * q1[x, y] * q2[x, z]
    p2 = JointPmf(cube2)
    assert mi_sets(p2, vx, vz, vy) > 1e-3


def test_entropy_cache_stable():
    p = random_joint(np.random.default_rng(4), (3, 3))
    v = 0b11
    first = entropy(p, v)
    assert entropy(p, v) == first
    assert abs(first - loop_entropy(p.probs)) < 1e-12
