from __future__ import annotations

import math

import numpy as np
import pytest

from canonical_region import (
    Alphabet,
    JointPmf,
    StructuralError,
    entropy,
    mi_sets,
)


def random_joint(rng, sizes, labels=None):
    labels = labels or [f"A{i}" for i in range(len(sizes))]
    probs = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    return JointPmf([(lab, Alphabet(lab, n)) for lab, n in zip(labels, sizes)], probs)


def loop_entropy(arr):
    # independent reference: plain python loop, base-2 logs
    total = 0.0
    for v in np.asarray(arr).ravel():
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def test_varset_operations():
    p = random_joint(np.random.default_rng(6), (2, 3, 2, 2), labels=["A", "B", "C", "D"])
    assert p.varset("A", "C") == 0b0101
    assert p.varset("D", "B") == 0b1010
    assert p.varset() == 0
    assert p.all_axes() == 0b1111
    with pytest.raises(StructuralError):
        p.varset("Q")
    for ok in (0, 0b1, 0b1111):
        p.check_varset(ok)
    for bad in (-1, -0b1111, 1 << 4, 0b10001, 1 << 9):    # negative, or a bit >= ndim
        with pytest.raises(StructuralError):
            p.check_varset(bad)
        for compute in (lambda: entropy(p, bad), lambda: mi_sets(p, 0b1, 0b10, given=bad)):
            with pytest.raises(StructuralError):
                compute()


def test_alphabet_and_joint_validation():
    with pytest.raises(StructuralError):
        Alphabet("X", 0)
    ax = [("A", Alphabet("A", 2)), ("B", Alphabet("B", 2))]
    with pytest.raises(StructuralError):
        JointPmf(ax, [[0.5, 0.5]])  # wrong shape
    with pytest.raises(StructuralError):
        JointPmf(ax, [[0.6, -0.1], [0.3, 0.2]])
    with pytest.raises(StructuralError):
        JointPmf(ax, [[0.3, 0.3], [0.3, 0.3]])  # mass 1.2
    with pytest.raises(StructuralError):
        JointPmf(ax, [[np.nan, 0.5], [0.25, 0.25]])
    with pytest.raises(StructuralError):
        JointPmf([("A", Alphabet("A", 2)), ("A", Alphabet("A", 2))],
                 [[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(StructuralError):
        JointPmf([], 1.0)


def test_joint_is_immutable():
    p = random_joint(np.random.default_rng(0), (2, 3))
    with pytest.raises(AttributeError):
        p.probs = np.zeros((2, 3))
    with pytest.raises(ValueError):
        p.probs[0, 0] = 0.5


def test_marginalize_matches_loops():
    rng = np.random.default_rng(7)
    p = random_joint(rng, (2, 3, 2), labels=["A", "B", "C"])
    # oracle first: sum over axes 0 and 2 with explicit loops
    oracle = np.zeros(3)
    for a in range(2):
        for b in range(3):
            for c in range(2):
                oracle[b] += p.probs[a, b, c]
    got = p.marginal(["B"])
    assert got.shape == (3,)
    assert np.allclose(got, oracle, atol=1e-15)
    assert np.allclose(p.marginal(["A", "B", "C"]), p.probs, atol=0.0)
    with pytest.raises(StructuralError):
        p.marginal(["D"])


def test_marginal_requested_axis_order():
    rng = np.random.default_rng(11)
    p = random_joint(rng, (2, 3, 4), labels=["A", "B", "C"])
    oracle = np.zeros((4, 2))
    for a in range(2):
        for b in range(3):
            for c in range(4):
                oracle[c, a] += p.probs[a, b, c]
    assert np.allclose(p.marginal(["C", "A"]), oracle, atol=1e-15)
    with pytest.raises(StructuralError):
        p.marginal(["A", "A"])
    with pytest.raises(StructuralError):
        p.marginal(["Q"])


def test_entropy_known_values():
    p = JointPmf([("A", Alphabet("A", 2))], [0.25, 0.75])
    assert abs(entropy(p, p.varset("A")) - 0.8112781244591328) < 1e-15
    u = JointPmf([("A", Alphabet("A", 8))], np.full(8, 0.125))
    assert abs(entropy(u, u.varset("A")) - 3.0) < 1e-15
    d = JointPmf([("A", Alphabet("A", 3))], [1.0, 0.0, 0.0])
    assert entropy(d, d.varset("A")) == 0.0


def test_entropy_chain_rule():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_joint(rng, (3, 4), labels=["A", "B"])
        va, vb = p.varset("A"), p.varset("B")
        lhs = entropy(p, va | vb)
        rhs = entropy(p, va) + entropy(p, vb, given=va)
        assert abs(lhs - rhs) < 1e-12


def test_entropy_argument_validation():
    p = random_joint(np.random.default_rng(1), (2, 2), labels=["A", "B"])
    with pytest.raises(StructuralError):
        entropy(p, 0)
    with pytest.raises(StructuralError):
        entropy(p, p.varset("A"), given=p.varset("A"))


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
    p = JointPmf([("X", Alphabet("X", 2)), ("Y", Alphabet("Y", 2))], table)
    got = mi_sets(p, p.varset("X"), p.varset("Y"))
    assert abs(got - oracle) < 1e-12
    assert abs(oracle - 0.5310044064107188) < 1e-12


def test_mi_overlapping_sets_reduces_to_entropy():
    rng = np.random.default_rng(5)
    p = random_joint(rng, (2, 3), labels=["X", "Y"])
    vxy = p.varset("X", "Y")
    vy = p.varset("Y")
    assert abs(mi_sets(p, vxy, vy) - entropy(p, vy)) < 1e-12


def test_cmi_chain_rule_and_nonnegativity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        p = random_joint(rng, (2, 2, 3), labels=["A", "B", "C"])
        va, vb, vc = p.varset("A"), p.varset("B"), p.varset("C")
        joint = mi_sets(p, va, vb | vc)
        split = mi_sets(p, va, vb) + mi_sets(p, va, vc, given=vb)
        assert abs(joint - split) < 1e-12
        assert mi_sets(p, va, vb, given=vc) >= 0.0


def test_cmi_requires_disjoint_sets():
    p = random_joint(np.random.default_rng(2), (2, 2), labels=["A", "B"])
    with pytest.raises(StructuralError):
        mi_sets(p, p.varset("A"), p.varset("B"), given=p.varset("B"))
    with pytest.raises(StructuralError):
        mi_sets(p, p.varset("A", "B"), p.varset("A"), given=p.varset("B"))
    with pytest.raises(StructuralError):
        mi_sets(p, 0, p.varset("B"))
    with pytest.raises(StructuralError):
        mi_sets(p, p.varset("A"), 0)


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
    p = JointPmf([(n, Alphabet(n, 3)) for n in "XYZ"], cube)
    vx, vy, vz = p.varset("X"), p.varset("Y"), p.varset("Z")
    assert mi_sets(p, vx, vz, vy) <= 1e-10     # X -- Y -- Z: only cancellation noise
    assert mi_sets(p, vx, vz) <= mi_sets(p, vx, vy) + 1e-12
    # break the chain: Z a direct noisy copy of X
    cube2 = np.zeros((3, 3, 3))
    for x in range(3):
        for y in range(3):
            for z in range(3):
                cube2[x, y, z] = px[x] * q1[x, y] * q2[x, z]
    p2 = JointPmf([(n, Alphabet(n, 3)) for n in "XYZ"], cube2)
    assert mi_sets(p2, p2.varset("X"), p2.varset("Z"), p2.varset("Y")) > 1e-3


def test_entropy_cache_stable():
    p = random_joint(np.random.default_rng(4), (3, 3), labels=["A", "B"])
    v = p.varset("A", "B")
    first = entropy(p, v)
    assert entropy(p, v) == first
    assert abs(first - loop_entropy(p.probs)) < 1e-12
