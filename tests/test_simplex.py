from __future__ import annotations

import itertools

import numpy as np
import pytest

from canonical_region import NumericIntegrityError, StructuralError, solve_equality_lp


def enumerate_optimum(c, a, b):
    """Reference: scan every basic solution of A w = b, w >= 0."""
    m, n = a.shape
    best = None
    for size in range(0, m + 1):
        for cols in itertools.combinations(range(n), size):
            if size == 0:
                w_sub = np.zeros(0)
                resid = b
            else:
                sub = a[:, cols]
                w_sub, *_ = np.linalg.lstsq(sub, b, rcond=None)
                resid = b - sub @ w_sub
            if np.abs(resid).max(initial=0.0) > 1e-9:
                continue
            if w_sub.size and w_sub.min() < -1e-9:
                continue
            w = np.zeros(n)
            for j, col in enumerate(cols):
                w[col] = max(0.0, w_sub[j])
            value = float(c @ w)
            if best is None or value < best:
                best = value
    return best


def test_matches_basic_solution_enumeration():
    rng = np.random.default_rng(70)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        # columns on the simplex so total mass is pinned and the LP bounded,
        # led by the vertex basis the solver starts from
        mix = rng.dirichlet(np.ones(dim), size=n).T if dim > 1 else np.ones((1, n))
        a = np.hstack([np.eye(dim), mix])
        w0 = rng.dirichlet(np.ones(dim + n)) * rng.uniform(0.5, 2.0)
        b = a @ w0
        c = rng.normal(size=dim + n)
        # oracle first
        expected = enumerate_optimum(c, a, b)
        assert expected is not None
        res = solve_equality_lp(c, a, b)
        assert abs(res.value - expected) < 1e-7
        assert res.w.min() >= 0.0
        assert np.abs(a @ res.w - b).max() < 1e-8
        assert np.count_nonzero(res.w > 1e-12) <= dim


def test_unbounded_detected():
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(NumericIntegrityError):
        solve_equality_lp(np.array([-1.0, 0.0]), a, b)


def test_degenerate_duplicate_columns():
    # the optimal column appears three times; Bland's rule must still stop
    col = np.array([0.5, 0.5])
    a = np.hstack([np.eye(2), np.stack([col, col, col, [1.0, 0.0]], axis=1)])
    b = np.array([0.25, 0.25])
    c = np.array([3.0, 3.0, 1.0, 1.0, 1.0, 5.0])
    res = solve_equality_lp(c, a, b)
    assert abs(res.value - 0.5) < 1e-10
    assert abs(res.value - enumerate_optimum(c, a, b)) < 1e-10


def test_negative_rhs_normalized():
    # a row with b < 0 is rejected, not flipped; the caller's row-normalised
    # form (row times -1) is the identity start and solves to the same point
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-0.75, 0.25])
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(2), a, b)
    sign = np.sign(b)[:, None]
    res = solve_equality_lp(np.ones(2), a * sign, b * sign[:, 0])
    assert np.allclose(res.w, [0.75, 0.25], atol=1e-10)


def test_zero_rhs_zero_solution():
    a = np.array([[1.0, 2.0]])
    b = np.array([0.0])
    res = solve_equality_lp(np.array([3.0, 4.0]), a, b)
    assert abs(res.value) < 1e-12


def test_shape_and_finiteness_validation():
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(2), np.ones((2, 3)), np.ones(2))
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(3), np.ones((2, 3)), np.ones(3))
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(3), np.full((2, 3), np.inf), np.ones(2))
    # the starting basis: A's first m columns are exactly the identity, b >= 0
    eye = np.hstack([np.eye(2), np.full((2, 1), 0.5)])
    assert solve_equality_lp(np.ones(3), eye, [0.75, 0.25]).w.tolist() == [0.75, 0.25, 0.0]
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(3), eye, [0.75, -0.25])
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(3), eye[::-1], [0.75, 0.25])
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(3), eye + 1e-16, [0.75, 0.25])
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(1), np.ones((2, 1)), [0.5, 0.5])
    with pytest.raises(StructuralError):
        solve_equality_lp(np.ones(2), np.ones((0, 2)), np.ones(0))
