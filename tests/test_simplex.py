from __future__ import annotations

import itertools

import numpy as np
import pytest

from canonical_region import NumericIntegrityError, StructuralError, solve_equality_lp
from conftest import solve_one


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
        res = solve_one(c, a, b)
        assert abs(res.value - expected) < 1e-7
        assert res.w.min() >= 0.0
        assert np.abs(a @ res.w - b).max() < 1e-8
        assert np.count_nonzero(res.w > 1e-12) <= dim


def test_unbounded_detected():
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(NumericIntegrityError):
        solve_one(np.array([-1.0, 0.0]), a, b)


def test_degenerate_duplicate_columns():
    # the optimal column appears three times; Bland's rule must still stop
    col = np.array([0.5, 0.5])
    a = np.hstack([np.eye(2), np.stack([col, col, col, [1.0, 0.0]], axis=1)])
    b = np.array([0.25, 0.25])
    c = np.array([3.0, 3.0, 1.0, 1.0, 1.0, 5.0])
    res = solve_one(c, a, b)
    assert abs(res.value - 0.5) < 1e-10
    assert abs(res.value - enumerate_optimum(c, a, b)) < 1e-10


def test_negative_rhs_normalized():
    # a row with b < 0 is rejected, not flipped; the caller's row-normalised
    # form (row times -1) is the identity start and solves to the same point
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-0.75, 0.25])
    with pytest.raises(StructuralError):
        solve_one(np.ones(2), a, b)
    # the refusal names the least entry on one line, never the whole vector
    wide = np.concatenate([np.full(300, 0.5), b])
    with pytest.raises(StructuralError,
                       match=r"^the LP's right-hand side must be >= 0, its least entry is -0\.75$"):
        solve_one(np.ones(302), np.eye(302), wide)
    sign = np.sign(b)[:, None]
    res = solve_one(np.ones(2), a * sign, b * sign[:, 0])
    assert np.allclose(res.w, [0.75, 0.25], atol=1e-10)


def test_zero_rhs_zero_solution():
    a = np.array([[1.0, 2.0]])
    b = np.array([0.0])
    res = solve_one(np.array([3.0, 4.0]), a, b)
    assert abs(res.value) < 1e-12


def test_shape_and_finiteness_validation():
    with pytest.raises(StructuralError):
        solve_one(np.ones(2), np.ones((2, 3)), np.ones(2))
    with pytest.raises(StructuralError):
        solve_one(np.ones(3), np.ones((2, 3)), np.ones(3))
    with pytest.raises(StructuralError):
        solve_one(np.ones(3), np.full((2, 3), np.inf), np.ones(2))
    # the starting basis: A's first m columns are exactly the identity, b >= 0
    eye = np.hstack([np.eye(2), np.full((2, 1), 0.5)])
    assert solve_one(np.ones(3), eye, [0.75, 0.25]).w.tolist() == [0.75, 0.25, 0.0]
    with pytest.raises(StructuralError):
        solve_one(np.ones(3), eye, [0.75, -0.25])
    with pytest.raises(StructuralError):
        solve_one(np.ones(3), eye[::-1], [0.75, 0.25])
    with pytest.raises(StructuralError):
        solve_one(np.ones(3), eye + 1e-16, [0.75, 0.25])
    with pytest.raises(StructuralError):
        solve_one(np.ones(1), np.ones((2, 1)), [0.5, 0.5])
    with pytest.raises(StructuralError):
        solve_one(np.ones(2), np.ones((0, 2)), np.ones(0))
    with pytest.raises(StructuralError):      # one LP is a stack of one, not a matrix
        solve_equality_lp(np.ones(3), eye, np.array([0.75, 0.25]))


def _random_mixture_lp(rng):
    """A bounded LP led by the identity basis, with a feasible nonnegative w0."""
    dim = int(rng.integers(1, 5))
    n = int(rng.integers(1, 8))
    mix = rng.dirichlet(np.ones(dim), size=n).T if dim > 1 else np.ones((1, n))
    a = np.hstack([np.eye(dim), mix])
    b = a @ (rng.dirichlet(np.ones(dim + n)) * rng.uniform(0.5, 2.0))
    return rng.normal(size=dim + n), a, b


def test_duals_price_every_column_and_match_the_value():
    rng = np.random.default_rng(71)
    for _ in range(200):
        c, a, b = _random_mixture_lp(rng)
        m = a.shape[0]
        warm = rng.permutation(a.shape[1])[: int(rng.integers(0, m + 1))]
        for res in (solve_one(c, a, b), solve_one(c, a, b, warm)):
            y = res.duals
            assert np.all(y @ a <= c + 1e-9)
            assert abs(y @ b - res.value) <= 1e-12
            assert len(res.basis) == m
            assert np.all(res.w[np.setdiff1d(np.arange(a.shape[1]), res.basis)] == 0.0)


def test_warm_start_begins_at_the_warm_solution():
    # with independent warm columns that mix to b, the start is their combination:
    # the result is optimal and never above it
    rng = np.random.default_rng(72)
    for _ in range(200):
        c, a, b = _random_mixture_lp(rng)
        m, n = a.shape
        warm = rng.permutation(np.arange(m, n))[: int(rng.integers(1, m + 1))]
        if np.linalg.matrix_rank(a[:, warm]) < len(warm):
            continue
        weights = rng.dirichlet(np.ones(len(warm)))
        b = a[:, warm] @ weights
        res = solve_one(c, a, b, warm)
        assert res.value <= c[warm] @ weights + 1e-12
        assert abs(res.value - solve_one(c, a, b).value) <= 1e-9


def test_warm_columns_that_cannot_start_are_left_out():
    # columns: e_0, e_1, t = (0.8, 0.2), a copy of e_0, a copy of t
    a = np.array([[1.0, 0.0, 0.8, 1.0, 0.8],
                  [0.0, 1.0, 0.2, 0.0, 0.2]])
    c = np.array([1.0, 1.0, 0.0, 2.0, 2.0])
    b = np.array([0.5, 0.5])
    cold = solve_one(c, a, b)
    # basic, repeated and dependent warm columns are skipped
    for warm in ([0, 1], [3, 3], [2, 4], [4, 2, 0]):
        res = solve_one(c, a, b, warm)
        assert abs(res.value - cold.value) <= 1e-12
        assert np.abs(a @ res.w - b).max() <= 1e-12
    # t alone cannot give b = (0.9, 0.1) with e_0 or e_1 at a nonnegative level,
    # so the solve starts from the identity basis
    b = np.array([0.9, 0.1])
    cold = solve_one(c, a, b)
    res = solve_one(c, a, b, [2])
    assert res.w.tolist() == cold.w.tolist() and res.basis == cold.basis
    for bad in ([5], [-1]):
        with pytest.raises(StructuralError):
            solve_one(c, a, b, bad)


def test_exact_duplicate_columns_change_nothing():
    # a copy of every column: warm from the copies of a cold optimum's basis, and
    # cold, both reach the value without copies, and no basis holds twin columns
    rng = np.random.default_rng(73)
    for _ in range(500):
        c, a, b = _random_mixture_lp(rng)
        n = a.shape[1]
        c2, a2 = np.concatenate([c, c]), np.hstack([a, a])
        base = solve_one(c, a, b)
        for res in (solve_one(c2, a2, b, [j + n for j in base.basis]),
                    solve_one(c2, a2, b)):
            assert abs(res.value - base.value) <= 1e-12
            assert len({a2[:, j].tobytes() for j in res.basis}) == len(res.basis)


def test_a_stack_of_lps_solves_each_as_if_alone():
    # columns e_0, e_1, t = (0.8, 0.2), a copy of e_0, a copy of t; warm from t:
    # for b = (0.9, 0.1) that start is infeasible and the solve restarts from
    # the identity basis, for b = (0.5, 0.5) it is feasible and kept
    a = np.array([[1.0, 0.0, 0.8, 1.0, 0.8],
                  [0.0, 1.0, 0.2, 0.0, 0.2]])
    c = np.array([[1.0, 1.0, 0.0, 2.0, 2.0], [1.0, 3.0, 0.5, 2.0, 0.4], [0.0, 0.0, 1.0, 0.0, 1.0]])
    b = np.array([[0.9, 0.1], [0.5, 0.5], [0.3, 0.7]])
    rng = np.random.default_rng(74)
    for warm in ([2], [4, 2], []):
        stack = solve_equality_lp(c, np.stack([a] * 3), b, warm)
        assert stack.w.shape == (3, 5) and stack.basis.shape == (3, 2)
        for i in range(3):
            alone = solve_one(c[i], a, b[i], warm)
            assert stack.w[i].tobytes() == alone.w.tobytes()
            assert stack.value[i] == alone.value and tuple(stack.basis[i]) == alone.basis
            assert stack.duals[i].tobytes() == alone.duals.tobytes()
    # random mixture LPs of one shape, each with its own columns, costs and right-hand side
    for _ in range(100):
        dim, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        a = np.stack([np.hstack([np.eye(dim), rng.dirichlet(np.ones(dim), size=n).T])
                      for _ in range(4)])
        b = (a @ rng.dirichlet(np.ones(dim + n), size=4)[:, :, None])[:, :, 0]
        c = rng.normal(size=(4, dim + n))
        warm = rng.permutation(dim + n)[: int(rng.integers(0, dim + 1))]
        stack = solve_equality_lp(c, a, b, warm)
        for i in range(4):
            alone = solve_one(c[i], a[i], b[i], warm)
            assert stack.w[i].tobytes() == alone.w.tobytes()
            assert tuple(stack.basis[i]) == alone.basis
