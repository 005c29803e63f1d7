"""Dense primal simplex for the channel optimizer's mixture LPs.

Solves ``min c.w  s.t.  A w = b, w >= 0`` on problems with a handful of
rows and at most a few hundred columns.  A's first ``m`` columns must be
the identity and ``b >= 0``, so they form a feasible starting basis with
``w = b`` and no phase 1 is needed (Dantzig, *Linear Programming and
Extensions*, 1963).  A mixture LP always has one: its vertex columns
``e_x`` give the trivial Carathéodory representation
``p_k = sum_x p_k(x) e_x``.  Entering and leaving variables follow
Bland's rule (smallest eligible index), which guarantees termination
from any starting basis on degenerate problems (Bland 1977).  A basic
optimal solution has at most ``m`` positive entries, which is exactly
the support bound the channel optimizer relies on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericIntegrityError, StructuralError

PIVOT_TOL = 1e-9
MAX_PIVOTS = 20000


@dataclass(frozen=True, eq=False)
class LpResult:
    w: np.ndarray = field(repr=False)
    value: float


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _bland_loop(tableau: np.ndarray, basis: list[int]) -> None:
    """Run simplex pivots until optimal; the last tableau row holds reduced costs."""
    m = tableau.shape[0] - 1
    for _ in range(MAX_PIVOTS):
        cost = tableau[-1, :-1]
        entering = -1
        for j in range(cost.size):
            if cost[j] < -PIVOT_TOL and j not in basis:
                entering = j
                break
        if entering < 0:
            return
        ratios = []
        for r in range(m):
            coef = tableau[r, entering]
            if coef > PIVOT_TOL:
                ratios.append((tableau[r, -1] / coef, basis[r], r))
        if not ratios:
            raise NumericIntegrityError(f"LP is unbounded along column {entering}")
        best = min(ratios)[0]
        # smallest basic-variable index among the tied rows (Bland)
        row = min((b, r) for ratio, b, r in ratios if ratio <= best + PIVOT_TOL)[1]
        _pivot(tableau, basis, row, entering)
        np.clip(tableau[:m, -1], 0.0, None, out=tableau[:m, -1])
    raise NumericIntegrityError("simplex failed to terminate within the pivot budget")


def solve_equality_lp(c, a, b) -> LpResult:
    """Minimize ``c.w`` over ``{A w = b, w >= 0}`` from the basis ``A[:, :m] = I``.

    Returns an optimal basic solution.  Inputs must be finite, ``A`` is
    ``m x n`` with ``1 <= m <= n``, its first ``m`` columns must equal
    ``np.eye(m)`` exactly, and ``b >= 0``.  The LP must be bounded; an
    unbounded ray raises :class:`NumericIntegrityError`.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],) or c.shape != (a.shape[1],):
        raise StructuralError(
            f"inconsistent LP shapes: A {a.shape}, b {b.shape}, c {c.shape}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise StructuralError("LP data must be finite")
    m, n = a.shape
    if not (1 <= m <= n and np.array_equal(a[:, :m], np.eye(m))):
        raise StructuralError("the LP's first m columns must be the identity basis")
    if b.min() < 0.0:
        raise StructuralError(f"the LP's right-hand side must be >= 0, got {b}")

    # the cost row holds c's reduced costs against the identity basis
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    tableau[-1, :n] = c
    basis = list(range(m))
    for r in range(m):
        coef = tableau[-1, r]
        if coef != 0.0:
            tableau[-1] -= coef * tableau[r]
    _bland_loop(tableau, basis)

    w = np.zeros(n)
    for r in range(m):
        w[basis[r]] = max(0.0, tableau[r, -1])
    return LpResult(w, float(c @ w))
