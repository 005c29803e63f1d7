"""Dense two-phase primal simplex for small equality-form programs.

Solves ``min c.w  s.t.  A w = b, w >= 0`` on problems with a handful of
rows and at most a few hundred columns.  Entering variables follow
Bland's rule (smallest eligible index), which guarantees termination on
degenerate problems at desk scale, where speed is irrelevant.  Phase 1
minimizes artificial slack to find a basic feasible point; redundant
rows discovered there are dropped.  A basic optimal solution has at most
``rank(A) <= m`` positive entries, which is exactly the support bound
the channel optimizer relies on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericIntegrityError, StructuralError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
MAX_PIVOTS = 20000


@dataclass(frozen=True, eq=False)
class LpResult:
    status: str                       # "optimal" | "infeasible" | "unbounded"
    w: np.ndarray | None = field(default=None, repr=False)
    value: float = float("nan")


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _bland_loop(tableau: np.ndarray, basis: list[int], n_enterable: int) -> str:
    """Run simplex pivots until optimal or unbounded.

    Only columns ``< n_enterable`` may enter (phase 2 must never re-admit
    artificial columns).  The last tableau row holds reduced costs.
    """
    m = tableau.shape[0] - 1
    for _ in range(MAX_PIVOTS):
        cost = tableau[-1, :n_enterable]
        entering = -1
        for j in range(n_enterable):
            if cost[j] < -PIVOT_TOL and j not in basis:
                entering = j
                break
        if entering < 0:
            return "optimal"
        ratios = []
        for r in range(m):
            coef = tableau[r, entering]
            if coef > PIVOT_TOL:
                ratios.append((tableau[r, -1] / coef, basis[r], r))
        if not ratios:
            return "unbounded"
        best = min(ratios)[0]
        # smallest basic-variable index among the tied rows (Bland)
        row = min((b, r) for ratio, b, r in ratios if ratio <= best + PIVOT_TOL)[1]
        _pivot(tableau, basis, row, entering)
        np.clip(tableau[:m, -1], 0.0, None, out=tableau[:m, -1])
    raise NumericIntegrityError("simplex failed to terminate within the pivot budget")


def solve_equality_lp(c, a, b) -> LpResult:
    """Minimize ``c.w`` over ``{A w = b, w >= 0}``.

    Returns an optimal basic solution, or a result flagged infeasible or
    unbounded.  Inputs must be finite; ``A`` is ``m x n`` with ``m >= 1``
    and ``n >= 1``.
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

    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: artificial identity basis, cost row = reduced costs of sum(artificials)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    status = _bland_loop(tableau, basis, n)
    if status != "optimal":
        raise NumericIntegrityError("phase-1 simplex reported an unbounded problem")
    if -tableau[-1, -1] > FEAS_TOL:
        return LpResult("infeasible")

    # drive leftover artificial variables out of the basis; rows that
    # cannot pivot on an original column are redundant and get dropped
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            col = -1
            for j in range(n):
                if abs(tableau[r, j]) > PIVOT_TOL:
                    col = j
                    break
            if col < 0:
                continue
            _pivot(tableau, basis, r, col)
        keep_rows.append(r)
    if len(keep_rows) < m:
        rows = keep_rows + [m]
        tableau = tableau[rows]
        basis = [basis[r] for r in keep_rows]
        m = len(keep_rows)

    # phase 2: rebuild the cost row from c against the current basis
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for r in range(m):
        coef = tableau[-1, basis[r]]
        if coef != 0.0:
            tableau[-1] -= coef * tableau[r]
    status = _bland_loop(tableau, basis, n)
    if status == "unbounded":
        return LpResult("unbounded")

    w = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            w[basis[r]] = max(0.0, tableau[r, -1])
    return LpResult("optimal", w, float(c @ w))
