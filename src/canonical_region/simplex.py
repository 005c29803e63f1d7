"""Dense primal simplex for the channel optimizer's mixture LPs.

Solves ``min c.w  s.t.  A w = b, w >= 0`` on problems with a handful of
rows and at most a few hundred columns.  A's first ``m`` columns must be
the identity and ``b >= 0``, so they form a feasible basis with
``w = b`` and no phase 1 is needed (Dantzig, *Linear Programming and
Extensions*, 1963).  A mixture LP always has one: its vertex columns
``e_x`` give the trivial Carathéodory representation
``p_k = sum_x p_k(x) e_x``.  The caller may name warm columns, such as
the support of the incumbent's basic solution; they are pivoted in
before the first simplex step, so the simplex starts from the
incumbent itself and primal pivots can only lower its value.
Entering and leaving variables follow Bland's rule (smallest eligible
index), which guarantees termination from any starting basis on
degenerate problems (Bland 1977).  A basic optimal solution has at most
``m`` positive entries, which is exactly the support bound the channel
optimizer relies on; its basis and duals come back with it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericIntegrityError, StructuralError

PIVOT_TOL = 1e-9
# A column enters when its reduced cost is below -OPTIMALITY_TOL.  On columns of
# unit mass (every mixture LP's) the returned value is within it of the optimum.
OPTIMALITY_TOL = 1e-12
MAX_PIVOTS = 20000


@dataclass(frozen=True, eq=False)
class LpResult:
    """An optimal basic solution ``w``, its value, its basis and its duals.

    ``basis[r]`` is the column basic in row r, and ``duals`` is
    ``y = c_B B^-1``: every reduced cost ``c_j - y.a_j`` is at least
    ``-OPTIMALITY_TOL``.
    """

    w: np.ndarray = field(repr=False)
    value: float
    basis: tuple[int, ...]
    duals: np.ndarray = field(repr=False)


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _bland_loop(tableau: np.ndarray, basis: list[int]) -> None:
    """Run simplex pivots until optimal; the last tableau row holds reduced costs."""
    m = len(basis)
    rhs = tableau[:m, -1]
    for _ in range(MAX_PIVOTS):
        eligible = np.flatnonzero(tableau[-1, :-1] < -OPTIMALITY_TOL).tolist()
        entering = next((j for j in eligible if j not in basis), -1)
        if entering < 0:
            return
        ratios = [(level / coef, basis[r], r)
                  for r, (coef, level) in enumerate(zip(tableau[:m, entering].tolist(),
                                                        rhs.tolist()))
                  if coef > PIVOT_TOL]
        if not ratios:
            raise NumericIntegrityError(f"LP is unbounded along column {entering}")
        best = min(ratios)[0]
        # smallest basic-variable index among the tied rows (Bland)
        row = min((b, r) for ratio, b, r in ratios if ratio <= best + PIVOT_TOL)[1]
        _pivot(tableau, basis, row, entering)
        np.maximum(rhs, 0.0, out=rhs)
    raise NumericIntegrityError("simplex failed to terminate within the pivot budget")


def solve_equality_lp(c, a, b, warm=()) -> LpResult:
    """Minimize ``c.w`` over ``{A w = b, w >= 0}``, starting from ``warm``'s basis.

    Returns an optimal basic solution.  Inputs must be finite, ``A`` is
    ``m x n`` with ``1 <= m <= n``, its first ``m`` columns must equal
    ``np.eye(m)`` exactly, and ``b >= 0``.  The LP must be bounded; an
    unbounded ray raises :class:`NumericIntegrityError`.

    ``warm`` lists columns to start from.  Each is pivoted into the row,
    among those whose basic variable is still an identity column, where
    its coefficient is largest in magnitude; one already basic, or with
    no coefficient there above ``PIVOT_TOL`` (it depends on those before
    it), is left out.  When the warm columns are independent and ``b`` is
    a nonnegative combination of them, as the support of a feasible
    solution is, the starting basic solution is that combination with
    the padding identity columns at zero, so the returned value is not
    above it.  Warm columns whose start is infeasible (dependent ones can
    give one) are ignored: the solve starts from the identity basis.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],) or c.shape != (a.shape[1],):
        raise StructuralError(
            f"inconsistent LP shapes: A {a.shape}, b {b.shape}, c {c.shape}"
        )
    m, n = a.shape
    tableau = np.empty((m + 1, n + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    tableau[-1, :n] = c
    tableau[-1, -1] = 0.0
    if not np.isfinite(tableau).all():
        raise StructuralError("LP data must be finite")
    if not (1 <= m <= n and np.array_equal(a[:, :m], np.eye(m))):
        raise StructuralError("the LP's first m columns must be the identity basis")
    if b.min() < 0.0:
        raise StructuralError(f"the LP's right-hand side must be >= 0, got {b}")
    warm = [int(j) for j in warm]
    if any(not 0 <= j < n for j in warm):
        raise StructuralError(f"warm columns {warm} outside 0..{n - 1}")

    # the cost row holds c's reduced costs against the identity basis
    basis = list(range(m))
    tableau[-1] -= c[:m] @ tableau[:m]
    for j in warm:
        if j in basis:
            continue
        size, row = max(((abs(coef), r) for r, coef in enumerate(tableau[:m, j].tolist())
                         if basis[r] < m), default=(0.0, -1))
        if size > PIVOT_TOL:
            _pivot(tableau, basis, row, j)
    if warm and tableau[:m, -1].min() < -PIVOT_TOL:
        return solve_equality_lp(c, a, b)
    np.maximum(tableau[:m, -1], 0.0, out=tableau[:m, -1])
    _bland_loop(tableau, basis)

    w = np.zeros(n)
    w[basis] = np.maximum(0.0, tableau[:m, -1])
    return LpResult(w, float(c @ w), tuple(int(j) for j in basis), c[:m] - tableau[-1, :m])
