"""Dense primal simplex for the channel optimizer's mixture LPs.

Solves stacks of ``min c.w  s.t.  A w = b, w >= 0``, each LP with a
handful of rows and at most a few hundred columns.  A's first ``m``
columns must be the identity and ``b >= 0``, so they form a feasible
basis with ``w = b`` and no phase 1 is needed (Dantzig, *Linear
Programming and Extensions*, 1963).  A mixture LP always has one: its
vertex columns ``e_x`` give the trivial Carathéodory representation
``p_k = sum_x p_k(x) e_x``.  Warm columns, such as the support of the
incumbent's basic solution, are pivoted in first, so the simplex starts
from the incumbent and primal pivots can only lower its value.
Entering and leaving variables follow Bland's rule (smallest eligible
index), which guarantees termination from any starting basis on
degenerate problems (Bland 1977).  A basic optimal solution has at most
``m`` positive entries, exactly the support bound the channel optimizer
relies on.  Each pivot step moves every unsolved LP of the stack by its
own choice, so each LP ends exactly as if solved alone.
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
RESIDUAL_TOL = 1e-9   # max |A w - b| / max b of an optimum; the bundled problems' stay < 1e-13


@dataclass(frozen=True, eq=False)
class LpResult:
    """Each LP's optimal basic solution ``w[i]``, its value, its basis and its duals.

    ``basis[i, r]`` is the column basic in row r of LP i, and ``duals[i]``
    is ``y = c_B B^-1``: every reduced cost ``c_j - y.a_j`` is at least
    ``-OPTIMALITY_TOL``.
    """

    w: np.ndarray = field(repr=False)          # (B, n)
    value: np.ndarray                          # (B,)
    basis: np.ndarray                          # (B, m)
    duals: np.ndarray = field(repr=False)      # (B, m)


def _pivot(tableau: np.ndarray, basis: np.ndarray, lps: np.ndarray, rows: np.ndarray,
           cols: np.ndarray) -> None:
    """Pivot column ``cols[i]`` into row ``rows[i]`` of LP ``lps[i]``, for every i at once."""
    at = np.arange(len(lps))
    whole = len(lps) == len(tableau)            # lps is sorted: then it is every LP
    sub = tableau if whole else tableau[lps]
    pivot_rows = sub[at, rows] / sub[at, rows, cols][:, None]
    sub -= sub[at, :, cols][:, :, None] * pivot_rows[:, None, :]
    sub[at, rows] = pivot_rows                  # the pivot row itself is only divided
    if not whole:
        tableau[lps] = sub
    basis[lps, rows] = cols


def _bland_loop(tableau: np.ndarray, basis: np.ndarray) -> None:
    """Pivot every LP of the stack until it is optimal; its last row holds reduced costs."""
    m = basis.shape[1]
    rhs, every = tableau[:, :m, -1], np.arange(len(tableau))[:, None]
    for _ in range(MAX_PIVOTS):
        costs = tableau[:, -1, :-1].copy()
        costs[every, basis] = 0.0                      # basic columns never enter
        eligible = costs < -OPTIMALITY_TOL
        lps = np.flatnonzero(eligible.any(axis=1))     # an optimal LP pivots no more
        if not lps.size:
            return
        entering = eligible[lps].argmax(axis=1)        # the smallest eligible index (Bland)
        coef = tableau[lps, :m, entering]
        pos = coef > PIVOT_TOL
        if not pos.any(axis=1).all():
            raise NumericIntegrityError(
                f"LP is unbounded along column {entering[~pos.any(axis=1)][0]}")
        ratios = np.where(pos, rhs[lps] / np.where(pos, coef, 1.0), np.inf)
        tied = ratios <= ratios.min(axis=1, keepdims=True) + PIVOT_TOL
        # smallest basic-variable index among the tied rows (Bland)
        rows = np.where(tied, basis[lps], tableau.shape[2]).argmin(axis=1)
        _pivot(tableau, basis, lps, rows, entering)
        np.maximum(rhs, 0.0, out=rhs)
    raise NumericIntegrityError("simplex failed to terminate within the pivot budget")


def solve_equality_lp(c, a, b, warm=()) -> LpResult:
    """Minimize ``c[i].w`` over ``{A[i] w = b[i], w >= 0}`` for each LP i of a
    stack, starting from ``warm``'s basis.

    Returns each LP's optimal basic solution.  Inputs must be finite:
    ``c`` is ``(B, n)``, ``A`` ``(B, m, n)`` with ``1 <= m <= n`` and its
    first ``m`` columns equal to ``np.eye(m)`` exactly, and ``b`` ``(B, m)``
    with ``b >= 0``.  Each LP must be bounded; an unbounded ray raises
    :class:`NumericIntegrityError`, and so does an optimum that round-off
    leaves off its rows: max |A w - b| above ``RESIDUAL_TOL`` times max b.

    ``warm`` lists columns to start from.  Each is pivoted into the row,
    among those whose basic variable is still an identity column, where
    its coefficient is largest in magnitude; one already basic, or with
    no coefficient there above ``PIVOT_TOL`` (it depends on those before
    it), is left out.  When the warm columns are independent and ``b`` is
    a nonnegative combination of them, as the support of a feasible
    solution is, the starting basic solution is that combination with
    the padding identity columns at zero, so the returned value is not
    above it.  An LP whose warm start is infeasible (dependent columns can
    give one) ignores it and starts from the identity basis.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 3 or b.shape != a.shape[:2] or c.shape != (len(a), a.shape[2]):
        raise StructuralError(
            f"inconsistent LP shapes: A {a.shape}, b {b.shape}, c {c.shape}"
        )
    size, m, n = a.shape
    tableau = np.zeros((size, m + 1, n + 1))
    tableau[:, :m, :n] = a
    tableau[:, :m, -1] = b
    tableau[:, -1, :n] = c
    if not np.isfinite(tableau).all():
        raise StructuralError("LP data must be finite")
    if not (1 <= m <= n and (a[:, :, :m] == np.eye(m)).all()):
        raise StructuralError("the LP's first m columns must be the identity basis")
    if (low := float(b.min())) < 0.0:
        raise StructuralError(f"the LP's right-hand side must be >= 0, its least entry is {low!r}")
    warm = [int(j) for j in warm]
    if any(not 0 <= j < n for j in warm):
        raise StructuralError(f"warm columns {warm} outside 0..{n - 1}")

    # the cost row holds c's reduced costs against the identity basis
    basis = np.tile(np.arange(m), (size, 1))
    tableau[:, -1:] -= c[:, None, :m] @ tableau[:, :m]
    cold = tableau.copy()
    for j in warm:
        # rows whose basic variable is still an identity column; the largest
        # coefficient wins, the last such row on ties
        sizes = np.where(basis < m, np.abs(tableau[:, :m, j]), 0.0)[:, ::-1]
        rows = m - 1 - sizes.argmax(axis=1)
        lps = np.flatnonzero((sizes.max(axis=1) > PIVOT_TOL) & (basis != j).all(axis=1))
        if lps.size:
            _pivot(tableau, basis, lps, rows[lps], np.full(len(lps), j))
    infeasible = tableau[:, :m, -1].min(axis=1) < -PIVOT_TOL
    tableau[infeasible], basis[infeasible] = cold[infeasible], np.arange(m)
    tableau[:, :m, -1] = np.maximum(tableau[:, :m, -1], 0.0)
    _bland_loop(tableau, basis)

    w = np.zeros((size, n))
    w[np.arange(size)[:, None], basis] = np.maximum(0.0, tableau[:, :m, -1])
    scale = b.max(axis=1)
    miss = np.abs((a @ w[:, :, None])[:, :, 0] - b).max(axis=1) / np.where(scale > 0.0, scale, 1.0)
    if miss.max(initial=0.0) > RESIDUAL_TOL:
        raise NumericIntegrityError(f"LP {miss.argmax()}'s optimum misses A w = b by "
                                    f"{miss.max():.3e} of max b, above {RESIDUAL_TOL}")
    value = (c[:, None] @ w[:, :, None])[:, 0, 0]
    duals = c[:, :m] - tableau[:, -1, :m]
    return LpResult(w, value, basis, duals)
