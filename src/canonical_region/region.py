"""The contra-polymatroidal rate region and its corner points.

Fixing an augmented joint, write for every nonempty group I of
description indices

    g(I) = I(X_I ; Z_I | Z_{I^c}, S)

where ``Z_m = X_m`` for the losslessly observed sources ``m <= J`` and
``I^c`` is the complement of I within ``{1..M}``.  The achievable rate
set studied here is

    { R >= 0 :  sum_{i in I} R_i >= g(I)  for every nonempty I }.

This set is convex and upward closed, and g is supermodular, so each of
the M! processing orders gives an extreme point of the set: for a
permutation ``pi`` of the sources, position i of the corner is

    R_{pi(i)} = I(X_{pi(i)} ; Z_{pi(i)} | Z_{pi(1..i-1)}, S),

a telescoping of g along the order.  The tight constraints at any point
of the region are closed under union and intersection.  The M! corners
are distinct exactly when every corner gap I(Z_a ; Z_b | Z_P, S), for
a != b and P within {1..M} minus {a, b}, is positive (g is strictly
supermodular): swapping adjacent sources a and b after the prefix P
moves the corner by exactly that gap.  Then the tight constraints at a
corner are exactly the nested suffix groups ``{pi(m), ..., pi(M)}``,
and at any point of the region they form a chain under inclusion.

:func:`verify_chain_identities` numerically exercises the decomposition
identities of g that drive all of the above (chain rules that peel
elements off a group one at a time, and the superadditivity inequality
bounding g(I) by a sum of single-index corner rates).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .augment import AugmentedPmf
from .errors import BudgetError, PreconditionError, StructuralError
from .pmf import JointPmf, check_int, mi_sets

ACTIVE_TOL = 1e-9
NONDEGENERACY_THRESHOLD = 1e-7
MAX_SOURCES_FOR_ENUMERATION = 6
RATE_NEGATIVE_TOL = 1e-12   # rates from float cancellation land a few ulp below 0

Permutation = tuple[int, ...]
RateVector = np.ndarray


def identity_permutation(m: int) -> Permutation:
    return tuple(range(1, m + 1))


def check_permutation(perm: Sequence[int], m: int) -> Permutation:
    perm = tuple(map(check_int, perm))
    if sorted(perm) != list(range(1, m + 1)):
        raise StructuralError(f"{perm} is not a permutation of 1..{m}")
    return perm


def _mask(indices: Iterable[int], m: int) -> int:
    """Bitmask over sources 1..M of ``indices``."""
    mask = 0
    for i in map(check_int, indices):
        if not 1 <= i <= m:
            raise StructuralError(f"description index {i} outside 1..{m}")
        mask |= 1 << (i - 1)
    return mask


def _members(mask: int) -> tuple[int, ...]:
    """The sources, in increasing order, of a bitmask over 1..M."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@functools.cache
def _groups_in_mask_order(m: int) -> tuple[tuple[int, ...], ...]:
    """All nonempty groups, ordered by their bitmask over sources 1..M."""
    return tuple(_members(mask) for mask in range(1, 1 << m))


def _cmi_xz(aug: AugmentedPmf, left, cond):
    """I(X_left ; Z_left | Z_cond, S) for source bitmasks, or int arrays of them
    broadcast together, in one :func:`mi_sets` call; the joint's memos make a
    repeated read cost lookups only, and a call that raises stores nothing."""
    aug.x_axes(left | cond)                       # both in range before any axis is read
    return mi_sets(aug.joint, left, aug.z_axes(left), aug.z_axes(cond) | aug.s_axis)


def _gather(keys: np.ndarray, m: int, value: Callable[..., np.ndarray]) -> np.ndarray:
    """``value(high, low)`` at each key ``high << m | low``, called once on the distinct keys."""
    # deduplicated by a Python set: the first np.unique or np.sort call maps about
    # 1 MB or 0.4 MB more of library pages, and a table over all 4^M keys would grow
    # with M, not with the keys read
    distinct = np.array(sorted(set(keys.ravel().tolist())), dtype=np.int64)
    return value(distinct >> m, distinct & ((1 << m) - 1))[np.searchsorted(distinct, keys)]


def _mi_zz(aug: AugmentedPmf, left, right, cond):
    """I(Z_left ; Z_right | Z_cond, S) for source bitmasks, or int arrays of them."""
    return mi_sets(aug.joint, aug.z_axes(left), aug.z_axes(right),
                   aug.z_axes(cond) | aug.s_axis)


def rate_lhs(aug: AugmentedPmf, group: Iterable[int]) -> float:
    """g(I) = I(X_I ; Z_I | Z_{I^c}, S) for a nonempty group I of 1..M."""
    mask = _mask(group, aug.m)
    if not mask:
        raise StructuralError("description group must be nonempty")
    return _cmi_xz(aug, mask, mask ^ ((1 << aug.m) - 1))


@dataclass(frozen=True, eq=False)
class ConstraintReport:
    """Every group constraint at one rate vector, or at each of a stack of them.

    ``lhs`` (g(I), the information bound) is a read-only ``(G,)`` array
    and ``rate_sums`` (the sum of R_i over I) a read-only ``(G,)`` or
    ``(N, G)`` array, one row per rate vector.  Entry ``mask - 1`` of a
    row belongs to the group I with that bitmask.  ``slack``, ``active``,
    ``is_member`` and ``chained`` keep the leading axis of ``rate_sums``.
    """

    lhs: np.ndarray
    rate_sums: np.ndarray
    tol: float

    @functools.cached_property
    def slack(self) -> np.ndarray:
        return self.rate_sums - self.lhs

    @functools.cached_property
    def active(self) -> np.ndarray:
        """Boolean mask of the tight groups, ``|slack| <= tol``."""
        return np.abs(self.slack) <= self.tol

    @functools.cached_property
    def is_member(self) -> bool | np.ndarray:
        member = (self.slack >= -self.tol).all(axis=-1)
        return member if member.ndim else bool(member)

    @functools.cached_property
    def chained(self) -> bool | np.ndarray:
        """Whether a row's tight groups form an inclusion chain, inside the region or not."""
        active = self.active          # a tight group crossing another tight group breaks the chain
        chained = ~(active & (active @ _crossing_pairs(len(self.lhs).bit_length()))).any(axis=-1)
        return chained if chained.ndim else bool(chained)

    @functools.cached_property
    def active_groups(self) -> tuple:
        """The tight groups of a row; for a stack, one such tuple per row."""
        groups = _groups_in_mask_order(len(self.lhs).bit_length())
        rows = tuple(tuple(groups[i] for i in np.flatnonzero(row))
                     for row in self.active.reshape(-1, len(self.lhs)))
        return rows if self.active.ndim == 2 else rows[0]


def membership(aug: AugmentedPmf, rates: RateVector, tol: float = ACTIVE_TOL) -> ConstraintReport:
    """Evaluate every group constraint at ``rates``, one ``(M,)`` or a stack ``(N, M)``.

    Every rate vector must have one finite nonnegative entry per source
    (entries within ``RATE_NEGATIVE_TOL`` below zero count as zero).
    Entries come back in bitmask order, so reports are deterministic
    across runs, and a row's entries do not depend on the other rows.
    """
    r = np.asarray(rates, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != aug.m:
        raise StructuralError(
            f"rate vector has shape {r.shape}, expected ({aug.m},) or (N, {aug.m})")
    rows = r.reshape(-1, aug.m)
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise StructuralError(f"rate vector has a non-finite entry: {rows[bad.argmax()]}")
    bad = rows.min(axis=1, initial=0.0) < -RATE_NEGATIVE_TOL
    if bad.any():
        raise StructuralError(f"rate vector has a negative entry: {rows[bad.argmax()]}")
    # sums[..., mask] adds the group's rates left to right in increasing index
    sums = np.zeros(r.shape[:-1] + (1 << aug.m,))
    for b in range(aug.m):
        sums[..., 1 << b:2 << b] = sums[..., :1 << b] + r[..., b, None]
    full = (1 << aug.m) - 1
    masks = np.arange(1, full + 1)
    lhs = _cmi_xz(aug, masks, full ^ masks)
    sums = sums[..., 1:]
    lhs.setflags(write=False)
    sums.setflags(write=False)
    return ConstraintReport(lhs, sums, tol)


def corner_point(aug: AugmentedPmf, perm: Sequence[int] | np.ndarray) -> RateVector:
    """The extreme point of the region for processing order ``perm``.

    ``perm`` is one order ``(M,)`` or a stack ``(N, M)``, and the corners
    come back in the same shape.  Source ``perm[i]`` pays the information
    its description adds on top of the descriptions of ``perm[0..i-1]``
    and S, I(X ; Z | Z_before, S).  Each distinct (source, prefix) rate
    of the stack is read once.
    """
    m = aug.m
    if isinstance(perm, np.ndarray) and perm.dtype.kind in "iu":
        orders = perm.astype(np.int64, copy=False)
    else:   # entry by entry: np.array would cast a bool or truncate a float silently
        entries = np.asarray(perm, dtype=object)
        orders = np.array(list(map(check_int, entries.flat)), dtype=np.int64).reshape(entries.shape)
    if orders.ndim not in (1, 2) or orders.shape[-1] != m:
        raise StructuralError(f"orders have shape {orders.shape}, expected ({m},) or (N, {m})")
    rows = orders.reshape(-1, m)
    clipped = np.clip(rows, 1, m)
    bits = np.left_shift(1, clipped - 1)
    seen = np.bitwise_or.accumulate(bits, axis=1)     # sources up to each position
    # M entries in 1..M that cover all M sources are a permutation
    bad = (rows != clipped).any(axis=1) | (seen[:, -1] != (1 << m) - 1)
    if bad.any():
        check_permutation(rows[bad.argmax()], m)     # raises, naming the first bad row
    before = seen ^ bits                             # the sources before each position
    rates = _gather(bits << m | before, m, functools.partial(_cmi_xz, aug))
    corners = np.empty(rows.shape)
    np.put_along_axis(corners, rows - 1, rates, axis=1)
    return corners.reshape(orders.shape)


@functools.cache
def _orders(m: int) -> np.ndarray:
    """Read-only ``(M!, M)`` table of every processing order, in lexicographic order."""
    table = np.array(list(itertools.permutations(range(1, m + 1))), dtype=np.int64)
    table.setflags(write=False)
    return table


def enumerate_extreme_points(aug: AugmentedPmf) -> list[tuple[Permutation, RateVector]]:
    """All M! corner points, in lexicographic permutation order.

    Refuses instances with more than ``MAX_SOURCES_FOR_ENUMERATION``
    sources; factorially many corners past that are not desk-scale.
    """
    if aug.m > MAX_SOURCES_FOR_ENUMERATION:
        raise BudgetError(
            f"enumerating {math.factorial(aug.m)} corners for M={aug.m} exceeds "
            f"the M <= {MAX_SOURCES_FOR_ENUMERATION} budget"
        )
    orders = _orders(aug.m)
    return list(zip(map(tuple, orders.tolist()), corner_point(aug, orders)))


def expected_active_groups(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The nested suffix groups {perm[m..M]} tight at the perm's corner."""
    perm = tuple(perm)
    return tuple(tuple(sorted(perm[pos:])) for pos in range(len(perm)))


@functools.cache
def _crossing_pairs(m: int) -> np.ndarray:
    """``(G, G)`` table, in group bitmask order, of group pairs that are not nested."""
    masks = np.arange(1, 1 << m)
    both = masks[:, None] & masks[None, :]
    crossing = (both != masks[:, None]) & (both != masks[None, :])
    crossing.setflags(write=False)
    return crossing


def verify_noncrossing(aug: AugmentedPmf, rates: RateVector,
                       tol: float = ACTIVE_TOL) -> bool | np.ndarray:
    """Check that the constraints tight at ``rates`` form an inclusion chain.

    ``rates`` is one rate vector ``(M,)`` or a stack ``(N, M)``, and every
    row must belong to the region (precondition; the first row outside
    it raises, naming its worst slack).  A row passes when every pair of
    its tight groups is nested; the result is a bool, or an ``(N,)``
    boolean array for a stack.  On a nondegenerate instance crossing
    tight groups would contradict strict supermodularity of g, so a
    failing row indicates broken inputs; on a degenerate one they can
    cross.  A caller holding the report reads its ``chained``.
    """
    report = membership(aug, rates, tol)
    outside = ~np.atleast_1d(report.is_member)
    if outside.any():
        worst = float(report.slack.reshape(outside.size, -1)[outside.argmax()].min())
        raise PreconditionError(
            f"rate vector is outside the region (worst slack {worst:.3e})"
        )
    return report.chained


# ---- nondegeneracy ----------------------------------------------------------


@dataclass(frozen=True)
class NondegeneracyReport:
    """``(a, b, cond, value)`` dependence terms for source pairs a < b."""

    entries: tuple[tuple[int, int, tuple[int, ...], float], ...]

    @functools.cached_property
    def min_value(self) -> float:
        return min((e[-1] for e in self.entries), default=float("inf"))

    @property
    def degenerate(self) -> bool:
        return self.min_value < NONDEGENERACY_THRESHOLD


def nondegeneracy_report(aug: AugmentedPmf) -> NondegeneracyReport:
    """Every corner gap I(Z_a ; Z_b | Z_cond, S), a difference of two corner rates.

    With f(a, K) = I(X_a ; Z_a | Z_K, S), the gap is f(a, cond) -
    f(a, cond u {b}), since Z_a depends on the rest only through X_a.  Two
    distinct corners differ in the rate of the first source where their
    orders part by at least one gap, and swapping an adjacent pair attains
    it, so ``min_value`` is the smallest max-norm distance between corners.
    After :func:`enumerate_extreme_points` this computes no new entropy.
    M = 1 is vacuously nondegenerate.
    """
    m = aug.m     # sources counted from 0 here; each pair with every cond that holds neither
    a, b = np.array(list(itertools.combinations(range(m), 2)), dtype=np.int64).reshape(-1, 2).T
    pair, cond = np.nonzero((np.arange(1 << m) & (1 << a | 1 << b)[:, None]) == 0)
    a, b = a[pair], b[pair]
    gaps = _cmi_xz(aug, 1 << a, cond) - _cmi_xz(aug, 1 << a, cond | 1 << b)
    members = ((),) + _groups_in_mask_order(m)
    return NondegeneracyReport(tuple(zip((a + 1).tolist(), (b + 1).tolist(),
                                         map(members.__getitem__, cond.tolist()), gaps.tolist())))


def source_nondegeneracy_report(source: JointPmf) -> NondegeneracyReport:
    """Source-level preflight: I(X_a ; X_b | S) for every source pair a < b.

    Channels are not known at load time, but if two sources are already
    conditionally independent given S alone, no channel choice can make
    their descriptions dependent, so the instance is degenerate for every
    channel bank.  A pair is the sharpest probe: I(X_I ; X_I' | S) >=
    I(X_a ; X_b | S) for a in I and b in I'.  Conditioning deliberately
    excludes the remaining sources: a Markov-structured source is fine
    once its descriptions are noisy, and must not be flagged here.
    """
    m = source.ndim - 2
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    first, second = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    values = mi_sets(source, 1 << first >> 1, 1 << second >> 1, 1 << m)   # X1..XM, S, V
    return NondegeneracyReport(tuple((*pair, (), value)
                                     for pair, value in zip(pairs, values.tolist())))


# ---- decomposition identities ------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    trials: int
    worst_violation: float
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ChainIdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _draw_identity_trials(rng: np.random.Generator, m: int, trials: int) -> tuple[np.ndarray, ...]:
    """The random draws of ``trials`` identity trials, in a few Generator calls.

    Returns ``(first, second, superset, order, size, split)``.  ``first``
    and ``second`` are the bitmasks of disjoint nonempty groups I and I',
    each trial uniform over the valid assignments of the M sources to I,
    I' or neither, and ``superset`` adds each source outside I u I' on a
    fair coin; these are ``(T,)``, and empty when M = 1.  Row t of the
    ``(T, M)`` ``order`` is a uniform random order of sources 1..M, whose
    first ``size[t]`` entries are the peel order; ``size`` and ``split``
    are uniform on 1..M.
    """
    bits = 1 << np.arange(m)
    side = rng.integers(0, 3, size=(trials if m > 1 else 0, m))
    while (redraw := ~((side == 0).any(axis=1) & (side == 1).any(axis=1))).any():
        side[redraw] = rng.integers(0, 3, size=(int(redraw.sum()), m))
    first, second = (side == 0) @ bits, (side == 1) @ bits
    superset = first | second | rng.integers(0, 2, size=side.shape) @ bits
    size = rng.integers(1, m + 1, size=trials)
    order = rng.permuted(np.tile(np.arange(1, m + 1), (trials, 1)), axis=1)
    split = rng.integers(1, m + 1, size=trials)
    return first, second, superset, order, size, split


def verify_chain_identities(aug: AugmentedPmf, trials: int = 200, tol: float = ACTIVE_TOL,
                            seed: int | tuple[int, ...] = 0) -> ChainIdentityReport:
    """Randomized numeric check of the decomposition identities of g.

    Each trial draws disjoint nonempty groups I, I', a superset group for
    the restricted variant, a random element order, and a split point m,
    then evaluates:

    * ``condition-drop-split``: dropping Z_I' from the conditioning of
      g's numerator costs exactly I(Z_I; Z_I' | Z_{(I u I')^c}, S);
    * ``disjoint-union-split``: g over I u I' splits into an I-term
      conditioned on (I u I')^c and the plain g(I');
    * ``restricted-union-split``: the same split inside an arbitrary
      superset group, with outside variables marginalized out;
    * ``element-peel-chain``: g(I) telescopes into single-element terms,
      each conditioned on everything except the not-yet-peeled elements;
    * ``prefix-chain`` / ``suffix-chain``: the telescoping specialized to
      prefixes 1..m and suffixes m+1..M of the natural order;
    * ``corner-sum-bound``: g(I) <= sum over I of the natural-order corner
      rates (superadditivity; checked as an inequality).

    All trials are drawn at once from ``default_rng(seed)``, ``seed`` an
    int or a tuple of ints: each source goes to I, I' or neither, rows
    that leave I or I' empty are redrawn, each source outside I u I'
    joins the superset on a fair coin, the peeled elements are the first
    ``size`` of a uniform random order, and ``size`` and the split are
    uniform on 1..M.  Each distinct information quantity the trials read
    is computed once, and the identities are evaluated as arrays, their
    sums added left to right as a per-trial loop would add them.
    Equalities must hold within ``tol``; the report records the worst
    violation and full counterexamples, in trial order, for anything
    beyond it.
    """
    if trials < 1:
        raise StructuralError(f"trials must be >= 1, got {trials}")
    m = aug.m
    full = (1 << m) - 1
    first, second, superset, order, size, split = _draw_identity_trials(
        np.random.default_rng(seed), m, trials)

    def xz(left: np.ndarray, cond: np.ndarray | int) -> np.ndarray:
        """I(X_left ; Z_left | Z_cond, S) for arrays of source bitmasks."""
        return _gather(left << m | cond, m, functools.partial(_cmi_xz, aug))

    union = first | second
    zz = _gather(first << m | second, m, lambda a, b: _mi_zz(aug, a, b, full ^ a ^ b))

    bits = 1 << (order - 1)
    peeled = np.arange(m) < size[:, None]       # the positions of the peel order
    group = np.bitwise_or.reduce(bits * peeled, axis=1)
    # before position k: everything but the not-yet-peeled elements
    conds = (full ^ group)[:, None] | (np.bitwise_or.accumulate(bits, axis=1) ^ bits)
    terms = np.zeros(order.shape)
    terms[peeled] = xz(bits[peeled], conds[peeled])
    # the natural-order corner: entry i is source i+1's rate given sources 1..i
    corner = _cmi_xz(aug, 1 << np.arange(m), (1 << np.arange(m)) - 1)
    peel, bound, head, tail = np.zeros((4, trials))
    for i in range(m):   # left to right, as scalar sums add
        peel += terms[:, i]
        bound += np.where(group >> i & 1, corner[i], 0.0)
        head += np.where(i < split, corner[i], 0.0)
        tail += np.where(i >= split, corner[i], 0.0)
    lhs = xz(group, full ^ group)
    prefix = (1 << split) - 1
    short = split < m

    def check(name: str, violation: np.ndarray, **context: np.ndarray) -> IdentityCheck:
        """A check over its trials; failing ones keep their draws, groups as member tuples."""
        over = violation > tol
        failures = []
        for value, *draws in zip(violation[over].tolist(),
                                 *(v[over].tolist() for v in context.values())):
            failures.append({"violation": value, **{   # the peel order comes zero-padded
                key: _members(draw) if key in ("I", "I2", "superset")
                else tuple(filter(None, draw)) if key == "order" else draw
                for key, draw in zip(context, draws)}})
        return IdentityCheck(name, violation.size, float(violation.max(initial=0.0)),
                             tuple(failures))

    return ChainIdentityReport((
        check("condition-drop-split", np.abs(xz(first, full ^ union) - (
            xz(first, full ^ first) + zz)), I=first, I2=second),
        check("disjoint-union-split", np.abs(xz(union, full ^ union) - (
            xz(first, full ^ union) + xz(second, full ^ second))), I=first, I2=second),
        check("restricted-union-split", np.abs(xz(union, superset ^ union) - (
            xz(first, superset ^ union) + xz(second, superset ^ second))),
            I=first, I2=second, superset=superset),
        check("element-peel-chain", np.abs(lhs - peel), I=group, order=order * peeled),
        check("prefix-chain", np.abs(xz(prefix, 0) - head), m=split),
        check("suffix-chain", np.abs(xz(full ^ prefix[short], prefix[short]) - tail[short]),
              m=split[short]),
        check("corner-sum-bound", np.maximum(0.0, lhs - bound), I=group),
    ))
