"""Dense joint probability tensors whose axes are addressed by bitmask.

A :class:`JointPmf` is an immutable dense tensor, one axis per random
variable.  Sets of axes are int bitmasks (bit ``i`` selects axis ``i``);
the pmf carries no axis names, so the layout that gives each axis its
meaning stays with the code that builds the tensor.  Entropy and
conditional mutual information of arbitrary variable groups reduce to
marginal sums over the tensor.  An :class:`Alphabet` labels a finite
symbol set for the code that matches channels to sources.

Each pmf keeps every marginal it has built, keyed by axis mask, for as
long as the pmf lives; the full mask maps to the tensor itself.  A
missing marginal has exactly one parent, the same mask plus its lowest
dropped axis, and is that parent summed over that one axis; a missing
parent is built the same way.  The chain from the tensor down to any
mask is thus a fixed function of the mask, so every marginal, and every
entropy read from one, has the same bits whatever order callers ask in
(and whatever the memo already holds).  Memoized arrays are read-only.

Conventions, fixed package-wide:

* logarithms are base 2, so every information quantity is in bits;
* ``0 * log 0 = 0``;
* tensors are dense ``float64`` and never sparse;
* a pmf must sum to 1 within ``MASS_TOL`` and be elementwise nonnegative.

Conditional mutual information is computed as a combination of joint
entropies.  Exact cancellation can leave values a few ulp below zero;
anything within ``CMI_CLAMP`` of zero is clamped to 0, while a larger
negative indicates broken inputs and raises
:class:`~canonical_region.errors.NumericIntegrityError`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericIntegrityError, StructuralError

MASS_TOL = 1e-12
CMI_CLAMP = 1e-10


def check_int(value, what: str = "index") -> int:
    """``value`` as an int: a Python or numpy integer passes; a bool or a
    non-integer raises instead of truncating."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise StructuralError(f"{what} {value!r} is not an integer")


def first_outside(masks, width: int) -> int | None:
    """The first mask, of the bitmask ``masks`` or an int array of them, with a bit
    at or above ``width`` (a negative mask has them all); None when all are in range."""
    outside = masks >> width                          # a negative mask shifts to -1
    if outside if isinstance(outside, int) else np.count_nonzero(outside):
        return int(np.ravel(masks)[np.ravel(outside) != 0][0])
    return None


@dataclass(frozen=True)
class Alphabet:
    """A named finite symbol set; symbols are the integers ``0..size-1``."""

    label: str
    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", check_int(self.size, f"alphabet {self.label!r} size"))
        if self.size < 1:
            raise StructuralError(
                f"alphabet {self.label!r} needs an integer size >= 1, got {self.size!r}"
            )


class JointPmf:
    """An immutable dense pmf whose axis ``i`` is bit ``i`` of every axis mask.

    ``probs`` is array-like with at least one axis, finite, nonnegative
    and of mass 1 within ``MASS_TOL``.  What each axis means is the
    caller's layout; the pmf knows axes only by position.
    """

    __slots__ = ("probs", "_entropy_cache", "_marginals")

    def __init__(self, probs) -> None:
        arr = np.array(probs, dtype=float)
        if arr.ndim < 1:
            raise StructuralError("a JointPmf needs at least one axis")
        if not np.all(np.isfinite(arr)):
            raise StructuralError("probability tensor contains non-finite entries")
        if arr.min(initial=0.0) < 0.0:
            raise StructuralError(
                f"probability tensor has a negative entry ({arr.min():.3e})"
            )
        mass = float(arr.sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise StructuralError(
                f"probability mass is {mass!r}, off from 1 by more than {MASS_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "_entropy_cache", {0: 0.0})         # H of the empty mask
        object.__setattr__(self, "_marginals", {(1 << arr.ndim) - 1: arr})

    def __setattr__(self, name, value):  # immutability by contract
        raise AttributeError("JointPmf is immutable")

    # ---- axis masks -------------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.probs.ndim

    def all_axes(self) -> int:
        return (1 << self.ndim) - 1

    def check_axes(self, axes) -> None:
        """Raise unless the axis mask ``axes``, or each of an int array, is in range."""
        bad = first_outside(axes, self.ndim)
        if bad is not None:
            raise StructuralError(f"axis mask {bad:#b} selects axes outside the tensor's "
                                  f"{self.ndim}")

    def marginal(self, axes: int) -> np.ndarray:
        """The read-only marginal of the axis mask ``axes``, its axes in tensor order.

        Built from the memo's fixed parent chain (see the module docstring).
        """
        memo = self._marginals
        found = memo.get(axes)                  # the memo holds valid masks only
        if found is not None:
            return found
        self.check_axes(axes)
        chain = [axes]   # masks to build, each the child of the next
        parent = axes | (~axes & (axes + 1))   # plus its lowest dropped axis
        while parent not in memo:
            chain.append(parent)
            parent |= ~parent & (parent + 1)
        arr = memo[parent]
        for mask in reversed(chain):
            # every axis below the dropped one is kept, so it sits at its own index
            arr = np.asarray(np.add.reduce(arr, axis=(~mask & (mask + 1)).bit_length() - 1))
            arr.setflags(write=False)
            memo[mask] = arr
        return arr


# ---- operations ------------------------------------------------------------


def plogp(a: np.ndarray) -> np.ndarray:
    """``a * log2(a)`` cell by cell, 0 where ``a`` is not positive.  The zeros shift
    numpy's pairwise-summation blocks, so a sum of these cells can differ in the last
    bit from a sum over the positive cells alone.  Entropies, θ and the lattice read it."""
    logs = np.where(a > 0.0, a, 1.0)
    return np.multiply(a, np.log2(logs, out=logs), out=logs)


def _entropies(p: JointPmf, masks: np.ndarray) -> np.ndarray:
    """H of each axis mask of the int array ``masks``, an array of its shape.

    Each is computed once per pmf: the missing marginals of one cell count are
    stacked, and one :func:`plogp` serves the stack."""
    cache, groups = p._entropy_cache, {}
    flat = masks.ravel().tolist()
    for mask in set(flat).difference(cache):
        marg = p.marginal(mask)
        groups.setdefault(marg.size, []).append((mask, marg.reshape(-1)))
    for group in groups.values():
        found, margs = zip(*group)
        cells = np.array(margs) if len(margs) > 1 else margs[0][None]   # a lone one uncopied
        cache.update(zip(found, -np.add.reduce(plogp(cells), axis=-1)))
    return np.array([cache[mask] for mask in flat]).reshape(masks.shape)


def entropy(p: JointPmf, of: int, given: int = 0) -> float:
    """Conditional entropy H(of | given) in bits.

    ``of`` must be nonempty and disjoint from ``given``.
    """
    p.check_axes(of)
    p.check_axes(given)
    if not of:
        raise StructuralError("entropy target set is empty")
    if of & given:
        raise StructuralError("entropy target overlaps the conditioning set")
    joint, cond = _entropies(p, np.array([of | given, given]))
    return float(joint - cond)


def mi_sets(p: JointPmf, a, b, given=0):
    """Conditional mutual information I(a; b | given) in bits.

    The axis bitmasks ``a`` and ``b`` must be nonempty and disjoint from
    ``given``.  They may share axes, in which case this computes
    ``H(a|given) - H(a|b,given)`` literally: shared variables behave as if
    observed on the ``b`` side.  Used where a variable plays two roles at
    once (a source that is its own coded description).  Negatives within
    ``CMI_CLAMP`` clamp to +0.0, and so does -0.0; anything more negative
    raises :class:`NumericIntegrityError`.  Int arrays of masks, broadcast
    together, give an array of informations, every mask checked before any
    is computed.
    """
    a, b, given = np.broadcast_arrays(a, b, given)
    union = a | b | given
    p.check_axes(union)                  # every mask read is a subset of this one
    if np.count_nonzero(a) < a.size or np.count_nonzero(b) < b.size:
        raise StructuralError("mutual information needs nonempty argument sets")
    if np.count_nonzero((a | b) & given):
        raise StructuralError("conditioning set overlaps an argument set")
    h = _entropies(p, np.array([a | given, b | given, union, given]))
    value = h[0] + h[1] - h[2] - h[3]
    low = value.min(initial=np.inf)
    if low <= 0.0:    # -0.0 too: callers may rely on a nonnegative sign bit
        if low < -CMI_CLAMP:
            raise NumericIntegrityError(
                f"conditional mutual information evaluated to {low:.3e} bits, "
                f"below the -{CMI_CLAMP} clamp threshold"
            )
        value = np.where(value <= 0.0, 0.0, value)
    return value if value.ndim else float(value)
