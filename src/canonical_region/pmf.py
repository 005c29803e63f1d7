"""Dense joint probability tensors over named finite axes.

A :class:`JointPmf` is an immutable dense tensor whose axes are named
random variables, each with a finite :class:`Alphabet`.  Subsets of axes
are addressed with :class:`VarSet` bitmasks, so entropy and conditional
mutual information of arbitrary variable groups reduce to marginal sums
over the tensor.

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
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericIntegrityError, StructuralError

MASS_TOL = 1e-12
CMI_CLAMP = 1e-10


@dataclass(frozen=True)
class Alphabet:
    """A named finite symbol set; symbols are the integers ``0..size-1``."""

    label: str
    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 1:
            raise StructuralError(
                f"alphabet {self.label!r} needs an integer size >= 1, got {self.size!r}"
            )


@dataclass(frozen=True)
class VarSet:
    """An immutable set of tensor axes, stored as a bitmask.

    Bit ``i`` selects axis ``i`` of the tensor the set is used with.  The
    empty set is falsy, which makes "no conditioning" read naturally.
    """

    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise StructuralError(f"VarSet mask must be nonnegative, got {self.mask}")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "VarSet":
        mask = 0
        for i in indices:
            if i < 0:
                raise StructuralError(f"axis index must be nonnegative, got {i}")
            mask |= 1 << i
        return cls(mask)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    def __or__(self, other: "VarSet") -> "VarSet":
        return VarSet(self.mask | other.mask)

    def __and__(self, other: "VarSet") -> "VarSet":
        return VarSet(self.mask & other.mask)

    def __sub__(self, other: "VarSet") -> "VarSet":
        return VarSet(self.mask & ~other.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, index: int) -> bool:
        return index >= 0 and bool(self.mask >> index & 1)

    def isdisjoint(self, other: "VarSet") -> bool:
        return self.mask & other.mask == 0

    def issubset(self, other: "VarSet") -> bool:
        return self.mask & ~other.mask == 0


class JointPmf:
    """An immutable dense pmf over named axes.

    Parameters
    ----------
    axes:
        Sequence of ``(variable_name, Alphabet)`` pairs, one per tensor
        axis, in tensor order.  Names must be unique.
    probs:
        Array-like of shape ``tuple(a.size for _, a in axes)``.
    """

    __slots__ = ("axes", "probs", "_axis_of", "_entropy_cache")

    def __init__(self, axes: Sequence[tuple[str, Alphabet]], probs) -> None:
        axes = tuple((str(name), alphabet) for name, alphabet in axes)
        if not axes:
            raise StructuralError("a JointPmf needs at least one axis")
        names = [name for name, _ in axes]
        if len(set(names)) != len(names):
            raise StructuralError(f"duplicate axis names in {names}")
        arr = np.array(probs, dtype=float)
        expected = tuple(alphabet.size for _, alphabet in axes)
        if arr.shape != expected:
            raise StructuralError(
                f"probability tensor has shape {arr.shape}, axes require {expected}"
            )
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
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "_axis_of", {name: i for i, (name, _) in enumerate(axes)})
        object.__setattr__(self, "_entropy_cache", {})

    def __setattr__(self, name, value):  # immutability by contract
        raise AttributeError("JointPmf is immutable")

    # ---- axis bookkeeping -------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def axis_index(self, name: str) -> int:
        try:
            return self._axis_of[name]
        except KeyError:
            raise StructuralError(
                f"unknown axis {name!r}; available: {list(self._axis_of)}"
            ) from None

    def varset(self, *names: str) -> VarSet:
        return VarSet.of(self.axis_index(n) for n in names)

    def all_axes(self) -> VarSet:
        return VarSet((1 << self.ndim) - 1)

    def names(self, vs: VarSet) -> tuple[str, ...]:
        self.check_varset(vs)
        return tuple(self.axes[i][0] for i in vs.indices())

    def check_varset(self, vs: VarSet) -> None:
        if not vs.issubset(self.all_axes()):
            raise StructuralError(
                f"VarSet selects axes {vs.indices()} but tensor has {self.ndim} axes"
            )

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Dense marginal array with axes ordered exactly as ``names``."""
        keep = [self.axis_index(n) for n in names]
        if len(set(keep)) != len(keep):
            raise StructuralError(f"repeated axis in marginal request {names}")
        drop = tuple(sorted(set(range(self.ndim)) - set(keep)))
        m = self.probs.sum(axis=drop) if drop else self.probs
        kept_sorted = sorted(keep)
        order = [kept_sorted.index(k) for k in keep]
        return np.ascontiguousarray(m.transpose(order))


# ---- operations ------------------------------------------------------------


def marginalize(p: JointPmf, keep: VarSet) -> JointPmf:
    """Sum out every axis not in ``keep``, preserving axis order.

    ``keep`` must be a nonempty subset of ``p``'s axes.
    """
    p.check_varset(keep)
    if not keep:
        raise StructuralError("cannot marginalize onto the empty axis set")
    kept = keep.indices()
    drop = tuple(sorted(set(range(p.ndim)) - set(kept)))
    probs = p.probs.sum(axis=drop) if drop else p.probs
    return JointPmf([p.axes[i] for i in kept], probs)


def cell_entropy(arr: np.ndarray) -> float:
    """-sum a log2 a over the positive cells of ``arr`` (which need not sum to 1)."""
    flat = arr[arr > 0.0]
    return float(-(flat * np.log2(flat)).sum())


def cell_entropies(rows: np.ndarray) -> np.ndarray:
    """:func:`cell_entropy` of each row of ``rows`` ``(P, K)``, as a ``(P,)`` array.

    Nonpositive cells are masked to 0 rather than compacted away.  The
    zeros shift numpy's pairwise-summation blocks, so a row with zero
    cells can differ from :func:`cell_entropy` in the last bit; joint
    entropies therefore keep the compacting kernel.
    """
    pos = rows > 0.0
    return -np.where(pos, rows * np.log2(np.where(pos, rows, 1.0)), 0.0).sum(axis=1)


def _joint_entropy(p: JointPmf, vs: VarSet) -> float:
    """H of the variables in ``vs`` (0.0 for the empty set), cached per pmf."""
    p.check_varset(vs)
    cached = p._entropy_cache.get(vs.mask)
    if cached is not None:
        return cached
    if not vs:
        return 0.0
    drop = tuple(sorted(set(range(p.ndim)) - set(vs.indices())))
    value = cell_entropy(p.probs.sum(axis=drop) if drop else p.probs)
    p._entropy_cache[vs.mask] = value
    return value


def entropy(p: JointPmf, of: VarSet, given: VarSet = VarSet()) -> float:
    """Conditional entropy H(of | given) in bits.

    ``of`` must be nonempty and disjoint from ``given``.
    """
    p.check_varset(of)
    p.check_varset(given)
    if not of:
        raise StructuralError("entropy target set is empty")
    if not of.isdisjoint(given):
        raise StructuralError("entropy target overlaps the conditioning set")
    return _joint_entropy(p, of | given) - _joint_entropy(p, given)


def mi_sets(p: JointPmf, a: VarSet, b: VarSet, given: VarSet = VarSet()) -> float:
    """I(a; b | given) via the four-entropy combination, overlap tolerant.

    Unlike :func:`cmi` this accepts ``a`` and ``b`` that share axes, in
    which case it computes ``H(a|given) - H(a|b,given)`` literally; shared
    variables then behave as if observed on the ``b`` side.  Used where a
    variable plays two roles at once (a source that is its own coded
    description).  Negatives within ``CMI_CLAMP`` clamp to 0.
    """
    for vs in (a, b, given):
        p.check_varset(vs)
    if not a or not b:
        raise StructuralError("mutual information needs nonempty argument sets")
    if not a.isdisjoint(given) or not b.isdisjoint(given):
        raise StructuralError("conditioning set overlaps an argument set")
    value = (
        _joint_entropy(p, a | given)
        + _joint_entropy(p, b | given)
        - _joint_entropy(p, a | b | given)
        - _joint_entropy(p, given)
    )
    if value < 0.0:
        if value < -CMI_CLAMP:
            raise NumericIntegrityError(
                f"conditional mutual information evaluated to {value:.3e} bits, "
                f"below the -{CMI_CLAMP} clamp threshold"
            )
        value = 0.0
    return value


def cmi(p: JointPmf, a: VarSet, b: VarSet, given: VarSet = VarSet()) -> float:
    """Conditional mutual information I(a; b | given) in bits.

    ``a``, ``b``, ``given`` must be pairwise disjoint; ``a`` and ``b``
    nonempty.  Tiny negatives (within ``CMI_CLAMP``) clamp to 0; anything
    more negative raises :class:`NumericIntegrityError`.
    """
    if not a.isdisjoint(b):
        raise StructuralError("cmi argument sets must be disjoint")
    return mi_sets(p, a, b, given)

