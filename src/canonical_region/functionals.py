"""Per-channel objective functionals on the input simplex.

Fix a channel slot k and freeze the channels of every other slot.  Any
candidate channel for slot k can be written in reverse form: output
weights ``p'(z)`` and reverse conditionals ``t_z = q'(. | z)``, points of
the simplex over ``X_k`` mixing back to the source marginal ``p_k``.
The central fact exploited by the optimizer is that every term of the
weighted rate-distortion objective is such a mixture

    sum_z p'(z) * F(t_z)

of a fixed functional F evaluated at the reverse columns:

* phi_i covers the rate of description ``i >= k``.  Let U be the
  descriptions of the sources before i other than k, plus S.  For
  ``i > k``, ``phi_i(t) = H_t(X_i | U) - H_t(X_i | U, Z_i)``, both read
  off the law that t mixes from the conditionals given ``X_k``.  For
  ``i = k`` the first term is the constant ``H(X_k | U)`` of the source
  law: mixing ``H_t(X_k | U)`` over the reverse columns would give
  ``H(X_k | U, Z_k)`` instead.  The second term, ``H_t(X_k | U)`` with
  ``Z_k`` inert, keeps the axis of ``X_k``, which t weighs elementwise.
* psi_l covers distortion measure l: the Bayes-optimal expected
  distortion of reconstructing V from the mixed law of V and the full
  observation tuple, concave in ``t`` as a sum of pointwise minima of
  linear maps.
* ``theta(ctx, pool)`` combines them along the context's direction of
  nonnegative weights over the free rates and the distortions.  Rate
  terms of descriptions ``i < k`` do not depend on slot k's channel at
  all and enter as corner coordinates of the context's joint, so the
  mixture of theta over a reverse pair reproduces the full weighted
  objective exactly.

:func:`verify_linear_decomposition` checks that reproduction numerically
for every slot.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .augment import (
    AugmentedPmf,
    Channel,
    ProblemSpec,
    attach_channels,
    channel_product,
    constant_channel,
    forward_to_reverse,
)
from .errors import StructuralError
from .pmf import entropy, plogp
from .region import _cmi_xz

SIMPLEX_TOL = 1e-9
DECOMPOSITION_TOL = 1e-9
SIMPLEX_NEGATIVE_TOL = 1e-12    # round-off leaves simplex entries a few ulp below 0
UNIT_NORM_TOL = 1e-12           # dividing by the norm leaves it a few ulp off 1
MIN_DIRECTION_NORM = 1e-3       # redraw near-zero draws: normalizing them magnifies round-off
THETA_BLOCK_CELLS = 1 << 15     # theta products held per block; BENCH_fused_descent.json


def check_simplex_point(pool, size: int) -> np.ndarray:
    """``pool`` as a ``(P, size)`` array of simplex points, or a ``(B, P, size)`` stack.

    Every row must be finite, nonnegative up to ``SIMPLEX_NEGATIVE_TOL``
    and of mass 1 within ``SIMPLEX_TOL``; round-off negatives are clipped.
    """
    pool = np.asarray(pool, dtype=float)
    if pool.ndim not in (2, 3) or pool.shape[-1] != size or pool.size == 0:
        raise StructuralError(f"simplex pool has shape {pool.shape}, expected ([B,] P, {size})")
    if not np.all(np.isfinite(pool)) or pool.min() < -SIMPLEX_NEGATIVE_TOL:
        raise StructuralError("simplex point entries must be finite and >= 0")
    worst = np.abs(pool.sum(axis=-1) - 1.0).max()
    if worst > SIMPLEX_TOL:
        raise StructuralError(f"simplex point mass is off 1 by {worst!r}")
    return np.maximum(pool, 0.0)


@dataclass(frozen=True, eq=False)
class Direction:
    """Nonnegative weights over the free rates and distortions, unit 2-norm.

    ``rate_weights[idx]`` weighs the rate of description ``j + 1 + idx``;
    descriptions ``1..j`` are lossless and carry no weight.  A stack has a
    leading axis of B on both, one direction per row.
    """

    m: int
    j: int
    l: int
    rate_weights: np.ndarray = field(repr=False)
    distortion_weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rates = np.array(self.rate_weights, dtype=float)
        dists = np.array(self.distortion_weights, dtype=float)
        if (rates.ndim not in (1, 2) or rates.shape[:-1] != dists.shape[:-1]
                or rates.shape[-1:] != (self.m - self.j,) or dists.shape[-1:] != (self.l,)):
            raise StructuralError(
                f"direction needs {self.m - self.j} rate and {self.l} distortion "
                f"weights per row, got shapes {rates.shape}, {dists.shape}"
            )
        coords = np.concatenate([rates, dists], axis=-1)
        if not np.all(np.isfinite(coords)) or coords.min(initial=0.0) < 0.0:
            raise StructuralError("direction weights must be finite and >= 0")
        off = float(np.abs(np.linalg.norm(coords, axis=-1) - 1.0).max(initial=0.0))
        if off > UNIT_NORM_TOL:
            raise StructuralError(f"direction must have unit 2-norm; a row is off by {off!r}")
        rates.setflags(write=False)
        dists.setflags(write=False)
        object.__setattr__(self, "rate_weights", rates)
        object.__setattr__(self, "distortion_weights", dists)

    @classmethod
    def normalized(cls, m: int, j: int, l: int, raw) -> "Direction":
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (m - j + l,):
            raise StructuralError(
                f"direction needs {m - j + l} coordinates, got shape {raw.shape}"
            )
        norm = float(np.linalg.norm(raw))
        if norm <= 0.0:
            raise StructuralError("direction must have a positive coordinate")
        with np.errstate(invalid="ignore"):   # inf / inf gives nan; __post_init__ rejects it
            unit = raw / norm
        return cls(m, j, l, unit[: m - j], unit[m - j:])

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([self.rate_weights, self.distortion_weights], axis=-1)

    def rate_weight(self, i: int) -> np.ndarray:      # one per row of a stack
        if not self.j + 1 <= i <= self.m:
            raise StructuralError(f"description {i} has no free rate weight")
        return self.rate_weights[..., i - self.j - 1]

    def distortion_weight(self, l: int) -> np.ndarray:
        if not 1 <= l <= self.l:
            raise StructuralError(f"distortion index {l} outside 1..{self.l}")
        return self.distortion_weights[..., l - 1]


def random_direction(m: int, j: int, l: int, rng: np.random.Generator) -> Direction:
    if m - j + l < 1:
        raise StructuralError(f"no direction coordinates: J = M = {m} and L = 0")
    while True:
        raw = np.abs(rng.normal(size=m - j + l))
        if np.linalg.norm(raw) > MIN_DIRECTION_NORM:
            return Direction.normalized(m, j, l, raw)


# ---- distortion side ---------------------------------------------------------


def _bayes_scores(aug: AugmentedPmf, l: int) -> np.ndarray:
    """Expected distortion of measure l jointly with each observable tuple and
    reconstruction symbol, ``([B,] *obs, vhat)`` with obs in layout order.

    The Bayes-optimal expected distortion is ``scores.min(axis=-1).sum()``.
    """
    spec = aug.spec
    if not 1 <= l <= spec.l:
        raise StructuralError(f"distortion index {l} outside 1..{spec.l}")
    obs = aug.z_axes((1 << aug.m) - 1) | aug.s_axis
    law = aug.joint.marginal(obs | aug.v_axis)         # (*obs and V in layout order)
    at = (obs & (aug.v_axis - 1)).bit_count()          # V's place in the law
    return np.tensordot(law, spec.distortions[l - 1], axes=([aug.joint.stack + at], [0]))


def distortion_component(aug: AugmentedPmf, l: int) -> tuple[float, np.ndarray]:
    """Bayes-optimal expected distortion for measure l, with its estimator table.

    For each observable tuple the decoder picks the reconstruction symbol
    minimizing conditional expected distortion; the returned value sums
    those minima against the joint law.  The read-only table holds the
    chosen symbol of ``Vhat_l`` for each tuple of the observation axes in
    layout order: ``X_1..X_J, S, Z_{J+1}..Z_M``.  Ties break toward the
    lowest symbol index and zero-probability tuples map to symbol 0, so
    the table is a deterministic function of the augmented joint.
    """
    scores = _bayes_scores(aug, l)
    table = np.argmin(scores, axis=-1)
    table.setflags(write=False)
    return float(scores.min(axis=-1).sum()), table


# ---- rate side ---------------------------------------------------------------


class FunctionalContext:
    """Everything needed to evaluate the slot-k functionals, compiled once.

    Holds ``aug``: the source law with every other slot's frozen channel
    attached and a one-symbol channel at slot k.  That channel leaves
    ``Z_k`` inert, so ``aug`` keeps the standard layout
    ``X1..XM, S, V, Z_{J+1}..Z_M`` and its bitmask helpers select every
    axis set.

    A pool row t's law of an axis bitmask A is linear in t:
    p_t(A) = sum_x t(x) p(A, x) / p_k(x).  The constructor reads each
    law theta needs from the joint's memoized marginal over A and X_k,
    divided by p_k along X_k (0 where p_k = 0), into the columns of one
    ``(|X_k|, C)`` map; a law that keeps X_k gets block-diagonal columns.
    Beside the map it keeps each entropy law's first column, each
    weighted distortion's Bayes-score columns after the laws (one block
    of observation cells per reconstruction symbol), the t-free constant
    (the corner rates of slots before k plus ``w_k H(X_k | U)`` of the
    source law) and a ``(terms, B)`` weight table: per law, each bank's
    signed sum of its rate weights over slots k..M, negated for the law's
    sum of p log p, in the order slots k..M name the laws whatever the
    weights; then per weighted distortion, its weight.  Frozen channels
    or a direction that are stacks of B give B contexts in one, over a
    :class:`~canonical_region.pmf.JointStack` joint when the channels are
    stacks; the map holds each law and distortion that some bank weighs.
    The map, constant and table have a bank axis, of 1 for one context.
    """

    __slots__ = ("aug", "p_k", "_banks",
                 "_map", "_entropy_cells", "_starts", "_risks", "_weights", "_constant")

    def __init__(
        self,
        spec: ProblemSpec,
        k: int,
        frozen: Mapping[int, Channel],
        direction: Direction,
    ) -> None:
        if k not in spec.channel_slots:
            raise StructuralError(f"slot {k} is not in {spec.channel_slots}")
        expected = set(spec.channel_slots) - {k}
        if set(frozen) != expected:
            raise StructuralError(
                f"frozen channels must cover slots {sorted(expected)}, got {sorted(frozen)}"
            )
        if (direction.m, direction.j, direction.l) != (spec.m, spec.j, spec.l):
            raise StructuralError("direction dimensions do not match the spec")

        bank = {**frozen, k: constant_channel(spec.x_alphabet(k))}
        self.aug = aug = AugmentedPmf(channel_product(spec, bank), spec)
        banks = aug.joint.probs.shape[:aug.joint.stack] or direction.rate_weights.shape[:-1]
        if direction.rate_weights.shape[:-1] not in ((), banks):
            raise StructuralError("the direction and channel stacks differ in size")
        self.p_k = p_k = spec.x_marginal(k)
        x_k = aug.x_axes(1 << (k - 1))
        others = ~x_k

        def observed(sources: int) -> int:             # their descriptions but Z_k, and S
            return aug.z_axes(sources & others) | aug.s_axis

        n, lead = p_k.size, aug.joint.stack

        def by_symbol(axes: int) -> np.ndarray:
            """``([B,] |X_k|, *axes in layout order)``: p(axes, x) at each x of X_k."""
            keep = axes | x_k
            at = (keep & (x_k - 1)).bit_count()            # X_k's place in the marginal
            marg = aug.joint.marginal(keep)                # np.moveaxis, without its overhead
            return marg.transpose(*range(lead), lead + at, *range(lead, lead + at),
                                  *range(lead + at + 1, marg.ndim))

        # t-free terms: the natural-order corner rates before k, and H(X_k | U) with Z_k inert
        live = [i for i in range(spec.j + 1, k + 1) if direction.rate_weight(i).any()]
        before = np.array([1 << (i - 1) for i in live if i < k], dtype=np.int64)
        terms = [*_cmi_xz(aug, before, before - 1)]
        if k in live:
            terms.append(entropy(aug.joint, x_k, observed((1 << (k - 1)) - 1)))
        constant = 0.0
        for i, term in zip(live, terms):
            constant += direction.rate_weight(i) * term

        self._banks, count = banks, int(np.prod(banks))
        rates = np.broadcast_to(direction.rate_weights, (count, spec.m - spec.j))
        # phi_i = H(X_i | U) - H(X_i | U, Z_i), each H a difference of two law entropies
        laws: dict[int, np.ndarray] = {}               # axis bitmask -> each bank's entropy weight
        for i in range(k, spec.m + 1):
            x_i, weight = aug.x_axes(1 << (i - 1)), rates[:, i - spec.j - 1]
            u, u_z = observed((1 << (i - 1)) - 1), observed((1 << i) - 1)
            signed = [(x_i | u, weight), (u, -weight)] if i > k else []   # H(X_k | U) is t-free
            for axes, w in signed + [(x_i | u_z, -weight), (u_z, weight)]:
                laws[axes] = laws.get(axes, 0.0) + w
        columns = [axes for axes, w in laws.items() if w.any()]   # laws some bank weighs
        weights = [-laws[axes] for axes in columns]    # theta adds weight * sum of p log p

        blocks, starts = [], []
        cells = 0
        def flat(block: np.ndarray) -> np.ndarray:      # ([B,] |X_k|, cells)
            return block.reshape(*block.shape[:lead + 1], -1)

        for axes in columns:
            block = flat(by_symbol(axes))
            if axes & x_k:                             # the row weighs X_k elementwise
                block = flat(np.eye(n)[:, :, None] * block[..., None, :])
            starts.append(cells)
            cells += block.shape[-1]
            blocks.append(block)
        self._entropy_cells = cells
        risks = []
        if direction.distortion_weights.any():
            obs = observed((1 << aug.m) - 1)
            by_x = by_symbol(obs | aug.v_axis)
            v_at = lead + 1 + (obs & (aug.v_axis - 1)).bit_count()  # V's place after X_k
            by_v = by_x.transpose(*range(v_at), *range(v_at + 1, by_x.ndim), v_at)
            for l, d in enumerate(spec.distortions, start=1):
                if direction.distortion_weight(l).any():
                    # ([B,] |X_k|, vhat x obs cells): the Bayes minimum runs across blocks
                    block = flat(np.moveaxis(by_v @ d, -1, lead + 1))
                    risks.append((cells, cells + block.shape[-1], d.shape[1]))
                    weights.append(np.zeros(count) + direction.distortion_weight(l))
                    cells += block.shape[-1]
                    blocks.append(block)
        per_unit = np.divide(1.0, p_k, out=np.zeros_like(p_k), where=p_k > 0.0)[:, None]
        mapped = np.concatenate(blocks, axis=-1) * per_unit if blocks else np.zeros((n, 0))
        self._map = np.broadcast_to(mapped, (count, *mapped.shape[-2:]))
        self._starts = np.array(starts, dtype=np.intp)
        self._risks = tuple(risks)
        self._weights = np.reshape(weights, (-1, count))  # (laws + risks, B)
        self._constant = np.zeros(count) + constant


def theta(ctx: FunctionalContext, pool) -> np.ndarray:
    """Direction-weighted objective contribution of each row of a simplex pool.

    ``pool`` is ``(P, |X_k|)`` and the result ``(P,)``; a stack of pools
    ``(B, P, |X_k|)`` or of contexts gives ``(B, P)``.  Along the unit
    direction e_i (``i >= k``) it is phi_i, and along e_l it is psi_l.
    Every law is one product with the context's compiled map; the
    entropies are its :func:`plogp` cells summed per law, the Bayes risks
    its per-observation minima, in blocks of at most ``THETA_BLOCK_CELLS``
    products.  Then each term adds each bank's weight times its value, laws
    first: a bank that weighs a term 0 keeps the bits it has alone.
    """
    pool = check_simplex_point(pool, ctx.p_k.size)
    lead = pool.shape[:-2] or ctx._banks               # one pool, one context: a stack of one
    pool = pool.reshape(-1, *pool.shape[-2:])
    if len(pool) > len(ctx._constant):                # one context scores every pool as one
        return theta(ctx, pool.reshape(1, -1, pool.shape[-1])).reshape(*lead, -1)
    pool = np.broadcast_to(pool, (len(ctx._constant), *pool.shape[1:]))   # or one pool every bank
    step = max(1, THETA_BLOCK_CELLS // (pool.shape[1] * max(1, ctx._map.shape[-1])))
    laws = len(ctx._starts)
    terms = np.empty((len(ctx._weights), *pool.shape[:2]))   # (laws + risks, B, P)
    for start in range(0, len(pool), step):
        at = slice(start, start + step)
        mixed = pool[at] @ ctx._map[at]                # (b, P, C): every law of every row
        if laws:
            sums = np.add.reduceat(plogp(mixed[..., :ctx._entropy_cells]), ctx._starts, axis=-1)
            terms[:laws, at] = sums.transpose(2, 0, 1)
        for term, (first, stop, vhat) in zip(terms[laws:], ctx._risks):
            scores = mixed[..., first:stop].reshape(*mixed.shape[:-1], vhat, -1)
            # the Bayes minima, one np.minimum per reconstruction: faster than a min over that axis
            term[at] = reduce(np.minimum, scores.transpose(2, 0, 1, 3)).sum(axis=-1)
    value = np.zeros(pool.shape[:2]) + ctx._constant[:, None]
    for weight, term in zip(ctx._weights, terms):     # each bank's own weights, zero or not
        value += weight[:, None] * term
    return value.reshape(*lead, -1)


# ---- the mixture identity ----------------------------------------------------


def direct_weighted_value(spec: ProblemSpec, channels: Sequence[Channel],
                          direction: Direction) -> float:
    """The weighted objective evaluated directly on the augmented joint; a
    ``(B,)`` array, one value per bank, when channels or direction are stacks."""
    aug = attach_channels(spec, channels)
    lead = aug.joint.probs.shape[:aug.joint.stack]
    sources = np.array([1 << (i - 1) for i in spec.channel_slots], dtype=np.int64)
    total = 0.0
    for i, rate in zip(spec.channel_slots, _cmi_xz(aug, sources, sources - 1)):
        total += direction.rate_weight(i) * rate
    for l in range(1, spec.l + 1):
        weight = direction.distortion_weight(l)
        if weight.any():
            total += weight * _bayes_scores(aug, l).min(axis=-1).reshape(*lead, -1).sum(axis=-1)
    return total if np.ndim(total) else float(total)


@dataclass(frozen=True)
class DecompositionEntry:
    error: float
    passed: bool


@dataclass(frozen=True)
class DecompositionReport:
    entries: tuple[DecompositionEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def worst_error(self) -> float:
        return max((e.error for e in self.entries), default=0.0)


def verify_linear_decomposition(
    spec: ProblemSpec,
    channels: Sequence[Channel],
    direction: Direction,
    tol: float = DECOMPOSITION_TOL,
) -> DecompositionReport:
    """Check the mixture identity for every slot.

    For each slot k, the weights/columns mixture of theta over slot k's
    reverse pair must equal the direct weighted objective of the full
    channel bank.  Disagreement beyond ``tol`` indicates a broken
    functional, not noise: both sides are finite sums of the same joint.
    """
    slots = spec.channel_slots
    if len(channels) != len(slots):
        raise StructuralError(f"expected {len(slots)} channels, got {len(channels)}")
    direct = direct_weighted_value(spec, channels, direction)
    entries = []
    for pos, k in enumerate(slots):
        frozen = {kk: ch for kk, ch in zip(slots, channels) if kk != k}
        ctx = FunctionalContext(spec, k, frozen, direction)
        pair = forward_to_reverse(spec, k, channels[pos])
        value = float(pair.weights @ theta(ctx, pair.columns))
        err = abs(value - direct)
        entries.append(DecompositionEntry(err, err <= tol))
    return DecompositionReport(tuple(entries))
