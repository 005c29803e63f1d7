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
  ``i > k``, ``phi_i(t) = H_t(U, Z_i) - H_t(U) - H_t(Z_i | X_i, U)``: two
  entropies of laws that t mixes from the conditionals given ``X_k``, and
  a row term linear in t, since Z_i reads X_i alone.  For ``i = k`` it is
  ``H(X_k | U) - H_t(X_k | U)``: the constant of the source law (mixing
  ``H_t(X_k | U)`` over the reverse columns gives ``H(X_k | U, Z_k)``),
  and a law that keeps the axis of ``X_k``, which t weighs elementwise.
* psi_l covers distortion measure l: the Bayes-optimal expected
  distortion of reconstructing V from the mixed law of V and the full
  observation tuple, concave in ``t`` as a sum of pointwise minima of
  linear maps.
* ``theta(ctx, pool)`` combines them along the context's direction of
  nonnegative weights over the free rates and the distortions.  Rate
  terms of descriptions ``i < k`` do not depend on slot k's channel at
  all and enter as constants, so the mixture of theta over a reverse pair
  reproduces the full weighted objective exactly.

:func:`direct_weighted_value` reads that objective in slot order, and
:func:`verify_linear_decomposition` checks the reproduction for every
slot against the region path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .augment import (
    AugmentedPmf,
    Channel,
    ProblemSpec,
    attach_channels,
    forward_to_reverse,
)
from .errors import NumericIntegrityError, StructuralError
from .pmf import CMI_CLAMP, plogp
from .region import corner_point, identity_permutation

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
    spec = aug.spec
    if not 1 <= l <= spec.l:
        raise StructuralError(f"distortion index {l} outside 1..{spec.l}")
    obs = aug.z_axes((1 << aug.m) - 1) | aug.s_axis
    law = aug.joint.marginal(obs | aug.v_axis)         # (*obs and V in layout order)
    at = (obs & (aug.v_axis - 1)).bit_count()          # V's place in the law
    scores = np.tensordot(law, spec.distortions[l - 1], axes=([at], [0]))   # (*obs, vhat)
    table = np.argmin(scores, axis=-1)
    table.setflags(write=False)
    return float(scores.min(axis=-1).sum()), table


# ---- slot order --------------------------------------------------------------


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """H(q(.|x)) of each row of a channel's ``([B,] |X|, |Z|)`` rows: ``([B,] |X|)``."""
    return -plogp(rows).sum(axis=-1)


def _slot_order(spec: ProblemSpec, bank: Mapping[int, Channel], keep: int = 0):
    """The source contracted with one channel at a time, in slot order.

    Over (banks, V, X_{J+1}..X_M, X_1..X_J S), a bank axis of 1 until a
    stacked channel joins, slot i turns X_i into a last axis Z_i, leaving
    p(V, X_>i, C_i, Z_i) with C_i = (X_1..X_J, S, Z_{J+1}..Z_{i-1}); slot
    ``keep`` moves X_k to Z_k's place instead.  Returns the rates of the
    slots before ``keep`` (of all when it is 0), each H(C_i, Z_i) - H(C_i)
    - sum_x p_i(x) H(q_i(.|x)) under ``pmf.mi_sets``' sign rule (within
    ``CMI_CLAMP`` below zero, -0.0 too, gives +0.0; lower raises naming
    the slot); the laws p(C) of the source and p(C_i, Z_i) after each slot
    i, ``(banks, cells)``; and p(V, C_{M+1}), ``(banks, |V|, cells)``.
    """
    slots, v, m, j = spec.channel_slots, spec.v_alphabet.size, spec.m, spec.j
    xs = [spec.x_alphabet(i).size for i in slots]
    a = spec.source.probs.transpose(m + 1, *range(j, m), *range(j), m)[None]
    law = a.reshape(1, v * math.prod(xs), -1).sum(axis=1)      # p(C) of the source
    h_c = -plogp(law).sum(axis=-1)
    rates, laws = [], [law]
    for pos, (i, x) in enumerate(zip(slots, xs)):
        a = np.swapaxes(a.reshape(len(a), v, x, -1), 2, 3)      # X_i last
        if i != keep:
            if (ch := bank[i]).input != spec.x_alphabet(i):
                raise StructuralError(f"channel for slot {i} has input {ch.input}, "
                                      f"expected {spec.x_alphabet(i)}")
            a = a @ (ch.rows if ch.rows.ndim == 2 else ch.rows[:, None])   # X_i into Z_i
        laws.append(a.reshape(len(a), v * math.prod(xs[pos + 1:]), -1).sum(axis=1))
        if keep and i >= keep:
            continue
        h_cz = -plogp(laws[-1]).sum(axis=-1)
        rate = h_cz - h_c - (_row_entropies(ch.rows) * spec.x_marginal(i)).sum(axis=-1)
        if rate.min() < -CMI_CLAMP:
            raise NumericIntegrityError(f"slot {i}'s rate evaluated to {rate.min():.3e} bits, "
                                        f"below -{CMI_CLAMP}")
        rates.append(np.where(rate <= 0.0, 0.0, rate))
        h_c = h_cz
    return rates, laws, a.reshape(len(a), v, -1)


# ---- rate side ---------------------------------------------------------------


class FunctionalContext:
    """Everything needed to evaluate the slot-k functionals, compiled once.

    A pool row t's law of variables A is p_t(A) = sum_x t(x) p(A, x) /
    p_k(x).  The constructor contracts the source with the frozen channels
    in slot order, keeping X_k (:func:`_slot_order`), and reads into one
    ``(|X_k|, C)`` map, divided by p_k (0 where p_k = 0): the laws of
    (X_k, U_k), block-diagonal as t weighs X_k elementwise, of U_k and of
    each (U_i, Z_i) = U_{i+1}, i > k; a linear column E[H(q_i(.|X_i)) |
    X_k = x] per i > k; each weighted distortion's Bayes scores, one block
    of observation cells per reconstruction symbol.  It keeps each law's
    first column, the t-free constant (the corner rates of slots before k
    and ``w_k H(X_k | U_k)`` of the source law) and a ``(terms, B)``
    weight table: per law, each bank's signed sum of its rate weights over
    slots k..M, negated for the law's sum of p log p, in slot order
    whatever the weights; per linear column, minus its slot's weight; per
    distortion, its weight.  Frozen channels or a direction that are
    stacks of B give B contexts in one, with each term some bank weighs;
    the map, constant and table have a bank axis, of 1 for one context.
    """

    __slots__ = ("p_k", "_banks", "_map", "_entropy_cells", "_starts", "_linear", "_risks",
                 "_weights", "_constant")

    def __init__(self, spec: ProblemSpec, k: int, frozen: Mapping[int, Channel],
                 direction: Direction) -> None:
        if k not in spec.channel_slots:
            raise StructuralError(f"slot {k} is not in {spec.channel_slots}")
        expected = set(spec.channel_slots) - {k}
        if set(frozen) != expected:
            raise StructuralError(f"frozen channels must cover slots {sorted(expected)}, "
                                  f"got {sorted(frozen)}")
        if (direction.m, direction.j, direction.l) != (spec.m, spec.j, spec.l):
            raise StructuralError("direction dimensions do not match the spec")
        before, laws, final = _slot_order(spec, frozen, keep=k)   # rates of slots before k
        laws = laws[k - spec.j - 1:]                  # p(C_k), p(C_k, X_k), then later slots'
        banks = (final.shape[:1] if any(ch.rows.ndim == 3 for ch in frozen.values())
                 else direction.rate_weights.shape[:-1])
        if direction.rate_weights.shape[:-1] not in ((), banks):
            raise StructuralError("the direction and channel stacks differ in size")
        self.p_k = p_k = spec.x_marginal(k)
        n, pre, lead = p_k.size, laws[0].shape[-1], len(final)   # C_k's cells precede X_k

        def by_x(law: np.ndarray) -> np.ndarray:      # (banks, |X_k|, cells): p(cells, x) at x
            return law.reshape(len(law), pre, n, -1).swapaxes(1, 2).reshape(len(law), n, -1)

        # t-free: the natural-order corner rates before k, and H(X_k | U_k) of the source law
        h_u, h_own = (-plogp(law).sum(axis=-1) for law in laws[:2])
        constant = 0.0
        for i, term in zip(range(spec.j + 1, k + 1), [*before, h_own - h_u]):
            if direction.rate_weight(i).any():
                constant += direction.rate_weight(i) * term

        self._banks, count = banks, int(np.prod(banks))
        rates = np.broadcast_to(direction.rate_weights, (count, spec.m - spec.j))
        w = list(rates.T[k - spec.j - 1:])             # slots k..M
        # phi_k = H(X_k | U_k) - H_t(X_k | U_k), phi_i = H_t(U_i, Z_i) - H_t(U_i) - the row term;
        # theta adds weight * sum of p log p, so each law weighs minus its entropy weight
        own, *later = map(by_x, laws[1:])
        terms = [(block, weight) for block, weight in zip(
            [(np.eye(n)[:, :, None] * own[:, :, None, :]).reshape(len(own), n, -1), own, *later],
            [w[0]] + [after - now for now, after in zip(w, w[1:] + [0.0])]) if weight.any()]
        entropies = len(terms)
        for i, weight in zip(range(k + 1, spec.m + 1), w[1:]):
            if weight.any():          # sum_x' p(x, x') H(q_i(.|x')) at each x: X_i's row term
                pair = spec.source.marginal((1 << (k - 1)) | (1 << (i - 1)))   # p(X_k, X_i)
                rows = _row_entropies(frozen[i].rows)[..., None, :]
                terms.append(((rows * pair).sum(axis=-1).reshape(-1, n, 1), -weight))
        v = spec.v_alphabet.size
        obs = final.reshape(lead, v, pre, n, -1).transpose(0, 3, 1, 2, 4).reshape(lead, n, v, -1)
        risks = [(d, weight) for d, weight in zip(spec.distortions, np.broadcast_to(
            direction.distortion_weights, (count, spec.l)).T) if weight.any()]
        # (banks, |X_k|, vhat x obs cells): the Bayes minimum runs across blocks
        terms += [((d.T @ obs).reshape(lead, n, -1), weight) for d, weight in risks]
        bounds = np.cumsum([0, *(block.shape[-1] for block, _ in terms)])
        first = len(terms) - len(risks)
        self._starts, self._entropy_cells = bounds[:entropies], bounds[entropies]
        self._linear = first - entropies
        self._risks = tuple(zip(bounds[first:-1], bounds[first + 1:],
                                (d.shape[1] for d, _ in risks)))
        per_unit = np.divide(1.0, p_k, out=np.zeros_like(p_k), where=p_k > 0.0)[:, None]
        mapped = np.concatenate([block if len(block) == lead else np.broadcast_to(
            block, (lead, *block.shape[1:])) for block, _ in terms], axis=-1) * per_unit \
            if terms else 0.0
        self._map = np.broadcast_to(mapped, (count, n, bounds[-1]))
        self._weights = np.reshape([weight for _, weight in terms], (-1, count))
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
    laws, cells, linear = len(ctx._starts), ctx._entropy_cells, len(ctx._starts) + ctx._linear
    terms = np.empty((len(ctx._weights), *pool.shape[:2]))   # (laws + linear + risks, B, P)
    for start in range(0, len(pool), step):
        at = slice(start, start + step)
        mixed = pool[at] @ ctx._map[at]                # (b, P, C): every law of every row
        if laws:
            sums = np.add.reduceat(plogp(mixed[..., :cells]), ctx._starts, axis=-1)
            terms[:laws, at] = sums.transpose(2, 0, 1)
        terms[laws:linear, at] = mixed[..., cells:cells + ctx._linear].transpose(2, 0, 1)
        for term, (first, stop, vhat) in zip(terms[linear:], ctx._risks):
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
    """The weighted objective, a ``(B,)`` array when channels or direction are stacks.

    Read in slot order, with no augmented joint (:func:`_slot_order`): slot
    i's natural-order corner rate is H(C_i, Z_i) - H(C_i) minus the row term
    sum_x p_i(x) H(q_i(.|x)), and each distortion the Bayes risk of p(V, C_{M+1}).
    """
    slots = spec.channel_slots
    if len(channels) != len(slots):
        raise StructuralError(f"expected {len(slots)} channels for slots {slots}, "
                              f"got {len(channels)}")
    rates, _, final = _slot_order(spec, dict(zip(slots, channels)))
    risks = [(d.T @ final).min(axis=-2).sum(axis=-1) for d in spec.distortions]
    lead = final.shape[:1] if any(ch.rows.ndim == 3 for ch in channels) else ()
    total = 0.0
    for weight, term in zip(direction.coords.T, rates + risks):   # rates in slot order, then risks
        total += weight * term.reshape(lead)
    return total if np.ndim(total) else float(total)


def _region_point(spec: ProblemSpec, channels: Sequence[Channel], perm: Sequence[int]):
    """A bank's corner for order ``perm`` and its Bayes distortions, read on the
    augmented joint: the region path, which shares no reader with the slot order."""
    aug = attach_channels(spec, channels)
    return corner_point(aug, perm), np.array([distortion_component(aug, l)[0]
                                              for l in range(1, spec.l + 1)])


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
    reverse pair must equal the weighted objective of the full bank read
    on the region path.  Disagreement beyond ``tol`` indicates a broken
    functional, not noise: both sides are finite sums of the same law.
    """
    slots = spec.channel_slots
    rates, dists = _region_point(spec, channels, identity_permutation(spec.m))   # checks the count
    direct = float(direction.rate_weights @ rates[spec.j:] + direction.distortion_weights @ dists)
    entries = []
    for pos, k in enumerate(slots):
        frozen = {kk: ch for kk, ch in zip(slots, channels) if kk != k}
        ctx = FunctionalContext(spec, k, frozen, direction)
        pair = forward_to_reverse(spec, k, channels[pos])
        err = abs(float(pair.weights @ theta(ctx, pair.columns)) - direct)
        entries.append(DecompositionEntry(err, err <= tol))
    return DecompositionReport(tuple(entries))
