"""Channel-bank optimization of the weighted rate-distortion objective.

The search coordinate is one slot's channel in reverse (mixture) form.
Because every objective term is a mixture ``sum_z p'(z) F(t_z)`` of
fixed simplex functionals (see :mod:`canonical_region.functionals`),
optimizing one slot with the others frozen is a *linear* program once
the candidate columns are fixed: choose weights over a finite pool of
simplex points minimizing the weighted functional value subject to the
mixture matching the source marginal ``p_k``.  A basic optimal solution
of that program has at most ``|X_k|`` positive weights, which realizes
the alphabet bound ``|Z_k| <= |X_k|`` constructively: enlarging output
alphabets cannot help.  The LP starts from the incumbent's columns
(:func:`optimize_single_channel`), so a step cannot end above it.

Coordinate descent cycles the slots.  Each slot's incumbent is its own
last basic pair, so the step objective never increases; the sweep trace
is therefore monotone within float noise, which is enforced.  Every
restart of every direction descends in one stack, each bank with its own
direction row.  Every slot's channel has ``|X_k|`` outputs after its first
step, a zero column for each zero-weight symbol of its pair, so a slot
step is one call of each layer for the whole stack.

A direct lattice search (:func:`brute_force_search`) grids every
channel's rows over the probability simplex and evaluates the objective
from its definition, independent of the functional machinery: Bayes
risks of marginals, and slot k's rate as H(C, Z_k) - H(C) - H(Z_k | X_k),
the last a sum of lattice-row entropies.  Slot k's rate reads only slots
up to k, so the search contracts the source with one channel at a time
in slot order and never forms the whole joint.  It is budget-guarded and
serves as the reference the descent is validated against.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .augment import (
    Channel,
    ProblemSpec,
    ReverseChannelPair,
    attach_channels,
    constant_channel,
    forward_to_reverse,
    identity_channel,
    random_channels,
    reverse_to_forward,
)
from .errors import BudgetError, NumericIntegrityError, StructuralError
from .functionals import (
    Direction,
    FunctionalContext,
    _bayes_scores,
    direct_weighted_value,
    theta,
)
from .pmf import CMI_CLAMP, check_int, plogp
from .region import check_permutation, corner_point, identity_permutation
from .simplex import solve_equality_lp

MAX_BRUTE_EVALS = 15_000_000
SWEEP_IMPROVEMENT_TOL = 1e-9
MONOTONE_TOL = 1e-10
SUPPORT_WEIGHT_TOL = 1e-12
CHUNK = 2048                # banks per lattice chunk; BENCH_slot_step.json has the size sweep
ORBIT_CELLS = 1 << 16       # prefix x lattice row x column pair booleans per orbit-table block
ALPHABET_BOUND_TOL = 1e-2   # how far capped descent may end above the capped or enlarged lattice

@dataclass(frozen=True, eq=False)
class OptimizeResult:
    channels: tuple[Channel, ...]
    trace: tuple[float, ...]

    @property
    def objective(self) -> float:
        """The objective of ``channels``: the last sweep's entry of the trace."""
        return self.trace[-1]

    @property
    def sweeps_run(self) -> int:
        return len(self.trace) - 1


class DescentStack(tuple):
    """One :class:`OptimizeResult` per bank of a stack; ``sweeps_run`` sums theirs."""

    sweeps_run = property(lambda self: sum(run.sweeps_run for run in self))


# ---- single-slot linear program ------------------------------------------------


@lru_cache(maxsize=None)
def _pool_head(n: int) -> np.ndarray:
    """The fixed head of every pool over ``n`` symbols: vertices, pairwise
    midpoints and, for ``n >= 3``, the barycenter (below that it is a vertex
    or the midpoint)."""
    eye = np.eye(n)
    rows = [eye, *((eye[a] + eye[b]) / 2 for a, b in itertools.combinations(range(n), 2))]
    if n >= 3:
        rows.append(np.full(n, 1.0 / n))
    head = np.vstack(rows)
    head.setflags(write=False)
    return head


def _candidate_pool(ctx: FunctionalContext, candidates: int, seeds: Sequence,
                    incumbent_columns) -> np.ndarray:
    """Deterministic stratified pools of simplex points over X_k, one per seed.

    Pool b, of the ``(B, P, |X_k|)`` stack, is the head (vertices,
    midpoints, barycenter), Dirichlet(1) draws seeded by ``seeds[b]``,
    then ``incumbent_columns[b]`` as given, so each pool starts with
    ``np.eye(|X_k|)``, the slot LP's identity basis, and ends with its
    incumbent.  Points may repeat: a copy of a basic column keeps the same
    tableau bits, so its reduced cost is exactly 0 and it never enters.
    The draws are ``Generator(PCG64(seed)).dirichlet(np.ones(n), size)`` bit
    for bit: for alpha = 1 numpy's ``dirichlet`` (numpy/random/_generator.pyx)
    draws gamma(1) = unit exponential variates row by row, sums each row left
    to right and multiplies it by ``1 / sum``.
    """
    if candidates < 0:
        raise StructuralError(f"candidates must be >= 0, got {candidates}")
    n = ctx.p_k.size
    cols = np.array(incumbent_columns, dtype=float)
    if cols.ndim != 3 or cols.shape[0] != len(seeds) or cols.shape[2] != n:
        raise StructuralError(f"incumbent columns have shape {cols.shape}, "
                              f"expected ({len(seeds)}, *, {n})")
    head = _pool_head(n)
    parts = [np.broadcast_to(head, (len(seeds), *head.shape))]
    if candidates > 0 and n > 1:
        # Generator(PCG64(seed)) is np.random.default_rng(seed), without its type dispatch
        draws = np.array([np.random.Generator(np.random.PCG64(seed)).standard_exponential(
            (candidates, n)) for seed in seeds])
        total = np.add.accumulate(draws, axis=-1)[..., -1]   # left to right, as dirichlet's
        parts.append(draws * (1.0 / total)[..., None])
    return np.concatenate([*parts, cols], axis=1)


def _support_first(weights: np.ndarray, columns: np.ndarray,
                   size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each bank's positive-weight symbols in order, then zero weights on
    repeats of its first one: ``(B, size)`` weights, ``(B, size, |X_k|)`` columns."""
    positive = weights > 0.0
    order = np.argsort(~positive, axis=1, kind="stable")[:, :size]
    pad = np.arange(size) >= positive.sum(axis=1, keepdims=True)
    order = np.where(pad, order[:, :1], order)
    banks = np.arange(len(order))[:, None]
    return np.where(pad, 0.0, weights[banks, order]), columns[banks, order]


def optimize_single_channel(ctx: FunctionalContext, candidates: int, seeds: Sequence, *,
                            incumbent_columns) -> ReverseChannelPair:
    """Globally optimize slot k's reverse pair of each bank of a stack over
    its finite candidate pool.

    Scores the pools with one theta call and solves their mixture LPs by
    primal simplex.  ``incumbent_columns[b]`` (``(B, W, |X_k|)`` in all),
    bank b's positive-weight columns and repeats of its first, end pool b,
    and its simplex starts from their positions: they are independent (a
    repeat is left out) and mix to ``p_k`` when they are the support of a
    basic solution, so the optimum is then not above the incumbent.  Pair
    b of the returned stack is LP b's basic optimum: its weights above
    ``SUPPORT_WEIGHT_TOL`` (at most ``|X_k|`` of them), normalized, then
    zero weights on repeats of its first column up to ``|X_k|`` symbols.
    """
    pool = _candidate_pool(ctx, candidates, seeds, incumbent_columns)
    n, size = ctx.p_k.size, pool.shape[1]
    warm = range(size - np.shape(incumbent_columns)[1], size)
    result = solve_equality_lp(theta(ctx, pool), np.swapaxes(pool, 1, 2),
                               np.broadcast_to(ctx.p_k, (len(pool), n)), warm)
    w = np.where(result.w > SUPPORT_WEIGHT_TOL, result.w, 0.0)
    support = np.count_nonzero(w, axis=1).max()
    if support > n:
        raise NumericIntegrityError(f"LP support {support} exceeds the alphabet bound {n}")
    weights, columns = _support_first(w, pool, n)
    return ReverseChannelPair(weights / weights.sum(axis=1, keepdims=True), columns)


# ---- coordinate descent ---------------------------------------------------------


def _stacked(spec: ProblemSpec, k: int, channels: Sequence[Channel]) -> Channel:
    """Slot k's channels as one stack, each padded with zero columns to ``|X_k|``
    outputs or, when one is wider, to the widest."""
    x = spec.x_alphabet(k)
    if any(ch.input != x for ch in channels):
        raise StructuralError(f"an initial channel of slot {k} does not read {x}")
    rows = np.zeros((len(channels), x.size, max(x.size, *(ch.rows.shape[-1] for ch in channels))))
    for b, ch in enumerate(channels):
        rows[b, :, :ch.rows.shape[-1]] = ch.rows
    return Channel(x, rows)


def coordinate_descent(spec: ProblemSpec, direction: Direction,
                       inits: Sequence[Sequence[Channel]], seeds: Sequence,
                       sweeps: int = 50, candidates: int = 64) -> DescentStack:
    """Cyclic single-slot optimization of a stack of banks in lockstep.

    ``direction`` weighs every bank, or is a stack with one row per bank.
    Bank b descends as if alone, its pools drawn from ``seeds[b]``, and
    leaves the stack after ``sweeps`` sweeps or when a sweep improves its
    objective by less than ``SWEEP_IMPROVEMENT_TOL``.  Every slot's channel
    has ``|X_k|`` outputs from its first step on, one per symbol of the
    step's basic pair, so a slot step is one context, one theta, one stack
    of LPs and one conversion for the whole stack.  Each slot's incumbent
    is its last step's basic pair (the initial bank's reverse pair before
    its first step), so every step starts from it.  Each trace records the
    objective after each sweep (index 0 is the initial bank) and must be
    non-increasing within ``MONOTONE_TOL``; violation means the mixture
    identity broke and raises.  Reported channels keep only their
    positive-weight outputs.
    """
    slots = spec.channel_slots
    if not inits or len(seeds) != len(inits):
        raise StructuralError(f"expected one seed per initial bank, got {len(seeds)} "
                              f"for {len(inits)}")
    if any(len(init) != len(slots) for init in inits):
        raise StructuralError(f"expected {len(slots)} initial channels per bank")
    if sweeps < 1:
        raise StructuralError(f"sweeps must be >= 1, got {sweeps}")
    if direction.rate_weights.shape[:-1] not in ((), (len(inits),)):
        raise StructuralError(f"expected one direction row per initial bank ({len(inits)}), "
                              f"got {len(direction.rate_weights)}")
    direction = Direction(spec.m, spec.j, spec.l, *(np.broadcast_to(w, (len(inits), w.shape[-1]))
                          for w in (direction.rate_weights, direction.distortion_weights)))
    live = list(range(len(inits)))        # the banks still descending, in stack order
    channels = [_stacked(spec, k, [init[pos] for init in inits]) for pos, k in enumerate(slots)]
    pairs = [forward_to_reverse(spec, k, ch) for k, ch in zip(slots, channels)]
    pairs = [ReverseChannelPair(*_support_first(p.weights, p.columns, p.weights.shape[1]))
             for p in pairs]
    traces = [[value] for value in direct_weighted_value(spec, channels, direction).tolist()]
    runs = [None] * len(inits)
    for sweep in range(sweeps):
        for pos, k in enumerate(slots):
            frozen = {kk: ch for kk, ch in zip(slots, channels) if kk != k}
            pairs[pos] = optimize_single_channel(
                FunctionalContext(spec, k, frozen, direction), candidates,
                [(seeds[b], sweep, k) for b in live], incumbent_columns=pairs[pos].columns)
            channels[pos] = reverse_to_forward(spec, k, pairs[pos])
        stay = []
        for at, (b, value) in enumerate(zip(live, direct_weighted_value(
                spec, channels, direction).tolist())):
            trace = traces[b]
            if value > trace[-1] + MONOTONE_TOL:
                raise NumericIntegrityError(
                    f"objective rose from {trace[-1]!r} to {value!r} in sweep {sweep + 1}"
                )
            trace.append(value)
            if trace[-2] - trace[-1] >= SWEEP_IMPROVEMENT_TOL and sweep + 1 < sweeps:
                stay.append(at)
            else:                         # a slice: the outputs its own last pairs weigh
                runs[b] = OptimizeResult(tuple(
                    Channel(ch.input, ch.rows[at][:, pair.weights[at] > 0.0])
                    for ch, pair in zip(channels, pairs)), tuple(trace))
        live = [live[at] for at in stay]
        if not live:
            break
        pairs = [ReverseChannelPair(pair.weights[stay], pair.columns[stay]) for pair in pairs]
        channels = [Channel(ch.input, ch.rows[stay]) for ch in channels]
        direction = Direction(spec.m, spec.j, spec.l, direction.rate_weights[stay],
                              direction.distortion_weights[stay])
    return DescentStack(runs)


def default_multistart_inits(spec: ProblemSpec, restarts: int,
                             seed: int = 42) -> list[list[Channel]]:
    """Identity-like, constant, then seeded random channel banks."""
    if restarts < 1:
        raise StructuralError(f"restarts must be >= 1, got {restarts}")
    slots = spec.channel_slots
    inits: list[list[Channel]] = []
    inits.append([identity_channel(spec.x_alphabet(k)) for k in slots])
    if restarts >= 2:
        inits.append([constant_channel(spec.x_alphabet(k)) for k in slots])
    for r in range(restarts - 2):
        inits.append(random_channels(spec, np.random.default_rng((seed, 7919, r))))
    return inits[:restarts]


def _multistart_descent(spec: ProblemSpec, directions: Sequence[Direction], restarts: int,
                        sweeps: int, candidates: int,
                        seed: int) -> list[tuple[OptimizeResult, int]]:
    """Descend from every bank of ``default_multistart_inits(spec, restarts,
    seed)`` along every direction in one stack, bank r of direction ``idx``
    with seed ``(seed, idx, r)``; each direction's first best run and its ``r``."""
    inits = default_multistart_inits(spec, restarts, seed)
    if any((d.m, d.j, d.l) != (spec.m, spec.j, spec.l) for d in directions):
        raise StructuralError("direction dimensions do not match the spec")
    if not directions:
        return []
    stack = Direction(spec.m, spec.j, spec.l, *(
        np.repeat([getattr(d, name) for d in directions], len(inits), axis=0)
        for name in ("rate_weights", "distortion_weights")))
    runs = coordinate_descent(spec, stack, inits * len(directions),
                              [(seed, idx, r) for idx in range(len(directions))
                               for r in range(len(inits))],
                              sweeps=sweeps, candidates=candidates)
    best = []
    for at in range(0, len(runs), len(inits)):
        r = min(range(len(inits)), key=lambda r: runs[at + r].objective)  # first of minima
        best.append((runs[at + r], r))
    return best


# ---- lattice search -------------------------------------------------------------


@lru_cache(maxsize=None)
def _simplex_lattice(grid: int, parts: int) -> np.ndarray:
    """All probability vectors with `parts` entries on the 1/grid lattice,
    in lexicographic order of their integer compositions (stars and bars:
    the gaps between sorted bar positions, with bars at -1 and n)."""
    n = grid + parts - 1
    bars = np.array(list(itertools.combinations(range(n), parts - 1)), dtype=np.int64)
    bars = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n))
    arr = (np.diff(bars, axis=1) - 1).astype(float) / grid
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _orbit_table(grid: int, z: int, x: int) -> np.ndarray:
    """One channel per orbit of column permutations, which change no rate or
    Bayes distortion, as a read-only int32 ``(orbits, x)`` array: row i of
    channel t is ``_simplex_lattice(grid, z)[table[t, i]]``.  Each orbit
    keeps its first raw lattice point (row digits lexicographic, row 0 most
    significant), whose columns, read as ``x``-tuples, never decrease.

    Built one row at a time: a prefix of rows survives while no column pair
    that it still ties decreases.  Prefixes grow in blocks of at most
    ``ORBIT_CELLS`` prefix, lattice row and column pair cells (one prefix at
    least), each by every lattice row in order, so the table stays
    lexicographic; survivors are counted, then written into one array."""
    lat = _simplex_lattice(grid, z)
    down = lat[:, :-1] > lat[:, 1:]        # (rows, z - 1): column c above column c + 1
    same = lat[:, :-1] == lat[:, 1:]
    table = np.flatnonzero(~down.any(axis=1)).astype(np.int32)[:, None]
    step = max(1, ORBIT_CELLS // (len(lat) * max(z - 1, 1)))

    def survivors(prefix):               # (P, rows): prefix p grows by lattice row r
        tied = same[prefix].all(axis=1)[:, None]         # (P, 1, z - 1): tied in every row
        return ~(tied & down).any(axis=2)

    for width in range(1, x):
        blocks = [table[start:start + step] for start in range(0, len(table), step)]
        ends = np.cumsum([np.count_nonzero(survivors(prefix)) for prefix in blocks])
        table = np.empty((ends[-1], width + 1), dtype=np.int32)   # blocks view the old one
        for prefix, end in zip(blocks, ends):
            head, row = np.nonzero(survivors(prefix))
            table[end - head.size:end] = np.column_stack([prefix[head], row])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _row_entropies(grid: int, z: int) -> np.ndarray:
    """The read-only entropy -sum q log2 q of each row q of ``_simplex_lattice(grid, z)``."""
    h = -plogp(_simplex_lattice(grid, z)).sum(axis=1)
    h.setflags(write=False)
    return h


def estimate_brute_force_evals(spec: ProblemSpec, z_sizes: Sequence[int],
                               grid: int) -> int:
    """Number of channel-bank lattice points a search would evaluate."""
    slots = spec.channel_slots
    if len(z_sizes) != len(slots):
        raise StructuralError(f"expected {len(slots)} output sizes, got {len(z_sizes)}")
    if check_int(grid, "grid") < 1:
        raise StructuralError(f"grid must be >= 1, got {grid}")
    total = 1
    for k, z in zip(slots, z_sizes):
        if z < 1:
            raise StructuralError(f"output size for slot {k} must be >= 1, got {z}")
        per_row = math.comb(grid + z - 1, z - 1)
        total *= per_row ** spec.x_alphabet(k).size
    return total


def _bank_entropies(a: np.ndarray) -> np.ndarray:
    """Entropy of each bank (last axis) of ``a``, its cells summed down the leading axes."""
    return -plogp(a.reshape(-1, a.shape[-1])).sum(axis=0)


def _bayes_risks(spec: ProblemSpec, scored: np.ndarray, banks: int) -> list[np.ndarray]:
    """Each distortion's Bayes risk per bank, from p(V, cells, B) flattened to ``(|V|, -1)``."""
    # the min picks the Bayes estimate of each cell
    return [(d_table.T @ scored).min(axis=0).reshape(-1, banks).sum(axis=0)
            for d_table in spec.distortions]


def brute_force_search(
    spec: ProblemSpec,
    directions: Sequence[Direction],
    z_sizes: Sequence[int],
    grid: int,
) -> tuple[np.ndarray, list[list[Channel]]]:
    """Exhaustive lattice minimization, shared across several directions.

    Every channel row ranges over the 1/grid simplex lattice; one bank per
    orbit of output relabelings is scored and dotted with each direction.
    A chunk gathers each slot's channels as one ``(X_k, Z_k, B)`` array from
    its :func:`_orbit_table` of lattice row indices and the transposed
    lattice.  Slots are contracted in increasing order, so at slot k a chunk
    carries p(V, X_>=k, X_1..X_J, S, Z_<k), all that later slots and the
    distortions read.  Slot k's rate I(X_k; Z_k | C), C = (X_1..X_J, S,
    Z_<k), is H(C, Z_k) - H(C) - H(Z_k | X_k, C): the first from that array
    times slot k's rows, summed over V and X_>k; the second the previous
    slot's first (the source's at slot 1); the last sum_x p(x) H(q_k(.|x)),
    as Z_k reads X_k alone (:func:`_row_entropies`).  Each distortion is the
    Bayes risk of p(X_1..X_J, S, V, Z).  Rates keep ``pmf.mi_sets``' sign
    rule: a nonpositive rate within ``CMI_CLAMP`` of zero, -0.0 included,
    becomes +0.0, and a lower one raises :class:`NumericIntegrityError`
    naming the slot.  Returns the minima and argmin banks; refuses raw
    lattices over ``MAX_BRUTE_EVALS`` points.
    """
    slots = spec.channel_slots
    z_sizes = [check_int(z, "output size") for z in z_sizes]
    total = estimate_brute_force_evals(spec, z_sizes, grid)
    if total > MAX_BRUTE_EVALS:
        raise BudgetError(f"lattice search needs {total} evaluations (> {MAX_BRUTE_EVALS}); "
                          "shrink the grid or the output alphabets")
    if not directions:
        raise StructuralError("brute_force_search needs at least one direction")
    for d in directions:
        if (d.m, d.j, d.l) != (spec.m, spec.j, spec.l):
            raise StructuralError("direction dimensions do not match the spec")

    coords = np.array([d.coords for d in directions])          # (D, K+L)
    v = spec.v_alphabet.size

    if not slots:               # nothing to search: the objective is the source's Bayes risks
        scored = np.moveaxis(spec.source.probs, spec.m + 1, 0).reshape(v, -1)
        return coords @ np.ravel(_bayes_risks(spec, scored, 1)), [[] for _ in directions]

    lats = [_simplex_lattice(grid, z) for z in z_sizes]
    tables = [_orbit_table(grid, z, spec.x_alphabet(k).size) for k, z in zip(slots, z_sizes)]
    h_rows = [_row_entropies(grid, z) for z in z_sizes]
    p_x = [spec.x_marginal(k) for k in slots]
    per_channel = [table.shape[0] for table in tables]
    xs = [table.shape[1] for table in tables]

    # axes V, X_{J+1}..X_M, X_L = X_1..X_J, S, each Z_k, then banks: sums run on leading axes
    source = np.moveaxis(spec.source.probs, [spec.m + 1, *range(spec.j, spec.m)],
                         range(len(xs) + 1)).reshape(v, xs[0], -1)
    h_source = _bank_entropies(source.reshape(v * math.prod(xs), -1).sum(axis=0)[:, None])

    n_dir = len(directions)
    best = np.full(n_dir, np.inf)
    best_flat = np.zeros(n_dir, dtype=np.int64)

    reps = math.prod(per_channel)
    for start in range(0, reps, CHUNK):
        flat = np.arange(start, min(start + CHUNK, reps), dtype=np.int64)
        per_slot = np.unravel_index(flat, per_channel)
        h_c = h_source
        comps = []
        for pos, x in enumerate(xs):
            rows = np.take(tables[pos], per_slot[pos], axis=0).T   # (X_k, B) lattice rows
            q = np.take(lats[pos].T, rows, axis=1).transpose(1, 0, 2)   # (X_k, Z_k, B)
            # a becomes p(V, X_>k X_L S Z_<k, Z_k, B): X_k contracted into Z_k
            if pos == 0:                # the source is channel-free: one matrix product
                a = np.tensordot(source, q, axes=(1, 0))
            else:
                a = (a.reshape(v, x, -1, 1, flat.size) * q[:, None]).sum(axis=1)
            later = v * math.prod(xs[pos + 1:])                  # V and X_>k: leading cells
            h_cz = _bank_entropies(a.reshape(later, -1, flat.size).sum(axis=0))
            rate = h_cz - h_c - p_x[pos] @ np.take(h_rows[pos], rows)
            if rate.min() < -CMI_CLAMP:
                raise NumericIntegrityError(f"slot {slots[pos]}'s lattice rate evaluated to "
                                            f"{rate.min():.3e} bits, below -{CMI_CLAMP}")
            comps.append(np.maximum(rate, 0.0))
            h_c = h_cz
        comps += _bayes_risks(spec, a.reshape(v, -1), flat.size)  # a is p(V, X_L S Z, B)
        objective = np.stack(comps, axis=1) @ coords.T          # (B, D)
        arg = objective.argmin(axis=0)
        vals = objective[arg, np.arange(n_dir)]
        better = vals < best
        best[better] = vals[better]
        best_flat[better] = flat[arg[better]]

    rows = [lat[table[i]] for lat, table, i in
            zip(lats, tables, np.unravel_index(best_flat, per_channel))]
    return best, [[Channel(spec.x_alphabet(k), rows[pos][d]) for pos, k in enumerate(slots)]
                  for d in range(n_dir)]


# ---- alphabet bound verification -------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlphabetBoundEntry:
    capped_value: float           # best descent, outputs capped at |X_k|
    capped_lattice_value: float
    enlarged_value: float         # lattice, outputs enlarged to |X_k| + 2
    margin: float                 # capped - enlarged
    passed: bool


@dataclass(frozen=True, eq=False)
class AlphabetBoundReport:
    entries: tuple[AlphabetBoundEntry, ...]
    capped_sizes: tuple[int, ...]
    enlarged_sizes: tuple[int, ...]
    capped_grid: int
    enlarged_grid: int

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _fit_grid(spec: ProblemSpec, z_sizes: Sequence[int], grid: int) -> int:
    """The largest grid in 1..grid within ``MAX_BRUTE_EVALS``, by bisection:
    the estimate never decreases as the grid grows."""
    fitting = bisect.bisect_right(range(1, grid + 1), MAX_BRUTE_EVALS,
                                  key=lambda g: estimate_brute_force_evals(spec, z_sizes, g))
    if fitting:
        return fitting
    raise BudgetError(
        f"even grid 1 exceeds {MAX_BRUTE_EVALS} evaluations for output sizes {list(z_sizes)}"
    )


def verify_alphabet_bound(
    spec: ProblemSpec,
    directions: Sequence[Direction],
    grid: int = 12,
    tol: float = ALPHABET_BOUND_TOL,
    sweeps: int = 50,
    candidates: int = 64,
    restarts: int = 4,
    seed: int = 42,
) -> AlphabetBoundReport:
    """Check that outputs larger than ``|X_k|`` buy nothing.

    Per direction, the capped value is the best of ``restarts``
    coordinate descents from ``default_multistart_inits`` with output
    alphabets capped at ``|X_k|``.  Two lattice searches are its oracles:
    one with the same capped alphabets and one with alphabets enlarged to
    ``|X_k| + 2``.  A direction passes when the capped value is at most
    ``tol`` above each lattice value: above the enlarged one, larger
    outputs would have helped; above the capped one, descent missed an
    optimum the lattice found.  Each search runs at the largest lattice
    grid not exceeding the evaluation budget (at most the requested
    ``grid``), recorded in the report.
    """
    directions = list(directions)
    slots = spec.channel_slots
    capped_sizes = tuple(spec.x_alphabet(k).size for k in slots)
    enlarged_sizes = tuple(n + 2 for n in capped_sizes)
    if not slots:
        raise StructuralError("alphabet bound is vacuous without channel slots")
    if check_int(grid, "grid") < 1:
        raise StructuralError(f"grid must be >= 1, got {grid}")
    g_capped = _fit_grid(spec, capped_sizes, grid)
    g_enlarged = _fit_grid(spec, enlarged_sizes, grid)
    # descent first: it refuses bad restarts, sweeps and candidates before any lattice search
    runs = _multistart_descent(spec, directions, restarts, sweeps, candidates, seed)
    capped_vals, _ = brute_force_search(spec, directions, capped_sizes, g_capped)
    enlarged_vals, _ = brute_force_search(spec, directions, enlarged_sizes, g_enlarged)

    entries = []
    for (run, _), capped, enlarged in zip(runs, capped_vals.tolist(), enlarged_vals.tolist()):
        margin = run.objective - enlarged
        passed = margin <= tol and run.objective - capped <= tol
        entries.append(AlphabetBoundEntry(run.objective, capped, enlarged, margin, passed))
    return AlphabetBoundReport(
        tuple(entries), capped_sizes, enlarged_sizes, g_capped, g_enlarged
    )


# ---- frontier tracing -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TracePoint:
    direction: Direction
    result: OptimizeResult
    rates: np.ndarray = field(repr=False)
    distortions: np.ndarray = field(repr=False)
    restart_index: int = 0


def trace_inner_bound(
    spec: ProblemSpec,
    directions: Sequence[Direction],
    perm: Sequence[int] | None = None,
    restarts: int = 8,
    sweeps: int = 50,
    candidates: int = 64,
    seed: int = 42,
) -> list[TracePoint]:
    """Optimize each direction by multistart descent and report its corner.

    The optimization target is always the natural-order corner objective;
    ``perm`` only selects which corner of the optimized channel bank is
    reported (every corner shares the same channels and distortions).
    """
    perm = identity_permutation(spec.m) if perm is None else check_permutation(perm, spec.m)
    points = []
    for direction, (best, restart) in zip(
            directions, _multistart_descent(spec, directions, restarts, sweeps, candidates, seed)):
        aug = attach_channels(spec, best.channels)
        dists = np.array([float(_bayes_scores(aug, l).min(axis=-1).sum())
                          for l in range(1, spec.l + 1)])
        points.append(TracePoint(direction, best, corner_point(aug, perm), dists, restart))
    return points
