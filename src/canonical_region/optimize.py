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
is therefore monotone within float noise, which is enforced.  All the
restarts of one direction descend as one stack, each channel padded to
``|X_k|`` outputs with zero-weight symbols so that every slot step is
one call of each layer for the whole stack.

A direct lattice search (:func:`brute_force_search`) grids every
channel's rows over the probability simplex and evaluates the objective
definitionally, as entropies and Bayes risks of marginals of the
augmented joint, independent of the functional machinery.  Slot k's rate
reads only slots up to k, so the search contracts the source with one
channel at a time in slot order and never forms the whole joint; each
marginal is still summed from the joint's cells.  It is budget-guarded
and serves as the reference the descent is validated against.
"""
from __future__ import annotations

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
        parts.append(np.array([np.random.Generator(np.random.PCG64(seed)).dirichlet(
            np.ones(n), size=candidates) for seed in seeds]))
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
    """Slot k's channels as one stack, each padded to the widest with zero-weight outputs."""
    if any(ch.input != spec.x_alphabet(k) for ch in channels):
        raise StructuralError(f"an initial channel of slot {k} does not read {spec.x_alphabet(k)}")
    width = max(ch.rows.shape[-1] for ch in channels)
    return Channel(spec.x_alphabet(k),
                   [np.pad(ch.rows, ((0, 0), (0, width - ch.rows.shape[-1]))) for ch in channels])


def coordinate_descent(spec: ProblemSpec, direction: Direction,
                       inits: Sequence[Sequence[Channel]], seeds: Sequence,
                       sweeps: int = 50, candidates: int = 64) -> DescentStack:
    """Cyclic single-slot optimization of a stack of banks in lockstep.

    Bank b descends as if alone, its pools drawn from ``seeds[b]``, and
    leaves the stack after ``sweeps`` sweeps or when a sweep improves its
    objective by less than ``SWEEP_IMPROVEMENT_TOL``.  Each slot's
    incumbent is its last step's basic pair (the initial bank's reverse
    pair before its first step), so every step starts from it.  Each trace
    records the objective after each sweep (index 0 is the initial bank)
    and must be non-increasing within ``MONOTONE_TOL``; violation means
    the mixture identity broke and raises.  Reported channels keep only
    their positive-weight outputs.
    """
    slots = spec.channel_slots
    if not inits or len(seeds) != len(inits):
        raise StructuralError(f"expected one seed per initial bank, got {len(seeds)} "
                              f"for {len(inits)}")
    if any(len(init) != len(slots) for init in inits):
        raise StructuralError(f"expected {len(slots)} initial channels per bank")
    if sweeps < 1:
        raise StructuralError(f"sweeps must be >= 1, got {sweeps}")
    live = list(range(len(inits)))        # the banks still descending, in stack order
    channels = [_stacked(spec, k, [init[pos] for init in inits]) for pos, k in enumerate(slots)]
    pairs = [forward_to_reverse(spec, k, ch) for k, ch in zip(slots, channels)]
    pairs = [ReverseChannelPair(*_support_first(p.weights, p.columns, p.weights.shape[1]))
             for p in pairs]

    def values() -> list[float]:          # each live bank's objective
        value = direct_weighted_value(spec, channels, direction)
        return np.broadcast_to(value, len(live)).tolist()

    traces = [[value] for value in values()]
    runs = [None] * len(inits)
    for sweep in range(sweeps):
        for pos, k in enumerate(slots):
            frozen = {kk: ch for kk, ch in zip(slots, channels) if kk != k}
            ctx = FunctionalContext(spec, k, frozen, direction)
            draws = [(seeds[b], sweep, k) for b in live]
            pairs[pos] = optimize_single_channel(ctx, candidates, draws,
                                                 incumbent_columns=pairs[pos].columns)
            channels[pos] = reverse_to_forward(spec, k, pairs[pos])
        stay = []
        for at, (b, value) in enumerate(zip(live, values())):
            trace = traces[b]
            if value > trace[-1] + MONOTONE_TOL:
                raise NumericIntegrityError(
                    f"objective rose from {trace[-1]!r} to {value!r} in sweep {sweep + 1}"
                )
            trace.append(value)
            if trace[-2] - trace[-1] >= SWEEP_IMPROVEMENT_TOL and sweep + 1 < sweeps:
                stay.append(at)
            else:
                runs[b] = OptimizeResult(tuple(reverse_to_forward(
                    spec, k, ReverseChannelPair(pair.weights[at], pair.columns[at]))
                    for k, pair in zip(slots, pairs)), tuple(trace))
        live = [live[at] for at in stay]
        if not live:
            break
        pairs = [ReverseChannelPair(pair.weights[stay], pair.columns[stay]) for pair in pairs]
        channels = [Channel(ch.input, ch.rows[stay]) for ch in channels]
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
    """Per direction ``idx``, descend from every bank of
    ``default_multistart_inits(spec, restarts, seed)`` in one stack, bank r
    with seed ``(seed, idx, r)``; each direction's first best run and its ``r``."""
    inits = default_multistart_inits(spec, restarts, seed)
    best = []
    for idx, direction in enumerate(directions):
        if (direction.m, direction.j, direction.l) != (spec.m, spec.j, spec.l):
            raise StructuralError("direction dimensions do not match the spec")
        seeds = [(seed, idx, r) for r in range(len(inits))]
        runs = coordinate_descent(spec, direction, inits, seeds, sweeps=sweeps,
                                  candidates=candidates)
        r = min(range(len(runs)), key=lambda r: runs[r].objective)   # first of equal minima
        best.append((runs[r], r))
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
    """One ``(x, z)`` channel matrix per orbit of column permutations, which
    change no rate or Bayes distortion: the orbit's first raw lattice point
    (row digits lexicographic, row 0 most significant), whose columns, read
    as ``x``-tuples, never decrease.

    Built one row at a time: a prefix of rows survives while no column pair
    that it still ties decreases.  Prefixes grow in ``CHUNK`` blocks, each
    by every lattice row in order, so the table stays lexicographic."""
    lat = _simplex_lattice(grid, z)
    down = lat[:, :-1] > lat[:, 1:]        # (rows, z - 1): column c above column c + 1
    same = lat[:, :-1] == lat[:, 1:]
    prefixes = np.flatnonzero(~down.any(axis=1))[:, None]   # lattice row per table row
    tied = same[prefixes[:, 0]]
    for _ in range(1, x):
        grown, ties = [], []
        for start in range(0, len(prefixes), CHUNK):
            block = tied[start:start + CHUNK, None, :]
            head, row = np.nonzero(~(block & down).any(axis=2))
            grown.append(np.column_stack([prefixes[start + head], row]))
            ties.append(block[head, 0] & same[row])
        prefixes, tied = np.concatenate(grown), np.concatenate(ties)
    table = lat[prefixes]
    table.setflags(write=False)
    return table


def estimate_brute_force_evals(spec: ProblemSpec, z_sizes: Sequence[int],
                               grid: int) -> int:
    """Number of channel-bank lattice points a search would evaluate."""
    slots = spec.channel_slots
    if len(z_sizes) != len(slots):
        raise StructuralError(f"expected {len(slots)} output sizes, got {len(z_sizes)}")
    if grid < 1:
        raise StructuralError(f"grid must be >= 1, got {grid}")
    total = 1
    for k, z in zip(slots, z_sizes):
        if z < 1:
            raise StructuralError(f"output size for slot {k} must be >= 1, got {z}")
        per_row = math.comb(grid + z - 1, z - 1)
        total *= per_row ** spec.x_alphabet(k).size
    return total


def _bank_entropies(a: np.ndarray) -> np.ndarray:
    """Entropy of each bank (last axis) of ``a``, from one contiguous row per bank."""
    return -plogp(np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)).sum(axis=1)


def _slot_marginal(a: np.ndarray, later: int) -> np.ndarray:
    """p(X_k, X_L S Z_<k, B) from p(V, X_k, X_>k X_L S Z_<k, B); X_>k spans ``later`` cells."""
    _, x, _, b = a.shape
    return a.sum(axis=0).reshape(x, later, -1, b).sum(axis=1)


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
    Each term is computed by definition from a marginal of the augmented
    joint: slot k's rate I(X_k; Z_k | X_1..X_J, Z_<k, S) as four entropies,
    each distortion as the Bayes risk of p(X_1..X_J, S, V, Z).  The joint
    is never formed whole: slots are contracted in increasing order, and at
    slot k a chunk of banks carries p(V, X_>=k, X_1..X_J, S, Z_<k), all
    that later slots and the distortions read.  Slot k's entropies come
    from that array summed over V and X_>k and from its product with slot
    k's rows.  Rates keep ``pmf.mi_sets``' sign rule: a nonpositive rate
    within ``CMI_CLAMP`` of zero, -0.0 included, becomes +0.0, and a lower
    one raises :class:`NumericIntegrityError` naming the slot.  Returns the
    minima and argmin banks; refuses raw lattices over ``MAX_BRUTE_EVALS`` points.
    """
    slots = spec.channel_slots
    z_sizes = [check_int(z, "output size") for z in z_sizes]
    total = estimate_brute_force_evals(spec, z_sizes, grid)
    if total > MAX_BRUTE_EVALS:
        raise BudgetError(
            f"lattice search needs {total} evaluations "
            f"(> {MAX_BRUTE_EVALS}); shrink the grid or the output alphabets"
        )
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

    tables = [_orbit_table(grid, z, spec.x_alphabet(k).size) for k, z in zip(slots, z_sizes)]
    per_channel = [table.shape[0] for table in tables]
    rows_last = [np.ascontiguousarray(table.transpose(1, 2, 0)) for table in tables]
    xs = [table.shape[1] for table in tables]

    # axes V, X_{J+1}..X_M, X_L = X_1..X_J, S, each Z_k, then banks: sums run on leading axes
    source = np.moveaxis(spec.source.probs, [spec.m + 1, *range(spec.j, spec.m)],
                         range(len(xs) + 1)).reshape(v, xs[0], -1)
    first = _slot_marginal(source[..., None], math.prod(xs[1:]))
    h_first, h_cond = _bank_entropies(first), _bank_entropies(first.sum(axis=0))

    n_dir = len(directions)
    best = np.full(n_dir, np.inf)
    best_flat = np.zeros(n_dir, dtype=np.int64)

    reps = math.prod(per_channel)
    for start in range(0, reps, CHUNK):
        flat = np.arange(start, min(start + CHUNK, reps), dtype=np.int64)
        per_slot = np.unravel_index(flat, per_channel)
        p, h_ac, h_c = first, h_first, h_cond
        comps = []
        for pos, x in enumerate(xs):
            q = rows_last[pos][:, :, per_slot[pos]]               # (X_k, Z_k, B)
            # a becomes p(V, X_>k X_L S Z_<k, Z_k, B): X_k contracted into Z_k
            if pos == 0:                # the source is channel-free: one matrix product
                a = np.tensordot(source, q, axes=(1, 0))
            else:
                a = a.reshape(v, x, -1, flat.size)
                p = _slot_marginal(a, math.prod(xs[pos + 1:]))
                h_ac = _bank_entropies(p)
                a = (a[:, :, :, None] * q[:, None]).sum(axis=1)
            joint = p[:, :, None] * q[:, None]                    # p(X_k, X_L S Z_<k, Z_k)
            h_bc = _bank_entropies(joint.sum(axis=0))
            rate = h_ac + h_bc - _bank_entropies(joint) - h_c
            if rate.min() < -CMI_CLAMP:
                raise NumericIntegrityError(f"slot {slots[pos]}'s lattice rate evaluated to "
                                            f"{rate.min():.3e} bits, below -{CMI_CLAMP}")
            comps.append(np.maximum(rate, 0.0))
            h_c = h_bc
        comps += _bayes_risks(spec, a.reshape(v, -1), flat.size)  # a is p(V, X_L S Z, B)
        objective = np.stack(comps, axis=1) @ coords.T          # (B, D)
        arg = objective.argmin(axis=0)
        vals = objective[arg, np.arange(n_dir)]
        better = vals < best
        best[better] = vals[better]
        best_flat[better] = flat[arg[better]]

    rows = [table[i] for table, i in zip(tables, np.unravel_index(best_flat, per_channel))]
    winners = [
        [Channel(spec.x_alphabet(k), rows[pos][d]) for pos, k in enumerate(slots)]
        for d in range(n_dir)
    ]
    return best, winners


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
    for g in range(grid, 0, -1):
        if estimate_brute_force_evals(spec, z_sizes, g) <= MAX_BRUTE_EVALS:
            return g
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
    if grid < 1:
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
