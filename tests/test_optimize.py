from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from canonical_region import (
    BudgetError,
    Channel,
    DegeneracyWarning,
    Direction,
    FunctionalContext,
    NumericIntegrityError,
    ProblemSpec,
    ReverseChannelPair,
    StructuralError,
    attach_channels,
    brute_force_search,
    constant_channel,
    coordinate_descent,
    corner_point,
    default_multistart_inits,
    direct_weighted_value,
    distortion_component,
    estimate_brute_force_evals,
    forward_to_reverse,
    optimize_single_channel,
    random_channels,
    random_direction,
    resolve_problem,
    reverse_to_forward,
    theta,
    trace_inner_bound,
    verify_alphabet_bound,
)
from canonical_region import optimize
from canonical_region.optimize import (
    _candidate_pool,
    _multistart_descent,
    _orbit_table,
    _pool_head,
    _simplex_lattice,
)
from canonical_region.pmf import CMI_CLAMP, plogp
from conftest import (
    bernoulli_lagrangian,
    binary_product_spec,
    deterministic_bayes_risks,
    make_spec,
    region_problem_spec,
    relabel_symbols,
    slepian_wolf_reference,
    solve_one,
    zero_symbol_spec,
)


def test_simplex_lattice_exact():
    got = _simplex_lattice(3, 2)
    expected = np.array([[0, 3], [1, 2], [2, 1], [3, 0]], dtype=float) / 3
    assert np.array_equal(got, expected)
    assert _simplex_lattice(5, 1).shape == (1, 1)
    assert float(_simplex_lattice(5, 1)[0, 0]) == 1.0
    assert _simplex_lattice(4, 3).shape[0] == math.comb(6, 2)


def _reference_lattice(grid, parts):
    """The recursive composition walk the stars-and-bars lattice must reproduce."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], grid, parts)
    return np.array(out, dtype=float) / grid


def test_simplex_lattice_matches_recursive_walk():
    for grid in range(1, 11):
        for parts in range(1, 6):
            got, expected = _simplex_lattice(grid, parts), _reference_lattice(grid, parts)
            assert got.shape == expected.shape == (math.comb(grid + parts - 1, parts - 1), parts)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def test_estimate_matches_combinatorics():
    rng = np.random.default_rng(80)
    spec = make_spec(rng, m=2, j=0, l=1, max_alphabet=3)
    n1, n2 = (a.size for a in spec.x_alphabets)
    grid = 4
    # oracle: per-row compositions, independent rows, independent slots
    expected = (math.comb(grid + 1, 1) ** n1) * (math.comb(grid + 2 - 1, 1) ** n2)
    assert estimate_brute_force_evals(spec, [2, 2], grid) == expected
    with pytest.raises(StructuralError):
        estimate_brute_force_evals(spec, [2], grid)
    with pytest.raises(StructuralError):
        estimate_brute_force_evals(spec, [2, 2], 0)
    with pytest.raises(StructuralError):
        estimate_brute_force_evals(spec, [2, 0], grid)


def test_budget_refusal(bwz):
    d = Direction.normalized(1, 0, 1, [1.0, 1.0])
    assert estimate_brute_force_evals(bwz, [4], 100) > 15_000_000
    with pytest.raises(BudgetError):
        brute_force_search(bwz, [d], [4], 100)


def test_brute_force_matches_direct_enumeration(dsbs):
    rng = np.random.default_rng(81)
    dirs = [random_direction(2, 0, 1, rng) for _ in range(2)]
    grid = 2
    lat = _simplex_lattice(grid, 2)
    # oracle first: walk the nine banks by hand, score each definitionally
    from canonical_region import Channel
    best = [np.inf, np.inf]
    for d0 in range(3):
        for d1 in range(3):
            ch1 = Channel(dsbs.x_alphabets[0], [[1.0], [1.0]])
            ch2 = Channel(dsbs.x_alphabets[1], np.stack([lat[d0], lat[d1]]))
            for i, d in enumerate(dirs):
                best[i] = min(best[i], direct_weighted_value(dsbs, [ch1, ch2], d))
    values, banks = brute_force_search(dsbs, dirs, [1, 2], grid)
    for i, d in enumerate(dirs):
        assert abs(values[i] - best[i]) < 1e-12
        assert abs(direct_weighted_value(dsbs, banks[i], d) - values[i]) < 1e-12
        assert [ch.rows.shape[-1] for ch in banks[i]] == [1, 2]


def test_brute_force_one_output_on_a_wide_slot():
    # 70 channel rows, more than numpy's 64 array dimensions: the search must
    # not split a lattice index into one axis per row
    spec = _wide_slot_spec()
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    values, banks = brute_force_search(spec, [d], [1], 4)
    (channel,) = banks[0]
    assert np.array_equal(channel.rows, np.ones((70, 1)))
    constant = direct_weighted_value(spec, [constant_channel(spec.x_alphabet(1))], d)
    assert abs(values[0] - constant) < 1e-12


def _reference_orbit_table(grid, z, x):
    """First raw index per ``np.unique`` of column-sorted keys, in raw order."""
    lat = _simplex_lattice(grid, z)
    digits = np.array(list(itertools.product(range(lat.shape[0]), repeat=x)))
    raw = lat[digits].reshape(-1, x, z)                  # row 0 most significant
    col_keys = np.rint(raw * grid).astype(np.int64)
    packed = (col_keys * (grid + 1) ** np.arange(x - 1, -1, -1)[:, None]).sum(axis=1)
    _, first = np.unique(np.sort(packed, axis=1), axis=0, return_index=True)
    return raw[np.sort(first)]


def test_row_entropies_are_plain_row_entropies():
    for grid in range(1, 7):
        for z in range(1, 6):
            h = optimize._row_entropies(grid, z)
            expected = [-sum(p * math.log2(p) for p in row if p > 0.0)   # 0 log 0 = 0
                        for row in _simplex_lattice(grid, z).tolist()]
            assert optimize._row_entropies(grid, z) is h       # cached
            assert not h.flags.writeable and h.shape == (len(expected),)
            assert np.allclose(h, expected, rtol=0.0, atol=1e-12), (grid, z)


def test_orbit_table_matches_unique_of_sorted_columns():
    for grid in range(1, 7):
        for z in range(1, 6):
            for x in range(1, 4):
                if math.comb(grid + z - 1, z - 1) ** x > 50_000:
                    continue   # x = 3 at (grid, z) = (4..6, 5) and (5..6, 4)
                got = _simplex_lattice(grid, z)[_orbit_table(grid, z, x)]
                expected = _reference_orbit_table(grid, z, x)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (grid, z, x)


@pytest.mark.parametrize("shape, count", [
    ((3, 4, 2), 27), ((12, 2, 2), 85), ((5, 4, 2), 168), ((8, 4, 2), 1_297),
    ((14, 4, 2), 20_307),
])
def test_orbit_table_counts(shape, count):
    table = _orbit_table(*shape)         # one lattice row index per channel row
    assert table.dtype == np.int32 and table.shape == (count, shape[2])
    assert not table.flags.writeable


def test_cold_search_holds_the_index_table_and_chunk_temporaries(bwz):
    # bwz at grid 20 with |Z| = 4: 134,377 orbits, 8.6 MB as float (2, 4) channels.
    # Bound from the representation: the int32 index table twice (the table, and
    # room for the one block of temporaries its build holds beside it), plus per
    # chunk bank six float arrays of 16 cells, the size of p(V, S, Z_k), the
    # largest array the search holds for a bank, beside its tensordot operands,
    # its plogp cells and its Bayes-risk scores
    reps, x, z = 134_377, 2, 4
    bound = 2 * reps * x * np.dtype(np.int32).itemsize + 6 * 16 * 8 * optimize.CHUNK
    assert bound < reps * x * z * 8 / 2               # below half the float table
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    brute_force_search(bwz, [d], [z], 1)              # numpy's lazy set-up, outside the trace
    _orbit_table.cache_clear()
    _simplex_lattice.cache_clear()
    tracemalloc.start()
    try:
        brute_force_search(bwz, [d], [z], 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _orbit_table(20, z, x).shape == (reps, x)
    assert peak < bound, (peak, bound)


# each weighs the distortion; the light-rate rows make identity maps win on every problem
SLEPIAN_WOLF_DIRECTIONS = {
    1: [[1.0, 1.0], [0.3, 1.0], [1.0, 0.2], [0.05, 1.0]],
    2: [[1.0, 1.0, 1.0], [0.5, 2.0, 3.0], [2.0, 0.1, 0.5], [0.3, 0.3, 1.0], [0.05, 0.05, 1.0],
        [0.02, 0.1, 1.0]],
}


@pytest.mark.parametrize("name", ["bwz", "dsbs", "helper3"])
@pytest.mark.parametrize("extra", [0, 2])
def test_grid_one_lattice_meets_the_slepian_wolf_oracle(name, extra, request):
    # at grid 1 every lattice channel is a deterministic map Z_k = f_k(X_k): its rate
    # I(X_k; Z_k | X_1..X_J, Z_<k, S) is the identity-order Slepian-Wolf corner's
    # H(Z_k | Z_<k, S), and its distortions are Bayes risks of the source pushed
    # through the maps, both plain numpy apart from the package
    spec = request.getfixturevalue(name)
    sizes = [spec.x_alphabet(k).size for k in spec.channel_slots]
    z_sizes = [n + extra for n in sizes]
    dirs = [Direction.normalized(spec.m, spec.j, spec.l, raw)
            for raw in SLEPIAN_WOLF_DIRECTIONS[spec.m - spec.j]]
    lossless = [np.arange(spec.x_alphabet(i).size) for i in range(1, spec.j + 1)]

    def score(maps, d):
        corners, _, _ = slepian_wolf_reference(spec.source.probs, lossless + list(maps))
        risks = deterministic_bayes_risks(spec.source.probs, lossless + list(maps),
                                          spec.distortions)
        return d.rate_weights @ corners[0][spec.j:] + d.distortion_weights @ risks

    banks = list(itertools.product(*(itertools.product(range(z), repeat=n)
                                     for n, z in zip(sizes, z_sizes))))
    values, winners = brute_force_search(spec, dirs, z_sizes, 1)
    for d, value, winner in zip(dirs, values, winners):
        assert abs(value - min(score(maps, d) for maps in banks)) <= 1e-12
        assert [ch.rows.shape for ch in winner] == list(zip(sizes, z_sizes))
        assert abs(score([ch.rows.argmax(axis=1) for ch in winner], d) - value) <= 1e-12


def _raw_lattice_minima(spec, directions, z_sizes, grid):
    """Score every raw lattice bank (all column orders) with direct_weighted_value."""
    per_slot = [
        [Channel(spec.x_alphabet(k), rows)
         for rows in itertools.product(_simplex_lattice(grid, z), repeat=spec.x_alphabet(k).size)]
        for k, z in zip(spec.channel_slots, z_sizes)
    ]
    best = np.full(len(directions), np.inf)
    for bank in itertools.product(*per_slot):
        for i, d in enumerate(directions):
            best[i] = min(best[i], direct_weighted_value(spec, list(bank), d))
    return best


@pytest.mark.parametrize("name, z_sizes, grid, n_dirs", [
    ("bwz", [2], 6, 2), ("bwz", [3], 4, 2), ("bwz", [4], 3, 2),
    ("dsbs", [3, 3], 2, 1), ("helper3", [2, 2], 3, 2),
])
def test_orbit_search_matches_raw_enumeration(name, z_sizes, grid, n_dirs):
    spec = resolve_problem(name)
    rng = np.random.default_rng(94)
    dirs = [random_direction(spec.m, spec.j, spec.l, rng) for _ in range(n_dirs)]
    values, banks = brute_force_search(spec, dirs, z_sizes, grid)
    expected = _raw_lattice_minima(spec, dirs, z_sizes, grid)
    for i, d in enumerate(dirs):
        assert abs(values[i] - expected[i]) < 1e-12
        assert abs(direct_weighted_value(spec, banks[i], d) - values[i]) < 1e-12


def test_search_scores_one_bank_per_orbit(monkeypatch, dsbs):
    # 27 orbits per (3, 4, 2) slot: 729 banks instead of 400 ** 2 raw ones;
    # banks are the last axis of every entropy array, and the one-bank call
    # is the source's channel-free entropy
    banks = []
    entropies = optimize._bank_entropies

    def counting(a):
        banks.append(a.shape[-1])
        return entropies(a)

    monkeypatch.setattr(optimize, "_bank_entropies", counting)
    d = Direction.normalized(2, 0, 1, [0.4, 0.4, 0.5])
    brute_force_search(dsbs, [d], [4, 4], 1)
    one_chunk = len(banks)
    banks.clear()
    brute_force_search(dsbs, [d], [4, 4], 3)
    assert estimate_brute_force_evals(dsbs, [4, 4], 3) == 160_000
    assert len(banks) == one_chunk and {b for b in banks if b > 1} == {729}


def _reference_batch_entropies(tensor, keep, cache):
    cached = cache.get(keep)
    if cached is not None:
        return cached
    drop = tuple(ax for ax in range(1, tensor.ndim) if ax not in keep)
    m = tensor.sum(axis=drop) if drop else tensor
    h = cache[keep] = -plogp(m.reshape(m.shape[0], -1)).sum(axis=1)
    return h


def _reference_search(spec, directions, z_sizes, grid, max_evals=optimize.MAX_BRUTE_EVALS,
                      tables=None):
    """The full-tensor lattice search the staged one replaced, kept as its oracle.

    Each chunk forms the whole augmented tensor (B, X_1..X_M, S, V, Z...) and
    marginalizes it once per entropy.  ``tables`` replaces the orbit tables,
    so it can also score given banks.
    """
    slots = spec.channel_slots
    z_sizes = [int(z) for z in z_sizes]
    total = estimate_brute_force_evals(spec, z_sizes, grid)
    if total > max_evals:
        raise BudgetError(
            f"lattice search needs {total} evaluations "
            f"(> {max_evals}); shrink the grid or the output alphabets"
        )
    if not directions:
        raise StructuralError("brute_force_search needs at least one direction")
    for d in directions:
        if (d.m, d.j, d.l) != (spec.m, spec.j, spec.l):
            raise StructuralError("direction dimensions do not match the spec")

    m, j, l = spec.m, spec.j, spec.l
    coords = np.array([d.coords for d in directions])          # (D, K+L)
    src = spec.source.probs

    if not slots:
        # nothing to search: the objective is channel-free
        values = np.array([direct_weighted_value(spec, [], d) for d in directions])
        return values, [[] for _ in directions]

    if tables is None:
        tables = [_simplex_lattice(grid, z)[_orbit_table(grid, z, spec.x_alphabet(k).size)]
                  for k, z in zip(slots, z_sizes)]
    per_channel = [table.shape[0] for table in tables]

    # tensor axis ids with a leading batch axis; X_i is axis i
    s_axis = m + 1
    v_axis = m + 2
    z_axis = {k: m + 3 + pos for pos, k in enumerate(slots)}

    rate_keeps = []
    for i in slots:
        cond = set(range(1, j + 1))
        cond |= {z_axis[t] for t in slots if t < i}
        cond.add(s_axis)
        a = {i}
        b = {z_axis[i]}
        rate_keeps.append((
            frozenset(a | cond), frozenset(b | cond),
            frozenset(a | b | cond), frozenset(cond),
        ))
    dist_keep = sorted({*range(1, j + 1), *z_axis.values(), s_axis, v_axis})
    v_pos_in_kept = 1 + dist_keep.index(v_axis)                # after batch axis

    n_dir = len(directions)
    best = np.full(n_dir, np.inf)
    best_flat = np.zeros(n_dir, dtype=np.int64)

    reps = math.prod(per_channel)
    for start in range(0, reps, optimize.CHUNK):
        flat = np.arange(start, min(start + optimize.CHUNK, reps), dtype=np.int64)
        tensor = np.broadcast_to(src, (flat.size,) + src.shape).copy()
        per_slot = np.unravel_index(flat, per_channel)
        for pos, k in enumerate(slots):
            q = tables[pos][per_slot[pos]]                      # (B, x, z)
            shape = [flat.size] + [1] * (tensor.ndim - 1) + [z_sizes[pos]]
            shape[k] = q.shape[1]
            tensor = tensor[..., None] * q.reshape(shape)
        cache: dict = {}
        comps = []
        for keeps in rate_keeps:
            h_ac, h_bc, h_abc, h_c = (_reference_batch_entropies(tensor, ks, cache)
                                      for ks in keeps)
            comps.append(np.maximum(h_ac + h_bc - h_abc - h_c, 0.0))
        drop = tuple(ax for ax in range(1, tensor.ndim) if ax not in dist_keep)
        m_uv = tensor.sum(axis=drop) if drop else tensor
        for li in range(1, l + 1):
            d_table = spec.distortions[li - 1]
            scores = np.tensordot(m_uv, d_table, axes=([v_pos_in_kept], [0]))
            comps.append(scores.min(axis=-1).reshape(flat.size, -1).sum(axis=1))
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


def _wide_slot_spec():
    rng = np.random.default_rng(93)
    probs = rng.dirichlet(np.ones(140)).reshape(70, 1, 2)
    return ProblemSpec(0, probs, [[[0.0, 1.0], [1.0, 0.0]]])


STAGED_TOL = 1e-15   # the staged sums differ from the full tensor's in the last bits only


@pytest.mark.parametrize("name, z_sizes, grid", [
    ("bwz", [2], 14), ("bwz", [4], 14), ("bwz", [4], 3),
    ("dsbs", [2, 2], 3), ("dsbs", [4, 4], 3), ("dsbs", [4, 4], 5),
    ("helper3", [2, 2], 3), ("helper3", [4, 4], 3),
    ("wide", [1], 4), ("zero", [5, 3], 3), ("region4", [2, 2, 2, 2], 2),
])
def test_staged_search_matches_full_tensor_search(name, z_sizes, grid):
    # region4 has four slots, so V and X_>k are summed away at every position
    rng = np.random.default_rng(95)
    if name == "wide":
        spec = _wide_slot_spec()
    elif name == "zero":
        spec = zero_symbol_spec(rng)
    elif name == "region4":
        spec = region_problem_spec(1, 4)
    else:
        spec = resolve_problem(name)
    dirs = [random_direction(spec.m, spec.j, spec.l, rng) for _ in range(20)]
    values, banks = brute_force_search(spec, dirs, z_sizes, grid)
    expected, expected_banks = _reference_search(spec, dirs, z_sizes, grid)
    assert np.abs(values - expected).max() <= STAGED_TOL
    for d, bank, expected_bank, minimum in zip(dirs, banks, expected_banks, expected):
        if all(np.array_equal(a.rows, b.rows) for a, b in zip(bank, expected_bank)):
            continue
        # a different argmin must be an exact tie under the full-tensor objective
        (value,), _ = _reference_search(spec, [d], z_sizes, grid,
                                        tables=[ch.rows[None] for ch in bank])
        assert abs(value - minimum) <= STAGED_TOL


@pytest.mark.parametrize("axis", ["X1", "X2", "X3", "S", "V"])
def test_lattice_minima_do_not_move_when_symbols_are_relabeled(axis):
    # every channel row ranges over the same lattice, so relabeling a slot's
    # symbols only permutes banks; relabeling V permutes the distortion rows
    helper3 = resolve_problem("helper3")
    shape = tuple(a.size for a in (*helper3.x_alphabets, helper3.s_alphabet,
                                   helper3.v_alphabet))
    at = ["X1", "X2", "X3", "S", "V"].index(axis)
    source, distortions, _ = relabel_symbols(
        np.array(helper3.source_fractions, dtype=object).reshape(shape), helper3.distortions,
        {}, at, list(range(shape[at]))[::-1])
    relabeled = ProblemSpec(1, source, distortions)
    rng = np.random.default_rng(11)
    dirs = [random_direction(3, 1, 1, rng) for _ in range(6)]
    z_sizes = [helper3.x_alphabet(k).size for k in helper3.channel_slots]
    values, _ = brute_force_search(helper3, dirs, z_sizes, 8)
    moved, _ = brute_force_search(relabeled, dirs, z_sizes, 8)
    assert np.abs(values - moved).max() <= 1e-12


def test_descent_and_lattice_never_end_below_the_product_closed_form():
    # separable product source: the optimum is a sum of one-source
    # rate-distortion Lagrangians, written out in conftest apart from the package
    spec = binary_product_spec((0.3, 0.15))
    rng = np.random.default_rng(5)
    dirs = [random_direction(2, 0, 2, rng) for _ in range(8)]
    closed = np.array([bernoulli_lagrangian(0.3, d.rate_weight(1), d.distortion_weight(1))
                       + bernoulli_lagrangian(0.15, d.rate_weight(2), d.distortion_weight(2))
                       for d in dirs])
    constant = np.array([0.3 * d.distortion_weight(1) + 0.15 * d.distortion_weight(2)
                         for d in dirs])
    assert np.count_nonzero(closed < constant - 1e-6) >= 4     # not only the constant bank
    descent = np.array([run.objective for run, _ in _multistart_descent(
        spec, dirs, restarts=4, sweeps=50, candidates=64, seed=42)])
    lattice, _ = brute_force_search(spec, dirs, [2, 2], 12)
    assert (descent >= closed - 1e-12).all()
    assert (lattice >= closed - 1e-12).all()


def test_lattice_rates_keep_the_sign_rule(monkeypatch, dsbs):
    # lattice-row entropies read high by ``plant`` raise every H(Z_k | X_k, C), a
    # p(X_k)-weighted sum of them, by ``plant`` and so lower every slot rate by
    # it: past CMI_CLAMP the search raises, within it the minima stay put
    rng = np.random.default_rng(5)
    dirs = [random_direction(2, 0, 1, rng) for _ in range(6)]
    values, _ = brute_force_search(dsbs, dirs, [2, 2], 3)
    entropies = optimize._row_entropies
    for plant in (1e-6, 1e-12):
        monkeypatch.setattr(optimize, "_row_entropies",
                            lambda grid, z, plant=plant: entropies(grid, z) + plant)
        if plant > CMI_CLAMP:
            with pytest.raises(NumericIntegrityError, match="slot 1"):
                brute_force_search(dsbs, dirs, [2, 2], 3)
        else:
            planted, _ = brute_force_search(dsbs, dirs, [2, 2], 3)
            assert np.abs(planted - values).max() <= 1e-11


def lattice_min(spec, direction, z_sizes, grid):
    """The lattice search's minimum along one direction."""
    values, _ = brute_force_search(spec, [direction], z_sizes, grid)
    return float(values[0])


def test_brute_force_validation(dsbs, bwz):
    d1 = Direction.normalized(1, 0, 1, [1.0, 1.0])
    with pytest.raises(StructuralError):
        brute_force_search(dsbs, [], [2, 2], 2)
    with pytest.raises(StructuralError):
        brute_force_search(dsbs, [d1], [2, 2], 2)   # direction for the wrong shape
    for grid in (True, 3.0):                        # neither runs as grid 1 or 3
        with pytest.raises(StructuralError, match="grid .* is not an integer"):
            brute_force_search(bwz, [d1], [2], grid)
    assert lattice_min(bwz, d1, [2], 4) >= 0.0


def test_brute_force_without_slots():
    rng = np.random.default_rng(82)
    spec = make_spec(rng, m=1, j=1, l=1)
    d = Direction.normalized(1, 1, 1, [1.0])
    values, banks = brute_force_search(spec, [d], [], 5)
    aug = attach_channels(spec, [])
    assert banks == [[]]
    assert abs(values[0] - distortion_component(aug, 1)[0]) < 1e-12


def test_finer_grids_never_hurt(bwz, dsbs):
    d = Direction.normalized(1, 0, 1, [0.5, 0.8660254037844386])
    coarse = lattice_min(bwz, d, [2], 6)
    fine = lattice_min(bwz, d, [2], 24)       # 6 divides 24: superset lattice
    assert fine <= coarse + 1e-12
    d2 = Direction.normalized(2, 0, 1, [0.4, 0.4, 0.5])
    one = lattice_min(dsbs, d2, [2, 2], 1)
    four = lattice_min(dsbs, d2, [2, 2], 4)
    assert four <= one + 1e-12


def test_cap_versus_enlarged_lattice_consistency(bwz):
    # richer outputs on a coarser grid and binary outputs on a finer grid
    # have to land close together; far apart would mean a broken search
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    capped = lattice_min(bwz, d, [2], 24)
    enlarged = lattice_min(bwz, d, [4], 12)
    assert abs(capped - enlarged) < 2e-2


def test_single_slot_lp_beats_incumbent():
    rng = np.random.default_rng(83)
    for trial in range(5):
        spec = make_spec(rng, m=2, j=1, l=1)
        (incumbent,) = random_channels(spec, rng)
        d = random_direction(spec.m, spec.j, spec.l, rng)
        pair0 = forward_to_reverse(spec, 2, incumbent)
        ctx = FunctionalContext(spec, 2, {}, d)
        positive = pair0.weights > 0.0
        incumbent_value = pair0.weights[positive] @ theta(ctx, pair0.columns[positive])
        pair = optimize_single_channel(ctx, 32, [trial], incumbent_columns=pair0.columns[None])
        value = pair.weights[0] @ theta(ctx, pair.columns[0])
        assert value <= incumbent_value + 1e-10
        assert pair.weights.shape == (1, spec.x_alphabets[1].size)   # a stack of one
        assert np.abs(pair.mixture() - spec.x_marginal(2)).max() < 1e-9


def test_descent_scores_each_pool_in_one_theta_call(monkeypatch, helper3):
    calls = []

    def counting_theta(ctx, t):
        calls.append(np.shape(t))
        return theta(ctx, t)

    monkeypatch.setattr(optimize, "theta", counting_theta)
    rng = np.random.default_rng(87)
    chans = random_channels(helper3, rng)                  # slots 2 and 3
    d = random_direction(3, 1, 1, rng)
    ctx = FunctionalContext(helper3, 3, {2: chans[0]}, d)
    incumbent = forward_to_reverse(helper3, 3, chans[1]).columns[None]
    optimize_single_channel(ctx, 16, [0], incumbent_columns=incumbent)
    assert calls == [_candidate_pool(ctx, 16, [0], incumbent).shape]
    calls.clear()
    (result,) = coordinate_descent(helper3, d, [chans], [42], sweeps=3, candidates=16)
    assert len(calls) == result.sweeps_run * len(helper3.channel_slots)
    assert all(len(shape) == 3 and shape[0] == 1 for shape in calls)
    # a stack moves in lockstep: one call per slot step, whatever the bank count
    calls.clear()
    stack = coordinate_descent(helper3, d, default_multistart_inits(helper3, 8), range(8),
                               sweeps=3, candidates=16)
    assert len(calls) == max(run.sweeps_run for run in stack) * len(helper3.channel_slots)
    assert calls[0][0] == 8


@pytest.mark.parametrize("name", ["helper3", "bwz", "dsbs"])
def test_single_slot_pair_is_the_lp_basic_solution(name, request):
    spec = request.getfixturevalue(name)
    rng = np.random.default_rng(90)
    slots = spec.channel_slots
    for trial in range(4):
        chans = random_channels(spec, rng)
        d = random_direction(spec.m, spec.j, spec.l, rng)
        for pos, k in enumerate(slots):
            frozen = {kk: ch for kk, ch in zip(slots, chans) if kk != k}
            ctx = FunctionalContext(spec, k, frozen, d)
            incumbent = forward_to_reverse(spec, k, chans[pos]).columns
            seeds = [(trial, k, b) for b in range(3)]
            pairs = optimize_single_channel(ctx, 32, seeds,
                                            incumbent_columns=np.stack([incumbent] * 3))
            n = ctx.p_k.size
            for b, seed in enumerate(seeds):
                pool = _candidate_pool(ctx, 32, [seed], incumbent[None])[0]
                warm = range(len(pool) - len(incumbent), len(pool))  # the step's warm basis
                lp = solve_one(theta(ctx, pool), pool.T, ctx.p_k, warm)
                support = np.flatnonzero(lp.w > optimize.SUPPORT_WEIGHT_TOL)
                assert len(support) <= n
                # the support in pool order, then zero weights on its first column
                cols = pool[np.r_[support, np.repeat(support[0], n - len(support))]]
                assert pairs.columns[b].tobytes() == cols.tobytes()
                weights = np.concatenate([lp.w[support], np.zeros(n - len(support))])
                assert pairs.weights[b].tobytes() == (weights / weights.sum()).tobytes()


def _slot_contexts(name, request, rng):
    """(ctx, incumbent columns) for every slot of one random bank and direction."""
    spec = zero_symbol_spec(rng) if name == "zero-symbol" else request.getfixturevalue(name)
    slots = spec.channel_slots
    chans = random_channels(spec, rng)
    d = random_direction(spec.m, spec.j, spec.l, rng)
    for pos, k in enumerate(slots):
        frozen = {kk: ch for kk, ch in zip(slots, chans) if kk != k}
        yield FunctionalContext(spec, k, frozen, d), forward_to_reverse(spec, k, chans[pos]).columns


@pytest.mark.parametrize("name", ["helper3", "bwz", "dsbs", "zero-symbol"])
def test_candidate_pool_leads_with_the_vertex_basis(name, request):
    # the slot LP starts its simplex from the pool's first |X_k| columns
    rng = np.random.default_rng(94)
    for trial in range(10):
        for ctx, incumbent in _slot_contexts(name, request, rng):
            n = ctx.p_k.size
            eye = np.eye(n)
            near = eye[rng.integers(0, n, size=3)] + rng.choice([-1e-14, 0.0, 1e-14], size=(3, n))
            for extra in (incumbent, eye[::-1], np.vstack([near, incumbent, eye])):
                for pool in _candidate_pool(ctx, trial, [trial, trial + 1], [extra, extra]):
                    assert pool[:n].tobytes() == eye.tobytes()
    rng = np.random.default_rng(95)
    probs = rng.dirichlet(np.ones(4)).reshape(1, 2, 2)              # |X_1| = 1
    spec = ProblemSpec(0, probs, [[[0.0, 1.0], [1.0, 0.0]]])
    ctx = FunctionalContext(spec, 1, {}, Direction.normalized(1, 0, 1, [1.0, 1.0]))
    for extra in ([[1.0]], [[1.0 - 1e-14]]):
        (pool,) = _candidate_pool(ctx, 8, [0], [extra])
        assert pool.tobytes() == np.vstack([np.ones((1, 1)), extra]).tobytes()


def test_candidate_pool_layout(request, monkeypatch):
    # the head, then the draws, then the incumbent's columns as given; the
    # slot LP starts from exactly those tail positions
    for n in range(1, 6):
        eye = np.eye(n)
        rows = [*eye, *((eye[a] + eye[b]) / 2 for a, b in itertools.combinations(range(n), 2))]
        if n >= 3:
            rows.append(np.full(n, 1.0 / n))
        head = _pool_head(n)
        assert head.tobytes() == np.array(rows).tobytes()
        assert len({row.tobytes() for row in head}) == len(head)
    seen = []
    solve = optimize.solve_equality_lp
    monkeypatch.setattr(optimize, "solve_equality_lp",
                        lambda c, a, b, warm: seen.append(list(warm)) or solve(c, a, b, warm))
    rng = np.random.default_rng(98)
    for name in ("helper3", "bwz", "dsbs"):
        for seed, (ctx, columns) in enumerate(_slot_contexts(name, request, rng)):
            for incumbent in (columns, np.eye(ctx.p_k.size), np.vstack([columns, columns])):
                stack = np.stack([incumbent, incumbent[::-1]])
                pools = _candidate_pool(ctx, 8, [seed, seed + 1], stack)
                tail = pools.shape[1] - len(incumbent)
                assert pools[:, tail:].tobytes() == stack.tobytes()
                optimize_single_channel(ctx, 8, [seed, seed + 1], incumbent_columns=stack)
                assert seen.pop() == list(range(tail, pools.shape[1]))


@pytest.mark.parametrize("n", range(2, 10))
def test_candidate_pool_draws_are_numpys_dirichlet(n):
    # the pool normalizes unit exponential draws by their left-to-right row
    # sums, as the installed numpy's Dirichlet(1) does: 8 or more terms too,
    # where numpy's own sum would pair them.  A numpy that draws Dirichlet
    # vectors another way fails here
    rng = np.random.default_rng(110)
    probs = rng.dirichlet(np.ones(2 * n)).reshape(n, 1, 2)          # |X_1| = n
    spec = ProblemSpec(0, probs, [[[0.0, 1.0], [1.0, 0.0]]])
    ctx = FunctionalContext(spec, 1, {}, Direction.normalized(1, 0, 1, [1.0, 1.0]))
    seeds = [0, (5, 1, 2), ((2**40 + 5, 3, 7), 11, 3)]
    head = len(_pool_head(n))
    for candidates in (1, 64):
        pools = _candidate_pool(ctx, candidates, seeds, [np.eye(n)] * len(seeds))
        for seed, pool in zip(seeds, pools):
            draws = np.random.Generator(np.random.PCG64(seed)).dirichlet(np.ones(n),
                                                                         size=candidates)
            assert pool[head:head + candidates].tobytes() == draws.tobytes()


@pytest.mark.parametrize("name", ["helper3", "bwz", "dsbs", "zero-symbol"])
def test_slot_lp_matches_highs(name, request):
    # an outside solver on real slot LPs: theta costs over the candidate pool
    optimize_mod = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(96)
    solved = 0
    while solved < 100:
        for ctx, incumbent in _slot_contexts(name, request, rng):
            (pool,) = _candidate_pool(ctx, 32, [solved], incumbent[None])
            values = theta(ctx, pool)
            lp = solve_one(values, pool.T, ctx.p_k)
            warm = solve_one(values, pool.T, ctx.p_k,
                                     range(len(pool) - len(incumbent), len(pool)))
            ref = optimize_mod.linprog(values, A_eq=pool.T, b_eq=ctx.p_k, bounds=(0, None),
                                       method="highs")
            assert ref.status == 0
            for result in (lp, warm):
                assert abs(result.value - ref.fun) <= 1e-9
                assert np.count_nonzero(result.w) <= ctx.p_k.size
            solved += 1


@pytest.mark.parametrize("name", ["helper3", "bwz", "dsbs"])
def test_slot_step_never_ends_above_its_incumbent(name, request, monkeypatch):
    # every step of seeded descents: the LP that starts from the incumbent's
    # basis ends at or below the incumbent's theta mixture
    spec = request.getfixturevalue(name)
    checked = []
    step = optimize.optimize_single_channel

    def checking_step(ctx, candidates, seeds, *, incumbent_columns):
        # each bank's incumbent value: a mixture of its columns that gives p_k
        # (repeated columns share one theta value, so the split does not matter)
        weights = [np.linalg.lstsq(cols.T, ctx.p_k, rcond=None)[0]
                   for cols in incumbent_columns]
        incumbent_values = (np.array(weights) * theta(ctx, incumbent_columns)).sum(axis=1)
        pools = _candidate_pool(ctx, candidates, seeds, incumbent_columns)
        size = pools.shape[1]
        for b, (pool, values) in enumerate(zip(pools, theta(ctx, pools))):
            lp = solve_one(values, pool.T, ctx.p_k,
                                   range(size - incumbent_columns.shape[1], size))
            checked.append(lp.value - incumbent_values[b])
        return step(ctx, candidates, seeds, incumbent_columns=incumbent_columns)

    monkeypatch.setattr(optimize, "optimize_single_channel", checking_step)
    rng = np.random.default_rng(97)
    while len(checked) < 80:
        d = random_direction(spec.m, spec.j, spec.l, rng)
        banks = [random_channels(spec, rng) for _ in range(3)]
        coordinate_descent(spec, d, banks, [(len(checked), b) for b in range(3)], sweeps=8,
                           candidates=16)
    assert max(checked) <= 1e-12


def test_slot_lp_support_fits_the_support_of_p_k(monkeypatch):
    # Caratheodory on the support: a slot LP's mixture reaches p_k, so a basic
    # optimum has at most as many columns as p_k has positive symbols, and a
    # zero-probability symbol makes that bound tighter than |X_k|
    steps = []
    step = optimize.optimize_single_channel

    def counting_step(ctx, candidates, seeds, *, incumbent_columns):
        pairs = step(ctx, candidates, seeds, incumbent_columns=incumbent_columns)
        steps.extend((np.count_nonzero(weights), np.count_nonzero(ctx.p_k), ctx.p_k.size)
                     for weights in pairs.weights)
        return pairs

    monkeypatch.setattr(optimize, "optimize_single_channel", counting_step)
    rng = np.random.default_rng(99)
    for _ in range(30):
        spec = zero_symbol_spec(rng)
        d = random_direction(spec.m, spec.j, spec.l, rng)
        inits = default_multistart_inits(spec, 4, seed=int(rng.integers(1 << 16)))
        with warnings.catch_warnings():      # the spec warned once, at build
            warnings.simplefilter("error", DegeneracyWarning)
            coordinate_descent(spec, d, inits, range(4), candidates=16)
    assert len(steps) >= 400
    assert all(size <= support for size, support, _ in steps)
    assert any(support < symbols for _, support, symbols in steps)


def test_single_slot_lp_requires_direction():
    rng = np.random.default_rng(84)
    spec = make_spec(rng, m=1, j=0, l=1)
    with pytest.raises(TypeError):
        FunctionalContext(spec, 1, {})          # a slot LP has no context without one
    with pytest.raises(StructuralError):
        FunctionalContext(spec, 1, {}, Direction.normalized(2, 0, 1, [1.0, 1.0, 1.0]))


def test_single_slot_lp_validates_incumbent_shape():
    rng = np.random.default_rng(86)
    spec = make_spec(rng, m=1, j=0, l=1)
    n = spec.x_alphabets[0].size
    ctx = FunctionalContext(spec, 1, {}, random_direction(1, 0, 1, rng))
    for bad in (np.ones(n) / n, np.ones((2, n + 1)) / (n + 1), np.eye(n),   # not stacks
                np.ones((1, 2, n + 1)) / (n + 1), np.stack([np.eye(n)] * 2)):
        with pytest.raises(StructuralError):       # the last has two banks for one seed
            optimize_single_channel(ctx, 4, [0], incumbent_columns=bad)
    with pytest.raises(TypeError):                  # the incumbent is keyword-only and required
        optimize_single_channel(ctx, 4, [0], np.eye(n)[None])
    with pytest.raises(TypeError):
        optimize_single_channel(ctx, 4, [0])


def test_lp_matches_two_point_envelope(bwz):
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    ctx = FunctionalContext(bwz, 1, {}, d)
    pair = optimize_single_channel(ctx, 64, [0], incumbent_columns=np.eye(2)[None])
    lp_value = pair.weights[0] @ theta(ctx, pair.columns[0])
    # oracle: dense two-point mixtures hitting the marginal (0.5, 0.5)
    grid = np.linspace(0.0, 1.0, 401)
    vals = np.array([theta(ctx, [[u, 1.0 - u]])[0] for u in grid])
    ui = grid[:, None]
    uj = grid[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(ui != uj, (0.5 - uj) / np.where(ui != uj, ui - uj, 1.0), -1.0)
    mix = lam * vals[:, None] + (1.0 - lam) * vals[None, :]
    ok = (lam >= 0.0) & (lam <= 1.0)
    envelope = float(np.where(ok, mix, np.inf).min())
    assert lp_value >= envelope - 5e-3
    assert lp_value <= envelope + 5e-2
    # distortion-only direction: copying the source is free of distortion
    d0 = Direction.normalized(1, 0, 1, [0.0, 1.0])
    ctx0 = FunctionalContext(bwz, 1, {}, d0)
    pair0 = optimize_single_channel(ctx0, 16, [0], incumbent_columns=np.eye(2)[None])
    value0 = pair0.weights[0] @ theta(ctx0, pair0.columns[0])
    assert abs(value0) < 1e-9


def test_descent_monotone_trace():
    rng = np.random.default_rng(85)
    for trial in range(4):
        spec = make_spec(rng, m=2, j=int(rng.integers(0, 2)), l=1)
        d = random_direction(spec.m, spec.j, spec.l, rng)
        init = random_channels(spec, rng)
        (result,) = coordinate_descent(spec, d, [init], [trial], sweeps=8,
                                       candidates=24)
        diffs = np.diff(result.trace)
        assert diffs.max(initial=-np.inf) <= 1e-10
        assert result.objective == result.trace[-1]
        assert result.sweeps_run <= 8
        for ch, k in zip(result.channels, spec.channel_slots):
            assert ch.rows.shape[-1] <= spec.x_alphabet(k).size


def test_descent_validation(dsbs):
    d = Direction.normalized(2, 0, 1, [1.0, 1.0, 1.0])
    rng = np.random.default_rng(86)
    init = random_channels(dsbs, rng)
    with pytest.raises(StructuralError):
        coordinate_descent(dsbs, d, [init, init[:1]], [0, 1])
    with pytest.raises(StructuralError):
        coordinate_descent(dsbs, d, [init], [0], sweeps=0)
    for inits, seeds in (([init], [0, 1]), ([init, init], [0]), ([], [])):
        with pytest.raises(StructuralError, match="one seed per initial bank"):
            coordinate_descent(dsbs, d, inits, seeds)
    with pytest.raises(StructuralError, match="does not read"):    # slot 1 fed slot 2's
        coordinate_descent(dsbs, d, [init, init[::-1]], [0, 1])
    three = Direction(2, 0, 1, np.tile(d.rate_weights, (3, 1)),
                      np.tile(d.distortion_weights, (3, 1)))
    with pytest.raises(StructuralError, match="one direction row per initial bank"):
        coordinate_descent(dsbs, three, [init, init], [0, 1])
    stack = Channel(init[0].input, [init[0].rows] * 2)
    with pytest.raises(StructuralError, match="stacks differ in size"):
        FunctionalContext(dsbs, 2, {1: stack}, three)


def test_descent_dominates_lattice_argmin(bwz, dsbs):
    rng = np.random.default_rng(87)
    d = random_direction(1, 0, 1, rng)
    values, banks = brute_force_search(bwz, [d], [2], 12)
    (run,) = coordinate_descent(bwz, d, [banks[0]], [0], sweeps=20)
    assert run.objective <= values[0] + 1e-9
    d2 = random_direction(2, 0, 1, rng)
    values2, banks2 = brute_force_search(dsbs, [d2], [2, 2], 6)
    (run2,) = coordinate_descent(dsbs, d2, [banks2[0]], [0], sweeps=20)
    assert run2.objective <= values2[0] + 1e-9


def test_default_multistart_inits(dsbs):
    inits = default_multistart_inits(dsbs, 4, seed=1)
    assert len(inits) == 4
    assert np.array_equal(inits[0][0].rows, np.eye(2))
    assert inits[1][0].rows.shape[-1] == 1
    for bank in inits:
        assert len(bank) == 2
        for ch, k in zip(bank, dsbs.channel_slots):
            assert ch.input == dsbs.x_alphabet(k)
    assert len(default_multistart_inits(dsbs, 1)) == 1
    with pytest.raises(StructuralError):
        default_multistart_inits(dsbs, 0)
    # same seed, same banks
    again = default_multistart_inits(dsbs, 4, seed=1)
    assert all(
        np.array_equal(a.rows, b.rows)
        for x, y in zip(inits, again) for a, b in zip(x, y)
    )


def test_alphabet_bound_small_budget_fits_grid(dsbs, monkeypatch):
    rng = np.random.default_rng(88)
    d = random_direction(2, 0, 1, rng)
    monkeypatch.setattr(optimize, "MAX_BRUTE_EVALS", 500)
    report = verify_alphabet_bound(dsbs, [d], grid=3, restarts=1, sweeps=3, candidates=16)
    assert report.capped_grid == 3            # 4 points per row, 256 banks
    assert report.enlarged_grid == 1          # grid 3 on |Z|=4 blows the budget
    assert report.capped_sizes == (2, 2)
    assert report.enlarged_sizes == (4, 4)
    assert len(report.entries) == 1
    e = report.entries[0]
    assert e.margin == e.capped_value - e.enlarged_value
    monkeypatch.setattr(optimize, "MAX_BRUTE_EVALS", 3)
    with pytest.raises(BudgetError):
        verify_alphabet_bound(dsbs, [d], grid=3)


def test_alphabet_bound_rejects_nonpositive_grid(bwz):
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    for grid in (0, -3):
        with pytest.raises(StructuralError, match="grid must be >= 1"):
            verify_alphabet_bound(bwz, [d], grid=grid)
    for grid in (True, 3.0):
        with pytest.raises(StructuralError, match="grid .* is not an integer"):
            verify_alphabet_bound(bwz, [d], grid=grid)


def _linear_fit_grid(spec, z_sizes, grid):
    """The scan from the requested grid down that the bisection replaced."""
    return next((g for g in range(grid, 0, -1)
                 if estimate_brute_force_evals(spec, z_sizes, g) <= optimize.MAX_BRUTE_EVALS),
                None)


@pytest.mark.parametrize("budget", [1, 40, 500, 100_000, optimize.MAX_BRUTE_EVALS])
def test_fit_grid_matches_the_linear_scan(budget, bwz, dsbs, monkeypatch):
    monkeypatch.setattr(optimize, "MAX_BRUTE_EVALS", budget)
    for spec, sizes in ((bwz, [[1], [2], [3], [4], [6]]),
                        (dsbs, [[1, 1], [1, 4], [2, 2], [3, 2], [4, 4]])):
        for z_sizes in sizes:
            for grid in (*range(1, 41), 97, 250):
                expected = _linear_fit_grid(spec, z_sizes, grid)
                if expected is None:
                    with pytest.raises(BudgetError):
                        optimize._fit_grid(spec, z_sizes, grid)
                else:
                    assert optimize._fit_grid(spec, z_sizes, grid) == expected, \
                        (z_sizes, grid)


def test_fit_grid_bisects_a_huge_grid(bwz, monkeypatch):
    # O(log grid) estimates; a scan from 10**12 down stops at the first call over the limit
    limit = math.ceil(math.log2(10**12)) + 1
    calls = []
    estimate = optimize.estimate_brute_force_evals

    def counting(spec, z_sizes, grid):
        calls.append(grid)
        assert len(calls) <= limit, "more estimates than a bisection makes"
        return estimate(spec, z_sizes, grid)

    monkeypatch.setattr(optimize, "estimate_brute_force_evals", counting)
    assert optimize._fit_grid(bwz, [2], 10**12) == 3871      # 3872 ** 2 <= 15M < 3873 ** 2


def test_negative_candidates_and_nonpositive_restarts_rejected(bwz):
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    ctx = FunctionalContext(bwz, 1, {}, d)
    with pytest.raises(StructuralError, match="candidates must be >= 0"):
        optimize_single_channel(ctx, -5, [0], incumbent_columns=np.eye(2)[None])
    # vertices, midpoint, incumbent
    assert _candidate_pool(ctx, 0, [0], np.eye(2)[None]).shape == (1, 5, 2)
    for restarts in (0, -3):
        with pytest.raises(StructuralError, match="restarts must be >= 1"):
            verify_alphabet_bound(bwz, [d], grid=4, restarts=restarts)
    assert verify_alphabet_bound(bwz, [d], grid=4, restarts=1, sweeps=3).passed


@pytest.mark.parametrize("bad, message", [
    ({"sweeps": 0}, "sweeps must be >= 1"),
    ({"candidates": -1}, "candidates must be >= 0"),
])
def test_alphabet_bound_refuses_bad_settings_before_any_search(bwz, monkeypatch, bad, message):
    calls = []
    search = optimize.brute_force_search
    monkeypatch.setattr(optimize, "brute_force_search",
                        lambda *a, **k: calls.append(1) or search(*a, **k))
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    with pytest.raises(StructuralError, match=message):
        verify_alphabet_bound(bwz, [d], grid=4, **bad)
    assert calls == []


def test_alphabet_bound_runs_restarts_descents(bwz, monkeypatch):
    # every default multistart bank of every direction descends in one call:
    # ``restarts`` banks per direction, all in one stack
    calls = []
    descent = optimize.coordinate_descent
    monkeypatch.setattr(optimize, "coordinate_descent",
                        lambda s, d, inits, seeds, **k: calls.append(len(inits))
                        or descent(s, d, inits, seeds, **k))
    dirs = [Direction.normalized(1, 0, 1, w) for w in ([0.6, 0.8], [0.8, 0.6])]
    for restarts in (1, 2, 3):
        calls.clear()
        verify_alphabet_bound(bwz, dirs, grid=4, restarts=restarts, sweeps=3)
        assert sum(calls) == restarts * len(dirs)
        assert calls == [restarts * len(dirs)]


@pytest.mark.parametrize("name, weights", [
    ("helper3", None), ("bwz", None),
    # the golden corpus's mixed dsbs set: a direction with a zero weight keeps
    # fewer outputs in some channel than the others do
    ("dsbs", ([0, 1, 4], [1, 1, 15], [2, 0, 5], [1, 2, 0]))])
@pytest.mark.parametrize("restarts", [1, 3, 8])
def test_fused_descent_matches_one_stack_per_direction(name, weights, restarts, request,
                                                       monkeypatch):
    # every restart of every direction descends in one stack, a repeated
    # direction included, and each direction ends with the bits of a stack of
    # its own restarts: the winner's trace and channels and its restart index
    spec = request.getfixturevalue(name)
    rng = np.random.default_rng(107)
    dirs = ([random_direction(spec.m, spec.j, spec.l, rng) for _ in range(4)] if weights is None
            else [Direction.normalized(spec.m, spec.j, spec.l, w) for w in weights])
    dirs.append(dirs[1])
    calls = []
    descent = optimize.coordinate_descent
    monkeypatch.setattr(optimize, "coordinate_descent",
                        lambda *a, **k: calls.append(len(a[2])) or descent(*a, **k))
    fused = _multistart_descent(spec, dirs, restarts, sweeps=50, candidates=64, seed=9)
    assert calls == [restarts * 5]
    inits = default_multistart_inits(spec, restarts, seed=9)
    for idx, (d, (run, winner)) in enumerate(zip(dirs, fused)):
        own = descent(spec, d, inits, [(9, idx, r) for r in range(restarts)])
        best = min(range(restarts), key=lambda r: own[r].objective)
        assert winner == best
        assert run.trace == own[best].trace
        assert [ch.rows.tobytes() for ch in run.channels] == [
            ch.rows.tobytes() for ch in own[best].channels]


def test_alphabet_bound_descends_only_from_default_multistarts(dsbs, monkeypatch):
    banks = []
    descent = optimize.coordinate_descent
    monkeypatch.setattr(optimize, "coordinate_descent",
                        lambda s, d, inits, seeds, **k: banks.extend(inits)
                        or descent(s, d, inits, seeds, **k))
    dirs = [Direction.normalized(2, 0, 1, w) for w in ([1.0, 0.3, 16.0], [0.5, 0.2, 2.0])]
    verify_alphabet_bound(dsbs, dirs, grid=3, restarts=4, sweeps=3, seed=5)
    expected = default_multistart_inits(dsbs, 4, seed=5)
    assert len(banks) == 4 * len(dirs)
    for pos, bank in enumerate(banks):
        assert [ch.rows.tolist() for ch in bank] == [ch.rows.tolist() for ch in expected[pos % 4]]


def test_alphabet_bound_fails_when_descent_ends_above_both_lattices(bwz, monkeypatch):
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    assert verify_alphabet_bound(bwz, [d], grid=12, restarts=2, sweeps=10).passed
    descent = optimize.coordinate_descent

    def planted(*a, **k):                   # every restart of the stack ends 0.02 higher
        return optimize.DescentStack(tuple(
            optimize.OptimizeResult(run.channels, (*run.trace[:-1], run.trace[-1] + 0.02))
            for run in descent(*a, **k)))
    monkeypatch.setattr(optimize, "coordinate_descent", planted)
    report = verify_alphabet_bound(bwz, [d], grid=12, restarts=2, sweeps=10)
    (entry,) = report.entries
    assert not report.passed and not entry.passed
    assert entry.capped_value - entry.capped_lattice_value > 1e-2
    assert entry.margin > 1e-2


def test_alphabet_bound_fails_when_descent_misses_the_capped_lattice(bwz, monkeypatch):
    # a capped lattice 0.05 lower than descent fails the direction although the
    # enlarged comparison alone would pass
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    search = optimize.brute_force_search

    def capped_lower(spec, directions, z_sizes, grid):
        values, banks = search(spec, directions, z_sizes, grid)
        return (values - 0.05 if list(z_sizes) == [2] else values), banks
    monkeypatch.setattr(optimize, "brute_force_search", capped_lower)
    (entry,) = verify_alphabet_bound(bwz, [d], grid=12, restarts=1).entries
    assert entry.margin <= 1e-2
    assert entry.capped_value - entry.capped_lattice_value > 1e-2
    assert not entry.passed


def test_alphabet_bound_verifies_on_single_source(bwz):
    rng = np.random.default_rng(89)
    dirs = [random_direction(1, 0, 1, rng) for _ in range(3)]
    report = verify_alphabet_bound(bwz, dirs, grid=16, restarts=2, sweeps=15)
    assert report.capped_grid == 16 and report.enlarged_grid == 16
    assert report.passed
    assert max(e.margin for e in report.entries) <= 1e-2
    for e in report.entries:
        assert e.passed and e.capped_value <= e.enlarged_value + 1e-2


def test_alphabet_bound_needs_slots():
    rng = np.random.default_rng(90)
    spec = make_spec(rng, m=1, j=1, l=1)
    with pytest.raises(StructuralError):
        verify_alphabet_bound(spec, [Direction.normalized(1, 1, 1, [1.0])])


def test_trace_reports_requested_corner(dsbs):
    rng = np.random.default_rng(91)
    d = random_direction(2, 0, 1, rng)
    (point,) = trace_inner_bound(dsbs, [d], perm=(2, 1), restarts=2, sweeps=8)
    aug = attach_channels(dsbs, point.result.channels)
    assert np.abs(point.rates - corner_point(aug, (2, 1))).max() < 1e-12
    assert abs(point.distortions[0] - distortion_component(aug, 1)[0]) < 1e-12
    assert point.restart_index in (0, 1)
    # the optimized objective itself is reported off the natural order
    natural = corner_point(aug, (1, 2))
    expected = (
        d.rate_weight(1) * natural[0]
        + d.rate_weight(2) * natural[1]
        + d.distortion_weight(1) * float(point.distortions[0])
    )
    assert abs(point.result.objective - expected) < 1e-9


@pytest.mark.parametrize("perm", [None, (3, 1, 2)])
def test_trace_points_carry_the_winners_corner(helper3, perm):
    rng = np.random.default_rng(92)
    dirs = [random_direction(3, 1, 1, rng) for _ in range(2)]
    points = trace_inner_bound(helper3, dirs, perm=perm, restarts=3, sweeps=4,
                               candidates=16, seed=5)
    inits = default_multistart_inits(helper3, 3, seed=5)
    for idx, (d, point) in enumerate(zip(dirs, points)):
        # oracle: every restart by hand; the point keeps the first best one
        objectives = [run.objective for run in coordinate_descent(
            helper3, d, inits, [(5, idx, r) for r in range(3)], sweeps=4, candidates=16)]
        assert point.restart_index == objectives.index(min(objectives))
        assert point.result.objective == min(objectives)
        aug = attach_channels(helper3, point.result.channels)
        assert np.array_equal(point.rates, corner_point(aug, perm or (1, 2, 3)))
        assert np.array_equal(point.distortions, [distortion_component(aug, 1)[0]])


def test_trace_direction_shape_checked(dsbs):
    with pytest.raises(StructuralError):
        trace_inner_bound(dsbs, [Direction.normalized(1, 0, 1, [1.0, 1.0])])


def test_no_directions_descend_nothing(dsbs, monkeypatch):
    # an empty direction list: trace reports no point, and the alphabet bound
    # refuses it as its lattice search does; neither descends
    calls = []
    descent = optimize.coordinate_descent
    monkeypatch.setattr(optimize, "coordinate_descent",
                        lambda *a, **k: calls.append(1) or descent(*a, **k))
    assert trace_inner_bound(dsbs, []) == []
    with pytest.raises(StructuralError, match="needs at least one direction"):
        verify_alphabet_bound(dsbs, [], grid=3)
    assert calls == []


@pytest.mark.parametrize("name", ["bwz", "dsbs", "helper3"])
def test_enlarged_bank_descends_within_the_alphabet_bound(name, request):
    # a bank with |X_k| + 2 outputs per slot descends in one stack with the
    # default inits, every bank padded to its width: it starts from its own
    # value, one sweep of the pool head alone leaves at most |X_k| outputs in
    # every reported channel, and no bank ends above where it started
    spec = request.getfixturevalue(name)
    slots = spec.channel_slots
    rng = np.random.default_rng(113)
    for trial in range(3):
        d = random_direction(spec.m, spec.j, spec.l, rng)
        enlarged = random_channels(spec, rng, [spec.x_alphabet(k).size + 2 for k in slots])
        inits = [*default_multistart_inits(spec, 4, seed=trial), enlarged]
        runs = coordinate_descent(spec, d, inits, [(trial, b) for b in range(len(inits))],
                                  sweeps=1, candidates=0)
        for init, run in zip(inits, runs):
            start = direct_weighted_value(spec, init, d)
            assert abs(run.trace[0] - start) <= 1e-12
            assert run.objective <= start + 1e-12
            assert abs(direct_weighted_value(spec, run.channels, d) - run.objective) <= 1e-12
            for k, ch in zip(slots, run.channels):
                assert ch.rows.shape[-1] <= spec.x_alphabet(k).size
        assert runs[-1].objective < runs[-1].trace[0]      # the enlarged bank moved


def test_quarter_circle_sweep_is_monotone(bwz):
    angles = np.linspace(0.0, np.pi / 2, 9)
    dirs = [
        Direction.normalized(1, 0, 1, [math.cos(a), math.sin(a)]) for a in angles
    ]
    points = trace_inner_bound(bwz, dirs, restarts=3, sweeps=15, seed=1)
    rates = [float(p.rates[0]) for p in points]
    dists = [float(p.distortions[0]) for p in points]
    for a, b in zip(rates, rates[1:]):
        assert b >= a - 1e-9
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-9
    # endpoints: rate-only weight sits at zero rate, distortion-only at zero loss
    assert rates[0] < 1e-9
    assert dists[-1] < 1e-9


@pytest.mark.parametrize("name", ["helper3", "bwz", "dsbs", "zero-symbol"])
def test_lockstep_descent_matches_each_bank_alone(name, request):
    # every bank of a stack of the default multistarts descends as it does in a
    # stack of one, bit for bit: same sweeps, same trace, same channels; the
    # constant bank stops after one sweep while the others go on, so banks
    # leave the stack at different sweeps
    rng = np.random.default_rng(101)
    spec = zero_symbol_spec(rng) if name == "zero-symbol" else request.getfixturevalue(name)
    inits = default_multistart_inits(spec, 8)
    d = random_direction(spec.m, spec.j, spec.l, rng)
    seeds = [(5, r) for r in range(len(inits))]
    stack = coordinate_descent(spec, d, inits, seeds, candidates=32)
    assert isinstance(stack, optimize.DescentStack) and len(stack) == len(inits)
    assert stack.sweeps_run == sum(run.sweeps_run for run in stack)
    assert stack[1].sweeps_run == 1 and len({run.sweeps_run for run in stack}) > 1
    for init, seed, run in zip(inits, seeds, stack):
        (alone,) = coordinate_descent(spec, d, [init], [seed], candidates=32)
        assert run.sweeps_run == alone.sweeps_run
        assert run.trace == alone.trace
        for ch, solo in zip(run.channels, alone.channels):
            assert ch.rows.shape == solo.rows.shape
            assert ch.rows.tobytes() == solo.rows.tobytes()


@pytest.mark.parametrize("name", ["helper3", "zero-symbol"])
def test_banks_that_finish_together_keep_their_own_outputs(name, request, monkeypatch):
    # banks that stop in the same sweep finish together: each run's channels
    # are reverse_to_forward of its own last pairs, bit for bit, cut to the
    # outputs those pairs weigh, so no bank keeps an output of another, and a
    # zero-probability symbol's row is uniform over the bank's own outputs
    rng = np.random.default_rng(111)
    spec = zero_symbol_spec(rng) if name == "zero-symbol" else request.getfixturevalue(name)
    slots = spec.channel_slots
    inits = default_multistart_inits(spec, 8)
    coords = np.repeat([random_direction(spec.m, spec.j, spec.l, rng).coords
                        for _ in range(2)], len(inits), axis=0)
    d = Direction(spec.m, spec.j, spec.l, coords[:, :spec.m - spec.j], coords[:, spec.m - spec.j:])
    seeds = [(6, b) for b in range(len(coords))]
    last = {}                             # (bank seed, slot) -> the bank's last pair
    step = optimize.optimize_single_channel

    def recorded(ctx, candidates, step_seeds, **kwargs):
        pairs = step(ctx, candidates, step_seeds, **kwargs)
        for (seed, _, k), w, columns in zip(step_seeds, pairs.weights, pairs.columns):
            last[seed, k] = ReverseChannelPair(w, columns)
        return pairs

    monkeypatch.setattr(optimize, "optimize_single_channel", recorded)
    together = {}                         # (sweeps, sweep) -> kept outputs of the banks it stops
    for sweeps in (1, 50):                # one sweep stops every bank at once
        runs = coordinate_descent(spec, d, inits * 2, seeds, sweeps=sweeps, candidates=32)
        for seed, run in zip(seeds, runs):
            kept = tuple((last[seed, k].weights > 0.0).tobytes() for k in slots)
            together.setdefault((sweeps, run.sweeps_run), []).append(kept)
            for k, ch in zip(slots, run.channels):
                own = reverse_to_forward(spec, k, last[seed, k])
                assert ch.rows.tobytes() == own.rows[:, last[seed, k].weights > 0.0].tobytes()
                if name == "zero-symbol" and k == 1:
                    assert (ch.rows[2] == 1.0 / ch.rows.shape[-1]).all()
    # some sweep stops banks of different kept outputs and, with them, equal ones
    assert any(1 < len(set(kept)) < len(kept) for kept in together.values())
