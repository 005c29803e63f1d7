from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from canonical_region import functionals
from canonical_region import (
    Alphabet,
    Channel,
    Direction,
    FunctionalContext,
    StructuralError,
    attach_channels,
    constant_channel,
    corner_point,
    direct_weighted_value,
    distortion_component,
    entropy,
    forward_to_reverse,
    identity_channel,
    identity_permutation,
    mi_sets,
    random_channels,
    random_direction,
    theta,
    verify_linear_decomposition,
)
from canonical_region.augment import MARGINAL_TOL, channel_product
from canonical_region.functionals import check_simplex_point
from conftest import (
    axis_mask,
    estimator_distortion,
    layout_axes,
    make_spec,
    region_problem_spec,
    theta_reference,
    zero_symbol_spec,
)


def test_direction_validation():
    d = Direction(2, 0, 1, np.array([0.6, 0.8]) / np.sqrt(2.0),
                  np.array([1.0]) / np.sqrt(2.0))
    assert abs(np.linalg.norm(d.coords) - 1.0) < 1e-12
    with pytest.raises(StructuralError):
        Direction(2, 0, 1, np.array([1.0, 1.0]), np.array([1.0]))  # not unit norm
    with pytest.raises(StructuralError):
        Direction(2, 0, 1, np.array([1.0]), np.array([0.0]))       # wrong shape
    with pytest.raises(StructuralError):
        Direction.normalized(2, 0, 1, [1.0, -1.0, 0.5])
    with pytest.raises(StructuralError):
        Direction.normalized(2, 0, 1, [0.0, 0.0, 0.0])
    d = Direction.normalized(2, 1, 2, [3.0, 0.0, 4.0])
    assert abs(d.rate_weight(2) - 0.6) < 1e-12
    assert abs(d.distortion_weight(2) - 0.8) < 1e-12
    with pytest.raises(StructuralError):
        d.rate_weight(1)                                           # lossless side
    with pytest.raises(StructuralError):
        d.distortion_weight(3)
    rng = np.random.default_rng(0)
    r = random_direction(3, 1, 2, rng)
    assert abs(np.linalg.norm(r.coords) - 1.0) < 1e-12
    assert r.coords.min() >= 0.0


def direction_rows(d, rows):
    """The rows ``rows`` of a direction stack, as a stack."""
    return Direction(d.m, d.j, d.l, d.rate_weights[rows], d.distortion_weights[rows])


def test_direction_stack_is_checked_row_by_row():
    rows = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    d = Direction(2, 0, 1, rows[:, :2], rows[:, 2:])
    assert d.coords.tolist() == rows.tolist()
    assert d.rate_weight(2).tolist() == [0.0, 1.0, 0.0]
    assert d.distortion_weight(1).tolist() == [0.8, 0.0, 1.0]
    negative = rows * [[1.0], [1.0], [-1.0]]                  # one unit row with a weight < 0
    with pytest.raises(StructuralError, match="finite and >= 0"):
        Direction(2, 0, 1, negative[:, :2], negative[:, 2:])
    long = np.vstack([rows, [[1.0, 1.0, 0.0]]])               # one row of norm sqrt(2)
    with pytest.raises(StructuralError, match=r"unit 2-norm; a row is off by 0\.414"):
        Direction(2, 0, 1, long[:, :2], long[:, 2:])
    for rates, dists in ((rows[:, :2], rows[:2, 2:]),        # 3 rate rows, 2 distortion rows
                         (rows[:, :2], rows[0, 2:]),          # a stack and one direction
                         (rows[None, :, :2], rows[None, :, 2:])):   # a stack of stacks
        with pytest.raises(StructuralError, match="per row"):
            Direction(2, 0, 1, rates, dists)


@pytest.mark.parametrize("name", ["helper3", "dsbs", "bwz", "region-m5"])
def test_a_direction_stack_scores_each_bank_as_alone(name, request):
    # unit directions along every coordinate, a flat one and the flat one
    # without each coordinate, so each law and each risk has weight 0 in some
    # banks; every bank of the stack gets the bits of a stack of one with its
    # own direction, in theta and directly.  On M = 5 a bank that weighs no
    # rate at slot i - 1 names U_i's law after X_i's when alone, and before it
    # beside a bank that weighs slot i - 1: laws keep one order whatever the
    # weights, so its terms add in one order
    spec = region_problem_spec(1, 5) if name == "region-m5" else request.getfixturevalue(name)
    slots = spec.channel_slots
    eye = np.eye(spec.m - spec.j + spec.l)
    holes = (1.0 - eye) / (len(eye) - 1) ** 0.5
    coords = np.vstack([eye, eye[::-1], np.full(len(eye), len(eye) ** -0.5), holes])
    d = Direction(spec.m, spec.j, spec.l, coords[:, :spec.m - spec.j], coords[:, spec.m - spec.j:])
    rng = np.random.default_rng(105)
    banks = [random_channels(spec, rng) for _ in coords]
    stacks = [Channel(spec.x_alphabet(k), [bank[pos].rows for bank in banks])
              for pos, k in enumerate(slots)]

    def alone(b: int) -> list[Channel]:
        return [Channel(ch.input, ch.rows[b:b + 1]) for ch in stacks]

    values = direct_weighted_value(spec, stacks, d)
    for b in range(len(coords)):
        one = direct_weighted_value(spec, alone(b), direction_rows(d, [b]))
        assert values[b:b + 1].tobytes() == one.tobytes()
    for pos, k in enumerate(slots):
        pools = rng.dirichlet(np.ones(spec.x_alphabet(k).size), size=(len(coords), 40))
        ctx = FunctionalContext(spec, k, dict(zip(slots[:pos] + slots[pos + 1:],
                                                  stacks[:pos] + stacks[pos + 1:])), d)
        scores = theta(ctx, pools)
        for b in range(len(coords)):
            frozen = alone(b)
            one = FunctionalContext(spec, k, dict(zip(slots[:pos] + slots[pos + 1:],
                                                      frozen[:pos] + frozen[pos + 1:])),
                                    direction_rows(d, [b]))
            assert scores[b:b + 1].tobytes() == theta(one, pools[b:b + 1]).tobytes()


def test_theta_scores_a_large_stack_in_bounded_blocks(helper3, monkeypatch):
    # one direction over more banks than one block holds: each block's product
    # stays within THETA_BLOCK_CELLS, and every block has the bits it has alone
    rng = np.random.default_rng(106)
    d = random_direction(helper3.m, helper3.j, helper3.l, rng)
    probe = FunctionalContext(helper3, 2, {3: random_channels(helper3, rng)[1]}, d)
    rows, width = 69, probe._map.shape[-1]
    per_block = functionals.THETA_BLOCK_CELLS // (rows * width)
    banks = 2 * per_block + 3
    assert per_block >= 1
    slot3 = Channel(helper3.x_alphabet(3), [random_channels(helper3, rng)[1].rows
                                            for _ in range(banks)])
    pools = rng.dirichlet(np.ones(2), size=(banks, rows))
    blocks = []
    plogp = functionals.plogp
    monkeypatch.setattr(functionals, "plogp", lambda a: blocks.append(a.shape) or plogp(a))
    scores = theta(FunctionalContext(helper3, 2, {3: slot3}, d), pools)
    assert [shape[0] for shape in blocks] == [per_block, per_block, 3]
    assert all(math.prod(shape[:2]) * width <= functionals.THETA_BLOCK_CELLS for shape in blocks)
    for start in range(0, banks, per_block):
        block = slice(start, start + per_block)
        ctx = FunctionalContext(helper3, 2, {3: Channel(slot3.input, slot3.rows[block])}, d)
        assert scores[block].tobytes() == theta(ctx, pools[block]).tobytes()


def test_theta_weighs_interleaved_direction_rows_across_blocks(helper3, monkeypatch):
    # five direction rows whose banks alternate, so every block holds banks of
    # each row and each row's banks span every block; the rows weigh different
    # laws and distortions.  Row 3 weighs X2 and X3 equally, so its (X1, S) law
    # cancels exactly (+w2 from slot 2, -w3 from slot 3) while rows 0 to 2 still
    # weigh that law; row 4 weighs only the distortion.  A row's scores have the
    # bits of a stack of that row's banks alone, and no map column is one that
    # every bank weighs zero
    rng = np.random.default_rng(109)
    coords = np.vstack([random_direction(helper3.m, helper3.j, helper3.l, rng).coords,
                        np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]) / 5 ** 0.5,
                        np.array([[1.0, 1.0, 1.0]]) / 3 ** 0.5, [[0.0, 0.0, 1.0]]])
    five = Direction(helper3.m, helper3.j, helper3.l, coords[:, :2], coords[:, 2:])
    assert five.rate_weight(2)[3] == five.rate_weight(3)[3]
    rows, count = 69, len(coords)
    probe = FunctionalContext(helper3, 2, {3: random_channels(helper3, rng)[1]}, five)
    per_block = functionals.THETA_BLOCK_CELLS // (rows * probe._map.shape[-1])
    banks = 3 * per_block + count
    assert per_block >= count
    d = direction_rows(five, np.arange(banks) % count)
    slot3 = Channel(helper3.x_alphabet(3), [random_channels(helper3, rng)[1].rows
                                            for _ in range(banks)])
    pools = rng.dirichlet(np.ones(2), size=(banks, rows))
    blocks = []
    plogp = functionals.plogp
    monkeypatch.setattr(functionals, "plogp", lambda a: blocks.append(a.shape[0]) or plogp(a))
    stacked = FunctionalContext(helper3, 2, {3: slot3}, d)
    scores = theta(stacked, pools)
    assert blocks == [per_block] * 3 + [count]
    monkeypatch.setattr(functionals, "plogp", plogp)
    assert (stacked._weights != 0.0).any(axis=1).all()
    laws = []
    for row in range(count):
        own = np.arange(row, banks, count)
        ctx = FunctionalContext(helper3, 2, {3: Channel(slot3.input, slot3.rows[own])},
                                direction_rows(d, own))
        assert (ctx._weights != 0.0).any(axis=1).all()
        laws.append(len(ctx._starts))
        assert scores[own].tobytes() == theta(ctx, pools[own]).tobytes()
    # slots 2 and 3 name five laws; row 1 weighs no rate at slot 2, so not
    # (X2, X1, S), the equal row drops (X1, S), and the last row weighs none
    assert laws == [5, 4, 5, 4, 0] and len(stacked._starts) == 5


class NoDraws:
    def normal(self, size):
        raise AssertionError(f"drew {size} normals for a direction with no coordinates")


def test_random_direction_needs_a_coordinate():
    for m, j, l in [(1, 1, 0), (2, 2, 0)]:
        with pytest.raises(StructuralError):
            random_direction(m, j, l, NoDraws())
    rng = np.random.default_rng(0)
    # one free coordinate is enough, on either side
    assert random_direction(2, 2, 1, rng).coords.tolist() == [1.0]
    assert random_direction(2, 1, 0, rng).coords.tolist() == [1.0]


def unit_direction(spec, rate=None, distortion=None):
    """e_i for the rate of description ``rate``, or e_l for distortion measure ``distortion``.

    Along e_i (i >= k) theta is the rate functional phi_i, and along e_l
    the distortion functional psi_l, with the same float operations.
    """
    e = np.zeros(spec.m - spec.j + spec.l)
    e[rate - spec.j - 1 if distortion is None else spec.m - spec.j + distortion - 1] = 1.0
    return Direction.normalized(spec.m, spec.j, spec.l, e)


def flat_direction(spec):
    """Equal weight on every coordinate, for contexts whose direction does not matter."""
    return Direction.normalized(spec.m, spec.j, spec.l, np.ones(spec.m - spec.j + spec.l))


def phi(spec, k, frozen, i, pool):
    return theta(FunctionalContext(spec, k, frozen, unit_direction(spec, rate=i)), pool)


def psi(spec, k, frozen, l, pool):
    return theta(FunctionalContext(spec, k, frozen, unit_direction(spec, distortion=l)), pool)


BAD_BINARY_POOLS = (
    np.array([0.5, 0.5]),                           # one point, not a pool
    np.full((1, 1, 2, 2), 0.5),                     # a 4-D array: not a pool or a stack
    np.full((2, 3), 1.0 / 3.0),                     # a pool of the wrong width
    [[0.5, 0.5], [0.6, 0.6]],                       # a row off the simplex
    [[0.5, 0.5], [np.nan, 1.0]],                    # a NaN row
)


def test_check_simplex_point():
    assert np.allclose(check_simplex_point([[0.25, 0.75]], 2), [[0.25, 0.75]])
    with pytest.raises(StructuralError):
        check_simplex_point([[0.25, 0.75]], 3)
    with pytest.raises(StructuralError):
        check_simplex_point([[0.6, 0.6]], 2)
    with pytest.raises(StructuralError):
        check_simplex_point([[-0.2, 1.2]], 2)
    pool = check_simplex_point([[0.25, 0.75], [1.0, -1e-13]], 2)
    assert pool.shape == (2, 2) and pool.min() == 0.0
    stack = check_simplex_point([[[0.25, 0.75]], [[1.0, -1e-13]]], 2)   # a stack of pools
    assert stack.shape == (2, 1, 2) and stack.min() == 0.0
    with pytest.raises(StructuralError):
        check_simplex_point([[[0.25, 0.75]], [[0.6, 0.6]]], 2)         # one bad pool
    for t in BAD_BINARY_POOLS + (np.zeros((0, 2)),):    # and an empty pool
        with pytest.raises(StructuralError):
            check_simplex_point(t, 2)


def test_bayes_distortion_extreme_channels(bwz):
    ident = attach_channels(bwz, [identity_channel(bwz.x_alphabets[0])])
    value, table = distortion_component(ident, 1)
    assert abs(value) < 1e-12
    assert table.shape == (bwz.s_alphabet.size, 2)    # S, then Z1
    const = attach_channels(bwz, [constant_channel(bwz.x_alphabets[0])])
    value, _ = distortion_component(const, 1)
    assert abs(value - 0.25) < 1e-12


def test_bayes_matches_exhaustive_tables(bwz):
    aug = attach_channels(bwz, [identity_channel(bwz.x_alphabets[0])])
    # oracle first: evaluate all 16 deterministic tables by plain loops
    joint = aug.joint.probs                  # axes X1 S V Z1
    m_szv = np.zeros((2, 2, 2))
    for x in range(2):
        for s in range(2):
            for v in range(2):
                for z in range(2):
                    m_szv[s, z, v] += joint[x, s, v, z]
    dtab = bwz.distortions[0]
    best = np.inf
    values = {}
    for flat in itertools.product(range(2), repeat=4):
        table = np.array(flat).reshape(2, 2)
        val = 0.0
        for s in range(2):
            for z in range(2):
                for v in range(2):
                    val += m_szv[s, z, v] * dtab[v, table[s, z]]
        values[flat] = val
        best = min(best, val)
    value, bayes = distortion_component(aug, 1)
    assert abs(value - best) < 1e-12
    assert abs(estimator_distortion(aug, 1, bayes) - value) < 1e-12
    # and every explicit table is reproduced, not just the optimum
    for flat, val in values.items():
        table = np.array(flat).reshape(2, 2)
        assert abs(estimator_distortion(aug, 1, table) - val) < 1e-12


def test_random_tables_never_beat_bayes():
    rng = np.random.default_rng(50)
    spec = make_spec(rng, m=2, j=1, l=2)
    aug = attach_channels(spec, random_channels(spec, rng))
    for l in (1, 2):
        value, bayes = distortion_component(aug, l)
        assert abs(estimator_distortion(aug, l, bayes) - value) < 1e-12
        vhat = spec.vhat_alphabets[l - 1].size
        for _ in range(50):
            table = rng.integers(0, vhat, size=bayes.shape)
            assert estimator_distortion(aug, l, table) >= value - 1e-12


def test_estimator_validation():
    rng = np.random.default_rng(51)
    spec = make_spec(rng, m=1, j=0, l=1)
    aug = attach_channels(spec, random_channels(spec, rng))
    with pytest.raises(StructuralError):
        distortion_component(aug, 2)
    with pytest.raises(StructuralError):
        estimator_distortion(aug, 1, np.zeros((1, 1), dtype=int))


def test_observation_axes_layout():
    # the estimator reads the observations in layout order: X1..XJ, S, Z_{J+1}..Z_M
    rng = np.random.default_rng(52)
    spec = make_spec(rng, m=3, j=1, l=1)
    aug = attach_channels(spec, random_channels(spec, rng, sizes=[4, 5]))
    _, table = distortion_component(aug, 1)
    assert table.shape == (spec.x_alphabets[0].size, spec.s_alphabet.size, 4, 5)


def test_phi_first_part_constant_at_own_slot():
    rng = np.random.default_rng(53)
    spec = make_spec(rng, m=3, j=1, l=1)
    chans = random_channels(spec, rng)
    slots = spec.channel_slots
    k = 3
    frozen = {kk: ch for kk, ch in zip(slots, chans) if kk != k}
    # oracle: the constant from the full augmented joint (slot k's identity channel attached)
    aug = attach_channels(spec, [chans[0], identity_channel(spec.x_alphabets[k - 1])])
    cond = axis_mask(spec, "X1", "Z2", "S")
    expected = entropy(aug.joint, axis_mask(spec, "X3"), cond)
    # at a vertex e_x the point's own H_t(X_k | U) is 0, leaving the point-free constant
    vertices = np.eye(spec.x_alphabets[k - 1].size)
    assert np.abs(phi(spec, k, frozen, k, vertices) - expected).max() < 1e-10


def test_phi_mixture_reproduces_rates():
    rng = np.random.default_rng(54)
    spec = make_spec(rng, m=3, j=1, l=1)
    chans = random_channels(spec, rng)
    slots = spec.channel_slots             # (2, 3)
    aug = attach_channels(spec, chans)
    k = 2
    frozen = {kk: ch for kk, ch in zip(slots, chans) if kk != k}
    pair = forward_to_reverse(spec, k, chans[0])
    for i in (2, 3):
        # oracle first: the rate straight off the augmented joint
        cond_names = ["X1"] + [f"Z{t}" for t in range(2, i)] + ["S"]
        expected = mi_sets(
            aug.joint,
            axis_mask(spec, f"X{i}"),
            axis_mask(spec, f"Z{i}"),
            axis_mask(spec, *cond_names),
        )
        mixed = pair.weights @ phi(spec, k, frozen, i, pair.columns)
        assert abs(mixed - expected) < 1e-9


def test_psi_mixture_reproduces_distortion():
    rng = np.random.default_rng(55)
    spec = make_spec(rng, m=2, j=0, l=2)
    chans = random_channels(spec, rng)
    aug = attach_channels(spec, chans)
    k = 1
    pair = forward_to_reverse(spec, k, chans[0])
    for l in (1, 2):
        expected = distortion_component(aug, l)[0]
        mixed = pair.weights @ psi(spec, k, {2: chans[1]}, l, pair.columns)
        assert abs(mixed - expected) < 1e-9


def test_psi_is_concave():
    rng = np.random.default_rng(56)
    spec = make_spec(rng, m=1, j=0, l=1)
    n = spec.x_alphabets[0].size
    for _ in range(30):
        t1 = rng.dirichlet(np.ones(n))
        t2 = rng.dirichlet(np.ones(n))
        lam = float(rng.uniform())
        mix = lam * t1 + (1.0 - lam) * t2
        at_mix, at_t1, at_t2 = psi(spec, 1, {}, 1, np.array([mix, t1, t2]))
        assert at_mix >= lam * at_t1 + (1 - lam) * at_t2 - 1e-12


def test_theta_requires_direction_and_matches_manual_sum():
    rng = np.random.default_rng(57)
    spec = make_spec(rng, m=3, j=0, l=1)
    chans = random_channels(spec, rng)
    slots = spec.channel_slots
    k = 2
    frozen = {kk: ch for kk, ch in zip(slots, chans) if kk != k}
    with pytest.raises(TypeError):
        FunctionalContext(spec, k, frozen)          # theta's direction is required
    n = spec.x_alphabets[k - 1].size
    t = rng.dirichlet(np.ones(n))[None]
    d = random_direction(3, 0, 1, rng)
    ctx = FunctionalContext(spec, k, frozen, d)
    rates = corner_point(attach_channels(spec, chans), identity_permutation(3))
    manual = (
        d.rate_weight(1) * rates[0]
        + d.rate_weight(2) * phi(spec, k, frozen, 2, t)
        + d.rate_weight(3) * phi(spec, k, frozen, 3, t)
        + d.distortion_weight(1) * psi(spec, k, frozen, 1, t)
    )
    assert theta(ctx, t).shape == (1,)
    assert abs(theta(ctx, t) - manual).max() < 1e-12


def test_functional_context_validation():
    rng = np.random.default_rng(58)
    spec = make_spec(rng, m=2, j=1, l=1)
    chans = random_channels(spec, rng)
    ok = flat_direction(spec)
    with pytest.raises(StructuralError):
        FunctionalContext(spec, 1, {}, ok)             # slot 1 is lossless
    with pytest.raises(StructuralError):
        FunctionalContext(spec, 2, {2: chans[0]}, ok)  # frozen must exclude k
    d = random_direction(3, 0, 1, rng)
    with pytest.raises(StructuralError):
        FunctionalContext(spec, 2, {}, d)              # direction shape mismatch


def test_functional_context_uses_the_channel_product():
    rng = np.random.default_rng(61)
    for _ in range(4):
        spec = make_spec(rng, m=3, j=int(rng.integers(0, 2)), l=1)
        chans = random_channels(spec, rng)
        bank = dict(zip(spec.channel_slots, chans))
        aug = attach_channels(spec, chans)
        for k in spec.channel_slots:
            frozen = {kk: ch for kk, ch in bank.items() if kk != k}
            ctx = FunctionalContext(spec, k, frozen, flat_direction(spec))
            inert = {**frozen, k: constant_channel(spec.x_alphabets[k - 1])}
            expected = channel_product(spec, inert).probs
            assert ctx.aug.joint.probs.tobytes() == expected.tobytes()
            z_sizes = tuple(1 if kk == k else bank[kk].rows.shape[-1] for kk in spec.channel_slots)
            assert ctx.aug.joint.probs.shape == spec.source.probs.shape + z_sizes
            summed = aug.joint.probs.sum(axis=layout_axes(spec).index(f"Z{k}"), keepdims=True)
            assert np.abs(summed - ctx.aug.joint.probs).max() <= MARGINAL_TOL
    spec = make_spec(rng, m=2, j=0, l=1)
    wrong = identity_channel(Alphabet("X9", spec.x_alphabets[0].size))
    with pytest.raises(StructuralError):
        FunctionalContext(spec, 2, {1: wrong}, flat_direction(spec))   # as in attach_channels


def test_decomposition_holds_across_shapes(dsbs):
    rng = np.random.default_rng(59)
    for trial in range(8):
        spec = make_spec(rng, l=int(rng.integers(0, 3)))
        chans = random_channels(spec, rng)
        if spec.m == spec.j and spec.l == 0:
            continue                                # no objective terms at all
        d = random_direction(spec.m, spec.j, spec.l, rng)
        report = verify_linear_decomposition(spec, chans, d)
        assert report.passed
        assert report.worst_error <= 1e-9
        assert len(report.entries) == len(spec.channel_slots)
    # vacuous case: every source lossless, nothing to optimize per slot
    spec = make_spec(rng, m=2, j=2, l=1)
    d = random_direction(2, 2, 1, rng)
    report = verify_linear_decomposition(spec, [], d)
    assert report.passed and report.entries == ()
    with pytest.raises(StructuralError):
        verify_linear_decomposition(dsbs, [], random_direction(2, 0, 1, rng))


def test_decomposition_scores_each_slot_in_one_theta_call(monkeypatch, helper3):
    calls = []

    def counting_theta(ctx, t):
        calls.append(np.shape(t))
        return theta(ctx, t)

    monkeypatch.setattr(functionals, "theta", counting_theta)
    rng = np.random.default_rng(63)
    chans = random_channels(helper3, rng)                  # slots 2 and 3
    report = verify_linear_decomposition(helper3, chans, random_direction(3, 1, 1, rng))
    assert report.passed
    assert calls == [(ch.rows.shape[-1], ch.input.size) for ch in chans]


def test_direct_weighted_value_composition(dsbs):
    rng = np.random.default_rng(60)
    chans = random_channels(dsbs, rng)
    d = random_direction(2, 0, 1, rng)
    aug = attach_channels(dsbs, chans)
    rates = corner_point(aug, (1, 2))
    expected = (
        d.rate_weight(1) * rates[0]
        + d.rate_weight(2) * rates[1]
        + d.distortion_weight(1) * distortion_component(aug, 1)[0]
    )
    assert abs(direct_weighted_value(dsbs, chans, d) - expected) < 1e-12


def _test_pool(rng, n):
    """Vertices (zero cells), midpoints, the barycenter and Dirichlet draws."""
    eye = np.eye(n)
    mids = [(eye[a] + eye[b]) / 2 for a, b in itertools.combinations(range(n), 2)]
    return np.vstack([eye, *mids, np.full(n, 1.0 / n), rng.dirichlet(np.ones(n), size=12)])


@pytest.mark.parametrize("name", ["helper3", "bwz", "dsbs", "zero-symbol", "two-distortions"])
def test_pool_matches_stacked_points(name, request):
    rng = np.random.default_rng(62)
    if name == "zero-symbol":
        spec = zero_symbol_spec(rng)
    elif name == "two-distortions":                                 # one psi tensor, L = 2
        spec = make_spec(rng, m=3, j=1, l=2)
    else:
        spec = request.getfixturevalue(name)
    chans = random_channels(spec, rng)
    slots = spec.channel_slots
    d = random_direction(spec.m, spec.j, spec.l, rng)
    rates = corner_point(attach_channels(spec, chans), identity_permutation(spec.m))
    for k in slots:
        frozen = {kk: ch for kk, ch in zip(slots, chans) if kk != k}
        ctx = FunctionalContext(spec, k, frozen, d)
        pool = _test_pool(rng, ctx.p_k.size)
        values = theta(ctx, pool)
        assert values.shape == (len(pool),)
        assert np.abs(values - [theta(ctx, t[None])[0] for t in pool]).max() <= 1e-12
        manual = sum(d.rate_weight(i) * (rates[i - 1] if i < k
                                         else phi(spec, k, frozen, i, pool))
                     for i in slots)
        manual = manual + sum(d.distortion_weight(l) * psi(spec, k, frozen, l, pool)
                              for l in range(1, spec.l + 1))
        assert np.abs(values - manual).max() <= 1e-12
        units = [unit_direction(spec, rate=i) for i in range(k, spec.m + 1)]   # e_k: the diagonal
        units += [unit_direction(spec, distortion=l) for l in range(1, spec.l + 1)]
        for unit in units:
            along = FunctionalContext(spec, k, frozen, unit)
            stacked = [theta(along, t[None])[0] for t in pool]
            assert np.abs(theta(along, pool) - stacked).max() <= 1e-12


@pytest.mark.parametrize("name", ["helper3", "bwz", "dsbs", "zero-symbol", "two-distortions"])
def test_theta_matches_the_definitional_mixed_law(name, request):
    rng = np.random.default_rng(65)
    if name == "zero-symbol":
        spec = zero_symbol_spec(rng)
    elif name == "two-distortions":
        spec = make_spec(rng, m=3, j=1, l=2)
    else:
        spec = request.getfixturevalue(name)
    chans = random_channels(spec, rng)
    slots = spec.channel_slots
    directions = [random_direction(spec.m, spec.j, spec.l, rng)]
    directions += [unit_direction(spec, rate=i) for i in slots]
    directions += [unit_direction(spec, distortion=l) for l in range(1, spec.l + 1)]
    for k in slots:
        frozen = {kk: ch for kk, ch in zip(slots, chans) if kk != k}
        pool = _test_pool(rng, spec.x_alphabet(k).size)
        for d in directions:
            values = theta(FunctionalContext(spec, k, frozen, d), pool)
            expected = [theta_reference(spec, k, frozen, d, t) for t in pool]
            assert np.abs(values - expected).max() <= 1e-12


def test_functionals_reject_bad_pools(bwz):
    for weights in ([0.6, 0.8], [1.0, 0.0], [0.0, 1.0]):     # theta, phi_1 and psi_1
        ctx = FunctionalContext(bwz, 1, {}, Direction.normalized(1, 0, 1, weights))
        for t in BAD_BINARY_POOLS:
            with pytest.raises(StructuralError):
                theta(ctx, t)
