from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import canonical_region.pmf as pmf_mod
import canonical_region.region as region_mod
from canonical_region import (
    BudgetError,
    Channel,
    NumericIntegrityError,
    PreconditionError,
    ProblemSpec,
    StructuralError,
    attach_channels,
    check_permutation,
    constant_channel,
    corner_point,
    entropy,
    enumerate_extreme_points,
    identity_channel,
    identity_permutation,
    membership,
    mi_sets,
    nondegeneracy_report,
    random_channels,
    rate_lhs,
    resolve_problem,
    source_nondegeneracy_report,
    verify_chain_identities,
    verify_noncrossing,
)
from canonical_region.pmf import CMI_CLAMP
from conftest import (
    DISTINCT_TOL,
    axis_mask,
    direct_marginal,
    distinct_count,
    expected_active_groups,
    make_spec,
    markov_source_spec,
    memo_keys,
    product_source_spec,
    region_problem_spec,
    relabel_symbols,
    slepian_wolf_reference,
    solve_one,
    zero_symbol_spec,
)


def loop_entropy_of(arr, keep_axes):
    # reference entropy of a marginal, plain python accumulation
    drop = tuple(i for i in range(arr.ndim) if i not in keep_axes)
    marg = arr.sum(axis=drop) if drop else arr
    total = 0.0
    for v in np.asarray(marg).ravel():
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def loop_cmi(arr, a, b, c):
    ha_c = loop_entropy_of(arr, tuple(a) + tuple(c))
    hb_c = loop_entropy_of(arr, tuple(b) + tuple(c))
    hab_c = loop_entropy_of(arr, tuple(a) + tuple(b) + tuple(c))
    hc = loop_entropy_of(arr, tuple(c))
    return ha_c + hb_c - hab_c - hc


def test_permutation_helpers():
    assert identity_permutation(3) == (1, 2, 3)
    assert check_permutation([3, 1, 2], 3) == (3, 1, 2)
    with pytest.raises(StructuralError):
        check_permutation([1, 1], 2)
    with pytest.raises(StructuralError):
        check_permutation([0, 1], 2)


def test_rate_lhs_validation():
    rng = np.random.default_rng(0)
    spec = make_spec(rng, m=2, j=0, l=1)
    aug = attach_channels(spec, random_channels(spec, rng))
    with pytest.raises(StructuralError):
        rate_lhs(aug, [])
    with pytest.raises(StructuralError):
        rate_lhs(aug, [3])


def test_indices_must_be_integers_not_bools_or_floats():
    rng = np.random.default_rng(0)
    spec = make_spec(rng, m=2, j=0, l=1)
    aug = attach_channels(spec, random_channels(spec, rng))
    for bad in ([1.5, 2], [True, 2], [np.True_, 2], [1.0, 2], np.array([1.0, 2.0]),
                np.array([True, False]), ["1", "2"]):
        with pytest.raises(StructuralError, match="is not an integer"):
            check_permutation(bad, 2)
        with pytest.raises(StructuralError, match="is not an integer"):
            corner_point(aug, bad)
        with pytest.raises(StructuralError, match="is not an integer"):
            rate_lhs(aug, bad[:1])
    with pytest.raises(StructuralError, match="is not an integer"):
        corner_point(aug, [(1, 2), (2, 1.7)])
    # Python and numpy integers in any container are read as before
    order = np.argsort([0.3, 0.1]) + 1
    assert check_permutation(order, 2) == check_permutation(range(2, 0, -1), 2) == (2, 1)
    assert type(check_permutation(order, 2)[0]) is int
    assert corner_point(aug, order).tobytes() == corner_point(aug, (2, 1)).tobytes()
    assert (corner_point(aug, [(1, 2), (2, 1)]).tobytes()
            == corner_point(aug, np.array([[1, 2], [2, 1]], dtype=np.uint8)).tobytes())
    assert rate_lhs(aug, [np.int64(1)]) == rate_lhs(aug, (1,)) == rate_lhs(aug, range(1, 2))


def test_identity_channels_corner_is_entropy_chain():
    rng = np.random.default_rng(31)
    spec = make_spec(rng, m=3, j=0, l=1)
    aug = attach_channels(spec, [identity_channel(a) for a in spec.x_alphabets])
    for perm in [(1, 2, 3), (3, 1, 2), (2, 3, 1)]:
        # oracle first, from the source law alone: H(X_t | X_prefix, S)
        src = spec.source
        expected = np.zeros(3)
        for pos, target in enumerate(perm):
            given = axis_mask(spec, *(f"X{i}" for i in perm[:pos]), "S")
            expected[target - 1] = entropy(src, axis_mask(spec, f"X{target}"), given)
        got = corner_point(aug, perm)
        assert np.abs(got - expected).max() < 1e-10


def test_constant_channels_collapse_to_zero():
    rng = np.random.default_rng(32)
    spec = make_spec(rng, m=2, j=0, l=1)
    aug = attach_channels(spec, [constant_channel(a) for a in spec.x_alphabets])
    points = enumerate_extreme_points(aug)
    assert len(points) == 2
    for _, r in points:
        assert np.abs(r).max() < 1e-9
    report = membership(aug, np.zeros(2))
    assert report.is_member
    assert distinct_count(points) == 1
    assert nondegeneracy_report(aug).degenerate


def test_two_source_membership_against_direct_formula():
    rng = np.random.default_rng(33)
    spec = make_spec(rng, m=2, j=0, l=1, max_alphabet=2)
    chans = random_channels(spec, rng)
    aug = attach_channels(spec, chans)
    arr = aug.joint.probs          # axes X1 X2 S V Z1 Z2
    # oracle first: the three group bounds via raw four-entropy sums
    g1 = loop_cmi(arr, (0,), (4,), (5, 2))
    g2 = loop_cmi(arr, (1,), (5,), (4, 2))
    g12 = loop_cmi(arr, (0, 1), (4, 5), (2,))
    assert abs(rate_lhs(aug, [1]) - g1) < 1e-10
    assert abs(rate_lhs(aug, [2]) - g2) < 1e-10
    assert abs(rate_lhs(aug, [1, 2]) - g12) < 1e-10
    # corners telescope g along the two orders
    assert np.abs(corner_point(aug, (1, 2)) - [g12 - g2, g2]).max() < 1e-10
    assert np.abs(corner_point(aug, (2, 1)) - [g1, g12 - g1]).max() < 1e-10
    # membership agrees with the three explicit inequalities
    hi = 1.3 * max(g12, 1e-3)
    for _ in range(200):
        r = rng.uniform(0.0, hi, size=2)
        expected = r[0] >= g1 - 1e-9 and r[1] >= g2 - 1e-9 and r[0] + r[1] >= g12 - 1e-9
        assert membership(aug, r).is_member == expected


def test_membership_validation_and_order():
    rng = np.random.default_rng(34)
    spec = make_spec(rng, m=2, j=0, l=1)
    aug = attach_channels(spec, random_channels(spec, rng))
    with pytest.raises(StructuralError):
        membership(aug, np.zeros(3))
    with pytest.raises(StructuralError):
        membership(aug, np.array([-0.5, 1.0]))
    # entries are in group bitmask order: (1,), (2,), (1, 2)
    report = membership(aug, np.array([10.0, 20.0]))
    assert report.rate_sums.tolist() == [10.0, 20.0, 30.0]
    assert report.lhs.tolist() == [rate_lhs(aug, g) for g in [(1,), (2,), (1, 2)]]
    report = membership(aug, np.array([rate_lhs(aug, [1]), 10.0]), tol=0.0)
    assert report.active_groups == ((1,),)


def test_corner_active_sets_are_the_suffix_chain():
    rng = np.random.default_rng(35)
    spec = make_spec(rng, m=3, j=1, l=1)
    chans = random_channels(spec, rng)
    aug = attach_channels(spec, chans)
    nondegenerate = not nondegeneracy_report(aug).degenerate
    for perm, rates in enumerate_extreme_points(aug):
        report = membership(aug, rates)
        assert report.is_member
        expected = set(expected_active_groups(perm))
        got = set(report.active_groups)
        assert expected <= got
        if nondegenerate:
            assert expected == got
        assert verify_noncrossing(aug, rates)


def test_expected_active_groups_explicit():
    assert expected_active_groups((2, 1, 3)) == ((1, 2, 3), (1, 3), (3,))
    assert expected_active_groups((1,)) == ((1,),)


def test_corner_perturbation_leaves_region():
    rng = np.random.default_rng(36)
    spec = make_spec(rng, m=2, j=0, l=1)
    aug = attach_channels(spec, [identity_channel(a) for a in spec.x_alphabets])
    perm = (1, 2)
    corner = corner_point(aug, perm)
    assert corner[1] > 1e-2            # seed chosen so the last rate is not tiny
    shaved = corner.copy()
    shaved[1] -= 1e-3
    assert not membership(aug, shaved).is_member
    with pytest.raises(PreconditionError):
        verify_noncrossing(aug, shaved)


def test_interior_point_has_no_active_groups():
    rng = np.random.default_rng(37)
    spec = make_spec(rng, m=2, j=0, l=1)
    aug = attach_channels(spec, random_channels(spec, rng))
    inside = corner_point(aug, (1, 2)) + 0.1
    report = membership(aug, inside)
    assert report.is_member and report.active_groups == ()
    assert verify_noncrossing(aug, inside)


def test_enumeration_budget():
    m = 7
    shape = (2,) * m + (1, 2)
    rng = np.random.default_rng(38)
    probs = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    spec = ProblemSpec(m, probs, [])
    aug = attach_channels(spec, [])
    with pytest.raises(BudgetError):
        enumerate_extreme_points(aug)
    # membership itself stays available past the enumeration budget
    assert membership(aug, np.full(m, 10.0)).is_member


def test_product_source_degenerates_every_bank():
    rng = np.random.default_rng(39)
    spec = product_source_spec(rng)
    assert source_nondegeneracy_report(spec.source).degenerate
    aug = attach_channels(spec, random_channels(spec, rng))
    assert nondegeneracy_report(aug).degenerate
    points = enumerate_extreme_points(aug)
    assert distinct_count(points) == 1
    g1 = rate_lhs(aug, [1])
    g2 = rate_lhs(aug, [2])
    assert abs(rate_lhs(aug, [1, 2]) - (g1 + g2)) < 1e-9


def test_source_preflight_keeps_markov_sources():
    # X2 a noisy copy of X1: dependent given trivial S, so not flagged
    spec = markov_source_spec()
    report = source_nondegeneracy_report(spec.source)
    assert not report.degenerate
    assert report.min_value > 1e-3


def test_chain_identities_pass_on_random_instances():
    rng = np.random.default_rng(40)
    expected_names = {
        "condition-drop-split", "disjoint-union-split", "restricted-union-split",
        "element-peel-chain", "prefix-chain", "suffix-chain", "corner-sum-bound",
    }
    for m in (1, 2, 3):
        spec = make_spec(rng, m=m, l=1)
        aug = attach_channels(spec, random_channels(spec, rng))
        report = verify_chain_identities(aug, trials=40, seed=m)
        assert report.passed
        assert {c.name for c in report.checks} == expected_names
        for check in report.checks:
            assert check.worst_violation <= 1e-9
            if m >= 2 or check.name in (
                "element-peel-chain", "prefix-chain", "corner-sum-bound",
            ):
                assert check.trials > 0
        assert {c.name: c for c in report.checks}["prefix-chain"].passed
    with pytest.raises(StructuralError):
        verify_chain_identities(aug, trials=0)


def test_corner_sum_rate_is_permutation_invariant():
    rng = np.random.default_rng(41)
    spec = make_spec(rng, m=3, j=0, l=1)
    aug = attach_channels(spec, random_channels(spec, rng))
    full = rate_lhs(aug, range(1, 4))
    for _, rates in enumerate_extreme_points(aug):
        assert abs(float(rates.sum()) - full) < 1e-9


def region_problem_aug(seed, m, channel_seed=1):
    """The benchmark's region problem with the CLI's channel bank for
    ``--seed channel_seed``."""
    spec = region_problem_spec(seed, m)
    return attach_channels(spec, random_channels(spec, np.random.default_rng(channel_seed)))


def count_entropies(monkeypatch):
    """One entry per joint entropy computed from here on: a row of ``_entropies``' plogp pass."""
    calls = []
    real = pmf_mod.plogp

    def counting(cells):
        calls.extend([1] * len(cells))
        return real(cells)

    monkeypatch.setattr(pmf_mod, "plogp", counting)
    return calls


def test_membership_rejects_non_finite_rates(helper3):
    aug = attach_channels(helper3, random_channels(helper3, np.random.default_rng(42)))
    m = helper3.m
    one_nan = np.full(m, 10.0)
    one_nan[1] = np.nan
    for rates in (np.full(m, np.nan), np.full(m, np.inf), one_nan):
        with pytest.raises(StructuralError):
            membership(aug, rates)


def test_corners_match_the_orthant_identity():
    # R_pi(i) = g(pi(i..M)) - g(pi(i+1..M)), a second path to every corner
    m = 6
    aug = region_problem_aug(1, m)
    full = rate_lhs(aug, range(1, m + 1))
    for perm in itertools.permutations(range(1, m + 1)):
        corner = corner_point(aug, perm)
        for pos, source in enumerate(perm):
            rest = rate_lhs(aug, perm[pos + 1:]) if pos + 1 < m else 0.0
            assert abs(corner[source - 1] - (rate_lhs(aug, perm[pos:]) - rest)) <= 1e-12
        assert abs(float(corner.sum()) - full) <= 1e-12


@pytest.mark.parametrize("m", [3, 4])
def test_greedy_corner_supports_every_nonnegative_direction(m):
    # min w.R over the 2^M - 1 group inequalities sum_{i in I} R_i >= g(I)
    # equals, by LP duality, max g.y over y >= 0 with sum_{I ∋ i} y_I <= w_i;
    # that dual, with its slacks as the leading identity, is solved here
    rng = np.random.default_rng(60 + m)
    spec = make_spec(rng, m=m, l=1, max_alphabet=2)
    aug = attach_channels(spec, random_channels(spec, rng))
    masks = range(1, 1 << m)
    incidence = np.array([[mask >> i & 1 for i in range(m)] for mask in masks], dtype=float)
    g = np.array([rate_lhs(aug, [i + 1 for i in range(m) if mask >> i & 1]) for mask in masks])
    a = np.hstack([np.eye(m), incidence.T])
    corners = np.array([r for _, r in enumerate_extreme_points(aug)])
    for trial in range(50):
        # every other direction has integer weights, so zeros and ties occur
        w = rng.exponential(size=m) if trial % 2 else rng.integers(0, 3, size=m).astype(float)
        lp = solve_one(np.concatenate([np.zeros(m), -g]), a, w)
        greedy = float(w @ corner_point(aug, tuple(np.argsort(w, kind="stable") + 1)))
        assert abs(greedy + lp.value) <= 1e-9
        assert greedy <= float((corners @ w).min()) + 1e-12


def test_membership_computes_g_once_per_joint(monkeypatch):
    # J = 2: g(I) is H(X_N Z_rest S) + H(Z S) - H(X_N Z S) - H(Z_{I^c} S), N the
    # noisy sources of I (a lossless X_i is its own Z_i)
    aug = region_problem_aug(1, 6)
    points = enumerate_extreme_points(aug)
    held = memo_keys(aug)
    calls = count_entropies(monkeypatch)
    membership(aug, points[0][1])
    # the enumeration's prefix rates hold every term but the two with |N| >= 2,
    # 11 sets N each; each new entropy is computed once and stored
    entropies, marginals = memo_keys(aug)
    assert len(calls) == len(entropies - held[0]) == 2 * 11
    for _, rates in points[1:]:
        membership(aug, rates)
    assert len(calls) == 22 and memo_keys(aug) == (entropies, marginals)
    fresh = region_problem_aug(1, 6)
    cold, made = memo_keys(fresh)[0], len(calls)
    membership(fresh, points[0][1])
    # a fresh joint: the 63 sets Z_{I^c} S, H(Z S), and two terms per nonempty N
    assert len(calls) - made == len(memo_keys(fresh)[0] - cold) == 63 + 1 + 2 * 15


def test_rate_lhs_computes_only_the_group_asked_for(monkeypatch):
    m = 7
    shape = (2,) * m + (1, 2)
    probs = np.random.default_rng(38).dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    aug = attach_channels(ProblemSpec(m, probs, []), [])
    calls = count_entropies(monkeypatch)
    first = rate_lhs(aug, [5, 2])
    # every source lossless: g({2, 5}) = H(X S) - H(X_{1,3,4,6,7} S)
    assert len(calls) == 2
    held = memo_keys(aug)
    assert rate_lhs(aug, (2, 5)) == first
    assert len(calls) == 2 and memo_keys(aug) == held


def test_rate_sums_add_left_to_right_in_index_order():
    rng = np.random.default_rng(61)
    for m in range(1, 7):
        spec = make_spec(rng, m=m, l=1, max_alphabet=2)
        aug = attach_channels(spec, random_channels(spec, rng))
        for _ in range(100):
            # magnitudes spread over ten decades make the addition order visible
            rates = rng.exponential(size=m) * 10.0 ** rng.integers(-8, 3, size=m)
            sums = membership(aug, rates).rate_sums.tolist()
            for mask in range(1, 1 << m):
                group = [i for i in range(m) if mask >> i & 1]
                assert sums[mask - 1] == float(sum(rates[i] for i in group))


def reference_distinct_count(points, tol):
    reps = []
    for _, r in points:
        if not any(np.abs(r - seen).max() <= tol for seen in reps):
            reps.append(np.asarray(r, dtype=float))
    return len(reps)


def test_distinct_count_matches_a_reference_greedy():
    def pts(*rows):
        return [((i,), np.array(r, dtype=float)) for i, r in enumerate(rows)]

    tol = 0.25
    cases = [
        (pts(), tol, 0),
        (pts([1.0, 2.0]), tol, 1),
        (pts([1.0, 2.0], [1.25, 2.0]), tol, 1),                          # exactly tol apart
        (pts([1.0, 2.0], [np.nextafter(1.25, 2.0), 2.0]), tol, 2),       # tol plus one ulp
        (pts([0.0], [0.75 * tol], [1.5 * tol]), tol, 2),                 # greedy, not transitive
        (pts([0.0], [1e-6]), DISTINCT_TOL, 1),
        (pts([0.0], [np.nextafter(1e-6, 1.0)]), DISTINCT_TOL, 2),
        (pts([np.nan, 0.0], [np.nan, 0.0]), tol, 2),
    ]
    for points, t, expected in cases:
        assert distinct_count(points, t) == reference_distinct_count(points, t) == expected
    rng = np.random.default_rng(62)
    for _ in range(20):
        cloud = pts(*rng.uniform(0.0, 1.0, size=(60, 3)))
        assert distinct_count(cloud, 0.3) == reference_distinct_count(cloud, 0.3)
    corners = enumerate_extreme_points(region_problem_aug(1, 5))
    assert distinct_count(corners) == reference_distinct_count(corners, DISTINCT_TOL)


def test_enumeration_computes_each_prefix_cmi_once(monkeypatch):
    m = 6
    aug = region_problem_aug(1, m)
    cold = memo_keys(aug)[0]
    calls = count_entropies(monkeypatch)
    first = enumerate_extreme_points(aug)
    # a corner coordinate depends on its source and the set before it, 192 rates
    # reading H(X_i Z_P S) and H(X_i Z_i Z_P S) for the 4 noisy sources i and
    # their 32 prefixes P, and H(Z_Q S) for all 64 sets Q; each is computed once
    assert len(calls) == len(memo_keys(aug)[0] - cold) == 2 * 4 * 32 + 64
    held = memo_keys(aug)
    second = enumerate_extreme_points(aug)
    assert len(calls) == 320 and memo_keys(aug) == held
    assert all(p == q and np.array_equal(r, s) for (p, r), (q, s) in zip(first, second))


def stack_case_aug(case):
    """A fresh augmented joint for one stacked-corner case: a bundled problem
    or M sources (the benchmark's region problem for M >= 4)."""
    if isinstance(case, str):
        spec = resolve_problem(case)
    elif case >= 4:
        return region_problem_aug(1, case)
    else:
        spec = make_spec(np.random.default_rng(case), m=case, j=0, l=1)
    return attach_channels(spec, random_channels(spec, np.random.default_rng(1)))


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5, 6, "helper3", "dsbs", "bwz"])
def test_stacked_corners_equal_single_orders(case):
    looped, stacked = stack_case_aug(case), stack_case_aug(case)
    orders = list(itertools.permutations(range(1, looped.m + 1)))
    one_by_one = np.array([corner_point(looped, perm) for perm in orders])
    together = corner_point(stacked, np.array(orders))
    assert together.shape == (len(orders), looped.m)
    assert together.tobytes() == one_by_one.tobytes()
    assert memo_keys(stacked) == memo_keys(looped)


def test_stacked_corners_name_the_first_non_permutation_row():
    aug = region_problem_aug(1, 4)
    held = memo_keys(aug)
    orders = np.array(list(itertools.permutations(range(1, 5))))
    orders[7] = (1, 2, 2, 4)
    orders[9] = (0, 1, 2, 3)
    with pytest.raises(StructuralError, match=r"^\(1, 2, 2, 4\) is not a permutation of 1\.\.4$"):
        corner_point(aug, orders)
    orders[7] = (1, 2, 3, 4)
    with pytest.raises(StructuralError, match=r"^\(0, 1, 2, 3\) is not a permutation of 1\.\.4$"):
        corner_point(aug, orders)
    for wrong in ((1, 2), np.ones((2, 3), dtype=int), np.ones((1, 1, 4), dtype=int)):
        with pytest.raises(StructuralError, match=r"expected \(4,\) or \(N, 4\)"):
            corner_point(aug, wrong)
    assert memo_keys(aug) == held


def test_memo_warm_corners_equal_fresh_ones():
    m = 6
    warm = region_problem_aug(1, m)
    verify_chain_identities(warm, trials=50, seed=3)
    membership(warm, np.full(m, 10.0))
    enumerate_extreme_points(warm)
    fresh = region_problem_aug(1, m)
    for perm in itertools.permutations(range(1, m + 1)):
        # the prefix CMIs computed straight from the joint, with no memo
        reference = np.zeros(m)
        for pos, target in enumerate(perm):
            spec = fresh.spec
            c = axis_mask(spec, "S", *(f"Z{i}" if i > fresh.j else f"X{i}" for i in perm[:pos]))
            z = axis_mask(spec, f"Z{target}" if target > fresh.j else f"X{target}")
            value = mi_sets(fresh.joint, axis_mask(spec, f"X{target}"), z, c)
            reference[target - 1] = max(0.0, value)
        corner = corner_point(warm, perm)
        assert corner.tolist() == reference.tolist()
        assert corner.tolist() == corner_point(fresh, perm).tolist()


def test_identity_suite_is_the_same_on_a_warm_memo():
    fresh = verify_chain_identities(region_problem_aug(1, 6), trials=200)
    aug = region_problem_aug(1, 6)
    enumerate_extreme_points(aug)
    verify_chain_identities(aug, trials=200, seed=5)
    membership(aug, np.full(6, 10.0))
    warm = verify_chain_identities(aug, trials=200)
    assert warm.checks == fresh.checks
    assert [c.worst_violation for c in warm.checks] == [c.worst_violation for c in fresh.checks]


def reference_chain_identities(aug, trials, tol, seed):
    # the identity suite as a loop over its draws, one trial at a time, with
    # every information quantity built from axis names and computed by mi_sets
    joint, m, spec = aug.joint, aug.m, aug.spec
    full = tuple(range(1, m + 1))

    def desc(group):
        return [f"Z{i}" if i > aug.j else f"X{i}" for i in group]

    def xz(left, cond):
        return mi_sets(joint, axis_mask(spec, *(f"X{i}" for i in left)),
                       axis_mask(spec, *desc(left)), axis_mask(spec, "S", *desc(cond)))

    def zz(left, right, cond):
        return mi_sets(joint, axis_mask(spec, *desc(left)), axis_mask(spec, *desc(right)),
                       axis_mask(spec, "S", *desc(cond)))

    names = ("condition-drop-split", "disjoint-union-split", "restricted-union-split",
             "element-peel-chain", "prefix-chain", "suffix-chain", "corner-sum-bound")
    worst = {n: 0.0 for n in names}
    failures = {n: [] for n in names}
    counts = {n: 0 for n in names}
    corner_rates = {i: xz((i,), tuple(range(1, i))) for i in full}

    def record(name, violation, context):
        counts[name] += 1
        if violation > worst[name]:
            worst[name] = violation
        if violation > tol:
            failures[name].append({"violation": violation, **context})

    def members(mask):
        return tuple(i for i in full if mask >> (i - 1) & 1)

    # the suite's draws, one trial at a time as tuples
    first, second, superset, order, size, split = (
        draw.tolist() for draw in region_mod._draw_identity_trials(
            np.random.default_rng(seed), m, trials))
    pairs = zip(first, second, superset) if m >= 2 else itertools.repeat(None)
    for pair, row, count, point in zip(pairs, order, size, split):
        if pair is not None:
            ga, gb, sup = map(members, pair)
            union = tuple(sorted(ga + gb))
            comp_union = tuple(i for i in full if i not in union)
            comp_a = tuple(i for i in full if i not in ga)
            comp_b = tuple(i for i in full if i not in gb)
            lhs = xz(ga, comp_union)
            rhs = xz(ga, comp_a) + zz(ga, gb, comp_union)
            record("condition-drop-split", abs(lhs - rhs), {"I": ga, "I2": gb})
            lhs = xz(union, comp_union)
            rhs = xz(ga, comp_union) + xz(gb, comp_b)
            record("disjoint-union-split", abs(lhs - rhs), {"I": ga, "I2": gb})
            sup_minus_union = tuple(i for i in sup if i not in union)
            sup_minus_b = tuple(i for i in sup if i not in gb)
            lhs = xz(union, sup_minus_union)
            rhs = xz(ga, sup_minus_union) + xz(gb, sup_minus_b)
            record("restricted-union-split", abs(lhs - rhs), {"I": ga, "I2": gb, "superset": sup})

        order = tuple(row[:count])
        group = tuple(sorted(order))
        lhs = float(xz(group, tuple(i for i in full if i not in group)))
        rhs = 0.0
        for pos, elem in enumerate(order):
            not_yet_peeled = set(order[pos:])
            rhs += xz((elem,), tuple(i for i in full if i not in not_yet_peeled))
        record("element-peel-chain", abs(lhs - rhs), {"I": group, "order": order})
        rhs_single = sum(corner_rates[i] for i in group)
        record("corner-sum-bound", max(0.0, lhs - rhs_single), {"I": group})

        prefix = tuple(range(1, point + 1))
        lhs = xz(prefix, ())
        rhs = sum(corner_rates[i] for i in prefix)
        record("prefix-chain", abs(lhs - rhs), {"m": point})
        if point < m:
            suffix = tuple(range(point + 1, m + 1))
            lhs = xz(suffix, prefix)
            rhs = sum(corner_rates[i] for i in suffix)
            record("suffix-chain", abs(lhs - rhs), {"m": point})

    return tuple(region_mod.IdentityCheck(n, counts[n], worst[n], tuple(failures[n]))
                 for n in names)


def test_identity_suite_matches_the_tuple_reference(bwz, dsbs, helper3):
    augs = [attach_channels(spec, random_channels(spec, np.random.default_rng(7)))
            for spec in (bwz, dsbs, helper3)]
    augs += [region_problem_aug(seed, m) for m in (4, 5, 6) for seed in (1, 2)]
    assert sorted({aug.m for aug in augs}) == [1, 2, 3, 4, 5, 6]
    failures = 0
    for aug in augs:
        for seed in (0, 3, 11):
            for tol in (0.0, region_mod.ACTIVE_TOL):
                checks = verify_chain_identities(aug, trials=50, tol=tol, seed=seed).checks
                assert checks == reference_chain_identities(aug, 50, tol, seed)
                for failure in (f for c in checks for f in c.failures):
                    failures += 1
                    groups = [v for k, v in failure.items() if k in ("I", "I2", "superset", "order")]
                    assert all(type(i) is int for g in groups for i in g)
    assert failures > 0   # tol = 0 leaves round-off failures to compare


def test_identity_trial_draws_follow_the_trial_law():
    m, trials = 4, 20_000
    first, second, superset, order, size, split = region_mod._draw_identity_trials(
        np.random.default_rng(2024), m, trials)
    union = first | second
    assert (first > 0).all() and (second > 0).all() and not (first & second).any()
    assert ((superset & union) == union).all()
    # 81 assignments of 4 sources to I, I' or neither; 31 leave I or I' empty,
    # so each of the other 50 has probability 1/50: 400 expected, sd 19.8
    counts = np.bincount(first << m | second, minlength=1 << 2 * m)
    assert np.count_nonzero(counts) == 50
    assert 300 <= counts[counts > 0].min() and counts.max() <= 500
    for i in range(m):
        # a source is outside I u I' in 12 of the 50 assignments: about 4,800
        # trials, so a fair coin's share has sd 0.0072
        outside = (union >> i & 1) == 0
        assert abs((superset[outside] >> i & 1).mean() - 0.5) < 0.035
    for draw in (size, split):
        # uniform on 1..4: 5,000 expected per value, sd 61
        assert np.abs(np.bincount(draw, minlength=m + 1)[1:] - trials / m).max() < 300
    assert (np.sort(order, axis=1) == np.arange(1, m + 1)).all()


@pytest.mark.parametrize("axis", ["X3", "S", "V"])
def test_region_quantities_do_not_move_when_symbols_are_relabeled(axis):
    # X3 carries a channel; relabeling V permutes the distortion rows
    rng = np.random.default_rng(17)
    shape = (2, 3, 3, 2, 3, 3)                          # X1..X4, S, V
    spec = ProblemSpec(1, rng.dirichlet(np.ones(math.prod(shape))).reshape(shape),
                       [rng.uniform(0.0, 1.0, size=(3, 2))])
    channels = random_channels(spec, rng)
    source, distortions, rows = relabel_symbols(
        np.array(spec.source_fractions, dtype=object).reshape(shape), spec.distortions,
        {k - 1: ch.rows for k, ch in zip(spec.channel_slots, channels)},
        ["X1", "X2", "X3", "X4", "S", "V"].index(axis), [2, 0, 1])
    relabeled = ProblemSpec(1, source, distortions)
    aug = attach_channels(spec, channels)
    moved = attach_channels(relabeled, [Channel(ch.input, rows[k - 1])
                                        for k, ch in zip(spec.channel_slots, channels)])
    for (perm, corner), (moved_perm, moved_corner) in zip(
            enumerate_extreme_points(aug), enumerate_extreme_points(moved)):
        assert perm == moved_perm
        assert np.abs(corner - moved_corner).max() <= 1e-12
    zeros = np.zeros(aug.m)
    assert np.abs(membership(aug, zeros).lhs - membership(moved, zeros).lhs).max() <= 1e-12
    assert abs(nondegeneracy_report(aug).min_value
               - nondegeneracy_report(moved).min_value) <= 1e-12
    for check, moved_check in zip(verify_chain_identities(aug, seed=5).checks,
                                  verify_chain_identities(moved, seed=5).checks):
        assert (check.name, check.trials) == (moved_check.name, moved_check.trials)
        assert abs(check.worst_violation - moved_check.worst_violation) <= 1e-12


def test_cmi_memo_never_stores_a_call_that_raises(monkeypatch):
    m = 6
    aug = region_problem_aug(1, m)
    for warm in (False, True):
        if warm:
            enumerate_extreme_points(aug)
        stored = memo_keys(aug)
        for left, cond in [(0, 0b1), (1 << m, 0), (-1, 0), (0b1, 1 << m), (0b1, -1),
                           (0b11, 0b10)]:
            with pytest.raises(StructuralError):
                region_mod._cmi_xz(aug, left, cond)
        for group in [(0,), (m + 1,), ()]:
            with pytest.raises(StructuralError):
                rate_lhs(aug, group)
        assert memo_keys(aug) == stored

    real = region_mod.mi_sets

    def failing(*args, **kwargs):
        raise NumericIntegrityError("clamp exceeded")

    aug = region_problem_aug(1, m)
    held = memo_keys(aug)
    monkeypatch.setattr(region_mod, "mi_sets", failing)
    with pytest.raises(NumericIntegrityError):
        corner_point(aug, identity_permutation(m))
    assert memo_keys(aug) == held
    monkeypatch.setattr(region_mod, "mi_sets", real)
    assert corner_point(aug, identity_permutation(m)).tolist() == \
        corner_point(region_problem_aug(1, m), identity_permutation(m)).tolist()


def reference_constraint_entries(aug, rates, tol):
    # the per-group construction membership used before its report held
    # arrays: (group, lhs, rate_sum, slack, active) tuples in bitmask order
    entries = []
    for mask in range(1, 1 << aug.m):
        group = tuple(i + 1 for i in range(aug.m) if mask >> i & 1)
        lhs = rate_lhs(aug, group)
        rate_sum = float(sum(rates[i - 1] for i in group))
        slack = rate_sum - lhs
        entries.append((group, lhs, rate_sum, slack, abs(slack) <= tol))
    return entries


def test_constraint_report_matches_the_per_entry_construction():
    m = 5
    aug = region_problem_aug(1, m)
    rng = np.random.default_rng(63)
    corners = [r for _, r in enumerate_extreme_points(aug)]
    members = [corners[i] + rng.exponential(size=m) * (rng.random(m) < 0.5)
               for i in rng.integers(0, len(corners), size=50)]
    outside = [np.maximum(c - 1e-3 * (rng.random(m) < 0.5), 0.0) for c in corners[:40]]
    for tol in (region_mod.ACTIVE_TOL, 0.0):
        for rates in corners + members + outside:
            report = membership(aug, rates, tol)
            reference = reference_constraint_entries(aug, rates, tol)
            _, lhs, rate_sums, slack, _ = zip(*reference)
            assert report.lhs.tolist() == list(lhs)
            assert report.rate_sums.tolist() == list(rate_sums)
            assert report.slack.tolist() == list(slack)
            for arr in (report.lhs, report.rate_sums):
                assert arr.dtype == np.float64 and not arr.flags.writeable
            assert report.is_member == all(e[3] >= -tol for e in reference)
            assert report.active_groups == tuple(e[0] for e in reference if e[4])
            assert report.tol == tol
            if not report.is_member:
                worst = min(slack)
                with pytest.raises(PreconditionError) as info:
                    verify_noncrossing(aug, rates, tol)
                assert str(info.value) == f"rate vector is outside the region (worst slack {worst:.3e})"


def test_stacked_membership_equals_one_call_per_row():
    aug = region_problem_aug(1, 6)
    corners = np.array([r for _, r in enumerate_extreme_points(aug)])
    rng = np.random.default_rng(64)
    members = rng.dirichlet(np.ones(len(corners)), size=50) @ corners \
        + rng.exponential(0.05, size=(50, 6))
    rows = np.concatenate([corners, members])
    stacked = membership(aug, rows)
    assert stacked.slack.shape == stacked.active.shape == (770, 63)
    assert stacked.is_member.shape == (770,) and stacked.active.dtype == bool
    assert len(stacked.active_groups) == 770
    for i, rates in enumerate(rows):
        one = membership(aug, rates)
        assert stacked.slack[i].tobytes() == one.slack.tobytes()
        assert stacked.is_member[i] == one.is_member
        assert np.array_equal(stacked.active[i], one.active)
        assert stacked.active_groups[i] == one.active_groups
    assert verify_noncrossing(aug, rows).tolist() == [verify_noncrossing(aug, r) for r in rows]


def test_stacked_noncrossing_fails_only_the_crossing_row():
    rng = np.random.default_rng(65)
    spec = make_spec(rng, m=3, j=0, l=1)
    aug = attach_channels(spec, [constant_channel(a) for a in spec.x_alphabets])
    assert np.abs(membership(aug, np.zeros(3)).lhs).max() <= 1e-12   # constant descriptions: g = 0
    rows = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 3.0]])
    # at the origin {1, 2} and {2, 3} are both tight and neither holds the other
    assert {(1, 2), (2, 3)} <= set(membership(aug, rows[1]).active_groups)
    assert verify_noncrossing(aug, rows).tolist() == [True, False, True, True]
    assert verify_noncrossing(aug, rows[1]) is False


def test_stacked_noncrossing_names_the_first_row_outside():
    aug = region_problem_aug(1, 4)
    corners = np.array([r for _, r in enumerate_extreme_points(aug)])
    shaved = corners[[3, 7]] - [[0.0, 0.0, 1e-3, 0.0], [2e-3, 0.0, 0.0, 0.0]]
    with pytest.raises(PreconditionError) as one:
        verify_noncrossing(aug, shaved[0])
    with pytest.raises(PreconditionError) as stacked:
        verify_noncrossing(aug, np.concatenate([corners[:5], shaved, corners[5:]]))
    assert str(stacked.value) == str(one.value)


def test_four_entropy_corner_cmis_are_near_their_exact_values(helper3):
    mpmath = pytest.importorskip("mpmath")
    augs = [attach_channels(helper3, random_channels(helper3, np.random.default_rng(42))),
            region_problem_aug(1, 4)]
    worst = 0.0
    with mpmath.workdps(50):
        for aug in augs:
            cells = np.vectorize(mpmath.mpf, otypes=[object])(aug.joint.probs)

            def h(mask):
                marg = np.ravel(direct_marginal(cells, mask))
                return -sum((x * mpmath.log(x, 2) for x in marg if x > 0), mpmath.mpf(0))

            rates = corner_point(aug, identity_permutation(aug.m))
            for i in range(aug.m):
                a, b = aug.x_axes(1 << i), aug.z_axes(1 << i)
                given = aug.z_axes((1 << i) - 1) | aug.s_axis
                exact = h(a | given) + h(b | given) - h(a | b | given) - h(given)
                worst = max(worst, abs(float(rates[i] - exact)))
    # measured worst: 2.6e-15 (1.0e-15 when each marginal was one multi-axis
    # sum of the joint), against the 1e-13 asserted here
    assert worst <= CMI_CLAMP / 1000


@pytest.mark.parametrize("m", [4, 5, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nondegeneracy_minimum_is_the_smallest_corner_separation(monkeypatch, seed, m):
    aug = region_problem_aug(seed, m)
    points = enumerate_extreme_points(aug)
    held = memo_keys(aug)
    calls = count_entropies(monkeypatch)
    report = nondegeneracy_report(aug)
    assert calls == [] and memo_keys(aug) == held   # each gap: two corner rates' entropies
    assert len(report.entries) == math.comb(m, 2) * 2 ** (m - 2)
    for a, b, cond, gap in report.entries:
        bit_a, bit_b, k = 1 << (a - 1), 1 << (b - 1), sum(1 << (i - 1) for i in cond)
        assert abs(gap - region_mod._mi_zz(aug, bit_a, bit_b, k)) <= 1e-12
        swapped = region_mod._cmi_xz(aug, bit_b, k) - region_mod._cmi_xz(aug, bit_b, k | bit_a)
        assert abs(gap - swapped) <= 1e-12
    rates = np.array([r for _, r in points])
    dist = np.abs(rates[:, None, :] - rates[None, :, :]).max(axis=2)
    closest = dist[np.triu_indices(len(rates), k=1)].min()
    assert abs(report.min_value - closest) <= 1e-12


def reference_group_pair_minimum(spec):
    """min I(X_I ; X_I' | S) over every disjoint pair of nonempty source groups."""
    s = axis_mask(spec, "S")
    values = []
    for sides in itertools.product(range(3), repeat=spec.m):
        a = [f"X{i + 1}" for i, side in enumerate(sides) if side == 1]
        b = [f"X{i + 1}" for i, side in enumerate(sides) if side == 2]
        if a and b:
            values.append(mi_sets(spec.source, axis_mask(spec, *a), axis_mask(spec, *b), s))
    return min(values, default=float("inf"))


def test_source_preflight_minimum_matches_the_group_pair_probe():
    # pins the group-pair minimum the preflight had before it went pairwise
    rng = np.random.default_rng(43)
    specs = [make_spec(rng, m=m, l=1) for m in (1, 2, 3, 4, 5)]
    specs += [product_source_spec(np.random.default_rng(39)), markov_source_spec()]
    for spec in specs:
        report = source_nondegeneracy_report(spec.source)
        assert len(report.entries) == math.comb(spec.m, 2)
        assert report.min_value == reference_group_pair_minimum(spec)
    aug = attach_channels(specs[0], random_channels(specs[0], rng))
    assert nondegeneracy_report(aug).entries == ()
    assert not nondegeneracy_report(aug).degenerate


SLEPIAN_WOLF_BANKS = 5


def deterministic_banks(spec, rng):
    """Fixed banks of deterministic channels, as one-hot rows: bank b gives slot
    position pos ``1 + (b + pos) % (|X_k| + 1)`` outputs and maps each symbol
    to a drawn one, so some outputs may go unused."""
    banks = []
    for b in range(SLEPIAN_WOLF_BANKS):
        bank = []
        for pos, k in enumerate(spec.channel_slots):
            size = spec.x_alphabet(k).size
            outputs = 1 + (b + pos) % (size + 1)
            bank.append(np.eye(outputs)[rng.integers(0, outputs, size=size)])
        banks.append(bank)
    return banks


@pytest.mark.parametrize("name", ["dsbs", "helper3", "zero-symbol", "lossless", "m6"])
def test_deterministic_banks_meet_the_slepian_wolf_oracle(name, request):
    # with Z_i = f_i(X_i), a corner coordinate is H(Z_pi(i) | Z_before, S),
    # g(I) = H(Z_I | Z_{I^c}, S) and a corner gap I(Z_a ; Z_b | Z_P, S) is
    # H(Z_a Z_P S) + H(Z_b Z_P S) - H(Z_a Z_b Z_P S) - H(Z_P S): a plain-numpy
    # oracle that shares no code with the region path (Slepian and Wolf, 1973).
    # The identity suite's Z-Z term for disjoint groups I, I' with R the rest is
    # the same difference of entropies, and every identity holds on these banks
    rng = np.random.default_rng(4701)
    specs = {"zero-symbol": lambda: zero_symbol_spec(rng),
             "lossless": lambda: make_spec(rng, m=2, j=2, l=1),      # J = M
             "m6": lambda: region_problem_spec(1, 6)}
    spec = specs[name]() if name in specs else request.getfixturevalue(name)
    lossless = [np.arange(spec.x_alphabet(i).size) for i in range(1, spec.j + 1)]
    full = (1 << spec.m) - 1
    first, second = np.array([(a, b) for a in range(1, full + 1) for b in range(1, full + 1)
                              if not a & b], dtype=np.int64).reshape(-1, 2).T
    rest = full ^ first ^ second
    for bank in deterministic_banks(spec, rng):
        aug = attach_channels(spec, [Channel(spec.x_alphabet(k), rows)
                                     for k, rows in zip(spec.channel_slots, bank)])
        maps = lossless + [rows.argmax(axis=1) for rows in bank]
        corners, g, h = slepian_wolf_reference(spec.source.probs, maps)
        got = enumerate_extreme_points(aug)
        assert [perm for perm, _ in got] == list(itertools.permutations(range(1, spec.m + 1)))
        assert np.abs(np.array([rates for _, rates in got]) - corners).max() <= 1e-12
        assert np.abs(membership(aug, corners).lhs - g).max() <= 1e-12
        entries = nondegeneracy_report(aug).entries
        assert len(entries) == math.comb(spec.m, 2) * 2 ** max(spec.m - 2, 0)
        for a, b, cond, gap in entries:
            bit_a, bit_b, p = 1 << (a - 1), 1 << (b - 1), sum(1 << (i - 1) for i in cond)
            assert abs(gap - (h[bit_a | p] + h[bit_b | p] - h[bit_a | bit_b | p] - h[p])) <= 1e-12
        zz = h[first | rest] + h[second | rest] - h[full] - h[rest]
        assert np.abs(region_mod._mi_zz(aug, first, second, rest) - zz).max(initial=0.0) <= 1e-12
        assert verify_chain_identities(aug).passed
