"""Property tests over random small instances (hypothesis).

Specs have M <= 4 sources of 1..3 symbols, |S| <= 2, |V| <= 3, L in 0..2
and J in 0..M, optionally with one source symbol at probability zero; the
probabilities, distortion tables and channel banks come from a drawn seed,
and a bank may be a stack of up to 3.  Bare pmfs have up to 7 axes of 1..3
symbols, some cells possibly zero, and may be stacks of up to 3.  Source cells given to the
normalization property are exact rationals, decimal strings read
exactly, floats and zeros.
"""
from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from canonical_region import (  # noqa: E402
    Channel,
    JointPmf,
    ProblemSpec,
    StructuralError,
    attach_channels,
    entropy,
    enumerate_extreme_points,
    mi_sets,
    nondegeneracy_report,
    random_channels,
    random_direction,
    rate_lhs,
    verify_linear_decomposition,
)
from canonical_region.pmf import JointStack  # noqa: E402
from canonical_region.region import _cmi_xz  # noqa: E402
from conftest import direct_marginal, memo_keys, reference_mi  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


@st.composite
def instances(draw):
    """A spec, a channel bank with output sizes 1..3, and the drawing rng."""
    m = draw(st.integers(1, 4))
    j = draw(st.integers(0, m))
    l = draw(st.integers(0, 2))
    x_sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    s_size = draw(st.integers(1, 2))
    v_size = draw(st.integers(1, 3))
    vhat_sizes = draw(st.lists(st.integers(1, 3), min_size=l, max_size=l))
    zero_source = draw(st.sampled_from([None] + [i for i, n in enumerate(x_sizes) if n > 1]))
    z_sizes = draw(st.lists(st.integers(1, 3), min_size=m - j, max_size=m - j))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    shape = tuple(x_sizes) + (s_size, v_size)
    probs = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    if zero_source is not None:
        probs[(slice(None),) * zero_source + (-1,)] = 0.0
    distortions = [rng.uniform(0.0, 1.0, size=(v_size, n)) for n in vhat_sizes]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # zero-probability symbols warn
        spec = ProblemSpec(j, probs, distortions)
    return spec, random_channels(spec, rng, z_sizes), rng


@SETTINGS
@given(instances())
def test_every_corner_sums_to_the_full_group_information(instance):
    spec, channels, _ = instance
    aug = attach_channels(spec, channels)
    full = rate_lhs(aug, range(1, spec.m + 1))
    for _, rates in enumerate_extreme_points(aug):
        assert abs(rates.sum() - full) <= 1e-9


@SETTINGS
@given(instances())
def test_memo_gaps_are_symmetric(instance):
    spec, channels, _ = instance
    aug = attach_channels(spec, channels)
    for a, b in itertools.combinations([1 << i for i in range(spec.m)], 2):
        for prefix in range(1 << spec.m):
            if prefix & (a | b):
                continue
            gap_ab = _cmi_xz(aug, a, prefix) - _cmi_xz(aug, a, prefix | b)
            gap_ba = _cmi_xz(aug, b, prefix) - _cmi_xz(aug, b, prefix | a)
            assert abs(gap_ab - gap_ba) <= 1e-12


@SETTINGS
@given(instances())
def test_smallest_gap_is_the_closest_corner_pair(instance):
    spec, channels, _ = instance
    aug = attach_channels(spec, channels)
    corners = [rates for _, rates in enumerate_extreme_points(aug)]
    closest = min((np.abs(r - s).max() for r, s in itertools.combinations(corners, 2)),
                  default=float("inf"))
    min_value = nondegeneracy_report(aug).min_value
    assert min_value == closest or abs(min_value - closest) <= 1e-12


@SETTINGS
@given(instances())
def test_mixture_decomposition_holds(instance):
    spec, channels, rng = instance
    if spec.m - spec.j + spec.l == 0:
        return   # J = M and L = 0: there is no direction to weigh
    direction = random_direction(spec.m, spec.j, spec.l, rng)
    report = verify_linear_decomposition(spec, channels, direction)
    assert report.passed, report


@st.composite
def tensors(draw):
    """A pmf tensor with 1..7 axes of 1..3 symbols, some cells possibly zero."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    if draw(st.booleans()):
        probs[(rng.random(shape) < 0.3) & (probs < probs.max())] = 0.0
        probs /= probs.sum()
    return probs


@SETTINGS
@given(tensors())
def test_memoized_marginals_match_the_direct_sum_in_any_order(probs):
    masks = range(1 << probs.ndim)
    rising, falling = JointPmf(probs), JointPmf(probs)
    for p, order in ((rising, masks), (falling, reversed(masks))):
        for mask in order:
            got = p.marginal(mask)
            assert not got.flags.writeable
            assert np.abs(got - direct_marginal(p.probs, mask)).max(initial=0.0) <= 1e-15
            if mask:
                entropy(p, mask)
    for mask in masks:
        assert rising.marginal(mask).tobytes() == falling.marginal(mask).tobytes()
        if mask:
            assert entropy(rising, mask).hex() == entropy(falling, mask).hex()


def cell_values():
    """A source cell as a caller may give it: an exact rational, a decimal
    string read exactly (as the loader reads one), a float, or a zero."""
    return st.one_of(
        st.fractions(min_value=0, max_value=10, max_denominator=10**6),
        st.decimals(min_value=0, max_value=10, places=8).map(lambda d: Fraction(str(d))),
        st.floats(min_value=0.0, max_value=10.0),
        st.sampled_from([0, 0.0, Fraction(0)]),
    )


@SETTINGS
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 2),
       st.integers(1, 3), st.data())
def test_integer_normalization_matches_the_fraction_reference(x_sizes, s_size, v_size, data):
    shape = tuple(x_sizes) + (s_size, v_size)
    cells = data.draw(st.lists(cell_values(), min_size=math.prod(shape),
                               max_size=math.prod(shape)))
    cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
        st.fractions(min_value=Fraction(1, 10**6), max_value=10))   # a positive total
    # the exact normalization ProblemSpec used before it worked on integer counts
    fracs = [x if isinstance(x, Fraction) else Fraction(float(x)) for x in cells]
    total = sum(fracs)
    reference = tuple(f / total for f in fracs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # zero-probability symbols warn
        spec = ProblemSpec(0, np.array(cells, dtype=object).reshape(shape), [])
    assert spec.source_mass == total
    assert spec.source_fractions == reference
    floats = np.array([float(f) for f in reference]).reshape(shape)
    assert spec.source.probs.tobytes() == floats.tobytes()


@st.composite
def mask_batches(draw, ndim):
    """``(a, b, given)`` int arrays of 1..12 mask triples over ``ndim`` axes: a and b
    nonempty, possibly sharing axes, and both disjoint from ``given``."""
    triples = []
    for _ in range(draw(st.integers(1, 12))):
        given = draw(st.integers(0, (1 << ndim) - 2))
        free = [i for i in range(ndim) if not given >> i & 1]
        a, b = (sum(1 << i for i in draw(st.lists(st.sampled_from(free), min_size=1,
                                                   unique=True))) for _ in range(2))
        triples.append((a, b, given))
    return tuple(np.array(column, dtype=np.int64) for column in zip(*triples))


@SETTINGS
@given(tensors(), st.integers(0, 3), st.integers(0, 2**32 - 1), st.data())
def test_batched_informations_match_single_calls_and_the_fsum_reference(probs, banks, seed,
                                                                        data):
    if banks:   # a stack of ``banks`` pmfs with the drawn one's zero cells
        weighted = probs * np.random.default_rng(seed).uniform(0.5, 2.0, (banks,) + probs.shape)
        probs = weighted / weighted.sum(axis=tuple(range(1, weighted.ndim)), keepdims=True)
    make = JointStack if banks else JointPmf
    ndim = probs.ndim - (1 if banks else 0)
    a, b, given = data.draw(mask_batches(ndim))
    batch = mi_sets(make(probs), a, b, given)
    assert batch.shape == a.shape + probs.shape[:1 if banks else 0]
    for i, triple in enumerate(zip(a.tolist(), b.tolist(), given.tolist())):
        single = mi_sets(make(probs), *triple)     # a fresh pmf: nothing read from a cache
        assert batch[i].tobytes() == np.asarray(single, dtype=float).tobytes()
        for bank, value in enumerate(np.atleast_1d(single).tolist()):
            reference = reference_mi(probs[bank] if banks else probs, *triple)
            assert abs(value - max(reference, 0.0)) <= 1e-12
    # one bad triple anywhere: an empty side, an overlap with the conditioning set,
    # an axis outside the tensor or a negative mask
    bad = data.draw(st.sampled_from([(0, 1, 0), (1, 0, 0), (1, 1, 1), (1 << ndim, 1, 0),
                                     (1, -1, 0)]))
    at = data.draw(st.integers(0, len(a)))
    with pytest.raises(StructuralError):
        mi_sets(make(probs), *(np.insert(column, at, value)
                               for column, value in zip((a, b, given), bad)))


def stacked_bank(spec, channels, rng, banks):
    """``channels`` and ``banks - 1`` more drawn banks of the same widths, as one stack."""
    widths = [ch.rows.shape[-1] for ch in channels]
    extra = [random_channels(spec, rng, widths) for _ in range(banks - 1)]
    return [Channel(ch.input, np.stack([ch.rows] + [bank[i].rows for bank in extra]))
            for i, ch in enumerate(channels)]


@SETTINGS
@given(instances(), st.integers(1, 3), st.data())
def test_batched_cmi_memo_reads_match_single_reads_and_refuses_a_bad_key(instance, banks,
                                                                        data):
    spec, channels, rng = instance
    if banks > 1 and channels:
        channels = stacked_bank(spec, channels, rng, banks)
    aug, fresh = attach_channels(spec, channels), attach_channels(spec, channels)
    full = (1 << spec.m) - 1
    keys = data.draw(st.lists(st.tuples(st.integers(1, full), st.integers(0, full))
                              .filter(lambda key: not key[0] & key[1]), min_size=1, max_size=12))
    left, cond = (np.array(column, dtype=np.int64) for column in zip(*keys))
    batch = _cmi_xz(aug, left, cond)
    lead = aug.joint.probs.shape[:aug.joint.stack]
    assert batch.shape == left.shape + lead
    for i, (l, c) in enumerate(keys):
        single = _cmi_xz(fresh, l, c)
        assert batch[i].tobytes() == np.asarray(single, dtype=float).tobytes()
        axes = (aug.x_axes(l), aug.z_axes(l), aug.z_axes(c) | aug.s_axis)
        for bank, value in enumerate(np.atleast_1d(single).tolist()):
            probs = aug.joint.probs[bank] if lead else aug.joint.probs
            assert abs(value - max(reference_mi(probs, *axes), 0.0)) <= 1e-12
    # one bad key anywhere: an empty left side, a source outside 1..M, a negative
    # mask or a conditioning set that overlaps the left side
    bad = data.draw(st.sampled_from([(0, 0), (full + 1, 0), (1, full + 1), (-1, 0), (1, -1),
                                     (1, 1)]))
    at = data.draw(st.integers(0, len(keys)))
    stored = memo_keys(aug)
    with pytest.raises(StructuralError):
        _cmi_xz(aug, np.insert(left, at, bad[0]), np.insert(cond, at, bad[1]))
    assert memo_keys(aug) == stored
