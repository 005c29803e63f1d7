from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest

from canonical_region import (
    Alphabet,
    Channel,
    DegeneracyWarning,
    Direction,
    NumericIntegrityError,
    PreconditionError,
    ProblemSpec,
    ReverseChannelPair,
    StructuralError,
    attach_channels,
    brute_force_search,
    constant_channel,
    forward_to_reverse,
    identity_channel,
    mi_sets,
    mixture_error,
    random_channels,
    random_direction,
    reverse_to_forward,
    verify_linear_decomposition,
)
from conftest import make_spec


def test_channel_validation():
    a = Alphabet("X", 2)
    with pytest.raises(StructuralError):
        Channel(a, [[0.5, 0.5]])
    with pytest.raises(StructuralError):
        Channel(a, [[0.5, 0.5], [1.2, -0.2]])
    with pytest.raises(StructuralError):
        Channel(a, [[0.6, 0.6], [0.5, 0.5]])
    for empty in (np.ones((2, 0)), np.ones((3, 2, 0))):     # a channel needs an output symbol
        with pytest.raises(StructuralError, match="output"):
            Channel(a, empty)


def test_channel_constructors():
    a = Alphabet("X", 3)
    ident = identity_channel(a)
    assert np.array_equal(ident.rows, np.eye(3))
    const = constant_channel(a)
    assert const.rows.shape[-1] == 1 and np.all(const.rows == 1.0)
    rng = np.random.default_rng(0)
    spec = make_spec(rng, m=2, j=0, l=1)
    chans = random_channels(spec, rng)
    assert len(chans) == 2
    assert all(ch.rows.shape[-1] == ch.input.size for ch in chans)
    chans = random_channels(spec, rng, sizes=[3, 2])
    assert [ch.rows.shape[-1] for ch in chans] == [3, 2]
    with pytest.raises(StructuralError):
        random_channels(spec, rng, sizes=[3])
    for sizes in ([3, 0], [3, -1], [3, 2.0]):
        with pytest.raises(StructuralError, match="output size"):
            random_channels(spec, rng, sizes=sizes)


def test_problem_spec_validation():
    probs = np.full((2, 1, 2), 0.25)
    table = [[0.0, 1.0], [1.0, 0.0]]
    spec = ProblemSpec(0, probs, [table])
    assert (spec.m, spec.j, spec.l) == (1, 0, 1)
    assert [a.size for a in spec.vhat_alphabets] == [2]
    with pytest.raises(StructuralError, match="M >= 1"):
        ProblemSpec(0, np.full((2, 2), 0.25), [table])      # S and V only: no source
    with pytest.raises(StructuralError, match="M >= 1"):
        ProblemSpec(0, np.full(4, 0.25), [])
    for shape in ((2, 0, 1, 2), (2, 0, 2), (2, 1, 0)):      # a zero-length axis
        with pytest.raises(StructuralError, match="size >= 1"):
            ProblemSpec(0, np.zeros(shape), [])
    with pytest.raises(StructuralError):
        ProblemSpec(2, probs, [table])
    with pytest.raises(StructuralError):
        ProblemSpec(-1, probs, [table])
    with pytest.raises(StructuralError):
        ProblemSpec(0, -probs, [table])
    with pytest.raises(StructuralError):
        ProblemSpec(0, np.zeros((2, 1, 2)), [table])
    for value in (np.nan, np.inf, -np.inf):
        bad = probs.copy()
        bad[1, 0, 0] = value
        with pytest.raises(StructuralError):
            ProblemSpec(0, bad, [table])
    for bad in ([[0.0, 1.0]], [0.0, 1.0], [[[0.0, 1.0], [1.0, 0.0]]]):   # not |V| rows, not 2-D
        with pytest.raises(StructuralError, match="2 rows"):
            ProblemSpec(0, probs, [bad])
    with pytest.raises(StructuralError, match="size >= 1"):
        ProblemSpec(0, probs, [np.zeros((2, 0))])
    with pytest.raises(StructuralError):
        ProblemSpec(0, probs, [[[0.0, -1.0], [1.0, 0.0]]])


def test_sizes_and_counts_must_be_integers(bwz):
    probs = np.full((2, 1, 2), 0.25)
    tables = [[[0.0, 1.0], [1.0, 0.0]]]
    d = Direction.normalized(1, 0, 1, [0.6, 0.8])
    refused = [
        lambda: ProblemSpec(False, probs, tables),
        lambda: ProblemSpec(0.0, probs, tables),
        lambda: random_channels(bwz, np.random.default_rng(0), sizes=[3.7]),
        lambda: random_channels(bwz, np.random.default_rng(0), sizes=[True]),
        lambda: brute_force_search(bwz, [d], [2.9], 6),
    ]
    for build in refused:
        with pytest.raises(StructuralError, match="is not an integer"):
            build()
    # numpy integers are integers; the derived sizes are Python ints
    i64 = np.int64
    spec = ProblemSpec(i64(0), probs, tables)
    assert (spec.m, spec.j, spec.l) == (1, 0, 1) and type(spec.m) is int and type(spec.j) is int
    assert type(spec.x_alphabet(1).size) is int and spec.v_alphabet.size == 2
    (ch,) = random_channels(bwz, np.random.default_rng(0), sizes=[i64(3)])
    assert ch.rows.shape == (2, 3)
    assert brute_force_search(bwz, [d], [i64(2)], 6)[0] == brute_force_search(bwz, [d], [2], 6)[0]


def test_problem_spec_exact_normalization():
    # an unnormalized float table is renormalized exactly, in rationals
    spec = ProblemSpec(0, np.array([[[0.25]], [[0.25]]]), [])
    assert spec.source_fractions == (Fraction(1, 2), Fraction(1, 2))
    assert spec.source_mass == Fraction(1, 2)
    assert float(spec.source.probs.sum()) == 1.0
    assert spec.channel_slots == (1,)
    # exact rationals stay exact: 1/6 and 1/3 normalize to 1/3 and 2/3, which no float is
    spec = ProblemSpec(0, [[[Fraction(1, 6)]], [[Fraction(1, 3)]]], [])
    assert spec.source_fractions == (Fraction(1, 3), Fraction(2, 3))
    assert spec.source_mass == Fraction(1, 2)
    assert spec.source.probs.ravel().tolist() == [1 / 3, 2 / 3]


def test_problem_spec_zero_symbol_warning():
    probs = np.zeros((2, 1, 2))
    probs[0, 0, 0] = 0.5
    probs[0, 0, 1] = 0.5
    with pytest.warns(DegeneracyWarning):
        ProblemSpec(0, probs, [])


def test_attach_matches_loop_product():
    rng = np.random.default_rng(21)
    spec = make_spec(rng, m=2, j=0, l=1, max_alphabet=3)
    chans = random_channels(rng=rng, spec=spec, sizes=[2, 2])
    n1, n2 = spec.x_alphabets[0].size, spec.x_alphabets[1].size
    ns, nv = spec.s_alphabet.size, spec.v_alphabet.size
    # oracle first: explicit product over every cell
    expected = np.zeros((n1, n2, ns, nv, 2, 2))
    for x1 in range(n1):
        for x2 in range(n2):
            for s in range(ns):
                for v in range(nv):
                    for z1 in range(2):
                        for z2 in range(2):
                            expected[x1, x2, s, v, z1, z2] = (
                                spec.source.probs[x1, x2, s, v]
                                * chans[0].rows[x1, z1]
                                * chans[1].rows[x2, z2]
                            )
    aug = attach_channels(spec, chans)
    assert aug.joint.probs.shape == expected.shape
    assert np.allclose(aug.joint.probs, expected, atol=1e-15)


def test_attach_validates_bank():
    rng = np.random.default_rng(3)
    spec = make_spec(rng, m=2, j=0, l=1)
    chans = random_channels(spec, rng)
    with pytest.raises(StructuralError):
        attach_channels(spec, chans[:1])
    wrong = identity_channel(Alphabet("X9", spec.x_alphabets[0].size))
    with pytest.raises(StructuralError):
        attach_channels(spec, [wrong, chans[1]])


def test_attach_refuses_a_stacked_bank(helper3):
    # the augmented joint holds one bank: a stacked channel, or one on the wrong
    # input, is refused naming its slot, and so is the region path that attaches it
    rng = np.random.default_rng(53)
    one, two = random_channels(helper3, rng), random_channels(helper3, rng)
    stacked = [Channel(a.input, np.stack([a.rows, b.rows])) for a, b in zip(one, two)]
    for pos, k in enumerate(helper3.channel_slots):
        wrong = identity_channel(Alphabet("X9", helper3.x_alphabet(k).size))
        for bad in (stacked[pos], wrong):
            with pytest.raises(StructuralError, match=f"slot {k} "):
                attach_channels(helper3, one[:pos] + [bad] + one[pos + 1:])
    direction = random_direction(helper3.m, helper3.j, helper3.l, rng)
    with pytest.raises(StructuralError, match=f"slot {helper3.channel_slots[0]} "):
        verify_linear_decomposition(helper3, stacked, direction)


def test_attach_channel_factorization():
    rng = np.random.default_rng(8)
    for _ in range(5):
        spec = make_spec(rng, l=1)
        aug = attach_channels(spec, random_channels(spec, rng))
        for k in spec.channel_slots:
            z, x = aug.z_axes(1 << (k - 1)), aug.x_axes(1 << (k - 1))
            rest = aug.joint.all_axes() & ~(z | x)
            if rest:
                assert mi_sets(aug.joint, z, rest, x) <= 1e-10


def test_description_aliasing_below_j():
    rng = np.random.default_rng(5)
    spec = make_spec(rng, m=2, j=1, l=1)
    (q,) = random_channels(spec, rng)
    aug = attach_channels(spec, [q])
    assert aug.z_axes(0b01) == aug.x_axes(0b01)   # lossless side: description is X1
    pair = aug.joint.marginal(aug.x_axes(0b10) | aug.z_axes(0b10))
    assert np.abs(pair - spec.x_marginal(2)[:, None] * q.rows).max() <= 1e-15
    with pytest.raises(StructuralError):
        aug.z_axes(0b100)
    with pytest.raises(AttributeError):
        aug.spec = spec


def loop_source_marginal(spec, sources):
    """The law of (X_i for i in the source mask, S, V), summed cell by cell."""
    probs = spec.source.probs
    keep = [i for i in range(spec.m) if sources >> i & 1] + [spec.m, spec.m + 1]
    out = np.zeros([probs.shape[a] for a in keep])
    for cell in np.ndindex(probs.shape):
        out[tuple(cell[a] for a in keep)] += probs[cell]
    return out


@pytest.mark.parametrize("m", [3, 4])
def test_axis_helpers_match_the_construction(m):
    rng = np.random.default_rng(40 + m)
    for j in (0, 1, m):
        spec = make_spec(rng, m=m, j=j, l=1)
        chans = random_channels(spec, rng, sizes=[2 + i for i in range(m - j)])
        aug = attach_channels(spec, chans)
        for mask in range(1 << m):
            got = aug.joint.marginal(aug.x_axes(mask) | aug.s_axis | aug.v_axis)
            expected = loop_source_marginal(spec, mask)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-15
            per_source = 0
            for i in range(m):
                if mask >> i & 1:
                    per_source |= aug.z_axes(1 << i)
            assert aug.z_axes(mask) == per_source
        for i, q in zip(spec.channel_slots, chans):
            bit = 1 << (i - 1)
            p_i = loop_source_marginal(spec, bit).sum(axis=(1, 2))
            got = aug.joint.marginal(aug.x_axes(bit) | aug.z_axes(bit))
            assert got.shape == q.rows.shape
            assert np.abs(got - p_i[:, None] * q.rows).max() <= 1e-15
        for i in range(1, j + 1):                      # lossless: the description is X_i
            assert aug.z_axes(1 << (i - 1)) == aug.x_axes(1 << (i - 1))
        for bad in (1 << m, (1 << m) | 1, 1 << (m + 3), -1, -(1 << m)):
            with pytest.raises(StructuralError):
                aug.x_axes(bad)
            with pytest.raises(StructuralError):
                aug.z_axes(bad)


def test_forward_reverse_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = make_spec(rng, m=2, j=1, l=1)
        k = 2
        (q,) = random_channels(spec, rng, sizes=[3])
        pair = forward_to_reverse(spec, k, q)
        # the two factorizations describe one joint (x, z) law
        p_k = spec.x_marginal(k)
        joint_fwd = p_k[:, None] * q.rows
        joint_rev = (pair.weights[:, None] * pair.columns).T
        assert np.abs(joint_fwd - joint_rev).max() < 1e-12
        assert mixture_error(spec, k, pair) < 1e-12
        back = reverse_to_forward(spec, k, pair)
        assert back.rows.shape[-1] == q.rows.shape[-1]
        assert np.abs(back.rows - q.rows).max() < 1e-10


def test_reverse_keeps_zero_weight_symbols_as_zero_columns():
    rng = np.random.default_rng(2)
    spec = make_spec(rng, m=1, j=0, l=1)
    n = spec.x_alphabets[0].size
    rows = np.zeros((n, 2))
    rows[:, 0] = 1.0                       # output symbol 1 never occurs
    q = Channel(spec.x_alphabets[0], rows)
    pair = forward_to_reverse(spec, 1, q)
    assert np.flatnonzero(pair.weights == 0.0).tolist() == [1]
    back = reverse_to_forward(spec, 1, pair)
    assert back.rows.tolist() == rows.tolist()     # one output per symbol: a zero column
    # in a stack, a symbol of zero weight in one pair is a zero column of that channel only
    (other,) = random_channels(spec, rng, sizes=[2])
    stack = forward_to_reverse(spec, 1, Channel(q.input, [rows, other.rows]))
    back = reverse_to_forward(spec, 1, stack)
    assert back.rows.shape == (2, n, 2)
    assert (back.rows[0, :, 1] == 0.0).all() and (back.rows[1, :, 1] > 0.0).all()
    assert np.abs(back.rows[1] - other.rows).max() < 1e-12


def test_reverse_requires_mixture_identity():
    rng = np.random.default_rng(4)
    spec = make_spec(rng, m=1, j=0, l=1)
    n = spec.x_alphabets[0].size
    cols = np.zeros((2, n))
    cols[:, 0] = 1.0                       # mixture puts all mass on symbol 0
    pair = ReverseChannelPair([0.5, 0.5], cols)
    assert mixture_error(spec, 1, pair) > 1e-3
    with pytest.raises(PreconditionError):
        reverse_to_forward(spec, 1, pair)


def test_zero_probability_source_symbol_round_trip():
    probs = np.zeros((2, 1, 2))
    probs[0, 0, 0] = 0.6
    probs[0, 0, 1] = 0.4
    with pytest.warns(DegeneracyWarning):
        spec = ProblemSpec(0, probs, [])
    q = identity_channel(spec.x_alphabets[0])
    pair = forward_to_reverse(spec, 1, q)
    assert np.flatnonzero(pair.weights == 0.0).tolist() == [1]   # Z=1 needs X=1, which never occurs
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)   # the spec warned once, at build
        back = reverse_to_forward(spec, 1, pair)
    # one output per symbol; X=1's row is uniform over the positive-weight symbols
    assert back.rows.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    probs = np.zeros((3, 1, 2))
    probs[:2, 0, 0] = 0.5
    with pytest.warns(DegeneracyWarning):
        spec = ProblemSpec(0, probs, [])
    q = identity_channel(spec.x_alphabets[0])
    pair = forward_to_reverse(spec, 1, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)
        back = reverse_to_forward(spec, 1, pair)
    assert back.rows.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]


def test_reverse_pair_validation():
    with pytest.raises(StructuralError):
        ReverseChannelPair([0.6, 0.6], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(StructuralError):
        ReverseChannelPair([0.5, 0.5], [[0.7, 0.7], [0.0, 1.0]])
    with pytest.raises(StructuralError):
        ReverseChannelPair([1.0], [[0.5, 0.5], [0.5, 0.5]])
    pair = ReverseChannelPair([0.25, 0.75], [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(pair.mixture(), [0.25, 0.75])
    assert len(pair.weights) == 2
    assert (pair.weights > 0.0).all()


def test_reverse_pair_rejects_non_finite():
    eye = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(StructuralError):
        ReverseChannelPair([np.nan, np.nan], eye)
    with pytest.raises(StructuralError):
        ReverseChannelPair([0.5, 0.5], [[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(StructuralError):
        ReverseChannelPair([0.5, 0.5], [[np.nan, 1.0], [0.0, 1.0]])


def test_forward_to_reverse_validates_slot():
    rng = np.random.default_rng(6)
    spec = make_spec(rng, m=2, j=1, l=1)
    q = identity_channel(spec.x_alphabets[0])
    with pytest.raises(StructuralError):
        forward_to_reverse(spec, 1, q)     # slot 1 is lossless, not a channel slot
    with pytest.raises(StructuralError):
        reverse_to_forward(spec, 1, ReverseChannelPair([1.0], [[1.0, 0.0]]))
