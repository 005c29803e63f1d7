from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from canonical_region import (
    DegeneracyWarning,
    ProblemSpec,
    StructuralError,
    constant_channel,
    resolve_problem,
    solve_equality_lp,
)
from canonical_region.augment import channel_product

DISTINCT_TOL = 1e-6


def make_spec(rng, m=None, j=None, l=None, max_alphabet=3, name=""):
    """Small random instance with full-support source (no degeneracy warnings)."""
    m = int(rng.integers(1, 4)) if m is None else m
    j = int(rng.integers(0, m + 1)) if j is None else j
    l = int(rng.integers(0, 3)) if l is None else l
    x_sizes = [int(rng.integers(2, max_alphabet + 1)) for _ in range(m)]
    s_size = int(rng.integers(1, 3))
    v_size = int(rng.integers(2, 4))
    vhat_sizes = [int(rng.integers(2, 4)) for _ in range(l)]
    shape = tuple(x_sizes) + (s_size, v_size)
    probs = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    distortions = [rng.uniform(0.0, 1.0, size=(v_size, n)) for n in vhat_sizes]
    return ProblemSpec(j, probs, distortions, name=name)


def solve_one(c, a, b, warm=()):
    """One LP solved as a stack of one, its fields unwrapped."""
    res = solve_equality_lp(*(np.asarray(x, dtype=float)[None] for x in (c, a, b)), warm)
    return SimpleNamespace(w=res.w[0], value=float(res.value[0]),
                           basis=tuple(res.basis[0].tolist()), duals=res.duals[0])


def direct_marginal(probs, mask):
    """The marginal of the axis bitmask ``mask`` as one multi-axis sum of ``probs``."""
    drop = tuple(i for i in range(probs.ndim) if not mask >> i & 1)
    return probs.sum(axis=drop) if drop else probs


def reference_mi(probs, a, b, given=0):
    """I(a; b | given) in bits for axis bitmasks of the dense tensor ``probs``, as four
    joint entropies, each a ``math.fsum`` of -x log2 x over the positive cells."""
    def h(mask):
        cells = direct_marginal(probs, mask).ravel().tolist() if mask else []
        return -math.fsum(x * math.log2(x) for x in cells if x > 0.0)

    return h(a | given) + h(b | given) - h(a | b | given) - h(given)


def memo_keys(aug):
    """The axis masks whose entropy, and whose marginal, the augmented joint holds."""
    return set(aug.joint._entropy_cache), set(aug.joint._marginals)


def slepian_wolf_reference(probs, maps):
    """Every corner and g(I) for deterministic descriptions ``Z_i = maps[i - 1][X_i]``.

    ``probs`` is the dense ``(X_1..X_M, S, V)`` source law, and a lossless
    source's map is the identity.  With deterministic channels
    I(X_I ; Z_I | Z_{I^c}, S) = H(Z_I | Z_{I^c}, S), so each value is a
    difference of joint entropies H(Z_A, S): the source's (X, S) marginal
    pushed through the maps, then the sum of -p log2 p.  Plain numpy only.
    Returns the ``(M!, M)`` corners in lexicographic order of the orders,
    position ``i - 1`` holding source i's rate H(Z_i | Z_before, S), the
    ``(2^M - 1,)`` array of g(I), entry ``mask - 1`` for group mask, and
    the ``(2^M,)`` table of H(Z_A, S), entry ``mask`` for the sources A.
    """
    m = len(maps)
    xs = probs.sum(axis=-1)                            # (X_1..X_M, S)
    symbols = np.indices(xs.shape).reshape(xs.ndim, -1)

    def h(mask):                                       # H(Z_A, S), A the sources in mask
        keep = [i for i in range(m) if mask >> i & 1]
        codes = [np.asarray(maps[i])[symbols[i]] for i in keep] + [symbols[m]]
        sizes = [max(maps[i]) + 1 for i in keep] + [xs.shape[m]]
        law = np.bincount(np.ravel_multi_index(codes, sizes), weights=xs.ravel())
        law = law[law > 0.0]
        return -(law * np.log2(law)).sum()

    joint = np.array([h(mask) for mask in range(1 << m)])
    full = (1 << m) - 1
    corners = []
    for order in itertools.permutations(range(m)):
        rates, before = np.empty(m), 0
        for i in order:
            rates[i] = joint[before | 1 << i] - joint[before]
            before |= 1 << i
        corners.append(rates)
    masks = np.arange(1, full + 1)
    return np.array(corners), joint[full] - joint[full ^ masks], joint


def deterministic_bayes_risks(probs, maps, distortions):
    """Each distortion's Bayes risk for deterministic descriptions ``Z_i = maps[i - 1][X_i]``.

    ``probs`` is the dense ``(X_1..X_M, S, V)`` source law and ``distortions``
    the ``(|V|, |V-hat_l|)`` tables; a lossless source's map is the identity,
    so the law of (X_1..X_J, S, Z, V) is the source pushed through the maps.
    Each risk sums, over the cells of (X_1..X_J, S, Z), the least expected
    distortion of an estimate.  Plain numpy only.
    """
    m = len(maps)
    symbols = np.indices(probs.shape).reshape(probs.ndim, -1)
    codes = [np.asarray(maps[i])[symbols[i]] for i in range(m)] + [symbols[m], symbols[m + 1]]
    sizes = [max(maps[i]) + 1 for i in range(m)] + list(probs.shape[m:])
    law = np.bincount(np.ravel_multi_index(codes, sizes), weights=probs.ravel(),
                      minlength=math.prod(sizes)).reshape(-1, probs.shape[m + 1])
    return np.array([(law @ np.asarray(d)).min(axis=1).sum() for d in distortions])


def spec_equals(a, b):
    """Exact field-by-field equality of two specs (rationals, not float tolerance)."""
    return (
        isinstance(b, ProblemSpec)
        and (a.name, a.notes) == (b.name, b.notes)
        and (a.m, a.j, a.l) == (b.m, b.j, b.l)
        and a.x_alphabets == b.x_alphabets
        and a.s_alphabet == b.s_alphabet
        and a.v_alphabet == b.v_alphabet
        and a.vhat_alphabets == b.vhat_alphabets
        and a.source_fractions == b.source_fractions
        and all(np.array_equal(x, y) for x, y in zip(a.distortions, b.distortions))
    )


def region_problem_spec(seed, m):
    """The benchmark's region problem: binary X/S/V, J = M - 4, L = 1, and a
    Dirichlet(1) source drawn from ``(seed, m)``."""
    rng = np.random.default_rng((seed, m))
    probs = rng.dirichlet(np.ones(2 ** (m + 2))).reshape((2,) * m + (2, 2))
    return ProblemSpec(m - 4, probs, [[[0, 1], [1, 0]]])


def zero_symbol_spec(rng):
    """M = 2, J = 0, L = 1 with symbol 2 of X1 at probability 0."""
    probs = rng.dirichlet(np.ones(24)).reshape(3, 2, 2, 2)      # X1 X2 S V
    probs[2] = 0.0
    probs /= probs.sum()
    with pytest.warns(DegeneracyWarning):
        return ProblemSpec(0, probs, [rng.uniform(0.0, 1.0, size=(2, 2))])


def product_source_spec(rng):
    """Independent X1, X2 with V = X1 xor X2: degenerate for every channel bank."""
    p1 = rng.dirichlet(np.ones(2))
    p2 = rng.dirichlet(np.ones(2))
    probs = np.zeros((2, 2, 1, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, 0, x1 ^ x2] = p1[x1] * p2[x2]
    return ProblemSpec(0, probs, [[[0.0, 1.0], [1.0, 0.0]]])


def markov_source_spec():
    """X2 a noisy copy of X1: dependent given the trivial S."""
    q = np.array([[0.8, 0.2], [0.3, 0.7]])
    p1 = np.array([0.6, 0.4])
    probs = np.zeros((2, 2, 1, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, 0, x1] = p1[x1] * q[x1, x2]
    return ProblemSpec(0, probs, [])


def binary_product_spec(p=(0.3, 0.15)):
    """Independent X_l ~ Bernoulli(p[l-1]), |S| = 1, V = (X1, X2) as symbol
    2 x1 + x2, J = 0, and distortion l Hamming on component l.

    Every corner rate I(X_i; Z_i | Z_K) is I(X_i; Z_i) and distortion l
    reads Z_l alone, so the objective splits into one Lagrangian per source
    (:func:`bernoulli_lagrangian`).  Independent sources make every corner
    coincide: the instance is for the optimizer and the lattice only.
    """
    px = [np.array([1 - q, q]) for q in p]
    probs = np.zeros((2, 2, 1, 4))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, 0, 2 * x1 + x2] = px[0][x1] * px[1][x2]
    v, vhat = np.arange(4)[:, None], np.arange(2)
    return ProblemSpec(0, probs, [((v >> 1) != vhat) * 1.0, ((v & 1) != vhat) * 1.0])


def bernoulli_lagrangian(p, a, b):
    """min a I(X; Z) + b P(X != Xhat(Z)) over test channels, X ~ Bernoulli(p), in bits.

    On R(D) = h(p) - h(D) for D <= min(p, 1 - p) (Cover and Thomas, ch. 10)
    the minimizer is D* = 1/(1 + 2^(b/a)), clipped at min(p, 1 - p); with
    a = 0, Z = X costs nothing.  Written out here, apart from the package.
    """
    def h(t):
        return -sum(u * math.log2(u) for u in (t, 1 - t) if u > 0)

    t = 2.0 ** (-b / a) if a > 0 else 0.0
    d = min(t / (1 + t), p, 1 - p)
    return a * (h(p) - h(d)) + b * d


def relabel_symbols(source, distortions, channels, axis, perm):
    """Relabel the symbols of one axis of the (X1..XM, S, V) source tensor.

    New symbol s of ``axis`` is old symbol ``perm[s]``.  ``distortions``
    are the |V| x |Vhat_l| tables and ``channels`` maps a source's tensor
    axis to its channel matrix, one row per symbol of that source.
    Returns the three with their entries moved to match: relabeling V
    permutes the distortion rows, relabeling X_i the rows of X_i's
    channel.  Plain arrays in and out.
    """
    v_axis = np.ndim(source) - 1
    source = np.take(source, perm, axis=axis)
    distortions = [np.take(d, perm, axis=0) if axis == v_axis else d for d in distortions]
    channels = {k: np.take(rows, perm, axis=0) if k == axis else rows
                for k, rows in channels.items()}
    return source, distortions, channels


def distinct_count(points, tol=DISTINCT_TOL):
    """Number of points farther than ``tol`` (max norm) from every point counted before them."""
    rates = np.array([r for _, r in points], dtype=float)
    reps = np.empty_like(rates)
    count = 0
    for r in rates:
        if not (np.abs(r - reps[:count]).max(axis=1) <= tol).any():
            reps[count] = r
            count += 1
    return count


def layout_axes(spec):
    """Axis names of the augmented joint in tensor order: X1..XM, S, V, Z_{J+1}..Z_M.

    Written out from the documented layout, not read from AugmentedPmf;
    the source law's axes are the first M + 2.
    """
    return ([f"X{i}" for i in range(1, spec.m + 1)] + ["S", "V"]
            + [f"Z{k}" for k in spec.channel_slots])


def axis_mask(spec, *names):
    """The axis bitmask of the named variables under :func:`layout_axes`."""
    axes = layout_axes(spec)
    mask = 0
    for name in names:
        mask |= 1 << axes.index(name)
    return mask


def estimator_distortion(aug, l, table):
    """Expected distortion of an arbitrary reconstruction table for measure l.

    The table's axes are the observations in layout order: X1..XJ, S, Z_{J+1}..Z_M.
    """
    spec = aug.spec
    if not 1 <= l <= spec.l:
        raise StructuralError(f"distortion index {l} outside 1..{spec.l}")
    obs = [f"X{i}" for i in range(1, spec.j + 1)] + ["S"] + [f"Z{k}" for k in spec.channel_slots]
    law = aug.joint.marginal(axis_mask(spec, *obs, "V"))   # V sits after X1..XJ and S
    m_uv = np.moveaxis(law, spec.j + 1, -1)             # (*u, v)
    d = spec.distortions[l - 1]
    tab = np.asarray(table, dtype=int)
    if tab.shape != m_uv.shape[:-1]:
        raise StructuralError(
            f"table shape {tab.shape} does not match observation axes {m_uv.shape[:-1]}"
        )
    picked = np.moveaxis(d[:, tab], 0, -1)             # (*u, v)
    return float((m_uv * picked).sum())


def theta_reference(spec, k, frozen, direction, t):
    """The slot-k objective at one simplex point ``t`` of X_k, from its definition.

    Mixes the law sum_x t(x) p(., X_k = x) / p_k(x) (0 where p_k(x) = 0)
    from the channel product with an inert one-symbol channel at slot k,
    then weighs each free rate and Bayes risk, its variables picked by
    axis name, by ``direction``.  Rates of descriptions i < k are corner
    rates of the unmixed joint; description k's first entropy is too.
    """
    joint = channel_product(spec, {**frozen, k: constant_channel(spec.x_alphabet(k))}).probs
    x_k = layout_axes(spec).index(f"X{k}")
    p_k = direct_marginal(joint, 1 << x_k)
    ratio = np.zeros_like(p_k)
    ratio[p_k > 0.0] = t[p_k > 0.0] / p_k[p_k > 0.0]
    law = joint * ratio.reshape([-1 if a == x_k else 1 for a in range(joint.ndim)])

    def h(arr, names):
        cells = direct_marginal(arr, axis_mask(spec, *names)).ravel()
        cells = cells[cells > 0.0]
        return float(-(cells * np.log2(cells)).sum())

    def cond_h(arr, of, given):
        return h(arr, of + given) - h(arr, given)

    def desc(i):
        return f"X{i}" if i <= spec.j else f"Z{i}"

    total = 0.0
    for i in spec.channel_slots:
        u = ["S"] + [desc(b) for b in range(1, i) if b != k]
        first = cond_h(joint if i <= k else law, [f"X{i}"], u)
        second = cond_h(joint if i < k else law, [f"X{i}"], u + [desc(i)])
        total += direction.rate_weight(i) * (first - second)
    obs = [desc(i) for i in range(1, spec.m + 1) if i != k] + ["S"]
    by_v = np.moveaxis(direct_marginal(law, axis_mask(spec, *obs, "V")), spec.j + 1, -1)
    for l, d in enumerate(spec.distortions, start=1):
        risk = (by_v.reshape(-1, spec.v_alphabet.size) @ d).min(axis=1).sum()
        total += direction.distortion_weight(l) * float(risk)
    return total


@pytest.fixture(scope="session")
def dsbs():
    return resolve_problem("dsbs")


@pytest.fixture(scope="session")
def bwz():
    return resolve_problem("bwz")


@pytest.fixture(scope="session")
def helper3():
    return resolve_problem("helper3")
