"""Problem instances, test channels, and the augmented joint they induce.

A :class:`ProblemSpec` fixes the finite-alphabet setting: M source
variables ``X1..XM``, the first J of which are observed losslessly at the
decoder side (their coded description is the variable itself), a side
information variable ``S``, a reconstruction target ``V``, and L bounded
per-letter distortion tables mapping ``V x Vhat_l`` to costs.

The remaining sources ``k = J+1..M`` are quantized through memoryless
test channels ``q_k(z | x_k)``.  Attaching a full bank of channels to the
source law produces the augmented joint

    p(x_1..x_M, s, v) * prod_k q_k(z_k | x_k),

an ordinary :class:`~canonical_region.pmf.JointPmf` whose axes are, in
order, ``X1..XM, S, V, Z_{J+1}..Z_M``; the region's rates and the
reported distortions are read off it (descent reads its own values in
slot order, without it).  :func:`attach_channels` builds that layout
from one bank, and :class:`AugmentedPmf`'s bitmask helpers map groups of
sources to its axes.  For ``m <= J`` the description variable is ``X_m``
itself; the helpers resolve that aliasing so callers can speak uniformly
of "description m".

A channel can equivalently be written as a mixture over its output
symbols: weights ``p'(z)`` and reverse conditionals ``q'(x | z)`` with
``sum_z p'(z) q'(x | z) = p_k(x)``.  That reverse form is the coordinate
the optimizer works in, so lossless conversion in both directions lives
here as well.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DegeneracyWarning,
    NumericIntegrityError,
    PreconditionError,
    StructuralError,
)
from .pmf import Alphabet, JointPmf, check_int, first_outside, mi_sets

ROW_TOL = 1e-12
MARGINAL_TOL = 1e-12
FACTORIZATION_TOL = 1e-10
MIXTURE_TOL = 1e-10
MIXTURE_INPUT_TOL = 1e-9
COLUMN_SUM_TOL = 1e-9     # reverse columns come from division: looser than ROW_TOL
REBUILT_ROW_TOL = 1e-8    # dividing by p_k(x) magnifies a pair's MIXTURE_INPUT_TOL slack


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic test channel from ``input`` symbols to one output symbol per
    column, or a stack of B such channels: ``rows`` is ``([B,] |input|, |output|)``."""

    input: Alphabet
    rows: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.rows, dtype=float)
        if arr.ndim not in (2, 3) or arr.shape[-2] != self.input.size or not arr.shape[-1]:
            raise StructuralError(
                f"channel matrix has shape {arr.shape}, expected "
                f"([B,] {self.input.size}, |output| >= 1)"
            )
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0:
            raise StructuralError("channel matrix entries must be finite and >= 0")
        sums = arr.sum(axis=-1)
        worst = float(np.abs(sums - 1.0).max())
        if worst > ROW_TOL:
            raise StructuralError(
                f"channel rows must each sum to 1 within {ROW_TOL}; worst error {worst:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)


def identity_channel(alphabet: Alphabet) -> Channel:
    """Noiseless channel: Z = X."""
    return Channel(alphabet, np.eye(alphabet.size))


def constant_channel(alphabet: Alphabet) -> Channel:
    """Channel whose single output symbol carries no information."""
    return Channel(alphabet, np.ones((alphabet.size, 1)))


def random_channel(alphabet: Alphabet, out_size: int, rng: np.random.Generator) -> Channel:
    if check_int(out_size, "output size") < 1:
        raise StructuralError(f"output size must be >= 1, got {out_size}")
    return Channel(alphabet, rng.dirichlet(np.ones(out_size), size=alphabet.size))


class ProblemSpec:
    """Validated, immutable description of one coding problem instance.

    Every size is read off the data: M is the number of source axes, the
    X, S and V alphabets are the tensor's shape, L is the number of
    distortion tables and each ``|Vhat_l|`` is its table's column count.

    Parameters
    ----------
    j:
        Number of losslessly observed sources, ``0 <= j <= M``.
    source_probs:
        Dense row-major tensor over ``(X1..XM, S, V)``, ``M >= 1``, of
        floats or exact :class:`~fractions.Fraction` values.  Converted to
        exact rationals and scaled to integer counts over the lcm of their
        denominators; each cell is lowered to float64 as count / total by
        Python's correctly rounded int division, the same bits as the
        exact normalized rational's ``float``.  So normalization is exact
        and a spec survives serialization round-trips bit-for-bit.
    distortions:
        One nonnegative table per measure, ``|V|`` rows by ``|Vhat_l|`` columns.

    ``source_fractions`` gives the normalized rationals, derived from the
    stored counts.  ``source_mass`` keeps the exact total of the source
    probabilities before normalization, so the loader can judge a file's
    mass slip.
    """

    __slots__ = (
        "name", "notes", "m", "j", "l", "x_alphabets", "s_alphabet", "v_alphabet",
        "vhat_alphabets", "source", "_counts", "source_mass", "distortions",
    )

    def __init__(
        self,
        j: int,
        source_probs,
        distortions: Sequence,
        name: str = "",
        notes: str = "",
    ) -> None:
        arr = np.array(source_probs, dtype=object)
        if arr.ndim < 3:
            raise StructuralError(
                f"source tensor needs axes X1..XM, S, V with M >= 1; got shape {arr.shape}"
            )
        m = arr.ndim - 2
        j = check_int(j, "J")
        if not 0 <= j <= m:
            raise StructuralError(f"J must satisfy 0 <= J <= M; got J={j!r}, M={m}")

        x_alphabets = tuple(Alphabet(f"X{i}", n) for i, n in enumerate(arr.shape[:m], start=1))
        s_alphabet = Alphabet("S", arr.shape[m])
        v_alphabet = Alphabet("V", arr.shape[m + 1])

        try:
            fracs = [x if isinstance(x, Fraction) else Fraction(float(x)) for x in arr.ravel()]
        except (TypeError, ValueError, OverflowError) as exc:   # NaN, +-inf, non-numbers
            raise StructuralError(f"source probabilities must be finite numbers: {exc}") from exc
        # every cell as an integer count over the common denominator
        scale = math.lcm(*(f.denominator for f in fracs))
        counts = tuple(f.numerator * (scale // f.denominator) for f in fracs)
        if min(counts) < 0:
            raise StructuralError("source probabilities must be nonnegative")
        total = sum(counts)
        if total <= 0:
            raise StructuralError("source probabilities sum to zero")
        # int true division is correctly rounded: float(Fraction(n, total)) exactly
        floats = np.array([n / total for n in counts]).reshape(arr.shape)

        source = JointPmf(floats)

        tables = []
        for li, d in enumerate(distortions, start=1):
            t = np.array(d, dtype=float)
            if t.ndim != 2 or t.shape[0] != v_alphabet.size:
                raise StructuralError(
                    f"distortion table {li} has shape {t.shape}, expected 2-D with "
                    f"{v_alphabet.size} rows"
                )
            if not np.all(np.isfinite(t)) or t.min(initial=0.0) < 0.0:
                raise StructuralError(
                    f"distortion table {li} must be finite and nonnegative"
                )
            t.setflags(write=False)
            tables.append(t)
        vhat_alphabets = tuple(
            Alphabet(f"Vhat{i}", t.shape[1]) for i, t in enumerate(tables, start=1)
        )

        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "notes", str(notes))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "l", len(tables))
        object.__setattr__(self, "x_alphabets", x_alphabets)
        object.__setattr__(self, "s_alphabet", s_alphabet)
        object.__setattr__(self, "v_alphabet", v_alphabet)
        object.__setattr__(self, "vhat_alphabets", vhat_alphabets)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "source_mass", Fraction(total, scale))
        object.__setattr__(self, "distortions", tuple(tables))

        self._warn_on_zero_symbols()

    def __setattr__(self, name, value):
        raise AttributeError("ProblemSpec is immutable")

    def _warn_on_zero_symbols(self) -> None:
        for axis, alphabet in enumerate((*self.x_alphabets, self.s_alphabet)):
            marg = self.source.marginal(1 << axis)      # the source axes are X1..XM, S, V
            if (marg <= 0.0).any():
                warnings.warn(
                    f"symbols of {alphabet.label} have zero probability: "
                    f"{np.flatnonzero(marg <= 0.0).tolist()}",
                    DegeneracyWarning,
                    stacklevel=3,
                )

    # ---- accessors ---------------------------------------------------------

    @property
    def source_fractions(self) -> tuple[Fraction, ...]:
        """The normalized source probabilities as exact rationals, in tensor order."""
        total = sum(self._counts)
        return tuple(Fraction(n, total) for n in self._counts)

    @property
    def channel_slots(self) -> tuple[int, ...]:
        """Source indices that carry a test channel: J+1..M (1-based)."""
        return tuple(range(self.j + 1, self.m + 1))

    def x_alphabet(self, k: int) -> Alphabet:
        if not 1 <= k <= self.m:
            raise StructuralError(f"source index {k} outside 1..{self.m}")
        return self.x_alphabets[k - 1]

    def x_marginal(self, k: int) -> np.ndarray:
        self.x_alphabet(k)                              # refuses k outside 1..M
        return self.source.marginal(1 << (k - 1))


def random_channels(
    spec: ProblemSpec,
    rng: np.random.Generator,
    sizes: Sequence[int] | None = None,
) -> list[Channel]:
    """One random channel per slot; default output sizes are ``|X_k|``."""
    slots = spec.channel_slots
    if sizes is None:
        sizes = [spec.x_alphabet(k).size for k in slots]
    if len(sizes) != len(slots):
        raise StructuralError(f"expected {len(slots)} output sizes, got {len(sizes)}")
    return [
        random_channel(spec.x_alphabet(k), n, rng) for k, n in zip(slots, sizes)
    ]


@dataclass(frozen=True, eq=False)
class AugmentedPmf:
    """The source law with a full channel bank attached.

    Constructed by :func:`attach_channels`; carries the joint tensor and
    the originating spec.  Helper methods map source bitmasks to axes by
    the joint's fixed layout ``X1..XM, S, V, Z_{J+1}..Z_M``, so ``Z_k`` is
    axis ``M+1+k-J`` and description m <= J is ``X_m`` itself.  Every
    information read shares the joint's memoized marginals and entropies.
    """

    joint: JointPmf
    spec: ProblemSpec

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def j(self) -> int:
        return self.spec.j

    def x_axes(self, sources):
        """Axes of X_i for the sources in the bitmask ``sources`` (bit i-1 is source i),
        or for each of an int array of bitmasks."""
        bad = first_outside(sources, self.m)
        if bad is not None:
            raise StructuralError(f"source mask {bad:#b} outside 1..{self.m}")
        return sources

    def z_axes(self, sources):
        """Description axes of ``sources``: X_i itself for i <= J, Z_i for i > J."""
        lossless = self.x_axes(sources) & ((1 << self.j) - 1)
        return lossless | (sources >> self.j) << (self.m + 2)

    @property
    def s_axis(self) -> int:
        return 1 << self.m

    @property
    def v_axis(self) -> int:
        return 2 << self.m


def attach_channels(spec: ProblemSpec, channels: Sequence[Channel]) -> AugmentedPmf:
    """The augmented joint: the source law times ``q_k(z_k | x_k)`` for one bank.

    One ``Z_k`` axis per slot, in increasing k.  ``channels[i]`` serves slot
    ``spec.channel_slots[i]``: one matrix reading ``X_k``, never a stack.  Two
    guarantees are enforced on the result: each ``Z_k`` is conditionally
    independent of everything else given ``X_k``, and marginalizing the Z
    axes returns the source law exactly.
    """
    slots = spec.channel_slots
    if len(channels) != len(slots):
        raise StructuralError(
            f"expected {len(slots)} channels for slots {slots}, got {len(channels)}"
        )
    arr = spec.source.probs
    for k, ch in zip(slots, channels):
        if ch.input != spec.x_alphabet(k) or ch.rows.ndim != 2:
            raise StructuralError(f"channel for slot {k} has input {ch.input} and rows of shape "
                                  f"{ch.rows.shape}, expected one matrix on {spec.x_alphabet(k)}")
        shape = [1] * arr.ndim + [ch.rows.shape[1]]
        shape[k - 1] = ch.input.size
        arr = arr[..., None] * ch.rows.reshape(shape)
    joint = JointPmf(arr)
    aug = AugmentedPmf(joint, spec)

    back = joint.marginal(aug.x_axes((1 << spec.m) - 1) | aug.s_axis | aug.v_axis)
    err = float(np.abs(back - spec.source.probs).max())
    if err > MARGINAL_TOL:
        raise NumericIntegrityError(
            f"augmented joint fails to marginalize back to the source "
            f"(max error {err:.3e})"
        )
    z, x = (np.array([axes(1 << (k - 1)) for k in slots], dtype=np.int64)
            for axes in (aug.z_axes, aug.x_axes))
    for k, info in zip(slots, mi_sets(joint, z, joint.all_axes() & ~(z | x), x)):
        if info > FACTORIZATION_TOL:
            raise NumericIntegrityError(
                f"Z{k} is not conditionally independent of the rest given X{k}"
            )
    return aug


@dataclass(frozen=True, eq=False)
class ReverseChannelPair:
    """Mixture form of a channel: output weights plus reverse conditionals.

    ``weights[z]`` is the output probability ``p'(z)`` and ``columns[z]``
    the conditional ``q'(x | z)`` on the input simplex.  Symbols with
    ``p'(z) = 0`` have columns that carry no information.  A stack of B
    pairs has a leading axis of B on both.
    """

    weights: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        cols = np.array(self.columns, dtype=float)
        if w.ndim not in (1, 2) or cols.ndim != w.ndim + 1 or cols.shape[:-1] != w.shape:
            raise StructuralError(
                f"weights {w.shape} and columns {cols.shape} are inconsistent"
            )
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(cols)):
            raise StructuralError("weights and columns must be finite")
        if w.min(initial=0.0) < 0.0 or np.abs(w.sum(axis=-1) - 1.0).max() > ROW_TOL:
            raise StructuralError("weights must be a probability vector")
        if cols.min(initial=0.0) < 0.0 or np.abs(cols.sum(axis=-1) - 1.0).max() > COLUMN_SUM_TOL:
            raise StructuralError("each column must be a probability vector")
        w.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "columns", cols)

    def mixture(self) -> np.ndarray:
        """The input law this pair represents: sum_z p'(z) q'(x|z)."""
        return (self.weights[..., None, :] @ self.columns)[..., 0, :]


def mixture_error(spec: ProblemSpec, k: int, pair: ReverseChannelPair) -> float:
    """Max absolute gap between the pair's (or a stack's) mixture and p_k."""
    return float(np.abs(pair.mixture() - spec.x_marginal(k)).max())


def forward_to_reverse(spec: ProblemSpec, k: int, q: Channel) -> ReverseChannelPair:
    """Convert a channel (or a stack) on slot k to its (weights, reverse columns) form."""
    if k not in spec.channel_slots:
        raise StructuralError(f"slot {k} is not in {spec.channel_slots}")
    if q.input != spec.x_alphabet(k):
        raise StructuralError(
            f"channel input {q.input} does not match source {spec.x_alphabet(k)}"
        )
    p_k = spec.x_marginal(k)
    joint = p_k[:, None] * q.rows            # ([B,] x, z) joint law
    weights = joint.sum(axis=-2)
    cols = np.full((*weights.shape, q.input.size), 1.0 / q.input.size)
    positive = weights > 0.0
    cols[positive] = np.swapaxes(joint, -1, -2)[positive] / weights[positive][:, None]
    pair = ReverseChannelPair(weights, cols)
    err = mixture_error(spec, k, pair)
    if err > MIXTURE_TOL:
        raise NumericIntegrityError(
            f"reverse pair mixture misses the source marginal by {err:.3e}"
        )
    return pair


def reverse_to_forward(spec: ProblemSpec, k: int, pair: ReverseChannelPair) -> Channel:
    """Convert a reverse pair (or a stack) back to a channel, one output per symbol.

    Requires the mixture identity to hold within ``MIXTURE_INPUT_TOL``.
    A zero-weight symbol becomes an output of zero probability, a zero
    column.  A source symbol with zero probability gets a channel row
    uniform over the pair's positive-weight symbols (its conditional is
    undefined).
    """
    if k not in spec.channel_slots:
        raise StructuralError(f"slot {k} is not in {spec.channel_slots}")
    err = mixture_error(spec, k, pair)
    if err > MIXTURE_INPUT_TOL:
        raise PreconditionError(
            f"reverse pair violates the mixture identity by {err:.3e}"
        )
    p_k = spec.x_marginal(k)
    w = pair.weights
    cols = np.swapaxes(pair.columns, -1, -2)                    # ([B,] x, z)
    positive = p_k > 0.0
    uniform = (w > 0.0) / np.count_nonzero(w > 0.0, axis=-1)[..., None]
    rows = np.repeat(uniform[..., None, :], p_k.size, axis=-2)
    rows[..., positive, :] = (w[..., None, :] * cols)[..., positive, :] / p_k[positive, None]
    sums = rows.sum(axis=-1)
    worst = float(sums.flat[np.abs(sums - 1.0).argmax()])
    if abs(worst - 1.0) > REBUILT_ROW_TOL:
        raise NumericIntegrityError(f"a reconstructed channel row sums to {worst!r}, too far from 1")
    rows /= sums[..., None]
    return Channel(spec.x_alphabet(k), rows)
