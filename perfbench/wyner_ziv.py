"""Closed-form Wyner-Ziv reference for the bundled ``bwz`` problem.

``bwz`` is a uniform binary source X with side information S = X through
a binary symmetric channel of crossover ``P0 = 1/4`` and Hamming
distortion.  Wyner and Ziv (IEEE Trans. IT 22(1), 1976) give its
rate-distortion function as the lower convex envelope of

    g(D) = h(P0 * D) - h(D)   for 0 <= D <= P0,   and   g(P0) = 0,

where ``a * b = a(1 - b) + b(1 - a)`` is binary convolution.  A linear
objective ``a R + b D`` is minimized over an envelope at one of the
points it is built from, so the optimum along a direction is

    min( min_{0 <= D <= P0} a g(D) + b D ,  b P0 ).

This module shares no code with the package: it is the oracle the
benchmark checks the optimizer's ``bwz`` trace points against.
"""
from __future__ import annotations

import math

import numpy as np

P0 = 0.25
GRID_POINTS = 4001
GOLDEN_ITERATIONS = 80


def binary_entropy(p: float) -> float:
    """h(p) in bits, with h(0) = h(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def convolve(a: float, b: float) -> float:
    return a * (1.0 - b) + b * (1.0 - a)


def wz_curve(d: float, p0: float = P0) -> float:
    """g(D) = h(p0 * D) - h(D), the rate of the binary-symmetric test channel."""
    return binary_entropy(convolve(p0, d)) - binary_entropy(d)


def wz_optimum(a: float, b: float, p0: float = P0) -> float:
    """Minimum of ``a R + b D`` over the Wyner-Ziv region, in bits.

    A dense grid locates the best of ``a g(D) + b D`` on [0, p0]; a golden
    section search then refines it inside the neighbouring grid cells.
    """
    if a < 0.0 or b < 0.0:
        raise ValueError(f"weights must be nonnegative, got ({a}, {b})")

    def f(d: float) -> float:
        return a * wz_curve(d, p0) + b * d

    grid = np.linspace(0.0, p0, GRID_POINTS)
    values = [f(float(d)) for d in grid]
    best = int(np.argmin(values))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, GRID_POINTS - 1)])
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_ITERATIONS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    curve_min = min(values[best], f1, f2, f(lo), f(hi))
    return min(curve_min, b * p0)
