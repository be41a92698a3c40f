"""Series experiments showing the limits of the energy-space embedding.

On the unit disk with the degenerate principal matrix [[1, i], [-i, 1]],
unconstrained boundary and unit Robin weight, the holomorphic power series

    u_eps(z, t) = sum_k z^k t^(k/2) / (T^((k+1)/2) (k+1)^(eps/2))

has squared energy-space Bochner norm A(eps) = 2 pi sum (k+1)^(-1-eps),
finite for every eps > 0, while its fractional Sobolev norm of order s is
bounded below by B(s, eps) = pi sum k^(2s-1) (k+1)^(-1-eps), which diverges
whenever eps <= 2s - 1. Picking eps between 0 and 2s - 1 therefore exhibits,
for every s > 1/2, finite-energy data escaping the order-s space.

Divergence is certified by the exact exponent test; partial-sum growth is
measured only as corroboration, since summation alone cannot prove
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SOutOfRange

_CHUNK = 2_500_000


@dataclass
class SeriesLowerBound:
    partial_sum: float
    diverges: bool
    growth_observed: bool


def _weighted_power_sum(s: float, epsilon: float, start: int, stop: int) -> float:
    """sum_{k=start}^{stop-1} k^(2s-1) (k+1)^(-1-eps); k = 0 contributes
    0**0 = 1 at s = 1/2, following the literal formula."""
    total = 0.0
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        k = np.arange(lo, hi, dtype=float)
        with np.errstate(divide="ignore"):
            weights = k ** (2.0 * s - 1.0)
        if lo == 0:
            weights[0] = 1.0 if s == 0.5 else 0.0
        total += float(np.sum(weights * (k + 1.0) ** (-1.0 - epsilon)))
    return total


def series_plus_norm(epsilon: float, terms: int) -> tuple[float, float]:
    """Partial sum of A(eps) through k = terms and an integral-test tail
    bound, so the limit lies in [partial, partial + tail]. A(eps) is
    2 B(1/2, eps): the weight k^0 is 1 for every k, k = 0 included."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if terms < 1:
        terms = 0
    partial = 2.0 * np.pi * _weighted_power_sum(0.5, epsilon, 0, terms + 1)
    tail = 2.0 * np.pi * terms ** (-epsilon) / epsilon if terms >= 1 else float("inf")
    return partial, tail


def series_hs_lower_bound(s: float, epsilon: float, terms: int) -> SeriesLowerBound:
    """Partial sum of B(s, eps) through k = terms with divergence verdict.

    The verdict is the exact exponent test (diverges iff eps <= 2s - 1);
    the growth of the partial sum between N and 2N is compared against half
    the integral-test prediction as a numeric corroboration.
    """
    if not (0.0 < s <= 1.0):
        raise SOutOfRange("s must lie in (0, 1]")
    partial = np.pi * _weighted_power_sum(s, epsilon, 0, terms + 1)
    doubled = partial + np.pi * _weighted_power_sum(s, epsilon, terms + 1, 2 * terms + 1)
    increment = doubled - partial
    p = 2.0 * s - 2.0 - epsilon
    n = max(terms, 2)
    if abs(p + 1.0) < 1e-14:
        predicted = np.pi * np.log(2.0)
    else:
        predicted = np.pi * ((2.0 * n) ** (p + 1.0) - n ** (p + 1.0)) / (p + 1.0)
    diverges = epsilon <= 2.0 * s - 1.0
    return SeriesLowerBound(
        partial_sum=partial,
        diverges=diverges,
        growth_observed=increment >= 0.4 * predicted and increment > 0.0,
    )


def witness_epsilon(s: float) -> float:
    """The midpoint epsilon = (2s - 1)/2 of (0, 2s - 1), for which A is
    finite and B diverges; s must lie in the open interval (1/2, 1)."""
    if not (0.5 < s < 1.0):
        raise SOutOfRange("s must lie in the open interval (1/2, 1)")
    return (2.0 * s - 1.0) / 2.0
