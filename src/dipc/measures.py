"""Distances, overlaps and entropies of count distributions.

Everything here works on finitely truncated distributions over the
nonnegative integers.  Truncation keeps a recorded tail bound so callers can
account for the missing mass; the default tail of 1e-12 sits far below every
tolerance used in the test suites.  Entropies and rates are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TAIL_MASS = 1e-12
# Poisson laws are summed over their support, about mean + 7*sqrt(mean)
# points, and the rounding of their log-space masses grows with the mean:
# at the default tail the total misses 1 by more than 1e-9 at some means
# from about 6.8e5 up, and by at most about 1.2e-10 up to this cap.
MAX_MEAN = 1e5

LN2 = math.log(2.0)


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability masses on a strictly increasing integer support.

    ``tail_bound`` is the mass excluded by truncation, so
    ``mass.sum() + tail_bound`` is 1 up to rounding.
    """

    support: np.ndarray
    mass: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)
        if support.ndim != 1 or support.size != mass.size:
            raise ValueError("support and mass must be 1-D and equally long")
        if support.size and (np.any(support < 0) or np.any(np.diff(support) <= 0)):
            raise ValueError("support must be strictly increasing and nonnegative")
        if np.any(mass < 0) or self.tail_bound < 0:
            raise ValueError("masses must be nonnegative")
        total = mass.sum() + self.tail_bound
        if not (1 - 1e-9 <= total <= 1 + 1e-9):
            raise ValueError(f"total mass {float(total)} not within 1e-9 of 1")


def poisson_pmf_truncated(mu: float, tail_mass: float = DEFAULT_TAIL_MASS) -> FiniteDistribution:
    """Poisson(mu) on [0, y_max], y_max the smallest point with sf(y_max) <= tail_mass.

    The survival function ``pdtrc`` stays accurate far below
    float-representable 1 - CDF, so tails down to ~1e-300 are supported.  The
    search starts at the quantile ``pdtrik`` finds for a tail of
    max(tail_mass, 1e-12), the depth to which that root finder is trusted,
    and steps outward to the exact cutoff.  The masses are
    exp(y ln mu - ln y! - mu) clipped to [0, 1], as scipy's ``poisson``
    distribution computes them.  ``scipy.special`` is imported on first
    call, so importing dipc does not load scipy.
    """
    from scipy.special import gammaln, pdtrc, pdtrik, xlogy

    if mu < 0:
        raise ValueError("Poisson mean must be nonnegative")
    if mu > MAX_MEAN:
        raise ValueError(f"Poisson mean {float(mu)} exceeds MAX_MEAN={MAX_MEAN:g}")
    if not 0 < tail_mass < 1:
        raise ValueError("tail_mass must lie in (0, 1)")
    if mu == 0:
        return FiniteDistribution(np.array([0]), np.array([1.0]), 0.0)
    y_max = math.ceil(pdtrik(1.0 - max(tail_mass, 1e-12), mu))
    while pdtrc(y_max, mu) > tail_mass:
        y_max += 1
    while y_max > 0 and pdtrc(y_max - 1, mu) <= tail_mass:
        y_max -= 1
    support = np.arange(y_max + 1)
    mass = np.clip(np.exp(xlogy(support, mu) - gammaln(support + 1) - mu), 0, 1)
    tail = max(0.0, 1.0 - mass.sum())
    return FiniteDistribution(support, mass, tail)


def _aligned(q1: FiniteDistribution, q2: FiniteDistribution):
    """Masses of both distributions on the union support (missing entries 0)."""
    support = np.union1d(q1.support, q2.support)
    m1 = np.zeros(support.size)
    m2 = np.zeros(support.size)
    m1[np.searchsorted(support, q1.support)] = q1.mass
    m2[np.searchsorted(support, q2.support)] = q2.mass
    return m1, m2


def l1_distance(q1: FiniteDistribution, q2: FiniteDistribution) -> float:
    """sum_a |Q1(a) - Q2(a)| over the union of supports."""
    m1, m2 = _aligned(q1, q2)
    return float(np.abs(m1 - m2).sum())


def tv_distance(q1: FiniteDistribution, q2: FiniteDistribution) -> float:
    """Total variation distance, exactly half the L1 distance."""
    return l1_distance(q1, q2) / 2.0


def bhattacharyya(q1: FiniteDistribution, q2: FiniteDistribution) -> float:
    """Overlap coefficient sum_a sqrt(Q1(a) * Q2(a)), in [0, 1]."""
    m1, m2 = _aligned(q1, q2)
    return float(np.sqrt(m1 * m2).sum())


def poisson_bhattacharyya_sq(mu1: float, mu2: float) -> float:
    """Squared Bhattacharyya overlap of two Poisson laws in closed form.

    The cross term of the overlap sum is itself a Poisson series, which
    collapses the square of the coefficient to exp(-(sqrt(mu1) - sqrt(mu2))^2).
    """
    if mu1 < 0 or mu2 < 0:
        raise ValueError("Poisson means must be nonnegative")
    return math.exp(-((math.sqrt(mu1) - math.sqrt(mu2)) ** 2))


def min_distance_radius(type1_budget: float, type2_budget: float) -> float:
    """Packing radius guaranteed by an error budget.

    Decoders meeting Type I / Type II budgets force output laws of distinct
    codewords to total variation at least delta = 1 - type1 - type2, which in
    the square-root intensity domain means centers at distance 2r with
    (2r)^2 = -ln(1 - delta^2).
    """
    if type1_budget < 0 or type2_budget < 0:
        raise ValueError("error budgets must be nonnegative")
    total = type1_budget + type2_budget
    if total >= 1:
        raise ValueError("error budgets must sum to less than 1")
    if total == 0:
        raise ValueError("zero total error budget makes the radius diverge")
    delta = min(1.0 - total, 1.0 - 1e-15)
    return math.sqrt(-math.log1p(-(delta * delta))) / 2.0


def poisson_entropy_exact(mu: float, tail_mass: float = DEFAULT_TAIL_MASS) -> float:
    """Entropy of Poisson(mu) in bits by summation over the truncated support."""
    if mu < 0:
        raise ValueError("Poisson mean must be nonnegative")
    if mu == 0:
        return 0.0
    dist = poisson_pmf_truncated(mu, tail_mass)
    mass = dist.mass[dist.mass > 0]
    return float(-(mass * np.log2(mass)).sum())


def poisson_entropy_approx(mu: float) -> float:
    """Large-mean entropy expansion in bits: 0.5*log2(2*pi*e*mu) - 1/(12*mu*ln2)."""
    if mu <= 0:
        raise ValueError("approximation requires a positive mean")
    return 0.5 * math.log2(2 * math.pi * math.e * mu) - 1.0 / (12.0 * mu * LN2)
