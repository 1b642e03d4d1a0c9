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

from .errors import _check_array, _check_real

DEFAULT_TAIL_MASS = 1e-12
# Poisson laws are summed over their support, about mean + 7*sqrt(mean)
# points, and the rounding of their log-space masses grows with the mean:
# at the default tail the total misses 1 by more than 1e-9 at some means
# from about 6.8e5 up, and by at most about 1.2e-10 up to this cap.
MAX_MEAN = 1e5

LN2 = math.log(2.0)

# cephes lgam's constants: ln sqrt(2 pi) and its Stirling series in 1/x^2.
_LN_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_STIRLING_SHORT = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                   0.0833333333333333333333)
_SMALL_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability masses on a strictly increasing integer support.

    ``tail_bound`` is the mass excluded by truncation, so
    ``mass.sum() + tail_bound`` is 1 up to rounding.
    """

    support: np.ndarray
    mass: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        support = _check_array("support", self.support, 0, 2**63, kinds="iu")
        mass = _check_array("mass", self.mass, 0, 1, "[]")
        tail = _check_real("tail_bound", self.tail_bound, 0, 1, "[]")
        vars(self).update(support=support, mass=mass, tail_bound=tail)  # frozen: set once, here
        if support.size != mass.size:
            raise ValueError("support and mass must be equally long")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        total = mass.sum() + tail
        if not (1 - 1e-9 <= total <= 1 + 1e-9):
            raise ValueError(f"total mass {float(total)} not within 1e-9 of 1")


def poisson_pmf_truncated(mu: float, tail_mass: float = DEFAULT_TAIL_MASS) -> FiniteDistribution:
    """Poisson(mu) on [0, y_max], y_max the smallest point with P(Y > y_max) <= tail_mass.

    The masses are exp(y ln mu - ln y! - mu) clipped to [0, 1], as scipy's
    ``poisson`` distribution computes them.  They are computed out to where
    Bernstein's inequality puts the remaining mass 40 nats below
    ``tail_mass``, and P(Y > y) is their sum from the far end, so tails down
    to ~1e-300 are supported with numpy alone.
    """
    mu = _check_real("mu", mu, 0, MAX_MEAN, "[]")
    tail_mass = _check_real("tail_mass", tail_mass, 0, 1, "()")
    if mu == 0:
        return FiniteDistribution(np.array([0]), np.array([1.0]), 0.0)
    # P(Y >= mu + t) <= exp(-depth) for t = sqrt(2 mu depth) + 2 depth / 3.
    depth = 40.0 - math.log(tail_mass)
    support = np.arange(math.ceil(mu + math.sqrt(2 * mu * depth) + 2 * depth / 3) + 1)
    mass = np.clip(np.exp(support * math.log(mu) - _log_factorial(support) - mu), 0, 1)
    above = np.cumsum(mass[:0:-1])[::-1]  # above[y] = P(Y > y)
    y_max = int(np.count_nonzero(above > tail_mass))
    mass = mass[: y_max + 1]
    tail = max(0.0, 1.0 - mass.sum())
    return FiniteDistribution(support[: y_max + 1], mass, tail)


def _log_factorial(k) -> np.ndarray:
    """ln k! for integer-valued ``k`` >= 0, bit for bit scipy's ``gammaln(k + 1)``.

    This is cephes ``lgam`` at integer x = k + 1: the log of the exact
    product below 13, else Stirling's series, shortened from 1000 and
    dropped above 1e8.  Every log is libm's, through ``math.log``; numpy's
    own log rounds some arguments differently.
    """
    x = np.asarray(k, dtype=float) + 1.0
    out = np.empty_like(x)
    small = x < 13
    out[small] = _SMALL_LOG_FACTORIALS[x[small].astype(np.int64) - 1]
    x = x[~small]
    log_x = np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)
    q = (x - 0.5) * log_x - x + _LN_SQRT_2PI
    p = 1.0 / (x * x)
    series = np.where(x < 1000, _horner(_STIRLING, p), _horner(_STIRLING_SHORT, p))
    out[~small] = np.where(x > 1e8, q, q + series / x)
    return out


def _horner(coefficients, p):
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * p + c
    return value


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
    mu1, mu2 = _check_real("mu1", mu1, 0), _check_real("mu2", mu2, 0)
    return math.exp(-((math.sqrt(mu1) - math.sqrt(mu2)) ** 2))


def min_distance_radius(type1_budget: float, type2_budget: float) -> float:
    """Packing radius an error budget requires: necessary, not sufficient.

    Any decoder meeting Type I / Type II budgets forces the output laws of
    distinct codewords to total variation at least delta = 1 - type1 - type2,
    which in the square-root intensity domain means centers at distance 2r with
    (2r)^2 = -ln(1 - delta^2).  This is the converse's radius: codewords 2r
    apart are not thereby decodable within the budgets.
    """
    total = _check_real("type1_budget", type1_budget, 0, 1)
    total += _check_real("type2_budget", type2_budget, 0, 1)
    total = _check_real("type1_budget + type2_budget", total, 0, 1, "()")
    delta = min(1.0 - total, 1.0 - 1e-15)
    return math.sqrt(-math.log1p(-(delta * delta))) / 2.0


def poisson_entropy_exact(mu: float, tail_mass: float = DEFAULT_TAIL_MASS) -> float:
    """Entropy of Poisson(mu) in bits by summation over the truncated support."""
    dist = poisson_pmf_truncated(mu, tail_mass)
    mass = dist.mass[dist.mass > 0]
    return 0.0 - float((mass * np.log2(mass)).sum())  # 0.0, not -0.0, for a point mass


def poisson_entropy_approx(mu: float) -> float:
    """Large-mean entropy expansion in bits: 0.5*log2(2*pi*e*mu) - 1/(12*mu*ln2)."""
    # a float for the normal means whose 2*pi*e*mu and 1/(12*mu*ln2) are floats
    mu = _check_real("mu", mu, np.finfo(float).tiny, np.finfo(float).max / (2 * math.pi * math.e))
    return 0.5 * math.log2(2 * math.pi * math.e * mu) - 1.0 / (12.0 * mu * LN2)
