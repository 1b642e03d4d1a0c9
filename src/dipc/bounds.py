"""Closed-form capacity bounds and finite-length converse bookkeeping.

Rates use base-2 logarithms throughout; radius formulas stated in natural
log are converted internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, PowerConstraints
from .di_code import memory_scaling, packing_log_count_bound, power_ball_radius
from .dif_protocol import letter_entropy_bits, letter_laws
from .errors import _check_real
from .measures import min_distance_radius


def di_capacity_bounds(kappa: float) -> tuple[float, float]:
    """Identification-capacity interval ((1-kappa)/4, (1+kappa)/2) for
    memory growing as n^kappa."""
    kappa = _check_real("kappa", kappa, 0, 1)
    return (1.0 - kappa) / 4.0, (1.0 + kappa) / 2.0


def dif_capacity_lower(params: ChannelParams, peak: float) -> tuple[float, float]:
    """Feedback identification rate floor: exact entropy average and its
    large-intensity form.

    Returns ``(exact_avg, asymptotic)`` where ``exact_avg`` averages the
    Poisson entropies of the per-position pilot laws p_k*peak*T_s + dark and
    ``asymptotic`` is 0.5*log2(2*pi*e*peak*T_s).
    """
    scale = _check_real("peak", peak, 0, ends="()") * params.slot_duration  # its log needs peak > 0
    exact = letter_entropy_bits(letter_laws(params, peak)) / (params.memory + 1)
    asymptotic = 0.5 * math.log2(2 * math.pi * math.e * scale)
    return float(exact), asymptotic


@dataclass(frozen=True)
class ConverseBound:
    """Finite-n sphere-packing ceiling and its normalized/asymptotic split."""

    n: int
    memory: int
    bits: float
    normalized: float
    slack_bits: float


def converse_log_count(
    n: int,
    kappa: float,
    params: ChannelParams,
    constraints: PowerConstraints,
    type1_budget: float,
    type2_budget: float,
) -> ConverseBound:
    """Compose the converse chain at finite n.

    Memory floor(n^kappa), packing radius from the error budget, power ball
    from the constraints, then the packing count n*log2(2l/r).  ``normalized``
    divides by n*log2(n) for comparison against (1+kappa)/2; ``slack_bits``
    is the finite-n excess over that asymptote, reported rather than dropped.
    """
    memory = memory_scaling(n, kappa)
    radius = min_distance_radius(type1_budget, type2_budget)
    bits = packing_log_count_bound(n, power_ball_radius(n, params, constraints, memory), radius)
    norm = bits / (n * math.log2(n))
    slack = bits - (1.0 + kappa) / 2.0 * n * math.log2(n)
    return ConverseBound(
        n=n,
        memory=memory,
        bits=bits,
        normalized=norm,
        slack_bits=slack,
    )


@dataclass(frozen=True)
class BoundReport:
    """All closed-form bounds for one channel and memory exponent."""

    kappa: float
    di_lower: float
    di_upper: float
    dif_lower_exact: float
    dif_lower_asymptotic: float

    def __post_init__(self):
        if self.di_lower > self.di_upper:
            raise ValueError("lower bound exceeds upper bound")


def bound_report(kappa: float, params: ChannelParams, peak: float) -> BoundReport:
    """Bundle the capacity bounds for reporting."""
    lower, upper = di_capacity_bounds(kappa)
    exact, asymptotic = dif_capacity_lower(params, peak)
    return BoundReport(
        kappa=kappa,
        di_lower=lower,
        di_upper=upper,
        dif_lower_exact=exact,
        dif_lower_asymptotic=asymptotic,
    )
