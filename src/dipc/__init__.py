"""Deterministic identification over discrete-time Poisson channels with ISI.

Subpackages by task:

- :mod:`dipc.channel`: channel law, intensities, sampling, power checks
- :mod:`dipc.measures`: L1/TV/Bhattacharyya distances, Poisson entropies
- :mod:`dipc.di_code`: sqrt-domain codebook packing, threshold decoding,
  Monte Carlo error estimation
- :mod:`dipc.dif_protocol`: the three-phase feedback protocol
- :mod:`dipc.bounds`: closed-form capacity bounds and the finite-n converse
- :mod:`dipc.harness`: experiment configs, reproducible runs, result files
"""

from .channel import (
    ChannelParams,
    PowerConstraints,
    effective_intensity,
    log_likelihood,
    sample_output,
    validate_power,
)
from .measures import (
    FiniteDistribution,
    bhattacharyya,
    l1_distance,
    min_distance_radius,
    poisson_bhattacharyya_sq,
    poisson_entropy_approx,
    poisson_entropy_exact,
    poisson_pmf_truncated,
    tv_distance,
)
from .di_code import (
    DICodebook,
    calibrate_threshold,
    construct_codebook,
    decode_identify,
    di_rate,
    estimate_errors,
    memory_scaling,
    packing_log_count_bound,
    power_ball_radius,
    validate_codebook,
)
from .dif_protocol import (
    DIFCode,
    DIFTranscript,
    HashFamily,
    TypicalSetSpec,
    blockize,
    build_dif_code,
    build_inner_code,
    collision_bound_check,
    dif_encode,
    dif_identify,
    dif_rate,
    estimate_dif_errors,
    estimate_inner_error,
    hash_message,
    max_messages_log_log,
    typical_log_size,
    typical_test,
)
from .bounds import (
    BoundReport,
    ConverseBound,
    bound_report,
    converse_log_count,
    di_capacity_bounds,
    dif_capacity_lower,
)
from .results import ErrorEstimate, SimResult, wilson_interval

__version__ = "0.1.0"
