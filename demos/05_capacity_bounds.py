"""Capacity bookkeeping: closed-form bounds and the finite-length converse.

With channel memory growing as n^kappa, the identification rate is pinned
between (1-kappa)/4 and (1+kappa)/2.  The upper bound comes from sphere
packing: codewords live in a power ball of radius l and need pairwise
separation 2r, so log N <= n log2(2l/r).  At finite n that ceiling sits
above (1+kappa)/2 and descends toward it; the feedback rate floor is the
averaged Poisson entropy of the pilot laws, approaching half the log of the
peak intensity.  On a memoryless channel there is one pilot law, and the
large-mean entropy expansion of Poisson(peak*T_s + dark) tracks the exact
floor far more closely than that asymptote.
"""

from dipc import (
    ChannelParams,
    PowerConstraints,
    bound_report,
    converse_log_count,
    dif_capacity_lower,
    poisson_entropy_approx,
)

channel = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0,
                        dark_rate=0.1)

print("closed-form bounds (peak intensity 5):")
for kappa in (0.0, 0.25, 0.5):
    report = bound_report(kappa, channel, peak=5.0)
    print(f"  kappa={kappa:4.2f}: identification rate in "
          f"[{report.di_lower:.3f}, {report.di_upper:.3f}]; feedback floor "
          f"{report.dif_lower_exact:.3f} (exact) ~ "
          f"{report.dif_lower_asymptotic:.3f} (asymptotic)")

kappa = 0.25
params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
power = PowerConstraints(peak=1.0, average=1.0)
grid = [64, 256, 1024, 4096, 16384]
trend = [converse_log_count(n, kappa, params, power, 0.1, 0.1) for n in grid]

print(f"\nfinite-n converse at kappa={kappa} (asymptote {(1+kappa)/2}):")
print(f"{'n':>7} {'memory':>7} {'bits':>12} {'normalized':>11} {'excess':>8}")
for cb in trend:
    print(f"{cb.n:7d} {cb.memory:7d} {cb.bits:12.1f} {cb.normalized:11.4f} "
          f"{cb.normalized - (1+kappa)/2:8.4f}")

print("\nfeedback floor vs peak intensity (memoryless, dark 0.1):")
for scale in (5.0, 10.0, 20.0, 40.0, 80.0):
    exact, asym = dif_capacity_lower(params, peak=scale)
    expansion = poisson_entropy_approx(scale * params.slot_duration + params.dark_rate)
    print(f"  peak*T_s={scale:5.1f}: exact {exact:.4f}  expansion {expansion:.4f}"
          f"  asymptotic {asym:.4f}  gap {exact - asym:+.5f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 3.2))
    ax.semilogx(grid, [cb.normalized for cb in trend], "o-", label="finite-n ceiling")
    ax.axhline((1 + kappa) / 2, color="k", ls="--", lw=1, label="asymptote")
    ax.set_xlabel("block length n")
    ax.set_ylabel("log N / (n log2 n)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("converse_trend.png", dpi=150)
    print("\nwrote converse_trend.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the trend plot)")
