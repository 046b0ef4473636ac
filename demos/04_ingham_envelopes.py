"""Why the cluster-aware exponential-sum estimate is necessary.

Sampled exponential sums are equivalent to sum |x_k|^2 only under a
uniform pairwise frequency gap.  The coupled-wave branches cluster, so
with a sampling budget set by the (stable) 2-separated gap the lower
envelope against sum |x_k|^2 collapses as the truncation grows: a
cancelling draw x = (1, -1) on a tight cluster is nearly invisible to the
samples.  Measured against the cluster form

    Q(x) = sum_isolated |x_k|^2
         + sum_clusters |x_k + x_{k+1}|^2 + gap^2 (|x_k|^2 + |x_{k+1}|^2)

the same sums stay two-sided with stable constants.

Each envelope is exact (extreme eigenvalues of the Dirichlet-kernel Gram,
or of the pencil with Q); the sampled columns are the extreme ratios of
the seeded cross-check draws, which always lie inside it.
"""

import math

import numpy as np

from polystab import (
    ExampleParams,
    InghamConfig,
    build_coupled_waves,
    check_gap,
    estimate_clustered,
    estimate_scalar,
)


def sampling(freqs, gap, trials=400, seed=7):
    sigma = 0.9 * math.pi / (np.max(freqs) + 0.5 * gap)
    J = int(math.ceil((math.pi / gap) / sigma)) + 1
    return InghamConfig(sigma=sigma, J=J, gamma=gap, trials=trials, seed=seed)


print("coupled-wave spectrum, alpha = 1: envelopes vs truncation size")
print(f"{'':6} {'scalar: exact':>20} | {'sampled':>19}   {'clustered: exact':>17} | {'sampled':>13}")
print(f"{'k_max':>6} {'c_lo':>11} {'c_hi':>8} | {'lo':>11} {'hi':>7}   "
      f"{'c_lo':>8} {'c_hi':>8} | {'lo':>6} {'hi':>6}")
for k_max in (8, 16, 32, 64):
    sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, k_max))
    gamma1 = check_gap(sys_).gamma1
    cfg = sampling(sys_.mu, gamma1)
    sc = estimate_scalar(sys_.mu, cfg)
    cl = estimate_clustered(sys_.mu, cfg)
    print(f"{k_max:6d} {sc.c_lo:11.4e} {sc.c_hi:8.4g} | {sc.sampled_lo:11.4e} {sc.sampled_hi:7.4g}   "
          f"{cl.c_lo:8.4g} {cl.c_hi:8.4g} | {cl.sampled_lo:6.4g} {cl.sampled_hi:6.4g}")

print("\nscalar c_lo tracks the squared cluster gap ~ (alpha/(k pi))^2;")
print("the clustered envelope is two-sided with k_max-independent constants.")

# the draws include deterministic cancelling pairs, so the sampled collapse
# is reproducible, not a sampling accident
sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, 64))
gap = sys_.mu[-1] - sys_.mu[-2]
print(f"\ntightest cluster gap at k_max=64: {gap:.6f}, gap^2 = {gap**2:.3e}")
