"""Markov chain utilities: mixing, hitting, sampling, estimating.

Everything classical that the quantum walks are measured against lives
here.  The partition-function estimator at the end telescopes a product
of per-temperature ratios, each measured by a short Metropolis run.
"""

import numpy as np

from walklab import classical, graphs

chain = classical.unbiased_chain(graphs.cycle(9))
p0 = np.zeros(9)
p0[0] = 1.0
mix = classical.mixing_time(chain, p0, 0.05)
print(f"9-cycle: mixing time {mix.steps} steps "
      f"(spectral lower bound {mix.spectral_bound:.1f})")

cube = classical.unbiased_chain(graphs.hypercube(4))
hit = classical.hitting_time(cube, 0, 15, horizon=2000)
print(f"4-cube corner to corner: mean hitting time "
      f"{hit.mean_truncated:.1f} steps "
      f"(mass not yet arrived: {hit.tail_mass:.1e})")

# independent spins: energy counts the raised bits, so the partition
# function factorizes and the estimator can be graded against truth
bits = 6
model = classical.EnergyModel.bit_flip(bits, lambda s: float(bin(s).count("1")))

betas = np.linspace(0.0, 2.0, 9)
result = classical.telescoping_partition_estimate(
    model, betas, 400, np.random.default_rng(1))
exact = (1.0 + np.exp(-2.0)) ** bits
print(f"\ntelescoping estimate of Z(beta=2): {result.z_hat:.2f} "
      f"(exact {exact:.2f}, "
      f"error {abs(result.z_hat - exact) / exact:.1%})")
print(f"smallest level ratio: {result.alpha_floor:.3f} "
      "(a gentle schedule keeps these above 1/2)")

rng = np.random.default_rng(3)
energies = rng.normal(size=2 ** 8)
rough = classical.EnergyModel.bit_flip(8, lambda s: float(energies[s]))
found = min(
    energies[classical.simulated_annealing(rough, 2.0, 0.9, 0.05, 60, rng)]
    for _ in range(20)
)
print(f"\nannealing on a random landscape over 8-bit strings:")
print(f"  best of 20 runs {found:.4f}, true minimum {energies.min():.4f}")
