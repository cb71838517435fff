"""Quantizing a Markov chain.

Szegedy's construction turns a stochastic matrix P into a two-register
unitary.  The walk's eigenphases are read off the singular spectrum of
the discriminant sqrt(P_xy P_yx): every interior eigenvalue lambda
appears as the conjugate phase pair +-2 arccos(lambda).  Freezing
marked vertices opens a phase gap that a classical chain only shows as
a norm drop.
"""

import numpy as np

from walklab import classical, graphs, szegedy

p = szegedy.from_markov_chain(classical.unbiased_chain(graphs.cycle(8)))

smap = szegedy.spectrum_map(p)
print("walk on the 8-cycle")
print(f"{'lambda(D)':>12} {'predicted phase':>16}")
shown = set()
for lam in smap.d_values:
    if abs(lam) < 1 - 1e-12:
        theta = 2 * np.arccos(lam)
        key = round(theta, 9)
        if key not in shown:
            shown.add(key)
            print(f"{lam:12.6f} {theta:16.6f}")
print(f"pairing error against the actual eigenphases: {smap.pairing_error:.2e}")
print(f"eigenvalues left over at +-1: {len(smap.residual_values)}")

print("\nmarking vertices of the complete graph on 16 vertices:")
pc = szegedy.from_markov_chain(classical.unbiased_chain(graphs.complete(16)))
print(f"{'|M|':>4} {'block norm':>11} {'1 - de':>8} {'phi0':>8} {'2 sqrt(de)':>11}")
for k in (1, 2, 4):
    gap = szegedy.marked_phase_gap(pc, range(k))
    mc = gap.chain
    print(f"{k:4d} {mc.norm:11.6f} {mc.bound:8.4f} "
          f"{gap.phi0:8.4f} {gap.bound:11.4f}")
print("the norm stays below its bound and the phase gap above its own")
