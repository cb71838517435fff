"""Transport by continuous-time quantum walks.

Three classics: the wavefront on a long cycle rides the Bessel
function, the hypercube walks corner to corner in time pi/2, and the
glued-trees walk crosses a graph that defeats classical exploration.
"""

import math

import numpy as np

from walklab import ctqw, linalg

print("cycle of 600 vertices at t = 20: probability vs squared Bessel law")
print(f"{'distance':>9} {'exact':>12} {'|J_d(2t)|^2':>12}")
chk = ctqw.cycle_bessel_check(600, 20.0, 45)
for d in (0, 10, 30, 40, 45):
    print(f"{d:9d} {chk.exact[d]:12.3e} {chk.approx[d]:12.3e}")
print("the front sits near distance 2t = 40 and dies beyond it")

print("\nhypercube corner-to-corner transfer, p = (sin t)^(2n):")
for n in (3, 6, 10):
    p = ctqw.hypercube_antipode_prob(n, math.pi / 2)
    print(f"  n = {n:2d}: probability {p:.1f} at t = pi/2")

for kind in ("plain", "cycle"):
    red = ctqw.glued_trees_reduce(kind, 6, seed=1)
    h = red.line.hamiltonian().matrix
    start = np.eye(red.line.nodes)[0]
    times = np.linspace(0.0, 24.0, 481)
    exit_prob = np.abs(linalg.evolve_many(h, times, start)[:, -1]) ** 2
    t_peak = times[int(np.argmax(exit_prob))]
    print(f"\nglued trees ({kind}), depth 6: "
          f"{red.line.nodes} columns, reduction checked to "
          f"{red.equivalence_error:.1e}")
    print(f"  exit probability peaks at {exit_prob.max():.3f} "
          f"around t = {t_peak:.2f}")
print("\na classical walker needs exponentially many steps to cross; "
      "the cycle-glued version keeps even clever classical strategies out")
