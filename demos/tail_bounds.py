"""Doubly exponential tail series and what it buys.

p(u) stacks doubly exponential union-bound terms against Gaussian decay;
q = min(p, 1) is a usable survival function.  Integrating q converts the
tail bound into an expectation bound, and the uncentering inequality turns
a shifted subgaussian tail into an unshifted one.
"""

import numpy as np

from berncomp import (
    expectation_bound_from_tail,
    sample_from_capped_tail,
    tail_crossing_point,
    tail_series,
    tail_series_capped,
    uncenter_tail,
)

w = 0
print("u      p(u)          q(u)")
for u in (1.0, 1.7, 1.83, 2.0, 2.5, 3.0, 10.0):
    p = tail_series(u, w)
    q = tail_series_capped(u, w)
    print(f"{u:<6} {p:<13.6g} {q:.6g}")

u_star = tail_crossing_point(w)
print(f"\nthe series crosses 1 at u* = {u_star:.6f} "
      f"(diverges below sqrt(4 ln 2) = 1.6651)")

bound, c_w = expectation_bound_from_tail(1.0, 0.0, w)
print(f"integral of q = {c_w:.6f}; any nonnegative Y with tail dominated by "
      f"q(u) at scale rho has E Y <= {c_w:.4f} rho + shift")

y = sample_from_capped_tail(w, 1.0, 0.0, 500000, seed=11)
print(f"sampled such a law: mean {y.mean():.6f} <= bound {bound:.6f}")

print("\nuncentering: Y = a + sqrt(E) has a shifted Gaussian-type tail;")
print("the unshifted bound min(1, e^(a^2 - u^2/2)) dominates it:")
rng = np.random.default_rng(5)
a = 0.5
y = a + np.sqrt(rng.exponential(size=500000))
for u in (0.5, 1.5, 2.5, 3.5):
    emp = float((y > u).mean())
    print(f"  u={u}: empirical {emp:.5f} <= bound {uncenter_tail(a, u):.5f}")
