"""Covering numbers, entropy numbers, admissible partitions and the
entropy-based bound on composite complexity.
"""

import numpy as np

from berncomp import (
    PointSet,
    build_admissible_sequence,
    composite_entropy_bound,
    composite_rate,
    covering_number,
    entropy_number,
    gamma2_upper,
    lipschitz_entropy_profile,
    metric_space_from_pointset,
    min_truncation_objective,
)

rng = np.random.default_rng(3)
T = PointSet(rng.uniform(-1, 1, size=(12, 2, 2)))
space = metric_space_from_pointset(T)
print(f"random space: {space.size} points, diameter {space.diameter:.4f}")

for delta in (0.25, 0.5, 1.0):
    res = covering_number(space, delta)
    print(f"  covering number at delta={delta}: greedy <= {res.upper_bound},"
          f" exact = {res.exact}")

for m in range(3):
    res = entropy_number(space, m)
    print(f"  entropy number e_{m}: greedy {res.upper_bound:.4f}, exact {res.exact}")

seq = build_admissible_sequence(space)
print(f"\nadmissible sequence: {len(seq.levels)} levels, block counts "
      f"{[len(level) for level in seq.levels]}")
print(f"chaining functional value: {gamma2_upper(space, seq):.4f} "
      f"(never below the diameter)")

print("\nentropy envelope profiles and the composite bound:")
profile = lipschitz_entropy_profile(20, L=1.0, B=1.0, k=1, C_k=4.0)
for n in (64, 256, 1024):
    bound, best_m = composite_entropy_bound(n, 1.0, 2.0, profile)
    print(f"  n={n:>5}: bound {bound:8.3f}, truncation level M*={best_m}")

print("\nnormalized rate scan (objective times sqrt(n) is nearly flat for k=1):")
for k in (1, 2, 4):
    row = []
    for n in (64, 256, 1024, 4096):
        v, _ = min_truncation_objective(k, n)
        row.append(f"n={n}: {v / composite_rate(n, k):.3f}")
    print(f"  k={k}: objective over predicted rate -> " + ", ".join(row))
