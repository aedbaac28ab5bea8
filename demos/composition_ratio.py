"""Log-free behavior of composed classes.

Passing a finite class through the Lipschitz ball multiplies its normalized
empirical complexity by at most a constant (plus an R/sqrt(n) offset); no
logarithmic factor in n appears.  This script measures the ratio

    R_hat(composed) / [ L (R/sqrt(n) + R_hat(inner)) ]

for growing n and shows it stays flat.  Both estimates use the same
Monte Carlo signs.
"""

import math

import numpy as np

from berncomp import (
    EstimatorConfig,
    LipschitzBall,
    PointSet,
    bernoulli_complexity,
    composite_bernoulli_complexity,
)

L, R, r, samples = 1.0, 1.0, 8, 120
print(f"inner class: {r} random functions into [-{R}, {R}];"
      f" composing class: {L}-Lipschitz ball, {samples} sign samples\n")
print(f"{'n':>5} {'inner':>8} {'composed':>9} {'ratio':>7}")
for n in (16, 32, 64, 128):
    rng = np.random.default_rng(100 + n)
    T = PointSet(rng.uniform(-R, R, size=(r, 1, n)))
    cfg = EstimatorConfig(mode="monte-carlo", mc_samples=samples, seed=200 + n)
    inner = bernoulli_complexity(T, cfg).value / n
    composed = composite_bernoulli_complexity(LipschitzBall(L, R), T, cfg).value / n
    ratio = composed / (L * (R / math.sqrt(n) + inner))
    print(f"{n:>5} {inner:>8.4f} {composed:>9.4f} {ratio:>7.3f}")

print("\nA log^(3/2) n factor would have grown the ratio by ~2.6x over this range.")
