"""The three exact supremum oracles, side by side.

For a coefficient vector c and points x_1..x_n, each oracle returns
sup over its class of sum_i c_i f(x_i):

* a finite tabulated class (row-wise maximum),
* the Lipschitz ball {f : L-Lipschitz, |f| <= L R} (a linear program over
  attainable value vectors; any feasible vector extends to a real function),
* a Gaussian-kernel RKHS ball (Gram-matrix closed form),
* an anchor-distance class clip(L ||x - a_j|| + s_j, -B, B), a finite
  L-Lipschitz family in any dimension (row-wise maximum of its table).
"""

import numpy as np

from berncomp import (
    AnchorDistanceClass,
    FiniteFunctionClass,
    GaussianRkhsBall,
    lipschitz_ball_sup,
)

rng = np.random.default_rng(0)

print("Finite class: 4 tabulated functions on 3 points")
cls = FiniteFunctionClass(table=rng.uniform(-1, 1, size=(4, 3)), uniform_bound_B=1.0)
c = rng.normal(size=3)
# every class binds a stack of point sets, and sup_batch(points, C) is bind(points)(C) for
# one batch; the finite class reads only the stack's point count
sup = cls.sup_batch(np.zeros((1, 3, 1)), [c])[0, 0]
print(f"  sup = {sup:.4f} over rows {np.round(cls.table @ c, 4)}")

print("\nLipschitz ball on the line: two far-apart points pay no Lipschitz tax")
val = lipschitz_ball_sup([[-1.0], [1.0]], [1.0, 1.0], L=1.0, R=1.0)
print(f"  sup = {val}  (both values can sit at the box edge)")
val = lipschitz_ball_sup([[0.0], [0.1]], [1.0, -1.0], L=1.0, R=1.0)
print(f"  close points with opposing signs: sup = {val:.4f}  (= L * distance)")

print("\nGeneral-position points in R^2 go through the dense simplex:")
pts = rng.uniform(-1, 1, size=(5, 2))
c5 = rng.normal(size=5)
print(f"  sup = {lipschitz_ball_sup(pts, c5, L=1.0, R=1.0):.4f}")

print("\nRKHS ball: closed form vs sampled members (samples never exceed it)")
ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
pts = rng.uniform(-1, 1, size=(4, 1))
c4 = rng.normal(size=4)
closed = ball.sup(pts, c4)
d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
G = np.exp(-d2 / 2.0)
A = rng.standard_normal((2000, 4))
vals = (A @ (G @ c4)) / np.sqrt(np.einsum("si,ij,sj->s", A, G, A))
print(f"  closed form = {closed:.4f}, best of 2000 sampled members = {vals.max():.4f}")

print("\nEvery oracle is convex in the coefficients:")
anchor_1, anchor_2 = (
    AnchorDistanceClass(rng.uniform(-1, 1, size=(20, k)), rng.uniform(-1, 1, size=20), 1.0, 1.0)
    for k in (1, 2)
)
for name, fclass, k in [("finite", cls, 1), ("rkhs", ball, 1),
                        ("anchor-distance, k = 1", anchor_1, 1),
                        ("anchor-distance, k = 2", anchor_2, 2)]:
    pts_n = rng.uniform(-1, 1, size=(cls.n_points if name == "finite" else 4, k))
    n = pts_n.shape[0]
    ok = True
    for _ in range(200):
        # the value at a mixture of two rows is at most the mixture of values
        c1, c2, lam = rng.normal(size=n), rng.normal(size=n), float(rng.uniform())
        rows = np.stack([c1, c2, lam * c1 + (1.0 - lam) * c2])
        v1, v2, mixed = fclass.sup_batch(pts_n[None], rows)[0]  # a stack of one set
        ok = ok and bool(mixed <= lam * v1 + (1.0 - lam) * v2 + 1e-9)
    print(f"  {name}: 200 random convexity checks pass = {ok}")
