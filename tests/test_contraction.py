"""The chain rule's one-function case, exact on both sides.

For F = {h} with h: R^k -> R 1-Lipschitz the chain rule reads
b(h(T)) <= C b(T), with b(h(T)) in composite form (n signs) and b(T) in
matrix form (k*n signs).  C = 1 at k = 1, by the comparison theorem for
contractions (Ledoux and Talagrand, Probability in Banach Spaces, 1991,
section 4.5), and C = sqrt(2) at k >= 2, by Maurer's vector-contraction
inequality (Maurer, ALT 2016, arXiv:1605.00251), which the two-element sets
below attain.  Both sides enumerate every sign pattern, so the only slack
is rounding.  The library's AnchorDistanceClass with one anchor at 0, shift
0, L = 1 and B above every norm is the norm too, and runs beside the
test-side class {||.||} as its independent reference.
"""

import math

import numpy as np
import pytest

from berncomp import AnchorDistanceClass, PointSet, bernoulli_complexity
from berncomp.complexity import EstimatorConfig, composite_bernoulli_complexity

EXACT = EstimatorConfig(mode="exact", exact_cutoff_n=20)
ANCHORS = np.random.default_rng(11).uniform(-1.0, 1.0, size=(3, 3))


class OneFunction:
    """The class {h}: its supremum is the weighted sum of h over the points,
    for every (n, k) set of the stack of them."""

    def __init__(self, h):
        self.h = h

    def bind(self, points):
        values = [self.h(p) for p in np.asarray(points, dtype=float)]
        return lambda C: np.array([C @ v for v in values])


def norm(x):
    return np.linalg.norm(x, axis=1)


def anchor_distance(x):
    """Distance to the nearest of 3 fixed anchors (in the first k coordinates)."""
    a = ANCHORS[:, :x.shape[1]]
    return np.linalg.norm(x[:, None, :] - a[None, :, :], axis=2).min(axis=1)


def largest_coordinate(x):
    return x.max(axis=1)


def library_norm(k):
    """||x|| as the one-anchor library class; box points have norm at most sqrt(3)."""
    return AnchorDistanceClass(np.zeros((1, k)), [0.0], 1.0, 2.0)


@pytest.mark.parametrize("k, n", [(1, 12), (2, 8), (3, 6)])
def test_one_function_contracts_random_box_sets(k, n):
    constant = 1.0 if k == 1 else math.sqrt(2.0)
    rng = np.random.default_rng(100 * k + n)
    for _ in range(8):
        T = PointSet(rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 7)), k, n)))
        bT = bernoulli_complexity(T, EXACT).value
        classes = {h.__name__: OneFunction(h) for h in (norm, anchor_distance, largest_coordinate)}
        classes["library_norm"] = library_norm(k)
        bh = {name: composite_bernoulli_complexity(cls, T, EXACT).value
              for name, cls in classes.items()}
        for name, value in bh.items():
            assert value <= constant * bT * (1.0 + 1e-12), name
        assert bh["library_norm"] == pytest.approx(bh["norm"], rel=1e-12)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.9])
def test_the_norm_attains_sqrt2_on_two_elements(a):
    # b(T) = (1 - a)/2 and b(||T||) = sqrt(2) (1 - a)/2 in closed form
    T = PointSet(np.array([[[-1.0], [1.0]], [[-a], [a]]]))
    bT = bernoulli_complexity(T, EXACT).value
    assert bT == pytest.approx((1.0 - a) / 2.0, rel=1e-12)
    for cls in (OneFunction(norm), library_norm(2)):
        bh = composite_bernoulli_complexity(cls, T, EXACT).value
        assert bh == pytest.approx(math.sqrt(2.0) * bT, rel=1e-12)
