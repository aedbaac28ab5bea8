"""Independent brute-force oracles used by the unit and acceptance suites.

Nothing here touches the library's solver paths: values come from direct
enumeration, grid search, interval arithmetic, scipy's LP solver on the
primal all-pairs LP, per-function, per-point Python tables, and earlier
implementations kept as references (the list-rebuilding line DP, the
one-row slope-trick line DP, the dense simplex and the one-row transport
LP built on it, the list-and-delete farthest-first order), so agreement
between these oracles and the library is a genuine two-route check.  The
convexity check of an oracle along a segment of rows lives here too.
"""

import itertools
import math
from collections import deque

import numpy as np

from berncomp import InvalidInputError, SolverError, tail_series_capped
from berncomp.classes import GAIN_SCALE_FLOOR
from berncomp.tails import SAMPLER_GRID_STEP, SAMPLER_TAIL_CUT


def pairwise_dist(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.ndim == 2 and pts.shape[1] == 0:
        raise ValueError("empty points")
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def grid_lipschitz_sup(pts, c, L, R, divisor=200):
    """Brute-force grid search for sup sum c_i y_i over the Lipschitz value
    polytope, y coordinates on a step R/divisor grid over [-L*R, L*R].

    Supports n <= 4.  For n = 4 the first three coordinates are gridded and
    the last is taken at the exact endpoint of its feasible interval (pure
    interval arithmetic, no LP).
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    c = np.asarray(c, dtype=float)
    B = L * R
    step = R / divisor
    n_cells = int(round(2 * B / step))
    grid = np.linspace(-B, B, n_cells + 1)
    d = L * pairwise_dist(pts)

    if n == 1:
        return float((c[0] * grid).max())
    if n == 2:
        vals = c[0] * grid[:, None] + c[1] * grid[None, :]
        mask = np.abs(grid[:, None] - grid[None, :]) <= d[0, 1] + 1e-12
        return float(vals[mask].max())
    eps = 1e-12

    def window(y, radius):
        # contiguous grid indices within |grid - y| <= radius
        a = int(np.searchsorted(grid, y - radius - eps, side="left"))
        b = int(np.searchsorted(grid, y + radius + eps, side="right"))
        return a, b

    if n == 3:
        best = -np.inf
        pair23 = np.abs(grid[:, None] - grid[None, :]) <= d[1, 2] + eps
        base23 = c[1] * grid[:, None] + c[2] * grid[None, :]
        for y1 in grid:
            a2, b2 = window(y1, d[0, 1])
            a3, b3 = window(y1, d[0, 2])
            if a2 >= b2 or a3 >= b3:
                continue
            m = pair23[a2:b2, a3:b3]
            if m.any():
                top = float(np.max(base23[a2:b2, a3:b3], initial=-np.inf, where=m))
                best = max(best, c[0] * y1 + top)
        return float(best)
    if n == 4:
        best = -np.inf
        y2g = grid[:, None]
        y3g = grid[None, :]
        pair23 = np.abs(y2g - y3g) <= d[1, 2] + eps
        base23 = c[1] * y2g + c[2] * y3g
        lo23 = np.maximum(y2g - d[1, 3], y3g - d[2, 3])
        hi23 = np.minimum(y2g + d[1, 3], y3g + d[2, 3])
        for y1 in grid:
            a2, b2 = window(y1, d[0, 1])
            a3, b3 = window(y1, d[0, 2])
            if a2 >= b2 or a3 >= b3:
                continue
            lo = np.maximum(lo23[a2:b2, a3:b3], max(-B, y1 - d[0, 3]))
            hi = np.minimum(hi23[a2:b2, a3:b3], min(B, y1 + d[0, 3]))
            feasible = pair23[a2:b2, a3:b3] & (lo <= hi + eps)
            if not feasible.any():
                continue
            y4 = hi if c[3] > 0 else lo
            vals = base23[a2:b2, a3:b3] + c[3] * y4
            best = max(best, c[0] * y1 + float(np.max(vals, initial=-np.inf, where=feasible)))
        return float(best)
    raise ValueError("grid oracle supports n <= 4")


def linprog_lipschitz_sup(pts, c, L, R):
    """sup sum c_i y_i over the all-pairs Lipschitz value polytope
    (y_i - y_j <= L * d_ij for every ordered pair, |y_i| <= L * R), posed in
    the values y themselves and solved by scipy's HiGHS.  The library solves
    the transport dual of this LP on its own simplex; this route shares
    neither the formulation nor the solver."""
    from scipy.optimize import linprog

    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    A = np.zeros((len(i), n))
    A[np.arange(len(i)), i] = 1.0
    A[np.arange(len(i)), j] = -1.0
    b = L * pairwise_dist(pts)[i, j]
    res = linprog(-np.asarray(c, dtype=float), A_ub=A if len(i) else None,
                  b_ub=b if len(i) else None, bounds=[(-L * R, L * R)] * n, method="highs")
    if res.status != 0:
        raise ValueError(f"linprog failed: {res.message}")
    return float(-res.fun)


def reference_line_dp(x: np.ndarray, c: np.ndarray, L: float, B: float) -> float:
    """Exact 1-d path solver via dynamic programming over concave
    piecewise-linear value functions.

    Reference for the library's slope-trick line solver: it rebuilds explicit
    breakpoint lists at every point (O(n^2)), sharing no code with it.

    Processing points in sorted order, V_i(y) is the best objective over the
    first i points given y_i = y.  Each step is a sliding-window maximum
    (halfwidth L * gap), a clip to [-B, B] and the addition of a linear term,
    all of which preserve concave piecewise linearity.  On the line the
    adjacent constraints imply all pairwise ones, so this matches the
    all-pairs LP exactly.
    """
    order = np.argsort(x, kind="stable")
    xs = [-B, B]
    vs = [c[order[0]] * -B, c[order[0]] * B]
    prev = x[order[0]]
    for idx in order[1:]:
        gap = float(x[idx] - prev)
        prev = x[idx]
        a = L * gap
        if a > 0:
            vmax = max(vs)
            pl = vs.index(vmax)
            pr = len(vs) - 1 - vs[::-1].index(vmax)
            xs = [p - a for p in xs[:pl]] + [xs[pl] - a, xs[pr] + a] + \
                 [p + a for p in xs[pr + 1:]]
            vs = vs[:pl] + [vmax, vmax] + vs[pr + 1:]
            # clip the domain back to the box
            lo_v = float(np.interp(-B, xs, vs))
            hi_v = float(np.interp(B, xs, vs))
            inner = [(p, v) for p, v in zip(xs, vs) if -B < p < B]
            xs = [-B] + [p for p, _ in inner] + [B]
            vs = [lo_v] + [v for _, v in inner] + [hi_v]
        ci = c[idx]
        if ci != 0.0:
            vs = [v + ci * p for p, v in zip(xs, vs)]
    return float(max(vs))


def reference_slope_trick_line(x: np.ndarray, c: np.ndarray, L: float, B: float) -> float:
    """The library's slope-trick line solver in its one-row form: it sorts
    x and forms each window halfwidth min(L * gap, 2B) in Python floats on
    every call.  LipschitzBall.sup_batch, which sorts once per batch and
    forms the halfwidths in numpy, must give these bits row by row."""
    order = np.argsort(x, kind="stable")
    xs = x[order].tolist()
    cs = c[order].tolist()
    left = deque()   # [key, width] with key < S, outer end first
    right = deque()  # [key, width] with key > S, inner end first
    plateau = 2.0 * B
    total = 0.0      # S
    value = 0.0      # V(-B)
    prev = xs[0]
    for xi, ci in zip(xs, cs):
        a = min(L * (xi - prev), 2.0 * B)
        prev = xi
        if a > 0.0:
            plateau += 2.0 * a
            rest = a
            while left and left[0][1] <= rest:
                key, width = left.popleft()
                value += (total - key) * width
                rest -= width
            if rest > 0.0:
                if left:
                    left[0][1] -= rest
                    value += (total - left[0][0]) * rest
                else:
                    plateau -= rest
            rest = a
            while right and right[-1][1] <= rest:
                rest -= right.pop()[1]
            if rest > 0.0:
                if right:
                    right[-1][1] -= rest
                else:
                    plateau -= rest
        if ci == 0.0:
            continue
        value -= B * ci
        new_total = total + ci
        if ci > 0.0:
            if plateau > 0.0:
                left.append([total, plateau])
            plateau = 0.0
            while right and right[0][0] <= new_total:
                seg = right.popleft()
                if seg[0] < new_total:
                    left.append(seg)
                else:
                    plateau += seg[1]
        else:
            if plateau > 0.0:
                right.appendleft([total, plateau])
            plateau = 0.0
            while left and left[-1][0] >= new_total:
                seg = left.pop()
                if seg[0] > new_total:
                    right.appendleft(seg)
                else:
                    plateau += seg[1]
        total = new_total
    return float(value + sum((total - key) * width for key, width in left))


# Constants of the reference dense simplex below.
_PIVOT_TOL = 1e-9
MAX_ITER_BASE = 10000
MAX_ITER_PER_DIM = 50


def reference_dense_simplex(c, A, b):
    """Return (optimal value, optimal x).

    Reference for the library's simplex_maximize: the same tableau and the
    same pivots, but every pivot updates the whole tableau densely.  The
    entering column is the most negative reduced cost (Dantzig), or the
    lowest-index improving one (Bland) once m pivots in a row have been
    degenerate, until the next nondegenerate pivot.

    Raises SolverError with diagnostics if the pivot cap is hit and
    InvalidInputError for negative right-hand sides or an unbounded program
    (our callers always pass box-bounded problems).
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise InvalidInputError("inconsistent LP dimensions")
    if np.any(b < 0):
        raise InvalidInputError("simplex_maximize requires b >= 0")
    max_iter = MAX_ITER_BASE + MAX_ITER_PER_DIM * (m + n)

    # Tableau: m constraint rows [A | I | b] and an objective row [-c | 0 | 0].
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))
    degenerate = 0  # degenerate pivots since the last nondegenerate one

    for _ in range(max_iter):
        reduced = T[m, :n + m]
        entering = -1
        if degenerate < m:  # Dantzig: most negative reduced cost, lowest index on ties
            for j in range(n + m):
                if reduced[j] < -_PIVOT_TOL and (entering < 0 or reduced[j] < reduced[entering]):
                    entering = j
        else:
            for j in range(n + m):  # Bland: lowest-index improving column
                if reduced[j] < -_PIVOT_TOL:
                    entering = j
                    break
        if entering < 0:
            x = np.zeros(n + m)
            x[basis] = T[:m, -1]
            return float(T[m, -1]), x[:n]

        col = T[:m, entering]
        ratios = np.full(m, np.inf)
        positive = col > _PIVOT_TOL
        ratios[positive] = T[:m, -1][positive] / col[positive]
        best = ratios.min()
        if not np.isfinite(best):
            raise InvalidInputError("LP is unbounded")
        # Bland tie-break: among minimal ratios, leave the lowest-index basic.
        ties = np.flatnonzero(ratios <= best + _PIVOT_TOL * max(1.0, abs(best)))
        leaving = min(ties, key=lambda r: basis[r])
        if abs(best) <= _PIVOT_TOL * max(1.0, abs(best)):
            degenerate += 1
        else:
            degenerate = 0

        pivot = T[leaving, entering]
        T[leaving] /= pivot
        factors = T[:, entering].copy()
        factors[leaving] = 0.0
        T -= np.outer(factors, T[leaving])
        T[:, entering] = 0.0
        T[leaving, entering] = 1.0
        basis[leaving] = entering

    raise SolverError(
        f"simplex did not converge in {max_iter} iterations "
        f"(m={m}, n={n}); problem may be badly scaled"
    )


def reference_transport_sup(costs, c, B):
    """The all-pairs Lipschitz supremum for one coefficient row c, posed
    one row at a time as the library posed it before it stacked a batch's
    LPs: the transport LP over the plus-minus pairs with gain
    2B - costs[i, j] > 0, in row-major (plus, minus) order, masses and gains
    rescaled by powers of two, solved by reference_dense_simplex.  costs is
    L times the point distances."""
    c = np.asarray(c, dtype=float)
    plus, minus = np.flatnonzero(c > 0), np.flatnonzero(c < 0)
    cost = costs[plus[:, None], minus]
    i, j = np.nonzero(cost < 2.0 * B)
    cost = cost[i, j]
    gain = 2.0 * B - cost
    cols = np.arange(len(gain))
    A = np.zeros((len(c), len(gain)))
    A[plus[i], cols] = 1.0
    A[minus[j], cols] = 1.0
    mass = np.abs(c)
    e_gain = np.frexp(max(cost.max(initial=0.0), 2.0 * B * GAIN_SCALE_FLOOR))[1]
    e_mass = np.frexp(mass.max())[1]
    value, _ = reference_dense_simplex(np.ldexp(gain, -e_gain), A, np.ldexp(mass, -e_mass))
    return B * mass.sum() - np.ldexp(value, e_gain + e_mass)


def rkhs_ball_mc_lower(pts, c, sigma, rho, n_samples, seed):
    """Best value of sum c_i f(x_i) over randomly sampled RKHS-ball members
    f = sum_j a_j K(x_j, .) normalized to norm rho.  Never exceeds the
    closed form and approaches it as n_samples grows."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.ndim == 1:
        pts = pts[:, None]
    d2 = pairwise_dist(pts) ** 2
    G = np.exp(-d2 / (2.0 * sigma ** 2))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_samples, pts.shape[0]))
    norms = np.sqrt(np.maximum(np.einsum("si,ij,sj->s", A, G, A), 1e-300))
    vals = rho * (A @ (G @ np.asarray(c, dtype=float))) / norms
    return float(vals.max())


def rkhs_representer_value(pts, c, sigma, rho):
    """(value, ||c||_G^2, scale) for the explicit maximizer of sum c_i f(x_i)
    over the RKHS ball: f = rho * sum_j c_j K(x_j, .) / ||c||_G, evaluated
    point by point with the kernel summed in pure Python (math.fsum).  value
    is None when ||c||_G is 0; scale = (sum |c_i|)^2 bounds |c^T G c|."""
    pts = [list(map(float, p)) for p in pts]
    c = list(map(float, c))
    n = len(pts)

    def kernel(a, b):
        return math.exp(-math.fsum((u - v) ** 2 for u, v in zip(a, b)) / (2.0 * sigma ** 2))

    K = [[kernel(pts[i], pts[j]) for j in range(n)] for i in range(n)]
    norm2 = math.fsum(c[i] * c[j] * K[i][j] for i in range(n) for j in range(n))
    scale = math.fsum(abs(v) for v in c) ** 2
    if norm2 <= 0.0:
        return None, norm2, scale
    norm = math.sqrt(norm2)
    f = [rho * math.fsum(c[j] * K[j][i] for j in range(n)) / norm for i in range(n)]
    return math.fsum(ci * fi for ci, fi in zip(c, f)), norm2, scale


def reference_anchor_distance_table(anchors, shifts, L, B, points):
    """f_j(x_i) = clip(L * ||x_i - a_j|| + s_j, -B, B) as nested lists, one
    function and one point at a time in Python floats.  The distance is
    math.hypot, which squares no coordinate, so points 1e160 apart need no
    rescaling; a product L * d past the float range is inf and clips to B."""
    return [[min(max(L * math.hypot(*(float(u) - float(v) for u, v in zip(x, a))) + float(s), -B), B)
             for x in points] for a, s in zip(anchors, shifts)]


def reference_table_sup(table, c):
    """max over the rows f of the table of sum_i c_i f_i, by math.fsum."""
    return max(math.fsum(float(ci) * fi for ci, fi in zip(c, row)) for row in table)


# Absolute slack allowed by oracle_convexity_check.
CONVEXITY_TOL = 1e-9


def oracle_convexity_check(fclass, points, c1, c2, lam: float) -> bool:
    """True iff the class's supremum oracle is convex along the segment
    [c1, c2] at lam, up to CONVEXITY_TOL, from one sup_batch call on the
    rows c1, c2 and lam * c1 + (1 - lam) * c2 at the (n, k) points, passed
    as a stack of one set."""
    c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
    rows = np.stack([c1, c2, lam * c1 + (1.0 - lam) * c2])
    v1, v2, mixed = fclass.sup_batch(np.asarray(points, dtype=float)[None], rows)[0]
    return mixed <= lam * v1 + (1.0 - lam) * v2 + CONVEXITY_TOL


def reference_farthest_first_order(dist):
    """The farthest-first (order, radii) that chaining.farthest_first yields,
    kept in its earlier form: a list of the remaining points, with the
    chosen one deleted from it and from its min-distance vector."""
    order = [0]
    radii = []
    remaining = list(range(1, dist.shape[0]))
    mindist = dist[remaining, 0].astype(float)
    while remaining:
        pos = int(np.argmax(mindist))  # first maximum = lowest index
        radii.append(float(mindist[pos]))
        chosen = remaining.pop(pos)
        order.append(chosen)
        mindist = np.delete(mindist, pos)
        if remaining:
            np.minimum(mindist, dist[remaining, chosen], out=mindist)
    radii.append(0.0)
    return order, radii


def brute_covering_number(dist, delta):
    """Fewest centers among the points whose closed delta-balls cover every
    point, by trying every center subset in order of size."""
    m = len(dist)
    for size in range(1, m + 1):
        for centers in itertools.combinations(range(m), size):
            if all(any(dist[i][j] <= delta for j in centers) for i in range(m)):
                return size
    raise ValueError("empty space")


def brute_entropy_number(dist, level):
    """Smallest worst-case distance from a point to a center subset of size
    1 at level 0 and min(2^(2^level), m) beyond, over every such subset."""
    m = len(dist)
    size = 1 if level == 0 else min(2 ** (2 ** level), m)
    return min(
        max(min(dist[i][j] for j in centers) for i in range(m))
        for centers in itertools.combinations(range(m), size)
    )


def reference_sign_table(width):
    """All 2^width sign patterns by shifting the row index: sign j is +1
    iff bit j is set (the table the library built whole before it drew
    pattern rows in blocks)."""
    idx = np.arange(2 ** width, dtype=np.int64)
    return ((idx[:, None] >> np.arange(width)) & 1) * 2.0 - 1.0


def reference_signs(seed, shape):
    """Random signs drawn in one call, as the library did before it read
    them in blocks from the raw generator words."""
    return np.random.default_rng(seed).integers(0, 2, shape) * 2.0 - 1.0


def _lone_row_merged(total, size):
    """(start, stop) of consecutive size-row ranges; a lone last row joins
    the range before it."""
    starts = list(range(0, total, size))
    if len(starts) > 1 and total - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [total]))


def reference_linear_sup(vecs, weights, block, chunk):
    """b or g's (mean, standard error) from the whole weight matrix, drawn
    once: each row's maximum of rows @ vecs.T, with rows taken over blocks of
    block rows, each cut into chunks of chunk rows, a lone last row joining
    the range before it at both levels."""
    sups = np.concatenate([(weights[a + c:a + d] @ vecs.T).max(axis=1)
                           for a, b in _lone_row_merged(len(weights), block)
                           for c, d in _lone_row_merged(b - a, chunk)])
    return float(np.mean(sups)), float(np.std(sups, ddof=1) / np.sqrt(len(sups)))


def reference_sampler_grid(w):
    """The capped-tail sampler's u-grid and q on it, built point by point
    as the sampler did on every call before the grid was cached."""
    grid, qs, u = [0.0], [1.0], SAMPLER_GRID_STEP
    while qs[-1] >= SAMPLER_TAIL_CUT:
        grid.append(u)
        qs.append(tail_series_capped(u, w))
        u += SAMPLER_GRID_STEP
    return np.asarray(grid), np.asarray(qs)


def enumerate_bernoulli_sup_mean(vectors):
    """E sup over rows of the sign-weighted sum, by full enumeration."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    signs = reference_sign_table(vectors.shape[1])
    return float((signs @ vectors.T).max(axis=1).mean())


def ols_by_hand(xs, ys):
    """Textbook two-pass OLS, independent of the library fit routine."""
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    n = len(xs)
    xm = sum(xs) / n
    ym = sum(ys) / n
    sxx = sum((x - xm) ** 2 for x in xs)
    sxy = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, ym - slope * xm
