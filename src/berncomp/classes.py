"""Function classes with exact supremum oracles.

Every complexity computation reduces to evaluating, for coefficient vectors
c, the supremum of sum_i c_i f(x_i) over a class of functions.  A class is
anything with a method bind(points) of one shape: it takes an (E, n, k)
stack of E >= 1 point sets with one n, checks it and does its per-set work
once, and returns sups(C), which takes a 2-d (rows, n) array C and returns
the supremum for every row of C at every set as an (E, rows) array, row e
for set e.  The estimators bind all their sets in one stack once per
estimate and call sups once per chunk of weight rows; one set is a stack
of one.  sup_batch(points, C) is bind(points)(C), for one batch.  The
oracle is convex in c but not assumed positively homogeneous (a class need
not be a cone); the test suite checks convexity along segments of rows.
Four concrete classes are provided.  Each checks a stack's points once, in
its bind, and each sups call checks its coefficient rows once and maps a
private per-set routine over the sets into one (E, rows) array, except
the Lipschitz ball at k >= 2, which solves the LPs of every set at once,
and the finite class, which reads only the stack's point count.  The RKHS
ball forms its E Gram matrices, and the anchor class its E value tables,
once in bind; the Lipschitz ball sorts its points (k = 1) or forms their
distances (k >= 2) in each sups call.  The finite, RKHS and anchor classes
multiply by the rows of C in row chunks of at most core.PRODUCT_BYTES
(core._in_row_chunks), so BLAS packs one chunk at a time:

* FiniteFunctionClass: tabulated values, supremum by row-wise maximization.
* Lipschitz balls {f : L-Lipschitz, |f| <= L*R}: the supremum equals the
  maximum of sum_i c_i y_i over value vectors y with |y_i - y_j| <=
  L*||x_i - x_j|| and |y_i| <= L*R, because any feasible y extends to an
  L-Lipschitz function (McShane extension) and truncation at +-L*R
  preserves both constraints.  This is a linear program.  In every
  ambient dimension k it is solved, up to 64 points, as its transport
  dual on a small dense simplex: cancel c+ against c- at cost L*d_ij, or
  send mass to the bank at B per unit (Kantorovich-Rubinstein duality for
  the bounded-Lipschitz ball; sizes and timings in simplex.py), on one
  distance matrix per set, with the LPs of every row at every set of a
  batch pivoted together in stacks of at most SIMPLEX_STACK_BYTES.  For
  k = 1 an exact slope-trick dynamic program solves it at any point count.
  Each set is sorted once and each row flagged once as +-1 or not; a +-1
  row moves at most one segment a step, O(1) amortized deque work per
  point, and a real row at most O(n^2) in all.
* Gaussian-kernel RKHS balls of radius rho: Riesz representation gives the
  closed form rho * sqrt(c' G c) with G the kernel Gram matrix, formed
  from the same core.distances as the Lipschitz costs, so every finite
  positive sigma gives the exact kernel at any scale of the points.  A
  stack's E Grams take E * n^2 doubles, at most core.MAX_DISTANCE_POINTS
  ** 2 (512 MiB, the ceiling of one distance matrix), which bind checks
  before it forms any.  The form of a row chunk holds one (chunk, n)
  temporary, and a form below GRAM_NEGATIVE_TOL * ||c||_1^2 raises.
* AnchorDistanceClass: the r functions clip(L * ||x - a_j|| + s_j, -B, B),
  a finite L-Lipschitz family bounded by B in every dimension k; its
  supremum is the row maximum of C times its value table, with no size cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import core
from .core import _as_readonly, _check_scales, _in_row_chunks, _row_max, distances
from .errors import BudgetExceededError, InvalidInputError
# Called through this name: perfbench's tracer wraps classes.simplex_maximize.
from .simplex import simplex_maximize

# Largest point count accepted by the dense all-pairs simplex oracle.
SIMPLEX_MAX_POINTS = 64

# Byte ceiling of the tableaus of one stack of transport LPs (16 MiB): a
# batch's rows are cut into stacks that fit it at the widest tableau a row
# can have, 29 rows at the 64-point cap and 1522 at 16 points.  The
# constraint stack handed over is smaller than the tableaus.
SIMPLEX_STACK_BYTES = 2 ** 24

# Smallest gain unit of the transport LP, as a fraction of 2B: keeps the
# rounding noise of its reduced costs (about 2^-52 * 2B) under the simplex's
# pivot tolerance in that unit.
GAIN_SCALE_FLOOR = 2.0 ** -20

# A Gram quadratic form c' G c above this times ||c||_1^2 is treated as
# rounding noise and clamped to zero; anything more negative indicates a
# broken Gram matrix.  Relative, since every 0 <= G_ij <= 1 gives
# |c' G c| <= ||c||_1^2 and the rounding grows with that bound.
GRAM_NEGATIVE_TOL = -1e-12


def _as_points(points, stack: bool = False) -> np.ndarray:
    """Normalize points to an (n, k) array; accepts (n,) for k = 1.  With
    stack, only an (E, n, k) stack of E >= 1 sets is accepted."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and not stack:
        pts = pts[:, None]
    if pts.ndim != (3 if stack else 2) or 0 in pts.shape[:-1]:
        raise InvalidInputError("points must be an (E, n, k) stack of E >= 1 sets with n >= 1"
                                if stack else "points must be an (n, k) array with n >= 1")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points must be finite")
    return pts


def _each_set(sup, sets, C: np.ndarray) -> np.ndarray:
    """sup(s, C) for every set s of a stack, written into one (E, rows)
    array.  Each s is a checked (n, k) point set or what a class's bind
    prepared from one, and C is already checked, so sup is a class's
    private per-set routine, not its sup_batch."""
    out = np.empty((len(sets), len(C)))
    for e, s in enumerate(sets):
        out[e] = sup(s, C)
    return out


def _lipschitz_bound(L: float, R: float) -> float:
    """The uniform bound B = L * R of a Lipschitz ball, after checking that
    L, R and their product (which may overflow or underflow to 0) are finite
    and positive."""
    B = L * R
    _check_scales(L=L, R=R, **{"L * R": B})
    return B


def _as_coeff_rows(C, n: int) -> np.ndarray:
    """Check a coefficient batch as a finite (rows, n) array.  The one-row
    sups and AnchorDistanceClass's shifts pass [c], a batch of one row, so
    a c of any other shape than (n,) fails."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[1] != n:
        raise InvalidInputError(f"expected rows of {n} coefficients, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise InvalidInputError("coefficients must be finite")
    return C


@dataclass(frozen=True)
class FiniteFunctionClass:
    """r functions tabulated on a fixed list of n points.

    table[j, i] = f_j(x_i).  The uniform bound is verified at construction.
    The class is tied to its sample: bind reads only the point count of
    its stack, which must be n_points, and sups gives every set the same
    row.
    """

    table: np.ndarray
    uniform_bound_B: float

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise InvalidInputError("table must be a nonempty 2-d array")
        if not np.all(np.isfinite(table)):
            raise InvalidInputError("table entries must be finite")
        _check_scales(uniform_bound_B=self.uniform_bound_B)
        if np.abs(table).max() > self.uniform_bound_B + 1e-9 * min(1.0, self.uniform_bound_B):
            raise InvalidInputError("table entries exceed the uniform bound")
        object.__setattr__(self, "table", _as_readonly(table))

    @property
    def n_points(self) -> int:
        return self.table.shape[1]

    def sup_batch(self, points, C) -> np.ndarray:
        return self.bind(points)(C)

    def bind(self, points):
        """sups(C), the row maximum of C times the table, the same row for
        every set of the stack."""
        E, n, _ = _as_points(points, stack=True).shape
        if n != self.n_points:
            raise InvalidInputError("finite class is tabulated on a fixed sample")

        def sups(C) -> np.ndarray:
            C = _as_coeff_rows(C, self.n_points)
            row = _in_row_chunks(lambda rows: _row_max(rows @ self.table.T), C)
            return np.tile(row, (E, 1))  # every set is the sample
        return sups


# ---------------------------------------------------------------------------
# Lipschitz balls
# ---------------------------------------------------------------------------


def _lipschitz_sup_simplex(pts: np.ndarray, C: np.ndarray, L: float, B: float) -> np.ndarray:
    """Transport dual of the all-pairs LP, correct in every dimension k, for
    every row c of C at every set of the (E, n, k) stack pts, as an (E, rows)
    array: the distances are formed once per set, and the E * rows LPs,
    set by set, are solved as stacks of up to SIMPLEX_STACK_BYTES of
    tableaus, one simplex_maximize call per stack (_transport_stack).

    A unit of c+ at point i can be cancelled against a unit of c- at point j
    for L * d_ij, or each can go to the bank (|y| <= B) for B.  With gains
    g_ij = 2B - L * d_ij on the set P of pairs (i, j) with c_i > 0 > c_j and
    g_ij > 0, the supremum is B * ||c||_1 minus the maximum of
    sum_P g_ij u_ij over u >= 0 with sum_j u_ij <= c_i+ for each plus point
    and sum_i u_ij <= c_j- for each minus point.

    Why: for feasible y and u, write c_i = sum_j u_ij + s_i on plus points
    and |c_j| = sum_i u_ij + s_j on minus points, s >= 0.  Then
    sum c_i y_i = sum u_ij (y_i - y_j) + sum_plus s_i y_i - sum_minus s_j y_j
    <= sum u_ij L d_ij + B sum s = B ||c||_1 - sum g_ij u_ij, so the
    supremum is at most the transport value.  Equality holds by LP duality:
    the primal's dual is a min-cost flow of c+ onto c- over all pairs at
    L * d_ij plus bank edges at B.  An optimal flow splits into paths, and
    by the triangle inequality replacing a path through other points (same
    sign or zero coefficient) by its direct edge never costs more; a direct
    edge with g_ij <= 0 costs no less than the two bank edges.  So only the
    columns of P are needed.

    The constraint matrix has one row per point (empty for c_i = 0) and two
    +1 entries per column, with right-hand side |c| >= 0.  It is totally
    unimodular, so its part of the tableau stays 0 and +-1.  Columns go in
    pair order: under the simplex's largest-reduced-cost rule a sort by
    descending gain saved no pivots (counts in CHANGES.md).  In a stack,
    each LP's columns are padded with zero columns to the widest LP's
    count, whichever set either belongs to; a zero column has gain 0 and no
    incidence entry, so it never enters, and the slack columns keep their
    order, so no pivot moves.  Every LP has one constraint per point and
    every set n points, so rows are never padded.

    The simplex's pivot tolerance is absolute, so the LP is handed over
    rescaled by exact powers of two: masses by the largest |c_i|, gains by
    the largest cost L * d_ij in P (at least 2B * GAIN_SCALE_FLOOR).  The
    pivots then skip only reduced costs below 1e-9 of the spread of the
    costs, instead of 1e-9 * B, and coefficients far below 1e-9 are not
    lost under the tolerance.  Each LP keeps its own two scales.  Scaling
    by powers of two is exact, so every other bit is the unscaled LP's.
    """
    E, n, _ = pts.shape
    if n > SIMPLEX_MAX_POINTS:
        raise BudgetExceededError(
            f"dense simplex oracle capped at n = {SIMPLEX_MAX_POINTS} points, got {n}; "
            "use sampled finite subclasses for larger problems"
        )
    costs = np.stack([L * distances(p) for p in pts])
    # A row has at most n^2 / 4 pairs: its tableau's largest size in bytes.
    row_bytes = 8 * (n + 1) * (n * n // 4 + n + 1)
    height = max(1, SIMPLEX_STACK_BYTES // row_bytes)
    out = np.empty(E * len(C))
    for start in range(0, len(out), height):
        lps = np.arange(start, min(start + height, len(out)))
        out[start:start + height] = _transport_stack(costs, *np.divmod(lps, len(C)), C, B)
    return out.reshape(E, len(C))


def _transport_stack(costs: np.ndarray, sets: np.ndarray, rows: np.ndarray, C: np.ndarray,
                     B: float) -> np.ndarray:
    """The supremum of the LP of coefficient row rows[q] of C at set sets[q]
    (costs[sets[q]]), for every q, from one simplex_maximize call on those
    transport LPs, stacked and zero-padded to the widest one."""
    C = C[rows]
    lps, n = C.shape
    # Each LP's pairs in row-major (plus, minus) order, as its own columns.
    pairs = (C[:, :, None] > 0) & (C[:, None, :] < 0) & (costs < 2.0 * B)[sets]  # g_ij > 0
    lp, i, j = np.nonzero(pairs)
    counts = np.bincount(lp, minlength=lps)
    col = np.arange(len(lp)) - (np.cumsum(counts) - counts)[lp]
    width = counts.max(initial=0)
    A = np.zeros((lps, n, width))
    A[lp, i, col] = 1.0
    A[lp, j, col] = 1.0
    pair_cost = costs[sets[lp], i, j]
    gain = np.zeros((lps, width))
    gain[lp, col] = 2.0 * B - pair_cost
    largest = np.zeros(lps)
    np.maximum.at(largest, lp, pair_cost)
    # C order: numpy sums the rows of a Fortran-ordered array in another
    # order than one row alone, which changes the last bits.
    mass = np.abs(C, order="C")
    e_gain = np.frexp(np.maximum(largest, 2.0 * B * GAIN_SCALE_FLOOR))[1]
    e_mass = np.frexp(mass.max(axis=1))[1]
    values, _ = simplex_maximize(np.ldexp(gain, -e_gain[:, None]), A,
                                 np.ldexp(mass, -e_mass[:, None]))
    return B * mass.sum(axis=1) - np.ldexp(values, e_gain + e_mass)


def _lipschitz_sup_line(x: np.ndarray, C: np.ndarray, L: float, B: float) -> np.ndarray:
    """Exact 1-d path solver for every row of C.  Per set: one stable sort
    of x, one vector of window halfwidths min(L * gap, 2B), one gather of
    the rows into sorted order, and one flag per row that is true when all
    its coefficients are +-1.  Then _line_dp runs on each row, one row at a
    time, with its flag as unit; a row becomes a list of Python floats only
    for its own run, so at most one row is held as objects.

    A float64 subtraction and product round the same in numpy as in
    Python, so every halfwidth, and every value, has the bits of a scalar
    loop; a gap or product past the float range is inf and caps to 2B.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    with np.errstate(over="ignore"):
        gaps = np.minimum(L * np.diff(xs, prepend=xs[0]), 2.0 * B).tolist()
    rows = C[:, order]
    unit = np.all(np.abs(rows) == 1.0, axis=1).tolist()
    return np.array([_line_dp(gaps, c.tolist(), B, u) for c, u in zip(rows, unit)], dtype=float)


def _line_dp(gaps: list, cs: list, B: float, unit: bool) -> float:
    """Slope-trick dynamic program over concave piecewise-linear value
    functions, for coefficients cs in sorted point order; gaps[i] is the
    window halfwidth between points i - 1 and i (gaps[0] = 0).

    V_i(y) is the best objective over the first i points given y_i = y, on
    [-B, B].  Each step is a sliding-window maximum (halfwidth a), a clip
    back to [-B, B] and the addition of c_i * y.  On the line the adjacent
    constraints imply all pairwise ones, so this matches the all-pairs LP
    exactly.

    V is stored as its value at -B plus a run of segments (key, width) in
    increasing key order, where key is the running coefficient sum S at the
    step that created the segment, so its slope is S - key.  Adding c_i * y
    only advances S; segments whose slope changes sign move between the
    positive-slope deque `left` and the negative-slope deque `right`, and
    those whose key equals S form the flat `plateau` at the maximum.  The
    window maximum widens the plateau by 2a and the clip trims a from both
    outer ends, testing the outer segment once and looping only when a
    segment is used up.  Capping a at 2B is exact, since |y_i - y_j| <= 2B
    always, and keeps every width of order B even for astronomically wide
    gaps.

    unit says that every c_i is +1.0 or -1.0.  Then S and every key are
    integer-valued floats, and no two segments of `left` (or of `right`)
    share a key: a segment is pushed with key S just before S moves past
    it, and a key-K segment joins the plateau whenever S returns to K.  So
    a +1 step can move only the inner end of `right`, into the plateau and
    only when its key equals the new S, and a -1 step mirrors this: one
    test replaces the migration loop, and each step is O(1) amortized.  Its
    floats are those of the general step (B * +-1 = +-B, 0.0 + w = w), so
    the two give the same bits.  Rows with other coefficients, 0.0 and -0.0
    included, take the general step, which may move many segments a step,
    at most O(n^2) work in all.
    """
    left = deque()   # [key, width] with key < S, outer end first
    right = deque()  # [key, width] with key > S, inner end first
    plateau = 2.0 * B
    total = 0.0      # S
    value = 0.0      # V(-B)
    for a, ci in zip(gaps, cs):
        if a > 0.0:
            plateau += 2.0 * a
            rest = a
            while left:
                seg = left[0]
                if seg[1] > rest:
                    seg[1] -= rest
                    value += (total - seg[0]) * rest
                    break
                left.popleft()
                value += (total - seg[0]) * seg[1]
                rest -= seg[1]
                if rest <= 0.0:
                    break
            else:
                plateau -= rest
            rest = a
            while right:
                seg = right[-1]
                if seg[1] > rest:
                    seg[1] -= rest
                    break
                right.pop()
                rest -= seg[1]
                if rest <= 0.0:
                    break
            else:
                plateau -= rest
        if unit:
            if ci > 0.0:
                value -= B
                if plateau > 0.0:
                    left.append([total, plateau])
                total += 1.0
                plateau = right.popleft()[1] if right and right[0][0] == total else 0.0
            else:
                value += B
                if plateau > 0.0:
                    right.appendleft([total, plateau])
                total -= 1.0
                plateau = left.pop()[1] if left and left[-1][0] == total else 0.0
            continue
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


def lipschitz_ball_sup(points, c, L: float, R: float, method: str = "auto") -> float:
    """Exact supremum of sum_i c_i f(x_i) over {f : L-Lipschitz, |f| <= L*R}.

    method: "auto" picks the 1-d path solver when k = 1 and the all-pairs
    transport LP on the simplex otherwise; "simplex" and "line" force a backend
    ("line" requires k = 1).  The two backends agree exactly on the line.
    method= stays because perfbench's lipschitz-k2 check forces each backend.
    """
    B = _lipschitz_bound(L, R)
    pts = _as_points(points)
    return float(_lipschitz_sup_rows(pts[None], _as_coeff_rows([c], len(pts)), L, B, method)[0, 0])


def _lipschitz_sup_rows(pts: np.ndarray, C: np.ndarray, L: float, B: float,
                        method: str = "auto") -> np.ndarray:
    """The (E, rows) supremum for every row of C at every set of the
    (E, n, k) stack pts, on validated points and rows, by the backend that
    method names."""
    k = pts.shape[2]
    if method == "auto":
        method = "line" if k == 1 else "simplex"
    if method == "line":
        if k != 1:
            raise InvalidInputError("the line solver requires k = 1 points")
        return _each_set(lambda p, C: _lipschitz_sup_line(p[:, 0], C, L, B), pts, C)
    if method == "simplex":
        return _lipschitz_sup_simplex(pts, C, L, B)
    raise InvalidInputError(f"unknown method {method!r}")


@dataclass(frozen=True)
class LipschitzBall:
    """The class {f : R^k -> R, L-Lipschitz, |f| <= L * radius_R}."""

    lipschitz_L: float
    radius_R: float

    def __post_init__(self):
        _lipschitz_bound(self.lipschitz_L, self.radius_R)

    def sup(self, points, c) -> float:
        return lipschitz_ball_sup(points, c, self.lipschitz_L, self.radius_R)

    def sup_batch(self, points, C) -> np.ndarray:
        return self.bind(points)(C)

    def bind(self, points):
        """sups(C), the supremum for every row of C at every set of the
        stack, with the points validated once.  Each call sorts each set
        (k = 1) or forms its distances (k >= 2) once, and at k >= 2 solves
        the LPs of every set together."""
        pts = _as_points(points, stack=True)
        L, B = self.lipschitz_L, _lipschitz_bound(self.lipschitz_L, self.radius_R)
        return lambda C: _lipschitz_sup_rows(pts, _as_coeff_rows(C, pts.shape[1]), L, B)

    def as_oracle(self) -> "LipschitzBall":
        # Kept only because perfbench's lipschitz-k2 workload calls it.
        return self


# ---------------------------------------------------------------------------
# Gaussian RKHS balls
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # (d / sigma)^2 past the float range is inf: the kernel is 0
def gaussian_gram(points, sigma: float) -> np.ndarray:
    """Gram matrix of the Gaussian kernel exp(-(||x - y|| / sigma)^2 / 2),
    formed in place on core.distances, with no sigma^2."""
    _check_scales(sigma=sigma)
    G = distances(_as_points(points))
    G /= sigma
    G *= G
    G *= -0.5
    return np.exp(G, out=G)


@dataclass(frozen=True)
class GaussianRkhsBall:
    """Ball of radius rho in the RKHS of the Gaussian kernel with bandwidth
    sigma.  Members are rho-bounded and (rho / sigma)-Lipschitz."""

    sigma: float
    rho: float

    def __post_init__(self):
        _check_scales(sigma=self.sigma, rho=self.rho)

    # Defined in the class body because perfbench's tracer wraps it there.
    def sup(self, points, c) -> float:
        return float(self.sup_batch(_as_points(points)[None], [c])[0, 0])

    def sup_batch(self, points, C) -> np.ndarray:
        return self.bind(points)(C)

    def bind(self, points):
        """sups(C), rho * sqrt(c' G c) for every row of C at every set of the
        stack, on the sets' Gram matrices, formed once.  Raises
        BudgetExceededError before forming any if the E Grams of n points
        would hold more than core.MAX_DISTANCE_POINTS ** 2 doubles."""
        pts = _as_points(points, stack=True)
        E, n, _ = pts.shape
        if E * n * n > core.MAX_DISTANCE_POINTS ** 2:
            raise BudgetExceededError(f"{E} Gram matrices of {n} points exceed the ceiling of "
                                      f"{core.MAX_DISTANCE_POINTS ** 2} entries")
        grams = [gaussian_gram(p, self.sigma) for p in pts]
        return lambda C: _each_set(self._sup_rows, grams, _as_coeff_rows(C, n))

    def _sup_rows(self, G: np.ndarray, C: np.ndarray) -> np.ndarray:
        """rho * sqrt(c' G c) for every row of C at one set's Gram matrix G."""
        quad = _in_row_chunks(lambda rows: _gram_form(rows @ G, rows), C)
        return self.rho * np.sqrt(np.maximum(quad, 0.0))


def _gram_form(CG: np.ndarray, C: np.ndarray) -> np.ndarray:
    """c' G c for every row c of C, from CG = C @ G, which it overwrites: so
    a chunk's form holds one (chunk, n) temporary.  Raises InvalidInputError
    on a form below GRAM_NEGATIVE_TOL * ||c||_1^2."""
    CG *= C
    quad = CG.sum(axis=1)
    if quad.min(initial=0.0) < 0.0:  # only negative rows are checked, against their own bound
        neg = quad < 0.0
        l1 = np.abs(C[neg]).sum(axis=1)
        low = quad[neg] < GRAM_NEGATIVE_TOL * l1 * l1
        if np.any(low):
            raise InvalidInputError(
                f"Gram quadratic form is negative beyond rounding: {float(quad[neg][low].min()):.3e}"
            )
    return quad


# ---------------------------------------------------------------------------
# Anchor-distance classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnchorDistanceClass:
    """The r functions f_j(x) = clip(L * ||x - a_j|| + s_j, -B, B) on R^k,
    one per row a_j of anchors and entry s_j of shifts.  Each is
    L-Lipschitz (clipping is a contraction) and bounded by B at every k;
    with one anchor at 0 and shift 0 it is the norm, scaled and clipped."""

    anchors: np.ndarray  # (r, k)
    shifts: np.ndarray   # (r,)
    lipschitz_L: float
    uniform_bound_B: float

    def __post_init__(self):
        _check_scales(lipschitz_L=self.lipschitz_L, uniform_bound_B=self.uniform_bound_B)
        anchors = _as_points(self.anchors)
        object.__setattr__(self, "anchors", _as_readonly(anchors))
        shifts = _as_coeff_rows([self.shifts], len(anchors))[0]
        object.__setattr__(self, "shifts", _as_readonly(shifts))

    def values(self, points) -> np.ndarray:
        """The (r, n) table f_j(x_i), on core.distances of the anchors
        stacked over the points."""
        pts = _as_points(points)
        r, k = self.anchors.shape
        if pts.shape[1] != k:
            raise InvalidInputError(f"points have k = {pts.shape[1]}, the anchors k = {k}")
        with np.errstate(over="ignore"):  # L * d past the float range is inf and clips to B
            f = self.lipschitz_L * distances(np.vstack([self.anchors, pts]))[:r, r:]
        f += self.shifts[:, None]
        return np.clip(f, -self.uniform_bound_B, self.uniform_bound_B, out=f)

    def sup_batch(self, points, C) -> np.ndarray:
        return self.bind(points)(C)

    def bind(self, points):
        """sups(C), the row maximum of C times each set's value table, on
        the tables of the stack's sets, formed once."""
        pts = _as_points(points, stack=True)
        tables = [self.values(p).T for p in pts]
        n = pts.shape[1]
        return lambda C: _each_set(self._sup_rows, tables, _as_coeff_rows(C, n))

    @staticmethod
    def _sup_rows(table: np.ndarray, C: np.ndarray) -> np.ndarray:
        """The row maximum of C times one set's (n, r) value table."""
        return _in_row_chunks(lambda rows: _row_max(rows @ table), C)
