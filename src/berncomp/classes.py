"""Function classes with exact supremum oracles.

Every complexity computation reduces to evaluating, for coefficient vectors
c, the supremum of sum_i c_i f(x_i) over a class of functions.  A class is
anything with a method sup_batch(points, C) returning that supremum for
every row of C at the (n, k) points; the estimators call it directly.  The
oracle is convex in c but not assumed positively homogeneous (a class need
not be a cone).  Four concrete classes are provided:

* FiniteFunctionClass: tabulated values, supremum by row-wise maximization.
* Lipschitz balls {f : L-Lipschitz, |f| <= L*R}: the supremum equals the
  maximum of sum_i c_i y_i over value vectors y with |y_i - y_j| <=
  L*||x_i - x_j|| and |y_i| <= L*R, because any feasible y extends to an
  L-Lipschitz function (McShane extension) and truncation at +-L*R
  preserves both constraints.  This is a linear program; a dense simplex
  handles every ambient dimension k up to 64 points, and for k = 1 an exact
  slope-trick dynamic program solves it at any point count.  The line
  solver costs one sort plus O(1) amortized deque work per point for +-1
  coefficients, and at most O(n^2) for arbitrary real coefficients.
* Gaussian-kernel RKHS balls of radius rho: Riesz representation gives the
  closed form rho * sqrt(c' G c) with G the kernel Gram matrix.
* PiecewiseLinearClass: finitely many piecewise-linear functions on the
  line, evaluable at any point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import _as_readonly, _parse_cells, _parse_number, _read_csv, _write_csv, sq_distances
from .errors import BudgetExceededError, InvalidInputError
# Called through this name: perfbench's tracer wraps classes.simplex_maximize.
from .simplex import simplex_maximize

# Largest point count accepted by the dense all-pairs simplex oracle.
SIMPLEX_MAX_POINTS = 64

# Gram quadratic forms below this are treated as rounding noise and clamped
# to zero; anything more negative indicates a broken Gram matrix.
GRAM_NEGATIVE_TOL = -1e-12

# Absolute slack allowed by oracle_convexity_check.
CONVEXITY_TOL = 1e-9

# Uniform grid cells of each function drawn by sample_piecewise_linear_class.
PIECEWISE_LINEAR_CELLS = 32

FINITE_CLASS_CSV_HEADER = ["func_id", "point_id", "value"]


def _as_points(points) -> np.ndarray:
    """Normalize points to an (n, k) array; accepts (n,) for k = 1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidInputError("points must be an (n, k) array with n >= 1")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points must be finite")
    return pts


def _as_coeffs(c, n: int) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise InvalidInputError(f"expected {n} coefficients, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coefficients must be finite")
    return c


def _as_coeff_rows(C, n: int) -> np.ndarray:
    """Normalize a coefficient batch to a finite (rows, n) array; accepts
    (n,) for one row."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.ndim != 2 or C.shape[1] != n:
        raise InvalidInputError(f"expected rows of {n} coefficients, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise InvalidInputError("coefficients must be finite")
    return C


@dataclass(frozen=True)
class FiniteFunctionClass:
    """r functions tabulated on a fixed list of n points.

    table[j, i] = f_j(x_i).  When the points are supplied the tabulated
    Lipschitz certificate |f_j(x_i) - f_j(x_i')| <= L ||x_i - x_i'|| is
    verified at construction, as is the uniform bound.  The class is tied
    to its sample, so sup_batch takes points=None or exactly n_points rows.
    """

    table: np.ndarray
    lipschitz_L: float
    uniform_bound_B: float
    points: np.ndarray | None = None

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise InvalidInputError("table must be a nonempty 2-d array")
        if not np.all(np.isfinite(table)):
            raise InvalidInputError("table entries must be finite")
        if self.lipschitz_L <= 0 or self.uniform_bound_B <= 0:
            raise InvalidInputError("lipschitz_L and uniform_bound_B must be positive")
        if np.abs(table).max() > self.uniform_bound_B + 1e-9:
            raise InvalidInputError("table entries exceed the uniform bound")
        object.__setattr__(self, "table", _as_readonly(table))
        if self.points is not None:
            pts = _as_points(self.points)
            if pts.shape[0] != table.shape[1]:
                raise InvalidInputError("points and table column counts differ")
            d = np.sqrt(sq_distances(pts))
            gaps = np.abs(table[:, :, None] - table[:, None, :])
            slack = gaps - self.lipschitz_L * d[None, :, :]
            if slack.max() > 1e-9:
                raise InvalidInputError(
                    f"tabulated values violate the Lipschitz certificate by {slack.max():.3e}"
                )
            object.__setattr__(self, "points", _as_readonly(pts))

    @property
    def n_functions(self) -> int:
        return self.table.shape[0]

    @property
    def n_points(self) -> int:
        return self.table.shape[1]

    def sup(self, c) -> float:
        return float(self.sup_batch(None, _as_coeffs(c, self.n_points))[0])

    def sup_batch(self, points, C) -> np.ndarray:
        if points is not None and _as_points(points).shape[0] != self.n_points:
            raise InvalidInputError("finite class is tabulated on a fixed sample")
        C = _as_coeff_rows(C, self.n_points)
        return (C @ self.table.T).max(axis=1)


# ---------------------------------------------------------------------------
# Lipschitz balls
# ---------------------------------------------------------------------------


def _lipschitz_sup_simplex(pts: np.ndarray, c: np.ndarray, L: float, B: float) -> float:
    """All-pairs LP in shifted variables w = (y + B)/B in [0, 2].

    Keeps every pairwise constraint (not only adjacent ones) so the oracle
    is correct for every ambient dimension.
    """
    n = pts.shape[0]
    if n > SIMPLEX_MAX_POINTS:
        raise BudgetExceededError(
            f"dense simplex oracle capped at n = {SIMPLEX_MAX_POINTS} points, got {n}; "
            "use sampled finite subclasses for larger problems"
        )
    d = np.sqrt(sq_distances(pts))
    # rows e_i - e_j and e_j - e_i for each pair i < j in order, then w_i <= 2
    iu, ju = np.triu_indices(n, 1)
    rows = np.arange(2 * len(iu))
    A = np.zeros((len(rows) + n, n))
    A[rows, np.repeat(iu, 2)] = np.tile([1.0, -1.0], len(iu))
    A[rows, np.repeat(ju, 2)] = np.tile([-1.0, 1.0], len(iu))
    A[len(rows):] = np.eye(n)
    bound = np.minimum(L * d[iu, ju] / B, 4.0)  # |w_i - w_j| <= 2 anyway
    b = np.concatenate([np.repeat(bound, 2), np.full(n, 2.0)])
    value, _ = simplex_maximize(c, A, b)
    return float(B * value - B * c.sum())


def _lipschitz_sup_line(x: np.ndarray, c: np.ndarray, L: float, B: float) -> float:
    """Exact 1-d path solver: a slope-trick dynamic program over concave
    piecewise-linear value functions.

    Processing points in sorted order, V_i(y) is the best objective over the
    first i points given y_i = y, on [-B, B].  Each step is a sliding-window
    maximum (halfwidth a = L * gap), a clip back to [-B, B] and the addition
    of c_i * y.  On the line the adjacent constraints imply all pairwise
    ones, so this matches the all-pairs LP exactly.

    V is stored as its value at -B plus a run of segments (key, width) in
    increasing key order, where key is the running coefficient sum S at the
    step that created the segment, so its slope is S - key.  Adding c_i * y
    only advances S; segments whose slope changes sign move between the
    positive-slope deque `left` and the negative-slope deque `right`, and
    those whose key equals S form the flat `plateau` at the maximum.  The
    window maximum widens the plateau by 2a and the clip trims a from both
    outer ends.  Capping a at 2B is exact, since |y_i - y_j| <= 2B always,
    and keeps every width of order B even for astronomically wide gaps.
    Every step adds at most one segment, so the cost is O(n) after the sort
    when no step moves more than a bounded number of segments, as with
    +-1 coefficients.
    """
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


def lipschitz_ball_sup(points, c, L: float, R: float, method: str = "auto") -> float:
    """Exact supremum of sum_i c_i f(x_i) over {f : L-Lipschitz, |f| <= L*R}.

    method: "auto" picks the 1-d path solver when k = 1 and the dense
    all-pairs simplex otherwise; "simplex" and "line" force a backend
    ("line" requires k = 1).  The two backends agree exactly on the line.
    method= stays because perfbench's lipschitz-k2 check forces each backend.
    """
    if L <= 0 or R <= 0:
        raise InvalidInputError("L and R must be positive")
    pts = _as_points(points)
    n, k = pts.shape
    c = _as_coeffs(c, n)
    B = L * R
    if method == "auto":
        method = "line" if k == 1 else "simplex"
    if method == "line":
        if k != 1:
            raise InvalidInputError("the line solver requires k = 1 points")
        return _lipschitz_sup_line(pts[:, 0], c, L, B)
    if method == "simplex":
        return _lipschitz_sup_simplex(pts, c, L, B)
    raise InvalidInputError(f"unknown method {method!r}")


@dataclass(frozen=True)
class LipschitzBall:
    """The class {f : R^k -> R, L-Lipschitz, |f| <= L * radius_R}."""

    lipschitz_L: float
    radius_R: float

    def __post_init__(self):
        if self.lipschitz_L <= 0 or self.radius_R <= 0:
            raise InvalidInputError("lipschitz_L and radius_R must be positive")

    def sup(self, points, c) -> float:
        return lipschitz_ball_sup(points, c, self.lipschitz_L, self.radius_R)

    def sup_batch(self, points, C) -> np.ndarray:
        pts = _as_points(points)
        C = _as_coeff_rows(C, pts.shape[0])
        return np.array([lipschitz_ball_sup(pts, c, self.lipschitz_L, self.radius_R)
                         for c in C], dtype=float)

    def as_oracle(self) -> "LipschitzBall":
        # Kept only because perfbench's lipschitz-k2 workload calls it.
        return self


# ---------------------------------------------------------------------------
# Gaussian RKHS balls
# ---------------------------------------------------------------------------


def gaussian_gram(points, sigma: float) -> np.ndarray:
    """Gram matrix of the Gaussian kernel exp(-||x - y||^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise InvalidInputError("sigma must be positive")
    pts = _as_points(points)
    return np.exp(-sq_distances(pts) / (2.0 * sigma * sigma))


@dataclass(frozen=True)
class GaussianRkhsBall:
    """Ball of radius rho in the RKHS of the Gaussian kernel with bandwidth
    sigma.  Members are rho-bounded and (rho / sigma)-Lipschitz."""

    sigma: float
    rho: float

    def __post_init__(self):
        if self.sigma <= 0 or self.rho <= 0:
            raise InvalidInputError("sigma and rho must be positive")

    @property
    def lipschitz_L(self) -> float:
        return self.rho / self.sigma

    # Defined in the class body because perfbench's tracer wraps it there.
    def sup(self, points, c) -> float:
        pts = _as_points(points)
        return float(self.sup_batch(pts, _as_coeffs(c, pts.shape[0]))[0])

    def sup_batch(self, points, C) -> np.ndarray:
        pts = _as_points(points)
        C = _as_coeff_rows(C, pts.shape[0])
        G = gaussian_gram(pts, self.sigma)
        # c^T G c for every row on BLAS, through one (rows, n) temporary.
        CG = C @ G
        CG *= C
        quad = CG.sum(axis=1)
        if np.any(quad < GRAM_NEGATIVE_TOL):
            raise InvalidInputError(
                f"Gram quadratic form is negative beyond rounding: {float(quad.min()):.3e}"
            )
        return self.rho * np.sqrt(np.maximum(quad, 0.0))


# ---------------------------------------------------------------------------
# Validation harness and samplers
# ---------------------------------------------------------------------------


def oracle_convexity_check(fclass, points, c1, c2, lam: float) -> bool:
    """True iff the class's supremum oracle is convex along the segment
    [c1, c2] at lam, up to CONVEXITY_TOL."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidInputError("lam must lie in [0, 1]")
    pts = _as_points(points)
    c1 = _as_coeffs(c1, pts.shape[0])
    c2 = _as_coeffs(c2, pts.shape[0])
    v1, v2, mixed = fclass.sup_batch(pts, np.stack([c1, c2, lam * c1 + (1.0 - lam) * c2]))
    return mixed <= lam * v1 + (1.0 - lam) * v2 + CONVEXITY_TOL


@dataclass(frozen=True)
class PiecewiseLinearClass:
    """Finitely many L-Lipschitz piecewise-linear functions on [-R, R],
    evaluable anywhere on the interval."""

    knots: np.ndarray   # (cells + 1,)
    values: np.ndarray  # (r, cells + 1)
    lipschitz_L: float
    radius_R: float

    @property
    def n_functions(self) -> int:
        return self.values.shape[0]

    def eval_batch(self, x) -> np.ndarray:
        """Values of every function at the given 1-d points, shape (r, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.vstack([np.interp(x, self.knots, row) for row in self.values])

    def tabulate(self, points_1d) -> FiniteFunctionClass:
        x = np.atleast_1d(np.asarray(points_1d, dtype=float))
        return FiniteFunctionClass(
            table=self.eval_batch(x),
            lipschitz_L=self.lipschitz_L,
            uniform_bound_B=self.lipschitz_L * self.radius_R,
            points=x[:, None],
        )

    def sup_batch(self, points, C) -> np.ndarray:
        pts = _as_points(points)
        if pts.shape[1] != 1:
            raise InvalidInputError("piecewise-linear classes live on the line")
        C = _as_coeff_rows(C, pts.shape[0])
        return (C @ self.eval_batch(pts[:, 0]).T).max(axis=1)


def sample_piecewise_linear_class(n_functions: int, L: float, R: float,
                                  seed: int) -> PiecewiseLinearClass:
    """Random L-Lipschitz piecewise-linear functions on [-R, R]: random
    slopes in [-L, L] on a uniform grid of PIECEWISE_LINEAR_CELLS cells,
    clipped to [-L*R, L*R].

    Clipping is a contraction, so the Lipschitz certificate survives it.
    """
    if n_functions < 1 or L <= 0 or R <= 0:
        raise InvalidInputError("need n_functions >= 1, L > 0, R > 0")
    rng = np.random.default_rng(seed)
    knots = np.linspace(-R, R, PIECEWISE_LINEAR_CELLS + 1)
    dx = knots[1] - knots[0]
    slopes = rng.uniform(-L, L, size=(n_functions, PIECEWISE_LINEAR_CELLS))
    starts = rng.uniform(-L * R, L * R, size=(n_functions, 1))
    values = np.concatenate([starts, starts + np.cumsum(slopes * dx, axis=1)], axis=1)
    values = np.clip(values, -L * R, L * R)
    return PiecewiseLinearClass(_as_readonly(knots), _as_readonly(values), float(L), float(R))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def finite_class_to_csv(cls: FiniteFunctionClass, values_path, meta_path) -> None:
    """Write (func_id, point_id, value) triplets plus a key=value sidecar
    holding the class metadata {L, B}."""
    _write_csv(values_path, FINITE_CLASS_CSV_HEADER,
               ([str(j), str(i), repr(float(cls.table[j, i]))]
                for j in range(cls.n_functions) for i in range(cls.n_points)))
    with open(meta_path, "w") as fh:
        fh.write(f"L = {cls.lipschitz_L!r}\n")
        fh.write(f"B = {cls.uniform_bound_B!r}\n")


def finite_class_from_csv(values_path, meta_path) -> FiniteFunctionClass:
    """Load a class written by finite_class_to_csv.  The sidecar holds L and
    B once each; the triplets hold every (func_id, point_id) cell of the
    grid from 0 up to the largest ids exactly once.  A table the class
    rejects, such as one exceeding B, raises naming the values file."""
    meta = {}
    with open(meta_path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{meta_path}, line {lineno}"
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or key not in ("L", "B"):
                raise InvalidInputError(f"{where}: expected 'L = value' or 'B = value'")
            if key in meta:
                raise InvalidInputError(f"{where}: repeated key {key}")
            meta[key] = _parse_number(value, f"{where}, key {key}")
    for key in ("L", "B"):
        if key not in meta:
            raise InvalidInputError(f"{meta_path}: sidecar is missing {key}")
    header, rows = _read_csv(values_path)
    if header != FINITE_CLASS_CSV_HEADER:
        raise InvalidInputError(f"{values_path}, line 1: expected header "
                                f"{','.join(FINITE_CLASS_CSV_HEADER)}")
    cells = {}
    for where, row in rows:
        j, i, value = _parse_cells(where, header, row, (int, int, float))
        if j < 0 or i < 0:
            raise InvalidInputError(f"{where}: func_id and point_id must be >= 0")
        if (j, i) in cells:
            raise InvalidInputError(f"{where}: repeated cell func_id {j}, point_id {i}")
        cells[(j, i)] = value
    # Distinct in-range cells fill the grid iff they number r * n.
    r = max(j for j, _ in cells) + 1
    n = max(i for _, i in cells) + 1
    if len(cells) != r * n:
        raise InvalidInputError(f"{values_path}: function-class CSV is missing entries "
                                f"({len(cells)} values for {r} functions x {n} points)")
    table = np.empty((r, n))
    for (j, i), value in cells.items():
        table[j, i] = value
    try:
        return FiniteFunctionClass(table=table, lipschitz_L=meta["L"], uniform_bound_B=meta["B"])
    except InvalidInputError as exc:
        raise InvalidInputError(f"{values_path}: {exc}") from None
