"""Foundational geometric types: finite index sets of k-by-n matrices, mixed
(p,q) norms, Frobenius diameters, finite metric spaces and estimate records.

Everything here is immutable after construction and safe to share across
concurrent workers; all operations are pure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# Absolute slack for the triangle-inequality validation of distance matrices.
# Matrices derived from norms satisfy it exactly up to rounding.
TRIANGLE_TOL = 1e-9

ESTIMATE_METHODS = ("exact-enumeration", "monte-carlo", "closed-form")


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointSet:
    """A finite index set whose elements are k-by-n real matrices.

    Each element stacks n column vectors in R^k.  Elements are kept in
    insertion order and duplicates are legal (they are harmless under
    suprema); no set semantics are applied.
    """

    elements: np.ndarray  # shape (m, k, n), read-only

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=float)
        if arr.ndim != 3:
            raise InvalidInputError(
                f"elements must have shape (m, k, n), got ndim={arr.ndim}"
            )
        m, k, n = arr.shape
        if m < 1 or k < 1 or n < 1:
            raise InvalidInputError(f"need m, k, n >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("point set entries must be finite")
        object.__setattr__(self, "elements", _as_readonly(arr))

    @property
    def k(self) -> int:
        return self.elements.shape[1]

    @property
    def n(self) -> int:
        return self.elements.shape[2]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def __len__(self) -> int:
        return self.n_elements

    def element(self, i: int) -> np.ndarray:
        """The i-th element as a read-only (k, n) matrix."""
        return self.elements[i]

    def vectorized(self) -> np.ndarray:
        """All elements flattened row-major to shape (m, k*n)."""
        m = self.n_elements
        return self.elements.reshape(m, -1)

    @classmethod
    def from_elements(cls, mats) -> "PointSet":
        """Build from an iterable of (k, n) matrices (all the same shape)."""
        arr = np.stack([np.atleast_2d(np.asarray(m, dtype=float)) for m in mats])
        return cls(arr)

    @classmethod
    def from_rows(cls, rows) -> "PointSet":
        """Build a k=1 set from an (m, n) array; each row becomes a 1-by-n element."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2:
            raise InvalidInputError("from_rows expects a 2-d array")
        return cls(arr[:, None, :])

    @classmethod
    def singleton(cls, mat) -> "PointSet":
        return cls.from_elements([mat])


def norm_pq(t, p, q) -> float:
    """Mixed (p, q) norm of a k-by-n matrix: the q-norm of the vector of
    column p-norms.  p = q = 2 is the Frobenius norm.

    Infinite exponents are handled as max-reductions, never as limits of
    finite powers.
    """
    mat = np.atleast_2d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("matrix entries must be finite")
    for name, value in (("p", p), ("q", q)):
        if not (value >= 1):
            raise InvalidInputError(f"{name} must be in [1, inf], got {value!r}")
    absmat = np.abs(mat)
    if math.isinf(p):
        col = absmat.max(axis=0)
    else:
        col = np.power(absmat, p).sum(axis=0) ** (1.0 / p)
    if math.isinf(q):
        return float(col.max())
    return float(np.power(col, q).sum() ** (1.0 / q))


def frobenius(t) -> float:
    """Frobenius norm, equal to norm_pq(t, 2, 2)."""
    return float(np.linalg.norm(np.asarray(t, dtype=float)))


def sq_distances(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of an (m, d) array,
    shape (m, m)."""
    diff = X[:, None, :] - X[None, :, :]
    return (diff * diff).sum(axis=2)


def diameter2(T: PointSet) -> float:
    """Diameter of the set with respect to the Frobenius norm.

    Zero for singletons; exactly zero iff all elements coincide.
    """
    vecs = T.vectorized()
    if len(vecs) == 1:
        return 0.0
    return float(np.sqrt(sq_distances(vecs)).max())


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite point list with a validated symmetric distance matrix.

    Validation checks symmetry, a zero diagonal, nonnegativity and the
    triangle inequality within TRIANGLE_TOL absolute slack.
    """

    labels: tuple
    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        labels = tuple(str(x) for x in self.labels)
        m = len(labels)
        if d.shape != (m, m):
            raise InvalidInputError(
                f"distance matrix shape {d.shape} does not match {m} labels"
            )
        if not np.all(np.isfinite(d)):
            raise InvalidInputError("distances must be finite")
        if np.any(d < 0):
            raise InvalidInputError("distances must be nonnegative")
        if not np.array_equal(d, d.T):
            if np.abs(d - d.T).max() > 1e-12:
                raise InvalidInputError("distance matrix must be symmetric")
            d = (d + d.T) / 2.0
        if np.any(np.diag(d) != 0.0):
            raise InvalidInputError("distance matrix must have a zero diagonal")
        _check_triangle(d)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", _as_readonly(d))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.size > 1 else 0.0


def _check_triangle(d: np.ndarray) -> None:
    m = d.shape[0]
    if m <= 2:
        return
    # d[j,k] <= min_i d[j,i] + d[i,k], checked one row of intermediates at a
    # time to keep memory at O(m^2).
    best = np.full_like(d, np.inf)
    for i in range(m):
        np.minimum(best, d[:, i][:, None] + d[i, :][None, :], out=best)
    worst = float((d - best).max())
    if worst > TRIANGLE_TOL:
        raise InvalidInputError(
            f"triangle inequality violated by {worst:.3e} (> {TRIANGLE_TOL})"
        )


def metric_space_from_pointset(T: PointSet) -> FiniteMetricSpace:
    """Finite metric space on the elements of T under the Frobenius distance
    (the Euclidean distance of the vectorizations)."""
    vecs = T.vectorized()
    d = np.sqrt(sq_distances(vecs))
    labels = tuple(str(i) for i in range(len(vecs)))
    return FiniteMetricSpace(labels=labels, dist=d)


@dataclass(frozen=True)
class ComplexityEstimate:
    """A numeric complexity estimate with its provenance.

    method is one of ESTIMATE_METHODS.  Exact and closed-form estimates carry
    std_error = 0; Monte Carlo estimates carry the sample standard error and
    a positive sample count.  The seed makes the value reproducible.
    """

    value: float
    std_error: float
    method: str
    samples: int
    seed: int

    def __post_init__(self):
        if self.method not in ESTIMATE_METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        if self.std_error < 0:
            raise InvalidInputError("std_error must be nonnegative")
        if self.method in ("exact-enumeration", "closed-form") and self.std_error != 0:
            raise InvalidInputError(f"{self.method} estimates must have std_error 0")
        if self.method == "monte-carlo" and self.samples <= 0:
            raise InvalidInputError("monte-carlo estimates need samples > 0")

    def csv_row(self, quantity: str) -> list:
        return [quantity, repr(self.value), repr(self.std_error), self.method,
                str(self.samples), str(self.seed)]


ESTIMATE_CSV_HEADER = ["quantity", "value", "std_error", "method", "samples", "seed"]


def estimates_to_csv(rows, path) -> None:
    """Write (quantity, estimate) pairs as CSV with the standard header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ESTIMATE_CSV_HEADER)
        for quantity, est in rows:
            writer.writerow(est.csv_row(quantity))


def _parse_number(text: str, where: str, convert=float):
    """convert(text), or InvalidInputError naming `where` (file, line, column)."""
    try:
        return convert(text)
    except ValueError:
        raise InvalidInputError(f"{where}: expected a number, got {text!r}") from None


def pointset_to_csv(T: PointSet, path) -> None:
    """One row per element: elem_id followed by the row-major vectorization."""
    kn = T.k * T.n
    header = ["elem_id"] + [f"coord_{j}" for j in range(kn)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, vec in enumerate(T.vectorized()):
            writer.writerow([str(i)] + [repr(float(v)) for v in vec])


def pointset_from_csv(path, k: int = 1) -> PointSet:
    """Load a point set written by pointset_to_csv.

    The flat coordinate count must be divisible by k; n is inferred.  A cell
    that is not a number raises InvalidInputError naming its line and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "elem_id":
            raise InvalidInputError("expected header starting with elem_id")
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise InvalidInputError("point set file has no elements")
    kn = len(header) - 1
    if kn % k != 0:
        raise InvalidInputError(f"{kn} coordinates not divisible by k={k}")
    n = kn // k
    mats = []
    for line, row in rows:
        if len(row) != kn + 1:
            raise InvalidInputError(f"row {row[0]!r} has {len(row) - 1} coords, expected {kn}")
        coords = [_parse_number(v, f"{path}, line {line}, column {name}")
                  for name, v in zip(header[1:], row[1:])]
        mats.append(np.array(coords, dtype=float).reshape(k, n))
    return PointSet.from_elements(mats)
