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
    def from_rows(cls, rows) -> "PointSet":
        """Build a k=1 set from an (m, n) array; each row becomes a 1-by-n element."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2:
            raise InvalidInputError("from_rows expects a 2-d array")
        return cls(arr[:, None, :])


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
    """The points 0, ..., m-1 with a validated symmetric distance matrix.

    Validation checks squareness, symmetry, a zero diagonal, nonnegativity
    and the triangle inequality within TRIANGLE_TOL absolute slack.
    """

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError(f"distance matrix must be square, got shape {d.shape}")
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
        object.__setattr__(self, "dist", _as_readonly(d))

    @property
    def size(self) -> int:
        return self.dist.shape[0]

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
    return FiniteMetricSpace(np.sqrt(sq_distances(T.vectorized())))


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


def _parse_number(text: str, where: str, convert=float):
    """convert(text), or InvalidInputError naming `where` (file, line, column)
    when text is not a number or is not finite."""
    try:
        value = convert(text)
    except ValueError:
        raise InvalidInputError(f"{where}: expected a number, got {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidInputError(f"{where}: expected a finite number, got {text!r}")
    return value


def _parse_cells(where: str, names, cells, converts) -> list:
    """The cells as numbers, each through its convert; a bad cell raises
    InvalidInputError naming `where` and the cell's column name."""
    return [_parse_number(text, f"{where}, column {name}", convert)
            for name, text, convert in zip(names, cells, converts)]


def _read_csv(path):
    """The header and the nonblank data rows of a CSV file.  Each row comes
    paired with its location "<path>, line <n>".  A row whose field count
    differs from the header's raises InvalidInputError naming that line, and
    so does a file without data rows, naming the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in reader:
            if not row:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise InvalidInputError(
                    f"{where}: expected {len(header)} fields, got {len(row)}")
            rows.append((where, row))
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    return header, rows


def _write_csv(path, header, rows) -> None:
    """Write the header and then the rows in the csv default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def estimates_to_csv(rows, path) -> None:
    """Write (quantity, estimate) pairs as CSV with the standard header."""
    _write_csv(path, ESTIMATE_CSV_HEADER, (est.csv_row(quantity) for quantity, est in rows))


def pointset_to_csv(T: PointSet, path) -> None:
    """One row per element: elem_id followed by the row-major vectorization."""
    header = ["elem_id"] + [f"coord_{j}" for j in range(T.k * T.n)]
    _write_csv(path, header, ([str(i)] + [repr(float(v)) for v in vec]
                              for i, vec in enumerate(T.vectorized())))


def pointset_from_csv(path, k: int = 1) -> PointSet:
    """Load a point set written by pointset_to_csv.

    The flat coordinate count must be divisible by k; n is inferred.  A
    malformed file raises InvalidInputError naming its line, and the column
    for a cell that is not a finite number.
    """
    if k < 1:
        raise InvalidInputError(f"k must be at least 1, got {k}")
    header, rows = _read_csv(path)
    if header[:1] != ["elem_id"]:
        raise InvalidInputError(f"{path}, line 1: expected header starting with elem_id")
    kn = len(header) - 1
    if kn == 0 or kn % k != 0:
        raise InvalidInputError(f"{path}, line 1: {kn} coordinates do not form k={k} rows")
    coords = [_parse_cells(where, header[1:], row[1:], [float] * kn) for where, row in rows]
    return PointSet(np.array(coords, dtype=float).reshape(len(rows), k, kn // k))
