"""Foundational geometric types: finite index sets of k-by-n matrices, mixed
(p,q) norms, Frobenius diameters, finite metric spaces and estimate records;
and the one routine that takes products on weight or coefficient rows,
_in_row_chunks, which hands BLAS at most PRODUCT_BYTES of rows at a time.

Everything here is immutable after construction and safe to share across
concurrent workers; all operations are pure.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidInputError

# Triangle-inequality slack for distance matrices, relative to the largest
# distance when that exceeds 1; norm-derived matrices meet it up to rounding.
TRIANGLE_TOL = 1e-9

# Entries of the differences of one block of rows of distances: 2^20
# doubles, 8 MiB, held at once from 8 coordinates on and one coordinate at
# a time below.  A block has at least one row of m * d entries.
SQ_DISTANCE_BLOCK = 1 << 20

# Most rows distances takes: its (m, m) result is at most 512 MiB.
MAX_DISTANCE_POINTS = 2 ** 13

# Bytes of coefficient rows one BLAS product takes (1 MiB): _in_row_chunks
# hands a larger block over in row chunks of at most this size, so BLAS
# packs, and a product's temporaries hold, one chunk at a time.  At least
# 384 KiB, so lemma-checks' 4096-row blocks of 12 signs stay one product;
# smaller chunks cost time on skinny products and round differently more
# often (README, Numerical notes).
PRODUCT_BYTES = 2 ** 20

ESTIMATE_METHODS = ("exact-enumeration", "monte-carlo", "closed-form")


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _check_scales(**scales) -> None:
    """Raise InvalidInputError unless every named parameter is finite and
    positive (nan fails both comparisons)."""
    for name, value in scales.items():
        if not 0.0 < value < np.inf:
            raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")


def _check_count(name: str, value, low: int = 0) -> None:
    """Raise InvalidInputError unless value is an integer of at least low."""
    if not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInputError(f"{name} must be {f'>= {low}' if low else 'nonnegative'}, got {value}")


def _row_blocks(total: int, size: int) -> list:
    """(start, stop) of consecutive size-row blocks over total rows.  A lone
    last row joins the block before it: a one-row product goes through a
    matrix-vector BLAS kernel that rounds differently."""
    starts = list(range(0, total, size))
    if len(starts) > 1 and total - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [total]))


def _chunk_rows(width: int) -> int:
    """Rows of one product chunk of width-wide rows: at most PRODUCT_BYTES,
    read at call time, but at least two rows."""
    return max(2, PRODUCT_BYTES // (8 * width))


def _in_row_chunks(reduce, C: np.ndarray) -> np.ndarray:
    """reduce(rows), one value per row, on consecutive _row_blocks chunks of
    the 2-d array C, each of _chunk_rows rows, joined into one (len(C),)
    array.  Every product on weight or coefficient rows is taken here, in
    reduce, so BLAS never packs more than one chunk and a product's (chunk,
    columns) temporaries are freed before the next chunk.  Every estimator
    draws its weights in these chunks already, so each reaches reduce
    whole; a direct call with a larger C, such as a sup_batch, is cut here.
    A row's bits may depend on the chunk's row count at widths of 32 and
    more (README, Numerical notes)."""
    out = np.empty(len(C))
    for a, b in _row_blocks(len(C), _chunk_rows(C.shape[1])):
        out[a:b] = reduce(C[a:b])
    return out


def _row_max(P: np.ndarray) -> np.ndarray:
    """Maximum of each row of a 2-d array, taken with np.maximum over its
    columns in order into one buffer, without a transposed copy.  Max is
    exact, so this is np.ascontiguousarray(P.T).max(axis=0) bit for bit,
    signed zeros too."""
    out = P[:, 0].copy()
    for j in range(1, P.shape[1]):
        np.maximum(out, P[:, j], out=out)
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


@np.errstate(over="ignore")  # an overflowing power raises below
def norm_pq(t, p, q) -> float:
    """Mixed (p, q) norm of a k-by-n matrix: the q-norm of the vector of
    column p-norms.  p = q = 2 is the Frobenius norm.

    Infinite exponents are handled as max-reductions, never as limits of
    finite powers.  A matrix whose largest entry has a p-th or q-th power
    below 2^-1000 is scaled exactly by a power of two first; a norm whose
    powers overflow a float raises InvalidInputError.
    """
    mat = np.atleast_2d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("matrix entries must be finite")
    for name, value in (("p", p), ("q", q)):
        if not (value >= 1):
            raise InvalidInputError(f"{name} must be in [1, inf], got {value!r}")
    absmat = np.abs(mat)
    top = float(absmat.max())
    power = max((e for e in (p, q) if e < math.inf), default=0.0)
    shift = -math.frexp(top)[1] if top > 0.0 and power * math.log2(top) < -1000.0 else 0
    absmat = np.ldexp(absmat, shift)
    if math.isinf(p):
        col = absmat.max(axis=0)
    else:
        col = np.power(absmat, p).sum(axis=0) ** (1.0 / p)
    value = float(col.max()) if math.isinf(q) else float(np.power(col, q).sum() ** (1.0 / q))
    if math.isinf(value):
        raise InvalidInputError(f"the ({p}, {q}) norm overflows a float")
    return math.ldexp(value, -shift)


@np.errstate(over="ignore")  # an overflowing square is redone below
def distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a finite (m, d) array, over
    blocks of rows of at most max(SQ_DISTANCE_BLOCK, m * d) difference
    entries; each square is the sum numpy's reduce over the coordinate axis
    gives, so it has the same bits at any block size.  Below 8 coordinates
    that reduce adds the squares in coordinate order, one at a time, and a
    block does the same: one (rows, m) difference per coordinate, squared
    in place and added into the block's slice of the result.  This skips
    the reduce's per-entry cost over a short axis: 0.65 -> 0.10 ms at
    (128, 2) and 0.17 -> 0.04 ms at (64, 2), though 5-12 us more at
    (m <= 12, 4), on a 2-core x86 host.  From 8 coordinates on numpy adds
    them pairwise, 8 ways, in another order, so a block keeps the reduce of
    its (rows, m, d) difference.  A block with a square that is inf or
    below 2^-969 (2^53 * tiny) off its diagonal redoes its pairs out of that
    range on their differences scaled by 2^-600 or 2^600 (Blue, ACM TOMS 4,
    1978); a block holds at most rows * m pairs, so the redo keeps the bound.
    More than MAX_DISTANCE_POINTS rows raise BudgetExceededError before any
    allocation."""
    m, d = X.shape
    if m > MAX_DISTANCE_POINTS:
        raise BudgetExceededError(f"distances between {m} points exceed the ceiling of "
                                  f"{MAX_DISTANCE_POINTS} points")
    rows = max(1, SQ_DISTANCE_BLOCK // max(1, m * d))
    out = np.empty((m, m))
    for start in range(0, m, rows):
        block, sq = X[start:start + rows], out[start:start + rows]
        if 0 < d < 8:  # the order in which numpy's reduce adds fewer than 8 terms
            np.subtract.outer(block[:, 0], X[:, 0], out=sq)
            sq *= sq
            diff = np.empty_like(sq)
            for j in range(1, d):
                np.subtract.outer(block[:, j], X[:, j], out=diff)
                diff *= diff
                sq += diff
        else:
            diff = block[:, None, :] - X[None, :, :]
            diff *= diff
            diff.sum(axis=2, out=sq)
        # its diagonal zeros are below the range too, and redo to zero
        if np.count_nonzero(sq < 2.0 ** -969) == len(sq) and sq.max() < np.inf:
            np.sqrt(sq, out=sq)
            continue
        i, j = np.nonzero((sq < 2.0 ** -969) | (sq == np.inf))
        np.sqrt(sq, out=sq)
        shift = np.where(sq[i, j] < 1.0, 600, -600)  # below or past the range
        diff = np.ldexp(X[start + i] - X[j], shift[:, None]) ** 2  # an inf difference stays inf
        sq[i, j] = np.ldexp(np.sqrt(diff.sum(axis=1)), -shift)
    return out


def _element_distances(T: PointSet) -> np.ndarray:
    """Frobenius distances between the elements of T, from distances; elements
    2^512 (about 1.3e154) or more apart raise InvalidInputError naming a pair."""
    dist = distances(T.vectorized())
    if dist.max() >= 2.0 ** 512:
        i, j = np.argwhere(dist >= 2.0 ** 512)[0]
        raise InvalidInputError(f"the distance of elements {i} and {j} overflows a float")
    return dist


def diameter2(T: PointSet) -> float:
    """Diameter of the set with respect to the Frobenius norm, the largest
    of the _element_distances: zero for singletons, exactly zero iff all
    elements coincide, and InvalidInputError when a distance overflows."""
    return float(_element_distances(T).max())


@dataclass(frozen=True)
class FiniteMetricSpace:
    """The points 0, ..., m-1 with a validated symmetric distance matrix.

    Validation checks squareness, at least one point (the one place that
    rejects an empty space, so no function of a space meets one), symmetry,
    a zero diagonal, nonnegativity and the triangle inequality within a
    slack of TRIANGLE_TOL times max(1, largest distance).
    """

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or not d.shape[0] == d.shape[1] > 0:
            raise InvalidInputError(f"distance matrix must be square and nonempty, got shape {d.shape}")
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
        return float(self.dist.max())


def _check_triangle(d: np.ndarray) -> None:
    m = d.shape[0]
    if m <= 2:
        return
    # d[j,k] <= min_i d[j,i] + d[i,k], checked one row of intermediates at a
    # time to keep memory at O(m^2).
    best = np.full_like(d, np.inf)
    with np.errstate(over="ignore"):  # a sum past the float range is inf: it bounds nothing
        for i in range(m):
            np.minimum(best, d[:, i][:, None] + d[i, :][None, :], out=best)
    worst = float((d - best).max())
    slack = TRIANGLE_TOL * max(1.0, float(d.max()))
    if worst > slack:
        raise InvalidInputError(
            f"triangle inequality violated by {worst:.3e} (> slack {slack:.3e})"
        )


def metric_space_from_pointset(T: PointSet) -> FiniteMetricSpace:
    """Finite metric space on the elements of T under the Frobenius distance
    (the Euclidean distance of the vectorizations), from _element_distances."""
    return FiniteMetricSpace(_element_distances(T))


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


def _write_csv(path, header, rows) -> None:
    """Write the header and then the rows in the csv default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def pointset_to_csv(T: PointSet, path) -> None:
    """One row per element: elem_id followed by the row-major vectorization."""
    header = ["elem_id"] + [f"coord_{j}" for j in range(T.k * T.n)]
    _write_csv(path, header, ([str(i)] + [repr(float(v)) for v in vec]
                              for i, vec in enumerate(T.vectorized())))


def pointset_from_csv(path, k: int = 1) -> PointSet:
    """Load a point set written by pointset_to_csv.

    The flat coordinate count must be divisible by k; n is inferred.  Blank
    lines are skipped.  A malformed file raises InvalidInputError, checked
    in this order: a row whose field count differs from the header's, named
    by its line; a file without data rows, named; the header; the
    coordinate count against k; and a cell that is not a finite number,
    named by its line and column.  The file is read as UTF-8, with or
    without a byte-order mark; bytes that are not, or a line the csv module
    rejects (a field past its size limit), raise InvalidInputError too.
    """
    _check_count("k", k, 1)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            rows = []
            for row in filter(None, reader):
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(header):
                    raise InvalidInputError(
                        f"{where}: expected {len(header)} fields, got {len(row)}")
                rows.append((where, row))
        except csv.Error as exc:
            raise InvalidInputError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise InvalidInputError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    if header[:1] != ["elem_id"]:
        raise InvalidInputError(f"{path}, line 1: expected header starting with elem_id")
    kn = len(header) - 1
    if kn == 0 or kn % k != 0:
        raise InvalidInputError(f"{path}, line 1: {kn} coordinates do not form k={k} rows")
    coords = []
    for where, text in ((f"{line}, column {name}", text) for line, row in rows
                        for name, text in zip(header[1:], row[1:])):
        try:
            coords.append(float(text))
        except ValueError:
            raise InvalidInputError(f"{where}: expected a number, got {text!r}") from None
        if not math.isfinite(coords[-1]):
            raise InvalidInputError(f"{where}: expected a finite number, got {text!r}")
    return PointSet(np.array(coords).reshape(len(rows), k, kn // k))
