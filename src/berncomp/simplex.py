"""Small dense primal simplex for the Lipschitz-extension linear programs.

Solves  maximize c.x  subject to  A x <= b,  x >= 0  with b >= 0, so the
all-slack basis is feasible and no phase-1 is needed.  Bland's rule is used
throughout, which precludes cycling on the degenerate rows produced by
coincident points (b_i = 0).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, SolverError

_PIVOT_TOL = 1e-9

# Pivot cap: a fixed allowance plus this many pivots per row and column.
MAX_ITER_BASE = 10000
MAX_ITER_PER_DIM = 50


def simplex_maximize(c, A, b):
    """Return (optimal value, optimal x).

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

    for _ in range(max_iter):
        reduced = T[m, :n + m]
        entering = -1
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
