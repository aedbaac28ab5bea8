"""Small dense primal simplex for the all-pairs Lipschitz oracle.

Solves  maximize c.x  subject to  A x <= b,  x >= 0  with b >= 0, so the
all-slack basis is feasible and no phase-1 is needed.  Bland's rule is used
throughout, which precludes cycling on the degenerate rows produced by
coincident points and zero coefficients (b_i = 0).

The oracle's LP is the plus-to-minus transport problem of the Lipschitz
ball (classes._lipschitz_sup_simplex): one row per point, one column per
pair of a plus and a minus coefficient with a positive gain, two +1
entries per column.  For p points and |P| <= p^2/4 pairs the tableau is
(p+1) x (|P|+p+1) doubles, about 0.6 MB at the 64-point cap where the
primal all-pairs LP it replaced took (p^2+1) x (p^2+p+1), 136 MB.  A pivot
updates only the rows where the pivot column is nonzero times the columns
where the pivot row is.  At k = 2 with a +-1 row a call takes about 0.5,
1.8 and 17 ms at 16, 32 and 64 points on a 2-core x86 host (medians of 5
point sets; the primal took 1.5, 4.4 and 110 ms), and 60-175 ms at 128
points with the cap lifted.
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
    T[np.arange(m), np.arange(n, n + m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))

    for _ in range(max_iter):
        # Bland: lowest-index improving column
        improving = (T[m, :n + m] < -_PIVOT_TOL).nonzero()[0]
        if improving.size == 0:
            x = np.zeros(n + m)
            x[basis] = T[:m, -1]
            return float(T[m, -1]), x[:n]
        entering = improving[0]

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
        # the entries a pivot can change; elsewhere a dense update subtracts +-0
        rows = factors.nonzero()[0]
        cols = T[leaving].nonzero()[0]
        T[rows[:, None], cols] -= factors[rows, None] * T[leaving, cols]
        T[:, entering] = 0.0
        T[leaving, entering] = 1.0
        basis[leaving] = entering

    raise SolverError(
        f"simplex did not converge in {max_iter} iterations "
        f"(m={m}, n={n}); problem may be badly scaled"
    )
