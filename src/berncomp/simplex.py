"""Small dense primal simplex for the all-pairs Lipschitz oracle.

Solves  maximize c.x  subject to  A x <= b,  x >= 0  with b >= 0, so the
all-slack basis is feasible and no phase-1 is needed.  The entering column
is the one with the most negative reduced cost (Dantzig's rule), lowest
index on ties.  That rule alone can cycle on degenerate programs (Beale's
1955 example does), so once m pivots in a row have been degenerate the
lowest-index improving column enters instead (Bland's rule, which cannot
cycle; Bland, Math. Oper. Res. 2, 1977) until the next nondegenerate
pivot.  The leaving row is the minimum ratio, ties broken by the lowest
basic index.

The oracle's LP is the plus-to-minus transport problem of the Lipschitz
ball (classes._lipschitz_sup_simplex): one row per point, one column per
pair of a plus and a minus coefficient with a positive gain, two +1
entries per column.  For p points and |P| <= p^2/4 pairs the tableau is
(p+1) x (|P|+p+1) doubles, about 0.6 MB at the 64-point cap.  A pivot
updates only the rows where the pivot column is nonzero, across all
columns, so its pivots and bits are those of a dense update.  At k = 2
with a +-1 row the median call takes 16, 35 and 74 pivots at 16, 32 and
64 points where Bland's rule throughout took 22, 70 and 184, and about
0.3, 1.0 and 2.7 ms on a 2-core x86 host (Bland's rule: 0.8, 2.0 and
12 ms; medians of 10 point sets); with the cap lifted, 173 pivots and
12 ms at 128 points (574 and 95 ms).  The longest degenerate run seen on
these LPs (30 pivots at 64 coincident points) stays under m, so there
Bland's rule is only the guard.
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

    Termination: a nondegenerate pivot strictly raises the objective, so no
    basis repeats across one.  Within a run of degenerate pivots at most m
    Dantzig pivots come before a stretch of pure Bland pivots, and Bland's
    rule cannot cycle, so every run ends.  The pivot cap stays as a guard
    against rounding.

    Raises SolverError with diagnostics if the pivot cap is hit and
    InvalidInputError for non-finite input, negative right-hand sides or an
    unbounded program (our callers always pass box-bounded problems).
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise InvalidInputError("inconsistent LP dimensions")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        # a nan reduced cost would stop the argmin at once
        raise InvalidInputError("simplex_maximize requires finite c, A and b")
    if np.any(b < 0):
        raise InvalidInputError("simplex_maximize requires b >= 0")
    max_iter = MAX_ITER_BASE + MAX_ITER_PER_DIM * (m + n)

    # Tableau: m constraint rows [A | I | b] and an objective row [-c | 0 | 0].
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[np.arange(m), np.arange(n, n + m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)
    reduced = T[m, :n + m]
    rhs = T[:m, -1]
    degenerate = 0  # degenerate pivots since the last nondegenerate one

    for _ in range(max_iter):
        if degenerate < m:  # Dantzig: most negative reduced cost
            entering = int(reduced.argmin())
            if not reduced[entering] < -_PIVOT_TOL:
                entering = -1
        else:  # Bland: lowest-index improving column
            improving = np.flatnonzero(reduced < -_PIVOT_TOL)
            entering = int(improving[0]) if improving.size else -1
        if entering < 0:
            x = np.zeros(n + m)
            x[basis] = rhs
            return float(T[m, -1]), x[:n]

        col = T[:m, entering]
        positive = np.flatnonzero(col > _PIVOT_TOL)
        ratios = rhs[positive] / col[positive]
        best = ratios.min(initial=np.inf)
        if not np.isfinite(best):
            raise InvalidInputError("LP is unbounded")
        # Among minimal ratios, leave the lowest-index basic (Bland's tie-break).
        slack = _PIVOT_TOL * max(1.0, abs(best))
        ties = positive[ratios <= best + slack]
        leaving = ties[basis[ties].argmin()]
        degenerate = degenerate + 1 if abs(best) <= slack else 0

        prow = T[leaving]
        prow /= prow[entering]
        factors = T[:, entering].copy()
        factors[leaving] = 0.0
        # Only rows with a nonzero factor change; a dense update subtracts +-0
        # elsewhere.  Row by row, with no (rows x cols) temporaries.
        for r in factors.nonzero()[0].tolist():
            T[r] -= factors[r] * prow
        T[:, entering] = 0.0
        T[leaving, entering] = 1.0
        basis[leaving] = entering

    raise SolverError(
        f"simplex did not converge in {max_iter} iterations "
        f"(m={m}, n={n}); problem may be badly scaled"
    )
