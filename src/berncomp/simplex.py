"""Small dense primal simplex for the all-pairs Lipschitz oracle.

Solves stacks of LPs  maximize c.x  subject to  A x <= b,  x >= 0  with
b >= 0, so the all-slack basis is feasible and no phase-1 is needed.  The
entering column is the one with the most negative reduced cost (Dantzig's
rule), lowest index on ties.  That rule alone can cycle on degenerate
programs (Beale's 1955 example does), so once m pivots in a row have been
degenerate the lowest-index improving column enters instead (Bland's rule,
which cannot cycle; Bland, Math. Oper. Res. 2, 1977) until the next
nondegenerate pivot.  The leaving row is the minimum ratio, ties broken by
the lowest basic index.

A stack is L programs of equal m and n in one pivot loop.  Each pass
pivots every program that is not yet optimal, with that program's own
entering and leaving rows, degenerate count and pivot cap, so each program
gets the pivots and bits it gets alone.  A pass is a fixed number of numpy
calls whatever L, so the interpreter is paid once per pass of the slowest
program instead of once per pivot of every program.  The live tableaus
stay a prefix of the stack: an optimal program leaves, and one live
tableau from the end moves into its place, so no pass copies the stack.

The oracle's LP is the plus-to-minus transport problem of the Lipschitz
ball (classes._lipschitz_sup_simplex): one row per point, one column per
pair of a plus and a minus coefficient with a positive gain, two +1
entries per column.  For p points and |P| <= p^2/4 pairs the tableau is
(p+1) x (|P|+p+1) doubles, about 0.6 MB at the 64-point cap, and
classes.SIMPLEX_STACK_BYTES bounds a stack of them.  A pivot updates only
the rows where the pivot column is nonzero, across all columns, so its
pivots and bits are those of a dense update.  At k = 2 with a +-1 row the
median LP takes 16, 35 and 74 pivots at 16, 32 and 64 points where Bland's
rule throughout took 22, 70 and 184 (medians of 10 point sets); with the
cap lifted, 173 pivots at 128 points (574).  The longest degenerate run
seen on these LPs (30 pivots at 64 coincident points) stays under m, so
there Bland's rule is only the guard.  On a shared 2-core x86 host, a
stack of 32 +-1 rows takes 2.3, 10.5 and 71 ms at 16, 32 and 64 points,
where one LP per call took 7.7, 20.5 and 56 ms; a stack of one row takes
0.55, 1.5 and 4.9 ms, where one LP per call took 0.27, 0.65 and 2.4 ms
(BENCH_32.json).  The oracle stacks the LPs of every row at every set of
a weight chunk, so the estimators make one call per chunk: on the
lipschitz-k2 workload at seed 1, 3 calls and 125 pivot passes where one
call per set made 10 and 367 (BENCH_33.json).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, SolverError

_PIVOT_TOL = 1e-9

# Pivot cap: a fixed allowance plus this many pivots per row and column.
MAX_ITER_BASE = 10000
MAX_ITER_PER_DIM = 50


def simplex_maximize(c, A, b):
    """Return (optimal values, optimal x) of a stack of LPs.

    c is (L, n), A is (L, m, n) and b is (L, m): L programs with equal m
    and n, solved in one pivot loop.  Each keeps its own entering and
    leaving choices, degenerate-pivot count and pivot cap, so it gets the
    pivots and bits it gets when solved alone; each loop pass pivots every
    program that is not yet optimal.  Returns the (L,) values and the
    (L, n) x.

    Termination: a nondegenerate pivot strictly raises the objective, so no
    basis repeats across one.  Within a run of degenerate pivots at most m
    Dantzig pivots come before a stretch of pure Bland pivots, and Bland's
    rule cannot cycle, so every run ends.  The pivot cap stays as a guard
    against rounding.

    Raises SolverError with diagnostics if a program hits the pivot cap and
    InvalidInputError for non-finite input, negative right-hand sides or an
    unbounded program (our callers always pass box-bounded problems).
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 3 or c.ndim != 2 or b.ndim != 2:
        raise InvalidInputError("inconsistent LP dimensions")
    L, m, n = A.shape
    if c.shape != (L, n) or b.shape != (L, m):
        raise InvalidInputError("inconsistent LP dimensions")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        # a nan reduced cost would stop the argmin at once
        raise InvalidInputError("simplex_maximize requires finite c, A and b")
    if np.any(b < 0):
        raise InvalidInputError("simplex_maximize requires b >= 0")
    max_iter = MAX_ITER_BASE + MAX_ITER_PER_DIM * (m + n)

    # Tableaus: m constraint rows [A | I | b] and an objective row [-c | 0 | 0].
    T = np.zeros((L, m + 1, n + m + 1))
    T[:, :m, :n] = A
    T[:, :m, n:n + m] = np.eye(m)
    T[:, :m, -1] = b
    T[:, m, :n] = -c
    rows = T.reshape(L * (m + 1), n + m + 1)  # every tableau row, program by program
    basis = np.tile(np.arange(n, n + m), (L, 1))
    degenerate = np.zeros(L, dtype=int)  # degenerate pivots since the last nondegenerate one
    # The k programs not yet optimal sit at stack positions 0..k-1, program
    # order[p] at position p; an optimal one gives its place to a live one
    # from the end, so no pass copies more than the tableaus that move.
    order = np.arange(L)
    positions = np.arange(L)
    first_row = positions * (m + 1)
    values = np.empty(L)
    x = np.zeros((L, n + m))
    k = L
    pivots = 0

    while k:
        at = positions[:k]
        reduced = T[:k, m, :n + m]
        entering = reduced.argmin(axis=1)  # Dantzig: most negative, lowest index on ties
        improving = reduced[at, entering] < -_PIVOT_TOL
        if not improving.all():  # optimal programs leave the working set
            done = np.flatnonzero(~improving)
            values[order[done]] = T[done, m, -1]
            x[order[done, None], basis[done]] = T[done, :m, -1]
            k -= len(done)
            if not k:
                break
            holes = done[done < k]
            movers = k + np.flatnonzero(improving[k:])
            for array in (T, basis, degenerate, order, entering):
                array[holes] = array[movers]
            at = positions[:k]
            reduced = T[:k, m, :n + m]
            entering = entering[:k]
        if pivots == max_iter:
            raise SolverError(
                f"simplex did not converge in {max_iter} iterations "
                f"(m={m}, n={n}); problem may be badly scaled"
            )
        pivots += 1
        streak = degenerate[:k]
        if streak.max() >= m:  # Bland: lowest-index improving column
            bland = streak >= m
            entering[bland] = (reduced[bland] < -_PIVOT_TOL).argmax(axis=1)

        column = T[at, :, entering]
        col = column[:, :m]
        ratios = np.divide(T[:k, :m, -1], col, out=np.full((k, m), np.inf),
                           where=col > _PIVOT_TOL)
        best = ratios.min(axis=1)
        if best.max() == np.inf:
            raise InvalidInputError("LP is unbounded")
        # Among minimal ratios, leave the lowest-index basic (Bland's tie-break).
        size = np.abs(best)
        slack = _PIVOT_TOL * np.maximum(1.0, size)
        leaving = np.where(ratios <= (best + slack)[:, None], basis[:k], n + m).argmin(axis=1)
        streak += 1
        streak *= size <= slack

        pivot_rows = first_row[:k] + leaving
        prow = rows[pivot_rows]
        prow /= column[at, leaving][:, None]
        rows[pivot_rows] = prow
        column[at, leaving] = 0.0
        # Only rows with a nonzero factor change; a dense update subtracts +-0
        # elsewhere.  Entry (p, r) of column, at flat index p * (m + 1) + r,
        # belongs to row r of the tableau at position p: that row of rows.
        targets = np.flatnonzero(column)
        rows[targets] -= column.ravel()[targets, None] * prow[targets // (m + 1)]
        T[at, :, entering] = 0.0
        rows[pivot_rows, entering] = 1.0
        basis[at, leaving] = entering

    return values, x[:, :n]
