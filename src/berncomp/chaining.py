"""Covering numbers, entropy numbers, admissible partition sequences,
chaining functionals and the entropy-based composite-complexity bound.

Entropy numbers here restrict centers to subsets of the space itself (some
texts allow external centers; exact values can differ by a factor of at
most 2).  Center selections are farthest-first with ties broken by lowest
index, so everything is deterministic; callers that need only the first
picks stop the greedy pass there.  Every space has at least one point:
core.FiniteMetricSpace rejects an empty one, so no function here checks
for it.  Exact covering and entropy numbers come from one branch-and-bound
search over center subsets, which starts from the farthest-first radius and
branches only over the centers that can cover the worst-covered point
better.  It visits no center set twice, and it runs only while the subsets
it could examine number at most SEARCH_BUDGET = 2^20 (always for covering
numbers of spaces of at most 20 points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import FiniteMetricSpace, _check_count, _check_scales
from .errors import InvalidInputError

# Levels beyond this are never needed: their admissible cardinality exceeds
# any finite space we can represent.
MAX_LEVEL = 20

# Most center subsets an exact covering or entropy number may search.
SEARCH_BUDGET = 2 ** 20

# Truncation levels scanned by min_truncation_objective.
MAX_TRUNCATION_LEVEL = 64


def admissible_capacity(m: int):
    """Largest admissible cardinality at level m: 1 at level 0, else 2^(2^m),
    and math.inf once that exceeds 2^60, past any practical set size."""
    _check_count("level", m)
    if m == 0:
        return 1
    if 2 ** m > 60:
        return math.inf
    return 2 ** (2 ** m)


def farthest_first(dist: np.ndarray):
    """Yield (point, radius) in the greedy farthest-first order of a
    symmetric distance matrix of at least one point, radius being the
    covering radius max_i min_c dist[i, c] of the points yielded so far,
    this one included (0 after the last); a caller stops after the picks it
    needs.

    Starts from point 0; each subsequent pick maximizes the minimum distance
    to the points already chosen (ties: lowest index), and that maximum is
    the covering radius of the points chosen before it.  The minimum
    distances of all points sit in one vector, -inf at the chosen ones.
    """
    chosen = 0
    mindist = dist[0].astype(float)
    mindist[0] = -np.inf
    for _ in range(1, len(mindist)):
        pick = int(np.argmax(mindist))  # first maximum = lowest index
        yield chosen, float(mindist[pick])
        chosen = pick
        np.minimum(mindist, dist[chosen], out=mindist)
        mindist[chosen] = -np.inf
    yield chosen, 0.0


@dataclass(frozen=True)
class CoveringResult:
    upper_bound: int
    exact: int | None


def _min_cover_radius(d: np.ndarray, size: int, best: float) -> float:
    """The smallest covering radius max_i min_{j in S} d[i, j] over the
    size-subsets S of the points, if one lies below best; best otherwise.

    Branch and bound: a cover of radius below best puts a center within
    best of the worst-covered point, so each node branches only over those
    candidates, and the last center is taken for all candidates at once.
    Each explored candidate leaves the later siblings' choices, so no center
    set is visited twice and no more than C(points, size) full subsets are
    examined; a candidate skipped because best fell to its distance stays
    available to them.  The recursion is as deep as size.
    """
    def branch(mindist, avail, k):
        nonlocal best
        worst = int(np.argmax(mindist))
        best = min(best, float(mindist[worst]))
        cands = np.flatnonzero(avail & (d[worst] < best))
        if k == 1:
            if cands.size:
                best = min(best, float(np.minimum(mindist, d[cands]).max(axis=1).min()))
            return
        avail = avail.copy()
        for c in cands:
            if d[worst, c] < best:
                avail[c] = False
                branch(np.minimum(mindist, d[c]), avail, k - 1)

    branch(np.full(len(d), np.inf), np.ones(len(d), dtype=bool), size)
    return best


def covering_number(space: FiniteMetricSpace, delta: float) -> CoveringResult:
    """Minimum number of closed delta-balls centered at space points needed
    to cover the space.

    The greedy farthest-first construction gives the upper bound.  The exact
    minimum is searched whenever the subset count fits SEARCH_BUDGET, which
    every space of at most 20 points does: a delta-cover of a given size
    exists iff some subset of that size has covering radius <= delta.
    """
    _check_scales(delta=delta)
    m = space.size
    d = space.dist
    upper = next(j for j, (_, radius) in enumerate(farthest_first(d), 1) if radius <= delta)
    # a radius below the float after delta is one <= delta
    above = math.nextafter(delta, math.inf)
    total = 0
    for size in range(1, upper):
        count = math.comb(m, size)
        if total + count > SEARCH_BUDGET:
            return CoveringResult(upper, None)
        total += count
        if _min_cover_radius(d, size, above) <= delta:
            return CoveringResult(upper, size)
    return CoveringResult(upper, upper)


@dataclass(frozen=True)
class EntropyResult:
    upper_bound: float
    exact: float | None


def entropy_number(space: FiniteMetricSpace, m: int) -> EntropyResult:
    """Level-m entropy number: the best worst-case distance from any point
    to a center subset of the space of admissible cardinality (1 at level 0,
    2^(2^m) beyond).

    Farthest-first centers give the upper bound, and the exact value is
    searched below it when the subset count fits SEARCH_BUDGET.  Zero
    (exactly) once the capacity reaches the point count.
    """
    cap = admissible_capacity(m)
    npts = space.size
    size = min(cap, npts)
    if size >= npts:
        return EntropyResult(0.0, 0.0)
    d = space.dist
    upper = [radius for _, (_, radius) in zip(range(size), farthest_first(d))][-1]
    if math.comb(npts, size) > SEARCH_BUDGET:
        return EntropyResult(upper, None)
    # The greedy centers are one of the subsets, so the minimum is <= upper.
    return EntropyResult(upper, _min_cover_radius(d, size, upper))


@dataclass(frozen=True)
class EntropyProfile:
    """Entropy numbers e_0 >= e_1 >= ..."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise InvalidInputError("entropy profile must be nonempty")
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError("entropy numbers must be finite")
        if any(v < 0 for v in vals):
            raise InvalidInputError("entropy numbers are nonnegative")
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-12:
                raise InvalidInputError("entropy numbers must be nonincreasing")
        object.__setattr__(self, "values", vals)


def entropy_profile(space: FiniteMetricSpace) -> EntropyProfile:
    """Profile of entropy numbers of a space, up to the first zero level.
    Uses exact values when every level admits the exhaustive search, greedy
    upper bounds otherwise."""
    results = [entropy_number(space, 0)]
    while results[-1].upper_bound != 0.0:
        results.append(entropy_number(space, len(results)))
    if all(r.exact is not None for r in results):
        return EntropyProfile(tuple(r.exact for r in results))
    return EntropyProfile(tuple(r.upper_bound for r in results))


def lipschitz_entropy_formula(m: int, L: float, B: float, k: int, C_k: float) -> float:
    """Entropy-number envelope C_k * L * B * 2^(-m/k) for an L-Lipschitz
    class that is L*B-bounded on a k-dimensional domain of scale B."""
    _check_count("m", m)
    _check_count("k", k, 1)
    _check_scales(L=L, B=B, C_k=C_k)
    return float(C_k * L * B * 2.0 ** (-m / k))


def lipschitz_entropy_profile(max_m: int, L: float, B: float, k: int,
                              C_k: float) -> EntropyProfile:
    values = tuple(lipschitz_entropy_formula(m, L, B, k, C_k) for m in range(max_m + 1))
    return EntropyProfile(values)


# ---------------------------------------------------------------------------
# Admissible sequences and chaining functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleSequence:
    """Nested partitions of {0, ..., n-1}: one block at level 0 and at most
    2^(2^m) blocks at level m, every block contained in a level-(m-1) block."""

    levels: tuple  # tuple of levels; each level is a tuple of index tuples

    def __post_init__(self):
        levels = tuple(
            tuple(tuple(int(i) for i in block) for block in level)
            for level in self.levels
        )
        if not levels:
            raise InvalidInputError("sequence needs at least one level")
        object.__setattr__(self, "levels", levels)

    def validate(self, n_points: int) -> None:
        universe = frozenset(range(n_points))
        for m, level in enumerate(self.levels):
            cap = admissible_capacity(m)
            if len(level) > cap:
                raise InvalidInputError(
                    f"level {m} has {len(level)} blocks, cap is {cap}"
                )
            seen = []
            for block in level:
                if not block:
                    raise InvalidInputError(f"level {m} contains an empty block")
                seen.extend(block)
            if len(seen) != n_points or set(seen) != universe:
                raise InvalidInputError(f"level {m} is not a partition of the space")
        # every level is a partition by now, so a block is nested iff all its
        # points carry one parent-block label
        for m, (parents, level) in enumerate(zip(self.levels, self.levels[1:])):
            label = [0] * n_points
            for p, block in enumerate(parents):
                for i in block:
                    label[i] = p
            for block in level:
                if len({label[i] for i in block}) > 1:
                    raise InvalidInputError(
                        f"level {m + 1} block {sorted(block)} is not nested in level {m}"
                    )


def build_admissible_sequence(space: FiniteMetricSpace) -> AdmissibleSequence:
    """Recursive farthest-first splitting: level m refines level m-1 by
    partitioning each block around up to cap(m)/|level m-1| farthest-first
    centers; nesting is preserved by construction.  Level m-1 holds at most
    cap(m-1) blocks, so that allowance is at least cap(m)/cap(m-1) >= 4.
    Stops once all blocks are singletons (or at MAX_LEVEL)."""
    npts = space.size
    d = space.dist
    levels = [(tuple(range(npts)),)]
    m = 0
    while m < MAX_LEVEL and any(len(b) > 1 for b in levels[-1]):
        m += 1
        cap = admissible_capacity(m)
        prev = levels[-1]
        # the min keeps an infinite cap integral and changes no n_centers:
        # a cap past npts * len(prev) allows len(block) centers either way
        allowance = min(cap, npts * len(prev)) // len(prev)
        new_level = []
        for block in prev:
            if len(block) == 1:
                new_level.append(block)
                continue
            n_centers = min(allowance, len(block))
            block_arr = np.asarray(block, dtype=int)
            sub = d[block_arr][:, block_arr]
            if sub.max() == 0.0:
                # coincident points carry no metric signal; split by index
                for chunk in np.array_split(block_arr, n_centers):
                    new_level.append(tuple(int(i) for i in chunk))
                continue
            local_centers = [c for _, (c, _) in zip(range(n_centers), farthest_first(sub))]
            assign = np.argmin(sub[:, local_centers], axis=1)  # ties: lowest center
            for ci in range(len(local_centers)):
                members = block_arr[assign == ci]
                if members.size:
                    new_level.append(tuple(int(i) for i in members))
        levels.append(tuple(new_level))
    return AdmissibleSequence(tuple(levels))


def gamma2_upper(space: FiniteMetricSpace, seq: AdmissibleSequence) -> float:
    """Chaining functional of the given admissible sequence: the worst point
    total of 2^(m/2) times the diameter of its level-m block.

    An upper bound on the optimal (gamma-2) value; exact for the sequence
    when its final level is all singletons (levels past the last provided
    contribute zero diameter), which build_admissible_sequence guarantees
    for spaces of distinct points.
    """
    seq.validate(space.size)
    d = space.dist
    totals = np.zeros(space.size)
    for m, level in enumerate(seq.levels):
        weight = 2.0 ** (m / 2.0)
        for block in level:
            if len(block) == 1:
                continue
            idx = np.asarray(block, dtype=int)
            diam = float(d[idx][:, idx].max())
            totals[idx] += weight * diam
    return float(totals.max())


def composite_entropy_bound(n: int, L: float, bT: float, profile: EntropyProfile,
                            c1: float = 1.0):
    """Entropy-number bound on the composite complexity:

        c1 * L * bT + n * min over M of [e_M + sum_{m<=M} 2^(m/2) e_m / sqrt(n)]

    Returns (bound, minimizing M); the scan over M is exhaustive over the
    profile, so the reported minimum is exact for the given values.  L and
    c1 must be finite and positive, bT finite and nonnegative.
    """
    _check_count("n", n, 1)
    _check_scales(L=L, c1=c1)
    if not 0.0 <= bT < math.inf:
        raise InvalidInputError(f"bT must be finite and nonnegative, got {bT!r}")
    vals = profile.values
    sqrt_n = math.sqrt(n)
    running = accumulate(2.0 ** (M / 2.0) * e / sqrt_n for M, e in enumerate(vals))
    best_val, best_m = _first_minimum(e + r for e, r in zip(vals, running))
    return float(c1 * L * bT + n * best_val), best_m


def truncation_objective(M: int, k: int, n: int) -> float:
    """Normalized entropy-sum objective at truncation level M for a class
    with entropy envelope 2^(-m/k) on an n-point sample:

        2^(-M/k) + (1/sqrt(n)) * sum_{m=0}^{M} 2^(m(1/2 - 1/k))
    """
    _check_count("M", M)
    _check_count("k", k, 1)
    _check_count("n", n, 1)
    ms = np.arange(M + 1)
    tail = float(np.power(2.0, ms * (0.5 - 1.0 / k)).sum()) / math.sqrt(n)
    return float(2.0 ** (-M / k) + tail)


def min_truncation_objective(k: int, n: int):
    """Exhaustive scan of the truncation objective over levels 0 to
    MAX_TRUNCATION_LEVEL; returns (minimum, argmin)."""
    return _first_minimum(truncation_objective(M, k, n) for M in range(MAX_TRUNCATION_LEVEL + 1))


def _first_minimum(values):
    """(minimum, level) of the values over levels 0, 1, ...: the first level
    that attains the minimum, and (inf, 0) if no value is below inf."""
    best_val, best_m = math.inf, 0
    for M, v in enumerate(values):
        if v < best_val:
            best_val, best_m = v, M
    return best_val, best_m


def composite_rate(n: int, k: int) -> float:
    """Per-sample residual rate of the entropy-based composite bound:
    n^(-1/2) for k = 1, n^(-1/2) log n for k = 2, n^(-1/k) for k > 2
    (natural logarithm)."""
    _check_count("n", n, 1)
    _check_count("k", k, 1)
    if k == 1:
        return n ** -0.5
    if k == 2:
        return math.log(n) * n ** -0.5
    return n ** (-1.0 / k)
