"""Exact and Monte Carlo estimators for Rademacher (Bernoulli) and Gaussian
complexities of point sets and of composite function classes.

Two sign conventions coexist and are never mixed:

* matrix form: a set of k-by-n matrices is weighted with k*n independent
  random signs (or Gaussians), one per entry;
* composite form: a class applied to the n columns of an element is weighted
  with n independent signs, one per column.

Each operation documents which convention it uses.  Weights come from one
place, _weights: all 2^n sign patterns when the config picks exact
enumeration, otherwise mc_samples sign or Gaussian rows drawn from the one
generator seeded by the config.  It yields them in consecutive blocks of
WEIGHT_BLOCK rows, each from a bit-exact source, so the rows do not depend
on the block size, and it raises BudgetExceededError before drawing rows
wider than MAX_WEIGHT_WIDTH.  b, g and the composite are each one _estimate
call: one _weights call, each block reduced to its per-row suprema before
the next is drawn, and the mean and standard error of those suprema.  Every
block of an estimate is drawn into one buffer, which the thread keeps for
its next estimate if it holds at most SPARE_DOUBLES doubles, so a block is
valid only until the next one is drawn, an estimate holds one block of
weights whatever mc_samples is, and a run of estimates reuses memory the
system has already mapped instead of faulting in fresh pages for each.
b and g draw each block one product chunk at a time, core._chunk_rows
rows of at most core.PRODUCT_BYTES, and take each chunk's product with
the elements whole (core._in_row_chunks), so they hold one chunk of
weights, not one block, and BLAS packs one chunk at a time; the
composites and increment_ratio draw whole blocks.  Chunks and blocks
merge a lone last row by one rule, core._row_blocks, and a sign chunk
that ends mid-word leaves the word's other sign to the next, so the rows
are the same at any chunk size.  increment_ratio reduces each block for
all its element pairs, which so share one draw.  Element distances come
from core._element_distances.
Composite estimators take any function class with a sup_batch(points, C)
method (see berncomp.classes) and make one call per weight block, on the
(E, n, k) stack of every element, or of every pair's 2n columns, and
raise InvalidInputError when it does not return (E, rows).  All
randomized operations are pure functions of (inputs, seed): the same seed
gives a bit-identical result.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (ComplexityEstimate, PointSet, _check_count, _chunk_rows, _element_distances,
                   _in_row_chunks, _row_blocks, _row_max)
from .errors import BudgetExceededError, DegenerateSetError, InvalidInputError

# Largest exact_cutoff_n.  The 2^n pattern table is drawn in blocks and never
# held whole, so this bounds time (2^20 rows per estimate), not memory.
MAX_EXACT_CUTOFF = 20

# Most Monte Carlo rows per estimate: the row budget exact enumeration has at
# MAX_EXACT_CUTOFF.  It bounds time and the block list _row_blocks builds.
MAX_MC_SAMPLES = 2 ** MAX_EXACT_CUTOFF

# Weight rows per block.  Even, so a sign block ends on a whole 64-bit
# generator word and the next block starts where the one-shot draw would.
WEIGHT_BLOCK = 4096

# Widest weight row: a composite's block and its lone merged row,
# WEIGHT_BLOCK + 1 rows of this many doubles, take 500 MiB, within the
# 512 MiB of core.MAX_DISTANCE_POINTS.  increment_ratio also holds the
# block's (eps, -eps) rows, twice its size.  b and g hold one product chunk,
# at most core.PRODUCT_BYTES plus a lone row, at any width.
MAX_WEIGHT_WIDTH = 16000

# Raw generator words a sign block reads at a time (512 KiB): the words are
# held beside the block's signs one chunk at a time, not all at once.
SIGN_CHUNK_WORDS = 2 ** 16

# Doubles a thread's spare weight buffer may keep between estimates (8 MiB):
# rkhs-bound's widest block, the composite's 4000 rows of 128 signs, fits;
# b and g need at most one product chunk of it.  A wider block's buffer is
# freed when its estimate ends.
SPARE_DOUBLES = 2 ** 20

# Each thread's spare weight buffer, in .buf, while no estimate draws into it.
_SPARE = threading.local()

# Ordered pairs closer than this (Frobenius) are skipped as degenerate: the
# increment ratio is undefined at coincident pairs.
DEGENERATE_PAIR_TOL = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator mode and budgets.

    mode "auto" selects exact enumeration iff the number of independent
    signs is at most exact_cutoff_n (2^cutoff patterns); the default 14
    keeps a single estimate under 16384 patterns, and the cutoff is at most
    MAX_EXACT_CUTOFF.  mc_samples is at least 2, the least count with a
    sample standard error, and at most MAX_MC_SAMPLES.
    """

    mode: str = "auto"
    mc_samples: int = 20000
    seed: int = 42
    exact_cutoff_n: int = 14

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "monte-carlo"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        _check_count("mc_samples", self.mc_samples, 2)
        if self.mc_samples > MAX_MC_SAMPLES:
            raise InvalidInputError(f"mc_samples must be at most {MAX_MC_SAMPLES}, "
                                    f"got {self.mc_samples}")
        _check_count("exact_cutoff_n", self.exact_cutoff_n)
        if not 1 <= self.exact_cutoff_n <= MAX_EXACT_CUTOFF:
            raise InvalidInputError(f"exact_cutoff_n must be between 1 and {MAX_EXACT_CUTOFF}, "
                                    f"got {self.exact_cutoff_n}")
        _check_count("seed", self.seed)  # numpy generators take only nonnegative seeds

    def pick_exact(self, n_signs: int) -> bool:
        if self.mode == "exact":
            if n_signs > self.exact_cutoff_n:
                raise BudgetExceededError(
                    f"exact enumeration over {n_signs} signs exceeds the cutoff "
                    f"{self.exact_cutoff_n} (2^{n_signs} patterns)"
                )
            return True
        if self.mode == "monte-carlo":
            return False
        return n_signs <= self.exact_cutoff_n


DEFAULT_CONFIG = EstimatorConfig()


def _pattern_rows(start: int, stop: int, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows start..stop-1 of the 2^width sign table: sign j of a row is +1
    iff bit j of its row index is set.  Written into out, a
    (stop - start, width) float array, when it is given."""
    idx = np.arange(start, stop, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(idx, axis=1, count=width, bitorder="little")
    return np.subtract(np.multiply(bits, 2.0, out=out, dtype=float), 1.0, out=out)


def _random_signs(bitgen, shape: tuple[int, int], out: np.ndarray | None = None) -> np.ndarray:
    """The signs Generator.integers(0, 2, shape) * 2.0 - 1.0 gives, read
    from the raw words: integers(0, 2) keeps the top bit of each 32-bit half
    of a word, low half first, and a sign is +1 iff that bit is set, which
    copysign reads as the sign bit of the inverted "<i4" half.  The words
    are read SIGN_CHUNK_WORDS at a time, each chunk's signs written straight
    into the output (out, a C-contiguous float array of that shape, when it
    is given), so only one chunk of words is held beside it."""
    count = shape[0] * shape[1]
    flat = np.empty(count) if out is None else out.reshape(count)
    for start in range(0, count, 2 * SIGN_CHUNK_WORDS):
        stop = min(start + 2 * SIGN_CHUNK_WORDS, count)
        words = bitgen.random_raw((stop - start + 1) // 2).astype("<u8", copy=False)
        np.invert(words, out=words)
        np.copysign(1.0, words.view("<i4")[:stop - start], out=flat[start:stop])
    return flat.reshape(shape)


def _sign_fill(bitgen, width: int):
    """fill(start, stop, out) for _blocks: rows start..stop-1 of the
    _random_signs(bitgen, (total, width)) rows, when called on consecutive
    ranges.  A range that ends mid-word keeps the word's other sign for the
    next range, which starts with it."""
    held = np.empty(1)

    def fill(a: int, b: int, out: np.ndarray) -> None:
        flat = out.reshape(-1)
        lead, tail = a * width % 2, b * width % 2  # starts, ends mid-word
        flat[:lead] = held
        _random_signs(bitgen, (1, len(flat) - lead - tail), flat[lead:len(flat) - tail])
        if tail:
            flat[-1], held[0] = _random_signs(bitgen, (1, 2))[0]
    return fill


def _blocks(total: int, width: int, fill, chunk_rows: int | None = None) -> Iterator[np.ndarray]:
    """Consecutive ranges of width-wide rows, fill(start, stop, out) writing
    each into out, a view of this thread's spare buffer: the
    core._row_blocks(total, WEIGHT_BLOCK) blocks, each cut into its
    core._row_blocks(block rows, chunk_rows) chunks when chunk_rows is
    given.  The spare leaves _SPARE while the ranges are drawn, so an
    estimate nested in a class's sup_batch draws into a buffer of its own;
    it is allocated, or grown, to the widest range, and kept for the
    thread's next estimate only if it holds at most SPARE_DOUBLES doubles."""
    blocks = _row_blocks(total, WEIGHT_BLOCK)

    def ranges(a, b):
        return [(a + c, a + d) for c, d in _row_blocks(b - a, chunk_rows or b - a)]

    # blocks before the last are alike, so the first and the last hold the widest range
    size = max(d - c for block in (blocks[0], blocks[-1]) for c, d in ranges(*block)) * width
    spare, _SPARE.buf = getattr(_SPARE, "buf", None), None
    if spare is None or spare.size < size:
        spare = np.empty(size)
    try:
        for block in blocks:
            for a, b in ranges(*block):
                out = spare[:(b - a) * width].reshape(b - a, width)
                fill(a, b, out)
                yield out
    finally:
        if spare.size <= SPARE_DOUBLES:
            _SPARE.buf = spare


def _weights(cfg: EstimatorConfig, width: int, gaussian: bool = False,
             chunk_rows: int | None = None) -> tuple[Iterator[np.ndarray], bool]:
    """(blocks, exact): an iterator over consecutive row blocks, cut into
    chunks of chunk_rows rows when it is given (see _blocks), of all
    2^width sign patterns if cfg picks exact enumeration for width signs,
    else of cfg.mc_samples rows of random signs, or of
    standard Gaussians, drawn from a generator seeded with cfg.seed.
    Gaussian rows never ask for exact enumeration.  Whatever the block
    size, the blocks concatenate to _pattern_rows(0, 2**width, width),
    rng.integers(0, 2, (mc_samples, width)) * 2.0 - 1.0 or
    rng.standard_normal((mc_samples, width)), bit for bit.  Raises
    BudgetExceededError past MAX_WEIGHT_WIDTH before drawing anything.

    Every block is drawn into the same buffer (see _blocks), so a block is
    valid only until the next one is drawn: reduce it, or copy it, first."""
    if width > MAX_WEIGHT_WIDTH:
        raise BudgetExceededError(f"weight rows {width} wide exceed the ceiling of {MAX_WEIGHT_WIDTH}")
    if not gaussian and cfg.pick_exact(width):
        return _blocks(2 ** width, width, lambda a, b, out: _pattern_rows(a, b, width, out),
                       chunk_rows), True
    rng = np.random.default_rng(cfg.seed)
    fill = ((lambda a, b, out: rng.standard_normal(out=out)) if gaussian else
            _sign_fill(rng.bit_generator, width))
    return _blocks(cfg.mc_samples, width, fill, chunk_rows), False


def _estimate(cfg: EstimatorConfig, width: int, reduce, gaussian: bool = False,
              chunk_rows: int | None = None) -> ComplexityEstimate:
    """The mean over the weight rows of _weights(cfg, width, gaussian,
    chunk_rows) of reduce's per-row values, reduce(W) taking each block W
    in turn, with its standard error (0 when exact) and method."""
    blocks, exact = _weights(cfg, width, gaussian, chunk_rows)
    sups = np.concatenate([reduce(W) for W in blocks])
    se = 0.0 if exact else float(np.std(sups, ddof=1) / np.sqrt(len(sups)))
    return ComplexityEstimate(float(np.mean(sups)), se,
                              "exact-enumeration" if exact else "monte-carlo", len(sups), cfg.seed)


def _linear_sup_estimate(vecs: np.ndarray, cfg: EstimatorConfig, gaussian: bool) -> ComplexityEstimate:
    """E sup over rows of <weights, row> with independent entrywise weights."""
    m, width = vecs.shape
    if m == 1:
        # E <weights, t> = 0 for a singleton; exact regardless of mode.
        return ComplexityEstimate(0.0, 0.0, "closed-form", 0, cfg.seed)
    # W @ vecs.T rounds as the one-shot product did, which vecs @ W.T does
    # not for every set; each row's maximum is a running np.maximum over
    # the m columns of the (rows, m) product of each row chunk.  The
    # weights are drawn a product chunk at a time, so each W is one chunk.
    return _estimate(cfg, width, lambda W: _in_row_chunks(lambda rows: _row_max(rows @ vecs.T), W),
                     gaussian, _chunk_rows(width))


def bernoulli_complexity(T: PointSet, cfg: EstimatorConfig = DEFAULT_CONFIG) -> ComplexityEstimate:
    """E sup over elements t of the sign-weighted entry sum, matrix form
    (k*n independent signs).

    Exact mode enumerates all 2^(k*n) sign patterns; Monte Carlo reports the
    sample mean with std_error = sample std / sqrt(samples).
    """
    return _linear_sup_estimate(T.vectorized(), cfg, gaussian=False)


def gaussian_complexity(T: PointSet, cfg: EstimatorConfig = DEFAULT_CONFIG) -> ComplexityEstimate:
    """E sup over elements of the Gaussian-weighted entry sum, matrix form.

    Monte Carlo only (no finite enumeration exists); singletons return the
    closed form 0.
    """
    return _linear_sup_estimate(T.vectorized(), cfg, gaussian=True)


def _set_sups(fclass, points: np.ndarray, C: np.ndarray) -> np.ndarray:
    """fclass.sup_batch on the (E, n, k) stack points: the (E, rows) suprema
    of every row of C at every set, checked for that shape.  The classes of
    berncomp.classes take only stacks and return it by construction; the
    check guards any other class, which, written for one (n, k) set, may
    return some other shape without failing."""
    sups = fclass.sup_batch(points, C)
    if np.shape(sups) != (len(points), len(C)):
        raise InvalidInputError(
            f"{type(fclass).__name__}.sup_batch returned shape {np.shape(sups)} for a stack "
            f"of {len(points)} point sets and {len(C)} coefficient rows; a class must take "
            f"(E, n, k) point sets and return (E, rows) suprema")
    return sups


def composite_bernoulli_complexity(fclass, T: PointSet,
                                   cfg: EstimatorConfig = DEFAULT_CONFIG) -> ComplexityEstimate:
    """E sup over elements t and class members f of sum_i eps_i f(t_i),
    composite form (n independent signs, one per column).

    fclass is any class with sup_batch(points, C).  The supremum couples f
    and t jointly, per sign pattern (exact) or per sample (Monte Carlo).
    Each weight block is one sup_batch call on the stack of all elements.
    """
    points = T.elements.transpose(0, 2, 1)  # each element's (n, k) columns
    return _estimate(cfg, T.n, lambda W: np.max(_set_sups(fclass, points, W), axis=0))


def increment_ratio(fclass, S: PointSet,
                    cfg: EstimatorConfig = DEFAULT_CONFIG) -> float:
    """Worst pairwise ratio of the expected supremum of the sign-weighted
    increment sum_i eps_i (f(s_i) - f(t_i)) to the Frobenius distance
    ||s - t|| (n signs, one per column), for any class with
    sup_batch(points, C).

    Pairs closer than DEGENERATE_PAIR_TOL are skipped; if every pair is
    degenerate a DegenerateSetError is raised.  The distances are the
    core._element_distances.  The same sign draws are used for every pair
    (common random numbers) to reduce ratio variance.

    Each weight block W is one sup_batch call on the stack of every pair's
    (2n, k) columns, with the coefficient rows (eps, -eps) formed once in
    one (rows, 2n) array.

    Memory: each pair's mean is taken over its whole vector of per-row
    suprema, which keeps the bits of a one-shot mean, so the class's
    (pairs, block rows) suprema of every block are held until the last
    block, pairs x rows x 8 bytes, and each pair's vector is joined from
    them only for its mean.  Copying each block into one preallocated
    (pairs, rows) array would hold the block's suprema twice.  Beside them
    one block is held at a time: W, in the thread's spare buffer and
    overwritten by the next block, and its (eps, -eps) rows, twice W.  At
    20 elements of 8 points (190 pairs) and 20000 samples the suprema take
    30.4 MB.
    """
    if S.n_elements < 2:
        raise InvalidInputError("need at least two elements")
    blocks, _ = _weights(cfg, S.n)  # a budget it exceeds raises before the pair checks
    dist = _element_distances(S)
    # Sign symmetry eps -> -eps makes the (s, t) and (t, s) expectations
    # equal, so unordered pairs suffice.
    pairs = [(i, j) for i, j in zip(*np.triu_indices(S.n_elements, 1))
             if dist[i, j] >= DEGENERATE_PAIR_TOL]
    if not pairs:
        raise DegenerateSetError("all element pairs coincide within tolerance")
    points = np.stack([np.concatenate([S.element(i).T, S.element(j).T]) for i, j in pairs])
    n = S.n
    sups = []  # each block's (pairs, block rows), as the class returns it
    for W in blocks:
        half = np.empty((len(W), 2 * n))
        half[:, :n] = W
        np.negative(W, out=half[:, n:])
        sups.append(_set_sups(fclass, points, half))
    return max(float(np.mean(np.concatenate([block[p] for block in sups]))) / float(dist[i, j])
               for p, (i, j) in enumerate(pairs))

