"""Exact empirical HUM evaluation.

The hypervolume under the ROC manifold for M ordered categories is the
probability that one random subject per category is scored in strictly
increasing severity order.  Its empirical plug-in is an M-sample U-statistic
with an indicator kernel; this module evaluates it exactly, either by
brute-force enumeration (verification oracle, guarded) or by a sorted
chain-counting dynamic program in O(sum n_j log n_j).

The chain counts, for each score of category j, the correctly ordered
chains of categories 0..j that end at it.  At the first level that is the
number of category-0 scores below it, one ``searchsorted``; each middle level
sums the previous level's counts below it with a prefix sum; the last level
needs no sum, since the total is the dot product of the counts of category
M-2 with the numbers of category-(M-1) scores above them.  For M = 3 the
count is therefore sum(below * above) over the sorted middle category.

The exact 1-D searches score the combination ``base + coef * direction`` at
a whole grid of coefficients; :func:`ehum_on_grid` and
:func:`min_adjacent_auc_on_grid` build those score rows in blocks, sort each
category's rows in one call and count each row as a single point would,
so every value equals the single-point one bit for bit.

Ties count as failures throughout: the indicator is strict, no half-credit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InstanceTooLarge

BRUTE_FORCE_LIMIT = 10**7
_INT64_SAFE = 2**62
_GRID_BLOCK = 1 << 16      # score elements per block of grid rows


@dataclass(frozen=True)
class HumValue:
    """Empirical HUM with exact count semantics.

    ``value * n_tuples == count`` exactly; ``count`` is the number of
    correctly ordered M-tuples out of ``n_tuples = prod(n_j)``.
    """

    value: float
    n_tuples: int
    count: int


def _as_score_list(scores):
    out = [np.asarray(s, dtype=float).ravel() for s in scores]
    if len(out) < 2:
        raise EmptyInput("need at least 2 categories of scores")
    for s in out:
        if s.size == 0:
            raise EmptyInput("empty score vector")
    return out


def ehum_bruteforce(scores) -> HumValue:
    """Enumerate every M-tuple; exact but exponential.

    Guarded by ``BRUTE_FORCE_LIMIT`` on the tuple count; use
    :func:`ehum_fast` for anything of real size.
    """
    scores = _as_score_list(scores)
    n_tuples = math.prod(s.size for s in scores)
    if n_tuples > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(n_tuples, BRUTE_FORCE_LIMIT)
    count = 0
    for tup in itertools.product(*[s.tolist() for s in scores]):
        ok = True
        for a, b in zip(tup, tup[1:]):
            if not b > a:
                ok = False
                break
        if ok:
            count += 1
    return HumValue(count / n_tuples, n_tuples, count)


def _ordered_count(ranked, dtype) -> int:
    """Correctly ordered M-tuples of the ascending per-category ``ranked``.

    c(x), the chains ending at a score x of category j, is the number of
    category-0 scores below x at j = 1 and the prefix sum of the previous
    level's c below x after that; the total is the dot product of the
    category-(M-2) counts with the category-(M-1) scores above them.
    ``dtype`` is int64, or object (Python ints) when prod(n_j) could
    overflow it.
    """
    c = np.searchsorted(ranked[0], ranked[1], side="left")
    if len(ranked) == 2:
        return int(c.sum(dtype=dtype))
    c = c.astype(dtype, copy=False)
    for prev, s in zip(ranked[1:-2], ranked[2:-1]):
        cum = np.empty(c.size + 1, dtype=dtype)
        cum[0] = 0
        cum[1:] = np.cumsum(c)
        # side="left": number of previous scores strictly below s
        c = cum[np.searchsorted(prev, s, side="left")]
    last = ranked[-1]
    above = last.size - np.searchsorted(last, ranked[-2], side="right")
    return int(c @ above.astype(dtype, copy=False))


def _count_dtype(n_tuples):
    return object if n_tuples >= _INT64_SAFE else np.int64


def ehum_fast(scores) -> HumValue:
    """Sorted chain-counting evaluation, identical value to the brute force.

    Sort each category ascending and count the ordered tuples with
    ``searchsorted`` sweeps (see :func:`_ordered_count`).  Counts are exact
    integers (int64, falling back to Python ints when prod(n_j) could
    overflow).
    """
    scores = _as_score_list(scores)
    n_tuples = math.prod(s.size for s in scores)
    count = _ordered_count([np.sort(s) for s in scores], _count_dtype(n_tuples))
    return HumValue(count / n_tuples, n_tuples, count)


def pairwise_auc(scores_low, scores_high) -> float:
    """Strict-count AUC: fraction of (low, high) pairs with high > low."""
    lo = np.asarray(scores_low, dtype=float).ravel()
    hi = np.asarray(scores_high, dtype=float).ravel()
    if lo.size == 0 or hi.size == 0:
        raise EmptyInput("empty score vector")
    lo_sorted = np.sort(lo)
    count = int(np.searchsorted(lo_sorted, hi, side="left").sum())
    return count / (lo.size * hi.size)


def adjacent_aucs(scores) -> list:
    """AUC of each adjacent category pair (j, j+1), length M-1."""
    scores = _as_score_list(scores)
    return [pairwise_auc(scores[j], scores[j + 1]) for j in range(len(scores) - 1)]


def min_adjacent_auc(scores) -> float:
    """P_M: minimum adjacent-pair AUC (the upper bound itself)."""
    return min(adjacent_aucs(scores))


def _sorted_grid_rows(base, direction, coefs):
    """Yield, block by block, each category's score rows ``base_j + coef *
    direction_j`` over the coefficients, sorted along each row.

    Rows are formed elementwise as a single point forms them, so each equals
    that point's scores; a block holds about ``_GRID_BLOCK`` scores.
    """
    base = _as_score_list(base)
    direction = _as_score_list(direction)
    coefs = np.asarray(coefs, dtype=float).ravel()
    rows = max(1, _GRID_BLOCK // sum(v.size for v in base))
    for start in range(0, coefs.size, rows):
        block = coefs[start:start + rows, None]
        yield [np.sort(v + block * w, axis=1) for v, w in zip(base, direction)]


def ehum_on_grid(base, direction, coefs) -> np.ndarray:
    """``ehum_fast([v + coef * w ...]).value`` for each coefficient, equal
    bit for bit, with each category's rows sorted in one call per block."""
    n_tuples = math.prod(np.size(v) for v in base)
    dtype = _count_dtype(n_tuples)
    values = []
    for ranked in _sorted_grid_rows(base, direction, coefs):
        values += [_ordered_count([r[g] for r in ranked], dtype) / n_tuples
                   for g in range(ranked[0].shape[0])]
    return np.array(values, dtype=float)


def min_adjacent_auc_on_grid(base, direction, coefs) -> np.ndarray:
    """``min_adjacent_auc([v + coef * w ...])`` for each coefficient, equal
    bit for bit: each pair's count is taken as :func:`pairwise_auc` takes it."""
    values = []
    for ranked in _sorted_grid_rows(base, direction, coefs):
        pairs = [(lo, hi, lo.shape[1] * hi.shape[1]) for lo, hi in zip(ranked, ranked[1:])]
        values += [
            min(int(np.searchsorted(lo[g], hi[g], side="left").sum()) / n_pairs
                for lo, hi, n_pairs in pairs)
            for g in range(ranked[0].shape[0])
        ]
    return np.array(values, dtype=float)


# step-down scores the grid of each 1-D search on this objective in one pass
min_adjacent_auc.on_grid = min_adjacent_auc_on_grid


def frechet_bounds(scores) -> tuple:
    """(lower, upper) envelope for the empirical HUM at these scores.

    lower = max(0, (M-1) P_A - (M-2)), upper = P_M; the HUM always lies
    inside.  For M = 2 both collapse to the AUC.
    """
    aucs = adjacent_aucs(scores)
    m1 = len(aucs)
    lower = max(0.0, sum(aucs) - (m1 - 1))
    return lower, min(aucs)


def random_guess_baseline(m: int) -> float:
    """HUM of an uninformative score: 1/M! (all orderings equally likely)."""
    if m < 2:
        raise EmptyInput(f"need M >= 2, got {m}")
    return 1.0 / math.factorial(m)
