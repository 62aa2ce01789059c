"""Exact empirical HUM evaluation.

The hypervolume under the ROC manifold for M ordered categories is the
probability that one random subject per category is scored in strictly
increasing severity order.  Its empirical plug-in is an M-sample U-statistic
with an indicator kernel; this module evaluates it exactly, either by
brute-force enumeration (verification oracle, guarded) or by a sorted
chain-counting dynamic program in O(sum n_j log n_j).

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


def ehum_fast(scores) -> HumValue:
    """Sorted chain-counting evaluation, identical value to the brute force.

    Sort each category ascending; c_1(x) = 1; c_j(x) = sum of c_{j-1}(y) over
    previous-category scores y < x, computed with prefix sums and a
    searchsorted sweep.  Counts are exact integers (int64, falling back to
    Python ints when prod(n_j) could overflow).
    """
    scores = _as_score_list(scores)
    n_tuples = math.prod(s.size for s in scores)
    dtype = object if n_tuples >= _INT64_SAFE else np.int64

    prev_sorted = np.sort(scores[0])
    if dtype is object:
        c = np.array([1] * prev_sorted.size, dtype=object)
    else:
        c = np.ones(prev_sorted.size, dtype=np.int64)
    for j in range(1, len(scores)):
        s = np.sort(scores[j])
        cum = np.empty(c.size + 1, dtype=dtype)
        cum[0] = 0
        cum[1:] = np.cumsum(c)
        # side="left": number of previous scores strictly below s
        idx = np.searchsorted(prev_sorted, s, side="left")
        c = cum[idx]
        prev_sorted = s
    count = int(c.sum())
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
