"""Reference computations for the benchmark's output checks.

Nothing here calls into shumfit.  Tuple counts and AUCs come from pairwise
comparisons of adjacent-category scores, the smoothed HUM from a dense kernel
chain of its own, the CSV from the ``csv`` module, and the scenario-1
population maximum from a normal orthant probability.  Dense levels are
processed in row blocks, so a check at n=1000 stays far below the memory the
program itself uses and does not show up in ``peak_rss_mb``.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import expit, ndtr, owens_t

BLOCK = 128
SCENARIO1_DELTA = np.array([1.0, 1.1, 1.2])


def _blocks(n):
    return [slice(a, min(a + BLOCK, n)) for a in range(0, n, BLOCK)]


def count_ordered(scores) -> int:
    """Number of tuples, one score per category, in strictly increasing order.

    Level by level, each score of category j+1 is compared with every score
    of category j; ties count as out of order.
    """
    scores = [np.asarray(s, dtype=float) for s in scores]
    if math.prod(s.size for s in scores) >= 2**62:
        raise OverflowError("tuple count does not fit in int64")
    c = np.ones(scores[0].size, dtype=np.int64)
    for prev, cur in zip(scores, scores[1:]):
        nxt = np.empty(cur.size, dtype=np.int64)
        for rows in _blocks(cur.size):
            below = (prev[None, :] < cur[rows, None]).astype(np.int64)
            nxt[rows] = below @ c
        c = nxt
    return int(c.sum())


def ordered_fraction(scores) -> float:
    """count_ordered as a fraction of all tuples."""
    return count_ordered(scores) / math.prod(len(s) for s in scores)


def adjacent_aucs(scores) -> list:
    """Strict AUC of each adjacent category pair, by pairwise comparison."""
    out = []
    for lo, hi in zip(scores, scores[1:]):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        count = int((lo[None, :] < hi[:, None]).sum())
        out.append(count / (lo.size * hi.size))
    return out


def smoothed_hum(scores, kernel: str, lam: float) -> float:
    """Smoothed HUM: mean over tuples of the product of g((s_{j+1}-s_j)/lam).

    ``kernel`` is "sigmoid" (g = expit) or "normal" (g = ndtr).
    """
    g = {"sigmoid": expit, "normal": ndtr}[kernel]
    scores = [np.asarray(s, dtype=float) for s in scores]
    v = np.ones(scores[0].size)
    for prev, cur in zip(scores, scores[1:]):
        nxt = np.empty(cur.size)
        for rows in _blocks(cur.size):
            nxt[rows] = g((cur[rows, None] - prev[None, :]) / lam) @ v
        v = nxt
    return float(v.sum()) / math.prod(s.size for s in scores)


def linear_scores(categories, beta) -> list:
    """Per-category combined scores x'beta."""
    beta = np.asarray(beta, dtype=float)
    return [np.asarray(x) @ beta for x in categories]


def minmax_scores(categories, coef: float) -> list:
    """Per-category scores max(x) + coef * min(x), the min-max combination."""
    return [x.max(axis=1) + coef * x.min(axis=1) for x in categories]


def read_csv(path, outcome: str, markers) -> list:
    """Marker matrices grouped by outcome label, labels in ascending order."""
    groups = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            label = float(row[outcome])
            groups.setdefault(label, []).append([float(row[m]) for m in markers])
    return [np.array(groups[label]) for label in sorted(groups)]


def scenario1_population_max() -> float:
    """Largest population HUM any beta reaches in scenario 1 (0.8238).

    With X_j ~ N(j*delta, I), the adjacent score differences are normal with
    correlation -1/2, so HUM = P(D1 > 0, D2 > 0) = Phi2(h, h; -1/2) with
    h = t/sqrt(2) and t = beta'delta / sqrt(beta'beta), largest at
    t = sqrt(delta' delta).  For equal limits,
    Phi2(h, h; rho) = Phi(h) - 2 T(h, sqrt((1-rho)/(1+rho))) (Owen's T).
    """
    t = math.sqrt(float(SCENARIO1_DELTA @ SCENARIO1_DELTA))
    h = t / math.sqrt(2.0)
    return float(ndtr(h) - 2.0 * owens_t(h, math.sqrt(3.0)))
