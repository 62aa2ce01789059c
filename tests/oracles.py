"""Independent reference implementations used only by the tests.

Deliberately written as plain loops, structurally unlike the library's
vectorized/DP paths, so agreement is evidence rather than tautology.
"""

import itertools
import math

import numpy as np
from scipy.stats import multivariate_normal


def ehum_tuple_loop(scores):
    """Count correctly ordered tuples by direct enumeration (plain loops)."""
    count = 0
    total = 0
    for tup in itertools.product(*[list(map(float, s)) for s in scores]):
        total += 1
        if all(tup[i + 1] > tup[i] for i in range(len(tup) - 1)):
            count += 1
    return count, total


def mann_whitney_strict(lo, hi):
    """Strict-inequality Mann-Whitney count via a double loop."""
    count = 0
    for b in hi:
        for a in lo:
            if b > a:
                count += 1
    return count


def shum_tuple_loop(scores, g):
    """Naive smoothed HUM: product of g over adjacent differences, all tuples."""
    total = 0.0
    n_tuples = 0
    for tup in itertools.product(*[list(map(float, s)) for s in scores]):
        n_tuples += 1
        prod = 1.0
        for a, b in zip(tup, tup[1:]):
            prod *= g(b - a)
        total += prod
    return total / n_tuples


def dense_shum(scores, kernel, lam):
    """Smoothed HUM by the dense chain: one full (n_{j+1} x n_j) kernel
    matrix per adjacent level, multiplied into a running vector."""
    from shumfit import kernel_eval

    v = np.ones(len(scores[0]))
    for j in range(1, len(scores)):
        a = kernel_eval(kernel, scores[j][:, None] - scores[j - 1][None, :], lam)
        v = a @ v
    return float(v.sum()) / math.prod(len(s) for s in scores)


def dense_shum_gradient(categories, beta, kernel, lam):
    """Gradient of the dense-chain smoothed HUM w.r.t. beta, from full kernel
    and derivative matrices with prefix and suffix matrix-vector products."""
    from shumfit import kernel_deriv, kernel_eval

    scores = [x @ beta for x in categories]
    m = len(scores)
    mats = []
    derivs = []
    for j in range(m - 1):
        diff = scores[j + 1][:, None] - scores[j][None, :]
        mats.append(kernel_eval(kernel, diff, lam))
        derivs.append(kernel_deriv(kernel, diff, lam))
    prefixes = [np.ones(len(scores[0]))]
    for j in range(m - 2):
        prefixes.append(mats[j] @ prefixes[-1])
    suffixes = [None] * (m - 1)
    w = np.ones(len(scores[m - 1]))
    for j in range(m - 2, -1, -1):
        suffixes[j] = w
        if j > 0:
            w = mats[j].T @ w
    grad = np.zeros(len(beta))
    for j in range(m - 1):
        upper = suffixes[j] * (derivs[j] @ prefixes[j])
        lower = (derivs[j].T @ suffixes[j]) * prefixes[j]
        grad += upper @ categories[j + 1] - lower @ categories[j]
    return grad / math.prod(len(s) for s in scores)


def dot_scores(matrix, beta):
    """Element-by-element dot products, no matmul."""
    out = []
    for row in matrix:
        acc = 0.0
        for x, b in zip(row, beta):
            acc += float(x) * float(b)
        out.append(acc)
    return out


def pair_rule_fraction(scores, lam):
    """Exhaustive double loop for the bandwidth rule-of-thumb check."""
    hits = 0
    total = 0
    for j in range(len(scores) - 1):
        for a in scores[j + 1]:
            for b in scores[j]:
                total += 1
                if abs(a - b) / lam > 5.0:
                    hits += 1
    return hits / total


def gaussian_hum_exact(means, cov, beta):
    """Exact P(correct ordering) of beta'X when category j draws N(means[j], cov).

    The adjacent score differences D_j = S_{j+1} - S_j are jointly normal
    with mean beta'(means[j+1] - means[j]) and tridiagonal covariance
    v * (2 on the diagonal, -1 off it), v = beta' cov beta.  HUM is the
    orthant probability P(D > 0) = P(-D <= 0), one (M-1)-dimensional
    normal CDF (scipy's deterministic-seeded QMC, absolute error ~1e-5).
    """
    beta = np.asarray(beta, dtype=float)
    cov = np.asarray(cov, dtype=float)
    mu = [float(np.dot(beta, np.asarray(m, dtype=float))) for m in means]
    v = float(beta @ cov @ beta)
    k = len(mu) - 1
    diff_cov = np.zeros((k, k))
    for j in range(k):
        diff_cov[j, j] = 2.0 * v
        if j + 1 < k:
            diff_cov[j, j + 1] = diff_cov[j + 1, j] = -v
    neg_mean = [mu[j] - mu[j + 1] for j in range(k)]
    return float(multivariate_normal.cdf(np.zeros(k), mean=neg_mean,
                                         cov=diff_cov,
                                         rng=np.random.default_rng(0)))


def weibull_hum_mc(shapes, scales, beta, n, seed):
    """Monte Carlo P(correct ordering) of beta'X for the Weibull design.

    Marker k in category j is Weibull(shapes[k], scales[j]).  Draws come from
    numpy's own ``Generator.weibull`` (a power of ziggurat exponentials), not
    from inverse-CDF uniforms, and are taken in chunks to bound memory.
    Returns (value, standard error).
    """
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < n:
        size = min(10**6, n - done)
        ordered = np.ones(size, dtype=bool)
        prev = None
        for scale in scales:
            score = np.zeros(size)
            for shape, b in zip(shapes, beta):
                score += float(b) * float(scale) * rng.weibull(float(shape), size)
            if prev is not None:
                ordered &= score > prev
            prev = score
        hits += int(ordered.sum())
        done += size
    p = hits / n
    return p, math.sqrt(p * (1.0 - p) / n)


def central_difference(f, theta, step=1e-6):
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2 * step)
    return grad


def random_scores(rng, m=None, max_n=8, allow_ties=False):
    """Small random score vectors, optionally snapped to a coarse tie grid."""
    m = m or rng.integers(2, 5)
    out = []
    for j in range(m):
        n = int(rng.integers(1, max_n + 1))
        s = rng.normal(loc=0.5 * j, size=n)
        if allow_ties:
            s = np.round(s, 1)
        out.append(s)
    return out


def make_dataset(rng, m=3, sizes=(6, 5, 7), d=3, spread=1.0):
    from shumfit import MarkerDataset

    categories = tuple(
        rng.normal(loc=spread * j, size=(sizes[j % len(sizes)], d))
        for j in range(m)
    )
    return MarkerDataset(
        categories=categories,
        marker_names=tuple(f"m{k + 1}" for k in range(d)),
        category_labels=tuple(range(m)),
    )
