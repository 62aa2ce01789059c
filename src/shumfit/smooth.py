"""Smoothed HUM objective and its analytic gradient.

The empirical HUM's indicator kernel is replaced by a scaled sigmoid or
standard-normal CDF with bandwidth ``lam``; the smoothed objective factorizes
over adjacent category pairs, so a chain of kernel-matrix products
evaluates it without enumerating tuples.  The gradient reuses the same chain
via prefix/suffix partial products, and its pass returns the value as well:
an optimizer that needs both at a point runs the chain once.  For the
sigmoid that pass takes the derivative from the kernel values it already
holds, k(1 - k)/lam, in place of two more expit passes.

The chain never forms a kernel matrix.  Each call sorts every category's
scores, so at each level the pairs (prev, cur) fall into three runs per cur
score:

- cur - prev > T*lam: the kernel rounds to 1 and is clamped to exactly
  ``_HIGH``; a prefix sum over the sorted vector counts these pairs;
- cur - prev < -T*lam: the kernel is below 1e-16 and the pair is dropped;
- the band in between, the only pairs passed to ``kernel_eval`` and
  ``kernel_deriv``, listed flat row by row, in row blocks of at most about
  ``_BLOCK`` pairs.  A row's pairs are contiguous, so row sums are taken
  with ``np.add.reduceat``; column sums with ``np.bincount``.  The band's
  column indices, differences and one spare product array live in one
  workspace per call (``_workspace``), so repeated calls reuse their memory
  instead of page-faulting it in anew.

T (``SATURATION``) is fixed by float rounding, not chosen: expit(36.8)
already rounds to 1 and expit(-37) = 8.5e-17, ndtr(8.3) rounds to 1 and
ndtr(-8.5) = 9.5e-18.  A dropped pair removes less than 1e-16 from each
tuple product it enters, so the value moves by under 1e-16 in absolute
terms.  Cost is O(sum n_j log n_j + band) time and O(n + _BLOCK) memory.
The band holds the pairs within T*lam of each other: a small fraction of
all pairs at the default lam = 1/sqrt(n), but every pair once lam is wide
against the spread of the scores, where the time is quadratic again.

Note the bandwidth chain rule: d/dx g(x/lam) carries a 1/lam factor, and the
derivative kernels here include it.  Correctness is pinned by the
finite-difference agreement tests and by a dense-matrix chain in the tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit, ndtr

from .data import MarkerDataset, extract_theta, project_scores
from .errors import NonPositiveLambda

_LOW = np.finfo(float).tiny
_HIGH = float(np.nextafter(1.0, 0.0))
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class Kernel(enum.Enum):
    SIGMOID = "sigmoid"
    NORMAL = "normal"


# |x/lam| beyond which the clamped kernel is exactly _HIGH (x > 0) or below
# 1e-16 (x < 0); see the module docstring
SATURATION = {Kernel.SIGMOID: 37.0, Kernel.NORMAL: 8.5}

# band pairs per kernel call: bounds the chain's working memory, about 50
# bytes a pair, at any bandwidth; n=1000 fits at the default lam stay within
# one block per level (their widest band was 310k pairs)
_BLOCK = 1 << 19


def _check_lambda(lam):
    if not lam > 0:
        raise NonPositiveLambda(f"lambda must be > 0, got {lam}")


@dataclass(frozen=True)
class SmoothingSpec:
    kernel: Kernel
    lam: float

    def __post_init__(self):
        _check_lambda(self.lam)


def kernel_eval(kind: Kernel, x, lam: float):
    """Smoothed indicator g(x/lam), clamped into the open interval (0,1).

    The sigmoid uses the overflow-safe exp(-|x|) branch form (scipy's expit);
    the normal CDF uses erf-based tails.  Clamping at float granularity keeps
    chain-matrix entries strictly inside (0,1) even under exponent underflow.
    """
    _check_lambda(lam)
    t = np.asarray(np.divide(x, lam, dtype=float))   # 0-d for a scalar; the rest is in place
    if kind is Kernel.SIGMOID:
        expit(t, out=t)
    else:
        ndtr(t, out=t)
    np.clip(t, _LOW, _HIGH, out=t)
    return float(t) if np.isscalar(x) else t


def kernel_deriv(kind: Kernel, x, lam: float):
    """d/dx of kernel_eval, including the 1/lam bandwidth factor."""
    _check_lambda(lam)
    t = np.asarray(np.divide(x, lam, dtype=float))
    if kind is Kernel.SIGMOID:
        up = expit(t)
        np.negative(t, out=t)
        expit(t, out=t)
        t *= up
        t /= lam
    else:
        np.square(t, out=t)
        t *= -0.5
        np.exp(t, out=t)
        t /= _SQRT_2PI * lam
    return float(t) if np.isscalar(x) else t


def default_lambda(n_total: int) -> float:
    """Rule-of-thumb bandwidth 1/sqrt(total sample size)."""
    if n_total < 1:
        raise NonPositiveLambda(f"need n_total >= 1, got {n_total}")
    return 1.0 / math.sqrt(n_total)


def lambda_rule_check(data: MarkerDataset, beta, lam: float) -> float:
    """Fraction of adjacent-category cross pairs with |beta'(x-y)|/lam > 5.

    The smoothed objective tracks the empirical one well when this fraction
    is near 1; callers warn below 0.9.  The pairs within 5*lam are the
    chain's bands at that reach (``_bands``).
    """
    _check_lambda(lam)
    scores = [np.sort(s) for s in project_scores(data, beta)]
    total = sum(prev.size * cur.size for prev, cur in zip(scores, scores[1:]))
    near = sum(int(band.starts[-1]) for band in _bands(scores, 5.0 * lam))
    return (total - near) / total


# ---------------------------------------------------------------------------
# chain evaluation
# ---------------------------------------------------------------------------

class _Band(NamedTuple):
    """The pairs of one level, split by a reach over sorted score vectors.

    ``prev[:high[r]]`` lies more than the reach below ``cur[r]``, where at
    the chain's reach T*lam the kernel is exactly ``_HIGH``;
    ``prev[high[r]:high[r] + width[r]]`` is the band of row r; the pairs
    above it are dropped.  ``bounds`` cuts the rows into blocks of at most
    ``_BLOCK`` pairs plus one row, at least one block.
    """

    high: np.ndarray
    width: np.ndarray
    starts: np.ndarray          # flat position of row r's first pair; starts[-1] = all pairs
    shift: np.ndarray           # high - starts[:-1]: a pair's col minus its flat position
    bounds: list

    def size(self, a: int, b: int) -> int:
        """Pairs in the block of rows a .. b-1."""
        return int(self.starts[b] - self.starts[a])

    def blocks(self):
        return zip(self.bounds, self.bounds[1:])

    def add_row_sums(self, a: int, b: int, x, out):
        """``out[r] +=`` the sum of ``x`` over row r's pairs, for rows a .. b-1.

        ``x`` holds the block's pairs in flat order.  Empty rows are skipped:
        ``reduceat`` would give them the next pair's value.
        """
        rows = a + np.flatnonzero(self.width[a:b])
        if rows.size:
            out[rows] += np.add.reduceat(x, self.starts[rows] - self.starts[a])


def _bands(ordered, reach: float):
    """The ``_Band`` of each level: the pairs within ``reach`` of each other."""
    bands = []
    for prev, cur in zip(ordered, ordered[1:]):
        high = np.searchsorted(prev, cur - reach, side="left")
        width = np.searchsorted(prev, cur + reach, side="right") - high
        starts = np.concatenate(([0], np.cumsum(width)))
        cuts = []
        if starts[-1] > _BLOCK:
            cuts = np.searchsorted(starts[1:], np.arange(_BLOCK, starts[-1], _BLOCK), side="right")
            cuts = np.unique(cuts[cuts > 0]).tolist()
        bands.append(_Band(high, width, starts, high - starts[:-1], [0, *cuts, width.size]))
    return bands


def _workspace(bands):
    """Room for the three per-pair arrays of the largest block of any level.

    One allocation per chain call, shared by every block of every level.
    Given a dozen band-sized temporaries per block instead, malloc hands
    their memory back to the system at the end of each call and the next
    call page-faults it in again: at n=1000, 2,200 faults and two fifths of
    the time of a value call.  With the band's arrays in one allocation
    larger than any kernel array alive beside it, malloc keeps the memory
    from call to call.
    """
    size = max(band.size(a, b) for band in bands for a, b in band.blocks())
    return np.empty((3, size))


def _pairs(prev, cur, band: _Band, a: int, b: int, work):
    """The band pairs of rows a .. b-1 as views into ``work``.

    Returns ``(cols, diff, spare)``: the column index of each pair in flat
    order, ``diff = cur[row] - prev[col]``, and a float array of the same
    length for the caller's products.
    """
    m = band.size(a, b)
    width = band.width[a:b]
    cols = work[0, :m].view(np.intp)                     # float64 and intp are both 8 bytes
    diff, spare = work[1, :m], work[2, :m]
    # Each temporary is copied into the workspace and dropped at once, so
    # few band-sized arrays are alive beside it.
    np.add(np.repeat(band.shift[a:b], width), np.arange(band.starts[a], band.starts[b]), out=cols)
    np.subtract(np.repeat(cur[a:b], width), prev[cols], out=diff)
    return cols, diff, spare


def _chain_up(v, prev, cur, band: _Band, work, spec: SmoothingSpec):
    """A @ v for one level: saturated pairs by prefix sum, the band by row sums."""
    below = np.concatenate(([0.0], np.cumsum(v)))        # below[i] = v[:i].sum()
    out = _HIGH * below[band.high]
    for a, b in band.blocks():
        cols, diff, spare = _pairs(prev, cur, band, a, b, work)
        k = kernel_eval(spec.kernel, diff, spec.lam)
        k *= np.take(v, cols, out=spare, mode="clip")
        band.add_row_sums(a, b, k, out)
    return out


def shum_from_scores(scores, spec: SmoothingSpec) -> float:
    """Smoothed HUM of fixed score vectors via the banded sorted chain."""
    ordered = [np.sort(s) for s in scores]
    bands = _bands(ordered, SATURATION[spec.kernel] * spec.lam)
    work = _workspace(bands)
    v = np.ones(ordered[0].size)
    for prev, cur, band in zip(ordered, ordered[1:], bands):
        v = _chain_up(v, prev, cur, band, work, spec)
    n_tuples = math.prod(len(s) for s in scores)
    return float(v.sum()) / n_tuples


def shum_value(data: MarkerDataset, beta, spec: SmoothingSpec) -> float:
    """Smoothed HUM of the linear combination beta over the dataset."""
    return shum_from_scores(project_scores(data, beta), spec)


def shum_gradient_full(data: MarkerDataset, beta, spec: SmoothingSpec):
    """``(value, gradient)``: shum_value and its gradient w.r.t. all d
    coefficients, from one pass of the banded chain.

    For each adjacent level l with kernel matrix A_l and derivative matrix
    G_l, prefix vectors u (chain below) and suffix vectors w (chain above)
    give the contribution (w * (G_l u))' X_{l+1}  -  ((G_l' w) * u)' X_l.
    All of it runs in sorted order over the band of ``_Band``; G_l is taken
    as zero outside the band.  Column i of A_l is saturated at rows
    r >= searchsorted(high, i, "right"), the pairs the row edges saturate.
    The suffix pass evaluates each level's kernels block by block, so no
    level's band is held whole.  At the top level it also takes A u with
    the operations of ``_chain_up`` and sums it as ``shum_from_scores``
    does, so the value equals ``shum_value``'s bit for bit.  The sigmoid's
    G_l is k (1 - k) / lam of the block's kernel values k; the normal
    kernel's comes from ``kernel_deriv``.
    """
    scores = project_scores(data, beta)
    m = len(scores)
    order = [np.argsort(s, kind="stable") for s in scores]
    ordered = [s[o] for s, o in zip(scores, order)]
    bands = _bands(ordered, SATURATION[spec.kernel] * spec.lam)
    work = _workspace(bands)
    prefixes = [np.ones(ordered[0].size)]
    for j in range(m - 2):
        prefixes.append(_chain_up(prefixes[-1], ordered[j], ordered[j + 1], bands[j], work, spec))

    sigmoid = spec.kernel is Kernel.SIGMOID
    grad = np.zeros(data.n_markers)
    w = np.ones(ordered[m - 1].size)
    for j in range(m - 2, -1, -1):
        prev, cur, u, band = ordered[j], ordered[j + 1], prefixes[j], bands[j]
        top = j == m - 2                    # w is all ones: the chain's last level
        need_k = top or j > 0 or sigmoid
        g_u = np.zeros(cur.size)
        gt_w = np.zeros(prev.size)
        if top:
            below = np.concatenate(([0.0], np.cumsum(u)))
            chain = _HIGH * below[band.high]
        if j > 0:
            saturated_from = np.searchsorted(band.high, np.arange(prev.size), side="right")
            above = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))  # w[r:].sum()
            w_next = _HIGH * above[saturated_from]
        for a, b in band.blocks():
            cols, diff, spare = _pairs(prev, cur, band, a, b, work)
            if need_k:
                k = kernel_eval(spec.kernel, diff, spec.lam)
            if sigmoid:                                           # k (1 - k) / lam
                g = np.subtract(1.0, k)
                g *= k
                g /= spec.lam
            else:
                g = kernel_deriv(spec.kernel, diff, spec.lam)
            w_rows = diff                                         # diff is no longer needed
            w_rows[:] = np.repeat(w[a:b], band.width[a:b])
            u_cols = np.take(u, cols, out=spare, mode="clip")
            if j > 0:
                k *= w_rows
                w_next += np.bincount(cols, k, prev.size)
            if top:                                               # k * 1 is still A's entries
                k *= u_cols
                band.add_row_sums(a, b, k, chain)
            if need_k:
                del k
            u_cols *= g
            band.add_row_sums(a, b, u_cols, g_u)
            g *= w_rows
            gt_w += np.bincount(cols, g, prev.size)
            del g       # before the next block's kernels: see _workspace
        grad += ((w * g_u) @ data.categories[j + 1][order[j + 1]]
                 - (gt_w * u) @ data.categories[j][order[j]])
        if j > 0:
            w = w_next
    n_tuples = math.prod(len(s) for s in scores)
    return float(chain.sum()) / n_tuples, grad / n_tuples


def shum_gradient(data: MarkerDataset, beta, spec: SmoothingSpec, anchor_index: int):
    """``(value, gradient)`` as :func:`shum_gradient_full`, the gradient
    w.r.t. the free coefficients (anchored coordinate removed)."""
    value, grad = shum_gradient_full(data, beta, spec)
    return value, extract_theta(grad, anchor_index)
