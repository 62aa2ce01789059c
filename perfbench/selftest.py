"""Self-test of the benchmark's reference computations.

Every benchmark run calls :func:`run` before it measures anything; it can
also be run alone with ``python3 perfbench/selftest.py`` from the
repository root.  The reference counts are compared with hand-counted cases
and with shumfit's brute-force enumerator, the smoothed chain with a sum over
all tuples, and the orthant probability with a one-dimensional quadrature of the same
ordering probability.
"""

from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np
from scipy.special import expit, ndtr

import reference


class SelfTestFailed(AssertionError):
    pass


def _expect(ok, what):
    if not ok:
        raise SelfTestFailed(what)


def _hand_counted():
    # (scores, ordered tuples), counted by hand; ties are out of order
    cases = [
        ([[1.0], [2.0], [3.0]], 1),
        ([[3.0], [2.0], [1.0]], 0),
        ([[1.0, 2.0], [2.0, 3.0]], 3),
        ([[0.0, 2.0], [1.0], [3.0, 0.0]], 1),
        ([[1.0, 1.0], [1.0, 2.0], [2.0, 3.0]], 2),
        ([[0.0], [1.0, 1.0], [2.0], [3.0, 1.5]], 2),
    ]
    for scores, expected in cases:
        got = reference.count_ordered(scores)
        _expect(got == expected, f"count_ordered({scores}) = {got}, hand count {expected}")
    aucs = reference.adjacent_aucs([[1.0, 2.0], [2.0, 3.0], [0.0, 4.0]])
    _expect(aucs == [0.75, 0.5], f"adjacent_aucs hand case gave {aucs}")


def _against_bruteforce(ehum_bruteforce):
    rng = np.random.default_rng(12345)
    for m in (2, 3, 4):
        for _ in range(10):
            # small integer scores, so ties are common
            scores = [rng.integers(0, 6, rng.integers(1, 7)).astype(float) for _ in range(m)]
            brute = ehum_bruteforce(scores)
            got = reference.count_ordered(scores)
            _expect(got == brute.count, f"count_ordered {got} != ehum_bruteforce {brute.count}")
            n = math.prod(s.size for s in scores)
            _expect(got / n == brute.value, "ordered fraction differs from ehum_bruteforce")
            aucs = reference.adjacent_aucs(scores)
            for (lo, hi), auc in zip(zip(scores, scores[1:]), aucs):
                pairs = ehum_bruteforce([lo, hi]).value
                _expect(auc == pairs, f"adjacent AUC {auc} != two-category count {pairs}")


def _smoothed_against_tuple_sum():
    rng = np.random.default_rng(7)
    scores = [rng.normal(j, 1.0, 5 + j) for j in range(3)]
    lam = 0.3
    for kernel, g in (("sigmoid", expit), ("normal", ndtr)):
        total = 0.0
        tuples = list(itertools.product(*scores))
        for tup in tuples:
            total += math.prod(g((b - a) / lam) for a, b in zip(tup, tup[1:]))
        want = total / len(tuples)
        got = reference.smoothed_hum(scores, kernel, lam)
        _expect(abs(got - want) <= 1e-12, f"smoothed_hum {kernel}: {got} vs tuple sum {want}")
    # a narrow bandwidth tends to the exact count on tie-free scores
    narrow = reference.smoothed_hum(scores, "sigmoid", 1e-9)
    exact = reference.ordered_fraction(scores)
    _expect(abs(narrow - exact) < 1e-6, f"narrow smoothing {narrow} vs count {exact}")


def _csv_round_trip(workdir):
    rng = np.random.default_rng(3)
    rows = [(label, *map(float, rng.normal(size=2))) for label in (2, 0, 1, 0, 2, 1)]
    path = os.path.join(workdir, "selftest.csv")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("stage,a,b\n")
            for label, a, b in rows:
                fh.write(f"{label},{a!r},{b!r}\n")
        cats = reference.read_csv(path, "stage", ["a", "b"])
    finally:
        os.remove(path)
    for label, cat in enumerate(cats):
        want = np.array([r[1:] for r in rows if r[0] == label])
        _expect(np.array_equal(cat, want), f"read_csv category {label} differs")


def _population_max():
    value = reference.scenario1_population_max()
    # along beta = delta/|delta| the category scores are N(j*t, 1), t = |delta|;
    # P(S0 < S1 < S2) = integral of phi(s - t) Phi(s) (1 - Phi(s - 2t)) ds
    t = math.sqrt(float(reference.SCENARIO1_DELTA @ reference.SCENARIO1_DELTA))
    s = np.linspace(t - 12.0, t + 12.0, 200001)
    density = np.exp(-0.5 * (s - t) ** 2) / math.sqrt(2.0 * math.pi)
    quad = float(np.sum(density * ndtr(s) * ndtr(2.0 * t - s)) * (s[1] - s[0]))
    _expect(abs(value - quad) < 1e-9, f"orthant probability {value} vs quadrature {quad}")
    _expect(round(value, 4) == 0.8238, f"scenario-1 maximum {value} is not 0.8238")


def run(workdir):
    """Raise SelfTestFailed unless every reference computation checks out.

    ``workdir`` is an existing directory for a scratch CSV file.
    """
    from shumfit.hum import ehum_bruteforce

    _hand_counted()
    _against_bruteforce(ehum_bruteforce)
    _smoothed_against_tuple_sum()
    _csv_round_trip(workdir)
    _population_max()


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    scratch = os.path.join(here, "_work")
    os.makedirs(scratch, exist_ok=True)
    run(scratch)
    print("reference self-test passed")
