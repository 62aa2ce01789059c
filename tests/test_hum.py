import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shumfit import (
    ehum_bruteforce,
    ehum_fast,
    frechet_bounds,
    pairwise_auc,
    random_guess_baseline,
)
from shumfit.errors import EmptyInput, InstanceTooLarge
import shumfit.hum as hum
from shumfit.hum import ehum_on_grid, min_adjacent_auc, min_adjacent_auc_on_grid
from shumfit.optimize import BRENT_HALF_WIDTH, GRID_POINTS

from oracles import ehum_tuple_loop, mann_whitney_strict, random_scores


def test_trivial_examples():
    assert ehum_bruteforce([[0.0], [1.0]]).value == 1.0
    assert ehum_bruteforce([[0.0], [0.0], [0.0]]).value == 0.0
    assert ehum_bruteforce([[1.0], [2.0], [3.0]]).value == 1.0
    assert ehum_fast([[1, 2], [3, 4], [5, 6]]).value == 1.0
    # one tied pair out of four: only (1,2), (1,3), (2,3) count
    assert ehum_fast([[1, 2], [2, 3]]).value == 3 / 4


def test_fast_equals_bruteforce_on_randoms():
    rng = np.random.default_rng(42)
    for trial in range(300):
        scores = random_scores(rng, allow_ties=bool(trial % 2))
        fast = ehum_fast(scores)
        brute = ehum_bruteforce(scores)
        assert fast.count == brute.count
        assert fast.n_tuples == brute.n_tuples
        assert fast.value == brute.value


def test_fast_matches_independent_loop_oracle():
    rng = np.random.default_rng(7)
    for trial in range(50):
        scores = random_scores(rng, allow_ties=True)
        count, total = ehum_tuple_loop(scores)
        got = ehum_fast(scores)
        assert (got.count, got.n_tuples) == (count, total)


def test_huge_instance_guard_and_fast_path():
    scores = [np.arange(300.0), np.arange(300.0) + 0.5, np.arange(300.0) + 1.0]
    with pytest.raises(InstanceTooLarge):
        ehum_bruteforce(scores)
    v = ehum_fast(scores)
    assert v.count == v.value * v.n_tuples


def test_exact_counts_beyond_int64():
    n = 2**21  # prod over 3 categories exceeds 2**62
    base = np.arange(float(n))
    scores = [base, base + 0.5, base + 1.0]
    v = ehum_fast(scores)
    assert v.n_tuples == n**3
    assert isinstance(v.count, int) and v.count > 0


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_monotone_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    scores = random_scores(rng, allow_ties=True)
    before = ehum_fast(scores)
    after = ehum_fast([np.exp(0.5 * s) + 3.0 for s in scores])
    assert before.count == after.count


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_auc_reversal_on_tie_free(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=6)
    b = rng.normal(size=5) + 0.3
    assert pairwise_auc(a, b) + pairwise_auc(b, a) == pytest.approx(1.0)


def test_pairwise_auc_examples_and_oracle():
    assert pairwise_auc([0.0], [1.0]) == 1.0
    assert pairwise_auc([1, 2], [1, 2]) == 1 / 4
    rng = np.random.default_rng(3)
    lo, hi = rng.normal(size=9), rng.normal(size=7)
    assert pairwise_auc(lo, hi) == mann_whitney_strict(lo, hi) / 63
    with pytest.raises(EmptyInput):
        pairwise_auc([], [1.0])


def test_pairwise_auc_equals_two_category_ehum():
    rng = np.random.default_rng(11)
    lo, hi = rng.normal(size=8), rng.normal(size=6) + 0.4
    assert pairwise_auc(lo, hi) == ehum_fast([lo, hi]).value


def test_random_guess_baseline():
    assert random_guess_baseline(2) == 0.5
    assert random_guess_baseline(3) == pytest.approx(1 / 6)
    assert f"{random_guess_baseline(3):.4f}" == "0.1667"
    assert random_guess_baseline(4) == 1 / 24


def test_shuffled_common_pool_approaches_baseline():
    rng = np.random.default_rng(0)
    m = 3
    values = []
    for _ in range(300):
        pool = rng.permutation(rng.normal(size=12))
        values.append(ehum_fast([pool[:4], pool[4:8], pool[8:]]).value)
    assert np.mean(values) == pytest.approx(1 / math.factorial(m), abs=0.02)


@given(st.integers(0, 10**6))
@settings(max_examples=50)
def test_frechet_sandwich(seed):
    rng = np.random.default_rng(seed)
    scores = random_scores(rng, allow_ties=bool(seed % 3 == 0))
    lower, upper = frechet_bounds(scores)
    value = ehum_fast(scores).value
    assert lower - 1e-12 <= value <= upper + 1e-12


def test_frechet_collapses_to_auc_for_two_categories():
    rng = np.random.default_rng(21)
    scores = [rng.normal(size=7), rng.normal(size=5) + 0.5]
    lower, upper = frechet_bounds(scores)
    auc = pairwise_auc(*scores)
    assert lower == upper == auc


@given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=6), min_size=2, max_size=5))
@settings(max_examples=150, deadline=None)
def test_chain_count_equals_tuple_loop_on_integer_scores(scores):
    # small integer scores: most tuples hold a tie somewhere
    got = ehum_fast([np.array(s, dtype=float) for s in scores])
    assert (got.count, got.n_tuples) == ehum_tuple_loop(scores)


def _search_grid():
    grid = np.linspace(-BRENT_HALF_WIDTH, BRENT_HALF_WIDTH, GRID_POINTS)
    grid[GRID_POINTS // 2] = 0.0
    return grid


def _grid_case(rng, sizes):
    """Tie-heavy base and direction scores (one decimal) of the given sizes."""
    base = [np.round(rng.normal(0.4 * j, 1.0, size=n), 1) for j, n in enumerate(sizes)]
    direction = [np.round(rng.normal(size=n), 1) for n in sizes]
    return base, direction


def _pointwise(objective, base, direction, grid):
    return np.array([objective([v + c * w for v, w in zip(base, direction)])
                     for c in grid])


GRID_SIZES = [(4, 7), (5, 1, 6), (3, 8, 2, 5), (6, 4, 5, 3, 7), (30, 25, 40)]


@pytest.mark.parametrize("sizes", GRID_SIZES)
def test_grid_values_equal_the_point_loop(sizes):
    grid = _search_grid()
    for seed in range(5):
        base, direction = _grid_case(np.random.default_rng(seed), sizes)
        ehum = ehum_on_grid(base, direction, grid)
        assert ehum.tolist() == _pointwise(
            lambda s: ehum_fast(s).value, base, direction, grid).tolist()
        auc = min_adjacent_auc_on_grid(base, direction, grid)
        assert auc.tolist() == _pointwise(min_adjacent_auc, base, direction, grid).tolist()


@pytest.mark.parametrize("rows_per_block", [1, 3, 40, 100])
def test_grid_values_do_not_depend_on_the_row_blocks(monkeypatch, rows_per_block):
    sizes = (6, 4, 5, 3)
    base, direction = _grid_case(np.random.default_rng(11), sizes)
    grid = _search_grid()
    whole = (ehum_on_grid(base, direction, grid).tolist(),
             min_adjacent_auc_on_grid(base, direction, grid).tolist())
    assert GRID_POINTS * sum(sizes) <= hum._GRID_BLOCK         # one block by default
    monkeypatch.setattr(hum, "_GRID_BLOCK", rows_per_block * sum(sizes))
    blocked = (ehum_on_grid(base, direction, grid).tolist(),
               min_adjacent_auc_on_grid(base, direction, grid).tolist())
    assert blocked == whole
    assert whole[0] == _pointwise(lambda s: ehum_fast(s).value, base, direction, grid).tolist()


def test_grid_values_on_the_python_int_path():
    # prod(n_j) > 2**64; at coef 0 the categories are separated, so every
    # tuple is ordered, a count that int64 cannot hold
    sizes = (150, 155, 151, 160, 152, 154, 156, 153, 157)
    assert math.prod(sizes) > 2**64
    rng = np.random.default_rng(5)
    base = [np.round(rng.normal(50.0 * j, 1.0, size=n), 1) for j, n in enumerate(sizes)]
    direction = [np.round(rng.normal(size=n), 1) for n in sizes]
    grid = _search_grid()[::10]
    got = ehum_on_grid(base, direction, grid)
    point = _pointwise(lambda s: ehum_fast(s).value, base, direction, grid)
    assert got.tolist() == point.tolist()
    assert got[grid == 0.0].tolist() == [1.0]
    assert 0.0 < got.min() < 1.0
