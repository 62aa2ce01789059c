import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shumfit import (
    FitConfig,
    Kernel,
    SmoothingSpec,
    bfgs_maximize,
    brent_maximize_1d,
    ehum_fast,
    nelder_mead_maximize,
    step_down,
)
from shumfit.errors import NonFiniteObjective
import shumfit.optimize as optimize
from shumfit.optimize import BRENT_HALF_WIDTH, GRID_POINTS, _bounded_brent

from oracles import make_dataset


def quad_f(theta):
    # concave paraboloid peaking at (3, -1) with value 7
    delta = np.asarray(theta, dtype=float) - np.array([3.0, -1.0])
    return 7.0 - float(delta @ delta)


def quad_grad(theta):
    return -2.0 * (np.asarray(theta, dtype=float) - np.array([3.0, -1.0]))


def test_bfgs_finds_quadratic_peak():
    res = bfgs_maximize(quad_f, quad_grad, np.zeros(2))
    np.testing.assert_allclose(res.argmax, [3.0, -1.0], atol=1e-8)
    assert res.value == pytest.approx(7.0, abs=1e-12)
    assert res.converged
    assert res.gradient_norm < 1e-6


def test_bfgs_on_rosenbrock_style_valley():
    def f(theta):
        x, y = theta
        return -((1 - x) ** 2 + 5.0 * (y - x**2) ** 2)

    def grad(theta):
        x, y = theta
        return np.array([2 * (1 - x) + 20.0 * (y - x**2) * x, -10.0 * (y - x**2)])

    res = bfgs_maximize(f, grad, np.array([-1.2, 1.0]))
    np.testing.assert_allclose(res.argmax, [1.0, 1.0], atol=1e-5)


def test_bfgs_iterates_never_decrease():
    seen = []

    def recording(theta):
        f = quad_f(theta)
        seen.append(f)
        return f

    bfgs_maximize(recording, quad_grad, np.array([10.0, 10.0]))
    accepted = [seen[0]]
    for v in seen:
        if v > accepted[-1]:
            accepted.append(v)
    # backtracking guarantees accepted sequence is the running maximum
    assert accepted == sorted(accepted)


def test_bfgs_rejects_nonfinite_start():
    def bad(theta):
        return float("nan")

    with pytest.raises(NonFiniteObjective):
        bfgs_maximize(bad, lambda t: np.zeros(1), np.zeros(1))


def test_bfgs_empty_theta_returns_immediately():
    res = bfgs_maximize(lambda t: 4.5, lambda t: np.zeros(0), np.zeros(0))
    assert res.value == 4.5
    assert res.argmax.size == 0


def test_nelder_mead_on_nonsmooth_objective():
    res = nelder_mead_maximize(lambda t: -abs(t[0] - 2.0), np.array([0.0]))
    assert res.argmax[0] == pytest.approx(2.0, abs=1e-4)
    assert res.converged


def test_nelder_mead_two_dim():
    res = nelder_mead_maximize(
        lambda t: -abs(t[0] - 1.0) - (t[1] + 2.0) ** 2, np.array([4.0, 4.0])
    )
    np.testing.assert_allclose(res.argmax, [1.0, -2.0], atol=1e-3)


def test_nelder_mead_constant_objective_stops():
    res = nelder_mead_maximize(lambda t: 1.25, np.array([0.3, -0.7]))
    assert res.value == 1.25
    assert res.iterations < 200


def test_nelder_mead_maps_nonfinite_to_reject():
    def holed(t):
        if t[0] > 1.0:
            return float("nan")
        return -(t[0] ** 2)

    res = nelder_mead_maximize(holed, np.array([0.9]))
    assert res.argmax[0] == pytest.approx(0.0, abs=1e-3)


def test_nelder_mead_improves_step_ehum():
    rng = np.random.default_rng(17)
    data = make_dataset(rng, m=3, sizes=(15, 15, 15), d=2, spread=1.0)

    def obj(theta):
        beta = np.array([1.0, theta[0]])
        return ehum_fast([x @ beta for x in data.categories]).value

    start = np.array([0.0])
    res = nelder_mead_maximize(obj, start)
    assert res.value >= obj(start)


def test_brent_quadratic():
    res = brent_maximize_1d(lambda x: -(x - 1.7) ** 2 + 2.0)
    assert res.argmax[0] == pytest.approx(1.7, abs=1e-6)
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_brent_escapes_local_mode():
    # two bumps; the taller one sits at 5, a greedy local search from 0 would
    # stall on the bump at -3
    def f(x):
        return 1.1 * np.exp(-((x - 5.0) ** 2)) + np.exp(-((x + 3.0) ** 2))

    res = brent_maximize_1d(f)
    assert res.argmax[0] == pytest.approx(5.0, abs=1e-4)


def test_brent_grid_includes_exact_zero():
    calls = []

    def f(x):
        calls.append(x)
        return -(x**2)

    brent_maximize_1d(f)
    assert 0.0 in calls


def test_brent_constant_objective():
    res = brent_maximize_1d(lambda x: 3.0)
    assert res.value == 3.0


def test_brent_all_nonfinite_rejected():
    with pytest.raises(NonFiniteObjective):
        brent_maximize_1d(lambda x: float("inf"))


def test_brent_partial_nonfinite_ok():
    res = brent_maximize_1d(lambda x: -((x - 2) ** 2) if x > -5 else float("nan"))
    assert res.argmax[0] == pytest.approx(2.0, abs=1e-6)


def _grid_bracket(i):
    # the bracket brent_maximize_1d refines around grid point i
    grid = np.linspace(-BRENT_HALF_WIDTH, BRENT_HALF_WIDTH, GRID_POINTS)
    grid[GRID_POINTS // 2] = 0.0
    return grid[max(i - 1, 0)], grid[min(i + 1, GRID_POINTS - 1)]


def _tied_ehum_slice(rng):
    # integer markers, so the combined scores tie at many coefficients
    v = [rng.integers(0, 4, size=12) + j for j in range(3)]
    c = [rng.integers(0, 4, size=12) for _ in range(3)]
    return lambda x: ehum_fast([a + x * b for a, b in zip(v, c)]).value


def _multimodal(rng):
    k, phase, amp = rng.uniform(0.5, 8.0, 3), rng.uniform(0.0, 6.0, 3), rng.uniform(0.1, 1.0, 3)
    return lambda x: float(np.sum(amp * np.sin(k * x + phase)) - 0.01 * x * x)


def _step(rng):
    cuts, levels = np.sort(rng.uniform(-10.0, 10.0, 7)), rng.integers(0, 4, 8) / 3.0
    return lambda x: float(levels[np.searchsorted(cuts, x)])


def _nan_beyond(rng):
    cut, peak = rng.uniform(-10.0, 10.0, 2)
    return lambda x: float("nan") if x > cut else -((x - peak) ** 2)


def _same(a, b):
    return a == b or (a != a and b != b)       # NaN matches NaN


@pytest.mark.parametrize("make", [_tied_ehum_slice, _multimodal, _step, _nan_beyond])
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("where", ["interior", "low edge", "high edge"])
def test_bounded_brent_equals_scipy_fminbound(make, seed, where):
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(seed)
    g = make(rng)
    i = {"interior": int(rng.integers(1, GRID_POINTS - 1)), "low edge": 0,
         "high edge": GRID_POINTS - 1}[where]
    lo, hi = _grid_bracket(i)
    ref = minimize_scalar(lambda x: -g(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-8, "maxiter": 500})
    x, fx, nfev, ok = _bounded_brent(lambda x: -g(x), lo, hi)
    assert _same(x, ref.x) and _same(fx, ref.fun)
    assert (nfev, ok) == (ref.nfev, ref.success)


@pytest.mark.parametrize("cap", [2, 5, 9])
def test_bounded_brent_stops_at_the_evaluation_cap(monkeypatch, cap):
    # brackets of the grid's width stop far below 500 evaluations, so a
    # lowered cap exercises the stop
    from scipy.optimize import minimize_scalar

    monkeypatch.setattr(optimize, "_BRENT_MAXFUN", cap)
    g = _multimodal(np.random.default_rng(3))
    ref = minimize_scalar(lambda x: -g(x), bounds=(-1.0, 4.0), method="bounded",
                          options={"xatol": 1e-8, "maxiter": cap})
    result = _bounded_brent(lambda x: -g(x), -1.0, 4.0)
    assert result == (ref.x, ref.fun, ref.nfev, ref.success)
    assert (ref.nfev, ref.success) == (cap, False)


def test_brent_iterations_count_grid_and_refinement_calls():
    calls = []

    def f(x):
        calls.append(x)
        return -((x - 1.3) ** 2)

    assert brent_maximize_1d(f).iterations == len(calls)


def _ehum_objective(scores):
    return ehum_fast(scores).value


def test_step_down_single_marker():
    rng = np.random.default_rng(1)
    data = make_dataset(rng, m=3, sizes=(8, 8, 8), d=1, spread=1.2)
    res = step_down(_ehum_objective, data)
    assert res.beta.tolist() == [1.0]
    assert res.anchor_index == 0
    assert res.ordering == (0,)
    assert len(res.stage_values) == 1


def test_step_down_anchors_strongest_marker():
    rng = np.random.default_rng(2)
    x0 = rng.normal(0.0, 1.0, size=(20, 2))
    x1 = rng.normal(0.0, 1.0, size=(20, 2))
    x2 = rng.normal(0.0, 1.0, size=(20, 2))
    # second column carries the signal, first column is noise
    for i, x in enumerate((x0, x1, x2)):
        x[:, 1] += 3.0 * i
    from shumfit import MarkerDataset

    data = MarkerDataset((x0, x1, x2), ("noise", "signal"), ("0", "1", "2"))
    res = step_down(_ehum_objective, data)
    assert res.anchor_index == 1
    assert res.beta[1] == 1.0
    assert abs(res.beta[0]) < 1.0  # noise gets the small coefficient


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_step_down_stage_values_never_decrease(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    data = make_dataset(rng, m=3, sizes=(7, 6, 8), d=d, spread=0.8)
    res = step_down(_ehum_objective, data)
    values = list(res.stage_values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert len(values) == d
    assert sorted(res.ordering) == list(range(d))


def test_step_down_is_deterministic():
    rng = np.random.default_rng(33)
    data = make_dataset(rng, m=3, sizes=(10, 10, 10), d=3, spread=1.0)
    a = step_down(_ehum_objective, data)
    b = step_down(_ehum_objective, data)
    assert a.beta.tolist() == b.beta.tolist()
    assert a.stage_values == b.stage_values


def test_config_is_frozen():
    cfg = FitConfig()
    with pytest.raises(Exception):
        cfg.lam = 0.5


def test_smooth_objective_through_step_down():
    rng = np.random.default_rng(6)
    data = make_dataset(rng, m=3, sizes=(12, 12, 12), d=2, spread=1.5)
    spec = SmoothingSpec(Kernel.SIGMOID, 0.2)
    from shumfit.smooth import shum_from_scores

    res = step_down(lambda s: shum_from_scores(s, spec), data)
    assert 0.0 < res.stage_values[-1] <= 1.0
