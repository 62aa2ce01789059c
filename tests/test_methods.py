import dataclasses
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shumfit.methods as methods
import shumfit.smooth as smooth
from shumfit import cli
from shumfit import (
    FitConfig,
    MarkerDataset,
    METHOD_NAMES,
    bootstrap_se,
    ehum_fast,
    fit_empirical,
    fit_frechet,
    fit_method,
    fit_minmax,
    fit_naive,
    fit_nshum,
    fit_parametric_normal,
    fit_sshum,
    min_adjacent_auc,
    polish_bfgs,
    project_scores,
    shum_value,
    step_down,
    unit_norm_aligned,
)
from shumfit.errors import (
    BootstrapUnstable,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    ShumFitError,
)

from oracles import dot_scores, make_dataset


def separated_dataset(rng, sizes=(15, 15, 15), d=2, gap=3.0, sd=0.3):
    cats = []
    for j, n in enumerate(sizes):
        cats.append(rng.normal(gap * j, sd, size=(n, d)))
    names = tuple(f"m{k + 1}" for k in range(d))
    return MarkerDataset(tuple(cats), names, tuple(str(j) for j in range(len(sizes))))


def test_single_marker_everything_is_identity():
    rng = np.random.default_rng(0)
    data = make_dataset(rng, m=3, sizes=(10, 10, 10), d=1, spread=1.5)
    for method in ("sshum", "nshum", "empirical"):
        rep = fit_method(data, method)
        assert rep.coefficients.beta.tolist() == [1.0]
        assert rep.coefficients.anchor_index == 0


def test_smooth_fits_track_empirical_on_separated_data():
    rng = np.random.default_rng(1)
    data = separated_dataset(rng)
    emp = fit_empirical(data)
    assert emp.ehum_at_solution >= 0.99
    for fitter in (fit_sshum, fit_nshum):
        rep = fitter(data)
        assert rep.ehum_at_solution == pytest.approx(emp.ehum_at_solution, abs=0.01)
        assert rep.converged


def test_report_ehum_matches_independent_reevaluation():
    rng = np.random.default_rng(2)
    data = make_dataset(rng, m=3, sizes=(12, 11, 13), d=3, spread=1.0)
    for method in METHOD_NAMES:
        rep = fit_method(data, method)
        if method == "minmax":
            coef = rep.coefficients.beta[1]
            scores = [x.max(axis=1) + coef * x.min(axis=1) for x in data.categories]
        else:
            scores = project_scores(data, rep.coefficients.beta)
        assert rep.ehum_at_solution == ehum_fast(scores).value, method


def test_every_method_reports_through_report_exactly_once(monkeypatch):
    rng = np.random.default_rng(2)
    data = make_dataset(rng, m=3, sizes=(12, 11, 13), d=3, spread=1.0)
    made = []
    report = methods._report

    def recording(*args, **kwargs):
        made.append(report(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(methods, "_report", recording)
    for method in METHOD_NAMES:
        made.clear()
        rep = fit_method(data, method)
        assert len(made) == 1, method
        assert made[0] is rep, method


def test_positive_rescaling_leaves_ehum_unchanged():
    rng = np.random.default_rng(3)
    data = make_dataset(rng, m=3, sizes=(9, 9, 9), d=2, spread=1.0)
    rep = fit_empirical(data)
    doubled = ehum_fast(project_scores(data, 2.0 * rep.coefficients.beta)).value
    assert doubled == rep.ehum_at_solution


def test_polish_requires_smooth_objective():
    # the polish takes the smoothing spec of a method with a kernel
    rng = np.random.default_rng(4)
    data = make_dataset(rng, m=3, sizes=(6, 6, 6), d=2, spread=1.0)
    start = np.array([1.0, 0.5])
    for name, entry in methods.METHODS.items():
        if entry.kernel is None:
            continue
        spec = methods._smoothing(data, FitConfig(), entry.kernel)
        res = polish_bfgs(data, spec, start, 0)
        assert np.isfinite(res.value), name
        assert res.value >= shum_value(data, start, spec), name
        assert res.value == shum_value(data, np.array([1.0, *res.argmax]), spec), name


# a single marker is the best start at seeds 0 and 32, and at 13 for sshum;
# at seed 0 its anchor differs from step-down's
@pytest.mark.parametrize("seed", [0, 1, 13, 32])
@pytest.mark.parametrize("method", ["sshum", "nshum"])
def test_smoothed_fit_polishes_its_best_start(method, seed):
    rng = np.random.default_rng(seed)
    data = make_dataset(rng, m=3, sizes=(6, 5, 7), d=2, spread=0.3)
    spec = methods._smoothing(data, FitConfig(), methods.METHODS[method].kernel)
    sd = step_down(methods._ehum_objective, data)
    starts = [(sd.beta, sd.anchor_index), (np.array([1.0, 0.0]), 0),
              (np.array([0.0, 1.0]), 1)]
    values = [shum_value(data, beta, spec) for beta, _ in starts]
    rep = fit_method(data, method)
    assert rep.objective_at_solution >= max(values)
    assert rep.coefficients.anchor_index == starts[int(np.argmax(values))][1]


def test_smoothed_polish_makes_one_chain_pass_per_evaluation(monkeypatch):
    # every BFGS evaluation, a rejected Armijo trial included, is one
    # gradient pass that also gives the value; no separate value chain runs
    rng = np.random.default_rng(4)
    data = make_dataset(rng, m=3, sizes=(10, 10, 10), d=3, spread=1.0)
    passes, evaluations = [], []
    gradient_full, bfgs = smooth.shum_gradient_full, methods.bfgs_maximize

    def counted_pass(*args):
        passes.append(args[1])
        return gradient_full(*args)

    def counted_bfgs(f, grad, theta0):
        def counted_f(theta):
            evaluations.append(theta)
            return f(theta)

        return bfgs(counted_f, grad, theta0)

    def value_chain(*args):
        raise AssertionError("a value chain apart from the gradient pass")

    monkeypatch.setattr(smooth, "shum_gradient_full", counted_pass)
    monkeypatch.setattr(smooth, "shum_from_scores", value_chain)
    monkeypatch.setattr(methods, "shum_from_scores", value_chain)
    monkeypatch.setattr(methods, "bfgs_maximize", counted_bfgs)
    spec = methods._smoothing(data, FitConfig(), methods.METHODS["sshum"].kernel)
    res = polish_bfgs(data, spec, np.array([1.0, 8.0, -8.0]), 0)
    assert len(evaluations) > res.iterations + 1     # some trial step was rejected
    assert len(passes) == len(evaluations)


def test_a_fitting_loop_runs_one_step_down_per_objective(monkeypatch, tmp_path):
    rng = np.random.default_rng(3)
    data = make_dataset(rng, m=3, sizes=(12, 10, 11), d=3, spread=1.0)
    four = ("sshum", "nshum", "empirical", "frechet")
    alone = {method: fit_method(data, method) for method in four}
    calls = []
    original = methods.step_down

    def counted(objective, d):
        calls.append(objective)
        return original(objective, d)

    monkeypatch.setattr(methods, "step_down", counted)
    fitted = methods._fit_each(data, four, FitConfig())
    assert len(calls) == 2
    for method in four:
        shared, own = fitted[method][0], alone[method]
        assert shared.coefficients.beta.tolist() == own.coefficients.beta.tolist(), method
        assert dataclasses.replace(shared, coefficients=None) == dataclasses.replace(
            own, coefficients=None), method

    csv = tmp_path / "data.csv"
    rows = [f"{label}," + ",".join(repr(float(v)) for v in row)
            for label, x in zip(data.category_labels, data.categories) for row in x]
    csv.write_text("outcome,m1,m2,m3\n" + "\n".join(rows) + "\n")
    calls.clear()
    code = cli.main(["fit", "--data", str(csv), "--outcome", "outcome",
                     "--markers", "m1,m2,m3", "--methods", ",".join(four),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(calls) == 2

    calls.clear()
    fit_sshum(data)
    assert len(calls) == 1


def test_closed_form_matches_hand_solved_system():
    # with 4 categories the report is the closed form itself
    rng = np.random.default_rng(5)
    data = make_dataset(rng, m=4, sizes=(20, 18, 22, 19), d=3, spread=1.0)
    rep = fit_parametric_normal(data)

    mus = [np.mean(x, axis=0) for x in data.categories]
    pooled = np.zeros((3, 3))
    dof = 0
    for x in data.categories:
        n = x.shape[0]
        pooled += (n - 1) * np.cov(x.T)
        dof += n - 1
    pooled /= dof
    delta = ((mus[1] - mus[0]) + (mus[2] - mus[1]) + (mus[3] - mus[2])) / 3.0
    want = np.linalg.solve(pooled, delta)

    got = unit_norm_aligned(rep.coefficients.beta, want)
    np.testing.assert_allclose(got, unit_norm_aligned(want), atol=1e-10)
    assert rep.iterations == 0 and rep.converged


def test_closed_form_recovers_known_direction_in_large_samples():
    rng = np.random.default_rng(6)
    cats = [rng.normal(mu * np.array([1.0, 2.0]), 1.0, size=(4000, 2)) for mu in range(3)]
    data = MarkerDataset(tuple(cats), ("a", "b"), ("0", "1", "2"))
    got = unit_norm_aligned(methods._closed_form_direction(data), [1.0, 2.0])
    np.testing.assert_allclose(got, np.array([1.0, 2.0]) / np.sqrt(5.0), atol=0.05)


def test_closed_form_identity_covariance_returns_delta():
    # categories share one whitened row block, so the pooled sample
    # covariance is exactly I and the direction must equal the mean spacing
    rng = np.random.default_rng(21)
    z = rng.normal(size=(12, 3))
    z -= z.mean(axis=0)
    z = z @ np.linalg.inv(np.linalg.cholesky(np.cov(z.T))).T
    delta = np.array([0.4, 1.0, 1.6])
    cats = tuple(z + i * delta for i in range(3))
    data = MarkerDataset(cats, ("a", "b", "c"), ("0", "1", "2"))
    direction = methods._closed_form_direction(data)
    np.testing.assert_allclose(direction / direction[0], delta / delta[0], atol=1e-9)


def test_four_categories_get_the_closed_form():
    rng = np.random.default_rng(8)
    data4 = make_dataset(rng, m=4, sizes=(8, 8, 8, 8), d=2, spread=1.0)
    assert fit_parametric_normal(data4).iterations == 0  # closed form needs no iterations


def test_integral_refinement_never_loses_to_its_start():
    rng = np.random.default_rng(9)
    data = make_dataset(rng, m=3, sizes=(25, 25, 25), d=2, spread=0.8)
    closed = methods._closed_form_direction(data)
    refined = fit_parametric_normal(data)
    mus, covs = methods._category_moments(data)
    assert methods._gaussian_ordering_probability(
        refined.coefficients.beta, mus, covs
    ) >= methods._gaussian_ordering_probability(closed, mus, covs) - 1e-12


def test_integral_fit_keeps_the_closed_form_orientation():
    # the closed-form direction's last coefficient and its largest-magnitude
    # one are negative: anchoring at either would reverse the ranking
    rng = np.random.default_rng(0)
    means = [np.zeros(3), np.array([-1.0, 0.3, -0.2]), np.array([-2.0, 0.6, -0.4])]
    cats = tuple(rng.normal(mu, 1.0, size=(120, 3)) for mu in means)
    data = MarkerDataset(cats, ("a", "b", "c"), ("0", "1", "2"))
    closed = ehum_fast(project_scores(data, methods._closed_form_direction(data))).value
    rep = fit_parametric_normal(data)
    assert rep.iterations > 0
    assert rep.ehum_at_solution >= closed - 0.01


@pytest.mark.parametrize("m, step, anchor", [
    (3, (1.0, 0.5, 2.0), 2),        # positive last coefficient
    (3, (-1.0, 0.3, -0.2), 1),      # last not positive: the largest, if positive
    (3, (-1.0, -0.5, -2.0), None),  # no positive coefficient: the closed form
    (4, (1.0, 0.5, -2.0), None),    # closed form with a non-positive last one
])
def test_parametric_anchor_keeps_the_closed_form_orientation(m, step, anchor):
    rng = np.random.default_rng(3)
    cats = tuple(rng.normal(j * np.array(step), 1.0, size=(120, 3)) for j in range(m))
    data = MarkerDataset(cats, ("a", "b", "c"), tuple(str(j) for j in range(m)))
    closed = methods._closed_form_direction(data)
    assert np.array_equal(np.sign(closed), np.sign(step))
    rep = fit_parametric_normal(data)
    assert rep.coefficients.anchor_index == anchor
    if anchor is None:
        assert np.linalg.norm(rep.coefficients.beta) == pytest.approx(1.0)
        np.testing.assert_allclose(rep.coefficients.beta, unit_norm_aligned(closed))
        assert rep.iterations == 0 and rep.converged
        assert rep.objective_at_solution == rep.ehum_at_solution
    else:
        assert rep.coefficients.beta[anchor] == 1.0
        assert rep.iterations > 0


def test_gaussian_ordering_probability_against_monte_carlo():
    rng = np.random.default_rng(10)
    mus = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
    covs = [np.array([[1.0]])] * 3
    beta = np.array([1.0])
    x, y, z = (rng.normal(m[0], 1.0, size=400_000) for m in mus)
    mc = np.mean((x < y) & (y < z))
    got = methods._gaussian_ordering_probability(beta, mus, covs)
    assert got == pytest.approx(mc, abs=0.005)


def test_minmax_needs_two_markers_and_reports_derived_pair():
    rng = np.random.default_rng(11)
    with pytest.raises(DimensionMismatch):
        fit_minmax(make_dataset(rng, m=3, sizes=(6, 6, 6), d=1, spread=1.0))
    data = separated_dataset(rng, d=3)
    rep = fit_minmax(data)
    assert rep.method == "minmax"
    assert rep.coefficients.beta[0] == 1.0
    assert rep.coefficients.anchor_index == 0
    assert rep.ehum_at_solution >= 0.9  # max of separated markers still separates


def test_frechet_maximizes_the_upper_bound_under_its_table_name():
    rng = np.random.default_rng(12)
    data = make_dataset(rng, m=3, sizes=(10, 10, 10), d=2, spread=1.0)
    rep = fit_frechet(data)
    assert rep.method == "frechet"
    scores = project_scores(data, rep.coefficients.beta)
    assert rep.objective_at_solution == min_adjacent_auc(scores)
    assert rep.objective_at_solution >= rep.ehum_at_solution


@given(st.integers(1, 12))
@settings(max_examples=12, deadline=None)
def test_naive_weights_have_unit_norm(d):
    rng = np.random.default_rng(d)
    data = make_dataset(rng, m=3, sizes=(5, 5, 5), d=d, spread=1.0)
    rep = fit_naive(data)
    assert np.linalg.norm(rep.coefficients.beta) == pytest.approx(1.0)
    assert len(set(rep.coefficients.beta.tolist())) == 1
    assert rep.coefficients.anchor_index is None


def test_unknown_method_rejected():
    rng = np.random.default_rng(13)
    data = make_dataset(rng, m=3, sizes=(5, 5, 5), d=2, spread=1.0)
    with pytest.raises(InvalidParameter):
        fit_method(data, "logit")


def test_unit_norm_aligned_conventions():
    v = unit_norm_aligned([3.0, 4.0])
    np.testing.assert_allclose(v, [0.6, 0.8])
    flipped = unit_norm_aligned([-3.0, -4.0], reference=[1.0, 1.0])
    np.testing.assert_allclose(flipped, [0.6, 0.8])
    assert unit_norm_aligned([0.0, 0.0]).tolist() == [0.0, 0.0]


def test_bootstrap_is_deterministic_for_fixed_seed():
    rng = np.random.default_rng(14)
    data = make_dataset(rng, m=3, sizes=(10, 9, 11), d=2, spread=1.2)
    point = fit_method(data, "minmax")
    a = bootstrap_se(data, {"minmax": point}, B=6, seed=99)["minmax"]
    b = bootstrap_se(data, {"minmax": point}, B=6, seed=99)["minmax"]
    np.testing.assert_array_equal(a.se_coefficients, b.se_coefficients)
    assert a.se_ehum == b.se_ehum
    assert a.n_replicates == 6 and a.n_failures == 0


def test_bootstrap_reuses_a_given_point_fit(monkeypatch):
    rng = np.random.default_rng(14)
    data = make_dataset(rng, m=3, sizes=(10, 9, 11), d=2, spread=1.2)
    point = fit_method(data, "minmax")
    fitted = []
    original = methods.fit_method

    def counting(d, method, *args):
        fitted.append(d is data)
        return original(d, method, *args)

    monkeypatch.setattr(methods, "fit_method", counting)
    bootstrap_se(data, {"minmax": point}, B=6, seed=99)
    assert fitted == [False] * 6


def test_bootstrap_differs_across_seeds():
    rng = np.random.default_rng(15)
    data = make_dataset(rng, m=3, sizes=(10, 9, 11), d=2, spread=1.2)
    point = fit_method(data, "minmax")
    a = bootstrap_se(data, {"minmax": point}, B=6, seed=1)["minmax"]
    b = bootstrap_se(data, {"minmax": point}, B=6, seed=2)["minmax"]
    assert a.se_ehum != b.se_ehum


def test_bootstrap_seeds_share_no_resample(monkeypatch):
    # consecutive seeds: replicate r of one must not be replicate r+1 of the other
    rng = np.random.default_rng(15)
    data = make_dataset(rng, m=3, sizes=(10, 9, 11), d=2, spread=1.2)
    drawn = []
    resample = methods._resample

    def recorded(d, gen):
        out = resample(d, gen)
        drawn[-1].add(b"".join(x.tobytes() for x in out.categories))
        return out

    monkeypatch.setattr(methods, "_resample", recorded)
    point = fit_method(data, "naive")
    for seed in (3, 4):
        drawn.append(set())
        bootstrap_se(data, {"naive": point}, B=5, seed=seed)
    assert len(drawn[0]) == len(drawn[1]) == 5
    assert not drawn[0] & drawn[1]


def test_bootstrap_degenerate_data_gives_zero_se():
    # every row within a category identical: resampling is a no-op
    cats = tuple(np.tile([[float(j), 2.0 * j]], (5, 1)) for j in range(3))
    data = MarkerDataset(cats, ("a", "b"), ("0", "1", "2"))
    summary = bootstrap_se(data, {"naive": fit_method(data, "naive")}, B=2, seed=0)["naive"]
    assert summary.se_ehum == 0.0
    np.testing.assert_array_equal(summary.se_coefficients, [0.0, 0.0])


def test_bootstrap_rejects_tiny_b():
    rng = np.random.default_rng(16)
    data = make_dataset(rng, m=3, sizes=(8, 8, 8), d=2, spread=1.0)
    with pytest.raises(InvalidParameter):
        bootstrap_se(data, {"naive": fit_method(data, "naive")}, B=1)


def test_bootstrap_tolerates_sparse_failures(monkeypatch):
    rng = np.random.default_rng(17)
    data = make_dataset(rng, m=3, sizes=(8, 8, 8), d=2, spread=1.0)
    calls = {"n": 0}

    def flaky(d, cfg):
        calls["n"] += 1
        if calls["n"] == 3:  # point fit is call 1; fail one replicate
            raise EmptyInput("injected")
        return fit_naive(d)

    monkeypatch.setitem(methods.METHODS, "naive",
                        dataclasses.replace(methods.METHODS["naive"], fit=flaky))
    point = fit_method(data, "naive")
    summary = bootstrap_se(data, {"naive": point}, B=20, seed=0)["naive"]
    assert summary.n_failures == 1
    assert summary.n_replicates == 20


def test_bootstrap_aborts_when_most_replicates_fail(monkeypatch):
    rng = np.random.default_rng(18)
    data = make_dataset(rng, m=3, sizes=(8, 8, 8), d=2, spread=1.0)
    calls = {"n": 0}

    def flaky(d, cfg):
        calls["n"] += 1
        if calls["n"] > 1:
            raise EmptyInput("injected")
        return fit_naive(d)

    monkeypatch.setitem(methods.METHODS, "naive",
                        dataclasses.replace(methods.METHODS["naive"], fit=flaky))
    point = fit_method(data, "naive")
    with pytest.raises(BootstrapUnstable) as exc:
        bootstrap_se(data, {"naive": point}, B=5, seed=0)
    assert exc.value.method == "naive"
    assert exc.value.n_failed == 5
    assert exc.value.n_total == 5


@pytest.mark.parametrize("method", ["empirical", "frechet", "minmax", "parametric"])
def test_bootstrap_worker_count_changes_nothing(method):
    rng = np.random.default_rng(20)
    data = make_dataset(rng, m=4, sizes=(12, 10, 11, 12), d=3, spread=0.8)
    point = fit_method(data, method)
    serial = bootstrap_se(data, {method: point}, B=6, seed=5, workers=1)[method]
    pooled = bootstrap_se(data, {method: point}, B=6, seed=5, workers=2)[method]
    np.testing.assert_array_equal(serial.se_coefficients, pooled.se_coefficients)
    assert serial.se_ehum == pooled.se_ehum
    assert serial.n_failures == pooled.n_failures


# pool workers see the patched method table only when forked from this process
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="needs the fork start method")
@pytest.mark.parametrize("failing, unstable", [((3,), False), ((1, 4), True)])
def test_bootstrap_failures_agree_across_worker_counts(monkeypatch, failing, unstable):
    rng = np.random.default_rng(21)
    data = make_dataset(rng, m=3, sizes=(8, 8, 8), d=2, spread=1.0)
    B, seed = 10, 2
    # the fitter recognises the failing replicates by their resampled rows
    doomed = {b"".join(x.tobytes() for x in methods._resample(
        data, np.random.default_rng([seed, r])).categories) for r in failing}

    def flaky(d, cfg):
        if b"".join(x.tobytes() for x in d.categories) in doomed:
            raise ShumFitError("injected")
        return fit_naive(d)

    monkeypatch.setitem(methods.METHODS, "naive",
                        dataclasses.replace(methods.METHODS["naive"], fit=flaky))
    point = fit_method(data, "naive")
    summaries = []
    for workers in (1, 2):
        if unstable:
            with pytest.raises(BootstrapUnstable) as exc:
                bootstrap_se(data, {"naive": point}, B=B, seed=seed, workers=workers)
            assert exc.value.n_failed == len(failing)
        else:
            summaries.append(bootstrap_se(data, {"naive": point}, B=B, seed=seed,
                                          workers=workers)["naive"])
            assert summaries[-1].n_failures == len(failing)
    if summaries:
        serial, pooled = summaries
        np.testing.assert_array_equal(serial.se_coefficients, pooled.se_coefficients)
        assert serial.se_ehum == pooled.se_ehum


class RecordingPool:
    """Stand-in for ProcessPoolExecutor that runs in process and records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        assert chunksize >= 1
        return map(fn, tasks)


@pytest.mark.parametrize("workers, n_tasks, pool_size", [
    (1, 5, None), (8, 1, None), (8, 0, None), (2, 5, 2), (64, 3, 3),
])
def test_map_in_order_starts_no_more_processes_than_tasks(monkeypatch, workers,
                                                          n_tasks, pool_size):
    monkeypatch.setattr(methods, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    tasks = list(range(n_tasks))
    assert methods._map_in_order(lambda t: -t, tasks, workers) == [-t for t in tasks]
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])


def test_bootstrap_fits_every_method_on_one_resample_per_replicate(monkeypatch):
    rng = np.random.default_rng(22)
    data = make_dataset(rng, m=3, sizes=(10, 9, 11), d=2, spread=1.2)
    points = {m: fit_method(data, m) for m in ("empirical", "minmax", "naive")}
    own = {m: bootstrap_se(data, {m: point}, B=6, seed=8)[m] for m, point in points.items()}
    drawn = []
    resample = methods._resample

    def recorded(d, gen):
        drawn.append(None)
        return resample(d, gen)

    monkeypatch.setattr(methods, "_resample", recorded)
    monkeypatch.setattr(methods, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    shared = bootstrap_se(data, points, B=6, seed=8, workers=2)
    assert len(drawn) == 6
    assert RecordingPool.sizes == [2]
    assert list(shared) == list(points)
    for m, summary in shared.items():
        np.testing.assert_array_equal(summary.se_coefficients, own[m].se_coefficients)
        assert summary.se_ehum == own[m].se_ehum
        assert summary.n_failures == own[m].n_failures


def test_map_in_order_returns_results_in_task_order():
    tasks = list(range(9))
    assert methods._map_in_order(abs, [-t for t in tasks], 2) == tasks


def test_resample_preserves_shapes_and_pool():
    rng = np.random.default_rng(19)
    data = make_dataset(rng, m=3, sizes=(7, 6, 9), d=2, spread=1.0)
    boot = methods._resample(data, np.random.default_rng(0))
    assert boot.sizes == data.sizes
    assert boot.marker_names == data.marker_names
    for orig, out in zip(data.categories, boot.categories):
        pool = {tuple(row) for row in orig}
        assert all(tuple(row) in pool for row in out)


def test_fit_reports_are_on_the_anchored_scale():
    rng = np.random.default_rng(20)
    data = make_dataset(rng, m=3, sizes=(10, 10, 10), d=3, spread=1.0)
    for method in ("sshum", "nshum", "empirical"):
        rep = fit_method(data, method)
        anchor = rep.coefficients.anchor_index
        assert rep.coefficients.beta[anchor] == 1.0
