import math

import numpy as np
import pytest

from shumfit import (
    METHODS,
    ScenarioConfig,
    ar1_cov,
    exchangeable_cov,
    generate_scenario,
    identity_cov,
    population_hum,
    run_study,
    sample_mvn,
    sample_weibull,
    true_beta_oracle,
    weibull_quantile,
)
from shumfit import Coefficients, FitReport, optimize, simulate
from shumfit.errors import InvalidParameter, NotPositiveDefinite, StudyAborted

from oracles import gaussian_hum_exact

# The built-in designs as documented in ``shumfit.simulate``, restated here so
# these checks do not read the library's own design table.
DESIGN_DELTA = np.array([1.0, 1.1, 1.2])
DESIGN_COV = {
    1: np.eye(3),
    2: np.full((3, 3), 0.2) + 0.8 * np.eye(3),                    # exchangeable
    3: 0.2 ** np.abs(np.subtract.outer(np.arange(3), np.arange(3))),  # AR1
}
DESIGN_WEIBULL_SHAPES = np.array([0.5, 1.0, 1.5])   # per marker
DESIGN_WEIBULL_SCALES = np.array([1.0, 2.0, 3.0])   # per category


def test_covariance_constructors():
    np.testing.assert_array_equal(identity_cov(3), np.eye(3))
    ex = exchangeable_cov(0.2, 3)
    assert ex[0, 0] == 1.0 and ex[0, 1] == ex[1, 2] == 0.2
    ar = ar1_cov(0.2, 3)
    assert ar[0, 1] == 0.2
    assert ar[0, 2] == pytest.approx(0.04)
    np.testing.assert_array_equal(ar, ar.T)


def test_scenario_config_validation():
    with pytest.raises(InvalidParameter):
        ScenarioConfig(scenario_id=5, n=(10, 10, 10))
    with pytest.raises(InvalidParameter):
        ScenarioConfig(scenario_id=1, n=(10,))
    with pytest.raises(InvalidParameter):
        ScenarioConfig(scenario_id=1, n=(10, 0, 10))
    with pytest.raises(InvalidParameter):
        ScenarioConfig(scenario_id=1, n=(10, 10, 10), replications=0)
    with pytest.raises(InvalidParameter):
        ScenarioConfig(scenario_id=4, n=(5, 5, 5, 5))


def test_mvn_sampler_moments():
    rng = np.random.default_rng(0)
    cov = exchangeable_cov(0.2, 3)
    x = sample_mvn(DESIGN_DELTA, cov, 100_000, rng)
    np.testing.assert_allclose(x.mean(axis=0), DESIGN_DELTA, atol=0.02)
    np.testing.assert_allclose(np.corrcoef(x.T)[0, 1], 0.2, atol=0.02)
    assert np.linalg.norm(np.cov(x.T) - cov) < 0.05


def test_mvn_sampler_rejects_indefinite_cov():
    rng = np.random.default_rng(1)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        sample_mvn(np.zeros(2), bad, 10, rng)


def test_weibull_quantile_closed_forms():
    # u = 1 - exp(-1) maps to x = scale for every shape
    u = 1.0 - math.exp(-1.0)
    for shape in (0.5, 1.0, 1.5):
        assert weibull_quantile(u, shape, 3.7) == pytest.approx(3.7, rel=1e-12)
    # median of shape 1 (exponential) is scale * ln 2
    assert weibull_quantile(0.5, 1.0, 2.0) == pytest.approx(2.0 * math.log(2.0))
    with pytest.raises(InvalidParameter):
        weibull_quantile(0.5, 0.0, 1.0)
    with pytest.raises(InvalidParameter):
        weibull_quantile(0.5, 1.0, -2.0)


def test_weibull_sampler_moments():
    rng = np.random.default_rng(2)
    x = sample_weibull(1.0, 2.0, 200_000, rng)
    assert x.mean() == pytest.approx(2.0, abs=0.03)
    y = sample_weibull(0.5, 1.0, 200_000, rng)
    assert y.mean() == pytest.approx(math.gamma(3.0), abs=0.1)


def test_master_seeds_give_different_studies():
    # seeds 0 and 5 differ only in bits below the replicate count
    cfgs = [ScenarioConfig(scenario_id=1, n=(20, 20, 20), replications=8, master_seed=s)
            for s in (0, 5)]
    firsts = [{generate_scenario(cfg, r).categories[0].tobytes() for r in range(8)}
              for cfg in cfgs]
    assert not firsts[0] & firsts[1]
    a, b = (run_study(cfg, ["parametric"]).by_method()["parametric"] for cfg in cfgs)
    assert a.mean_ehum != b.mean_ehum


def test_generate_scenario_is_deterministic_per_replicate():
    cfg = ScenarioConfig(scenario_id=2, n=(9, 8, 7))
    a = generate_scenario(cfg, 3)
    b = generate_scenario(cfg, 3)
    c = generate_scenario(cfg, 4)
    for xa, xb in zip(a.categories, b.categories):
        np.testing.assert_array_equal(xa, xb)
    assert not np.array_equal(a.categories[0], c.categories[0])
    assert a.sizes == (9, 8, 7)
    assert a.marker_names == ("m1", "m2", "m3")
    with pytest.raises(InvalidParameter):
        generate_scenario(cfg, -1)


# first row of each category of replicate 2 of (7, 6, 5) under master seed 3
PINNED_FIRST_ROWS = {
    1: ([0.20662848566847952, -1.5508740984057483, -0.949120399113287],
        [-0.14780720179030427, 0.9360789697140954, 2.8265018247161433],
        [1.9313126694242149, 1.6168874614472544, 3.7609285044401624]),
    2: ([0.20662848566847952, -1.4782143814234998, -1.1288684013621253],
        [-0.14780720179030427, 0.7098294067172295, 2.515020415509568],
        [1.9313126694242149, 1.6149312610555584, 3.6058225005779985]),
    3: ([0.20662848566847952, -1.4782143814234998, -1.225587149202409],
        [-0.14780720179030427, 0.7098294067172295, 2.715605695847572],
        [1.9313126694242149, 1.6149312610555584, 3.6164184171260834]),
    4: ([0.0006693584271572732, 0.3828772025093214, 1.2849220801834913],
        [2.3491808492024764, 4.372429447388473, 2.0968659645525234],
        [5.93037706850242, 0.07934305869211383, 3.7091954394280426]),
}


@pytest.mark.parametrize("sid", sorted(PINNED_FIRST_ROWS))
def test_generate_scenario_draws_are_pinned(sid):
    data = generate_scenario(ScenarioConfig(sid, (7, 6, 5), master_seed=3), 2)
    for x, want in zip(data.categories, PINNED_FIRST_ROWS[sid]):
        np.testing.assert_allclose(x[0], want, rtol=1e-12)


def test_weibull_scenario_rejects_other_category_counts():
    with pytest.raises(InvalidParameter, match="3 categories"):
        ScenarioConfig(4, (5, 5, 5, 5))
    with pytest.raises(InvalidParameter, match="3 categories"):
        ScenarioConfig(4, (5, 5))


def test_generate_scenario_category_means():
    cfg = ScenarioConfig(scenario_id=1, n=(30_000, 30_000, 30_000))
    data = generate_scenario(cfg, 0)
    for i, x in enumerate(data.categories):
        np.testing.assert_allclose(x.mean(axis=0), i * DESIGN_DELTA, atol=0.03)


def test_generate_scenario_weibull_design():
    cfg = ScenarioConfig(scenario_id=4, n=(50_000, 50_000, 50_000))
    data = generate_scenario(cfg, 0)
    assert data.n_markers == DESIGN_WEIBULL_SHAPES.size
    # marker with unit shape is exponential: mean equals the category scale
    k1 = int(np.where(DESIGN_WEIBULL_SHAPES == 1.0)[0][0])
    for scale, x in zip(DESIGN_WEIBULL_SCALES, data.categories):
        assert x[:, k1].mean() == pytest.approx(scale, rel=0.03)
    assert (data.categories[0] >= 0).all()


def test_true_beta_oracle_ratios():
    expected = {
        1: (1.0, 1.1, 1.2),
        2: (1.0, 1.1892, 1.3784),
        3: (1.0, 0.9026, 1.2564),
    }
    for sid, want in expected.items():
        cfg = ScenarioConfig(scenario_id=sid, n=(10, 10, 10))
        oracle = true_beta_oracle(cfg)
        assert oracle.anchor_index == 0
        np.testing.assert_allclose(oracle.beta, want, atol=5e-4)
        # agreement with an independent linear solve
        means, cov = [i * DESIGN_DELTA for i in range(3)], DESIGN_COV[sid]
        delta = np.mean([means[1] - means[0], means[2] - means[1]], axis=0)
        x = np.linalg.solve(cov, delta)
        np.testing.assert_allclose(oracle.beta, x / x[0], atol=1e-12)
    with pytest.raises(InvalidParameter):
        true_beta_oracle(ScenarioConfig(scenario_id=4, n=(5, 5, 5)))


def test_study_anchor_convention():
    assert ScenarioConfig(scenario_id=1, n=(5, 5, 5)).design.anchor == 0
    assert ScenarioConfig(scenario_id=4, n=(5, 5, 5)).design.anchor == 2


def test_population_hum_degenerate_and_guard():
    cfg = ScenarioConfig(scenario_id=1, n=(5, 5, 5))
    p, se = population_hum(cfg, np.zeros(3), mc_n=10**4)
    assert p == 0.0 and se == 0.0
    with pytest.raises(InvalidParameter):
        population_hum(cfg, np.ones(3), mc_n=100)


def test_population_hum_reproducible_and_seed_sensitive():
    cfg = ScenarioConfig(scenario_id=1, n=(5, 5, 5))
    beta = np.array([1.0, 1.1, 1.2])
    p1, se1 = population_hum(cfg, beta, mc_n=10**5, seed=0)
    p2, _ = population_hum(cfg, beta, mc_n=10**5, seed=0)
    p3, se3 = population_hum(cfg, beta, mc_n=10**5, seed=1)
    assert p1 == p2
    assert abs(p1 - p3) <= 5.0 * (se1 + se3)
    assert 0.7 < p1 < 0.9


@pytest.mark.parametrize("sid", [1, 2, 3])
def test_population_hum_matches_exact_gaussian_orthant(sid):
    cfg = ScenarioConfig(scenario_id=sid, n=(5, 5, 5))
    means, cov = [i * DESIGN_DELTA for i in range(3)], DESIGN_COV[sid]
    for beta in (true_beta_oracle(cfg).beta, np.array([1.0, -0.5, 2.0])):
        p, se = population_hum(cfg, beta, mc_n=10**6, seed=0)
        exact = gaussian_hum_exact(means, cov, beta)
        assert abs(p - exact) <= 4.0 * se, (beta, p, exact, se)


def test_oracle_beats_perturbations_in_population():
    cfg = ScenarioConfig(scenario_id=3, n=(5, 5, 5))
    beta = true_beta_oracle(cfg).beta
    p_star, se = population_hum(cfg, beta, mc_n=10**5, seed=7)
    rng = np.random.default_rng(0)
    for _ in range(4):
        p, _ = population_hum(cfg, beta + rng.normal(0, 0.3, 3), mc_n=10**5, seed=7)
        assert p <= p_star + 2.0 * se


FAST_METHODS = ("parametric", "minmax", "naive")


def test_run_study_single_replicate_warns_and_zeroes_sds():
    cfg = ScenarioConfig(scenario_id=1, n=(25, 25, 25), replications=1)
    with pytest.warns(UserWarning):
        summary = run_study(cfg, ["naive"])
    m = summary.by_method()["naive"]
    assert m.sd_ehum == 0.0
    assert m.coef_sd.tolist() == [0.0, 0.0, 0.0]
    assert m.n_failures == 0


def _study_of_fits(monkeypatch, betas):
    """A scenario-1 study whose replicate r reports ``betas[r]`` for empirical."""
    fits = iter(betas)

    def fit_each(data, methods, cfg):
        beta = np.array(next(fits), dtype=float)
        return {"empirical": (FitReport("empirical", Coefficients(beta), 0.5, 0.5, 0, True),
                              0.0)}

    monkeypatch.setattr(simulate, "_fit_each", fit_each)  # read in process: workers=1
    cfg = ScenarioConfig(scenario_id=1, n=(5, 5, 5), replications=len(betas))
    return run_study(cfg, ["empirical"], workers=1).by_method()["empirical"]


def test_run_study_leaves_fits_without_a_ratio_out_of_the_ratio_summaries(monkeypatch):
    # scenario 1 divides by marker 0; a fit that sets it to exactly 0 has no ratio
    ms = _study_of_fits(monkeypatch, [(2, 1, 4), (0, 1, 0.8), (1, 3, 1), (-0.5, 1, 1)])
    assert ms.n_ratio_undefined == 1
    ratios = np.array([[1, 0.5, 2], [1, 3, 1], [1, -2, -2]])
    np.testing.assert_allclose(ms.coef_mean, ratios.mean(axis=0), rtol=1e-15)
    np.testing.assert_allclose(ms.coef_sd, ratios.std(axis=0, ddof=1), rtol=1e-15)
    np.testing.assert_allclose(ms.coef_bias, ms.coef_mean - true_beta_oracle(
        ScenarioConfig(scenario_id=1, n=(5, 5, 5))).beta, rtol=1e-15)


def test_run_study_with_fewer_than_two_ratios_reports_no_nan(monkeypatch):
    one = _study_of_fits(monkeypatch, [(0, 1, 1), (2, 4, 1), (0, 2, 2)])
    assert one.n_ratio_undefined == 2
    assert one.coef_mean.tolist() == [1.0, 2.0, 0.5]
    assert one.coef_sd.tolist() == [0.0, 0.0, 0.0]
    assert np.isfinite(one.coef_bias).all()

    none = _study_of_fits(monkeypatch, [(0, 1, 1), (0, 2, 2)])
    assert none.n_ratio_undefined == 2
    assert none.coef_mean is None and none.coef_sd is None and none.coef_bias is None
    assert none.mean_ehum == 0.5 and none.n_failures == 0


def test_run_study_counts_non_converged_fits(monkeypatch):
    cfg = ScenarioConfig(scenario_id=1, n=(20, 20, 20), replications=2)
    with monkeypatch.context() as mp:
        mp.setattr(optimize, "MAX_ITERATIONS", 1)  # read in process: workers=1
        by = run_study(cfg, ["sshum", "naive"], workers=1).by_method()
    assert by["sshum"].n_not_converged == 2
    assert by["naive"].n_not_converged == 0
    assert run_study(cfg, ["sshum"]).by_method()["sshum"].n_not_converged == 0


def test_run_study_aggregates_and_bias():
    cfg = ScenarioConfig(scenario_id=1, n=(30, 30, 30), replications=5)
    summary = run_study(cfg, list(FAST_METHODS))
    by = summary.by_method()
    assert set(by) == set(FAST_METHODS)
    truth = true_beta_oracle(cfg).beta
    param = by["parametric"]
    np.testing.assert_allclose(param.coef_bias, param.coef_mean - truth, atol=1e-12)
    assert param.coef_mean[0] == 1.0  # anchored-ratio convention
    for method, ms in by.items():
        assert (ms.coef_bias is None) == (not METHODS[method].ratio)
    assert by["minmax"].coef_bias is None
    assert by["naive"].coef_bias is None
    assert 0.0 < by["parametric"].mean_ehum < 1.0
    assert by["naive"].mean_ehum <= by["parametric"].mean_ehum + 1e-12


def test_run_study_worker_count_does_not_change_results():
    cfg = ScenarioConfig(scenario_id=2, n=(20, 20, 20), replications=4)
    serial = run_study(cfg, list(FAST_METHODS), workers=1)
    parallel = run_study(cfg, list(FAST_METHODS), workers=2)
    for s, p in zip(serial.methods, parallel.methods):
        assert s.method == p.method
        assert s.mean_ehum == p.mean_ehum
        assert s.sd_ehum == p.sd_ehum
        np.testing.assert_array_equal(s.coef_mean, p.coef_mean)
        np.testing.assert_array_equal(s.coef_sd, p.coef_sd)


def test_run_study_rejects_unknown_method():
    cfg = ScenarioConfig(scenario_id=1, n=(10, 10, 10), replications=2)
    with pytest.raises(InvalidParameter):
        run_study(cfg, ["naive", "oracle"])


def test_run_study_aborts_when_fits_keep_failing():
    # one row per category starves the covariance estimate in every replicate
    cfg = ScenarioConfig(scenario_id=1, n=(1, 1, 1), replications=3)
    with pytest.raises(StudyAborted):
        run_study(cfg, ["parametric"])
