"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion NN: PASS/FAIL`` line with the measured
quantities (visible under ``pytest -s``/``-rA`` and in failure output), then
asserts.  Reference numbers are the published benchmark values the library
is expected to reproduce, with one exception: criterion 05 is checked
against the exact population HUM of the design the library documents,
computed by code that shares nothing with ``population_hum`` or the
library's samplers.  The published population values are printed beside
the verdict but are not the population HUM of that design: scenario 1's
0.833 lies above the largest HUM any coefficient vector attains (0.8238 at
the oracle), scenario 2's 0.720 would need a correlation near 0.3, which
the oracle ratios pinned by criterion 04 rule out, and scenario 4's 0.514
lies above the Weibull design's maximum over all coefficients (about
0.508).  Tolerances are part of the contract and must not be loosened.
"""

import json
import math
import time

import numpy as np
import pytest

from shumfit import (
    Kernel,
    MarkerDataset,
    ScenarioConfig,
    SmoothingSpec,
    cli,
    ehum_bruteforce,
    ehum_fast,
    frechet_bounds,
    pairwise_auc,
    population_hum,
    run_study,
    shum_value,
    step_down,
    true_beta_oracle,
)
from shumfit.smooth import shum_from_scores, shum_gradient_full

from oracles import (
    central_difference,
    gaussian_hum_exact,
    mann_whitney_strict,
    random_scores,
    weibull_hum_mc,
)


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# -- 1: exact count equivalence ----------------------------------------------

def test_01_exact_count_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(1000):
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        beta = rng.normal(size=d)
        scores = []
        for j in range(m):
            n = int(rng.integers(1, 9))
            x = rng.normal(0.4 * j, 1.0, size=(n, d))
            s = x @ beta
            if trial % 2 == 1:
                s = np.round(s, 1)  # inject ties within and across categories
            scores.append(s)
        fast = ehum_fast(scores)
        brute = ehum_bruteforce(scores)
        if fast.count != brute.count or fast.n_tuples != brute.n_tuples:
            _verdict(1, False,
                     f"count mismatch on trial {trial}: "
                     f"{fast.count} vs {brute.count}")
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, elapsed < 10.0,
             f"{checked} instances, exact count equality, {elapsed:.2f}s (< 10s)")


# -- 2: gradient accuracy -----------------------------------------------------

def test_02_gradient_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    lambdas = (1.0, 0.1, 0.01)
    worst = 0.0
    for trial in range(100):
        lam = lambdas[trial % 3]
        kernel = Kernel.SIGMOID if trial % 2 == 0 else Kernel.NORMAL
        m = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        # marker scale tied to the bandwidth so every draw exercises the
        # kernel's active region rather than its saturated tails
        cats = tuple(
            rng.normal(1.5 * lam * j, lam, size=(int(rng.integers(3, 8)), d))
            for j in range(m)
        )
        data = MarkerDataset(cats, tuple(f"m{k}" for k in range(d)),
                             tuple(range(m)))
        beta = rng.normal(size=d)
        spec = SmoothingSpec(kernel, lam)
        _, grad = shum_gradient_full(data, beta, spec)
        fd = central_difference(lambda b: shum_value(data, b, spec),
                                beta, step=1e-5 * lam)
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _verdict(2, worst < 1e-5 and elapsed < 30.0,
             f"100 draws, worst relative gradient error {worst:.2e} (< 1e-5), "
             f"{elapsed:.2f}s (< 30s)")


# -- 3: smoothing error bound -------------------------------------------------

def test_03_smoothing_error_bound():
    rng = np.random.default_rng(11)
    worst_slack = np.inf
    for trial in range(100):
        scores = random_scores(rng, allow_ties=False)
        m = len(scores)
        delta = min(
            float(np.min(np.abs(scores[j + 1][:, None] - scores[j][None, :])))
            for j in range(m - 1)
        )
        assert delta > 0.0  # continuous draws are tie-free
        # lambda scaled to the gap keeps exp(-delta/lam) representable
        lam = delta / float(rng.uniform(2.0, 40.0))
        spec = SmoothingSpec(Kernel.SIGMOID, lam)
        gap = abs(shum_from_scores(scores, spec) - ehum_fast(scores).value)
        bound = (m - 1) * math.exp(-delta / lam)
        if gap > bound + 1e-15:
            _verdict(3, False,
                     f"trial {trial}: |shum-ehum| {gap:.3e} exceeds bound {bound:.3e}")
        worst_slack = min(worst_slack, bound - gap)
    _verdict(3, True,
             f"100 tie-free draws satisfy |shum-ehum| <= (M-1)exp(-delta/lambda); "
             f"tightest slack {worst_slack:.2e}")


# -- 4: closed-form oracle coefficients ---------------------------------------

def test_04_oracle_coefficients():
    expected = {1: (1.1, 1.2), 2: (1.189, 1.378), 3: (0.903, 1.256)}
    measured = {}
    ok = True
    for sid, want in expected.items():
        beta = true_beta_oracle(ScenarioConfig(scenario_id=sid, n=(10, 10, 10))).beta
        measured[sid] = (round(float(beta[1]), 3), round(float(beta[2]), 3))
        ok &= beta[0] == 1.0
        ok &= abs(beta[1] - want[0]) < 5e-4 and abs(beta[2] - want[1]) < 5e-4
    _verdict(4, ok, f"free-coefficient ratios to 3 dp: {measured}")


# -- 5: population-level true HUM ----------------------------------------------

# The simulation design as documented in ``shumfit.simulate``, restated here
# so the expected values do not go through the library's own design code.
DESIGN_DELTA = np.array([1.0, 1.1, 1.2])
DESIGN_COV = {
    1: np.eye(3),
    2: np.full((3, 3), 0.2) + 0.8 * np.eye(3),                    # exchangeable
    3: 0.2 ** np.abs(np.subtract.outer(np.arange(3), np.arange(3))),  # AR1
}
DESIGN_WEIBULL_SHAPES = (0.5, 1.0, 1.5)   # per marker
DESIGN_WEIBULL_SCALES = (1.0, 2.0, 3.0)   # per category
WEIBULL_TRUTH = np.array([0.047, 0.456, 1.0])
PUBLISHED_TRUE_HUM = {1: 0.833, 2: 0.720, 3: 0.770, 4: 0.514}


def _design_true_hum(sid, beta):
    """Population HUM of the documented design, independent of the library."""
    if sid == 4:
        value, _ = weibull_hum_mc(DESIGN_WEIBULL_SHAPES, DESIGN_WEIBULL_SCALES,
                                  beta, n=3 * 10**6, seed=1)
        return value
    means = [i * DESIGN_DELTA for i in range(3)]
    return gaussian_hum_exact(means, DESIGN_COV[sid], beta)


def test_05_population_true_hum():
    configs = {sid: ScenarioConfig(scenario_id=sid, n=(120, 120, 120))
               for sid in PUBLISHED_TRUE_HUM}
    betas = {sid: WEIBULL_TRUTH if sid == 4 else true_beta_oracle(cfg).beta
             for sid, cfg in configs.items()}
    reference = {sid: _design_true_hum(sid, beta) for sid, beta in betas.items()}
    t0 = time.perf_counter()
    failures = []
    measured = {}
    for sid, want in reference.items():
        p, se = population_hum(configs[sid], betas[sid], mc_n=10**6, seed=0)
        measured[sid] = round(p, 4)
        if abs(p - want) > 0.003:
            failures.append(f"scenario {sid}: {p:.4f} vs {want:.4f} (se {se:.4f})")
    elapsed = time.perf_counter() - t0
    shown = {sid: round(v, 4) for sid, v in reference.items()}
    detail = (f"measured {measured} vs design {shown} "
              f"(published {PUBLISHED_TRUE_HUM}), {elapsed:.1f}s (< 60s)")
    if failures:
        detail += "; deviations: " + "; ".join(failures)
    _verdict(5, not failures and elapsed < 60.0, detail)


# -- 6: replication-study reproduction -----------------------------------------

STUDY_N = (120, 120, 120)
STUDY_R = 200
GAUSSIAN_REFERENCE = {
    "empirical": 0.824,
    "minmax": 0.804,
    "parametric": 0.825,
    "frechet": 0.813,
    "sshum": 0.825,
    "nshum": 0.825,
}


def test_06_study_reproduction():
    t0 = time.perf_counter()
    failures = []

    cfg1 = ScenarioConfig(scenario_id=1, n=STUDY_N, replications=STUDY_R,
                          master_seed=1)
    s1 = run_study(cfg1, list(GAUSSIAN_REFERENCE), workers=1).by_method()
    means1 = {m: round(s1[m].mean_ehum, 4) for m in GAUSSIAN_REFERENCE}
    for method, want in GAUSSIAN_REFERENCE.items():
        got = s1[method].mean_ehum
        if abs(got - want) > 0.010:
            failures.append(f"scenario-1 {method} {got:.4f} vs {want}+-0.010")

    cfg4 = ScenarioConfig(scenario_id=4, n=STUDY_N, replications=STUDY_R,
                          master_seed=1)
    s4 = run_study(cfg4, ["sshum", "nshum", "empirical", "parametric"],
                   workers=1).by_method()
    means4 = {m: round(s4[m].mean_ehum, 4) for m in s4}
    if not s4["sshum"].mean_ehum > s4["empirical"].mean_ehum:
        failures.append(
            f"ordering sshum {means4['sshum']} > empirical {means4['empirical']}")
    if not s4["nshum"].mean_ehum > s4["empirical"].mean_ehum:
        failures.append(
            f"ordering nshum {means4['nshum']} > empirical {means4['empirical']}")
    if not s4["empirical"].mean_ehum > s4["parametric"].mean_ehum:
        failures.append(
            f"ordering empirical {means4['empirical']} > parametric "
            f"{means4['parametric']}")
    if abs(s4["sshum"].mean_ehum - 0.512) > 0.015:
        failures.append(f"sshum {means4['sshum']} vs 0.512+-0.015")

    elapsed = time.perf_counter() - t0
    detail = (f"scenario-1 means {means1}; scenario-4 means {means4}; "
              f"{elapsed:.0f}s (advisory target 900s)")
    if failures:
        detail += "; deviations: " + "; ".join(failures)
    _verdict(6, not failures, detail)


# -- 7: two-category reduction --------------------------------------------------

def test_07_two_category_reduction():
    rng = np.random.default_rng(3)
    for trial in range(200):
        lo = rng.normal(size=int(rng.integers(2, 9)))
        hi = rng.normal(0.5, 1.0, size=int(rng.integers(2, 9)))
        if trial % 3 == 0:
            lo, hi = np.round(lo, 1), np.round(hi, 1)
        value = ehum_fast([lo, hi])
        strict = mann_whitney_strict(lo, hi)
        if value.count != strict:
            _verdict(7, False, f"trial {trial}: count {value.count} vs U {strict}")
        lower, upper = frechet_bounds([lo, hi])
        auc = pairwise_auc(lo, hi)
        if not (lower == upper == auc == value.value):
            _verdict(7, False,
                     f"trial {trial}: bounds ({lower}, {upper}) vs AUC {auc}")
    _verdict(7, True,
             "200 two-category draws: exact Mann-Whitney agreement and "
             "collapsed envelope bounds")


# -- 8: equal-weight fingerprint -------------------------------------------------

def _write_wide_csv(path, d, rng):
    names = [f"m{k + 1}" for k in range(d)]
    with open(path, "w") as fh:
        fh.write("outcome," + ",".join(names) + "\n")
        for label in range(3):
            for _ in range(8):
                row = rng.normal(1.5 * label, 1.0, size=d)
                fh.write(f"{label}," + ",".join(repr(float(v)) for v in row) + "\n")
    return names


def test_08_equal_weight_fingerprint(tmp_path, capsys):
    rng = np.random.default_rng(0)
    printed = {}
    for d, token in ((14, "0.267"), (4, "0.500")):
        csv = tmp_path / f"d{d}.csv"
        names = _write_wide_csv(csv, d, rng)
        code = cli.main([
            "fit", "--data", str(csv), "--outcome", "outcome",
            "--markers", ",".join(names), "--methods", "naive",
            "--out", str(tmp_path / f"out{d}"),
        ])
        out = capsys.readouterr().out
        printed[d] = token in out and code == 0
    with capsys.disabled():
        _verdict(8, printed[14] and printed[4],
                 "equal weights print 0.267 at d=14 and 0.500 at d=4")


# -- 9: step-down monotonicity ----------------------------------------------------

def test_09_step_down_monotonicity():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(100):
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        cats = tuple(
            rng.normal(0.5 * j, 1.0, size=(int(rng.integers(4, 10)), d))
            for j in range(m)
        )
        data = MarkerDataset(cats, tuple(f"m{k}" for k in range(d)),
                             tuple(range(m)))
        res = step_down(lambda s: ehum_fast(s).value, data)
        stages = list(res.stage_values)
        if any(b < a for a, b in zip(stages, stages[1:])):
            _verdict(9, False, f"trial {trial}: decreasing stages {stages}")
        checked += 1
    _verdict(9, True, f"{checked} random datasets, stage objectives non-decreasing")


# -- 10: output determinism --------------------------------------------------------

def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_10_output_determinism(tmp_path, capsys):
    sim_args = ["simulate", "--scenario", "2", "--n", "25,25,25", "--reps", "4",
                "--methods", "empirical,minmax,parametric,frechet,sshum,nshum",
                "--seed", "9"]
    dirs = [tmp_path / f"sim{k}" for k in range(3)]
    for out, workers in zip(dirs, ("1", "1", "3")):
        assert cli.main(sim_args + ["--out", str(out), "--workers", workers]) == 0

    rng = np.random.default_rng(1)
    csv = tmp_path / "fit.csv"
    _write_wide_csv(csv, 3, rng)
    fit_args = ["fit", "--data", str(csv), "--outcome", "outcome",
                "--markers", "m1,m2,m3", "--methods", "empirical,sshum,naive",
                "--bootstrap", "5", "--seed", "3", "--format", "csv"]
    fdirs = [tmp_path / f"fit{k}" for k in range(2)]
    for out in fdirs:
        assert cli.main(fit_args + ["--out", str(out)]) == 0
    capsys.readouterr()

    mismatches = []
    sim_files = ("study_summary.json", "study_ehum.csv",
                 "study_coefficients.csv", "manifest.json")
    for name in sim_files:
        blobs = {_read(d / name) for d in dirs}
        if len(blobs) != 1:
            mismatches.append(f"simulate/{name}")
    fit_files = ("fit_report.json", "fit_report.csv", "manifest.json")
    for name in fit_files:
        if _read(fdirs[0] / name) != _read(fdirs[1] / name):
            mismatches.append(f"fit/{name}")

    hashes = {json.loads(_read(d / "manifest.json"))["manifest_hash"] for d in dirs}
    if len(hashes) != 1:
        mismatches.append("manifest hash differs across worker counts")

    with capsys.disabled():
        _verdict(10, not mismatches,
                 "byte-identical machine outputs across reruns and worker counts"
                 + (f"; mismatches: {mismatches}" if mismatches else ""))
