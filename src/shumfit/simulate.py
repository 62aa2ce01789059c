"""Scenario generators and the replication study harness.

The built-in designs are the entries of :data:`SCENARIOS`, one per scenario
id, each built by :func:`gaussian_design` or :func:`weibull_design`.

Replicate r draws from ``default_rng([master_seed, r])``, so studies are
reproducible bit-for-bit regardless of worker count or scheduling, and two
master seeds share no replicate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .data import Coefficients, MarkerDataset, project_scores
from .errors import InvalidParameter, NotPositiveDefinite, StudyAborted
# unused here, but perfbench/tracing.py patches simulate.fit_method
from .methods import METHODS, FitConfig, _fit_each, _map_in_order, fit_method  # noqa: F401


def identity_cov(d: int) -> np.ndarray:
    return np.eye(d)


def exchangeable_cov(rho: float, d: int) -> np.ndarray:
    cov = np.full((d, d), rho)
    np.fill_diagonal(cov, 1.0)
    return cov


def ar1_cov(rho: float, d: int) -> np.ndarray:
    idx = np.arange(d)
    return rho ** np.abs(idx[:, None] - idx[None, :])


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_mvn(mean, cov, n: int, rng) -> np.ndarray:
    """n i.i.d. rows from N(mean, cov) via the Cholesky factor.

    Standard normals come from the generator's ziggurat transform of its
    uniform stream (PCG64 under numpy's default_rng).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("covariance is not positive definite") from None
    z = rng.standard_normal((n, mean.size))
    return mean + z @ chol.T


def weibull_quantile(u, shape: float, scale: float):
    """Inverse CDF: scale * (-log(1-u))**(1/shape)."""
    if not (shape > 0 and scale > 0):
        raise InvalidParameter(f"Weibull needs shape, scale > 0, got {shape}, {scale}")
    return scale * (-np.log1p(-np.asarray(u, dtype=float))) ** (1.0 / shape)


def sample_weibull(shape: float, scale: float, n: int, rng) -> np.ndarray:
    """n i.i.d. Weibull draws by inverse-CDF sampling of uniforms."""
    return weibull_quantile(rng.random(n), shape, scale)


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Design:
    """One simulation design: ``draw(category, n, rng)`` gives n rows of a
    category; ``anchor`` is the marker the study's ratios divide by, ``oracle``
    the optimal combination anchored there (None without a closed form), and
    ``n_categories`` the one category count allowed (None for any)."""

    draw: Callable[..., np.ndarray]
    anchor: int
    oracle: Optional[np.ndarray]
    n_categories: Optional[int] = None


def gaussian_design(delta, cov) -> Design:
    """Category i ~ N(i * delta, cov), for any number of categories.  The oracle
    solves cov x = delta, anchored at the marker with the smallest spacing."""
    delta = np.asarray(delta, dtype=float)
    x = np.linalg.solve(cov, delta)
    anchor = int(np.argmin(delta))
    return Design(lambda i, n, rng: sample_mvn(i * delta, cov, n, rng), anchor, x / x[anchor])


def weibull_design(shapes, scales) -> Design:
    """Marker j of category i ~ Weibull(shapes[j], scales[i]), for exactly
    ``len(scales)`` categories; no closed-form oracle, anchored at the last marker."""
    shapes = np.asarray(shapes, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def draw(i, n, rng):  # one uniform draw of n per marker, in marker order
        return np.column_stack([sample_weibull(k, scales[i], n, rng) for k in shapes])
    return Design(draw, shapes.size - 1, None, scales.size)


SCENARIOS = {
    1: gaussian_design((1.0, 1.1, 1.2), identity_cov(3)),
    2: gaussian_design((1.0, 1.1, 1.2), exchangeable_cov(0.2, 3)),
    3: gaussian_design((1.0, 1.1, 1.2), ar1_cov(0.2, 3)),
    4: weibull_design(shapes=(0.5, 1.0, 1.5), scales=(1.0, 2.0, 3.0)),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A study of one design: scenario id (a key of ``SCENARIOS``), per-category
    sizes, R, master seed."""

    scenario_id: int
    n: tuple
    replications: int = 200
    master_seed: int = 1

    def __post_init__(self):
        if self.scenario_id not in SCENARIOS:
            raise InvalidParameter(f"unknown scenario {self.scenario_id}")
        if len(self.n) < 2 or any(int(v) < 1 for v in self.n):
            raise InvalidParameter(f"bad category sizes {self.n}")
        k = self.design.n_categories
        if k is not None and len(self.n) != k:
            raise InvalidParameter(
                f"scenario {self.scenario_id} needs exactly {k} categories, got {len(self.n)}")
        if self.replications < 1:
            raise InvalidParameter("need at least 1 replication")
        if self.master_seed < 0:
            raise InvalidParameter("master seed must be non-negative")
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))

    @property
    def design(self) -> Design:
        return SCENARIOS[self.scenario_id]


def generate_scenario(cfg: ScenarioConfig, replicate_index: int) -> MarkerDataset:
    """Draw one dataset for the given replicate index."""
    if replicate_index < 0:
        raise InvalidParameter("replicate index must be non-negative")
    rng = np.random.default_rng([cfg.master_seed, replicate_index])
    categories = tuple(cfg.design.draw(i, n_i, rng) for i, n_i in enumerate(cfg.n))
    return MarkerDataset(
        categories=categories,
        marker_names=tuple(f"m{j + 1}" for j in range(categories[0].shape[1])),
        category_labels=tuple(range(len(cfg.n))),
    )


# ---------------------------------------------------------------------------
# population quantities
# ---------------------------------------------------------------------------

def true_beta_oracle(cfg: ScenarioConfig) -> Coefficients:
    """The design's optimal combination, anchored (coefficient 1) at its study anchor."""
    design = cfg.design
    if design.oracle is None:
        raise InvalidParameter(f"no closed-form optimum for scenario {cfg.scenario_id}")
    return Coefficients(design.oracle.copy(), design.anchor)


def population_hum(cfg: ScenarioConfig, beta, mc_n: int = 10**6, seed: int = 0):
    """Monte Carlo estimate of P(correct ordering) under the true design.

    Returns (value, standard error) with se = sqrt(p(1-p)/mc_n).
    """
    if mc_n < 10**4:
        raise InvalidParameter(f"need mc_n >= 1e4, got {mc_n}")
    beta = np.asarray(beta, dtype=float)
    rng = np.random.default_rng(seed)
    scores = [cfg.design.draw(i, mc_n, rng) @ beta for i in range(len(cfg.n))]
    ordered = np.ones(mc_n, dtype=bool)
    for j in range(len(scores) - 1):
        ordered &= scores[j + 1] > scores[j]
    p = float(ordered.mean())
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / mc_n)


# ---------------------------------------------------------------------------
# replication study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSummary:
    method: str
    mean_ehum: float
    sd_ehum: float
    coef_mean: Optional[np.ndarray]     # None when no replicate has a defined ratio
    coef_sd: Optional[np.ndarray]
    coef_bias: Optional[np.ndarray]
    n_failures: int
    n_not_converged: int = 0            # fits whose polisher did not converge
    n_ratio_undefined: int = 0          # fits left out of the ratio summaries
    wall_clock: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class StudySummary:
    config: ScenarioConfig
    methods: tuple                      # MethodSummary per requested method

    def by_method(self) -> dict:
        return {m.method: m for m in self.methods}


def _replicate_worker(args):
    """Fit each method on replicate r: {method: (FitReport, seconds)}, None if it raised."""
    cfg, methods, fit_cfg, r = args
    return _fit_each(generate_scenario(cfg, r), methods, fit_cfg)


def run_study(cfg: ScenarioConfig, methods: Sequence[str],
              fit_cfg: FitConfig = FitConfig(), workers: int = 1) -> StudySummary:
    """Fit every method on R independent replicates and aggregate.

    EHUM summaries use each method's achieved empirical HUM.  Coefficient
    summaries of the methods whose ``METHODS`` entry has ``ratio`` are
    converted to the common anchored-ratio convention (the design's
    ``anchor``) so bias columns are comparable to its oracle; the others
    are averaged as fitted and get no bias.  A fit whose anchor coefficient
    is exactly 0 has no ratio: the ratio summaries leave it out and count it
    as ``n_ratio_undefined``, and are None when no fit has a ratio.  SDs over
    fewer than two values are 0.  Fits whose polisher stopped without
    converging still count, and are reported per method as
    ``n_not_converged``.  The R replicates run on up to ``workers``
    processes (serial by default) and are aggregated in replicate order, so
    the worker count cannot change results.  More than 5% failed (replicate,
    method) fits aborts the study.
    """
    methods = list(methods)
    for m in methods:
        if m not in METHODS:
            raise InvalidParameter(f"unknown method {m!r}")
    tasks = [(cfg, tuple(methods), fit_cfg, r) for r in range(cfg.replications)]
    results = _map_in_order(_replicate_worker, tasks, workers)

    truth, anchor = cfg.design.oracle, cfg.design.anchor

    summaries = []
    n_failed_total = 0
    for method in methods:
        fits = [rep[method] for rep in results if rep[method] is not None]
        failures = len(results) - len(fits)
        n_failed_total += failures
        if not fits:
            raise StudyAborted(failures, cfg.replications)

        ehums = np.asarray([report.ehum_at_solution for report, _ in fits])
        coefs = np.asarray([report.coefficients.beta for report, _ in fits])
        ratio = METHODS[method].ratio
        n_undefined = 0
        if ratio:
            # the ratio convention: divide by the signed anchor coefficient
            defined = coefs[:, anchor] != 0.0
            n_undefined = int(np.count_nonzero(~defined))
            coefs = coefs[defined] / coefs[defined][:, anchor, None]
        coef_mean = coef_sd = bias = None
        if len(coefs):
            coef_mean = coefs.mean(axis=0)
            coef_sd = (np.std(coefs, axis=0, ddof=1) if len(coefs) > 1
                       else np.zeros_like(coef_mean))
            if truth is not None and ratio:
                bias = coef_mean - truth
        if len(ehums) > 1:
            sd_ehum = float(np.std(ehums, ddof=1))
        else:
            sd_ehum = 0.0
            warnings.warn("single-replicate study: SDs reported as 0")
        summaries.append(MethodSummary(
            method=method,
            mean_ehum=float(ehums.mean()),
            sd_ehum=sd_ehum,
            coef_mean=coef_mean,
            coef_sd=coef_sd,
            coef_bias=bias,
            n_failures=failures,
            n_not_converged=sum(not report.converged for report, _ in fits),
            n_ratio_undefined=n_undefined,
            wall_clock=sum(seconds for _, seconds in fits),
        ))

    if n_failed_total > 0.05 * cfg.replications * len(methods):
        raise StudyAborted(n_failed_total, cfg.replications * len(methods))
    return StudySummary(config=cfg, methods=tuple(summaries))
