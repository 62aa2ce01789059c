"""The combination fitters and the stratified bootstrap.

Every fitter returns a :class:`FitReport` built by :func:`_report`, the one
place where a fit is scored: ``ehum_at_solution`` is the exact empirical HUM
of the reported combination's per-category scores.  That is the number the
study tables compare, regardless of which surrogate objective a method
optimized.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import Coefficients, MarkerDataset, anchored_to_full, project_scores
from .errors import (
    BootstrapUnstable,
    DimensionMismatch,
    InvalidParameter,
    ShumFitError,
    SingularCovariance,
)
from .hum import ehum_fast, min_adjacent_auc
from .optimize import (
    OptimResult,
    bfgs_maximize,
    brent_maximize_1d,
    nelder_mead_maximize,
    step_down,
)
from .smooth import (
    Kernel,
    SmoothingSpec,
    default_lambda,
    shum_from_scores,
    shum_gradient,
    shum_value,
)


@dataclass(frozen=True)
class FitConfig:
    """The fitters' one setting: the smoothing bandwidth ``lam``.

    ``lam=None`` means the 1/sqrt(total n) rule.  The polishers' iteration
    cap is ``optimize.MAX_ITERATIONS``.
    """

    lam: Optional[float] = None


@dataclass(frozen=True)
class BootstrapSummary:
    se_coefficients: np.ndarray
    se_ehum: float
    n_replicates: int
    n_failures: int


@dataclass(frozen=True)
class FitReport:
    method: str
    coefficients: Coefficients
    ehum_at_solution: float
    objective_at_solution: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class Method:
    """A fitter ``fit(data, cfg) -> FitReport`` and its method's properties.

    A method with a ``step_down_objective`` starts from step-down on it, and
    its fitter takes a third argument, ``step_downs`` (see :func:`fit_sshum`).
    """

    fit: Callable
    step_down_objective: Optional[Callable] = None
    kernel: Optional[Kernel] = None     # a smoothed objective's kernel: BFGS polish
    ratio: bool = True                  # study summaries divide by the anchor coefficient
    features: Optional[tuple] = None    # derived features the coefficients act on


def _smoothing(data: MarkerDataset, cfg: FitConfig, kernel: Kernel) -> SmoothingSpec:
    lam = cfg.lam if cfg.lam is not None else default_lambda(data.n_total)
    return SmoothingSpec(kernel, lam)


def _ehum_objective(scores) -> float:
    return ehum_fast(scores).value


def unit_norm_aligned(beta, reference=None) -> np.ndarray:
    """Scale to unit Euclidean norm, sign-aligned to ``reference``.

    The common convention for comparing coefficient vectors across bootstrap
    replicates that may anchor at different markers.
    """
    beta = np.asarray(beta, dtype=float)
    norm = float(np.linalg.norm(beta))
    if norm == 0.0:
        return beta.copy()
    out = beta / norm
    if reference is not None and float(out @ np.asarray(reference, dtype=float)) < 0:
        out = -out
    return out


# ---------------------------------------------------------------------------
# smooth-objective polish
# ---------------------------------------------------------------------------

def polish_bfgs(data: MarkerDataset, spec: SmoothingSpec, beta_init,
                anchor_index: int) -> OptimResult:
    """Simultaneous quasi-Newton refinement of all free coefficients.

    Maximizes the smoothed HUM of ``spec``; the empirical and bound
    objectives are piecewise constant and belong to the simplex polisher.
    BFGS evaluates the start first and only accepts ascent steps, so the
    result is never worse than the start.  It stops after at most
    ``optimize.MAX_ITERATIONS`` iterations.  Each point BFGS evaluates,
    a rejected trial included, costs one pass of ``shum_gradient``, whose
    value BFGS reads and whose gradient is kept for BFGS to ask for at the
    same point.
    """
    theta0 = np.delete(np.asarray(beta_init, dtype=float), anchor_index)
    kept = {}

    def value(theta):
        beta = anchored_to_full(theta, anchor_index)
        val, kept["gradient"] = shum_gradient(data, beta, spec, anchor_index)
        kept["theta"] = np.array(theta)
        return val

    def gradient(theta):
        if not np.array_equal(theta, kept.get("theta")):
            value(theta)
        return kept["gradient"]

    return bfgs_maximize(value, gradient, theta0)


def _report(method, scores, beta, anchor, objective_value=None, iterations=0,
            converged=True) -> FitReport:
    """The report of the combination ``beta``, anchored at ``anchor``.

    ``scores`` are the combination's per-category scores: ``project_scores``
    of ``beta`` for a linear method, ``max + coef * min`` for minmax.
    ``ehum_at_solution`` is their exact empirical HUM, and every fitter
    reports through here, so no other code scores a fit.
    ``objective_value=None`` means the method's objective is that HUM.  The
    defaults describe a report that took no iterations.
    """
    ehum = ehum_fast(scores).value
    return FitReport(
        method=method,
        coefficients=Coefficients(beta, anchor),
        ehum_at_solution=ehum,
        objective_at_solution=ehum if objective_value is None else float(objective_value),
        iterations=int(iterations),
        converged=bool(converged),
    )


def _smoothed_start(data: MarkerDataset, spec: SmoothingSpec, sd):
    """The best start for BFGS, by smoothed value, and its anchor.

    The candidates are the step-down beta and each single marker e_k,
    anchored at k; ties go to the earlier candidate, step-down first.
    Starting from the best single marker keeps the polished objective at
    least that marker's smoothed value, whatever objective step-down ran on.
    """
    starts = [(sd.beta, sd.anchor_index)]
    starts += [(e_k, k) for k, e_k in enumerate(np.eye(data.n_markers))]
    values = [shum_value(data, sd.beta, spec)]
    values += [shum_from_scores([x[:, k] for x in data.categories], spec)
               for k in range(data.n_markers)]
    return starts[int(np.argmax(values))]


def _step_down_then_polish(data: MarkerDataset, cfg: FitConfig, method: str,
                           step_downs: Optional[dict]) -> FitReport:
    """Step-down on the method's ``step_down_objective``, then a polish of
    all coefficients.

    The step-down comes from ``step_downs`` when it holds one for that
    objective; otherwise it is run and added.  A smoothed method is polished
    by BFGS on its smoothed objective from :func:`_smoothed_start`; the
    others by Nelder-Mead on the step-down objective from the step-down beta.
    """
    score_objective = METHODS[method].step_down_objective
    if step_downs is None:
        step_downs = {}
    if score_objective not in step_downs:
        step_downs[score_objective] = step_down(score_objective, data)
    sd = step_downs[score_objective]
    kernel = METHODS[method].kernel
    if kernel is not None:
        spec = _smoothing(data, cfg, kernel)
        beta0, anchor = _smoothed_start(data, spec, sd)
        res = polish_bfgs(data, spec, beta0, anchor)
    else:
        anchor = sd.anchor_index

        def f(theta):
            return score_objective(project_scores(data, anchored_to_full(theta, anchor)))

        res = nelder_mead_maximize(f, np.delete(sd.beta, anchor))
    beta = anchored_to_full(res.argmax, anchor)
    return _report(method, project_scores(data, beta), beta, anchor, res.value,
                   res.iterations, res.converged)


# ---------------------------------------------------------------------------
# the six methods
# ---------------------------------------------------------------------------

def fit_sshum(data: MarkerDataset, cfg: FitConfig = FitConfig(),
              step_downs: Optional[dict] = None) -> FitReport:
    """Maximize the sigmoid-smoothed HUM.

    Step-down on the exact empirical HUM, then BFGS on the smoothed
    objective from the best, by smoothed value, of the step-down beta and
    each single marker.  The reported objective is the smoothed HUM at the
    solution, at least that of every single marker.  Step-down's grid scans
    take hundreds of evaluations, each far cheaper on the exact HUM than on
    the smoothed one.

    ``step_downs`` maps a step-down objective to its ``StepDownResult`` on
    ``data``.  A loop that fits several methods on one dataset passes one
    dict to each, so nshum and empirical reuse this fit's step-down, or it
    reuses theirs.  Called alone, the fit runs its own.
    """
    return _step_down_then_polish(data, cfg, "sshum", step_downs)


def fit_nshum(data: MarkerDataset, cfg: FitConfig = FitConfig(),
              step_downs: Optional[dict] = None) -> FitReport:
    """Maximize the normal-CDF-smoothed HUM, by the search of :func:`fit_sshum`."""
    return _step_down_then_polish(data, cfg, "nshum", step_downs)


def fit_empirical(data: MarkerDataset, cfg: FitConfig = FitConfig(),
                  step_downs: Optional[dict] = None) -> FitReport:
    """Direct maximization of the exact empirical HUM.

    Step-down with the 1-D bracketed search per stage, then a Nelder-Mead
    polish over all free coefficients (the objective is piecewise constant,
    so improvement over the start is a weak inequality).  ``step_downs`` as
    in :func:`fit_sshum`.
    """
    return _step_down_then_polish(data, cfg, "empirical", step_downs)


def fit_frechet(data: MarkerDataset, cfg: FitConfig = FitConfig(),
                step_downs: Optional[dict] = None) -> FitReport:
    """Maximize the HUM's upper envelope, the minimum adjacent AUC.

    The report's ehum_at_solution is the exact empirical HUM at the solution.
    ``step_downs`` as in :func:`fit_sshum`.
    """
    return _step_down_then_polish(data, cfg, "frechet", step_downs)


def fit_minmax(data: MarkerDataset, cfg: FitConfig = FitConfig()) -> FitReport:
    """Single free coefficient on each subject's (max, min) marker pair."""
    if data.n_markers < 2:
        raise DimensionMismatch("min-max combination needs at least 2 markers")
    maxima = [x.max(axis=1) for x in data.categories]
    minima = [x.min(axis=1) for x in data.categories]

    def scores(coef):
        return [hi + coef * lo for hi, lo in zip(maxima, minima)]

    res = brent_maximize_1d(lambda coef: ehum_fast(scores(coef)).value)
    coef = float(res.argmax[0])
    return _report("minmax", scores(coef), np.array([1.0, coef]), 0,
                   iterations=res.iterations, converged=res.converged)


def fit_parametric_normal(data: MarkerDataset, cfg: FitConfig = FitConfig()) -> FitReport:
    """Normal-model combination: 3-category integral, closed form otherwise.

    The closed form solves pooled_cov @ x = mean adjacent mean-difference
    (the optimum under a common covariance with equal spacing).  With 3
    categories and several markers, per-category moments are plugged into the
    Gaussian ordering probability, evaluated by 201-node Gauss-Legendre
    quadrature on [-8, 8], and maximized by BFGS with finite-difference
    gradients from the closed-form direction.

    HUM is invariant to positive scaling only, so the direction is anchored
    where that keeps its orientation: at its last coefficient when positive;
    otherwise it is scaled to unit norm and, for the integral, anchored at
    its largest coefficient when positive.  Any other direction gets the
    closed-form report without an anchor.
    """
    beta_cf = _closed_form_direction(data)
    integral = data.n_categories == 3 and data.n_markers > 1
    if beta_cf[-1] > 1e-10:
        anchor = beta_cf.size - 1
    else:
        beta_cf = unit_norm_aligned(beta_cf)
        anchor = int(np.argmax(beta_cf)) if integral and beta_cf.max() > 0 else None
    if anchor is not None:
        beta_cf = beta_cf / beta_cf[anchor]
    if not integral or anchor is None:
        return _report("parametric", project_scores(data, beta_cf), beta_cf, anchor)

    mus, covs = _category_moments(data)

    def d_n(theta):
        return _gaussian_ordering_probability(anchored_to_full(theta, anchor), mus, covs)

    res = bfgs_maximize(d_n, lambda theta: _central_fd(d_n, theta),
                        np.delete(beta_cf, anchor))
    beta = anchored_to_full(res.argmax, anchor)
    return _report("parametric", project_scores(data, beta), beta, anchor, res.value,
                   res.iterations, res.converged)


def fit_naive(data: MarkerDataset, cfg: FitConfig = FitConfig()) -> FitReport:
    """Equal weights at unit Euclidean norm; no optimization."""
    beta = np.full(data.n_markers, 1.0 / np.sqrt(data.n_markers))
    return _report("naive", project_scores(data, beta), beta, None)


# ---------------------------------------------------------------------------
# parametric internals
# ---------------------------------------------------------------------------

def _category_moments(data: MarkerDataset):
    mus = [x.mean(axis=0) for x in data.categories]
    covs = []
    for label, x in zip(data.category_labels, data.categories):
        if x.shape[0] < 2:
            raise SingularCovariance(
                f"category {label!r} needs >= 2 rows for a covariance estimate"
            )
        covs.append(np.atleast_2d(np.cov(x.T)))
    return mus, covs


def _closed_form_direction(data: MarkerDataset) -> np.ndarray:
    mus = [x.mean(axis=0) for x in data.categories]
    weights = [x.shape[0] - 1 for x in data.categories]
    if sum(weights) <= 0:
        raise SingularCovariance("need at least one category with >= 2 rows")
    pooled = np.zeros((data.n_markers, data.n_markers))
    for w, x in zip(weights, data.categories):
        if w > 0:
            pooled += w * np.atleast_2d(np.cov(x.T))
    pooled /= sum(weights)
    delta = np.mean([mus[j + 1] - mus[j] for j in range(len(mus) - 1)], axis=0)
    try:
        direction = np.linalg.solve(pooled, delta)
    except np.linalg.LinAlgError:
        raise SingularCovariance("pooled covariance is singular") from None
    if not np.all(np.isfinite(direction)):
        raise SingularCovariance("pooled covariance is numerically singular")
    return direction


_GL_NODES = None


def _quadrature_nodes():
    global _GL_NODES
    if _GL_NODES is None:
        x, w = np.polynomial.legendre.leggauss(201)
        u = 8.0 * x
        _GL_NODES = (u, 8.0 * w * np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi))
    return _GL_NODES


def _gaussian_ordering_probability(beta, mus, covs) -> float:
    from scipy.special import ndtr

    u, w = _quadrature_nodes()
    s = [max(float(np.sqrt(max(beta @ c @ beta, 0.0))), 1e-150) for c in covs]
    m = [float(beta @ mu) for mu in mus]
    low = ndtr((s[1] * u + (m[1] - m[0])) / s[0])
    high = ndtr((-s[1] * u + (m[2] - m[1])) / s[2])
    return float((low * high) @ w)


def _central_fd(f, theta, step=1e-6) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# the method table
# ---------------------------------------------------------------------------

# Order matters: METHOD_NAMES is the default ``fit --methods``, which enters
# the manifest hash.
METHODS = {
    "sshum": Method(fit_sshum, _ehum_objective, kernel=Kernel.SIGMOID),
    "nshum": Method(fit_nshum, _ehum_objective, kernel=Kernel.NORMAL),
    "empirical": Method(fit_empirical, _ehum_objective),
    "parametric": Method(fit_parametric_normal),
    "minmax": Method(fit_minmax, ratio=False, features=("max", "min")),
    "frechet": Method(fit_frechet, min_adjacent_auc),
    "naive": Method(fit_naive, ratio=False),
}
METHOD_NAMES = tuple(METHODS)


def fit_method(data: MarkerDataset, method: str, cfg: FitConfig = FitConfig(),
               step_downs: Optional[dict] = None) -> FitReport:
    """Dispatch a fit by method name (see METHODS).

    ``step_downs`` goes to a method that starts from step-down: the dict a
    loop over methods on one dataset shares (see :func:`fit_sshum`).
    """
    if method not in METHODS:
        raise InvalidParameter(f"unknown method {method!r}")
    entry = METHODS[method]
    if entry.step_down_objective is None:
        return entry.fit(data, cfg)
    return entry.fit(data, cfg, step_downs)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def _map_in_order(fn, tasks: list, workers: int = 1) -> list:
    """``[fn(t) for t in tasks]``, on up to ``workers`` processes.

    One worker or one task runs serially in this process.  Otherwise a pool
    of at most one process per task runs them, and the results come back in
    task order, so they cannot depend on the worker count.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=4))


def _resample(data: MarkerDataset, rng) -> MarkerDataset:
    # stratified: resample with replacement within each category, sizes kept
    categories = tuple(
        x[rng.integers(0, x.shape[0], x.shape[0])] for x in data.categories
    )
    return MarkerDataset(categories, data.marker_names, data.category_labels,
                         data.n_dropped)


def _fit_each(data: MarkerDataset, methods, cfg: FitConfig) -> dict:
    """Fit each method on ``data``: {method: (FitReport, seconds)}, None if it raised.

    The methods share one step-down per objective, timed with the first
    method that runs it.
    """
    out = {}
    step_downs = {}
    for method in methods:
        t0 = time.perf_counter()
        try:
            out[method] = (fit_method(data, method, cfg, step_downs), time.perf_counter() - t0)
        except (ShumFitError, np.linalg.LinAlgError):
            out[method] = None
    return out


def _bootstrap_replicate(task) -> dict:
    """:func:`_fit_each` on resample r, drawn from ``default_rng([seed, r])``."""
    data, methods, cfg, seed, r = task
    return _fit_each(_resample(data, np.random.default_rng([seed, r])), methods, cfg)


def bootstrap_se(data: MarkerDataset, points: dict, B: int = 100, seed: int = 0,
                 cfg: FitConfig = FitConfig(), workers: int = 1) -> dict:
    """Stratified bootstrap standard errors: {method: BootstrapSummary}.

    ``points`` maps each method to its fit on ``data`` with ``cfg``.
    Replicate r fits every method on one resample, drawn from
    ``default_rng([seed, r])``, so two seeds share no resample.  The B
    replicates run on up to ``workers`` processes, in one pool, and are
    collected in order, so results do not depend on the worker count.
    Coefficients are set to unit norm aligned with the method's point before
    taking standard deviations (replicates may anchor at different markers).
    More than 10% failed replicates of any method aborts.
    """
    if B < 2:
        raise InvalidParameter(f"need B >= 2 bootstrap replicates, got {B}")
    tasks = [(data, tuple(points), cfg, seed, r) for r in range(B)]
    replicates = _map_in_order(_bootstrap_replicate, tasks, workers)
    summaries = {}
    for method, point in points.items():
        reps = [rep[method][0] for rep in replicates if rep[method] is not None]
        n_failed = B - len(reps)
        if n_failed > 0.10 * B:
            raise BootstrapUnstable(method, n_failed, B)
        reference = unit_norm_aligned(point.coefficients.beta)
        coefs = np.asarray([unit_norm_aligned(rep.coefficients.beta, reference) for rep in reps])
        ehums = np.asarray([rep.ehum_at_solution for rep in reps])
        summaries[method] = BootstrapSummary(
            se_coefficients=np.std(coefs, axis=0, ddof=1),
            se_ehum=float(np.std(ehums, ddof=1)),
            n_replicates=B,
            n_failures=n_failed,
        )
    return summaries
