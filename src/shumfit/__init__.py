"""Linear biomarker combinations for ordered multi-category outcomes.

Find coefficient vectors maximizing the (smoothed) empirical hypervolume
under the ROC manifold, alongside the standard competitors: direct empirical
maximization, the normal-model combination, the min-max reduction, the
adjacent-AUC envelope bounds, and equal weights.
"""

__version__ = "0.1.0"

from .data import (
    Coefficients,
    MarkerDataset,
    anchored_to_full,
    extract_theta,
    load_csv,
    project_scores,
)
from .hum import (
    HumValue,
    adjacent_aucs,
    ehum_bruteforce,
    ehum_fast,
    frechet_bounds,
    min_adjacent_auc,
    pairwise_auc,
    random_guess_baseline,
)
from .methods import (
    METHOD_NAMES,
    METHODS,
    BootstrapSummary,
    FitConfig,
    FitReport,
    bootstrap_se,
    fit_empirical,
    fit_frechet,
    fit_method,
    fit_minmax,
    fit_naive,
    fit_nshum,
    fit_parametric_normal,
    fit_sshum,
    polish_bfgs,
    unit_norm_aligned,
)
from .optimize import (
    OptimResult,
    StepDownResult,
    bfgs_maximize,
    brent_maximize_1d,
    nelder_mead_maximize,
    step_down,
)
from .simulate import (
    SCENARIOS,
    MethodSummary,
    ScenarioConfig,
    StudySummary,
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
from .smooth import (
    Kernel,
    SmoothingSpec,
    default_lambda,
    kernel_deriv,
    kernel_eval,
    lambda_rule_check,
    shum_from_scores,
    shum_gradient,
    shum_value,
)
