#!/usr/bin/env python3
"""Smoothing-bandwidth sensitivity on one simulated draw.

Sweeps lambda over a log grid around the 1/sqrt(n) default and reports, for
both smooth objectives: the optimized EHUM, the smoothed objective at the
solution, and the fraction of adjacent cross pairs clearing the 5*lambda
separation rule.

Example:
    python3 scripts/bandwidth_sweep.py --scenario 1 --n 60 --points 7
"""

import argparse
import sys

import numpy as np

from shumfit import (
    SCENARIOS,
    FitConfig,
    ScenarioConfig,
    default_lambda,
    fit_nshum,
    fit_sshum,
    generate_scenario,
    lambda_rule_check,
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scenario", type=int, default=1, choices=sorted(SCENARIOS))
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--points", type=int, default=7)
    p.add_argument("--span", type=float, default=10.0,
                   help="grid spans default/span .. default*span")
    return p.parse_args()


def main():
    args = parse_args()
    cfg = ScenarioConfig(scenario_id=args.scenario, n=(args.n,) * 3,
                         master_seed=args.seed)
    data = generate_scenario(cfg, 0)
    lam0 = default_lambda(data.n_total)
    grid = np.geomspace(lam0 / args.span, lam0 * args.span, args.points)

    print(f"scenario {args.scenario}  n={cfg.n}  default lambda {lam0:.4f}")
    print(f"{'lambda':>10}{'kernel':>10}{'ehum':>10}{'objective':>12}{'rule':>8}")
    for lam in grid:
        for name, fitter in (("sigmoid", fit_sshum), ("normal", fit_nshum)):
            rep = fitter(data, FitConfig(lam=float(lam)))
            frac = lambda_rule_check(data, rep.coefficients.beta, float(lam))
            star = " *" if abs(lam - lam0) < 1e-12 else ""
            print(f"{lam:>10.4f}{name:>10}{rep.ehum_at_solution:>10.4f}"
                  f"{rep.objective_at_solution:>12.4f}{frac:>8.2f}{star}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
