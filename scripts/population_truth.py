#!/usr/bin/env python3
"""Population-level truths for the simulation designs.

For the Gaussian scenarios: the closed-form optimal ratios and the Monte
Carlo HUM at that optimum.  For the Weibull scenario: the HUM at a supplied
coefficient vector (default: the reference true value) plus a coarse grid
scan for the population argmax, since no closed form exists there.

Example:
    python3 scripts/population_truth.py --mc-n 1000000
"""

import argparse
import sys

import numpy as np

from shumfit import SCENARIOS, ScenarioConfig, population_hum


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mc-n", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weibull-beta", default="0.047,0.456,1.0",
                   help="comma-separated coefficients for scenario 4")
    p.add_argument("--scan", action="store_true",
                   help="grid-scan scenario 4 for the population argmax")
    return p.parse_args()


def main():
    args = parse_args()
    for sid, design in SCENARIOS.items():
        cfg = ScenarioConfig(scenario_id=sid, n=(10, 10, 10))
        if design.oracle is not None:
            label, beta = "oracle", design.oracle
        else:
            label, beta = "beta", np.array([float(v) for v in args.weibull_beta.split(",")])
        p, se = population_hum(cfg, beta, mc_n=args.mc_n, seed=args.seed)
        print(f"scenario {sid}: {label} {np.round(beta, 4)}  HUM {p:.4f} (se {se:.4f})")
        if args.scan and design.oracle is None:
            grid = [np.array([b1, b2, 1.0]) for b1 in np.linspace(0.0, 0.2, 11)
                    for b2 in np.linspace(0.2, 0.7, 11)]
            coarse = max(args.mc_n // 10, 10**4)
            best = max(grid, key=lambda b: population_hum(cfg, b, mc_n=coarse,
                                                          seed=args.seed)[0])
            val, se = population_hum(cfg, best, mc_n=args.mc_n, seed=args.seed)
            print(f"scenario {sid} grid argmax: beta {np.round(best, 4)}  "
                  f"HUM {val:.4f} (se {se:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
