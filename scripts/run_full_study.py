#!/usr/bin/env python3
"""Full replication study across scenarios and sample sizes.

Prints one mean-EHUM block per (scenario, n) cell plus the anchored
coefficient summaries (mean, SD) for the methods where the ratio
convention applies, with the count of fits that had no ratio.  Serial by
default; pass --workers to fan out.

Example:
    python3 scripts/run_full_study.py --scenarios 1,4 --sizes 60,90,120 --reps 200
"""

import argparse
import sys
import time

import numpy as np

from shumfit import METHODS, SCENARIOS, ScenarioConfig, run_study
from shumfit.cli import STUDY_METHODS


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scenarios", default=",".join(map(str, SCENARIOS)))
    p.add_argument("--sizes", default="60,90,120",
                   help="comma-separated per-category n, one study per value")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--methods", default=",".join(STUDY_METHODS))
    return p.parse_args()


def print_block(cfg, summary, methods):
    by = summary.by_method()
    print(f"\nscenario {cfg.scenario_id}  n={cfg.n}  R={cfg.replications}  "
          f"seed={cfg.master_seed}")
    print(f"{'method':<12}{'mean ehum':>12}{'sd':>10}{'failures':>10}")
    for m in methods:
        s = by[m]
        print(f"{m:<12}{s.mean_ehum:>12.4f}{s.sd_ehum:>10.4f}{s.n_failures:>10d}")

    ratios = {m: by[m] for m in methods if METHODS[m].ratio}
    if cfg.design.oracle is not None:
        print("oracle ratios:", np.round(cfg.design.oracle, 4))
    d = next((s.coef_mean.size for s in ratios.values() if s.coef_mean is not None), 0)
    print(f"{'method':<12}" + "".join(f"{f'c{j + 1} mean(sd)':>20}" for j in range(d))
          + f"{'no ratio':>10}")
    for m, s in ratios.items():
        if s.coef_mean is None:
            cells = f"{'-':>20}" * d
        else:
            cells = "".join(f"{s.coef_mean[j]:>12.3f} ({s.coef_sd[j]:.3f})" for j in range(d))
        print(f"{m:<12}{cells}{s.n_ratio_undefined:>10d}")


def main():
    args = parse_args()
    scenarios = [int(v) for v in args.scenarios.split(",")]
    sizes = [int(v) for v in args.sizes.split(",")]
    methods = [m.strip() for m in args.methods.split(",")]
    t0 = time.perf_counter()
    for sid in scenarios:
        for n in sizes:
            cfg = ScenarioConfig(scenario_id=sid, n=(n, n, n),
                                 replications=args.reps, master_seed=args.seed)
            summary = run_study(cfg, methods, workers=args.workers)
            print_block(cfg, summary, methods)
    print(f"\ntotal wall clock {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
