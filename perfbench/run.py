#!/usr/bin/env python3
"""shumfit benchmark: three serial workloads, timed end to end, traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload study_n120 --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each was chosen):

- ``study_n120``: ``run_study`` with one worker on the criterion-06 design,
  scenarios 1 and 4, n=(120,120,120), the six ``STUDY_METHODS``, R=2 per
  round, each round on new replicates.
- ``fit_n1000``: ``shumfit fit --methods sshum,nshum`` in process, on a CSV of
  one scenario-1 draw with 1000 subjects per category.
- ``bootstrap_m4``: ``shumfit fit --bootstrap 16`` in process, with methods
  empirical, frechet, minmax and parametric, on a CSV of four categories by
  six correlated Gaussian markers.

A run repeats whole rounds of its workload while the next round is expected
to end within ``--seconds`` (at least one round).  Study rounds fit new
replicates, bootstrap rounds cycle through eight CSV inputs with new
resamples, and ``fit_n1000`` rounds repeat the same fit.  Each round's
outputs are checked outside the timed region, and the run prints one JSON
object as its last line.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it then runs one more round with every module boundary traced
and reports the per-layer metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads, in this process and its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import selftest
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# run_study seeds replicate r with master_seed XOR r, so two master seeds that
# agree above the low bits of R-1 give the same replicates.  The workload seed
# is shifted above the bits the rounds of a run use, so each --seed gives its
# own replicates.  R must be a power of two (see Study.configs).
STUDY_SEED_SHIFT = 12
STUDY_REPLICATES = 2
# the in-sample EHUM of a fitted combination runs about 0.008 above the
# population maximum at n=120, which is 1.5 se over 24 replicates
STUDY_SE_TOL = 5
STUDY_SCENARIOS = (1, 4)
STUDY_N = 120
FIT_N = 1000
BOOTSTRAP_B = 16
# rounds cycle through this many datasets, so a run's median round averages
# over data as well as over bootstrap resamples
BOOTSTRAP_INPUTS = 8
# round k passes --seed (seed << 16) + k*B, so rounds draw disjoint resamples
BOOTSTRAP_SEED_SHIFT = 16
BOOTSTRAP_N = 100
BOOTSTRAP_M = 4
BOOTSTRAP_D = 6
BOOTSTRAP_RHO = 0.3

# the independent smoothed chain sums in another order; it agrees with the
# program's to about 4e-16 relative at n=1000
SMOOTH_RTOL = 1e-12
# a free coefficient moved by STEP must not raise the smoothed HUM by more
# than STEP_TOL at a reported smoothed maximum (see README.md)
STEP = 1e-3
STEP_TOL = 1e-7


def import_program():
    """Import shumfit from this checkout's src/, or exit non-zero."""
    if not (SRC / "shumfit" / "__init__.py").is_file():
        sys.exit(f"benchmark: no shumfit sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import shumfit
    import shumfit.cli

    if Path(shumfit.__file__).resolve().parent != SRC / "shumfit":
        sys.exit(f"benchmark: imported shumfit from {shumfit.__file__}, not {SRC}")
    return shumfit


class CheckFailed(Exception):
    pass


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


def gaussian_csv(path, rng, n, m, delta, cov):
    """Write rows of N(j*delta, cov), category j labelled j+1, shuffled.

    Returns the marker column names.
    """
    chol = np.linalg.cholesky(cov)
    rows = np.vstack([j * delta + rng.standard_normal((n, delta.size)) @ chol.T
                      for j in range(m)])
    labels = np.repeat(np.arange(1, m + 1), n)
    order = rng.permutation(labels.size)
    markers = [f"m{k + 1}" for k in range(delta.size)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", *markers])
        for i in order:
            out.writerow([labels[i], *(repr(float(v)) for v in rows[i])])
    return markers


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Study:
    """run_study on scenarios 1 and 4 at n=120, one worker.

    Round k fits replicates k*R .. k*R+R-1 of one long study, so the rounds
    of a run see different data and the median round averages over them.
    """

    name = "study_n120"
    required = ("simulate.run_study", "simulate.generate_scenario", "methods.fit",
                "hum.ehum_fast", "hum.adjacent_aucs", "smooth.shum_from_scores",
                "smooth.shum_gradient_full", "smooth.kernel_eval", "smooth.kernel_deriv",
                "optimize.step_down", "optimize.brent_maximize_1d",
                "optimize.bfgs_maximize", "optimize.nelder_mead_maximize",
                "data.project_scores")

    def __init__(self, shumfit, seed, workdir):
        self.shumfit = shumfit
        self.seed = seed
        self.methods = shumfit.cli.STUDY_METHODS
        self.required += tuple(f"methods.fit_{m}" for m in self.methods)
        self.fits = len(STUDY_SCENARIOS) * STUDY_REPLICATES * len(self.methods)
        self.smoothed = {}        # method -> [(mean, sd)] per round, scenario 1

    def configs(self, k):
        # with R a power of two, master ^ r == master + r for r < R
        master = (self.seed << STUDY_SEED_SHIFT) + k * STUDY_REPLICATES
        return [self.shumfit.ScenarioConfig(scenario_id=s, n=(STUDY_N,) * 3,
                                            replications=STUDY_REPLICATES,
                                            master_seed=master)
                for s in STUDY_SCENARIOS]

    def run_round(self, k, tracer=None):
        summaries, fits = [], []
        for cfg in self.configs(k):
            args = (cfg, self.methods, self.shumfit.FitConfig())
            if tracer is None:
                summaries.append(self.shumfit.run_study(*args, workers=1))
            else:
                start = len(tracer.fits)
                summaries.append(tracer.call("simulate.run_study",
                                             self.shumfit.simulate.run_study, *args,
                                             workers=1))
                fits.append(tracer.fits[start:])
        return summaries, fits

    def failures(self, outcome):
        return sum(ms.n_failures for summary in outcome[0] for ms in summary.methods)

    def check(self, outcome):
        summaries, fits = outcome
        for summary in summaries:
            scenario = summary.config.scenario_id
            expect([ms.method for ms in summary.methods] == list(self.methods),
                   f"scenario {scenario}: methods {summary.methods}")
            for ms in summary.methods:
                where = f"scenario {scenario} {ms.method}"
                expect(ms.n_failures == 0, f"{where}: {ms.n_failures} failed fits")
                expect(1 / 6 <= ms.mean_ehum <= 1, f"{where}: mean ehum {ms.mean_ehum}")
                if scenario == 1 and ms.method in ("sshum", "nshum") and not fits:
                    self.smoothed.setdefault(ms.method, []).append(
                        (ms.mean_ehum, ms.sd_ehum))
        for summary, recorded in zip(summaries, fits):
            scenario = summary.config.scenario_id
            expect(len(recorded) == STUDY_REPLICATES * len(self.methods),
                   f"scenario {scenario}: traced {len(recorded)} fits")
            by_method = {}
            for data, method, report in recorded:
                if method == "minmax":
                    scores = reference.minmax_scores(data.categories,
                                                     report.coefficients.beta[1])
                else:
                    scores = reference.linear_scores(data.categories,
                                                     report.coefficients.beta)
                want = reference.ordered_fraction(scores)
                expect(report.ehum_at_solution == want,
                       f"scenario {scenario} {method}: ehum "
                       f"{report.ehum_at_solution} != independent count {want}")
                by_method.setdefault(method, []).append(report.ehum_at_solution)
            for ms in summary.methods:
                mean = math.fsum(by_method[ms.method]) / len(by_method[ms.method])
                expect(abs(ms.mean_ehum - mean) <= 1e-12,
                       f"scenario {scenario} {ms.method}: study mean "
                       f"{ms.mean_ehum} != mean of its fits {mean}")

    def check_run(self):
        """Scenario-1 smoothed means over all untraced rounds vs 0.8238."""
        peak = reference.scenario1_population_max()
        r = STUDY_REPLICATES
        for method, rounds in self.smoothed.items():
            n = r * len(rounds)
            mean = math.fsum(m for m, _ in rounds) / len(rounds)
            ss = math.fsum((r - 1) * sd * sd + r * (m - mean) ** 2 for m, sd in rounds)
            se = math.sqrt(ss / (n - 1) / n)
            expect(abs(mean - peak) <= STUDY_SE_TOL * se,
                   f"scenario 1 {method}: mean ehum {mean:.4f} over {n} replicates is "
                   f"more than {STUDY_SE_TOL} se ({se:.4f}) from the population "
                   f"maximum {peak:.4f}")


class CliFit:
    """``shumfit fit`` called in process on CSV files the benchmark wrote.

    Round k reads input k modulo the number of inputs.
    """

    methods: tuple = ()
    extra: tuple = ()

    def __init__(self, shumfit, seed, workdir):
        self.main = shumfit.cli.main
        self.seed = seed
        self.workdir = workdir
        self.rounds = 0
        self.inputs = [workdir / f"input-{i}.csv" for i in range(self.n_inputs)]
        for i, path in enumerate(self.inputs):
            self.markers = self.make_input(path, seed, i)
        self.required += tuple(f"methods.fit_{m}" for m in self.methods)

    def input(self, k):
        return self.inputs[k % len(self.inputs)]

    def cli_seed(self, k):
        return self.seed

    def run_round(self, k, tracer=None):
        # a fresh output directory per round, so a check never reads stale files
        self.rounds += 1
        out = self.workdir / f"out-{self.rounds}"
        argv = ["fit", "--data", str(self.input(k)), "--outcome", "stage",
                "--markers", ",".join(self.markers), "--methods", ",".join(self.methods),
                "--seed", str(self.cli_seed(k)), "--out", str(out), *self.extra]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                status = self.main(argv)
            else:
                status = tracer.call("cli.main", self.main, argv)
        return k, out, status, sink.getvalue()

    def check_run(self):
        pass

    def failures(self, outcome):
        _, out, status, _ = outcome
        if status != 0:
            return self.fits
        return self.bootstrap_failures(out)

    def bootstrap_failures(self, out):
        return 0

    def report(self, outcome):
        k, out, status, text = outcome
        expect(status == 0, f"shumfit fit exited {status}: {text[-500:]}")
        with open(out / "fit_report.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        expect(sorted(payload["reports"]) == sorted(self.methods),
               f"reported methods {sorted(payload['reports'])}")
        cats = reference.read_csv(self.input(k), "stage", self.markers)
        return payload["reports"], cats


class FitN1000(CliFit):
    name = "fit_n1000"
    methods = ("sshum", "nshum")
    fits = 2
    n_inputs = 1
    required = ("cli.main", "data.load_csv", "methods.fit", "hum.ehum_fast",
                "smooth.shum_from_scores", "smooth.shum_gradient_full",
                "smooth.kernel_eval", "smooth.kernel_deriv", "smooth.lambda_rule_check",
                "optimize.step_down", "optimize.brent_maximize_1d",
                "optimize.bfgs_maximize", "data.project_scores")

    def make_input(self, path, seed, i):
        rng = np.random.default_rng([seed, FIT_N])
        delta = reference.SCENARIO1_DELTA
        return gaussian_csv(path, rng, FIT_N, 3, delta, np.eye(delta.size))

    def check(self, outcome):
        reports, cats = self.report(outcome)
        lam = 1.0 / math.sqrt(sum(x.shape[0] for x in cats))
        d = len(self.markers)
        for method, kernel in (("sshum", "sigmoid"), ("nshum", "normal")):
            rep = reports[method]
            beta = np.array(rep["coefficients"], dtype=float)
            scores = reference.linear_scores(cats, beta)
            want = reference.ordered_fraction(scores)
            expect(rep["ehum"] == want, f"{method}: ehum {rep['ehum']} != independent {want}")
            value = reference.smoothed_hum(scores, kernel, lam)
            expect(abs(rep["objective"] - value) <= SMOOTH_RTOL * value,
                   f"{method}: objective {rep['objective']} != independent smoothed {value}")
            singles = [reference.smoothed_hum([x[:, k] for x in cats], kernel, lam)
                       for k in range(d)]
            expect(rep["objective"] >= max(singles) - 1e-12,
                   f"{method}: objective {rep['objective']} below best single marker "
                   f"{max(singles)}")
            for k in range(d):
                if k == rep["anchor_index"]:
                    continue
                for sign in (1.0, -1.0):
                    moved = beta.copy()
                    moved[k] += sign * STEP
                    gain = reference.smoothed_hum(
                        reference.linear_scores(cats, moved), kernel, lam) - value
                    expect(gain <= STEP_TOL,
                           f"{method}: moving coefficient {k} by {sign * STEP} raises "
                           f"the smoothed HUM by {gain:.3g}")


class BootstrapM4(CliFit):
    name = "bootstrap_m4"
    methods = ("empirical", "frechet", "minmax", "parametric")
    extra = ("--bootstrap", str(BOOTSTRAP_B), "--format", "csv")
    fits = len(methods) * (BOOTSTRAP_B + 1)
    n_inputs = BOOTSTRAP_INPUTS
    required = ("cli.main", "data.load_csv", "methods.fit", "methods.bootstrap_se",
                "hum.ehum_fast", "hum.adjacent_aucs", "optimize.step_down",
                "optimize.brent_maximize_1d", "optimize.nelder_mead_maximize",
                "data.project_scores")

    def make_input(self, path, seed, i):
        rng = np.random.default_rng([seed, BOOTSTRAP_M, i])
        delta = np.linspace(0.25, 0.75, BOOTSTRAP_D)
        cov = np.full((BOOTSTRAP_D, BOOTSTRAP_D), BOOTSTRAP_RHO)
        np.fill_diagonal(cov, 1.0)
        return gaussian_csv(path, rng, BOOTSTRAP_N, BOOTSTRAP_M, delta, cov)

    def cli_seed(self, k):
        return (self.seed << BOOTSTRAP_SEED_SHIFT) + k * BOOTSTRAP_B

    def bootstrap_failures(self, out):
        with open(out / "fit_report.json", encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
        return sum(rep["bootstrap"]["failures"] for rep in reports.values())

    def check(self, outcome):
        reports, cats = self.report(outcome)
        ehum = {}
        for method, rep in reports.items():
            beta = np.array(rep["coefficients"], dtype=float)
            if method == "minmax":
                scores = reference.minmax_scores(cats, beta[1])
            else:
                scores = reference.linear_scores(cats, beta)
            want = reference.ordered_fraction(scores)
            expect(rep["ehum"] == want, f"{method}: ehum {rep['ehum']} != independent {want}")
            ehum[method] = want
            if method == "frechet":
                upper = min(reference.adjacent_aucs(scores))
                expect(rep["objective"] == upper,
                       f"frechet: objective {rep['objective']} != min adjacent AUC {upper}")
                expect(rep["objective"] >= rep["ehum"], "frechet: objective below its ehum")
            boot = rep["bootstrap"]
            expect(boot["replicates"] == BOOTSTRAP_B,
                   f"{method}: {boot['replicates']} replicates, asked for {BOOTSTRAP_B}")
            expect(boot["failures"] <= 0.1 * BOOTSTRAP_B,
                   f"{method}: {boot['failures']} failed replicates")
            ses = [boot["se_ehum"], *boot["se_coefficients"]]
            expect(all(math.isfinite(v) and v >= 0 for v in ses),
                   f"{method}: bootstrap standard errors {ses}")
        best_single = max(reference.ordered_fraction([x[:, k] for x in cats])
                          for k in range(len(self.markers)))
        expect(ehum["empirical"] >= best_single,
               f"empirical: ehum {ehum['empirical']} below best single marker {best_single}")
        max_only = reference.ordered_fraction(reference.minmax_scores(cats, 0.0))
        expect(ehum["minmax"] >= max_only,
               f"minmax: ehum {ehum['minmax']} below the max-only score {max_only}")
        _, out, _, _ = outcome
        with open(out / "fit_report.csv", newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        expect(lines[0].startswith("# manifest_hash="), "fit_report.csv: no manifest line")
        rows = list(csv.reader(lines[1:]))
        written = {m: float(v) for m, q, v in rows[1:] if q == "ehum"}
        expect(written == {m: round(v, 4) for m, v in ehum.items()},
               f"fit_report.csv ehum rows {written}")


WORKLOADS = {w.name: w for w in (Study, FitN1000, BootstrapM4)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(args):
    """Median wall time from starting a fresh interpreter to inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            status = proc.wait(timeout=SETUP_TIMEOUT_S)
        if status != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {status} after {line!r}")
        times.append(elapsed)
    return statistics.median(times)


def record_check(check, errors):
    try:
        check()
    except CheckFailed as exc:
        errors.append(str(exc))


def measure(workload, seconds, errors):
    """Untraced rounds; returns their wall times and the fits attempted and failed."""
    walls, attempted, failed = [], 0, 0
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        gc.collect()
        t0 = time.perf_counter()
        outcome = workload.run_round(len(walls))
        walls.append(time.perf_counter() - t0)
        attempted += workload.fits
        failed += workload.failures(outcome)
        record_check(lambda: workload.check(outcome), errors)
    record_check(workload.check_run, errors)
    return walls, attempted, failed


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced_round(shumfit, workload, untraced_wall):
    tracer = Tracer(shumfit)
    tracer.install()
    try:
        gc.collect()
        t0 = time.perf_counter()
        outcome = workload.run_round(0, tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    missing = [name for name in workload.required if tracer.calls(name) == 0]
    if missing:
        raise RuntimeError(f"{workload.name}: traced boundaries saw no calls: "
                           f"{', '.join(missing)}")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = {"value": wall - untraced_wall, "unit": "s"}
    return outcome, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one timed set-up, then exit
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    shumfit = import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](shumfit, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        selftest.run(workdir)
        setup_s = measure_setup(args)
        errors = []
        walls, attempted, failed = measure(workload, args.seconds, errors)
        wall_s = statistics.median(walls)
        if args.trace:
            outcome, metrics = traced_round(shumfit, workload, wall_s)
            attempted += workload.fits
            failed += workload.failures(outcome)
            record_check(lambda: workload.check(outcome), errors)
            RESULTS.mkdir(exist_ok=True)
            with open(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", "w",
                      encoding="utf-8") as fh:
                json.dump(metrics, fh, indent=2, sort_keys=True)
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "fits_per_s": {"value": workload.fits / wall_s, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(walls)} round(s), "
          f"wall per round {[round(w, 3) for w in walls]}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
