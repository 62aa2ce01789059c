"""Command-line front end: fit, simulate, hum.

Machine outputs are deterministic given the seed: JSON keeps full float
precision, table CSVs round to 4 decimals, stdout tables to 3.  Wall-clock
diagnostics (raw command, workers, timings) go to timings.json only, so every
other artifact of a run is byte-identical across repeats and worker counts.
Every file is written by ``_write_outputs``, which embeds the hash of the
reproducible manifest (config, seed, version) and writes manifest.json.

Exit codes: 0 success, 2 input/flag errors or an output directory that cannot
be made or written, 3 fit failures.  The output directory is made as the last
input check, so an input error leaves none and a fit failure leaves it empty.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .data import MarkerDataset, finite_number, load_csv, project_scores
from .errors import InvalidParameter, ShumFitError, StudyAborted
from .hum import ehum_fast, random_guess_baseline
from .methods import (
    METHOD_NAMES,
    METHODS,
    FitConfig,
    bootstrap_se,
    fit_method,
    fit_naive,
    unit_norm_aligned,
)
from .simulate import ScenarioConfig, run_study
from .smooth import default_lambda, lambda_rule_check

STUDY_METHODS = ("empirical", "minmax", "parametric", "frechet", "sshum", "nshum")


# ---------------------------------------------------------------------------
# manifest and writers
# ---------------------------------------------------------------------------

def _write_outputs(args, out, config, seed, files, timings=None):
    """Write ``files`` into ``out``, stamped with the manifest hash of ``(config, seed)``.

    A dict is written as JSON with a ``manifest_hash`` key; a ``.csv`` entry is
    ``(header, rows)`` under a ``# manifest_hash=`` line, floats to 4 decimals.
    manifest.json follows, then timings.json when ``timings`` is given.
    Returns the exit code: 0, or 2 when a file cannot be written.
    """
    manifest = {"config": config, "seed": seed, "version": __version__}
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    mhash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    files = {**files, "manifest.json": manifest}
    if timings is not None:
        files["timings.json"] = {"command": args.raw_argv, **timings}
    try:
        for name, content in files.items():
            with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
                if name.endswith(".csv"):
                    header, rows = content
                    fh.write(f"# manifest_hash={mhash}\n" + ",".join(header) + "\n")
                    for row in rows:
                        fh.write(",".join(f"{v:.4f}" if isinstance(v, float) else str(v)
                                          for v in row) + "\n")
                else:
                    # np.float64 subclasses float, so json writes it with
                    # float's repr; arrays and numpy integers go through tolist()
                    json.dump({**content, "manifest_hash": mhash}, fh, indent=2,
                              sort_keys=True, default=lambda v: v.tolist())
                    fh.write("\n")
    except OSError as exc:
        return _fail(f"cannot write outputs: {exc}", 2)
    return 0


def _out_dir(args):
    out = args.out or os.environ.get("SHUMFIT_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _workers(args):
    """--workers, else SHUMFIT_WORKERS, else the CPUs this process may run on."""
    value, source = getattr(args, "workers", None), "--workers"
    if value is None:
        value, source = os.environ.get("SHUMFIT_WORKERS") or None, "SHUMFIT_WORKERS"
    if value is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidParameter(f"{source} must be a positive integer, got {value!r}")
    return workers


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _parse_methods(token, allowed):
    methods = [m.strip() for m in token.split(",") if m.strip()]
    for m in methods:
        if m not in allowed:
            raise ShumFitError(f"unknown method {m!r} (choose from {', '.join(allowed)})")
    if not methods or len(set(methods)) < len(methods):
        raise ShumFitError(f"--methods must name one or more distinct methods, got {token!r}")
    return methods


def _load_dataset(args):
    markers = [m.strip() for m in args.markers.split(",") if m.strip()]
    data = load_csv(args.data, args.outcome, markers)
    if data.n_dropped:
        print(f"dropped {data.n_dropped} incomplete row(s)", file=sys.stderr)
    if getattr(args, "log_transform", False):
        for x in data.categories:
            if not (x > 0).all():
                raise ShumFitError("log transform needs strictly positive marker values")
        data = MarkerDataset(
            categories=tuple(np.log(x) for x in data.categories),
            marker_names=data.marker_names,
            category_labels=data.category_labels,
            n_dropped=data.n_dropped,
        )
    return data


def _resolve_lambda(args, data):
    if args.lam == "auto":
        return default_lambda(data.n_total), True
    lam = finite_number(args.lam)
    if lam is None or lam <= 0:
        raise ShumFitError(f"--lambda expects a positive number or 'auto', got {args.lam!r}")
    return lam, False


def cmd_fit(args):
    t0 = time.perf_counter()
    try:
        data = _load_dataset(args)
        methods = _parse_methods(args.methods, METHOD_NAMES)
        lam, auto_lam = _resolve_lambda(args, data)
        if args.bootstrap < 0 or args.bootstrap == 1:
            raise ShumFitError(f"--bootstrap must be 0 or at least 2, got {args.bootstrap}")
        if args.seed < 0:
            raise ShumFitError(f"--seed must be non-negative, got {args.seed}")
        workers = _workers(args) if args.bootstrap else 1
        out = _out_dir(args)
    except (ShumFitError, OSError) as exc:
        return _fail(str(exc), 2)

    cfg = FitConfig(lam=lam)
    reports = {}
    for method in methods:
        try:
            report = fit_method(data, method, cfg)
        except (ShumFitError, np.linalg.LinAlgError) as exc:
            return _fail(f"fit failed for method {method}: {exc}", 3)
        reports[method] = report
        if auto_lam and METHODS[method].kernel is not None:
            frac = lambda_rule_check(data, report.coefficients.beta, lam)
            msg = f"lambda rule check ({method}): {frac:.3f} of adjacent pairs exceed 5*lambda"
            print(msg, file=sys.stderr)
            if frac < 0.9:
                print("warning: smoothing bandwidth may be too wide for this data",
                      file=sys.stderr)
    summaries = {}
    if args.bootstrap:
        try:
            summaries = bootstrap_se(data, reports, args.bootstrap, args.seed, cfg, workers)
        except (ShumFitError, np.linalg.LinAlgError) as exc:
            return _fail(f"bootstrap failed: {exc}", 3)

    config = {
        "data": os.path.basename(args.data),
        "outcome": args.outcome,
        "markers": list(data.marker_names),
        "methods": methods,
        "lambda": lam,
        "lambda_auto": auto_lam,
        "bootstrap": args.bootstrap,
        "log_transform": bool(args.log_transform),
        "format": args.format,
    }
    entries = {}
    for method, report in reports.items():
        entry = {
            "coefficients": report.coefficients.beta,
            "anchor_index": report.coefficients.anchor_index,
            "coefficients_unit_norm": unit_norm_aligned(report.coefficients.beta),
            "ehum": report.ehum_at_solution,
            "objective": report.objective_at_solution,
            "iterations": report.iterations,
            "converged": report.converged,
        }
        if summaries:
            entry["bootstrap"] = {
                "se_coefficients": summaries[method].se_coefficients,
                "se_ehum": summaries[method].se_ehum,
                "replicates": summaries[method].n_replicates,
                "failures": summaries[method].n_failures,
                "convention": "unit_norm_aligned",
            }
        entries[method] = entry
    files = {"fit_report.json": {
        "n_per_category": list(data.sizes),
        "category_labels": list(data.category_labels),
        "n_dropped": data.n_dropped,
        "reports": entries,
    }}
    if args.format == "csv":
        rows = []
        for method, entry in entries.items():
            names = METHODS[method].features or data.marker_names
            for name, value in zip(names, entry["coefficients_unit_norm"]):
                rows.append([method, name, float(value)])
            rows.append([method, "ehum", entry["ehum"]])
            if summaries:
                rows.append([method, "se_ehum", entry["bootstrap"]["se_ehum"]])
        files["fit_report.csv"] = (["method", "quantity", "value"], rows)
    code = _write_outputs(args, out, config, args.seed, files,
                          {"workers": workers, "wall_clock_s": time.perf_counter() - t0})
    if code == 0:
        _print_fit_table(data, entries)
    return code


def _print_fit_table(data, entries):
    methods = list(entries)
    dim_methods = [m for m in methods if METHODS[m].features is None]
    width = max(12, *(len(m) + 2 for m in methods))
    if dim_methods:
        print("coefficients (unit norm)")
        print(f"{'marker':<12}" + "".join(f"{m:>{width}}" for m in dim_methods))
        for j, name in enumerate(data.marker_names):
            cells = "".join(f"{entries[m]['coefficients_unit_norm'][j]:>{width}.3f}"
                            for m in dim_methods)
            print(f"{name:<12}" + cells)
    for m in methods:
        if m not in dim_methods:
            beta = entries[m]["coefficients"]
            first, second = METHODS[m].features
            print(f"{m}: {first} + ({beta[1]:.3f}) * {second}, "
                  f"ehum {entries[m]['ehum']:.3f}")
    print(f"{'ehum':<12}" + "".join(
        f"{entries[m]['ehum']:>{width}.3f}" for m in dim_methods))
    if "bootstrap" in entries[methods[0]]:
        print(f"{'se(ehum)':<12}" + "".join(
            f"{entries[m]['bootstrap']['se_ehum']:>{width}.3f}" for m in dim_methods))
    print(f"baseline 1/M! = {random_guess_baseline(data.n_categories):.4f}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    try:
        n = tuple(int(v) for v in args.n.split(","))
        methods = _parse_methods(args.methods, METHOD_NAMES)
        cfg = ScenarioConfig(scenario_id=args.scenario, n=n,
                             replications=args.reps, master_seed=args.seed)
        workers = _workers(args)
        out = _out_dir(args)
    except (ShumFitError, ValueError, OSError) as exc:
        return _fail(str(exc), 2)

    try:
        summary = run_study(cfg, methods, FitConfig(), workers=workers)
    except StudyAborted as exc:
        return _fail(str(exc), 3)
    except ShumFitError as exc:
        return _fail(str(exc), 2)

    config = {
        "scenario": args.scenario,
        "n": list(n),
        "reps": args.reps,
        "methods": methods,
    }
    payload = {"scenario": args.scenario, "n": list(n), "reps": args.reps, "methods": {}}
    ehum_rows, coef_rows = [], []
    for ms in summary.methods:
        payload["methods"][ms.method] = {
            "mean_ehum": ms.mean_ehum,
            "sd_ehum": ms.sd_ehum,
            "coef_mean": ms.coef_mean,
            "coef_sd": ms.coef_sd,
            "coef_bias": ms.coef_bias,
            "n_failures": ms.n_failures,
            "n_not_converged": ms.n_not_converged,
        }
        ehum_rows.append([ms.method, ms.mean_ehum, ms.sd_ehum, ms.n_failures])
        for j in range(ms.coef_mean.size):
            coef_rows.append([
                ms.method, f"c{j + 1}", float(ms.coef_mean[j]),
                float(ms.coef_bias[j]) if ms.coef_bias is not None else "",
                float(ms.coef_sd[j]),
            ])

    files = {
        "study_summary.json": payload,
        "study_ehum.csv": (["method", "mean_ehum", "sd_ehum", "n_failures"], ehum_rows),
        "study_coefficients.csv": (["method", "coefficient", "mean", "bias", "sd"],
                                   coef_rows),
    }
    timings = {ms.method: ms.wall_clock for ms in summary.methods}
    code = _write_outputs(args, out, config, args.seed, files,
                          {"workers": workers, "method_wall_clock_s": timings})
    if code:
        return code

    print(f"scenario {args.scenario}  n={n}  R={args.reps}  seed={args.seed}")
    print(f"{'method':<12}{'mean ehum':>12}{'sd':>10}{'failures':>10}")
    for ms in summary.methods:
        print(f"{ms.method:<12}{ms.mean_ehum:>12.3f}{ms.sd_ehum:>10.3f}"
              f"{ms.n_failures:>10d}")
    return 0


# ---------------------------------------------------------------------------
# hum
# ---------------------------------------------------------------------------

def cmd_hum(args):
    try:
        data = _load_dataset(args)
        if args.weights.strip() == "naive":
            weights = fit_naive(data).coefficients.beta
        else:
            weights = [finite_number(w) for w in args.weights.split(",")]
            if None in weights:
                raise ShumFitError(f"--weights expects numbers or 'naive', got {args.weights!r}")
            weights = np.array(weights)
        if weights.size != data.n_markers:
            raise ShumFitError(
                f"{weights.size} weights for {data.n_markers} markers"
            )
        out = _out_dir(args) if args.out or os.environ.get("SHUMFIT_OUT_DIR") else None
    except (ShumFitError, OSError) as exc:
        return _fail(str(exc), 2)

    combined = ehum_fast(project_scores(data, weights)).value
    individual = {}
    for j, name in enumerate(data.marker_names):
        individual[name] = ehum_fast([x[:, j] for x in data.categories]).value
    baseline = random_guess_baseline(data.n_categories)

    print(f"combined ehum: {combined:.3f}")
    print("individual marker ehum:")
    for name, value in individual.items():
        print(f"  {name:<12}{value:>8.3f}")
    print(f"baseline 1/M!: {baseline:.4f}")

    if not out:
        return 0
    config = {
        "data": os.path.basename(args.data),
        "outcome": args.outcome,
        "markers": list(data.marker_names),
        "weights": [float(w) for w in weights],
    }
    return _write_outputs(args, out, config, 0, {"hum.json": {
        "combined_ehum": combined,
        "individual_ehum": individual,
        "baseline": baseline,
    }})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="shumfit",
        description="Linear biomarker combinations for ordered multi-category outcomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit combination methods to a CSV dataset")
    fit.add_argument("--data", required=True)
    fit.add_argument("--outcome", required=True)
    fit.add_argument("--markers", required=True, help="comma-separated column names")
    fit.add_argument("--methods", default=",".join(METHOD_NAMES))
    fit.add_argument("--lambda", dest="lam", default="auto",
                     help="smoothing bandwidth, a number or 'auto' (1/sqrt(n))")
    fit.add_argument("--bootstrap", type=int, default=0, metavar="B")
    fit.add_argument("--log-transform", action="store_true")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", default=None)
    fit.add_argument("--format", choices=("json", "csv"), default="json")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run a replication study")
    sim.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), required=True)
    sim.add_argument("--n", required=True, help="per-category sizes, e.g. 120,120,120")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--methods", default=",".join(STUDY_METHODS))
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--out", default=None)
    sim.add_argument("--workers", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    hum = sub.add_parser("hum", help="evaluate the empirical HUM of fixed weights")
    hum.add_argument("--data", required=True)
    hum.add_argument("--outcome", required=True)
    hum.add_argument("--markers", required=True)
    hum.add_argument("--weights", required=True,
                     help="comma-separated weights, or 'naive'")
    hum.add_argument("--log-transform", action="store_true")
    hum.add_argument("--out", default=None)
    hum.set_defaults(func=cmd_hum)
    return parser


def main(argv=None):
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(raw)
    args.raw_argv = raw
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
