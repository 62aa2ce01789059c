"""The benchmark tracer's boundary table must match where shumfit looks up
its functions, and the benchmark's workloads must reach every boundary they
require.

``perfbench/tracing.py`` patches each traced function at every module that
imports it by name, and refuses to install when a site no longer holds the
expected function.  Installing it here makes a refactor that moves a traced
function fail the test suite, not only a traced benchmark run.  A traced
benchmark run also stops when a boundary its workload requires saw no call,
so a fit path that bypasses one fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import shumfit
import shumfit.cli  # noqa: F401  (the tracer patches the cli module too)
from shumfit import FitConfig, MarkerDataset, ScenarioConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """Import ``perfbench/<name>.py`` as ``name`` for the length of one test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _load_run(monkeypatch):
    """perfbench/run.py, its sibling imports and the BLAS settings it makes."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("reference", "selftest", "tracing"):
        _load(monkeypatch, name)
    return _load(monkeypatch, "run")


def _traced(run, name, fn, *args, **kwargs):
    """One traced call of ``fn``: the tracer and the call's result."""
    tracer = run.Tracer(shumfit)
    tracer.install()
    try:
        return tracer, tracer.call(name, fn, *args, **kwargs)
    finally:
        tracer.restore()


def test_benchmark_workloads_reach_every_required_boundary(monkeypatch, tmp_path, capsys):
    run = _load_run(monkeypatch)
    rng = np.random.default_rng(0)
    csv_path = tmp_path / "input.csv"
    markers = run.gaussian_csv(csv_path, rng, 40, 3, np.array([1.0, 1.1, 1.2]), np.eye(3))
    smoothed = ("sshum", "nshum")
    argv = ["fit", "--data", str(csv_path), "--outcome", "stage",
            "--markers", ",".join(markers), "--methods", ",".join(smoothed),
            "--out", str(tmp_path / "out")]
    fit_tracer, status = _traced(run, "cli.main", shumfit.cli.main, argv)
    capsys.readouterr()
    assert status == 0
    boot_csv = tmp_path / "input4.csv"
    boot_markers = run.gaussian_csv(boot_csv, rng, 20, 4, np.linspace(0.25, 0.75, 4),
                                    np.eye(4))
    boot_methods = run.BootstrapM4.methods
    argv = ["fit", "--data", str(boot_csv), "--outcome", "stage",
            "--markers", ",".join(boot_markers), "--methods", ",".join(boot_methods),
            "--bootstrap", "2", "--format", "csv", "--out", str(tmp_path / "boot")]
    # replicate fits on pool workers would escape this process's tracer
    monkeypatch.setenv("SHUMFIT_WORKERS", "1")
    boot_tracer, status = _traced(run, "cli.main", shumfit.cli.main, argv)
    capsys.readouterr()
    assert status == 0
    assert boot_tracer.calls("methods.fit") == len(boot_methods) * (2 + 1)
    methods = shumfit.cli.STUDY_METHODS
    study = ScenarioConfig(scenario_id=1, n=(15, 15, 15), replications=2)
    study_tracer, _ = _traced(run, "simulate.run_study", shumfit.simulate.run_study,
                              study, methods, FitConfig(), workers=1)

    for tracer, required in (
        (fit_tracer, run.FitN1000.required + tuple(f"methods.fit_{m}" for m in smoothed)),
        (study_tracer, run.Study.required + tuple(f"methods.fit_{m}" for m in methods)),
        (boot_tracer, run.BootstrapM4.required
         + tuple(f"methods.fit_{m}" for m in boot_methods)),
    ):
        assert [name for name in required if tracer.calls(name) == 0] == []


def test_tracer_installs_at_every_boundary_and_restores(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    # each site must hold the function of the boundary's home module
    sites = {(site, b.attr): getattr(getattr(shumfit, b.home), b.attr, None)
             for b in tracing.BOUNDARIES for site in b.sites}
    cats = tuple(np.array([[j + 0.1 * i, 2.0 * j - 0.2 * i] for i in range(4)])
                 for j in range(3))
    data = MarkerDataset(cats, ("a", "b"), (0, 1, 2))

    tracer = tracing.Tracer(shumfit)
    tracer.install()
    try:
        for (site, attr), original in sites.items():
            assert getattr(getattr(shumfit, site), attr) is not original
        shumfit.methods.fit_method(data, "naive")
        assert tracer.calls("methods.fit") == 1
    finally:
        tracer.restore()
    for (site, attr), original in sites.items():
        assert getattr(getattr(shumfit, site), attr) is original
