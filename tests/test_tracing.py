"""The benchmark tracer's boundary table must match where shumfit looks up
its functions.

``perfbench/tracing.py`` patches each traced function at every module that
imports it by name, and refuses to install when a site no longer holds the
expected function.  Installing it here makes a refactor that moves a traced
function fail the test suite, not only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import shumfit
import shumfit.cli  # noqa: F401  (the tracer patches the cli module too)
from shumfit import MarkerDataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_at_every_boundary_and_restores(monkeypatch):
    tracing = _load_tracing(monkeypatch)
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
