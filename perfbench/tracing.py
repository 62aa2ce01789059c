"""Call tracing at the public boundaries of shumfit's modules.

A boundary is a public function of one module under ``src/shumfit/``.  The
tracer replaces it, for the length of one traced round, at every module that
looks it up, because the package imports functions by name: ``methods``
holds its own reference to ``hum.ehum_fast``, and ``step_down`` finds
``brent_maximize_1d`` in ``optimize``.  Before patching, the tracer checks
that each site still holds the very function it expects, so a refactor that
moves a function stops the traced run instead of leaving a metric at zero.

Timed boundaries open a span: its duration adds to the boundary's busy time,
and its duration minus that of the spans opened inside it to its self time.
Counted boundaries only count calls (and elements), which keeps the overhead
of high-frequency calls such as ``project_scores`` low.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    elements: int = 0
    evals: int = 0


@dataclass(frozen=True)
class Boundary:
    """``home.attr`` is traced as ``name`` at each module in ``sites``.

    ``elements_arg`` adds the size of that positional argument to
    ``elements``; ``objective_arg`` wraps that positional argument, the
    callable an optimizer receives, so that its calls count as ``evals``.
    """

    name: str
    home: str
    attr: str
    sites: tuple
    timed: bool = True
    elements_arg: int | None = None
    objective_arg: int | None = None


BOUNDARIES = (
    Boundary("hum.ehum_fast", "hum", "ehum_fast", ("methods",)),
    Boundary("hum.adjacent_aucs", "hum", "adjacent_aucs", ("hum",)),
    Boundary("smooth.shum_from_scores", "smooth", "shum_from_scores", ("smooth", "methods")),
    Boundary("smooth.shum_gradient_full", "smooth", "shum_gradient_full", ("smooth",)),
    Boundary("smooth.kernel_eval", "smooth", "kernel_eval", ("smooth",),
             timed=False, elements_arg=1),
    Boundary("smooth.kernel_deriv", "smooth", "kernel_deriv", ("smooth",),
             timed=False, elements_arg=1),
    Boundary("smooth.lambda_rule_check", "smooth", "lambda_rule_check", ("cli",)),
    Boundary("optimize.step_down", "optimize", "step_down", ("methods",)),
    Boundary("optimize.brent_maximize_1d", "optimize", "brent_maximize_1d",
             ("optimize", "methods"), objective_arg=0),
    Boundary("optimize.bfgs_maximize", "optimize", "bfgs_maximize", ("methods",),
             objective_arg=0),
    Boundary("optimize.nelder_mead_maximize", "optimize", "nelder_mead_maximize",
             ("methods",), objective_arg=0),
    Boundary("methods.fit", "methods", "fit_method", ("methods", "simulate", "cli")),
    Boundary("methods.bootstrap_se", "methods", "bootstrap_se", ("cli",)),
    Boundary("simulate.generate_scenario", "simulate", "generate_scenario", ("simulate",)),
    Boundary("data.load_csv", "data", "load_csv", ("cli",)),
    Boundary("data.project_scores", "data", "project_scores",
             ("methods", "smooth", "cli"), timed=False),
)

FIT_METHODS = ("sshum", "nshum", "empirical", "parametric", "minmax", "frechet")


class Tracer:
    """Per-boundary counters and span times for one traced round."""

    def __init__(self, package):
        self._modules = {name: getattr(package, name)
                         for name in ("hum", "smooth", "optimize", "methods",
                                      "simulate", "data", "cli")}
        self.stats = {}
        self.fit_seconds = {m: [] for m in FIT_METHODS}
        self.not_converged = 0
        self.fits = []            # (dataset, method, report) of every fit
        self._open = []           # time spent in child spans, per open span
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _stat(self, name) -> Stat:
        return self.stats.setdefault(name, Stat())

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            children = self._open.pop()
            st = self._stat(name)
            st.calls += 1
            st.busy_s += duration
            st.self_s += duration - children
            if self._open:
                self._open[-1] += duration

    # -- patching ------------------------------------------------------------

    def _wrapper(self, b: Boundary, fn):
        if b.name == "methods.fit":
            return self._fit_wrapper(fn)
        st = self._stat(b.name)

        def traced(*args, **kwargs):
            if b.elements_arg is not None:
                st.elements += int(np.size(args[b.elements_arg]))
            if b.objective_arg is not None:
                args = list(args)
                objective = args[b.objective_arg]

                def counted(*a, **k):
                    st.evals += 1
                    return objective(*a, **k)

                args[b.objective_arg] = counted
            if not b.timed:
                st.calls += 1
                return fn(*args, **kwargs)
            return self.call(b.name, fn, *args, **kwargs)

        return traced

    def _fit_wrapper(self, fn):
        def traced(data, method, *args, **kwargs):
            t0 = time.perf_counter()
            report = self.call("methods.fit", fn, data, method, *args, **kwargs)
            self.fit_seconds.setdefault(method, []).append(time.perf_counter() - t0)
            if not report.converged:
                self.not_converged += 1
            self.fits.append((data, method, report))
            return report

        return traced

    def install(self):
        """Patch every boundary at every site; fails if a site moved."""
        try:
            for b in BOUNDARIES:
                original = getattr(self._modules[b.home], b.attr, None)
                if original is None:
                    raise LookupError(f"{b.name}: shumfit.{b.home} has no {b.attr}")
                wrapper = self._wrapper(b, original)
                for site in b.sites:
                    module = self._modules[site]
                    if getattr(module, b.attr, None) is not original:
                        raise LookupError(
                            f"{b.name}: shumfit.{site}.{b.attr} is not "
                            f"shumfit.{b.home}.{b.attr}; update the boundary table")
                    self._undo.append((module, b.attr, original))
                    setattr(module, b.attr, wrapper)
        except LookupError:
            self.restore()
            raise

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def calls(self, name) -> int:
        """Calls seen at a boundary, or of one method for ``methods.fit_<m>``."""
        prefix = "methods.fit_"
        if name.startswith(prefix):
            return len(self.fit_seconds.get(name[len(prefix):], ()))
        return self.stats.get(name, Stat()).calls

    def metrics(self) -> dict:
        """Per-layer metrics by name, value and unit (0 where not reached)."""
        def stat(name):
            return self.stats.get(name, Stat())

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for name in ("hum.ehum_fast", "hum.adjacent_aucs",
                     "smooth.shum_from_scores", "smooth.shum_gradient_full"):
            put(f"{name}.calls", stat(name).calls, "count")
            put(f"{name}.busy_s", stat(name).busy_s, "s")
        put("smooth.kernel_eval.calls", stat("smooth.kernel_eval").calls, "count")
        put("smooth.kernel_eval.elements", stat("smooth.kernel_eval").elements, "count")
        put("smooth.kernel_deriv.elements", stat("smooth.kernel_deriv").elements, "count")
        put("smooth.lambda_rule_check.busy_s", stat("smooth.lambda_rule_check").busy_s, "s")
        put("optimize.step_down.busy_s", stat("optimize.step_down").busy_s, "s")
        for name in ("optimize.brent_maximize_1d", "optimize.bfgs_maximize",
                     "optimize.nelder_mead_maximize"):
            put(f"{name}.evals", stat(name).evals, "count")
            put(f"{name}.busy_s", stat(name).busy_s, "s")
        for m in FIT_METHODS:
            seconds = self.fit_seconds[m]
            put(f"methods.fit_{m}.calls", len(seconds), "count")
            put(f"methods.fit_{m}.p50_s", statistics.median(seconds) if seconds else 0.0, "s")
        put("methods.fit.calls", stat("methods.fit").calls, "count")
        put("methods.fit.not_converged", self.not_converged, "count")
        put("methods.bootstrap_se.busy_s", stat("methods.bootstrap_se").busy_s, "s")
        put("simulate.generate_scenario.busy_s", stat("simulate.generate_scenario").busy_s, "s")
        put("simulate.run_study.self_s", stat("simulate.run_study").self_s, "s")
        put("data.load_csv.busy_s", stat("data.load_csv").busy_s, "s")
        put("data.project_scores.calls", stat("data.project_scores").calls, "count")
        put("cli.main.self_s", stat("cli.main").self_s, "s")
        return out
