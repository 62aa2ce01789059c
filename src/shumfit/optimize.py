"""Maximizers: BFGS with backtracking, Nelder-Mead, bracketed 1-D search,
and the greedy step-down composition over markers.

All routines maximize.  BFGS is for smooth objectives with analytic
gradients; Nelder-Mead handles the piecewise-constant empirical objectives;
the 1-D search runs a dense grid pre-scan (multi-modal slices are common for
empirical HUM) before a bounded Brent refinement, transcribed here from
scipy's ``fminbound`` with the same iterates bit for bit, so the module needs
numpy alone.  An objective that can score the whole grid in one batched
pass (the exact HUM and the minimum adjacent AUC, see ``hum``) hands the
search that pass; any other is scored point by point.  Step-down is the
greedy search the fitters start from; the smoothed fits run it on the exact
empirical HUM and leave the smoothed objective to BFGS.  Everything is
deterministic: identical inputs and settings give bit-identical results.

Every setting is a module constant, read when a routine is called:
MAX_ITERATIONS (BFGS and each Nelder-Mead run); GRAD_TOL, REL_OBJ_TOL,
ARMIJO_C and BACKTRACK (BFGS); NM_REFLECT, NM_EXPAND, NM_CONTRACT, NM_SHRINK
and NM_DIAMETER_TOL (Nelder-Mead); BRENT_HALF_WIDTH and GRID_POINTS (the 1-D
grid pre-scan).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteObjective

_MAX_BACKTRACKS = 60
MAX_ITERATIONS = 500
GRAD_TOL = 1e-6                   # sup-norm on the gradient
REL_OBJ_TOL = 1e-10               # relative objective stagnation
ARMIJO_C = 1e-4
BACKTRACK = 0.5
NM_REFLECT = 1.0
NM_EXPAND = 2.0
NM_CONTRACT = 0.5
NM_SHRINK = 0.5
NM_DIAMETER_TOL = 1e-8
BRENT_HALF_WIDTH = 10.0
GRID_POINTS = 101


@dataclass(frozen=True)
class OptimResult:
    argmax: np.ndarray
    value: float
    iterations: int
    converged: bool
    gradient_norm: Optional[float] = None


def _finite_or_raise(value, point, what="objective"):
    if not np.all(np.isfinite(value)):
        raise NonFiniteObjective(np.asarray(point), f"{what} returned a non-finite value")


# ---------------------------------------------------------------------------
# BFGS
# ---------------------------------------------------------------------------

def bfgs_maximize(f: Callable, grad: Callable, theta0) -> OptimResult:
    """Quasi-Newton ascent with Armijo backtracking.

    ``f(theta) -> value`` is evaluated at the start and at every trial step;
    ``grad(theta) -> gradient`` only at the start and at accepted steps, so a
    rejected trial costs one value.  Stops on gradient sup-norm below
    ``GRAD_TOL``, relative objective stagnation, or ``MAX_ITERATIONS``.
    The inverse-Hessian approximation resets to identity whenever the
    curvature condition s'y <= 0 fails.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    n = theta.size
    val = f(theta)
    _finite_or_raise(val, theta)
    g = grad(theta)
    _finite_or_raise(g, theta, "gradient")
    if n == 0:
        return OptimResult(theta, float(val), 0, True, 0.0)

    h = np.eye(n)
    eye = np.eye(n)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < GRAD_TOL:
            converged = True
            iterations -= 1
            break

        p = h @ g                          # ascent direction
        slope = float(g @ p)
        if slope <= 0.0:                   # h lost positive definiteness
            h = eye.copy()
            p = g.copy()
            slope = float(g @ g)

        step = 1.0
        new_theta = None
        for _ in range(_MAX_BACKTRACKS):
            cand = theta + step * p
            cand_val = f(cand)
            if np.isfinite(cand_val) and cand_val >= val + ARMIJO_C * step * slope:
                new_theta = cand
                break
            step *= BACKTRACK
        if new_theta is None:              # no improving step along p
            break

        cand_g = grad(new_theta)
        _finite_or_raise(cand_g, new_theta, "gradient")
        s = new_theta - theta
        y = cand_g - g
        sy = float(s @ y)
        # curvature condition for a concave objective: s'y < 0 under
        # maximization of -f; in this ascent form the update needs s'y < 0,
        # i.e. -s'y > 0, so reset when it fails
        if -sy <= 0.0:
            h = eye.copy()
        else:
            rho = 1.0 / (-sy)
            v = eye - rho * np.outer(s, -y)
            h = v @ h @ v.T + rho * np.outer(s, s)

        stalled = abs(cand_val - val) <= REL_OBJ_TOL * max(1.0, abs(val))
        theta, val, g = new_theta, cand_val, cand_g
        if stalled:
            converged = True
            break
    else:
        iterations = MAX_ITERATIONS

    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    if gnorm < GRAD_TOL:
        converged = True
    return OptimResult(theta, float(val), iterations, converged, gnorm)


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

def _initial_simplex(theta0):
    n = theta0.size
    simplex = [theta0.copy()]
    for i in range(n):
        pt = theta0.copy()
        pt[i] += max(0.1, 0.1 * abs(theta0[i]))
        simplex.append(pt)
    return simplex


def _nm_loop(f, simplex, values, budget):
    n = simplex[0].size
    iterations = 0
    converged = False
    while iterations < budget:
        order = np.argsort(np.negative(values), kind="stable")  # best first
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        diameter = max(
            float(np.max(np.abs(simplex[i] - simplex[0]))) for i in range(1, n + 1)
        )
        if diameter < NM_DIAMETER_TOL:
            converged = True
            break
        iterations += 1

        best, worst = values[0], values[-1]
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + NM_REFLECT * (centroid - simplex[-1])
        f_r = f(reflected)

        if f_r > best:
            expanded = centroid + NM_EXPAND * (reflected - centroid)
            f_e = f(expanded)
            if f_e > f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
            continue
        if f_r > values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue
        if f_r > worst:
            contracted = centroid + NM_CONTRACT * (reflected - centroid)
        else:
            contracted = centroid - NM_CONTRACT * (centroid - simplex[-1])
        f_c = f(contracted)
        if f_c > max(f_r, worst):
            simplex[-1], values[-1] = contracted, f_c
            continue

        for i in range(1, n + 1):
            simplex[i] = simplex[0] + NM_SHRINK * (simplex[i] - simplex[0])
            values[i] = f(simplex[i])

    order = np.argsort(np.negative(values), kind="stable")
    simplex = [simplex[i] for i in order]
    values = [values[i] for i in order]
    return simplex, values, iterations, converged


def nelder_mead_maximize(f: Callable, theta0) -> OptimResult:
    """Simplex maximization for possibly discontinuous objectives.

    Initial simplex steps are max(0.1, 0.1|theta0_i|) per coordinate; stops
    when the simplex diameter falls below ``NM_DIAMETER_TOL`` or after
    ``MAX_ITERATIONS``, then restarts once from the incumbent with a fresh
    simplex.  Non-finite trial values are treated as -inf (rejected), but a
    non-finite start raises.
    """
    theta0 = np.asarray(theta0, dtype=float).copy()
    v0 = f(theta0)
    _finite_or_raise(v0, theta0)
    if theta0.size == 0:
        return OptimResult(theta0, float(v0), 0, True)

    def safe_f(x):
        v = f(x)
        return float(v) if np.isfinite(v) else -np.inf

    total_iter = 0
    best_pt, best_val = theta0, float(v0)
    for _round in range(2):                 # initial run + one restart
        simplex = _initial_simplex(best_pt)
        values = [best_val] + [safe_f(p) for p in simplex[1:]]
        simplex, values, iters, converged = _nm_loop(
            safe_f, simplex, values, MAX_ITERATIONS
        )
        total_iter += iters
        if values[0] > best_val:
            best_pt, best_val = simplex[0].copy(), float(values[0])
    if not np.isfinite(best_val):
        raise NonFiniteObjective(best_pt)
    return OptimResult(best_pt, best_val, total_iter, converged)


# ---------------------------------------------------------------------------
# 1-D bracketed search
# ---------------------------------------------------------------------------

_SQRT_EPS = sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - sqrt(5.0))
_BRENT_XATOL = 1e-8
_BRENT_MAXFUN = 500


def _bounded_brent(func: Callable, a, b):
    """Minimize ``func`` on [a, b] by Brent's bounded golden-section and
    parabolic search; returns ``(x, fx, nfev, ok)``.

    A transcription of scipy's ``fminbound`` (``minimize_scalar`` with
    ``method="bounded"``, scipy 1.17.1, BSD licence), itself after Brent
    (1973), *Algorithms for Minimization without Derivatives*, ch. 5.  It
    keeps scipy's constants, numpy arithmetic and branches, so its iterates,
    ``nfev`` and result equal ``minimize_scalar(func, bounds=(a, b),
    method="bounded", options={"xatol": 1e-8, "maxiter": 500})`` bit for
    bit.  ``ok`` is False after 500 evaluations or when a NaN was seen.
    """
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:              # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            return xf, fx, num, False

    ok = not (np.isnan(xf) or np.isnan(fx) or np.isnan(fu))
    return xf, fx, num, ok


def brent_maximize_1d(f: Callable, f_grid: Optional[Callable] = None) -> OptimResult:
    """Grid pre-scan over [-BRENT_HALF_WIDTH, BRENT_HALF_WIDTH], then Brent's
    bounded golden-section/parabolic refinement (:func:`_bounded_brent`)
    between the grid neighbours of the best grid point.

    ``f_grid(grid)``, when given, returns ``f`` at every grid point in one
    batched call and must equal ``f`` there; otherwise the grid is scored one
    point at a time.  Returns the better of the refined point and the grid
    incumbent, so a rough refinement can never lose to the scan.  Non-finite
    grid values are excluded; if every value is non-finite the objective is
    rejected.  ``iterations`` counts the refinement's evaluations plus the
    grid's.
    """
    grid = np.linspace(-BRENT_HALF_WIDTH, BRENT_HALF_WIDTH, GRID_POINTS)
    grid[GRID_POINTS // 2] = 0.0       # odd GRID_POINTS: exact 0 keeps step-down monotone
    if f_grid is None:
        vals = np.array([f(x) for x in grid], dtype=float)
    else:
        vals = np.asarray(f_grid(grid), dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise NonFiniteObjective(grid[0])
    vals = np.where(finite, vals, -np.inf)
    i = int(np.argmax(vals))

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    x, neg_value, nfev, ok = _bounded_brent(lambda x: -f(x), lo, hi)
    x_best, v_best = float(grid[i]), float(vals[i])
    if ok and np.isfinite(neg_value) and -neg_value > v_best:
        x_best, v_best = float(x), float(-neg_value)
    return OptimResult(np.array([x_best]), v_best, nfev + grid.size, True)


# ---------------------------------------------------------------------------
# step-down composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepDownResult:
    """Greedy marker composition in original column order.

    ``beta[anchor_index] == 1`` (the best individual marker);
    ``stage_values[i]`` is the objective after the (i+1)-th marker joined,
    non-decreasing because every 1-D stage can choose coefficient 0.
    """

    beta: np.ndarray
    anchor_index: int
    ordering: tuple
    stage_values: tuple


def step_down(score_objective: Callable, data) -> StepDownResult:
    """Rank markers by individual objective, then add one at a time.

    ``score_objective`` maps a list of per-category score vectors to a float.
    Ties in the individual ranking break toward the original column order.
    Each added marker's coefficient comes from the bracketed 1-D search over
    the combined score V + coef * column.  An objective with an ``on_grid``
    attribute, ``on_grid(V, column, coefs)`` giving its values at every
    coefficient at once, has each search's grid scored in that one call.
    """
    on_grid = getattr(score_objective, "on_grid", None)
    d = data.n_markers
    columns = [[x[:, k] for x in data.categories] for k in range(d)]
    individual = [float(score_objective(columns[k])) for k in range(d)]
    ordering = tuple(sorted(range(d), key=lambda k: (-individual[k], k)))

    anchor = ordering[0]
    combined = [col.copy() for col in columns[anchor]]
    beta = np.zeros(d)
    beta[anchor] = 1.0
    stage_values = [individual[anchor]]

    for k in ordering[1:]:
        cols = columns[k]

        def slice_objective(coef, cols=cols):
            return score_objective(
                [v + coef * c for v, c in zip(combined, cols)]
            )

        def slice_grid(grid, cols=cols):
            return on_grid(combined, cols, grid)

        res = brent_maximize_1d(slice_objective, None if on_grid is None else slice_grid)
        coef = float(res.argmax[0])
        beta[k] = coef
        combined = [v + coef * c for v, c in zip(combined, cols)]
        stage_values.append(res.value)

    return StepDownResult(beta, anchor, ordering, tuple(stage_values))
