"""Projected Newton steps over the log-variances of :func:`.lmm.fit_lmm`.

:func:`minimize` is the loop that ends every LMM fit; ``fit_lmm`` calls it
as ``optimize.minimize`` after ``from . import optimize``.  The loop has a
module of its own only so that ``vcadjust.lmm.optimize.minimize``, the
site the benchmark's tracer wraps for its ``lmm.*`` optimizer metrics,
keeps naming it.  Once those metrics read a site inside ``lmm`` (ROADMAP
item 1), this module can move back into ``lmm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GRAD_TOL = 1e-6  # projected log-variance gradient of a converged fit
_HALVINGS = 20  # step halvings before a Newton step gives up
_ACTIVE_GAP = 1e-3  # relative standard deviation below which a component may go to zero


@dataclass(frozen=True)
class _NewtonResult:
    point: object  # the last lmm._Point
    nit: int  # Newton steps
    nfev: int  # points solved
    stop: str  # as LmmFit.stop


def minimize(point, start, bounds, maxiter, tol) -> _NewtonResult:
    """Projected Newton steps from ``start``, an already solved point
    (``point(theta)`` solves a new one; a point has ``theta``, ``f``,
    ``grad`` and ``hess``, the residual's log-variance first).

    A variance within ``_ACTIVE_GAP`` of zero (standard deviations relative
    to the residual's) or at its lower bound whose gradient points at the
    bound moves onto it (Bertsekas 1982); one at its upper bound whose
    gradient points outward stays.  The others take a Newton step on H with
    its eigenvalues in absolute value, floored at 1e-8 of the largest, so
    that a flat coordinate next to a zero variance still descends, halved
    until the value does not rise beyond rounding.  The steps stop at
    ``maxiter`` (``max_iter``), or when no halving keeps the value or a step
    moves no coordinate by more than ``tol`` or does not lower the value:
    ``gradient`` if the projected gradient is then below ``_GRAD_TOL``,
    else ``stall``."""
    lo, hi = np.array(bounds, dtype=float).T
    pt, nit, nfev = start, 0, 0
    while nit < maxiter:
        theta, g = pt.theta, pt.grad
        near = np.r_[False, theta[1:] - theta[0] <= 2.0 * np.log(_ACTIVE_GAP)]
        bound = (near | (theta <= lo)) & (g > 0)
        free = ~(bound | ((theta >= hi) & (g < 0)))
        step = np.zeros(int(free.sum()))
        if np.any(g[free]):
            ev, Q = np.linalg.eigh(pt.hess[np.ix_(free, free)])
            top = np.max(np.abs(ev))
            if top > 0:
                step = -Q @ ((Q.T @ g[free]) / np.maximum(np.abs(ev), 1e-8 * top))
        new = np.where(bound, lo, theta)
        if not step.any() and np.array_equal(new, theta):
            break
        for _ in range(_HALVINGS):
            new[free] = np.clip(theta[free] + step, lo[free], hi[free])
            trial = point(new.copy())
            nfev += 1
            if trial.f <= pt.f + 1e-12 * max(1.0, abs(pt.f)):
                break
            step = 0.5 * step
        else:
            break
        fell, pt, nit = trial.f < pt.f, trial, nit + 1
        if not fell or np.max(np.abs(new - theta)) <= tol:
            break
    else:
        return _NewtonResult(pt, nit, nfev, "max_iter")
    projected = np.clip(pt.theta - pt.grad, lo, hi) - pt.theta
    stop = "gradient" if np.max(np.abs(projected)) < _GRAD_TOL else "stall"
    return _NewtonResult(pt, nit, nfev, stop)
