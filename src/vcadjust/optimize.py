"""Projected Newton steps: the loop that ends every likelihood fit.

:func:`minimize` finishes both engines: :func:`.lmm.fit_lmm` from the best
point of its grid, in log-variances, and :func:`.mvc_em.fit_em` after its EM
start, in relative Cholesky coordinates (EM then Newton, as in Lindstrom &
Bates 1988).  Each module calls it as ``optimize.minimize`` after its own
``from . import optimize``, so the site the benchmark's tracer wraps for its
``lmm.*`` optimizer metrics, ``vcadjust.lmm.optimize.minimize``, sees only
LMM fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError

_GRAD_TOL = 1e-6  # projected gradient of a converged fit
_ACTIVE_GAP = 1e-3  # closeness to a bound at which a coordinate may be held on it
_HALVINGS = 30  # step halvings before a Newton step gives up


@dataclass(frozen=True)
class _NewtonResult:
    point: object  # the last point
    nit: int  # Newton steps
    nfev: int  # points tried
    stop: str  # "gradient", "max_iter" or "stall"
    values: tuple[float, ...]  # the log-likelihood -f after each accepted step


def _projected(pt, lo, hi) -> float:
    """Largest move of a gradient step from ``pt`` projected onto [lo, hi]."""
    return float(np.max(np.abs(np.clip(pt.x - pt.grad, lo, hi) - pt.x), initial=0.0))


def minimize(point, start, bounds, maxiter, tol, gtol=0.0) -> _NewtonResult:
    """Projected Newton steps from ``start``, a solved point, within
    ``bounds``, one (lo, hi) pair per coordinate.  ``point(x)`` solves a new
    point or raises SingularityError or LinAlgError; a point has ``x``, the
    value ``f`` (a negative log-likelihood), ``grad``, ``hess`` and
    ``near(lo, gap)``, the coordinates close enough to ``lo`` to be held on
    it when the projected gradient is ``gap``.

    The steps stop with ``gradient`` once the projected gradient is below
    ``gtol``, and with ``max_iter`` after ``maxiter`` steps.  A near
    coordinate whose gradient points at its bound moves onto it (Bertsekas
    1982), one at ``hi`` whose gradient points outward stays, and the others
    take a Newton step on ``hess`` with its eigenvalues in absolute value,
    floored at 1e-8 of the largest.  The whole step is halved (at most
    ``_HALVINGS`` times) and clipped until the value falls by 1e-4 of the
    gradient's prediction, up to rounding; a point that raises is rejected.
    The steps also stop when no halving is accepted, when a step moves no
    coordinate by more than ``tol``, or when it does not lower the value and
    ends below ``_GRAD_TOL``: ``gradient`` if the last projected gradient is
    below ``_GRAD_TOL``, else ``stall``."""
    lo, hi = np.array(bounds, dtype=float).T
    pt, nit, nfev, values = start, 0, 0, []
    while True:
        x, g = pt.x, pt.grad
        gap = _projected(pt, lo, hi)
        if gap < gtol:
            return _NewtonResult(pt, nit, nfev, "gradient", tuple(values))
        if nit >= maxiter:
            return _NewtonResult(pt, nit, nfev, "max_iter", tuple(values))
        bound = pt.near(lo, gap) & (g > 0)
        free = ~(bound | ((x >= hi) & (g < 0)))
        step = np.where(bound, lo - x, 0.0)
        if np.any(g[free]):
            ev, Q = np.linalg.eigh(pt.hess[np.ix_(free, free)])
            top = np.max(np.abs(ev))
            if top > 0:
                step[free] = -Q @ ((Q.T @ g[free]) / np.maximum(np.abs(ev), 1e-8 * top))
        if not step.any():
            break
        slack = 1e-12 * max(1.0, abs(pt.f))
        for _ in range(_HALVINGS):
            new = np.clip(x + step, lo, hi)
            nfev += 1
            try:
                trial = point(new)
            except (SingularityError, np.linalg.LinAlgError):
                trial = None
            if trial is not None and trial.f <= pt.f + 1e-4 * (g @ (new - x)) + slack:
                break
            step = 0.5 * step
        else:
            break
        fell, pt, nit = trial.f < pt.f, trial, nit + 1
        values.append(-pt.f)
        if np.max(np.abs(new - x)) <= tol or (not fell and _projected(pt, lo, hi) < _GRAD_TOL):
            break
    stop = "gradient" if _projected(pt, lo, hi) < _GRAD_TOL else "stall"
    return _NewtonResult(pt, nit, nfev, stop, tuple(values))
