"""Univariate linear mixed model fitter with scalar variance components.

Model: ``y = X b + sum_l Z_l u_l + e`` with ``u_l ~ N(0, s2_l I)`` and
``e ~ N(0, s2_e I)``.  The (restricted) log-likelihood is maximized over
log-variances; the fixed effects are profiled out by GLS at each point.
Reported standard errors are plug-in GLS (no small-sample inflation).

Every evaluation goes through Henderson's mixed-model equations, in the
form lme4 uses.  With Z = [Z_1 ... Z_L] (q columns in all) and
Lambda = diag(sqrt(s2_l / s2_e)) repeated over each factor's levels,
V = s2_e (I + Z Lambda^2 Z') and M = I + Lambda Z'Z Lambda is q x q.  Each
random factor is one level code per record (no Z_l is formed), so Z_l'Z_l
is the diagonal of its level counts.  The counts Z_i'Z_k and per-level sums
Z'[X | y] (:class:`vcadjust.mme.Layout`), X'X, X'y and y'y are formed once
per fit; from one
factor F F' = M (:class:`vcadjust.mme.Factor`: the factor with the most
levels eliminated level by level, a dense Cholesky factor of the Schur
complement over the others) each evaluation takes

* log det V = n log s2_e + log det M,
* s2_e X'V^-1 X = X'X - C'C with [C | c] = F^-1 Lambda Z'[X | y],
* the penalized residual sum of squares s2_e r'V^-1 r at the GLS fixed
  effects, and the spherical random effects b = M^-1 Lambda Z'r,

and the analytic gradient in log-variances.  Factor l's trace term
s2_l tr(Z_l'V^-1 Z_l) is d_l minus the trace of M^-1 over its levels (from
diag(M^-1) by selected inversion), its quadratic term is |b_l|^2 / s2_e, and
the REML term is tr(K^-1 B_l'B_l) with K = X'X - C'C and B = M^-1 Lambda
Z'X.  With one random factor an evaluation costs O(q p^2), p the number
of fixed effects; a second factor adds O(q_r^2 q), q_r the effects outside
the largest factor.  No n x n or, with one factor, q x q matrix is
formed.  A point where M or K is not numerically positive definite (a
variance ratio near 1e22 over a rank-deficient crossed Z'Z) gets a large
finite objective.

The objective is evaluated at a small grid of variance ratios, and
L-BFGS-B runs once with this gradient, from the best grid point.  Projected
Newton steps finish the fit: the Hessian is the central difference of the
gradient, eigenvalues are taken in absolute value so that a flat coordinate
next to a zero variance still descends, and a component within
``_ACTIVE_GAP`` of zero (in standard deviation relative to the residual)
whose gradient points at zero is put on its bound, so that it reports as
exactly zero.  A fit has converged when its projected gradient is below
``_GRAD_TOL`` and L-BFGS-B did not stop at ``max_iter``; the L-BFGS-B stop
message is not read.  The GLS fixed effects, their covariance and the
weak-identification check use the same equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import optimize

from .errors import SingularityError, ValidationError
from .mme import Factor, Layout, _chol, _tri

_RATIO_STARTS = (1e-2, 1e-1, 1.0, 1e1, 1e2)
_BOUNDARY_FRAC = 1e-10  # components below this times var(y) report as zero
_GRAD_TOL = 1e-6  # projected log-variance gradient of a converged fit
_NEWTON_STEPS = 8
_HALVINGS = 20  # step halvings before a Newton finish gives up
_ACTIVE_GAP = 1e-3  # relative standard deviation below which a component may go to zero
_HESS_STEP = 1e-4  # central-difference step of the Hessian, in log-variance
_FAIL = 1e30  # objective where the equations are not numerically definite


@dataclass(frozen=True)
class LmmSpec:
    """Response, full-rank fixed design, and per random factor one integer
    level code per record (``max + 1`` levels)."""

    y: np.ndarray
    X: np.ndarray
    random: tuple[np.ndarray, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        X = np.asarray(self.X, dtype=float)
        rnd = tuple(np.asarray(g) for g in self.random)
        n, p = X.shape
        if len(y) != n:
            raise ValidationError("y and X disagree in length")
        if n <= p:
            raise ValidationError(f"need n > p, got n={n}, p={p}")
        if np.linalg.matrix_rank(X) < p:
            raise ValidationError("X is rank deficient")
        for g in rnd:
            if g.ndim != 1 or len(g) != n or g.dtype.kind not in "iu" or g.min() < 0:
                raise ValidationError("a random factor must be n integer level codes >= 0")
        if self.names and len(self.names) != len(rnd):
            raise ValidationError(f"{len(self.names)} names for {len(rnd)} random factors")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "random", tuple(g.astype(np.intp) for g in rnd))
        names = self.names or tuple(f"u{l}" for l in range(len(rnd)))
        object.__setattr__(self, "names", tuple(names))


@dataclass
class LmmFit:
    beta_hat: np.ndarray
    sigma_e2: float
    sigma2: np.ndarray  # one per random factor
    beta_cov: np.ndarray
    loglik: float
    method: str
    converged: bool
    iterations: int
    flags: tuple[str, ...] = ()
    names: tuple[str, ...] = ()

    @property
    def var_comps(self) -> dict[str, float]:
        out = {"residual": self.sigma_e2}
        out.update({n: float(s) for n, s in zip(self.names, self.sigma2)})
        return out


@dataclass(frozen=True)
class _CrossProducts:
    """Level counts, Z'[X | y], X'X, X'y and y'y: all an evaluation reads."""

    layout: Layout  # widths 1, the codes, levels d_l and counts Z_i'Z_k of the factors
    ZtXy: np.ndarray
    XtX: np.ndarray
    Xty: np.ndarray
    yty: float
    n: int
    factor: np.ndarray  # factor l of each of the q random effects


def _cross_products(spec: LmmSpec) -> _CrossProducts:
    codes, X, y = spec.random, spec.X, spec.y
    Xy = np.column_stack([X, y])
    levels = [int(g.max()) + 1 for g in codes]
    layout = Layout((1,) * len(codes), codes, levels)
    return _CrossProducts(
        layout=layout,
        ZtXy=np.vstack([np.zeros((0, Xy.shape[1]))] + [S.T for S in layout.level_sums(Xy.T)]),
        XtX=X.T @ X,
        Xty=X.T @ y,
        yty=float(y @ y),
        n=len(y),
        factor=np.repeat(np.arange(len(codes)), levels),
    )


@dataclass(frozen=True)
class _Mme:
    """Mixed-model equations solved at one variance point."""

    F: Factor  # F F' = M = I + Lambda Z'Z Lambda
    C: np.ndarray  # F^-1 Lambda Z'X
    c: np.ndarray  # F^-1 Lambda Z'y
    R: np.ndarray  # lower Cholesky factor of K = X'X - C'C = s2_e X'V^-1 X
    beta: np.ndarray  # GLS fixed effects
    prss: float  # penalized residual sum of squares, s2_e r'V^-1 r


def _solve(sig: np.ndarray, cp: _CrossProducts) -> _Mme:
    """Factor the equations at variances ``sig = (s2_e, s2_1, ...)``;
    LinAlgError when M or K is not numerically positive definite."""
    ratio = np.sqrt(sig[1:] / sig[0])
    outer = np.outer(ratio, ratio)
    F = Factor(cp.layout, {(i, k): outer[i : i + 1, k : k + 1] for i, k in cp.layout.counts})
    Cc = F.lower(ratio[cp.factor][:, None] * cp.ZtXy)
    C, c = Cc[:, :-1], Cc[:, -1]
    R = _chol(cp.XtX - C.T @ C)
    e = _tri(R, cp.Xty - C.T @ c)
    beta = _tri(R, e, trans=True)
    return _Mme(F=F, C=C, c=c, R=R, beta=beta, prss=float(cp.yty - c @ c - e @ e))


def _neg_loglik(theta, cp: _CrossProducts, method: str):
    """Negative (restricted) log-likelihood at log-variances ``theta`` and
    its gradient in ``theta``."""
    sig = np.exp(theta)
    try:
        s = _solve(sig, cp)
        if not (np.isfinite(s.prss) and s.prss > 0):
            raise np.linalg.LinAlgError("penalized residual sum of squares <= 0")
        diag = s.F.diag()  # diag M^-1
    except np.linalg.LinAlgError:
        return _FAIL, np.zeros_like(theta)
    n, p, k = cp.n, len(s.beta), len(cp.layout.levels)

    def per_factor(x):
        return np.bincount(cp.factor, weights=x, minlength=k)

    b = s.F.upper(s.c - s.C @ s.beta)  # M^-1 Lambda Z'r
    b_sq = per_factor(b * b)
    trace = np.array(cp.layout.levels) - per_factor(diag)
    logdet = n * theta[0] + s.F.logdet
    nobs, reml = n, np.zeros(k)
    if method == "reml":
        nobs = n - p
        logdet += 2.0 * np.log(np.diag(s.R)).sum() - p * theta[0]
        W = _tri(s.R, s.F.upper(s.C).T)  # R^-1 B', B = M^-1 Lambda Z'X
        reml = per_factor(np.einsum("ij,ij->j", W, W))
    f = 0.5 * (nobs * np.log(2 * np.pi) + logdet + s.prss / sig[0])
    g = np.empty_like(theta)
    g[0] = 0.5 * (
        nobs - trace.sum() + reml.sum() - (s.prss - b_sq.sum()) / sig[0]
    )
    g[1:] = 0.5 * (trace - reml - b_sq / sig[0])
    return f, g


def _hessian(obj, theta, free):
    """Central differences of the gradient over the ``free`` coordinates."""
    idx = np.flatnonzero(free)
    H = np.empty((len(idx), len(idx)))
    for j, i in enumerate(idx):
        step = np.zeros_like(theta)
        step[i] = _HESS_STEP
        H[:, j] = (obj(theta + step)[1][idx] - obj(theta - step)[1][idx]) / (2 * _HESS_STEP)
    return 0.5 * (H + H.T)


def _newton_finish(obj, theta, lo, hi):
    """Projected Newton steps on the analytic gradient from ``theta``.

    A variance component within ``_ACTIVE_GAP`` of zero on the standard
    deviation scale (s2_l <= _ACTIVE_GAP**2 s2_e), or already at ``lo``,
    whose gradient points at the bound moves onto ``lo`` (Bertsekas 1982);
    a coordinate at ``hi`` whose gradient points outward stays fixed.  The
    other coordinates take a Newton step on the central-difference Hessian,
    its eigenvalues replaced by their absolute values, floored at ``1e-8``
    of the largest, so that a flat or concave coordinate next to a zero
    variance still descends.  The free step is halved until the objective
    does not rise beyond rounding.  Returns the point, its value, gradient
    and the number of steps taken.
    """
    f, g = obj(theta)
    steps = 0
    for _ in range(_NEWTON_STEPS):
        near = np.r_[False, theta[1:] - theta[0] <= 2.0 * np.log(_ACTIVE_GAP)]
        bound = (near | (theta <= lo)) & (g > 0)
        free = ~(bound | ((theta >= hi) & (g < 0)))
        step = np.zeros(int(free.sum()))
        if np.any(g[free]):
            ev, Q = np.linalg.eigh(_hessian(obj, theta, free))
            top = np.max(np.abs(ev))
            if top > 0:
                step = -Q @ ((Q.T @ g[free]) / np.maximum(np.abs(ev), 1e-8 * top))
        new = theta.copy()
        new[bound] = lo
        if not step.any() and np.array_equal(new, theta):
            break
        for _ in range(_HALVINGS):
            new[free] = np.clip(theta[free] + step, lo, hi)
            f_new, g_new = obj(new)
            if f_new <= f + 1e-12 * max(1.0, abs(f)):
                break
            step = 0.5 * step
        else:
            break
        moved = np.max(np.abs(new - theta))
        theta, f, g = new, f_new, g_new
        steps += 1
        if moved < 1e-10:
            break
    return theta, f, g, steps


def fit_lmm(
    spec: LmmSpec,
    method: str = "ml",
    tol: float = 1e-10,
    max_iter: int = 500,
) -> LmmFit:
    """Maximize the ML or REML likelihood over the variance components.

    Returns the best iterate with ``converged=False`` plus a flag when the
    optimizer hits ``max_iter`` or the projected gradient at the finish is
    not below ``_GRAD_TOL``; variance estimates within a relative boundary
    band of zero are reported as exactly zero and flagged.
    """
    if method not in ("ml", "reml"):
        raise ValidationError(f"method must be 'ml' or 'reml', got {method!r}")
    y, X = spec.y, spec.X
    vary = float(np.var(y))
    if vary <= 0:
        raise ValidationError("response is constant; nothing to fit")
    cp = _cross_products(spec)
    obj = partial(_neg_loglik, cp=cp, method=method)

    # OLS residual variance seeds the scale of every grid point
    beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
    s2_ols = max(float(np.mean((y - X @ beta0) ** 2)), 1e-12 * vary)
    lo, hi = np.log(1e-14 * vary), np.log(1e8 * vary)

    k = len(cp.layout.levels)
    starts = [np.log(np.r_[s2_ols, np.full(k, ratio * s2_ols)]) for ratio in _RATIO_STARTS]
    res = optimize.minimize(
        obj,
        min(starts, key=lambda t: obj(t)[0]),
        jac=True,
        method="L-BFGS-B",
        bounds=[(lo, hi)] * (k + 1),
        options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-10},
    )
    hit_max_iter = res.status == 1  # iteration or evaluation limit

    theta, f, g, steps = _newton_finish(obj, np.asarray(res.x, dtype=float), lo, hi)
    projected = np.clip(theta - g, lo, hi) - theta
    flags: list[str] = []
    converged = not hit_max_iter and float(np.max(np.abs(projected))) < _GRAD_TOL
    if not converged:
        flags.append("non_convergence")

    # boundary handling: tiny components are reported as exact zeros
    sig = np.exp(theta)
    boundary = sig[1:] < _BOUNDARY_FRAC * vary
    if boundary.any():
        flags.append("boundary")
    sig2 = np.where(boundary, 0.0, sig[1:])

    try:
        gls = _solve(np.r_[sig[0], sig2], cp)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("GLS information matrix is singular") from exc
    Rinv = _tri(gls.R, np.eye(len(gls.R)))
    beta_cov = sig[0] * (Rinv.T @ Rinv)

    if _weakly_identified(obj, theta, boundary):
        flags.append("weakly_identified")

    return LmmFit(
        beta_hat=gls.beta,
        sigma_e2=float(sig[0]),
        sigma2=sig2,
        beta_cov=beta_cov,
        loglik=float(-f),
        method=method,
        converged=converged,
        iterations=int(res.nit + steps),
        flags=tuple(flags),
        names=spec.names,
    )


def _weakly_identified(obj, theta, boundary):
    """Flag a flat likelihood: singular Hessian over the free coordinates."""
    free = np.r_[True, ~boundary]
    if free.sum() < 2:
        return False
    ev = np.linalg.eigvalsh(_hessian(obj, theta, free))
    top = np.max(np.abs(ev))
    return bool(top <= 0 or np.min(ev) < 1e-5 * top)


def contrast(fit: LmmFit, coeffs: np.ndarray) -> tuple[float, float]:
    """Point estimate and plug-in standard error of ``coeffs' beta``."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.shape[0] != fit.beta_hat.shape[0]:
        raise ValidationError(
            f"contrast length {c.shape[0]} != {fit.beta_hat.shape[0]} coefficients"
        )
    est = float(c @ fit.beta_hat)
    var = float(c @ fit.beta_cov @ c)
    if var < 0:
        raise SingularityError("negative contrast variance from beta covariance")
    return est, float(np.sqrt(var))
