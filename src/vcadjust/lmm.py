"""Univariate linear mixed model fitter with scalar variance components.

Model: ``y = X b + sum_l Z_l u_l + e`` with ``u_l ~ N(0, s2_l I)`` and
``e ~ N(0, s2_e I)``.  The (restricted) log-likelihood is maximized over
log-variances; the fixed effects are profiled out by GLS at each point.
Reported standard errors are plug-in GLS (no small-sample inflation).

Every evaluation goes through Henderson's mixed-model equations, in the
form lme4 uses.  With Z = [Z_1 ... Z_L] (q columns in all) and
Lambda = diag(sqrt(s2_l / s2_e)) repeated over each factor's levels,
V = s2_e (I + Z Lambda^2 Z') and M = I + Lambda Z'Z Lambda is q x q.  The
six cross-products Z'Z, Z'X, Z'y, X'X, X'y and y'y are formed once per
fit; from one Cholesky factor L of M each evaluation takes

* log det V = n log s2_e + log det M,
* s2_e X'V^-1 X = X'X - C'C with [C | c] = L^-1 Lambda Z'[X | y],
* the penalized residual sum of squares s2_e r'V^-1 r at the GLS fixed
  effects, and the spherical random effects b = M^-1 Lambda Z'r,

and the analytic gradient in log-variances.  Factor l's trace term
s2_l tr(Z_l'V^-1 Z_l) is d_l minus the trace of M^-1 over its levels, its
quadratic term is |b_l|^2 / s2_e, and the REML term is tr(K^-1 B_l'B_l)
with K = X'X - C'C and B = M^-1 Lambda Z'X, so no step costs more than
O(q^3 + q^2 p) and no n x n matrix is formed.  A point where M or K is not
numerically positive definite (a variance ratio near 1e22 over a
rank-deficient crossed Z'Z) gets a large finite objective.

L-BFGS-B runs with this gradient from a small grid of variance ratios.
The best start is finished by Newton steps on the gradient: the Hessian is
the central difference of the gradient, coordinates at an active bound stay
fixed, and eigenvalues are taken in absolute value so that a flat
coordinate next to a zero variance still descends.  A fit has converged
when its projected gradient is below ``_GRAD_TOL`` and no start stopped at
``max_iter``; the L-BFGS-B stop message is not read.  The GLS fixed effects,
their covariance and the weak-identification check use the same equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import optimize
from scipy.linalg import lapack

from .errors import SingularityError, ValidationError

_RATIO_STARTS = (1e-2, 1e-1, 1.0, 1e1, 1e2)
_BOUNDARY_FRAC = 1e-10  # components below this times var(y) report as zero
_GRAD_TOL = 1e-6  # projected log-variance gradient of a converged fit
_NEWTON_STEPS = 8
_HALVINGS = 20  # step halvings before a Newton finish gives up
_HESS_STEP = 1e-4  # central-difference step of the Hessian, in log-variance
_FAIL = 1e30  # objective where the equations are not numerically definite


@dataclass(frozen=True)
class LmmSpec:
    """Response, full-rank fixed design, and random-factor incidence."""

    y: np.ndarray
    X: np.ndarray
    random: tuple[np.ndarray, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        X = np.asarray(self.X, dtype=float)
        rnd = tuple(np.asarray(Z, dtype=float) for Z in self.random)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "random", rnd)
        names = self.names or tuple(f"u{l}" for l in range(len(rnd)))
        object.__setattr__(self, "names", tuple(names))
        n, p = X.shape
        if len(y) != n:
            raise ValidationError("y and X disagree in length")
        if n <= p:
            raise ValidationError(f"need n > p, got n={n}, p={p}")
        if np.linalg.matrix_rank(X) < p:
            raise ValidationError("X is rank deficient")
        for Z in rnd:
            if Z.shape[0] != n:
                raise ValidationError("random incidence row count != n")


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


def _tri(L: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """L^-1 b, or L^-T b when ``trans``, for a lower-triangular factor L.

    LAPACK ``dtrtrs`` on the Fortran-ordered view of L, as scipy's
    ``solve_triangular`` calls it, without that wrapper's per-call checks.
    """
    if not b.size:
        return np.zeros(b.shape)
    if L.flags.f_contiguous:
        x, info = lapack.dtrtrs(L, b, lower=1, trans=int(trans))
    else:
        x, info = lapack.dtrtrs(L.T, b, lower=0, trans=int(not trans))
    if info:
        raise np.linalg.LinAlgError("triangular factor is singular")
    return x


@dataclass(frozen=True)
class _CrossProducts:
    """Z'Z, Z'[X | y], X'X, X'y and y'y: all an evaluation reads."""

    ZtZ: np.ndarray
    ZtXy: np.ndarray
    XtX: np.ndarray
    Xty: np.ndarray
    yty: float
    n: int
    levels: np.ndarray  # d_l, columns of each Z_l
    factor: np.ndarray  # factor l of each of the q random effects


def _cross_products(spec: LmmSpec) -> _CrossProducts:
    Zs, X, y = spec.random, spec.X, spec.y
    Xy = np.column_stack([X, y])
    levels = np.array([Z.shape[1] for Z in Zs], dtype=int)
    return _CrossProducts(
        ZtZ=np.block([[Zi.T @ Zk for Zk in Zs] for Zi in Zs]) if Zs else np.zeros((0, 0)),
        ZtXy=np.vstack([Z.T @ Xy for Z in Zs]) if Zs else np.zeros((0, Xy.shape[1])),
        XtX=X.T @ X,
        Xty=X.T @ y,
        yty=float(y @ y),
        n=len(y),
        levels=levels,
        factor=np.repeat(np.arange(len(Zs)), levels),
    )


@dataclass(frozen=True)
class _Mme:
    """Mixed-model equations solved at one variance point."""

    L: np.ndarray  # lower Cholesky factor of M = I + Lambda Z'Z Lambda
    C: np.ndarray  # L^-1 Lambda Z'X
    c: np.ndarray  # L^-1 Lambda Z'y
    R: np.ndarray  # lower Cholesky factor of K = X'X - C'C = s2_e X'V^-1 X
    beta: np.ndarray  # GLS fixed effects
    prss: float  # penalized residual sum of squares, s2_e r'V^-1 r


def _solve(sig: np.ndarray, cp: _CrossProducts) -> _Mme:
    """Factor the equations at variances ``sig = (s2_e, s2_1, ...)``;
    LinAlgError when M or K is not numerically positive definite."""
    lam = np.sqrt(sig[1:] / sig[0])[cp.factor]
    L = np.linalg.cholesky(np.eye(len(lam)) + lam[:, None] * cp.ZtZ * lam)
    Cc = _tri(L, lam[:, None] * cp.ZtXy)
    C, c = Cc[:, :-1], Cc[:, -1]
    R = np.linalg.cholesky(cp.XtX - C.T @ C)
    e = _tri(R, cp.Xty - C.T @ c)
    beta = _tri(R, e, trans=True)
    return _Mme(L=L, C=C, c=c, R=R, beta=beta, prss=float(cp.yty - c @ c - e @ e))


def _neg_loglik(theta, cp: _CrossProducts, method: str):
    """Negative (restricted) log-likelihood at log-variances ``theta`` and
    its gradient in ``theta``."""
    sig = np.exp(theta)
    try:
        s = _solve(sig, cp)
        if not (np.isfinite(s.prss) and s.prss > 0):
            raise np.linalg.LinAlgError("penalized residual sum of squares <= 0")
        Linv, info = lapack.dtrtri(s.L, lower=1) if len(s.L) else (s.L, 0)
        if info:
            raise np.linalg.LinAlgError("singular factor of M")
    except np.linalg.LinAlgError:
        return _FAIL, np.zeros_like(theta)
    n, p, k = cp.n, len(s.beta), len(cp.levels)

    def per_factor(x):
        return np.bincount(cp.factor, weights=x, minlength=k)

    b = _tri(s.L, s.c - s.C @ s.beta, trans=True)  # M^-1 Lambda Z'r
    b_sq = per_factor(b * b)
    trace = cp.levels - per_factor(np.einsum("ij,ij->j", Linv, Linv))  # diag M^-1
    logdet = n * theta[0] + 2.0 * np.log(np.diag(s.L)).sum()
    nobs, reml = n, np.zeros(k)
    if method == "reml":
        nobs = n - p
        logdet += 2.0 * np.log(np.diag(s.R)).sum() - p * theta[0]
        W = _tri(s.R, _tri(s.L, s.C, trans=True).T)  # R^-1 B', B = M^-1 Lambda Z'X
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


def _newton_finish(obj, theta, lo, hi, max_steps=_NEWTON_STEPS):
    """At most ``max_steps`` Newton steps on the analytic gradient from
    ``theta``, inside the bounds ``lo`` and ``hi`` (scalars or arrays).

    A coordinate at a bound whose gradient points outward stays fixed.  The
    Hessian's eigenvalues are replaced by their absolute values, floored at
    ``1e-8`` of the largest, so that a flat or concave coordinate next to a
    zero variance still gets a descent step; each step is halved until the
    objective does not rise beyond rounding.  Returns the point, its value,
    gradient and the number of steps taken.
    """
    f, g = obj(theta)
    lo, hi = np.broadcast_to(lo, theta.shape), np.broadcast_to(hi, theta.shape)
    steps = 0
    for _ in range(max_steps):
        free = ~(((theta <= lo) & (g > 0)) | ((theta >= hi) & (g < 0)))
        if not np.any(g[free]):
            break
        ev, Q = np.linalg.eigh(_hessian(obj, theta, free))
        top = np.max(np.abs(ev))
        if not top > 0:
            break
        step = -Q @ ((Q.T @ g[free]) / np.maximum(np.abs(ev), 1e-8 * top))
        for _ in range(_HALVINGS):
            new = theta.copy()
            new[free] = np.clip(theta[free] + step, lo[free], hi[free])
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

    Returns the best iterate with ``converged=False`` plus a flag when an
    optimizer start hits ``max_iter`` or the projected gradient at the
    finish is not below ``_GRAD_TOL``; variance estimates within a relative
    boundary band of zero are reported as exactly zero and flagged.
    """
    if method not in ("ml", "reml"):
        raise ValidationError(f"method must be 'ml' or 'reml', got {method!r}")
    y, X = spec.y, spec.X
    vary = float(np.var(y))
    if vary <= 0:
        raise ValidationError("response is constant; nothing to fit")
    cp = _cross_products(spec)
    obj = partial(_neg_loglik, cp=cp, method=method)

    # OLS residual variance seeds the scale of every start
    beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
    s2_ols = max(float(np.mean((y - X @ beta0) ** 2)), 1e-12 * vary)
    lo, hi = np.log(1e-14 * vary), np.log(1e8 * vary)

    best = None
    nit_total = 0
    hit_max_iter = False
    for ratio in _RATIO_STARTS:
        theta0 = np.log(np.r_[s2_ols, np.full(len(cp.levels), ratio * s2_ols)])
        res = optimize.minimize(
            obj,
            theta0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(lo, hi)] * len(theta0),
            options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-10},
        )
        nit_total += res.nit
        hit_max_iter |= res.status == 1  # iteration or evaluation limit
        if best is None or res.fun < best.fun:
            best = res

    theta, f, g, steps = _newton_finish(obj, np.asarray(best.x, dtype=float), lo, hi)
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
        iterations=int(nit_total + steps),
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
