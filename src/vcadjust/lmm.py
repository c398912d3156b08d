"""Univariate linear mixed model fitter with scalar variance components.

Model: ``y = X b + sum_l Z_l u_l + e`` with ``u_l ~ N(0, s2_l I)`` and
``e ~ N(0, s2_e I)``.  The (restricted) log-likelihood is maximized over
log-variances theta, the fixed effects profiled out by GLS.  Reported
standard errors are plug-in GLS (no small-sample inflation).

Every point goes through Henderson's mixed-model equations in lme4's form.
With Z = [Z_1 ... Z_L] (q columns, one level code per record: no Z_l is
formed), Lambda = diag(sqrt(s2_l / s2_e)) over each factor's levels and
A = Z Lambda, V = s2_e (I + A A') and M = I + A'A.  The counts Z_i'Z_k,
Z'[X | y], X'X, X'y and y'y are formed once per fit.  One factor F F' = M
(:class:`vcadjust.mme.Factor`) gives log det V = n log s2_e + log det M,
K = s2_e X'V^-1 X = X'X - C'C with [C | c] = F^-1 Lambda Z'[X | y],
prss = s2_e r'V^-1 r and b = M^-1 Lambda Z'r.  With P the GLS projection,
P~ = V^-1 (ML) or P (REML) and Vdot_k = dV/dtheta_k, the gradient is
g_k = (tr(P~ Vdot_k) - y'P Vdot_k P y) / 2 and the Hessian is

    H = 2 AI - E + diag(g),  AI = W'PW / 2,  E_kl = tr(P~ Vdot_k P~ Vdot_l) / 2,

W = [e, Z_1 u_1, ...] with u = Lambda b and e = r - Z u.  As A'e = b,
X'e = 0 and e'e = prss - |b|^2, the products of W come from the counts
and one solve with F.  With S = A'P~A = I - M^-1 - B K^-1 B' (B = M^-1 A'X,
REML only) and t_l the trace of its block l, g_l = (t_l - |b_l|^2 / s2_e) / 2;
as Vdot_0 = V - sum_l Vdot_l and P~ V P~ = P~, E_lm = |S_lm|_F^2 / 2,
E_0l = t_l / 2 - sum_m E_lm and E_00 = n~ / 2 - sum_l t_l + sum_lm E_lm
(n~ = n, or n - p under REML).  diag(M^-1) and the block norms of M^-1
come from F by selected inversion.  With one random factor a point costs
O(q p^2) and no n x n or q x q matrix is formed; a second factor adds
O(q_r^2 q), q_r the effects outside the largest factor.  Where M or K is
not numerically positive definite the value is large and finite and the
derivatives are zero.

Projected Newton steps on H run from the best point of a grid of variance
ratios in :func:`vcadjust.optimize.minimize`, the loop that also ends every
``mvc_em.fit_em``.  A fit has converged when its projected gradient is below
``optimize._GRAD_TOL`` and it did not stop at ``max_iter``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import optimize
from .errors import SingularityError, ValidationError
from .mme import Factor, Layout, _cholesky
from .optimize import _ACTIVE_GAP

_RATIO_STARTS = (1e-2, 1e-1, 1.0, 1e1, 1e2)
_BOUNDARY_FRAC = 1e-10  # components below this times var(y) report as zero
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
    converged: bool  # stop == "gradient"
    iterations: int  # Newton steps
    flags: tuple[str, ...] = ()
    names: tuple[str, ...] = ()
    stop: str = "gradient"  # or "max_iter", or "stall": see optimize.minimize

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
    member: np.ndarray  # k x q: 1 where random effect a belongs to factor l

    def ztz(self, U: np.ndarray) -> np.ndarray:
        """Z'Z U from the level counts, for U with one row per random effect."""
        lay, out = self.layout, np.zeros_like(U)
        for i, si in enumerate(lay.slices):
            for k, sk in enumerate(lay.slices):
                N = lay.pair(i, k)
                out[si] += N[:, None] * U[sk] if i == k else N @ U[sk]
        return out


def _cross_products(spec: LmmSpec) -> _CrossProducts:
    codes, X, y = spec.random, spec.X, spec.y
    Xy = np.column_stack([X, y])
    levels = [int(g.max()) + 1 for g in codes]
    layout = Layout((1,) * len(codes), codes, levels)
    factor = np.repeat(np.arange(len(codes)), levels)
    return _CrossProducts(
        layout=layout,
        ZtXy=np.vstack([np.zeros((0, Xy.shape[1]))] + [S.T for S in layout.level_sums(Xy.T)]),
        XtX=X.T @ X, Xty=X.T @ y, yty=float(y @ y), n=len(y), factor=factor,
        member=(factor == np.arange(len(codes))[:, None]).astype(float),
    )


@dataclass(frozen=True)
class _Mme:
    """Mixed-model equations solved at one variance point."""

    F: Factor  # F F' = M = I + Lambda Z'Z Lambda
    C: np.ndarray  # F^-1 Lambda Z'X
    c: np.ndarray  # F^-1 Lambda Z'y
    R: np.ndarray  # lower Cholesky factor of K = X'X - C'C = s2_e X'V^-1 X
    Rinv: np.ndarray  # R^-1
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
    R, Rinv = _cholesky(cp.XtX - C.T @ C)
    e = Rinv @ (cp.Xty - C.T @ c)
    return _Mme(F=F, C=C, c=c, R=R, Rinv=Rinv, beta=Rinv.T @ e, prss=float(cp.yty - c @ c - e @ e))


class _Point:
    """Negative (restricted) log-likelihood ``f`` at log-variances ``x``,
    taken on construction; its gradient and Hessian on demand, from the same
    solve of the equations (``s``; where they are not definite, None, with
    zero derivatives)."""

    def __init__(self, x: np.ndarray, cp: _CrossProducts, method: str):
        self.x, self.cp, self.reml = x, cp, method == "reml"
        self.sig = sig = np.exp(x)
        n, p = cp.n, len(cp.Xty)
        self.nobs = n - p if self.reml else n
        try:
            self.s = s = _solve(sig, cp)
            if not (np.isfinite(s.prss) and s.prss > 0):
                raise np.linalg.LinAlgError("penalized residual sum of squares <= 0")
        except np.linalg.LinAlgError:
            self.s, self.f = None, _FAIL
            self.grad, self.hess = np.zeros_like(x), np.zeros((len(x),) * 2)
            return
        logdet = n * x[0] + s.F.logdet
        if self.reml:
            logdet += 2.0 * np.log(np.diag(s.R)).sum() - p * x[0]
        self.f = 0.5 * (self.nobs * np.log(2 * np.pi) + logdet + s.prss / sig[0])

    @cached_property
    def _b(self) -> np.ndarray:  # M^-1 Lambda Z'r, the spherical random effects
        return self.s.F.upper(self.s.c - self.s.C @ self.s.beta)

    @cached_property
    def _G(self) -> np.ndarray:  # G' = R^-1 B', so that B K^-1 B' = G G'
        return self.s.F.upper(self.s.C) @ self.s.Rinv.T

    @cached_property
    def _trace(self) -> np.ndarray:  # t_l, the trace of block l of S
        diag = self.s.F.diag() + (np.einsum("ij,ij->i", self._G, self._G) if self.reml else 0.0)
        return np.array(self.cp.layout.levels) - self.cp.member @ diag

    @cached_property
    def grad(self) -> np.ndarray:
        b_sq, t = self.cp.member @ self._b**2, self._trace
        quad = np.r_[self.s.prss - b_sq.sum(), b_sq] / self.sig[0]  # e'e, |b_l|^2 over s2_e
        return 0.5 * (np.r_[self.nobs - t.sum(), t] - quad)

    @cached_property
    def hess(self) -> np.ndarray:
        k1, cp, s, t, b = len(self.x), self.cp, self.s, self._trace, self._b
        ratio = np.sqrt(self.sig[1:] / self.sig[0])[cp.factor]
        U = cp.member.T * (ratio * b)[:, None]  # u_l, one column per factor
        ZW = cp.ztz(U)  # Z'Z_l u_l
        WW = np.empty((k1, k1))  # W'W
        WW[0, 1:] = WW[1:, 0] = cp.member @ b**2
        WW[0, 0], WW[1:, 1:] = s.prss - WW[0, 1:].sum(), U.T @ ZW
        D = s.F.lower(np.column_stack([b, ratio[:, None] * ZW]))  # F^-1 Lambda Z'W
        XW = np.column_stack([np.zeros(len(s.beta)), cp.ZtXy[:, :-1].T @ U])  # X'e = 0
        XPW = s.Rinv @ (XW - s.C.T @ D)
        AI = 0.5 * (WW - D.T @ D - XPW.T @ XPW) / self.sig[0]
        S2 = s.F.block_norms() + np.diag(2.0 * t - np.array(cp.layout.levels))  # |S_lm|_F^2
        if self.reml and k1 > 1:  # plus 2 tr(G_l'(M^-1)_lm G_m) + |G_l G_m'|_F^2
            Gs = [self._G[sl] for sl in cp.layout.slices]
            S2 += 2.0 * np.array([[s.F.contract(l, m, Gl, Gm)[0, 0] for m, Gm in enumerate(Gs)]
                                  for l, Gl in enumerate(Gs)])
            GG = np.array([Gl.T @ Gl for Gl in Gs])
            S2 += np.einsum("lij,mij->lm", GG, GG)
        E = np.empty((k1, k1))
        E[1:, 1:] = 0.5 * S2
        E[0, 1:] = E[1:, 0] = 0.5 * t - E[1:, 1:].sum(axis=0)
        E[0, 0] = 0.5 * self.nobs - t.sum() + E[1:, 1:].sum()
        return 2.0 * AI - E + np.diag(self.grad)

    def near(self, lo: np.ndarray, gap: float) -> np.ndarray:
        """The log-variances at ``lo``, and the random factors' within
        ``_ACTIVE_GAP`` of zero in standard deviation relative to the residual."""
        rel = self.x[1:] - self.x[0] <= 2.0 * np.log(_ACTIVE_GAP)
        return np.r_[False, rel] | (self.x <= lo)


def fit_lmm(spec: LmmSpec, method: str = "ml", tol: float = 1e-10, max_iter: int = 500) -> LmmFit:
    """Maximize the ML or REML likelihood over the variance components.

    ``tol`` is the log-variance step that ends the Newton steps and
    ``max_iter`` caps their number.  A fit that stops at ``max_iter``, or
    where the projected gradient is not below ``optimize._GRAD_TOL``, is flagged
    ``non_convergence``; variances within a relative band of zero are
    reported as exactly zero and flagged ``boundary``."""
    if method not in ("ml", "reml"):
        raise ValidationError(f"method must be 'ml' or 'reml', got {method!r}")
    vary = float(np.var(spec.y))
    if vary <= 0:
        raise ValidationError("response is constant; nothing to fit")
    cp = _cross_products(spec)
    point = partial(_Point, cp=cp, method=method)

    # the OLS residual variance seeds the scale of every grid point
    rss = cp.yty - cp.Xty @ np.linalg.solve(cp.XtX, cp.Xty)
    s2_ols = max(rss / cp.n, 1e-12 * vary)
    lo, hi = np.log(1e-14 * vary), np.log(1e8 * vary)
    k = len(cp.layout.levels)
    grid = [point(np.log(np.r_[s2_ols, np.full(k, r * s2_ols)]))
            for r in (_RATIO_STARTS if k else (1.0,))]
    best = min(grid, key=lambda pt: pt.f)
    res = optimize.minimize(point, best, bounds=[(lo, hi)] * (k + 1), maxiter=max_iter, tol=tol)
    pt, sig = res.point, res.point.sig
    flags = [] if res.stop == "gradient" else ["non_convergence"]

    # boundary handling: tiny components are reported as exact zeros
    boundary = sig[1:] < _BOUNDARY_FRAC * vary
    if boundary.any():
        flags.append("boundary")
    sig2 = np.where(boundary, 0.0, sig[1:])
    try:
        gls = pt.s if pt.s is not None and not boundary.any() else _solve(np.r_[sig[0], sig2], cp)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("GLS information matrix is singular") from exc

    # weak identification: a singular Hessian over the free coordinates
    free = np.r_[True, ~boundary]
    ev = np.linalg.eigvalsh(pt.hess[np.ix_(free, free)])
    top = np.max(np.abs(ev))
    if free.sum() >= 2 and (top <= 0 or np.min(ev) < 1e-5 * top):
        flags.append("weakly_identified")

    return LmmFit(beta_hat=gls.beta, sigma_e2=float(sig[0]), sigma2=sig2,
                  beta_cov=sig[0] * (gls.Rinv.T @ gls.Rinv), loglik=float(-pt.f), method=method,
                  converged=res.stop == "gradient", iterations=res.nit, flags=tuple(flags),
                  names=spec.names, stop=res.stop)


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
