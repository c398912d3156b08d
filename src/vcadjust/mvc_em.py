"""General engine: joint response/covariate mixed model fit by EM.

The stacked vector of responses and covariates follows a linear model with
random treatment-associated factors (scalar variances) and random blocking
factors (one small covariance matrix each, the first being the residual).
The EM iteration alternates conditional moments of the random effects given
the data with closed-form complete-data updates, handles all-or-none cell
missingness by simply dropping the empty cells, and reports treatment means
adjusted at the estimated covariate means with a plug-in covariance.

Every quantity of a parameter point comes from one factorisation of
Henderson's mixed-model equations, in the form lme4 uses.  The stacked
covariance is V = R + M Psi M' with R = Sigma_0 (x) I_n, M the incidence of
all random effects and Psi their block-diagonal prior covariance.  With L0
the Cholesky factor of Sigma_0 and Lambda a symmetric square root of Psi,
A = (L0^-1 (x) I_n) M Lambda and Lc = chol(I + A'A) is q x q, q the number
of random effects.  The log-determinant, the quadratic forms, the posterior
of the random effects, the GLS fixed effects and the SEs of the adjusted
means all go through L0 and Lc; no N x N matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg

from .data_model import StackedData
from .errors import SingularityError

_CLIP_FRAC = 1e-12  # eigenvalue floor relative to trace, float-noise guard


@dataclass(frozen=True)
class MVCParams:
    """One parameter point: fixed effects, scalar variances, covariances."""

    beta: np.ndarray
    sigma2: np.ndarray  # treatment-associated factor variances, length r
    Sigmas: tuple[np.ndarray, ...]  # residual first, then one per blocking factor

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "sigma2", np.asarray(self.sigma2, dtype=float))
        object.__setattr__(
            self, "Sigmas", tuple(np.asarray(S, dtype=float) for S in self.Sigmas)
        )


@dataclass(frozen=True)
class MultivariateModel:
    """Stacked design plus a current parameter point."""

    stacked: StackedData
    params: MVCParams

    @property
    def r(self) -> int:
        return len(self.stacked.C_list)

    @property
    def q(self) -> int:
        return len(self.stacked.D_list)

    def with_params(self, params: MVCParams) -> "MultivariateModel":
        return replace(self, params=params)


def initial_params(stacked: StackedData) -> MVCParams:
    """Scale-aware interior starting point.

    Fixed effects by ordinary least squares; residual covariance from the
    pooled per-cell residual cross-products; every other component at a
    tenth of the residual scale.
    """
    X, z = stacked.X, stacked.z
    n, m = stacked.n_obs, stacked.m
    beta, *_ = np.linalg.lstsq(X, z, rcond=None)
    R = (z - X @ beta).reshape(m + 1, n).T
    S0 = R.T @ R / n
    S0 += np.eye(m + 1) * (1e-10 * np.trace(S0) + 1e-12)
    Sigmas = [S0] + [0.1 * S0 for _ in stacked.D_list]
    s2 = np.full(len(stacked.C_list), 0.1 * S0[0, 0])
    return MVCParams(beta=beta, sigma2=s2, Sigmas=tuple(Sigmas))


def make_model(stacked: StackedData, params: MVCParams | None = None) -> MultivariateModel:
    return MultivariateModel(
        stacked=stacked, params=params if params is not None else initial_params(stacked)
    )


def assemble_V(model: MultivariateModel) -> np.ndarray:
    """Dense stacked covariance: treatment terms plus one Kronecker block
    per blocking factor plus the residual."""
    sd, p = model.stacked, model.params
    n, m = sd.n_obs, sd.m
    V = np.kron(p.Sigmas[0], np.eye(n))
    for s2, C in zip(p.sigma2, sd.C_list):
        V += s2 * (C @ C.T)
    for S, W in zip(p.Sigmas[1:], sd.W_list):
        V += np.kron(S, W @ W.T)
    return V


def _whiten(L0: np.ndarray, y: np.ndarray, trans: bool = False) -> np.ndarray:
    """(L0^-1 (x) I_n) y, or (L0^-T (x) I_n) y when ``trans``, for a stacked
    vector or the columns of a stacked matrix."""
    blocks = y.reshape(len(L0), -1)  # one row of blocks per variable
    out = linalg.solve_triangular(L0, blocks, lower=True, trans=int(trans))
    return out.reshape(y.shape)


def _component_root(S: np.ndarray, name: str) -> np.ndarray:
    """Symmetric square root of a covariance component (PSD, may be singular)."""
    vals, vecs = np.linalg.eigh(np.atleast_2d(S))
    if vals.min() < -_CLIP_FRAC * np.abs(vals).max():
        raise SingularityError(
            f"{name} is not positive semidefinite; it lies outside the parameter space"
        )
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


@dataclass(frozen=True)
class _Factor:
    """Mixed-model-equations factorisation of V at one parameter point."""

    L0: np.ndarray  # Cholesky factor of Sigma_0
    root: np.ndarray  # Lambda, q x q: Lambda Lambda' = Psi
    G: np.ndarray  # M Lambda, N x q
    A: np.ndarray  # (L0^-1 (x) I_n) M Lambda
    Lc: np.ndarray  # lower Cholesky factor of I + A'A
    logdet: float  # log det V

    def core(self, yw: np.ndarray) -> np.ndarray:
        """Lc^-1 A' yw for a whitened vector or matrix yw."""
        return linalg.solve_triangular(self.Lc, self.A.T @ yw, lower=True)

    def quad(self, r: np.ndarray) -> float:
        """r' V^-1 r = |rw|^2 - |Lc^-1 A' rw|^2 with rw the whitened r."""
        rw = _whiten(self.L0, r)
        s = self.core(rw)
        return float(rw @ rw - s @ s)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """V^-1 y = (L0^-T (x) I)(I - A (I + A'A)^-1 A')(L0^-1 (x) I) y."""
        yw = _whiten(self.L0, y)
        w = linalg.solve_triangular(self.Lc, self.core(yw), lower=True, trans="T")
        return _whiten(self.L0, yw - self.A @ w, trans=True)

    def loglik(self, r: np.ndarray) -> float:
        """Gaussian log-density of the stacked residual r."""
        return -0.5 * (len(r) * np.log(2 * np.pi) + self.logdet + self.quad(r))


def _factorise(model: MultivariateModel) -> _Factor:
    """Build the one factorisation every EM quantity is taken from."""
    sd, p = model.stacked, model.params
    try:
        L0 = np.linalg.cholesky(p.Sigmas[0])
    except np.linalg.LinAlgError as exc:
        raise SingularityError("Sigma0 is not positive definite") from exc
    roots, cols = [], []
    for j, (s2, C) in enumerate(zip(p.sigma2, sd.C_list)):
        sd_j = _component_root(s2, f"sigma2[{j}]")[0, 0]
        roots.append(sd_j * np.eye(C.shape[1]))
        cols.append(sd_j * C)
    for i, (S, W) in enumerate(zip(p.Sigmas[1:], sd.W_list), start=1):
        Q = _component_root(S, f"Sigma{i}")
        roots.append(np.kron(Q, np.eye(W.shape[1])))
        cols.append(np.kron(Q, W))  # D_i (Q (x) I) with D_i = I (x) W
    G = np.hstack(cols) if cols else np.zeros((sd.n_stacked, 0))
    A = _whiten(L0, G)
    Lc = np.linalg.cholesky(np.eye(A.shape[1]) + A.T @ A)
    # log det V = n log det Sigma_0 + log det (I + A'A)
    logdet = 2.0 * (sd.n_obs * np.log(np.diag(L0)).sum() + np.log(np.diag(Lc)).sum())
    root = linalg.block_diag(*roots)
    return _Factor(L0=L0, root=root, G=G, A=A, Lc=Lc, logdet=float(logdet))


def observed_loglik(model: MultivariateModel, z: np.ndarray | None = None) -> float:
    """Exact Gaussian log-density of the stacked data at the current params."""
    sd, p = model.stacked, model.params
    zz = sd.z if z is None else np.asarray(z, dtype=float)
    return _factorise(model).loglik(zz - sd.X @ p.beta)


@dataclass
class EStepMoments:
    """Conditional moments of every random factor given the data."""

    t_mean: tuple[np.ndarray, ...]
    t_sq: tuple[float, ...]  # E[T_i' T_i]
    b_mean: tuple[np.ndarray, ...]
    b_sq: tuple[np.ndarray, ...]  # (m+1)x(m+1) matrices of E[B_ij' B_ik]
    b0_mean: np.ndarray  # residual-factor mean at the current fixed effects
    b0_sq: np.ndarray
    resid_less_effects: np.ndarray = field(repr=False)  # z - sum C E[T] - sum D E[B]
    b0_trace: np.ndarray = field(repr=False)  # trace matrix of var(B_0 | z)


def _block_gram(x: np.ndarray, k: int) -> np.ndarray:
    """k x k Gram matrix of the k variable blocks of a variable-major
    vector, or of the rows of a matrix: entry (j, l) is sum x_j * x_l."""
    R = x.reshape(k, -1)
    return R @ R.T


def e_step(
    model: MultivariateModel,
    z: np.ndarray | None = None,
    _factor: _Factor | None = None,
) -> EStepMoments:
    """Conditional means and second moments of the random factors.

    The random effects are u = Lambda v with v | z ~ N(Lc^-T s, Lc^-T Lc^-1),
    s = Lc^-1 A' times the whitened residual; their covariance factor is
    K = Lambda Lc^-T.  Second moments add the trace of the conditional
    covariance block to the outer product of conditional means; the
    residual factor's moments come from the identity that it equals the
    data minus fixed effects minus every other random term.
    """
    sd, p = model.stacked, model.params
    zz = sd.z if z is None else np.asarray(z, dtype=float)
    mp1 = sd.m + 1
    f = _factor if _factor is not None else _factorise(model)
    s = f.core(_whiten(f.L0, zz - sd.X @ p.beta))
    v_mean = linalg.solve_triangular(f.Lc, s, lower=True, trans="T")
    u_mean = f.root @ v_mean
    K = linalg.solve_triangular(f.Lc, f.root.T, lower=True).T

    t_mean, t_sq, b_mean, b_sq = [], [], [], []
    off = 0
    for C in sd.C_list:
        ci = C.shape[1]
        mu = u_mean[off : off + ci]
        t_mean.append(mu)
        t_sq.append(float(mu @ mu) + float(np.sum(K[off : off + ci] ** 2)))
        off += ci
    for W in sd.W_list:
        tot = mp1 * W.shape[1]
        mu = u_mean[off : off + tot]
        sq = _block_gram(mu, mp1) + _block_gram(K[off : off + tot], mp1)
        b_mean.append(mu)
        b_sq.append(0.5 * (sq + sq.T))
        off += tot

    # residual factor via its defining identity; M K = G Lc^-T
    reduced = zz - f.G @ v_mean
    b0_mean = reduced - sd.X @ p.beta
    b0_trace = _block_gram(linalg.solve_triangular(f.Lc, f.G.T, lower=True).T, mp1)
    b0_sq = _block_gram(b0_mean, mp1) + b0_trace
    return EStepMoments(
        t_mean=tuple(t_mean),
        t_sq=tuple(t_sq),
        b_mean=tuple(b_mean),
        b_sq=tuple(b_sq),
        b0_mean=b0_mean,
        b0_sq=0.5 * (b0_sq + b0_sq.T),
        resid_less_effects=reduced,
        b0_trace=b0_trace,
    )


def m_step(
    moments: EStepMoments, model: MultivariateModel
) -> tuple[MVCParams, list[str]]:
    """Complete-data maximizers at the conditional moments.

    Fixed effects first (weighted by the current residual covariance), then
    the residual covariance from moments recomputed at the new fixed
    effects, then the remaining components from their own moments.  Any
    indefinite update is clipped at a relative eigenvalue floor and the
    event reported.
    """
    sd, p = model.stacked, model.params
    n, mp1 = sd.n_obs, sd.m + 1
    events: list[str] = []

    try:
        L0 = np.linalg.cholesky(p.Sigmas[0])
    except np.linalg.LinAlgError as exc:
        raise SingularityError("current Sigma0 is not positive definite") from exc
    Xw = _whiten(L0, sd.X)
    yw = _whiten(L0, moments.resid_less_effects)
    try:
        beta = np.linalg.solve(Xw.T @ Xw, Xw.T @ yw)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("weighted normal equations are singular") from exc

    b0 = moments.resid_less_effects - sd.X @ beta
    S0 = _block_gram(b0, mp1) + moments.b0_trace
    S0 = 0.5 * (S0 + S0.T) / n

    sigma2 = np.array(
        [sq / C.shape[1] for sq, C in zip(moments.t_sq, sd.C_list)]
    )
    Sigmas = [S0]
    for sq, W in zip(moments.b_sq, sd.W_list):
        Sigmas.append(sq / W.shape[1])

    clipped = []
    for i, S in enumerate(Sigmas):
        vals, vecs = np.linalg.eigh(S)
        floor = _CLIP_FRAC * max(float(np.trace(S)), 1e-300)
        if vals.min() < floor:
            if i == 0 and vals.min() < -1e-6 * max(float(np.trace(S)), 1.0):
                raise SingularityError(
                    "residual covariance update is indefinite; the model is "
                    "degenerate at the current iterate"
                )
            vals = np.clip(vals, floor, None)
            S = vecs @ np.diag(vals) @ vecs.T
            events.append(f"clipped eigenvalues of component {i}")
        clipped.append(0.5 * (S + S.T))
    sigma2 = np.clip(sigma2, 0.0, None)
    return MVCParams(beta=beta, sigma2=sigma2, Sigmas=tuple(clipped)), events


@dataclass
class MVCFit:
    """EM output: final parameter point and the likelihood path."""

    model: MultivariateModel
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    events: tuple[str, ...] = ()

    @property
    def params(self) -> MVCParams:
        return self.model.params

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @property
    def mu_z_hat(self) -> np.ndarray:
        sd = self.model.stacked
        beta = self.params.beta
        if sd.cov_mean_cols:
            # grand-mean columns appear in covariate declaration order
            cols = sorted(sd.cov_mean_cols.values())
            return beta[cols].copy()
        # treatments affect the covariates: the covariate cell-mean columns
        # follow the response means in blocks of t; report their averages
        t = len(sd.treatments)
        return np.array(
            [float(np.mean(beta[t + j * t : t + (j + 1) * t])) for j in range(sd.m)]
        )


def fit_em(
    model_init: MultivariateModel,
    z: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> MVCFit:
    """Run EM from the supplied starting point until the likelihood settles.

    Convergence is declared when the observed-data log-likelihood moves by
    less than ``tol``; hitting ``max_iter`` returns the last iterate with
    ``converged=False``.
    """
    sd = model_init.stacked
    zz = sd.z if z is None else np.asarray(z, dtype=float)
    model = model_init
    trace: list[float] = []
    events: list[str] = []
    converged = False
    it = 0
    for it in range(max_iter + 1):
        factor = _factorise(model)
        trace.append(factor.loglik(zz - sd.X @ model.params.beta))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        if it == max_iter:
            break
        moments = e_step(model, zz, _factor=factor)
        params, ev = m_step(moments, model)
        events.extend(ev)
        model = model.with_params(params)
    return MVCFit(
        model=model,
        loglik_trace=np.array(trace),
        iterations=it,
        converged=converged,
        events=tuple(events),
    )


@dataclass
class AdjustedMeansResult:
    means: np.ndarray
    covariance: np.ndarray
    evaluated_at: np.ndarray
    treatments: tuple[str, ...]

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def adjusted_means_mvc(fit: MVCFit) -> AdjustedMeansResult:
    """Treatment means at the estimated covariate means, with plug-in SEs.

    Evaluating at the estimated covariate means kills the conditional-mean
    correction term, so the means are the treatment coordinates of the
    fitted fixed effects.  The covariance treats the fitted covariance as
    known and conditions on the covariates: the response block of the
    stacked covariance is replaced by its covariate-conditional Schur
    complement inside the GLS sandwich.  That complement is the inverse of
    the response block of V^-1, which the factorisation gives as an n x n
    matrix.
    """
    model = fit.model
    sd, p = model.stacked, model.params
    n, m = sd.n_obs, sd.m
    f = _factorise(model)
    VinvX = f.solve(sd.X)
    try:
        Ainv = np.linalg.inv(sd.X.T @ VinvX)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("information matrix is singular") from exc
    if m == 0:
        full = Ainv
    else:
        # (V^-1)_00 = (Sigma0^-1)_00 I_n - A0 (I + A'A)^-1 A0'
        A0 = _whiten(f.L0, f.A, trans=True)[:n]
        H = linalg.solve_triangular(f.Lc, A0.T, lower=True)
        s00 = linalg.cho_solve((f.L0, True), np.eye(m + 1)[:, 0])[0]
        U0 = VinvX[:n]
        try:
            full = Ainv @ (U0.T @ np.linalg.solve(s00 * np.eye(n) - H.T @ H, U0)) @ Ainv
        except np.linalg.LinAlgError as exc:
            raise SingularityError("response block of V^-1 is singular") from exc
    full = 0.5 * (full + full.T)
    idx = sd.treat_cols
    return AdjustedMeansResult(
        means=p.beta[idx].copy(),
        covariance=full[np.ix_(idx, idx)],
        evaluated_at=fit.mu_z_hat,
        treatments=sd.treatments,
    )
