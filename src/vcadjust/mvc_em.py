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
covariance is V = Sigma_0 (x) I_n + M Psi M', M the incidence of all random
effects and Psi their block-diagonal prior covariance with symmetric root
Lambda.  Every random term is a Kronecker product: blocking factor i spans
Q_i (x) W_i (Q_i the root of Sigma_i), random treatment term j spans
sigma_j c_j (x) U_j (c_j = e_0, or 1 when treatments affect the covariates),
and each incidence is fixed by one integer code per cell.  With L0 the
Cholesky factor of Sigma_0 and whitened loadings L0^-1 a_k,
A = (L0^-1 (x) I_n) M Lambda = [L0^-1 a_k (x) Z_k], so I + A'A has blocks
(a_i' L0^-T L0^-1 a_k) (x) (Z_i'Z_k), whose count matrices Z_i'Z_k (diagonal
when i = k) are formed once per fit by :class:`vcadjust.mme.Layout`.
I + A'A is factored as F F' by :class:`vcadjust.mme.Factor`: the term with
the most levels is eliminated level by level, its (m+1) x (m+1) level
blocks diagonalised by one eigendecomposition, and the Schur complement
over the other terms takes a dense Cholesky factor.  Products with A and A'
are gathers and per-level sums over the codes.  The log-determinant, the
quadratic forms, the posterior of the random effects, the GLS fixed effects
and the SEs of the adjusted means all go through L0 and F, the E-step and
the gradient read only the blocks of (I + A'A)^-1 that meet a count matrix,
and the Newton Hessian its level blocks and J.  With one blocking factor
an iteration costs O(q (m+1)^2 + N (m+1)^2), q the number of random
effects, and forms no q x q, N x q, n x n or N x N array; a second term
adds O(q_r^2 q), q_r the effects outside the largest.

Plain EM converges sublinearly, slowest when the maximum lies on the PSD
boundary, so EM only starts a fit: ``_EM_START`` iterations at most, then
projected Newton steps on the profile likelihood (EM then Newton, as in
Lindstrom & Bates 1988) in :func:`.optimize.minimize`, the loop that also
ends every ``fit_lmm``, until its projected gradient is below
``optimize._GRAD_TOL``.  The steps work in relative Cholesky coordinates:
log diag and lower triangle of L0, theta_j = sigma_j / L0_00 per random
treatment term and the lower-triangular whitened loading T_k with
Sigma_k = L0 T_k T_k' L0' per blocking factor, its diagonal bounded below
by exactly 0.  The value, the analytic gradient and the exact Hessian
(twice the average-information matrix of Gilmour, Thompson & Cullis 1995,
less the expected information, plus the second-derivative term that
carries the curvature at the boundary) come from one factorisation per
point, the gathers and the count matrices, with no Sigma_k inverted, so a
component may reach rank zero or one, and the steps converge quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from . import optimize
from .data_model import StackedData
from .errors import SingularityError
from .mme import Factor, Layout, _cholesky, _inverse
from .optimize import _ACTIVE_GAP, _GRAD_TOL

_CLIP_FRAC = 1e-12  # eigenvalue floor relative to trace, float-noise guard
_EM_START = 10  # EM iterations before Newton steps take over


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
    Sigmas = [S0] + [0.1 * S0 for _ in stacked.block_codes]
    s2 = np.full(len(stacked.treatment_random_codes), 0.1 * S0[0, 0])
    return MVCParams(beta=beta, sigma2=s2, Sigmas=tuple(Sigmas))


def make_model(stacked: StackedData, params: MVCParams | None = None) -> MultivariateModel:
    return MultivariateModel(
        stacked=stacked, params=params if params is not None else initial_params(stacked)
    )


def _whiten(L0inv: np.ndarray, y: np.ndarray, trans: bool = False) -> np.ndarray:
    """(L0^-1 (x) I_n) y, or (L0^-T (x) I_n) y when ``trans``, for a stacked
    vector or the columns of a stacked matrix."""
    W = L0inv.T if trans else L0inv
    return (W @ y.reshape(len(W), -1)).reshape(y.shape)


def _component_root(S: np.ndarray, name: str) -> np.ndarray:
    """Symmetric square root of a covariance component (PSD, may be singular)."""
    vals, vecs = np.linalg.eigh(np.atleast_2d(S))
    if vals.min() < -_CLIP_FRAC * np.abs(vals).max():
        raise SingularityError(
            f"{name} is not positive semidefinite; it lies outside the parameter space"
        )
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


@dataclass(frozen=True)
class _Terms:
    """The random terms ``c_k (x) Z_k`` of a stacked model, in the order of u.

    Random treatment terms come first, then blocking factors.  Each Z_k is
    one level code per complete cell, and ``layout`` holds the codes and
    their count matrices Z_i'Z_k.  A term with loading a_k (its rows the
    variables, its p_k columns those of c_k) spans the stacked columns
    a_k (x) Z_k, ordered p * d_k + level: the positions ``slices[k]`` of u.
    """

    n: int  # complete cells
    mp1: int  # variables, m + 1
    r: int  # random treatment terms, the first r terms
    carriers: tuple[np.ndarray, ...]  # c_k: e_0 or 1 (one column) or I_{m+1}
    layout: Layout
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def codes(self) -> tuple[np.ndarray, ...]:
        return self.layout.codes

    @property
    def levels(self) -> tuple[int, ...]:
        return self.layout.levels

    @property
    def slices(self) -> tuple[slice, ...]:
        return self.layout.slices

    def apply(self, loads, w: np.ndarray) -> np.ndarray:
        """sum_k (a_k (x) Z_k) w_k for a vector or the columns of a matrix w:
        a gather of a_k w_k at each cell's level."""
        tail = w.shape[1:]
        out = np.zeros((self.mp1, self.n * int(np.prod(tail))))
        for a, g, d, sl in zip(loads, self.codes, self.levels, self.slices):
            out += a @ w[sl].reshape((a.shape[1], d) + tail)[:, g].reshape(a.shape[1], -1)
        return out.reshape((-1,) + tail)

    def scatter(self, loads, y: np.ndarray) -> np.ndarray:
        """[(a_k (x) Z_k)' y]_k for a stacked vector or matrix y: per-level
        sums (one bincount) of the rows of a_k' Y, Y the variable blocks of y."""
        tail = y.shape[1:]
        s = int(np.prod(tail))
        Y = y.reshape(-1, self.n * s)
        parts = [np.zeros((0,) + tail)]
        for k, (a, d) in enumerate(zip(loads, self.levels)):
            p = a.shape[1]
            T = (a.T @ Y).reshape(p, self.n, s)
            T = T.transpose(1, 0, 2).ravel()  # record-major, like the index
            sums = np.bincount(self._bins(k, p, s), weights=T, minlength=p * d * s)
            parts.append(sums.reshape((p * d,) + tail))
        return np.concatenate(parts)

    def _bins(self, k: int, p: int, s: int) -> np.ndarray:
        """The bincount index of :meth:`scatter` for term k, p loading
        columns and s stacked columns, formed once per fit."""
        idx = self._index.get((k, p, s))
        if idx is None:
            g, d = self.codes[k], self.levels[k]
            idx = ((g[:, None] + d * np.arange(p))[:, :, None] * s + np.arange(s)).ravel()
            self._index[k, p, s] = idx
        return idx

    def grams(self, loads) -> dict[tuple[int, int], np.ndarray]:
        """a_i'a_k for every pair i <= k: [a_k (x) Z_k]'[a_k (x) Z_k] has
        blocks (a_i'a_k) (x) (Z_i'Z_k)."""
        return {(i, k): loads[i].T @ loads[k] for i, k in self.layout.counts}

    def trace(self, loads, factor: Factor, through: int | None = None) -> np.ndarray:
        """sum over cells of the variable blocks of G P G', G = [a_k (x) Z_k]
        and P = (I + A'A)^-1 from ``factor`` (with ``through`` = m, of
        G P G' (I (x) Z_m Z_m')): sum_{i,k} a_i S_ik a_k' with S_ik the
        blocks of P contracted with Z_i'Z_k (with Z_i'Z_m Z_m'Z_k)."""
        pair = self.layout.pair
        out = np.zeros((self.mp1, self.mp1))
        for i, k in self.layout.counts:
            if through is None:
                S = factor.contract(i, k, pair(i, k))
            else:
                S = factor.contract(i, k, pair(i, through), pair(k, through))
            part = loads[i] @ S @ loads[k].T
            out += part if i == k else part + part.T
        return out


def _terms(sd: StackedData) -> _Terms:
    """The random terms of a stacked layout, from its codes."""
    mp1 = sd.m + 1
    on = np.ones((mp1, 1)) if sd.treatments_affect_covariates else np.eye(mp1)[:, :1]
    codes = sd.treatment_random_codes + sd.block_codes
    levels = sd.treatment_random_levels + sd.block_levels
    carriers = (on,) * len(sd.treatment_random_codes) + (np.eye(mp1),) * len(sd.block_codes)
    return _Terms(
        n=sd.n_obs, mp1=mp1, r=len(sd.treatment_random_codes), carriers=carriers,
        layout=Layout([c.shape[1] for c in carriers], codes, levels),
    )


@dataclass(frozen=True)
class _Factor:
    """Mixed-model-equations factorisation of V at one parameter point."""

    L0: np.ndarray  # Cholesky factor of Sigma_0
    L0inv: np.ndarray  # L0^-1
    terms: _Terms
    roots: tuple[np.ndarray, ...]  # Q_k, p_k x p_k: Lambda = diag(Q_k (x) I)
    loads: tuple[np.ndarray, ...]  # a_k = c_k Q_k: M Lambda = [a_k (x) Z_k]
    wloads: tuple[np.ndarray, ...]  # L0^-1 a_k: A = [L0^-1 a_k (x) Z_k]
    mme: Factor  # F with F F' = I + A'A
    logdet: float  # log det V

    def core(self, yw: np.ndarray) -> np.ndarray:
        """F^-1 A' yw for a whitened vector or matrix yw."""
        return self.mme.lower(self.terms.scatter(self.wloads, yw))

    def quad(self, r: np.ndarray) -> tuple[float, np.ndarray]:
        """r' V^-1 r = |rw|^2 - |s|^2 with rw the whitened r, and
        s = F^-1 A' rw."""
        rw = _whiten(self.L0inv, r)
        s = self.core(rw)
        return float(rw @ rw - s @ s), s

    def solve(self, y: np.ndarray) -> np.ndarray:
        """V^-1 y = (L0^-T (x) I)(I - A (I + A'A)^-1 A')(L0^-1 (x) I) y."""
        yw = _whiten(self.L0inv, y)
        w = self.mme.upper(self.core(yw))
        return _whiten(self.L0inv, yw - self.terms.apply(self.wloads, w), trans=True)

    def loglik(self, r: np.ndarray) -> tuple[float, np.ndarray]:
        """Gaussian log-density of the stacked residual r, and the core
        vector s of :meth:`quad`."""
        quad, s = self.quad(r)
        return -0.5 * (len(r) * np.log(2 * np.pi) + self.logdet + quad), s


def _factorise(model: MultivariateModel, terms: _Terms | None = None) -> _Factor:
    """Build the one factorisation every EM quantity is taken from."""
    sd, p = model.stacked, model.params
    terms = terms if terms is not None else _terms(sd)
    try:
        L0, L0inv = _cholesky(p.Sigmas[0])
    except np.linalg.LinAlgError as exc:
        raise SingularityError("Sigma0 is not positive definite") from exc
    roots = [_component_root(s2, f"sigma2[{j}]") for j, s2 in enumerate(p.sigma2)]
    roots += [_component_root(S, f"Sigma{i}") for i, S in enumerate(p.Sigmas[1:], start=1)]
    loads = [c @ Q for c, Q in zip(terms.carriers, roots)]
    return _equations(L0, L0inv, terms, [L0inv @ a for a in loads], roots, loads)


def _equations(L0, L0inv, terms: _Terms, wloads, roots=(), loads=()) -> _Factor:
    """Factor I + A'A for the whitened loadings ``wloads``; the roots and
    loadings are carried along for the E-step."""
    mme = Factor(terms.layout, terms.grams(wloads))
    # log det V = n log det Sigma_0 + log det (I + A'A)
    logdet = 2.0 * terms.n * np.log(np.diag(L0)).sum() + mme.logdet
    return _Factor(
        L0=L0, L0inv=L0inv, terms=terms, roots=tuple(roots), loads=tuple(loads),
        wloads=tuple(wloads), mme=mme, logdet=float(logdet),
    )


def observed_loglik(model: MultivariateModel) -> float:
    """Exact Gaussian log-density of the stacked data at the current params."""
    sd, p = model.stacked, model.params
    return _factorise(model).loglik(sd.z - sd.X @ p.beta)[0]


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
    L0inv: np.ndarray | None = field(default=None, repr=False)  # of the current Sigma_0


def _block_gram(x: np.ndarray, k: int) -> np.ndarray:
    """k x k Gram matrix of the k variable blocks of a variable-major
    vector, or of the rows of a matrix: entry (j, l) is sum x_j * x_l."""
    R = x.reshape(k, -1)
    return R @ R.T


def e_step(
    model: MultivariateModel,
    _factor: _Factor | None = None,
    _core: np.ndarray | None = None,
) -> EStepMoments:
    """Conditional means and second moments of the random factors.

    The random effects are u = Lambda v with v | z ~ N(F^-T s, P),
    s = F^-1 A' times the whitened residual and P = (I + A'A)^-1 = (F F')^-1.
    Second moments add the per-level sum of the conditional covariance blocks,
    Q_k [sum_l P_kk(., l), (., l)] Q_k', to the outer product of conditional
    means; the residual factor's moments come from the identity that it
    equals the data minus fixed effects minus every other random term,
    whose conditional covariance M Lambda P Lambda M' is summed over cells
    through the count matrices.
    """
    sd, p = model.stacked, model.params
    mp1, r = sd.m + 1, len(sd.treatment_random_codes)
    f = _factor if _factor is not None else _factorise(model)
    s = _core if _core is not None else f.core(_whiten(f.L0inv, sd.z - sd.X @ p.beta))
    v_mean = f.mme.upper(s)

    t_mean, t_sq, b_mean, b_sq = [], [], [], []
    for k, (Q, d, sl) in enumerate(zip(f.roots, f.terms.levels, f.terms.slices)):
        p_k = len(Q)
        U = Q @ v_mean[sl].reshape(p_k, d)  # E[u_k], one row per variable
        var = Q @ f.mme.contract(k, k, np.ones(d)) @ Q.T
        sq = U @ U.T + var
        if k < r:
            t_mean.append(U.ravel())
            t_sq.append(float(sq[0, 0]))
        else:
            b_mean.append(U.ravel())
            b_sq.append(0.5 * (sq + sq.T))

    # residual factor via its defining identity; M u = M Lambda v
    reduced = sd.z - f.terms.apply(f.loads, v_mean)
    b0_mean = reduced - sd.X @ p.beta
    b0_trace = f.terms.trace(f.loads, f.mme)
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
        L0inv=f.L0inv,
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

    L0inv = moments.L0inv
    if L0inv is None:
        try:
            L0inv = _cholesky(p.Sigmas[0])[1]
        except np.linalg.LinAlgError as exc:
            raise SingularityError("current Sigma0 is not positive definite") from exc
    Xw = _whiten(L0inv, sd.X)
    yw = _whiten(L0inv, moments.resid_less_effects)
    try:
        beta = np.linalg.solve(Xw.T @ Xw, Xw.T @ yw)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("weighted normal equations are singular") from exc

    b0 = moments.resid_less_effects - sd.X @ beta
    S0 = _block_gram(b0, mp1) + moments.b0_trace
    S0 = 0.5 * (S0 + S0.T) / n

    sigma2 = np.array(
        [sq / d for sq, d in zip(moments.t_sq, sd.treatment_random_levels)]
    )
    Sigmas = [S0]
    for sq, d in zip(moments.b_sq, sd.block_levels):
        Sigmas.append(sq / d)

    clipped = []
    for i, (S, vals, vecs) in enumerate(zip(Sigmas, *np.linalg.eigh(np.stack(Sigmas)))):
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


def _coords(params: MVCParams, terms: _Terms) -> np.ndarray:
    """Relative Cholesky coordinates of a parameter point (beta aside).

    The lower triangle of L0 = chol(Sigma_0), its diagonal as logs; then,
    in the order of the terms, theta_j = sigma_j / L0[0, 0] for a random
    treatment term and the lower triangle of T_k, the triangular factor of
    L0^-1 Sigma_k L0^-T with a non-negative diagonal, for a blocking factor.
    """
    il = np.tril_indices(terms.mp1)
    try:
        L0, L0inv = _cholesky(params.Sigmas[0])
    except np.linalg.LinAlgError as exc:
        raise SingularityError("Sigma0 is not positive definite") from exc
    part = L0[il]
    part[il[0] == il[1]] = np.log(np.diag(L0))
    x = [part, np.sqrt(params.sigma2) / L0[0, 0]]
    for i, S in enumerate(params.Sigmas[1:], start=1):
        # L0^-1 Q = R'Q' for Q R = (L0^-1 Q)', so R'R = L0^-1 Sigma_k L0^-T
        R = np.linalg.qr((L0inv @ _component_root(S, f"Sigma{i}")).T, mode="r")
        x.append((R.T * np.where(np.diag(R) < 0, -1.0, 1.0))[il])
    return np.concatenate(x)


def _loadings(x: np.ndarray, terms: _Terms):
    """L0, L0^-1 and the whitened loadings T_k = L0^-1 a_k at coordinates
    ``x``."""
    mp1, r = terms.mp1, terms.r
    il = np.tril_indices(mp1)
    k = len(il[0])
    L0 = np.zeros((mp1, mp1))
    L0[il] = x[:k]
    L0[np.diag_indices(mp1)] = np.exp(np.diag(L0))
    L0inv = _inverse(L0)
    wloads = [th * L0[0, 0] * (L0inv @ c) for th, c in zip(x[k : k + r], terms.carriers)]
    for j in range(k + r, len(x), k):
        T = np.zeros((mp1, mp1))
        T[il] = x[j : j + k]
        wloads.append(T)
    return L0, L0inv, wloads


def _params(x: np.ndarray, terms: _Terms, beta: np.ndarray) -> MVCParams:
    """The parameter point at coordinates ``x`` and fixed effects ``beta``."""
    L0, _, wloads = _loadings(x, terms)
    loads = [L0 @ T for T in wloads]  # a_k; sigma_j c_j for a treatment term
    sigma2 = np.array([a[0, 0] ** 2 for a in loads[: terms.r]])
    Sigmas = [L0 @ L0.T] + [a @ a.T for a in loads[terms.r :]]
    return MVCParams(beta=beta, sigma2=sigma2, Sigmas=tuple(Sigmas))


def _coord_bounds(terms: _Terms) -> np.ndarray:
    """Lower bounds of the coordinates: 0 for theta_j and diag(T_k)."""
    il = np.tril_indices(terms.mp1)
    diag = np.where(il[0] == il[1], 0.0, -np.inf)
    blocks = len(terms.carriers) - terms.r
    return np.concatenate([np.full(len(diag), -np.inf), np.zeros(terms.r)] + [diag] * blocks)


def _loading_derivatives(x: np.ndarray, L0: np.ndarray, L0inv: np.ndarray, wloads, terms: _Terms):
    """First and second derivatives of every loading in the coordinates,
    whitened by L0^-1: the residual's loading L0 first, then each a_k.

    Returns one ``(idx, D, D2)`` per loading: the coordinates it depends
    on, D[i] = L0^-1 da/dx_i and D2[i, j] = L0^-1 d2a/dx_i dx_j over them.
    Every loading is linear in L0 and in its own coordinates (a_j =
    theta_j L0_00 c_j, a_k = L0 T_k), so the only second derivatives are
    the mixed ones and those of a log-diagonal coordinate of L0, which
    enters through exp and so repeats its first derivative.
    """
    mp1, r = terms.mp1, terms.r
    unit, diag = _tril_units(mp1)
    k = len(unit)
    dL = unit.copy()
    dL[diag] *= np.diag(L0)[:, None, None]
    wdL = L0inv @ dL

    def second(D, cross):
        D2 = np.zeros((len(D),) + D.shape)
        D2[diag, diag] = D[diag]
        D2[:k, k:] = cross
        D2[k:, :k] = cross.swapaxes(0, 1)
        return D2

    own = np.arange(k)
    out = [(own, wdL, second(wdL, np.zeros((k, 0, mp1, mp1))))]
    for j, c in enumerate(terms.carriers[:r]):
        u = L0[0, 0] * (L0inv @ c)
        D = np.zeros((k + 1,) + u.shape)
        D[0], D[k] = x[k + j] * u, u
        cross = np.zeros((k, 1) + u.shape)
        cross[0, 0] = u
        out.append((np.append(own, k + j), D, second(D, cross)))
    for j, T in enumerate(wloads[r:]):
        D = np.concatenate([wdL @ T, unit])
        out.append((np.concatenate([own, k + r + j * k + own]), D, second(D, wdL[:, None] @ unit)))
    return out


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b for count matrices, a vector standing for its diagonal matrix."""
    if a.ndim == 1:
        return a * b if b.ndim == 1 else a[:, None] * b
    return a * b if b.ndim == 1 else a @ b


@lru_cache
def _tril_units(mp1: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit lower-triangular matrices in the order of the coordinates
    of a Cholesky factor, and the positions of the diagonal ones."""
    il = np.tril_indices(mp1)
    unit = np.zeros((len(il[0]), mp1, mp1))
    unit[np.arange(len(il[0])), il[0], il[1]] = 1.0
    diag = np.flatnonzero(il[0] == il[1])
    unit.flags.writeable = diag.flags.writeable = False
    return unit, diag


class _Profile:
    """Negative profile log-likelihood ``f`` at relative Cholesky
    coordinates ``x``.

    Whitened by L0, the data are rw with covariance I + A A', A = [T_k (x)
    Z_k].  The value and the GLS fixed effects are taken on construction;
    the gradient and the Hessian, on demand, from the same factor of
    I + A'A (``eqs``).  V is linear in every S_k = a_k a_k' (and in
    Sigma_0 = L0 L0', a_0 = L0, Z_0 = I), so each derivative goes through
    Gamma_k = df/dS_k, whitened as L0' Gamma_k L0 =
    (n I - sum_ij T_i C^k_ij T_j' - F_k F_k') / 2.  There e = rw - A v is
    the whitened residual less the posterior mean v of the spherical
    random effects, F_k = e Z_k its level sums, and C^k_ij the contraction
    of P = (I + A'A)^-1 with the count products Z_i'Z_k Z_k'Z_j, taken as
    two products with count matrices (no product is formed).  The
    gradient is 2 <Gamma_k a_k, da_k>.  The Hessian is H = 2 AI - E + N:
    AI = W'PW / 2 with W_i = (dV/dx_i) V^-1 r and P here the GLS projection
    V^-1 - V^-1 X K^-1 X'V^-1 (the average-information matrix),
    E_ij = tr(V^-1 Vdot_i V^-1 Vdot_j) / 2 (the expected information) and
    N = sum_k <Gamma_k, d2 S_k>, the part that is not quadratic in the
    derivatives of V.  N is what carries the curvature where V is
    quadratic in a vanishing Cholesky factor, on the PSD boundary, where AI
    and E go to 0.

    Whitened, Vdot_i = sum_k Delta_ik (x) Z_k Z_k', Delta_ik = D T_k' + T_k D'
    with D = L0^-1 da_k/dx_i, and Vw^-1 = I - Q with Q = A P A'.  The term
    the factor eliminates first, b, splits P into its level blocks
    U diag(1/e_l) U' and J'J (:mod:`.mme`).  With term b alone, Vw^-1 is
    block diagonal over b's levels: on the n_l cells of level l it is I on
    the contrasts within the level and C_l = (I + n_l T_b T_b')^-1 on their
    sum, so 2 E_ij = (n - d_b) tr(R_i R_j) + sum_l tr(C_l X_il C_l X_jl),
    with R_i the residual's Delta_ik and X_il = R_i + n_l Delta_ib: per-level
    (m+1) x (m+1) algebra.  Every other term adds its own Delta_ik and the
    J'J part of Q (:meth:`_crossed`), at the O(q_r^2 q) cost of the factor.
    Nothing here inverts a Sigma_k, and with one blocking factor no q x q,
    N x q or N x N array is formed.
    """

    def __init__(self, x: np.ndarray, terms: _Terms, X: np.ndarray, z: np.ndarray):
        self.x, self.terms = x, terms
        self.L0, L0inv, self.wloads = _loadings(x, terms)
        self.eqs = eqs = _equations(self.L0, L0inv, terms, self.wloads)
        self.Xw, zw = _whiten(L0inv, X), _whiten(L0inv, z)
        C = eqs.core(np.column_stack([self.Xw, zw]))
        self.Cx = C[:, :-1]
        try:
            self.LKinv = _cholesky(self.Xw.T @ self.Xw - self.Cx.T @ self.Cx)[1]
        except np.linalg.LinAlgError as exc:
            raise SingularityError("weighted normal equations are singular") from exc
        self.beta = self.LKinv.T @ (self.LKinv @ (self.Xw.T @ zw - self.Cx.T @ C[:, -1]))
        self.rw = zw - self.Xw @ self.beta
        s = C[:, -1] - self.Cx @ self.beta
        self.v = eqs.mme.upper(s)
        self.f = 0.5 * (len(z) * np.log(2 * np.pi) + eqs.logdet + self.rw @ self.rw - s @ s)

    @cached_property
    def sums(self) -> list[np.ndarray]:
        """e Z_k Z_k' per loading, the residual's (e itself) first: the level
        sums of the whitened residual e, each at its cells."""
        terms = self.terms
        E = (self.rw - terms.apply(self.wloads, self.v)).reshape(terms.mp1, terms.n)
        return [E] + [F[:, g] for F, g in zip(terms.layout.level_sums(E), terms.codes)]

    @cached_property
    def gammas(self) -> list[np.ndarray]:
        """L0' Gamma_k L0 per loading, the residual's first."""
        terms, E, mme = self.terms, self.sums[0], self.eqs.mme
        return [
            0.5 * (terms.n * np.eye(terms.mp1) - terms.trace(self.wloads, mme, c) - F @ E.T)
            for F, c in zip(self.sums, (None,) + tuple(range(len(terms.codes))))
        ]

    @cached_property
    def _parts(self):
        """Per loading: its coordinates, derivatives, T_k, Gamma_k and sums."""
        derivs = _loading_derivatives(self.x, self.L0, self.eqs.L0inv, self.wloads, self.terms)
        Ts = [np.eye(self.terms.mp1)] + list(self.wloads)
        return [d + (T, G, F) for d, T, G, F in zip(derivs, Ts, self.gammas, self.sums)]

    @cached_property
    def grad(self) -> np.ndarray:
        g = np.zeros(len(self.x))
        for idx, D, _, T, G, _ in self._parts:
            g[idx] += 2.0 * D.reshape(len(D), -1) @ (G @ T).ravel()
        return g

    @cached_property
    def _dots(self) -> np.ndarray:
        """Delta_ik = D T_k' + T_k D' with D = L0^-1 da_k/dx_i, so that the
        whitened dV/dx_i is sum_k Delta_ik (x) Z_k Z_k': coordinates x
        loadings (the residual's first) x (m+1) x (m+1)."""
        mp1 = self.terms.mp1
        out = np.zeros((len(self.x), len(self._parts), mp1, mp1))
        for k, (idx, D, _, T, _, _) in enumerate(self._parts):
            dS = D @ T.T
            out[idx, k] = dS + dS.transpose(0, 2, 1)
        return out

    def curvature(self) -> tuple[np.ndarray, np.ndarray]:
        """The average-information matrix AI and the second-derivative part
        N of the Hessian H = 2 AI - E + N."""
        nx, mp1, n = len(self.x), self.terms.mp1, self.terms.n
        N = np.zeros((nx, nx))
        W = np.zeros((nx, mp1, n))  # whitened W_i, one variable block per row
        for k, (idx, D, D2, T, G, F) in enumerate(self._parts):
            m = len(D)
            second = (D2.reshape(m * m, -1) @ (G @ T).ravel()).reshape(m, m)
            N[np.ix_(idx, idx)] += 2.0 * (second + D.reshape(m, -1) @ (G @ D).reshape(m, -1).T)
            W[idx] += self._dots[idx, k] @ F
        W = W.reshape(nx, -1).T
        Cw = self.eqs.core(W)
        XPW = self.LKinv @ (self.Xw.T @ W - self.Cx.T @ Cw)
        AI = 0.5 * (W.T @ W - Cw.T @ Cw - XPW.T @ XPW)
        return AI, N

    def information(self) -> np.ndarray:
        """E_ij = tr(V^-1 Vdot_i V^-1 Vdot_j) / 2 (see the class docstring)."""
        terms, mme, dots = self.terms, self.eqs.mme, self._dots
        n, b = terms.n, terms.layout.big
        R = dots[:, 0].reshape(len(dots), -1)  # the residual's Delta_i
        if b is None:
            return 0.5 * n * R @ R.T
        nu = terms.layout.counts[b, b]
        TU = self.wloads[b] @ mme.U
        C = np.eye(terms.mp1) - np.einsum("xp,pl,yp->lxy", TU, nu / mme.e, TU)
        CX = C[:, None] @ (dots[:, 0] + nu[:, None, None, None] * dots[:, b + 1])
        E = (n - len(nu)) * R @ R.T + np.tensordot(CX, CX.swapaxes(2, 3), ([0, 2, 3], [0, 2, 3]))
        if len(terms.codes) > 1:
            E += self._crossed(TU)
        return 0.5 * E

    def _crossed(self, TU: np.ndarray) -> np.ndarray:
        """What the level blocks of term b leave out of 2 E when there are
        other terms.

        2 E_ij = sum_kl <Delta_ik, Theta_kl Delta_jl> over pairs of loadings
        (the residual's is None, with K = I; K_k = Z_k Z_k' otherwise), where
        Theta_kl[a, b, c, d] = tr(B_da K_k B_bc K_l) for B = I - Q expands into
        tr(K_k K_l), F_kl[x, y] = tr(Q_xy K_k K_l) and G_kl = tr(Q_da K_k Q_bc
        K_l).  Q is Q_b, term b's level blocks T_b P_l T_b' at its cells, plus
        Y Y' with Y = A J' (q_r columns).  Q_b's parts are count products
        along b's levels, Z_b'K_k K_l Z_b and Z_b'K_k Z_b (vectors where they
        are diagonal); Y's come from its level sums Z_k'Y, from Z_b'K_k Y and
        from the q_r x q_r products Y_y'K_k Y_z.  The pairs of the residual
        and term b without Y are the part :meth:`information` takes per
        level, and are left out here."""
        terms, mme = self.terms, self.eqs.mme
        lay, mp1, b, qr = terms.layout, terms.mp1, terms.layout.big, len(mme.LS)
        ts = tuple(range(len(terms.codes)))  # the random terms
        loads = (None,) + ts

        def chain(*path):  # Z_b'K_k K_l Z_b, say, for the path (b, k, l, b)
            path = [t for t in path if t is not None]
            out = lay.pair(path[0], path[1])
            for i, k in zip(path[1:-1], path[2:]):
                out = _times(out, lay.pair(i, k))
            return out

        def times(N, X):  # N X over the levels of X
            return _times(N, X.reshape(len(X), -1)).reshape(-1, mp1, qr)

        def diag(N):
            return N if N.ndim == 1 else N.diagonal()

        def gram(X, Z):  # [X_y'Z_z]_yz over the levels, y, z, s, t
            G = X.reshape(len(X), -1).T @ Z.reshape(len(Z), -1)
            return G.reshape(mp1, qr, mp1, qr).transpose(0, 2, 1, 3)

        M = np.einsum("xp,pl,yp->lxy", TU, 1.0 / mme.e, TU)  # Q_b: T_b P_l T_b' per level l
        Mf = M.reshape(len(M), -1)
        # Y = A J' through its level sums S_k = Z_k'Y; Rk[k] = Z_b'K_k Y
        Jx = [np.einsum("xp,spl->lxs", self.wloads[t], mme.J[t]) for t in ts]
        S = [sum(times(lay.pair(k, t), Jx[t]) for t in ts) for k in ts]
        omega = {k: gram(S[k], S[k]) for k in ts}  # Y_y'K_k Y_z, so [z, y] is [y, z]'
        omega[None] = sum(gram(Jx[t], S[t]) for t in ts)
        Rk = {k: times(lay.pair(b, k), S[k]) for k in ts}
        Rk[None] = S[b]
        flat = {k: om.reshape(mp1 * mp1, -1) for k, om in omega.items()}

        eye = np.eye(mp1)
        theta = np.zeros((len(loads), mp1, mp1) * 2)
        for i, k in enumerate(loads):
            for j, l in enumerate(loads[i:], start=i):
                if k is None or l is None:
                    F = np.einsum("yxss->xy", omega[l if k is None else k])
                else:
                    F = np.tensordot(times(lay.pair(k, l), S[l]), S[k], ([0, 2], [0, 2]))
                # Z_b'K_k Y_b' Y_c K_l Z_b per level; th[a, b, c, d] sums M_l[d, a]
                # times ``left`` at [b, c] and M_l[b, c] times RR_l[a, d]
                RR = (Rk[k] @ Rk[l].transpose(0, 2, 1)).reshape(len(M), -1)
                left = RR
                th = (flat[k] @ flat[l].T).reshape((mp1,) * 4).transpose(0, 1, 3, 2)
                if not {k, l} <= {None, b}:  # I and Q_b, else taken per level
                    t = terms.n if k is None or l is None else (lay.pair(k, l) ** 2).sum()
                    th += t * np.einsum("ad,bc->abcd", eye, eye)
                    F += np.tensordot(diag(chain(b, k, l, b)), M, 1)
                    ck, cl = chain(b, k, b), chain(b, l, b)
                    w = ck * cl if ck.ndim == cl.ndim == 2 else diag(ck) * diag(cl)
                    left = left + _times(w, Mf)
                th += (Mf.T @ left).reshape((mp1,) * 4).transpose(1, 2, 3, 0)
                th += (RR.T @ Mf).reshape((mp1,) * 4).transpose(0, 2, 3, 1)
                th -= np.einsum("bc,da->abcd", eye, F) + np.einsum("ad,cb->abcd", eye, F)
                theta[i, :, :, j] = th
                theta[j, :, :, i] = th.transpose(2, 3, 0, 1)
        D = self._dots.reshape(len(self.x), -1)
        return D @ theta.reshape(D.shape[1], -1) @ D.T

    @cached_property
    def hess(self) -> np.ndarray:
        AI, N = self.curvature()
        return 2.0 * AI - self.information() + N

    def near(self, lo: np.ndarray, gap: float) -> np.ndarray:
        """The coordinates within ``min(gap, _ACTIVE_GAP)`` of ``lo``."""
        return self.x <= lo + min(gap, _ACTIVE_GAP)


@dataclass
class MVCFit:
    """EM output: final parameter point and the likelihood path.

    ``stop`` says why the fit ended: ``gradient`` (the projected gradient
    of the profile likelihood fell below ``optimize._GRAD_TOL``),
    ``max_iter``, or ``stall`` (the Newton steps stopped short of that
    gradient).  ``converged`` is ``stop == "gradient"``.  ``iterations``
    counts EM-start and Newton steps together; ``finisher_iterations`` is
    the Newton share.  ``loglik_trace`` holds the log-likelihood at the start
    and after each EM and Newton step.
    """

    model: MultivariateModel
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    events: tuple[str, ...] = ()
    stop: str = "gradient"
    finisher_iterations: int = 0

    @property
    def em_iterations(self) -> int:
        return self.iterations - self.finisher_iterations

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
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> MVCFit:
    """Fit by a short EM start, then projected Newton steps.

    EM runs from the supplied starting point for at most ``_EM_START``
    iterations, fewer when the observed-data log-likelihood moves by less
    than ``tol``.  :func:`.optimize.minimize` follows, with Newton steps on
    the profile likelihood in relative Cholesky coordinates (see
    :class:`_Profile`), where a Cholesky diagonal may reach zero, so
    PSD-boundary optima are reached rather than approached sublinearly.
    The fit has converged when the projected gradient falls below
    ``optimize._GRAD_TOL``.  ``max_iter`` caps EM and Newton
    steps together: with ``max_iter`` at most ``_EM_START`` a fit is plain
    EM, and a fit that reaches the cap returns its last point with
    ``converged=False``.
    """
    sd = model_init.stacked
    model = model_init
    trace: list[float] = []
    events: list[str] = []
    it = 0
    terms = _terms(sd)
    em_limit = min(max_iter, _EM_START)
    for it in range(em_limit + 1):
        factor = _factorise(model, terms)
        ll, core = factor.loglik(sd.z - sd.X @ model.params.beta)
        trace.append(ll)
        if it == em_limit or (it and abs(trace[-1] - trace[-2]) < tol):
            break
        moments = e_step(model, _factor=factor, _core=core)
        params, ev = m_step(moments, model)
        events.extend(ev)
        model = model.with_params(params)
    steps, stop = 0, "max_iter"
    if it < max_iter:
        point = partial(_Profile, terms=terms, X=sd.X, z=sd.z)
        res = optimize.minimize(point, point(_coords(model.params, terms)),
                                [(lo, np.inf) for lo in _coord_bounds(terms)],
                                maxiter=max_iter - it, tol=0.0, gtol=_GRAD_TOL)
        model = model.with_params(_params(res.point.x, terms, res.point.beta))
        trace.extend(res.values)
        steps, stop = res.nit, res.stop
    return MVCFit(model=model, loglik_trace=np.array(trace), iterations=it + steps,
                  converged=stop == "gradient", events=tuple(events), stop=stop,
                  finisher_iterations=steps)


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
    the response block S = s00 I_n - B0 P B0' of V^-1 (s00 = (Sigma0^-1)_00,
    B0 = [h_k (x) Z_k] with h_k row 0 of Sigma0^-1 a_k), taken by Woodbury
    as S^-1 = (I + B0 H^-1 B0') / s00 with H = s00 (I + A'A) - B0'B0, which
    has the pattern of I + A'A and is factored the same way.
    """
    model = fit.model
    sd, p = model.stacked, model.params
    f = _factorise(model)
    VinvX = f.solve(sd.X)
    try:
        info_inv = _cholesky(sd.X.T @ VinvX)[1]
    except np.linalg.LinAlgError as exc:
        raise SingularityError("information matrix is singular") from exc
    Y = info_inv.T @ (info_inv @ VinvX[: sd.n_obs].T)  # info^-1 U0'
    s0 = f.L0inv.T @ f.L0inv[:, 0]
    h = [(s0 @ a)[None, :] for a in f.loads]
    hh = f.terms.grams(h)
    grams = {ik: s0[0] * g - hh[ik] for ik, g in f.terms.grams(f.wloads).items()}
    try:
        H = Factor(f.terms.layout, grams, scale=s0[0])
    except np.linalg.LinAlgError as exc:
        raise SingularityError("response block of V^-1 is singular") from exc
    R = H.lower(f.terms.scatter(h, Y.T))
    full = (Y @ Y.T + R.T @ R) / s0[0]
    idx = sd.treat_cols
    return AdjustedMeansResult(
        means=p.beta[idx].copy(),
        covariance=full[np.ix_(idx, idx)],
        evaluated_at=fit.mu_z_hat,
        treatments=sd.treatments,
    )
