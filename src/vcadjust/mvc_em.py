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
(a_i' L0^-T L0^-1 a_k) (x) (Z_i'Z_k), whose count matrices Z_i'Z_k are formed
once per fit, and Lc = chol(I + A'A) is q x q, q the number of random
effects.  Products with A and A' are gathers and per-level sums over the
codes.  The log-determinant, the quadratic forms, the posterior of the
random effects, the GLS fixed effects and the SEs of the adjusted means all
go through L0 and Lc: an iteration costs O(q^3 + N (m+1)^2) and forms no
N x q, n x n or N x N array.

Plain EM converges sublinearly when the maximum lies on the PSD boundary,
so a fit still moving after ``_EM_BUDGET`` EM iterations is finished on
the profile likelihood instead (EM then Newton, as in Lindstrom & Bates
1988 and Pinheiro & Bates 1996).  The finisher works in relative Cholesky
coordinates: log diag and lower triangle of L0, theta_j = sigma_j / L0_00
per random treatment term and the lower-triangular whitened loading T_k
with Sigma_k = L0 T_k T_k' L0' per blocking factor, its diagonal bounded
below by exactly 0.  Its value and analytic gradient come from the same
factorisation, gathers and count matrices, with no Sigma_k inverted, so a
component may reach rank zero or one.  L-BFGS-B runs first, and Newton
steps on the gradient (``lmm._newton_finish``) follow when its projected
gradient is not yet below ``_GRAD_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg, optimize

from .data_model import StackedData
from .errors import SingularityError
from .lmm import _newton_finish, _tri

_CLIP_FRAC = 1e-12  # eigenvalue floor relative to trace, float-noise guard
_EM_BUDGET = 200  # EM iterations before an unconverged fit is finished
_GRAD_TOL = 1e-6  # projected gradient of a fit the finisher converged


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
        return len(self.stacked.treatment_random_codes)

    @property
    def q(self) -> int:
        return len(self.stacked.block_codes)

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
    return _tri(L0, y.reshape(len(L0), -1), trans).reshape(y.shape)


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
    given by one level code per complete cell, and the count matrices
    ``counts[i, k] = Z_i'Z_k`` (i <= k) are formed once from the codes.  A
    term with loading a_k (its rows the variables, its p_k columns those of
    c_k) spans the stacked columns a_k (x) Z_k, ordered p * d_k + level:
    the positions ``slices[k]`` of u.
    """

    n: int  # complete cells
    mp1: int  # variables, m + 1
    r: int  # random treatment terms, the first r terms
    codes: tuple[np.ndarray, ...]
    levels: tuple[int, ...]
    carriers: tuple[np.ndarray, ...]  # c_k: e_0 or 1 (one column) or I_{m+1}
    slices: tuple[slice, ...]
    counts: dict[tuple[int, int], np.ndarray]

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
        for a, g, d in zip(loads, self.codes, self.levels):
            p = a.shape[1]
            T = (a.T @ Y).reshape(p, self.n, s)
            idx = (g[:, None] + d * np.arange(p))[:, :, None] * s + np.arange(s)
            T = T.transpose(1, 0, 2).ravel()  # record-major, like idx
            sums = np.bincount(idx.ravel(), weights=T, minlength=p * d * s)
            parts.append(sums.reshape((p * d,) + tail))
        return np.concatenate(parts)

    def gram(self, loads) -> np.ndarray:
        """[a_k (x) Z_k]'[a_k (x) Z_k]: blocks (a_i'a_k) (x) (Z_i'Z_k)."""
        q = self.slices[-1].stop if self.slices else 0
        out = np.zeros((q, q))
        for (i, k), N in self.counts.items():
            blk = np.kron(loads[i].T @ loads[k], N)
            out[self.slices[i], self.slices[k]] = blk
            out[self.slices[k], self.slices[i]] = blk.T
        return out

    def contract(self, P: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """The q x q matrix P contracted with the count matrices, for every
        pair i <= k: S_ik = sum_ab P_(i,a),(k,b) (Z_i'Z_k)_ab, p_i x p_k."""
        out = {}
        for (i, k), N in self.counts.items():
            pi, pk = self.carriers[i].shape[1], self.carriers[k].shape[1]
            blk = P[self.slices[i], self.slices[k]].reshape(pi, N.shape[0], pk, N.shape[1])
            S = blk.transpose(0, 2, 1, 3).reshape(pi * pk, N.size) @ N.ravel()
            out[i, k] = S.reshape(pi, pk)
        return out

    def trace(self, loads, P: np.ndarray) -> np.ndarray:
        """sum over cells of the variable blocks of G P G', G = [a_k (x) Z_k]:
        sum_{i,k} a_i S_ik a_k' with S_ik from :meth:`contract`."""
        out = np.zeros((self.mp1, self.mp1))
        for (i, k), S in self.contract(P).items():
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
    ends = np.cumsum([0] + [c.shape[1] * d for c, d in zip(carriers, levels)])
    counts = {
        (i, k): np.bincount(
            codes[i] * levels[k] + codes[k], minlength=levels[i] * levels[k]
        ).reshape(levels[i], levels[k]).astype(float)
        for i in range(len(codes))
        for k in range(i, len(codes))
    }
    return _Terms(
        n=sd.n_obs, mp1=mp1, r=len(sd.treatment_random_codes), codes=codes,
        levels=levels, carriers=carriers,
        slices=tuple(slice(int(lo), int(hi)) for lo, hi in zip(ends[:-1], ends[1:])),
        counts=counts,
    )


@dataclass(frozen=True)
class _Factor:
    """Mixed-model-equations factorisation of V at one parameter point."""

    L0: np.ndarray  # Cholesky factor of Sigma_0
    terms: _Terms
    roots: tuple[np.ndarray, ...]  # Q_k, p_k x p_k: Lambda = diag(Q_k (x) I)
    loads: tuple[np.ndarray, ...]  # a_k = c_k Q_k: M Lambda = [a_k (x) Z_k]
    wloads: tuple[np.ndarray, ...]  # L0^-1 a_k: A = [L0^-1 a_k (x) Z_k]
    Lc: np.ndarray  # lower Cholesky factor of I + A'A
    logdet: float  # log det V

    def core(self, yw: np.ndarray) -> np.ndarray:
        """Lc^-1 A' yw for a whitened vector or matrix yw."""
        return _tri(self.Lc, self.terms.scatter(self.wloads, yw))

    def quad(self, r: np.ndarray) -> tuple[float, np.ndarray]:
        """r' V^-1 r = |rw|^2 - |s|^2 with rw the whitened r, and
        s = Lc^-1 A' rw."""
        rw = _whiten(self.L0, r)
        s = self.core(rw)
        return float(rw @ rw - s @ s), s

    def solve(self, y: np.ndarray) -> np.ndarray:
        """V^-1 y = (L0^-T (x) I)(I - A (I + A'A)^-1 A')(L0^-1 (x) I) y."""
        yw = _whiten(self.L0, y)
        w = _tri(self.Lc, self.core(yw), trans=True)
        return _whiten(self.L0, yw - self.terms.apply(self.wloads, w), trans=True)

    def loglik(self, r: np.ndarray) -> tuple[float, np.ndarray]:
        """Gaussian log-density of the stacked residual r, and the core
        vector s of :meth:`quad`."""
        quad, s = self.quad(r)
        return -0.5 * (len(r) * np.log(2 * np.pi) + self.logdet + quad), s

    def posterior(self) -> np.ndarray:
        """(I + A'A)^-1 = var(v | z), from Lc (LAPACK rejects q = 0)."""
        if not len(self.Lc):
            return self.Lc
        low, _ = linalg.lapack.dpotri(self.Lc, lower=1)
        return np.tril(low) + np.tril(low, -1).T


def _factorise(model: MultivariateModel, terms: _Terms | None = None) -> _Factor:
    """Build the one factorisation every EM quantity is taken from."""
    sd, p = model.stacked, model.params
    terms = terms if terms is not None else _terms(sd)
    try:
        L0 = np.linalg.cholesky(p.Sigmas[0])
    except np.linalg.LinAlgError as exc:
        raise SingularityError("Sigma0 is not positive definite") from exc
    roots = [_component_root(s2, f"sigma2[{j}]") for j, s2 in enumerate(p.sigma2)]
    roots += [_component_root(S, f"Sigma{i}") for i, S in enumerate(p.Sigmas[1:], start=1)]
    loads = [c @ Q for c, Q in zip(terms.carriers, roots)]
    return _equations(L0, terms, [_tri(L0, a) for a in loads], roots, loads)


def _equations(L0, terms: _Terms, wloads, roots=(), loads=()) -> _Factor:
    """Factor I + A'A for the whitened loadings ``wloads``; the roots and
    loadings are carried along for the E-step."""
    gram = terms.gram(wloads)
    Lc = np.linalg.cholesky(np.eye(len(gram)) + gram)
    # log det V = n log det Sigma_0 + log det (I + A'A)
    logdet = 2.0 * (terms.n * np.log(np.diag(L0)).sum() + np.log(np.diag(Lc)).sum())
    return _Factor(
        L0=L0, terms=terms, roots=tuple(roots), loads=tuple(loads),
        wloads=tuple(wloads), Lc=Lc, logdet=float(logdet),
    )


def observed_loglik(model: MultivariateModel, z: np.ndarray | None = None) -> float:
    """Exact Gaussian log-density of the stacked data at the current params."""
    sd, p = model.stacked, model.params
    zz = sd.z if z is None else np.asarray(z, dtype=float)
    return _factorise(model).loglik(zz - sd.X @ p.beta)[0]


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
    _core: np.ndarray | None = None,
) -> EStepMoments:
    """Conditional means and second moments of the random factors.

    The random effects are u = Lambda v with v | z ~ N(Lc^-T s, P),
    s = Lc^-1 A' times the whitened residual and P = (I + A'A)^-1.  Second
    moments add the per-level sum of the conditional covariance blocks,
    Q_k [sum_l P_kk(., l), (., l)] Q_k', to the outer product of conditional
    means; the residual factor's moments come from the identity that it
    equals the data minus fixed effects minus every other random term,
    whose conditional covariance M Lambda P Lambda M' is summed over cells
    through the count matrices.
    """
    sd, p = model.stacked, model.params
    zz = sd.z if z is None else np.asarray(z, dtype=float)
    mp1, r = sd.m + 1, len(sd.treatment_random_codes)
    f = _factor if _factor is not None else _factorise(model)
    s = _core if _core is not None else f.core(_whiten(f.L0, zz - sd.X @ p.beta))
    v_mean = _tri(f.Lc, s, trans=True)
    P = f.posterior()

    t_mean, t_sq, b_mean, b_sq = [], [], [], []
    for k, (Q, d, sl) in enumerate(zip(f.roots, f.terms.levels, f.terms.slices)):
        p_k = len(Q)
        U = Q @ v_mean[sl].reshape(p_k, d)  # E[u_k], one row per variable
        var = Q @ P[sl, sl].reshape(p_k, d, p_k, d).trace(axis1=1, axis2=3) @ Q.T
        sq = U @ U.T + var
        if k < r:
            t_mean.append(U.ravel())
            t_sq.append(float(sq[0, 0]))
        else:
            b_mean.append(U.ravel())
            b_sq.append(0.5 * (sq + sq.T))

    # residual factor via its defining identity; M u = M Lambda v
    reduced = zz - f.terms.apply(f.loads, v_mean)
    b0_mean = reduced - sd.X @ p.beta
    b0_trace = f.terms.trace(f.loads, P)
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
        [sq / d for sq, d in zip(moments.t_sq, sd.treatment_random_levels)]
    )
    Sigmas = [S0]
    for sq, d in zip(moments.b_sq, sd.block_levels):
        Sigmas.append(sq / d)

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


def _coords(params: MVCParams, terms: _Terms) -> np.ndarray:
    """Relative Cholesky coordinates of a parameter point (beta aside).

    The lower triangle of L0 = chol(Sigma_0), its diagonal as logs; then,
    in the order of the terms, theta_j = sigma_j / L0[0, 0] for a random
    treatment term and the lower triangle of T_k, the triangular factor of
    L0^-1 Sigma_k L0^-T with a non-negative diagonal, for a blocking factor.
    """
    il = np.tril_indices(terms.mp1)
    try:
        L0 = np.linalg.cholesky(params.Sigmas[0])
    except np.linalg.LinAlgError as exc:
        raise SingularityError("Sigma0 is not positive definite") from exc
    part = L0[il]
    part[il[0] == il[1]] = np.log(np.diag(L0))
    x = [part, np.sqrt(params.sigma2) / L0[0, 0]]
    for i, S in enumerate(params.Sigmas[1:], start=1):
        # L0^-1 Q = R'Q' for Q R = (L0^-1 Q)', so R'R = L0^-1 Sigma_k L0^-T
        R = np.linalg.qr(_tri(L0, _component_root(S, f"Sigma{i}")).T, mode="r")
        x.append((R.T * np.where(np.diag(R) < 0, -1.0, 1.0))[il])
    return np.concatenate(x)


def _loadings(x: np.ndarray, terms: _Terms):
    """L0 and the whitened loadings L0^-1 a_k at coordinates ``x``, with
    the unscaled treatment-term loadings L0^-1 c_j."""
    mp1, r = terms.mp1, terms.r
    il = np.tril_indices(mp1)
    k = len(il[0])
    L0 = np.zeros((mp1, mp1))
    L0[il] = x[:k]
    L0[np.diag_indices(mp1)] = np.exp(np.diag(L0))
    units = [_tri(L0, c) for c in terms.carriers[:r]]
    wloads = [th * L0[0, 0] * u for th, u in zip(x[k : k + r], units)]
    for j in range(k + r, len(x), k):
        T = np.zeros((mp1, mp1))
        T[il] = x[j : j + k]
        wloads.append(T)
    return L0, wloads, units


def _coord_bounds(terms: _Terms) -> np.ndarray:
    """Lower bounds of the coordinates: 0 for theta_j and diag(T_k)."""
    il = np.tril_indices(terms.mp1)
    diag = np.where(il[0] == il[1], 0.0, -np.inf)
    blocks = len(terms.carriers) - terms.r
    return np.concatenate([np.full(len(diag), -np.inf), np.zeros(terms.r)] + [diag] * blocks)


def _profile(x: np.ndarray, terms: _Terms, X: np.ndarray, z: np.ndarray):
    """Negative profile log-likelihood at coordinates ``x``, its gradient
    and the GLS fixed effects.

    With whitened data and A = [T_k (x) Z_k], the derivative of the
    negative log-likelihood in A is A P - e v', where P = (I + A'A)^-1,
    v = P A' rw is the posterior mean of the spherical random effects and
    e = rw - A v the whitened residual less them (beta held at its GLS
    value, where its own derivative is zero).  Summed over the cells of
    each term, that is sum_i T_i S_ik - E_k, S_ik the contraction of P
    with the count matrices and E_k the product of e with v gathered at
    each cell's level.  The data enter through L0^-1 as well, which adds
    n / L0_ii and -L0^-T (e rw' + sum_j G_j T_j') to the derivative in L0.
    Nothing here inverts a Sigma_k, so the gradient is finite on the PSD
    boundary, and no array is larger than q x q or N x p.
    """
    mp1, n, r = terms.mp1, terms.n, terms.r
    L0, wloads, units = _loadings(x, terms)
    f = _equations(L0, terms, wloads)
    Xw, zw = _whiten(L0, X), _whiten(L0, z)
    C = f.core(np.column_stack([Xw, zw]))
    K = Xw.T @ Xw - C[:, :-1].T @ C[:, :-1]
    beta = np.linalg.solve(K, Xw.T @ zw - C[:, :-1].T @ C[:, -1])
    rw = zw - Xw @ beta
    s = C[:, -1] - C[:, :-1] @ beta
    nll = 0.5 * (len(z) * np.log(2 * np.pi) + f.logdet + rw @ rw - s @ s)

    v = _tri(f.Lc, s, trans=True)
    E = (rw - terms.apply(wloads, v)).reshape(mp1, n)
    G = [
        -E @ v[sl].reshape(T.shape[1], d)[:, g].T
        for T, g, d, sl in zip(wloads, terms.codes, terms.levels, terms.slices)
    ]
    for (i, k), S in terms.contract(f.posterior()).items():
        G[k] += wloads[i] @ S
        if i != k:
            G[i] += wloads[k] @ S.T
    # T_j = theta_j L0_00 L0^-1 c_j: its derivatives in theta_j and L0_00
    dtheta = np.array([L0[0, 0] * float(G[j].ravel() @ u.ravel()) for j, u in enumerate(units)])
    H = E @ rw.reshape(mp1, n).T
    for j in range(r):
        H += G[j] @ wloads[j].T
    D = -_tri(L0, H, trans=True)
    D[0, 0] += sum(float(G[j].ravel() @ wloads[j].ravel()) for j in range(r)) / L0[0, 0]
    il, dg = np.tril_indices(mp1), np.diag_indices(mp1)
    D[dg] = (D[dg] + n / L0[dg]) * L0[dg]  # in log L0_ii
    grad = np.concatenate([D[il], dtheta] + [G[k][il] for k in range(r, len(G))])
    return nll, grad, beta


def _finish(params: MVCParams, terms: _Terms, X, z, max_steps: int):
    """Quasi-Newton then Newton steps from ``params`` on the profile
    likelihood in relative Cholesky coordinates, at most ``max_steps`` in
    all.  Returns the parameter point, the steps taken and whether the
    projected gradient fell below ``_GRAD_TOL`` with steps to spare."""
    lo = _coord_bounds(terms)

    def obj(x):
        return _profile(x, terms, X, z)[:2]

    res = optimize.minimize(
        obj, _coords(params, terms), jac=True, method="L-BFGS-B",
        bounds=[(b, None) for b in lo],
        options={"maxiter": max_steps, "ftol": 0.0, "gtol": 0.1 * _GRAD_TOL},
    )
    x, steps = np.asarray(res.x, dtype=float), int(res.nit)
    _, g, beta = _profile(x, terms, X, z)
    if steps < max_steps and _projected_norm(x, g, lo) >= _GRAD_TOL:
        x, _, g, newton = _newton_finish(obj, x, lo, np.inf, max_steps - steps)
        steps += newton
        beta = _profile(x, terms, X, z)[2]
    converged = steps < max_steps and _projected_norm(x, g, lo) < _GRAD_TOL
    L0, wloads, _ = _loadings(x, terms)
    loads = [L0 @ T for T in wloads]  # a_k; sigma_j c_j for a treatment term
    sigma2 = np.array([a[0, 0] ** 2 for a in loads[: terms.r]])
    Sigmas = [L0 @ L0.T] + [a @ a.T for a in loads[terms.r :]]
    return MVCParams(beta=beta, sigma2=sigma2, Sigmas=tuple(Sigmas)), steps, converged


def _projected_norm(x, g, lo) -> float:
    """Largest move of a gradient step projected onto ``x >= lo``."""
    return float(np.max(np.abs(np.maximum(x - g, lo) - x), initial=0.0))


@dataclass
class MVCFit:
    """EM output: final parameter point and the likelihood path.

    ``stop`` says why the fit ended: ``tolerance`` (EM's log-likelihood
    step fell below ``tol``), ``gradient`` (the finisher's projected
    gradient fell below ``_GRAD_TOL``) or ``max_iter``.  ``iterations``
    counts EM and finisher steps together; ``finisher_iterations`` is the
    finisher's share.
    """

    model: MultivariateModel
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    events: tuple[str, ...] = ()
    stop: str = "tolerance"
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
    z: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> MVCFit:
    """Run EM from the supplied starting point, then finish a slow fit.

    EM runs until the observed-data log-likelihood moves by less than
    ``tol``, for at most ``_EM_BUDGET`` iterations.  A fit still moving
    then goes to the finisher: L-BFGS-B and Newton steps on the analytic
    gradient of the profile likelihood in relative Cholesky coordinates,
    where a Cholesky diagonal may reach zero, so PSD-boundary optima are
    reached rather than approached sublinearly.  The fit has converged
    when EM met ``tol`` within its budget or the finisher's projected
    gradient fell below ``_GRAD_TOL`` with steps to spare.  ``max_iter``
    caps EM and finisher steps together; a fit that reaches it returns its
    last point with ``converged=False``.
    """
    sd = model_init.stacked
    zz = sd.z if z is None else np.asarray(z, dtype=float)
    model = model_init
    trace: list[float] = []
    events: list[str] = []
    converged = False
    it = 0
    terms = _terms(sd)
    em_limit = min(max_iter, _EM_BUDGET)
    for it in range(em_limit + 1):
        factor = _factorise(model, terms)
        ll, core = factor.loglik(zz - sd.X @ model.params.beta)
        trace.append(ll)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        if it == em_limit:
            break
        moments = e_step(model, zz, _factor=factor, _core=core)
        params, ev = m_step(moments, model)
        events.extend(ev)
        model = model.with_params(params)
    stop = "tolerance" if converged else "max_iter"
    finisher = 0
    if not converged and max_iter > em_limit:
        params, finisher, converged = _finish(model.params, terms, sd.X, zz, max_iter - em_limit)
        model = model.with_params(params)
        trace.append(_factorise(model, terms).loglik(zz - sd.X @ params.beta)[0])
        stop = "gradient" if converged else "max_iter"
    return MVCFit(
        model=model,
        loglik_trace=np.array(trace),
        iterations=it + finisher,
        converged=converged,
        events=tuple(events),
        stop=stop,
        finisher_iterations=finisher,
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
    the response block S = s00 I_n - B0 P B0' of V^-1 (s00 = (Sigma0^-1)_00,
    B0 = [h_k (x) Z_k] with h_k row 0 of Sigma0^-1 a_k), taken by Woodbury
    as S^-1 = (I + B0 H^-1 B0') / s00 with H = s00 (I + A'A) - B0'B0, q x q.
    """
    model = fit.model
    sd, p = model.stacked, model.params
    f = _factorise(model)
    VinvX = f.solve(sd.X)
    try:
        info = np.linalg.cholesky(sd.X.T @ VinvX)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("information matrix is singular") from exc
    Y = linalg.cho_solve((info, True), VinvX[: sd.n_obs].T)  # info^-1 U0'
    s0 = linalg.cho_solve((f.L0, True), np.eye(sd.m + 1)[:, 0])
    h = [(s0 @ a)[None, :] for a in f.loads]
    H = s0[0] * (np.eye(len(f.Lc)) + f.terms.gram(f.wloads)) - f.terms.gram(h)
    try:
        Lh = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("response block of V^-1 is singular") from exc
    R = _tri(Lh, f.terms.scatter(h, Y.T))
    full = (Y @ Y.T + R.T @ R) / s0[0]
    idx = sd.treat_cols
    return AdjustedMeansResult(
        means=p.beta[idx].copy(),
        covariance=full[np.ix_(idx, idx)],
        evaluated_at=fit.mu_z_hat,
        treatments=sd.treatments,
    )
