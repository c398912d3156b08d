"""General engine: joint response/covariate mixed model fit by ML.

The stacked vector of responses and covariates follows a linear model with
random treatment-associated factors (scalar variances) and random blocking
factors (one small covariance matrix each, the first being the residual).
A fit takes a short EM start and then projected Newton steps on the profile
likelihood, both on one parametrisation of the covariance; it handles
all-or-none cell missingness by simply dropping the empty cells, and
reports treatment means adjusted at the estimated covariate means with a
plug-in covariance.

Every quantity of a parameter point comes from one factorisation of
Henderson's mixed-model equations, in the form lme4 uses.  Every random
term is a Kronecker product a_k a_k' (x) Z_k Z_k' with Z_k one integer
level code per cell: blocking factor i has Sigma_i = a_i a_i', random
treatment term j has a_j = sigma_j c_j (c_j = e_0, or 1 when treatments
affect the covariates).  With L0 the Cholesky factor of Sigma_0 and the
whitened loadings T_k = L0^-1 a_k, the stacked covariance is
V = (L0 (x) I_n)(I + A A')(L0 (x) I_n)' with A = [T_k (x) Z_k]: the random
effects are u_k = a_k v_k with spherical v ~ N(0, I).  I + A'A has blocks
(T_i'T_k) (x) (Z_i'Z_k), whose count matrices Z_i'Z_k (diagonal when
i = k) are formed once per fit by :class:`vcadjust.mme.Layout`.
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

A point (:class:`_Profile`) is given by relative Cholesky coordinates: log
diag and lower triangle of L0, theta_j = sigma_j / L0_00 per random
treatment term and the lower triangle of T_k per blocking factor, its
diagonal bounded below by exactly 0; the fixed effects are profiled out at
their GLS values.  Plain EM converges sublinearly, slowest when the maximum
lies on the PSD boundary, so EM only starts a fit: at most ``_EM_START``
ECME steps (Liu & Rubin 1994), each an E-step of the spherical second
moments of the effects at the point's GLS fixed effects and an M-step that
is closed form in the coordinates (:func:`e_step`, :func:`m_step`).  Then
projected Newton steps on the profile likelihood (EM then Newton, as in
Lindstrom & Bates 1988) in :func:`.optimize.minimize`, the loop that also
ends every ``fit_lmm``, run until its projected gradient is below
``optimize._GRAD_TOL``.  The value, the analytic gradient and the exact
Hessian (twice the average-information matrix of Gilmour, Thompson &
Cullis 1995, less the expected information, plus the second-derivative
term that carries the curvature at the boundary) come from one
factorisation per point, the gathers and the count matrices, with no
Sigma_k inverted, so a component may reach rank zero or one, and the steps
converge quadratically.
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

_CLIP_FRAC = 1e-12  # negative eigenvalue of a component taken as float noise, relative
_EM_START = 10  # EM steps before Newton steps take over


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


def _pack(L0: np.ndarray, thetas, Ts) -> np.ndarray:
    """Relative Cholesky coordinates of L0, the theta_j and the T_k."""
    il = np.tril_indices(len(L0))
    part = L0[il]
    part[il[0] == il[1]] = np.log(np.diag(L0))
    return np.concatenate([part, np.asarray(thetas, dtype=float)] + [T[il] for T in Ts])


def _coords(params: MVCParams, terms: _Terms) -> np.ndarray:
    """Relative Cholesky coordinates of a parameter point (beta aside).

    The lower triangle of L0 = chol(Sigma_0), its diagonal as logs; then,
    in the order of the terms, theta_j = sigma_j / L0[0, 0] for a random
    treatment term and the lower triangle of T_k, the triangular factor of
    L0^-1 Sigma_k L0^-T with a non-negative diagonal, for a blocking factor.
    """
    try:
        L0, L0inv = _cholesky(params.Sigmas[0])
    except np.linalg.LinAlgError as exc:
        raise SingularityError("Sigma0 is not positive definite") from exc
    thetas = [_component_root(s2, f"sigma2[{j}]")[0, 0] / L0[0, 0]
              for j, s2 in enumerate(params.sigma2)]
    Ts = []
    for i, S in enumerate(params.Sigmas[1:], start=1):
        # L0^-1 Q = R'Q' for Q R = (L0^-1 Q)', so R'R = L0^-1 Sigma_k L0^-T
        R = np.linalg.qr((L0inv @ _component_root(S, f"Sigma{i}")).T, mode="r")
        Ts.append(R.T * np.where(np.diag(R) < 0, -1.0, 1.0))
    return _pack(L0, thetas, Ts)


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
    the gradient and the Hessian, on demand, from the same factor F of
    I + A'A (``mme``).  V is linear in every S_k = a_k a_k' (and in
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
        self.x, self.terms, self.X, self.z = x, terms, X, z
        self.L0, self.L0inv, self.wloads = _loadings(x, terms)
        self.mme = Factor(terms.layout, terms.grams(self.wloads))  # F F' = I + A'A
        # log det V = n log det Sigma_0 + log det (I + A'A)
        self.logdet = float(2.0 * terms.n * np.log(np.diag(self.L0)).sum() + self.mme.logdet)
        self.Xw, self.zw = _whiten(self.L0inv, X), _whiten(self.L0inv, z)
        C = self.core(np.column_stack([self.Xw, self.zw]))
        self.Cx, self.Cz = C[:, :-1], C[:, -1]
        try:
            self.LKinv = _cholesky(self.Xw.T @ self.Xw - self.Cx.T @ self.Cx)[1]
        except np.linalg.LinAlgError as exc:
            raise SingularityError("weighted normal equations are singular") from exc
        self.beta = self.LKinv.T @ (self.LKinv @ (self.Xw.T @ self.zw - self.Cx.T @ self.Cz))
        self.rw, s, self.f = self.at(self.beta)
        self.v = self.mme.upper(s)

    def core(self, yw: np.ndarray) -> np.ndarray:
        """F^-1 A' yw for a whitened vector or matrix yw."""
        return self.mme.lower(self.terms.scatter(self.wloads, yw))

    def at(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """At fixed effects ``beta``: the whitened residual rw, the core
        vector s = F^-1 A' rw, and the negative log-density, with
        r'V^-1 r = |rw|^2 - |s|^2."""
        rw = self.zw - self.Xw @ beta
        s = self.Cz - self.Cx @ beta
        return rw, s, 0.5 * (len(rw) * np.log(2 * np.pi) + self.logdet + rw @ rw - s @ s)

    @cached_property
    def resid(self) -> np.ndarray:
        """e = rw - A v, the whitened residual less the posterior mean of
        the random effects, one variable per row."""
        terms = self.terms
        return (self.rw - terms.apply(self.wloads, self.v)).reshape(terms.mp1, terms.n)

    @cached_property
    def sums(self) -> list[np.ndarray]:
        """e Z_k Z_k' per loading, the residual's (e itself) first: the level
        sums of e, each at its cells."""
        terms, E = self.terms, self.resid
        return [E] + [F[:, g] for F, g in zip(terms.layout.level_sums(E), terms.codes)]

    @cached_property
    def gammas(self) -> list[np.ndarray]:
        """L0' Gamma_k L0 per loading, the residual's first."""
        terms, E, mme = self.terms, self.resid, self.mme
        return [
            0.5 * (terms.n * np.eye(terms.mp1) - terms.trace(self.wloads, mme, c) - F @ E.T)
            for F, c in zip(self.sums, (None,) + tuple(range(len(terms.codes))))
        ]

    @cached_property
    def _parts(self):
        """Per loading: its coordinates, derivatives, T_k, Gamma_k and sums."""
        derivs = _loading_derivatives(self.x, self.L0, self.L0inv, self.wloads, self.terms)
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
        Cw = self.core(W)
        XPW = self.LKinv @ (self.Xw.T @ W - self.Cx.T @ Cw)
        AI = 0.5 * (W.T @ W - Cw.T @ Cw - XPW.T @ XPW)
        return AI, N

    def information(self) -> np.ndarray:
        """E_ij = tr(V^-1 Vdot_i V^-1 Vdot_j) / 2 (see the class docstring)."""
        terms, mme, dots = self.terms, self.mme, self._dots
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
        terms, mme = self.terms, self.mme
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


def _point(model: MultivariateModel, terms: _Terms | None = None) -> _Profile:
    """The point of a model's parameters (its fixed effects aside)."""
    sd = model.stacked
    terms = terms if terms is not None else _terms(sd)
    return _Profile(_coords(model.params, terms), terms, sd.X, sd.z)


def observed_loglik(model: MultivariateModel) -> float:
    """Exact Gaussian log-density of the stacked data at the current params."""
    return -_point(model).at(model.params.beta)[2]


def e_step(pt: _Profile) -> list[np.ndarray]:
    """Second moments of the spherical effects given the data, averaged
    over levels, at the point's GLS fixed effects: the residual's first.

    The whitened residual has posterior mean e = rw - A v and variance
    A P A', P = (I + A'A)^-1, so M_0 = (e e' + the cell sums of the
    variable blocks of A P A') / n.  Term k's effects v_k (p_k x d_k) have
    posterior mean V_k, from v, and variance P_kk, so M_k = (V_k V_k' + the
    level sum of the blocks of P_kk) / d_k.  This equals
    I - (2 / d_k) T_k' Gamma_k T_k (:attr:`_Profile.gammas`, whitened), the
    EM update S <- S - (2/d) S Gamma S of S_k = a_k a_k', without its
    cancellation.
    """
    terms, mme, E = pt.terms, pt.mme, pt.resid
    out = [(E @ E.T + terms.trace(pt.wloads, mme)) / terms.n]
    for k, (d, sl) in enumerate(zip(terms.levels, terms.slices)):
        V = pt.v[sl].reshape(-1, d)
        out.append((V @ V.T + mme.contract(k, k, np.ones(d))) / d)
    return out


def m_step(pt: _Profile, moments: list[np.ndarray]) -> tuple[_Profile, list[str]]:
    """The next point: the complete-data maximiser at the moments of
    :func:`e_step`, with the fixed effects profiled out (ECME).

    Sigma_0 <- L0 M_0 L0' and Sigma_k <- a_k M_k a_k' in coordinates: with
    C = chol(M_0), L0 <- L0 C, T_k <- C^-1 T_k chol(M_k) and
    theta_j <- theta_j sqrt(M_j) / C_00.  Products of lower-triangular
    factors with non-negative diagonals, they stay in the coordinates'
    domain, and a zero column of T_k stays zero.  No event is reported.
    """
    terms, r = pt.terms, pt.terms.r
    k = terms.mp1 * (terms.mp1 + 1) // 2  # coordinates of L0
    try:
        C, Cinv = _cholesky(moments[0])
        Ts = [Cinv @ T @ np.linalg.cholesky(M) for T, M in zip(pt.wloads[r:], moments[r + 1 :])]
    except np.linalg.LinAlgError as exc:
        raise SingularityError("an EM update is not positive definite") from exc
    thetas = pt.x[k : k + r] * np.sqrt([M[0, 0] for M in moments[1 : r + 1]]) / C[0, 0]
    return _Profile(_pack(pt.L0 @ C, thetas, Ts), terms, pt.X, pt.z), []


@dataclass
class MVCFit:
    """The fit: its last point, its parameters and the likelihood path.

    ``stop`` says why the fit ended: ``gradient`` (the projected gradient
    of the profile likelihood fell below ``optimize._GRAD_TOL``),
    ``max_iter``, or ``stall`` (the Newton steps stopped short of that
    gradient).  ``converged`` is ``stop == "gradient"``.  ``iterations``
    counts EM-start and Newton steps together; ``finisher_iterations`` is
    the Newton share.  ``loglik_trace`` holds the profile log-likelihood at
    the start and after each EM and Newton step.  ``point`` is the last
    :class:`_Profile`, whose factor :func:`adjusted_means_mvc` reuses; a
    fit built by hand leaves it None, and a point is taken from ``params``.
    """

    model: MultivariateModel
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    stop: str = "gradient"
    finisher_iterations: int = 0
    point: _Profile | None = field(default=None, repr=False)

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

    Both run on the points of :class:`_Profile`, from the supplied
    parameters (their fixed effects aside).  EM takes at most
    ``_EM_START`` steps (:func:`e_step`, :func:`m_step`), fewer when the
    profile log-likelihood moves by less than ``tol``.
    :func:`.optimize.minimize` follows from the last EM point, with Newton
    steps on the profile likelihood in relative Cholesky coordinates,
    where a Cholesky diagonal may reach zero, so PSD-boundary optima are
    reached rather than approached sublinearly.  The fit has converged
    when the projected gradient falls below ``optimize._GRAD_TOL``.
    ``max_iter`` caps EM and Newton steps together: with ``max_iter`` at
    most ``_EM_START`` a fit is plain EM, and a fit that reaches the cap
    returns its last point with ``converged=False``.
    """
    sd = model_init.stacked
    terms = _terms(sd)
    pt = _point(model_init, terms)
    trace = [-pt.f]
    it, em_limit = 0, min(max_iter, _EM_START)
    while it < em_limit and (it == 0 or abs(trace[-1] - trace[-2]) >= tol):
        pt = m_step(pt, e_step(pt))[0]
        trace.append(-pt.f)
        it += 1
    steps, stop = 0, "max_iter"
    if it < max_iter:
        res = optimize.minimize(partial(_Profile, terms=terms, X=sd.X, z=sd.z), pt,
                                [(lo, np.inf) for lo in _coord_bounds(terms)],
                                maxiter=max_iter - it, tol=0.0, gtol=_GRAD_TOL)
        pt, steps, stop = res.point, res.nit, res.stop
        trace.extend(res.values)
    return MVCFit(model=model_init.with_params(_params(pt.x, terms, pt.beta)),
                  loglik_trace=np.array(trace), iterations=it + steps,
                  converged=stop == "gradient", stop=stop, finisher_iterations=steps,
                  point=pt)


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
    complement inside the GLS sandwich K^-1 U0' S^-1 U0 K^-1, K = X'V^-1 X
    and U0 the response rows of V^-1 X.  S^-1 is the inverse of the
    response block S = s00 I_n - B0 P B0' of V^-1 (s00 = (Sigma0^-1)_00,
    B0 = [h_k (x) Z_k] with h_k row 0 of L0^-T T_k), taken by Woodbury as
    S^-1 = (I + B0 H^-1 B0') / s00 with H = s00 (I + A'A) - B0'B0, which
    has the pattern of I + A'A and is factored the same way.  The factor
    of I + A'A, K^-1 and C_x = F^-1 A'(L0^-1 (x) I) X come from the fit's
    last point.
    """
    model = fit.model
    sd = model.stacked
    pt = fit.point if fit.point is not None else _point(model)
    terms = pt.terms
    # V^-1 X = (L0^-T (x) I)(Xw - A (I + A'A)^-1 A'Xw)
    VinvX = _whiten(pt.L0inv, pt.Xw - terms.apply(pt.wloads, pt.mme.upper(pt.Cx)), trans=True)
    Y = pt.LKinv.T @ (pt.LKinv @ VinvX[: sd.n_obs].T)  # K^-1 U0'
    l0 = pt.L0inv[:, 0]
    s00 = l0 @ l0
    h = [(l0 @ T)[None, :] for T in pt.wloads]
    hh = terms.grams(h)
    grams = {ik: s00 * g - hh[ik] for ik, g in terms.grams(pt.wloads).items()}
    try:
        H = Factor(terms.layout, grams, scale=s00)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("response block of V^-1 is singular") from exc
    R = H.lower(terms.scatter(h, Y.T))
    full = (Y @ Y.T + R.T @ R) / s00
    idx = sd.treat_cols
    return AdjustedMeansResult(
        means=model.params.beta[idx].copy(),
        covariance=full[np.ix_(idx, idx)],
        evaluated_at=fit.mu_z_hat,
        treatments=sd.treatments,
    )
