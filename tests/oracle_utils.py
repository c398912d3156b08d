"""Independent oracles for the general-engine tests.

``direct_max_loglik`` maximizes the stacked-model likelihood with a generic
simplex optimizer over log-Cholesky coordinates (fixed effects profiled
out), with no EM machinery involved; ``make_oracle_instance`` builds small
randomized designs with interior optima for the comparison suite.

The objective assembles the dense stacked covariance V itself, as one
linear combination of Gram blocks (I, W W' and C C', Kronecker-expanded)
precomputed once per instance, then factors it with plain LAPACK.  Of
``vcadjust.mvc_em`` the module uses only ``initial_params`` (starts),
``MVCParams`` (the result record) and ``make_model`` (to simulate
instances), never the EM numerics.

The dense forms of a stacked layout, which the engine never forms, are
kept here for the tests that check the engine against them: the
incidences ``W_list``, ``D_list`` and ``C_list`` built from the codes,
the stacked ``position`` of a (cell, variable) pair and its inverse
``obs_index``, the dense stacked covariance ``assemble_V``, and
``gen_multivariate``, one draw from the general model.

The stratum algebra of one replicate unit is also kept here as a reference:
the averaging and centering matrices ``averaging_matrix`` and
``centering_matrix``, the Helmert contrasts ``helmert_matrix``, the
projector set ``OrthogonalPartition``, ``KroneckerCovariance``
(``V = sum_l G_l (x) A_l`` over a projector partition), its dense form and
partition-wise inverse, ``rcb_partition``, and the per-stratum regressions
of the response on the covariates with the orthogonal adjusted means they
imply.  The package's fitters do not use it.

``lmm_best_of_starts`` is the univariate fitter's former search, kept as an
oracle: L-BFGS-B to convergence from each of five variance ratios over
``vcadjust.lmm._neg_loglik``, the best value kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.linalg import lapack

import vcadjust as v
from vcadjust.data_model import StackedData, incidence
from vcadjust.errors import SingularityError, ValidationError
from vcadjust.lmm import LmmSpec, _cross_products, _neg_loglik
from vcadjust.mvc_em import MultivariateModel, MVCParams, initial_params, make_model
from vcadjust.simulate import _stream


# ------------------------------------------------ dense stacked-model forms


def W_list(sd: StackedData) -> tuple[np.ndarray, ...]:
    """Cell-by-level incidence of each blocking factor."""
    return tuple(incidence(c, d) for c, d in zip(sd.block_codes, sd.block_levels))


def D_list(sd: StackedData) -> tuple[np.ndarray, ...]:
    """Stacked incidence ``I_{m+1} (x) W`` of each blocking factor."""
    return tuple(np.kron(np.eye(sd.m + 1), W) for W in W_list(sd))


def C_list(sd: StackedData) -> tuple[np.ndarray, ...]:
    """Stacked incidence of each random treatment term: on the response
    block only, or on every variable when treatments affect the covariates."""
    on = np.ones(sd.m + 1) if sd.treatments_affect_covariates else np.eye(sd.m + 1)[0]
    return tuple(
        np.kron(on[:, None], incidence(c, d))
        for c, d in zip(sd.treatment_random_codes, sd.treatment_random_levels)
    )


def position(sd: StackedData, record: int, variable: int) -> int:
    """Stacked position of (complete-cell index, variable index)."""
    return variable * sd.n_obs + record


def obs_index(sd: StackedData, position: int) -> tuple[int, int]:
    """Inverse of :func:`position`: (complete-cell index, variable)."""
    return position % sd.n_obs, position // sd.n_obs


def assemble_V(model: MultivariateModel) -> np.ndarray:
    """Dense stacked covariance: treatment terms plus one Kronecker block
    per blocking factor plus the residual."""
    sd, p = model.stacked, model.params
    n, m = sd.n_obs, sd.m
    V = np.kron(p.Sigmas[0], np.eye(n))
    for s2, C in zip(p.sigma2, C_list(sd)):
        V += s2 * (C @ C.T)
    for S, W in zip(p.Sigmas[1:], W_list(sd)):
        V += np.kron(S, W @ W.T)
    return V


def gen_multivariate(model: MultivariateModel, seed: int, rep: int = 0) -> np.ndarray:
    """One stacked-data draw ``z ~ N(X beta, V)`` from the general model."""
    V = assemble_V(model)
    mean = model.stacked.X @ model.params.beta
    rng = _stream(seed, rep)
    L = np.linalg.cholesky(V)
    return mean + L @ rng.normal(size=len(mean))


def _pack(Sigmas, sigma2):
    out = []
    for S in Sigmas:
        L = np.linalg.cholesky(S)
        k = S.shape[0]
        for i in range(k):
            for j in range(i + 1):
                out.append(np.log(L[i, i]) if i == j else L[i, j])
    out.extend(np.log(np.maximum(sigma2, 1e-12)))
    return np.array(out)


def _unpack(vec, mp1, q, r):
    Sigmas, k = [], 0
    for _ in range(q + 1):
        L = np.zeros((mp1, mp1))
        for i in range(mp1):
            for j in range(i + 1):
                L[i, j] = np.exp(vec[k]) if i == j else vec[k]
                k += 1
        Sigmas.append(L @ L.T)
    sigma2 = np.exp(vec[k : k + r])
    return tuple(Sigmas), sigma2


def _gram_blocks(sd: StackedData):
    """The stacked covariance as a linear map of its parameters.

    V = Sigma_0 (x) I + sum_i Sigma_i (x) W_i W_i' + sum_j sigma2_j C_j C_j',
    so V is linear in theta = (vec Sigma_0, ..., vec Sigma_q, sigma2).  Row
    k of the returned matrix is the flattened N x N block that multiplies
    theta[k]: E_ab (x) I, then E_ab (x) W_i W_i', then C_j C_j'.
    """
    mp1 = sd.m + 1
    units = np.eye(mp1 * mp1).reshape(-1, mp1, mp1)
    grams = [np.eye(sd.n_obs)] + [W @ W.T for W in W_list(sd)]
    blocks = [np.kron(E, G) for G in grams for E in units]
    blocks += [C @ C.T for C in C_list(sd)]
    return np.array(blocks).reshape(len(blocks), -1)


def _whiten(vec, sd: StackedData, grams):
    """Cholesky factor L of V at ``vec`` and L^-1 [X z]; None when V is not
    positive definite."""
    Sigmas, sigma2 = _unpack(vec, sd.m + 1, len(sd.block_codes), len(sd.treatment_random_codes))
    theta = np.concatenate([np.ravel(Sigmas), sigma2])
    N = sd.n_stacked
    # raw LAPACK: the scipy.linalg wrappers' checks cost more than the
    # factorisation itself at these sizes (N <= 36)
    L, info = lapack.dpotrf((theta @ grams).reshape(N, N), lower=1)
    if info:
        return None
    XZ, _ = lapack.dtrtrs(L, np.column_stack([sd.X, sd.z]), lower=1)
    return L, XZ


def _profile_nll(vec, sd: StackedData, grams):
    """Negative profile log-likelihood at log-Cholesky point ``vec``.

    V is one linear combination of the precomputed ``grams`` (see
    ``_gram_blocks``); a single Cholesky factor and one triangular solve of
    [X z] give the log-determinant, the GLS estimate of beta and the
    quadratic form.  No EM machinery is involved.  Returns 1e30 where V is
    not positive definite or X' V^-1 X is singular.
    """
    white = _whiten(vec, sd, grams)
    if white is None:
        return 1e30
    L, XZ = white
    Xw, zw = XZ[:, :-1], XZ[:, -1]
    try:
        beta = np.linalg.solve(Xw.T @ Xw, Xw.T @ zw)
    except np.linalg.LinAlgError:
        return 1e30
    res = zw - Xw @ beta
    ld = 2 * np.sum(np.log(np.diag(L)))
    return 0.5 * (sd.n_stacked * np.log(2 * np.pi) + ld + res @ res)


def _beta_at(vec, sd, grams):
    _, XZ = _whiten(vec, sd, grams)
    Xw, zw = XZ[:, :-1], XZ[:, -1]
    return np.linalg.solve(Xw.T @ Xw, Xw.T @ zw)


def direct_max_loglik(sd: StackedData, extra_starts=()):
    """Simplex maximization of the profile likelihood; returns the best
    point found over scale-perturbed default starts plus any extras."""
    p0 = initial_params(sd)
    starts = [
        _pack(tuple(S * fac for S in p0.Sigmas), np.maximum(p0.sigma2 * fac, 1e-8))
        for fac in (1.0, 0.25, 4.0)
    ]
    for params in extra_starts:
        # the floor keeps a start with a zero component (a fit on the PSD
        # boundary) inside the log-Cholesky coordinates
        floor = 1e-14 * np.trace(params.Sigmas[0])
        Sig = tuple(
            S + max(1e-10 * np.trace(S), floor) * np.eye(S.shape[0]) for S in params.Sigmas
        )
        starts.append(_pack(Sig, np.maximum(params.sigma2, 1e-10)))
    grams = _gram_blocks(sd)
    best = None
    for x0 in starts:
        res = optimize.minimize(
            _profile_nll,
            x0,
            args=(sd, grams),
            method="Nelder-Mead",
            options={"maxiter": 20000, "maxfev": 20000, "fatol": 1e-12, "xatol": 1e-10},
        )
        res = optimize.minimize(
            _profile_nll,
            res.x,
            args=(sd, grams),
            method="Nelder-Mead",
            options={"maxiter": 20000, "maxfev": 20000, "fatol": 1e-13, "xatol": 1e-11},
        )
        if best is None or res.fun < best.fun:
            best = res
    Sigmas, sigma2 = _unpack(best.x, sd.m + 1, len(sd.block_codes), len(sd.treatment_random_codes))
    beta = _beta_at(best.x, sd, grams)
    return -best.fun, MVCParams(beta=beta, sigma2=sigma2, Sigmas=Sigmas)


# configurations cycled through by the comparison suite: (t, b, q, m, extra levels)
_ORACLE_CONFIGS = [
    (2, 5, 1, 1, 0),
    (3, 4, 1, 0, 0),
    (2, 6, 1, 1, 0),
    (3, 4, 1, 2, 0),
    (2, 6, 2, 0, 3),
    (3, 4, 2, 0, 2),
    (3, 4, 1, 1, 0),
    (2, 6, 1, 2, 0),
]


# frozen draws for the 20-instance comparison suite, three per config plus
# the spread completing 20; each gives an interior ML optimum (boundary
# optima are checked by test_mvc_em.py::TestBoundaryOracle)
ORACLE_SEEDS = (0, 1, 2, 3, 12, 5, 14, 39, 8, 9, 18, 19, 20, 13, 30, 55, 24, 17, 26, 27)


def make_oracle_instance(seed: int):
    """Small stacked design plus data drawn from known interior parameters."""
    t, b, q, m, g_levels = _ORACLE_CONFIGS[seed % len(_ORACLE_CONFIGS)]
    rng = np.random.default_rng(1000 + seed)
    n = t * b
    codes = np.tile(np.arange(t), b)
    bcodes = np.repeat(np.arange(b), t)
    factors = {
        "treatment": np.array([f"T{c + 1}" for c in codes], dtype=object),
        "block": np.array([f"B{c + 1:02d}" for c in bcodes], dtype=object),
    }
    blocking = ["block"]
    if q == 2:
        g = np.arange(n) % g_levels
        factors["grp"] = np.array([f"G{c + 1}" for c in g], dtype=object)
        blocking.append("grp")
    spec = v.DesignSpec(
        response="y",
        treatment_factors=("treatment",),
        blocking_factors=tuple(blocking),
        covariates=tuple(f"z{j + 1}" for j in range(m)),
        recipe="custom",
    )
    ds = v.Dataset(
        factors=factors,
        response=np.zeros(n),
        covariates=np.zeros((n, m)),
        covariate_names=spec.covariates,
        levels={},
    )
    sd = v.build_stacked(ds, spec)
    mp1 = m + 1
    rot = rng.normal(size=(mp1, mp1))
    S0 = rot @ rot.T / mp1 + np.eye(mp1)
    Sigmas = [S0]
    # strong random-factor signal keeps the ML optimum off the PSD
    # boundary, where plain EM would converge sublinearly
    for _ in sd.block_codes:
        rot = rng.normal(size=(mp1, mp1))
        Sigmas.append(3.0 * (rot @ rot.T / mp1) + 5.0 * np.eye(mp1))
    beta = rng.normal(size=sd.X.shape[1]) * 2.0
    truth = MVCParams(beta=beta, sigma2=np.zeros(0), Sigmas=tuple(Sigmas))
    z = gen_multivariate(make_model(sd, truth), seed=seed)
    sd = StackedData(**{**sd.__dict__, "z": z})
    return sd, truth


# ------------------------------------------------- stratum algebra reference


def averaging_matrix(n: int) -> np.ndarray:
    """Return ``J_n/n``, the projector onto the span of the ones vector."""
    if n < 1:
        raise ValidationError(f"averaging_matrix needs n >= 1, got {n}")
    return np.full((n, n), 1.0 / n)


@dataclass(frozen=True)
class OrthogonalPartition:
    """Ordered projector set ``A_0..A_q`` on R^dim, with ``A_0 = J/dim``.

    Each projector is symmetric idempotent, the set is mutually orthogonal,
    and the projectors sum to the identity.
    """

    dim: int
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projs = tuple(np.asarray(A, dtype=float) for A in self.projectors)
        for A in projs:
            if A.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"projector shape {A.shape} does not match dim {self.dim}"
                )
        object.__setattr__(self, "projectors", projs)

    @property
    def n_strata(self) -> int:
        return len(self.projectors)

    def ranks(self) -> np.ndarray:
        """Projector ranks (traces, rounded to the nearest integer)."""
        return np.array([int(round(np.trace(A))) for A in self.projectors])


def centering_matrix(n: int) -> np.ndarray:
    """Return ``I_n - J_n/n``: symmetric, idempotent, annihilates ones."""
    if n < 1:
        raise ValidationError(f"centering_matrix needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def helmert_matrix(t: int) -> np.ndarray:
    """Orthogonal t x t matrix whose first column is the normalized ones.

    Column 1 is ``1/sqrt(t)``; column j (j >= 2) is the classical contrast
    with entries ``1/sqrt(j(j-1))`` in the first ``j-1`` rows,
    ``-(j-1)/sqrt(j(j-1))`` in row j, zeros below.  Any orthonormal
    completion of the ones column gives the same likelihoods; this one is
    fixed for reproducibility.
    """
    if t < 1:
        raise ValidationError(f"helmert_matrix needs t >= 1, got {t}")
    H = np.zeros((t, t))
    H[:, 0] = 1.0 / np.sqrt(t)
    for j in range(2, t + 1):
        norm = np.sqrt(j * (j - 1))
        H[: j - 1, j - 1] = 1.0 / norm
        H[j - 1, j - 1] = -(j - 1) / norm
    return H


def rcb_partition(t: int) -> OrthogonalPartition:
    """Two-stratum partition of a complete block: grand mean and contrasts."""
    if t < 2:
        raise ValidationError(f"rcb_partition needs t >= 2, got {t}")
    return OrthogonalPartition(
        dim=t, projectors=(averaging_matrix(t), centering_matrix(t))
    )


@dataclass(frozen=True)
class KroneckerCovariance:
    """Covariance ``V = sum_l G_l (x) A_l`` over one replicate unit.

    ``strata[l]`` is the symmetric (m+1) x (m+1) matrix attached to
    projector ``partition.projectors[l]``; variable 0 is the response.
    The dense realization lives in variable-major layout: index
    ``variable * dim + unit``.
    """

    partition: OrthogonalPartition
    strata: tuple[np.ndarray, ...] = field(default=())

    def __post_init__(self):
        strata = tuple(np.asarray(G, dtype=float) for G in self.strata)
        if len(strata) != self.partition.n_strata:
            raise ValidationError(
                f"{len(strata)} strata for {self.partition.n_strata} projectors"
            )
        size = strata[0].shape[0] if strata else 0
        for G in strata:
            if G.ndim != 2 or G.shape != (size, size):
                raise ValidationError("strata must be square and equally sized")
            if np.max(np.abs(G - G.T)) > 1e-8 * (1.0 + np.max(np.abs(G))):
                raise ValidationError("stratum matrix is not symmetric")
        object.__setattr__(self, "strata", strata)

    @property
    def n_variables(self) -> int:
        return self.strata[0].shape[0]


def kron_cov_dense(kc: KroneckerCovariance) -> np.ndarray:
    """Dense ``sum_l G_l (x) A_l`` in variable-major layout."""
    k = kc.partition.dim
    v = kc.n_variables
    V = np.zeros((v * k, v * k))
    for G, A in zip(kc.strata, kc.partition.projectors):
        V += np.kron(G, A)
    return V


def kron_cov_inverse(kc: KroneckerCovariance) -> KroneckerCovariance:
    """Partition-preserving inverse: invert each stratum matrix in place.

    Valid because the A_l are orthogonal idempotents summing to I, so
    ``(sum G_l (x) A_l)^-1 = sum G_l^-1 (x) A_l``.
    """
    inv = []
    for l, G in enumerate(kc.strata):
        try:
            Gi = np.linalg.inv(G)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(f"stratum {l} matrix is singular") from exc
        # reject numerically singular strata that inv() silently accepts
        if not np.all(np.isfinite(Gi)) or np.linalg.cond(G) > 1e14:
            raise SingularityError(f"stratum {l} matrix is singular")
        inv.append(Gi)
    return KroneckerCovariance(partition=kc.partition, strata=tuple(inv))


@dataclass(frozen=True)
class StratumRegression:
    """Per-stratum covariate slopes and conditional variances."""

    gammas: tuple[np.ndarray, ...]  # one m-vector per stratum
    lambdas: np.ndarray  # conditional variance per stratum

    @property
    def n_strata(self) -> int:
        return len(self.gammas)


def stratum_regressions(kc: KroneckerCovariance) -> StratumRegression:
    """Slopes and residual variances of response-on-covariates per stratum.

    Variable 0 of every stratum matrix is the response; the slope vector is
    the regression of it on the remaining variables within that stratum and
    the conditional variance is the corresponding Schur complement.
    """
    gammas, lambdas = [], []
    for l, G in enumerate(kc.strata):
        g_uu = G[0, 0]
        g_uz = G[0, 1:]
        G_zz = G[1:, 1:]
        if G_zz.size == 0:
            gammas.append(np.zeros(0))
            lambdas.append(float(g_uu))
            continue
        try:
            sol = np.linalg.solve(G_zz, g_uz)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(
                f"stratum {l}: covariate block is singular"
            ) from exc
        gammas.append(sol)
        lambdas.append(float(g_uu - g_uz @ sol))
    return StratumRegression(gammas=tuple(gammas), lambdas=np.array(lambdas))


def adjusted_means_orthogonal(
    mu_y: np.ndarray, gamma_0: np.ndarray, zbar: np.ndarray, mu_z: np.ndarray
) -> np.ndarray:
    """Expected responses with every covariate held at its marginal mean.

    Only the grand-mean stratum slope survives the averaging, so the
    adjustment is the scalar ``gamma_0'(zbar - mu_z)`` subtracted from each
    treatment mean.
    """
    mu_y = np.asarray(mu_y, dtype=float)
    gamma_0 = np.atleast_1d(np.asarray(gamma_0, dtype=float))
    zbar = np.atleast_1d(np.asarray(zbar, dtype=float))
    mu_z = np.atleast_1d(np.asarray(mu_z, dtype=float))
    if not (len(gamma_0) == len(zbar) == len(mu_z)):
        raise ValidationError("gamma_0, zbar, mu_z must share one length")
    return mu_y - float(gamma_0 @ (zbar - mu_z))


def lmm_best_of_starts(spec: LmmSpec, method: str) -> float:
    """Best log-likelihood over five L-BFGS-B runs, one from each variance
    ratio 1e-2 ... 1e2 times the OLS residual variance, with the fitter's
    bounds and tolerances and no finishing steps."""
    y, X = spec.y, spec.X
    vary = float(np.var(y))
    cp = _cross_products(spec)
    beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
    s2_ols = max(float(np.mean((y - X @ beta0) ** 2)), 1e-12 * vary)
    k = len(spec.random)
    lo, hi = np.log(1e-14 * vary), np.log(1e8 * vary)
    best = np.inf
    for ratio in (1e-2, 1e-1, 1.0, 1e1, 1e2):
        res = optimize.minimize(
            _neg_loglik,
            np.log(np.r_[s2_ols, np.full(k, ratio * s2_ols)]),
            args=(cp, method),
            jac=True,
            method="L-BFGS-B",
            bounds=[(lo, hi)] * (k + 1),
            options={"maxiter": 500, "ftol": 1e-10, "gtol": 1e-10},
        )
        best = min(best, float(res.fun))
    return -best
