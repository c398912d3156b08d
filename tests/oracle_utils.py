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
"""

from __future__ import annotations

import numpy as np
from scipy import optimize
from scipy.linalg import lapack

import vcadjust as v
from vcadjust.data_model import StackedData
from vcadjust.mvc_em import MVCParams, initial_params, make_model


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
    grams = [np.eye(sd.n_obs)] + [W @ W.T for W in sd.W_list]
    blocks = [np.kron(E, G) for G in grams for E in units]
    blocks += [C @ C.T for C in sd.C_list]
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
    for _ in sd.W_list:
        rot = rng.normal(size=(mp1, mp1))
        Sigmas.append(3.0 * (rot @ rot.T / mp1) + 5.0 * np.eye(mp1))
    beta = rng.normal(size=sd.X.shape[1]) * 2.0
    truth = MVCParams(beta=beta, sigma2=np.zeros(0), Sigmas=tuple(Sigmas))
    z = v.gen_multivariate(make_model(sd, truth), seed=seed)
    sd = StackedData(**{**sd.__dict__, "z": z})
    return sd, truth
