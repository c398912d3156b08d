"""Reference values for the output checks, computed without the program.

Each fit the benchmark times is checked against a reference computed here
from the generated arrays by direct maximization of the same likelihood
with a generic quasi-Newton optimizer.  The code shares nothing with
``vcadjust``: the EM engine is checked against a direct fit of the stacked
bivariate model, and the LMM front-ends against a direct fit of the
univariate (RE)ML likelihood, so a later change to either engine is checked
against the same independent answer.

Every layout the benchmark generates has random-effect Gram matrices that
commute, so one eigenbasis diagonalizes them all and each likelihood
evaluation is O(n) after a single eigendecomposition.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

_OPTIONS = {"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-9}


def _incidence(codes, k):
    W = np.zeros((len(codes), k))
    W[np.arange(len(codes)), codes] = 1.0
    return W


def _common_eigenbasis(grams):
    """Orthogonal Q with Q' G Q diagonal for every G; returns (Q, diagonals)."""
    weights = np.sqrt(np.arange(2.0, 2.0 + len(grams)))  # generic combination
    _, Q = np.linalg.eigh(sum(w * G for w, G in zip(weights, grams)))
    diags = []
    for G in grams:
        R = Q.T @ G @ Q
        d = np.diag(R).copy()
        if np.max(np.abs(R - np.diag(d))) > 1e-8 * max(1.0, np.max(np.abs(d))):
            raise ValueError("random-effect Gram matrices do not commute")
        diags.append(d)
    return Q, diags


def _minimize(negll, starts, bounds):
    best = None
    for x0 in starts:
        res = optimize.minimize(negll, x0, method="L-BFGS-B", bounds=bounds, options=_OPTIONS)
        if best is None or res.fun < best.fun:
            best = res
    return best


# ---------------------------------------------------------------- stacked ML


def _chol2(v):
    """2x2 covariance from lower-Cholesky coordinates (log l11, l21, log l22)."""
    L = np.array([[np.exp(v[0]), 0.0], [v[1], np.exp(v[2])]])
    return L @ L.T


def _unchol2(S):
    L = np.linalg.cholesky(S)
    return [np.log(L[0, 0]), L[1, 0], np.log(L[1, 1])]


def _moment_start(y, z, treat, block, t, b):
    """Within-block and between-block covariances of treatment-centred data."""
    R = np.column_stack([y, z])
    for i in range(t):
        R[treat == i] -= R[treat == i].mean(axis=0)
    Rb = np.array([R[block == j].mean(axis=0) for j in range(b)])
    E = R - Rb[block]
    S0 = E.T @ E / max(len(y) - b - t + 1, 1)
    G = np.cov(Rb.T) - S0 * np.mean(1.0 / np.bincount(block, minlength=b))
    vals, vecs = np.linalg.eigh(G)
    S1 = vecs @ np.diag(np.clip(vals, 1e-3 * np.trace(S0), None)) @ vecs.T
    return S0, S1


def stacked_ml(o: dict) -> dict:
    """ML fit of the stacked (response, covariate) model with random blocks.

    In the eigenbasis of the block Gram matrix the stacked covariance splits
    into independent 2x2 blocks ``S0 + lam_k S1``.  Adjusted means are the
    response treatment means at the ML point; their standard errors are the
    plug-in GLS sandwich with the response block of the covariance replaced
    by its covariate-conditional Schur complement.
    """
    y, z, treat, block = o["y"], o["z"], o["treat"], o["block"]
    t, b, n = o["t"], o["b"], len(o["y"])
    T = _incidence(treat, t)
    Q, (lam,) = _common_eigenbasis([_incidence(block, b) @ _incidence(block, b).T])
    if o["tau_z"]:
        Xy = np.column_stack([T, np.zeros((n, t))])
        Xz = np.column_stack([np.zeros((n, t)), T])
    else:
        Xy = np.column_stack([T, np.zeros((n, 1))])
        Xz = np.column_stack([np.zeros((n, t)), np.ones((n, 1))])
    Xy, Xz, yr, zr = Q.T @ Xy, Q.T @ Xz, Q.T @ y, Q.T @ z

    def solve(v):
        S0, S1 = _chol2(v[:3]), _chol2(v[3:])
        a = S0[0, 0] + lam * S1[0, 0]
        c = S0[1, 1] + lam * S1[1, 1]
        off = S0[0, 1] + lam * S1[0, 1]
        det = a * c - off * off
        iyy, izz, iyz = c / det, a / det, -off / det
        A = (Xy.T * iyy) @ Xy + (Xz.T * izz) @ Xz + (Xy.T * iyz) @ Xz + (Xz.T * iyz) @ Xy
        rhs = Xy.T @ (iyy * yr + iyz * zr) + Xz.T @ (iyz * yr + izz * zr)
        beta = np.linalg.solve(A, rhs)
        ry, rz = yr - Xy @ beta, zr - Xz @ beta
        quad = float(np.sum(iyy * ry * ry + 2 * iyz * ry * rz + izz * rz * rz))
        return beta, A, (iyy, izz, iyz), det, quad

    def negll(v):
        try:
            _, _, _, det, quad = solve(v)
        except np.linalg.LinAlgError:
            return 1e30
        if np.any(det <= 0):
            return 1e30
        return 0.5 * (2 * n * np.log(2 * np.pi) + float(np.sum(np.log(det))) + quad)

    S0m, S1m = _moment_start(y, z, treat, block, t, b)
    # log-diagonal floor: a boundary optimum is approached to within a
    # relative 1e-12 of the residual scale, far below the check tolerances
    lo = 0.5 * np.log(1e-12 * np.diag(S0m))
    bounds = [(lo[0], None), (None, None), (lo[1], None)] * 2
    starts = [np.r_[_unchol2(S0m), _unchol2(S1)] for S1 in (S1m, 0.1 * S0m)]
    best = _minimize(negll, starts, bounds)

    beta, A, (iyy, izz, iyz), _, _ = solve(best.x)
    Ainv = np.linalg.inv(A)
    S0, S1 = _chol2(best.x[:3]), _chol2(best.x[3:])
    # response rows of V^-1 X, and the conditional response covariance
    U0 = iyy[:, None] * Xy + iyz[:, None] * Xz
    vstar = (S0[0, 0] + lam * S1[0, 0]) - (S0[0, 1] + lam * S1[0, 1]) ** 2 / (
        S0[1, 1] + lam * S1[1, 1]
    )
    cov = Ainv @ ((U0.T * vstar) @ U0) @ Ainv
    return {
        "loglik": -float(best.fun),
        "means": beta[:t],
        "se": np.sqrt(np.clip(np.diag(cov)[:t], 0.0, None)),
    }


# ------------------------------------------------------------ univariate LMM


def lmm_fit(o: dict) -> dict:
    """(RE)ML fit of ``y = X b + sum Z u + e`` and the adjusted means ``coef @ b``."""
    y, X, method = o["y"], o["X"], o["method"]
    n, p = X.shape
    Q, diags = _common_eigenbasis([Z @ Z.T for Z in o["random"]])
    yr, Xr = Q.T @ y, Q.T @ X
    vary = float(np.var(y))

    def solve(theta):
        v = np.exp(theta[0]) + sum(np.exp(th) * d for th, d in zip(theta[1:], diags))
        A = (Xr.T / v) @ Xr
        beta = np.linalg.solve(A, Xr.T @ (yr / v))
        r = yr - Xr @ beta
        return beta, A, v, float(np.sum(r * r / v))

    def negll(theta):
        try:
            _, A, v, quad = solve(theta)
        except np.linalg.LinAlgError:
            return 1e30
        logdet = float(np.sum(np.log(v)))
        if method == "ml":
            return 0.5 * (n * np.log(2 * np.pi) + logdet + quad)
        ldA = np.linalg.slogdet(A)[1]
        return 0.5 * ((n - p) * np.log(2 * np.pi) + logdet + ldA + quad)

    beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
    s2 = float(np.mean((y - X @ beta0) ** 2))
    bounds = [(np.log(1e-12 * vary), np.log(1e6 * vary))] * (1 + len(diags))
    starts = [
        np.log(np.r_[(1 - share) * s2, np.full(len(diags), share * s2)])
        for share in (0.5, 0.05)
    ]
    best = _minimize(negll, starts, bounds)
    beta, A, _, _ = solve(best.x)
    C = o["coef"]
    adj_cov = C @ np.linalg.inv(A) @ C.T
    return {
        "loglik": -float(best.fun),
        "means": C @ beta,
        "se": np.sqrt(np.clip(np.diag(adj_cov), 0.0, None)),
    }


# ---------------------------------------------------------- fixed-block OLS


def fixed_ancova(o: dict) -> dict:
    """Fixed-blocks analysis of covariance on a complete RCB (ML divisor)."""
    y, z, treat, block, t, b = o["y"], o["z"], o["treat"], o["block"], o["t"], o["b"]
    n = len(y)
    F = np.column_stack([_incidence(treat, t), _incidence(block, b)[:, 1:]])
    # covariate slope from the residuals of both on the treatment+block design
    ry = y - F @ np.linalg.lstsq(F, y, rcond=None)[0]
    rz = z - F @ np.linalg.lstsq(F, z, rcond=None)[0]
    szz = float(rz @ rz)
    gamma = float(rz @ ry) / szz
    s2 = float(np.sum((ry - gamma * rz) ** 2)) / n
    zbar_i = np.array([z[treat == i].mean() for i in range(t)])
    ybar_i = np.array([y[treat == i].mean() for i in range(t)])
    zbar = float(z.mean())
    return {
        "means": ybar_i - gamma * (zbar_i - zbar),
        "se": np.sqrt(s2 / b + s2 * (zbar_i - zbar) ** 2 / szz),
    }


def reference(o: dict) -> dict:
    """Reference values for one case."""
    kind = o["kind"]
    if kind == "mvc":
        return stacked_ml(o)
    if kind == "lmm":
        return lmm_fit(o)
    if kind == "compare":
        return {
            "fixed": fixed_ancova(o),
            "mixed": lmm_fit(o["mixed"]),
            "bivariate": stacked_ml(o),
        }
    raise ValueError(f"unknown oracle kind {kind!r}")
