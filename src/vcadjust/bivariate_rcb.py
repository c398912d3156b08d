"""Joint response/covariate variance-components fit for blocked designs.

The response and covariate of a complete-blocks experiment share block
effects and residual errors, each with its own 2x2 covariance.  Under that
joint model the within-block and block-mean covariate regressions carry
different slopes, and the implied conditional model for the response adds
the block-mean covariate as a second regressor.  An orthonormal contrast
transform of each block factorizes the likelihood into independent
bivariate pieces, giving closed-form maximum likelihood: that is
:func:`fit_bivariate_rcb_ml`.

The iterative fits here are the package's one conditional builder,
:func:`~.orthogonal_conditional.fit_orthogonal_conditional`, with random
blocks and a chosen regressor list: :func:`fit_conditional_ibd` regresses
on the covariate and its block mean (the two-slope model, for equal-size
complete or incomplete blocks), and :func:`fit_naive_block_mixed` on the
covariate alone (the single-slope model).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, DesignSpec
from .design_algebra import helmert_matrix
from .errors import SingularityError, ValidationError
from .lmm import LmmFit
from .orthogonal_conditional import _fit_block_design
from .rcb_classical import rcb_arrays


class HiddenExtrapolationWarning(UserWarning):
    """Treatment covariate means far apart relative to within-group spread."""


@dataclass(frozen=True)
class BivariateParams:
    """Treatment means plus block and residual 2x2 covariances.

    Component order inside the 2x2 matrices is (response, covariate).
    ``Sigma_B`` reconstructed from a fit may be indefinite in small
    samples; ``sigma_b_psd`` records that instead of projecting it away.
    """

    mu_y: np.ndarray
    mu_z: float
    Sigma_B: np.ndarray
    Sigma_E: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu_y", np.asarray(self.mu_y, dtype=float))
        object.__setattr__(self, "Sigma_B", np.asarray(self.Sigma_B, dtype=float))
        object.__setattr__(self, "Sigma_E", np.asarray(self.Sigma_E, dtype=float))
        for name in ("Sigma_B", "Sigma_E"):
            M = getattr(self, name)
            if M.shape != (2, 2) or abs(M[0, 1] - M[1, 0]) > 1e-10 * (
                1 + abs(M[0, 1])
            ):
                raise ValidationError(f"{name} must be symmetric 2x2")
        if np.linalg.eigvalsh(self.Sigma_E).min() <= 0:
            raise ValidationError("Sigma_E must be positive definite")

    @property
    def sigma_b_psd(self) -> bool:
        return bool(np.linalg.eigvalsh(self.Sigma_B).min() >= -1e-10 * max(
            np.trace(self.Sigma_B), 1.0
        ))

    @property
    def t(self) -> int:
        return len(self.mu_y)


@dataclass(frozen=True)
class ConditionalParams:
    """Parameters of the response-given-covariate block model.

    ``gamma_e`` multiplies the cell covariate, ``gamma_b`` the block mean;
    their sum ``gamma_be`` is the block-mean regression slope.
    """

    mu: float
    tau: np.ndarray
    gamma_e: float
    gamma_b: float
    sigma_e2: float
    sigma_b2: float

    @property
    def gamma_be(self) -> float:
        return self.gamma_e + self.gamma_b


def conditional_from_bivariate(p: BivariateParams, t: int) -> ConditionalParams:
    """Map the joint parameters to the conditional-model parameters.

    The slopes come from the two strata of the per-block covariance: the
    cell-level slope is the residual covariance ratio, and the block-mean
    slope divides block-mean covariances by block-mean covariate variance.
    """
    se_y2, se_yz = p.Sigma_E[0, 0], p.Sigma_E[0, 1]
    se_z2 = p.Sigma_E[1, 1]
    sb_y2, sb_yz = p.Sigma_B[0, 0], p.Sigma_B[0, 1]
    sb_z2 = p.Sigma_B[1, 1]
    if se_z2 <= 0:
        raise SingularityError("residual covariate variance must be positive")
    if sb_z2 + se_z2 / t <= 0:
        raise SingularityError("block-mean covariate variance must be positive")
    gamma_e = se_yz / se_z2
    gamma_b = (se_z2 * sb_yz - se_yz * sb_z2) / (se_z2 * (sb_z2 + se_z2 / t))
    sigma_e2 = se_y2 - se_yz**2 / se_z2
    sigma_b2 = sb_y2 - (gamma_e * sb_yz + gamma_b * (sb_yz + se_yz / t))
    return ConditionalParams(
        mu=float(np.mean(p.mu_y) - (gamma_e + gamma_b) * p.mu_z),
        tau=p.mu_y - np.mean(p.mu_y),
        gamma_e=float(gamma_e),
        gamma_b=float(gamma_b),
        sigma_e2=float(sigma_e2),
        sigma_b2=float(sigma_b2),
    )


@dataclass
class HelmertFit:
    """Closed-form ML pieces from the per-block contrast transform.

    The first contrast row (scaled block means) estimates the block-mean
    regression; the remaining rows pool into the cell-level regression.
    Sample moments of the data needed by the adjusted means ride along.
    """

    theta_1y: float
    theta_1z: float
    theta_iy: np.ndarray  # contrast-space treatment coordinates, i = 2..t
    gamma_be_hat: float
    gamma_e_hat: float
    sigma_be2: float  # block-mean conditional residual variance (ML)
    sigma_e2: float  # cell-level conditional residual variance (ML)
    g0_zz: float  # ML variance of the scaled block-mean covariate
    g1_zz: float  # ML residual covariate variance
    t: int
    b: int
    treatments: tuple[str, ...]
    ybar_i: np.ndarray
    zbar_i: np.ndarray
    zbar: float
    szz_within: float  # doubly-centered covariate sum of squares
    loglik: float
    loglik_z: float  # covariate-marginal part of the likelihood

    @property
    def conditional_loglik(self) -> float:
        """Log-likelihood of the response given the covariates."""
        return self.loglik - self.loglik_z

    @property
    def mu_z_hat(self) -> float:
        return self.theta_1z / np.sqrt(self.t)

    @property
    def mu_y_hat(self) -> np.ndarray:
        return self.ybar_i - self.gamma_e_hat * (self.zbar_i - self.zbar)

    @property
    def sigma_b2(self) -> float:
        """Conditional block variance implied by the two residual variances."""
        return (self.sigma_be2 - self.sigma_e2) / self.t


def _bivariate_logpdf(y, z, mean_y, mean_z, S):
    det = S[0, 0] * S[1, 1] - S[0, 1] ** 2
    if det <= 0:
        raise SingularityError("degenerate 2x2 covariance in the likelihood")
    dy, dz = y - mean_y, z - mean_z
    quad = (S[1, 1] * dy**2 - 2 * S[0, 1] * dy * dz + S[0, 0] * dz**2) / det
    return -0.5 * (2 * np.log(2 * np.pi) + np.log(det) + quad)


def fit_bivariate_rcb_ml(
    ds: Dataset, spec: DesignSpec
) -> tuple[HelmertFit, BivariateParams, ConditionalParams]:
    """Closed-form ML for the joint model on a complete RCB with one covariate.

    Works on the orthonormal contrast transform of each block: the scaled
    block-mean pairs carry the block-mean regression, the contrast pairs
    carry the cell-level regression, and the per-piece variance MLEs
    (divisor b) reassemble into the block and residual covariances.
    """
    Y, Z, labels, _blocks = rcb_arrays(ds, spec)
    t, b = Y.shape
    if b <= 1:
        raise ValidationError("need at least two blocks for inter-block information")
    H = helmert_matrix(t)
    Ys, Zs = H.T @ Y, H.T @ Z

    scale = max(float(np.sum(Z * Z)), 1.0)
    y1, z1 = Ys[0], Zs[0]
    z1bar = float(z1.mean())
    den0 = float(np.sum((z1 - z1bar) ** 2))
    if den0 <= 1e-12 * scale:
        raise SingularityError("block-mean covariate carries no variation")
    gamma_be = float(np.sum((z1 - z1bar) * y1) / den0)
    theta_1y = float(y1.mean())
    theta_1yz = theta_1y - gamma_be * z1bar
    sigma_be2 = float(np.mean((y1 - theta_1yz - gamma_be * z1) ** 2))
    g0_zz = den0 / b

    zc = Zs[1:] - Zs[1:].mean(axis=1, keepdims=True)
    den1 = float(np.sum(zc * zc))
    if den1 <= 1e-12 * scale:
        raise SingularityError("within-block covariate carries no variation")
    gamma_e = float(np.sum(zc * Ys[1:]) / den1)
    theta_iy = Ys[1:].mean(axis=1) - gamma_e * Zs[1:].mean(axis=1)
    resid = Ys[1:] - theta_iy[:, None] - gamma_e * Zs[1:]
    sigma_e2 = float(np.sum(resid**2) / (b * (t - 1)))
    g1_zz = float(np.sum(Zs[1:] ** 2) / (b * (t - 1)))
    if sigma_be2 <= 1e-12 * max(float(np.sum(Y * Y)), 1.0):
        raise SingularityError(
            "inter-block residual variance is zero (need b >= 3 blocks for "
            "a proper block-mean regression)"
        )

    Sigma_E = np.array(
        [
            [sigma_e2 + gamma_e**2 * g1_zz, gamma_e * g1_zz],
            [gamma_e * g1_zz, g1_zz],
        ]
    )
    G0 = np.array(
        [
            [sigma_be2 + gamma_be**2 * g0_zz, gamma_be * g0_zz],
            [gamma_be * g0_zz, g0_zz],
        ]
    )
    Sigma_B = (G0 - Sigma_E) / t

    zbar_i, ybar_i = Z.mean(axis=1), Y.mean(axis=1)
    zbar = float(Z.mean())
    szz_within = float(np.sum((Z - zbar_i[:, None] - Z.mean(axis=0) + zbar) ** 2))

    # observed-data log-likelihood: sum of the independent transformed pieces
    ll = float(np.sum(_bivariate_logpdf(y1, z1, theta_1y, z1bar * np.ones(b), G0)))
    for idx in range(t - 1):
        ll += float(
            np.sum(
                _bivariate_logpdf(
                    Ys[idx + 1], Zs[idx + 1], theta_iy[idx], 0.0, Sigma_E
                )
            )
        )

    def _norm_ll(x, mean, var):
        return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)

    ll_z = float(np.sum(_norm_ll(z1, z1bar, g0_zz)))
    ll_z += float(np.sum(_norm_ll(Zs[1:], 0.0, g1_zz)))

    fit = HelmertFit(
        theta_1y=theta_1y,
        theta_1z=z1bar,
        theta_iy=theta_iy,
        gamma_be_hat=gamma_be,
        gamma_e_hat=gamma_e,
        sigma_be2=sigma_be2,
        sigma_e2=sigma_e2,
        g0_zz=g0_zz,
        g1_zz=g1_zz,
        t=t,
        b=b,
        treatments=tuple(labels),
        ybar_i=ybar_i,
        zbar_i=zbar_i,
        zbar=zbar,
        szz_within=szz_within,
        loglik=ll,
        loglik_z=ll_z,
    )
    params = BivariateParams(
        mu_y=fit.mu_y_hat, mu_z=fit.mu_z_hat, Sigma_B=Sigma_B, Sigma_E=Sigma_E
    )
    cond = conditional_from_bivariate(params, t)
    return fit, params, cond


def adjusted_means_bivariate(fit: HelmertFit) -> tuple[np.ndarray, np.ndarray]:
    """Adjusted treatment means and standard errors from the closed-form fit.

    The means evaluate the fitted treatment means at the grand covariate
    mean (where the block-mean correction vanishes); the variance sums the
    block-sampling term and the plug-in slope variance.
    """
    means = fit.mu_y_hat + fit.gamma_be_hat * (fit.zbar - fit.mu_z_hat)
    var = (fit.sigma_e2 + fit.sigma_b2) / fit.b + fit.sigma_e2 * (
        fit.zbar_i - fit.zbar
    ) ** 2 / fit.szz_within
    return means, np.sqrt(var)


@dataclass
class BlockConditionalFit:
    """Conditional-model fit on a (possibly incomplete) block design."""

    effects: np.ndarray  # sum-to-zero treatment effects
    effect_cov: np.ndarray
    gamma_e: float
    gamma_b: float  # zero for the naive single-slope model
    adjusted_means: np.ndarray
    adjusted_se: np.ndarray
    treatments: tuple[str, ...]
    sigma_e2: float
    sigma_b2: float
    loglik: float
    method: str
    lmm_fit: LmmFit
    model: str  # "conditional" or "naive"

    @property
    def effect_se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.effect_cov))


def _block_fit(ds, spec, block_means, method, tol, max_iter) -> BlockConditionalFit:
    f = _fit_block_design(ds, spec, block_means, method, tol, max_iter)
    t = len(f.treatments)
    cov_name = ds.covariate_names[0]
    block = spec.blocking_factors[0]
    L = np.eye(t) - np.full((t, t), 1.0 / t)
    effect_cov = L @ f.lmm_fit.beta_cov[:t, :t] @ L.T
    return BlockConditionalFit(
        effects=L @ f.lmm_fit.beta_hat[:t],
        effect_cov=0.5 * (effect_cov + effect_cov.T),
        gamma_e=f.slopes[cov_name],
        gamma_b=f.slopes.get(f"mean({cov_name}|{block})", 0.0),
        adjusted_means=f.adjusted_means,
        adjusted_se=f.adjusted_se,
        treatments=f.treatments,
        sigma_e2=f.lmm_fit.sigma_e2,
        sigma_b2=float(f.lmm_fit.sigma2[0]),
        loglik=f.loglik,
        method=method,
        lmm_fit=f.lmm_fit,
        model="conditional" if block_means else "naive",
    )


def fit_conditional_ibd(
    ds: Dataset,
    spec: DesignSpec,
    method: str = "reml",
    tol: float = 1e-10,
    max_iter: int = 500,
) -> BlockConditionalFit:
    """Fit the two-slope conditional model on an equal-block-size design.

    Regressors are the cell covariate and its block mean, with a random
    block effect; treatment effects are reported on the sum-to-zero scale
    with their full covariance, since incomplete layouts leave them
    correlated.  A block-mean column with no variation is dropped, which
    leaves ``gamma_b`` at zero.
    """
    return _block_fit(ds, spec, True, method, tol, max_iter)


def fit_naive_block_mixed(
    ds: Dataset,
    spec: DesignSpec,
    method: str = "reml",
    tol: float = 1e-10,
    max_iter: int = 500,
) -> BlockConditionalFit:
    """Single-slope random-blocks fit (no block-mean regressor), for comparison."""
    return _block_fit(ds, spec, False, method, tol, max_iter)


def direct_treatment_effects(
    fit, covariate_treatment_means, within_group_sd: float
) -> np.ndarray:
    """Treatment effects when the treatments also move the covariate.

    The conditional-model effects already measure the direct effect on the
    response (net of the route through the covariate), so they are returned
    unchanged.  Comparing treatments at a common covariate value is suspect
    when their covariate means sit far apart, so a spread beyond two
    within-group standard deviations raises a warning.
    """
    effects = np.asarray(
        fit.effects if hasattr(fit, "effects") else fit.tau, dtype=float
    )
    zmeans = np.asarray(covariate_treatment_means, dtype=float)
    if len(zmeans) != len(effects):
        raise ValidationError("one covariate mean per treatment is required")
    spread = float(zmeans.max() - zmeans.min())
    if within_group_sd > 0 and spread > 2.0 * within_group_sd:
        warnings.warn(
            "treatment covariate means differ by more than two within-group "
            "standard deviations; adjusted comparisons extrapolate beyond "
            "the observed covariate range",
            HiddenExtrapolationWarning,
            stacklevel=2,
        )
    return effects
