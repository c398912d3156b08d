"""Joint response/covariate variance-components fit for blocked designs.

The response and covariate of a complete-blocks experiment share block
effects and residual errors, each with its own 2x2 covariance.  Under that
joint model the within-block and block-mean covariate regressions carry
different slopes, and the implied conditional model for the response adds
the block-mean covariate as a second regressor.  On a complete layout the
likelihood factorizes over the block and residual strata, so maximum
likelihood is closed form in the two strata's 2x2 sums of squares and
products: that is :func:`fit_bivariate_rcb_ml`, which reads the stratum
table of :mod:`.rcb_classical` like the fixed-blocks fit and returns one
:class:`JointRcbFit`: the stratum values, the conditional model's
block-mean slope and block variance read off them, the fitted joint
parameters, and the adjusted means with their standard errors.

The iterative fits here all run one random-blocks fit, :func:`_block_fit`,
which is the package's one conditional builder,
:func:`~.orthogonal_conditional.fit_orthogonal_conditional`, with random
blocks and a chosen regressor list, and they all return
:class:`BlockConditionalFit`, that function's result with the two slopes
under block-model names: :func:`fit_conditional_ibd` regresses on the
covariate and its block mean (the two-slope model, for equal-size complete
or incomplete blocks), and :func:`fit_naive_block_mixed` on the covariate
alone (the single-slope model; :func:`fit_mixed_rcb` is the same fit with
an ML default).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, DesignSpec
from .errors import SingularityError, ValidationError
# lmm goes ahead of orthogonal_conditional, which imports it: the other order
# costs ~9000 more page faults inside scipy's import, ~60 ms of start-up
from .lmm import LmmFit  # noqa: F401
from .orthogonal_conditional import (
    OrthogonalConditionalFit,
    _block_recipe,
    fit_orthogonal_conditional,
)
from .rcb_classical import _rcb_table, rcb_arrays


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
class JointRcbFit:
    """Closed-form ML fit from the block- and residual-stratum SSCPs.

    The block stratum estimates the block-mean regression (``gamma_be_hat``,
    ``sigma_be2``), the residual stratum the cell-level one (``gamma_e_hat``,
    ``sigma_e2``).  The covariate mean's MLE is the grand mean ``zbar``;
    ``params`` holds the fitted joint parameters.
    """

    gamma_be_hat: float
    gamma_e_hat: float
    sigma_be2: float  # block-mean conditional residual variance (ML)
    sigma_e2: float  # cell-level conditional residual variance (ML)
    t: int
    b: int
    treatments: tuple[str, ...]
    zbar_i: np.ndarray
    zbar: float
    szz_within: float  # doubly-centered covariate sum of squares
    loglik: float
    loglik_z: float  # covariate-marginal part of the likelihood
    params: BivariateParams

    @property
    def conditional_loglik(self) -> float:
        """Log-likelihood of the response given the covariates."""
        return self.loglik - self.loglik_z

    @property
    def gamma_b(self) -> float:
        """Slope on the block-mean covariate in the conditional model."""
        return self.gamma_be_hat - self.gamma_e_hat

    @property
    def sigma_b2(self) -> float:
        """Conditional block variance implied by the two residual variances."""
        return (self.sigma_be2 - self.sigma_e2) / self.t

    @property
    def adjusted_means(self) -> np.ndarray:
        """The fitted treatment means ``params.mu_y``, at the covariate mean's
        MLE (the grand mean), where the block-mean correction vanishes."""
        return self.params.mu_y

    @property
    def adjusted_se(self) -> np.ndarray:
        """Standard errors of the adjusted means: the block-sampling term
        plus the plug-in slope variance."""
        var = (self.sigma_e2 + self.sigma_b2) / self.b + self.sigma_e2 * (
            self.zbar_i - self.zbar
        ) ** 2 / self.szz_within
        return np.sqrt(var)


def fit_bivariate_rcb_ml(ds: Dataset, spec: DesignSpec) -> JointRcbFit:
    """Closed-form ML for the joint model on a complete RCB with one covariate.

    The block-stratum SSCP carries the block-mean regression, the
    residual-stratum SSCP the cell-level regression, and the per-stratum
    variance MLEs (divisor b for blocks, b(t-1) for residuals) reassemble
    into the block and residual covariances.  The covariate's residual
    variance takes its within-block sum of squares unswept, since the
    covariate mean carries no treatment effects.  The conditional-model
    parameters are ``conditional_from_bivariate(fit.params, fit.t)``.
    """
    tab = _rcb_table(*rcb_arrays(ds, spec))
    t, b = tab.Y.shape
    if b <= 1:
        raise ValidationError("need at least two blocks for inter-block information")
    block, resid = tab.block, tab.resid
    tab.require(
        block[1, 1],
        "block-mean covariate carries no variation: the block-stratum "
        "covariate variance estimate is 0, so the joint likelihood is "
        "unbounded; fit the conditional model instead (--model orthogonal, "
        "or --model bivariate --method reml)",
    )
    tab.require(resid[1, 1], "within-block covariate carries no variation")
    n_e = b * (t - 1)
    gamma_be = float(block[0, 1] / block[1, 1])
    gamma_e = float(resid[0, 1] / resid[1, 1])
    sigma_be2 = float(block[0, 0] - gamma_be * block[0, 1]) / b
    sigma_e2 = float(resid[0, 0] - gamma_e * resid[0, 1]) / n_e
    g0_zz = float(block[1, 1]) / b
    g1_zz = float(tab.within[1, 1]) / n_e
    if sigma_be2 <= 1e-12 * max(float(np.sum(tab.Y * tab.Y)), 1.0):
        raise SingularityError(
            "inter-block residual variance is zero (need b >= 3 blocks for "
            "a proper block-mean regression)"
        )
    if sigma_e2 <= 0:
        raise SingularityError("degenerate 2x2 covariance in the likelihood")

    # Sigma_E is the covariance of (gamma_e z + e, z); the block-stratum
    # covariance of the scaled block means is G0 = block / b
    a = np.array([gamma_e, 1.0])
    Sigma_E = g1_zz * np.outer(a, a) + np.diag([sigma_e2, 0.0])
    Sigma_B = (block / b - Sigma_E) / t

    # At the MLE each stratum's quadratic form is twice its record count, and
    # |G0| = sigma_be2 g0_zz, |Sigma_E| = sigma_e2 g1_zz: the joint likelihood
    # is the covariate marginal times the conditional.
    c = t * (np.log(2 * np.pi) + 1)
    ll_z = float(-0.5 * b * (c + np.log(g0_zz) + (t - 1) * np.log(g1_zz)))
    ll = ll_z - float(0.5 * b * (c + np.log(sigma_be2) + (t - 1) * np.log(sigma_e2)))

    mu_y = tab.ybar_i - gamma_e * (tab.zbar_i - tab.zbar)
    return JointRcbFit(
        gamma_be_hat=gamma_be,
        gamma_e_hat=gamma_e,
        sigma_be2=sigma_be2,
        sigma_e2=sigma_e2,
        t=t,
        b=b,
        treatments=tab.treatments,
        zbar_i=tab.zbar_i,
        zbar=tab.zbar,
        szz_within=float(resid[1, 1]),
        loglik=ll,
        loglik_z=ll_z,
        params=BivariateParams(mu_y=mu_y, mu_z=tab.zbar, Sigma_B=Sigma_B, Sigma_E=Sigma_E),
    )


@dataclass
class BlockConditionalFit(OrthogonalConditionalFit):
    """Random-blocks conditional fit on a (possibly incomplete) block design:
    the recipe fit with block-model names, for the two-slope model or the
    single-slope model with ``gamma_b`` at 0.  ``effects`` are the
    sum-to-zero treatment effects, with their covariance and standard
    errors."""

    gamma_e: float
    gamma_b: float  # zero for the naive single-slope model
    model: str  # "conditional" or "naive"
    effects: np.ndarray = field(init=False)
    effect_cov: np.ndarray = field(init=False)
    effect_se: np.ndarray = field(init=False)

    def __post_init__(self):
        t = len(self.treatments)
        L = np.eye(t) - np.full((t, t), 1.0 / t)
        cov = L @ self.lmm_fit.beta_cov[:t, :t] @ L.T
        self.effects = L @ self.lmm_fit.beta_hat[:t]
        self.effect_cov = 0.5 * (cov + cov.T)
        self.effect_se = np.sqrt(np.diag(self.effect_cov))

    @property
    def sigma_e2(self) -> float:
        return self.lmm_fit.sigma_e2

    @property
    def sigma_b2(self) -> float:
        return float(self.lmm_fit.sigma2[0])

    @property
    def rho(self) -> float:
        """Fitted block correlation of a treatment mean,
        ``sigma_b2 / (sigma_b2 + sigma_e2 / t)``."""
        return self.sigma_b2 / (self.sigma_b2 + self.sigma_e2 / len(self.treatments))


def _block_fit(ds, spec, block_means, method, tol, max_iter) -> BlockConditionalFit:
    """The random-blocks conditional fit with or without the block-mean
    regressor; any recipe with one blocking factor, ``custom`` included."""
    if spec.m != 1:
        raise ValidationError("block-design fitters need exactly one covariate")
    if len(spec.blocking_factors) != 1:
        raise ValidationError("block-design fitters need one blocking factor")
    recipe = _block_recipe(spec, block_means)
    f = fit_orthogonal_conditional(recipe, ds, method, tol=tol, max_iter=max_iter)
    cov_name = ds.covariate_names[0]
    return BlockConditionalFit(
        **vars(f),
        gamma_e=f.slopes[cov_name],
        gamma_b=f.slopes.get(f"mean({cov_name}|{spec.blocking_factors[0]})", 0.0),
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


def fit_mixed_rcb(
    ds: Dataset,
    spec: DesignSpec,
    method: str = "ml",
    tol: float = 1e-10,
    max_iter: int = 500,
) -> BlockConditionalFit:
    """Naive univariate mixed fit: random blocks, one covariate slope.

    Variance components, the slope (``gamma_e``), and the treatment means
    are estimated jointly by (RE)ML; the adjusted means carry their plug-in
    GLS standard errors, and ``rho`` is the fitted block correlation of a
    treatment mean.  The same fit as :func:`fit_naive_block_mixed`, ML by
    default.
    """
    return _block_fit(ds, spec, False, method, tol, max_iter)


def direct_treatment_effects(
    fit, covariate_treatment_means, within_group_sd: float
) -> np.ndarray:
    """Treatment effects when the treatments also move the covariate.

    ``fit`` is any fit with sum-to-zero ``effects`` (a fixed-blocks or a
    random-blocks fit).  Covariate-adjusted effects already measure the
    direct effect on the response (net of the route through the covariate),
    so they are returned unchanged.  Comparing treatments at a common
    covariate value is suspect when their covariate means sit far apart, so
    a spread beyond two within-group standard deviations raises a warning.
    """
    effects = np.asarray(fit.effects, dtype=float)
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
