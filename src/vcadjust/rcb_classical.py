"""Classical estimators for the randomized complete blocks design.

Two conventional fits for a complete-blocks experiment with one covariate:
the fixed-blocks least-squares fit, and the naive univariate mixed fit that
treats block effects as random but keeps a single covariate slope.  Both
report treatment means adjusted to the grand covariate mean, with plug-in
standard errors.  The mixed fit is the conditional builder of
:mod:`.orthogonal_conditional` with the block-mean regressor left out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, DesignSpec, treatment_labels
from .design_algebra import centering_matrix, helmert_matrix
from .errors import SingularityError, ValidationError
from .lmm import LmmFit
from .orthogonal_conditional import _fit_block_design


def rcb_arrays(ds: Dataset, spec: DesignSpec):
    """Response and covariate as (t, b) arrays for a complete RCB, m = 1.

    Rows are treatments (label-sorted), columns blocks (label-sorted);
    raises if any cell is missing or duplicated.
    """
    if spec.m != 1:
        raise ValidationError("classical RCB estimators need exactly one covariate")
    if len(spec.blocking_factors) != 1:
        raise ValidationError("classical RCB estimators need one blocking factor")
    mask = ds.complete_mask
    sub = ds.subset(mask)
    labels, codes = treatment_labels(sub, spec)
    bfac = spec.blocking_factors[0]
    blocks = list(sub.factor_levels(bfac))
    bindex = {l: i for i, l in enumerate(blocks)}
    bcodes = np.array([bindex[v] for v in sub.factors[bfac]])
    t, b = len(labels), len(blocks)
    Y = np.full((t, b), np.nan)
    Z = np.full((t, b), np.nan)
    for r in range(sub.n_records):
        i, j = codes[r], bcodes[r]
        if not np.isnan(Y[i, j]):
            raise ValidationError(
                f"duplicate cell for treatment {labels[i]!r}, block {blocks[j]!r}"
            )
        Y[i, j] = sub.response[r]
        Z[i, j] = sub.covariates[r, 0]
    if np.isnan(Y).any():
        i, j = np.argwhere(np.isnan(Y))[0]
        raise ValidationError(
            f"incomplete layout: treatment {labels[i]!r} missing in block "
            f"{blocks[j]!r} (use the general engine for unbalanced data)"
        )
    return Y, Z, labels, blocks


def _quad(Z: np.ndarray, M_t: np.ndarray, M_b: np.ndarray, Y: np.ndarray) -> float:
    """``vec(Z)' (M_t kron M_b) vec(Y)`` for treatment-major vec."""
    return float(np.sum(Z * (M_t @ Y @ M_b)))


@dataclass
class FixedFitRCB:
    mu_hat: float
    tau_hat: np.ndarray
    beta_hat_blocks: np.ndarray
    gamma_ols: float
    sigma_e2_hat: float
    adjusted_means: np.ndarray
    adjusted_se: np.ndarray
    treatments: tuple[str, ...]
    blocks: tuple[str, ...]
    szz_within: float  # z'(C_t kron C_b)z


@dataclass
class MixedFitRCB:
    mu_hat: float
    tau_hat: np.ndarray
    gamma_mixed: float
    sigma_e2_hat: float
    sigma_b2_hat: float
    rho_hat: float
    adjusted_means: np.ndarray
    adjusted_se: np.ndarray
    treatments: tuple[str, ...]
    loglik: float
    method: str
    lmm_fit: LmmFit


def fit_fixed_rcb(ds: Dataset, spec: DesignSpec, divisor: str = "ml") -> FixedFitRCB:
    """Fixed-blocks analysis of covariance on a complete RCB.

    The slope is the doubly-centered least-squares regression; standard
    errors use the residual variance with the ML divisor n (or the unbiased
    divisor n - t - b when ``divisor='unbiased'``).
    """
    Y, Z, labels, blocks = rcb_arrays(ds, spec)
    t, b = Y.shape
    Ct, Cb = centering_matrix(t), centering_matrix(b)
    szz = _quad(Z, Ct, Cb, Z)
    if szz <= 1e-12 * max(float(np.sum(Z * Z)), 1.0):
        raise SingularityError(
            "covariate has no within-treatment-within-block variation; "
            "the regression is singular"
        )
    szy = _quad(Z, Ct, Cb, Y)
    syy = _quad(Y, Ct, Cb, Y)
    gamma = szy / szz
    zbar_i, ybar_i = Z.mean(axis=1), Y.mean(axis=1)
    zbar_j, ybar_j = Z.mean(axis=0), Y.mean(axis=0)
    zbar, ybar = float(Z.mean()), float(Y.mean())
    rss = syy - gamma * szy
    n = t * b
    if divisor == "ml":
        s2 = rss / n
    elif divisor == "unbiased":
        s2 = rss / (n - t - b)
    else:
        raise ValidationError(f"divisor must be 'ml' or 'unbiased', got {divisor!r}")
    adj = ybar_i - gamma * (zbar_i - zbar)
    se = np.sqrt(s2 / b + s2 * (zbar_i - zbar) ** 2 / szz)
    return FixedFitRCB(
        mu_hat=ybar - gamma * zbar,
        tau_hat=(ybar_i - ybar) - gamma * (zbar_i - zbar),
        beta_hat_blocks=(ybar_j - ybar) - gamma * (zbar_j - zbar),
        gamma_ols=float(gamma),
        sigma_e2_hat=float(s2),
        adjusted_means=adj,
        adjusted_se=se,
        treatments=tuple(labels),
        blocks=tuple(blocks),
        szz_within=szz,
    )


def gamma_mixed(Z: np.ndarray, Y: np.ndarray, rho: float) -> float:
    """GLS covariate slope at block correlation ``rho``, complete RCB.

    ``Z`` and ``Y`` are (t, b) arrays.  At rho = 1 this is the
    doubly-centered least-squares slope; at rho = 0 it is the pooled slope
    of the model with block effects omitted.
    """
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Z.shape != Y.shape or Z.ndim != 2:
        raise ValidationError("Z and Y must be (t, b) arrays of equal shape")
    if not 0.0 <= rho <= 1.0:
        raise ValidationError(f"rho must lie in [0, 1], got {rho}")
    t, b = Z.shape
    M = np.eye(t) - rho * np.full((t, t), 1.0 / t)
    Cb = centering_matrix(b)
    den = _quad(Z, M, Cb, Z)
    if den <= 1e-12 * max(float(np.sum(Z * Z)), 1.0):
        raise SingularityError("zero denominator in the GLS slope")
    return _quad(Z, M, Cb, Y) / den


def fit_mixed_rcb(
    ds: Dataset,
    spec: DesignSpec,
    method: str = "ml",
    tol: float = 1e-10,
    max_iter: int = 500,
) -> MixedFitRCB:
    """Naive univariate mixed fit: random blocks, one covariate slope.

    Variance components, the slope, and the treatment means are estimated
    jointly by (RE)ML; the adjusted means carry their plug-in GLS standard
    errors.  ``rho_hat`` is the fitted block correlation of a treatment
    mean, ``sigma_b2 / (sigma_b2 + sigma_e2 / t)``.
    """
    f = _fit_block_design(ds, spec, False, method, tol, max_iter)
    t = len(f.treatments)
    s2e, s2b = f.lmm_fit.sigma_e2, float(f.lmm_fit.sigma2[0])
    adj = f.adjusted_means
    return MixedFitRCB(
        mu_hat=float(np.mean(f.lmm_fit.beta_hat[:t])),
        tau_hat=adj - np.mean(adj),
        gamma_mixed=f.slopes[ds.covariate_names[0]],
        sigma_e2_hat=s2e,
        sigma_b2_hat=s2b,
        rho_hat=float(s2b / (s2b + s2e / t)),
        adjusted_means=adj,
        adjusted_se=f.adjusted_se,
        treatments=f.treatments,
        loglik=f.loglik,
        method=method,
        lmm_fit=f.lmm_fit,
    )


@dataclass
class IntraInterDecomposition:
    """Within-block contrast pairs and block-mean pairs, with their slopes."""

    intra_y: np.ndarray  # (t-1, b) contrast-transformed responses
    intra_z: np.ndarray
    inter_y: np.ndarray  # (b,) block means
    inter_z: np.ndarray
    intra_slope: float
    inter_slope: float  # NaN when the block means carry no variation
    inter_defined: bool


def intra_inter_decompose(ds: Dataset, spec: DesignSpec) -> IntraInterDecomposition:
    """Split a complete RCB into contrast-space and block-mean regressions.

    The contrast rows are the orthonormal within-block contrasts of each
    block's observation vector; regressing their responses on their
    covariates (centered per contrast) reproduces the fixed-blocks slope,
    while the block-mean regression gives the inter-block slope.
    """
    Y, Z, _labels, _blocks = rcb_arrays(ds, spec)
    t, b = Y.shape
    H = helmert_matrix(t)
    Ys = H.T @ Y
    Zs = H.T @ Z
    intra_y, intra_z = Ys[1:], Zs[1:]
    zc = intra_z - intra_z.mean(axis=1, keepdims=True)
    den = float(np.sum(zc * zc))
    if den <= 1e-12 * max(float(np.sum(Z * Z)), 1.0):
        raise SingularityError("no within-block covariate variation")
    intra_slope = float(np.sum(zc * intra_y)) / den

    inter_y, inter_z = Y.mean(axis=0), Z.mean(axis=0)
    zd = inter_z - inter_z.mean()
    inter_den = float(np.sum(zd * zd))
    defined = inter_den > 1e-12 * max(float(np.sum(inter_z**2)), 1.0)
    inter_slope = float(np.sum(zd * inter_y) / inter_den) if defined else float("nan")
    return IntraInterDecomposition(
        intra_y=intra_y,
        intra_z=intra_z,
        inter_y=inter_y,
        inter_z=inter_z,
        intra_slope=intra_slope,
        inter_slope=inter_slope,
        inter_defined=bool(defined),
    )
