"""Classical estimators for the randomized complete blocks design.

Two conventional fits for a complete-blocks experiment with one covariate:
the fixed-blocks least-squares fit, and the naive univariate mixed fit that
treats block effects as random but keeps a single covariate slope.  Both
report treatment means adjusted to the grand covariate mean, with plug-in
standard errors.  The mixed fit is the package's one random-blocks fit,
:func:`.bivariate_rcb.fit_naive_block_mixed` with an ML default, and
returns its :class:`~.bivariate_rcb.BlockConditionalFit`.

Every complete-RCB closed form here and in :mod:`.bivariate_rcb` comes from
the stratum sums of squares and products of :func:`_rcb_sscp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data_model import Dataset, DesignSpec, group_codes
from .design_algebra import helmert_matrix
from .errors import SingularityError, ValidationError

if TYPE_CHECKING:
    from .bivariate_rcb import BlockConditionalFit


def rcb_cells(ds: Dataset, spec: DesignSpec):
    """Complete records of a one-blocking-factor layout, their treatment and
    block labels (label-sorted), each record's treatment-major cell index
    in the t x b table, and the number of records in each cell."""
    sub = ds.subset(ds.complete_mask)
    if sub.n_records == 0:
        raise ValidationError("no complete cells")
    labels, codes = group_codes(sub, spec.treatment_factors)
    blocks, bcodes = group_codes(sub, spec.blocking_factors)
    cell = codes * len(blocks) + bcodes
    return sub, labels, blocks, cell, np.bincount(cell, minlength=len(labels) * len(blocks))


def rcb_arrays(ds: Dataset, spec: DesignSpec):
    """Response and covariate as (t, b) arrays for a complete RCB, m = 1.

    Rows are treatments (label-sorted), columns blocks (label-sorted);
    raises if any cell is duplicated or missing, naming the first such cell
    in treatment-then-block order.
    """
    if spec.m != 1:
        raise ValidationError("classical RCB estimators need exactly one covariate")
    if len(spec.blocking_factors) != 1:
        raise ValidationError("classical RCB estimators need one blocking factor")
    sub, labels, blocks, cell, counts = rcb_cells(ds, spec)
    t, b = len(labels), len(blocks)
    dup, gap = np.flatnonzero(counts > 1), np.flatnonzero(counts == 0)
    if dup.size:
        i, j = divmod(int(dup[0]), b)
        raise ValidationError(f"duplicate cell for treatment {labels[i]!r}, block {blocks[j]!r}")
    if gap.size:
        i, j = divmod(int(gap[0]), b)
        raise ValidationError(
            f"incomplete layout: treatment {labels[i]!r} missing in block "
            f"{blocks[j]!r} (use the general engine for unbalanced data)"
        )
    Y, Z = np.empty(t * b), np.empty(t * b)
    Y[cell], Z[cell] = sub.response, sub.covariates[:, 0]
    return Y.reshape(t, b), Z.reshape(t, b), labels, blocks


def _rcb_sscp(Y: np.ndarray, Z: np.ndarray):
    """Block, residual and within-block 2x2 SSCPs of (y, z) on a complete RCB.

    ``Y`` and ``Z`` are (t, b) arrays.  The three forms are
    ``vec(.)' P vec(.)`` for P = J_t/t (x) C_b (block stratum),
    C_t (x) C_b (residual stratum) and C_t (x) I_b (within blocks, treatment
    means not swept), each built from row, column and grand means.
    """
    D = np.stack([Y, Z])
    col = D.mean(axis=1, keepdims=True)
    grand = D.mean(axis=(1, 2), keepdims=True)
    block = np.broadcast_to(col - grand, D.shape)
    resid = D - D.mean(axis=2, keepdims=True) - col + grand
    return tuple(np.einsum("itb,jtb->ij", R, R) for R in (block, resid, D - col))


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


def fit_fixed_rcb(ds: Dataset, spec: DesignSpec, divisor: str = "ml") -> FixedFitRCB:
    """Fixed-blocks analysis of covariance on a complete RCB.

    The slope is the doubly-centered least-squares regression; standard
    errors use the residual variance with the ML divisor n (or the unbiased
    divisor n - t - b when ``divisor='unbiased'``).
    """
    Y, Z, labels, blocks = rcb_arrays(ds, spec)
    t, b = Y.shape
    resid = _rcb_sscp(Y, Z)[1]
    syy, szy, szz = resid[0, 0], resid[0, 1], resid[1, 1]
    if szz <= 1e-12 * max(float(np.sum(Z * Z)), 1.0):
        raise SingularityError(
            "covariate has no within-treatment-within-block variation; "
            "the regression is singular"
        )
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
        szz_within=float(szz),
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
    # (I_t - rho J_t/t) (x) C_b is the residual plus (1 - rho) times the block stratum
    block, resid, _ = _rcb_sscp(Y, Z)
    S = resid + (1.0 - rho) * block
    if S[1, 1] <= 1e-12 * max(float(np.sum(Z * Z)), 1.0):
        raise SingularityError("zero denominator in the GLS slope")
    return float(S[0, 1] / S[1, 1])


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
    treatment mean.  The same fit as
    :func:`.bivariate_rcb.fit_naive_block_mixed`, ML by default.
    """
    from .bivariate_rcb import _block_fit  # bivariate_rcb imports this module

    return _block_fit(ds, spec, False, method, tol, max_iter)


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

    The intra-block slope is the residual-stratum regression (the
    fixed-blocks slope), the inter-block slope the block-stratum regression
    of block means.  The contrast rows returned are the orthonormal
    within-block contrasts of each block's observation vector.
    """
    Y, Z, _labels, _blocks = rcb_arrays(ds, spec)
    t = Y.shape[0]
    block, resid, _ = _rcb_sscp(Y, Z)
    if resid[1, 1] <= 1e-12 * max(float(np.sum(Z * Z)), 1.0):
        raise SingularityError("no within-block covariate variation")
    intra_slope = float(resid[0, 1] / resid[1, 1])

    inter_y, inter_z = Y.mean(axis=0), Z.mean(axis=0)
    # the block stratum sums t copies of each block-mean deviation
    defined = block[1, 1] / t > 1e-12 * max(float(np.sum(inter_z**2)), 1.0)
    inter_slope = float(block[0, 1] / block[1, 1]) if defined else float("nan")
    H = helmert_matrix(t)[:, 1:]
    return IntraInterDecomposition(
        intra_y=H.T @ Y,
        intra_z=H.T @ Z,
        inter_y=inter_y,
        inter_z=inter_z,
        intra_slope=intra_slope,
        inter_slope=inter_slope,
        inter_defined=bool(defined),
    )
