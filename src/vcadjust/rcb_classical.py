"""Classical estimators for the randomized complete blocks design.

The fixed-blocks analysis of covariance of a complete-blocks experiment
with one covariate (:func:`fit_fixed_rcb`), which reports treatment means
adjusted to the grand covariate mean with plug-in standard errors at the
ML residual variance, and the single-slope GLS slope at a given block
correlation (:func:`gamma_mixed`).
The random-blocks fits, the naive single-slope one included, live in
:mod:`.bivariate_rcb`.

Every complete-RCB closed form here and in :mod:`.bivariate_rcb` reads one
stratum table, :func:`_rcb_table`: the t x b arrays, the block, residual
and within-block sums of squares and products of :func:`_rcb_sscp`, the
treatment and grand means, and one singularity test.  Its cells are the
complete records of :func:`.data_model.complete_records`, in canonical
order, placed in the t x b table by their labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, DesignSpec, complete_records, group_codes
from .errors import SingularityError, ValidationError


def rcb_cells(ds: Dataset, spec: DesignSpec):
    """Complete records of a one-blocking-factor layout in canonical order,
    their treatment and block labels (label-sorted), each record's
    treatment-major cell index in the t x b table, and the number of
    records in each cell."""
    sub, labels, codes = complete_records(ds, spec.treatment_factors)
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


@dataclass(frozen=True)
class _RcbTable:
    """A complete RCB as every closed form reads it: the (t, b) arrays and
    their labels, the block, residual and within-block SSCPs of
    :func:`_rcb_sscp`, and the treatment and grand means."""

    Y: np.ndarray
    Z: np.ndarray
    treatments: tuple[str, ...]
    blocks: tuple[str, ...]
    block: np.ndarray
    resid: np.ndarray
    within: np.ndarray
    ybar_i: np.ndarray
    zbar_i: np.ndarray
    zbar: float

    def require(self, szz: float, message: str) -> None:
        """Raise ``SingularityError(message)`` unless the covariate sum of
        squares ``szz`` exceeds 1e-12 max(sum z^2, 1)."""
        if szz <= 1e-12 * max(float(np.sum(self.Z * self.Z)), 1.0):
            raise SingularityError(message)


def _rcb_table(Y: np.ndarray, Z: np.ndarray, treatments=(), blocks=()) -> _RcbTable:
    """The stratum table of (t, b) arrays, e.g. ``_rcb_table(*rcb_arrays(ds, spec))``."""
    return _RcbTable(
        Y, Z, tuple(treatments), tuple(blocks), *_rcb_sscp(Y, Z),
        ybar_i=Y.mean(axis=1), zbar_i=Z.mean(axis=1), zbar=float(Z.mean()),
    )


@dataclass
class FixedFitRCB:
    effects: np.ndarray  # sum-to-zero treatment effects
    gamma_ols: float
    sigma_e2_hat: float
    loglik: float  # maximized log-likelihood, at the ML variance
    adjusted_means: np.ndarray
    adjusted_se: np.ndarray
    treatments: tuple[str, ...]
    blocks: tuple[str, ...]


def fit_fixed_rcb(ds: Dataset, spec: DesignSpec) -> FixedFitRCB:
    """Fixed-blocks analysis of covariance on a complete RCB.

    The slope is the doubly-centered least-squares regression; standard
    errors use the ML residual variance, divisor n, and ``loglik`` is the
    Gaussian log-likelihood at that variance.  A layout with no residual
    degrees of freedom after the slope (a 2 x 2 one) is refused.
    """
    tab = _rcb_table(*rcb_arrays(ds, spec))
    syy, szy, szz = tab.resid[0, 0], tab.resid[0, 1], tab.resid[1, 1]
    tab.require(
        szz,
        "covariate has no within-treatment-within-block variation; "
        "the regression is singular",
    )
    t, b = tab.Y.shape
    n, df = t * b, (t - 1) * (b - 1) - 1  # residual df left after the slope
    if df < 1:
        raise SingularityError(
            f"no residual degrees of freedom after the slope ({t} treatments, "
            f"{b} blocks); the residual variance is inestimable"
        )
    gamma = szy / szz
    rss = syy - gamma * szy
    s2 = rss / n
    with np.errstate(divide="ignore"):  # an exact fit, rss = 0, has loglik inf
        loglik = float(-0.5 * n * (np.log(2 * np.pi) + np.log(s2) + 1.0))
    dz = tab.zbar_i - tab.zbar
    return FixedFitRCB(
        effects=(tab.ybar_i - float(tab.Y.mean())) - gamma * dz,
        gamma_ols=float(gamma),
        sigma_e2_hat=float(s2),
        loglik=loglik,
        adjusted_means=tab.ybar_i - gamma * dz,
        adjusted_se=np.sqrt(s2 / b + s2 * dz**2 / szz),
        treatments=tab.treatments,
        blocks=tab.blocks,
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
    tab = _rcb_table(Y, Z)
    S = tab.resid + (1.0 - rho) * tab.block
    tab.require(S[1, 1], "zero denominator in the GLS slope")
    return float(S[0, 1] / S[1, 1])
