"""Seeded generators and the naive-estimator bias study.

Replicates draw from counter-based random streams keyed by (seed,
replicate), so parallel generation order cannot change the numbers.  The
bias study conditions on a single covariate draw and compares the two-slope
and single-slope estimators against their analytic conditional targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bivariate_rcb import BivariateParams, conditional_from_bivariate
from .data_model import Dataset, DesignSpec
from .errors import ValidationError
from .rcb_classical import _rcb_sscp, gamma_mixed


def _stream(seed: int, rep: int) -> np.random.Generator:
    """Independent counter-based stream for one replicate."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(rep)])
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    """Complete-blocks generator settings.

    ``condition_on_z`` reuses one covariate draw across replicates and
    samples the response from the implied conditional model; otherwise each
    replicate draws the joint model afresh.  ``tau_z`` adds per-treatment
    covariate offsets for the treatments-affect-covariates variant.
    """

    t: int
    b: int
    params: BivariateParams
    replicates: int = 1
    seed: int = 0
    condition_on_z: bool = False
    tau_z: np.ndarray | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if len(self.params.mu_y) != self.t:
            raise ValidationError("params.mu_y length must equal t")
        for name in ("Sigma_B",):
            if np.linalg.eigvalsh(getattr(self.params, name)).min() < -1e-12:
                raise ValidationError(f"{name} must be positive semidefinite")
        if self.tau_z is not None:
            tz = np.asarray(self.tau_z, dtype=float)
            if tz.shape != (self.t,):
                raise ValidationError("tau_z must have one entry per treatment")
            object.__setattr__(self, "tau_z", tz)

    @property
    def design_spec(self) -> DesignSpec:
        return DesignSpec(
            response="y",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=("z",),
            recipe="rcb",
            treatments_affect_covariates=self.tau_z is not None,
        )


def _labels(t: int, b: int):
    treats = [f"T{i + 1:02d}" for i in range(t)]
    blocks = [f"B{j + 1:02d}" for j in range(b)]
    return treats, blocks


def _to_dataset(cfg: SimConfig, Y: np.ndarray, Z: np.ndarray) -> Dataset:
    treats, blocks = _labels(cfg.t, cfg.b)
    tcol = np.repeat(treats, cfg.b)
    bcol = np.tile(blocks, cfg.t)
    return Dataset(
        factors={"treatment": tcol, "block": bcol},
        response=Y.ravel(),
        covariates=Z.ravel().reshape(-1, 1),
        covariate_names=("z",),
        levels={},
    )


def _draw_z(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    p = cfg.params
    Bz = rng.normal(size=cfg.b) * np.sqrt(max(p.Sigma_B[1, 1], 0.0))
    Ez = rng.normal(size=(cfg.t, cfg.b)) * np.sqrt(p.Sigma_E[1, 1])
    Z = p.mu_z + Bz[None, :] + Ez
    if cfg.tau_z is not None:
        Z = Z + cfg.tau_z[:, None]
    return Z


def _draw_joint(cfg: SimConfig, rng: np.random.Generator):
    """One joint draw of (Y, Z) from the block model."""
    p = cfg.params
    B = rng.multivariate_normal(np.zeros(2), p.Sigma_B, size=cfg.b)  # (b, 2)
    E = rng.multivariate_normal(np.zeros(2), p.Sigma_E, size=(cfg.t, cfg.b))
    Y = p.mu_y[:, None] + B[:, 0][None, :] + E[:, :, 0]
    Z = p.mu_z + B[:, 1][None, :] + E[:, :, 1]
    if cfg.tau_z is not None:
        Z = Z + cfg.tau_z[:, None]
    return Y, Z


def _draw_y_given_z(cfg: SimConfig, Z: np.ndarray, rng: np.random.Generator):
    """Response draw from the implied conditional model at fixed Z."""
    p = cfg.params
    cond = conditional_from_bivariate(p, cfg.t)
    if cond.sigma_b2 < 0:
        raise ValidationError(
            "generating parameters imply a negative conditional block variance"
        )
    tau_z = cfg.tau_z if cfg.tau_z is not None else np.zeros(cfg.t)
    ez = p.mu_z + tau_z[:, None]  # marginal covariate means per cell
    zbar_j_dev = (Z - ez).mean(axis=0)
    mean = (
        p.mu_y[:, None]
        + cond.gamma_e * (Z - ez)
        + cond.gamma_b * zbar_j_dev[None, :]
    )
    B = rng.normal(size=cfg.b) * np.sqrt(max(cond.sigma_b2, 0.0))
    E = rng.normal(size=(cfg.t, cfg.b)) * np.sqrt(cond.sigma_e2)
    return mean + B[None, :] + E


def gen_bivariate_rcb(cfg: SimConfig) -> list[Dataset]:
    """Generate ``cfg.replicates`` complete-blocks datasets.

    Identical configs give byte-identical outputs.  Conditioned runs share
    the covariate drawn from stream (seed, 0); replicate k always uses
    stream (seed, k+1).
    """
    out = []
    Z_fixed = _draw_z(cfg, _stream(cfg.seed, 0)) if cfg.condition_on_z else None
    for k in range(cfg.replicates):
        rng = _stream(cfg.seed, k + 1)
        if cfg.condition_on_z:
            Y = _draw_y_given_z(cfg, Z_fixed, rng)
            Z = Z_fixed
        else:
            Y, Z = _draw_joint(cfg, rng)
        out.append(_to_dataset(cfg, Y, Z))
    return out


@dataclass
class StudyRow:
    estimator: str
    target: float
    mc_mean: float
    mc_se: float

    @property
    def bias(self) -> float:
        return self.mc_mean - self.target

    @property
    def flag(self) -> str:
        return "biased" if abs(self.bias) > 3.0 * self.mc_se else "ok"


@dataclass
class BiasStudyResult:
    rows: list[StudyRow]
    gamma_e: float
    gamma_be: float
    rho: float
    mixing_value: float  # conditional expectation of the single-slope estimate
    replicates: int

    def row(self, estimator: str) -> StudyRow:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)


def bias_study(cfg: SimConfig) -> BiasStudyResult:
    """Conditional Monte Carlo comparison of the slope estimators.

    Holding one covariate draw fixed, the two-slope estimate of the
    cell-level slope is conditionally unbiased, while the single-slope
    mixed estimate (evaluated at the true block correlation) pulls toward
    the block-mean slope by the analytic mixing weights.  Adjusted means
    inherit the same comparison.
    """
    if not cfg.condition_on_z:
        raise ValidationError("bias_study requires condition_on_z=True")
    # the two strata need two treatments and two blocks, a Monte Carlo SE two replicates
    for name, value in (("t", cfg.t), ("b", cfg.b), ("replicates", cfg.replicates)):
        if value < 2:
            raise ValidationError(f"bias_study needs {name} of at least 2; got {value}")
    p = cfg.params
    t, b = cfg.t, cfg.b
    cond = conditional_from_bivariate(p, t)
    rho = cond.sigma_b2 / (cond.sigma_b2 + cond.sigma_e2 / t)

    Z = _draw_z(cfg, _stream(cfg.seed, 0))
    # covariate sums of squares of the residual and block strata
    block, resid, _ = _rcb_sscp(Z, Z)
    w_intra, w_inter = float(resid[1, 1]), float(block[1, 1])
    mix = (w_intra * cond.gamma_e + (1 - rho) * w_inter * cond.gamma_be) / (
        w_intra + (1 - rho) * w_inter
    )

    zbar_i = Z.mean(axis=1)
    zbar = float(Z.mean())
    base = p.mu_y + cond.gamma_e * (zbar_i - p.mu_z) + cond.gamma_b * (zbar - p.mu_z)
    target_adj_biv = base - cond.gamma_e * (zbar_i - zbar)
    target_adj_mix = base - mix * (zbar_i - zbar)

    ge_vals = np.empty(cfg.replicates)
    gm_vals = np.empty(cfg.replicates)
    adj_biv = np.empty((cfg.replicates, t))
    adj_mix = np.empty((cfg.replicates, t))
    for k in range(cfg.replicates):
        rng = _stream(cfg.seed, k + 1)
        Y = _draw_y_given_z(cfg, Z, rng)
        ge = gamma_mixed(Z, Y, 1.0)
        gm = gamma_mixed(Z, Y, rho)
        ge_vals[k], gm_vals[k] = ge, gm
        ybar_i = Y.mean(axis=1)
        adj_biv[k] = ybar_i - ge * (zbar_i - zbar)
        adj_mix[k] = ybar_i - gm * (zbar_i - zbar)

    def _row(name, vals, target):
        return StudyRow(
            estimator=name,
            target=float(target),
            mc_mean=float(np.mean(vals)),
            mc_se=float(np.std(vals, ddof=1) / np.sqrt(len(vals))),
        )

    rows = [
        _row("gamma_e_bivariate", ge_vals, cond.gamma_e),
        _row("gamma_mixed", gm_vals, mix),
        _row("gamma_mixed_vs_gamma_e", gm_vals, cond.gamma_e),
    ]
    treats, _ = _labels(t, b)
    for i, lab in enumerate(treats):
        rows.append(_row(f"adjmean_bivariate:{lab}", adj_biv[:, i], target_adj_biv[i]))
        rows.append(_row(f"adjmean_mixed:{lab}", adj_mix[:, i], target_adj_mix[i]))
    return BiasStudyResult(
        rows=rows,
        gamma_e=cond.gamma_e,
        gamma_be=cond.gamma_be,
        rho=float(rho),
        mixing_value=float(mix),
        replicates=cfg.replicates,
    )
