import numpy as np
import pytest

import vcadjust as v
from vcadjust.errors import SingularityError, ValidationError
from vcadjust.rcb_classical import _rcb_sscp, rcb_arrays

from conftest import interior_bivariate_params
from oracle_utils import centering_matrix


def _dataset_from_matrices(Y, Z):
    t, b = Y.shape
    treats = [f"T{i + 1:02d}" for i in range(t)]
    blocks = [f"B{j + 1:02d}" for j in range(b)]
    return v.Dataset(
        factors={
            "treatment": np.repeat(treats, b),
            "block": np.tile(blocks, t),
        },
        response=Y.ravel(),
        covariates=Z.ravel().reshape(-1, 1),
        covariate_names=("z",),
        levels={},
    )


SPEC = v.DesignSpec(
    response="y",
    treatment_factors=("treatment",),
    blocking_factors=("block",),
    covariates=("z",),
    recipe="rcb",
)

# hand-computable 2x2 toy: eight numbers, slopes worked out on paper
Z_TOY = np.array([[1.0, 2.0], [3.0, 5.0]])
Y_TOY = np.array([[2.0, 5.0], [4.0, 9.0]])


class TestFixedFit:
    def test_y_equals_z_collapses(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(4, 3)) + 8.0
        ds = _dataset_from_matrices(Z.copy(), Z)
        spec = v.DesignSpec(
            response="y",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=("z",),
            recipe="rcb",
        )
        fit = v.fit_fixed_rcb(ds, spec)
        assert np.isclose(fit.gamma_ols, 1.0)
        assert np.allclose(fit.adjusted_means, Z.mean())

    def test_no_complete_cells_is_an_input_error(self):
        ds = _dataset_from_matrices(np.full((3, 4), np.nan), np.full((3, 4), np.nan))
        for fitter in (v.fit_fixed_rcb, v.fit_bivariate_rcb_ml):
            with pytest.raises(ValidationError, match="no complete cells"):
                fitter(ds, SPEC)

    def test_constant_covariate_rejected(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(3, 4))
        Z = np.full((3, 4), 2.0)
        ds = _dataset_from_matrices(Y, Z)
        with pytest.raises(SingularityError):
            v.fit_fixed_rcb(ds, SPEC)

    def test_toy_slope_and_means(self):
        # the 2x2 toy plus a third block whose treatment difference in z is
        # the toy's mean difference: the slope stays at 2 and one residual
        # df is left after it
        Y = np.column_stack([Y_TOY, [7.0, 8.0]])
        Z = np.column_stack([Z_TOY, [4.0, 6.5]])
        fit = v.fit_fixed_rcb(_dataset_from_matrices(Y, Z), SPEC)
        assert np.isclose(fit.gamma_ols, 2.0)  # doubly-centered slope by hand
        zbar_i, zbar = Z.mean(axis=1), Z.mean()
        expected = Y.mean(axis=1) - 2.0 * (zbar_i - zbar)
        assert np.allclose(fit.adjusted_means, expected)
        assert np.isclose(fit.effects.sum(), 0.0)

    def test_no_residual_df_after_the_slope_is_singular(self):
        # 2 x 2: (t-1)(b-1) - 1 = 0, so neither divisor leaves a variance
        ds = _dataset_from_matrices(Y_TOY, Z_TOY)
        for divisor in ("ml", "unbiased"):
            with pytest.raises(SingularityError, match="no residual degrees of freedom"):
                v.fit_fixed_rcb(ds, SPEC, divisor=divisor)

    def test_loglik_is_the_dense_least_squares_maximum(self, rcb_dataset):
        ds, spec = rcb_dataset
        Y, Z, _, _ = rcb_arrays(ds, spec)
        t, b = Y.shape
        n = t * b
        X = np.column_stack([
            np.kron(np.eye(t), np.ones((b, 1))),
            np.kron(np.ones((t, 1)), np.eye(b))[:, 1:],
            Z.ravel(),
        ])
        r = Y.ravel() - X @ np.linalg.lstsq(X, Y.ravel(), rcond=None)[0]
        expected = -0.5 * n * (np.log(2 * np.pi) + np.log(r @ r / n) + 1.0)
        for divisor in ("ml", "unbiased"):
            fit = v.fit_fixed_rcb(ds, spec, divisor=divisor)
            assert np.isclose(fit.loglik, expected, rtol=1e-10, atol=0.0)

    def test_block_centering_invariance(self, rcb_dataset):
        ds, spec = rcb_dataset
        Y, Z, _, _ = rcb_arrays(ds, spec)
        Zc = Z - Z.mean(axis=0, keepdims=True)
        f1 = v.fit_fixed_rcb(ds, spec)
        f2 = v.fit_fixed_rcb(_dataset_from_matrices(Y, Zc), SPEC)
        assert np.isclose(f1.gamma_ols, f2.gamma_ols)
        assert np.allclose(f1.adjusted_means, f2.adjusted_means)
        assert np.allclose(f1.adjusted_se, f2.adjusted_se)

    def test_unbiased_divisor_option(self, rcb_dataset):
        ds, spec = rcb_dataset
        f_ml = v.fit_fixed_rcb(ds, spec, divisor="ml")
        f_ub = v.fit_fixed_rcb(ds, spec, divisor="unbiased")
        t, b = 6, 8
        assert np.isclose(
            f_ub.sigma_e2_hat, f_ml.sigma_e2_hat * (t * b) / (t * b - t - b)
        )


class TestGammaMixed:
    def test_endpoints_and_midpoint_by_hand(self):
        assert np.isclose(v.gamma_mixed(Z_TOY, Y_TOY, 1.0), 2.0)
        assert np.isclose(v.gamma_mixed(Z_TOY, Y_TOY, 0.0), 2.6)
        assert np.isclose(v.gamma_mixed(Z_TOY, Y_TOY, 0.5), 28.0 / 11.0)

    def test_rho_zero_is_pooled_no_blocks_slope(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(5, 4))
        Y = 2.0 * Z + rng.normal(size=(5, 4))
        zc = Z - Z.mean(axis=1, keepdims=True)
        yc = Y - Y.mean(axis=1, keepdims=True)
        pooled = np.sum(zc * yc) / np.sum(zc * zc)
        assert np.isclose(v.gamma_mixed(Z, Y, 0.0), pooled)

    def test_rho_one_is_fixed_ols(self, rcb_dataset):
        ds, spec = rcb_dataset
        Y, Z, _, _ = rcb_arrays(ds, spec)
        assert np.isclose(v.gamma_mixed(Z, Y, 1.0), v.fit_fixed_rcb(ds, spec).gamma_ols)

    def test_continuity_in_rho(self, rcb_dataset):
        ds, spec = rcb_dataset
        Y, Z, _, _ = rcb_arrays(ds, spec)
        rhos = np.linspace(0.0, 1.0, 201)
        vals = np.array([v.gamma_mixed(Z, Y, r) for r in rhos])
        # no jumps: successive differences shrink with the grid
        assert np.max(np.abs(np.diff(vals))) < 0.05 * (np.max(vals) - np.min(vals) + 1e-12)

    def test_zero_denominator_rejected(self):
        Z = np.full((3, 4), 1.0)
        Y = np.arange(12.0).reshape(3, 4)
        with pytest.raises(SingularityError):
            v.gamma_mixed(Z, Y, 0.5)


class TestMixedFit:
    def test_no_block_effect_matches_gls_oracle(self):
        # generate with zero block covariance: the mixed slope collapses to
        # the pooled slope and the block-sampling variance term drops
        params = v.BivariateParams(
            mu_y=np.array([10.0, 12.0, 14.0, 9.0]),
            mu_z=8.0,
            Sigma_B=np.zeros((2, 2)),
            Sigma_E=np.array([[2.0, 0.6], [0.6, 0.8]]),
        )
        cfg = v.SimConfig(t=4, b=12, params=params, replicates=1, seed=7)
        ds = v.gen_bivariate_rcb(cfg)[0]
        fit = v.fit_mixed_rcb(ds, cfg.design_spec, method="ml")
        Y, Z, _, _ = rcb_arrays(ds, cfg.design_spec)
        if fit.sigma_b2 < 1e-8:
            pooled = v.gamma_mixed(Z, Y, 0.0)
            assert np.isclose(fit.gamma_e, pooled, atol=1e-6)
            base = np.sqrt(fit.sigma_e2 / 12)
            assert np.all(fit.adjusted_se >= base - 1e-12)
        # direct GLS oracle at the fitted components
        t, b = Y.shape
        X = np.column_stack([np.kron(np.eye(t), np.ones((b, 1))), Z.ravel()])
        W = np.kron(np.ones((t, 1)), np.eye(b))
        V = fit.sigma_e2 * np.eye(t * b) + fit.sigma_b2 * (W @ W.T)
        Vi = np.linalg.inv(V)
        beta = np.linalg.solve(X.T @ Vi @ X, X.T @ Vi @ Y.ravel())
        assert np.isclose(fit.gamma_e, beta[t], atol=1e-8)

    def test_adjusted_means_have_covariance_form(self, rcb_dataset):
        ds, spec = rcb_dataset
        fit = v.fit_mixed_rcb(ds, spec, method="ml")
        Y, Z, _, _ = rcb_arrays(ds, spec)
        expected = Y.mean(axis=1) - fit.gamma_e * (Z.mean(axis=1) - Z.mean())
        assert np.allclose(fit.adjusted_means, expected, atol=1e-8)

    def test_adjusted_se_matches_dense_quadratic_form(self, rcb_dataset):
        # rebuild the variance display with explicit dense matrices
        ds, spec = rcb_dataset
        mx = v.fit_mixed_rcb(ds, spec, method="ml")
        Y, Z, _, _ = rcb_arrays(ds, spec)
        t, b = Y.shape
        M = np.kron(
            np.eye(t) - mx.rho * np.full((t, t), 1.0 / t),
            centering_matrix(b),
        )
        z = Z.ravel()
        Sig = mx.sigma_e2 * np.eye(t * b) + mx.sigma_b2 * np.kron(
            np.ones((t, t)), np.eye(b)
        )
        den = z @ M @ z
        quad = z @ M @ Sig @ M @ z
        var = (mx.sigma_e2 + mx.sigma_b2) / b + quad / den**2 * (
            Z.mean(axis=1) - Z.mean()
        ) ** 2
        assert np.max(np.abs(np.sqrt(var) - mx.adjusted_se)) < 1e-12

    def test_block_centering_changes_mixed_fit(self):
        params = interior_bivariate_params(5)
        cfg = v.SimConfig(t=5, b=6, params=params, replicates=1, seed=3)
        ds = v.gen_bivariate_rcb(cfg)[0]
        spec = cfg.design_spec
        Y, Z, _, _ = rcb_arrays(ds, spec)
        Zc = Z - Z.mean(axis=0, keepdims=True)
        f1 = v.fit_mixed_rcb(ds, spec, method="ml")
        f2 = v.fit_mixed_rcb(_dataset_from_matrices(Y, Zc), SPEC, method="ml")
        assert abs(f1.gamma_e - f2.gamma_e) > 1e-4

    def test_ols_slope_independent_of_unadjusted_means(self):
        # conditional on one covariate draw, the doubly-centered slope is
        # uncorrelated with every raw treatment mean
        params = interior_bivariate_params(6)
        cfg = v.SimConfig(
            t=6, b=4, params=params, replicates=500, seed=11, condition_on_z=True
        )
        reps = v.gen_bivariate_rcb(cfg)
        slopes = np.empty(len(reps))
        means = np.empty((len(reps), 6))
        for k, ds in enumerate(reps):
            Y, Z, _, _ = rcb_arrays(ds, cfg.design_spec)
            slopes[k] = v.gamma_mixed(Z, Y, 1.0)
            means[k] = Y.mean(axis=1)
        for i in range(6):
            r = np.corrcoef(slopes, means[:, i])[0, 1]
            assert abs(r) < 4.0 / np.sqrt(len(reps))


class TestRcbArrays:
    """Each layout error names the first offending cell in treatment-then-block
    order, whatever the record order."""

    def test_duplicate_cell_named(self):
        rng = np.random.default_rng(2)
        ds = _dataset_from_matrices(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
        extra = [1 * 4 + 0, 0 * 4 + 1]  # (T02, B01), then (T01, B02)
        ds = v.Dataset(
            factors={k: np.concatenate([f, f[extra]]) for k, f in ds.factors.items()},
            response=np.concatenate([ds.response, ds.response[extra]]),
            covariates=np.vstack([ds.covariates, ds.covariates[extra]]),
            covariate_names=ds.covariate_names,
            levels={},
        )
        with pytest.raises(ValidationError) as err:
            rcb_arrays(ds, SPEC)
        assert str(err.value) == "duplicate cell for treatment 'T01', block 'B02'"

    def test_missing_cell_named(self):
        rng = np.random.default_rng(3)
        Y, Z = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        Y[1, 0] = Z[1, 0] = Y[0, 2] = Z[0, 2] = np.nan
        with pytest.raises(ValidationError) as err:
            rcb_arrays(_dataset_from_matrices(Y, Z), SPEC)
        assert str(err.value) == (
            "incomplete layout: treatment 'T01' missing in block 'B03' "
            "(use the general engine for unbalanced data)"
        )


class TestStratumSscp:
    @pytest.mark.parametrize("t,b", [(2, 2), (2, 7), (6, 2), (3, 4), (5, 9), (8, 3)])
    def test_matches_dense_quadratic_forms(self, t, b):
        rng = np.random.default_rng(10 * t + b)
        Y = 4.0 + rng.normal(size=(t, b)) + rng.normal(size=(1, b))
        Z = -2.0 + 3.0 * rng.normal(size=(t, b)) + rng.normal(size=(t, 1))
        D = np.column_stack([Y.ravel(), Z.ravel()])  # treatment-major vec
        Jt = np.full((t, t), 1.0 / t)
        Ct, Cb = centering_matrix(t), centering_matrix(b)
        strata = (np.kron(Jt, Cb), np.kron(Ct, Cb), np.kron(Ct, np.eye(b)))
        scale = float(np.sum(D * D))
        for got, P in zip(_rcb_sscp(Y, Z), strata, strict=True):
            assert got.shape == (2, 2)
            np.testing.assert_allclose(got, D.T @ P @ D, rtol=1e-12, atol=1e-13 * scale)


class TestIntraInter:
    """The within-block (intra) and block-mean (inter) slopes, as the fixed
    and joint fits report them."""

    def test_slopes_reproduce_both_regressions(self, rcb_dataset):
        ds, spec = rcb_dataset
        Y, Z, _, _ = rcb_arrays(ds, spec)
        fx = v.fit_fixed_rcb(ds, spec)
        hf, _, _ = v.fit_bivariate_rcb_ml(ds, spec)
        assert fx.gamma_ols == hf.gamma_e_hat
        # dense regressions: doubly-centered cells, then centered block means
        Zc = Z - Z.mean(axis=1, keepdims=True) - Z.mean(axis=0) + Z.mean()
        Yc = Y - Y.mean(axis=1, keepdims=True) - Y.mean(axis=0) + Y.mean()
        zb, yb = Z.mean(axis=0) - Z.mean(), Y.mean(axis=0) - Y.mean()
        assert np.isclose(fx.gamma_ols, np.sum(Zc * Yc) / np.sum(Zc * Zc), atol=1e-10)
        assert np.isclose(hf.gamma_be_hat, zb @ yb / (zb @ zb), atol=1e-10)

    def test_equal_block_means_flagged(self):
        rng = np.random.default_rng(6)
        t, b = 4, 5
        Z = rng.normal(size=(t, b))
        Z = Z - Z.mean(axis=0, keepdims=True) + 3.0  # same mean in every block
        Y = rng.normal(size=(t, b))
        with pytest.raises(SingularityError, match="block-mean covariate carries no variation"):
            v.fit_bivariate_rcb_ml(_dataset_from_matrices(Y, Z), SPEC)

    def test_treatment_permutation_invariance(self, rcb_dataset):
        ds, spec = rcb_dataset
        fx1, (hf1, _, _) = v.fit_fixed_rcb(ds, spec), v.fit_bivariate_rcb_ml(ds, spec)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n_records)
        ds2 = v.Dataset(
            factors={k: val[perm] for k, val in ds.factors.items()},
            response=ds.response[perm],
            covariates=ds.covariates[perm],
            covariate_names=ds.covariate_names,
            levels={},
        )
        fx2, (hf2, _, _) = v.fit_fixed_rcb(ds2, spec), v.fit_bivariate_rcb_ml(ds2, spec)
        assert np.isclose(fx1.gamma_ols, fx2.gamma_ols)
        assert np.isclose(hf1.gamma_be_hat, hf2.gamma_be_hat)
