import numpy as np
import pytest

import vcadjust as v
from vcadjust.errors import SingularityError, ValidationError
from vcadjust.rcb_classical import _rcb_sscp, rcb_arrays

from conftest import interior_bivariate_params


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
        for fitter in (v.fit_fixed_rcb, v.fit_bivariate_rcb_ml, v.intra_inter_decompose):
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
        ds = _dataset_from_matrices(Y_TOY, Z_TOY)
        fit = v.fit_fixed_rcb(ds, SPEC)
        assert np.isclose(fit.gamma_ols, 2.0)  # doubly-centered slope by hand
        zbar_i, zbar = Z_TOY.mean(axis=1), Z_TOY.mean()
        expected = Y_TOY.mean(axis=1) - 2.0 * (zbar_i - zbar)
        assert np.allclose(fit.adjusted_means, expected)
        assert np.isclose(fit.tau_hat.sum(), 0.0)
        assert np.isclose(fit.beta_hat_blocks.sum(), 0.0)

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
        if fit.sigma_b2_hat < 1e-8:
            pooled = v.gamma_mixed(Z, Y, 0.0)
            assert np.isclose(fit.gamma_mixed, pooled, atol=1e-6)
            base = np.sqrt(fit.sigma_e2_hat / 12)
            assert np.all(fit.adjusted_se >= base - 1e-12)
        # direct GLS oracle at the fitted components
        t, b = Y.shape
        X = np.column_stack([np.kron(np.eye(t), np.ones((b, 1))), Z.ravel()])
        W = np.kron(np.ones((t, 1)), np.eye(b))
        V = fit.sigma_e2_hat * np.eye(t * b) + fit.sigma_b2_hat * (W @ W.T)
        Vi = np.linalg.inv(V)
        beta = np.linalg.solve(X.T @ Vi @ X, X.T @ Vi @ Y.ravel())
        assert np.isclose(fit.gamma_mixed, beta[t], atol=1e-8)

    def test_adjusted_means_have_covariance_form(self, rcb_dataset):
        ds, spec = rcb_dataset
        fit = v.fit_mixed_rcb(ds, spec, method="ml")
        Y, Z, _, _ = rcb_arrays(ds, spec)
        expected = Y.mean(axis=1) - fit.gamma_mixed * (Z.mean(axis=1) - Z.mean())
        assert np.allclose(fit.adjusted_means, expected, atol=1e-8)

    def test_adjusted_se_matches_dense_quadratic_form(self, rcb_dataset):
        # rebuild the variance display with explicit dense matrices
        ds, spec = rcb_dataset
        mx = v.fit_mixed_rcb(ds, spec, method="ml")
        Y, Z, _, _ = rcb_arrays(ds, spec)
        t, b = Y.shape
        M = np.kron(
            np.eye(t) - mx.rho_hat * np.full((t, t), 1.0 / t),
            v.centering_matrix(b),
        )
        z = Z.ravel()
        Sig = mx.sigma_e2_hat * np.eye(t * b) + mx.sigma_b2_hat * np.kron(
            np.ones((t, t)), np.eye(b)
        )
        den = z @ M @ z
        quad = z @ M @ Sig @ M @ z
        var = (mx.sigma_e2_hat + mx.sigma_b2_hat) / b + quad / den**2 * (
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
        assert abs(f1.gamma_mixed - f2.gamma_mixed) > 1e-4

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


class TestStratumSscp:
    @pytest.mark.parametrize("t,b", [(2, 2), (2, 7), (6, 2), (3, 4), (5, 9), (8, 3)])
    def test_matches_dense_quadratic_forms(self, t, b):
        rng = np.random.default_rng(10 * t + b)
        Y = 4.0 + rng.normal(size=(t, b)) + rng.normal(size=(1, b))
        Z = -2.0 + 3.0 * rng.normal(size=(t, b)) + rng.normal(size=(t, 1))
        D = np.column_stack([Y.ravel(), Z.ravel()])  # treatment-major vec
        Jt = np.full((t, t), 1.0 / t)
        Ct, Cb = v.centering_matrix(t), v.centering_matrix(b)
        strata = (np.kron(Jt, Cb), np.kron(Ct, Cb), np.kron(Ct, np.eye(b)))
        scale = float(np.sum(D * D))
        for got, P in zip(_rcb_sscp(Y, Z), strata, strict=True):
            assert got.shape == (2, 2)
            np.testing.assert_allclose(got, D.T @ P @ D, rtol=1e-12, atol=1e-13 * scale)


class TestIntraInter:
    def test_slopes_reproduce_both_regressions(self, rcb_dataset):
        ds, spec = rcb_dataset
        dec = v.intra_inter_decompose(ds, spec)
        fx = v.fit_fixed_rcb(ds, spec)
        hf, _, _ = v.fit_bivariate_rcb_ml(ds, spec)
        assert np.isclose(dec.intra_slope, fx.gamma_ols, atol=1e-10)
        assert np.isclose(dec.inter_slope, hf.gamma_be_hat, atol=1e-10)

    def test_equal_block_means_flagged(self):
        rng = np.random.default_rng(6)
        t, b = 4, 5
        Z = rng.normal(size=(t, b))
        Z = Z - Z.mean(axis=0, keepdims=True) + 3.0  # same mean in every block
        Y = rng.normal(size=(t, b))
        dec = v.intra_inter_decompose(_dataset_from_matrices(Y, Z), SPEC)
        assert not dec.inter_defined
        assert np.isnan(dec.inter_slope)

    def test_treatment_permutation_invariance(self, rcb_dataset):
        ds, spec = rcb_dataset
        dec1 = v.intra_inter_decompose(ds, spec)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n_records)
        ds2 = v.Dataset(
            factors={k: val[perm] for k, val in ds.factors.items()},
            response=ds.response[perm],
            covariates=ds.covariates[perm],
            covariate_names=ds.covariate_names,
            levels={},
        )
        dec2 = v.intra_inter_decompose(ds2, spec)
        assert np.isclose(dec1.intra_slope, dec2.intra_slope)
        assert np.isclose(dec1.inter_slope, dec2.inter_slope)
