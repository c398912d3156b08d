import warnings

import numpy as np
import pytest

import vcadjust as v
from vcadjust.errors import ValidationError

from conftest import bias_demo_params, interior_bivariate_params


def _iid_params(t):
    return v.BivariateParams(
        mu_y=np.zeros(t), mu_z=0.0, Sigma_B=np.eye(2), Sigma_E=np.eye(2)
    )


class TestGenerator:
    def test_pooled_moments_match_marginals(self):
        t, b, reps = 4, 5, 60
        cfg = v.SimConfig(t=t, b=b, params=_iid_params(t), replicates=reps, seed=2)
        ys, zs = [], []
        for ds in v.gen_bivariate_rcb(cfg):
            ys.append(ds.response)
            zs.append(ds.covariates[:, 0])
        ys, zs = np.concatenate(ys), np.concatenate(zs)
        n = len(ys)
        tol = 4.0 / np.sqrt(n) * np.sqrt(2.0)  # marginal sd is sqrt(2)
        assert abs(ys.mean()) < tol
        assert abs(zs.mean()) < tol
        assert abs(ys.var() - 2.0) < 6.0 / np.sqrt(n) * 2.0
        assert abs(zs.var() - 2.0) < 6.0 / np.sqrt(n) * 2.0

    def test_identical_seed_identical_bytes(self):
        cfg = v.SimConfig(t=3, b=4, params=_iid_params(3), replicates=2, seed=77)
        a = v.gen_bivariate_rcb(cfg)
        b_ = v.gen_bivariate_rcb(cfg)
        for d1, d2 in zip(a, b_):
            assert d1.response.tobytes() == d2.response.tobytes()
            assert d1.covariates.tobytes() == d2.covariates.tobytes()

    def test_replicate_streams_are_order_independent(self):
        cfg_all = v.SimConfig(t=3, b=4, params=_iid_params(3), replicates=5, seed=5)
        full = v.gen_bivariate_rcb(cfg_all)
        cfg_three = v.SimConfig(t=3, b=4, params=_iid_params(3), replicates=3, seed=5)
        partial = v.gen_bivariate_rcb(cfg_three)
        assert full[2].response.tobytes() == partial[2].response.tobytes()

    def test_zero_block_variance_block_mean_spread(self):
        t, b, reps = 5, 6, 400
        params = v.BivariateParams(
            mu_y=np.zeros(t),
            mu_z=0.0,
            Sigma_B=np.zeros((2, 2)),
            Sigma_E=np.diag([1.0, 1.0]),
        )
        cfg = v.SimConfig(t=t, b=b, params=params, replicates=reps, seed=8)
        block_means = []
        for ds in v.gen_bivariate_rcb(cfg):
            Z = ds.covariates[:, 0].reshape(t, b)
            block_means.append(Z.mean(axis=0))
        bm = np.concatenate(block_means)
        # var of a block mean is sigma_ez^2 / t
        assert abs(bm.var() - 1.0 / t) < 6.0 * (1.0 / t) / np.sqrt(len(bm) / 2)

    def test_non_psd_block_covariance_rejected(self):
        with pytest.raises(ValidationError):
            v.SimConfig(
                t=3,
                b=4,
                params=v.BivariateParams(
                    mu_y=np.zeros(3),
                    mu_z=0.0,
                    Sigma_B=np.array([[1.0, 2.0], [2.0, 1.0]]),
                    Sigma_E=np.eye(2),
                ),
                replicates=1,
                seed=0,
            )


class TestBiasStudy:
    def test_requires_conditioning(self):
        cfg = v.SimConfig(t=3, b=4, params=_iid_params(3), replicates=10, seed=0)
        with pytest.raises(ValidationError):
            v.bias_study(cfg)

    @pytest.mark.parametrize("t, b, replicates, field", [
        (3, 3, 1, "replicates"), (1, 3, 10, "t"), (3, 1, 10, "b"),
    ])
    def test_too_few_replicates_treatments_or_blocks_refused(self, t, b, replicates, field):
        # one replicate leaves no Monte Carlo SE, one treatment or one block an
        # empty stratum; the config itself stays valid, since generation needs it
        cfg = v.SimConfig(t=t, b=b, params=_iid_params(t), replicates=replicates, seed=0,
                          condition_on_z=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"needs {field} of at least 2; got 1"):
                v.bias_study(cfg)

    def test_null_case_all_unbiased(self):
        # no block covariate variance: both estimators hit the cell slope
        t = 6
        params = v.BivariateParams(
            mu_y=10.0 + np.arange(t, dtype=float),
            mu_z=8.0,
            Sigma_B=np.array([[4.0, 0.0], [0.0, 0.0]]),
            Sigma_E=np.array([[2.0, 0.6], [0.6, 0.8]]),
        )
        cfg = v.SimConfig(
            t=t, b=4, params=params, replicates=600, seed=31, condition_on_z=True
        )
        res = v.bias_study(cfg)
        assert np.isclose(res.mixing_value, res.gamma_e)
        assert res.row("gamma_e_bivariate").flag == "ok"
        assert res.row("gamma_mixed_vs_gamma_e").flag == "ok"

    def test_block_slope_gap_biases_single_slope_estimator(self):
        params = bias_demo_params(6)
        cfg = v.SimConfig(
            t=6, b=4, params=params, replicates=600, seed=13, condition_on_z=True
        )
        res = v.bias_study(cfg)
        assert res.gamma_be - res.gamma_e > 1.0  # the slopes sit far apart
        naive = res.row("gamma_mixed_vs_gamma_e")
        assert naive.flag == "biased"
        # pulled toward the block-mean slope
        assert np.sign(naive.bias) == np.sign(res.gamma_be - res.gamma_e)
        assert res.row("gamma_e_bivariate").flag == "ok"
        # and the mixing formula predicts where the naive estimate sits
        assert res.row("gamma_mixed").flag == "ok"

    def test_adjusted_mean_rows_present_and_consistent(self):
        params = interior_bivariate_params(4)
        cfg = v.SimConfig(
            t=4, b=4, params=params, replicates=300, seed=3, condition_on_z=True
        )
        res = v.bias_study(cfg)
        names = {r.estimator for r in res.rows}
        for lab in ("T01", "T02", "T03", "T04"):
            assert f"adjmean_bivariate:{lab}" in names
            assert f"adjmean_mixed:{lab}" in names
        for lab in ("T01", "T02", "T03", "T04"):
            assert res.row(f"adjmean_bivariate:{lab}").flag == "ok"

    def test_sampling_sd_shrinks_with_blocks(self):
        params = interior_bivariate_params(4)
        sds = {}
        for b in (4, 16):
            cfg = v.SimConfig(
                t=4, b=b, params=params, replicates=400, seed=9, condition_on_z=True
            )
            res = v.bias_study(cfg)
            sds[b] = res.row("gamma_e_bivariate").mc_se * np.sqrt(400)
        ratio = sds[16] / sds[4]
        assert 0.3 < ratio < 0.7  # roughly 1/sqrt(4)

    def test_naive_estimator_converges_to_mixing_value_not_slope(self):
        params = bias_demo_params(4)
        cfg = v.SimConfig(
            t=4, b=64, params=params, replicates=400, seed=21, condition_on_z=True
        )
        res = v.bias_study(cfg)
        naive = res.row("gamma_mixed")
        assert naive.flag == "ok"  # sits on the mixing value
        off = res.row("gamma_mixed_vs_gamma_e")
        assert abs(off.bias) > 5.0 * off.mc_se  # and away from the cell slope
