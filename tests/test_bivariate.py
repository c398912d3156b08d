from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcadjust as v
from vcadjust.bivariate_rcb import HiddenExtrapolationWarning
from vcadjust.errors import SingularityError, ValidationError
from vcadjust.mvc_em import MVCParams, make_model, observed_loglik
from vcadjust.orthogonal_conditional import OrthogonalConditionalFit
from vcadjust.rcb_classical import rcb_arrays

from conftest import interior_bivariate_params
from oracle_utils import centering_matrix, helmert_matrix

GOLDEN = Path(__file__).parent / "fixtures" / "golden_cli"


def _rand_pd(rng, scale=1.0):
    A = rng.normal(size=(2, 2))
    return scale * (A @ A.T / 2 + 0.4 * np.eye(2))


class TestConditionalFromBivariate:
    def test_zero_block_covariance_collapses(self):
        p = v.BivariateParams(
            mu_y=np.array([10.0, 12.0]),
            mu_z=3.0,
            Sigma_B=np.zeros((2, 2)),
            Sigma_E=np.array([[2.0, 0.6], [0.6, 0.8]]),
        )
        cond = v.conditional_from_bivariate(p, t=2)
        assert cond.gamma_b == 0.0
        assert np.isclose(cond.gamma_be, cond.gamma_e)
        assert np.isclose(cond.sigma_b2, 0.0)

    def test_hand_computed_slopes(self):
        # se_yz=0, sb_z2=0, t=4, sb_yz=2, se_z2=1: cell slope 0, block slope 8
        p = v.BivariateParams(
            mu_y=np.zeros(4),
            mu_z=0.0,
            Sigma_B=np.array([[5.0, 2.0], [2.0, 0.0]]),
            Sigma_E=np.array([[3.0, 0.0], [0.0, 1.0]]),
        )
        cond = v.conditional_from_bivariate(p, t=4)
        assert np.isclose(cond.gamma_e, 0.0)
        assert np.isclose(cond.gamma_b, 8.0)

    def test_dense_conditional_oracle(self):
        rng = np.random.default_rng(14)
        for t in (2, 4, 7):
            SE = _rand_pd(rng)
            SB = _rand_pd(rng, 0.8)
            p = v.BivariateParams(
                mu_y=np.zeros(t), mu_z=0.0, Sigma_B=SB, Sigma_E=SE
            )
            cond = v.conditional_from_bivariate(p, t)
            I, J = np.eye(t), np.ones((t, t))
            Vyy = SE[0, 0] * I + SB[0, 0] * J
            Vyz = SE[0, 1] * I + SB[0, 1] * J
            Vzz = SE[1, 1] * I + SB[1, 1] * J
            dense = Vyy - Vyz @ np.linalg.solve(Vzz, Vyz)
            stated = cond.sigma_e2 * I + cond.sigma_b2 * J
            assert np.max(np.abs(dense - stated)) <= 1e-10
            # the conditional-mean map matches dense conditioning too
            dense_map = Vyz @ np.linalg.inv(Vzz)
            stated_map = cond.gamma_e * I + (cond.gamma_b / t) * J
            assert np.max(np.abs(dense_map - stated_map)) <= 1e-10

    def test_gamma_b_zero_iff_numerator_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            SE = _rand_pd(rng)
            SB = _rand_pd(rng)
            p = v.BivariateParams(mu_y=np.zeros(3), mu_z=0.0, Sigma_B=SB, Sigma_E=SE)
            cond = v.conditional_from_bivariate(p, 3)
            num = SE[1, 1] * SB[0, 1] - SE[0, 1] * SB[1, 1]
            assert (abs(cond.gamma_b) < 1e-12) == (abs(num) < 1e-12)

    def test_zero_residual_covariate_variance_rejected(self):
        with pytest.raises(ValidationError):
            v.BivariateParams(
                mu_y=np.zeros(2),
                mu_z=0.0,
                Sigma_B=np.eye(2),
                Sigma_E=np.array([[1.0, 0.0], [0.0, 0.0]]),
            )


class TestClosedFormML:
    def test_cell_slope_equals_fixed_ols(self, rcb_dataset):
        ds, spec = rcb_dataset
        hf = v.fit_bivariate_rcb_ml(ds, spec)
        assert np.isclose(hf.gamma_e_hat, v.fit_fixed_rcb(ds, spec).gamma_ols, atol=1e-12)

    def test_mu_z_is_grand_mean(self, rcb_dataset):
        ds, spec = rcb_dataset
        hf = v.fit_bivariate_rcb_ml(ds, spec)
        bp = hf.params
        assert np.isclose(bp.mu_z, np.mean(ds.covariates[:, 0]), atol=1e-12)
        assert bp.mu_z == hf.zbar

    def test_adjusted_means_equal_fixed_ols_means(self):
        params = interior_bivariate_params(5)
        for seed in range(10):
            cfg = v.SimConfig(t=5, b=6, params=params, replicates=1, seed=seed)
            ds = v.gen_bivariate_rcb(cfg)[0]
            hf = v.fit_bivariate_rcb_ml(ds, cfg.design_spec)
            means = hf.adjusted_means
            fixed = v.fit_fixed_rcb(ds, cfg.design_spec).adjusted_means
            assert np.max(np.abs(means - fixed)) <= 1e-10

    def test_simulation_consistency(self):
        # estimator means across replicates sit near truth at b = 50
        params = interior_bivariate_params(3)
        truth = v.conditional_from_bivariate(params, 3)
        reps = 40
        cfg = v.SimConfig(t=3, b=50, params=params, replicates=reps, seed=19)
        ge, gbe, muz, sez2 = [], [], [], []
        for ds in v.gen_bivariate_rcb(cfg):
            hf = v.fit_bivariate_rcb_ml(ds, cfg.design_spec)
            bp = hf.params
            ge.append(hf.gamma_e_hat)
            gbe.append(hf.gamma_be_hat)
            muz.append(bp.mu_z)
            sez2.append(bp.Sigma_E[1, 1])
        for vals, target in (
            (ge, truth.gamma_e),
            (gbe, truth.gamma_be),
            (muz, params.mu_z),
            (sez2, params.Sigma_E[1, 1]),
        ):
            vals = np.asarray(vals)
            se = vals.std(ddof=1) / np.sqrt(reps)
            assert abs(vals.mean() - target) < 3.5 * se + 1e-3

    def test_single_block_rejected(self):
        params = interior_bivariate_params(4)
        cfg = v.SimConfig(t=4, b=1, params=params, replicates=1, seed=0)
        ds = v.gen_bivariate_rcb(cfg)[0]
        with pytest.raises((ValidationError, SingularityError)):
            v.fit_bivariate_rcb_ml(ds, cfg.design_spec)

    def test_degenerate_contrast_variance_rejected(self):
        t, b = 3, 4
        Z = np.tile(np.linspace(1, 2, b), (t, 1))  # no within-block variation
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(t, b))
        ds = v.Dataset(
            factors={
                "treatment": np.repeat([f"T{i}" for i in range(t)], b),
                "block": np.tile([f"B{j}" for j in range(b)], t),
            },
            response=Y.ravel(),
            covariates=Z.ravel().reshape(-1, 1),
            covariate_names=("z",),
            levels={},
        )
        spec = v.DesignSpec(
            response="y",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=("z",),
            recipe="rcb",
        )
        with pytest.raises(SingularityError):
            v.fit_bivariate_rcb_ml(ds, spec)

    def test_indefinite_block_covariance_flagged_not_projected(self):
        params = v.BivariateParams(
            mu_y=10.0 + 2.0 * np.arange(6.0),
            mu_z=8.0,
            Sigma_B=np.array([[4.0, 1.5], [1.5, 1.0]]),
            Sigma_E=np.array([[2.0, 0.6], [0.6, 0.8]]),
        )
        cfg = v.SimConfig(t=6, b=4, params=params, replicates=1, seed=42)
        ds = v.gen_bivariate_rcb(cfg)[0]
        bp = v.fit_bivariate_rcb_ml(ds, cfg.design_spec).params
        assert not bp.sigma_b_psd  # reported as-is, with the flag

    def test_conditional_params_round_trip_the_strata(self):
        # the CLI prints the stratum values; mapped into Sigma_E/Sigma_B and
        # back through conditional_from_bivariate they come out unchanged
        spec = v.load_design_spec(str(GOLDEN / "rcb.json"))
        cases = [(v.load_dataset(str(GOLDEN / "rcb.csv"), spec), spec)]
        for seed in range(50):
            rng = np.random.default_rng(seed)
            t, b = int(rng.integers(2, 8)), int(rng.integers(3, 12))
            cfg = v.SimConfig(t=t, b=b, params=interior_bivariate_params(t), seed=seed)
            cases.append((v.gen_bivariate_rcb(cfg)[0], cfg.design_spec))
        for ds, spec in cases:
            hf = v.fit_bivariate_rcb_ml(ds, spec)
            cond = v.conditional_from_bivariate(hf.params, hf.t)
            for got, want in (
                (cond.gamma_e, hf.gamma_e_hat),
                (cond.gamma_b, hf.gamma_be_hat - hf.gamma_e_hat),
                (cond.sigma_e2, hf.sigma_e2),
                (cond.sigma_b2, hf.sigma_b2),
            ):
                assert np.isclose(got, want, rtol=1e-12, atol=0.0), (got, want)

    def test_helmert_pieces_are_independent(self):
        # empirical cross-covariance between contrast pairs with different
        # row index vanishes within Monte Carlo error
        params = interior_bivariate_params(4)
        t, b = 4, 3000
        cfg = v.SimConfig(t=t, b=b, params=params, replicates=1, seed=23)
        ds = v.gen_bivariate_rcb(cfg)[0]
        Y, Z, _, _ = rcb_arrays(ds, cfg.design_spec)
        H = helmert_matrix(t)
        Ys, Zs = H.T @ Y, H.T @ Z
        pieces = [np.vstack([Ys[i], Zs[i]]) for i in range(t)]
        # variance scale of a sample covariance over b blocks
        for i in range(t):
            for j in range(i + 1, t):
                for a in range(2):
                    for c in range(2):
                        x = pieces[i][a] - pieces[i][a].mean()
                        w = pieces[j][c] - pieces[j][c].mean()
                        cov = np.mean(x * w)
                        bound = 5.0 * np.sqrt(np.mean(x**2) * np.mean(w**2) / b)
                        assert abs(cov) < bound

    @pytest.mark.parametrize("seed,t,b", [(0, 2, 3), (1, 3, 4), (2, 4, 6), (3, 6, 5), (4, 5, 12)])
    def test_loglik_equals_stacked_density(self, seed, t, b):
        cfg = v.SimConfig(t=t, b=b, params=interior_bivariate_params(t), seed=seed)
        ds = v.gen_bivariate_rcb(cfg)[0]
        hf = v.fit_bivariate_rcb_ml(ds, cfg.design_spec)
        params = hf.params
        assert params.sigma_b_psd
        sd = v.build_stacked(ds, cfg.design_spec)
        assert sd.treatments == hf.treatments
        beta = np.zeros(sd.X.shape[1])
        beta[sd.treat_cols] = params.mu_y
        beta[sd.cov_mean_cols["z"]] = params.mu_z
        at_fit = MVCParams(beta=beta, sigma2=np.zeros(0), Sigmas=(params.Sigma_E, params.Sigma_B))
        dense = observed_loglik(make_model(sd, at_fit))
        assert abs(hf.loglik - dense) <= 1e-10 * abs(dense)


class TestAdjustedMeansBivariate:
    def test_equal_covariate_means_flatten_se(self):
        rng = np.random.default_rng(8)
        t, b = 4, 6
        Z = rng.normal(size=(t, b))
        Z = Z - Z.mean(axis=1, keepdims=True) + 5.0  # equal treatment means
        Y = 2.0 * Z + rng.normal(size=(t, b)) + np.arange(t)[:, None]
        ds = v.Dataset(
            factors={
                "treatment": np.repeat([f"T{i}" for i in range(t)], b),
                "block": np.tile([f"B{j}" for j in range(b)], t),
            },
            response=Y.ravel(),
            covariates=Z.ravel().reshape(-1, 1),
            covariate_names=("z",),
            levels={},
        )
        spec = v.DesignSpec(
            response="y",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=("z",),
            recipe="rcb",
        )
        hf = v.fit_bivariate_rcb_ml(ds, spec)
        se = hf.adjusted_se
        base = np.sqrt((hf.sigma_e2 + hf.sigma_b2) / b)
        assert np.allclose(se, base, atol=1e-12)

    def test_additive_factor_over_fixed_formula(self, rcb_dataset):
        # at a common residual variance, the variance exceeds the
        # fixed-blocks formula by exactly sigma_b^2 / b for every treatment
        ds, spec = rcb_dataset
        hf = v.fit_bivariate_rcb_ml(ds, spec)
        se = hf.adjusted_se
        eq4_at_same_sigma = (
            hf.sigma_e2 / hf.b
            + hf.sigma_e2 * (hf.zbar_i - hf.zbar) ** 2 / hf.szz_within
        )
        diff = se**2 - eq4_at_same_sigma
        assert np.allclose(diff, hf.sigma_b2 / hf.b, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        c=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        flip=st.booleans(),
    )
    def test_affine_equivariance(self, a, c, flip):
        if flip:
            a = -a
        params = interior_bivariate_params(4)
        cfg = v.SimConfig(t=4, b=5, params=params, replicates=1, seed=2)
        ds = v.gen_bivariate_rcb(cfg)[0]
        spec = cfg.design_spec
        hf1 = v.fit_bivariate_rcb_ml(ds, spec)
        m1, se1 = hf1.adjusted_means, hf1.adjusted_se
        ds2 = v.Dataset(
            factors=dict(ds.factors),
            response=ds.response,
            covariates=a * ds.covariates + c,
            covariate_names=ds.covariate_names,
            levels={},
        )
        hf2 = v.fit_bivariate_rcb_ml(ds2, spec)
        m2, se2 = hf2.adjusted_means, hf2.adjusted_se
        assert np.isclose(hf2.gamma_e_hat, hf1.gamma_e_hat / a, rtol=1e-9)
        assert np.isclose(hf2.gamma_be_hat, hf1.gamma_be_hat / a, rtol=1e-9)
        assert np.max(np.abs(m2 - m1)) <= 1e-10 * max(1.0, np.max(np.abs(m1)))
        assert np.max(np.abs(se2 - se1)) <= 1e-10

    def test_weighted_average_identity(self, rcb_dataset):
        # the precision-weighted blend of the two independent slope
        # estimates reproduces the single-slope GLS form at any rho
        ds, spec = rcb_dataset
        Y, Z, _, _ = rcb_arrays(ds, spec)
        hf = v.fit_bivariate_rcb_ml(ds, spec)
        t, b = Y.shape
        Ct, Cb = centering_matrix(t), centering_matrix(b)
        Jt = np.full((t, t), 1.0 / t)
        w_intra = float(np.sum(Z * (Ct @ Z @ Cb)))
        w_inter = float(np.sum(Z * (Jt @ Z @ Cb)))
        for rho in (0.0, 0.3, 0.7, 0.95):
            blend = (
                w_intra * hf.gamma_e_hat + (1 - rho) * w_inter * hf.gamma_be_hat
            ) / (w_intra + (1 - rho) * w_inter)
            assert np.isclose(blend, v.gamma_mixed(Z, Y, rho), atol=1e-10)


def _bib_dataset(seed=0, sigma_b2=1.0, sigma_e2=0.5, gamma_e=2.0, gamma_b=1.0, tau=None):
    """Balanced incomplete blocks: t=4 treatments, all 6 pairs as blocks."""
    rng = np.random.default_rng(seed)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    blocks = []
    for rep in range(2):  # 12 blocks of size 2
        blocks.extend(pairs)
    tau = np.array([-0.9, -0.3, 0.3, 0.9]) if tau is None else tau
    rows_t, rows_b, ys, zs = [], [], [], []
    for j, pair in enumerate(blocks):
        z = rng.normal(size=2) + 5.0 + rng.normal() * 1.2  # shared block shift
        zbar = z.mean()
        Bj = rng.normal() * np.sqrt(sigma_b2)
        for pos, i in enumerate(pair):
            ys.append(
                10.0 + tau[i] + gamma_e * z[pos] + gamma_b * zbar + Bj
                + rng.normal() * np.sqrt(sigma_e2)
            )
            zs.append(z[pos])
            rows_t.append(f"T{i + 1}")
            rows_b.append(f"B{j + 1:02d}")
    return v.Dataset(
        factors={"shape": np.array(rows_t, dtype=object), "plate": np.array(rows_b, dtype=object)},
        response=np.array(ys),
        covariates=np.array(zs).reshape(-1, 1),
        covariate_names=("z",),
        levels={},
    )


IBD_SPEC = v.DesignSpec(
    response="y",
    treatment_factors=("shape",),
    blocking_factors=("plate",),
    covariates=("z",),
    recipe="incomplete_block",
)


class TestConditionalIbd:
    def test_complete_blocks_match_closed_form(self, rcb_dataset):
        ds, spec = rcb_dataset
        hf = v.fit_bivariate_rcb_ml(ds, spec)
        cond = v.conditional_from_bivariate(hf.params, hf.t)
        ib = v.fit_conditional_ibd(ds, spec, method="ml")
        assert abs(ib.gamma_e - cond.gamma_e) < 1e-6
        assert abs(ib.gamma_b - cond.gamma_b) < 1e-6
        assert abs(ib.loglik - hf.conditional_loglik) < 1e-6
        assert np.max(np.abs(ib.effects - cond.tau)) < 1e-6

    def test_bib_recovers_slopes(self):
        reps = 30
        ge, gb = [], []
        for seed in range(reps):
            ds = _bib_dataset(seed=seed)
            fit = v.fit_conditional_ibd(ds, IBD_SPEC, method="reml")
            ge.append(fit.gamma_e)
            gb.append(fit.gamma_b)
        ge, gb = np.asarray(ge), np.asarray(gb)
        assert abs(ge.mean() - 2.0) < 3.5 * ge.std(ddof=1) / np.sqrt(reps) + 1e-3
        assert abs(gb.mean() - 1.0) < 3.5 * gb.std(ddof=1) / np.sqrt(reps) + 1e-3

    def test_is_the_recipe_fit(self):
        # the two-slope block model is the incomplete_block recipe's fit
        # under block-model names, not a copy of it
        ds = _bib_dataset(seed=5)
        fit = v.fit_conditional_ibd(ds, IBD_SPEC, method="reml")
        recipe_fit = v.fit_orthogonal_conditional(v.recipe_for(IBD_SPEC), ds, method="reml")
        assert isinstance(fit, OrthogonalConditionalFit)
        assert np.array_equal(fit.adjusted_means, recipe_fit.adjusted_means)
        assert np.array_equal(fit.adjusted_se, recipe_fit.adjusted_se)
        assert fit.slopes == recipe_fit.slopes
        assert fit.loglik == recipe_fit.loglik

    def test_effects_sum_to_zero(self):
        ds = _bib_dataset(seed=3)
        fit = v.fit_conditional_ibd(ds, IBD_SPEC, method="reml")
        assert abs(fit.effects.sum()) < 1e-10
        assert fit.effect_cov.shape == (4, 4)

    def test_disconnected_design_rejected(self):
        rows_t = ["T1", "T2", "T1", "T2", "T3", "T4", "T3", "T4"]
        rows_b = ["B1", "B1", "B2", "B2", "B3", "B3", "B4", "B4"]
        rng = np.random.default_rng(0)
        ds = v.Dataset(
            factors={"shape": np.array(rows_t, dtype=object), "plate": np.array(rows_b, dtype=object)},
            response=rng.normal(size=8),
            covariates=rng.normal(size=8).reshape(-1, 1),
            covariate_names=("z",),
            levels={},
        )
        with pytest.raises(SingularityError, match="disconnected"):
            v.fit_conditional_ibd(ds, IBD_SPEC)

    def test_unequal_block_sizes_routed_away(self):
        rows_t = ["T1", "T2", "T3", "T1", "T2"]
        rows_b = ["B1", "B1", "B1", "B2", "B2"]
        rng = np.random.default_rng(0)
        ds = v.Dataset(
            factors={"shape": np.array(rows_t, dtype=object), "plate": np.array(rows_b, dtype=object)},
            response=rng.normal(size=5),
            covariates=rng.normal(size=5).reshape(-1, 1),
            covariate_names=("z",),
            levels={},
        )
        with pytest.raises(ValidationError, match="general engine"):
            v.fit_conditional_ibd(ds, IBD_SPEC)

    def test_equal_block_means_drop_the_block_mean_regressor(self):
        # shift each plate's covariate so every block mean is 5: the
        # block-mean column is constant, so the builder drops it and the
        # two-slope fit becomes the single-slope fit
        ds = _bib_dataset(seed=2)
        z = ds.covariates[:, 0].copy()
        for plate in set(ds.factors["plate"]):
            sel = ds.factors["plate"] == plate
            z[sel] += 5.0 - z[sel].mean()
        ds = v.Dataset(
            factors=dict(ds.factors),
            response=ds.response,
            covariates=z.reshape(-1, 1),
            covariate_names=ds.covariate_names,
            levels={},
        )
        fit = v.fit_conditional_ibd(ds, IBD_SPEC, method="reml")
        naive = v.fit_naive_block_mixed(ds, IBD_SPEC, method="reml")
        assert fit.gamma_b == 0.0
        assert len(fit.lmm_fit.beta_hat) == 5  # four treatments and z
        assert fit.gamma_e == naive.gamma_e
        assert np.array_equal(fit.adjusted_se, naive.adjusted_se)
        orth = v.fit_orthogonal_conditional(v.recipe_for(IBD_SPEC), ds, method="reml")
        assert orth.dropped_regressors == ("mean(z|plate)",)

    def test_naive_mixed_single_slope(self):
        ds = _bib_dataset(seed=5)
        fit = v.fit_naive_block_mixed(ds, IBD_SPEC, method="reml")
        assert fit.gamma_b == 0.0
        assert fit.model == "naive"
        assert abs(fit.effects.sum()) < 1e-10


class TestDirectTreatmentEffects:
    def test_accepts_fixed_and_random_block_fits(self):
        cfg = v.SimConfig(t=4, b=6, params=interior_bivariate_params(4), seed=3)
        ds = v.gen_bivariate_rcb(cfg)[0]
        spec = cfg.design_spec
        zmeans = np.zeros(4)
        for fit in (v.fit_fixed_rcb(ds, spec), v.fit_conditional_ibd(ds, spec, method="reml")):
            out = v.direct_treatment_effects(fit, zmeans, within_group_sd=1.0)
            assert np.array_equal(out, fit.effects)
            assert abs(out.sum()) < 1e-10

    def test_zero_covariate_effects_pass_through(self):
        ds = _bib_dataset(seed=1)
        fit = v.fit_conditional_ibd(ds, IBD_SPEC, method="reml")
        zmeans = np.zeros(4)
        out = v.direct_treatment_effects(fit, zmeans, within_group_sd=1.0)
        assert np.allclose(out, fit.effects)

    def test_warns_on_hidden_extrapolation(self):
        ds = _bib_dataset(seed=1)
        fit = v.fit_conditional_ibd(ds, IBD_SPEC, method="reml")
        zmeans = np.array([0.0, 0.0, 0.0, 10.0])
        with pytest.warns(HiddenExtrapolationWarning):
            v.direct_treatment_effects(fit, zmeans, within_group_sd=1.0)

    def test_recovers_direct_effects_under_treatment_covariate_shift(self):
        # treatments move the covariate; the conditional fit estimates the
        # response effect net of the covariate route
        params = interior_bivariate_params(4)
        tau_z = np.array([-0.6, -0.2, 0.2, 0.6])
        cond = v.conditional_from_bivariate(params, 4)
        reps = 30
        est = []
        for seed in range(reps):
            cfg = v.SimConfig(
                t=4, b=10, params=params, replicates=1, seed=seed, tau_z=tau_z
            )
            ds = v.gen_bivariate_rcb(cfg)[0]
            spec = v.DesignSpec(
                response="y",
                treatment_factors=("treatment",),
                blocking_factors=("block",),
                covariates=("z",),
                recipe="rcb",
                treatments_affect_covariates=True,
            )
            fit = v.fit_conditional_ibd(ds, spec, method="ml")
            est.append(fit.effects)
        est = np.asarray(est)
        tau_y = params.mu_y - params.mu_y.mean()
        target = tau_y - cond.gamma_e * tau_z
        for i in range(4):
            se = est[:, i].std(ddof=1) / np.sqrt(reps)
            assert abs(est[:, i].mean() - target[i]) < 3.5 * se + 1e-3
