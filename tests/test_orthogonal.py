import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcadjust as v
from vcadjust.design_algebra import averaging_matrix
from vcadjust.errors import SingularityError, ValidationError
from vcadjust.rcb_classical import rcb_arrays

from oracle_utils import (
    KroneckerCovariance,
    adjusted_means_orthogonal,
    kron_cov_dense,
    rcb_partition,
    stratum_regressions,
)



def _rand_pd(rng, k, scale=1.0):
    A = rng.normal(size=(k, k))
    return scale * (A @ A.T / k + 0.4 * np.eye(k))


class TestStratumRegressions:
    def test_zero_cross_covariance_zero_slopes(self):
        part = rcb_partition(3)
        G0 = np.diag([2.0, 1.0])
        G1 = np.diag([3.0, 0.5])
        kc = KroneckerCovariance(partition=part, strata=(G0, G1))
        sr = stratum_regressions(kc)
        assert np.allclose(sr.gammas[0], 0.0)
        assert np.allclose(sr.gammas[1], 0.0)
        assert np.allclose(sr.lambdas, [2.0, 3.0])

    def test_dense_conditioning_oracle(self):
        rng = np.random.default_rng(21)
        for m in (1, 2):
            part = rcb_partition(4)
            kc = KroneckerCovariance(
                partition=part,
                strata=tuple(_rand_pd(rng, m + 1) for _ in range(2)),
            )
            sr = stratum_regressions(kc)
            V = kron_cov_dense(kc)
            k = 4
            Vuu, Vuz = V[:k, :k], V[:k, k:]
            Vzz = V[k:, k:]
            dense_map = Vuz @ np.linalg.inv(Vzz)
            dense_var = Vuu - dense_map @ Vuz.T
            stated_map = np.zeros_like(dense_map)
            stated_var = np.zeros_like(dense_var)
            for gam, lam, A in zip(sr.gammas, sr.lambdas, part.projectors):
                stated_map += np.kron(gam.reshape(1, -1), A)
                stated_var += lam * A
            assert np.max(np.abs(dense_map - stated_map)) <= 1e-10
            assert np.max(np.abs(dense_var - stated_var)) <= 1e-10

    def test_singular_covariate_block_rejected(self):
        part = rcb_partition(2)
        G = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        kc = KroneckerCovariance(partition=part, strata=(np.eye(3), G))
        with pytest.raises(SingularityError, match="stratum 1"):
            stratum_regressions(kc)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), m=st.integers(1, 3))
    def test_schur_nonnegativity(self, seed, m):
        rng = np.random.default_rng(seed)
        part = rcb_partition(3)
        kc = KroneckerCovariance(
            partition=part, strata=tuple(_rand_pd(rng, m + 1) for _ in range(2))
        )
        sr = stratum_regressions(kc)
        assert np.all(sr.lambdas >= -1e-12)


class TestStratumSlopesOnFixture:
    def test_published_slopes_via_stratum_regressions(self, pearce):
        # the two-stratum regrouping of the fitted block covariance carries
        # the block-mean slope in stratum 0 and the cell slope in stratum 1
        ds, spec = pearce
        _, bp, _ = v.fit_bivariate_rcb_ml(ds, spec)
        t = 6
        kc = KroneckerCovariance(
            partition=rcb_partition(t),
            strata=(bp.Sigma_E + t * bp.Sigma_B, bp.Sigma_E),
        )
        sr = stratum_regressions(kc)
        assert abs(sr.gammas[0][0] - 37.25) <= 0.01
        assert abs(sr.gammas[1][0] - 28.40) <= 0.01


class TestAdjustedMeansOrthogonal:
    def test_no_shift_when_at_mean(self):
        mu = np.array([1.0, 2.0, 3.0])
        out = adjusted_means_orthogonal(mu, [2.0], [5.0], [5.0])
        assert np.allclose(out, mu)

    def test_zero_slope(self):
        mu = np.array([1.0, 2.0])
        out = adjusted_means_orthogonal(mu, [0.0, 0.0], [5.0, 1.0], [4.0, 0.0])
        assert np.allclose(out, mu)

    def test_scalar_correction(self):
        mu = np.array([1.0, 2.0])
        out = adjusted_means_orthogonal(mu, [2.0], [5.0], [4.0])
        assert np.allclose(out, mu - 2.0)


def split_plot_dataset(
    t=2, r=3, s=3, seed=0, Sigma_W=None, Sigma_E=None, mu_z=5.0, zero_cov=False
):
    rng = np.random.default_rng(seed)
    Sigma_W = np.array([[2.0, 0.8], [0.8, 1.0]]) if Sigma_W is None else Sigma_W
    Sigma_E = np.array([[1.0, 0.3], [0.3, 0.5]]) if Sigma_E is None else Sigma_E
    wt, rep, sp, ys, zs = [], [], [], [], []
    for i in range(t):
        for j in range(r):
            W = rng.multivariate_normal(np.zeros(2), Sigma_W)
            for k in range(s):
                E = rng.multivariate_normal(np.zeros(2), Sigma_E)
                mu_ik = 10.0 + 2.0 * i + 1.5 * k + 0.5 * i * k
                ys.append(mu_ik + W[0] + E[0])
                zs.append(0.0 if zero_cov else mu_z + W[1] + E[1])
                wt.append(f"A{i + 1}")
                rep.append(f"R{j + 1}")
                sp.append(f"S{k + 1}")
    return v.Dataset(
        factors={
            "wp_trt": np.array(wt, dtype=object),
            "wp_rep": np.array(rep, dtype=object),
            "sp_trt": np.array(sp, dtype=object),
        },
        response=np.array(ys),
        covariates=np.array(zs).reshape(-1, 1),
        covariate_names=("z",),
        levels={},
    )


SPLIT_SPEC = v.DesignSpec(
    response="y",
    treatment_factors=("wp_trt", "sp_trt"),
    blocking_factors=("wp_rep",),
    covariates=("z",),
    recipe="split_plot",
)


def latin_square_dataset(b=4, seed=0, zero_cov=False):
    rng = np.random.default_rng(seed)
    Sigma_R = np.array([[1.5, 0.5], [0.5, 0.8]])
    Sigma_C = np.array([[1.0, 0.4], [0.4, 0.6]])
    Sigma_E = np.array([[0.8, 0.2], [0.2, 0.4]])
    R = rng.multivariate_normal(np.zeros(2), Sigma_R, size=b)
    C = rng.multivariate_normal(np.zeros(2), Sigma_C, size=b)
    rows, cols, trts, ys, zs = [], [], [], [], []
    for i in range(b):
        for j in range(b):
            k = (i + j) % b
            E = rng.multivariate_normal(np.zeros(2), Sigma_E)
            ys.append(10.0 + 1.2 * k + R[i, 0] + C[j, 0] + E[0])
            zs.append(0.0 if zero_cov else 5.0 + R[i, 1] + C[j, 1] + E[1])
            rows.append(f"r{i + 1}")
            cols.append(f"c{j + 1}")
            trts.append(f"T{k + 1}")
    return v.Dataset(
        factors={
            "trt": np.array(trts, dtype=object),
            "row": np.array(rows, dtype=object),
            "col": np.array(cols, dtype=object),
        },
        response=np.array(ys),
        covariates=np.array(zs).reshape(-1, 1),
        covariate_names=("z",),
        levels={},
    )


LATIN_SPEC = v.DesignSpec(
    response="y",
    treatment_factors=("trt",),
    blocking_factors=("row", "col"),
    covariates=("z",),
    recipe="latin_square",
)


class TestConditionalRegressors:
    def test_split_plot_appends_wholeplot_means(self):
        ds = split_plot_dataset(t=2, r=2, s=3, seed=1)
        recipe = v.recipe_for(SPLIT_SPEC)
        aug = v.conditional_regressors(recipe, ds)
        assert aug.m == 2
        added = aug.covariates[:, 1]
        # each appended value is the mean of the three cells of its wholeplot
        for i in ("A1", "A2"):
            for j in ("R1", "R2"):
                sel = (ds.factors["wp_trt"] == i) & (ds.factors["wp_rep"] == j)
                assert np.allclose(added[sel], ds.covariates[sel, 0].mean())

    def test_latin_square_appends_row_and_col_means(self):
        ds = latin_square_dataset(b=4, seed=2)
        recipe = v.recipe_for(LATIN_SPEC)
        aug = v.conditional_regressors(recipe, ds)
        assert aug.m == 3
        rowcol = aug.covariates[:, 1]
        for lab in np.unique(ds.factors["row"]):
            sel = ds.factors["row"] == lab
            assert np.allclose(rowcol[sel], ds.covariates[sel, 0].mean())
        colcol = aug.covariates[:, 2]
        for lab in np.unique(ds.factors["col"]):
            sel = ds.factors["col"] == lab
            assert np.allclose(colcol[sel], ds.covariates[sel, 0].mean())

    def test_rcb_appends_block_means(self, rcb_dataset):
        ds, spec = rcb_dataset
        recipe = v.recipe_for(spec)
        aug = v.conditional_regressors(recipe, ds)
        block_means = rcb_arrays(ds, spec)[1].mean(axis=0)
        # the appended column holds each record's block mean
        blocks = sorted(set(ds.factors["block"]))
        for j, lab in enumerate(blocks):
            sel = ds.factors["block"] == lab
            assert np.allclose(aug.covariates[sel, 1], block_means[j])

    def test_ragged_strata_rejected(self, rcb_dataset):
        ds, spec = rcb_dataset
        y = ds.response.copy()
        Z = ds.covariates.copy()
        y[0] = np.nan
        Z[0] = np.nan
        ds2 = v.Dataset(
            factors=dict(ds.factors),
            response=y,
            covariates=Z,
            covariate_names=ds.covariate_names,
            levels={},
        )
        with pytest.raises(ValidationError, match="general engine"):
            v.conditional_regressors(v.recipe_for(spec), ds2)

    def test_projector_consistency(self):
        # appended stratum means equal the averaging operator applied to the
        # covariate within each replicate unit
        ds = split_plot_dataset(t=2, r=2, s=3, seed=4)
        recipe = v.recipe_for(SPLIT_SPEC)
        aug = v.conditional_regressors(recipe, ds)
        A0 = averaging_matrix(3)
        for i in ("A1", "A2"):
            for j in ("R1", "R2"):
                sel = (ds.factors["wp_trt"] == i) & (ds.factors["wp_rep"] == j)
                z_unit = ds.covariates[sel, 0]
                assert np.allclose(aug.covariates[sel, 1], A0 @ z_unit)


class TestRecipePartition:
    def test_rcb_partition_matches(self, rcb_dataset):
        ds, spec = rcb_dataset
        part = v.recipe_partition(v.recipe_for(spec), ds)
        assert part.dim == 6
        assert part.n_strata == 2
        assert v.validate_partition(part).passed

    def test_split_plot_partition(self):
        ds = split_plot_dataset()
        part = v.recipe_partition(v.recipe_for(SPLIT_SPEC), ds)
        assert part.dim == 3
        assert part.n_strata == 2

    def test_latin_square_partition_four_strata(self):
        ds = latin_square_dataset(b=4)
        part = v.recipe_partition(v.recipe_for(LATIN_SPEC), ds)
        assert part.dim == 16
        assert part.n_strata == 4
        assert tuple(part.ranks()) == (1, 3, 3, 9)

    def test_blocked_split_plot_partition(self):
        # two blocks, each holding two wholeplot treatments x two reps x two splits
        rng = np.random.default_rng(0)
        blocks, wt, rep, sp = [], [], [], []
        for bl in range(2):
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        blocks.append(f"B{bl + 1}")
                        wt.append(f"A{i + 1}")
                        rep.append(f"R{j + 1}")
                        sp.append(f"S{k + 1}")
        n = len(blocks)
        ds = v.Dataset(
            factors={
                "block": np.array(blocks, dtype=object),
                "wp_trt": np.array(wt, dtype=object),
                "wp_rep": np.array(rep, dtype=object),
                "sp_trt": np.array(sp, dtype=object),
            },
            response=rng.normal(size=n),
            covariates=rng.normal(size=n).reshape(-1, 1),
            covariate_names=("z",),
            levels={},
        )
        spec = v.DesignSpec(
            response="y",
            treatment_factors=("wp_trt", "sp_trt"),
            blocking_factors=("block", "wp_rep"),
            covariates=("z",),
            recipe="blocked_split_plot",
        )
        part = v.recipe_partition(v.recipe_for(spec), ds)
        assert part.dim == 8
        assert part.n_strata == 3
        assert tuple(part.ranks()) == (1, 3, 4)


class TestFitOrthogonalConditional:
    def test_rcb_equivalence_with_closed_form(self, rcb_dataset):
        ds, spec = rcb_dataset
        hf, _, _ = v.fit_bivariate_rcb_ml(ds, spec)
        means_cf, _ = v.adjusted_means_bivariate(hf)
        fit = v.fit_orthogonal_conditional(v.recipe_for(spec), ds, method="ml")
        assert np.max(np.abs(fit.adjusted_means - means_cf)) < 1e-6
        assert abs(fit.loglik - hf.conditional_loglik) < 1e-6

    def test_split_plot_recovers_slopes(self):
        Sigma_W = np.array([[2.0, 0.8], [0.8, 1.0]])
        Sigma_E = np.array([[1.0, 0.3], [0.3, 0.5]])
        s = 3
        gamma_e = Sigma_E[0, 1] / Sigma_E[1, 1]
        G0 = Sigma_E + s * Sigma_W
        gamma_0 = G0[0, 1] / G0[1, 1]
        gamma_w = gamma_0 - gamma_e  # slope on the appended wholeplot mean
        reps = 25
        ge, gw = [], []
        recipe = v.recipe_for(SPLIT_SPEC)
        for seed in range(reps):
            ds = split_plot_dataset(t=2, r=4, s=s, seed=seed, Sigma_W=Sigma_W, Sigma_E=Sigma_E)
            fit = v.fit_orthogonal_conditional(recipe, ds, method="ml")
            ge.append(fit.slopes["z"])
            gw.append(fit.slopes["mean(z|wp_trt,wp_rep)"])
        ge, gw = np.asarray(ge), np.asarray(gw)
        assert abs(ge.mean() - gamma_e) < 3.5 * ge.std(ddof=1) / np.sqrt(reps) + 1e-3
        assert abs(gw.mean() - gamma_w) < 3.5 * gw.std(ddof=1) / np.sqrt(reps) + 1e-3

    def test_zero_covariate_reduces_to_plain_anova(self):
        ds = split_plot_dataset(zero_cov=True, seed=9)
        recipe = v.recipe_for(SPLIT_SPEC)
        fit = v.fit_orthogonal_conditional(recipe, ds, method="ml")
        assert set(fit.dropped_regressors) == {"z", "mean(z|wp_trt,wp_rep)"}
        assert fit.slopes["z"] == 0.0
        # equals the no-covariate mixed fit of the same layout
        sub = ds
        combos = [f"{a}:{b}" for a, b in zip(sub.factors["wp_trt"], sub.factors["sp_trt"])]
        labels = sorted(set(combos))
        T = np.zeros((len(combos), len(labels)))
        for i, c in enumerate(combos):
            T[i, labels.index(c)] = 1.0
        wp = [f"{a}:{b}" for a, b in zip(sub.factors["wp_trt"], sub.factors["wp_rep"])]
        wps = sorted(set(wp))
        W = np.array([wps.index(c) for c in wp])
        plain = v.fit_lmm(
            v.LmmSpec(y=sub.response, X=T, random=(W,), names=("wholeplot",)),
            method="ml",
        )
        assert abs(fit.loglik - plain.loglik) < 1e-8
        assert np.allclose(fit.adjusted_means, plain.beta_hat, atol=1e-8)

    def test_blocked_split_plot_fit_keeps_all_random_terms(self):
        rng = np.random.default_rng(7)
        blocks, wt, rep, sp, ys, zs = [], [], [], [], [], []
        Sigma_B = np.array([[1.5, 0.5], [0.5, 0.7]])
        Sigma_W = np.array([[1.0, 0.3], [0.3, 0.5]])
        Sigma_E = np.array([[0.6, 0.15], [0.15, 0.3]])
        for bl in range(4):
            B = rng.multivariate_normal(np.zeros(2), Sigma_B)
            bt = rng.normal(size=3) * 0.4  # block x split interaction (y only)
            for i in range(2):
                ba = rng.normal() * 0.4
                bat = rng.normal(size=3) * 0.3
                for j in range(2):
                    W = rng.multivariate_normal(np.zeros(2), Sigma_W)
                    for k in range(3):
                        E = rng.multivariate_normal(np.zeros(2), Sigma_E)
                        ys.append(
                            10.0 + 1.5 * i + 0.8 * k + B[0] + ba + W[0]
                            + bt[k] + bat[k] + E[0]
                        )
                        zs.append(5.0 + B[1] + W[1] + E[1])
                        blocks.append(f"B{bl + 1}")
                        wt.append(f"A{i + 1}")
                        rep.append(f"R{j + 1}")
                        sp.append(f"S{k + 1}")
        ds = v.Dataset(
            factors={
                "block": np.array(blocks, dtype=object),
                "wp_trt": np.array(wt, dtype=object),
                "wp_rep": np.array(rep, dtype=object),
                "sp_trt": np.array(sp, dtype=object),
            },
            response=np.array(ys),
            covariates=np.array(zs).reshape(-1, 1),
            covariate_names=("z",),
            levels={},
        )
        spec = v.DesignSpec(
            response="y",
            treatment_factors=("wp_trt", "sp_trt"),
            blocking_factors=("block", "wp_rep"),
            covariates=("z",),
            recipe="blocked_split_plot",
        )
        recipe = v.recipe_for(spec)
        fit = v.fit_orthogonal_conditional(recipe, ds, method="ml")
        # every listed random term carries its own variance component
        assert set(fit.var_comps) == {
            "residual",
            "block",
            "block*wp_trt",
            "wholeplot",
            "block*sp_trt",
            "block*wp_trt*sp_trt",
        }
        # three covariate regressors: cell, wholeplot mean, block mean
        assert set(fit.slopes) == {
            "z",
            "mean(z|block)",
            "mean(z|block,wp_trt,wp_rep)",
        }
        assert len(fit.treatments) == 6
        assert np.all(np.isfinite(fit.adjusted_means))

    def test_latin_square_fit_runs(self):
        ds = latin_square_dataset(b=4, seed=5)
        fit = v.fit_orthogonal_conditional(v.recipe_for(LATIN_SPEC), ds, method="ml")
        assert len(fit.treatments) == 4
        assert np.all(fit.adjusted_se > 0)
        assert set(fit.slopes) == {"z", "mean(z|row)", "mean(z|col)"}

    def test_latin_square_recovers_slopes(self):
        # row/col conditional slopes from the four-stratum structure
        Sigma_R = np.array([[1.5, 0.5], [0.5, 0.8]])
        Sigma_C = np.array([[1.0, 0.4], [0.4, 0.6]])
        Sigma_E = np.array([[0.8, 0.2], [0.2, 0.4]])
        b = 4
        gamma_e = Sigma_E[0, 1] / Sigma_E[1, 1]
        Gr = Sigma_E + b * Sigma_R
        Gc = Sigma_E + b * Sigma_C
        gamma_r = Gr[0, 1] / Gr[1, 1] - gamma_e
        gamma_c = Gc[0, 1] / Gc[1, 1] - gamma_e
        reps = 25
        acc = {"z": [], "mean(z|row)": [], "mean(z|col)": []}
        for seed in range(reps):
            ds = latin_square_dataset(b=b, seed=seed)
            fit = v.fit_orthogonal_conditional(v.recipe_for(LATIN_SPEC), ds, method="ml")
            for k in acc:
                acc[k].append(fit.slopes[k])
        for key, target in (
            ("z", gamma_e),
            ("mean(z|row)", gamma_r),
            ("mean(z|col)", gamma_c),
        ):
            vals = np.asarray(acc[key])
            se = vals.std(ddof=1) / np.sqrt(reps)
            assert abs(vals.mean() - target) < 3.5 * se + 2e-3
