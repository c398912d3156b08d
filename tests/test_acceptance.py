"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Criteria 1-3 reproduce published benchmark analyses of the apple-yield and
resistor-noise experiments and need the user-supplied fixture files
described in tests/fixtures/README.md; they skip cleanly when the files
are absent.  Criteria 4-7 are fixture-free and must always pass.
"""

import time

import numpy as np

import vcadjust as v
from vcadjust.cli import main
from vcadjust.mvc_em import make_model
from vcadjust.rcb_classical import rcb_arrays

from conftest import (
    PEARCE_DATA,
    ZELEN_DATA,
    bias_demo_params,
    drop_cells,
    fixture_or_skip,
    interior_bivariate_params,
    pearce_spec,
    zelen_spec,
)
from oracle_utils import (
    ORACLE_SEEDS,
    KroneckerCovariance,
    direct_max_loglik,
    helmert_matrix,
    kron_cov_dense,
    kron_cov_inverse,
    make_oracle_instance,
    rcb_partition,
    stratum_regressions,
)

# loglik traces of every EM fit run by this module, for criterion 5(e)
_EM_TRACES: list[np.ndarray] = []


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


APPLE_COMPLETE = {
    "treatments": ["A", "B", "C", "D", "E", "S"],
    "fixed_mean": [280.48, 266.57, 274.07, 281.14, 300.92, 251.34],
    "fixed_se": [6.37, 6.36, 6.36, 6.44, 6.72, 6.86],
    "mixed_mean": [280.41, 266.55, 274.05, 281.32, 301.33, 250.85],
    "mixed_se": [13.69, 13.68, 13.68, 13.72, 13.87, 13.95],
    "biv_mean": [280.48, 266.57, 274.07, 281.14, 300.92, 251.34],
    "biv_se": [12.98, 12.98, 12.98, 13.02, 13.19, 13.28],
}

RESISTOR_BENCH = {
    "treatments": ["l1w1", "l1w2", "l2w1", "l2w2"],
    "biv_effect": [-0.449, -0.229, 0.238, 0.440],
    "biv_se": [0.233, 0.040, 0.045, 0.226],
    "uni_effect": [-0.519, -0.238, 0.249, 0.508],
    "uni_se": [0.112, 0.029, 0.031, 0.109],
}

APPLE_UNBALANCED = {
    "treatments": ["A", "B", "C", "D", "E", "S"],
    "adj_mean": [269.29, 255.69, 271.62, 277.47, 295.96, 251.63],
    "se": [13.35, 13.35, 12.73, 12.73, 12.73, 12.73],
    "mu_z": 8.2080,
}


def test_criterion_1_complete_blocks_benchmark():
    path = fixture_or_skip(PEARCE_DATA)
    spec = pearce_spec()
    ds = v.load_dataset(path, spec)
    t0 = time.time()
    fx = v.fit_fixed_rcb(ds, spec)
    mx = v.fit_mixed_rcb(ds, spec, method="ml")
    hf, _, _ = v.fit_bivariate_rcb_ml(ds, spec)
    bmeans, bse = v.adjusted_means_bivariate(hf)
    elapsed = time.time() - t0
    ok = list(fx.treatments) == APPLE_COMPLETE["treatments"]
    errs = []
    for got, want, name in (
        (fx.adjusted_means, APPLE_COMPLETE["fixed_mean"], "fixed mean"),
        (fx.adjusted_se, APPLE_COMPLETE["fixed_se"], "fixed se"),
        (mx.adjusted_means, APPLE_COMPLETE["mixed_mean"], "mixed mean"),
        (mx.adjusted_se, APPLE_COMPLETE["mixed_se"], "mixed se"),
        (bmeans, APPLE_COMPLETE["biv_mean"], "bivariate mean"),
        (bse, APPLE_COMPLETE["biv_se"], "bivariate se"),
    ):
        d = np.max(np.abs(np.asarray(got) - np.asarray(want)))
        errs.append(f"{name} {d:.4f}")
        ok = ok and d <= 0.01
    for got, want, name in (
        (fx.gamma_ols, 28.40, "gamma_ols"),
        (mx.gamma_e, 28.89, "gamma_mixed"),
        (hf.gamma_be_hat, 37.25, "gamma_be"),
        (mx.sigma_e2, 194.55, "sigma_e2"),
        (mx.sigma_b2, 553.98, "sigma_b2"),
        (mx.rho, 0.9447, "rho"),
    ):
        d = abs(got - want)
        errs.append(f"{name} {d:.4f}")
        ok = ok and d <= 0.01
    ok = ok and elapsed < 1.0
    _report(1, ok, f"(complete-blocks benchmark; {elapsed:.2f}s; max errs: {'; '.join(errs)})")


def test_criterion_2_incomplete_blocks_benchmark():
    path = fixture_or_skip(ZELEN_DATA)
    spec = zelen_spec()
    ds = v.load_dataset(path, spec)
    t0 = time.time()
    biv = v.fit_conditional_ibd(ds, spec, method="reml")
    uni = v.fit_naive_block_mixed(ds, spec, method="reml")
    elapsed = time.time() - t0
    ok = list(biv.treatments) == RESISTOR_BENCH["treatments"]
    errs = []
    for got, want, name in (
        (biv.effects, RESISTOR_BENCH["biv_effect"], "bivariate effects"),
        (biv.effect_se, RESISTOR_BENCH["biv_se"], "bivariate se"),
        (uni.effects, RESISTOR_BENCH["uni_effect"], "univariate effects"),
        (uni.effect_se, RESISTOR_BENCH["uni_se"], "univariate se"),
    ):
        d = np.max(np.abs(np.asarray(got) - np.asarray(want)))
        errs.append(f"{name} {d:.4f}")
        ok = ok and d <= 0.01
    # interaction contrast: (l2w1 - l2w2) - (l1w1 - l1w2)
    coef = np.zeros(len(biv.lmm_fit.beta_hat))
    coef[:4] = [-1.0, 1.0, 1.0, -1.0]
    est_b, se_b = v.contrast(biv.lmm_fit, coef)
    coef_u = np.zeros(len(uni.lmm_fit.beta_hat))
    coef_u[:4] = [-1.0, 1.0, 1.0, -1.0]
    est_u, se_u = v.contrast(uni.lmm_fit, coef_u)
    for got, want, name in (
        (est_b, 0.018, "pi bivariate"),
        (se_b, 0.061, "pi se bivariate"),
        (est_u, 0.022, "pi univariate"),
        (se_u, 0.056, "pi se univariate"),
    ):
        d = abs(got - want)
        errs.append(f"{name} {d:.4f}")
        ok = ok and d <= 0.005
    ok = ok and elapsed < 1.0
    _report(2, ok, f"(incomplete-blocks benchmark; {elapsed:.2f}s; max errs: {'; '.join(errs)})")


def test_criterion_3_unbalanced_benchmark():
    path = fixture_or_skip(PEARCE_DATA)
    spec = pearce_spec()
    ds = drop_cells(v.load_dataset(path, spec), [("A", "1"), ("B", "1")])
    t0 = time.time()
    sd = v.build_stacked(ds, spec)
    fit = v.fit_em(make_model(sd), tol=1e-10, max_iter=50000)
    res = v.adjusted_means_mvc(fit)
    elapsed = time.time() - t0
    _EM_TRACES.append(fit.loglik_trace)
    ok = list(res.treatments) == APPLE_UNBALANCED["treatments"]
    d_mu = abs(res.evaluated_at[0] - APPLE_UNBALANCED["mu_z"])
    d_mean = np.max(np.abs(res.means - APPLE_UNBALANCED["adj_mean"]))
    d_se = np.max(np.abs(res.se - APPLE_UNBALANCED["se"]))
    ok = ok and d_mu <= 0.001 and d_mean <= 0.05 and d_se <= 0.05
    ok = ok and np.isclose(res.se[0], res.se[1], atol=1e-6)
    ok = ok and res.se[0] > np.max(res.se[2:])
    ok = ok and elapsed < 5.0
    _report(
        3,
        ok,
        f"(unbalanced benchmark; {elapsed:.2f}s; mu_z err {d_mu:.5f}, "
        f"mean err {d_mean:.4f}, se err {d_se:.4f})",
    )


def test_criterion_4_em_vs_direct_optimizer():
    t0 = time.time()
    em_s = oracle_s = 0.0
    worst_gap, worst_par = -np.inf, 0.0
    for seed in ORACLE_SEEDS:
        sd, _truth = make_oracle_instance(seed)
        t1 = time.time()
        fit = v.fit_em(make_model(sd), tol=1e-12, max_iter=100000)
        t2 = time.time()
        _EM_TRACES.append(fit.loglik_trace)
        ll_opt, p_opt = direct_max_loglik(sd, extra_starts=[fit.params])
        em_s += t2 - t1
        oracle_s += time.time() - t2
        gap = ll_opt - fit.loglik
        worst_gap = max(worst_gap, gap)
        dpar = max(
            max(np.max(np.abs(a - b)) for a, b in zip(fit.params.Sigmas, p_opt.Sigmas)),
            np.max(np.abs(fit.params.beta - p_opt.beta)),
        )
        worst_par = max(worst_par, dpar)
        assert gap <= 1e-6, f"instance {seed}: optimizer beat EM by {gap:.2e}"
        assert dpar <= 1e-4, f"instance {seed}: parameter gap {dpar:.2e}"
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    _report(
        4,
        ok,
        f"(20 instances; {elapsed:.1f}s: EM {em_s:.1f}s, oracle {oracle_s:.1f}s; "
        f"worst loglik gap {worst_gap:.2e}, "
        f"worst param gap {worst_par:.2e})",
    )


def test_criterion_5_identity_suite():
    params = interior_bivariate_params(5)
    # (a) closed-form adjusted means equal the fixed-blocks means
    worst_a = 0.0
    for seed in range(10):
        cfg = v.SimConfig(t=5, b=6, params=params, replicates=1, seed=seed)
        ds = v.gen_bivariate_rcb(cfg)[0]
        hf, _, _ = v.fit_bivariate_rcb_ml(ds, cfg.design_spec)
        means, _ = v.adjusted_means_bivariate(hf)
        fixed = v.fit_fixed_rcb(ds, cfg.design_spec).adjusted_means
        worst_a = max(worst_a, float(np.max(np.abs(means - fixed))))
    ok_a = worst_a <= 1e-10

    # (b) EM on a complete RCB reproduces the closed forms
    cfg = v.SimConfig(t=6, b=8, params=interior_bivariate_params(6), replicates=1, seed=1)
    ds = v.gen_bivariate_rcb(cfg)[0]
    hf, bp, _ = v.fit_bivariate_rcb_ml(ds, cfg.design_spec)
    sd = v.build_stacked(ds, cfg.design_spec)
    fit = v.fit_em(make_model(sd), tol=1e-12, max_iter=50000)
    _EM_TRACES.append(fit.loglik_trace)
    worst_b = max(
        float(np.max(np.abs(fit.params.Sigmas[0] - bp.Sigma_E))),
        float(np.max(np.abs(fit.params.Sigmas[1] - bp.Sigma_B))),
        float(np.max(np.abs(fit.params.beta[:6] - hf.mu_y_hat))),
        abs(float(fit.params.beta[6]) - bp.mu_z),
    )
    ok_b = worst_b <= 1e-4 and abs(fit.loglik - hf.loglik) <= 1e-6

    # (c) the GLS slope hits its two endpoint estimators
    Y, Z, _, _ = rcb_arrays(ds, cfg.design_spec)
    fx = v.fit_fixed_rcb(ds, cfg.design_spec)
    zc = Z - Z.mean(axis=1, keepdims=True)
    yc = Y - Y.mean(axis=1, keepdims=True)
    pooled = float(np.sum(zc * yc) / np.sum(zc * zc))
    ok_c = np.isclose(v.gamma_mixed(Z, Y, 1.0), fx.gamma_ols, atol=1e-10) and np.isclose(
        v.gamma_mixed(Z, Y, 0.0), pooled, atol=1e-10
    )

    # (d) structured inverse against the dense inverse
    rng = np.random.default_rng(3)
    worst_d = 0.0
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3))
        kc = KroneckerCovariance(
            partition=rcb_partition(4),
            strata=(A @ A.T + np.eye(3), B @ B.T + np.eye(3)),
        )
        prod = kron_cov_dense(kron_cov_inverse(kc)) @ kron_cov_dense(kc)
        worst_d = max(worst_d, float(np.max(np.abs(prod - np.eye(12)))))
    ok_d = worst_d <= 1e-9

    # (e) every EM trace recorded by this suite is monotone
    ok_e = all(np.min(np.diff(tr)) >= -1e-10 for tr in _EM_TRACES if len(tr) > 1)

    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    _report(
        5,
        ok,
        f"(a {worst_a:.1e}; b {worst_b:.1e}; c {ok_c}; d {worst_d:.1e}; "
        f"e over {len(_EM_TRACES)} traces {ok_e})",
    )


def test_criterion_6_bias_demonstration():
    t0 = time.time()
    params = bias_demo_params(6)
    cfg = v.SimConfig(
        t=6, b=4, params=params, replicates=2000, seed=17, condition_on_z=True
    )
    res = v.bias_study(cfg)
    naive = res.row("gamma_mixed_vs_gamma_e")
    biv = res.row("gamma_e_bivariate")
    ok = abs(naive.bias) > 3.0 * naive.mc_se
    ok = ok and abs(biv.bias) < 3.0 * biv.mc_se

    null_params = v.BivariateParams(
        mu_y=params.mu_y,
        mu_z=params.mu_z,
        Sigma_B=np.array([[4.0, 0.0], [0.0, 0.0]]),
        Sigma_E=params.Sigma_E,
    )
    cfg0 = v.SimConfig(
        t=6, b=4, params=null_params, replicates=2000, seed=18, condition_on_z=True
    )
    res0 = v.bias_study(cfg0)
    ok = ok and res0.row("gamma_mixed_vs_gamma_e").flag == "ok"
    ok = ok and res0.row("gamma_e_bivariate").flag == "ok"
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(
        6,
        ok,
        f"({elapsed:.1f}s; naive bias {naive.bias:.4f} vs 3se {3 * naive.mc_se:.4f}; "
        f"two-slope bias {biv.bias:.4f} vs 3se {3 * biv.mc_se:.4f})",
    )


def test_criterion_7_property_suite(tmp_path):
    failures = []

    # affine equivariance of adjusted means
    params = interior_bivariate_params(4)
    cfg = v.SimConfig(t=4, b=5, params=params, replicates=1, seed=2)
    ds = v.gen_bivariate_rcb(cfg)[0]
    hf1, _, _ = v.fit_bivariate_rcb_ml(ds, cfg.design_spec)
    m1, _ = v.adjusted_means_bivariate(hf1)
    ds2 = v.Dataset(
        factors=dict(ds.factors),
        response=ds.response,
        covariates=-2.5 * ds.covariates + 7.0,
        covariate_names=ds.covariate_names,
        levels={},
    )
    hf2, _, _ = v.fit_bivariate_rcb_ml(ds2, cfg.design_spec)
    m2, _ = v.adjusted_means_bivariate(hf2)
    if np.max(np.abs(m1 - m2)) > 1e-10 * max(1.0, float(np.max(np.abs(m1)))):
        failures.append("affine equivariance")

    # label-permutation invariance of the EM fit
    cfg = v.SimConfig(t=4, b=6, params=params, replicates=1, seed=5)
    ds = v.gen_bivariate_rcb(cfg)[0]
    sd = v.build_stacked(ds, cfg.design_spec)
    f1 = v.fit_em(make_model(sd), tol=1e-11, max_iter=20000)
    rename = {"T01": "D", "T02": "C", "T03": "B", "T04": "A"}
    dsp = v.Dataset(
        factors={
            "treatment": np.array([rename[x] for x in ds.factors["treatment"]], dtype=object),
            "block": ds.factors["block"],
        },
        response=ds.response,
        covariates=ds.covariates,
        covariate_names=ds.covariate_names,
        levels={},
    )
    f2 = v.fit_em(make_model(v.build_stacked(dsp, cfg.design_spec)), tol=1e-11, max_iter=20000)
    _EM_TRACES.extend([f1.loglik_trace, f2.loglik_trace])
    if abs(f1.loglik - f2.loglik) > 1e-10:
        failures.append("label permutation loglik")
    r1, r2 = v.adjusted_means_mvc(f1), v.adjusted_means_mvc(f2)
    if np.max(np.abs(r2.means - r1.means[::-1])) > 1e-9:
        failures.append("label permutation means")

    # Helmert orthogonality
    for t in (2, 7, 23, 50):
        H = helmert_matrix(t)
        if np.max(np.abs(H.T @ H - np.eye(t))) > 1e-12:
            failures.append(f"helmert orthogonality t={t}")

    # Schur nonnegativity
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m + 1, m + 1))
        B = rng.normal(size=(m + 1, m + 1))
        kc = KroneckerCovariance(
            partition=rcb_partition(3),
            strata=(A @ A.T + 0.1 * np.eye(m + 1), B @ B.T + 0.1 * np.eye(m + 1)),
        )
        if np.min(stratum_regressions(kc).lambdas) < -1e-12:
            failures.append("schur nonnegativity")
            break

    # missing-data consistency (bit-for-bit with an empty deletion set)
    ds3 = drop_cells(ds, [])
    sd_a = v.build_stacked(ds, cfg.design_spec)
    sd_b = v.build_stacked(ds3, cfg.design_spec)
    fa = v.fit_em(make_model(sd_a), tol=1e-10, max_iter=5000)
    fb = v.fit_em(make_model(sd_b), tol=1e-10, max_iter=5000)
    _EM_TRACES.extend([fa.loglik_trace, fb.loglik_trace])
    if not (
        np.array_equal(fa.loglik_trace, fb.loglik_trace)
        and np.array_equal(fa.params.beta, fb.params.beta)
    ):
        failures.append("missing-data consistency")

    # output determinism through the batch surface
    import json as _json

    data = tmp_path / "d.csv"
    lines = ["treatment,block,y,z"]
    for i in range(ds.n_records):
        lines.append(
            f"{ds.factors['treatment'][i]},{ds.factors['block'][i]},"
            f"{float(ds.response[i])!r},{float(ds.covariates[i, 0])!r}"
        )
    data.write_text("\n".join(lines) + "\n")
    design = tmp_path / "d.json"
    design.write_text(
        _json.dumps(
            {
                "response": "y",
                "treatment_factors": ["treatment"],
                "blocking_factors": ["block"],
                "covariates": ["z"],
                "recipe": "rcb",
            }
        )
    )
    o1, o2 = tmp_path / "o1.tsv", tmp_path / "o2.tsv"
    main(["compare", "--data", str(data), "--design", str(design), "--out", str(o1)])
    main(["compare", "--data", str(data), "--design", str(design), "--out", str(o2)])
    if o1.read_bytes() != o2.read_bytes():
        failures.append("output determinism")

    _report(7, not failures, f"({'all properties hold' if not failures else failures})")
