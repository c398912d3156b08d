import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg

import vcadjust as v
from vcadjust import lmm, orthogonal_conditional
from vcadjust.cli import main
from vcadjust.errors import ValidationError
from vcadjust.rcb_classical import rcb_arrays

from conftest import interior_bivariate_params
from oracle_utils import lmm_best_of_starts, lmm_neg_loglik

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden_cli"


def _one_factor_instance(seed=0, n=30, p=2, d=5, s2e=1.0, s2b=2.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    codes = rng.integers(0, d, size=n)
    Z = np.zeros((n, d))
    Z[np.arange(n), codes] = 1.0
    beta = np.array([1.0, -2.0])
    y = X @ beta + Z @ rng.normal(size=d) * np.sqrt(s2b) + rng.normal(size=n) * np.sqrt(s2e)
    return v.LmmSpec(y=y, X=X, random=(codes,), names=("g",))


def _profile_loglik_oracle(spec):
    """Grid-plus-golden maximization of the one-ratio profile likelihood."""
    y, X, Z = spec.y, spec.X, _incidence(spec.random[0])
    n, p = X.shape
    G = Z @ Z.T

    def prof(log_phi):
        K = np.eye(n) + np.exp(log_phi) * G
        c, low = linalg.cho_factor(K, lower=True)
        ld = 2 * np.sum(np.log(np.diag(c)))
        KiX = linalg.cho_solve((c, low), X)
        beta = np.linalg.solve(X.T @ KiX, KiX.T @ y)
        r = y - X @ beta
        rss = r @ linalg.cho_solve((c, low), r)
        return -0.5 * (n * np.log(2 * np.pi) + n * np.log(rss / n) + ld + n)

    grid = np.linspace(np.log(1e-8), np.log(1e8), 4001)
    vals = [prof(g) for g in grid]
    k = int(np.argmax(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    gr = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1, c2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = prof(c1), prof(c2)
    for _ in range(200):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = prof(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = prof(c1)
    return max(prof(0.5 * (a + b)), max(vals))


class TestFitLmm:
    def test_gls_identity_at_fitted_components(self):
        spec = _one_factor_instance(seed=3)
        fit = v.fit_lmm(spec, method="ml")
        n = len(spec.y)
        Z = _incidence(spec.random[0])
        V = fit.sigma_e2 * np.eye(n) + fit.sigma2[0] * (Z @ Z.T)
        Vi = np.linalg.inv(V)
        beta_direct = np.linalg.solve(spec.X.T @ Vi @ spec.X, spec.X.T @ Vi @ spec.y)
        assert np.max(np.abs(fit.beta_hat - beta_direct)) < 1e-10
        cov_direct = np.linalg.inv(spec.X.T @ Vi @ spec.X)
        assert np.max(np.abs(fit.beta_cov - cov_direct)) < 1e-10

    def test_profile_likelihood_oracle(self):
        spec = _one_factor_instance(seed=0, n=30, p=2, d=5)
        fit = v.fit_lmm(spec, method="ml")
        oracle = _profile_loglik_oracle(spec)
        assert fit.loglik >= oracle - 1e-6
        assert abs(fit.loglik - oracle) < 1e-6

    def test_duplicated_residual_flagged(self):
        rng = np.random.default_rng(4)
        n = 20
        X = np.ones((n, 1))
        y = rng.normal(size=n) * 2.0 + 1.0
        spec = v.LmmSpec(y=y, X=X, random=(np.arange(n),), names=("dup",))
        fit = v.fit_lmm(spec, method="ml")
        # total variance is identified even though the split is not
        total = fit.sigma_e2 + fit.sigma2[0]
        ll_direct = -0.5 * n * (
            np.log(2 * np.pi) + np.log(np.mean((y - y.mean()) ** 2)) + 1.0
        )
        assert np.isclose(total, np.mean((y - y.mean()) ** 2), rtol=1e-4)
        assert abs(fit.loglik - ll_direct) < 1e-6
        assert "weakly_identified" in fit.flags or "boundary" in fit.flags

    def test_scaling_equivariance(self):
        spec = _one_factor_instance(seed=8)
        n, p = spec.X.shape
        c = 3.7
        for method, dof in (("ml", n), ("reml", n - p)):
            f1 = v.fit_lmm(spec, method=method)
            f2 = v.fit_lmm(
                v.LmmSpec(y=c * spec.y, X=spec.X, random=spec.random), method=method
            )
            assert np.allclose(f2.beta_hat, c * f1.beta_hat, rtol=1e-6)
            assert np.isclose(f2.sigma_e2, c**2 * f1.sigma_e2, rtol=1e-5)
            assert np.isclose(f2.sigma2[0], c**2 * f1.sigma2[0], rtol=1e-4)
            assert np.isclose(f2.loglik, f1.loglik - dof * np.log(c), atol=1e-6)

    def test_ml_beats_random_admissible_points(self):
        spec = _one_factor_instance(seed=12)
        fit = v.fit_lmm(spec, method="ml")
        rng = np.random.default_rng(0)
        n = len(spec.y)
        Z = _incidence(spec.random[0])
        G = Z @ Z.T

        def ll(s2e, s2b):
            V = s2e * np.eye(n) + s2b * G
            c, low = linalg.cho_factor(V, lower=True)
            ld = 2 * np.sum(np.log(np.diag(c)))
            ViX = linalg.cho_solve((c, low), spec.X)
            beta = np.linalg.solve(spec.X.T @ ViX, ViX.T @ spec.y)
            r = spec.y - spec.X @ beta
            return -0.5 * (n * np.log(2 * np.pi) + ld + r @ linalg.cho_solve((c, low), r))

        vary = np.var(spec.y)
        for _ in range(100):
            s2e = vary * 10 ** rng.uniform(-2, 2)
            s2b = vary * 10 ** rng.uniform(-2, 2)
            assert fit.loglik >= ll(s2e, s2b) - 1e-8

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(1)
        X = np.ones((10, 2))
        with pytest.raises(ValidationError):
            v.LmmSpec(y=rng.normal(size=10), X=X, random=())

    def test_random_factors_are_level_codes(self):
        """Each random factor is one non-negative integer level code per
        record; negative, float, 2-D (a dense incidence among them) and
        wrong-length arrays are refused."""
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(6), rng.normal(size=6)])
        y = rng.normal(size=6)
        g = np.array([0, 0, 1, 1, 2, 2])
        v.LmmSpec(y=y, X=X, random=(g, g[::-1]))
        for bad in (g - 1, g.astype(float), 0.5 * g, _incidence(g), g[:, None], g[:5], np.r_[g, 0]):
            with pytest.raises(ValidationError, match="level codes"):
                v.LmmSpec(y=y, X=X, random=(g, bad))

    def test_codes_fit_the_dense_incidence_likelihood(self):
        """A fit from codes sits at the dense-incidence likelihood with the
        dense GLS fixed effects, and a level no record uses changes nothing
        (its diagonal entry of M^-1 is 1)."""
        spec = _one_factor_instance(seed=3)
        g = spec.random[0]
        gapped = v.LmmSpec(y=spec.y, X=spec.X, random=(2 * g + 1,))
        for method in ("ml", "reml"):
            fit = v.fit_lmm(spec, method=method)
            theta = np.log(np.r_[fit.sigma_e2, fit.sigma2])
            assert abs(fit.loglik + _dense_neg_loglik(theta, spec, method)) <= 1e-10 * abs(fit.loglik)
            Z = _incidence(g)
            Vi = np.linalg.inv(fit.sigma_e2 * np.eye(len(g)) + fit.sigma2[0] * (Z @ Z.T))
            beta = np.linalg.solve(spec.X.T @ Vi @ spec.X, spec.X.T @ Vi @ spec.y)
            assert np.max(np.abs(fit.beta_hat - beta)) < 1e-10
            other = v.fit_lmm(gapped, method=method)
            assert abs(other.loglik - fit.loglik) <= 1e-10 * abs(fit.loglik)
            assert np.allclose(other.sigma2, fit.sigma2, rtol=1e-6)

    def test_names_must_match_the_random_factors(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(6), rng.normal(size=6)])
        g = np.array([0, 0, 1, 1, 2, 2])
        with pytest.raises(ValidationError, match="names"):
            v.LmmSpec(y=rng.normal(size=6), X=X, random=(g, g[::-1]), names=("block",))

    def test_reml_exceeds_its_own_random_points(self):
        spec = _one_factor_instance(seed=21)
        fit = v.fit_lmm(spec, method="reml")
        assert fit.converged
        assert fit.sigma2[0] >= 0.0


class TestEq7Identity:
    def test_balanced_rcb_slope_matches_weighted_form(self, rcb_dataset):
        ds, spec = rcb_dataset
        mx = v.fit_mixed_rcb(ds, spec, method="ml")
        Y, Z, _, _ = rcb_arrays(ds, spec)
        expected = v.gamma_mixed(Z, Y, mx.rho)
        assert abs(mx.gamma_e - expected) < 1e-8


class TestContrast:
    def test_unit_vector_returns_coordinate(self):
        spec = _one_factor_instance(seed=5)
        fit = v.fit_lmm(spec, method="ml")
        e1 = np.zeros(len(fit.beta_hat))
        e1[0] = 1.0
        est, se = v.contrast(fit, e1)
        assert np.isclose(est, fit.beta_hat[0])
        assert np.isclose(se, np.sqrt(fit.beta_cov[0, 0]))

    def test_length_mismatch_rejected(self):
        spec = _one_factor_instance(seed=5)
        fit = v.fit_lmm(spec, method="ml")
        with pytest.raises(ValidationError):
            v.contrast(fit, np.ones(5))


def _dense_neg_loglik(theta, spec, method):
    """Reference objective: dense V = s2_e I + sum s2_l Z_l Z_l', its Cholesky
    factor, GLS by solves with it; 1e30 where V is not numerically PD."""
    y, X = spec.y, spec.X
    n, p = X.shape
    V = np.exp(theta[0]) * np.eye(n)
    for th, g in zip(theta[1:], spec.random):
        Z = _incidence(g)
        V += np.exp(th) * (Z @ Z.T)
    try:
        c = linalg.cholesky(V, lower=True)
    except linalg.LinAlgError:
        return 1e30
    ViX = linalg.cho_solve((c, True), X)
    A = X.T @ ViX
    beta = np.linalg.solve(A, ViX.T @ y)
    r = y - X @ beta
    ll = 2.0 * np.sum(np.log(np.diag(c))) + r @ linalg.cho_solve((c, True), r)
    if method == "ml":
        return 0.5 * (n * np.log(2 * np.pi) + ll)
    return 0.5 * ((n - p) * np.log(2 * np.pi) + ll + np.linalg.slogdet(A)[1])


def _central_gradient(f, theta, h):
    e = np.eye(len(theta)) * h
    return np.array([(f(theta + d) - f(theta - d)) / (2 * h) for d in e])


def _incidence(codes):
    Z = np.zeros((len(codes), codes.max() + 1))
    Z[np.arange(len(codes)), codes] = 1.0
    return Z


def _layout(name, rng):
    """Response, fixed design and random level codes of one test layout."""
    if name == "split_plot":  # replicates, wholeplots nested in them
        rep, wp, sp = np.meshgrid(range(3), range(2), range(3), indexing="ij")
        rep, wp, sp = rep.ravel(), wp.ravel(), sp.ravel()
        trt = wp * 3 + sp
        random = (rep, rep * 2 + wp)
        y = trt * 0.3 + rng.normal(size=3)[rep] + rng.normal(size=6)[rep * 2 + wp]
    elif name == "latin_square":  # crossed rows and columns, one cell blanked
        row, col = (a.ravel() for a in np.meshgrid(range(4), range(4), indexing="ij"))
        keep = np.arange(16) != 6
        row, col = row[keep], col[keep]
        trt = (row + col) % 4
        random = (row, col)
        y = trt * 0.5 + rng.normal(size=4)[row] + rng.normal(size=4)[col]
    elif name == "custom":  # one blocking factor, unequal block sizes
        blk = np.repeat(np.arange(5), [2, 3, 4, 5, 6])
        trt = np.arange(len(blk)) % 3
        random = (blk,)
        y = trt * 0.5 + 2.0 * rng.normal(size=5)[blk]
    else:  # no random factor: q = 0
        trt = np.arange(12) % 3
        random = ()
        y = trt * 0.5
    n = len(trt)
    y = y + rng.normal(size=n)
    X = np.column_stack([_incidence(trt), rng.normal(size=n)])
    return v.LmmSpec(y=y, X=X, random=random)


@pytest.mark.parametrize("layout", ["split_plot", "latin_square", "custom", "no_random"])
@pytest.mark.parametrize("method", ["ml", "reml"])
class TestMmeObjectiveAgainstDense:
    def test_value_and_gradient_at_random_points(self, layout, method):
        rng = np.random.default_rng(7)
        spec = _layout(layout, rng)
        cp = lmm._cross_products(spec)
        k = len(spec.random) + 1
        center = np.log(np.var(spec.y))
        for _ in range(20):
            theta = center + rng.uniform(-4.0, 4.0, size=k)
            f, g = lmm_neg_loglik(theta, cp, method)
            ref = _dense_neg_loglik(theta, spec, method)
            assert abs(f - ref) <= 1e-10 * abs(ref)
            cd = _central_gradient(lambda t: _dense_neg_loglik(t, spec, method), theta, 1e-5)
            assert np.max(np.abs(g - cd)) <= 1e-5 * (1.0 + np.max(np.abs(g)))

    def test_hessian_matches_differenced_gradient(self, layout, method):
        """The exact Hessian against central differences of the analytic
        gradient, at random points and at points where one component sits at
        1e-6 of the residual variance."""
        rng = np.random.default_rng(12)
        spec = _layout(layout, rng)
        cp = lmm._cross_products(spec)
        k = len(spec.random) + 1
        center = np.log(np.var(spec.y))
        points = [center + rng.uniform(-4.0, 4.0, size=k) for _ in range(10)]
        for l in range(1, k):
            for _ in range(3):
                theta = center + rng.uniform(-2.0, 2.0, size=k)
                theta[l] = theta[0] + np.log(1e-6)
                points.append(theta)
        for theta in points:
            H = lmm._Point(theta, cp, method).hess
            cd = np.array([
                (lmm._Point(theta + d, cp, method).grad - lmm._Point(theta - d, cp, method).grad) / 2e-5
                for d in np.eye(k) * 1e-5
            ])
            assert np.allclose(H, H.T, rtol=0.0, atol=1e-12 * np.max(np.abs(H)))
            assert np.max(np.abs(H - cd)) <= 1e-6 * np.max(np.abs(cd)), theta

    def test_bounds_give_finite_values(self, layout, method):
        rng = np.random.default_rng(8)
        spec = _layout(layout, rng)
        cp = lmm._cross_products(spec)
        k = len(spec.random) + 1
        vary = np.var(spec.y)
        lo, hi = np.log(1e-14 * vary), np.log(1e8 * vary)
        fit = v.fit_lmm(spec, method=method)
        for corner in np.array(np.meshgrid(*[[lo, hi]] * k)).reshape(k, -1).T:
            f, g = lmm_neg_loglik(corner, cp, method)
            assert np.isfinite(f) and np.all(np.isfinite(g))
            # no point beats the maximum, and a point where every variance
            # sits at one bound (ratios 1) is well conditioned
            assert f >= -fit.loglik - 1e-9 * abs(fit.loglik)
            if np.ptp(corner) == 0:
                ref = _dense_neg_loglik(corner, spec, method)
                assert abs(f - ref) <= 1e-10 * abs(ref)


def _lmm_golden_fits():
    """Every golden ``fit`` case that reaches fit_lmm (one per LMM problem)."""
    cases = json.loads((GOLDEN_DIR / "golden.json").read_text())
    return [c for c in cases if c["args"][0] == "fit"
            and c["args"][2] in ("mixed", "bivariate", "orthogonal")
            and not (c["args"][2] == "bivariate" and c["data"] == "rcb"
                     and c["args"][4] == "ml")]


@pytest.mark.parametrize(
    "case", _lmm_golden_fits(), ids=lambda c: f"{c['data']}-{c['args'][2]}-{c['args'][4]}"
)
def test_golden_variance_components_are_stationary(case, monkeypatch, capsys):
    """The printed variance components of every LMM-backed golden zero the
    likelihood gradient: the goldens hold the maximum, not where an
    optimizer happened to stop."""
    seen = []
    real = orthogonal_conditional.fit_lmm

    def spy(spec, method="ml", **kw):
        seen.append((spec, method))
        return real(spec, method=method, **kw)

    monkeypatch.setattr(orthogonal_conditional, "fit_lmm", spy)
    data, design = GOLDEN_DIR / f"{case['data']}.csv", GOLDEN_DIR / f"{case['data']}.json"
    assert main(case["args"] + ["--data", str(data), "--design", str(design)]) == case["code"]
    capsys.readouterr()
    (spec, method), = seen
    fields = dict(line.split("\t") for line in case["stdout"].split("\n\n")[0].split("\n"))
    if "sigma_e2" in fields:
        printed = [fields["sigma_e2"], fields["sigma_b2"]]
    else:
        printed = [fields["varcomp[residual]"]] + [fields[f"varcomp[{n}]"] for n in spec.names]
    sig = np.array([float(s) for s in printed])
    free = sig > 0
    theta = np.log(np.where(free, sig, 1.0))

    def f(th):
        return _dense_neg_loglik(np.where(free, th, -np.inf), spec, method)

    g = _central_gradient(f, theta, 1e-4)
    assert np.max(np.abs(g[free])) < 1e-7, g


class TestConvergenceFromGradient:
    def test_max_iter_is_not_convergence(self):
        spec = _one_factor_instance(seed=3)
        fit = v.fit_lmm(spec, method="reml", max_iter=1)
        assert not fit.converged
        assert "non_convergence" in fit.flags

    def test_stop_says_why_the_steps_ended(self):
        spec = _one_factor_instance(seed=3)
        for method in ("ml", "reml"):
            capped = v.fit_lmm(spec, method=method, max_iter=1)
            assert capped.stop == "max_iter" and capped.iterations == 1
            fit = v.fit_lmm(spec, method=method)
            assert fit.stop == "gradient" and fit.converged

    def test_default_fit_ends_at_the_gradient_root(self):
        for method in ("ml", "reml"):
            spec = _layout("latin_square", np.random.default_rng(11))
            fit = v.fit_lmm(spec, method=method)
            assert fit.converged and "non_convergence" not in fit.flags
            vary = np.var(spec.y)
            lo, hi = np.log(1e-14 * vary), np.log(1e8 * vary)
            sig = np.r_[fit.sigma_e2, fit.sigma2]
            theta = np.log(np.where(sig > 0, sig, 1e-14 * vary))
            _, g = lmm_neg_loglik(theta, lmm._cross_products(spec), method)
            projected = np.clip(theta - g, lo, hi) - theta
            assert np.max(np.abs(projected)) < lmm.optimize._GRAD_TOL


def _boundary_draw(kind, seed, k=None):
    """A layout whose variance components often vanish: a 4 x 8 RCB with no
    block effect, or a k x k Latin square (k = 4, 5, 6 unless given) with
    column effects and a covariate, with no row effect (``latin_square``)
    or with one (``latin_square_row``)."""
    rng = np.random.default_rng(seed)
    if kind == "rcb":
        trt, blk = np.tile(np.arange(4), 8), np.repeat(np.arange(8), 4)
        y = 0.5 * trt + rng.normal(size=32)
        return v.LmmSpec(y=y, X=_incidence(trt), random=(blk,), names=("block",))
    k = 4 + seed % 3 if k is None else k
    row, col = (a.ravel() for a in np.meshgrid(range(k), range(k), indexing="ij"))
    trt = (row + col) % k
    z = rng.normal(size=k)[row] + rng.normal(size=k)[col] + rng.normal(size=k * k)
    row_eff = rng.normal(size=k)[row] if kind == "latin_square_row" else 0.0
    y = 0.5 * trt + 0.7 * z + rng.normal(size=k)[col] + row_eff + rng.normal(size=k * k)
    X = np.column_stack([_incidence(trt), z])
    return v.LmmSpec(y=y, X=X, random=(row, col), names=("row", "col"))


def _dense_profile_deviance(spec, method, phi):
    """-2 x the one-factor (restricted) log-likelihood at the variance ratio
    ``phi`` = s2_b / s2_e, with s2_e profiled out; dense n x n algebra."""
    y, X = spec.y, spec.X
    n, p = X.shape
    Z = _incidence(spec.random[0])
    c = linalg.cholesky(np.eye(n) + phi * (Z @ Z.T), lower=True)
    KiX = linalg.cho_solve((c, True), X)
    A = X.T @ KiX
    r = y - X @ np.linalg.solve(A, KiX.T @ y)
    rss = r @ linalg.cho_solve((c, True), r)
    dof = n if method == "ml" else n - p
    dev = dof * (np.log(2 * np.pi * rss / dof) + 1.0) + 2.0 * np.sum(np.log(np.diag(c)))
    return dev + (np.linalg.slogdet(A)[1] if method == "reml" else 0.0)


class TestBoundaryOptimum:
    def test_vanishing_block_variance_is_exactly_zero(self):
        """On no-block RCB draws whose dense profile likelihood peaks at
        s2_b = 0 over a ratio grid 1e-8 ... 1e3, the fit puts the block
        variance exactly on zero and flags the boundary."""
        grid = np.logspace(-8, 3, 221)
        at_bound = 0
        for seed in range(20):
            spec = _boundary_draw("rcb", seed)
            for method in ("ml", "reml"):
                zero = _dense_profile_deviance(spec, method, 0.0)
                if min(_dense_profile_deviance(spec, method, phi) for phi in grid) < zero:
                    continue  # an interior optimum
                at_bound += 1
                fit = v.fit_lmm(spec, method=method)
                assert fit.sigma2[0] == 0.0, (seed, method, fit.sigma2)
                assert "boundary" in fit.flags and fit.converged
        assert at_bound >= 10

    def test_one_optimizer_run_per_fit(self, monkeypatch):
        calls = []
        real = lmm.optimize.minimize

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lmm, "optimize", SimpleNamespace(minimize=counting))
        rng = np.random.default_rng(9)
        for layout in ("split_plot", "latin_square", "custom", "no_random"):
            for method in ("ml", "reml"):
                calls.clear()
                v.fit_lmm(_layout(layout, rng), method=method)
                assert len(calls) == 1, (layout, method)

    @pytest.mark.parametrize("method", ["ml", "reml"])
    @pytest.mark.parametrize("kind", ["rcb", "latin_square", "latin_square_row"])
    def test_fit_reaches_the_best_of_five_starts(self, kind, method):
        """One start and the bound rule lose nothing against the best of five
        L-BFGS-B runs on draws where components vanish.

        The 4 x 4 row-effect draw 1015 has an interior ML maximum next to a
        row-variance-zero basin 0.037 lower, which Newton steps on the
        average-information curvature plus diag(g) walk into.  Under REML
        its maximum lies in that basin, and the interior REML maximum that
        one start reaches is 0.015 lower, so it is held under ML only."""
        seeds = list(range(12)) + [1015] * (kind == "latin_square_row" and method == "ml")
        for seed in seeds:
            spec = _boundary_draw(kind, seed, k=4 if seed == 1015 else None)
            fit = v.fit_lmm(spec, method=method)
            assert fit.loglik >= lmm_best_of_starts(spec, method) - 1e-8, seed


def test_fit_forms_no_n_by_n_array():
    """A 2 x 100 x 3 split plot (n = 600, 200 wholeplots): the fit's peak
    allocation stays below the size of one n x n float array."""
    rng = np.random.default_rng(5)
    wp, sp = np.repeat(np.arange(200), 3), np.tile(np.arange(3), 200)
    trt = (wp % 2) * 3 + sp
    y = trt * 0.5 + rng.normal(size=200)[wp] + rng.normal(size=600)
    X = np.column_stack([_incidence(trt), rng.normal(size=600)])
    spec = v.LmmSpec(y=y, X=X, random=(wp,))
    tracemalloc.start()
    try:
        fit = v.fit_lmm(spec, method="reml")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < 600 * 600 * 8


def test_one_factor_fit_forms_no_q_by_q_array():
    """One random factor with q = 2000 levels, two records each: the REML
    fit's peak allocation stays below the size of one q x q float array."""
    rng = np.random.default_rng(6)
    q = 2000
    g = np.repeat(np.arange(q), 2)
    X = np.column_stack([np.ones(len(g)), rng.normal(size=len(g))])
    y = X @ np.array([1.0, 0.5]) + rng.normal(size=q)[g] + rng.normal(size=len(g))
    spec = v.LmmSpec(y=y, X=X, random=(g,))
    tracemalloc.start()
    try:
        fit = v.fit_lmm(spec, method="reml")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < q * q * 8


def test_conditional_fit_forms_no_n_by_d_incidence():
    """A two-slope conditional REML fit of an RCB with t = 2 and b = 2000
    blocks (n = 4000) through the conditional builder: its peak allocation
    stays below the size of one n x b float array."""
    cfg = v.SimConfig(t=2, b=2000, params=interior_bivariate_params(2), replicates=1, seed=3)
    ds = v.gen_bivariate_rcb(cfg)[0]
    tracemalloc.start()
    try:
        fit = v.fit_conditional_ibd(ds, cfg.design_spec, method="reml")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.lmm_fit.converged
    assert peak < 4000 * 2000 * 8
