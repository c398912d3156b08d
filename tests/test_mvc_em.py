import importlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, stats

import vcadjust as v
from vcadjust.data_model import StackedData, load_dataset, load_design_spec
from vcadjust.errors import SingularityError
from vcadjust.mvc_em import (
    _EM_START,
    EStepMoments,
    MVCParams,
    _coord_bounds,
    _coords,
    _factorise,
    _Profile,
    _terms,
    initial_params,
    make_model,
)

from conftest import drop_cells, interior_bivariate_params
from oracle_utils import (
    C_list,
    D_list,
    KroneckerCovariance,
    W_list,
    assemble_V,
    direct_max_loglik,
    kron_cov_dense,
    make_oracle_instance,
    rcb_partition,
)


def _rcb_stacked(seed=1, t=6, b=4, params=None):
    params = params if params is not None else interior_bivariate_params(t)
    cfg = v.SimConfig(t=t, b=b, params=params, replicates=1, seed=seed)
    ds = v.gen_bivariate_rcb(cfg)[0]
    return ds, cfg.design_spec, v.build_stacked(ds, cfg.design_spec)


def _univariate_stacked(n=4, seed=0):
    """m = 0, no random factors: the stacked model is plain regression."""
    spec = v.DesignSpec(
        response="y",
        treatment_factors=("treatment",),
        blocking_factors=(),
        covariates=(),
        recipe="custom",
    )
    rng = np.random.default_rng(seed)
    ds = v.Dataset(
        factors={"treatment": np.array(["A", "A", "B", "B"][:n], dtype=object)},
        response=rng.normal(size=n),
        covariates=np.zeros((n, 0)),
        covariate_names=(),
        levels={},
    )
    return v.build_stacked(ds, spec)


class TestAssembleV:
    def test_rcb_layout_permutation_oracle(self):
        ds, spec, sd = _rcb_stacked()
        SB = np.array([[6.0, 2.0], [2.0, 2.0]])
        SE = np.array([[2.0, 0.6], [0.6, 0.8]])
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]), sigma2=np.zeros(0), Sigmas=(SE, SB)
        )
        V = assemble_V(make_model(sd, params))
        n = sd.n_obs
        W = W_list(sd)[0]
        direct = np.kron(SE, np.eye(n)) + np.kron(SB, W @ W.T)
        assert np.max(np.abs(V - direct)) <= 1e-12
        # regroup per block: the two-stratum block covariance, tiled
        t, b = len(sd.treatments), sd.block_levels[0]
        kc = KroneckerCovariance(
            partition=rcb_partition(t), strata=(SE + t * SB, SE)
        )
        block = kron_cov_dense(kc)
        treat_of_record = sd.X[:n, sd.treat_cols].argmax(axis=1)
        order = np.lexsort((treat_of_record, sd.block_codes[0]))
        for j in range(b):
            recs = order[j * t : (j + 1) * t]
            pos = np.concatenate([var * n + recs for var in range(2)])
            assert np.max(np.abs(V[np.ix_(pos, pos)] - block)) <= 1e-12

    def test_identity_when_trivial(self):
        sd = _univariate_stacked()
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]), sigma2=np.zeros(0), Sigmas=(np.eye(1),)
        )
        assert np.allclose(assemble_V(make_model(sd, params)), np.eye(4))

    def test_random_treatment_factor_adds_response_diagonal(self):
        ds, spec, _ = _rcb_stacked()
        sd = v.build_stacked(ds, spec, random_treatment_terms=[("treatment", "block")])
        n = sd.n_obs
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]),
            sigma2=np.array([2.0]),
            Sigmas=(np.eye(2), np.zeros((2, 2))),
        )
        V = assemble_V(make_model(sd, params))
        expected = np.eye(2 * n)
        expected[:n, :n] += 2.0 * np.eye(n)
        assert np.max(np.abs(V - expected)) <= 1e-12


class TestObservedLoglik:
    def test_standard_normal_at_mean(self):
        sd = _univariate_stacked(n=4)
        beta = np.linalg.lstsq(sd.X, sd.z, rcond=None)[0]
        sd0 = StackedData(**{**sd.__dict__, "z": sd.X @ beta})
        params = MVCParams(beta=beta, sigma2=np.zeros(0), Sigmas=(np.eye(1),))
        ll = v.observed_loglik(make_model(sd0, params))
        assert np.isclose(ll, -2.0 * np.log(2 * np.pi), atol=1e-12)

    def test_matches_textbook_density(self):
        ds, spec, sd = _rcb_stacked(t=3, b=1 + 1)  # small: n=6, dim 12
        rng = np.random.default_rng(0)
        for _ in range(3):
            params = MVCParams(
                beta=rng.normal(size=sd.X.shape[1]),
                sigma2=np.zeros(0),
                Sigmas=(
                    np.array([[2.0, 0.3], [0.3, 1.0]]),
                    np.array([[1.0, 0.2], [0.2, 0.5]]),
                ),
            )
            model = make_model(sd, params)
            V = assemble_V(model)
            ref = stats.multivariate_normal.logpdf(
                sd.z, mean=sd.X @ params.beta, cov=V
            )
            assert np.isclose(v.observed_loglik(model), ref, atol=1e-12)

    def test_inflating_residual_at_mean_decreases_loglik(self):
        sd = _univariate_stacked(n=4)
        beta = np.linalg.lstsq(sd.X, sd.z, rcond=None)[0]
        sd0 = StackedData(**{**sd.__dict__, "z": sd.X @ beta})
        lls = []
        for s in (1.0, 2.0, 5.0):
            params = MVCParams(beta=beta, sigma2=np.zeros(0), Sigmas=(s * np.eye(1),))
            lls.append(v.observed_loglik(make_model(sd0, params)))
        assert lls[0] > lls[1] > lls[2]

    def test_non_pd_rejected(self):
        sd = _univariate_stacked(n=4)
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]), sigma2=np.zeros(0), Sigmas=(-np.eye(1),)
        )
        with pytest.raises(SingularityError):
            v.observed_loglik(make_model(sd, params))

    def test_structured_inverse_matches_dense(self):
        ds, spec, sd = _rcb_stacked()
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]),
            sigma2=np.zeros(0),
            Sigmas=(
                np.array([[2.0, 0.6], [0.6, 0.8]]),
                np.array([[6.0, 2.0], [2.0, 2.0]]),
            ),
        )
        model = make_model(sd, params)
        factor = _factorise(model)
        V = assemble_V(model)
        Vinv = factor.solve(np.eye(V.shape[0]))
        assert np.max(np.abs(Vinv - np.linalg.inv(V))) < 1e-9
        assert np.isclose(factor.logdet, np.linalg.slogdet(V)[1], atol=1e-9)


def _random_cov(rng, k):
    L = rng.normal(size=(k, k))
    return L @ L.T + 0.5 * np.eye(k)


def _latin_square_stacked(seed=0, b=4, m=2, blank=()):
    """A b x b Latin square with m covariates: two blocking factors.

    ``blank`` lists (row, column) cells whose response and covariates are
    missing.
    """
    rng = np.random.default_rng(seed)
    rows, cols, trts = zip(
        *[(f"r{i}", f"c{j}", f"T{(i + j) % b}") for i in range(b) for j in range(b)]
    )
    names = tuple(f"z{j + 1}" for j in range(m))
    y, Z = rng.normal(size=b * b), rng.normal(size=(b * b, m))
    for i, j in blank:
        y[i * b + j], Z[i * b + j] = np.nan, np.nan
    spec = v.DesignSpec(
        response="y",
        treatment_factors=("trt",),
        blocking_factors=("row", "col"),
        covariates=names,
        recipe="latin_square",
    )
    ds = v.Dataset(
        factors={
            "trt": np.array(trts, dtype=object),
            "row": np.array(rows, dtype=object),
            "col": np.array(cols, dtype=object),
        },
        response=y,
        covariates=Z,
        covariate_names=names,
        levels={},
    )
    return v.build_stacked(ds, spec)


class TestFactorisation:
    """The one factorisation of V against the dense covariance."""

    def _check_against_dense(self, sd, params, seed=0):
        model = make_model(sd, params)
        factor = _factorise(model)
        V = assemble_V(model)
        Vinv = np.linalg.inv(V)
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(V.shape[0], 3))
        r = sd.z - sd.X @ params.beta
        assert np.max(np.abs(factor.solve(Y) - Vinv @ Y)) < 1e-9
        assert np.isclose(factor.logdet, np.linalg.slogdet(V)[1], atol=1e-9)
        assert np.isclose(factor.quad(r)[0], r @ Vinv @ r, rtol=1e-9, atol=1e-9)

    def test_rcb_with_blanked_cells_and_random_interaction(self):
        ds, spec, _ = _rcb_stacked(seed=3)
        ds = drop_cells(ds, [("T01", "B01"), ("T04", "B03")])
        sd = v.build_stacked(ds, spec, random_treatment_terms=[("treatment", "block")])
        assert len(C_list(sd)) == 1
        rng = np.random.default_rng(3)
        params = MVCParams(
            beta=rng.normal(size=sd.X.shape[1]),
            sigma2=np.array([0.7]),
            Sigmas=(_random_cov(rng, 2), _random_cov(rng, 2)),
        )
        self._check_against_dense(sd, params)

    def test_latin_square_with_two_covariates(self):
        sd = _latin_square_stacked()
        assert sd.m == 2 and len(W_list(sd)) == 2
        rng = np.random.default_rng(5)
        params = MVCParams(
            beta=rng.normal(size=sd.X.shape[1]),
            sigma2=np.zeros(0),
            Sigmas=tuple(_random_cov(rng, 3) for _ in range(3)),
        )
        self._check_against_dense(sd, params, seed=5)

    def test_components_outside_the_parameter_space_rejected(self):
        ds, spec, _ = _rcb_stacked()
        sd = v.build_stacked(ds, spec, random_treatment_terms=[("treatment", "block")])
        # V stays positive definite: the residual outweighs either defect
        indefinite = MVCParams(
            beta=np.zeros(sd.X.shape[1]),
            sigma2=np.array([0.1]),
            Sigmas=(10.0 * np.eye(2), np.diag([1.0, -0.1])),
        )
        negative = MVCParams(
            beta=np.zeros(sd.X.shape[1]),
            sigma2=np.array([-0.1]),
            Sigmas=(10.0 * np.eye(2), np.eye(2)),
        )
        for params, name in ((indefinite, "Sigma1"), (negative, r"sigma2\[0\]")):
            model = make_model(sd, params)
            assert np.linalg.eigvalsh(assemble_V(model)).min() > 0
            with pytest.raises(SingularityError, match=name):
                v.observed_loglik(model)


def _dense_random_terms(sd, params):
    """Dense incidence M = [C_j, D_i] and prior covariance Psi of u."""
    M = np.hstack(C_list(sd) + D_list(sd))
    Psi = linalg.block_diag(
        *[s2 * np.eye(C.shape[1]) for s2, C in zip(params.sigma2, C_list(sd))],
        *[np.kron(S, np.eye(W.shape[1])) for S, W in zip(params.Sigmas[1:], W_list(sd))],
    )
    return M, Psi


def _dense_posterior(factor):
    """P = (I + A'A)^-1 = var(v | z), column by column from the solves of
    the factor's mixed-model equations."""
    return factor.mme.upper(factor.mme.lower(np.eye(factor.mme.layout.q)))


def _assert_close(a, b, tol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= tol * max(1.0, np.max(np.abs(b), initial=0.0))


def _rcb_layout():
    """RCB with two blanked cells and a random treatment x block term."""
    ds, spec, _ = _rcb_stacked(seed=3)
    ds = drop_cells(ds, [("T01", "B01"), ("T04", "B03")])
    sd = v.build_stacked(ds, spec, random_treatment_terms=[("treatment", "block")])
    rng = np.random.default_rng(11)
    params = MVCParams(
        beta=rng.normal(size=sd.X.shape[1]),
        sigma2=np.array([0.7]),
        Sigmas=(_random_cov(rng, 2), _random_cov(rng, 2)),
    )
    return sd, params


def _latin_square_layout():
    # a blanked off-diagonal cell makes the row x column count matrix
    # asymmetric, so a transposed count matrix shows
    sd = _latin_square_stacked(seed=2, blank=[(0, 1)])
    rng = np.random.default_rng(12)
    params = MVCParams(
        beta=rng.normal(size=sd.X.shape[1]),
        sigma2=np.zeros(0),
        Sigmas=tuple(_random_cov(rng, 3) for _ in range(3)),
    )
    return sd, params


def _tau_rcb_layout():
    """RCB whose treatments shift the covariate, one blanked cell and a
    random treatment x block term carried by both variables."""
    cfg = v.SimConfig(
        t=3, b=6, params=interior_bivariate_params(3), replicates=1, seed=7,
        tau_z=np.array([-0.8, 0.0, 0.8]),
    )
    ds = drop_cells(v.gen_bivariate_rcb(cfg)[0], [("T02", "B04")])
    spec = replace(cfg.design_spec, treatments_affect_covariates=True)
    sd = v.build_stacked(ds, spec, random_treatment_terms=[("treatment", "block")])
    rng = np.random.default_rng(13)
    params = MVCParams(
        beta=rng.normal(size=sd.X.shape[1]),
        sigma2=np.array([0.4]),
        Sigmas=(_random_cov(rng, 2), _random_cov(rng, 2)),
    )
    return sd, params


LAYOUTS = {"_rcb": _rcb_layout, "_latin_square": _latin_square_layout, "_tau_rcb": _tau_rcb_layout}


class TestKroneckerTermsAgainstDense:
    """E-step moments and adjusted-means covariance, taken from group codes
    and count matrices, against the dense posterior built from assemble_V
    and the dense incidences."""

    @pytest.mark.parametrize("layout", ["_rcb", "_latin_square"])
    def test_e_step_matches_dense_posterior(self, layout):
        sd, params = LAYOUTS[layout]()
        model = make_model(sd, params)
        mp1 = sd.m + 1
        M, Psi = _dense_random_terms(sd, params)
        Vinv = np.linalg.inv(assemble_V(model))
        r = sd.z - sd.X @ params.beta
        Eu = Psi @ M.T @ Vinv @ r
        Vu = Psi - Psi @ M.T @ Vinv @ M @ Psi

        factor = _factorise(model)
        root = linalg.block_diag(
            *[np.kron(Q, np.eye(d)) for Q, d in zip(factor.roots, factor.terms.levels)]
        )
        _assert_close(root @ _dense_posterior(factor) @ root.T, Vu)

        mom = v.e_step(model, _factor=factor)
        off = 0
        for C, mu, sq in zip(C_list(sd), mom.t_mean, mom.t_sq):
            sl = slice(off, off + C.shape[1])
            _assert_close(mu, Eu[sl])
            _assert_close(sq, Eu[sl] @ Eu[sl] + np.trace(Vu[sl, sl]))
            off = sl.stop
        for W, mu, sq in zip(W_list(sd), mom.b_mean, mom.b_sq):
            d = W.shape[1]
            sl = slice(off, off + mp1 * d)
            E = Eu[sl].reshape(mp1, d)
            blocks = Vu[sl, sl].reshape(mp1, d, mp1, d)
            _assert_close(mu, Eu[sl])
            _assert_close(sq, E @ E.T + np.einsum("aibi->ab", blocks))
            off = sl.stop
        assert off == len(Eu)
        _assert_close(mom.resid_less_effects, sd.z - M @ Eu)
        cell = (M @ Vu @ M.T).reshape(mp1, sd.n_obs, mp1, sd.n_obs)
        _assert_close(mom.b0_trace, np.einsum("aibi->ab", cell))

    @pytest.mark.parametrize("layout", ["_rcb", "_latin_square"])
    def test_adjusted_means_covariance_matches_dense_sandwich(self, layout):
        sd, params = LAYOUTS[layout]()
        model = make_model(sd, params)
        fit = v.MVCFit(
            model=model, loglik_trace=np.array([0.0]), iterations=0, converged=True
        )
        res = v.adjusted_means_mvc(fit)
        V = assemble_V(model)
        n, X = sd.n_obs, sd.X
        Vinv = np.linalg.inv(V)
        info_inv = np.linalg.inv(X.T @ Vinv @ X)
        # response block replaced by its covariate-conditional Schur complement
        cond = V[:n, :n] - V[:n, n:] @ np.linalg.solve(V[n:, n:], V[n:, :n])
        U0 = (Vinv @ X)[:n]
        full = info_inv @ U0.T @ cond @ U0 @ info_inv
        idx = sd.treat_cols
        _assert_close(res.covariance, full[np.ix_(idx, idx)])
        assert np.array_equal(res.means, params.beta[idx])


def _dense_profile_nll(sd, sigma2, Sigmas):
    """Negative profile log-density of the dense assemble_V covariance,
    with the fixed effects at their GLS values; and those values."""
    params = MVCParams(beta=np.zeros(sd.X.shape[1]), sigma2=sigma2, Sigmas=tuple(Sigmas))
    L = np.linalg.cholesky(assemble_V(make_model(sd, params)))
    Xw = linalg.solve_triangular(L, sd.X, lower=True)
    zw = linalg.solve_triangular(L, sd.z, lower=True)
    beta = np.linalg.lstsq(Xw, zw, rcond=None)[0]
    r = zw - Xw @ beta
    return 0.5 * (len(zw) * np.log(2 * np.pi) + 2 * np.log(np.diag(L)).sum() + r @ r), beta


def _coords_components(sd, x):
    """sigma2 and Sigmas at relative Cholesky coordinates x: the lower
    triangle of L0 (diagonal as logs), theta_j = sigma_j / L0[0, 0] per
    random treatment term, then the lower triangle of T_k per blocking
    factor, Sigma_k = L0 T_k T_k' L0'."""
    mp1, r = sd.m + 1, len(C_list(sd))
    il = np.tril_indices(mp1)
    k = len(il[0])
    L0 = np.zeros((mp1, mp1))
    L0[il] = x[:k]
    L0[np.diag_indices(mp1)] = np.exp(np.diag(L0))
    Sigmas = [L0 @ L0.T]
    for j in range(k + r, len(x), k):
        T = np.zeros((mp1, mp1))
        T[il] = x[j : j + k]
        Sigmas.append(L0 @ T @ T.T @ L0.T)
    return (x[k : k + r] * L0[0, 0]) ** 2, Sigmas


def _dense_coords_nll(sd, x):
    """:func:`_dense_profile_nll` at relative Cholesky coordinates x."""
    return _dense_profile_nll(sd, *_coords_components(sd, x))


def _dense_coords_V(sd, x):
    """The dense assemble_V covariance at relative Cholesky coordinates x."""
    sigma2, Sigmas = _coords_components(sd, x)
    params = MVCParams(beta=np.zeros(sd.X.shape[1]), sigma2=sigma2, Sigmas=tuple(Sigmas))
    return assemble_V(make_model(sd, params))


def _profile_points(sd, params):
    """The coordinates of ``params``, a random move from them, the move with
    every bounded coordinate (theta_j, diag T_k) at 0, and with only the
    last one at 0."""
    terms = _terms(sd)
    x = _coords(params, terms)
    lo = _coord_bounds(terms)
    rng = np.random.default_rng(0)
    moved = np.maximum(x + 0.3 * rng.normal(size=len(x)), lo)
    edge = np.where(lo == 0, 0.0, moved)
    one = moved.copy()
    one[np.flatnonzero(lo == 0)[-1]] = 0.0
    return terms, x, [x, moved, edge, one]


class TestFinisherAgainstDense:
    """The finisher's profile likelihood and analytic gradient against the
    dense covariance, at random points and at points where a Cholesky
    diagonal of a component is exactly 0."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_value_matches_dense_density(self, layout):
        sd, params = LAYOUTS[layout]()
        terms, x, points = _profile_points(sd, params)
        # the coordinates represent the parameter point they came from
        want = _dense_profile_nll(sd, params.sigma2, params.Sigmas)[0]
        assert abs(_dense_coords_nll(sd, x)[0] - want) <= 1e-10 * abs(want)
        for pt in points:
            prof = _Profile(pt, terms, sd.X, sd.z)
            dense, dense_beta = _dense_coords_nll(sd, pt)
            assert abs(prof.nll - dense) <= 1e-10 * abs(dense)
            _assert_close(prof.beta, dense_beta, tol=1e-8)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_gradient_matches_central_differences(self, layout):
        sd, params = LAYOUTS[layout]()
        terms, _, points = _profile_points(sd, params)
        h = 1e-6
        for pt in points:
            g = _Profile(pt, terms, sd.X, sd.z).grad
            num = np.array([
                (_dense_coords_nll(sd, pt + h * e)[0] - _dense_coords_nll(sd, pt - h * e)[0]) / (2 * h)
                for e in np.eye(len(pt))
            ])
            assert np.all(np.isfinite(g))
            assert np.max(np.abs(g - num)) <= 1e-6 * max(1.0, np.max(np.abs(num))), (g, num)


class TestCurvatureAgainstDense:
    """The Newton steps' curvature H = AI + N against the dense covariance,
    at the points of :class:`TestFinisherAgainstDense`."""

    @staticmethod
    def _dense(sd, pt):
        """V^-1, the GLS projection P and V^-1 r = P z."""
        Vi = np.linalg.inv(_dense_coords_V(sd, pt))
        X = sd.X
        P = Vi - Vi @ X @ np.linalg.solve(X.T @ Vi @ X, X.T @ Vi)
        return Vi, P, P @ sd.z

    @staticmethod
    def _dV(sd, pt, h=1e-5):
        """The derivatives of V in the coordinates, by central differences."""
        return [
            (_dense_coords_V(sd, pt + h * e) - _dense_coords_V(sd, pt - h * e)) / (2 * h)
            for e in np.eye(len(pt))
        ]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_average_information_matches_dense(self, layout):
        sd, params = LAYOUTS[layout]()
        terms, _, points = _profile_points(sd, params)
        for pt in points:
            _, P, Vir = self._dense(sd, pt)
            W = np.column_stack([dVi @ Vir for dVi in self._dV(sd, pt)])  # (dV/dx_i) V^-1 r
            want = 0.5 * W.T @ P @ W
            AI, _ = _Profile(pt, terms, sd.X, sd.z).curvature()
            assert np.max(np.abs(AI - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_block_gradient_is_twice_gamma_times_loading(self, layout):
        # Gamma_k = df/dSigma_k from the dense V: half the trace of each
        # variable block of V^-1 with Z_k Z_k', less that of V^-1 r r' V^-1
        sd, params = LAYOUTS[layout]()
        terms, _, points = _profile_points(sd, params)
        n, mp1, r = sd.n_obs, sd.m + 1, len(C_list(sd))
        il = np.tril_indices(mp1)
        k = len(il[0])
        for pt in points:
            Vi, _, Vir = self._dense(sd, pt)
            prof = _Profile(pt, terms, sd.X, sd.z)
            blk = lambda M, a, b: M[a * n : (a + 1) * n, b * n : (b + 1) * n]
            for j, W in enumerate(W_list(sd)):
                ZZ = W @ W.T
                R = Vir.reshape(mp1, n)
                Gam = 0.5 * np.array([
                    [np.trace(blk(Vi, b, a) @ ZZ) - R[a] @ ZZ @ R[b] for b in range(mp1)]
                    for a in range(mp1)
                ])
                whitened = prof.L0.T @ Gam @ prof.L0
                _assert_close(prof.gammas[1 + r + j], whitened, tol=1e-9)
                got = prof.grad[k + r + j * k : k + r + (j + 1) * k]
                _assert_close(got, (2 * whitened @ prof.wloads[r + j])[il], tol=1e-9)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_hessian_matches_differenced_gradient(self, layout):
        # the Hessian is 2 AI + N - tr(V^-1 V_i V^-1 V_j) / 2, and H = AI + N
        # drops the difference of the first and last terms, zero in mean
        sd, params = LAYOUTS[layout]()
        terms, _, points = _profile_points(sd, params)
        h = 1e-5
        for pt in points:
            Vi, dV = self._dense(sd, pt)[0], self._dV(sd, pt)
            AI, N = _Profile(pt, terms, sd.X, sd.z).curvature()
            tr = np.array([[np.trace(Vi @ a @ Vi @ b) for b in dV] for a in dV])
            num = np.array([
                (_Profile(pt + h * e, terms, sd.X, sd.z).grad
                 - _Profile(pt - h * e, terms, sd.X, sd.z).grad) / (2 * h)
                for e in np.eye(len(pt))
            ])
            _assert_close(2 * AI + N - 0.5 * tr, num, tol=1e-6)


class TestEStep:
    def test_zero_variance_factor_has_zero_moments(self):
        ds, spec, sd0 = _rcb_stacked()
        sd = v.build_stacked(ds, spec, random_treatment_terms=[("treatment", "block")])
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]),
            sigma2=np.array([0.0]),
            Sigmas=(np.eye(2), 0.5 * np.eye(2)),
        )
        mom = v.e_step(make_model(sd, params))
        assert np.allclose(mom.t_mean[0], 0.0)
        assert mom.t_sq[0] == 0.0

    def test_data_at_mean_gives_zero_conditional_means(self):
        ds, spec, sd = _rcb_stacked()
        beta = np.linalg.lstsq(sd.X, sd.z, rcond=None)[0]
        sd0 = StackedData(**{**sd.__dict__, "z": sd.X @ beta})
        params = MVCParams(
            beta=beta,
            sigma2=np.zeros(0),
            Sigmas=(np.eye(2), 0.5 * np.eye(2)),
        )
        mom = v.e_step(make_model(sd0, params))
        assert np.allclose(mom.b_mean[0], 0.0, atol=1e-12)
        assert np.allclose(mom.b0_mean, 0.0, atol=1e-12)
        # second moments reduce to the conditional-variance traces
        d = W_list(sd)[0].shape[1]
        assert np.allclose(mom.b_sq[0], mom.b_sq[0].T)
        assert np.all(np.diag(mom.b_sq[0]) > 0)

    def test_gauss_hermite_quadrature_oracle(self):
        # n=4 cells, m=1, one blocking factor with d=2: integrate the
        # 4-dimensional random-effect posterior on a tensor grid
        spec = v.DesignSpec(
            response="y",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=("z1",),
            recipe="custom",
        )
        ds = v.Dataset(
            factors={
                "treatment": np.array(["A", "B", "A", "B"], dtype=object),
                "block": np.array(["b1", "b1", "b2", "b2"], dtype=object),
            },
            response=np.array([1.0, 2.0, 0.5, 1.5]),
            covariates=np.array([[0.3], [0.8], [0.1], [0.9]]),
            covariate_names=("z1",),
            levels={},
        )
        sd = v.build_stacked(ds, spec)
        params = MVCParams(
            beta=np.array([1.0, 1.5, 0.5]),
            sigma2=np.zeros(0),
            Sigmas=(
                np.array([[0.8, 0.2], [0.2, 0.6]]),
                np.array([[0.7, 0.25], [0.25, 0.5]]),
            ),
        )
        model = make_model(sd, params)
        mom = v.e_step(model)

        # quadrature over u = B_1 (length 4, variable-major over 2 blocks)
        nodes, weights = np.polynomial.hermite.hermgauss(24)
        nodes = nodes * np.sqrt(2.0)
        weights = weights / np.sqrt(np.pi)
        S1 = np.kron(params.Sigmas[1], np.eye(2))
        L = np.linalg.cholesky(S1)
        grids = np.meshgrid(*([nodes] * 4), indexing="ij")
        U = np.stack([g.ravel() for g in grids])  # (4, 24^4) standard normals
        Wt = np.ones(U.shape[1])
        for g in np.meshgrid(*([weights] * 4), indexing="ij"):
            Wt = Wt * g.ravel()
        B = L @ U  # prior draws of the block factor
        D1 = D_list(sd)[0]
        resid = (sd.z - sd.X @ params.beta)[:, None] - D1 @ B
        S0inv = np.linalg.inv(np.kron(params.Sigmas[0], np.eye(4)))
        lik = np.exp(-0.5 * np.einsum("ij,ik,kj->j", resid, S0inv, resid))
        wsum = Wt * lik
        norm = wsum.sum()
        post_mean = (B * wsum).sum(axis=1) / norm
        assert np.max(np.abs(post_mean - mom.b_mean[0])) < 1e-6
        sq = np.zeros((2, 2))
        for j in range(2):
            for k in range(2):
                sq[j, k] = ((B[2 * j : 2 * j + 2] * B[2 * k : 2 * k + 2]).sum(axis=0) * wsum).sum() / norm
        assert np.max(np.abs(sq - mom.b_sq[0])) < 1e-6
        # residual-factor mean through the defining identity
        b0_mean = (resid * wsum).sum(axis=1) / norm
        assert np.max(np.abs(b0_mean - mom.b0_mean)) < 1e-6
        b0_sq = np.zeros((2, 2))
        for j in range(2):
            for k in range(2):
                b0_sq[j, k] = (
                    (resid[4 * j : 4 * j + 4] * resid[4 * k : 4 * k + 4]).sum(axis=0)
                    * wsum
                ).sum() / norm
        assert np.max(np.abs(b0_sq - mom.b0_sq)) < 1e-6


class TestMStep:
    def test_complete_data_divisors(self):
        ds, spec, sd0 = _rcb_stacked()
        sd = v.build_stacked(ds, spec, random_treatment_terms=[("treatment", "block")])
        rng = np.random.default_rng(3)
        n, m = sd.n_obs, sd.m
        params = MVCParams(
            beta=rng.normal(size=sd.X.shape[1]),
            sigma2=np.array([1.0]),
            Sigmas=(np.eye(2), np.eye(2)),
        )
        model = make_model(sd, params)
        # inject exactly-known effects: zero conditional variance
        T1 = rng.normal(size=C_list(sd)[0].shape[1])
        B1 = rng.normal(size=2 * W_list(sd)[0].shape[1])
        d1 = W_list(sd)[0].shape[1]
        b_sq = np.empty((2, 2))
        for j in range(2):
            for k in range(2):
                b_sq[j, k] = B1[j * d1 : (j + 1) * d1] @ B1[k * d1 : (k + 1) * d1]
        reduced = sd.z - C_list(sd)[0] @ T1 - D_list(sd)[0] @ B1
        mom = EStepMoments(
            t_mean=(T1,),
            t_sq=(float(T1 @ T1),),
            b_mean=(B1,),
            b_sq=(b_sq,),
            b0_mean=reduced - sd.X @ params.beta,
            b0_sq=np.zeros((2, 2)),
            resid_less_effects=reduced,
            b0_trace=np.zeros((2, 2)),
        )
        new, events = v.m_step(mom, model)
        assert np.isclose(new.sigma2[0], (T1 @ T1) / len(T1))
        assert np.allclose(new.Sigmas[1], b_sq / d1)
        # residual covariance is the cross-product of the new residuals
        b0 = reduced - sd.X @ new.beta
        S0 = np.empty((2, 2))
        for j in range(2):
            for k in range(2):
                S0[j, k] = b0[j * n : (j + 1) * n] @ b0[k * n : (k + 1) * n] / n
        assert np.allclose(new.Sigmas[0], S0)

    def test_zero_residual_mean_leaves_trace_average(self):
        ds, spec, sd = _rcb_stacked()
        n = sd.n_obs
        params = initial_params(sd)
        model = make_model(sd, params)
        tr = np.array([[2.0, 0.5], [0.5, 1.0]])
        mom = EStepMoments(
            t_mean=(),
            t_sq=(),
            b_mean=(np.zeros(2 * W_list(sd)[0].shape[1]),),
            b_sq=(np.eye(2),),
            b0_mean=np.zeros(2 * n),
            b0_sq=tr,
            resid_less_effects=sd.X @ params.beta,  # new beta reproduces it
            b0_trace=tr * n,
        )
        new, _ = v.m_step(mom, model)
        assert np.allclose(new.Sigmas[0], tr, atol=1e-8)

    def test_one_step_from_truth_is_monotone(self):
        ds, spec, sd = _rcb_stacked(seed=5)
        params = MVCParams(
            beta=np.linalg.lstsq(sd.X, sd.z, rcond=None)[0],
            sigma2=np.zeros(0),
            Sigmas=(
                np.array([[2.0, 0.6], [0.6, 0.8]]),
                np.array([[6.0, 2.0], [2.0, 2.0]]),
            ),
        )
        model = make_model(sd, params)
        ll0 = v.observed_loglik(model)
        mom = v.e_step(model)
        new, _ = v.m_step(mom, model)
        ll1 = v.observed_loglik(model.with_params(new))
        assert ll1 >= ll0 - 1e-10


class TestFitEm:
    def test_matches_closed_form_on_complete_rcb(self):
        ds, spec, sd = _rcb_stacked(seed=1, b=8)
        hf, bp, _ = v.fit_bivariate_rcb_ml(ds, spec)
        assert bp.sigma_b_psd  # interior optimum for this draw
        fit = v.fit_em(make_model(sd), tol=1e-12, max_iter=50000)
        assert fit.converged
        assert abs(fit.loglik - hf.loglik) < 1e-6
        assert np.max(np.abs(fit.params.Sigmas[0] - bp.Sigma_E)) < 1e-4
        assert np.max(np.abs(fit.params.Sigmas[1] - bp.Sigma_B)) < 1e-4
        assert np.max(np.abs(fit.params.beta[:6] - hf.mu_y_hat)) < 1e-4
        assert abs(fit.params.beta[6] - bp.mu_z) < 1e-4

    def test_direct_optimizer_oracle_small_instance(self):
        sd, _truth = make_oracle_instance(0)
        fit = v.fit_em(make_model(sd), tol=1e-12, max_iter=100000)
        ll_opt, p_opt = direct_max_loglik(sd, extra_starts=[fit.params])
        assert fit.loglik >= ll_opt - 1e-6
        for a, b in zip(fit.params.Sigmas, p_opt.Sigmas):
            assert np.max(np.abs(a - b)) < 1e-4
        assert np.max(np.abs(fit.params.beta - p_opt.beta)) < 1e-4

    def test_monotone_trace(self):
        ds, spec, sd = _rcb_stacked(seed=9)
        fit = v.fit_em(make_model(sd), tol=1e-10, max_iter=3000)
        assert np.min(np.diff(fit.loglik_trace)) >= -1e-10

    def test_missing_data_machinery_is_bit_reproducible(self):
        ds, spec, _ = _rcb_stacked(seed=2, b=8)
        ds_roundtrip = drop_cells(ds, [])  # exercise the deletion path
        sd1 = v.build_stacked(ds, spec)
        sd2 = v.build_stacked(ds_roundtrip, spec)
        assert np.array_equal(sd1.z, sd2.z)
        assert np.array_equal(sd1.X, sd2.X)
        f1 = v.fit_em(make_model(sd1), tol=1e-10, max_iter=2000)
        f2 = v.fit_em(make_model(sd2), tol=1e-10, max_iter=2000)
        assert np.array_equal(f1.loglik_trace, f2.loglik_trace)
        assert np.array_equal(f1.params.beta, f2.params.beta)

    def test_record_reordering_invariance(self):
        ds, spec, sd = _rcb_stacked(seed=3, b=8)
        rng = np.random.default_rng(12)
        perm = rng.permutation(ds.n_records)
        ds2 = v.Dataset(
            factors={k: val[perm] for k, val in ds.factors.items()},
            response=ds.response[perm],
            covariates=ds.covariates[perm],
            covariate_names=ds.covariate_names,
            levels={},
        )
        # closed-form paths sort into the grid: exactly invariant
        f1 = v.fit_fixed_rcb(ds, spec)
        f2 = v.fit_fixed_rcb(ds2, spec)
        assert np.array_equal(f1.adjusted_means, f2.adjusted_means)
        h1, _, _ = v.fit_bivariate_rcb_ml(ds, spec)
        h2, _, _ = v.fit_bivariate_rcb_ml(ds2, spec)
        assert h1.gamma_e_hat == h2.gamma_e_hat
        # the iterative engine reads the records in canonical order: exactly invariant
        e1 = v.fit_em(make_model(v.build_stacked(ds, spec)), tol=1e-11, max_iter=20000)
        e2 = v.fit_em(make_model(v.build_stacked(ds2, spec)), tol=1e-11, max_iter=20000)
        assert np.array_equal(e1.loglik_trace, e2.loglik_trace)
        assert np.array_equal(e1.params.beta, e2.params.beta)

    def test_label_permutation_invariance(self):
        ds, spec, sd = _rcb_stacked(seed=4, b=8)
        rename = {f"T{i + 1:02d}": lab for i, lab in enumerate("FEDCBA")}
        ds2 = v.Dataset(
            factors={
                "treatment": np.array(
                    [rename[x] for x in ds.factors["treatment"]], dtype=object
                ),
                "block": ds.factors["block"],
            },
            response=ds.response,
            covariates=ds.covariates,
            covariate_names=ds.covariate_names,
            levels={},
        )
        sd2 = v.build_stacked(ds2, spec)
        f1 = v.fit_em(make_model(sd), tol=1e-11, max_iter=20000)
        f2 = v.fit_em(make_model(sd2), tol=1e-11, max_iter=20000)
        assert abs(f1.loglik - f2.loglik) < 1e-10
        r1 = v.adjusted_means_mvc(f1)
        r2 = v.adjusted_means_mvc(f2)
        # new labels sort in reverse, so the means arrive reversed
        assert np.allclose(r2.means, r1.means[::-1], atol=1e-9)

    def test_unbalanced_se_pattern(self):
        ds, spec, _ = _rcb_stacked(seed=1, b=8)
        ds2 = drop_cells(ds, [("T01", "B01"), ("T02", "B01")])
        sd = v.build_stacked(ds2, spec)
        fit = v.fit_em(make_model(sd), tol=1e-10, max_iter=20000)
        res = v.adjusted_means_mvc(fit)
        assert np.isclose(res.se[0], res.se[1], rtol=1e-6)
        assert res.se[0] > np.max(res.se[2:])
        # the estimated covariate mean moves off the raw average
        assert not np.isclose(res.evaluated_at[0], np.nanmean(ds2.covariates), atol=1e-6)


def _no_block_draw(seed):
    """t = 3, b = 6 RCB drawn with no block effect at all, two cells
    blanked: the block covariance MLE usually lies on the PSD boundary."""
    params = replace(interior_bivariate_params(3), Sigma_B=np.zeros((2, 2)))
    cfg = v.SimConfig(t=3, b=6, params=params, replicates=1, seed=seed)
    ds = v.gen_bivariate_rcb(cfg)[0]
    cells = [("T01", f"B{seed % 6 + 1:02d}"), ("T03", f"B{(seed + 3) % 6 + 1:02d}")]
    return v.build_stacked(drop_cells(ds, cells), cfg.design_spec)


class TestStopReasons:
    def test_em_large_input_stops_on_gradient(self, tmp_path, monkeypatch):
        # the first benchmark em_large input: t = 6, b = 60, one blanked cell
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        case = workloads.em_large(np.random.default_rng(0))[0]
        (tmp_path / "d.csv").write_text(case.csv_text)
        (tmp_path / "d.json").write_text(json.dumps(case.design))
        spec = load_design_spec(tmp_path / "d.json")
        sd = v.build_stacked(load_dataset(tmp_path / "d.csv", spec), spec)
        fit = v.fit_em(make_model(sd))
        assert fit.converged and fit.stop == "gradient"
        assert fit.em_iterations == _EM_START and fit.finisher_iterations > 0
        assert fit.iterations < 20

    def test_no_block_input_stops_on_gradient(self):
        fit = v.fit_em(make_model(_no_block_draw(5)))
        assert fit.converged and fit.stop == "gradient"
        assert fit.em_iterations == _EM_START and fit.finisher_iterations > 0
        assert fit.iterations == fit.em_iterations + fit.finisher_iterations < 40
        # the block covariance MLE of this draw is 0, which EM never reaches
        assert np.max(np.abs(fit.params.Sigmas[1])) < 1e-12

    def test_max_iter_within_the_budget_runs_plain_em(self):
        sd = _no_block_draw(5)
        for max_iter in (1, 3, _EM_START):
            fit = v.fit_em(make_model(sd), max_iter=max_iter)
            assert not fit.converged and fit.stop == "max_iter"
            assert fit.iterations == max_iter and fit.finisher_iterations == 0
            assert len(fit.loglik_trace) == max_iter + 1

    def test_max_iter_caps_em_and_finisher_together(self):
        fit = v.fit_em(make_model(_no_block_draw(5)), max_iter=_EM_START + 2)
        assert not fit.converged and fit.stop == "max_iter"
        assert fit.iterations == _EM_START + 2 and fit.finisher_iterations == 2
        assert len(fit.loglik_trace) == _EM_START + 3
        assert fit.loglik_trace[-1] >= fit.loglik_trace[-2]


class TestBoundaryOracle:
    """No-block draws with blanked cells at fit_em defaults against the
    direct optimizer; most of their optima lie on the PSD boundary."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_reaches_the_direct_maximum(self, seed):
        sd = _no_block_draw(seed)
        fit = v.fit_em(make_model(sd))
        assert fit.converged
        ll_opt, _ = direct_max_loglik(sd, extra_starts=[fit.params])
        assert fit.loglik >= ll_opt - 1e-6


GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden_cli"
MVC_GOLDENS = [
    c for c in json.loads((GOLDEN_DIR / "golden.json").read_text())
    if c["args"] == ["fit", "--model", "mvc", "--method", "ml"] and c["code"] == 0
]


def _psd_cholesky(S):
    """Lower-triangular L with L L' = S for a PSD S.  A squared pivot below
    1e-8 of its diagonal entry is taken as 0: ten printed significant
    digits move it by up to about 2e-9 of that entry, either way, so a
    rank-deficient S is printed with such a pivot of either sign."""
    k = len(S)
    L = np.zeros((k, k))
    for j in range(k):
        sq = S[j, j] - L[j, :j] @ L[j, :j]
        L[j, j] = np.sqrt(sq) if sq > 1e-8 * S[j, j] else 0.0
        for i in range(j + 1, k):
            L[i, j] = (S[i, j] - L[i, :j] @ L[j, :j]) / L[j, j] if L[j, j] > 0 else 0.0
    return L


@pytest.mark.parametrize("case", MVC_GOLDENS, ids=[c["data"] for c in MVC_GOLDENS])
def test_golden_mvc_fits_are_stationary(case):
    """Every golden mvc fit that exits 0 holds the maximum: the dense
    log-density's central-difference gradient in the Cholesky factors of
    the printed covariances is zero (on the boundary, a zero pivot enters
    V only through its square), and it converged."""
    assert len(MVC_GOLDENS) == 5
    fields = dict(l.split("\t") for l in case["stdout"].split("\n\n")[0].split("\n"))
    assert case["code"] == 0 and fields["converged"] == "true"
    spec = load_design_spec(GOLDEN_DIR / f"{case['data']}.json")
    sd = v.build_stacked(load_dataset(GOLDEN_DIR / f"{case['data']}.csv", spec), spec)
    assert not C_list(sd)
    mp1, il = sd.m + 1, np.tril_indices(sd.m + 1)
    Sigmas = [
        np.array([[float(fields[f"Sigma{i}[{min(a, b)},{max(a, b)}]"]) for b in range(mp1)]
                  for a in range(mp1)])
        for i in range(len(sd.block_codes) + 1)
    ]
    x = np.concatenate([_psd_cholesky(S)[il] for S in Sigmas])

    def nll(y):
        Ls = [np.zeros((mp1, mp1)) for _ in Sigmas]
        for i, L in enumerate(Ls):
            L[il] = y[i * len(il[0]) : (i + 1) * len(il[0])]
        return _dense_profile_nll(sd, np.zeros(0), [L @ L.T for L in Ls])[0]

    assert abs(-nll(x) - float(fields["loglik"])) < 1e-7
    h = 1e-5
    g = np.array([(nll(x + h * e) - nll(x - h * e)) / (2 * h) for e in np.eye(len(x))])
    assert np.max(np.abs(g)) < 1e-6, g


class TestTreatmentsAffectCovariates:
    def test_em_recovers_covariate_treatment_means(self):
        # treatments shift the covariate; the covariate blocks get their own
        # treatment means and the response means stay the direct effects
        params = interior_bivariate_params(3)
        tau_z = np.array([-0.8, 0.0, 0.8])
        spec = v.DesignSpec(
            response="y",
            treatment_factors=("treatment",),
            blocking_factors=("block",),
            covariates=("z",),
            recipe="rcb",
            treatments_affect_covariates=True,
        )
        reps = 20
        est_zmeans = np.empty((reps, 3))
        est_ymeans = np.empty((reps, 3))
        for seed in range(reps):
            cfg = v.SimConfig(
                t=3, b=10, params=params, replicates=1, seed=seed, tau_z=tau_z
            )
            ds = v.gen_bivariate_rcb(cfg)[0]
            sd = v.build_stacked(ds, spec)
            assert not sd.cov_mean_cols  # covariate means are per-treatment now
            fit = v.fit_em(make_model(sd), tol=1e-10, max_iter=30000)
            assert fit.converged, seed
            est_ymeans[seed] = fit.params.beta[:3]
            est_zmeans[seed] = fit.params.beta[3:6]
        for i in range(3):
            target = params.mu_z + tau_z[i]
            se = est_zmeans[:, i].std(ddof=1) / np.sqrt(reps)
            assert abs(est_zmeans[:, i].mean() - target) < 3.5 * se + 1e-3
            se_y = est_ymeans[:, i].std(ddof=1) / np.sqrt(reps)
            assert abs(est_ymeans[:, i].mean() - params.mu_y[i]) < 3.5 * se_y + 1e-2
        # the reported covariate mean is the average of the cell means
        res = v.adjusted_means_mvc(fit)
        assert np.isclose(res.evaluated_at[0], est_zmeans[-1].mean())


class TestAdjustedMeansMVC:
    def test_decoupled_covariance_gives_univariate_gls_means(self):
        ds, spec, sd = _rcb_stacked(seed=6)
        SE = np.diag([2.0, 0.8])
        SB = np.diag([5.0, 1.5])
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]), sigma2=np.zeros(0), Sigmas=(SE, SB)
        )
        V = assemble_V(make_model(sd, params))
        Vi = np.linalg.inv(V)
        A = sd.X.T @ Vi @ sd.X
        beta = np.linalg.solve(A, sd.X.T @ Vi @ sd.z)
        # univariate GLS on the response alone
        n = sd.n_obs
        T = sd.X[:n, :6]
        W = W_list(sd)[0]
        Vy = SE[0, 0] * np.eye(n) + SB[0, 0] * (W @ W.T)
        Vyi = np.linalg.inv(Vy)
        beta_y = np.linalg.solve(T.T @ Vyi @ T, T.T @ Vyi @ sd.z[:n])
        assert np.max(np.abs(beta[:6] - beta_y)) < 1e-10

    def test_naive_covariance_reduces_to_block_sampling_base(self):
        # fixed-V complete RCB: the naive covariance equals the
        # block-sampling term of the conditional-model formula; the slope
        # term is the reported residual discrepancy
        ds, spec, sd = _rcb_stacked(seed=1, b=8)
        SE = np.array([[2.0, 0.6], [0.6, 0.8]])
        SB = np.array([[6.0, 2.0], [2.0, 2.0]])
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]), sigma2=np.zeros(0), Sigmas=(SE, SB)
        )
        model = make_model(sd, params)
        fit = v.MVCFit(
            model=model, loglik_trace=np.array([0.0]), iterations=0, converged=True
        )
        res = v.adjusted_means_mvc(fit)
        p = v.BivariateParams(mu_y=np.zeros(6), mu_z=0.0, Sigma_B=SB, Sigma_E=SE)
        cond = v.conditional_from_bivariate(p, 6)
        base = (cond.sigma_e2 + cond.sigma_b2) / 8
        assert np.allclose(np.diag(res.covariance), base, atol=1e-10)
        # report the slope-variance term the conditional formula adds
        hf, _, _ = v.fit_bivariate_rcb_ml(ds, spec)
        slope_term = cond.sigma_e2 * (hf.zbar_i - hf.zbar) ** 2 / hf.szz_within
        print(
            "naive-vs-conditional SE^2 discrepancy (slope term): "
            f"max {slope_term.max():.6g}"
        )

    def test_singular_covariate_block_rejected(self):
        ds, spec, sd = _rcb_stacked(seed=6)
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]),
            sigma2=np.zeros(0),
            Sigmas=(np.diag([1.0, 0.0]), np.zeros((2, 2))),
        )
        fit = v.MVCFit(
            model=make_model(sd, params),
            loglik_trace=np.array([0.0]),
            iterations=0,
            converged=True,
        )
        with pytest.raises(SingularityError):
            v.adjusted_means_mvc(fit)


def test_one_blocking_factor_fit_forms_no_q_by_q_array():
    """An RCB with b = 1000 blocks (t = 6, m = 1, q = 2000 block effects):
    the EM start and the Newton steps (at most two) keep the peak
    allocation below the size of one q x q float array."""
    _, _, sd = _rcb_stacked(seed=2, t=6, b=1000)
    q = (sd.m + 1) * 1000
    model = make_model(sd)
    tracemalloc.start()
    try:
        fit = v.fit_em(model, max_iter=_EM_START + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.finisher_iterations >= 1
    assert peak < q * q * 8
