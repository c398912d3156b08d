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
    MVCParams,
    _coord_bounds,
    _coords,
    _params,
    _point,
    _Profile,
    _terms,
    _whiten,
    e_step,
    m_step,
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
        pt = _point(model)
        V = assemble_V(model)
        Vinv = _solve(pt, np.eye(V.shape[0]))
        assert np.max(np.abs(Vinv - np.linalg.inv(V))) < 1e-9
        assert np.isclose(pt.logdet, np.linalg.slogdet(V)[1], atol=1e-9)


def _solve(pt, y):
    """V^-1 y = (L0^-T (x) I)(I - A (I + A'A)^-1 A')(L0^-1 (x) I) y through
    the factor of a point, for a stacked vector or matrix y."""
    yw = _whiten(pt.L0inv, y)
    w = pt.mme.upper(pt.core(yw))
    return _whiten(pt.L0inv, yw - pt.terms.apply(pt.wloads, w), trans=True)


def _random_cov(rng, k):
    L = rng.normal(size=(k, k))
    return L @ L.T + 0.5 * np.eye(k)


def _latin_square_stacked(seed=0, b=4, m=2, blank=(), blocking=("row", "col")):
    """A b x b Latin square with m covariates: two blocking factors, or the
    ``blocking`` factors of a custom recipe.

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
        blocking_factors=blocking,
        covariates=names,
        recipe="latin_square" if blocking == ("row", "col") else "custom",
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
        pt = _point(model)
        V = assemble_V(model)
        Vinv = np.linalg.inv(V)
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(V.shape[0], 3))
        r = sd.z - sd.X @ params.beta
        assert np.max(np.abs(_solve(pt, Y) - Vinv @ Y)) < 1e-9
        assert np.isclose(pt.logdet, np.linalg.slogdet(V)[1], atol=1e-9)
        rw, s, _ = pt.at(params.beta)
        assert np.isclose(rw @ rw - s @ s, r @ Vinv @ r, rtol=1e-9, atol=1e-9)

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


def _dense_posterior(pt):
    """P = (I + A'A)^-1 = var(v | z), column by column from the solves of
    the point's mixed-model equations."""
    return pt.mme.upper(pt.mme.lower(np.eye(pt.mme.layout.q)))


def _roots(pt):
    """Lambda with u = Lambda v, from the loadings a_k = L0 T_k of a point:
    sigma_j I for a random treatment term, a_k (x) I for a blocking factor."""
    terms = pt.terms
    return linalg.block_diag(*[
        np.kron((pt.L0 @ T)[:1] if k < terms.r else pt.L0 @ T, np.eye(d))
        for k, (T, d) in enumerate(zip(pt.wloads, terms.levels))
    ])


def _dense_effects(sd, params, beta):
    """The posterior mean and variance of u, the dense incidence M and the
    residual r = z - X beta, from assemble_V at fixed effects ``beta``."""
    M, Psi = _dense_random_terms(sd, params)
    Vinv = np.linalg.inv(assemble_V(make_model(sd, params)))
    r = sd.z - sd.X @ beta
    return Psi @ M.T @ Vinv @ r, Psi - Psi @ M.T @ Vinv @ M @ Psi, M, r


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


def _one_block_layout():
    """Rows of a Latin square as the only blocking factor, two covariates
    and two blanked cells, so that the rows hold 3 or 4 cells."""
    sd = _latin_square_stacked(seed=4, blank=[(1, 2), (3, 0)], blocking=("row",))
    rng = np.random.default_rng(14)
    params = MVCParams(
        beta=rng.normal(size=sd.X.shape[1]),
        sigma2=np.zeros(0),
        Sigmas=tuple(_random_cov(rng, 3) for _ in range(2)),
    )
    return sd, params


LAYOUTS = {
    "_rcb": _rcb_layout,
    "_latin_square": _latin_square_layout,
    "_tau_rcb": _tau_rcb_layout,
    "_one_block": _one_block_layout,
}


class TestKroneckerTermsAgainstDense:
    """E-step moments and adjusted-means covariance, taken from group codes
    and count matrices, against the dense posterior built from assemble_V
    and the dense incidences."""

    @pytest.mark.parametrize("layout", ["_rcb", "_latin_square"])
    def test_e_step_matches_dense_posterior(self, layout):
        # the E-step is taken at the point's GLS fixed effects
        sd, params = LAYOUTS[layout]()
        pt = _point(make_model(sd, params))
        n, mp1 = sd.n_obs, sd.m + 1
        Eu, Vu, M, r = _dense_effects(sd, params, pt.beta)
        lam = _roots(pt)
        _assert_close(lam @ _dense_posterior(pt) @ lam.T, Vu)
        _assert_close(lam @ pt.v, Eu)

        # the spherical effects v, dense: whitened, z has covariance I + A A'
        white = np.kron(pt.L0inv, np.eye(n))
        A = white @ M @ lam
        K = np.linalg.solve(np.eye(len(A)) + A @ A.T, np.column_stack([white @ r, A]))
        Ev, Vv = A.T @ K[:, 0], np.eye(A.shape[1]) - A.T @ K[:, 1:]
        moments = e_step(pt)
        for k, (d, sl) in enumerate(zip(pt.terms.levels, pt.terms.slices)):
            E = Ev[sl].reshape(-1, d)
            blocks = Vv[sl, sl].reshape(len(E), d, len(E), d)
            _assert_close(moments[k + 1], (E @ E.T + np.einsum("aibi->ab", blocks)) / d)
        # the whitened residual: the data less every random term
        e = (white @ (r - M @ Eu)).reshape(mp1, n)
        cell = (white @ M @ Vu @ M.T @ white.T).reshape(mp1, n, mp1, n)
        _assert_close(moments[0], (e @ e.T + np.einsum("aibi->ab", cell)) / n)
        _assert_close(pt.resid, e)

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
            assert abs(prof.f - dense) <= 1e-10 * abs(dense)
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
    """The parts of the Newton steps' Hessian H = 2 AI - E + N against the
    dense covariance, at the points of :class:`TestFinisherAgainstDense`,
    and H against differences of the gradient."""

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
    def test_information_matches_dense(self, layout):
        sd, params = LAYOUTS[layout]()
        terms, _, points = _profile_points(sd, params)
        for pt in points:
            Vi, dV = self._dense(sd, pt)[0], self._dV(sd, pt)
            want = 0.5 * np.array([[np.trace(Vi @ a @ Vi @ b) for b in dV] for a in dV])
            got = _Profile(pt, terms, sd.X, sd.z).information()
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_information_without_random_terms(self):
        # V = exp(2 x) I_n, so tr(V^-1 Vdot V^-1 Vdot) / 2 = 2 n
        sd = _univariate_stacked()
        terms = _terms(sd)
        E = _Profile(np.array([0.3]), terms, sd.X, sd.z).information()
        assert np.allclose(E, [[2.0 * sd.n_obs]], rtol=1e-12)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_hessian_matches_differenced_gradient(self, layout):
        # H = 2 AI - E + N is the Hessian itself, also where a diagonal of
        # some T_k, or a theta_j, is 0 on its own
        sd, params = LAYOUTS[layout]()
        terms, _, points = _profile_points(sd, params)
        bounded = np.flatnonzero(_coord_bounds(terms) == 0)
        points += [np.where(np.arange(len(points[1])) == i, 0.0, points[1]) for i in bounded]
        h = 1e-5
        for pt in points:
            num = np.array([
                (_Profile(pt + h * e, terms, sd.X, sd.z).grad
                 - _Profile(pt - h * e, terms, sd.X, sd.z).grad) / (2 * h)
                for e in np.eye(len(pt))
            ])
            _assert_close(_Profile(pt, terms, sd.X, sd.z).hess, num, tol=1e-6)


class TestEStep:
    def test_zero_variance_factor_has_zero_moments(self):
        # sigma_j = 0: u_j = sigma_j v_j is 0, v_j keeps its N(0, I) prior,
        # and the M-step keeps theta_j at 0
        ds, spec, sd0 = _rcb_stacked()
        sd = v.build_stacked(ds, spec, random_treatment_terms=[("treatment", "block")])
        params = MVCParams(
            beta=np.zeros(sd.X.shape[1]),
            sigma2=np.array([0.0]),
            Sigmas=(np.eye(2), 0.5 * np.eye(2)),
        )
        pt = _point(make_model(sd, params))
        sl = pt.terms.slices[0]
        assert not pt.wloads[0].any() and not pt.v[sl].any()
        assert np.allclose(e_step(pt)[1], 1.0, rtol=0, atol=1e-12)
        new, _ = m_step(pt, e_step(pt))
        assert _params(new.x, new.terms, new.beta).sigma2[0] == 0.0

    def test_data_at_mean_gives_zero_conditional_means(self):
        ds, spec, sd = _rcb_stacked()
        beta = np.linalg.lstsq(sd.X, sd.z, rcond=None)[0]
        sd0 = StackedData(**{**sd.__dict__, "z": sd.X @ beta})
        params = MVCParams(
            beta=beta,
            sigma2=np.zeros(0),
            Sigmas=(np.eye(2), 0.5 * np.eye(2)),
        )
        pt = _point(make_model(sd0, params))
        assert np.allclose(pt.v, 0.0, atol=1e-12)
        assert np.allclose(pt.resid, 0.0, atol=1e-12)
        # second moments reduce to the conditional-variance traces
        for M in e_step(pt):
            assert np.allclose(M, M.T)
            assert np.all(np.diag(M) > 0)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_moments_are_the_gradients_em_update(self, layout):
        """M_k = I - (2/d_k) T_k' Gamma_k T_k, with Gamma_k whitened
        (:attr:`_Profile.gammas`; d_0 = n and T_0 = I for the residual), at
        a layout's point and on random RCB draws with blank cells."""
        sd, params = LAYOUTS[layout]()
        points = [_point(make_model(sd, params))]
        rng = np.random.default_rng(sorted(LAYOUTS).index(layout))
        for seed in range(5):
            t, b = rng.integers(3, 7), rng.integers(4, 9)
            ds, spec, _ = _rcb_stacked(seed=seed, t=t, b=b)
            blank = [(f"T{rng.integers(1, t + 1):02d}", f"B{rng.integers(1, b + 1):02d}")]
            sd = v.build_stacked(drop_cells(ds, blank), spec)
            S = _random_cov(rng, 2)
            params = MVCParams(beta=np.zeros(sd.X.shape[1]), sigma2=np.zeros(0),
                               Sigmas=(_random_cov(rng, 2), rng.uniform(0, 3) * S))
            points.append(_point(make_model(sd, params)))
        for pt in points:
            terms = pt.terms
            Ts = [np.eye(terms.mp1)] + list(pt.wloads)
            for M, T, G, d in zip(e_step(pt), Ts, pt.gammas, (terms.n,) + terms.levels):
                _assert_close(M, np.eye(len(M)) - (2.0 / d) * T.T @ G @ T, tol=1e-12)

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
        pt = _point(make_model(sd, params))
        M0, M1 = e_step(pt)  # at the point's GLS fixed effects
        a1 = pt.L0 @ pt.wloads[0]  # u = a1 v, per block

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
        resid = (sd.z - sd.X @ pt.beta)[:, None] - D1 @ B
        S0inv = np.linalg.inv(np.kron(params.Sigmas[0], np.eye(4)))
        lik = np.exp(-0.5 * np.einsum("ij,ik,kj->j", resid, S0inv, resid))
        wsum = Wt * lik
        norm = wsum.sum()
        post_mean = (B * wsum).sum(axis=1) / norm
        assert np.max(np.abs(post_mean - (a1 @ pt.v.reshape(2, 2)).ravel())) < 1e-6
        sq = np.zeros((2, 2))
        for j in range(2):
            for k in range(2):
                sq[j, k] = ((B[2 * j : 2 * j + 2] * B[2 * k : 2 * k + 2]).sum(axis=0) * wsum).sum() / norm
        assert np.max(np.abs(sq - 2 * a1 @ M1 @ a1.T)) < 1e-6
        # residual-factor mean through the defining identity
        b0_mean = (resid * wsum).sum(axis=1) / norm
        assert np.max(np.abs(b0_mean - (pt.L0 @ pt.resid).ravel())) < 1e-6
        b0_sq = np.zeros((2, 2))
        for j in range(2):
            for k in range(2):
                b0_sq[j, k] = (
                    (resid[4 * j : 4 * j + 4] * resid[4 * k : 4 * k + 4]).sum(axis=0)
                    * wsum
                ).sum() / norm
        assert np.max(np.abs(b0_sq - 4 * pt.L0 @ M0 @ pt.L0.T)) < 1e-6


class TestMStep:
    @pytest.mark.parametrize("layout", ["_rcb", "_latin_square", "_tau_rcb"])
    def test_one_step_sets_the_dense_second_moments(self, layout):
        """Sigma_k <- (1/d_k) sum_l E[u_l u_l' | z] per blocking factor,
        sigma2_j <- E[u_j'u_j | z] / d_j, and Sigma_0 the same of the
        residual factor over the n cells, from the dense posterior at the
        point's GLS fixed effects."""
        sd, params = LAYOUTS[layout]()
        pt = _point(make_model(sd, params))
        n, mp1, r = sd.n_obs, sd.m + 1, pt.terms.r
        Eu, Vu, M, res = _dense_effects(sd, params, pt.beta)
        new, events = m_step(pt, e_step(pt))
        assert events == []
        got = _params(new.x, new.terms, new.beta)
        b0 = (res - M @ Eu).reshape(mp1, n)
        cell = (M @ Vu @ M.T).reshape(mp1, n, mp1, n)
        _assert_close(got.Sigmas[0], (b0 @ b0.T + np.einsum("aibi->ab", cell)) / n)
        # v and u share their positions: p_k is 1 or m + 1 in both
        for k, (d, sl) in enumerate(zip(pt.terms.levels, pt.terms.slices)):
            p = (sl.stop - sl.start) // d
            E = Eu[sl].reshape(p, d)
            want = (E @ E.T + np.einsum("aibi->ab", Vu[sl, sl].reshape(p, d, p, d))) / d
            if k < r:
                _assert_close(got.sigma2[k], want[0, 0])
            else:
                _assert_close(got.Sigmas[k - r + 1], want)
        assert sl.stop == len(Eu)

    def test_zero_cholesky_column_stays_zero(self):
        """A rank-one block covariance whose whitened factor T has a zero
        last column, and a zero theta_j: EM steps keep both exactly 0."""
        sd, params = _rcb_layout()
        terms = _terms(sd)
        x = _coords(params, terms)
        x[[3, 4 + 2]] = 0.0  # theta_0, and T[1, 1] of the block term
        pt = _Profile(x, terms, sd.X, sd.z)
        for _ in range(3):
            pt, _ = m_step(pt, e_step(pt))
            assert pt.x[3] == 0.0 and not pt.wloads[1][:, 1].any()
        assert np.all(pt.wloads[1][:, 0] != 0.0)

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
        pt = _point(model)
        assert -pt.f >= v.observed_loglik(model)  # the GLS fixed effects
        new, _ = m_step(pt, e_step(pt))
        assert -new.f >= -pt.f - 1e-10


class TestFitEm:
    def test_matches_closed_form_on_complete_rcb(self):
        ds, spec, sd = _rcb_stacked(seed=1, b=8)
        hf = v.fit_bivariate_rcb_ml(ds, spec)
        bp = hf.params
        assert bp.sigma_b_psd  # interior optimum for this draw
        fit = v.fit_em(make_model(sd), tol=1e-12, max_iter=50000)
        assert fit.converged
        assert abs(fit.loglik - hf.loglik) < 1e-6
        assert np.max(np.abs(fit.params.Sigmas[0] - bp.Sigma_E)) < 1e-4
        assert np.max(np.abs(fit.params.Sigmas[1] - bp.Sigma_B)) < 1e-4
        assert np.max(np.abs(fit.params.beta[:6] - hf.adjusted_means)) < 1e-4
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
        h1 = v.fit_bivariate_rcb_ml(ds, spec)
        h2 = v.fit_bivariate_rcb_ml(ds2, spec)
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


def test_no_block_draws_take_few_newton_steps():
    """Newton steps on the exact Hessian converge quadratically: the 40
    no-block draws take 232 steps in all (410 on the curvature AI + N,
    which leaves out 2 AI - E)."""
    steps = sum(v.fit_em(make_model(_no_block_draw(s))).finisher_iterations for s in range(40))
    assert steps <= 300


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


def _theorem_gap(ds, spec):
    """The largest gap between ``mvc`` and ``orthogonal`` under ML: in the
    contrasts against the first treatment, and between the within slope
    Sigma0[0,1] / Sigma0[1,1] and ``slopes['z']``."""
    fit = v.fit_em(make_model(v.build_stacked(ds, spec)))
    assert fit.converged
    mvc = v.adjusted_means_mvc(fit).means
    orth = v.fit_orthogonal_conditional(v.recipe_for(spec), ds, method="ml")
    S0 = fit.params.Sigmas[0]
    gap = (mvc - mvc[0]) - (orth.adjusted_means - orth.adjusted_means[0])
    return max(np.max(np.abs(gap)), abs(S0[0, 1] / S0[1, 1] - orth.slopes["z"]))


class TestTheoremSlice:
    """The paper's theorem on block designs with one random blocking
    factor: at an interior maximum, the joint fit (``mvc``) and the
    conditional route (``orthogonal``) give the same slope and contrasts
    under ML (ROADMAP item 3(c), in part)."""

    # draw 7 (t = 6, b = 8) has its maximum on the PSD boundary, where the
    # constrained joint fit departs from the conditional route (by 0.022)
    @pytest.mark.parametrize("draw", [i for i in range(21) if i != 7])
    def test_interior_rcb_draws(self, draw):
        t, b = 3 + draw % 4, 6 + draw % 5
        cfg = v.SimConfig(t=t, b=b, params=interior_bivariate_params(t), seed=100 + draw)
        ds = v.gen_bivariate_rcb(cfg)[0]
        assert v.fit_bivariate_rcb_ml(ds, cfg.design_spec).params.sigma_b_psd  # interior
        assert _theorem_gap(ds, cfg.design_spec) <= 1e-6

    @pytest.mark.parametrize("name", ["rcb", "bib"])
    def test_golden_block_inputs(self, name):
        spec = load_design_spec(GOLDEN_DIR / f"{name}.json")
        ds = load_dataset(GOLDEN_DIR / f"{name}.csv", spec)
        assert _theorem_gap(ds, spec) <= 1e-6


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
        hf = v.fit_bivariate_rcb_ml(ds, spec)
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
