"""The block-eliminated factor of the mixed-model equations against dense
linear algebra: log det M, both solves, diag(M^-1) and every block of
P = M^-1 that a caller contracts, for the layouts both engines fit."""

from dataclasses import replace

import numpy as np
import pytest

from vcadjust import lmm
from vcadjust.mme import _BLOCK, Factor, Layout, _inverse
from vcadjust.mvc_em import _factorise, make_model

from test_lmm import _layout
from test_mvc_em import LAYOUTS

TOL = 1e-10


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= TOL * max(1.0, np.max(np.abs(b), initial=0.0))


def _incidence(codes, levels):
    Z = np.zeros((len(codes), levels))
    Z[np.arange(len(codes)), codes] = 1.0
    return Z


def _dense(N):
    return np.diag(N) if N.ndim == 1 else N


def _check_factor(F, M, weights):
    """F against the dense M; ``weights[i, k]`` lists the weights each
    caller contracts the (i, k) block of P with: (A,) for W = A, (A, B)
    for W = A B'."""
    lay = F.layout
    q = lay.q
    assert M.shape == (q, q)
    P = np.linalg.inv(M) if q else M
    _close(F.logdet, np.linalg.slogdet(M)[1] if q else 0.0)
    # F^-1 and F^-T as matrices: F^-1 M F^-T = I, and upper is lower's transpose
    Finv, FinvT = F.lower(np.eye(q)), F.upper(np.eye(q))
    _close(FinvT, Finv.T)
    _close(Finv @ M @ Finv.T, np.eye(q))
    y = np.random.default_rng(0).normal(size=(q, 3))
    _close(F.upper(F.lower(y)), P @ y)
    _close(F.upper(F.lower(y[:, 0])), P @ y[:, 0])
    _close(F.diag(), np.diag(P))
    for (i, k), Ws in weights.items():
        pi, di, pk, dk = lay.widths[i], lay.levels[i], lay.widths[k], lay.levels[k]
        blk = P[lay.slices[i], lay.slices[k]].reshape(pi, di, pk, dk)
        for W in Ws:
            dense = _dense(W[0]) if len(W) == 1 else _dense(W[0]) @ _dense(W[1]).T
            _close(F.contract(i, k, *W), np.einsum("cadb,ab->cd", blk, dense))


# ---------------------------------------------------------------- fit_lmm


@pytest.mark.parametrize("layout", ["split_plot", "latin_square", "custom", "no_random"])
def test_lmm_factor_matches_dense(layout):
    spec = _layout(layout, np.random.default_rng(3))
    cp = lmm._cross_products(spec)
    lay = cp.layout
    if layout == "split_plot":  # the wholeplots are eliminated, reps form the Schur complement
        assert lay.big == 1 and lay.rest == (0,)
    if layout == "latin_square":  # a tie: rows first, columns in the Schur complement
        assert lay.big == 0 and lay.rest == (1,)
    Z = np.hstack([np.zeros((len(spec.y), 0))]
                  + [_incidence(g, d) for g, d in zip(spec.random, lay.levels)])
    rng = np.random.default_rng(4)
    for sig in (np.r_[1.0, rng.uniform(0.1, 5.0, size=len(spec.random))],
                np.r_[0.3, np.full(len(spec.random), 40.0)]):
        F = lmm._solve(sig, cp).F
        lam = np.sqrt(sig[1:] / sig[0])[cp.factor]
        M = np.eye(len(lam)) + lam[:, None] * (Z.T @ Z) * lam
        weights = {(i, k): [(lay.pair(i, k),)] for i, k in lay.counts}
        _check_factor(F, M, weights)


# ---------------------------------------------------------------- mvc


def _dense_A(f, sd):
    """[a_k (x) Z_k] with the factor's whitened loadings, dense."""
    terms = f.terms
    Zs = [_incidence(g, d) for g, d in zip(terms.codes, terms.levels)]
    A = np.hstack([np.zeros((sd.n_stacked, 0))] + [np.kron(w, Z) for w, Z in zip(f.wloads, Zs)])
    return A, Zs


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_mvc_factor_matches_dense(layout):
    sd, params = LAYOUTS[layout]()
    f = _factorise(make_model(sd, params))
    terms, lay = f.terms, f.mme.layout
    if layout in ("_rcb", "_tau_rcb"):  # the treatment x block term is eliminated
        assert lay.big == 0 and terms.r == 1
    A, Zs = _dense_A(f, sd)
    M = np.eye(A.shape[1]) + A.T @ A
    # e_step: per-term level traces (unit weights) and the count matrices;
    # the curvature: the count products Z_i'Z_m Z_m'Z_k of every term m
    weights = {(i, k): [(lay.pair(i, k),)] for i, k in lay.counts}
    for k, d in enumerate(lay.levels):
        weights[k, k].append((np.ones(d),))
    for (i, k), Ws in weights.items():
        _close(_dense(lay.pair(i, k)), Zs[i].T @ Zs[k])
        Ws += [(lay.pair(i, m), lay.pair(k, m)) for m in range(len(Zs))]
    _check_factor(f.mme, M, weights)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_mvc_adjusted_means_factor_matches_dense(layout):
    """The factor of H = s00 (I + A'A) - B0'B0 that adjusted_means_mvc
    solves with: the same pattern, a scale and a subtracted Gram."""
    sd, params = LAYOUTS[layout]()
    f = _factorise(make_model(sd, params))
    s0 = np.linalg.solve(f.L0 @ f.L0.T, np.eye(sd.m + 1)[:, 0])
    h = [(s0 @ a)[None, :] for a in f.loads]
    hh = f.terms.grams(h)
    grams = {ik: s0[0] * g - hh[ik] for ik, g in f.terms.grams(f.wloads).items()}
    H = Factor(f.mme.layout, grams, scale=s0[0])
    A, Zs = _dense_A(f, sd)
    B0 = np.hstack([np.kron(hk, Z) for hk, Z in zip(h, Zs)])
    M = s0[0] * (np.eye(A.shape[1]) + A.T @ A) - B0.T @ B0
    _check_factor(H, M, {})


def test_one_term_factor_has_an_empty_schur_complement():
    """With one blocking factor nothing is left for the dense Cholesky step."""
    sd, params = LAYOUTS["_rcb"]()
    sd = replace(sd, treatment_random_codes=(), treatment_random_levels=())
    model = make_model(sd, replace(params, sigma2=np.zeros(0)))
    f = _factorise(model)
    assert f.mme.LS.shape == (0, 0) and f.mme.G.shape == (0, f.mme.layout.q)
    A, _ = _dense_A(f, model.stacked)
    lay = f.mme.layout
    _check_factor(f.mme, np.eye(A.shape[1]) + A.T @ A,
                  {(0, 0): [(lay.pair(0, 0),), (np.ones(lay.levels[0]),),
                            (lay.pair(0, 0), lay.pair(0, 0))]})


def test_largest_term_between_two_others():
    """Three crossed terms of widths 2, 1 and 3 with the largest in the
    middle, so the other terms' effects are not contiguous; a scale other
    than 1."""
    rng = np.random.default_rng(5)
    levels, widths = (5, 9, 3), (2, 1, 3)
    codes = [rng.integers(0, d, size=40) for d in levels]
    Zs = [_incidence(g, d) for g, d in zip(codes, levels)]
    lay = Layout(widths, codes, levels)
    counts = lay.counts
    assert lay.big == 1 and lay.rest == (0, 2)
    loads = [rng.normal(size=(3, p)) for p in widths]
    F = Factor(lay, {(i, k): loads[i].T @ loads[k] for i, k in counts}, scale=1.3)
    A = np.hstack([np.kron(a, Z) for a, Z in zip(loads, Zs)])
    weights = {(i, k): [(lay.pair(i, k),)] + [(lay.pair(i, m), lay.pair(k, m)) for m in range(3)]
               for i, k in counts}
    _check_factor(F, 1.3 * np.eye(A.shape[1]) + A.T @ A, weights)


@pytest.mark.parametrize("n", [0, 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_triangular_inverse_by_halves(n):
    """L^-1 of a Cholesky factor at orders that take one numpy inverse, one
    halving and two levels of halving, an odd split included: exactly lower
    triangular, and L^-1 L = I."""
    A = np.random.default_rng(n).normal(size=(n, n))
    L = np.linalg.cholesky(A @ A.T + n * np.eye(n)) if n else np.zeros((0, 0))
    X = _inverse(L)
    assert X.shape == (n, n) and not np.triu(X, 1).any()
    _close(X @ L, np.eye(n))


def test_schur_complement_wider_than_a_block():
    """Two crossed terms, the Schur complement over the smaller one wider
    than ``_BLOCK``, so L_S^-1 is taken by halves."""
    rng = np.random.default_rng(8)
    levels = (_BLOCK + 20, 2 * _BLOCK)
    codes = [rng.integers(0, d, size=600) for d in levels]
    lay = Layout((1, 1), codes, levels)
    loads = [rng.normal(size=(2, 1)) for _ in levels]
    F = Factor(lay, {(i, k): loads[i].T @ loads[k] for i, k in lay.counts})
    assert lay.big == 1 and len(F.LS) > _BLOCK
    A = np.hstack([np.kron(a, _incidence(g, d)) for a, g, d in zip(loads, codes, levels)])
    weights = {(i, k): [(lay.pair(i, k),)] for i, k in lay.counts}
    _check_factor(F, np.eye(A.shape[1]) + A.T @ A, weights)


def test_layout_counts_and_level_sums_match_dense():
    """The count matrices and per-level sums that Layout forms from the codes
    are Z_i'Z_k and E Z_k of the dense incidences, a level no record uses
    included."""
    rng = np.random.default_rng(9)
    levels = (4, 7, 3)
    codes = [rng.integers(0, d - 1, size=30) for d in levels]  # the last level stays empty
    Zs = [_incidence(g, d) for g, d in zip(codes, levels)]
    lay = Layout((1, 2, 1), codes, levels)
    for i, k in lay.counts:
        _close(_dense(lay.pair(i, k)), Zs[i].T @ Zs[k])
        _close(_dense(lay.pair(k, i)), Zs[k].T @ Zs[i])
    E = rng.normal(size=(3, 30))
    for S, Z in zip(lay.level_sums(E), Zs):
        _close(S, E @ Z)


def _block_norms(P, lay):
    return np.array([[np.sum(P[si, sk] ** 2) for sk in lay.slices] for si in lay.slices]
                    ).reshape(len(lay.slices), len(lay.slices))


@pytest.mark.parametrize("layout", ["split_plot", "latin_square", "custom", "no_random"])
def test_lmm_block_norms_match_dense(layout):
    """|P_ik|_F^2, the squared norms of the term blocks of P = M^-1 that the
    exact Hessian of fit_lmm reads, against the dense inverse."""
    spec = _layout(layout, np.random.default_rng(3))
    cp = lmm._cross_products(spec)
    Z = np.hstack([np.zeros((len(spec.y), 0))]
                  + [_incidence(g, d) for g, d in zip(spec.random, cp.layout.levels)])
    sig = np.r_[0.7, np.random.default_rng(4).uniform(0.1, 5.0, size=len(spec.random))]
    lam = np.sqrt(sig[1:] / sig[0])[cp.factor]
    M = np.eye(len(lam)) + lam[:, None] * (Z.T @ Z) * lam
    P = np.linalg.inv(M) if len(lam) else M
    _close(lmm._solve(sig, cp).F.block_norms(), _block_norms(P, cp.layout))


def test_block_norms_of_wide_terms():
    """Three crossed terms of widths 2, 1 and 3, the largest in the middle,
    with a scale other than 1."""
    rng = np.random.default_rng(6)
    levels, widths = (5, 9, 3), (2, 1, 3)
    codes = [rng.integers(0, d, size=40) for d in levels]
    lay = Layout(widths, codes, levels)
    loads = [rng.normal(size=(3, p)) for p in widths]
    F = Factor(lay, {(i, k): loads[i].T @ loads[k] for i, k in lay.counts}, scale=1.3)
    A = np.hstack([np.kron(a, _incidence(g, d)) for a, g, d in zip(loads, codes, levels)])
    P = np.linalg.inv(1.3 * np.eye(A.shape[1]) + A.T @ A)
    _close(F.block_norms(), _block_norms(P, lay))
