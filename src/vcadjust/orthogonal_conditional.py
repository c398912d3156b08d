"""Stratum regressions and conditional fits for orthogonal blocking designs.

When the replicate-unit covariance has the projector form handled by
:mod:`.design_algebra`, conditioning the response on the covariates yields
a univariate mixed model whose extra regressors are stratum means of the
covariates (block means, wholeplot means, row and column means).  Each
shipped recipe knows which means to append, which random factors to keep,
and which projector partition its replicate unit carries.

:func:`fit_orthogonal_conditional` is the package's one conditional-LMM
builder: every univariate mixed fit (the naive single-slope model, the
two-slope block model and the recipes) is this function with a different
regressor list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, DesignSpec, incidence
from .design_algebra import (
    KroneckerCovariance,
    OrthogonalPartition,
    averaging_matrix,
    validate_partition,
)
from .errors import SingularityError, ValidationError
from .lmm import LmmFit, LmmSpec, fit_lmm


@dataclass(frozen=True)
class StratumRegression:
    """Per-stratum covariate slopes and conditional variances."""

    gammas: tuple[np.ndarray, ...]  # one m-vector per stratum
    lambdas: np.ndarray  # conditional variance per stratum

    @property
    def n_strata(self) -> int:
        return len(self.gammas)


def stratum_regressions(kc: KroneckerCovariance) -> StratumRegression:
    """Slopes and residual variances of response-on-covariates per stratum.

    Variable 0 of every stratum matrix is the response; the slope vector is
    the regression of it on the remaining variables within that stratum and
    the conditional variance is the corresponding Schur complement.
    """
    gammas, lambdas = [], []
    for l, G in enumerate(kc.strata):
        g_uu = G[0, 0]
        g_uz = G[0, 1:]
        G_zz = G[1:, 1:]
        if G_zz.size == 0:
            gammas.append(np.zeros(0))
            lambdas.append(float(g_uu))
            continue
        try:
            sol = np.linalg.solve(G_zz, g_uz)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(
                f"stratum {l}: covariate block is singular"
            ) from exc
        gammas.append(sol)
        lambdas.append(float(g_uu - g_uz @ sol))
    return StratumRegression(gammas=tuple(gammas), lambdas=np.array(lambdas))


def adjusted_means_orthogonal(
    mu_y: np.ndarray, gamma_0: np.ndarray, zbar: np.ndarray, mu_z: np.ndarray
) -> np.ndarray:
    """Expected responses with every covariate held at its marginal mean.

    Only the grand-mean stratum slope survives the averaging, so the
    adjustment is the scalar ``gamma_0'(zbar - mu_z)`` subtracted from each
    treatment mean.
    """
    mu_y = np.asarray(mu_y, dtype=float)
    gamma_0 = np.atleast_1d(np.asarray(gamma_0, dtype=float))
    zbar = np.atleast_1d(np.asarray(zbar, dtype=float))
    mu_z = np.atleast_1d(np.asarray(mu_z, dtype=float))
    if not (len(gamma_0) == len(zbar) == len(mu_z)):
        raise ValidationError("gamma_0, zbar, mu_z must share one length")
    return mu_y - float(gamma_0 @ (zbar - mu_z))


@dataclass(frozen=True)
class DesignRecipe:
    """Resolved factor roles for one of the shipped orthogonal designs.

    ``mean_groupings`` are the factor tuples whose group means enter the
    conditional model as regressors; ``random_groupings`` name the random
    factors (each the crossing of the listed factors); ``replicate_factors``
    identify one replicate unit and ``unit_classifiers`` the sub-unit
    groupings that generate the unit's projector partition.
    """

    name: str
    treatment_factors: tuple[str, ...]
    mean_groupings: tuple[tuple[str, ...], ...]
    random_groupings: tuple[tuple[str, tuple[str, ...]], ...]
    replicate_factors: tuple[str, ...]
    unit_classifiers: tuple[tuple[str, ...], ...]


def recipe_for(spec: DesignSpec) -> DesignRecipe:
    """Build the recipe for ``spec`` from its declared factor roles."""
    tf, bf = spec.treatment_factors, spec.blocking_factors
    if spec.recipe in ("rcb", "incomplete_block"):
        return _block_recipe(spec)
    if spec.recipe == "split_plot":
        wp_trt, _sp_trt = tf
        rep = bf[0]
        wholeplot = (wp_trt, rep)
        return DesignRecipe(
            name="split_plot",
            treatment_factors=tf,
            mean_groupings=(wholeplot,),
            random_groupings=(("wholeplot", wholeplot),),
            replicate_factors=wholeplot,
            unit_classifiers=(),
        )
    if spec.recipe == "blocked_split_plot":
        wp_trt, sp_trt = tf
        block, rep = bf
        wholeplot = (block, wp_trt, rep)
        return DesignRecipe(
            name="blocked_split_plot",
            treatment_factors=tf,
            mean_groupings=((block,), wholeplot),
            random_groupings=(
                (block, (block,)),
                (f"{block}*{wp_trt}", (block, wp_trt)),
                ("wholeplot", wholeplot),
                (f"{block}*{sp_trt}", (block, sp_trt)),
                (f"{block}*{wp_trt}*{sp_trt}", (block, wp_trt, sp_trt)),
            ),
            replicate_factors=(block,),
            unit_classifiers=((wp_trt, rep),),
        )
    if spec.recipe == "latin_square":
        row, col = bf
        return DesignRecipe(
            name="latin_square",
            treatment_factors=tf,
            mean_groupings=((row,), (col,)),
            random_groupings=((row, (row,)), (col, (col,))),
            replicate_factors=(),
            unit_classifiers=((row,), (col,)),
        )
    raise ValidationError(
        f"recipe {spec.recipe!r} has no orthogonal-conditional expansion"
    )


def _block_recipe(spec: DesignSpec, block_means: bool = True) -> DesignRecipe:
    """Random blocks from the first blocking factor; ``block_means=False``
    leaves out the block-mean regressor (the single-slope model)."""
    block = spec.blocking_factors[0]
    return DesignRecipe(
        name=spec.recipe,
        treatment_factors=spec.treatment_factors,
        mean_groupings=((block,),) if block_means else (),
        random_groupings=((block, (block,)),),
        replicate_factors=(block,),
        unit_classifiers=(),
    )


def _codes(ds: Dataset, grouping: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted labels of the groups of ``grouping`` (levels joined by ``:``)
    and each record's integer group code; ``()`` puts every record in one group."""
    parts = [ds.factors[f] for f in grouping] or [np.full(ds.n_records, "", object)]
    keys = np.array([":".join(v) for v in zip(*parts)], dtype=object)
    return np.unique(keys, return_inverse=True)


def conditional_regressors(recipe: DesignRecipe, ds: Dataset) -> Dataset:
    """Append the recipe's stratum-mean covariate columns to the dataset.

    Means are taken over complete cells; every group inside one grouping
    must hold the same number of complete cells, otherwise the layout is
    not orthogonal and belongs to the general engine.
    """
    mask = ds.complete_mask
    new_cols = []
    new_names = []
    for grouping in recipe.mean_groupings:
        _, codes = _codes(ds, grouping)
        groups, counts = np.unique(codes[mask], return_counts=True)
        if len(groups) == 0:
            raise ValidationError("no complete cells to average")
        if counts.min() != counts.max():
            raise ValidationError(
                f"grouping {grouping} has ragged cell counts; "
                "route this layout to the general engine"
            )
        for j, cov in enumerate(ds.covariate_names):
            vals = ds.covariates[:, j]
            col = np.full(ds.n_records, np.nan)
            for g in groups:
                members = mask & (codes == g)
                col[members] = vals[members].mean()
            new_cols.append(col)
            new_names.append(f"mean({cov}|{','.join(grouping)})")
    covs = np.column_stack([ds.covariates] + [c.reshape(-1, 1) for c in new_cols])
    return Dataset(
        factors=dict(ds.factors),
        response=ds.response,
        covariates=covs,
        covariate_names=ds.covariate_names + tuple(new_names),
        levels=dict(ds.levels),
    )


def recipe_partition(recipe: DesignRecipe, ds: Dataset) -> OrthogonalPartition:
    """Projector partition of one replicate unit, built from the layout.

    Every replicate unit must show the same cell count; the partition is
    the grand-mean projector, one centered averaging projector per unit
    classifier, and the residual.  The result is validated before return.
    """
    sub = ds.subset(ds.complete_mask)
    _, units = _codes(sub, recipe.replicate_factors)
    counts = np.bincount(units)
    if counts.min() != counts.max():
        raise ValidationError(
            "replicate units have unequal cell counts; not an orthogonal layout"
        )
    k = int(counts[0])
    unit = sub.subset(units == 0)

    A0 = averaging_matrix(k)
    projs = [A0]
    for classifier in recipe.unit_classifiers:
        _, codes = _codes(unit, classifier)
        P = np.zeros((k, k))
        for g in range(codes.max() + 1):
            idx = np.where(codes == g)[0]
            P[np.ix_(idx, idx)] = 1.0 / len(idx)
        projs.append(P - A0)
    resid = np.eye(k) - sum(projs)
    projs.append(resid)
    part = OrthogonalPartition(dim=k, projectors=tuple(projs))
    report = validate_partition(part, tol=1e-8)
    if not report.passed:
        raise ValidationError(
            f"layout does not generate an orthogonal partition for recipe "
            f"{recipe.name!r}"
        )
    return part


@dataclass
class OrthogonalConditionalFit:
    """Conditional mixed fit of an orthogonal recipe with adjusted means."""

    treatments: tuple[str, ...]
    adjusted_means: np.ndarray
    adjusted_se: np.ndarray
    slopes: dict[str, float]
    var_comps: dict[str, float]
    loglik: float
    method: str
    lmm_fit: LmmFit
    dropped_regressors: tuple[str, ...]


def _canonical_records(ds: Dataset, treatment_factors: tuple[str, ...]):
    """Complete records sorted by treatment label, then by the levels of
    every other factor in column order, with the labels and label codes.

    Fitting in this one order makes the result independent of the row
    order of the input.
    """
    sub = ds.subset(ds.complete_mask)
    if sub.n_records == 0:
        raise ValidationError("no complete cells")
    labels, codes = _codes(sub, treatment_factors)
    keys = [codes]
    for f in sub.factors:
        if f not in treatment_factors:
            index = {lev: i for i, lev in enumerate(sub.factor_levels(f))}
            keys.append(np.array([index[v] for v in sub.factors[f]], dtype=int))
    order = np.lexsort(keys[::-1])
    return sub.subset(order), list(labels), codes[order]


def _check_blocks(sub: Dataset, codes: np.ndarray, t: int, block: str):
    """Equal block sizes and a connected treatment/block graph."""
    _, bcodes = _codes(sub, (block,))
    sizes = np.bincount(bcodes)
    if sizes.min() != sizes.max():
        raise ValidationError(
            "blocks have unequal sizes; route this layout to the general engine"
        )
    # treatments reachable from the first through shared blocks
    N = incidence(codes, t).T @ incidence(bcodes, len(sizes))
    reach = np.arange(t) == 0
    for _ in range(t):
        reach = N @ (N.T @ reach) > 0
    if not reach.all():
        raise SingularityError(
            "design is disconnected; treatment effects are inestimable"
        )


def fit_orthogonal_conditional(
    recipe: DesignRecipe,
    ds: Dataset,
    method: str = "ml",
    tol: float = 1e-10,
    max_iter: int = 500,
) -> OrthogonalConditionalFit:
    """Fit the recipe's conditional model and adjust the treatment means.

    The fixed part is the full treatment-combination cell means plus one
    slope per covariate column (original and appended stratum means); the
    random part is the recipe's factor list.  Constant regressor columns
    (for instance an identically-zero covariate, or a covariate whose
    block means are all equal) are dropped, pinning their slopes at zero.
    Means are evaluated with every covariate column at the grand mean of
    its parent covariate.  A recipe whose only random factor is its
    replicate factor (random blocks) must have equal block sizes and a
    connected design.  ``tol`` and ``max_iter`` go to :func:`fit_lmm`.
    """
    sub, labels, codes = _canonical_records(ds, recipe.treatment_factors)
    rf = recipe.replicate_factors
    if len(rf) == 1 and recipe.random_groupings == ((rf[0], rf),):
        _check_blocks(sub, codes, len(labels), rf[0])
    aug = conditional_regressors(recipe, sub)
    t, n_orig = len(labels), sub.m
    T = incidence(codes, t)
    grand = np.array([sub.covariates[:, j].mean() for j in range(n_orig)])

    keep, dropped = [], []
    for r in range(aug.m):
        col = aug.covariates[:, r]
        if np.var(col) <= 1e-12 * max(1.0, float(np.mean(col**2))):
            dropped.append(aug.covariate_names[r])
        else:
            keep.append(r)
    R = aug.covariates[:, keep]

    randoms = []
    for _name, grouping in recipe.random_groupings:
        groups, idx = _codes(sub, grouping)
        randoms.append(incidence(idx, len(groups)))

    X = np.column_stack([T, R]) if R.size else T
    names = tuple(name for name, _ in recipe.random_groupings)
    lmm_spec = LmmSpec(y=sub.response, X=X, random=tuple(randoms), names=names)
    fit = fit_lmm(lmm_spec, method=method, tol=tol, max_iter=max_iter)

    # each appended column is evaluated at the grand mean of its parent
    coef = np.zeros((t, X.shape[1]))
    coef[:, :t] = np.eye(t)
    for pos, r in enumerate(keep):
        coef[:, t + pos] = grand[r % n_orig]
    adj = coef @ fit.beta_hat
    adj_cov = coef @ fit.beta_cov @ coef.T
    slopes = {aug.covariate_names[r]: float(fit.beta_hat[t + pos])
              for pos, r in enumerate(keep)}
    for nm in dropped:
        slopes[nm] = 0.0
    return OrthogonalConditionalFit(
        treatments=tuple(labels),
        adjusted_means=adj,
        adjusted_se=np.sqrt(np.clip(np.diag(adj_cov), 0.0, None)),
        slopes=slopes,
        var_comps=fit.var_comps,
        loglik=fit.loglik,
        method=method,
        lmm_fit=fit,
        dropped_regressors=tuple(dropped),
    )


def _fit_block_design(ds, spec, block_means, method, tol, max_iter):
    """The random-blocks conditional fit behind the one-covariate block
    fitters, with or without the block-mean regressor; any recipe with one
    blocking factor, ``custom`` included."""
    if spec.m != 1:
        raise ValidationError("block-design fitters need exactly one covariate")
    if len(spec.blocking_factors) != 1:
        raise ValidationError("block-design fitters need one blocking factor")
    recipe = _block_recipe(spec, block_means)
    return fit_orthogonal_conditional(recipe, ds, method, tol=tol, max_iter=max_iter)
