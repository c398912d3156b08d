"""Stratum regressions and conditional fits for orthogonal blocking designs.

When the design is orthogonal with respect to its random blocking factors,
conditioning the response on the covariates yields a univariate mixed
model whose extra regressors are stratum means of the covariates (block
means, wholeplot means, row and column means).  Each shipped recipe knows
which means to append and which random factors to keep;
:func:`orthogonality` tests the hypothesis on the count tables of the
layout.

:func:`fit_orthogonal_conditional` is the package's one conditional-LMM
builder: every univariate mixed fit (the naive single-slope model, the
two-slope block model and the recipes) is this function with a different
regressor list.  It and :func:`orthogonality` read the complete records of
:func:`.data_model.complete_records`, cell c being the c-th complete record
in canonical order, and every grouping is coded by
:func:`.data_model.group_codes` over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, DesignSpec, complete_records, group_codes, incidence
from .errors import SingularityError, ValidationError
from .lmm import LmmFit, LmmSpec, fit_lmm


@dataclass(frozen=True)
class DesignRecipe:
    """Resolved factor roles for one of the shipped orthogonal designs.

    ``mean_groupings`` are the factor tuples whose group means enter the
    conditional model as regressors; ``random_groupings`` name the random
    factors (each the crossing of the listed factors), against which
    :func:`orthogonality` tests the treatment terms.
    """

    name: str
    treatment_factors: tuple[str, ...]
    mean_groupings: tuple[tuple[str, ...], ...]
    random_groupings: tuple[tuple[str, tuple[str, ...]], ...]


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
        )
    if spec.recipe == "latin_square":
        row, col = bf
        return DesignRecipe(
            name="latin_square",
            treatment_factors=tf,
            mean_groupings=((row,), (col,)),
            random_groupings=((row, (row,)), (col, (col,))),
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
    )


def conditional_regressors(
    recipe: DesignRecipe, ds: Dataset, codes: dict[tuple[str, ...], np.ndarray] | None = None
) -> Dataset:
    """Append the recipe's stratum-mean covariate columns to the dataset.

    Means are taken over complete cells; every group inside one grouping
    must hold the same number of complete cells, otherwise the layout is
    not orthogonal and belongs to the general engine.  ``codes`` maps each
    mean grouping to its group codes in ``ds`` when the caller has them.
    """
    if codes is None:
        codes = {g: group_codes(ds, g)[1] for g in recipe.mean_groupings}
    mask = ds.complete_mask
    new_cols = []
    new_names = []
    for grouping in recipe.mean_groupings:
        inside = codes[grouping][mask]
        sizes = np.bincount(inside)
        counts = sizes[sizes > 0]
        if len(counts) == 0:
            raise ValidationError("no complete cells to average")
        if counts.min() != counts.max():
            raise ValidationError(
                f"grouping {grouping} has ragged cell counts; "
                "route this layout to the general engine"
            )
        for j, cov in enumerate(ds.covariate_names):
            sums = np.bincount(inside, weights=ds.covariates[mask, j])
            col = np.full(ds.n_records, np.nan)
            col[mask] = sums[inside] / sizes[inside]
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


def _table(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Count table ``N_FG`` of two groupings' codes."""
    shape = (f.max() + 1, g.max() + 1)
    return np.bincount(f * shape[1] + g, minlength=shape[0] * shape[1]).reshape(shape)


def _classes(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class of every row and column of the count table ``N``: the classes
    of ``F ∧ G`` are the connected components of its occupied cells, each
    labelled by its first row."""
    rows, cols = np.nonzero(N)
    row_class = np.arange(N.shape[0])
    while True:
        col_class = np.full(N.shape[1], N.shape[0])
        np.minimum.at(col_class, cols, row_class[rows])
        joined = row_class.copy()
        np.minimum.at(joined, rows, col_class[cols])
        if np.array_equal(joined, row_class):
            return row_class, col_class
        row_class = joined


def _deviation(N: np.ndarray) -> float:
    """Worst ``|n_fg n_h - n_f n_g| / (n_f n_g)`` over the cells (f, g) of a
    class h of ``F ∧ G``; 0 exactly when F and G have proportional
    frequencies within every class, that is, when they are orthogonal."""
    row_class, col_class = _classes(N)
    n_f, n_g = N.sum(axis=1), N.sum(axis=0)
    n_h = np.bincount(row_class, weights=n_f).astype(N.dtype)[row_class]
    expected = np.outer(n_f, n_g)
    gap = np.abs(N * n_h[:, None] - expected)
    inside = row_class[:, None] == col_class[None, :]
    return float(np.max(gap[inside] / expected[inside]))


def orthogonality(recipe: DesignRecipe, ds: Dataset) -> list[tuple[str, str, float]]:
    """Test the theorem's hypothesis: every treatment term orthogonal to every
    random grouping, and the random groupings to one another.

    The treatment terms are the treatment factors and, when there are two or
    more, their combination.  Returns ``(term, grouping, deviation)`` for
    each pair, in order: the treatment terms against the random groupings,
    then each pair of random groupings.  The deviation (:func:`_deviation`)
    is computed on the count table of the complete records and is 0
    exactly when the pair is orthogonal; the test is exact on counts.
    Orthogonality is sufficient for the conditional route, not necessary.
    """
    tf = recipe.treatment_factors
    sub = complete_records(ds, tf)[0]
    terms = [(f, (f,)) for f in tf] + ([("*".join(tf), tf)] if len(tf) > 1 else [])
    randoms = list(recipe.random_groupings)
    pairs = [(a, b) for a in terms for b in randoms]
    pairs += [(a, b) for i, a in enumerate(randoms) for b in randoms[i + 1:]]
    code = {g: group_codes(sub, g)[1] for _name, g in terms + randoms}
    return [(a, b, _deviation(_table(code[fa], code[fb])))
            for (a, fa), (b, fb) in pairs]


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


def _check_blocks(bcodes: np.ndarray, codes: np.ndarray):
    """Equal block sizes and a connected treatment/block graph."""
    sizes = np.bincount(bcodes)
    if sizes.min() != sizes.max():
        raise ValidationError(
            "blocks have unequal sizes; route this layout to the general engine"
        )
    # the treatment x block table must form one class
    if _classes(_table(codes, bcodes))[0].any():
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
    its parent covariate.  A recipe whose only random grouping is a single
    factor (random blocks) must have equal block sizes and a connected
    design.  ``tol`` and ``max_iter`` go to :func:`fit_lmm`.
    """
    sub, labels, codes = complete_records(ds, recipe.treatment_factors)
    random_groupings = [g for _name, g in recipe.random_groupings]
    group = {g: group_codes(sub, g)[1] for g in {*recipe.mean_groupings, *random_groupings}}
    if len(random_groupings) == 1 and len(random_groupings[0]) == 1:  # random blocks
        _check_blocks(group[random_groupings[0]], codes)
    aug = conditional_regressors(recipe, sub, group)
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

    randoms = tuple(group[g] for g in random_groupings)

    X = np.column_stack([T, R]) if R.size else T
    names = tuple(name for name, _ in recipe.random_groupings)
    lmm_spec = LmmSpec(y=sub.response, X=X, random=randoms, names=names)
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

